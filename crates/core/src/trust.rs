//! Destination-side verification of a nested RAR — the transitive trust
//! model of §6.4.
//!
//! The destination holds exactly one a-priori key: its direct upstream
//! peer's, pinned by the SLA and confirmed during the secure-channel
//! handshake. Everything further upstream is reached through the
//! envelope itself: each broker layer embeds the certificate of the
//! *inner* layer's signer, and by signing the whole layer the outer
//! broker vouches for that certificate — "this web of trust allows each
//! domain to access a list of key introducers when deciding whether to
//! accept the public key stored in the certificate."
//!
//! The verifier also enforces the paper's two structural checks:
//! path continuity (each layer names its downstream broker, and exactly
//! that broker must have wrapped it) and a local bound on acceptable
//! chain depth ("checking its own security policy which might limit the
//! depth of an acceptable trust chain").
//!
//! Alternatives to the introducer walk (§6.4's option list) are modelled
//! by [`KeySource`] for the D3 ablation.

use crate::envelope::{RarLayer, SignedRar};
use crate::error::CoreError;
use crate::rar::ResSpec;
use crate::view::RarView;
use qos_crypto::sha256::Digest;
use qos_crypto::{
    Certificate, CertificateDirectory, DistinguishedName, PublicKey, Signature, Timestamp,
    TrustPolicy,
};
use qos_policy::AttributeSet;

/// Where a verifier obtains upstream public keys.
pub enum KeySource<'a> {
    /// Walk the introducer chain embedded in the envelope (the paper's
    /// preferred mechanism).
    Introducers,
    /// Resolve DNs against a trusted certificate repository ("secure
    /// LDAP" — §6.4 option 2).
    Directory(&'a CertificateDirectory),
}

/// What successful verification yields.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedRar {
    /// The reservation specification.
    pub res_spec: ResSpec,
    /// Signers innermost-first: user, source BB, transit BBs.
    pub signer_path: Vec<DistinguishedName>,
    /// The user's identity certificate (introduced by the source BB).
    pub user_cert: Certificate,
    /// The source BB's certificate, if the envelope has ≥2 broker layers
    /// — this is what the destination needs to open the direct tunnel
    /// channel back to the source domain.
    pub source_bb_cert: Option<Certificate>,
    /// All capability certificates, CAS grant first (Figure 7's list).
    pub capability_certs: Vec<Certificate>,
    /// Merged policy attachments from every domain on the path.
    pub attachments: AttributeSet,
}

/// Does nothing: no envelope verdict is memoized (DESIGN.md §D29). Kept
/// for the `qosbench` harness; the benchmark's rewrite (ROADMAP item 1) deletes it.
pub fn clear_rar_memo() {}

/// Verify a received envelope.
///
/// * `outer_pk` — the direct peer's public key (SLA-pinned, confirmed by
///   the channel handshake);
/// * `self_dn` — the verifier's own DN (the outermost layer must be
///   addressed to it);
/// * `policy` — local chain-depth bound;
/// * `now` — certificate validity instant;
/// * `keys` — where upstream keys come from (D3 ablation).
///
/// Every call walks the whole nest and checks every layer's signature:
/// no verdict is remembered between calls (DESIGN.md §D29).
pub fn verify_rar(
    rar: &SignedRar,
    outer_pk: PublicKey,
    self_dn: &DistinguishedName,
    policy: TrustPolicy,
    now: Timestamp,
    keys: &KeySource<'_>,
) -> Result<VerifiedRar, CoreError> {
    let view = RarView::of(rar);
    verify_view(&view, outer_pk, self_dn, policy, now, keys)?;
    let user_cert = view
        .introduced_cert(0)
        .expect("a verified envelope has a broker layer introducing the user");
    Ok(VerifiedRar {
        res_spec: view.spec().clone(),
        signer_path: view.signers().cloned().collect(),
        user_cert: user_cert.clone(),
        source_bb_cert: view.introduced_cert(1).cloned(),
        capability_certs: view.caps().iter().copied().cloned().collect(),
        attachments: view.merged_attachments(),
    })
}

/// [`verify_rar`] on a view the caller already built; what a verified
/// envelope yields is then read off the view, not copied out of it.
// Hot path (DESIGN.md §D17): under .clippy-hotpath this attribute rejects
// un-annotated Vec::new / slice::to_vec in the walk.
#[deny(clippy::disallowed_methods)]
pub(crate) fn verify_view(
    view: &RarView<'_>,
    outer_pk: PublicKey,
    self_dn: &DistinguishedName,
    policy: TrustPolicy,
    now: Timestamp,
    keys: &KeySource<'_>,
) -> Result<(), CoreError> {
    let rar = view.outer();
    // Depth bound: broker layers beyond the user's.
    let depth = view.depth() - 1;
    if depth > policy.max_chain_depth {
        return Err(CoreError::ChainTooDeep {
            depth,
            limit: policy.max_chain_depth,
        });
    }

    // The outermost layer must be addressed to us…
    if let RarLayer::Broker {
        next_bb: Some(next),
        ..
    } = &rar.layer
    {
        if next != self_dn {
            return Err(CoreError::PathMismatch {
                expected: next.clone(),
                found: self_dn.clone(),
            });
        }
    }

    // …and signed by the peer we received it from.
    //
    // The walk below is purely structural: it checks path continuity,
    // certificate validity, and key resolution while *collecting* each
    // layer's (digest, key, signature) triple. All signatures are then
    // checked at once with a single multi-exponentiation
    // (`qos_crypto::verify_batch_digests`); only if that combined check
    // fails do we verify layer-by-layer to attribute the bad signature.
    let layers = view.layers();
    let mut current_pk = resolve_key(keys, &rar.signer, outer_pk, now)?;
    let mut batch: Vec<(Digest, PublicKey, Signature)> = Vec::with_capacity(layers.len());
    for (i, &current) in layers.iter().enumerate() {
        batch.push((*current.layer_digest(), current_pk, current.signature));
        match &current.layer {
            RarLayer::Broker { upstream_cert, .. } => {
                let inner = layers[i + 1];
                // The embedded certificate must describe the inner signer.
                if !upstream_cert.tbs().subject.same_principal(&inner.signer) {
                    return Err(CoreError::PathMismatch {
                        expected: inner.signer.clone(),
                        found: upstream_cert.tbs().subject.clone(),
                    });
                }
                upstream_cert.check_validity(now).map_err(CoreError::from)?;
                // Path continuity: the inner layer named its downstream
                // broker (the user's layer: the source BB); exactly that
                // broker must have signed this wrap.
                let inner_next = match &inner.layer {
                    RarLayer::Broker { next_bb, .. } => next_bb.as_ref(),
                    RarLayer::User { source_bb, .. } => Some(source_bb),
                };
                if let Some(expected) = inner_next.filter(|&e| *e != current.signer) {
                    return Err(CoreError::PathMismatch {
                        expected: expected.clone(),
                        found: current.signer.clone(),
                    });
                }
                // Descend with the introduced (or directory-resolved) key.
                current_pk = resolve_key(
                    keys,
                    &inner.signer,
                    upstream_cert.tbs().subject_public_key,
                    now,
                )?;
            }
            RarLayer::User { res_spec, .. } => {
                // Innermost layer reached. The requestor in the spec must
                // be the layer's signer, and some broker layer must have
                // introduced the user's certificate.
                if !res_spec.requestor.same_principal(&current.signer) {
                    return Err(CoreError::PathMismatch {
                        expected: res_spec.requestor.clone(),
                        found: current.signer.clone(),
                    });
                }
                if i == 0 {
                    return Err(CoreError::LayerSignature {
                        signer: current.signer.clone(),
                    });
                }
            }
        }
    }

    if !qos_crypto::verify_batch_digests(&batch) {
        // Attribute: find the first layer (outermost-first) whose
        // signature fails on its own. The layers are independent, so
        // check them concurrently on the worker pool.
        let verdicts = crate::parallel::verify_each(&batch);
        // The combined check failed but every layer passes individually —
        // a coefficient collision with probability ~2⁻³², or a bug.
        // Treat it as the outermost layer failing rather than accepting.
        let bad = verdicts.iter().position(|ok| !ok).unwrap_or(0);
        return Err(CoreError::LayerSignature {
            signer: layers[bad].signer.clone(),
        });
    }
    Ok(())
}

fn resolve_key(
    keys: &KeySource<'_>,
    dn: &DistinguishedName,
    introduced: PublicKey,
    now: Timestamp,
) -> Result<PublicKey, CoreError> {
    match keys {
        KeySource::Introducers => Ok(introduced),
        KeySource::Directory(dir) => {
            let pk = dir.lookup(dn, now).map_err(CoreError::from)?;
            // Defence in depth: the directory and the introduced key must
            // agree — a mismatch means someone is lying.
            if pk != introduced {
                return Err(CoreError::LayerSignature { signer: dn.clone() });
            }
            Ok(pk)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rar::{RarId, ResSpec};
    use qos_broker::Interval;
    use qos_crypto::{CertificateAuthority, KeyPair, Validity};

    struct Fix {
        ca: CertificateAuthority,
        user: KeyPair,
        bb: Vec<KeyPair>, // bb[0]=A, bb[1]=B, bb[2]=C
    }

    fn fix() -> Fix {
        Fix {
            ca: CertificateAuthority::new(
                DistinguishedName::authority("CA"),
                KeyPair::from_seed(b"ca"),
            ),
            user: KeyPair::from_seed(b"alice"),
            bb: (0..4)
                .map(|i| KeyPair::from_seed(format!("bb-{i}").as_bytes()))
                .collect(),
        }
    }

    fn domain(i: usize) -> String {
        format!("domain-{}", (b'a' + i as u8) as char)
    }

    fn spec() -> ResSpec {
        ResSpec::new(
            RarId(1),
            DistinguishedName::user("Alice", "ANL"),
            "domain-a",
            "domain-c",
            7,
            10_000_000,
            Interval::starting_at(Timestamp(0), 3600),
        )
    }

    /// Build the canonical RAR_B the paper resolves in §6.4: user → A → B,
    /// addressed to C.
    fn build(f: &mut Fix, hops: usize) -> SignedRar {
        let user_cert = f.ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            f.user.public(),
            Validity::unbounded(),
        );
        let mut rar = SignedRar::user_request(
            spec(),
            DistinguishedName::broker(&domain(0)),
            vec![],
            &f.user,
        );
        let mut upstream_cert = user_cert;
        for i in 0..hops {
            let next = Some(DistinguishedName::broker(&domain(i + 1)));
            rar = SignedRar::wrap(
                rar,
                upstream_cert,
                next,
                vec![],
                AttributeSet::new(),
                DistinguishedName::broker(&domain(i)),
                &f.bb[i],
            );
            upstream_cert = f.ca.issue_identity(
                DistinguishedName::broker(&domain(i)),
                f.bb[i].public(),
                Validity::unbounded(),
            );
        }
        rar
    }

    #[test]
    fn layer_digest_is_what_a_vector_of_string_pairs_gave() {
        // First pinned at de05c9d, where a name was a `Vec<Rdn>`: the
        // bytes a signature and a digest cover did not move when a name
        // became its own encoding (DESIGN.md §D18). Re-pinned when signing
        // became hash-then-sign (§D21): the encoding of every field is
        // what it was, but the inner layers' signature *values* changed
        // and they sit inside the outer layer's bytes, so its digest
        // moved with them. Re-pinned again for the chained digest and the
        // folded link (§D22): a layer's digest is now over `0x01 ‖ inner
        // digest ‖ what the broker added`, and a broker layer's encoding
        // ends with one more byte (`delegate: None`).
        let mut f = fix();
        let rar = build(&mut f, 2);
        let hex = |d: &[u8]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(rar.layer_digest()),
            "c2aba4a6d5e75eaf271738ef4af0456fb3a99680f9b6780e931a2e482425de36"
        );
    }

    #[test]
    fn destination_verifies_two_hop_envelope() {
        let mut f = fix();
        let rar = build(&mut f, 2); // signed by A then B, addressed to C
        let verified = verify_rar(
            &rar,
            f.bb[1].public(),
            &DistinguishedName::broker("domain-c"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap();
        assert_eq!(verified.res_spec.rar_id, RarId(1));
        assert_eq!(verified.signer_path.len(), 3);
        assert_eq!(
            verified.user_cert.tbs().subject,
            DistinguishedName::user("Alice", "ANL")
        );
        // B's layer introduced A's certificate.
        assert_eq!(
            verified.source_bb_cert.as_ref().unwrap().tbs().subject,
            DistinguishedName::broker("domain-a")
        );
    }

    #[test]
    fn wrong_peer_key_rejected() {
        let mut f = fix();
        let rar = build(&mut f, 2);
        let err = verify_rar(
            &rar,
            f.bb[2].public(), // not B's key
            &DistinguishedName::broker("domain-c"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::LayerSignature { .. }));
    }

    #[test]
    fn batch_failure_attributes_the_tampered_layer() {
        let mut f = fix();
        let mut rar = build(&mut f, 2); // B wraps A wraps user
                                        // Tamper the *middle* layer's signature (A's). The combined batch
                                        // check must fail and the fallback must name domain-a, not the
                                        // outermost signer.
        let RarLayer::Broker { inner, .. } = &mut rar.layer else {
            panic!()
        };
        inner.signature.s ^= 1;
        let err = verify_rar(
            &rar,
            f.bb[1].public(),
            &DistinguishedName::broker("domain-c"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::LayerSignature {
                signer: DistinguishedName::broker("domain-a")
            }
        );
    }

    #[test]
    fn misaddressed_envelope_rejected() {
        let mut f = fix();
        let rar = build(&mut f, 2); // addressed to domain-c
        let err = verify_rar(
            &rar,
            f.bb[1].public(),
            &DistinguishedName::broker("domain-x"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::PathMismatch { .. }));
    }

    #[test]
    fn skipped_domain_breaks_path_continuity() {
        let mut f = fix();
        // A addresses B, but C's peer claims to have received it from A
        // directly wrapped by C — i.e. B was skipped. Build: user→A
        // (next=B), then wrap by *C* instead of B.
        let user_cert = f.ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            f.user.public(),
            Validity::unbounded(),
        );
        let rar_u = SignedRar::user_request(
            spec(),
            DistinguishedName::broker("domain-a"),
            vec![],
            &f.user,
        );
        let rar_a = SignedRar::wrap(
            rar_u,
            user_cert,
            Some(DistinguishedName::broker("domain-b")),
            vec![],
            AttributeSet::new(),
            DistinguishedName::broker("domain-a"),
            &f.bb[0],
        );
        let cert_a = f.ca.issue_identity(
            DistinguishedName::broker("domain-a"),
            f.bb[0].public(),
            Validity::unbounded(),
        );
        let rar_c = SignedRar::wrap(
            rar_a,
            cert_a,
            Some(DistinguishedName::broker("domain-d")),
            vec![],
            AttributeSet::new(),
            DistinguishedName::broker("domain-c"), // C wrapped, but A said B
            &f.bb[2],
        );
        let err = verify_rar(
            &rar_c,
            f.bb[2].public(),
            &DistinguishedName::broker("domain-d"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::PathMismatch { .. }), "{err}");
    }

    #[test]
    fn depth_policy_enforced() {
        let mut f = fix();
        let rar = build(&mut f, 3);
        let err = verify_rar(
            &rar,
            f.bb[2].public(),
            &DistinguishedName::broker("domain-d"),
            TrustPolicy { max_chain_depth: 2 },
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap_err();
        assert_eq!(err, CoreError::ChainTooDeep { depth: 3, limit: 2 });
    }

    #[test]
    fn directory_key_source_agrees() {
        let mut f = fix();
        let rar = build(&mut f, 2);
        let mut dir = CertificateDirectory::new();
        dir.publish(f.ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            f.user.public(),
            Validity::unbounded(),
        ));
        for i in 0..2 {
            dir.publish(f.ca.issue_identity(
                DistinguishedName::broker(&domain(i)),
                f.bb[i].public(),
                Validity::unbounded(),
            ));
        }
        assert!(verify_rar(
            &rar,
            f.bb[1].public(),
            &DistinguishedName::broker("domain-c"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Directory(&dir),
        )
        .is_ok());
        // A directory that disagrees with the introduced key flags the lie.
        let mut bad = CertificateDirectory::new();
        bad.publish(f.ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            KeyPair::from_seed(b"not-alice").public(),
            Validity::unbounded(),
        ));
        for i in 0..2 {
            bad.publish(f.ca.issue_identity(
                DistinguishedName::broker(&domain(i)),
                f.bb[i].public(),
                Validity::unbounded(),
            ));
        }
        assert!(verify_rar(
            &rar,
            f.bb[1].public(),
            &DistinguishedName::broker("domain-c"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Directory(&bad),
        )
        .is_err());
    }

    #[test]
    fn expired_introduced_cert_rejected() {
        let mut f = fix();
        // Build with a short-lived user cert.
        let user_cert = f.ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            f.user.public(),
            Validity::starting_at(Timestamp(0), 10),
        );
        let rar_u = SignedRar::user_request(
            spec(),
            DistinguishedName::broker("domain-a"),
            vec![],
            &f.user,
        );
        let rar_a = SignedRar::wrap(
            rar_u,
            user_cert,
            Some(DistinguishedName::broker("domain-b")),
            vec![],
            AttributeSet::new(),
            DistinguishedName::broker("domain-a"),
            &f.bb[0],
        );
        let err = verify_rar(
            &rar_a,
            f.bb[0].public(),
            &DistinguishedName::broker("domain-b"),
            TrustPolicy::default(),
            Timestamp(100),
            &KeySource::Introducers,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Crypto(qos_crypto::CryptoError::Expired { .. })
        ));
    }

    #[test]
    fn memo_never_accepts_tampered_outer_signature() {
        let mut f = fix();
        let rar = build(&mut f, 2);
        // The genuine envelope verifies…
        verify_rar(
            &rar,
            f.bb[1].public(),
            &DistinguishedName::broker("domain-c"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap();
        // …and a moment later the same bytes under a corrupted outer
        // signature are refused: nothing remembers the first verdict.
        let mut forged = rar;
        forged.signature.s ^= 1;
        let err = verify_rar(
            &forged,
            f.bb[1].public(),
            &DistinguishedName::broker("domain-c"),
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::LayerSignature { .. }));
    }
}
