//! Web-of-trust key introduction (§6.4, option 1 — the paper's preferred
//! mechanism for accessing the public keys of entities without a direct
//! trust relationship).
//!
//! Each domain "add[s] the certificate of the upstream domain — known
//! because of the SSL handshake — and sign[s] it". The next domain thereby
//! receives a *list of key introducers*: a chain of vouchers rooted at a
//! peer it already trusts through an SLA. A verifier walks the chain,
//! checking each voucher under the previously accepted key, and applies a
//! local policy that "might limit the depth of an acceptable trust chain".

use crate::cert::Certificate;
use crate::dn::DistinguishedName;
use crate::error::CryptoError;
use crate::schnorr::{KeyPair, PublicKey, Signature};
use crate::time::Timestamp;
use std::collections::HashMap;

/// One voucher: `introducer` asserts that `subject_cert` is genuine,
/// having verified it first-hand (e.g. during a mutually authenticated
/// handshake with its owner).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Introduction {
    /// The certificate being vouched for.
    pub subject_cert: Certificate,
    /// DN of the vouching party.
    pub introducer: DistinguishedName,
    /// Introducer's signature over the canonical bytes of `subject_cert`.
    pub signature: Signature,
}

qos_wire::impl_wire_struct!(Introduction {
    subject_cert,
    introducer,
    signature
});

impl Introduction {
    /// Vouch for `subject_cert` with `introducer_key`.
    pub fn vouch(
        subject_cert: Certificate,
        introducer: DistinguishedName,
        introducer_key: &KeyPair,
    ) -> Self {
        let signature = introducer_key.sign(&qos_wire::to_bytes(&subject_cert));
        Self {
            subject_cert,
            introducer,
            signature,
        }
    }

    fn check(&self, introducer_pk: PublicKey) -> Result<(), CryptoError> {
        if introducer_pk.verify(&qos_wire::to_bytes(&self.subject_cert), &self.signature) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature {
                signer: self.introducer.clone(),
            })
        }
    }
}

/// Local trust policy: how long an introduction chain a verifier accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrustPolicy {
    /// Maximum number of introduction links between a trust anchor and the
    /// target key. Zero means "direct trust relationships only".
    pub max_chain_depth: usize,
}

impl Default for TrustPolicy {
    fn default() -> Self {
        // End-to-end paths in the paper's scenarios span a handful of
        // domains; depth 8 comfortably covers them while still bounding
        // transitive exposure.
        Self { max_chain_depth: 8 }
    }
}

/// A verifier's set of directly trusted keys: its CA(s) and the peers it
/// has SLAs with (whose certificates the SLA pins).
#[derive(Debug, Default, Clone)]
pub struct TrustAnchors {
    anchors: HashMap<DistinguishedName, PublicKey>,
}

impl TrustAnchors {
    /// Empty anchor set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin `dn` ↦ `pk` as directly trusted.
    pub fn insert(&mut self, dn: DistinguishedName, pk: PublicKey) {
        self.anchors.insert(dn, pk);
    }

    /// Look up a directly trusted key.
    pub fn get(&self, dn: &DistinguishedName) -> Option<PublicKey> {
        self.anchors.get(dn).copied()
    }

    /// Number of pinned anchors — the "trust table size" measured by the
    /// FIG3/FIG5 experiments.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True if no anchors are pinned.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }

    /// Decide whether to accept `target`'s public key given a chain of
    /// introductions ordered **from the anchor side towards the target**:
    /// `chain[0]`'s introducer must be a trust anchor, each subsequent
    /// introduction's introducer must be the subject of the previous one,
    /// and the final introduction's subject must be `target`.
    ///
    /// Returns the accepted public key. A `target` that is itself an
    /// anchor needs no chain.
    pub fn accept_key(
        &self,
        target: &Certificate,
        chain: &[Introduction],
        policy: TrustPolicy,
        now: Timestamp,
    ) -> Result<PublicKey, CryptoError> {
        // Directly trusted?
        if let Some(pk) = self.get(&target.tbs().subject) {
            if pk == target.tbs().subject_public_key {
                target.check_validity(now)?;
                return Ok(pk);
            }
        }
        if chain.is_empty() {
            return Err(CryptoError::NoTrustAnchor {
                subject: target.tbs().subject.clone(),
            });
        }
        if chain.len() > policy.max_chain_depth {
            return Err(CryptoError::ChainTooDeep {
                depth: chain.len(),
                limit: policy.max_chain_depth,
            });
        }
        // The first introducer must be an anchor.
        let first = &chain[0];
        let mut current_pk =
            self.get(&first.introducer)
                .ok_or_else(|| CryptoError::NoTrustAnchor {
                    subject: first.introducer.clone(),
                })?;
        let mut current_dn = first.introducer.clone();
        for intro in chain {
            if intro.introducer != current_dn {
                return Err(CryptoError::IssuerMismatch {
                    expected: current_dn,
                    found: intro.introducer.clone(),
                });
            }
            intro.check(current_pk)?;
            intro.subject_cert.check_validity(now)?;
            current_pk = intro.subject_cert.tbs().subject_public_key;
            current_dn = intro.subject_cert.tbs().subject.clone();
        }
        // The chain must terminate at the target's certificate.
        if current_dn != target.tbs().subject || current_pk != target.tbs().subject_public_key {
            return Err(CryptoError::MalformedChain(
                "introduction chain does not terminate at the target",
            ));
        }
        target.check_validity(now)?;
        Ok(current_pk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertificateAuthority, Validity};

    struct Fixture {
        ca: CertificateAuthority,
        bb_a: KeyPair,
        bb_b: KeyPair,
        bb_c: KeyPair,
        cert_a: Certificate,
        cert_b: Certificate,
    }

    fn fixture() -> Fixture {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("RootCA"),
            KeyPair::from_seed(b"ca"),
        );
        let bb_a = KeyPair::from_seed(b"bb-a");
        let bb_b = KeyPair::from_seed(b"bb-b");
        let bb_c = KeyPair::from_seed(b"bb-c");
        let cert_a = ca.issue_identity(
            DistinguishedName::broker("domain-a"),
            bb_a.public(),
            Validity::unbounded(),
        );
        let cert_b = ca.issue_identity(
            DistinguishedName::broker("domain-b"),
            bb_b.public(),
            Validity::unbounded(),
        );
        Fixture {
            ca,
            bb_a,
            bb_b,
            bb_c,
            cert_a,
            cert_b,
        }
    }

    /// BB_C trusts BB_B (SLA peer). BB_B introduces BB_A's certificate.
    /// BB_C should accept BB_A's key through the single-link chain.
    #[test]
    fn one_hop_introduction_accepted() {
        let f = fixture();
        let mut anchors = TrustAnchors::new();
        anchors.insert(DistinguishedName::broker("domain-b"), f.bb_b.public());
        let intro = Introduction::vouch(
            f.cert_a.clone(),
            DistinguishedName::broker("domain-b"),
            &f.bb_b,
        );
        let pk = anchors
            .accept_key(&f.cert_a, &[intro], TrustPolicy::default(), Timestamp(0))
            .unwrap();
        assert_eq!(pk, f.bb_a.public());
    }

    #[test]
    fn directly_trusted_peer_needs_no_chain() {
        let f = fixture();
        let mut anchors = TrustAnchors::new();
        anchors.insert(DistinguishedName::broker("domain-a"), f.bb_a.public());
        let pk = anchors
            .accept_key(&f.cert_a, &[], TrustPolicy::default(), Timestamp(0))
            .unwrap();
        assert_eq!(pk, f.bb_a.public());
    }

    #[test]
    fn unknown_introducer_rejected() {
        let f = fixture();
        let anchors = TrustAnchors::new(); // trusts no one
        let intro = Introduction::vouch(
            f.cert_a.clone(),
            DistinguishedName::broker("domain-b"),
            &f.bb_b,
        );
        assert!(matches!(
            anchors.accept_key(&f.cert_a, &[intro], TrustPolicy::default(), Timestamp(0)),
            Err(CryptoError::NoTrustAnchor { .. })
        ));
    }

    #[test]
    fn forged_voucher_rejected() {
        let f = fixture();
        let mut anchors = TrustAnchors::new();
        anchors.insert(DistinguishedName::broker("domain-b"), f.bb_b.public());
        // Mallory forges the voucher with her own key but claims to be B.
        let mallory = KeyPair::from_seed(b"mallory");
        let intro = Introduction::vouch(
            f.cert_a.clone(),
            DistinguishedName::broker("domain-b"),
            &mallory,
        );
        assert!(matches!(
            anchors.accept_key(&f.cert_a, &[intro], TrustPolicy::default(), Timestamp(0)),
            Err(CryptoError::BadSignature { .. })
        ));
    }

    #[test]
    fn two_hop_chain_and_depth_policy() {
        let f = fixture();
        // BB_C trusts only BB_B. BB_B introduces BB_A; BB_A introduces a
        // fourth broker D.
        let bb_d = KeyPair::from_seed(b"bb-d");
        let mut ca = f.ca;
        let cert_d = ca.issue_identity(
            DistinguishedName::broker("domain-d"),
            bb_d.public(),
            Validity::unbounded(),
        );
        let mut anchors = TrustAnchors::new();
        anchors.insert(DistinguishedName::broker("domain-b"), f.bb_b.public());
        let chain = vec![
            Introduction::vouch(
                f.cert_a.clone(),
                DistinguishedName::broker("domain-b"),
                &f.bb_b,
            ),
            Introduction::vouch(
                cert_d.clone(),
                DistinguishedName::broker("domain-a"),
                &f.bb_a,
            ),
        ];
        // Accepted at default depth…
        assert!(anchors
            .accept_key(&cert_d, &chain, TrustPolicy::default(), Timestamp(0))
            .is_ok());
        // …rejected when local policy caps the depth at 1.
        assert!(matches!(
            anchors.accept_key(
                &cert_d,
                &chain,
                TrustPolicy { max_chain_depth: 1 },
                Timestamp(0)
            ),
            Err(CryptoError::ChainTooDeep { depth: 2, limit: 1 })
        ));
    }

    #[test]
    fn chain_must_terminate_at_target() {
        let f = fixture();
        let mut anchors = TrustAnchors::new();
        anchors.insert(DistinguishedName::broker("domain-b"), f.bb_b.public());
        // B introduces B's own cert, but we ask about A.
        let intro = Introduction::vouch(
            f.cert_b.clone(),
            DistinguishedName::broker("domain-b"),
            &f.bb_b,
        );
        assert!(matches!(
            anchors.accept_key(&f.cert_a, &[intro], TrustPolicy::default(), Timestamp(0)),
            Err(CryptoError::MalformedChain(_))
        ));
    }

    #[test]
    fn expired_introduced_certificate_rejected() {
        let mut f = fixture();
        let short = f.ca.issue_identity(
            DistinguishedName::broker("domain-a"),
            f.bb_a.public(),
            Validity::starting_at(Timestamp(0), 10),
        );
        let mut anchors = TrustAnchors::new();
        anchors.insert(DistinguishedName::broker("domain-b"), f.bb_b.public());
        let intro = Introduction::vouch(
            short.clone(),
            DistinguishedName::broker("domain-b"),
            &f.bb_b,
        );
        assert!(anchors
            .accept_key(
                &short,
                std::slice::from_ref(&intro),
                TrustPolicy::default(),
                Timestamp(5)
            )
            .is_ok());
        assert!(matches!(
            anchors.accept_key(&short, &[intro], TrustPolicy::default(), Timestamp(11)),
            Err(CryptoError::Expired { .. })
        ));
    }

    #[test]
    fn unused_broker_c_key_is_distinct() {
        // Sanity guard for the fixture itself.
        let f = fixture();
        assert_ne!(f.bb_c.public(), f.bb_a.public());
        assert_ne!(f.bb_c.public(), f.bb_b.public());
    }
}
