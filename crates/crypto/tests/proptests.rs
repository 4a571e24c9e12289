//! Property tests for the crypto substrate.

use proptest::prelude::*;
use qos_crypto::cert::{Extension, TbsCertificate, Validity};
use qos_crypto::sha256::sha256;
use qos_crypto::{
    Certificate, CertificateAuthority, DelegationChain, DistinguishedName, KeyPair, Restriction,
    Timestamp,
};

proptest! {
    /// Any message signs and verifies; any other message fails.
    #[test]
    fn sign_verify_holds_for_arbitrary_messages(
        seed in any::<[u8; 8]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
        other in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let kp = KeyPair::from_seed(&seed);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public().verify(&msg, &sig));
        if other != msg {
            prop_assert!(!kp.public().verify(&other, &sig));
        }
    }

    /// Flipping any single bit of a signed certificate's TBS bytes breaks
    /// verification (byte-level integrity of the canonical encoding).
    #[test]
    fn certificate_bitflip_breaks_signature(
        bit in 0usize..64,
        name in "[a-z]{1,12}",
    ) {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        let cert = ca.issue_identity(
            DistinguishedName::user(&name, "ORG"),
            KeyPair::from_seed(name.as_bytes()).public(),
            Validity::unbounded(),
        );
        let mut bytes = qos_wire::to_bytes(&cert.tbs());
        let idx = bit % (bytes.len() * 8);
        bytes[idx / 8] ^= 1 << (idx % 8);
        // Either the mutated bytes no longer decode, or they decode to a
        // TBS whose signature fails.
        if let Ok(mutated) = qos_wire::from_bytes::<TbsCertificate>(&bytes) {
            let forged = Certificate::from_parts(mutated, cert.signature());
            prop_assert!(forged.verify_signature(ca.public_key()).is_err());
        }
    }

    /// Delegation never widens capabilities regardless of the subsets each
    /// hop retains.
    #[test]
    fn delegation_monotonic(
        caps in proptest::collection::btree_set("[a-z]{1,8}", 1..6),
        keep_mask in any::<u8>(),
    ) {
        let mut cas = qos_crypto::CommunityAuthorizationServer::new(
            "CAS",
            KeyPair::from_seed(b"cas"),
        );
        let proxy = KeyPair::from_seed(b"proxy");
        let caps: Vec<String> = caps.into_iter().collect();
        let grant = cas.grant(
            &DistinguishedName::user("U", "O"),
            proxy.public(),
            caps.clone(),
            Validity::unbounded(),
        );
        let bb = KeyPair::from_seed(b"bb");
        let chain = DelegationChain::new(grant)
            .delegate_filtered(
                &proxy,
                DistinguishedName::broker("d"),
                bb.public(),
                vec![Restriction::ValidForRar(1)],
                Validity::unbounded(),
                |c| {
                    let i = caps.iter().position(|x| x == c).unwrap_or(0);
                    keep_mask & (1 << (i % 8)) != 0
                },
            )
            .unwrap();
        let verified = chain
            .verify_links(cas.public_key(), Timestamp(0))
            .unwrap();
        for c in &verified.capabilities {
            prop_assert!(caps.contains(c), "capability {c} appeared from nowhere");
        }
        prop_assert!(verified.restrictions.contains(&Restriction::ValidForRar(1)));
    }

    /// Batch verification accepts exactly when every signature verifies
    /// individually, under arbitrary per-item damage — a flipped response
    /// scalar, a signature swapped in from the next item, `s` or `r` out
    /// of range — whether the items sit under distinct keys, one shared
    /// key (a run from one peer: the per-key terms fold into one base),
    /// or a mix.
    #[test]
    fn batch_agrees_with_individual_verdicts(
        n in 1usize..7,
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 7..8),
        damage in proptest::collection::vec(0u8..8, 7..8),
        keys_in_use in 1usize..4,
    ) {
        let mut owned: Vec<(Vec<u8>, qos_crypto::PublicKey, qos_crypto::Signature)> = (0..n)
            .map(|i| {
                let kp = KeyPair::from_seed(&[(i % keys_in_use) as u8, 0xB, 0xA, 0x7]);
                (msgs[i].clone(), kp.public(), kp.sign(&msgs[i]))
            })
            .collect();
        for i in 0..n {
            match damage[i] {
                0 => owned[i].2.s ^= 1,
                1 => owned[i].2 = owned[(i + 1) % n].2,
                2 => owned[i].2.s = qos_crypto::group::Q,
                3 => owned[i].2.r = 0,
                _ => {}
            }
        }
        let items: Vec<(&[u8], qos_crypto::PublicKey, qos_crypto::Signature)> = owned
            .iter()
            .map(|(m, pk, s)| (m.as_slice(), *pk, *s))
            .collect();
        let individual = items.iter().all(|(m, pk, s)| pk.verify(m, s));
        prop_assert_eq!(qos_crypto::verify_batch(&items), individual);
    }

    /// The byte-taking forms are the digest-taking forms of the message's
    /// SHA-256 — same signature, same verdicts, one item or a batch,
    /// through the key's pinned window table or without one.
    #[test]
    fn byte_forms_are_digest_forms_of_the_sha256(
        seed in any::<[u8; 8]>(),
        pin in any::<bool>(),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..5),
        tamper in proptest::collection::vec(any::<bool>(), 5..6),
    ) {
        let kp = KeyPair::from_seed(&seed);
        if pin {
            kp.public().precompute();
        }
        let mut by_bytes = Vec::new();
        let mut by_digest = Vec::new();
        for (msg, &tamper) in msgs.iter().zip(&tamper) {
            let digest = sha256(msg);
            let mut sig = kp.sign(msg);
            prop_assert_eq!(sig, kp.sign_digest(&digest));
            if tamper {
                sig.s ^= 1;
            }
            prop_assert_eq!(kp.public().verify(msg, &sig), !tamper);
            prop_assert_eq!(kp.public().verify_digest(&digest, &sig), !tamper);
            by_bytes.push((msg.as_slice(), kp.public(), sig));
            by_digest.push((digest, kp.public(), sig));
        }
        let all_good = !tamper[..msgs.len()].iter().any(|&t| t);
        prop_assert_eq!(qos_crypto::verify_batch(&by_bytes), all_good);
        prop_assert_eq!(qos_crypto::verify_batch_digests(&by_digest), all_good);
    }

    /// Certificates round-trip through the wire encoding with extensions
    /// of every kind.
    #[test]
    fn certificate_wire_round_trip(
        serial in any::<u64>(),
        caps in proptest::collection::vec("[a-z]{1,8}", 0..4),
        rar in any::<u64>(),
    ) {
        let key = KeyPair::from_seed(b"issuer");
        let tbs = TbsCertificate {
            serial,
            issuer: DistinguishedName::authority("I"),
            subject: DistinguishedName::user("S", "O"),
            validity: Validity::unbounded(),
            subject_public_key: KeyPair::from_seed(b"s").public(),
            extensions: vec![
                Extension::CapabilityCertificateFlag,
                Extension::Capabilities(caps),
                Extension::Restriction(Restriction::ValidForRar(rar)),
                Extension::BasicConstraints { is_ca: false },
            ],
        };
        let cert = Certificate::issue(tbs, &key);
        let bytes = qos_wire::to_bytes(&cert);
        let back: Certificate = qos_wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &cert);
        prop_assert!(back.verify_signature(key.public()).is_ok());
    }
}

/// `cert` with one bit of its signature flipped: a new certificate, as
/// every edited one is.
fn flip_signature(cert: &Certificate) -> Certificate {
    let mut signature = cert.signature();
    signature.s ^= 1;
    Certificate::from_parts(cert.tbs().clone(), signature)
}

/// [`DelegationChain::verify_links`] as it was before it ran on borrowed
/// certificates: per-link sets.
fn verify_links_model(
    certs: &[Certificate],
    cas_pk: qos_crypto::PublicKey,
    now: Timestamp,
) -> Result<qos_crypto::VerifiedCapabilities, qos_crypto::CryptoError> {
    use qos_crypto::CryptoError;
    use std::collections::BTreeSet;
    let first = certs
        .first()
        .ok_or(CryptoError::MalformedChain("empty chain"))?;
    if !first.is_capability_certificate() {
        return Err(CryptoError::NotACapabilityCertificate);
    }
    first.verify_signature(cas_pk)?;
    first.check_validity(now)?;
    let mut prev = first;
    for cert in &certs[1..] {
        if !cert.is_capability_certificate() {
            return Err(CryptoError::NotACapabilityCertificate);
        }
        if !cert.tbs().issuer.same_principal(&prev.tbs().subject) {
            return Err(CryptoError::IssuerMismatch {
                expected: prev.tbs().subject.clone(),
                found: cert.tbs().issuer.clone(),
            });
        }
        cert.verify_signature(prev.tbs().subject_public_key)?;
        cert.check_validity(now)?;
        let prev_caps: BTreeSet<&str> = prev.capabilities().into_iter().collect();
        for cap in cert.capabilities() {
            if !prev_caps.contains(cap) {
                return Err(CryptoError::CapabilityWidened {
                    capability: cap.to_string(),
                });
            }
        }
        let cur: BTreeSet<&Restriction> = cert.restrictions().into_iter().collect();
        for r in prev.restrictions() {
            if !cur.contains(r) {
                return Err(CryptoError::RestrictionDropped {
                    restriction: r.to_string(),
                });
            }
        }
        prev = cert;
    }
    let tip = certs.last().expect("non-empty");
    Ok(qos_crypto::VerifiedCapabilities {
        capabilities: tip.capabilities().into_iter().map(str::to_string).collect(),
        restrictions: tip.restrictions().into_iter().cloned().collect(),
        holder: tip.tbs().subject.clone(),
        holder_key: tip.tbs().subject_public_key,
        signatures: certs.len(),
    })
}

proptest! {
    /// The §6.5 link checks give the same verdict on borrowed
    /// certificates as the owned-chain implementation they replace: on
    /// a valid chain and with each kind of fault planted at any link.
    #[test]
    fn verify_links_on_references_matches_the_owned_chain(
        len in 2usize..6,
        at in 0usize..6,
        fault in 0u8..7,
    ) {
        let mut cas = qos_crypto::CommunityAuthorizationServer::new(
            "CAS",
            KeyPair::from_seed(b"vl-cas"),
        );
        // keys[i] signs link i + 1; keys[0] is the user's proxy key.
        let keys: Vec<KeyPair> = (0..len as u8).map(|i| KeyPair::from_seed(&[i, 0x71])).collect();
        let grant = cas.grant(
            &DistinguishedName::user("U", "O"),
            keys[0].public(),
            vec!["m:a".into(), "m:b".into()],
            Validity::unbounded(),
        );
        let mut chain = DelegationChain::new(grant);
        for i in 1..len {
            chain = chain
                .delegate(
                    &keys[i - 1],
                    DistinguishedName::broker(&format!("d{i}")),
                    keys[i].public(),
                    vec![Restriction::ValidForRar(i as u64)],
                    Validity::unbounded(),
                )
                .unwrap();
        }
        let mut certs = chain.certs;
        let at = at % len;
        // Re-issue link `at` with an edited body, signed by its rightful
        // issuer, so only the planted fault is wrong with it.
        let reissue = |certs: &mut Vec<Certificate>, edit: &dyn Fn(&mut TbsCertificate)| {
            let mut tbs = certs[at].tbs().clone();
            edit(&mut tbs);
            let issuer = if at == 0 { KeyPair::from_seed(b"vl-cas") } else { keys[at - 1].clone() };
            certs[at] = Certificate::issue(tbs, &issuer);
        };
        match fault {
            1 => certs[at] = flip_signature(&certs[at]),
            2 => { certs.remove(at); }
            3 => reissue(&mut certs, &|tbs| tbs.extensions.push(Extension::Capabilities(vec!["m:root".into()]))),
            4 => reissue(&mut certs, &|tbs| tbs.extensions.retain(|e| !matches!(e, Extension::Restriction(_)))),
            5 => reissue(&mut certs, &|tbs| tbs.validity = Validity::starting_at(Timestamp(0), 10)),
            6 => reissue(&mut certs, &|tbs| tbs.extensions.retain(|e| !matches!(e, Extension::CapabilityCertificateFlag))),
            _ => {}
        }
        let now = Timestamp(100);
        let expected = verify_links_model(&certs, cas.public_key(), now);
        // Each fault is the failure it is meant to be.
        use qos_crypto::CryptoError as E;
        prop_assert!(match (fault, &expected) {
            (0, verdict) => verdict.is_ok(),
            (1, Err(E::BadSignature { .. })) => true,
            (2, Err(E::IssuerMismatch { .. })) => true,
            (2, verdict) => at == 0 || at == len - 1 || verdict.is_err(),
            (3, Err(E::CapabilityWidened { .. })) => true,
            (3, Ok(_)) => at == 0,
            (4, Err(E::RestrictionDropped { .. })) => true,
            (4, Ok(_)) => at <= 1,
            (5, Err(E::Expired { .. })) => true,
            (6, Err(E::NotACapabilityCertificate)) => true,
            _ => false,
        }, "fault {fault} at {at} of {len}: {expected:?}");
        let refs: Vec<&Certificate> = certs.iter().collect();
        prop_assert_eq!(&DelegationChain::verify_links_of(&refs, cas.public_key(), now), &expected);
        prop_assert_eq!(&DelegationChain { certs }.verify_links(cas.public_key(), now), &expected);
    }
}
