//! Cascaded capability delegation (Neuman '93, as used in §6.5 of the
//! paper).
//!
//! A Community Authorization Server (CAS) issues the user a capability
//! certificate whose subject key is a fresh **proxy key**; the user holds
//! the private proxy key. At each signalling hop the current holder
//! delegates onward by minting a new capability certificate whose subject
//! is the next hop and whose subject key is the next hop's **real** public
//! key (learned during the secure-channel handshake), copying the
//! capability attributes and *adding* restrictions (e.g. "valid for RAR"),
//! and signing with the private key matching the *current* certificate's
//! subject key.
//!
//! The destination then holds a chain CAS→user→BB_A→BB_B→BB_C (Figure 7
//! shows the per-hop capability lists growing 2 → 3 → 4) and can run the
//! seven-step verification checklist of §6.5, implemented in
//! [`DelegationChain::verify`].

use crate::cert::{Certificate, Extension, Restriction, TbsCertificate, Validity};
use crate::dn::DistinguishedName;
use crate::error::CryptoError;
use crate::schnorr::{KeyPair, PublicKey, Signature};
use crate::time::Timestamp;

/// A capability certificate chain, first element issued by the CAS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegationChain {
    /// Certificates in delegation order (CAS-issued first).
    pub certs: Vec<Certificate>,
}

qos_wire::impl_wire_struct!(DelegationChain { certs });

/// What a successful verification yields: the attributes the destination's
/// policy engine may rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedCapabilities {
    /// Capability attributes of the final certificate (never wider than
    /// the CAS grant).
    pub capabilities: Vec<String>,
    /// Union of all restrictions accumulated along the chain.
    pub restrictions: Vec<Restriction>,
    /// The final holder's DN.
    pub holder: DistinguishedName,
}

impl DelegationChain {
    /// Start a chain from the CAS-issued certificate.
    pub fn new(cas_issued: Certificate) -> Self {
        Self {
            certs: vec![cas_issued],
        }
    }

    /// Number of certificates in the chain.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// True if the chain holds no certificates (never the case for chains
    /// built through [`DelegationChain::new`]).
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// The certificate currently at the end of the chain.
    pub fn tip(&self) -> &Certificate {
        self.certs.last().expect("chain never empty")
    }

    /// Delegate the capability to `delegatee` (identified by DN and real
    /// public key), signing with `holder_key` — which must match the tip
    /// certificate's subject public key — and adding `new_restrictions`.
    ///
    /// Returns the extended chain. Capabilities are copied verbatim from
    /// the tip (narrowing is allowed via `retain_capabilities`).
    pub fn delegate(
        &self,
        holder_key: &KeyPair,
        delegatee: DistinguishedName,
        delegatee_pk: PublicKey,
        new_restrictions: Vec<Restriction>,
        validity: Validity,
    ) -> Result<Self, CryptoError> {
        self.delegate_filtered(
            holder_key,
            delegatee,
            delegatee_pk,
            new_restrictions,
            validity,
            |_| true,
        )
    }

    /// Like [`DelegationChain::delegate`] but keeps only the capabilities
    /// for which `retain` returns true (a delegator may narrow, never
    /// widen).
    pub fn delegate_filtered(
        &self,
        holder_key: &KeyPair,
        delegatee: DistinguishedName,
        delegatee_pk: PublicKey,
        new_restrictions: Vec<Restriction>,
        validity: Validity,
        retain: impl Fn(&str) -> bool,
    ) -> Result<Self, CryptoError> {
        let link = Self::issue_link(
            self.tip(),
            holder_key,
            delegatee,
            delegatee_pk,
            new_restrictions,
            validity,
            retain,
        )?;
        let mut certs = self.certs.clone();
        certs.push(link);
        Ok(Self { certs })
    }

    /// The certificate that extends a chain ending in `tip` to
    /// `delegatee`: everything [`DelegationChain::delegate_filtered`]
    /// does, for a holder that has the tip but not an owned chain (a
    /// broker forwarding a request it received).
    pub fn issue_link(
        tip: &Certificate,
        holder_key: &KeyPair,
        delegatee: DistinguishedName,
        delegatee_pk: PublicKey,
        new_restrictions: Vec<Restriction>,
        validity: Validity,
        retain: impl Fn(&str) -> bool,
    ) -> Result<Certificate, CryptoError> {
        if holder_key.public() != tip.tbs.subject_public_key {
            return Err(CryptoError::PossessionProofInvalid {
                subject: tip.tbs.subject.clone(),
            });
        }
        let caps: Vec<String> = tip
            .capability_iter()
            .filter(|c| retain(c))
            .map(str::to_string)
            .collect();
        let mut extensions = vec![
            Extension::CapabilityCertificateFlag,
            Extension::Capabilities(caps),
        ];
        // Restrictions are inherited …
        extensions.extend(tip.restriction_iter().cloned().map(Extension::Restriction));
        // … and extended, never dropped.
        for r in new_restrictions {
            if !tip.restriction_iter().any(|have| *have == r) {
                extensions.push(Extension::Restriction(r));
            }
        }
        let tbs = TbsCertificate {
            serial: tip.tbs.serial,
            issuer: tip.tbs.subject.clone(),
            subject: delegatee,
            validity,
            subject_public_key: delegatee_pk,
            extensions,
        };
        Ok(Certificate::issue(tbs, holder_key))
    }

    /// Run the §6.5 verification checklist.
    ///
    /// * `cas_pk` — pinned public key of the issuing CAS;
    /// * `now` — validity-check instant;
    /// * `possession` — the final holder's proof of knowledge of the tip
    ///   certificate's private key, over `nonce` (checklist step: "checks
    ///   that BB_C actually owns the capability certificate by requesting a
    ///   prove of the knowledge of pkey_BB_C").
    pub fn verify(
        &self,
        cas_pk: PublicKey,
        now: Timestamp,
        nonce: &[u8],
        possession: &Signature,
    ) -> Result<VerifiedCapabilities, CryptoError> {
        let verified = self.verify_links(cas_pk, now)?;
        // Step 6: tip holder proves possession of the matching private key.
        let tip = self.tip();
        if !tip
            .tbs
            .subject_public_key
            .check_possession(nonce, possession)
        {
            return Err(CryptoError::PossessionProofInvalid {
                subject: tip.tbs.subject.clone(),
            });
        }
        Ok(verified)
    }

    /// The structural subset of [`DelegationChain::verify`]: signature
    /// chain, issuer/subject continuity, capability monotonicity,
    /// restriction accumulation, and validity windows — everything except
    /// the live possession proof.
    pub fn verify_links(
        &self,
        cas_pk: PublicKey,
        now: Timestamp,
    ) -> Result<VerifiedCapabilities, CryptoError> {
        Self::verify_links_of(&self.certs.iter().collect::<Vec<_>>(), cas_pk, now)
    }

    /// [`DelegationChain::verify_links`] over borrowed certificates in
    /// delegation order — the chain as it lies scattered over the layers
    /// of a received envelope.
    pub fn verify_links_of(
        certs: &[&Certificate],
        cas_pk: PublicKey,
        now: Timestamp,
    ) -> Result<VerifiedCapabilities, CryptoError> {
        // Step 1: the CAS issued a capability certificate for the user.
        // Steps 2–4: each delegation was signed with the private key
        // corresponding to the *previous* certificate's subject key
        // (the proxy key for the user, pkey_BB_n afterwards).
        let mut issuer_pk = cas_pk;
        let mut prev: Option<&Certificate> = None;
        for &cert in certs {
            if !cert.is_capability_certificate() {
                return Err(CryptoError::NotACapabilityCertificate);
            }
            if let Some(prev) = prev {
                if !cert.tbs.issuer.same_principal(&prev.tbs.subject) {
                    return Err(CryptoError::IssuerMismatch {
                        expected: prev.tbs.subject.clone(),
                        found: cert.tbs.issuer.clone(),
                    });
                }
            }
            // Chains are re-presented at every hop of every RAR using
            // them; the verification cache makes the steady-state link
            // checks one hash each (validity is re-checked every pass).
            cert.verify_signature_cached(issuer_pk, now)?;
            cert.check_validity(now)?;
            if let Some(prev) = prev {
                // Step 7 ("validity of all capabilities … whether some
                // entity did change them inappropriately"): capabilities
                // must never widen, restrictions must never be dropped.
                if let Some(cap) = cert
                    .capability_iter()
                    .find(|cap| !prev.capability_iter().any(|p| p == *cap))
                {
                    return Err(CryptoError::CapabilityWidened {
                        capability: cap.to_string(),
                    });
                }
                if let Some(r) = prev
                    .restriction_iter()
                    .find(|r| !cert.restriction_iter().any(|c| c == *r))
                {
                    return Err(CryptoError::RestrictionDropped {
                        restriction: r.to_string(),
                    });
                }
            }
            issuer_pk = cert.tbs.subject_public_key;
            prev = Some(cert);
        }

        let tip = prev.ok_or(CryptoError::MalformedChain("empty chain"))?;
        Ok(VerifiedCapabilities {
            capabilities: tip.capability_iter().map(str::to_string).collect(),
            restrictions: tip.restriction_iter().cloned().collect(),
            holder: tip.tbs.subject.clone(),
        })
    }
}

/// A Community Authorization Server: issues capability certificates to
/// users at "grid-login" time (Figure 7's CAS).
pub struct CommunityAuthorizationServer {
    dn: DistinguishedName,
    key: KeyPair,
    next_serial: u64,
}

impl CommunityAuthorizationServer {
    /// Create a CAS.
    pub fn new(name: &str, key: KeyPair) -> Self {
        Self {
            dn: DistinguishedName::authority(name),
            key,
            next_serial: 1,
        }
    }

    /// The CAS's DN.
    pub fn dn(&self) -> &DistinguishedName {
        &self.dn
    }

    /// The CAS's public key (what relying parties pin).
    pub fn public_key(&self) -> PublicKey {
        self.key.public()
    }

    /// Grant `capabilities` to `user`, binding them to the supplied public
    /// proxy key. The user receives the certificate; the private proxy key
    /// stays with the user (created client-side, as at grid-login).
    pub fn grant(
        &mut self,
        user: &DistinguishedName,
        proxy_pk: PublicKey,
        capabilities: Vec<String>,
        validity: Validity,
    ) -> Certificate {
        let serial = self.next_serial;
        self.next_serial += 1;
        Certificate::issue(
            TbsCertificate {
                serial,
                issuer: self.dn.clone(),
                subject: user.annotated("capability"),
                validity,
                subject_public_key: proxy_pk,
                extensions: vec![
                    Extension::CapabilityCertificateFlag,
                    Extension::Capabilities(capabilities),
                ],
            },
            &self.key,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        cas: CommunityAuthorizationServer,
        user_proxy: KeyPair,
        user_dn: DistinguishedName,
        bb_a: KeyPair,
        bb_b: KeyPair,
        bb_c: KeyPair,
    }

    fn fixture() -> Fixture {
        Fixture {
            cas: CommunityAuthorizationServer::new("ESnet-CAS", KeyPair::from_seed(b"cas")),
            user_proxy: KeyPair::from_seed(b"alice-proxy"),
            user_dn: DistinguishedName::user("Alice", "ANL"),
            bb_a: KeyPair::from_seed(b"bb-a"),
            bb_b: KeyPair::from_seed(b"bb-b"),
            bb_c: KeyPair::from_seed(b"bb-c"),
        }
    }

    fn full_chain(f: &mut Fixture) -> DelegationChain {
        let grant = f.cas.grant(
            &f.user_dn,
            f.user_proxy.public(),
            vec!["ESnet:member".into()],
            Validity::unbounded(),
        );
        let chain = DelegationChain::new(grant);
        let chain = chain
            .delegate(
                &f.user_proxy,
                DistinguishedName::broker("domain-a"),
                f.bb_a.public(),
                vec![Restriction::ValidForDomain("domain-c".into())],
                Validity::unbounded(),
            )
            .unwrap();
        let chain = chain
            .delegate(
                &f.bb_a,
                DistinguishedName::broker("domain-b"),
                f.bb_b.public(),
                vec![],
                Validity::unbounded(),
            )
            .unwrap();
        chain
            .delegate(
                &f.bb_b,
                DistinguishedName::broker("domain-c"),
                f.bb_c.public(),
                vec![Restriction::ValidForRar(111)],
                Validity::unbounded(),
            )
            .unwrap()
    }

    #[test]
    fn figure7_chain_lengths() {
        let mut f = fixture();
        let grant = f.cas.grant(
            &f.user_dn,
            f.user_proxy.public(),
            vec!["ESnet:member".into()],
            Validity::unbounded(),
        );
        // A receives 2 certificates (CAS's + the user's delegation), B
        // receives 3, C receives 4 — as in Figure 7.
        let at_a = DelegationChain::new(grant)
            .delegate(
                &f.user_proxy,
                DistinguishedName::broker("domain-a"),
                f.bb_a.public(),
                vec![],
                Validity::unbounded(),
            )
            .unwrap();
        assert_eq!(at_a.len(), 2);
        let at_b = at_a
            .delegate(
                &f.bb_a,
                DistinguishedName::broker("domain-b"),
                f.bb_b.public(),
                vec![],
                Validity::unbounded(),
            )
            .unwrap();
        assert_eq!(at_b.len(), 3);
        let at_c = at_b
            .delegate(
                &f.bb_b,
                DistinguishedName::broker("domain-c"),
                f.bb_c.public(),
                vec![],
                Validity::unbounded(),
            )
            .unwrap();
        assert_eq!(at_c.len(), 4);
    }

    #[test]
    fn full_checklist_passes() {
        let mut f = fixture();
        let chain = full_chain(&mut f);
        let proof = f.bb_c.prove_possession(b"challenge");
        let verified = chain
            .verify(f.cas.public_key(), Timestamp(0), b"challenge", &proof)
            .unwrap();
        assert_eq!(verified.capabilities, vec!["ESnet:member"]);
        assert!(verified
            .restrictions
            .contains(&Restriction::ValidForDomain("domain-c".into())));
        assert!(verified
            .restrictions
            .contains(&Restriction::ValidForRar(111)));
        assert_eq!(verified.holder, DistinguishedName::broker("domain-c"));
    }

    #[test]
    fn wrong_holder_key_cannot_delegate() {
        let mut f = fixture();
        let grant = f.cas.grant(
            &f.user_dn,
            f.user_proxy.public(),
            vec!["ESnet:member".into()],
            Validity::unbounded(),
        );
        let chain = DelegationChain::new(grant);
        // Mallory doesn't own the proxy key.
        let mallory = KeyPair::from_seed(b"mallory");
        assert!(chain
            .delegate(
                &mallory,
                DistinguishedName::broker("domain-a"),
                f.bb_a.public(),
                vec![],
                Validity::unbounded(),
            )
            .is_err());
    }

    #[test]
    fn widened_capability_detected() {
        let mut f = fixture();
        let mut chain = full_chain(&mut f);
        // Tamper: BB_B's certificate suddenly claims an extra capability —
        // and is re-signed by BB_A's key (signature valid, but the widening
        // itself must be caught).
        let tip = chain.certs[2].clone();
        let mut tbs = tip.tbs.clone();
        for e in &mut tbs.extensions {
            if let Extension::Capabilities(caps) = e {
                caps.push("ESnet:admin".into());
            }
        }
        chain.certs[2] = Certificate::issue(tbs, &f.bb_a);
        // Re-signing breaks the downstream signature anyway; truncate to
        // isolate the widening check.
        chain.certs.truncate(3);
        let err = chain
            .verify_links(f.cas.public_key(), Timestamp(0))
            .unwrap_err();
        assert_eq!(
            err,
            CryptoError::CapabilityWidened {
                capability: "ESnet:admin".into()
            }
        );
    }

    #[test]
    fn dropped_restriction_detected() {
        let mut f = fixture();
        let chain = full_chain(&mut f);
        // BB_C strips the ValidForDomain restriction when "delegating" to
        // itself (signature-valid because BB_C holds the tip key).
        let tip = chain.tip().clone();
        let mut tbs = tip.tbs.clone();
        tbs.issuer = tip.tbs.subject.clone();
        tbs.subject = DistinguishedName::broker("domain-x");
        tbs.subject_public_key = KeyPair::from_seed(b"x").public();
        tbs.extensions
            .retain(|e| !matches!(e, Extension::Restriction(Restriction::ValidForDomain(_))));
        let forged = Certificate::issue(tbs, &f.bb_c);
        let mut certs = chain.certs.clone();
        certs.push(forged);
        let chain = DelegationChain { certs };
        let err = chain
            .verify_links(f.cas.public_key(), Timestamp(0))
            .unwrap_err();
        assert!(matches!(err, CryptoError::RestrictionDropped { .. }));
    }

    #[test]
    fn tampered_link_signature_detected() {
        let mut f = fixture();
        let mut chain = full_chain(&mut f);
        chain.certs[1].signature.s ^= 1;
        assert!(matches!(
            chain.verify_links(f.cas.public_key(), Timestamp(0)),
            Err(CryptoError::BadSignature { .. })
        ));
    }

    #[test]
    fn issuer_discontinuity_detected() {
        let mut f = fixture();
        let mut chain = full_chain(&mut f);
        chain.certs.remove(2); // gap: user→BB_A, then BB_B→BB_C
        assert!(matches!(
            chain.verify_links(f.cas.public_key(), Timestamp(0)),
            Err(CryptoError::IssuerMismatch { .. })
        ));
    }

    #[test]
    fn expired_link_detected() {
        let mut f = fixture();
        let grant = f.cas.grant(
            &f.user_dn,
            f.user_proxy.public(),
            vec!["ESnet:member".into()],
            Validity::starting_at(Timestamp(0), 100),
        );
        let chain = DelegationChain::new(grant);
        assert!(chain.verify_links(f.cas.public_key(), Timestamp(0)).is_ok());
        assert!(matches!(
            chain.verify_links(f.cas.public_key(), Timestamp(101)),
            Err(CryptoError::Expired { .. })
        ));
    }

    #[test]
    fn possession_proof_required() {
        let mut f = fixture();
        let chain = full_chain(&mut f);
        // BB_B (not the tip holder) cannot prove possession.
        let wrong_proof = f.bb_b.prove_possession(b"challenge");
        assert!(matches!(
            chain.verify(f.cas.public_key(), Timestamp(0), b"challenge", &wrong_proof),
            Err(CryptoError::PossessionProofInvalid { .. })
        ));
        // Replayed proof over a different nonce also fails.
        let stale = f.bb_c.prove_possession(b"old-challenge");
        assert!(chain
            .verify(f.cas.public_key(), Timestamp(0), b"challenge", &stale)
            .is_err());
    }

    #[test]
    fn capability_narrowing_is_allowed() {
        let mut f = fixture();
        let grant = f.cas.grant(
            &f.user_dn,
            f.user_proxy.public(),
            vec!["ESnet:member".into(), "ESnet:priority".into()],
            Validity::unbounded(),
        );
        let chain = DelegationChain::new(grant)
            .delegate_filtered(
                &f.user_proxy,
                DistinguishedName::broker("domain-a"),
                f.bb_a.public(),
                vec![],
                Validity::unbounded(),
                |c| c == "ESnet:member",
            )
            .unwrap();
        let verified = chain
            .verify_links(f.cas.public_key(), Timestamp(0))
            .unwrap();
        assert_eq!(verified.capabilities, vec!["ESnet:member"]);
    }

    #[test]
    fn chain_wire_round_trip() {
        let mut f = fixture();
        let chain = full_chain(&mut f);
        let bytes = qos_wire::to_bytes(&chain);
        let back: DelegationChain = qos_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, chain);
        assert!(back.verify_links(f.cas.public_key(), Timestamp(0)).is_ok());
    }
}
