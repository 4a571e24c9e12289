//! Cascaded capability delegation (Neuman '93, as used in §6.5 of the
//! paper).
//!
//! A Community Authorization Server (CAS) issues the user a capability
//! certificate whose subject key is a fresh **proxy key**; the user holds
//! the private proxy key and delegates to the source broker by minting a
//! second certificate for that broker's **real** public key, signed with
//! the proxy key. Both ride in the user's layer of the request.
//!
//! A broker delegates onward without minting anything (DESIGN.md §D22):
//! the request layer it signs anyway names the next hop and carries a
//! [`Delegation`] — the next hop's real public key (learned during the
//! secure-channel handshake) and a validity window — so the layer's
//! signature is the link's. The chain read off a request is
//! CAS→user→BB_A in certificates and BB_A→BB_B→BB_C in [`SignedHop`]s
//! (Figure 7's lists of 2 → 3 → 4), and the seven checks of §6.5 run
//! over both in [`DelegationChain::verify_request`].

use crate::cert::{Certificate, Extension, Restriction, TbsCertificate, Validity};
use crate::dn::DistinguishedName;
use crate::error::CryptoError;
use crate::schnorr::{KeyPair, PublicKey, Signature};
use crate::sha256::Digest;
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
    /// The key the chain ends at. Check 7 (possession): only the broker
    /// holding it may use the attributes or delegate them on.
    pub holder_key: PublicKey,
    /// Signatures checked on the way: one per certificate, and one per
    /// linking layer the caller had not already verified.
    pub signatures: usize,
}

/// A broker's delegation of the capabilities it holds, folded into the
/// request layer it signs: the layer names the delegatee, this its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delegation {
    /// The next hop's real public key.
    pub to_key: PublicKey,
    /// When the delegation holds.
    pub validity: Validity,
}

qos_wire::impl_wire_struct!(Delegation { to_key, validity });

/// One broker layer of a request, as [`DelegationChain::verify_request`]
/// reads it.
pub struct SignedHop<'a> {
    /// Who signed the layer, over what, and the signature.
    pub signer: &'a DistinguishedName,
    pub digest: &'a Digest,
    pub signature: Signature,
    /// The key the caller already verified `signature` under, if it did.
    pub verified_under: Option<PublicKey>,
    /// The next hop and the signer's delegation to it, if it made one.
    pub link: Option<(&'a DistinguishedName, &'a Delegation)>,
    /// Certificates on the layer; brokers mint none.
    pub certs: &'a [Certificate],
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
        let tip = self.tip();
        if holder_key.public() != tip.tbs().subject_public_key {
            return Err(CryptoError::PossessionProofInvalid {
                subject: tip.tbs().subject.clone(),
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
            serial: tip.tbs().serial,
            issuer: tip.tbs().subject.clone(),
            subject: delegatee,
            validity,
            subject_public_key: delegatee_pk,
            extensions,
        };
        let mut certs = self.certs.clone();
        certs.push(Certificate::issue(tbs, holder_key));
        Ok(Self { certs })
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
            .tbs()
            .subject_public_key
            .check_possession(nonce, possession)
        {
            return Err(CryptoError::PossessionProofInvalid {
                subject: tip.tbs().subject.clone(),
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
                if !cert.tbs().issuer.same_principal(&prev.tbs().subject) {
                    return Err(CryptoError::IssuerMismatch {
                        expected: prev.tbs().subject.clone(),
                        found: cert.tbs().issuer.clone(),
                    });
                }
            }
            cert.verify_signature(issuer_pk)?;
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
            issuer_pk = cert.tbs().subject_public_key;
            prev = Some(cert);
        }

        let tip = prev.ok_or(CryptoError::MalformedChain("empty chain"))?;
        Ok(VerifiedCapabilities {
            capabilities: tip.capability_iter().map(str::to_string).collect(),
            restrictions: tip.restriction_iter().cloned().collect(),
            holder: tip.tbs().subject.clone(),
            holder_key: tip.tbs().subject_public_key,
            signatures: certs.len(),
        })
    }

    /// The §6.5 checklist over a request: `certs` are the certificates of
    /// the user's layer (the CAS grant and the user's delegation), `hops`
    /// the broker layers above it, innermost first.
    pub fn verify_request<'a>(
        certs: &[&Certificate],
        hops: impl Iterator<Item = SignedHop<'a>>,
        cas_pk: PublicKey,
        now: Timestamp,
        rar_id: u64,
    ) -> Result<VerifiedCapabilities, CryptoError> {
        // Check 1 (the CAS issued it) and the user's own link.
        let mut chain = Self::verify_links_of(certs, cas_pk, now)?;
        for hop in hops {
            if !hop.certs.is_empty() {
                return Err(CryptoError::MalformedChain("certificate on a broker layer"));
            }
            let Some((delegatee, link)) = hop.link else {
                continue;
            };
            // Check 3: made by the principal the link before it named.
            if !hop.signer.same_principal(&chain.holder) {
                return Err(CryptoError::IssuerMismatch {
                    expected: chain.holder,
                    found: hop.signer.clone(),
                });
            }
            // Check 2: signed with the key the link before it named.
            let signed = match hop.verified_under {
                Some(pk) => pk == chain.holder_key,
                None => {
                    chain.signatures += 1;
                    chain.holder_key.verify_digest(hop.digest, &hop.signature)
                }
            };
            if !signed {
                return Err(CryptoError::BadSignature {
                    signer: hop.signer.clone(),
                });
            }
            // Check 4: inside its validity window.
            if !link.validity.contains(now) {
                let subject = delegatee.clone();
                return Err(CryptoError::Expired { subject, at: now });
            }
            // Checks 5 and 6: a folded link has no attributes of its own,
            // so capabilities cannot widen nor a restriction be dropped;
            // inside the signed request, it is valid for that one only.
            let bound = Restriction::ValidForRar(rar_id);
            if !chain.restrictions.contains(&bound) {
                chain.restrictions.push(bound);
            }
            chain.holder = delegatee.clone();
            chain.holder_key = link.to_key;
        }
        Ok(chain)
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
        let mut tbs = tip.tbs().clone();
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
        let mut tbs = tip.tbs().clone();
        tbs.issuer = tip.tbs().subject.clone();
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
        let mut signature = chain.certs[1].signature();
        signature.s ^= 1;
        chain.certs[1] = Certificate::from_parts(chain.certs[1].tbs().clone(), signature);
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

    /// A broker layer as a request carries it: what `SignedHop` borrows.
    struct Layer {
        signer: DistinguishedName,
        digest: Digest,
        signature: Signature,
        next: DistinguishedName,
        link: Option<Delegation>,
        certs: Vec<Certificate>,
    }

    impl Layer {
        /// `by`'s layer addressed to `to`, delegating to `to_key`.
        fn new(by: &str, key: &KeyPair, to: &str, to_key: PublicKey) -> Self {
            let digest = crate::sha256::sha256(by.as_bytes());
            Layer {
                signer: DistinguishedName::broker(by),
                signature: key.sign_digest(&digest),
                digest,
                next: DistinguishedName::broker(to),
                link: Some(Delegation {
                    to_key,
                    validity: Validity::starting_at(Timestamp(0), 1000),
                }),
                certs: Vec::new(),
            }
        }

        fn hop(&self, verified_under: Option<PublicKey>) -> SignedHop<'_> {
            SignedHop {
                signer: &self.signer,
                digest: &self.digest,
                signature: self.signature,
                verified_under,
                link: self.link.as_ref().map(|l| (&self.next, l)),
                certs: &self.certs,
            }
        }
    }

    /// Figure 7's chain as BB_C reads it off a request: the user's two
    /// certificates, then BB_A's and BB_B's layers with their links.
    fn folded(f: &mut Fixture) -> (DelegationChain, [Layer; 2]) {
        let grant = f.cas.grant(
            &f.user_dn,
            f.user_proxy.public(),
            vec!["ESnet:member".into()],
            Validity::unbounded(),
        );
        let certs = DelegationChain::new(grant)
            .delegate(
                &f.user_proxy,
                DistinguishedName::broker("domain-a"),
                f.bb_a.public(),
                vec![Restriction::ValidForDomain("domain-c".into())],
                Validity::unbounded(),
            )
            .unwrap();
        let a = Layer::new("domain-a", &f.bb_a, "domain-b", f.bb_b.public());
        let b = Layer::new("domain-b", &f.bb_b, "domain-c", f.bb_c.public());
        (certs, [a, b])
    }

    fn check(
        f: &Fixture,
        certs: &DelegationChain,
        layers: &[Layer],
        now: u64,
    ) -> Result<VerifiedCapabilities, CryptoError> {
        let certs: Vec<&Certificate> = certs.certs.iter().collect();
        let hops = layers.iter().map(|l| l.hop(None));
        DelegationChain::verify_request(&certs, hops, f.cas.public_key(), Timestamp(now), 111)
    }

    #[test]
    fn folded_chain_passes_the_checklist() {
        let mut f = fixture();
        let (certs, layers) = folded(&mut f);
        let verified = check(&f, &certs, &layers, 0).unwrap();
        assert_eq!(verified.capabilities, vec!["ESnet:member"]);
        assert_eq!(
            verified.restrictions,
            vec![
                Restriction::ValidForDomain("domain-c".into()),
                Restriction::ValidForRar(111)
            ]
        );
        assert_eq!(verified.holder, DistinguishedName::broker("domain-c"));
        assert_eq!(verified.holder_key, f.bb_c.public());
        assert_eq!(verified.signatures, 4, "two certificates, two layers");
        // Layers the caller verified under the chained keys cost key
        // equality; under any other key the chain is broken.
        let refs: Vec<&Certificate> = certs.certs.iter().collect();
        let with = |key_b: PublicKey| {
            let keys = [f.bb_a.public(), key_b];
            let hops = layers.iter().zip(keys).map(|(l, k)| l.hop(Some(k)));
            DelegationChain::verify_request(&refs, hops, f.cas.public_key(), Timestamp(0), 111)
        };
        assert_eq!(with(f.bb_b.public()).unwrap().signatures, 2);
        assert!(matches!(
            with(f.bb_c.public()),
            Err(CryptoError::BadSignature { .. })
        ));
        // A chain that stops early ends at the last delegatee's key.
        let stopped = check(&f, &certs, &layers[..1], 0).unwrap();
        assert_eq!(stopped.holder_key, f.bb_b.public());
    }

    #[test]
    fn any_tampered_link_fails() {
        let mut f = fixture();
        let domain_b = DistinguishedName::broker("domain-b");

        // Wrong chained key: BB_A names a key BB_B does not sign with.
        let (certs, mut layers) = folded(&mut f);
        layers[0].link.as_mut().unwrap().to_key = KeyPair::from_seed(b"mallory").public();
        assert_eq!(
            check(&f, &certs, &layers, 0),
            Err(CryptoError::BadSignature {
                signer: domain_b.clone()
            })
        );

        // The signer is not the principal the link before it named.
        let (certs, mut layers) = folded(&mut f);
        layers[1].signer = DistinguishedName::broker("domain-x");
        assert_eq!(
            check(&f, &certs, &layers, 0),
            Err(CryptoError::IssuerMismatch {
                expected: domain_b.clone(),
                found: DistinguishedName::broker("domain-x"),
            })
        );

        // Expired link.
        let (certs, layers) = folded(&mut f);
        assert_eq!(
            check(&f, &certs, &layers, 1001),
            Err(CryptoError::Expired {
                subject: domain_b.clone(),
                at: Timestamp(1001)
            })
        );

        // A link after a gap: BB_A forwarded without delegating, so the
        // chain ended at BB_A and BB_B has nothing to hand on.
        let (certs, mut layers) = folded(&mut f);
        layers[0].link = None;
        assert_eq!(
            check(&f, &certs, &layers, 0),
            Err(CryptoError::IssuerMismatch {
                expected: DistinguishedName::broker("domain-a"),
                found: domain_b,
            })
        );

        // A certificate on a broker layer: brokers mint none.
        let (certs, mut layers) = folded(&mut f);
        layers[1].certs = vec![certs.certs[1].clone()];
        assert_eq!(
            check(&f, &certs, &layers, 0),
            Err(CryptoError::MalformedChain("certificate on a broker layer"))
        );
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
