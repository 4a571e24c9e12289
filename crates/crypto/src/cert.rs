//! X.509v3-shaped certificates.
//!
//! The paper's protocol carries "the certificates of the peered BBs as well
//! as the certificate of the issuing certificate authority" and encodes
//! capability attributes "in the extension field of an ITU X.509v3
//! certificate". We reproduce that *shape* — issuer/subject DNs, validity,
//! subject public key, an extensible extension list, and an issuer
//! signature over the to-be-signed (TBS) body — over the canonical
//! [`qos_wire`] encoding instead of DER.

use crate::dn::DistinguishedName;
use crate::error::CryptoError;
use crate::schnorr::{KeyPair, PublicKey, Signature};
use crate::sha256::{sha256, Digest};
use crate::time::Timestamp;

/// A certificate validity window (inclusive bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// First instant at which the certificate is valid.
    pub not_before: Timestamp,
    /// Last instant at which the certificate is valid.
    pub not_after: Timestamp,
}

qos_wire::impl_wire_struct!(Validity {
    not_before,
    not_after
});

impl Validity {
    /// A window spanning the whole simulation.
    pub fn unbounded() -> Self {
        Self {
            not_before: Timestamp::ZERO,
            not_after: Timestamp::MAX,
        }
    }

    /// A window from `start` lasting `secs` seconds.
    pub fn starting_at(start: Timestamp, secs: u64) -> Self {
        Self {
            not_before: start,
            not_after: start + secs,
        }
    }

    /// Is `t` inside the window?
    pub fn contains(&self, t: Timestamp) -> bool {
        self.not_before <= t && t <= self.not_after
    }
}

/// A restriction added during capability delegation (never removed by
/// later hops — the Neuman cascade only narrows).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Restriction {
    /// "Valid for Reservation in Domain X" (Figure 7).
    ValidForDomain(String),
    /// "valid for RAR" — bound to one specific resource allocation request.
    ValidForRar(u64),
    /// Bandwidth ceiling in bits/s the delegate may request.
    MaxBandwidthBps(u64),
}

qos_wire::impl_wire_enum!(Restriction {
    0 => ValidForDomain(t0: String),
    1 => ValidForRar(t0: u64),
    2 => MaxBandwidthBps(t0: u64),
});

impl std::fmt::Display for Restriction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Restriction::ValidForDomain(d) => write!(f, "valid-for-domain:{d}"),
            Restriction::ValidForRar(id) => write!(f, "valid-for-rar:{id}"),
            Restriction::MaxBandwidthBps(b) => write!(f, "max-bandwidth:{b}bps"),
        }
    }
}

/// An X.509v3-style extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extension {
    /// "Capability Certificate Flag" from Figure 7: marks the certificate
    /// as carrying authorization attributes rather than pure identity.
    CapabilityCertificateFlag,
    /// Capability attributes, e.g. `"ESnet:member"` or
    /// `"group:ATLAS experiment"`.
    Capabilities(Vec<String>),
    /// A delegation restriction.
    Restriction(Restriction),
    /// CA bit: may this subject issue further identity certificates?
    BasicConstraints {
        /// True if the subject is a certificate authority.
        is_ca: bool,
    },
}

qos_wire::impl_wire_enum!(Extension {
    0 => CapabilityCertificateFlag,
    1 => Capabilities(t0: Vec<String>),
    2 => Restriction(t0: Restriction),
    3 => BasicConstraints { is_ca },
});

/// The to-be-signed body of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Issuer-assigned serial number.
    pub serial: u64,
    /// Who signed this certificate.
    pub issuer: DistinguishedName,
    /// Whom this certificate describes.
    pub subject: DistinguishedName,
    /// When the certificate is valid.
    pub validity: Validity,
    /// The subject's public key (or public *proxy* key for capability
    /// certificates issued to users).
    pub subject_public_key: PublicKey,
    /// X.509v3 extensions.
    pub extensions: Vec<Extension>,
}

qos_wire::impl_wire_struct!(TbsCertificate {
    serial,
    issuer,
    subject,
    validity,
    subject_public_key,
    extensions
});

impl TbsCertificate {
    /// SHA-256 of the canonical encoding — what the issuer's signature is
    /// over and what the verification cache files the certificate under.
    pub fn digest(&self) -> Digest {
        qos_wire::with_encoded(self, sha256)
    }
}

/// A signed certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Signed body.
    pub tbs: TbsCertificate,
    /// Issuer's signature over the canonical encoding of `tbs`.
    pub signature: Signature,
}

qos_wire::impl_wire_struct!(Certificate { tbs, signature });

impl Certificate {
    /// Sign `tbs` with `issuer_key`, producing a certificate.
    pub fn issue(tbs: TbsCertificate, issuer_key: &KeyPair) -> Self {
        let signature = issuer_key.sign_digest(&tbs.digest());
        Self { tbs, signature }
    }

    /// Verify the issuer signature under `issuer_pk`.
    pub fn verify_signature(&self, issuer_pk: PublicKey) -> Result<(), CryptoError> {
        if issuer_pk.verify_digest(&self.tbs.digest(), &self.signature) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature {
                signer: self.tbs.issuer.clone(),
            })
        }
    }

    /// Verify the issuer signature through the process-wide verification
    /// cache ([`crate::vcache`]): a certificate already verified under
    /// `issuer_pk` costs one hash and a map lookup instead of a Schnorr
    /// verification. `now` is used only to expire cached entries whose
    /// validity window has lapsed — callers still enforce validity with
    /// [`Certificate::check_validity`].
    pub fn verify_signature_cached(
        &self,
        issuer_pk: PublicKey,
        now: Timestamp,
    ) -> Result<(), CryptoError> {
        crate::vcache::global().verify_cert(self, issuer_pk, now)
    }

    /// Check the validity window.
    pub fn check_validity(&self, at: Timestamp) -> Result<(), CryptoError> {
        if self.tbs.validity.contains(at) {
            Ok(())
        } else {
            Err(CryptoError::Expired {
                subject: self.tbs.subject.clone(),
                at,
            })
        }
    }

    /// True if the capability-certificate flag extension is present.
    pub fn is_capability_certificate(&self) -> bool {
        self.tbs
            .extensions
            .iter()
            .any(|e| matches!(e, Extension::CapabilityCertificateFlag))
    }

    /// True if the CA bit is set.
    pub fn is_ca(&self) -> bool {
        self.tbs
            .extensions
            .iter()
            .any(|e| matches!(e, Extension::BasicConstraints { is_ca: true }))
    }

    /// All capability attribute strings carried by this certificate.
    pub fn capabilities(&self) -> Vec<&str> {
        self.capability_iter().collect()
    }

    pub(crate) fn capability_iter(&self) -> impl Iterator<Item = &str> {
        self.tbs
            .extensions
            .iter()
            .filter_map(|e| match e {
                Extension::Capabilities(caps) => Some(caps.iter().map(String::as_str)),
                _ => None,
            })
            .flatten()
    }

    /// All delegation restrictions carried by this certificate.
    pub fn restrictions(&self) -> Vec<&Restriction> {
        self.restriction_iter().collect()
    }

    pub(crate) fn restriction_iter(&self) -> impl Iterator<Item = &Restriction> {
        self.tbs.extensions.iter().filter_map(|e| match e {
            Extension::Restriction(r) => Some(r),
            _ => None,
        })
    }
}

/// A certificate authority: a DN, a key pair, and a serial counter.
///
/// Models both identity CAs and the paper's community authorization
/// servers (which sign capability certificates).
pub struct CertificateAuthority {
    dn: DistinguishedName,
    key: KeyPair,
    next_serial: u64,
}

impl CertificateAuthority {
    /// Create a CA with the given DN and key pair.
    pub fn new(dn: DistinguishedName, key: KeyPair) -> Self {
        Self {
            dn,
            key,
            next_serial: 1,
        }
    }

    /// The CA's DN.
    pub fn dn(&self) -> &DistinguishedName {
        &self.dn
    }

    /// The CA's public key (the trust anchor its relying parties pin).
    pub fn public_key(&self) -> PublicKey {
        self.key.public()
    }

    /// The CA's key pair (needed when a CA also acts as a protocol
    /// principal, e.g. a CAS signing capability certificates).
    pub fn key_pair(&self) -> &KeyPair {
        &self.key
    }

    /// Produce the CA's self-signed root certificate.
    pub fn self_signed(&mut self) -> Certificate {
        let serial = self.bump_serial();
        Certificate::issue(
            TbsCertificate {
                serial,
                issuer: self.dn.clone(),
                subject: self.dn.clone(),
                validity: Validity::unbounded(),
                subject_public_key: self.key.public(),
                extensions: vec![Extension::BasicConstraints { is_ca: true }],
            },
            &self.key,
        )
    }

    /// Issue an identity certificate binding `subject` to `subject_pk`.
    pub fn issue_identity(
        &mut self,
        subject: DistinguishedName,
        subject_pk: PublicKey,
        validity: Validity,
    ) -> Certificate {
        let serial = self.bump_serial();
        Certificate::issue(
            TbsCertificate {
                serial,
                issuer: self.dn.clone(),
                subject,
                validity,
                subject_public_key: subject_pk,
                extensions: vec![Extension::BasicConstraints { is_ca: false }],
            },
            &self.key,
        )
    }

    fn bump_serial(&mut self) -> u64 {
        let s = self.next_serial;
        self.next_serial += 1;
        s
    }
}

#[allow(dead_code)]
fn _assert_wire_impls() {
    fn takes_wire<T: qos_wire::Encode + qos_wire::Decode>() {}
    takes_wire::<Certificate>();
    takes_wire::<Extension>();
    takes_wire::<Restriction>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new(
            DistinguishedName::authority("RootCA"),
            KeyPair::from_seed(b"root-ca"),
        )
    }

    #[test]
    fn issue_and_verify_identity() {
        let mut ca = ca();
        let alice = KeyPair::from_seed(b"alice");
        let cert = ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            alice.public(),
            Validity::unbounded(),
        );
        assert!(cert.verify_signature(ca.public_key()).is_ok());
        assert!(!cert.is_ca());
        assert!(!cert.is_capability_certificate());
    }

    #[test]
    fn wrong_issuer_key_rejected() {
        let mut ca1 = ca();
        let other = KeyPair::from_seed(b"other-ca");
        let cert = ca1.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            KeyPair::from_seed(b"alice").public(),
            Validity::unbounded(),
        );
        assert_eq!(
            cert.verify_signature(other.public()),
            Err(CryptoError::BadSignature {
                signer: DistinguishedName::authority("RootCA"),
            })
        );
    }

    #[test]
    fn tampering_with_tbs_invalidates() {
        let mut ca = ca();
        let mut cert = ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            KeyPair::from_seed(b"alice").public(),
            Validity::unbounded(),
        );
        cert.tbs.subject = DistinguishedName::user("Mallory", "EVIL");
        assert!(cert.verify_signature(ca.public_key()).is_err());
    }

    #[test]
    fn validity_window_enforced() {
        let mut ca = ca();
        let cert = ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            KeyPair::from_seed(b"alice").public(),
            Validity::starting_at(Timestamp(100), 50),
        );
        assert!(cert.check_validity(Timestamp(99)).is_err());
        assert!(cert.check_validity(Timestamp(100)).is_ok());
        assert!(cert.check_validity(Timestamp(150)).is_ok());
        assert!(cert.check_validity(Timestamp(151)).is_err());
    }

    #[test]
    fn self_signed_root_verifies_under_own_key() {
        let mut ca = ca();
        let root = ca.self_signed();
        assert!(root.verify_signature(ca.public_key()).is_ok());
        assert!(root.is_ca());
        assert_eq!(root.tbs.issuer, root.tbs.subject);
    }

    #[test]
    fn serials_are_unique_and_increasing() {
        let mut ca = ca();
        let pk = KeyPair::from_seed(b"x").public();
        let c1 = ca.issue_identity(DistinguishedName::user("A", "O"), pk, Validity::unbounded());
        let c2 = ca.issue_identity(DistinguishedName::user("B", "O"), pk, Validity::unbounded());
        assert!(c2.tbs.serial > c1.tbs.serial);
    }

    #[test]
    fn capability_accessors() {
        let key = KeyPair::from_seed(b"cas");
        let tbs = TbsCertificate {
            serial: 1,
            issuer: DistinguishedName::authority("CAS"),
            subject: DistinguishedName::user("Alice", "ANL").annotated("capability"),
            validity: Validity::unbounded(),
            subject_public_key: KeyPair::from_seed(b"proxy").public(),
            extensions: vec![
                Extension::CapabilityCertificateFlag,
                Extension::Capabilities(vec!["ESnet:member".into()]),
                Extension::Restriction(Restriction::ValidForDomain("domain-c".into())),
            ],
        };
        let cert = Certificate::issue(tbs, &key);
        assert!(cert.is_capability_certificate());
        assert_eq!(cert.capabilities(), vec!["ESnet:member"]);
        assert_eq!(
            cert.restrictions(),
            vec![&Restriction::ValidForDomain("domain-c".into())]
        );
    }

    #[test]
    fn certificate_wire_round_trip() {
        let mut ca = ca();
        let cert = ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            KeyPair::from_seed(b"alice").public(),
            Validity::starting_at(Timestamp(5), 500),
        );
        let bytes = qos_wire::to_bytes(&cert);
        let back: Certificate = qos_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, cert);
        assert!(back.verify_signature(ca.public_key()).is_ok());
    }
}
