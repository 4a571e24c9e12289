//! X.509v3-shaped certificates.
//!
//! The paper's protocol carries "the certificates of the peered BBs as well
//! as the certificate of the issuing certificate authority" and encodes
//! capability attributes "in the extension field of an ITU X.509v3
//! certificate". We reproduce that *shape* — issuer/subject DNs, validity,
//! subject public key, an extensible extension list, and an issuer
//! signature over the to-be-signed (TBS) body — over the canonical
//! [`qos_wire`] encoding instead of DER.
//!
//! A [`Certificate`] is an immutable shared value (DESIGN.md §D28): it
//! keeps the bytes it was decoded from or issued as, and the digest of
//! its body once hashed, so every hop that carries or verifies it again
//! pays a reference count. A link decodes through [`intern_tables`], so
//! a certificate it delivered before is shared rather than decoded.

use crate::dn::DistinguishedName;
use crate::error::CryptoError;
use crate::schnorr::{KeyPair, PublicKey, Signature};
use crate::sha256::{sha256, Digest};
use crate::time::Timestamp;
use qos_wire::{Decode, Encode, InternTables, Reader, Retained, WireError, Writer};
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// A signed certificate: an immutable shared value (DESIGN.md §D28). One
/// allocation holds its canonical encoding, its parsed fields and the
/// digest of its body, hashed at most once; a clone is a reference
/// count, and a changed certificate is a new one
/// ([`Certificate::from_parts`]).
#[derive(Clone)]
pub struct Certificate(Arc<Body>);

struct Body {
    /// The TBS body's encoding, then the signature's.
    enc: Box<[u8]>,
    tbs: TbsCertificate,
    signature: Signature,
    digest: OnceLock<Digest>,
}

/// Bytes of an encoded [`Signature`], the tail of a certificate's.
const SIGNATURE_LEN: usize = 16;

/// Equal encodings: the encoding is canonical.
impl PartialEq for Certificate {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.enc == other.0.enc
    }
}

impl Eq for Certificate {}

/// What the derived `Debug` of `Certificate { tbs, signature }` printed.
impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Certificate")
            .field("tbs", &self.0.tbs)
            .field("signature", &self.0.signature)
            .finish()
    }
}

impl Encode for Certificate {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.0.enc);
    }
}

impl Decode for Certificate {
    /// Through the reader's intern table, if it carries one.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.interned(walk, |r| {
            let start = r.position();
            let (tbs, signature) = Decode::decode(r)?;
            Ok(Self::new(r.consumed_since(start).into(), tbs, signature))
        })
    }
}

impl Retained for Certificate {
    fn retained(&self) -> &[u8] {
        &self.0.enc
    }

    /// The signature: no two certificates an issuer signed share it.
    fn hashed(encoding: &[u8]) -> &[u8] {
        &encoding[encoding.len().saturating_sub(SIGNATURE_LEN)..]
    }
}

/// A certificate's extent, lengths only: no tag is checked, as bytes
/// equal to a held certificate's hold only valid ones.
fn walk(r: &mut Reader<'_>) -> Result<(), WireError> {
    r.skip(8)?; // serial
    crate::dn::walk(r)?; // issuer
    crate::dn::walk(r)?; // subject
    r.skip(24)?; // validity, subject public key
    for _ in 0..r.get_u32()? {
        match r.get_u8()? {
            0 => {}
            1 => (0..r.get_u32()?).try_for_each(|_| r.get_bytes_ref().map(drop))?,
            2 => match r.get_u8()? {
                0 => r.get_bytes_ref().map(drop)?,
                _ => r.skip(8)?,
            },
            _ => r.skip(1)?,
        }
    }
    r.skip(SIGNATURE_LEN)
}

impl Certificate {
    fn new(enc: Box<[u8]>, tbs: TbsCertificate, signature: Signature) -> Self {
        let digest = OnceLock::new();
        Self(Arc::new(Body {
            enc,
            tbs,
            signature,
            digest,
        }))
    }

    /// The certificate made of `tbs` and `signature`, whether or not the
    /// signature is over it.
    pub fn from_parts(tbs: TbsCertificate, signature: Signature) -> Self {
        let enc = qos_wire::to_bytes(&(&tbs, signature)).into();
        Self::new(enc, tbs, signature)
    }

    /// Sign `tbs` with `issuer_key`, producing a certificate.
    pub fn issue(tbs: TbsCertificate, issuer_key: &KeyPair) -> Self {
        let digest = qos_wire::with_encoded(&tbs, sha256);
        let cert = Self::from_parts(tbs, issuer_key.sign_digest(&digest));
        let _ = cert.0.digest.set(digest);
        cert
    }

    /// The signed body.
    pub fn tbs(&self) -> &TbsCertificate {
        &self.0.tbs
    }

    /// The issuer's signature over [`Certificate::digest`].
    pub fn signature(&self) -> Signature {
        self.0.signature
    }

    /// SHA-256 of the body's encoding — what the issuer's signature is
    /// over — hashed from the kept bytes on first need.
    pub fn digest(&self) -> &Digest {
        let tbs = &self.0.enc[..self.0.enc.len() - SIGNATURE_LEN];
        self.0.digest.get_or_init(|| sha256(tbs))
    }

    /// Verify the issuer signature under `issuer_pk`.
    pub fn verify_signature(&self, issuer_pk: PublicKey) -> Result<(), CryptoError> {
        if issuer_pk.verify_digest(self.digest(), &self.0.signature) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature {
                signer: self.0.tbs.issuer.clone(),
            })
        }
    }

    /// Check the validity window.
    pub fn check_validity(&self, at: Timestamp) -> Result<(), CryptoError> {
        if self.0.tbs.validity.contains(at) {
            Ok(())
        } else {
            Err(CryptoError::Expired {
                subject: self.0.tbs.subject.clone(),
                at,
            })
        }
    }

    /// True if the capability-certificate flag extension is present.
    pub fn is_capability_certificate(&self) -> bool {
        self.0
            .tbs
            .extensions
            .iter()
            .any(|e| matches!(e, Extension::CapabilityCertificateFlag))
    }

    /// True if the CA bit is set.
    pub fn is_ca(&self) -> bool {
        self.0
            .tbs
            .extensions
            .iter()
            .any(|e| matches!(e, Extension::BasicConstraints { is_ca: true }))
    }

    /// All capability attribute strings carried by this certificate.
    pub fn capabilities(&self) -> Vec<&str> {
        self.capability_iter().collect()
    }

    pub(crate) fn capability_iter(&self) -> impl Iterator<Item = &str> {
        self.0
            .tbs
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
        self.0.tbs.extensions.iter().filter_map(|e| match e {
            Extension::Restriction(r) => Some(r),
            _ => None,
        })
    }
}

/// The intern tables one link decodes through (DESIGN.md §D28): the
/// last 64 certificates and 256 names it delivered, in sets of four.
/// Sized for the few identities a link carries again and again, not
/// tuned per deployment.
pub fn intern_tables() -> InternTables {
    InternTables::default()
        .with::<Certificate>(64)
        .with::<DistinguishedName>(256)
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
        let cert = ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            KeyPair::from_seed(b"alice").public(),
            Validity::unbounded(),
        );
        let mut tbs = cert.tbs().clone();
        tbs.subject = DistinguishedName::user("Mallory", "EVIL");
        let forged = Certificate::from_parts(tbs, cert.signature());
        assert!(forged.verify_signature(ca.public_key()).is_err());
    }

    #[test]
    fn a_forgery_verified_after_its_genuine_twin_carries_its_own_digest() {
        let mut ca = ca();
        let genuine = ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            KeyPair::from_seed(b"alice").public(),
            Validity::unbounded(),
        );
        assert!(genuine.verify_signature(ca.public_key()).is_ok());
        // Same signature, one field edited, rebuilt from its parts.
        let mut tbs = genuine.tbs().clone();
        tbs.validity.not_after = Timestamp(1);
        let forged = Certificate::from_parts(tbs.clone(), genuine.signature());
        assert_eq!(*forged.digest(), sha256(&qos_wire::to_bytes(&tbs)));
        assert_ne!(forged.digest(), genuine.digest());
        assert!(forged.verify_signature(ca.public_key()).is_err());
        // Decoded from its own bytes it is the same forgery.
        let back: Certificate = qos_wire::from_bytes(&qos_wire::to_bytes(&forged)).unwrap();
        assert_eq!(back.digest(), forged.digest());
        assert!(genuine.verify_signature(ca.public_key()).is_ok());
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
        assert_eq!(root.tbs().issuer, root.tbs().subject);
    }

    #[test]
    fn serials_are_unique_and_increasing() {
        let mut ca = ca();
        let pk = KeyPair::from_seed(b"x").public();
        let c1 = ca.issue_identity(DistinguishedName::user("A", "O"), pk, Validity::unbounded());
        let c2 = ca.issue_identity(DistinguishedName::user("B", "O"), pk, Validity::unbounded());
        assert!(c2.tbs().serial > c1.tbs().serial);
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
