//! # qos-crypto — PKI substrate for the signalling protocol
//!
//! The HPDC 2001 paper's protocol rests on an OpenSSL-era PKI: X.509v3
//! certificates, digital signatures, TLS-authenticated channels, capability
//! certificates delegated hop-by-hop, and a web of trust built from "key
//! introducers". This crate rebuilds that substrate from scratch at
//! *simulation strength* (see DESIGN.md §2 for the substitution rationale):
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC, vector-tested;
//! * [`group`] — arithmetic in a fixed 63-bit safe-prime group;
//! * [`schnorr`] — deterministic Schnorr signatures and possession proofs;
//! * [`dn`] — X.500 distinguished names;
//! * [`cert`] — X.509v3-shaped certificates, extensions, CAs;
//! * [`delegation`] — Neuman-style cascaded capability delegation and the
//!   §6.5 verification checklist;
//! * [`introducer`] — web-of-trust key acceptance with chain-depth policy;
//! * [`keystore`] — the "secure LDAP" certificate-directory alternative;
//! * [`time`] — timestamps for validity windows.
//!
//! All wire-visible types encode canonically via [`qos_wire`], so nested
//! signatures are byte-exact.

pub mod cert;
pub mod delegation;
pub mod dn;
pub mod error;
pub mod group;
pub mod introducer;
pub mod keystore;
pub mod schnorr;
pub mod sha256;
pub mod time;
pub mod vcache;

pub use cert::{
    intern_tables, Certificate, CertificateAuthority, Extension, Restriction, TbsCertificate,
    Validity,
};
pub use delegation::{
    CommunityAuthorizationServer, Delegation, DelegationChain, SignedHop, VerifiedCapabilities,
};
pub use dn::DistinguishedName;
pub use error::CryptoError;
pub use group::FixedBase;
pub use introducer::{Introduction, TrustAnchors, TrustPolicy};
pub use keystore::CertificateDirectory;
pub use schnorr::{verify_batch, verify_batch_digests, KeyPair, PublicKey, Signature};
pub use time::Timestamp;
