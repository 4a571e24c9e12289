//! Certificate directory — the paper's §6.4 alternative 2: "Maintain a
//! certificate repository accessible through secure LDAP."
//!
//! The destination extracts the source's DN from the reservation
//! specification and looks the certificate up in a repository it has "a
//! strong trust relationship" with. Implemented here as an in-memory map;
//! the D3 ablation benchmark compares this against the web-of-trust
//! introducer chain.

use crate::cert::Certificate;
use crate::dn::DistinguishedName;
use crate::error::CryptoError;
use crate::schnorr::PublicKey;
use crate::time::Timestamp;
use std::collections::HashMap;

/// An in-memory certificate repository keyed by subject DN.
#[derive(Debug, Default, Clone)]
pub struct CertificateDirectory {
    by_dn: HashMap<DistinguishedName, Certificate>,
}

impl CertificateDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish (or replace) a certificate.
    pub fn publish(&mut self, cert: Certificate) {
        self.by_dn.insert(cert.tbs().subject.clone(), cert);
    }

    /// Remove a certificate (revocation by de-listing).
    pub fn revoke(&mut self, dn: &DistinguishedName) -> Option<Certificate> {
        self.by_dn.remove(dn)
    }

    /// Number of published certificates.
    pub fn len(&self) -> usize {
        self.by_dn.len()
    }

    /// True if the directory holds no certificates.
    pub fn is_empty(&self) -> bool {
        self.by_dn.is_empty()
    }

    /// Look up the public key for `dn`, checking validity at `now`.
    ///
    /// The repository itself is trusted (per the paper's caveat), so no
    /// further chain validation happens here.
    pub fn lookup(&self, dn: &DistinguishedName, now: Timestamp) -> Result<PublicKey, CryptoError> {
        let cert = self
            .by_dn
            .get(dn)
            .ok_or_else(|| CryptoError::UnknownSubject {
                subject: dn.clone(),
            })?;
        cert.check_validity(now)?;
        Ok(cert.tbs().subject_public_key)
    }

    /// Fetch the full certificate for `dn`.
    pub fn certificate(&self, dn: &DistinguishedName) -> Option<&Certificate> {
        self.by_dn.get(dn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertificateAuthority, Validity};
    use crate::schnorr::KeyPair;

    #[test]
    fn publish_lookup_revoke() {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("RootCA"),
            KeyPair::from_seed(b"ca"),
        );
        let bb = KeyPair::from_seed(b"bb");
        let dn = DistinguishedName::broker("domain-a");
        let cert = ca.issue_identity(dn.clone(), bb.public(), Validity::unbounded());

        let mut dir = CertificateDirectory::new();
        assert!(dir.lookup(&dn, Timestamp(0)).is_err());
        dir.publish(cert);
        assert_eq!(dir.lookup(&dn, Timestamp(0)).unwrap(), bb.public());
        dir.revoke(&dn);
        assert!(matches!(
            dir.lookup(&dn, Timestamp(0)),
            Err(CryptoError::UnknownSubject { .. })
        ));
    }

    #[test]
    fn expired_entries_not_served() {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("RootCA"),
            KeyPair::from_seed(b"ca"),
        );
        let dn = DistinguishedName::broker("domain-a");
        let cert = ca.issue_identity(
            dn.clone(),
            KeyPair::from_seed(b"bb").public(),
            Validity::starting_at(Timestamp(0), 10),
        );
        let mut dir = CertificateDirectory::new();
        dir.publish(cert);
        assert!(dir.lookup(&dn, Timestamp(5)).is_ok());
        assert!(matches!(
            dir.lookup(&dn, Timestamp(20)),
            Err(CryptoError::Expired { .. })
        ));
    }

    #[test]
    fn republish_replaces() {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("RootCA"),
            KeyPair::from_seed(b"ca"),
        );
        let dn = DistinguishedName::broker("domain-a");
        let k1 = KeyPair::from_seed(b"k1");
        let k2 = KeyPair::from_seed(b"k2");
        let mut dir = CertificateDirectory::new();
        dir.publish(ca.issue_identity(dn.clone(), k1.public(), Validity::unbounded()));
        dir.publish(ca.issue_identity(dn.clone(), k2.public(), Validity::unbounded()));
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.lookup(&dn, Timestamp(0)).unwrap(), k2.public());
    }
}
