//! X.500-style distinguished names.
//!
//! The signalling protocol identifies every principal — users, bandwidth
//! brokers, policy/authorization servers — by distinguished name (DN), and
//! each hop records the DN of the *next* downstream broker in the envelope
//! it signs (`DN_BB_{n+2}` in the paper's notation).

use qos_wire::{Decode, Encode, Reader, WireError, Writer};
use std::fmt;

/// One relative distinguished name component, e.g. `CN=Alice`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rdn {
    /// Attribute type (`CN`, `O`, `OU`, `C`, …).
    pub attr: String,
    /// Attribute value.
    pub value: String,
}

qos_wire::impl_wire_struct!(Rdn { attr, value });

/// An ordered sequence of RDN components.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DistinguishedName {
    components: Vec<Rdn>,
}

impl DistinguishedName {
    /// Build a DN from `(attr, value)` pairs, most-specific first.
    pub fn new<I, A, V>(components: I) -> Self
    where
        I: IntoIterator<Item = (A, V)>,
        A: Into<String>,
        V: Into<String>,
    {
        Self {
            components: components
                .into_iter()
                .map(|(a, v)| Rdn {
                    attr: a.into(),
                    value: v.into(),
                })
                .collect(),
        }
    }

    /// Shorthand for a user principal: `CN=<name>,OU=Users,O=<org>`.
    pub fn user(name: &str, org: &str) -> Self {
        Self::new([("CN", name), ("OU", "Users"), ("O", org)])
    }

    /// Shorthand for a bandwidth broker: `CN=BB,OU=<domain>,O=QoS`.
    pub fn broker(domain: &str) -> Self {
        Self::new([("CN", "BB"), ("OU", domain), ("O", "QoS")])
    }

    /// Shorthand for a certificate authority / authorization server.
    pub fn authority(name: &str) -> Self {
        Self::new([("CN", name), ("OU", "Authorities"), ("O", "QoS")])
    }

    /// The common-name component, if present.
    pub fn common_name(&self) -> Option<&str> {
        self.components
            .iter()
            .find(|c| c.attr == "CN")
            .map(|c| c.value.as_str())
    }

    /// The organizational-unit component, if present. For broker DNs this
    /// carries the administrative domain name.
    pub fn org_unit(&self) -> Option<&str> {
        self.components
            .iter()
            .find(|c| c.attr == "OU")
            .map(|c| c.value.as_str())
    }

    /// All components, most-specific first.
    pub fn components(&self) -> &[Rdn] {
        &self.components
    }

    /// Return a copy with the CN annotated, as the paper's capability
    /// certificates do ("the DN of the user (potentially modified to
    /// indicate that this is a capability certificate)").
    pub fn annotated(&self, marker: &str) -> Self {
        let components = self
            .components
            .iter()
            .map(|c| {
                if c.attr == "CN" {
                    Rdn {
                        attr: c.attr.clone(),
                        value: format!("{}+{}", c.value, marker),
                    }
                } else {
                    c.clone()
                }
            })
            .collect();
        Self { components }
    }

    /// True if `self` equals `other` after stripping any CN annotations.
    pub fn same_principal(&self, other: &Self) -> bool {
        fn bare(c: &Rdn) -> &str {
            match c.attr.as_str() {
                "CN" => c.value.split('+').next().unwrap_or(""),
                _ => &c.value,
            }
        }
        self.components.len() == other.components.len()
            && self
                .components
                .iter()
                .zip(&other.components)
                .all(|(a, b)| a.attr == b.attr && bare(a) == bare(b))
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}={}", c.attr, c.value)?;
        }
        Ok(())
    }
}

impl Encode for DistinguishedName {
    fn encode(&self, w: &mut Writer) {
        self.components.encode(w);
    }
}

impl Decode for DistinguishedName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            components: Vec::<Rdn>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let dn = DistinguishedName::user("Alice", "ANL");
        assert_eq!(dn.to_string(), "CN=Alice,OU=Users,O=ANL");
    }

    #[test]
    fn accessors() {
        let dn = DistinguishedName::broker("domain-b");
        assert_eq!(dn.common_name(), Some("BB"));
        assert_eq!(dn.org_unit(), Some("domain-b"));
    }

    #[test]
    fn annotation_preserves_principal_identity() {
        let dn = DistinguishedName::user("Alice", "ANL");
        let marked = dn.annotated("capability");
        assert_ne!(dn, marked);
        assert!(dn.same_principal(&marked));
        assert!(marked.same_principal(&dn));
        assert!(!dn.same_principal(&DistinguishedName::user("Bob", "ANL")));
    }

    #[test]
    fn wire_round_trip() {
        let dn = DistinguishedName::new([("CN", "BB"), ("OU", "esnet"), ("O", "QoS"), ("C", "US")]);
        let bytes = qos_wire::to_bytes(&dn);
        assert_eq!(
            qos_wire::from_bytes::<DistinguishedName>(&bytes).unwrap(),
            dn
        );
    }

    #[test]
    fn ordering_matters() {
        let a = DistinguishedName::new([("CN", "x"), ("O", "y")]);
        let b = DistinguishedName::new([("O", "y"), ("CN", "x")]);
        assert_ne!(a, b);
    }
}
