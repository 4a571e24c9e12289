//! X.500-style distinguished names.
//!
//! The signalling protocol identifies every principal — users, bandwidth
//! brokers, policy/authorization servers — by distinguished name (DN), and
//! each hop records the DN of the *next* downstream broker in the envelope
//! it signs (`DN_BB_{n+2}` in the paper's notation).
//!
//! A name is kept as its canonical wire encoding in one shared
//! allocation (DESIGN.md §D18): an envelope is mostly names — two in
//! every certificate, a signer and a next hop in every layer — and they
//! are decoded, cloned into pending maps, reservation tables and audit
//! records, compared and re-encoded far more often than they are taken
//! apart. A link decodes names through its intern table (§D28), so a
//! name it delivered before costs a reference count.

// Cold-path allocation guard (DESIGN.md §D18): under .clippy-hotpath
// this rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use qos_wire::{Decode, Encode, Reader, Retained, WireError, Writer};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An ordered sequence of relative distinguished name components
/// (`CN=Alice`, `OU=Users`, …), most-specific first.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DistinguishedName {
    /// The canonical encoding: a `u32` component count, then each
    /// component's attribute type and value as `u32`-length-prefixed
    /// UTF-8. Fixed-width lengths give every name exactly one encoding,
    /// so equality and hashing are over these bytes. Only [`build`] and
    /// [`Decode`] produce it, and both check it.
    enc: Arc<[u8]>,
}

/// Why reading a component cannot fail.
const CHECKED: &str = "a DistinguishedName holds a checked encoding";

/// Encode a name: `components` writes each component with [`put_rdn`]
/// and returns how many it wrote.
fn build(components: impl FnOnce(&mut Writer) -> usize) -> DistinguishedName {
    let mut w = Writer::with_capacity(64);
    w.put_u32(0);
    let count = u32::try_from(components(&mut w)).expect("DN with more than u32::MAX components");
    let mut enc = w.into_bytes();
    enc[..4].copy_from_slice(&count.to_le_bytes());
    // The builders' one copy: out of the growable buffer into an
    // allocation of exact length next to its reference count.
    DistinguishedName { enc: enc.into() }
}

fn put_rdn(w: &mut Writer, attr: &str, value: &str) {
    w.put_str(attr);
    w.put_str(value);
}

/// The `(attribute type, value)` pairs of a name, read off its encoding
/// with the checks of any other decode.
struct Components<'a> {
    r: Reader<'a>,
    left: usize,
}

impl<'a> Iterator for Components<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let attr = self.r.get_str_ref().expect(CHECKED);
        let value = self.r.get_str_ref().expect(CHECKED);
        Some((attr, value))
    }
}

/// The CN value without any `+marker` annotations.
fn bare<'a>(attr: &str, value: &'a str) -> &'a str {
    match attr {
        "CN" => value.split('+').next().unwrap_or(""),
        _ => value,
    }
}

impl DistinguishedName {
    /// Build a DN from `(attr, value)` pairs, most-specific first.
    pub fn new<I, A, V>(components: I) -> Self
    where
        I: IntoIterator<Item = (A, V)>,
        A: Into<String>,
        V: Into<String>,
    {
        build(|w| {
            components
                .into_iter()
                .map(|(a, v)| put_rdn(w, &a.into(), &v.into()))
                .count()
        })
    }

    fn of(components: [(&str, &str); 3]) -> Self {
        build(|w| {
            for (attr, value) in components {
                put_rdn(w, attr, value);
            }
            components.len()
        })
    }

    /// Shorthand for a user principal: `CN=<name>,OU=Users,O=<org>`.
    pub fn user(name: &str, org: &str) -> Self {
        Self::of([("CN", name), ("OU", "Users"), ("O", org)])
    }

    /// Shorthand for a bandwidth broker: `CN=BB,OU=<domain>,O=QoS`.
    pub fn broker(domain: &str) -> Self {
        Self::of([("CN", "BB"), ("OU", domain), ("O", "QoS")])
    }

    /// Shorthand for a certificate authority / authorization server.
    pub fn authority(name: &str) -> Self {
        Self::of([("CN", name), ("OU", "Authorities"), ("O", "QoS")])
    }

    fn components(&self) -> Components<'_> {
        let mut r = Reader::new(&self.enc);
        let left = r.get_seq_len().expect(CHECKED);
        Components { r, left }
    }

    fn value_of(&self, attr: &str) -> Option<&str> {
        self.components().find(|(a, _)| *a == attr).map(|(_, v)| v)
    }

    /// The common-name component, if present.
    pub fn common_name(&self) -> Option<&str> {
        self.value_of("CN")
    }

    /// The organizational-unit component, if present. For broker DNs this
    /// carries the administrative domain name.
    pub fn org_unit(&self) -> Option<&str> {
        self.value_of("OU")
    }

    /// The canonical wire encoding — what [`Encode`] writes — for
    /// callers that hash or compare a name without re-encoding it.
    pub fn encoding(&self) -> &[u8] {
        &self.enc
    }

    /// Return a copy with the CN annotated, as the paper's capability
    /// certificates do ("the DN of the user (potentially modified to
    /// indicate that this is a capability certificate)").
    pub fn annotated(&self, marker: &str) -> Self {
        build(|w| {
            self.components()
                .map(|(attr, value)| {
                    if attr == "CN" {
                        w.put_str(attr);
                        let len = value.len() + 1 + marker.len();
                        w.put_u32(u32::try_from(len).expect("string longer than u32::MAX"));
                        w.put_raw(value.as_bytes());
                        w.put_raw(b"+");
                        w.put_raw(marker.as_bytes());
                    } else {
                        put_rdn(w, attr, value);
                    }
                })
                .count()
        })
    }

    /// True if `self` equals `other` after stripping any CN annotations.
    pub fn same_principal(&self, other: &Self) -> bool {
        self.enc == other.enc
            || self
                .components()
                .map(|(a, v)| (a, bare(a, v)))
                .eq(other.components().map(|(a, v)| (a, bare(a, v))))
    }
}

impl Default for DistinguishedName {
    /// The empty name.
    fn default() -> Self {
        build(|_| 0)
    }
}

/// Component-wise — attribute type, then value, then the next component,
/// a prefix before its extensions — which is not the order of the
/// encodings: every `BTreeMap` keyed by a name and every sorted
/// exposition keeps the order it had when a name was a vector of string
/// pairs.
impl Ord for DistinguishedName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.components().cmp(other.components())
    }
}

impl PartialOrd for DistinguishedName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (attr, value)) in self.components().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{attr}={value}")?;
        }
        Ok(())
    }
}

/// Prints what the derived `Debug` of
/// `DistinguishedName { components: Vec<Rdn { attr, value }> }` printed,
/// so logs and expositions that embed `{:?}` of a name do not change.
impl fmt::Debug for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Rdn<'a>(&'a str, &'a str);
        impl fmt::Debug for Rdn<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_struct("Rdn")
                    .field("attr", &self.0)
                    .field("value", &self.1)
                    .finish()
            }
        }
        struct List<'a>(&'a DistinguishedName);
        impl fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries(self.0.components().map(|(a, v)| Rdn(a, v)))
                    .finish()
            }
        }
        f.debug_struct("DistinguishedName")
            .field("components", &List(self))
            .finish()
    }
}

impl Encode for DistinguishedName {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.enc);
    }
}

impl Decode for DistinguishedName {
    /// Through the reader's intern table, if it carries one (DESIGN.md
    /// §D28). Otherwise it walks the sequence with the checks a `Vec` of
    /// string pairs gets — the count bound, both length bounds and UTF-8
    /// of every string, in that order — and copies the span it walked,
    /// once. A copy rather than a view of the received frame: names
    /// outlive the frame in pending maps, reservation tables, billing and
    /// audit records, and a view would pin a whole frame or pool chunk
    /// per name; a link's table keeps the one copy for every later
    /// request that carries the name.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.interned(walk, |r| {
            let start = r.position();
            for _ in 0..r.get_seq_len()? {
                r.get_str_ref()?;
                r.get_str_ref()?;
            }
            let enc = r.consumed_since(start).into();
            Ok(Self { enc })
        })
    }
}

impl Retained for DistinguishedName {
    fn retained(&self) -> &[u8] {
        &self.enc
    }
}

/// A name's extent, lengths only.
pub(crate) fn walk(r: &mut Reader<'_>) -> Result<(), WireError> {
    (0..2 * u64::from(r.get_u32()?)).try_for_each(|_| r.get_bytes_ref().map(drop))
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
