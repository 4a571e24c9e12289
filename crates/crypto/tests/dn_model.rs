//! `DistinguishedName` keeps its canonical encoding in one shared
//! allocation (DESIGN.md §D18). These properties hold it to the model it
//! replaced — a vector of `(attribute type, value)` string pairs, kept
//! here — in everything a caller, a peer or a signature can observe.

use proptest::prelude::*;
use qos_crypto::DistinguishedName;
use qos_wire::{Decode, Reader};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What a name was: its derived `Encode`/`Decode`, `Ord` and `Debug`
/// are the reference.
type Model = Vec<(String, String)>;

/// The derived `Debug` of the old type, by giving the model its names.
mod old {
    // Read by the derived `Debug` only, which is the point.
    #![allow(dead_code)]

    #[derive(Debug)]
    pub struct Rdn {
        pub attr: String,
        pub value: String,
    }
    #[derive(Debug)]
    pub struct DistinguishedName {
        pub components: Vec<Rdn>,
    }
}

fn old_debug(m: &Model) -> old::DistinguishedName {
    old::DistinguishedName {
        components: m
            .iter()
            .map(|(a, v)| old::Rdn {
                attr: a.clone(),
                value: v.clone(),
            })
            .collect(),
    }
}

fn name(m: &Model) -> DistinguishedName {
    DistinguishedName::new(m.iter().cloned())
}

fn hash_of(dn: &DistinguishedName) -> u64 {
    let mut h = DefaultHasher::new();
    dn.hash(&mut h);
    h.finish()
}

fn first<'a>(m: &'a Model, attr: &str) -> Option<&'a str> {
    m.iter().find(|(a, _)| a == attr).map(|(_, v)| v.as_str())
}

fn bare(m: &Model) -> Vec<(&str, &str)> {
    m.iter()
        .map(|(a, v)| match a.as_str() {
            "CN" => (a.as_str(), v.split('+').next().unwrap_or("")),
            _ => (a.as_str(), v.as_str()),
        })
        .collect()
}

/// Attribute types: the ones the accessors look for, and anything else
/// (including the empty string and lower case, which are not `CN`).
fn attr() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("CN".to_string()),
        Just("OU".to_string()),
        Just("O".to_string()),
        "[A-Za-z]{0,3}",
    ]
}

/// Values with the separators `Display` and annotation use, and
/// multi-byte UTF-8.
fn value() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 +=,é\u{4e16}]{0,8}"
}

fn model() -> impl Strategy<Value = Model> {
    proptest::collection::vec((attr(), value()), 0..5)
}

/// A second name close to the first: the same, a permutation, a prefix,
/// an extension, one string changed — or unrelated.
fn neighbour(m: &Model, how: u8, other: Model, ix: usize) -> Model {
    let mut n = m.clone();
    match how % 6 {
        0 => {}
        1 => n.reverse(),
        2 => n.truncate(ix % (m.len() + 1)),
        3 => n.extend(other),
        4 if !n.is_empty() => {
            let i = ix % n.len();
            n[i].1.push('x');
        }
        _ => n = other,
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same bytes on the wire as the vector of pairs, and back.
    #[test]
    fn encodes_to_the_bytes_a_vector_of_pairs_did(m in model()) {
        let dn = name(&m);
        let bytes = qos_wire::to_bytes(&dn);
        prop_assert_eq!(&bytes, &qos_wire::to_bytes(&m));
        prop_assert_eq!(dn.encoding(), &bytes[..]);
        let back = qos_wire::from_bytes::<DistinguishedName>(&bytes).unwrap();
        prop_assert_eq!(&back, &dn);
        prop_assert_eq!(qos_wire::to_bytes(&back), bytes);
        prop_assert_eq!(name(&Model::new()), DistinguishedName::default());
    }

    /// `==`, `Ord` and `Hash` are the model's, also between names that
    /// differ only in component order or length.
    #[test]
    fn compares_like_a_vector_of_pairs(
        a in model(),
        other in model(),
        how in any::<u8>(),
        ix in any::<usize>(),
    ) {
        let b = neighbour(&a, how, other, ix);
        let (da, db) = (name(&a), name(&b));
        prop_assert_eq!(da == db, a == b);
        prop_assert_eq!(da.cmp(&db), a.cmp(&b));
        prop_assert_eq!(da.partial_cmp(&db), a.partial_cmp(&b));
        if a == b {
            prop_assert_eq!(hash_of(&da), hash_of(&db));
        }
        // A clone is the same name; so is one that came over the wire.
        let wired = qos_wire::from_bytes::<DistinguishedName>(&qos_wire::to_bytes(&da)).unwrap();
        prop_assert_eq!(hash_of(&da.clone()), hash_of(&wired));
        prop_assert_eq!(da.cmp(&wired), std::cmp::Ordering::Equal);
    }

    /// The text forms and the accessors.
    #[test]
    fn prints_and_reads_like_a_vector_of_pairs(m in model(), marker in "[a-z+]{0,6}") {
        let dn = name(&m);
        let shown: Vec<String> = m.iter().map(|(a, v)| format!("{a}={v}")).collect();
        prop_assert_eq!(dn.to_string(), shown.join(","));
        prop_assert_eq!(format!("{dn:?}"), format!("{:?}", old_debug(&m)));
        prop_assert_eq!(format!("{dn:#?}"), format!("{:#?}", old_debug(&m)));
        prop_assert_eq!(dn.common_name(), first(&m, "CN"));
        prop_assert_eq!(dn.org_unit(), first(&m, "OU"));

        let annotated: Model = m
            .iter()
            .map(|(a, v)| match a.as_str() {
                "CN" => (a.clone(), format!("{v}+{marker}")),
                _ => (a.clone(), v.clone()),
            })
            .collect();
        prop_assert_eq!(&dn.annotated(&marker), &name(&annotated));
        prop_assert_eq!(qos_wire::to_bytes(&dn.annotated(&marker)), qos_wire::to_bytes(&annotated));
        prop_assert!(dn.same_principal(&dn.annotated(&marker)));
        prop_assert!(dn.annotated(&marker).same_principal(&dn));
    }

    /// `same_principal` is the model's comparison of bare components.
    #[test]
    fn same_principal_like_a_vector_of_pairs(
        a in model(),
        other in model(),
        how in any::<u8>(),
        ix in any::<usize>(),
    ) {
        let b = neighbour(&a, how, other, ix);
        prop_assert_eq!(name(&a).same_principal(&name(&b)), bare(&a) == bare(&b));
    }

    /// Every truncation, and every byte overwritten (lengths, counts and
    /// string bytes alike — `0xff` is never valid UTF-8), decodes to what
    /// the vector of pairs decoded to: the same name or the same error.
    #[test]
    fn rejects_what_a_vector_of_pairs_rejected(m in model(), junk in any::<u8>()) {
        let bytes = qos_wire::to_bytes(&m);
        let agree = |input: &[u8]| {
            let new = qos_wire::from_bytes::<DistinguishedName>(input).map(|d| qos_wire::to_bytes(&d));
            let old = qos_wire::from_bytes::<Model>(input).map(|v| qos_wire::to_bytes(&v));
            (new == old).then_some(()).ok_or((new, old))
        };
        for cut in 0..bytes.len() {
            prop_assert_eq!(agree(&bytes[..cut]), Ok(()), "cut at {}", cut);
            prop_assert!(qos_wire::from_bytes::<DistinguishedName>(&bytes[..cut]).is_err());
        }
        for at in 0..bytes.len() {
            for b in [0xff, junk] {
                let mut mutated = bytes.clone();
                mutated[at] = b;
                prop_assert_eq!(agree(&mutated), Ok(()), "byte {} set to {:#x}", at, b);
            }
        }
    }

    /// Under a cap on every length prefix the two fail alike — on an
    /// oversized count as on an oversized string — and a success leaves
    /// the reader where the vector of pairs left it.
    #[test]
    fn honours_the_readers_limit_and_position(m in model(), limit in 0usize..12, tail in 0usize..3) {
        let mut bytes = qos_wire::to_bytes(&m);
        bytes.extend(std::iter::repeat_n(7u8, tail));
        let mut new = Reader::new_limited(&bytes, limit);
        let mut old = Reader::new_limited(&bytes, limit);
        let decoded = DistinguishedName::decode(&mut new);
        let expected = Model::decode(&mut old);
        prop_assert_eq!(decoded.as_ref().map(|d| d.encoding().to_vec()), expected.as_ref().map(qos_wire::to_bytes));
        if decoded.is_ok() {
            prop_assert_eq!(new.position(), old.position());
            prop_assert_eq!(new.remaining(), tail);
        }
    }
}
