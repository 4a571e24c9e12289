//! Typed attribute values and attribute sets.
//!
//! The paper requires the propagation protocol to "handle simple
//! attribute-value pairs which might be signed by the assigning entity".
//! Attributes are the lingua franca between requests, policies, and the
//! "modified request" a policy server hands back.

use qos_wire::{Decode, Encode, Reader, WireError, Writer};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string, e.g. a user or domain name.
    Str(String),
    /// A signed integer (counts, identifiers, costs).
    Int(i64),
    /// Bandwidth in bits per second.
    Bandwidth(u64),
    /// Time of day in minutes since midnight (policies like Figure 6's
    /// "If Time > 8am and Time < 5pm" compare these).
    TimeOfDay(u32),
    /// A boolean.
    Bool(bool),
    /// A multi-valued attribute, e.g. the set of groups a user belongs to.
    List(Vec<Value>),
}

qos_wire::impl_wire_enum!(Value {
    0 => Str(t0: String),
    1 => Int(t0: i64),
    2 => Bandwidth(t0: u64),
    3 => TimeOfDay(t0: u32),
    4 => Bool(t0: bool),
    5 => List(t0: Vec<Value>),
});

impl Value {
    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "int",
            Value::Bandwidth(_) => "bandwidth",
            Value::TimeOfDay(_) => "time-of-day",
            Value::Bool(_) => "bool",
            Value::List(_) => "list",
        }
    }

    /// Truthiness: the value a bare expression has in `if` position.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Bandwidth(b) => *b != 0,
            Value::Str(s) => !s.is_empty(),
            Value::TimeOfDay(_) => true,
            Value::List(l) => !l.is_empty(),
        }
    }

    /// Numeric comparison across `Int`/`Bandwidth` (common in policies
    /// that compare a request's `BW` against a literal).
    pub fn partial_cmp_num(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.partial_cmp(b),
            (Bandwidth(a), Bandwidth(b)) => a.partial_cmp(b),
            (Int(a), Bandwidth(b)) => (*a as i128).partial_cmp(&(*b as i128)),
            (Bandwidth(a), Int(b)) => (*a as i128).partial_cmp(&(*b as i128)),
            (TimeOfDay(a), TimeOfDay(b)) => a.partial_cmp(b),
            _ => None,
        }
    }

    /// Policy equality. Strings compare case-insensitively (the paper's
    /// figures freely mix `Alice`/`alice` style identifiers); a list on
    /// either side means membership.
    pub fn policy_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Str(a), Str(b)) => a.eq_ignore_ascii_case(b),
            (List(items), v) | (v, List(items)) => items.iter().any(|i| i.policy_eq(v)),
            (a, b) => {
                a == b
                    || a.partial_cmp_num(b)
                        .is_some_and(|o| o == std::cmp::Ordering::Equal)
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bandwidth(b) => {
                if b % 1_000_000 == 0 {
                    write!(f, "{}Mb/s", b / 1_000_000)
                } else {
                    write!(f, "{b}bps")
                }
            }
            Value::TimeOfDay(m) => write!(f, "{:02}:{:02}", m / 60, m % 60),
            Value::Bool(b) => write!(f, "{b}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// An ordered attribute map (deterministic iteration keeps signed
/// encodings canonical). Keys are stored lowercase; a key that is a
/// lowercase literal — every key the brokers themselves set — is
/// borrowed, not copied.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributeSet {
    map: BTreeMap<Cow<'static, str>, Value>,
}

fn has_upper(key: &str) -> bool {
    key.bytes().any(|b| b.is_ascii_uppercase())
}

/// `key` in the case it is stored and looked up under, allocating only
/// when it has an uppercase letter to fold.
fn folded(key: &str) -> Cow<'_, str> {
    if has_upper(key) {
        Cow::Owned(key.to_ascii_lowercase())
    } else {
        Cow::Borrowed(key)
    }
}

impl AttributeSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace an attribute.
    pub fn set(&mut self, key: impl Into<Cow<'static, str>>, value: Value) -> &mut Self {
        let mut key = key.into();
        if has_upper(&key) {
            key = Cow::Owned(key.to_ascii_lowercase());
        }
        self.map.insert(key, value);
        self
    }

    /// Builder-style insert.
    pub fn with(mut self, key: impl Into<Cow<'static, str>>, value: Value) -> Self {
        self.set(key, value);
        self
    }

    /// Look up an attribute (case-insensitive key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.map.get(&*folded(key))
    }

    /// Remove an attribute.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.map.remove(&*folded(key))
    }

    /// Merge `other` into `self`, with `other` winning conflicts. This is
    /// how a policy server's attachments extend a request as it travels.
    pub fn merge(&mut self, other: &AttributeSet) {
        for (k, v) in &other.map {
            self.map.insert(k.clone(), v.clone());
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.map.iter().map(|(k, v)| (&**k, v))
    }
}

impl Encode for AttributeSet {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.map.len() as u32);
        for (k, v) in &self.map {
            w.put_str(k);
            v.encode(w);
        }
    }
}

impl Decode for AttributeSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_seq_len()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = r.get_str()?;
            let v = Value::decode(r)?;
            map.insert(Cow::Owned(k), v);
        }
        Ok(Self { map })
    }
}

/// Convenience constructors for bandwidth values.
pub mod bw {
    use super::Value;

    /// `n` kilobits per second.
    pub fn kbps(n: u64) -> Value {
        Value::Bandwidth(n * 1_000)
    }

    /// `n` megabits per second.
    pub fn mbps(n: u64) -> Value {
        Value::Bandwidth(n * 1_000_000)
    }

    /// `n` gigabits per second.
    pub fn gbps(n: u64) -> Value {
        Value::Bandwidth(n * 1_000_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_equality_is_case_insensitive() {
        assert!(Value::Str("Alice".into()).policy_eq(&Value::Str("alice".into())));
        assert!(!Value::Str("Alice".into()).policy_eq(&Value::Str("Bob".into())));
    }

    #[test]
    fn list_equality_means_membership() {
        let groups = Value::List(vec![Value::Str("atlas".into()), Value::Str("cms".into())]);
        assert!(groups.policy_eq(&Value::Str("ATLAS".into())));
        assert!(Value::Str("cms".into()).policy_eq(&groups));
        assert!(!groups.policy_eq(&Value::Str("babar".into())));
    }

    #[test]
    fn numeric_comparison_across_types() {
        use std::cmp::Ordering::*;
        assert_eq!(
            Value::Int(10).partial_cmp_num(&Value::Bandwidth(10)),
            Some(Equal)
        );
        assert_eq!(
            Value::Bandwidth(5_000_000).partial_cmp_num(&bw::mbps(10)),
            Some(Less)
        );
        assert_eq!(Value::Str("x".into()).partial_cmp_num(&Value::Int(1)), None);
    }

    #[test]
    fn attribute_keys_are_case_insensitive() {
        let mut a = AttributeSet::new();
        a.set("BW", bw::mbps(10));
        assert_eq!(a.get("bw"), Some(&bw::mbps(10)));
        assert_eq!(a.get("Bw"), Some(&bw::mbps(10)));
    }

    #[test]
    fn merge_overwrites() {
        let mut a = AttributeSet::new()
            .with("x", Value::Int(1))
            .with("y", Value::Int(2));
        let b = AttributeSet::new()
            .with("y", Value::Int(9))
            .with("z", Value::Int(3));
        a.merge(&b);
        assert_eq!(a.get("x"), Some(&Value::Int(1)));
        assert_eq!(a.get("y"), Some(&Value::Int(9)));
        assert_eq!(a.get("z"), Some(&Value::Int(3)));
    }

    #[test]
    fn wire_round_trip() {
        let a = AttributeSet::new()
            .with("user", Value::Str("alice".into()))
            .with("bw", bw::mbps(10))
            .with("groups", Value::List(vec![Value::Str("atlas".into())]))
            .with("t", Value::TimeOfDay(9 * 60))
            .with("ok", Value::Bool(true));
        let bytes = qos_wire::to_bytes(&a);
        assert_eq!(qos_wire::from_bytes::<AttributeSet>(&bytes).unwrap(), a);
    }

    #[test]
    fn display_formats() {
        assert_eq!(bw::mbps(10).to_string(), "10Mb/s");
        assert_eq!(Value::TimeOfDay(8 * 60 + 5).to_string(), "08:05");
    }
}
