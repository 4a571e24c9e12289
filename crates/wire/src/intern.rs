//! Bounded decode-side intern tables (DESIGN.md §D28): a reader that
//! carries [`InternTables`] shares a value whose bytes a table holds
//! instead of decoding it again. Whoever decodes (one link) owns its
//! tables, so a hostile peer churns only its own.

use crate::{Reader, WireError};
use std::any::Any;

/// A decoded value that keeps its canonical encoding: equal encodings,
/// equal values.
pub trait Retained: Clone + Send + 'static {
    /// The exact bytes the value was decoded from.
    fn retained(&self) -> &[u8];

    /// The part of an encoding a table hashes to pick its set: all of
    /// it, unless a shorter part tells values apart.
    fn hashed(encoding: &[u8]) -> &[u8] {
        encoding
    }
}

/// Slots per set, kept most recently used first.
const WAYS: usize = 4;
/// Misses in a row after which a table decodes before it looks.
const BACK_OFF: u32 = 8;

struct Interned<T> {
    slots: Box<[Option<T>]>,
    misses: u32,
}

impl<T: Retained> Interned<T> {
    /// The set `encoding` is filed in: a multiplicative hash of its
    /// length and hashed part, high half (a multiply mixes upwards).
    fn set(&mut self, encoding: &[u8]) -> &mut [Option<T>] {
        let hash = T::hashed(encoding)
            .chunks(8)
            .fold(encoding.len() as u64, |h, w| {
                let mut word = [0; 8];
                word[..w.len()].copy_from_slice(w);
                (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95)
            });
        let at = (hash >> 32) as usize % (self.slots.len() / WAYS) * WAYS;
        &mut self.slots[at..at + WAYS]
    }

    /// A shared copy of the value encoded as `encoding`, if held.
    fn get(&mut self, encoding: &[u8]) -> Option<T> {
        let set = self.set(encoding);
        let at = set
            .iter()
            .position(|s| s.as_ref().is_some_and(|v| v.retained() == encoding))?;
        set[..=at].rotate_right(1);
        let held = set[0].clone();
        self.misses = 0;
        held
    }

    /// `value`, decoded from `encoding`, filed in place of the least
    /// recently used of its set — or the one held already.
    fn file(&mut self, encoding: &[u8], value: T) -> T {
        if let Some(held) = self.get(encoding) {
            return held;
        }
        self.misses = self.misses.saturating_add(1);
        let set = self.set(encoding);
        set.rotate_right(1);
        set[0] = Some(value.clone());
        value
    }
}

/// One decoder's intern tables, at most one per [`Retained`] type.
#[derive(Debug, Default)]
pub struct InternTables(Vec<Box<dyn Any + Send>>);

impl InternTables {
    /// Add a table of `capacity` values of `T`, in sets of four.
    pub fn with<T: Retained>(mut self, capacity: usize) -> Self {
        let slots = (0..capacity.next_multiple_of(WAYS).max(WAYS)).map(|_| None);
        let misses = 0;
        self.0.push(Box::new(Interned::<T> {
            slots: slots.collect(),
            misses,
        }));
        self
    }

    /// Values of `T` held now.
    pub fn held<T: Retained>(&self) -> usize {
        let table = self.0.iter().find_map(|t| t.downcast_ref::<Interned<T>>());
        table.map_or(0, |t| t.slots.iter().flatten().count())
    }
}

impl<'a> Reader<'a> {
    /// Decode a `T` through this reader's table for it, if any; else by
    /// `decode`. `walk` finds the value's extent, checking lengths only,
    /// on a look-ahead copy; a held value with exactly those bytes, no
    /// longer than this reader's bound on a length (so none inside them
    /// is), is the result. Otherwise `decode` runs with the tables set
    /// aside — its errors read as without them, and nothing inside the
    /// value is filed — and its result is filed under the bytes it
    /// consumed. After [`BACK_OFF`] misses in a row a table decodes
    /// first and looks after, until it hits.
    pub fn interned<T: Retained>(
        &mut self,
        walk: impl FnOnce(&mut Reader<'a>) -> Result<(), WireError>,
        decode: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let Some(tables) = self.tables.take() else {
            return decode(self);
        };
        let (input, start) = (self.input, self.pos);
        let result = match tables
            .0
            .iter_mut()
            .find_map(|t| t.downcast_mut::<Interned<T>>())
        {
            None => decode(self),
            Some(table) => {
                let mut ahead = Reader::new_limited(&input[start..], self.max_value_len);
                let look = table.misses < BACK_OFF && walk(&mut ahead).is_ok();
                let held = (look && ahead.pos <= self.max_value_len)
                    .then(|| table.get(&input[start..start + ahead.pos]))
                    .flatten();
                match held {
                    Some(value) => {
                        self.pos += ahead.pos;
                        Ok(value)
                    }
                    None => decode(self).map(|value| table.file(&input[start..self.pos], value)),
                }
            }
        };
        self.tables = Some(tables);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{to_bytes, Decode};
    use std::sync::Arc;

    /// A string that keeps its encoding, as the crypto crate's names do.
    #[derive(Clone, Debug, PartialEq)]
    struct Name(Arc<[u8]>);

    impl Retained for Name {
        fn retained(&self) -> &[u8] {
            &self.0
        }
    }

    fn decode_name(r: &mut Reader<'_>) -> Result<Name, WireError> {
        r.interned(
            |r| r.get_bytes_ref().map(drop),
            |r| {
                let start = r.position();
                r.get_str_ref()?;
                Ok(Name(r.consumed_since(start).into()))
            },
        )
    }

    #[test]
    fn a_hit_shares_the_value_and_advances_the_reader() {
        let mut tables = InternTables::default().with::<Name>(8);
        let bytes = [to_bytes(&"alpha".to_string()), to_bytes(&7u32)].concat();
        let first = decode_name(&mut Reader::new(&bytes).with_tables(&mut tables)).unwrap();
        let mut r = Reader::new(&bytes).with_tables(&mut tables);
        let again = decode_name(&mut r).unwrap();
        assert!(Arc::ptr_eq(&first.0, &again.0));
        assert_eq!(u32::decode(&mut r), Ok(7));
        assert_eq!(tables.held::<Name>(), 1);
    }

    #[test]
    fn a_decode_error_reads_as_without_a_table() {
        // Valid lengths, invalid UTF-8: the walk passes, the decode
        // refuses, and nothing is filed.
        let bad = [1, 0, 0, 0, 0xff];
        let mut tables = InternTables::default().with::<Name>(8);
        let with = decode_name(&mut Reader::new(&bad).with_tables(&mut tables));
        assert_eq!(with, decode_name(&mut Reader::new(&bad)));
        assert_eq!(with, Err(WireError::InvalidUtf8));
        assert_eq!(tables.held::<Name>(), 0);
    }

    #[test]
    fn a_table_stays_within_its_bound() {
        let mut tables = InternTables::default().with::<Name>(16);
        for i in 0..1000 {
            let bytes = to_bytes(&format!("name-{i}"));
            decode_name(&mut Reader::new(&bytes).with_tables(&mut tables)).unwrap();
        }
        assert_eq!(tables.held::<Name>(), 16);
    }
}
