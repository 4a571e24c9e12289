//! # qos-wire — deterministic canonical binary codec
//!
//! Every message in the signalling protocol of *"End-to-End Provision of
//! Policy Information for Network QoS"* (HPDC 2001) is digitally signed by
//! the entity that added it. Signatures are computed over bytes, so the
//! protocol needs a **canonical** encoding: the same value must always
//! serialize to the same byte string, on every platform, in every process.
//!
//! This crate provides that encoding:
//!
//! * fixed-width little-endian integers,
//! * `u32` length-prefixed byte strings and sequences,
//! * single-byte tags for options and enum discriminants,
//! * strict decoding (no trailing bytes, no over-long lengths, UTF-8
//!   validation for strings).
//!
//! The encoding is intentionally simple rather than general: it has no
//! schema evolution story and no self-description, because signed protocol
//! messages must be byte-exact and unambiguous above all else.
//!
//! ## Example
//!
//! ```
//! use qos_wire::{from_bytes, to_bytes};
//!
//! #[derive(Debug, PartialEq)]
//! struct Request { user: String, bandwidth_bps: u64 }
//!
//! qos_wire::impl_wire_struct!(Request { user, bandwidth_bps });
//!
//! let r = Request { user: "alice".into(), bandwidth_bps: 10_000_000 };
//! let bytes = to_bytes(&r);
//! assert_eq!(from_bytes::<Request>(&bytes).unwrap(), r);
//! ```

// Zero-alloc hot-path crate (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec anywhere in qos-wire.
#![deny(clippy::disallowed_methods)]

mod error;
mod impls;
mod intern;
mod macros;
mod pool;
mod reader;
mod shared;
mod writer;

pub use error::WireError;
pub use intern::{InternTables, Retained};
pub use pool::{BufferPool, FrameRef, PoolChunk, POOL_CHUNK_SIZE};
pub use reader::Reader;
pub use shared::SharedBytes;
pub use writer::Writer;

/// A type with a canonical binary encoding.
///
/// Implementations must be **deterministic**: encoding equal values must
/// produce identical byte strings. This property is what makes the encoding
/// usable as the input of digital signatures.
pub trait Encode {
    /// Append the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encode into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// A type that can be decoded from its canonical binary encoding.
pub trait Decode: Sized {
    /// Decode a value from the front of `r`, advancing its position.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Largest scratch buffer a thread keeps between [`with_encoded`] calls;
/// a rare larger value (a ledger snapshot) is encoded into a buffer of
/// its own that is dropped afterwards.
const SCRATCH_KEEP: usize = 64 * 1024;

/// Encode `value` into this thread's scratch buffer and hand the bytes
/// to `f`: no allocation once the buffer has grown to the thread's
/// largest message, where a fresh vector grows from nothing by doubling
/// for every value. An encoder that itself encodes (a nested signed
/// layer) finds the buffer taken and starts from an empty one.
pub fn with_encoded<T: Encode, R>(value: &T, f: impl FnOnce(&[u8]) -> R) -> R {
    thread_local! {
        // Construction-time; every later use reuses the allocation.
        #[allow(clippy::disallowed_methods)]
        static SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
    }
    let mut buf = SCRATCH.take();
    encode_into(value, &mut buf);
    let out = f(&buf);
    if buf.capacity() <= SCRATCH_KEEP {
        buf.clear();
        SCRATCH.set(buf);
    }
    out
}

/// Encode `value` into a fresh byte vector of exactly its length.
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    // The one copy out of the scratch buffer: what the caller keeps is
    // not over-sized by a doubling it did not need.
    #[allow(clippy::disallowed_methods)]
    with_encoded(value, <[u8]>::to_vec)
}

/// Encode `value` onto the end of `buf`, reusing its allocation — the
/// hot-path alternative to [`to_bytes`] for callers that encode many
/// values per pass into one scratch buffer.
pub fn encode_into<T: Encode>(value: &T, buf: &mut Vec<u8>) {
    let mut w = Writer::from_vec(std::mem::take(buf));
    value.encode(&mut w);
    *buf = w.into_bytes();
}

/// Decode a value from `bytes`, requiring that all input is consumed.
///
/// Trailing bytes are an error: a signed message with appended junk must
/// not verify as the original message.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Decode a value from **untrusted** bytes (e.g. a socket frame) with an
/// explicit cap on every length prefix.
///
/// Strict decoding already validates each length against the remaining
/// input before allocating; this variant additionally rejects any single
/// byte-string, string, or sequence claiming more than `max_value_len`
/// elements. Garbage, truncated, or hostile input produces a
/// [`WireError`] — never a panic and never an unbounded allocation.
pub fn from_bytes_limited<T: Decode>(bytes: &[u8], max_value_len: usize) -> Result<T, WireError> {
    let mut r = Reader::new_limited(bytes, max_value_len);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Decode a value from a shared buffer, requiring that all input is
/// consumed.
///
/// Unlike [`from_bytes`], decoders of signed nested messages can retain
/// zero-copy [`SharedBytes`] views of the regions their signatures cover
/// (via [`Reader::shared_span`]), so later verification never re-encodes.
pub fn from_bytes_shared<T: Decode>(bytes: &std::sync::Arc<[u8]>) -> Result<T, WireError> {
    let mut r = Reader::new_shared(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    struct Nested {
        id: u32,
        tags: Vec<String>,
    }
    crate::impl_wire_struct!(Nested { id, tags });

    #[derive(Debug, PartialEq, Clone)]
    enum Verdict {
        Grant,
        Deny { reason: String },
        Defer(u64),
    }
    crate::impl_wire_enum!(Verdict {
        0 => Grant,
        1 => Deny { reason },
        2 => Defer(t0: u64),
    });

    #[test]
    fn struct_round_trip() {
        let v = Nested {
            id: 7,
            tags: vec!["a".into(), "bb".into()],
        };
        assert_eq!(from_bytes::<Nested>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn enum_round_trip_all_variants() {
        for v in [
            Verdict::Grant,
            Verdict::Deny {
                reason: "no SLA".into(),
            },
            Verdict::Defer(99),
        ] {
            assert_eq!(from_bytes::<Verdict>(&to_bytes(&v)).unwrap(), v);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = to_bytes(&42u32);
        b.push(0);
        assert_eq!(from_bytes::<u32>(&b), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_input_rejected() {
        let b = to_bytes(&Nested {
            id: 1,
            tags: vec!["x".into()],
        });
        for cut in 0..b.len() {
            assert!(
                from_bytes::<Nested>(&b[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn unknown_enum_tag_rejected() {
        let b = vec![9u8];
        assert_eq!(from_bytes::<Verdict>(&b), Err(WireError::InvalidTag(9)));
    }

    #[test]
    fn shared_decode_round_trips_and_exposes_spans() {
        let v = Nested {
            id: 7,
            tags: vec!["a".into()],
        };
        let buf: std::sync::Arc<[u8]> = to_bytes(&v).into();
        assert_eq!(from_bytes_shared::<Nested>(&buf).unwrap(), v);

        let mut r = Reader::new_shared(&buf);
        let start = r.position();
        let _ = Nested::decode(&mut r).unwrap();
        let span = r.shared_span(start, r.position()).expect("shared-backed");
        assert_eq!(span.as_slice(), &buf[..]);

        // A plain reader over the same bytes yields no spans.
        let bytes = to_bytes(&v);
        assert!(Reader::new(&bytes).shared_span(0, 0).is_none());
    }

    #[test]
    fn limited_reader_caps_honest_looking_lengths() {
        // A 100-element sequence of unit-size elements fits the input,
        // so the remaining-bytes check alone would admit it; the
        // explicit cap still rejects it.
        let v: Vec<u8> = vec![7; 100];
        let b = to_bytes(&v);
        assert_eq!(from_bytes_limited::<Vec<u8>>(&b, 100).unwrap(), v);
        assert_eq!(
            from_bytes_limited::<Vec<u8>>(&b, 99),
            Err(WireError::LengthOverflow(100))
        );
    }

    #[test]
    fn garbage_and_mutated_input_never_panics() {
        // Deterministic mini-fuzz over a representative nested message:
        // every decode of corrupted input must return an error or a
        // value, never panic or over-allocate.
        let valid = to_bytes(&Nested {
            id: 0xABCD,
            tags: vec!["alpha".into(), "beta".into(), "gamma".into()],
        });
        let mut lcg: u64 = 0x1234_5678_9abc_def0;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as usize
        };
        for _ in 0..2000 {
            let mut m = valid.clone();
            match next() % 3 {
                0 => {
                    // Flip a byte.
                    let i = next() % m.len();
                    m[i] ^= (next() % 255 + 1) as u8;
                }
                1 => {
                    // Truncate.
                    m.truncate(next() % m.len());
                }
                _ => {
                    // Pure garbage of arbitrary length.
                    let len = next() % 64;
                    m = (0..len).map(|_| (next() % 256) as u8).collect();
                }
            }
            let _ = from_bytes_limited::<Nested>(&m, 1 << 16);
            let _ = from_bytes::<Nested>(&m);
            let _ = from_bytes::<Verdict>(&m);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let v = Nested {
            id: 0xDEAD_BEEF,
            tags: vec!["q".into(), "r".into(), "s".into()],
        };
        assert_eq!(to_bytes(&v), to_bytes(&v.clone()));
    }
}
