//! Canonical byte reader.

use crate::{InternTables, SharedBytes, WireError};
use std::sync::Arc;

/// Cursor over an input slice, performing strict canonical decoding.
///
/// A reader may optionally be backed by a reference-counted copy of the
/// same input (see [`Reader::new_shared`]); decoders of signed nested
/// messages use [`Reader::shared_span`] to retain zero-copy views of the
/// exact bytes a signature covers.
#[derive(Debug)]
pub struct Reader<'a> {
    pub(crate) input: &'a [u8],
    pub(crate) pos: usize,
    shared: Option<Arc<[u8]>>,
    /// Upper bound on any single length prefix (bytes, string, or
    /// sequence count). Defaults to the input length — a prefix larger
    /// than the input can never be honest — and can be tightened further
    /// for untrusted socket input via [`Reader::new_limited`].
    pub(crate) max_value_len: usize,
    /// Intern tables the decoders of retained values consult
    /// ([`Reader::interned`]); `None` for a plain reader.
    pub(crate) tables: Option<&'a mut InternTables>,
}

impl<'a> Reader<'a> {
    /// Create a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self {
            input,
            pos: 0,
            shared: None,
            max_value_len: input.len(),
            tables: None,
        }
    }

    /// Create a reader over untrusted `input` with an explicit cap on
    /// every length prefix. Decoding fails with
    /// [`WireError::LengthOverflow`] the moment any byte-string, string,
    /// or sequence claims more than `max_value_len` elements, before any
    /// allocation happens.
    pub fn new_limited(input: &'a [u8], max_value_len: usize) -> Self {
        Self {
            input,
            pos: 0,
            shared: None,
            max_value_len,
            tables: None,
        }
    }

    /// Create a reader over a shared buffer.
    ///
    /// Positions reported by [`Reader::position`] index into this buffer,
    /// so [`Reader::shared_span`] can return sub-slices of it without
    /// copying.
    pub fn new_shared(input: &'a Arc<[u8]>) -> Self {
        Self {
            input,
            pos: 0,
            shared: Some(Arc::clone(input)),
            max_value_len: input.len(),
            tables: None,
        }
    }

    /// Decode through `tables` (DESIGN.md §D28): names and certificates
    /// this reader meets that the tables already hold are shared, not
    /// decoded again.
    pub fn with_tables(mut self, tables: &'a mut InternTables) -> Self {
        self.tables = Some(tables);
        self
    }

    /// A zero-copy view of `start..end` of the input, if this reader is
    /// backed by a shared buffer (`None` for plain [`Reader::new`]
    /// readers). Positions are those reported by [`Reader::position`].
    pub fn shared_span(&self, start: usize, end: usize) -> Option<SharedBytes> {
        self.shared
            .as_ref()
            .map(|buf| SharedBytes::slice_of(Arc::clone(buf), start, end))
    }

    /// The input bytes consumed since `start`, a value
    /// [`Reader::position`] returned earlier: the exact encoding of
    /// whatever was decoded in between, for a decoder that keeps a value
    /// in its canonical form.
    ///
    /// # Panics
    /// If `start` lies beyond the cursor.
    pub fn consumed_since(&self, start: usize) -> &'a [u8] {
        &self.input[start..self.pos]
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Current position within the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Require that the whole input has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof(n - self.remaining()));
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a boolean byte, rejecting values other than 0/1 so that each
    /// value has exactly one encoding.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::InvalidBool(b)),
        }
    }

    /// Read `u32`-length-prefixed bytes.
    ///
    /// The length is validated against the remaining input *before*
    /// allocating, so hostile length prefixes cannot exhaust memory.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        // The deliberate owned fallback behind `get_bytes_ref`.
        #[allow(clippy::disallowed_methods)]
        Ok(self.get_bytes_ref()?.to_vec())
    }

    /// Borrowed view of `u32`-length-prefixed bytes — the zero-copy
    /// sibling of [`Reader::get_bytes`] for hot-path decoders (D15).
    pub fn get_bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        if len > self.max_value_len || len > self.remaining() {
            return Err(WireError::LengthOverflow(len as u64));
        }
        self.take(len)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        Ok(self.get_str_ref()?.to_string())
    }

    /// Borrowed view of a `u32`-length-prefixed UTF-8 string — the
    /// zero-copy sibling of [`Reader::get_str`].
    pub fn get_str_ref(&mut self) -> Result<&'a str, WireError> {
        let bytes = self.get_bytes_ref()?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)
    }

    /// Skip `n` bytes without looking at them (borrowed skip-parsers).
    pub fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }

    /// Read a sequence length prefix, validated against a conservative
    /// lower bound of one byte per element.
    pub fn get_seq_len(&mut self) -> Result<usize, WireError> {
        let len = self.get_u32()? as usize;
        if len > self.max_value_len || len > self.remaining() {
            return Err(WireError::LengthOverflow(len as u64));
        }
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocation() {
        // Claims 4 GiB of payload with 0 bytes present.
        let bytes = u32::MAX.to_le_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.get_bytes(),
            Err(WireError::LengthOverflow(u32::MAX as u64))
        );
    }

    #[test]
    fn bool_rejects_non_canonical_bytes() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.get_bool(), Err(WireError::InvalidBool(2)));
    }

    #[test]
    fn eof_reports_missing_byte_count() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.get_u64(), Err(WireError::UnexpectedEof(6)));
    }
}
