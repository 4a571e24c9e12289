//! Length-prefixed frame codec over byte streams.
//!
//! TCP delivers a byte stream; the signalling protocol exchanges
//! discrete messages. Every frame is a little-endian `u32` length
//! followed by that many payload bytes. Two properties matter for
//! untrusted sockets:
//!
//! * **max-frame enforcement** — the length prefix is validated against
//!   a configured ceiling *before* any allocation, so a hostile peer
//!   cannot claim a 4 GiB frame and exhaust memory;
//! * **partial-read tolerance** — TCP may deliver a frame in any number
//!   of segments (or several frames in one segment).
//!   [`PooledFrameDecoder`] accepts arbitrary chunkings, which is what
//!   the property tests drive.
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use qos_wire::{BufferPool, FrameRef, PoolChunk};
use std::fmt;
use std::io::{self, Write};

/// Default ceiling on one frame's payload: far above any envelope the
/// protocol produces (a depth-30 chain is a few hundred KiB), far below
/// anything that could hurt a broker daemon.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Bytes of frame header (the `u32` length prefix).
pub const FRAME_HEADER_LEN: usize = 4;

/// A frame-layer failure.
#[derive(Debug)]
pub enum FrameError {
    /// A length prefix exceeded the configured maximum frame size.
    TooLarge {
        /// The claimed payload length.
        len: u64,
        /// The configured ceiling.
        max: usize,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds maximum {max}")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame (`u32` length + payload) and flush.
///
/// Header and payload leave in a single `write_all` of one contiguous
/// buffer: a writer that dies mid-call can strand a partial *frame* on
/// the stream (the reader detects truncation), but never a bare header
/// with the sender believing nothing was sent.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::TooLarge {
            len: payload.len() as u64,
            max,
        });
    }
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Read length exposed per [`PooledFrameDecoder::writable`] call in the
/// owned fallback, matching the pooled chunk size.
const OWNED_READ_LEN: usize = qos_wire::POOL_CHUNK_SIZE;

/// Pooled frame decoder (DESIGN.md §D15): feed it byte chunks of any
/// size and drain completed frames.
///
/// * completed frames come out as [`FrameRef`] slices into the buffer,
///   not a fresh `Vec` per frame, and
/// * the socket reads *directly into* the buffer via
///   [`PooledFrameDecoder::writable`] + [`PooledFrameDecoder::advance`]
///   (a copying [`PooledFrameDecoder::push`] is kept for push-style
///   callers and tests).
///
/// Bytes live in one pooled 64 KiB chunk at a time; a partial frame at
/// the chunk's end is moved to the front before the next read. Two
/// conditions fall back to an owned `Vec` (counted by the pool's
/// `buffer_pool_fallbacks_total`): pool exhaustion, and a single frame
/// larger than a whole chunk. Frames from the fallback are delivered
/// through the same `FrameRef` surface, so callers cannot tell the
/// difference — the borrowed-≡-owned proptests pin that.
pub struct PooledFrameDecoder {
    pool: BufferPool,
    chunk: Option<PoolChunk>,
    /// First unconsumed byte in the chunk.
    start: usize,
    /// One past the last filled byte in the chunk.
    end: usize,
    /// When set, `owned[owned_start..owned_len]` holds the pending bytes
    /// and the chunk is idle.
    owned_mode: bool,
    owned: Vec<u8>,
    owned_start: usize,
    owned_len: usize,
    max: usize,
}

impl PooledFrameDecoder {
    /// A decoder enforcing `max` as the frame-size ceiling, drawing its
    /// read buffers from `pool`.
    pub fn new(max: usize, pool: BufferPool) -> Self {
        Self {
            pool,
            chunk: None,
            start: 0,
            end: 0,
            owned_mode: false,
            // The owned-fallback buffer starts empty and only grows
            // if the pool is exhausted or a frame outgrows a chunk.
            #[allow(clippy::disallowed_methods)]
            owned: Vec::new(),
            owned_start: 0,
            owned_len: 0,
            max,
        }
    }

    /// Enforce `max` as the ceiling of every frame not yet taken.
    pub fn set_max(&mut self, max: usize) {
        self.max = max;
    }

    /// Run the buffer-state transitions so a writable region exists:
    /// drain-complete fallback returns to pooled operation, a missing
    /// chunk is acquired (or the fallback engaged on exhaustion), a
    /// partial frame at the chunk end is moved to the front, and a frame
    /// larger than a whole chunk spills to the fallback.
    fn ensure_space(&mut self) {
        if self.owned_mode && self.owned_start == self.owned_len {
            self.owned_mode = false;
            self.owned.clear();
            self.owned_start = 0;
            self.owned_len = 0;
        }
        if !self.owned_mode {
            if self.chunk.is_none() {
                match self.pool.acquire() {
                    Some(c) => {
                        self.chunk = Some(c);
                        self.start = 0;
                        self.end = 0;
                    }
                    None => {
                        self.pool.note_fallback();
                        self.owned_mode = true;
                    }
                }
            }
            if let Some(chunk) = &mut self.chunk {
                if !self.owned_mode {
                    let cap = chunk.as_slice().len();
                    if self.start == self.end {
                        self.start = 0;
                        self.end = 0;
                    }
                    if self.end == cap && self.start > 0 {
                        chunk.as_mut_slice().copy_within(self.start..self.end, 0);
                        self.end -= self.start;
                        self.start = 0;
                    }
                    if self.end == cap {
                        // The pending frame cannot fit in any chunk:
                        // spill it and recycle the chunk.
                        self.pool.note_fallback();
                        self.owned.clear();
                        self.owned
                            .extend_from_slice(&chunk.as_slice()[self.start..self.end]);
                        self.owned_start = 0;
                        self.owned_len = self.owned.len();
                        self.owned_mode = true;
                        self.chunk = None;
                        self.start = 0;
                        self.end = 0;
                    }
                }
            }
        }
        if self.owned_mode {
            if self.owned_start > 0 {
                self.owned.copy_within(self.owned_start..self.owned_len, 0);
                self.owned_len -= self.owned_start;
                self.owned_start = 0;
            }
            if self.owned.len() < self.owned_len + OWNED_READ_LEN {
                self.owned.resize(self.owned_len + OWNED_READ_LEN, 0);
            }
        }
    }

    /// The region the next socket read should land in. Follow with
    /// [`PooledFrameDecoder::advance`] for however many bytes arrived.
    pub fn writable(&mut self) -> &mut [u8] {
        self.ensure_space();
        if !self.owned_mode {
            let end = self.end;
            return &mut self
                .chunk
                .as_mut()
                .expect("pooled mode holds a chunk")
                .as_mut_slice()[end..];
        }
        &mut self.owned[self.owned_len..]
    }

    /// Record that `n` bytes were read into the region returned by the
    /// preceding [`PooledFrameDecoder::writable`] call.
    pub fn advance(&mut self, n: usize) {
        if self.owned_mode {
            self.owned_len += n;
            debug_assert!(self.owned_len <= self.owned.len());
        } else {
            self.end += n;
            debug_assert!(self.end <= self.chunk.as_ref().map_or(0, |c| c.as_slice().len()));
        }
    }

    /// Append received bytes (copying push-style compatibility API).
    pub fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let w = self.writable();
            let k = w.len().min(bytes.len());
            w[..k].copy_from_slice(&bytes[..k]);
            self.advance(k);
            bytes = &bytes[k..];
        }
    }

    /// Pop the next completed frame as a borrowed view, if one is fully
    /// buffered. The returned [`FrameRef`] must be consumed before the
    /// next `writable`/`push`/`next_frame` call (the borrow checker
    /// enforces this), because the underlying bytes may then be
    /// overwritten or compacted.
    pub fn next_frame(&mut self) -> Result<Option<FrameRef<'_>>, FrameError> {
        if self.owned_mode {
            let buf = &self.owned[self.owned_start..self.owned_len];
            if buf.len() < FRAME_HEADER_LEN {
                return Ok(None);
            }
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            if len > self.max {
                return Err(FrameError::TooLarge {
                    len: len as u64,
                    max: self.max,
                });
            }
            if buf.len() < FRAME_HEADER_LEN + len {
                return Ok(None);
            }
            let s = self.owned_start + FRAME_HEADER_LEN;
            self.owned_start += FRAME_HEADER_LEN + len;
            return Ok(Some(FrameRef::fallback(&self.owned[s..s + len])));
        }
        let Some(chunk) = &self.chunk else {
            return Ok(None);
        };
        let buf = &chunk.as_slice()[self.start..self.end];
        if buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if len > self.max {
            return Err(FrameError::TooLarge {
                len: len as u64,
                max: self.max,
            });
        }
        if buf.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let s = self.start + FRAME_HEADER_LEN;
        self.start += FRAME_HEADER_LEN + len;
        Ok(Some(FrameRef::pooled(&chunk.as_slice()[s..s + len])))
    }

    /// True when no partial frame is buffered — the stream may close
    /// cleanly here.
    pub fn is_idle(&self) -> bool {
        if self.owned_mode {
            self.owned_start == self.owned_len
        } else {
            self.start == self.end
        }
    }

    /// Whether the decoder is currently running on the owned fallback
    /// buffer (tests and diagnostics).
    pub fn fallback_active(&self) -> bool {
        self.owned_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(frames: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            write_frame(&mut out, f, MAX_FRAME_LEN).unwrap();
        }
        out
    }

    fn decoder() -> PooledFrameDecoder {
        PooledFrameDecoder::new(MAX_FRAME_LEN, BufferPool::new(2))
    }

    /// The next completed frame, copied out.
    fn next(d: &mut PooledFrameDecoder) -> Option<Vec<u8>> {
        d.next_frame().unwrap().map(|f| f.bytes().to_vec())
    }

    #[test]
    fn round_trip_over_a_stream() {
        let bytes = encode(&[b"alpha", b"", b"gamma-gamma"]);
        let mut d = decoder();
        d.push(&bytes);
        assert_eq!(next(&mut d).unwrap(), b"alpha");
        assert_eq!(next(&mut d).unwrap(), b"");
        assert_eq!(next(&mut d).unwrap(), b"gamma-gamma");
        assert!(next(&mut d).is_none());
        assert!(d.is_idle());
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        // Claims u32::MAX payload bytes with none present.
        let mut d = PooledFrameDecoder::new(1024, BufferPool::new(2));
        d.push(&u32::MAX.to_le_bytes());
        assert!(matches!(d.next_frame(), Err(FrameError::TooLarge { .. })));
        // Writer side refuses symmetric nonsense.
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &[0u8; 2048], 1024),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn truncation_inside_a_frame_is_an_error() {
        // A stream cut inside a frame yields no frame and leaves the
        // decoder holding a partial one: not a clean place to close.
        let bytes = encode(&[b"hello world"]);
        for cut in 1..bytes.len() {
            let mut d = decoder();
            d.push(&bytes[..cut]);
            assert!(next(&mut d).is_none(), "cut at {cut}");
            assert!(!d.is_idle(), "cut at {cut}");
        }
    }

    #[test]
    fn single_byte_reads_tolerated() {
        // One byte at a time — the worst legal TCP segmentation.
        let bytes = encode(&[b"partial", b"reads"]);
        let mut d = decoder();
        let mut got = Vec::new();
        for b in &bytes {
            d.push(std::slice::from_ref(b));
            got.extend(next(&mut d));
        }
        assert_eq!(got, vec![b"partial".to_vec(), b"reads".to_vec()]);
        assert!(d.is_idle());
    }

    /// A writer that counts calls.
    struct CountingWriter {
        data: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.data.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn single_frame_is_one_write_call() {
        // The partial-header regression: header + payload must leave in
        // one write, so a crash between calls cannot strand a header.
        let mut w = CountingWriter {
            data: Vec::new(),
            calls: 0,
        };
        write_frame(&mut w, b"payload", MAX_FRAME_LEN).unwrap();
        assert_eq!(w.calls, 1);
        let mut d = decoder();
        d.push(&w.data);
        assert_eq!(next(&mut d).unwrap(), b"payload");
    }

    #[test]
    fn pooled_decoder_matches_legacy_across_chunking() {
        let frames: Vec<Vec<u8>> = vec![
            b"one".to_vec(),
            Vec::new(),
            vec![7u8; 300],
            b"tail".to_vec(),
        ];
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let bytes = encode(&refs);
        for step in [1usize, 2, 3, 7, 64, bytes.len()] {
            let pool = BufferPool::new(4);
            let mut d = PooledFrameDecoder::new(MAX_FRAME_LEN, pool.clone());
            let mut got: Vec<Vec<u8>> = Vec::new();
            for chunk in bytes.chunks(step) {
                d.push(chunk);
                while let Some(f) = d.next_frame().unwrap() {
                    assert!(f.is_pooled());
                    got.push(f.bytes().to_vec());
                }
            }
            assert_eq!(got, frames, "step {step}");
            assert!(d.is_idle());
            drop(d);
            assert_eq!(pool.chunks_in_use(), 0, "chunk reclaimed on drop");
        }
    }

    #[test]
    fn pooled_decoder_handles_frames_spanning_chunk_boundaries() {
        // Frames sized so several land inside one chunk and one straddles
        // the 64 KiB boundary, forcing the partial-prefix memmove.
        let frames: Vec<Vec<u8>> = (0..5)
            .map(|i| vec![i as u8; qos_wire::POOL_CHUNK_SIZE / 3])
            .collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let bytes = encode(&refs);
        let pool = BufferPool::new(2);
        let mut d = PooledFrameDecoder::new(MAX_FRAME_LEN, pool.clone());
        let mut got = Vec::new();
        for chunk in bytes.chunks(4096) {
            d.push(chunk);
            while let Some(f) = d.next_frame().unwrap() {
                assert!(f.is_pooled());
                got.push(f.bytes().to_vec());
            }
        }
        assert_eq!(got, frames);
        assert_eq!(pool.fallbacks(), 0, "in-chunk frames never fall back");
    }

    #[test]
    fn oversized_frame_spills_to_owned_fallback_and_recovers() {
        // One frame bigger than a whole chunk cannot be pooled: the
        // decoder must spill it to the owned buffer (counted), deliver it
        // intact, and return to pooled operation afterwards.
        let big = vec![0xABu8; qos_wire::POOL_CHUNK_SIZE + 100];
        let frames: Vec<&[u8]> = vec![b"before", &big, b"after"];
        let bytes = encode(&frames);
        let pool = BufferPool::new(2);
        let mut d = PooledFrameDecoder::new(MAX_FRAME_LEN, pool.clone());
        let mut got = Vec::new();
        let mut pooled_flags = Vec::new();
        for chunk in bytes.chunks(8192) {
            d.push(chunk);
            while let Some(f) = d.next_frame().unwrap() {
                pooled_flags.push(f.is_pooled());
                got.push(f.bytes().to_vec());
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[1], big);
        assert_eq!(got[2], b"after");
        assert!(pool.fallbacks() > 0, "the spill must be counted");
        assert!(!pooled_flags[1], "the big frame came from the fallback");
        assert!(
            !d.fallback_active() || d.is_idle(),
            "fallback drains back to pooled operation"
        );
    }

    #[test]
    fn pool_exhaustion_falls_back_to_owned_buffers() {
        let pool = BufferPool::new(0); // nothing to hand out
        let mut d = PooledFrameDecoder::new(MAX_FRAME_LEN, pool.clone());
        let bytes = encode(&[b"still works"]);
        d.push(&bytes);
        let f = d.next_frame().unwrap().expect("frame decodes via fallback");
        assert!(!f.is_pooled());
        assert_eq!(f.bytes(), b"still works");
        assert!(pool.fallbacks() > 0);
    }

    #[test]
    fn pooled_writable_advance_reads_without_copy() {
        // The direct-read surface: write the stream into the decoder's
        // writable regions as a socket would, in awkward sizes.
        let frames: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma"];
        let bytes = encode(&frames);
        let pool = BufferPool::new(2);
        let mut d = PooledFrameDecoder::new(MAX_FRAME_LEN, pool);
        let mut fed = 0usize;
        let mut got = Vec::new();
        while fed < bytes.len() {
            let w = d.writable();
            let k = w.len().min(5).min(bytes.len() - fed);
            w[..k].copy_from_slice(&bytes[fed..fed + k]);
            d.advance(k);
            fed += k;
            while let Some(f) = d.next_frame().unwrap() {
                got.push(f.bytes().to_vec());
            }
        }
        assert_eq!(got, frames.iter().map(|f| f.to_vec()).collect::<Vec<_>>());
    }
}
