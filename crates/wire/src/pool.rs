//! Pooled read buffers for the transport hot path (DESIGN.md §D15).
//!
//! The warm admit/deny round trip used to pay one heap allocation per
//! frame just to *hold bytes that already existed*: the socket read
//! landed in a stack buffer, was copied into the decoder's `Vec`, and
//! each completed frame was copied out into a fresh `Vec`. A
//! [`BufferPool`] replaces that with a ring of reusable 64 KiB chunks:
//! the socket reads straight into the current chunk, completed frames
//! are handed out as [`FrameRef`] slices *into* the chunk, and the chunk
//! returns to the pool when its handle drops.
//!
//! ## Lifecycle and borrow rules
//!
//! * A chunk is exclusively owned by whoever holds its [`PoolChunk`]
//!   handle (one per connection decoder); the pool itself is
//!   reference-counted, so reclaim is just "handle dropped → chunk back
//!   on the free list".
//! * Frames borrow from the chunk (`FrameRef<'a>`), so the borrow
//!   checker statically guarantees a frame is fully consumed before the
//!   decoder may overwrite or recycle the bytes — there is no runtime
//!   refcount per frame to get wrong.
//! * Anything that must outlive the sweep (e.g. a message crossing to the
//!   broker's queue) is copied out explicitly; the fast path never is.
//!
//! ## Owned fallback
//!
//! Pooling is an optimization, never a correctness requirement. The
//! decoder falls back to a plain owned `Vec` — bumping
//! `buffer_pool_fallbacks_total` — when (a) the pool is exhausted
//! (`max_chunks` handles outstanding) or (b) a single frame is too large
//! to ever fit in one chunk. Fallback frames still come out as
//! [`FrameRef`]s, so callers cannot observe the difference (the
//! borrowed-≡-owned proptests pin this).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Size of one pooled chunk. 64 KiB matches the read size the reactor
/// has always used per `read(2)` call, and comfortably holds a sweep's
/// worth of typical signalling frames (a depth-8 envelope is ~4 KiB).
pub const POOL_CHUNK_SIZE: usize = 64 * 1024;

struct PoolShared {
    free: Mutex<Vec<Box<[u8]>>>,
    max_chunks: usize,
    in_use: AtomicUsize,
    fallbacks: AtomicU64,
}

/// A process- or reactor-scoped ring of reusable read chunks.
///
/// Cloning is cheap (`Arc` bump); all clones share the same free list
/// and counters.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// A pool that will hand out at most `max_chunks` chunks at a time.
    pub fn new(max_chunks: usize) -> Self {
        // One-time construction; chunks themselves are recycled.
        #[allow(clippy::disallowed_methods)]
        BufferPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::new()),
                max_chunks,
                in_use: AtomicUsize::new(0),
                fallbacks: AtomicU64::new(0),
            }),
        }
    }

    /// Take a chunk, reusing a reclaimed one when available. Returns
    /// `None` when `max_chunks` handles are already outstanding — the
    /// caller must fall back to an owned buffer (and should call
    /// [`BufferPool::note_fallback`]).
    pub fn acquire(&self) -> Option<PoolChunk> {
        let s = &self.shared;
        // Reserve a slot first so concurrent acquires cannot overshoot.
        let mut held = s.in_use.load(Ordering::Relaxed);
        loop {
            if held >= s.max_chunks {
                return None;
            }
            match s.in_use.compare_exchange_weak(
                held,
                held + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => held = cur,
            }
        }
        let recycled = s.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let buf = recycled.unwrap_or_else(|| vec![0u8; POOL_CHUNK_SIZE].into_boxed_slice());
        Some(PoolChunk {
            buf,
            shared: Arc::clone(s),
        })
    }

    /// Chunks currently handed out (the `buffer_pool_chunks_in_use`
    /// gauge).
    pub fn chunks_in_use(&self) -> usize {
        self.shared.in_use.load(Ordering::Relaxed)
    }

    /// Times a caller had to fall back to an owned buffer (the
    /// `buffer_pool_fallbacks_total` counter).
    pub fn fallbacks(&self) -> u64 {
        self.shared.fallbacks.load(Ordering::Relaxed)
    }

    /// Record one owned-buffer fallback.
    pub fn note_fallback(&self) {
        self.shared.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Exclusive handle to one pooled chunk. Dropping it returns the chunk
/// to its pool's free list.
pub struct PoolChunk {
    buf: Box<[u8]>,
    shared: Arc<PoolShared>,
}

impl PoolChunk {
    /// The chunk's bytes (always [`POOL_CHUNK_SIZE`] long).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Mutable access for the socket read path.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Drop for PoolChunk {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        let s = &self.shared;
        s.free.lock().unwrap_or_else(|e| e.into_inner()).push(buf);
        s.in_use.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A decoded frame, borrowed from wherever its bytes already live — a
/// pooled chunk on the fast path, the decoder's owned fallback buffer
/// otherwise. Replaces the per-frame `Vec` the legacy decoder returned.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    bytes: &'a [u8],
    pooled: bool,
}

impl<'a> FrameRef<'a> {
    /// A frame view into a pooled chunk.
    pub fn pooled(bytes: &'a [u8]) -> Self {
        FrameRef {
            bytes,
            pooled: true,
        }
    }

    /// A frame view into an owned fallback buffer.
    pub fn fallback(bytes: &'a [u8]) -> Self {
        FrameRef {
            bytes,
            pooled: false,
        }
    }

    /// The frame payload (without the length prefix).
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Whether the bytes live in a pooled chunk (`false` means the
    /// owned fallback produced this frame).
    pub fn is_pooled(&self) -> bool {
        self.pooled
    }
}

impl AsRef<[u8]> for FrameRef<'_> {
    fn as_ref(&self) -> &[u8] {
        self.bytes
    }
}

impl std::ops::Deref for FrameRef<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_recycle_through_the_free_list() {
        let pool = BufferPool::new(2);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert_eq!(pool.chunks_in_use(), 2);
        assert!(pool.acquire().is_none(), "pool exhausted at max_chunks");
        drop(a);
        assert_eq!(pool.chunks_in_use(), 1);
        let c = pool.acquire().expect("reclaimed chunk available again");
        assert_eq!(c.as_slice().len(), POOL_CHUNK_SIZE);
        drop(b);
        drop(c);
        assert_eq!(pool.chunks_in_use(), 0);
    }

    #[test]
    fn fallbacks_are_counted() {
        let pool = BufferPool::new(0);
        assert!(pool.acquire().is_none());
        pool.note_fallback();
        pool.note_fallback();
        assert_eq!(pool.fallbacks(), 2);
    }

    #[test]
    fn clones_share_state() {
        let pool = BufferPool::new(1);
        let clone = pool.clone();
        let _held = pool.acquire().unwrap();
        assert!(clone.acquire().is_none());
        assert_eq!(clone.chunks_in_use(), 1);
    }
}
