//! Property tests for the transport layer: sealed frames survive any
//! TCP segmentation, and corrupted or truncated streams are rejected
//! without panics.

use proptest::prelude::*;
use qos_core::channel::{Sealed, SealedRef};
use qos_transport::{
    write_frame, FrameError, OutQueue, PeerMsg, PooledFrameDecoder, MAX_FRAME_LEN,
};
use qos_wire::BufferPool;
use std::collections::VecDeque;

/// The owned frame decoder the reactor ran before the pooled one
/// replaced it, kept here as the reference model the pooled ≡ owned
/// properties compare against: one growing `Vec`, one fresh `Vec` per
/// frame, no pool, no fallback, nothing to get wrong.
struct FrameDecoder {
    buf: Vec<u8>,
    max: usize,
}

impl FrameDecoder {
    fn new(max: usize) -> Self {
        Self {
            buf: Vec::new(),
            max,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `Ok(None)` means more bytes are needed. The length prefix is
    /// validated against the ceiling as soon as it is readable.
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > self.max {
            return Err(FrameError::TooLarge {
                len: len as u64,
                max: self.max,
            });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }

    fn is_idle(&self) -> bool {
        self.buf.is_empty()
    }
}

fn arb_sealed() -> impl Strategy<Value = Sealed> {
    (
        proptest::collection::vec(any::<u8>(), 0..600),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 32..33),
    )
        .prop_map(|(payload, seq, mac_bytes)| {
            let mut mac = [0u8; 32];
            mac.copy_from_slice(&mac_bytes);
            Sealed { payload, seq, mac }
        })
}

/// Encode a batch of sealed frames as one framed byte stream.
fn encode_stream(frames: &[Sealed]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        let body = qos_wire::to_bytes(&PeerMsg::Frame(f.clone()));
        write_frame(&mut out, &body, MAX_FRAME_LEN).unwrap();
    }
    out
}

/// Decode an entire stream with the reference decoder, feeding it in
/// `chunk`-byte pieces and draining after each piece.
fn decode_owned(stream: &[u8], chunk: usize) -> (Vec<Vec<u8>>, bool) {
    let mut d = FrameDecoder::new(MAX_FRAME_LEN);
    let mut got = Vec::new();
    for piece in stream.chunks(chunk) {
        d.push(piece);
        while let Some(f) = d.next_frame().unwrap() {
            got.push(f);
        }
    }
    (got, d.is_idle())
}

/// Decode the same stream with the pooled borrowed decoder under the
/// same segmentation.
fn decode_pooled(stream: &[u8], chunk: usize, pool: &BufferPool) -> (Vec<Vec<u8>>, bool) {
    let mut d = PooledFrameDecoder::new(MAX_FRAME_LEN, pool.clone());
    let mut got = Vec::new();
    for piece in stream.chunks(chunk) {
        d.push(piece);
        while let Some(f) = d.next_frame().unwrap() {
            got.push(f.bytes().to_vec());
        }
    }
    (got, d.is_idle())
}

proptest! {
    /// Sealed frames round-trip through the frame codec regardless of
    /// how the byte stream is cut into read chunks.
    #[test]
    fn sealed_frames_round_trip_any_chunking(
        frames in proptest::collection::vec(arb_sealed(), 1..6),
        chunk in 1usize..64,
    ) {
        let stream = encode_stream(&frames);
        let mut decoder = PooledFrameDecoder::new(MAX_FRAME_LEN, BufferPool::new(2));
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            decoder.push(piece);
            while let Some(body) = decoder.next_frame().unwrap() {
                match qos_wire::from_bytes::<PeerMsg>(body.bytes()).unwrap() {
                    PeerMsg::Frame(s) => got.push(s),
                    other => prop_assert!(false, "unexpected message {:?}", other),
                }
            }
        }
        prop_assert!(decoder.is_idle());
        prop_assert_eq!(got, frames);
    }

    /// Truncating the stream anywhere is detected, never a panic: the
    /// decoder yields only full frames, and is left idle exactly when
    /// the cut fell on a frame boundary.
    #[test]
    fn truncation_detected_without_panic(
        frames in proptest::collection::vec(arb_sealed(), 1..4),
        cut_sel in 0usize..1000,
    ) {
        let stream = encode_stream(&frames);
        let cut = stream.len() * cut_sel / 1000;
        let mut decoder = PooledFrameDecoder::new(MAX_FRAME_LEN, BufferPool::new(2));
        decoder.push(&stream[..cut]);
        let mut consumed = 0usize;
        while let Some(body) = decoder.next_frame().unwrap() {
            // Every completed frame is a prefix-intact original.
            let msg = qos_wire::from_bytes::<PeerMsg>(body.bytes()).unwrap();
            prop_assert!(matches!(msg, PeerMsg::Frame(_)));
            consumed += 4 + body.len();
        }
        prop_assert_eq!(decoder.is_idle(), consumed == cut);
    }

    /// Flipping any byte of the stream never panics the decoder chain;
    /// it either still yields structurally valid `PeerMsg`s or errors.
    #[test]
    fn corruption_never_panics(
        frames in proptest::collection::vec(arb_sealed(), 1..4),
        pos_sel in 0usize..1000,
        xor in 1u8..=255,
    ) {
        let mut stream = encode_stream(&frames);
        let pos = (stream.len() - 1) * pos_sel / 1000;
        stream[pos] ^= xor;
        let mut decoder = PooledFrameDecoder::new(MAX_FRAME_LEN, BufferPool::new(2));
        decoder.push(&stream);
        while let Ok(Some(body)) = decoder.next_frame() {
            let _ = qos_wire::from_bytes::<PeerMsg>(body.bytes());
        }
    }

    /// Arbitrary garbage fed to the decoder never panics and never
    /// yields a frame larger than the ceiling.
    #[test]
    fn garbage_respects_frame_ceiling(
        garbage in proptest::collection::vec(any::<u8>(), 0..400),
        max in 1usize..256,
    ) {
        let mut decoder = PooledFrameDecoder::new(max, BufferPool::new(2));
        decoder.push(&garbage);
        while let Ok(Some(frame)) = decoder.next_frame() {
            prop_assert!(frame.len() <= max);
        }
    }

    /// `pop_batch` agrees with a reference queue of frames: messages
    /// come out in FIFO order, `per_frame` to a frame; a batch takes
    /// whole frames while they fit `max` messages, the first whatever it
    /// holds; and every push is queued.
    #[test]
    fn pop_batch_preserves_fifo_and_policy(
        per_frame in 1usize..4,
        ops in proptest::collection::vec((any::<bool>(), 1usize..6), 1..64),
    ) {
        // One-byte messages behind a data frame's 17-byte header, sealed
        // with 45 bytes of overhead.
        let mut q = OutQueue::new(45 + 17 + per_frame);
        let pop = |q: &mut OutQueue, max| {
            let mut frames = Vec::new();
            q.pop_batch(max, &mut frames);
            frames.iter().map(|f| f[17..].to_vec()).collect::<Vec<_>>()
        };
        // Each queued frame's messages.
        let mut model: VecDeque<Vec<u8>> = VecDeque::new();
        let queued = |model: &VecDeque<Vec<u8>>| model.iter().map(Vec::len).sum::<usize>();
        let model_pop = |model: &mut VecDeque<Vec<u8>>, max| {
            let mut want = Vec::new();
            let mut taken = 0;
            while let Some(frame) = model.front() {
                if taken > 0 && taken + frame.len() > max {
                    break;
                }
                taken += frame.len();
                want.extend(model.pop_front());
            }
            want
        };
        let mut next_id = 0u8;
        for (is_push, arg) in ops {
            if is_push {
                let id = next_id;
                next_id = next_id.wrapping_add(1);
                match model.back_mut() {
                    Some(frame) if frame.len() < per_frame => frame.push(id),
                    _ => model.push_back(vec![id]),
                }
                prop_assert_eq!(q.push(&id), queued(&model));
            } else {
                prop_assert_eq!(pop(&mut q, arg), model_pop(&mut model, arg));
            }
            prop_assert_eq!(q.len(), queued(&model));
        }
        // Drain whatever is left; it must be the model's remainder, in order.
        while !model.is_empty() {
            prop_assert_eq!(pop(&mut q, 3), model_pop(&mut model, 3));
        }
        prop_assert!(q.is_empty());
    }

    /// Borrowed (pooled) decode ≡ owned decode over arbitrary
    /// segmentation: the same frames in the same order, and the two
    /// decoders agree on whether a partial frame is pending at EOF.
    #[test]
    fn pooled_decode_matches_owned_any_chunking(
        frames in proptest::collection::vec(arb_sealed(), 1..6),
        chunk in 1usize..64,
    ) {
        let stream = encode_stream(&frames);
        let pool = BufferPool::new(4);
        prop_assert_eq!(decode_pooled(&stream, chunk, &pool), decode_owned(&stream, chunk));
        prop_assert_eq!(pool.chunks_in_use(), 0, "decoder dropped, chunk returned");
    }

    /// An exhausted pool engages the owned fallback: every frame is
    /// delivered un-pooled, the fallback counter moves, and the decoded
    /// stream is still byte-identical to the reference decoder's.
    #[test]
    fn pool_exhaustion_fallback_matches_owned(
        frames in proptest::collection::vec(arb_sealed(), 1..6),
        chunk in 1usize..64,
    ) {
        let pool = BufferPool::new(1);
        let _hog = pool.acquire().unwrap(); // starve the decoder
        let before = pool.fallbacks();
        let stream = encode_stream(&frames);
        let mut d = PooledFrameDecoder::new(MAX_FRAME_LEN, pool.clone());
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            d.push(piece);
            while let Some(f) = d.next_frame().unwrap() {
                prop_assert!(!f.is_pooled());
                got.push(f.bytes().to_vec());
            }
        }
        prop_assert!(d.fallback_active());
        prop_assert!(pool.fallbacks() > before);
        prop_assert_eq!((got, d.is_idle()), decode_owned(&stream, chunk));
    }

    /// The borrowed `SealedRef` parse agrees field-for-field with the
    /// owned `PeerMsg` decode on every valid frame encoding, including
    /// the trailing-bytes check (`Reader::finish`).
    #[test]
    fn sealed_ref_parse_matches_owned_decode(s in arb_sealed()) {
        let bytes = qos_wire::to_bytes(&PeerMsg::Frame(s.clone()));
        let mut r = qos_wire::Reader::new(&bytes);
        prop_assert_eq!(r.get_u8().unwrap(), 2, "PeerMsg::Frame wire tag");
        let sr = SealedRef::parse(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(sr.payload, &s.payload[..]);
        prop_assert_eq!(sr.seq, s.seq);
        prop_assert_eq!(sr.mac, s.mac);
    }

    /// Arbitrary garbage through the borrowed parse chain never panics.
    #[test]
    fn sealed_ref_never_panics_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut r = qos_wire::Reader::new(&garbage);
        let _ = r
            .get_u8()
            .and_then(|_| SealedRef::parse(&mut r))
            .and_then(|s| r.finish().map(|()| s.seq));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Frames big enough that several span a pooled 64 KiB chunk
    /// boundary (compaction shifts the partial frame to the chunk front
    /// between reads) decode identically to the owned decoder.
    #[test]
    fn chunk_boundary_spans_match_owned(
        sizes in proptest::collection::vec(
            (qos_wire::POOL_CHUNK_SIZE / 4)..(qos_wire::POOL_CHUNK_SIZE / 2),
            3..7,
        ),
        fill in any::<u8>(),
        read in 512usize..16_384,
    ) {
        let mut stream = Vec::new();
        for (i, len) in sizes.iter().enumerate() {
            let body = vec![fill.wrapping_add(i as u8); *len];
            write_frame(&mut stream, &body, MAX_FRAME_LEN).unwrap();
        }
        let pool = BufferPool::new(2);
        prop_assert_eq!(decode_pooled(&stream, read, &pool), decode_owned(&stream, read));
    }
}
