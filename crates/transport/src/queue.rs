//! Per-peer outbound queues that build a link's data frames as messages
//! are queued (DESIGN.md §D27). A message is encoded onto the back frame
//! while that frame is open (unnumbered) and within the cap, or opens a
//! frame of its own; the reactor pops whole frames and seals each at write
//! time, so a frame that waits out a reconnect is sealed by the new
//! session, and a frame requeued from a dead one is numbered and never
//! appended to. The reactor is the only thread that pushes and pops
//! (§D32): a push never waits, and what a queue holds is bounded by the
//! run of inputs the reactor takes between two writes.
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use crate::link::{le_u64, FRAME_DATA, UNNUMBERED};
use crate::proto::SEAL_OVERHEAD;
use qos_wire::Encode;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Largest plaintext a data frame grows to (DESIGN.md §D25): a quarter
/// of a pooled read chunk, ~230 sub-flows or 12 requests.
const MERGE_CAP: usize = 16 * 1024;

/// One queued plaintext frame and the messages in it.
#[derive(Debug)]
struct Frame {
    bytes: Vec<u8>,
    msgs: usize,
}

#[derive(Debug, Default)]
struct Inner {
    q: VecDeque<Frame>,
    /// Messages queued, over all frames.
    msgs: usize,
}

/// A queue of data frames.
#[derive(Debug)]
pub struct OutQueue {
    inner: Mutex<Inner>,
    /// Largest plaintext a push grows a frame to.
    frame_cap: usize,
}

impl OutQueue {
    /// A queue building frames a link whose sealed frames are at most
    /// `max_frame` bytes can carry.
    pub fn new(max_frame: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            frame_cap: MERGE_CAP.min(max_frame.saturating_sub(SEAL_OVERHEAD)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Encode `msg` onto the back frame if it is open and stays within
    /// the cap, else into a new frame. Returns the messages queued now.
    pub fn push<T: Encode>(&self, msg: &T) -> usize {
        qos_wire::with_encoded(msg, |msg| {
            let mut g = self.lock();
            g.msgs += 1;
            match g.q.back_mut() {
                Some(back)
                    if le_u64(&back.bytes[1..9]) == UNNUMBERED
                        && back.bytes.len() + msg.len() <= self.frame_cap =>
                {
                    back.bytes.extend_from_slice(msg);
                    back.msgs += 1;
                }
                _ => {
                    // The frame's one buffer, sealed where it lies and
                    // kept until the peer acknowledges it.
                    let bytes =
                        [&[FRAME_DATA][..], &UNNUMBERED.to_le_bytes(), &[0; 8], msg].concat();
                    g.q.push_back(Frame { bytes, msgs: 1 });
                }
            }
            g.msgs
        })
    }

    /// Requeue a frame at the *front* after a failed write, so a
    /// reconnect never loses it. It counts as one message; numbered, as
    /// every frame a session sealed is, it takes no more.
    pub fn push_front(&self, bytes: Vec<u8>) {
        let mut g = self.lock();
        g.q.push_front(Frame { bytes, msgs: 1 });
        g.msgs += 1;
    }

    /// Move whole frames, oldest first, onto `out` while they hold at
    /// most `max` messages (the first goes whatever it holds). Returns
    /// the messages moved (0: none queued).
    pub fn pop_batch(&self, max: usize, out: &mut Vec<Vec<u8>>) -> usize {
        assert!(max > 0, "a zero-message batch cannot make progress");
        let mut g = self.lock();
        let mut taken = 0;
        while let Some(frame) = g.q.pop_front_if(|f| taken == 0 || taken + f.msgs <= max) {
            taken += frame.msgs;
            out.push(frame.bytes);
        }
        g.msgs -= taken;
        taken
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.lock().msgs
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::DATA_HEADER;
    use proptest::prelude::*;

    /// Room for any frame these tests build.
    const WIDE: usize = 1 << 20;

    /// Pop one batch of at most `max` messages: each frame's message
    /// bytes (one-byte messages here).
    fn pop(q: &OutQueue, max: usize) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        q.pop_batch(max, &mut frames);
        frames.iter().map(|f| f[DATA_HEADER..].to_vec()).collect()
    }

    /// A numbered frame holding `body`, as the link requeues it.
    fn numbered(index: u64, body: &[u8]) -> Vec<u8> {
        let mut frame = vec![FRAME_DATA];
        frame.extend_from_slice(&index.to_le_bytes());
        frame.extend_from_slice(&[0; 8]);
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn fifo_order_preserved() {
        let q = OutQueue::new(WIDE);
        for i in 0..5u8 {
            assert_eq!(q.push(&i), i as usize + 1);
        }
        assert_eq!(pop(&q, 8), [[0, 1, 2, 3, 4]], "one frame");
    }

    /// A batch takes whole frames while they fit `max` messages, and the
    /// first frame whatever it holds.
    #[test]
    fn pop_batch_drains_in_fifo_order_up_to_max() {
        // Two one-byte messages a frame.
        let q = OutQueue::new(SEAL_OVERHEAD + DATA_HEADER + 2);
        for i in 0..5u8 {
            q.push(&i);
        }
        assert_eq!(pop(&q, 3), [vec![0, 1]], "a second frame is 4");
        assert_eq!(pop(&q, 1), [vec![2, 3]], "the first goes whole");
        assert_eq!(pop(&q, 16), [vec![4]]);
        assert_eq!(pop(&q, 16), Vec::<Vec<u8>>::new(), "empty");
    }

    #[test]
    fn a_requeued_frame_goes_in_front_and_nothing_joins_it() {
        let q = OutQueue::new(WIDE);
        q.push(&2u8);
        q.push_front(numbered(0, &[1]));
        assert_eq!(q.len(), 2);
        assert_eq!(pop(&q, 1), [[1]]);
        assert_eq!(pop(&q, 1), [[2]]);
        // Nothing is appended to a numbered frame, even at the back.
        q.push_front(numbered(1, &[3]));
        q.push(&4u8);
        assert_eq!(pop(&q, 8), [[3], [4]]);
    }

    /// Message `id`: its id, then filler up to `len` encoded bytes.
    fn message(id: u32, len: usize) -> Vec<u8> {
        let mut m = id.to_le_bytes().to_vec();
        m.resize(4 + len, id as u8);
        m
    }

    proptest! {
        /// Any interleaving of pushes of messages of any size, requeued
        /// numbered frames and pops, under any frame ceiling: every
        /// message comes out once, in push order and byte-identical,
        /// behind the frames requeued before it was popped; no frame
        /// grows past the cap unless one message is larger; a numbered
        /// frame comes out as it went in; and the bound of a batch and
        /// the queue's length count messages, however they are framed.
        #[test]
        fn frames_keep_order_cap_and_numbering_and_the_bound_counts_messages(
            ops in proptest::collection::vec((0u8..10, 0usize..200), 1..120),
            max_frame in SEAL_OVERHEAD + DATA_HEADER..SEAL_OVERHEAD + DATA_HEADER + 900,
        ) {
            let q = OutQueue::new(max_frame);
            let cap = max_frame - SEAL_OVERHEAD;
            // What the queue holds, front first: a requeued frame, or a
            // pushed message (its encoding).
            let mut model: VecDeque<Result<Vec<u8>, Vec<u8>>> = VecDeque::new();
            let (mut next_id, mut next_index) = (0u32, 0u64);
            for (op, n) in ops {
                match op {
                    // Push a message of `n` bytes.
                    0..=5 => {
                        let msg = message(next_id, n);
                        next_id += 1;
                        model.push_back(Ok(qos_wire::to_bytes(&msg)));
                        prop_assert_eq!(q.push(&msg), model.len());
                    }
                    // A dead connection requeues a numbered frame.
                    6 => {
                        let frame = numbered(next_index, &message(u32::MAX, n));
                        next_index += 1;
                        q.push_front(frame.clone());
                        model.push_front(Err(frame));
                    }
                    // Pop a batch of at most `max` messages.
                    _ => {
                        let max = 1 + n % 8;
                        let mut frames = Vec::new();
                        let taken = q.pop_batch(max, &mut frames);
                        prop_assert!(taken <= max || frames.len() == 1);
                        let mut popped = 0;
                        for frame in &frames {
                            let Some(first) = model.pop_front() else {
                                return Err(TestCaseError::fail("a frame from nothing"));
                            };
                            let first = match first {
                                Err(requeued) => {
                                    prop_assert_eq!(frame, &requeued, "a numbered frame changed");
                                    popped += 1;
                                    continue;
                                }
                                Ok(first) => first,
                            };
                            prop_assert_eq!(&frame[..DATA_HEADER], &numbered(UNNUMBERED, &[])[..]);
                            let mut body = &frame[DATA_HEADER..];
                            let mut next = Some(first);
                            let mut n = 0;
                            while let Some(msg) = next {
                                prop_assert!(body.starts_with(&msg), "out of order");
                                body = &body[msg.len()..];
                                n += 1;
                                next = match model.front() {
                                    Some(Ok(_)) if !body.is_empty() => model.pop_front().and_then(Result::ok),
                                    _ => None,
                                };
                            }
                            prop_assert!(body.is_empty(), "bytes from nowhere");
                            prop_assert!(frame.len() <= cap || n == 1, "{} bytes, {} messages", frame.len(), n);
                            popped += n;
                        }
                        prop_assert_eq!(popped, taken);
                        // What stays behind could not have joined the
                        // last frame: it was numbered, or full.
                        if let (Some(last), Some(Ok(next))) = (frames.last(), model.front()) {
                            prop_assert!(
                                le_u64(&last[1..9]) != UNNUMBERED || last.len() + next.len() > cap,
                                "a message left out of an open frame with room"
                            );
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }
}
