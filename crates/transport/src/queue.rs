//! Bounded per-peer outbound queues that build a link's data frames as
//! messages are queued (DESIGN.md §D27). A message is encoded onto the
//! back frame while that frame is open (unnumbered) and within the cap,
//! or opens a frame of its own; the reactor pops whole frames and seals
//! each at write time, so a frame that waits out a reconnect is sealed
//! by the new session, and a frame requeued from a dead one is numbered
//! and never appended to. The bound counts messages, and a push at the
//! bound waits for the reactor: a lost message would leak the holds it
//! was to confirm or release. Only such a producer sleeps on the
//! condition variable; `try_pop_batch` and `close` signal it (§D20).
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use crate::link::{le_u64, FRAME_DATA, UNNUMBERED};
use crate::proto::SEAL_OVERHEAD;
use qos_wire::Encode;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Largest plaintext a data frame grows to (DESIGN.md §D25): a quarter
/// of a pooled read chunk, ~230 sub-flows or 12 requests.
const MERGE_CAP: usize = 16 * 1024;

/// Outcome of a push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Message queued; this many messages are queued now.
    Queued(usize),
    /// At the bound: nothing queued (`try_push` only).
    Full,
    /// Queue closed; message discarded.
    Closed,
}

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
    closed: bool,
    /// Producers asleep in [`OutQueue::push`] on a full queue.
    waiting: usize,
}

/// A bounded MPSC queue of data frames; a full queue blocks its
/// producers.
#[derive(Debug)]
pub struct OutQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
    /// Largest plaintext a push grows a frame to.
    frame_cap: usize,
}

impl OutQueue {
    /// A queue holding at most `capacity` messages, in frames a link
    /// whose sealed frames are at most `max_frame` bytes can carry.
    pub fn new(capacity: usize, max_frame: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue cannot make progress");
        Self {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            capacity,
            frame_cap: MERGE_CAP.min(max_frame.saturating_sub(SEAL_OVERHEAD)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Encode `msg` onto the back frame if it is open and stays within
    /// the cap, else into a new frame, while fewer than `bound` messages
    /// are queued; at the bound, wait if `wait`, else say `Full`.
    fn enqueue<T: Encode>(&self, msg: &T, bound: usize, wait: bool) -> PushOutcome {
        qos_wire::with_encoded(msg, |msg| {
            let mut g = self.lock();
            while wait && !g.closed && g.msgs >= bound {
                g.waiting += 1;
                g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                g.waiting -= 1;
            }
            if g.closed {
                return PushOutcome::Closed;
            } else if g.msgs >= bound {
                return PushOutcome::Full;
            }
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
            PushOutcome::Queued(g.msgs)
        })
    }

    /// Enqueue a message, waiting while the queue is full (lossless).
    /// Never [`PushOutcome::Full`].
    pub fn push<T: Encode>(&self, msg: &T) -> PushOutcome {
        self.enqueue(msg, self.capacity, true)
    }

    /// Enqueue without waiting: a full queue says [`PushOutcome::Full`].
    /// For the worker's sink, which wakes the consumer before it waits.
    pub fn try_push<T: Encode>(&self, msg: &T) -> PushOutcome {
        self.enqueue(msg, self.capacity, false)
    }

    /// Enqueue past the bound, never waiting: for the consumer's own
    /// thread, which would otherwise wait for itself (DESIGN.md §D20).
    pub fn push_unbounded<T: Encode>(&self, msg: &T) -> PushOutcome {
        self.enqueue(msg, usize::MAX, false)
    }

    /// Requeue a frame at the *front* after a failed write, past the
    /// bound, so a reconnect never loses it. It counts as one message;
    /// numbered, as every frame a session sealed is, it takes no more.
    pub fn push_front(&self, bytes: Vec<u8>) {
        let mut g = self.lock();
        g.q.push_front(Frame { bytes, msgs: 1 });
        g.msgs += 1;
    }

    /// The reactor's drain, never blocking: move whole frames, oldest
    /// first, onto `out` while they hold at most `max` messages (the first
    /// goes whatever it holds). Returns the messages moved (0: none
    /// queued), or `None` once the queue was closed.
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<Vec<u8>>) -> Option<usize> {
        assert!(max > 0, "a zero-message batch cannot make progress");
        let mut g = self.lock();
        if g.closed {
            return None;
        }
        let mut taken = 0;
        while let Some(frame) = g.q.pop_front_if(|f| taken == 0 || taken + f.msgs <= max) {
            taken += frame.msgs;
            out.push(frame.bytes);
        }
        g.msgs -= taken;
        if taken > 0 && g.waiting > 0 {
            self.cv.notify_all();
        }
        Some(taken)
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.lock().msgs
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: pending and future messages are discarded,
    /// blocked producers wake immediately.
    pub fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        g.q.clear();
        g.msgs = 0;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::DATA_HEADER;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Room for any frame these tests build.
    const WIDE: usize = 1 << 20;

    /// Pop one batch of at most `max` messages: each frame's message
    /// bytes (one-byte messages here).
    fn pop(q: &OutQueue, max: usize) -> Option<Vec<Vec<u8>>> {
        let mut frames = Vec::new();
        q.try_pop_batch(max, &mut frames)?;
        Some(frames.iter().map(|f| f[DATA_HEADER..].to_vec()).collect())
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
        let q = OutQueue::new(8, WIDE);
        for i in 0..5u8 {
            assert_eq!(q.push(&i), PushOutcome::Queued(i as usize + 1));
        }
        assert_eq!(pop(&q, 8).unwrap(), [[0, 1, 2, 3, 4]], "one frame");
    }

    #[test]
    fn block_policy_waits_for_drain() {
        let q = Arc::new(OutQueue::new(1, WIDE));
        q.push(&1u8);
        assert_eq!(q.try_push(&2u8), PushOutcome::Full, "full: nothing queued");
        assert_eq!(q.len(), 1);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(&2u8));
        // The producer is blocked; draining one slot releases it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pop(&q, 1).unwrap(), [[1]]);
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued(1));
        assert_eq!(pop(&q, 1).unwrap(), [[2]]);
    }

    #[test]
    fn close_wakes_everyone() {
        let q = Arc::new(OutQueue::new(1, WIDE));
        q.push(&1u8);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(&2u8));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), PushOutcome::Closed);
        assert_eq!(q.push(&9u8), PushOutcome::Closed);
        assert_eq!(q.try_push(&9u8), PushOutcome::Closed);
    }

    /// A batch takes whole frames while they fit `max` messages, and the
    /// first frame whatever it holds.
    #[test]
    fn pop_batch_drains_in_fifo_order_up_to_max() {
        // Two one-byte messages a frame.
        let q = OutQueue::new(16, SEAL_OVERHEAD + DATA_HEADER + 2);
        for i in 0..5u8 {
            q.push(&i);
        }
        assert_eq!(pop(&q, 3).unwrap(), [vec![0, 1]], "a second frame is 4");
        assert_eq!(pop(&q, 1).unwrap(), [vec![2, 3]], "the first goes whole");
        assert_eq!(pop(&q, 16).unwrap(), [vec![4]]);
        assert_eq!(
            pop(&q, 16).unwrap(),
            Vec::<Vec<u8>>::new(),
            "empty, not closed"
        );
    }

    #[test]
    fn pop_batch_wakes_blocked_producers() {
        let q = Arc::new(OutQueue::new(2, WIDE));
        q.push(&1u8);
        q.push(&2u8);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(&3u8));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(pop(&q, 2).unwrap(), [[1, 2]]);
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued(1));
        assert_eq!(pop(&q, 2).unwrap(), [[3]]);
    }

    /// The only sleeper the condition variable has: with the consumer
    /// notifies gone, `try_pop_batch` must still release it.
    #[test]
    fn a_producer_asleep_on_a_full_queue_is_released_by_try_pop_batch() {
        let q = Arc::new(OutQueue::new(1, WIDE));
        q.push(&1u8);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(&2u8));
        // Not a sleep: wait until the producer is counted as waiting,
        // i.e. it holds no lock and is inside `Condvar::wait`.
        while q.lock().waiting == 0 {
            std::thread::yield_now();
        }
        assert_eq!(q.len(), 1, "the blocked message is not in the queue");
        assert_eq!(pop(&q, 4).unwrap(), [[1]]);
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued(1));
        assert_eq!(q.lock().waiting, 0);
        assert_eq!(pop(&q, 4).unwrap(), [[2]]);
    }

    #[test]
    fn a_push_from_the_consumers_side_goes_past_the_bound_without_blocking() {
        let q = OutQueue::new(2, WIDE);
        for i in 0..5u8 {
            assert_eq!(q.push_unbounded(&i), PushOutcome::Queued(i as usize + 1));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(
            q.try_push(&9u8),
            PushOutcome::Full,
            "producers still see it full"
        );
        assert_eq!(pop(&q, 8).unwrap(), [[0, 1, 2, 3, 4]]);
        q.close();
        assert_eq!(q.push_unbounded(&9u8), PushOutcome::Closed);
    }

    #[test]
    fn pop_batch_returns_none_on_close() {
        let q = OutQueue::new(1, WIDE);
        q.push(&1u8);
        q.close();
        assert_eq!(pop(&q, 4), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_front_bypasses_capacity() {
        let q = OutQueue::new(1, WIDE);
        q.push(&2u8);
        q.push_front(numbered(0, &[1]));
        assert_eq!(q.len(), 2);
        assert_eq!(pop(&q, 1).unwrap(), [[1]]);
        assert_eq!(pop(&q, 1).unwrap(), [[2]]);
        // Nothing is appended to a numbered frame, even at the back.
        q.push_front(numbered(1, &[3]));
        q.push_unbounded(&4u8);
        assert_eq!(pop(&q, 8).unwrap(), [[3], [4]]);
    }

    /// Message `id`: its id, then filler up to `len` encoded bytes.
    fn message(id: u32, len: usize) -> Vec<u8> {
        let mut m = id.to_le_bytes().to_vec();
        m.resize(4 + len, id as u8);
        m
    }

    proptest! {
        /// Any interleaving of pushes of messages of any size, requeued
        /// numbered frames, pops and a close, under any frame ceiling
        /// and bound: every message comes out once, in push order and
        /// byte-identical, behind the frames requeued before it was
        /// popped; no frame grows past the cap unless one message is
        /// larger; a numbered frame comes out as it went in; and a push
        /// finds the queue full exactly when `capacity` messages are
        /// queued, however they are framed.
        #[test]
        fn frames_keep_order_cap_and_numbering_and_the_bound_counts_messages(
            ops in proptest::collection::vec((0u8..11, 0usize..200), 1..120),
            capacity in 1usize..24,
            max_frame in SEAL_OVERHEAD + DATA_HEADER..SEAL_OVERHEAD + DATA_HEADER + 900,
        ) {
            let q = OutQueue::new(capacity, max_frame);
            let cap = max_frame - SEAL_OVERHEAD;
            // What the queue holds, front first: a requeued frame, or a
            // pushed message (its encoding).
            let mut model: VecDeque<Result<Vec<u8>, Vec<u8>>> = VecDeque::new();
            let (mut next_id, mut next_index) = (0u32, 0u64);
            for (op, n) in ops {
                match op {
                    // `try_push` a message of `n` bytes.
                    0..=5 => {
                        let len = n;
                        let msg = message(next_id, len);
                        next_id += 1;
                        let queued = model.len();
                        let want = if queued < capacity {
                            model.push_back(Ok(qos_wire::to_bytes(&msg)));
                            PushOutcome::Queued(queued + 1)
                        } else {
                            PushOutcome::Full
                        };
                        prop_assert_eq!(q.try_push(&msg), want);
                    }
                    // A dead connection requeues a numbered frame.
                    6 => {
                        let frame = numbered(next_index, &message(u32::MAX, n));
                        next_index += 1;
                        q.push_front(frame.clone());
                        model.push_front(Err(frame));
                    }
                    // Pop a batch of at most `max` messages.
                    7..=9 => {
                        let max = 1 + n % 8;
                        let mut frames = Vec::new();
                        let taken = q.try_pop_batch(max, &mut frames).expect("open");
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
                    _ => {
                        q.close();
                        prop_assert_eq!(q.try_push(&message(0, 0)), PushOutcome::Closed);
                        prop_assert_eq!(q.try_pop_batch(1, &mut Vec::new()), None);
                        prop_assert!(q.is_empty());
                        return Ok(());
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }
}
