//! Bounded per-peer outbound queues — the backpressure policy.
//!
//! Each peer link owns one [`OutQueue`] of plaintext (not yet sealed)
//! message bytes. Sealing happens at write time, so messages that wait
//! out a reconnect are MAC'd under the *new* session's key and sequence
//! numbers. The queue depth is bounded; what happens at the bound is the
//! [`OverflowPolicy`]:
//!
//! * [`Block`](OverflowPolicy::Block) (default) — the producing broker
//!   thread waits for the writer to drain. Signalling correctness
//!   (approvals must not vanish) beats latency, so this is what the
//!   daemons ship with.
//! * [`DropNewest`](OverflowPolicy::DropNewest) /
//!   [`DropOldest`](OverflowPolicy::DropOldest) — load-shedding modes
//!   for telemetry-style traffic where stale frames have no value.
//!   Every shed frame is counted.
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What to do when a push finds the queue at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Wait until the writer drains a slot (lossless).
    Block,
    /// Reject the incoming frame.
    DropNewest,
    /// Evict the oldest queued frame to make room.
    DropOldest,
}

/// Outcome of a push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Frame queued.
    Queued,
    /// Frame rejected (policy [`OverflowPolicy::DropNewest`]).
    DroppedNewest,
    /// Frame queued, oldest frame evicted
    /// (policy [`OverflowPolicy::DropOldest`]).
    DroppedOldest,
    /// Queue closed; frame discarded.
    Closed,
}

#[derive(Debug, Default)]
struct Inner {
    q: VecDeque<Vec<u8>>,
    closed: bool,
}

/// A bounded MPSC byte-frame queue with explicit overflow policy.
#[derive(Debug)]
pub struct OutQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
}

impl OutQueue {
    /// A queue holding at most `capacity` frames.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        assert!(capacity > 0, "a zero-capacity queue cannot make progress");
        Self {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            capacity,
            policy,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a frame, honoring the overflow policy.
    pub fn push(&self, frame: Vec<u8>) -> PushOutcome {
        let mut g = self.lock();
        loop {
            if g.closed {
                return PushOutcome::Closed;
            }
            if g.q.len() < self.capacity {
                g.q.push_back(frame);
                self.cv.notify_all();
                return PushOutcome::Queued;
            }
            match self.policy {
                OverflowPolicy::Block => {
                    g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
                OverflowPolicy::DropNewest => return PushOutcome::DroppedNewest,
                OverflowPolicy::DropOldest => {
                    g.q.pop_front();
                    g.q.push_back(frame);
                    self.cv.notify_all();
                    return PushOutcome::DroppedOldest;
                }
            }
        }
    }

    /// Enqueue without ever waiting: a full queue under
    /// [`OverflowPolicy::Block`] hands the frame back instead of
    /// blocking. For producers that are also this queue's consumer (the
    /// reactor's warm-path replay, DESIGN.md §D15), where a blocking
    /// push would deadlock and the caller falls back to the normal
    /// dispatch path; and for the shard sink, which must wake the
    /// consumer before it waits for it.
    pub fn try_push(&self, frame: Vec<u8>) -> Result<PushOutcome, Vec<u8>> {
        let mut g = self.lock();
        if g.closed {
            return Ok(PushOutcome::Closed);
        }
        if g.q.len() < self.capacity {
            g.q.push_back(frame);
            self.cv.notify_all();
            return Ok(PushOutcome::Queued);
        }
        match self.policy {
            OverflowPolicy::Block => Err(frame),
            OverflowPolicy::DropNewest => Ok(PushOutcome::DroppedNewest),
            OverflowPolicy::DropOldest => {
                g.q.pop_front();
                g.q.push_back(frame);
                self.cv.notify_all();
                Ok(PushOutcome::DroppedOldest)
            }
        }
    }

    /// Requeue a frame at the *front* after a failed write, bypassing the
    /// capacity bound so a reconnect can never lose the frame it was
    /// carrying.
    pub fn push_front(&self, frame: Vec<u8>) {
        let mut g = self.lock();
        g.q.push_front(frame);
        self.cv.notify_all();
    }

    /// Dequeue the next frame, blocking until one is available. `None`
    /// means the queue was closed.
    pub fn pop(&self) -> Option<Vec<u8>> {
        self.pop_batch(1)
            .map(|mut batch| batch.pop().expect("pop_batch returns at least one frame"))
    }

    /// Dequeue up to `max` frames in FIFO order, blocking until at least
    /// one is available. Everything already queued (up to `max`) comes
    /// out in one call, so a writer can coalesce a burst into a single
    /// vectored socket write. `None` means the queue was closed.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Vec<u8>>> {
        assert!(max > 0, "a zero-frame batch cannot make progress");
        let mut g = self.lock();
        loop {
            if g.closed {
                return None;
            }
            if !g.q.is_empty() {
                let n = g.q.len().min(max);
                let batch: Vec<Vec<u8>> = g.q.drain(..n).collect();
                self.cv.notify_all();
                return Some(batch);
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Dequeue up to `max` frames in FIFO order without blocking — the
    /// reactor's drain path. An empty vec means nothing is queued right
    /// now; `None` means the queue was closed.
    pub fn try_pop_batch(&self, max: usize) -> Option<Vec<Vec<u8>>> {
        assert!(max > 0, "a zero-frame batch cannot make progress");
        let mut g = self.lock();
        if g.closed {
            return None;
        }
        let n = g.q.len().min(max);
        let batch: Vec<Vec<u8>> = g.q.drain(..n).collect();
        if n > 0 {
            self.cv.notify_all();
        }
        Some(batch)
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.lock().q.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: pending and future frames are discarded, blocked
    /// producers and the consumer wake immediately.
    pub fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        g.q.clear();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_preserved() {
        let q = OutQueue::new(8, OverflowPolicy::Block);
        for i in 0..5u8 {
            assert_eq!(q.push(vec![i]), PushOutcome::Queued);
        }
        for i in 0..5u8 {
            assert_eq!(q.pop().unwrap(), vec![i]);
        }
    }

    #[test]
    fn drop_newest_rejects_at_capacity() {
        let q = OutQueue::new(2, OverflowPolicy::DropNewest);
        assert_eq!(q.push(vec![1]), PushOutcome::Queued);
        assert_eq!(q.push(vec![2]), PushOutcome::Queued);
        assert_eq!(q.push(vec![3]), PushOutcome::DroppedNewest);
        assert_eq!(q.pop().unwrap(), vec![1]);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let q = OutQueue::new(2, OverflowPolicy::DropOldest);
        q.push(vec![1]);
        q.push(vec![2]);
        assert_eq!(q.push(vec![3]), PushOutcome::DroppedOldest);
        assert_eq!(q.pop().unwrap(), vec![2]);
        assert_eq!(q.pop().unwrap(), vec![3]);
    }

    #[test]
    fn block_policy_waits_for_drain() {
        let q = Arc::new(OutQueue::new(1, OverflowPolicy::Block));
        q.push(vec![1]);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(vec![2]));
        // The producer is blocked; draining one slot releases it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop().unwrap(), vec![1]);
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued);
        assert_eq!(q.pop().unwrap(), vec![2]);
    }

    #[test]
    fn close_wakes_everyone() {
        let q = Arc::new(OutQueue::new(1, OverflowPolicy::Block));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.push(vec![9]), PushOutcome::Closed);
    }

    #[test]
    fn pop_batch_drains_in_fifo_order_up_to_max() {
        let q = OutQueue::new(8, OverflowPolicy::Block);
        for i in 0..5u8 {
            q.push(vec![i]);
        }
        let first = q.pop_batch(3).unwrap();
        assert_eq!(first, vec![vec![0], vec![1], vec![2]]);
        let rest = q.pop_batch(16).unwrap();
        assert_eq!(rest, vec![vec![3], vec![4]]);
    }

    #[test]
    fn pop_batch_blocks_until_a_frame_arrives() {
        let q = Arc::new(OutQueue::new(4, OverflowPolicy::Block));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop_batch(8));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(vec![7]);
        assert_eq!(consumer.join().unwrap().unwrap(), vec![vec![7]]);
    }

    #[test]
    fn pop_batch_wakes_blocked_producers() {
        let q = Arc::new(OutQueue::new(2, OverflowPolicy::Block));
        q.push(vec![1]);
        q.push(vec![2]);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(vec![3]));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop_batch(2).unwrap(), vec![vec![1], vec![2]]);
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued);
        assert_eq!(q.pop_batch(2).unwrap(), vec![vec![3]]);
    }

    #[test]
    fn pop_batch_returns_none_on_close() {
        let q = Arc::new(OutQueue::new(1, OverflowPolicy::Block));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop_batch(4));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn push_front_bypasses_capacity() {
        let q = OutQueue::new(1, OverflowPolicy::DropNewest);
        q.push(vec![2]);
        q.push_front(vec![1]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap(), vec![1]);
    }
}
