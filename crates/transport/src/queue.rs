//! Bounded per-peer outbound queues — the backpressure policy.
//!
//! Each peer link owns one [`OutQueue`] of plaintext (not yet sealed)
//! message bytes. Sealing happens at write time, so messages that wait
//! out a reconnect are MAC'd under the *new* session's key and sequence
//! numbers. The queue depth is bounded, and a push that finds the queue
//! at the bound waits for the reactor to drain it: a signalling frame
//! that vanished would leak the holds it was about to confirm or
//! release, so the queue never sheds.
//!
//! The one consumer (the reactor) never sleeps on the queue — it is
//! woken through its poll — so the condition variable has exactly one
//! kind of sleeper: a producer at the bound. `try_pop_batch` and `close`
//! signal it, and only while such a producer exists (`waiting`); a push
//! signals nobody (DESIGN.md §D20).
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Outcome of a push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Frame queued.
    Queued,
    /// Queue closed; frame discarded.
    Closed,
}

#[derive(Debug, Default)]
struct Inner {
    q: VecDeque<Vec<u8>>,
    closed: bool,
    /// Producers asleep in [`OutQueue::push`] on a full queue.
    waiting: usize,
}

/// A bounded MPSC byte-frame queue; a full queue blocks its producers.
#[derive(Debug)]
pub struct OutQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
}

impl OutQueue {
    /// A queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue cannot make progress");
        Self {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a frame, waiting while the queue is full (lossless).
    pub fn push(&self, frame: Vec<u8>) -> PushOutcome {
        let mut g = self.lock();
        loop {
            if g.closed {
                return PushOutcome::Closed;
            }
            if g.q.len() < self.capacity {
                g.q.push_back(frame);
                return PushOutcome::Queued;
            }
            g.waiting += 1;
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            g.waiting -= 1;
        }
    }

    /// Enqueue without ever waiting: a full queue hands the frame back
    /// instead of blocking. For the shard sink, which must wake the
    /// consumer before it waits for it.
    pub fn try_push(&self, frame: Vec<u8>) -> Result<PushOutcome, Vec<u8>> {
        let mut g = self.lock();
        if g.closed {
            return Ok(PushOutcome::Closed);
        }
        if g.q.len() < self.capacity {
            g.q.push_back(frame);
            return Ok(PushOutcome::Queued);
        }
        Err(frame)
    }

    /// Enqueue past the capacity bound, never waiting — for the
    /// consumer's own thread, which would otherwise wait for itself
    /// (the reactor running a message inline, DESIGN.md §D20).
    pub fn push_unbounded(&self, frame: Vec<u8>) -> PushOutcome {
        let mut g = self.lock();
        if g.closed {
            return PushOutcome::Closed;
        }
        g.q.push_back(frame);
        PushOutcome::Queued
    }

    /// Requeue a frame at the *front* after a failed write, bypassing the
    /// capacity bound so a reconnect can never lose the frame it was
    /// carrying.
    pub fn push_front(&self, frame: Vec<u8>) {
        self.lock().q.push_front(frame);
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
        if n > 0 && g.waiting > 0 {
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
    /// producers wake immediately.
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

    fn frames(bytes: &[u8]) -> Vec<Vec<u8>> {
        bytes.iter().map(|&b| vec![b]).collect()
    }

    #[test]
    fn fifo_order_preserved() {
        let q = OutQueue::new(8);
        for i in 0..5u8 {
            assert_eq!(q.push(vec![i]), PushOutcome::Queued);
        }
        assert_eq!(q.try_pop_batch(8).unwrap(), frames(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn block_policy_waits_for_drain() {
        let q = Arc::new(OutQueue::new(1));
        q.push(vec![1]);
        assert_eq!(q.try_push(vec![2]), Err(vec![2]), "full: handed back");
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(vec![2]));
        // The producer is blocked; draining one slot releases it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.try_pop_batch(1).unwrap(), frames(&[1]));
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued);
        assert_eq!(q.try_pop_batch(1).unwrap(), frames(&[2]));
    }

    #[test]
    fn close_wakes_everyone() {
        let q = Arc::new(OutQueue::new(1));
        q.push(vec![1]);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(vec![2]));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), PushOutcome::Closed);
        assert_eq!(q.push(vec![9]), PushOutcome::Closed);
    }

    #[test]
    fn pop_batch_drains_in_fifo_order_up_to_max() {
        let q = OutQueue::new(8);
        for i in 0..5u8 {
            q.push(vec![i]);
        }
        assert_eq!(q.try_pop_batch(3).unwrap(), frames(&[0, 1, 2]));
        assert_eq!(q.try_pop_batch(16).unwrap(), frames(&[3, 4]));
        assert_eq!(
            q.try_pop_batch(16).unwrap(),
            frames(&[]),
            "empty, not closed"
        );
    }

    #[test]
    fn pop_batch_wakes_blocked_producers() {
        let q = Arc::new(OutQueue::new(2));
        q.push(vec![1]);
        q.push(vec![2]);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(vec![3]));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.try_pop_batch(2).unwrap(), frames(&[1, 2]));
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued);
        assert_eq!(q.try_pop_batch(2).unwrap(), frames(&[3]));
    }

    /// The only sleeper the condition variable has: with the consumer
    /// notifies gone, `try_pop_batch` must still release it.
    #[test]
    fn a_producer_asleep_on_a_full_queue_is_released_by_try_pop_batch() {
        let q = Arc::new(OutQueue::new(1));
        q.push(vec![1]);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(vec![2]));
        // Not a sleep: wait until the producer is counted as waiting,
        // i.e. it holds no lock and is inside `Condvar::wait`.
        while q.lock().waiting == 0 {
            std::thread::yield_now();
        }
        assert_eq!(q.len(), 1, "the blocked frame is not in the queue");
        assert_eq!(q.try_pop_batch(4).unwrap(), frames(&[1]));
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued);
        assert_eq!(q.lock().waiting, 0);
        assert_eq!(q.try_pop_batch(4).unwrap(), frames(&[2]));
    }

    #[test]
    fn a_push_from_the_consumers_side_goes_past_the_bound_without_blocking() {
        let q = OutQueue::new(2);
        for i in 0..5u8 {
            assert_eq!(q.push_unbounded(vec![i]), PushOutcome::Queued);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(
            q.try_push(vec![9]),
            Err(vec![9]),
            "producers still see it full"
        );
        assert_eq!(q.try_pop_batch(8).unwrap(), frames(&[0, 1, 2, 3, 4]));
        q.close();
        assert_eq!(q.push_unbounded(vec![9]), PushOutcome::Closed);
    }

    #[test]
    fn pop_batch_returns_none_on_close() {
        let q = OutQueue::new(1);
        q.push(vec![1]);
        q.close();
        assert_eq!(q.try_pop_batch(4), None);
    }

    #[test]
    fn push_front_bypasses_capacity() {
        let q = OutQueue::new(1);
        q.push(vec![2]);
        q.push_front(vec![1]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop_batch(1).unwrap(), frames(&[1]));
    }
}
