//! The daemon's two queues.
//!
//! * [`OutQueue`], one per peer, builds the link's data frames as
//!   messages are queued (DESIGN.md §D27). A message is encoded onto the
//!   back frame while that frame is open (unnumbered) and within the cap,
//!   or opens a frame of its own; the reactor pops whole frames and seals
//!   each at write time, so a frame that waits out a reconnect is sealed
//!   by the new session, and a frame requeued from a dead one is numbered
//!   and never appended to. The link's [`LinkCore`](crate::LinkCore) owns
//!   it, and only the reactor pushes and pops (§D32): no lock, a push
//!   never waits, and what a queue holds is bounded by the run of inputs
//!   the reactor takes between two writes.
//! * [`Completions`] carries finished requests from the reactors of a
//!   process to whoever waits for them: a run's completions in one
//!   hand-off, and a wake only for a waiter that sleeps (§D33).
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use crate::link::{le_u64, FRAME_DATA, UNNUMBERED};
use crate::proto::SEAL_OVERHEAD;
use qos_core::node::Completion;
use qos_core::PeerId;
use qos_wire::Encode;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Largest plaintext a data frame grows to (DESIGN.md §D25): a quarter
/// of a pooled read chunk, ~230 sub-flows or 12 requests.
const MERGE_CAP: usize = 16 * 1024;

/// One queued plaintext frame and the messages in it.
#[derive(Debug)]
struct Frame {
    bytes: Vec<u8>,
    msgs: usize,
}

/// A queue of data frames.
#[derive(Debug)]
pub struct OutQueue {
    q: VecDeque<Frame>,
    /// Messages queued, over all frames.
    msgs: usize,
    /// Largest plaintext a push grows a frame to.
    frame_cap: usize,
}

impl OutQueue {
    /// A queue building frames a link whose sealed frames are at most
    /// `max_frame` bytes can carry.
    pub fn new(max_frame: usize) -> Self {
        Self {
            q: VecDeque::new(),
            msgs: 0,
            frame_cap: MERGE_CAP.min(max_frame.saturating_sub(SEAL_OVERHEAD)),
        }
    }

    /// Encode `msg` onto the back frame if it is open and stays within
    /// the cap, else into a new frame. Returns the messages queued now.
    pub fn push<T: Encode>(&mut self, msg: &T) -> usize {
        qos_wire::with_encoded(msg, |msg| {
            self.msgs += 1;
            match self.q.back_mut() {
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
                    self.q.push_back(Frame { bytes, msgs: 1 });
                }
            }
            self.msgs
        })
    }

    /// Requeue a frame at the *front* after a failed write, so a
    /// reconnect never loses it. It counts as one message; numbered, as
    /// every frame a session sealed is, it takes no more.
    pub fn push_front(&mut self, bytes: Vec<u8>) {
        self.q.push_front(Frame { bytes, msgs: 1 });
        self.msgs += 1;
    }

    /// Move whole frames, oldest first, onto `out` while they hold at
    /// most `max` messages (the first goes whatever it holds). Returns
    /// the messages moved (0: none queued).
    pub fn pop_batch(&mut self, max: usize, out: &mut Vec<Vec<u8>>) -> usize {
        assert!(max > 0, "a zero-message batch cannot make progress");
        let mut taken = 0;
        while let Some(frame) = self.q.pop_front_if(|f| taken == 0 || taken + f.msgs <= max) {
            taken += frame.msgs;
            out.push(frame.bytes);
        }
        self.msgs -= taken;
        taken
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.msgs
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Finished requests on their way out of the reactors of a process, each
/// beside the domain whose broker finished it. A reactor hands over a
/// run's completions under one lock and signals only when a waiter
/// sleeps, which it learns from a count kept under the same lock; a
/// waiter takes what is queued under one lock and sleeps only when
/// nothing is (DESIGN.md §D33).
#[derive(Default)]
pub struct Completions {
    inner: Mutex<Waiting>,
    ready: Condvar,
}

#[derive(Default)]
struct Waiting {
    q: VecDeque<(PeerId, Completion)>,
    /// Waiters asleep on `ready`.
    sleepers: usize,
}

impl Completions {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Waiting> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append every completion of `run`, finished by `domain`'s broker,
    /// in order, and leave `run` empty; wake the waiters if any sleeps.
    pub fn push(&self, domain: &PeerId, run: &mut Vec<Completion>) {
        if run.is_empty() {
            return;
        }
        let mut g = self.lock();
        g.q.extend(run.drain(..).map(|c| (PeerId::clone(domain), c)));
        if g.sleepers > 0 {
            self.ready.notify_all();
        }
    }

    /// Take completions, oldest first, until `n` are taken or `timeout`
    /// passes without one arriving; returns what was taken.
    pub fn wait(&self, n: usize, timeout: Duration) -> Vec<(PeerId, Completion)> {
        let mut out = Vec::with_capacity(n);
        let mut deadline = Instant::now() + timeout;
        let mut g = self.lock();
        loop {
            let k = (n - out.len()).min(g.q.len());
            out.extend(g.q.drain(..k));
            if out.len() == n {
                return out;
            }
            let now = Instant::now();
            if k > 0 {
                deadline = now + timeout;
            } else if now >= deadline {
                return out;
            }
            g.sleepers += 1;
            g = self
                .ready
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            g.sleepers -= 1;
        }
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
    fn pop(q: &mut OutQueue, max: usize) -> Vec<Vec<u8>> {
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
        let mut q = OutQueue::new(WIDE);
        for i in 0..5u8 {
            assert_eq!(q.push(&i), i as usize + 1);
        }
        assert_eq!(pop(&mut q, 8), [[0, 1, 2, 3, 4]], "one frame");
    }

    /// A batch takes whole frames while they fit `max` messages, and the
    /// first frame whatever it holds.
    #[test]
    fn pop_batch_drains_in_fifo_order_up_to_max() {
        // Two one-byte messages a frame.
        let mut q = OutQueue::new(SEAL_OVERHEAD + DATA_HEADER + 2);
        for i in 0..5u8 {
            q.push(&i);
        }
        assert_eq!(pop(&mut q, 3), [vec![0, 1]], "a second frame is 4");
        assert_eq!(pop(&mut q, 1), [vec![2, 3]], "the first goes whole");
        assert_eq!(pop(&mut q, 16), [vec![4]]);
        assert_eq!(pop(&mut q, 16), Vec::<Vec<u8>>::new(), "empty");
    }

    #[test]
    fn a_requeued_frame_goes_in_front_and_nothing_joins_it() {
        let mut q = OutQueue::new(WIDE);
        q.push(&2u8);
        q.push_front(numbered(0, &[1]));
        assert_eq!(q.len(), 2);
        assert_eq!(pop(&mut q, 1), [[1]]);
        assert_eq!(pop(&mut q, 1), [[2]]);
        // Nothing is appended to a numbered frame, even at the back.
        q.push_front(numbered(1, &[3]));
        q.push(&4u8);
        assert_eq!(pop(&mut q, 8), [[3], [4]]);
    }

    impl Completions {
        /// Waiters asleep now.
        fn sleepers(&self) -> usize {
            self.lock().sleepers
        }
    }

    /// Sub-flow `flow`'s completion.
    fn done(flow: u64) -> Completion {
        Completion::TunnelFlow {
            tunnel: qos_core::RarId(0),
            flow,
            accepted: true,
            reason: Default::default(),
        }
    }

    fn flows(taken: &[(PeerId, Completion)]) -> Vec<(&str, u64)> {
        let flow = |c: &Completion| match c {
            Completion::TunnelFlow { flow, .. } => *flow,
            other => panic!("not a test completion: {other:?}"),
        };
        taken.iter().map(|(d, c)| (&**d, flow(c))).collect()
    }

    #[test]
    fn a_run_pushed_while_nobody_waits_is_taken_whole_and_in_order() {
        let q = Completions::new();
        let a = PeerId::from("a");
        let mut run: Vec<Completion> = (0..5).map(done).collect();
        q.push(&a, &mut run);
        assert!(run.is_empty(), "the run is handed over");
        // Nothing is queued from an empty run, and nobody sleeps.
        q.push(&a, &mut run);
        assert_eq!(q.sleepers(), 0);
        let taken = q.wait(5, Duration::ZERO);
        assert_eq!(flows(&taken), (0..5).map(|f| ("a", f)).collect::<Vec<_>>());
        // A wait for less takes the oldest and leaves the rest.
        q.push(&a, &mut (5..8).map(done).collect());
        assert_eq!(flows(&q.wait(2, Duration::ZERO)), [("a", 5), ("a", 6)]);
        assert_eq!(flows(&q.wait(1, Duration::ZERO)), [("a", 7)]);
    }

    #[test]
    fn a_waiter_asleep_before_the_push_wakes_and_takes_the_run() {
        let q = Completions::new();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| q.wait(3, Duration::from_secs(30)));
            // The push comes only once the waiter sleeps.
            while q.sleepers() == 0 {
                std::thread::yield_now();
            }
            q.push(&PeerId::from("c"), &mut (0..3).map(done).collect());
            let taken = waiter.join().expect("the waiter returns");
            assert_eq!(flows(&taken), [("c", 0), ("c", 1), ("c", 2)]);
        });
        assert_eq!(q.sleepers(), 0);
    }

    #[test]
    fn runs_from_three_daemons_keep_each_daemons_order() {
        const RUNS: u64 = 200;
        const RUN: u64 = 4;
        let q = Completions::new();
        let taken = std::thread::scope(|s| {
            for domain in ["a", "b", "c"] {
                let q = &q;
                s.spawn(move || {
                    let domain = PeerId::from(domain);
                    for r in 0..RUNS {
                        q.push(&domain, &mut (r * RUN..(r + 1) * RUN).map(done).collect());
                    }
                });
            }
            // Taken in pieces of any size, as they come.
            let mut taken = Vec::new();
            let mut n = 0;
            while taken.len() < (3 * RUNS * RUN) as usize {
                n += 1;
                taken.extend(q.wait(n % 7 + 1, Duration::from_secs(30)));
            }
            taken
        });
        for domain in ["a", "b", "c"] {
            let seen: Vec<u64> = flows(&taken)
                .into_iter()
                .filter(|(d, _)| *d == domain)
                .map(|(_, f)| f)
                .collect();
            assert_eq!(seen, (0..RUNS * RUN).collect::<Vec<_>>(), "{domain}");
        }
    }

    #[test]
    fn a_timed_out_wait_returns_what_arrived() {
        let q = Completions::new();
        q.push(&PeerId::from("a"), &mut vec![done(1), done(2)]);
        let taken = q.wait(5, Duration::from_millis(20));
        assert_eq!(flows(&taken), [("a", 1), ("a", 2)]);
        assert!(q.wait(1, Duration::ZERO).is_empty(), "nothing arrived");
        assert_eq!(q.sleepers(), 0);
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
            let mut q = OutQueue::new(max_frame);
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
