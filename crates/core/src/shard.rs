//! N-way sharded admission core with work-stealing ingress.
//!
//! A [`ShardedNode`] runs one domain's broker as N [`BbNode`] replicas
//! (DESIGN.md §D11). Every replica shares the *same* striped
//! [`qos_broker::BrokerCore`] ledger, PDP, counter cells, and metric
//! instruments (see [`BbNode::clone_shard`]); what is partitioned is the
//! **per-request protocol state** — the pending map, tunnel books, and
//! completions. The partition key is a stable FNV-1a hash of the
//! reservation id ([`shard_of`]), which pins a reservation's whole life
//! cycle (request, approval/denial, release — and a tunnel plus all its
//! sub-flows) to one shard, so no replica ever sees half of a request.
//!
//! Each shard owns an ingress queue and the shards' worker threads obey
//! one locking rule: **a queue is only popped while holding that
//! shard's node lock.** The owner locks its own node and drains its own
//! queue; an idle worker *steals* by `try_lock`ing a victim's node and
//! draining the victim's queue under it. The rule makes per-shard FIFO
//! order a lock-ordering invariant rather than a scheduling accident —
//! whoever processes shard j's messages holds j's node lock from pop to
//! delivery, so messages for one reservation can never reorder or
//! interleave.
//!
//! The same rule admits a third party beside owner and thief: the
//! fabric's own thread. [`ShardedNode::try_run_peer`] `try_lock`s the
//! message's shard and, if nothing is queued ahead of it, runs it there
//! and then through the caller's sink — a lone message in an idle broker
//! then costs no thread hand-off at all (DESIGN.md §D20). Anything else
//! is handed back to be queued, so a run of messages still reaches the
//! workers as one batch.
//!
//! Outbound messages and completions leave through a [`ShardSink`]
//! supplied by the fabric (the TCP reactor's outbound queues).

use crate::envelope::SignedRar;
use crate::messages::SignalMessage;
use crate::node::{BbNode, Completion, PeerId};
use crate::rar::RarId;
use qos_crypto::{Certificate, DistinguishedName, Timestamp};
use qos_telemetry::{
    Counter, EventFamily, FlightEvent, FlightRecorder, Gauge, Histogram, StdClock, Telemetry,
    TraceId,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Stable shard routing: FNV-1a over the reservation id's little-endian
/// bytes, reduced modulo the shard count. Deterministic across runs,
/// platforms, and shard counts — the same key always lands on the same
/// shard for a given N, and the result is always `< shards`.
pub fn shard_of(key: u64, shards: usize) -> usize {
    debug_assert!(shards > 0, "a node needs at least one shard");
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % shards as u64) as usize
}

/// The default shard count for a broker runtime: `min(4, cores)`.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Where a shard's outputs go: the fabric seals/routes protocol
/// messages and surfaces completions. Implementations are called with
/// the shard's node lock held, so a sink must not call back into the
/// same [`ShardedNode`]'s dispatch for its *own* domain.
pub trait ShardSink: Send + Sync {
    /// Route one protocol message to `to` (a peer domain, or a
    /// `user:<domain>` completion address the fabric may drop).
    fn deliver(&self, to: &str, msg: SignalMessage);
    /// Everything one processing step produced has been handed to
    /// [`ShardSink::deliver`]: a sink that has to signal another thread
    /// for its deliveries to move does so here, once per step instead of
    /// once per message.
    fn flush(&self) {}
    /// Surface a finished request at this (source) broker.
    fn complete(&self, completion: Completion);
}

/// One unit of shard ingress.
pub enum ShardMsg {
    /// An authenticated peer message (the channel layer vouches for
    /// `from`).
    Peer {
        /// Sending peer domain, interned once per link by the fabric.
        from: PeerId,
        /// The decoded signalling message.
        msg: Box<SignalMessage>,
        /// Queue-entry time (ns) for queue-wait attribution.
        enqueued_ns: u64,
    },
    /// A local user submission.
    Submit {
        /// The signed request.
        rar: Box<SignedRar>,
        /// The user's identity certificate.
        user_cert: Box<Certificate>,
        /// Queue-entry time (ns).
        enqueued_ns: u64,
    },
    /// A local sub-flow request inside an established tunnel.
    TunnelFlow {
        /// The tunnel reservation.
        tunnel: RarId,
        /// Sub-flow id.
        flow: u64,
        /// Requested rate.
        rate_bps: u64,
        /// Requesting user.
        requestor: DistinguishedName,
    },
    /// Advance the shard's wall clock.
    SetTime(Timestamp),
}

impl ShardMsg {
    /// The routing key: the reservation (or tunnel) id this message
    /// belongs to. `SetTime` is broadcast and never routed by key.
    fn key(&self) -> u64 {
        match self {
            ShardMsg::Peer { msg, .. } => msg.rar_id().0,
            ShardMsg::Submit { rar, .. } => rar.res_spec().rar_id.0,
            ShardMsg::TunnelFlow { tunnel, .. } => tunnel.0,
            ShardMsg::SetTime(_) => 0,
        }
    }
}

/// Everything a worker touches under one shard's node lock: the replica
/// itself plus the source-side submit times its completions are matched
/// against (submits and their approvals route to the same shard).
struct ShardState {
    node: BbNode,
    submitted_ns: HashMap<RarId, u64>,
}

struct Shard {
    state: Mutex<ShardState>,
    queue: Mutex<VecDeque<ShardMsg>>,
    depth: Gauge,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Doorbell for idle workers, rung on every dispatch. The counter is a
/// generation: a worker reads it *before* it scans the queues and parks
/// only if it has not moved since, so a dispatch that lands between the
/// scan and the park is answered at once instead of waiting for the
/// next ring or the timeout. A ring signals the condition variable only
/// while a worker is parked on it (`Condvar::notify_*` is a system call
/// whether or not anyone waits); the count lives under the generation's
/// mutex, so "nobody parked" and "generation moved" are one observation:
/// a worker about to park either sees the new generation or is counted.
#[derive(Default)]
struct Doorbell {
    state: Mutex<BellState>,
    cv: Condvar,
}

#[derive(Default)]
struct BellState {
    generation: u64,
    parked: usize,
}

impl Doorbell {
    fn generation(&self) -> u64 {
        lock(&self.state).generation
    }

    /// Returns whether a parked worker was signalled.
    fn ring(&self) -> bool {
        let mut g = lock(&self.state);
        g.generation += 1;
        let wake = g.parked > 0;
        if wake {
            self.cv.notify_one();
        }
        wake
    }

    fn ring_all(&self) {
        let mut g = lock(&self.state);
        g.generation += 1;
        if g.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// Park until the next ring, at most `timeout` — unless the bell
    /// was rung since the caller read `seen`. Returns whether it parked.
    fn park_unless_rung_since(&self, seen: u64, timeout: Duration) -> bool {
        let mut g = lock(&self.state);
        if g.generation != seen {
            return false;
        }
        g.parked += 1;
        let (mut g, _) = self
            .cv
            .wait_timeout(g, timeout)
            .unwrap_or_else(|e| e.into_inner());
        g.parked -= 1;
        true
    }
}

struct Inner {
    domain: String,
    shards: Vec<Shard>,
    bell: Doorbell,
    stop: AtomicBool,
    sink: Arc<dyn ShardSink>,
    /// `steals[victim][thief]` — pre-resolved so every pair renders
    /// (at zero) from the first exposition.
    steals: Vec<Vec<Counter>>,
    /// Accumulated time each shard spent processing batches
    /// (`shard_busy_ns_total{shard}`) — the admin plane's `/shards`
    /// busy gauge reads these cells.
    busy: Vec<Counter>,
    /// Messages the fabric's thread ran itself, per shard
    /// (`shard_inline_runs_total{shard}`, [`ShardedNode::try_run_peer`]).
    inline_runs: Vec<Counter>,
    /// Accumulated time each *worker* spent parked on the doorbell
    /// (`shard_idle_ns_total{worker}`).
    idle: Vec<Counter>,
    /// Flight recorder for shard-steal events, when one is attached.
    flight: Option<Arc<FlightRecorder>>,
    completion_latency: Histogram,
    mailbox_peak: Gauge,
    live: bool,
}

/// One domain's broker, sharded N ways with work-stealing ingress.
pub struct ShardedNode {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardedNode {
    /// Split `node` into `shards` replicas (see [`BbNode::clone_shard`])
    /// and start the worker pool. The pool holds
    /// `min(shards, available cores)` threads, not one per shard: a
    /// worker owns at most one shard but services every queue through
    /// the steal path, so on a box with fewer cores than shards the
    /// partitioning stays N-way (routing, ledgers, telemetry are
    /// per-shard) without oversubscribing the CPU with idle-spinning
    /// threads. Outputs leave through `sink`; shard metrics resolve
    /// against `telemetry`.
    pub fn new(
        node: BbNode,
        shards: usize,
        sink: Arc<dyn ShardSink>,
        telemetry: &Telemetry,
    ) -> Self {
        let shards = shards.max(1);
        let domain = node.domain().to_string();
        // Replicas share the original's ledger, PDP, counters, and
        // instruments; the original itself becomes shard 0.
        let mut replicas: Vec<BbNode> = (1..shards).map(|_| node.clone_shard()).collect();
        replicas.insert(0, node);
        let shard_vec: Vec<Shard> = replicas
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                let is = i.to_string();
                Shard {
                    state: Mutex::new(ShardState {
                        node,
                        submitted_ns: HashMap::new(),
                    }),
                    queue: Mutex::new(VecDeque::new()),
                    depth: telemetry.gauge(
                        "shard_queue_depth",
                        "Messages waiting in one admission shard's ingress queue",
                        &[("domain", &domain), ("shard", &is)],
                    ),
                }
            })
            .collect();
        let steals = (0..shards)
            .map(|from| {
                let fs = from.to_string();
                (0..shards)
                    .map(|to| {
                        telemetry.counter(
                            "shard_steals_total",
                            "Ingress batches stolen from one shard's queue by another shard's worker",
                            &[("domain", &domain), ("from", &fs), ("to", &to.to_string())],
                        )
                    })
                    .collect()
            })
            .collect();
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(shards);
        let worker_count = shards.min(cores).max(1);
        let busy = (0..shards)
            .map(|i| {
                telemetry.counter(
                    "shard_busy_ns_total",
                    "Accumulated time a shard's queue was being drained and processed",
                    &[("domain", &domain), ("shard", &i.to_string())],
                )
            })
            .collect();
        let inline_runs = (0..shards)
            .map(|i| {
                telemetry.counter(
                    "shard_inline_runs_total",
                    "Lone messages the fabric's own thread ran on an idle shard, no worker woken",
                    &[("domain", &domain), ("shard", &i.to_string())],
                )
            })
            .collect();
        let idle = (0..worker_count)
            .map(|i| {
                telemetry.counter(
                    "shard_idle_ns_total",
                    "Accumulated time a shard worker spent parked waiting for work",
                    &[("domain", &domain), ("worker", &i.to_string())],
                )
            })
            .collect();
        let inner = Arc::new(Inner {
            shards: shard_vec,
            bell: Doorbell::default(),
            stop: AtomicBool::new(false),
            sink,
            steals,
            busy,
            inline_runs,
            idle,
            flight: telemetry.flight().cloned(),
            completion_latency: telemetry.histogram(
                "bb_completion_latency_ns",
                "Submit-to-completion latency at the source broker",
                &[("domain", &domain)],
            ),
            mailbox_peak: telemetry.gauge(
                "bb_mailbox_depth_peak",
                "Peak number of messages waiting in the shard mailboxes",
                &[("domain", &domain)],
            ),
            live: telemetry.is_enabled(),
            domain,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bb-shard-{}-{i}", inner.domain))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn shard worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// The domain this sharded broker controls.
    pub fn domain(&self) -> &str {
        &self.inner.domain
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Enqueue an authenticated peer message.
    pub fn dispatch_peer(&self, from: PeerId, msg: SignalMessage, enqueued_ns: u64) {
        self.dispatch(ShardMsg::Peer {
            from,
            msg: Box::new(msg),
            enqueued_ns,
        });
    }

    /// Enqueue a run of authenticated peer messages that arrived
    /// together (one socket read sweep), grouped per shard so each
    /// queue lock and the doorbell are taken once per run instead of
    /// once per message — and so each shard sees its slice as one
    /// contiguous run its worker can batch-verify.
    pub fn dispatch_peer_all(&self, from: &PeerId, msgs: Vec<SignalMessage>, enqueued_ns: u64) {
        let n = self.inner.shards.len();
        let mut per_shard: Vec<Vec<ShardMsg>> = (0..n).map(|_| Vec::new()).collect();
        for msg in msgs {
            let s = shard_of(msg.rar_id().0, n);
            per_shard[s].push(ShardMsg::Peer {
                from: PeerId::clone(from),
                msg: Box::new(msg),
                enqueued_ns,
            });
        }
        let mut touched = 0usize;
        for (s, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            touched += 1;
            let shard = &self.inner.shards[s];
            let mut q = lock(&shard.queue);
            q.extend(batch);
            let depth = q.len();
            drop(q);
            self.note_depth(s, depth);
        }
        match touched {
            0 => {}
            1 => self.ring(),
            _ => self.ring_all(),
        }
    }

    /// Run one authenticated peer message on the *calling* thread, if
    /// its shard is idle: nobody holds the shard's node lock and nothing
    /// is queued ahead of it. Outputs and completions leave through
    /// `sink`, the caller's, not the workers'. Otherwise the message
    /// comes back untouched, to be queued. The locking rule holds as for
    /// a thief — the caller processes shard j's message under j's node
    /// lock and found j's queue empty under it — so arrival order within
    /// a shard is kept whichever way consecutive messages go.
    pub fn try_run_peer(
        &self,
        from: PeerId,
        msg: SignalMessage,
        enqueued_ns: u64,
        sink: &dyn ShardSink,
    ) -> Result<(), Box<SignalMessage>> {
        let inner = &*self.inner;
        let s = shard_of(msg.rar_id().0, inner.shards.len());
        let shard = &inner.shards[s];
        let msg = Box::new(msg);
        let Some(mut state) = try_lock_state(shard) else {
            return Err(msg);
        };
        if !lock(&shard.queue).is_empty() {
            return Err(msg);
        }
        let lone = ShardMsg::Peer {
            from,
            msg,
            enqueued_ns,
        };
        process_batch(inner, s, sink, &mut state, vec![lone]);
        if inner.live {
            inner.inline_runs[s].inc();
        }
        Ok(())
    }

    /// Enqueue a local user submission.
    pub fn dispatch_submit(&self, rar: SignedRar, user_cert: Certificate, enqueued_ns: u64) {
        self.dispatch(ShardMsg::Submit {
            rar: Box::new(rar),
            user_cert: Box::new(user_cert),
            enqueued_ns,
        });
    }

    /// Enqueue a whole submission burst at once, grouped per shard so
    /// each shard sees its slice as one contiguous run it can
    /// batch-verify.
    pub fn dispatch_submit_all(&self, requests: Vec<(SignedRar, Certificate)>) {
        let n = self.inner.shards.len();
        let now = StdClock::now();
        let mut per_shard: Vec<Vec<ShardMsg>> = (0..n).map(|_| Vec::new()).collect();
        for (rar, cert) in requests {
            let s = shard_of(rar.res_spec().rar_id.0, n);
            per_shard[s].push(ShardMsg::Submit {
                rar: Box::new(rar),
                user_cert: Box::new(cert),
                enqueued_ns: now,
            });
        }
        for (s, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let shard = &self.inner.shards[s];
            let mut q = lock(&shard.queue);
            q.extend(batch);
            let depth = q.len();
            drop(q);
            self.note_depth(s, depth);
        }
        self.ring_all();
    }

    /// Enqueue a local tunnel sub-flow request.
    pub fn dispatch_tunnel_flow(
        &self,
        tunnel: RarId,
        flow: u64,
        rate_bps: u64,
        requestor: DistinguishedName,
    ) {
        self.dispatch(ShardMsg::TunnelFlow {
            tunnel,
            flow,
            rate_bps,
            requestor,
        });
    }

    /// Broadcast a wall-clock update to every shard (ordered with the
    /// work already queued).
    pub fn set_time(&self, now: Timestamp) {
        for (s, shard) in self.inner.shards.iter().enumerate() {
            let mut q = lock(&shard.queue);
            q.push_back(ShardMsg::SetTime(now));
            let depth = q.len();
            drop(q);
            self.note_depth(s, depth);
        }
        self.ring_all();
    }

    fn dispatch(&self, msg: ShardMsg) {
        let s = shard_of(msg.key(), self.inner.shards.len());
        let shard = &self.inner.shards[s];
        let mut q = lock(&shard.queue);
        q.push_back(msg);
        let depth = q.len();
        drop(q);
        self.note_depth(s, depth);
        self.ring();
    }

    fn note_depth(&self, s: usize, depth: usize) {
        if self.inner.live {
            self.inner.shards[s].depth.set(depth as i64);
            self.inner.mailbox_peak.record_max(depth as i64);
        }
    }

    /// Wake one idle worker. Any worker can drain any queue (the steal
    /// path), so a single waiter suffices for a single enqueued
    /// message; waking the whole pool for every frame is a thundering
    /// herd that costs real throughput when workers outnumber cores.
    /// The 10ms bounded wait in [`worker_loop`] caps the latency of any
    /// lost wakeup.
    fn ring(&self) {
        self.inner.bell.ring();
    }

    /// Wake every worker — for broadcasts ([`ShardedNode::set_time`],
    /// [`ShardedNode::dispatch_submit_all`]) that load several queues
    /// at once.
    fn ring_all(&self) {
        self.inner.bell.ring_all();
    }

    /// Messages currently queued across all shards.
    pub fn queued(&self) -> usize {
        self.inner.shards.iter().map(|s| lock(&s.queue).len()).sum()
    }

    /// Current queue depth of each shard (the `/healthz` vital sign).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| lock(&s.queue).len())
            .collect()
    }

    /// Per-shard runtime stats for the admin plane's `/shards` route:
    /// `(queue depth, busy ns, batches stolen from this shard, messages
    /// run inline by the fabric's thread)`. All but the depth read the
    /// shard's metric cells, so they are 0 when no registry is installed.
    pub fn shard_stats(&self) -> Vec<(usize, u64, u64, u64)> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let stolen: u64 = self.inner.steals[i].iter().map(Counter::get).sum();
                (
                    lock(&s.queue).len(),
                    self.inner.busy[i].get(),
                    stolen,
                    self.inner.inline_runs[i].get(),
                )
            })
            .collect()
    }

    /// Per-worker accumulated idle (doorbell-parked) nanoseconds.
    pub fn worker_idle_ns(&self) -> Vec<u64> {
        self.inner.idle.iter().map(Counter::get).collect()
    }

    /// Run `f` against shard 0's node. The ledger (`BrokerCore`), store
    /// and counters are shared across replicas, so any shard answers
    /// domain-wide questions — the admin plane's `/storage` route reads
    /// ledger digests and store vitals through this without stopping
    /// the workers. Briefly blocks shard 0's message processing.
    pub fn with_node<R>(&self, f: impl FnOnce(&BbNode) -> R) -> R {
        let state = lock(&self.inner.shards[0].state);
        f(&state.node)
    }

    /// Stop the workers (after draining every queue) and hand back one
    /// replica — its ledger and counters are the shared ones, so
    /// admission state reads identically from any shard.
    pub fn shutdown(mut self) -> BbNode {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.bell.ring_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let inner = Arc::into_inner(self.inner).expect("workers joined, no other handles");
        inner
            .shards
            .into_iter()
            .map(|s| s.state.into_inner().unwrap_or_else(|e| e.into_inner()).node)
            .next()
            .expect("at least one shard")
    }
}

/// How many queued messages one pop takes. It bounds two things: the
/// time a thief holds a victim's node lock, and the grain of the pipeline
/// between brokers — a run is verified, admitted and signed as a whole
/// before any of it is delivered and flushed, so the next broker starts
/// on a burst only after this one has finished its first run. At 256 a
/// 512-burst crossed three brokers in turns (1.4 of 2 cores busy); at 32
/// the next broker is on message 33 while this one is on message 64
/// (DESIGN.md §D21). What the smaller run gives up: frames per `writev`
/// (30 → 19), reactor wake-ups per reservation (0.14 → 0.28), and the
/// width of a batch verification — which buys little while hashing, not
/// group arithmetic, is most of a signature.
const DRAIN_BATCH: usize = 32;

fn worker_loop(inner: &Inner, me: usize) {
    let n = inner.shards.len();
    loop {
        let rung = inner.bell.generation();
        let mut did_work = false;
        // Own shard first: blocking node lock, drain own queue under it.
        did_work |= run_shard(inner, me, me, /*try_only=*/ false);
        // Then steal: try-lock victims round-robin from our right-hand
        // neighbour so thieves spread out instead of convoying.
        for off in 1..n {
            let victim = (me + off) % n;
            did_work |= run_shard(inner, victim, me, /*try_only=*/ true);
        }
        if inner.stop.load(Ordering::SeqCst) {
            // Drain-before-exit: only stop once every queue is empty so
            // shutdown never strands an approval.
            let all_empty = inner.shards.iter().all(|s| lock(&s.queue).is_empty());
            if all_empty {
                return;
            }
            continue;
        }
        if !did_work {
            // The timeout stays as the backstop for anything that
            // queues without ringing.
            let parked = StdClock::now();
            if inner
                .bell
                .park_unless_rung_since(rung, Duration::from_millis(10))
                && inner.live
            {
                inner.idle[me].add(StdClock::now().saturating_sub(parked));
            }
        }
    }
}

/// The stealing side of the locking rule: the shard's node lock, or
/// `None` when someone else is processing the shard right now.
fn try_lock_state(shard: &Shard) -> Option<MutexGuard<'_, ShardState>> {
    match shard.state.try_lock() {
        Ok(g) => Some(g),
        Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(std::sync::TryLockError::WouldBlock) => None,
    }
}

/// Pop-and-process one batch from `shard`'s queue under `shard`'s node
/// lock. Returns true if any message was processed. `try_only` is the
/// stealing mode: back off instead of blocking on a busy victim.
fn run_shard(inner: &Inner, shard_idx: usize, worker: usize, try_only: bool) -> bool {
    let shard = &inner.shards[shard_idx];
    let mut state = if try_only {
        match try_lock_state(shard) {
            Some(g) => g,
            None => return false,
        }
    } else {
        lock(&shard.state)
    };
    // The invariant: the queue is popped only under the node lock we
    // now hold, so everything we drain is processed before anyone else
    // can touch this shard's protocol state.
    let batch: Vec<ShardMsg> = {
        let mut q = lock(&shard.queue);
        let take = q.len().min(DRAIN_BATCH);
        let b: Vec<ShardMsg> = q.drain(..take).collect();
        if inner.live {
            shard.depth.set(q.len() as i64);
        }
        b
    };
    if batch.is_empty() {
        return false;
    }
    if try_only {
        if inner.live {
            inner.steals[shard_idx][worker].inc();
        }
        if let Some(flight) = &inner.flight {
            flight.record(
                FlightEvent::new(
                    EventFamily::ShardSteal,
                    inner.domain.clone(),
                    format!("shard-{shard_idx}"),
                )
                .detail(format!("{} msgs stolen by worker {worker}", batch.len())),
            );
        }
    }
    process_batch(inner, shard_idx, &*inner.sink, &mut state, batch);
    true
}

/// Dispatch a drained batch into the shard's replica, coalescing
/// same-kind runs so bursts hit the batch-verification fast paths
/// ([`BbNode::submit_batch`], [`BbNode::recv_requests`]) and a run of
/// sub-flows ([`BbNode::recv_tunnel_flows`]) costs one flush. Outputs leave through `sink`: the workers' own, or the
/// caller's for an inline run. The time it takes is shard `shard_idx`'s
/// busy time, whoever spends it.
fn process_batch(
    inner: &Inner,
    shard_idx: usize,
    sink: &dyn ShardSink,
    state: &mut ShardState,
    batch: Vec<ShardMsg>,
) {
    let t0 = if inner.live { StdClock::now() } else { 0 };
    let mut it = batch.into_iter().peekable();
    while let Some(msg) = it.next() {
        let out = match msg {
            ShardMsg::SetTime(t) => {
                state.node.set_time(t);
                continue;
            }
            ShardMsg::Submit {
                rar,
                user_cert,
                enqueued_ns,
            } => {
                let mut subs = vec![(rar, user_cert, enqueued_ns)];
                while let Some(ShardMsg::Submit { .. }) = it.peek() {
                    let Some(ShardMsg::Submit {
                        rar,
                        user_cert,
                        enqueued_ns,
                    }) = it.next()
                    else {
                        unreachable!("peeked a submit");
                    };
                    subs.push((rar, user_cert, enqueued_ns));
                }
                let mut flat = Vec::with_capacity(subs.len());
                for (rar, cert, enq) in subs {
                    let spec = rar.res_spec();
                    let (rar_id, trace) = (
                        spec.rar_id,
                        TraceId::mint(&spec.source_domain, spec.rar_id.0),
                    );
                    if inner.live {
                        state.submitted_ns.insert(rar_id, enq);
                    }
                    state.node.record_queue_wait(trace, rar_id, enq);
                    flat.push((*rar, *cert));
                }
                state.node.submit_batch(flat)
            }
            ShardMsg::TunnelFlow {
                tunnel,
                flow,
                rate_bps,
                requestor,
            } => match state
                .node
                .request_tunnel_flow(tunnel, flow, rate_bps, requestor)
            {
                Ok(out) => out,
                Err(e) => {
                    // Rejected at the source (aggregate spent): complete
                    // immediately, as the mesh drivers do.
                    sink.complete(Completion::TunnelFlow {
                        tunnel,
                        flow,
                        accepted: false,
                        reason: crate::messages::DenialCode::Other(e.to_string().into()),
                    });
                    continue;
                }
            },
            ShardMsg::Peer {
                from,
                msg,
                enqueued_ns,
            } => {
                if let Some(trace) = msg.trace_id() {
                    state
                        .node
                        .record_queue_wait(trace, msg.rar_id(), enqueued_ns);
                }
                match *msg {
                    SignalMessage::Request(rar) => {
                        let mut reqs = vec![(from, rar)];
                        while matches!(
                            it.peek(),
                            Some(ShardMsg::Peer { msg, .. })
                                if matches!(msg.as_ref(), SignalMessage::Request(_))
                        ) {
                            let Some(ShardMsg::Peer {
                                from: f2,
                                msg: m2,
                                enqueued_ns: e2,
                            }) = it.next()
                            else {
                                unreachable!("peeked a request");
                            };
                            if let Some(trace) = m2.trace_id() {
                                state.node.record_queue_wait(trace, m2.rar_id(), e2);
                            }
                            let SignalMessage::Request(r2) = *m2 else {
                                unreachable!("matched a request");
                            };
                            reqs.push((f2, r2));
                        }
                        state.node.recv_requests(reqs)
                    }
                    SignalMessage::TunnelFlow(t) => {
                        let mut flows = vec![(from, t)];
                        while matches!(
                            it.peek(),
                            Some(ShardMsg::Peer { msg, .. })
                                if matches!(msg.as_ref(), SignalMessage::TunnelFlow(_))
                        ) {
                            let Some(ShardMsg::Peer {
                                from: f2, msg: m2, ..
                            }) = it.next()
                            else {
                                unreachable!("peeked a tunnel flow");
                            };
                            let SignalMessage::TunnelFlow(t2) = *m2 else {
                                unreachable!("matched a tunnel flow");
                            };
                            flows.push((f2, t2));
                        }
                        state.node.recv_tunnel_flows(flows)
                    }
                    other => state.node.recv(&from, other),
                }
            }
        };
        let delivered = !out.is_empty();
        for (to, m) in out {
            sink.deliver(&to, m);
        }
        if delivered {
            sink.flush();
        }
        for c in state.node.take_completions() {
            if inner.live {
                if let Completion::Reservation { rar_id, .. } = &c {
                    if let Some(t0) = state.submitted_ns.remove(rar_id) {
                        inner
                            .completion_latency
                            .observe(StdClock::now().saturating_sub(t0));
                    }
                }
            }
            sink.complete(c);
        }
    }
    if inner.live {
        inner.busy[shard_idx].add(StdClock::now().saturating_sub(t0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build_chain, ChainOptions};
    use std::thread::ThreadId;

    /// Records which thread delivered what to whom, and how many
    /// deliveries it had seen each time it was told a step's were
    /// complete.
    #[derive(Default)]
    struct Recorder {
        delivered: Mutex<Vec<(String, SignalMessage, ThreadId)>>,
        flushed_at: Mutex<Vec<usize>>,
    }

    impl Recorder {
        /// `(to, is it a request)` of every delivery so far, in order.
        fn log(&self) -> Vec<(String, bool)> {
            lock(&self.delivered)
                .iter()
                .map(|(to, m, _)| (to.clone(), matches!(m, SignalMessage::Request(_))))
                .collect()
        }
    }

    impl ShardSink for Recorder {
        fn deliver(&self, to: &str, msg: SignalMessage) {
            lock(&self.delivered).push((to.to_string(), msg, std::thread::current().id()));
        }
        fn flush(&self) {
            let so_far = lock(&self.delivered).len();
            lock(&self.flushed_at).push(so_far);
        }
        fn complete(&self, _: Completion) {}
    }

    /// The transit broker of a fresh 3-domain chain, and the two
    /// messages of one reservation it will see: the request from
    /// domain-a and the approval from domain-c. Keys are seeded and
    /// signing is deterministic, so the messages one build of the chain
    /// exchanges are the messages of any other.
    fn transit_and_its_messages() -> (BbNode, SignalMessage, SignalMessage) {
        let mut s = build_chain(ChainOptions::default());
        let spec = s.spec("alice", 1000, 5_000_000, Timestamp(0), 3600);
        let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
        let cert = s.users["alice"].cert.clone();
        let (_, request) = s.nodes[0].submit_batch(vec![(rar, cert)]).remove(0);
        let (_, forwarded) = s.nodes[1].recv("domain-a", request.clone()).remove(0);
        let (to, approval) = s.nodes[2].recv("domain-b", forwarded).remove(0);
        assert_eq!(&*to, "domain-b");
        assert!(matches!(approval, SignalMessage::Approve(_)));
        let transit = build_chain(ChainOptions::default()).nodes.remove(1);
        (transit, request, approval)
    }

    /// `node` on one shard whose workers have gone home: what is
    /// dispatched stays queued until the test plays the worker
    /// ([`run_shard`]), so every interleaving below is forced, not
    /// hoped for.
    fn without_workers(node: BbNode, sink: Arc<Recorder>) -> ShardedNode {
        let mut sharded = ShardedNode::new(node, 1, sink, &Telemetry::disabled());
        sharded.inner.stop.store(true, Ordering::SeqCst);
        sharded.inner.bell.ring_all();
        for w in sharded.workers.drain(..) {
            w.join().expect("worker exits on stop");
        }
        sharded
    }

    #[test]
    fn a_lone_message_on_an_idle_shard_runs_on_the_calling_thread_through_its_sink() {
        let (transit, request, _) = transit_and_its_messages();
        let workers_sink = Arc::new(Recorder::default());
        let sharded = without_workers(transit, Arc::clone(&workers_sink));
        let mine = Recorder::default();
        assert_eq!(
            sharded.try_run_peer("domain-a".into(), request, 0, &mine),
            Ok(())
        );
        let delivered = lock(&mine.delivered);
        assert_eq!(delivered.len(), 1, "the request was forwarded");
        assert_eq!(delivered[0].0, "domain-c");
        assert_eq!(delivered[0].2, std::thread::current().id());
        assert_eq!(*lock(&mine.flushed_at), [1]);
        assert!(lock(&workers_sink.delivered).is_empty());
        assert_eq!(sharded.queued(), 0);
    }

    #[test]
    fn a_busy_shard_hands_the_message_back() {
        let (transit, request, approval) = transit_and_its_messages();
        let sharded = without_workers(transit, Arc::new(Recorder::default()));
        let mine = Recorder::default();
        // Someone is processing the shard: its node lock is held.
        let held = lock(&sharded.inner.shards[0].state);
        assert_eq!(
            sharded.try_run_peer("domain-a".into(), request.clone(), 0, &mine),
            Err(Box::new(request.clone()))
        );
        drop(held);
        // Nobody is, but a message waits in its queue: running this
        // one now would overtake it.
        sharded.dispatch_peer("domain-a".into(), request, 0);
        assert_eq!(
            sharded.try_run_peer("domain-c".into(), approval.clone(), 0, &mine),
            Err(Box::new(approval))
        );
        assert!(lock(&mine.delivered).is_empty());
        assert_eq!(sharded.queued(), 1);
    }

    /// The two messages of one reservation, one run inline and one
    /// through the queue, in either order: the approval must find the
    /// request already processed, or the transit broker has nothing to
    /// match it against and the reservation is lost.
    #[test]
    fn inline_and_queued_messages_of_one_reservation_keep_arrival_order() {
        let in_order = [
            ("domain-c".to_string(), true),
            ("domain-a".to_string(), false),
        ];

        // Request inline, approval queued behind it.
        let (transit, request, approval) = transit_and_its_messages();
        let sink = Arc::new(Recorder::default());
        let sharded = without_workers(transit, Arc::clone(&sink));
        assert_eq!(
            sharded.try_run_peer("domain-a".into(), request, 0, &*sink),
            Ok(())
        );
        sharded.dispatch_peer("domain-c".into(), approval, 0);
        assert!(run_shard(&sharded.inner, 0, 0, false));
        assert_eq!(sink.log(), in_order);

        // Request queued and not yet processed, approval arrives alone:
        // it is handed back, queued behind the request, and the worker
        // takes both in order.
        let (transit, request, approval) = transit_and_its_messages();
        let sink = Arc::new(Recorder::default());
        let sharded = without_workers(transit, Arc::clone(&sink));
        sharded.dispatch_peer("domain-a".into(), request, 0);
        let approval = sharded
            .try_run_peer("domain-c".into(), approval, 0, &*sink)
            .expect_err("a message is queued ahead");
        sharded.dispatch_peer("domain-c".into(), *approval, 0);
        assert!(run_shard(&sharded.inner, 0, 0, false));
        assert_eq!(sink.log(), in_order);

        // Request processed by the worker, approval arrives alone on
        // the now idle shard and runs inline.
        let (transit, request, approval) = transit_and_its_messages();
        let sink = Arc::new(Recorder::default());
        let sharded = without_workers(transit, Arc::clone(&sink));
        sharded.dispatch_peer("domain-a".into(), request, 0);
        assert!(run_shard(&sharded.inner, 0, 0, false));
        assert_eq!(
            sharded.try_run_peer("domain-c".into(), approval, 0, &*sink),
            Ok(())
        );
        assert_eq!(sink.log(), in_order);
    }

    /// A burst from one peer is handed on a run at a time: the next
    /// broker has the first `DRAIN_BATCH` forwards, flushed, before this
    /// one starts on the rest — and never out of arrival order.
    #[test]
    fn a_queued_burst_leaves_in_arrival_order_a_run_and_a_flush_at_a_time() {
        const BURST: usize = 200;
        let mut s = build_chain(ChainOptions::default());
        let cert = s.users["alice"].cert.clone();
        let requests: Vec<SignalMessage> = (0..BURST)
            .map(|_| {
                let spec = s.spec("alice", 1000, 10_000, Timestamp(0), 3600);
                let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
                s.nodes[0].submit(rar, &cert).remove(0).1
            })
            .collect();
        let sent: Vec<RarId> = requests.iter().map(SignalMessage::rar_id).collect();
        let transit = build_chain(ChainOptions::default()).nodes.remove(1);
        let sink = Arc::new(Recorder::default());
        let sharded = without_workers(transit, Arc::clone(&sink));
        sharded.dispatch_peer_all(&"domain-a".into(), requests, 0);

        let mut runs = 0;
        while run_shard(&sharded.inner, 0, 0, false) {
            runs += 1;
            // Everything this run produced has left before the next
            // run is popped.
            let delivered = lock(&sink.delivered).len();
            assert_eq!(delivered, (runs * DRAIN_BATCH).min(BURST));
            assert_eq!(lock(&sink.flushed_at).last(), Some(&delivered));
        }
        assert_eq!(runs, BURST.div_ceil(DRAIN_BATCH));
        assert_eq!(lock(&sink.flushed_at).len(), runs, "one flush per run");
        let forwarded: Vec<RarId> = lock(&sink.delivered)
            .iter()
            .map(|(to, msg, _)| {
                assert_eq!(to, "domain-c");
                assert!(matches!(msg, SignalMessage::Request(_)));
                msg.rar_id()
            })
            .collect();
        assert_eq!(forwarded, sent);
    }

    #[test]
    fn a_ring_with_nobody_parked_signals_nobody() {
        let bell = Arc::new(Doorbell::default());
        let seen = bell.generation();
        assert!(!bell.ring(), "no worker is parked");
        assert_eq!(bell.generation(), seen + 1, "the generation still moves");
        // A parked worker is counted under the generation's own mutex,
        // and a ring finds it there.
        let seen = bell.generation();
        let worker = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || bell.park_unless_rung_since(seen, Duration::from_secs(30)))
        };
        while lock(&bell.state).parked == 0 {
            std::thread::yield_now();
        }
        assert!(bell.ring());
        assert!(worker.join().expect("worker"), "it had parked");
        assert_eq!(lock(&bell.state).parked, 0);
    }

    #[test]
    fn a_ring_between_the_scan_and_the_park_is_not_slept_through() {
        let bell = Doorbell::default();
        // The worker looks, finds its queues empty; the dispatcher
        // queues and rings; only then does the worker reach the park.
        let seen = bell.generation();
        bell.ring();
        assert!(
            !bell.park_unless_rung_since(seen, Duration::from_secs(30)),
            "the worker went to sleep on a bell already rung"
        );
        // Nothing rung since the look: it parks, and the timeout ends it.
        let seen = bell.generation();
        assert!(bell.park_unless_rung_since(seen, Duration::from_millis(1)));
        bell.ring_all();
        assert_eq!(bell.generation(), seen + 1);
    }

    #[test]
    fn shard_of_is_stable_and_total() {
        for n in 1..=16usize {
            for key in (0..512u64).chain([u64::MAX, u64::MAX - 1, 1 << 40]) {
                let s = shard_of(key, n);
                assert!(s < n, "key {key} shards {n}");
                assert_eq!(s, shard_of(key, n), "deterministic");
            }
        }
    }

    #[test]
    fn shard_of_spreads_keys() {
        // Not a uniformity proof — just that FNV over sequential ids
        // does not collapse onto one shard.
        let n = 4;
        let mut counts = vec![0usize; n];
        for key in 0..1000u64 {
            counts[shard_of(key, n)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 100, "shard {i} got {c} of 1000 keys");
        }
    }
}
