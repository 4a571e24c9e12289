//! One domain's broker runtime: one [`BbNode`] served by one worker
//! thread.
//!
//! In the paper each domain has one bandwidth broker, holding that
//! domain's SLA state and deciding every request; a [`ShardedNode`] is
//! that broker behind an ingress queue (DESIGN.md §D11, §D30). The name
//! is kept from when it split the broker into N replicas; since D30 it
//! is one node and one worker.
//!
//! The worker obeys one locking rule: **the queue is only popped while
//! holding the node lock.** It locks the node, pops a run of at most
//! `DRAIN_BATCH` messages and processes them before anyone else can
//! touch the node, so messages leave in arrival order.
//!
//! The same rule admits a second party: the fabric's own thread.
//! [`ShardedNode::try_run_peer`] `try_lock`s the node and, if nothing is
//! queued ahead of the message, runs it there and then through the
//! caller's sink — a lone message in an idle broker then costs no thread
//! hand-off at all (DESIGN.md §D20). Anything else is handed back to be
//! queued, so a run of messages still reaches the worker as one batch.
//!
//! Outbound messages and completions leave through a [`ShardSink`]
//! supplied by the fabric (the TCP reactor's outbound queues).

use crate::envelope::SignedRar;
use crate::messages::SignalMessage;
use crate::node::{BbNode, Completion, PeerId};
use crate::rar::RarId;
use qos_crypto::{Certificate, DistinguishedName, Timestamp};
use qos_telemetry::{Counter, Gauge, Histogram, StdClock, Telemetry, TraceId};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where the broker's outputs go: the fabric seals/routes protocol
/// messages and surfaces completions. Implementations are called with
/// the node lock held, so a sink must not call back into the same
/// [`ShardedNode`]'s dispatch for its *own* domain.
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

/// One unit of broker ingress.
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
    /// Advance the broker's wall clock.
    SetTime(Timestamp),
}

/// Everything the worker touches under the node lock: the node itself
/// plus the source-side submit times its completions are matched
/// against.
struct ShardState {
    node: BbNode,
    submitted_ns: HashMap<RarId, u64>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Doorbell for the idle worker, rung on every dispatch. The counter is
/// a generation: the worker reads it *before* it looks at the queue and
/// parks only if it has not moved since, so a dispatch that lands
/// between the look and the park is answered at once instead of waiting
/// for the next ring or the timeout. A ring signals the condition
/// variable only while the worker is parked on it (`Condvar::notify_*`
/// is a system call whether or not anyone waits); the count lives under
/// the generation's mutex, so "nobody parked" and "generation moved" are
/// one observation: a worker about to park either sees the new
/// generation or is counted.
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
    state: Mutex<ShardState>,
    queue: Mutex<VecDeque<ShardMsg>>,
    bell: Doorbell,
    stop: AtomicBool,
    sink: Arc<dyn ShardSink>,
    /// Messages waiting in the queue (`shard_queue_depth`).
    depth: Gauge,
    /// Time spent processing runs, by the worker or inline
    /// (`shard_busy_ns_total`).
    busy: Counter,
    /// Messages the fabric's thread ran itself
    /// (`shard_inline_runs_total`, [`ShardedNode::try_run_peer`]).
    inline_runs: Counter,
    /// Time the worker spent parked on the doorbell
    /// (`shard_idle_ns_total`).
    idle: Counter,
    completion_latency: Histogram,
    mailbox_peak: Gauge,
    live: bool,
}

/// One domain's broker: one node, one ingress queue, one worker thread.
pub struct ShardedNode {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
}

impl ShardedNode {
    /// Start the worker that serves `node`. Outputs leave through
    /// `sink`; the runtime's metrics resolve against `telemetry`.
    pub fn new(node: BbNode, sink: Arc<dyn ShardSink>, telemetry: &Telemetry) -> Self {
        let domain = node.domain().to_string();
        let dl: &[(&str, &str)] = &[("domain", &domain)];
        let inner = Arc::new(Inner {
            state: Mutex::new(ShardState {
                node,
                submitted_ns: HashMap::new(),
            }),
            queue: Mutex::new(VecDeque::new()),
            bell: Doorbell::default(),
            stop: AtomicBool::new(false),
            sink,
            depth: telemetry.gauge(
                "shard_queue_depth",
                "Messages waiting in the broker's ingress queue",
                dl,
            ),
            busy: telemetry.counter(
                "shard_busy_ns_total",
                "Accumulated time the broker's queue was being drained and processed",
                dl,
            ),
            inline_runs: telemetry.counter(
                "shard_inline_runs_total",
                "Lone messages the fabric's own thread ran on the idle broker, no worker woken",
                dl,
            ),
            idle: telemetry.counter(
                "shard_idle_ns_total",
                "Accumulated time the broker's worker spent parked waiting for work",
                dl,
            ),
            completion_latency: telemetry.histogram(
                "bb_completion_latency_ns",
                "Submit-to-completion latency at the source broker",
                dl,
            ),
            mailbox_peak: telemetry.gauge(
                "bb_mailbox_depth_peak",
                "Peak number of messages waiting in the broker's ingress queue",
                dl,
            ),
            live: telemetry.is_enabled(),
            domain,
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("bb-worker-{}", inner.domain))
                .spawn(move || worker_loop(&inner))
                .expect("spawn broker worker")
        };
        Self {
            inner,
            worker: Some(worker),
        }
    }

    /// The domain this broker controls.
    pub fn domain(&self) -> &str {
        &self.inner.domain
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
    /// together (one socket read sweep): the queue lock and the doorbell
    /// are taken once per run instead of once per message, and the
    /// worker sees the run as one contiguous slice it can batch-verify.
    pub fn dispatch_peer_all(&self, from: &PeerId, msgs: Vec<SignalMessage>, enqueued_ns: u64) {
        self.dispatch_all(msgs.into_iter().map(|msg| ShardMsg::Peer {
            from: PeerId::clone(from),
            msg: Box::new(msg),
            enqueued_ns,
        }));
    }

    /// Run one authenticated peer message on the *calling* thread, if
    /// the broker is idle: nobody holds the node lock and nothing is
    /// queued ahead of it. Outputs and completions leave through `sink`,
    /// the caller's, not the worker's. Otherwise the message comes back
    /// untouched, to be queued. The locking rule holds as for the
    /// worker — the caller processes the message under the node lock
    /// and found the queue empty under it — so arrival order is kept
    /// whichever way consecutive messages go.
    pub fn try_run_peer(
        &self,
        from: PeerId,
        msg: SignalMessage,
        enqueued_ns: u64,
        sink: &dyn ShardSink,
    ) -> Result<(), Box<SignalMessage>> {
        let inner = &*self.inner;
        let msg = Box::new(msg);
        let mut state = match inner.state.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return Err(msg),
        };
        if !lock(&inner.queue).is_empty() {
            return Err(msg);
        }
        let lone = ShardMsg::Peer {
            from,
            msg,
            enqueued_ns,
        };
        process_batch(inner, sink, &mut state, vec![lone]);
        if inner.live {
            inner.inline_runs.inc();
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

    /// Enqueue a whole submission burst at once, as one contiguous run
    /// the worker can batch-verify.
    pub fn dispatch_submit_all(&self, requests: Vec<(SignedRar, Certificate)>) {
        let now = StdClock::now();
        self.dispatch_all(requests.into_iter().map(|(rar, cert)| ShardMsg::Submit {
            rar: Box::new(rar),
            user_cert: Box::new(cert),
            enqueued_ns: now,
        }));
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

    /// Advance the broker's wall clock (ordered with the work already
    /// queued).
    pub fn set_time(&self, now: Timestamp) {
        self.dispatch(ShardMsg::SetTime(now));
    }

    fn dispatch(&self, msg: ShardMsg) {
        self.dispatch_all(std::iter::once(msg));
    }

    fn dispatch_all(&self, msgs: impl IntoIterator<Item = ShardMsg>) {
        let mut q = lock(&self.inner.queue);
        let before = q.len();
        q.extend(msgs);
        let depth = q.len();
        drop(q);
        if depth == before {
            return;
        }
        if self.inner.live {
            self.inner.depth.set(depth as i64);
            self.inner.mailbox_peak.record_max(depth as i64);
        }
        // The 10 ms bounded wait in [`worker_loop`] caps the latency of
        // any lost wakeup.
        self.inner.bell.ring();
    }

    /// Messages currently queued (the `/healthz` vital sign).
    pub fn queued(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// Run `f` against the node. The admin plane's `/storage` route
    /// reads ledger digests and store vitals through this; it briefly
    /// blocks message processing.
    pub fn with_node<R>(&self, f: impl FnOnce(&BbNode) -> R) -> R {
        f(&lock(&self.inner.state).node)
    }

    /// Stop the worker (after it has drained the queue) and hand the
    /// node back.
    pub fn shutdown(mut self) -> BbNode {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.bell.ring();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        let inner = Arc::into_inner(self.inner).expect("worker joined, no other handles");
        inner
            .state
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .node
    }
}

/// How many queued messages one pop takes: the grain of the pipeline
/// between brokers. A run is verified, admitted and signed as a whole
/// before any of it is delivered and flushed, so the next broker starts
/// on a burst only after this one has finished its first run. At 256 a
/// 512-burst crossed three brokers in turns (1.4 of 2 cores busy); at 32
/// the next broker is on message 33 while this one is on message 64
/// (DESIGN.md §D21). What the smaller run gives up: frames per `writev`
/// (30 → 19), reactor wake-ups per reservation (0.14 → 0.28), and the
/// width of a batch verification — which buys little while hashing, not
/// group arithmetic, is most of a signature. With no thief since D30,
/// this grain is all it bounds.
const DRAIN_BATCH: usize = 32;

fn worker_loop(inner: &Inner) {
    loop {
        let rung = inner.bell.generation();
        if run_queue(inner) {
            continue;
        }
        // Drain-before-exit: stop only once the queue is empty, so
        // shutdown never strands an approval.
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        // The timeout stays as the backstop for anything that queues
        // without ringing.
        let parked = StdClock::now();
        if inner
            .bell
            .park_unless_rung_since(rung, Duration::from_millis(10))
            && inner.live
        {
            inner.idle.add(StdClock::now().saturating_sub(parked));
        }
    }
}

/// Pop and process one run from the queue under the node lock. Returns
/// true if any message was processed.
fn run_queue(inner: &Inner) -> bool {
    let mut state = lock(&inner.state);
    // The invariant: the queue is popped only under the node lock we
    // now hold, so everything we drain is processed before anyone else
    // can touch the node.
    let batch: Vec<ShardMsg> = {
        let mut q = lock(&inner.queue);
        let take = q.len().min(DRAIN_BATCH);
        let b: Vec<ShardMsg> = q.drain(..take).collect();
        if inner.live {
            inner.depth.set(q.len() as i64);
        }
        b
    };
    if batch.is_empty() {
        return false;
    }
    process_batch(inner, &*inner.sink, &mut state, batch);
    true
}

/// Dispatch a drained run into the node, coalescing same-kind runs so
/// bursts hit the batch-verification fast paths
/// ([`BbNode::submit_batch`], [`BbNode::recv_requests`]) and a run of
/// sub-flows ([`BbNode::recv_tunnel_flows`]) costs one flush. Outputs
/// leave through `sink`: the worker's own, or the caller's for an
/// inline run. The time it takes is the broker's busy time, whoever
/// spends it.
fn process_batch(
    inner: &Inner,
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
        inner.busy.add(StdClock::now().saturating_sub(t0));
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

    /// `node` behind a runtime whose worker has gone home: what is
    /// dispatched stays queued until the test plays the worker
    /// ([`run_queue`]), so every interleaving below is forced, not
    /// hoped for.
    fn without_workers(node: BbNode, sink: Arc<Recorder>) -> ShardedNode {
        let mut sharded = ShardedNode::new(node, sink, &Telemetry::disabled());
        sharded.inner.stop.store(true, Ordering::SeqCst);
        sharded.inner.bell.ring();
        let worker = sharded.worker.take().expect("a worker");
        worker.join().expect("worker exits on stop");
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
        // Someone is processing a run: the node lock is held.
        let held = lock(&sharded.inner.state);
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
        assert!(run_queue(&sharded.inner));
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
        assert!(run_queue(&sharded.inner));
        assert_eq!(sink.log(), in_order);

        // Request processed by the worker, approval arrives alone on
        // the now idle broker and runs inline.
        let (transit, request, approval) = transit_and_its_messages();
        let sink = Arc::new(Recorder::default());
        let sharded = without_workers(transit, Arc::clone(&sink));
        sharded.dispatch_peer("domain-a".into(), request, 0);
        assert!(run_queue(&sharded.inner));
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
        while run_queue(&sharded.inner) {
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
        bell.ring();
        assert_eq!(bell.generation(), seen + 1);
    }
}
