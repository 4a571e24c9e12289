//! The broker daemon: one domain's broker behind real sockets.
//!
//! A [`BrokerDaemon`] hosts a broker as a [`ShardedNode`] — one node,
//! one admission worker (DESIGN.md §D11, §D30) — and connects it to
//! peered daemons through a single [reactor](crate::reactor) thread:
//!
//! * the **reactor** owns every socket non-blocking under one
//!   `epoll`-backed poll — the accept listener, each peering link, frame
//!   decode and seal, write coalescing, and the reconnect backoff
//!   timers. Decoded signalling messages go straight into the broker's
//!   ingress queue;
//! * the **admission worker** drains that queue under the node lock,
//!   in runs it batch-verifies;
//! * the worker's outputs come back through each link's bounded [`OutQueue`],
//!   encoded onto the end of the frame open at its back (plaintext,
//!   unnumbered; numbering and sealing happen at write time, so frames
//!   that wait out a reconnect are MAC'd under the new session's
//!   sequence space), and the workers' sink rings the
//!   reactor's waker if the reactor is parked in its poll. A message
//!   the reactor runs itself (DESIGN.md §D20) leaves through a second
//!   [`TcpSink`] that neither waits for the reactor nor wakes it.
//!
//! A daemon runs one reactor thread plus one worker thread regardless
//! of link count, with handshakes on short-lived offload threads.

use crate::admin::{AdminState, ReactorStatus};
use crate::error::TransportError;
use crate::queue::{OutQueue, PushOutcome};
use crate::reactor::{Ctrl, Reactor, ReactorConfig, TOKEN_WAKER};
use crate::resume::TicketIssuer;
use crate::session::broker_pin;
use crossbeam::channel::{unbounded, Sender};
use mio::{Poll, Waker};
use qos_core::channel::ChannelIdentity;
use qos_core::envelope::SignedRar;
use qos_core::messages::SignalMessage;
use qos_core::node::{BbNode, Completion};
use qos_core::rar::RarId;
use qos_core::shard::{ShardSink, ShardedNode};
use qos_crypto::{Certificate, DistinguishedName, PublicKey, Timestamp};
use qos_telemetry::{Counter, Gauge, Histogram, StdClock, Telemetry};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a daemon's transport layer.
#[derive(Debug, Clone)]
pub struct TransportOptions {
    /// Frame-size ceiling enforced on both directions.
    pub max_frame: usize,
    /// Per-link outbound queue capacity (messages).
    pub queue_capacity: usize,
    /// First reconnect delay.
    pub backoff_base: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
    /// Wall-clock used for certificate validity during handshakes.
    pub now: Timestamp,
    /// Session resumption: accepted links issue tickets and dialed links
    /// present them, so steady-state reconnects skip every Schnorr
    /// operation. Both ends of a link must agree (a mixed configuration
    /// stalls handshakes until their timeout); disable with `--no-resume`
    /// on `bbd` or by clearing this flag.
    pub resume: bool,
    /// How long an issued resumption ticket stays redeemable (seconds of
    /// the daemon's `now` clock).
    pub ticket_ttl_secs: u64,
    /// Bound on outstanding tickets held by this daemon's issuer.
    pub ticket_cap: usize,
}

impl Default for TransportOptions {
    fn default() -> Self {
        Self {
            max_frame: crate::frame::MAX_FRAME_LEN,
            queue_capacity: 1024,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
            now: Timestamp::ZERO,
            resume: true,
            ticket_ttl_secs: 3600,
            ticket_cap: 1024,
        }
    }
}

/// Everything a daemon needs to come up.
pub struct DaemonConfig {
    /// The broker's channel identity (key + certificate).
    pub identity: ChannelIdentity,
    /// The CA key all SLA pins are validated against.
    pub ca_key: PublicKey,
    /// Already-bound listener for inbound peers.
    pub listener: TcpListener,
    /// Peers this daemon dials: domain → address.
    pub connect_to: HashMap<String, SocketAddr>,
    /// Peers expected to dial us.
    pub accept_from: Vec<String>,
    /// Where reservation/tunnel completions are reported.
    pub completion_tx: Sender<(String, Completion)>,
    /// Metrics destination (disabled handles are free).
    pub telemetry: Telemetry,
    /// Transport tuning.
    pub options: TransportOptions,
    /// Already-bound listener for the admin plane (`/metrics`,
    /// `/healthz`, `/flight`, ...), served by the reactor itself.
    /// `None` disables the admin endpoint.
    pub admin: Option<TcpListener>,
}

/// Per-link instruments of the session lifecycle and the sink (no-ops
/// without a registry); what the link's frames count is its
/// [`LinkCore`](crate::link::LinkCore)'s.
pub(crate) struct LinkInstruments {
    pub(crate) reconnects: Counter,
    pub(crate) resumed: Counter,
    pub(crate) handshake_ns: Histogram,
    pub(crate) outq_depth: Gauge,
}

impl LinkInstruments {
    fn resolve(telemetry: &Telemetry, domain: &str, peer: &str) -> Self {
        let l: &[(&str, &str)] = &[("domain", domain), ("peer", peer)];
        Self {
            reconnects: telemetry.counter(
                "transport_reconnects_total",
                "Sessions re-established after the first",
                l,
            ),
            resumed: telemetry.counter(
                "resumed_handshakes_total",
                "Sessions established by ticket resumption (no signatures)",
                l,
            ),
            handshake_ns: telemetry.histogram(
                "transport_handshake_ns",
                "Socket handshake duration (connect excluded)",
                l,
            ),
            outq_depth: telemetry.gauge(
                "transport_outq_depth_peak",
                "Peak outbound queue depth",
                l,
            ),
        }
    }
}

/// One peering link's shared state (written by the broker's sinks, read
/// and written by the reactor, which also owns the link's delivery
/// state, [`crate::link::LinkCore`]).
pub(crate) struct Link {
    pub(crate) queue: Arc<OutQueue>,
    /// Set once the first session is up; later sessions count as
    /// reconnects.
    pub(crate) established: AtomicBool,
    /// A session is currently live on this link. Flipped through
    /// [`LinkWatch::set_connected`] only.
    pub(crate) connected: AtomicBool,
    pub(crate) ins: LinkInstruments,
}

/// What [`BrokerDaemon::wait_connected`] sleeps on: the reactor signals
/// it wherever it flips a link's `connected` flag.
#[derive(Default)]
pub(crate) struct LinkWatch {
    lock: Mutex<()>,
    changed: Condvar,
}

impl LinkWatch {
    /// Flip `link`'s flag and wake the waiters. The flag is stored
    /// before the lock is taken and a waiter checks the flags under it,
    /// so a flip is either seen by the check or signalled to the wait.
    pub(crate) fn set_connected(&self, link: &Link, up: bool) {
        link.connected.store(up, Ordering::SeqCst);
        let _g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.changed.notify_all();
    }
}

/// The broker's sink for the TCP fabric: outputs go to link queues
/// (plaintext frames — the reactor numbers and seals them at write time),
/// completions to the daemon owner's channel. Called with the node lock
/// held, so it must never dispatch back into the broker.
pub(crate) struct TcpSink {
    domain: String,
    links: Arc<HashMap<String, Link>>,
    completion_tx: Sender<(String, Completion)>,
    /// How the worker reaches the reactor. `None` is the reactor's
    /// own sink: it has nobody to wake, and must not wait on a queue
    /// only it can drain.
    reactor: Option<ReactorBell>,
}

/// The reactor's waker and the flag saying it may be asleep.
struct ReactorBell {
    waker: Arc<Waker>,
    parked: Arc<AtomicBool>,
}

impl ShardSink for TcpSink {
    fn deliver(&self, to: &str, msg: SignalMessage) {
        let to = to.strip_prefix("user:").unwrap_or(to);
        let Some(link) = self.links.get(to) else {
            return;
        };
        let outcome = match &self.reactor {
            Some(bell) => match link.queue.try_push(&msg) {
                PushOutcome::Full => {
                    // Only the reactor makes room. Wake it, parked or
                    // not, before waiting for it.
                    let _ = bell.waker.wake();
                    link.queue.push(&msg)
                }
                done => done,
            },
            None => link.queue.push_unbounded(&msg),
        };
        if let PushOutcome::Queued(depth) = outcome {
            link.ins.outq_depth.record_max(depth as i64);
        }
    }

    /// At most one eventfd write per run of deliveries, and none while
    /// the reactor is awake: it sweeps the queues before it next sleeps.
    /// Whoever clears the flag rings, so one ring answers one park.
    fn flush(&self) {
        if let Some(bell) = &self.reactor {
            if bell.parked.swap(false, Ordering::SeqCst) {
                let _ = bell.waker.wake();
            }
        }
    }

    fn complete(&self, completion: Completion) {
        let _ = self.completion_tx.send((self.domain.clone(), completion));
    }
}

/// A broker daemon: one broker served over TCP peering links.
pub struct BrokerDaemon {
    domain: String,
    sharded: Arc<ShardedNode>,
    links: Arc<HashMap<String, Link>>,
    watch: Arc<LinkWatch>,
    ctrl_tx: Sender<Ctrl>,
    waker: Arc<Waker>,
    reactor_join: Option<JoinHandle<()>>,
    hs_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    local_addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
}

impl BrokerDaemon {
    /// Bring the daemon up: spawns the admission worker and the reactor
    /// thread. Returns immediately; links come up asynchronously (see
    /// [`BrokerDaemon::wait_connected`]).
    pub fn start(mut node: BbNode, config: DaemonConfig) -> Result<Self, TransportError> {
        let DaemonConfig {
            identity,
            ca_key,
            listener,
            connect_to,
            accept_from,
            completion_tx,
            telemetry,
            options,
            admin,
        } = config;
        let domain = node.domain().to_string();
        let local_addr = listener.local_addr()?;
        let admin_addr = admin.as_ref().and_then(|l| l.local_addr().ok());
        let identity = Arc::new(identity);
        // Ticket state survives a restart when a durable ledger is
        // attached (DESIGN.md §D13): reuse the journalled MAC key and
        // re-seat every recovered entry, so peers resume zero-Schnorr
        // across the crash. On a fresh data dir the new key is
        // journalled before any ticket can reference it.
        let recovered_tickets = node.take_recovered_tickets();
        let store = node.store();
        let issuer = options.resume.then(|| {
            let recovered_key = recovered_tickets
                .key
                .as_deref()
                .and_then(|k| <[u8; 32]>::try_from(k).ok());
            let issuer = match recovered_key {
                Some(key) => Arc::new(TicketIssuer::with_key(
                    key,
                    options.ticket_ttl_secs,
                    options.ticket_cap,
                )),
                None => {
                    let issuer = Arc::new(TicketIssuer::new(
                        options.ticket_ttl_secs,
                        options.ticket_cap,
                    ));
                    if let Some(store) = &store {
                        store.append(&qos_storage::LedgerRecord::TicketKey {
                            key: issuer.key_bytes(),
                        });
                    }
                    issuer
                }
            };
            issuer.restore_tickets(&recovered_tickets.tickets);
            if let Some(store) = &store {
                issuer.set_store(Arc::clone(store));
            }
            issuer
        });
        if let Some(issuer) = &issuer {
            // Fold live ticket state into every snapshot the node cuts,
            // so ticket durability survives WAL segment pruning.
            let hook_issuer = Arc::clone(issuer);
            node.set_snapshot_extra(Arc::new(move |snap| {
                snap.ticket_key = Some(hook_issuer.key_bytes());
                snap.tickets = hook_issuer.export_tickets();
            }));
        }

        // One link record per peer, dialed or accepted.
        let mut links = HashMap::new();
        for peer in connect_to
            .keys()
            .cloned()
            .chain(accept_from.iter().cloned())
        {
            let ins = LinkInstruments::resolve(&telemetry, &domain, &peer);
            links.insert(
                peer,
                Link {
                    queue: Arc::new(OutQueue::new(options.queue_capacity, options.max_frame)),
                    established: AtomicBool::new(false),
                    connected: AtomicBool::new(false),
                    ins,
                },
            );
        }
        let links = Arc::new(links);

        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(&poll, TOKEN_WAKER)?);

        let parked = Arc::new(AtomicBool::new(false));
        let inline_sink = TcpSink {
            domain: domain.clone(),
            links: Arc::clone(&links),
            completion_tx: completion_tx.clone(),
            reactor: None,
        };
        let sink = TcpSink {
            domain: domain.clone(),
            links: Arc::clone(&links),
            completion_tx,
            reactor: Some(ReactorBell {
                waker: Arc::clone(&waker),
                parked: Arc::clone(&parked),
            }),
        };
        let sharded = Arc::new(ShardedNode::new(node, Arc::new(sink), &telemetry));

        let (ctrl_tx, ctrl_rx) = unbounded();
        let hs_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_pins: HashMap<_, _> = accept_from
            .iter()
            .map(|p| (p.clone(), broker_pin(ca_key, p)))
            .collect();
        let accept_pins = Arc::new(accept_pins);
        let dials: HashMap<_, _> = connect_to
            .iter()
            .map(|(p, addr)| (p.clone(), (*addr, broker_pin(ca_key, p))))
            .collect();
        // The admin plane reads live runtime state: the same broker
        // handle the worker drains and the same link map the reactor
        // writes. The reactor serves it between I/O sweeps.
        let status = ReactorStatus::new();
        let watch = Arc::new(LinkWatch::default());
        let admin = admin.map(|admin_listener| {
            let state = Arc::new(AdminState {
                domain: domain.clone(),
                registry: telemetry.registry().cloned(),
                flight: telemetry.flight().cloned(),
                sharded: Arc::clone(&sharded),
                links: Arc::clone(&links),
                status: Arc::clone(&status),
                store: store.clone(),
            });
            (admin_listener, state)
        });
        let reactor = Reactor::new(ReactorConfig {
            domain: domain.clone(),
            poll,
            waker: Arc::clone(&waker),
            listener: Some(listener),
            identity,
            accept_pins,
            connect_to: dials,
            links: Arc::clone(&links),
            watch: Arc::clone(&watch),
            sharded: Arc::clone(&sharded),
            inline_sink,
            parked,
            options,
            issuer,
            ctrl_tx: ctrl_tx.clone(),
            ctrl_rx,
            hs_threads: Arc::clone(&hs_threads),
            telemetry,
            admin,
            status,
        });
        let reactor_join = std::thread::Builder::new()
            .name(format!("bb-reactor-{domain}"))
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");

        Ok(Self {
            domain,
            sharded,
            links,
            watch,
            ctrl_tx,
            waker,
            reactor_join: Some(reactor_join),
            hs_threads,
            local_addr,
            admin_addr,
        })
    }

    /// The hosted broker's domain.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The address inbound peers dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admin-plane address (when started with an admin listener).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Submit a user request to the hosted broker.
    pub fn submit(&self, rar: SignedRar, user_cert: Certificate) {
        self.sharded
            .dispatch_submit(rar, user_cert, StdClock::now());
    }

    /// Submit a burst of user requests back-to-back (pipelined: no
    /// per-request wait). The burst is queued as one run, so the worker
    /// coalesces its signature checks into batch equations and the
    /// reactor coalesces the outbound frames
    /// into large socket writes.
    pub fn submit_all(&self, requests: Vec<(SignedRar, Certificate)>) {
        self.sharded.dispatch_submit_all(requests);
    }

    /// Request a sub-flow inside an established tunnel.
    pub fn tunnel_flow(
        &self,
        tunnel: RarId,
        flow: u64,
        rate_bps: u64,
        requestor: DistinguishedName,
    ) {
        self.sharded
            .dispatch_tunnel_flow(tunnel, flow, rate_bps, requestor);
    }

    /// Advance the broker's wall clock.
    pub fn set_time(&self, now: Timestamp) {
        self.sharded.set_time(now);
    }

    /// Number of links with a live session.
    pub fn connected_peers(&self) -> usize {
        self.links
            .values()
            .filter(|l| l.connected.load(Ordering::SeqCst))
            .count()
    }

    /// Wait until every configured link has a live session.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.watch.lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.connected_peers() == self.links.len() {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            g = self
                .watch
                .changed
                .wait_timeout(g, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Sever every live session (simulating network failure). The
    /// plaintext of any frame the sockets did not fully accept returns
    /// to its queue; dialed links redial immediately, accepted links
    /// recover when the peer redials. Returns once the reactor has done
    /// it, so a [`BrokerDaemon::wait_connected`] that follows waits for
    /// the sessions that replace the severed ones.
    pub fn kill_connections(&self) {
        let (done_tx, done_rx) = unbounded();
        if self.ctrl_tx.send(Ctrl::Kill(done_tx)).is_ok() {
            let _ = self.waker.wake();
            let _ = done_rx.recv();
        }
    }

    /// Stop everything and hand the broker node back.
    pub fn shutdown(mut self) -> BbNode {
        let _ = self.ctrl_tx.send(Ctrl::Shutdown);
        let _ = self.waker.wake();
        if let Some(j) = self.reactor_join.take() {
            let _ = j.join();
        }
        // Unblock the worker if it waits on a full link queue, then
        // drain the broker's queue and join the worker.
        for link in self.links.values() {
            link.queue.close();
        }
        let handshakes: Vec<_> = {
            let mut g = self.hs_threads.lock().unwrap_or_else(|e| e.into_inner());
            g.drain(..).collect()
        };
        for t in handshakes {
            let _ = t.join();
        }
        let sharded =
            Arc::into_inner(self.sharded).expect("reactor joined; no other handles to the broker");
        sharded.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_core::messages::TunnelFlowRelease;
    use qos_core::scenario::{build_chain, ChainOptions};
    use qos_crypto::KeyPair;
    use qos_telemetry::Registry;

    /// A stopping daemon settles what it owes its peers and seals nothing
    /// new: a peer would admit a message still queued and hold state for
    /// replies that nobody reads.
    #[test]
    fn a_message_queued_at_shutdown_is_not_sent() {
        let mut s = build_chain(ChainOptions {
            domains: 2,
            ..ChainOptions::default()
        });
        let (a, b) = (s.domains[0].clone(), s.domains[1].clone());
        let ca_key = s.ca_key;
        let registry = Registry::new();
        let (tx, _rx) = unbounded();
        let start = |node: BbNode, connect_to, accept_from| {
            let identity = ChannelIdentity {
                key: KeyPair::from_seed(format!("bb-{}", node.domain()).as_bytes()),
                cert: node.cert().clone(),
            };
            let config = DaemonConfig {
                identity,
                ca_key,
                listener: TcpListener::bind("127.0.0.1:0").expect("bind"),
                connect_to,
                accept_from,
                completion_tx: tx.clone(),
                telemetry: Telemetry::with_registry(registry.clone()),
                options: TransportOptions::default(),
                admin: None,
            };
            BrokerDaemon::start(node, config).expect("daemon starts")
        };
        let daemon_b = start(s.nodes.remove(1), HashMap::new(), vec![a.clone()]);
        let to_b = HashMap::from([(b.clone(), daemon_b.local_addr())]);
        let daemon_a = start(s.nodes.remove(0), to_b, Vec::new());
        assert!(daemon_a.wait_connected(Duration::from_secs(10)));
        let labels = [("domain", b.as_str()), ("peer", a.as_str())];
        let received = || registry.counter_value("transport_frames_received_total", &labels);
        // The syncs have crossed and nothing is owed: a's reactor sleeps
        // in its poll, and the shutdown is the next thing it sees.
        std::thread::sleep(Duration::from_millis(50));
        let before = received();
        let release = TunnelFlowRelease::new(RarId(0), 7);
        let release = SignalMessage::TunnelFlowRelease(release);
        daemon_a.links[&b].queue.push(&release);
        daemon_a.shutdown();
        // b reads a's close after every byte a wrote before it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon_b.connected_peers() > 0 {
            assert!(Instant::now() < deadline, "b never saw a's close");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(received(), before, "a sealed a message queued at shutdown");
        daemon_b.shutdown();
    }
}
