//! The broker daemon: one domain's broker behind real sockets.
//!
//! A [`BrokerDaemon`] hands its broker's [`BbNode`] to a single
//! [reactor](crate::reactor) thread, which owns it with no lock and runs
//! it itself (DESIGN.md §D32):
//!
//! * the **reactor** owns every socket non-blocking under one
//!   `epoll`-backed poll — the accept listener, each peering link, frame
//!   decode and seal, write coalescing, and the reconnect backoff
//!   timers. It runs what a read sweep decoded, and the local inputs
//!   waiting in its `Inbox`, through the broker's one door
//!   ([`BbNode::step`]) 32 at a time, and writes each run's outputs
//!   before the next run;
//! * a run's outputs go to each link's [`OutQueue`](crate::OutQueue),
//!   which the link's core owns, encoded onto the end of the frame open
//!   at its back (plaintext, unnumbered; numbering and sealing happen at
//!   write time, so frames that wait out a reconnect are MAC'd under the
//!   new session's sequence space);
//! * a run's completions go to the [`Completions`] queue in one hand-off
//!   (DESIGN.md §D33);
//! * `submit`, `submit_all` and `tunnel_flow` push onto the inbox, and
//!   wake the reactor only if it is parked in its poll.
//!
//! A `bbd` runs this reactor thread and, when `--data-dir` is set, the
//! WAL's flusher thread — whatever its link count. The handshakes run on
//! the reactor too, as a state of each connection (DESIGN.md §D36).

use crate::admin::{AdminState, ReactorStatus};
use crate::error::TransportError;
use crate::queue::Completions;
use crate::reactor::{Ctrl, Inbox, Reactor, ReactorConfig, TOKEN_WAKER};
use crate::resume::TicketIssuer;
use crate::session::broker_pin;
use mio::{Poll, Waker};
use qos_core::channel::ChannelIdentity;
use qos_core::envelope::SignedRar;
use qos_core::node::BbNode;
use qos_core::rar::RarId;
use qos_core::Input;
use qos_crypto::{Certificate, DistinguishedName, PublicKey};
use qos_telemetry::{StdClock, Telemetry};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a daemon's transport layer.
#[derive(Debug, Clone)]
pub struct TransportOptions {
    /// Ceiling of a sealed frame, both directions. A handshake's frames
    /// have their own ([`HANDSHAKE_MAX_FRAME`](crate::session::HANDSHAKE_MAX_FRAME)).
    pub max_frame: usize,
    /// First reconnect delay.
    pub backoff_base: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
    /// Session resumption: accepted links issue tickets and dialed links
    /// present them, so steady-state reconnects skip every Schnorr
    /// operation. Both ends of a link must agree (a mixed configuration
    /// stalls handshakes until their deadline); disable with `--no-resume`
    /// on `bbd` or by clearing this flag.
    pub resume: bool,
}

/// How long an issued resumption ticket stays redeemable (seconds of the
/// broker's protocol time, [`BbNode::time`]).
const TICKET_TTL_SECS: u64 = 3600;
/// Bound on outstanding tickets held by a daemon's issuer.
const TICKET_CAP: usize = 1024;

impl Default for TransportOptions {
    fn default() -> Self {
        Self {
            max_frame: crate::frame::MAX_FRAME_LEN,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
            resume: true,
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
    pub completions: Arc<Completions>,
    /// Metrics destination (disabled handles are free).
    pub telemetry: Telemetry,
    /// Transport tuning.
    pub options: TransportOptions,
    /// Already-bound listener for the admin plane (`/metrics`,
    /// `/healthz`, `/flight`, ...), served by the reactor itself.
    /// `None` disables the admin endpoint.
    pub admin: Option<TcpListener>,
}

/// One peering link's shared state: what the admin plane and
/// [`BrokerDaemon::wait_connected`] read. The reactor owns the rest of
/// the link ([`crate::link::LinkCore`]).
pub(crate) struct Link {
    /// A session is currently live on this link. Flipped through
    /// [`LinkWatch::set_connected`] only.
    pub(crate) connected: AtomicBool,
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

/// A broker daemon: one broker served over TCP peering links.
pub struct BrokerDaemon {
    domain: String,
    inbox: Arc<Inbox>,
    links: Arc<HashMap<String, Link>>,
    watch: Arc<LinkWatch>,
    ctrl_tx: Sender<Ctrl>,
    waker: Arc<Waker>,
    reactor: JoinHandle<BbNode>,
    local_addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
}

impl BrokerDaemon {
    /// Bring the daemon up: spawns the reactor thread, which takes
    /// `node` over. Returns immediately; links come up asynchronously (see
    /// [`BrokerDaemon::wait_connected`]).
    pub fn start(mut node: BbNode, config: DaemonConfig) -> Result<Self, TransportError> {
        let DaemonConfig {
            identity,
            ca_key,
            listener,
            connect_to,
            accept_from,
            completions,
            telemetry,
            options,
            admin,
        } = config;
        let domain = node.domain().to_string();
        let local_addr = listener.local_addr()?;
        let admin_addr = admin.as_ref().and_then(|l| l.local_addr().ok());
        let identity = Arc::new(identity);
        // Every handshake nonce, and a fresh ticket key, is read from it.
        crate::session::open_random_source()?;
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
                Some(key) => Arc::new(TicketIssuer::with_key(key, TICKET_TTL_SECS, TICKET_CAP)),
                None => {
                    let issuer = Arc::new(TicketIssuer::new(TICKET_TTL_SECS, TICKET_CAP));
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
        for peer in connect_to.keys().chain(&accept_from) {
            let connected = AtomicBool::new(false);
            links.insert(peer.clone(), Link { connected });
        }
        let links = Arc::new(links);

        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(&poll, TOKEN_WAKER)?);

        let inbox = Arc::new(Inbox::new(Arc::clone(&waker), &telemetry, &domain));

        let (ctrl_tx, ctrl_rx) = channel();
        let accept_pins: HashMap<_, _> = accept_from
            .iter()
            .map(|p| (p.clone(), broker_pin(ca_key, p)))
            .collect();
        let accept_pins = Arc::new(accept_pins);
        let dials: HashMap<_, _> = connect_to
            .iter()
            .map(|(p, addr)| (p.clone(), (*addr, broker_pin(ca_key, p))))
            .collect();
        // The admin plane reads live runtime state: the inbox, the link
        // map, and the broker the reactor hands it. The reactor serves it
        // between I/O sweeps.
        let status = ReactorStatus::new();
        let watch = Arc::new(LinkWatch::default());
        let admin = admin.map(|admin_listener| {
            let state = Arc::new(AdminState {
                domain: domain.clone(),
                registry: telemetry.registry().cloned(),
                flight: telemetry.flight().cloned(),
                inbox: Arc::clone(&inbox),
                links: Arc::clone(&links),
                status: Arc::clone(&status),
                store: store.clone(),
            });
            (admin_listener, state)
        });
        let config = ReactorConfig {
            domain: domain.clone(),
            poll,
            waker: Arc::clone(&waker),
            listener: Some(listener),
            identity,
            accept_pins,
            connect_to: dials,
            links: Arc::clone(&links),
            watch: Arc::clone(&watch),
            inbox: Arc::clone(&inbox),
            completions,
            options,
            issuer,
            ctrl_rx,
            telemetry,
            admin,
            status,
        };
        let reactor = std::thread::Builder::new()
            .name(format!("bb-reactor-{domain}"))
            .spawn(move || Reactor::new(node, config).run())
            .expect("spawn reactor thread");

        Ok(Self {
            domain,
            inbox,
            links,
            watch,
            ctrl_tx,
            waker,
            reactor,
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
        self.submit_all(vec![(rar, user_cert)]);
    }

    /// Submit a burst of user requests back-to-back (pipelined: no
    /// per-request wait). The burst reaches the reactor in one piece, so
    /// it coalesces the signature checks of each run into batch
    /// equations and the outbound frames into large socket writes.
    pub fn submit_all(&self, requests: Vec<(SignedRar, Certificate)>) {
        let enqueued_ns = StdClock::now();
        self.inbox.push(
            requests
                .into_iter()
                .map(|(rar, cert)| Input::Submit(Box::new(rar), Box::new(cert), enqueued_ns)),
        );
    }

    /// Request a sub-flow inside an established tunnel.
    pub fn tunnel_flow(
        &self,
        tunnel: RarId,
        flow: u64,
        rate_bps: u64,
        requestor: DistinguishedName,
    ) {
        self.inbox
            .push([Input::TunnelFlow(tunnel, flow, rate_bps, None, requestor)]);
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
        let (done_tx, done_rx) = channel();
        if self.ctrl_tx.send(Ctrl::Kill(done_tx)).is_ok() {
            let _ = self.waker.wake();
            let _ = done_rx.recv();
        }
    }

    /// Stop everything and hand the broker node back, once the reactor
    /// has run every input submitted before the call.
    pub fn shutdown(self) -> BbNode {
        let _ = self.ctrl_tx.send(Ctrl::Shutdown);
        let _ = self.waker.wake();
        self.reactor
            .join()
            .expect("the reactor hands the broker back")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_core::scenario::{build_chain, ChainOptions};
    use qos_crypto::Timestamp;
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
        let spec = s.spec("alice", 1, 1_000_000, Timestamp(0), 3600);
        let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
        let cert = s.users["alice"].cert.clone();
        let ca_key = s.ca_key;
        let registry = Registry::new();
        let completions = Arc::new(Completions::new());
        let ids = s.identities();
        let start = |node: BbNode, connect_to, accept_from| {
            let config = DaemonConfig {
                identity: ids[node.domain()].clone(),
                ca_key,
                listener: TcpListener::bind("127.0.0.1:0").expect("bind"),
                connect_to,
                accept_from,
                completions: Arc::clone(&completions),
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
        // in its poll. The shutdown waits for it behind the control
        // channel's wake; the request's push rings it, and the reactor
        // sees both at once: it runs the request, which queues a's
        // forward to b on a's reactor thread, then stops.
        std::thread::sleep(Duration::from_millis(50));
        let before = received();
        let _ = daemon_a.ctrl_tx.send(Ctrl::Shutdown);
        daemon_a.submit(rar, cert);
        daemon_a.shutdown();
        let queued = [("domain", a.as_str()), ("peer", b.as_str())];
        let peak = registry.gauge_value("transport_outq_depth_peak", &queued);
        assert_eq!(peak, Some(1), "the forward never reached a's link queue");
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
