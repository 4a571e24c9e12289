//! The daemon's event loop: every socket non-blocking under one
//! `epoll`-backed [`mio::Poll`] (vendored stand-in; see `vendor/mio`),
//! and the domain's broker, run on the same thread (DESIGN.md §D32).
//!
//! One reactor thread per daemon owns the listener, every peering
//! socket, the admin listener and its connections, and the broker's
//! [`BbNode`], with no lock, and starts no other thread. What a link does
//! with its bytes — the handshake, frame decode, open, the delivery
//! index, acks, numbering and sealing, requeue when a connection dies,
//! when the dial side dials again — is the link's [`LinkCore`] (DESIGN.md
//! §D26, §D36), one per configured peer. Each iteration the reactor runs
//! the signalling messages its last read sweep decoded, then the local
//! inputs waiting in its `Inbox`, through the broker's one door
//! ([`BbNode::step`], §D34) 32 at a time, and writes each run's outputs
//! to the links before the next run starts, so the next broker works on
//! one run while this one works on the next (§D21). A run's messages go
//! onto the queues the link cores own, and its completions onto the
//! process's [`Completions`] in one hand-off, which wakes a waiter only
//! if one sleeps (§D33). The rest of a link's life runs on the same
//! thread:
//!
//! * **connections** are non-blocking from the start (DESIGN.md §D36): a
//!   dial is a non-blocking connect that completes on writability, and
//!   an accepted socket is registered at once. The handshake is a state
//!   of the connection's [`Session`], fed by the same reads as the sealed
//!   frames after it, its messages written by the same writes. An
//!   accepted connection's session runs on its own until the handshake
//!   names the peer, then that peer's core adopts it: the newest session
//!   wins. Its certificate checks and tickets read the broker's protocol
//!   time ([`BbNode::time`]);
//! * **deadlines** bound the poll timeout — no sleeping threads: a
//!   handshake's [`HANDSHAKE_TIMEOUT`], a reconnect's backoff
//!   ([`LinkCore::dial_at`]), and an ack that waited [`ACK_DELAY`] for a
//!   data frame to ride on ([`LinkCore::tick`]). Every time the reactor
//!   reads is one clock's ns: the process-wide `StdClock` that stamps
//!   inputs and the broker's spans, and that it passes to
//!   [`BbNode::step`] (DESIGN.md §D35).
//!
//! The tests below run the link protocol as the reactor drives it, on two
//! [`LinkCore`]s joined by in-memory byte pipes instead of sockets.
//!
//! [`HANDSHAKE_TIMEOUT`]: crate::session::HANDSHAKE_TIMEOUT

use crate::admin::{AdminState, ReactorStatus};
use crate::backoff::Backoff;
use crate::daemon::{Link, LinkWatch, TransportOptions};
use crate::link::{LinkCore, Session, ACK_DELAY};
use crate::queue::Completions;
use crate::resume::TicketIssuer;
use crate::session::{fresh_nonce, Handshake};
use crossbeam::channel::{Receiver, Sender};
use mio::{Events, Interest, Poll, Token, Waker};
use qos_core::channel::{ChannelIdentity, PeerPin};
use qos_core::messages::SignalMessage;
use qos_core::node::{BbNode, Completion};
use qos_core::rar::RarId;
use qos_core::{Input, PeerId};
use qos_telemetry::admin::{parse_request, render_response_into, HttpError};
use qos_telemetry::{
    Counter, EventFamily, FlightEvent, FlightRecorder, Gauge, Histogram, StdClock, Telemetry,
};
use qos_wire::BufferPool;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Token of the accept listener.
const TOKEN_LISTENER: Token = Token(0);
/// Token of the cross-thread waker (the daemon builds the [`Waker`]
/// before handing the poll to the reactor).
pub(crate) const TOKEN_WAKER: Token = Token(1);
/// Token of the admin-plane listener (`bbd --admin`).
const TOKEN_ADMIN: Token = Token(2);
/// First token handed to a peer or admin connection.
const TOKEN_BASE: usize = 3;

/// How many queued messages one write batch takes.
const MAX_WRITE_BATCH: usize = 64;
/// Reads per readiness event before yielding to other connections
/// (level-triggered polling re-reports leftover data immediately).
const MAX_READS_PER_EVENT: usize = 16;

/// Control messages into the reactor (paired with a waker ring).
pub(crate) enum Ctrl {
    /// Sever every live connection (fault injection), then answer: by
    /// then no link reads as connected.
    Kill(Sender<()>),
    /// Exit the event loop.
    Shutdown,
}

/// The local inputs on their way to the reactor: `submit`, `submit_all`
/// and `tunnel_flow` push here, and the reactor takes them all once per
/// iteration. A push wakes the reactor only when it swaps
/// `parked` from true to false; the reactor sets the flag, then looks at
/// the inbox once more before it polls, so a push either lands before
/// that look or finds the flag set (the inbox's mutex orders the two).
/// Not the [`Ctrl`] channel: its `send` signals a condition variable every
/// time, and one wake per sub-flow costs more than the sub-flow.
pub(crate) struct Inbox {
    inputs: Mutex<Vec<Input>>,
    parked: AtomicBool,
    waker: Arc<Waker>,
    /// Inputs waiting (`shard_queue_depth`) and the most that ever did
    /// (`bb_mailbox_depth_peak`).
    depth: Gauge,
    peak: Gauge,
}

impl Inbox {
    pub(crate) fn new(waker: Arc<Waker>, telemetry: &Telemetry, domain: &str) -> Self {
        let dl: &[(&str, &str)] = &[("domain", domain)];
        Self {
            inputs: Mutex::new(Vec::new()),
            parked: AtomicBool::new(false),
            waker,
            depth: telemetry.gauge(
                "shard_queue_depth",
                "Local inputs waiting in the broker's inbox",
                dl,
            ),
            peak: telemetry.gauge(
                "bb_mailbox_depth_peak",
                "Peak number of local inputs waiting in the broker's inbox",
                dl,
            ),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Input>> {
        self.inputs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue `inputs` in order, and wake the reactor if it is parked.
    pub(crate) fn push(&self, inputs: impl IntoIterator<Item = Input>) {
        let depth = {
            let mut g = self.lock();
            g.extend(inputs);
            g.len() as i64
        };
        self.depth.set(depth);
        self.peak.record_max(depth);
        if self.parked.swap(false, SeqCst) {
            let _ = self.waker.wake();
        }
    }

    /// Inputs waiting (the `/healthz` queue depth).
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Move every waiting input onto the end of `into`.
    fn take(&self, into: &mut Vec<Input>) {
        into.append(&mut self.lock());
        self.depth.set(0);
    }

    /// The reactor is about to poll: from now a push wakes it. False, and
    /// not parked, when an input is already waiting.
    fn park(&self) -> bool {
        self.parked.store(true, SeqCst);
        let idle = self.lock().is_empty();
        if !idle {
            self.parked.store(false, SeqCst);
        }
        idle
    }

    /// The poll returned: pushes need not wake the reactor.
    fn unpark(&self) {
        self.parked.store(false, SeqCst);
    }
}

/// A non-blocking socket registered with the poll: a peering or an admin
/// connection.
struct Sock {
    stream: TcpStream,
    fd: RawFd,
    token: usize,
    /// Registered for writability: the socket would not take everything,
    /// or its connect is under way.
    want_write: bool,
}

impl Sock {
    /// Make `stream` non-blocking and register it under `token`, for
    /// readability and, if `connecting`, writability (a non-blocking
    /// connect completes on it); `None` (and the socket closed) when
    /// either fails.
    fn register(stream: TcpStream, poll: &Poll, token: usize, connecting: bool) -> Option<Self> {
        stream.set_nonblocking(true).ok()?;
        // Signalling frames are small and latency-bound; never let Nagle
        // hold one back waiting for an ACK.
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let interest = if connecting {
            Interest::READABLE | Interest::WRITABLE
        } else {
            Interest::READABLE
        };
        poll.register(fd, Token(token), interest).ok()?;
        Some(Self {
            stream,
            fd,
            token,
            want_write: connecting,
        })
    }

    /// Write `buf` until the socket would block, then have the poll
    /// report writability exactly while bytes remain. Returns how many
    /// bytes the socket took, or `None` when the connection must die.
    fn write(&mut self, poll: &Poll, buf: &[u8]) -> Option<usize> {
        let mut n = 0;
        while n < buf.len() {
            match self.stream.write(&buf[n..]) {
                Ok(0) => return None,
                Ok(k) => n += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return None,
            }
        }
        let want_write = n < buf.len();
        if want_write != self.want_write {
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            poll.reregister(self.fd, Token(self.token), interest).ok()?;
            self.want_write = want_write;
        }
        Some(n)
    }

    /// Stop polling the socket and close it both ways.
    fn close(self, poll: &Poll) {
        let _ = poll.deregister(self.fd);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// One configured peer: its link core, where it is dialed (on the dial
/// side), and the connection carrying the link's session while one is up
/// or under way.
struct Peer {
    core: LinkCore,
    addr: Option<SocketAddr>,
    conn: Option<Conn>,
}

/// One peering connection.
struct Conn {
    sock: Sock,
    /// A dial whose connect has not completed yet: the link's handshake
    /// starts when it does.
    connecting: bool,
}

/// An accepted connection whose handshake has not named its peer yet.
struct Accepting {
    sock: Sock,
    session: Session,
}

/// Have `core` seal what its queue holds, `max_batch` messages at a
/// time (none for 0: only what is sealed already goes), and write it
/// until the socket would block. Returns false when the connection must
/// die.
fn write_out(poll: &Poll, core: &mut LinkCore, sock: &mut Sock, max_batch: usize) -> bool {
    loop {
        let out = core.bytes_out(max_batch);
        // Even with nothing to write: the socket's write interest follows.
        let Some(n) = sock.write(poll, out) else {
            return false;
        };
        let drained = n == out.len();
        let empty = out.is_empty();
        core.sent(n);
        if empty || !drained {
            return true;
        }
    }
}

/// Queue what the link to `peer` decoded for the broker.
fn deliver(pending: &mut Vec<Input>, peer: &PeerId, msgs: Vec<SignalMessage>) {
    let enqueued_ns = StdClock::now();
    pending.extend(
        msgs.into_iter()
            .map(|msg| Input::peer(PeerId::clone(peer), msg, enqueued_ns)),
    );
}

/// Write what every connected link's queue holds, `max_batch` messages a
/// batch, then seal and write the acks that are due at `now` with nothing
/// to ride on, and end the handshakes whose deadline has come. Notes the
/// token of every connection that must die in `dead`; returns the
/// soonest ack or handshake deadline left.
fn sweep(
    poll: &Poll,
    peers: &mut HashMap<String, Peer>,
    now: u64,
    max_batch: usize,
    dead: &mut Vec<usize>,
) -> Option<u64> {
    let mut soonest: Option<u64> = None;
    for Peer { core, conn, .. } in peers.values_mut() {
        let Some(Conn {
            sock, connecting, ..
        }) = conn
        else {
            continue;
        };
        if *connecting {
            continue;
        }
        let mut alive = write_out(poll, core, sock, max_batch);
        if alive {
            let (sealed, due) = core.tick(now);
            alive = core.is_up() && (!sealed || write_out(poll, core, sock, 0));
            soonest = soonest.into_iter().chain(due).min();
        }
        if !alive {
            dead.push(sock.token);
        }
    }
    soonest
}

/// One admin-plane HTTP connection: plain text, one GET, one response,
/// close. Admin sockets share the reactor's token space and poll with
/// the peering connections — observability rides the same event loop it
/// observes, so there is no second thread to wedge independently.
struct AdminConn {
    sock: Sock,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    written: usize,
    /// A response has been rendered; once flushed, the conn closes.
    responded: bool,
}

/// Everything the reactor needs to run; built by
/// [`BrokerDaemon::start`](crate::daemon::BrokerDaemon::start).
pub(crate) struct ReactorConfig {
    pub domain: String,
    pub poll: Poll,
    pub waker: Arc<Waker>,
    pub listener: Option<TcpListener>,
    pub identity: Arc<ChannelIdentity>,
    /// Accept-side pins (expected dialing peers).
    pub accept_pins: Arc<HashMap<String, PeerPin>>,
    /// Dial-side targets: peer domain → (address, pin).
    pub connect_to: HashMap<String, (SocketAddr, PeerPin)>,
    pub links: Arc<HashMap<String, Link>>,
    /// Signalled wherever a link's `connected` flag flips.
    pub watch: Arc<LinkWatch>,
    /// Where `submit` and its kin leave the broker's local inputs.
    pub inbox: Arc<Inbox>,
    /// Where the broker's completions go.
    pub completions: Arc<Completions>,
    pub options: TransportOptions,
    pub issuer: Option<Arc<TicketIssuer>>,
    pub ctrl_rx: Receiver<Ctrl>,
    pub telemetry: Telemetry,
    /// Admin-plane listener and routing state (`bbd --admin`).
    pub admin: Option<(TcpListener, Arc<AdminState>)>,
    /// Poll-loop vitals shared with `/healthz`.
    pub status: Arc<ReactorStatus>,
}

pub(crate) struct Reactor {
    config: ReactorConfig,
    /// The domain's broker.
    node: BbNode,
    /// The domain, interned once: every completion carries a clone.
    domain: PeerId,
    /// Inputs to run: what the last read sweep decoded, then the inbox.
    pending: Vec<Input>,
    /// Time running inputs (`shard_busy_ns_total`), and from the start
    /// of an iteration's last link sweep to the poll's return
    /// (`shard_idle_ns_total`): one clock read serves the sweep's ack
    /// deadlines and the park.
    busy: Counter,
    idle: Counter,
    /// When each submission still in flight was submitted, while
    /// `bb_completion_latency_ns` is recorded.
    submitted_ns: HashMap<RarId, u64>,
    completion_latency: Histogram,
    /// Every configured peer (same keys as `config.links`).
    peers: HashMap<String, Peer>,
    /// Which peer a peering connection's token belongs to.
    tokens: HashMap<usize, String>,
    /// Accepted connections still in a handshake that has not named the
    /// peer, by token.
    accepting: HashMap<usize, Accepting>,
    next_token: usize,
    /// Reactor-scoped chunk pool feeding every connection's decoder.
    pool: BufferPool,
    pool_in_use: Gauge,
    pool_fallbacks: Counter,
    /// Pool fallback count already published to `pool_fallbacks`.
    pool_fallbacks_seen: u64,
    wakeups: Counter,
    ready_events: Counter,
    flight: Option<Arc<FlightRecorder>>,
    admin_conns: HashMap<usize, AdminConn>,
    /// Response buffer recycled from closed admin connections into new
    /// ones, so a steady scrape loop stops allocating per request.
    admin_spare: Vec<u8>,
    /// Scratch the `/metrics` exposition body renders into, reused
    /// across scrapes.
    admin_body: String,
    sweep_ns: Histogram,
    stall_total: Counter,
}

impl Reactor {
    pub(crate) fn new(node: BbNode, mut config: ReactorConfig) -> Self {
        // Wall-clock nanoseconds name this process's life on its links:
        // a restarted daemon starts later than the one it replaces.
        let life = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(1, |d| d.as_nanos() as u64)
            .max(1);
        // One chunk per live connection in steady state, with headroom
        // for a straddling partial frame per link; exhaustion is safe
        // (owned-buffer fallback) and counted.
        let pool = BufferPool::new(config.links.len() * 2 + 4);
        let mut connect_to = std::mem::take(&mut config.connect_to);
        let ReactorConfig {
            domain,
            telemetry,
            options,
            ..
        } = &config;
        let peers = config
            .links
            .keys()
            .map(|peer| {
                let mut core = LinkCore::new(
                    telemetry,
                    domain,
                    peer,
                    life,
                    options.max_frame,
                    pool.clone(),
                );
                let addr = connect_to.remove(peer).map(|(addr, pin)| {
                    let backoff = Backoff::new(options.backoff_base, options.backoff_cap);
                    core.dial_to(pin, options.resume, backoff);
                    addr
                });
                let peer_state = Peer {
                    core,
                    addr,
                    conn: None,
                };
                (peer.clone(), peer_state)
            })
            .collect();
        let dl: &[(&str, &str)] = &[("domain", domain)];
        let wakeups = telemetry.counter(
            "reactor_wakeups_total",
            "Times the reactor's poll returned (events, timer, or waker)",
            dl,
        );
        let ready_events = telemetry.counter(
            "reactor_ready_events_total",
            "Readiness events delivered to the reactor",
            dl,
        );
        let sweep_ns = telemetry.histogram(
            "reactor_sweep_ns",
            "Duration of one reactor sweep (poll return to next poll)",
            dl,
        );
        let stall_total = telemetry.counter(
            "reactor_stall_total",
            "Reactor sweeps that exceeded the stall threshold",
            dl,
        );
        let pool_in_use = telemetry.gauge(
            "buffer_pool_chunks_in_use",
            "Pooled read chunks currently handed out to connection decoders",
            dl,
        );
        let pool_fallbacks = telemetry.counter(
            "buffer_pool_fallbacks_total",
            "Owned-buffer fallbacks (pool exhausted or frame larger than a chunk)",
            dl,
        );
        let busy = telemetry.counter(
            "shard_busy_ns_total",
            "Accumulated time the broker spent running inputs",
            dl,
        );
        let idle = telemetry.counter(
            "shard_idle_ns_total",
            "Accumulated time the broker's reactor spent parked in its poll",
            dl,
        );
        let completion_latency = telemetry.histogram(
            "bb_completion_latency_ns",
            "Submit-to-completion latency at the source broker",
            dl,
        );
        let flight = telemetry.flight().cloned();
        let domain = PeerId::from(domain.as_str());
        Self {
            config,
            node,
            domain,
            pending: Vec::new(),
            busy,
            idle,
            submitted_ns: HashMap::new(),
            completion_latency,
            peers,
            tokens: HashMap::new(),
            accepting: HashMap::new(),
            next_token: TOKEN_BASE,
            pool,
            pool_in_use,
            pool_fallbacks,
            pool_fallbacks_seen: 0,
            wakeups,
            ready_events,
            flight,
            admin_conns: HashMap::new(),
            admin_spare: Vec::new(),
            admin_body: String::new(),
            sweep_ns,
            stall_total,
        }
    }

    /// The event loop. Returns the broker when a [`Ctrl::Shutdown`]
    /// arrives.
    pub(crate) fn run(mut self) -> BbNode {
        for (listener, token, what) in [
            (self.config.listener.as_ref(), TOKEN_LISTENER, "accept"),
            (self.admin_listener(), TOKEN_ADMIN, "admin"),
        ] {
            if let Some(listener) = listener {
                listener
                    .set_nonblocking(true)
                    .unwrap_or_else(|e| panic!("nonblocking {what} listener: {e}"));
                self.config
                    .poll
                    .register(listener.as_raw_fd(), token, Interest::READABLE)
                    .unwrap_or_else(|e| panic!("register {what} listener: {e}"));
            }
        }
        let mut events = Events::with_capacity(256);
        // Start of the current sweep (the work from a poll's return to
        // the last link sweep before the next). Timed into
        // `reactor_sweep_ns`; a sweep past the stall threshold bumps
        // `reactor_stall_total` and leaves an anomaly event in the
        // flight recorder.
        let mut sweep_started: Option<u64> = None;
        loop {
            // 1. Control: kill/stop.
            while let Ok(ctrl) = self.config.ctrl_rx.try_recv() {
                match ctrl {
                    Ctrl::Kill(done) => {
                        let tokens: Vec<usize> = self
                            .tokens
                            .keys()
                            .chain(self.accepting.keys())
                            .copied()
                            .collect();
                        for t in tokens {
                            self.kill_conn(t);
                        }
                        let _ = done.send(());
                    }
                    Ctrl::Shutdown => {
                        // Run what waits, so shutdown strands no input,
                        // and settle every debt, so no peer is left
                        // holding frames we have and counting them as
                        // retransmitted when the socket closes under it.
                        // Nothing queued is sealed: a peer would admit it
                        // and hold state for replies nobody reads.
                        self.run_pending(false);
                        self.sweep_links(StdClock::now() + ACK_DELAY, 0);
                        return self.node;
                    }
                }
            }
            // 2. Dials that are due.
            self.fire_dials();
            // 3. Run the inputs, writing each run's outputs as it ends.
            self.run_pending(true);
            // 4. Seal what is queued and write it, then send the acks
            //    that waited out `ACK_DELAY` with nothing to ride on, and
            //    end the handshakes that ran out of time.
            let now = StdClock::now();
            let deadline = self.sweep_links(now, MAX_WRITE_BATCH);
            // 5. Wait for readiness, a deadline, or the waker — or only
            //    look, if an input came in meanwhile: from the park on, a
            //    push wakes the poll. The sweep is timed up to step 4;
            //    the poll wait itself (idle time) is not a stall.
            if let Some(t0) = sweep_started.take() {
                self.note_sweep(now.saturating_sub(t0));
            }
            self.publish_pool_metrics();
            let timeout = if self.config.inbox.park() {
                self.peers
                    .values()
                    .filter(|p| p.conn.is_none())
                    .filter_map(|p| p.core.dial_at())
                    .chain(deadline)
                    .map(|at| Duration::from_nanos(at.saturating_sub(now)))
                    .min()
            } else {
                Some(Duration::ZERO)
            };
            let polled = self.config.poll.poll(&mut events, timeout);
            self.config.inbox.unpark();
            let woke = StdClock::now();
            self.idle.add(woke.saturating_sub(now));
            if polled.is_err() {
                continue;
            }
            self.config.status.beat();
            sweep_started = Some(woke);
            self.wakeups.inc();
            self.ready_events.add(events.len() as u64);
            // 6. I/O: what the reads decode waits in `pending` for step 3.
            for ev in events.iter() {
                match ev.token() {
                    TOKEN_WAKER => self.config.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(woke),
                    TOKEN_ADMIN => self.accept_admin(),
                    Token(t) if self.admin_conns.contains_key(&t) => {
                        if !self.admin_io(t, ev.is_readable()) {
                            self.kill_admin(t);
                        }
                    }
                    Token(t) if self.accepting.contains_key(&t) => {
                        if !self.accept_io(t, ev.is_readable(), woke) {
                            self.kill_conn(t);
                        }
                    }
                    Token(t) => {
                        let alive = (!ev.is_writable() || self.conn_write(t, woke))
                            && (!ev.is_readable() || self.conn_read(t, woke));
                        if !alive {
                            self.kill_conn(t);
                        }
                    }
                }
            }
        }
    }

    /// Run what the last read sweep decoded and what waits in the inbox
    /// through the broker, a run at a time, and route each run's outputs;
    /// with `write`, write them to the links before the next run starts.
    fn run_pending(&mut self, write: bool) {
        self.config.inbox.take(&mut self.pending);
        if self.pending.is_empty() {
            return;
        }
        let Self {
            config,
            node,
            domain,
            pending,
            peers,
            busy,
            submitted_ns,
            completion_latency,
            ..
        } = self;
        if config.telemetry.is_enabled() {
            for input in pending.iter() {
                if let Input::Submit(rar, _, at) = input {
                    submitted_ns.insert(rar.res_spec().rar_id, *at);
                }
            }
        }
        let mut dead = Vec::new();
        node.step(pending, &StdClock, busy, |deliveries, completions| {
            let now = StdClock::now();
            let wrote = !deliveries.is_empty();
            // `user:<domain>` is the link to that domain; a message for a
            // peer with no link is dropped.
            for (to, msg) in deliveries.drain(..) {
                let to = to.strip_prefix("user:").unwrap_or(&to);
                if let Some(peer) = peers.get_mut(to) {
                    peer.core.push(&msg);
                }
            }
            for c in completions.iter() {
                if let Completion::Reservation { rar_id, .. } = c {
                    if let Some(t0) = submitted_ns.remove(rar_id) {
                        completion_latency.observe(now.saturating_sub(t0));
                    }
                }
            }
            config.completions.push(domain, completions);
            if write && wrote {
                sweep(&config.poll, peers, now, MAX_WRITE_BATCH, &mut dead);
            }
        });
        for t in dead {
            self.kill_conn(t);
        }
    }

    /// Mirror the buffer pool's internal counters into the registry
    /// (once per sweep — the pool itself stays telemetry-free so
    /// `qos_wire` keeps zero dependencies).
    fn publish_pool_metrics(&mut self) {
        self.pool_in_use.set(self.pool.chunks_in_use() as i64);
        let fallbacks = self.pool.fallbacks();
        if fallbacks > self.pool_fallbacks_seen {
            self.pool_fallbacks
                .add(fallbacks - self.pool_fallbacks_seen);
            self.pool_fallbacks_seen = fallbacks;
        }
    }

    /// Leave an event in the flight recorder, if there is one.
    fn record(&self, family: EventFamily, label: &str, detail: impl Into<String>) {
        if let Some(flight) = &self.flight {
            flight
                .record(FlightEvent::new(family, self.config.domain.clone(), label).detail(detail));
        }
    }

    /// Account one completed poll-to-poll sweep: histogram always, and
    /// on a stall bump the counter and leave an anomaly flight event so
    /// `/flight` dumps show *when* the loop was held, not just that it
    /// happened.
    fn note_sweep(&self, dur_ns: u64) {
        self.sweep_ns.observe(dur_ns);
        if self.config.status.note_sweep(dur_ns) {
            self.stall_total.inc();
            let held = format!("sweep held the event loop {} ms", dur_ns / 1_000_000);
            self.record(EventFamily::Anomaly, "reactor_stall", held);
        }
    }

    fn admin_listener(&self) -> Option<&TcpListener> {
        self.config.admin.as_ref().map(|(listener, _)| listener)
    }

    /// Accept every pending admin connection. Admin sockets draw from
    /// the same token space as peering connections; `admin_conns`
    /// membership is what routes their events.
    fn accept_admin(&mut self) {
        while let Some(Ok((stream, _))) = self.admin_listener().map(TcpListener::accept) {
            let token = self.next_token;
            self.next_token += 1;
            let Some(sock) = Sock::register(stream, &self.config.poll, token, false) else {
                continue;
            };
            let conn = AdminConn {
                sock,
                inbuf: Vec::new(),
                outbuf: std::mem::take(&mut self.admin_spare),
                written: 0,
                responded: false,
            };
            self.admin_conns.insert(token, conn);
        }
    }

    /// Drive one admin connection: read until the request head is
    /// complete, render the route's response, flush, close. Returns
    /// false when the connection is finished (served or broken).
    fn admin_io(&mut self, token: usize, readable: bool) -> bool {
        let Some(conn) = self.admin_conns.get_mut(&token) else {
            return false;
        };
        if readable && !conn.responded {
            let mut buf = [0u8; 4096];
            loop {
                match conn.sock.stream.read(&mut buf) {
                    Ok(0) => return false, // peer gone before a request
                    Ok(n) => {
                        conn.inbuf.extend_from_slice(&buf[..n]);
                        if conn.inbuf.len() >= qos_telemetry::admin::MAX_REQUEST_HEAD {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            let text = qos_telemetry::admin::content_type::TEXT;
            match (parse_request(&conn.inbuf), &self.config.admin) {
                (Ok(None), _) => {} // head incomplete; wait for more bytes
                (Ok(Some(req)), admin) => {
                    let endpoint = match admin {
                        Some((_, state)) => state.respond_into(
                            &req,
                            &self.node,
                            &mut self.admin_body,
                            &mut conn.outbuf,
                        ),
                        None => {
                            conn.outbuf.clear();
                            let body = "admin plane not configured\n";
                            render_response_into(&mut conn.outbuf, 503, text, body);
                            "other"
                        }
                    };
                    conn.responded = true;
                    let labels = &[
                        ("domain", self.config.domain.as_str()),
                        ("endpoint", endpoint),
                    ];
                    self.config
                        .telemetry
                        .counter(
                            "admin_requests_total",
                            "Admin-plane HTTP requests served, by endpoint",
                            labels,
                        )
                        .inc();
                }
                (Err(err), _) => {
                    let body = match err {
                        HttpError::HeadTooLarge => "request head too large\n",
                        HttpError::Malformed => "malformed HTTP request\n",
                    };
                    conn.outbuf.clear();
                    render_response_into(&mut conn.outbuf, 400, text, body);
                    conn.responded = true;
                }
            }
        }
        // Flush whatever the response has left, on any event.
        let Some(n) = conn
            .sock
            .write(&self.config.poll, &conn.outbuf[conn.written..])
        else {
            return false;
        };
        conn.written += n;
        // Fully flushed: one response per connection, so close.
        !(conn.responded && conn.written == conn.outbuf.len())
    }

    fn kill_admin(&mut self, token: usize) {
        if let Some(mut conn) = self.admin_conns.remove(&token) {
            // Recycle the grown response buffer for the next scrape.
            if conn.outbuf.capacity() > self.admin_spare.capacity() {
                conn.outbuf.clear();
                self.admin_spare = std::mem::take(&mut conn.outbuf);
            }
            conn.sock.close(&self.config.poll);
        }
    }

    /// [`sweep`] every link, end the accepted handshakes whose deadline
    /// has come, and tear down the connections that died. Returns the
    /// soonest ack or handshake deadline left.
    fn sweep_links(&mut self, now: u64, max_batch: usize) -> Option<u64> {
        let mut dead = Vec::new();
        let mut soonest = sweep(
            &self.config.poll,
            &mut self.peers,
            now,
            max_batch,
            &mut dead,
        );
        for (token, a) in &self.accepting {
            let deadline = a.session.deadline().expect("a handshake under way");
            if deadline <= now {
                dead.push(*token);
            } else {
                soonest = soonest.into_iter().chain([deadline]).min();
            }
        }
        for t in dead {
            self.kill_conn(t);
        }
        soonest
    }

    /// Start a non-blocking connect for every dial-side link whose next
    /// dial is due.
    fn fire_dials(&mut self) {
        let now = StdClock::now();
        let due: Vec<String> = self
            .peers
            .iter()
            .filter(|(_, p)| p.conn.is_none() && p.core.dial_at().is_some_and(|at| at <= now))
            .map(|(name, _)| name.clone())
            .collect();
        for name in due {
            let token = self.next_token;
            let peer = self.peers.get_mut(&name).expect("a configured peer");
            let addr = peer.addr.expect("a dial-side link");
            let sock = mio::net::connect(addr)
                .ok()
                .and_then(|stream| Sock::register(stream, &self.config.poll, token, true));
            let Some(sock) = sock else {
                if let Some(delay) = peer.core.lost(now) {
                    self.backed_off(&name, delay);
                }
                continue;
            };
            self.next_token += 1;
            peer.conn = Some(Conn {
                sock,
                connecting: true,
            });
            self.tokens.insert(token, name);
        }
    }

    /// A dial attempt failed; the link backs off `delay` before the next.
    fn backed_off(&self, peer: &str, delay: Duration) {
        self.record(
            EventFamily::HandshakeFail,
            peer,
            "dial or initiator handshake failed",
        );
        let retry = format!("retry in {} ms", delay.as_millis());
        self.record(EventFamily::Backoff, peer, retry);
    }

    /// Accept every pending inbound connection, non-blocking at once, its
    /// responder handshake waiting for the peer's first message.
    fn accept_ready(&mut self, now: u64) {
        while let Some(Ok((stream, _))) = self.config.listener.as_ref().map(TcpListener::accept) {
            let token = self.next_token;
            self.next_token += 1;
            let Some(sock) = Sock::register(stream, &self.config.poll, token, false) else {
                continue;
            };
            let hs = Handshake::accept(
                Arc::clone(&self.config.identity),
                Arc::clone(&self.config.accept_pins),
                self.config.issuer.clone(),
                fresh_nonce(),
                self.node.time(),
            );
            let session = Session::new(hs, now, self.pool.clone());
            self.accepting.insert(token, Accepting { sock, session });
        }
    }

    /// Drive an accepted connection's handshake: take what the socket
    /// has, write the answers, and hand the session to its peer's core
    /// once it opens. Returns false when the connection must die.
    fn accept_io(&mut self, token: usize, readable: bool, now: u64) -> bool {
        let Some(Accepting { sock, session, .. }) = self.accepting.get_mut(&token) else {
            return true;
        };
        // Handshake messages are small: one read an event, and the poll
        // reports what is left.
        if readable {
            match sock.stream.read(session.read_buf()) {
                Ok(0) => return false,
                Ok(n) => match session.bytes_in(n) {
                    Err(_) => return false,
                    Ok(true) => return self.install(token, now),
                    Ok(false) => {}
                },
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => return false,
            }
        }
        let Some(n) = sock.write(&self.config.poll, session.pending()) else {
            return false;
        };
        session.sent(n, |_| {});
        true
    }

    /// An accepted connection's handshake named its peer and opened: the
    /// peer's core adopts the session. A crossed dial or a stale socket
    /// dies with its unsent frames re-queued: the newest session wins.
    /// Returns false when the connection must die.
    fn install(&mut self, token: usize, now: u64) -> bool {
        let Some(Accepting { sock, session }) = self.accepting.remove(&token) else {
            return true;
        };
        let name = session.peer().expect("an open session").to_string();
        if !self.peers.contains_key(&name) {
            // Not a configured peer: close it.
            sock.close(&self.config.poll);
            return true;
        }
        if let Some(old) = self.peers[&name].conn.as_ref().map(|c| c.sock.token) {
            self.kill_conn(old);
        }
        let peer = self.peers.get_mut(&name).expect("a configured peer");
        peer.core.adopt(session, now);
        peer.core.take_opened();
        peer.conn = Some(Conn {
            sock,
            connecting: false,
        });
        // Frames that came in behind the handshake; the sweep writes the
        // handshake's last answer and our sync.
        let mut msgs = Vec::new();
        let alive = peer.core.bytes_in(0, now, &mut msgs);
        deliver(&mut self.pending, peer.core.peer(), msgs);
        self.config
            .watch
            .set_connected(&self.config.links[&name], true);
        self.tokens.insert(token, name);
        alive
    }

    /// Tear one connection down: an accepted one still in its handshake
    /// just closes; otherwise the link's core re-queues what the peer may
    /// not have, and a dial-side link goes back on the dial path — at
    /// once if its session had opened, after its backoff if not.
    fn kill_conn(&mut self, token: usize) {
        if let Some(a) = self.accepting.remove(&token) {
            a.sock.close(&self.config.poll);
            // The dialer retries; record the refusal here so a storm of
            // bad handshakes is visible from the accept side too.
            self.record(
                EventFamily::HandshakeFail,
                "accept",
                "responder handshake failed",
            );
            return;
        }
        let Some(name) = self.tokens.remove(&token) else {
            return;
        };
        let peer = self.peers.get_mut(&name).expect("a configured peer");
        let Some(conn) = peer.conn.take() else {
            return;
        };
        let backoff = peer.core.lost(StdClock::now());
        conn.sock.close(&self.config.poll);
        self.config
            .watch
            .set_connected(&self.config.links[&name], false);
        if let Some(delay) = backoff {
            self.backed_off(&name, delay);
        }
    }

    /// Drain readable data into the link's core and queue the messages
    /// it decodes for the broker. Returns false when the connection must
    /// die (EOF, I/O error, or whatever the core refuses); the messages
    /// decoded before that are still run.
    fn conn_read(&mut self, token: usize, now: u64) -> bool {
        let Self {
            tokens,
            peers,
            pending,
            ..
        } = self;
        let Some(name) = tokens.get(&token) else {
            return true; // stale event for a killed conn
        };
        let Some(Peer {
            core,
            conn: Some(conn),
            ..
        }) = peers.get_mut(name)
        else {
            return true;
        };
        if conn.connecting {
            return true; // the connect's end is a write event
        }
        let mut msgs: Vec<SignalMessage> = Vec::new();
        let mut alive = true;
        for _ in 0..MAX_READS_PER_EVENT {
            let buf = core.read_buf();
            let cap = buf.len();
            let n = match conn.sock.stream.read(buf) {
                Ok(0) => 0,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => 0,
            };
            alive = n > 0 && core.bytes_in(n, now, &mut msgs);
            if !alive || n < cap {
                break; // dead, or a short read: the socket is drained
            }
        }
        deliver(pending, core.peer(), msgs);
        if core.take_opened().is_some() {
            self.config
                .watch
                .set_connected(&self.config.links[name], true);
        }
        alive
    }

    /// The socket has room again: a dial's connect completed (or failed),
    /// and its handshake starts; or what the link has sealed can go. What
    /// is still queued waits for the sweep that ends this iteration.
    fn conn_write(&mut self, token: usize, now: u64) -> bool {
        let Self {
            config,
            node,
            peers,
            tokens,
            ..
        } = self;
        let Some(Peer {
            core,
            conn: Some(conn),
            ..
        }) = tokens.get(&token).and_then(|name| peers.get_mut(name))
        else {
            return true;
        };
        if conn.connecting {
            // `SO_ERROR`: whether the non-blocking connect succeeded.
            if !matches!(conn.sock.stream.take_error(), Ok(None)) {
                return false;
            }
            conn.connecting = false;
            let identity = Arc::clone(&config.identity);
            core.dial(identity, fresh_nonce(), now, node.time());
        }
        write_out(&config.poll, core, &mut conn.sock, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{
        ack_frame, le_u64, sync_frame, Inbound, LinkReliability, DATA_HEADER, FRAME_ACK,
        FRAME_DATA, FRAME_SYNC, UNNUMBERED,
    };
    use crate::proto::SEAL_OVERHEAD;
    use crate::session::{broker_pin, HandshakeKind, HANDSHAKE_TIMEOUT};
    use proptest::prelude::*;
    use qos_core::channel::{OpenHalf, SealHalf, SecureChannel};
    use qos_core::messages::TunnelFlowRelease;
    use qos_core::RarId;
    use qos_crypto::{
        Certificate, CertificateAuthority, DistinguishedName, KeyPair, PublicKey, Timestamp,
        Validity,
    };
    use qos_telemetry::Registry;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::OnceLock;

    /// An inbox whose waker rings `poll`.
    fn inbox() -> (Poll, Inbox) {
        let poll = Poll::new().expect("a poll");
        let waker = Arc::new(Waker::new(&poll, TOKEN_WAKER).expect("a waker"));
        (poll, Inbox::new(waker, &Telemetry::disabled(), "a"))
    }

    fn set_time(t: u64) -> Input {
        Input::SetTime(qos_crypto::Timestamp(t))
    }

    #[test]
    fn a_push_while_the_reactor_is_awake_rings_nothing() {
        let (mut poll, inbox) = inbox();
        inbox.push([set_time(1)]);
        inbox.push([set_time(2), set_time(3)]);
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::ZERO)).expect("poll");
        assert!(events.is_empty(), "the waker was rung");
        assert_eq!(inbox.len(), 3);
        // The reactor's look before it parks finds them, and it stays
        // awake.
        assert!(!inbox.park(), "the reactor parked on waiting inputs");
        inbox.push([set_time(4)]);
        poll.poll(&mut events, Some(Duration::ZERO)).expect("poll");
        assert!(events.is_empty(), "the waker was rung");
        let mut taken = Vec::new();
        inbox.take(&mut taken);
        assert_eq!((taken.len(), inbox.len()), (4, 0));
    }

    #[test]
    fn a_push_between_the_drain_and_the_poll_ends_the_poll_at_once() {
        let (mut poll, inbox) = inbox();
        // The reactor drains the inbox, finds nothing new and parks; a
        // push lands before it reaches its poll.
        inbox.take(&mut Vec::new());
        assert!(inbox.park());
        inbox.push([set_time(1)]);
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_secs(30)))
            .expect("poll");
        let tokens: Vec<Token> = events.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, [TOKEN_WAKER], "the poll slept through a push");
        // Awake again, the reactor drains the waker, and a push now
        // rings nothing.
        inbox.unpark();
        inbox.waker.drain();
        inbox.push([set_time(2)]);
        poll.poll(&mut events, Some(Duration::ZERO)).expect("poll");
        assert!(events.is_empty(), "the waker was rung");
        assert_eq!(inbox.len(), 2);
    }

    /// A fresh life for every link state a test builds.
    fn life() -> u64 {
        static LIVES: AtomicU64 = AtomicU64::new(1);
        LIVES.fetch_add(1, SeqCst)
    }

    /// A link's reliability state with a live duplicate counter and
    /// window gauge.
    fn reliability() -> (LinkReliability, Counter, Gauge) {
        let duplicates = Counter::from_arc(Arc::new(AtomicU64::new(0)));
        let window = Telemetry::with_registry(Registry::new()).gauge("window", "", &[]);
        (
            LinkReliability::new(life(), duplicates.clone(), window.clone()),
            duplicates,
            window,
        )
    }

    /// A data frame as it is on the wire.
    fn data(index: u64, ack: u64, body: &[u8]) -> Vec<u8> {
        let mut out = vec![FRAME_DATA];
        out.extend_from_slice(&index.to_le_bytes());
        out.extend_from_slice(&ack.to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// A data frame as the sink queues it: header blank.
    fn queued(body: &[u8]) -> Vec<u8> {
        data(UNNUMBERED, 0, body)
    }

    fn index_of(frame: &[u8]) -> u64 {
        le_u64(&frame[1..9])
    }

    fn ack_of(frame: &[u8]) -> u64 {
        le_u64(&frame[9..DATA_HEADER])
    }

    /// Seal `n` frames and have the socket accept them: indices
    /// `tx_next..tx_next + n` sit in the unacked window, body = index.
    fn send(rel: &mut LinkReliability, n: u64) {
        for _ in 0..n {
            let mut frame = queued(&[rel.tx_next as u8]);
            rel.stamp(&mut frame);
            rel.retain_accepted(index_of(&frame), frame);
        }
    }

    fn bodies(frames: Vec<Vec<u8>>) -> Vec<u8> {
        frames.iter().map(|f| f[DATA_HEADER]).collect()
    }

    /// The rule that makes a reply cache unnecessary: a retransmitted
    /// data frame never gets past the link.
    #[test]
    fn data_frame_below_the_watermark_is_dropped_and_counted() {
        let (mut rel, duplicates, _) = reliability();
        let now = 0;
        for i in 0..3 {
            assert_eq!(rel.accept(&data(i, 0, b"msg"), now), Inbound::Data(b"msg"));
        }
        assert_eq!(rel.rx_next, 3);
        assert_eq!(duplicates.get(), 0);
        // A reconnecting peer retransmits 1 and 2, then sends 3.
        assert_eq!(rel.accept(&data(1, 0, b"msg"), now), Inbound::Duplicate(1));
        assert_eq!(rel.accept(&data(2, 0, b"msg"), now), Inbound::Duplicate(2));
        assert_eq!(duplicates.get(), 2);
        assert_eq!(rel.rx_next, 3, "a duplicate moves nothing");
        assert_eq!(rel.accept(&data(3, 0, b"new"), now), Inbound::Data(b"new"));
        // A gap is fine: the watermark jumps.
        assert_eq!(rel.accept(&data(7, 0, b""), now), Inbound::Data(b""));
        assert_eq!(rel.rx_next, 8);
    }

    #[test]
    fn ack_prunes_the_unacked_window_and_never_moves_backwards() {
        let (mut rel, _, window) = reliability();
        let now = 0;
        send(&mut rel, 5);
        assert_eq!(window.get(), 5);
        assert_eq!(rel.accept(&ack_frame(3), now), Inbound::Control);
        assert_eq!(window.get(), 2);
        // A late, lower ack changes nothing…
        assert_eq!(rel.accept(&ack_frame(1), now), Inbound::Control);
        // …so a frame the peer already acknowledged is not retained again.
        rel.retain_accepted(2, queued(&[2]));
        assert_eq!(bodies(rel.drain_unacked()), [3, 4]);
        assert_eq!(window.get(), 0);
        assert_eq!(rel.drain_unacked(), Vec::<Vec<u8>>::new());
    }

    /// TCP's delayed ack: the data frame going back anyway carries it.
    #[test]
    fn an_ack_carried_by_a_data_frame_prunes_the_window_even_on_a_duplicate() {
        let (mut rel, duplicates, window) = reliability();
        let now = 0;
        send(&mut rel, 6);
        assert_eq!(
            rel.accept(&data(0, 2, b"reply"), now),
            Inbound::Data(b"reply")
        );
        assert_eq!(window.get(), 4, "frames 0 and 1 are acknowledged");
        // The peer retransmits frame 0 with a newer ack: the frame is
        // dropped, what it acknowledges is not.
        assert_eq!(
            rel.accept(&data(0, 5, b"reply"), now),
            Inbound::Duplicate(0)
        );
        assert_eq!(duplicates.get(), 1);
        assert_eq!(bodies(rel.drain_unacked()), [5]);
    }

    #[test]
    fn sync_from_a_restarted_peer_rewinds_the_watermark() {
        let (mut rel, duplicates, _) = reliability();
        let now = 0;
        assert!(!rel.may_send(), "no data before the peer's sync");
        assert_eq!(rel.accept(&sync_frame(0xA), now), Inbound::Control);
        assert!(rel.may_send());
        for i in 0..5 {
            rel.accept(&data(i, 0, b"old life"), now);
        }
        // Our next session starts unsynced again, owing nothing, and
        // its sync names our life.
        assert_eq!(rel.session_start(), sync_frame(rel.life));
        assert_eq!((rel.may_send(), rel.owed, rel.ack_due), (false, 0, None));
        // A peer that is merely reconnecting is in the life we know:
        // the watermark stays and its retransmits are dropped.
        assert_eq!(rel.accept(&sync_frame(0xA), now), Inbound::Control);
        assert_eq!(rel.rx_next, 5);
        assert_eq!(
            rel.accept(&data(4, 0, b"old life"), now),
            Inbound::Duplicate(4)
        );
        // A peer in a new life restarted and numbers from zero: follow
        // it down, or its fresh frames would be dropped as duplicates.
        assert_eq!(rel.accept(&sync_frame(0xB), now), Inbound::Control);
        assert_eq!(rel.rx_next, 0);
        assert_eq!(
            rel.accept(&data(0, 0, b"new life"), now),
            Inbound::Data(b"new life")
        );
        assert_eq!(duplicates.get(), 1);
    }

    #[test]
    fn short_or_unknown_frames_are_rejected() {
        let (mut rel, _, _) = reliability();
        let now = 0;
        assert_eq!(rel.accept(&[], now), Inbound::Reject);
        // Every tag needs its 8-byte field; a data frame needs two.
        for tag in [FRAME_DATA, FRAME_ACK, FRAME_SYNC] {
            assert_eq!(
                rel.accept(&[tag, 0, 0, 0, 0, 0, 0, 0], now),
                Inbound::Reject
            );
        }
        let mut unknown = data(0, 0, b"msg");
        unknown[0] = 3;
        assert_eq!(rel.accept(&unknown, now), Inbound::Reject);
        assert_eq!(rel.rx_next, 0, "a rejected frame moves nothing");
    }

    #[test]
    fn a_data_frame_shorter_than_its_header_is_rejected_and_moves_nothing() {
        let (mut rel, duplicates, window) = reliability();
        let now = 0;
        send(&mut rel, 3);
        // Index 0, ack 3 — one byte short of the 17-byte header (the
        // 9 bytes that were a whole header before acks rode).
        for len in 9..DATA_HEADER {
            assert_eq!(rel.accept(&data(0, 3, b"")[..len], now), Inbound::Reject);
        }
        // A frame nobody numbered cannot be on the wire.
        assert_eq!(rel.accept(&queued(b"msg"), now), Inbound::Reject);
        assert_eq!((rel.rx_next, rel.owed, rel.ack_due), (0, 0, None));
        assert_eq!((window.get(), duplicates.get()), (3, 0));
        // The whole header and nothing else is an empty message.
        assert_eq!(rel.accept(&data(0, 3, b""), now), Inbound::Data(b""));
        assert_eq!(window.get(), 0);
    }

    #[test]
    fn drain_unacked_returns_frames_in_index_order() {
        let (mut rel, _, _) = reliability();
        rel.retain_accepted(4, queued(&[4]));
        rel.retain_accepted(6, queued(&[6]));
        // Out of order or repeated: not retained (the socket accepts
        // frames in index order; anything else is a stale requeue).
        rel.retain_accepted(5, queued(&[5]));
        rel.retain_accepted(6, queued(&[6]));
        rel.retain_accepted(9, queued(&[9]));
        assert_eq!(bodies(rel.drain_unacked()), [4, 6, 9]);
    }

    /// 31 owed: the ack waits for a ride. 32: it goes alone. A data
    /// frame going out carries it and clears debt and deadline.
    #[test]
    fn the_ack_debt_is_bounded_and_an_outgoing_data_frame_settles_it() {
        let (mut rel, _, _) = reliability();
        let t0 = 0;
        for i in 0..31u64 {
            // Later receipts do not move the deadline: it belongs to
            // the oldest one.
            rel.accept(&data(i, 0, b"m"), t0 + i * 1_000_000);
        }
        assert_eq!((rel.owed, rel.debt_full()), (31, false));
        assert_eq!(rel.ack_due, Some(t0 + ACK_DELAY));
        // A duplicate is owed an ack too: the peer is retransmitting
        // because it has not heard.
        assert_eq!(rel.accept(&data(3, 0, b"m"), t0), Inbound::Duplicate(3));
        assert_eq!((rel.owed, rel.debt_full()), (32, true));
        assert_eq!(ack_frame(rel.take_ack()), ack_frame(31));
        assert_eq!((rel.owed, rel.debt_full(), rel.ack_due), (0, false, None));

        let t1 = t0 + 1_000_000_000;
        rel.accept(&data(31, 0, b"m"), t1);
        assert_eq!((rel.owed, rel.ack_due), (1, Some(t1 + ACK_DELAY)));
        let mut reply = queued(b"reply");
        rel.stamp(&mut reply);
        assert_eq!((index_of(&reply), ack_of(&reply)), (0, 32));
        assert_eq!((rel.owed, rel.ack_due), (0, None));
    }

    /// The messages of the link tests: a sub-flow teardown, whose flow
    /// number is the message's id.
    fn msg(id: u64) -> SignalMessage {
        SignalMessage::TunnelFlowRelease(TunnelFlowRelease::new(RarId(0), id))
    }

    fn id_of(msg: &SignalMessage) -> u64 {
        match msg {
            SignalMessage::TunnelFlowRelease(r) => r.flow,
            other => panic!("not a test message: {other:?}"),
        }
    }

    /// A frame ceiling under which a data frame holds at most three
    /// messages, so that batches are cut into several frames.
    fn max_frame() -> usize {
        let msg_len = qos_wire::to_bytes(&msg(0)).len();
        SEAL_OVERHEAD + DATA_HEADER + 3 * msg_len
    }

    /// Both ends' halves of session `n`, keyed by resumption from one
    /// master secret: a reconnect costs no Schnorr operation.
    fn session(n: u64) -> [(SealHalf, OpenHalf); 2] {
        static CERT: OnceLock<Certificate> = OnceLock::new();
        let cert = CERT.get_or_init(|| {
            let ca_key = KeyPair::from_seed(b"link-ca");
            let mut ca = CertificateAuthority::new(DistinguishedName::authority("CA"), ca_key);
            let key = KeyPair::from_seed(b"peer").public();
            ca.issue_identity(
                DistinguishedName::broker("peer"),
                key,
                Validity::unbounded(),
            )
        });
        [true, false]
            .map(|initiator| SecureChannel::resume(cert.clone(), &[7; 32], n, n, initiator).split())
    }

    /// The two ends' broker identities, `a` and `b`, and their CA's key.
    fn identities() -> &'static (Arc<ChannelIdentity>, Arc<ChannelIdentity>, PublicKey) {
        static IDS: OnceLock<(Arc<ChannelIdentity>, Arc<ChannelIdentity>, PublicKey)> =
            OnceLock::new();
        IDS.get_or_init(|| {
            let mut ca = CertificateAuthority::new(
                DistinguishedName::authority("CA"),
                KeyPair::from_seed(b"link-ca"),
            );
            let mut identity = |domain: &str| {
                let key = KeyPair::from_seed(domain.as_bytes());
                let dn = DistinguishedName::broker(domain);
                let cert = ca.issue_identity(dn, key.public(), Validity::unbounded());
                Arc::new(ChannelIdentity { key, cert })
            };
            let (a, b) = (identity("a"), identity("b"));
            (a, b, ca.public_key())
        })
    }

    /// Two link cores joined by two byte pipes that carry whatever chunk
    /// sizes the test picks: a frame may be split across reads, and one
    /// read may hold several frames.
    struct Pipes {
        cores: [LinkCore; 2],
        /// `wire[x]` carries what end `x` wrote and its peer has not
        /// read yet, oldest first.
        wire: [Vec<u8>; 2],
        /// Ids each end's broker received in its current life, in order.
        delivered: [Vec<u64>; 2],
        sessions: u64,
        pool: BufferPool,
        /// The clock reading (ns) every step of the test is taken at.
        now: u64,
    }

    impl Pipes {
        fn new() -> Self {
            let pool = BufferPool::new(8);
            let mut pipes = Self {
                cores: [Self::end(&pool), Self::end(&pool)],
                wire: [Vec::new(), Vec::new()],
                delivered: [Vec::new(), Vec::new()],
                sessions: 0,
                pool,
                now: 0,
            };
            pipes.connect();
            pipes
        }

        /// One end of a link in a new life, its queue empty.
        fn end(pool: &BufferPool) -> LinkCore {
            let telemetry = Telemetry::disabled();
            LinkCore::new(&telemetry, "a", "b", life(), max_frame(), pool.clone())
        }

        /// Two ends before any handshake, each with the frame ceiling
        /// `max_frame`: end 0 dials end 1.
        fn unconnected(max_frame: usize) -> Self {
            let pool = BufferPool::new(8);
            let end = || {
                let telemetry = Telemetry::disabled();
                LinkCore::new(&telemetry, "a", "b", life(), max_frame, pool.clone())
            };
            let mut cores = [end(), end()];
            let base = Duration::from_millis(1);
            let pin = broker_pin(identities().2, "b");
            cores[0].dial_to(pin, true, Backoff::new(base, 1000 * base));
            Self {
                cores,
                wire: [Vec::new(), Vec::new()],
                delivered: [Vec::new(), Vec::new()],
                sessions: 0,
                pool,
                now: 0,
            }
        }

        /// End 0 dials and end 1 accepts, with `issuer`'s tickets.
        fn handshake(&mut self, issuer: &Arc<TicketIssuer>) {
            let (a, b, ca_key) = identities();
            self.sessions += 1;
            self.wire = [Vec::new(), Vec::new()];
            self.cores[0].dial(a.clone(), self.sessions, self.now, Timestamp::ZERO);
            let pins = HashMap::from([("a".to_string(), broker_pin(*ca_key, "a"))]);
            let hs = Handshake::accept(
                b.clone(),
                Arc::new(pins),
                Some(issuer.clone()),
                self.sessions,
                Timestamp::ZERO,
            );
            self.cores[1].adopt(Session::new(hs, self.now, self.pool.clone()), self.now);
        }

        /// Move bytes both ways, `chunk` at a time, until nothing moves,
        /// end `x`'s pipe carrying at most `cut[x]` more bytes: beyond
        /// that it stalls.
        fn settle(&mut self, mut cut: [usize; 2], chunk: usize) {
            loop {
                let mut moved = false;
                for (x, left) in cut.iter_mut().enumerate() {
                    self.seal(x, usize::MAX);
                    let k = self.cores[x].bytes_out(0).len().min(chunk).min(*left);
                    self.write(x, k);
                    *left -= k;
                    moved |= k > 0;
                    self.read(1 - x, usize::MAX);
                }
                if !moved {
                    return;
                }
            }
        }

        /// The reactor routes a run's message to end `x`'s link.
        fn enqueue(&mut self, x: usize, id: u64) {
            self.cores[x].push(&msg(id));
        }

        /// Both ends take a new session.
        fn connect(&mut self) {
            self.sessions += 1;
            for (core, halves) in self.cores.iter_mut().zip(session(self.sessions)) {
                core.replace_session(Some(halves));
            }
        }

        /// End `x` seals one write batch of at most `max` messages.
        fn seal(&mut self, x: usize, max: usize) {
            self.cores[x].bytes_out(max);
        }

        /// End `x`'s socket takes up to `k` bytes of what it has sealed.
        fn write(&mut self, x: usize, k: usize) {
            let out = self.cores[x].bytes_out(0);
            let k = k.min(out.len());
            self.wire[x].extend_from_slice(&out[..k]);
            self.cores[x].sent(k);
        }

        /// End `x` reads up to `k` bytes off its peer's pipe, then checks
        /// its ack debt, as the reactor's sweep does.
        fn read(&mut self, x: usize, k: usize) {
            let wire = &mut self.wire[1 - x];
            let mut left = k.min(wire.len());
            let mut msgs = Vec::new();
            while left > 0 {
                let buf = self.cores[x].read_buf();
                let n = left.min(buf.len());
                buf[..n].copy_from_slice(&wire[..n]);
                wire.drain(..n);
                left -= n;
                assert!(
                    self.cores[x].bytes_in(n, self.now, &mut msgs),
                    "a well-formed frame was refused"
                );
            }
            self.delivered[x].extend(msgs.iter().map(id_of));
            self.cores[x].tick(self.now);
        }

        /// End `x` acknowledges by a frame of its own whatever it owes,
        /// as it does once `ACK_DELAY` has passed.
        fn ack(&mut self, x: usize) {
            self.cores[x].tick(self.now + ACK_DELAY);
        }

        /// End `x` drops the connection. Its peer reads what was already
        /// on the wire to it (or not: `peer_drains`), then sees the
        /// close. Both reconnect.
        fn sever(&mut self, x: usize, peer_drains: bool) {
            self.cores[x].replace_session(None);
            if peer_drains {
                self.read(1 - x, usize::MAX);
            }
            self.wire = [Vec::new(), Vec::new()];
            self.connect();
        }

        /// End `x`'s process dies and comes back empty: a new life, a new
        /// queue. Its peer sees the close and both reconnect.
        fn restart(&mut self, x: usize) {
            self.cores[x] = Self::end(&self.pool);
            self.sever(1 - x, false);
        }

        /// Everything moves until nothing is left to move: both queues
        /// sealed, written and read, and both debts settled.
        fn quiesce(&mut self) {
            for _ in 0..8 {
                for x in 0..2 {
                    self.seal(x, usize::MAX);
                    self.write(x, usize::MAX);
                    self.read(1 - x, usize::MAX);
                }
                for x in 0..2 {
                    self.ack(x);
                }
            }
        }
    }

    /// The index is given where the frame is sealed, once, and the
    /// messages the queue framed together share it.
    #[test]
    fn the_reactor_numbers_a_frame_the_first_time_it_seals_it() {
        let mut pipes = Pipes::new();
        pipes.quiesce(); // the syncs
        for id in 0..8 {
            pipes.enqueue(0, id);
        }
        // Three messages fill a frame. Two batches with room for one
        // message each still take a whole frame and an index each; the
        // socket takes the first, which the peer never reads. A frame of
        // two waits, unnumbered.
        pipes.seal(0, 1);
        pipes.seal(0, 1);
        assert_eq!(pipes.cores[0].rel.tx_next, 2);
        let two_frames = pipes.cores[0].bytes_out(0).len();
        pipes.write(0, two_frames / 2);
        pipes.sever(0, false);
        // Requeued in front, in order, with the indices they were given;
        // a message queued now joins the open frame behind them, not
        // the numbered one before it.
        pipes.enqueue(0, 8);
        let mut frames = Vec::new();
        assert_eq!(pipes.cores[0].queue.pop_batch(8, &mut frames), 5);
        let indices: Vec<u64> = frames.iter().map(|f| index_of(f)).collect();
        assert_eq!(indices, [0, 1, UNNUMBERED]);
        let lens: Vec<usize> = frames.iter().map(Vec::len).collect();
        assert_eq!(lens, [lens[0]; 3], "three messages a frame");
        for frame in frames.into_iter().rev() {
            pipes.cores[0].queue.push_front(frame);
        }
        // The syncs cross; then one batch takes all three: the numbered
        // frames go again as they were, the fresh one takes one new
        // index, and the peer gets every message once.
        for x in 0..2 {
            pipes.write(x, usize::MAX);
            pipes.read(1 - x, usize::MAX);
        }
        pipes.seal(0, 8);
        assert_eq!(pipes.cores[0].rel.tx_next, 3);
        pipes.quiesce();
        assert_eq!(pipes.delivered[1], (0..9).collect::<Vec<u64>>());
        assert_eq!(pipes.cores[0].rel.tx_next, 3);
    }

    /// A link whose frame ceiling is below a `Hello` (155 bytes) still
    /// completes its handshake, which has a ceiling of its own, and then
    /// carries messages under the link's.
    #[test]
    fn a_link_with_frames_smaller_than_a_hello_completes_its_handshake() {
        let issuer = Arc::new(TicketIssuer::with_key([5; 32], 3600, 16));
        let mut pipes = Pipes::unconnected(128);
        pipes.enqueue(0, 1);
        pipes.enqueue(1, 2);
        pipes.handshake(&issuer);
        pipes.settle([usize::MAX; 2], usize::MAX);
        assert!(pipes.cores.iter().all(LinkCore::is_open));
        pipes.quiesce();
        assert_eq!(pipes.delivered, [vec![2], vec![1]]);
    }

    proptest! {
        // The rules this checks fail rarely when broken (a kept debt:
        // one case in ~15000).
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Random interleavings of enqueue / seal / write / read /
        /// standalone ack / sever-and-reconnect / restart on both ends
        /// of a link, the bytes cut into chunks of any size: within one
        /// life of a receiver every message reaches the broker at most
        /// once and in enqueue order; every message enqueued in the
        /// sender's current life reaches them; and once everything is
        /// acknowledged nothing is retained.
        #[test]
        fn a_link_delivers_exactly_once_in_order_across_kills_and_restarts(
            ops in proptest::collection::vec((0u8..16, 0usize..2, 1usize..5, 1usize..300), 1..160),
        ) {
            let mut pipes = Pipes::new();
            let mut next_id = 0u64;
            // Per sending end: ids enqueued in its current life, and
            // every id its peer's broker ever saw.
            let mut enqueued: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            let mut seen: [HashSet<u64>; 2] = [HashSet::new(), HashSet::new()];
            for (op, x, n, bytes) in ops {
                match op {
                    0..=3 => {
                        for _ in 0..n {
                            pipes.enqueue(x, next_id);
                            enqueued[x].push(next_id);
                            next_id += 1;
                        }
                    }
                    4..=6 => pipes.seal(x, n),
                    7..=9 => pipes.write(x, bytes),
                    10..=12 => pipes.read(x, bytes),
                    13 => pipes.ack(x),
                    14 => pipes.sever(x, bytes % 2 == 0),
                    _ => {
                        // What end `x` had queued is gone with it, what
                        // its broker had seen belongs to a finished life.
                        seen[1 - x].extend(pipes.delivered[x].drain(..));
                        enqueued[x].clear();
                        pipes.restart(x);
                    }
                }
                for delivered in &pipes.delivered {
                    prop_assert!(
                        delivered.windows(2).all(|w| w[0] < w[1]),
                        "reordered or repeated: {:?}", delivered
                    );
                }
            }
            pipes.quiesce();
            for x in 0..2 {
                let delivered = &pipes.delivered[x];
                prop_assert!(delivered.windows(2).all(|w| w[0] < w[1]));
                seen[1 - x].extend(delivered.iter().copied());
                prop_assert!(pipes.cores[x].queue.is_empty(), "left in the queue");
                prop_assert!(pipes.cores[x].bytes_out(0).is_empty(), "left unwritten");
                let rel = &pipes.cores[x].rel;
                prop_assert_eq!(rel.unacked.len(), 0, "acked, yet retained");
                prop_assert_eq!(rel.owed, 0);
            }
            for x in 0..2 {
                for id in &enqueued[x] {
                    prop_assert!(seen[x].contains(id), "message {id} of end {x} was lost");
                }
            }
        }
    }

    proptest! {
        /// Two ends start before the handshake, full or resumed by
        /// ticket, each with messages queued, and each direction's pipe
        /// stalls at a seeded byte inside it (or past it). At the
        /// handshake deadline every end is open or down, never half-open:
        /// both are open with keys that agree both ways, or a dead end
        /// closed the socket and the dial side is retrying. A retry then
        /// connects, and every queued message arrives once, in order.
        #[test]
        fn a_handshake_cut_anywhere_ends_connected_or_retrying(
            resume in any::<bool>(),
            cut in (0usize..900, 0usize..900),
            chunk in 1usize..300,
            queued in (1u64..4, 1u64..4),
        ) {
            let issuer = Arc::new(TicketIssuer::with_key([5; 32], 3600, 16));
            let mut pipes = Pipes::unconnected(max_frame());
            if resume {
                // A first session earns end 0 a ticket end 1 redeems.
                pipes.handshake(&issuer);
                pipes.settle([usize::MAX; 2], usize::MAX);
                prop_assert!(pipes.cores.iter().all(LinkCore::is_open));
                for core in &mut pipes.cores {
                    core.lost(pipes.now);
                    prop_assert_eq!(core.take_opened(), Some(HandshakeKind::Full));
                }
            }
            let mut next_id = 0;
            let mut enqueued: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
            for (x, n) in [(0, queued.0), (1, queued.1)] {
                for _ in 0..n {
                    pipes.enqueue(x, next_id);
                    enqueued[x].push(next_id);
                    next_id += 1;
                }
            }
            pipes.handshake(&issuer);
            pipes.settle([cut.0, cut.1], chunk);
            pipes.now += HANDSHAKE_TIMEOUT;
            for core in &mut pipes.cores {
                core.tick(pipes.now);
            }
            // An end whose handshake died closes the socket; its peer
            // sees the close.
            if pipes.cores.iter().any(|c| !c.is_up()) {
                for core in &mut pipes.cores {
                    core.lost(pipes.now);
                }
            }
            for core in &pipes.cores {
                prop_assert!(core.is_open() || !core.is_up(), "a handshake outlived its deadline");
            }
            prop_assert_eq!(pipes.cores[0].is_open(), pipes.cores[1].is_open(), "half-open");
            if pipes.cores[0].is_open() {
                let kind = if resume { HandshakeKind::Resumed } else { HandshakeKind::Full };
                prop_assert_eq!(pipes.cores[0].take_opened(), Some(kind));
                prop_assert_eq!(pipes.cores[1].take_opened(), Some(kind));
            } else {
                // Retrying: the dial side is back on the dial path.
                let at = pipes.cores[0].dial_at();
                prop_assert!(at.is_some_and(|at| at > pipes.now), "not backing off: {:?}", at);
                pipes.now = at.unwrap_or(pipes.now);
                pipes.handshake(&issuer);
            }
            // The stall ends (or the retry runs uncut).
            pipes.settle([usize::MAX; 2], usize::MAX);
            prop_assert!(pipes.cores.iter().all(LinkCore::is_open), "the retry did not connect");
            pipes.quiesce();
            for (x, sent) in enqueued.iter().enumerate() {
                prop_assert_eq!(&pipes.delivered[1 - x], sent);
            }
        }
    }
}
