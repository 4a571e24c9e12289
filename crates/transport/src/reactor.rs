//! The daemon's event loop: every socket non-blocking under one
//! `epoll`-backed [`mio::Poll`] (vendored stand-in; see `vendor/mio`).
//!
//! One reactor thread per daemon owns the listener, every peering
//! socket, the admin listener and its connections, and the connector
//! retry timers. What a link does with its bytes — frame decode, open,
//! the delivery index, acks, numbering and sealing, requeue when a
//! connection dies — is the link's [`LinkCore`] (DESIGN.md §D26), one per
//! configured peer: the reactor reads a socket into its core, hands the
//! decoded signalling messages to the domain's [`ShardedNode`], and
//! writes out what the core sealed. The broker's worker hands outputs
//! back through the link [`OutQueue`](crate::queue::OutQueue)s and rings
//! the reactor's [`Waker`] when it is parked in its poll. A run of
//! messages, or messages from several sockets at once, go to the
//! broker's queue and its worker; a message that arrives alone — one ready event, one
//! message decoded — is run where it landed
//! ([`ShardedNode::try_run_peer`], DESIGN.md §D20): there is nothing to
//! batch it with and the reactor would otherwise go back to sleep while a
//! worker is woken for it. The rest of a link's life runs on the same
//! thread:
//!
//! * **deadlines** bound the poll timeout — no sleeping threads: a
//!   reconnect's backoff (`retry_at`), and an ack that waited
//!   [`ACK_DELAY`] for a data frame to ride on ([`LinkCore::tick`]);
//! * **handshakes** stay blocking (they are short, bounded by their own
//!   timeout, and involve multi-round-trip protocol logic) but run on
//!   short-lived offload threads that report back through the control
//!   channel and the waker, so the reactor never blocks on one. A new
//!   session replaces whatever the link had: the newest wins.
//!
//! The tests below run the link protocol as the reactor drives it, on two
//! [`LinkCore`]s joined by in-memory byte pipes instead of sockets.

use crate::admin::{AdminState, ReactorStatus};
use crate::backoff::Backoff;
use crate::daemon::{Link, LinkWatch, TcpSink, TransportOptions};
use crate::link::{LinkCore, ACK_DELAY};
use crate::resume::{ResumeTicket, TicketIssuer};
use crate::session::{
    establish_initiator_resumable, establish_responder_resumable, HandshakeKind, Session,
};
use crossbeam::channel::{Receiver, Sender};
use mio::{Events, Interest, Poll, Token, Waker};
use qos_core::channel::{ChannelIdentity, PeerPin};
use qos_core::messages::SignalMessage;
use qos_core::shard::ShardedNode;
use qos_core::PeerId;
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
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

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
    /// A handshake offload thread finished establishing a session.
    Established {
        session: Box<Session>,
        kind: HandshakeKind,
        /// Fresh resumption ticket (dial-side full handshakes only).
        ticket: Option<ResumeTicket>,
        dialed: bool,
        handshake_ns: u64,
    },
    /// A dial attempt failed (connect or handshake).
    DialFailed { peer: String },
    /// Sever every live connection (fault injection), then answer: by
    /// then no link reads as connected.
    Kill(Sender<()>),
    /// Exit the event loop.
    Shutdown,
}

/// A non-blocking socket registered with the poll: a peering or an admin
/// connection.
struct Sock {
    stream: TcpStream,
    fd: RawFd,
    token: usize,
    /// Registered for writability: the socket would not take everything.
    want_write: bool,
}

impl Sock {
    /// Make `stream` non-blocking and register it for readability under
    /// `token`; `None` (and the socket closed) when either fails.
    fn register(stream: TcpStream, poll: &Poll, token: usize) -> Option<Self> {
        stream.set_nonblocking(true).ok()?;
        let fd = stream.as_raw_fd();
        poll.register(fd, Token(token), Interest::READABLE).ok()?;
        Some(Self {
            stream,
            fd,
            token,
            want_write: false,
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
}

/// One configured peer: its link core, and the connection carrying the
/// link's session while one is up.
struct Peer {
    core: LinkCore,
    conn: Option<Conn>,
}

/// One live peering connection.
struct Conn {
    sock: Sock,
    /// We dialed it: the link redials when it dies.
    dialed: bool,
}

/// Have `core` seal what its queue holds, `max_batch` messages at a
/// time (none for 0: only what is sealed already goes), and write it
/// until the socket would block. Returns false when the connection must
/// die.
fn write_out(poll: &Poll, core: &mut LinkCore, sock: &mut Sock, max_batch: usize) -> bool {
    loop {
        let out = core.bytes_out(max_batch);
        if out.is_empty() {
            return true;
        }
        let Some(n) = sock.write(poll, out) else {
            return false;
        };
        let drained = n == out.len();
        core.sent(n);
        if !drained {
            return true;
        }
    }
}

/// Dial-side state for one outbound link.
struct DialState {
    addr: SocketAddr,
    pin: PeerPin,
    backoff: Backoff,
    /// Cached resumption ticket, replaced on every full handshake and
    /// dropped on any connection error.
    ticket: Option<ResumeTicket>,
    /// A dial/handshake attempt is in flight on an offload thread.
    connecting: bool,
    /// Do not dial again before this instant (backoff after a failure).
    retry_at: Option<Instant>,
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
    pub sharded: Arc<ShardedNode>,
    /// Where the outputs of a message the reactor runs itself go.
    pub inline_sink: TcpSink,
    /// True while the reactor may be asleep in its poll; the workers'
    /// sink rings the waker only then.
    pub parked: Arc<AtomicBool>,
    pub options: TransportOptions,
    pub issuer: Option<Arc<TicketIssuer>>,
    pub ctrl_tx: Sender<Ctrl>,
    pub ctrl_rx: Receiver<Ctrl>,
    /// Handshake offload threads, joined by daemon shutdown.
    pub hs_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    pub telemetry: Telemetry,
    /// Admin-plane listener and routing state (`bbd --admin`).
    pub admin: Option<(TcpListener, Arc<AdminState>)>,
    /// Poll-loop vitals shared with `/healthz`.
    pub status: Arc<ReactorStatus>,
}

pub(crate) struct Reactor {
    config: ReactorConfig,
    /// Every configured peer (same keys as `config.links`).
    peers: HashMap<String, Peer>,
    /// Which peer a live peering connection's token belongs to.
    tokens: HashMap<usize, String>,
    dials: HashMap<String, DialState>,
    next_token: usize,
    /// Reactor-scoped chunk pool feeding every link core's decoder.
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
    pub(crate) fn new(mut config: ReactorConfig) -> Self {
        let options = &config.options;
        let dials = std::mem::take(&mut config.connect_to)
            .into_iter()
            .map(|(peer, (addr, pin))| {
                let backoff = Backoff::new(options.backoff_base, options.backoff_cap);
                let dial = DialState {
                    addr,
                    pin,
                    backoff,
                    ticket: None,
                    connecting: false,
                    retry_at: None,
                };
                (peer, dial)
            })
            .collect();
        // Wall-clock nanoseconds name this process's life on its links:
        // a restarted daemon starts later than the one it replaces.
        let life = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(1, |d| d.as_nanos() as u64)
            .max(1);
        // One chunk per live connection in steady state, with headroom
        // for a straddling partial frame per link; exhaustion is safe
        // (owned-buffer fallback) and counted.
        let ReactorConfig {
            domain, telemetry, ..
        } = &config;
        let pool = BufferPool::new(config.links.len() * 2 + 4);
        let peers = config
            .links
            .iter()
            .map(|(peer, link)| {
                let core = LinkCore::new(
                    Arc::clone(&link.queue),
                    telemetry,
                    domain,
                    peer,
                    life,
                    options.max_frame,
                    pool.clone(),
                );
                (peer.clone(), Peer { core, conn: None })
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
        let flight = telemetry.flight().cloned();
        Self {
            config,
            peers,
            tokens: HashMap::new(),
            dials,
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

    /// The event loop. Returns when a [`Ctrl::Shutdown`] arrives.
    pub(crate) fn run(mut self) {
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
        // Start of the current sweep (the work between two poll calls).
        // Timed into `reactor_sweep_ns`; a sweep past the stall
        // threshold bumps `reactor_stall_total` and leaves an anomaly
        // event in the flight recorder.
        let mut sweep_started: Option<u64> = None;
        loop {
            // 1. Control: installed sessions, dial failures, kill/stop.
            while let Ok(ctrl) = self.config.ctrl_rx.try_recv() {
                match ctrl {
                    Ctrl::Established {
                        session,
                        kind,
                        ticket,
                        dialed,
                        handshake_ns,
                    } => self.install(*session, kind, ticket, dialed, handshake_ns),
                    Ctrl::DialFailed { peer } => self.dial_failed(peer),
                    Ctrl::Kill(done) => {
                        let tokens: Vec<usize> = self.tokens.keys().copied().collect();
                        for t in tokens {
                            self.kill_conn(t);
                        }
                        let _ = done.send(());
                    }
                    Ctrl::Shutdown => {
                        // Settle every debt, so no peer is left holding
                        // frames we have and counting them as
                        // retransmitted when the socket closes under it.
                        // Nothing queued is sealed: a peer would admit it
                        // and hold state for replies nobody reads.
                        self.sweep_links(Instant::now() + ACK_DELAY, 0);
                        return;
                    }
                }
            }
            // 2. Dial timers.
            self.fire_dials();
            // 3. Seal queued outbound frames and write them, then send
            //    the acks that waited out `ACK_DELAY` with nothing to
            //    ride on. From here to the poll's return the reactor
            //    counts as parked: a worker's push that the flag's store
            //    does not precede is found by this sweep (the queue's
            //    mutex orders them), and one that comes later sees the
            //    flag and rings.
            self.config.parked.store(true, SeqCst);
            let now = Instant::now();
            let ack_due = self.sweep_links(now, MAX_WRITE_BATCH);
            // 4. Wait for readiness, a deadline, or the waker. The sweep
            //    that just finished is timed here; the poll wait itself
            //    (idle time) is not a stall.
            if let Some(t0) = sweep_started.take() {
                self.note_sweep(StdClock::now().saturating_sub(t0));
            }
            self.publish_pool_metrics();
            let timeout = self
                .dials
                .values()
                .filter(|d| !d.connecting)
                .filter_map(|d| d.retry_at)
                .chain(ack_due)
                .map(|at| at.saturating_duration_since(now))
                .min();
            let polled = self.config.poll.poll(&mut events, timeout);
            self.config.parked.store(false, SeqCst);
            if polled.is_err() {
                continue;
            }
            self.config.status.beat();
            sweep_started = Some(StdClock::now());
            self.wakeups.inc();
            self.ready_events.add(events.len() as u64);
            // 5. I/O. One ready event means whatever it brings arrived
            //    alone; see `conn_read`.
            let lone = events.len() == 1;
            for ev in events.iter() {
                match ev.token() {
                    TOKEN_WAKER => self.config.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_ADMIN => self.accept_admin(),
                    Token(t) if self.admin_conns.contains_key(&t) => {
                        if !self.admin_io(t, ev.is_readable()) {
                            self.kill_admin(t);
                        }
                    }
                    Token(t) => {
                        let alive = (!ev.is_readable() || self.conn_read(t, lone))
                            && (!ev.is_writable() || self.conn_write(t));
                        if !alive {
                            self.kill_conn(t);
                        }
                    }
                }
            }
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
            let Some(sock) = Sock::register(stream, &self.config.poll, token) else {
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
                        Some((_, state)) => {
                            state.respond_into(&req, &mut self.admin_body, &mut conn.outbuf)
                        }
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
            let _ = self.config.poll.deregister(conn.sock.fd);
            let _ = conn.sock.stream.shutdown(std::net::Shutdown::Both);
            // Recycle the grown response buffer for the next scrape.
            if conn.outbuf.capacity() > self.admin_spare.capacity() {
                conn.outbuf.clear();
                self.admin_spare = conn.outbuf;
            }
        }
    }

    /// Write what every connected link's queue holds, `max_batch`
    /// messages a batch, then seal and write the acks that are due at
    /// `now` with nothing to ride on. Returns the soonest ack deadline
    /// left.
    fn sweep_links(&mut self, now: Instant, max_batch: usize) -> Option<Instant> {
        let mut dead: Vec<usize> = Vec::new();
        let mut soonest: Option<Instant> = None;
        for Peer { core, conn } in self.peers.values_mut() {
            let Some(Conn { sock, .. }) = conn else {
                continue;
            };
            let mut alive = write_out(&self.config.poll, core, sock, max_batch);
            if alive {
                let (sealed, due) = core.tick(now);
                alive = !sealed || write_out(&self.config.poll, core, sock, 0);
                soonest = soonest.into_iter().chain(due).min();
            }
            if !alive {
                dead.push(sock.token);
            }
        }
        for t in dead {
            self.kill_conn(t);
        }
        soonest
    }

    /// A dial attempt failed: back off before the next. The cached
    /// resumption ticket stays: a dial failure says nothing about its
    /// validity, and an acceptor restarted from a durable data dir
    /// (DESIGN.md §D13) still honours it. A stale ticket merely
    /// downgrades the next successful dial to a full handshake.
    fn dial_failed(&mut self, peer: String) {
        let Some(d) = self.dials.get_mut(&peer) else {
            return;
        };
        d.connecting = false;
        let delay = d.backoff.next_delay();
        d.retry_at = Some(Instant::now() + delay);
        let failed = "dial or initiator handshake failed";
        self.record(EventFamily::HandshakeFail, &peer, failed);
        let retry = format!("retry in {} ms", delay.as_millis());
        self.record(EventFamily::Backoff, &peer, retry);
    }

    /// Launch a handshake offload thread for every dial-side link that
    /// is unconnected, not mid-attempt, and past its backoff deadline.
    fn fire_dials(&mut self) {
        let now = Instant::now();
        let due: Vec<String> = self
            .dials
            .iter()
            .filter(|(peer, d)| {
                !d.connecting
                    && self.peers[*peer].conn.is_none()
                    && d.retry_at.is_none_or(|at| at <= now)
            })
            .map(|(peer, _)| peer.clone())
            .collect();
        for peer in due {
            self.spawn_dial(&peer);
        }
    }

    fn spawn_dial(&mut self, peer: &str) {
        let Some(d) = self.dials.get_mut(peer) else {
            return;
        };
        d.connecting = true;
        d.retry_at = None;
        let addr = d.addr;
        let pin = d.pin.clone();
        let ticket = d.ticket.clone();
        let identity = Arc::clone(&self.config.identity);
        let options = self.config.options.clone();
        let ctrl = self.config.ctrl_tx.clone();
        let waker = Arc::clone(&self.config.waker);
        let peer = peer.to_string();
        let handle = std::thread::spawn(move || {
            let outcome = TcpStream::connect(addr).ok().and_then(|s| {
                let t0 = StdClock::now();
                establish_initiator_resumable(
                    s,
                    &identity,
                    &pin,
                    options.now,
                    options.max_frame,
                    options.resume,
                    ticket.as_ref(),
                )
                .ok()
                .map(|(session, kind, fresh)| (session, kind, fresh, t0))
            });
            let msg = match outcome {
                Some((session, kind, fresh, t0)) => Ctrl::Established {
                    session: Box::new(session),
                    kind,
                    ticket: fresh,
                    dialed: true,
                    handshake_ns: StdClock::now().saturating_sub(t0),
                },
                None => Ctrl::DialFailed { peer },
            };
            let _ = ctrl.send(msg);
            let _ = waker.wake();
        });
        self.track(handle);
    }

    /// Accept every pending inbound connection and offload its responder
    /// handshake.
    fn accept_ready(&mut self) {
        while let Some(Ok((stream, _))) = self.config.listener.as_ref().map(TcpListener::accept) {
            let identity = Arc::clone(&self.config.identity);
            let pins = Arc::clone(&self.config.accept_pins);
            let issuer = self.config.issuer.clone();
            let options = self.config.options.clone();
            let ctrl = self.config.ctrl_tx.clone();
            let waker = Arc::clone(&self.config.waker);
            let flight = self.flight.clone();
            let domain = self.config.domain.clone();
            let handle = std::thread::spawn(move || {
                // The handshake protocol is blocking; accepted sockets
                // do not inherit the listener's non-blocking flag, but
                // make it explicit.
                if stream.set_nonblocking(false).is_err() {
                    return;
                }
                let t0 = StdClock::now();
                match establish_responder_resumable(
                    stream,
                    &identity,
                    &pins,
                    options.now,
                    options.max_frame,
                    issuer.as_deref(),
                ) {
                    Ok((session, kind)) => {
                        let _ = ctrl.send(Ctrl::Established {
                            session: Box::new(session),
                            kind,
                            ticket: None,
                            dialed: false,
                            handshake_ns: StdClock::now().saturating_sub(t0),
                        });
                        let _ = waker.wake();
                    }
                    Err(_) => {
                        // The dialer retries; record the refusal here so
                        // a storm of bad handshakes is visible from the
                        // accept side too.
                        if let Some(flight) = &flight {
                            flight.record(
                                FlightEvent::new(EventFamily::HandshakeFail, domain, "accept")
                                    .detail("responder handshake failed"),
                            );
                        }
                    }
                }
            });
            self.track(handle);
        }
    }

    /// Remember a handshake offload thread (reaping finished ones so a
    /// long-flapping link cannot accumulate handles without bound).
    fn track(&self, handle: JoinHandle<()>) {
        let mut g = self
            .config
            .hs_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        g.retain(|h| !h.is_finished());
        g.push(handle);
    }

    /// Take over an established session: its socket goes non-blocking
    /// under the poll, its halves into the link's core, which seals the
    /// session's sync.
    fn install(
        &mut self,
        session: Session,
        kind: HandshakeKind,
        ticket: Option<ResumeTicket>,
        dialed: bool,
        handshake_ns: u64,
    ) {
        let Session {
            stream,
            peer,
            seal,
            open,
        } = session;
        // Not a configured peer: dropping the socket closes it.
        let Some(link) = self.config.links.get(&peer) else {
            return;
        };
        link.ins.handshake_ns.observe(handshake_ns);
        if kind == HandshakeKind::Resumed {
            link.ins.resumed.inc();
        }
        if link.established.swap(true, SeqCst) {
            link.ins.reconnects.inc();
            let how = match kind {
                HandshakeKind::Resumed => "resumed handshake",
                HandshakeKind::Full => "full handshake",
            };
            self.record(EventFamily::Reconnect, &peer, how);
        }
        if let Some(d) = self.dials.get_mut(&peer).filter(|_| dialed) {
            d.connecting = false;
            d.retry_at = None;
            d.backoff.reset();
            if ticket.is_some() {
                d.ticket = ticket;
            }
        }
        // A crossed dial/accept or a stale socket: the newest session
        // wins, the old one dies with its unsent frames re-queued.
        if let Some(old) = self.peers[&peer].conn.as_ref().map(|c| c.sock.token) {
            self.kill_conn(old);
        }
        let token = self.next_token;
        self.next_token += 1;
        let Some(mut sock) = Sock::register(stream, &self.config.poll, token) else {
            return;
        };
        let Peer { core, conn } = self.peers.get_mut(&peer).expect("a configured peer");
        core.replace_session(Some((seal, open)));
        let alive = write_out(&self.config.poll, core, &mut sock, 0);
        *conn = Some(Conn { sock, dialed });
        self.config
            .watch
            .set_connected(&self.config.links[&peer], true);
        self.tokens.insert(token, peer);
        if !alive {
            self.kill_conn(token);
        }
    }

    /// Tear one connection down: the link's core re-queues what the peer
    /// may not have, and a dial-side link goes back on the connector path
    /// immediately.
    fn kill_conn(&mut self, token: usize) {
        let Some(name) = self.tokens.remove(&token) else {
            return;
        };
        let peer = self.peers.get_mut(&name).expect("a configured peer");
        let Some(conn) = peer.conn.take() else {
            return;
        };
        peer.core.replace_session(None);
        let _ = self.config.poll.deregister(conn.sock.fd);
        let _ = conn.sock.stream.shutdown(std::net::Shutdown::Both);
        self.config
            .watch
            .set_connected(&self.config.links[&name], false);
        // An established link that died redials at once; backoff only
        // grows while attempts themselves fail.
        if let Some(d) = self.dials.get_mut(&name) {
            if conn.dialed && !d.connecting {
                d.retry_at = Some(Instant::now());
            }
        }
    }

    /// Drain readable data into the link's core and hand the messages it
    /// decodes to the broker. `lone` says this connection's readiness was
    /// the only event of the poll. Returns false when the connection must
    /// die (EOF, I/O error, or whatever the core refuses); the messages
    /// decoded before that are still delivered.
    fn conn_read(&mut self, token: usize, lone: bool) -> bool {
        let Some(name) = self.tokens.get(&token) else {
            return true; // stale event for a killed conn
        };
        let Peer {
            core,
            conn: Some(conn),
        } = self.peers.get_mut(name).expect("a configured peer")
        else {
            return true;
        };
        let now = Instant::now();
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
        let peer = core.peer();
        let now = StdClock::now();
        // A message that arrived alone is run here and now if the broker
        // is idle: nothing could be batch-verified with it, and the
        // alternative is to wake a worker and go to sleep. Its replies
        // wait in the link queues for the sweep this iteration ends in.
        if lone && msgs.len() == 1 {
            let msg = msgs.pop().expect("one message");
            if let Err(msg) = self.config.sharded.try_run_peer(
                PeerId::clone(peer),
                msg,
                now,
                &self.config.inline_sink,
            ) {
                msgs.push(*msg);
            }
        }
        if !msgs.is_empty() {
            // One grouped dispatch per read sweep: the queue sees a
            // contiguous run and the doorbell rings once, not once per
            // frame.
            self.config.sharded.dispatch_peer_all(peer, msgs, now);
        }
        alive
    }

    /// The socket has room again: write what the link has sealed. What
    /// is still queued waits for the sweep that ends this iteration.
    fn conn_write(&mut self, token: usize) -> bool {
        let Some(name) = self.tokens.get(&token) else {
            return true;
        };
        match self.peers.get_mut(name) {
            Some(Peer {
                core,
                conn: Some(conn),
            }) => write_out(&self.config.poll, core, &mut conn.sock, 0),
            _ => true,
        }
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
    use crate::queue::OutQueue;
    use proptest::prelude::*;
    use qos_core::channel::{OpenHalf, SealHalf, SecureChannel};
    use qos_core::messages::TunnelFlowRelease;
    use qos_core::RarId;
    use qos_crypto::{Certificate, CertificateAuthority, DistinguishedName, KeyPair, Validity};
    use qos_telemetry::Registry;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::OnceLock;
    use std::time::Duration;

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
        let now = Instant::now();
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
        let now = Instant::now();
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
        let now = Instant::now();
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
        let now = Instant::now();
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
        let now = Instant::now();
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
        let now = Instant::now();
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
        let t0 = Instant::now();
        for i in 0..31u64 {
            // Later receipts do not move the deadline: it belongs to
            // the oldest one.
            rel.accept(&data(i, 0, b"m"), t0 + Duration::from_millis(i));
        }
        assert_eq!((rel.owed, rel.debt_full()), (31, false));
        assert_eq!(rel.ack_due, Some(t0 + ACK_DELAY));
        // A duplicate is owed an ack too: the peer is retransmitting
        // because it has not heard.
        assert_eq!(rel.accept(&data(3, 0, b"m"), t0), Inbound::Duplicate(3));
        assert_eq!((rel.owed, rel.debt_full()), (32, true));
        assert_eq!(ack_frame(rel.take_ack()), ack_frame(31));
        assert_eq!((rel.owed, rel.debt_full(), rel.ack_due), (0, false, None));

        let t1 = t0 + Duration::from_secs(1);
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

    /// Two link cores, each fed by its own queue, joined by two byte
    /// pipes that carry whatever chunk sizes the test picks: a frame may
    /// be split across reads, and one read may hold several frames.
    struct Pipes {
        cores: [LinkCore; 2],
        queues: [Arc<OutQueue>; 2],
        /// `wire[x]` carries what end `x` wrote and its peer has not
        /// read yet, oldest first.
        wire: [Vec<u8>; 2],
        /// Ids each end's broker received in its current life, in order.
        delivered: [Vec<u64>; 2],
        sessions: u64,
        pool: BufferPool,
        /// The clock reading every step of the test is taken at.
        now: Instant,
    }

    impl Pipes {
        fn new() -> Self {
            let pool = BufferPool::new(8);
            let (a, b) = (Self::end(&pool), Self::end(&pool));
            let mut pipes = Self {
                cores: [a.0, b.0],
                queues: [a.1, b.1],
                wire: [Vec::new(), Vec::new()],
                delivered: [Vec::new(), Vec::new()],
                sessions: 0,
                pool,
                now: Instant::now(),
            };
            pipes.connect();
            pipes
        }

        /// One end of a link in a new life, and its queue.
        fn end(pool: &BufferPool) -> (LinkCore, Arc<OutQueue>) {
            let max_frame = max_frame();
            let queue = Arc::new(OutQueue::new(1024, max_frame));
            let telemetry = Telemetry::disabled();
            let core = LinkCore::new(
                Arc::clone(&queue),
                &telemetry,
                "a",
                "b",
                life(),
                max_frame,
                pool.clone(),
            );
            (core, queue)
        }

        /// `TcpSink::deliver`.
        fn enqueue(&self, x: usize, id: u64) {
            self.queues[x].push(&msg(id));
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
            (self.cores[x], self.queues[x]) = Self::end(&self.pool);
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
        assert_eq!(pipes.queues[0].try_pop_batch(8, &mut frames), Some(5));
        let indices: Vec<u64> = frames.iter().map(|f| index_of(f)).collect();
        assert_eq!(indices, [0, 1, UNNUMBERED]);
        let lens: Vec<usize> = frames.iter().map(Vec::len).collect();
        assert_eq!(lens, [lens[0]; 3], "three messages a frame");
        for frame in frames.into_iter().rev() {
            pipes.queues[0].push_front(frame);
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
                prop_assert!(pipes.queues[x].is_empty(), "left in the queue");
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
}
