//! The daemon's event loop: every socket non-blocking under one
//! `epoll`-backed [`mio::Poll`] (vendored stand-in; see `vendor/mio`).
//!
//! One reactor thread per daemon owns the listener, every peering
//! socket, frame decode ([`PooledFrameDecoder`]) and frame seal
//! ([`SealHalf`]/[`OpenHalf`]), and the connector retry timers. Decoded
//! signalling messages are dispatched into the domain's
//! [`ShardedNode`]; shard workers hand outputs back through the link
//! [`OutQueue`](crate::queue::OutQueue)s and ring the reactor's
//! [`Waker`]. A frame has one way in (DESIGN.md §D19): socket → pooled
//! decode → borrowed [`SealedRef`] parse → MAC check in place →
//! delivery-index check ([`LinkReliability::accept`]) → owned decode →
//! shard queue. The reactor never touches shard state. The rest of a
//! link's life runs on the same thread:
//!
//! * **reconnect backoff** is a deadline (`retry_at`) that bounds the
//!   poll timeout — no sleeping threads;
//! * **writes** seal at write time into a per-connection buffer whose
//!   un-flushed tail is tracked frame-by-frame, and every data frame
//!   carries a per-link delivery index ([`LinkReliability`]): frames
//!   the socket accepted are retained until the peer's cumulative ack
//!   covers them (acceptance is not delivery — a peer killed mid-burst
//!   loses whatever sat unread in its kernel buffer), and when a
//!   connection dies both the unacknowledged and the unsent plaintext
//!   re-queue at the front of the link queue in order. The receiver
//!   skips retransmits it already processed by index, so a reservation
//!   neither evaporates nor double-delivers across reconnects — no
//!   broker ever sees a retransmitted request twice;
//! * **handshakes** stay blocking (they are short, bounded by their own
//!   timeout, and involve multi-round-trip protocol logic) but run on
//!   short-lived offload threads that report back through the control
//!   channel and the waker, so the reactor never blocks on one.

use crate::admin::AdminState;
use crate::backoff::Backoff;
use crate::daemon::{Link, TransportOptions};
use crate::frame::PooledFrameDecoder;
use crate::proto::{encode_sealed_frame_into, FRAME_TAG};
use crate::resume::{ResumeTicket, TicketIssuer};
use crate::session::{
    establish_initiator_resumable, establish_responder_resumable, HandshakeKind, Session,
};
use crossbeam::channel::{Receiver, Sender};
use mio::{Events, Interest, Poll, Token, Waker};
use qos_core::channel::{ChannelIdentity, OpenHalf, PeerPin, SealHalf, SealedRef};
use qos_core::messages::SignalMessage;
use qos_core::shard::ShardedNode;
use qos_crypto::DistinguishedName;
use qos_telemetry::admin::{parse_request, render_response_into, HttpError};
use qos_telemetry::{
    Counter, EventFamily, FlightEvent, FlightRecorder, Gauge, Histogram, StdClock, Telemetry,
};
use qos_wire::BufferPool;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the accept listener.
const TOKEN_LISTENER: Token = Token(0);
/// Token of the cross-thread waker (the daemon builds the [`Waker`]
/// before handing the poll to the reactor).
pub(crate) const TOKEN_WAKER: Token = Token(1);
/// Token of the admin-plane listener (`bbd --admin`).
const TOKEN_ADMIN: Token = Token(2);
/// First token handed to a peer or admin connection.
const TOKEN_BASE: usize = 3;

/// A single poll-to-poll sweep longer than this counts as a reactor
/// stall: something held the event loop (`reactor_stall_total`, plus an
/// anomaly event in the flight recorder).
const REACTOR_STALL_NS: u64 = 250_000_000;

/// How many queued frames one seal sweep takes per link per iteration.
const MAX_WRITE_BATCH: usize = 64;
/// Stop sealing new frames into a connection whose un-flushed buffer is
/// already this large; the link queue keeps the rest (backpressure).
const OUTBUF_HIGH_WATER: usize = 256 * 1024;
/// Reads per readiness event before yielding to other connections
/// (level-triggered polling re-reports leftover data immediately).
const MAX_READS_PER_EVENT: usize = 16;

/// Sealed-plaintext tag: a signalling payload carrying its per-link
/// delivery index (`[tag][u64 index][message]`).
const FRAME_DATA: u8 = 0;
/// Sealed-plaintext tag: cumulative delivery ack (`[tag][u64 rx_next]`)
/// — every data frame with a lower index reached the peer's shards.
const FRAME_ACK: u8 = 1;
/// Sealed-plaintext tag: session-start sync
/// (`[tag][u64 tx_next][u64 rx_next]`) — lets a receiver follow a peer
/// whose counters went backwards (process restart) instead of treating
/// its fresh frames as duplicates.
const FRAME_SYNC: u8 = 2;

/// Per-link reliable-delivery state, surviving connections. Socket
/// acceptance is not delivery: a peer killed mid-burst loses whatever
/// sat unread in its kernel buffer, so accepted frames are retained
/// until the peer's cumulative ack covers them and are re-queued when a
/// connection dies. The receiver drops what it already processed by
/// delivery index.
pub(crate) struct LinkReliability {
    /// Index assigned to the next enqueued data frame. Assignment and
    /// enqueue share this lock (sink side) so queue order equals index
    /// order; the reactor never takes it.
    pub(crate) tx: Mutex<u64>,
    /// Lock-free mirror of `tx` for the reactor's session-start sync
    /// (reading a value one assignment ahead is safe: an index the
    /// peer has seen was necessarily assigned first).
    tx_hwm: std::sync::atomic::AtomicU64,
    /// Accepted-but-unacknowledged frames, in index order.
    unacked: Mutex<Unacked>,
    /// Next data-frame index expected from the peer; lower indices are
    /// retransmits of frames already handed to the shards.
    rx_next: std::sync::atomic::AtomicU64,
    /// `transport_frames_duplicate_total`: retransmits dropped by index.
    duplicates: Counter,
}

/// What the reliability header of one opened frame says to do with it.
#[derive(Debug, PartialEq)]
pub(crate) enum Inbound<'a> {
    /// An ack or a sync: the link state took it, nothing to deliver.
    Control,
    /// A retransmit of the data frame with this index, which the shards
    /// already have: dropped.
    Duplicate(u64),
    /// A new data frame: the encoded signalling message it carries.
    Data(&'a [u8]),
    /// Shorter than its header, or an unknown tag: the connection dies.
    Reject,
}

struct Unacked {
    /// Peer's cumulative ack: every index below it is delivered.
    acked: u64,
    frames: VecDeque<(u64, Vec<u8>)>,
}

impl LinkReliability {
    pub(crate) fn new(duplicates: Counter) -> Self {
        Self {
            tx: Mutex::new(0),
            tx_hwm: std::sync::atomic::AtomicU64::new(0),
            unacked: Mutex::new(Unacked {
                acked: 0,
                frames: VecDeque::new(),
            }),
            rx_next: std::sync::atomic::AtomicU64::new(0),
            duplicates,
        }
    }

    /// Decide one opened (MAC-checked) plaintext by its reliability
    /// header, `[tag][u64]...` — see `FRAME_*`. This is the rule that
    /// keeps a retransmission from ever reaching a broker: a data frame
    /// whose index is below the watermark was already handed to the
    /// shards, so it is counted and dropped here.
    pub(crate) fn accept<'a>(&self, plain: &'a [u8]) -> Inbound<'a> {
        use std::sync::atomic::Ordering::SeqCst;
        if plain.len() < 9 {
            return Inbound::Reject;
        }
        match plain[0] {
            FRAME_ACK => {
                self.note_ack(le_u64(&plain[1..9]));
                Inbound::Control
            }
            FRAME_SYNC => {
                if plain.len() < 17 {
                    return Inbound::Reject;
                }
                let peer_tx = le_u64(&plain[1..9]);
                self.note_ack(le_u64(&plain[9..17]));
                // A peer whose send counter went backwards lost its link
                // state (restart): follow it down, or its fresh frames
                // would be skipped as duplicates.
                if peer_tx < self.rx_next.load(SeqCst) {
                    self.rx_next.store(peer_tx, SeqCst);
                }
                Inbound::Control
            }
            FRAME_DATA => {
                let index = le_u64(&plain[1..9]);
                if index < self.rx_next.load(SeqCst) {
                    self.duplicates.inc();
                    return Inbound::Duplicate(index);
                }
                self.rx_next.store(index + 1, SeqCst);
                Inbound::Data(&plain[9..])
            }
            _ => Inbound::Reject,
        }
    }

    /// Record the post-assignment `tx` value (called under the `tx`
    /// lock by the sink).
    pub(crate) fn note_assigned(&self, next: u64) {
        use std::sync::atomic::Ordering::SeqCst;
        self.tx_hwm.store(next, SeqCst);
    }

    /// Apply a cumulative ack: drop every retained frame below it.
    fn note_ack(&self, acked_to: u64) {
        let mut un = self.unacked.lock().unwrap_or_else(|e| e.into_inner());
        if acked_to > un.acked {
            un.acked = acked_to;
            while un.frames.front().is_some_and(|(i, _)| *i < acked_to) {
                un.frames.pop_front();
            }
        }
    }

    /// Retain a fully-accepted data frame until the peer acks it.
    fn retain_accepted(&self, index: u64, plaintext: Vec<u8>) {
        let mut un = self.unacked.lock().unwrap_or_else(|e| e.into_inner());
        if index >= un.acked && un.frames.back().is_none_or(|(i, _)| *i < index) {
            un.frames.push_back((index, plaintext));
        }
    }

    /// Take every retained frame for retransmission (connection died).
    fn drain_unacked(&self) -> Vec<Vec<u8>> {
        let mut un = self.unacked.lock().unwrap_or_else(|e| e.into_inner());
        un.frames.drain(..).map(|(_, p)| p).collect()
    }
}

/// Frame a signalling message with its per-link delivery index.
pub(crate) fn data_frame(index: u64, msg: &SignalMessage) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + 128);
    out.push(FRAME_DATA);
    out.extend_from_slice(&index.to_le_bytes());
    qos_wire::encode_into(msg, &mut out);
    out
}

fn ack_frame(rx_next: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(FRAME_ACK);
    out.extend_from_slice(&rx_next.to_le_bytes());
    out
}

fn sync_frame(tx_next: u64, rx_next: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.push(FRAME_SYNC);
    out.extend_from_slice(&tx_next.to_le_bytes());
    out.extend_from_slice(&rx_next.to_le_bytes());
    out
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

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

/// One sealed-but-not-fully-flushed frame in a connection's out buffer.
struct Inflight {
    /// Offset into `outbuf` one past this frame's last byte.
    end: usize,
    /// Sealed body bytes (without the length header), for byte counters.
    body_len: usize,
    /// The plaintext, kept until the socket fully accepts the frame so
    /// a dead connection can re-queue it.
    plaintext: Vec<u8>,
}

/// One live peering connection owned by the reactor.
struct Conn {
    peer: String,
    stream: TcpStream,
    fd: RawFd,
    seal: SealHalf,
    open: OpenHalf,
    decoder: PooledFrameDecoder,
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` the socket has accepted.
    written: usize,
    inflight: VecDeque<Inflight>,
    want_write: bool,
    dialed: bool,
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

/// The reactor's self-observation vitals, shared with the admin plane:
/// a heartbeat (monotonic timestamp of the last completed poll) plus
/// sweep/stall counters. `/healthz` reads these to tell a live event
/// loop from a wedged one — which is exactly the situation where the
/// metrics pipeline itself may be silent.
pub(crate) struct ReactorStatus {
    /// Monotonic ns ([`StdClock`]) of the most recent poll return.
    last_beat_ns: AtomicU64,
    sweeps: AtomicU64,
    stalls: AtomicU64,
    max_sweep_ns: AtomicU64,
}

impl ReactorStatus {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            last_beat_ns: AtomicU64::new(StdClock::now()),
            sweeps: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            max_sweep_ns: AtomicU64::new(0),
        })
    }

    /// Stamp the heartbeat (poll returned; the loop is alive).
    fn beat(&self) {
        use std::sync::atomic::Ordering::SeqCst;
        self.last_beat_ns.store(StdClock::now(), SeqCst);
    }

    /// Account one completed sweep; returns true when it stalled.
    fn note_sweep(&self, dur_ns: u64) -> bool {
        use std::sync::atomic::Ordering::SeqCst;
        self.sweeps.fetch_add(1, SeqCst);
        self.max_sweep_ns.fetch_max(dur_ns, SeqCst);
        let stalled = dur_ns >= REACTOR_STALL_NS;
        if stalled {
            self.stalls.fetch_add(1, SeqCst);
        }
        stalled
    }

    /// Nanoseconds since the last poll return. Grows without bound for
    /// a wedged reactor — the `/healthz` staleness signal.
    pub(crate) fn heartbeat_age_ns(&self) -> u64 {
        use std::sync::atomic::Ordering::SeqCst;
        StdClock::now().saturating_sub(self.last_beat_ns.load(SeqCst))
    }

    pub(crate) fn sweeps(&self) -> u64 {
        self.sweeps.load(std::sync::atomic::Ordering::SeqCst)
    }

    pub(crate) fn stalls(&self) -> u64 {
        self.stalls.load(std::sync::atomic::Ordering::SeqCst)
    }

    pub(crate) fn max_sweep_ns(&self) -> u64 {
        self.max_sweep_ns.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// One admin-plane HTTP connection: plain text, one GET, one response,
/// close. Admin sockets share the reactor's token space and poll with
/// the peering connections — observability rides the same event loop it
/// observes, so there is no second thread to wedge independently.
struct AdminConn {
    stream: TcpStream,
    fd: RawFd,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    written: usize,
    /// A response has been rendered; once flushed, the conn closes.
    responded: bool,
    want_write: bool,
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
    pub accept_pins: HashMap<String, PeerPin>,
    /// Dial-side targets: peer domain → (address, pin).
    pub connect_to: HashMap<String, (SocketAddr, PeerPin)>,
    pub links: Arc<HashMap<String, Link>>,
    pub sharded: Arc<ShardedNode>,
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
    domain: String,
    poll: Poll,
    waker: Arc<Waker>,
    listener: Option<TcpListener>,
    identity: Arc<ChannelIdentity>,
    accept_pins: Arc<HashMap<String, PeerPin>>,
    links: Arc<HashMap<String, Link>>,
    sharded: Arc<ShardedNode>,
    options: TransportOptions,
    issuer: Option<Arc<TicketIssuer>>,
    ctrl_tx: Sender<Ctrl>,
    ctrl_rx: Receiver<Ctrl>,
    hs_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    dials: HashMap<String, DialState>,
    conns: HashMap<usize, Conn>,
    by_peer: HashMap<String, usize>,
    next_token: usize,
    scratch: Vec<u8>,
    /// Reactor-scoped chunk pool feeding every connection's
    /// [`PooledFrameDecoder`].
    pool: BufferPool,
    pool_in_use: Gauge,
    pool_fallbacks: Counter,
    /// Pool fallback count already published to `pool_fallbacks`.
    pool_fallbacks_seen: u64,
    wakeups: Counter,
    ready_events: Counter,
    telemetry: Telemetry,
    flight: Option<Arc<FlightRecorder>>,
    admin_listener: Option<TcpListener>,
    admin_state: Option<Arc<AdminState>>,
    admin_conns: HashMap<usize, AdminConn>,
    /// Response buffer recycled from closed admin connections into new
    /// ones, so a steady scrape loop stops allocating per request.
    admin_spare: Vec<u8>,
    /// Scratch the `/metrics` exposition body renders into, reused
    /// across scrapes.
    admin_body: String,
    status: Arc<ReactorStatus>,
    sweep_ns: Histogram,
    stall_total: Counter,
}

impl Reactor {
    pub(crate) fn new(config: ReactorConfig) -> Self {
        let ReactorConfig {
            domain,
            poll,
            waker,
            listener,
            identity,
            accept_pins,
            connect_to,
            links,
            sharded,
            options,
            issuer,
            ctrl_tx,
            ctrl_rx,
            hs_threads,
            telemetry,
            admin,
            status,
        } = config;
        let dials = connect_to
            .into_iter()
            .map(|(peer, (addr, pin))| {
                (
                    peer,
                    DialState {
                        addr,
                        pin,
                        backoff: Backoff::new(options.backoff_base, options.backoff_cap),
                        ticket: None,
                        connecting: false,
                        retry_at: None,
                    },
                )
            })
            .collect();
        let dl: &[(&str, &str)] = &[("domain", &domain)];
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
        // One chunk per live connection in steady state, with headroom
        // for a straddling partial frame per link; exhaustion is safe
        // (owned-buffer fallback) and counted.
        let pool = BufferPool::new(links.len() * 2 + 4);
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
        let (admin_listener, admin_state) = match admin {
            Some((l, s)) => (Some(l), Some(s)),
            None => (None, None),
        };
        Self {
            domain,
            poll,
            waker,
            listener,
            identity,
            accept_pins: Arc::new(accept_pins),
            links,
            sharded,
            options,
            issuer,
            ctrl_tx,
            ctrl_rx,
            hs_threads,
            dials,
            conns: HashMap::new(),
            by_peer: HashMap::new(),
            next_token: TOKEN_BASE,
            scratch: Vec::new(),
            pool,
            pool_in_use,
            pool_fallbacks,
            pool_fallbacks_seen: 0,
            wakeups,
            ready_events,
            telemetry,
            flight,
            admin_listener,
            admin_state,
            admin_conns: HashMap::new(),
            admin_spare: Vec::new(),
            admin_body: String::new(),
            status,
            sweep_ns,
            stall_total,
        }
    }

    /// The event loop. Returns when a [`Ctrl::Shutdown`] arrives.
    pub(crate) fn run(mut self) {
        if let Some(listener) = &self.listener {
            listener
                .set_nonblocking(true)
                .expect("nonblocking accept listener");
            self.poll
                .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)
                .expect("register listener");
        }
        if let Some(listener) = &self.admin_listener {
            listener
                .set_nonblocking(true)
                .expect("nonblocking admin listener");
            self.poll
                .register(listener.as_raw_fd(), TOKEN_ADMIN, Interest::READABLE)
                .expect("register admin listener");
        }
        let mut events = Events::with_capacity(256);
        // Start of the current sweep (the work between two poll calls).
        // Timed into `reactor_sweep_ns`; a sweep past the stall
        // threshold bumps `reactor_stall_total` and leaves an anomaly
        // event in the flight recorder.
        let mut sweep_started: Option<u64> = None;
        loop {
            // 1. Control: installed sessions, dial failures, kill/stop.
            while let Ok(ctrl) = self.ctrl_rx.try_recv() {
                match ctrl {
                    Ctrl::Established {
                        session,
                        kind,
                        ticket,
                        dialed,
                        handshake_ns,
                    } => self.install(*session, kind, ticket, dialed, handshake_ns),
                    Ctrl::DialFailed { peer } => {
                        if let Some(d) = self.dials.get_mut(&peer) {
                            d.connecting = false;
                            // Keep the cached resumption ticket: a dial
                            // failure says nothing about its validity,
                            // and an acceptor restarted from a durable
                            // data dir (DESIGN.md §D13) still honours
                            // it. A stale ticket merely downgrades the
                            // next successful dial to a full handshake.
                            let delay = d.backoff.next_delay();
                            d.retry_at = Some(Instant::now() + delay);
                            if let Some(flight) = &self.flight {
                                flight.record(
                                    FlightEvent::new(
                                        EventFamily::HandshakeFail,
                                        self.domain.clone(),
                                        peer.clone(),
                                    )
                                    .detail("dial or initiator handshake failed"),
                                );
                                flight.record(
                                    FlightEvent::new(
                                        EventFamily::Backoff,
                                        self.domain.clone(),
                                        peer.clone(),
                                    )
                                    .detail(format!("retry in {} ms", delay.as_millis())),
                                );
                            }
                        }
                    }
                    Ctrl::Kill(done) => {
                        self.kill_all();
                        let _ = done.send(());
                    }
                    Ctrl::Shutdown => return,
                }
            }
            // 2. Dial timers.
            self.fire_dials();
            // 3. Seal queued outbound frames and flush.
            self.sweep_outbound();
            // 4. Wait for readiness, a retry deadline, or the waker.
            //    The sweep that just finished is timed here; the poll
            //    wait itself (idle time) is not a stall.
            if let Some(t0) = sweep_started.take() {
                self.note_sweep(StdClock::now().saturating_sub(t0));
            }
            self.publish_pool_metrics();
            let timeout = self.next_deadline();
            if self.poll.poll(&mut events, timeout).is_err() {
                continue;
            }
            self.status.beat();
            sweep_started = Some(StdClock::now());
            self.wakeups.inc();
            self.ready_events.add(events.len() as u64);
            // 5. I/O.
            let mut dead: Vec<usize> = Vec::new();
            let mut dead_admin: Vec<usize> = Vec::new();
            for ev in events.iter() {
                match ev.token() {
                    TOKEN_WAKER => self.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_ADMIN => self.accept_admin(),
                    Token(t) => {
                        if self.admin_conns.contains_key(&t) {
                            if !self.admin_io(t, ev.is_readable(), ev.is_writable()) {
                                dead_admin.push(t);
                            }
                            continue;
                        }
                        if !self.conns.contains_key(&t) {
                            continue; // stale event for a killed conn
                        }
                        let mut alive = true;
                        if ev.is_readable() {
                            alive = self.conn_read(t);
                        }
                        if alive && ev.is_writable() {
                            alive = self.conn_flush(t);
                        }
                        if !alive {
                            dead.push(t);
                        }
                    }
                }
            }
            for t in dead {
                self.kill_conn(t);
            }
            for t in dead_admin {
                self.kill_admin(t);
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

    /// Account one completed poll-to-poll sweep: histogram always, and
    /// on a stall bump the counter and leave an anomaly flight event so
    /// `/flight` dumps show *when* the loop was held, not just that it
    /// happened.
    fn note_sweep(&self, dur_ns: u64) {
        self.sweep_ns.observe(dur_ns);
        if self.status.note_sweep(dur_ns) {
            self.stall_total.inc();
            if let Some(flight) = &self.flight {
                flight.record(
                    FlightEvent::new(EventFamily::Anomaly, self.domain.clone(), "reactor_stall")
                        .detail(format!(
                            "sweep held the event loop {} ms",
                            dur_ns / 1_000_000
                        )),
                );
            }
        }
    }

    /// Accept every pending admin connection. Admin sockets draw from
    /// the same token space as peering connections; `admin_conns`
    /// membership is what routes their events.
    fn accept_admin(&mut self) {
        loop {
            let Some(listener) = &self.admin_listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let fd = stream.as_raw_fd();
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poll
                .register(fd, Token(token), Interest::READABLE)
                .is_err()
            {
                continue;
            }
            self.admin_conns.insert(
                token,
                AdminConn {
                    stream,
                    fd,
                    inbuf: Vec::new(),
                    outbuf: std::mem::take(&mut self.admin_spare),
                    written: 0,
                    responded: false,
                    want_write: false,
                },
            );
        }
    }

    /// Drive one admin connection: read until the request head is
    /// complete, render the route's response, flush, close. Returns
    /// false when the connection is finished (served or broken).
    fn admin_io(&mut self, token: usize, readable: bool, writable: bool) -> bool {
        let Some(conn) = self.admin_conns.get_mut(&token) else {
            return false;
        };
        if readable && !conn.responded {
            let mut buf = [0u8; 4096];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => return false, // peer gone before a request
                    Ok(n) => {
                        conn.inbuf.extend_from_slice(&buf[..n]);
                        if conn.inbuf.len() >= qos_telemetry::admin::MAX_REQUEST_HEAD {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            }
            match parse_request(&conn.inbuf) {
                Ok(None) => {} // head incomplete; wait for more bytes
                Ok(Some(req)) => {
                    let endpoint = match &self.admin_state {
                        Some(state) => {
                            state.respond_into(&req, &mut self.admin_body, &mut conn.outbuf)
                        }
                        None => {
                            conn.outbuf.clear();
                            render_response_into(
                                &mut conn.outbuf,
                                503,
                                qos_telemetry::admin::content_type::TEXT,
                                "admin plane not configured\n",
                            );
                            "other"
                        }
                    };
                    conn.responded = true;
                    self.telemetry
                        .counter(
                            "admin_requests_total",
                            "Admin-plane HTTP requests served, by endpoint",
                            &[("domain", &self.domain), ("endpoint", endpoint)],
                        )
                        .inc();
                }
                Err(err) => {
                    let body = match err {
                        HttpError::HeadTooLarge => "request head too large\n",
                        HttpError::Malformed => "malformed HTTP request\n",
                    };
                    conn.outbuf.clear();
                    render_response_into(
                        &mut conn.outbuf,
                        400,
                        qos_telemetry::admin::content_type::TEXT,
                        body,
                    );
                    conn.responded = true;
                }
            }
        }
        let _ = writable; // flush is attempted whenever we get here
        self.admin_flush(token)
    }

    /// Flush an admin connection's response. Returns false once fully
    /// flushed (close it) or on error; true while bytes remain pending.
    fn admin_flush(&mut self, token: usize) -> bool {
        let Some(conn) = self.admin_conns.get_mut(&token) else {
            return false;
        };
        while conn.written < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.written..]) {
                Ok(0) => return false,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.responded && conn.written == conn.outbuf.len() {
            return false; // response fully flushed: one-shot, close
        }
        let want_write = conn.written < conn.outbuf.len();
        if want_write != conn.want_write {
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if self
                .poll
                .reregister(conn.fd, Token(token), interest)
                .is_err()
            {
                return false;
            }
            conn.want_write = want_write;
        }
        true
    }

    fn kill_admin(&mut self, token: usize) {
        if let Some(mut conn) = self.admin_conns.remove(&token) {
            let _ = self.poll.deregister(conn.fd);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            // Recycle the grown response buffer for the next scrape.
            if conn.outbuf.capacity() > self.admin_spare.capacity() {
                conn.outbuf.clear();
                self.admin_spare = conn.outbuf;
            }
        }
    }

    /// Soonest dial-retry deadline, as a poll timeout.
    fn next_deadline(&self) -> Option<Duration> {
        let now = Instant::now();
        self.dials
            .values()
            .filter(|d| !d.connecting)
            .filter_map(|d| d.retry_at)
            .map(|at| at.saturating_duration_since(now))
            .min()
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
                    && !self.by_peer.contains_key(*peer)
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
        let identity = Arc::clone(&self.identity);
        let options = self.options.clone();
        let ctrl = self.ctrl_tx.clone();
        let waker = Arc::clone(&self.waker);
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
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            };
            let identity = Arc::clone(&self.identity);
            let pins = Arc::clone(&self.accept_pins);
            let issuer = self.issuer.clone();
            let options = self.options.clone();
            let ctrl = self.ctrl_tx.clone();
            let waker = Arc::clone(&self.waker);
            let flight = self.flight.clone();
            let domain = self.domain.clone();
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
        let mut g = self.hs_threads.lock().unwrap_or_else(|e| e.into_inner());
        g.retain(|h| !h.is_finished());
        g.push(handle);
    }

    /// Take ownership of an established session: take it apart, go
    /// non-blocking, and register with the poll.
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
        let Some(link) = self.links.get(&peer) else {
            return;
        };
        link.ins.handshake_ns.observe(handshake_ns);
        if link
            .established
            .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            link.ins.reconnects.inc();
            if let Some(flight) = &self.flight {
                flight.record(
                    FlightEvent::new(EventFamily::Reconnect, self.domain.clone(), peer.clone())
                        .detail(match kind {
                            HandshakeKind::Resumed => "resumed handshake",
                            HandshakeKind::Full => "full handshake",
                        }),
                );
            }
        }
        if kind == HandshakeKind::Resumed {
            link.ins.resumed.inc();
        }
        if dialed {
            if let Some(d) = self.dials.get_mut(&peer) {
                d.connecting = false;
                d.retry_at = None;
                d.backoff.reset();
                if let Some(t) = ticket {
                    d.ticket = Some(t);
                }
            }
        }
        // A crossed dial/accept or a stale socket: the newest session
        // wins, the old one dies with its unsent frames re-queued.
        if let Some(&old) = self.by_peer.get(&peer) {
            self.kill_conn(old);
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poll
            .register(fd, Token(token), Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                peer: peer.clone(),
                stream,
                fd,
                seal,
                open,
                decoder: PooledFrameDecoder::new(self.options.max_frame, self.pool.clone()),
                outbuf: Vec::new(),
                written: 0,
                inflight: VecDeque::new(),
                want_write: false,
                dialed,
            },
        );
        self.by_peer.insert(peer.clone(), token);
        if let Some(link) = self.links.get(&peer) {
            link.connected
                .store(true, std::sync::atomic::Ordering::SeqCst);
        }
        // First frame of every session: sync our delivery counters so
        // the peer can tell a retransmitting reconnect from a restarted
        // process, and prune its retransmit window.
        use std::sync::atomic::Ordering::SeqCst;
        let (tx_next, rx_next) = {
            let rel = &self.links[&peer].reliable;
            (rel.tx_hwm.load(SeqCst), rel.rx_next.load(SeqCst))
        };
        if !self.queue_control(token, sync_frame(tx_next, rx_next)) {
            self.kill_conn(token);
        }
    }

    /// Tear one connection down: re-queue the plaintext of every frame
    /// the socket did not fully accept (front of the link queue, in
    /// order), and put a dial-side link back on the connector path
    /// immediately.
    fn kill_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poll.deregister(conn.fd);
        if self.by_peer.get(&conn.peer) == Some(&token) {
            self.by_peer.remove(&conn.peer);
        }
        if let Some(link) = self.links.get(&conn.peer) {
            link.connected
                .store(false, std::sync::atomic::Ordering::SeqCst);
            // Retransmit set, oldest first: every accepted frame the
            // peer has not acknowledged (it may have died before
            // reading it out of its kernel buffer), then every data
            // frame the socket did not fully accept. The peer skips
            // what it already processed by delivery index. Control
            // frames (acks/syncs) are per-session and die here.
            let written = conn.written;
            let mut requeue: Vec<Vec<u8>> = link.reliable.drain_unacked();
            link.ins.retransmits.add(requeue.len() as u64);
            if !requeue.is_empty() {
                if let Some(flight) = &self.flight {
                    flight.record(
                        FlightEvent::new(
                            EventFamily::Retransmit,
                            self.domain.clone(),
                            conn.peer.clone(),
                        )
                        .detail(format!("{} unacked frames re-queued", requeue.len())),
                    );
                }
            }
            requeue.extend(
                conn.inflight
                    .into_iter()
                    .filter(|f| f.end > written && f.plaintext.first() == Some(&FRAME_DATA))
                    .map(|f| f.plaintext),
            );
            for plaintext in requeue.into_iter().rev() {
                link.queue.push_front(plaintext);
            }
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        if conn.dialed {
            // An established link that died redials at once; backoff
            // only grows while attempts themselves fail.
            if let Some(d) = self.dials.get_mut(&conn.peer) {
                if !d.connecting {
                    d.retry_at = Some(Instant::now());
                }
            }
        }
    }

    fn kill_all(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for t in tokens {
            self.kill_conn(t);
        }
    }

    /// Drain readable data, decode frames, open them in arrival order,
    /// and dispatch the signalling messages into the shards. Returns
    /// false when the connection must die (EOF, I/O error, MAC/ordering
    /// failure, or protocol violation).
    fn conn_read(&mut self, token: usize) -> bool {
        let mut msgs: Vec<SignalMessage> = Vec::new();
        let mut data_frames = 0usize;
        let mut alive = self.read_frames(token, &mut msgs, &mut data_frames);
        if !msgs.is_empty() {
            // One grouped dispatch per read sweep: the shard queues see
            // contiguous runs and the doorbell rings once, not once per
            // frame.
            let peer = self.conns[&token].peer.clone();
            self.sharded.dispatch_peer_all(&peer, msgs, StdClock::now());
        }
        if alive && data_frames > 0 {
            // One cumulative ack per sweep (duplicates included, so a
            // retransmitting peer prunes its window).
            let rx_next = self.links[self.conns[&token].peer.as_str()]
                .reliable
                .rx_next
                .load(std::sync::atomic::Ordering::SeqCst);
            alive = self.queue_control(token, ack_frame(rx_next));
        }
        alive
    }

    /// Drain the socket and decode every complete frame into `msgs`
    /// (DESIGN.md §D15): the socket reads directly into a pooled chunk,
    /// each completed frame is a borrowed slice, the `PeerMsg::Frame`
    /// wrapper parses by reference ([`SealedRef`]), the MAC verifies in
    /// place, and only a new data frame's message is copied out (it must
    /// outlive this sweep to cross the shard queues). Returns false when
    /// the connection is dead (EOF, I/O error, or a protocol violation);
    /// frames decoded before the failure are still delivered by the
    /// caller. `data_frames` counts data frames seen (duplicates
    /// included) so the caller knows to ack.
    fn read_frames(
        &mut self,
        token: usize,
        msgs: &mut Vec<SignalMessage>,
        data_frames: &mut usize,
    ) -> bool {
        let conn = self.conns.get_mut(&token).expect("conn_read on live conn");
        let link = &self.links[conn.peer.as_str()];
        let open = &mut conn.open;
        let stream = &mut conn.stream;
        let dec = &mut conn.decoder;
        for _ in 0..MAX_READS_PER_EVENT {
            let writable = dec.writable();
            let cap = writable.len();
            let n = match stream.read(writable) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            dec.advance(n);
            loop {
                let frame = match dec.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => return false,
                };
                let ins = &link.ins;
                ins.frames_received.inc();
                ins.bytes_received.add(frame.len() as u64);
                // Borrowed PeerMsg parse: an established session only
                // ever carries `Frame`; anything else is terminal.
                let mut r = qos_wire::Reader::new(frame.bytes());
                let sealed = match r.get_u8() {
                    Ok(FRAME_TAG) => {
                        match SealedRef::parse(&mut r).and_then(|s| r.finish().map(|()| s)) {
                            Ok(s) => s,
                            Err(_) => {
                                ins.rejected.inc();
                                return false;
                            }
                        }
                    }
                    _ => {
                        ins.rejected.inc();
                        return false;
                    }
                };
                if open
                    .open_in_place(sealed.payload, sealed.seq, &sealed.mac)
                    .is_err()
                {
                    ins.rejected.inc();
                    return false;
                }
                let body = match link.reliable.accept(sealed.payload) {
                    Inbound::Control => continue,
                    Inbound::Duplicate(index) => {
                        *data_frames += 1;
                        if let Some(flight) = &self.flight {
                            flight.record(
                                FlightEvent::new(
                                    EventFamily::DuplicateDrop,
                                    self.domain.clone(),
                                    conn.peer.clone(),
                                )
                                .detail(format!("retransmit of delivered frame {index}")),
                            );
                        }
                        continue;
                    }
                    Inbound::Data(body) => {
                        *data_frames += 1;
                        body
                    }
                    Inbound::Reject => {
                        ins.rejected.inc();
                        return false;
                    }
                };
                let Ok(msg) = qos_wire::from_bytes_shared::<SignalMessage>(&body.into()) else {
                    ins.rejected.inc();
                    return false;
                };
                msgs.push(msg);
            }
            if n < cap {
                return true; // short read: the socket is drained
            }
        }
        true // cap reached; level-triggered poll re-reports the rest
    }

    /// Seal every waiting outbound frame (up to the buffer high-water
    /// mark) link by link, then flush.
    fn sweep_outbound(&mut self) {
        // Every connected peer has a link; walking the shared link table
        // borrows nothing of `self`, so no list of peers is built per
        // iteration of the event loop.
        let links = Arc::clone(&self.links);
        for (peer, link) in links.iter() {
            let Some(&token) = self.by_peer.get(peer) else {
                continue;
            };
            let mut alive = true;
            loop {
                // Seal one batch; all borrows end before the flush call.
                let sealed_any = {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        break;
                    };
                    if conn.outbuf.len() - conn.written >= OUTBUF_HIGH_WATER {
                        break;
                    }
                    let Some(batch) = link.queue.try_pop_batch(MAX_WRITE_BATCH) else {
                        break; // queue closed (daemon shutting down)
                    };
                    if batch.is_empty() {
                        break;
                    }
                    link.ins.write_batch_frames.observe(batch.len() as u64);
                    if batch.len() > 1 {
                        link.ins.writes_coalesced.inc();
                    }
                    for plaintext in batch {
                        // In-place seal (DESIGN.md §D15): MAC over the
                        // queued plaintext where it lies, wire framing
                        // hand-encoded around it — no plaintext clone,
                        // no owned `Sealed`.
                        let (seq, mac) = conn.seal.seal_in_place(&plaintext);
                        self.scratch.clear();
                        encode_sealed_frame_into(&mut self.scratch, &plaintext, seq, &mac);
                        if self.scratch.len() > self.options.max_frame {
                            // Cannot happen for protocol messages; never
                            // put an oversized frame on the wire.
                            link.ins.dropped.inc();
                            continue;
                        }
                        conn.outbuf
                            .extend_from_slice(&(self.scratch.len() as u32).to_le_bytes());
                        conn.outbuf.extend_from_slice(&self.scratch);
                        conn.inflight.push_back(Inflight {
                            end: conn.outbuf.len(),
                            body_len: self.scratch.len(),
                            plaintext,
                        });
                    }
                    true
                };
                if sealed_any && !self.conn_flush(token) {
                    alive = false;
                    break;
                }
            }
            if alive && !self.conn_flush(token) {
                alive = false;
            }
            if !alive {
                self.kill_conn(token);
            }
        }
    }

    /// Seal a control frame (ack/sync) straight into the connection's
    /// out buffer and flush. Control frames skip the link queue, carry
    /// no delivery index, and are never retransmitted. Returns false
    /// when the connection must die.
    fn queue_control(&mut self, token: usize, plaintext: Vec<u8>) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        let (seq, mac) = conn.seal.seal_in_place(&plaintext);
        self.scratch.clear();
        encode_sealed_frame_into(&mut self.scratch, &plaintext, seq, &mac);
        conn.outbuf
            .extend_from_slice(&(self.scratch.len() as u32).to_le_bytes());
        conn.outbuf.extend_from_slice(&self.scratch);
        conn.inflight.push_back(Inflight {
            end: conn.outbuf.len(),
            body_len: self.scratch.len(),
            plaintext,
        });
        self.conn_flush(token)
    }

    /// Push buffered bytes into the socket until it would block, then
    /// account fully-accepted frames and settle write interest. Returns
    /// false when the connection must die.
    fn conn_flush(&mut self, token: usize) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        while conn.written < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.written..]) {
                Ok(0) => return false,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        let link = &self.links[&conn.peer];
        let ins = &link.ins;
        while let Some(front) = conn.inflight.front() {
            if front.end > conn.written {
                break;
            }
            ins.frames_sent.inc();
            ins.bytes_sent.add(front.body_len as u64);
            let frame = conn.inflight.pop_front().expect("front exists");
            // Socket acceptance is not delivery: retain data plaintext
            // until the peer's cumulative ack covers its index.
            if frame.plaintext.first() == Some(&FRAME_DATA) {
                let index = le_u64(&frame.plaintext[1..9]);
                link.reliable.retain_accepted(index, frame.plaintext);
            }
        }
        if conn.written == conn.outbuf.len() {
            conn.outbuf.clear();
            conn.written = 0;
            debug_assert!(conn.inflight.is_empty());
        }
        let want_write = conn.written < conn.outbuf.len();
        if want_write != conn.want_write {
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if self
                .poll
                .reregister(conn.fd, Token(token), interest)
                .is_err()
            {
                return false;
            }
            conn.want_write = want_write;
        }
        true
    }
}

/// The SLA pin for one peer broker domain (shared by dial and accept
/// link construction in the daemon).
pub(crate) fn broker_pin(ca_key: qos_crypto::PublicKey, peer: &str) -> PeerPin {
    PeerPin {
        ca_key,
        dn: DistinguishedName::broker(peer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;

    /// A link's reliability state with a live duplicate counter.
    fn reliability() -> (LinkReliability, Counter) {
        let duplicates = Counter::from_arc(Arc::new(AtomicU64::new(0)));
        (LinkReliability::new(duplicates.clone()), duplicates)
    }

    fn data(index: u64, body: &[u8]) -> Vec<u8> {
        let mut out = vec![FRAME_DATA];
        out.extend_from_slice(&index.to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// The rule that makes a reply cache unnecessary: a retransmitted
    /// data frame never gets past the link.
    #[test]
    fn data_frame_below_the_watermark_is_dropped_and_counted() {
        let (rel, duplicates) = reliability();
        for i in 0..3 {
            assert_eq!(rel.accept(&data(i, b"msg")), Inbound::Data(b"msg"));
        }
        assert_eq!(rel.rx_next.load(SeqCst), 3);
        assert_eq!(duplicates.get(), 0);
        // A reconnecting peer retransmits 1 and 2, then sends 3.
        assert_eq!(rel.accept(&data(1, b"msg")), Inbound::Duplicate(1));
        assert_eq!(rel.accept(&data(2, b"msg")), Inbound::Duplicate(2));
        assert_eq!(duplicates.get(), 2);
        assert_eq!(rel.rx_next.load(SeqCst), 3, "a duplicate moves nothing");
        assert_eq!(rel.accept(&data(3, b"new")), Inbound::Data(b"new"));
        // A gap is fine: the watermark jumps.
        assert_eq!(rel.accept(&data(7, b"")), Inbound::Data(b""));
        assert_eq!(rel.rx_next.load(SeqCst), 8);
    }

    #[test]
    fn ack_prunes_the_unacked_window_and_never_moves_backwards() {
        let (rel, _) = reliability();
        for i in 0..5u64 {
            rel.retain_accepted(i, vec![i as u8]);
        }
        assert_eq!(rel.accept(&ack_frame(3)), Inbound::Control);
        // A late, lower ack changes nothing…
        assert_eq!(rel.accept(&ack_frame(1)), Inbound::Control);
        // …so a frame the peer already acknowledged is not retained again.
        rel.retain_accepted(2, vec![2]);
        assert_eq!(rel.drain_unacked(), vec![vec![3], vec![4]]);
        assert_eq!(rel.drain_unacked(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn sync_from_a_restarted_peer_rewinds_the_watermark() {
        let (rel, duplicates) = reliability();
        for i in 0..5 {
            rel.accept(&data(i, b"old life"));
        }
        rel.retain_accepted(0, vec![0]);
        rel.retain_accepted(1, vec![1]);
        // A peer that is merely reconnecting has sent at least what we
        // have seen: the watermark stays, its ack prunes our window.
        assert_eq!(rel.accept(&sync_frame(6, 1)), Inbound::Control);
        assert_eq!(rel.rx_next.load(SeqCst), 5);
        assert_eq!(rel.drain_unacked(), vec![vec![1]]);
        // A peer whose send counter went backwards restarted: follow it
        // down, or its fresh frames would be dropped as duplicates.
        assert_eq!(rel.accept(&sync_frame(2, 0)), Inbound::Control);
        assert_eq!(rel.rx_next.load(SeqCst), 2);
        assert_eq!(
            rel.accept(&data(2, b"new life")),
            Inbound::Data(b"new life")
        );
        assert_eq!(duplicates.get(), 0);
    }

    #[test]
    fn short_or_unknown_frames_are_rejected() {
        let (rel, _) = reliability();
        assert_eq!(rel.accept(&[]), Inbound::Reject);
        // Every tag needs its 8-byte field; a sync needs two.
        for tag in [FRAME_DATA, FRAME_ACK, FRAME_SYNC] {
            assert_eq!(rel.accept(&[tag, 0, 0, 0, 0, 0, 0, 0]), Inbound::Reject);
        }
        assert_eq!(rel.accept(&sync_frame(0, 0)[..16]), Inbound::Reject);
        let mut unknown = data(0, b"msg");
        unknown[0] = 3;
        assert_eq!(rel.accept(&unknown), Inbound::Reject);
        assert_eq!(
            rel.rx_next.load(SeqCst),
            0,
            "a rejected frame moves nothing"
        );
    }

    #[test]
    fn drain_unacked_returns_frames_in_index_order() {
        let (rel, _) = reliability();
        rel.retain_accepted(4, vec![4]);
        rel.retain_accepted(6, vec![6]);
        // Out of order or repeated: not retained (the socket accepts
        // frames in index order; anything else is a stale requeue).
        rel.retain_accepted(5, vec![5]);
        rel.retain_accepted(6, vec![6]);
        rel.retain_accepted(9, vec![9]);
        assert_eq!(rel.drain_unacked(), vec![vec![4], vec![6], vec![9]]);
    }
}
