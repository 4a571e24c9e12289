//! One peering link's delivery rules, without I/O (DESIGN.md §D26).
//!
//! A [`LinkCore`] is everything a link between two brokers is except its
//! socket: the delivery state that outlives connections
//! ([`LinkReliability`]: numbering at seal, the retained window, the
//! receive watermark, the ack debt and its deadline, the life/sync
//! handshake) and the session in flight — its cipher halves, its frame
//! decoder, and the sealed-but-unflushed out buffer with the plaintext of
//! every data frame in it. It holds no socket, reads no clock and starts
//! no thread: `life` and `now` are arguments. It has four entry points:
//!
//! * **bytes in** ([`LinkCore::read_buf`], [`LinkCore::bytes_in`]): each
//!   complete frame is decoded where it landed in a pooled chunk
//!   ([`PooledFrameDecoder`]), parsed by reference ([`SealedRef`]), opened
//!   in place, decided by its reliability header
//!   ([`LinkReliability::accept`]), and a new data frame's messages are
//!   decoded from one shared copy of its body, through the link's intern
//!   tables: a name or certificate the link delivered before is shared,
//!   not decoded again (DESIGN.md §D28);
//! * **bytes out** ([`LinkCore::bytes_out`], [`LinkCore::sent`]): a write
//!   batch of the frames the link queue built ([`OutQueue`], DESIGN.md
//!   §D27) is popped, and each is stamped and sealed where it lies; "the
//!   socket took n bytes" retains every fully written data frame until
//!   the peer acknowledges it;
//! * **[`LinkCore::tick`]**: a standalone ack when one is due or the debt
//!   is full, and the next deadline;
//! * **[`LinkCore::replace_session`]**: the dead session's frames go back
//!   to the front of the link queue — the unacknowledged window, then
//!   everything the socket did not take, in order and keeping their
//!   indices — and the new session's halves are installed behind a sync.
//!
//! The reactor drives one core per configured peer over its sockets; the
//! link proptest in `reactor.rs` drives two over in-memory byte pipes, and
//! `exp_alloc_path` counts what two of them allocate per admission.
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use crate::frame::{PooledFrameDecoder, FRAME_HEADER_LEN};
use crate::proto::{encode_sealed_frame_into, FRAME_TAG, SEAL_OVERHEAD};
use crate::queue::OutQueue;
use qos_core::channel::{OpenHalf, SealHalf, SealedRef};
use qos_core::messages::SignalMessage;
use qos_core::PeerId;
use qos_telemetry::{
    Counter, EventFamily, FlightEvent, FlightRecorder, Gauge, Histogram, Telemetry,
};
use qos_wire::{BufferPool, Decode, InternTables};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stop sealing while this much sealed output waits for the socket; the
/// link queue keeps the rest (backpressure).
const OUTBUF_HIGH_WATER: usize = 256 * 1024;

/// A link may owe its peer acknowledgement of this many data frames
/// before it stops waiting for a data frame to carry the ack. Bounds the
/// peer's retransmit window under one-directional bursts.
const ACK_DEBT_MAX: usize = 32;
/// The longest an acknowledgement waits for a data frame to ride on. An
/// idle link therefore retains nothing: a peer that restarts is replayed
/// at most the last `ACK_DELAY` of traffic.
pub(crate) const ACK_DELAY: Duration = Duration::from_millis(5);

/// Sealed-plaintext tag: signalling messages behind one reliability
/// header, `[tag][u64 index][u64 ack][message][message]…` — the frame's
/// per-link delivery index and the sender's cumulative ack for the
/// opposite direction, filled at seal time ([`LinkReliability::stamp`]).
/// The link queue builds the frames as messages are queued ([`OutQueue`]).
pub(crate) const FRAME_DATA: u8 = 0;
/// Length of a data frame's reliability header.
pub(crate) const DATA_HEADER: usize = 17;
/// The index field of a data frame no session has sealed yet. Never on
/// the wire: a received frame carrying it is rejected.
pub(crate) const UNNUMBERED: u64 = u64::MAX;
/// Sealed-plaintext tag: standalone cumulative delivery ack
/// (`[tag][u64 rx_next]`) — every data frame with a lower index reached
/// the peer's broker. Sent when no data frame is going back to carry it.
pub(crate) const FRAME_ACK: u8 = 1;
/// Sealed-plaintext tag: session-start sync (`[tag][u64 life]`), the
/// first frame of every session in both directions. `life` names the
/// sending process's incarnation of this link: a receiver that sees a
/// new one knows the peer restarted and numbers from zero again, instead
/// of treating its fresh frames as duplicates. Nothing else is sent on a
/// session until the peer's sync has arrived, so every ack on a session
/// counts frames of the life the acked end is in.
pub(crate) const FRAME_SYNC: u8 = 2;

/// Per-link reliable-delivery state, surviving connections. Socket
/// acceptance is not delivery: a peer killed mid-burst loses whatever sat
/// unread in its kernel buffer, so accepted frames are retained until the
/// peer's cumulative ack covers them and are re-queued when a connection
/// dies. The receiver drops what it already processed by delivery index.
pub(crate) struct LinkReliability {
    /// Names this incarnation of the link in every sync we send; differs
    /// from every earlier one's.
    pub(crate) life: u64,
    /// The peer life whose frames `rx_next` counts (0: none seen yet).
    peer_life: u64,
    /// Index the next unnumbered data frame takes when it is sealed.
    pub(crate) tx_next: u64,
    /// Peer's cumulative ack: every index below it is delivered.
    acked: u64,
    /// Accepted-but-unacknowledged frames, in index order.
    pub(crate) unacked: VecDeque<(u64, Vec<u8>)>,
    /// Next data-frame index expected from the peer; lower indices are
    /// retransmits of frames already handed to the broker.
    pub(crate) rx_next: u64,
    /// Data frames received (duplicates included, so a retransmitting
    /// peer prunes its window) that nothing sent since acknowledges.
    pub(crate) owed: usize,
    /// When the oldest of them stops waiting for a data frame to ride.
    pub(crate) ack_due: Option<Instant>,
    /// The peer's sync has arrived on the current session. Data is sealed
    /// only then ([`LinkReliability::may_send`]).
    peer_synced: bool,
    /// `transport_frames_duplicate_total`: retransmits dropped by index.
    duplicates: Counter,
    /// `transport_unacked_frames`: the retained window.
    window: Gauge,
}

/// What the reliability header of one opened frame says to do with it.
#[derive(Debug, PartialEq)]
pub(crate) enum Inbound<'a> {
    /// An ack or a sync: the link state took it, nothing to deliver.
    Control,
    /// A retransmit of the data frame with this index, which the broker
    /// already has: dropped.
    Duplicate(u64),
    /// A new data frame: the encoded signalling messages it carries.
    Data(&'a [u8]),
    /// Shorter than its header, or an unknown tag: the connection dies.
    Reject,
}

impl LinkReliability {
    pub(crate) fn new(life: u64, duplicates: Counter, window: Gauge) -> Self {
        Self {
            life,
            peer_life: 0,
            tx_next: 0,
            acked: 0,
            unacked: VecDeque::new(),
            rx_next: 0,
            owed: 0,
            ack_due: None,
            peer_synced: false,
            duplicates,
            window,
        }
    }

    /// Decide one opened (MAC-checked) plaintext by its reliability
    /// header — see `FRAME_*`. This is the rule that keeps a
    /// retransmission from ever reaching a broker: a data frame whose
    /// index is below the watermark was already handed to the broker, so
    /// it is counted and dropped here. The ack a data frame carries is
    /// applied first, duplicate or not.
    pub(crate) fn accept<'a>(&mut self, plain: &'a [u8], now: Instant) -> Inbound<'a> {
        if plain.len() < 9 {
            return Inbound::Reject;
        }
        match plain[0] {
            FRAME_ACK => {
                self.note_ack(le_u64(&plain[1..9]));
                Inbound::Control
            }
            FRAME_SYNC => {
                let life = le_u64(&plain[1..9]);
                // A peer in a new life lost its link state (restart) and
                // numbers from zero: follow it down, or its fresh frames
                // would be skipped as duplicates.
                if life != self.peer_life {
                    self.peer_life = life;
                    self.rx_next = 0;
                }
                self.peer_synced = true;
                Inbound::Control
            }
            FRAME_DATA => {
                if plain.len() < DATA_HEADER {
                    return Inbound::Reject;
                }
                let index = le_u64(&plain[1..9]);
                if index == UNNUMBERED {
                    return Inbound::Reject;
                }
                self.note_ack(le_u64(&plain[9..DATA_HEADER]));
                if self.owed == 0 {
                    self.ack_due = Some(now + ACK_DELAY);
                }
                self.owed += 1;
                if index < self.rx_next {
                    self.duplicates.inc();
                    return Inbound::Duplicate(index);
                }
                self.rx_next = index + 1;
                Inbound::Data(&plain[DATA_HEADER..])
            }
            _ => Inbound::Reject,
        }
    }

    /// Fill a data frame's reliability header as it is sealed: the link's
    /// next index if it has none yet (a frame back from a dead connection
    /// keeps the one it has), and the ack it carries.
    pub(crate) fn stamp(&mut self, plaintext: &mut [u8]) {
        debug_assert_eq!(plaintext[0], FRAME_DATA);
        if le_u64(&plaintext[1..9]) == UNNUMBERED {
            plaintext[1..9].copy_from_slice(&self.tx_next.to_le_bytes());
            self.tx_next += 1;
        }
        plaintext[9..DATA_HEADER].copy_from_slice(&self.take_ack().to_le_bytes());
    }

    /// The cumulative ack a frame leaving now carries. Sending it settles
    /// the debt and its deadline.
    pub(crate) fn take_ack(&mut self) -> u64 {
        self.owed = 0;
        self.ack_due = None;
        self.rx_next
    }

    /// First frame of a session: our life, so the peer can tell a
    /// retransmitting reconnect from a restarted process. What was owed on
    /// the dead session is forgotten: the peer retransmits what it has not
    /// heard about, and that is acknowledged on this one.
    pub(crate) fn session_start(&mut self) -> [u8; 9] {
        self.peer_synced = false;
        self.take_ack();
        sync_frame(self.life)
    }

    /// Whether the session may carry data yet. Until the peer's sync is
    /// in, `rx_next` may count frames of a previous life of the peer, and
    /// an ack stamped from it would tell the restarted peer that frames of
    /// its new life arrived which never did.
    pub(crate) fn may_send(&self) -> bool {
        self.peer_synced
    }

    /// The debt no longer waits for a data frame to carry the ack.
    pub(crate) fn debt_full(&self) -> bool {
        self.owed >= ACK_DEBT_MAX
    }

    /// Apply a cumulative ack: drop every retained frame below it.
    fn note_ack(&mut self, acked_to: u64) {
        if acked_to > self.acked {
            self.acked = acked_to;
            while self.unacked.pop_front_if(|(i, _)| *i < acked_to).is_some() {}
            self.window.set(self.unacked.len() as i64);
        }
    }

    /// Retain a fully-accepted data frame until the peer acks it.
    pub(crate) fn retain_accepted(&mut self, index: u64, plaintext: Vec<u8>) {
        if index >= self.acked && self.unacked.back().is_none_or(|(i, _)| *i < index) {
            self.unacked.push_back((index, plaintext));
            self.window.set(self.unacked.len() as i64);
        }
    }

    /// Take every retained frame for retransmission (connection died).
    pub(crate) fn drain_unacked(&mut self) -> Vec<Vec<u8>> {
        self.window.set(0);
        self.unacked.drain(..).map(|(_, p)| p).collect()
    }
}

pub(crate) fn ack_frame(rx_next: u64) -> [u8; 9] {
    let mut out = [FRAME_ACK; 9];
    out[1..].copy_from_slice(&rx_next.to_le_bytes());
    out
}

pub(crate) fn sync_frame(life: u64) -> [u8; 9] {
    let mut out = [FRAME_SYNC; 9];
    out[1..].copy_from_slice(&life.to_le_bytes());
    out
}

pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

/// One sealed frame of the out buffer the socket has not fully taken.
struct Inflight {
    /// Offset into the out buffer one past this frame's last byte.
    end: usize,
    /// Sealed body bytes (without the length prefix), for byte counters.
    body_len: usize,
    /// A data frame's plaintext, kept so that a dead connection can
    /// re-queue it; `None` for an ack or a sync, which die with their
    /// session.
    data: Option<Vec<u8>>,
}

/// What dies with a connection: the session's cipher halves and the
/// decoder holding whatever partial frame it left.
struct Session {
    seal: SealHalf,
    open: OpenHalf,
    decoder: PooledFrameDecoder,
}

/// What a link core counts (no-ops without a registry).
struct Instruments {
    frames_sent: Counter,
    frames_received: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    dropped: Counter,
    rejected: Counter,
    write_batch_frames: Histogram,
    writes_coalesced: Counter,
    retransmits: Counter,
    acks_standalone: Counter,
}

/// One peering link without its socket: see the module documentation.
pub struct LinkCore {
    /// The peer's domain, interned once: every message the link delivers
    /// carries a clone.
    peer: PeerId,
    /// Where the broker's sinks queue what goes to the peer.
    queue: Arc<OutQueue>,
    pub(crate) rel: LinkReliability,
    /// The live session; `None` between connections.
    session: Option<Session>,
    /// Sealed frames behind their length prefixes; `out[written..]`
    /// waits for the socket. Kept, and reused, across sessions.
    out: Vec<u8>,
    written: usize,
    /// One entry per frame in `out` the socket has not fully taken,
    /// oldest first.
    inflight: VecDeque<Inflight>,
    /// The frames of the batch being sealed; empty between calls, its
    /// allocation kept.
    batch: Vec<Vec<u8>>,
    pool: BufferPool,
    /// The names and certificates this link delivered lately, shared
    /// into every message that carries them again. Outlive sessions.
    tables: InternTables,
    max_frame: usize,
    ins: Instruments,
    domain: String,
    flight: Option<Arc<FlightRecorder>>,
}

impl LinkCore {
    /// The link from `domain` to `peer`, fed by `queue`. `life` names
    /// this incarnation of the link (see `FRAME_SYNC`); `max_frame` bounds
    /// both directions; the decoder of each session reads into chunks of
    /// `pool`.
    pub fn new(
        queue: Arc<OutQueue>,
        telemetry: &Telemetry,
        domain: &str,
        peer: &str,
        life: u64,
        max_frame: usize,
        pool: BufferPool,
    ) -> Self {
        let l: &[(&str, &str)] = &[("domain", domain), ("peer", peer)];
        let counter = |name, help| telemetry.counter(name, help, l);
        let ins = Instruments {
            frames_sent: counter(
                "transport_frames_sent_total",
                "Sealed frames written to the peer socket",
            ),
            frames_received: counter(
                "transport_frames_received_total",
                "Sealed frames read from the peer socket",
            ),
            bytes_sent: counter(
                "transport_bytes_sent_total",
                "Frame payload bytes written to the peer socket",
            ),
            bytes_received: counter(
                "transport_bytes_received_total",
                "Frame payload bytes read from the peer socket",
            ),
            dropped: counter(
                "transport_frames_dropped_total",
                "Outbound messages dropped unsealed for exceeding the frame ceiling",
            ),
            rejected: counter(
                "transport_frames_rejected_total",
                "Inbound frames rejected (bad MAC, replay, undecodable)",
            ),
            write_batch_frames: telemetry.histogram(
                "transport_write_batch_frames",
                "Messages in one popped write batch; each queued frame of it is sealed whole",
                l,
            ),
            writes_coalesced: counter(
                "transport_writes_coalesced_total",
                "Popped write batches that carried more than one message",
            ),
            retransmits: counter(
                "transport_frames_retransmitted_total",
                "Accepted-but-unacknowledged frames re-queued when a connection died",
            ),
            acks_standalone: counter(
                "transport_acks_standalone_total",
                "Ack frames sent on their own: no data frame went back in time to carry the ack",
            ),
        };
        let rel = LinkReliability::new(
            life,
            counter(
                "transport_frames_duplicate_total",
                "Inbound retransmits skipped by delivery index",
            ),
            telemetry.gauge(
                "transport_unacked_frames",
                "Frames the socket accepted that the peer has not acknowledged yet",
                l,
            ),
        );
        Self {
            peer: PeerId::from(peer),
            queue,
            rel,
            session: None,
            // Grows once to the link's largest write and is kept.
            #[allow(clippy::disallowed_methods)]
            out: Vec::new(),
            written: 0,
            inflight: VecDeque::new(),
            // Grows once to the longest batch and is kept.
            #[allow(clippy::disallowed_methods)]
            batch: Vec::new(),
            pool,
            tables: qos_crypto::intern_tables(),
            max_frame,
            ins,
            domain: domain.to_string(),
            flight: telemetry.flight().cloned(),
        }
    }

    /// The peer's domain.
    pub(crate) fn peer(&self) -> &PeerId {
        &self.peer
    }

    /// Bytes in, first half: where the next read lands, the free tail of
    /// the session decoder's pooled chunk. Panics between sessions.
    pub fn read_buf(&mut self) -> &mut [u8] {
        let session = self.session.as_mut().expect("bytes in on a live session");
        session.decoder.writable()
    }

    /// Bytes in, second half: `n` bytes arrived in [`LinkCore::read_buf`].
    /// Every frame they complete is opened and decided, and the messages
    /// of each new data frame are appended to `msgs`, all or none per
    /// frame. Returns false when the connection must die (a frame too
    /// large, a bad MAC or sequence number, an unknown or short header, an
    /// undecodable message); what was decoded before stays in `msgs`.
    pub fn bytes_in(&mut self, n: usize, now: Instant, msgs: &mut Vec<SignalMessage>) -> bool {
        let Some(session) = &mut self.session else {
            return false;
        };
        session.decoder.advance(n);
        loop {
            let frame = match session.decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return true,
                Err(_) => return false,
            };
            self.ins.frames_received.inc();
            self.ins.bytes_received.add(frame.len() as u64);
            // An established session only ever carries `PeerMsg::Frame`.
            let opened = parse_sealed(frame.bytes()).filter(|sealed| {
                session
                    .open
                    .open_in_place(sealed.payload, sealed.seq, &sealed.mac)
                    .is_ok()
            });
            let Some(sealed) = opened else {
                self.ins.rejected.inc();
                return false;
            };
            let well_formed = match self.rel.accept(sealed.payload, now) {
                Inbound::Control => true,
                Inbound::Duplicate(index) => {
                    if let Some(flight) = &self.flight {
                        flight.record(
                            FlightEvent::new(
                                EventFamily::DuplicateDrop,
                                self.domain.clone(),
                                &*self.peer,
                            )
                            .detail(format!("retransmit of delivered frame {index}")),
                        );
                    }
                    true
                }
                Inbound::Data(body) => decode_messages(body, &mut self.tables, msgs),
                Inbound::Reject => false,
            };
            if !well_formed {
                self.ins.rejected.inc();
                return false;
            }
        }
    }

    /// Bytes out: unless the session is waiting for the peer's sync or
    /// the socket is behind by [`OUTBUF_HIGH_WATER`], pop one batch of
    /// queued frames holding at most `max_batch` messages (or one frame
    /// holding more; none for 0), and number, ack and seal each frame as
    /// it is. Returns every sealed byte the socket has not taken; report
    /// what it took with [`LinkCore::sent`].
    pub fn bytes_out(&mut self, max_batch: usize) -> &[u8] {
        let ready = max_batch > 0
            && self.session.is_some()
            && self.rel.may_send()
            && self.out.len() - self.written < OUTBUF_HIGH_WATER;
        let mut batch = std::mem::take(&mut self.batch);
        // `None`: the queue is closed (the daemon is shutting down).
        let msgs = ready
            .then(|| self.queue.try_pop_batch(max_batch, &mut batch))
            .flatten()
            .unwrap_or(0);
        if msgs > 0 {
            self.ins.write_batch_frames.observe(msgs as u64);
            if msgs > 1 {
                self.ins.writes_coalesced.inc();
            }
        }
        for mut plaintext in batch.drain(..) {
            if plaintext.len() + SEAL_OVERHEAD > self.max_frame {
                // A message no frame can carry (never a protocol
                // message): the queue gave it a frame of its own, dropped
                // before it takes a delivery index or a seal sequence
                // number, so the link goes on.
                self.ins.dropped.inc();
                continue;
            }
            self.rel.stamp(&mut plaintext);
            self.seal(&plaintext);
            self.inflight.back_mut().expect("just sealed").data = Some(plaintext);
        }
        self.batch = batch;
        &self.out[self.written..]
    }

    /// The socket took the next `n` bytes of what [`LinkCore::bytes_out`]
    /// returned. A data frame it took whole is retained until the peer's
    /// cumulative ack covers its index: acceptance is not delivery.
    pub fn sent(&mut self, n: usize) {
        self.written += n;
        while let Some(frame) = self.inflight.pop_front_if(|f| f.end <= self.written) {
            self.ins.frames_sent.inc();
            self.ins.bytes_sent.add(frame.body_len as u64);
            if let Some(plaintext) = frame.data {
                self.rel
                    .retain_accepted(le_u64(&plaintext[1..9]), plaintext);
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
    }

    /// Seal a standalone ack if the debt is full or the oldest receipt
    /// has waited [`ACK_DELAY`] at `now` for a data frame to carry it.
    /// Returns whether it sealed one (the caller writes it out) and when
    /// the next one falls due. Does nothing between sessions: a new
    /// session starts owing nothing.
    pub fn tick(&mut self, now: Instant) -> (bool, Option<Instant>) {
        if self.session.is_none() {
            return (false, None);
        }
        let due = self.rel.debt_full() || self.rel.ack_due.is_some_and(|at| at <= now);
        if due {
            self.ins.acks_standalone.inc();
            let ack = ack_frame(self.rel.take_ack());
            self.seal(&ack);
        }
        (due, self.rel.ack_due)
    }

    /// The connection died (`None`) or a new one replaces it. Every frame
    /// of the dead session that the peer may not have goes back to the
    /// front of the link queue, oldest first: the accepted frames it has
    /// not acknowledged (it may have died before reading them out of its
    /// kernel buffer), then every data frame the socket did not take
    /// whole. All were sealed once, so they keep their indices and the
    /// peer skips what it already processed. Acks and syncs are
    /// per-session and die here. A new session starts with our sync.
    pub fn replace_session(&mut self, halves: Option<(SealHalf, OpenHalf)>) {
        if self.session.take().is_some() {
            let mut requeue = self.rel.drain_unacked();
            self.ins.retransmits.add(requeue.len() as u64);
            if let Some(flight) = self.flight.as_ref().filter(|_| !requeue.is_empty()) {
                flight.record(
                    FlightEvent::new(EventFamily::Retransmit, self.domain.clone(), &*self.peer)
                        .detail(format!("{} unacked frames re-queued", requeue.len())),
                );
            }
            requeue.extend(self.inflight.drain(..).filter_map(|f| f.data));
            for plaintext in requeue.into_iter().rev() {
                self.queue.push_front(plaintext);
            }
            self.out.clear();
            self.written = 0;
        }
        if let Some((seal, open)) = halves {
            let decoder = PooledFrameDecoder::new(self.max_frame, self.pool.clone());
            self.session = Some(Session {
                seal,
                open,
                decoder,
            });
            let sync = self.rel.session_start();
            self.seal(&sync);
        }
    }

    /// Seal one plaintext into the out buffer behind its length prefix:
    /// the MAC over the bytes where they lie, the wire framing
    /// hand-encoded around them (DESIGN.md §D15).
    fn seal(&mut self, plaintext: &[u8]) {
        let session = self.session.as_mut().expect("sealing on a live session");
        let (seq, mac) = session.seal.seal_in_place(plaintext);
        let start = self.out.len();
        self.out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
        encode_sealed_frame_into(&mut self.out, plaintext, seq, &mac);
        let body_len = self.out.len() - start - FRAME_HEADER_LEN;
        self.out[start..start + FRAME_HEADER_LEN].copy_from_slice(&(body_len as u32).to_le_bytes());
        self.inflight.push_back(Inflight {
            end: self.out.len(),
            body_len,
            data: None,
        });
    }
}

/// The borrowed `Sealed` inside one `PeerMsg::Frame`, or `None` for any
/// other message or trailing bytes.
fn parse_sealed(frame: &[u8]) -> Option<SealedRef<'_>> {
    let mut r = qos_wire::Reader::new(frame);
    if r.get_u8().ok()? != FRAME_TAG {
        return None;
    }
    let sealed = SealedRef::parse(&mut r).ok()?;
    r.finish().ok()?;
    Some(sealed)
}

/// Decode every message of a data frame's body into `msgs` through the
/// link's `tables`, all or none.
fn decode_messages(body: &[u8], tables: &mut InternTables, msgs: &mut Vec<SignalMessage>) -> bool {
    // The per-frame body: the messages must outlive the pooled chunk to
    // cross to the broker's queue, so they decode from one shared copy
    // (DESIGN.md §D25).
    #[allow(clippy::disallowed_methods)]
    let body: Arc<[u8]> = body.into();
    let mut r = qos_wire::Reader::new_shared(&body).with_tables(tables);
    let delivered = msgs.len();
    loop {
        let Ok(msg) = SignalMessage::decode(&mut r) else {
            msgs.truncate(delivered);
            return false;
        };
        msgs.push(msg);
        if r.remaining() == 0 {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    //! A link's intern tables (DESIGN.md §D28) change what a decode
    //! allocates, never what it returns.

    use super::*;
    use crate::MAX_FRAME_LEN;
    use proptest::prelude::*;
    use qos_core::envelope::RarLayer;
    use qos_core::messages::TunnelFlowRequest;
    use qos_core::scenario::{build_chain, ChainOptions};
    use qos_core::view::RarView;
    use qos_core::RarId;
    use qos_crypto::sha256::sha256;
    use qos_crypto::{
        Certificate, DistinguishedName, PublicKey, Signature, TbsCertificate, Timestamp, Validity,
    };
    use qos_wire::{Reader, WireError};
    use std::collections::HashMap;
    use std::sync::OnceLock;

    /// Every message of two 3-domain reservations (one with a
    /// capability chain, one without) as it crossed its link, plus a
    /// sub-flow request; and each certificate issuer's key.
    struct Goldens {
        msgs: Vec<Arc<[u8]>>,
        issuers: HashMap<DistinguishedName, PublicKey>,
    }

    fn goldens() -> &'static Goldens {
        static GOLDENS: OnceLock<Goldens> = OnceLock::new();
        GOLDENS.get_or_init(|| {
            let mut s = build_chain(ChainOptions::default());
            let mut msgs: Vec<Arc<[u8]>> = Vec::new();
            for (id, user) in [(1, "alice"), (2, "david")] {
                let spec = s.spec(user, id, 1_000_000, Timestamp(0), 3600);
                let rar = s.users[user].sign_request(spec, &s.nodes[0]);
                let cert = s.users[user].cert.clone();
                let mut queue: Vec<_> = s.nodes[0]
                    .submit(rar, &cert)
                    .into_iter()
                    .map(|(to, m)| (0, to, m))
                    .collect();
                while let Some((from, to, msg)) = queue.pop() {
                    msgs.push(qos_wire::to_bytes(&msg).into());
                    let at = s.domains.iter().position(|d| **d == *to).expect("a peer");
                    let sender = s.domains[from].clone();
                    queue.extend(
                        s.nodes[at]
                            .recv(&sender, msg)
                            .into_iter()
                            .map(|(n, m)| (at, n, m)),
                    );
                }
            }
            let alice = s.users["alice"].dn.clone();
            let flow = SignalMessage::TunnelFlow(TunnelFlowRequest::new(RarId(9), 1, 1000, alice));
            msgs.push(qos_wire::to_bytes(&flow).into());
            // Whose key verifies each certificate carried.
            let mut keys: Vec<PublicKey> = vec![s.ca_key];
            keys.extend(s.cas_keys.values());
            let mut issuers = HashMap::new();
            let decoded: Vec<_> = msgs.iter().map(|m| plain(m).0.expect("a golden")).collect();
            let certs: Vec<&Certificate> = decoded.iter().flat_map(certs_of).collect();
            keys.extend(certs.iter().map(|c| c.tbs().subject_public_key));
            for cert in &certs {
                if let Some(pk) = keys.iter().find(|&&pk| cert.verify_signature(pk).is_ok()) {
                    issuers.insert(cert.tbs().issuer.clone(), *pk);
                }
            }
            Goldens { msgs, issuers }
        })
    }

    /// Every certificate `msg` carries.
    fn certs_of(msg: &SignalMessage) -> Vec<&Certificate> {
        match msg {
            SignalMessage::Request(rar) => RarView::of(rar)
                .layers()
                .iter()
                .flat_map(|l| match &l.layer {
                    RarLayer::User {
                        capability_certs, ..
                    } => capability_certs.iter().collect::<Vec<_>>(),
                    RarLayer::Broker {
                        upstream_cert,
                        capability_certs,
                        ..
                    } => std::iter::once(upstream_cert)
                        .chain(capability_certs)
                        .collect(),
                })
                .collect(),
            SignalMessage::Approve(approval) => vec![&approval.dest_cert],
            _ => Vec::new(),
        }
    }

    /// One message decoded from a shared buffer, as a link does, and how
    /// far the reader got.
    fn decoded(
        body: &Arc<[u8]>,
        tables: Option<&mut InternTables>,
    ) -> (Result<SignalMessage, WireError>, usize) {
        let r = Reader::new_shared(body);
        let mut r = match tables {
            Some(tables) => r.with_tables(tables),
            None => r,
        };
        (SignalMessage::decode(&mut r), r.position())
    }

    fn plain(body: &Arc<[u8]>) -> (Result<SignalMessage, WireError>, usize) {
        decoded(body, None)
    }

    /// `body` through `tables` reads exactly as without them: the same
    /// value or error at the same position, the same re-encoding and
    /// layer digests, every certificate's digest its own body's, and
    /// every verification under its issuer's key as it goes without.
    fn same_through(tables: &mut InternTables, body: &Arc<[u8]>) -> Result<(), TestCaseError> {
        let (with, at) = decoded(body, Some(tables));
        let (without, plain_at) = plain(body);
        prop_assert_eq!(&with, &without);
        prop_assert_eq!(at, plain_at);
        let mut msgs = Vec::new();
        let whole = with.is_ok() && at == body.len();
        prop_assert_eq!(decode_messages(body, tables, &mut msgs), whole);
        let (Ok(with), Ok(without)) = (with, without) else {
            return Ok(());
        };
        prop_assert_eq!(qos_wire::to_bytes(&with), qos_wire::to_bytes(&without));
        if let (SignalMessage::Request(a), SignalMessage::Request(b)) = (&with, &without) {
            let digests = |rar| {
                RarView::of(rar)
                    .layers()
                    .iter()
                    .map(|l| *l.layer_digest())
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(digests(a), digests(b));
        }
        let issuers = &goldens().issuers;
        for (a, b) in certs_of(&with).into_iter().zip(certs_of(&without)) {
            prop_assert_eq!(*a.digest(), sha256(&qos_wire::to_bytes(a.tbs())));
            if let Some(&pk) = issuers.get(&a.tbs().issuer) {
                prop_assert_eq!(
                    a.verify_signature(pk).is_ok(),
                    b.verify_signature(pk).is_ok()
                );
            }
        }
        Ok(())
    }

    fn warm() -> InternTables {
        let mut tables = qos_crypto::intern_tables();
        for body in &goldens().msgs {
            let _ = decoded(body, Some(&mut tables));
        }
        tables
    }

    proptest! {
        /// Golden messages, whole or with one byte changed, decode
        /// through a warm link table exactly as through a plain reader.
        #[test]
        fn a_link_table_decodes_what_a_plain_reader_does(
            ops in proptest::collection::vec(
                (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..=255),
                1..12,
            ),
        ) {
            let mut tables = warm();
            for (msg, at, flip) in ops {
                let golden = &goldens().msgs[msg.index(goldens().msgs.len())];
                let mut body = golden.to_vec();
                let at = at.index(body.len());
                body[at] ^= flip;
                same_through(&mut tables, &body.into())?;
                same_through(&mut tables, golden)?;
            }
        }
    }

    /// `bytes` decoded as a `T`, through `tables` if given, and how far
    /// the reader got.
    fn one<T: Decode>(
        bytes: &[u8],
        tables: Option<&mut InternTables>,
    ) -> (Result<T, WireError>, usize) {
        let r = Reader::new(bytes);
        let mut r = match tables {
            Some(tables) => r.with_tables(tables),
            None => r,
        };
        (T::decode(&mut r), r.position())
    }

    /// `original` filed in a table, then every variant of it with one
    /// byte changed decoded through that table and without: the same
    /// result both ways, and a value that decodes is not the original.
    /// Returns the variants that decode.
    fn one_byte_off<T>(original: &T) -> Vec<T>
    where
        T: Decode + qos_wire::Encode + PartialEq + std::fmt::Debug,
    {
        let bytes = qos_wire::to_bytes(original);
        let mut tables = qos_crypto::intern_tables();
        assert_eq!(one::<T>(&bytes, Some(&mut tables)).0.as_ref(), Ok(original));
        let mut decoded = Vec::new();
        for at in 0..bytes.len() {
            let mut changed = bytes.clone();
            changed[at] ^= 0x20;
            let with = one::<T>(&changed, Some(&mut tables));
            assert_eq!(with, one::<T>(&changed, None), "byte {at}");
            if let Ok(value) = with.0 {
                assert_ne!(&value, original, "byte {at}");
                decoded.push(value);
            }
            assert_eq!(one::<T>(&bytes, Some(&mut tables)).0.as_ref(), Ok(original));
        }
        decoded
    }

    /// A name and a certificate in the table, each with every one of its
    /// bytes changed in turn: each variant decodes as itself, and a
    /// certificate variant carries its own digest and fails verification
    /// as it does without a table.
    #[test]
    fn a_value_one_byte_off_one_in_the_table_decodes_as_itself() {
        let cert = goldens()
            .msgs
            .iter()
            .find_map(|m| match plain(m).0 {
                Ok(SignalMessage::Approve(approval)) => Some(approval.dest_cert),
                _ => None,
            })
            .expect("a golden approval");
        let issuer = goldens().issuers[&cert.tbs().issuer];
        assert!(cert.verify_signature(issuer).is_ok());
        for forged in one_byte_off(&cert) {
            assert_eq!(*forged.digest(), sha256(&qos_wire::to_bytes(forged.tbs())));
            assert!(forged.verify_signature(issuer).is_err());
        }
        assert!(!one_byte_off(&cert.tbs().subject).is_empty());
    }

    /// A certificate with a serial of its own and no valid signature.
    fn distinct(serial: u64) -> Certificate {
        let name = DistinguishedName::broker(&format!("d{serial}"));
        let tbs = TbsCertificate {
            serial,
            issuer: name.clone(),
            subject: name,
            validity: Validity::unbounded(),
            subject_public_key: PublicKey(serial),
            extensions: Vec::new(),
        };
        Certificate::from_parts(
            tbs,
            Signature {
                r: serial,
                s: !serial,
            },
        )
    }

    #[test]
    fn ten_thousand_distinct_values_leave_a_table_at_its_bound() {
        let mut tables = qos_crypto::intern_tables();
        for serial in 0..10_000 {
            let cert = distinct(serial);
            let bytes = qos_wire::to_bytes(&cert);
            assert_eq!(
                one::<Certificate>(&bytes, Some(&mut tables)).0,
                Ok(cert.clone())
            );
            let name = qos_wire::to_bytes(&cert.tbs().subject);
            assert_eq!(
                one(&name, Some(&mut tables)).0,
                Ok(cert.tbs().subject.clone())
            );
        }
        assert_eq!(tables.held::<Certificate>(), 64);
        assert_eq!(tables.held::<DistinguishedName>(), 256);
    }

    /// What one link's tables hold stays shared however many distinct
    /// values another link's stream brings.
    #[test]
    fn one_links_stream_never_evicts_another_links_entries() {
        let link = |peer| {
            let queue = Arc::new(OutQueue::new(16, MAX_FRAME_LEN));
            let telemetry = Telemetry::disabled();
            LinkCore::new(
                queue,
                &telemetry,
                "a",
                peer,
                1,
                MAX_FRAME_LEN,
                BufferPool::new(1),
            )
        };
        let (mut quiet, mut busy) = (link("b"), link("c"));
        // Where each golden certificate and name of `quiet`'s lives.
        let held = |core: &mut LinkCore| -> Vec<usize> {
            let msgs: Vec<_> = goldens()
                .msgs
                .iter()
                .map(|m| decoded(m, Some(&mut core.tables)).0.expect("a golden"))
                .collect();
            let certs = msgs.iter().flat_map(certs_of);
            let tbs = certs.map(|c| std::ptr::from_ref(c.tbs()) as usize);
            let names = msgs.iter().filter_map(|m| match m {
                SignalMessage::Request(rar) => Some(rar.signer.encoding().as_ptr() as usize),
                _ => None,
            });
            tbs.chain(names).collect()
        };
        held(&mut quiet);
        let before = held(&mut quiet);
        for serial in 0..10_000 {
            let bytes = qos_wire::to_bytes(&distinct(serial));
            one::<Certificate>(&bytes, Some(&mut busy.tables))
                .0
                .unwrap();
        }
        assert_eq!(busy.tables.held::<Certificate>(), 64);
        assert_eq!(held(&mut quiet), before);
    }
}
