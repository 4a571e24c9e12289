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
//!   decoded from one shared copy of its body;
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
use qos_wire::{BufferPool, Decode};
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
/// the peer's shards. Sent when no data frame is going back to carry it.
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
    /// retransmits of frames already handed to the shards.
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
    /// A retransmit of the data frame with this index, which the shards
    /// already have: dropped.
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
    /// index is below the watermark was already handed to the shards, so
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
    /// Where the shard sinks queue what goes to the peer.
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
                Inbound::Data(body) => decode_messages(body, msgs),
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

/// Decode every message of a data frame's body into `msgs`, all or none.
fn decode_messages(body: &[u8], msgs: &mut Vec<SignalMessage>) -> bool {
    // The per-frame body: the messages must outlive the pooled chunk to
    // cross the shard queues, so they decode from one shared copy
    // (DESIGN.md §D25).
    #[allow(clippy::disallowed_methods)]
    let body: Arc<[u8]> = body.into();
    let mut r = qos_wire::Reader::new_shared(&body);
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
