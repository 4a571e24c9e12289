//! The peering handshake as a state machine without I/O (DESIGN.md §D36).
//!
//! A [`Handshake`] is one side of the mutual handshake that establishes
//! a peering session: the message-based [`NetHandshake`] (two `Hello`s,
//! two `Auth`s, then the responder's `Ticket`), or a ticket resumption
//! (`ResumeHello`, `ResumeAccept`). It holds no socket, reads no clock
//! and starts no thread: each received [`PeerMsg`] goes in through
//! [`Handshake::recv`], every message it answers with comes out as a
//! length-prefixed frame appended to the caller's buffer, and the
//! broker's protocol time (what `Input::SetTime` set) is an argument.
//! The link core that holds it ([`crate::link::Session`]) feeds it from
//! the same byte stream and frame decoder as the sealed frames that
//! follow, under a frame ceiling of its own ([`HANDSHAKE_MAX_FRAME`]),
//! and its deadline is [`HANDSHAKE_TIMEOUT`] after it started.
//! What comes out is an [`Established`]: the authenticated peer and the
//! two cipher halves. Sequence numbers are per-session: a reconnect
//! starts a fresh channel, so plaintext queued across the outage is
//! MAC'd under the new session's key.

use crate::error::TransportError;
use crate::frame::FRAME_HEADER_LEN;
use crate::proto::PeerMsg;
use crate::resume::{initiator_mac, mac_eq, responder_mac, ResumeTicket, TicketIssuer};
use qos_core::channel::{
    AwaitAuth, ChannelIdentity, NetHandshake, OpenHalf, PeerPin, SealHalf, SecureChannel,
};
use qos_crypto::{Certificate, DistinguishedName, PublicKey, Timestamp};
use qos_telemetry::StdClock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How long a handshake may take, in ns from its start (on the dial side,
/// when the connect completes), before the connection is abandoned.
pub const HANDSHAKE_TIMEOUT: u64 = 5_000_000_000;

/// The frame ceiling while a connection's handshake runs. No handshake
/// message is larger: the largest is a `Hello`, which carries the
/// sender's certificate, 155 bytes for a one-label broker name
/// (`tests/wire_golden.rs`), so this leaves room for long names and
/// certificate extensions. A peer that has not authenticated can make
/// a broker buffer no more than this; the link's own ceiling
/// ([`TransportOptions::max_frame`](crate::TransportOptions)) bounds
/// sealed frames only, and may be smaller than a `Hello`.
pub const HANDSHAKE_MAX_FRAME: usize = 4096;

static NONCE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A nonce unique per connection attempt: wall-clock entropy mixed with
/// a process-wide counter so two attempts in the same nanosecond still
/// differ.
pub fn fresh_nonce() -> u64 {
    let n = NONCE_COUNTER.fetch_add(1, Ordering::Relaxed);
    StdClock::now() ^ n.rotate_left(32)
}

/// How a session came to be established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeKind {
    /// Certificate exchange + possession proofs (one Schnorr signature
    /// and two verifications per side).
    Full,
    /// Ticket redemption: HMAC possession proofs only, zero signature
    /// operations on either side.
    Resumed,
}

/// What a finished handshake leaves: the authenticated peer and the two
/// cipher halves. Each direction owns its own derived key and sequence
/// counter, so the halves share nothing.
#[derive(Debug)]
pub struct Established {
    /// The authenticated peer's domain.
    pub peer: String,
    /// Outbound cipher half.
    pub seal: SealHalf,
    /// Inbound cipher half.
    pub open: OpenHalf,
    /// How the session was established.
    pub kind: HandshakeKind,
    /// The fresh resumption ticket to cache (dial side, full handshakes
    /// with resumption on; a resumed session keeps its old ticket).
    pub ticket: Option<ResumeTicket>,
}

/// Which side of the connection this is, and what that side checks.
enum Role {
    /// We connected: `pin` is the SLA pin of the one peer this
    /// connection is supposed to reach. Both sides of a link must agree
    /// on `resume` ([`TransportOptions::resume`](crate::TransportOptions)):
    /// a mixed configuration stalls the handshake until its deadline.
    Dial { pin: PeerPin, resume: bool },
    /// We accepted: `pins` maps each *expected* peer domain to its pin.
    Accept {
        pins: Arc<HashMap<String, PeerPin>>,
        issuer: Option<Arc<TicketIssuer>>,
    },
}

/// Where a handshake stands.
enum State {
    /// Accept side: nothing received yet.
    Start,
    /// Dial side, before [`Handshake::start`]: the ticket to present, if
    /// any.
    Unsent(Option<ResumeTicket>),
    /// Dial side: our `ResumeHello` is out with this ticket.
    ResumeSent(ResumeTicket),
    /// Our `Hello` is out; the peer's is awaited.
    HelloSent(NetHandshake),
    /// Both hellos crossed and our `Auth` is out; the peer's is awaited.
    AuthSent(AwaitAuth),
    /// Dial side: the channel is up; the responder's `Ticket` is awaited.
    TicketAwaited(SecureChannel),
    /// Finished or failed: nothing more is accepted.
    Done,
}

/// One side of the peering handshake: see the module documentation.
pub struct Handshake {
    identity: Arc<ChannelIdentity>,
    /// Our nonce contribution: the `Hello`'s or the resumption's.
    nonce: u64,
    /// The broker's protocol time: certificate validity and ticket
    /// expiry are judged at it.
    time: Timestamp,
    role: Role,
    state: State,
}

impl Handshake {
    /// The connecting side. With `resume` and a `ticket` whose cached
    /// peer certificate would still pass the checks a full handshake
    /// applies (valid at `time`, the pinned DN), the connection first
    /// attempts ticket redemption: keys re-derived by PRF from the cached
    /// master secret, zero Schnorr operations. A responder that rejects
    /// the ticket answers with its own `Hello`, and the connection falls
    /// back to a full handshake. With `resume`, a full handshake ends
    /// with the responder's `Ticket` for next time.
    pub fn dial(
        identity: Arc<ChannelIdentity>,
        pin: PeerPin,
        ticket: Option<ResumeTicket>,
        resume: bool,
        nonce: u64,
        time: Timestamp,
    ) -> Self {
        let usable = ticket.filter(|t| {
            resume
                && t.peer_cert.check_validity(time).is_ok()
                && t.peer_cert.tbs().subject == pin.dn
        });
        Self {
            identity,
            nonce,
            time,
            role: Role::Dial { pin, resume },
            state: State::Unsent(usable),
        }
    }

    /// The accepting side. The peer announces itself through its
    /// certificate, and one for a domain `pins` does not name is refused
    /// before our own hello is sent. With an `issuer`, an inbound
    /// `ResumeHello` whose ticket redeems (MAC valid, unexpired at
    /// `time`, in the store, certificate still valid and pinned) is
    /// accepted with zero signature operations; anything else, a stale
    /// or forged ticket included, degrades to a full handshake by sending
    /// our `Hello` first. Every full handshake ends with a fresh `Ticket`
    /// for the initiator to cache.
    pub fn accept(
        identity: Arc<ChannelIdentity>,
        pins: Arc<HashMap<String, PeerPin>>,
        issuer: Option<Arc<TicketIssuer>>,
        nonce: u64,
        time: Timestamp,
    ) -> Self {
        Self {
            identity,
            nonce,
            time,
            role: Role::Accept { pins, issuer },
            state: State::Start,
        }
    }

    /// Append what this side says first to `out`: the dial side's
    /// `ResumeHello` or `Hello`; nothing on the accept side.
    pub fn start(&mut self, out: &mut Vec<u8>) {
        let State::Unsent(ticket) = &mut self.state else {
            return;
        };
        self.state = match ticket.take() {
            Some(t) => {
                let mac = initiator_mac(&t.master, &t.ticket, self.nonce);
                let hello = PeerMsg::ResumeHello {
                    ticket: t.ticket.clone(),
                    nonce: self.nonce,
                    mac: mac.to_vec(),
                };
                send(out, &hello);
                State::ResumeSent(t)
            }
            None => State::HelloSent(self.hello(out)),
        };
    }

    /// Take the peer's next message, appending every answer to `out`.
    /// `Ok(Some(..))` once the session is established; an error ends the
    /// connection (a message out of turn, a certificate that fails its
    /// pin or its validity, a bad possession proof).
    pub fn recv(
        &mut self,
        msg: PeerMsg,
        out: &mut Vec<u8>,
    ) -> Result<Option<Established>, TransportError> {
        let (time, nonce_ours) = (self.time, self.nonce);
        match (std::mem::replace(&mut self.state, State::Done), msg) {
            (State::ResumeSent(t), PeerMsg::ResumeAccept { nonce, mac }) => {
                if !mac_eq(&responder_mac(&t.master, nonce_ours, nonce), &mac) {
                    return Err(TransportError::Protocol(
                        "resume accept carried a bad possession proof".into(),
                    ));
                }
                let channel =
                    SecureChannel::resume(t.peer_cert, &t.master, nonce_ours, nonce, true);
                established(channel, HandshakeKind::Resumed, None)
            }
            // The accept side's first message, our hello's answer, or a
            // rejected resume: the responder opened a full handshake with
            // its hello, and we join it from the top.
            (
                state @ (State::Start | State::ResumeSent(_) | State::HelloSent(_)),
                PeerMsg::Hello { cert, nonce },
            ) => {
                // An accept side refuses an unpinned peer before it says
                // anything.
                let pin = match &self.role {
                    Role::Dial { pin, .. } => pin.clone(),
                    Role::Accept { pins, .. } => pin_for(pins, &cert)?.clone(),
                };
                let hs = match state {
                    State::HelloSent(hs) => hs,
                    _ => self.hello(out),
                };
                let (sig, await_auth) = hs.receive_hello(cert, nonce, &pin, time)?;
                send(out, &PeerMsg::Auth { sig });
                self.state = State::AuthSent(await_auth);
                Ok(None)
            }
            (State::Start, PeerMsg::ResumeHello { ticket, nonce, mac }) => {
                let Role::Accept { pins, issuer } = &self.role else {
                    unreachable!("only an accept side starts empty");
                };
                let redeemed = issuer
                    .as_deref()
                    .and_then(|issuer| redeem(pins, issuer, time, &ticket, nonce, &mac));
                let Some((master, peer_cert)) = redeemed else {
                    // Rejected: steer into a full handshake by sending our
                    // hello first, then wait for the initiator's.
                    self.state = State::HelloSent(self.hello(out));
                    return Ok(None);
                };
                let mac = responder_mac(&master, nonce, nonce_ours).to_vec();
                send(
                    out,
                    &PeerMsg::ResumeAccept {
                        nonce: nonce_ours,
                        mac,
                    },
                );
                let channel = SecureChannel::resume(peer_cert, &master, nonce, nonce_ours, false);
                established(channel, HandshakeKind::Resumed, None)
            }
            (State::AuthSent(await_auth), PeerMsg::Auth { sig }) => {
                let channel = await_auth.receive_auth(sig)?;
                match &self.role {
                    Role::Dial { resume: true, .. } => {
                        self.state = State::TicketAwaited(channel);
                        Ok(None)
                    }
                    Role::Dial { .. } => established(channel, HandshakeKind::Full, None),
                    Role::Accept { issuer, .. } => {
                        // Without an issuer, the non-resuming wire
                        // behaviour: no ticket message.
                        if let Some(issuer) = issuer {
                            let master = channel.resumption_secret();
                            let ticket = issuer.issue(master, channel.peer_cert.clone(), time);
                            send(out, &PeerMsg::Ticket { ticket });
                        }
                        established(channel, HandshakeKind::Full, None)
                    }
                }
            }
            (State::TicketAwaited(channel), PeerMsg::Ticket { ticket }) => {
                let ticket = ResumeTicket {
                    ticket,
                    master: channel.resumption_secret(),
                    peer_cert: channel.peer_cert.clone(),
                };
                established(channel, HandshakeKind::Full, Some(ticket))
            }
            (_, other) => Err(TransportError::Protocol(format!(
                "unexpected handshake message {other:?}"
            ))),
        }
    }

    /// Send our hello; the state that awaits the peer's.
    fn hello(&self, out: &mut Vec<u8>) -> NetHandshake {
        let dialed = matches!(self.role, Role::Dial { .. });
        let hs = NetHandshake::new(&self.identity, dialed, self.nonce);
        let (cert, nonce) = hs.hello();
        send(out, &PeerMsg::Hello { cert, nonce });
        hs
    }
}

/// Append `msg` to `out` as one length-prefixed frame.
fn send(out: &mut Vec<u8>, msg: &PeerMsg) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    qos_wire::encode_into(msg, out);
    let len = (out.len() - start - FRAME_HEADER_LEN) as u32;
    out[start..start + FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

/// The domain a certificate names.
fn domain_of(cert: &Certificate) -> Result<String, TransportError> {
    let dn = &cert.tbs().subject;
    dn.org_unit()
        .map(str::to_string)
        .ok_or_else(|| TransportError::Protocol("peer DN carries no domain".into()))
}

fn established(
    channel: SecureChannel,
    kind: HandshakeKind,
    ticket: Option<ResumeTicket>,
) -> Result<Option<Established>, TransportError> {
    let peer = domain_of(&channel.peer_cert)?;
    let (seal, open) = channel.split();
    Ok(Some(Established {
        peer,
        seal,
        open,
        kind,
        ticket,
    }))
}

fn pin_for<'a>(
    pins: &'a HashMap<String, PeerPin>,
    peer_cert: &Certificate,
) -> Result<&'a PeerPin, TransportError> {
    let claimed = domain_of(peer_cert)?;
    pins.get(&claimed)
        .ok_or(TransportError::UnknownPeer(claimed))
}

/// Redeem an inbound resume: the master secret and the peer certificate
/// it was issued for, or `None` for "fall back to a full handshake"
/// (never a hard error: stale tickets are expected in steady state).
fn redeem(
    pins: &HashMap<String, PeerPin>,
    issuer: &TicketIssuer,
    time: Timestamp,
    ticket: &[u8],
    nonce: u64,
    mac: &[u8],
) -> Option<(qos_crypto::sha256::Digest, Certificate)> {
    let (master, peer_cert) = issuer.redeem(ticket, time)?;
    // The same checks a full handshake would apply to the certificate:
    // possession was proven then; validity and pinning are re-checked
    // now, so an expired or un-pinned peer cannot ride an old ticket.
    peer_cert.check_validity(time).ok()?;
    let pin = pin_for(pins, &peer_cert).ok()?;
    if peer_cert.tbs().subject != pin.dn || !mac_eq(&initiator_mac(&master, ticket, nonce), mac) {
        return None;
    }
    Some((master, peer_cert))
}

/// The SLA pin for one peer broker domain (shared by dial and accept
/// link construction in the daemon).
pub(crate) fn broker_pin(ca_key: PublicKey, peer: &str) -> PeerPin {
    PeerPin {
        ca_key,
        dn: DistinguishedName::broker(peer),
    }
}

#[cfg(test)]
mod tests {
    use super::broker_pin as pin;
    use super::*;
    use qos_core::CoreError;
    use qos_crypto::{CertificateAuthority, CryptoError, KeyPair, Validity};

    fn identity(
        ca: &mut CertificateAuthority,
        domain: &str,
        validity: Validity,
    ) -> ChannelIdentity {
        let key = KeyPair::from_seed(domain.as_bytes());
        let cert = ca.issue_identity(DistinguishedName::broker(domain), key.public(), validity);
        ChannelIdentity { key, cert }
    }

    struct Fixture {
        alpha: Arc<ChannelIdentity>,
        beta: Arc<ChannelIdentity>,
        ca_key: PublicKey,
    }

    fn fixture_valid(alpha: Validity) -> Fixture {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        Fixture {
            alpha: Arc::new(identity(&mut ca, "alpha", alpha)),
            beta: Arc::new(identity(&mut ca, "beta", Validity::unbounded())),
            ca_key: ca.public_key(),
        }
    }

    fn fixture() -> Fixture {
        fixture_valid(Validity::unbounded())
    }

    /// The dial side of `alpha` towards `beta`.
    fn dial(
        f: &Fixture,
        ticket: Option<&ResumeTicket>,
        resume: bool,
        time: Timestamp,
    ) -> Handshake {
        let pin = pin(f.ca_key, "beta");
        Handshake::dial(f.alpha.clone(), pin, ticket.cloned(), resume, 11, time)
    }

    /// The accept side of `beta`, expecting `pinned`.
    fn accept(
        f: &Fixture,
        pinned: &str,
        issuer: Option<Arc<TicketIssuer>>,
        time: Timestamp,
    ) -> Handshake {
        let pins = HashMap::from([(pinned.to_string(), pin(f.ca_key, pinned))]);
        Handshake::accept(f.beta.clone(), Arc::new(pins), issuer, 22, time)
    }

    /// The frames in `bytes`, decoded.
    fn frames(bytes: &mut Vec<u8>) -> Vec<PeerMsg> {
        let mut msgs = Vec::new();
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let len = u32::from_le_bytes(rest[..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
            let body = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
            msgs.push(qos_wire::from_bytes(body).expect("a peer message"));
            rest = &rest[FRAME_HEADER_LEN + len..];
        }
        bytes.clear();
        msgs
    }

    type Outcome = Result<Option<Established>, TransportError>;

    /// Carry every message between the two sides until neither has
    /// anything left to say: what each ended with (`Ok(None)`: still
    /// waiting).
    fn run(mut i: Handshake, mut r: Handshake) -> (Outcome, Outcome) {
        let (mut to_r, mut to_i) = (Vec::new(), Vec::new());
        i.start(&mut to_r);
        let (mut end_i, mut end_r): (Outcome, Outcome) = (Ok(None), Ok(None));
        while !to_r.is_empty() || !to_i.is_empty() {
            for msg in frames(&mut to_r) {
                if matches!(end_r, Ok(None)) {
                    end_r = r.recv(msg, &mut to_i);
                }
            }
            for msg in frames(&mut to_i) {
                if matches!(end_i, Ok(None)) {
                    end_i = i.recv(msg, &mut to_r);
                }
            }
        }
        (end_i, end_r)
    }

    /// The two ends hold the same keys: what one seals the other opens,
    /// in both directions.
    fn assert_keys_agree(a: &mut Established, b: &mut Established) {
        for (seal, open, plain) in [
            (&mut a.seal, &mut b.open, &b"sealed"[..]),
            (&mut b.seal, &mut a.open, b"and back"),
        ] {
            let (seq, mac) = seal.seal_in_place(plain);
            open.open_in_place(plain, seq, &mac).unwrap();
        }
    }

    fn both(ends: (Outcome, Outcome)) -> (Established, Established) {
        (
            ends.0.unwrap().expect("alpha established"),
            ends.1.unwrap().expect("beta established"),
        )
    }

    #[test]
    fn loopback_session_round_trip() {
        // The non-resuming wire behaviour: no issuer, no ticket message.
        let f = fixture();
        let (mut a, mut b) = both(run(
            dial(&f, None, false, Timestamp::ZERO),
            accept(&f, "alpha", None, Timestamp::ZERO),
        ));
        assert_eq!((a.kind, b.kind), (HandshakeKind::Full, HandshakeKind::Full));
        assert!(a.ticket.is_none());
        assert_eq!(a.peer, "beta");
        assert_eq!(b.peer, "alpha");
        assert_keys_agree(&mut a, &mut b);
    }

    #[test]
    fn resumed_reconnect_round_trips() {
        // (The strict "zero Schnorr operations during a resumed
        // handshake" assertion lives in tests/resume_reconnect.rs, where
        // the process-wide operation counters are not perturbed by
        // concurrent unit tests.)
        let f = fixture();
        let issuer = Arc::new(TicketIssuer::with_key([3; 32], 3600, 16));
        let t0 = Timestamp::ZERO;

        // Round 1: full handshake, ticket captured.
        let (a, b) = both(run(
            dial(&f, None, true, t0),
            accept(&f, "alpha", Some(issuer.clone()), t0),
        ));
        assert_eq!((a.kind, b.kind), (HandshakeKind::Full, HandshakeKind::Full));
        let ticket = a.ticket.expect("full handshake must yield a ticket");

        // Round 2: reconnect with the ticket.
        let (mut a2, mut b2) = both(run(
            dial(&f, Some(&ticket), true, t0),
            accept(&f, "alpha", Some(issuer), t0),
        ));
        assert_eq!(
            (a2.kind, b2.kind),
            (HandshakeKind::Resumed, HandshakeKind::Resumed)
        );
        assert!(a2.ticket.is_none(), "resumed session keeps its old ticket");

        // The resumed channel carries traffic in both directions.
        assert_keys_agree(&mut a2, &mut b2);
    }

    #[test]
    fn unknown_ticket_falls_back_to_full_handshake() {
        let f = fixture();
        let t0 = Timestamp::ZERO;
        let issuer = Arc::new(TicketIssuer::with_key([3; 32], 3600, 16));
        let (a, _) = both(run(
            dial(&f, None, true, t0),
            accept(&f, "alpha", Some(issuer), t0),
        ));
        let ticket = a.ticket.unwrap();

        // The acceptor "restarts": a new issuer that has never seen the
        // ticket. The connection must degrade to a full handshake — and
        // still hand out a new ticket for the round after.
        let fresh_issuer = Arc::new(TicketIssuer::with_key([4; 32], 3600, 16));
        let (mut a2, mut b2) = both(run(
            dial(&f, Some(&ticket), true, t0),
            accept(&f, "alpha", Some(fresh_issuer), t0),
        ));
        assert_eq!(
            (a2.kind, b2.kind),
            (HandshakeKind::Full, HandshakeKind::Full)
        );
        assert!(a2.ticket.is_some(), "fallback re-issues a ticket");
        assert_keys_agree(&mut a2, &mut b2);
    }

    #[test]
    fn unpinned_inbound_peer_rejected() {
        // The responder only pins "gamma"; alpha must be refused, before
        // the responder says anything.
        let f = fixture();
        let (i, r) = run(
            dial(&f, None, false, Timestamp::ZERO),
            accept(&f, "gamma", None, Timestamp::ZERO),
        );
        assert!(matches!(i, Ok(None)), "initiator must not complete");
        assert!(matches!(r, Err(TransportError::UnknownPeer(d)) if d == "alpha"));
    }

    /// Certificate validity is judged at the protocol time the broker
    /// passes in: alpha's certificate, valid from 100 to 200 inclusive,
    /// is refused with its expiry error at 201 and accepted at 200.
    #[test]
    fn a_peer_certificate_is_judged_at_the_protocol_time_passed_in() {
        let f = fixture_valid(Validity::starting_at(Timestamp(100), 100));
        let (i, r) = run(
            dial(&f, None, false, Timestamp(201)),
            accept(&f, "alpha", None, Timestamp(201)),
        );
        assert!(matches!(i, Ok(None)), "initiator must not complete");
        assert!(
            matches!(
                r,
                Err(TransportError::Channel(CoreError::Crypto(CryptoError::Expired { ref subject, at })))
                    if subject.org_unit() == Some("alpha") && at == Timestamp(201)
            ),
            "not the expiry error: {:?}",
            r.map(|_| ())
        );
        let (mut a, mut b) = both(run(
            dial(&f, None, false, Timestamp(200)),
            accept(&f, "alpha", None, Timestamp(200)),
        ));
        assert_keys_agree(&mut a, &mut b);
    }
}
