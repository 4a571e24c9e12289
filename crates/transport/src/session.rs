//! Establishing an authenticated peering session over one TCP connection.
//!
//! The handshake ([`establish_initiator_resumable`] /
//! [`establish_responder_resumable`]) runs the message-based
//! [`NetHandshake`] — or a ticket resumption — over length-prefixed
//! frames on a blocking socket, on a short-lived thread of its own. What
//! comes out is a [`Session`]: the socket, the authenticated peer and the
//! two cipher halves, which the reactor takes over. Every frame after the
//! handshake is a [`PeerMsg::Frame`] the reactor seals and opens with
//! those halves. Sequence numbers are per-session: a reconnect starts a
//! fresh channel, so plaintext queued across the outage is MAC'd under
//! the new session's key.

use crate::error::TransportError;
use crate::frame::{write_frame, FrameError, FRAME_HEADER_LEN};
use crate::proto::PeerMsg;
use crate::resume::{initiator_mac, mac_eq, responder_mac, ResumeTicket, TicketIssuer};
use qos_core::channel::{
    ChannelIdentity, NetHandshake, OpenHalf, PeerPin, SealHalf, SecureChannel,
};
use qos_crypto::{DistinguishedName, PublicKey, Timestamp};
use qos_telemetry::StdClock;
use std::collections::HashMap;
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How long a handshake may stall before the connection is abandoned.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

static NONCE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A nonce unique per connection attempt: wall-clock entropy mixed with
/// a process-wide counter so two attempts in the same nanosecond still
/// differ.
pub fn fresh_nonce() -> u64 {
    let n = NONCE_COUNTER.fetch_add(1, Ordering::Relaxed);
    StdClock::now() ^ n.rotate_left(32)
}

fn send_msg(stream: &TcpStream, msg: &PeerMsg, max: usize) -> Result<(), TransportError> {
    let mut w = stream;
    write_frame(&mut w, &qos_wire::to_bytes(msg), max)?;
    Ok(())
}

/// Read exactly one handshake message off the blocking socket, and not
/// a byte more: whatever follows it belongs to the reactor's decoder.
fn recv_msg(stream: &TcpStream, max: usize) -> Result<PeerMsg, TransportError> {
    let mut r = stream;
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > max {
        return Err(FrameError::TooLarge {
            len: len as u64,
            max,
        }
        .into());
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(qos_wire::from_bytes::<PeerMsg>(&body)?)
}

/// One live authenticated connection to a peer broker, as the handshake
/// leaves it. The reactor owns framing and sealing from here on: it
/// registers `stream` non-blocking with its poll and drives the two
/// halves itself. Each direction owns its own derived key and sequence
/// counter, so the halves share nothing.
#[derive(Debug)]
pub struct Session {
    /// The connected socket (still blocking).
    pub stream: TcpStream,
    /// The authenticated peer's domain.
    pub peer: String,
    /// Outbound cipher half.
    pub seal: SealHalf,
    /// Inbound cipher half.
    pub open: OpenHalf,
}

fn with_handshake_timeout<T>(
    stream: &TcpStream,
    f: impl FnOnce() -> Result<T, TransportError>,
) -> Result<T, TransportError> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let out = f();
    let _ = stream.set_read_timeout(None);
    out
}

fn expect_hello(
    stream: &TcpStream,
    max: usize,
) -> Result<(qos_crypto::Certificate, u64), TransportError> {
    match recv_msg(stream, max)? {
        PeerMsg::Hello { cert, nonce } => Ok((cert, nonce)),
        other => Err(TransportError::Protocol(format!(
            "expected Hello, got {other:?}"
        ))),
    }
}

fn expect_auth(stream: &TcpStream, max: usize) -> Result<qos_crypto::Signature, TransportError> {
    match recv_msg(stream, max)? {
        PeerMsg::Auth { sig } => Ok(sig),
        other => Err(TransportError::Protocol(format!(
            "expected Auth, got {other:?}"
        ))),
    }
}

/// How a session came to be established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeKind {
    /// Certificate exchange + possession proofs (two Schnorr signatures
    /// and two verifications per side).
    Full,
    /// Ticket redemption: HMAC possession proofs only, zero signature
    /// operations on either side.
    Resumed,
}

fn finish(stream: TcpStream, channel: SecureChannel) -> Result<Session, TransportError> {
    let peer = channel
        .peer_dn()
        .org_unit()
        .ok_or_else(|| TransportError::Protocol("peer DN carries no domain".into()))?
        .to_string();
    let (seal, open) = channel.split();
    Ok(Session {
        stream,
        peer,
        seal,
        open,
    })
}

/// Run the handshake as the connecting side, with session resumption.
/// `pin` is the SLA pin for the one peer this connection is supposed to
/// reach.
///
/// With `resume = true` and a cached `ticket`, the connection first
/// attempts ticket redemption: `ResumeHello` out, `ResumeAccept` back,
/// keys re-derived by PRF from the cached master secret — zero Schnorr
/// operations. The cached peer certificate is re-validated (expiry,
/// pinned DN) *before* the attempt, and domain pinning is thereby still
/// enforced on every resumed connection. If the responder rejects the
/// ticket it answers with its own `Hello` and the connection falls back
/// to a full handshake transparently.
///
/// With `resume = true` and no ticket, a full handshake runs and the
/// responder's `Ticket` message is captured for next time. Both sides
/// of a link must agree on `resume` (see
/// [`TransportOptions::resume`](crate::daemon::TransportOptions)) — a
/// mixed configuration stalls the handshake until its timeout.
///
/// Returns the session, how it was established, and the fresh ticket to
/// cache (full handshakes only; a resumed session keeps its old ticket).
pub fn establish_initiator_resumable(
    stream: TcpStream,
    identity: &ChannelIdentity,
    pin: &PeerPin,
    now: Timestamp,
    max_frame: usize,
    resume: bool,
    ticket: Option<&ResumeTicket>,
) -> Result<(Session, HandshakeKind, Option<ResumeTicket>), TransportError> {
    // Signalling frames are small and latency-bound; never let Nagle
    // hold one back waiting for an ACK.
    let _ = stream.set_nodelay(true);

    // Only present a ticket whose cached peer certificate would still
    // pass the pin checks a full handshake applies.
    let usable = ticket.filter(|t| {
        resume && t.peer_cert.check_validity(now).is_ok() && t.peer_cert.tbs().subject == pin.dn
    });

    let (channel, kind, fresh_ticket) = with_handshake_timeout(&stream, || {
        if let Some(t) = usable {
            let nonce_c = fresh_nonce();
            let mac = initiator_mac(&t.master, &t.ticket, nonce_c);
            send_msg(
                &stream,
                &PeerMsg::ResumeHello {
                    ticket: t.ticket.clone(),
                    nonce: nonce_c,
                    mac: mac.to_vec(),
                },
                max_frame,
            )?;
            match recv_msg(&stream, max_frame)? {
                PeerMsg::ResumeAccept { nonce, mac } => {
                    let expect = responder_mac(&t.master, nonce_c, nonce);
                    if !mac_eq(&expect, &mac) {
                        return Err(TransportError::Protocol(
                            "resume accept carried a bad possession proof".into(),
                        ));
                    }
                    let channel =
                        SecureChannel::resume(t.peer_cert.clone(), &t.master, nonce_c, nonce, true);
                    return Ok((channel, HandshakeKind::Resumed, None));
                }
                // Rejection: the responder opened a full handshake with
                // its hello; join it from the top.
                PeerMsg::Hello { cert, nonce } => {
                    let hs = NetHandshake::new(identity, true, fresh_nonce());
                    let (our_cert, our_nonce) = hs.hello();
                    send_msg(
                        &stream,
                        &PeerMsg::Hello {
                            cert: our_cert,
                            nonce: our_nonce,
                        },
                        max_frame,
                    )?;
                    let (sig, await_auth) = hs.receive_hello(cert, nonce, pin, now)?;
                    send_msg(&stream, &PeerMsg::Auth { sig }, max_frame)?;
                    let peer_sig = expect_auth(&stream, max_frame)?;
                    let channel = await_auth.receive_auth(peer_sig)?;
                    let fresh = expect_ticket(&stream, &channel, max_frame)?;
                    return Ok((channel, HandshakeKind::Full, Some(fresh)));
                }
                other => {
                    return Err(TransportError::Protocol(format!(
                        "expected ResumeAccept or Hello, got {other:?}"
                    )))
                }
            }
        }
        // Full handshake from the start.
        let hs = NetHandshake::new(identity, true, fresh_nonce());
        let (cert, nonce) = hs.hello();
        send_msg(&stream, &PeerMsg::Hello { cert, nonce }, max_frame)?;
        let (peer_cert, peer_nonce) = expect_hello(&stream, max_frame)?;
        let (sig, await_auth) = hs.receive_hello(peer_cert, peer_nonce, pin, now)?;
        send_msg(&stream, &PeerMsg::Auth { sig }, max_frame)?;
        let peer_sig = expect_auth(&stream, max_frame)?;
        let channel = await_auth.receive_auth(peer_sig)?;
        let fresh = if resume {
            Some(expect_ticket(&stream, &channel, max_frame)?)
        } else {
            None
        };
        Ok((channel, HandshakeKind::Full, fresh))
    })?;
    Ok((finish(stream, channel)?, kind, fresh_ticket))
}

/// Receive the responder's post-handshake `Ticket` and bind it to this
/// session's resumption secrets.
fn expect_ticket(
    stream: &TcpStream,
    channel: &SecureChannel,
    max: usize,
) -> Result<ResumeTicket, TransportError> {
    match recv_msg(stream, max)? {
        PeerMsg::Ticket { ticket } => Ok(ResumeTicket {
            ticket,
            master: channel.resumption_secret(),
            peer_cert: channel.peer_cert.clone(),
        }),
        other => Err(TransportError::Protocol(format!(
            "expected Ticket, got {other:?}"
        ))),
    }
}

/// Run the handshake as the accepting side, with session resumption.
/// The peer announces itself through its certificate; `pins` maps each
/// *expected* peer domain to its SLA pin, and an inbound certificate for
/// any other domain is rejected before our own hello is sent.
///
/// With an `issuer`, an inbound `ResumeHello` whose ticket redeems (MAC
/// valid, unexpired, present in the store, certificate still valid and
/// still pinned) is accepted with zero signature operations; anything
/// else — including a stale or forged ticket — silently degrades to a
/// full handshake by sending our `Hello` first. Every *full* handshake
/// ends with a fresh `Ticket` for the initiator to cache, so a
/// reconnecting peer is back on the fast path after one round.
pub fn establish_responder_resumable(
    stream: TcpStream,
    identity: &ChannelIdentity,
    pins: &HashMap<String, PeerPin>,
    now: Timestamp,
    max_frame: usize,
    issuer: Option<&TicketIssuer>,
) -> Result<(Session, HandshakeKind), TransportError> {
    let _ = stream.set_nodelay(true);
    let (channel, kind) = with_handshake_timeout(&stream, || {
        let first = recv_msg(&stream, max_frame)?;
        let (peer_cert, peer_nonce) = match first {
            PeerMsg::ResumeHello { ticket, nonce, mac } => {
                if let Some(channel) =
                    try_accept_resume(&stream, pins, now, max_frame, issuer, &ticket, nonce, &mac)?
                {
                    return Ok((channel, HandshakeKind::Resumed));
                }
                // Rejected: steer into a full handshake by sending our
                // hello first, then wait for the initiator's.
                let hs = NetHandshake::new(identity, false, fresh_nonce());
                let (cert, our_nonce) = hs.hello();
                send_msg(
                    &stream,
                    &PeerMsg::Hello {
                        cert,
                        nonce: our_nonce,
                    },
                    max_frame,
                )?;
                let (peer_cert, peer_nonce) = expect_hello(&stream, max_frame)?;
                let pin = pin_for(pins, &peer_cert)?;
                let (sig, await_auth) = hs.receive_hello(peer_cert, peer_nonce, pin, now)?;
                send_msg(&stream, &PeerMsg::Auth { sig }, max_frame)?;
                let peer_sig = expect_auth(&stream, max_frame)?;
                let channel = await_auth.receive_auth(peer_sig)?;
                send_ticket(&stream, &channel, issuer, now, max_frame)?;
                return Ok((channel, HandshakeKind::Full));
            }
            PeerMsg::Hello { cert, nonce } => (cert, nonce),
            other => {
                return Err(TransportError::Protocol(format!(
                    "expected Hello or ResumeHello, got {other:?}"
                )))
            }
        };
        let pin = pin_for(pins, &peer_cert)?;
        let hs = NetHandshake::new(identity, false, fresh_nonce());
        let (cert, nonce) = hs.hello();
        send_msg(&stream, &PeerMsg::Hello { cert, nonce }, max_frame)?;
        let (sig, await_auth) = hs.receive_hello(peer_cert, peer_nonce, pin, now)?;
        send_msg(&stream, &PeerMsg::Auth { sig }, max_frame)?;
        let peer_sig = expect_auth(&stream, max_frame)?;
        let channel = await_auth.receive_auth(peer_sig)?;
        send_ticket(&stream, &channel, issuer, now, max_frame)?;
        Ok((channel, HandshakeKind::Full))
    })?;
    Ok((finish(stream, channel)?, kind))
}

fn pin_for<'a>(
    pins: &'a HashMap<String, PeerPin>,
    peer_cert: &qos_crypto::Certificate,
) -> Result<&'a PeerPin, TransportError> {
    let claimed = peer_cert
        .tbs()
        .subject
        .org_unit()
        .ok_or_else(|| TransportError::Protocol("peer DN carries no domain".into()))?
        .to_string();
    pins.get(&claimed)
        .ok_or(TransportError::UnknownPeer(claimed))
}

/// Attempt to accept an inbound resume. `Ok(Some(..))` carries the
/// resumed channel; `Ok(None)` means "fall back to a full handshake"
/// (never a hard error — stale tickets are expected in steady state).
#[allow(clippy::too_many_arguments)]
fn try_accept_resume(
    stream: &TcpStream,
    pins: &HashMap<String, PeerPin>,
    now: Timestamp,
    max_frame: usize,
    issuer: Option<&TicketIssuer>,
    ticket: &[u8],
    nonce_c: u64,
    mac: &[u8],
) -> Result<Option<SecureChannel>, TransportError> {
    let Some(issuer) = issuer else {
        return Ok(None);
    };
    let Some((master, peer_cert)) = issuer.redeem(ticket, now) else {
        return Ok(None);
    };
    // The same checks a full handshake would apply to the certificate:
    // possession was proven then; validity and pinning are re-checked
    // now, so an expired or un-pinned peer cannot ride an old ticket.
    if peer_cert.check_validity(now).is_err() {
        return Ok(None);
    }
    let Ok(pin) = pin_for(pins, &peer_cert) else {
        return Ok(None);
    };
    if peer_cert.tbs().subject != pin.dn {
        return Ok(None);
    }
    if !mac_eq(&initiator_mac(&master, ticket, nonce_c), mac) {
        return Ok(None);
    }
    let nonce_r = fresh_nonce();
    send_msg(
        stream,
        &PeerMsg::ResumeAccept {
            nonce: nonce_r,
            mac: responder_mac(&master, nonce_c, nonce_r).to_vec(),
        },
        max_frame,
    )?;
    Ok(Some(SecureChannel::resume(
        peer_cert, &master, nonce_c, nonce_r, false,
    )))
}

/// After a full handshake, issue and send the resumption ticket (no-op
/// without an issuer — the non-resuming wire behaviour).
fn send_ticket(
    stream: &TcpStream,
    channel: &SecureChannel,
    issuer: Option<&TicketIssuer>,
    now: Timestamp,
    max: usize,
) -> Result<(), TransportError> {
    let Some(issuer) = issuer else {
        return Ok(());
    };
    let ticket = issuer.issue(channel.resumption_secret(), channel.peer_cert.clone(), now);
    send_msg(stream, &PeerMsg::Ticket { ticket }, max)
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
    use crate::frame::MAX_FRAME_LEN;
    use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, PublicKey, Validity};
    use std::net::TcpListener;

    fn identity(ca: &mut CertificateAuthority, domain: &str) -> ChannelIdentity {
        let key = KeyPair::from_seed(domain.as_bytes());
        let cert = ca.issue_identity(
            DistinguishedName::broker(domain),
            key.public(),
            Validity::unbounded(),
        );
        ChannelIdentity { key, cert }
    }

    fn fixture() -> (ChannelIdentity, ChannelIdentity, PublicKey) {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        let ia = identity(&mut ca, "alpha");
        let ib = identity(&mut ca, "beta");
        (ia, ib, ca.public_key())
    }

    /// The two ends hold the same keys: what one seals the other opens,
    /// in both directions.
    fn assert_keys_agree(a: &mut Session, b: &mut Session) {
        for (seal, open, plain) in [
            (&mut a.seal, &mut b.open, &b"sealed over tcp"[..]),
            (&mut b.seal, &mut a.open, b"and back"),
        ] {
            let (seq, mac) = seal.seal_in_place(plain);
            open.open_in_place(plain, seq, &mac).unwrap();
        }
    }

    #[test]
    fn loopback_session_round_trip() {
        // The non-resuming wire behaviour: no issuer, no ticket message.
        let (ia, ib, ca_key) = fixture();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let responder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let pins = HashMap::from([("alpha".to_string(), pin(ca_key, "alpha"))]);
            establish_responder_resumable(stream, &ib, &pins, Timestamp::ZERO, MAX_FRAME_LEN, None)
                .unwrap()
        });

        let stream = TcpStream::connect(addr).unwrap();
        let (mut a, kind, ticket) = establish_initiator_resumable(
            stream,
            &ia,
            &pin(ca_key, "beta"),
            Timestamp::ZERO,
            MAX_FRAME_LEN,
            false,
            None,
        )
        .unwrap();
        let (mut b, _) = responder.join().unwrap();
        assert_eq!(kind, HandshakeKind::Full);
        assert!(ticket.is_none());
        assert_eq!(a.peer, "beta");
        assert_eq!(b.peer, "alpha");
        assert_keys_agree(&mut a, &mut b);
    }

    /// One resumable loopback handshake: the initiator presents
    /// `ticket` (if any) and both ends report how the session was
    /// established, plus the fresh ticket from a full handshake.
    fn resumable_pair(
        ticket: Option<&ResumeTicket>,
        issuer: std::sync::Arc<TicketIssuer>,
    ) -> (
        (Session, HandshakeKind, Option<ResumeTicket>),
        (Session, HandshakeKind),
    ) {
        let (ia, ib, ca_key) = fixture();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let responder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let pins = HashMap::from([("alpha".to_string(), pin(ca_key, "alpha"))]);
            establish_responder_resumable(
                stream,
                &ib,
                &pins,
                Timestamp::ZERO,
                MAX_FRAME_LEN,
                Some(&issuer),
            )
            .unwrap()
        });
        let stream = TcpStream::connect(addr).unwrap();
        let i = establish_initiator_resumable(
            stream,
            &ia,
            &pin(ca_key, "beta"),
            Timestamp::ZERO,
            MAX_FRAME_LEN,
            true,
            ticket,
        )
        .unwrap();
        (i, responder.join().unwrap())
    }

    #[test]
    fn resumed_reconnect_round_trips() {
        // (The strict "zero Schnorr operations during a resumed
        // handshake" assertion lives in tests/resume_reconnect.rs, where
        // the process-wide operation counters are not perturbed by
        // concurrent unit tests.)
        use std::sync::Arc;
        let issuer = Arc::new(TicketIssuer::with_key([3; 32], 3600, 16));

        // Round 1: full handshake, ticket captured.
        let ((_, kind_a, ticket), (_, kind_b)) = resumable_pair(None, issuer.clone());
        assert_eq!(kind_a, HandshakeKind::Full);
        assert_eq!(kind_b, HandshakeKind::Full);
        let ticket = ticket.expect("full handshake must yield a ticket");

        // Round 2: reconnect with the ticket.
        let ((mut a2, kind_a2, fresh), (mut b2, kind_b2)) = resumable_pair(Some(&ticket), issuer);
        assert_eq!(kind_a2, HandshakeKind::Resumed);
        assert_eq!(kind_b2, HandshakeKind::Resumed);
        assert!(fresh.is_none(), "resumed session keeps its old ticket");

        // The resumed channel carries traffic in both directions.
        assert_keys_agree(&mut a2, &mut b2);
    }

    #[test]
    fn unknown_ticket_falls_back_to_full_handshake() {
        use std::sync::Arc;
        let issuer = Arc::new(TicketIssuer::with_key([3; 32], 3600, 16));
        let ((_, _, ticket), _) = resumable_pair(None, issuer);
        let ticket = ticket.unwrap();

        // The acceptor "restarts": a new issuer that has never seen the
        // ticket. The connection must degrade to a full handshake — and
        // still hand out a new ticket for the round after.
        let fresh_issuer = Arc::new(TicketIssuer::with_key([4; 32], 3600, 16));
        let ((mut a2, kind_a2, fresh), (mut b2, kind_b2)) =
            resumable_pair(Some(&ticket), fresh_issuer);
        assert_eq!(kind_a2, HandshakeKind::Full);
        assert_eq!(kind_b2, HandshakeKind::Full);
        assert!(fresh.is_some(), "fallback re-issues a ticket");
        assert_keys_agree(&mut a2, &mut b2);
    }

    #[test]
    fn unpinned_inbound_peer_rejected() {
        let (ia, ib, ca_key) = fixture();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let responder = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Responder only pins "gamma"; alpha must be refused.
            let pins = HashMap::from([("gamma".to_string(), pin(ca_key, "gamma"))]);
            establish_responder_resumable(stream, &ib, &pins, Timestamp::ZERO, MAX_FRAME_LEN, None)
        });

        let stream = TcpStream::connect(addr).unwrap();
        let res = establish_initiator_resumable(
            stream,
            &ia,
            &pin(ca_key, "beta"),
            Timestamp::ZERO,
            MAX_FRAME_LEN,
            false,
            None,
        );
        assert!(res.is_err(), "initiator must not complete");
        assert!(matches!(
            responder.join().unwrap(),
            Err(TransportError::UnknownPeer(d)) if d == "alpha"
        ));
    }
}
