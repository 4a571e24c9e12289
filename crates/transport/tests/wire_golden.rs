//! Golden wire bytes of a peering connection: the handshake messages
//! (`Hello`, `Auth`, the ticket resumption's `ResumeHello` and
//! `ResumeAccept`, and the `Ticket` a full handshake ends with) and the
//! first frames of a session as a link core seals them (a sync, a data
//! frame, a standalone ack). Each is pinned by its length and SHA-256,
//! so a change to how the handshake or the link is driven that moves a
//! wire byte fails here. Everything is built deterministically: seeded
//! keys, deterministic signature nonces, fixed handshake nonces, a
//! ticket issuer with a fixed key, fixed link lives and clock readings.

use qos_core::channel::{ChannelIdentity, NetHandshake, PeerPin, SecureChannel};
use qos_core::messages::TunnelFlowRelease;
use qos_core::{RarId, SignalMessage};
use qos_crypto::sha256::sha256;
use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
use qos_telemetry::Telemetry;
use qos_transport::resume::{initiator_mac, responder_mac};
use qos_transport::{LinkCore, PeerMsg, TicketIssuer, MAX_FRAME_LEN};
use qos_wire::BufferPool;

fn identity(ca: &mut CertificateAuthority, domain: &str) -> ChannelIdentity {
    let key = KeyPair::from_seed(domain.as_bytes());
    let cert = ca.issue_identity(
        DistinguishedName::broker(domain),
        key.public(),
        Validity::unbounded(),
    );
    ChannelIdentity { key, cert }
}

/// A full handshake between `alpha` (initiator, nonce 1) and `beta`
/// (responder, nonce 2): the messages each sent and both channel ends.
fn full_handshake() -> (Vec<(&'static str, PeerMsg)>, SecureChannel, SecureChannel) {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let pin = |domain| PeerPin {
        ca_key: ca.public_key(),
        dn: DistinguishedName::broker(domain),
    };
    let (pin_alpha, pin_beta) = (pin("alpha"), pin("beta"));
    let (ia, ib) = (identity(&mut ca, "alpha"), identity(&mut ca, "beta"));
    let hs_i = NetHandshake::new(&ia, true, 1);
    let hs_r = NetHandshake::new(&ib, false, 2);
    let (cert_i, nonce_i) = hs_i.hello();
    let (cert_r, nonce_r) = hs_r.hello();
    let hello = PeerMsg::Hello {
        cert: cert_i.clone(),
        nonce: nonce_i,
    };
    let (sig_i, await_i) = hs_i
        .receive_hello(cert_r, nonce_r, &pin_beta, Timestamp::ZERO)
        .expect("beta's hello");
    let (sig_r, await_r) = hs_r
        .receive_hello(cert_i, nonce_i, &pin_alpha, Timestamp::ZERO)
        .expect("alpha's hello");
    let auth = PeerMsg::Auth { sig: sig_i };
    let chan_i = await_i.receive_auth(sig_r).expect("beta's auth");
    let chan_r = await_r.receive_auth(sig_i).expect("alpha's auth");
    (vec![("hello", hello), ("auth", auth)], chan_i, chan_r)
}

/// What the socket of `core` would take: everything it has sealed.
fn take(core: &mut LinkCore) -> Vec<u8> {
    let out = core.bytes_out(0).to_vec();
    core.sent(out.len());
    out
}

/// `bytes` arrive at `core` at clock reading `now`.
fn feed(core: &mut LinkCore, bytes: &[u8], now: u64) {
    let buf = core.read_buf();
    buf[..bytes.len()].copy_from_slice(bytes);
    let mut msgs = Vec::new();
    assert!(core.bytes_in(bytes.len(), now, &mut msgs), "frame refused");
}

/// The first frames of a session between two link cores keyed by the
/// full handshake: alpha's sync, one data frame of alpha's, and beta's
/// standalone ack for it.
fn link_frames(chan_i: SecureChannel, chan_r: SecureChannel) -> Vec<(&'static str, Vec<u8>)> {
    let telemetry = Telemetry::disabled();
    let pool = BufferPool::new(4);
    let mut a = LinkCore::new(
        &telemetry,
        "alpha",
        "beta",
        0xA11CE,
        MAX_FRAME_LEN,
        pool.clone(),
    );
    let mut b = LinkCore::new(&telemetry, "beta", "alpha", 0xB0B, MAX_FRAME_LEN, pool);
    a.replace_session(Some(chan_i.split()));
    b.replace_session(Some(chan_r.split()));
    let sync = take(&mut a);
    feed(&mut b, &sync, 0);
    let b_sync = take(&mut b);
    feed(&mut a, &b_sync, 0);
    a.push(&SignalMessage::TunnelFlowRelease(TunnelFlowRelease::new(
        RarId(9),
        1,
    )));
    a.bytes_out(64);
    let data = take(&mut a);
    feed(&mut b, &data, 0);
    let (sealed, _) = b.tick(1_000_000_000);
    assert!(sealed, "an ack owed past its delay goes alone");
    let ack = take(&mut b);
    vec![("sync", sync), ("data", data), ("ack", ack)]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Length and SHA-256 of each golden: a handshake message's encoding
/// (the frame body), or a link frame with its length prefix.
const PINNED: [(&str, usize, &str); 8] = [
    (
        "hello",
        155,
        "9fca54e22c5db5aedc297ede515bbdd181cb5391a57d76c4ee58a8525d011d6d",
    ),
    (
        "auth",
        17,
        "b9d8b0e31c4764c6eac36121ff0adb64509c1bc6d03242107a56717e912ccf30",
    ),
    (
        "ticket",
        61,
        "6486fa05ffb30ad4cc5f722e61dce0fd6f72a5b1588992b5e8f84463c0b7004e",
    ),
    (
        "resume_hello",
        105,
        "5f56ab214c038a84d338cbaa755611120d314011aad59808c1d7e9b242a15d7f",
    ),
    (
        "resume_accept",
        45,
        "e0ed8c07d255e7641c841379fa4664288ba7370c02a02db6eb6f9aff48d0d7a0",
    ),
    (
        "sync",
        58,
        "df90129f6d151cceaaade387fece46dbfd308fc5262b11f91c0695b9a32397a5",
    ),
    (
        "data",
        83,
        "47f6ec741eec6bf73f45dce4ef23df0211787f1600f63d4f9b8b7c5f1fa0cf3c",
    ),
    (
        "ack",
        58,
        "96ba6c78500ff9b0c449c1c29f13ee72727c9a3e560b31f31c877dcbb7e693f4",
    ),
];

#[test]
fn handshake_messages_and_link_frames_keep_their_wire_bytes() {
    let (mut msgs, chan_i, chan_r) = full_handshake();
    let issuer = TicketIssuer::with_key([7; 32], 3600, 16);
    let master = chan_r.resumption_secret();
    assert_eq!(master, chan_i.resumption_secret());
    let ticket = issuer.issue(master, chan_r.peer_cert.clone(), Timestamp::ZERO);
    let (nonce_i, nonce_r) = (3, 4);
    msgs.push((
        "ticket",
        PeerMsg::Ticket {
            ticket: ticket.clone(),
        },
    ));
    msgs.push((
        "resume_hello",
        PeerMsg::ResumeHello {
            mac: initiator_mac(&master, &ticket, nonce_i).to_vec(),
            ticket,
            nonce: nonce_i,
        },
    ));
    msgs.push((
        "resume_accept",
        PeerMsg::ResumeAccept {
            nonce: nonce_r,
            mac: responder_mac(&master, nonce_i, nonce_r).to_vec(),
        },
    ));
    let mut got: Vec<(&str, usize, String)> = msgs
        .iter()
        .map(|(name, msg)| {
            let bytes = qos_wire::to_bytes(msg);
            let decoded: PeerMsg = qos_wire::from_bytes(&bytes).expect("decodes");
            assert_eq!(&decoded, msg, "{name} decodes to itself");
            (*name, bytes.len(), hex(&sha256(&bytes)))
        })
        .collect();
    got.extend(
        link_frames(chan_i, chan_r)
            .iter()
            .map(|(name, bytes)| (*name, bytes.len(), hex(&sha256(bytes)))),
    );
    let pinned: Vec<(&str, usize, String)> = PINNED
        .iter()
        .map(|(n, l, d)| (*n, *l, d.to_string()))
        .collect();
    assert_eq!(got, pinned);
}
