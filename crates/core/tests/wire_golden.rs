//! Golden wire bytes of the signalling messages a 3-domain chain sends:
//! a request nest as it reaches the destination, the destination's
//! approval, a tunnel sub-flow request and its reply. Each is pinned by
//! its length and SHA-256, so a change to how a message is held in
//! memory (a variant boxed, a field reordered in the type) that moves a
//! wire byte fails here. Every message is built deterministically:
//! seeded keys, deterministic signature nonces, fixed timestamps.

use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::{PeerId, SignalMessage};
use qos_crypto::sha256::sha256;
use qos_crypto::Timestamp;

const MBPS: u64 = 1_000_000;

/// The one message of `out`, checked to go to `to`.
fn only(out: Vec<(PeerId, SignalMessage)>, to: &str) -> SignalMessage {
    match <[_; 1]>::try_from(out) {
        Ok([(peer, msg)]) if &*peer == to => msg,
        Ok([(peer, _)]) => panic!("sent to {peer}, not {to}"),
        Err(out) => panic!("expected one message to {to}, got {out:?}"),
    }
}

/// `(name, message)` for each golden message, in a fixed order.
fn goldens() -> Vec<(&'static str, SignalMessage)> {
    let mut s = build_chain(ChainOptions::default());
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();

    // A reservation: a → b → c, and c's approval back to b.
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let to_b = only(s.nodes[0].submit(rar, &cert), "domain-b");
    let request = only(s.nodes[1].recv("domain-a", to_b), "domain-c");
    let approve = only(s.nodes[2].recv("domain-b", request.clone()), "domain-b");

    // A tunnel a → c, set up hop by hop, then one sub-flow through it.
    let spec = s
        .spec("alice", 8, 50 * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let to_b = only(s.nodes[0].submit(rar, &cert), "domain-b");
    let to_c = only(s.nodes[1].recv("domain-a", to_b), "domain-c");
    let back_b = only(s.nodes[2].recv("domain-b", to_c), "domain-b");
    let back_a = only(s.nodes[1].recv("domain-c", back_b), "domain-a");
    assert!(s.nodes[0].recv("domain-b", back_a).is_empty());
    assert!(matches!(
        s.nodes[0].take_completions().as_slice(),
        [Completion::Reservation { result: Ok(_), .. }]
    ));
    let flow = s.nodes[0]
        .request_tunnel_flow(tunnel, 1, 5 * MBPS, alice)
        .expect("the tunnel has room");
    let flow = only(flow, "domain-c");
    let reply = only(s.nodes[2].recv("domain-a", flow.clone()), "domain-a");

    vec![
        ("request", request),
        ("approve", approve),
        ("tunnel_flow", flow),
        ("tunnel_flow_reply", reply),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Length and SHA-256 of each golden message's encoding, captured before
/// `SignalMessage::Request` held its envelope in a box (DESIGN.md §D33).
const PINNED: [(&str, usize, &str); 4] = [
    (
        "request",
        1280,
        "b3c5ea125617c54c35a6e9aeec2657c2ff18a6a0aedaec68a330617eca6e368a",
    ),
    (
        "approve",
        256,
        "d20cd186e3cac5116513c54d60d14187e127b077a27a40d4351af4cf40bf2541",
    ),
    (
        "tunnel_flow",
        71,
        "5ccb5e9c21cd2aee1dec92903e693bb70d3e887e26b2f45a9563c30083f6406e",
    ),
    (
        "tunnel_flow_reply",
        22,
        "e94bb55f303c783c1e58bdadcacd088e254c82e75d2dde2e03389894eea79b97",
    ),
];

#[test]
fn signalling_messages_keep_their_wire_bytes() {
    let got: Vec<(&str, usize, String)> = goldens()
        .iter()
        .map(|(name, msg)| {
            let bytes = qos_wire::to_bytes(msg);
            // A decoded message encodes to the bytes it came from.
            let decoded: SignalMessage = qos_wire::from_bytes(&bytes).expect("decodes");
            assert_eq!(&decoded, msg, "{name} decodes to itself");
            assert_eq!(qos_wire::to_bytes(&decoded), bytes, "{name} re-encodes");
            (*name, bytes.len(), hex(&sha256(&bytes)))
        })
        .collect();
    let pinned: Vec<(&str, usize, String)> = PINNED
        .iter()
        .map(|(n, l, d)| (*n, *l, d.to_string()))
        .collect();
    assert_eq!(got, pinned);
}
