//! The public-key work one reservation costs, counted — in a test binary
//! of its own whose tests take turns, because `schnorr::sign_ops()` /
//! `verify_ops()` are process-wide counters.
//!
//! A broker proves possession of its own key once, when it is built, not
//! on every request (DESIGN.md §D17), and the layer it signs *is* its
//! delegation of the capability chain (§D22): what is left per request
//! is one signature per hop outward and one per hop on the way back. A
//! tunnel sub-flow costs none (§D23).

use integration_tests::{build_chain, chain_links, deliver_by_hand, ChainOptions, Scenario, MBPS};
use qos_core::node::Completion;
use qos_core::{PeerId, SignalMessage, SignedRar};
use qos_crypto::schnorr::{sign_ops, verify_ops};
use qos_crypto::{DelegationChain, Timestamp, Validity};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Held by each test while it counts.
static COUNTING: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Verifications this scenario costs, message by message (no batch), with
/// nothing remembered between checks (DESIGN.md §D29): a — user
/// certificate, user signature, the two chain certificates (4); b — a's
/// layer, the two chain certificates, a's link by key equality (3); c —
/// b's layer, then `verify_view` on all three layers, the two chain
/// certificates, the links by key equality (6).
/// 9 while a process-wide verify cache served b's and c's chain
/// certificates and a memo kept verdicts (up to 47c9cff), 14 with a
/// possession proof per broker (0cfac30), 11 with minted link
/// certificates (de05c9d … c913072).
const VERIFIES: u64 = 13;

const NEEDS_ESNET: &str =
    "if Issued_by(Capability) = ESnet { return grant }\nreturn deny \"needs an ESnet capability\"";

/// Deliver `out` and everything it triggers, hop by hop, until the chain
/// falls silent. Returns every request envelope sent on the way, by
/// receiving domain.
fn deliver(
    s: &mut Scenario,
    from: usize,
    out: Vec<(PeerId, SignalMessage)>,
) -> HashMap<String, SignedRar> {
    let mut forwarded = HashMap::new();
    deliver_by_hand(s, from, out, |_, to, msg| {
        if let SignalMessage::Request(rar) = &msg {
            forwarded.insert(to.to_string(), rar.clone());
        }
        msg
    });
    forwarded
}

fn granted(s: &mut Scenario) -> bool {
    match s.nodes[0].take_completions().pop() {
        Some(Completion::Reservation { result, .. }) => result.is_ok(),
        other => panic!("no reservation completed at the source: {other:?}"),
    }
}

/// Entries of Figure 7's capability list in `rar`: the certificates of
/// the user's layer, then the brokers' folded links.
fn list_len(rar: &SignedRar) -> usize {
    rar.capability_certs().len() + chain_links(rar).len()
}

/// Alice's request with her capability delegated to the broker at chain
/// index `holder` instead of the one she submits to.
fn request_delegated_to(s: &mut Scenario, holder: usize) -> SignedRar {
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let alice = &s.users["alice"];
    let grant = alice.capability.clone().expect("alice holds a grant");
    let chain = DelegationChain::new(grant)
        .delegate(
            &alice.proxy,
            s.nodes[holder].dn().clone(),
            s.nodes[holder].public_key(),
            vec![],
            Validity::unbounded(),
        )
        .expect("alice holds the proxy key");
    SignedRar::user_request(spec, s.nodes[0].dn().clone(), chain.certs, &alice.key)
}

#[test]
fn a_grant_signs_five_times_and_foreign_chains_grant_nothing() {
    let _turn = counting();
    // One granted reservation over a -> b -> c, capability chain and all.
    let mut s = build_chain(ChainOptions::default());
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    assert_eq!(list_len(&rar), 2, "CAS grant + delegation to a");
    let cert = s.users["alice"].cert.clone();
    let (signs, verifies) = (sign_ops(), verify_ops());
    let out = s.nodes[0].submit(rar, &cert);
    let forwarded = deliver(&mut s, 0, out);
    assert!(granted(&mut s));
    assert_eq!(list_len(&forwarded["domain-b"]), 3);
    assert_eq!(list_len(&forwarded["domain-c"]), 4);
    for rar in forwarded.values() {
        assert_eq!(rar.capability_certs().len(), 2, "brokers mint nothing");
    }
    // 2 wraps (a, b), each its broker's delegation as well, + 3 approval
    // signatures (c originates, b and a endorse). With a link
    // certificate per wrap this was 7; with a possession proof of each
    // broker's own key to itself on every request, 10.
    assert_eq!(sign_ops() - signs, 5);
    assert_eq!(verify_ops() - verifies, VERIFIES);

    // A chain delegated to b's key, submitted at a: a cannot use it —
    // where a's policy asks for a capability, the request is denied …
    let mut s = build_chain(ChainOptions {
        policies: HashMap::from([(0, NEEDS_ESNET.to_string())]),
        ..ChainOptions::default()
    });
    let rar = request_delegated_to(&mut s, 1);
    let cert = s.users["alice"].cert.clone();
    assert!(s.nodes[0].submit(rar, &cert).is_empty());
    assert!(!granted(&mut s), "a chain held by b grants nothing at a");

    // … and where it does not, a carries the chain onward as it came
    // (two certificates, no link of a's own), so b, whose key it names,
    // can use it and hands it to c.
    let mut s = build_chain(ChainOptions {
        policies: HashMap::from([(1, NEEDS_ESNET.to_string())]),
        ..ChainOptions::default()
    });
    let rar = request_delegated_to(&mut s, 1);
    let signs = sign_ops();
    let out = s.nodes[0].submit(rar, &cert);
    assert_eq!(sign_ops() - signs, 1, "a wraps, and delegates nothing");
    let forwarded = deliver(&mut s, 0, out);
    assert_eq!(list_len(&forwarded["domain-b"]), 2);
    assert_eq!(list_len(&forwarded["domain-c"]), 3);
    assert!(granted(&mut s), "b holds the chain and its policy sees it");
}

#[test]
fn tunnel_subflows_and_their_releases_cost_no_public_key_operation() {
    const FLOWS: u64 = 8;
    let _turn = counting();
    let mut s = build_chain(ChainOptions::default());
    let spec = s
        .spec("david", 7, FLOWS * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["david"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["david"].cert.clone();
    let david = s.users["david"].dn.clone();
    let out = s.nodes[0].submit(rar, &cert);
    deliver(&mut s, 0, out);
    assert!(granted(&mut s), "the tunnel stands");

    let (signs, verifies) = (sign_ops(), verify_ops());
    for flow in 0..FLOWS {
        let out = s.nodes[0]
            .request_tunnel_flow(tunnel, flow, MBPS, david.clone())
            .expect("the aggregate has room");
        deliver(&mut s, 0, out);
    }
    let accepted = s.nodes[0]
        .take_completions()
        .iter()
        .filter(|c| matches!(c, Completion::TunnelFlow { accepted: true, .. }))
        .count();
    assert_eq!(accepted as u64, FLOWS);
    for flow in 0..FLOWS {
        let out = s.nodes[0]
            .release_tunnel_flow(tunnel, flow, MBPS)
            .expect("a tunnel");
        deliver(&mut s, 0, out);
    }
    assert_eq!(s.nodes[2].held_flow_stats().0, 0, "every flow released");
    assert_eq!(sign_ops() - signs, 0, "a sub-flow is signed by nobody");
    assert_eq!(verify_ops() - verifies, 0, "and verified by nobody");
}
