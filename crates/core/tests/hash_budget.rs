//! The bytes one granted reservation feeds to SHA-256, counted by
//! `sha256::hashed_bytes()`, the calling thread's count: the walk below
//! carries every message from broker to broker on the test's own thread,
//! so nothing another test hashes meanwhile is counted with it.
//!
//! Signing is hash-then-sign (DESIGN.md §D21) over a chained digest
//! (§D22): a hop hashes the message it received once — every layer's
//! digest falls out of that one pass — and what it appends once, and
//! those digests are what the signatures take. The budgets below are
//! what this walk measured when §D22 landed, plus 5 %. Since nothing
//! remembers a verdict (§D29) every broker checks each signature it is
//! handed, 48 on 8 domains against 16 with a process-wide cache, each a
//! 48-byte challenge; a batch check derives eight of its coefficients
//! from one digest, which keeps the walk inside the budget. The same walk hashed 11 495 and 62 294 bytes
//! when a layer's digest was over the bytes of every layer inside it
//! and a broker minted a link certificate per hop (EXP-FOLD), 20 097
//! and 102 290 before hash-then-sign (EXP-STREAM). Every hop still
//! hashes the whole message it receives, so the total stays quadratic
//! in the number of domains.

use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions, Scenario};
use qos_core::{PeerId, SignalMessage};
use qos_crypto::sha256::hashed_bytes;
use qos_crypto::Timestamp;
use std::sync::Arc;

/// Submit one request of Alice's at the head of the chain and carry every
/// message it triggers to its broker until the chain falls silent. A
/// message crosses each hop as its encoding, as it would a socket: what
/// the sender cached beside it does not arrive.
fn reserve(s: &mut Scenario) {
    let spec = s.spec("alice", 7, 1_000_000, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut queue: Vec<(usize, PeerId, SignalMessage)> = s.nodes[0]
        .submit(rar, &cert)
        .into_iter()
        .map(|(to, msg)| (0, to, msg))
        .collect();
    while let Some((from, to, msg)) = queue.pop() {
        let wire: Arc<[u8]> = qos_wire::to_bytes(&msg).into();
        let msg = qos_wire::from_bytes_shared(&wire).expect("own encoding");
        let at = s.domains.iter().position(|d| **d == *to).expect("a peer");
        let sender = s.domains[from].clone();
        for (next, m) in s.nodes[at].recv(&sender, msg) {
            queue.push((at, next, m));
        }
    }
    match s.nodes[0].take_completions().pop() {
        Some(Completion::Reservation { result: Ok(_), .. }) => {}
        other => panic!("the reservation was not granted: {other:?}"),
    }
}

/// Bytes hashed by the second reservation over a fresh chain: the first
/// warms what a broker keeps between requests, as every reservation
/// after a broker's first finds it, and the request itself is seen for
/// the first time at every hop.
fn hashed_by_one_reservation(domains: usize) -> u64 {
    let mut s = build_chain(ChainOptions {
        domains,
        ..ChainOptions::default()
    });
    reserve(&mut s);
    let before = hashed_bytes();
    reserve(&mut s);
    hashed_bytes() - before
}

/// What [`hashed_by_one_reservation`] measured on 3 and on 8 domains.
const MEASURED_3: u64 = 6_620;
const MEASURED_8: u64 = 23_975;

#[test]
fn a_granted_reservation_stays_inside_its_hash_budget() {
    for (domains, measured) in [(3, MEASURED_3), (8, MEASURED_8)] {
        let hashed = hashed_by_one_reservation(domains);
        println!("{domains} domains: {hashed} bytes hashed per reservation");
        assert!(
            hashed * 100 <= measured * 105,
            "{domains} domains: {hashed} bytes hashed, budget 1.05 x {measured}"
        );
    }
}
