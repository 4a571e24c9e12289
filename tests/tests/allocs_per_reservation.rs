//! What one granted reservation costs the allocator, counted — alone in
//! its own test binary, because the count comes from a counting
//! `#[global_allocator]` and any other test running beside it would be
//! counted too (cf. `crypto_ops_per_reservation.rs`).
//!
//! An envelope is made of names and certificates; once a name is one
//! shared allocation instead of a vector of string pairs and an SLA is
//! lent instead of copied (DESIGN.md §D18), most of what a hop used to
//! ask of the allocator is gone; once each link shares the names and
//! certificates it delivered before (§D28), a request decodes few of
//! them afresh. This pins both.

use integration_tests::{build_chain, deliver_by_hand, ChainOptions, Scenario, MBPS};
use qos_core::node::Completion;
use qos_core::SignalMessage;
use qos_crypto::Timestamp;
use qos_storage::{MemStore, SharedStore};
use qos_wire::{Decode, InternTables, Reader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is
// a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (`alloc` + `realloc` calls) of the walk below at the
/// parent commit (de05c9d), same test, same process shape.
const PARENT_ALLOCS: u64 = 985;
/// The same walk before a link shared the names and certificates it
/// delivered before (DESIGN.md §D28), each decoded from a plain reader.
const ALLOCS_BEFORE_D28: u64 = 252;
/// The walk's count since D28, plus a margin: what a link's tables
/// save must stay saved.
const MAX_ALLOCS: u64 = 210;

/// The intern tables of each directed link, created on first use.
#[derive(Default)]
struct Links(Vec<(String, String, InternTables)>);

impl Links {
    /// Put `msg` on the wire from `from` to `to` and take it off again
    /// the way a daemon does: encoded to a frame body, decoded from a
    /// shared buffer through that link's tables.
    fn over_the_wire(&mut self, from: &str, to: &str, msg: SignalMessage) -> SignalMessage {
        let at = match self.0.iter().position(|(f, t, _)| f == from && t == to) {
            Some(at) => at,
            None => {
                let tables = qos_crypto::intern_tables();
                self.0.push((from.to_string(), to.to_string(), tables));
                self.0.len() - 1
            }
        };
        let frame: Arc<[u8]> = qos_wire::to_bytes(&msg).into();
        let mut r = Reader::new_shared(&frame).with_tables(&mut self.0[at].2);
        let msg = SignalMessage::decode(&mut r).expect("what a broker sends decodes");
        r.finish().expect("one message per frame");
        msg
    }
}

#[test]
fn a_granted_reservation_allocates_under_half_of_what_it_did() {
    // a -> b -> c, Alice's capability chain and all; every broker logs
    // to a ledger store, as every daemon does.
    let mut s = build_chain(ChainOptions::default());
    for node in &s.nodes {
        let store: SharedStore = Arc::new(MemStore::default());
        node.attach_store(store);
    }
    let mut links = Links::default();
    // A first reservation fills what is lazily built (policy caches,
    // maps at their working size, each link's tables); the second one
    // is measured.
    let mut walk = |s: &mut Scenario, id: u64| {
        let spec = s.spec("alice", id, 10 * MBPS, Timestamp(0), 3600);
        let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
        assert_eq!(rar.capability_certs().len(), 2);
        let cert = s.users["alice"].cert.clone();
        let before = ALLOCS.load(Ordering::Relaxed);
        let out = s.nodes[0].submit(rar, &cert);
        deliver_by_hand(s, 0, out, |from, to, msg| {
            links.over_the_wire(from, to, msg)
        });
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        match s.nodes[0].take_completions().pop() {
            Some(Completion::Reservation { result, .. }) => assert!(result.is_ok()),
            other => panic!("no reservation completed at the source: {other:?}"),
        }
        allocs
    };
    walk(&mut s, 7);
    let allocs = walk(&mut s, 8);
    println!(
        "allocations per granted 3-domain reservation: {allocs} \
         ({ALLOCS_BEFORE_D28} before D28, parent {PARENT_ALLOCS})"
    );
    assert!(
        allocs * 100 <= PARENT_ALLOCS * 45,
        "{allocs} allocations, more than 45 % of the parent's {PARENT_ALLOCS}"
    );
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs} allocations, more than the {MAX_ALLOCS} a link's tables leave"
    );
}
