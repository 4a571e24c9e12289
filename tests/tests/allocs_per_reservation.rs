//! What one granted reservation costs the allocator, counted — alone in
//! its own test binary, because the count comes from a counting
//! `#[global_allocator]` and any other test running beside it would be
//! counted too (cf. `crypto_ops_per_reservation.rs`).
//!
//! An envelope is made of names and certificates; once a name is one
//! shared allocation instead of a vector of string pairs and an SLA is
//! lent instead of copied (DESIGN.md §D18), most of what a hop used to
//! ask of the allocator is gone. This pins that.

use integration_tests::{build_chain, deliver_by_hand, ChainOptions, Scenario, MBPS};
use qos_core::node::Completion;
use qos_core::SignalMessage;
use qos_crypto::Timestamp;
use qos_storage::{MemStore, SharedStore};
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

/// Put `msg` on the wire and take it off again the way a daemon does:
/// encoded to a frame body, decoded from a shared buffer.
fn over_the_wire(msg: SignalMessage) -> SignalMessage {
    let frame: Arc<[u8]> = qos_wire::to_bytes(&msg).into();
    qos_wire::from_bytes_shared(&frame).expect("what a broker sends decodes")
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
    // A first reservation fills what is lazily built (policy caches,
    // maps at their working size); the second one is measured.
    let walk = |s: &mut Scenario, id: u64| {
        let spec = s.spec("alice", id, 10 * MBPS, Timestamp(0), 3600);
        let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
        assert_eq!(rar.capability_certs().len(), 2);
        let cert = s.users["alice"].cert.clone();
        let before = ALLOCS.load(Ordering::Relaxed);
        let out = s.nodes[0].submit(rar, &cert);
        deliver_by_hand(s, 0, out, |_, msg| over_the_wire(msg));
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        match s.nodes[0].take_completions().pop() {
            Some(Completion::Reservation { result, .. }) => assert!(result.is_ok()),
            other => panic!("no reservation completed at the source: {other:?}"),
        }
        allocs
    };
    walk(&mut s, 7);
    let allocs = walk(&mut s, 8);
    println!("allocations per granted 3-domain reservation: {allocs} (parent {PARENT_ALLOCS})");
    assert!(
        allocs * 100 <= PARENT_ALLOCS * 45,
        "{allocs} allocations, more than 45 % of the parent's {PARENT_ALLOCS}"
    );
}
