//! What one tunnel sub-flow costs the allocator on the broker side of a
//! daemon, counted — alone in its own test binary, because the count
//! comes from a counting `#[global_allocator]` and any other test running
//! beside it would be counted too (cf. `allocs_per_reservation.rs`).
//!
//! A 256-flow burst of an a → c tunnel runs the way the two end daemons
//! run it: the requests through `BbNode::step` at a, a run's messages
//! onto one frame body decoded through c's link tables, the requests
//! through `step` at c, the replies back the same way and through
//! `step` at a, and a's completions through the [`Completions`]
//! queue to a waiter that takes them one at a time, as a driver does.
//! The link's own framing, sealing and acks are `exp_alloc_path`'s
//! sub-flow row. What this pins is the per-run hand-off (DESIGN.md
//! §D33, §D34): a run's completions leave in one push, the node's
//! completion buffer is handed over in place, no message is boxed on
//! its way in, and every message goes onto the run's one buffer.

use integration_tests::{build_chain, deliver_by_hand, ChainOptions, MBPS};
use qos_core::node::{BbNode, Completion};
use qos_core::{Input, PeerId, SignalMessage};
use qos_crypto::Timestamp;
use qos_telemetry::{Counter, StdClock};
use qos_transport::Completions;
use qos_wire::{Decode, InternTables, Reader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// Sub-flows in one burst, bursts run before counting, bursts counted.
const BURST_FLOWS: u64 = 256;
const WARMUP: u64 = 1;
const BURSTS: u64 = 4;
/// Rate of one sub-flow.
const FLOW_BPS: u64 = 1000;
/// Allocations per sub-flow of the same walk before a run's completions
/// left in one hand-off: one channel `send` and a `String` domain per
/// completion, a new completion buffer per sub-flow, and every peer
/// message boxed into its input.
const ALLOCS_BEFORE_D33: f64 = 6.38;
/// The walk's count since D34 (1.17: every handler pushes onto the
/// run's one buffer, so a sub-flow's request is no `Vec` of its own;
/// 2.37 at D33), plus a margin.
const MAX_ALLOCS: f64 = 1.3;

/// One domain's end of the walk: its broker, its link tables for what it
/// receives, and the inputs its reactor has waiting.
struct End {
    node: BbNode,
    domain: PeerId,
    tables: InternTables,
    pending: Vec<Input>,
}

impl End {
    fn new(node: BbNode) -> Self {
        Self {
            domain: PeerId::from(node.domain()),
            node,
            tables: qos_crypto::intern_tables(),
            pending: Vec::with_capacity(BURST_FLOWS as usize),
        }
    }

    /// Run what waits; each run's messages go out as one frame body
    /// (all to one peer here), its completions onto `completions`.
    fn run(&mut self, completions: &Completions, frames: &mut Vec<Arc<[u8]>>) {
        let mut body = Vec::new();
        let domain = &self.domain;
        self.node.step(
            &mut self.pending,
            &StdClock,
            &Counter::noop(),
            |deliveries, done, _| {
                for (_, msg) in deliveries.drain(..) {
                    qos_wire::encode_into(&msg, &mut body);
                }
                if !body.is_empty() {
                    frames.push(body.as_slice().into());
                    body.clear();
                }
                completions.push(domain, done);
            },
        );
    }

    /// Decode `frames` from `from` through this end's tables, as its
    /// link does, onto the inputs waiting to run.
    fn receive(&mut self, from: &PeerId, frames: &mut Vec<Arc<[u8]>>) {
        for body in frames.drain(..) {
            let mut r = Reader::new_shared(&body).with_tables(&mut self.tables);
            while r.remaining() > 0 {
                let msg = SignalMessage::decode(&mut r).expect("what a broker sends decodes");
                self.pending.push(Input::peer(PeerId::clone(from), msg, 0));
            }
        }
    }
}

#[test]
fn a_subflow_allocates_per_run_not_per_message() {
    let flows = (WARMUP + BURSTS) * BURST_FLOWS;
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        ..ChainOptions::default()
    });
    let spec = s
        .spec("alice", 9000, flows * FLOW_BPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let (cert, alice) = (s.users["alice"].cert.clone(), s.users["alice"].dn.clone());
    let out = s.nodes[0].submit(rar, &cert);
    deliver_by_hand(&mut s, 0, out, |_, _, msg| msg);
    assert!(
        matches!(
            s.nodes[0].take_completions().as_slice(),
            [Completion::Reservation { result: Ok(_), .. }]
        ),
        "the tunnel stands"
    );
    let c = s.nodes.remove(2);
    let (mut a, mut c) = (End::new(s.nodes.remove(0)), End::new(c));
    let completions = Completions::new();
    let mut frames = Vec::new();
    let mut before = 0;
    for burst in 0..WARMUP + BURSTS {
        if burst == WARMUP {
            before = ALLOCS.load(Ordering::Relaxed);
        }
        for flow in burst * BURST_FLOWS..(burst + 1) * BURST_FLOWS {
            let input = Input::TunnelFlow(tunnel, flow, FLOW_BPS, None, alice.clone());
            a.pending.push(input);
        }
        a.run(&completions, &mut frames);
        c.receive(&a.domain, &mut frames);
        c.run(&completions, &mut frames);
        a.receive(&c.domain, &mut frames);
        a.run(&completions, &mut frames);
        for _ in 0..BURST_FLOWS {
            let done = completions.wait(1, Duration::ZERO);
            assert!(
                matches!(
                    done.as_slice(),
                    [(_, Completion::TunnelFlow { accepted: true, .. })]
                ),
                "every sub-flow admitted once: {done:?}"
            );
        }
    }
    let per_flow = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / (BURSTS * BURST_FLOWS) as f64;
    println!(
        "allocations per sub-flow of a {BURST_FLOWS}-flow burst: {per_flow:.2} \
         ({ALLOCS_BEFORE_D33} before D33)"
    );
    assert!(
        per_flow <= MAX_ALLOCS,
        "{per_flow:.2} allocations per sub-flow, more than {MAX_ALLOCS}"
    );
    assert!(completions.wait(1, Duration::ZERO).is_empty(), "one each");
}
