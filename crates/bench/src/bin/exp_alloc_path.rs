//! EXP-ALLOC — what a first-sight admission and a tunnel sub-flow
//! allocate on the one path a frame takes through a broker (D15, D18,
//! D19, D26, D27), measured with a counting global allocator.
//!
//! One claim, a hard gate (non-zero exit on failure, CI enforces):
//!
//! **Allocation churn** — one admission round trip of a reservation the
//! destination has never seen allocates at most 57 allocations per
//! operation, its count once each link shared the names and
//! certificates it delivered before (D28; 83.19 before). The round trip
//! runs on two [`LinkCore`]s, the link code the reactor runs (message
//! pushed onto the queue's open frame → popped, numbered and sealed
//! frame → pooled frame decode → borrowed `SealedRef` parse →
//! `open_in_place` → delivery index → shared-buffer `SignalMessage`
//! decode through the link's intern tables), with `BbNode::recv` and
//! full verification between them and the verdict carried back. A
//! sub-flow of a 256-flow burst of an a → c tunnel, carried the same way
//! and run through `BbNode::step` at both ends, as their reactors run
//! it, allocates at most MAX_SUBFLOW_ALLOCS (2.15 before D28). A stream of distinct certificates decodes through
//! a link's table at most 1.5× as slowly as before D28, when every
//! certificate was decoded afresh.
//!
//! That pooling and borrowed decode never change an admission outcome
//! is `tests/tests/fabric_parity.rs`.
//!
//! Besides the table, the run appends itself to `BENCH_alloc.json`. Which metric
//! families a live mesh exposes, the buffer pool's among them, is
//! `tests/tests/tcp_mesh.rs::one_observed_mesh_run_exposes_every_metric_family`.

use qos_bench::alloc_count::{self, CountingAlloc};
use qos_bench::{record, table_header, table_row};
use qos_core::channel::{handshake, ChannelIdentity, PeerPin};
use qos_core::messages::SignalMessage;
use qos_core::node::{BbNode, Completion};
use qos_core::scenario::{build_chain, ChainOptions, Scenario};
use qos_core::step::UNQUEUED;
use qos_core::{Input, PeerId};
use qos_crypto::{
    Certificate, CertificateAuthority, DistinguishedName, KeyPair, Signature, TbsCertificate,
    Timestamp, Validity,
};
use qos_net::SimDuration;
use qos_telemetry::{Artifact, Counter, Row, StdClock, Telemetry};
use qos_transport::{LinkCore, MAX_FRAME_LEN};
use qos_wire::{BufferPool, Decode, Reader};
use std::time::Instant;

/// Every allocation in the process (all threads) is counted; the gated
/// loops therefore run single-threaded.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const MBPS: u64 = 1_000_000;
/// Messages one write batch takes, as the reactor pops them.
const MAX_WRITE_BATCH: usize = 64;
const COLD_WARMUP: usize = 8;
const COLD_OPS: usize = 32;

/// A cold admission may allocate at most this much: its count once a
/// link shared the names and certificates it delivered before (D28),
/// plus a margin of two. A count, so no override: it moves only when
/// the code does.
const MAX_COLD_ALLOCS: f64 = 57.0;
/// The same row's count before D28, when every certificate and name of
/// every request was decoded afresh.
const COLD_ALLOCS_BEFORE_D28: f64 = 83.19;
/// Sub-flows in one burst of the sub-flow row, bursts run before
/// counting, and bursts counted.
const BURST_FLOWS: u64 = 256;
const BURST_WARMUP: u64 = 1;
const BURSTS: u64 = 4;
/// Rate of one sub-flow of the row's tunnel.
const FLOW_BPS: u64 = 1000;
/// A sub-flow's round trip may allocate at most this much: its count
/// once both ends run it through `BbNode::step` (D34: 0.15; 1.15 when
/// the source returned each request in a `Vec` of its own), plus a
/// margin.
const MAX_SUBFLOW_ALLOCS: f64 = 0.25;
/// The same row's count before D28 (5.28 before D27, when every queued
/// message was a buffer of its own that a write batch merged and freed).
const SUBFLOW_ALLOCS_BEFORE_D28: f64 = 2.15;
/// The certificate row: certificates per stream, rounds, passes per
/// round, and how many times the decode before D28 a stream of distinct
/// ones may cost through a link's table.
const MISS_CERTS: usize = 2048;
const MISS_ROUNDS: usize = 9;
const MISS_PASSES: usize = 15;
const MAX_MISS_RATIO: f64 = 1.5;
fn domain(i: usize) -> String {
    format!("domain-{i:02}")
}

/// Everything `from` has sealed crosses to `to`, as a socket pair would
/// carry it; the messages it completes are appended to `msgs`.
fn carry(from: &mut LinkCore, to: &mut LinkCore, msgs: &mut Vec<SignalMessage>) {
    let now = StdClock::now();
    loop {
        let out = from.bytes_out(MAX_WRITE_BATCH);
        if out.is_empty() {
            return;
        }
        let buf = to.read_buf();
        let n = out.len().min(buf.len());
        buf[..n].copy_from_slice(&out[..n]);
        from.sent(n);
        assert!(to.bytes_in(n, now, msgs), "a well-formed frame was refused");
    }
}

/// The two link cores of a fresh channel between `a` and `b`, without
/// telemetry, with the syncs crossed.
fn joined(
    chan_ca: &mut CertificateAuthority,
    pool: &BufferPool,
    a: &str,
    b: &str,
) -> [LinkCore; 2] {
    let ca_key = chan_ca.public_key();
    let (ident_a, ident_b) = (broker_identity(chan_ca, a), broker_identity(chan_ca, b));
    let pin = |name: &str| PeerPin {
        ca_key,
        dn: DistinguishedName::broker(name),
    };
    let (client, server) = handshake(&ident_a, &ident_b, &pin(b), &pin(a), 1, Timestamp::ZERO)
        .expect("channel handshake");
    let mut ends = [(a, b, 1, client), (b, a, 2, server)].map(|(domain, peer, life, channel)| {
        let disabled = Telemetry::disabled();
        let mut core = LinkCore::new(&disabled, domain, peer, life, MAX_FRAME_LEN, pool.clone());
        core.replace_session(Some(channel.split()));
        core
    });
    let [core_a, core_b] = &mut ends;
    carry(core_a, core_b, &mut Vec::new());
    carry(core_b, core_a, &mut Vec::new());
    ends
}

/// Run `inputs` through `node` as its reactor does, each run's messages
/// onto `link`; returns how many sub-flows it completed as accepted.
fn run_through(node: &mut BbNode, inputs: &mut Vec<Input>, link: &mut LinkCore) -> u64 {
    let mut accepted = 0;
    node.step(inputs, &StdClock, &Counter::noop(), |msgs, done, _| {
        for (_to, msg) in msgs.drain(..) {
            link.push(&msg);
        }
        let ok = |c: &&Completion| matches!(c, Completion::TunnelFlow { accepted: true, .. });
        accepted += done.iter().filter(ok).count() as u64;
    });
    accepted
}

/// Bursts of `BURST_FLOWS` sub-flows of an a → c tunnel: requested at
/// a's node, carried by a's link core to c's, admitted by c's node, the
/// replies carried back and applied at a, each end run through
/// `BbNode::step`. Returns allocations, bytes and ns per sub-flow over
/// the counted bursts.
fn subflow_bursts(
    s: &mut Scenario,
    chan_ca: &mut CertificateAuthority,
    pool: &BufferPool,
) -> (f64, f64, f64) {
    // The tunnel, set up over the in-process mesh; the bursts then run
    // on its end nodes by hand.
    let flows = (BURST_WARMUP + BURSTS) * BURST_FLOWS;
    let spec = s
        .spec("alice", 9000, flows * FLOW_BPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let (cert, alice) = (s.users["alice"].cert.clone(), s.users["alice"].dn.clone());
    let mut mesh = s.mesh(SimDuration::ZERO);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    assert!(
        matches!(
            mesh.completions(),
            [(_, _, Completion::Reservation { result: Ok(_), .. })]
        ),
        "the tunnel stands"
    );

    let [mut core_a, mut core_c] = joined(chan_ca, pool, "domain-a", "domain-c");
    let (mut at_a, mut at_c) = (Vec::new(), Vec::new());
    let (from_a, from_c) = (PeerId::from("domain-a"), PeerId::from("domain-c"));
    let mut inputs = Vec::with_capacity(BURST_FLOWS as usize);
    let (mut a0, mut b0, mut t0) = (0, 0, Instant::now());
    for burst in 0..BURST_WARMUP + BURSTS {
        if burst == BURST_WARMUP {
            a0 = alloc_count::allocations();
            b0 = alloc_count::allocated_bytes();
            t0 = Instant::now();
        }
        let flows = burst * BURST_FLOWS..(burst + 1) * BURST_FLOWS;
        inputs.extend(flows.map(|f| Input::TunnelFlow(tunnel, f, FLOW_BPS, None, alice.clone())));
        let refused = run_through(mesh.node_mut("domain-a"), &mut inputs, &mut core_a);
        assert_eq!(refused, 0, "the aggregate has room");
        carry(&mut core_a, &mut core_c, &mut at_c);
        inputs.extend(
            at_c.drain(..)
                .map(|m| Input::peer(from_a.clone(), m, UNQUEUED)),
        );
        run_through(mesh.node_mut("domain-c"), &mut inputs, &mut core_c);
        carry(&mut core_c, &mut core_a, &mut at_a);
        inputs.extend(
            at_a.drain(..)
                .map(|m| Input::peer(from_c.clone(), m, UNQUEUED)),
        );
        let accepted = run_through(mesh.node_mut("domain-a"), &mut inputs, &mut core_a);
        assert_eq!(accepted, BURST_FLOWS, "every sub-flow admitted once");
    }
    let counted = (BURSTS * BURST_FLOWS) as f64;
    (
        (alloc_count::allocations() - a0) as f64 / counted,
        (alloc_count::allocated_bytes() - b0) as f64 / counted,
        t0.elapsed().as_nanos() as f64 / counted,
    )
}

/// ns per certificate `(through a link's table, as before D28)` of a
/// stream of distinct certificates and of one certificate repeated: the
/// median of [`MISS_ROUNDS`] rounds, each the fastest of [`MISS_PASSES`]
/// alternating passes. Before D28 a certificate was its body and its
/// signature, decoded afresh; each value is dropped at once.
fn cert_decode_ns(ca: &mut CertificateAuthority) -> [[f64; 2]; 2] {
    let key = KeyPair::from_seed(b"miss").public();
    let cert = |i| {
        ca.issue_identity(
            DistinguishedName::broker(&domain(i)),
            key,
            Validity::unbounded(),
        )
    };
    let certs: Vec<_> = (0..MISS_CERTS).map(cert).collect();
    let distinct: Vec<u8> = certs.iter().flat_map(qos_wire::to_bytes).collect();
    let repeated = qos_wire::to_bytes(&certs[0]).repeat(MISS_CERTS);
    [distinct, repeated].map(|stream| {
        let mut rounds: Vec<[f64; 2]> = (0..MISS_ROUNDS)
            .map(|_| {
                let mut tables = qos_crypto::intern_tables();
                let mut fastest = [f64::INFINITY; 2];
                for _ in 0..MISS_PASSES {
                    for (i, best) in fastest.iter_mut().enumerate() {
                        let mut r = Reader::new(&stream);
                        if i == 0 {
                            r = r.with_tables(&mut tables);
                        }
                        let t0 = Instant::now();
                        for _ in 0..MISS_CERTS {
                            match i {
                                0 => drop(Certificate::decode(&mut r)),
                                _ => drop(<(TbsCertificate, Signature)>::decode(&mut r)),
                            }
                        }
                        *best = best.min(t0.elapsed().as_nanos() as f64 / MISS_CERTS as f64);
                    }
                }
                fastest
            })
            .collect();
        [0, 1].map(|i| {
            rounds.sort_by(|a, b| a[i].total_cmp(&b[i]));
            rounds[MISS_ROUNDS / 2][i]
        })
    })
}

fn broker_identity(ca: &mut CertificateAuthority, name: &str) -> ChannelIdentity {
    let key = KeyPair::from_seed(name.as_bytes());
    let cert = ca.issue_identity(
        DistinguishedName::broker(name),
        key.public(),
        Validity::unbounded(),
    );
    ChannelIdentity { key, cert }
}

fn main() {
    println!("EXP-ALLOC: allocations of a first-sight admission (counting allocator)\n");
    let mut artifact = Artifact::new(
        "exp_alloc_path",
        "mixed (allocs/op; ns; verdicts)",
        "allocations per first-sight admission round trip and per sub-flow of \
         a burst over two link cores, and the certificate decode through a \
         link's table (hard gates, non-zero exit on failure)",
    );
    let mut failures: Vec<String> = Vec::new();

    // ---- Part 1: allocations per admission round trip ----------------
    //
    // Single-threaded, in-process: the same bytes a socket would carry
    // are driven through the link cores the reactor runs, with no
    // reactor threads alive so the process-wide allocation counters
    // isolate the path under test.
    println!("admission round trip (two link cores + admit):");
    let widths = [10, 14, 14, 12];
    table_header(&["path", "allocs/op", "bytes/op", "ns/op"], &widths);

    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        ..ChainOptions::default()
    });
    let cert = s.users["alice"].cert.clone();

    // Secure channels stand in for the b↔c and a↔c links.
    let mut chan_ca = CertificateAuthority::new(
        DistinguishedName::authority("chan-CA"),
        KeyPair::from_seed(b"chan-ca"),
    );

    // Inputs: distinct reservations, each forwarded a → b so the
    // destination sees the realistic transit-wrapped envelope.
    let mut msgs: Vec<SignalMessage> = Vec::new();
    for i in 0..(COLD_WARMUP + COLD_OPS) as u64 {
        let spec = s.spec("alice", 1000 + i, MBPS, Timestamp(0), 3600);
        let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
        let out_a = s.nodes[0].submit(rar, &cert);
        let out_b = s.nodes[1].recv("domain-a", out_a[0].1.clone());
        msgs.push(out_b[0].1.clone());
    }

    // The loop: what the two reactors do with one admission, in one
    // thread. b's link core numbers, acks and seals the request;
    // c's decodes it out of a pooled chunk, checks the MAC and the
    // delivery index where the bytes lie and copies the message out once;
    // the node verifies and admits it in full, and the verdict goes back
    // over the same link carrying c's ack.
    let pool = BufferPool::new(4);
    let [mut core_b, mut core_c] = joined(&mut chan_ca, &pool, "domain-b", "domain-c");
    let (mut at_b, mut at_c) = (Vec::new(), Vec::new());
    let mut a0 = 0u64;
    let mut b0 = 0u64;
    let mut t0 = Instant::now();
    for (i, msg) in msgs.iter().enumerate() {
        if i == COLD_WARMUP {
            a0 = alloc_count::allocations();
            b0 = alloc_count::allocated_bytes();
            t0 = Instant::now();
        }
        core_b.push(msg);
        carry(&mut core_b, &mut core_c, &mut at_c);
        let msg = at_c.pop().expect("one message per request");
        let replies = s.nodes[2].recv("domain-b", msg);
        assert!(
            matches!(replies.first(), Some((_, SignalMessage::Approve(_)))),
            "first-sight admission approves"
        );
        for (_to, reply) in replies {
            core_c.push(&reply);
        }
        carry(&mut core_c, &mut core_b, &mut at_b);
        assert!(!at_b.is_empty(), "the verdict reaches b");
        at_b.clear();
    }
    let cold_allocs_per_op = (alloc_count::allocations() - a0) as f64 / COLD_OPS as f64;
    let cold_bytes_per_op = (alloc_count::allocated_bytes() - b0) as f64 / COLD_OPS as f64;
    let cold_ns_per_op = t0.elapsed().as_nanos() as f64 / COLD_OPS as f64;
    let (flow_allocs, flow_bytes, flow_ns) = subflow_bursts(&mut s, &mut chan_ca, &pool);
    let pool_fallbacks = pool.fallbacks();
    let [[miss_ns, miss_before], [hit_ns, hit_before]] = cert_decode_ns(&mut chan_ca);

    table_row(
        &[
            "cold".to_string(),
            format!("{cold_allocs_per_op:.2}"),
            format!("{cold_bytes_per_op:.0}"),
            format!("{cold_ns_per_op:.0}"),
        ],
        &widths,
    );
    table_row(
        &[
            "sub-flow".to_string(),
            format!("{flow_allocs:.2}"),
            format!("{flow_bytes:.0}"),
            format!("{flow_ns:.0}"),
        ],
        &widths,
    );
    println!(
        "  cold: gate {MAX_COLD_ALLOCS:.2}, {COLD_ALLOCS_BEFORE_D28:.2} before D28\n  \
         sub-flow: {BURST_FLOWS}-flow bursts a → c and back; gate {MAX_SUBFLOW_ALLOCS:.2}, \
         {SUBFLOW_ALLOCS_BEFORE_D28:.2} before D28"
    );
    println!("  pool fallbacks: {pool_fallbacks}");

    let miss_ratio = miss_ns / miss_before;
    println!(
        "  certificate decode, ns (before D28): distinct {miss_ns:.0} ({miss_before:.0}), \
         {miss_ratio:.2}x, gate {MAX_MISS_RATIO:.1}x; repeated {hit_ns:.0} ({hit_before:.0})"
    );
    artifact.push(
        Row::new()
            .field("section", "alloc_per_op")
            .field("cold_allocs_per_op", cold_allocs_per_op)
            .field("cold_bytes_per_op", cold_bytes_per_op)
            .field("cold_ns_per_op", cold_ns_per_op)
            .field("cold_ops", COLD_OPS)
            .field("subflow_allocs_per_op", flow_allocs)
            .field("subflow_bytes_per_op", flow_bytes)
            .field("subflow_ns_per_op", flow_ns)
            .field("cold_allocs_before_d28", COLD_ALLOCS_BEFORE_D28)
            .field("subflow_allocs_before_d28", SUBFLOW_ALLOCS_BEFORE_D28)
            .field("cert_miss_ns", miss_ns)
            .field("cert_miss_ns_before_d28", miss_before)
            .field("cert_hit_ns", hit_ns)
            .field("cert_hit_ns_before_d28", hit_before)
            .field("pool_fallbacks", pool_fallbacks),
    );
    if cold_allocs_per_op > MAX_COLD_ALLOCS {
        failures.push(format!(
            "a first-sight admission allocates {cold_allocs_per_op:.2} allocations/op, \
             above the {MAX_COLD_ALLOCS:.0} bound"
        ));
    }
    if flow_allocs > MAX_SUBFLOW_ALLOCS {
        failures.push(format!(
            "a sub-flow round trip allocates {flow_allocs:.2} allocations/op, \
             above the {MAX_SUBFLOW_ALLOCS:.2} bound"
        ));
    }
    if miss_ratio > MAX_MISS_RATIO {
        failures.push(format!(
            "distinct certificates decode {miss_ratio:.2}x as slowly as before D28, \
             above the {MAX_MISS_RATIO:.1}x bound"
        ));
    }
    if pool_fallbacks != 0 {
        failures.push(format!(
            "the loop fell back to owned buffers {pool_fallbacks} times; the pooled \
             decoder must stay on pooled chunks"
        ));
    }

    println!();
    let config = Row::new()
        .field("cold_warmup", COLD_WARMUP)
        .field("cold_ops", COLD_OPS)
        .field("max_write_batch", MAX_WRITE_BATCH)
        .field("burst_flows", BURST_FLOWS)
        .field("bursts", BURSTS)
        .field("miss_certs", MISS_CERTS)
        .field("miss_rounds", MISS_ROUNDS)
        .field("miss_passes", MISS_PASSES);
    record("BENCH_alloc.json", &artifact, config);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("\nFAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nexpected: a first-sight admission runs from socket bytes to a sealed\n\
         verdict within the allocation bound — pooled chunks absorb the\n\
         reads, the frame is parsed and its MAC checked where it lies, and\n\
         what is left is the owned decode, the verification and the signed\n\
         reply."
    );
}
