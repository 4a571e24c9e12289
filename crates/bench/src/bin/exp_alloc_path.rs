//! EXP-ALLOC — what a first-sight admission allocates on the one path a
//! frame takes through a broker (D15, D18, D19), measured with a
//! counting global allocator.
//!
//! Two claims, each a hard gate (non-zero exit on failure, CI
//! enforces):
//!
//! 1. **Allocation churn** — one admission round trip of a reservation
//!    the destination has never seen, driven through the pipeline the
//!    reactor runs (pooled frame decode → borrowed `SealedRef` parse →
//!    `open_in_place` → delivery index → shared-buffer `SignalMessage`
//!    decode → `BbNode::recv` with full verification → `seal_in_place`
//!    and the hand-rolled frame encode), allocates at most 140
//!    allocations per operation: 45 % of the 312 it cost while a name
//!    was a vector of string pairs (D18).
//! 2. **Latency** — warm depth-8 envelope verification must stay
//!    strictly better than the committed `BENCH_warm.json` baseline
//!    (5.62 µs). The baseline is the pre-D15 committed value,
//!    deliberately not re-read from disk: `exp_warm_path` rewrites the
//!    file earlier in the same CI job, which would make a file-based
//!    comparison circular.
//!
//! That pooling and borrowed decode never change an admission outcome
//! is `tests/tests/fabric_parity.rs`.
//!
//! Besides the table, the run emits `BENCH_alloc.json` and
//! `METRICS_alloc_path.{prom,json}`; the metrics snapshot carries the
//! `buffer_pool_chunks_in_use` and `buffer_pool_fallbacks_total`
//! families CI greps for.

use qos_bench::alloc_count::{self, CountingAlloc};
use qos_bench::{
    experiment_registry, spawn_chain, table_header, table_row, write_metrics_snapshot,
};
use qos_broker::Interval;
use qos_core::channel::{handshake, ChannelIdentity, PeerPin, SealedRef};
use qos_core::envelope::SignedRar;
use qos_core::messages::SignalMessage;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::trust::{verify_rar, KeySource};
use qos_core::{RarId, ResSpec};
use qos_crypto::sha256::Digest;
use qos_crypto::{
    CertificateAuthority, DistinguishedName, KeyPair, Timestamp, TrustPolicy, Validity,
};
use qos_policy::AttributeSet;
use qos_telemetry::{Artifact, Row};
use qos_transport::{PooledFrameDecoder, TcpMesh, MAX_FRAME_LEN};
use qos_wire::BufferPool;
use std::time::Instant;

/// Every allocation in the process (all threads) is counted; the gated
/// loops therefore run single-threaded with no meshes alive.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const MBPS: u64 = 1_000_000;
const ENVELOPE_HOPS: usize = 8;
const VERIFY_REPS: usize = 100;
const VERIFY_PASSES: usize = 5;
/// Reliability-header data tag (`reactor::FRAME_DATA`).
const FRAME_DATA: u8 = 0;
/// `[tag][u64 index][u64 ack]` (`reactor::DATA_HEADER`).
const RELIABILITY_HEADER: usize = 17;
const COLD_WARMUP: usize = 8;
const COLD_OPS: usize = 32;

/// A cold admission may allocate at most this much: 45 % of the 312
/// allocations per operation of the commit before D18. A count, so no
/// override: it moves only when the code does.
const MAX_COLD_ALLOCS: f64 = 140.0;
/// `BENCH_warm.json` warm_us as committed before the D15 zero-alloc
/// work landed.
const BASELINE_WARM_US: f64 = 5.62;

/// Size every steady-state memo for `capacity == 0` (everything off) or
/// any other value (verify cache at `capacity`, envelope memo at its
/// default) — same knob as `exp_warm_path`.
fn set_cache_capacities(capacity: usize) {
    qos_crypto::vcache::set_capacity(capacity);
    qos_core::trust::set_rar_memo_capacity(if capacity == 0 {
        0
    } else {
        qos_core::trust::RAR_MEMO_DEFAULT_CAPACITY
    });
}

fn domain(i: usize) -> String {
    format!("domain-{i:02}")
}

/// Append `[frame len u32][tag 2][payload len u32][payload][seq u64][mac]`
/// — the canonical `PeerMsg::Frame` encoding behind the transport's
/// length prefix, hand-rolled as the reactor's write path does it. The
/// transport pins this layout byte-for-byte
/// (`hand_encoded_frame_matches_canonical_encoding`).
fn append_sealed_frame(out: &mut Vec<u8>, payload: &[u8], seq: u64, mac: &Digest) {
    let msg_len = 1 + 4 + payload.len() + 8 + mac.len();
    out.extend_from_slice(&(msg_len as u32).to_le_bytes());
    out.push(2); // PeerMsg::Frame tag
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(mac);
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

/// Build the depth-`hops` nested envelope of EXP-S and time `reps`
/// destination verifications, returning µs per verification (same
/// construction as `exp_warm_path`, so the number is comparable to the
/// committed baseline).
fn envelope_verify_us(hops: usize, reps: usize) -> f64 {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let user = KeyPair::from_seed(b"alice");
    let user_cert = ca.issue_identity(
        DistinguishedName::user("Alice", "ANL"),
        user.public(),
        Validity::unbounded(),
    );
    let keys: Vec<KeyPair> = (0..hops)
        .map(|i| KeyPair::from_seed(domain(i).as_bytes()))
        .collect();
    let certs: Vec<_> = (0..hops)
        .map(|i| {
            ca.issue_identity(
                DistinguishedName::broker(&domain(i)),
                keys[i].public(),
                Validity::unbounded(),
            )
        })
        .collect();
    let spec = ResSpec::new(
        RarId(1),
        DistinguishedName::user("Alice", "ANL"),
        &domain(0),
        &domain(hops),
        7,
        10_000_000,
        Interval::starting_at(Timestamp(0), 3600),
    );
    let mut rar =
        SignedRar::user_request(spec, DistinguishedName::broker(&domain(0)), vec![], &user);
    let mut upstream = user_cert;
    for i in 0..hops {
        rar = SignedRar::wrap(
            rar,
            upstream,
            Some(DistinguishedName::broker(&domain(i + 1))),
            vec![],
            AttributeSet::new(),
            DistinguishedName::broker(&domain(i)),
            &keys[i],
        );
        upstream = certs[i].clone();
    }

    let t0 = Instant::now();
    for _ in 0..reps {
        verify_rar(
            &rar,
            keys[hops - 1].public(),
            &DistinguishedName::broker(&domain(hops)),
            TrustPolicy {
                max_chain_depth: 64,
            },
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn main() {
    println!("EXP-ALLOC: allocations of a first-sight admission (counting allocator)\n");
    let (registry, telemetry) = experiment_registry();
    qos_core::install_verify_cache_telemetry(&telemetry);
    let mut artifact = Artifact::new(
        "exp_alloc_path",
        "mixed (allocs/op; us; verdicts)",
        "allocations per first-sight admission on the pooled/borrowed/in-place \
         pipeline and warm depth-8 envelope verification vs the committed \
         baseline (hard gates, non-zero exit on failure)",
    );
    let mut failures: Vec<String> = Vec::new();

    // ---- Part 1: allocations per admission round trip ----------------
    //
    // Single-threaded, in-process: the same bytes a socket would carry
    // are driven through the exact decode → open → admit → seal
    // pipeline the reactor runs, with no reactor threads alive so the
    // process-wide allocation counters isolate the path under test.
    println!("admission round trip (reliability header + sealed frame + admit):");
    let widths = [10, 14, 14, 12];
    table_header(&["path", "allocs/op", "bytes/op", "ns/op"], &widths);

    set_cache_capacities(4096);
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        ..ChainOptions::default()
    });
    let cert = s.users["alice"].cert.clone();

    // A secure channel standing in for the b↔c link.
    let mut chan_ca = CertificateAuthority::new(
        DistinguishedName::authority("chan-CA"),
        KeyPair::from_seed(b"chan-ca"),
    );
    let ca_key = chan_ca.public_key();
    let ident_b = broker_identity(&mut chan_ca, "domain-b");
    let ident_c = broker_identity(&mut chan_ca, "domain-c");
    let pin = |name: &str| PeerPin {
        ca_key,
        dn: DistinguishedName::broker(name),
    };
    let (client, server) = handshake(
        &ident_b,
        &ident_c,
        &pin("domain-c"),
        &pin("domain-b"),
        1,
        Timestamp::ZERO,
    )
    .expect("channel handshake");
    let (mut seal, _) = client.split();
    let (mut reply_seal, mut open) = server.split();

    // Inputs: distinct reservations, each forwarded a → b so the
    // destination sees the realistic transit-wrapped envelope.
    let mut msgs: Vec<SignalMessage> = Vec::new();
    for i in 0..(COLD_WARMUP + COLD_OPS) as u64 {
        let spec = s.spec("alice", 1000 + i, MBPS, Timestamp(0), 3600);
        let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
        let out_a = s.nodes[0].submit_batch(vec![(rar, cert.clone())]);
        let out_b = s.nodes[1].recv("domain-a", out_a[0].1.clone());
        msgs.push(out_b[0].1.clone());
    }

    // The loop: what the reactor and a shard do with one frame, in one
    // thread. The sender queues an indexed plaintext and seals it at
    // write time; the receiver decodes it out of a pooled chunk, checks
    // the MAC and the delivery index where the bytes lie, copies the
    // message out once, and the node verifies and admits it in full.
    let pool = BufferPool::new(4);
    let mut decoder = PooledFrameDecoder::new(MAX_FRAME_LEN, pool.clone());
    let mut wire: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let data_frame = |index: u64, msg: &SignalMessage| {
        let mut plain = Vec::with_capacity(RELIABILITY_HEADER + 128);
        plain.push(FRAME_DATA);
        plain.extend_from_slice(&index.to_le_bytes());
        plain.extend_from_slice(&index.to_le_bytes()); // the ack riding along
        qos_wire::encode_into(msg, &mut plain);
        plain
    };
    let mut a0 = 0u64;
    let mut b0 = 0u64;
    let mut t0 = Instant::now();
    for (i, msg) in msgs.iter().enumerate() {
        if i == COLD_WARMUP {
            a0 = alloc_count::allocations();
            b0 = alloc_count::allocated_bytes();
            t0 = Instant::now();
        }
        let plain = data_frame(i as u64, msg);
        let (seq, mac) = seal.seal_in_place(&plain);
        wire.clear();
        append_sealed_frame(&mut wire, &plain, seq, &mac);

        decoder.push(&wire);
        let frame = decoder.next_frame().unwrap().expect("one whole frame");
        let mut r = qos_wire::Reader::new(frame.bytes());
        assert_eq!(r.get_u8().unwrap(), 2, "PeerMsg::Frame tag");
        let sealed = SealedRef::parse(&mut r).unwrap();
        r.finish().unwrap();
        open.open_in_place(sealed.payload, sealed.seq, &sealed.mac)
            .unwrap();
        assert_eq!(sealed.payload[0], FRAME_DATA);
        let body = &sealed.payload[RELIABILITY_HEADER..];
        let msg: SignalMessage = qos_wire::from_bytes_shared(&body.into()).unwrap();
        let replies = s.nodes[2].recv("domain-b", msg);
        assert!(
            matches!(replies.first(), Some((_, SignalMessage::Approve(_)))),
            "first-sight admission approves"
        );
        for (_to, reply) in replies {
            let plain = data_frame(i as u64, &reply);
            let (seq, mac) = reply_seal.seal_in_place(&plain);
            out.clear();
            append_sealed_frame(&mut out, &plain, seq, &mac);
            std::hint::black_box(out.len());
        }
    }
    let cold_allocs_per_op = (alloc_count::allocations() - a0) as f64 / COLD_OPS as f64;
    let cold_bytes_per_op = (alloc_count::allocated_bytes() - b0) as f64 / COLD_OPS as f64;
    let cold_ns_per_op = t0.elapsed().as_nanos() as f64 / COLD_OPS as f64;
    let pool_fallbacks = pool.fallbacks();

    table_row(
        &[
            "cold".to_string(),
            format!("{cold_allocs_per_op:.2}"),
            format!("{cold_bytes_per_op:.0}"),
            format!("{cold_ns_per_op:.0}"),
        ],
        &widths,
    );
    println!("  pool fallbacks: {pool_fallbacks}");
    artifact.push(
        Row::new()
            .field("section", "alloc_per_op")
            .field("cold_allocs_per_op", cold_allocs_per_op)
            .field("cold_bytes_per_op", cold_bytes_per_op)
            .field("cold_ns_per_op", cold_ns_per_op)
            .field("cold_ops", COLD_OPS)
            .field("pool_fallbacks", pool_fallbacks),
    );
    if cold_allocs_per_op > MAX_COLD_ALLOCS {
        failures.push(format!(
            "a first-sight admission allocates {cold_allocs_per_op:.2} allocations/op, \
             above the {MAX_COLD_ALLOCS:.0} bound"
        ));
    }
    if pool_fallbacks != 0 {
        failures.push(format!(
            "the loop fell back to owned buffers {pool_fallbacks} times; the pooled \
             decoder must stay on pooled chunks"
        ));
    }

    // ---- Part 2: warm depth-8 verification vs committed baseline -----
    println!(
        "\ndepth-{ENVELOPE_HOPS} envelope verification ({VERIFY_PASSES}x{VERIFY_REPS} reps, min):"
    );
    let widths = [14, 16, 10];
    table_header(&["warm(µs)", "baseline(µs)", "margin"], &widths);
    set_cache_capacities(qos_crypto::vcache::DEFAULT_CAPACITY);
    envelope_verify_us(ENVELOPE_HOPS, 1); // untimed pass fills the caches
    let mut verify_warm_us = f64::INFINITY;
    for _ in 0..VERIFY_PASSES {
        verify_warm_us = verify_warm_us.min(envelope_verify_us(ENVELOPE_HOPS, VERIFY_REPS));
    }
    let margin = BASELINE_WARM_US / verify_warm_us;
    table_row(
        &[
            format!("{verify_warm_us:.2}"),
            format!("{BASELINE_WARM_US:.2}"),
            format!("{margin:.2}x"),
        ],
        &widths,
    );
    artifact.push(
        Row::new()
            .field("section", "envelope_verify")
            .field("hops", ENVELOPE_HOPS)
            .field("warm_us", verify_warm_us)
            .field("baseline_us", BASELINE_WARM_US),
    );
    if verify_warm_us >= BASELINE_WARM_US {
        failures.push(format!(
            "warm depth-{ENVELOPE_HOPS} verification ({verify_warm_us:.2}µs) is not \
             strictly better than the committed baseline ({BASELINE_WARM_US:.2}µs)"
        ));
    }

    // ---- Part 3: live mesh run for the pool metric families ----------
    println!("\npooled mesh run (metrics snapshot):");
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        telemetry: telemetry.clone(),
        ..ChainOptions::default()
    });
    let mut rars = Vec::new();
    for i in 0..8u64 {
        let spec = s.spec("alice", 2000 + i, 5 * MBPS, Timestamp(0), 3600);
        rars.push(s.users["alice"].sign_request(spec, &s.nodes[0]));
    }
    let cert = s.users["alice"].cert.clone();
    let mut mesh = TcpMesh::new();
    mesh.set_telemetry(telemetry.clone());
    let mesh = spawn_chain(&mut s, mesh);
    let n = rars.len();
    mesh.submit_all(
        "domain-a",
        rars.into_iter().map(|r| (r, cert.clone())).collect(),
    );
    mesh.wait_completions(n);
    mesh.shutdown();
    let mesh_fallbacks: u64 = ["domain-a", "domain-b", "domain-c"]
        .iter()
        .map(|d| {
            registry
                .counter_value("buffer_pool_fallbacks_total", &[("domain", d)])
                .unwrap_or(0)
        })
        .sum();
    println!("  mesh pool fallbacks across domains: {mesh_fallbacks}");
    artifact.push(
        Row::new()
            .field("section", "pooled_mesh")
            .field("mesh_pool_fallbacks", mesh_fallbacks),
    );

    println!();
    match artifact.write("BENCH_alloc.json") {
        Ok(()) => println!("wrote BENCH_alloc.json"),
        Err(e) => eprintln!("warning: could not write BENCH_alloc.json: {e}"),
    }
    write_metrics_snapshot("alloc_path", &registry);

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
