//! EXP-S — the cost of the nested-envelope construction (D1 ablation):
//! message size, build time, and full verification time versus path
//! length, with and without capability delegation.
//!
//! Expected shape: size grows linearly in depth (certificates dominate);
//! build adds one signature per hop; destination verification is linear
//! in depth (one batched signature check per layer from cached canonical
//! bytes — the encode-once + batch-verify design, DESIGN.md D6). The
//! `µs/layer` column is the O(d) witness: it stays flat as depth grows,
//! where the pre-D6 re-encoding verifier grew linearly (O(d²) total).
//!
//! Besides the human-readable table, the run emits `BENCH_envelope.json`
//! so future changes can track the perf trajectory mechanically.

use qos_bench::{experiment_registry, table_header, table_row, write_metrics_snapshot};
use qos_broker::Interval;
use qos_core::envelope::SignedRar;
use qos_core::trust::{verify_rar, KeySource};
use qos_core::{RarId, ResSpec};
use qos_crypto::{
    CertificateAuthority, DistinguishedName, KeyPair, Timestamp, TrustPolicy, Validity,
};
use qos_policy::AttributeSet;
use qos_telemetry::{Artifact, Row, StdClock};
use std::time::Instant;

fn domain(i: usize) -> String {
    format!("domain-{i:02}")
}

fn main() {
    println!("EXP-S: nested envelope cost vs path depth\n");
    let widths = [8, 12, 14, 14, 14, 14, 16];
    table_header(
        &[
            "hops",
            "bytes",
            "build(µs)",
            "verify(µs)",
            "instr(µs)",
            "µs/layer",
            "verify sigs",
        ],
        &widths,
    );

    // A live registry, for the instrumented-verify column: the same
    // clock-read + histogram-observe pattern `BbNode` wraps around
    // destination verification, so the delta between the two verify
    // columns IS the telemetry overhead on the hot path.
    let (registry, telemetry) = experiment_registry();

    let mut artifact = Artifact::new(
        "exp_envelope_cost",
        "microseconds",
        "encode-once + batch verify (D6); us_per_layer flat => O(d) verify; \
         verify_instr_us = same verify with a live metrics registry observing it",
    );
    for hops in [1usize, 2, 3, 5, 8, 10] {
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

        // Build: user layer + `hops` wraps, averaged over several
        // constructions to stabilise the timing.
        let build_reps = 10;
        let mut rar = None;
        let t0 = Instant::now();
        for _ in 0..build_reps {
            let mut r = SignedRar::user_request(
                spec.clone(),
                DistinguishedName::broker(&domain(0)),
                vec![],
                &user,
            );
            let mut upstream = user_cert.clone();
            for i in 0..hops {
                r = SignedRar::wrap(
                    r,
                    upstream,
                    Some(DistinguishedName::broker(&domain(i + 1))),
                    vec![],
                    AttributeSet::new(),
                    DistinguishedName::broker(&domain(i)),
                    &keys[i],
                );
                upstream = certs[i].clone();
            }
            rar = Some(r);
        }
        let build_us = t0.elapsed().as_secs_f64() * 1e6 / build_reps as f64;
        let rar = rar.unwrap();
        let bytes = rar.encoded_len();

        // Destination verification (full transitive-trust walk).
        let reps = 200;
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
        let verify_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let layers = hops + 1;
        let us_per_layer = verify_us / layers as f64;

        // The same verification with a live registry observing each run
        // (the clock reads + histogram observe `BbNode` adds around
        // `verify_rar` when telemetry is installed).
        let h = hops.to_string();
        let hist = telemetry.histogram(
            "bb_envelope_verify_ns",
            "Full transitive-trust envelope verification time (ns)",
            &[("hops", &h)],
        );
        let checked = telemetry.counter(
            "bb_signatures_verified_total",
            "Signatures verified",
            &[("hops", &h)],
        );
        let t0 = Instant::now();
        for _ in 0..reps {
            let s0 = StdClock::now();
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
            hist.observe(StdClock::now().saturating_sub(s0));
            checked.add(layers as u64);
        }
        let verify_instr_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        table_row(
            &[
                hops.to_string(),
                bytes.to_string(),
                format!("{build_us:.0}"),
                format!("{verify_us:.0}"),
                format!("{verify_instr_us:.0}"),
                format!("{us_per_layer:.1}"),
                layers.to_string(),
            ],
            &widths,
        );
        artifact.push(
            Row::new()
                .field("hops", hops)
                .field("bytes", bytes)
                .field("build_us", build_us)
                .field("verify_us", verify_us)
                .field("verify_instr_us", verify_instr_us)
                .field("us_per_layer", us_per_layer)
                .field("verify_sigs", layers),
        );
    }
    println!();
    match artifact.write("BENCH_envelope.json") {
        Ok(()) => println!("wrote BENCH_envelope.json"),
        Err(e) => eprintln!("warning: could not write BENCH_envelope.json: {e}"),
    }
    write_metrics_snapshot("envelope_cost", &registry);
    println!(
        "\nexpected: bytes and verify time grow linearly with the hop\n\
         count — the price of carrying the complete, individually signed\n\
         history (and what buys path tracing + introducer-based trust) —\n\
         so µs/layer levels off at one batched signature check over\n\
         cached canonical bytes — verification never re-encodes the\n\
         nest (zero encoded bytes produced, vs O(d²) before the D6\n\
         encode-once cache), and a wrap hashes only what it appends:\n\
         a layer's digest chains over the digest of the layer inside\n\
         (D22), so build time per hop is the copy of the nest plus a\n\
         constant. A broker layer is one byte longer than before D22\n\
         when no capability chain is carried (`delegate: None`).\n\
         Absolute numbers use the 63-bit simulation-strength group; a\n\
         production 2048-bit RSA deployment would scale each signature\n\
         op by ~10³ while preserving the linear shape."
    );
}
