//! EXP-L — §3's prose claim: "source-domain-based signalling may be
//! faster than hop-by-hop based signalling, because the reservations for
//! each domain can be made in parallel."
//!
//! Sweeps the path length with heterogeneous per-hop latencies and
//! reports end-to-end signalling latency for the three strategies.
//!
//! Expected shape: source-concurrent ≈ 2×(max distance) < hop-by-hop =
//! 2×(total distance) ≤ source-sequential = 2×Σ distances. Crossover:
//! never — concurrent always wins on latency; the paper adopts
//! hop-by-hop anyway for its trust and correctness properties.

use qos_bench::{experiment_registry, table_header, table_row, write_metrics_snapshot};
use qos_core::drive::Mesh;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::source::{enrol, AgentMode, SourceBasedRun};
use qos_crypto::Timestamp;
use qos_net::{SimDuration, SimTime};

const MBPS: u64 = 1_000_000;

/// Per-hop latency: 3 + 2·(i mod 4) ms — heterogeneous, deterministic.
fn hop_latency(i: usize) -> u64 {
    3 + 2 * (i as u64 % 4)
}

fn mesh_with_hops(s: &mut qos_core::scenario::Scenario) -> Mesh {
    let mut mesh = s.mesh(SimDuration::ZERO);
    for (i, (a, b)) in s.links.iter().enumerate() {
        mesh.set_latency(a, b, SimDuration::from_millis(hop_latency(i)));
    }
    // Per-message broker processing (signature verification, policy
    // evaluation, admission): 2 ms. This is what hop-by-hop pays at
    // every hop sequentially and source-concurrent pays only once per
    // broker, in parallel.
    mesh.set_processing_delay(SimDuration::from_millis(2));
    mesh
}

fn main() {
    println!("EXP-L: signalling latency vs path length (heterogeneous hops)\n");
    let (registry, telemetry) = experiment_registry();
    let widths = [8, 16, 18, 18, 16];
    table_header(
        &[
            "domains",
            "hop-by-hop(ms)",
            "src-concurrent(ms)",
            "src-sequential(ms)",
            "sum-hops(ms)",
        ],
        &widths,
    );

    for n in [2usize, 3, 4, 6, 8, 10] {
        let total_hops_ms: u64 = (0..n - 1).map(hop_latency).sum();

        // Hop-by-hop.
        let hb_ms = {
            let mut s = build_chain(ChainOptions {
                domains: n,
                telemetry: telemetry.clone(),
                ..ChainOptions::default()
            });
            let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
            let rar_id = spec.rar_id;
            let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
            let cert = s.users["alice"].cert.clone();
            let mut mesh = mesh_with_hops(&mut s);
            mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
            mesh.run_until_idle();
            let (t, _) = mesh.reservation_outcome("domain-a", rar_id).unwrap();
            (t - SimTime::ZERO).as_secs_f64() * 1e3
        };

        // Source-based (both modes).
        let mut src = [0f64; 2];
        for (slot, mode) in [(0, AgentMode::Concurrent), (1, AgentMode::Sequential)] {
            let mut s = build_chain(ChainOptions {
                domains: n,
                telemetry: telemetry.clone(),
                ..ChainOptions::default()
            });
            let domains = s.domains.clone();
            let pk = s.users["alice"].key.public();
            let dn = s.users["alice"].dn.clone();
            let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
            let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
            let mut mesh = mesh_with_hops(&mut s);
            enrol(&mut mesh, &domains, &dn, pk);
            let outcome = SourceBasedRun::honest(rar, domains, mode).execute(&mut mesh);
            assert!(outcome.all_accepted);
            src[slot] = outcome.latency().as_secs_f64() * 1e3;
        }

        table_row(
            &[
                n.to_string(),
                format!("{hb_ms:.0}"),
                format!("{:.0}", src[0]),
                format!("{:.0}", src[1]),
                total_hops_ms.to_string(),
            ],
            &widths,
        );
    }
    write_metrics_snapshot("exp_latency_sweep", &registry);
    println!(
        "\nexpected (2 ms processing per message at each broker):\n\
         hop-by-hop  = 2×sum-hops + 2(n-1)×processing  (serial chain);\n\
         src-concurrent = 2×(distance to farthest) + 1×processing — all\n\
         brokers work in parallel, so it wins by ~2(n-1)-1 processing\n\
         steps (the paper: 'source … may be faster … because the\n\
         reservations for each domain can be made in parallel');\n\
         src-sequential = 2×Σ distances + n×processing — grows\n\
         quadratically on a line, the clear loser."
    );
}
