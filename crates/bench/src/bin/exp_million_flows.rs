//! EXP-M — million-flow tunnel fast path (ROADMAP item 2).
//!
//! The paper's answer to per-flow transit cost is tunnel aggregation:
//! one end-to-end reservation, then source↔destination-only sub-flow
//! admission. This experiment quantifies that claim at scale on a
//! seeded transit/stub AS graph (hundreds of domains): an open-loop
//! Poisson workload with diurnal modulation and bimodal holding times
//! pushes 10⁶+ sub-flows through pre-established tunnels, and the run
//! reports
//!
//! * µs/flow at the two end domains, cold (tables growing) vs warm
//!   (steady state) — the full request→admit→reply trip;
//! * transit broker rx: grows with the *tunnel* count during setup and
//!   must not grow at all during sub-flow admission (O(tunnels), not
//!   O(flows));
//! * resident bytes per held sub-flow record across every broker's
//!   `FlowTable`s and expiry wheels, at ≥ 10⁶ simultaneously held
//!   reservations.
//!
//! Artifacts: `BENCH_million_flows.json` +
//! `METRICS_million_flows.{prom,json}` (`flow_table_occupancy`,
//! `flow_admit_ns`, `flow_expiry_sweeps_total`). Gates (env-overridable,
//! 0 disables): warm µs/flow ≤ `EXP_MF_MAX_WARM_US` (default 5), bytes
//! per held record ≤ `EXP_MF_MAX_BYTES_PER_FLOW` (default 64), and a
//! hard zero on transit rx growth during the sub-flow phase. Scale the
//! run down with `EXP_MF_HELD_TARGET` on small hosts.

use qos_bench::workload::{OpenLoopWorkload, WorkloadOptions};
use qos_bench::{experiment_registry, table_header, table_row, write_metrics_snapshot};
use qos_broker::Interval;
use qos_core::drive::Mesh;
use qos_core::node::Completion;
use qos_core::rar::{RarId, ResSpec};
use qos_core::scenario::{build_as_graph, AsGraphOptions};
use qos_core::{PeerId, SignalMessage};
use qos_crypto::Timestamp;
use qos_net::SimDuration;
use std::time::Instant;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One pre-established tunnel: aggregate reservation from a source stub
/// to a destination stub.
struct Tunnel {
    rar: RarId,
    src: PeerId,
    dst: String,
}

fn transit_rx(mesh: &Mesh, transits: &[String]) -> u64 {
    transits.iter().map(|d| mesh.node(d).counters().rx).sum()
}

fn main() {
    let held_target = env_u64("EXP_MF_HELD_TARGET", 1_000_000) as usize;
    let n_tunnels = env_u64("EXP_MF_TUNNELS", 64) as usize;
    let n_transits = env_u64("EXP_MF_TRANSITS", 12) as usize;
    let n_stubs = env_u64("EXP_MF_STUBS", 188) as usize;
    let seed = env_u64("EXP_MF_SEED", 0xE9);
    let rate_bps = env_u64("EXP_MF_RATE_BPS", 256);
    let cold_n = env_u64("EXP_MF_COLD_FLOWS", 10_000) as usize;
    let max_warm_us = env_f64("EXP_MF_MAX_WARM_US", 5.0);
    let max_bytes_per_flow = env_f64("EXP_MF_MAX_BYTES_PER_FLOW", 64.0);
    let churn_fraction = 0.3;

    // Offered load: enough arrivals that the long-held class alone
    // reaches the target; a top-up pass afterwards lands it exactly.
    let offered = (held_target as f64 / (1.0 - churn_fraction)).ceil() as usize;
    let per_tunnel = offered.div_ceil(n_tunnels) + offered / 8;
    let aggregate_bps = rate_bps * per_tunnel as u64 * 2;

    println!(
        "EXP-M: {offered} sub-flows through {n_tunnels} tunnels on a seeded AS graph \
         ({n_transits} transits + {n_stubs} stubs), target {held_target} held\n"
    );

    let (registry, telemetry) = experiment_registry();
    let mut graph = build_as_graph(AsGraphOptions {
        transits: n_transits,
        stubs: n_stubs,
        seed,
        telemetry: telemetry.clone(),
        ..AsGraphOptions::default()
    });
    for node in &mut graph.scenario.nodes {
        node.install_telemetry(telemetry.clone());
    }

    // ---- Phase 1: establish tunnels (stub→stub aggregate RARs). -------
    assert!(
        2 * n_tunnels <= graph.stubs.len(),
        "need 2·EXP_MF_TUNNELS distinct stub endpoints \
         ({} tunnels, {} stubs)",
        n_tunnels,
        graph.stubs.len()
    );
    let mut tunnels: Vec<Tunnel> = Vec::with_capacity(n_tunnels);
    let mut signed = Vec::with_capacity(n_tunnels);
    let alice_dn = graph.scenario.users["alice"].dn.clone();
    let alice_cert = graph.scenario.users["alice"].cert.clone();
    for i in 0..n_tunnels {
        let src = graph.stubs[2 * i].clone();
        let dst = graph.stubs[2 * i + 1].clone();
        let rar_id = graph.scenario.next_rar_id();
        let spec = ResSpec::new(
            rar_id,
            alice_dn.clone(),
            &src,
            &dst,
            0,
            aggregate_bps,
            Interval::starting_at(Timestamp(0), 100_000_000),
        )
        .as_tunnel();
        let src_node = graph
            .scenario
            .nodes
            .iter()
            .find(|n| n.domain() == src)
            .expect("src stub exists");
        signed.push((
            src.clone(),
            graph.scenario.users["alice"].sign_request(spec, src_node),
        ));
        tunnels.push(Tunnel {
            rar: rar_id,
            src: src.into(),
            dst,
        });
    }

    let mut mesh = Mesh::new();
    for node in graph.scenario.nodes.drain(..) {
        mesh.add_node(node);
    }

    // Two halves, to show setup-phase transit load is O(tunnels).
    let half = n_tunnels / 2;
    for (src, rar) in signed.drain(..half.max(1)) {
        mesh.submit_in(SimDuration::ZERO, &src, rar, alice_cert.clone());
    }
    mesh.run_until_idle();
    let rx_half = transit_rx(&mesh, &graph.transits);
    for (src, rar) in signed.drain(..) {
        mesh.submit_in(SimDuration::ZERO, &src, rar, alice_cert.clone());
    }
    mesh.run_until_idle();
    let rx_setup = transit_rx(&mesh, &graph.transits);

    let granted = tunnels
        .iter()
        .filter(|t| {
            matches!(
                mesh.reservation_outcome(&t.src, t.rar),
                Some((_, Completion::Reservation { result: Ok(_), .. }))
            )
        })
        .count();
    assert_eq!(
        granted, n_tunnels,
        "all tunnel aggregates must establish (got {granted}/{n_tunnels})"
    );
    println!(
        "setup: {granted}/{n_tunnels} tunnels up; transit rx {rx_half} after \
         {}/{n_tunnels} tunnels, {rx_setup} after all\n",
        half.max(1)
    );

    // ---- Phase 2: open-loop sub-flow workload, end domains only. ------
    let mut events = OpenLoopWorkload::new(WorkloadOptions {
        seed,
        churn_fraction,
        ..WorkloadOptions::default()
    });
    let mut accepted = 0usize;
    let mut denied = 0usize;
    let mut expired = 0usize;
    let mut held = 0usize;
    let mut cold_ns = 0u128;
    let mut cold_flows = 0usize;
    let mut warm_ns = 0u128;
    let mut warm_flows = 0usize;
    let mut last_tick = 0u64;

    const BATCH: usize = 1024;
    let mut issued = 0usize;
    let mut batch = Vec::with_capacity(BATCH);
    while issued < offered {
        batch.clear();
        while batch.len() < BATCH && issued < offered {
            batch.push(events.next().expect("workload is endless"));
            issued += 1;
        }
        let now_s = batch.last().expect("non-empty batch").at_s;

        let t0 = Instant::now();
        // Source side: admit against the tunnel budget and queue toward
        // the destination, grouped per tunnel: one call per destination.
        let mut per_tunnel_reqs: Vec<Vec<(PeerId, qos_core::messages::TunnelFlowRequest)>> =
            vec![Vec::new(); n_tunnels];
        for e in &batch {
            let t = &tunnels[(e.flow % n_tunnels as u64) as usize];
            let hold = Timestamp((e.at_s + e.hold_s).ceil() as u64);
            match mesh.node_mut(&t.src).request_tunnel_flow_held(
                t.rar,
                e.flow,
                rate_bps,
                Some(hold),
                alice_dn.clone(),
            ) {
                Ok(out) => {
                    for (_, msg) in out {
                        if let SignalMessage::TunnelFlow(req) = msg {
                            per_tunnel_reqs[(e.flow % n_tunnels as u64) as usize]
                                .push((t.src.clone(), req));
                        }
                    }
                }
                Err(_) => denied += 1,
            }
        }
        // Destination side: admission of each request from the tunnel's
        // source, replies straight back to the source broker.
        for (i, reqs) in per_tunnel_reqs.into_iter().enumerate() {
            if reqs.is_empty() {
                continue;
            }
            let t = &tunnels[i];
            let replies = mesh.node_mut(&t.dst).recv_tunnel_flows(reqs);
            for (to, msg) in replies {
                mesh.node_mut(&to).recv(&t.dst, msg);
            }
        }
        let elapsed = t0.elapsed().as_nanos();
        if accepted + denied < cold_n {
            cold_ns += elapsed;
            cold_flows += batch.len();
        } else {
            warm_ns += elapsed;
            warm_flows += batch.len();
        }
        // Harvest verdicts (also drains per-node completion buffers).
        for t in &tunnels {
            for c in mesh.node_mut(&t.src).take_completions() {
                match c {
                    Completion::TunnelFlow { accepted: true, .. } => {
                        accepted += 1;
                        held += 1;
                    }
                    Completion::TunnelFlow {
                        accepted: false, ..
                    } => denied += 1,
                    _ => {}
                }
            }
        }

        // Advance virtual wall time: hold-expiry sweeps at every source,
        // releases delivered to the destinations.
        let tick = now_s as u64;
        if tick > last_tick {
            last_tick = tick;
            for t in &tunnels {
                let out = mesh.node_mut(&t.src).expire_tunnel_flows(Timestamp(tick));
                expired += out.len();
                held -= out.len();
                for (_, msg) in out {
                    mesh.node_mut(&t.dst).recv(&t.src, msg);
                }
            }
        }
    }

    // ---- Phase 3: top up to exactly `held_target` standing flows. -----
    let mut flow_id = offered as u64;
    while held < held_target {
        let t = &tunnels[(flow_id % n_tunnels as u64) as usize];
        match mesh.node_mut(&t.src).request_tunnel_flow_held(
            t.rar,
            flow_id,
            rate_bps,
            None,
            alice_dn.clone(),
        ) {
            Ok(out) => {
                for (_, msg) in out {
                    if let SignalMessage::TunnelFlow(req) = msg {
                        let replies = mesh
                            .node_mut(&t.dst)
                            .recv_tunnel_flows(vec![(t.src.clone(), req)]);
                        for (to, reply) in replies {
                            mesh.node_mut(&to).recv(&t.dst, reply);
                        }
                    }
                }
            }
            Err(e) => panic!("top-up flow denied at source: {e:?}"),
        }
        for c in mesh.node_mut(&t.src).take_completions() {
            if let Completion::TunnelFlow { accepted: ok, .. } = c {
                assert!(ok, "top-up flow denied at destination");
                accepted += 1;
                held += 1;
            }
        }
        flow_id += 1;
    }

    let rx_flows = transit_rx(&mesh, &graph.transits);

    // ---- Phase 4: accounting. -----------------------------------------
    let (mut records, mut bytes) = (0usize, 0usize);
    for d in graph.transits.iter().chain(graph.stubs.iter()) {
        let (r, b) = mesh.node(d).held_flow_stats();
        records += r;
        bytes += b;
    }
    let cold_us = cold_ns as f64 / 1e3 / cold_flows.max(1) as f64;
    let warm_us = warm_ns as f64 / 1e3 / warm_flows.max(1) as f64;
    let bytes_per_record = bytes as f64 / records.max(1) as f64;
    let bytes_per_resv = bytes as f64 / held.max(1) as f64;

    let widths = [30, 16];
    table_header(&["metric", "value"], &widths);
    let rows: Vec<(&str, String)> = vec![
        ("tunnels", n_tunnels.to_string()),
        (
            "sub-flows offered",
            (issued + (flow_id as usize - offered)).to_string(),
        ),
        ("accepted", accepted.to_string()),
        ("denied", denied.to_string()),
        ("expired (hold lapsed)", expired.to_string()),
        ("held at end", held.to_string()),
        ("cold us/flow", format!("{cold_us:.2}")),
        ("warm us/flow", format!("{warm_us:.2}")),
        ("transit rx half-setup", rx_half.to_string()),
        ("transit rx full-setup", rx_setup.to_string()),
        ("transit rx after flows", rx_flows.to_string()),
        ("held records (both ends)", records.to_string()),
        (
            "resident MiB",
            format!("{:.1}", bytes as f64 / (1 << 20) as f64),
        ),
        ("bytes/held record", format!("{bytes_per_record:.1}")),
        ("bytes/reservation (2 ends)", format!("{bytes_per_resv:.1}")),
    ];
    for (k, v) in &rows {
        table_row(&[k.to_string(), v.clone()], &widths);
    }

    let mut artifact = qos_telemetry::Artifact::new(
        "exp_million_flows",
        "mixed",
        "EXP-M: open-loop Poisson sub-flows over pre-established tunnels on a \
         seeded AS graph; warm us/flow = full source-request -> destination \
         admit -> source reply trip; transit rx must not grow \
         during the sub-flow phase",
    );
    artifact.push(
        qos_telemetry::Row::new()
            .field("tunnels", n_tunnels as u64)
            .field("transits", n_transits as u64)
            .field("stubs", n_stubs as u64)
            .field("offered", (issued + (flow_id as usize - offered)) as u64)
            .field("accepted", accepted as u64)
            .field("denied", denied as u64)
            .field("expired", expired as u64)
            .field("held", held as u64)
            .field("cold_us_per_flow", cold_us)
            .field("warm_us_per_flow", warm_us)
            .field("transit_rx_half_setup", rx_half)
            .field("transit_rx_full_setup", rx_setup)
            .field("transit_rx_after_flows", rx_flows)
            .field("held_records", records as u64)
            .field("resident_bytes", bytes as u64)
            .field("bytes_per_held_record", bytes_per_record)
            .field("bytes_per_reservation", bytes_per_resv),
    );
    match artifact.write("BENCH_million_flows.json") {
        Ok(()) => println!("\nwrote BENCH_million_flows.json"),
        Err(e) => eprintln!("\nwarning: could not write BENCH_million_flows.json: {e}"),
    }
    write_metrics_snapshot("million_flows", &registry);

    // ---- Gates. --------------------------------------------------------
    let mut failed = false;
    if rx_flows != rx_setup {
        eprintln!(
            "\nFAIL: transit brokers received {} messages during the sub-flow \
             phase — tunnel admission must be source<->destination only",
            rx_flows - rx_setup
        );
        failed = true;
    }
    if max_warm_us > 0.0 && warm_us > max_warm_us {
        eprintln!(
            "\nFAIL: warm sub-flow admission {warm_us:.2} us/flow exceeds the \
             {max_warm_us:.2} us ceiling (override with EXP_MF_MAX_WARM_US; 0 disables)"
        );
        failed = true;
    }
    if max_bytes_per_flow > 0.0 && bytes_per_record > max_bytes_per_flow {
        eprintln!(
            "\nFAIL: {bytes_per_record:.1} resident bytes per held flow record \
             exceeds the {max_bytes_per_flow:.0} B ceiling (override with \
             EXP_MF_MAX_BYTES_PER_FLOW; 0 disables)"
        );
        failed = true;
    }
    if held < held_target {
        eprintln!("\nFAIL: only {held} flows held at end (target {held_target})");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "\nexpected: transit rx identical before/after 10^6 sub-flow admissions \
         (O(tunnels), the paper's aggregation claim), warm us/flow in the \
         single-digit microseconds, and ~32-48 B of broker state per held \
         flow record across slab + index + expiry wheel."
    );
}
