//! EXP-N — DiffServ substrate sanity: an admitted EF flow keeps its
//! reserved rate through congestion while best-effort traffic absorbs
//! the loss (the §2 background the whole architecture rests on).
//!
//! Expected shape: EF goodput ≈ reserved rate (±1%) and EF loss ≈ 0 at
//! every best-effort load; best-effort loss grows once the link
//! saturates.

use qos_bench::{experiment_registry, mbps, pct, table_header, table_row, write_metrics_snapshot};
use qos_core::scenario::build_paper_world;
use qos_crypto::Timestamp;
use qos_net::flow::{FlowSpec, TrafficPattern};
use qos_net::{FlowId, NodeId, SimDuration, SimTime};

const MBPS: u64 = 1_000_000;

fn poisson(id: u64, src: NodeId, dst: NodeId, rate: u64) -> FlowSpec {
    FlowSpec {
        id: FlowId(id),
        src,
        dst,
        pattern: TrafficPattern::Poisson {
            rate_bps: rate,
            pkt_bytes: 1250,
            seed: id * 17 + 3,
        },
        start: SimTime::ZERO,
        stop: SimTime::ZERO + SimDuration::from_secs(3),
    }
}

fn main() {
    println!("EXP-N: EF protection under best-effort congestion (40 Mb/s links)\n");
    let (registry, telemetry) = experiment_registry();
    let widths = [14, 14, 12, 16, 12];
    table_header(
        &[
            "be load(Mb/s)",
            "ef goodput",
            "ef loss",
            "be goodput",
            "be loss",
        ],
        &widths,
    );

    for be_mbps in [0u64, 20, 40, 60, 100] {
        let (mut scenario, network, names) =
            build_paper_world(40 * MBPS, SimDuration::from_millis(5), telemetry.clone());

        // Alice reserves 10 Mb/s EF through the brokers (which size the
        // classifiers and ingress policers).
        let mut spec = scenario.spec("alice", 1, 10 * MBPS, Timestamp(0), 3600);
        spec.dest_domain = "domain-c".into();
        let rar = scenario.users["alice"].sign_request(spec, &scenario.nodes[0]);
        let cert = scenario.users["alice"].cert.clone();
        let mut mesh = scenario.mesh(SimDuration::from_millis(5));
        mesh.attach_network(network);
        mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
        mesh.run_until_idle();

        {
            let net = mesh.network_mut().unwrap();
            net.add_flow(poisson(1, names["alice"], names["charlie"], 10 * MBPS));
            if be_mbps > 0 {
                // Unreserved cross traffic from David's side shares the
                // B→C link but rides best-effort.
                net.add_flow(poisson(2, names["david"], names["charlie"], be_mbps * MBPS));
            }
            net.run_to_completion();
        }
        let net = mesh.network().unwrap();
        if be_mbps == 100 {
            // Final (heaviest) run: fold the per-flow packet totals into
            // the registry before the snapshot below.
            net.stats().export_telemetry(&telemetry);
        }
        let ef = net.flow_stats(FlowId(1));
        let be = net.flow_stats(FlowId(2));
        table_row(
            &[
                be_mbps.to_string(),
                mbps(ef.goodput_bps() as u64),
                pct(ef.loss_ratio()),
                mbps(be.goodput_bps() as u64),
                pct(be.loss_ratio()),
            ],
            &widths,
        );
    }
    write_metrics_snapshot("exp_diffserv_sanity", &registry);
    println!(
        "\nexpected: EF goodput pinned at ~10 Mb/s with ~0% loss at every\n\
         load; best-effort keeps whatever the 40 Mb/s bottleneck leaves\n\
         (≈30 Mb/s) and sheds the rest."
    );
}
