//! FIG4 — Figure 4: the misreservation attack, swept over David's rate.
//!
//! David reserves in domains D and B but never contacts C (possible only
//! under source-based signalling). C's ingress policer is dimensioned to
//! Alice's 10 Mb/s alone, cannot tell the flows apart, and drops the
//! aggregate excess — harming Alice. Under hop-by-hop the attack is
//! structurally impossible.
//!
//! Expected shape: Alice's loss grows with David's offered rate under the
//! attack (→ ~75% at 30 Mb/s), and stays ≈0 under hop-by-hop.

use qos_bench::{pct, table_header, table_row};
use qos_core::scenario::build_paper_world;
use qos_core::source::{enrol, AgentMode, SourceBasedRun};
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
            seed: id * 31 + 5,
        },
        start: SimTime::ZERO,
        stop: SimTime::ZERO + SimDuration::from_secs(3),
    }
}

/// Returns (alice_loss, david_loss, alice_goodput_bps).
fn run(david_rate: u64, attack: bool, telemetry: &qos_telemetry::Telemetry) -> (f64, f64, f64) {
    let hop = SimDuration::from_millis(5);
    let (mut scenario, network, names) = build_paper_world(200 * MBPS, hop, telemetry.clone());
    let david_pk = scenario.users["david"].key.public();
    let david_dn = scenario.users["david"].dn.clone();

    let mut spec_alice = scenario.spec("alice", 1, 10 * MBPS, Timestamp(0), 3600);
    spec_alice.dest_domain = "domain-c".into();
    let rar_alice = scenario.users["alice"].sign_request(spec_alice, &scenario.nodes[0]);
    let alice_cert = scenario.users["alice"].cert.clone();

    let mut spec_david = scenario.spec("david", 2, david_rate, Timestamp(0), 3600);
    spec_david.source_domain = "domain-d".into();
    spec_david.dest_domain = "domain-c".into();
    let rar_david = scenario.users["david"].sign_request(spec_david, &scenario.nodes[3]);
    let david_cert = scenario.users["david"].cert.clone();

    let domains = scenario.domains.clone();
    let mut mesh = scenario.mesh(hop);
    mesh.attach_network(network);
    enrol(&mut mesh, &domains, &david_dn, david_pk);

    mesh.submit_in(SimDuration::ZERO, "domain-a", rar_alice, alice_cert);
    mesh.run_until_idle();

    if attack {
        SourceBasedRun::skipping(
            rar_david,
            vec!["domain-d".into(), "domain-b".into(), "domain-c".into()],
            ["domain-c".to_string()],
            AgentMode::Concurrent,
        )
        .execute(&mut mesh);
    } else {
        mesh.submit_in(SimDuration::ZERO, "domain-d", rar_david, david_cert);
        mesh.run_until_idle();
    }

    {
        let net = mesh.network_mut().unwrap();
        net.add_flow(poisson(1, names["alice"], names["charlie"], 10 * MBPS));
        net.add_flow(poisson(2, names["david"], names["charlie"], david_rate));
        net.run_to_completion();
    }
    let net = mesh.network().unwrap();
    net.stats().export_telemetry(telemetry);
    let alice = net.flow_stats(FlowId(1));
    let david = net.flow_stats(FlowId(2));
    (alice.loss_ratio(), david.loss_ratio(), alice.goodput_bps())
}

fn main() {
    println!("FIG4: misreservation (Figure 4) — Alice has a valid 10 Mb/s reservation\n");
    let (registry, telemetry) = qos_bench::experiment_registry();
    let widths = [14, 16, 14, 20, 14];
    table_header(
        &[
            "david(Mb/s)",
            "signalling",
            "alice loss",
            "alice goodput(Mb/s)",
            "david loss",
        ],
        &widths,
    );
    for david_mbps in [0u64, 10, 20, 30, 50] {
        for attack in [true, false] {
            if david_mbps == 0 && attack {
                continue;
            }
            let (al, dl, goodput) = if david_mbps == 0 {
                run(1, false, &telemetry) // negligible background
            } else {
                run(david_mbps * MBPS, attack, &telemetry)
            };
            table_row(
                &[
                    david_mbps.to_string(),
                    if attack {
                        "source+skip C".into()
                    } else {
                        "hop-by-hop".into()
                    },
                    pct(al),
                    format!("{:.1}", goodput / 1e6),
                    pct(dl),
                ],
                &widths,
            );
        }
    }
    println!();
    qos_bench::write_metrics_snapshot("fig4_misreservation", &registry);
    println!(
        "\nexpected: under 'source+skip C' Alice's loss climbs towards\n\
         david/(david+10) (the flow-blind policer drops the aggregate\n\
         excess); under hop-by-hop David's reservation is complete (or\n\
         nothing) and Alice's loss stays ~0%."
    );
}
