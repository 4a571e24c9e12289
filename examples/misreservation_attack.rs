//! Figure 4's misreservation attack, end to end through the data plane.
//!
//! David reserves bandwidth in his own domain D and transit domain B but
//! never contacts destination domain C (possible under source-based
//! signalling). Domain C polices the EF traffic *aggregate*, so David's
//! unauthorized 30 Mb/s and Alice's legitimate 10 Mb/s are
//! indistinguishable at C's ingress policer — and Alice's reservation is
//! wrecked. Under hop-by-hop signalling the incomplete reservation is
//! structurally impossible and Alice is unharmed.
//!
//! ```sh
//! cargo run -p qos-examples --bin misreservation_attack
//! ```

use qos_core::scenario::build_paper_world;
use qos_core::source::{enrol, AgentMode, SourceBasedRun};
use qos_crypto::Timestamp;
use qos_examples::mbps;
use qos_net::flow::{FlowSpec, TrafficPattern};
use qos_net::{FlowId, SimDuration, SimTime};
use qos_telemetry::Telemetry;

const MBPS: u64 = 1_000_000;

fn poisson(id: u64, src: qos_net::NodeId, dst: qos_net::NodeId, rate: u64) -> FlowSpec {
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

/// Run the scenario; `attack` selects source-based signalling with
/// David skipping domain C.
fn run(attack: bool) -> (f64, f64) {
    let hop = SimDuration::from_millis(5);
    let (mut scenario, network, names) = build_paper_world(100 * MBPS, hop, Telemetry::disabled());

    // Alice's legitimate 10 Mb/s reservation A→C (always hop-by-hop).
    let mut spec_alice = scenario.spec("alice", 1, 10 * MBPS, Timestamp(0), 3600);
    spec_alice.dest_domain = "domain-c".into();
    let rar_alice = scenario.users["alice"].sign_request(spec_alice, &scenario.nodes[0]);
    let alice_cert = scenario.users["alice"].cert.clone();

    // David's 30 Mb/s request D→C.
    let mut spec_david = scenario.spec("david", 2, 30 * MBPS, Timestamp(0), 3600);
    spec_david.source_domain = "domain-d".into();
    spec_david.dest_domain = "domain-c".into();
    let david_id = spec_david.rar_id;
    let rar_david = scenario.users["david"].sign_request(spec_david, &scenario.nodes[3]);
    let david_cert = scenario.users["david"].cert.clone();

    let domains = scenario.domains.clone();
    let mut mesh = scenario.mesh(hop);
    mesh.attach_network(network);

    // Give every broker direct trust in both users (Approach-1 needs it).
    for name in ["alice", "david"] {
        let user = &scenario.users[name];
        enrol(&mut mesh, &domains, &user.dn, user.key.public());
    }

    mesh.submit_in(SimDuration::ZERO, "domain-a", rar_alice, alice_cert);
    mesh.run_until_idle();

    if attack {
        // David goes source-based and "forgets" domain C.
        let outcome = SourceBasedRun::skipping(
            rar_david,
            vec!["domain-d".into(), "domain-b".into(), "domain-c".into()],
            ["domain-c".to_string()],
            AgentMode::Concurrent,
        )
        .execute(&mut mesh);
        println!(
            "  David's agent reports success: {} ({} replies)",
            outcome.all_accepted,
            outcome.replies.len()
        );
    } else {
        // Hop-by-hop: domain C must approve, and sizes its policer.
        mesh.submit_in(SimDuration::ZERO, "domain-d", rar_david, david_cert);
        mesh.run_until_idle();
        let granted = mesh
            .reservation_outcome("domain-d", david_id)
            .map(|(_, c)| {
                matches!(
                    c,
                    qos_core::node::Completion::Reservation { result: Ok(_), .. }
                )
            })
            .unwrap_or(false);
        println!("  David's hop-by-hop request granted: {granted}");
    }

    // Data plane: both hosts transmit at their desired rates.
    {
        let net = mesh.network_mut().unwrap();
        net.add_flow(poisson(1, names["alice"], names["charlie"], 10 * MBPS));
        net.add_flow(poisson(2, names["david"], names["charlie"], 30 * MBPS));
        net.run_to_completion();
    }
    let net = mesh.network().unwrap();
    let alice = net.flow_stats(FlowId(1));
    let david = net.flow_stats(FlowId(2));
    (alice.loss_ratio(), david.loss_ratio())
}

fn main() {
    println!("=== Misreservation attack (Figure 4) ===\n");
    println!(
        "offered load: Alice {} (reserved), David {}",
        mbps(10 * MBPS),
        mbps(30 * MBPS)
    );

    println!("\n[1] source-based signalling, David skips domain C:");
    let (alice_loss, david_loss) = run(true);
    println!("  Alice loss ratio : {:.1}%", alice_loss * 100.0);
    println!("  David loss ratio : {:.1}%", david_loss * 100.0);
    println!("  → domain C's flow-blind aggregate policer punishes Alice for David's traffic");

    println!("\n[2] hop-by-hop signalling (this paper):");
    let (alice_loss, david_loss) = run(false);
    println!("  Alice loss ratio : {:.1}%", alice_loss * 100.0);
    println!("  David loss ratio : {:.1}%", david_loss * 100.0);
    println!("  → the incomplete reservation is impossible; Alice's traffic is protected");
}
