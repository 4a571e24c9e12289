//! Full control-plane → data-plane pipeline: brokers make the decisions,
//! edge routers enforce them, packets feel the difference.

use integration_tests::{build_paper_world, outcome, MBPS};
use qos_core::source::{enrol, AgentMode, SourceBasedRun};
use qos_crypto::Timestamp;
use qos_net::flow::{FlowSpec, TrafficPattern};
use qos_net::{FlowId, NodeId, SimDuration, SimTime};
use qos_telemetry::Telemetry;

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
        stop: SimTime::ZERO + SimDuration::from_secs(2),
    }
}

/// A granted reservation actually configures the edge: Alice's packets
/// ride EF end-to-end and arrive essentially loss-free.
#[test]
fn granted_reservation_protects_traffic() {
    let (mut scenario, network, names) = build_paper_world(
        40 * MBPS,
        SimDuration::from_millis(5),
        Telemetry::disabled(),
    );
    let mut spec = scenario.spec("alice", 1, 10 * MBPS, Timestamp(0), 3600);
    spec.dest_domain = "domain-c".into();
    let rar_id = spec.rar_id;
    let rar = scenario.users["alice"].sign_request(spec, &scenario.nodes[0]);
    let cert = scenario.users["alice"].cert.clone();

    let mut mesh = scenario.mesh(SimDuration::from_millis(5));
    mesh.attach_network(network);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    assert!(outcome(&mesh, "domain-a", rar_id).is_ok());

    {
        let net = mesh.network_mut().unwrap();
        net.add_flow(poisson(1, names["alice"], names["charlie"], 10 * MBPS));
        // 45 Mb/s of unreserved cross traffic through the same links
        // (30 Mb/s fit next to Alice's EF on the 40 Mb/s bottleneck).
        net.add_flow(poisson(2, names["david"], names["charlie"], 45 * MBPS));
        net.run_to_completion();
    }
    let net = mesh.network().unwrap();
    let alice = net.flow_stats(FlowId(1));
    let cross = net.flow_stats(FlowId(2));
    assert!(
        alice.loss_ratio() < 0.01,
        "reserved flow must be protected, lost {:.1}%",
        alice.loss_ratio() * 100.0
    );
    assert!(alice.received_ef > 0, "Alice's packets ride EF");
    assert!(
        cross.loss_ratio() > 0.2,
        "unreserved traffic absorbs the congestion"
    );
    assert_eq!(cross.received_ef, 0, "no reservation, no EF");
}

/// Without any reservation, the same traffic is best effort and starves
/// under congestion.
#[test]
fn without_reservation_no_protection() {
    let (mut scenario, network, names) = build_paper_world(
        40 * MBPS,
        SimDuration::from_millis(5),
        Telemetry::disabled(),
    );
    let mut mesh = scenario.mesh(SimDuration::from_millis(5));
    mesh.attach_network(network);
    {
        let net = mesh.network_mut().unwrap();
        net.add_flow(poisson(1, names["alice"], names["charlie"], 10 * MBPS));
        net.add_flow(poisson(2, names["david"], names["charlie"], 60 * MBPS));
        net.run_to_completion();
    }
    let net = mesh.network().unwrap();
    let alice = net.flow_stats(FlowId(1));
    assert!(
        alice.loss_ratio() > 0.1,
        "unreserved flow suffers, lost only {:.1}%",
        alice.loss_ratio() * 100.0
    );
}

/// The complete Figure 4 storyline as an assertion (the fig4 binary
/// prints the sweep): misreservation hurts the honest user only under
/// source-based signalling.
#[test]
fn figure4_attack_and_defense() {
    let run = |attack: bool| -> f64 {
        let hop = SimDuration::from_millis(5);
        let (mut scenario, network, names) =
            build_paper_world(200 * MBPS, hop, Telemetry::disabled());
        let david_pk = scenario.users["david"].key.public();
        let david_dn = scenario.users["david"].dn.clone();
        let mut spec_a = scenario.spec("alice", 1, 10 * MBPS, Timestamp(0), 3600);
        spec_a.dest_domain = "domain-c".into();
        let rar_a = scenario.users["alice"].sign_request(spec_a, &scenario.nodes[0]);
        let cert_a = scenario.users["alice"].cert.clone();
        let mut spec_d = scenario.spec("david", 2, 30 * MBPS, Timestamp(0), 3600);
        spec_d.source_domain = "domain-d".into();
        spec_d.dest_domain = "domain-c".into();
        let rar_d = scenario.users["david"].sign_request(spec_d, &scenario.nodes[3]);
        let cert_d = scenario.users["david"].cert.clone();

        let domains = scenario.domains.clone();
        let mut mesh = scenario.mesh(hop);
        mesh.attach_network(network);
        enrol(&mut mesh, &domains, &david_dn, david_pk);
        mesh.submit_in(SimDuration::ZERO, "domain-a", rar_a, cert_a);
        mesh.run_until_idle();
        if attack {
            SourceBasedRun::skipping(
                rar_d,
                vec!["domain-d".into(), "domain-b".into(), "domain-c".into()],
                ["domain-c".to_string()],
                AgentMode::Concurrent,
            )
            .execute(&mut mesh);
        } else {
            mesh.submit_in(SimDuration::ZERO, "domain-d", rar_d, cert_d);
            mesh.run_until_idle();
        }
        {
            let net = mesh.network_mut().unwrap();
            net.add_flow(poisson(1, names["alice"], names["charlie"], 10 * MBPS));
            net.add_flow(poisson(2, names["david"], names["charlie"], 30 * MBPS));
            net.run_to_completion();
        }
        mesh.network().unwrap().flow_stats(FlowId(1)).loss_ratio()
    };

    let loss_attack = run(true);
    let loss_honest = run(false);
    assert!(
        loss_attack > 0.4,
        "attack must hurt Alice, loss {loss_attack}"
    );
    assert!(
        loss_honest < 0.01,
        "hop-by-hop must protect Alice, loss {loss_honest}"
    );
}
