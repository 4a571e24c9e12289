//! End-to-end protocol tests over the virtual-time mesh: hop-by-hop
//! signalling (§6), denials with rollback, Figure 6 policies, tunnels,
//! the Approach-1 baseline with misreservation, STARS, and billing.

use qos_core::drive::Mesh;
use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions, Scenario};
use qos_core::source::{AgentMode, ReservationCoordinator, SourceBasedRun};
use qos_core::RarId;
use qos_crypto::Timestamp;
use qos_net::{SimDuration, SimTime};
use qos_policy::samples;
use std::collections::HashMap;

const MBPS: u64 = 1_000_000;

fn mesh_from(scenario: &mut Scenario, hop_latency_ms: u64) -> Mesh {
    let mut mesh = Mesh::new();
    let domains = scenario.domains.clone();
    for node in scenario.nodes.drain(..) {
        mesh.add_node(node);
    }
    for w in domains.windows(2) {
        mesh.set_latency(&w[0], &w[1], SimDuration::from_millis(hop_latency_ms));
    }
    mesh
}

fn approval_of(
    mesh: &Mesh,
    domain: &str,
    rar: RarId,
) -> Result<qos_core::Approval, qos_core::Denial> {
    let (_, c) = mesh
        .reservation_outcome(domain, rar)
        .unwrap_or_else(|| panic!("no completion for {rar:?} at {domain}"));
    match c {
        Completion::Reservation { result, .. } => result.clone(),
        other => panic!("unexpected completion {other:?}"),
    }
}

#[test]
fn hop_by_hop_reservation_grants_end_to_end() {
    let mut s = build_chain(ChainOptions::default());
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);

    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();

    let approval = approval_of(&mesh, "domain-a", rar_id).expect("granted");
    // Approval endorsed by C (origin), then B, then A.
    let path: Vec<&str> = approval.entries.iter().map(|e| e.domain.as_str()).collect();
    assert_eq!(path, vec!["domain-c", "domain-b", "domain-a"]);
    // The endorsement chain verifies with the brokers' keys.
    let keys: HashMap<String, qos_crypto::PublicKey> = ["domain-a", "domain-b", "domain-c"]
        .iter()
        .map(|d| (d.to_string(), mesh.node(d).public_key()))
        .collect();
    approval
        .verify(|dn| dn.org_unit().and_then(|ou| keys.get(ou)).copied())
        .unwrap();

    // Capacity is committed in every domain.
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert_eq!(
            mesh.node(d).core().available_bw_at(Timestamp(10)),
            1_000_000_000 - 10 * MBPS,
            "domain {d}"
        );
    }

    // Alice contacted one broker; each transit peer saw exactly one
    // Request and one Approve.
    assert_eq!(mesh.messages_to("domain-b", "Request"), 1);
    assert_eq!(mesh.messages_to("domain-c", "Request"), 1);
    assert_eq!(mesh.messages_to("domain-b", "Approve"), 1);
    assert_eq!(mesh.messages_to("domain-a", "Approve"), 1);

    // Round trip across 2 hops of 5 ms each: 20 ms.
    let (t, _) = mesh.reservation_outcome("domain-a", rar_id).unwrap();
    assert_eq!(t, SimTime(20_000_000));
}

#[test]
fn downstream_denial_propagates_and_rolls_back() {
    // Domain C denies everything.
    let mut policies = HashMap::new();
    policies.insert(
        2,
        r#"return deny "domain C is closed for maintenance""#.to_string(),
    );
    let mut s = build_chain(ChainOptions {
        policies,
        ..ChainOptions::default()
    });
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);

    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();

    let denial = approval_of(&mesh, "domain-a", rar_id).expect_err("denied");
    assert_eq!(denial.domain, "domain-c");
    assert!(denial.reason.contains("maintenance"), "{}", denial.reason);

    // The holds in A and B were rolled back.
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert_eq!(
            mesh.node(d).core().available_bw_at(Timestamp(10)),
            1_000_000_000,
            "domain {d} must have released its hold"
        );
    }
}

#[test]
fn sla_exhaustion_denies_at_the_bottleneck() {
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 15 * MBPS,
        ..ChainOptions::default()
    });
    let spec1 = s.spec("alice", 1, 10 * MBPS, Timestamp(0), 3600);
    let spec2 = s.spec("alice", 2, 10 * MBPS, Timestamp(0), 3600);
    let id1 = spec1.rar_id;
    let id2 = spec2.rar_id;
    let rar1 = s.users["alice"].sign_request(spec1, &s.nodes[0]);
    let rar2 = s.users["alice"].sign_request(spec2, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);

    mesh.submit_in(SimDuration::ZERO, "domain-a", rar1, cert.clone());
    mesh.submit_in(SimDuration::from_millis(100), "domain-a", rar2, cert);
    mesh.run_until_idle();

    assert!(approval_of(&mesh, "domain-a", id1).is_ok());
    let denial = approval_of(&mesh, "domain-a", id2).expect_err("second must not fit 15 Mb/s SLA");
    assert!(
        denial.reason.contains("insufficient capacity"),
        "{}",
        denial.reason
    );
}

#[test]
fn figure6_policies_govern_the_chain() {
    // The exact policy files of Figure 6 on the three domains.
    let mut policies = HashMap::new();
    policies.insert(0, samples::FIG6_DOMAIN_A.to_string());
    policies.insert(1, samples::FIG6_DOMAIN_B.to_string());
    policies.insert(2, samples::FIG6_DOMAIN_C.to_string());
    let mut s = build_chain(ChainOptions {
        policies,
        ..ChainOptions::default()
    });

    // Alice, 10 Mb/s, with her ESnet capability and a coupled CPU
    // reservation 111 in domain C — the exact request of Figure 6.
    let spec = s
        .spec("alice", 7, 10 * MBPS, Timestamp(0), 3600)
        .with_cpu_reservation(111);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);
    mesh.node_mut("domain-c").add_cpu_reservation(111);

    // At 10:00 business time.
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert.clone());
    mesh.run_until_idle();
    assert!(
        approval_of(&mesh, "domain-a", rar_id).is_ok(),
        "Figure 6's request must be granted"
    );

    // Same request without the CPU reservation: C denies.
    let mut s2 = {
        let mut policies = HashMap::new();
        policies.insert(0, samples::FIG6_DOMAIN_A.to_string());
        policies.insert(1, samples::FIG6_DOMAIN_B.to_string());
        policies.insert(2, samples::FIG6_DOMAIN_C.to_string());
        build_chain(ChainOptions {
            policies,
            ..ChainOptions::default()
        })
    };
    let spec = s2.spec("alice", 8, 10 * MBPS, Timestamp(0), 3600); // no cpu resv
    let rar_id2 = spec.rar_id;
    let rar = s2.users["alice"].sign_request(spec, &s2.nodes[0]);
    let cert2 = s2.users["alice"].cert.clone();
    let mut mesh2 = mesh_from(&mut s2, 5);
    mesh2.submit_in(SimDuration::ZERO, "domain-a", rar, cert2);
    mesh2.run_until_idle();
    let denial = approval_of(&mesh2, "domain-a", rar_id2).expect_err("no CPU resv");
    assert_eq!(denial.domain, "domain-c");
    assert!(denial.reason.contains("CPU"), "{}", denial.reason);
}

#[test]
fn business_hours_cap_denies_at_source() {
    let mut policies = HashMap::new();
    policies.insert(0, samples::FIG6_DOMAIN_A.to_string());
    let mut s = build_chain(ChainOptions {
        policies,
        ..ChainOptions::default()
    });
    // 20 Mb/s at 10:00 — above Alice's business-hours cap.
    let spec = s.spec("alice", 7, 20 * MBPS, Timestamp::from_hours(10), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);
    // Submit at simulated 10:00 so `Time` is inside business hours.
    mesh.submit_in(SimDuration::from_secs(10 * 3600), "domain-a", rar, cert);
    mesh.run_until_idle();
    let denial = approval_of(&mesh, "domain-a", rar_id).expect_err("capped");
    assert_eq!(denial.domain, "domain-a");
    assert!(denial.reason.contains("10Mb/s"), "{}", denial.reason);
    // Denied at the source: no downstream broker was ever contacted.
    assert_eq!(mesh.messages_to("domain-b", "Request"), 0);
}

#[test]
fn tunnel_subflows_touch_only_end_domains() {
    let mut s = build_chain(ChainOptions::default());
    let spec = s
        .spec("alice", 0, 50 * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let alice_dn = s.users["alice"].dn.clone();
    let mut mesh = mesh_from(&mut s, 5);
    // Direct channel A↔C crosses the same wires: 10 ms one-way (derived
    // automatically from the route).
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    assert!(approval_of(&mesh, "domain-a", tunnel_id).is_ok());

    let transit_before = mesh.node("domain-b").counters().rx;

    // Ten 5 Mb/s sub-flows: all fit in the 50 Mb/s aggregate.
    for flow in 1..=10u64 {
        mesh.tunnel_flow_in(
            SimDuration::ZERO,
            "domain-a",
            tunnel_id,
            flow,
            5 * MBPS,
            alice_dn.clone(),
        );
    }
    mesh.run_until_idle();

    let accepted = mesh
        .completions()
        .iter()
        .filter(|(_, _, c)| matches!(c, Completion::TunnelFlow { accepted: true, .. }))
        .count();
    assert_eq!(accepted, 10);
    // The transit broker processed NO additional messages.
    assert_eq!(mesh.node("domain-b").counters().rx, transit_before);
    // The 11th sub-flow exceeds the aggregate and is refused at the
    // source without any signalling.
    mesh.tunnel_flow_in(
        SimDuration::ZERO,
        "domain-a",
        tunnel_id,
        11,
        5 * MBPS,
        alice_dn,
    );
    mesh.run_until_idle();
    let rejected = mesh
        .completions()
        .iter()
        .filter(|(_, _, c)| {
            matches!(
                c,
                Completion::TunnelFlow {
                    accepted: false,
                    flow: 11,
                    ..
                }
            )
        })
        .count();
    assert_eq!(rejected, 1);
    assert_eq!(
        mesh.node("domain-a").tunnel_remaining_bps(tunnel_id),
        Some(0)
    );
}

#[test]
fn source_based_concurrent_beats_hop_by_hop_latency() {
    // 5 domains, 5 ms per hop.
    let n = 5;
    let mut s = build_chain(ChainOptions {
        domains: n,
        ..ChainOptions::default()
    });
    let domains = s.domains.clone();
    let alice_pk = s.users["alice"].key.public();
    let alice_dn = s.users["alice"].dn.clone();

    // Hop-by-hop run.
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let hb_id = spec.rar_id;
    let rar_hb = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();

    // Approach-1 run (all BBs must know Alice).
    let spec2 = s.spec("alice", 8, 10 * MBPS, Timestamp(0), 3600);
    let rar_direct = s.users["alice"].sign_request(spec2, &s.nodes[0]);
    for node in &mut s.nodes {
        node.add_direct_user(alice_dn.clone(), alice_pk);
    }

    let mut mesh = mesh_from(&mut s, 5);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar_hb, cert);
    mesh.run_until_idle();
    let (t_hb, _) = mesh.reservation_outcome("domain-a", hb_id).unwrap();
    // 4 hops × 5 ms × 2 directions = 40 ms.
    assert_eq!(t_hb, SimTime(40_000_000));

    let t0 = mesh.now();
    let outcome = SourceBasedRun::honest(rar_direct, domains.clone(), AgentMode::Concurrent)
        .execute(&mut mesh);
    assert!(outcome.all_accepted, "{:?}", outcome.replies);
    // Concurrent: bounded by the farthest broker, 4 hops × 5 ms × 2 = 40 ms
    // …but all requests run in parallel, so the whole batch is 40 ms too —
    // while hop-by-hop serializes processing at every hop. With zero
    // processing cost they tie; the advantage appears in the per-domain
    // message pattern (and with nonzero processing time, in EXP-L).
    assert_eq!(outcome.finished - t0, SimDuration::from_millis(40));
    assert_eq!(outcome.replies.len(), n);
}

#[test]
fn source_based_sequential_is_slowest() {
    let n = 4;
    let mut s = build_chain(ChainOptions {
        domains: n,
        ..ChainOptions::default()
    });
    let domains = s.domains.clone();
    let alice_pk = s.users["alice"].key.public();
    let alice_dn = s.users["alice"].dn.clone();
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    for node in &mut s.nodes {
        node.add_direct_user(alice_dn.clone(), alice_pk);
    }
    let mut mesh = mesh_from(&mut s, 5);
    let t0 = mesh.now();
    let outcome = SourceBasedRun::honest(rar, domains, AgentMode::Sequential).execute(&mut mesh);
    assert!(outcome.all_accepted);
    // Sequential round trips: 2×(0 + 5 + 10 + 15) ms = 60 ms.
    assert_eq!(outcome.finished - t0, SimDuration::from_millis(60));
}

#[test]
fn misreservation_is_possible_under_source_based_only() {
    // David "reserves" in A and B but skips C (Figure 4's attack, mapped
    // onto the linear chain).
    let mut s = build_chain(ChainOptions::default());
    let domains = s.domains.clone();
    let david_pk = s.users["david"].key.public();
    let david_dn = s.users["david"].dn.clone();
    let spec = s.spec("david", 66, 30 * MBPS, Timestamp(0), 3600);
    let rar = s.users["david"].sign_request(spec, &s.nodes[0]);
    for node in &mut s.nodes {
        node.add_direct_user(david_dn.clone(), david_pk);
    }
    let mut mesh = mesh_from(&mut s, 5);
    let outcome = SourceBasedRun::skipping(
        rar,
        domains,
        ["domain-c".to_string()],
        AgentMode::Concurrent,
    )
    .execute(&mut mesh);
    // Every *contacted* domain accepted — the agent believes it has a
    // reservation, and A and B committed capacity…
    assert!(outcome.all_accepted);
    assert_eq!(outcome.replies.len(), 2);
    // …but domain C never heard about it.
    assert_eq!(
        mesh.node("domain-c").core().available_bw_at(Timestamp(10)),
        1_000_000_000
    );
    assert!(mesh.node("domain-b").core().available_bw_at(Timestamp(10)) < 1_000_000_000);

    // Under hop-by-hop the same incomplete reservation is structurally
    // impossible: the user only talks to A, and forwarding is driven by
    // the brokers themselves. (A fresh request: full grant with all
    // three domains involved, or nothing.)
    let mut s2 = build_chain(ChainOptions::default());
    let spec = s2.spec("david", 67, 30 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s2.users["david"].sign_request(spec, &s2.nodes[0]);
    let cert = s2.users["david"].cert.clone();
    let mut mesh2 = mesh_from(&mut s2, 5);
    mesh2.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh2.run_until_idle();
    assert!(approval_of(&mesh2, "domain-a", rar_id).is_ok());
    // All three domains hold the reservation.
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert!(
            mesh2.node(d).core().available_bw_at(Timestamp(10)) < 1_000_000_000,
            "{d} must know about the reservation"
        );
    }
}

#[test]
fn stars_coordinator_needs_one_trust_entry_per_broker() {
    let mut s = build_chain(ChainOptions::default());
    let domains = s.domains.clone();
    let rc = ReservationCoordinator::new("domain-a");
    // Each broker trusts the RC — not the individual users.
    for node in &mut s.nodes {
        node.add_direct_user(rc.dn.clone(), rc.key.public());
    }
    let trust_sizes: Vec<usize> = s.nodes.iter().map(|n| n.trust_table_size()).collect();
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let source_dn = s.nodes[0].dn().clone();
    let rar = rc.sign_for(spec, source_dn);
    let mut mesh = mesh_from(&mut s, 5);
    let outcome = SourceBasedRun::honest(rar, domains, AgentMode::Concurrent).execute(&mut mesh);
    assert!(outcome.all_accepted, "{:?}", outcome.replies);
    // Trust tables: peers + exactly one RC entry.
    for (i, size) in trust_sizes.iter().enumerate() {
        let peers = if i == 0 || i == 2 { 1 } else { 2 };
        assert_eq!(*size, peers + 1);
    }
}

#[test]
fn unknown_user_is_refused_direct_service() {
    let mut s = build_chain(ChainOptions::default());
    let domains = s.domains.clone();
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    // No broker knows Alice directly.
    let mut mesh = mesh_from(&mut s, 5);
    let outcome = SourceBasedRun::honest(rar, domains, AgentMode::Concurrent).execute(&mut mesh);
    assert!(!outcome.all_accepted);
    assert!(outcome
        .replies
        .iter()
        .all(|r| !r.accepted && r.reason.contains("no direct trust")));
}

#[test]
fn billing_chain_recorded_at_source() {
    let mut s = build_chain(ChainOptions::default());
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 100);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    assert!(approval_of(&mesh, "domain-a", rar_id).is_ok());
    let invoices = mesh.node("domain-a").core().invoices();
    assert!(!invoices.is_empty());
    // Alice pays the source domain.
    assert_eq!(invoices[0].payer, "Alice");
    assert_eq!(invoices[0].payee, "domain-a");
    // 10 Mb/s × 100 s × 1 µunit/Mb·s along A→B (covering B→C too).
    assert!(invoices[0].amount >= 1000);
}

#[test]
fn concurrent_requests_interleave_correctly() {
    // Many users' requests in flight at once through the same chain.
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 100 * MBPS,
        ..ChainOptions::default()
    });
    let mut ids = Vec::new();
    let mut rars = Vec::new();
    for i in 0..9 {
        let spec = s.spec("alice", 100 + i, 10 * MBPS, Timestamp(0), 3600);
        ids.push(spec.rar_id);
        rars.push(s.users["alice"].sign_request(spec, &s.nodes[0]));
    }
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);
    for (i, rar) in rars.into_iter().enumerate() {
        mesh.submit_in(
            SimDuration::from_millis(i as u64),
            "domain-a",
            rar,
            cert.clone(),
        );
    }
    mesh.run_until_idle();
    let granted = ids
        .iter()
        .filter(|id| approval_of(&mesh, "domain-a", **id).is_ok())
        .count();
    // 100 Mb/s SLA fits exactly 10 × 10 Mb/s; all 9 fit.
    assert_eq!(granted, 9);
}

#[test]
fn tunnel_subflow_release_returns_budget() {
    let mut s = build_chain(ChainOptions::default());
    let spec = s
        .spec("alice", 0, 10 * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();
    let mut mesh = mesh_from(&mut s, 5);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();

    // Fill the tunnel with two 5 Mb/s flows.
    for flow in [1u64, 2] {
        mesh.tunnel_flow_in(
            SimDuration::ZERO,
            "domain-a",
            tunnel,
            flow,
            5 * MBPS,
            alice.clone(),
        );
    }
    mesh.run_until_idle();
    assert_eq!(mesh.node("domain-a").tunnel_remaining_bps(tunnel), Some(0));
    // A third is refused.
    mesh.tunnel_flow_in(
        SimDuration::ZERO,
        "domain-a",
        tunnel,
        3,
        5 * MBPS,
        alice.clone(),
    );
    mesh.run_until_idle();
    assert!(mesh.completions().iter().any(|(_, _, c)| matches!(
        c,
        Completion::TunnelFlow {
            flow: 3,
            accepted: false,
            ..
        }
    )));

    // Release flow 1: budget returns on both ends; flow 3 now fits.
    let out = mesh
        .node_mut("domain-a")
        .release_tunnel_flow(tunnel, 1, 5 * MBPS)
        .unwrap();
    assert_eq!(out.len(), 1);
    // Deliver the release to the destination via the node API directly.
    let (to, msg) = out.into_iter().next().unwrap();
    mesh.node_mut(&to).recv("domain-a", msg);
    assert_eq!(
        mesh.node("domain-a").tunnel_remaining_bps(tunnel),
        Some(5 * MBPS)
    );
    mesh.tunnel_flow_in(SimDuration::ZERO, "domain-a", tunnel, 4, 5 * MBPS, alice);
    mesh.run_until_idle();
    assert!(mesh.completions().iter().any(|(_, _, c)| matches!(
        c,
        Completion::TunnelFlow {
            flow: 4,
            accepted: true,
            ..
        }
    )));
}

#[test]
fn duplicate_rar_id_is_refused() {
    let mut s = build_chain(ChainOptions::default());
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar.clone(), cert.clone());
    mesh.run_until_idle();
    assert!(approval_of(&mesh, "domain-a", rar_id).is_ok());
    // Replaying the same signed request must not double-book.
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    let denial = approval_of(&mesh, "domain-a", rar_id).expect_err("duplicate refused");
    assert!(denial.reason.contains("duplicate"), "{}", denial.reason);
    assert_eq!(
        mesh.node("domain-a").core().available_bw_at(Timestamp(10)),
        1_000_000_000 - 10 * MBPS,
        "capacity booked exactly once"
    );

    // The same wire bytes handed twice to a transit's and to a
    // destination's `recv` — what a retransmission would be if the
    // delivery index ever let one through. The second copy is decided
    // again, on the state the first one left: refused as a duplicate,
    // booked once.
    use qos_core::messages::SignalMessage;
    let mut s = build_chain(ChainOptions::default()); // a → b → c
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let wire_a = qos_wire::to_bytes(&s.nodes[0].submit(rar, &cert)[0].1);
    let out_b = s.nodes[1].recv("domain-a", qos_wire::from_bytes(&wire_a).unwrap());
    assert!(matches!(out_b[0].1, SignalMessage::Request(_)));
    let wire_b = qos_wire::to_bytes(&out_b[0].1);
    let out_c = s.nodes[2].recv("domain-b", qos_wire::from_bytes(&wire_b).unwrap());
    assert!(matches!(out_c[0].1, SignalMessage::Approve(_)));
    for (i, from, wire, first) in [
        (1, "domain-a", &wire_a, &out_b),
        (2, "domain-b", &wire_b, &out_c),
    ] {
        let node = &mut s.nodes[i];
        let available = node.core().available_bw_at(Timestamp(10));
        let again = node.recv(from, qos_wire::from_bytes(wire).unwrap());
        assert_eq!(again.len(), 1);
        assert_eq!(
            again[0].0.as_ref(),
            from,
            "the answer goes back to the sender"
        );
        let SignalMessage::Deny(denial) = &again[0].1 else {
            panic!("second copy must be denied, got {:?}", again[0].1);
        };
        assert!(denial.reason.contains("duplicate"), "{}", denial.reason);
        assert_ne!(again, *first, "no reply is produced from stored bytes");
        assert_eq!(node.core().available_bw_at(Timestamp(10)), available);
        let (active, ..) = node.core().ledger_summary(Timestamp(10));
        assert_eq!(active, 1, "exactly one hold");
    }
}

/// What each role verifies on a request (DESIGN.md §D22's table),
/// pinned: a change of trust model shows up here, not as a side effect.
#[test]
fn each_role_verifies_what_the_design_says_it_verifies() {
    // (user, what a / b / c / d count as verified on one granted
    // reservation over a → b → c → d).
    let cases = [
        // No capability. Source: user certificate, user signature.
        // Transit: the outer layer under the channel-pinned peer key.
        // Destination: that, then every layer (user, a, b, c) under the
        // introducer keys.
        ("david", [2, 1, 1, 1 + 4]),
        // With a chain, everybody adds its two certificates; a transit
        // with k broker layers in front of it adds the k − 1 inner ones
        // under the chained keys (the outer one is key equality with the
        // peer key); the destination adds none (key equality with the
        // introducer keys throughout).
        ("alice", [2 + 2, 1 + 2, 1 + 2 + 1, 1 + 4 + 2]),
    ];
    for (user, expected) in cases {
        let mut s = build_chain(ChainOptions {
            domains: 4,
            ..ChainOptions::default()
        });
        let spec = s.spec(user, 7, 10 * MBPS, Timestamp(0), 3600);
        let rar_id = spec.rar_id;
        let rar = s.users[user].sign_request(spec, &s.nodes[0]);
        let cert = s.users[user].cert.clone();
        let mut mesh = mesh_from(&mut s, 5);
        mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
        mesh.run_until_idle();
        assert!(approval_of(&mesh, "domain-a", rar_id).is_ok());
        let verified = ["domain-a", "domain-b", "domain-c", "domain-d"]
            .map(|d| mesh.node(d).counters().verified);
        assert_eq!(verified, expected, "{user}");
    }
}

#[test]
fn stale_approval_is_ignored() {
    use qos_core::messages::{Approval, SignalMessage};
    use qos_crypto::{DistinguishedName, KeyPair};
    use qos_policy::AttributeSet;

    let mut s = build_chain(ChainOptions::default());
    let dest_cert = s.nodes[2].cert().clone();
    let mut mesh = mesh_from(&mut s, 5);
    // An approval for a request domain-b never saw.
    let bogus = Approval::originate(
        RarId(999),
        dest_cert,
        "domain-c",
        DistinguishedName::broker("domain-c"),
        AttributeSet::new(),
        &KeyPair::from_seed(b"bb-domain-c"),
    );
    let out = mesh
        .node_mut("domain-b")
        .recv("domain-c", SignalMessage::Approve(bogus));
    assert!(out.is_empty(), "stale approvals must not propagate");
}

#[test]
fn tunnel_flow_to_unknown_tunnel_is_refused() {
    let mut s = build_chain(ChainOptions::default());
    let alice = s.users["alice"].dn.clone();
    let mut mesh = mesh_from(&mut s, 5);
    let err = mesh
        .node_mut("domain-a")
        .request_tunnel_flow(RarId(424242), 1, MBPS, alice)
        .unwrap_err();
    assert!(err.to_string().contains("unknown tunnel"), "{err}");
}

#[test]
fn batched_ingress_matches_serial_processing() {
    use qos_core::SignalMessage;

    // Two identical worlds: one drives the batch entry points
    // (`submit_batch` / `recv_requests`), the other feeds the same burst
    // one message at a time. Outputs, completions, and counters must be
    // indistinguishable — including the denial for a submission whose
    // request is signed by the wrong key.
    let mut serial = build_chain(ChainOptions::default());
    let mut batched = build_chain(ChainOptions::default());

    let burst = |s: &mut Scenario| {
        let mut items = Vec::new();
        for i in 0..4u64 {
            let spec = s.spec("alice", 100 + i, 5 * MBPS, Timestamp(0), 600);
            // The third request claims to be alice's but is signed by
            // david: the certificate checks out, the request signature
            // does not.
            let signer = if i == 2 { "david" } else { "alice" };
            let rar = s.users[signer].sign_request(spec, &s.nodes[0]);
            items.push((rar, s.users["alice"].cert.clone()));
        }
        items
    };

    let serial_out: Vec<_> = burst(&mut serial)
        .into_iter()
        .flat_map(|(rar, cert)| serial.nodes[0].submit(rar, &cert))
        .collect();
    let batch = burst(&mut batched);
    let batched_out = batched.nodes[0].submit_batch(batch);
    assert_eq!(serial_out, batched_out);
    assert_eq!(serial_out.len(), 3, "three forwarded, one denied locally");
    assert_eq!(
        serial.nodes[0].take_completions(),
        batched.nodes[0].take_completions()
    );
    assert_eq!(serial.nodes[0].counters(), batched.nodes[0].counters());

    // Forward the surviving requests to the next hop, again batched
    // versus serial, plus one request from an unpinned peer (denied).
    let reqs = |out: &[(qos_core::PeerId, SignalMessage)]| -> Vec<(qos_core::PeerId, qos_core::SignedRar)> {
        let rar_of = |m: &SignalMessage| match m {
            SignalMessage::Request(r) => r.clone(),
            other => panic!("unexpected {other:?}"),
        };
        out.iter()
            .map(|(_, m)| ("domain-a".into(), rar_of(m)))
            .chain(std::iter::once(("nowhere".into(), rar_of(&out[0].1))))
            .collect()
    };
    let serial_fwd = reqs(&serial_out);
    let batched_fwd = reqs(&batched_out);
    let serial_b_out: Vec<_> = serial_fwd
        .into_iter()
        .flat_map(|(from, rar)| serial.nodes[1].recv(&from, SignalMessage::Request(rar)))
        .collect();
    let batched_b_out = batched.nodes[1].recv_requests(batched_fwd);
    assert_eq!(serial_b_out, batched_b_out);
    assert!(
        serial_b_out
            .iter()
            .any(|(to, m)| to.as_ref() == "nowhere" && matches!(m, SignalMessage::Deny(_))),
        "unpinned peer gets a denial"
    );
    assert_eq!(serial.nodes[1].counters(), batched.nodes[1].counters());
}

/// A 50 Mb/s tunnel from domain-a to domain-c over a → b → c, with one
/// 5 Mb/s sub-flow (flow 1) admitted through it.
fn tunnel_with_one_flow() -> (Mesh, RarId, qos_crypto::DistinguishedName) {
    let mut s = build_chain(ChainOptions::default());
    let spec = s
        .spec("alice", 0, 50 * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();
    let mut mesh = mesh_from(&mut s, 5);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.tunnel_flow_in(
        SimDuration::from_secs(1),
        "domain-a",
        tunnel,
        1,
        5 * MBPS,
        alice.clone(),
    );
    mesh.run_until_idle();
    assert!(approval_of(&mesh, "domain-a", tunnel).is_ok());
    assert_eq!(mesh.node("domain-c").held_flow_stats().0, 1);
    (mesh, tunnel, alice)
}

#[test]
fn tunnel_subflow_from_a_non_source_peer_is_refused() {
    use qos_core::messages::{TunnelFlowReply, TunnelFlowRequest};
    use qos_core::{DenialCode, PeerId, SignalMessage};

    let (mut mesh, tunnel, alice) = tunnel_with_one_flow();
    let req = TunnelFlowRequest::new(tunnel, 2, 45 * MBPS, alice);
    let reply_to = |out: &[(PeerId, SignalMessage)]| match out {
        [(
            to,
            SignalMessage::TunnelFlowReply(TunnelFlowReply {
                accepted, reason, ..
            }),
        )] => (to.to_string(), *accepted, reason.clone()),
        other => panic!("expected one sub-flow reply, got {other:?}"),
    };
    let c = mesh.node_mut("domain-c");
    // The transit carries the tunnel but is not its source: refused one
    // at a time and in a burst, and the refusal goes back to it.
    let refused = ("domain-b".to_string(), false, DenialCode::NotTunnelSource);
    let out = c.recv("domain-b", SignalMessage::TunnelFlow(req.clone()));
    assert_eq!(reply_to(&out), refused);
    let out = c.recv_tunnel_flows(vec![("domain-b".into(), req.clone())]);
    assert_eq!(reply_to(&out), refused);
    assert_eq!(c.held_flow_stats().0, 1, "nothing admitted");
    // The same request over the source's channel takes the rest of the
    // aggregate, which the refusals left untouched.
    let out = c.recv("domain-a", SignalMessage::TunnelFlow(req));
    assert_eq!(
        reply_to(&out),
        ("domain-a".to_string(), true, DenialCode::None)
    );
    assert_eq!(c.held_flow_stats().0, 2);
}

#[test]
fn tunnel_subflow_release_from_a_non_source_peer_is_ignored() {
    use qos_core::messages::TunnelFlowRelease;
    use qos_core::SignalMessage;

    let (mut mesh, tunnel, _) = tunnel_with_one_flow();
    let release = || SignalMessage::TunnelFlowRelease(TunnelFlowRelease::new(tunnel, 1));
    let c = mesh.node_mut("domain-c");
    assert!(c.recv("domain-b", release()).is_empty());
    assert_eq!(c.held_flow_stats().0, 1, "a transit cannot free the flow");
    assert!(c.recv("domain-a", release()).is_empty());
    assert_eq!(c.held_flow_stats().0, 0, "its source can");
}
