//! Hub-and-spoke (ISP backbone) topology: routing beyond the linear
//! chain, shared-bottleneck admission at the transit hub, and tunnels
//! between arbitrary leaves.

use integration_tests::MBPS;
use qos_broker::Interval;
use qos_core::drive::Mesh;
use qos_core::node::Completion;
use qos_core::scenario::{build_star, ChainOptions};
use qos_core::{Input, RarId, ResSpec};
use qos_crypto::Timestamp;
use qos_net::SimDuration;

fn star_mesh(
    leaves: usize,
    sla_rate_bps: u64,
    local_capacity_bps: u64,
) -> (Mesh, qos_core::scenario::Scenario) {
    let mut s = build_star(
        leaves,
        ChainOptions {
            sla_rate_bps,
            local_capacity_bps,
            ..ChainOptions::default()
        },
    );
    (s.mesh(SimDuration::from_millis(5)), s)
}

fn leaf_to_leaf_spec(
    s: &mut qos_core::scenario::Scenario,
    from: usize,
    to: usize,
    flow: u64,
    rate: u64,
) -> ResSpec {
    let rar_id = s.next_rar_id();
    ResSpec::new(
        rar_id,
        s.users["alice"].dn.clone(),
        &s.domains[from],
        &s.domains[to],
        flow,
        rate,
        Interval::starting_at(Timestamp(0), 3600),
    )
}

fn outcome_ok(mesh: &Mesh, domain: &str, id: RarId) -> bool {
    matches!(
        mesh.reservation_outcome(domain, id),
        Some((_, Completion::Reservation { result: Ok(_), .. }))
    )
}

#[test]
fn leaf_to_leaf_routes_through_hub() {
    let (mut mesh, mut s) = star_mesh(4, 100 * MBPS, 1_000 * MBPS);
    let spec = leaf_to_leaf_spec(&mut s, 0, 2, 1, 10 * MBPS);
    let id = spec.rar_id;
    let src = spec.source_domain.clone();
    let rar = s.users["alice"].sign_request(spec, mesh.node(&src));
    let cert = s.users["alice"].cert.clone();
    mesh.submit_in(SimDuration::ZERO, &src, rar, cert);
    mesh.run_until_idle();
    assert!(outcome_ok(&mesh, &src, id));
    // The hub carried it: one Request in, and committed capacity.
    assert_eq!(mesh.messages_to("hub", "Request"), 1);
    assert!(mesh.node("hub").core().available_bw_at(Timestamp(10)) < 1_000 * MBPS);
    // Uninvolved leaves saw nothing.
    assert_eq!(mesh.messages_to(&s.domains[1], "Request"), 0);
    assert_eq!(mesh.messages_to(&s.domains[3], "Request"), 0);
    // Round trip: 2 hops × 5 ms × 2 = 20 ms.
    let (t, _) = mesh.reservation_outcome(&src, id).unwrap();
    assert_eq!(t.as_nanos(), 20_000_000);
}

#[test]
fn hub_local_capacity_is_the_shared_bottleneck() {
    // Hub can carry 25 Mb/s total; each leaf pair's SLA allows 100 Mb/s.
    let (mut mesh, mut s) = star_mesh(4, 100 * MBPS, 25 * MBPS);
    let cert = s.users["alice"].cert.clone();
    // Three disjoint leaf-pairs want 10 Mb/s each: only two fit the hub.
    let pairs = [(0usize, 1usize), (2, 3), (1, 3)];
    let mut ids = Vec::new();
    for (i, (from, to)) in pairs.iter().enumerate() {
        let spec = leaf_to_leaf_spec(&mut s, *from, *to, i as u64 + 1, 10 * MBPS);
        ids.push((spec.rar_id, s.domains[*from].clone()));
        let rar = {
            let src = spec.source_domain.clone();
            s.users["alice"].sign_request(spec, mesh.node(&src))
        };
        let src = ids.last().unwrap().1.clone();
        mesh.submit_in(SimDuration::from_millis(i as u64), &src, rar, cert.clone());
    }
    mesh.run_until_idle();
    let granted = ids
        .iter()
        .filter(|(id, src)| outcome_ok(&mesh, src, *id))
        .count();
    assert_eq!(
        granted, 2,
        "the hub's 25 Mb/s fits exactly two 10 Mb/s flows"
    );
    // The denial cites the hub.
    let denied = ids
        .iter()
        .find(|(id, src)| !outcome_ok(&mesh, src, *id))
        .unwrap();
    if let Some((_, Completion::Reservation { result: Err(d), .. })) =
        mesh.reservation_outcome(&denied.1, denied.0)
    {
        assert_eq!(d.domain, "hub");
    } else {
        panic!("expected a denial");
    }
}

#[test]
fn tunnels_work_between_arbitrary_leaves() {
    let (mut mesh, mut s) = star_mesh(5, 200 * MBPS, 1_000 * MBPS);
    let spec = leaf_to_leaf_spec(&mut s, 1, 4, 0, 50 * MBPS).as_tunnel();
    let tunnel = spec.rar_id;
    let src = spec.source_domain.clone();
    let rar = s.users["alice"].sign_request(spec, mesh.node(&src));
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();
    mesh.submit_in(SimDuration::ZERO, &src, rar, cert);
    mesh.run_until_idle();
    assert!(outcome_ok(&mesh, &src, tunnel));

    let hub_rx_before = mesh.node("hub").counters().rx;
    for flow in 1..=5u64 {
        let input = Input::TunnelFlow(tunnel, flow, 10 * MBPS, None, alice.clone());
        mesh.input_in(SimDuration::ZERO, &src, input);
    }
    mesh.run_until_idle();
    let accepted = mesh
        .completions()
        .iter()
        .filter(|(_, _, c)| matches!(c, Completion::TunnelFlow { accepted: true, .. }))
        .count();
    assert_eq!(accepted, 5);
    // The hub never saw the sub-flows: the direct channel bypasses it
    // (signalling-wise; the data still crosses its routers, pre-paid by
    // the aggregate).
    assert_eq!(mesh.node("hub").counters().rx, hub_rx_before);
}
