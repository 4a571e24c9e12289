//! End-to-end reservation teardown: the release propagates source →
//! destination, every domain frees capacity, and edge configuration is
//! undone.

use integration_tests::{build_chain, outcome, ChainOptions, MBPS};
use qos_core::Input;
use qos_crypto::Timestamp;
use qos_net::SimDuration;

#[test]
fn release_frees_capacity_everywhere() {
    let mut s = build_chain(ChainOptions::default());
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    assert!(outcome(&mesh, "domain-a", rar_id).is_ok());
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert_eq!(
            mesh.node(d).core().available_bw_at(Timestamp(10)),
            1_000_000_000 - 10 * MBPS
        );
    }

    // Tear it down from the source.
    mesh.input_in(SimDuration::ZERO, "domain-a", Input::Release(rar_id));
    mesh.run_until_idle();
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert_eq!(
            mesh.node(d).core().available_bw_at(Timestamp(10)),
            1_000_000_000,
            "{d} must have freed the reservation"
        );
    }
    // The release travelled the chain.
    assert_eq!(mesh.messages_to("domain-b", "Release"), 1);
    assert_eq!(mesh.messages_to("domain-c", "Release"), 1);
}

#[test]
fn released_capacity_is_reusable() {
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 10 * MBPS,
        ..ChainOptions::default()
    });
    let spec1 = s.spec("alice", 1, 10 * MBPS, Timestamp(0), 3600);
    let id1 = spec1.rar_id;
    let spec2 = s.spec("alice", 2, 10 * MBPS, Timestamp(0), 3600);
    let id2 = spec2.rar_id;
    let rar1 = s.users["alice"].sign_request(spec1, &s.nodes[0]);
    let rar2 = s.users["alice"].sign_request(spec2, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));

    mesh.submit_in(SimDuration::ZERO, "domain-a", rar1, cert.clone());
    mesh.run_until_idle();
    assert!(outcome(&mesh, "domain-a", id1).is_ok());

    // The SLA is full; a second identical reservation fails…
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar2.clone(), cert.clone());
    mesh.run_until_idle();
    assert!(outcome(&mesh, "domain-a", id2).is_err());

    // …until the first one is torn down.
    mesh.input_in(SimDuration::ZERO, "domain-a", Input::Release(id1));
    mesh.run_until_idle();
    // Re-submit (fresh id required — reuse the same signed request: it
    // was denied, so its id is free again in all tables).
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar2, cert);
    mesh.run_until_idle();
    assert!(
        outcome(&mesh, "domain-a", id2).is_ok(),
        "released capacity must be reusable"
    );
}

#[test]
fn spoofed_release_from_wrong_peer_is_ignored() {
    use qos_core::messages::{Release, SignalMessage};
    use qos_crypto::KeyPair;

    let mut s = build_chain(ChainOptions {
        domains: 4,
        ..ChainOptions::default()
    });
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    assert!(outcome(&mesh, "domain-a", rar_id).is_ok());

    // Domain C (downstream of B) tries to release B's reservation state
    // by sending a Release "upstream" — but B only accepts teardowns
    // from the peer the reservation arrived through (domain-a side).
    let forged = Release::new(rar_id, "domain-a", &KeyPair::from_seed(b"mallory"));
    let out = mesh
        .node_mut("domain-b")
        .recv("domain-c", SignalMessage::Release(forged));
    assert!(out.is_empty());
    assert_eq!(
        mesh.node("domain-b").core().available_bw_at(Timestamp(10)),
        1_000_000_000 - 10 * MBPS,
        "the reservation must survive the spoofed teardown"
    );
}

#[test]
fn gara_cancel_tears_down_network_reservations() {
    use gara::{Gara, GaraStatus};

    let mut s = build_chain(ChainOptions::default());
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mesh = s.mesh(SimDuration::from_millis(5));
    let mut g = Gara::new(mesh);
    let h = g.reserve_network(rar, cert).unwrap();
    assert!(g.status(h).unwrap().is_granted());
    assert_eq!(
        g.mesh()
            .node("domain-b")
            .core()
            .available_bw_at(Timestamp(10)),
        1_000_000_000 - 10 * MBPS
    );
    g.cancel(h).unwrap();
    assert_eq!(g.status(h).unwrap(), GaraStatus::Cancelled);
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert_eq!(
            g.mesh().node(d).core().available_bw_at(Timestamp(10)),
            1_000_000_000,
            "{d}"
        );
    }
    // Idempotent.
    g.cancel(h).unwrap();
}

#[test]
fn expiry_sweep_reclaims_data_plane_state() {
    use qos_crypto::Timestamp;

    let mut s = build_chain(ChainOptions::default());
    // A one-hour reservation starting now.
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    assert!(outcome(&mesh, "domain-a", rar_id).is_ok());

    // Before the interval ends: nothing expires.
    assert_eq!(mesh.expire_all_at(Timestamp(1800)), 0);
    // After: each of the three domains expires its local record.
    assert_eq!(mesh.expire_all_at(Timestamp(3601)), 3);
    // Idempotent: a second sweep finds nothing.
    assert_eq!(mesh.expire_all_at(Timestamp(3602)), 0);
    // The time-indexed tables already stopped counting it.
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert_eq!(
            mesh.node(d).core().available_bw_at(Timestamp(4000)),
            1_000_000_000
        );
    }
}

#[test]
fn advance_reservations_share_capacity_across_windows() {
    use qos_crypto::Timestamp;

    // SLA fits exactly one 10 Mb/s reservation at a time.
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 10 * MBPS,
        ..ChainOptions::default()
    });
    // Two reservations in disjoint future windows + one overlapping.
    let spec_morning = s.spec("alice", 1, 10 * MBPS, Timestamp::from_hours(9), 3600);
    let spec_evening = s.spec("alice", 2, 10 * MBPS, Timestamp::from_hours(18), 3600);
    let spec_overlap = s.spec("alice", 3, 10 * MBPS, Timestamp::from_hours(9) + 1800, 3600);
    let ids = [
        spec_morning.rar_id,
        spec_evening.rar_id,
        spec_overlap.rar_id,
    ];
    let rars = vec![
        s.users["alice"].sign_request(spec_morning, &s.nodes[0]),
        s.users["alice"].sign_request(spec_evening, &s.nodes[0]),
        s.users["alice"].sign_request(spec_overlap, &s.nodes[0]),
    ];
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    for rar in rars {
        mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert.clone());
    }
    mesh.run_until_idle();
    // Disjoint windows both fit; the overlapping one is refused.
    assert!(outcome(&mesh, "domain-a", ids[0]).is_ok(), "morning fits");
    assert!(outcome(&mesh, "domain-a", ids[1]).is_ok(), "evening fits");
    assert!(
        outcome(&mesh, "domain-a", ids[2]).is_err(),
        "overlapping window must be refused"
    );
}

#[test]
fn gara_modify_is_make_before_break() {
    use gara::Gara;
    use qos_crypto::Timestamp;

    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 50 * MBPS,
        ..ChainOptions::default()
    });
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mesh = s.mesh(SimDuration::from_millis(5));
    let mut g = Gara::new(mesh);
    let h = g.reserve_network(rar, cert).unwrap();
    assert!(g.status(h).unwrap().is_granted());

    // Upgrade 10 → 30 Mb/s: both fit the 50 Mb/s SLA during the overlap
    // window, then the old reservation is torn down.
    let alice = &s.users["alice"];
    let h2 = g.modify_network(h, alice, 30 * MBPS).unwrap();
    assert!(g.status(h2).unwrap().is_granted());
    assert_eq!(g.status(h).unwrap(), gara::GaraStatus::Cancelled);
    assert_eq!(
        g.mesh()
            .node("domain-b")
            .core()
            .available_bw_at(Timestamp(10)),
        1_000_000_000 - 30 * MBPS
    );

    // An impossible upgrade (60 > 50 Mb/s SLA) fails and leaves the
    // 30 Mb/s reservation untouched.
    let alice = &s.users["alice"];
    let err = g.modify_network(h2, alice, 60 * MBPS).unwrap_err();
    assert!(err.to_string().contains("denied"), "{err}");
    assert!(g.status(h2).unwrap().is_granted());
    assert_eq!(
        g.mesh()
            .node("domain-b")
            .core()
            .available_bw_at(Timestamp(10)),
        1_000_000_000 - 30 * MBPS
    );
}

#[test]
fn sls_parameters_propagate_to_destination() {
    use qos_crypto::Timestamp;

    // Destination policy reads the source's SLS attachment — proof that
    // "information relevant for traffic engineering purposes for
    // downstream domains" actually arrives.
    let mut policies = std::collections::HashMap::new();
    policies.insert(
        2,
        r#"
        if sls_excess_treatment = "drop" and sls_reliability_ppm >= 999000 { return grant }
        return deny "need a strict upstream SLS"
        "#
        .to_string(),
    );
    let mut s = build_chain(ChainOptions {
        policies,
        ..ChainOptions::default()
    });
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    let approval = outcome(&mesh, "domain-a", rar_id).expect("strict SLS satisfies C");
    // And the destination's endorsement is first in the chain.
    assert_eq!(approval.entries[0].domain, "domain-c");
}
