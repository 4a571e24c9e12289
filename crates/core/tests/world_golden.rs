//! Golden worlds: what each scenario builder hands out, pinned by one
//! SHA-256 per world. A world's transcript lists, in domain order, each
//! broker's certificate bytes and local capacity, then its ingress and
//! egress SLA rate and its route towards every domain; then every
//! user's identity and capability certificate (by name), the CA key and
//! the CAS keys (by community). A change to how a world is built that
//! moves a certificate serial, an SLA, a route or a capacity fails
//! here. Every world is deterministic: seeded keys, deterministic
//! signature nonces, a seeded AS graph.

use qos_core::scenario::{
    build_as_graph, build_chain, build_star, AsGraphOptions, ChainOptions, Scenario,
};
use qos_crypto::sha256::sha256;
use qos_crypto::Timestamp;
use std::collections::HashSet;
use std::fmt::Write;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn chain(domains: usize) -> Scenario {
    build_chain(ChainOptions {
        domains,
        ..ChainOptions::default()
    })
}

fn star() -> Scenario {
    build_star(4, ChainOptions::default())
}

fn as_graph() -> Scenario {
    build_as_graph(AsGraphOptions {
        transits: 4,
        stubs: 12,
        seed: 7,
        ..AsGraphOptions::default()
    })
    .scenario
}

/// `(name, world)` for each pinned world, in a fixed order.
fn worlds() -> Vec<(&'static str, Scenario)> {
    vec![
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("chain8", chain(8)),
        ("star4", star()),
        ("as_graph_4x12_seed7", as_graph()),
    ]
}

fn transcript(s: &Scenario) -> String {
    let mut t = String::new();
    for node in &s.nodes {
        let core = node.core();
        let _ = writeln!(
            t,
            "broker {} cert {} capacity {}",
            node.domain(),
            hex(&qos_wire::to_bytes(node.cert())),
            core.available_bw_at(Timestamp(0)),
        );
        for d in &s.domains {
            let rate_in = core.ingress_sla(d).map(|s| s.sls.committed_rate_bps);
            let rate_out = core.egress_sla(d).map(|s| s.sls.committed_rate_bps);
            let route = node.route_towards(d);
            let _ = writeln!(t, "  {d}: in {rate_in:?} out {rate_out:?} route {route:?}");
        }
    }
    let mut users: Vec<_> = s.users.iter().collect();
    users.sort_by(|a, b| a.0.cmp(b.0));
    for (name, u) in users {
        let cap = u.capability.as_ref().map(|c| hex(&qos_wire::to_bytes(c)));
        let _ = writeln!(
            t,
            "user {name} cert {} capability {cap:?}",
            hex(&qos_wire::to_bytes(&u.cert))
        );
    }
    let _ = writeln!(t, "ca {}", hex(&qos_wire::to_bytes(&s.ca_key)));
    let mut cas: Vec<_> = s.cas_keys.iter().collect();
    cas.sort_by(|a, b| a.0.cmp(b.0));
    for (community, key) in cas {
        let _ = writeln!(t, "cas {community} {}", hex(&qos_wire::to_bytes(key)));
    }
    t
}

/// SHA-256 of each world's transcript, captured while each of the four
/// builders still wrote its world out by hand.
const PINNED: [(&str, &str); 5] = [
    (
        "chain2",
        "61ebf8e75439f3efa1fa66dbf96cd64dbfa2ae0a62d1de92a04c85e96bb6492b",
    ),
    (
        "chain3",
        "bb3417b793a1e65e88e925d6b1c4bde143b90868c32f76476bc8db106d6f6c9f",
    ),
    (
        "chain8",
        "2e716e62a9271010a7801d78321e84f333028ce79be41b809d38d913cec4a1e6",
    ),
    (
        "star4",
        "188daa79d0f98c6ab36c8b26fb5a566f9fc40afc44cfd8091057a8ae1e021f1b",
    ),
    (
        "as_graph_4x12_seed7",
        "0dee2d3a2c81a5bea1da3ee3fa493758939590214ce3ef89e1f1750d16957ec0",
    ),
];

#[test]
fn every_builder_keeps_its_world() {
    let got: Vec<(&str, String)> = worlds()
        .iter()
        .map(|(name, s)| (*name, hex(&sha256(transcript(s).as_bytes()))))
        .collect();
    let pinned: Vec<(&str, String)> = PINNED.iter().map(|(n, d)| (*n, d.to_string())).collect();
    assert_eq!(got, pinned);
}

/// Every route names a configured peer (one with an SLA either way),
/// and following routes from any domain reaches every other domain
/// without visiting a domain twice.
#[test]
fn routes_name_peers_and_reach_every_domain_without_a_loop() {
    for (name, s) in worlds() {
        let node = |d: &str| {
            s.nodes
                .iter()
                .find(|n| n.domain() == d)
                .unwrap_or_else(|| panic!("{name}: no broker for {d}"))
        };
        for from in &s.domains {
            for to in s.domains.iter().filter(|d| *d != from) {
                let mut at = from.clone();
                let mut seen = HashSet::from([at.clone()]);
                while at != *to {
                    let here = node(&at);
                    let next = here
                        .route_towards(to)
                        .unwrap_or_else(|| panic!("{name}: {at} has no route to {to}"));
                    let core = here.core();
                    assert!(
                        core.ingress_sla(&next).is_some() || core.egress_sla(&next).is_some(),
                        "{name}: {at} routes {to} via {next}, which it does not peer with"
                    );
                    assert!(
                        seen.insert(next.clone()),
                        "{name}: the route {from} → {to} loops at {next}"
                    );
                    at = next;
                }
            }
        }
    }
}
