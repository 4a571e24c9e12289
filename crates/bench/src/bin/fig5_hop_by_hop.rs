//! FIG5 — Figure 5: hop-by-hop signalling with a coupled CPU
//! reservation.
//!
//! Alice contacts only her home broker; the request propagates A→B→C
//! over authenticated peer channels; domain C's grant is coupled to a
//! CPU reservation made through the GARA API.
//!
//! Expected shape: exactly one user-visible contact; each broker talks
//! only to its neighbours; network+CPU granted atomically (and rolled
//! back atomically when either is impossible).

use gara::{Gara, GaraStatus, ResourceKind};
use qos_bench::{experiment_registry, table_header, table_row, write_metrics_snapshot};
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_net::SimDuration;
use qos_policy::samples;
use std::collections::HashMap;

const MBPS: u64 = 1_000_000;

fn build_gara(telemetry: &qos_telemetry::Telemetry) -> (Gara, qos_core::scenario::Scenario) {
    let mut policies = HashMap::new();
    policies.insert(0, samples::FIG6_DOMAIN_A.to_string());
    policies.insert(1, samples::FIG6_DOMAIN_B.to_string());
    policies.insert(2, samples::FIG6_DOMAIN_C.to_string());
    let mut s = build_chain(ChainOptions {
        policies,
        telemetry: telemetry.clone(),
        ..ChainOptions::default()
    });
    let mesh = s.mesh(SimDuration::from_millis(5));
    let mut g = Gara::new(mesh);
    g.register_cpu("domain-c", 64);
    (g, s)
}

fn main() {
    println!("FIG5: hop-by-hop signalling + CPU co-reservation (Figure 5)\n");
    let (registry, telemetry) = experiment_registry();

    // Case 1: Alice, with ESnet capability — network + CPU granted.
    let (mut g, mut s) = build_gara(&telemetry);
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let alice = &s.users["alice"];
    let (net, cpu) = g
        .co_reserve_network_cpu(alice, "domain-a", spec, 8)
        .unwrap();
    let net_ok = g.status(net).unwrap().is_granted();
    let cpu_ok = g.status(cpu).unwrap().is_granted();
    let cpu_free = g
        .available("domain-c", ResourceKind::Cpu, Timestamp(10))
        .unwrap();

    let widths = [30, 10, 10, 12];
    table_header(&["case", "network", "cpu", "cpu free"], &widths);
    table_row(
        &[
            "Alice (ESnet cap, CPU 8)".into(),
            net_ok.to_string(),
            cpu_ok.to_string(),
            format!("{cpu_free}/64"),
        ],
        &widths,
    );

    // Message pattern: Alice touched only domain-a.
    println!("\n-- message pattern (who received what) --");
    let w2 = [10, 10, 10, 8];
    table_header(&["domain", "Request", "Approve", "Deny"], &w2);
    for d in ["domain-a", "domain-b", "domain-c"] {
        table_row(
            &[
                d.to_string(),
                g.mesh().messages_to(d, "Request").to_string(),
                g.mesh().messages_to(d, "Approve").to_string(),
                g.mesh().messages_to(d, "Deny").to_string(),
            ],
            &w2,
        );
    }

    // Case 2: David (no capability) — network denied ⇒ CPU rolled back.
    let (mut g, mut s) = build_gara(&telemetry);
    let spec = s.spec("david", 8, 10 * MBPS, Timestamp(0), 3600);
    let david = &s.users["david"];
    let (net, cpu) = g
        .co_reserve_network_cpu(david, "domain-a", spec, 8)
        .unwrap();
    let denied = match g.status(net).unwrap() {
        GaraStatus::Denied { domain, reason } => format!("denied by {domain}: {reason}"),
        other => format!("{other:?}"),
    };
    let cpu_state = g.status(cpu).unwrap();
    let cpu_free = g
        .available("domain-c", ResourceKind::Cpu, Timestamp(10))
        .unwrap();
    println!("\n-- atomic rollback (David, no ESnet capability) --");
    println!("network : {denied}");
    println!("cpu     : {cpu_state:?} (free slots {cpu_free}/64)");

    println!();
    write_metrics_snapshot("fig5_hop_by_hop", &registry);
    println!(
        "\nexpected: Alice's co-reservation grants with 1 Request to each\n\
         of B and C (she contacted only A); David is refused at the very\n\
         first hop (policy file A only names Alice) and the denial rolls\n\
         the CPU reservation back to 64/64 — all-or-nothing."
    );
}
