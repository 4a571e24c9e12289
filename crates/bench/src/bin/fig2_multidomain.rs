//! FIG2 — Figure 2: the multi-domain reservation problem.
//!
//! An end-to-end reservation A→C requires an admission from every
//! bandwidth broker on the domain path; a single refusal anywhere kills
//! the whole reservation.
//!
//! Expected shape: all three brokers are involved in a grant; any single
//! denial yields no end-to-end reservation and no residual holds.

use qos_bench::{experiment_registry, table_header, table_row, write_metrics_snapshot};
use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_net::SimDuration;
use qos_telemetry::Telemetry;
use std::collections::HashMap;

const MBPS: u64 = 1_000_000;

fn run(deny_at: Option<usize>, telemetry: &Telemetry) -> (bool, Vec<(String, bool, u64)>) {
    let mut policies = HashMap::new();
    if let Some(i) = deny_at {
        policies.insert(
            i,
            format!(r#"return deny "domain {i} refuses this reservation""#),
        );
    }
    let mut s = build_chain(ChainOptions {
        policies,
        telemetry: telemetry.clone(),
        tracing: true,
        ..ChainOptions::default()
    });
    let domains = s.domains.clone();
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();

    let granted = matches!(
        mesh.reservation_outcome("domain-a", rar_id),
        Some((_, Completion::Reservation { result: Ok(_), .. }))
    );
    let per_domain = domains
        .iter()
        .map(|d| {
            let contacted = mesh.messages_to(d, "Request") > 0 || d == "domain-a";
            let reserved = 1_000_000_000 - mesh.node(d).core().available_bw_at(Timestamp(10));
            (d.clone(), contacted, reserved)
        })
        .collect();
    (granted, per_domain)
}

fn main() {
    println!("FIG2: the multi-domain reservation problem (Figure 2)\n");
    let (registry, telemetry) = experiment_registry();
    let widths = [22, 10, 10, 14];
    table_header(&["case", "domain", "contacted", "reserved(bps)"], &widths);
    for (label, deny_at) in [
        ("all domains accept", None),
        ("domain-b denies", Some(1)),
        ("domain-c denies", Some(2)),
    ] {
        let (granted, rows) = run(deny_at, &telemetry);
        for (d, contacted, reserved) in rows {
            table_row(
                &[
                    format!("{label} [{}]", if granted { "GRANT" } else { "DENY" }),
                    d,
                    contacted.to_string(),
                    reserved.to_string(),
                ],
                &widths,
            );
        }
        println!();
    }
    write_metrics_snapshot("fig2_multidomain", &registry);
    println!(
        "\nexpected: a grant involves every broker on the path and commits\n\
         10 Mb/s in each domain; any single denial leaves zero residual\n\
         holds everywhere (two-phase rollback)."
    );
}
