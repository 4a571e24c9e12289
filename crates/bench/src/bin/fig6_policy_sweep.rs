//! FIG6 — Figure 6: the three policy files, swept over request
//! parameters, evaluated through the full signalling chain.
//!
//! Sweeps bandwidth × time-of-day × credentials × coupled-CPU validity
//! and reports which domain (if any) denies.
//!
//! Expected shape: the grant/deny boundary sits exactly where the three
//! policy files put it — A caps Alice at 10 Mb/s during business hours,
//! B requires ATLAS membership or an ESnet capability (≤10 Mb/s), C
//! requires ESnet + a valid CPU reservation for ≥5 Mb/s.

use qos_bench::{experiment_registry, table_header, table_row, write_metrics_snapshot};
use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::Input;
use qos_crypto::Timestamp;
use qos_net::SimDuration;
use qos_policy::samples;
use std::collections::HashMap;

const MBPS: u64 = 1_000_000;

/// One sweep point. Returns "GRANT" or "DENY@<domain>".
fn run(
    user: &str,
    rate_mbps: u64,
    hour: u64,
    cpu_ok: bool,
    telemetry: &qos_telemetry::Telemetry,
) -> String {
    let mut policies = HashMap::new();
    policies.insert(0, samples::FIG6_DOMAIN_A.to_string());
    policies.insert(1, samples::FIG6_DOMAIN_B.to_string());
    policies.insert(2, samples::FIG6_DOMAIN_C.to_string());
    let mut s = build_chain(ChainOptions {
        policies,
        telemetry: telemetry.clone(),
        ..ChainOptions::default()
    });
    let start = Timestamp::from_hours(hour);
    let spec = s
        .spec(user, 7, rate_mbps * MBPS, start, 3600)
        .with_cpu_reservation(111);
    let rar_id = spec.rar_id;
    let rar = s.users[user].sign_request(spec, &s.nodes[0]);
    let cert = s.users[user].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    if cpu_ok {
        mesh.input_in(SimDuration::ZERO, "domain-c", Input::CpuReservation(111));
    }
    // Submit at the sweep's wall-clock hour so `Time` policies see it.
    mesh.submit_in(SimDuration::from_secs(hour * 3600), "domain-a", rar, cert);
    mesh.run_until_idle();
    match mesh.reservation_outcome("domain-a", rar_id) {
        Some((_, Completion::Reservation { result: Ok(_), .. })) => "GRANT".into(),
        Some((_, Completion::Reservation { result: Err(d), .. })) => {
            format!("DENY@{}", d.domain.trim_start_matches("domain-"))
        }
        _ => "???".into(),
    }
}

fn main() {
    println!("FIG6: policy sweep across the Figure 6 chain\n");
    let (registry, telemetry) = experiment_registry();
    println!("(requestor Alice holds an ESnet capability; David holds none)\n");
    let widths = [9, 10, 7, 9, 12];
    table_header(&["user", "BW(Mb/s)", "hour", "CPU 111", "outcome"], &widths);
    for (user, rate, hour, cpu_ok) in [
        // Alice business hours: A caps at 10.
        ("alice", 5, 10, true),
        ("alice", 10, 10, true),
        ("alice", 12, 10, true),
        // Night: A allows up to Avail_BW, B's 10 Mb/s cap now binds.
        ("alice", 10, 22, true),
        ("alice", 12, 22, true),
        // C's coupled-CPU rule.
        ("alice", 10, 10, false),
        ("alice", 4, 10, false),
        // David: no capability, no ATLAS.
        ("david", 10, 10, true),
        ("david", 4, 10, true),
    ] {
        table_row(
            &[
                user.into(),
                rate.to_string(),
                format!("{hour}:00"),
                cpu_ok.to_string(),
                run(user, rate, hour, cpu_ok, &telemetry),
            ],
            &widths,
        );
    }
    write_metrics_snapshot("fig6_policy_sweep", &registry);
    println!(
        "\nexpected boundaries:\n\
         - alice 12 Mb/s @10:00 → DENY@a (business-hours cap)\n\
         - alice 12 Mb/s @22:00 → DENY@b (B caps at 10 Mb/s)\n\
         - alice 10 Mb/s, bogus CPU → DENY@c; 4 Mb/s → GRANT (below C's bar)\n\
         - david (any rate) → DENY@a: policy file A names only Alice\n\
           ('If User = Alice … Return DENY' for everyone else)"
    );
}
