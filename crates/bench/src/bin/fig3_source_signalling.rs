//! FIG3 — Figure 3: source-domain-based signalling and its trust cost.
//!
//! The end-to-end agent contacts every broker directly (sequentially or
//! concurrently). Every broker must hold a direct trust entry for every
//! user that may reserve through it: trust state grows as users ×
//! domains, versus peers(+neighbours) for hop-by-hop.
//!
//! Expected shape: concurrent latency ≈ 2×max one-way RTT; sequential ≈
//! 2×Σ; trust entries per broker = |users| (+peers), versus ≤2 peers for
//! hop-by-hop.

use qos_bench::{experiment_registry, table_header, table_row, write_metrics_snapshot};
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::source::{enrol, AgentMode, SourceBasedRun};
use qos_crypto::Timestamp;
use qos_net::SimDuration;

const MBPS: u64 = 1_000_000;

fn main() {
    println!("FIG3: source-domain-based signalling (Figure 3)\n");
    let (registry, telemetry) = experiment_registry();

    let n_users = 50;
    let n_domains = 5;
    let extra_users: Vec<String> = (0..n_users - 2).map(|i| format!("user{i}")).collect();

    println!("-- latency, path of {n_domains} domains, 5 ms per hop --");
    let widths = [24, 14, 10];
    table_header(&["strategy", "latency(ms)", "accepted"], &widths);
    for mode in [AgentMode::Concurrent, AgentMode::Sequential] {
        let mut s = build_chain(ChainOptions {
            domains: n_domains,
            extra_users: extra_users.clone(),
            telemetry: telemetry.clone(),
            ..ChainOptions::default()
        });
        let domains = s.domains.clone();
        let alice_pk = s.users["alice"].key.public();
        let alice_dn = s.users["alice"].dn.clone();
        let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
        let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
        let mut mesh = s.mesh(SimDuration::from_millis(5));
        enrol(&mut mesh, &domains, &alice_dn, alice_pk);
        let outcome = SourceBasedRun::honest(rar, domains, mode).execute(&mut mesh);
        table_row(
            &[
                format!("{mode:?}"),
                format!("{:.1}", outcome.latency().as_secs_f64() * 1e3),
                outcome.all_accepted.to_string(),
            ],
            &widths,
        );
    }

    println!("\n-- trust-table size per broker, {n_users} users × {n_domains} domains --");
    let widths = [26, 22];
    table_header(&["architecture", "entries per broker"], &widths);

    // Source-based: every broker must know every user.
    let mut s = build_chain(ChainOptions {
        domains: n_domains,
        extra_users: extra_users.clone(),
        ..ChainOptions::default()
    });
    let users: Vec<(qos_crypto::DistinguishedName, qos_crypto::PublicKey)> = s
        .users
        .values()
        .map(|u| (u.dn.clone(), u.key.public()))
        .collect();
    let domains = s.domains.clone();
    let mut mesh = s.mesh(SimDuration::ZERO);
    for (dn, pk) in &users {
        enrol(&mut mesh, &domains, dn, *pk);
    }
    let avg: f64 = domains
        .iter()
        .map(|d| mesh.node(d).trust_table_size() as f64)
        .sum::<f64>()
        / n_domains as f64;
    table_row(
        &["source-based (Fig 3)".into(), format!("{avg:.1}")],
        &widths,
    );

    // STARS: one coordinator entry per broker.
    let s = build_chain(ChainOptions {
        domains: n_domains,
        extra_users: extra_users.clone(),
        ..ChainOptions::default()
    });
    let avg: f64 = s
        .nodes
        .iter()
        .map(|n| (n.trust_table_size() + 1) as f64) // +1 RC entry
        .sum::<f64>()
        / n_domains as f64;
    table_row(&["STARS coordinator".into(), format!("{avg:.1}")], &widths);

    // Hop-by-hop: peers only; the source domain additionally knows its
    // own users (but no other domain does).
    let s = build_chain(ChainOptions {
        domains: n_domains,
        extra_users,
        ..ChainOptions::default()
    });
    let avg: f64 = s
        .nodes
        .iter()
        .map(|n| n.trust_table_size() as f64)
        .sum::<f64>()
        / n_domains as f64;
    table_row(
        &["hop-by-hop (this paper)".into(), format!("{avg:.1}")],
        &widths,
    );

    println!();
    write_metrics_snapshot("fig3_source_signalling", &registry);
    println!(
        "\nexpected: source-based ≈ users+peers (~{}), STARS ≈ peers+1,\n\
         hop-by-hop ≈ peers only (≤2): the per-user trust burden vanishes.",
        n_users + 2
    );
}
