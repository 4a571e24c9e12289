//! Tunnels: one aggregate end-to-end reservation, then per-flow
//! sub-reservations that touch only the two end domains.
//!
//! "If a set of applications creates many parallel flows between the
//! same two end-domains, it is infeasible to negotiate an end-to-end
//! reservation for each one" — the tunnel amortizes the transit domains
//! away, using the direct source↔destination signalling channel the
//! trust model makes possible.
//!
//! ```sh
//! cargo run -p qos-examples --bin tunnel_flows
//! ```

use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::Input;
use qos_crypto::Timestamp;
use qos_examples::mbps;
use qos_net::SimDuration;

const MBPS: u64 = 1_000_000;

fn main() {
    let mut scenario = build_chain(ChainOptions {
        domains: 5, // A → B → C → D → E: three transit domains
        ..ChainOptions::default()
    });
    let domains = scenario.domains.clone();

    // One 100 Mb/s aggregate tunnel A→E.
    let spec = scenario
        .spec("alice", 0, 100 * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel_id = spec.rar_id;
    let rar = scenario.users["alice"].sign_request(spec, &scenario.nodes[0]);
    let cert = scenario.users["alice"].cert.clone();
    let alice_dn = scenario.users["alice"].dn.clone();

    let mut mesh = scenario.mesh(SimDuration::from_millis(5));
    println!(
        "establishing a {} tunnel across {} domains …",
        mbps(100 * MBPS),
        domains.len()
    );
    mesh.submit_in(SimDuration::ZERO, domains.first().unwrap(), rar, cert);
    mesh.run_until_idle();

    let transit: Vec<&String> = domains[1..domains.len() - 1].iter().collect();
    let transit_rx_after_setup: u64 = transit.iter().map(|d| mesh.node(d).counters().rx).sum();
    println!(
        "tunnel established; transit brokers processed {transit_rx_after_setup} messages for the setup"
    );

    // Twenty 5 Mb/s sub-flows — each one signals only A and E directly.
    println!(
        "\nrequesting 20 × {} sub-flows through the tunnel …",
        mbps(5 * MBPS)
    );
    for flow in 1..=20u64 {
        let input = Input::TunnelFlow(tunnel_id, flow, 5 * MBPS, None, alice_dn.clone());
        mesh.input_in(SimDuration::from_millis(flow), &domains[0], input);
    }
    mesh.run_until_idle();

    let accepted = mesh
        .completions()
        .iter()
        .filter(|(_, _, c)| matches!(c, Completion::TunnelFlow { accepted: true, .. }))
        .count();
    let transit_rx_after_flows: u64 = transit.iter().map(|d| mesh.node(d).counters().rx).sum();

    println!("accepted sub-flows    : {accepted}/20");
    println!(
        "tunnel budget left    : {}",
        mbps(
            mesh.node(&domains[0])
                .tunnel_remaining_bps(tunnel_id)
                .unwrap_or(0)
        )
    );
    println!(
        "transit messages added: {} (sub-flows bypass all {} transit brokers)",
        transit_rx_after_flows - transit_rx_after_setup,
        transit.len()
    );

    // A 21st flow exceeds the aggregate.
    let input = Input::TunnelFlow(tunnel_id, 21, 5 * MBPS, None, alice_dn);
    mesh.input_in(SimDuration::ZERO, &domains[0], input);
    mesh.run_until_idle();
    if let Some((
        _,
        _,
        Completion::TunnelFlow {
            accepted, reason, ..
        },
    )) = mesh
        .completions()
        .iter()
        .find(|(_, _, c)| matches!(c, Completion::TunnelFlow { flow: 21, .. }))
    {
        println!("\nflow 21 accepted={accepted} ({reason})");
    }
}
