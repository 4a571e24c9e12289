//! The threaded actor runtime end to end: brokers on OS threads exchange
//! sealed frames over mutually authenticated channels, a tunnel is
//! established hop by hop, and then a burst of sub-flow requests races
//! for the tunnel's aggregate budget on the direct source↔destination
//! channel. A sub-flow carries no signature: the destination admits it
//! because the channel it arrived on is authenticated as the tunnel's
//! source (DESIGN.md §D23).
//!
//! Run with: `cargo run --release --bin actor_tunnel_burst`

use qos_core::channel::ChannelIdentity;
use qos_core::node::Completion;
use qos_core::runtime::ActorMesh;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::{KeyPair, Timestamp};
use std::collections::HashMap;

const MBPS: u64 = 1_000_000;

fn main() {
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        ..ChainOptions::default()
    });
    let ids: HashMap<String, ChannelIdentity> = s
        .nodes
        .iter()
        .map(|n| {
            (
                n.domain().to_string(),
                ChannelIdentity {
                    key: KeyPair::from_seed(format!("bb-{}", n.domain()).as_bytes()),
                    cert: n.cert().clone(),
                },
            )
        })
        .collect();
    let mut links: Vec<(String, String)> = s
        .domains
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    // Sub-flow signalling bypasses transit: direct source↔destination.
    links.push((s.domains[0].clone(), s.domains[2].clone()));

    let spec = s
        .spec("alice", 7000, 50 * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();
    let ca_key = s.ca_key;

    println!("spawning {} broker actors …", s.domains.len());
    let mut mesh = ActorMesh::new();
    mesh.spawn(std::mem::take(&mut s.nodes), ids, &links, ca_key);

    mesh.submit("domain-a", rar, cert);
    let done = mesh.wait_completions(1);
    match &done[0].1 {
        Completion::Reservation { result: Ok(_), .. } => {
            println!("tunnel {tunnel:?} established: 50.0 Mb/s aggregate across the chain")
        }
        other => {
            println!("tunnel setup failed: {other:?}");
            mesh.shutdown();
            return;
        }
    }

    println!("\nburst: 6 × 10.0 Mb/s sub-flows race for the 50 Mb/s budget …");
    for flow in 1..=6u64 {
        mesh.tunnel_flow("domain-a", tunnel, flow, 10 * MBPS, alice.clone());
    }
    let mut flows = mesh.wait_completions(6);
    flows.sort_by_key(|(_, c)| match c {
        Completion::TunnelFlow { flow, .. } => *flow,
        _ => u64::MAX,
    });
    for (_, c) in &flows {
        if let Completion::TunnelFlow {
            flow,
            accepted,
            reason,
            ..
        } = c
        {
            if *accepted {
                println!("  flow {flow}: accepted");
            } else {
                println!("  flow {flow}: rejected ({reason})");
            }
        }
    }
    let accepted = flows
        .iter()
        .filter(|(_, c)| matches!(c, Completion::TunnelFlow { accepted: true, .. }))
        .count();

    let nodes = mesh.shutdown();
    let dst = nodes["domain-c"].counters();
    println!(
        "\naccepted {accepted}/6 (five fill the aggregate); destination \
         verified {} signatures across the session, all at establishment",
        dst.verified
    );
}
