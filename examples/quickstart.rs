//! Quickstart: one end-to-end reservation across three administrative
//! domains with hop-by-hop signalling.
//!
//! ```sh
//! cargo run -p qos-examples --bin quickstart
//! ```

use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_net::SimDuration;

const MBPS: u64 = 1_000_000;

fn main() {
    // A three-domain world: Alice in domain-a, the destination in
    // domain-c, brokers peered with SLAs and pinned certificates.
    let mut scenario = build_chain(ChainOptions::default());

    // Alice signs a 10 Mb/s reservation for one hour, delegating her
    // ESnet capability to her home broker.
    let spec = scenario.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = scenario.users["alice"].sign_request(spec, &scenario.nodes[0]);
    let cert = scenario.users["alice"].cert.clone();

    // Drive the mesh under a deterministic virtual clock: 5 ms per
    // inter-domain hop.
    let domains = scenario.domains.clone();
    let mut mesh = scenario.mesh(SimDuration::from_millis(5));

    println!("submitting Alice's 10 Mb/s reservation to domain-a …");
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();

    let (t, completion) = mesh
        .reservation_outcome("domain-a", rar_id)
        .expect("the request completes");
    match completion {
        Completion::Reservation {
            result: Ok(approval),
            ..
        } => {
            println!("GRANTED after {} of signalling", t - qos_net::SimTime::ZERO);
            println!("approval chain (destination first):");
            for entry in &approval.entries {
                println!("  + {} signed by {}", entry.domain, entry.signer);
            }
        }
        Completion::Reservation {
            result: Err(denial),
            ..
        } => {
            println!("DENIED by {}: {}", denial.domain, denial.reason);
        }
        other => println!("unexpected completion {other:?}"),
    }

    println!("\nper-broker signalling counters:");
    for d in &domains {
        let c = mesh.node(d).counters();
        println!(
            "  {d}: rx={} tx={} signed={} verified={}",
            c.rx, c.tx, c.signed, c.verified
        );
    }

    println!("\ntransitive billing recorded at the source:");
    for invoice in mesh.node("domain-a").core().invoices() {
        println!("  {invoice}");
    }
}
