//! The full life of reservations: advance booking in future windows,
//! capacity sharing across time, mid-life modification, explicit
//! teardown, and expiry — GARA's "advance reservations and end-to-end
//! management" on top of the hop-by-hop protocol.
//!
//! ```sh
//! cargo run -p qos-examples --bin reservation_lifecycle
//! ```

use gara::{Gara, GaraStatus};
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_examples::mbps;
use qos_net::SimDuration;

const MBPS: u64 = 1_000_000;

fn main() {
    // An SLA that fits exactly one 10 Mb/s reservation at a time.
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 10 * MBPS,
        ..ChainOptions::default()
    });

    println!("SLA between domains: {}\n", mbps(10 * MBPS));

    // Book two advance windows: 09:00–10:00 and 18:00–19:00.
    let morning = s.spec("alice", 1, 10 * MBPS, Timestamp::from_hours(9), 3600);
    let evening = s.spec("alice", 2, 10 * MBPS, Timestamp::from_hours(18), 3600);
    let overlap = s.spec("alice", 3, 10 * MBPS, Timestamp::from_hours(9) + 1800, 3600);
    let user_cert = s.users["alice"].cert.clone();
    let rars = vec![
        (
            "morning 09:00–10:00",
            s.users["alice"].sign_request(morning, &s.nodes[0]),
        ),
        (
            "evening 18:00–19:00",
            s.users["alice"].sign_request(evening, &s.nodes[0]),
        ),
        (
            "overlapping 09:30–10:30",
            s.users["alice"].sign_request(overlap, &s.nodes[0]),
        ),
    ];

    let mesh = s.mesh(SimDuration::from_millis(5));
    let mut gara = Gara::new(mesh);

    let mut handles = Vec::new();
    for (label, rar) in rars {
        let h = gara.reserve_network(rar, user_cert.clone()).unwrap();
        match gara.status(h).unwrap() {
            GaraStatus::Granted { .. } => println!("[grant] {label}"),
            GaraStatus::Denied { domain, reason } => {
                println!("[deny ] {label} — {domain}: {reason}")
            }
            other => println!("[?    ] {label}: {other:?}"),
        }
        handles.push(h);
    }

    println!(
        "\ncapacity at 09:30 : {} free",
        mbps(
            gara.mesh()
                .node("domain-b")
                .core()
                .available_bw_at(Timestamp::from_hours(9) + 1800)
        )
    );
    println!(
        "capacity at 12:00 : {} free (between the windows)",
        mbps(
            gara.mesh()
                .node("domain-b")
                .core()
                .available_bw_at(Timestamp::from_hours(12))
        )
    );

    // Downgrade the morning reservation to 4 Mb/s (make-before-break):
    // 10 + 4 exceed the SLA during the swap, so shrink needs the break
    // first — the API reports exactly that.
    let alice = &s.users["alice"];
    match gara.modify_network(handles[0], alice, 4 * MBPS) {
        Ok(h) => {
            println!(
                "\nmodified morning reservation to {} (new handle {h:?})",
                mbps(4 * MBPS)
            )
        }
        Err(e) => println!(
            "\nmodification refused (make-before-break cannot shrink within a full SLA): {e}"
        ),
    }

    // Tear the evening window down explicitly.
    gara.cancel(handles[1]).unwrap();
    println!(
        "evening cancelled; capacity at 18:30 back to {} free",
        mbps(
            gara.mesh()
                .node("domain-b")
                .core()
                .available_bw_at(Timestamp::from_hours(18) + 1800)
        )
    );

    // And let the rest expire: at 11:00 the morning window is history.
    let expired = gara.mesh_mut().expire_all_at(Timestamp::from_hours(11));
    println!("expiry sweep at 11:00 reclaimed {expired} per-domain records");
}
