//! The TCP peering fabric: the broker state machines exchanging sealed
//! frames over loopback sockets, with recovery through
//! reconnect-with-backoff that loses no approved reservation, and fig2
//! admission outcomes identical to the deterministic reference. (Every
//! store and observation configuration is `fabric_parity.rs`.)

use integration_tests::parity::{admin_get, over_tcp, Config, FIG2};
use integration_tests::{build_chain, channel_identities, spawn_chain, ChainOptions, MBPS};
use qos_core::node::Completion;
use qos_core::rar::RarId;
use qos_crypto::Timestamp;
use qos_storage::{FileStore, FileStoreOptions, LedgerStore};
use qos_telemetry::{Registry, Telemetry};
use qos_transport::{TcpMesh, MAX_FRAME_LEN};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// All accept, transit denial and destination denial give the same
/// admission outcome whether frames travel through sockets or are
/// delivered by `drive::Mesh`, and that reference is checked in absolute
/// terms: the grant commits, the denials roll back. (The name keeps the
/// threaded fabric the sockets were first compared against.)
#[test]
fn fig2_outcomes_identical_on_tcp_and_actor_mesh() {
    for case in &FIG2 {
        assert_eq!(
            over_tcp(case, Config::PLAIN),
            case.reference(),
            "{}",
            case.name
        );
    }
}

/// Observation does not perturb admission: with the admin plane up, a
/// 10 Hz scraper on every daemon, and the flight recorder replaying the
/// request's spans, the fig2 outcomes match the unobserved run's.
#[test]
fn fig2_outcomes_unchanged_under_metrics_scraping() {
    let scraped = Config {
        scraped: true,
        ..Config::PLAIN
    };
    for case in &FIG2 {
        let plain = over_tcp(case, Config::PLAIN);
        assert_eq!(over_tcp(case, scraped), plain, "{}", case.name);
        assert_eq!(plain, case.reference(), "{}", case.name);
    }
}

/// A 3-domain chain plus the direct `a↔c` channel tunnel sub-flows
/// run on, over daemons with frames of at most `max_frame` bytes, and an
/// established a-to-c tunnel of `mbps` Mb/s: the mesh, the tunnel, and
/// the user entitled to open sub-flows in it, all recording into
/// `registry`. With `observed`, every broker keeps its ledger in a
/// `FileStore` under that directory and every daemon serves its admin
/// plane.
fn tunnel_mesh(
    registry: &Arc<Registry>,
    max_frame: usize,
    mbps: u64,
    observed: Option<&Path>,
) -> (TcpMesh, RarId, qos_crypto::DistinguishedName) {
    let telemetry = Telemetry::with_registry(registry.clone());
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        telemetry: telemetry.clone(),
        ..ChainOptions::default()
    });
    if let Some(dir) = observed {
        for node in &s.nodes {
            let store = FileStore::open(dir.join(node.domain()), FileStoreOptions::default())
                .expect("a file store");
            store.set_telemetry(&telemetry, node.domain());
            node.attach_store(Arc::new(store));
        }
    }
    let ids = channel_identities(&s);
    let mut links: Vec<(String, String)> = s
        .domains
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    // Tunnel sub-flow signalling runs on a direct source↔destination
    // channel, bypassing transit.
    links.push((s.domains[0].clone(), s.domains[2].clone()));

    // Tunnel id 2, not 1: FNV-1a routing over two broker replicas put
    // this id on the second, whose tunnels shutdown never handed back
    // (`shutdown_hands_back_the_tunnel_and_what_its_subflows_spent`).
    s.next_rar_id();
    let spec = s
        .spec("alice", 7000, mbps * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();
    let ca_key = s.ca_key;

    let mut mesh = TcpMesh::new();
    mesh.set_telemetry(telemetry);
    mesh.set_max_frame(max_frame);
    mesh.set_admin(observed.is_some());
    mesh.spawn(std::mem::take(&mut s.nodes), ids, &links, ca_key)
        .expect("loopback mesh comes up");
    mesh.submit("domain-a", rar, cert);
    let done = mesh.wait_completions(1);
    assert!(matches!(
        done[0].1,
        Completion::Reservation { result: Ok(_), .. }
    ));
    (mesh, tunnel, alice)
}

/// A per-link counter of the `domain` end of its link to `peer`.
fn at(registry: &Registry, family: &str, domain: &str, peer: &str) -> u64 {
    registry
        .counter_value(family, &[("domain", domain), ("peer", peer)])
        .unwrap_or(0)
}

#[test]
fn tunnel_subflow_bursts_complete_over_tcp() {
    let (mesh, tunnel, alice) = tunnel_mesh(&Registry::new(), MAX_FRAME_LEN, 50, None);
    for flow in 1..=6u64 {
        mesh.tunnel_flow("domain-a", tunnel, flow, 10 * MBPS, alice.clone());
    }
    let flows = mesh.wait_completions(6);
    assert_eq!(flows.len(), 6);
    let accepted = flows
        .iter()
        .filter(|(_, c)| matches!(c, Completion::TunnelFlow { accepted: true, .. }))
        .count();
    assert_eq!(
        accepted, 5,
        "five 10 Mb/s sub-flows fill the 50 Mb/s tunnel"
    );
    mesh.shutdown();
}

/// A broker is one node, so what its daemon held is what `shutdown`
/// hands back: the source's tunnel, charged for exactly the sub-flows
/// the destination accepted and for none it refused.
#[test]
fn shutdown_hands_back_the_tunnel_and_what_its_subflows_spent() {
    let (mesh, tunnel, alice) = tunnel_mesh(&Registry::new(), MAX_FRAME_LEN, 50, None);
    assert_eq!(tunnel, RarId(2));
    for flow in 1..=4u64 {
        mesh.tunnel_flow("domain-a", tunnel, flow, 15 * MBPS, alice.clone());
    }
    let flows = mesh.wait_completions(4);
    let accepted = flows
        .iter()
        .filter(|(_, c)| matches!(c, Completion::TunnelFlow { accepted: true, .. }))
        .count() as u64;
    assert_eq!(
        (flows.len(), accepted),
        (4, 3),
        "three 15 Mb/s sub-flows fit the 50 Mb/s tunnel, the fourth is refused"
    );
    let nodes = mesh.shutdown();
    assert_eq!(
        nodes["domain-a"].tunnel_remaining_bps(tunnel),
        Some(50 * MBPS - accepted * 15 * MBPS)
    );
}

/// Every metric family an operator's `/metrics` scrape carries, held
/// once: a family missing from it is an instrument renamed or no longer
/// registered.
const METRIC_FAMILIES: &[&str] = &[
    // The reactor, its read chunks and its admin plane.
    "reactor_wakeups_total",
    "reactor_ready_events_total",
    "reactor_sweep_ns",
    "reactor_stall_total",
    "buffer_pool_chunks_in_use",
    "buffer_pool_fallbacks_total",
    "admin_requests_total",
    // Each link.
    "transport_frames_sent_total",
    "transport_frames_received_total",
    "transport_reconnects_total",
    "resumed_handshakes_total",
    "transport_handshake_ns",
    "transport_write_batch_frames",
    "transport_writes_coalesced_total",
    "transport_acks_standalone_total",
    "transport_unacked_frames",
    // The broker's admission worker.
    "shard_queue_depth",
    "shard_busy_ns_total",
    "shard_idle_ns_total",
    "shard_inline_runs_total",
    // The broker node, its policy server and its reservation book.
    "bb_messages_received_total",
    "bb_messages_sent_total",
    "bb_admission_total",
    "bb_completions_total",
    "bb_envelope_verify_ns",
    "bb_signatures_verified_total",
    "pdp_decisions_total",
    "broker_holds_total",
    "broker_commits_total",
    // Tunnel sub-flows.
    "flow_table_occupancy",
    "flow_admit_ns",
    "flow_expiry_sweeps_total",
    // The durable ledger.
    "wal_appends_total",
    "wal_fsyncs_total",
    "wal_bytes_total",
    "snapshot_duration_ns",
    "recovery_replay_ns",
];

/// One mesh run with everything observable — telemetry in every layer,
/// the admin plane, a `FileStore` under every broker, a reservation and a
/// tunnel sub-flow — exposes each of [`METRIC_FAMILIES`] on `/metrics`.
#[test]
fn one_observed_mesh_run_exposes_every_metric_family() {
    let registry = Registry::new();
    let dir = std::env::temp_dir().join(format!("qos-metric-families-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mesh, tunnel, alice) = tunnel_mesh(&registry, MAX_FRAME_LEN, 50, Some(&dir));
    mesh.tunnel_flow("domain-a", tunnel, 1, MBPS, alice);
    assert_eq!(mesh.wait_completions(1).len(), 1);
    let admin = mesh.admin_addr("domain-a").expect("an admin plane");
    // A request is counted once it is served. One broker, one queue
    // depth; what `/shards` used to serve is on `/metrics`.
    let (status, health) = admin_get(admin, "/healthz");
    assert_eq!(status, 200);
    assert!(health.contains(r#""queue_depth":"#), "{health}");
    assert!(!health.contains("shard"), "{health}");
    assert_eq!(admin_get(admin, "/shards").0, 404);
    let (status, exposition) = admin_get(admin, "/metrics");
    mesh.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(status, 200);
    let missing: Vec<&str> = METRIC_FAMILIES
        .iter()
        .copied()
        .filter(|family| !exposition.contains(&format!("# TYPE {family} ")))
        .collect();
    assert!(missing.is_empty(), "missing from /metrics: {missing:?}");
}

/// A write batch is one frame: a burst of 256 sub-flows crosses the
/// direct `a↔c` link in at most 32 data frames each way (eight sub-flows
/// or replies to a frame on average), and every flow completes once.
#[test]
fn a_subflow_burst_shares_frames_and_completes_every_flow_once() {
    let registry = Registry::new();
    let (mesh, tunnel, alice) = tunnel_mesh(&registry, MAX_FRAME_LEN, 300, None);
    let data = |domain: &str, peer: &str| {
        at(&registry, "transport_frames_sent_total", domain, peer)
            - at(&registry, "transport_acks_standalone_total", domain, peer)
    };
    let before = [data("domain-a", "domain-c"), data("domain-c", "domain-a")];

    for flow in 1..=256u64 {
        mesh.tunnel_flow("domain-a", tunnel, flow, MBPS, alice.clone());
    }
    let mut flows: Vec<u64> = mesh
        .wait_completions(256)
        .into_iter()
        .map(|(_, c)| match c {
            Completion::TunnelFlow {
                flow,
                accepted: true,
                ..
            } => flow,
            other => panic!("not an admitted sub-flow: {other:?}"),
        })
        .collect();
    flows.sort_unstable();
    assert_eq!(flows, (1..=256).collect::<Vec<u64>>());

    // A frame is counted after the write that sends it.
    std::thread::sleep(4 * ACK_DELAY);
    let sent = [
        data("domain-a", "domain-c") - before[0],
        data("domain-c", "domain-a") - before[1],
    ];
    println!("data frames per 256 sub-flows, a→c and c→a: {sent:?}");
    assert!(
        sent.iter().all(|&n| (1..=256 / 8).contains(&n)),
        "data frames a→c, c→a: {sent:?}"
    );
    mesh.shutdown();
}

/// A message too large for any frame is dropped before it is numbered
/// or sealed: the link's delivery index and seal sequence go on unbroken,
/// so the next message is delivered on the same session.
#[test]
fn an_oversized_message_is_dropped_and_the_link_goes_on() {
    let registry = Registry::new();
    let (mesh, tunnel, alice) = tunnel_mesh(&registry, 4096, 50, None);
    let reconnects = || {
        at(
            &registry,
            "transport_reconnects_total",
            "domain-a",
            "domain-c",
        ) + at(
            &registry,
            "transport_reconnects_total",
            "domain-c",
            "domain-a",
        )
    };
    assert_eq!(reconnects(), 0);

    // A sub-flow request naming a 5000-byte requestor cannot fit.
    let huge = qos_crypto::DistinguishedName::user(&"x".repeat(5000), "Example");
    mesh.tunnel_flow("domain-a", tunnel, 1, MBPS, huge);
    mesh.tunnel_flow("domain-a", tunnel, 2, MBPS, alice);
    let done = mesh.wait_completions(1);
    assert!(
        matches!(
            done[0].1,
            Completion::TunnelFlow {
                flow: 2,
                accepted: true,
                ..
            }
        ),
        "{:?}",
        done[0].1
    );
    assert_eq!(
        at(
            &registry,
            "transport_frames_dropped_total",
            "domain-a",
            "domain-c"
        ),
        1
    );
    assert_eq!(reconnects(), 0, "the link survived the drop");
    mesh.shutdown();
}

#[test]
fn reconnect_recovers_without_losing_reservations() {
    let registry = Registry::new();
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        ..ChainOptions::default()
    });
    let spec1 = s.spec("alice", 1, 5 * MBPS, Timestamp(0), 3600);
    let rar1 = s.users["alice"].sign_request(spec1, &s.nodes[0]);
    let spec2 = s.spec("alice", 2, 5 * MBPS, Timestamp(0), 3600);
    let rar2 = s.users["alice"].sign_request(spec2, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();

    let mut mesh = TcpMesh::new();
    mesh.set_telemetry(Telemetry::with_registry(registry.clone()));
    let mesh = spawn_chain(&mut s, mesh);

    // A reservation completes on the healthy fabric.
    mesh.submit("domain-a", rar1, cert.clone());
    let first = mesh.wait_completions(1);
    assert!(matches!(
        first[0].1,
        Completion::Reservation { result: Ok(_), .. }
    ));

    // Sever every session, then submit immediately: the outbound frames
    // hit dead sockets, are re-queued at the queue front, and must ride
    // the re-established sessions to an approval — nothing is lost.
    mesh.kill_connections();
    mesh.submit("domain-a", rar2, cert);
    let second = mesh.wait_completions(1);
    assert_eq!(second.len(), 1, "reservation survived the outage");
    assert!(matches!(
        second[0].1,
        Completion::Reservation { result: Ok(_), .. }
    ));
    assert!(
        mesh.wait_connected(Duration::from_secs(10)),
        "all sessions re-established"
    );

    // The recovery went through the reconnect path, not a surviving
    // socket: at least one dial-side link re-established its session.
    let reconnects: u64 = [("domain-a", "domain-b"), ("domain-b", "domain-c")]
        .iter()
        .filter_map(|(d, p)| {
            registry.counter_value("transport_reconnects_total", &[("domain", d), ("peer", p)])
        })
        .sum();
    assert!(reconnects >= 1, "expected at least one reconnect");

    // Both reservations are committed in every domain.
    let nodes = mesh.shutdown();
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert_eq!(
            nodes[d].core().available_bw_at(Timestamp(10)),
            1_000_000_000 - 2 * 5 * MBPS,
            "domain {d}"
        );
    }
}

#[test]
fn a_burst_survives_mid_burst_disconnect() {
    // The runtime's loss guarantee: a peer dropping in the middle of a
    // burst loses no approved reservation. Frames already accepted by the socket stay gone
    // (no double delivery); everything else is re-queued at the front
    // and rides the re-established sessions.
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        ..ChainOptions::default()
    });
    let n_requests = 64u64;
    let mut rars = Vec::new();
    for i in 0..n_requests {
        let spec = s.spec("alice", 3000 + i, 5 * MBPS, Timestamp(0), 3600);
        rars.push(s.users["alice"].sign_request(spec, &s.nodes[0]));
    }
    let cert = s.users["alice"].cert.clone();

    let mesh = spawn_chain(&mut s, TcpMesh::new());

    // The whole burst enters at once, then the fabric is severed while
    // requests are mid-flight — twice, to catch frames at different
    // stages (queued, sealed-but-unsent, and awaiting responses).
    mesh.submit_all(
        "domain-a",
        rars.into_iter().map(|r| (r, cert.clone())).collect(),
    );
    mesh.kill_connections();
    std::thread::sleep(Duration::from_millis(5));
    mesh.kill_connections();

    let completions = mesh.wait_completions(n_requests as usize);
    assert_eq!(
        completions.len(),
        n_requests as usize,
        "every reservation completed despite the mid-burst outages"
    );
    let granted = completions
        .iter()
        .filter(|(_, c)| matches!(c, Completion::Reservation { result: Ok(_), .. }))
        .count();
    assert_eq!(granted, n_requests as usize, "no approval was lost");

    // And the ledgers agree: the full burst is committed end to end.
    let nodes = mesh.shutdown();
    for d in ["domain-a", "domain-b", "domain-c"] {
        assert_eq!(
            nodes[d].core().available_bw_at(Timestamp(10)),
            1_000_000_000 - n_requests * 5 * MBPS,
            "domain {d}"
        );
    }
}

/// The (domain, peer) label pairs of the 3-domain chain's two links,
/// one per link end.
const LINK_ENDS: [(&str, &str); 4] = [
    ("domain-a", "domain-b"),
    ("domain-b", "domain-a"),
    ("domain-b", "domain-c"),
    ("domain-c", "domain-b"),
];
/// The reactor's `ACK_DELAY`: how long an ack waits for a data frame to
/// ride on before it is sent as a frame of its own.
const ACK_DELAY: Duration = Duration::from_millis(5);

/// A per-link counter family summed over the chain's four link ends.
fn over_link_ends(registry: &Registry, family: &str) -> u64 {
    LINK_ENDS
        .iter()
        .filter_map(|(d, p)| registry.counter_value(family, &[("domain", d), ("peer", p)]))
        .sum()
}

/// Poll `done` until it holds or five seconds pass.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A 3-domain mesh with a registry, its sessions synced, and `n` signed
/// 5 Mb/s requests for it.
fn metered_chain(
    n: u64,
) -> (
    TcpMesh,
    std::sync::Arc<Registry>,
    Vec<qos_core::envelope::SignedRar>,
    qos_crypto::Certificate,
) {
    let registry = Registry::new();
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        ..ChainOptions::default()
    });
    let rars = (0..n)
        .map(|i| {
            let spec = s.spec("alice", 9000 + i, 5 * MBPS, Timestamp(0), 3600);
            s.users["alice"].sign_request(spec, &s.nodes[0])
        })
        .collect();
    let cert = s.users["alice"].cert.clone();
    let mut mesh = TcpMesh::new();
    mesh.set_telemetry(Telemetry::with_registry(registry.clone()));
    let mesh = spawn_chain(&mut s, mesh);
    // Every session opens with one sync frame from each end.
    eventually("the four syncs are sent", || {
        over_link_ends(&registry, "transport_frames_sent_total") == 4
    });
    (mesh, registry, rars, cert)
}

#[test]
fn a_reservation_costs_one_frame_per_hop_and_its_acks_ride() {
    let (mesh, registry, mut rars, cert) = metered_chain(1);
    let sent = || over_link_ends(&registry, "transport_frames_sent_total") - 4;
    let alone = || over_link_ends(&registry, "transport_acks_standalone_total");

    let t0 = Instant::now();
    mesh.submit("domain-a", rars.remove(0), cert);
    let done = mesh.wait_completions(1);
    assert!(matches!(
        done[0].1,
        Completion::Reservation { result: Ok(_), .. }
    ));
    // Request a→b→c, approval c→b→a: four hops, four data frames, with
    // or without acks beside them. (A frame is counted after the write
    // that sends it, so a count may trail the completion.)
    eventually("four data frames are counted", || {
        sent().checked_sub(alone()) == Some(4)
    });
    let counted = (sent(), alone());
    if t0.elapsed() < ACK_DELAY {
        // Traffic was flowing the whole time: each request's ack rode
        // on the approval coming back, and the approvals' acks are
        // still waiting for a ride.
        assert_eq!(counted, (4, 0), "no ack of its own yet");
    }

    // Quiet. Nothing goes back to carry the acks of the two approvals,
    // so each is sent alone once `ACK_DELAY` has passed (so were the
    // requests', if the approvals took longer than that), and then no
    // link retains anything: a peer that restarted now would be
    // replayed nothing.
    eventually("every retransmit window is empty", || {
        alone() >= 2
            && LINK_ENDS.iter().all(|(d, p)| {
                let labels = [("domain", *d), ("peer", *p)];
                registry.gauge_value("transport_unacked_frames", &labels) == Some(0)
            })
    });
    std::thread::sleep(4 * ACK_DELAY);
    assert!((2..=4).contains(&alone()), "at most one ack per receipt");
    assert_eq!(sent() - alone(), 4, "and still four data frames");
    mesh.shutdown();
}

#[test]
fn shutdown_settles_ack_debts_so_no_peer_counts_a_retransmit() {
    let (mesh, registry, rars, cert) = metered_chain(8);
    for rar in rars {
        mesh.submit("domain-a", rar, cert.clone());
        assert_eq!(mesh.wait_completions(1).len(), 1);
    }
    // Stop at once, while the last approvals are still unacknowledged:
    // each daemon acknowledges what it has before it closes its
    // sockets, so the daemons stopped after it find nothing to requeue
    // when those sockets close under them.
    mesh.shutdown();
    assert_eq!(
        over_link_ends(&registry, "transport_frames_retransmitted_total"),
        0
    );
    assert_eq!(
        over_link_ends(&registry, "transport_frames_duplicate_total"),
        0
    );
}
