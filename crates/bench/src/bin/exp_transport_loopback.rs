//! EXP-TCP — the TCP peering fabric under a reservation burst.
//!
//! A burst of reservations on the 3-domain chain over loopback daemons:
//! submit-to-completion latency and throughput, written to `BENCH_transport.json`. Beside the bucketed
//! p50/p99/p999 the table carries the histogram's raw min/mean/max,
//! which don't suffer bucket collapse. The same burst then runs with the
//! admin plane up and a 10 Hz `/metrics` scraper on every daemon, and
//! the throughput it costs is printed.
//!
//! These are measurements of single bursts on whatever host runs them:
//! nothing here passes or fails on a rate. That the fabric never changes
//! an admission outcome is `tests/tests/fabric_parity.rs`.

use qos_bench::{spawn_chain, table_header, table_row, write_metrics_snapshot};
use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_telemetry::{Artifact, Registry, Row, Telemetry};
use qos_transport::TcpMesh;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MBPS: u64 = 1_000_000;
/// Burst size. Each request reserves 1 Mb/s against a 1000 Mb/s SLA, so
/// the whole burst admits.
const REQUESTS: u64 = 512;

/// Minimal blocking HTTP/1.1 GET against a daemon's loopback admin
/// endpoint; returns the status code.
fn admin_get(addr: SocketAddr, path: &str) -> Option<u16> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: bbd\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8_lossy(&raw);
    text.split_whitespace().nth(1).and_then(|s| s.parse().ok())
}

/// One burst of [`REQUESTS`], its instruments in `registry`. With `admin`, every daemon hosts its admin plane and a
/// 10 Hz scraper hits `/metrics` on all of them while the burst is in
/// flight. Returns (wall seconds, requests granted).
fn burst(admin: bool, registry: &Arc<Registry>) -> (f64, usize) {
    let telemetry = Telemetry::with_registry(Arc::clone(registry));
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        telemetry: telemetry.clone(),
        ..ChainOptions::default()
    });
    let cert = s.users["alice"].cert.clone();
    let requests: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let spec = s.spec("alice", 1000 + i, MBPS, Timestamp(0), 3600);
            (
                s.users["alice"].sign_request(spec, &s.nodes[0]),
                cert.clone(),
            )
        })
        .collect();
    let domains = s.domains.clone();
    let mut mesh = TcpMesh::new();
    mesh.set_telemetry(telemetry);
    mesh.set_admin(admin);
    let mesh = spawn_chain(&mut s, mesh);

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = admin.then(|| {
        let addrs: Vec<SocketAddr> = domains.iter().filter_map(|d| mesh.admin_addr(d)).collect();
        // One synchronous scrape up front so every route (and its
        // lazily-resolved counter family) is exercised before timing.
        for &a in &addrs {
            assert_eq!(admin_get(a, "/metrics"), Some(200), "admin warm-up scrape");
        }
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for &a in &addrs {
                    let _ = admin_get(a, "/metrics");
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    });

    let t0 = Instant::now();
    mesh.submit_all("domain-a", requests);
    let completions = mesh.wait_completions(REQUESTS as usize);
    let secs = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::SeqCst);
    if let Some(h) = scraper {
        let _ = h.join();
    }
    mesh.shutdown();
    let granted = completions
        .iter()
        .filter(|(_, c)| matches!(c, Completion::Reservation { result: Ok(_), .. }))
        .count();
    (secs, granted)
}

fn main() {
    println!("EXP-TCP: the TCP peering fabric under a reservation burst\n");
    let mut artifact = Artifact::new(
        "exp_transport_loopback",
        "mixed (ms; req/s; us)",
        "a burst of reservations over loopback TCP daemons, and the same \
         burst under a live 10 Hz admin scraper; wall-clock submit-to-completion on an otherwise idle \
         host, measured and not gated",
    );

    println!(
        "reservation burst ({REQUESTS} requests, 3-domain chain, {} core(s)):",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let widths = [10, 9, 9, 9, 9, 9, 9, 9, 7, 9];
    table_header(
        &[
            "total(ms)",
            "req/s",
            "min(µs)",
            "mean(µs)",
            "max(µs)",
            "p50(µs)",
            "p99(µs)",
            "p999(µs)",
            "count",
            "granted",
        ],
        &widths,
    );
    let registry = Registry::new();
    let (secs, granted) = burst(false, &registry);
    let latency = registry
        .histogram_handle("bb_completion_latency_ns", &[("domain", "domain-a")])
        .unwrap_or_default();
    let (total_ms, req_per_sec) = (secs * 1e3, REQUESTS as f64 / secs);
    let latency_us = [
        ("min_us", latency.min() as f64),
        ("mean_us", latency.mean()),
        ("max_us", latency.max() as f64),
        ("p50_us", latency.p50() as f64),
        ("p99_us", latency.p99() as f64),
        ("p999_us", latency.p999() as f64),
    ]
    .map(|(name, ns)| (name, ns / 1e3));
    let mut cells = vec![format!("{total_ms:.2}"), format!("{req_per_sec:.0}")];
    cells.extend(latency_us.iter().map(|(_, us)| format!("{us:.1}")));
    cells.extend([latency.count().to_string(), format!("{granted}/{REQUESTS}")]);
    table_row(&cells, &widths);
    let mut row = Row::new()
        .field("section", "throughput")
        .field("requests", REQUESTS)
        .field("total_ms", total_ms)
        .field("req_per_sec", req_per_sec);
    for (name, us) in latency_us {
        row = row.field(name, us);
    }
    artifact.push(
        row.field("count", latency.count())
            .field("granted", granted as u64),
    );

    // What observation costs: the same burst with and without the admin
    // plane and its scraper, best of three each.
    println!("\nadmin-plane overhead (10 Hz /metrics scraper, best of 3):");
    let best = |admin: bool| {
        (0..3)
            .map(|_| REQUESTS as f64 / burst(admin, &Registry::new()).0)
            .fold(0.0f64, f64::max)
    };
    let base_rps = best(false);
    let scraped_rps = best(true);
    let overhead_pct = (base_rps - scraped_rps) / base_rps * 100.0;
    let widths = [26, 12, 13];
    table_header(&["configuration", "req/s", "overhead(%)"], &widths);
    table_row(
        &[
            "no admin plane".into(),
            format!("{base_rps:.0}"),
            "-".into(),
        ],
        &widths,
    );
    table_row(
        &[
            "admin + 10 Hz scraper".into(),
            format!("{scraped_rps:.0}"),
            format!("{overhead_pct:.1}"),
        ],
        &widths,
    );
    artifact.push(
        Row::new()
            .field("section", "admin_overhead")
            .field("base_req_per_sec", base_rps)
            .field("scraped_req_per_sec", scraped_rps)
            .field("overhead_pct", overhead_pct),
    );

    match artifact.write("BENCH_transport.json") {
        Ok(()) => println!("\nwrote BENCH_transport.json"),
        Err(e) => eprintln!("\nwarning: could not write BENCH_transport.json: {e}"),
    }
    write_metrics_snapshot("transport_loopback", &registry);
    println!(
        "\nexpected: every request granted; a live 10 Hz admin scraper costs\n\
         a few percent of the throughput on a host with a core to spare."
    );
}
