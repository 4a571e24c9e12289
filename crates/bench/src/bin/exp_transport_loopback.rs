//! EXP-TCP — the TCP peering fabric under a reservation burst.
//!
//! A burst of reservations on the 3-domain chain over loopback daemons:
//! submit-to-completion latency and throughput, written to `BENCH_transport.json`. Beside the bucketed
//! p50/p99/p999 the table carries the histogram's raw min/mean/max,
//! which don't suffer bucket collapse. Then the same burst runs many
//! times, alternately with no admin plane and with the admin plane up
//! and one 10 Hz `/metrics` scraper running across the bursts, as a
//! monitoring system would, until the scraped bursts together span at
//! least [`MIN_SCRAPES`] scrapes; the median and quartiles of each
//! side's throughput are printed.
//!
//! These are measurements on whatever host runs them: nothing here
//! passes or fails on a rate. That the fabric never changes an admission
//! outcome is `tests/tests/fabric_parity.rs`.

use qos_bench::{spawn_chain, table_header, table_row, write_metrics_snapshot};
use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_telemetry::{Artifact, Registry, Row, Telemetry};
use qos_transport::TcpMesh;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MBPS: u64 = 1_000_000;
/// Burst size. Each request reserves 1 Mb/s against a 1000 Mb/s SLA, so
/// the whole burst admits.
const REQUESTS: u64 = 512;
/// The scraper's period (10 Hz).
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// The admin-overhead comparison runs until the scraped bursts together
/// last this many scraper periods, and at least [`MIN_PAIRS`] pairs.
const MIN_SCRAPES: u32 = 20;
const MIN_PAIRS: usize = 8;

/// One `/metrics` scraper at 10 Hz of whatever daemons `targets` names,
/// running across bursts.
#[derive(Default)]
struct Scraper {
    targets: Mutex<Vec<SocketAddr>>,
    /// A burst is being timed.
    timing: AtomicBool,
    /// Scrape rounds that started while a burst was timed.
    landed: AtomicU64,
    stop: AtomicBool,
}

impl Scraper {
    fn run(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            let targets = self.targets.lock().expect("targets").clone();
            if !targets.is_empty() && self.timing.load(Ordering::SeqCst) {
                self.landed.fetch_add(1, Ordering::SeqCst);
            }
            for a in targets {
                let _ = admin_get(a, "/metrics");
            }
            std::thread::sleep(SCRAPE_EVERY);
        }
    }
}

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

/// One burst of [`REQUESTS`], its instruments in `registry`. With a
/// `scraper`, every daemon hosts its admin plane and the scraper hits
/// `/metrics` on all of them while the mesh is up. Returns (wall
/// seconds, requests granted).
fn burst(scraper: Option<&Scraper>, registry: &Arc<Registry>) -> (f64, usize) {
    let admin = scraper.is_some();
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

    if let Some(scraper) = scraper {
        let addrs: Vec<SocketAddr> = domains.iter().filter_map(|d| mesh.admin_addr(d)).collect();
        // One synchronous scrape up front so every route (and its
        // lazily-resolved counter family) is exercised before timing.
        for &a in &addrs {
            assert_eq!(admin_get(a, "/metrics"), Some(200), "admin warm-up scrape");
        }
        *scraper.targets.lock().expect("targets") = addrs;
        scraper.timing.store(true, Ordering::SeqCst);
    }

    let t0 = Instant::now();
    mesh.submit_all("domain-a", requests);
    let completions = mesh.wait_completions(REQUESTS as usize);
    let secs = t0.elapsed().as_secs_f64();
    if let Some(scraper) = scraper {
        scraper.timing.store(false, Ordering::SeqCst);
        scraper.targets.lock().expect("targets").clear();
    }
    mesh.shutdown();
    let granted = completions
        .iter()
        .filter(|(_, c)| matches!(c, Completion::Reservation { result: Ok(_), .. }))
        .count();
    (secs, granted)
}

/// The 25th, 50th and 75th percentiles of `v` (nearest rank).
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| v[(v.len() - 1) * q / 4])
}

fn main() {
    println!("EXP-TCP: the TCP peering fabric under a reservation burst\n");
    let mut artifact = Artifact::new(
        "exp_transport_loopback",
        "mixed (ms; req/s; us)",
        "a burst of reservations over loopback TCP daemons; then alternated bursts \
         without and with the admin plane and one 10 Hz /metrics scraper running across \
         them, until the scraped bursts span 20 scraper periods (median and quartiles \
         of each side); wall-clock submit-to-completion on an otherwise idle host, \
         measured and not gated",
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
    let (secs, granted) = burst(None, &registry);
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

    // What observation costs: alternated bursts without and with the
    // admin plane and its scraper, until the scraped ones span
    // `MIN_SCRAPES` scraper periods.
    let scraper = Scraper::default();
    // Throughput of each burst without, and with, the scraper.
    let mut sides: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    std::thread::scope(|s| {
        s.spawn(|| scraper.run());
        let (mut scraped_secs, span) = (0.0, (SCRAPE_EVERY * MIN_SCRAPES).as_secs_f64());
        while sides[0].len() < MIN_PAIRS || scraped_secs < span {
            // Which side goes first alternates.
            let first = sides[0].len() % 2;
            for side in [first, 1 - first] {
                let secs = burst((side == 1).then_some(&scraper), &Registry::new()).0;
                scraped_secs += secs * side as f64;
                sides[side].push(REQUESTS as f64 / secs);
            }
        }
        scraper.stop.store(true, Ordering::SeqCst);
    });
    let (landed, bursts) = (scraper.landed.load(Ordering::SeqCst), sides[0].len());
    println!(
        "\nadmin-plane overhead ({bursts} alternated bursts a side; a 10 Hz /metrics\n\
         scraper running across the scraped ones; {landed} scrapes started\n\
         while one was timed):"
    );
    let q = sides.map(quartiles);
    let overhead_pct = (q[0][1] - q[1][1]) / q[0][1] * 100.0;
    let widths = [26, 10, 10, 10];
    table_header(
        &["configuration", "p25 req/s", "p50 req/s", "p75 req/s"],
        &widths,
    );
    let mut row = Row::new()
        .field("section", "admin_overhead")
        .field("bursts_per_side", bursts as u64)
        .field("scrapes_in_bursts", landed);
    let names = [
        ("no admin plane", "base"),
        ("admin + 10 Hz scraper", "scraped"),
    ];
    for ((name, key), q) in names.into_iter().zip(q) {
        let mut cells = vec![name.to_string()];
        cells.extend(q.map(|v| format!("{v:.0}")));
        table_row(&cells, &widths);
        for (p, v) in ["p25", "p50", "p75"].into_iter().zip(q) {
            row = row.field(&format!("{key}_req_per_sec_{p}"), v);
        }
    }
    println!("the scraper's cost, median against median: {overhead_pct:.1} %");
    artifact.push(row.field("overhead_pct", overhead_pct));

    match artifact.write("BENCH_transport.json") {
        Ok(()) => println!("\nwrote BENCH_transport.json"),
        Err(e) => eprintln!("\nwarning: could not write BENCH_transport.json: {e}"),
    }
    write_metrics_snapshot("transport_loopback", &registry);
    println!(
        "\nexpected: every request granted. A burst lasts a few tens of ms, so a\n\
         10 Hz scraper lands in only some of the scraped bursts, and the\n\
         two medians differ by less than either side's quartile spread:\n\
         on a 2-vCPU host the scraper's cost is below what these bursts\n\
         resolve (the spread is the host's, about ±10 %)."
    );
}
