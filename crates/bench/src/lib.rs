//! Shared support for the experiment binaries.
//!
//! Each binary either regenerates one figure or claim of the paper
//! (DESIGN.md §7 maps them) or is a gate CI runs; the `table` helpers
//! print aligned rows that EXPERIMENTS.md records verbatim, and
//! [`record`] appends a run to its `BENCH_*.json` history.

pub mod alloc_count;
pub mod workload;

use qos_core::channel::ChannelIdentity;
use qos_core::drive::Mesh;
use qos_core::scenario::Scenario;
use qos_crypto::KeyPair;
use qos_net::SimDuration;
use qos_telemetry::{render_prometheus, snapshot_json, Artifact, Registry, Row, Telemetry};
use qos_transport::TcpMesh;
use std::process::Command;
use std::sync::Arc;

/// One registry per experiment run, plus the [`Telemetry`] handle that
/// routes broker instruments into it.
pub fn experiment_registry() -> (Arc<Registry>, Telemetry) {
    let registry = Registry::new();
    let telemetry = Telemetry::with_registry(registry.clone());
    (registry, telemetry)
}

/// Route every broker in `scenario` into `telemetry` (counters,
/// histograms, PDP and admission instruments).
pub fn install_telemetry(scenario: &mut Scenario, telemetry: &Telemetry) {
    for node in &mut scenario.nodes {
        node.install_telemetry(telemetry.clone());
    }
}

/// Write the run's metrics in both exposition formats:
/// `METRICS_<experiment>.prom` (Prometheus text) and
/// `METRICS_<experiment>.json` (structured snapshot with percentiles).
/// CI uploads these as artifacts next to the benchmark JSON.
pub fn write_metrics_snapshot(experiment: &str, registry: &Registry) {
    let prom_path = format!("METRICS_{experiment}.prom");
    let json_path = format!("METRICS_{experiment}.json");
    if let Err(e) = std::fs::write(&prom_path, render_prometheus(registry)) {
        eprintln!("warning: could not write {prom_path}: {e}");
        return;
    }
    if let Err(e) = std::fs::write(&json_path, snapshot_json(registry)) {
        eprintln!("warning: could not write {json_path}: {e}");
        return;
    }
    println!("wrote {prom_path} + {json_path}");
}

/// Append `artifact` to the history at `path` as one JSON line, stamped
/// with where and when it ran: the CPU model and count, the git sha this
/// binary was built from (`-dirty` with uncommitted changes, `unknown`
/// outside a checkout), the UTC date, and `config`, the run's fixed
/// configuration.
pub fn record(path: &str, artifact: &Artifact, config: Row) {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let src = env!("CARGO_MANIFEST_DIR");
    let mut sha = first_line_of("git", &["-C", src, "rev-parse", "HEAD"]);
    let dirty = first_line_of("git", &["-C", src, "status", "--porcelain", "-uno"]);
    if sha != "unknown" && !dirty.is_empty() {
        sha.push_str("-dirty");
    }
    let date = first_line_of("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]);
    let stamp = Row::new()
        .field("host_cpu_model", cpu_model)
        .field("host_cpus", cpus)
        .field("sha", sha)
        .field("date", date)
        .field("config", config);
    match artifact.append(path, &stamp) {
        Ok(()) => println!("appended this run to {path}"),
        Err(e) => eprintln!("warning: could not append to {path}: {e}"),
    }
}

/// The first line `cmd args` prints (empty if it prints nothing), or
/// `unknown` if it cannot run or fails.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown".to_string(),
            |s| s.lines().next().unwrap_or("").to_string(),
        )
}

/// Move a scenario's brokers into a mesh with uniform hop latency.
pub fn mesh_from(scenario: &mut Scenario, hop_latency_ms: u64) -> Mesh {
    let mut mesh = Mesh::new();
    let domains = scenario.domains.clone();
    for node in scenario.nodes.drain(..) {
        mesh.add_node(node);
    }
    for w in domains.windows(2) {
        mesh.set_latency(&w[0], &w[1], SimDuration::from_millis(hop_latency_ms));
    }
    mesh
}

/// Move a chain scenario's brokers onto `mesh` (telemetry and
/// admin plane already set) as loopback daemons, each link dialled by
/// its upstream end, each daemon holding the identity its broker was
/// built with.
pub fn spawn_chain(scenario: &mut Scenario, mut mesh: TcpMesh) -> TcpMesh {
    let identities = scenario
        .nodes
        .iter()
        .map(|n| {
            let key = KeyPair::from_seed(format!("bb-{}", n.domain()).as_bytes());
            let cert = n.cert().clone();
            (n.domain().to_string(), ChannelIdentity { key, cert })
        })
        .collect();
    let links: Vec<(String, String)> = scenario
        .domains
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect();
    let nodes = std::mem::take(&mut scenario.nodes);
    mesh.spawn(nodes, identities, &links, scenario.ca_key)
        .expect("loopback mesh comes up");
    mesh
}

/// Print a header row followed by a separator.
pub fn table_header(cols: &[&str], widths: &[usize]) {
    let row: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", row.join("  "));
    println!("{}", "-".repeat(row.join("  ").len()));
}

/// Print one aligned data row.
pub fn table_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", row.join("  "));
}

/// Megabits-per-second pretty printer.
pub fn mbps(bps: u64) -> String {
    format!("{:.1}", bps as f64 / 1e6)
}

/// Percentage pretty printer.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
