//! Shared support for the experiment binaries.
//!
//! Each binary either regenerates one figure or claim of the paper
//! (DESIGN.md §7 maps them) or is a gate CI runs; the `table` helpers
//! print aligned rows that EXPERIMENTS.md records verbatim, and
//! [`record`] appends a run to its `BENCH_*.json` history.

pub mod alloc_count;
pub mod workload;

use qos_telemetry::{render_prometheus, snapshot_json, Artifact, Registry, Row, Telemetry};
use std::process::Command;
use std::sync::Arc;

/// One registry per experiment run, plus the [`Telemetry`] handle that
/// routes broker instruments into it.
pub fn experiment_registry() -> (Arc<Registry>, Telemetry) {
    let registry = Registry::new();
    let telemetry = Telemetry::with_registry(registry.clone());
    (registry, telemetry)
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
