//! Metric definitions, the result line the driver reads, the result
//! record written per run, and reading counters out of a registry.

use crate::gen;
use crate::host;
use qos_telemetry::{json_escape, render_prometheus, Registry};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How long one run measures, in seconds (`run_seconds` in
/// `BENCHMARK.json`); identical on every commit.
pub const RUN_SECONDS: u64 = 25;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

impl MetricDef {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn better_word(&self) -> &'static str {
        match self.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

const LOWER: Better = Better::Lower;
const HIGHER: Better = Better::Higher;

/// What a user of the broker chain sees. Every workload reports every
/// one; each is the median over the run's rounds of the per-round
/// statistic, except `peak_rss_mb`. The timed ones carry the widest bound
/// the contract allows: on the shared host this was built on, their
/// quartile spread over ten runs is 0.02-0.09 in a quiet hour and up to
/// 0.20 when the host changes speed within the ten (see the README).
/// Request latency is not among them: in the closed loops `ops_per_s`
/// says the same, and in the open loop it follows the host, not the code
/// (`bench.latency_p50_us` reports it).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", LOWER, 0.25),
    e2e("ops_per_s", "1/s", HIGHER, 0.25),
    e2e("cpu_us_per_op", "us", LOWER, 0.25),
    e2e("peak_rss_mb", "MiB", LOWER, 0.15),
];

/// Single-layer numbers from the traced run: timed probes (`*_ns`,
/// `*_us`, `*_ms`), counter deltas per op, and ratios.
pub const PER_LAYER: [MetricDef; 54] = [
    layer("wire.encode_ns", "ns", LOWER),
    layer("wire.decode_ns", "ns", LOWER),
    layer("wire.decode_ref_ns", "ns", LOWER),
    layer("wire.msg_bytes", "B", LOWER),
    layer("wire.pool_fallbacks_per_op", "count", LOWER),
    layer("crypto.sign_ns", "ns", LOWER),
    layer("crypto.verify_ns", "ns", LOWER),
    layer("crypto.verify_batch_ns_per_sig", "ns", LOWER),
    layer("crypto.signs_per_op", "count", LOWER),
    layer("crypto.verifies_per_op", "count", LOWER),
    layer("crypto.vcache_hit_ratio", "ratio", HIGHER),
    layer("policy.decide_ns", "ns", LOWER),
    layer("policy.cache_hit_ratio", "ratio", HIGHER),
    layer("broker.hold_ns_empty", "ns", LOWER),
    layer("broker.hold_ns_standing4k", "ns", LOWER),
    layer("broker.commit_ns", "ns", LOWER),
    layer("broker.release_ns", "ns", LOWER),
    layer("broker.holds_refused_frac", "ratio", LOWER),
    layer("storage.append_ns", "ns", LOWER),
    layer("storage.flush_ms", "ms", LOWER),
    layer("storage.records_per_op", "count", LOWER),
    layer("storage.bytes_per_op", "B", LOWER),
    layer("storage.fsyncs_per_op", "count", LOWER),
    layer("core.wrap_ns", "ns", LOWER),
    layer("core.verify_rar_ns", "ns", LOWER),
    layer("core.seal_ns", "ns", LOWER),
    layer("core.open_ns", "ns", LOWER),
    layer("core.node_submit_ns", "ns", LOWER),
    layer("core.node_recv_request_ns", "ns", LOWER),
    layer("core.node_recv_reply_ns", "ns", LOWER),
    layer("core.flow_admit_ns", "ns", LOWER),
    layer("core.handshake_us", "us", LOWER),
    layer("core.shard_queue_wait_ns", "ns", LOWER),
    layer("core.shard_busy_frac", "ratio", LOWER),
    layer("core.trip_compute_us", "us", LOWER),
    layer("transport.frame_roundtrip_ns", "ns", LOWER),
    layer("transport.session_setup_ms", "ms", LOWER),
    layer("transport.frames_per_op", "count", LOWER),
    layer("transport.bytes_per_op", "B", LOWER),
    layer("transport.write_batch_frames", "count", HIGHER),
    layer("transport.reactor_wakeups_per_op", "count", LOWER),
    layer("transport.retransmits_per_op", "count", LOWER),
    layer("transport.fabric_residual_us", "us", LOWER),
    layer("bench.gen_late_p99_us", "us", LOWER),
    layer("bench.trace_overhead_frac", "ratio", LOWER),
    layer("bench.late_frac", "ratio", LOWER),
    layer("bench.deny_latency_p50_us", "us", LOWER),
    layer("bench.latency_p50_us", "us", LOWER),
    layer("bench.latency_p99_us", "us", LOWER),
    layer("bench.latency_p50_us_r2000", "us", LOWER),
    layer("bench.latency_p99_us_r2000", "us", LOWER),
    layer("bench.failed_frac", "ratio", LOWER),
    layer("bench.rounds", "count", HIGHER),
    layer("bench.samples_per_round", "count", HIGHER),
];

/// The contents of `BENCHMARK.json`: the command, the benchmark's
/// directory, the run length, and the workload and metric tables above.
/// `qosbench definition` prints it; `qosbench check` compares the file
/// at the repository root against it.
pub fn definition() -> String {
    const DIR: &str = "qosbench";
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"{DIR}/Cargo.toml\", \"--\"],"
    );
    let _ = writeln!(s, "  \"paths\": [\"{DIR}\"],");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let _ = writeln!(
        s,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            gen::gated()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        )
    );
    let metric = |d: &MetricDef, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {:?}", d.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better_word()
        )
    };
    let _ = writeln!(
        s,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(END_TO_END.iter().map(|d| metric(d, true)).collect())
    );
    let _ = writeln!(
        s,
        "  \"per_layer\": [\n{}\n  ]",
        rows(PER_LAYER.iter().map(|d| metric(d, false)).collect())
    );
    s.push_str("}\n");
    s
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// sorted. `qosbench check` compares this package's against the
/// repository root's: a package outside the workspace cannot inherit the
/// profile, and the product must be measured as it ships.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// A run's measured values, by metric name.
pub type Values = Vec<(&'static str, f64)>;

pub fn value_of(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The one-line JSON object the driver reads from the last line of
/// standard output: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: usize, failed: usize) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, d) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = finite(value_of(values, d.name));
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    s
}

/// Read `(name, value)` pairs back out of a [`result_line`], plus its
/// `failed` count. Only has to understand this program's own output.
pub fn parse_result_line(line: &str) -> Option<(Vec<(String, f64)>, u64)> {
    let failed = line
        .split("\"failed\": ")
        .nth(1)?
        .split(',')
        .next()?
        .trim()
        .parse()
        .ok()?;
    let mut rest = line.split("\"metrics\": {").nth(1)?;
    let mut out = Vec::new();
    const VALUE: &str = "\": {\"value\": ";
    while let Some(at) = rest.find(VALUE) {
        let name = rest[..at].rsplit('"').next()?;
        let after = &rest[at + VALUE.len()..];
        let value: f64 = after.split(',').next()?.trim().parse().ok()?;
        out.push((name.to_string(), value));
        rest = after;
    }
    (!out.is_empty()).then_some((out, failed))
}

/// Where run artefacts go: under the build's target directory, inside
/// the checkout the benchmark runs from.
pub fn output_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = Path::new(&target).join("qosbench");
    std::fs::create_dir_all(&dir).expect("target directory inside the checkout is writable");
    dir
}

/// Facts about one run that go into its record.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub pinned: bool,
    pub rounds: usize,
    pub samples_per_round: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Per-round statistics, one JSON object per round, for whoever
    /// wants the distribution behind the reported medians.
    pub round_rows: Vec<String>,
}

/// Write `result_<workload>.json` (`trace_result_…` for traced runs).
pub fn write_record(info: &RunInfo<'_>, defs: &[MetricDef], values: &Values) -> PathBuf {
    let (model, rustc, git) = host::describe();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", info.workload);
    let _ = writeln!(s, "  \"traced\": {},", info.traced);
    let _ = writeln!(s, "  \"seed\": {},", info.seed);
    let _ = writeln!(s, "  \"seconds\": {},", info.seconds);
    let _ = writeln!(s, "  \"rounds\": {},", info.rounds);
    let _ = writeln!(s, "  \"samples_per_round\": {},", info.samples_per_round);
    let _ = writeln!(s, "  \"attempted\": {},", info.attempted);
    let _ = writeln!(s, "  \"failed\": {},", info.failed);
    let _ = writeln!(s, "  \"pinned_to_one_cpu\": {},", info.pinned);
    let _ = writeln!(s, "  \"host_cpu_model\": \"{}\",", json_escape(&model));
    let _ = writeln!(s, "  \"host_cpus\": {},", host::cpus());
    let _ = writeln!(s, "  \"rustc\": \"{}\",", json_escape(&rustc));
    let _ = writeln!(s, "  \"git_sha\": \"{}\",", json_escape(&git));
    let _ = writeln!(
        s,
        "  \"link\": \"host loopback (127.0.0.1), not a real link: no wire latency, loss or bandwidth limit\","
    );
    s.push_str("  \"metrics\": [\n");
    for (i, d) in defs.iter().enumerate() {
        let sep = if i + 1 == defs.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {:?}}}{sep}",
            d.name,
            d.unit,
            finite(value_of(values, d.name))
        );
    }
    s.push_str("  ],\n  \"by_round\": [\n");
    for (i, row) in info.round_rows.iter().enumerate() {
        let sep = if i + 1 == info.round_rows.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(s, "    {row}{sep}");
    }
    s.push_str("  ]\n}\n");
    let prefix = if info.traced {
        "trace_result"
    } else {
        "result"
    };
    let path = output_dir().join(format!("{prefix}_{}.json", info.workload));
    if let Err(e) = std::fs::write(&path, s) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// Counter and histogram totals of one or more registries, read through
/// the Prometheus text exposition so every label set is included.
#[derive(Default)]
pub struct Counters {
    text: String,
}

impl Counters {
    pub fn absorb(&mut self, registry: &Registry) {
        self.text.push_str(&render_prometheus(registry));
    }

    /// Sum of every series of `family` whose label set contains
    /// `label` (e.g. `cache="pdp"`; empty matches all). Histograms are
    /// read as `<family>_sum` and `<family>_count`.
    pub fn sum(&self, family: &str, label: &str) -> f64 {
        sum_series(&self.text, family, label)
    }

    /// Mean observation of histogram `family`.
    pub fn mean(&self, family: &str) -> f64 {
        let count = self.sum(&format!("{family}_count"), "");
        if count == 0.0 {
            return 0.0;
        }
        self.sum(&format!("{family}_sum"), "") / count
    }
}

fn sum_series(text: &str, family: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            (name == family && series.contains(label))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_has_exactly_the_contract_keys() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, 1.5 + i as f64))
            .collect();
        let line = result_line(&END_TO_END, &values, 1024, 0);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 1024, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"
        ));
        assert!(!line.contains('\n'));
        let (parsed, failed) = parse_result_line(&line).expect("own output parses");
        assert_eq!(failed, 0);
        assert_eq!(parsed.len(), END_TO_END.len());
        for ((name, value), (n, v)) in parsed.iter().zip(&values) {
            assert_eq!((name.as_str(), *value), (*n, *v));
        }
    }

    #[test]
    fn failures_make_the_run_incorrect_and_nan_never_reaches_the_line() {
        let line = result_line(&END_TO_END[..1], &vec![("setup_s", f64::NAN)], 0, 3);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 1, \"failed\": 3, \"metrics\": {\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_names_and_units_fit_the_schema() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(ok_name(d.name) && ok_unit(d.unit), "{}", d.name);
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn release_profile_reads_one_table_whatever_its_layout() {
        let root = "[profile.bench]\ndebug = 1\n\n[profile.release]\ncodegen-units = 1\n# why\nlto = \"thin\"\n";
        let own =
            "[workspace]\n[profile.release]\nlto=\"thin\"\ncodegen-units   = 1\n\n[other]\nx = 1\n";
        assert_eq!(release_profile(root), ["codegen-units=1", "lto=\"thin\""]);
        assert_eq!(release_profile(root), release_profile(own));
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn counters_sum_across_label_sets_and_filter_by_label() {
        let text = "# TYPE cache_hits_total counter\n\
                    cache_hits_total{cache=\"pdp\",domain=\"domain-a\"} 4\n\
                    cache_hits_total{cache=\"pdp\",domain=\"domain-b\"} 2\n\
                    cache_hits_total{cache=\"verify\"} 489\n\
                    bb_queue_wait_ns_sum{domain=\"domain-a\"} 300\n\
                    bb_queue_wait_ns_count{domain=\"domain-a\"} 3\n";
        let c = Counters {
            text: text.to_string(),
        };
        assert_eq!(c.sum("cache_hits_total", "cache=\"pdp\""), 6.0);
        assert_eq!(c.sum("cache_hits_total", ""), 495.0);
        assert_eq!(c.mean("bb_queue_wait_ns"), 100.0);
        assert_eq!(c.mean("absent"), 0.0);
    }
}
