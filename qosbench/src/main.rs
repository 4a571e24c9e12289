//! `qosbench` — one benchmark for the broker chain: reservation latency,
//! saturation throughput and the per-layer budget (see `README.md` in
//! this directory and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! qosbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! qosbench run --all | run <workload>   [--seed n] [--seconds s]
//! qosbench trace <workload>             [--seed n] [--seconds s]
//! qosbench repeat --sets <n>            [--seconds s]
//! qosbench check
//! qosbench definition                   # prints BENCHMARK.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload
//! in this process, every metric printed by name and unit, outcomes
//! verified, and one JSON object as the last line of standard output.

mod drive;
mod gen;
mod host;
mod probes;
mod replay;
mod report;
mod stats;
mod world;

use drive::{run_round, Round, ROUND_STATS};
use gen::{Workload, WORKLOADS};
use qos_telemetry::{Registry, Telemetry};
use report::{Counters, MetricDef, RunInfo, Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{median, median_of_rounds, percentile};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// A run keeps starting rounds while the longest round so far still
/// fits in what is left of its seconds — but never stops below this
/// many, so every median is over at least eight rounds (four at either
/// rate of the open loop).
const MIN_ROUNDS: usize = 8;

/// Which of the open loop's two offered rates a value is read at. A
/// median over both would sit between two regimes. Closed loops offer no
/// rate, so either choice is all of their rounds.
#[derive(Clone, Copy)]
enum Rate {
    Low,
    High,
}

fn at_rate(rounds: &[Round], rate: Rate) -> impl Iterator<Item = &Round> {
    let offered = rounds.iter().map(|r| r.offered_per_s);
    let wanted = match rate {
        Rate::Low => offered.fold(f64::MAX, f64::min),
        Rate::High => offered.fold(f64::MIN, f64::max),
    };
    rounds.iter().filter(move |r| r.offered_per_s == wanted)
}

struct Budget {
    start: Instant,
    seconds: f64,
    longest_round_s: f64,
}

impl Budget {
    fn new(seconds: u64) -> Self {
        Budget {
            start: Instant::now(),
            seconds: seconds as f64,
            longest_round_s: 0.0,
        }
    }

    /// Run `f` as one round and remember how long rounds take.
    fn round<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.longest_round_s = self.longest_round_s.max(t.elapsed().as_secs_f64());
        out
    }

    fn room_for_another(&self) -> bool {
        self.start.elapsed().as_secs_f64() + 1.1 * self.longest_round_s < self.seconds
    }
}

fn scratch_dir() -> PathBuf {
    let dir = report::output_dir().join("tmp");
    std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout is writable");
    dir
}

fn print_violations(rounds: &[Round]) {
    for (i, r) in rounds.iter().enumerate() {
        for v in &r.violations {
            println!("VIOLATION round {i}: {v}");
        }
    }
}

fn print_values(defs: &[MetricDef], values: &Values) {
    for d in defs {
        println!(
            "  {:<34} {:>16.4} {}",
            d.name,
            report::value_of(values, d.name),
            d.unit
        );
    }
}

/// The measured run: rounds over the loopback mesh with telemetry off.
fn measure(w: &Workload, seed: u64, seconds: u64) -> ExitCode {
    let pinned = w.pinned && host::pin_to_one_cpu().is_some();
    let scratch = scratch_dir();
    let mut budget = Budget::new(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while rounds.len() < MIN_ROUNDS || budget.room_for_another() {
        let n = rounds.len() as u64;
        rounds.push(budget.round(|| {
            run_round(
                w,
                w.ops_per_round,
                seed,
                n,
                &Telemetry::disabled(),
                &scratch,
            )
        }));
        // Memory is read after the first round, a fixed amount of work:
        // it keeps growing with the rounds a run completes (the heap
        // fragments across the threads of each new mesh, by 1 to 5 MiB a
        // round depending on timing), and a faster commit completes more.
        if rounds.len() == 1 {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    // `ops_per_s` is read at the open loop's higher rate — at the lower
    // one it only echoes what was offered — and everything else at the
    // lower.
    let mut values: Values = ROUND_STATS
        .iter()
        .map(|(name, pick)| {
            let rate = if *name == "ops_per_s" {
                Rate::High
            } else {
                Rate::Low
            };
            (*name, median_of_rounds(at_rate(&rounds, rate), pick))
        })
        .collect();
    values.push(("peak_rss_mb", peak_rss_mb));
    let attempted: usize = rounds.iter().map(|r| r.attempted).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();

    println!(
        "{}: {} rounds of {} ops in {:.1} s, seed {seed}, {} CPU(s){}, loopback TCP",
        w.name,
        rounds.len(),
        w.ops_per_round,
        budget.start.elapsed().as_secs_f64(),
        host::cpus(),
        if pinned { ", pinned to one" } else { "" },
    );
    print_values(&END_TO_END, &values);
    println!("  not gated (they follow the host more than the code, or are normally 0):");
    for (name, unit, rate, pick) in UNGATED {
        println!(
            "  {name:<34} {:>16.4} {unit}",
            median_of_rounds(at_rate(&rounds, rate), pick)
        );
    }
    println!(
        "  failed_frac {:.6} ({failed} of {attempted}); latency percentiles over {} samples per round",
        failed as f64 / attempted.max(1) as f64,
        w.ops_per_round
    );
    print_violations(&rounds);
    let record = report::write_record(
        &RunInfo {
            workload: w.name,
            seed,
            seconds,
            traced: false,
            pinned,
            rounds: rounds.len(),
            samples_per_round: w.ops_per_round,
            attempted,
            failed,
            round_rows: rounds.iter().map(Round::json_row).collect(),
        },
        &END_TO_END,
        &values,
    );
    println!("wrote {}", record.display());
    println!(
        "{}",
        report::result_line(&END_TO_END, &values, attempted, failed)
    );
    exit_code(failed == 0)
}

/// Per-round statistics every run prints but no bound gates; the traced
/// run reports them as `bench.*` metrics.
const UNGATED: [(&str, &str, Rate, drive::RoundStat); 7] = [
    ("bench.latency_p50_us", "us", Rate::Low, |r| r.p(0.50)),
    ("bench.latency_p99_us", "us", Rate::Low, |r| r.p(0.99)),
    ("bench.latency_p50_us_r2000", "us", Rate::High, |r| {
        r.p(0.50)
    }),
    ("bench.latency_p99_us_r2000", "us", Rate::High, |r| {
        r.p(0.99)
    }),
    ("bench.deny_latency_p50_us", "us", Rate::Low, |r| {
        percentile(&r.deny_latency_us, 0.50)
    }),
    ("bench.late_frac", "ratio", Rate::Low, Round::late_frac),
    ("bench.gen_late_p99_us", "us", Rate::High, |r| {
        percentile(&r.gen_late_us, 0.99)
    }),
];

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replay one round's stream in-process with spans on; print the trace
/// table. Returns the replay's per-layer values (`core.node_*_ns`,
/// `core.trip_compute_us`) and the violations it found.
fn traced_replay(
    w: &Workload,
    ops: usize,
    seed: u64,
    scratch: &std::path::Path,
    tsv: Option<PathBuf>,
) -> (Values, Vec<String>) {
    let plan = gen::plan(w, ops, seed, 0);
    let mut world = world::World::build(w, &plan, &Telemetry::disabled(), scratch);
    let mut walker = replay::Walker::new(&mut world);
    let mut rec = replay::Recorder::with_capacity(ops * (2 + 8 * 2 * (w.domains - 1)));
    let outcomes = walker.replay(&world, &plan, &mut rec, None);
    let nodes = walker.into_nodes();
    let violations = world.verify(&plan, &outcomes, &nodes);
    drop(nodes);

    let totals = replay::totals_by_name(&rec.spans);
    let by_layer = replay::self_ns_by_layer(&rec.spans);
    let compute_ns: u64 = by_layer.values().sum();
    let trip_us = compute_ns as f64 / 1e3 / ops.max(1) as f64;
    println!(
        "in-process replay of {ops} ops ({} spans):",
        rec.spans.len()
    );
    println!(
        "  {:<28} {:>9} {:>12} {:>12} {:>7}",
        "span", "per op", "mean ns", "self ns/op", "share"
    );
    for (name, t) in &totals {
        println!(
            "  {:<28} {:>9.2} {:>12.0} {:>12.0} {:>6.1}%",
            name,
            t.count as f64 / ops as f64,
            t.mean_ns(),
            t.self_ns as f64 / ops as f64,
            if name.starts_with("bench.") {
                0.0
            } else {
                100.0 * t.self_ns as f64 / compute_ns.max(1) as f64
            }
        );
    }
    let mut layers: Vec<(&str, u64)> = by_layer.into_iter().collect();
    layers.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    for (layer, ns) in &layers {
        println!(
            "  layer {:<22} {:>9.1} us/op {:>6.1}%",
            layer,
            *ns as f64 / 1e3 / ops as f64,
            100.0 * *ns as f64 / compute_ns.max(1) as f64
        );
    }
    if let Some((top, _)) = layers.first() {
        println!("  core.trip_compute_us = {trip_us:.1}; top layer: {top}");
    }
    if let Some(path) = tsv {
        match rec.write_tsv(&path) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    let spans: Values = vec![
        ("core.node_submit_ns", mean("core.node_submit")),
        ("core.node_recv_request_ns", mean("core.node_recv_request")),
        ("core.node_recv_reply_ns", mean("core.node_recv_reply")),
        ("core.trip_compute_us", trip_us),
    ];
    (spans, violations)
}

/// The traced run: timed probes and the in-process replay on one pinned
/// thread, then the TCP workload alternating telemetry off and on.
fn trace(w: &Workload, seed: u64, seconds: u64) -> ExitCode {
    let mut budget = Budget::new(seconds);
    let scratch = scratch_dir();
    let saved_affinity = host::pin_to_one_cpu();
    let pinned = saved_affinity.is_some();
    let mut values = probes::run(w, seed, &scratch);
    let tsv = report::output_dir().join(format!("trace_{}.tsv", w.name));
    let (spans, mut violations) = traced_replay(w, w.ops_per_round, seed, &scratch, Some(tsv));
    values.extend(spans);
    let trip_us = report::value_of(&values, "core.trip_compute_us");
    if let (false, Some(saved)) = (w.pinned, saved_affinity) {
        host::unpin(saved);
    }

    // The TCP workload, telemetry off and on in turn: the traced rounds
    // give the counters, the pair gives the cost of tracing.
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut counters = Counters::default();
    // Round numbers: 0, 1, 2, … for the plain rounds and the same plus
    // an even offset for the traced ones, so both kinds alternate the
    // open loop's two rates and no two rounds share a request stream.
    const TRACED_ROUNDS_FROM: u64 = 1 << 32;
    while traced.len() < 2 || budget.room_for_another() {
        if plain.len() <= traced.len() {
            let n = plain.len() as u64;
            plain.push(budget.round(|| {
                run_round(
                    w,
                    w.ops_per_round,
                    seed,
                    n,
                    &Telemetry::disabled(),
                    &scratch,
                )
            }));
        } else {
            let n = TRACED_ROUNDS_FROM + traced.len() as u64;
            let registry = Registry::new();
            let telemetry = Telemetry::with_registry(registry.clone());
            traced.push(
                budget.round(|| run_round(w, w.ops_per_round, seed, n, &telemetry, &scratch)),
            );
            counters.absorb(&registry);
        }
    }

    let ops: f64 = traced.iter().map(|r| r.latency_us.len() as f64).sum();
    let per_op = |x: f64| x / ops.max(1.0);
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let crypto = |i: usize| traced.iter().map(|r| r.crypto_ops[i] as f64).sum::<f64>();
    let store = |pick: fn(&Round) -> u64| traced.iter().map(|r| pick(r) as f64).sum::<f64>();
    let low = |rounds: &[Round], pick: drive::RoundStat| {
        median_of_rounds(at_rate(rounds, Rate::Low), pick)
    };
    let p50 = low(&plain, |r| r.p(0.50));
    let cpu_plain = low(&plain, Round::cpu_us_per_op);
    let cpu_traced = low(&traced, Round::cpu_us_per_op);
    let all = || plain.iter().chain(&traced);
    let pdp_hits = counters.sum("cache_hits_total", "cache=\"pdp\"");
    let pdp_misses = counters.sum("cache_misses_total", "cache=\"pdp\"");
    let busy = counters.sum("shard_busy_ns_total", "");
    let attempted: usize = all().map(|r| r.attempted).sum();
    let failed: usize = all().map(|r| r.failed).sum::<usize>() + violations.len();
    values.extend([
        (
            "wire.pool_fallbacks_per_op",
            per_op(counters.sum("buffer_pool_fallbacks_total", "")),
        ),
        ("crypto.signs_per_op", per_op(crypto(0))),
        ("crypto.verifies_per_op", per_op(crypto(1))),
        (
            "crypto.vcache_hit_ratio",
            ratio(crypto(2), crypto(2) + crypto(3)),
        ),
        (
            "policy.cache_hit_ratio",
            ratio(pdp_hits, pdp_hits + pdp_misses),
        ),
        (
            "broker.holds_refused_frac",
            ratio(
                counters.sum("broker_holds_total", "decision=\"refused\""),
                counters.sum("broker_holds_total", ""),
            ),
        ),
        ("storage.records_per_op", per_op(store(|r| r.store.appends))),
        ("storage.bytes_per_op", per_op(store(|r| r.store.bytes))),
        ("storage.fsyncs_per_op", per_op(store(|r| r.store.fsyncs))),
        (
            "core.shard_queue_wait_ns",
            counters.mean("bb_queue_wait_ns"),
        ),
        (
            "core.shard_busy_frac",
            ratio(busy, busy + counters.sum("shard_idle_ns_total", "")),
        ),
        (
            "transport.session_setup_ms",
            counters.mean("transport_handshake_ns") / 1e6,
        ),
        (
            "transport.frames_per_op",
            per_op(counters.sum("transport_frames_sent_total", "")),
        ),
        (
            "transport.bytes_per_op",
            per_op(counters.sum("transport_bytes_sent_total", "")),
        ),
        (
            "transport.write_batch_frames",
            counters.mean("transport_write_batch_frames"),
        ),
        (
            "transport.reactor_wakeups_per_op",
            per_op(counters.sum("reactor_wakeups_total", "")),
        ),
        (
            "transport.retransmits_per_op",
            per_op(counters.sum("transport_frames_retransmitted_total", "")),
        ),
        ("transport.fabric_residual_us", p50 - trip_us),
        (
            "bench.trace_overhead_frac",
            ratio(cpu_traced, cpu_plain) - 1.0,
        ),
        ("bench.failed_frac", failed as f64 / attempted.max(1) as f64),
        ("bench.rounds", (plain.len() + traced.len()) as f64),
        ("bench.samples_per_round", w.ops_per_round as f64),
    ]);
    values.extend(
        UNGATED
            .iter()
            .map(|(name, _, rate, pick)| (*name, median_of_rounds(at_rate(&plain, *rate), pick))),
    );

    println!(
        "{} traced: {} + {} TCP rounds (telemetry off + on) in {:.1} s, seed {seed}{}",
        w.name,
        plain.len(),
        traced.len(),
        budget.start.elapsed().as_secs_f64(),
        if pinned {
            ", probes and replay pinned to one CPU"
        } else {
            ""
        },
    );
    print_values(&PER_LAYER, &values);
    println!(
        "  core.trip_compute_us {trip_us:.1} + transport.fabric_residual_us {:.1} = latency p50 {p50:.1} us",
        p50 - trip_us
    );
    violations.truncate(8);
    for v in &violations {
        println!("VIOLATION replay: {v}");
    }
    print_violations(&plain);
    print_violations(&traced);
    let record = report::write_record(
        &RunInfo {
            workload: w.name,
            seed,
            seconds,
            traced: true,
            pinned: pinned && w.pinned,
            rounds: plain.len() + traced.len(),
            samples_per_round: w.ops_per_round,
            attempted,
            failed,
            round_rows: plain.iter().chain(&traced).map(Round::json_row).collect(),
        },
        &PER_LAYER,
        &values,
    );
    println!("wrote {}", record.display());
    println!(
        "{}",
        report::result_line(&PER_LAYER, &values, attempted, failed)
    );
    exit_code(failed == 0)
}

/// Run one workload in a child process (so peak RSS is its own) and
/// return its parsed result line.
fn child_run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    echo: bool,
) -> Option<(Vec<(String, f64)>, u64)> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last()?;
    if echo {
        for line in text.lines().filter(|l| *l != last) {
            println!("{line}");
        }
    }
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    report::parse_result_line(last)
}

fn run_all(seed: u64, seconds: u64) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        match child_run(w, seed, seconds, true) {
            Some((_, 0)) => {}
            Some((_, failed)) => {
                println!("{}: {failed} operations failed", w.name);
                ok = false;
            }
            None => {
                println!("{}: no result", w.name);
                ok = false;
            }
        }
        println!();
    }
    println!(
        "{}",
        if ok {
            "all workloads verified: failed_frac = 0, every ledger reconciles"
        } else {
            "FAILED"
        }
    );
    exit_code(ok)
}

/// `sets` full sets of runs of the workloads `BENCHMARK.json` lists, a
/// new seed and a rotated workload order each set; per metric and
/// workload the median, `max/min − 1`, the quartile spread as a share of
/// the median (what the driver accepts the benchmark on), and the bound. Fails when any two sets disagree on any
/// metric by more than its bound.
fn repeat(sets: u64, seconds: u64) -> ExitCode {
    let gated: Vec<&Workload> = gen::gated().collect();
    let mut seen: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; gated.len()];
    let mut ok = true;
    for set in 0..sets {
        for k in 0..gated.len() {
            let wi = (k + set as usize) % gated.len();
            let w = gated[wi];
            match child_run(w, set + 1, seconds, false) {
                Some((metrics, 0)) => {
                    for (mi, d) in END_TO_END.iter().enumerate() {
                        let v = metrics.iter().find(|(n, _)| n == d.name);
                        seen[wi][mi].push(v.map_or(0.0, |(_, v)| *v));
                    }
                    println!("set {} {}: done", set + 1, w.name);
                }
                other => {
                    println!("set {} {}: run failed ({other:?})", set + 1, w.name);
                    ok = false;
                }
            }
        }
    }
    println!(
        "\n{:<24} {:<16} {:>12} {:>10} {:>9} {:>7}",
        "workload", "metric", "median", "max/min-1", "iqr/med", "bound"
    );
    for (wi, w) in gated.iter().enumerate() {
        for (mi, d) in END_TO_END.iter().enumerate() {
            let v = &seen[wi][mi];
            let (iqr, range) = (stats::quartile_spread(v), stats::range_spread(v));
            let wide = range > d.bound;
            ok &= !wide;
            println!(
                "{:<24} {:<16} {:>12.4} {:>10.4} {:>9.4} {:>7.2}{}",
                w.name,
                d.name,
                median(v),
                range,
                iqr,
                d.bound,
                if wide { "  SPREAD EXCEEDS BOUND" } else { "" }
            );
        }
    }
    exit_code(ok)
}

/// Smoke run: one short round per workload over TCP, one short traced
/// replay and the timed probes, every verification on, no number gated.
fn check() -> ExitCode {
    let scratch = scratch_dir();
    let mut ok = true;
    for w in &WORKLOADS {
        let ops = match w.shape {
            gen::Shape::Closed { window } => (2 * window).clamp(32, 1024),
            gen::Shape::Open { .. } => 256,
        };
        let round = run_round(w, ops, 1, 0, &Telemetry::disabled(), &scratch);
        let (_, replay_violations) = traced_replay(w, ops.min(64), 1, &scratch, None);
        let probed = probes::run(w, 1, &scratch).len();
        let bad = round.failed + replay_violations.len();
        println!(
            "check {}: {ops} ops over TCP, {} replayed, {probed} probes, {bad} violations",
            w.name,
            ops.min(64)
        );
        print_violations(std::slice::from_ref(&round));
        for v in &replay_violations {
            println!("VIOLATION replay: {v}");
        }
        ok &= bad == 0;
    }
    // Run from the repository root: the definition file must say what
    // this binary reports, and this package must build the product crates
    // with the release profile they ship with.
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    if read("BENCHMARK.json") != report::definition() {
        println!("BENCHMARK.json is missing or differs from `qosbench definition`");
        ok = false;
    }
    let shipped = report::release_profile(&read("Cargo.toml"));
    if shipped.is_empty() || shipped != report::release_profile(&read("qosbench/Cargo.toml")) {
        println!("[profile.release] of qosbench/Cargo.toml differs from the root Cargo.toml's");
        ok = false;
    }
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    exit_code(ok)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} takes a whole number, got {v:?}")),
    }
}

fn named_workload(name: Option<&str>) -> Result<&'static Workload, String> {
    let known = || {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let name = name.ok_or_else(|| format!("name a workload: {}", known()))?;
    gen::workload(name).ok_or_else(|| format!("unknown workload {name:?}; known: {}", known()))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let seed = number(args, "--seed", 1)?;
    let seconds = number(args, "--seconds", RUN_SECONDS)?.max(1);
    match args.first().map(String::as_str) {
        Some("check") => Ok(check()),
        Some("definition") => {
            print!("{}", report::definition());
            Ok(ExitCode::SUCCESS)
        }
        Some("repeat") => Ok(repeat(number(args, "--sets", 2)?.max(2), seconds)),
        Some("run") if args.get(1).map(String::as_str) == Some("--all") => {
            Ok(run_all(seed, seconds))
        }
        Some("run") => Ok(measure(
            named_workload(args.get(1).map(String::as_str))?,
            seed,
            seconds,
        )),
        Some("trace") => Ok(trace(
            named_workload(args.get(1).map(String::as_str))?,
            seed,
            seconds,
        )),
        _ => {
            let w = named_workload(flag(args, "--workload"))?;
            match number(args, "--trace", 0)? {
                0 => Ok(measure(w, seed, seconds)),
                _ => Ok(trace(w, seed, seconds)),
            }
        }
    }
}

fn main() -> ExitCode {
    host::cpus();
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("qosbench: {e}");
        eprintln!(
            "usage: qosbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
             qosbench run --all | run <workload> | trace <workload> | repeat --sets <n> | check | definition"
        );
        ExitCode::from(2)
    })
}
