//! Running one round over the loopback mesh: set-up, the measured
//! closed or open loop, shutdown and verification.

use crate::gen::{plan, Op, Shape, Workload};
use crate::host;
use crate::stats::{percentile, sorted};
use crate::world::{Outcome, Request, World, MBPS};
use qos_storage::StoreStats;
use qos_telemetry::Telemetry;
use qos_transport::TcpMesh;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// An open-loop request counts as late when its answer is not back
/// within this long of the instant it was due.
const LATE_AFTER_US: f64 = 20_000.0;

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Round start to first measured submit: chain build, request
    /// signing, mesh spawn with handshakes, tunnel establishment.
    pub setup_s: f64,
    /// Wall time of the measured window.
    pub window_s: f64,
    /// Process CPU time over the measured window, all threads.
    pub cpu_ns: u64,
    pub attempted: usize,
    /// Ops whose outcome differs from the generator's intent or that
    /// never completed, plus ledger reconciliation failures.
    pub failed: usize,
    /// Sorted per-op latency of the ops that completed: from chunk
    /// submission (closed loop) or from the due instant (open loop).
    pub latency_us: Vec<f64>,
    /// Sorted latency of the ops built to be denied.
    pub deny_latency_us: Vec<f64>,
    /// Requests per second the open loop offered; 0 in a closed loop.
    pub offered_per_s: f64,
    /// Open loop: how long after its due instant each request was sent.
    pub gen_late_us: Vec<f64>,
    /// Ledger-store counters summed over the brokers.
    pub store: StoreStats,
    /// Schnorr operations and verify-cache lookups of the whole process
    /// over the measured window: `[signs, verifies, hits, misses]`.
    pub crypto_ops: [u64; 4],
    pub violations: Vec<String>,
}

pub type RoundStat = fn(&Round) -> f64;

/// The per-round statistic behind each end-to-end metric (all but
/// `peak_rss_mb`, which is a property of the process).
pub const ROUND_STATS: [(&str, RoundStat); 3] = [
    ("setup_s", |r| r.setup_s),
    ("ops_per_s", Round::ops_per_s),
    ("cpu_us_per_op", Round::cpu_us_per_op),
];

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.latency_us.len() as f64 / self.window_s
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.latency_us.len().max(1) as f64
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_us, q)
    }

    /// This round's statistics as one JSON object.
    pub fn json_row(&self) -> String {
        let mut row = String::from("{");
        for (name, pick) in ROUND_STATS {
            row.push_str(&format!("\"{name}\": {:?}, ", pick(self)));
        }
        row.push_str(&format!(
            "\"latency_p50_us\": {:?}, \"latency_p99_us\": {:?}, \"offered_per_s\": {:?}, \"window_s\": {:?}, \"failed\": {}}}",
            self.p(0.50),
            self.p(0.99),
            self.offered_per_s,
            self.window_s,
            self.failed
        ));
        row
    }

    /// Open loop: share of ops not answered within [`LATE_AFTER_US`] of
    /// their due instant, unanswered ones included. A closed loop has no
    /// due instants and reads 0.
    pub fn late_frac(&self) -> f64 {
        if self.offered_per_s == 0.0 {
            return 0.0;
        }
        let on_time = self
            .latency_us
            .iter()
            .take_while(|&&l| l <= LATE_AFTER_US)
            .count();
        1.0 - on_time as f64 / self.attempted.max(1) as f64
    }
}

/// Completion stamps of a round, by op index, in nanoseconds since the
/// measured window opened.
struct Collected {
    done_ns: Vec<Option<u64>>,
    outcomes: Vec<Option<Outcome>>,
}

impl Collected {
    fn new(n: usize) -> Self {
        Collected {
            done_ns: vec![None; n],
            outcomes: vec![None; n],
        }
    }

    /// Wait for up to `n` completions, stamping each as it arrives.
    /// Stops early when the mesh reports none for 30 s (its own
    /// timeout): the missing ops count as failed.
    fn collect(&mut self, mesh: &TcpMesh, index: &HashMap<u64, usize>, t0: Instant, n: usize) {
        for _ in 0..n {
            let Some((_, completion)) = mesh.wait_completions(1).pop() else {
                return;
            };
            let at = t0.elapsed().as_nanos() as u64;
            let (key, outcome) = Outcome::of(completion);
            if let Some(&i) = index.get(&key) {
                self.done_ns[i] = Some(at);
                self.outcomes[i] = Some(outcome);
            }
        }
    }
}

/// Offer `ops` at the source broker. Full reservations are moved out of
/// `requests`, the round's pre-signed stream, in order.
fn send(world: &World, mesh: &TcpMesh, requests: &mut std::vec::IntoIter<Request>, ops: &[Op]) {
    let source = &world.domains[0];
    match &world.tunnel {
        Some(t) => {
            for op in ops {
                mesh.tunnel_flow(source, t.id, op.flow, MBPS, t.requestor.clone());
            }
        }
        None if ops.len() == 1 => {
            let (rar, cert) = requests.next().expect("one request per op");
            mesh.submit(source, rar, cert);
        }
        None => mesh.submit_all(source, requests.take(ops.len()).collect()),
    }
}

/// Run round `round` of `w` with `ops` requests. `telemetry` is
/// disabled for measured runs and carries a registry for traced ones.
pub fn run_round(
    w: &Workload,
    ops: usize,
    seed: u64,
    round: u64,
    telemetry: &Telemetry,
    scratch: &Path,
) -> Round {
    let round_start = Instant::now();
    let plan = plan(w, ops, seed, round);
    let mut world = World::build(w, &plan, telemetry, scratch);
    let mesh = world.spawn_mesh(telemetry);
    if let Some(t) = &world.tunnel {
        let (rar, cert) = t.request.clone();
        mesh.submit(&world.domains[0], rar, cert);
        let done = mesh.wait_completions(1).pop().map(|(_, c)| Outcome::of(c));
        assert!(
            matches!(done, Some((_, Outcome::Granted(_)))),
            "tunnel establishment failed: {done:?}"
        );
    }
    let index: HashMap<u64, usize> = plan
        .iter()
        .enumerate()
        .map(|(i, op)| (if w.tunnel { op.flow } else { op.rar_id }, i))
        .collect();
    let mut requests = std::mem::take(&mut world.requests).into_iter();
    let mut got = Collected::new(plan.len());
    // Submission instant each op's latency is counted from, and how
    // late the open-loop generator sent it.
    let mut from_ns = vec![0u64; plan.len()];
    let mut gen_late_us = Vec::new();

    let crypto_ops = || {
        let (hits, misses, _) = qos_crypto::vcache::stats();
        [
            qos_crypto::schnorr::sign_ops(),
            qos_crypto::schnorr::verify_ops(),
            hits,
            misses,
        ]
    };
    // Standing reservations were journaled during set-up; the store
    // counters reported are the measured window's own.
    let store0 = world.store_stats();
    let setup_s = round_start.elapsed().as_secs_f64();
    let crypto0 = crypto_ops();
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    match w.shape {
        Shape::Closed { window } => {
            for (c, chunk) in plan.chunks(window).enumerate() {
                let at = t0.elapsed().as_nanos() as u64;
                from_ns[c * window..c * window + chunk.len()].fill(at);
                send(&world, &mesh, &mut requests, chunk);
                got.collect(&mesh, &index, t0, chunk.len());
            }
        }
        Shape::Open { .. } => {
            gen_late_us.reserve(plan.len());
            std::thread::scope(|s| {
                let collector = s.spawn(|| got.collect(&mesh, &index, t0, plan.len()));
                for (i, op) in plan.iter().enumerate() {
                    let due = Duration::from_nanos(op.due_ns);
                    if let Some(wait) = due.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let late = t0.elapsed().saturating_sub(due);
                    gen_late_us.push(late.as_nanos() as f64 / 1e3);
                    from_ns[i] = op.due_ns;
                    send(&world, &mesh, &mut requests, std::slice::from_ref(op));
                }
                collector.join().expect("collector thread");
            });
        }
    }
    let window_s = t0.elapsed().as_secs_f64();
    let cpu_ns = host::process_cpu_ns() - cpu0;
    let crypto1 = crypto_ops();

    let nodes = mesh.shutdown();
    let mut violations = world.verify(&plan, &got.outcomes, &nodes);
    let store1 = world.store_stats();
    let store = StoreStats {
        appends: store1.appends - store0.appends,
        fsyncs: store1.fsyncs - store0.fsyncs,
        bytes: store1.bytes - store0.bytes,
        ..store1
    };
    drop(nodes);

    let latency_of =
        |i: usize| got.done_ns[i].map(|done| done.saturating_sub(from_ns[i]) as f64 / 1e3);
    let latency_us: Vec<f64> = (0..plan.len()).filter_map(latency_of).collect();
    let deny_latency_us: Vec<f64> = (0..plan.len())
        .filter(|&i| plan[i].intent != crate::gen::Intent::Grant)
        .filter_map(latency_of)
        .collect();
    let failed = violations.len();
    violations.truncate(8);

    Round {
        setup_s,
        window_s,
        cpu_ns,
        attempted: plan.len(),
        failed: failed.min(plan.len()),
        latency_us: sorted(&latency_us),
        deny_latency_us: sorted(&deny_latency_us),
        offered_per_s: w.offered_per_s(round).unwrap_or(0.0),
        gen_late_us: sorted(&gen_late_us),
        store,
        crypto_ops: std::array::from_fn(|i| crypto1[i] - crypto0[i]),
        violations,
    }
}
