//! The workload table and the seeded request streams.
//!
//! Everything a round sends is a pure function of
//! `(workload, --seed, round index)`: the outcome each request is built
//! to get, its reservation id and flow id, and — for the open loop — the
//! instant it is due. The program under test only ever sees the
//! generated requests.

/// The verdict a generated request is built to receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Every domain admits it.
    Grant,
    /// `domain-b`'s policy file refuses the requesting user.
    DenyAtB,
    /// The rate exceeds `domain-c`'s ingress SLA with `domain-b`.
    DenyAtC,
}

/// How a round offers its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Closed loop: the stream is cut into chunks of `window` requests;
    /// a chunk is submitted at once and awaited whole before the next.
    Closed { window: usize },
    /// Open loop: Poisson arrivals, sent on schedule whether or not
    /// earlier replies have come back. Rounds alternate between the two
    /// rates (requests per second), the lower first.
    Open { rates_per_s: [f64; 2] },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One sentence for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    /// Length of the broker chain.
    pub domains: usize,
    pub shape: Shape,
    /// Requests per round. Fixed, because brokers never drop
    /// reservation entries: per-admission cost grows with table size,
    /// and a fixed count makes a round the same work on every commit.
    pub ops_per_round: usize,
    /// Committed reservations every broker's table already holds when
    /// the measured window opens (`ReservationTable::usage_at` scans
    /// them all on each admission).
    pub standing: usize,
    /// Pin the whole process to one CPU. Only ever one thread is
    /// runnable in a 1-outstanding loop, so nothing is lost, and
    /// cross-vCPU wake-up noise (the latency is otherwise bimodal) goes.
    pub pinned: bool,
    /// 80/10/10 grant/deny mix with a `FileStore` WAL on every broker;
    /// otherwise all-grant on the default `MemStore`.
    pub mixed: bool,
    /// Requests are sub-flows of one pre-established `a → c` tunnel
    /// rather than full reservations.
    pub tunnel: bool,
    /// Listed in `BENCHMARK.json`, so later changes are judged on it.
    /// `chain3_closed1` is not: its time is mostly thread hand-offs on one
    /// CPU, whose cost on a shared virtual host swings by half within
    /// minutes, and its ten-run quartile spread (0.18 and 0.29 when the
    /// benchmark was first checked) passes the widest bound a metric may
    /// have. It still runs by name and in `run --all`, `trace` and `check`.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "chain3_closed1",
        why: "Unloaded set-up latency on 3 domains, 1 outstanding: nothing batches, so fixed per-request costs (cold verify, re-sign, seal, syscalls, thread hand-offs) are the whole bill.",
        domains: 3,
        shape: Shape::Closed { window: 1 },
        ops_per_round: 1024,
        standing: 0,
        pinned: true,
        mixed: false,
        tunnel: false,
        gated: false,
    },
    Workload {
        name: "chain8_closed1",
        why: "Unloaded set-up latency on 8 domains, 1 outstanding: nothing batches, and verify, wrap and bytes grow with envelope depth, so crypto and envelope code are most of the per-request bill.",
        domains: 8,
        shape: Shape::Closed { window: 1 },
        ops_per_round: 256,
        standing: 0,
        pinned: true,
        mixed: false,
        tunnel: false,
        gated: true,
    },
    Workload {
        name: "chain3_burst_empty",
        why: "Saturation throughput in 512-request bursts on near-empty reservation tables (0 to 1024 entries): batching works (batch verify, coalesced writes, shard queues) and crypto dominates.",
        domains: 3,
        shape: Shape::Closed { window: 512 },
        ops_per_round: 1024,
        standing: 0,
        pinned: false,
        mixed: false,
        tunnel: false,
        gated: true,
    },
    Workload {
        name: "chain3_burst_standing4k",
        why: "The same bursts on tables already holding 3072 reservations (3072 to 4096 entries): every admission scans all entries, so broker admission takes over and crypto gains show less.",
        domains: 3,
        shape: Shape::Closed { window: 512 },
        ops_per_round: 1024,
        standing: 3072,
        pinned: false,
        mixed: false,
        tunnel: false,
        gated: true,
    },
    Workload {
        name: "chain3_open_mix",
        why: "The service as operated: Poisson arrivals that do not wait for replies (rounds alternate 1000 and 2000 req/s), a WAL on every broker, 80% grants, 10% policy denials at b, 10% SLA denials at c.",
        domains: 3,
        shape: Shape::Open {
            rates_per_s: [1000.0, 2000.0],
        },
        ops_per_round: 1024,
        standing: 0,
        pinned: false,
        mixed: true,
        tunnel: false,
        gated: true,
    },
    Workload {
        name: "tunnel_flows",
        why: "The paper's scaling mechanism: sub-flows of an a-to-c tunnel touch only the end domains and the flow table, so envelope or policy changes must not move it and flow-table or channel ones must.",
        domains: 3,
        shape: Shape::Closed { window: 256 },
        ops_per_round: 20_000,
        standing: 0,
        pinned: false,
        mixed: false,
        tunnel: true,
        gated: true,
    },
];

impl Workload {
    /// Requests per second round `round` offers; `None` in a closed loop.
    pub fn offered_per_s(&self, round: u64) -> Option<f64> {
        match self.shape {
            Shape::Closed { .. } => None,
            Shape::Open { rates_per_s } => Some(rates_per_s[(round % 2) as usize]),
        }
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workloads `BENCHMARK.json` lists.
pub fn gated() -> impl Iterator<Item = &'static Workload> {
    WORKLOADS.iter().filter(|w| w.gated)
}

/// splitmix64: tiny, seedable, and identical everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Reservation id (full reservations) — distinct within a round.
    pub rar_id: u64,
    /// Flow id.
    pub flow: u64,
    pub intent: Intent,
    /// Open loop: nanoseconds after the round's first request at which
    /// this one is due. Zero in closed loops.
    pub due_ns: u64,
}

/// The request stream of round `round` of workload `w` under `seed`.
pub fn plan(w: &Workload, ops: usize, seed: u64, round: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ round.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    // Ids from a seeded base: distinct within the round, different
    // hash-table and shard positions per seed.
    let base = 1 + (rng.next_u64() >> 24);
    let mut due = 0.0f64;
    (0..ops as u64)
        .map(|i| {
            let flow = rng.next_u64() >> 16;
            let intent = match (w.mixed, rng.unit()) {
                (true, u) if u < 0.10 => Intent::DenyAtB,
                (true, u) if u < 0.20 => Intent::DenyAtC,
                _ => Intent::Grant,
            };
            if let Some(rate_per_s) = w.offered_per_s(round) {
                // Exponential gaps: a Poisson arrival process.
                due += -(1.0 - rng.unit()).ln() / rate_per_s;
            }
            Op {
                rar_id: base + i,
                flow,
                intent,
                due_ns: (due * 1e9) as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> &'static Workload {
        workload("chain3_open_mix").expect("defined")
    }

    #[test]
    fn equal_seeds_give_identical_streams() {
        let a = plan(mix(), 2048, 7, 3);
        let b = plan(mix(), 2048, 7, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_and_round_both_change_the_stream() {
        let a = plan(mix(), 256, 7, 0);
        assert_ne!(a, plan(mix(), 256, 8, 0));
        assert_ne!(a, plan(mix(), 256, 7, 1));
    }

    #[test]
    fn arrival_schedule_is_increasing_and_rounds_alternate_the_two_rates() {
        for (round, gap_us) in [(0, 1000.0), (1, 500.0), (2, 1000.0), (3, 500.0)] {
            let ops = plan(mix(), 4096, 11, round);
            assert!(ops.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
            let mean_gap_us = ops.last().expect("non-empty").due_ns as f64 / 4096.0 / 1e3;
            assert!(
                (mean_gap_us - gap_us).abs() < gap_us / 10.0,
                "round {round}: mean gap {mean_gap_us} us, expected {gap_us}"
            );
        }
    }

    #[test]
    fn mix_is_80_10_10_and_ids_are_distinct() {
        let ops = plan(mix(), 4096, 5, 0);
        let share = |i: Intent| ops.iter().filter(|o| o.intent == i).count() as f64 / 4096.0;
        assert!((share(Intent::Grant) - 0.8).abs() < 0.03);
        assert!((share(Intent::DenyAtB) - 0.1).abs() < 0.02);
        assert!((share(Intent::DenyAtC) - 0.1).abs() < 0.02);
        let mut ids: Vec<u64> = ops.iter().map(|o| o.rar_id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 4096);
    }

    #[test]
    fn closed_workloads_are_all_grant_with_no_schedule() {
        let w = workload("chain3_closed1").expect("defined");
        let ops = plan(w, 1024, 9, 2);
        assert!(ops
            .iter()
            .all(|o| o.intent == Intent::Grant && o.due_ns == 0));
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200, "{}: why is one line of <= 200", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
    }
}
