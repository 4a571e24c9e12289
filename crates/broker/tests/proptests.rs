//! Property tests for admission control: the never-oversubscribe
//! invariant under arbitrary hold/commit/release interleavings.

use proptest::prelude::*;
use qos_broker::{AdmissionError, Interval, ResState, ReservationId, ReservationTable};
use qos_crypto::Timestamp;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Hold { start: u64, len: u64, rate: u64 },
    Commit(usize),
    Release(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..1000, 1u64..200, 1u64..60).prop_map(|(start, len, rate)| Op::Hold {
                start,
                len,
                rate
            }),
            (0usize..64).prop_map(Op::Commit),
            (0usize..64).prop_map(Op::Release),
        ],
        1..120,
    )
}

proptest! {
    /// At no instant does the sum of active reservations exceed capacity,
    /// under any interleaving of holds, commits, and releases.
    #[test]
    fn never_oversubscribed(ops in arb_ops()) {
        const CAPACITY: u64 = 100;
        let mut table = ReservationTable::new(CAPACITY);
        let mut ids: Vec<ReservationId> = Vec::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                Op::Hold { start, len, rate } => {
                    next += 1;
                    let id = ReservationId(next);
                    if table
                        .hold(id, Interval::starting_at(Timestamp(start), len), rate)
                        .is_ok()
                    {
                        ids.push(id);
                    }
                }
                Op::Commit(i) => {
                    if let Some(id) = ids.get(i) {
                        let _ = table.commit(*id);
                    }
                }
                Op::Release(i) => {
                    if let Some(id) = ids.get(i) {
                        let _ = table.release(*id);
                    }
                }
            }
            // Sweep the whole horizon: usage must respect capacity at
            // every breakpoint.
            for t in (0..1300).step_by(13) {
                prop_assert!(
                    table.usage_at(Timestamp(t)) <= CAPACITY,
                    "oversubscribed at t={t}"
                );
            }
        }
    }

    /// Released reservations stop counting; committed ones keep counting.
    #[test]
    fn release_frees_commit_retains(rate in 1u64..100, start in 0u64..100, len in 1u64..100) {
        let mut t = ReservationTable::new(100);
        let id = ReservationId(1);
        t.hold(id, Interval::starting_at(Timestamp(start), len), rate).unwrap();
        let mid = Timestamp(start + len / 2);
        prop_assert_eq!(t.usage_at(mid), rate);
        t.commit(id).unwrap();
        prop_assert_eq!(t.usage_at(mid), rate);
        prop_assert_eq!(t.state(id), Some(ResState::Committed));
        t.release(id).unwrap();
        prop_assert_eq!(t.usage_at(mid), 0);
    }

    /// `peak_usage` over an interval equals the max of `usage_at` sampled
    /// at every breakpoint inside it.
    #[test]
    fn peak_usage_matches_pointwise_max(
        entries in proptest::collection::vec((0u64..200, 1u64..100, 1u64..1000), 1..20),
    ) {
        let mut t = ReservationTable::new(u64::MAX);
        for (i, (start, len, rate)) in entries.iter().enumerate() {
            t.hold(
                ReservationId(i as u64),
                Interval::starting_at(Timestamp(*start), *len),
                *rate,
            )
            .unwrap();
        }
        let window = Interval::new(Timestamp(0), Timestamp(400));
        let peak = t.peak_usage(&window);
        let pointwise = (0..400).map(|x| t.usage_at(Timestamp(x))).max().unwrap();
        prop_assert_eq!(peak, pointwise);
    }
}

// ---------------------------------------------------------------------
// Model equivalence (DESIGN.md §D16): the timeline-indexed table against
// the scanning table it replaced, which survives only here.
// ---------------------------------------------------------------------

/// The pre-D16 `ReservationTable`: every read walks every entry.
struct ScanModel {
    capacity_bps: u64,
    entries: BTreeMap<ReservationId, (Interval, u64, ResState)>,
}

impl ScanModel {
    fn usage_at(&self, t: Timestamp) -> u64 {
        self.entries
            .values()
            .filter(|(iv, _, state)| *state != ResState::Released && iv.contains(t))
            .fold(0u64, |sum, (_, rate, _)| sum.saturating_add(*rate))
    }

    fn peak_usage(&self, interval: &Interval) -> u64 {
        let mut points = vec![interval.start];
        for (iv, _, state) in self.entries.values() {
            if *state != ResState::Released && iv.overlaps(interval) && iv.start > interval.start {
                points.push(iv.start);
            }
        }
        points.into_iter().map(|t| self.usage_at(t)).max().unwrap()
    }

    fn min_available(&self, interval: &Interval) -> u64 {
        self.capacity_bps.saturating_sub(self.peak_usage(interval))
    }

    fn counts(&self, id: ReservationId) -> bool {
        matches!(self.entries.get(&id), Some((_, _, s)) if *s != ResState::Released)
    }

    fn hold(&mut self, id: ReservationId, iv: Interval, rate: u64) -> Result<(), AdmissionError> {
        if iv.secs() == 0 || rate == 0 {
            return Err(AdmissionError::EmptyRequest);
        }
        if self.counts(id) {
            return Err(AdmissionError::DuplicateReservation(id));
        }
        let available = self.min_available(&iv);
        if rate > available {
            return Err(AdmissionError::InsufficientCapacity {
                requested_bps: rate,
                available_bps: available,
            });
        }
        self.entries.insert(id, (iv, rate, ResState::Held));
        Ok(())
    }

    fn commit(&mut self, id: ReservationId) -> Result<(), AdmissionError> {
        if !self.counts(id) {
            return Err(AdmissionError::UnknownReservation(id));
        }
        self.restore_state(id, ResState::Committed);
        Ok(())
    }

    fn release(&mut self, id: ReservationId) -> Result<(), AdmissionError> {
        if !self.entries.contains_key(&id) {
            return Err(AdmissionError::UnknownReservation(id));
        }
        self.restore_state(id, ResState::Released);
        Ok(())
    }

    fn restore_state(&mut self, id: ReservationId, state: ResState) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.2 = state;
        }
    }
}

/// Instants `0..=HORIZON` cover every breakpoint an op can create.
const HORIZON: u64 = 26;
/// Few ids, so re-holds of tombstones, duplicates and restores over
/// live and released entries all come up.
const IDS: u64 = 10;

#[derive(Debug, Clone)]
enum TableOp {
    Hold(u64, Interval, u64),
    Commit(u64),
    Release(u64),
    Restore(u64, Interval, u64, ResState),
    RestoreState(u64, ResState),
}

fn arb_state() -> impl Strategy<Value = ResState> {
    prop_oneof![
        Just(ResState::Held),
        Just(ResState::Committed),
        Just(ResState::Released)
    ]
}

/// `[start, start + len)` on a coarse grid: zero-length, touching and
/// nested intervals are all likely.
fn arb_interval() -> impl Strategy<Value = Interval> {
    (0u64..16, 0u64..10).prop_map(|(start, len)| Interval::starting_at(Timestamp(start), len))
}

/// Any two instants, inverted included (the fields are public and
/// recovered rows come off the wire).
fn arb_raw_interval() -> impl Strategy<Value = Interval> {
    (0u64..HORIZON, 0u64..HORIZON).prop_map(|(start, end)| Interval {
        start: Timestamp(start),
        end: Timestamp(end),
    })
}

fn arb_hold() -> impl Strategy<Value = TableOp> {
    (0..IDS, arb_interval(), 0u64..60).prop_map(|(id, iv, rate)| TableOp::Hold(id, iv, rate))
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    // The vendored `prop_oneof!` takes no weights: an arm listed twice
    // is drawn twice as often. Restores bypass admission, so they may
    // also over-commit past u64.
    let restored_rate = prop_oneof![0u64..60, 0u64..60, Just(u64::MAX / 2 + 1)];
    prop_oneof![
        arb_hold(),
        arb_hold(),
        (0..IDS).prop_map(TableOp::Commit),
        (0..IDS).prop_map(TableOp::Release),
        (
            0..IDS,
            prop_oneof![arb_interval(), arb_raw_interval()],
            restored_rate,
            arb_state()
        )
            .prop_map(|(id, iv, rate, state)| TableOp::Restore(id, iv, rate, state)),
        (0..IDS, arb_state()).prop_map(|(id, state)| TableOp::RestoreState(id, state)),
    ]
}

proptest! {
    /// After every op of an arbitrary sequence the indexed table and the
    /// scanning model agree on the op's result, on usage at every
    /// instant, on peak/min over a random window, and on the entries
    /// themselves; once everything is released no breakpoint is left.
    #[test]
    fn timeline_matches_scanning_model(
        ops in proptest::collection::vec((arb_table_op(), arb_raw_interval()), 1..80),
    ) {
        const CAPACITY: u64 = 100;
        let mut table = ReservationTable::new(CAPACITY);
        let mut model = ScanModel { capacity_bps: CAPACITY, entries: BTreeMap::new() };
        for (op, window) in ops {
            match op.clone() {
                TableOp::Hold(id, iv, rate) => {
                    let id = ReservationId(id);
                    prop_assert_eq!(table.hold(id, iv, rate), model.hold(id, iv, rate), "{:?}", op);
                }
                TableOp::Commit(id) => {
                    let id = ReservationId(id);
                    prop_assert_eq!(table.commit(id), model.commit(id), "{:?}", op);
                }
                TableOp::Release(id) => {
                    let id = ReservationId(id);
                    prop_assert_eq!(table.release(id), model.release(id), "{:?}", op);
                }
                TableOp::Restore(id, iv, rate, state) => {
                    table.restore(ReservationId(id), iv, rate, state);
                    model.entries.insert(ReservationId(id), (iv, rate, state));
                }
                TableOp::RestoreState(id, state) => {
                    table.restore_state(ReservationId(id), state);
                    model.restore_state(ReservationId(id), state);
                }
            }
            for t in (0..=HORIZON).map(Timestamp) {
                prop_assert_eq!(table.usage_at(t), model.usage_at(t), "after {:?} at {}", op, t);
                prop_assert_eq!(table.available_at(t), CAPACITY.saturating_sub(model.usage_at(t)));
            }
            let whole = Interval::new(Timestamp(0), Timestamp(HORIZON));
            for w in [window, whole] {
                prop_assert_eq!(table.peak_usage(&w), model.peak_usage(&w), "after {:?} over {}", op, w);
                prop_assert_eq!(table.min_available(&w), model.min_available(&w));
            }
            let live: Vec<_> = table.iter_active().collect();
            let expected: Vec<_> = model
                .entries
                .iter()
                .filter(|(_, e)| e.2 != ResState::Released)
                .map(|(id, e)| (*id, e.0, e.1, e.2))
                .collect();
            prop_assert_eq!(live, expected);
        }
        for id in (0..IDS).map(ReservationId) {
            let _ = table.release(id);
        }
        // The timeline is private; its `Debug` rendering is not.
        prop_assert!(format!("{table:?}").contains("timeline: {}"), "leaked breakpoints: {:?}", table);
    }
}
