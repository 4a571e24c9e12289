//! Time-indexed bandwidth bookkeeping with advance reservations.
//!
//! GARA (the system this paper extends) "provides advance reservations
//! and end-to-end management for quality of service". A reservation holds
//! `rate_bps` over a wall-clock interval; admission must guarantee that
//! at **every instant** the sum of overlapping committed/held
//! reservations stays within capacity.
//!
//! Two-phase life cycle: a reservation is *held* while the end-to-end
//! decision is pending (hop-by-hop signalling admits locally before
//! forwarding downstream), then *committed* when the approval propagates
//! back, or *released* on denial — so a denial in domain C rolls back
//! capacity in A and B.

use qos_crypto::Timestamp;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier for one reservation in a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReservationId(pub u64);

impl qos_wire::Encode for ReservationId {
    fn encode(&self, w: &mut qos_wire::Writer) {
        w.put_u64(self.0);
    }
}

impl qos_wire::Decode for ReservationId {
    fn decode(r: &mut qos_wire::Reader<'_>) -> Result<Self, qos_wire::WireError> {
        Ok(ReservationId(r.get_u64()?))
    }
}

/// A half-open wall-clock interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First instant the reservation holds.
    pub start: Timestamp,
    /// First instant after the reservation.
    pub end: Timestamp,
}

qos_wire::impl_wire_struct!(Interval { start, end });

impl Interval {
    /// Construct, normalizing inverted bounds to empty.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        Self {
            start,
            end: end.max(start),
        }
    }

    /// From `start` lasting `secs`.
    pub fn starting_at(start: Timestamp, secs: u64) -> Self {
        Self {
            start,
            end: start + secs,
        }
    }

    /// Do two intervals overlap?
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Is `t` inside?
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// Length in seconds.
    pub fn secs(&self) -> u64 {
        self.end - self.start
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Reservation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResState {
    /// Capacity held pending the end-to-end decision.
    Held,
    /// Confirmed.
    Committed,
    /// Rolled back (no longer consumes capacity).
    Released,
}

#[derive(Debug, Clone)]
struct Entry {
    interval: Interval,
    rate_bps: u64,
    state: ResState,
}

/// One breakpoint of the usage timeline (DESIGN.md §D16).
#[derive(Debug, Clone)]
struct Step {
    /// Σ rate of the non-released entries containing every instant from
    /// this breakpoint to the next. Exact: 2⁶⁴ ids × 2⁶⁴ bps fit a
    /// `u128`, so removal never underflows; readers saturate to `u64`.
    level: u128,
    /// Non-released entries that start or end here; the breakpoint goes
    /// when the last one does.
    refs: usize,
}

/// Why admission failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// Admitting would oversubscribe capacity at some instant. Carries
    /// the worst-case available rate over the requested interval.
    InsufficientCapacity {
        /// What was requested (bits/s).
        requested_bps: u64,
        /// The minimum available rate over the interval (bits/s).
        available_bps: u64,
    },
    /// The reservation id is unknown.
    UnknownReservation(ReservationId),
    /// The id is already present.
    DuplicateReservation(ReservationId),
    /// Zero-length interval or zero rate.
    EmptyRequest,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::InsufficientCapacity {
                requested_bps,
                available_bps,
            } => write!(
                f,
                "insufficient capacity: requested {requested_bps} bps, only {available_bps} bps available"
            ),
            AdmissionError::UnknownReservation(id) => write!(f, "unknown reservation {id:?}"),
            AdmissionError::DuplicateReservation(id) => write!(f, "duplicate reservation {id:?}"),
            AdmissionError::EmptyRequest => write!(f, "empty interval or zero rate"),
        }
    }
}

impl std::error::Error for AdmissionError {}

fn saturate(level: u128) -> u64 {
    u64::try_from(level).unwrap_or(u64::MAX)
}

/// A capacity-bounded advance-reservation table.
#[derive(Debug, Clone)]
pub struct ReservationTable {
    capacity_bps: u64,
    entries: BTreeMap<ReservationId, Entry>,
    /// Usage as a step function of time, kept in step with `entries` by
    /// [`Self::shift`] so admission never scans them.
    timeline: BTreeMap<Timestamp, Step>,
}

impl ReservationTable {
    /// A table managing `capacity_bps` of bandwidth.
    pub fn new(capacity_bps: u64) -> Self {
        Self {
            capacity_bps,
            entries: BTreeMap::new(),
            timeline: BTreeMap::new(),
        }
    }

    /// Managed capacity.
    pub fn capacity_bps(&self) -> u64 {
        self.capacity_bps
    }

    /// Peak committed+held usage over `interval` (bits/s): the highest
    /// of the level in force at its start and those of the breakpoints
    /// inside it.
    pub fn peak_usage(&self, interval: &Interval) -> u64 {
        let mut peak = self.level_at(interval.start);
        if interval.start < interval.end {
            for (_, step) in self.timeline.range(interval.start..interval.end) {
                peak = peak.max(step.level);
            }
        }
        saturate(peak)
    }

    /// Committed+held usage at instant `t` (bits/s), saturating at
    /// `u64::MAX` (a recovered ledger may be over-committed).
    pub fn usage_at(&self, t: Timestamp) -> u64 {
        saturate(self.level_at(t))
    }

    fn level_at(&self, t: Timestamp) -> u128 {
        self.timeline
            .range(..=t)
            .next_back()
            .map_or(0, |(_, s)| s.level)
    }

    /// Add (`counts`) or remove one entry's rate over its interval. Every
    /// transition between counting (held/committed) and not counting
    /// (released/absent) goes through here, and nothing else writes the
    /// timeline.
    fn shift(&mut self, interval: Interval, rate_bps: u64, counts: bool) {
        if interval.start >= interval.end {
            return; // contains no instant
        }
        let ends = [interval.start, interval.end];
        if counts {
            for t in ends {
                let level = self.level_at(t);
                let step = self.timeline.entry(t).or_insert(Step { level, refs: 0 });
                step.refs += 1;
            }
        }
        for (_, step) in self.timeline.range_mut(interval.start..interval.end) {
            if counts {
                step.level += u128::from(rate_bps);
            } else {
                debug_assert!(step.level >= u128::from(rate_bps));
                step.level -= u128::from(rate_bps);
            }
        }
        if !counts {
            for t in ends {
                let step = self.timeline.get_mut(&t).expect("entry's own breakpoint");
                step.refs -= 1;
                if step.refs == 0 {
                    self.timeline.remove(&t);
                }
            }
        }
    }

    /// Move `id` to `state`, shifting the timeline if that starts or
    /// stops it counting. False for an unknown id.
    fn transition(&mut self, id: ReservationId, state: ResState) -> bool {
        let Some(e) = self.entries.get_mut(&id) else {
            return false;
        };
        let was = std::mem::replace(&mut e.state, state);
        let (interval, rate_bps) = (e.interval, e.rate_bps);
        if (was == ResState::Released) != (state == ResState::Released) {
            self.shift(interval, rate_bps, state != ResState::Released);
        }
        true
    }

    /// Available rate at instant `t`.
    pub fn available_at(&self, t: Timestamp) -> u64 {
        self.capacity_bps.saturating_sub(self.usage_at(t))
    }

    /// Minimum available rate over `interval`.
    pub fn min_available(&self, interval: &Interval) -> u64 {
        self.capacity_bps.saturating_sub(self.peak_usage(interval))
    }

    /// Place a hold: capacity is consumed immediately, but the
    /// reservation is only [`ResState::Held`] until committed.
    pub fn hold(
        &mut self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
    ) -> Result<(), AdmissionError> {
        if interval.secs() == 0 || rate_bps == 0 {
            return Err(AdmissionError::EmptyRequest);
        }
        // A released entry is a tombstone; the same id may be re-held
        // (e.g. after a partial-admission rollback retries).
        if self
            .entries
            .get(&id)
            .is_some_and(|e| e.state != ResState::Released)
        {
            return Err(AdmissionError::DuplicateReservation(id));
        }
        let available = self.min_available(&interval);
        if rate_bps > available {
            return Err(AdmissionError::InsufficientCapacity {
                requested_bps: rate_bps,
                available_bps: available,
            });
        }
        // (A tombstone being replaced stopped counting when released.)
        self.shift(interval, rate_bps, true);
        self.entries.insert(
            id,
            Entry {
                interval,
                rate_bps,
                state: ResState::Held,
            },
        );
        Ok(())
    }

    /// Commit a held reservation. Committing twice is idempotent;
    /// committing a released (rolled-back) id is an error — its capacity
    /// is gone.
    pub fn commit(&mut self, id: ReservationId) -> Result<(), AdmissionError> {
        match self.entries.get_mut(&id) {
            Some(e) if e.state != ResState::Released => {
                e.state = ResState::Committed;
                Ok(())
            }
            _ => Err(AdmissionError::UnknownReservation(id)),
        }
    }

    /// Release (roll back) a reservation; its capacity is returned.
    pub fn release(&mut self, id: ReservationId) -> Result<(), AdmissionError> {
        if self.transition(id, ResState::Released) {
            Ok(())
        } else {
            Err(AdmissionError::UnknownReservation(id))
        }
    }

    /// State of a reservation.
    pub fn state(&self, id: ReservationId) -> Option<ResState> {
        self.entries.get(&id).map(|e| e.state)
    }

    /// Rate of a reservation.
    pub fn rate(&self, id: ReservationId) -> Option<u64> {
        self.entries.get(&id).map(|e| e.rate_bps)
    }

    /// Interval of a reservation.
    pub fn interval(&self, id: ReservationId) -> Option<Interval> {
        self.entries.get(&id).map(|e| e.interval)
    }

    /// True if `id` exists and holds (held or committed) at `t`.
    pub fn active_at(&self, id: ReservationId, t: Timestamp) -> bool {
        self.entries
            .get(&id)
            .is_some_and(|e| e.state != ResState::Released && e.interval.contains(t))
    }

    /// Sum of committed+held rates over all entries active at `t` —
    /// what the domain's ingress aggregate policer should be dimensioned
    /// to.
    pub fn admitted_aggregate_at(&self, t: Timestamp) -> u64 {
        self.usage_at(t)
    }

    /// Force-apply a recovered reservation without admission checks
    /// (DESIGN.md §D13). Replay rebuilds state that *was already
    /// admitted* before a crash, so capacity math must not re-gate it;
    /// overwriting an existing entry makes replay after a snapshot
    /// idempotent.
    pub fn restore(
        &mut self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
        state: ResState,
    ) {
        let entry = Entry {
            interval,
            rate_bps,
            state,
        };
        if let Some(old) = self.entries.insert(id, entry) {
            if old.state != ResState::Released {
                self.shift(old.interval, old.rate_bps, false);
            }
        }
        if state != ResState::Released {
            self.shift(interval, rate_bps, true);
        }
    }

    /// Force a recovered state transition. Unknown ids are ignored —
    /// the matching hold record can legitimately be missing when it sat
    /// in an un-fsynced batch the crash discarded.
    pub fn restore_state(&mut self, id: ReservationId, state: ResState) {
        self.transition(id, state);
    }

    /// Iterate non-released reservations.
    pub fn iter_active(
        &self,
    ) -> impl Iterator<Item = (ReservationId, Interval, u64, ResState)> + '_ {
        self.entries
            .iter()
            .filter(|(_, e)| e.state != ResState::Released)
            .map(|(id, e)| (*id, e.interval, e.rate_bps, e.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(Timestamp(a), Timestamp(b))
    }

    #[test]
    fn basic_hold_within_capacity() {
        let mut t = ReservationTable::new(100);
        assert!(t.hold(ReservationId(1), iv(0, 10), 60).is_ok());
        assert!(t.hold(ReservationId(2), iv(0, 10), 40).is_ok());
        assert_eq!(
            t.hold(ReservationId(3), iv(5, 6), 1),
            Err(AdmissionError::InsufficientCapacity {
                requested_bps: 1,
                available_bps: 0
            })
        );
    }

    #[test]
    fn disjoint_intervals_share_capacity() {
        let mut t = ReservationTable::new(100);
        assert!(t.hold(ReservationId(1), iv(0, 10), 100).is_ok());
        assert!(t.hold(ReservationId(2), iv(10, 20), 100).is_ok());
        // Touching at the boundary is fine (half-open intervals).
        assert_eq!(t.usage_at(Timestamp(9)), 100);
        assert_eq!(t.usage_at(Timestamp(10)), 100);
        assert_eq!(t.usage_at(Timestamp(20)), 0);
    }

    #[test]
    fn advance_reservations_respect_future_peaks() {
        let mut t = ReservationTable::new(100);
        // A future reservation occupies 80 during [100, 200).
        t.hold(ReservationId(1), iv(100, 200), 80).unwrap();
        // A long reservation spanning that window can only get 20.
        assert!(t.hold(ReservationId(2), iv(0, 300), 30).is_err());
        assert!(t.hold(ReservationId(3), iv(0, 300), 20).is_ok());
        // But a reservation ending before it can take everything left.
        assert!(t.hold(ReservationId(4), iv(0, 100), 80).is_ok());
    }

    #[test]
    fn release_returns_capacity() {
        let mut t = ReservationTable::new(100);
        t.hold(ReservationId(1), iv(0, 10), 100).unwrap();
        assert!(t.hold(ReservationId(2), iv(0, 10), 50).is_err());
        t.release(ReservationId(1)).unwrap();
        assert!(t.hold(ReservationId(2), iv(0, 10), 100).is_ok());
        assert_eq!(t.state(ReservationId(1)), Some(ResState::Released));
    }

    #[test]
    fn two_phase_lifecycle() {
        let mut t = ReservationTable::new(100);
        t.hold(ReservationId(1), iv(0, 10), 60).unwrap();
        assert_eq!(t.state(ReservationId(1)), Some(ResState::Held));
        // Held capacity already blocks competitors (no double-sell while
        // the end-to-end decision is pending).
        assert!(t.hold(ReservationId(2), iv(0, 10), 60).is_err());
        t.commit(ReservationId(1)).unwrap();
        assert_eq!(t.state(ReservationId(1)), Some(ResState::Committed));
    }

    #[test]
    fn rejects_empty_and_duplicate() {
        let mut t = ReservationTable::new(100);
        assert_eq!(
            t.hold(ReservationId(1), iv(5, 5), 10),
            Err(AdmissionError::EmptyRequest)
        );
        assert_eq!(
            t.hold(ReservationId(1), iv(0, 10), 0),
            Err(AdmissionError::EmptyRequest)
        );
        t.hold(ReservationId(1), iv(0, 10), 10).unwrap();
        assert_eq!(
            t.hold(ReservationId(1), iv(20, 30), 10),
            Err(AdmissionError::DuplicateReservation(ReservationId(1)))
        );
    }

    #[test]
    fn unknown_ids_error() {
        let mut t = ReservationTable::new(100);
        assert!(t.commit(ReservationId(9)).is_err());
        assert!(t.release(ReservationId(9)).is_err());
        assert_eq!(t.state(ReservationId(9)), None);
    }

    #[test]
    fn peak_usage_sweep_is_exact() {
        let mut t = ReservationTable::new(1000);
        // Staircase: [0,30)@100, [10,20)@200 → peak 300 in [10,20).
        t.hold(ReservationId(1), iv(0, 30), 100).unwrap();
        t.hold(ReservationId(2), iv(10, 20), 200).unwrap();
        assert_eq!(t.peak_usage(&iv(0, 30)), 300);
        assert_eq!(t.peak_usage(&iv(0, 10)), 100);
        assert_eq!(t.peak_usage(&iv(20, 30)), 100);
        assert_eq!(t.peak_usage(&iv(12, 13)), 300);
        assert_eq!(t.min_available(&iv(0, 30)), 700);
    }

    #[test]
    fn active_at_and_aggregate() {
        let mut t = ReservationTable::new(100);
        t.hold(ReservationId(1), iv(0, 10), 30).unwrap();
        t.hold(ReservationId(2), iv(5, 15), 20).unwrap();
        t.commit(ReservationId(1)).unwrap();
        assert!(t.active_at(ReservationId(1), Timestamp(3)));
        assert!(!t.active_at(ReservationId(2), Timestamp(3)));
        assert_eq!(t.admitted_aggregate_at(Timestamp(7)), 50);
        t.release(ReservationId(2)).unwrap();
        assert_eq!(t.admitted_aggregate_at(Timestamp(7)), 30);
    }

    #[test]
    fn over_committed_restore_saturates_instead_of_wrapping() {
        // Replay bypasses admission, so a recovered ledger can hold more
        // than u64::MAX bps at one instant.
        const HALF: u64 = u64::MAX / 2 + 1;
        let mut t = ReservationTable::new(u64::MAX);
        t.restore(ReservationId(1), iv(0, 10), HALF, ResState::Committed);
        t.restore(ReservationId(2), iv(5, 15), HALF, ResState::Held);
        assert_eq!(t.usage_at(Timestamp(4)), HALF);
        assert_eq!(t.usage_at(Timestamp(5)), u64::MAX);
        assert_eq!(t.available_at(Timestamp(5)), 0);
        assert_eq!(t.peak_usage(&iv(0, 15)), u64::MAX);
        // The level underneath is exact: taking one away leaves the other.
        t.release(ReservationId(1)).unwrap();
        assert_eq!(t.usage_at(Timestamp(5)), HALF);
        assert_eq!(t.available_at(Timestamp(5)), u64::MAX - HALF);
        t.release(ReservationId(2)).unwrap();
        assert!(t.timeline.is_empty());
    }

    /// D16's invariant, checked against a scan: one breakpoint per
    /// distinct start/end of a counting entry, `refs` their number, and
    /// `level` the sum of the rates in force from there.
    fn assert_timeline_exact(t: &ReservationTable) {
        let mut expected: BTreeMap<Timestamp, usize> = BTreeMap::new();
        for e in t.entries.values() {
            if e.state != ResState::Released && e.interval.secs() > 0 {
                *expected.entry(e.interval.start).or_default() += 1;
                *expected.entry(e.interval.end).or_default() += 1;
            }
        }
        let refs: BTreeMap<_, _> = t.timeline.iter().map(|(at, s)| (*at, s.refs)).collect();
        assert_eq!(refs, expected);
        for (at, step) in &t.timeline {
            let scanned: u128 = t
                .entries
                .values()
                .filter(|e| e.state != ResState::Released && e.interval.contains(*at))
                .map(|e| u128::from(e.rate_bps))
                .sum();
            assert_eq!(step.level, scanned, "level at {at}");
        }
    }

    #[test]
    fn every_transition_keeps_the_timeline_exact() {
        let mut t = ReservationTable::new(100);
        let id = ReservationId;
        t.hold(id(1), iv(0, 10), 30).unwrap();
        t.hold(id(2), iv(10, 20), 30).unwrap(); // touching
        t.hold(id(3), iv(2, 8), 30).unwrap(); // nested
        assert_timeline_exact(&t);
        t.commit(id(1)).unwrap();
        t.release(id(3)).unwrap();
        t.release(id(3)).unwrap(); // releasing a tombstone changes nothing
        assert_timeline_exact(&t);
        t.hold(id(3), iv(5, 15), 40).unwrap(); // re-hold over the tombstone
        assert_timeline_exact(&t);
        t.restore(id(1), iv(0, 20), 10, ResState::Committed); // over a live id
        t.restore(id(4), iv(7, 7), 99, ResState::Held); // contains nothing
        t.restore(id(5), iv(0, 5), 5, ResState::Released); // born a tombstone
        assert_timeline_exact(&t);
        t.restore_state(id(5), ResState::Committed); // resurrection
        t.restore_state(id(2), ResState::Released);
        t.restore_state(id(9), ResState::Held); // unknown: ignored
        assert_timeline_exact(&t);
        assert_eq!(t.usage_at(Timestamp(4)), 15);
        assert_eq!(t.peak_usage(&iv(0, 20)), 50);
        for n in 1..=5 {
            t.release(id(n)).unwrap();
        }
        assert!(t.timeline.is_empty());
    }
}
