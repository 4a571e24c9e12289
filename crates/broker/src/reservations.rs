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
//!
//! A `Book` keeps one record per reservation over the `Timeline`s
//! it crosses (DESIGN.md §D39).

use crate::sla::Sla;
use qos_crypto::Timestamp;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

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

/// One breakpoint of the usage timeline (DESIGN.md §D16).
#[derive(Debug, Clone)]
struct Step {
    /// Σ rate of the counting reservations containing every instant from
    /// this breakpoint to the next. Exact: 2⁶⁴ reservations × 2⁶⁴ bps
    /// fit a `u128`, so removal never underflows; readers saturate to
    /// `u64`.
    level: u128,
    /// Counting reservations that start or end here; the breakpoint goes
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

/// One capacity and its usage as a step function of time (DESIGN.md
/// §D16, §D39). It knows no ids: its owner keeps the reservations and
/// shifts it on every transition between counting and not counting.
#[derive(Debug, Clone, Default)]
pub(crate) struct Timeline {
    pub(crate) capacity_bps: u64,
    steps: BTreeMap<Timestamp, Step>,
}

impl Timeline {
    /// Peak usage over `interval` (bits/s): the highest of the level in
    /// force at its start and those of the breakpoints inside it.
    pub(crate) fn peak_usage(&self, interval: &Interval) -> u64 {
        let mut peak = self.level_at(interval.start);
        if interval.start < interval.end {
            for (_, step) in self.steps.range(interval.start..interval.end) {
                peak = peak.max(step.level);
            }
        }
        saturate(peak)
    }

    /// Usage at instant `t` (bits/s), saturating at `u64::MAX` (a
    /// recovered ledger may be over-committed).
    pub(crate) fn usage_at(&self, t: Timestamp) -> u64 {
        saturate(self.level_at(t))
    }

    fn level_at(&self, t: Timestamp) -> u128 {
        self.steps
            .range(..=t)
            .next_back()
            .map_or(0, |(_, s)| s.level)
    }

    /// Available rate at instant `t`.
    pub(crate) fn available_at(&self, t: Timestamp) -> u64 {
        self.capacity_bps.saturating_sub(self.usage_at(t))
    }

    /// Minimum available rate over `interval`.
    pub(crate) fn min_available(&self, interval: &Interval) -> u64 {
        self.capacity_bps.saturating_sub(self.peak_usage(interval))
    }

    /// Would `rate_bps` over `interval` fit at every instant?
    pub(crate) fn admit(&self, interval: &Interval, rate_bps: u64) -> Result<(), AdmissionError> {
        let available = self.min_available(interval);
        if rate_bps > available {
            return Err(AdmissionError::InsufficientCapacity {
                requested_bps: rate_bps,
                available_bps: available,
            });
        }
        Ok(())
    }

    /// Add (`counts`) or remove one reservation's rate over its
    /// interval. Nothing else writes the breakpoints.
    pub(crate) fn shift(&mut self, interval: Interval, rate_bps: u64, counts: bool) {
        if interval.start >= interval.end {
            return; // contains no instant
        }
        let ends = [interval.start, interval.end];
        if counts {
            for t in ends {
                let level = self.level_at(t);
                let step = self.steps.entry(t).or_insert(Step { level, refs: 0 });
                step.refs += 1;
            }
        }
        for (_, step) in self.steps.range_mut(interval.start..interval.end) {
            if counts {
                step.level += u128::from(rate_bps);
            } else {
                debug_assert!(step.level >= u128::from(rate_bps));
                step.level -= u128::from(rate_bps);
            }
        }
        if !counts {
            for t in ends {
                let step = self
                    .steps
                    .get_mut(&t)
                    .expect("a reservation's own breakpoint");
                step.refs -= 1;
                if step.refs == 0 {
                    self.steps.remove(&t);
                }
            }
        }
    }
}

/// Where a reservation's traffic enters and leaves the domain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathSegment {
    /// Upstream peer domain (None when this is the source domain).
    pub ingress_peer: Option<String>,
    /// Downstream peer domain (None when this is the destination domain).
    pub egress_peer: Option<String>,
}

/// Why the broker refused a reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// The domain-internal capacity check failed.
    Local(AdmissionError),
    /// The check against an SLA failed.
    Sla {
        /// Which peer's agreement.
        peer: String,
        /// Underlying admission failure.
        source: AdmissionError,
    },
    /// No SLA exists with the named peer — the request cannot even be
    /// considered ("a specific contract between peered domains comes into
    /// place").
    NoSla {
        /// The unknown peer.
        peer: String,
    },
    /// Unknown reservation id.
    Unknown(ReservationId),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::Local(e) => write!(f, "local capacity: {e}"),
            BrokerError::Sla { peer, source } => write!(f, "SLA with {peer}: {source}"),
            BrokerError::NoSla { peer } => write!(f, "no SLA with peer domain {peer}"),
            BrokerError::Unknown(id) => write!(f, "unknown reservation {id:?}"),
        }
    }
}

impl std::error::Error for BrokerError {}

/// A contract with one peer and the timeline that admits against it:
/// one map entry per peer and direction.
#[derive(Debug, Clone)]
pub(crate) struct Peering {
    pub(crate) sla: Arc<Sla>,
    pub(crate) timeline: Timeline,
}

/// Register `sla` with `peer`. A peer registered again keeps its
/// timeline, sized to the new contract: the reservations already
/// crossing it still count.
pub(crate) fn register(peers: &mut HashMap<String, Peering>, peer: String, sla: Sla) {
    let mut timeline = peers.remove(&peer).map(|p| p.timeline).unwrap_or_default();
    timeline.capacity_bps = sla.sls.committed_rate_bps;
    let sla = Arc::new(sla);
    peers.insert(peer, Peering { sla, timeline });
}

/// Every capacity of the domain.
#[derive(Debug, Clone, Default)]
pub(crate) struct Timelines {
    pub(crate) local: Timeline,
    pub(crate) ingress: HashMap<String, Peering>,
    pub(crate) egress: HashMap<String, Peering>,
}

impl Timelines {
    /// The ≤ 3 timelines a reservation along `segment` crosses, in the
    /// fixed ingress → local → egress order, each with the peer whose
    /// SLA it enforces (`None` for local capacity). A peer with no SLA
    /// yields its name and no timeline.
    fn legs<'a>(
        &'a mut self,
        segment: &'a PathSegment,
    ) -> impl Iterator<Item = (Option<&'a str>, Option<&'a mut Timeline>)> {
        let Timelines {
            local,
            ingress,
            egress,
        } = self;
        let peer = |peers: &'a mut HashMap<String, Peering>, name: &'a Option<String>| {
            name.as_deref()
                .map(|p| (Some(p), peers.get_mut(p).map(|e| &mut e.timeline)))
        };
        peer(ingress, &segment.ingress_peer)
            .into_iter()
            .chain([(None, Some(local))])
            .chain(peer(egress, &segment.egress_peer))
    }

    /// Add (`counts`) or remove `r`'s rate on every timeline it crosses.
    fn shift(&mut self, r: &Reservation, counts: bool) {
        for (_, timeline) in self.legs(&r.segment) {
            if let Some(timeline) = timeline {
                timeline.shift(r.interval, r.rate_bps, counts);
            }
        }
    }
}

/// How a timeline's refusal reads: against local capacity or a peer's
/// SLA.
fn refusal(peer: Option<&str>, source: AdmissionError) -> BrokerError {
    match peer {
        Some(peer) => BrokerError::Sla {
            peer: peer.to_string(),
            source,
        },
        None => BrokerError::Local(source),
    }
}

/// One reservation: what it holds, where it stands in the life cycle
/// and where it crosses the domain.
#[derive(Debug, Clone)]
pub(crate) struct Reservation {
    pub(crate) interval: Interval,
    pub(crate) rate_bps: u64,
    pub(crate) state: ResState,
    pub(crate) segment: PathSegment,
}

impl Reservation {
    pub(crate) fn held(interval: Interval, rate_bps: u64, segment: PathSegment) -> Self {
        Self {
            interval,
            rate_bps,
            state: ResState::Held,
            segment,
        }
    }

    /// Held or committed: it consumes capacity.
    pub(crate) fn counts(&self) -> bool {
        self.state != ResState::Released
    }
}

/// One record per reservation, over the timelines it crosses: the
/// admission half of a broker's ledger, and all of a
/// [`ReservationTable`] (a book with no peers). The hold, commit and
/// release rules are written here, once.
#[derive(Debug, Clone, Default)]
pub(crate) struct Book {
    pub(crate) timelines: Timelines,
    /// One record per reservation held here; a released one stays as a
    /// tombstone, and its id may be held again.
    pub(crate) records: HashMap<ReservationId, Reservation>,
}

impl Book {
    /// `local_capacity_bps` and no peers.
    pub(crate) fn new(local_capacity_bps: u64) -> Self {
        let mut book = Book::default();
        book.timelines.local.capacity_bps = local_capacity_bps;
        book
    }

    /// Check every timeline along `segment` in order, then shift them
    /// all: a refusal changes nothing. Each leg refuses as a table of
    /// its own would: the first an empty request, and the first that
    /// the record of an id still counting crosses too (its ingress
    /// peer's, or else local capacity) the duplicate.
    pub(crate) fn hold(
        &mut self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
        segment: &PathSegment,
    ) -> Result<(), BrokerError> {
        let duplicate_leg = self.records.get(&id).filter(|r| r.counts()).map(|r| {
            let ingress = &segment.ingress_peer;
            usize::from(ingress.is_some() && r.segment.ingress_peer != *ingress)
        });
        let mut legs: [Option<&mut Timeline>; 3] = Default::default();
        let crossed = self.timelines.legs(segment);
        for (i, (leg, (peer, timeline))) in legs.iter_mut().zip(crossed).enumerate() {
            let Some(timeline) = timeline else {
                let peer = peer.unwrap_or_default().to_string();
                return Err(BrokerError::NoSla { peer });
            };
            let rules = match i {
                0 if interval.secs() == 0 || rate_bps == 0 => Err(AdmissionError::EmptyRequest),
                _ if duplicate_leg == Some(i) => Err(AdmissionError::DuplicateReservation(id)),
                _ => timeline.admit(&interval, rate_bps),
            };
            rules.map_err(|source| refusal(peer, source))?;
            *leg = Some(timeline);
        }
        for timeline in legs.into_iter().flatten() {
            timeline.shift(interval, rate_bps, true);
        }
        let held = Reservation::held(interval, rate_bps, segment.clone());
        self.records.insert(id, held);
        Ok(())
    }

    /// Commit a held reservation. Committing twice is idempotent;
    /// committing a released id is refused, its capacity gone, and the
    /// refusal reads as its first leg's with a timeline, as a hold's.
    pub(crate) fn commit(&mut self, id: ReservationId) -> Result<(), BrokerError> {
        let r = self.records.get_mut(&id).ok_or(BrokerError::Unknown(id))?;
        if r.counts() {
            r.state = ResState::Committed;
            return Ok(());
        }
        let ingress = r.segment.ingress_peer.as_deref();
        let peer = ingress.filter(|p| self.timelines.ingress.contains_key(*p));
        Err(refusal(peer, AdmissionError::UnknownReservation(id)))
    }

    /// Move `id` to `state`, shifting its timelines if that starts or
    /// stops it counting. False for an unknown id.
    pub(crate) fn transition(&mut self, id: ReservationId, state: ResState) -> bool {
        let Some(r) = self.records.get_mut(&id) else {
            return false;
        };
        let counted = r.counts();
        r.state = state;
        if counted != r.counts() {
            self.timelines.shift(r, !counted);
        }
        true
    }

    /// Force `r` onto every timeline it crosses, replacing any record
    /// of `id` (see `ReservationTable::restore`).
    pub(crate) fn restore(&mut self, id: ReservationId, r: Reservation) {
        if r.counts() {
            self.timelines.shift(&r, true);
        }
        if let Some(old) = self.records.insert(id, r) {
            if old.counts() {
                self.timelines.shift(&old, false);
            }
        }
    }

    /// True if `id` exists and holds (held or committed) at `t`.
    pub(crate) fn active_at(&self, id: ReservationId, t: Timestamp) -> bool {
        let r = self.records.get(&id);
        r.is_some_and(|r| r.counts() && r.interval.contains(t))
    }

    /// The held and committed reservations, in id order.
    pub(crate) fn live(&self) -> Vec<(&ReservationId, &Reservation)> {
        let mut live: Vec<_> = self.records.iter().filter(|(_, r)| r.counts()).collect();
        live.sort_unstable_by_key(|(id, _)| **id);
        live
    }
}

/// A capacity-bounded advance-reservation table: a `Book` with no
/// peers, so one id map over one `Timeline`, for GARA's resource
/// managers and tests.
#[derive(Debug, Clone)]
pub struct ReservationTable(Book);

/// A table's refusals are all its one capacity's.
fn local(e: BrokerError) -> AdmissionError {
    match e {
        BrokerError::Local(e) => e,
        BrokerError::Unknown(id) => AdmissionError::UnknownReservation(id),
        BrokerError::Sla { .. } | BrokerError::NoSla { .. } => unreachable!("a table has no peers"),
    }
}

impl ReservationTable {
    /// A table managing `capacity_bps` of bandwidth.
    pub fn new(capacity_bps: u64) -> Self {
        Self(Book::new(capacity_bps))
    }

    fn timeline(&self) -> &Timeline {
        &self.0.timelines.local
    }

    /// Managed capacity.
    pub fn capacity_bps(&self) -> u64 {
        self.timeline().capacity_bps
    }

    /// Peak committed+held usage over `interval` (bits/s).
    pub fn peak_usage(&self, interval: &Interval) -> u64 {
        self.timeline().peak_usage(interval)
    }

    /// Committed+held usage at instant `t` (bits/s), saturating at
    /// `u64::MAX` (a recovered ledger may be over-committed).
    pub fn usage_at(&self, t: Timestamp) -> u64 {
        self.timeline().usage_at(t)
    }

    /// Available rate at instant `t`.
    pub fn available_at(&self, t: Timestamp) -> u64 {
        self.timeline().available_at(t)
    }

    /// Minimum available rate over `interval`.
    pub fn min_available(&self, interval: &Interval) -> u64 {
        self.timeline().min_available(interval)
    }

    /// Place a hold: capacity is consumed immediately, but the
    /// reservation is only [`ResState::Held`] until committed.
    pub fn hold(
        &mut self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
    ) -> Result<(), AdmissionError> {
        let segment = PathSegment::default();
        self.0.hold(id, interval, rate_bps, &segment).map_err(local)
    }

    /// Commit a held reservation; twice is idempotent, after a release
    /// an error.
    pub fn commit(&mut self, id: ReservationId) -> Result<(), AdmissionError> {
        self.0.commit(id).map_err(local)
    }

    /// Release (roll back) a reservation; its capacity is returned.
    pub fn release(&mut self, id: ReservationId) -> Result<(), AdmissionError> {
        if self.0.transition(id, ResState::Released) {
            Ok(())
        } else {
            Err(AdmissionError::UnknownReservation(id))
        }
    }

    /// State of a reservation.
    pub fn state(&self, id: ReservationId) -> Option<ResState> {
        self.0.records.get(&id).map(|r| r.state)
    }

    /// True if `id` exists and holds (held or committed) at `t`.
    pub fn active_at(&self, id: ReservationId, t: Timestamp) -> bool {
        self.0.active_at(id, t)
    }

    /// Force-apply a recovered reservation without admission checks
    /// (DESIGN.md §D13): replay rebuilds state that *was already
    /// admitted* before a crash, and overwriting makes replay after a
    /// snapshot idempotent.
    pub fn restore(
        &mut self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
        state: ResState,
    ) {
        let held = Reservation::held(interval, rate_bps, PathSegment::default());
        self.0.restore(id, Reservation { state, ..held });
    }

    /// Force a recovered state transition. Unknown ids are ignored —
    /// the matching hold record can legitimately be missing when it sat
    /// in an un-fsynced batch the crash discarded.
    pub fn restore_state(&mut self, id: ReservationId, state: ResState) {
        self.0.transition(id, state);
    }

    /// Iterate non-released reservations, in id order.
    pub fn iter_active(
        &self,
    ) -> impl Iterator<Item = (ReservationId, Interval, u64, ResState)> + '_ {
        let live = self.0.live().into_iter();
        live.map(|(id, r)| (*id, r.interval, r.rate_bps, r.state))
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
        assert_eq!(t.usage_at(Timestamp(7)), 50);
        t.release(ReservationId(2)).unwrap();
        assert_eq!(t.usage_at(Timestamp(7)), 30);
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
        assert!(t.0.timelines.local.steps.is_empty());
    }

    /// D16's invariant, checked against a scan: one breakpoint per
    /// distinct start/end of a counting entry, `refs` their number, and
    /// `level` the sum of the rates in force from there.
    fn assert_timeline_exact(t: &ReservationTable) {
        let mut expected: BTreeMap<Timestamp, usize> = BTreeMap::new();
        for e in t.0.records.values() {
            if e.state != ResState::Released && e.interval.secs() > 0 {
                *expected.entry(e.interval.start).or_default() += 1;
                *expected.entry(e.interval.end).or_default() += 1;
            }
        }
        let steps = &t.0.timelines.local.steps;
        let refs: BTreeMap<_, _> = steps.iter().map(|(at, s)| (*at, s.refs)).collect();
        assert_eq!(refs, expected);
        for (at, step) in steps {
            let scanned: u128 =
                t.0.records
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
        assert!(t.0.timelines.local.steps.is_empty());
    }
}
