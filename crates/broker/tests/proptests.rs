//! Property tests for admission control: the never-oversubscribe
//! invariant under arbitrary hold/commit/release interleavings, and two
//! model equivalences: a table against a scan, a broker against a table
//! per leg.

use proptest::prelude::*;
use qos_broker::{
    AdmissionError, BrokerCore, BrokerError, Interval, PathSegment, ResState, ReservationId,
    ReservationTable, Sla, Sls,
};
use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
use qos_storage::{
    LedgerRecord, LedgerSnapshot, LedgerStore, Recovered, SnapReservation, StoreStats,
    STATE_COMMITTED, STATE_HELD,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

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
    fn new(capacity_bps: u64) -> Self {
        ScanModel {
            capacity_bps,
            entries: BTreeMap::new(),
        }
    }

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
        let mut model = ScanModel::new(CAPACITY);
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
        prop_assert!(format!("{table:?}").contains("steps: {}"), "leaked breakpoints: {:?}", table);
    }
}

// ---------------------------------------------------------------------
// One record per broker (DESIGN.md §D39): `BrokerCore` against the
// ledger it replaced, which survives only here: a table per leg, each
// with its own copy of every reservation crossing it, a map of what
// each hold recorded, and a rollback leg by leg. The tables are the
// scanning model above, so no rule of the crate's is shared with it.
// ---------------------------------------------------------------------

/// The pre-D39 ledger of a transit broker with two ingress peers
/// (`domain-a`, `domain-e`) and one egress peer (`domain-c`).
struct TablesModel {
    local: ScanModel,
    ingress: ScanModel,
    ingress_e: ScanModel,
    egress: ScanModel,
    meta: HashMap<ReservationId, PathSegment>,
}

fn refusal(peer: Option<&str>, source: AdmissionError) -> BrokerError {
    match peer {
        Some(peer) => BrokerError::Sla {
            peer: peer.into(),
            source,
        },
        None => BrokerError::Local(source),
    }
}

type Leg<'a> = (Option<&'a str>, Option<&'a mut ScanModel>);

impl TablesModel {
    fn new() -> Self {
        TablesModel {
            local: ScanModel::new(LOCAL),
            ingress: ScanModel::new(INGRESS),
            ingress_e: ScanModel::new(INGRESS_E),
            egress: ScanModel::new(EGRESS),
            meta: HashMap::new(),
        }
    }

    /// The tables along `seg`, ingress → local → egress.
    fn legs<'a>(&'a mut self, seg: &'a PathSegment) -> Vec<Leg<'a>> {
        let mut legs = Vec::new();
        if let Some(p) = seg.ingress_peer.as_deref() {
            let table = match p {
                "domain-a" => Some(&mut self.ingress),
                "domain-e" => Some(&mut self.ingress_e),
                _ => None,
            };
            legs.push((Some(p), table));
        }
        legs.push((None, Some(&mut self.local)));
        if let Some(p) = seg.egress_peer.as_deref() {
            legs.push((Some(p), (p == "domain-c").then_some(&mut self.egress)));
        }
        legs
    }

    fn hold(
        &mut self,
        id: ReservationId,
        iv: Interval,
        rate: u64,
        seg: &PathSegment,
    ) -> Result<(), BrokerError> {
        let mut held = 0;
        let mut result = Ok(());
        for (peer, table) in self.legs(seg) {
            let Some(table) = table else {
                result = Err(BrokerError::NoSla {
                    peer: peer.unwrap().into(),
                });
                break;
            };
            if let Err(source) = table.hold(id, iv, rate) {
                result = Err(refusal(peer, source));
                break;
            }
            held += 1;
        }
        if result.is_err() {
            for (_, table) in self.legs(seg).into_iter().take(held) {
                table.unwrap().release(id).unwrap();
            }
        } else {
            self.meta.insert(id, seg.clone());
        }
        result
    }

    fn for_each_table(
        &mut self,
        id: ReservationId,
        f: impl Fn(&mut ScanModel) -> Result<(), AdmissionError>,
    ) -> Result<(), BrokerError> {
        let seg = self.meta.get(&id).ok_or(BrokerError::Unknown(id))?.clone();
        for (peer, table) in self.legs(&seg) {
            if let Some(table) = table {
                f(table).map_err(|source| refusal(peer, source))?;
            }
        }
        Ok(())
    }

    /// What `BrokerCore::state` reads. The one change D39 made: a
    /// refused hold of a new id leaves no record, where the parent's
    /// local table kept the tombstone of a leg it rolled back.
    fn state(&self, id: ReservationId) -> Option<ResState> {
        self.meta
            .get(&id)
            .and(self.local.entries.get(&id))
            .map(|e| e.2)
    }

    fn export(&self) -> Vec<SnapReservation> {
        let live = self
            .local
            .entries
            .iter()
            .filter(|(_, e)| e.2 != ResState::Released);
        live.map(|(id, &(iv, rate_bps, state))| SnapReservation {
            id: id.0,
            start: iv.start.0,
            end: iv.end.0,
            rate_bps,
            state: if state == ResState::Committed {
                STATE_COMMITTED
            } else {
                STATE_HELD
            },
            ingress: self.meta[id].ingress_peer.clone(),
            egress: self.meta[id].egress_peer.clone(),
        })
        .collect()
    }

    fn restore_record(&mut self, record: &LedgerRecord) {
        let (id, state) = match record {
            LedgerRecord::Hold {
                id,
                start,
                end,
                rate_bps,
                ingress,
                egress,
            } => {
                let id = ReservationId(*id);
                let iv = Interval::new(Timestamp(*start), Timestamp(*end));
                let seg = PathSegment {
                    ingress_peer: ingress.clone(),
                    egress_peer: egress.clone(),
                };
                for (_, table) in self.legs(&seg) {
                    if let Some(table) = table {
                        table.entries.insert(id, (iv, *rate_bps, ResState::Held));
                    }
                }
                self.meta.insert(id, seg);
                return;
            }
            LedgerRecord::Commit { id } => (*id, ResState::Committed),
            LedgerRecord::Release { id } => (*id, ResState::Released),
            _ => return,
        };
        let _ = self.for_each_table(ReservationId(id), |t| {
            t.restore_state(ReservationId(id), state);
            Ok(())
        });
    }
}

/// A store that keeps every record it is given.
#[derive(Default)]
struct Journal(Mutex<Vec<LedgerRecord>>);

impl LedgerStore for Journal {
    fn kind(&self) -> &'static str {
        "journal"
    }
    fn append(&self, record: &LedgerRecord) -> u64 {
        let mut records = self.0.lock().unwrap();
        records.push(record.clone());
        records.len() as u64 - 1
    }
    fn flush(&self) {}
    fn next_seq(&self) -> u64 {
        self.0.lock().unwrap().len() as u64
    }
    fn write_snapshot(&self, _: &LedgerSnapshot) {}
    fn take_recovered(&self) -> Recovered {
        Recovered::default()
    }
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

const LOCAL: u64 = 100;
const INGRESS: u64 = 60;
const INGRESS_E: u64 = 30;
const EGRESS: u64 = 50;

fn sla(up: &str, down: &str, rate: u64) -> Sla {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("RootCA"),
        KeyPair::from_seed(b"ca"),
    );
    Sla {
        upstream: up.into(),
        downstream: down.into(),
        sls: Sls::strict(rate),
        peer_cert: ca.issue_identity(
            DistinguishedName::broker(up),
            KeyPair::from_seed(up.as_bytes()).public(),
            Validity::unbounded(),
        ),
        ca_cert: ca.self_signed(),
        price_per_mbps_sec: 1,
    }
}

/// A transit broker with the model's capacities.
fn transit() -> BrokerCore {
    static SLAS: OnceLock<(Sla, Sla, Sla)> = OnceLock::new();
    let (ingress, ingress_e, egress) = SLAS.get_or_init(|| {
        (
            sla("domain-a", "domain-b", INGRESS),
            sla("domain-e", "domain-b", INGRESS_E),
            sla("domain-b", "domain-c", EGRESS),
        )
    });
    let b = BrokerCore::new("domain-b", LOCAL);
    b.add_ingress_sla(ingress.clone());
    b.add_ingress_sla(ingress_e.clone());
    b.add_egress_sla(egress.clone());
    b
}

/// The segments a hold may cross: transit, from the source, into the
/// destination, local only, an unknown peer on each side, and transit
/// from the second, smaller ingress peer.
const SEGMENTS: u64 = 7;

/// A hold of `id` crosses `segment_of(id + k)`: mostly `k` is 0 and an
/// id keeps one segment, as a request keeps its path; otherwise an id
/// that still counts is held again along another one.
fn segment_of(n: u64) -> PathSegment {
    let (ingress, egress) = [
        (Some("domain-a"), Some("domain-c")),
        (None, Some("domain-c")),
        (Some("domain-a"), None),
        (None, None),
        (Some("domain-x"), None),
        (Some("domain-a"), Some("domain-y")),
        (Some("domain-e"), Some("domain-c")),
    ][(n % SEGMENTS) as usize];
    PathSegment {
        ingress_peer: ingress.map(Into::into),
        egress_peer: egress.map(Into::into),
    }
}

#[derive(Debug, Clone)]
enum LedgerOp {
    Hold(u64, Interval, u64, u64),
    Commit(u64),
    Release(u64),
}

fn arb_ledger_hold() -> impl Strategy<Value = LedgerOp> {
    let k = prop_oneof![Just(0), 0..SEGMENTS];
    (0..IDS, arb_interval(), 0u64..40, k)
        .prop_map(|(id, iv, rate, k)| LedgerOp::Hold(id, iv, rate, k))
}

fn arb_ledger_op() -> impl Strategy<Value = LedgerOp> {
    prop_oneof![
        arb_ledger_hold(),
        arb_ledger_hold(),
        (0..IDS).prop_map(LedgerOp::Commit),
        (0..IDS).prop_map(LedgerOp::Release),
    ]
}

proptest! {
    /// After every op of an arbitrary script, `BrokerCore` (one record
    /// per reservation over three timelines) and the three-table model
    /// agree on the op's result, on every id's state, on local headroom
    /// and the ingress aggregate at every instant, and on the exported
    /// reservations; the broker's WAL, replayed into a fresh broker and
    /// a fresh model, and its snapshot, restored, agree again.
    #[test]
    fn a_broker_is_three_tables(ops in proptest::collection::vec(arb_ledger_op(), 1..60)) {
        let live = transit();
        let journal = Arc::new(Journal::default());
        live.set_store(journal.clone());
        let mut model = TablesModel::new();
        for op in &ops {
            let (got, want) = match *op {
                LedgerOp::Hold(id, iv, rate, k) => {
                    let seg = segment_of(id + k);
                    let id = ReservationId(id);
                    (live.hold(id, iv, rate, seg.clone()), model.hold(id, iv, rate, &seg))
                }
                LedgerOp::Commit(id) => {
                    let id = ReservationId(id);
                    (live.commit(id), model.for_each_table(id, |t| t.commit(id)))
                }
                LedgerOp::Release(id) => {
                    let id = ReservationId(id);
                    (live.release(id), model.for_each_table(id, |t| t.release(id)))
                }
            };
            prop_assert_eq!(got, want, "{:?}", op);
            for id in (0..IDS).map(ReservationId) {
                prop_assert_eq!(live.state(id), model.state(id), "{:?} after {:?}", id, op);
            }
            for t in (0..=HORIZON).map(Timestamp) {
                prop_assert_eq!(live.available_bw_at(t), LOCAL.saturating_sub(model.local.usage_at(t)));
                prop_assert_eq!(live.admitted_ingress_aggregate("domain-a", t), model.ingress.usage_at(t));
                prop_assert_eq!(live.admitted_ingress_aggregate("domain-e", t), model.ingress_e.usage_at(t));
            }
            prop_assert_eq!(live.export_snapshot(0).reservations, model.export(), "after {:?}", op);
        }

        let records = journal.0.lock().unwrap().clone();
        let replayed = transit();
        let mut model = TablesModel::new();
        for record in &records {
            replayed.restore_record(record);
            model.restore_record(record);
        }
        let snapshot = live.export_snapshot(0);
        prop_assert_eq!(&replayed.export_snapshot(0), &snapshot);
        prop_assert_eq!(model.export(), snapshot.reservations.clone());
        let restored = transit();
        restored.restore_snapshot(&snapshot);
        prop_assert_eq!(restored.ledger_digest(), live.ledger_digest());
        for t in (0..=HORIZON).map(Timestamp) {
            prop_assert_eq!(replayed.available_bw_at(t), live.available_bw_at(t));
            prop_assert_eq!(restored.admitted_ingress_aggregate("domain-a", t), live.admitted_ingress_aggregate("domain-a", t));
        }
    }
}
