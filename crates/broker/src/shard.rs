//! The striped, shareable bandwidth ledger behind [`BrokerCore`].
//!
//! One [`SlaBook`] per administrative domain, shared by every admission
//! shard of that domain's broker (DESIGN.md §D11). The serialized
//! `BrokerCore` of earlier revisions owned its tables outright; with N
//! admission shards racing on one domain's capacity, the book instead
//! stripes its state so shards only contend where they genuinely touch
//! the same resource:
//!
//! * each reservation table (local capacity, one per ingress SLA, one
//!   per egress SLA) sits behind its own mutex — a hold crossing
//!   `a → self → c` never blocks a hold crossing `b → self → d`;
//! * reservation metadata is striped by id hash across
//!   [`LEDGER_STRIPES`] mutexes;
//! * the SLA contract maps are read-mostly (`RwLock`, written only
//!   during topology setup);
//! * billing appends go through one dedicated mutex (cold path).
//!
//! Locks are only ever taken **one at a time** — every operation
//! acquires a table, updates it, and releases it before touching the
//! next (the hold path reconciles a mid-sequence failure by releasing
//! the tables it already holds, exactly like the serialized rollback).
//! No nested acquisition means no lock-order discipline to violate and
//! no possibility of deadlock between shards.
//!
//! Capacity is deliberately **not** partitioned per shard: every shard
//! admits against the same tables, so the committed bandwidth after a
//! run is identical for 1 shard or N — the parity invariant the
//! transport experiment gates on.
//!
//! Since DESIGN.md §D30 nothing races on the book (one admission worker
//! per broker); the striping is an open row of DESIGN.md §6's ledger.

use crate::billing::{BillingLedger, Invoice};
use crate::broker::{BrokerError, PathSegment};
use crate::reservations::{AdmissionError, Interval, ResState, ReservationId, ReservationTable};
use crate::sla::Sla;
use qos_crypto::sha256::Sha256;
use qos_crypto::Timestamp;
use qos_storage::{
    LedgerRecord, LedgerSnapshot, SharedStore, SnapInvoice, SnapReservation, STATE_COMMITTED,
    STATE_HELD,
};
use qos_telemetry::{Counter, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Metadata stripes: enough that shards working distinct reservations
/// rarely collide, small enough to stay cache-friendly.
pub const LEDGER_STRIPES: usize = 8;

#[derive(Debug, Clone)]
pub(crate) struct ResMeta {
    pub(crate) interval: Interval,
    pub(crate) rate_bps: u64,
    pub(crate) segment: PathSegment,
}

/// Life-cycle counters for one resource core (detached no-ops by
/// default). `Counter` handles are internally `Arc`'d, so every shard's
/// increments land in the same cells.
#[derive(Default)]
pub(crate) struct CoreCounters {
    pub(crate) holds_ok: Counter,
    pub(crate) holds_refused: Counter,
    pub(crate) commits: Counter,
    pub(crate) releases: Counter,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A domain's striped bandwidth ledger: reservation tables, SLA
/// contracts, reservation metadata, and billing, all independently
/// lockable so N admission shards share one book without serializing on
/// a single big lock.
pub struct SlaBook {
    domain: String,
    local: Mutex<ReservationTable>,
    ingress: RwLock<HashMap<String, Arc<Mutex<ReservationTable>>>>,
    egress: RwLock<HashMap<String, Arc<Mutex<ReservationTable>>>>,
    slas_in: RwLock<HashMap<String, Arc<Sla>>>,
    slas_out: RwLock<HashMap<String, Arc<Sla>>>,
    meta: [Mutex<HashMap<ReservationId, ResMeta>>; LEDGER_STRIPES],
    billing: Mutex<BillingLedger>,
    counters: RwLock<CoreCounters>,
    /// The durable ledger store (DESIGN.md §D13). Shared by every shard
    /// of the domain through this book, so striped appends land in one
    /// WAL regardless of which shard admitted.
    store: RwLock<Option<SharedStore>>,
}

impl SlaBook {
    /// A ledger managing `local_capacity_bps` of internal EF capacity.
    pub fn new(domain: &str, local_capacity_bps: u64) -> Self {
        Self {
            domain: domain.to_string(),
            local: Mutex::new(ReservationTable::new(local_capacity_bps)),
            ingress: RwLock::new(HashMap::new()),
            egress: RwLock::new(HashMap::new()),
            slas_in: RwLock::new(HashMap::new()),
            slas_out: RwLock::new(HashMap::new()),
            meta: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            billing: Mutex::new(BillingLedger::new()),
            counters: RwLock::new(CoreCounters::default()),
            store: RwLock::new(None),
        }
    }

    /// Attach the durable ledger store. Every admission verdict, hold,
    /// commit, release and billing settlement from here on appends a
    /// record — attach *after* recovery replay so replay itself is not
    /// re-logged.
    pub fn set_store(&self, store: SharedStore) {
        *self.store.write().unwrap_or_else(|e| e.into_inner()) = Some(store);
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<SharedStore> {
        self.store.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn append_record(&self, record: LedgerRecord) {
        if let Some(store) = self.store() {
            store.append(&record);
        }
    }

    /// The domain this ledger accounts for.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    pub(crate) fn set_telemetry(&self, telemetry: &Telemetry) {
        let d = self.domain.clone();
        *self.counters.write().unwrap_or_else(|e| e.into_inner()) = CoreCounters {
            holds_ok: telemetry.counter(
                "broker_holds_total",
                "Two-phase capacity holds by outcome",
                &[("domain", &d), ("decision", "held")],
            ),
            holds_refused: telemetry.counter(
                "broker_holds_total",
                "Two-phase capacity holds by outcome",
                &[("domain", &d), ("decision", "refused")],
            ),
            commits: telemetry.counter(
                "broker_commits_total",
                "Held reservations committed after end-to-end approval",
                &[("domain", &d)],
            ),
            releases: telemetry.counter(
                "broker_releases_total",
                "Reservations released (denial, cancellation, or expiry)",
                &[("domain", &d)],
            ),
        };
    }

    fn counter(&self, pick: impl FnOnce(&CoreCounters) -> &Counter) -> Counter {
        pick(&self.counters.read().unwrap_or_else(|e| e.into_inner())).clone()
    }

    fn meta_stripe(&self, id: ReservationId) -> &Mutex<HashMap<ReservationId, ResMeta>> {
        &self.meta[(id.0 as usize) % LEDGER_STRIPES]
    }

    fn ingress_table(&self, peer: &str) -> Option<Arc<Mutex<ReservationTable>>> {
        self.ingress
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(peer)
            .cloned()
    }

    fn egress_table(&self, peer: &str) -> Option<Arc<Mutex<ReservationTable>>> {
        self.egress
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(peer)
            .cloned()
    }

    pub(crate) fn add_ingress_sla(&self, sla: Sla) {
        debug_assert_eq!(sla.downstream, self.domain);
        self.ingress
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                sla.upstream.clone(),
                Arc::new(Mutex::new(ReservationTable::new(
                    sla.sls.committed_rate_bps,
                ))),
            );
        self.slas_in
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(sla.upstream.clone(), Arc::new(sla));
    }

    pub(crate) fn add_egress_sla(&self, sla: Sla) {
        debug_assert_eq!(sla.upstream, self.domain);
        self.egress
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                sla.downstream.clone(),
                Arc::new(Mutex::new(ReservationTable::new(
                    sla.sls.committed_rate_bps,
                ))),
            );
        self.slas_out
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(sla.downstream.clone(), Arc::new(sla));
    }

    pub(crate) fn ingress_sla(&self, peer: &str) -> Option<Arc<Sla>> {
        self.slas_in
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(peer)
            .cloned()
    }

    pub(crate) fn egress_sla(&self, peer: &str) -> Option<Arc<Sla>> {
        self.slas_out
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(peer)
            .cloned()
    }

    pub(crate) fn record_invoice(&self, invoice: Invoice) {
        // Mutation before append: a snapshot capturing seq S must
        // already reflect every record ≤ S (see `LedgerSnapshot`).
        let record = LedgerRecord::Invoice {
            payer: invoice.payer.clone(),
            payee: invoice.payee.clone(),
            reservation: invoice.reservation,
            amount: invoice.amount,
        };
        lock(&self.billing).record(invoice);
        self.append_record(record);
    }

    pub(crate) fn invoices(&self) -> Vec<Invoice> {
        lock(&self.billing).invoices().to_vec()
    }

    pub(crate) fn balances(&self) -> BTreeMap<String, i128> {
        lock(&self.billing).balances()
    }

    pub(crate) fn hold(
        &self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
        segment: PathSegment,
    ) -> Result<(), BrokerError> {
        let (ingress, egress) = (segment.ingress_peer.clone(), segment.egress_peer.clone());
        let result = self.hold_inner(id, interval, rate_bps, segment);
        match &result {
            Ok(()) => {
                self.counter(|c| &c.holds_ok).inc();
                self.append_record(LedgerRecord::Hold {
                    id: id.0,
                    start: interval.start.0,
                    end: interval.end.0,
                    rate_bps,
                    ingress,
                    egress,
                });
            }
            Err(_) => {
                self.counter(|c| &c.holds_refused).inc();
                self.append_record(LedgerRecord::Deny { id: id.0, rate_bps });
            }
        }
        result
    }

    fn hold_inner(
        &self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
        segment: PathSegment,
    ) -> Result<(), BrokerError> {
        // Ingress SLA check.
        if let Some(peer) = &segment.ingress_peer {
            let table = self
                .ingress_table(peer)
                .ok_or_else(|| BrokerError::NoSla { peer: peer.clone() })?;
            lock(&table)
                .hold(id, interval, rate_bps)
                .map_err(|source| BrokerError::Sla {
                    peer: peer.clone(),
                    source,
                })?;
        }
        // Local capacity check.
        if let Err(e) = lock(&self.local).hold(id, interval, rate_bps) {
            if let Some(peer) = &segment.ingress_peer {
                if let Some(t) = self.ingress_table(peer) {
                    let _ = lock(&t).release(id);
                }
            }
            return Err(BrokerError::Local(e));
        }
        // Egress SLA check.
        if let Some(peer) = &segment.egress_peer {
            let Some(table) = self.egress_table(peer) else {
                self.rollback_partial(id, &segment, /*egress_held=*/ false);
                return Err(BrokerError::NoSla { peer: peer.clone() });
            };
            let held = lock(&table).hold(id, interval, rate_bps);
            if let Err(source) = held {
                self.rollback_partial(id, &segment, false);
                return Err(BrokerError::Sla {
                    peer: peer.clone(),
                    source,
                });
            }
        }
        lock(self.meta_stripe(id)).insert(
            id,
            ResMeta {
                interval,
                rate_bps,
                segment,
            },
        );
        Ok(())
    }

    fn rollback_partial(&self, id: ReservationId, segment: &PathSegment, egress_held: bool) {
        let _ = lock(&self.local).release(id);
        if let Some(peer) = &segment.ingress_peer {
            if let Some(t) = self.ingress_table(peer) {
                let _ = lock(&t).release(id);
            }
        }
        if egress_held {
            if let Some(peer) = &segment.egress_peer {
                if let Some(t) = self.egress_table(peer) {
                    let _ = lock(&t).release(id);
                }
            }
        }
    }

    /// Apply `f` to every table the reservation crosses, in the fixed
    /// ingress → local → egress order (one lock at a time).
    fn for_each_table(
        &self,
        id: ReservationId,
        f: impl Fn(&mut ReservationTable, ReservationId) -> Result<(), AdmissionError>,
    ) -> Result<(), BrokerError> {
        let meta = lock(self.meta_stripe(id))
            .get(&id)
            .cloned()
            .ok_or(BrokerError::Unknown(id))?;
        if let Some(peer) = &meta.segment.ingress_peer {
            if let Some(t) = self.ingress_table(peer) {
                f(&mut lock(&t), id).map_err(|source| BrokerError::Sla {
                    peer: peer.clone(),
                    source,
                })?;
            }
        }
        f(&mut lock(&self.local), id).map_err(BrokerError::Local)?;
        if let Some(peer) = &meta.segment.egress_peer {
            if let Some(t) = self.egress_table(peer) {
                f(&mut lock(&t), id).map_err(|source| BrokerError::Sla {
                    peer: peer.clone(),
                    source,
                })?;
            }
        }
        Ok(())
    }

    pub(crate) fn commit(&self, id: ReservationId) -> Result<(), BrokerError> {
        let result = self.for_each_table(id, |t, id| t.commit(id));
        if result.is_ok() {
            self.counter(|c| &c.commits).inc();
            self.append_record(LedgerRecord::Commit { id: id.0 });
        }
        result
    }

    pub(crate) fn release(&self, id: ReservationId) -> Result<(), BrokerError> {
        let result = self.for_each_table(id, |t, id| t.release(id));
        if result.is_ok() {
            self.counter(|c| &c.releases).inc();
            self.append_record(LedgerRecord::Release { id: id.0 });
        }
        result
    }

    pub(crate) fn state(&self, id: ReservationId) -> Option<ResState> {
        lock(&self.local).state(id)
    }

    pub(crate) fn info(&self, id: ReservationId) -> Option<(Interval, u64, PathSegment)> {
        lock(self.meta_stripe(id))
            .get(&id)
            .map(|m| (m.interval, m.rate_bps, m.segment.clone()))
    }

    pub(crate) fn available_bw_at(&self, t: Timestamp) -> u64 {
        lock(&self.local).available_at(t)
    }

    pub(crate) fn admitted_ingress_aggregate(&self, peer: &str, t: Timestamp) -> u64 {
        self.ingress_table(peer)
            .map(|table| lock(&table).admitted_aggregate_at(t))
            .unwrap_or(0)
    }

    pub(crate) fn reservation_active_at(&self, id: ReservationId, t: Timestamp) -> bool {
        lock(&self.local).active_at(id, t)
    }

    // ------------------------------------------------------------------
    // Durable-ledger recovery and export (DESIGN.md §D13). Restores
    // force-apply without admission math — replay rebuilds state that
    // was already admitted before a crash — and are idempotent, because
    // a snapshot may reflect records sequenced after its capture point.
    // ------------------------------------------------------------------

    /// Replay one recovered WAL record. Forgiving: transitions whose
    /// hold record sat in an un-fsynced batch the crash discarded are
    /// ignored, and ticket records belong to the transport layer.
    pub fn restore_record(&self, record: &LedgerRecord) {
        match record {
            LedgerRecord::Hold {
                id,
                start,
                end,
                rate_bps,
                ingress,
                egress,
            } => self.restore_reservation(&SnapReservation {
                id: *id,
                start: *start,
                end: *end,
                rate_bps: *rate_bps,
                state: STATE_HELD,
                ingress: ingress.clone(),
                egress: egress.clone(),
            }),
            LedgerRecord::Deny { .. } => {}
            LedgerRecord::Commit { id } => {
                self.restore_transition(ReservationId(*id), ResState::Committed)
            }
            LedgerRecord::Release { id } => {
                self.restore_transition(ReservationId(*id), ResState::Released)
            }
            LedgerRecord::Invoice {
                payer,
                payee,
                reservation,
                amount,
            } => self.restore_invoice(&SnapInvoice {
                payer: payer.clone(),
                payee: payee.clone(),
                reservation: *reservation,
                amount: *amount,
            }),
            LedgerRecord::TicketKey { .. } | LedgerRecord::TicketIssued { .. } => {}
        }
    }

    /// Force one reservation back into every table it crossed.
    pub fn restore_reservation(&self, snap: &SnapReservation) {
        let id = ReservationId(snap.id);
        let interval = Interval::new(Timestamp(snap.start), Timestamp(snap.end));
        let state = if snap.state == STATE_COMMITTED {
            ResState::Committed
        } else {
            ResState::Held
        };
        let segment = PathSegment {
            ingress_peer: snap.ingress.clone(),
            egress_peer: snap.egress.clone(),
        };
        if let Some(peer) = &segment.ingress_peer {
            if let Some(t) = self.ingress_table(peer) {
                lock(&t).restore(id, interval, snap.rate_bps, state);
            }
        }
        lock(&self.local).restore(id, interval, snap.rate_bps, state);
        if let Some(peer) = &segment.egress_peer {
            if let Some(t) = self.egress_table(peer) {
                lock(&t).restore(id, interval, snap.rate_bps, state);
            }
        }
        lock(self.meta_stripe(id)).insert(
            id,
            ResMeta {
                interval,
                rate_bps: snap.rate_bps,
                segment,
            },
        );
    }

    fn restore_transition(&self, id: ReservationId, state: ResState) {
        let Some(meta) = lock(self.meta_stripe(id)).get(&id).cloned() else {
            return;
        };
        if let Some(peer) = &meta.segment.ingress_peer {
            if let Some(t) = self.ingress_table(peer) {
                lock(&t).restore_state(id, state);
            }
        }
        lock(&self.local).restore_state(id, state);
        if let Some(peer) = &meta.segment.egress_peer {
            if let Some(t) = self.egress_table(peer) {
                lock(&t).restore_state(id, state);
            }
        }
    }

    /// Re-record one recovered invoice, skipping exact duplicates — the
    /// one restore that is not naturally idempotent, because billing is
    /// append-only and `(payer, payee, reservation)` settles once.
    pub fn restore_invoice(&self, snap: &SnapInvoice) {
        let invoice = Invoice {
            payer: snap.payer.clone(),
            payee: snap.payee.clone(),
            reservation: snap.reservation,
            amount: snap.amount,
        };
        let mut billing = lock(&self.billing);
        if billing.contains(&invoice) {
            return;
        }
        billing.record(invoice);
    }

    /// Restore everything a snapshot carries for this layer
    /// (reservations + invoices; tickets belong to the transport).
    pub fn restore_snapshot(&self, snapshot: &LedgerSnapshot) {
        for r in &snapshot.reservations {
            self.restore_reservation(r);
        }
        for i in &snapshot.invoices {
            self.restore_invoice(i);
        }
    }

    /// Flatten the live (non-released) reservation set into snapshot
    /// rows, in id order.
    pub fn export_reservations(&self) -> Vec<SnapReservation> {
        let rows: Vec<_> = {
            let local = lock(&self.local);
            local.iter_active().collect()
        };
        rows.into_iter()
            .map(|(id, interval, rate_bps, state)| {
                let segment = lock(self.meta_stripe(id))
                    .get(&id)
                    .map(|m| m.segment.clone())
                    .unwrap_or_default();
                SnapReservation {
                    id: id.0,
                    start: interval.start.0,
                    end: interval.end.0,
                    rate_bps,
                    state: if state == ResState::Committed {
                        STATE_COMMITTED
                    } else {
                        STATE_HELD
                    },
                    ingress: segment.ingress_peer,
                    egress: segment.egress_peer,
                }
            })
            .collect()
    }

    /// Invoices in canonical (sorted) order — replay order and live
    /// order may differ, so snapshots and digests always sort.
    pub fn export_invoices(&self) -> Vec<SnapInvoice> {
        let mut out: Vec<SnapInvoice> = lock(&self.billing)
            .invoices()
            .iter()
            .map(|i| SnapInvoice {
                payer: i.payer.clone(),
                payee: i.payee.clone(),
                reservation: i.reservation,
                amount: i.amount,
            })
            .collect();
        out.sort_by(|a, b| {
            (&a.payer, &a.payee, a.reservation, a.amount).cmp(&(
                &b.payer,
                &b.payee,
                b.reservation,
                b.amount,
            ))
        });
        out
    }

    /// Everything this layer contributes to a snapshot captured at
    /// WAL sequence `seq`.
    pub fn export_snapshot(&self, seq: u64) -> LedgerSnapshot {
        LedgerSnapshot {
            seq,
            ticket_key: None,
            reservations: self.export_reservations(),
            invoices: self.export_invoices(),
            tickets: Vec::new(),
        }
    }

    /// SHA-256 over the canonical encoding of the active reservation
    /// set and sorted invoices. The kill -9 recovery gate asserts this
    /// is byte-identical between a killed-and-restarted broker and a
    /// never-killed control run.
    pub fn ledger_digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        for r in self.export_reservations() {
            h.update(&qos_wire::to_bytes(&r));
        }
        for i in self.export_invoices() {
            h.update(&qos_wire::to_bytes(&i));
        }
        h.finalize()
    }

    /// `(active, committed, invoices, committed_bps_at_t)` — the
    /// `/storage` admin endpoint's ledger summary line.
    pub fn ledger_summary(&self, t: Timestamp) -> (u64, u64, u64, u64) {
        let (mut active, mut committed, mut committed_bps) = (0u64, 0u64, 0u64);
        {
            let local = lock(&self.local);
            for (_, interval, rate, state) in local.iter_active() {
                active += 1;
                if state == ResState::Committed {
                    committed += 1;
                    if interval.contains(t) {
                        committed_bps += rate;
                    }
                }
            }
        }
        let invoices = lock(&self.billing).invoices().len() as u64;
        (active, committed, invoices, committed_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sla::Sls;
    use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Validity};
    use std::sync::Arc;

    const MBPS: u64 = 1_000_000;

    fn sla(up: &str, down: &str, rate: u64) -> Sla {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("RootCA"),
            KeyPair::from_seed(b"ca"),
        );
        let root = ca.self_signed();
        let peer = ca.issue_identity(
            DistinguishedName::broker(up),
            KeyPair::from_seed(up.as_bytes()).public(),
            Validity::unbounded(),
        );
        Sla {
            upstream: up.into(),
            downstream: down.into(),
            sls: Sls::strict(rate),
            peer_cert: peer,
            ca_cert: root,
            price_per_mbps_sec: 1,
        }
    }

    #[test]
    fn meta_striping_is_total() {
        for id in 0..1000u64 {
            let book = SlaBook::new("d", MBPS);
            assert!(book.meta_stripe(ReservationId(id)) as *const _ as usize != 0);
        }
    }

    #[test]
    fn concurrent_holds_share_one_capacity_pool() {
        // 8 threads race 64 holds of 1 Mb/s each against a 32 Mb/s local
        // pool: exactly 32 must succeed, whatever the interleaving — the
        // book shares capacity instead of splitting it per shard.
        let book = Arc::new(SlaBook::new("domain-b", 32 * MBPS));
        let iv = Interval::new(Timestamp(0), Timestamp(100));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let b = Arc::clone(&book);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0u64;
                for i in 0..8u64 {
                    if b.hold(ReservationId(t * 8 + i), iv, MBPS, PathSegment::default())
                        .is_ok()
                    {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let granted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(granted, 32);
        assert_eq!(book.available_bw_at(Timestamp(10)), 0);
    }

    #[test]
    fn concurrent_commit_release_lifecycle() {
        let book = Arc::new(SlaBook::new("domain-b", 100 * MBPS));
        book.add_ingress_sla(sla("domain-a", "domain-b", 100 * MBPS));
        book.add_egress_sla(sla("domain-b", "domain-c", 100 * MBPS));
        let iv = Interval::new(Timestamp(0), Timestamp(100));
        let seg = PathSegment {
            ingress_peer: Some("domain-a".into()),
            egress_peer: Some("domain-c".into()),
        };
        for i in 0..16u64 {
            book.hold(ReservationId(i), iv, MBPS, seg.clone()).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let b = Arc::clone(&book);
            handles.push(std::thread::spawn(move || {
                for i in 0..4u64 {
                    let id = ReservationId(t * 4 + i);
                    if t % 2 == 0 {
                        b.commit(id).unwrap();
                    } else {
                        b.release(id).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Two threads committed 8, two released 8.
        assert_eq!(book.available_bw_at(Timestamp(10)), 92 * MBPS);
        assert_eq!(
            book.admitted_ingress_aggregate("domain-a", Timestamp(10)),
            8 * MBPS
        );
    }
}
