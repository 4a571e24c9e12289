//! The bandwidth broker's resource-management core.
//!
//! One [`BrokerCore`] per administrative domain. It admits every
//! reservation against up to three capacities, all with
//! advance-reservation semantics and a two-phase (hold → commit /
//! release) life cycle:
//!
//! * **local capacity** — the domain's internal EF capacity;
//! * **per-ingress SLAs** — how much EF the domain accepts from each
//!   upstream peer (what the ingress aggregate policer is dimensioned
//!   from);
//! * **per-egress SLAs** — how much EF the domain may inject into each
//!   downstream peer.
//!
//! The signalling protocol (crate `qos-core`) drives this core: it admits
//! on request arrival, commits when the end-to-end approval propagates
//! back, and releases on denial.
//!
//! One broker per domain, run by one thread (DESIGN.md §D30, §D32), so
//! the whole ledger — timelines, SLAs, reservations, billing, counters
//! and the durable store — sits behind one mutex, and each public call
//! takes it once (§D31). The lock is what keeps the `&self` surface:
//! experiments and the admin plane read (and set-up code mutates) the
//! ledger through a shared `&BrokerCore`.

use crate::billing::{BillingLedger, Invoice};
use crate::reservations::{
    register, Book, BrokerError, Interval, PathSegment, ResState, Reservation, ReservationId,
};
use crate::sla::Sla;
use qos_crypto::sha256::Sha256;
use qos_crypto::Timestamp;
use qos_storage::{
    LedgerRecord, LedgerSnapshot, SharedStore, SnapInvoice, SnapReservation, STATE_COMMITTED,
    STATE_HELD,
};
use qos_telemetry::{Counter, Telemetry};
use std::sync::{Arc, Mutex, MutexGuard};

/// Life-cycle counters (detached no-ops until `set_telemetry`).
#[derive(Default)]
struct CoreCounters {
    holds_ok: Counter,
    holds_refused: Counter,
    commits: Counter,
    releases: Counter,
}

/// Everything the broker's lock guards.
struct Ledger {
    book: Book,
    billing: BillingLedger,
    counters: CoreCounters,
    /// The durable ledger store (DESIGN.md §D13). A record is appended
    /// under the same lock as the change it logs, so a snapshot that
    /// captures seq S reflects every record ≤ S (see `LedgerSnapshot`).
    store: Option<SharedStore>,
}

impl Ledger {
    fn append(&self, record: &LedgerRecord) {
        if let Some(store) = &self.store {
            store.append(record);
        }
    }

    /// The live reservations in id order.
    fn export_reservations(&self) -> Vec<SnapReservation> {
        let live = self.book.live().into_iter();
        live.map(|(id, r)| SnapReservation {
            id: id.0,
            start: r.interval.start.0,
            end: r.interval.end.0,
            rate_bps: r.rate_bps,
            state: if r.state == ResState::Committed {
                STATE_COMMITTED
            } else {
                STATE_HELD
            },
            ingress: r.segment.ingress_peer.clone(),
            egress: r.segment.egress_peer.clone(),
        })
        .collect()
    }

    fn export_invoices(&self) -> Vec<SnapInvoice> {
        let mut out: Vec<SnapInvoice> = self
            .billing
            .invoices()
            .iter()
            .map(|i| SnapInvoice {
                payer: i.payer.clone(),
                payee: i.payee.clone(),
                reservation: i.reservation,
                amount: i.amount,
            })
            .collect();
        out.sort();
        out
    }
}

/// Force one recovered reservation back into `book`, replacing any
/// record of its id.
fn restore_reservation(book: &mut Book, snap: SnapReservation) {
    let segment = PathSegment {
        ingress_peer: snap.ingress,
        egress_peer: snap.egress,
    };
    let interval = Interval::new(Timestamp(snap.start), Timestamp(snap.end));
    let mut r = Reservation::held(interval, snap.rate_bps, segment);
    if snap.state == STATE_COMMITTED {
        r.state = ResState::Committed;
    }
    book.restore(ReservationId(snap.id), r);
}

/// A domain's bandwidth-broker resource core: its whole ledger, behind
/// one lock.
pub struct BrokerCore {
    domain: String,
    ledger: Mutex<Ledger>,
}

impl BrokerCore {
    /// A broker managing `local_capacity_bps` of internal EF capacity.
    pub fn new(domain: &str, local_capacity_bps: u64) -> Self {
        Self {
            domain: domain.to_string(),
            ledger: Mutex::new(Ledger {
                book: Book::new(local_capacity_bps),
                billing: BillingLedger::new(),
                counters: CoreCounters::default(),
                store: None,
            }),
        }
    }

    /// The ledger, poison-tolerant: a panic elsewhere must not stop the
    /// broker admitting.
    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Route this core's reservation life-cycle counters into
    /// `telemetry`: `broker_holds_total{domain,decision=held|refused}`,
    /// `broker_commits_total{domain}`, `broker_releases_total{domain}`.
    pub fn set_telemetry(&self, telemetry: &Telemetry) {
        let d = self.domain.as_str();
        let holds = |decision: &str| {
            telemetry.counter(
                "broker_holds_total",
                "Two-phase capacity holds by outcome",
                &[("domain", d), ("decision", decision)],
            )
        };
        let counters = CoreCounters {
            holds_ok: holds("held"),
            holds_refused: holds("refused"),
            commits: telemetry.counter(
                "broker_commits_total",
                "Held reservations committed after end-to-end approval",
                &[("domain", d)],
            ),
            releases: telemetry.counter(
                "broker_releases_total",
                "Reservations released (denial, cancellation, or expiry)",
                &[("domain", d)],
            ),
        };
        self.ledger().counters = counters;
    }

    /// The domain this broker controls.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// Register the SLA under which `sla.upstream` sends traffic *into*
    /// this domain.
    pub fn add_ingress_sla(&self, sla: Sla) {
        debug_assert_eq!(sla.downstream, self.domain);
        let peer = sla.upstream.clone();
        register(&mut self.ledger().book.timelines.ingress, peer, sla);
    }

    /// Register the SLA under which this domain sends traffic into
    /// `sla.downstream`.
    pub fn add_egress_sla(&self, sla: Sla) {
        debug_assert_eq!(sla.upstream, self.domain);
        let peer = sla.downstream.clone();
        register(&mut self.ledger().book.timelines.egress, peer, sla);
    }

    /// A copy of the SLA with the upstream peer `peer`, if any — owned,
    /// for set-up code that amends a contract and registers it again
    /// with [`BrokerCore::add_ingress_sla`].
    pub fn ingress_sla(&self, peer: &str) -> Option<Sla> {
        let ledger = self.ledger();
        let peering = ledger.book.timelines.ingress.get(peer);
        peering.map(|e| (*e.sla).clone())
    }

    /// The SLA with the downstream peer `peer`, if any. Lent, not
    /// copied: every forwarded request and every endorsement reads a
    /// field or a price off it, and a copy carries two certificates.
    pub fn egress_sla(&self, peer: &str) -> Option<Arc<Sla>> {
        let ledger = self.ledger();
        let peering = ledger.book.timelines.egress.get(peer);
        peering.map(|e| Arc::clone(&e.sla))
    }

    /// Append an invoice to the billing ledger.
    pub fn record_invoice(&self, invoice: Invoice) {
        let record = LedgerRecord::Invoice {
            payer: invoice.payer.clone(),
            payee: invoice.payee.clone(),
            reservation: invoice.reservation,
            amount: invoice.amount,
        };
        let mut ledger = self.ledger();
        ledger.billing.record(invoice);
        ledger.append(&record);
    }

    /// All invoices recorded so far, in order.
    pub fn invoices(&self) -> Vec<Invoice> {
        self.ledger().billing.invoices().to_vec()
    }

    /// Hold capacity for a reservation crossing this domain along
    /// `segment`. All three checks (ingress SLA, local, egress SLA) must
    /// pass before any capacity is taken.
    pub fn hold(
        &self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
        segment: PathSegment,
    ) -> Result<(), BrokerError> {
        let mut ledger = self.ledger();
        let result = ledger.book.hold(id, interval, rate_bps, &segment);
        if result.is_ok() {
            ledger.counters.holds_ok.inc();
            ledger.append(&LedgerRecord::Hold {
                id: id.0,
                start: interval.start.0,
                end: interval.end.0,
                rate_bps,
                ingress: segment.ingress_peer,
                egress: segment.egress_peer,
            });
        } else {
            ledger.counters.holds_refused.inc();
            ledger.append(&LedgerRecord::Deny { id: id.0, rate_bps });
        }
        result
    }

    /// Commit a held reservation (end-to-end approval arrived).
    pub fn commit(&self, id: ReservationId) -> Result<(), BrokerError> {
        let mut ledger = self.ledger();
        ledger.book.commit(id)?;
        ledger.counters.commits.inc();
        ledger.append(&LedgerRecord::Commit { id: id.0 });
        Ok(())
    }

    /// Release a reservation (denial downstream, cancellation, or expiry).
    pub fn release(&self, id: ReservationId) -> Result<(), BrokerError> {
        let mut ledger = self.ledger();
        if !ledger.book.transition(id, ResState::Released) {
            return Err(BrokerError::Unknown(id));
        }
        ledger.counters.releases.inc();
        ledger.append(&LedgerRecord::Release { id: id.0 });
        Ok(())
    }

    /// The reservation's current state.
    pub fn state(&self, id: ReservationId) -> Option<ResState> {
        self.ledger().book.records.get(&id).map(|r| r.state)
    }

    /// Reservation parameters.
    pub fn info(&self, id: ReservationId) -> Option<(Interval, u64, PathSegment)> {
        let ledger = self.ledger();
        let r = ledger.book.records.get(&id)?;
        Some((r.interval, r.rate_bps, r.segment.clone()))
    }

    /// Unreserved local capacity at `t` — the `Avail_BW` a policy file
    /// compares against.
    pub fn available_bw_at(&self, t: Timestamp) -> u64 {
        self.ledger().book.timelines.local.available_at(t)
    }

    /// Sum of active reservations entering from `peer` at `t`: the
    /// profile the ingress aggregate policer should be dimensioned to.
    pub fn admitted_ingress_aggregate(&self, peer: &str, t: Timestamp) -> u64 {
        let ledger = self.ledger();
        let peering = ledger.book.timelines.ingress.get(peer);
        peering.map_or(0, |e| e.timeline.usage_at(t))
    }

    /// Is `id` held/committed and active at `t`?
    pub fn reservation_active_at(&self, id: ReservationId, t: Timestamp) -> bool {
        self.ledger().book.active_at(id, t)
    }

    // ------------------------------------------------------------------
    // Durable-ledger recovery and export (DESIGN.md §D13). Restores
    // force-apply without admission math — replay rebuilds state that
    // was already admitted before a crash — and are idempotent, because
    // a snapshot may reflect records sequenced after its capture point.
    // ------------------------------------------------------------------

    /// Attach the durable ledger store. Every admission verdict, hold,
    /// commit, release and billing settlement from here on appends a
    /// record — attach *after* recovery replay so replay itself is not
    /// re-logged.
    pub fn set_store(&self, store: SharedStore) {
        self.ledger().store = Some(store);
    }

    /// The attached ledger store, if any.
    pub fn store(&self) -> Option<SharedStore> {
        self.ledger().store.clone()
    }

    /// Replay one recovered WAL record. Forgiving: transitions whose
    /// hold record sat in an un-fsynced batch the crash discarded are
    /// ignored, and ticket records belong to the transport layer.
    pub fn restore_record(&self, record: &LedgerRecord) {
        let mut ledger = self.ledger();
        let Ledger { book, billing, .. } = &mut *ledger;
        match record {
            LedgerRecord::Hold {
                id,
                start,
                end,
                rate_bps,
                ingress,
                egress,
            } => restore_reservation(
                book,
                SnapReservation {
                    id: *id,
                    start: *start,
                    end: *end,
                    rate_bps: *rate_bps,
                    state: STATE_HELD,
                    ingress: ingress.clone(),
                    egress: egress.clone(),
                },
            ),
            // An id whose hold the crash discarded is ignored.
            LedgerRecord::Commit { id } => {
                _ = book.transition(ReservationId(*id), ResState::Committed)
            }
            LedgerRecord::Release { id } => {
                _ = book.transition(ReservationId(*id), ResState::Released)
            }
            LedgerRecord::Invoice {
                payer,
                payee,
                reservation,
                amount,
            } => billing.restore(payer, payee, *reservation, *amount),
            LedgerRecord::Deny { .. }
            | LedgerRecord::TicketKey { .. }
            | LedgerRecord::TicketIssued { .. } => {}
        }
    }

    /// Restore reservations + invoices from a recovered snapshot
    /// (tickets belong to the transport).
    pub fn restore_snapshot(&self, snapshot: &LedgerSnapshot) {
        let mut ledger = self.ledger();
        for r in &snapshot.reservations {
            restore_reservation(&mut ledger.book, r.clone());
        }
        for i in &snapshot.invoices {
            ledger
                .billing
                .restore(&i.payer, &i.payee, i.reservation, i.amount);
        }
    }

    /// Export this layer's contribution to a snapshot captured at WAL
    /// sequence `seq`: the live reservations in id order and the
    /// invoices sorted, because replay order and live order may differ.
    pub fn export_snapshot(&self, seq: u64) -> LedgerSnapshot {
        let ledger = self.ledger();
        LedgerSnapshot {
            seq,
            ticket_key: None,
            reservations: ledger.export_reservations(),
            invoices: ledger.export_invoices(),
            tickets: Vec::new(),
        }
    }

    /// SHA-256 over the canonical encoding of the active reservation
    /// set and sorted invoices. The kill -9 recovery gate asserts this
    /// is byte-identical between a killed-and-restarted broker and a
    /// never-killed control run.
    pub fn ledger_digest(&self) -> [u8; 32] {
        let ledger = self.ledger();
        let mut h = Sha256::new();
        for r in ledger.export_reservations() {
            h.update(&qos_wire::to_bytes(&r));
        }
        for i in ledger.export_invoices() {
            h.update(&qos_wire::to_bytes(&i));
        }
        h.finalize()
    }

    /// `(active, committed, invoices, committed_bps_at_t)` — the
    /// `/storage` admin endpoint's ledger summary line.
    pub fn ledger_summary(&self, t: Timestamp) -> (u64, u64, u64, u64) {
        let ledger = self.ledger();
        let (mut active, mut committed, mut committed_bps) = (0u64, 0u64, 0u64);
        for r in ledger.book.records.values().filter(|r| r.counts()) {
            active += 1;
            if r.state == ResState::Committed {
                committed += 1;
                if r.interval.contains(t) {
                    committed_bps += r.rate_bps;
                }
            }
        }
        let invoices = ledger.billing.invoices().len() as u64;
        (active, committed, invoices, committed_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sla::Sls;
    use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Validity};

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

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(Timestamp(a), Timestamp(b))
    }

    fn transit_broker() -> BrokerCore {
        // Domain B: accepts ≤20 Mb/s from A, sends ≤15 Mb/s to C,
        // 100 Mb/s internal.
        let b = BrokerCore::new("domain-b", 100 * MBPS);
        b.add_ingress_sla(sla("domain-a", "domain-b", 20 * MBPS));
        b.add_egress_sla(sla("domain-b", "domain-c", 15 * MBPS));
        b
    }

    fn transit_segment() -> PathSegment {
        PathSegment {
            ingress_peer: Some("domain-a".into()),
            egress_peer: Some("domain-c".into()),
        }
    }

    #[test]
    fn admits_within_all_three_limits() {
        let b = transit_broker();
        assert!(b
            .hold(ReservationId(1), iv(0, 100), 10 * MBPS, transit_segment())
            .is_ok());
        assert_eq!(b.state(ReservationId(1)), Some(ResState::Held));
    }

    #[test]
    fn egress_sla_is_the_binding_constraint() {
        let b = transit_broker();
        // 16 Mb/s fits the 20 Mb/s ingress SLA and local capacity but not
        // the 15 Mb/s egress SLA.
        let err = b
            .hold(ReservationId(1), iv(0, 100), 16 * MBPS, transit_segment())
            .unwrap_err();
        assert!(
            matches!(err, BrokerError::Sla { ref peer, .. } if peer == "domain-c"),
            "{err}"
        );
        // And the failed attempt must not leak held capacity.
        assert!(b
            .hold(ReservationId(2), iv(0, 100), 15 * MBPS, transit_segment())
            .is_ok());
    }

    #[test]
    fn unknown_peer_is_rejected() {
        let b = transit_broker();
        let err = b
            .hold(
                ReservationId(1),
                iv(0, 100),
                MBPS,
                PathSegment {
                    ingress_peer: Some("domain-x".into()),
                    egress_peer: None,
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            BrokerError::NoSla {
                peer: "domain-x".into()
            }
        );
    }

    #[test]
    fn source_domain_needs_no_ingress_sla() {
        let b = transit_broker();
        assert!(b
            .hold(
                ReservationId(1),
                iv(0, 100),
                10 * MBPS,
                PathSegment {
                    ingress_peer: None,
                    egress_peer: Some("domain-c".into()),
                },
            )
            .is_ok());
    }

    #[test]
    fn release_rolls_back_everywhere() {
        let b = transit_broker();
        b.hold(ReservationId(1), iv(0, 100), 15 * MBPS, transit_segment())
            .unwrap();
        // Egress SLA is now full.
        assert!(b
            .hold(ReservationId(2), iv(0, 100), MBPS, transit_segment())
            .is_err());
        b.release(ReservationId(1)).unwrap();
        assert!(b
            .hold(ReservationId(2), iv(0, 100), 15 * MBPS, transit_segment())
            .is_ok());
    }

    #[test]
    fn ingress_aggregate_tracks_active_reservations() {
        let b = transit_broker();
        b.hold(ReservationId(1), iv(0, 100), 10 * MBPS, transit_segment())
            .unwrap();
        b.hold(ReservationId(2), iv(50, 150), 5 * MBPS, transit_segment())
            .unwrap();
        assert_eq!(
            b.admitted_ingress_aggregate("domain-a", Timestamp(10)),
            10 * MBPS
        );
        assert_eq!(
            b.admitted_ingress_aggregate("domain-a", Timestamp(60)),
            15 * MBPS
        );
        assert_eq!(
            b.admitted_ingress_aggregate("domain-a", Timestamp(120)),
            5 * MBPS
        );
        assert_eq!(b.admitted_ingress_aggregate("nobody", Timestamp(10)), 0);
    }

    #[test]
    fn available_bw_reflects_holds() {
        let b = transit_broker();
        assert_eq!(b.available_bw_at(Timestamp(10)), 100 * MBPS);
        b.hold(ReservationId(1), iv(0, 100), 10 * MBPS, transit_segment())
            .unwrap();
        assert_eq!(b.available_bw_at(Timestamp(10)), 90 * MBPS);
        assert_eq!(b.available_bw_at(Timestamp(200)), 100 * MBPS);
    }

    #[test]
    fn commit_then_release_lifecycle() {
        let b = transit_broker();
        b.hold(ReservationId(1), iv(0, 100), MBPS, transit_segment())
            .unwrap();
        b.commit(ReservationId(1)).unwrap();
        assert_eq!(b.state(ReservationId(1)), Some(ResState::Committed));
        assert!(b.reservation_active_at(ReservationId(1), Timestamp(50)));
        b.release(ReservationId(1)).unwrap();
        assert!(!b.reservation_active_at(ReservationId(1), Timestamp(50)));
        assert!(matches!(
            b.commit(ReservationId(9)),
            Err(BrokerError::Unknown(_))
        ));
    }

    #[test]
    fn concurrent_holds_share_one_capacity_pool() {
        // 8 threads race 64 holds of 1 Mb/s each against a 32 Mb/s local
        // pool: exactly 32 must succeed, whatever the interleaving — one
        // shared core admits against one capacity pool.
        let core = Arc::new(BrokerCore::new("domain-b", 32 * MBPS));
        let iv = iv(0, 100);
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || {
                    (0..8u64)
                        .filter(|i| {
                            core.hold(ReservationId(t * 8 + i), iv, MBPS, PathSegment::default())
                                .is_ok()
                        })
                        .count()
                })
            })
            .collect();
        let granted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(granted, 32);
        assert_eq!(core.available_bw_at(Timestamp(10)), 0);
    }

    #[test]
    fn concurrent_commit_release_lifecycle() {
        let core = Arc::new(BrokerCore::new("domain-b", 100 * MBPS));
        core.add_ingress_sla(sla("domain-a", "domain-b", 100 * MBPS));
        core.add_egress_sla(sla("domain-b", "domain-c", 100 * MBPS));
        for i in 0..16u64 {
            core.hold(ReservationId(i), iv(0, 100), MBPS, transit_segment())
                .unwrap();
        }
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || {
                    for i in 0..4u64 {
                        let id = ReservationId(t * 4 + i);
                        if t % 2 == 0 {
                            core.commit(id).unwrap();
                        } else {
                            core.release(id).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Two threads committed 8, two released 8.
        assert_eq!(core.available_bw_at(Timestamp(10)), 92 * MBPS);
        assert_eq!(
            core.admitted_ingress_aggregate("domain-a", Timestamp(10)),
            8 * MBPS
        );
    }
}
