//! The bandwidth broker's resource-management core.
//!
//! One [`BrokerCore`] per administrative domain. It owns three classes of
//! reservation bookkeeping, all with advance-reservation semantics and a
//! two-phase (hold → commit / release) life cycle:
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
//! the whole ledger — tables, SLAs, reservation metadata,
//! billing, counters and the durable store — sits behind one mutex, and
//! each public call takes it once (§D31). The lock is what keeps the
//! `&self` surface: experiments and the admin plane read (and set-up
//! code mutates) the ledger through a shared `&BrokerCore`.

use crate::billing::{BillingLedger, Invoice};
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
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

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

/// A contract with one peer and the table that admits against it: one
/// map entry per peer and direction.
struct Peering {
    sla: Arc<Sla>,
    table: ReservationTable,
}

impl Peering {
    /// A fresh table sized to the contract's committed rate.
    fn new(sla: Sla) -> Self {
        Peering {
            table: ReservationTable::new(sla.sls.committed_rate_bps),
            sla: Arc::new(sla),
        }
    }
}

/// Every reservation table of the domain.
struct Tables {
    local: ReservationTable,
    ingress: HashMap<String, Peering>,
    egress: HashMap<String, Peering>,
}

impl Tables {
    /// The ≤ 3 tables a reservation along `segment` crosses, in the
    /// fixed ingress → local → egress order, each with the peer whose
    /// SLA it enforces (`None` for local capacity). A peer with no SLA
    /// yields its name and no table.
    fn legs<'a>(
        &'a mut self,
        segment: &'a PathSegment,
    ) -> impl Iterator<Item = (Option<&'a str>, Option<&'a mut ReservationTable>)> {
        let Tables {
            local,
            ingress,
            egress,
        } = self;
        let peer = |peers: &'a mut HashMap<String, Peering>, name: &'a Option<String>| {
            name.as_deref()
                .map(|p| (Some(p), peers.get_mut(p).map(|e| &mut e.table)))
        };
        peer(ingress, &segment.ingress_peer)
            .into_iter()
            .chain([(None, Some(local))])
            .chain(peer(egress, &segment.egress_peer))
    }
}

/// How a table's refusal reads: against local capacity or a peer's SLA.
fn refusal(peer: Option<&str>, source: AdmissionError) -> BrokerError {
    match peer {
        Some(peer) => BrokerError::Sla {
            peer: peer.to_string(),
            source,
        },
        None => BrokerError::Local(source),
    }
}

/// What a hold recorded about a reservation, for the calls that name
/// it only by id.
struct ResMeta {
    interval: Interval,
    rate_bps: u64,
    segment: PathSegment,
}

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
    tables: Tables,
    meta: HashMap<ReservationId, ResMeta>,
    billing: BillingLedger,
    counters: CoreCounters,
    /// The durable ledger store (DESIGN.md §D13). A record is appended
    /// under the same lock as the change it logs, so a snapshot that
    /// captures seq S reflects every record ≤ S (see `LedgerSnapshot`).
    store: Option<SharedStore>,
}

impl Ledger {
    fn append(&self, record: LedgerRecord) {
        if let Some(store) = &self.store {
            store.append(&record);
        }
    }

    /// Hold on every table along `segment`, releasing the ones already
    /// held when a later one refuses.
    fn hold(
        &mut self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
        segment: &PathSegment,
    ) -> Result<(), BrokerError> {
        let mut held = 0;
        let mut result = Ok(());
        for (peer, table) in self.tables.legs(segment) {
            let Some(table) = table else {
                let peer = peer.unwrap_or_default().to_string();
                result = Err(BrokerError::NoSla { peer });
                break;
            };
            if let Err(source) = table.hold(id, interval, rate_bps) {
                result = Err(refusal(peer, source));
                break;
            }
            held += 1;
        }
        if result.is_err() {
            let legs = self.tables.legs(segment).take(held);
            for table in legs.filter_map(|(_, table)| table) {
                let _ = table.release(id);
            }
        }
        result
    }

    /// Apply `f` to every table the reservation `id` crosses, stopping
    /// at the first refusal.
    fn for_each_table(
        &mut self,
        id: ReservationId,
        f: impl Fn(&mut ReservationTable, ReservationId) -> Result<(), AdmissionError>,
    ) -> Result<(), BrokerError> {
        let meta = self.meta.get(&id).ok_or(BrokerError::Unknown(id))?;
        for (peer, table) in self.tables.legs(&meta.segment) {
            if let Some(table) = table {
                f(table, id).map_err(|source| refusal(peer, source))?;
            }
        }
        Ok(())
    }

    /// Force one reservation back into every table it crossed.
    fn restore_reservation(&mut self, snap: &SnapReservation) {
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
        for (_, table) in self.tables.legs(&segment) {
            if let Some(table) = table {
                table.restore(id, interval, snap.rate_bps, state);
            }
        }
        let meta = ResMeta {
            interval,
            rate_bps: snap.rate_bps,
            segment,
        };
        self.meta.insert(id, meta);
    }

    /// Force a recovered transition on every table `id` crosses; an id
    /// whose hold the crash discarded is ignored.
    fn restore_state(&mut self, id: ReservationId, state: ResState) {
        let _ = self.for_each_table(id, |t, id| {
            t.restore_state(id, state);
            Ok(())
        });
    }

    /// Re-record one recovered invoice, skipping exact duplicates — the
    /// one restore that is not naturally idempotent, because billing is
    /// append-only and `(payer, payee, reservation)` settles once.
    fn restore_invoice(&mut self, snap: &SnapInvoice) {
        let invoice = Invoice {
            payer: snap.payer.clone(),
            payee: snap.payee.clone(),
            reservation: snap.reservation,
            amount: snap.amount,
        };
        if !self.billing.contains(&invoice) {
            self.billing.record(invoice);
        }
    }

    fn export_reservations(&self) -> Vec<SnapReservation> {
        self.tables
            .local
            .iter_active()
            .map(|(id, interval, rate_bps, state)| {
                let segment = self
                    .meta
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
                tables: Tables {
                    local: ReservationTable::new(local_capacity_bps),
                    ingress: HashMap::new(),
                    egress: HashMap::new(),
                },
                meta: HashMap::new(),
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
        self.ledger().tables.ingress.insert(peer, Peering::new(sla));
    }

    /// Register the SLA under which this domain sends traffic into
    /// `sla.downstream`.
    pub fn add_egress_sla(&self, sla: Sla) {
        debug_assert_eq!(sla.upstream, self.domain);
        let peer = sla.downstream.clone();
        self.ledger().tables.egress.insert(peer, Peering::new(sla));
    }

    /// A copy of the SLA with the upstream peer `peer`, if any — owned,
    /// for set-up code that amends a contract and registers it again
    /// with [`BrokerCore::add_ingress_sla`].
    pub fn ingress_sla(&self, peer: &str) -> Option<Sla> {
        let ledger = self.ledger();
        ledger.tables.ingress.get(peer).map(|e| (*e.sla).clone())
    }

    /// The SLA with the downstream peer `peer`, if any. Lent, not
    /// copied: every forwarded request and every endorsement reads a
    /// field or a price off it, and a copy carries two certificates.
    pub fn egress_sla(&self, peer: &str) -> Option<Arc<Sla>> {
        let ledger = self.ledger();
        ledger.tables.egress.get(peer).map(|e| Arc::clone(&e.sla))
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
        ledger.append(record);
    }

    /// All invoices recorded so far, in order.
    pub fn invoices(&self) -> Vec<Invoice> {
        self.ledger().billing.invoices().to_vec()
    }

    /// Net billing balance per party (payees positive).
    pub fn balances(&self) -> BTreeMap<String, i128> {
        self.ledger().billing.balances()
    }

    /// Hold capacity for a reservation crossing this domain along
    /// `segment`. All three checks (ingress SLA, local, egress SLA) must
    /// pass; partial holds are rolled back.
    pub fn hold(
        &self,
        id: ReservationId,
        interval: Interval,
        rate_bps: u64,
        segment: PathSegment,
    ) -> Result<(), BrokerError> {
        let mut ledger = self.ledger();
        let result = ledger.hold(id, interval, rate_bps, &segment);
        match &result {
            Ok(()) => {
                ledger.counters.holds_ok.inc();
                ledger.append(LedgerRecord::Hold {
                    id: id.0,
                    start: interval.start.0,
                    end: interval.end.0,
                    rate_bps,
                    ingress: segment.ingress_peer.clone(),
                    egress: segment.egress_peer.clone(),
                });
                let meta = ResMeta {
                    interval,
                    rate_bps,
                    segment,
                };
                ledger.meta.insert(id, meta);
            }
            Err(_) => {
                ledger.counters.holds_refused.inc();
                ledger.append(LedgerRecord::Deny { id: id.0, rate_bps });
            }
        }
        result
    }

    /// Commit a held reservation (end-to-end approval arrived).
    pub fn commit(&self, id: ReservationId) -> Result<(), BrokerError> {
        let mut ledger = self.ledger();
        ledger.for_each_table(id, |t, id| t.commit(id))?;
        ledger.counters.commits.inc();
        ledger.append(LedgerRecord::Commit { id: id.0 });
        Ok(())
    }

    /// Release a reservation (denial downstream, cancellation, or expiry).
    pub fn release(&self, id: ReservationId) -> Result<(), BrokerError> {
        let mut ledger = self.ledger();
        ledger.for_each_table(id, |t, id| t.release(id))?;
        ledger.counters.releases.inc();
        ledger.append(LedgerRecord::Release { id: id.0 });
        Ok(())
    }

    /// The reservation's current state (from the local table).
    pub fn state(&self, id: ReservationId) -> Option<ResState> {
        self.ledger().tables.local.state(id)
    }

    /// Reservation parameters.
    pub fn info(&self, id: ReservationId) -> Option<(Interval, u64, PathSegment)> {
        let ledger = self.ledger();
        let meta = ledger.meta.get(&id)?;
        Some((meta.interval, meta.rate_bps, meta.segment.clone()))
    }

    /// Unreserved local capacity at `t` — the `Avail_BW` a policy file
    /// compares against.
    pub fn available_bw_at(&self, t: Timestamp) -> u64 {
        self.ledger().tables.local.available_at(t)
    }

    /// Sum of active reservations entering from `peer` at `t`: the
    /// profile the ingress aggregate policer should be dimensioned to.
    pub fn admitted_ingress_aggregate(&self, peer: &str, t: Timestamp) -> u64 {
        let ledger = self.ledger();
        let peering = ledger.tables.ingress.get(peer);
        peering.map_or(0, |e| e.table.admitted_aggregate_at(t))
    }

    /// Is `id` held/committed and active at `t`?
    pub fn reservation_active_at(&self, id: ReservationId, t: Timestamp) -> bool {
        self.ledger().tables.local.active_at(id, t)
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
        match record {
            LedgerRecord::Hold {
                id,
                start,
                end,
                rate_bps,
                ingress,
                egress,
            } => ledger.restore_reservation(&SnapReservation {
                id: *id,
                start: *start,
                end: *end,
                rate_bps: *rate_bps,
                state: STATE_HELD,
                ingress: ingress.clone(),
                egress: egress.clone(),
            }),
            LedgerRecord::Commit { id } => {
                ledger.restore_state(ReservationId(*id), ResState::Committed)
            }
            LedgerRecord::Release { id } => {
                ledger.restore_state(ReservationId(*id), ResState::Released)
            }
            LedgerRecord::Invoice {
                payer,
                payee,
                reservation,
                amount,
            } => ledger.restore_invoice(&SnapInvoice {
                payer: payer.clone(),
                payee: payee.clone(),
                reservation: *reservation,
                amount: *amount,
            }),
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
            ledger.restore_reservation(r);
        }
        for i in &snapshot.invoices {
            ledger.restore_invoice(i);
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
        for (_, interval, rate, state) in ledger.tables.local.iter_active() {
            active += 1;
            if state == ResState::Committed {
                committed += 1;
                if interval.contains(t) {
                    committed_bps += rate;
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
