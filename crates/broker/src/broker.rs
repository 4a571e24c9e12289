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
//! `BrokerCore` owns the domain's [`SlaBook`]: one broker per domain,
//! one ledger (DESIGN.md §D30).

use crate::billing::Invoice;
use crate::reservations::{AdmissionError, Interval, ResState, ReservationId};
use crate::shard::SlaBook;
use crate::sla::Sla;
use qos_crypto::Timestamp;
use qos_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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

/// A domain's bandwidth-broker resource core: the owner of the
/// domain's [`SlaBook`].
pub struct BrokerCore {
    book: SlaBook,
}

impl BrokerCore {
    /// A broker managing `local_capacity_bps` of internal EF capacity.
    pub fn new(domain: &str, local_capacity_bps: u64) -> Self {
        Self {
            book: SlaBook::new(domain, local_capacity_bps),
        }
    }

    /// Route this core's reservation life-cycle counters into
    /// `telemetry`: `broker_holds_total{domain,decision=held|refused}`,
    /// `broker_commits_total{domain}`, `broker_releases_total{domain}`.
    pub fn set_telemetry(&self, telemetry: &Telemetry) {
        self.book.set_telemetry(telemetry);
    }

    /// The domain this broker controls.
    pub fn domain(&self) -> &str {
        self.book.domain()
    }

    /// Register the SLA under which `sla.upstream` sends traffic *into*
    /// this domain.
    pub fn add_ingress_sla(&self, sla: Sla) {
        self.book.add_ingress_sla(sla);
    }

    /// Register the SLA under which this domain sends traffic into
    /// `sla.downstream`.
    pub fn add_egress_sla(&self, sla: Sla) {
        self.book.add_egress_sla(sla);
    }

    /// A copy of the SLA with the upstream peer `peer`, if any — owned,
    /// for set-up code that amends a contract and registers it again
    /// with [`BrokerCore::add_ingress_sla`].
    pub fn ingress_sla(&self, peer: &str) -> Option<Sla> {
        self.book.ingress_sla(peer).map(|sla| (*sla).clone())
    }

    /// The SLA with the downstream peer `peer`, if any. Lent, not
    /// copied: every forwarded request and every endorsement reads a
    /// field or a price off it, and a copy carries two certificates.
    pub fn egress_sla(&self, peer: &str) -> Option<Arc<Sla>> {
        self.book.egress_sla(peer)
    }

    /// Append an invoice to the billing ledger.
    pub fn record_invoice(&self, invoice: Invoice) {
        self.book.record_invoice(invoice);
    }

    /// All invoices recorded so far, in order.
    pub fn invoices(&self) -> Vec<Invoice> {
        self.book.invoices()
    }

    /// Net billing balance per party (payees positive).
    pub fn balances(&self) -> BTreeMap<String, i128> {
        self.book.balances()
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
        self.book.hold(id, interval, rate_bps, segment)
    }

    /// Commit a held reservation (end-to-end approval arrived).
    pub fn commit(&self, id: ReservationId) -> Result<(), BrokerError> {
        self.book.commit(id)
    }

    /// Release a reservation (denial downstream, cancellation, or expiry).
    pub fn release(&self, id: ReservationId) -> Result<(), BrokerError> {
        self.book.release(id)
    }

    /// The reservation's current state (from the local table).
    pub fn state(&self, id: ReservationId) -> Option<ResState> {
        self.book.state(id)
    }

    /// Reservation parameters.
    pub fn info(&self, id: ReservationId) -> Option<(Interval, u64, PathSegment)> {
        self.book.info(id)
    }

    /// Unreserved local capacity at `t` — the `Avail_BW` a policy file
    /// compares against.
    pub fn available_bw_at(&self, t: Timestamp) -> u64 {
        self.book.available_bw_at(t)
    }

    /// Sum of active reservations entering from `peer` at `t`: the
    /// profile the ingress aggregate policer should be dimensioned to.
    pub fn admitted_ingress_aggregate(&self, peer: &str, t: Timestamp) -> u64 {
        self.book.admitted_ingress_aggregate(peer, t)
    }

    /// Is `id` held/committed and active at `t`?
    pub fn reservation_active_at(&self, id: ReservationId, t: Timestamp) -> bool {
        self.book.reservation_active_at(id, t)
    }

    // --- Durable-ledger surface (DESIGN.md §D13) --------------------

    /// Attach the durable ledger store (after recovery replay).
    pub fn set_store(&self, store: qos_storage::SharedStore) {
        self.book.set_store(store);
    }

    /// The attached ledger store, if any.
    pub fn store(&self) -> Option<qos_storage::SharedStore> {
        self.book.store()
    }

    /// Replay one recovered WAL record (idempotent, forgiving).
    pub fn restore_record(&self, record: &qos_storage::LedgerRecord) {
        self.book.restore_record(record);
    }

    /// Restore reservations + invoices from a recovered snapshot.
    pub fn restore_snapshot(&self, snapshot: &qos_storage::LedgerSnapshot) {
        self.book.restore_snapshot(snapshot);
    }

    /// Export this layer's contribution to a snapshot captured at WAL
    /// sequence `seq`.
    pub fn export_snapshot(&self, seq: u64) -> qos_storage::LedgerSnapshot {
        self.book.export_snapshot(seq)
    }

    /// Canonical digest of the active reservation set + invoices (what
    /// the kill -9 recovery gate compares).
    pub fn ledger_digest(&self) -> [u8; 32] {
        self.book.ledger_digest()
    }

    /// `(active, committed, invoices, committed_bps_at_t)` summary.
    pub fn ledger_summary(&self, t: Timestamp) -> (u64, u64, u64, u64) {
        self.book.ledger_summary(t)
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
}
