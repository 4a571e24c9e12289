//! The durable ledger's record and snapshot types (DESIGN.md §D13).
//!
//! Records are deliberately *primitive-typed* — ids, rates and
//! intervals as `u64`, peers as `String`, crypto material as opaque
//! `Vec<u8>` — so the storage crate sits below the broker/core crates
//! in the dependency graph instead of beside them. The broker owns the
//! translation both ways: it flattens live state into these shapes when
//! appending/snapshotting and force-applies them through restore APIs
//! on replay.
//!
//! Everything here rides the canonical `qos-wire` codec, the same
//! encoding signed protocol messages use: stable enum tags, fields in
//! declaration order. That makes the WAL payload format exactly as
//! stable as the wire format — and lets the recovery gate compare
//! ledgers byte-for-byte via a digest over encoded exports.

/// One durable event. Every admission verdict and billing settlement
/// appends exactly one of these; replaying them in sequence order over
/// the latest snapshot reconstructs broker state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LedgerRecord {
    /// A reservation was held (admitted, awaiting commit). `ingress` /
    /// `egress` name the SLA peers whose tables also carry the entry.
    Hold {
        id: u64,
        start: u64,
        end: u64,
        rate_bps: u64,
        ingress: Option<String>,
        egress: Option<String>,
    },
    /// A reservation was refused admission (audit trail only — denials
    /// leave no table state, but the verdict is part of the ledger).
    Deny { id: u64, rate_bps: u64 },
    /// A held reservation was committed.
    Commit { id: u64 },
    /// A reservation was released (explicitly or by expiry).
    Release { id: u64 },
    /// A billing settlement recorded against the ledger.
    Invoice {
        payer: String,
        payee: String,
        reservation: u64,
        amount: u64,
    },
    /// The transport ticket-issuer key (32 bytes) — persisted once at
    /// first startup so session resumption survives a broker restart.
    TicketKey { key: Vec<u8> },
    /// One issued resumption ticket: the authoritative server-side
    /// entry a redeeming client must match.
    TicketIssued {
        id: Vec<u8>,
        master: Vec<u8>,
        expires: u64,
        peer_cert: Vec<u8>,
    },
}

qos_wire::impl_wire_enum!(LedgerRecord {
    0 => Hold { id, start, end, rate_bps, ingress, egress },
    1 => Deny { id, rate_bps },
    2 => Commit { id },
    3 => Release { id },
    4 => Invoice { payer, payee, reservation, amount },
    5 => TicketKey { key },
    6 => TicketIssued { id, master, expires, peer_cert },
});

/// Reservation state byte used in snapshots: held.
pub const STATE_HELD: u8 = 0;
/// Reservation state byte used in snapshots: committed.
pub const STATE_COMMITTED: u8 = 1;

/// One reservation in a snapshot (held or committed — released entries
/// are not persisted; their table state is gone).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapReservation {
    pub id: u64,
    pub start: u64,
    pub end: u64,
    pub rate_bps: u64,
    pub state: u8,
    pub ingress: Option<String>,
    pub egress: Option<String>,
}

qos_wire::impl_wire_struct!(SnapReservation {
    id,
    start,
    end,
    rate_bps,
    state,
    ingress,
    egress,
});

/// One settled invoice in a snapshot; ordered field by field, as a
/// snapshot lists them.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapInvoice {
    pub payer: String,
    pub payee: String,
    pub reservation: u64,
    pub amount: u64,
}

qos_wire::impl_wire_struct!(SnapInvoice {
    payer,
    payee,
    reservation,
    amount,
});

/// One live resumption ticket in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapTicket {
    pub id: Vec<u8>,
    pub master: Vec<u8>,
    pub expires: u64,
    pub peer_cert: Vec<u8>,
}

qos_wire::impl_wire_struct!(SnapTicket {
    id,
    master,
    expires,
    peer_cert,
});

/// A full-state snapshot: everything a broker needs to resume without
/// reading WAL records at or below `seq`.
///
/// The producer captures `seq` *before* exporting state and appenders
/// apply mutations *before* appending, so every record with sequence
/// ≤ `seq` is already reflected in the export. Records > `seq` may
/// also be partially reflected — replay after a snapshot is therefore
/// required to be idempotent, and the restore APIs are.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LedgerSnapshot {
    /// Highest WAL sequence number guaranteed to be reflected.
    pub seq: u64,
    /// The persisted ticket-issuer key, once one was appended.
    pub ticket_key: Option<Vec<u8>>,
    pub reservations: Vec<SnapReservation>,
    pub invoices: Vec<SnapInvoice>,
    pub tickets: Vec<SnapTicket>,
}

qos_wire::impl_wire_struct!(LedgerSnapshot {
    seq,
    ticket_key,
    reservations,
    invoices,
    tickets,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let records = vec![
            LedgerRecord::Hold {
                id: 7,
                start: 0,
                end: 3600,
                rate_bps: 5_000_000,
                ingress: None,
                egress: Some("domain-b".into()),
            },
            LedgerRecord::Deny { id: 8, rate_bps: 1 },
            LedgerRecord::Commit { id: 7 },
            LedgerRecord::Release { id: 7 },
            LedgerRecord::Invoice {
                payer: "domain-a".into(),
                payee: "domain-b".into(),
                reservation: 7,
                amount: 42,
            },
            LedgerRecord::TicketKey { key: vec![9; 32] },
            LedgerRecord::TicketIssued {
                id: vec![1; 16],
                master: vec![2; 32],
                expires: 900,
                peer_cert: vec![3, 4, 5],
            },
        ];
        for r in records {
            let bytes = qos_wire::to_bytes(&r);
            assert_eq!(qos_wire::from_bytes::<LedgerRecord>(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = LedgerSnapshot {
            seq: 99,
            ticket_key: Some(vec![7; 32]),
            reservations: vec![SnapReservation {
                id: 1,
                start: 10,
                end: 20,
                rate_bps: 1000,
                state: STATE_COMMITTED,
                ingress: Some("domain-a".into()),
                egress: None,
            }],
            invoices: vec![SnapInvoice {
                payer: "a".into(),
                payee: "b".into(),
                reservation: 1,
                amount: 5,
            }],
            tickets: vec![SnapTicket {
                id: vec![1; 16],
                master: vec![2; 32],
                expires: 900,
                peer_cert: vec![],
            }],
        };
        let bytes = qos_wire::to_bytes(&snap);
        assert_eq!(
            qos_wire::from_bytes::<LedgerSnapshot>(&bytes).unwrap(),
            snap
        );
    }
}
