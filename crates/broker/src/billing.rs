//! Transitive billing.
//!
//! §6.4 of the paper: "From an accounting perspective there is already an
//! accepted transitive billing scheme. Whenever a domain actually bills
//! the requesting entity for the use of the network service, SLAs are
//! already used to set up a transitive billing relation in multi-domain
//! networks. When network traffic enters domain C through domain B, it is
//! billed using the agreement between B and C. B as a transient domain,
//! however, would also bill traffic originating from a different domain
//! using the related SLA. Finally, the source domain would bill the
//! traffic against the originator."

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One billing record: `payer` owes `payee` for carrying a reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invoice {
    /// Who pays (a domain, or the originating user for the first link).
    pub payer: String,
    /// Who is paid (the downstream domain that carried the traffic).
    pub payee: String,
    /// Reservation this bills for.
    pub reservation: u64,
    /// Amount in micro-units.
    pub amount: u64,
}

impl fmt::Display for Invoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {} : {} µunits (reservation {})",
            self.payer, self.payee, self.amount, self.reservation
        )
    }
}

/// Per-domain ledger of issued and received invoices.
#[derive(Debug, Default)]
pub struct BillingLedger {
    invoices: Vec<Invoice>,
    /// Positions in `invoices` by reservation id, so recovery can tell a
    /// replayed invoice from a new one without scanning them all.
    by_reservation: HashMap<u64, Vec<usize>>,
}

impl BillingLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an invoice.
    pub fn record(&mut self, invoice: Invoice) {
        self.by_reservation
            .entry(invoice.reservation)
            .or_default()
            .push(self.invoices.len());
        self.invoices.push(invoice);
    }

    /// Re-record a recovered invoice unless exactly this one is already
    /// recorded — the one restore that is not naturally idempotent,
    /// because billing is append-only and `(payer, payee, reservation)`
    /// settles once.
    pub(crate) fn restore(&mut self, payer: &str, payee: &str, reservation: u64, amount: u64) {
        let invoice = Invoice {
            payer: payer.to_string(),
            payee: payee.to_string(),
            reservation,
            amount,
        };
        let known = self.by_reservation.get(&invoice.reservation);
        if !known.is_some_and(|at| at.iter().any(|&i| self.invoices[i] == invoice)) {
            self.record(invoice);
        }
    }

    /// All invoices.
    pub fn invoices(&self) -> &[Invoice] {
        &self.invoices
    }

    /// Net balance per party: positive = net creditor.
    pub fn balances(&self) -> BTreeMap<String, i128> {
        let mut out: BTreeMap<String, i128> = BTreeMap::new();
        for inv in &self.invoices {
            *out.entry(inv.payee.clone()).or_default() += inv.amount as i128;
            *out.entry(inv.payer.clone()).or_default() -= inv.amount as i128;
        }
        out
    }
}

/// Build the transitive billing chain for a reservation crossing
/// `path` (ordered source → destination), where `price(i)` is the cost
/// of carrying it into `path[i]` from `path[i - 1]` under their SLA
/// (`price(0)` is the source's own carriage: zero unless the domain
/// charges its own users explicitly). The originator pays the source
/// domain; each domain pays its downstream peer.
///
/// Each intermediate invoice covers the *remainder* of the path: B bills
/// A for carrying the traffic through B **and beyond**, so prices
/// accumulate from the destination backwards.
pub fn settle_chain(
    originator: &str,
    path: &[&str],
    reservation: u64,
    price: impl Fn(usize) -> u64,
) -> Vec<Invoice> {
    let Some(source) = path.first() else {
        return Vec::new();
    };
    let invoice = |payer: &str, payee: &str, amount| Invoice {
        payer: payer.to_string(),
        payee: payee.to_string(),
        reservation,
        amount,
    };
    let mut invoices = Vec::with_capacity(path.len());
    let mut downstream_cost = 0u64;
    for i in (1..path.len()).rev() {
        downstream_cost = downstream_cost.saturating_add(price(i));
        invoices.push(invoice(path[i - 1], path[i], downstream_cost));
    }
    let total = downstream_cost.saturating_add(price(0));
    invoices.push(invoice(originator, source, total));
    invoices.reverse();
    invoices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_domain_chain_matches_paper_description() {
        let path = ["domain-a", "domain-b", "domain-c"];
        // B→C transit costs 100; A→B costs 10 (for carriage through B
        // onward); the source's own carriage is free.
        let price = |i| [0, 10, 100][i];
        let invoices = settle_chain("alice", &path, 7, price);
        assert_eq!(invoices.len(), 3);
        // Alice pays A for the whole chain; A pays B for B+C; B pays C.
        assert_eq!(
            invoices[0],
            Invoice {
                payer: "alice".into(),
                payee: "domain-a".into(),
                reservation: 7,
                amount: 110
            }
        );
        assert_eq!(
            invoices[1],
            Invoice {
                payer: "domain-a".into(),
                payee: "domain-b".into(),
                reservation: 7,
                amount: 110
            }
        );
        assert_eq!(
            invoices[2],
            Invoice {
                payer: "domain-b".into(),
                payee: "domain-c".into(),
                reservation: 7,
                amount: 100
            }
        );
    }

    #[test]
    fn ledger_balances_sum_to_zero() {
        let mut ledger = BillingLedger::new();
        for inv in settle_chain("user", &["a", "b", "c"], 1, |_| 50) {
            ledger.record(inv);
        }
        let balances = ledger.balances();
        let total: i128 = balances.values().sum();
        assert_eq!(total, 0);
        // The pure transit domain nets the margin between what it bills
        // upstream and what it pays downstream.
        assert!(balances["c"] > 0);
        assert!(balances["user"] < 0);
    }

    #[test]
    fn single_domain_path_bills_only_originator() {
        let invoices = settle_chain("user", &["a"], 1, |_| 25);
        assert_eq!(invoices.len(), 1);
        assert_eq!(invoices[0].payer, "user");
        assert_eq!(invoices[0].payee, "a");
        assert_eq!(invoices[0].amount, 25); // price(0): a's own carriage
    }

    #[test]
    fn empty_path_yields_nothing() {
        assert!(settle_chain("user", &[], 1, |_| 1).is_empty());
    }
}
