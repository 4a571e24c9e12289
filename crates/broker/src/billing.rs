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

    /// Has exactly this `(payer, payee, reservation, amount)` been
    /// recorded?
    pub(crate) fn contains(&self, invoice: &Invoice) -> bool {
        self.by_reservation
            .get(&invoice.reservation)
            .is_some_and(|at| at.iter().any(|&i| self.invoices[i] == *invoice))
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
/// `path` (ordered source → destination), where `price(upstream,
/// downstream)` is each SLA's cost for this reservation. The originator
/// pays the source domain; each domain pays its downstream peer.
///
/// Each intermediate invoice covers the *remainder* of the path: B bills
/// A for carrying the traffic through B **and beyond**, so prices
/// accumulate from the destination backwards.
pub fn settle_chain(
    originator: &str,
    path: &[String],
    reservation: u64,
    price: impl Fn(&str, &str) -> u64,
) -> Vec<Invoice> {
    let mut invoices = Vec::new();
    if path.is_empty() {
        return invoices;
    }
    // Accumulate from the far end: cost[i] = price(path[i-1], path[i]) + cost[i+1].
    let mut downstream_cost = vec![0u64; path.len()];
    for i in (1..path.len()).rev() {
        let hop = price(&path[i - 1], &path[i]);
        downstream_cost[i - 1] = downstream_cost
            .get(i)
            .copied()
            .unwrap_or(0)
            .saturating_add(hop);
    }
    // Each domain bills its upstream party for everything downstream of it.
    for i in (1..path.len()).rev() {
        invoices.push(Invoice {
            payer: path[i - 1].clone(),
            payee: path[i].clone(),
            reservation,
            amount: downstream_cost[i - 1],
        });
    }
    // The source domain bills the originator for the whole path. The
    // source's own carriage is priced as price(source, source) — zero
    // unless the domain charges its own users explicitly.
    let total = downstream_cost[0].saturating_add(price(&path[0], &path[0]));
    invoices.push(Invoice {
        payer: originator.to_string(),
        payee: path[0].clone(),
        reservation,
        amount: total,
    });
    invoices.reverse();
    invoices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_domain_chain_matches_paper_description() {
        let path = vec![
            "domain-a".to_string(),
            "domain-b".to_string(),
            "domain-c".to_string(),
        ];
        // B→C transit costs 100; A→B costs 10 (for carriage through B
        // onward); the source's own carriage is free.
        let price = |up: &str, down: &str| match (up, down) {
            ("domain-b", "domain-c") => 100,
            ("domain-a", "domain-b") => 10,
            _ => 0,
        };
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
        let path = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let mut ledger = BillingLedger::new();
        for inv in settle_chain("user", &path, 1, |_, _| 50) {
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
        let path = vec!["a".to_string()];
        let invoices = settle_chain("user", &path, 1, |_, _| 25);
        assert_eq!(invoices.len(), 1);
        assert_eq!(invoices[0].payer, "user");
        assert_eq!(invoices[0].payee, "a");
        assert_eq!(invoices[0].amount, 25); // price(a, a)
    }

    #[test]
    fn empty_path_yields_nothing() {
        assert!(settle_chain("user", &[], 1, |_, _| 1).is_empty());
    }
}
