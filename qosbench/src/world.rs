//! One round's world: the broker chain, its pre-signed requests, the
//! loopback mesh — and the checks that the round's outcomes are right.

use crate::gen::{Intent, Op, Workload};
use qos_broker::{Interval, PathSegment, ReservationId, Sls};
use qos_core::channel::ChannelIdentity;
use qos_core::envelope::SignedRar;
use qos_core::node::{BbNode, Completion};
use qos_core::scenario::{build_chain, ChainOptions, Scenario};
use qos_core::{RarId, ResSpec};
use qos_crypto::{Certificate, DistinguishedName, KeyPair, Timestamp};
use qos_storage::{FileStore, FileStoreOptions, MemStore, SharedStore, StoreStats};
use qos_telemetry::Telemetry;
use qos_transport::TcpMesh;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const MBPS: u64 = 1_000_000;
/// Local capacity and SLA rate of every domain: large enough that every
/// intended grant fits and concurrent to-be-denied holds never starve
/// one another on the way to the domain meant to refuse them.
const CAPACITY_BPS: u64 = 1_000_000_000_000_000;
/// Mixed workload: `domain-c` accepts only this much from `domain-b`,
/// so a [`DENY_AT_C_BPS`] request passes `a` and `b` and is refused at
/// `c`'s ingress SLA.
const C_INGRESS_SLA_BPS: u64 = 10_000 * MBPS;
const DENY_AT_C_BPS: u64 = 20_000 * MBPS;
/// Aggregate of the `tunnel_flows` tunnel; its sub-flows take 1 Mb/s.
const TUNNEL_BPS: u64 = 40_000 * MBPS;
/// `domain-b` refuses this user in the mixed workload (the paper's
/// Figure 1 rule).
const DENIED_USER: &str = "bob";
const DOMAIN_B_POLICY: &str =
    "if User = Bob { return deny \"domain B: Bob may not use the network\" }\nreturn grant";

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Approved; the endorsing domains in `Approval.entries` order.
    Granted(Vec<String>),
    /// Denied by this domain.
    Denied(String),
    /// Tunnel sub-flow verdict.
    Flow { accepted: bool },
}

impl Outcome {
    /// The outcome a completion carries, with the key that identifies
    /// its request (reservation id, or flow id for sub-flows).
    pub fn of(c: Completion) -> (u64, Outcome) {
        match c {
            Completion::Reservation { rar_id, result } => (
                rar_id.0,
                match result {
                    Ok(a) => Outcome::Granted(a.entries.into_iter().map(|e| e.domain).collect()),
                    Err(d) => Outcome::Denied(d.domain),
                },
            ),
            Completion::TunnelFlow { flow, accepted, .. } => (flow, Outcome::Flow { accepted }),
        }
    }
}

/// A user's signed reservation request and the certificate it is
/// submitted with.
pub type Request = (SignedRar, Certificate);

/// The tunnel `tunnel_flows` sends its sub-flows through.
pub struct Tunnel {
    pub id: RarId,
    pub request: Request,
    pub requestor: DistinguishedName,
}

pub struct World {
    pub scenario: Scenario,
    pub domains: Vec<String>,
    /// One pre-signed request per op (empty for `tunnel_flows`).
    pub requests: Vec<Request>,
    pub tunnel: Option<Tunnel>,
    stores: Vec<SharedStore>,
    wal_root: Option<PathBuf>,
    mixed: bool,
    /// Bandwidth the standing reservations hold in every domain.
    standing_bps: u64,
}

fn rate_of(intent: Intent) -> u64 {
    match intent {
        Intent::DenyAtC => DENY_AT_C_BPS,
        Intent::Grant | Intent::DenyAtB => MBPS,
    }
}

impl World {
    /// Build the chain for `w`, attach a ledger store to every broker
    /// and sign one request per op. `scratch` hosts the WAL directories
    /// of the mixed workload.
    pub fn build(w: &Workload, ops: &[Op], telemetry: &Telemetry, scratch: &Path) -> World {
        let mut policies = HashMap::new();
        let mut extra_users = Vec::new();
        if w.mixed {
            policies.insert(1, DOMAIN_B_POLICY.to_string());
            extra_users.push(DENIED_USER.to_string());
        }
        let s = build_chain(ChainOptions {
            domains: w.domains,
            policies,
            extra_users,
            local_capacity_bps: CAPACITY_BPS,
            sla_rate_bps: CAPACITY_BPS,
            telemetry: telemetry.clone(),
            ..ChainOptions::default()
        });
        let domains = s.domains.clone();
        if w.mixed {
            let c = s.nodes[2].core();
            let mut sla = c
                .ingress_sla(&domains[1])
                .expect("build_chain peers c with b");
            sla.sls = Sls::strict(C_INGRESS_SLA_BPS);
            c.add_ingress_sla(sla);
        }

        // bbd always runs with a ledger store: a WAL under --data-dir,
        // a counting MemStore otherwise.
        let wal_root = w
            .mixed
            .then(|| scratch.join(format!("wal-{}", std::process::id())));
        let mut stores = Vec::new();
        for node in &s.nodes {
            let store: SharedStore = match &wal_root {
                Some(root) => Arc::new(
                    FileStore::open(root.join(node.domain()), FileStoreOptions::default())
                        .expect("WAL directory inside the checkout is writable"),
                ),
                None => Arc::new(MemStore::default()),
            };
            store.set_telemetry(telemetry, node.domain());
            node.attach_store(Arc::clone(&store));
            stores.push(store);
        }

        // Standing reservations: what earlier traffic along the chain
        // left in every broker's table, 1 Mb/s each. Their ids are far
        // from the stream's (which stay below 2^41).
        for (i, node) in s.nodes.iter().enumerate() {
            let segment = PathSegment {
                ingress_peer: i.checked_sub(1).map(|up| domains[up].clone()),
                egress_peer: domains.get(i + 1).cloned(),
            };
            for k in 0..w.standing as u64 {
                let id = ReservationId(u64::MAX / 2 + k);
                let interval = Interval::starting_at(Timestamp(0), 3600);
                node.core()
                    .hold(id, interval, MBPS, segment.clone())
                    .and_then(|()| node.core().commit(id))
                    .expect("capacity for every standing reservation");
            }
        }

        let (first, last) = (domains[0].clone(), domains[w.domains - 1].clone());
        let spec_for = |s: &Scenario, user: &str, id: u64, flow: u64, rate: u64| {
            ResSpec::new(
                RarId(id),
                s.users[user].dn.clone(),
                &first,
                &last,
                flow,
                rate,
                Interval::starting_at(Timestamp(0), 3600),
            )
        };
        let mut requests = Vec::new();
        let mut tunnel = None;
        if w.tunnel {
            let alice = &s.users["alice"];
            let id = ops.first().map_or(1, |o| o.rar_id);
            let spec = spec_for(&s, "alice", id, 0, TUNNEL_BPS).as_tunnel();
            tunnel = Some(Tunnel {
                id: RarId(id),
                request: (alice.sign_request(spec, &s.nodes[0]), alice.cert.clone()),
                requestor: alice.dn.clone(),
            });
        } else {
            requests.reserve(ops.len());
            for op in ops {
                let user = if op.intent == Intent::DenyAtB {
                    DENIED_USER
                } else {
                    "alice"
                };
                let spec = spec_for(&s, user, op.rar_id, op.flow, rate_of(op.intent));
                let u = &s.users[user];
                requests.push((u.sign_request(spec, &s.nodes[0]), u.cert.clone()));
            }
        }
        World {
            scenario: s,
            domains,
            requests,
            tunnel,
            stores,
            wal_root,
            mixed: w.mixed,
            standing_bps: w.standing as u64 * MBPS,
        }
    }

    /// Peering links of the chain, plus the direct `a ↔ c` channel
    /// tunnel sub-flow signalling runs on.
    pub fn links(&self) -> Vec<(String, String)> {
        let mut links: Vec<(String, String)> = self
            .domains
            .windows(2)
            .map(|p| (p[0].clone(), p[1].clone()))
            .collect();
        if self.tunnel.is_some() {
            links.push((self.domains[0].clone(), self.domains[2].clone()));
        }
        links
    }

    /// The policy file of the broker at chain index `i`, when it is not
    /// the scenario's permit-all default.
    pub fn policy_of(&self, i: usize) -> Option<&'static str> {
        (self.mixed && i == 1).then_some(DOMAIN_B_POLICY)
    }

    pub fn identity_of(node: &BbNode) -> ChannelIdentity {
        ChannelIdentity {
            key: KeyPair::from_seed(format!("bb-{}", node.domain()).as_bytes()),
            cert: node.cert().clone(),
        }
    }

    /// Move the brokers into a loopback mesh: one daemon per domain,
    /// one admission shard each, handshakes done when this returns.
    pub fn spawn_mesh(&mut self, telemetry: &Telemetry) -> TcpMesh {
        let identities = self
            .scenario
            .nodes
            .iter()
            .map(|n| (n.domain().to_string(), Self::identity_of(n)))
            .collect();
        let links = self.links();
        let mut mesh = TcpMesh::new();
        mesh.set_telemetry(telemetry.clone());
        mesh.set_shards(1);
        mesh.spawn(
            std::mem::take(&mut self.scenario.nodes),
            identities,
            &links,
            self.scenario.ca_key,
        )
        .expect("loopback mesh comes up");
        mesh
    }

    /// Flush every ledger store and sum their counters.
    pub fn store_stats(&self) -> StoreStats {
        let mut sum = StoreStats::default();
        for store in &self.stores {
            store.flush();
            let s = store.stats();
            sum.appends += s.appends;
            sum.fsyncs += s.fsyncs;
            sum.bytes += s.bytes;
            sum.io_errors += s.io_errors;
        }
        sum
    }

    /// Check a finished round against what the generator intended.
    /// `nodes` are the brokers `mesh.shutdown()` handed back. Returns
    /// one line per violation.
    pub fn verify(
        &self,
        ops: &[Op],
        outcomes: &[Option<Outcome>],
        nodes: &HashMap<String, BbNode>,
    ) -> Vec<String> {
        let mut bad = Vec::new();
        let route_back: Vec<String> = self.domains.iter().rev().cloned().collect();
        let mut granted_bps = 0u64;
        for (i, (op, outcome)) in ops.iter().zip(outcomes).enumerate() {
            let ok = match (outcome, op.intent) {
                (Some(Outcome::Flow { accepted }), Intent::Grant) => *accepted,
                (Some(Outcome::Granted(entries)), Intent::Grant) => {
                    granted_bps += rate_of(op.intent);
                    *entries == route_back
                }
                (Some(Outcome::Denied(by)), Intent::DenyAtB) => *by == self.domains[1],
                (Some(Outcome::Denied(by)), Intent::DenyAtC) => *by == self.domains[2],
                _ => false,
            };
            if !ok {
                bad.push(format!(
                    "op {i} (id {}, flow {}): intended {:?}, got {outcome:?}",
                    op.rar_id, op.flow, op.intent
                ));
            }
        }

        // Ledgers: a denial must leak no hold, a grant must be held by
        // every domain on the route.
        let reserved = self.standing_bps
            + match &self.tunnel {
                Some(_) => TUNNEL_BPS,
                None => granted_bps,
            };
        for d in &self.domains {
            let available = nodes[d].core().available_bw_at(Timestamp(10));
            if available != CAPACITY_BPS - reserved {
                bad.push(format!(
                    "{d}: {available} b/s available, expected capacity - {reserved}"
                ));
            }
        }
        if let Some(t) = &self.tunnel {
            let accepted = outcomes
                .iter()
                .filter(|o| matches!(o, Some(Outcome::Flow { accepted: true })))
                .count() as u64;
            let remaining = nodes[&self.domains[0]].tunnel_remaining_bps(t.id);
            if remaining != Some(TUNNEL_BPS - accepted * MBPS) {
                bad.push(format!(
                    "tunnel has {remaining:?} b/s left after {accepted} accepted sub-flows"
                ));
            }
            // Transit saw the tunnel's own request and approval, and
            // none of the sub-flows.
            let rx = nodes[&self.domains[1]].counters().rx;
            if rx > 4 {
                bad.push(format!(
                    "{} received {rx} messages: sub-flow signalling reached transit",
                    self.domains[1]
                ));
            }
        }
        let io_errors: u64 = self.stores.iter().map(|s| s.stats().io_errors).sum();
        if io_errors != 0 {
            bad.push(format!("ledger stores swallowed {io_errors} I/O errors"));
        }
        bad
    }
}

impl Drop for World {
    fn drop(&mut self) {
        // FileStore flusher threads stop when the last handle drops;
        // only then is the directory quiet enough to remove.
        self.stores.clear();
        self.scenario.nodes.clear();
        if let Some(root) = &self.wal_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}
