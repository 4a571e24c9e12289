//! Reusable scenario builders: the paper's multi-domain world, wired up.
//!
//! Builds the complete cast of Figures 2–7 — a root CA, an ESnet CAS, a
//! linear chain of domains A…N (plus David's domain D attached to the
//! second domain), per-domain brokers with policies, SLAs with pinned
//! certificates, user identities, capability grants — and, optionally,
//! the matching `qos_net` data plane. Shared by the integration tests,
//! the examples, and every experiment binary.

use crate::envelope::SignedRar;
use crate::node::{BbConfig, BbNode, EdgeBinding};
use crate::rar::{RarId, ResSpec};
use qos_broker::{Interval, Sla, Sls};
use qos_crypto::{
    Certificate, CertificateAuthority, CommunityAuthorizationServer, DelegationChain,
    DistinguishedName, KeyPair, PublicKey, Timestamp, TrustPolicy, Validity,
};
use qos_net::{Network, NodeId, SimDuration};
use qos_policy::GroupServer;
use qos_telemetry::Telemetry;
use rand::{Rng, ThreadRng};
use std::collections::HashMap;

/// A permissive policy for domains whose admission is under test but
/// whose authorization is not.
pub const PERMIT_ALL: &str = "return grant";

/// One user in the scenario.
pub struct UserIdentity {
    /// Key pair.
    pub key: KeyPair,
    /// CA-issued identity certificate.
    pub cert: Certificate,
    /// DN.
    pub dn: DistinguishedName,
    /// Private proxy key for capability certificates (if granted).
    pub proxy: KeyPair,
    /// CAS grant + delegation material, if granted.
    pub capability: Option<Certificate>,
}

impl UserIdentity {
    /// Build the user's innermost signed request, delegating the
    /// capability (if any) to the source broker per §6.5.
    pub fn sign_request(&self, spec: ResSpec, source_bb: &BbNode) -> SignedRar {
        let mut caps = Vec::new();
        if let Some(grant) = &self.capability {
            let chain = DelegationChain::new(grant.clone());
            let chain = chain
                .delegate(
                    &self.proxy,
                    source_bb.dn().clone(),
                    source_bb.public_key(),
                    vec![],
                    Validity::unbounded(),
                )
                .expect("user holds the proxy key");
            caps = chain.certs;
        }
        SignedRar::user_request(spec, source_bb.dn().clone(), caps, &self.key)
    }
}

/// Everything a scenario needs.
pub struct Scenario {
    /// Root CA (already consumed for issuing; kept for its key).
    pub ca_key: PublicKey,
    /// CAS public key by community name.
    pub cas_keys: HashMap<String, PublicKey>,
    /// Domain names in chain order (`domain-a`, `domain-b`, …).
    pub domains: Vec<String>,
    /// Brokers by domain, ready to drop into a [`crate::drive::Mesh`].
    pub nodes: Vec<BbNode>,
    /// Users by name.
    pub users: HashMap<String, UserIdentity>,
    /// Monotonic RAR id source.
    next_rar: u64,
}

impl Scenario {
    /// Take a fresh RAR id.
    pub fn next_rar_id(&mut self) -> RarId {
        self.next_rar += 1;
        RarId(self.next_rar)
    }

    /// Convenience: a reservation spec from `user` across the whole
    /// chain.
    pub fn spec(
        &mut self,
        user: &str,
        flow: u64,
        rate_bps: u64,
        start: Timestamp,
        secs: u64,
    ) -> ResSpec {
        let rar_id = self.next_rar_id();
        let first = self.domains.first().unwrap().clone();
        let last = self.domains.last().unwrap().clone();
        ResSpec::new(
            rar_id,
            self.users[user].dn.clone(),
            &first,
            &last,
            flow,
            rate_bps,
            Interval::starting_at(start, secs),
        )
    }
}

/// Options for [`build_chain`].
pub struct ChainOptions {
    /// Number of domains in the line (≥ 2).
    pub domains: usize,
    /// Per-domain policy source (defaults to [`PERMIT_ALL`]); keyed by
    /// index.
    pub policies: HashMap<usize, String>,
    /// Local capacity per domain (bits/s).
    pub local_capacity_bps: u64,
    /// SLA committed rate between adjacent domains (bits/s).
    pub sla_rate_bps: u64,
    /// Capability communities to create, with the users granted each.
    pub grants: Vec<(String, Vec<String>)>,
    /// Users to create (Alice and David always exist).
    pub extra_users: Vec<String>,
    /// Trust-policy depth bound for all brokers.
    pub trust_policy: TrustPolicy,
    /// Metrics sink shared by all brokers (disabled by default).
    pub telemetry: Telemetry,
    /// Record per-RAR trace spans on every broker.
    pub tracing: bool,
}

impl Default for ChainOptions {
    fn default() -> Self {
        Self {
            domains: 3,
            policies: HashMap::new(),
            local_capacity_bps: 1_000_000_000,
            sla_rate_bps: 100_000_000,
            grants: vec![("ESnet".to_string(), vec!["alice".to_string()])],
            extra_users: vec![],
            trust_policy: TrustPolicy::default(),
            telemetry: Telemetry::disabled(),
            tracing: false,
        }
    }
}

/// Domain name for chain index `i`: `domain-a`, `domain-b`, …
pub fn domain_name(i: usize) -> String {
    if i < 26 {
        format!("domain-{}", (b'a' + i as u8) as char)
    } else {
        format!("domain-{i}")
    }
}

/// Build a linear chain of domains with brokers, SLAs, users, and
/// capability grants.
pub fn build_chain(opts: ChainOptions) -> Scenario {
    assert!(opts.domains >= 2, "a chain needs at least two domains");
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("RootCA"),
        KeyPair::from_seed(b"root-ca"),
    );

    // Broker identities.
    let domains: Vec<String> = (0..opts.domains).map(domain_name).collect();
    let keys: Vec<KeyPair> = domains
        .iter()
        .map(|d| KeyPair::from_seed(format!("bb-{d}").as_bytes()))
        .collect();
    let certs: Vec<Certificate> = domains
        .iter()
        .zip(&keys)
        .map(|(d, k)| {
            ca.issue_identity(
                DistinguishedName::broker(d),
                k.public(),
                Validity::unbounded(),
            )
        })
        .collect();

    // Communities and grants.
    let mut cas_keys = HashMap::new();
    let mut cas_servers: HashMap<String, CommunityAuthorizationServer> = HashMap::new();
    for (community, _) in &opts.grants {
        let server = CommunityAuthorizationServer::new(
            community,
            KeyPair::from_seed(format!("cas-{community}").as_bytes()),
        );
        cas_keys.insert(community.clone(), server.public_key());
        cas_servers.insert(community.clone(), server);
    }

    // Users.
    let mut user_names = vec!["alice".to_string(), "david".to_string()];
    user_names.extend(opts.extra_users.iter().cloned());
    let mut users = HashMap::new();
    for name in &user_names {
        let key = KeyPair::from_seed(format!("user-{name}").as_bytes());
        let proxy = KeyPair::from_seed(format!("proxy-{name}").as_bytes());
        let display = capitalize(name);
        let dn = DistinguishedName::user(&display, "ANL");
        let cert = ca.issue_identity(dn.clone(), key.public(), Validity::unbounded());
        let mut capability = None;
        for (community, granted) in &opts.grants {
            if granted.contains(name) {
                let server = cas_servers.get_mut(community).unwrap();
                capability = Some(server.grant(
                    &dn,
                    proxy.public(),
                    vec![format!("{community}:member")],
                    Validity::unbounded(),
                ));
            }
        }
        users.insert(
            name.clone(),
            UserIdentity {
                key,
                cert,
                dn,
                proxy,
                capability,
            },
        );
    }

    // Brokers with SLAs and routes.
    let mut nodes = Vec::new();
    for i in 0..opts.domains {
        let policy = opts
            .policies
            .get(&i)
            .cloned()
            .unwrap_or_else(|| PERMIT_ALL.to_string());
        let groups = GroupServer::new(
            &format!("groups-{}", domains[i]),
            KeyPair::from_seed(format!("gs-{}", domains[i]).as_bytes()),
        );
        let mut node = BbNode::new(BbConfig {
            domain: domains[i].clone(),
            key: keys[i].clone(),
            cert: certs[i].clone(),
            policy_src: policy,
            groups,
            local_capacity_bps: opts.local_capacity_bps,
            trust_policy: opts.trust_policy,
            cas_keys: cas_keys.clone(),
            user_ca: ca.public_key(),
            telemetry: opts.telemetry.clone(),
            tracing: opts.tracing,
        });
        // Peering with the previous domain (they send into us).
        if i > 0 {
            node.add_peer(
                certs[i - 1].clone(),
                Some(Sla {
                    upstream: domains[i - 1].clone(),
                    downstream: domains[i].clone(),
                    sls: Sls::strict(opts.sla_rate_bps),
                    peer_cert: certs[i - 1].clone(),
                    ca_cert: certs[i - 1].clone(),
                    price_per_mbps_sec: 1,
                }),
                None,
            );
            // Everything upstream routes through the previous domain.
            for d in domains[..i].iter() {
                node.add_route(d, &domains[i - 1]);
            }
        }
        // Peering with the next domain (we send into them).
        if i + 1 < opts.domains {
            node.add_peer(
                certs[i + 1].clone(),
                None,
                Some(Sla {
                    upstream: domains[i].clone(),
                    downstream: domains[i + 1].clone(),
                    sls: Sls::strict(opts.sla_rate_bps),
                    peer_cert: certs[i + 1].clone(),
                    ca_cert: certs[i + 1].clone(),
                    price_per_mbps_sec: 1,
                }),
            );
            for d in domains[i + 1..].iter() {
                node.add_route(d, &domains[i + 1]);
            }
        }
        nodes.push(node);
    }

    Scenario {
        ca_key: ca.public_key(),
        cas_keys,
        domains,
        nodes,
        users,
        next_rar: 0,
    }
}

/// Build a hub-and-spoke world: `leaves` leaf domains all peering with a
/// central transit domain `hub` (an ISP backbone). Any leaf-to-leaf path
/// is leaf → hub → leaf, so the hub's SLAs and local capacity are the
/// shared bottleneck — the topology where aggregate admission control at
/// a transit domain actually bites.
///
/// The returned scenario's `domains` lists the leaves first, then `hub`.
pub fn build_star(leaves: usize, opts: ChainOptions) -> Scenario {
    assert!(leaves >= 2, "a star needs at least two leaves");
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("RootCA"),
        KeyPair::from_seed(b"root-ca"),
    );
    let mut domains: Vec<String> = (0..leaves).map(domain_name).collect();
    domains.push("hub".to_string());
    let keys: Vec<KeyPair> = domains
        .iter()
        .map(|d| KeyPair::from_seed(format!("bb-{d}").as_bytes()))
        .collect();
    let certs: Vec<Certificate> = domains
        .iter()
        .zip(&keys)
        .map(|(d, k)| {
            ca.issue_identity(
                DistinguishedName::broker(d),
                k.public(),
                Validity::unbounded(),
            )
        })
        .collect();

    let mut cas_keys = HashMap::new();
    let mut cas_servers: HashMap<String, CommunityAuthorizationServer> = HashMap::new();
    for (community, _) in &opts.grants {
        let server = CommunityAuthorizationServer::new(
            community,
            KeyPair::from_seed(format!("cas-{community}").as_bytes()),
        );
        cas_keys.insert(community.clone(), server.public_key());
        cas_servers.insert(community.clone(), server);
    }
    let mut user_names = vec!["alice".to_string(), "david".to_string()];
    user_names.extend(opts.extra_users.iter().cloned());
    let mut users = HashMap::new();
    for name in &user_names {
        let key = KeyPair::from_seed(format!("user-{name}").as_bytes());
        let proxy = KeyPair::from_seed(format!("proxy-{name}").as_bytes());
        let dn = DistinguishedName::user(&capitalize(name), "ANL");
        let cert = ca.issue_identity(dn.clone(), key.public(), Validity::unbounded());
        let mut capability = None;
        for (community, granted) in &opts.grants {
            if granted.contains(name) {
                let server = cas_servers.get_mut(community).unwrap();
                capability = Some(server.grant(
                    &dn,
                    proxy.public(),
                    vec![format!("{community}:member")],
                    Validity::unbounded(),
                ));
            }
        }
        users.insert(
            name.clone(),
            UserIdentity {
                key,
                cert,
                dn,
                proxy,
                capability,
            },
        );
    }

    let hub_idx = leaves;
    let mk_sla = |up: usize, down: usize| Sla {
        upstream: domains[up].clone(),
        downstream: domains[down].clone(),
        sls: Sls::strict(opts.sla_rate_bps),
        peer_cert: certs[up].clone(),
        ca_cert: certs[up].clone(),
        price_per_mbps_sec: 1,
    };
    let mut nodes = Vec::new();
    for i in 0..domains.len() {
        let policy = opts
            .policies
            .get(&i)
            .cloned()
            .unwrap_or_else(|| PERMIT_ALL.to_string());
        let groups = GroupServer::new(
            &format!("groups-{}", domains[i]),
            KeyPair::from_seed(format!("gs-{}", domains[i]).as_bytes()),
        );
        let mut node = BbNode::new(BbConfig {
            domain: domains[i].clone(),
            key: keys[i].clone(),
            cert: certs[i].clone(),
            policy_src: policy,
            groups,
            local_capacity_bps: opts.local_capacity_bps,
            trust_policy: opts.trust_policy,
            cas_keys: cas_keys.clone(),
            user_ca: ca.public_key(),
            telemetry: opts.telemetry.clone(),
            tracing: opts.tracing,
        });
        if i == hub_idx {
            // The hub peers with every leaf, both directions.
            for leaf in 0..leaves {
                node.add_peer(
                    certs[leaf].clone(),
                    Some(mk_sla(leaf, hub_idx)),
                    Some(mk_sla(hub_idx, leaf)),
                );
                node.add_route(&domains[leaf], &domains[leaf]);
            }
        } else {
            // Each leaf peers only with the hub and routes everything
            // through it.
            node.add_peer(
                certs[hub_idx].clone(),
                Some(mk_sla(hub_idx, i)),
                Some(mk_sla(i, hub_idx)),
            );
            for (j, d) in domains.iter().enumerate() {
                if j != i {
                    node.add_route(d, "hub");
                }
            }
        }
        nodes.push(node);
    }

    Scenario {
        ca_key: ca.public_key(),
        cas_keys,
        domains,
        nodes,
        users,
        next_rar: 0,
    }
}

/// Options for [`build_as_graph`].
pub struct AsGraphOptions {
    /// Transit (backbone) domains, `transit-00`, `transit-01`, … (≥ 1).
    pub transits: usize,
    /// Stub (edge) domains, `stub-000`, `stub-001`, … (≥ 2).
    pub stubs: usize,
    /// Seed for every random draw — topology, SLA rates, capacities,
    /// policy templates. The same seed always builds the same world.
    pub seed: u64,
    /// Fraction of stubs (0.0–1.0) that get a second, independent
    /// transit uplink.
    pub multihome_fraction: f64,
    /// Baseline SLA rate: stub uplinks draw 1–4× this, transit trunks
    /// 10–40×.
    pub base_sla_rate_bps: u64,
    /// Baseline local capacity: stubs draw 1–4× this, transits 8–16×.
    pub local_capacity_bps: u64,
    /// Capability communities to create, with the users granted each.
    pub grants: Vec<(String, Vec<String>)>,
    /// Users to create (Alice and David always exist).
    pub extra_users: Vec<String>,
    /// Trust-policy depth bound for all brokers.
    pub trust_policy: TrustPolicy,
    /// Metrics sink shared by all brokers (disabled by default).
    pub telemetry: Telemetry,
    /// Record per-RAR trace spans on every broker.
    pub tracing: bool,
}

impl Default for AsGraphOptions {
    fn default() -> Self {
        Self {
            transits: 10,
            stubs: 90,
            seed: 0xA5_57AB,
            multihome_fraction: 0.35,
            base_sla_rate_bps: 200_000_000,
            local_capacity_bps: 1_000_000_000,
            grants: vec![("ESnet".to_string(), vec!["alice".to_string()])],
            extra_users: vec![],
            trust_policy: TrustPolicy::default(),
            telemetry: Telemetry::disabled(),
            tracing: false,
        }
    }
}

/// A seeded transit/stub AS graph: the scenario plus the structure the
/// experiments need to pick tunnel endpoints and watch transit load.
pub struct AsGraph {
    /// The built world (domains list transits first, then stubs).
    pub scenario: Scenario,
    /// Transit domain names in index order.
    pub transits: Vec<String>,
    /// Stub domain names in index order.
    pub stubs: Vec<String>,
    /// Undirected peering edges `(a, b, sla_rate_bps)`; every edge is
    /// installed as a both-direction SLA pair on both endpoints.
    pub edges: Vec<(String, String, u64)>,
}

/// Build a seeded transit/stub AS graph: a preferential-attachment
/// transit backbone, stubs homed (and fractionally multi-homed) onto it,
/// heterogeneous per-edge SLA rates and per-domain capacities, a
/// generated policy file per domain, and BFS shortest-path next-hop
/// routes between every pair of domains.
///
/// Every generated policy grants `Network` reservations at or below
/// 50 Mb/s regardless of template, so workloads that stay under that
/// aggregate rate are policy-transparent; larger reservations exercise
/// capability checks and time-of-day caps on a seeded subset of domains.
pub fn build_as_graph(opts: AsGraphOptions) -> AsGraph {
    assert!(opts.transits >= 1, "an AS graph needs at least one transit");
    assert!(opts.stubs >= 2, "an AS graph needs at least two stubs");
    let mut rng = ThreadRng::seed_from_u64(opts.seed);

    let transits: Vec<String> = (0..opts.transits)
        .map(|i| format!("transit-{i:02}"))
        .collect();
    let stubs: Vec<String> = (0..opts.stubs).map(|i| format!("stub-{i:03}")).collect();
    let mut domains = transits.clone();
    domains.extend(stubs.iter().cloned());
    let n = domains.len();

    // ---- Topology: undirected edges by domain index. -------------------
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    let add_edge = |adj: &mut Vec<Vec<usize>>,
                    edges: &mut Vec<(usize, usize, u64)>,
                    a: usize,
                    b: usize,
                    rate: u64| {
        adj[a].push(b);
        adj[b].push(a);
        edges.push((a, b, rate));
    };
    let trunk_rate = |rng: &mut ThreadRng| opts.base_sla_rate_bps * (10 + rng.random_range(31));
    let uplink_rate = |rng: &mut ThreadRng| opts.base_sla_rate_bps * (1 + rng.random_range(4));
    // Pick one of the first `n` nodes proportionally to degree (+1 so
    // isolated nodes stay reachable).
    let weighted_pick = |adj: &[Vec<usize>], n: usize, rng: &mut ThreadRng| -> usize {
        let total: u64 = adj[..n].iter().map(|l| l.len() as u64 + 1).sum();
        let mut r = rng.random_range(total);
        for (j, links) in adj[..n].iter().enumerate() {
            let w = links.len() as u64 + 1;
            if r < w {
                return j;
            }
            r -= w;
        }
        n - 1
    };

    // Transit backbone: each new transit attaches to 1–2 existing ones,
    // chosen proportionally to current degree (+1 so isolated transits
    // stay reachable). Always connected by construction.
    for i in 1..opts.transits {
        let uplinks = (1 + rng.random_range(2) as usize).min(i);
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < uplinks {
            let pick = weighted_pick(&adj, i, &mut rng);
            if !chosen.contains(&pick) {
                chosen.push(pick);
                let rate = trunk_rate(&mut rng);
                add_edge(&mut adj, &mut edges, i, pick, rate);
            }
        }
    }

    // Stubs: primary uplink chosen by transit degree; a seeded fraction
    // gets a second, distinct uplink chosen uniformly.
    for s in 0..opts.stubs {
        let idx = opts.transits + s;
        let primary = weighted_pick(&adj, opts.transits, &mut rng);
        let rate = uplink_rate(&mut rng);
        add_edge(&mut adj, &mut edges, idx, primary, rate);
        if opts.transits > 1 && rng.random_f64() < opts.multihome_fraction {
            let mut second = rng.random_range(opts.transits as u64) as usize;
            if second == primary {
                second = (second + 1) % opts.transits;
            }
            let rate = uplink_rate(&mut rng);
            add_edge(&mut adj, &mut edges, idx, second, rate);
        }
    }

    // ---- Identities. ---------------------------------------------------
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("RootCA"),
        KeyPair::from_seed(b"root-ca"),
    );
    let keys: Vec<KeyPair> = domains
        .iter()
        .map(|d| KeyPair::from_seed(format!("bb-{d}").as_bytes()))
        .collect();
    let certs: Vec<Certificate> = domains
        .iter()
        .zip(&keys)
        .map(|(d, k)| {
            ca.issue_identity(
                DistinguishedName::broker(d),
                k.public(),
                Validity::unbounded(),
            )
        })
        .collect();

    let mut cas_keys = HashMap::new();
    let mut cas_servers: HashMap<String, CommunityAuthorizationServer> = HashMap::new();
    for (community, _) in &opts.grants {
        let server = CommunityAuthorizationServer::new(
            community,
            KeyPair::from_seed(format!("cas-{community}").as_bytes()),
        );
        cas_keys.insert(community.clone(), server.public_key());
        cas_servers.insert(community.clone(), server);
    }
    let mut user_names = vec!["alice".to_string(), "david".to_string()];
    user_names.extend(opts.extra_users.iter().cloned());
    let mut users = HashMap::new();
    for name in &user_names {
        let key = KeyPair::from_seed(format!("user-{name}").as_bytes());
        let proxy = KeyPair::from_seed(format!("proxy-{name}").as_bytes());
        let dn = DistinguishedName::user(&capitalize(name), "ANL");
        let cert = ca.issue_identity(dn.clone(), key.public(), Validity::unbounded());
        let mut capability = None;
        for (community, granted) in &opts.grants {
            if granted.contains(name) {
                let server = cas_servers.get_mut(community).unwrap();
                capability = Some(server.grant(
                    &dn,
                    proxy.public(),
                    vec![format!("{community}:member")],
                    Validity::unbounded(),
                ));
            }
        }
        users.insert(
            name.clone(),
            UserIdentity {
                key,
                cert,
                dn,
                proxy,
                capability,
            },
        );
    }

    // ---- Brokers: policy, capacity, peerings, routes. ------------------
    let mut nodes = Vec::new();
    for i in 0..n {
        let is_transit = i < opts.transits;
        let policy = as_graph_policy(&domains[i], is_transit, &mut rng);
        let capacity = if is_transit {
            opts.local_capacity_bps * (8 + rng.random_range(9))
        } else {
            opts.local_capacity_bps * (1 + rng.random_range(4))
        };
        let groups = GroupServer::new(
            &format!("groups-{}", domains[i]),
            KeyPair::from_seed(format!("gs-{}", domains[i]).as_bytes()),
        );
        let node = BbNode::new(BbConfig {
            domain: domains[i].clone(),
            key: keys[i].clone(),
            cert: certs[i].clone(),
            policy_src: policy,
            groups,
            local_capacity_bps: capacity,
            trust_policy: opts.trust_policy,
            cas_keys: cas_keys.clone(),
            user_ca: ca.public_key(),
            telemetry: opts.telemetry.clone(),
            tracing: opts.tracing,
        });
        nodes.push(node);
    }
    let mk_sla = |up: usize, down: usize, rate: u64| Sla {
        upstream: domains[up].clone(),
        downstream: domains[down].clone(),
        sls: Sls::strict(rate),
        peer_cert: certs[up].clone(),
        ca_cert: certs[up].clone(),
        price_per_mbps_sec: 1,
    };
    for &(a, b, rate) in &edges {
        nodes[a].add_peer(
            certs[b].clone(),
            Some(mk_sla(b, a, rate)),
            Some(mk_sla(a, b, rate)),
        );
        nodes[b].add_peer(
            certs[a].clone(),
            Some(mk_sla(a, b, rate)),
            Some(mk_sla(b, a, rate)),
        );
    }

    // BFS shortest-path next hops from every source. `first_hop[d]` is
    // the neighbor of the source on one shortest path to `d`.
    for src in 0..n {
        let mut first_hop: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[src] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    first_hop[v] = if u == src { Some(v) } else { first_hop[u] };
                    queue.push_back(v);
                }
            }
        }
        for (d, hop) in first_hop.iter().enumerate() {
            if let Some(h) = hop {
                nodes[src].add_route(&domains[d], &domains[*h]);
            }
        }
    }

    let scenario = Scenario {
        ca_key: ca.public_key(),
        cas_keys,
        domains,
        nodes,
        users,
        next_rar: 0,
    };
    let named_edges = edges
        .iter()
        .map(|&(a, b, r)| (scenario.domains[a].clone(), scenario.domains[b].clone(), r))
        .collect();
    AsGraph {
        scenario,
        transits,
        stubs,
        edges: named_edges,
    }
}

/// One of four seeded policy templates for an AS-graph domain. Every
/// template grants `Network` reservations at or below 50 Mb/s.
fn as_graph_policy(domain: &str, is_transit: bool, rng: &mut ThreadRng) -> String {
    match rng.random_range(4) {
        0 => PERMIT_ALL.to_string(),
        1 => format!(
            "# {domain}: barred-user policy\n\
             if User = Mallory {{ return deny \"{domain}: user is barred\" }}\n\
             return grant\n"
        ),
        2 if is_transit => format!(
            "# {domain}: transit rate tiering\n\
             if BW <= 50Mb/s {{ return grant }}\n\
             if Issued_by(Capability) = ESnet {{ return grant }}\n\
             return deny \"{domain}: above 50Mb/s requires an ESnet capability\"\n"
        ),
        2 => format!(
            "# {domain}: stub access policy\n\
             if Reservation_Type = Network {{ return grant }}\n\
             return deny \"{domain}: only network reservations\"\n"
        ),
        _ => format!(
            "# {domain}: business-hours tiering\n\
             if Time > 8am and Time < 5pm {{\n\
                 if BW <= 50Mb/s {{ return grant }}\n\
                 return deny \"{domain}: business-hours cap is 50Mb/s\"\n\
             }}\n\
             return grant\n"
        ),
    }
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

/// The paper's Figure 4 world: the three-domain chain plus David's
/// domain D peering into the middle domain, and a matching data plane.
///
/// Returns `(scenario_with_4_nodes, network, node_ids)` where the fourth
/// node is `domain-d` and `node_ids` resolves `alice`/`charlie`/`david`
/// hosts and the `edge-*` routers.
pub fn build_paper_world(
    capacity_bps: u64,
    hop_delay: SimDuration,
) -> (Scenario, Network, HashMap<String, NodeId>) {
    let mut scenario = build_chain(ChainOptions {
        domains: 3,
        ..ChainOptions::default()
    });

    // Domain D: David's home, peering into domain-b.
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("RootCA"),
        KeyPair::from_seed(b"root-ca"),
    );
    // Re-issue against the same deterministic CA key; serial differences
    // are irrelevant to verification.
    let key_d = KeyPair::from_seed(b"bb-domain-d");
    let cert_d = ca.issue_identity(
        DistinguishedName::broker("domain-d"),
        key_d.public(),
        Validity::unbounded(),
    );
    let key_b = KeyPair::from_seed(b"bb-domain-b");
    let cert_b = ca.issue_identity(
        DistinguishedName::broker("domain-b"),
        key_b.public(),
        Validity::unbounded(),
    );
    let mut node_d = BbNode::new(BbConfig {
        domain: "domain-d".into(),
        key: key_d,
        cert: cert_d.clone(),
        policy_src: PERMIT_ALL.to_string(),
        groups: GroupServer::new("groups-d", KeyPair::from_seed(b"gs-d")),
        local_capacity_bps: 1_000_000_000,
        trust_policy: TrustPolicy::default(),
        cas_keys: scenario.cas_keys.clone(),
        user_ca: scenario.ca_key,
        telemetry: Telemetry::disabled(),
        tracing: false,
    });
    node_d.add_peer(
        cert_b,
        None,
        Some(Sla {
            upstream: "domain-d".into(),
            downstream: "domain-b".into(),
            sls: Sls::strict(100_000_000),
            peer_cert: scenario.nodes[1].cert().clone(),
            ca_cert: scenario.nodes[1].cert().clone(),
            price_per_mbps_sec: 1,
        }),
    );
    node_d.add_route("domain-a", "domain-b");
    node_d.add_route("domain-b", "domain-b");
    node_d.add_route("domain-c", "domain-b");
    // Domain B accepts from D.
    scenario.nodes[1].add_peer(
        cert_d,
        Some(Sla {
            upstream: "domain-d".into(),
            downstream: "domain-b".into(),
            sls: Sls::strict(100_000_000),
            peer_cert: node_d.cert().clone(),
            ca_cert: node_d.cert().clone(),
            price_per_mbps_sec: 1,
        }),
        None,
    );
    scenario.nodes.push(node_d);
    scenario.domains.push("domain-d".into());

    // Matching data plane.
    let (topo, names) = qos_net::paper_topology(capacity_bps, hop_delay);
    let network = Network::new(topo);

    // Bind brokers to their edge routers / ingress links.
    let mut bindings: Vec<(usize, EdgeBinding)> = Vec::new();
    {
        let net = &network;
        let n = &names;
        // domain-a: Alice's first router.
        bindings.push((
            0,
            EdgeBinding {
                first_router: net.first_router(n["alice"], n["charlie"]),
                ingress_links: HashMap::new(),
            },
        ));
        // domain-b: ingress from A and from D.
        let mut b_links = HashMap::new();
        if let Some(l) = net.ingress_link_on_path(n["alice"], n["charlie"], n["edge-b"]) {
            b_links.insert("domain-a".to_string(), l);
        }
        if let Some(l) = net.ingress_link_on_path(n["david"], n["charlie"], n["edge-b"]) {
            b_links.insert("domain-d".to_string(), l);
        }
        bindings.push((
            1,
            EdgeBinding {
                first_router: None,
                ingress_links: b_links,
            },
        ));
        // domain-c: ingress from B.
        let mut c_links = HashMap::new();
        if let Some(l) = net.ingress_link_on_path(n["alice"], n["charlie"], n["edge-c"]) {
            c_links.insert("domain-b".to_string(), l);
        }
        bindings.push((
            2,
            EdgeBinding {
                first_router: None,
                ingress_links: c_links,
            },
        ));
        // domain-d: David's first router.
        bindings.push((
            3,
            EdgeBinding {
                first_router: net.first_router(n["david"], n["charlie"]),
                ingress_links: HashMap::new(),
            },
        ));
    }
    for (i, b) in bindings {
        scenario.nodes[i].set_edge_binding(b);
    }

    (scenario, network, names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_builder_wires_routes_and_slas() {
        let s = build_chain(ChainOptions {
            domains: 4,
            ..ChainOptions::default()
        });
        assert_eq!(s.domains.len(), 4);
        assert_eq!(s.nodes.len(), 4);
        // Middle node routes both ways.
        let b = &s.nodes[1];
        assert_eq!(b.route_towards("domain-a"), Some("domain-a".into()));
        assert_eq!(b.route_towards("domain-d"), Some("domain-c".into()));
        assert!(s.users.contains_key("alice"));
        assert!(s.users["alice"].capability.is_some());
        assert!(s.users["david"].capability.is_none());
    }

    #[test]
    fn paper_world_has_four_domains_and_bindings() {
        let (s, net, names) = build_paper_world(100_000_000, SimDuration::from_millis(5));
        assert_eq!(s.domains.len(), 4);
        assert!(names.contains_key("edge-b"));
        assert!(net.first_router(names["alice"], names["charlie"]).is_some());
    }

    #[test]
    fn as_graph_is_connected_and_deterministic() {
        let opts = || AsGraphOptions {
            transits: 6,
            stubs: 30,
            seed: 42,
            ..AsGraphOptions::default()
        };
        let g = build_as_graph(opts());
        assert_eq!(g.scenario.domains.len(), 36);
        assert_eq!(g.transits.len(), 6);
        assert_eq!(g.stubs.len(), 30);
        // Every node can route to every other domain (BFS covered the
        // whole graph, i.e. the topology is connected).
        for node in &g.scenario.nodes {
            for d in &g.scenario.domains {
                if d != node.domain() {
                    assert!(
                        node.route_towards(d).is_some(),
                        "{} has no route to {d}",
                        node.domain()
                    );
                }
            }
        }
        // Stubs only peer with transits; their next hop anywhere is a
        // transit.
        for s in &g.stubs {
            let node = g.scenario.nodes.iter().find(|n| n.domain() == s).unwrap();
            let hop = node.route_towards(&g.stubs[0]);
            if let Some(h) = hop {
                if &h != s {
                    assert!(h.starts_with("transit-"), "{s} routes via {h}");
                }
            }
        }
        // Same seed, same world.
        let h = build_as_graph(opts());
        assert_eq!(g.edges, h.edges);
        assert_eq!(g.scenario.domains, h.scenario.domains);
        // Different seed, different wiring (overwhelmingly likely).
        let k = build_as_graph(AsGraphOptions { seed: 43, ..opts() });
        assert_ne!(g.edges, k.edges);
    }

    #[test]
    fn user_signs_verifiable_requests() {
        let mut s = build_chain(ChainOptions::default());
        let spec = s.spec("alice", 7, 10_000_000, Timestamp(0), 3600);
        let rar = {
            let alice = &s.users["alice"];
            alice.sign_request(spec, &s.nodes[0])
        };
        let alice = &s.users["alice"];
        assert!(rar.verify_signature(alice.key.public()));
        // Capability chain: CAS grant + delegation to BB_A.
        assert_eq!(rar.capability_certs().len(), 2);
    }
}
