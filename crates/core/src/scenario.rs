//! Reusable scenario builders: the paper's multi-domain world, wired up.
//!
//! A world is a peering graph: a RAR moves one peering hop at a time,
//! over channels governed by SLAs. Each public builder — a chain
//! ([`build_chain`]), a hub and its leaves ([`build_star`]), a seeded
//! transit/stub graph ([`build_as_graph`]) and Figure 4's four domains
//! ([`build_paper_world`]) — only draws its topology: the domains, each
//! domain's policy and local capacity, and the directed peerings
//! `(upstream, downstream, sla_rate_bps)`. One private builder does the
//! rest, each job once and in this order:
//!
//! 1. one root CA issues every broker's certificate, in domain order,
//!    then each user's (Alice, David, the extra users); each CAS grants
//!    its community's users a capability;
//! 2. one [`BbConfig`] per domain, with one peer per neighbour carrying
//!    whichever of the ingress and egress SLAs exist, routes from the
//!    domain to every other, by BFS over the peerings in the order they
//!    were listed, and the domain's edge binding, if it has one; from
//!    it, the domain's [`BbNode`];
//! 3. each peering recorded once as a [`Scenario::links`] entry,
//!    upstream end first: the end that dials.
//!
//! A scenario then hands itself to either fabric: [`Scenario::mesh`]
//! moves the brokers into a [`Mesh`] with a latency on every peering,
//! and `qos_transport::TcpMesh::spawn` takes the brokers,
//! [`Scenario::identities`] and [`Scenario::links`]. Shared by the
//! integration tests, the examples, and every experiment binary.

use crate::channel::ChannelIdentity;
use crate::drive::Mesh;
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
use std::collections::{HashMap, VecDeque};

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
    /// Domain names in builder order (`domain-a`, `domain-b`, … for a
    /// chain).
    pub domains: Vec<String>,
    /// Brokers by domain, in `domains` order, until a fabric takes them.
    pub nodes: Vec<BbNode>,
    /// Users by name.
    pub users: HashMap<String, UserIdentity>,
    /// Each peering once, upstream (dialling) end first, in the order
    /// the builder listed them.
    pub links: Vec<(String, String)>,
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

    /// Each broker's channel identity, by domain: the key it was built
    /// with and its certificate. Read it before a fabric takes the
    /// brokers.
    pub fn identities(&self) -> HashMap<String, ChannelIdentity> {
        self.nodes
            .iter()
            .map(|n| {
                let (key, cert) = (broker_key(n.domain()), n.cert().clone());
                (n.domain().to_string(), ChannelIdentity { key, cert })
            })
            .collect()
    }

    /// Move the brokers into a virtual-time mesh with latency `hop` on
    /// every peering.
    pub fn mesh(&mut self, hop: SimDuration) -> Mesh {
        let mut mesh = Mesh::new();
        for node in self.nodes.drain(..) {
            mesh.add_node(node);
        }
        for (a, b) in &self.links {
            mesh.set_latency(a, b, hop);
        }
        mesh
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

/// The key broker `domain` is built with and dials and accepts with.
fn broker_key(domain: &str) -> KeyPair {
    KeyPair::from_seed(format!("bb-{domain}").as_bytes())
}

/// `(policy, local capacity)` of each of `n` domains under `opts`.
fn chain_brokers(opts: &ChainOptions, n: usize) -> Vec<(String, u64)> {
    (0..n)
        .map(|i| {
            let policy = opts.policies.get(&i).map_or(PERMIT_ALL, String::as_str);
            (policy.to_string(), opts.local_capacity_bps)
        })
        .collect()
}

/// A domain's neighbour: its index, then the rates of the ingress and
/// the egress SLA with it, where they exist.
type Neighbour = (usize, Option<u64>, Option<u64>);

/// The one world builder (see the module doc). `brokers` holds each
/// domain's `(policy, local capacity)`; `peerings` the directed
/// `(upstream, downstream, sla_rate_bps)` by domain index; `edges` the
/// edge bindings of the first domains (the rest have none). Of `opts`
/// only the shared options are read: grants, extra users, trust policy,
/// telemetry and tracing.
fn build_world(
    domains: Vec<String>,
    brokers: Vec<(String, u64)>,
    peerings: &[(usize, usize, u64)],
    edges: Vec<EdgeBinding>,
    opts: &ChainOptions,
) -> Scenario {
    let n = domains.len();
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("RootCA"),
        KeyPair::from_seed(b"root-ca"),
    );
    let keys: Vec<KeyPair> = domains.iter().map(|d| broker_key(d)).collect();
    let certs: Vec<Certificate> = domains
        .iter()
        .zip(&keys)
        .map(|(d, k)| {
            let dn = DistinguishedName::broker(d);
            ca.issue_identity(dn, k.public(), Validity::unbounded())
        })
        .collect();

    // Communities, then users with their grants.
    let mut cas: Vec<CommunityAuthorizationServer> = opts
        .grants
        .iter()
        .map(|(community, _)| {
            let seed = format!("cas-{community}");
            CommunityAuthorizationServer::new(community, KeyPair::from_seed(seed.as_bytes()))
        })
        .collect();
    let cas_keys: HashMap<String, PublicKey> = opts
        .grants
        .iter()
        .zip(&cas)
        .map(|((community, _), server)| (community.clone(), server.public_key()))
        .collect();
    let mut users = HashMap::new();
    let always = ["alice".to_string(), "david".to_string()];
    for name in always.iter().chain(&opts.extra_users) {
        let key = KeyPair::from_seed(format!("user-{name}").as_bytes());
        let proxy = KeyPair::from_seed(format!("proxy-{name}").as_bytes());
        let dn = DistinguishedName::user(&capitalize(name), "ANL");
        let cert = ca.issue_identity(dn.clone(), key.public(), Validity::unbounded());
        let mut capability = None;
        for ((community, granted), server) in opts.grants.iter().zip(&mut cas) {
            if granted.contains(name) {
                let attrs = vec![format!("{community}:member")];
                capability = Some(server.grant(&dn, proxy.public(), attrs, Validity::unbounded()));
            }
        }
        let user = UserIdentity {
            key,
            cert,
            dn,
            proxy,
            capability,
        };
        users.insert(name.clone(), user);
    }

    // Neighbours of each domain in order of first mention, each with
    // its `(ingress, egress)` SLA rates; each pair once as a link.
    let mut adj: Vec<Vec<Neighbour>> = vec![Vec::new(); n];
    let mut links = Vec::new();
    for &(up, down, rate) in peerings {
        if !adj[up].iter().any(|e| e.0 == down) {
            adj[up].push((down, None, None));
            adj[down].push((up, None, None));
            links.push((domains[up].clone(), domains[down].clone()));
        }
        let linked = "the pair was linked above";
        adj[up].iter_mut().find(|e| e.0 == down).expect(linked).2 = Some(rate);
        adj[down].iter_mut().find(|e| e.0 == up).expect(linked).1 = Some(rate);
    }

    let mut nodes = Vec::with_capacity(n);
    let mut edges = edges.into_iter();
    for (i, (policy_src, local_capacity_bps)) in brokers.into_iter().enumerate() {
        let d = &domains[i];
        // The SLA with neighbour `j` pins `j`'s certificate.
        let sla = |up: usize, down: usize, rate: u64, j: usize| Sla {
            upstream: domains[up].clone(),
            downstream: domains[down].clone(),
            sls: Sls::strict(rate),
            peer_cert: certs[j].clone(),
            ca_cert: certs[j].clone(),
            price_per_mbps_sec: 1,
        };
        let peers = adj[i]
            .iter()
            .map(|&(j, rate_in, rate_out)| {
                let sla_in = rate_in.map(|r| sla(j, i, r, j));
                let sla_out = rate_out.map(|r| sla(i, j, r, j));
                (certs[j].clone(), sla_in, sla_out)
            })
            .collect();
        // Shortest-path next hops: `first_hop[t]` is the neighbour on
        // one shortest path from `i` to `t`.
        let mut first_hop: Vec<Option<usize>> = vec![None; n];
        let mut queue = VecDeque::from([i]);
        while let Some(u) = queue.pop_front() {
            for &(v, ..) in &adj[u] {
                if v != i && first_hop[v].is_none() {
                    first_hop[v] = if u == i { Some(v) } else { first_hop[u] };
                    queue.push_back(v);
                }
            }
        }
        let routes = first_hop
            .iter()
            .enumerate()
            .filter_map(|(t, hop)| hop.map(|h| (domains[t].clone(), domains[h].clone())))
            .collect();
        let gs_seed = format!("gs-{d}");
        nodes.push(BbNode::new(BbConfig {
            domain: d.clone(),
            key: keys[i].clone(),
            cert: certs[i].clone(),
            policy_src,
            groups: GroupServer::new(
                &format!("groups-{d}"),
                KeyPair::from_seed(gs_seed.as_bytes()),
            ),
            local_capacity_bps,
            trust_policy: opts.trust_policy,
            cas_keys: cas_keys.clone(),
            user_ca: ca.public_key(),
            telemetry: opts.telemetry.clone(),
            tracing: opts.tracing,
            peers,
            routes,
            edge: edges.next().unwrap_or_default(),
        }));
    }

    Scenario {
        ca_key: ca.public_key(),
        cas_keys,
        domains,
        nodes,
        users,
        links,
        next_rar: 0,
    }
}

/// Build a linear chain of domains with brokers, SLAs, users, and
/// capability grants.
pub fn build_chain(opts: ChainOptions) -> Scenario {
    assert!(opts.domains >= 2, "a chain needs at least two domains");
    let domains = (0..opts.domains).map(domain_name).collect();
    let peerings: Vec<_> = (1..opts.domains)
        .map(|i| (i - 1, i, opts.sla_rate_bps))
        .collect();
    let brokers = chain_brokers(&opts, opts.domains);
    build_world(domains, brokers, &peerings, Vec::new(), &opts)
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
    let mut domains: Vec<String> = (0..leaves).map(domain_name).collect();
    domains.push("hub".to_string());
    let rate = opts.sla_rate_bps;
    let peerings: Vec<_> = (0..leaves)
        .flat_map(|leaf| [(leaf, leaves, rate), (leaves, leaf, rate)])
        .collect();
    let brokers = chain_brokers(&opts, leaves + 1);
    build_world(domains, brokers, &peerings, Vec::new(), &opts)
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

    // ---- Brokers: policy, then capacity, per domain. -------------------
    let brokers = (0..n)
        .map(|i| {
            let is_transit = i < opts.transits;
            let policy = as_graph_policy(&domains[i], is_transit, &mut rng);
            let scale = if is_transit {
                8 + rng.random_range(9)
            } else {
                1 + rng.random_range(4)
            };
            (policy, opts.local_capacity_bps * scale)
        })
        .collect();
    let peerings: Vec<_> = edges
        .iter()
        .flat_map(|&(a, b, rate)| [(a, b, rate), (b, a, rate)])
        .collect();
    let named_edges = edges
        .iter()
        .map(|&(a, b, r)| (domains[a].clone(), domains[b].clone(), r))
        .collect();
    let shared = ChainOptions {
        grants: opts.grants,
        extra_users: opts.extra_users,
        trust_policy: opts.trust_policy,
        telemetry: opts.telemetry,
        tracing: opts.tracing,
        ..ChainOptions::default()
    };
    AsGraph {
        scenario: build_world(domains, brokers, &peerings, Vec::new(), &shared),
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

/// The paper's Figure 4 world: the three-domain chain a → b → c plus
/// David's domain d peering into b, and a matching data plane; every
/// broker reports to `telemetry`.
///
/// Returns `(scenario_with_4_nodes, network, node_ids)` where the fourth
/// node is `domain-d` and `node_ids` resolves `alice`/`charlie`/`david`
/// hosts and the `edge-*` routers.
pub fn build_paper_world(
    capacity_bps: u64,
    hop_delay: SimDuration,
    telemetry: Telemetry,
) -> (Scenario, Network, HashMap<String, NodeId>) {
    let opts = ChainOptions {
        telemetry,
        ..ChainOptions::default()
    };
    let domains = (0..4).map(domain_name).collect();
    let rate = opts.sla_rate_bps;
    let peerings = [(0, 1, rate), (1, 2, rate), (3, 1, rate)];

    // Matching data plane; bind each broker to its edge router (a and d,
    // where Alice's and David's flows start) or ingress links (b admits
    // from a and d, c from b).
    let (topo, names) = qos_net::paper_topology(capacity_bps, hop_delay);
    let network = Network::new(topo);
    let (net, n) = (&network, &names);
    let ingress = |host: &str, edge: &str, peer: &str| {
        let link = net.ingress_link_on_path(n[host], n["charlie"], n[edge]);
        link.map(|l| (peer.to_string(), l))
    };
    let b_links = [
        ingress("alice", "edge-b", "domain-a"),
        ingress("david", "edge-b", "domain-d"),
    ];
    let bindings = vec![
        EdgeBinding {
            first_router: net.first_router(n["alice"], n["charlie"]),
            ingress_links: HashMap::new(),
        },
        EdgeBinding {
            first_router: None,
            ingress_links: b_links.into_iter().flatten().collect(),
        },
        EdgeBinding {
            first_router: None,
            ingress_links: ingress("alice", "edge-c", "domain-b").into_iter().collect(),
        },
        EdgeBinding {
            first_router: net.first_router(n["david"], n["charlie"]),
            ingress_links: HashMap::new(),
        },
    ];
    let brokers = chain_brokers(&opts, 4);
    let scenario = build_world(domains, brokers, &peerings, bindings, &opts);
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
        let (s, net, names) = build_paper_world(
            100_000_000,
            SimDuration::from_millis(5),
            Telemetry::disabled(),
        );
        assert_eq!(s.domains.len(), 4);
        assert!(names.contains_key("edge-b"));
        assert!(net.first_router(names["alice"], names["charlie"]).is_some());
    }

    #[test]
    fn paper_world_peers_d_into_b_only() {
        let (mut s, _, _) = build_paper_world(
            100_000_000,
            SimDuration::from_millis(5),
            Telemetry::disabled(),
        );
        let link = |a: &str, b: &str| (a.to_string(), b.to_string());
        let want = [
            link("domain-a", "domain-b"),
            link("domain-b", "domain-c"),
            link("domain-d", "domain-b"),
        ];
        assert_eq!(s.links, want);
        // Everyone reaches domain-d through b, and d reaches c through b.
        for n in &s.nodes[..3] {
            let via = if n.domain() == "domain-b" {
                "domain-d"
            } else {
                "domain-b"
            };
            assert_eq!(n.route_towards("domain-d").as_deref(), Some(via));
        }
        assert_eq!(
            s.nodes[3].route_towards("domain-c").as_deref(),
            Some("domain-b")
        );
        // d → b is one SLA, held at both ends; c and d do not peer.
        let (b, d) = (s.nodes[1].core(), s.nodes[3].core());
        assert!(b.ingress_sla("domain-d").is_some() && b.egress_sla("domain-d").is_none());
        assert!(d.egress_sla("domain-b").is_some() && d.ingress_sla("domain-b").is_none());
        assert!(s.nodes[2].core().ingress_sla("domain-d").is_none());
        // Latency lies on peerings only: David's agent reaches c in two hops.
        let mesh = s.mesh(SimDuration::from_millis(5));
        let hop = |a, b| mesh.latency_between(a, b);
        assert_eq!(hop("domain-d", "domain-b"), SimDuration::from_millis(5));
        assert_eq!(hop("domain-d", "domain-c"), SimDuration::from_millis(10));
    }

    #[test]
    fn a_world_hands_its_brokers_to_a_mesh_with_their_identities() {
        let mut s = build_star(3, ChainOptions::default());
        let link = |leaf: &str| (leaf.to_string(), "hub".to_string());
        let want = [link("domain-a"), link("domain-b"), link("domain-c")];
        assert_eq!(s.links, want);
        let ids = s.identities();
        assert_eq!(ids.len(), 4);
        for n in &s.nodes {
            let id = &ids[n.domain()];
            assert_eq!(id.key.public(), n.public_key());
            assert_eq!(id.cert.tbs().subject, *n.dn());
        }
        let mesh = s.mesh(SimDuration::from_millis(3));
        assert!(s.nodes.is_empty());
        let hop = |a, b| mesh.latency_between(a, b);
        assert_eq!(hop("domain-a", "hub"), SimDuration::from_millis(3));
        assert_eq!(hop("domain-a", "domain-c"), SimDuration::from_millis(6));
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
