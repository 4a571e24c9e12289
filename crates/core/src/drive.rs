//! Deterministic virtual-time driver for a mesh of brokers.
//!
//! The [`Mesh`] owns the per-domain [`BbNode`]s, a latency matrix, and a
//! virtual-time scheduler (reusing `qos_net`'s DES engine). Every message
//! a node emits is delivered after the configured inter-domain latency;
//! completions and message traffic are logged with timestamps, which is
//! what the FIG3/FIG5/EXP-L/EXP-T experiments measure. Optionally a live
//! [`qos_net::Network`] is attached, and every edge-configuration command
//! brokers emit is applied to it — connecting the control plane built
//! here to the data plane of `qos-net` (FIG4).

use crate::envelope::SignedRar;
use crate::messages::{DenialCode, DirectRequest, SignalMessage};
use crate::node::{BbNode, Completion, PeerId};
use crate::rar::RarId;
use qos_crypto::{Certificate, DistinguishedName, Timestamp};
use qos_net::des::Scheduler;
use qos_net::{Network, SimDuration, SimTime};
use qos_telemetry::ManualClock;
use std::collections::HashMap;
use std::sync::Arc;

/// A timestamped record of one delivered message (for experiment
/// accounting).
#[derive(Debug, Clone, PartialEq)]
pub struct MsgRecord {
    /// Delivery time.
    pub at: SimTime,
    /// Sending entity (domain name, or `user:<domain>` for submissions).
    pub from: String,
    /// Receiving domain.
    pub to: String,
    /// Message discriminant (`Request`, `Approve`, …).
    pub kind: &'static str,
}

fn kind_of(msg: &SignalMessage) -> &'static str {
    match msg {
        SignalMessage::Request(_) => "Request",
        SignalMessage::Approve(_) => "Approve",
        SignalMessage::Deny(_) => "Deny",
        SignalMessage::Direct(_) => "Direct",
        SignalMessage::DirectReply(_) => "DirectReply",
        SignalMessage::TunnelFlow(_) => "TunnelFlow",
        SignalMessage::TunnelFlowReply(_) => "TunnelFlowReply",
        SignalMessage::Release(_) => "Release",
        SignalMessage::TunnelFlowRelease(_) => "TunnelFlowRelease",
    }
}

// Boxed payloads keep the event small despite `SignedRar`'s size (the
// scheduler stores thousands of pending events in larger sweeps).
#[allow(clippy::large_enum_variant)]
enum MeshEvent {
    Deliver {
        from: String,
        to: String,
        msg: SignalMessage,
    },
    Submit {
        domain: String,
        rar: Box<SignedRar>,
        user_cert: Box<Certificate>,
    },
    TunnelFlow {
        domain: String,
        tunnel: RarId,
        flow: u64,
        rate_bps: u64,
        requestor: DistinguishedName,
    },
    Release {
        domain: String,
        rar_id: RarId,
    },
}

/// The broker mesh under a deterministic virtual clock.
pub struct Mesh {
    nodes: HashMap<String, BbNode>,
    latency: HashMap<(String, String), SimDuration>,
    sched: Scheduler<MeshEvent>,
    network: Option<Network>,
    completions: Vec<(SimTime, String, Completion)>,
    msg_log: Vec<MsgRecord>,
    agent_inbox: Vec<(SimTime, SignalMessage)>,
    processing_delay: SimDuration,
    sim_clock: Option<ManualClock>,
}

impl Default for Mesh {
    fn default() -> Self {
        Self::new()
    }
}

impl Mesh {
    /// An empty mesh.
    pub fn new() -> Self {
        Self {
            nodes: HashMap::new(),
            latency: HashMap::new(),
            sched: Scheduler::new(),
            network: None,
            completions: Vec::new(),
            msg_log: Vec::new(),
            agent_inbox: Vec::new(),
            processing_delay: SimDuration::ZERO,
            sim_clock: None,
        }
    }

    /// Install a shared virtual-time clock on every broker (present and
    /// future): span timestamps then carry simulated nanoseconds instead
    /// of wall time, advanced by this scheduler as events dispatch. The
    /// returned clone reads the same cell.
    pub fn install_sim_clock(&mut self) -> ManualClock {
        let clock = ManualClock::new();
        for node in self.nodes.values_mut() {
            node.set_clock(Arc::new(clock.clone()));
        }
        self.sim_clock = Some(clock.clone());
        clock
    }

    /// Model per-message broker processing cost (signature checks,
    /// policy evaluation, admission control): every message a broker
    /// emits leaves `delay` after the triggering message arrived.
    pub fn set_processing_delay(&mut self, delay: SimDuration) {
        self.processing_delay = delay;
    }

    /// Attach a live data plane; brokers' edge commands are applied to it.
    pub fn attach_network(&mut self, network: Network) {
        self.network = Some(network);
    }

    /// Access the attached data plane.
    pub fn network(&self) -> Option<&Network> {
        self.network.as_ref()
    }

    /// Mutable access to the attached data plane (to add flows / run it).
    pub fn network_mut(&mut self) -> Option<&mut Network> {
        self.network.as_mut()
    }

    /// Add a broker.
    pub fn add_node(&mut self, mut node: BbNode) {
        if let Some(clock) = &self.sim_clock {
            node.set_clock(Arc::new(clock.clone()));
        }
        self.nodes.insert(node.domain().to_string(), node);
    }

    /// Set the one-way signalling latency between two domains (both
    /// directions).
    pub fn set_latency(&mut self, a: &str, b: &str, latency: SimDuration) {
        self.latency.insert((a.to_string(), b.to_string()), latency);
        self.latency.insert((b.to_string(), a.to_string()), latency);
    }

    /// One-way latency between two domains: the configured pair, or the
    /// sum along the hop-by-hop route (a direct channel crosses the same
    /// wires).
    pub fn latency_between(&self, from: &str, to: &str) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        if let Some(&l) = self.latency.get(&(from.to_string(), to.to_string())) {
            return l;
        }
        // Walk the route table, summing per-hop latencies.
        let mut total = SimDuration::ZERO;
        let mut at = from.to_string();
        let mut hops = 0;
        while at != to {
            let Some(node) = self.nodes.get(&at) else {
                return SimDuration::ZERO;
            };
            let Some(next) = node.route_towards(to) else {
                return SimDuration::ZERO;
            };
            total = total
                + self
                    .latency
                    .get(&(at.clone(), next.clone()))
                    .copied()
                    .unwrap_or(SimDuration::ZERO);
            at = next;
            hops += 1;
            if hops > self.nodes.len() {
                return SimDuration::ZERO;
            }
        }
        total
    }

    /// Borrow a broker.
    pub fn node(&self, domain: &str) -> &BbNode {
        &self.nodes[domain]
    }

    /// Mutably borrow a broker.
    pub fn node_mut(&mut self, domain: &str) -> &mut BbNode {
        self.nodes.get_mut(domain).expect("unknown domain")
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Completions observed so far (time, domain, completion).
    pub fn completions(&self) -> &[(SimTime, String, Completion)] {
        &self.completions
    }

    /// Message log.
    pub fn msg_log(&self) -> &[MsgRecord] {
        &self.msg_log
    }

    /// Messages delivered to non-broker entities (end-to-end agents).
    pub fn agent_inbox(&self) -> &[(SimTime, SignalMessage)] {
        &self.agent_inbox
    }

    /// Current agent-inbox length (sequential agents use this to find
    /// the replies a step produced).
    pub fn agent_inbox_len(&self) -> usize {
        self.agent_inbox.len()
    }

    /// Count delivered messages of `kind` addressed to `domain`.
    pub fn messages_to(&self, domain: &str, kind: &str) -> usize {
        self.msg_log
            .iter()
            .filter(|m| m.to == domain && m.kind == kind)
            .count()
    }

    /// Submit a user request to its home broker after `delay`.
    pub fn submit_in(
        &mut self,
        delay: SimDuration,
        domain: &str,
        rar: SignedRar,
        user_cert: Certificate,
    ) {
        self.sched.schedule_in(
            delay,
            MeshEvent::Submit {
                domain: domain.to_string(),
                rar: Box::new(rar),
                user_cert: Box::new(user_cert),
            },
        );
    }

    /// Ask the source broker for a tunnel sub-flow after `delay`.
    pub fn tunnel_flow_in(
        &mut self,
        delay: SimDuration,
        domain: &str,
        tunnel: RarId,
        flow: u64,
        rate_bps: u64,
        requestor: DistinguishedName,
    ) {
        self.sched.schedule_in(
            delay,
            MeshEvent::TunnelFlow {
                domain: domain.to_string(),
                tunnel,
                flow,
                rate_bps,
                requestor,
            },
        );
    }

    /// Run each broker's expiry sweep at wall-clock `wall` and apply the
    /// resulting edge reconfiguration. Returns the number of
    /// reservations expired across the mesh. (Expiry is local to each
    /// domain — the interval is part of the signed spec, so no
    /// signalling is needed.)
    pub fn expire_all_at(&mut self, wall: Timestamp) -> usize {
        let domains: Vec<String> = self.nodes.keys().cloned().collect();
        let mut total = 0;
        for d in domains {
            let node = self.nodes.get_mut(&d).expect("listed");
            node.set_time(wall);
            total += node.expire(wall).len();
            self.after_dispatch(&d, Vec::new());
        }
        total
    }

    /// Tear down a standing reservation from its source domain after
    /// `delay`.
    pub fn release_in(&mut self, delay: SimDuration, domain: &str, rar_id: RarId) {
        self.sched.schedule_in(
            delay,
            MeshEvent::Release {
                domain: domain.to_string(),
                rar_id,
            },
        );
    }

    /// Inject an Approach-1 direct request from `agent_domain`'s
    /// end-to-end agent to `target` after `delay` (plus the inter-domain
    /// latency).
    pub fn direct_request_in(
        &mut self,
        delay: SimDuration,
        agent_domain: &str,
        target: &str,
        req: DirectRequest,
    ) {
        let lat = self.latency_between(agent_domain, target);
        self.sched.schedule_in(
            delay + lat,
            MeshEvent::Deliver {
                from: format!("user:{agent_domain}"),
                to: target.to_string(),
                msg: SignalMessage::Direct(Box::new(req)),
            },
        );
    }

    fn wall_clock(&self) -> Timestamp {
        Timestamp(self.sched.now().as_nanos() / 1_000_000_000)
    }

    /// Run until no events remain. Returns the number of events
    /// processed.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut processed = 0;
        while let Some((now, event)) = self.sched.pop() {
            processed += 1;
            if let Some(clock) = &self.sim_clock {
                clock.set_ns(now.as_nanos());
            }
            match event {
                MeshEvent::Deliver { from, to, msg } => {
                    self.msg_log.push(MsgRecord {
                        at: now,
                        from: from.clone(),
                        to: to.clone(),
                        kind: kind_of(&msg),
                    });
                    let wall = self.wall_clock();
                    let peer_from = from.strip_prefix("user:").unwrap_or(&from).to_string();
                    let Some(node) = self.nodes.get_mut(&to) else {
                        // Addressed to a non-broker entity (an agent).
                        self.agent_inbox.push((now, msg));
                        continue;
                    };
                    node.set_time(wall);
                    let out = node.recv(&peer_from, msg);
                    self.after_dispatch(&to, out);
                }
                MeshEvent::Submit {
                    domain,
                    rar,
                    user_cert,
                } => {
                    let wall = self.wall_clock();
                    let node = self.nodes.get_mut(&domain).expect("unknown domain");
                    node.set_time(wall);
                    let out = node.submit(*rar, &user_cert);
                    self.after_dispatch(&domain, out);
                }
                MeshEvent::Release { domain, rar_id } => {
                    let wall = self.wall_clock();
                    let node = self.nodes.get_mut(&domain).expect("unknown domain");
                    node.set_time(wall);
                    match node.initiate_release(rar_id) {
                        Ok(out) => self.after_dispatch(&domain, out),
                        Err(_) => {
                            // Releasing an unknown reservation is a no-op.
                            self.after_dispatch(&domain, Vec::new());
                        }
                    }
                }
                MeshEvent::TunnelFlow {
                    domain,
                    tunnel,
                    flow,
                    rate_bps,
                    requestor,
                } => {
                    let wall = self.wall_clock();
                    let node = self.nodes.get_mut(&domain).expect("unknown domain");
                    node.set_time(wall);
                    match node.request_tunnel_flow(tunnel, flow, rate_bps, requestor) {
                        Ok(out) => self.after_dispatch(&domain, out),
                        Err(e) => self.completions.push((
                            self.sched.now(),
                            domain.clone(),
                            Completion::TunnelFlow {
                                tunnel,
                                flow,
                                accepted: false,
                                reason: DenialCode::Other(e.to_string().into()),
                            },
                        )),
                    }
                }
            }
        }
        processed
    }

    fn after_dispatch(&mut self, domain: &str, out: Vec<(PeerId, SignalMessage)>) {
        let now = self.sched.now();
        // Collect completions and edge commands from the node.
        let (completions, cmds) = {
            let node = self.nodes.get_mut(domain).expect("dispatched domain");
            (node.take_completions(), node.take_edge_commands())
        };
        for c in completions {
            self.completions.push((now, domain.to_string(), c));
        }
        if let Some(net) = self.network.as_mut() {
            for cmd in cmds {
                qos_broker::EdgeControl::apply(net, cmd);
            }
        }
        for (to, msg) in out {
            let lat = self.latency_between(domain, to.strip_prefix("user:").unwrap_or(&to));
            self.sched.schedule_in(
                self.processing_delay + lat,
                MeshEvent::Deliver {
                    from: domain.to_string(),
                    to: to.to_string(),
                    msg,
                },
            );
        }
    }

    /// The most recent reservation completion for `rar_id` at `domain`,
    /// with its timestamp.
    pub fn reservation_outcome(
        &self,
        domain: &str,
        rar_id: RarId,
    ) -> Option<(SimTime, &Completion)> {
        self.completions
            .iter()
            .rev()
            .find(|(_, d, c)| {
                d == domain
                    && matches!(c,
                        Completion::Reservation { rar_id: id, .. } if *id == rar_id)
            })
            .map(|(t, _, c)| (*t, c))
    }
}
