//! The per-domain bandwidth-broker protocol engine.
//!
//! A [`BbNode`] is one domain's broker as §6 describes it: it terminates
//! mutually authenticated peer channels, runs the source / intermediate /
//! destination steps of the signalling protocol (§6.1–6.3), drives the
//! local [`qos_broker::BrokerCore`] through the two-phase hold → commit /
//! release cycle, consults its [`qos_policy::PolicyServer`], delegates
//! capability certificates downstream, emits edge-router configuration,
//! and manages tunnels.
//!
//! The node is a **pure state machine** with one door,
//! [`BbNode::step`] (`crate::step`): a driver hands it [`crate::Input`]s
//! and gets back, a run at a time, the messages to transmit and the
//! requests finished. Drivers (virtual-time — see [`crate::drive`] — or
//! the TCP reactor of `qos_transport`) decide how those messages travel.
//! That separation is what lets the same protocol code run under
//! deterministic latency experiments and live threads.

use crate::envelope::{RarLayer, SignedRar};
use crate::error::CoreError;
use crate::flowtable::{FlowTable, TimerWheel, EXPIRY_NEVER, MAX_FLOW_RATE_BPS};
use crate::messages::{
    Approval, Denial, DenialCode, DirectReply, DirectRequest, Release, SignalMessage,
    TunnelFlowRelease, TunnelFlowReply, TunnelFlowRequest,
};
use crate::rar::RarId;
use crate::step::Run;
use crate::trust::{verify_view, KeySource};
use crate::view::RarView;
use qos_broker::{BrokerCore, EdgeCommand, Interval, PathSegment, ReservationId, Sla};
use qos_crypto::sha256::Digest;
use qos_crypto::{
    Certificate, Delegation, DelegationChain, DistinguishedName, KeyPair, PublicKey, Signature,
    Timestamp, TrustPolicy, Validity,
};
use qos_net::conditioner::{ExcessTreatment, TrafficProfile};
use qos_net::{FlowId, LinkId, NodeId};
use qos_policy::request::VerifiedCapability;
use qos_policy::{Assertion, AttributeSet, GroupServer, PolicyServer, ReservationOracle, Value};
use qos_storage::{LedgerRecord, LedgerSnapshot, Recovered, SharedStore, SnapTicket};
use qos_telemetry::{
    Clock, Counter, EventFamily, FlightEvent, Gauge, Histogram, Span, SpanKind, Stopped, Telemetry,
    TraceId, Tracer,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An interned peer/domain address on broker outputs. Reply addresses
/// on the tunnel fast path are reference-counted clones of the domain
/// name learned at reservation time — no per-reply `String` allocation
/// (DESIGN.md §D14).
pub type PeerId = Arc<str>;

/// Binding from this domain's broker to its data plane.
#[derive(Debug, Clone, Default)]
pub struct EdgeBinding {
    /// First-hop router where per-flow classifiers are installed (source
    /// domains).
    pub first_router: Option<NodeId>,
    /// Domain-ingress link per upstream peer, where aggregate policers
    /// live.
    pub ingress_links: HashMap<String, LinkId>,
}

/// A finished request, as observed at the source domain.
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// End-to-end reservation finished.
    Reservation {
        /// The request.
        rar_id: RarId,
        /// Approval (with the full endorsement chain) or the denial.
        result: Result<Approval, Denial>,
    },
    /// A tunnel sub-flow request finished.
    TunnelFlow {
        /// The tunnel.
        tunnel: RarId,
        /// The sub-flow.
        flow: u64,
        /// Accepted by the destination?
        accepted: bool,
        /// Denial code on rejection ([`DenialCode::None`] on success).
        reason: DenialCode,
    },
}

/// Message/crypto counters for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Messages received.
    pub rx: u64,
    /// Messages sent.
    pub tx: u64,
    /// Signatures created.
    pub signed: u64,
    /// Signatures verified (envelope layers, approvals, capabilities).
    pub verified: u64,
}

/// Single-storage counter cells: the node increments these directly, and
/// [`BbNode::install_telemetry`] registers the very same `Arc`s with the
/// registry — [`BbNode::counters`] and the Prometheus exposition read one
/// set of atomics, so they can never diverge.
#[derive(Debug, Default)]
struct CounterCells {
    rx: Arc<AtomicU64>,
    tx: Arc<AtomicU64>,
    signed: Arc<AtomicU64>,
    verified: Arc<AtomicU64>,
}

impl CounterCells {
    #[inline]
    fn add_rx(&self, n: u64) {
        self.rx.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    fn add_tx(&self, n: u64) {
        self.tx.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    fn add_signed(&self, n: u64) {
        self.signed.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    fn add_verified(&self, n: u64) {
        self.verified.fetch_add(n, Ordering::Relaxed);
    }
    fn snapshot(&self) -> NodeCounters {
        NodeCounters {
            rx: self.rx.load(Ordering::Relaxed),
            tx: self.tx.load(Ordering::Relaxed),
            signed: self.signed.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
        }
    }
}

/// Resolved metric instruments. `Default` handles are detached no-ops, so
/// a node without [`BbNode::install_telemetry`] pays one `None` check per
/// operation and allocates nothing.
#[derive(Debug, Default)]
struct NodeInstruments {
    verify_ns: Histogram,
    sign_ns: Histogram,
    decide_ns: Histogram,
    queue_wait_ns: Histogram,
    admission_held: Counter,
    admission_refused: Counter,
    completions_ok: Counter,
    completions_denied: Counter,
    /// Tunnel fast path (DESIGN.md §D14): per-sub-flow admission time at
    /// the destination, held-record occupancy across both tunnel ends,
    /// and expiry-wheel sweeps.
    flow_admit_ns: Histogram,
    flow_table_occupancy: Gauge,
    flow_expiry_sweeps: Counter,
}

struct Pending {
    upstream: Option<String>,
    requestor: DistinguishedName,
    flow: u64,
    rate_bps: u64,
    interval: Interval,
    segment: PathSegment,
    tunnel: bool,
    trace: TraceId,
}

/// What a checked request is wrapped with on its way to the next domain.
struct Forward {
    next: String,
    /// The capability chain's new link, if this broker holds the chain.
    delegate: Option<Delegation>,
    /// This domain's policy attachments.
    attachments: AttributeSet,
}

/// The outcome of checking a peer's request.
enum Checked {
    /// Destination: the signed approval to send back.
    Approved(Approval),
    /// Transit: wrap and send on.
    Forward(Forward),
}

/// Source end of an established tunnel. Per-flow state lives in compact
/// [`FlowTable`]s (16 B records, no per-flow heap allocation) and the
/// in-flight sum is a counter maintained incrementally — admission never
/// iterates flows (the pre-§D14 path summed a `HashMap` per request).
struct TunnelSrc {
    dest_domain: PeerId,
    dest_pk: PublicKey,
    aggregate_bps: u64,
    allocated_bps: u64,
    /// Sum of rates awaiting a destination reply (≡ `pending_flows`
    /// rate sum at all times).
    pending_bps: u64,
    interval: Interval,
    /// Flows awaiting the destination's reply; `expiry` carries the
    /// requested hold tick ([`EXPIRY_NEVER`] = explicit release only).
    pending_flows: FlowTable,
    /// Accepted flows, so hold expiry and teardown know the rate to
    /// return without the caller restating it.
    held_flows: FlowTable,
}

/// Destination end of an established tunnel.
struct TunnelDst {
    /// The source BB's certified domain: the one channel peer whose
    /// sub-flow requests and releases are acted on.
    source_domain: PeerId,
    aggregate_bps: u64,
    allocated_bps: u64,
    /// Admitted sub-flows (rate per flow id).
    flows: FlowTable,
}

/// Per-domain broker configuration.
pub struct BbConfig {
    /// Domain name.
    pub domain: String,
    /// Broker key pair.
    pub key: KeyPair,
    /// Broker certificate.
    pub cert: Certificate,
    /// Policy source text for the local PDP.
    pub policy_src: String,
    /// Local group server.
    pub groups: GroupServer,
    /// Domain-internal EF capacity.
    pub local_capacity_bps: u64,
    /// Maximum acceptable introducer-chain depth.
    pub trust_policy: TrustPolicy,
    /// Trusted community authorization servers (issuer CN → key).
    pub cas_keys: HashMap<String, PublicKey>,
    /// CA trusted for user identity certificates.
    pub user_ca: PublicKey,
    /// Metrics destination; [`Telemetry::disabled`] (the conventional
    /// default) makes every instrument a no-op.
    pub telemetry: Telemetry,
    /// Record per-request trace spans.
    pub tracing: bool,
}

struct CpuOracle<'a>(&'a HashSet<u64>);

impl ReservationOracle for CpuOracle<'_> {
    fn has_valid_cpu_reservation(&self, id: i64) -> bool {
        id >= 0 && self.0.contains(&(id as u64))
    }
}

/// Hook that lets a higher layer (the transport's ticket issuer) fold
/// its own state into every exported ledger snapshot.
pub type SnapshotExtra = Arc<dyn Fn(&mut LedgerSnapshot) + Send + Sync>;

/// One domain's bandwidth broker.
pub struct BbNode {
    domain: String,
    dn: DistinguishedName,
    key: KeyPair,
    cert: Certificate,
    /// Protocol time: only an [`crate::Input::SetTime`] moves it.
    pub(crate) now: Timestamp,
    core: BrokerCore,
    pdp: PolicyServer,
    trust_policy: TrustPolicy,
    cas_keys: HashMap<String, PublicKey>,
    user_ca: PublicKey,
    peers: HashMap<String, Certificate>,
    routes: HashMap<String, String>,
    edge: EdgeBinding,
    pending: HashMap<RarId, Pending>,
    /// Requests finished since a driver last took them.
    pub(crate) completions: Vec<Completion>,
    edge_cmds: Vec<EdgeCommand>,
    cpu_reservations: HashSet<u64>,
    direct_users: HashMap<DistinguishedName, PublicKey>,
    tunnels_src: HashMap<RarId, TunnelSrc>,
    tunnels_dst: HashMap<RarId, TunnelDst>,
    /// Hold-expiry wheel over source-side held sub-flows (ticks are
    /// seconds of broker wall clock). Entries are `(tunnel, flow)`;
    /// cancellation is lazy — a fired entry whose flow is gone or whose
    /// hold was extended is skipped against `held_flows`.
    flow_expiry: TimerWheel<(RarId, u64)>,
    counters: CounterCells,
    telemetry: Telemetry,
    instruments: NodeInstruments,
    tracer: Tracer,
    verified_paths: HashMap<RarId, Vec<DistinguishedName>>,
    /// Augments ledger snapshots with transport-layer state (resumption
    /// tickets) — installed by the daemon.
    snapshot_extra: Option<SnapshotExtra>,
    /// Ticket state found during recovery replay, parked here until the
    /// transport layer collects it with [`BbNode::take_recovered_tickets`].
    recovered_tickets: RecoveredTickets,
}

/// Transport-layer ticket state recovered from the durable ledger: the
/// persisted issuer key plus every live issued-ticket entry.
#[derive(Debug, Clone, Default)]
pub struct RecoveredTickets {
    /// The ticket-issuer key (32 bytes) persisted at first startup.
    pub key: Option<Vec<u8>>,
    /// Authoritative server-side entries for issued tickets.
    pub tickets: Vec<SnapTicket>,
}

impl RecoveredTickets {
    /// True when recovery found no ticket state.
    pub fn is_empty(&self) -> bool {
        self.key.is_none() && self.tickets.is_empty()
    }
}

impl BbNode {
    /// Build a broker from its configuration.
    ///
    /// # Panics
    /// Panics if the policy source does not parse — a broker without a
    /// working policy must not come up — or if the broker cannot prove
    /// possession of its own key.
    pub fn new(config: BbConfig) -> Self {
        let pdp = PolicyServer::from_source(&config.policy_src, config.groups)
            .unwrap_or_else(|e| panic!("policy for {} failed to parse: {e}", config.domain));
        // §6.5's possession step, once: a capability chain is usable
        // here iff it ends at this key (`verify_capability_chain`),
        // and that this broker holds the private half is a fact about
        // the broker, not about any one request.
        let nonce = config.domain.as_bytes();
        let proof = config.key.prove_possession(nonce);
        let held = config.key.public().check_possession(nonce, &proof);
        assert!(held, "{} does not hold its own key", config.domain);
        let mut tracer = Tracer::default();
        tracer.set_enabled(config.tracing);
        let mut node = Self {
            dn: DistinguishedName::broker(&config.domain),
            core: BrokerCore::new(&config.domain, config.local_capacity_bps),
            domain: config.domain,
            key: config.key,
            cert: config.cert,
            now: Timestamp::ZERO,
            pdp,
            trust_policy: config.trust_policy,
            cas_keys: config.cas_keys,
            user_ca: config.user_ca,
            peers: HashMap::new(),
            routes: HashMap::new(),
            edge: EdgeBinding::default(),
            pending: HashMap::new(),
            completions: Vec::new(),
            edge_cmds: Vec::new(),
            cpu_reservations: HashSet::new(),
            direct_users: HashMap::new(),
            tunnels_src: HashMap::new(),
            tunnels_dst: HashMap::new(),
            flow_expiry: TimerWheel::new(),
            counters: CounterCells::default(),
            telemetry: Telemetry::disabled(),
            instruments: NodeInstruments::default(),
            tracer,
            verified_paths: HashMap::new(),
            snapshot_extra: None,
            recovered_tickets: RecoveredTickets::default(),
        };
        node.install_telemetry(config.telemetry);
        node
    }

    /// The domain this broker controls.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The broker's DN.
    pub fn dn(&self) -> &DistinguishedName {
        &self.dn
    }

    /// The broker's certificate.
    pub fn cert(&self) -> &Certificate {
        &self.cert
    }

    /// The broker's public key.
    pub fn public_key(&self) -> PublicKey {
        self.key.public()
    }

    /// The broker's current wall clock.
    pub fn time(&self) -> Timestamp {
        self.now
    }

    /// Register a peering: the SLA's pinned certificate plus (for
    /// upstream peers) the admission table. `sla_in`/`sla_out` mirror
    /// [`BrokerCore::add_ingress_sla`]/[`BrokerCore::add_egress_sla`].
    pub fn add_peer(&mut self, peer_cert: Certificate, sla_in: Option<Sla>, sla_out: Option<Sla>) {
        let peer_domain = peer_cert
            .tbs()
            .subject
            .org_unit()
            .expect("broker certs carry the domain in OU")
            .to_string();
        // An SLA peer's key verifies every envelope it forwards for the
        // SLA's lifetime — worth a pinned fixed-base table up front.
        peer_cert.tbs().subject_public_key.precompute();
        self.peers.insert(peer_domain, peer_cert);
        if let Some(sla) = sla_in {
            self.core.add_ingress_sla(sla);
        }
        if let Some(sla) = sla_out {
            self.core.add_egress_sla(sla);
        }
    }

    /// Install a domain-level route: requests for `dest_domain` are
    /// forwarded to `next_peer`.
    pub fn add_route(&mut self, dest_domain: &str, next_peer: &str) {
        self.routes
            .insert(dest_domain.to_string(), next_peer.to_string());
    }

    /// The next peer on the route towards `dest_domain`, if known.
    pub fn route_towards(&self, dest_domain: &str) -> Option<String> {
        self.routes.get(dest_domain).cloned()
    }

    /// Bind this broker to its data plane.
    pub fn set_edge_binding(&mut self, edge: EdgeBinding) {
        self.edge = edge;
    }

    /// Register a CPU reservation (the coupled-resource oracle behind
    /// Figure 6's `HasValidCPUResv`).
    pub fn add_cpu_reservation(&mut self, id: u64) {
        self.cpu_reservations.insert(id);
    }

    /// Grant Approach-1 direct trust to a user (the per-domain trust
    /// table whose growth FIG3 measures).
    pub fn add_direct_user(&mut self, dn: DistinguishedName, pk: PublicKey) {
        // Approach-1 users sign every per-domain request with this key.
        pk.precompute();
        self.direct_users.insert(dn, pk);
    }

    /// Size of the trust state this broker must maintain: peers plus
    /// directly known users.
    pub fn trust_table_size(&self) -> usize {
        self.peers.len() + self.direct_users.len()
    }

    /// Counter snapshot (reads the same atomics the registry renders).
    pub fn counters(&self) -> NodeCounters {
        self.counters.snapshot()
    }

    /// Route this node's metrics into `telemetry`: the rx/tx/signed/
    /// verified cells are *registered* (shared storage, not copied), and
    /// the timing histograms and admission/completion counters are
    /// resolved under this domain's label.
    pub fn install_telemetry(&mut self, telemetry: Telemetry) {
        if telemetry.is_enabled() {
            let d = self.domain.clone();
            let dl: &[(&str, &str)] = &[("domain", &d)];
            self.pdp.set_telemetry(&telemetry, &d);
            self.core.set_telemetry(&telemetry);
            telemetry.register_counter(
                "bb_messages_received_total",
                "Signalling messages received by the broker",
                dl,
                self.counters.rx.clone(),
            );
            telemetry.register_counter(
                "bb_messages_sent_total",
                "Signalling messages sent by the broker",
                dl,
                self.counters.tx.clone(),
            );
            telemetry.register_counter(
                "bb_signatures_created_total",
                "Signatures created (wraps, approvals, delegations, releases)",
                dl,
                self.counters.signed.clone(),
            );
            telemetry.register_counter(
                "bb_signatures_verified_total",
                "Signatures verified (envelope layers, approvals, capabilities)",
                dl,
                self.counters.verified.clone(),
            );
            self.instruments = NodeInstruments {
                verify_ns: telemetry.histogram(
                    "bb_envelope_verify_ns",
                    "Full transitive-trust envelope verification time (ns)",
                    dl,
                ),
                sign_ns: telemetry.histogram(
                    "bb_sign_ns",
                    "Signing time per protocol step (wrap, originate, endorse) (ns)",
                    dl,
                ),
                decide_ns: telemetry.histogram(
                    "bb_policy_decide_ns",
                    "Local PDP decision time (ns)",
                    dl,
                ),
                queue_wait_ns: telemetry.histogram(
                    "bb_queue_wait_ns",
                    "Mailbox wait before dispatch, as observed by the driver (ns)",
                    dl,
                ),
                admission_held: telemetry.counter(
                    "bb_admission_total",
                    "Two-phase admission holds by outcome",
                    &[("domain", &d), ("decision", "held")],
                ),
                admission_refused: telemetry.counter(
                    "bb_admission_total",
                    "Two-phase admission holds by outcome",
                    &[("domain", &d), ("decision", "refused")],
                ),
                completions_ok: telemetry.counter(
                    "bb_completions_total",
                    "End-to-end request completions by outcome",
                    &[("domain", &d), ("decision", "approved")],
                ),
                completions_denied: telemetry.counter(
                    "bb_completions_total",
                    "End-to-end request completions by outcome",
                    &[("domain", &d), ("decision", "denied")],
                ),
                flow_admit_ns: telemetry.histogram(
                    "flow_admit_ns",
                    "Tunnel sub-flow admission time at the destination (ns)",
                    dl,
                ),
                flow_table_occupancy: telemetry.gauge(
                    "flow_table_occupancy",
                    "Held tunnel sub-flow records (source holds + destination admits)",
                    dl,
                ),
                flow_expiry_sweeps: telemetry.counter(
                    "flow_expiry_sweeps_total",
                    "Hold-expiry wheel sweeps",
                    dl,
                ),
            };
        }
        self.telemetry = telemetry;
    }

    /// Enable or disable per-request trace spans.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// The span log (empty unless tracing is enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable span log (drivers drain it; tests inject spans).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Record a mailbox-wait observed by the driver: the time between a
    /// message's arrival in this broker's inbox and its dispatch.
    pub(crate) fn record_queue_wait(
        &mut self,
        trace: TraceId,
        request: RarId,
        start_ns: u64,
        clock: &dyn Clock,
    ) {
        if !self.timing_on() {
            return;
        }
        let end_ns = clock.now_ns();
        self.instruments
            .queue_wait_ns
            .observe(end_ns.saturating_sub(start_ns));
        self.span_at(trace, request, SpanKind::QueueWait, || "", start_ns, end_ns);
    }

    /// The signer path recovered from the verified envelope nest, as
    /// stored when this (destination) broker ran the full transitive
    /// trust walk: innermost signer (the user) first.
    pub fn verified_signer_path(&self, rar_id: RarId) -> Option<&[DistinguishedName]> {
        self.verified_paths.get(&rar_id).map(|p| p.as_slice())
    }

    /// Is any timed instrumentation active?
    #[inline]
    fn timing_on(&self) -> bool {
        self.tracer.is_enabled() || self.telemetry.is_enabled()
    }

    /// Clock read gated on instrumentation: (timing-active, start-ns).
    #[inline]
    fn t0(&self, clock: &dyn Clock) -> (bool, u64) {
        if self.timing_on() {
            (true, clock.now_ns())
        } else {
            (false, 0)
        }
    }

    /// Record a point span at `clock`'s present. While tracing is off
    /// this reads no clock and `detail` is never built.
    fn mark<D: Into<String>>(
        &mut self,
        trace: TraceId,
        request: RarId,
        kind: SpanKind,
        detail: impl FnOnce() -> D,
        clock: &dyn Clock,
    ) {
        if self.tracer.is_enabled() {
            let now = clock.now_ns();
            self.span_at(trace, request, kind, detail, now, now);
        }
    }

    /// Record a span with explicit bounds. While tracing is off this is
    /// a no-op and `detail` is never built.
    fn span_at<D: Into<String>>(
        &mut self,
        trace: TraceId,
        request: RarId,
        kind: SpanKind,
        detail: impl FnOnce() -> D,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.tracer.is_enabled() {
            return;
        }
        let span = Span {
            trace,
            request: request.0,
            domain: self.domain.clone(),
            kind,
            detail: detail().into(),
            start_ns,
            end_ns,
            wall_s: self.now.0,
        };
        // Span export: completed spans also land in the flight recorder
        // (tagged by the same deterministic TraceId), which is what the
        // admin plane's `/flight` and `/trace/<id>` serve and what
        // `exp_trace_assembly` reassembles across processes.
        if let Some(flight) = self.telemetry.flight() {
            flight.record_span(&span);
        }
        self.tracer.record(span);
    }

    /// Drain buffered edge-router configuration.
    pub fn take_edge_commands(&mut self) -> Vec<EdgeCommand> {
        std::mem::take(&mut self.edge_cmds)
    }

    /// Resource-core access (experiments inspect admission state).
    pub fn core(&self) -> &BrokerCore {
        &self.core
    }

    // ------------------------------------------------------------------
    // Durable ledger (DESIGN.md §D13)
    // ------------------------------------------------------------------

    /// Attach the durable ledger store. Call *after*
    /// [`recover_from`](BbNode::recover_from), so replay is not
    /// re-logged.
    pub fn attach_store(&self, store: SharedStore) {
        self.core.set_store(store);
    }

    /// The attached ledger store, if any.
    pub fn store(&self) -> Option<SharedStore> {
        self.core.store()
    }

    /// Install a hook that augments exported snapshots with state owned
    /// by a higher layer (the transport's resumption tickets).
    pub fn set_snapshot_extra(&mut self, extra: SnapshotExtra) {
        self.snapshot_extra = Some(extra);
    }

    /// Replay recovered state: snapshot first, then WAL records above
    /// the snapshot's sequence, in sequence order. Ticket records are
    /// parked for [`take_recovered_tickets`](BbNode::take_recovered_tickets);
    /// everything else force-applies through the broker's restore APIs.
    /// Returns how many WAL records it replayed; a caller that wants the
    /// replay's duration times the call (the store takes it through
    /// `note_recovery_ns`).
    pub fn recover_from(&mut self, recovered: &Recovered) -> u64 {
        if let Some(flight) = self.telemetry.flight() {
            flight.record(
                FlightEvent::new(EventFamily::Storage, self.domain.clone(), "recovery_begin")
                    .detail(format!(
                        "snapshot_seq {} records {}",
                        recovered.snapshot.as_ref().map(|s| s.seq).unwrap_or(0),
                        recovered.records.len()
                    )),
            );
        }
        let mut skip = 0;
        if let Some(snapshot) = &recovered.snapshot {
            skip = snapshot.seq;
            self.core.restore_snapshot(snapshot);
            if let Some(key) = &snapshot.ticket_key {
                self.recovered_tickets.key = Some(key.clone());
            }
            self.recovered_tickets
                .tickets
                .extend(snapshot.tickets.iter().cloned());
        }
        let mut replayed = 0u64;
        for (seq, record) in &recovered.records {
            if *seq <= skip {
                continue;
            }
            replayed += 1;
            match record {
                LedgerRecord::TicketKey { key } => {
                    self.recovered_tickets.key = Some(key.clone());
                }
                LedgerRecord::TicketIssued {
                    id,
                    master,
                    expires,
                    peer_cert,
                } => self.recovered_tickets.tickets.push(SnapTicket {
                    id: id.clone(),
                    master: master.clone(),
                    expires: *expires,
                    peer_cert: peer_cert.clone(),
                }),
                _ => self.core.restore_record(record),
            }
        }
        if let Some(flight) = self.telemetry.flight() {
            flight.record(
                FlightEvent::new(EventFamily::Storage, self.domain.clone(), "recovery_end")
                    .detail(format!("replayed {replayed} records")),
            );
        }
        replayed
    }

    /// Collect ticket state found during recovery (the daemon rebuilds
    /// its `TicketIssuer` from this before its reactor takes the node).
    pub fn take_recovered_tickets(&mut self) -> RecoveredTickets {
        std::mem::take(&mut self.recovered_tickets)
    }

    /// Export and durably write a snapshot now (graceful shutdown, or
    /// when the store asks via `should_snapshot`). The sequence point is
    /// captured *before* exporting state, so every record at or below it
    /// is reflected in the export (see `LedgerSnapshot`).
    pub fn snapshot_now(&self) {
        let Some(store) = self.core.store() else {
            return;
        };
        let seq = store.next_seq().saturating_sub(1);
        let mut snapshot = self.core.export_snapshot(seq);
        if let Some(extra) = &self.snapshot_extra {
            extra(&mut snapshot);
        }
        store.write_snapshot(&snapshot);
    }

    /// Periodic-snapshot check, riding the commit path: cheap when no
    /// store is attached or the write interval hasn't elapsed.
    fn maybe_snapshot(&self) {
        if let Some(store) = self.core.store() {
            if store.should_snapshot() {
                drop(store);
                self.snapshot_now();
            }
        }
    }

    /// Remaining aggregate in a source-side tunnel.
    pub fn tunnel_remaining_bps(&self, tunnel: RarId) -> Option<u64> {
        self.tunnels_src
            .get(&tunnel)
            .map(|t| t.aggregate_bps - t.allocated_bps)
    }

    /// Source-side tunnel metadata: destination domain, destination BB
    /// key (learned via the introducer chain), validity interval, and
    /// (aggregate, allocated) rates.
    pub fn tunnel_info(&self, tunnel: RarId) -> Option<(String, PublicKey, Interval, u64, u64)> {
        self.tunnels_src.get(&tunnel).map(|t| {
            (
                t.dest_domain.to_string(),
                t.dest_pk,
                t.interval,
                t.aggregate_bps,
                t.allocated_bps,
            )
        })
    }

    // ------------------------------------------------------------------
    // §6.1 Source domain
    // ------------------------------------------------------------------

    /// Handle a burst of user requests at once. The two signatures each
    /// submission carries — the CA's over the user certificate and the
    /// user's over the request — are independent, so the whole burst is
    /// checked through one Schnorr batch equation
    /// ([`qos_crypto::verify_batch`]); only if the combined check fails
    /// does per-item verification run, on this thread, to attribute the
    /// failure. Admission then runs serially, in arrival
    /// order, against the shared budgets. Each request's box becomes the
    /// `inner` of the layer this broker wraps it in.
    pub(crate) fn submit_batch(
        &mut self,
        batch: Vec<(Box<SignedRar>, Certificate)>,
        run: &mut Run<'_>,
    ) {
        if batch.len() < 2 {
            for (rar, cert) in batch {
                self.submit_checked(rar, &cert, false, run);
            }
            return;
        }
        let jobs: Vec<(Digest, PublicKey, Signature)> = batch
            .iter()
            .flat_map(|(rar, cert)| {
                [
                    (*cert.digest(), self.user_ca, cert.signature()),
                    (
                        *rar.layer_digest(),
                        cert.tbs().subject_public_key,
                        rar.signature(),
                    ),
                ]
            })
            .collect();
        let verdicts = if qos_crypto::verify_batch_digests(&jobs) {
            vec![true; batch.len()]
        } else {
            jobs.chunks(2)
                .map(|c| c.iter().all(|(d, pk, sig)| pk.verify_digest(d, sig)))
                .collect()
        };
        for ((rar, cert), ok) in batch.into_iter().zip(verdicts) {
            // A failed batch item re-verifies inline so the denial
            // attributes the exact broken signature.
            self.submit_checked(rar, &cert, ok, run);
        }
    }

    /// Handle a user's reservation request arriving at its home broker;
    /// what to transmit goes onto `run`.
    pub(crate) fn submit_checked(
        &mut self,
        rar_u: Box<SignedRar>,
        user_cert: &Certificate,
        pre_verified: bool,
        run: &mut Run<'_>,
    ) {
        self.counters.add_rx(1);
        let view = RarView::of(&rar_u);
        let spec = view.spec();
        let rar_id = spec.rar_id;
        // The trace is minted here, at the edge of the system; every
        // downstream broker re-derives the same id from the same signed
        // fields (see `TraceId::mint`).
        let trace = TraceId::mint(&spec.source_domain, rar_id.0);
        let traced = self.tracer.is_enabled();
        let t_sub = if traced { run.clock.now_ns() } else { 0 };
        let checked = self.process_submit(&view, user_cert, trace, pre_verified, run.clock);
        drop(view);
        let checked = checked.map(|forward| {
            forward.map(|f| {
                self.wrap_onward(rar_u, user_cert.clone(), f, rar_id, trace, run.clock)
                    .0
            })
        });
        let end = if traced { run.clock.now_ns() } else { 0 };
        match checked {
            Ok(forward) => {
                self.span_at(
                    trace,
                    rar_id,
                    SpanKind::Submit,
                    || "user request",
                    t_sub,
                    end,
                );
                self.counters.add_tx(forward.is_some() as u64);
                if let Some((peer, _)) = &forward {
                    self.span_at(trace, rar_id, SpanKind::Forward, || &**peer, end, end);
                }
                run.out.extend(forward);
            }
            Err(e) => {
                let detail = || format!("denied: {e}");
                self.span_at(trace, rar_id, SpanKind::Submit, detail, t_sub, end);
                self.instruments.completions_denied.inc();
                let result = Err(self.denial_of(rar_id, e));
                self.completions
                    .push(Completion::Reservation { rar_id, result });
            }
        }
    }

    /// The denial that reports `e`: a domain's own refusal as that
    /// domain worded it, anything else under this broker's name.
    fn denial_of(&self, rar_id: RarId, e: CoreError) -> Denial {
        match e {
            CoreError::Denied {
                rar_id,
                domain,
                reason,
            } => Denial {
                rar_id,
                domain,
                reason,
            },
            other => Denial {
                rar_id,
                domain: self.domain.clone(),
                reason: other.to_string(),
            },
        }
    }

    /// §6.1: every check the source domain runs on a user's request.
    /// `Ok(Some(_))` is what the wrap towards the next domain carries,
    /// `Ok(None)` a single-domain reservation completed here.
    fn process_submit(
        &mut self,
        view: &RarView<'_>,
        user_cert: &Certificate,
        trace: TraceId,
        pre_verified: bool,
        clock: &dyn Clock,
    ) -> Result<Option<Forward>, CoreError> {
        let spec = view.spec();
        let rar_id = spec.rar_id;

        // Authenticate the user: certificate from a trusted CA, request
        // signed by the certified key, addressed to this broker. When the
        // two signatures were already checked in a batch equation
        // (`pre_verified`), only the non-signature checks run here; the
        // verified counters still advance so batched and per-item ingress
        // report identical crypto work.
        if !pre_verified {
            user_cert.verify_signature(self.user_ca)?;
        }
        user_cert.check_validity(self.now)?;
        self.counters.add_verified(1);
        if !user_cert.tbs().subject.same_principal(&spec.requestor) {
            return Err(CoreError::LayerSignature {
                signer: spec.requestor.clone(),
            });
        }
        if !pre_verified
            && !view
                .outer()
                .verify_signature(user_cert.tbs().subject_public_key)
        {
            return Err(CoreError::LayerSignature {
                signer: spec.requestor.clone(),
            });
        }
        self.counters.add_verified(1);
        if let RarLayer::User { source_bb, .. } = &view.outer().layer {
            if *source_bb != self.dn {
                return Err(CoreError::PathMismatch {
                    expected: source_bb.clone(),
                    found: self.dn.clone(),
                });
            }
        }

        // Verify any capability chain the user attached (delegated to us).
        let caps = self.verify_capability_chain(view, None)?;
        let holds_chain = !caps.is_empty();

        // Local policy.
        let mut attachments = self.check_policy(spec, caps, std::iter::empty(), trace, clock)?;

        // Local admission (two-phase hold).
        let egress = self.next_peer_towards(&spec.dest_domain)?;

        // §6.1 step 2: the source BB augments the request with
        // domain-wide information — traffic-engineering parameters for
        // downstream domains derived from its peering contract ("such as
        // parameters for treatment of excess traffic or reliability
        // parameters expected for this service").
        if let Some(next) = &egress {
            if let Some(sla) = self.core.egress_sla(next) {
                attachments.set(
                    "sls_excess_treatment",
                    Value::Str(match sla.sls.excess {
                        ExcessTreatment::Drop => "drop".into(),
                        ExcessTreatment::Downgrade => "downgrade".into(),
                    }),
                );
                attachments.set(
                    "sls_reliability_ppm",
                    Value::Int((sla.sls.reliability * 1_000_000.0) as i64),
                );
                attachments.set("sls_burst_bytes", Value::Int(sla.sls.burst_bytes as i64));
            }
        }
        self.hold_pending(spec, None, egress.clone(), trace, clock)?;

        match egress {
            None => {
                // Single-domain reservation: we are also the destination.
                let approval =
                    self.finalize_destination_approval(rar_id, AttributeSet::new(), trace, clock);
                self.complete_source(rar_id, Ok(approval));
                Ok(None)
            }
            // Delegate capabilities onward; the caller wraps (§6.1 step 4).
            Some(next) => Ok(Some(Forward {
                delegate: self.delegation_to(holds_chain, &next)?,
                attachments,
                next,
            })),
        }
    }

    /// Hold `spec`'s bandwidth on the segment `ingress → egress` and, if
    /// admitted, remember the request until its approval or denial comes
    /// back.
    fn hold_pending(
        &mut self,
        spec: &crate::rar::ResSpec,
        ingress: Option<&str>,
        egress: Option<String>,
        trace: TraceId,
        clock: &dyn Clock,
    ) -> Result<(), CoreError> {
        let segment = PathSegment {
            ingress_peer: ingress.map(str::to_string),
            egress_peer: egress,
        };
        self.hold(
            spec.rar_id,
            spec.interval,
            spec.rate_bps,
            segment.clone(),
            trace,
            clock,
        )?;
        self.pending.insert(
            spec.rar_id,
            Pending {
                upstream: ingress.map(str::to_string),
                requestor: spec.requestor.clone(),
                flow: spec.flow,
                rate_bps: spec.rate_bps,
                interval: spec.interval,
                segment,
                tunnel: spec.tunnel,
                trace,
            },
        );
        Ok(())
    }

    /// Wrap a checked request into this broker's layer, addressed to the
    /// next domain, and sign it (§6.1 step 4, §6.2). Also returns when
    /// signing ended, if anything is being timed.
    fn wrap_onward(
        &mut self,
        rar: Box<SignedRar>,
        upstream_cert: Certificate,
        forward: Forward,
        rar_id: RarId,
        trace: TraceId,
        clock: &dyn Clock,
    ) -> ((PeerId, SignalMessage), Option<u64>) {
        let (timing, t_sign) = self.t0(clock);
        let mut signed_at = None;
        let layer = RarLayer::Broker {
            inner: rar,
            upstream_cert,
            next_bb: Some(DistinguishedName::broker(&forward.next)),
            capability_certs: Vec::new(),
            policy_attachments: forward.attachments,
            delegate: forward.delegate,
        };
        let wrapped = SignedRar::sign_layer(layer, self.dn.clone(), &self.key);
        if timing {
            let end = clock.now_ns();
            self.instruments.sign_ns.observe(end - t_sign);
            self.span_at(trace, rar_id, SpanKind::Sign, || "wrap", t_sign, end);
            signed_at = Some(end);
        }
        self.counters.add_signed(1);
        let reply = SignalMessage::Request(Box::new(wrapped));
        ((forward.next.into(), reply), signed_at)
    }

    // ------------------------------------------------------------------
    // Message dispatch
    // ------------------------------------------------------------------

    /// Handle a message from peer `from` (already authenticated by the
    /// channel layer); what to transmit goes onto `run`.
    pub(crate) fn on_message(&mut self, from: &str, msg: SignalMessage, run: &mut Run<'_>) {
        self.counters.add_rx(1);
        let before = run.out.len();
        match msg {
            SignalMessage::Request(rar) => self.on_request_checked(from, rar, false, run),
            SignalMessage::Approve(a) => self.on_approve(from, a, run),
            SignalMessage::Deny(d) => self.on_deny(from, d, run),
            SignalMessage::Direct(d) => self.on_direct(*d, run),
            SignalMessage::DirectReply(_) => {} // agents consume these
            SignalMessage::TunnelFlow(t) => self.on_tunnel_flow(from, t, run),
            SignalMessage::TunnelFlowReply(r) => self.on_tunnel_flow_reply(from, r),
            SignalMessage::Release(r) => self.on_release(from, r, run),
            SignalMessage::TunnelFlowRelease(r) => self.on_tunnel_flow_release(from, r),
        }
        self.counters.add_tx((run.out.len() - before) as u64);
    }

    /// Handle a burst of peer reservation requests at once. Each
    /// request's outer signature is the sending peer's, over that
    /// envelope's own canonical bytes — mutually independent checks, so
    /// the burst goes through one Schnorr batch equation
    /// ([`qos_crypto::verify_batch`]) with per-item fallback for
    /// attribution, like [`Self::submit_batch`]. Protocol processing then
    /// runs serially in arrival order.
    pub(crate) fn recv_requests(
        &mut self,
        batch: Vec<(PeerId, Box<SignedRar>)>,
        run: &mut Run<'_>,
    ) {
        if batch.len() < 2 {
            for (from, rar) in batch {
                self.on_message(&from, SignalMessage::Request(rar), run);
            }
            return;
        }
        self.counters.add_rx(batch.len() as u64);
        // Resolve each sender's pinned key first (cheap map lookups); an
        // unknown peer skips the batch and fails in `process_request`
        // with its usual error.
        let pks: Vec<Option<PublicKey>> = batch
            .iter()
            .map(|(from, _)| self.peers.get(&**from).map(|c| c.tbs().subject_public_key))
            .collect();
        let jobs: Vec<(Digest, PublicKey, Signature)> = batch
            .iter()
            .zip(&pks)
            .filter_map(|((_, rar), pk)| Some((*rar.layer_digest(), (*pk)?, rar.signature())))
            .collect();
        let verdicts = if qos_crypto::verify_batch_digests(&jobs) {
            vec![true; jobs.len()]
        } else {
            jobs.iter()
                .map(|(d, pk, sig)| pk.verify_digest(d, sig))
                .collect()
        };
        let mut verdicts = verdicts.into_iter();
        let before = run.out.len();
        for ((from, rar), pk) in batch.into_iter().zip(pks) {
            let ok = pk.is_some() && verdicts.next().unwrap_or(false);
            self.on_request_checked(&from, rar, ok, run);
        }
        self.counters.add_tx((run.out.len() - before) as u64);
    }

    fn on_request_checked(
        &mut self,
        from: &str,
        rar: Box<SignedRar>,
        pre_verified: bool,
        run: &mut Run<'_>,
    ) {
        // One walk of the nest serves every check; it ends before the
        // wrap consumes the envelope.
        let view = RarView::of(&rar);
        let spec = view.spec();
        let rar_id = spec.rar_id;
        // Re-derive the trace minted at the source edge: the spec's
        // signed fields are the same at every hop.
        let trace = TraceId::mint(&spec.source_domain, rar_id.0);
        let checked = self.process_request(from, &view, trace, pre_verified, run.clock);
        drop(view);
        let reply = match checked {
            Ok(Checked::Approved(approval)) => {
                (PeerId::from(from), SignalMessage::Approve(approval))
            }
            Ok(Checked::Forward(forward)) => {
                let upstream_cert = self.peers.get(from).cloned();
                let upstream_cert = upstream_cert.expect("process_request found the peer");
                let (reply, signed_at) =
                    self.wrap_onward(rar, upstream_cert, forward, rar_id, trace, run.clock);
                if let Some(end) = signed_at {
                    self.span_at(trace, rar_id, SpanKind::Forward, || &*reply.0, end, end);
                }
                reply
            }
            Err(e) => {
                let denial = self.denial_of(rar_id, e);
                (PeerId::from(from), SignalMessage::Deny(denial))
            }
        };
        run.out.push(reply);
    }

    /// Every check a broker runs on a peer's request (§6.2, §6.3), on
    /// the borrowed view of it.
    fn process_request(
        &mut self,
        from: &str,
        view: &RarView<'_>,
        trace: TraceId,
        pre_verified: bool,
        clock: &dyn Clock,
    ) -> Result<Checked, CoreError> {
        let (rar, spec) = (view.outer(), view.spec());
        let depth = view.depth();
        self.mark(
            trace,
            spec.rar_id,
            SpanKind::RecvRequest,
            || format!("from {from}, depth {depth}"),
            clock,
        );
        let peer_pk = self
            .peers
            .get(from)
            .ok_or_else(|| CoreError::UnknownPeer { peer: from.into() })?
            .tbs()
            .subject_public_key;
        // Outer signature must be the direct peer's (§6.4: messages
        // between BBs are mutually authenticated). Skipped only when a
        // batch equation already vouched for it; the verified counter
        // still advances so batched ingress reports the same crypto work.
        if !pre_verified && !rar.verify_signature(peer_pk) {
            return Err(CoreError::LayerSignature {
                signer: rar.signer.clone(),
            });
        }
        self.counters.add_verified(1);

        if spec.dest_domain == self.domain {
            self.process_destination(from, view, peer_pk, trace, clock)
                .map(Checked::Approved)
        } else {
            self.process_transit(from, view, peer_pk, trace, clock)
                .map(Checked::Forward)
        }
    }

    /// §6.2 intermediate domain.
    fn process_transit(
        &mut self,
        from: &str,
        view: &RarView<'_>,
        peer_pk: PublicKey,
        trace: TraceId,
        clock: &dyn Clock,
    ) -> Result<Forward, CoreError> {
        let spec = view.spec();
        // SLA conformance + local policy. Transit domains check the
        // traffic profile against the SLA (the admission tables) and may
        // evaluate local policy over the accumulated information. Of the
        // nest, a transit has verified the outermost layer only.
        let caps = self.verify_capability_chain(view, Some((peer_pk, 1)))?;
        let holds_chain = !caps.is_empty();
        let attachments = self.check_policy(spec, caps, view.attachments(), trace, clock)?;

        let next =
            self.next_peer_towards(&spec.dest_domain)?
                .ok_or_else(|| CoreError::UnknownPeer {
                    peer: spec.dest_domain.clone(),
                })?;
        self.hold_pending(spec, Some(from), Some(next.clone()), trace, clock)?;
        Ok(Forward {
            delegate: self.delegation_to(holds_chain, &next)?,
            attachments,
            next,
        })
    }

    /// §6.3 destination domain.
    fn process_destination(
        &mut self,
        from: &str,
        view: &RarView<'_>,
        peer_pk: PublicKey,
        trace: TraceId,
        clock: &dyn Clock,
    ) -> Result<Approval, CoreError> {
        let spec = view.spec();
        let rar_id = spec.rar_id;
        // Full transitive-trust verification of the nested envelope.
        let (timing, t_verify) = self.t0(clock);
        verify_view(
            view,
            peer_pk,
            &self.dn,
            self.trust_policy,
            self.now,
            &KeySource::Introducers,
        )?;
        let depth = view.depth();
        if timing {
            let end = clock.now_ns();
            self.instruments.verify_ns.observe(end - t_verify);
            self.span_at(
                trace,
                rar_id,
                SpanKind::VerifyEnvelope,
                || format!("{depth} layers"),
                t_verify,
                end,
            );
        }
        self.counters.add_verified(depth as u64);
        // Keep the cryptographically recovered path: the observable span
        // chain must match it hop for hop (see `verified_signer_path`).
        self.verified_paths
            .insert(rar_id, view.signers().cloned().collect());
        // Journal the recovered path so a remote scraper can compare the
        // cross-process span timeline against the cryptographic ground
        // truth without reaching into this process (exp_trace_assembly).
        if let Some(flight) = self.telemetry.flight() {
            let path = view
                .signers()
                .map(|dn| match dn.common_name() {
                    Some("BB") => format!("BB@{}", dn.org_unit().unwrap_or("?")),
                    other => other.unwrap_or("?").to_string(),
                })
                .collect::<Vec<_>>()
                .join(",");
            flight.record(
                FlightEvent::new(
                    EventFamily::Path,
                    self.domain.clone(),
                    "verified_signer_path",
                )
                .trace(trace)
                .request(rar_id.0)
                .detail(path)
                .wall(self.now.0),
            );
        }

        // `verify_view` checked every layer under its introducer's key.
        let caps = self.verify_capability_chain(view, Some((peer_pk, depth)))?;
        // A tunnel is bound to its source BB's certified domain: sub-flows
        // are then admitted only over the channel authenticated as that
        // domain (DESIGN.md §D23). The source BB's certificate is the one
        // the signer path proved, or the direct peer's on a two-domain
        // path.
        if spec.tunnel {
            let source = view
                .introduced_cert(1)
                .or_else(|| self.peers.get(from))
                .and_then(|c| c.tbs().subject.org_unit());
            if source != Some(spec.source_domain.as_str()) {
                return Err(CoreError::Tunnel(format!(
                    "source BB is not certified for {}",
                    spec.source_domain
                )));
            }
        }
        let attachments = self.check_policy(spec, caps, view.attachments(), trace, clock)?;
        self.hold_pending(spec, Some(from), None, trace, clock)?;

        if spec.tunnel {
            self.tunnels_dst.insert(
                rar_id,
                TunnelDst {
                    source_domain: spec.source_domain.as_str().into(),
                    aggregate_bps: spec.rate_bps,
                    allocated_bps: 0,
                    flows: FlowTable::new(),
                },
            );
        }

        Ok(self.finalize_destination_approval(rar_id, attachments, trace, clock))
    }

    /// Commit the destination's hold, emit edge config, sign the
    /// approval.
    fn finalize_destination_approval(
        &mut self,
        rar_id: RarId,
        attachments: AttributeSet,
        trace: TraceId,
        clock: &dyn Clock,
    ) -> Approval {
        self.commit_and_configure(rar_id);
        self.counters.add_signed(1);
        let (timing, t_sign) = self.t0(clock);
        let approval = Approval::originate(
            rar_id,
            self.cert.clone(),
            &self.domain,
            self.dn.clone(),
            attachments,
            &self.key,
        );
        if timing {
            let end = clock.now_ns();
            self.instruments.sign_ns.observe(end - t_sign);
            self.span_at(
                trace,
                rar_id,
                SpanKind::Sign,
                || "originate approval",
                t_sign,
                end,
            );
        }
        approval
    }

    fn on_approve(&mut self, from: &str, approval: Approval, run: &mut Run<'_>) {
        let rar_id = approval.rar_id;
        // Acted on only from the downstream peer the request went to (the
        // authenticated channel vouches for `from`); anything else is as
        // stale as a duplicate. The chained signatures then let any
        // upstream domain audit the path.
        let Some(pending) = self.pending_from_downstream(rar_id, from) else {
            return;
        };
        let upstream = pending.upstream.clone();
        let (rate_bps, secs) = (pending.rate_bps, pending.interval.secs());
        let trace = pending.trace;
        self.mark(
            trace,
            rar_id,
            SpanKind::RecvApproval,
            || format!("{} endorsements", approval.entries.len()),
            run.clock,
        );
        self.commit_and_configure(rar_id);
        // Source domain: set up the §6.4 transitive billing chain now
        // that the whole path stands.
        if upstream.is_none() {
            self.record_billing(rar_id, &approval);
        }
        self.counters.add_signed(1);
        // Endorsements carry this domain's transit cost for the hop it
        // forwards into, so the source can reconstruct the full billing
        // chain ("additional cost offers for the particular request").
        let mut endorsement_attrs = AttributeSet::new();
        if let Some(downstream) = approval.entries.last().map(|e| e.domain.clone()) {
            if let Some(sla) = self.core.egress_sla(&downstream) {
                endorsement_attrs.set(
                    "transit_cost",
                    Value::Int(sla.transit_cost(rate_bps, secs) as i64),
                );
            }
        }
        let (timing, t_sign) = self.t0(run.clock);
        let approval =
            approval.endorse(&self.domain, self.dn.clone(), endorsement_attrs, &self.key);
        if timing {
            let end = run.clock.now_ns();
            self.instruments.sign_ns.observe(end - t_sign);
            self.span_at(
                trace,
                rar_id,
                SpanKind::Sign,
                || "endorse approval",
                t_sign,
                end,
            );
        }
        match upstream {
            Some(peer) => run
                .out
                .push((peer.into(), SignalMessage::Approve(approval))),
            None => {
                // Source domain: the end-to-end reservation stands.
                self.mark(trace, rar_id, SpanKind::Complete, || "approved", run.clock);
                self.complete_source(rar_id, Ok(approval));
            }
        }
    }

    /// The request `rar_id` is waiting on, if `from` is the downstream
    /// peer it was forwarded to: the one peer whose reply is acted on.
    fn pending_from_downstream(&self, rar_id: RarId, from: &str) -> Option<&Pending> {
        self.pending
            .get(&rar_id)
            .filter(|p| p.segment.egress_peer.as_deref() == Some(from))
    }

    /// §6.4 accounting: "the source domain would bill the traffic
    /// against the originator", with each transit domain billing its
    /// upstream peer per SLA.
    fn record_billing(&mut self, rar_id: RarId, approval: &Approval) {
        let Some(p) = self.pending.get(&rar_id) else {
            return;
        };
        let originator = p.requestor.common_name().unwrap_or("unknown").to_string();
        let rate = p.rate_bps;
        let secs = p.interval.secs();
        // The approval entries run destination-first and do not yet
        // include this (source) domain; the billing path runs
        // source-first.
        let mut path = vec![self.domain.clone()];
        path.extend(approval.entries.iter().rev().map(|e| e.domain.clone()));
        // Per-hop prices: our own egress SLA for the first hop, the
        // `transit_cost` attachments in the endorsement entries for
        // every hop further downstream.
        let mut prices: std::collections::HashMap<(String, String), u64> =
            std::collections::HashMap::new();
        if let Some(w) = path.windows(2).next() {
            let price = self
                .core
                .egress_sla(&w[1])
                .map(|sla| sla.transit_cost(rate, secs))
                .unwrap_or(0);
            prices.insert((w[0].clone(), w[1].clone()), price);
        }
        // entries run destination-first: entries[i] forwards into
        // entries[i-1]'s domain.
        for pair in approval.entries.windows(2) {
            let (downstream, upstream_entry) = (&pair[0], &pair[1]);
            if let Some(Value::Int(cost)) = upstream_entry.attachments.get("transit_cost") {
                prices.insert(
                    (upstream_entry.domain.clone(), downstream.domain.clone()),
                    (*cost).max(0) as u64,
                );
            }
        }
        for invoice in qos_broker::settle_chain(&originator, &path, rar_id.0, |up, down| {
            prices
                .get(&(up.to_string(), down.to_string()))
                .copied()
                .unwrap_or(0)
        }) {
            self.core.record_invoice(invoice);
        }
    }

    fn complete_source(&mut self, rar_id: RarId, result: Result<Approval, Denial>) {
        match &result {
            Ok(_) => self.instruments.completions_ok.inc(),
            Err(_) => self.instruments.completions_denied.inc(),
        }
        if let Ok(approval) = &result {
            let pending = self.pending.get(&rar_id);
            if let Some(p) = pending {
                if p.tunnel {
                    self.tunnels_src.insert(
                        rar_id,
                        TunnelSrc {
                            dest_domain: approval
                                .entries
                                .first()
                                .map(|e| e.domain.as_str())
                                .unwrap_or_default()
                                .into(),
                            dest_pk: approval.dest_cert.tbs().subject_public_key,
                            aggregate_bps: p.rate_bps,
                            allocated_bps: 0,
                            pending_bps: 0,
                            interval: p.interval,
                            pending_flows: FlowTable::new(),
                            held_flows: FlowTable::new(),
                        },
                    );
                }
            }
        }
        self.completions
            .push(Completion::Reservation { rar_id, result });
    }

    fn on_deny(&mut self, from: &str, denial: Denial, run: &mut Run<'_>) {
        let rar_id = denial.rar_id;
        if self.pending_from_downstream(rar_id, from).is_none() {
            return;
        }
        let pending = self.pending.remove(&rar_id).expect("checked above");
        self.mark(
            pending.trace,
            rar_id,
            SpanKind::RecvDenial,
            || format!("by {}: {}", denial.domain, denial.reason),
            run.clock,
        );
        // Roll back the two-phase hold.
        let _ = self.core.release(rar_id_to_reservation(rar_id));
        match pending.upstream {
            Some(peer) => run.out.push((peer.into(), SignalMessage::Deny(denial))),
            None => {
                self.instruments.completions_denied.inc();
                self.completions.push(Completion::Reservation {
                    rar_id,
                    result: Err(denial),
                });
            }
        }
    }

    /// Expire reservations whose interval has ended: release their
    /// capacity and undo their edge configuration. Returns the ids
    /// expired. Drivers call this as simulated wall time advances; the
    /// admission tables are time-indexed, so capacity accounting is
    /// already correct — this sweep cleans up the *data plane* (stale
    /// classifiers and policer dimensioning). No driver's clock reaches
    /// it, so its `Release` spans are on the [`Stopped`] clock.
    pub fn expire(&mut self, now: Timestamp) -> Vec<RarId> {
        let expired: Vec<RarId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.interval.end <= now)
            .map(|(id, _)| *id)
            .collect();
        // Local-only: every domain expires on its own clock, so no
        // release is built or sent (the interval is part of the signed
        // spec). Edge commands remain queued for the driver.
        for id in &expired {
            self.release_locally(*id, &Stopped);
        }
        expired
    }

    /// Tear down a standing reservation end-to-end (invoked at the
    /// source broker; a no-op for any other). The release propagates
    /// downstream; every domain frees its capacity and re-dimensions its
    /// edge.
    pub(crate) fn initiate_release(&mut self, rar_id: RarId, run: &mut Run<'_>) {
        if self
            .pending
            .get(&rar_id)
            .is_none_or(|p| p.upstream.is_some())
        {
            return; // only the source initiates
        }
        if let Some(next) = self.release_locally(rar_id, run.clock) {
            let msg = Release::new(rar_id, &self.domain, &self.key);
            self.counters.add_signed(1);
            run.out.push((next.into(), SignalMessage::Release(msg)));
        }
    }

    fn on_release(&mut self, from: &str, release: Release, run: &mut Run<'_>) {
        // Only accept teardowns arriving from the upstream peer that the
        // reservation actually came through: the authenticated channel
        // vouches for `from`. No hop checks the source broker's signature
        // on the release (ROADMAP item 6).
        let Some(pending) = self.pending.get(&release.rar_id) else {
            return;
        };
        if pending.upstream.as_deref() != Some(from) {
            return;
        }
        if let Some(next) = self.release_locally(release.rar_id, run.clock) {
            run.out.push((next.into(), SignalMessage::Release(release)));
        }
    }

    /// Free `rar_id`'s capacity and undo its edge configuration. Returns
    /// the downstream peer a release goes on to, if the reservation was
    /// pending here and has one.
    fn release_locally(&mut self, rar_id: RarId, clock: &dyn Clock) -> Option<String> {
        let pending = self.pending.remove(&rar_id)?;
        self.verified_paths.remove(&rar_id);
        self.mark(pending.trace, rar_id, SpanKind::Release, || "", clock);
        let _ = self.core.release(rar_id_to_reservation(rar_id));
        // A torn-down tunnel takes its per-flow state with it (the
        // pre-§D14 path leaked both maps forever). Wheel entries for the
        // source side go stale and are skipped on fire.
        if let Some(t) = self.tunnels_src.remove(&rar_id) {
            let held = t.held_flows.len() as i64;
            self.instruments.flow_table_occupancy.add(-held);
        }
        if let Some(t) = self.tunnels_dst.remove(&rar_id) {
            let held = t.flows.len() as i64;
            self.instruments.flow_table_occupancy.add(-held);
        }
        // Undo the edge configuration this reservation installed.
        if pending.upstream.is_none() && !pending.tunnel {
            if let Some(router) = self.edge.first_router {
                self.edge_cmds.push(EdgeCommand::RemoveFlow {
                    router,
                    flow: FlowId(pending.flow),
                });
            }
        }
        if let Some(peer) = &pending.segment.ingress_peer {
            if let Some(&link) = self.edge.ingress_links.get(peer) {
                let aggregate = self
                    .core
                    .admitted_ingress_aggregate(peer, pending.interval.start);
                let excess = self
                    .core
                    .ingress_sla(peer)
                    .map(|s| s.sls.excess)
                    .unwrap_or(ExcessTreatment::Drop);
                self.edge_cmds.push(EdgeCommand::SetIngressAggregate {
                    link,
                    profile: TrafficProfile::with_default_burst(aggregate),
                    excess,
                });
            }
        }
        pending.segment.egress_peer
    }

    // ------------------------------------------------------------------
    // Approach 1: source-domain-based signalling
    // ------------------------------------------------------------------

    fn on_direct(&mut self, req: DirectRequest, run: &mut Run<'_>) {
        let spec = req.rar.res_spec().clone();
        let rar_id = spec.rar_id;
        let my_domain = self.domain.clone();
        let reply_to = PeerId::from(format!("user:{}", spec.source_domain));
        let clock = run.clock;
        let reply = move |accepted: bool, reason: String| {
            run.out.push((
                reply_to,
                SignalMessage::DirectReply(DirectReply {
                    rar_id,
                    domain: my_domain,
                    accepted,
                    reason,
                }),
            ))
        };
        // Approach 1's scalability problem in code: this domain must know
        // the *signer* a priori — the user herself, or (STARS) the
        // source domain's reservation coordinator.
        let Some(&user_pk) = self.direct_users.get(&req.rar.signer) else {
            return reply(
                false,
                format!(
                    "{}: no direct trust relationship with {}",
                    self.domain, req.rar.signer
                ),
            );
        };
        if !req.rar.verify_signature(user_pk) {
            return reply(false, "bad user signature".into());
        }
        self.counters.add_verified(1);
        let trace = TraceId::mint(&spec.source_domain, rar_id.0);
        // Approach 1 carries no delegated capabilities.
        match self.check_policy(&spec, Vec::new(), std::iter::empty(), trace, clock) {
            Ok(_) => {}
            Err(e) => return reply(false, e.to_string()),
        }
        let segment = PathSegment {
            ingress_peer: req.ingress_peer.clone(),
            egress_peer: req.egress_peer.clone(),
        };
        if let Err(e) = self.hold(
            rar_id,
            spec.interval,
            spec.rate_bps,
            segment.clone(),
            trace,
            clock,
        ) {
            return reply(false, e.to_string());
        }
        // Approach 1 has no end-to-end commit phase: each domain commits
        // independently — exactly what makes misreservation possible.
        self.pending.insert(
            rar_id,
            Pending {
                // For edge-configuration purposes the path position comes
                // from the agent's declaration: no ingress peer ⇒ this is
                // the flow's source domain ⇒ install the classifier.
                upstream: req.ingress_peer.clone(),
                requestor: spec.requestor.clone(),
                flow: spec.flow,
                rate_bps: spec.rate_bps,
                interval: spec.interval,
                segment,
                tunnel: false,
                trace,
            },
        );
        self.commit_and_configure(rar_id);
        reply(true, String::new())
    }

    // ------------------------------------------------------------------
    // Tunnels: direct source↔destination sub-flow signalling
    // ------------------------------------------------------------------

    /// Request a sub-flow within an established tunnel (invoked at the
    /// source broker by an authorized user); the request, straight to
    /// the destination domain, goes onto `run`. When `hold_until` is
    /// set, the flow — if the destination accepts it — is torn down
    /// automatically once [`Self::expire_tunnel_flows`] passes that
    /// time, exactly as if [`Self::release_tunnel_flow`] had been
    /// invoked. A refusal here is a static [`DenialCode`] — no
    /// error-string formatting on the fast path.
    pub(crate) fn request_tunnel_flow_held(
        &mut self,
        tunnel: RarId,
        flow: u64,
        rate_bps: u64,
        hold_until: Option<Timestamp>,
        requestor: DistinguishedName,
        run: &mut Run<'_>,
    ) -> Result<(), DenialCode> {
        let t = self
            .tunnels_src
            .get_mut(&tunnel)
            .ok_or(DenialCode::UnknownTunnel)?;
        if t.allocated_bps + t.pending_bps + rate_bps > t.aggregate_bps {
            return Err(DenialCode::SourceExhausted);
        }
        if rate_bps > MAX_FLOW_RATE_BPS {
            return Err(DenialCode::RateOverCap);
        }
        let expiry = hold_until
            .map(|ts| ts.0.min(u64::from(EXPIRY_NEVER - 1)) as u32)
            .unwrap_or(EXPIRY_NEVER);
        if let Some(old) = t.pending_flows.insert(flow, rate_bps as u32, expiry) {
            t.pending_bps -= u64::from(old);
        }
        t.pending_bps += rate_bps;
        let dest = t.dest_domain.clone();
        let msg = TunnelFlowRequest::new(tunnel, flow, rate_bps, requestor);
        self.counters.add_tx(1);
        run.out.push((dest, SignalMessage::TunnelFlow(msg)));
        Ok(())
    }

    /// Admit (or refuse) one sub-flow, and the one reply that says so.
    /// Admission is serial: sub-flows of one tunnel race for the same
    /// aggregate budget.
    fn on_tunnel_flow(&mut self, from: &str, req: TunnelFlowRequest, run: &mut Run<'_>) {
        let (timing, t_start) = self.t0(run.clock);
        let answer = |accepted: bool, reason: DenialCode, source: PeerId| {
            (
                source,
                SignalMessage::TunnelFlowReply(TunnelFlowReply {
                    tunnel: req.tunnel,
                    flow: req.flow,
                    accepted,
                    reason,
                }),
            )
        };
        let reply = 'admit: {
            let Some(t) = self.tunnels_dst.get_mut(&req.tunnel) else {
                break 'admit answer(false, DenialCode::UnknownTunnel, PeerId::from(from));
            };
            // The channel authenticates the sender; only the tunnel's
            // source may spend its aggregate.
            if *t.source_domain != *from {
                break 'admit answer(false, DenialCode::NotTunnelSource, PeerId::from(from));
            }
            // Interned at reservation time: the reply address is a
            // refcount bump, not a String clone per sub-flow.
            let source = t.source_domain.clone();
            if t.allocated_bps + req.rate_bps > t.aggregate_bps {
                break 'admit answer(false, DenialCode::Exhausted, source);
            }
            if req.rate_bps > MAX_FLOW_RATE_BPS {
                break 'admit answer(false, DenialCode::RateOverCap, source);
            }
            // Deliberate pre-§D14 quirk, kept for verdict equivalence: a
            // duplicate admit replaces the record but still adds its full
            // rate to the aggregate (the old `HashMap` path did exactly
            // this).
            t.allocated_bps += req.rate_bps;
            if t.flows
                .insert(req.flow, req.rate_bps as u32, EXPIRY_NEVER)
                .is_none()
            {
                self.instruments.flow_table_occupancy.add(1);
            }
            answer(true, DenialCode::None, source)
        };
        if timing {
            let took = run.clock.now_ns().saturating_sub(t_start);
            self.instruments.flow_admit_ns.observe(took);
        }
        run.out.push(reply);
    }

    /// Tear down one tunnel sub-flow (invoked at the source broker): the
    /// aggregate budget is returned on both ends and the per-flow
    /// classifier is removed.
    pub fn release_tunnel_flow(
        &mut self,
        tunnel: RarId,
        flow: u64,
        rate_bps: u64,
    ) -> Result<Vec<(PeerId, SignalMessage)>, CoreError> {
        let t = self
            .tunnels_src
            .get_mut(&tunnel)
            .ok_or_else(|| CoreError::Tunnel(format!("unknown tunnel {tunnel:?}")))?;
        t.allocated_bps = t.allocated_bps.saturating_sub(rate_bps);
        if t.held_flows.remove(flow).is_some() {
            // Any wheel entry for this flow is now stale; expiry skips it
            // (lazy cancellation).
            self.instruments.flow_table_occupancy.add(-1);
        }
        let dest = t.dest_domain.clone();
        if let Some(router) = self.edge.first_router {
            self.edge_cmds.push(EdgeCommand::RemoveFlow {
                router,
                flow: FlowId(flow),
            });
        }
        let msg = TunnelFlowRelease::new(tunnel, flow);
        self.counters.add_tx(1);
        Ok(vec![(dest, SignalMessage::TunnelFlowRelease(msg))])
    }

    /// Advance the hold-expiry wheel to `now` and tear down every
    /// source-side held sub-flow whose hold has lapsed — aggregate
    /// returned on both ends, per-flow classifier removed, release sent
    /// to the destination, exactly as if
    /// [`Self::release_tunnel_flow`] had been invoked. Cost is
    /// O(ticks crossed + flows expired): the wheel never walks the
    /// held-flow table. Drivers call this as wall time advances,
    /// alongside [`Self::expire`].
    pub fn expire_tunnel_flows(&mut self, now: Timestamp) -> Vec<(PeerId, SignalMessage)> {
        let tick = now.0.min(u64::from(u32::MAX)) as u32;
        if tick <= self.flow_expiry.now() {
            return Vec::new();
        }
        self.instruments.flow_expiry_sweeps.inc();
        let mut fired: Vec<(RarId, u64)> = Vec::new();
        self.flow_expiry.advance(tick, |entry| fired.push(entry));
        let mut out = Vec::with_capacity(fired.len());
        for (tunnel, flow) in fired {
            let Some(t) = self.tunnels_src.get_mut(&tunnel) else {
                continue; // tunnel torn down since scheduling
            };
            let Some((rate, expiry)) = t.held_flows.get(flow) else {
                continue; // released since scheduling
            };
            if expiry > tick {
                continue; // re-admitted with a longer hold
            }
            t.held_flows.remove(flow);
            t.allocated_bps = t.allocated_bps.saturating_sub(u64::from(rate));
            self.instruments.flow_table_occupancy.add(-1);
            if let Some(router) = self.edge.first_router {
                self.edge_cmds.push(EdgeCommand::RemoveFlow {
                    router,
                    flow: FlowId(flow),
                });
            }
            let msg = TunnelFlowRelease::new(tunnel, flow);
            out.push((t.dest_domain.clone(), SignalMessage::TunnelFlowRelease(msg)));
        }
        self.counters.add_tx(out.len() as u64);
        out
    }

    /// Held tunnel sub-flow state on this broker, as
    /// `(records, resident_bytes)`: source-side pending + held flows,
    /// destination-side admitted flows, and the expiry wheel's bucket
    /// storage. EXP-T and EXP-M report exactly this accounting.
    pub fn held_flow_stats(&self) -> (usize, usize) {
        let mut records = 0usize;
        let mut bytes = self.flow_expiry.resident_bytes();
        for t in self.tunnels_src.values() {
            records += t.pending_flows.len() + t.held_flows.len();
            bytes += t.pending_flows.resident_bytes() + t.held_flows.resident_bytes();
        }
        for t in self.tunnels_dst.values() {
            records += t.flows.len();
            bytes += t.flows.resident_bytes();
        }
        (records, bytes)
    }

    fn on_tunnel_flow_release(&mut self, from: &str, rel: TunnelFlowRelease) {
        // Acted on only from the tunnel's source, as a request is.
        if let Some(t) = self.tunnels_dst.get_mut(&rel.tunnel) {
            if *t.source_domain == *from {
                if let Some((rate, _)) = t.flows.remove(rel.flow) {
                    t.allocated_bps = t.allocated_bps.saturating_sub(u64::from(rate));
                    self.instruments.flow_table_occupancy.add(-1);
                }
            }
        }
    }

    fn on_tunnel_flow_reply(&mut self, from: &str, reply: TunnelFlowReply) {
        // Only the tunnel's destination answers for its sub-flows; a
        // reply from any other peer is dropped unseen.
        let Some(t) = self
            .tunnels_src
            .get_mut(&reply.tunnel)
            .filter(|t| *t.dest_domain == *from)
        else {
            return;
        };
        if let Some((rate, expiry)) = t.pending_flows.remove(reply.flow) {
            t.pending_bps -= u64::from(rate);
            if reply.accepted {
                t.allocated_bps += u64::from(rate);
                if t.held_flows.insert(reply.flow, rate, expiry).is_none() {
                    self.instruments.flow_table_occupancy.add(1);
                }
                if expiry != EXPIRY_NEVER {
                    self.flow_expiry
                        .schedule(expiry, (reply.tunnel, reply.flow));
                }
                // Per-flow classification at the source edge; transit
                // policers were dimensioned by the aggregate already.
                if let Some(router) = self.edge.first_router {
                    self.edge_cmds.push(EdgeCommand::InstallFlow {
                        router,
                        flow: FlowId(reply.flow),
                        profile: TrafficProfile::with_default_burst(u64::from(rate)),
                        excess: ExcessTreatment::Drop,
                    });
                }
            }
        }
        self.completions.push(Completion::TunnelFlow {
            tunnel: reply.tunnel,
            flow: reply.flow,
            accepted: reply.accepted,
            reason: reply.reason,
        });
    }

    // ------------------------------------------------------------------
    // Shared helpers
    // ------------------------------------------------------------------

    fn next_peer_towards(&self, dest_domain: &str) -> Result<Option<String>, CoreError> {
        if dest_domain == self.domain {
            return Ok(None);
        }
        self.routes
            .get(dest_domain)
            .cloned()
            .map(Some)
            .ok_or_else(|| CoreError::UnknownPeer {
                peer: dest_domain.to_string(),
            })
    }

    fn hold(
        &mut self,
        rar_id: RarId,
        interval: Interval,
        rate_bps: u64,
        segment: PathSegment,
        trace: TraceId,
        clock: &dyn Clock,
    ) -> Result<(), CoreError> {
        let (timing, t_hold) = self.t0(clock);
        let result = self
            .core
            .hold(rar_id_to_reservation(rar_id), interval, rate_bps, segment)
            .map_err(|e| CoreError::Denied {
                rar_id,
                domain: self.domain.clone(),
                reason: e.to_string(),
            });
        if timing {
            let end = clock.now_ns();
            self.span_at(
                trace,
                rar_id,
                SpanKind::Admission,
                || if result.is_ok() { "held" } else { "refused" },
                t_hold,
                end,
            );
        }
        if result.is_ok() {
            self.instruments.admission_held.inc();
        } else {
            self.instruments.admission_refused.inc();
        }
        // Admission verdicts are first-class flight events (not just
        // spans): they journal even when tracing is off, and a refusal
        // burst is one of the recorder's anomaly-dump triggers.
        if let Some(flight) = self.telemetry.flight() {
            flight.record(
                FlightEvent::new(
                    EventFamily::Admission,
                    self.domain.clone(),
                    if result.is_ok() { "held" } else { "refused" },
                )
                .trace(trace)
                .request(rar_id.0)
                .detail(format!("rate {rate_bps} bps"))
                .wall(self.now.0),
            );
        }
        result
    }

    /// Commit the hold and emit the edge configuration that enforces it.
    fn commit_and_configure(&mut self, rar_id: RarId) {
        let _ = self.core.commit(rar_id_to_reservation(rar_id));
        let Some(p) = self.pending.get(&rar_id) else {
            return;
        };
        // Source domain: install the per-flow classifier at the first
        // router ("only the first router recognizes packets on a per flow
        // base").
        if p.upstream.is_none() && !p.tunnel {
            if let Some(router) = self.edge.first_router {
                self.edge_cmds.push(EdgeCommand::InstallFlow {
                    router,
                    flow: FlowId(p.flow),
                    profile: TrafficProfile::with_default_burst(p.rate_bps),
                    excess: ExcessTreatment::Drop,
                });
            }
        }
        // Any domain with an upstream peer: re-dimension the ingress
        // aggregate policer to the admitted sum.
        if let Some(peer) = &p.segment.ingress_peer {
            if let Some(&link) = self.edge.ingress_links.get(peer) {
                let aggregate = self.core.admitted_ingress_aggregate(peer, p.interval.start);
                let excess = self
                    .core
                    .ingress_sla(peer)
                    .map(|s| s.sls.excess)
                    .unwrap_or(ExcessTreatment::Drop);
                self.edge_cmds.push(EdgeCommand::SetIngressAggregate {
                    link,
                    profile: TrafficProfile::with_default_burst(aggregate),
                    excess,
                });
            }
        }
        self.maybe_snapshot();
    }

    /// Verify the capability chain carried by the envelope (if any) and
    /// convert it to the PDP's verified-capability form: empty unless
    /// the chain ends at this broker's key, which is also when it may
    /// hand it on. `verified` says which layers of the nest this broker
    /// has verified ([`RarView::hops`]).
    fn verify_capability_chain(
        &mut self,
        view: &RarView<'_>,
        verified: Option<(PublicKey, usize)>,
    ) -> Result<Vec<VerifiedCapability>, CoreError> {
        let Some(first) = view.caps().first() else {
            return Ok(Vec::new());
        };
        let issuer = first.tbs().issuer.common_name().unwrap_or_default();
        let Some(&cas_pk) = self.cas_keys.get(issuer) else {
            // Unknown community: ignore the capabilities rather than deny —
            // policy decides whether anything required them.
            return Ok(Vec::new());
        };
        // §6.5 checklist: link signatures, continuity, monotonicity,
        // validity windows. Structural failures mean tampering and are
        // fatal.
        let chain = DelegationChain::verify_request(
            view.caps(),
            view.hops(verified),
            cas_pk,
            self.now,
            view.spec().rar_id.0,
        )?;
        self.counters.add_verified(chain.signatures as u64);
        // A structurally valid chain delegated to someone else is carried
        // onward but grants us nothing.
        if chain.holder_key != self.key.public() {
            return Ok(Vec::new());
        }
        Ok(vec![VerifiedCapability {
            issuer: issuer.to_string(),
            attributes: chain.capabilities,
            restrictions: chain.restrictions.iter().map(|r| r.to_string()).collect(),
        }])
    }

    /// The link that extends a chain this broker holds to the next one
    /// (Neuman cascade: bound to the peer's real public key; the wrap
    /// that carries it is signed with ours and valid for this RAR only).
    fn delegation_to(
        &self,
        holds_chain: bool,
        next_peer: &str,
    ) -> Result<Option<Delegation>, CoreError> {
        if !holds_chain {
            return Ok(None);
        }
        let peer_cert = self
            .peers
            .get(next_peer)
            .ok_or_else(|| CoreError::UnknownPeer {
                peer: next_peer.to_string(),
            })?;
        Ok(Some(Delegation {
            to_key: peer_cert.tbs().subject_public_key,
            validity: Validity::starting_at(self.now, 7 * 24 * 3600),
        }))
    }

    /// Run the local PDP over everything known about the request:
    /// `upstream` are the attachments of the domains it came through,
    /// innermost first.
    fn check_policy<'a>(
        &mut self,
        spec: &crate::rar::ResSpec,
        caps: Vec<VerifiedCapability>,
        upstream: impl Iterator<Item = &'a AttributeSet>,
        trace: TraceId,
        clock: &dyn Clock,
    ) -> Result<AttributeSet, CoreError> {
        let mut req = qos_policy::PolicyRequest::new(spec.requestor.clone());
        upstream.for_each(|a| req.attrs.merge(a));
        req.attrs.merge(&spec.attrs);
        req.attrs
            .set("bw", Value::Bandwidth(spec.rate_bps))
            .set("reservation_type", Value::Str("network".into()))
            .set("source_domain", Value::Str(spec.source_domain.clone()))
            .set("dest_domain", Value::Str(spec.dest_domain.clone()));
        if let Some(cn) = spec.requestor.common_name() {
            req.attrs.set("user", Value::Str(cn.to_string()));
        }
        if let Some(id) = spec.cpu_reservation_id {
            req.attrs.set("cpu_reservation_id", Value::Int(id as i64));
        }
        req.assertions = spec.assertions.clone();
        req.capabilities = caps;

        let vars = qos_policy::DomainVars {
            avail_bw_bps: self.core.available_bw_at(spec.interval.start),
            now_minutes: ((self.now.0 / 60) % 1440) as u32,
            domain: self.domain.clone(),
        };
        let oracle = CpuOracle(&self.cpu_reservations);
        let (timing, t_decide) = self.t0(clock);
        let decided = self.pdp.decide(&req, &vars, &oracle);
        if timing {
            let end = clock.now_ns();
            self.instruments.decide_ns.observe(end - t_decide);
            let detail = || match &decided {
                Ok(d) => match &d.decision {
                    qos_policy::Decision::Grant => "GRANT".to_string(),
                    qos_policy::Decision::Deny(r) => {
                        format!("DENY: {}", r.as_deref().unwrap_or("policy denied"))
                    }
                },
                Err(e) => format!("ERROR: {e}"),
            };
            self.span_at(
                trace,
                spec.rar_id,
                SpanKind::PolicyDecision,
                detail,
                t_decide,
                end,
            );
        }
        let decision = decided.map_err(|e| CoreError::Denied {
            rar_id: spec.rar_id,
            domain: self.domain.clone(),
            reason: format!("policy evaluation error: {e}"),
        })?;
        match decision.decision {
            qos_policy::Decision::Grant => Ok(decision.attachments),
            qos_policy::Decision::Deny(reason) => Err(CoreError::Denied {
                rar_id: spec.rar_id,
                domain: self.domain.clone(),
                reason: reason.unwrap_or_else(|| "policy denied".into()),
            }),
        }
    }

    /// Build a user assertion helper (used by tests and harnesses).
    pub fn policy_groups_mut(&mut self) -> &mut GroupServer {
        self.pdp.groups_mut()
    }
}

/// RAR ids map one-to-one onto broker reservation ids.
pub fn rar_id_to_reservation(rar_id: RarId) -> ReservationId {
    ReservationId(rar_id.0)
}

/// Assertion re-export convenience for harnesses building requests.
pub fn group_assertion(name: &str) -> Assertion {
    Assertion::group(name)
}
