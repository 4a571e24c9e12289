//! The policy server (policy decision point).
//!
//! §5 of the paper: *"We introduce an entity called a policy server that
//! encapsulates a BB's admission control procedures. When a request comes
//! in, it is forwarded to the policy server which executes local policy
//! and passes back a result ('yes' or 'no') and a modified request."*
//!
//! [`PolicyServer::decide`] composes the evaluation environment from the
//! request, live domain variables, the local group server, and a
//! reservation oracle (for coupled-reservation predicates such as
//! `HasValidCPUResv`), then evaluates the domain's policy file.

use crate::ast::Decision;
use crate::attr::{AttributeSet, Value};
use crate::eval::{evaluate, EvalError, Outcome, PolicyEnv};
use crate::group::GroupServer;
use crate::parser::{parse_cached, ParseError};
use crate::request::PolicyRequest;
use crate::Policy;
use qos_crypto::lru::LruMap;
use qos_crypto::sha256::{sha256, Digest};
use qos_telemetry::{Counter, Histogram, StdClock, Telemetry};
use qos_wire::{Encode, Writer};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Live per-domain state the policy can reference.
#[derive(Debug, Clone)]
pub struct DomainVars {
    /// Currently available (unreserved) bandwidth in bits/s — the
    /// `Avail_BW` variable in Figure 6's policy file A.
    pub avail_bw_bps: u64,
    /// Current time of day in minutes since midnight — the `Time`
    /// variable.
    pub now_minutes: u32,
    /// This domain's name.
    pub domain: String,
}

/// Callbacks into the broker's reservation state for coupled-reservation
/// predicates.
pub trait ReservationOracle {
    /// Does reservation `id` exist and currently hold for a CPU resource
    /// in this domain? (Figure 6's `HasValidCPUResv(RAR)`.)
    fn has_valid_cpu_reservation(&self, id: i64) -> bool;
}

/// An oracle that knows of no reservations (for domains without coupled
/// resources).
pub struct NoReservations;

impl ReservationOracle for NoReservations {
    fn has_valid_cpu_reservation(&self, _id: i64) -> bool {
        false
    }
}

/// The decision a PDP hands back to its broker: grant/deny plus the
/// modified request.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// Grant or deny (with reason).
    pub decision: Decision,
    /// Attributes the policy attached — merged into the request before it
    /// is forwarded downstream ("a modified request").
    pub attachments: AttributeSet,
    /// Evaluation trace for diagnostics.
    pub trace: Vec<String>,
}

impl From<Outcome> for PolicyDecision {
    fn from(o: Outcome) -> Self {
        Self {
            decision: o.decision,
            attachments: o.attachments,
            trace: o.trace,
        }
    }
}

/// Instrument handles for one PDP (detached no-ops by default).
#[derive(Default)]
struct PdpInstruments {
    eval_ns: Histogram,
    parse_ns: Histogram,
    grants: Counter,
    denies: Counter,
    errors: Counter,
    live: bool,
}

/// Bound on memoized decisions per PDP. Steady-state traffic in the
/// paper's scenarios revisits a handful of (requestor, spec) shapes, so
/// a small bound holds the whole working set; eviction is LRU.
const DECISION_CACHE_CAP: usize = 1024;

/// Interior-mutable memoization state, shared by `decide` (decision
/// memo) and the evaluation environment (group-membership memo).
struct PdpCache {
    decisions: LruMap<Digest, PolicyDecision>,
    members: HashMap<(String, String), bool>,
}

/// A policy decision point for one domain.
pub struct PolicyServer {
    policy: Policy,
    groups: GroupServer,
    instruments: PdpInstruments,
    /// Bumped on every policy or group mutation; part of every cache
    /// key, so stale entries can never match even before they are
    /// physically cleared.
    generation: u64,
    cache: Mutex<PdpCache>,
    /// Nanoseconds spent parsing in `from_source`, held until telemetry
    /// is attached (parsing happens at construction, before
    /// `set_telemetry` can have run).
    pending_parse_ns: Vec<u64>,
}

impl PolicyServer {
    /// Build a PDP from policy source text and a group server.
    ///
    /// Parsing goes through [`parse_cached`], so brokers (re)built from
    /// the same scenario source share one parse; the observed parse time
    /// — cached or not — is reported as `pdp_parse_ns` once telemetry is
    /// attached, keeping parse cost visible separately from `pdp_eval_ns`.
    pub fn from_source(policy_src: &str, groups: GroupServer) -> Result<Self, ParseError> {
        let t0 = StdClock::now();
        let policy = parse_cached(policy_src)?;
        let parse_ns = StdClock::now().saturating_sub(t0);
        let mut server = Self::new(policy, groups);
        server.pending_parse_ns.push(parse_ns);
        Ok(server)
    }

    /// Build a PDP from an already-parsed policy.
    pub fn new(policy: Policy, groups: GroupServer) -> Self {
        Self {
            policy,
            groups,
            instruments: PdpInstruments::default(),
            generation: 0,
            cache: Mutex::new(PdpCache {
                decisions: LruMap::new(DECISION_CACHE_CAP, Default::default()),
                members: HashMap::new(),
            }),
            pending_parse_ns: Vec::new(),
        }
    }

    /// Route this PDP's instruments into `telemetry` under `domain`:
    /// evaluation latency (`pdp_eval_ns`), parse latency (`pdp_parse_ns`,
    /// observed separately so steady-state evaluation cost is not
    /// conflated with one-time compilation), decision counters
    /// (`pdp_decisions_total{decision=grant|deny|error}`), and the
    /// decision-cache counters
    /// (`cache_{hits,misses,evictions}_total{cache="pdp"}`).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry, domain: &str) {
        let dl: &[(&str, &str)] = &[("domain", domain)];
        self.instruments = PdpInstruments {
            eval_ns: telemetry.histogram("pdp_eval_ns", "Policy evaluation time (ns)", dl),
            parse_ns: telemetry.histogram("pdp_parse_ns", "Policy parse time (ns)", dl),
            grants: telemetry.counter(
                "pdp_decisions_total",
                "PDP decisions by outcome",
                &[("domain", domain), ("decision", "grant")],
            ),
            denies: telemetry.counter(
                "pdp_decisions_total",
                "PDP decisions by outcome",
                &[("domain", domain), ("decision", "deny")],
            ),
            errors: telemetry.counter(
                "pdp_decisions_total",
                "PDP decisions by outcome",
                &[("domain", domain), ("decision", "error")],
            ),
            live: telemetry.is_enabled(),
        };
        for ns in self.pending_parse_ns.drain(..) {
            self.instruments.parse_ns.observe(ns);
        }
        telemetry.register_cache_counters(
            &[("cache", "pdp"), ("domain", domain)],
            self.locked().decisions.counters().cells(),
        );
    }

    /// The group server this PDP consults.
    pub fn groups(&self) -> &GroupServer {
        &self.groups
    }

    /// Mutable access to the group server (membership administration).
    ///
    /// Taking this handle bumps the policy generation: membership *may*
    /// change under it, and every memoized decision or membership verdict
    /// predates the change, so the caches are invalidated wholesale.
    pub fn groups_mut(&mut self) -> &mut GroupServer {
        self.bump_generation();
        &mut self.groups
    }

    /// The policy text in force.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Replace the policy. Bumps the generation, invalidating every
    /// cached decision made under the old policy.
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
        self.bump_generation();
    }

    /// The current policy generation (bumped on any policy or group
    /// mutation; cache keys include it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Decision-cache `(hits, misses, evictions)` since construction.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.locked().decisions.counters().stats()
    }

    /// Number of decisions currently memoized.
    pub fn cache_len(&self) -> usize {
        self.locked().decisions.len()
    }

    /// The memoization state. Every update leaves it valid (an entry is
    /// either in or out), so a lock poisoned by a panicking caller is
    /// simply taken over.
    fn locked(&self) -> MutexGuard<'_, PdpCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn bump_generation(&mut self) {
        self.generation += 1;
        let mut cache = self.locked();
        cache.decisions.clear();
        cache.members.clear();
    }

    /// Canonical cache key: generation, live domain variables, and every
    /// part of the request that can influence evaluation, each in its
    /// canonical wire encoding — self-delimiting, so adjacent fields
    /// cannot alias, and injective, so distinct requests cannot share a
    /// key.
    fn cache_key(&self, req: &PolicyRequest, vars: &DomainVars) -> Digest {
        let mut w = Writer::with_capacity(256);
        w.put_u64(self.generation);
        w.put_u64(vars.avail_bw_bps);
        w.put_u32(vars.now_minutes);
        w.put_str(&vars.domain);
        req.requestor.encode(&mut w);
        req.attrs.encode(&mut w);
        req.assertions.encode(&mut w);
        req.capabilities.encode(&mut w);
        sha256(w.as_bytes())
    }

    /// Evaluate the local policy against `req`.
    ///
    /// Decisions are memoized under a canonical key covering the policy
    /// generation, the domain variables, and the full request shape. A
    /// repeated steady-state request is served from the memo without
    /// re-walking the AST. Two classes of outcome are never cached:
    /// evaluation errors, and any decision whose evaluation consulted
    /// the [`ReservationOracle`] — the oracle reads live broker state
    /// that no cache key here can see. `pdp_decisions_total` counts
    /// cached and fresh decisions alike; `pdp_eval_ns` observes only
    /// real evaluations.
    pub fn decide(
        &self,
        req: &PolicyRequest,
        vars: &DomainVars,
        oracle: &dyn ReservationOracle,
    ) -> Result<PolicyDecision, EvalError> {
        let key = self.cache_key(req, vars);
        let cached = self.locked().decisions.get_if(&key, |_| true).cloned();
        if let Some(decision) = cached {
            if self.instruments.live {
                if decision.decision.is_grant() {
                    self.instruments.grants.inc();
                } else {
                    self.instruments.denies.inc();
                }
            }
            return Ok(decision);
        }
        let oracle_used = Cell::new(false);
        let env = Env {
            req,
            vars,
            oracle,
            groups: &self.groups,
            memo: &self.cache,
            oracle_used: &oracle_used,
        };
        let t0 = StdClock::now();
        let result = evaluate(&self.policy, &env).map(PolicyDecision::from);
        if self.instruments.live {
            self.instruments
                .eval_ns
                .observe(StdClock::now().saturating_sub(t0));
            match &result {
                Ok(d) if d.decision.is_grant() => self.instruments.grants.inc(),
                Ok(_) => self.instruments.denies.inc(),
                Err(_) => self.instruments.errors.inc(),
            }
        }
        if let Ok(decision) = &result {
            if !oracle_used.get() {
                self.locked().decisions.insert(key, decision.clone());
            }
        }
        result
    }
}

struct Env<'a> {
    req: &'a PolicyRequest,
    vars: &'a DomainVars,
    oracle: &'a dyn ReservationOracle,
    groups: &'a GroupServer,
    memo: &'a Mutex<PdpCache>,
    oracle_used: &'a Cell<bool>,
}

impl Env<'_> {
    fn requestor_name(&self) -> String {
        self.req
            .requestor
            .common_name()
            .unwrap_or_default()
            .to_string()
    }

    /// Group-membership check through the PDP-wide memo. The memo is
    /// cleared on every generation bump, so it can never serve a verdict
    /// that predates a membership change.
    fn member_cached(&self, group: &str, user: &str) -> bool {
        let key = (group.to_ascii_lowercase(), user.to_ascii_lowercase());
        if let Some(&v) = self.memo.lock().unwrap().members.get(&key) {
            return v;
        }
        let v = self.groups.is_member(group, user);
        self.memo.lock().unwrap().members.insert(key, v);
        v
    }
}

impl PolicyEnv for Env<'_> {
    fn attr(&self, name: &str) -> Option<Value> {
        match name.to_ascii_lowercase().as_str() {
            "time" => Some(Value::TimeOfDay(self.vars.now_minutes)),
            "avail_bw" => Some(Value::Bandwidth(self.vars.avail_bw_bps)),
            "domain" => Some(Value::Str(self.vars.domain.clone())),
            "requestor" => Some(Value::Str(self.requestor_name())),
            "group" | "groups" => {
                let groups = self.req.claimed_groups();
                if groups.is_empty() {
                    None
                } else {
                    Some(Value::List(groups.into_iter().map(Value::Str).collect()))
                }
            }
            // `Capability` resolves to the list of issuers so that the
            // figure's `Issued_by(Capability) = ESnet` form works whether
            // `Issued_by` is applied or the attribute is used directly.
            "capability" | "capabilities" => {
                let issuers = self.req.capability_issuers();
                if issuers.is_empty() {
                    None
                } else {
                    Some(Value::List(issuers.into_iter().map(Value::Str).collect()))
                }
            }
            // `RAR` resolves to the coupled reservation id carried in the
            // request, if any.
            "rar" => self.req.attrs.get("cpu_reservation_id").cloned(),
            other => self.req.attrs.get(other).cloned(),
        }
    }

    fn call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        match name.to_ascii_lowercase().as_str() {
            // `Issued_by(Capability)`: the issuers of the presented
            // capabilities (a list; `=` means membership).
            "issued_by" | "issuedby" => {
                let issuers = self.req.capability_issuers();
                Ok(Value::List(issuers.into_iter().map(Value::Str).collect()))
            }
            // `Accredited_Physicist(requestor)` — Figure 1's domain-B
            // rule, validated against the local group server.
            "accredited_physicist" => {
                let who = string_arg(name, args, 0)?;
                Ok(Value::Bool(self.member_cached("physicists", &who)))
            }
            // General form: `Member(group, user)` or `Member(group)`
            // (defaulting to the requestor).
            "member" | "in_group" => {
                let group = string_arg(name, args, 0)?;
                let user = if args.len() > 1 {
                    string_arg(name, args, 1)?
                } else {
                    self.requestor_name()
                };
                // A claim must both be presented and validate server-side.
                let claimed = self
                    .req
                    .claimed_groups()
                    .iter()
                    .any(|g| g.eq_ignore_ascii_case(&group));
                Ok(Value::Bool(claimed && self.member_cached(&group, &user)))
            }
            // `Has_Capability("ESnet:member")` — exact capability
            // attribute possession.
            "has_capability" => {
                let want = string_arg(name, args, 0)?;
                let has = self
                    .req
                    .capabilities
                    .iter()
                    .any(|c| c.attributes.iter().any(|a| a.eq_ignore_ascii_case(&want)));
                Ok(Value::Bool(has))
            }
            // `HasValidCPUResv(RAR)` — Figure 6's domain-C rule.
            "hasvalidcpuresv" | "has_valid_cpu_resv" => {
                let id = match args.first() {
                    Some(Value::Int(i)) => *i,
                    // `RAR` resolved to nothing (no coupled reservation on
                    // the request): the predicate is simply false.
                    Some(Value::Str(_)) | None => return Ok(Value::Bool(false)),
                    Some(other) => {
                        return Err(EvalError::BadArguments {
                            function: name.to_string(),
                            message: format!("expected reservation id, got {}", other.type_name()),
                        })
                    }
                };
                self.oracle_used.set(true);
                Ok(Value::Bool(self.oracle.has_valid_cpu_reservation(id)))
            }
            other => Err(EvalError::UnknownFunction(other.to_string())),
        }
    }
}

fn string_arg(func: &str, args: &[Value], idx: usize) -> Result<String, EvalError> {
    match args.get(idx) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(EvalError::BadArguments {
            function: func.to_string(),
            message: format!("argument {idx} must be a string, got {}", other.type_name()),
        }),
        None => Err(EvalError::BadArguments {
            function: func.to_string(),
            message: format!("missing argument {idx}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::bw;
    use crate::request::{Assertion, VerifiedCapability};
    use qos_crypto::{DistinguishedName, KeyPair};

    fn vars() -> DomainVars {
        DomainVars {
            avail_bw_bps: 100_000_000,
            now_minutes: 10 * 60,
            domain: "domain-b".into(),
        }
    }

    fn groups() -> GroupServer {
        let mut g = GroupServer::new("groups", KeyPair::from_seed(b"gs"));
        g.add_member("physicists", "Charlie");
        g.add_member("atlas", "Alice");
        g
    }

    struct CpuOracle(Vec<i64>);
    impl ReservationOracle for CpuOracle {
        fn has_valid_cpu_reservation(&self, id: i64) -> bool {
            self.0.contains(&id)
        }
    }

    #[test]
    fn figure6_policy_b_group_and_capability_paths() {
        let pdp = PolicyServer::from_source(
            r#"
            if Group = Atlas {
                if BW <= 10Mb/s { return grant }
            }
            if Issued_by(Capability) = ESnet {
                if BW <= 10Mb/s { return grant }
            }
            return deny "policy B: not authorized"
            "#,
            groups(),
        )
        .unwrap();

        // Path 1: ATLAS membership.
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_attr("bw", bw::mbps(10))
            .with_assertion(Assertion::group("ATLAS"));
        let d = pdp.decide(&req, &vars(), &NoReservations).unwrap();
        assert!(d.decision.is_grant(), "trace: {:?}", d.trace);

        // Path 2: ESnet capability.
        let req = PolicyRequest::new(DistinguishedName::user("Dana", "X"))
            .with_attr("bw", bw::mbps(8))
            .with_capability(VerifiedCapability {
                issuer: "ESnet".into(),
                attributes: vec!["ESnet:member".into()],
                restrictions: vec![],
            });
        assert!(pdp
            .decide(&req, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());

        // Over 10 Mb/s: denied on both paths.
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_attr("bw", bw::mbps(20))
            .with_assertion(Assertion::group("ATLAS"));
        assert!(!pdp
            .decide(&req, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());

        // No group, no capability: denied.
        let req =
            PolicyRequest::new(DistinguishedName::user("Eve", "X")).with_attr("bw", bw::mbps(1));
        assert!(!pdp
            .decide(&req, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());
    }

    #[test]
    fn figure6_policy_c_cpu_coupling() {
        let pdp = PolicyServer::from_source(
            r#"
            if BW >= 5Mb/s {
                if Issued_by(Capability) = ESnet and HasValidCPUResv(RAR) { return grant }
                return deny "above 5Mb/s requires ESnet capability and valid CPU reservation"
            }
            return grant
            "#,
            groups(),
        )
        .unwrap();
        let oracle = CpuOracle(vec![111]);

        let with_cap = |id: Option<i64>| {
            let mut req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
                .with_attr("bw", bw::mbps(10))
                .with_capability(VerifiedCapability {
                    issuer: "ESnet".into(),
                    attributes: vec!["ESnet:member".into()],
                    restrictions: vec![],
                });
            if let Some(id) = id {
                req = req.with_attr("cpu_reservation_id", Value::Int(id));
            }
            req
        };

        // Valid CPU reservation 111 (as in Figure 6): grant.
        assert!(pdp
            .decide(&with_cap(Some(111)), &vars(), &oracle)
            .unwrap()
            .decision
            .is_grant());
        // Unknown reservation id: deny.
        assert!(!pdp
            .decide(&with_cap(Some(999)), &vars(), &oracle)
            .unwrap()
            .decision
            .is_grant());
        // No coupled reservation at all: deny.
        assert!(!pdp
            .decide(&with_cap(None), &vars(), &oracle)
            .unwrap()
            .decision
            .is_grant());
        // Small request (< 5 Mb/s) needs nothing.
        let small =
            PolicyRequest::new(DistinguishedName::user("Eve", "X")).with_attr("bw", bw::mbps(1));
        assert!(pdp
            .decide(&small, &vars(), &oracle)
            .unwrap()
            .decision
            .is_grant());
    }

    #[test]
    fn member_requires_claim_and_server_validation() {
        let pdp = PolicyServer::from_source(
            r#"if Member("atlas") { return grant } return deny"#,
            groups(),
        )
        .unwrap();
        // Alice is in the server's ATLAS group but must also claim it.
        let unclaimed = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"));
        assert!(!pdp
            .decide(&unclaimed, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        let claimed = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_assertion(Assertion::group("atlas"));
        assert!(pdp
            .decide(&claimed, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        // Bob claims but the server disagrees.
        let bogus = PolicyRequest::new(DistinguishedName::user("Bob", "ANL"))
            .with_assertion(Assertion::group("atlas"));
        assert!(!pdp
            .decide(&bogus, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());
    }

    #[test]
    fn attachments_flow_back_as_modified_request() {
        let pdp = PolicyServer::from_source(
            r#"
            attach required_group = "atlas"
            attach cost_offer = 7
            return grant
            "#,
            groups(),
        )
        .unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"));
        let d = pdp.decide(&req, &vars(), &NoReservations).unwrap();
        assert!(d.decision.is_grant());
        assert_eq!(
            d.attachments.get("required_group"),
            Some(&Value::Str("atlas".into()))
        );
        assert_eq!(d.attachments.get("cost_offer"), Some(&Value::Int(7)));
    }

    #[test]
    fn repeated_decisions_are_served_from_cache() {
        let pdp =
            PolicyServer::from_source(r#"if Group = Atlas { return grant } return deny"#, groups())
                .unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_attr("bw", bw::mbps(10))
            .with_assertion(Assertion::group("ATLAS"));
        let first = pdp.decide(&req, &vars(), &NoReservations).unwrap();
        let (h0, m0, _) = pdp.cache_stats();
        assert_eq!((h0, m0), (0, 1));
        let second = pdp.decide(&req, &vars(), &NoReservations).unwrap();
        assert_eq!(first, second);
        let (h1, m1, _) = pdp.cache_stats();
        assert_eq!((h1, m1), (1, 1));
        // A different request shape misses.
        let other = PolicyRequest::new(DistinguishedName::user("Bob", "ANL"));
        pdp.decide(&other, &vars(), &NoReservations).unwrap();
        assert_eq!(pdp.cache_stats().1, 2);
    }

    #[test]
    fn changed_domain_vars_are_a_different_key() {
        let pdp = PolicyServer::from_source(
            r#"if BW <= Avail_BW { return grant } return deny"#,
            groups(),
        )
        .unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_attr("bw", bw::mbps(50));
        let mut v = vars();
        assert!(pdp
            .decide(&req, &v, &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        v.avail_bw_bps = 1_000_000;
        // Same request, different live state: must re-evaluate, not hit.
        assert!(!pdp
            .decide(&req, &v, &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        assert_eq!(pdp.cache_stats().0, 0, "no false hit across var change");
    }

    /// The decision-cache key as it was built before it hashed wire
    /// encodings: `Debug` renderings of the request's parts.
    fn debug_cache_key(pdp: &PolicyServer, req: &PolicyRequest, vars: &DomainVars) -> Digest {
        use qos_crypto::sha256::Sha256;
        let mut h = Sha256::new();
        let feed = |h: &mut Sha256, bytes: &[u8]| {
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(bytes);
        };
        h.update(&pdp.generation.to_le_bytes());
        h.update(&vars.avail_bw_bps.to_le_bytes());
        h.update(&vars.now_minutes.to_le_bytes());
        feed(&mut h, vars.domain.as_bytes());
        feed(&mut h, format!("{:?}", req.requestor).as_bytes());
        for (k, v) in req.attrs.iter() {
            feed(&mut h, k.as_bytes());
            feed(&mut h, format!("{v:?}").as_bytes());
        }
        feed(&mut h, format!("{:?}", req.assertions).as_bytes());
        feed(&mut h, format!("{:?}", req.capabilities).as_bytes());
        h.finalize()
    }

    fn arb_value() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        let leaf = prop_oneof![
            "[ab\",\\]{0,3}".prop_map(Value::Str),
            (-2i64..3).prop_map(Value::Int),
            (0u64..3).prop_map(Value::Bandwidth),
            (0u32..3).prop_map(Value::TimeOfDay),
            any::<bool>().prop_map(Value::Bool),
        ];
        leaf.prop_recursive(2, 6, 3, |inner| {
            proptest::collection::vec(inner, 0..3).prop_map(Value::List)
        })
    }

    fn arb_request() -> impl proptest::strategy::Strategy<Value = (PolicyRequest, DomainVars)> {
        use proptest::prelude::*;
        let words = || proptest::collection::vec("[ab:,]{0,3}", 0..3);
        let capability =
            ("[ab]{0,2}", words(), words()).prop_map(|(issuer, a, r)| VerifiedCapability {
                issuer,
                attributes: a,
                restrictions: r,
            });
        (
            ("[ab]{1,2}", "[ab]{1,2}"),
            proptest::collection::vec(("[abc]", arb_value()), 0..3),
            words(),
            proptest::collection::vec(capability, 0..3),
            (0u64..2, 0u32..2, "[ab]{0,2}"),
        )
            .prop_map(|((name, org), attrs, claims, caps, (bw, now, domain))| {
                let mut req = PolicyRequest::new(DistinguishedName::user(&name, &org));
                for (k, v) in attrs {
                    req.attrs.set(k, v);
                }
                req.assertions = claims
                    .into_iter()
                    .map(|claim| Assertion { claim })
                    .collect();
                req.capabilities = caps;
                let vars = DomainVars {
                    avail_bw_bps: bw,
                    now_minutes: now,
                    domain,
                };
                (req, vars)
            })
    }

    /// Requests one field boundary, count or type tag apart from one
    /// another — the pairs a sloppy feed would alias.
    #[test]
    fn cache_key_separates_near_collisions() {
        let user = |name: &str, org: &str| PolicyRequest::new(DistinguishedName::user(name, org));
        let base = || user("u", "o");
        let strs = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cap = |issuer: &str, attributes: &[&str], restrictions: &[&str]| VerifiedCapability {
            issuer: issuer.into(),
            attributes: strs(attributes),
            restrictions: strs(restrictions),
        };
        let claims = |items: &[&str]| {
            let mut req = base();
            req.assertions = strs(items)
                .into_iter()
                .map(|claim| Assertion { claim })
                .collect();
            req
        };
        let list = |items: Vec<Value>| base().with_attr("k", Value::List(items));
        let s = |v: &str| Value::Str(v.into());
        let requests = vec![
            base(),
            user("uo", ""),
            user("", "uo"),
            base().with_attr("k", Value::Int(1)),
            base().with_attr("k", Value::Bandwidth(1)),
            base().with_attr("k", Value::TimeOfDay(1)),
            base().with_attr("k", Value::Bool(true)),
            base().with_attr("k", s("1")),
            base().with_attr("k", s("ab")),
            base().with_attr("ka", s("b")),
            base().with_attr("k", s("a")).with_attr("l", s("")),
            list(vec![]),
            list(vec![s("ab"), s("c")]),
            list(vec![s("a"), s("bc")]),
            list(vec![s("abc")]),
            list(vec![Value::List(vec![Value::Int(1)])]),
            list(vec![Value::List(vec![]), Value::Int(1)]),
            list(vec![Value::Int(1), Value::List(vec![])]),
            claims(&[""]),
            claims(&["ab"]),
            claims(&["a", "b"]),
            claims(&["", "ab"]),
            base().with_capability(cap("ab", &[], &[])),
            base().with_capability(cap("a", &["b"], &[])),
            base().with_capability(cap("a", &[], &["b"])),
            base().with_capability(cap("", &["a", "b"], &[])),
            base().with_capability(cap("", &["a"], &["b"])),
            base().with_capability(cap("", &["ab"], &[])),
            base()
                .with_capability(cap("", &["a"], &[]))
                .with_capability(cap("", &["b"], &[])),
            base()
                .with_capability(cap("", &[], &[]))
                .with_capability(cap("", &["a", "b"], &[])),
            claims(&["a"]).with_capability(cap("", &[], &[])),
            base().with_capability(cap("a", &[], &[])),
        ];
        let pdp = PolicyServer::from_source("return grant", groups()).unwrap();
        for (i, a) in requests.iter().enumerate() {
            for b in &requests[..i] {
                assert_ne!(a, b, "the list holds distinct requests");
                assert_ne!(
                    debug_cache_key(&pdp, a, &vars()),
                    debug_cache_key(&pdp, b, &vars())
                );
                assert_ne!(
                    pdp.cache_key(a, &vars()),
                    pdp.cache_key(b, &vars()),
                    "{a:?} and {b:?} share a key"
                );
            }
        }
        let other_domain = DomainVars {
            domain: "domain-".into(),
            ..vars()
        };
        assert_ne!(
            pdp.cache_key(&base(), &vars()),
            pdp.cache_key(&base(), &other_domain)
        );
    }

    proptest::proptest! {
        /// The wire-encoded key keeps apart every pair of requests the
        /// `Debug`-rendering key kept apart (and, like it, gives equal
        /// requests equal keys and moves with the generation).
        #[test]
        fn cache_key_separates_what_the_debug_key_separated(
            a in arb_request(),
            other in arb_request(),
            part in 0usize..5,
        ) {
            // `b` is `a` with one part taken from another request, so
            // the pair differs in one place at most.
            let mut b = a.clone();
            match part {
                0 => b.0.requestor = other.0.requestor,
                1 => b.0.attrs = other.0.attrs,
                2 => b.0.assertions = other.0.assertions,
                3 => b.0.capabilities = other.0.capabilities,
                _ => b.1 = other.1,
            }
            let mut pdp = PolicyServer::from_source("return grant", groups()).unwrap();
            let (ka, kb) = (pdp.cache_key(&a.0, &a.1), pdp.cache_key(&b.0, &b.1));
            if debug_cache_key(&pdp, &a.0, &a.1) != debug_cache_key(&pdp, &b.0, &b.1) {
                proptest::prop_assert_ne!(ka, kb);
            } else {
                proptest::prop_assert_eq!(ka, kb);
            }
            pdp.groups_mut();
            proptest::prop_assert_ne!(ka, pdp.cache_key(&a.0, &a.1));
        }
    }

    #[test]
    fn set_policy_invalidates_cached_decisions() {
        let mut pdp = PolicyServer::from_source(r#"return grant"#, groups()).unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"));
        assert!(pdp
            .decide(&req, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        assert_eq!(pdp.cache_len(), 1);
        let g0 = pdp.generation();
        pdp.set_policy(crate::parser::parse(r#"return deny "flipped""#).unwrap());
        assert!(pdp.generation() > g0);
        assert_eq!(pdp.cache_len(), 0, "bump clears the memo");
        // The same request now gets the new policy's answer.
        assert!(!pdp
            .decide(&req, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());
    }

    #[test]
    fn groups_mut_invalidates_membership_dependent_decisions() {
        let mut pdp = PolicyServer::from_source(
            r#"if Member("atlas") { return grant } return deny"#,
            groups(),
        )
        .unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Bob", "ANL"))
            .with_assertion(Assertion::group("atlas"));
        assert!(!pdp
            .decide(&req, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        pdp.groups_mut().add_member("atlas", "Bob");
        assert!(
            pdp.decide(&req, &vars(), &NoReservations)
                .unwrap()
                .decision
                .is_grant(),
            "stale deny must not be served after membership change"
        );
    }

    #[test]
    fn oracle_dependent_decisions_are_never_cached() {
        let pdp = PolicyServer::from_source(
            r#"if HasValidCPUResv(RAR) { return grant } return deny"#,
            groups(),
        )
        .unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_attr("cpu_reservation_id", Value::Int(7));
        // Reservation state flips between identical requests; the PDP
        // must track it, so neither decision may come from the memo.
        assert!(!pdp
            .decide(&req, &vars(), &CpuOracle(vec![]))
            .unwrap()
            .decision
            .is_grant());
        assert!(pdp
            .decide(&req, &vars(), &CpuOracle(vec![7]))
            .unwrap()
            .decision
            .is_grant());
        assert_eq!(pdp.cache_stats().0, 0);
        assert_eq!(pdp.cache_len(), 0);
    }

    #[test]
    fn time_and_avail_bw_come_from_domain_vars() {
        let pdp = PolicyServer::from_source(
            r#"if Time > 8am and Time < 5pm and BW <= Avail_BW { return grant } return deny"#,
            groups(),
        )
        .unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_attr("bw", bw::mbps(50));
        let mut v = vars();
        assert!(pdp
            .decide(&req, &v, &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        v.now_minutes = 20 * 60; // evening
        assert!(!pdp
            .decide(&req, &v, &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        v.now_minutes = 10 * 60;
        v.avail_bw_bps = 1_000_000; // only 1 Mb/s left
        assert!(!pdp
            .decide(&req, &v, &NoReservations)
            .unwrap()
            .decision
            .is_grant());
    }
}
