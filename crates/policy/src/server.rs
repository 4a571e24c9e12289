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
use crate::parser::{parse, ParseError};
use crate::request::PolicyRequest;
use crate::Policy;
use qos_telemetry::{Counter, Telemetry};

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
    grants: Counter,
    denies: Counter,
    errors: Counter,
    live: bool,
}

/// A policy decision point for one domain.
pub struct PolicyServer {
    policy: Policy,
    groups: GroupServer,
    instruments: PdpInstruments,
}

impl PolicyServer {
    /// Build a PDP from policy source text and a group server.
    pub fn from_source(policy_src: &str, groups: GroupServer) -> Result<Self, ParseError> {
        Ok(Self::new(parse(policy_src)?, groups))
    }

    /// Build a PDP from an already-parsed policy.
    pub fn new(policy: Policy, groups: GroupServer) -> Self {
        Self {
            policy,
            groups,
            instruments: PdpInstruments::default(),
        }
    }

    /// Route this PDP's decision counters
    /// (`pdp_decisions_total{decision=grant|deny|error}`) into `telemetry`
    /// under `domain`. The PDP reads no clock: its broker times each
    /// `decide` call (`bb_policy_decide_ns`) on its driver's clock.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry, domain: &str) {
        self.instruments = PdpInstruments {
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
    }

    /// The group server this PDP consults.
    pub fn groups(&self) -> &GroupServer {
        &self.groups
    }

    /// Mutable access to the group server (membership administration).
    pub fn groups_mut(&mut self) -> &mut GroupServer {
        &mut self.groups
    }

    /// The policy text in force.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Replace the policy; the next [`PolicyServer::decide`] answers
    /// under it.
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
    }

    /// Evaluate the local policy against `req`: every call walks the
    /// policy against the request, the domain variables and the oracle
    /// as they are now.
    pub fn decide(
        &self,
        req: &PolicyRequest,
        vars: &DomainVars,
        oracle: &dyn ReservationOracle,
    ) -> Result<PolicyDecision, EvalError> {
        let env = Env {
            req,
            vars,
            oracle,
            groups: &self.groups,
        };
        let result = evaluate(&self.policy, &env).map(PolicyDecision::from);
        if self.instruments.live {
            match &result {
                Ok(d) if d.decision.is_grant() => self.instruments.grants.inc(),
                Ok(_) => self.instruments.denies.inc(),
                Err(_) => self.instruments.errors.inc(),
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
}

impl Env<'_> {
    fn requestor_name(&self) -> String {
        self.req
            .requestor
            .common_name()
            .unwrap_or_default()
            .to_string()
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
                Ok(Value::Bool(self.groups.is_member("physicists", &who)))
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
                Ok(Value::Bool(claimed && self.groups.is_member(&group, &user)))
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
    fn set_policy_takes_effect_on_the_next_decision() {
        let mut pdp = PolicyServer::from_source(r#"return grant"#, groups()).unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"));
        assert!(pdp
            .decide(&req, &vars(), &NoReservations)
            .unwrap()
            .decision
            .is_grant());
        pdp.set_policy(crate::parser::parse(r#"return deny "flipped""#).unwrap());
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
    fn oracle_dependent_decisions_follow_the_oracle() {
        let pdp = PolicyServer::from_source(
            r#"if HasValidCPUResv(RAR) { return grant } return deny"#,
            groups(),
        )
        .unwrap();
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_attr("cpu_reservation_id", Value::Int(7));
        // Reservation state flips between identical requests; the PDP
        // must track it.
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
