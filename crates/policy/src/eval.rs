//! Policy evaluator.
//!
//! The evaluator walks a parsed [`Policy`] against a [`PolicyEnv`] — the
//! bridge to everything outside the policy text: request attributes,
//! domain state (`Avail_BW`, the current time), group-membership lookups
//! (`Accredited_Physicist(requestor)`), capability inspection
//! (`Issued_by(Capability)`), and coupled-reservation checks
//! (`HasValidCPUResv(RAR)`).
//!
//! Evaluation is **total** modulo environment errors: it terminates (the
//! AST is finite and there are no loops), never panics, and falls back to
//! a default deny when no `return` statement fires — deny-by-default is
//! the only safe posture for an admission-control PDP.

use crate::ast::{CmpOp, Decision, Expr, Policy, Stmt};
use crate::attr::{AttributeSet, Value};
use std::fmt;

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A comparison required an ordering between incomparable types.
    TypeMismatch {
        /// Operator that failed.
        op: String,
        /// Left operand type.
        left: &'static str,
        /// Right operand type.
        right: &'static str,
    },
    /// The environment knows no function of this name.
    UnknownFunction(String),
    /// A function was called with the wrong arguments.
    BadArguments {
        /// Function name.
        function: String,
        /// Problem description.
        message: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::TypeMismatch { op, left, right } => {
                write!(f, "cannot apply {op} to {left} and {right}")
            }
            EvalError::UnknownFunction(name) => write!(f, "unknown function {name}"),
            EvalError::BadArguments { function, message } => {
                write!(f, "bad arguments to {function}: {message}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// The evaluator's window onto the world.
pub trait PolicyEnv {
    /// Resolve an attribute (request parameter or domain variable).
    /// Names arrive as written in the policy; implementations should
    /// compare case-insensitively.
    fn attr(&self, name: &str) -> Option<Value>;

    /// Dispatch a predicate call such as `Accredited_Physicist(requestor)`.
    fn call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError>;
}

/// Result of evaluating a policy against a request.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Grant or deny.
    pub decision: Decision,
    /// Attributes attached by `attach` statements along the taken path —
    /// the "modified request" the paper's policy server passes back.
    pub attachments: AttributeSet,
    /// Human-readable trace of the conditions evaluated and the decision
    /// taken, for diagnostics and the experiment binaries.
    pub trace: Vec<String>,
}

/// Evaluate `policy` against `env`.
pub fn evaluate(policy: &Policy, env: &dyn PolicyEnv) -> Result<Outcome, EvalError> {
    let mut attachments = AttributeSet::new();
    let mut trace = Vec::new();
    let decision =
        eval_block(&policy.stmts, env, &mut attachments, &mut trace)?.unwrap_or_else(|| {
            trace.push("fell through: default deny".to_string());
            Decision::Deny(Some("no matching policy rule".to_string()))
        });
    trace.push(format!("decision: {decision}"));
    Ok(Outcome {
        decision,
        attachments,
        trace,
    })
}

fn eval_block(
    stmts: &[Stmt],
    env: &dyn PolicyEnv,
    attachments: &mut AttributeSet,
    trace: &mut Vec<String>,
) -> Result<Option<Decision>, EvalError> {
    for stmt in stmts {
        match stmt {
            Stmt::Return(d) => return Ok(Some(d.clone())),
            Stmt::Attach { key, value } => {
                let v = eval_expr(value, env)?;
                trace.push(format!("attach {key} = {v}"));
                attachments.set(key.clone(), v);
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let c = eval_expr(cond, env)?.truthy();
                trace.push(format!("if {cond} => {c}"));
                let branch = if c { then } else { otherwise };
                if let Some(d) = eval_block(branch, env, attachments, trace)? {
                    return Ok(Some(d));
                }
            }
        }
    }
    Ok(None)
}

fn eval_expr(expr: &Expr, env: &dyn PolicyEnv) -> Result<Value, EvalError> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        // Unquoted identifiers double as string literals when the
        // environment has no binding — the figures write `User = Alice`,
        // not `User = "Alice"`.
        Expr::Attr(name) => Ok(env.attr(name).unwrap_or_else(|| Value::Str(name.clone()))),
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                // Call arguments resolve attribute-first as well; a bare
                // `requestor` or `RAR` resolves through the environment.
                vals.push(eval_expr(a, env)?);
            }
            env.call(name, &vals)
        }
        Expr::Cmp(l, op, r) => {
            let lv = eval_expr(l, env)?;
            let rv = eval_expr(r, env)?;
            let b = compare(&lv, *op, &rv)?;
            Ok(Value::Bool(b))
        }
        Expr::And(l, r) => {
            // Short-circuit: the right side may call out to group servers.
            if !eval_expr(l, env)?.truthy() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(eval_expr(r, env)?.truthy()))
        }
        Expr::Or(l, r) => {
            if eval_expr(l, env)?.truthy() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(eval_expr(r, env)?.truthy()))
        }
        Expr::Not(e) => Ok(Value::Bool(!eval_expr(e, env)?.truthy())),
    }
}

fn compare(l: &Value, op: CmpOp, r: &Value) -> Result<bool, EvalError> {
    use std::cmp::Ordering;
    match op {
        CmpOp::Eq => Ok(l.policy_eq(r)),
        CmpOp::Ne => Ok(!l.policy_eq(r)),
        _ => {
            let ord = l
                .partial_cmp_num(r)
                .ok_or_else(|| EvalError::TypeMismatch {
                    op: op.to_string(),
                    left: l.type_name(),
                    right: r.type_name(),
                })?;
            Ok(match op {
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::bw;
    use crate::parser::parse;
    use std::collections::HashMap;

    /// Test environment: a map plus a couple of canned predicates.
    struct Env {
        attrs: HashMap<String, Value>,
        physicists: Vec<String>,
    }

    impl Env {
        fn new() -> Self {
            Self {
                attrs: HashMap::new(),
                physicists: vec!["charlie".into()],
            }
        }

        fn with(mut self, k: &str, v: Value) -> Self {
            self.attrs.insert(k.to_ascii_lowercase(), v);
            self
        }
    }

    impl PolicyEnv for Env {
        fn attr(&self, name: &str) -> Option<Value> {
            self.attrs.get(&name.to_ascii_lowercase()).cloned()
        }

        fn call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
            match name.to_ascii_lowercase().as_str() {
                "accredited_physicist" => {
                    let who = match args.first() {
                        Some(Value::Str(s)) => s.to_ascii_lowercase(),
                        _ => {
                            return Err(EvalError::BadArguments {
                                function: name.into(),
                                message: "expected a user name".into(),
                            })
                        }
                    };
                    Ok(Value::Bool(self.physicists.contains(&who)))
                }
                _ => Err(EvalError::UnknownFunction(name.to_string())),
            }
        }
    }

    #[test]
    fn figure1_domain_a_policy() {
        let p = parse(
            r#"
            if User = Alice and Reservation_Type = Network { return grant }
            if User = Bob and Reservation_Type = Network { return deny "policy: Bob denied" }
            return deny
            "#,
        )
        .unwrap();
        let grant = evaluate(
            &p,
            &Env::new()
                .with("user", Value::Str("Alice".into()))
                .with("reservation_type", Value::Str("network".into())),
        )
        .unwrap();
        assert!(grant.decision.is_grant());
        let deny = evaluate(
            &p,
            &Env::new()
                .with("user", Value::Str("Bob".into()))
                .with("reservation_type", Value::Str("network".into())),
        )
        .unwrap();
        assert_eq!(
            deny.decision,
            Decision::Deny(Some("policy: Bob denied".into()))
        );
    }

    #[test]
    fn figure1_domain_b_policy_uses_group_server() {
        let p = parse(
            r#"
            if Reservation_Type = Network {
                if Accredited_Physicist(requestor) { return grant }
                return deny "not an accredited physicist"
            }
            return deny
            "#,
        )
        .unwrap();
        let env = Env::new()
            .with("reservation_type", Value::Str("network".into()))
            .with("requestor", Value::Str("charlie".into()));
        assert!(evaluate(&p, &env).unwrap().decision.is_grant());
        let env = Env::new()
            .with("reservation_type", Value::Str("network".into()))
            .with("requestor", Value::Str("alice".into()));
        assert!(!evaluate(&p, &env).unwrap().decision.is_grant());
    }

    #[test]
    fn figure6_policy_a_business_hours() {
        let p = parse(
            r#"
            if User = Alice {
                if Time > 8am and Time < 5pm {
                    if BW <= 10Mb/s { return grant }
                    return deny "business-hours cap is 10Mb/s"
                }
                if BW <= Avail_BW { return grant }
                return deny "exceeds available bandwidth"
            }
            return deny
            "#,
        )
        .unwrap();
        let base = || {
            Env::new()
                .with("user", Value::Str("Alice".into()))
                .with("avail_bw", bw::mbps(100))
        };
        // Business hours, under the cap: grant.
        let env = base()
            .with("time", Value::TimeOfDay(10 * 60))
            .with("bw", bw::mbps(10));
        assert!(evaluate(&p, &env).unwrap().decision.is_grant());
        // Business hours, over the cap: deny.
        let env = base()
            .with("time", Value::TimeOfDay(10 * 60))
            .with("bw", bw::mbps(20));
        assert!(!evaluate(&p, &env).unwrap().decision.is_grant());
        // Night, up to available: grant.
        let env = base()
            .with("time", Value::TimeOfDay(22 * 60))
            .with("bw", bw::mbps(80));
        assert!(evaluate(&p, &env).unwrap().decision.is_grant());
        // Night, beyond available: deny.
        let env = base()
            .with("time", Value::TimeOfDay(22 * 60))
            .with("bw", bw::mbps(200));
        assert!(!evaluate(&p, &env).unwrap().decision.is_grant());
    }

    #[test]
    fn default_deny_on_fallthrough() {
        let p = parse("if User = Nobody { return grant }").unwrap();
        let out = evaluate(&p, &Env::new().with("user", Value::Str("alice".into()))).unwrap();
        assert_eq!(
            out.decision,
            Decision::Deny(Some("no matching policy rule".into()))
        );
    }

    #[test]
    fn attachments_collected_only_on_taken_path() {
        let p = parse(
            r#"
            if User = Alice {
                attach cost_offer = 42
                return grant
            }
            attach never = 1
            return deny
            "#,
        )
        .unwrap();
        let out = evaluate(&p, &Env::new().with("user", Value::Str("alice".into()))).unwrap();
        assert_eq!(out.attachments.get("cost_offer"), Some(&Value::Int(42)));
        assert_eq!(out.attachments.get("never"), None);
    }

    #[test]
    fn type_mismatch_is_an_error_not_a_panic() {
        let p = parse("if User < 5 { return grant } return deny").unwrap();
        let err = evaluate(&p, &Env::new().with("user", Value::Str("alice".into()))).unwrap_err();
        assert!(matches!(err, EvalError::TypeMismatch { .. }));
    }

    #[test]
    fn unknown_function_is_an_error() {
        let p = parse("if Frobnicate(requestor) { return grant } return deny").unwrap();
        assert!(matches!(
            evaluate(&p, &Env::new()),
            Err(EvalError::UnknownFunction(_))
        ));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // `false and Unknown()` must not call the unknown function.
        let p = parse("if User = Bob and Frobnicate(x) { return grant } return deny").unwrap();
        let out = evaluate(&p, &Env::new().with("user", Value::Str("alice".into()))).unwrap();
        assert!(!out.decision.is_grant());
    }

    #[test]
    fn trace_records_path() {
        let p = parse("if User = Alice { return grant } return deny").unwrap();
        let out = evaluate(&p, &Env::new().with("user", Value::Str("alice".into()))).unwrap();
        assert!(out.trace.iter().any(|t| t.contains("=> true")));
        assert!(out.trace.last().unwrap().contains("GRANT"));
    }
}
