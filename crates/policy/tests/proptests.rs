//! Property tests for the policy language and evaluator.

use proptest::prelude::*;
use qos_crypto::{DistinguishedName, KeyPair};
use qos_policy::attr::Value;
use qos_policy::{parse, DomainVars, GroupServer, NoReservations, PolicyRequest, PolicyServer};

/// Strategy for random (but syntactically valid) policy sources.
fn arb_policy_src() -> impl Strategy<Value = String> {
    let cond = prop_oneof![
        Just("User = Alice".to_string()),
        Just("BW <= 10Mb/s".to_string()),
        Just("BW > 500kb/s".to_string()),
        Just("Time > 8am and Time < 5pm".to_string()),
        Just("Group = Atlas".to_string()),
        Just("Issued_by(Capability) = ESnet".to_string()),
        Just("not (User = Bob)".to_string()),
        Just("Avail_BW >= 1Mb/s or User = root".to_string()),
    ];
    let stmt = cond.prop_flat_map(|c| {
        prop_oneof![
            Just(format!("if {c} {{ return grant }}")),
            Just(format!("if {c} {{ return deny \"nope\" }}")),
            Just(format!("if {c} {{ attach cost_offer = 3 return grant }}")),
            Just(format!(
                "if {c} {{ if BW <= 1Mb/s {{ return grant }} }} else {{ return deny }}"
            )),
        ]
    });
    proptest::collection::vec(stmt, 1..8).prop_map(|stmts| {
        let mut src = stmts.join("\n");
        src.push_str("\nreturn deny \"fallthrough\"\n");
        src
    })
}

fn arb_request() -> impl Strategy<Value = PolicyRequest> {
    (
        prop_oneof![Just("Alice"), Just("Bob"), Just("Eve")],
        0u64..200_000_000,
        proptest::bool::ANY,
    )
        .prop_map(|(user, bw, atlas)| {
            let mut req = PolicyRequest::new(DistinguishedName::user(user, "ANL"))
                .with_attr("bw", Value::Bandwidth(bw));
            if atlas {
                req = req.with_assertion(qos_policy::Assertion::group("Atlas"));
            }
            req
        })
}

proptest! {
    /// The evaluator is total over generated policies and requests: it
    /// never panics and always returns GRANT or DENY.
    #[test]
    fn evaluator_is_total(src in arb_policy_src(), req in arb_request(), hour in 0u32..24, avail in 0u64..1_000_000_000) {
        let policy = parse(&src).expect("generated policies parse");
        let pdp = PolicyServer::new(policy, GroupServer::new("g", KeyPair::from_seed(b"g")));
        let vars = DomainVars {
            avail_bw_bps: avail,
            now_minutes: hour * 60,
            domain: "prop".into(),
        };
        let out = pdp.decide(&req, &vars, &NoReservations);
        prop_assert!(out.is_ok(), "{out:?}");
    }

    /// Parsing is deterministic and stable under re-parsing its own
    /// recorded source.
    #[test]
    fn parse_is_deterministic(src in arb_policy_src()) {
        let a = parse(&src).unwrap();
        let b = parse(&src).unwrap();
        prop_assert_eq!(a.stmts, b.stmts);
    }

    /// Arbitrary byte soup either fails to parse or (if it parses)
    /// evaluates without panicking — the lexer/parser never crash.
    #[test]
    fn parser_never_panics(garbage in ".{0,200}") {
        if let Ok(policy) = parse(&garbage) {
            let pdp = PolicyServer::new(policy, GroupServer::new("g", KeyPair::from_seed(b"g")));
            let req = PolicyRequest::new(DistinguishedName::user("X", "Y"));
            let vars = DomainVars { avail_bw_bps: 0, now_minutes: 0, domain: "g".into() };
            let _ = pdp.decide(&req, &vars, &NoReservations);
        }
    }

    /// Policy equality on values is symmetric.
    #[test]
    fn policy_eq_symmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.policy_eq(&b), b.policy_eq(&a));
    }

    /// A policy reload takes effect at once: the identical request is
    /// decided the same way twice under the old policy, and after
    /// `set_policy` it gets what a brand new PDP loaded with the new
    /// policy would decide.
    #[test]
    fn set_policy_decides_like_a_fresh_server(
        src1 in arb_policy_src(),
        src2 in arb_policy_src(),
        req in arb_request(),
        hour in 0u32..24,
        avail in 0u64..1_000_000_000,
    ) {
        let vars = DomainVars {
            avail_bw_bps: avail,
            now_minutes: hour * 60,
            domain: "prop".into(),
        };
        let mut pdp = PolicyServer::new(
            parse(&src1).unwrap(),
            GroupServer::new("g", KeyPair::from_seed(b"g")),
        );
        let first = pdp.decide(&req, &vars, &NoReservations).unwrap();
        let again = pdp.decide(&req, &vars, &NoReservations).unwrap();
        prop_assert_eq!(&again, &first);

        pdp.set_policy(parse(&src2).unwrap());
        let after = pdp.decide(&req, &vars, &NoReservations).unwrap();

        let fresh = PolicyServer::new(
            parse(&src2).unwrap(),
            GroupServer::new("g", KeyPair::from_seed(b"g")),
        );
        let expected = fresh.decide(&req, &vars, &NoReservations).unwrap();
        prop_assert_eq!(&after, &expected);
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::Bandwidth),
        (0u32..1440).prop_map(Value::TimeOfDay),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z]{0,8}".prop_map(Value::Str),
    ];
    leaf.clone().prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

proptest! {
    /// `parse(pretty(p))` reproduces the AST for every generated policy.
    #[test]
    fn pretty_round_trips(src in arb_policy_src()) {
        let p1 = parse(&src).unwrap();
        let rendered = qos_policy::pretty(&p1);
        let p2 = parse(&rendered).unwrap();
        prop_assert_eq!(p1.stmts, p2.stmts);
    }
}
