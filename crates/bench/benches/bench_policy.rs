//! Policy engine benchmarks (EXP-A): parse and evaluation costs for the
//! paper's policy files and for synthetically growing rule sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qos_crypto::{DistinguishedName, KeyPair};
use qos_policy::attr::bw;
use qos_policy::request::{Assertion, VerifiedCapability};
use qos_policy::{
    parse, samples, DomainVars, GroupServer, NoReservations, PolicyRequest, PolicyServer, Value,
};
use std::hint::black_box;

fn vars() -> DomainVars {
    DomainVars {
        avail_bw_bps: 100_000_000,
        now_minutes: 600,
        domain: "bench".into(),
    }
}

fn figure6_request() -> PolicyRequest {
    PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
        .with_attr("bw", bw::mbps(10))
        .with_attr("cpu_reservation_id", Value::Int(111))
        .with_capability(VerifiedCapability {
            issuer: "ESnet".into(),
            attributes: vec!["ESnet:member".into()],
            restrictions: vec![],
        })
}

fn bench_parse(c: &mut Criterion) {
    c.bench_function("policy/parse-fig6a", |b| {
        b.iter(|| parse(black_box(samples::FIG6_DOMAIN_A)).unwrap())
    });
}

fn bench_eval_figures(c: &mut Criterion) {
    for (name, src) in [
        ("fig6a", samples::FIG6_DOMAIN_A),
        ("fig6b", samples::FIG6_DOMAIN_B),
        ("fig6c", samples::FIG6_DOMAIN_C),
    ] {
        let pdp = PolicyServer::from_source(src, GroupServer::new("g", KeyPair::from_seed(b"g")))
            .unwrap();
        let req = figure6_request();
        let v = vars();
        c.bench_function(&format!("policy/eval-{name}"), |b| {
            b.iter(|| pdp.decide(black_box(&req), &v, &NoReservations).unwrap())
        });
    }
}

/// The two Fig. 1 files and a `Member(..)` rule: `fig1b` and `member`
/// each ask the group server one membership question per decision.
fn bench_eval_membership(c: &mut Criterion) {
    let req = PolicyRequest::new(DistinguishedName::user("Charlie", "LBNL"))
        .with_attr("user", Value::Str("Charlie".into()))
        .with_attr("reservation_type", Value::Str("network".into()))
        .with_attr("bw", bw::mbps(10))
        .with_assertion(Assertion::group("atlas"));
    let v = vars();
    for (name, src) in [
        ("fig1a", samples::FIG1_DOMAIN_A),
        ("fig1b", samples::FIG1_DOMAIN_B),
        (
            "member",
            r#"if Member("atlas") { return grant } return deny"#,
        ),
    ] {
        let mut groups = GroupServer::new("g", KeyPair::from_seed(b"g"));
        groups.add_member("physicists", "Charlie");
        groups.add_member("atlas", "Charlie");
        let pdp = PolicyServer::from_source(src, groups).unwrap();
        c.bench_function(&format!("policy/eval-{name}"), |b| {
            b.iter(|| pdp.decide(black_box(&req), &v, &NoReservations).unwrap())
        });
    }
}

/// Synthetic policy with `n` user-specific rules before the match.
fn synthetic_policy(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!(
            "if User = nobody{i} and BW <= 1Mb/s {{ return grant }}\n"
        ));
    }
    src.push_str("if User = Alice { return grant }\nreturn deny\n");
    src
}

fn bench_eval_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy/eval-vs-rules");
    for n in [10usize, 100, 1000] {
        let pdp = PolicyServer::from_source(
            &synthetic_policy(n),
            GroupServer::new("g", KeyPair::from_seed(b"g")),
        )
        .unwrap();
        let req = figure6_request();
        let v = vars();
        g.bench_with_input(BenchmarkId::from_parameter(n), &pdp, |b, pdp| {
            b.iter(|| pdp.decide(black_box(&req), &v, &NoReservations).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_eval_figures,
    bench_eval_membership,
    bench_eval_scaling
);
criterion_main!(benches);
