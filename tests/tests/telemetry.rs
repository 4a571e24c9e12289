//! Observability integration: the metrics registry and per-RAR trace
//! spans observed through full end-to-end reservations, plus the
//! zero-cost guarantees the instrumentation makes when disabled.

use integration_tests::{build_chain, traced_reservation, ChainOptions, MBPS};
use qos_core::node::Completion;
use qos_crypto::Timestamp;
use qos_net::SimDuration;
use qos_telemetry::metrics::{bucket_bound, bucket_index};
use qos_telemetry::{render_prometheus, Registry, SpanKind, Telemetry};

#[test]
fn histogram_bucket_boundaries() {
    // Log-linear buckets: 0..8 exact, then 8 linear sub-buckets per
    // power-of-two range, so a bucket bound overstates any value it
    // covers by at most 12.5%.
    for v in 0..8u64 {
        assert_eq!(bucket_index(v), v as usize);
        assert_eq!(bucket_bound(v as usize), v);
    }
    for k in 3..63 {
        let v = 1u64 << k;
        let i = bucket_index(v);
        assert!(v <= bucket_bound(i), "2^{k} within its bound");
        assert_eq!(bucket_index(bucket_bound(i)), i, "2^{k} bound round-trip");
        let bound = bucket_bound(i);
        assert!((bound - v) as f64 <= v as f64 * 0.125, "2^{k} error bound");
    }
    assert_eq!(
        bucket_bound(bucket_index(u64::MAX)),
        u64::MAX,
        "top bucket is unbounded"
    );
}

#[test]
fn histogram_percentiles_are_bucket_upper_bounds() {
    let reg = Registry::new();
    let h = reg.histogram("t_ns", "t", &[]);
    for v in 1..=1000u64 {
        h.observe(v);
    }
    assert_eq!(h.count(), 1000);
    assert_eq!(h.sum(), 500_500);
    // Rank 500 is value 500 → bucket 480..=511; rank 950 → 896..=959;
    // rank 990 → 960..=1023. The percentiles stay distinct — under the
    // old power-of-two buckets p50 collapsed to 512 and p95/p99/max all
    // collapsed to 1024.
    assert_eq!(h.p50(), 511);
    assert_eq!(h.p95(), 959);
    assert_eq!(h.p99(), 1023);
    assert_eq!(h.quantile(1.0), 1023);
    assert!(h.p95() < h.p99(), "p95 and p99 distinguishable");
}

#[test]
fn concurrent_counter_increments_are_lossless() {
    let reg = Registry::new();
    let c = reg.counter("hits_total", "hits", &[("domain", "x")]);
    let h = reg.histogram("obs_ns", "obs", &[]);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for i in 0..10_000u64 {
                    c.inc();
                    h.observe(i % 1024);
                }
            });
        }
    });
    assert_eq!(c.get(), 80_000);
    assert_eq!(h.count(), 80_000);
    assert_eq!(
        reg.counter_value("hits_total", &[("domain", "x")]),
        Some(80_000)
    );
}

#[test]
fn disabled_telemetry_is_inert_and_allocation_free() {
    let t = Telemetry::disabled();
    assert!(!t.is_enabled());
    let c = t.counter("x_total", "x", &[]);
    let g = t.gauge("g", "g", &[]);
    let h = t.histogram("h_ns", "h", &[]);
    c.inc();
    c.add(100);
    g.set(7);
    g.record_max(9);
    h.observe(42);
    assert!(!c.is_live());
    assert_eq!(c.get(), 0);
    assert_eq!(g.get(), 0);
    assert_eq!(h.count(), 0);
    assert_eq!(h.p99(), 0);

    // A full reservation with no registry and no tracer records nothing
    // — the default configuration stays on the fast path.
    let mut s = build_chain(ChainOptions::default());
    let domains = s.domains.clone();
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    mesh.submit_in(SimDuration::ZERO, &domains[0], rar, cert);
    mesh.run_until_idle();
    assert!(matches!(
        mesh.reservation_outcome(&domains[0], rar_id),
        Some((_, Completion::Reservation { result: Ok(_), .. }))
    ));
    for d in &domains {
        assert!(!mesh.node(d).tracer().is_enabled());
        assert!(mesh.node(d).tracer().is_empty());
    }
}

#[test]
fn registry_and_node_counters_never_diverge() {
    let (registry, mesh, _rar_id, _trace, domains) = traced_reservation();
    for d in &domains {
        let n = mesh.node(d).counters();
        let labels = [("domain", d.as_str())];
        assert_eq!(
            registry.counter_value("bb_messages_received_total", &labels),
            Some(n.rx),
            "{d}: rx"
        );
        assert_eq!(
            registry.counter_value("bb_messages_sent_total", &labels),
            Some(n.tx),
            "{d}: tx"
        );
        assert_eq!(
            registry.counter_value("bb_signatures_created_total", &labels),
            Some(n.signed),
            "{d}: signed"
        );
        assert_eq!(
            registry.counter_value("bb_signatures_verified_total", &labels),
            Some(n.verified),
            "{d}: verified"
        );
    }
}

#[test]
fn prometheus_snapshot_of_a_reservation_is_deterministic() {
    let (r1, ..) = traced_reservation();
    let (r2, ..) = traced_reservation();
    // Same scenario → byte-identical exposition for everything except
    // the `*_ns` timing histograms (those observe real durations).
    let stable = |r: &Registry| {
        render_prometheus(r)
            .lines()
            .filter(|l| !l.contains("_ns"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(stable(&r1), stable(&r2));
    let text = render_prometheus(&r1);
    for family in [
        "bb_messages_received_total",
        "bb_signatures_verified_total",
        "bb_envelope_verify_ns",
        "bb_policy_decide_ns",
        "bb_admission_total",
        "pdp_decisions_total",
        "broker_holds_total",
        "broker_commits_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "family {family} missing from exposition"
        );
    }
    assert!(text.contains("bb_admission_total{decision=\"held\",domain=\"domain-a\"} 1"));
    assert!(text.contains("pdp_decisions_total{decision=\"grant\",domain=\"domain-c\"} 1"));
}

#[test]
fn span_chain_matches_verified_signer_path() {
    let (_registry, mesh, rar_id, trace, domains) = traced_reservation();

    // Hop order observed from spans: each broker's first contact with
    // the request (submit at the source, recv_request elsewhere).
    let mut hops: Vec<(u64, String)> = Vec::new();
    for d in &domains {
        for sp in mesh.node(d).tracer().for_trace(trace) {
            if matches!(sp.kind, SpanKind::Submit | SpanKind::RecvRequest) {
                hops.push((sp.start_ns, sp.domain.clone()));
            }
        }
    }
    hops.sort();
    let hop_seq: Vec<String> = hops.into_iter().map(|(_, d)| d).collect();
    assert_eq!(hop_seq, domains, "request visited every domain in order");

    // Ground truth from the verified envelope nest at the destination:
    // user first, then each wrapping broker; the destination verifies
    // rather than signs, so it closes the chain.
    let dest = domains.last().unwrap();
    let path = mesh.node(dest).verified_signer_path(rar_id).unwrap();
    assert_eq!(path.len(), hop_seq.len());
    assert_eq!(path[0].common_name(), Some("Alice"));
    for (i, dn) in path.iter().enumerate().skip(1) {
        assert_eq!(dn.org_unit(), Some(hop_seq[i - 1].as_str()));
    }
}
