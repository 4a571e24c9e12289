//! `prometheus_snapshot_of_a_reservation_is_deterministic`, alone in its
//! own test binary and therefore its own process.
//!
//! It compares cache-hit counters of two identical runs, and
//! `qos_crypto::vcache::global()` and the `trust.rs` RAR memo are
//! process-wide singletons: beside the other tests of `telemetry.rs`,
//! whichever ran concurrently moved the counts (verify 35 vs 45, rar 3
//! vs 4) about one run in five. A process of its own shares them with
//! nobody. Making every cache an owned component of the node
//! (ROADMAP item 3 step 0) is the real fix and stays a later PR.

use integration_tests::traced_reservation;
use qos_telemetry::{render_prometheus, Registry};

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
