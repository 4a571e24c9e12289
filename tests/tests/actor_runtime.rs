//! Many requests in flight at once through brokers that each run on
//! threads of their own — `TcpMesh` loopback daemons — admit exactly
//! what the deterministic reference admits.
//! (The file keeps the name of the threaded actor runtime it once
//! tested; `TcpMesh` is the concurrent fabric now.)

use integration_tests::parity::{over_tcp, Case, Config, CONCURRENT, OVERSUBSCRIBED};

fn over_threads(case: &Case) {
    assert_eq!(
        over_tcp(case, Config::PLAIN),
        case.reference(),
        "{}",
        case.name
    );
}

#[test]
fn concurrent_reservations_complete_over_threads() {
    // All 16 fit the SLA, and every one commits in every domain.
    over_threads(&CONCURRENT);
}

#[test]
fn denials_propagate_over_threads() {
    // Exactly two 5 Mb/s requests fit a 10 Mb/s SLA; the other three are
    // denied and leave nothing held.
    over_threads(&OVERSUBSCRIBED);
}
