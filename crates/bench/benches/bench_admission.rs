//! Admission-control benchmarks: advance-reservation table operations
//! under growing occupancy, and the full three-table broker hold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qos_broker::{BrokerCore, Interval, PathSegment, ReservationId, ReservationTable, Sla, Sls};
use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
use std::hint::black_box;

fn iv(a: u64, b: u64) -> Interval {
    Interval::new(Timestamp(a), Timestamp(b))
}

fn bench_table_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission/hold-with-occupancy");
    // Staggered starts: every standing entry is a breakpoint of its own.
    for occupancy in [10usize, 100, 1000, 4096] {
        g.bench_with_input(
            BenchmarkId::from_parameter(occupancy),
            &occupancy,
            |b, &occupancy| {
                let mut table = ReservationTable::new(u64::MAX);
                for i in 0..occupancy {
                    let start = (i as u64 % 100) * 10;
                    table
                        .hold(ReservationId(i as u64), iv(start, start + 50), 1_000)
                        .unwrap();
                }
                let mut next = occupancy as u64;
                b.iter(|| {
                    next += 1;
                    table.hold(ReservationId(next), iv(100, 200), 1).unwrap();
                    table.release(ReservationId(next)).unwrap();
                });
            },
        );
    }
    g.finish();
}

/// Every standing entry covers the same `[0, 3600)`, as the standing
/// reservations of `qosbench`'s `chain3_burst_standing4k` do.
fn bench_standing_identical(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission/hold-standing-identical");
    for standing in [0u64, 1024, 4096] {
        g.bench_with_input(
            BenchmarkId::from_parameter(standing),
            &standing,
            |b, &standing| {
                let mut table = ReservationTable::new(u64::MAX);
                for i in 0..standing {
                    table.hold(ReservationId(i), iv(0, 3600), 1_000).unwrap();
                }
                let next = ReservationId(standing);
                b.iter(|| {
                    table.hold(next, iv(0, 3600), 1).unwrap();
                    table.release(next).unwrap();
                });
            },
        );
    }
    g.finish();
}

fn bench_peak_usage(c: &mut Criterion) {
    let mut table = ReservationTable::new(u64::MAX);
    for i in 0..1000u64 {
        let start = (i % 100) * 10;
        table
            .hold(ReservationId(i), iv(start, start + 50), 1_000)
            .unwrap();
    }
    c.bench_function("admission/peak-usage-1000", |b| {
        b.iter(|| black_box(&table).peak_usage(&iv(0, 1000)))
    });
}

fn bench_broker_hold(c: &mut Criterion) {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let cert = ca.issue_identity(
        DistinguishedName::broker("peer"),
        KeyPair::from_seed(b"peer").public(),
        Validity::unbounded(),
    );
    let sla = |up: &str, down: &str| Sla {
        upstream: up.into(),
        downstream: down.into(),
        sls: Sls::strict(u64::MAX / 4),
        peer_cert: cert.clone(),
        ca_cert: cert.clone(),
        price_per_mbps_sec: 1,
    };
    let segment = PathSegment {
        ingress_peer: Some("domain-a".into()),
        egress_peer: Some("domain-c".into()),
    };
    // The ledger grows by one reservation per iteration on top of what
    // it was pre-loaded with.
    for (name, preloaded) in [
        ("admission/broker-hold-commit", 0u64),
        ("admission/broker-hold-commit-standing4096", 4096),
    ] {
        let broker = BrokerCore::new("domain-b", u64::MAX / 2);
        broker.add_ingress_sla(sla("domain-a", "domain-b"));
        broker.add_egress_sla(sla("domain-b", "domain-c"));
        let mut next = 0u64;
        let mut admit = || {
            next += 1;
            broker
                .hold(ReservationId(next), iv(0, 3600), 1_000, segment.clone())
                .unwrap();
            broker.commit(ReservationId(next)).unwrap();
        };
        for _ in 0..preloaded {
            admit();
        }
        c.bench_function(name, |b| b.iter(&mut admit));
    }
}

criterion_group!(
    benches,
    bench_table_ops,
    bench_standing_identical,
    bench_peak_usage,
    bench_broker_hold
);
criterion_main!(benches);
