//! The broker ledger's observable behaviour, pinned (DESIGN.md §D16,
//! §D13). One script runs on a transit `BrokerCore` (domain-b: 60 Mb/s
//! local, 40 Mb/s in from domain-a, 30 Mb/s out to domain-c): a written
//! part that reaches every refusal and every life-cycle rule, then a
//! seeded random part. After every operation it reads `available_bw_at`
//! and `admitted_ingress_aggregate` at fixed instants. The written part
//! is pinned line by line; the seeded part, the WAL the script wrote,
//! the exported snapshot and `ledger_digest` are pinned by SHA-256.
//! The WAL is then replayed through `restore_record`, and the snapshot
//! through `restore_snapshot`, into fresh brokers that must reach the
//! same digest.

use qos_broker::{BrokerCore, Interval, Invoice, PathSegment, ReservationId, Sla, Sls};
use qos_crypto::sha256::{to_hex, Sha256};
use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
use qos_storage::{LedgerRecord, LedgerSnapshot, LedgerStore, Recovered, StoreStats};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const MBPS: u64 = 1_000_000;

/// A store that keeps every record it is given, in order.
#[derive(Default)]
struct Journal(Mutex<Vec<LedgerRecord>>);

impl Journal {
    fn records(&self) -> Vec<LedgerRecord> {
        self.0.lock().unwrap().clone()
    }
}

impl LedgerStore for Journal {
    fn kind(&self) -> &'static str {
        "journal"
    }
    fn append(&self, record: &LedgerRecord) -> u64 {
        let mut records = self.0.lock().unwrap();
        records.push(record.clone());
        records.len() as u64 - 1
    }
    fn flush(&self) {}
    fn next_seq(&self) -> u64 {
        self.0.lock().unwrap().len() as u64
    }
    fn write_snapshot(&self, _: &LedgerSnapshot) {}
    fn take_recovered(&self) -> Recovered {
        Recovered::default()
    }
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

fn sla(up: &str, down: &str, rate: u64) -> Sla {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("RootCA"),
        KeyPair::from_seed(b"ca"),
    );
    let root = ca.self_signed();
    let peer = ca.issue_identity(
        DistinguishedName::broker(up),
        KeyPair::from_seed(up.as_bytes()).public(),
        Validity::unbounded(),
    );
    Sla {
        upstream: up.into(),
        downstream: down.into(),
        sls: Sls::strict(rate),
        peer_cert: peer,
        ca_cert: root,
        price_per_mbps_sec: 1,
    }
}

fn broker() -> BrokerCore {
    let b = BrokerCore::new("domain-b", 60 * MBPS);
    b.add_ingress_sla(sla("domain-a", "domain-b", 40 * MBPS));
    b.add_egress_sla(sla("domain-b", "domain-c", 30 * MBPS));
    b
}

/// The segments the script uses, by letter: transit, from the source,
/// into the destination, local only, and one with an unknown peer on
/// each side.
fn segment(name: char) -> PathSegment {
    let (ingress, egress) = match name {
        'T' => (Some("domain-a"), Some("domain-c")),
        'S' => (None, Some("domain-c")),
        'D' => (Some("domain-a"), None),
        'L' => (None, None),
        'X' => (Some("domain-x"), None),
        'Y' => (Some("domain-a"), Some("domain-y")),
        _ => unreachable!(),
    };
    PathSegment {
        ingress_peer: ingress.map(Into::into),
        egress_peer: egress.map(Into::into),
    }
}

const INSTANTS: [u64; 7] = [0, 49, 50, 99, 100, 149, 150];

/// What every operation is followed by: local headroom and the ingress
/// aggregate at each of `INSTANTS`.
fn reads(b: &BrokerCore) -> String {
    let at = |f: &dyn Fn(Timestamp) -> u64| {
        let v: Vec<_> = INSTANTS.iter().map(|t| f(Timestamp(*t)) / MBPS).collect();
        format!("{v:?}")
    };
    format!(
        "avail {} agg {}",
        at(&|t| b.available_bw_at(t)),
        at(&|t| b.admitted_ingress_aggregate("domain-a", t)),
    )
}

enum Op {
    Hold(u64, char, u64, u64, u64),
    Commit(u64),
    Release(u64),
    State(u64),
    Info(u64),
}

fn run(b: &BrokerCore, op: &Op) -> String {
    let id = ReservationId;
    match *op {
        Op::Hold(n, seg, start, end, rate) => {
            let iv = Interval::new(Timestamp(start), Timestamp(end));
            let r = b.hold(id(n), iv, rate * MBPS, segment(seg));
            format!("hold {n} {seg} {iv} {rate}M -> {r:?} | {}", reads(b))
        }
        Op::Commit(n) => format!("commit {n} -> {:?} | {}", b.commit(id(n)), reads(b)),
        Op::Release(n) => format!("release {n} -> {:?} | {}", b.release(id(n)), reads(b)),
        Op::State(n) => format!("state {n} -> {:?}", b.state(id(n))),
        Op::Info(n) => format!("info {n} -> {:?}", b.info(id(n))),
    }
}

/// Every refusal and every life-cycle rule, in order.
fn written() -> Vec<Op> {
    use Op::*;
    vec![
        Hold(1, 'T', 0, 100, 20),
        Hold(2, 'D', 0, 100, 25), // refused by the ingress SLA
        State(2),
        Hold(3, 'T', 0, 100, 15), // refused by the egress SLA
        State(3), // None: a refusal leaves no record (D39; Released before, a rolled-back leg's)
        Hold(4, 'L', 0, 100, 50), // refused by local capacity
        State(4),
        Hold(6, 'L', 0, 100, 30),
        Hold(7, 'D', 0, 100, 15), // ingress passes, local refuses
        State(7),
        Hold(8, 'X', 0, 100, 1), // no SLA with the ingress peer
        Hold(9, 'Y', 0, 100, 1), // no SLA with the egress peer, after two legs pass
        State(9),                // None, as for id 3
        Hold(10, 'T', 5, 5, 1),  // empty interval
        Hold(10, 'L', 0, 10, 0), // zero rate
        Hold(1, 'T', 0, 100, 1), // duplicate
        Commit(1),
        Commit(1), // idempotent
        State(1),
        Release(6),
        Release(6), // releasing a tombstone
        Commit(6),  // commit after release
        State(6),
        Commit(1234),
        Release(1234),
        Commit(3),                 // a refused hold left nothing to commit
        Hold(6, 'L', 50, 150, 35), // re-hold of a released id
        State(6),
        Info(6),
        Release(1),
        Commit(1),
        Hold(1, 'T', 0, 100, 35), // refused re-hold over a tombstone
        State(1),
        Info(1),
        Hold(11, 'S', 100, 150, 30),
        Hold(12, 'D', 100, 200, 10),
        Commit(12),
        Info(12),
    ]
}

const WRITTEN: &str = "\
hold 1 T [t+0s, t+100s) 20M -> Ok(()) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
hold 2 D [t+0s, t+100s) 25M -> Err(Sla { peer: \"domain-a\", source: InsufficientCapacity { requested_bps: 25000000, available_bps: 20000000 } }) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
state 2 -> None
hold 3 T [t+0s, t+100s) 15M -> Err(Sla { peer: \"domain-c\", source: InsufficientCapacity { requested_bps: 15000000, available_bps: 10000000 } }) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
state 3 -> None
hold 4 L [t+0s, t+100s) 50M -> Err(Local(InsufficientCapacity { requested_bps: 50000000, available_bps: 40000000 })) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
state 4 -> None
hold 6 L [t+0s, t+100s) 30M -> Ok(()) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
hold 7 D [t+0s, t+100s) 15M -> Err(Local(InsufficientCapacity { requested_bps: 15000000, available_bps: 10000000 })) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
state 7 -> None
hold 8 X [t+0s, t+100s) 1M -> Err(NoSla { peer: \"domain-x\" }) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
hold 9 Y [t+0s, t+100s) 1M -> Err(NoSla { peer: \"domain-y\" }) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
state 9 -> None
hold 10 T [t+5s, t+5s) 1M -> Err(Sla { peer: \"domain-a\", source: EmptyRequest }) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
hold 10 L [t+0s, t+10s) 0M -> Err(Local(EmptyRequest)) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
hold 1 T [t+0s, t+100s) 1M -> Err(Sla { peer: \"domain-a\", source: DuplicateReservation(ReservationId(1)) }) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
commit 1 -> Ok(()) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
commit 1 -> Ok(()) | avail [10, 10, 10, 10, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
state 1 -> Some(Committed)
release 6 -> Ok(()) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
release 6 -> Ok(()) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
commit 6 -> Err(Local(UnknownReservation(ReservationId(6)))) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
state 6 -> Some(Released)
commit 1234 -> Err(Unknown(ReservationId(1234))) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
release 1234 -> Err(Unknown(ReservationId(1234))) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
commit 3 -> Err(Unknown(ReservationId(3))) | avail [40, 40, 40, 40, 60, 60, 60] agg [20, 20, 20, 20, 0, 0, 0]
hold 6 L [t+50s, t+150s) 35M -> Ok(()) | avail [40, 40, 5, 5, 25, 25, 60] agg [20, 20, 20, 20, 0, 0, 0]
state 6 -> Some(Held)
info 6 -> Some((Interval { start: Timestamp(50), end: Timestamp(150) }, 35000000, PathSegment { ingress_peer: None, egress_peer: None }))
release 1 -> Ok(()) | avail [60, 60, 25, 25, 25, 25, 60] agg [0, 0, 0, 0, 0, 0, 0]
commit 1 -> Err(Sla { peer: \"domain-a\", source: UnknownReservation(ReservationId(1)) }) | avail [60, 60, 25, 25, 25, 25, 60] agg [0, 0, 0, 0, 0, 0, 0]
hold 1 T [t+0s, t+100s) 35M -> Err(Local(InsufficientCapacity { requested_bps: 35000000, available_bps: 25000000 })) | avail [60, 60, 25, 25, 25, 25, 60] agg [0, 0, 0, 0, 0, 0, 0]
state 1 -> Some(Released)
info 1 -> Some((Interval { start: Timestamp(0), end: Timestamp(100) }, 20000000, PathSegment { ingress_peer: Some(\"domain-a\"), egress_peer: Some(\"domain-c\") }))
hold 11 S [t+100s, t+150s) 30M -> Err(Local(InsufficientCapacity { requested_bps: 30000000, available_bps: 25000000 })) | avail [60, 60, 25, 25, 25, 25, 60] agg [0, 0, 0, 0, 0, 0, 0]
hold 12 D [t+100s, t+200s) 10M -> Ok(()) | avail [60, 60, 25, 25, 15, 15, 50] agg [0, 0, 0, 0, 10, 10, 10]
commit 12 -> Ok(()) | avail [60, 60, 25, 25, 15, 15, 50] agg [0, 0, 0, 0, 10, 10, 10]
info 12 -> Some((Interval { start: Timestamp(100), end: Timestamp(200) }, 10000000, PathSegment { ingress_peer: Some(\"domain-a\"), egress_peer: None }))
";

/// Random holds, commits and releases over ids 100..140. An id keeps
/// one segment, as a request keeps its path.
fn seeded(seed: u64, n: usize) -> Vec<Op> {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let id = 100 + next() % 40;
            match next() % 5 {
                0..=2 => {
                    let seg = ['T', 'S', 'D', 'L', 'X', 'Y'][(id % 6) as usize];
                    let start = next() % 20 * 10;
                    let len = next() % 12 * 10;
                    Op::Hold(id, seg, start, start + len, next() % 16)
                }
                3 => Op::Commit(id),
                _ => Op::Release(id),
            }
        })
        .collect()
}

fn digest(bytes: impl IntoIterator<Item = Vec<u8>>) -> String {
    let mut h = Sha256::new();
    for b in bytes {
        h.update(&b);
    }
    to_hex(&h.finalize())
}

#[test]
fn the_ledger_reads_as_pinned() {
    let live = broker();
    let journal = Arc::new(Journal::default());
    live.set_store(journal.clone());

    let lines: Vec<String> = written().iter().map(|op| run(&live, op)).collect();
    let want: Vec<&str> = WRITTEN.lines().collect();
    for (i, (got, want)) in lines.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "written line {}", i + 1);
    }
    assert_eq!(lines.len(), want.len(), "{}", lines.join("\n"));

    live.record_invoice(Invoice {
        payer: "domain-a".into(),
        payee: "domain-b".into(),
        reservation: 12,
        amount: 70,
    });

    let mut transcript = String::new();
    for op in seeded(46, 400) {
        writeln!(transcript, "{}", run(&live, &op)).unwrap();
    }
    assert_eq!(
        digest([transcript.clone().into_bytes()]),
        "eeaa5d42bfb980e4a8598193d4c3658d7d01553b6eebe7d004ecb4fabb5bc7bd",
        "seeded transcript:\n{transcript}"
    );

    let records = journal.records();
    assert_eq!(records.len(), 316);
    assert_eq!(
        digest(records.iter().map(qos_wire::to_bytes)),
        "a87ccfec20e6e32f0977dbced1fb7a59114bdfc1ac907257d3a92fe92ab27717"
    );

    let snapshot = live.export_snapshot(records.len() as u64);
    let snapshot_bytes = qos_wire::to_bytes(&snapshot);
    assert_eq!(snapshot.reservations.len(), 20);
    assert_eq!(snapshot_bytes.len(), 977);
    assert_eq!(
        digest([snapshot_bytes]),
        "a3634a8e27671c568801d5467ef4e595c483d98870642591878f72e4ed4cacae"
    );
    let ledger_digest = to_hex(&live.ledger_digest());
    assert_eq!(
        ledger_digest,
        "3384b7e87e0b3389e4c9abf36ec49a19ed74cc65296d30956eb1a8dbfef8fcb1"
    );

    // The script's own WAL, replayed; then once more over itself.
    let replayed = broker();
    for record in &records {
        replayed.restore_record(record);
    }
    assert_eq!(to_hex(&replayed.ledger_digest()), ledger_digest);
    for record in &records {
        replayed.restore_record(record);
    }
    assert_eq!(to_hex(&replayed.ledger_digest()), ledger_digest);
    assert_eq!(reads(&replayed), reads(&live));

    let restored = broker();
    restored.restore_snapshot(&snapshot);
    assert_eq!(restored.export_snapshot(snapshot.seq), snapshot);
    assert_eq!(to_hex(&restored.ledger_digest()), ledger_digest);
    assert_eq!(reads(&restored), reads(&live));
}
