//! Durable-ledger replay equivalence (DESIGN.md §D13): a broker
//! recovered from a mid-run snapshot plus the WAL tail must reach
//! exactly the state of (a) the live broker that wrote the ledger and
//! (b) a broker recovered by replaying the full WAL with no snapshot.
//! Equality is judged by `ledger_digest()` — the SHA-256 over the
//! canonical reservation + invoice export that the kill -9 recovery
//! gate compares across processes.

use qos_broker::{BrokerCore, Interval, Invoice, PathSegment, ReservationId, Sla, Sls};
use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
use qos_storage::{FileStore, FileStoreOptions, LedgerStore, Recovered, SharedStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MBPS: u64 = 1_000_000;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "qos-ledger-replay-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
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

/// A transit broker sized so the deterministic workload produces a mix
/// of approvals and denials (denials journal `Deny` records, which must
/// replay as no-ops).
fn broker() -> BrokerCore {
    let b = BrokerCore::new("domain-b", 300 * MBPS);
    b.add_ingress_sla(sla("domain-a", "domain-b", 200 * MBPS));
    b.add_egress_sla(sla("domain-b", "domain-c", 150 * MBPS));
    b
}

fn segment() -> PathSegment {
    PathSegment {
        ingress_peer: Some("domain-a".into()),
        egress_peer: Some("domain-c".into()),
    }
}

/// Deterministic workload slice: overlapping holds at varied rates, a
/// sprinkling of commits, releases, and invoices.
fn workload(core: &BrokerCore, ids: std::ops::Range<u64>) {
    for i in ids {
        let id = ReservationId(i);
        let iv = Interval::new(Timestamp(i % 7), Timestamp(50 + i % 13));
        let rate = (1 + i % 40) * MBPS;
        if core.hold(id, iv, rate, segment()).is_ok() {
            if i % 2 == 0 {
                let _ = core.commit(id);
            }
            if i % 3 == 0 {
                let _ = core.release(id);
            }
            if i % 5 == 0 {
                core.record_invoice(Invoice {
                    payer: "domain-a".into(),
                    payee: "domain-b".into(),
                    reservation: i,
                    amount: 10 + i,
                });
            }
        }
    }
}

fn opts() -> FileStoreOptions {
    FileStoreOptions {
        flush_interval: Duration::from_micros(200),
        // Small segments so the run spans several files and the
        // snapshot actually prunes some.
        segment_bytes: 512,
        ..FileStoreOptions::default()
    }
}

/// Rebuild a broker from recovered ledger state, the way `BbNode::
/// recover_from` does it: snapshot first, then every record above the
/// snapshot's sequence.
fn replayed(recovered: &Recovered) -> BrokerCore {
    let core = broker();
    let mut skip = 0;
    if let Some(snapshot) = &recovered.snapshot {
        skip = snapshot.seq;
        core.restore_snapshot(snapshot);
    }
    for (seq, record) in &recovered.records {
        if *seq > skip {
            core.restore_record(record);
        }
    }
    core
}

#[test]
fn snapshot_plus_tail_equals_full_replay() {
    let dir_snap = tempdir("snap");
    let dir_full = tempdir("full");

    // Run 1: journal the workload, cut a snapshot mid-way, continue.
    let live_digest = {
        let core = broker();
        let store: SharedStore = Arc::new(FileStore::open(&dir_snap, opts()).unwrap());
        core.set_store(Arc::clone(&store));
        workload(&core, 0..30);
        let snap = core.export_snapshot(store.next_seq() - 1);
        store.write_snapshot(&snap);
        workload(&core, 30..60);
        core.ledger_digest()
    };

    // Run 2: the identical workload, never snapshotting.
    let full_digest = {
        let core = broker();
        let store: SharedStore = Arc::new(FileStore::open(&dir_full, opts()).unwrap());
        core.set_store(Arc::clone(&store));
        workload(&core, 0..60);
        core.ledger_digest()
    };
    assert_eq!(
        live_digest, full_digest,
        "identical workloads must agree before any recovery"
    );

    // Recover run 1: snapshot + tail. The snapshot must have pruned the
    // covered segments, so no surviving record is at or below its seq.
    let store = FileStore::open(&dir_snap, opts()).unwrap();
    let rec_snap = store.take_recovered();
    drop(store);
    let snap_seq = rec_snap
        .snapshot
        .as_ref()
        .expect("run 1 wrote a snapshot")
        .seq;
    assert!(snap_seq > 0);
    assert!(
        rec_snap.records.iter().all(|(seq, _)| *seq > snap_seq),
        "snapshot must prune WAL segments it covers"
    );

    // Recover run 2: full WAL replay, no snapshot.
    let store = FileStore::open(&dir_full, opts()).unwrap();
    let rec_full = store.take_recovered();
    drop(store);
    assert!(rec_full.snapshot.is_none());
    assert!(!rec_full.records.is_empty());

    assert_eq!(
        replayed(&rec_snap).ledger_digest(),
        live_digest,
        "snapshot + tail replay must reproduce the live state"
    );
    assert_eq!(
        replayed(&rec_full).ledger_digest(),
        live_digest,
        "full-WAL replay must reproduce the live state"
    );

    let _ = std::fs::remove_dir_all(&dir_snap);
    let _ = std::fs::remove_dir_all(&dir_full);
}

/// Replay is idempotent, invoices included: billing is append-only, so
/// `restore_invoice` must recognise one it has already recorded (through
/// the ledger's per-reservation index, not a scan of every invoice —
/// recovery stays linear in the WAL).
#[test]
fn replaying_the_wal_twice_changes_nothing() {
    let dir = tempdir("twice");
    let (live_invoices, live_digest) = {
        let core = broker();
        let store: SharedStore = Arc::new(FileStore::open(&dir, opts()).unwrap());
        core.set_store(Arc::clone(&store));
        workload(&core, 0..60);
        (core.invoices(), core.ledger_digest())
    };
    assert!(!live_invoices.is_empty());

    let store = FileStore::open(&dir, opts()).unwrap();
    let recovered = store.take_recovered();
    drop(store);

    let core = replayed(&recovered);
    assert_eq!(core.invoices(), live_invoices);
    for (_, record) in &recovered.records {
        core.restore_record(record);
    }
    assert_eq!(core.invoices(), live_invoices, "no invoice recorded twice");
    assert_eq!(core.ledger_digest(), live_digest);

    let _ = std::fs::remove_dir_all(&dir);
}
