//! Property tests for the segmented WAL (DESIGN.md §D13).
//!
//! Three invariants, each under arbitrary record mixes and segment
//! sizes (so the same corpus exercises single- and multi-segment
//! layouts):
//!
//! 1. **Roundtrip** — a cleanly flushed WAL recovers every record,
//!    in sequence order, bit-identical.
//! 2. **Truncation** — cutting any WAL file at any byte offset (the
//!    torn-write model: a crash mid-`write(2)`) never panics recovery
//!    and never surfaces a record that was not appended; survivors are
//!    a prefix of the original corpus, seqs `1..=k` for some `k`.
//! 3. **Corruption** — flipping any single bit anywhere in the file
//!    set never panics recovery and never surfaces a corrupt record
//!    (CRC32 detects all single-bit errors by construction).

use proptest::prelude::*;
use qos_storage::{FileStore, FileStoreOptions, LedgerRecord, LedgerStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory without `Date.now`-style entropy: pid +
/// a process-local counter.
fn tempdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "qos-storage-prop-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(segment_bytes: u64) -> FileStoreOptions {
    FileStoreOptions {
        flush_interval: Duration::from_micros(100),
        segment_bytes,
    }
}

fn record_strategy() -> impl Strategy<Value = LedgerRecord> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::option::of("[a-z]{0,6}"),
            proptest::option::of("[a-z]{0,6}"),
        )
            .prop_map(|(id, start, end, rate_bps, ingress, egress)| {
                LedgerRecord::Hold {
                    id,
                    start,
                    end,
                    rate_bps,
                    ingress,
                    egress,
                }
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(id, rate_bps)| LedgerRecord::Deny { id, rate_bps }),
        any::<u64>().prop_map(|id| LedgerRecord::Commit { id }),
        any::<u64>().prop_map(|id| LedgerRecord::Release { id }),
        ("[a-z]{1,6}", "[a-z]{1,6}", any::<u64>(), any::<u64>()).prop_map(
            |(payer, payee, reservation, amount)| LedgerRecord::Invoice {
                payer,
                payee,
                reservation,
                amount,
            }
        ),
        proptest::collection::vec(any::<u8>(), 0..48)
            .prop_map(|key| LedgerRecord::TicketKey { key }),
    ]
}

/// Append the corpus through a short-interval FileStore and drain it to
/// disk (dropping the store joins the flusher after a final drain).
fn write_all(dir: &Path, records: &[LedgerRecord], segment_bytes: u64) {
    let store = FileStore::open(dir, opts(segment_bytes)).expect("open for write");
    for r in records {
        store.append(r);
    }
    store.flush();
}

/// Every `wal-*.log` under `dir`, in index order.
fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read data dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    files.sort();
    files
}

/// Shared postcondition for the damage tests: recovery produced a
/// prefix of the original corpus — seqs `1..=k`, every survivor
/// bit-identical to the record that was appended at its seq.
fn assert_faithful_prefix(
    recovered: &[(u64, LedgerRecord)],
    originals: &[LedgerRecord],
) -> Result<(), TestCaseError> {
    let mut last = 0u64;
    for (seq, record) in recovered {
        prop_assert!(
            *seq == last + 1,
            "survivors must be a seq prefix: {} after {}",
            seq,
            last
        );
        last = *seq;
        prop_assert!(
            *seq as usize <= originals.len(),
            "recovered seq {seq} was never appended"
        );
        prop_assert_eq!(
            record,
            &originals[(*seq - 1) as usize],
            "recovered record at seq {} differs from what was appended",
            seq
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clean_wal_roundtrips_across_segment_sizes(
        records in proptest::collection::vec(record_strategy(), 1..40),
        segment_bytes in 64u64..2048,
    ) {
        let dir = tempdir();
        write_all(&dir, &records, segment_bytes);

        let store = FileStore::open(&dir, opts(segment_bytes)).expect("reopen");
        let recovered = store.take_recovered();
        prop_assert!(recovered.snapshot.is_none());
        prop_assert_eq!(recovered.records.len(), records.len());
        for (i, (seq, record)) in recovered.records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(record, &records[i]);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_never_panics_and_never_invents_records(
        records in proptest::collection::vec(record_strategy(), 1..30),
        segment_bytes in 64u64..1024,
        file_pick in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let dir = tempdir();
        write_all(&dir, &records, segment_bytes);

        // Torn write: cut one WAL file at an arbitrary byte offset.
        let files = wal_files(&dir);
        let victim = &files[file_pick.index(files.len())];
        let len = std::fs::metadata(victim).expect("stat victim").len();
        let keep = cut.index(len as usize + 1) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(victim)
            .expect("open victim")
            .set_len(keep)
            .expect("truncate victim");

        let store = FileStore::open(&dir, opts(segment_bytes)).expect("recovery must not fail");
        let recovered = store.take_recovered();
        assert_faithful_prefix(&recovered.records, &records)?;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_never_surface_a_corrupt_record(
        records in proptest::collection::vec(record_strategy(), 1..30),
        segment_bytes in 64u64..1024,
        file_pick in any::<prop::sample::Index>(),
        byte_pick in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let dir = tempdir();
        write_all(&dir, &records, segment_bytes);

        // Flip a single bit anywhere in one WAL file (header, frame,
        // payload — the strategy does not care, recovery must not).
        let files = wal_files(&dir);
        let victim = &files[file_pick.index(files.len())];
        let mut bytes = std::fs::read(victim).expect("read victim");
        let pos = byte_pick.index(bytes.len());
        bytes[pos] ^= 1 << bit;
        std::fs::write(victim, &bytes).expect("write victim");

        let store = FileStore::open(&dir, opts(segment_bytes)).expect("recovery must not fail");
        let recovered = store.take_recovered();
        assert_faithful_prefix(&recovered.records, &records)?;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
