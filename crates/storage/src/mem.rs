//! The default in-memory backend: sequences and encodes records (so a
//! `FileStore`-vs-`MemStore` comparison isolates file I/O, not codec
//! cost) but retains nothing and never touches disk.

use crate::records::{LedgerRecord, LedgerSnapshot};
use crate::{LedgerStore, Recovered, StoreStats};
use std::sync::atomic::{AtomicU64, Ordering};

/// Zero-durability stand-in with the full [`LedgerStore`] surface.
#[derive(Default)]
pub struct MemStore {
    seq: AtomicU64,
    appends: AtomicU64,
    bytes: AtomicU64,
    snapshots: AtomicU64,
    snapshot_seq: AtomicU64,
    recovery_ns: AtomicU64,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }
}

impl LedgerStore for MemStore {
    fn kind(&self) -> &'static str {
        "mem"
    }

    fn append(&self, record: &LedgerRecord) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let payload_len = qos_wire::with_encoded(record, <[u8]>::len);
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(
            payload_len as u64 + crate::file::FRAME_HEADER_LEN as u64,
            Ordering::Relaxed,
        );
        seq
    }

    fn flush(&self) {}

    fn next_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    fn write_snapshot(&self, snapshot: &LedgerSnapshot) {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_seq.store(snapshot.seq, Ordering::Relaxed);
    }

    fn take_recovered(&self) -> Recovered {
        Recovered::default()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            kind: "mem",
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            snapshot_seq: self.snapshot_seq.load(Ordering::Relaxed),
            recovery_replay_ns: self.recovery_ns.load(Ordering::Relaxed),
            next_seq: self.seq.load(Ordering::Relaxed),
            ..StoreStats::default()
        }
    }

    fn note_recovery_ns(&self, ns: u64) {
        self.recovery_ns.store(ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_and_counts_without_retaining() {
        let store = MemStore::new();
        assert_eq!(store.append(&LedgerRecord::Commit { id: 1 }), 0);
        assert_eq!(store.append(&LedgerRecord::Commit { id: 2 }), 1);
        store.flush();
        let stats = store.stats();
        assert_eq!(stats.appends, 2);
        assert!(stats.bytes > 0);
        assert_eq!(store.next_seq(), 2);
        assert!(store.take_recovered().is_empty());
        assert!(!store.should_snapshot());
    }
}
