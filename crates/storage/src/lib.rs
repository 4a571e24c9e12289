//! Durable reservation ledger (DESIGN.md §D13).
//!
//! Brokers in this reproduction are per-domain authorities that should
//! outlive any one process: Hummingbird/Flyover-style fast-path
//! admission inside pre-established aggregates is meaningless if a
//! restart forgets every committed reservation. This crate provides the
//! durability substrate: a write-ahead log + snapshot subsystem behind
//! the pluggable [`LedgerStore`] trait.
//!
//! Two backends ship:
//!
//! * [`MemStore`] — the default: counts appends and encodes records
//!   (so WAL-overhead comparisons isolate file I/O), retains nothing.
//!   A broker without a `--data-dir` behaves exactly as before.
//! * [`FileStore`] — a segmented WAL with CRC32-framed records,
//!   group-commit fsync batching on a background flusher, periodic
//!   snapshots with segment truncation, and torn-write recovery that
//!   truncates at the first bad frame.
//!
//! The frame format is `seq u64 LE ‖ len u32 LE ‖ crc32 u32 LE ‖
//! payload`, with the CRC taken over the seq bytes and the payload.
//! Sequence numbers are global across segments and are assigned under
//! the lock of the one buffer appends go into, so frames reach disk in
//! sequence order and a torn or corrupt tail recovers a prefix of the
//! log. Recovery still sorts by sequence number: directories written by
//! older builds interleave frames from several buffers.

pub mod crc32;
pub mod file;
pub mod mem;
pub mod records;

pub use file::{FileStore, FileStoreOptions};
pub use mem::MemStore;
pub use records::{
    LedgerRecord, LedgerSnapshot, SnapInvoice, SnapReservation, SnapTicket, STATE_COMMITTED,
    STATE_HELD,
};

use qos_telemetry::Telemetry;
use std::sync::Arc;

/// What a store found on disk at open time: the newest valid snapshot
/// (if any) plus every WAL record that survived the torn-write scan,
/// sorted by sequence number.
#[derive(Debug, Default)]
pub struct Recovered {
    pub snapshot: Option<LedgerSnapshot>,
    /// `(seq, record)` pairs in ascending `seq` order. May include
    /// records at or below `snapshot.seq`; replayers skip those.
    pub records: Vec<(u64, LedgerRecord)>,
}

impl Recovered {
    /// True when there is nothing to replay (fresh data dir or
    /// `MemStore`).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.records.is_empty()
    }
}

/// A point-in-time picture of a store's vitals — the `/storage` admin
/// endpoint body and the bench tables read this.
#[derive(Clone, Debug, Default)]
pub struct StoreStats {
    /// Backend name (`"mem"` / `"file"`).
    pub kind: &'static str,
    /// Records appended since open.
    pub appends: u64,
    /// fsync calls issued (group commit: many appends per fsync).
    pub fsyncs: u64,
    /// WAL bytes written (frame bytes, not payload bytes).
    pub bytes: u64,
    /// Bytes appended but not yet written: the length of the append
    /// buffer, read under its lock.
    pub pending_bytes: u64,
    /// Live WAL segments on disk (including the active one).
    pub segments: u64,
    /// Index of the active segment file.
    pub segment_index: u64,
    /// Snapshots written since open.
    pub snapshots: u64,
    /// Sequence number of the newest snapshot (0 when none).
    pub snapshot_seq: u64,
    /// Duration of the last snapshot write, nanoseconds.
    pub snapshot_duration_ns: u64,
    /// Time spent replaying snapshot + WAL at recovery, nanoseconds.
    pub recovery_replay_ns: u64,
    /// Records recovered from the WAL tail at open.
    pub recovered_records: u64,
    /// Bytes discarded by torn-write truncation at open.
    pub truncated_bytes: u64,
    /// I/O errors swallowed by the append path (0 in healthy runs).
    pub io_errors: u64,
    /// Next sequence number to be assigned.
    pub next_seq: u64,
    /// The data directory (`""` for `MemStore`).
    pub data_dir: String,
}

impl StoreStats {
    /// The `/storage` endpoint's JSON body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"data_dir\":\"{}\",\"wal\":{{\"appends\":{},\"fsyncs\":{},\"bytes\":{},\"pending_bytes\":{},\"segments\":{},\"segment_index\":{},\"io_errors\":{}}},\"snapshot\":{{\"count\":{},\"seq\":{},\"duration_ns\":{}}},\"recovery\":{{\"replay_ns\":{},\"records\":{},\"truncated_bytes\":{}}},\"next_seq\":{}}}\n",
            self.kind,
            qos_telemetry::json_escape(&self.data_dir),
            self.appends,
            self.fsyncs,
            self.bytes,
            self.pending_bytes,
            self.segments,
            self.segment_index,
            self.io_errors,
            self.snapshots,
            self.snapshot_seq,
            self.snapshot_duration_ns,
            self.recovery_replay_ns,
            self.recovered_records,
            self.truncated_bytes,
            self.next_seq,
        )
    }
}

/// The pluggable durability backend.
///
/// The append surface is deliberately infallible: admission is on the
/// hot path and a broker that stops admitting because one write failed
/// is worse than one that keeps serving and reports `io_errors` through
/// its stats — the same posture the telemetry plane takes. Callers that
/// need a durability guarantee (graceful shutdown, snapshots) use
/// [`flush`](LedgerStore::flush), which blocks until buffered records
/// are written and fsynced.
pub trait LedgerStore: Send + Sync {
    /// Backend name (`"mem"` / `"file"`).
    fn kind(&self) -> &'static str;

    /// Assign the next global sequence number to `record` and buffer it
    /// for durable write. Returns the assigned sequence number.
    fn append(&self, record: &LedgerRecord) -> u64;

    /// Block until every record appended before this call is written
    /// and fsynced.
    fn flush(&self);

    /// The next sequence number to be assigned (equivalently: how many
    /// records this ledger has ever sequenced, across restarts).
    fn next_seq(&self) -> u64;

    /// True when enough has been appended since the last snapshot that
    /// the owner should export state and call
    /// [`write_snapshot`](LedgerStore::write_snapshot).
    fn should_snapshot(&self) -> bool {
        false
    }

    /// Durably persist a full-state snapshot, then prune WAL segments
    /// wholly covered by it. The caller captured `snapshot.seq` before
    /// exporting state (see [`LedgerSnapshot`]).
    fn write_snapshot(&self, snapshot: &LedgerSnapshot);

    /// Take what the store recovered from disk at open time (once; the
    /// second call returns an empty [`Recovered`]).
    fn take_recovered(&self) -> Recovered;

    /// Current vitals.
    fn stats(&self) -> StoreStats;

    /// Register the store's counters/gauges with a telemetry registry
    /// and adopt its flight recorder for storage events.
    fn set_telemetry(&self, _telemetry: &Telemetry, _domain: &str) {}

    /// Report how long recovery replay took (the store exposes it via
    /// stats and the `recovery_replay_ns` gauge; the replayer measures
    /// it because replay happens above the storage layer).
    fn note_recovery_ns(&self, _ns: u64) {}
}

/// Shared handle alias used across the broker/core/transport layers.
pub type SharedStore = Arc<dyn LedgerStore>;
