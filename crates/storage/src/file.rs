//! The durable backend: a segmented write-ahead log with CRC32-framed
//! records, group-commit fsync batching, periodic snapshots with
//! segment pruning, and torn-write recovery (DESIGN.md §D13).
//!
//! ## On-disk layout
//!
//! ```text
//! <data-dir>/
//!   wal-000000.log          segment: "QOSWAL01" magic, then frames
//!   wal-000001.log
//!   snapshot-<seq>.snap     "QOSSNAP1" magic ‖ len ‖ crc32 ‖ payload
//! ```
//!
//! Each frame is `seq u64 LE ‖ len u32 LE ‖ crc32 u32 LE ‖ payload`,
//! the CRC taken over the seq bytes and the payload. Sequence numbers
//! start at 1 and are global; a snapshot's `seq` field names the
//! highest sequence it reflects, so `seq == 0` means "nothing".
//!
//! ## Group commit
//!
//! Appenders encode the frame, stamp it with a fresh sequence number,
//! and push it into one of [`STRIPES`] buffers chosen by `seq % STRIPES`
//! — shards writing concurrently contend on different stripe mutexes,
//! not on the file. A background flusher drains all stripes into the
//! active segment and issues **one** fsync per drain on a configurable
//! interval; a drain is also forced inline (an *append stall*, flagged
//! through the flight recorder) if more than [`PENDING_STALL_BYTES`]
//! accumulate between ticks. Nothing is acknowledged as durable until
//! [`FileStore::flush`] returns, so losing an un-fsynced buffer to a
//! crash never violates a promise.
//!
//! ## Recovery state machine
//!
//! Open scans snapshots newest-first until one passes magic + CRC +
//! decode, then walks segments in index order frame by frame. The first
//! bad frame — short header, oversized length, CRC mismatch, or a
//! payload the codec rejects — ends the scan: the segment is truncated
//! to its good prefix, every later segment is deleted (a torn tail
//! cannot be trusted past the tear), and appends resume in a fresh
//! segment numbered after the last survivor. Recovered records are
//! sorted by sequence and handed to the replayer exactly once via
//! [`FileStore::take_recovered`].

use crate::crc32::Crc32;
use crate::records::{LedgerRecord, LedgerSnapshot};
use crate::{LedgerStore, Recovered, StoreStats};
use qos_telemetry::{EventFamily, FlightEvent, FlightRecorder, Gauge, Telemetry};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Segment file magic (8 bytes, versioned).
pub const SEGMENT_MAGIC: &[u8; 8] = b"QOSWAL01";
/// Snapshot file magic (8 bytes, versioned).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"QOSSNAP1";
/// Bytes of frame framing before the payload (seq + len + crc).
pub const FRAME_HEADER_LEN: usize = 16;
/// A frame length above this is treated as corruption, not a record.
pub const MAX_RECORD_LEN: u32 = 1 << 20;
/// Append-stripe count — matches the broker's ledger stripe count so
/// concurrent shards hash onto distinct buffer mutexes.
pub const STRIPES: usize = 8;
/// Buffered-but-unwritten bytes beyond which an appender drains inline
/// rather than letting the backlog grow (an append stall).
pub const PENDING_STALL_BYTES: u64 = 8 * 1024 * 1024;

/// Tunables for [`FileStore`].
#[derive(Clone, Debug)]
pub struct FileStoreOptions {
    /// Group-commit interval: how long appends may sit buffered before
    /// the flusher writes and fsyncs them.
    pub flush_interval: Duration,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Ask the owner for a snapshot every this many appends
    /// (0 disables [`LedgerStore::should_snapshot`]).
    pub snapshot_every: u64,
    /// An fsync slower than this files a `fsync_spike` flight event.
    pub fsync_spike_ns: u64,
}

impl Default for FileStoreOptions {
    fn default() -> Self {
        FileStoreOptions {
            flush_interval: Duration::from_millis(2),
            segment_bytes: 8 * 1024 * 1024,
            snapshot_every: 4096,
            fsync_spike_ns: 20_000_000,
        }
    }
}

/// One append stripe: buffered frame bytes plus the highest sequence
/// they contain (for per-segment pruning bookkeeping).
#[derive(Default)]
struct Stripe {
    buf: Vec<u8>,
    max_seq: u64,
}

/// A completed (rotated) segment still on disk.
struct Sealed {
    index: u64,
    max_seq: u64,
}

/// The active segment writer plus segment bookkeeping. Drains hold this
/// for the whole take-write-sync cycle, so [`FileStore::flush`] is a
/// total order against other drains.
struct Writer {
    file: File,
    segment_index: u64,
    segment_bytes: u64,
    segment_max_seq: u64,
    sealed: Vec<Sealed>,
    /// Drain scratch: swapped with each stripe's buffer during a group
    /// commit so buffer capacity circulates between the stripes and the
    /// drain instead of being reallocated every batch.
    drain_buf: Vec<u8>,
}

/// Flight-recorder and gauge hooks adopted via `set_telemetry`.
#[derive(Default)]
struct TeleHooks {
    flight: Option<Arc<FlightRecorder>>,
    domain: String,
    snapshot_gauge: Gauge,
    recovery_gauge: Gauge,
}

struct Inner {
    dir: PathBuf,
    opts: FileStoreOptions,
    /// Next sequence number to assign (starts at 1; 0 means "none").
    seq: AtomicU64,
    stripes: [Mutex<Stripe>; STRIPES],
    pending: AtomicU64,
    writer: Mutex<Writer>,
    stop: AtomicBool,
    signal: (Mutex<()>, Condvar),
    // Stats cells. Counter cells are `Arc` so `set_telemetry` can hand
    // the very same storage to the registry (live from birth).
    appends: Arc<AtomicU64>,
    fsyncs: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    io_errors: AtomicU64,
    snapshots: AtomicU64,
    snapshot_seq: AtomicU64,
    snapshot_duration_ns: AtomicU64,
    recovery_ns: AtomicU64,
    recovered_records: AtomicU64,
    truncated_bytes: AtomicU64,
    appends_since_snapshot: AtomicU64,
    recovered: Mutex<Option<Recovered>>,
    tele: Mutex<TeleHooks>,
}

/// The file-backed [`LedgerStore`]. See the module docs for the design.
pub struct FileStore {
    inner: Arc<Inner>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl FileStore {
    /// Open (or create) a ledger in `dir`: run recovery, then start the
    /// group-commit flusher. The recovered state waits in the store
    /// until [`LedgerStore::take_recovered`].
    pub fn open(dir: impl AsRef<Path>, opts: FileStoreOptions) -> io::Result<FileStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        // Drop leftovers of interrupted snapshot writes.
        for path in list_files(&dir, "snapshot-", ".snap.tmp")? {
            let _ = fs::remove_file(path.1);
        }

        let mut truncated = 0u64;
        let snapshot = newest_valid_snapshot(&dir)?;

        // Walk segments in index order; stop at the first bad frame.
        let mut segments = list_files(&dir, "wal-", ".log")?;
        segments.sort_by_key(|(index, _)| *index);
        let mut records: Vec<(u64, LedgerRecord)> = Vec::new();
        let mut sealed: Vec<Sealed> = Vec::new();
        let mut tail_torn = false;
        let mut last_index = None;
        for (pos, (index, path)) in segments.iter().enumerate() {
            if tail_torn {
                // Everything after a tear is untrusted: delete it.
                truncated += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                let _ = fs::remove_file(path);
                continue;
            }
            last_index = Some(*index);
            let data = fs::read(path)?;
            let scan = scan_segment(&data);
            let mut max_seq = 0;
            for (seq, record) in scan.records {
                max_seq = max_seq.max(seq);
                records.push((seq, record));
            }
            if scan.good_prefix < data.len() as u64 {
                tail_torn = true;
                truncated += data.len() as u64 - scan.good_prefix;
                if scan.good_prefix <= SEGMENT_MAGIC.len() as u64 {
                    // Nothing valid survived (bad magic or empty): the
                    // file itself goes; a fresh segment replaces it.
                    let _ = fs::remove_file(path);
                    if pos == 0 {
                        last_index = None;
                    }
                    continue;
                }
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(scan.good_prefix)?;
                f.sync_all()?;
            }
            sealed.push(Sealed {
                index: *index,
                max_seq,
            });
        }
        records.sort_by_key(|(seq, _)| *seq);

        let max_record_seq = records.last().map(|(seq, _)| *seq).unwrap_or(0);
        let next_seq = max_record_seq
            .max(snapshot.as_ref().map(|s| s.seq).unwrap_or(0))
            .saturating_add(1);
        let segment_index = last_index.map(|i| i + 1).unwrap_or(0);
        let file = open_segment(&dir, segment_index)?;

        let recovered_records = records.len() as u64;
        let inner = Arc::new(Inner {
            dir,
            opts,
            seq: AtomicU64::new(next_seq),
            stripes: std::array::from_fn(|_| Mutex::new(Stripe::default())),
            pending: AtomicU64::new(0),
            writer: Mutex::new(Writer {
                file,
                segment_index,
                segment_bytes: SEGMENT_MAGIC.len() as u64,
                segment_max_seq: 0,
                sealed,
                drain_buf: Vec::new(),
            }),
            stop: AtomicBool::new(false),
            signal: (Mutex::new(()), Condvar::new()),
            appends: Arc::new(AtomicU64::new(0)),
            fsyncs: Arc::new(AtomicU64::new(0)),
            bytes: Arc::new(AtomicU64::new(0)),
            io_errors: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            snapshot_seq: AtomicU64::new(snapshot.as_ref().map(|s| s.seq).unwrap_or(0)),
            snapshot_duration_ns: AtomicU64::new(0),
            recovery_ns: AtomicU64::new(0),
            recovered_records: AtomicU64::new(recovered_records),
            truncated_bytes: AtomicU64::new(truncated),
            appends_since_snapshot: AtomicU64::new(0),
            recovered: Mutex::new(Some(Recovered { snapshot, records })),
            tele: Mutex::new(TeleHooks::default()),
        });

        let flusher_inner = inner.clone();
        let flusher = std::thread::Builder::new()
            .name("qos-wal-flusher".into())
            .spawn(move || flusher_inner.run_flusher())
            .expect("spawn wal flusher");

        Ok(FileStore {
            inner,
            flusher: Mutex::new(Some(flusher)),
        })
    }

    /// The data directory this store writes to.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.signal.1.notify_all();
        if let Some(handle) = lock(&self.flusher).take() {
            let _ = handle.join();
        }
        // The flusher's exit path drained; one more for appends that
        // raced its shutdown.
        self.inner.drain_and_sync();
    }
}

impl LedgerStore for FileStore {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn append(&self, record: &LedgerRecord) -> u64 {
        let inner = &self.inner;
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let seq_bytes = seq.to_le_bytes();

        // Encode straight into the stripe buffer behind a header
        // placeholder, then patch len + CRC once the payload size is
        // known — no per-append payload or frame allocation; the stripe
        // buffers amortise to their group-commit batch size.
        let pending;
        {
            let mut stripe = lock(&inner.stripes[(seq as usize) % STRIPES]);
            let start = stripe.buf.len();
            stripe.buf.extend_from_slice(&seq_bytes);
            stripe.buf.extend_from_slice(&[0u8; 8]); // len + crc, patched below
            qos_wire::encode_into(record, &mut stripe.buf);
            let payload_len = stripe.buf.len() - start - FRAME_HEADER_LEN;
            let mut crc = Crc32::new();
            crc.update(&seq_bytes);
            crc.update(&stripe.buf[start + FRAME_HEADER_LEN..]);
            let len_bytes = (payload_len as u32).to_le_bytes();
            let crc_bytes = crc.finalize().to_le_bytes();
            stripe.buf[start + 8..start + 12].copy_from_slice(&len_bytes);
            stripe.buf[start + 12..start + 16].copy_from_slice(&crc_bytes);
            stripe.max_seq = stripe.max_seq.max(seq);
            // Counted before the stripe unlocks: the flusher subtracts
            // what it drains, so it must never find a frame `pending`
            // does not include yet (the counter would wrap below zero).
            let frame_len = (FRAME_HEADER_LEN + payload_len) as u64;
            pending = inner.pending.fetch_add(frame_len, Ordering::Relaxed) + frame_len;
        }
        inner.appends.fetch_add(1, Ordering::Relaxed);
        inner.appends_since_snapshot.fetch_add(1, Ordering::Relaxed);
        if pending > PENDING_STALL_BYTES {
            inner.flight_event("append_stall", format!("{pending} bytes pending"), 0, 0);
            inner.drain_and_sync();
        }
        seq
    }

    fn flush(&self) {
        self.inner.drain_and_sync();
    }

    fn next_seq(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    fn should_snapshot(&self) -> bool {
        let every = self.inner.opts.snapshot_every;
        every > 0 && self.inner.appends_since_snapshot.load(Ordering::Relaxed) >= every
    }

    fn write_snapshot(&self, snapshot: &LedgerSnapshot) {
        let inner = &self.inner;
        let started = Instant::now();
        // WAL first: every record the snapshot may reflect must be
        // durable before segments covering it become prunable.
        inner.drain_and_sync();

        let payload = qos_wire::to_bytes(snapshot);
        let mut bytes = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 8 + payload.len());
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crate::crc32::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let final_path = inner.dir.join(snapshot_name(snapshot.seq));
        let tmp_path = inner
            .dir
            .join(format!("{}.tmp", snapshot_name(snapshot.seq)));
        let result: io::Result<()> = (|| {
            let mut f = File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp_path, &final_path)?;
            File::open(&inner.dir)?.sync_all()?;
            Ok(())
        })();
        if result.is_err() {
            inner.io_errors.fetch_add(1, Ordering::Relaxed);
            let _ = fs::remove_file(&tmp_path);
            return;
        }

        // Seal the active segment so it becomes prunable by the *next*
        // snapshot, then drop segments and snapshots this one covers.
        {
            let mut w = lock(&inner.writer);
            if w.segment_bytes > SEGMENT_MAGIC.len() as u64 {
                if let Err(e) = inner.rotate(&mut w) {
                    let _ = e;
                    inner.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            w.sealed.retain(|s| {
                if s.max_seq <= snapshot.seq {
                    let _ = fs::remove_file(inner.dir.join(segment_name(s.index)));
                    false
                } else {
                    true
                }
            });
        }
        if let Ok(older) = list_files(&inner.dir, "snapshot-", ".snap") {
            for (seq, path) in older {
                if seq < snapshot.seq {
                    let _ = fs::remove_file(path);
                }
            }
        }

        let elapsed = started.elapsed().as_nanos() as u64;
        inner.snapshots.fetch_add(1, Ordering::Relaxed);
        inner.snapshot_seq.store(snapshot.seq, Ordering::Relaxed);
        inner.snapshot_duration_ns.store(elapsed, Ordering::Relaxed);
        inner.appends_since_snapshot.store(0, Ordering::Relaxed);
        {
            let tele = lock(&inner.tele);
            tele.snapshot_gauge.set(elapsed as i64);
        }
        inner.flight_event(
            "snapshot",
            format!("seq {} ({} bytes)", snapshot.seq, bytes.len()),
            0,
            elapsed,
        );
    }

    fn take_recovered(&self) -> Recovered {
        lock(&self.inner.recovered).take().unwrap_or_default()
    }

    fn stats(&self) -> StoreStats {
        let inner = &self.inner;
        let (segments, segment_index) = {
            let w = lock(&inner.writer);
            (w.sealed.len() as u64 + 1, w.segment_index)
        };
        StoreStats {
            kind: "file",
            appends: inner.appends.load(Ordering::Relaxed),
            fsyncs: inner.fsyncs.load(Ordering::Relaxed),
            bytes: inner.bytes.load(Ordering::Relaxed),
            pending_bytes: inner.pending.load(Ordering::Relaxed),
            segments,
            segment_index,
            snapshots: inner.snapshots.load(Ordering::Relaxed),
            snapshot_seq: inner.snapshot_seq.load(Ordering::Relaxed),
            snapshot_duration_ns: inner.snapshot_duration_ns.load(Ordering::Relaxed),
            recovery_replay_ns: inner.recovery_ns.load(Ordering::Relaxed),
            recovered_records: inner.recovered_records.load(Ordering::Relaxed),
            truncated_bytes: inner.truncated_bytes.load(Ordering::Relaxed),
            io_errors: inner.io_errors.load(Ordering::Relaxed),
            next_seq: inner.seq.load(Ordering::Relaxed),
            data_dir: inner.dir.display().to_string(),
        }
    }

    fn set_telemetry(&self, telemetry: &Telemetry, domain: &str) {
        let inner = &self.inner;
        let labels = [("domain", domain)];
        let mut tele = lock(&inner.tele);
        if let Some(registry) = telemetry.registry() {
            registry.register_counter(
                "wal_appends_total",
                "Ledger records appended to the write-ahead log",
                &labels,
                inner.appends.clone(),
            );
            registry.register_counter(
                "wal_fsyncs_total",
                "Group-commit fsync batches issued by the WAL flusher",
                &labels,
                inner.fsyncs.clone(),
            );
            registry.register_counter(
                "wal_bytes_total",
                "Frame bytes written to WAL segments",
                &labels,
                inner.bytes.clone(),
            );
            tele.snapshot_gauge = registry.gauge(
                "snapshot_duration_ns",
                "Duration of the most recent ledger snapshot write",
                &labels,
            );
            tele.recovery_gauge = registry.gauge(
                "recovery_replay_ns",
                "Time spent replaying snapshot + WAL at the last startup",
                &labels,
            );
            tele.snapshot_gauge
                .set(inner.snapshot_duration_ns.load(Ordering::Relaxed) as i64);
            tele.recovery_gauge
                .set(inner.recovery_ns.load(Ordering::Relaxed) as i64);
        }
        tele.flight = telemetry.flight().cloned();
        tele.domain = domain.to_string();
    }

    fn note_recovery_ns(&self, ns: u64) {
        self.inner.recovery_ns.store(ns, Ordering::Relaxed);
        lock(&self.inner.tele).recovery_gauge.set(ns as i64);
    }
}

impl Inner {
    /// The group-commit loop: wake every `flush_interval`, drain
    /// whatever the stripes buffered, fsync once.
    fn run_flusher(&self) {
        loop {
            {
                let guard = lock(&self.signal.0);
                let _ = self
                    .signal
                    .1
                    .wait_timeout(guard, self.opts.flush_interval)
                    .map(|(g, _)| drop(g));
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            self.drain_and_sync();
        }
        self.drain_and_sync();
    }

    /// Take every stripe buffer, write it into the active segment, and
    /// fsync — the whole cycle under the writer lock, so a concurrent
    /// [`FileStore::flush`] returning means *its* records are durable.
    fn drain_and_sync(&self) {
        let mut w = lock(&self.writer);
        let w = &mut *w;
        let mut total = 0u64;
        let mut max_seq = 0u64;
        let mut wrote_err = false;
        for stripe in &self.stripes {
            let stripe_max = {
                let mut s = lock(stripe);
                if s.buf.is_empty() {
                    continue;
                }
                // Hand the stripe the (cleared) scratch and take its
                // batch: capacities circulate, nothing is reallocated.
                std::mem::swap(&mut s.buf, &mut w.drain_buf);
                std::mem::take(&mut s.max_seq)
            };
            total += w.drain_buf.len() as u64;
            max_seq = max_seq.max(stripe_max);
            if w.file.write_all(&w.drain_buf).is_err() {
                wrote_err = true;
            }
            w.drain_buf.clear();
        }
        if total == 0 {
            return;
        }
        self.pending.fetch_sub(total, Ordering::Relaxed);
        w.segment_bytes += total;
        w.segment_max_seq = w.segment_max_seq.max(max_seq);

        let sync_started = Instant::now();
        if w.file.sync_data().is_err() {
            wrote_err = true;
        }
        let sync_ns = sync_started.elapsed().as_nanos() as u64;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(total, Ordering::Relaxed);
        if wrote_err {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
        if sync_ns > self.opts.fsync_spike_ns {
            self.flight_event(
                "fsync_spike",
                format!("fsync took {} us", sync_ns / 1_000),
                0,
                sync_ns,
            );
        }

        if w.segment_bytes >= self.opts.segment_bytes && self.rotate(w).is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Seal the active segment and open the next one.
    fn rotate(&self, w: &mut Writer) -> io::Result<()> {
        w.file.sync_data()?;
        let next_index = w.segment_index + 1;
        let file = open_segment(&self.dir, next_index)?;
        let sealed = Sealed {
            index: w.segment_index,
            max_seq: w.segment_max_seq,
        };
        w.file = file;
        w.segment_index = next_index;
        w.segment_bytes = SEGMENT_MAGIC.len() as u64;
        w.segment_max_seq = 0;
        w.sealed.push(sealed);
        Ok(())
    }

    fn flight_event(&self, label: &str, detail: String, start_ns: u64, end_ns: u64) {
        let tele = lock(&self.tele);
        if let Some(flight) = &tele.flight {
            flight.record(
                FlightEvent::new(EventFamily::Storage, tele.domain.clone(), label)
                    .detail(detail)
                    .window(start_ns, end_ns),
            );
        }
    }
}

/// Poison-tolerant lock: storage must stay writable even if some other
/// thread panicked mid-operation (same idiom as the broker ledger).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:06}.log")
}

fn snapshot_name(seq: u64) -> String {
    format!("snapshot-{seq:020}.snap")
}

/// Create a fresh segment file and stamp its magic durably.
fn open_segment(dir: &Path, index: u64) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(segment_name(index)))?;
    if file.metadata()?.len() == 0 {
        file.write_all(SEGMENT_MAGIC)?;
        file.sync_data()?;
    }
    Ok(file)
}

/// Files in `dir` named `<prefix><number><suffix>`, with the number.
fn list_files(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(middle) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
        else {
            continue;
        };
        if let Ok(number) = middle.parse::<u64>() {
            out.push((number, entry.path()));
        }
    }
    Ok(out)
}

/// The newest snapshot that passes magic + CRC + decode, if any.
fn newest_valid_snapshot(dir: &Path) -> io::Result<Option<LedgerSnapshot>> {
    let mut candidates = list_files(dir, "snapshot-", ".snap")?;
    candidates.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
    for (_, path) in candidates {
        let mut bytes = Vec::new();
        if File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .is_err()
        {
            continue;
        }
        if let Some(snapshot) = decode_snapshot(&bytes) {
            return Ok(Some(snapshot));
        }
    }
    Ok(None)
}

fn decode_snapshot(bytes: &[u8]) -> Option<LedgerSnapshot> {
    let header = SNAPSHOT_MAGIC.len() + 8;
    if bytes.len() < header || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().ok()?);
    let payload = bytes.get(header..header + len)?;
    if crate::crc32::crc32(payload) != crc {
        return None;
    }
    qos_wire::from_bytes::<LedgerSnapshot>(payload).ok()
}

/// Result of walking one segment's frames.
struct SegmentScan {
    records: Vec<(u64, LedgerRecord)>,
    /// Byte length of the valid prefix (== `data.len()` when clean).
    good_prefix: u64,
}

/// Walk `data` frame by frame, stopping at the first bad frame: short
/// header, oversized or overrunning length, CRC mismatch, or a payload
/// the codec rejects.
fn scan_segment(data: &[u8]) -> SegmentScan {
    let mut records = Vec::new();
    if data.len() < SEGMENT_MAGIC.len() || &data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return SegmentScan {
            records,
            good_prefix: 0,
        };
    }
    let mut offset = SEGMENT_MAGIC.len();
    while offset + FRAME_HEADER_LEN <= data.len() {
        let seq_bytes: [u8; 8] = data[offset..offset + 8].try_into().expect("8 bytes");
        let seq = u64::from_le_bytes(seq_bytes);
        let len =
            u32::from_le_bytes(data[offset + 8..offset + 12].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[offset + 12..offset + 16].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN as usize || offset + FRAME_HEADER_LEN + len > data.len() {
            break;
        }
        let payload = &data[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + len];
        let mut check = Crc32::new();
        check.update(&seq_bytes);
        check.update(payload);
        if check.finalize() != crc {
            break;
        }
        let Ok(record) = qos_wire::from_bytes::<LedgerRecord>(payload) else {
            break;
        };
        records.push((seq, record));
        offset += FRAME_HEADER_LEN + len;
    }
    SegmentScan {
        records,
        good_prefix: offset as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{SnapReservation, STATE_COMMITTED};

    fn tempdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qos-storage-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fast_opts() -> FileStoreOptions {
        FileStoreOptions {
            flush_interval: Duration::from_millis(1),
            ..FileStoreOptions::default()
        }
    }

    #[test]
    fn append_flush_reopen_recovers_in_seq_order() {
        let dir = tempdir("roundtrip");
        {
            let store = FileStore::open(&dir, fast_opts()).unwrap();
            assert!(store.take_recovered().is_empty());
            for id in 0..100u64 {
                store.append(&LedgerRecord::Commit { id });
            }
            store.flush();
            let stats = store.stats();
            assert_eq!(stats.appends, 100);
            assert!(stats.fsyncs >= 1);
            assert!(stats.bytes > 0);
        }
        let store = FileStore::open(&dir, fast_opts()).unwrap();
        let recovered = store.take_recovered();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.records.len(), 100);
        let seqs: Vec<u64> = recovered.records.iter().map(|(s, _)| *s).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "recovery is seq-ordered");
        for (i, (_, record)) in recovered.records.iter().enumerate() {
            assert_eq!(record, &LedgerRecord::Commit { id: i as u64 });
        }
        // Fresh appends continue the global sequence.
        assert!(store.next_seq() > *seqs.last().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_to_good_prefix() {
        let dir = tempdir("torn");
        {
            let store = FileStore::open(&dir, fast_opts()).unwrap();
            for id in 0..10u64 {
                store.append(&LedgerRecord::Commit { id });
            }
            store.flush();
        }
        // Flip a bit in the middle of the segment: records after the
        // flip must be dropped, records before kept.
        let seg = dir.join(segment_name(0));
        let mut data = fs::read(&seg).unwrap();
        let victim = data.len() / 2;
        data[victim] ^= 0x40;
        fs::write(&seg, &data).unwrap();

        let store = FileStore::open(&dir, fast_opts()).unwrap();
        let recovered = store.take_recovered();
        assert!(recovered.records.len() < 10, "corrupt suffix dropped");
        assert!(!recovered.records.is_empty(), "good prefix kept");
        // Stripes interleave frames on disk, so the survivors are not a
        // seq-prefix — but every survivor must match what was appended
        // under that sequence number (seq k carried id k-1).
        for (seq, record) in &recovered.records {
            assert_eq!(record, &LedgerRecord::Commit { id: seq - 1 });
        }
        assert!(store.stats().truncated_bytes > 0);
        // The truncated file is now clean: a third open sees the same.
        drop(store);
        let store = FileStore::open(&dir, fast_opts()).unwrap();
        let again = store.take_recovered();
        assert_eq!(again.records.len(), recovered.records.len());
        assert_eq!(store.stats().truncated_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_prunes_covered_segments() {
        let dir = tempdir("snap");
        let opts = FileStoreOptions {
            segment_bytes: 256, // rotate aggressively
            ..fast_opts()
        };
        let store = FileStore::open(&dir, opts.clone()).unwrap();
        for id in 0..200u64 {
            store.append(&LedgerRecord::Commit { id });
        }
        store.flush();
        assert!(store.stats().segments > 1, "rotation happened");
        let snapshot = LedgerSnapshot {
            seq: store.next_seq() - 1,
            reservations: vec![SnapReservation {
                id: 7,
                start: 0,
                end: 10,
                rate_bps: 1000,
                state: STATE_COMMITTED,
                ingress: None,
                egress: None,
            }],
            ..LedgerSnapshot::default()
        };
        store.write_snapshot(&snapshot);
        let stats = store.stats();
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.snapshot_seq, snapshot.seq);
        assert!(
            stats.segments <= 2,
            "covered segments pruned, got {}",
            stats.segments
        );
        drop(store);

        let store = FileStore::open(&dir, opts).unwrap();
        let recovered = store.take_recovered();
        let snap = recovered.snapshot.expect("snapshot recovered");
        assert_eq!(snap, snapshot);
        // Every surviving WAL record is covered by the snapshot.
        assert!(recovered.records.iter().all(|(s, _)| *s <= snap.seq));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_wal() {
        let dir = tempdir("badsnap");
        let store = FileStore::open(&dir, fast_opts()).unwrap();
        for id in 0..20u64 {
            store.append(&LedgerRecord::Commit { id });
        }
        store.flush();
        store.write_snapshot(&LedgerSnapshot {
            seq: store.next_seq() - 1,
            ..LedgerSnapshot::default()
        });
        drop(store);
        // Corrupt the snapshot payload; its CRC must reject it.
        let (_, snap_path) = list_files(&dir, "snapshot-", ".snap").unwrap().remove(0);
        let mut bytes = fs::read(&snap_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&snap_path, &bytes).unwrap();

        let store = FileStore::open(&dir, fast_opts()).unwrap();
        let recovered = store.take_recovered();
        assert!(recovered.snapshot.is_none(), "corrupt snapshot rejected");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_assign_unique_seqs() {
        let dir = tempdir("concurrent");
        let store = Arc::new(FileStore::open(&dir, fast_opts()).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..64u64 {
                        store.append(&LedgerRecord::Commit { id: t * 1000 + i });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        store.flush();
        drop(Arc::try_unwrap(store).ok().expect("sole owner"));

        let store = FileStore::open(&dir, fast_opts()).unwrap();
        let recovered = store.take_recovered();
        assert_eq!(recovered.records.len(), 256);
        let mut seqs: Vec<u64> = recovered.records.iter().map(|(s, _)| *s).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 256, "seqs unique and sorted");
        let _ = fs::remove_dir_all(&dir);
    }
}
