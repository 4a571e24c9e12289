//! EXP-DUR — the kill -9 durability gate for the reservation ledger.
//!
//! Two parts; the first is the CI gate:
//!
//! 1. **Crash recovery (the headline).** A three-process fig2 chain runs
//!    with the transit broker journaling to `--data-dir`. After a first
//!    wave of reservations commits, the transit `bbd` is killed with
//!    SIGKILL — no flush, no snapshot, no goodbye — and restarted on the
//!    same data directory. The harness then drives a second wave through
//!    the recovered broker and scrapes `/storage` for the ledger digest
//!    (SHA-256 over the canonical reservation + invoice export). A
//!    control run executes the *identical* schedule — including stopping
//!    and restarting the source — but never kills the transit broker.
//!    The gate: byte-identical digests and equal committed bandwidth
//!    between the killed-and-recovered run and the never-killed control.
//!
//! 2. **Durability overhead.** A 512-request reservation burst over
//!    loopback daemons, run with every node journaling to a `FileStore` versus the in-memory
//!    `MemStore`, best of three each. Measured and printed, not gated:
//!    a single burst on a shared host is too noisy to fail on.
//!
//! That journaling never changes an admission outcome is
//! `tests/tests/fabric_parity.rs` (`MemStore` and `FileStore`).
//!
//! The run appends itself to `BENCH_durability.json`. Exit is non-zero
//! if the gate fails.

use qos_bench::{record, table_header, table_row};
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_storage::{FileStore, FileStoreOptions, MemStore, SharedStore};
use qos_telemetry::{Artifact, Row};
use qos_transport::TcpMesh;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MBPS: u64 = 1_000_000;
/// First reservation wave, submitted before the transit broker dies.
const WAVE1: u64 = 6;
/// Second wave, driven through the recovered broker (ids offset by
/// `--submit-from WAVE1` so the schedules of both runs are identical).
const WAVE2: u64 = 5;
/// Burst size for the durability-overhead half, and bursts per side (the
/// best counts).
const THROUGHPUT_REQUESTS: u64 = 512;
const THROUGHPUT_TRIALS: u64 = 3;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "qos-exp-dur-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

// ---------------------------------------------------------------------
// Part 1 plumbing: the three-process harness.
// ---------------------------------------------------------------------

fn free_port() -> u16 {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind probe");
    l.local_addr().expect("probe addr").port()
}

/// Minimal blocking HTTP/1.1 GET against a loopback admin endpoint.
fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write {addr}{path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {addr}{path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header/body split from {addr}{path}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line from {addr}{path}"))?;
    Ok((status, body.to_string()))
}

fn wait_healthy(addr: &str, deadline: Instant) -> Result<(), String> {
    loop {
        if let Ok((200, _)) = http_get(addr, "/healthz") {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("{addr} not healthy before deadline"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Pull the integer right after `"key":` out of a flat JSON body. The
/// `/storage` document nests objects but never repeats a key we care
/// about, so substring scanning is enough — no JSON parser in the tree.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn json_str(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let at = body.find(&needle)? + needle.len();
    let end = body[at..].find('"')?;
    Some(body[at..at + end].to_string())
}

struct Guard(Vec<Child>);

impl Drop for Guard {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// What the harness scrapes off the transit broker's `/storage` at the
/// end of a chain run.
struct ChainOutcome {
    digest: String,
    committed: u64,
    committed_bps: u64,
    /// Replay time reported by the (possibly restarted) broker — zero
    /// when the data dir was empty at startup.
    replay_ns: u64,
    recovered_records: u64,
    /// Digest scraped immediately before the transit broker was killed
    /// (test run only): recovery fidelity is checked against it before
    /// the second wave runs.
    pre_kill_digest: Option<String>,
    post_recovery_digest: Option<String>,
}

/// One full crash-recovery schedule: wave 1 from the source, stop the
/// source, optionally SIGKILL + restart the transit broker, then wave 2
/// from a fresh source process. Both the test run (`kill_broker =
/// true`) and the control (`false`) execute exactly these steps so the
/// only difference between their final ledgers is the crash itself.
fn chain_run(bbd: &Path, kill_broker: bool, data_dir: &Path) -> Result<ChainOutcome, String> {
    let listen: Vec<u16> = (0..3).map(|_| free_port()).collect();
    let admin: Vec<u16> = (0..3).map(|_| free_port()).collect();
    let listen_addr = |i: usize| format!("127.0.0.1:{}", listen[i]);
    let admin_addr = |i: usize| format!("127.0.0.1:{}", admin[i]);
    let storage_addr = admin_addr(1);

    let spawn = |args: &[String]| {
        Command::new(bbd)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn bbd: {e}"))
    };
    let common = |i: usize| {
        vec![
            "--chain".into(),
            "3".into(),
            "--index".into(),
            i.to_string(),
            "--listen".into(),
            listen_addr(i),
            "--admin".into(),
            admin_addr(i),
            "--run-secs".into(),
            "300".into(),
        ]
    };
    let mut args_c = common(2);
    args_c.extend(["--accept".into(), "domain-b".into()]);
    let mut args_b = common(1);
    args_b.extend([
        "--peer".into(),
        format!("domain-c={}", listen_addr(2)),
        "--accept".into(),
        "domain-a".into(),
        "--data-dir".into(),
        data_dir.display().to_string(),
    ]);
    let source_args = |wave: u64, from: u64| {
        let mut a = common(0);
        a.extend([
            "--peer".into(),
            format!("domain-b={}", listen_addr(1)),
            "--submit".into(),
            wave.to_string(),
            "--submit-from".into(),
            from.to_string(),
            "--linger-secs".into(),
            "300".into(),
        ]);
        a
    };

    // Destination, transit, source — each dial target is already
    // listening when its dialer comes up.
    let mut guard = Guard(Vec::new());
    guard.0.push(spawn(&args_c)?);
    guard.0.push(spawn(&args_b)?);
    guard.0.push(spawn(&source_args(WAVE1, 0))?);

    let deadline = Instant::now() + Duration::from_secs(60);
    for i in 0..3 {
        wait_healthy(&admin_addr(i), deadline)?;
    }

    // Wait for wave 1 to commit at the transit broker, then give the
    // 2 ms group-commit flusher a comfortable margin to land the frames
    // on disk. (SIGKILL is allowed to lose the *uncommitted* tail — the
    // gate is about state the broker acknowledged.)
    let committed_at = |want: u64, deadline: Instant| -> Result<String, String> {
        loop {
            if let Ok((200, body)) = http_get(&storage_addr, "/storage") {
                if json_u64(&body, "committed") == Some(want) {
                    return Ok(body);
                }
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "transit broker never reached {want} committed reservations"
                ));
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let body = committed_at(WAVE1, deadline)?;
    std::thread::sleep(Duration::from_millis(400));
    let pre_kill_digest = json_str(&body, "digest");

    // Stop the source in both runs (the test run is about to lose its
    // transport peer anyway; the control must match its schedule).
    {
        let mut source = guard.0.remove(2);
        let _ = source.kill();
        let _ = source.wait();
    }

    let mut post_recovery_digest = None;
    if kill_broker {
        // SIGKILL: no signal handler, no flush, no snapshot. `Child::
        // kill` delivers SIGKILL on unix.
        let mut broker = guard.0.remove(1);
        let killed = broker.kill();
        let _ = broker.wait();
        killed.map_err(|e| format!("SIGKILL transit: {e}"))?;

        // Restart it on the same data dir and listen address. The OS
        // may hold the port in TIME_WAIT briefly, and bbd exits on a
        // failed bind — retry the spawn until the admin plane answers.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let mut child = spawn(&args_b)?;
            let healthy = wait_healthy(
                &storage_addr,
                (Instant::now() + Duration::from_secs(5)).min(deadline),
            );
            match healthy {
                Ok(()) => {
                    guard.0.insert(1, child);
                    break;
                }
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    if Instant::now() >= deadline {
                        return Err("transit broker did not restart in time".into());
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
            }
        }

        // Recovery fidelity, checked before any new traffic: the
        // restarted broker must report the pre-kill ledger digest and a
        // non-trivial WAL replay.
        let (status, body) = http_get(&storage_addr, "/storage")?;
        if status != 200 {
            return Err(format!("/storage on restarted broker returned {status}"));
        }
        post_recovery_digest = json_str(&body, "digest");
        if post_recovery_digest != pre_kill_digest {
            return Err(format!(
                "recovered digest {post_recovery_digest:?} != pre-kill digest {pre_kill_digest:?}"
            ));
        }
        let records = json_u64(&body, "records").unwrap_or(0);
        let replay_ns = json_u64(&body, "replay_ns").unwrap_or(0);
        if records == 0 || replay_ns == 0 {
            return Err(format!(
                "restarted broker reports no recovery work (records={records}, replay_ns={replay_ns})"
            ));
        }
        // The restarted process must also re-export the wal_*/recovery_*
        // metric families CI checks for.
        let (_, metrics) = http_get(&storage_addr, "/metrics")?;
        for family in [
            "wal_appends_total",
            "wal_fsyncs_total",
            "wal_bytes_total",
            "recovery_replay_ns",
        ] {
            if !metrics.contains(family) {
                return Err(format!("restarted broker exports no {family} metric"));
            }
        }
    }

    // Wave 2, from a fresh source process with offset reservation ids.
    guard.0.push(spawn(&source_args(WAVE2, WAVE1))?);
    let deadline = Instant::now() + Duration::from_secs(60);
    wait_healthy(&admin_addr(0), deadline)?;
    committed_at(WAVE1 + WAVE2, deadline)?;
    std::thread::sleep(Duration::from_millis(400));

    let (status, body) = http_get(&storage_addr, "/storage")?;
    if status != 200 {
        return Err(format!("/storage returned {status}"));
    }
    Ok(ChainOutcome {
        digest: json_str(&body, "digest").ok_or("no digest in /storage")?,
        committed: json_u64(&body, "committed").ok_or("no committed in /storage")?,
        committed_bps: json_u64(&body, "committed_bps").ok_or("no committed_bps in /storage")?,
        replay_ns: json_u64(&body, "replay_ns").unwrap_or(0),
        recovered_records: json_u64(&body, "records").unwrap_or(0),
        pre_kill_digest,
        post_recovery_digest,
    })
}

// ---------------------------------------------------------------------
// Part 2: an in-process mesh with stores attached.
// ---------------------------------------------------------------------

/// One TCP reservation burst with every node journaling to a
/// `FileStore` (`file`) or to a `MemStore`. Returns requests/second.
fn burst_run(file: bool) -> f64 {
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        ..ChainOptions::default()
    });
    let mut rars = Vec::new();
    for i in 0..THROUGHPUT_REQUESTS {
        let spec = s.spec("alice", 1000 + i, MBPS, Timestamp(0), 3600);
        rars.push(s.users["alice"].sign_request(spec, &s.nodes[0]));
    }
    let cert = s.users["alice"].cert.clone();
    let mut dirs = Vec::new();
    for node in &s.nodes {
        let store: SharedStore = if file {
            let dir = tempdir(&format!("burst-{}", node.domain()));
            let store =
                FileStore::open(&dir, FileStoreOptions::default()).expect("open file store");
            dirs.push(dir);
            Arc::new(store)
        } else {
            Arc::new(MemStore::default())
        };
        node.attach_store(store);
    }

    let mut mesh = TcpMesh::new();
    let ids = s.identities();
    mesh.spawn(std::mem::take(&mut s.nodes), ids, &s.links, s.ca_key)
        .expect("loopback mesh comes up");
    let t0 = Instant::now();
    mesh.submit_all(
        "domain-a",
        rars.into_iter().map(|rar| (rar, cert.clone())).collect(),
    );
    let completions = mesh.wait_completions(THROUGHPUT_REQUESTS as usize);
    let elapsed = t0.elapsed();
    assert_eq!(completions.len(), THROUGHPUT_REQUESTS as usize);
    mesh.shutdown();
    for d in dirs {
        let _ = std::fs::remove_dir_all(&d);
    }
    THROUGHPUT_REQUESTS as f64 / elapsed.as_secs_f64()
}

fn main() {
    let bbd = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .join("bbd");
    if !bbd.exists() {
        eprintln!(
            "EXP-DUR: bbd binary not found at {} (build it first)",
            bbd.display()
        );
        std::process::exit(2);
    }

    println!("EXP-DUR: durable reservation ledger — kill -9 recovery gate\n");
    let mut artifact = Artifact::new(
        "exp_crash_recovery",
        "mixed (digests; req/s)",
        "SIGKILL the transit bbd mid-run, restart on the same --data-dir, \
         and compare the final ledger digest + committed bandwidth against \
         a never-killed control executing the identical schedule; plus \
         FileStore-vs-MemStore burst throughput (measured, not gated)",
    );
    let mut failed = false;

    // Part 1 — the crash-recovery gate.
    println!("crash recovery (wave 1 = {WAVE1}, SIGKILL transit, restart, wave 2 = {WAVE2}):");
    let dir_test = tempdir("killed");
    let dir_ctrl = tempdir("control");
    let test = chain_run(&bbd, true, &dir_test);
    let control = chain_run(&bbd, false, &dir_ctrl);
    let _ = std::fs::remove_dir_all(&dir_test);
    let _ = std::fs::remove_dir_all(&dir_ctrl);
    match (&test, &control) {
        (Ok(test), Ok(control)) => {
            let widths = [22, 66, 11, 14];
            table_header(
                &["run", "ledger digest", "committed", "committed_bps"],
                &widths,
            );
            for (label, o) in [("killed + recovered", test), ("control (no kill)", control)] {
                table_row(
                    &[
                        label.to_string(),
                        o.digest.clone(),
                        o.committed.to_string(),
                        o.committed_bps.to_string(),
                    ],
                    &widths,
                );
            }
            println!(
                "  recovery: {} WAL records replayed on top of the last snapshot in {} us",
                test.recovered_records,
                test.replay_ns / 1_000
            );
            let digests_match = test.digest == control.digest;
            let bw_match = test.committed_bps == control.committed_bps;
            let fidelity = test.post_recovery_digest.is_some()
                && test.post_recovery_digest == test.pre_kill_digest;
            if !digests_match || !bw_match || !fidelity {
                eprintln!(
                    "\nFAIL: recovered ledger diverged from the control \
                     (digest match: {digests_match}, committed_bps match: {bw_match}, \
                     pre-kill fidelity: {fidelity})"
                );
                failed = true;
            } else {
                println!("  PASS: recovered ledger is byte-identical to the never-killed control");
            }
            artifact.push(
                Row::new()
                    .field("section", "crash_recovery")
                    .field("wave1", WAVE1)
                    .field("wave2", WAVE2)
                    .field("test_digest", test.digest.clone())
                    .field("control_digest", control.digest.clone())
                    .field("test_committed_bps", test.committed_bps)
                    .field("control_committed_bps", control.committed_bps)
                    .field("recovered_records", test.recovered_records)
                    .field("replay_ns", test.replay_ns)
                    .field("digests_match", digests_match.to_string())
                    .field("committed_bps_match", bw_match.to_string()),
            );
        }
        _ => {
            if let Err(e) = &test {
                eprintln!("FAIL: killed run: {e}");
            }
            if let Err(e) = &control {
                eprintln!("FAIL: control run: {e}");
            }
            failed = true;
        }
    }

    // Part 2 — durability overhead: file-backed vs in-memory ledger
    // under a reservation burst. Best of three per side.
    println!(
        "\ndurability overhead ({THROUGHPUT_REQUESTS} requests, {} core(s)):",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let best = |file: bool| {
        (0..THROUGHPUT_TRIALS)
            .map(|_| burst_run(file))
            .fold(0.0f64, f64::max)
    };
    let mem_rps = best(false);
    let file_rps = best(true);
    let gap_pct = (mem_rps - file_rps) / mem_rps * 100.0;
    let widths = [14, 12, 9];
    table_header(&["ledger store", "req/s", "gap(%)"], &widths);
    table_row(
        &["mem".to_string(), format!("{mem_rps:.0}"), "-".to_string()],
        &widths,
    );
    table_row(
        &[
            "file".to_string(),
            format!("{file_rps:.0}"),
            format!("{gap_pct:.1}"),
        ],
        &widths,
    );
    artifact.push(
        Row::new()
            .field("section", "durability_overhead")
            .field("requests", THROUGHPUT_REQUESTS)
            .field("mem_req_per_sec", mem_rps)
            .field("file_req_per_sec", file_rps)
            .field("gap_pct", gap_pct),
    );

    println!();
    let config = Row::new()
        .field("wave1", WAVE1)
        .field("wave2", WAVE2)
        .field("throughput_requests", THROUGHPUT_REQUESTS)
        .field("throughput_trials", THROUGHPUT_TRIALS);
    record("BENCH_durability.json", &artifact, config);

    if failed {
        eprintln!("\nEXP-DUR: FAIL");
        std::process::exit(1);
    }
    println!(
        "\nEXP-DUR: PASS — a SIGKILLed broker recovers to the exact ledger a\n\
         never-killed control reaches."
    );
}
