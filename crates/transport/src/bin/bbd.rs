//! `bbd` — a bandwidth-broker daemon hosting one domain of the
//! deterministic chain scenario over real TCP sockets.
//!
//! Every `bbd` process builds the same seeded scenario
//! ([`qos_core::scenario::build_chain`]), so certificates, SLAs, and
//! routes agree across processes without any shared state. Start one
//! process per domain, wire them with `--peer`/`--accept`, and submit
//! reservations from the source domain with `--submit`; see the README
//! quickstart for a three-terminal loopback demo.
//!
//! ```text
//! bbd --chain 3 --index 0 --listen 127.0.0.1:7001 \
//!     --peer domain-b=127.0.0.1:7002 --submit 4
//! ```

use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_storage::{FileStore, FileStoreOptions, MemStore, SharedStore};
use qos_telemetry::{
    render_prometheus, snapshot_json, EventFamily, FlightRecorder, Registry, StdClock, Telemetry,
    FLIGHT_DEFAULT_CAPACITY,
};
use qos_transport::{BrokerDaemon, Completions, DaemonConfig, TransportOptions};
use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const MBPS: u64 = 1_000_000;

/// Anomaly rule: this many admission refusals inside one second is a
/// denial burst (dumps the flight recorder).
const DENIAL_BURST_THRESHOLD: u64 = 8;
/// Anomaly rule: this many reconnects inside one second is a reconnect
/// storm.
const RECONNECT_STORM_THRESHOLD: u64 = 5;
/// Anomaly rule: this many `fsync_spike` events inside one second means
/// the WAL device has stalled badly enough to dump the flight recorder.
const FSYNC_SPIKE_THRESHOLD: u64 = 10;

/// Minimal signal plumbing: SIGINT/SIGTERM flip an atomic that the main
/// thread's wait loops poll, so the daemon can flush the WAL and cut a
/// final snapshot instead of dying with buffered records. Hand-rolled
/// `signal(2)` FFI because the workspace deliberately has no libc crate;
/// an async-signal-safe store is all the handler does.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}

    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

/// Sleep up to `secs`, polling the stop flag so signals interrupt the
/// wait within ~100ms. Returns early when a signal arrived.
fn sleep_interruptible(secs: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    while std::time::Instant::now() < deadline && !sig::stopped() {
        std::thread::sleep(Duration::from_millis(100));
    }
}

struct Args {
    chain: usize,
    index: usize,
    listen: String,
    peers: Vec<(String, SocketAddr)>,
    accepts: Vec<String>,
    submit: u64,
    submit_from: u64,
    run_secs: Option<u64>,
    linger_secs: Option<u64>,
    metrics: bool,
    admin: Option<String>,
    no_resume: bool,
    data_dir: Option<String>,
}

const USAGE: &str = "bbd — bandwidth-broker daemon over TCP

USAGE:
    bbd --index I [--chain N] [--listen ADDR]
        [--peer DOMAIN=ADDR]... [--accept DOMAIN]...
        [--submit K] [--submit-from N] [--run-secs S] [--linger-secs S]
        [--metrics] [--admin ADDR] [--data-dir DIR]
        [--no-resume]

OPTIONS:
    --chain N          domains in the deterministic chain scenario (default 3)
    --index I          which domain this process hosts (0-based, required)
    --listen ADDR      listen address (default 127.0.0.1:0, printed at startup)
    --peer D=ADDR      dial the daemon hosting domain D at ADDR (repeatable)
    --accept D         expect an inbound connection from domain D (repeatable)
    --submit K         submit K reservations of 5 Mb/s from alice, wait for
                       their completions, then exit (source domain only)
    --submit-from N    offset the submitted reservation ids by N, so a
                       restarted source can submit a second wave without
                       colliding with ids already in the ledger
    --run-secs S       exit after S seconds instead of running forever
    --linger-secs S    after --submit completions, keep serving S seconds
                       before exiting (lets admin-plane scrapers collect)
    --metrics          print a metrics snapshot (JSON) and write a
                       Prometheus exposition (METRICS_bbd.prom) at exit
    --admin ADDR       serve the introspection plane at ADDR on the
                       reactor: /metrics /metrics.json /healthz /storage
                       /trace/<id> /flight /flight.tsv. Implies a metrics
                       registry, per-RAR trace spans, and a flight
                       recorder with anomaly monitors (denial bursts,
                       reconnect storms, and fsync stalls dump
                       FLIGHT_<domain>_anomaly.json)
    --data-dir DIR     durable reservation ledger (DESIGN.md §D13): append
                       every admission verdict to a write-ahead log under
                       DIR, replay it at startup, and cut a final snapshot
                       on SIGINT/SIGTERM. Without this flag the ledger is
                       an in-memory no-op store (counters only)
    --no-resume        disable session-resumption tickets (every reconnect
                       runs the full signature handshake); all daemons of a
                       mesh must agree on this flag
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        chain: 3,
        index: usize::MAX,
        listen: "127.0.0.1:0".to_string(),
        peers: Vec::new(),
        accepts: Vec::new(),
        submit: 0,
        submit_from: 0,
        run_secs: None,
        linger_secs: None,
        metrics: false,
        admin: None,
        no_resume: false,
        data_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--chain" => args.chain = value("--chain")?.parse().map_err(|e| format!("{e}"))?,
            "--index" => args.index = value("--index")?.parse().map_err(|e| format!("{e}"))?,
            "--listen" => args.listen = value("--listen")?,
            "--peer" => {
                let v = value("--peer")?;
                let (d, a) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--peer wants DOMAIN=ADDR, got {v}"))?;
                let addr = a
                    .parse()
                    .map_err(|e| format!("bad peer address {a}: {e}"))?;
                args.peers.push((d.to_string(), addr));
            }
            "--accept" => args.accepts.push(value("--accept")?),
            "--submit" => args.submit = value("--submit")?.parse().map_err(|e| format!("{e}"))?,
            "--submit-from" => {
                args.submit_from = value("--submit-from")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--run-secs" => {
                args.run_secs = Some(value("--run-secs")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--linger-secs" => {
                args.linger_secs = Some(
                    value("--linger-secs")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--metrics" => args.metrics = true,
            "--admin" => args.admin = Some(value("--admin")?),
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--no-resume" => args.no_resume = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.index == usize::MAX {
        return Err("--index is required".to_string());
    }
    if args.index >= args.chain {
        return Err(format!(
            "--index {} out of range for a {}-domain chain",
            args.index, args.chain
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bbd: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    sig::install();

    // Telemetry comes up before the chain so the broker nodes themselves
    // are instrumented, not just the transport around them. `--admin`
    // implies the full introspection plane: registry, per-RAR trace
    // spans, and a flight recorder.
    let registry = (args.metrics || args.admin.is_some()).then(Registry::new);
    let flight = args
        .admin
        .is_some()
        .then(|| FlightRecorder::new(FLIGHT_DEFAULT_CAPACITY));
    let mut telemetry = match &registry {
        Some(r) => Telemetry::with_registry(Arc::clone(r)),
        None => Telemetry::disabled(),
    };
    if let Some(f) = &flight {
        telemetry = telemetry.with_flight(Arc::clone(f));
    }

    // The same seeds in every process: certificates and SLAs agree
    // across daemons with no shared state.
    let mut s = build_chain(ChainOptions {
        domains: args.chain,
        sla_rate_bps: 1000 * MBPS,
        telemetry: telemetry.clone(),
        tracing: args.admin.is_some(),
        ..ChainOptions::default()
    });
    let domain = s.domains[args.index].clone();

    if let Some(f) = &flight {
        // Anomaly rules: a burst of refusals or a storm of reconnects
        // dumps the flight recorder to disk, capturing the events that
        // led up to it before the ring overwrites them.
        f.monitor(
            EventFamily::Admission,
            Some("refused"),
            DENIAL_BURST_THRESHOLD,
            1_000_000_000,
        );
        f.monitor(
            EventFamily::Reconnect,
            None,
            RECONNECT_STORM_THRESHOLD,
            1_000_000_000,
        );
        f.monitor(
            EventFamily::Storage,
            Some("fsync_spike"),
            FSYNC_SPIKE_THRESHOLD,
            1_000_000_000,
        );
        let dump_domain = domain.clone();
        f.set_anomaly_hook(move |reason, recorder| {
            let path = format!("FLIGHT_{dump_domain}_anomaly.json");
            if std::fs::write(&path, recorder.dump_json()).is_ok() {
                eprintln!("bbd: anomaly ({reason}); flight recorder dumped to {path}");
            }
        });
    }

    // Sign submissions against the source node before it moves into the
    // daemon. `--submit-from` offsets the ids so a restarted source can
    // push a second wave on top of a recovered ledger: the reservation
    // id downstream brokers key their ledgers on is the scenario's rar
    // id, so the counter must skip past the ids the first life used —
    // a durable transit broker remembers them and would deny the wave
    // as duplicates.
    for _ in 0..args.submit_from {
        s.next_rar_id();
    }
    let mut rars = Vec::new();
    for i in 0..args.submit {
        let spec = s.spec(
            "alice",
            1000 + args.submit_from + i,
            5 * MBPS,
            Timestamp(0),
            3600,
        );
        rars.push(s.users["alice"].sign_request(spec, &s.nodes[args.index]));
    }
    let user_cert = s.users["alice"].cert.clone();

    let identity = s
        .identities()
        .remove(&domain)
        .expect("the chain has this domain");
    let mut node = s.nodes.remove(args.index);

    // The durable reservation ledger (DESIGN.md §D13). `--data-dir`
    // selects the segmented WAL + snapshot store; otherwise a MemStore
    // keeps the same append path live at in-memory cost so the two
    // configurations stay directly comparable.
    let store: SharedStore = match &args.data_dir {
        Some(dir) => match FileStore::open(dir, FileStoreOptions::default()) {
            Ok(fs) => Arc::new(fs),
            Err(e) => {
                eprintln!("bbd: cannot open data dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Arc::new(MemStore::default()),
    };
    store.set_telemetry(&telemetry, &domain);
    let recovered = store.take_recovered();
    if !recovered.is_empty() {
        let snapshot_seq = recovered.snapshot.as_ref().map(|sn| sn.seq).unwrap_or(0);
        let started = StdClock::now();
        node.recover_from(&recovered);
        let replay_ns = StdClock::now().saturating_sub(started);
        store.note_recovery_ns(replay_ns);
        println!(
            "bbd: {domain} recovered {} WAL records on top of snapshot seq {} in {} us",
            recovered.records.len(),
            snapshot_seq,
            replay_ns / 1_000,
        );
    }
    // Attach only after replay: recovery must not re-journal itself.
    node.attach_store(Arc::clone(&store));
    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bbd: cannot listen on {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };

    let admin_listener = match &args.admin {
        Some(addr) => match TcpListener::bind(addr) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("bbd: cannot bind admin listener on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let completions = Arc::new(Completions::new());
    let daemon = match BrokerDaemon::start(
        node,
        DaemonConfig {
            identity,
            ca_key: s.ca_key,
            listener,
            connect_to: args.peers.iter().cloned().collect(),
            accept_from: args.accepts.clone(),
            completions: Arc::clone(&completions),
            telemetry,
            options: TransportOptions {
                resume: !args.no_resume,
                ..TransportOptions::default()
            },
            admin: admin_listener,
        },
    ) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bbd: failed to start daemon for {domain}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("bbd: {domain} listening on {}", daemon.local_addr());
    if let Some(admin) = daemon.admin_addr() {
        println!("bbd: {domain} admin plane on http://{admin}");
    }

    if !args.peers.is_empty() {
        if daemon.wait_connected(Duration::from_secs(30)) {
            println!(
                "bbd: {domain} connected to all {} peer(s)",
                args.peers.len()
            );
        } else {
            eprintln!("bbd: {domain} could not reach all peers within 30s");
            daemon.shutdown();
            return ExitCode::FAILURE;
        }
    }

    let mut failed = 0u64;
    if args.submit > 0 {
        // Pipelined: the whole burst enters the daemon at once so its
        // ingress can batch-verify and its writers can coalesce.
        daemon.submit_all(
            rars.into_iter()
                .map(|rar| (rar, user_cert.clone()))
                .collect(),
        );
        let want = args.submit as usize;
        let done = completions.wait(want, Duration::from_secs(30));
        let timed_out = done.len() < want;
        for (_, c) in done {
            match c {
                Completion::Reservation { rar_id, result } => match result {
                    Ok(_) => println!("bbd: rar {} approved", rar_id.0),
                    Err(d) => {
                        failed += 1;
                        println!("bbd: rar {} denied: {}", rar_id.0, d.reason);
                    }
                },
                Completion::TunnelFlow { flow, accepted, .. } => {
                    println!("bbd: tunnel flow {flow} accepted={accepted}");
                }
            }
        }
        if timed_out {
            eprintln!("bbd: timed out waiting for completions");
            failed += 1;
        }
        if let Some(secs) = args.linger_secs {
            // Keep the daemon (and its admin plane) up so external
            // scrapers can collect spans from the completed run.
            sleep_interruptible(secs);
        }
    } else {
        match args.run_secs {
            Some(secs) => sleep_interruptible(secs),
            None => {
                // Serve until signalled (or killed outright).
                while !sig::stopped() {
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    }

    if sig::stopped() {
        println!("bbd: {domain} shutting down on signal");
    }
    // Graceful teardown: stop the daemon, cut a final snapshot (which
    // folds in live ticket state via the snapshot hook), and fsync
    // whatever the group-commit buffer still holds.
    let node = daemon.shutdown();
    node.snapshot_now();
    store.flush();
    if args.metrics {
        if let Some(registry) = &registry {
            println!("{}", snapshot_json(registry));
            // The same registry in Prometheus text exposition, next to
            // the process (scrape-file form of the /metrics endpoint).
            let prom = "METRICS_bbd.prom";
            if let Err(e) = std::fs::write(prom, render_prometheus(registry)) {
                eprintln!("bbd: could not write {prom}: {e}");
            }
        }
    }
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
