//! A broker is one thread: each daemon of a mesh runs its broker on its
//! reactor thread, and no admission worker thread exists beside it
//! (DESIGN.md §D32), nor a thread per handshake (§D36). In a test binary
//! of its own, its tests one at a time, so that the threads it counts are
//! one mesh's and no other test's.

use integration_tests::{build_chain, ChainOptions};
use qos_transport::TcpMesh;
use std::io::Read;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One mesh at a time in this process.
static LOCK: Mutex<()> = Mutex::new(());

/// The name of every thread of this process. The kernel keeps the first
/// 15 bytes of a thread's name, so callers match by prefix.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn each_domain_runs_one_reactor_thread_and_no_worker_thread() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = build_chain(ChainOptions::default());
    let mut mesh = TcpMesh::new();
    let ids = s.identities();
    mesh.spawn(std::mem::take(&mut s.nodes), ids, &s.links, s.ca_key)
        .expect("loopback mesh comes up");
    let names = thread_names();
    let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    assert_eq!(count("bb-reactor-"), 3, "one reactor a domain: {names:?}");
    assert_eq!(
        count("bb-worker-"),
        0,
        "a worker beside a reactor: {names:?}"
    );
    mesh.shutdown();
}

/// Whether `name` is one of the test harness's own threads: the main
/// thread, which carries the process's name, or a thread a test of this
/// binary runs on, named after the test.
fn harness(name: &str) -> bool {
    let process = std::fs::read_to_string("/proc/self/comm").unwrap_or_default();
    let tests = [
        "each_domain_runs_one_reactor_thread_and_no_worker_thread",
        "a_silent_peer_costs_no_thread",
    ];
    name == process.trim_end() || tests.iter().any(|t| t.starts_with(name))
}

/// A host that opens connections to a daemon's listener and never says a
/// word costs the daemon a socket and a handshake deadline, not a
/// thread: no `bb-handshake` thread exists, the process runs the mesh's
/// reactors and the harness's own threads and nothing else, and the
/// daemon closes the sockets once their deadline has passed.
#[test]
fn a_silent_peer_costs_no_thread() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = build_chain(ChainOptions::default());
    let mut mesh = TcpMesh::new();
    let ids = s.identities();
    mesh.spawn(std::mem::take(&mut s.nodes), ids, &s.links, s.ca_key)
        .expect("loopback mesh comes up");
    let addr = mesh.daemon("domain-b").local_addr();
    let silent: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("the listener takes a connection"))
        .collect();
    // However long the daemon has had to take them in, nothing starts.
    // The samples are checked after the mesh is down, so that a failure
    // leaves no reactor behind for the other test to count.
    let mut samples = Vec::new();
    let deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < deadline {
        samples.push(thread_names());
        std::thread::sleep(Duration::from_millis(20));
    }
    let connected = mesh.wait_connected(Duration::from_secs(5));
    // The handshake deadline (5 s) ends each silent connection.
    let waited = Instant::now();
    let mut answered = false;
    for mut socket in silent {
        socket
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("a read timeout");
        answered |= matches!(socket.read(&mut [0u8; 1]), Ok(n) if n > 0);
    }
    let took = waited.elapsed();
    mesh.shutdown();
    for names in samples {
        assert!(
            !names.iter().any(|n| n.starts_with("bb-handshake")),
            "a thread for a handshake: {names:?}"
        );
        let ours: Vec<&String> = names.iter().filter(|n| !harness(n)).collect();
        assert!(
            ours.iter().all(|n| n.starts_with("bb-reactor-")),
            "a thread beside the reactors: {ours:?}"
        );
        assert_eq!(ours.len(), 3, "one reactor a domain: {names:?}");
    }
    assert!(connected, "the chain's links stay up");
    assert!(!answered, "a silent socket was answered");
    assert!(
        took < Duration::from_secs(20),
        "no deadline closed the silent sockets: {took:?}"
    );
}
