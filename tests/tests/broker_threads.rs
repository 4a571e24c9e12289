//! A broker is one thread: each daemon of a mesh runs its broker on its
//! reactor thread, and no admission worker thread exists beside it
//! (DESIGN.md §D32). In a test binary of its own, so that the threads it
//! counts are this mesh's and no other test's.

use integration_tests::{build_chain, spawn_chain, ChainOptions};
use qos_transport::TcpMesh;

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
    let mut s = build_chain(ChainOptions::default());
    let mesh = spawn_chain(&mut s, TcpMesh::new());
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
