//! What the benchmark asks of the operating system: CPU pinning, process
//! CPU time, peak resident memory, and a description of the host for the
//! result record. Linux only; elsewhere pinning fails and the readings
//! are zero, which the result record states.

use std::process::Command;

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long};

    /// Room for 1024 CPUs, the kernel's default `CPU_SETSIZE`.
    pub type CpuSet = [u64; 16];

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        pub fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
}

/// The affinity mask to restore with [`unpin`].
#[cfg(target_os = "linux")]
pub struct Unpinned(sys::CpuSet);
#[cfg(not(target_os = "linux"))]
pub struct Unpinned(());

/// Restrict the calling thread — and every thread it creates from now
/// on — to the lowest-numbered CPU it may run on. Returns the previous
/// mask, or `None` when the kernel refused.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<Unpinned> {
    let mut old: sys::CpuSet = [0; 16];
    // SAFETY: `old` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&old), old.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = old.iter().enumerate().find(|(_, w)| **w != 0)?;
    let mut one: sys::CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    // SAFETY: `one` is a live buffer of exactly the size passed.
    (unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0)
        .then_some(Unpinned(old))
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<Unpinned> {
    None
}

/// Undo [`pin_to_one_cpu`] for the calling thread and threads it
/// creates afterwards.
#[cfg(target_os = "linux")]
pub fn unpin(saved: Unpinned) {
    // SAFETY: `saved.0` is a live buffer of exactly the size passed.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&saved.0), saved.0.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
pub fn unpin(_saved: Unpinned) {}

/// CPU time the whole process (all threads) has used so far, in
/// nanoseconds.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`.
    if unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on, as of the first call — `main` makes it
/// before any pinning.
pub fn cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(cpu model, rustc -V, git sha)` for the result record; each
/// `"unknown"` where it cannot be read (a benchmark checkout is not a
/// git repository).
pub fn describe() -> (String, String, String) {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (
        model,
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
    )
}
