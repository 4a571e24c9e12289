//! Monotonic clocks for span timing.
//!
//! Instrumented code asks *a* clock for nanoseconds, not *the* clock,
//! and a broker asks the one its driver passes in: the TCP reactor
//! passes [`StdClock`] (one process-wide epoch, so spans from different
//! threads share a timeline), while the deterministic virtual-time
//! driver passes a [`ManualClock`] advanced by the DES scheduler — the
//! same instrumentation then yields simulated-time telemetry with no
//! code changes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A monotonic nanosecond clock.
pub trait Clock: Send + Sync {
    /// Nanoseconds since this clock's epoch. Monotonic within one clock.
    fn now_ns(&self) -> u64;
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The process monotonic clock. All `StdClock` instances share one
/// epoch (first use), so readings from different threads are directly
/// comparable.
#[derive(Clone, Copy, Default, Debug)]
pub struct StdClock;

impl StdClock {
    /// Read the shared process clock without constructing an instance.
    pub fn now() -> u64 {
        process_epoch().elapsed().as_nanos() as u64
    }
}

impl Clock for StdClock {
    fn now_ns(&self) -> u64 {
        StdClock::now()
    }
}

/// A clock driven by its owner — the DES scheduler, or a test.
///
/// Cloning shares the underlying cell: hand clones to every node and
/// advance them all from one place.
#[derive(Clone, Default, Debug)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move the clock to `ns` (callers are responsible for
    /// monotonicity; the DES scheduler's event clock already is).
    pub fn set_ns(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }

    /// Advance by `ns`.
    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A clock that never advances: it reads 0. What is timed on it takes
/// no time, so an entry point with no driver behind it runs on it.
#[derive(Clone, Copy, Default, Debug)]
pub struct Stopped;

impl Clock for Stopped {
    fn now_ns(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_clock_is_monotonic_and_shared() {
        let a = StdClock.now_ns();
        let b = StdClock::now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_shares_state_across_clones() {
        let c = ManualClock::new();
        let c2 = c.clone();
        c.set_ns(100);
        assert_eq!(c2.now_ns(), 100);
        c2.advance(5);
        assert_eq!(c.now_ns(), 105);
    }
}
