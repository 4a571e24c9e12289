//! Shared helpers for the example binaries.

/// Pretty-print a rate in Mb/s.
pub fn mbps(bps: u64) -> String {
    format!("{:.1} Mb/s", bps as f64 / 1e6)
}
