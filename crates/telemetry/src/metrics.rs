//! Lock-free metric instruments and the registry that exposes them.
//!
//! Instruments are thin handles around `Arc`'d atomics: resolving a
//! metric (name + label set) takes the registry lock once, after which
//! every increment/observation is a relaxed atomic op. A disabled handle
//! (the default) holds no allocation at all and compiles down to a
//! branch on `None` — the zero-overhead path for nodes without a
//! registry installed.
//!
//! Counters can also be *registered from existing storage*
//! ([`Registry::register_counter`]): the caller keeps its own
//! `Arc<AtomicU64>` and the registry renders the very same cells. That
//! is how `NodeCounters` folds into the registry without a second copy
//! that could diverge.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Each power-of-two range is split into `2^SUB_BITS` linear
/// sub-buckets, so a quantile read from a bucket bound overstates the
/// true value by at most `1/2^SUB_BITS` (12.5%) — tight enough that a
/// latency histogram's p50 and p99 stay distinguishable instead of
/// collapsing onto the same power of two.
const SUB_BITS: u32 = 3;

/// Sub-buckets per power-of-two range (`2^SUB_BITS`).
const SUB_COUNT: usize = 1 << SUB_BITS;

/// Number of log-linear histogram buckets: values `0..8` get exact
/// buckets, then every power-of-two range up to `u64::MAX` contributes
/// [`SUB_COUNT`] linear sub-buckets (8 + 61×8 = 496). Still one flat
/// atomic array covering one nanosecond to five centuries.
pub const HISTOGRAM_BUCKETS: usize = SUB_COUNT + 61 * SUB_COUNT;

/// A monotonically increasing counter. `Default` is a detached no-op.
#[derive(Clone, Default, Debug)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores all operations (no registry installed).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Wrap existing shared storage.
    pub fn from_arc(cell: Arc<AtomicU64>) -> Self {
        Counter(Some(cell))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a detached handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Is this handle wired to a registry?
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

/// A value that can go up and down. `Default` is a detached no-op.
#[derive(Clone, Default, Debug)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A handle that ignores all operations.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Track a high-water mark: raise the gauge to `v` if it is below.
    pub fn record_max(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a detached handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Shared storage of one histogram: fixed log-linear buckets plus sum,
/// count, and exact min/max, all relaxed atomics.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Exact smallest observation (`u64::MAX` until the first one), so
    /// snapshots can report raw extremes alongside the bucketed
    /// percentiles, which only resolve to a bucket's upper bound.
    min: AtomicU64,
    /// Exact largest observation (0 until the first one).
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    /// Consistent-enough read of (buckets, count, sum) for exposition.
    pub(crate) fn snapshot(&self) -> ([u64; HISTOGRAM_BUCKETS], u64, u64) {
        (
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
        )
    }

    /// Wrap this storage in a live handle (for exposition helpers).
    pub(crate) fn handle(self: &Arc<Self>) -> Histogram {
        Histogram(Some(self.clone()))
    }
}

/// Index of the log-linear bucket holding `v`.
///
/// Values below [`SUB_COUNT`] get an exact bucket each. Above that, the
/// top [`SUB_BITS`]` + 1` significant bits select the bucket: `v`'s
/// power-of-two range (via its leading-zero count) picks a group of
/// [`SUB_COUNT`] buckets, and the next lower bits pick the linear
/// sub-bucket within the group.
pub fn bucket_index(v: u64) -> usize {
    let v_usize = v as usize;
    if v_usize < SUB_COUNT {
        return v_usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    (v >> shift) as usize + (shift as usize) * SUB_COUNT
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_bound(i: usize) -> u64 {
    if i < SUB_COUNT {
        return i as u64;
    }
    let shift = (i / SUB_COUNT) - 1;
    let top = (i - shift * SUB_COUNT) as u128;
    (((top + 1) << shift) - 1).min(u64::MAX as u128) as u64
}

/// A fixed-bucket log-linear histogram with percentile queries.
/// `Default` is a detached no-op.
#[derive(Clone, Default, Debug)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that ignores all operations.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.min.fetch_min(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }

    /// Exact smallest observation (0 when empty) — unlike the
    /// percentiles, this is the raw value, not a bucket bound.
    pub fn min(&self) -> u64 {
        let Some(h) = &self.0 else {
            return 0;
        };
        if h.count.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        h.min.load(Ordering::Relaxed)
    }

    /// Exact largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.max.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the upper bound of the
    /// bucket containing the rank-`ceil(q·count)` observation. Returns 0
    /// when empty. With log-linear buckets the answer overstates the
    /// true value by at most 12.5% — tight enough that nearby
    /// percentiles of a real latency distribution stay distinct.
    pub fn quantile(&self, q: f64) -> u64 {
        let Some(h) = &self.0 else {
            return 0;
        };
        let n = h.count.load(Ordering::Relaxed);
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, b) in h.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_bound(i);
            }
        }
        u64::MAX
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile upper bound — the tail the admin plane reports
    /// beyond p99.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// One metric's storage inside a family.
#[derive(Clone, Debug)]
pub(crate) enum MetricCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

/// What kind of metric a family holds (Prometheus TYPE line).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Log-scale histogram.
    Histogram,
}

impl MetricKind {
    /// Prometheus TYPE keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A named family: one kind, one help string, one metric per label set.
#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    /// Keyed by the label set sorted by label name — exposition order is
    /// therefore deterministic regardless of resolution order.
    pub(crate) metrics: BTreeMap<Vec<(String, String)>, MetricCell>,
}

/// The metrics registry: families by name, metrics by label set.
///
/// Resolution (`counter`/`gauge`/`histogram`) is idempotent: the same
/// (name, labels) always yields a handle onto the same storage, so any
/// subsystem can resolve independently and the values aggregate.
#[derive(Default, Debug)]
pub struct Registry {
    pub(crate) families: Mutex<BTreeMap<String, Family>>,
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

impl Registry {
    /// An empty registry behind an `Arc`, ready to share across threads.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn resolve(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricCell,
    ) -> MetricCell {
        debug_assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        let mut fams = self.families.lock().expect("registry poisoned");
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            metrics: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric family {name} registered twice with different kinds"
        );
        fam.metrics
            .entry(label_key(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Resolve (or create) a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.resolve(name, help, MetricKind::Counter, labels, || {
            MetricCell::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            MetricCell::Counter(c) => Counter(Some(c)),
            _ => unreachable!("kind checked in resolve"),
        }
    }

    /// Register an *existing* `Arc<AtomicU64>` as a counter, so the
    /// registry exposes storage the caller already owns — one cell, no
    /// copy to diverge. Returns a handle onto whichever cell the family
    /// ends up holding (the given one, unless the label set was already
    /// registered).
    pub fn register_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        cell: Arc<AtomicU64>,
    ) -> Counter {
        match self.resolve(name, help, MetricKind::Counter, labels, || {
            MetricCell::Counter(cell)
        }) {
            MetricCell::Counter(c) => Counter(Some(c)),
            _ => unreachable!("kind checked in resolve"),
        }
    }

    /// Resolve (or create) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.resolve(name, help, MetricKind::Gauge, labels, || {
            MetricCell::Gauge(Arc::new(AtomicI64::new(0)))
        }) {
            MetricCell::Gauge(g) => Gauge(Some(g)),
            _ => unreachable!("kind checked in resolve"),
        }
    }

    /// Resolve (or create) a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.resolve(name, help, MetricKind::Histogram, labels, || {
            MetricCell::Histogram(Arc::new(HistogramCore::default()))
        }) {
            MetricCell::Histogram(h) => Histogram(Some(h)),
            _ => unreachable!("kind checked in resolve"),
        }
    }

    /// Family names currently registered (exposition order).
    pub fn family_names(&self) -> Vec<String> {
        self.families
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Read one counter's value, if that (name, labels) is registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let fams = self.families.lock().expect("registry poisoned");
        match fams.get(name)?.metrics.get(&label_key(labels))? {
            MetricCell::Counter(c) => Some(c.load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Read one gauge's value, if that (name, labels) is registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let fams = self.families.lock().expect("registry poisoned");
        match fams.get(name)?.metrics.get(&label_key(labels))? {
            MetricCell::Gauge(g) => Some(g.load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Read one histogram, if that (name, labels) is registered.
    pub fn histogram_handle(&self, name: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        let fams = self.families.lock().expect("registry poisoned");
        match fams.get(name)?.metrics.get(&label_key(labels))? {
            MetricCell::Histogram(h) => Some(Histogram(Some(h.clone()))),
            _ => None,
        }
    }
}

/// An optional registry (plus an optional flight recorder): the handle
/// every instrumented subsystem holds.
///
/// [`Telemetry::disabled`] (also `Default`) makes every resolution
/// return a detached no-op instrument — the uninstrumented fast path
/// costs one `None` check per operation and allocates nothing. A
/// [`FlightRecorder`] attached via [`Telemetry::with_flight`] rides the
/// same handle, so event producers reach the recorder through the
/// `Telemetry` they already hold instead of a second plumbing path.
#[derive(Clone, Default, Debug)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
    flight: Option<Arc<crate::recorder::FlightRecorder>>,
}

impl Telemetry {
    /// No registry: every instrument resolved through this handle is a
    /// no-op.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Route instruments into `registry`.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Telemetry {
            registry: Some(registry),
            flight: None,
        }
    }

    /// Attach a flight recorder (builder-style).
    pub fn with_flight(mut self, flight: Arc<crate::recorder::FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The installed registry, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<crate::recorder::FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Is a registry installed?
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Resolve a counter (no-op handle when disabled).
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.registry
            .as_ref()
            .map_or_else(Counter::noop, |r| r.counter(name, help, labels))
    }

    /// Register existing counter storage (no-op handle when disabled).
    pub fn register_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        cell: Arc<AtomicU64>,
    ) -> Counter {
        self.registry.as_ref().map_or_else(Counter::noop, |r| {
            r.register_counter(name, help, labels, cell)
        })
    }

    /// Resolve a gauge (no-op handle when disabled).
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.registry
            .as_ref()
            .map_or_else(Gauge::noop, |r| r.gauge(name, help, labels))
    }

    /// Resolve a histogram (no-op handle when disabled).
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.registry
            .as_ref()
            .map_or_else(Histogram::noop, |r| r.histogram(name, help, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("t_total", "h", &[("domain", "a")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter_value("t_total", &[("domain", "a")]), Some(5));
        let g = reg.gauge("t_depth", "h", &[]);
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        g.record_max(2);
        assert_eq!(g.get(), 4);
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn resolution_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "h", &[("k", "v"), ("a", "b")]);
        // Same labels, different order: same storage.
        let b = reg.counter("x_total", "h", &[("a", "b"), ("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn bucket_boundaries() {
        // Exact buckets below SUB_COUNT.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize, "value {v}");
            assert_eq!(bucket_bound(v as usize), v, "bucket {v}");
        }
        // First log-linear group: 8..=15, one value per bucket.
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_bound(15), 15);
        // Next group halves the resolution: 16 and 17 share a bucket.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_bound(16), 17);
        assert_eq!(bucket_index(18), 17);
        // A large power of two and its bound stay within 12.5%.
        assert_eq!(bucket_index(1 << 20), 144);
        assert_eq!(bucket_bound(144), (1 << 20) + (1 << 17) - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // Every bucket's bound maps back to its own index, and bounds
        // are strictly increasing.
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_index(bucket_bound(i)), i, "bucket {i}");
            if i > 0 {
                assert!(bucket_bound(i) > bucket_bound(i - 1), "bucket {i}");
            }
        }
        // A bound never overstates a value in its bucket by more than
        // 12.5% (spot-checked across the range).
        for v in [9u64, 100, 1000, 16_777_216, 1 << 40, u64::MAX / 3] {
            let bound = bucket_bound(bucket_index(v));
            assert!(bound >= v);
            assert!((bound - v) as f64 <= v as f64 * 0.125, "value {v}");
        }
    }

    #[test]
    fn histogram_percentiles() {
        let reg = Registry::new();
        let h = reg.histogram("lat_ns", "h", &[]);
        // 100 observations: 1..=100.
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // Median rank 50 → value 50 → bucket 48..=51.
        assert_eq!(h.p50(), 51);
        // p95 rank 95 → value 95, exactly a bucket bound.
        assert_eq!(h.p95(), 95);
        // p99 rank 99 → value 99 → bucket 96..=103.
        assert_eq!(h.p99(), 103);
        assert_eq!(h.quantile(1.0), 103);
        // Raw extremes are exact, unlike the bucketed percentiles.
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn histogram_extremes_track_raw_values() {
        let reg = Registry::new();
        let h = reg.histogram("raw_ns", "h", &[]);
        // Empty: both read 0, not the u64::MAX sentinel.
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        h.observe(1_000_003);
        assert_eq!(h.min(), 1_000_003);
        assert_eq!(h.max(), 1_000_003);
        h.observe(17);
        h.observe(2_000_000_011);
        // Exact, even though both land inside wide log-linear buckets.
        assert_eq!(h.min(), 17);
        assert_eq!(h.max(), 2_000_000_011);
        assert!(h.quantile(1.0) >= h.max());
    }

    #[test]
    fn detached_instruments_are_noops() {
        let c = Counter::noop();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(!c.is_live());
        let g = Gauge::noop();
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = Histogram::noop();
        h.observe(123);
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0);
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("a_total", "h", &[]).inc();
        t.histogram("b_ns", "h", &[]).observe(9);
    }

    #[test]
    fn shared_counter_registration() {
        let reg = Registry::new();
        let cell = Arc::new(AtomicU64::new(41));
        let c = reg.register_counter("rx_total", "h", &[("domain", "a")], cell.clone());
        cell.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.get(), 42);
        assert_eq!(reg.counter_value("rx_total", &[("domain", "a")]), Some(42));
    }
}
