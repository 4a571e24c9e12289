//! Flight recorder: a lock-free bounded ring of structured runtime
//! events (DESIGN.md §D12).
//!
//! Metrics aggregate and spans narrate one request; the flight recorder
//! journals *discrete runtime events* — admission verdicts, reconnects,
//! retransmits, duplicate drops, backoff transitions,
//! handshake failures — into a fixed-capacity ring that is cheap enough
//! to leave on in production and dumpable at any moment through the
//! admin plane's `/flight` endpoint.
//!
//! Two properties matter more than raw fidelity:
//!
//! * **Bounded, never blocking.** Appends claim a slot with one
//!   `fetch_add` on a global cursor and then touch only that slot's
//!   mutex — writers to different slots never contend, and a full ring
//!   overwrites the oldest entry instead of growing or stalling the
//!   data path.
//! * **Drops are visible.** Every event carries a per-family sequence
//!   number assigned at append time, and each overwrite increments the
//!   evicted family's drop counter. A consumer can always tell *that*
//!   and *what kind of* history it lost, even though the ring itself
//!   cannot say what the lost events contained.
//!
//! Timestamps come from the injected [`Clock`], so deterministic
//! simulations (and tests) drive the recorder with a [`ManualClock`]
//! and byte-identical dumps fall out.
//!
//! [`ManualClock`]: crate::ManualClock

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, StdClock};
use crate::expo::json_escape;
use crate::trace::{Span, TraceId};

/// Default ring capacity (events). Roughly a few seconds of history at
/// steady state; bursts overwrite the oldest entries.
pub const FLIGHT_DEFAULT_CAPACITY: usize = 4096;

/// Number of event families (fixed — per-family counters are arrays).
pub const FAMILY_COUNT: usize = 10;

/// The kind of runtime event a [`FlightEvent`] records. Families are
/// the unit of sequence numbering and drop accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventFamily {
    /// A completed trace [`Span`] exported by a broker.
    Span,
    /// An admission verdict (label `held` / `refused`).
    Admission,
    /// A destination stored a verified envelope signer path.
    Path,
    /// A peer link (re-)established after having been up before.
    Reconnect,
    /// Unacked frames retransmitted on a fresh connection.
    Retransmit,
    /// An already-delivered frame arrived again and was dropped.
    DuplicateDrop,
    /// A dial failed and the connector moved to a longer backoff.
    Backoff,
    /// A handshake (full or resumed) failed outright.
    HandshakeFail,
    /// Durable-ledger lifecycle: append stalls, fsync latency spikes,
    /// snapshots, recovery begin/end (DESIGN.md §D13).
    Storage,
    /// The recorder itself flagged an anomaly (burst thresholds).
    Anomaly,
}

impl EventFamily {
    /// All families, in index order.
    pub const ALL: [EventFamily; FAMILY_COUNT] = [
        EventFamily::Span,
        EventFamily::Admission,
        EventFamily::Path,
        EventFamily::Reconnect,
        EventFamily::Retransmit,
        EventFamily::DuplicateDrop,
        EventFamily::Backoff,
        EventFamily::HandshakeFail,
        EventFamily::Storage,
        EventFamily::Anomaly,
    ];

    /// Stable lowercase name (dumps, anomaly reasons).
    pub fn as_str(&self) -> &'static str {
        match self {
            EventFamily::Span => "span",
            EventFamily::Admission => "admission",
            EventFamily::Path => "path",
            EventFamily::Reconnect => "reconnect",
            EventFamily::Retransmit => "retransmit",
            EventFamily::DuplicateDrop => "duplicate_drop",
            EventFamily::Backoff => "backoff",
            EventFamily::HandshakeFail => "handshake_fail",
            EventFamily::Storage => "storage",
            EventFamily::Anomaly => "anomaly",
        }
    }

    fn index(&self) -> usize {
        Self::ALL
            .iter()
            .position(|f| f == self)
            .expect("family in ALL")
    }
}

/// One structured runtime event.
///
/// `seq` and `ts_ns` are assigned by [`FlightRecorder::record`]; the
/// remaining fields are set by the producer (builder-style setters keep
/// call sites one expression).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Which family the event belongs to.
    pub family: EventFamily,
    /// Per-family sequence number (0-based, assigned at append).
    pub seq: u64,
    /// Recorder [`Clock`] nanoseconds at append time.
    pub ts_ns: u64,
    /// Producer wall clock (protocol `Timestamp` seconds), 0 if unset.
    pub wall_s: u64,
    /// The domain that recorded the event.
    pub domain: String,
    /// The request's trace, when the event is request-scoped.
    pub trace: Option<TraceId>,
    /// The request id (RAR id), 0 when not request-scoped.
    pub request: u64,
    /// Short family-specific label (span kind, verdict, peer…).
    pub label: String,
    /// Free-form detail.
    pub detail: String,
    /// Measured interval start ([`Clock`] ns), 0 when not an interval.
    pub start_ns: u64,
    /// Measured interval end ([`Clock`] ns), 0 when not an interval.
    pub end_ns: u64,
}

impl FlightEvent {
    /// A new event with `seq`/`ts_ns` left for the recorder to fill.
    pub fn new(family: EventFamily, domain: impl Into<String>, label: impl Into<String>) -> Self {
        FlightEvent {
            family,
            seq: 0,
            ts_ns: 0,
            wall_s: 0,
            domain: domain.into(),
            trace: None,
            request: 0,
            label: label.into(),
            detail: String::new(),
            start_ns: 0,
            end_ns: 0,
        }
    }

    /// Tag with a trace id.
    pub fn trace(mut self, trace: TraceId) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Tag with a request (RAR) id.
    pub fn request(mut self, request: u64) -> Self {
        self.request = request;
        self
    }

    /// Attach free-form detail.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// Attach the producer's wall-clock seconds.
    pub fn wall(mut self, wall_s: u64) -> Self {
        self.wall_s = wall_s;
        self
    }

    /// Attach a measured interval.
    pub fn window(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.start_ns = start_ns;
        self.end_ns = end_ns;
        self
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"family\":\"{}\",\"seq\":{},\"ts_ns\":{},\"wall_s\":{},\"domain\":\"{}\",\
             \"trace\":{},\"request\":{},\"label\":\"{}\",\"detail\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            self.family.as_str(),
            self.seq,
            self.ts_ns,
            self.wall_s,
            json_escape(&self.domain),
            match self.trace {
                Some(t) => format!("\"{t}\""),
                None => "null".to_string(),
            },
            self.request,
            json_escape(&self.label),
            json_escape(&self.detail),
            self.start_ns,
            self.end_ns
        )
    }

    fn to_tsv(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\")
                .replace('\t', "\\t")
                .replace('\n', "\\n")
        }
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.family.as_str(),
            self.seq,
            self.ts_ns,
            self.wall_s,
            esc(&self.domain),
            match self.trace {
                Some(t) => format!("{t}"),
                None => "-".to_string(),
            },
            self.request,
            esc(&self.label),
            esc(&self.detail),
            self.start_ns,
            self.end_ns
        )
    }
}

/// Column header matching [`FlightEvent::to_tsv`] (the `/flight.tsv`
/// endpoint's first line).
pub const FLIGHT_TSV_HEADER: &str =
    "family\tseq\tts_ns\twall_s\tdomain\ttrace\trequest\tlabel\tdetail\tstart_ns\tend_ns";

/// One anomaly rule: `threshold` events of `family` (optionally with a
/// specific label) inside a sliding `window_ns` fire the anomaly hook,
/// at most once per window.
struct Monitor {
    family: EventFamily,
    label: Option<String>,
    threshold: u64,
    window_ns: u64,
    window_start: u64,
    count: u64,
    fired_this_window: bool,
}

type AnomalyHook = Box<dyn Fn(&str, &FlightRecorder) + Send + Sync>;

/// One ring slot: the event plus its global append position, which
/// orders a dump without any cross-slot coordination at append time.
type Slot = Mutex<Option<(u64, FlightEvent)>>;

/// The bounded event ring. See the module docs for the design.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Global append cursor; `cursor % capacity` picks the slot.
    cursor: AtomicU64,
    seqs: [AtomicU64; FAMILY_COUNT],
    overwritten: [AtomicU64; FAMILY_COUNT],
    clock: Arc<dyn Clock>,
    monitors: Mutex<Vec<Monitor>>,
    anomaly_hook: Mutex<Option<AnomalyHook>>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder on the process clock.
    pub fn new(capacity: usize) -> Arc<Self> {
        Self::with_clock(capacity, Arc::new(StdClock))
    }

    /// A recorder timestamping with `clock` (deterministic dumps under
    /// a [`crate::ManualClock`]).
    pub fn with_clock(capacity: usize, clock: Arc<dyn Clock>) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            seqs: std::array::from_fn(|_| AtomicU64::new(0)),
            overwritten: std::array::from_fn(|_| AtomicU64::new(0)),
            clock,
            monitors: Mutex::new(Vec::new()),
            anomaly_hook: Mutex::new(None),
        })
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (not the ring occupancy).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Next sequence number for `family` — equivalently, how many events
    /// of that family were ever recorded.
    pub fn seq(&self, family: EventFamily) -> u64 {
        self.seqs[family.index()].load(Ordering::Relaxed)
    }

    /// How many events of `family` were overwritten by the ring bound.
    pub fn dropped(&self, family: EventFamily) -> u64 {
        self.overwritten[family.index()].load(Ordering::Relaxed)
    }

    /// Install an anomaly rule: `threshold` events of `family` (with
    /// label `label`, or any label when `None`) within `window_ns` fire
    /// the hook once per window with a human-readable reason.
    pub fn monitor(
        &self,
        family: EventFamily,
        label: Option<&str>,
        threshold: u64,
        window_ns: u64,
    ) {
        self.monitors.lock().expect("monitors").push(Monitor {
            family,
            label: label.map(|s| s.to_string()),
            threshold: threshold.max(1),
            window_ns: window_ns.max(1),
            window_start: 0,
            count: 0,
            fired_this_window: false,
        });
    }

    /// Install the anomaly hook (replacing any previous one). The hook
    /// runs on the recording thread with no recorder locks held, so it
    /// may call [`FlightRecorder::dump_json`].
    pub fn set_anomaly_hook(&self, hook: impl Fn(&str, &FlightRecorder) + Send + Sync + 'static) {
        *self.anomaly_hook.lock().expect("hook") = Some(Box::new(hook));
    }

    /// Append one event: assign its per-family sequence number, stamp
    /// it with the recorder clock, claim the next ring slot, and count
    /// whatever the slot previously held as overwritten.
    pub fn record(&self, mut event: FlightEvent) {
        let fam = event.family;
        event.seq = self.seqs[fam.index()].fetch_add(1, Ordering::Relaxed);
        event.ts_ns = self.clock.now_ns();
        let ts = event.ts_ns;
        let label_owned = event.label.clone();
        let pos = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        let evicted = slot.lock().expect("flight slot").replace((pos, event));
        if let Some((_, old)) = evicted {
            self.overwritten[old.family.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.check_monitors(fam, &label_owned, ts);
    }

    /// Append a completed span (the broker-side span-export hook).
    pub fn record_span(&self, span: &Span) {
        self.record(
            FlightEvent::new(EventFamily::Span, span.domain.clone(), span.kind.as_str())
                .trace(span.trace)
                .request(span.request)
                .detail(span.detail.clone())
                .wall(span.wall_s)
                .window(span.start_ns, span.end_ns),
        );
    }

    fn check_monitors(&self, family: EventFamily, label: &str, ts_ns: u64) {
        if family == EventFamily::Anomaly {
            return; // anomaly events never re-trigger monitors
        }
        let mut reason = None;
        {
            let mut monitors = self.monitors.lock().expect("monitors");
            for m in monitors.iter_mut() {
                if m.family != family || m.label.as_deref().is_some_and(|l| l != label) {
                    continue;
                }
                if ts_ns.saturating_sub(m.window_start) > m.window_ns {
                    m.window_start = ts_ns;
                    m.count = 0;
                    m.fired_this_window = false;
                }
                m.count += 1;
                if m.count >= m.threshold && !m.fired_this_window {
                    m.fired_this_window = true;
                    reason = Some(format!(
                        "{} burst: {} events{} within {}ms",
                        family.as_str(),
                        m.count,
                        m.label
                            .as_deref()
                            .map(|l| format!(" (label {l})"))
                            .unwrap_or_default(),
                        m.window_ns / 1_000_000
                    ));
                }
            }
        }
        if let Some(reason) = reason {
            self.record(
                FlightEvent::new(EventFamily::Anomaly, "", "threshold").detail(reason.clone()),
            );
            let hook = self.anomaly_hook.lock().expect("hook");
            if let Some(hook) = hook.as_ref() {
                hook(&reason, self);
            }
        }
    }

    /// Snapshot the ring, oldest surviving event first. Concurrent
    /// appends may or may not be included; each slot is internally
    /// consistent.
    pub fn dump_events(&self) -> Vec<FlightEvent> {
        let mut present: Vec<(u64, FlightEvent)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("flight slot").clone())
            .collect();
        present.sort_by_key(|(pos, _)| *pos);
        present.into_iter().map(|(_, e)| e).collect()
    }

    /// Events tagged with `trace`, oldest first.
    pub fn events_for_trace(&self, trace: TraceId) -> Vec<FlightEvent> {
        self.dump_events()
            .into_iter()
            .filter(|e| e.trace == Some(trace))
            .collect()
    }

    /// The `/flight` JSON document: per-family recorded/dropped
    /// accounting plus every surviving event in append order.
    pub fn dump_json(&self) -> String {
        let families = EventFamily::ALL
            .iter()
            .map(|f| {
                format!(
                    "\"{}\":{{\"recorded\":{},\"dropped\":{}}}",
                    f.as_str(),
                    self.seq(*f),
                    self.dropped(*f)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let events = self
            .dump_events()
            .iter()
            .map(FlightEvent::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"capacity\":{},\"recorded\":{},\"families\":{{{}}},\"events\":[{}]}}\n",
            self.capacity(),
            self.recorded(),
            families,
            events
        )
    }

    /// The `/flight.tsv` document: a header line then one
    /// tab-separated row per surviving event (machine-parseable without
    /// a JSON parser; `\t`/`\n`/`\\` escaped inside fields).
    pub fn dump_tsv(&self) -> String {
        let mut out = String::from(FLIGHT_TSV_HEADER);
        out.push('\n');
        for e in self.dump_events() {
            out.push_str(&e.to_tsv());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::trace::{SpanKind, TraceId};

    fn ev(family: EventFamily, label: &str) -> FlightEvent {
        FlightEvent::new(family, "domain-a", label)
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let rec = FlightRecorder::new(4);
        for i in 0..6u64 {
            rec.record(ev(EventFamily::Admission, &format!("e{i}")));
        }
        let events = rec.dump_events();
        assert_eq!(events.len(), 4);
        // The two oldest (e0, e1) were overwritten; survivors in order.
        let labels: Vec<&str> = events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["e2", "e3", "e4", "e5"]);
        // Sequence numbers make the gap visible: first survivor has
        // seq 2, so a consumer knows seqs 0..2 are gone.
        assert_eq!(events[0].seq, 2);
        assert_eq!(rec.seq(EventFamily::Admission), 6);
        assert_eq!(rec.dropped(EventFamily::Admission), 2);
        assert_eq!(rec.recorded(), 6);
    }

    #[test]
    fn drop_counters_are_per_family() {
        let rec = FlightRecorder::new(2);
        rec.record(ev(EventFamily::Reconnect, "r0"));
        rec.record(ev(EventFamily::Retransmit, "x0"));
        // These two evict the reconnect then the retransmit.
        rec.record(ev(EventFamily::Admission, "a0"));
        rec.record(ev(EventFamily::Admission, "a1"));
        assert_eq!(rec.dropped(EventFamily::Reconnect), 1);
        assert_eq!(rec.dropped(EventFamily::Retransmit), 1);
        assert_eq!(rec.dropped(EventFamily::Admission), 0);
        // One more admission evicts the oldest admission.
        rec.record(ev(EventFamily::Admission, "a2"));
        assert_eq!(rec.dropped(EventFamily::Admission), 1);
        assert_eq!(rec.seq(EventFamily::Admission), 3);
    }

    #[test]
    fn concurrent_appends_under_capacity_are_lossless() {
        let rec = FlightRecorder::new(1024);
        let threads = 8;
        let per_thread = 64u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        rec.record(
                            FlightEvent::new(
                                EventFamily::Storage,
                                format!("thread-{t}"),
                                format!("{i}"),
                            )
                            .request(t * per_thread + i),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = rec.dump_events();
        assert_eq!(events.len(), (threads * per_thread) as usize);
        assert_eq!(rec.dropped(EventFamily::Storage), 0);
        // Sequence numbers are a permutation of 0..N (no duplicates,
        // none lost) and dump order is append order.
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..threads * per_thread).collect::<Vec<_>>());
        // Every payload survived intact.
        let mut requests: Vec<u64> = events.iter().map(|e| e.request).collect();
        requests.sort_unstable();
        assert_eq!(requests, (0..threads * per_thread).collect::<Vec<_>>());
    }

    #[test]
    fn manual_clock_dump_is_deterministic() {
        let build = || {
            let clock = ManualClock::new();
            let rec = FlightRecorder::with_clock(8, Arc::new(clock.clone()));
            clock.set_ns(1_000);
            rec.record(
                ev(EventFamily::Admission, "held")
                    .trace(TraceId::mint("domain-a", 7))
                    .request(7)
                    .detail("rate 1000000")
                    .wall(42),
            );
            clock.set_ns(2_500);
            rec.record_span(&Span {
                trace: TraceId::mint("domain-a", 7),
                request: 7,
                domain: "domain-a".into(),
                kind: SpanKind::Forward,
                detail: "domain-b".into(),
                start_ns: 2_000,
                end_ns: 2_400,
                wall_s: 42,
            });
            rec.dump_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(a.contains("\"ts_ns\":1000"));
        assert!(a.contains("\"ts_ns\":2500"));
        assert!(a.contains("\"label\":\"forward\""));
        assert!(a.contains("\"detail\":\"domain-b\""));
        let tsv = {
            let clock = ManualClock::new();
            let rec = FlightRecorder::with_clock(8, Arc::new(clock.clone()));
            clock.set_ns(1_000);
            rec.record(ev(EventFamily::Backoff, "peer\tb").detail("delay 20ms\n"));
            rec.dump_tsv()
        };
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some(FLIGHT_TSV_HEADER));
        let row = lines.next().unwrap();
        assert!(row.starts_with("backoff\t0\t1000\t"));
        assert!(row.contains("peer\\tb"));
        assert!(row.contains("delay 20ms\\n"));
    }

    #[test]
    fn anomaly_monitor_fires_once_per_window() {
        let clock = ManualClock::new();
        let rec = FlightRecorder::with_clock(64, Arc::new(clock.clone()));
        rec.monitor(
            EventFamily::Admission,
            Some("refused"),
            3,
            1_000_000_000, // 1s window
        );
        let fired = Arc::new(AtomicU64::new(0));
        let fired2 = fired.clone();
        rec.set_anomaly_hook(move |reason, rec| {
            assert!(reason.contains("admission burst"));
            // The hook may dump — no deadlock.
            assert!(rec.dump_json().contains("\"anomaly\""));
            fired2.fetch_add(1, Ordering::Relaxed);
        });
        // Two refusals + unrelated holds: below threshold.
        rec.record(ev(EventFamily::Admission, "refused"));
        rec.record(ev(EventFamily::Admission, "held"));
        rec.record(ev(EventFamily::Admission, "refused"));
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        // Third refusal in the window: fires exactly once, even as the
        // burst continues.
        rec.record(ev(EventFamily::Admission, "refused"));
        rec.record(ev(EventFamily::Admission, "refused"));
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(rec.seq(EventFamily::Anomaly), 1);
        // A new window re-arms the monitor.
        clock.advance(2_000_000_000);
        for _ in 0..3 {
            rec.record(ev(EventFamily::Admission, "refused"));
        }
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }
}
