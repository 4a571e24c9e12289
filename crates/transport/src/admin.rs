//! Admin-plane routes: the runtime state behind each HTTP endpoint.
//!
//! The HTTP mechanics (request parsing, response rendering) live in
//! `qos_telemetry::admin`; this module is the *routing table*, placed
//! in `qos-transport` because the interesting answers — the broker's
//! queue depth, link states, reactor vitals — live next to the daemon. The
//! reactor calls [`AdminState::respond`] with a parsed request and
//! writes the returned bytes back on the admin connection; every route
//! is a read-only snapshot, so serving one costs the data path nothing
//! but the reactor sweep it rides in.
//!
//! | route           | body                                            |
//! |-----------------|-------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition of the registry      |
//! | `/metrics.json` | the same registry as a JSON snapshot            |
//! | `/healthz`      | liveness: reactor heartbeat + queue depth       |
//! | `/trace/<id>`   | flight events for one 16-hex-digit trace id     |
//! | `/flight`       | full flight-recorder dump (JSON)                |
//! | `/flight.tsv`   | the same dump, tab-separated                    |
//! | `/storage`      | durable-ledger vitals: WAL/snapshot/recovery    |

use crate::daemon::Link;
use qos_core::shard::ShardedNode;
use qos_storage::SharedStore;
use qos_telemetry::admin::{content_type, render_response_into, HttpRequest};
use qos_telemetry::{
    render_prometheus_into, snapshot_json, FlightRecorder, Registry, StdClock, TraceId,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// A reactor is considered stalled (503 on `/healthz`) when its last
/// sweep heartbeat is older than this.
const HEALTHZ_STALL_NS: u64 = 5_000_000_000;

/// A single poll-to-poll sweep longer than this counts as a reactor
/// stall: something held the event loop (`reactor_stall_total`, plus an
/// anomaly event in the flight recorder).
const REACTOR_STALL_NS: u64 = 250_000_000;

/// The reactor's self-observation vitals, shared with the admin plane:
/// a heartbeat (monotonic timestamp of the last completed poll) plus
/// sweep/stall counters. `/healthz` reads these to tell a live event
/// loop from a wedged one — which is exactly the situation where the
/// metrics pipeline itself may be silent.
pub(crate) struct ReactorStatus {
    /// Monotonic ns ([`StdClock`]) of the most recent poll return.
    last_beat_ns: AtomicU64,
    sweeps: AtomicU64,
    stalls: AtomicU64,
    max_sweep_ns: AtomicU64,
}

impl ReactorStatus {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            last_beat_ns: AtomicU64::new(StdClock::now()),
            sweeps: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            max_sweep_ns: AtomicU64::new(0),
        })
    }

    /// Stamp the heartbeat (poll returned; the loop is alive).
    pub(crate) fn beat(&self) {
        self.last_beat_ns.store(StdClock::now(), SeqCst);
    }

    /// Account one completed sweep; returns true when it stalled.
    pub(crate) fn note_sweep(&self, dur_ns: u64) -> bool {
        self.sweeps.fetch_add(1, SeqCst);
        self.max_sweep_ns.fetch_max(dur_ns, SeqCst);
        let stalled = dur_ns >= REACTOR_STALL_NS;
        if stalled {
            self.stalls.fetch_add(1, SeqCst);
        }
        stalled
    }

    /// Nanoseconds since the last poll return. Grows without bound for
    /// a wedged reactor — the `/healthz` staleness signal.
    pub(crate) fn heartbeat_age_ns(&self) -> u64 {
        StdClock::now().saturating_sub(self.last_beat_ns.load(SeqCst))
    }

    pub(crate) fn sweeps(&self) -> u64 {
        self.sweeps.load(SeqCst)
    }

    pub(crate) fn stalls(&self) -> u64 {
        self.stalls.load(SeqCst)
    }

    pub(crate) fn max_sweep_ns(&self) -> u64 {
        self.max_sweep_ns.load(SeqCst)
    }
}

/// Everything the admin routes read. Built by the daemon, owned by the
/// reactor; every field is a shared handle onto live runtime state.
pub(crate) struct AdminState {
    pub(crate) domain: String,
    pub(crate) registry: Option<Arc<Registry>>,
    pub(crate) flight: Option<Arc<FlightRecorder>>,
    pub(crate) sharded: Arc<ShardedNode>,
    pub(crate) links: Arc<HashMap<String, Link>>,
    pub(crate) status: Arc<ReactorStatus>,
    pub(crate) store: Option<SharedStore>,
}

impl AdminState {
    /// Serve one request into caller-owned buffers and return the
    /// endpoint label used by the `admin_requests_total` counter.
    ///
    /// `body` is a render scratch (the `/metrics` exposition lands here
    /// before the response head is known) and `out` receives the full
    /// response bytes; the reactor recycles both across scrapes so a
    /// steady scrape loop allocates nothing once the buffers have grown
    /// to the exposition size (DESIGN.md §D15 satellite).
    pub(crate) fn respond_into(
        &self,
        req: &HttpRequest,
        body: &mut String,
        out: &mut Vec<u8>,
    ) -> &'static str {
        body.clear();
        out.clear();
        if req.method != "GET" {
            render_response_into(
                out,
                405,
                content_type::TEXT,
                "admin endpoints are GET-only\n",
            );
            return "other";
        }
        match req.path.as_str() {
            "/metrics" => match &self.registry {
                Some(r) => {
                    render_prometheus_into(r, body);
                    render_response_into(out, 200, content_type::PROMETHEUS, body);
                    "metrics"
                }
                None => {
                    self.no_registry(out);
                    "metrics"
                }
            },
            "/metrics.json" => match &self.registry {
                Some(r) => {
                    render_response_into(out, 200, content_type::JSON, &snapshot_json(r));
                    "metrics_json"
                }
                None => {
                    self.no_registry(out);
                    "metrics_json"
                }
            },
            "/healthz" => {
                self.healthz(out);
                "healthz"
            }
            "/storage" => {
                self.storage(out);
                "storage"
            }
            "/flight" => match &self.flight {
                Some(f) => {
                    render_response_into(out, 200, content_type::JSON, &f.dump_json());
                    "flight"
                }
                None => {
                    self.no_recorder(out);
                    "flight"
                }
            },
            "/flight.tsv" => match &self.flight {
                Some(f) => {
                    render_response_into(out, 200, content_type::TEXT, &f.dump_tsv());
                    "flight_tsv"
                }
                None => {
                    self.no_recorder(out);
                    "flight_tsv"
                }
            },
            path => {
                if let Some(id) = path.strip_prefix("/trace/") {
                    self.trace(id, out);
                    "trace"
                } else {
                    render_response_into(
                        out,
                        404,
                        content_type::TEXT,
                        "routes: /metrics /metrics.json /healthz /storage /trace/<id> /flight /flight.tsv\n",
                    );
                    "other"
                }
            }
        }
    }

    fn no_registry(&self, out: &mut Vec<u8>) {
        render_response_into(
            out,
            503,
            content_type::TEXT,
            "no metrics registry installed (start bbd with --metrics or --admin)\n",
        );
    }

    fn no_recorder(&self, out: &mut Vec<u8>) {
        render_response_into(
            out,
            503,
            content_type::TEXT,
            "no flight recorder installed (start bbd with --admin)\n",
        );
    }

    /// Durable-ledger vitals: store counters plus a live summary and
    /// the canonical SHA-256 digest of the reservation/invoice state —
    /// the value the crash-recovery gate compares across restarts.
    fn storage(&self, out: &mut Vec<u8>) {
        let Some(store) = &self.store else {
            return render_response_into(
                out,
                503,
                content_type::TEXT,
                "no ledger store attached (start bbd with --data-dir DIR)\n",
            );
        };
        let stats = store.stats();
        let (digest, active, committed, invoices, committed_bps) = self.sharded.with_node(|node| {
            let (active, committed, invoices, committed_bps) =
                node.core().ledger_summary(node.time());
            let digest = node.core().ledger_digest();
            (digest, active, committed, invoices, committed_bps)
        });
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        let body = format!(
            "{{\"store\":{},\"ledger\":{{\"digest\":\"{hex}\",\"active\":{active},\
             \"committed\":{committed},\"invoices\":{invoices},\
             \"committed_bps\":{committed_bps}}}}}\n",
            stats.to_json()
        );
        render_response_into(out, 200, content_type::JSON, &body);
    }

    /// Liveness vitals: the reactor's poll-loop heartbeat (age of the
    /// last sweep) and the broker's ingress queue depth. 503 when the
    /// heartbeat is stale — a wedged reactor that somehow still accepts
    /// admin traffic must not look healthy.
    fn healthz(&self, out: &mut Vec<u8>) {
        let age_ns = self.status.heartbeat_age_ns();
        let stalled = age_ns > HEALTHZ_STALL_NS;
        let connected = self
            .links
            .values()
            .filter(|l| l.connected.load(std::sync::atomic::Ordering::SeqCst))
            .count();
        let body = format!(
            "{{\"status\":\"{}\",\"domain\":\"{}\",\"reactor\":{{\"heartbeat_age_ms\":{},\"sweeps\":{},\"stalls\":{},\"max_sweep_us\":{}}},\"queue_depth\":{},\"links\":{},\"connected_peers\":{}}}\n",
            if stalled { "stalled" } else { "ok" },
            self.domain,
            age_ns / 1_000_000,
            self.status.sweeps(),
            self.status.stalls(),
            self.status.max_sweep_ns() / 1_000,
            self.sharded.queued(),
            self.links.len(),
            connected,
        );
        render_response_into(
            out,
            if stalled { 503 } else { 200 },
            content_type::JSON,
            &body,
        );
    }

    /// Flight events for one trace, by its 16-hex-digit id (the form
    /// `TraceId` renders as — exactly what `/flight` dumps carry).
    fn trace(&self, id: &str, out: &mut Vec<u8>) {
        let Some(flight) = &self.flight else {
            return self.no_recorder(out);
        };
        let Ok(raw) = u64::from_str_radix(id, 16) else {
            return render_response_into(
                out,
                400,
                content_type::TEXT,
                "trace id must be the 16-hex-digit form spans carry\n",
            );
        };
        let events = flight
            .events_for_trace(TraceId(raw))
            .iter()
            .map(|e| {
                format!(
                    "{{\"family\":\"{}\",\"seq\":{},\"ts_ns\":{},\"domain\":\"{}\",\"label\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    e.family.as_str(),
                    e.seq,
                    e.ts_ns,
                    qos_telemetry::json_escape(&e.domain),
                    qos_telemetry::json_escape(&e.label),
                    qos_telemetry::json_escape(&e.detail),
                    e.start_ns,
                    e.end_ns
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let body = format!(
            "{{\"trace\":\"{}\",\"domain\":\"{}\",\"events\":[{events}]}}\n",
            TraceId(raw),
            self.domain,
        );
        render_response_into(out, 200, content_type::JSON, &body);
    }
}
