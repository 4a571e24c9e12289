//! # qos-telemetry — observability for the signalling stack
//!
//! The paper's nested signatures let the destination *cryptographically*
//! reconstruct the path a request took; this crate makes that path (and
//! everything that happens along it) *observable* at runtime. Three
//! pillars (DESIGN.md §D7):
//!
//! * [`metrics`] — a lock-free registry of labelled [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log-scale [`Histogram`]s. Handles are
//!   cheap atomics resolved once; with no registry installed every
//!   instrument is a no-op ([`Telemetry::disabled`]).
//! * [`trace`] — per-request spans: a [`TraceId`] minted when a RAR
//!   enters the system and derived identically at every hop, so each
//!   broker's [`Span`]s assemble into one hop-by-hop timeline that
//!   mirrors the envelope nest one-to-one.
//! * [`expo`] — deterministic Prometheus text exposition and a JSON
//!   snapshot, plus the [`artifact`] writer the experiment binaries use
//!   for their `BENCH_*.json` histories (one code path instead of
//!   hand-rolled serializers).
//!
//! Two live-introspection pillars sit on top (DESIGN.md §D12):
//!
//! * [`recorder`] — the [`FlightRecorder`], a lock-free bounded ring of
//!   structured runtime events with per-family sequence numbers and
//!   drop accounting, dumpable on demand or automatically on anomaly.
//! * [`admin`] — dependency-free HTTP/1.1 request parsing and response
//!   rendering for the reactor-hosted admin endpoint (`/metrics`,
//!   `/healthz`, `/flight`…); the routes themselves live next to the
//!   runtime state they expose, in `qos-transport`.
//!
//! Timings come from the [`Clock`] abstraction: [`StdClock`] reads the
//! process-wide monotonic clock (one shared epoch, so spans from
//! different broker threads align), and [`ManualClock`] is driven by the
//! DES scheduler so virtual-time simulations produce the same telemetry.

pub mod admin;
pub mod artifact;
pub mod clock;
pub mod expo;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use admin::{parse_request, render_response, render_response_into, HttpError, HttpRequest};
pub use artifact::{Artifact, Row};
pub use clock::{Clock, ManualClock, StdClock, Stopped};
pub use expo::{json_escape, render_prometheus, render_prometheus_into, snapshot_json};
pub use metrics::{Counter, Gauge, Histogram, MetricKind, Registry, Telemetry};
pub use recorder::{EventFamily, FlightEvent, FlightRecorder, FLIGHT_DEFAULT_CAPACITY};
pub use trace::{render_timeline, Span, SpanKind, TraceId, Tracer};
