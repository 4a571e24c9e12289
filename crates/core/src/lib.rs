//! # qos-core — end-to-end provision of policy information for network QoS
//!
//! The primary contribution of the HPDC 2001 paper, as a library:
//!
//! * [`rar`], [`envelope`] — resource allocation requests and the
//!   nested-signature wire format of §6.4
//!   (`RAR_{N+1} = sign_{BB_{N+1}}({RAR_N, cert_N, DN_{BB_{N+2}}, caps})`);
//! * [`trust`] — the destination's transitive-trust verification walk
//!   (key introducers, path-continuity, chain-depth policy) and the
//!   directory-based alternative;
//! * [`view`] — the one borrowed walk of a received envelope every step
//!   of a hop reads from (DESIGN.md §D17);
//! * [`channel`] — mutually authenticated peer channels (the TLS stand-in,
//!   DESIGN.md §2);
//! * [`messages`] — requests, chained approvals, denials, direct
//!   (Approach-1) requests, tunnel sub-flow signalling;
//! * [`node`] — the per-domain broker engine: §6.1 source steps, §6.2
//!   transit steps, §6.3 destination authorization, two-phase admission,
//!   capability delegation, edge configuration, tunnels;
//! * [`step`] — the broker's one door: the [`Input`]s it acts on, run
//!   by [`BbNode::step`] in runs of [`RUN`](step::RUN), which both
//!   drivers call (DESIGN.md §D34);
//! * [`source`] — the Approach-1 baseline (GARA end-to-end agent,
//!   sequential/concurrent) and the STARS reservation coordinator;
//! * [`drive`] — a deterministic virtual-time mesh driver (latency and
//!   message-count experiments; optional live `qos_net` data plane),
//!   one of `step`'s two drivers; the other is the TCP reactor of
//!   `qos_transport`, on its own thread (DESIGN.md §D32);
//! * [`scenario`] — the paper's multi-domain world, ready-built.
//!
//! Observability (DESIGN.md §D7): brokers and both drivers thread a
//! `qos_telemetry` registry and per-RAR tracer through every protocol
//! step — see [`node::BbConfig::telemetry`] and [`BbNode::tracer`]. A
//! broker's spans are timed on the clock its driver passes to
//! [`BbNode::step`] (DESIGN.md §D35).

pub mod channel;
pub mod drive;
pub mod envelope;
pub mod envelope_ref;
pub mod error;
pub mod flowtable;
pub mod messages;
pub mod node;
pub mod rar;
pub mod scenario;
pub mod source;
pub mod step;
pub mod trust;
pub mod view;

pub use drive::Mesh;
pub use envelope::{RarLayer, SignedRar};
pub use error::CoreError;
pub use flowtable::{FlowTable, TimerWheel};
pub use messages::{Approval, Denial, DenialCode, SignalMessage};
pub use node::{BbConfig, BbNode, Completion, EdgeBinding, NodeCounters, PeerId, RecoveredTickets};
pub use rar::{RarId, ResSpec};
pub use source::{AgentMode, ReservationCoordinator, SourceBasedRun};
pub use step::Input;
pub use trust::{verify_rar, KeySource, VerifiedRar};
