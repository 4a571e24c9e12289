//! # qos-broker — bandwidth-broker resource management
//!
//! §2 of the HPDC 2001 paper: "A BB provides admission control and
//! configures the edge routers of a single administrative network
//! domain", with SLAs regulating traffic between peered domains. This
//! crate is that per-domain resource core — the signalling protocol in
//! `qos-core` drives it:
//!
//! * [`reservations`] — time-indexed advance-reservation tables with a
//!   two-phase hold → commit / release life cycle;
//! * [`sla`] — SLA/SLS contracts between peered domains, carrying pinned
//!   peer and CA certificates (§6's trust extension);
//! * [`broker`] — [`broker::BrokerCore`], the domain's whole ledger
//!   behind one lock: admission against ingress SLA + local capacity +
//!   egress SLA with rollback on any failure, billing, and the durable
//!   record of both;
//! * [`edge`] — the edge-router configuration command surface
//!   ([`edge::EdgeControl`] is implemented by `qos_net::Network`);
//! * [`billing`] — §6.4's transitive billing chains.

pub mod billing;
pub mod broker;
pub mod edge;
pub mod reservations;
pub mod sla;

pub use billing::{settle_chain, BillingLedger, Invoice};
pub use broker::{BrokerCore, BrokerError, PathSegment};
pub use edge::{CommandLog, EdgeCommand, EdgeControl};
pub use reservations::{AdmissionError, Interval, ResState, ReservationId, ReservationTable};
pub use sla::{Sla, Sls};
