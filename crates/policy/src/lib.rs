//! # qos-policy — policy information substrate
//!
//! §4–5 of the HPDC 2001 paper require each bandwidth broker to evaluate
//! local policy over request parameters, authenticated identity,
//! assertions, and verified capabilities, and to hand back a decision
//! *plus a modified request*. This crate provides that machinery:
//!
//! * [`attr`] — typed attribute values and sets (the "simple
//!   attribute-value pairs" the propagation protocol carries);
//! * [`token`], [`parser`], [`ast`] — a small policy language faithful to
//!   the paper's figures (`If User = Alice`, `BW <= 10Mb/s`,
//!   `Time > 8am`, `Issued_by(Capability) = ESnet`,
//!   `HasValidCPUResv(RAR)`, `Accredited_Physicist(requestor)`);
//! * [`eval`] — a total, deny-by-default evaluator;
//! * [`request`] — the [`request::PolicyRequest`] a PDP sees;
//! * [`server`] — the policy decision point ([`server::PolicyServer`]);
//! * [`group`] — group-membership servers with signed attestations;
//! * [`acl`] — traditional access control lists;
//! * [`samples`] — the paper's Figure 1 / Figure 6 policy files,
//!   transcribed.

pub mod acl;
pub mod ast;
pub mod attr;
pub mod eval;
pub mod group;
pub mod parser;
pub mod pretty;
pub mod request;
pub mod samples;
pub mod server;
pub mod token;

pub use acl::{AccessControlList, AclAction};
pub use ast::{CmpOp, Decision, Expr, Policy, Stmt};
pub use attr::{AttributeSet, Value};
pub use eval::{evaluate, EvalError, Outcome, PolicyEnv};
pub use group::{GroupAttestation, GroupServer};
pub use parser::{parse, ParseError};
pub use pretty::pretty;
pub use request::{Assertion, PolicyRequest, VerifiedCapability};
pub use server::{DomainVars, NoReservations, PolicyDecision, PolicyServer, ReservationOracle};
