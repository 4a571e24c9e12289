//! Real TCP peering fabric for bandwidth-broker daemons.
//!
//! The in-process `qos_core::drive::Mesh` exchanges protocol messages
//! through memory. This crate carries them as sealed
//! [`Sealed`](qos_core::channel::Sealed) frames over actual sockets
//! (DESIGN.md §D8):
//!
//! * [`frame`] — length-prefixed frame codec: max-frame-size enforced
//!   before allocation, tolerant of arbitrary TCP segmentation;
//! * [`proto`] — the peering protocol (`Hello`, `Auth`, `Frame`, and
//!   the `ResumeHello`/`ResumeAccept`/`Ticket` resumption messages);
//! * [`resume`] — session-resumption tickets: the acceptor's bounded
//!   ticket store and the possession-proof MACs, so steady-state
//!   reconnects skip every Schnorr operation;
//! * [`session`] — the mutual handshake as a state machine without I/O
//!   ([`Handshake`]), ending in the [`Established`] session keys;
//! * [`queue`] — the per-peer outbound queue, owned by the link's core,
//!   that builds the link's data frames as messages are queued, and
//!   [`Completions`], where the reactors leave what their brokers
//!   finished, a run at a time (DESIGN.md §D33);
//! * [`backoff`] — deterministic exponential reconnect backoff;
//! * [`link`] — [`LinkCore`]: one link's delivery rules without I/O —
//!   the handshake, frame decode, open and seal, the delivery index,
//!   riding and standalone acks, the session sync, requeue when a
//!   connection dies, and the dial side's backoff — behind four entry
//!   points (bytes in, bytes out, `tick`, connection adopted or lost);
//! * [`reactor`] — the event loop: every socket non-blocking under one
//!   `epoll`-backed poll, one [`LinkCore`] per configured peer, reconnect
//!   non-blocking dials, handshake, reconnect and ack deadlines as poll
//!   deadlines, and the domain's broker, run on the reactor's own
//!   thread through its one door,
//!   [`qos_core::BbNode::step`] (DESIGN.md §D32, §D34);
//! * [`daemon`] — [`BrokerDaemon`]: one domain's broker handed to its
//!   reactor, and the inbox its local inputs reach the reactor by;
//! * [`admin`] — the introspection plane (DESIGN.md §D12): the routing
//!   table behind the reactor-hosted HTTP admin listener (`/metrics`,
//!   `/healthz`, `/storage`, `/trace/<id>`, `/flight`);
//! * [`mesh`] — [`TcpMesh`]: a whole scenario's brokers as loopback
//!   daemons, the one concurrent fabric.
//!
//! The `bbd` binary (in `src/bin/bbd.rs`) hosts one daemon per process
//! for the multi-process loopback demo in the README.

pub mod admin;
pub mod backoff;
pub mod daemon;
pub mod error;
pub mod frame;
pub mod link;
pub mod mesh;
pub mod proto;
pub mod queue;
pub mod reactor;
pub mod resume;
pub mod session;

pub use backoff::Backoff;
pub use daemon::{BrokerDaemon, DaemonConfig, TransportOptions};
pub use error::TransportError;
pub use frame::{write_frame, FrameError, PooledFrameDecoder, MAX_FRAME_LEN};
pub use link::LinkCore;
pub use mesh::TcpMesh;
pub use proto::PeerMsg;
pub use queue::{Completions, OutQueue};
pub use resume::{ResumeTicket, TicketIssuer};
pub use session::{Established, Handshake, HandshakeKind, HANDSHAKE_TIMEOUT};
