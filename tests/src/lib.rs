//! Cross-crate scenario fixtures shared by the workspace integration
//! tests.
//!
//! The heavy lifting lives in [`qos_core::scenario`], which also hands
//! a world to either fabric; this crate adds the glue the integration
//! tests repeat: submitting and driving a reservation to completion,
//! delivering by hand, and unwrapping outcomes.

pub mod parity;

pub use qos_core::scenario::{
    build_chain, build_paper_world, domain_name, ChainOptions, Scenario, UserIdentity, PERMIT_ALL,
};

use qos_core::drive::Mesh;
use qos_core::node::Completion;
use qos_core::view::RarView;
use qos_core::{Approval, Denial, PeerId, RarId, SignalMessage, SignedRar};
use qos_crypto::{Certificate, PublicKey, Timestamp};
use qos_net::SimDuration;
use qos_telemetry::{Registry, Telemetry, TraceId};

/// One megabit per second.
pub const MBPS: u64 = 1_000_000;

/// Deliver `out` (what the broker at chain index `from` just sent) and
/// everything it triggers, hop by hop and without a mesh, until the chain
/// falls silent. Every message passes through `in_transit` with the
/// domains it comes from and is addressed to, on its way to that
/// broker's `recv`.
pub fn deliver_by_hand(
    s: &mut Scenario,
    from: usize,
    out: Vec<(PeerId, SignalMessage)>,
    mut in_transit: impl FnMut(&str, &str, SignalMessage) -> SignalMessage,
) {
    let mut queue: Vec<(usize, PeerId, SignalMessage)> =
        out.into_iter().map(|(to, m)| (from, to, m)).collect();
    while let Some((from, to, msg)) = queue.pop() {
        let sender = s.domains[from].clone();
        let msg = in_transit(&sender, &to, msg);
        let at = s.domains.iter().position(|d| **d == *to).expect("a peer");
        for (next, m) in s.nodes[at].recv(&sender, msg) {
            queue.push((at, next, m));
        }
    }
}

/// The folded links of Figure 7's capability list in `rar` (it follows
/// the certificates of the user's layer), innermost first, as
/// `(signer's domain, delegatee's key)`.
pub fn chain_links(rar: &SignedRar) -> Vec<(String, PublicKey)> {
    RarView::of(rar)
        .hops(None)
        .filter_map(|h| Some((h.signer.org_unit()?.to_string(), h.link?.1.to_key)))
        .collect()
}

/// Submit a signed request at its source domain, run to completion, and
/// return the outcome.
pub fn run_reservation(
    mesh: &mut Mesh,
    source: &str,
    rar: SignedRar,
    user_cert: Certificate,
) -> Result<Approval, Denial> {
    let rar_id = rar.res_spec().rar_id;
    mesh.submit_in(SimDuration::ZERO, source, rar, user_cert);
    mesh.run_until_idle();
    outcome(mesh, source, rar_id)
}

/// Extract the reservation outcome recorded at `domain`.
pub fn outcome(mesh: &Mesh, domain: &str, rar_id: RarId) -> Result<Approval, Denial> {
    let (_, c) = mesh
        .reservation_outcome(domain, rar_id)
        .unwrap_or_else(|| panic!("no completion for {rar_id:?} at {domain}"));
    match c {
        Completion::Reservation { result, .. } => result.clone(),
        other => panic!("unexpected completion {other:?}"),
    }
}

/// Run one granted reservation through a traced, metered 3-domain chain
/// and hand back (registry, mesh, rar_id, trace, domains).
pub fn traced_reservation() -> (std::sync::Arc<Registry>, Mesh, RarId, TraceId, Vec<String>) {
    let registry = Registry::new();
    let mut s = build_chain(ChainOptions {
        telemetry: Telemetry::with_registry(registry.clone()),
        tracing: true,
        ..ChainOptions::default()
    });
    let domains = s.domains.clone();
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let trace = TraceId::mint(&spec.source_domain, rar_id.0);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = s.mesh(SimDuration::from_millis(5));
    mesh.submit_in(SimDuration::ZERO, &domains[0], rar, cert);
    mesh.run_until_idle();
    assert!(matches!(
        mesh.reservation_outcome(&domains[0], rar_id),
        Some((_, Completion::Reservation { result: Ok(_), .. }))
    ));
    (registry, mesh, rar_id, trace, domains)
}
