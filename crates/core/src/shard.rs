//! One domain's broker as a fabric runs it: the [`Input`]s it takes and
//! [`run`], which runs them through the domain's one [`BbNode`].
//!
//! In the paper each domain has one bandwidth broker, holding that
//! domain's SLA state and deciding every request as it passes. The TCP
//! reactor owns that node and runs it on its own thread (DESIGN.md §D32):
//! what one read sweep decoded and the local inputs waiting in the
//! daemon's inbox go through [`run`], [`RUN`] at a time, and each run's
//! outputs are written to the links before the next run.

use crate::envelope::SignedRar;
use crate::messages::{DenialCode, SignalMessage, TunnelFlowRequest};
use crate::node::{BbNode, Completion, PeerId};
use crate::rar::RarId;
use qos_crypto::{Certificate, DistinguishedName, Timestamp};
use qos_telemetry::{Counter, StdClock, TraceId};

/// One unit of broker input. A peer message comes from the domain its
/// channel vouches for; a `u64` timestamp is when the input reached the
/// fabric (ns), what its queue wait counts from.
pub enum Input {
    /// A reservation request from a peer, in the box it was decoded into.
    Request(PeerId, Box<SignedRar>, u64),
    /// A tunnel sub-flow request from a peer.
    Flow(PeerId, TunnelFlowRequest),
    /// Any other peer message.
    Peer(PeerId, SignalMessage, u64),
    /// A local user submission and the user's identity certificate.
    Submit(Box<SignedRar>, Box<Certificate>, u64),
    /// A local sub-flow request: the tunnel, the sub-flow's id, its rate
    /// (b/s) and the requesting user.
    TunnelFlow(RarId, u64, u64, DistinguishedName),
    /// Advance the broker's wall clock.
    SetTime(Timestamp),
}

// Every input is moved at the size of the largest variant, a peer
// message beside its sender and time (DESIGN.md §D33).
const _: () = assert!(std::mem::size_of::<Input>() <= 88);

impl Input {
    /// `msg`, read from `from`'s link at `at`.
    pub fn peer(from: PeerId, msg: SignalMessage, at: u64) -> Self {
        match msg {
            SignalMessage::Request(rar) => Input::Request(from, rar, at),
            SignalMessage::TunnelFlow(t) => Input::Flow(from, t),
            other => Input::Peer(from, other, at),
        }
    }
}

/// How many inputs one run takes: the grain of the pipeline between
/// brokers. A run's outputs are written before the next run starts, so
/// the next broker is on message 33 while this one is on message 64
/// (DESIGN.md §D21).
pub const RUN: usize = 32;

/// Run every input of `inputs` through `node` in arrival order, [`RUN`]
/// at a time, neighbours of one kind together so a burst hits the batch
/// paths ([`BbNode::submit_batch`], [`BbNode::recv_requests`],
/// [`BbNode::recv_tunnel_flows`]). After each run `emit` gets what the
/// run produced: the messages to route, oldest first, and the finished
/// requests. The time spent running inputs, `emit` aside, adds to `busy`.
pub fn run(
    node: &mut BbNode,
    inputs: &mut Vec<Input>,
    busy: &Counter,
    mut emit: impl FnMut(&mut Vec<(PeerId, SignalMessage)>, &mut Vec<Completion>),
) {
    let mut all = inputs.drain(..);
    let (mut deliveries, mut completions) = (Vec::new(), Vec::new());
    loop {
        let mut it = all.by_ref().take(RUN).peekable();
        if it.peek().is_none() {
            return;
        }
        let t0 = StdClock::now();
        while let Some(input) = it.next() {
            let mut next = |same: fn(&Input) -> bool| it.next_if(same);
            let out = match input {
                Input::SetTime(t) => {
                    node.set_time(t);
                    continue;
                }
                Input::Submit(rar, cert, at) => {
                    let mut batch = vec![(waited(node, rar, at), *cert)];
                    while let Some(Input::Submit(rar, cert, at)) =
                        next(|i| matches!(i, Input::Submit(..)))
                    {
                        batch.push((waited(node, rar, at), *cert));
                    }
                    node.submit_batch(batch)
                }
                Input::Request(from, rar, at) => {
                    let mut batch = vec![(from, waited(node, rar, at))];
                    while let Some(Input::Request(from, rar, at)) =
                        next(|i| matches!(i, Input::Request(..)))
                    {
                        batch.push((from, waited(node, rar, at)));
                    }
                    node.recv_requests(batch)
                }
                Input::Flow(from, t) => {
                    let mut batch = vec![(from, t)];
                    while let Some(Input::Flow(from, t)) = next(|i| matches!(i, Input::Flow(..))) {
                        batch.push((from, t));
                    }
                    node.recv_tunnel_flows(batch)
                }
                Input::Peer(from, msg, at) => {
                    if let Some(trace) = msg.trace_id() {
                        node.record_queue_wait(trace, msg.rar_id(), at);
                    }
                    node.recv(&from, msg)
                }
                Input::TunnelFlow(tunnel, flow, rate_bps, user) => {
                    match node.request_tunnel_flow(tunnel, flow, rate_bps, user) {
                        Ok(out) => out,
                        Err(e) => {
                            // Rejected at the source (aggregate spent):
                            // complete at once, as the mesh drivers do.
                            completions.push(Completion::TunnelFlow {
                                tunnel,
                                flow,
                                accepted: false,
                                reason: DenialCode::Other(e.to_string().into()),
                            });
                            continue;
                        }
                    }
                }
            };
            deliveries.extend(out);
            completions.extend(node.drain_completions());
        }
        busy.add(StdClock::now().saturating_sub(t0));
        emit(&mut deliveries, &mut completions);
        deliveries.clear();
        completions.clear();
    }
}

/// `rar`, once the time it waited since `at` is recorded.
fn waited(node: &mut BbNode, rar: Box<SignedRar>, at: u64) -> Box<SignedRar> {
    let spec = rar.res_spec();
    let trace = TraceId::mint(&spec.source_domain, spec.rar_id.0);
    node.record_queue_wait(trace, spec.rar_id, at);
    rar
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build_chain, ChainOptions};

    /// A burst from one peer is handed on a run at a time: the next
    /// broker has the first `RUN` forwards on its link queue before this
    /// one starts on the rest — and never out of arrival order.
    #[test]
    fn a_queued_burst_leaves_in_arrival_order_a_run_and_a_flush_at_a_time() {
        const BURST: usize = 200;
        let mut s = build_chain(ChainOptions::default());
        let cert = s.users["alice"].cert.clone();
        let mut inputs: Vec<Input> = (0..BURST)
            .map(|_| {
                let spec = s.spec("alice", 1000, 10_000, Timestamp(0), 3600);
                let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
                let request = s.nodes[0].submit(rar, &cert).remove(0).1;
                Input::peer("domain-a".into(), request, 0)
            })
            .collect();
        let sent: Vec<RarId> = inputs
            .iter()
            .map(|i| match i {
                Input::Request(_, rar, _) => rar.res_spec().rar_id,
                _ => unreachable!("requests only"),
            })
            .collect();
        let mut transit = build_chain(ChainOptions::default()).nodes.remove(1);

        // The link queue to domain-c, and its length each time a run's
        // outputs were handed over.
        let mut queue: Vec<(PeerId, SignalMessage)> = Vec::new();
        let mut after_each_run = Vec::new();
        let busy = Counter::noop();
        run(
            &mut transit,
            &mut inputs,
            &busy,
            |deliveries, completions| {
                assert!(completions.is_empty(), "a transit broker completes nothing");
                queue.append(deliveries);
                after_each_run.push(queue.len());
            },
        );
        assert!(inputs.is_empty(), "every input ran");
        // Everything a run produced was handed over before the next run
        // started: one hand-over per run, each a whole run's forwards.
        let want: Vec<usize> = (1..=BURST.div_ceil(RUN))
            .map(|runs| (runs * RUN).min(BURST))
            .collect();
        assert_eq!(after_each_run, want);
        let forwarded: Vec<RarId> = queue
            .iter()
            .map(|(to, msg)| {
                assert_eq!(&**to, "domain-c");
                assert!(matches!(msg, SignalMessage::Request(_)));
                msg.rar_id()
            })
            .collect();
        assert_eq!(forwarded, sent);
    }
}
