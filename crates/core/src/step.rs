//! A broker's one door: the [`Input`]s a domain's broker acts on, and
//! [`BbNode::step`], which runs them.
//!
//! In the paper each domain has one bandwidth broker, and it acts on
//! what reaches it: a user's request (§6.1), or a peer's request,
//! approval or denial (§6.2–6.3). A broker is built from its
//! [`crate::BbConfig`], and from then on every change to it is an input
//! (DESIGN.md §D40). Both drivers feed a broker through
//! `step` alone (DESIGN.md §D34): the TCP reactor (`qos_transport`,
//! §D32) with what one read sweep decoded and the local inputs waiting
//! in the daemon's inbox, [`crate::drive::Mesh`] with one input at a
//! time in virtual time. `step` runs them [`RUN`] at a time, and each
//! run's outputs go to the driver before the next run starts.
//!
//! The driver owns time (DESIGN.md §D35): protocol time is an
//! [`Input::SetTime`], and every span, queue wait and busy interval is
//! read off the [`Clock`] the driver passes to `step`. A broker reads no
//! clock of its own.

use crate::envelope::SignedRar;
use crate::error::CoreError;
use crate::messages::{DenialCode, SignalMessage};
use crate::node::{BbNode, Completion, PeerId};
use crate::rar::RarId;
use qos_broker::EdgeCommand;
use qos_crypto::{Certificate, DistinguishedName, PublicKey, Timestamp};
use qos_telemetry::{Clock, Counter, Stopped, TraceId};

/// One unit of broker input. A peer message comes from the domain its
/// channel vouches for; a `u64` timestamp is when the input reached the
/// fabric (ns), what its queue wait counts from ([`UNQUEUED`]: it waited
/// in no queue).
pub enum Input {
    /// A reservation request from a peer, in the box it was decoded into.
    Request(PeerId, Box<SignedRar>, u64),
    /// Any other peer message.
    Peer(PeerId, SignalMessage, u64),
    /// A local user submission and the user's identity certificate.
    Submit(Box<SignedRar>, Box<Certificate>, u64),
    /// A local sub-flow request: the tunnel, the sub-flow's id, its rate
    /// (b/s), when its hold lapses (`None`: held until released) and the
    /// requesting user.
    TunnelFlow(RarId, u64, u64, Option<Timestamp>, DistinguishedName),
    /// Tear down a standing reservation end to end, from its source
    /// domain (anywhere else, or for an unknown id, a no-op).
    Release(RarId),
    /// Tear down a held sub-flow of a tunnel, from the tunnel's source:
    /// the tunnel and the sub-flow's id (a no-op for a flow not held).
    ReleaseFlow(RarId, u64),
    /// Register a co-reserved CPU reservation by its id: what Figure 6's
    /// `HasValidCPUResv` asks about.
    CpuReservation(u64),
    /// Trust a user directly, by name and key: Approach-1 enrolment.
    DirectUser(DistinguishedName, PublicKey),
    /// Advance the broker's wall clock: the only way protocol time
    /// reaches a broker.
    SetTime(Timestamp),
}

// Every input is moved at the size of the largest variant, a peer
// message beside its sender and time (DESIGN.md §D33).
const _: () = assert!(std::mem::size_of::<Input>() <= 88);

/// The arrival time of an input that waited in no queue: running it
/// records no queue wait.
pub const UNQUEUED: u64 = u64::MAX;

impl Input {
    /// `msg`, read from `from`'s link at `at`.
    pub fn peer(from: PeerId, msg: SignalMessage, at: u64) -> Self {
        match msg {
            SignalMessage::Request(rar) => Input::Request(from, rar, at),
            other => Input::Peer(from, other, at),
        }
    }
}

/// How many inputs one run takes: the grain of the pipeline between
/// brokers. A run's outputs are written before the next run starts, so
/// the next broker is on message 33 while this one is on message 64
/// (DESIGN.md §D21).
pub const RUN: usize = 32;

/// The messages a run hands to its driver: each with the peer it goes to.
pub(crate) type Out = Vec<(PeerId, SignalMessage)>;

/// What a run's handlers write to: the messages the run sends, and the
/// driver's clock that every timing in the run reads.
pub(crate) struct Run<'c> {
    pub(crate) out: Out,
    pub(crate) clock: &'c dyn Clock,
}

impl<'c> Run<'c> {
    fn new(clock: &'c dyn Clock) -> Self {
        let out = Vec::new();
        Run { out, clock }
    }
}

impl BbNode {
    /// Run every input of `inputs` in arrival order, [`RUN`] at a time,
    /// neighbours of one kind together so a burst of submissions or peer
    /// requests is checked through one batch equation. After each run
    /// `emit` gets what the run produced: the messages to route, oldest
    /// first, the finished requests (a sub-flow refused at the source
    /// among them, with its [`DenialCode`]) and the edge-router
    /// configuration for a driver with a data plane. Every timing reads
    /// `clock`, and the time spent running inputs, `emit` aside, adds
    /// to `busy`.
    pub fn step(
        &mut self,
        inputs: &mut Vec<Input>,
        clock: &dyn Clock,
        busy: &Counter,
        mut emit: impl FnMut(&mut Out, &mut Vec<Completion>, &mut Vec<EdgeCommand>),
    ) {
        let mut all = inputs.drain(..);
        let mut run = Run::new(clock);
        loop {
            let mut batch = all.by_ref().take(RUN).peekable();
            if batch.peek().is_none() {
                return;
            }
            let t0 = clock.now_ns();
            while let Some(input) = batch.next() {
                self.input(input, |same| batch.next_if(same), &mut run);
            }
            busy.add(clock.now_ns().saturating_sub(t0));
            emit(&mut run.out, &mut self.completions, &mut self.edges);
            run.out.clear();
            self.completions.clear();
            self.edges.clear();
        }
    }

    /// Run `input`, and the neighbours of its kind `next` yields, onto
    /// `run`.
    fn input(
        &mut self,
        input: Input,
        mut next: impl FnMut(fn(&Input) -> bool) -> Option<Input>,
        run: &mut Run<'_>,
    ) {
        match input {
            Input::SetTime(t) => self.now = t,
            Input::Submit(rar, cert, at) => {
                let mut batch = vec![(self.waited(rar, at, run.clock), *cert)];
                while let Some(Input::Submit(rar, cert, at)) =
                    next(|i| matches!(i, Input::Submit(..)))
                {
                    batch.push((self.waited(rar, at, run.clock), *cert));
                }
                self.submit_batch(batch, run);
            }
            Input::Request(from, rar, at) => {
                let mut batch = vec![(from, self.waited(rar, at, run.clock))];
                while let Some(Input::Request(from, rar, at)) =
                    next(|i| matches!(i, Input::Request(..)))
                {
                    batch.push((from, self.waited(rar, at, run.clock)));
                }
                self.recv_requests(batch, run);
            }
            Input::Peer(from, msg, at) => {
                if let (Some(trace), true) = (msg.trace_id(), at != UNQUEUED) {
                    self.record_queue_wait(trace, msg.rar_id(), at, run.clock);
                }
                self.on_message(&from, msg, run);
            }
            Input::TunnelFlow(tunnel, flow, rate_bps, hold, user) => {
                if let Err(reason) =
                    self.request_tunnel_flow_held(tunnel, flow, rate_bps, hold, user, run)
                {
                    self.completions.push(Completion::TunnelFlow {
                        tunnel,
                        flow,
                        accepted: false,
                        reason,
                    });
                }
            }
            Input::Release(rar_id) => self.initiate_release(rar_id, run),
            Input::ReleaseFlow(tunnel, flow) => self.end_held_flow(tunnel, flow, &mut run.out),
            Input::CpuReservation(id) => {
                self.cpu_reservations.insert(id);
            }
            Input::DirectUser(dn, pk) => {
                // The user signs every per-domain request with this key.
                pk.precompute();
                self.direct_users.insert(dn, pk);
            }
        }
    }

    /// `rar`, once the time it waited since `at` is recorded.
    fn waited(&mut self, rar: Box<SignedRar>, at: u64, clock: &dyn Clock) -> Box<SignedRar> {
        if at != UNQUEUED {
            let spec = rar.res_spec();
            let trace = TraceId::mint(&spec.source_domain, spec.rar_id.0);
            self.record_queue_wait(trace, spec.rar_id, at, clock);
        }
        rar
    }

    // The single-input forms below run one input as `step` would, with
    // no queue wait and on the `Stopped` clock, and hand its messages
    // back; the requests it finished wait for `take_completions`.
    // (`qosbench`'s replay walks requests through them.)

    /// A user's reservation request arriving at its home broker
    /// ([`Input::Submit`]): the messages to transmit.
    pub fn submit(&mut self, rar_u: SignedRar, user_cert: &Certificate) -> Out {
        let mut run = Run::new(&Stopped);
        self.submit_checked(Box::new(rar_u), user_cert, false, &mut run);
        run.out
    }

    /// A message from peer `from`, already authenticated by the channel
    /// layer ([`Input::Peer`]): the messages to transmit.
    pub fn recv(&mut self, from: &str, msg: SignalMessage) -> Out {
        let mut run = Run::new(&Stopped);
        self.on_message(from, msg, &mut run);
        run.out
    }

    /// A sub-flow within an established tunnel, held until released
    /// ([`Input::TunnelFlow`]): the request to the destination domain,
    /// or, refused at the source, why (and no completion).
    pub fn request_tunnel_flow(
        &mut self,
        tunnel: RarId,
        flow: u64,
        rate_bps: u64,
        requestor: DistinguishedName,
    ) -> Result<Out, CoreError> {
        let mut run = Run::new(&Stopped);
        match self.request_tunnel_flow_held(tunnel, flow, rate_bps, None, requestor, &mut run) {
            Ok(()) => Ok(run.out),
            Err(DenialCode::UnknownTunnel) => {
                Err(CoreError::Tunnel(format!("unknown tunnel {tunnel:?}")))
            }
            Err(code) => Err(CoreError::Tunnel(format!("tunnel {tunnel:?}: {code}"))),
        }
    }

    /// The requests finished since the last call, or since the last run
    /// `step` emitted.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }
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
        transit.step(&mut inputs, &Stopped, &busy, |msgs, done, _| {
            assert!(done.is_empty(), "a transit broker completes nothing");
            queue.append(msgs);
            after_each_run.push(queue.len());
        });
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

    /// When a burst's batch equation fails, the per-item check on the
    /// broker's thread flags only the tampered item: at the source (a
    /// burst of user submissions) and in transit (a burst of peer
    /// requests), every other item of the burst goes on.
    #[test]
    fn a_burst_flags_only_the_tampered_item() {
        const BURST: usize = 8;
        const TAMPERED: usize = 5;
        let mut s = build_chain(ChainOptions::default());
        let cert = s.users["alice"].cert.clone();
        let rars: Vec<SignedRar> = (0..BURST)
            .map(|_| {
                let spec = s.spec("alice", 1000, 10_000, Timestamp(0), 3600);
                s.users["alice"].sign_request(spec, &s.nodes[0])
            })
            .collect();
        let ids: Vec<RarId> = rars.iter().map(|r| r.res_spec().rar_id).collect();
        let honest: Vec<RarId> = ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != TAMPERED)
            .map(|(_, id)| *id)
            .collect();
        let busy = Counter::noop();

        // At the source: the honest submissions are forwarded in order,
        // the tampered one completes denied.
        let mut inputs: Vec<Input> = rars
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, mut rar)| {
                if i == TAMPERED {
                    rar.signature.s ^= 1;
                }
                Input::Submit(Box::new(rar), Box::new(cert.clone()), UNQUEUED)
            })
            .collect();
        let mut source = build_chain(ChainOptions::default()).nodes.remove(0);
        let (mut sent, mut done) = (Vec::new(), Vec::new());
        source.step(&mut inputs, &Stopped, &busy, |msgs, ended, _| {
            sent.append(msgs);
            done.append(ended);
        });
        let forwarded: Vec<RarId> = sent.iter().map(|(_, msg)| msg.rar_id()).collect();
        assert_eq!(forwarded, honest);
        assert!(matches!(
            done.as_slice(),
            [Completion::Reservation { rar_id, result: Err(_) }] if *rar_id == ids[TAMPERED]
        ));

        // In transit: the honest requests go on to domain-c, the
        // tampered one is denied back to domain-a.
        let mut inputs: Vec<Input> = rars
            .into_iter()
            .enumerate()
            .map(|(i, rar)| {
                let SignalMessage::Request(mut request) = s.nodes[0].submit(rar, &cert).remove(0).1
                else {
                    unreachable!("the source forwards a request")
                };
                if i == TAMPERED {
                    request.signature.s ^= 1;
                }
                Input::Request("domain-a".into(), request, UNQUEUED)
            })
            .collect();
        let mut transit = build_chain(ChainOptions::default()).nodes.remove(1);
        let mut sent = Vec::new();
        transit.step(&mut inputs, &Stopped, &busy, |deliveries, _, _| {
            sent.append(deliveries);
        });
        let onward: Vec<RarId> = sent
            .iter()
            .filter(|(to, _)| &**to == "domain-c")
            .map(|(_, msg)| msg.rar_id())
            .collect();
        assert_eq!(onward, honest);
        assert!(matches!(
            sent.iter().find(|(to, _)| &**to == "domain-a"),
            Some((_, SignalMessage::Deny(d))) if d.rar_id == ids[TAMPERED]
        ));
        assert_eq!(sent.len(), BURST);
    }
}
