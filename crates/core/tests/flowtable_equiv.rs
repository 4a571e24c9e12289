//! §D14 equivalence: the FlowTable-backed tunnel sub-flow fast path
//! against a naive `HashMap` reference model of the pre-§D14 slow path.
//!
//! The model replicates the old semantics exactly — including the
//! deliberate quirks the fast path preserves for verdict equivalence
//! (a duplicate admit replaces the record but adds its full rate to the
//! committed aggregate; exhaustion is checked before the rate cap;
//! releases subtract the caller-supplied rate, saturating). Arbitrary
//! interleavings of admit / release / expiry must produce identical
//! accept/deny verdicts, identical denial codes, and identical committed
//! aggregate bps on the source broker.

use proptest::prelude::*;
use proptest::test_runner::Config as ProptestConfig;
use qos_core::drive::Mesh;
use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::{DenialCode, RarId, SignalMessage};
use qos_crypto::{DistinguishedName, Timestamp};
use qos_net::SimDuration;
use std::collections::HashMap;

const AGGREGATE: u64 = 8_000;

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Request + deliver + reply round trip for one sub-flow.
    Admit {
        flow: u64,
        rate: u64,
        hold: Option<u64>,
    },
    /// Source-initiated release with a caller-supplied rate (the legacy
    /// contract trusts the caller, saturating at zero).
    Release { flow: u64, rate: u64 },
    /// Advance wall time and run the expiry sweep.
    Expire { advance: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` is unweighted; repeating the admit and
    // release arms approximates a 4:2:1 admit/release/expire mix.
    let admit = || {
        (0u64..8, 1u64..2_500, proptest::option::of(0u64..24))
            .prop_map(|(flow, rate, hold)| Op::Admit { flow, rate, hold })
    };
    let release = || (0u64..8, 1u64..2_500).prop_map(|(flow, rate)| Op::Release { flow, rate });
    prop_oneof![
        admit(),
        admit(),
        admit(),
        admit(),
        release(),
        release(),
        (1u64..6).prop_map(|advance| Op::Expire { advance }),
    ]
}

/// What one op produced, in comparable form.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    SourceDeny(DenialCode),
    DestReply { accepted: bool, reason: DenialCode },
    Released { existed: bool },
    Expired { flows: Vec<u64> },
}

/// The pre-§D14 reference: plain HashMaps, linear sums, the exact quirk
/// set of the old path.
#[derive(Default)]
struct Model {
    /// Source side: committed + in-flight bps and held flows
    /// `flow → (rate, expiry)`.
    src_allocated: u64,
    src_held: HashMap<u64, (u64, Option<u64>)>,
    /// Destination side.
    dst_allocated: u64,
    dst_flows: HashMap<u64, u64>,
    now: u64,
}

impl Model {
    fn admit(&mut self, flow: u64, rate: u64, hold: Option<u64>) -> Verdict {
        // Source check (pending is always empty here: the driver
        // completes each round trip before the next op).
        if self.src_allocated + rate > AGGREGATE {
            return Verdict::SourceDeny(DenialCode::SourceExhausted);
        }
        // Destination: exhaustion first, then the rate cap; duplicate
        // admits replace the record but still add their full rate.
        if self.dst_allocated + rate > AGGREGATE {
            return Verdict::DestReply {
                accepted: false,
                reason: DenialCode::Exhausted,
            };
        }
        self.dst_allocated += rate;
        self.dst_flows.insert(flow, rate);
        // Source applies the accepted reply the same way.
        self.src_allocated += rate;
        self.src_held.insert(flow, (rate, hold));
        Verdict::DestReply {
            accepted: true,
            reason: DenialCode::None,
        }
    }

    fn release(&mut self, flow: u64, rate: u64) -> Verdict {
        self.src_allocated = self.src_allocated.saturating_sub(rate);
        let existed = self.src_held.remove(&flow).is_some();
        if let Some(dst_rate) = self.dst_flows.remove(&flow) {
            self.dst_allocated = self.dst_allocated.saturating_sub(dst_rate);
        }
        Verdict::Released { existed }
    }

    fn expire(&mut self, to: u64) -> Verdict {
        if to <= self.now {
            return Verdict::Expired { flows: Vec::new() };
        }
        self.now = to;
        let mut due: Vec<u64> = self
            .src_held
            .iter()
            .filter(|(_, (_, hold))| hold.is_some_and(|h| h <= to))
            .map(|(f, _)| *f)
            .collect();
        due.sort_unstable();
        for f in &due {
            let (rate, _) = self.src_held.remove(f).expect("listed as due");
            self.src_allocated = self.src_allocated.saturating_sub(rate);
            if let Some(dst_rate) = self.dst_flows.remove(f) {
                self.dst_allocated = self.dst_allocated.saturating_sub(dst_rate);
            }
        }
        Verdict::Expired { flows: due }
    }
}

/// Build a 2-domain world with one established tunnel and return the
/// driver pieces.
fn tunnel_world() -> (Mesh, RarId, DistinguishedName) {
    let mut s = build_chain(ChainOptions {
        domains: 2,
        sla_rate_bps: 1_000_000,
        local_capacity_bps: 10_000_000,
        ..ChainOptions::default()
    });
    let spec = s
        .spec("alice", 0, AGGREGATE, Timestamp(0), 1_000_000)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();
    let mut mesh = Mesh::new();
    for node in s.nodes.drain(..) {
        mesh.add_node(node);
    }
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    assert!(
        matches!(
            mesh.reservation_outcome("domain-a", tunnel),
            Some((_, Completion::Reservation { result: Ok(_), .. }))
        ),
        "tunnel aggregate must establish"
    );
    (mesh, tunnel, alice)
}

/// Drive one op against the real brokers, completing every round trip.
fn run_real(mesh: &mut Mesh, tunnel: RarId, alice: &DistinguishedName, op: &Op) -> Verdict {
    match *op {
        Op::Admit { flow, rate, hold } => {
            let out = mesh.node_mut("domain-a").request_tunnel_flow_held(
                tunnel,
                flow,
                rate,
                hold.map(Timestamp),
                alice.clone(),
            );
            let out = match out {
                Err(code) => return Verdict::SourceDeny(code),
                Ok(out) => out,
            };
            for (_, msg) in out {
                let SignalMessage::TunnelFlow(req) = msg else {
                    panic!("source emitted a non-tunnel-flow message");
                };
                let replies = mesh
                    .node_mut("domain-b")
                    .recv_tunnel_flows(vec![("domain-a".into(), req)]);
                for (to, reply) in replies {
                    mesh.node_mut(&to).recv("domain-b", reply);
                }
            }
            let completion = mesh
                .node_mut("domain-a")
                .take_completions()
                .into_iter()
                .rev()
                .find_map(|c| match c {
                    Completion::TunnelFlow {
                        accepted, reason, ..
                    } => Some((accepted, reason)),
                    _ => None,
                })
                .expect("reply produces a completion");
            Verdict::DestReply {
                accepted: completion.0,
                reason: completion.1,
            }
        }
        Op::Release { flow, rate } => {
            let (records_before, _) = mesh.node("domain-a").held_flow_stats();
            let out = mesh
                .node_mut("domain-a")
                .release_tunnel_flow(tunnel, flow, rate)
                .expect("tunnel exists");
            for (_, msg) in out {
                mesh.node_mut("domain-b").recv("domain-a", msg);
            }
            let (records_after, _) = mesh.node("domain-a").held_flow_stats();
            Verdict::Released {
                existed: records_after < records_before,
            }
        }
        Op::Expire { advance } => {
            let tick = NEXT_TICK.with(|t| {
                let v = t.get() + advance;
                t.set(v);
                v
            });
            let out = mesh
                .node_mut("domain-a")
                .expire_tunnel_flows(Timestamp(tick));
            let mut flows: Vec<u64> = out
                .iter()
                .map(|(_, msg)| match msg {
                    SignalMessage::TunnelFlowRelease(r) => r.flow,
                    other => panic!("expiry emitted {other:?}"),
                })
                .collect();
            for (_, msg) in out {
                mesh.node_mut("domain-b").recv("domain-a", msg);
            }
            flows.sort_unstable();
            Verdict::Expired { flows }
        }
    }
}

thread_local! {
    static NEXT_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_path_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let (mut mesh, tunnel, alice) = tunnel_world();
        let mut model = Model::default();
        NEXT_TICK.with(|t| t.set(0));
        for (i, op) in ops.iter().enumerate() {
            let real = run_real(&mut mesh, tunnel, &alice, op);
            let expected = match *op {
                Op::Admit { flow, rate, hold } => model.admit(flow, rate, hold),
                Op::Release { flow, rate } => model.release(flow, rate),
                Op::Expire { advance } => {
                    let to = NEXT_TICK.with(|t| t.get());
                    // run_real advanced the shared tick before sweeping.
                    let _ = advance;
                    model.expire(to)
                }
            };
            prop_assert_eq!(&real, &expected, "op {} = {:?} diverged", i, op);
            // Committed aggregate must agree exactly after every op.
            let (_, _, _, agg, allocated) = mesh
                .node_mut("domain-a")
                .tunnel_info(tunnel)
                .expect("tunnel exists");
            prop_assert_eq!(agg, AGGREGATE);
            prop_assert_eq!(
                allocated, model.src_allocated,
                "committed bps diverged after op {} = {:?}", i, op
            );
        }
    }
}

/// Timer-wheel expiry ordering at the node level, driven by a manual
/// clock: releases fire exactly at their hold ticks, in tick order,
/// never early, and lazy cancellation skips released or re-held flows.
#[test]
fn expiry_fires_in_hold_order_under_manual_clock() {
    let (mut mesh, tunnel, alice) = tunnel_world();
    let clock = mesh.install_sim_clock();

    let admit = |mesh: &mut Mesh, flow: u64, hold: Option<u64>| {
        let out = mesh
            .node_mut("domain-a")
            .request_tunnel_flow_held(tunnel, flow, 10, hold.map(Timestamp), alice.clone())
            .expect("within aggregate");
        for (_, msg) in out {
            let replies = mesh
                .node_mut("domain-b")
                .recv_tunnel_flows(vec![msg_flow(msg)]);
            for (to, reply) in replies {
                mesh.node_mut(&to).recv("domain-b", reply);
            }
        }
        assert!(mesh
            .node_mut("domain-a")
            .take_completions()
            .iter()
            .any(|c| matches!(c, Completion::TunnelFlow { accepted: true, .. })));
    };
    fn msg_flow(msg: SignalMessage) -> (qos_core::PeerId, qos_core::messages::TunnelFlowRequest) {
        match msg {
            SignalMessage::TunnelFlow(req) => ("domain-a".into(), req),
            other => panic!("expected a tunnel flow request, got {other:?}"),
        }
    }
    let expire = |mesh: &mut Mesh, clock: &qos_telemetry::ManualClock, at: u64| -> Vec<u64> {
        clock.set_ns(at * 1_000_000_000);
        mesh.node_mut("domain-a")
            .expire_tunnel_flows(Timestamp(at))
            .into_iter()
            .map(|(_, msg)| match msg {
                SignalMessage::TunnelFlowRelease(r) => r.flow,
                other => panic!("expiry emitted {other:?}"),
            })
            .collect()
    };

    admit(&mut mesh, 1, Some(5));
    admit(&mut mesh, 2, Some(3));
    admit(&mut mesh, 3, Some(3));
    admit(&mut mesh, 4, None); // standing: never expires
    admit(&mut mesh, 5, Some(9));
    admit(&mut mesh, 6, Some(4));

    // Flow 6 is released by hand, then re-admitted with a longer hold:
    // the stale wheel entry at tick 4 must be skipped (lazy cancel).
    let out = mesh
        .node_mut("domain-a")
        .release_tunnel_flow(tunnel, 6, 10)
        .unwrap();
    assert_eq!(out.len(), 1);
    admit(&mut mesh, 6, Some(7));

    assert_eq!(
        expire(&mut mesh, &clock, 2),
        Vec::<u64>::new(),
        "nothing due before 3"
    );
    let mut at3 = expire(&mut mesh, &clock, 3);
    at3.sort_unstable();
    assert_eq!(at3, vec![2, 3], "both tick-3 holds fire together");
    assert_eq!(
        expire(&mut mesh, &clock, 4),
        Vec::<u64>::new(),
        "flow 6's stale entry skipped"
    );
    assert_eq!(
        expire(&mut mesh, &clock, 6),
        vec![1],
        "flow 1 fires at its tick"
    );
    assert_eq!(
        expire(&mut mesh, &clock, 7),
        vec![6],
        "flow 6 fires at its re-held tick"
    );
    assert_eq!(
        expire(&mut mesh, &clock, 1_000),
        vec![5],
        "flow 5 fires late via cascade"
    );
    // The standing flow stays held and committed.
    let (_, _, _, _, allocated) = mesh.node_mut("domain-a").tunnel_info(tunnel).unwrap();
    assert_eq!(allocated, 10, "only the never-expiring flow remains");
}
