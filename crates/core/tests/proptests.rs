//! Property tests for the signalling core: envelope integrity under
//! byte-level fuzzing, protocol-level conservation invariants, and a
//! broker as a function of its inputs.

use proptest::prelude::*;
use proptest::test_runner::Config as ProptestConfig;
use qos_broker::Interval;
use qos_core::envelope::SignedRar;
use qos_core::node::{BbNode, Completion};
use qos_core::scenario::{build_chain, ChainOptions, Scenario};
use qos_core::step::UNQUEUED;
use qos_core::trust::{verify_rar, KeySource};
use qos_core::{Input, PeerId, RarId, ResSpec};
use qos_crypto::{
    CertificateAuthority, DistinguishedName, KeyPair, Timestamp, TrustPolicy, Validity,
};
use qos_net::SimDuration;
use qos_policy::AttributeSet;
use qos_telemetry::{Clock, Counter, ManualClock, Span, SpanKind, TraceId};

const MBPS: u64 = 1_000_000;

fn build_envelope(hops: usize, rate: u64) -> (SignedRar, Vec<KeyPair>) {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let user = KeyPair::from_seed(b"alice");
    let user_cert = ca.issue_identity(
        DistinguishedName::user("Alice", "ANL"),
        user.public(),
        Validity::unbounded(),
    );
    let keys: Vec<KeyPair> = (0..hops)
        .map(|i| KeyPair::from_seed(format!("bb-{i}").as_bytes()))
        .collect();
    let spec = ResSpec::new(
        RarId(1),
        DistinguishedName::user("Alice", "ANL"),
        "domain-0",
        &format!("domain-{hops}"),
        7,
        rate,
        Interval::starting_at(Timestamp(0), 3600),
    );
    let mut rar =
        SignedRar::user_request(spec, DistinguishedName::broker("domain-0"), vec![], &user);
    let mut upstream = user_cert;
    for (i, key) in keys.iter().enumerate() {
        rar = SignedRar::wrap(
            rar,
            upstream,
            Some(DistinguishedName::broker(&format!("domain-{}", i + 1))),
            vec![],
            AttributeSet::new(),
            DistinguishedName::broker(&format!("domain-{i}")),
            key,
        );
        upstream = ca.issue_identity(
            DistinguishedName::broker(&format!("domain-{i}")),
            key.public(),
            Validity::unbounded(),
        );
    }
    (rar, keys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte of a serialized envelope either breaks decoding
    /// or breaks the destination's verification — no silent acceptance.
    #[test]
    fn envelope_bitflip_never_verifies(
        hops in 1usize..4,
        rate in 1u64..1_000_000_000,
        flip in any::<prop::sample::Index>(),
    ) {
        let (rar, keys) = build_envelope(hops, rate);
        let mut bytes = qos_wire::to_bytes(&rar);
        let idx = flip.index(bytes.len());
        bytes[idx] ^= 0x5A;
        let self_dn = DistinguishedName::broker(&format!("domain-{hops}"));
        if let Ok(mutated) = qos_wire::from_bytes::<SignedRar>(&bytes) {
            if mutated == rar {
                return Ok(()); // flip landed on a redundant encoding byte? impossible, but safe
            }
            let out = verify_rar(
                &mutated,
                keys[hops - 1].public(),
                &self_dn,
                TrustPolicy { max_chain_depth: 64 },
                Timestamp(0),
                &KeySource::Introducers,
            );
            prop_assert!(out.is_err(), "mutated envelope verified at byte {idx}");
        }
    }

    /// The genuine envelope always verifies (sanity for the fuzz above).
    #[test]
    fn genuine_envelope_always_verifies(hops in 1usize..5, rate in 1u64..1_000_000_000) {
        let (rar, keys) = build_envelope(hops, rate);
        let self_dn = DistinguishedName::broker(&format!("domain-{hops}"));
        let verified = verify_rar(
            &rar,
            keys[hops - 1].public(),
            &self_dn,
            TrustPolicy { max_chain_depth: 64 },
            Timestamp(0),
            &KeySource::Introducers,
        ).unwrap();
        prop_assert_eq!(verified.res_spec.rate_bps, rate);
        prop_assert_eq!(verified.signer_path.len(), hops + 1);
    }

    /// Encode-once cache transparency: after any mix of wraps and wire
    /// round-trips (plain or shared-buffer decode), every layer's cached
    /// wire bytes stay byte-identical to a fresh encoding of that layer,
    /// and the whole envelope re-encodes to its exact wire form.
    /// (Restated on `wire_bytes()` for §D22: `layer_bytes()` is the
    /// signature preimage, no longer the encoding.)
    #[test]
    fn cached_layer_bytes_match_fresh_encoding(
        hops in 1usize..5,
        rate in 1u64..1_000_000_000,
        path in 0u8..3,
    ) {
        let (built, _) = build_envelope(hops, rate);
        let wire = qos_wire::to_bytes(&built);
        let rar = match path {
            0 => built, // as signed, caches prefilled at wrap time
            1 => qos_wire::from_bytes::<SignedRar>(&wire).unwrap(),
            _ => {
                let shared: std::sync::Arc<[u8]> = wire.clone().into();
                qos_wire::from_bytes_shared::<SignedRar>(&shared).unwrap()
            }
        };
        let mut cur = &rar;
        loop {
            let fresh = qos_wire::to_bytes(&cur.layer);
            prop_assert_eq!(
                cur.wire_bytes(),
                fresh.as_slice(),
                "stale wire-bytes cache"
            );
            match &cur.layer {
                qos_core::RarLayer::Broker { inner, .. } => cur = inner,
                qos_core::RarLayer::User { .. } => break,
            }
        }
        prop_assert_eq!(qos_wire::to_bytes(&rar), wire);
    }

    /// Protocol conservation: however many requests race through the
    /// chain, the sum of committed bandwidth in each domain equals the
    /// sum of granted requests, and no domain ends up over its SLA.
    #[test]
    fn grants_match_commitments(
        rates in proptest::collection::vec(1u64..40, 1..12),
    ) {
        let sla = 100 * MBPS;
        let mut s = build_chain(ChainOptions {
            sla_rate_bps: sla,
            ..ChainOptions::default()
        });
        let mut rars = Vec::new();
        for (i, r) in rates.iter().enumerate() {
            let spec = s.spec("alice", 100 + i as u64, r * MBPS, Timestamp(0), 3600);
            rars.push((spec.rar_id, r * MBPS, s.users["alice"].sign_request(spec, &s.nodes[0])));
        }
        let cert = s.users["alice"].cert.clone();
        let mut mesh = s.mesh(SimDuration::from_millis(1));
        for (_, _, rar) in &rars {
            mesh.submit_in(SimDuration::ZERO, "domain-a", rar.clone(), cert.clone());
        }
        mesh.run_until_idle();

        let mut granted_sum = 0u64;
        for (id, rate, _) in &rars {
            if let Some((_, Completion::Reservation { result: Ok(_), .. })) =
                mesh.reservation_outcome("domain-a", *id)
            {
                granted_sum += rate;
            }
        }
        prop_assert!(granted_sum <= sla, "SLA oversubscribed");
        for d in &s.domains {
            let committed = 1_000_000_000 - mesh.node(d).core().available_bw_at(Timestamp(10));
            prop_assert_eq!(
                committed,
                granted_sum,
                "domain {} committed {} but grants total {}",
                d, committed, granted_sum
            );
        }
    }
}

/// One step of a user's script at domain-a, the source of a 3-domain
/// chain.
#[derive(Debug, Clone)]
enum UserOp {
    /// A reservation of `rate` Mb/s; signed by a user the certificate
    /// does not name unless `honest`.
    Submit { rate: u64, honest: bool },
    /// A sub-flow of `kbps` on the standing tunnel, or on one that does
    /// not exist.
    Flow { kbps: u64, unknown: bool },
    /// Tear down the `nth` reservation submitted so far (mod their
    /// count): granted, denied or already gone.
    Release { nth: usize },
    /// Release the `nth` sub-flow asked for on the standing tunnel so far
    /// (mod their count): held, refused or already released.
    ReleaseFlow { nth: usize },
    /// Register CPU reservation `id` at the `domain`th domain (mod 3).
    CpuReservation { domain: usize, id: u64 },
    /// Trust David directly at the `domain`th domain (mod 3).
    DirectUser { domain: usize },
    /// Move every domain's wall clock.
    SetTime { secs: u64 },
    /// Let the chain fall quiet, then let `pause_us` pass on the clock
    /// every step is timed on, before the next input.
    Settle { pause_us: u64 },
}

fn user_op() -> impl Strategy<Value = UserOp> {
    prop_oneof![
        (1u64..8, proptest::bool::ANY).prop_map(|(rate, honest)| UserOp::Submit { rate, honest }),
        (100u64..4000, proptest::bool::ANY)
            .prop_map(|(kbps, unknown)| UserOp::Flow { kbps, unknown }),
        (0usize..16).prop_map(|nth| UserOp::Release { nth }),
        (0usize..16).prop_map(|nth| UserOp::ReleaseFlow { nth }),
        (0usize..3, 0u64..4).prop_map(|(domain, id)| UserOp::CpuReservation { domain, id }),
        (0usize..3).prop_map(|domain| UserOp::DirectUser { domain }),
        (0u64..3000).prop_map(|secs| UserOp::SetTime { secs }),
        (0u64..5000).prop_map(|pause_us| UserOp::Settle { pause_us }),
    ]
}

/// One round of a script: how far the clock moves before it (ns), and
/// its inputs, each with the index of the domain it is for.
type Round = (u64, Vec<(usize, Input)>);

/// The rounds `ops` make: a round per `Settle`, after a first round that
/// stands the tunnel up. Signing is deterministic, so each chain built
/// from the same options gets the same inputs.
fn script(s: &mut Scenario, ops: &[UserOp]) -> Vec<Round> {
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();
    let submit = |s: &Scenario, spec: ResSpec, signer: &str| {
        let rar = s.users[signer].sign_request(spec, &s.nodes[0]);
        Input::Submit(Box::new(rar), Box::new(cert.clone()), UNQUEUED)
    };
    // The 10 Mb/s tunnel every sub-flow of the script asks for.
    let spec = s
        .spec("alice", 1, 10 * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let david = &s.users["david"];
    let (david_dn, david_pk) = (david.dn.clone(), david.key.public());
    let mut rounds = vec![(0, vec![(0, submit(s, spec, "alice"))]), (0, Vec::new())];
    let (mut submitted, mut flows) = (Vec::new(), Vec::new());
    for (i, op) in ops.iter().enumerate() {
        let (domain, input) = match *op {
            UserOp::Submit { rate, honest } => {
                let spec = s.spec("alice", 100 + i as u64, rate * MBPS, Timestamp(0), 3600);
                submitted.push(spec.rar_id);
                (0, submit(s, spec, if honest { "alice" } else { "david" }))
            }
            UserOp::Flow { kbps, unknown } => {
                let on = if unknown { RarId(999_999) } else { tunnel };
                if !unknown {
                    flows.push(i as u64);
                }
                (
                    0,
                    Input::TunnelFlow(on, i as u64, kbps * 1000, None, alice.clone()),
                )
            }
            UserOp::Release { nth } if !submitted.is_empty() => {
                (0, Input::Release(submitted[nth % submitted.len()]))
            }
            UserOp::Release { .. } => continue,
            UserOp::ReleaseFlow { nth } if !flows.is_empty() => {
                (0, Input::ReleaseFlow(tunnel, flows[nth % flows.len()]))
            }
            UserOp::ReleaseFlow { .. } => continue,
            UserOp::CpuReservation { domain, id } => (domain % 3, Input::CpuReservation(id)),
            UserOp::DirectUser { domain } => {
                (domain % 3, Input::DirectUser(david_dn.clone(), david_pk))
            }
            UserOp::SetTime { secs } => {
                let round = &mut rounds.last_mut().expect("a round").1;
                round.extend((0..3).map(|d| (d, Input::SetTime(Timestamp(secs)))));
                continue;
            }
            UserOp::Settle { pause_us } => {
                rounds.push((pause_us * 1000, Vec::new()));
                continue;
            }
        };
        rounds.last_mut().expect("a round").1.push((domain, input));
    }
    rounds
}

/// What a span says: trace, request, domain, kind, detail, start,
/// end and wall time.
type SpanFacts = (TraceId, u64, String, SpanKind, String, u64, u64, u64);

fn facts(s: &Span) -> SpanFacts {
    let (domain, detail) = (s.domain.clone(), s.detail.clone());
    (
        s.trace, s.request, domain, s.kind, detail, s.start_ns, s.end_ns, s.wall_s,
    )
}

/// Everything a chain emitted: each delivery's sender, receiver and
/// wire encoding, each completion with its domain, in order, and every
/// span each broker recorded; then what each broker holds at the end:
/// its trust table's size and its sub-flow records.
type Trace = (
    Vec<(PeerId, PeerId, Vec<u8>)>,
    Vec<(PeerId, Completion)>,
    Vec<SpanFacts>,
    Vec<(usize, usize)>,
);

/// How far the clock moves before each `step`, in ns.
const STEP_NS: u64 = 1000;

/// Feed `rounds` to a fresh, traced chain through `step`, on a clock
/// this function alone advances: by each round's pause, and by
/// `STEP_NS` before every step. Each run's deliveries are routed by
/// hand as inputs of the domain they are for, stamped with the time
/// they were routed, and each round runs to quiet before the next.
fn trace(rounds: impl FnOnce(&mut Scenario) -> Vec<Round>) -> Trace {
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 40 * MBPS,
        tracing: true,
        ..ChainOptions::default()
    });
    let rounds = rounds(&mut s);
    let mut brokers: Vec<(PeerId, BbNode, Vec<Input>)> = s
        .nodes
        .drain(..)
        .map(|n| (PeerId::from(n.domain()), n, Vec::new()))
        .collect();
    let (mut delivered, mut completed) = (Vec::new(), Vec::new());
    let clock = ManualClock::new();
    for (pause_ns, round) in rounds {
        clock.advance(pause_ns);
        for (d, input) in round {
            brokers[d].2.push(input);
        }
        while let Some(i) = brokers.iter().position(|(_, _, inputs)| !inputs.is_empty()) {
            let (domain, node, inputs) = &mut brokers[i];
            let domain = domain.clone();
            let mut routed = Vec::new();
            clock.advance(STEP_NS);
            node.step(inputs, &clock, &Counter::noop(), |deliveries, done, _| {
                routed.append(deliveries);
                completed.extend(done.drain(..).map(|c| (domain.clone(), c)));
            });
            for (to, msg) in routed {
                delivered.push((domain.clone(), to.clone(), qos_wire::to_bytes(&msg)));
                let (_, _, next) = brokers
                    .iter_mut()
                    .find(|(d, _, _)| *d == to)
                    .expect("a broker of the chain");
                next.push(Input::peer(domain.clone(), msg, clock.now_ns()));
            }
        }
    }
    let spans = brokers
        .iter()
        .flat_map(|(_, node, _)| node.tracer().spans().map(facts))
        .collect();
    let held = brokers
        .iter()
        .map(|(_, node, _)| (node.trust_table_size(), node.held_flow_stats().0))
        .collect();
    (delivered, completed, spans, held)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A broker is a function of its inputs and of the clock its driver
    /// passes in: the same script through `step` on two fresh chains
    /// delivers the same bytes, completes the same requests (denials and
    /// refusals at the source included), records the same spans, each
    /// timed on the script's clock, and ends with the same trust entries
    /// and sub-flows held.
    #[test]
    fn a_broker_is_a_function_of_its_inputs(
        ops in proptest::collection::vec(user_op(), 1..48),
    ) {
        let first = trace(|s| script(s, &ops));
        let second = trace(|s| script(s, &ops));
        prop_assert!(
            matches!(first.1.first(), Some((_, Completion::Reservation { result: Ok(_), .. }))),
            "the tunnel stands first"
        );
        prop_assert_eq!(first.0.len(), second.0.len());
        for (i, (a, b)) in first.0.iter().zip(&second.0).enumerate() {
            prop_assert_eq!(a, b, "delivery {} differs", i);
        }
        prop_assert_eq!(first.1, second.1);
        prop_assert!(!first.2.is_empty(), "the tunnel's request is traced");
        prop_assert!(
            first.2.iter().all(|s| s.5 >= STEP_NS && s.6 >= s.5),
            "every span is on the script's clock"
        );
        prop_assert_eq!(first.2.len(), second.2.len());
        for (i, (a, b)) in first.2.iter().zip(&second.2).enumerate() {
            prop_assert_eq!(a, b, "span {} differs", i);
        }
        prop_assert_eq!(first.3, second.3);
    }
}
