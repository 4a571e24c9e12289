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
use qos_telemetry::Counter;

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
        let mut mesh = qos_core::drive::Mesh::new();
        let domains = s.domains.clone();
        for node in s.nodes.drain(..) {
            mesh.add_node(node);
        }
        for w in domains.windows(2) {
            mesh.set_latency(&w[0], &w[1], SimDuration::from_millis(1));
        }
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
        for d in &domains {
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
    /// Move every domain's wall clock.
    SetTime { secs: u64 },
    /// Let the chain fall quiet before the next input.
    Settle,
}

fn user_op() -> impl Strategy<Value = UserOp> {
    prop_oneof![
        (1u64..8, proptest::bool::ANY).prop_map(|(rate, honest)| UserOp::Submit { rate, honest }),
        (100u64..4000, proptest::bool::ANY)
            .prop_map(|(kbps, unknown)| UserOp::Flow { kbps, unknown }),
        (0usize..16).prop_map(|nth| UserOp::Release { nth }),
        (0u64..3000).prop_map(|secs| UserOp::SetTime { secs }),
        Just(UserOp::Settle),
    ]
}

/// The inputs `ops` make, each with the index of the domain it is for, a
/// round per `Settle`, after a first round that stands the tunnel up.
/// Signing is deterministic, so each chain built from the same options
/// gets the same inputs.
fn script(s: &mut Scenario, ops: &[UserOp]) -> Vec<Vec<(usize, Input)>> {
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
    let mut rounds = vec![vec![(0, submit(s, spec, "alice"))], Vec::new()];
    let mut submitted = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let input = match *op {
            UserOp::Submit { rate, honest } => {
                let spec = s.spec("alice", 100 + i as u64, rate * MBPS, Timestamp(0), 3600);
                submitted.push(spec.rar_id);
                submit(s, spec, if honest { "alice" } else { "david" })
            }
            UserOp::Flow { kbps, unknown } => {
                let on = if unknown { RarId(999_999) } else { tunnel };
                Input::TunnelFlow(on, i as u64, kbps * 1000, None, alice.clone())
            }
            UserOp::Release { nth } if !submitted.is_empty() => {
                Input::Release(submitted[nth % submitted.len()])
            }
            UserOp::Release { .. } => continue,
            UserOp::SetTime { secs } => {
                let round = rounds.last_mut().expect("a round");
                round.extend((0..3).map(|d| (d, Input::SetTime(Timestamp(secs)))));
                continue;
            }
            UserOp::Settle => {
                rounds.push(Vec::new());
                continue;
            }
        };
        rounds.last_mut().expect("a round").push((0, input));
    }
    rounds
}

/// Everything a chain emitted: each delivery's sender, receiver and
/// wire encoding, and each completion with its domain, in order.
type Trace = (Vec<(PeerId, PeerId, Vec<u8>)>, Vec<(PeerId, Completion)>);

/// Feed `rounds` to a fresh chain through `step`, routing each run's
/// deliveries by hand as inputs of the domain they are for, and each
/// round to quiet before the next.
fn trace(rounds: impl FnOnce(&mut Scenario) -> Vec<Vec<(usize, Input)>>) -> Trace {
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 40 * MBPS,
        ..ChainOptions::default()
    });
    let rounds = rounds(&mut s);
    let mut brokers: Vec<(PeerId, BbNode, Vec<Input>)> = s
        .nodes
        .drain(..)
        .map(|n| (PeerId::from(n.domain()), n, Vec::new()))
        .collect();
    let (mut delivered, mut completed) = (Vec::new(), Vec::new());
    for round in rounds {
        for (d, input) in round {
            brokers[d].2.push(input);
        }
        while let Some(i) = brokers.iter().position(|(_, _, inputs)| !inputs.is_empty()) {
            let (domain, node, inputs) = &mut brokers[i];
            let domain = domain.clone();
            let mut routed = Vec::new();
            node.step(inputs, &Counter::noop(), |deliveries, done| {
                routed.append(deliveries);
                completed.extend(done.drain(..).map(|c| (domain.clone(), c)));
            });
            for (to, msg) in routed {
                delivered.push((domain.clone(), to.clone(), qos_wire::to_bytes(&msg)));
                let (_, _, next) = brokers
                    .iter_mut()
                    .find(|(d, _, _)| *d == to)
                    .expect("a broker of the chain");
                next.push(Input::peer(domain.clone(), msg, UNQUEUED));
            }
        }
    }
    (delivered, completed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A broker is a function of its inputs: the same script through
    /// `step` on two fresh chains delivers the same bytes and completes
    /// the same requests, denials and refusals at the source included.
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
    }
}
