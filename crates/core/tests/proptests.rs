//! Property tests for the signalling core: envelope integrity under
//! byte-level fuzzing, and protocol-level conservation invariants.

use proptest::prelude::*;
use proptest::test_runner::Config as ProptestConfig;
use qos_broker::Interval;
use qos_core::envelope::SignedRar;
use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::trust::{verify_rar, KeySource};
use qos_core::{RarId, ResSpec};
use qos_crypto::{
    CertificateAuthority, DistinguishedName, KeyPair, Timestamp, TrustPolicy, Validity,
};
use qos_net::SimDuration;
use qos_policy::AttributeSet;

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
