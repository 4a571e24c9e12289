//! Nested-envelope benchmarks (EXP-S / D1 ablation): per-hop wrap cost,
//! destination verification versus depth, codec round-trips, and what a
//! broker spends on a request it has never seen (EXP-COLD).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use qos_broker::Interval;
use qos_core::envelope::SignedRar;
use qos_core::scenario::{build_chain, ChainOptions, Scenario};
use qos_core::trust::{verify_rar, KeySource};
use qos_core::{RarId, ResSpec, SignalMessage};
use qos_crypto::{
    CertificateAuthority, DistinguishedName, KeyPair, Timestamp, TrustPolicy, Validity,
};
use qos_policy::AttributeSet;
use std::hint::black_box;

struct World {
    user: KeyPair,
    user_cert: qos_crypto::Certificate,
    keys: Vec<KeyPair>,
    certs: Vec<qos_crypto::Certificate>,
}

fn world(hops: usize) -> World {
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
    let certs = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            ca.issue_identity(
                DistinguishedName::broker(&format!("domain-{i}")),
                k.public(),
                Validity::unbounded(),
            )
        })
        .collect();
    World {
        user,
        user_cert,
        keys,
        certs,
    }
}

fn build(w: &World, hops: usize) -> SignedRar {
    let spec = ResSpec::new(
        RarId(1),
        DistinguishedName::user("Alice", "ANL"),
        "domain-0",
        &format!("domain-{hops}"),
        7,
        10_000_000,
        Interval::starting_at(Timestamp(0), 3600),
    );
    let mut rar =
        SignedRar::user_request(spec, DistinguishedName::broker("domain-0"), vec![], &w.user);
    let mut upstream = w.user_cert.clone();
    for i in 0..hops {
        rar = SignedRar::wrap(
            rar,
            upstream,
            Some(DistinguishedName::broker(&format!("domain-{}", i + 1))),
            vec![],
            AttributeSet::new(),
            DistinguishedName::broker(&format!("domain-{i}")),
            &w.keys[i],
        );
        upstream = w.certs[i].clone();
    }
    rar
}

fn bench_wrap(c: &mut Criterion) {
    let w = world(4);
    let inner = build(&w, 3);
    c.bench_function("envelope/wrap-one-hop", |b| {
        b.iter(|| {
            SignedRar::wrap(
                black_box(inner.clone()),
                w.certs[2].clone(),
                Some(DistinguishedName::broker("domain-4")),
                vec![],
                AttributeSet::new(),
                DistinguishedName::broker("domain-3"),
                &w.keys[3],
            )
        })
    });
    // A hop's wrap of the nest it has just verified (its digest in
    // hand): the encoding copies the nest, the hash covers only what
    // the hop appends (DESIGN.md §D22).
    let mut g = c.benchmark_group("envelope/wrap");
    for depth in [3usize, 8] {
        let w = world(depth + 1);
        let inner = build(&w, depth - 1);
        g.bench_function(BenchmarkId::from_parameter(format!("depth-{depth}")), |b| {
            b.iter_batched(
                || inner.clone(),
                |inner| {
                    SignedRar::wrap(
                        inner,
                        w.certs[depth - 2].clone(),
                        Some(DistinguishedName::broker(&format!("domain-{depth}"))),
                        vec![],
                        AttributeSet::new(),
                        DistinguishedName::broker(&format!("domain-{}", depth - 1)),
                        &w.keys[depth - 1],
                    )
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// Every layer's digest of a nest as it comes off the wire: one pass
/// over the message, each layer chaining over the one inside it (§D22).
fn bench_digests(c: &mut Criterion) {
    let mut g = c.benchmark_group("envelope/digests");
    for depth in [3usize, 8] {
        let w = world(depth);
        let frame: std::sync::Arc<[u8]> = qos_wire::to_bytes(&build(&w, depth - 1)).into();
        g.bench_function(BenchmarkId::from_parameter(format!("depth-{depth}")), |b| {
            b.iter_batched(
                || qos_wire::from_bytes_shared::<SignedRar>(&frame).unwrap(),
                |rar| {
                    let first_bytes = layers(&rar).into_iter().map(|l| l.layer_digest()[0] as u32);
                    first_bytes.sum::<u32>()
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// The chain of envelopes, outermost first.
fn layers(rar: &SignedRar) -> Vec<&SignedRar> {
    let mut v = vec![rar];
    let mut cur = rar;
    while let qos_core::RarLayer::Broker { inner, .. } = &cur.layer {
        cur = inner;
        v.push(cur);
    }
    v
}

/// The tentpole ablation: reading every layer's wire bytes from
/// the encode-once cache versus re-serialising each nested layer the
/// way the pre-cache verifier did (O(d²) bytes touched at depth d).
fn bench_encode_once(c: &mut Criterion) {
    let mut g = c.benchmark_group("envelope/layer-bytes");
    for depth in 1..=10usize {
        let w = world(depth);
        let rar = build(&w, depth);
        let chain = layers(&rar);
        g.bench_with_input(BenchmarkId::new("cached", depth), &chain, |b, chain| {
            b.iter(|| {
                chain
                    .iter()
                    .map(|l| black_box(l.wire_bytes()).len())
                    .sum::<usize>()
            })
        });
        g.bench_with_input(BenchmarkId::new("re-encode", depth), &chain, |b, chain| {
            b.iter(|| {
                chain
                    .iter()
                    .map(|l| qos_wire::to_bytes(black_box(&l.layer)).len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

fn bench_verify_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("envelope/verify-depth");
    for hops in [1usize, 3, 6, 8, 10] {
        let w = world(hops);
        let rar = build(&w, hops);
        let peer_pk = w.keys[hops - 1].public();
        let self_dn = DistinguishedName::broker(&format!("domain-{hops}"));
        g.bench_with_input(BenchmarkId::from_parameter(hops), &rar, |b, rar| {
            b.iter(|| {
                verify_rar(
                    black_box(rar),
                    peer_pk,
                    &self_dn,
                    TrustPolicy {
                        max_chain_depth: 64,
                    },
                    Timestamp(0),
                    &KeySource::Introducers,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let w = world(5);
    let rar = build(&w, 5);
    let bytes = qos_wire::to_bytes(&rar);
    c.bench_function("envelope/encode-5hop", |b| {
        b.iter(|| qos_wire::to_bytes(black_box(&rar)))
    });
    c.bench_function("envelope/decode-5hop", |b| {
        b.iter(|| qos_wire::from_bytes::<SignedRar>(black_box(&bytes)).unwrap())
    });
}

/// What an envelope is made of (EXP-HEAP): a name, a certificate (two
/// names), and the owned decode of a whole first-sight request, where
/// every layer carries a signer, a next hop and a certificate.
fn bench_names(c: &mut Criterion) {
    let dn = DistinguishedName::broker("domain-b");
    let dn_bytes = qos_wire::to_bytes(&dn);
    c.bench_function("dn/decode", |b| {
        b.iter(|| qos_wire::from_bytes::<DistinguishedName>(black_box(&dn_bytes)).unwrap())
    });
    c.bench_function("dn/clone", |b| b.iter(|| black_box(&dn).clone()));

    let w = world(8);
    let cert_bytes = qos_wire::to_bytes(&w.certs[0]);
    c.bench_function("cert/decode", |b| {
        b.iter(|| qos_wire::from_bytes::<qos_crypto::Certificate>(black_box(&cert_bytes)).unwrap())
    });

    let mut g = c.benchmark_group("envelope/decode-owned");
    for depth in [3usize, 8] {
        let msg = SignalMessage::Request(Box::new(build(&w, depth)));
        let frame: std::sync::Arc<[u8]> = qos_wire::to_bytes(&msg).into();
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("depth-{depth}")),
            &frame,
            |b, frame| {
                b.iter(|| qos_wire::from_bytes_shared::<SignalMessage>(black_box(frame)).unwrap())
            },
        );
    }
    g.finish();
}

/// D3 ablation: introducer-chain verification vs the "secure LDAP"
/// certificate directory (§6.4's alternatives 1 and 2).
fn bench_key_sources(c: &mut Criterion) {
    use qos_crypto::CertificateDirectory;
    let hops = 5;
    let w = world(hops);
    let rar = build(&w, hops);
    let peer_pk = w.keys[hops - 1].public();
    let self_dn = DistinguishedName::broker(&format!("domain-{hops}"));
    let policy = TrustPolicy {
        max_chain_depth: 64,
    };

    c.bench_function("envelope/keysource-introducers-5hop", |b| {
        b.iter(|| {
            verify_rar(
                black_box(&rar),
                peer_pk,
                &self_dn,
                policy,
                Timestamp(0),
                &KeySource::Introducers,
            )
            .unwrap()
        })
    });

    let mut dir = CertificateDirectory::new();
    dir.publish(w.user_cert.clone());
    for cert in &w.certs {
        dir.publish(cert.clone());
    }
    c.bench_function("envelope/keysource-directory-5hop", |b| {
        b.iter(|| {
            verify_rar(
                black_box(&rar),
                peer_pk,
                &self_dn,
                policy,
                Timestamp(0),
                &KeySource::Directory(&dir),
            )
            .unwrap()
        })
    });
}

/// A request nobody has seen, as the broker at chain index `hops`
/// receives it: Alice signs a fresh reservation (capability chain
/// delegated to the source broker) and the brokers before `hops` check,
/// extend and wrap it in turn.
fn first_sight(s: &mut Scenario, hops: usize) -> SignalMessage {
    let spec = s.spec("alice", 7, 100, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let mut out = s.nodes[0].submit(rar, &s.users["alice"].cert);
    for i in 1..hops {
        let (_, msg) = out.pop().expect("an upstream broker forwards");
        out = s.nodes[i].recv(&s.domains[i - 1], msg);
    }
    out.pop().expect("an upstream broker forwards").1
}

/// The per-hop bill on first-sight traffic: `recv` of a distinct request
/// at a transit broker (checks, hold, delegate, wrap and sign) and at
/// the destination (full trust walk, checks, hold, commit, signed
/// approval).
fn bench_hop_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("hop");
    let cases = [2usize, 4, 8]
        .map(|depth| ("transit-cold", depth, depth + 1))
        .into_iter()
        .chain([3usize, 8].map(|depth| ("destination-cold", depth, depth)));
    for (name, depth, domains) in cases {
        let mut s = build_chain(ChainOptions {
            domains,
            local_capacity_bps: u64::MAX / 4,
            sla_rate_bps: u64::MAX / 4,
            trust_policy: TrustPolicy {
                max_chain_depth: 64,
            },
            ..ChainOptions::default()
        });
        // The envelope arriving at index `depth - 1` has `depth` layers.
        let at = depth - 1;
        let from = s.domains[at - 1].clone();
        g.bench_function(BenchmarkId::new(name, format!("depth-{depth}")), |b| {
            let mut receiver = s.nodes.remove(at);
            b.iter_batched(
                || first_sight(&mut s, at),
                |msg| receiver.recv(&from, msg),
                BatchSize::SmallInput,
            );
            s.nodes.insert(at, receiver);
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_hop_cold,
    bench_wrap,
    bench_digests,
    bench_encode_once,
    bench_verify_depth,
    bench_codec,
    bench_names,
    bench_key_sources
);
criterion_main!(benches);
