//! Crypto substrate micro-benchmarks: hashing, signatures, certificates,
//! and the Figure 7 delegation-chain verification (EXP-S companion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qos_core::channel::SecureChannel;
use qos_crypto::sha256::sha256;
use qos_crypto::{
    CertificateAuthority, CommunityAuthorizationServer, DelegationChain, DistinguishedName,
    KeyPair, Timestamp, Validity,
};
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(black_box(data)));
        });
    }
    g.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let kp = KeyPair::from_seed(b"bench");
    let msg = vec![7u8; 256];
    let sig = kp.sign(&msg);
    c.bench_function("schnorr/sign-256B", |b| b.iter(|| kp.sign(black_box(&msg))));
    c.bench_function("schnorr/verify-256B", |b| {
        b.iter(|| kp.public().verify(black_box(&msg), black_box(&sig)))
    });
    // One pass over the message however long it is (hash-then-sign,
    // DESIGN.md §D21): a digest, a first-hop request, a depth-8 layer.
    for size in [32usize, 1024, 3800] {
        let msg = vec![7u8; size];
        c.bench_function(&format!("schnorr/sign-{size}B"), |b| {
            b.iter(|| kp.sign(black_box(&msg)))
        });
    }
}

/// Sealing a frame under a channel half whose HMAC key schedule was
/// absorbed at `split`: an ack-sized frame and a first-hop request.
fn bench_seal(c: &mut Criterion) {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let peer = ca.issue_identity(
        DistinguishedName::broker("domain-b"),
        KeyPair::from_seed(b"bb-b").public(),
        Validity::unbounded(),
    );
    let (mut seal, _) = SecureChannel::resume(peer, &sha256(b"master"), 1, 2, true).split();
    for size in [128usize, 1582] {
        let payload = vec![7u8; size];
        c.bench_function(&format!("hmac/seal-{size}B"), |b| {
            b.iter(|| seal.seal_in_place(black_box(&payload)))
        });
    }
}

/// The tentpole's group-op ablation: windowed fixed-base tables versus
/// the generic square-and-multiply ladder, from the same generator.
fn bench_group_exp(c: &mut Criterion) {
    use qos_crypto::group;
    let mut g = c.benchmark_group("group/g-pow");
    let exps: Vec<u64> = (1..=64u64)
        .map(|i| {
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_mul(i)
                .wrapping_rem(group::Q)
                .max(1)
        })
        .collect();
    g.bench_with_input(BenchmarkId::new("fixed-base", 64), &exps, |b, exps| {
        b.iter(|| {
            exps.iter()
                .fold(0u64, |acc, &e| acc ^ group::g_pow(black_box(e)))
        })
    });
    g.bench_with_input(BenchmarkId::new("generic", 64), &exps, |b, exps| {
        b.iter(|| {
            exps.iter()
                .fold(0u64, |acc, &e| acc ^ group::g_pow_generic(black_box(e)))
        })
    });
    g.finish();
}

/// Batch (random-linear-combination) verification versus one-at-a-time,
/// at the batch sizes the destination broker actually sees.
fn bench_verify_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("schnorr/verify-n");
    for n in [2usize, 4, 8, 16] {
        let keys: Vec<KeyPair> = (0..n)
            .map(|i| KeyPair::from_seed(format!("batch-{i}").as_bytes()))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 200]).collect();
        let sigs: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        let items: Vec<(&[u8], qos_crypto::PublicKey, qos_crypto::Signature)> = keys
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((k, m), s)| (m.as_slice(), k.public(), *s))
            .collect();
        g.bench_with_input(BenchmarkId::new("batch", n), &items, |b, items| {
            b.iter(|| qos_crypto::verify_batch(black_box(items)))
        });
        g.bench_with_input(BenchmarkId::new("serial", n), &items, |b, items| {
            b.iter(|| black_box(items).iter().all(|(m, pk, s)| pk.verify(m, s)))
        });
    }
    g.finish();
}

fn bench_certificates(c: &mut Criterion) {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let subject = KeyPair::from_seed(b"subject");
    c.bench_function("cert/issue", |b| {
        b.iter(|| {
            ca.issue_identity(
                DistinguishedName::user("Alice", "ANL"),
                subject.public(),
                Validity::unbounded(),
            )
        })
    });
    let cert = ca.issue_identity(
        DistinguishedName::user("Alice", "ANL"),
        subject.public(),
        Validity::unbounded(),
    );
    let ca_pk = ca.public_key();
    c.bench_function("cert/verify", |b| {
        b.iter(|| black_box(&cert).verify_signature(ca_pk))
    });
}

fn delegation_chain(depth: usize) -> (DelegationChain, qos_crypto::PublicKey, KeyPair) {
    let mut cas = CommunityAuthorizationServer::new("ESnet", KeyPair::from_seed(b"cas"));
    let proxy = KeyPair::from_seed(b"proxy");
    let grant = cas.grant(
        &DistinguishedName::user("Alice", "ANL"),
        proxy.public(),
        vec!["ESnet:member".into()],
        Validity::unbounded(),
    );
    let mut chain = DelegationChain::new(grant);
    let mut holder = proxy;
    for i in 0..depth {
        let next = KeyPair::from_seed(format!("bb-{i}").as_bytes());
        chain = chain
            .delegate(
                &holder,
                DistinguishedName::broker(&format!("domain-{i}")),
                next.public(),
                vec![],
                Validity::unbounded(),
            )
            .unwrap();
        holder = next;
    }
    (chain, cas.public_key(), holder)
}

fn bench_delegation(c: &mut Criterion) {
    let mut g = c.benchmark_group("delegation/verify_chain");
    for depth in [1usize, 3, 6, 10] {
        let (chain, cas_pk, holder) = delegation_chain(depth);
        let proof = holder.prove_possession(b"nonce");
        g.bench_with_input(BenchmarkId::from_parameter(depth), &chain, |b, chain| {
            b.iter(|| {
                chain
                    .verify(cas_pk, Timestamp(0), b"nonce", black_box(&proof))
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_schnorr,
    bench_seal,
    bench_group_exp,
    bench_verify_batch,
    bench_certificates,
    bench_delegation
);
criterion_main!(benches);
