//! Scoped worker pool for independent signature checks.
//!
//! The signatures of a burst of submissions or peer requests are
//! verified under *different* keys over *different* bytes, so the checks
//! are embarrassingly parallel. This module fans such work out across
//! `crossbeam::thread::scope` workers — borrowed inputs, no `'static`
//! bounds, results returned in input order.
//!
//! Threads are only spawned when the batch is big enough to amortise
//! thread start-up (a Schnorr verification is a few microseconds; a
//! thread spawn is tens). Small batches run inline on the caller's
//! thread, so callers can use one code path for any batch size.

use crossbeam::thread;
use qos_crypto::sha256::Digest;
use qos_crypto::{PublicKey, Signature};

/// Cap on worker threads: verification is CPU-bound, so more threads
/// than cores only add scheduling noise, and signalling nodes should
/// not monopolise wide machines.
const MAX_WORKERS: usize = 8;

/// Batches smaller than this run inline — the fan-out cost would exceed
/// the verification cost.
const PARALLEL_THRESHOLD: usize = 4;

/// Apply `f` to every item, fanning out across scoped worker threads
/// when the batch is large enough. Results are in input order; panics
/// in `f` propagate to the caller (std scoped-thread semantics).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let workers = cores.min(MAX_WORKERS).min(items.len());
    if workers < 2 || items.len() < PARALLEL_THRESHOLD {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let fr = &f;
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(fr).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification worker panicked"))
            .collect()
    })
    .expect("thread scope")
}

/// Verify each `(message digest, key, signature)` triple independently,
/// in parallel. Returns one verdict per input, in order.
///
/// This is the *attribution* path: [`qos_crypto::verify_batch_digests`]
/// answers "are they all valid?" with one multi-exponentiation, and this
/// answers "which one is not?" when that combined check fails — over the
/// digests the failed batch already held, so nothing is hashed again.
pub fn verify_each(items: &[(Digest, PublicKey, Signature)]) -> Vec<bool> {
    parallel_map(items, |(digest, pk, sig)| pk.verify_digest(digest, sig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_crypto::KeyPair;

    #[test]
    fn map_matches_serial_at_every_size() {
        for n in [0usize, 1, 3, 4, 7, 64] {
            let items: Vec<u64> = (0..n as u64).collect();
            let got = parallel_map(&items, |&x| x * x + 1);
            let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn verify_each_flags_only_the_tampered_item() {
        let keys: Vec<KeyPair> = (1u8..=8).map(|i| KeyPair::from_seed(&[i; 4])).collect();
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 16]).collect();
        let mut sigs: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        sigs[5].s ^= 1;
        let items: Vec<(Digest, PublicKey, _)> = keys
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((k, m), s)| (qos_crypto::sha256::sha256(m), k.public(), *s))
            .collect();
        let verdicts = verify_each(&items);
        for (i, ok) in verdicts.iter().enumerate() {
            assert_eq!(*ok, i != 5, "index {i}");
        }
    }
}
