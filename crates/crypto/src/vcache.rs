//! Process-wide signature-verification cache.
//!
//! The protocol's steady state re-verifies the same bytes under the same
//! keys over and over: every envelope at every hop carries the upstream
//! broker's certificate, every capability chain re-presents the CAS
//! certs, and every handshake re-checks the SLA-pinned peer certificate.
//! A Schnorr verification costs two modular exponentiations; a cache hit
//! costs a sharded map lookup under the SHA-256 of the signed bytes —
//! the digest the signature itself is over (DESIGN.md §D21), so a caller
//! that holds it hashes nothing here, hit or miss. A certificate holds
//! its own (§D28): verifying one again, at any hop, hashes nothing.
//!
//! Design (DESIGN.md §D10):
//!
//! * **Key** — `(sha256(signed_bytes), public key)`. The digest stands
//!   in for the message so entries are small and lookups never compare
//!   payloads.
//! * **Verdict soundness** — only *successful* verifications are cached,
//!   and a hit additionally requires the stored signature to equal the
//!   presented one. A forged signature over previously verified bytes
//!   therefore never short-circuits: it mismatches the stored signature
//!   and falls through to a real verification.
//! * **Bounded + sharded** — [`SHARDS`] shards, each an LRU map behind
//!   its own mutex, with a global capacity split evenly across shards.
//!   Eviction removes the least-recently-hit entry of the full shard.
//! * **Validity-window invalidation** — entries created from
//!   certificates carry the certificate's `not_after`; a lookup past
//!   that instant evicts the entry and re-verifies. (Validity itself is
//!   *always* enforced by `check_validity` at the call sites — the
//!   cache only memoizes the time-invariant signature predicate.)
//!
//! The cache is process-global (like the fixed-base key tables in
//! [`crate::schnorr`]): [`set_capacity`] sizes or disables it, and the
//! hit/miss/eviction cells can be registered with a telemetry registry
//! through [`counter_cells`].

use crate::cert::Certificate;
use crate::error::CryptoError;
use crate::lru::{CacheCounters, LruMap};
use crate::schnorr::{verify_batch_digests, PublicKey, Signature};
use crate::sha256::{sha256, Digest};
use crate::time::Timestamp;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Number of independently locked shards.
const SHARDS: usize = 8;

/// Default cache capacity (entries, across all shards).
pub const DEFAULT_CAPACITY: usize = 4096;

struct Entry {
    sig: Signature,
    /// Entries derived from certificates expire with the certificate.
    not_after: Option<Timestamp>,
}

type Shard = LruMap<(Digest, u64), Entry>;

/// A bounded, sharded cache of positive signature-verification verdicts.
pub struct VerifyCache {
    shards: Vec<Mutex<Shard>>,
    capacity: AtomicUsize,
    /// Shared by every shard.
    counters: CacheCounters,
}

impl VerifyCache {
    /// An empty cache holding up to `capacity` verdicts (0 disables it).
    pub fn new(capacity: usize) -> Self {
        let counters = CacheCounters::default();
        let per_shard = capacity.div_ceil(SHARDS);
        Self {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard, counters.clone())))
                .collect(),
            capacity: AtomicUsize::new(capacity),
            counters,
        }
    }

    fn enabled(&self) -> bool {
        self.capacity.load(Ordering::Relaxed) > 0
    }

    fn shard(&self, digest: &Digest) -> MutexGuard<'_, Shard> {
        // The digest's first bytes are uniformly distributed; any byte
        // picks a shard without bias.
        self.shards[digest[0] as usize % SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Resize the cache; `0` disables it. Existing entries are dropped so
    /// the new bound holds immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        for s in &self.shards {
            let mut shard = s.lock().unwrap_or_else(|e| e.into_inner());
            shard.set_capacity(capacity.div_ceil(SHARDS));
            shard.clear();
        }
    }

    /// Drop every cached verdict (counters are preserved).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// `(hits, misses, evictions)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        self.counters.stats()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// True when no verdicts are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared counter cells, for registering with a metrics registry
    /// (`cache_{hits,misses,evictions}_total{cache="verify"}`).
    pub fn counter_cells(&self) -> (Arc<AtomicU64>, Arc<AtomicU64>, Arc<AtomicU64>) {
        self.counters.cells()
    }

    /// True if `(digest, pk, sig)` holds a live cached positive verdict.
    /// Expired entries are evicted on sight.
    fn lookup(&self, digest: &Digest, pk: PublicKey, sig: &Signature, now: Timestamp) -> bool {
        let key = (*digest, pk.0);
        let mut shard = self.shard(digest);
        let mut expired = false;
        let hit = shard
            .get_if(&key, |e| {
                expired = e.not_after.is_some_and(|t| now > t);
                !expired && e.sig == *sig
            })
            .is_some();
        if expired {
            shard.remove(&key);
            self.counters.evicted();
        }
        hit
    }

    /// Record a positive verdict, evicting the least-recently-hit entry
    /// of a full shard.
    fn insert(&self, digest: Digest, pk: PublicKey, sig: Signature, not_after: Option<Timestamp>) {
        let entry = Entry { sig, not_after };
        self.shard(&digest).insert((digest, pk.0), entry);
    }

    /// Verify `sig` over `msg` under `pk`, consulting the cache first.
    /// Bit-identical to [`PublicKey::verify`] in verdict; only the cost
    /// differs.
    pub fn verify(&self, msg: &[u8], pk: PublicKey, sig: &Signature) -> bool {
        self.verify_digest(&sha256(msg), pk, sig)
    }

    /// [`VerifyCache::verify`] of the message whose SHA-256 is `digest`.
    pub fn verify_digest(&self, digest: &Digest, pk: PublicKey, sig: &Signature) -> bool {
        self.verify_batch_digests(&[(*digest, pk, *sig)])
    }

    /// Verify a certificate's issuer signature through the cache. The
    /// cached entry expires with the certificate's validity window, so a
    /// certificate that has lapsed since it was first seen is re-verified
    /// rather than served from memory. `now` drives only that eviction —
    /// callers still enforce validity via
    /// [`Certificate::check_validity`].
    // Per-signature path (DESIGN.md §D21): under .clippy-hotpath this
    // attribute rejects un-annotated Vec::new / slice::to_vec.
    #[deny(clippy::disallowed_methods)]
    pub fn verify_cert(
        &self,
        cert: &Certificate,
        issuer_pk: PublicKey,
        now: Timestamp,
    ) -> Result<(), CryptoError> {
        // The digest the certificate keeps: the cache key and, on a
        // miss, what the signature check itself is over (DESIGN.md §D28).
        let (digest, signature) = (cert.digest(), cert.signature());
        let cached = self.enabled();
        if cached && self.lookup(digest, issuer_pk, &signature, now) {
            return Ok(());
        }
        if !issuer_pk.verify_digest(digest, &signature) {
            return Err(CryptoError::BadSignature {
                signer: cert.tbs().issuer.clone(),
            });
        }
        if cached {
            let not_after = Some(cert.tbs().validity.not_after);
            self.insert(*digest, issuer_pk, signature, not_after);
        }
        Ok(())
    }

    /// [`VerifyCache::verify_batch_digests`] over the SHA-256 of each
    /// message.
    pub fn verify_batch(&self, items: &[(&[u8], PublicKey, Signature)]) -> bool {
        let digests: Vec<_> = items
            .iter()
            .map(|&(msg, pk, sig)| (sha256(msg), pk, sig))
            .collect();
        self.verify_batch_digests(&digests)
    }

    /// Verify a batch of `(message digest, key, signature)` triples,
    /// serving repeats from the cache and running one batch equation
    /// ([`verify_batch_digests`]) over the misses only. Returns the same
    /// verdict the plain batch check would: true iff *every* item
    /// verifies.
    #[deny(clippy::disallowed_methods)]
    pub fn verify_batch_digests(&self, items: &[(Digest, PublicKey, Signature)]) -> bool {
        if !self.enabled() {
            return verify_batch_digests(items);
        }
        // Allocates only once something misses.
        #[allow(clippy::disallowed_methods)]
        let mut missed: Vec<(Digest, PublicKey, Signature)> = Vec::new();
        for item @ (digest, pk, sig) in items {
            if !self.lookup(digest, *pk, sig, Timestamp::ZERO) {
                missed.push(*item);
            }
        }
        if missed.is_empty() {
            return true;
        }
        if !verify_batch_digests(&missed) {
            return false;
        }
        for (digest, pk, sig) in missed {
            self.insert(digest, pk, sig, None);
        }
        true
    }
}

/// The process-wide cache every verification fast path consults.
pub fn global() -> &'static VerifyCache {
    static CACHE: OnceLock<VerifyCache> = OnceLock::new();
    CACHE.get_or_init(|| VerifyCache::new(DEFAULT_CAPACITY))
}

/// Resize (or, with `0`, disable) the process-wide cache.
pub fn set_capacity(capacity: usize) {
    global().set_capacity(capacity);
}

/// Drop every cached verdict from the process-wide cache.
pub fn clear() {
    global().clear();
}

/// `(hits, misses, evictions)` of the process-wide cache.
pub fn stats() -> (u64, u64, u64) {
    global().stats()
}

/// The process-wide cache's counter cells, for telemetry registration.
pub fn counter_cells() -> (Arc<AtomicU64>, Arc<AtomicU64>, Arc<AtomicU64>) {
    global().counter_cells()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertificateAuthority, Validity};
    use crate::dn::DistinguishedName;
    use crate::schnorr::KeyPair;

    #[test]
    fn hit_after_miss_same_verdict() {
        let cache = VerifyCache::new(64);
        let key = KeyPair::from_seed(b"vc-1");
        let sig = key.sign(b"payload");
        assert!(cache.verify(b"payload", key.public(), &sig));
        assert!(cache.verify(b"payload", key.public(), &sig));
        let (hits, misses, _) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn forged_signature_never_served_from_cache() {
        let cache = VerifyCache::new(64);
        let key = KeyPair::from_seed(b"vc-2");
        let sig = key.sign(b"payload");
        assert!(cache.verify(b"payload", key.public(), &sig));
        // Same bytes, same key, different signature: must re-verify and
        // fail, not hit.
        let forged = Signature {
            r: sig.r ^ 1,
            s: sig.s,
        };
        assert!(!cache.verify(b"payload", key.public(), &forged));
        // And the good entry is still intact.
        assert!(cache.verify(b"payload", key.public(), &sig));
    }

    #[test]
    fn negative_verdicts_are_not_cached() {
        let cache = VerifyCache::new(64);
        let key = KeyPair::from_seed(b"vc-3");
        let bad = Signature { r: 2, s: 3 };
        assert!(!cache.verify(b"msg", key.public(), &bad));
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_bound_holds_and_evictions_count() {
        let cache = VerifyCache::new(SHARDS); // one entry per shard
        let key = KeyPair::from_seed(b"vc-4");
        for i in 0..64u64 {
            let msg = i.to_le_bytes();
            let sig = key.sign(&msg);
            assert!(cache.verify(&msg, key.public(), &sig));
        }
        assert!(cache.len() <= SHARDS);
        let (_, _, evictions) = cache.stats();
        assert!(evictions > 0);
    }

    #[test]
    fn lru_keeps_the_recently_hit_entry() {
        let cache = VerifyCache::new(SHARDS * 2);
        let key = KeyPair::from_seed(b"vc-5");
        // Find three messages landing in the same shard.
        let mut same_shard: Vec<Vec<u8>> = Vec::new();
        let mut shard0: Option<usize> = None;
        let mut i = 0u64;
        while same_shard.len() < 3 {
            let msg = i.to_le_bytes().to_vec();
            let s = sha256(&msg)[0] as usize % SHARDS;
            match shard0 {
                None => {
                    shard0 = Some(s);
                    same_shard.push(msg);
                }
                Some(s0) if s == s0 => same_shard.push(msg),
                _ => {}
            }
            i += 1;
        }
        let sigs: Vec<Signature> = same_shard.iter().map(|m| key.sign(m)).collect();
        // Fill the shard (cap 2), keep touching entry 0, then overflow.
        assert!(cache.verify(&same_shard[0], key.public(), &sigs[0]));
        assert!(cache.verify(&same_shard[1], key.public(), &sigs[1]));
        assert!(cache.verify(&same_shard[0], key.public(), &sigs[0]));
        assert!(cache.verify(&same_shard[2], key.public(), &sigs[2]));
        // Entry 1 was least recently hit; entry 0 must still be cached.
        let (hits_before, _, _) = cache.stats();
        assert!(cache.verify(&same_shard[0], key.public(), &sigs[0]));
        let (hits_after, _, _) = cache.stats();
        assert_eq!(hits_after, hits_before + 1);
    }

    #[test]
    fn expired_certificate_entry_is_invalidated() {
        let cache = VerifyCache::new(64);
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        let subject = KeyPair::from_seed(b"subject");
        let cert = ca.issue_identity(
            DistinguishedName::broker("domain-a"),
            subject.public(),
            Validity::starting_at(Timestamp(0), 100),
        );
        assert!(cache
            .verify_cert(&cert, ca.public_key(), Timestamp(10))
            .is_ok());
        assert_eq!(cache.stats().0, 0);
        // Within the window: a hit.
        assert!(cache
            .verify_cert(&cert, ca.public_key(), Timestamp(50))
            .is_ok());
        assert_eq!(cache.stats().0, 1);
        // Past the window: the entry is evicted and the signature
        // re-verified (the verdict itself is still Ok — validity is the
        // caller's check).
        assert!(cache
            .verify_cert(&cert, ca.public_key(), Timestamp(200))
            .is_ok());
        let (hits, _, evictions) = cache.stats();
        assert_eq!(hits, 1);
        assert!(evictions >= 1);
    }

    #[test]
    fn batch_with_partial_hits_matches_plain_batch() {
        let cache = VerifyCache::new(64);
        let keys: Vec<KeyPair> = (0..4).map(|i| KeyPair::from_seed(&[i as u8])).collect();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let sigs: Vec<Signature> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        // Warm half the entries.
        assert!(cache.verify(&msgs[0], keys[0].public(), &sigs[0]));
        assert!(cache.verify(&msgs[1], keys[1].public(), &sigs[1]));
        let items: Vec<(&[u8], PublicKey, Signature)> = msgs
            .iter()
            .zip(&keys)
            .zip(&sigs)
            .map(|((m, k), s)| (m.as_slice(), k.public(), *s))
            .collect();
        assert!(cache.verify_batch(&items));
        // One corrupted item fails the whole batch, hits or not.
        let mut bad = items.clone();
        bad[3].2.s ^= 1;
        assert!(!cache.verify_batch(&bad));
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = VerifyCache::new(0);
        let key = KeyPair::from_seed(b"vc-6");
        let sig = key.sign(b"payload");
        assert!(cache.verify(b"payload", key.public(), &sig));
        assert!(cache.verify(b"payload", key.public(), &sig));
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0, 0));
    }
}
