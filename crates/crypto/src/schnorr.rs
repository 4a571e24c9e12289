//! Schnorr signatures over the fixed safe-prime group.
//!
//! The scheme is the classic Schnorr identification protocol made
//! non-interactive with the Fiat–Shamir transform, in the
//! **commitment form** `(r, s)`:
//!
//! * secret key `x ∈ [1, q)`, public key `y = g^x mod p`;
//! * sign(m): `d = H(m)`, `k = H(x ‖ d) mod q` (deterministic, RFC-6979
//!   style), `r = g^k`, `e = H(r ‖ y ‖ d) mod q`, `s = k + e·x mod q`;
//! * verify(m, (r, s)): `d = H(m)`, `e = H(r ‖ y ‖ d) mod q`, accept iff
//!   `g^s == r · y^e mod p`.
//!
//! The scheme is **hash-then-sign** (DESIGN.md §D21): the message enters
//! only through its SHA-256 digest, so a signed byte is hashed once —
//! not once for the nonce and again for the challenge — and a caller that
//! already holds the digest (an envelope layer's, a certificate's) hands it
//! over through the `*_digest` forms and hashes nothing more than two
//! short blocks. Forging a signature on a message the signer never saw
//! needs a SHA-256 collision or a forgery on the digest; the nonce is
//! still a function of the key and the message, and the public key is
//! still inside the challenge.
//!
//! The commitment form is what makes **batch verification** possible:
//! because `r` travels in the signature (instead of being recovered from
//! `e`), `n` verification equations can be combined with random
//! coefficients `c_i` into the single multi-exponentiation check
//!
//! ```text
//! g^(Σ c_i·s_i) == Π r_i^(c_i) · Π y_i^(c_i·e_i)   (mod p)
//! ```
//!
//! — see [`verify_batch_digests`]. Both forms are 16 bytes on the wire.
//!
//! Binding the public key into the challenge hash prevents cross-key
//! signature transplantation, which matters here because the protocol of
//! the paper moves signatures *between* administrative domains.
//!
//! All exponentiations from the generator use the process-wide
//! fixed-base window table ([`group::g_table`]); exponentiations from a
//! public key use a per-key table when one has been pinned with
//! [`PublicKey::precompute`] (worthwhile for long-lived SLA peer keys
//! that verify many envelopes).

use crate::group::{self, FixedBase, P, Q};
use crate::sha256::{sha256, Digest, Sha256, DIGEST_LEN};
use qos_wire::{Decode, Encode, Reader, WireError, Writer};
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Process-wide count of signing operations. Cheap enough to keep always
/// on (one relaxed add per sign); lets tests and benches assert how much
/// public-key crypto a protocol exchange actually performed — e.g. that
/// a resumed transport handshake signs *nothing*.
static SIGN_OPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of single-signature verification operations
/// (batch verifications count one per item they actually check).
static VERIFY_OPS: AtomicU64 = AtomicU64::new(0);

/// Total [`KeyPair::sign`] calls in this process so far.
pub fn sign_ops() -> u64 {
    SIGN_OPS.load(Ordering::Relaxed)
}

/// Total signature verifications in this process so far.
pub fn verify_ops() -> u64 {
    VERIFY_OPS.load(Ordering::Relaxed)
}

/// A Schnorr public key (a group element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub u64);

/// A Schnorr signature in commitment form `(r, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Commitment `r = g^k`.
    pub r: u64,
    /// Response scalar `s = k + e·x mod q`.
    pub s: u64,
}

/// A private/public key pair.
///
/// The private scalar is deliberately not `Copy` and is excluded from
/// `Debug` output to keep accidental leakage out of logs.
#[derive(Clone)]
pub struct KeyPair {
    secret: u64,
    public: PublicKey,
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyPair")
            .field("public", &self.public)
            .field("secret", &"<redacted>")
            .finish()
    }
}

impl KeyPair {
    /// Generate a key pair from a caller-supplied RNG.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let wide = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        Self::from_secret(group::scalar_from_wide(wide))
    }

    /// Derive a key pair deterministically from a byte seed (hashed to a
    /// scalar). Used by tests and deterministic experiments so that runs
    /// are reproducible.
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::from_secret(scalar_of(&sha256(seed)))
    }

    fn from_secret(secret: u64) -> Self {
        debug_assert!((1..Q).contains(&secret));
        Self {
            secret,
            public: PublicKey(group::g_pow(secret)),
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign a message: [`KeyPair::sign_digest`] of its SHA-256.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_digest(&sha256(msg))
    }

    /// Sign the message whose SHA-256 is `digest`.
    // Per-signature path: under .clippy-hotpath this attribute rejects
    // un-annotated Vec::new / slice::to_vec.
    #[deny(clippy::disallowed_methods)]
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        SIGN_OPS.fetch_add(1, Ordering::Relaxed);
        // Deterministic nonce: k = H(x ‖ H(m)), never reused across
        // messages.
        let mut block = [0u8; 8 + DIGEST_LEN];
        block[..8].copy_from_slice(&self.secret.to_le_bytes());
        block[8..].copy_from_slice(digest);
        let k = scalar_of(&sha256(&block));
        let r = group::g_pow(k);
        let e = challenge(r, self.public, digest);
        let s = group::add_mod(k, group::mul_mod(e, self.secret, Q), Q);
        Signature { r, s }
    }

    /// Prove knowledge of the private key for `nonce` (a challenge-response
    /// step; the paper's capability model requires holders to "prove the
    /// knowledge of the related private key").
    pub fn prove_possession(&self, nonce: &[u8]) -> Signature {
        let mut msg = b"possession-proof:".to_vec();
        msg.extend_from_slice(nonce);
        self.sign(&msg)
    }
}

/// Cap on distinct pinned keys; past this, [`PublicKey::precompute`]
/// becomes a no-op rather than letting the cache grow without bound.
const KEY_TABLE_CAP: usize = 1024;

fn key_tables() -> &'static RwLock<HashMap<u64, Arc<FixedBase>>> {
    static TABLES: OnceLock<RwLock<HashMap<u64, Arc<FixedBase>>>> = OnceLock::new();
    TABLES.get_or_init(Default::default)
}

fn pinned_table(key: u64) -> Option<Arc<FixedBase>> {
    let map = key_tables().read().unwrap_or_else(|e| e.into_inner());
    map.get(&key).cloned()
}

impl PublicKey {
    fn in_range(&self, sig: &Signature) -> bool {
        self.0 != 0 && self.0 < P && sig.r != 0 && sig.r < P && sig.s < Q
    }

    /// `y^exp mod p`, through this key's pinned window table if present.
    fn pow(&self, exp: u64) -> u64 {
        match pinned_table(self.0) {
            Some(t) => t.pow(exp),
            None => group::pow_mod(self.0, exp, P),
        }
    }

    /// Pin this key: build and cache a fixed-base window table so that
    /// every later verification under it costs table lookups instead of a
    /// full square-and-multiply ladder.
    ///
    /// Worth calling for long-lived keys that verify many messages — SLA
    /// peer brokers, direct users, the CA — and wasteful for one-shot
    /// keys (the table costs ~2 048 multiplies to build).
    pub fn precompute(&self) {
        if self.0 == 0 || self.0 >= P {
            return;
        }
        {
            let map = key_tables().read().unwrap_or_else(|e| e.into_inner());
            if map.contains_key(&self.0) || map.len() >= KEY_TABLE_CAP {
                return;
            }
        }
        // Build outside any lock; racing builders produce identical tables.
        let table = Arc::new(FixedBase::new(self.0));
        let mut map = key_tables().write().unwrap_or_else(|e| e.into_inner());
        if map.len() < KEY_TABLE_CAP {
            map.entry(self.0).or_insert(table);
        }
    }

    /// Verify a signature over `msg`: [`PublicKey::verify_digest`] of
    /// its SHA-256.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.verify_digest(&sha256(msg), sig)
    }

    /// Verify a signature over the message whose SHA-256 is `digest`:
    /// `g^s == r · y^e`.
    #[deny(clippy::disallowed_methods)]
    pub fn verify_digest(&self, digest: &Digest, sig: &Signature) -> bool {
        VERIFY_OPS.fetch_add(1, Ordering::Relaxed);
        if !self.in_range(sig) {
            return false;
        }
        let e = challenge(sig.r, *self, digest);
        let lhs = group::g_pow(sig.s);
        group::mul_mod(sig.r, self.pow(e), P) == lhs
    }

    /// Check a possession proof produced by [`KeyPair::prove_possession`].
    pub fn check_possession(&self, nonce: &[u8], proof: &Signature) -> bool {
        let mut msg = b"possession-proof:".to_vec();
        msg.extend_from_slice(nonce);
        self.verify(&msg, proof)
    }

    /// Short hex fingerprint of the key (first 8 bytes of SHA-256).
    pub fn fingerprint(&self) -> String {
        let d = sha256(&self.0.to_le_bytes());
        crate::sha256::to_hex(&d[..8])
    }
}

/// [`verify_batch_digests`] over the SHA-256 of each message.
pub fn verify_batch(items: &[(&[u8], PublicKey, Signature)]) -> bool {
    let digests: Vec<_> = items
        .iter()
        .map(|&(msg, pk, sig)| (sha256(msg), pk, sig))
        .collect();
    verify_batch_digests(&digests)
}

/// Verify `n` signatures with one multi-exponentiation.
///
/// Each item is `(SHA-256 of the message, key, signature)`. The
/// equations `g^(s_i) == r_i · y_i^(e_i)` are combined with deterministic
/// 32-bit random coefficients `c_i` (Fiat–Shamir over the whole batch, so
/// a forger cannot choose signatures after seeing the coefficients):
///
/// ```text
/// g^(Σ c_i·s_i mod q) == Π r_i^(c_i) · Π_y y^(Σ_{i: y_i = y} c_i·e_i mod q)   (mod p)
/// ```
///
/// The right-hand side shares a single squaring chain across all its
/// bases ([`group::multi_pow`]), and items under one key share one base:
/// a run of requests from one peer, or a burst of sub-flows from one
/// source broker, costs `n + 1` bases instead of `2n`.
///
/// Returns `true` iff the combined check passes. A `false` says *some*
/// item is bad without naming it; callers that need attribution fall
/// back to per-item [`PublicKey::verify_digest`] (see `qos_core::trust`).
/// A batch accepts with overwhelming probability exactly when every item
/// verifies individually (false acceptance of a bad batch requires
/// guessing a 32-bit coefficient relation).
// Per-signature path: under .clippy-hotpath this attribute rejects
// un-annotated Vec::new / slice::to_vec (the two scratch vectors below
// are sized once per batch).
#[deny(clippy::disallowed_methods)]
pub fn verify_batch_digests(items: &[(Digest, PublicKey, Signature)]) -> bool {
    // Small batches: the RLC machinery costs more than it saves.
    match items {
        [] => return true,
        [(digest, pk, sig)] => return pk.verify_digest(digest, sig),
        _ => {}
    }
    VERIFY_OPS.fetch_add(items.len() as u64, Ordering::Relaxed);

    for (_, pk, sig) in items {
        if !pk.in_range(sig) {
            return false;
        }
    }
    let es: Vec<u64> = items
        .iter()
        .map(|(digest, pk, sig)| challenge(sig.r, *pk, digest))
        .collect();

    // Coefficient seed over the full batch transcript.
    let mut h = Sha256::new();
    h.update(b"qos-schnorr-batch-v1");
    h.update(&(items.len() as u64).to_le_bytes());
    for ((_, pk, sig), e) in items.iter().zip(&es) {
        h.update(&sig.r.to_le_bytes());
        h.update(&sig.s.to_le_bytes());
        h.update(&pk.0.to_le_bytes());
        h.update(&e.to_le_bytes());
    }
    let seed = h.finalize();
    // One digest of the seed and a block index gives eight coefficients,
    // each 32-bit and forced odd so it is never zero.
    let mut block = [0u8; DIGEST_LEN];
    let mut coeff = |i: usize| -> u64 {
        if i.is_multiple_of(8) {
            let mut h = Sha256::new();
            h.update(&seed);
            h.update(&((i / 8) as u64).to_le_bytes());
            block = h.finalize();
        }
        let word = block[i % 8 * 4..][..4].try_into().unwrap();
        u64::from(u32::from_be_bytes(word)) | 1
    };

    // `pairs[..n]` are the commitments `(r_i, c_i)`; behind them one
    // `(y_i, c_i·e_i)` per item, sorted by key and folded to one per key.
    let n = items.len();
    let mut s_sum = 0u64;
    let mut pairs = Vec::with_capacity(n * 2);
    for (i, (_, _, sig)) in items.iter().enumerate() {
        let c = coeff(i);
        s_sum = group::add_mod(s_sum, group::mul_mod(c, sig.s, Q), Q);
        pairs.push((sig.r, c));
    }
    for (i, (_, pk, _)) in items.iter().enumerate() {
        pairs.push((pk.0, group::mul_mod(pairs[i].1, es[i], Q)));
    }
    pairs[n..].sort_unstable_by_key(|&(key, _)| key);
    let mut last = n;
    for i in n + 1..2 * n {
        if pairs[i].0 == pairs[last].0 {
            pairs[last].1 = group::add_mod(pairs[last].1, pairs[i].1, Q);
        } else {
            last += 1;
            pairs[last] = pairs[i];
        }
    }
    pairs.truncate(last + 1);
    group::g_pow(s_sum) == group::multi_pow(&pairs)
}

/// The first 16 bytes of a digest as a nonzero scalar.
fn scalar_of(d: &Digest) -> u64 {
    group::scalar_from_wide(u128::from_be_bytes(d[..16].try_into().unwrap()))
}

/// `e = H(r ‖ y ‖ H(m)) mod q`: one 48-byte block.
fn challenge(r: u64, pk: PublicKey, digest: &Digest) -> u64 {
    let mut block = [0u8; 16 + DIGEST_LEN];
    block[..8].copy_from_slice(&r.to_le_bytes());
    block[8..16].copy_from_slice(&pk.0.to_le_bytes());
    block[16..].copy_from_slice(digest);
    scalar_of(&sha256(&block))
}

impl Encode for PublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PublicKey(r.get_u64()?))
    }
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.r);
        w.put_u64(self.s);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Signature {
            r: r.get_u64()?,
            s: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(name: &str) -> KeyPair {
        KeyPair::from_seed(name.as_bytes())
    }

    #[test]
    fn sign_verify_round_trip() {
        let alice = kp("alice");
        let sig = alice.sign(b"reserve 10 Mb/s");
        assert!(alice.public().verify(b"reserve 10 Mb/s", &sig));
    }

    #[test]
    fn tampered_message_fails() {
        let alice = kp("alice");
        let sig = alice.sign(b"reserve 10 Mb/s");
        assert!(!alice.public().verify(b"reserve 99 Mb/s", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let alice = kp("alice");
        let bob = kp("bob");
        let sig = alice.sign(b"msg");
        assert!(!bob.public().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let alice = kp("alice");
        let mut sig = alice.sign(b"msg");
        sig.s ^= 1;
        assert!(!alice.public().verify(b"msg", &sig));
        let mut sig2 = alice.sign(b"msg");
        sig2.r ^= 1;
        assert!(!alice.public().verify(b"msg", &sig2));
    }

    #[test]
    fn verify_agrees_with_and_without_pinned_table() {
        let alice = kp("alice-pinned");
        let sig = alice.sign(b"pin me");
        assert!(alice.public().verify(b"pin me", &sig));
        alice.public().precompute();
        assert!(alice.public().verify(b"pin me", &sig));
        assert!(!alice.public().verify(b"pin you", &sig));
    }

    fn batch_items(n: usize) -> Vec<(Vec<u8>, PublicKey, Signature)> {
        (0..n)
            .map(|i| {
                let k = kp(&format!("batch-{i}"));
                let msg = format!("message number {i}").into_bytes();
                let sig = k.sign(&msg);
                (msg, k.public(), sig)
            })
            .collect()
    }

    fn as_refs(items: &[(Vec<u8>, PublicKey, Signature)]) -> Vec<(&[u8], PublicKey, Signature)> {
        items
            .iter()
            .map(|(m, pk, sig)| (m.as_slice(), *pk, *sig))
            .collect()
    }

    #[test]
    fn batch_accepts_valid_signatures() {
        for n in [0usize, 1, 2, 3, 8, 16] {
            let items = batch_items(n);
            assert!(verify_batch(&as_refs(&items)), "n={n}");
        }
    }

    #[test]
    fn batch_rejects_any_tampered_item() {
        // Ten items: the last two take their coefficients from a second
        // digest of the seed.
        let items = batch_items(10);
        for i in 0..items.len() {
            // Tampered message.
            let mut bad = items.clone();
            bad[i].0[0] ^= 0xFF;
            assert!(!verify_batch(&as_refs(&bad)), "msg tamper at {i}");
            // Tampered response scalar.
            let mut bad = items.clone();
            bad[i].2.s ^= 1;
            assert!(!verify_batch(&as_refs(&bad)), "sig tamper at {i}");
            // Wrong key.
            let mut bad = items.clone();
            bad[i].1 = kp("intruder").public();
            assert!(!verify_batch(&as_refs(&bad)), "key swap at {i}");
        }
    }

    #[test]
    fn batch_rejects_out_of_range_items() {
        let mut items = batch_items(3);
        items[1].2.s = Q; // out of scalar range
        assert!(!verify_batch(&as_refs(&items)));
        let mut items = batch_items(3);
        items[2].2.r = 0; // degenerate commitment
        assert!(!verify_batch(&as_refs(&items)));
    }

    #[test]
    fn batch_rejects_cross_item_signature_swap() {
        // Swapping two valid signatures between items must fail even
        // though every (r, s) pair is individually well-formed.
        let mut items = batch_items(4);
        let tmp = items[0].2;
        items[0].2 = items[3].2;
        items[3].2 = tmp;
        assert!(!verify_batch(&as_refs(&items)));
    }

    #[test]
    fn batch_under_shared_keys_folds_to_the_same_verdicts() {
        // Two keys over six items: four terms fold into one base, two
        // into another. Good batches pass; any one bad item fails it.
        let keys = [kp("peer"), kp("other")];
        let owned: Vec<(Vec<u8>, PublicKey, Signature)> = (0..6)
            .map(|i| {
                let k = &keys[usize::from(i >= 4)];
                let msg = format!("request {i}").into_bytes();
                let sig = k.sign(&msg);
                (msg, k.public(), sig)
            })
            .collect();
        assert!(verify_batch(&as_refs(&owned)));
        for i in 0..owned.len() {
            let mut bad = owned.clone();
            bad[i].2.s ^= 1;
            assert!(!verify_batch(&as_refs(&bad)), "sig tamper at {i}");
            let mut bad = owned.clone();
            bad[i].2 = owned[(i + 1) % 6].2;
            assert!(!verify_batch(&as_refs(&bad)), "signature swap at {i}");
        }
    }

    #[test]
    fn signature_is_deterministic() {
        let alice = kp("alice");
        assert_eq!(alice.sign(b"m"), alice.sign(b"m"));
        assert_ne!(alice.sign(b"m"), alice.sign(b"n"));
    }

    #[test]
    fn signature_not_transplantable_across_keys() {
        // Even if two parties signed the same message, the challenge binds
        // the public key, so one's signature never verifies under the other.
        let a = kp("a");
        let b = kp("b");
        let sig_a = a.sign(b"shared text");
        assert!(!b.public().verify(b"shared text", &sig_a));
    }

    #[test]
    fn possession_proof() {
        let a = kp("a");
        let proof = a.prove_possession(b"nonce-123");
        assert!(a.public().check_possession(b"nonce-123", &proof));
        assert!(!a.public().check_possession(b"nonce-456", &proof));
        assert!(!kp("b").public().check_possession(b"nonce-123", &proof));
    }

    #[test]
    fn degenerate_public_keys_rejected() {
        let sig = kp("x").sign(b"m");
        assert!(!PublicKey(0).verify(b"m", &sig));
        assert!(!PublicKey(crate::group::P).verify(b"m", &sig));
    }

    #[test]
    fn generate_with_rng_produces_valid_keys() {
        let mut rng = rand::rng();
        for _ in 0..8 {
            let kp = KeyPair::generate(&mut rng);
            let sig = kp.sign(b"hello");
            assert!(kp.public().verify(b"hello", &sig));
        }
    }

    #[test]
    fn wire_round_trip() {
        let kp = kp("w");
        let sig = kp.sign(b"m");
        let pk_bytes = qos_wire::to_bytes(&kp.public());
        let sig_bytes = qos_wire::to_bytes(&sig);
        assert_eq!(
            qos_wire::from_bytes::<PublicKey>(&pk_bytes).unwrap(),
            kp.public()
        );
        assert_eq!(qos_wire::from_bytes::<Signature>(&sig_bytes).unwrap(), sig);
    }
}
