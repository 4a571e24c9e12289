//! From-scratch SHA-256 (FIPS 180-4) and HMAC-SHA-256.
//!
//! The signalling protocol signs nested message envelopes; SHA-256 is the
//! digest those signatures are computed over. Implemented here rather than
//! pulled in as a dependency because the paper's substrate (OpenSSL-era
//! PKI) is rebuilt from scratch in this reproduction. Verified against the
//! NIST/FIPS test vectors in the unit tests below.
//!
//! Every nested layer's signature hashes the complete inner envelope, so
//! destination-side verification is hash-bound once encoding is cached
//! (DESIGN.md D6). On x86-64 with the SHA extensions the compression
//! function therefore dispatches at runtime to a SHA-NI implementation
//! (~5-10× the portable ladder); the portable block function is the
//! fallback everywhere else and the reference the hardware path is
//! tested against.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

thread_local! {
    /// This thread's count of bytes fed to [`Sha256::update`]: what a
    /// protocol exchange walked on one thread hashed, whoever asked for
    /// it. Padding is not counted. Per thread, so the reactor threads
    /// that seal, open and digest share no cache line for it.
    static HASHED_BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total bytes hashed on the calling thread so far.
pub fn hashed_bytes() -> u64 {
    HASHED_BYTES.with(std::cell::Cell::get)
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        HASHED_BYTES.with(|n| n.set(n.get() + data.len() as u64));
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish the hash and return the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.update_padding(bit_len);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn update_padding(&mut self, bit_len: u64) {
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Pad to 56 mod 64.
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        // Bypass total_len accounting: re-implement the absorb loop inline.
        let data = &pad[..pad_len + 8];
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            let mut merged = self.buf;
            merged[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf = merged;
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().unwrap());
            data = rest;
        }
        debug_assert!(data.is_empty() && self.buf_len == 0);
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // SAFETY: `available()` confirmed the sha/ssse3/sse4.1
            // target features at runtime.
            unsafe { shani::compress(&mut self.state, block) };
            return;
        }
        compress_portable(&mut self.state, block);
    }
}

/// One compression round on the portable square-and-rotate ladder —
/// the reference implementation and the fallback on targets without
/// hashing extensions.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-NI compression (x86-64 SHA extensions), selected at runtime.
///
/// Follows Intel's canonical schedule: state lives in two XMM registers
/// as (ABEF, CDGH); `sha256rnds2` retires four rounds per instruction
/// pair and `sha256msg1`/`sha256msg2` extend the message schedule four
/// words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Runtime feature check, cached by the std detection macro.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Four rounds: the low two WK words feed the CDGH update, the high
    /// two (moved down) feed the ABEF update.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn rounds4(state0: &mut __m128i, state1: &mut __m128i, wk: __m128i) {
        *state1 = _mm_sha256rnds2_epu32(*state1, *state0, wk);
        let wk_hi = _mm_shuffle_epi32(wk, 0x0E);
        *state0 = _mm_sha256rnds2_epu32(*state0, *state1, wk_hi);
    }

    /// Next four message-schedule words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn sched(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn k4(i: usize) -> __m128i {
        _mm_loadu_si128(K.as_ptr().add(i) as *const __m128i)
    }

    /// # Safety
    /// Caller must have verified [`available`].
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Big-endian word loads.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);

        // Re-order [a b c d | e f g h] into (ABEF, CDGH).
        let abcd = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr() as *const __m128i), 0xB1);
        let efgh = _mm_shuffle_epi32(
            _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i),
            0x1B,
        );
        let mut state0 = _mm_alignr_epi8(abcd, efgh, 8);
        let mut state1 = _mm_blend_epi16(efgh, abcd, 0xF0);
        let save0 = state0;
        let save1 = state1;

        let p = block.as_ptr() as *const __m128i;
        let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
        let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
        let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
        let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);

        rounds4(&mut state0, &mut state1, _mm_add_epi32(w0, k4(0)));
        rounds4(&mut state0, &mut state1, _mm_add_epi32(w1, k4(4)));
        rounds4(&mut state0, &mut state1, _mm_add_epi32(w2, k4(8)));
        rounds4(&mut state0, &mut state1, _mm_add_epi32(w3, k4(12)));
        for group in 1..4 {
            w0 = sched(w0, w1, w2, w3);
            rounds4(&mut state0, &mut state1, _mm_add_epi32(w0, k4(16 * group)));
            w1 = sched(w1, w2, w3, w0);
            rounds4(
                &mut state0,
                &mut state1,
                _mm_add_epi32(w1, k4(16 * group + 4)),
            );
            w2 = sched(w2, w3, w0, w1);
            rounds4(
                &mut state0,
                &mut state1,
                _mm_add_epi32(w2, k4(16 * group + 8)),
            );
            w3 = sched(w3, w0, w1, w2);
            rounds4(
                &mut state0,
                &mut state1,
                _mm_add_epi32(w3, k4(16 * group + 12)),
            );
        }

        state0 = _mm_add_epi32(state0, save0);
        state1 = _mm_add_epi32(state1, save1);

        // Back to [a b c d | e f g h].
        let feba = _mm_shuffle_epi32(state0, 0x1B);
        let dchg = _mm_shuffle_epi32(state1, 0xB1);
        let abcd = _mm_blend_epi16(feba, dchg, 0xF0);
        let efgh = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, efgh);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// An HMAC-SHA-256 key with its schedule already absorbed: the two hash
/// states left after the 64-byte inner and outer pad blocks (RFC 2104).
/// A long-lived key — a channel direction's — pays those two compressions
/// once; every MAC under it starts from a clone of the midstates.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

impl HmacKey {
    /// Absorb `key` (hashed first if longer than a block).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        Self { inner, outer }
    }

    /// The inner hash, ready for the message: feed it with
    /// [`Sha256::update`], then hand it to [`HmacKey::finish`].
    pub fn start(&self) -> Sha256 {
        self.inner.clone()
    }

    /// The MAC of everything fed to `inner` since [`HmacKey::start`].
    pub fn finish(&self, inner: Sha256) -> Digest {
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA-256 (RFC 2104), one-shot.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    let key = HmacKey::new(key);
    let mut inner = key.start();
    inner.update(msg);
    key.finish(inner)
}

/// Render a digest as lowercase hex (for fingerprints and debugging).
pub fn to_hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn nist_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_blocks() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    /// Full digest computed with only the portable compression function
    /// (padding done by hand) — used to cross-check the dispatched path.
    fn sha256_portable_only(data: &[u8]) -> [u8; 32] {
        let mut state = H0;
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        for block in padded.chunks_exact(64) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The runtime-dispatched compression (SHA-NI where available) must
    /// agree with the portable reference at every block-boundary shape.
    #[test]
    fn dispatched_compress_matches_portable() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 129, 1000, 4096] {
            assert_eq!(
                sha256(&data[..len]),
                sha256_portable_only(&data[..len]),
                "len {len}"
            );
        }
    }

    // RFC 4231 HMAC-SHA-256 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            to_hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            to_hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case2_from_midstates_fed_in_pieces() {
        // One absorbed key serves many messages, each fed incrementally.
        let key = HmacKey::new(b"Jefe");
        for _ in 0..2 {
            let mut inner = key.start();
            inner.update(b"what do ya want ");
            inner.update(b"for nothing?");
            assert_eq!(
                to_hex(&key.finish(inner)),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
            );
        }
    }

    #[test]
    fn rfc4231_long_key() {
        // Case 6: 131-byte key (forces key hashing).
        let key = [0xaau8; 131];
        assert_eq!(
            to_hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }
}
