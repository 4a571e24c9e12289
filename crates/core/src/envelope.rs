//! Nested signed RAR envelopes — the wire format of §6.4.
//!
//! The user signs the innermost layer:
//!
//! ```text
//! RAR_U = sign_U({res_spec, DN_BB_A, CapCert'_CAS, CapCert'_U})
//! ```
//!
//! and every broker wraps what it received, adding the upstream peer's
//! certificate (learned from the secure-channel handshake — this is what
//! makes each broker a *key introducer*), the DN of the next downstream
//! broker, its policy attachments, and — where it holds the request's
//! capability chain — its delegation to that broker:
//!
//! ```text
//! RAR_{N+1} = sign_{BB_{N+1}}({RAR_N, cert_N, DN_BB_{N+2}, CapCert'_{N+1}})
//! ```
//!
//! `CapCert'_{N+1}` is not a certificate of its own (DESIGN.md §D22):
//! the layer names the delegatee and is signed anyway, so it carries the
//! delegatee's key and a validity window ([`Delegation`]) and its
//! signature is the link's. That signature is over a **chained digest**:
//! SHA-256 of the user's layer, and for a broker's layer
//! `SHA-256(0x01 ‖ digest of the layer inside ‖ what this broker added)`
//! — a hop hashes what it received once and what it appends once.
//!
//! "A complete request therefore is comprised of a collection of
//! information, each signed by the entity that added it. The signatures
//! both assert the authenticity of the information and allows for the
//! tracking the path taken by a request as it moves from BB to BB."

use crate::rar::ResSpec;
use crate::view::RarView;
use qos_crypto::sha256::{sha256, Digest, Sha256};
use qos_crypto::{Certificate, Delegation, DistinguishedName, KeyPair, PublicKey, Signature};
use qos_policy::AttributeSet;
use qos_wire::{Decode, Encode, Reader, SharedBytes, WireError, Writer};
use std::sync::OnceLock;

/// One layer of the envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum RarLayer {
    /// The user's innermost request.
    User {
        /// The reservation specification.
        res_spec: ResSpec,
        /// `DN_BB_A`: the broker the user submits to (binds the request
        /// to its entry point).
        source_bb: DistinguishedName,
        /// `CapCert'_CAS` and `CapCert'_U`: the CAS-issued capability
        /// certificate plus the user's delegation of it to the source BB.
        capability_certs: Vec<Certificate>,
    },
    /// A broker's wrapper around what it received.
    Broker {
        /// The signed message this broker received (`RAR_N`).
        inner: Box<SignedRar>,
        /// `cert_N`: certificate of the inner message's signer, added by
        /// this broker as introducer material.
        upstream_cert: Certificate,
        /// `DN_BB_{N+2}`: the next downstream broker this copy is
        /// addressed to (None only on the destination's own records).
        next_bb: Option<DistinguishedName>,
        /// Always empty: a broker delegates through `delegate`, and a
        /// certificate here fails the chain.
        capability_certs: Vec<Certificate>,
        /// Additional policy information the local policy server attached
        /// ("the BB receives additional domain-wide information from the
        /// policy server").
        policy_attachments: AttributeSet,
        /// `CapCert'_{N+1}`: delegation of the chain it holds to `next_bb`.
        delegate: Option<Delegation>,
    },
}

qos_wire::impl_wire_enum!(RarLayer {
    0 => User { res_spec, source_bb, capability_certs },
    1 => Broker { inner, upstream_cert, next_bb, capability_certs, policy_attachments, delegate },
});

/// First byte of a wrap's signature preimage, `RarLayer::Broker`'s wire
/// tag: a user layer's opens with tag 0, so neither reads as the other.
const WRAP_TAG: u8 = 1;

/// The digest a wrap's signature is over: `inner` is the digest of the
/// layer inside, `added` what follows that layer's bytes in the wrap's.
pub(crate) fn wrap_digest(inner: &Digest, added: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[WRAP_TAG]);
    h.update(inner);
    h.update(added);
    h.finalize()
}

/// The digest `layer`'s signature is over, given its wire encoding.
fn chained_digest(layer: &RarLayer, wire: &[u8]) -> Digest {
    match layer {
        RarLayer::User { .. } => sha256(wire),
        RarLayer::Broker { inner, .. } => {
            wrap_digest(inner.layer_digest(), &wire[1 + inner.wire_bytes().len()..])
        }
    }
}

/// A signed layer.
///
/// The wire bytes of `layer` are cached the first time they are needed
/// (**encode-once**): signing and wrapping store the buffer they just
/// produced, and decoding from a shared buffer ([`qos_wire::from_bytes_shared`]) retains a zero-copy
/// sub-slice of the received message per layer. Verification and
/// re-encoding therefore never re-walk the nested structure.
///
/// The cache is keyed by construction: `layer` must not be mutated after
/// the `SignedRar` is built (no code in this workspace does — and doing
/// so would invalidate `signature` anyway).
#[derive(Debug, Clone)]
pub struct SignedRar {
    /// Payload.
    pub layer: RarLayer,
    /// Who signed it.
    pub signer: DistinguishedName,
    /// Signature over the chained digest of `layer`.
    pub signature: Signature,
    /// Lazily-filled wire encoding of `layer`.
    wire: OnceLock<SharedBytes>,
    /// Lazily-filled chained digest — what `signature` is over, hashed
    /// once however many checks ask for it (DESIGN.md §D17, §D21, §D22).
    digest: OnceLock<Digest>,
    /// A broker layer's preimage, for callers that want it as bytes.
    preimage: OnceLock<Vec<u8>>,
}

impl PartialEq for SignedRar {
    fn eq(&self, other: &Self) -> bool {
        // The cache is derived state: a decoded envelope with a
        // prefilled cache equals a freshly built one without.
        self.layer == other.layer
            && self.signer == other.signer
            && self.signature == other.signature
    }
}

impl Encode for SignedRar {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self.wire_bytes());
        self.signer.encode(w);
        self.signature.encode(w);
    }
}

impl Decode for SignedRar {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let start = r.position();
        let layer = RarLayer::decode(r)?;
        let wire = OnceLock::new();
        if let Some(span) = r.shared_span(start, r.position()) {
            let _ = wire.set(span);
        }
        Ok(SignedRar {
            layer,
            signer: DistinguishedName::decode(r)?,
            signature: Signature::decode(r)?,
            wire,
            digest: OnceLock::new(),
            preimage: OnceLock::new(),
        })
    }
}

/// A cache cell already holding `value`.
fn prefilled<T>(value: T) -> OnceLock<T> {
    let cell = OnceLock::new();
    let _ = cell.set(value);
    cell
}

impl SignedRar {
    /// Build and sign the user's innermost request (`RAR_U`).
    pub fn user_request(
        res_spec: ResSpec,
        source_bb: DistinguishedName,
        capability_certs: Vec<Certificate>,
        user_key: &KeyPair,
    ) -> Self {
        let layer = RarLayer::User {
            res_spec: res_spec.clone(),
            source_bb,
            capability_certs,
        };
        Self::sign_layer(layer, res_spec.requestor, user_key)
    }

    /// Encode `layer` once, hash what it adds to the layer inside once,
    /// sign the digest, and keep both beside the layer.
    pub fn sign_layer(layer: RarLayer, signer: DistinguishedName, key: &KeyPair) -> Self {
        let wire = qos_wire::to_bytes(&layer);
        let digest = chained_digest(&layer, &wire);
        Self {
            layer,
            signer,
            signature: key.sign_digest(&digest),
            wire: prefilled(SharedBytes::from_vec(wire)),
            digest: prefilled(digest),
            preimage: OnceLock::new(),
        }
    }

    /// Wrap a received message into the next hop's envelope
    /// (`RAR_{N+1}`), delegating nothing.
    pub fn wrap(
        inner: SignedRar,
        upstream_cert: Certificate,
        next_bb: Option<DistinguishedName>,
        capability_certs: Vec<Certificate>,
        policy_attachments: AttributeSet,
        signer: DistinguishedName,
        key: &KeyPair,
    ) -> Self {
        let layer = RarLayer::Broker {
            inner: Box::new(inner),
            upstream_cert,
            next_bb,
            capability_certs,
            policy_attachments,
            delegate: None,
        };
        // Encoding the new layer appends the inner envelope's *cached*
        // wire bytes (one memcpy) rather than re-walking the nest.
        Self::sign_layer(layer, signer, key)
    }

    /// The wire encoding of `layer`, computed at most once per envelope
    /// lifetime.
    ///
    /// Envelopes built by [`SignedRar::user_request`] / [`SignedRar::wrap`]
    /// or decoded via [`qos_wire::from_bytes_shared`] never encode here;
    /// only envelopes decoded through a plain reader pay one encoding on
    /// first use.
    pub fn wire_bytes(&self) -> &[u8] {
        self.wire
            .get_or_init(|| SharedBytes::from_vec(qos_wire::to_bytes(&self.layer)))
            .as_slice()
    }

    /// The bytes whose SHA-256 the signature is over: a user layer's
    /// wire bytes, a broker layer's `0x01 ‖ inner digest ‖ what the
    /// broker added`. No request path builds them.
    pub fn layer_bytes(&self) -> &[u8] {
        let RarLayer::Broker { inner, .. } = &self.layer else {
            return self.wire_bytes();
        };
        self.preimage.get_or_init(|| {
            let added = &self.wire_bytes()[1 + inner.wire_bytes().len()..];
            [&[WRAP_TAG][..], &inner.layer_digest()[..], added].concat()
        })
    }

    /// SHA-256 of [`SignedRar::layer_bytes`] — the exact signature input
    /// — computed at most once per envelope lifetime.
    pub fn layer_digest(&self) -> &Digest {
        self.digest
            .get_or_init(|| chained_digest(&self.layer, self.wire_bytes()))
    }

    /// Adopt a digest of this layer's bytes that the borrowed decoder
    /// ([`crate::envelope_ref::EnvelopeRef`]) already computed.
    pub(crate) fn seed_layer_digest(&self, digest: Digest) {
        let _ = self.digest.set(digest);
    }

    /// Verify this layer's signature under `pk`.
    pub fn verify_signature(&self, pk: PublicKey) -> bool {
        pk.verify_digest(self.layer_digest(), &self.signature)
    }

    /// The signature value (for tests).
    pub fn signature(&self) -> Signature {
        self.signature
    }

    /// The reservation specification, wherever it is nested.
    pub fn res_spec(&self) -> &ResSpec {
        match &self.layer {
            RarLayer::User { res_spec, .. } => res_spec,
            RarLayer::Broker { inner, .. } => inner.res_spec(),
        }
    }

    /// Envelope depth: 1 for a bare user request, +1 per broker wrap.
    pub fn depth(&self) -> usize {
        match &self.layer {
            RarLayer::User { .. } => 1,
            RarLayer::Broker { inner, .. } => 1 + inner.depth(),
        }
    }

    /// Signer DNs innermost-first: `[user, BB_A, BB_B, …]` — the signal
    /// path trace.
    pub fn signer_path(&self) -> Vec<DistinguishedName> {
        RarView::of(self).signers().cloned().collect()
    }

    /// All capability certificates, innermost (CAS grant) first — the
    /// growing capability list of Figure 7.
    pub fn capability_certs(&self) -> Vec<Certificate> {
        RarView::of(self).caps().iter().copied().cloned().collect()
    }

    /// Union of all policy attachments, inner layers first (outer layers
    /// override on key conflicts).
    pub fn merged_attachments(&self) -> AttributeSet {
        RarView::of(self).merged_attachments()
    }

    /// Serialized size in bytes (the EXP-S metric).
    pub fn encoded_len(&self) -> usize {
        qos_wire::with_encoded(self, <[u8]>::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rar::RarId;
    use qos_broker::Interval;
    use qos_crypto::{CertificateAuthority, Timestamp, Validity};
    use qos_policy::Value;

    fn spec() -> ResSpec {
        ResSpec::new(
            RarId(1),
            DistinguishedName::user("Alice", "ANL"),
            "domain-a",
            "domain-c",
            7,
            10_000_000,
            Interval::starting_at(Timestamp(0), 3600),
        )
    }

    struct Fix {
        ca: CertificateAuthority,
        user: KeyPair,
        bb_a: KeyPair,
        bb_b: KeyPair,
    }

    fn fix() -> Fix {
        Fix {
            ca: CertificateAuthority::new(
                DistinguishedName::authority("CA"),
                KeyPair::from_seed(b"ca"),
            ),
            user: KeyPair::from_seed(b"alice"),
            bb_a: KeyPair::from_seed(b"bb-a"),
            bb_b: KeyPair::from_seed(b"bb-b"),
        }
    }

    fn build_nested(f: &mut Fix) -> SignedRar {
        let user_cert = f.ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            f.user.public(),
            Validity::unbounded(),
        );
        let cert_a = f.ca.issue_identity(
            DistinguishedName::broker("domain-a"),
            f.bb_a.public(),
            Validity::unbounded(),
        );
        let rar_u = SignedRar::user_request(
            spec(),
            DistinguishedName::broker("domain-a"),
            vec![],
            &f.user,
        );
        let rar_a = SignedRar::wrap(
            rar_u,
            user_cert,
            Some(DistinguishedName::broker("domain-b")),
            vec![],
            AttributeSet::new().with("te_hint", Value::Int(1)),
            DistinguishedName::broker("domain-a"),
            &f.bb_a,
        );
        SignedRar::wrap(
            rar_a,
            cert_a,
            Some(DistinguishedName::broker("domain-c")),
            vec![],
            AttributeSet::new().with("sls_b", Value::Int(2)),
            DistinguishedName::broker("domain-b"),
            &f.bb_b,
        )
    }

    #[test]
    fn nesting_grows_depth_and_path() {
        let mut f = fix();
        let rar = build_nested(&mut f);
        assert_eq!(rar.depth(), 3);
        let path: Vec<String> = rar.signer_path().iter().map(|d| d.to_string()).collect();
        assert_eq!(
            path,
            vec![
                "CN=Alice,OU=Users,O=ANL",
                "CN=BB,OU=domain-a,O=QoS",
                "CN=BB,OU=domain-b,O=QoS"
            ]
        );
        assert_eq!(rar.res_spec().rar_id, RarId(1));
    }

    #[test]
    fn signatures_verify_layer_by_layer() {
        let mut f = fix();
        let rar = build_nested(&mut f);
        assert!(rar.verify_signature(f.bb_b.public()));
        let RarLayer::Broker { inner, .. } = &rar.layer else {
            panic!()
        };
        assert!(inner.verify_signature(f.bb_a.public()));
        let RarLayer::Broker { inner: user, .. } = &inner.layer else {
            panic!()
        };
        assert!(user.verify_signature(f.user.public()));
    }

    #[test]
    fn tampering_any_layer_breaks_outer_signature() {
        let mut f = fix();
        let rar = build_nested(&mut f);
        // Deep-tamper: mutate the serialized form so the damage lands
        // inside a nested, already-signed layer.
        let mut bytes = qos_wire::to_bytes(&rar);
        // Flip a byte near the middle (inside nested payload).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        match qos_wire::from_bytes::<SignedRar>(&bytes) {
            Err(_) => {} // structural damage detected by codec
            Ok(mutated) => {
                assert!(
                    !mutated.verify_signature(f.bb_b.public()),
                    "outer signature must not survive inner mutation"
                );
            }
        }
    }

    #[test]
    fn merged_attachments_accumulate_inner_to_outer() {
        let mut f = fix();
        let rar = build_nested(&mut f);
        let merged = rar.merged_attachments();
        assert_eq!(merged.get("te_hint"), Some(&Value::Int(1)));
        assert_eq!(merged.get("sls_b"), Some(&Value::Int(2)));
    }

    #[test]
    fn wire_round_trip_preserves_verification() {
        let mut f = fix();
        let rar = build_nested(&mut f);
        let bytes = qos_wire::to_bytes(&rar);
        let back: SignedRar = qos_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, rar);
        assert!(back.verify_signature(f.bb_b.public()));
    }

    #[test]
    fn cached_layer_bytes_match_fresh_encoding() {
        let mut f = fix();
        let rar = build_nested(&mut f);
        // Built chain: caches were prefilled at sign time. (On
        // `wire_bytes()` since §D22: `layer_bytes()` is the preimage.)
        assert_eq!(rar.wire_bytes(), &qos_wire::to_bytes(&rar.layer)[..]);

        // Shared-buffer decode: every nested layer must hold a view that
        // is byte-identical to a fresh encoding of that layer.
        let buf: std::sync::Arc<[u8]> = qos_wire::to_bytes(&rar).into();
        let back: SignedRar = qos_wire::from_bytes_shared(&buf).unwrap();
        let mut cur = &back;
        loop {
            assert_eq!(cur.wire_bytes(), &qos_wire::to_bytes(&cur.layer)[..]);
            match &cur.layer {
                RarLayer::Broker { inner, .. } => cur = inner,
                RarLayer::User { .. } => break,
            }
        }
        // Re-encoding the decoded envelope reproduces the wire bytes.
        assert_eq!(qos_wire::to_bytes(&back), &buf[..]);
    }

    #[test]
    fn encoded_len_grows_with_depth() {
        let mut f = fix();
        let rar_u = SignedRar::user_request(
            spec(),
            DistinguishedName::broker("domain-a"),
            vec![],
            &f.user,
        );
        let l1 = rar_u.encoded_len();
        let nested = build_nested(&mut f);
        assert!(nested.encoded_len() > l1 * 2, "nesting adds layers + certs");
    }
}
