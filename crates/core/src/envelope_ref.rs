//! Borrowed envelope decode (DESIGN.md §D15).
//!
//! No product code calls this module any more: its one caller was the
//! reactor's warm-replay probe, deleted with the reply cache (DESIGN.md
//! §D19). It is kept unchanged because the benchmark (`qosbench`) times
//! [`EnvelopeRef::parse`] and calls [`EnvelopeRef::to_owned_message`];
//! it goes once the benchmark stops probing it.
//!
//! The warm admit/deny path receives a `SignalMessage::Request` whose
//! byte-identical twin was fully verified moments ago (signalling
//! retries, two-phase commit re-sends). Re-materializing the whole
//! nested [`SignedRar`] — strings, DNs, certificate chains — just to
//! compute the same digest again is pure allocation churn.
//!
//! [`EnvelopeRef`] is a *skip-parser* over the exact canonical wire
//! layout: it walks the nested layers without building any owned value,
//! recording only the facts the warm path needs — the outer layer's
//! canonical byte span (the signature input, and the reply-cache key
//! material), the outer [`Signature`], the envelope depth, and the
//! `rar_id` buried in the innermost user layer.
//! Everything stays a slice into the receive buffer.
//!
//! ## Equivalence contract
//!
//! The skip-parser accepts exactly the inputs the owned decoder
//! ([`qos_wire::from_bytes`]`::<SignalMessage>`) accepts for `Request`
//! messages, and rejects exactly what it rejects (structural
//! validation included: enum tags, bool canonicality, UTF-8, length
//! bounds, trailing bytes). The borrowed-≡-owned proptests in
//! `qos-transport` pin this layer by layer; any divergence is a bug in
//! this module, never a protocol difference.
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use crate::envelope::{wrap_digest, SignedRar};
use crate::messages::SignalMessage;
use crate::rar::RarId;
use qos_crypto::sha256::{sha256, Digest};
use qos_crypto::Signature;
use qos_wire::{Decode, Reader, WireError};
use std::cell::Cell;
use std::sync::Arc;

/// Wire tag of `SignalMessage::Request`.
const TAG_REQUEST: u8 = 0;
/// Wire tag of `RarLayer::User`.
const TAG_LAYER_USER: u8 = 0;
/// Wire tag of `RarLayer::Broker`.
const TAG_LAYER_BROKER: u8 = 1;

/// A borrowed view of one `SignalMessage::Request` envelope: the facts
/// the warm revalidation path needs, with zero owned decoding.
#[derive(Debug, Clone)]
pub struct EnvelopeRef<'a> {
    /// The whole message this view was parsed from.
    message: &'a [u8],
    wire_bytes: &'a [u8],
    signature: Signature,
    depth: usize,
    rar_id: RarId,
    /// The outer layer's chained digest, once somebody asked for it.
    digest: Cell<Option<Digest>>,
}

impl<'a> EnvelopeRef<'a> {
    /// Parse `bytes` as a canonical `SignalMessage` encoding.
    ///
    /// Returns `Ok(Some(_))` for a structurally valid `Request`,
    /// `Ok(None)` for any other (valid-tagged) message variant — the
    /// caller falls back to owned decoding — and `Err` for input the
    /// owned decoder would also reject.
    pub fn parse(bytes: &'a [u8]) -> Result<Option<Self>, WireError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_u8()?;
        if tag != TAG_REQUEST {
            return Ok(None);
        }
        let parsed = skip_signed_rar(&mut r, bytes)?;
        r.finish()?;
        Ok(Some(parsed))
    }

    /// The wire bytes of the outer layer, identical to
    /// [`SignedRar::wire_bytes`] on the owned decode of the same message.
    pub fn wire_bytes(&self) -> &'a [u8] {
        self.wire_bytes
    }

    /// What the outer signature is over ([`SignedRar::layer_digest`]):
    /// a second walk of the parsed bytes that chains each layer's digest
    /// over the one inside it, made on first use and handed on to the
    /// owned decode ([`EnvelopeRef::decode_owned`]).
    pub fn layer_digest(&self) -> Digest {
        self.digest.get().unwrap_or_else(|| {
            let mut digest = [0; 32];
            skip_layer(&mut Reader::new(self.wire_bytes), Some(&mut digest))
                .expect("parse accepted these bytes");
            self.digest.set(Some(digest));
            digest
        })
    }

    /// The outer signature.
    pub fn signature(&self) -> Signature {
        self.signature
    }

    /// Envelope depth: 1 for a bare user request, +1 per broker wrap.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The request id from the innermost user layer.
    pub fn rar_id(&self) -> RarId {
        self.rar_id
    }

    /// Owned decode of the same bytes — the slow-path escape hatch for
    /// callers that held an `EnvelopeRef` and then missed the warm
    /// cache. Allocates; never fails for bytes this type was parsed
    /// from (pinned by the equivalence tests).
    pub fn to_owned_message(bytes: &[u8]) -> Result<SignalMessage, WireError> {
        qos_wire::from_bytes(bytes)
    }

    /// Owned decode of the message this view was parsed from, through a
    /// shared buffer (every layer keeps a zero-copy span of it), with
    /// the layer digest carried over if the warm-path probe computed it.
    pub fn decode_owned(&self) -> Result<SignalMessage, WireError> {
        let shared: Arc<[u8]> = self.message.into();
        let msg = qos_wire::from_bytes_shared::<SignalMessage>(&shared)?;
        if let (SignalMessage::Request(rar), Some(digest)) = (&msg, self.digest.get()) {
            rar.seed_layer_digest(digest);
        }
        Ok(msg)
    }
}

/// Skip one `SignedRar`, returning its borrowed facts. `input` is the
/// full buffer `r` reads from, used to recover byte spans by position.
fn skip_signed_rar<'a>(r: &mut Reader<'a>, input: &'a [u8]) -> Result<EnvelopeRef<'a>, WireError> {
    let layer_start = r.position();
    let (depth, rar_id) = skip_layer(r, None)?;
    let wire_bytes = &input[layer_start..r.position()];
    skip_dn(r)?; // signer
    let signature = Signature::decode(r)?;
    Ok(EnvelopeRef {
        message: input,
        wire_bytes,
        signature,
        depth,
        rar_id,
        digest: Cell::new(None),
    })
}

/// Skip one `RarLayer`, returning `(depth, rar_id)` of the nest below.
/// A `digest` passed in is set to the layer's chained digest.
fn skip_layer(
    r: &mut Reader<'_>,
    mut digest: Option<&mut Digest>,
) -> Result<(usize, RarId), WireError> {
    let start = r.position();
    match r.get_u8()? {
        TAG_LAYER_USER => {
            let rar_id = skip_res_spec(r)?;
            skip_dn(r)?; // source_bb
            skip_vec(r, skip_certificate)?; // capability_certs
            if let Some(digest) = digest {
                *digest = sha256(r.consumed_since(start));
            }
            Ok((1, rar_id))
        }
        TAG_LAYER_BROKER => {
            // inner: Box<SignedRar> — recurse; depth is bounded by the
            // same input-length argument as the owned decoder (every
            // layer consumes ≥ 1 byte).
            let (inner_depth, rar_id) = skip_layer(r, digest.as_deref_mut())?;
            let added = r.position();
            skip_dn(r)?; // inner signer
            r.skip(16)?; // inner signature
            skip_certificate(r)?; // upstream_cert
            skip_option(r, skip_dn)?; // next_bb
            skip_vec(r, skip_certificate)?; // capability_certs
            skip_attribute_set(r)?; // policy_attachments
            skip_option(r, |r| r.skip(24))?; // delegate {to_key, validity}
            if let Some(digest) = digest {
                *digest = wrap_digest(digest, r.consumed_since(added));
            }
            Ok((1 + inner_depth, rar_id))
        }
        t => Err(WireError::InvalidTag(t)),
    }
}

/// Skip a `ResSpec`, returning its `rar_id` (the first field).
fn skip_res_spec(r: &mut Reader<'_>) -> Result<RarId, WireError> {
    let rar_id = RarId(r.get_u64()?);
    skip_dn(r)?; // requestor
    skip_str(r)?; // source_domain
    skip_str(r)?; // dest_domain
    r.skip(16)?; // flow, rate_bps
    r.skip(16)?; // interval {start, end}
    skip_option(r, |r| r.skip(8))?; // max_cost
    skip_option(r, |r| r.skip(8))?; // cpu_reservation_id
    r.get_bool()?; // tunnel (canonicality check, like the decoder)
    skip_attribute_set(r)?; // attrs
    skip_vec(r, skip_str)?; // assertions (Assertion = { claim: String })
    Ok(rar_id)
}

fn skip_str(r: &mut Reader<'_>) -> Result<(), WireError> {
    // Validates UTF-8 like `get_str`, so borrowed and owned decoding
    // reject the same inputs.
    r.get_str_ref().map(|_| ())
}

fn skip_dn(r: &mut Reader<'_>) -> Result<(), WireError> {
    // DistinguishedName = a sequence of (attr: String, value: String)
    skip_vec(r, |r| {
        skip_str(r)?;
        skip_str(r)
    })
}

fn skip_vec<F>(r: &mut Reader<'_>, mut elem: F) -> Result<(), WireError>
where
    F: FnMut(&mut Reader<'_>) -> Result<(), WireError>,
{
    let len = r.get_seq_len()?;
    for _ in 0..len {
        elem(r)?;
    }
    Ok(())
}

fn skip_option<F>(r: &mut Reader<'_>, some: F) -> Result<(), WireError>
where
    F: FnOnce(&mut Reader<'_>) -> Result<(), WireError>,
{
    match r.get_u8()? {
        0 => Ok(()),
        1 => some(r),
        t => Err(WireError::InvalidTag(t)),
    }
}

fn skip_certificate(r: &mut Reader<'_>) -> Result<(), WireError> {
    // TbsCertificate
    r.skip(8)?; // serial
    skip_dn(r)?; // issuer
    skip_dn(r)?; // subject
    r.skip(16)?; // validity {not_before, not_after}
    r.skip(8)?; // subject_public_key
    skip_vec(r, skip_extension)?;
    r.skip(16) // signature {r, s}
}

fn skip_extension(r: &mut Reader<'_>) -> Result<(), WireError> {
    match r.get_u8()? {
        0 => Ok(()),                // CapabilityCertificateFlag
        1 => skip_vec(r, skip_str), // Capabilities(Vec<String>)
        2 => skip_restriction(r),
        3 => r.get_bool().map(|_| ()), // BasicConstraints { is_ca }
        t => Err(WireError::InvalidTag(t)),
    }
}

fn skip_restriction(r: &mut Reader<'_>) -> Result<(), WireError> {
    match r.get_u8()? {
        0 => skip_str(r), // ValidForDomain
        1 => r.skip(8),   // ValidForRar
        2 => r.skip(8),   // MaxBandwidthBps
        t => Err(WireError::InvalidTag(t)),
    }
}

fn skip_attribute_set(r: &mut Reader<'_>) -> Result<(), WireError> {
    skip_vec(r, |r| {
        skip_str(r)?;
        skip_value(r)
    })
}

fn skip_value(r: &mut Reader<'_>) -> Result<(), WireError> {
    match r.get_u8()? {
        0 => skip_str(r),              // Str
        1 => r.skip(8),                // Int
        2 => r.skip(8),                // Bandwidth
        3 => r.skip(4),                // TimeOfDay
        4 => r.get_bool().map(|_| ()), // Bool
        5 => skip_vec(r, skip_value),  // List
        t => Err(WireError::InvalidTag(t)),
    }
}

/// Borrowed facts match the owned decode of the same envelope — the
/// programmatic form of the equivalence contract, used by tests and the
/// warm-path integration.
pub fn matches_owned(env: &EnvelopeRef<'_>, rar: &SignedRar) -> bool {
    env.wire_bytes == rar.wire_bytes()
        && env.signature == rar.signature()
        && env.depth == rar.depth()
        && env.rar_id == rar.res_spec().rar_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::SignedRar;
    use crate::rar::ResSpec;
    use qos_broker::Interval;
    use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
    use qos_policy::request::Assertion;
    use qos_policy::{AttributeSet, Value};

    fn build_chain(depth: usize, rich: bool) -> SignedRar {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        let user = KeyPair::from_seed(b"alice");
        let mut spec = ResSpec::new(
            RarId(42),
            DistinguishedName::user("Alice", "ANL"),
            "domain-0",
            &format!("domain-{}", depth.max(1) - 1),
            7,
            10_000_000,
            Interval::starting_at(Timestamp(0), 3600),
        );
        if rich {
            spec = spec
                .with_max_cost(5000)
                .with_cpu_reservation(111)
                .with_assertion(Assertion::group("ATLAS"))
                .as_tunnel();
            spec.attrs = AttributeSet::new().with("offer", Value::Int(3)).with(
                "list",
                Value::List(vec![Value::Bool(true), Value::Str("x".into())]),
            );
        }
        let user_cert = ca.issue_identity(
            DistinguishedName::user("Alice", "ANL"),
            user.public(),
            Validity::unbounded(),
        );
        let mut rar = SignedRar::user_request(
            spec,
            DistinguishedName::broker("domain-0"),
            vec![user_cert.clone()],
            &user,
        );
        let mut prev_cert = user_cert;
        for i in 1..depth {
            let key = KeyPair::from_seed(format!("bb-{i}").as_bytes());
            let dn = DistinguishedName::broker(&format!("domain-{i}"));
            let cert = ca.issue_identity(dn.clone(), key.public(), Validity::unbounded());
            let attach = if rich {
                AttributeSet::new().with(format!("hop-{i}"), Value::Bandwidth(1_000_000))
            } else {
                AttributeSet::new()
            };
            rar = SignedRar::wrap(
                rar,
                prev_cert,
                Some(DistinguishedName::broker(&format!("domain-{}", i + 1))),
                vec![],
                attach,
                dn,
                &key,
            );
            prev_cert = cert;
        }
        rar
    }

    #[test]
    fn borrowed_facts_match_owned_decode() {
        for depth in [1usize, 2, 4, 8] {
            for rich in [false, true] {
                let rar = build_chain(depth, rich);
                let bytes = qos_wire::to_bytes(&SignalMessage::Request(rar.clone()));
                let env = EnvelopeRef::parse(&bytes)
                    .expect("valid request parses")
                    .expect("request variant");
                assert!(
                    matches_owned(&env, &rar),
                    "depth={depth} rich={rich}: borrowed facts diverge from owned"
                );
            }
        }
    }

    #[test]
    fn non_request_messages_yield_none() {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        let key = KeyPair::from_seed(b"z");
        let cert = ca.issue_identity(
            DistinguishedName::broker("domain-z"),
            key.public(),
            Validity::unbounded(),
        );
        let bytes = qos_wire::to_bytes(&SignalMessage::Approve(
            crate::messages::Approval::originate(
                RarId(1),
                cert,
                "domain-z",
                DistinguishedName::broker("domain-z"),
                AttributeSet::new(),
                &key,
            ),
        ));
        assert!(EnvelopeRef::parse(&bytes).unwrap().is_none());
    }

    #[test]
    fn borrowed_and_owned_agree_on_corrupted_input() {
        // Deterministic mini-fuzz: on every mutation, the skip-parser
        // and the owned decoder must agree on accept/reject. (On accept
        // the facts must also match — tampered-but-structurally-valid
        // envelopes still parse; signatures catch them later.)
        let rar = build_chain(3, true);
        let valid = qos_wire::to_bytes(&SignalMessage::Request(rar));
        let mut lcg: u64 = 0x0dd0_5e5e_1234_5678;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as usize
        };
        for _ in 0..4000 {
            let mut m = valid.clone();
            match next() % 3 {
                0 => {
                    let i = next() % m.len();
                    m[i] ^= (next() % 255 + 1) as u8;
                }
                1 => m.truncate(next() % m.len()),
                _ => {
                    let len = next() % 96;
                    m = (0..len).map(|_| (next() % 256) as u8).collect();
                }
            }
            // Owned decode through the shared-buffer path, as the
            // transport does: wire_bytes() is then the raw received
            // span, which is what the borrowed span must equal. (A
            // plain `from_bytes` *re-encodes* the decoded value, which
            // legitimately differs for mutated-but-parseable input with
            // non-canonical map ordering.)
            let arc: std::sync::Arc<[u8]> = m.clone().into();
            let owned = qos_wire::from_bytes_shared::<SignalMessage>(&arc);
            let borrowed = EnvelopeRef::parse(&m);
            match (&owned, &borrowed) {
                (Ok(SignalMessage::Request(o)), Ok(Some(b))) => {
                    assert!(matches_owned(b, o), "facts diverge on mutated input");
                }
                (Ok(SignalMessage::Request(_)), _) => {
                    panic!("owned accepted a Request the skip-parser rejected")
                }
                (Ok(_), Ok(None)) => {} // non-Request variant, both fine
                (Ok(other), Ok(Some(_))) => {
                    panic!("skip-parser saw a Request where owned saw {other:?}")
                }
                (Err(_), Err(_)) => {}
                // The skip-parser returns None after the tag byte for
                // non-Request variants it never validates, so owned may
                // reject what borrowed shrugged at — but never a Some.
                (Err(_), Ok(None)) => {}
                (Err(e), Ok(Some(_))) => {
                    panic!("skip-parser accepted a Request owned rejects: {e:?}")
                }
                (Ok(msg), Err(e)) => {
                    panic!("skip-parser rejected input owned accepts ({msg:?}): {e:?}")
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let rar = build_chain(2, false);
        let mut bytes = qos_wire::to_bytes(&SignalMessage::Request(rar));
        bytes.push(0);
        assert!(EnvelopeRef::parse(&bytes).is_err());
        assert!(qos_wire::from_bytes::<SignalMessage>(&bytes).is_err());
    }
}
