//! Inter-broker signalling messages.
//!
//! Downstream travels the nested [`SignedRar`]; upstream travel signed
//! approvals ("the BB adds its own signed policy information and
//! propagates the modified request to the previous intermediate domain
//! BB") or denials ("the event is propagated upstream to inform the user
//! of the reason for the denial"). Tunnel sub-flow requests travel the
//! *direct* source↔destination channel.

use crate::envelope::SignedRar;
use crate::rar::RarId;
use qos_crypto::sha256::{sha256, Digest};
use qos_crypto::{Certificate, DistinguishedName, KeyPair, PublicKey, Signature};
use qos_policy::AttributeSet;

/// One domain's signed endorsement on the approval path. Entries chain
/// through `prev_digest`, so the source can verify the whole return path.
#[derive(Debug, Clone, PartialEq)]
pub struct ApprovalEntry {
    /// The approved request.
    pub rar_id: RarId,
    /// Endorsing domain.
    pub domain: String,
    /// Endorsing broker's DN.
    pub signer: DistinguishedName,
    /// Policy information this domain attached on the way back.
    pub attachments: AttributeSet,
    /// SHA-256 of the previous entry's canonical bytes (empty for the
    /// destination's entry).
    pub prev_digest: Vec<u8>,
    /// Signature over the SHA-256 of the canonical bytes of all fields
    /// above.
    pub signature: Signature,
}

qos_wire::impl_wire_struct!(ApprovalEntry {
    rar_id,
    domain,
    signer,
    attachments,
    prev_digest,
    signature
});

/// The fields of an [`ApprovalEntry`] its signature covers, borrowed.
struct SignedFields<'a> {
    rar_id: RarId,
    domain: &'a str,
    signer: &'a DistinguishedName,
    attachments: &'a AttributeSet,
    prev_digest: &'a [u8],
}

impl qos_wire::Encode for SignedFields<'_> {
    fn encode(&self, w: &mut qos_wire::Writer) {
        self.rar_id.encode(w);
        w.put_str(self.domain);
        self.signer.encode(w);
        self.attachments.encode(w);
        w.put_bytes(self.prev_digest);
    }
}

impl SignedFields<'_> {
    /// SHA-256 of the canonical bytes, encoded in the thread's scratch
    /// buffer: what is signed and verified.
    fn digest(&self) -> Digest {
        qos_wire::with_encoded(self, sha256)
    }
}

impl ApprovalEntry {
    /// Verify this entry's signature under `pk`.
    pub fn verify(&self, pk: PublicKey) -> bool {
        let fields = SignedFields {
            rar_id: self.rar_id,
            domain: &self.domain,
            signer: &self.signer,
            attachments: &self.attachments,
            prev_digest: &self.prev_digest,
        };
        pk.verify_digest(&fields.digest(), &self.signature)
    }
}

/// The approval flowing back from the destination to the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Approval {
    /// The approved request.
    pub rar_id: RarId,
    /// The destination broker's certificate — what the source domain
    /// needs to open the direct tunnel channel ("it must be possible for
    /// the end-domain to derive the identity of the source domain's BB",
    /// and vice versa).
    pub dest_cert: Certificate,
    /// Endorsements, destination first.
    pub entries: Vec<ApprovalEntry>,
}

qos_wire::impl_wire_struct!(Approval {
    rar_id,
    dest_cert,
    entries
});

impl Approval {
    /// Create the destination's initial approval.
    pub fn originate(
        rar_id: RarId,
        dest_cert: Certificate,
        domain: &str,
        signer: DistinguishedName,
        attachments: AttributeSet,
        key: &KeyPair,
    ) -> Self {
        let fields = SignedFields {
            rar_id,
            domain,
            signer: &signer,
            attachments: &attachments,
            prev_digest: &[],
        };
        let signature = key.sign_digest(&fields.digest());
        Self {
            rar_id,
            dest_cert,
            entries: vec![ApprovalEntry {
                rar_id,
                domain: domain.to_string(),
                signer,
                attachments,
                prev_digest: Vec::new(),
                signature,
            }],
        }
    }

    /// Add a transit/source domain's endorsement.
    pub fn endorse(
        mut self,
        domain: &str,
        signer: DistinguishedName,
        attachments: AttributeSet,
        key: &KeyPair,
    ) -> Self {
        let prev = self.entries.last().expect("approvals are never empty");
        let prev_digest = qos_wire::with_encoded(prev, sha256).to_vec();
        let fields = SignedFields {
            rar_id: self.rar_id,
            domain,
            signer: &signer,
            attachments: &attachments,
            prev_digest: &prev_digest,
        };
        let signature = key.sign_digest(&fields.digest());
        self.entries.push(ApprovalEntry {
            rar_id: self.rar_id,
            domain: domain.to_string(),
            signer,
            attachments,
            prev_digest,
            signature,
        });
        self
    }

    /// Verify the chain: every signature under the key `resolve` returns
    /// for its signer, and every `prev_digest` matches.
    pub fn verify(
        &self,
        resolve: impl Fn(&DistinguishedName) -> Option<PublicKey>,
    ) -> Result<(), String> {
        let mut prev: Option<&ApprovalEntry> = None;
        for entry in &self.entries {
            if entry.rar_id != self.rar_id {
                return Err("entry rar_id mismatch".into());
            }
            let expected_digest = match prev {
                None => Vec::new(),
                Some(p) => qos_wire::with_encoded(p, sha256).to_vec(),
            };
            if entry.prev_digest != expected_digest {
                return Err(format!("broken digest chain at {}", entry.domain));
            }
            let pk =
                resolve(&entry.signer).ok_or_else(|| format!("no key for {}", entry.signer))?;
            if !entry.verify(pk) {
                return Err(format!("bad signature by {}", entry.signer));
            }
            prev = Some(entry);
        }
        Ok(())
    }
}

/// A denial flowing back upstream.
#[derive(Debug, Clone, PartialEq)]
pub struct Denial {
    /// The denied request.
    pub rar_id: RarId,
    /// The domain that said no.
    pub domain: String,
    /// Why ("to inform the user of the reason for the denial").
    pub reason: String,
}

qos_wire::impl_wire_struct!(Denial {
    rar_id,
    domain,
    reason
});

/// A request for a sub-flow inside an established tunnel, sent over the
/// direct source↔destination channel. It carries no signature: the
/// destination admits it only from the channel authenticated as the
/// tunnel's source broker (DESIGN.md §D23).
#[derive(Debug, Clone, PartialEq)]
pub struct TunnelFlowRequest {
    /// The tunnel (the aggregate reservation's id).
    pub tunnel: RarId,
    /// The new sub-flow's data-plane id.
    pub flow: u64,
    /// Requested rate within the aggregate.
    pub rate_bps: u64,
    /// Requesting user.
    pub requestor: DistinguishedName,
}

qos_wire::impl_wire_struct!(TunnelFlowRequest {
    tunnel,
    flow,
    rate_bps,
    requestor
});

impl TunnelFlowRequest {
    /// A new sub-flow request.
    pub fn new(tunnel: RarId, flow: u64, rate_bps: u64, requestor: DistinguishedName) -> Self {
        Self {
            tunnel,
            flow,
            rate_bps,
            requestor,
        }
    }
}

/// Why a tunnel sub-flow request was refused. The fast path emits these
/// as static codes — no `format!` per denial, nothing heap-allocated on
/// the reply hot path. On the wire a code travels as the same
/// length-prefixed string the old free-text `reason` field used, so the
/// frame layout is unchanged; `Other` round-trips any string an older
/// peer might still send.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DenialCode {
    /// Accepted — no denial (encodes as the empty string, exactly what
    /// the old path put in `reason` on acceptance).
    #[default]
    None,
    /// The destination has no such tunnel.
    UnknownTunnel,
    /// The request did not arrive over the channel authenticated as the
    /// tunnel's source broker.
    NotTunnelSource,
    /// The destination's aggregate budget is exhausted.
    Exhausted,
    /// The source's aggregate budget (committed + in-flight) is
    /// exhausted.
    SourceExhausted,
    /// The per-flow rate exceeds what a compact flow record can carry
    /// ([`crate::flowtable::MAX_FLOW_RATE_BPS`]).
    RateOverCap,
    /// Free-text reason from a peer speaking the pre-code dialect.
    Other(Box<str>),
}

impl DenialCode {
    /// The stable wire string for this code.
    pub fn as_str(&self) -> &str {
        match self {
            DenialCode::None => "",
            DenialCode::UnknownTunnel => "unknown-tunnel",
            DenialCode::NotTunnelSource => "not-tunnel-source",
            DenialCode::Exhausted => "exhausted",
            DenialCode::SourceExhausted => "source-exhausted",
            DenialCode::RateOverCap => "rate-over-cap",
            DenialCode::Other(s) => s,
        }
    }

    /// Parse a wire string back into a code (unknown text → `Other`).
    pub fn from_wire(s: &str) -> Self {
        match s {
            "" => DenialCode::None,
            "unknown-tunnel" => DenialCode::UnknownTunnel,
            "not-tunnel-source" => DenialCode::NotTunnelSource,
            "exhausted" => DenialCode::Exhausted,
            "source-exhausted" => DenialCode::SourceExhausted,
            "rate-over-cap" => DenialCode::RateOverCap,
            other => DenialCode::Other(other.into()),
        }
    }
}

impl std::fmt::Display for DenialCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl qos_wire::Encode for DenialCode {
    fn encode(&self, w: &mut qos_wire::Writer) {
        w.put_str(self.as_str());
    }
}

impl qos_wire::Decode for DenialCode {
    fn decode(r: &mut qos_wire::Reader<'_>) -> Result<Self, qos_wire::WireError> {
        Ok(Self::from_wire(&r.get_str()?))
    }
}

/// Reply to a tunnel sub-flow request.
#[derive(Debug, Clone, PartialEq)]
pub struct TunnelFlowReply {
    /// The tunnel.
    pub tunnel: RarId,
    /// The sub-flow.
    pub flow: u64,
    /// Whether the destination accepted.
    pub accepted: bool,
    /// Denial code on rejection ([`DenialCode::None`] on acceptance).
    pub reason: DenialCode,
}

qos_wire::impl_wire_struct!(TunnelFlowReply {
    tunnel,
    flow,
    accepted,
    reason
});

/// A direct (Approach-1) per-domain reservation request: the end-to-end
/// agent contacts each BB individually with the user-signed request.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectRequest {
    /// The user-signed request.
    pub rar: SignedRar,
    /// Position of this domain on the declared path (which peers the
    /// traffic enters/leaves through).
    pub ingress_peer: Option<String>,
    /// Downstream peer on the declared path.
    pub egress_peer: Option<String>,
}

qos_wire::impl_wire_struct!(DirectRequest {
    rar,
    ingress_peer,
    egress_peer
});

/// Reply to a direct request.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectReply {
    /// The request.
    pub rar_id: RarId,
    /// Replying domain.
    pub domain: String,
    /// Whether this domain admitted the reservation.
    pub accepted: bool,
    /// Reason on rejection.
    pub reason: String,
}

qos_wire::impl_wire_struct!(DirectReply {
    rar_id,
    domain,
    accepted,
    reason
});

/// Teardown of one tunnel sub-flow, sent over the direct channel and,
/// like [`TunnelFlowRequest`], acted on only from the tunnel's source.
#[derive(Debug, Clone, PartialEq)]
pub struct TunnelFlowRelease {
    /// The tunnel.
    pub tunnel: RarId,
    /// The sub-flow being torn down.
    pub flow: u64,
}

qos_wire::impl_wire_struct!(TunnelFlowRelease { tunnel, flow });

impl TunnelFlowRelease {
    /// A sub-flow teardown.
    pub fn new(tunnel: RarId, flow: u64) -> Self {
        Self { tunnel, flow }
    }
}

/// A signed end-to-end teardown: the source broker releases a committed
/// reservation along the whole path ("end-to-end management" in GARA's
/// API). Signed by the source BB so transit domains cannot be tricked
/// into releasing someone else's capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// The reservation to tear down.
    pub rar_id: RarId,
    /// The initiating (source) domain.
    pub source_domain: String,
    /// Source BB's signature over (rar_id ‖ source_domain).
    pub signature: Signature,
}

qos_wire::impl_wire_struct!(Release {
    rar_id,
    source_domain,
    signature
});

impl Release {
    fn payload(rar_id: RarId, source_domain: &str) -> Vec<u8> {
        let mut w = qos_wire::Writer::new();
        qos_wire::Encode::encode(&rar_id, &mut w);
        w.put_str(source_domain);
        w.into_bytes()
    }

    /// Sign a teardown at the source broker.
    pub fn new(rar_id: RarId, source_domain: &str, key: &KeyPair) -> Self {
        Self {
            rar_id,
            source_domain: source_domain.to_string(),
            signature: key.sign(&Self::payload(rar_id, source_domain)),
        }
    }

    /// Verify under the source BB's public key.
    pub fn verify(&self, pk: PublicKey) -> bool {
        pk.verify(
            &Self::payload(self.rar_id, &self.source_domain),
            &self.signature,
        )
    }
}

/// Everything that flows between signalling entities.
#[derive(Debug, Clone, PartialEq)]
pub enum SignalMessage {
    /// Hop-by-hop downstream request. Boxed: the box it is decoded into
    /// becomes the next layer's `inner`, so a forwarded request costs no
    /// more allocations than inline, and every other message — a sub-flow
    /// above all — is not moved at the size of an envelope (DESIGN.md
    /// §D33). A `Box<T>` encodes as `T`.
    Request(Box<SignedRar>),
    /// Upstream approval.
    Approve(Approval),
    /// Upstream denial.
    Deny(Denial),
    /// Approach-1 direct request (end-to-end agent → one BB). Boxed: it
    /// is the baseline's message and the largest, and every variant
    /// would be moved around at its size.
    Direct(Box<DirectRequest>),
    /// Approach-1 reply.
    DirectReply(DirectReply),
    /// Tunnel sub-flow request (direct source→destination channel).
    TunnelFlow(TunnelFlowRequest),
    /// Tunnel sub-flow reply (destination→source).
    TunnelFlowReply(TunnelFlowReply),
    /// End-to-end teardown of a standing reservation (source → …
    /// destination, hop by hop).
    Release(Release),
    /// Teardown of a tunnel sub-flow (direct channel).
    TunnelFlowRelease(TunnelFlowRelease),
}

qos_wire::impl_wire_enum!(SignalMessage {
    0 => Request(t0: Box<SignedRar>),
    1 => Approve(t0: Approval),
    2 => Deny(t0: Denial),
    3 => Direct(t0: Box<DirectRequest>),
    4 => DirectReply(t0: DirectReply),
    5 => TunnelFlow(t0: TunnelFlowRequest),
    6 => TunnelFlowReply(t0: TunnelFlowReply),
    7 => Release(t0: Release),
    8 => TunnelFlowRelease(t0: TunnelFlowRelease),
});

// Every message is moved at the size of the largest variant: a new one
// that outgrows this must be boxed, as `Request` and `Direct` are
// (DESIGN.md §D33).
const _: () = assert!(std::mem::size_of::<SignalMessage>() <= 64);

impl SignalMessage {
    /// The request (or tunnel) this message concerns.
    pub fn rar_id(&self) -> RarId {
        match self {
            SignalMessage::Request(rar) => rar.res_spec().rar_id,
            SignalMessage::Approve(a) => a.rar_id,
            SignalMessage::Deny(d) => d.rar_id,
            SignalMessage::Direct(d) => d.rar.res_spec().rar_id,
            SignalMessage::DirectReply(r) => r.rar_id,
            SignalMessage::TunnelFlow(t) => t.tunnel,
            SignalMessage::TunnelFlowReply(r) => r.tunnel,
            SignalMessage::Release(r) => r.rar_id,
            SignalMessage::TunnelFlowRelease(r) => r.tunnel,
        }
    }

    /// The trace this message belongs to, where the message itself
    /// carries enough signed state to re-derive it ([`TraceId::mint`]
    /// is deterministic over `(source_domain, rar_id)`). Upstream
    /// replies (approve/deny/…) identify the request by id only; brokers
    /// resolve those against their pending table instead.
    pub fn trace_id(&self) -> Option<qos_telemetry::TraceId> {
        let spec = match self {
            SignalMessage::Request(rar) => rar.res_spec(),
            SignalMessage::Direct(d) => d.rar.res_spec(),
            _ => return None,
        };
        Some(qos_telemetry::TraceId::mint(
            &spec.source_domain,
            spec.rar_id.0,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_crypto::cert::Validity;
    use qos_crypto::CertificateAuthority;

    fn kp(s: &str) -> KeyPair {
        KeyPair::from_seed(s.as_bytes())
    }

    fn dest_cert() -> Certificate {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        ca.issue_identity(
            DistinguishedName::broker("domain-c"),
            kp("bb-c").public(),
            Validity::unbounded(),
        )
    }

    #[test]
    fn approval_chain_builds_and_verifies() {
        let (kc, kb, ka) = (kp("bb-c"), kp("bb-b"), kp("bb-a"));
        let approval = Approval::originate(
            RarId(1),
            dest_cert(),
            "domain-c",
            DistinguishedName::broker("domain-c"),
            AttributeSet::new(),
            &kc,
        )
        .endorse(
            "domain-b",
            DistinguishedName::broker("domain-b"),
            AttributeSet::new(),
            &kb,
        )
        .endorse(
            "domain-a",
            DistinguishedName::broker("domain-a"),
            AttributeSet::new(),
            &ka,
        );
        assert_eq!(approval.entries.len(), 3);
        let resolve = |dn: &DistinguishedName| {
            Some(match dn.org_unit()? {
                "domain-a" => ka.public(),
                "domain-b" => kb.public(),
                "domain-c" => kc.public(),
                _ => return None,
            })
        };
        approval.verify(resolve).unwrap();
    }

    #[test]
    fn approval_tampering_detected() {
        let kc = kp("bb-c");
        let kb = kp("bb-b");
        let mut approval = Approval::originate(
            RarId(1),
            dest_cert(),
            "domain-c",
            DistinguishedName::broker("domain-c"),
            AttributeSet::new(),
            &kc,
        )
        .endorse(
            "domain-b",
            DistinguishedName::broker("domain-b"),
            AttributeSet::new(),
            &kb,
        );
        // Strip the destination's entry (pretend B originated it).
        approval.entries.remove(0);
        let resolve = |dn: &DistinguishedName| {
            Some(match dn.org_unit()? {
                "domain-b" => kb.public(),
                "domain-c" => kc.public(),
                _ => return None,
            })
        };
        assert!(approval.verify(resolve).is_err());
    }

    #[test]
    fn signal_message_wire_round_trip() {
        let msgs = [
            SignalMessage::Deny(Denial {
                rar_id: RarId(9),
                domain: "domain-b".into(),
                reason: "no SLA capacity".into(),
            }),
            SignalMessage::TunnelFlow(TunnelFlowRequest::new(
                RarId(5),
                77,
                1_000_000,
                DistinguishedName::user("Alice", "ANL"),
            )),
            SignalMessage::TunnelFlowRelease(TunnelFlowRelease::new(RarId(9), 1 << 40)),
            SignalMessage::TunnelFlowReply(TunnelFlowReply {
                tunnel: RarId(5),
                flow: 77,
                accepted: false,
                reason: DenialCode::NotTunnelSource,
            }),
        ];
        for msg in msgs {
            let bytes = qos_wire::to_bytes(&msg);
            assert_eq!(qos_wire::from_bytes::<SignalMessage>(&bytes).unwrap(), msg);
        }
        // A sub-flow message is its fields and nothing else: tag, tunnel
        // and flow (and the rate and requestor of a request).
        let release = TunnelFlowRelease::new(RarId(9), 1);
        let bytes = qos_wire::to_bytes(&SignalMessage::TunnelFlowRelease(release));
        assert_eq!(bytes.len(), 1 + 8 + 8);
        // The code a pre-§D23 destination sent parses, as free text.
        assert_eq!(
            DenialCode::from_wire("bad-signature"),
            DenialCode::Other("bad-signature".into())
        );
    }
}
