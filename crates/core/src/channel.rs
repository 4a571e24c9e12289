//! Mutually authenticated channels between peered brokers.
//!
//! §6.4: "The direct signalling between peer BBs … can easily be secured
//! using SSLv3/TLS", with the SLA pinning "the certificates of the peered
//! BBs as well as the certificate of the issuing certificate authority,
//! all used during the SSL handshake."
//!
//! This module reproduces the three properties the protocol actually
//! relies on (DESIGN.md §2): **mutual authentication** (both sides
//! validate the peer certificate against the SLA-pinned CA and prove
//! possession of their private keys over a fresh transcript),
//! **integrity + replay protection** (every message is HMAC'd under a
//! derived session key with strict sequence numbers), and **certificate
//! learning** (each side ends the handshake holding the peer's
//! certificate — the raw material of the key-introducer web of trust).
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use crate::error::CoreError;
use qos_crypto::sha256::{hmac_sha256, Digest, HmacKey, Sha256, DIGEST_LEN};
use qos_crypto::{Certificate, DistinguishedName, KeyPair, PublicKey, Signature, Timestamp};

/// One party's channel identity.
#[derive(Clone)]
pub struct ChannelIdentity {
    /// The party's key pair.
    pub key: KeyPair,
    /// The party's certificate.
    pub cert: Certificate,
}

/// What one side requires of the peer, pinned from the SLA.
#[derive(Clone)]
pub struct PeerPin {
    /// The CA key that must have signed the peer certificate.
    pub ca_key: PublicKey,
    /// The expected peer DN.
    pub dn: DistinguishedName,
}

/// An authenticated message on an established channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Sealed {
    /// Application payload (canonical message bytes).
    pub payload: Vec<u8>,
    /// Per-direction sequence number.
    pub seq: u64,
    /// HMAC over (direction ‖ seq ‖ payload).
    pub mac: Digest,
}

impl qos_wire::Encode for Sealed {
    fn encode(&self, w: &mut qos_wire::Writer) {
        w.put_bytes(&self.payload);
        w.put_u64(self.seq);
        w.put_raw(&self.mac);
    }
}

impl qos_wire::Decode for Sealed {
    fn decode(r: &mut qos_wire::Reader<'_>) -> Result<Self, qos_wire::WireError> {
        let payload = r.get_bytes()?;
        let seq = r.get_u64()?;
        let mut mac = [0u8; DIGEST_LEN];
        for b in mac.iter_mut() {
            *b = r.get_u8()?;
        }
        Ok(Sealed { payload, seq, mac })
    }
}

/// One endpoint of an established secure channel: the peer's identity
/// and the session key. Messages are sealed and opened by the two
/// halves [`SecureChannel::split`] derives from it.
#[derive(Debug)]
pub struct SecureChannel {
    /// Peer's certificate, learned during the handshake.
    pub peer_cert: Certificate,
    session_key: Digest,
    /// 0 for the initiator, 1 for the responder.
    role: u8,
}

/// Run the mutual handshake in memory, producing one channel endpoint per
/// side: the message-based [`NetHandshake`] of both sides, each hello and
/// possession proof handed straight to the other.
///
/// `nonce` models the fresh randomness both TLS parties contribute; the
/// runtime supplies a unique value per connection.
pub fn handshake(
    initiator: &ChannelIdentity,
    responder: &ChannelIdentity,
    initiator_pins: &PeerPin,
    responder_pins: &PeerPin,
    nonce: u64,
    now: Timestamp,
) -> Result<(SecureChannel, SecureChannel), CoreError> {
    let hs_i = NetHandshake::new(initiator, true, nonce);
    let hs_r = NetHandshake::new(responder, false, nonce);
    let (cert_i, nonce_i) = hs_i.hello();
    let (cert_r, nonce_r) = hs_r.hello();
    let (sig_i, await_i) = hs_i.receive_hello(cert_r, nonce_r, initiator_pins, now)?;
    let (sig_r, await_r) = hs_r.receive_hello(cert_i, nonce_i, responder_pins, now)?;
    Ok((await_i.receive_auth(sig_r)?, await_r.receive_auth(sig_i)?))
}

fn validate_peer(cert: &Certificate, pins: &PeerPin, now: Timestamp) -> Result<(), CoreError> {
    cert.verify_signature(pins.ca_key)
        .map_err(CoreError::from)?;
    cert.check_validity(now).map_err(CoreError::from)?;
    if cert.tbs().subject != pins.dn {
        return Err(CoreError::Channel(format!(
            "peer presented certificate for {}, SLA pins {}",
            cert.tbs().subject,
            pins.dn
        )));
    }
    Ok(())
}

impl SecureChannel {
    /// The authenticated peer's DN.
    pub fn peer_dn(&self) -> &DistinguishedName {
        &self.peer_cert.tbs().subject
    }

    /// Derive the resumption master secret for this session:
    /// `HMAC(session_key, "qos-resume-master-v1")`.
    ///
    /// This is the long-lived secret a transport layer may cache (keyed
    /// by a server-issued ticket) to resume the channel later without
    /// re-running the signature handshake. It is a *separate PRF branch*
    /// from the session key and the per-direction MAC keys, so caching
    /// it never exposes live traffic keys. Note the modeled-crypto
    /// caveat inherited from the handshake itself (DESIGN.md §D10): the
    /// session key binds the public transcript rather than a key
    /// exchange, so resumption preserves — and cannot weaken — the
    /// channel's authentication and integrity model.
    pub fn resumption_secret(&self) -> Digest {
        hmac_sha256(&self.session_key, b"qos-resume-master-v1")
    }

    /// Rebuild a channel from a cached resumption master secret and two
    /// fresh nonce contributions, skipping the signature handshake.
    ///
    /// The new session key is `HMAC(master, "qos-resume-session-v1" ‖
    /// nonce_i ‖ nonce_r)`: both sides contribute freshness, so a
    /// resumed session never reuses MAC keys from the original (or any
    /// other resumed) session, and a replayed resume exchange yields
    /// keys the attacker cannot compute without `master`. Authentication
    /// is by possession of `master`, which only the two original
    /// handshake parties can derive — the transport proves possession
    /// explicitly with MACs before calling this.
    pub fn resume(
        peer_cert: Certificate,
        master: &Digest,
        nonce_i: u64,
        nonce_r: u64,
        initiator: bool,
    ) -> SecureChannel {
        let mut data = Vec::with_capacity(37);
        data.extend_from_slice(b"qos-resume-session-v1");
        data.extend_from_slice(&nonce_i.to_le_bytes());
        data.extend_from_slice(&nonce_r.to_le_bytes());
        SecureChannel {
            peer_cert,
            session_key: hmac_sha256(master, &data),
            role: if initiator { 0 } else { 1 },
        }
    }

    /// Split the channel into independent seal and open halves.
    ///
    /// Each half derives its *own* MAC key from the session key with the
    /// direction as the PRF distinguisher
    /// (`HMAC(session_key, "qos-channel-dir-v1" ‖ direction)`) and absorbs
    /// its HMAC key schedule here, once for the life of the half, so the
    /// two directions share no mutable state at all: a writer thread can
    /// seal while a reader thread opens, with no lock between them and
    /// no way for one direction's sequence space to perturb the other's.
    ///
    /// The security argument (DESIGN.md §D9): reflection is impossible
    /// because a message sealed under the direction-`d` key can never
    /// verify under the direction-`1-d` key (the direction byte
    /// additionally remains in the MAC input), and replay/reorder
    /// protection is a strict per-direction sequence check.
    ///
    /// The peer certificate is consumed; read identity data
    /// ([`SecureChannel::peer_dn`]) before splitting.
    pub fn split(self) -> (SealHalf, OpenHalf) {
        let send_dir = self.role;
        let recv_dir = 1 - self.role;
        (
            SealHalf {
                key: HmacKey::new(&direction_key(&self.session_key, send_dir)),
                direction: send_dir,
                seq: 0,
            },
            OpenHalf {
                key: HmacKey::new(&direction_key(&self.session_key, recv_dir)),
                direction: recv_dir,
                seq: 0,
            },
        )
    }
}

/// MAC over one channel message: `HMAC(key, direction ‖ seq ‖ payload)`.
///
/// RFC 2104 from the key's absorbed pad blocks, with incremental hash
/// updates (D15): byte-identical to
/// `hmac_sha256(key, direction ‖ seq ‖ payload)` without materializing
/// the concatenation or re-deriving the key schedule, so sealing and
/// opening are allocation-free — the payload is hashed wherever it
/// already lives.
fn mac_message(key: &HmacKey, direction: u8, seq: u64, payload: &[u8]) -> Digest {
    let mut head = [direction; 9];
    head[1..].copy_from_slice(&seq.to_le_bytes());
    let mut inner = key.start();
    inner.update(&head);
    inner.update(payload);
    key.finish(inner)
}

/// Per-direction MAC key: `HMAC(session_key, label ‖ direction)`.
fn direction_key(session_key: &Digest, direction: u8) -> Digest {
    let mut data = Vec::with_capacity(19);
    data.extend_from_slice(b"qos-channel-dir-v1");
    data.push(direction);
    hmac_sha256(session_key, &data)
}

/// The sealing (outbound) half of a split channel: owns the outbound
/// direction's derived key and sequence counter, nothing else. See
/// [`SecureChannel::split`].
#[derive(Debug)]
pub struct SealHalf {
    key: HmacKey,
    direction: u8,
    seq: u64,
}

impl SealHalf {
    /// Seal `payload` where it already lives (D15): the MAC is computed
    /// over the slice with no plaintext copy and no allocation. The
    /// caller writes the `Sealed` wire framing around the bytes it
    /// already holds.
    pub fn seal_in_place(&mut self, payload: &[u8]) -> (u64, Digest) {
        let seq = self.seq;
        self.seq += 1;
        (seq, mac_message(&self.key, self.direction, seq, payload))
    }

    /// Next sequence number to be issued.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }
}

/// The opening (inbound) half of a split channel: owns the inbound
/// direction's derived key and sequence counter. See
/// [`SecureChannel::split`].
#[derive(Debug)]
pub struct OpenHalf {
    key: HmacKey,
    direction: u8,
    seq: u64,
}

impl OpenHalf {
    /// Verify a sealed message where its bytes already live (D15): the
    /// MAC is checked over the payload slice (e.g. a view into a pooled
    /// read chunk) with no plaintext copy, then the strict sequence
    /// check runs. On success the caller keeps using its slice as the
    /// authenticated plaintext.
    pub fn open_in_place(
        &mut self,
        payload: &[u8],
        seq: u64,
        mac: &Digest,
    ) -> Result<(), CoreError> {
        let expect = mac_message(&self.key, self.direction, seq, payload);
        if !ct_eq(&expect, mac) {
            return Err(CoreError::Channel("MAC verification failed".into()));
        }
        if seq != self.seq {
            return Err(CoreError::Channel(format!(
                "out-of-order message: expected seq {}, got {}",
                self.seq, seq
            )));
        }
        self.seq += 1;
        Ok(())
    }

    /// Next sequence number expected.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }
}

/// Borrowed view of a [`Sealed`] message parsed straight from frame
/// bytes (D15) — the zero-copy sibling of decoding `Sealed` through
/// [`qos_wire::Decode`]. The payload stays a slice into the receive
/// buffer; only the fixed-size seq and MAC are copied out.
#[derive(Debug, Clone, Copy)]
pub struct SealedRef<'a> {
    /// The MACed payload, borrowed from the receive buffer.
    pub payload: &'a [u8],
    /// Channel sequence number.
    pub seq: u64,
    /// The transmitted MAC.
    pub mac: Digest,
}

impl<'a> SealedRef<'a> {
    /// Parse the canonical `Sealed` encoding from `r` without copying
    /// the payload. Accepts exactly the bytes [`Sealed`]'s decoder
    /// accepts.
    pub fn parse(r: &mut qos_wire::Reader<'a>) -> Result<Self, qos_wire::WireError> {
        let payload = r.get_bytes_ref()?;
        let seq = r.get_u64()?;
        let mut mac = [0u8; DIGEST_LEN];
        for b in mac.iter_mut() {
            *b = r.get_u8()?;
        }
        Ok(SealedRef { payload, seq, mac })
    }
}

/// Constant-time digest comparison: the running time is independent of
/// the position of the first differing byte, so an attacker probing a
/// channel over a real network cannot binary-search a valid MAC one
/// byte at a time through response timing.
#[inline(never)]
fn ct_eq(a: &Digest, b: &Digest) -> bool {
    let mut diff = 0u8;
    for i in 0..DIGEST_LEN {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

/// One side of the mutual handshake, decomposed into messages.
///
/// Peered daemons exchange two messages per side: a *hello* carrying the
/// certificate and a fresh nonce contribution, then an *auth* proving
/// possession of the certified key by signing the joint transcript
/// `H("qos-net-handshake-v1" ‖ cert_i ‖ cert_r ‖ nonce_i ‖ nonce_r)`.
/// Both sides contribute a nonce, so neither can replay a transcript the
/// other has signed before. The session key is `H("qos-channel-v1" ‖
/// transcript)`. [`handshake`] runs both sides in one address space.
pub struct NetHandshake {
    cert: Certificate,
    key: KeyPair,
    initiator: bool,
    nonce: u64,
}

impl NetHandshake {
    /// Start a handshake as the connecting (`initiator = true`) or
    /// accepting side. `nonce` must be fresh per connection attempt.
    pub fn new(identity: &ChannelIdentity, initiator: bool, nonce: u64) -> Self {
        Self {
            cert: identity.cert.clone(),
            key: identity.key.clone(),
            initiator,
            nonce,
        }
    }

    /// The hello to transmit: our certificate and nonce contribution.
    pub fn hello(&self) -> (Certificate, u64) {
        (self.cert.clone(), self.nonce)
    }

    /// Consume the peer's hello: validate its certificate against the
    /// SLA `pin`, derive the joint transcript, and produce our
    /// possession proof plus the state that awaits the peer's.
    pub fn receive_hello(
        self,
        peer_cert: Certificate,
        peer_nonce: u64,
        pin: &PeerPin,
        now: Timestamp,
    ) -> Result<(Signature, AwaitAuth), CoreError> {
        validate_peer(&peer_cert, pin, now)?;
        let transcript = if self.initiator {
            net_transcript(&self.cert, &peer_cert, self.nonce, peer_nonce)
        } else {
            net_transcript(&peer_cert, &self.cert, peer_nonce, self.nonce)
        };
        let sig = self.key.sign(&transcript);
        let mut h = Sha256::new();
        h.update(b"qos-channel-v1");
        h.update(&transcript);
        let session_key = h.finalize();
        Ok((
            sig,
            AwaitAuth {
                transcript,
                session_key,
                peer_cert,
                role: if self.initiator { 0 } else { 1 },
            },
        ))
    }
}

/// Handshake state after the hellos crossed, awaiting the peer's
/// possession proof.
pub struct AwaitAuth {
    transcript: Vec<u8>,
    session_key: Digest,
    peer_cert: Certificate,
    role: u8,
}

impl AwaitAuth {
    /// Verify the peer's signature over the joint transcript and open
    /// the channel.
    pub fn receive_auth(self, sig: Signature) -> Result<SecureChannel, CoreError> {
        if !self
            .peer_cert
            .tbs()
            .subject_public_key
            .verify(&self.transcript, &sig)
        {
            return Err(CoreError::Channel(format!(
                "peer {} failed possession proof",
                self.peer_cert.tbs().subject
            )));
        }
        Ok(SecureChannel {
            peer_cert: self.peer_cert,
            session_key: self.session_key,
            role: self.role,
        })
    }
}

fn net_transcript(
    cert_i: &Certificate,
    cert_r: &Certificate,
    nonce_i: u64,
    nonce_r: u64,
) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(b"qos-net-handshake-v1");
    h.update(&qos_wire::to_bytes(cert_i));
    h.update(&qos_wire::to_bytes(cert_r));
    h.update(&nonce_i.to_le_bytes());
    h.update(&nonce_r.to_le_bytes());
    // Handshake-time only — never on the sealed-frame hot path.
    #[allow(clippy::disallowed_methods)]
    h.finalize().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_crypto::{CertificateAuthority, Validity};

    struct Fix {
        a: ChannelIdentity,
        b: ChannelIdentity,
        ca_key: PublicKey,
    }

    fn fix() -> Fix {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        let ka = KeyPair::from_seed(b"bb-a");
        let kb = KeyPair::from_seed(b"bb-b");
        let cert_a = ca.issue_identity(
            DistinguishedName::broker("domain-a"),
            ka.public(),
            Validity::unbounded(),
        );
        let cert_b = ca.issue_identity(
            DistinguishedName::broker("domain-b"),
            kb.public(),
            Validity::unbounded(),
        );
        Fix {
            a: ChannelIdentity {
                key: ka,
                cert: cert_a,
            },
            b: ChannelIdentity {
                key: kb,
                cert: cert_b,
            },
            ca_key: ca.public_key(),
        }
    }

    fn pins(f: &Fix, dn: &str) -> PeerPin {
        PeerPin {
            ca_key: f.ca_key,
            dn: DistinguishedName::broker(dn),
        }
    }

    /// Seal an owned payload into a whole [`Sealed`] message.
    fn seal(half: &mut SealHalf, payload: Vec<u8>) -> Sealed {
        let (seq, mac) = half.seal_in_place(&payload);
        Sealed { payload, seq, mac }
    }

    /// Open a whole [`Sealed`] message, handing back its payload.
    fn open(half: &mut OpenHalf, msg: Sealed) -> Result<Vec<u8>, CoreError> {
        half.open_in_place(&msg.payload, msg.seq, &msg.mac)?;
        Ok(msg.payload)
    }

    #[test]
    fn handshake_and_message_exchange() {
        let f = fix();
        let (a, b) = handshake(
            &f.a,
            &f.b,
            &pins(&f, "domain-b"),
            &pins(&f, "domain-a"),
            42,
            Timestamp(0),
        )
        .unwrap();
        // Both sides learned the peer's certificate.
        assert_eq!(a.peer_dn(), &DistinguishedName::broker("domain-b"));
        assert_eq!(b.peer_dn(), &DistinguishedName::broker("domain-a"));
        // Bidirectional authenticated messages.
        let (mut a_seal, mut a_open) = a.split();
        let (mut b_seal, mut b_open) = b.split();
        let m1 = seal(&mut a_seal, b"hello".to_vec());
        assert_eq!(open(&mut b_open, m1).unwrap(), b"hello");
        let m2 = seal(&mut b_seal, b"world".to_vec());
        assert_eq!(open(&mut a_open, m2).unwrap(), b"world");
    }

    #[test]
    fn wrong_pinned_dn_fails_handshake() {
        let f = fix();
        let err = handshake(
            &f.a,
            &f.b,
            &pins(&f, "domain-x"), // initiator expects domain-x
            &pins(&f, "domain-a"),
            1,
            Timestamp(0),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Channel(_)));
    }

    #[test]
    fn certificate_not_signed_by_pinned_ca_fails() {
        let f = fix();
        // An impostor CA issues a certificate for domain-b's DN.
        let mut rogue = CertificateAuthority::new(
            DistinguishedName::authority("Rogue"),
            KeyPair::from_seed(b"rogue"),
        );
        let imp_key = KeyPair::from_seed(b"imp");
        let imp = ChannelIdentity {
            cert: rogue.issue_identity(
                DistinguishedName::broker("domain-b"),
                imp_key.public(),
                Validity::unbounded(),
            ),
            key: imp_key,
        };
        let err = handshake(
            &f.a,
            &imp,
            &pins(&f, "domain-b"),
            &pins(&f, "domain-a"),
            1,
            Timestamp(0),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Crypto(_)));
    }

    #[test]
    fn stolen_certificate_without_key_fails_possession() {
        let f = fix();
        // Mallory presents B's real certificate but holds a different key.
        let mallory = ChannelIdentity {
            cert: f.b.cert.clone(),
            key: KeyPair::from_seed(b"mallory"),
        };
        let err = handshake(
            &f.a,
            &mallory,
            &pins(&f, "domain-b"),
            &pins(&f, "domain-a"),
            1,
            Timestamp(0),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Channel(_)), "{err}");
    }

    #[test]
    fn tampered_payload_rejected() {
        let f = fix();
        let (a, b) = handshake(
            &f.a,
            &f.b,
            &pins(&f, "domain-b"),
            &pins(&f, "domain-a"),
            7,
            Timestamp(0),
        )
        .unwrap();
        let (mut a_seal, _) = a.split();
        let (_, mut b_open) = b.split();
        let mut m = seal(&mut a_seal, b"reserve 10".to_vec());
        m.payload = b"reserve 99".to_vec();
        assert!(open(&mut b_open, m).is_err());
    }

    /// Drive the message-based handshake the way two sockets would.
    fn net_handshake(f: &Fix) -> Result<(SecureChannel, SecureChannel), CoreError> {
        let hs_a = NetHandshake::new(&f.a, true, 11);
        let hs_b = NetHandshake::new(&f.b, false, 22);
        let (cert_a, nonce_a) = hs_a.hello();
        let (cert_b, nonce_b) = hs_b.hello();
        let (sig_a, await_a) =
            hs_a.receive_hello(cert_b, nonce_b, &pins(f, "domain-b"), Timestamp(0))?;
        let (sig_b, await_b) =
            hs_b.receive_hello(cert_a, nonce_a, &pins(f, "domain-a"), Timestamp(0))?;
        Ok((await_a.receive_auth(sig_b)?, await_b.receive_auth(sig_a)?))
    }

    #[test]
    fn net_handshake_rejects_stolen_certificate() {
        let f = fix();
        // Mallory presents B's certificate but signs with a different key.
        let mallory = ChannelIdentity {
            cert: f.b.cert.clone(),
            key: KeyPair::from_seed(b"mallory"),
        };
        let hs_a = NetHandshake::new(&f.a, true, 1);
        let (cert_m, nonce_m) = NetHandshake::new(&mallory, false, 2).hello();
        let mallory_sig = mallory.key.sign(b"whatever");
        let (_, await_a) = hs_a
            .receive_hello(cert_m, nonce_m, &pins(&f, "domain-b"), Timestamp(0))
            .unwrap();
        assert!(matches!(
            await_a.receive_auth(mallory_sig),
            Err(CoreError::Channel(_))
        ));
    }

    #[test]
    fn net_handshake_rejects_unpinned_dn() {
        let f = fix();
        let hs_a = NetHandshake::new(&f.a, true, 1);
        let (cert_b, nonce_b) = NetHandshake::new(&f.b, false, 2).hello();
        assert!(matches!(
            hs_a.receive_hello(cert_b, nonce_b, &pins(&f, "domain-x"), Timestamp(0)),
            Err(CoreError::Channel(_))
        ));
    }

    #[test]
    fn sealed_frames_round_trip_on_the_wire() {
        let f = fix();
        let (a, b) = net_handshake(&f).unwrap();
        let (mut a_seal, _) = a.split();
        let (_, mut b_open) = b.split();
        let sealed = seal(&mut a_seal, b"framed payload".to_vec());
        let bytes = qos_wire::to_bytes(&sealed);
        let back = qos_wire::from_bytes::<Sealed>(&bytes).unwrap();
        assert_eq!(back, sealed);
        assert_eq!(open(&mut b_open, back).unwrap(), b"framed payload");
    }

    #[test]
    fn split_halves_interoperate_across_ends() {
        let f = fix();
        let (a, b) = net_handshake(&f).unwrap();
        assert_eq!(a.peer_dn(), &DistinguishedName::broker("domain-b"));
        assert_eq!(b.peer_dn(), &DistinguishedName::broker("domain-a"));
        let (mut a_seal, mut a_open) = a.split();
        let (mut b_seal, mut b_open) = b.split();
        let m1 = seal(&mut a_seal, b"over the wire".to_vec());
        assert_eq!(open(&mut b_open, m1).unwrap(), b"over the wire");
        let m2 = seal(&mut b_seal, b"and back".to_vec());
        assert_eq!(open(&mut a_open, m2).unwrap(), b"and back");
        // Sequence spaces are fully independent per direction.
        for i in 0..5u8 {
            let m = seal(&mut a_seal, vec![i]);
            assert_eq!(open(&mut b_open, m).unwrap(), vec![i]);
        }
        assert_eq!(a_seal.next_seq(), 6);
        assert_eq!(b_seal.next_seq(), 1);
    }

    #[test]
    fn split_reflection_rejected() {
        // A sealed message bounced back to its sender cannot open: the
        // two directions use distinct derived keys.
        let f = fix();
        let (a, _b) = net_handshake(&f).unwrap();
        let (mut a_seal, mut a_open) = a.split();
        let m = seal(&mut a_seal, b"x".to_vec());
        assert!(open(&mut a_open, m).is_err());
    }

    #[test]
    fn split_uses_per_direction_keys() {
        // The same payload at the same sequence number MACs differently
        // in the two directions of one session.
        let f = fix();
        let (a, b) = net_handshake(&f).unwrap();
        let (mut a_seal, _) = a.split();
        let (mut b_seal, _) = b.split();
        let m_ab = seal(&mut a_seal, b"same bytes".to_vec());
        let m_ba = seal(&mut b_seal, b"same bytes".to_vec());
        assert_eq!(m_ab.seq, m_ba.seq);
        assert_ne!(m_ab.mac, m_ba.mac);
    }

    #[test]
    fn split_replay_and_reorder_rejected() {
        let f = fix();
        let (a, b) = net_handshake(&f).unwrap();
        let (mut a_seal, _) = a.split();
        let (_, mut b_open) = b.split();
        let m0 = seal(&mut a_seal, b"zero".to_vec());
        let m1 = seal(&mut a_seal, b"one".to_vec());
        assert!(open(&mut b_open, m1.clone()).is_err(), "reorder detected");
        assert!(open(&mut b_open, m0.clone()).is_ok());
        assert!(open(&mut b_open, m0).is_err(), "replay detected");
        assert!(open(&mut b_open, m1).is_ok());
    }

    /// RFC 2104 written out over one-shot hashes of materialized
    /// buffers: `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`, no midstates.
    fn hmac_by_the_book(key: &[u8], msg: &[u8]) -> Digest {
        use qos_crypto::sha256::sha256;
        assert!(key.len() <= 64);
        let mut block = [0u8; 64];
        block[..key.len()].copy_from_slice(key);
        let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(msg);
        let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&sha256(&inner));
        sha256(&outer)
    }

    #[test]
    fn incremental_mac_matches_concatenated_hmac() {
        // mac_message must stay byte-identical to
        // HMAC(key, direction ‖ seq ‖ payload) over the materialized
        // concatenation — neither in-place sealing nor a key schedule
        // absorbed once per half may change the wire MAC. The keys and
        // data of RFC 4231 cases 1 and 2 ride along as payloads.
        let digest_key = qos_crypto::sha256::sha256(b"a session's direction key");
        for (key, direction, seq, payload) in [
            (&digest_key[..], 0u8, 0u64, &b""[..]),
            (&digest_key[..], 1, 1, b"x"),
            (&digest_key[..], 0, u64::MAX, &[0xAB; 4096][..]),
            (&[0x0b; 20][..], 1, 7, b"Hi There"),
            (b"Jefe", 0, 1 << 40, b"what do ya want for nothing?"),
        ] {
            let mut concat = Vec::with_capacity(payload.len() + 9);
            concat.push(direction);
            concat.extend_from_slice(&seq.to_le_bytes());
            concat.extend_from_slice(payload);
            let half = HmacKey::new(key);
            // One absorbed key, many frames.
            for _ in 0..2 {
                let mac = mac_message(&half, direction, seq, payload);
                assert_eq!(mac, hmac_sha256(key, &concat));
                assert_eq!(mac, hmac_by_the_book(key, &concat));
            }
        }
    }

    #[test]
    fn in_place_seal_open_matches_copying_api() {
        let f = fix();
        let (a1, b1) = net_handshake(&f).unwrap();
        let (mut s1, _) = a1.split();
        let (_, mut o1) = b1.split();
        for i in 0..4u8 {
            let payload = vec![i; 64 + i as usize];
            let (seq, mac) = s1.seal_in_place(&payload);
            assert_eq!(seq, i as u64);
            // Verify without ever owning the payload.
            o1.open_in_place(&payload, seq, &mac).unwrap();
        }
        // The two halves stay in lockstep for a whole `Sealed` message.
        let msg = seal(&mut s1, b"owned".to_vec());
        assert_eq!(open(&mut o1, msg).unwrap(), b"owned");
    }

    #[test]
    fn open_in_place_rejects_bad_mac_and_replay() {
        let f = fix();
        let (a1, b1) = net_handshake(&f).unwrap();
        let (mut s1, _) = a1.split();
        let (_, mut o1) = b1.split();
        let payload = b"frame".to_vec();
        let (seq, mac) = s1.seal_in_place(&payload);
        let mut bad = mac;
        bad[0] ^= 1;
        assert!(o1.open_in_place(&payload, seq, &bad).is_err());
        o1.open_in_place(&payload, seq, &mac).unwrap();
        // Replaying the same seq must fail the ordering check.
        assert!(o1.open_in_place(&payload, seq, &mac).is_err());
    }

    #[test]
    fn sealed_ref_parses_canonical_sealed_bytes() {
        let f = fix();
        let (a1, _) = net_handshake(&f).unwrap();
        let (mut s1, _) = a1.split();
        let msg = seal(&mut s1, b"borrowed view".to_vec());
        let bytes = qos_wire::to_bytes(&msg);
        let mut r = qos_wire::Reader::new(&bytes);
        let sref = SealedRef::parse(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(sref.payload, &msg.payload[..]);
        assert_eq!(sref.seq, msg.seq);
        assert_eq!(sref.mac, msg.mac);
    }

    #[test]
    fn resumed_channels_interoperate_with_fresh_keys() {
        let f = fix();
        let (a, b) = net_handshake(&f).unwrap();
        // Both ends derive the same master secret from the live session.
        let master_a = a.resumption_secret();
        let master_b = b.resumption_secret();
        assert_eq!(master_a, master_b);
        let peer_of_a = a.peer_cert.clone();
        let peer_of_b = b.peer_cert.clone();
        let (mut a2_seal, mut a2_open) =
            SecureChannel::resume(peer_of_a.clone(), &master_a, 91, 17, true).split();
        let (mut b2_seal, mut b2_open) =
            SecureChannel::resume(peer_of_b.clone(), &master_b, 91, 17, false).split();
        let m = seal(&mut a2_seal, b"resumed".to_vec());
        assert_eq!(open(&mut b2_open, m).unwrap(), b"resumed");
        let m = seal(&mut b2_seal, b"back".to_vec());
        assert_eq!(open(&mut a2_open, m).unwrap(), b"back");
        // Fresh nonces ⇒ fresh key schedule: the same payload/seq MACs
        // differently than on the original session or another resumption.
        let (mut a3, _) = SecureChannel::resume(peer_of_a, &master_a, 92, 17, true).split();
        let (mut a4, _) = SecureChannel::resume(peer_of_b, &master_b, 91, 18, true).split();
        let s3 = seal(&mut a3, b"payload".to_vec());
        let s4 = seal(&mut a4, b"payload".to_vec());
        assert_ne!(s3.mac, s4.mac);
    }

    #[test]
    fn resumption_with_wrong_master_cannot_open() {
        let f = fix();
        let (a, b) = net_handshake(&f).unwrap();
        let master = a.resumption_secret();
        let mut wrong = master;
        wrong[0] ^= 1;
        let (mut good, _) = SecureChannel::resume(a.peer_cert.clone(), &master, 5, 6, true).split();
        let (_, mut bad) = SecureChannel::resume(b.peer_cert.clone(), &wrong, 5, 6, false).split();
        let m = seal(&mut good, b"x".to_vec());
        assert!(open(&mut bad, m).is_err());
    }
}
