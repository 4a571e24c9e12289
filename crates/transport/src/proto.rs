//! The inter-daemon wire protocol: what travels inside each frame.
//!
//! Two `Hello`s and two `Auth`s (or a ticket resumption) establish the
//! mutually authenticated channel
//! ([`qos_core::channel::NetHandshake`]); after that, every frame is a
//! [`Sealed`] envelope whose MAC and sequence number the receiving
//! [`OpenHalf`](qos_core::channel::OpenHalf) verifies before the
//! payload is decoded as a [`SignalMessage`](qos_core::SignalMessage).
// Zero-alloc hot-path module (DESIGN.md §D15): the dedicated CI lint
// step loads .clippy-hotpath/clippy.toml, under which this attribute
// rejects un-annotated Vec::new / slice::to_vec in this module.
#![deny(clippy::disallowed_methods)]

use qos_core::channel::Sealed;
use qos_crypto::{Certificate, Signature};

/// One frame's body on a peering connection.
#[derive(Debug, Clone, PartialEq)]
pub enum PeerMsg {
    /// Handshake step 1: certificate + fresh nonce contribution.
    Hello {
        /// The sender's CA-issued broker certificate.
        cert: Certificate,
        /// The sender's nonce contribution to the transcript.
        nonce: u64,
    },
    /// Handshake step 2: possession proof over the joint transcript.
    Auth {
        /// Signature by the certified key.
        sig: Signature,
    },
    /// An authenticated signalling frame on the established channel.
    Frame(Sealed),
    /// Resumption step 1, sent *instead of* `Hello` by a reconnecting
    /// initiator: a server-issued ticket, a fresh nonce, and
    /// `HMAC(master, "qos-resume-initiator-v1" ‖ ticket ‖ nonce)`
    /// proving possession of the cached master secret.
    ResumeHello {
        /// Opaque ticket bytes exactly as issued.
        ticket: Vec<u8>,
        /// The initiator's fresh nonce contribution.
        nonce: u64,
        /// Possession proof over ticket and nonce.
        mac: Vec<u8>,
    },
    /// Resumption step 2: the responder accepts, contributing its own
    /// nonce and `HMAC(master, "qos-resume-responder-v1" ‖ nonce_i ‖
    /// nonce_r)`. A responder that *rejects* a resume sends its `Hello`
    /// instead, steering the connection into a full handshake.
    ResumeAccept {
        /// The responder's fresh nonce contribution.
        nonce: u64,
        /// Possession proof over both nonces.
        mac: Vec<u8>,
    },
    /// Issued by the responder after a successful *full* handshake: the
    /// ticket the initiator may present to resume this pairing later.
    Ticket {
        /// Opaque ticket bytes to cache alongside the master secret.
        ticket: Vec<u8>,
    },
}

qos_wire::impl_wire_enum!(PeerMsg {
    0 => Hello { cert, nonce },
    1 => Auth { sig },
    2 => Frame(t0: Sealed),
    3 => ResumeHello { ticket, nonce, mac },
    4 => ResumeAccept { nonce, mac },
    5 => Ticket { ticket },
});

/// Wire tag of [`PeerMsg::Frame`] — the only message kind legal on an
/// established session. The write path hand-encodes it and the read
/// path peeks it before the borrowed `SealedRef` parse.
pub(crate) const FRAME_TAG: u8 = 2;

/// What [`encode_sealed_frame_into`] adds around a payload: the tag, the
/// payload length, the seq and the MAC.
pub(crate) const SEAL_OVERHEAD: usize = 1 + 4 + 8 + 32;

/// Append the canonical encoding of `PeerMsg::Frame(Sealed { payload,
/// seq, mac })` to `out` without materialising a `Sealed` (DESIGN.md
/// §D15: the write path seals in place, so the payload is borrowed and
/// never copied into an owned message). Byte-identical to
/// `qos_wire::encode_into(&PeerMsg::Frame(..), out)` — pinned by test.
pub(crate) fn encode_sealed_frame_into(
    out: &mut Vec<u8>,
    payload: &[u8],
    seq: u64,
    mac: &[u8; 32],
) {
    out.push(FRAME_TAG);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(mac);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_msg_round_trips() {
        let msg = PeerMsg::Frame(Sealed {
            payload: vec![1, 2, 3, 4],
            seq: 9,
            mac: [7u8; 32],
        });
        let bytes = qos_wire::to_bytes(&msg);
        assert_eq!(qos_wire::from_bytes::<PeerMsg>(&bytes).unwrap(), msg);
    }

    #[test]
    fn hand_encoded_frame_matches_canonical_encoding() {
        for (payload, seq) in [
            (Vec::new(), 0u64),
            (vec![1, 2, 3, 4], 9),
            (vec![0xAB; 4096], u64::MAX),
        ] {
            let mac = [0x5Au8; 32];
            let canonical = qos_wire::to_bytes(&PeerMsg::Frame(Sealed {
                payload: payload.clone(),
                seq,
                mac,
            }));
            let mut hand = Vec::new();
            encode_sealed_frame_into(&mut hand, &payload, seq, &mac);
            assert_eq!(hand, canonical);
            assert_eq!(hand.len(), payload.len() + SEAL_OVERHEAD);
        }
    }

    #[test]
    fn garbage_rejected_without_panic() {
        assert!(qos_wire::from_bytes::<PeerMsg>(&[99, 1, 2]).is_err());
        assert!(qos_wire::from_bytes::<PeerMsg>(&[]).is_err());
    }

    #[test]
    fn resume_messages_round_trip() {
        for msg in [
            PeerMsg::ResumeHello {
                ticket: vec![9; 56],
                nonce: 0xdead_beef,
                mac: vec![3; 32],
            },
            PeerMsg::ResumeAccept {
                nonce: 42,
                mac: vec![5; 32],
            },
            PeerMsg::Ticket {
                ticket: vec![1, 2, 3],
            },
        ] {
            let bytes = qos_wire::to_bytes(&msg);
            assert_eq!(qos_wire::from_bytes::<PeerMsg>(&bytes).unwrap(), msg);
        }
    }
}
