//! Session-resumption tickets for the peering fabric.
//!
//! A full peering handshake costs two Schnorr signatures and two
//! verifications per side. Peered daemons reconnect to the *same* peers
//! constantly (process restarts, transient network faults, idle
//! timeouts), so the steady-state fast path caches the outcome: after a
//! full handshake, the accepting side hands the initiator an opaque
//! *ticket* bound to the session's resumption master secret
//! ([`SecureChannel::resumption_secret`]). A reconnecting initiator
//! presents the ticket plus an HMAC possession proof, both sides mix
//! fresh nonces, and the channel keys are re-derived by PRF — zero
//! signature operations on either side.
//!
//! The ticket itself is `id ‖ expires ‖ HMAC(ticket_key, "qos-ticket-v1"
//! ‖ id ‖ expires)`. The MAC gives the acceptor a cheap first-pass
//! filter, but the authoritative state is the issuer's bounded in-memory
//! store: redeeming an unknown, expired, or evicted id fails and the
//! connection falls back to a full handshake. Tickets are multi-use
//! within their lifetime — every resumption mixes fresh nonces, so key
//! material never repeats. By default the store never leaves the
//! process, so a restarted acceptor simply re-issues tickets from its
//! next full handshake; when a durable ledger is attached
//! ([`TicketIssuer::set_store`], DESIGN.md §D13) the MAC key and every
//! issued entry are journalled, and a restarted acceptor keeps honouring
//! outstanding tickets — reconnects across a crash stay zero-Schnorr.
//!
//! [`SecureChannel::resumption_secret`]: qos_core::channel::SecureChannel::resumption_secret

use qos_crypto::sha256::{hmac_sha256, Digest, Sha256, DIGEST_LEN};
use qos_crypto::{Certificate, Timestamp};
use qos_storage::{LedgerRecord, SharedStore, SnapTicket};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Length of the random ticket identifier.
pub const TICKET_ID_LEN: usize = 16;
/// Total ticket length: id ‖ expires(u64 LE) ‖ MAC.
pub const TICKET_LEN: usize = TICKET_ID_LEN + 8 + DIGEST_LEN;

/// Domain-separation label for the ticket MAC.
const TICKET_LABEL: &[u8] = b"qos-ticket-v1";
/// Label for the initiator's resume possession proof.
const INITIATOR_LABEL: &[u8] = b"qos-resume-initiator-v1";
/// Label for the responder's resume possession proof.
const RESPONDER_LABEL: &[u8] = b"qos-resume-responder-v1";

/// The initiator's proof of master-secret possession:
/// `HMAC(master, "qos-resume-initiator-v1" ‖ ticket ‖ nonce)`.
pub fn initiator_mac(master: &Digest, ticket: &[u8], nonce: u64) -> Digest {
    let mut data = Vec::with_capacity(INITIATOR_LABEL.len() + ticket.len() + 8);
    data.extend_from_slice(INITIATOR_LABEL);
    data.extend_from_slice(ticket);
    data.extend_from_slice(&nonce.to_le_bytes());
    hmac_sha256(master, &data)
}

/// The responder's proof, binding both nonce contributions:
/// `HMAC(master, "qos-resume-responder-v1" ‖ nonce_i ‖ nonce_r)`.
pub fn responder_mac(master: &Digest, nonce_i: u64, nonce_r: u64) -> Digest {
    let mut data = Vec::with_capacity(RESPONDER_LABEL.len() + 16);
    data.extend_from_slice(RESPONDER_LABEL);
    data.extend_from_slice(&nonce_i.to_le_bytes());
    data.extend_from_slice(&nonce_r.to_le_bytes());
    hmac_sha256(master, &data)
}

/// Constant-time digest comparison (same rationale as the channel MAC
/// check: no byte-position timing oracle).
pub fn mac_eq(a: &Digest, b: &[u8]) -> bool {
    if b.len() != DIGEST_LEN {
        return false;
    }
    let mut diff = 0u8;
    for i in 0..DIGEST_LEN {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

/// What the *initiator* caches per peer after a full handshake: the
/// opaque ticket plus the secrets needed to redeem it.
#[derive(Debug, Clone)]
pub struct ResumeTicket {
    /// Opaque ticket bytes, presented verbatim on reconnect.
    pub ticket: Vec<u8>,
    /// The session's resumption master secret.
    pub master: Digest,
    /// The peer certificate learned in the full handshake; re-validated
    /// (expiry, pinned DN) before every resume attempt.
    pub peer_cert: Certificate,
}

struct TicketEntry {
    master: Digest,
    peer_cert: Certificate,
    expires: Timestamp,
}

/// The *acceptor's* stateful ticket store.
pub struct TicketIssuer {
    key: Digest,
    ttl_secs: u64,
    cap: usize,
    counter: AtomicU64,
    store: Mutex<HashMap<[u8; TICKET_ID_LEN], TicketEntry>>,
    ledger: Mutex<Option<SharedStore>>,
}

impl TicketIssuer {
    /// Create an issuer whose tickets live `ttl_secs` and whose store
    /// holds at most `cap` outstanding tickets. The MAC key is derived
    /// from process-local entropy; it never needs to survive a restart
    /// (the store would be gone anyway).
    pub fn new(ttl_secs: u64, cap: usize) -> Self {
        let mut h = Sha256::new();
        h.update(b"qos-ticket-key-v1");
        h.update(&crate::session::fresh_nonce().to_le_bytes());
        h.update(&crate::session::fresh_nonce().to_le_bytes());
        Self::with_key(h.finalize(), ttl_secs, cap)
    }

    /// Create an issuer with an explicit MAC key (deterministic tests).
    pub fn with_key(key: Digest, ttl_secs: u64, cap: usize) -> Self {
        Self {
            key,
            ttl_secs,
            cap: cap.max(1),
            counter: AtomicU64::new(1),
            store: Mutex::new(HashMap::new()),
            ledger: Mutex::new(None),
        }
    }

    /// The MAC key, for persisting via the durable ledger so a restarted
    /// acceptor validates tickets it issued before the crash.
    pub fn key_bytes(&self) -> Vec<u8> {
        self.key.to_vec()
    }

    /// Attach the durable ledger. Every subsequently issued ticket is
    /// appended as a [`LedgerRecord::TicketIssued`] record; the caller is
    /// responsible for journalling the key itself (once, at first boot).
    pub fn set_store(&self, store: SharedStore) {
        *self.ledger.lock().unwrap() = Some(store);
    }

    /// Re-insert ticket entries recovered from the ledger. Malformed
    /// entries (wrong id/master length, undecodable certificate) are
    /// skipped — their holders fall back to a full handshake. The
    /// capacity bound is enforced afterwards, newest-expiry entries win.
    pub fn restore_tickets(&self, tickets: &[SnapTicket]) {
        let mut store = self.store.lock().unwrap();
        for t in tickets {
            let (Ok(id), Ok(master)) = (
                <[u8; TICKET_ID_LEN]>::try_from(t.id.as_slice()),
                <Digest>::try_from(t.master.as_slice()),
            ) else {
                continue;
            };
            let Ok(peer_cert) = qos_wire::from_bytes::<Certificate>(&t.peer_cert) else {
                continue;
            };
            store.insert(
                id,
                TicketEntry {
                    master,
                    peer_cert,
                    expires: Timestamp(t.expires),
                },
            );
        }
        while store.len() > self.cap {
            let Some(oldest) = store.iter().min_by_key(|(_, e)| e.expires).map(|(k, _)| *k) else {
                break;
            };
            store.remove(&oldest);
        }
    }

    /// Export live entries for a snapshot, id-ordered for determinism.
    pub fn export_tickets(&self) -> Vec<SnapTicket> {
        let store = self.store.lock().unwrap();
        let mut out: Vec<SnapTicket> = store
            .iter()
            .map(|(id, e)| SnapTicket {
                id: id.to_vec(),
                master: e.master.to_vec(),
                expires: e.expires.0,
                peer_cert: qos_wire::to_bytes(&e.peer_cert),
            })
            .collect();
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }

    /// Number of outstanding (unexpired or not-yet-swept) tickets.
    pub fn len(&self) -> usize {
        self.store.lock().unwrap().len()
    }

    /// Whether no tickets are outstanding.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn ticket_mac(&self, id: &[u8; TICKET_ID_LEN], expires: u64) -> Digest {
        let mut data = Vec::with_capacity(TICKET_LABEL.len() + TICKET_ID_LEN + 8);
        data.extend_from_slice(TICKET_LABEL);
        data.extend_from_slice(id);
        data.extend_from_slice(&expires.to_le_bytes());
        hmac_sha256(&self.key, &data)
    }

    /// Issue a ticket binding `master` and the authenticated
    /// `peer_cert`. Returns the opaque bytes to send to the initiator.
    pub fn issue(&self, master: Digest, peer_cert: Certificate, now: Timestamp) -> Vec<u8> {
        let mut store = self.store.lock().unwrap();
        // Ids are derived from a monotone counter that restarts at 1, so
        // after ledger recovery a fresh id can collide with a recovered
        // entry; skip forward until it doesn't (overwriting would orphan
        // the earlier ticket's holder).
        let id = loop {
            let n = self.counter.fetch_add(1, Ordering::Relaxed);
            let mut h = Sha256::new();
            h.update(&self.key);
            h.update(b"ticket-id");
            h.update(&n.to_le_bytes());
            let digest = h.finalize();
            let mut id = [0u8; TICKET_ID_LEN];
            id.copy_from_slice(&digest[..TICKET_ID_LEN]);
            if !store.contains_key(&id) {
                break id;
            }
        };

        let expires = now.0.saturating_add(self.ttl_secs);
        let mac = self.ticket_mac(&id, expires);
        let mut ticket = Vec::with_capacity(TICKET_LEN);
        ticket.extend_from_slice(&id);
        ticket.extend_from_slice(&expires.to_le_bytes());
        ticket.extend_from_slice(&mac);

        if store.len() >= self.cap {
            // Drop expired entries first; if the store is still full the
            // soonest-to-expire ticket goes (its holder falls back to a
            // full handshake — correctness is unaffected).
            store.retain(|_, e| e.expires > now);
            while store.len() >= self.cap {
                let Some(oldest) = store.iter().min_by_key(|(_, e)| e.expires).map(|(k, _)| *k)
                else {
                    break;
                };
                store.remove(&oldest);
            }
        }
        store.insert(
            id,
            TicketEntry {
                master,
                peer_cert: peer_cert.clone(),
                expires: Timestamp(expires),
            },
        );
        drop(store);
        if let Some(ledger) = self.ledger.lock().unwrap().as_ref() {
            ledger.append(&LedgerRecord::TicketIssued {
                id: id.to_vec(),
                master: master.to_vec(),
                expires,
                peer_cert: qos_wire::to_bytes(&peer_cert),
            });
        }
        ticket
    }

    /// Redeem opaque ticket bytes: structural checks, MAC, expiry, then
    /// the authoritative store lookup. `None` means "run a full
    /// handshake instead" — never an error, because a stale ticket is an
    /// expected steady-state event, not a protocol violation.
    pub fn redeem(&self, ticket: &[u8], now: Timestamp) -> Option<(Digest, Certificate)> {
        if ticket.len() != TICKET_LEN {
            return None;
        }
        let mut id = [0u8; TICKET_ID_LEN];
        id.copy_from_slice(&ticket[..TICKET_ID_LEN]);
        let expires = u64::from_le_bytes(ticket[TICKET_ID_LEN..TICKET_ID_LEN + 8].try_into().ok()?);
        let expect = self.ticket_mac(&id, expires);
        if !mac_eq(&expect, &ticket[TICKET_ID_LEN + 8..]) {
            return None;
        }
        if now.0 >= expires {
            // Expired: also sweep it out of the store.
            self.store.lock().unwrap().remove(&id);
            return None;
        }
        let store = self.store.lock().unwrap();
        let entry = store.get(&id)?;
        Some((entry.master, entry.peer_cert.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Validity};

    fn cert() -> Certificate {
        let mut ca = CertificateAuthority::new(
            DistinguishedName::authority("CA"),
            KeyPair::from_seed(b"ca"),
        );
        ca.issue_identity(
            DistinguishedName::broker("alpha"),
            KeyPair::from_seed(b"a").public(),
            Validity::unbounded(),
        )
    }

    #[test]
    fn issue_then_redeem_round_trips() {
        let issuer = TicketIssuer::with_key([7; 32], 60, 8);
        let ticket = issuer.issue([1; 32], cert(), Timestamp(100));
        assert_eq!(ticket.len(), TICKET_LEN);
        let (master, c) = issuer.redeem(&ticket, Timestamp(120)).unwrap();
        assert_eq!(master, [1; 32]);
        assert_eq!(c.tbs().subject, DistinguishedName::broker("alpha"));
        // Multi-use within the lifetime.
        assert!(issuer.redeem(&ticket, Timestamp(130)).is_some());
    }

    #[test]
    fn expired_ticket_rejected_and_swept() {
        let issuer = TicketIssuer::with_key([7; 32], 60, 8);
        let ticket = issuer.issue([1; 32], cert(), Timestamp(100));
        assert!(issuer.redeem(&ticket, Timestamp(160)).is_none());
        assert!(issuer.is_empty(), "expired entry swept on redeem");
    }

    #[test]
    fn tampered_or_foreign_tickets_rejected() {
        let issuer = TicketIssuer::with_key([7; 32], 60, 8);
        let good = issuer.issue([1; 32], cert(), Timestamp(0));
        // Flip a MAC byte.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(issuer.redeem(&bad, Timestamp(1)).is_none());
        // Extend the lifetime without re-MACing.
        let mut extended = good.clone();
        extended[TICKET_ID_LEN] ^= 0xff;
        assert!(issuer.redeem(&extended, Timestamp(1)).is_none());
        // A ticket from a different issuer key.
        let other = TicketIssuer::with_key([8; 32], 60, 8);
        assert!(other.redeem(&good, Timestamp(1)).is_none());
        // Garbage length.
        assert!(issuer.redeem(&[1, 2, 3], Timestamp(1)).is_none());
    }

    #[test]
    fn store_capacity_is_bounded() {
        let issuer = TicketIssuer::with_key([7; 32], 60, 4);
        let tickets: Vec<_> = (0..10)
            .map(|i| issuer.issue([i as u8; 32], cert(), Timestamp(i)))
            .collect();
        assert!(issuer.len() <= 4);
        // The newest ticket always survives.
        assert!(issuer
            .redeem(tickets.last().unwrap(), Timestamp(10))
            .is_some());
    }

    #[test]
    fn export_restore_round_trips_across_issuers() {
        let issuer = TicketIssuer::with_key([7; 32], 60, 8);
        let ticket = issuer.issue([1; 32], cert(), Timestamp(100));
        let exported = issuer.export_tickets();
        assert_eq!(exported.len(), 1);
        // A fresh issuer with the same key honours the recovered entry.
        let restarted = TicketIssuer::with_key([7; 32], 60, 8);
        restarted.restore_tickets(&exported);
        let (master, c) = restarted.redeem(&ticket, Timestamp(120)).unwrap();
        assert_eq!(master, [1; 32]);
        assert_eq!(c.tbs().subject, DistinguishedName::broker("alpha"));
        // The restarted issuer's counter also restarts, so its first
        // fresh id would collide with the recovered one; issue() must
        // skip past it instead of orphaning the old ticket's holder.
        let t2 = restarted.issue([2; 32], cert(), Timestamp(120));
        assert_ne!(t2[..TICKET_ID_LEN], ticket[..TICKET_ID_LEN]);
        assert!(restarted.redeem(&ticket, Timestamp(130)).is_some());
        assert!(restarted.redeem(&t2, Timestamp(130)).is_some());
    }

    #[test]
    fn restore_skips_malformed_entries() {
        let issuer = TicketIssuer::with_key([7; 32], 60, 8);
        issuer.restore_tickets(&[SnapTicket {
            id: vec![1; 3], // wrong length
            master: vec![2; 32],
            expires: 100,
            peer_cert: qos_wire::to_bytes(&cert()),
        }]);
        issuer.restore_tickets(&[SnapTicket {
            id: vec![1; TICKET_ID_LEN],
            master: vec![2; 32],
            expires: 100,
            peer_cert: vec![0xff; 4], // undecodable certificate
        }]);
        assert!(issuer.is_empty());
    }

    #[test]
    fn possession_macs_are_domain_separated() {
        let master = [9; 32];
        let i = initiator_mac(&master, b"ticket", 5);
        let r = responder_mac(&master, 5, 6);
        assert_ne!(i, r);
        assert!(mac_eq(&i, i.as_ref()));
        assert!(!mac_eq(&i, r.as_ref()));
        assert!(!mac_eq(&i, &i[..31]));
        // Different master, different proof.
        assert_ne!(initiator_mac(&[8; 32], b"ticket", 5), i);
    }
}
