//! Adversarial integration tests: tampered envelopes, forged peers,
//! expired credentials, replayed channel frames.

use integration_tests::{build_chain, mesh_from, outcome, ChainOptions, MBPS};
use qos_core::channel::{handshake, ChannelIdentity, PeerPin};
use qos_core::envelope::{RarLayer, SignedRar};
use qos_core::messages::SignalMessage;
use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
use qos_net::SimDuration;
use qos_policy::AttributeSet;

/// A transit broker that inflates the requested bandwidth mid-path
/// cannot produce a verifiable envelope: the destination's trust walk
/// fails (signatures cover the nested layers byte-exactly).
#[test]
fn transit_tampering_is_caught_at_destination() {
    let mut s = build_chain(ChainOptions::default());
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);

    // Build what BB_A would legitimately forward…
    let user_cert = s.users["alice"].cert.clone();
    let bb_a_key = KeyPair::from_seed(b"bb-domain-a");
    let forwarded = SignedRar::wrap(
        rar,
        user_cert.clone(),
        Some(DistinguishedName::broker("domain-b")),
        vec![],
        AttributeSet::new(),
        DistinguishedName::broker("domain-a"),
        &bb_a_key,
    );

    // …then tamper with the nested user layer (inflate the rate) without
    // access to Alice's key.
    let mut tampered = forwarded.clone();
    if let RarLayer::Broker { inner, .. } = &mut tampered.layer {
        let mut user_layer = (**inner).clone();
        if let RarLayer::User { res_spec, .. } = &mut user_layer.layer {
            res_spec.rate_bps = 100 * MBPS;
        }
        // The attacker re-signs nothing (cannot); just swaps the payload.
        **inner = user_layer;
    }

    // Deliver both to BB_B directly: the genuine one forwards, the
    // tampered one is denied.
    let mut mesh = mesh_from(&mut s, 5);
    let out_genuine = mesh
        .node_mut("domain-b")
        .recv("domain-a", SignalMessage::Request(forwarded));
    assert!(
        matches!(out_genuine.first(), Some((to, SignalMessage::Request(_))) if to.as_ref() == "domain-c"),
        "genuine envelope forwards: {out_genuine:?}"
    );
    let out_tampered = mesh
        .node_mut("domain-b")
        .recv("domain-a", SignalMessage::Request(tampered));
    assert!(
        matches!(out_tampered.first(), Some((to, SignalMessage::Deny(_))) if to.as_ref() == "domain-a"),
        "tampered envelope must bounce: {out_tampered:?}"
    );
}

/// A message claiming to come from a peer the broker has no SLA with is
/// refused outright ("a specific contract between peered domains comes
/// into place").
#[test]
fn unknown_peer_is_refused() {
    let mut s = build_chain(ChainOptions::default());
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let mut mesh = mesh_from(&mut s, 5);
    let out = mesh
        .node_mut("domain-c")
        .recv("domain-x", SignalMessage::Request(rar));
    assert!(
        matches!(out.first(), Some((_, SignalMessage::Deny(d))) if d.reason.contains("no SLA")),
        "{out:?}"
    );
}

/// An expired user certificate denies the request at the source broker.
#[test]
fn expired_user_certificate_denied() {
    let mut s = build_chain(ChainOptions::default());
    // Re-issue Alice's certificate with a validity that ends before the
    // submission time.
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("RootCA"),
        KeyPair::from_seed(b"root-ca"),
    );
    let expired = ca.issue_identity(
        s.users["alice"].dn.clone(),
        s.users["alice"].key.public(),
        Validity::starting_at(Timestamp(0), 10),
    );
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(100), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let mut mesh = mesh_from(&mut s, 5);
    // Submit at t=100 s (past the certificate's 10 s lifetime).
    mesh.submit_in(SimDuration::from_secs(100), "domain-a", rar, expired);
    mesh.run_until_idle();
    let denial = outcome(&mesh, "domain-a", rar_id).expect_err("must be denied");
    assert!(denial.reason.contains("not valid"), "{}", denial.reason);
}

/// Secure channels refuse replayed and cross-spliced frames even when
/// the payload itself is well-formed.
#[test]
fn channel_replay_and_splice_rejected() {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let make = |name: &str, ca: &mut CertificateAuthority| {
        let key = KeyPair::from_seed(name.as_bytes());
        let cert = ca.issue_identity(
            DistinguishedName::broker(name),
            key.public(),
            Validity::unbounded(),
        );
        ChannelIdentity { key, cert }
    };
    let a = make("domain-a", &mut ca);
    let b = make("domain-b", &mut ca);
    let pin = |dn: &str| PeerPin {
        ca_key: ca.public_key(),
        dn: DistinguishedName::broker(dn),
    };
    // One direction of a session: a's sealing half, b's opening half.
    let session = |nonce| {
        let (ch_a, ch_b) = handshake(
            &a,
            &b,
            &pin("domain-b"),
            &pin("domain-a"),
            nonce,
            Timestamp(0),
        )
        .unwrap();
        (ch_a.split().0, ch_b.split().1)
    };
    let (mut ch_a, mut ch_b) = session(1);
    // A second, independent session between the same parties.
    let (mut ch_a2, mut ch_b2) = session(2);

    let frame = ch_a.seal(b"reserve".to_vec());
    assert!(ch_b.open(frame.clone()).is_ok());
    assert!(ch_b.open(frame.clone()).is_err(), "replay rejected");
    // Splicing a frame from session 1 into session 2 fails (different
    // session keys).
    let frame2 = ch_a2.seal(b"reserve".to_vec());
    assert!(ch_b2.open(frame2).is_ok());
    assert!(ch_b2.open(frame).is_err(), "cross-session splice rejected");
}

/// Envelope depth beyond the destination's trust policy is refused even
/// when every signature is genuine.
#[test]
fn depth_policy_refuses_long_chains() {
    use qos_crypto::TrustPolicy;
    let mut s = build_chain(ChainOptions {
        domains: 6,
        trust_policy: TrustPolicy { max_chain_depth: 3 },
        ..ChainOptions::default()
    });
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let mut mesh = mesh_from(&mut s, 5);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.run_until_idle();
    let denial = outcome(&mesh, "domain-a", rar_id).expect_err("too deep");
    assert!(
        denial.reason.contains("depth"),
        "denial should cite chain depth: {}",
        denial.reason
    );
}
