//! Adversarial integration tests: tampered envelopes, forged peers,
//! expired credentials, replayed channel frames.

use integration_tests::{
    build_chain, chain_links, deliver_by_hand, mesh_from, outcome, ChainOptions, Scenario, MBPS,
};
use qos_core::channel::{handshake, ChannelIdentity, PeerPin};
use qos_core::envelope::{RarLayer, SignedRar};
use qos_core::messages::{Denial, SignalMessage};
use qos_core::node::Completion;
use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
use qos_net::SimDuration;
use qos_policy::AttributeSet;
use std::collections::HashMap;

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

/// What `lying_transit` does to the request `domain-b` sends on.
enum Lie {
    /// Delegate to a key of its own choosing instead of `domain-c`'s.
    Retarget,
    /// Hold the chain and hand nothing on.
    Strip,
    /// Reuse the signed link of another request's layer (`domain-b`'s
    /// layer of an earlier envelope) around this request's nest.
    Splice,
}

/// A four-domain chain whose destination grants only to holders of an
/// ESnet capability, with `domain-b` lying about the chain as `lie`
/// says. Returns the denial the source saw, the envelope `domain-d`
/// received (if the request got that far), and checks that no broker
/// holds capacity afterwards.
fn lying_transit(lie: Lie) -> (Denial, Option<SignedRar>) {
    const NEEDS_ESNET: &str = "if Issued_by(Capability) = ESnet { return grant }\nreturn deny \"needs an ESnet capability\"";
    let mut s = build_chain(ChainOptions {
        domains: 4,
        policies: HashMap::from([(3, NEEDS_ESNET.to_string())]),
        ..ChainOptions::default()
    });
    let cert = s.users["alice"].cert.clone();
    let bb_b = KeyPair::from_seed(b"bb-domain-b");
    let submit = |s: &mut Scenario, lie: Option<&Lie>, earlier: Option<&SignedRar>| {
        let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
        let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
        let out = s.nodes[0].submit(rar, &cert);
        let mut seen = HashMap::new();
        deliver_by_hand(s, 0, out, |_, to, msg| {
            let SignalMessage::Request(rar) = msg else {
                return msg;
            };
            let rar = match (to, lie) {
                ("domain-c", Some(lie)) => {
                    let mut lied = rar.layer.clone();
                    let RarLayer::Broker { delegate, .. } = &mut lied else {
                        panic!("domain-b wraps what it forwards");
                    };
                    assert!(delegate.is_some(), "domain-b held the chain");
                    match lie {
                        Lie::Retarget => {
                            delegate.as_mut().unwrap().to_key =
                                KeyPair::from_seed(b"b's other key").public()
                        }
                        Lie::Strip => *delegate = None,
                        Lie::Splice => {
                            let RarLayer::Broker {
                                delegate: theirs, ..
                            } = &earlier.expect("an earlier envelope").layer
                            else {
                                unreachable!()
                            };
                            *delegate = *theirs;
                        }
                    }
                    // b signs its lie with its own key, except for the
                    // splice: that reuses the signature b made over the
                    // same link in the other request, whatever is inside.
                    let mut forged = SignedRar::sign_layer(lied, rar.signer.clone(), &bb_b);
                    if matches!(lie, Lie::Splice) {
                        forged.signature = earlier.expect("an earlier envelope").signature();
                    }
                    forged
                }
                _ => rar,
            };
            seen.insert(to.to_string(), rar.clone());
            SignalMessage::Request(rar)
        });
        let result = match s.nodes[0].take_completions().pop() {
            Some(Completion::Reservation { result, .. }) => result,
            other => panic!("no reservation completed at the source: {other:?}"),
        };
        (result, seen)
    };

    // An honest run first: granted, and its envelopes are what a splice
    // copies from.
    let (honest, seen) = submit(&mut s, None, None);
    assert!(honest.is_ok(), "the chain reaches d's key: {honest:?}");
    let earlier = seen["domain-c"].clone();
    let start: Vec<u64> = s
        .nodes
        .iter()
        .map(|n| n.core().available_bw_at(Timestamp(10)))
        .collect();

    let (lied, seen) = submit(&mut s, Some(&lie), Some(&earlier));
    let denial = lied.expect_err("a lie about the chain is never granted");
    for (node, start) in s.nodes.iter().zip(&start) {
        assert_eq!(
            node.core().available_bw_at(Timestamp(10)),
            *start,
            "{} still holds capacity",
            node.domain()
        );
    }
    (denial, seen.get("domain-d").cloned())
}

/// A transit that re-targets its link to a key of its own choosing: its
/// layer is genuinely signed, so the next hop accepts it, finds the
/// chain ends at somebody else's key, and carries it on without a link
/// of its own; it grants nothing downstream, and the destination, whose
/// policy requires the capability, denies.
#[test]
fn transit_retargeting_its_link_grants_nothing_downstream() {
    let (denial, at_d) = lying_transit(Lie::Retarget);
    assert_eq!(denial.domain, "domain-d");
    assert!(
        denial.reason.contains("needs an ESnet capability"),
        "{denial:?}"
    );
    let links = chain_links(&at_d.expect("c forwards: its own policy asks for nothing"));
    let signers: Vec<&str> = links.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(signers, ["domain-a", "domain-b"], "c added no link");
    assert_eq!(links[1].1, KeyPair::from_seed(b"b's other key").public());
}

/// A transit that holds the chain and strips it of its continuation:
/// the chain ends at the transit's own key for everybody downstream.
#[test]
fn transit_stripping_the_link_grants_nothing_downstream() {
    let (denial, at_d) = lying_transit(Lie::Strip);
    assert_eq!(denial.domain, "domain-d");
    assert!(
        denial.reason.contains("needs an ESnet capability"),
        "{denial:?}"
    );
    let links = chain_links(&at_d.expect("c forwards: its own policy asks for nothing"));
    assert_eq!(links.len(), 1, "a's link only: {links:?}");
    assert_eq!(links[0].0, "domain-a");
}

/// A transit that splices the signed link of another request's layer
/// around this request's nest: the layer's signature is over the digest
/// of the nest inside it (DESIGN.md §D22), so it does not transfer, and
/// the next hop refuses the outer signature.
#[test]
fn transit_splicing_a_link_from_another_rar_is_caught_at_the_next_hop() {
    let (denial, at_d) = lying_transit(Lie::Splice);
    assert_eq!(denial.domain, "domain-c");
    assert!(
        denial.reason.contains("signed by CN=BB,OU=domain-b"),
        "{denial:?}"
    );
    assert!(at_d.is_none(), "the request stops at c");
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

    let payload = b"reserve";
    let (seq, mac) = ch_a.seal_in_place(payload);
    assert!(ch_b.open_in_place(payload, seq, &mac).is_ok());
    assert!(
        ch_b.open_in_place(payload, seq, &mac).is_err(),
        "replay rejected"
    );
    // Splicing a frame from session 1 into session 2 fails (different
    // session keys).
    let (seq2, mac2) = ch_a2.seal_in_place(payload);
    assert!(ch_b2.open_in_place(payload, seq2, &mac2).is_ok());
    assert!(
        ch_b2.open_in_place(payload, seq, &mac).is_err(),
        "cross-session splice rejected"
    );
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

/// A 50 Mb/s tunnel from domain-a to domain-c over a → b → c, with one
/// 5 Mb/s sub-flow (flow 1) admitted and held through it.
fn tunnel_with_one_flow() -> (qos_core::drive::Mesh, qos_core::RarId, DistinguishedName) {
    let mut s = build_chain(ChainOptions::default());
    let spec = s
        .spec("alice", 0, 50 * MBPS, Timestamp(0), 3600)
        .as_tunnel();
    let tunnel = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let alice = s.users["alice"].dn.clone();
    let mut mesh = mesh_from(&mut s, 5);
    mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
    mesh.tunnel_flow_in(
        SimDuration::from_secs(1),
        "domain-a",
        tunnel,
        1,
        5 * MBPS,
        alice.clone(),
    );
    mesh.run_until_idle();
    outcome(&mesh, "domain-a", tunnel).expect("the tunnel is granted");
    assert_eq!(held(&mesh, tunnel), 5 * MBPS);
    (mesh, tunnel, alice)
}

/// What domain-a holds allocated in `tunnel`.
fn held(mesh: &qos_core::drive::Mesh, tunnel: qos_core::RarId) -> u64 {
    mesh.node("domain-a")
        .tunnel_info(tunnel)
        .expect("a tunnel")
        .4
}

/// A transit carries a tunnel's aggregate but is not its source. Over its
/// own channel to the destination it forges a sub-flow that would take
/// the rest of the aggregate and a release of the source's held flow:
/// the destination refuses both, and nothing is left held that its
/// source did not ask for.
#[test]
fn transit_forging_a_subflow_and_its_release_is_refused() {
    use qos_core::messages::{TunnelFlowRelease, TunnelFlowRequest};
    let (mut mesh, tunnel, alice) = tunnel_with_one_flow();
    let c_held = |mesh: &qos_core::drive::Mesh| mesh.node("domain-c").held_flow_stats().0;

    let forged = TunnelFlowRequest::new(tunnel, 2, 45 * MBPS, alice.clone());
    let out = mesh
        .node_mut("domain-c")
        .recv("domain-b", SignalMessage::TunnelFlow(forged));
    assert!(
        matches!(out.as_slice(), [(to, SignalMessage::TunnelFlowReply(r))]
            if to.as_ref() == "domain-b" && !r.accepted),
        "{out:?}"
    );
    let out = mesh.node_mut("domain-c").recv(
        "domain-b",
        SignalMessage::TunnelFlowRelease(TunnelFlowRelease::new(tunnel, 1)),
    );
    assert!(out.is_empty(), "{out:?}");
    assert_eq!(c_held(&mesh), 1, "c admitted and freed nothing");
    assert_eq!(held(&mesh, tunnel), 5 * MBPS, "a's flow is still held");

    // The aggregate c kept is exactly what the source has not spent: its
    // own request for the remaining 45 Mb/s is admitted …
    mesh.tunnel_flow_in(SimDuration::ZERO, "domain-a", tunnel, 3, 45 * MBPS, alice);
    mesh.run_until_idle();
    assert_eq!(held(&mesh, tunnel), 50 * MBPS);
    assert_eq!(c_held(&mesh), 2);
    // … and releasing both flows at the source leaves nothing held at c.
    for (flow, rate) in [(1, 5 * MBPS), (3, 45 * MBPS)] {
        let out = mesh
            .node_mut("domain-a")
            .release_tunnel_flow(tunnel, flow, rate)
            .expect("a tunnel");
        for (to, msg) in out {
            mesh.node_mut(&to).recv("domain-a", msg);
        }
    }
    assert_eq!(held(&mesh, tunnel), 0);
    assert_eq!(c_held(&mesh), 0, "no leaked hold");
}

/// A sub-flow's reply is acted on only from the tunnel's destination: a
/// transit can neither grant the source a flow the destination never
/// admitted nor cancel one it is still deciding on.
#[test]
fn transit_forging_a_subflow_reply_is_ignored_at_the_source() {
    use qos_core::messages::TunnelFlowReply;
    use qos_core::DenialCode;
    let (mut mesh, tunnel, alice) = tunnel_with_one_flow();
    let a = mesh.node_mut("domain-a");
    let request = a
        .request_tunnel_flow(tunnel, 9, 5 * MBPS, alice)
        .expect("the aggregate has room");
    for accepted in [true, false] {
        let forged = TunnelFlowReply {
            tunnel,
            flow: 9,
            accepted,
            reason: DenialCode::None,
        };
        assert!(a
            .recv("domain-b", SignalMessage::TunnelFlowReply(forged))
            .is_empty());
    }
    assert!(a.take_completions().is_empty(), "nothing completed");
    assert_eq!(held(&mesh, tunnel), 5 * MBPS, "flow 9 is not allocated");

    // The destination's own answer still lands: the flow was pending all
    // along.
    for (to, msg) in request {
        let replies = mesh.node_mut(&to).recv("domain-a", msg);
        for (to, reply) in replies {
            mesh.node_mut(&to).recv("domain-c", reply);
        }
    }
    assert_eq!(held(&mesh, tunnel), 10 * MBPS);
    assert!(matches!(
        mesh.node_mut("domain-a").take_completions().as_slice(),
        [Completion::TunnelFlow {
            flow: 9,
            accepted: true,
            ..
        }]
    ));
}

/// On a four-domain chain, `domain-a` answers in `domain-c`'s place for
/// a request `domain-b` has forwarded to `domain-c`: it injects `forged`
/// (built from the request's id) into `b`, then the real downstream
/// answers. Returns how many messages `b` sent in response to the
/// forgery, and checks that the source completes with the real grant
/// and that every domain holds exactly that one committed reservation.
fn forged_reply(forged: impl FnOnce(&Scenario, qos_core::RarId) -> SignalMessage) -> usize {
    let mut s = build_chain(ChainOptions {
        domains: 4,
        ..ChainOptions::default()
    });
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();
    let to_b = s.nodes[0].submit(rar, &cert);
    let to_c = s.nodes[1].recv("domain-a", to_b[0].1.clone());
    assert!(
        matches!(to_c.as_slice(), [(to, SignalMessage::Request(_))] if to.as_ref() == "domain-c"),
        "b forwards to c: {to_c:?}"
    );

    let msg = forged(&s, rar_id);
    let answered = s.nodes[1].recv("domain-a", msg).len();
    deliver_by_hand(&mut s, 1, to_c, |_, _, msg| msg);

    assert!(matches!(
        s.nodes[0].take_completions().as_slice(),
        [Completion::Reservation { result: Ok(_), .. }]
    ));
    for node in &s.nodes {
        let (active, committed, ..) = node.core().ledger_summary(Timestamp(10));
        assert_eq!(
            (active, committed),
            (1, 1),
            "{} holds the grant and nothing else",
            node.domain()
        );
    }
    answered
}

/// An approval from any peer but the one a request went to is ignored:
/// the transit commits, endorses and relays nothing its downstream did
/// not approve.
#[test]
fn an_approval_forged_by_the_upstream_peer_is_ignored() {
    use qos_core::messages::Approval;
    let answered = forged_reply(|s, rar_id| {
        SignalMessage::Approve(Approval::originate(
            rar_id,
            s.nodes[0].cert().clone(),
            "domain-d",
            DistinguishedName::broker("domain-a"),
            AttributeSet::new(),
            &KeyPair::from_seed(b"bb-domain-a"),
        ))
    });
    assert_eq!(answered, 0, "b relayed an approval c never gave");
}

/// A denial from any peer but the one a request went to is ignored: the
/// transit keeps its hold, and relays nothing while its downstream goes
/// on to commit.
#[test]
fn a_denial_forged_by_the_upstream_peer_is_ignored() {
    let answered = forged_reply(|_, rar_id| {
        SignalMessage::Deny(Denial {
            rar_id,
            domain: "domain-c".into(),
            reason: "forged".into(),
        })
    });
    assert_eq!(answered, 0, "b relayed a denial c never gave");
}
