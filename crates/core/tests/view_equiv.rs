//! The borrowed view of an envelope against the recursive accessors it
//! replaced (kept here as the reference), and the memoized layer digest
//! against a fresh hash — on arbitrary nests (DESIGN.md §D17).

use proptest::prelude::*;
use qos_broker::Interval;
use qos_core::envelope::{RarLayer, SignedRar};
use qos_core::trust::{verify_rar, KeySource};
use qos_core::view::RarView;
use qos_core::{RarId, ResSpec};
use qos_crypto::sha256::sha256;
use qos_crypto::{
    Certificate, CertificateAuthority, DistinguishedName, KeyPair, Timestamp, TrustPolicy, Validity,
};
use qos_policy::{AttributeSet, Value};

/// What one layer adds: how many capability certificates, and policy
/// attachments over a three-key alphabet so layers collide on keys.
type LayerPlan = (usize, Vec<(u8, i64)>);

fn arb_layers() -> impl Strategy<Value = Vec<LayerPlan>> {
    let attachments = proptest::collection::vec((0u8..3, -2i64..3), 0..4);
    proptest::collection::vec((0usize..3, attachments), 1..7)
}

/// A nest with `plans[0]` as the user's layer and one broker wrap per
/// further plan. Every signature and introduced certificate is genuine,
/// so the destination `domain-<depth - 1>` verifies it.
fn build(plans: &[LayerPlan]) -> SignedRar {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"view-ca"),
    );
    let mut serial = 0u64;
    let mut certs = |n: usize, ca: &mut CertificateAuthority| -> Vec<Certificate> {
        (0..n)
            .map(|_| {
                serial += 1;
                ca.issue_identity(
                    DistinguishedName::user(&format!("cap-{serial}"), "O"),
                    KeyPair::from_seed(&serial.to_le_bytes()).public(),
                    Validity::unbounded(),
                )
            })
            .collect()
    };
    let user = KeyPair::from_seed(b"view-user");
    let user_dn = DistinguishedName::user("Alice", "ANL");
    let spec = ResSpec::new(
        RarId(plans.len() as u64),
        user_dn.clone(),
        "domain-0",
        &format!("domain-{}", plans.len() - 1),
        7,
        1_000_000,
        Interval::starting_at(Timestamp(0), 3600),
    );
    let user_caps = certs(plans[0].0, &mut ca);
    let mut rar = SignedRar::user_request(
        spec,
        DistinguishedName::broker("domain-0"),
        user_caps,
        &user,
    );
    let mut upstream = ca.issue_identity(user_dn, user.public(), Validity::unbounded());
    for (i, (caps, attachments)) in plans[1..].iter().enumerate() {
        let key = KeyPair::from_seed(format!("view-bb-{i}").as_bytes());
        let dn = DistinguishedName::broker(&format!("domain-{i}"));
        let mut attached = AttributeSet::new();
        for (k, v) in attachments {
            attached.set(format!("k{k}"), Value::Int(*v));
        }
        let new_caps = certs(*caps, &mut ca);
        rar = SignedRar::wrap(
            rar,
            upstream,
            Some(DistinguishedName::broker(&format!("domain-{}", i + 1))),
            new_caps,
            attached,
            dn.clone(),
            &key,
        );
        upstream = ca.issue_identity(dn, key.public(), Validity::unbounded());
    }
    rar
}

/// Every layer of the nest, outermost first.
fn layers(rar: &SignedRar) -> Vec<&SignedRar> {
    let mut out = vec![rar];
    while let RarLayer::Broker { inner, .. } = &out[out.len() - 1].layer {
        out.push(inner);
    }
    out
}

/// `SignedRar::{signer_path, capability_certs, merged_attachments}` as
/// they were before they read the view: one recursion down the nest
/// each, cloning on the way.
mod recursive {
    use super::*;

    pub fn signer_path(rar: &SignedRar, out: &mut Vec<DistinguishedName>) {
        if let RarLayer::Broker { inner, .. } = &rar.layer {
            signer_path(inner, out);
        }
        out.push(rar.signer.clone());
    }

    pub fn capability_certs(rar: &SignedRar, out: &mut Vec<Certificate>) {
        match &rar.layer {
            RarLayer::User {
                capability_certs, ..
            } => out.extend(capability_certs.iter().cloned()),
            RarLayer::Broker {
                inner,
                capability_certs,
                ..
            } => {
                self::capability_certs(inner, out);
                out.extend(capability_certs.iter().cloned());
            }
        }
    }

    pub fn merged_attachments(rar: &SignedRar, out: &mut AttributeSet) {
        if let RarLayer::Broker {
            inner,
            policy_attachments,
            ..
        } = &rar.layer
        {
            merged_attachments(inner, out);
            out.merge(policy_attachments);
        }
    }
}

proptest! {
    /// One walk yields what the five recursive accessors yielded.
    #[test]
    fn view_equals_the_recursive_accessors(plans in arb_layers()) {
        let rar = build(&plans);
        let view = RarView::of(&rar);
        prop_assert_eq!(view.depth(), rar.depth());
        prop_assert_eq!(view.depth(), plans.len());
        prop_assert_eq!(view.spec(), rar.res_spec());
        prop_assert!(std::ptr::eq(view.outer(), &rar));
        let mut path = Vec::new();
        recursive::signer_path(&rar, &mut path);
        prop_assert_eq!(view.signers().cloned().collect::<Vec<_>>(), path.clone());
        prop_assert_eq!(rar.signer_path(), path);
        let mut certs = Vec::new();
        recursive::capability_certs(&rar, &mut certs);
        prop_assert_eq!(certs.len(), plans.iter().map(|p| p.0).sum::<usize>());
        prop_assert_eq!(view.caps().iter().copied().cloned().collect::<Vec<_>>(), certs.clone());
        prop_assert_eq!(rar.capability_certs(), certs);
        // Merging the layers' attachments innermost first lets outer
        // layers override inner ones on key conflicts, as the recursive
        // merge did.
        let merged = view.merged_attachments();
        let mut reference = AttributeSet::new();
        recursive::merged_attachments(&rar, &mut reference);
        prop_assert_eq!(&merged, &reference);
        prop_assert_eq!(&rar.merged_attachments(), &reference);
        for k in 0u8..3 {
            let last = plans[1..].iter().rev().find_map(|(_, attached)| {
                attached.iter().rev().find(|(key, _)| *key == k).map(|(_, v)| Value::Int(*v))
            });
            prop_assert_eq!(merged.get(&format!("k{k}")), last.as_ref());
        }
        let walked = layers(&rar);
        prop_assert_eq!(view.layers().len(), walked.len());
        for (a, b) in view.layers().iter().zip(&walked) {
            prop_assert!(std::ptr::eq(*a, *b));
        }
        // The certificates the wrapping layers introduce.
        let upstream = |l: &SignedRar| match &l.layer {
            RarLayer::Broker { upstream_cert, .. } => Some(upstream_cert.clone()),
            RarLayer::User { .. } => None,
        };
        let n = walked.len();
        prop_assert_eq!(view.introduced_cert(0).cloned(), n.checked_sub(2).and_then(|i| upstream(walked[i])));
        prop_assert_eq!(view.introduced_cert(1).cloned(), n.checked_sub(3).and_then(|i| upstream(walked[i])));
        prop_assert_eq!(view.introduced_cert(n), None);
    }

    /// What `verify_rar` hands back is the view's facts, owned: the same
    /// on first sight and from the memo.
    #[test]
    fn verified_rar_is_the_view_owned(inner in arb_layers(), outermost in arb_layers()) {
        // At least one wrap: a bare user request has no broker to
        // introduce the user.
        let plans = [&inner[..], &outermost[..1]].concat();
        let rar = build(&plans);
        let depth = plans.len();
        let peer = KeyPair::from_seed(format!("view-bb-{}", depth - 2).as_bytes());
        let me = DistinguishedName::broker(&format!("domain-{}", depth - 1));
        let verify = || verify_rar(
            &rar,
            peer.public(),
            &me,
            TrustPolicy::default(),
            Timestamp(0),
            &KeySource::Introducers,
        );
        let first = verify().expect("a genuine nest verifies");
        prop_assert_eq!(&first, &verify().expect("and verifies again from the memo"));
        prop_assert_eq!(&first.res_spec, rar.res_spec());
        prop_assert_eq!(&first.signer_path, &rar.signer_path());
        prop_assert_eq!(&first.capability_certs, &rar.capability_certs());
        prop_assert_eq!(&first.attachments, &rar.merged_attachments());
        prop_assert_eq!(&first.user_cert.tbs().subject, &rar.res_spec().requestor);
        prop_assert_eq!(
            first.source_bb_cert.map(|c| c.tbs().subject.clone()),
            (depth >= 3).then(|| DistinguishedName::broker("domain-0"))
        );
    }

    /// `layer_digest` is `sha256(layer_bytes())` at every layer, however
    /// the envelope came to be: built, decoded from a shared buffer
    /// (layers view the received bytes), decoded from a plain one
    /// (layers re-encode on first use).
    #[test]
    fn layer_digest_is_the_hash_of_the_layer_bytes(plans in arb_layers()) {
        let built = build(&plans);
        let bytes = qos_wire::to_bytes(&built);
        let shared: std::sync::Arc<[u8]> = bytes.clone().into();
        let decoded = [
            built.clone(),
            qos_wire::from_bytes_shared::<SignedRar>(&shared).unwrap(),
            qos_wire::from_bytes::<SignedRar>(&bytes).unwrap(),
        ];
        for rar in &decoded {
            for layer in layers(rar) {
                prop_assert_eq!(layer.layer_digest(), &sha256(layer.layer_bytes()));
                // Asked again, and of a clone: the same answer.
                let copy = layer.clone();
                prop_assert_eq!(copy.layer_digest(), layer.layer_digest());
            }
            prop_assert_eq!(rar.layer_digest(), built.layer_digest());
        }
    }
}

/// The warm-path probe's digest is the owned decode's: the borrowed
/// parse chains the layers' digests once and the envelope decoded from
/// the same message adopts the result. Restated for §D22: the bytes the
/// two forms share are the wire bytes; the signature preimage exists on
/// the owned form only.
#[test]
fn borrowed_probe_hands_its_digest_to_the_owned_decode() {
    use qos_core::envelope_ref::EnvelopeRef;
    use qos_core::messages::SignalMessage;
    let rar = build(&[(1, vec![]), (1, vec![(0, 1)]), (0, vec![(0, 2), (1, 1)])]);
    let bytes = qos_wire::to_bytes(&SignalMessage::Request(rar.clone()));
    for probe_first in [false, true] {
        let env = EnvelopeRef::parse(&bytes).unwrap().expect("a request");
        if probe_first {
            assert_eq!(env.layer_digest(), sha256(rar.layer_bytes()));
        }
        let SignalMessage::Request(owned) = env.decode_owned().unwrap() else {
            panic!("decoded another variant");
        };
        assert_eq!(owned, rar);
        assert_eq!(owned.wire_bytes(), env.wire_bytes());
        assert_eq!(owned.layer_bytes(), rar.layer_bytes());
        assert_eq!(*owned.layer_digest(), sha256(rar.layer_bytes()));
        assert_eq!(*owned.layer_digest(), env.layer_digest());
    }
}
