//! FIG7 — Figure 7: capability propagation along the signalling path,
//! read off the protocol messages the brokers actually receive.
//!
//! Expected shape: the capability list grows 2 → 3 → 4 entries at
//! BB_A / BB_B / BB_C (the figure's counts): the two certificates of the
//! user's layer, then one folded link per broker layer (DESIGN.md §D22);
//! the §6.5 checklist passes on the chain as BB_C sees it; and every
//! link is bound to this request.

use qos_bench::{experiment_registry, table_header, table_row, write_metrics_snapshot};
use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::view::RarView;
use qos_core::{SignalMessage, SignedRar};
use qos_crypto::{DelegationChain, Restriction, Timestamp};

const MBPS: u64 = 1_000_000;

/// Entries of Figure 7's list in `rar`: certificates, then folded links.
fn list_len(rar: &SignedRar) -> usize {
    let view = RarView::of(rar);
    view.caps().len() + view.hops(None).filter(|h| h.link.is_some()).count()
}

fn main() {
    println!("FIG7: capability delegation along the path (Figure 7)\n");
    let (registry, telemetry) = experiment_registry();

    let mut s = build_chain(ChainOptions {
        telemetry: telemetry.clone(),
        ..ChainOptions::default()
    });
    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cas_pk = s.cas_keys["ESnet"];
    let cert = s.users["alice"].cert.clone();

    // Hand the messages from broker to broker and keep every request on
    // its way in: (receiving domain index, sender's key, envelope).
    let user_pk = cert.tbs().subject_public_key;
    let mut received = vec![(0usize, user_pk, rar.clone())];
    let mut queue: Vec<_> = s.nodes[0]
        .submit(rar, &cert)
        .into_iter()
        .map(|(to, m)| (0usize, to, m))
        .collect();
    while let Some((from, to, msg)) = queue.pop() {
        let at = s.domains.iter().position(|d| **d == *to).expect("a peer");
        if let SignalMessage::Request(rar) = &msg {
            received.push((at, s.nodes[from].public_key(), (**rar).clone()));
        }
        let sender = s.domains[from].clone();
        let out = s.nodes[at].recv(&sender, msg);
        queue.extend(out.into_iter().map(|(next, m)| (at, next, m)));
    }
    assert!(matches!(
        s.nodes[0].take_completions().pop(),
        Some(Completion::Reservation { result: Ok(_), .. })
    ));

    let widths = [12, 26];
    table_header(&["received by", "capability list entries"], &widths);
    let mut sizes = Vec::new();
    for (at, _, rar) in &received {
        let name = format!("BB_{}", (b'A' + *at as u8) as char);
        sizes.push(list_len(rar));
        table_row(&[name, sizes[sizes.len() - 1].to_string()], &widths);
    }
    assert_eq!(sizes, [2, 3, 4], "Figure 7's counts");

    // The chain as BB_C sees it, and the checklist BB_C runs on it.
    let (at, peer, rar) = received.last().expect("BB_C received the request");
    let view = RarView::of(rar);
    println!("\nthe chain in the request BB_C received:");
    for c in view.caps() {
        println!(
            "  certificate  issuer={} subject={} key={} caps={:?}",
            c.tbs().issuer,
            c.tbs().subject,
            c.tbs().subject_public_key.fingerprint(),
            c.capabilities()
        );
    }
    for hop in view.hops(None) {
        let (to, link) = hop.link.expect("every broker on the path held the chain");
        println!(
            "  folded link  signer={} delegatee={to} key={} valid {}..{}",
            hop.signer,
            link.to_key.fingerprint(),
            link.validity.not_before,
            link.validity.not_after
        );
    }
    let verified = DelegationChain::verify_request(
        view.caps(),
        view.hops(Some((*peer, 1))),
        cas_pk,
        Timestamp(0),
        rar_id.0,
    )
    .expect("the §6.5 checklist passes at BB_C");
    assert_eq!(verified.holder_key, s.nodes[*at].public_key());
    assert!(verified
        .restrictions
        .contains(&Restriction::ValidForRar(rar_id.0)));
    println!("\n§6.5 checklist on that chain: PASS");
    println!("  capabilities: {:?}", verified.capabilities);
    println!("  restrictions: {:?}", verified.restrictions);
    println!("  holder      : {} (BB_C's own key)", verified.holder);
    println!("  signatures  : {} checked here", verified.signatures);

    write_metrics_snapshot("fig7_delegation", &registry);
    println!(
        "\nexpected: 2/3/4 entries at A/B/C (the figure's counts), read off\n\
         the envelopes; each broker's link is its signed request layer, so\n\
         it is valid for this RAR only; the checklist passes at the\n\
         destination, which holds the key the chain ends at (see also the\n\
         capability_delegation example for the narrated version; tampered\n\
         links: `delegation::tests::any_tampered_link_fails`)."
    );
}
