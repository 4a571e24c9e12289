//! Figure 7: cascaded capability delegation, printed step by step.
//!
//! The user obtains an ESnet capability certificate from a Community
//! Authorization Server at grid-login, then each hop re-delegates it
//! using the downstream broker's real public key as the proxy key
//! (Neuman's cascade). The destination runs the §6.5 verification
//! checklist over the full chain.
//!
//! This is the cascade in its textbook form, every link a certificate.
//! On the signalling path only the user's two links are certificates:
//! a broker's link is the request layer it signs anyway (DESIGN.md
//! §D22) — `fig7_delegation` prints that chain off real messages.
//!
//! ```sh
//! cargo run -p qos-examples --bin capability_delegation
//! ```

use qos_crypto::{
    CommunityAuthorizationServer, DelegationChain, DistinguishedName, KeyPair, Restriction,
    Timestamp, Validity,
};

fn print_chain(owner: &str, chain: &DelegationChain) {
    println!(
        "capability list received by {owner} ({} certificates):",
        chain.len()
    );
    for cert in &chain.certs {
        println!(
            "  - issuer: {}\n    subject: {}\n    caps: {:?} restrictions: {:?}",
            cert.tbs().issuer,
            cert.tbs().subject,
            cert.capabilities(),
            cert.restrictions()
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
        );
    }
    println!();
}

fn main() {
    // Grid-login: the CAS issues Alice a capability certificate bound to
    // a fresh proxy key.
    let mut cas = CommunityAuthorizationServer::new("ESnet", KeyPair::from_seed(b"cas"));
    let alice_proxy = KeyPair::from_seed(b"alice-proxy");
    let alice_dn = DistinguishedName::user("Alice", "ANL");
    let grant = cas.grant(
        &alice_dn,
        alice_proxy.public(),
        vec!["ESnet:member".into()],
        Validity::unbounded(),
    );
    println!("=== grid-login: CAS issues Alice's capability ===\n");
    let chain = DelegationChain::new(grant);
    print_chain("Alice", &chain);

    // Brokers along the path.
    let bb: Vec<(String, KeyPair)> = ["domain-a", "domain-b", "domain-c"]
        .iter()
        .map(|d| {
            (
                d.to_string(),
                KeyPair::from_seed(format!("bb-{d}").as_bytes()),
            )
        })
        .collect();

    // Alice delegates to BB_A, restricting to reservations in domain C.
    println!("=== Alice delegates to BB_A (restriction: valid for domain-c) ===\n");
    let chain = chain
        .delegate(
            &alice_proxy,
            DistinguishedName::broker(&bb[0].0),
            bb[0].1.public(),
            vec![Restriction::ValidForDomain("domain-c".into())],
            Validity::unbounded(),
        )
        .unwrap();
    print_chain("BB_A", &chain);

    // BB_A → BB_B.
    println!("=== BB_A delegates to BB_B ===\n");
    let chain = chain
        .delegate(
            &bb[0].1,
            DistinguishedName::broker(&bb[1].0),
            bb[1].1.public(),
            vec![],
            Validity::unbounded(),
        )
        .unwrap();
    print_chain("BB_B", &chain);

    // BB_B → BB_C, bound to the concrete RAR.
    println!("=== BB_B delegates to BB_C (restriction: valid for RAR 111) ===\n");
    let chain = chain
        .delegate(
            &bb[1].1,
            DistinguishedName::broker(&bb[2].0),
            bb[2].1.public(),
            vec![Restriction::ValidForRar(111)],
            Validity::unbounded(),
        )
        .unwrap();
    print_chain("BB_C", &chain);

    // §6.5 verification checklist at the destination.
    println!("=== BB_C runs the §6.5 verification checklist ===\n");
    let nonce = b"fresh-challenge";
    let proof = bb[2].1.prove_possession(nonce);
    match chain.verify(cas.public_key(), Timestamp(0), nonce, &proof) {
        Ok(verified) => {
            println!("chain VERIFIED");
            println!("  holder       : {}", verified.holder);
            println!("  capabilities : {:?}", verified.capabilities);
            println!(
                "  restrictions : {:?}",
                verified
                    .restrictions
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
            );
            println!("\nthe policy engine can now use the ESnet attributes for authorization.");
        }
        Err(e) => println!("chain REJECTED: {e}"),
    }

    // Show that tampering is caught.
    println!("\n=== tamper check: BB_B tries to widen the capabilities ===\n");
    let mut tampered = chain.clone();
    if let Some(cert) = tampered.certs.last_mut() {
        let mut tbs = cert.tbs().clone();
        for ext in &mut tbs.extensions {
            if let qos_crypto::Extension::Capabilities(caps) = ext {
                caps.push("ESnet:admin".into());
            }
        }
        // Re-sign with BB_B's key (it legitimately signs this link).
        *cert = qos_crypto::Certificate::issue(tbs, &bb[1].1);
    }
    let proof = bb[2].1.prove_possession(nonce);
    match tampered.verify(cas.public_key(), Timestamp(0), nonce, &proof) {
        Ok(_) => println!("!!! tampering went undetected (bug)"),
        Err(e) => println!("tampering detected: {e}"),
    }
}
