//! Hop-by-hop trace timeline for one end-to-end reservation.
//!
//! A single RAR travels A→B→C under a shared virtual clock; every broker
//! records per-step spans (submit, queue wait, envelope verification,
//! policy decision, admission, signing, forwarding, approval endorsement)
//! keyed by one deterministic `TraceId`. The example prints the merged
//! timeline and then proves the observability layer honest: the hop
//! sequence reconstructed from spans must equal, hop for hop, the signer
//! path cryptographically recovered from the verified envelope nest at
//! the destination.
//!
//! Run with: `cargo run --bin trace_timeline`

use qos_core::node::Completion;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::Timestamp;
use qos_net::SimDuration;
use qos_telemetry::{render_prometheus, render_timeline, Registry, Span, Telemetry, TraceId};

const MBPS: u64 = 1_000_000;

fn main() {
    println!("trace_timeline: one RAR, every hop, one clock\n");

    // A shared registry + tracing on every broker in a 3-domain line.
    let registry = Registry::new();
    let mut s = build_chain(ChainOptions {
        telemetry: Telemetry::with_registry(registry.clone()),
        tracing: true,
        ..ChainOptions::default()
    });
    let domains = s.domains.clone();
    let dest = domains.last().unwrap().clone();

    let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
    let rar_id = spec.rar_id;
    let source_domain = spec.source_domain.clone();
    let rar = s.users["alice"].sign_request(spec, &s.nodes[0]);
    let cert = s.users["alice"].cert.clone();

    // Every broker re-derives the same trace id from the signed fields,
    // so we can compute it here without any side channel.
    let trace = TraceId::mint(&source_domain, rar_id.0);

    let mut mesh = s.mesh(SimDuration::from_millis(5));

    // `Mesh` times spans on the DES virtual clock: timestamps below are
    // simulated nanoseconds, deterministic across runs.
    mesh.submit_in(SimDuration::ZERO, &domains[0], rar, cert);
    mesh.run_until_idle();

    let outcome = mesh.reservation_outcome(&domains[0], rar_id);
    assert!(
        matches!(
            outcome,
            Some((_, Completion::Reservation { result: Ok(_), .. }))
        ),
        "the demo reservation should be granted, got {outcome:?}"
    );

    // Merge each broker's span log for this trace into one timeline.
    let mut spans: Vec<Span> = Vec::new();
    for d in &domains {
        spans.extend(mesh.node(d).tracer().for_trace(trace).into_iter().cloned());
    }
    println!("trace {trace} (rar {rar_id:?}), granted end-to-end:\n");
    print!("{}", render_timeline(&spans));

    // The observable hop sequence: brokers ordered by when the request
    // reached them (its submit / recv_request span).
    let mut hops: Vec<(u64, String)> = spans
        .iter()
        .filter(|sp| matches!(sp.kind.as_str(), "submit" | "recv_request"))
        .map(|sp| (sp.start_ns, sp.domain.clone()))
        .collect();
    hops.sort();
    let hop_seq: Vec<String> = hops.into_iter().map(|(_, d)| d).collect();

    // The cryptographic ground truth: the signer path the destination
    // recovered when it verified the envelope nest (innermost first:
    // the user, then each wrapping broker).
    let path = mesh
        .node(&dest)
        .verified_signer_path(rar_id)
        .expect("destination verified the nest")
        .to_vec();

    println!("\nspan hop sequence : {}", hop_seq.join(" -> "));
    println!(
        "verified signers  : {}",
        path.iter()
            .map(|dn| match dn.common_name() {
                Some("BB") => format!("BB@{}", dn.org_unit().unwrap_or("?")),
                other => other.unwrap_or("?").to_string(),
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // Cross-check, hop for hop. The envelope's signers are the user plus
    // every broker *before* the destination; the destination itself is
    // the verifier, so it terminates the span chain instead of signing.
    assert_eq!(
        hop_seq.len(),
        path.len(),
        "span chain length must equal envelope depth"
    );
    for (i, dn) in path.iter().enumerate().skip(1) {
        assert_eq!(
            dn.org_unit(),
            Some(hop_seq[i - 1].as_str()),
            "signer {i} must be the broker of observed hop {}",
            i - 1
        );
    }
    assert_eq!(
        hop_seq.last().map(String::as_str),
        Some(dest.as_str()),
        "the span chain must end at the verifying destination"
    );
    println!("\nspan chain matches the verified signer path hop for hop ✓");

    // The same run, through the metrics registry.
    println!("\nselected registry families:\n");
    for line in render_prometheus(&registry).lines() {
        if line.contains("bb_messages_")
            || line.contains("bb_signatures_")
            || line.contains("bb_admission_total")
            || line.contains("pdp_decisions_total")
        {
            println!("  {line}");
        }
    }
}
