//! EXP-W — the steady-state warm path: what a repeat costs.
//!
//! Nothing remembers a verification verdict (DESIGN.md §D29), so a
//! depth-8 envelope verified again costs what it cost the first time;
//! that time is printed, not gated. One claim is a hard gate (non-zero
//! exit on failure, CI enforces):
//!
//! * **Session resumption** — a ticket-resumed reconnect performs
//!   *zero* Schnorr operations (no signatures created, none verified)
//!   and beats the full signature handshake on latency.
//!
//! Besides the table, the run appends itself to `BENCH_warm.json` and
//! writes `METRICS_warm_path.{prom,json}`; the metrics snapshot carries
//! the `resumed_handshakes_total` family.

use qos_bench::{experiment_registry, record, table_header, table_row, write_metrics_snapshot};
use qos_broker::Interval;
use qos_core::channel::{ChannelIdentity, PeerPin};
use qos_core::envelope::SignedRar;
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::trust::{verify_rar, KeySource};
use qos_core::{RarId, ResSpec};
use qos_crypto::{
    CertificateAuthority, DistinguishedName, KeyPair, Timestamp, TrustPolicy, Validity,
};
use qos_policy::AttributeSet;
use qos_telemetry::{Artifact, Row};
use qos_transport::session::fresh_nonce;
use qos_transport::{
    Established, Handshake, HandshakeKind, PeerMsg, ResumeTicket, TcpMesh, TicketIssuer,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const MBPS: u64 = 1_000_000;
const ENVELOPE_HOPS: usize = 8;
const VERIFY_REPS: usize = 100;
const HANDSHAKE_REPS: usize = 15;
const HANDSHAKE_WARMUPS: usize = 3;

fn domain(i: usize) -> String {
    format!("domain-{i:02}")
}

/// Build the depth-`hops` nested envelope of EXP-S and time `reps`
/// destination verifications, returning µs per verification.
fn envelope_verify_us(hops: usize, reps: usize) -> f64 {
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let user = KeyPair::from_seed(b"alice");
    let user_cert = ca.issue_identity(
        DistinguishedName::user("Alice", "ANL"),
        user.public(),
        Validity::unbounded(),
    );
    let keys: Vec<KeyPair> = (0..hops)
        .map(|i| KeyPair::from_seed(domain(i).as_bytes()))
        .collect();
    let certs: Vec<_> = (0..hops)
        .map(|i| {
            ca.issue_identity(
                DistinguishedName::broker(&domain(i)),
                keys[i].public(),
                Validity::unbounded(),
            )
        })
        .collect();
    let spec = ResSpec::new(
        RarId(1),
        DistinguishedName::user("Alice", "ANL"),
        &domain(0),
        &domain(hops),
        7,
        10_000_000,
        Interval::starting_at(Timestamp(0), 3600),
    );
    let mut rar =
        SignedRar::user_request(spec, DistinguishedName::broker(&domain(0)), vec![], &user);
    let mut upstream = user_cert;
    for i in 0..hops {
        rar = SignedRar::wrap(
            rar,
            upstream,
            Some(DistinguishedName::broker(&domain(i + 1))),
            vec![],
            AttributeSet::new(),
            DistinguishedName::broker(&domain(i)),
            &keys[i],
        );
        upstream = certs[i].clone();
    }

    let t0 = Instant::now();
    for _ in 0..reps {
        verify_rar(
            &rar,
            keys[hops - 1].public(),
            &DistinguishedName::broker(&domain(hops)),
            TrustPolicy {
                max_chain_depth: 64,
            },
            Timestamp(0),
            &KeySource::Introducers,
        )
        .unwrap();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Run one side's handshake state over a blocking socket until it ends:
/// what it says goes out, each frame that comes back goes in.
fn drive(mut stream: TcpStream, mut hs: Handshake) -> Established {
    // As a daemon's sockets: no Nagle delay on a handshake message.
    stream.set_nodelay(true).unwrap();
    let mut out = Vec::new();
    hs.start(&mut out);
    loop {
        stream.write_all(&out).unwrap();
        out.clear();
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut body = vec![0; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut body).unwrap();
        let msg: PeerMsg = qos_wire::from_bytes(&body).unwrap();
        if let Some(done) = hs.recv(msg, &mut out).unwrap() {
            stream.write_all(&out).unwrap();
            return done;
        }
    }
}

/// A loopback handshake rig: one listener, one responder thread looping
/// over `accepts` connections, each side's handshake state driven over
/// its blocking socket. Reusing the rig (instead of spawning a listener
/// and thread per repetition) keeps the measured interval down to
/// connect + handshake, so the 1-RTT-vs-2-RTT and zero-signature
/// differences aren't drowned in setup noise.
struct HandshakeRig {
    addr: std::net::SocketAddr,
    pin: PeerPin,
    responder: Option<std::thread::JoinHandle<()>>,
}

impl HandshakeRig {
    fn start(
        ib: ChannelIdentity,
        ca_key: qos_crypto::PublicKey,
        issuer: Arc<TicketIssuer>,
        accepts: usize,
    ) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let responder = std::thread::spawn(move || {
            let pins = Arc::new(HashMap::from([(
                "alpha".to_string(),
                PeerPin {
                    ca_key,
                    dn: DistinguishedName::broker("alpha"),
                },
            )]));
            let ib = Arc::new(ib);
            for _ in 0..accepts {
                let (stream, _) = listener.accept().unwrap();
                let hs = Handshake::accept(
                    ib.clone(),
                    pins.clone(),
                    Some(issuer.clone()),
                    fresh_nonce().unwrap(),
                    Timestamp::ZERO,
                );
                // The socket closes as it drops.
                drive(stream, hs);
            }
        });
        HandshakeRig {
            addr,
            pin: PeerPin {
                ca_key,
                dn: DistinguishedName::broker("beta"),
            },
            responder: Some(responder),
        }
    }

    /// One handshake; `ticket` selects resumed vs full. Returns
    /// (latency µs, fresh ticket if the handshake was full, kind).
    fn handshake(
        &self,
        ia: &Arc<ChannelIdentity>,
        ticket: Option<&ResumeTicket>,
    ) -> (f64, Option<ResumeTicket>, HandshakeKind) {
        let stream = TcpStream::connect(self.addr).unwrap();
        let t0 = Instant::now();
        let hs = Handshake::dial(
            ia.clone(),
            self.pin.clone(),
            ticket.cloned(),
            true,
            fresh_nonce().unwrap(),
            Timestamp::ZERO,
        );
        let done = drive(stream, hs);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        (us, done.ticket, done.kind)
    }

    fn finish(mut self) {
        if let Some(h) = self.responder.take() {
            let _ = h.join();
        }
    }
}

fn main() {
    println!("EXP-W: steady-state warm path\n");
    let (registry, telemetry) = experiment_registry();
    let mut artifact = Artifact::new(
        "exp_warm_path",
        "mixed (us; verdicts)",
        "depth-8 envelope verification, repeated (printed, not gated), and \
         full vs resumed handshake latency (resumed must cost zero Schnorr \
         ops; hard gates, non-zero exit on failure)",
    );
    let mut failures: Vec<String> = Vec::new();

    // Part 1 — envelope verification: every repeat walks the whole nest.
    println!("depth-{ENVELOPE_HOPS} envelope verification ({VERIFY_REPS} reps):");
    let widths = [14];
    table_header(&["µs/verify"], &widths);
    let verify_us = envelope_verify_us(ENVELOPE_HOPS, VERIFY_REPS);
    table_row(&[format!("{verify_us:.1}")], &widths);
    artifact.push(
        Row::new()
            .field("section", "envelope_verify")
            .field("hops", ENVELOPE_HOPS)
            .field("verify_us", verify_us),
    );

    // Part 2 — handshake latency, full vs resumed, with the zero-Schnorr
    // gate on the resumed path. The rig (one listener, one looping
    // responder, identities issued once up front) isolates the handshake
    // itself; min-of-reps discards scheduler noise.
    println!(
        "\nloopback handshake ({HANDSHAKE_REPS} reps each, {HANDSHAKE_WARMUPS} warm-ups, min):"
    );
    let widths = [18, 14, 14];
    table_header(&["handshake", "min(µs)", "schnorr ops"], &widths);
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let ca_key = ca.public_key();
    let mut broker_identity = |name: &str| ChannelIdentity {
        key: KeyPair::from_seed(name.as_bytes()),
        cert: ca.issue_identity(
            DistinguishedName::broker(name),
            KeyPair::from_seed(name.as_bytes()).public(),
            Validity::unbounded(),
        ),
    };
    let ia = Arc::new(broker_identity("alpha"));
    let ib = broker_identity("beta");
    let issuer = Arc::new(TicketIssuer::with_key([9; 32], 3600, 64));
    let rounds = HANDSHAKE_WARMUPS + HANDSHAKE_REPS;
    let rig = HandshakeRig::start(ib, ca_key, issuer.clone(), 2 * rounds);

    let mut ticket = None;
    let mut full_min = f64::INFINITY;
    let mut full_ops = 0;
    for i in 0..rounds {
        let ops0 = qos_crypto::schnorr::sign_ops() + qos_crypto::schnorr::verify_ops();
        let (us, fresh, kind) = rig.handshake(&ia, None);
        assert_eq!(kind, HandshakeKind::Full);
        if i >= HANDSHAKE_WARMUPS {
            full_min = full_min.min(us);
            full_ops = qos_crypto::schnorr::sign_ops() + qos_crypto::schnorr::verify_ops() - ops0;
        }
        if fresh.is_some() {
            ticket = fresh;
        }
    }

    let ticket = ticket.expect("full handshakes yield a ticket");
    let signs0 = qos_crypto::schnorr::sign_ops();
    let verifies0 = qos_crypto::schnorr::verify_ops();
    let mut resumed_min = f64::INFINITY;
    for i in 0..rounds {
        let (us, _, kind) = rig.handshake(&ia, Some(&ticket));
        if i >= HANDSHAKE_WARMUPS {
            resumed_min = resumed_min.min(us);
        }
        if kind != HandshakeKind::Resumed {
            failures.push("ticket reconnect fell back to a full handshake".into());
            break;
        }
    }
    rig.finish();
    // Across every resumed round (warm-ups included) the process-wide
    // Schnorr counters must not move: the ticket path neither signs nor
    // verifies anything.
    let resumed_ops = (qos_crypto::schnorr::sign_ops() - signs0)
        + (qos_crypto::schnorr::verify_ops() - verifies0);
    table_row(
        &[
            "full".to_string(),
            format!("{full_min:.1}"),
            format!("{full_ops}"),
        ],
        &widths,
    );
    table_row(
        &[
            "resumed".to_string(),
            format!("{resumed_min:.1}"),
            format!("{resumed_ops}"),
        ],
        &widths,
    );
    artifact.push(
        Row::new()
            .field("section", "handshake")
            .field("full_us", full_min)
            .field("resumed_us", resumed_min)
            .field("full_schnorr_ops", full_ops)
            .field("resumed_schnorr_ops", resumed_ops),
    );
    if resumed_ops != 0 {
        failures.push(format!(
            "resumed handshakes performed {resumed_ops} Schnorr operations; the \
             ticket path must perform none"
        ));
    }
    if resumed_min >= full_min {
        failures.push(format!(
            "resumed handshake ({resumed_min:.1}µs) is not faster than the full \
             handshake ({full_min:.1}µs)"
        ));
    }

    // Part 3 — a steady-state mesh run with a live registry, so the
    // snapshot carries the resumption metric family: two reservation
    // waves, then a severed-and-resumed reconnect on every link.
    println!("\nwarm mesh run (metrics snapshot):");
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: 1000 * MBPS,
        telemetry: telemetry.clone(),
        ..ChainOptions::default()
    });
    let mut waves = Vec::new();
    for wave in 0..2u64 {
        let mut rars = Vec::new();
        for i in 0..8u64 {
            let spec = s.spec("alice", 1000 + wave * 100 + i, 5 * MBPS, Timestamp(0), 3600);
            rars.push(s.users["alice"].sign_request(spec, &s.nodes[0]));
        }
        waves.push(rars);
    }
    let cert = s.users["alice"].cert.clone();
    let mut mesh = TcpMesh::new();
    mesh.set_telemetry(telemetry.clone());
    let ids = s.identities();
    mesh.spawn(std::mem::take(&mut s.nodes), ids, &s.links, s.ca_key)
        .expect("loopback mesh comes up");
    for rars in waves {
        let n = rars.len();
        mesh.submit_all(
            "domain-a",
            rars.into_iter().map(|r| (r, cert.clone())).collect(),
        );
        mesh.wait_completions(n);
    }
    // Sever every link; dialed links reconnect on their cached tickets.
    mesh.kill_connections();
    if !mesh.wait_connected(std::time::Duration::from_secs(10)) {
        failures.push("mesh did not reconnect after kill_connections".into());
    }
    mesh.shutdown();
    let resumed_ab = registry
        .counter_value(
            "resumed_handshakes_total",
            &[("domain", "domain-a"), ("peer", "domain-b")],
        )
        .unwrap_or(0);
    println!("  domain-a→domain-b resumed handshakes: {resumed_ab}");
    if resumed_ab == 0 {
        failures.push("no resumed handshake after severing the mesh links".into());
    }
    artifact.push(
        Row::new()
            .field("section", "warm_mesh")
            .field("resumed_handshakes_ab", resumed_ab),
    );

    println!();
    let config = Row::new()
        .field("envelope_hops", ENVELOPE_HOPS)
        .field("verify_reps", VERIFY_REPS)
        .field("handshake_reps", HANDSHAKE_REPS)
        .field("handshake_warmups", HANDSHAKE_WARMUPS);
    record("BENCH_warm.json", &artifact, config);
    write_metrics_snapshot("warm_path", &registry);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("\nFAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "\nexpected: a repeated depth-8 verification costs a whole walk\n\
         (8–9 µs on a 2-vCPU host); a resumed reconnect runs zero Schnorr\n\
         operations and undercuts the full handshake."
    );
}
