//! Steady-state reconnect behaviour: session resumption skips every
//! Schnorr operation, and a successful handshake re-arms the reconnect
//! backoff at its base delay.
//!
//! The Schnorr operation counters (`qos_crypto::schnorr::{sign_ops,
//! verify_ops}`) are process-wide, so the tests in this file serialize
//! through [`LOCK`] and snapshot the counters only around the section
//! under test, after every fixture (CA, identity certificates, sessions)
//! is already built.

use qos_core::channel::{ChannelIdentity, PeerPin};
use qos_core::scenario::{build_chain, ChainOptions};
use qos_crypto::{CertificateAuthority, DistinguishedName, KeyPair, Timestamp, Validity};
use qos_storage::{FileStore, FileStoreOptions, SharedStore};
use qos_transport::{
    BrokerDaemon, Completions, DaemonConfig, Established, Handshake, HandshakeKind, PeerMsg,
    ResumeTicket, TicketIssuer, TransportOptions,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serializes the tests in this binary: both perturb process-wide state
/// (the Schnorr operation counters).
static LOCK: Mutex<()> = Mutex::new(());

fn identity(ca: &mut CertificateAuthority, domain: &str) -> ChannelIdentity {
    let key = KeyPair::from_seed(domain.as_bytes());
    let cert = ca.issue_identity(
        DistinguishedName::broker(domain),
        key.public(),
        Validity::unbounded(),
    );
    ChannelIdentity { key, cert }
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

/// One resumable handshake between `alpha` (initiator) and `beta`
/// (responder backed by `issuer`), the two handshake states run over a
/// loopback socket pair.
fn resumable_pair(
    ia: &ChannelIdentity,
    ib: ChannelIdentity,
    ca_key: qos_crypto::PublicKey,
    ticket: Option<&ResumeTicket>,
    issuer: Arc<TicketIssuer>,
) -> (
    (Established, HandshakeKind, Option<ResumeTicket>),
    (Established, HandshakeKind),
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let responder = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let pins = HashMap::from([(
            "alpha".to_string(),
            PeerPin {
                ca_key,
                dn: DistinguishedName::broker("alpha"),
            },
        )]);
        let hs = Handshake::accept(
            Arc::new(ib),
            Arc::new(pins),
            Some(issuer),
            2,
            Timestamp::ZERO,
        );
        drive(stream, hs)
    });
    let stream = TcpStream::connect(addr).unwrap();
    let pin = PeerPin {
        ca_key,
        dn: DistinguishedName::broker("beta"),
    };
    let hs = Handshake::dial(
        Arc::new(ia.clone()),
        pin,
        ticket.cloned(),
        true,
        1,
        Timestamp::ZERO,
    );
    let mut a = drive(stream, hs);
    let b = responder.join().unwrap();
    let (kind_a, fresh, kind_b) = (a.kind, a.ticket.take(), b.kind);
    ((a, kind_a, fresh), (b, kind_b))
}

/// ISSUE acceptance: a resumed reconnect performs **zero** Schnorr
/// operations — no signatures made, none verified — on either side.
#[test]
fn resumed_reconnect_performs_zero_schnorr_operations() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Fixture first: the CA and both identity certificates cost signing
    // operations, so they must exist before the counters are read.
    let mut ca = CertificateAuthority::new(
        DistinguishedName::authority("CA"),
        KeyPair::from_seed(b"ca"),
    );
    let ca_key = ca.public_key();
    let ia = identity(&mut ca, "alpha");
    let ib = identity(&mut ca, "beta");
    let ib2 = ib.clone();
    let issuer = Arc::new(TicketIssuer::with_key([7; 32], 3600, 16));

    // Round 1: the full handshake (signatures on both sides) earns the
    // resumption ticket.
    let ((_, kind_a, ticket), (_, kind_b)) = resumable_pair(&ia, ib, ca_key, None, issuer.clone());
    assert_eq!(kind_a, HandshakeKind::Full);
    assert_eq!(kind_b, HandshakeKind::Full);
    let ticket = ticket.expect("full handshake must yield a ticket");

    // Round 2: reconnect with the ticket, counting every Schnorr
    // operation the whole process performs in the meantime.
    let signs_before = qos_crypto::schnorr::sign_ops();
    let verifies_before = qos_crypto::schnorr::verify_ops();
    let ((mut a2, kind_a2, fresh), (mut b2, kind_b2)) =
        resumable_pair(&ia, ib2, ca_key, Some(&ticket), issuer);
    assert_eq!(kind_a2, HandshakeKind::Resumed);
    assert_eq!(kind_b2, HandshakeKind::Resumed);
    assert!(fresh.is_none(), "a resumed session keeps its old ticket");

    // The resumed ends must actually agree on the keys: what one
    // seals the other opens, both ways…
    for (seal, open, plain) in [
        (&mut a2.seal, &mut b2.open, &b"resumed"[..]),
        (&mut b2.seal, &mut a2.open, b"ack"),
    ] {
        let (seq, mac) = seal.seal_in_place(plain);
        open.open_in_place(plain, seq, &mac).unwrap();
    }

    // …and the entire reconnect + exchange costs zero Schnorr work.
    assert_eq!(
        qos_crypto::schnorr::sign_ops() - signs_before,
        0,
        "resumed reconnect must not create any signature"
    );
    assert_eq!(
        qos_crypto::schnorr::verify_ops() - verifies_before,
        0,
        "resumed reconnect must not verify any signature"
    );
}

fn bind_addr(addr: SocketAddr) -> TcpListener {
    // The previous daemon's listener may take a moment to release the
    // port after shutdown.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return l,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("cannot rebind {addr}: {e}"),
        }
    }
}

fn wait_peers(d: &BrokerDaemon, n: usize, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if d.connected_peers() == n {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    d.connected_peers() == n
}

/// Regression test for the reconnect backoff: one long outage must not
/// inflate the recovery time of the *next* outage. After a successful
/// handshake (full or resumed) the connector re-arms the backoff at its
/// base delay, so a peer that flaps right after recovering is redialed
/// within milliseconds, not at the delay the previous outage had grown.
#[test]
fn backoff_resets_after_successful_handshake() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let mut s = build_chain(ChainOptions {
        domains: 2,
        ..ChainOptions::default()
    });
    let ids = s.identities();
    let node_b = s.nodes.remove(1);
    let node_a = s.nodes.remove(0);
    let (dom_a, dom_b) = (s.domains[0].clone(), s.domains[1].clone());
    let ca_key = s.ca_key;

    let options = TransportOptions {
        backoff_base: Duration::from_millis(25),
        backoff_cap: Duration::from_secs(5),
        ..TransportOptions::default()
    };
    let completions = Arc::new(Completions::new());

    let start_b = |node| {
        BrokerDaemon::start(
            node,
            DaemonConfig {
                identity: ids[&dom_b].clone(),
                ca_key,
                listener: bind_addr("127.0.0.1:0".parse().unwrap()),
                connect_to: HashMap::new(),
                accept_from: vec![dom_a.clone()],
                completions: Arc::clone(&completions),
                telemetry: qos_telemetry::Telemetry::disabled(),
                options: options.clone(),
                admin: None,
            },
        )
        .unwrap()
    };

    // B comes up first on an ephemeral port; every later restart rebinds
    // that same port so A's connector keeps dialing the right address.
    let daemon_b = start_b(node_b);
    let addr_b = daemon_b.local_addr();

    let daemon_a = BrokerDaemon::start(
        node_a,
        DaemonConfig {
            identity: ids[&dom_a].clone(),
            ca_key,
            listener: bind_addr("127.0.0.1:0".parse().unwrap()),
            connect_to: HashMap::from([(dom_b.clone(), addr_b)]),
            accept_from: Vec::new(),
            completions: Arc::clone(&completions),
            telemetry: qos_telemetry::Telemetry::disabled(),
            options: options.clone(),
            admin: None,
        },
    )
    .unwrap();
    assert!(daemon_a.wait_connected(Duration::from_secs(10)));

    let restart_b = |daemon: BrokerDaemon| {
        let node = daemon.shutdown();
        assert!(
            wait_peers(&daemon_a, 0, Duration::from_secs(5)),
            "A must notice the dead peer"
        );
        node
    };

    // Outage 1: leave B down long enough for A's backoff to climb well
    // past the base delay (25 → 50 → … → 1600ms pending).
    let node_b = restart_b(daemon_b);
    std::thread::sleep(Duration::from_millis(1750));
    let daemon_b = BrokerDaemon::start(
        node_b,
        DaemonConfig {
            identity: ids[&dom_b].clone(),
            ca_key,
            listener: bind_addr(addr_b),
            connect_to: HashMap::new(),
            accept_from: vec![dom_a.clone()],
            completions: Arc::clone(&completions),
            telemetry: qos_telemetry::Telemetry::disabled(),
            options: options.clone(),
            admin: None,
        },
    )
    .unwrap();
    assert!(
        wait_peers(&daemon_a, 1, Duration::from_secs(10)),
        "A must reconnect after the first outage"
    );

    // Outage 2, immediately after recovery. If the successful handshake
    // had not reset the backoff, A's next dial would wait out the delay
    // outage 1 grew (≥3.2s); with the reset it retries from 25ms.
    let node_b = restart_b(daemon_b);
    let listener = bind_addr(addr_b);
    let t0 = Instant::now();
    let daemon_b = BrokerDaemon::start(
        node_b,
        DaemonConfig {
            identity: ids[&dom_b].clone(),
            ca_key,
            listener,
            connect_to: HashMap::new(),
            accept_from: vec![dom_a.clone()],
            completions: Arc::clone(&completions),
            telemetry: qos_telemetry::Telemetry::disabled(),
            options: options.clone(),
            admin: None,
        },
    )
    .unwrap();
    assert!(
        wait_peers(&daemon_a, 1, Duration::from_secs(10)),
        "A must reconnect after the second outage"
    );
    let recovery = t0.elapsed();
    assert!(
        recovery < Duration::from_secs(2),
        "backoff did not reset: second recovery took {recovery:?}"
    );

    daemon_a.shutdown();
    daemon_b.shutdown();
}

/// ISSUE 8 satellite: the ticket issuer's MAC key and every issued
/// entry are journalled through the durable ledger, so a daemon
/// restarted from its data dir keeps honouring tickets issued before
/// the restart — the initiator's reconnect is a *resumed* handshake
/// costing zero Schnorr operations, even though the acceptor process
/// state was rebuilt from disk.
#[test]
fn resume_survives_daemon_restart_via_durable_ledger() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let dir = std::env::temp_dir().join(format!("qos-resume-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut s = build_chain(ChainOptions {
        domains: 2,
        ..ChainOptions::default()
    });
    let ids = s.identities();
    let node_b = s.nodes.remove(1);
    let node_a = s.nodes.remove(0);
    let (dom_a, dom_b) = (s.domains[0].clone(), s.domains[1].clone());
    let ca_key = s.ca_key;

    let options = TransportOptions {
        backoff_base: Duration::from_millis(25),
        backoff_cap: Duration::from_secs(5),
        ..TransportOptions::default()
    };
    let completions = Arc::new(Completions::new());

    // B's first life: an empty data dir, so nothing to recover.
    let store: SharedStore = Arc::new(FileStore::open(&dir, FileStoreOptions::default()).unwrap());
    assert!(store.take_recovered().is_empty());
    node_b.attach_store(Arc::clone(&store));
    drop(store);

    let daemon_b = BrokerDaemon::start(
        node_b,
        DaemonConfig {
            identity: ids[&dom_b].clone(),
            ca_key,
            listener: bind_addr("127.0.0.1:0".parse().unwrap()),
            connect_to: HashMap::new(),
            accept_from: vec![dom_a.clone()],
            completions: Arc::clone(&completions),
            telemetry: qos_telemetry::Telemetry::disabled(),
            options: options.clone(),
            admin: None,
        },
    )
    .unwrap();
    let addr_b = daemon_b.local_addr();

    let daemon_a = BrokerDaemon::start(
        node_a,
        DaemonConfig {
            identity: ids[&dom_a].clone(),
            ca_key,
            listener: bind_addr("127.0.0.1:0".parse().unwrap()),
            connect_to: HashMap::from([(dom_b.clone(), addr_b)]),
            accept_from: Vec::new(),
            completions: Arc::clone(&completions),
            telemetry: qos_telemetry::Telemetry::disabled(),
            options: options.clone(),
            admin: None,
        },
    )
    .unwrap();
    // The full handshake issues A's ticket and journals it (plus the
    // issuer key) through B's WAL.
    assert!(daemon_a.wait_connected(Duration::from_secs(10)));

    // B goes down; dropping its node drops the last store handle, which
    // drains the group-commit buffers to disk.
    let node_b = daemon_b.shutdown();
    drop(node_b);
    assert!(
        wait_peers(&daemon_a, 0, Duration::from_secs(5)),
        "A must notice the dead peer"
    );

    // B's second life: a *fresh* node rebuilt from the same seeds plus
    // whatever the data dir holds. All fixture work (chain build signs
    // certificates, recovery decodes the WAL) happens before the Schnorr
    // counters are read.
    let mut s2 = build_chain(ChainOptions {
        domains: 2,
        ..ChainOptions::default()
    });
    let mut node_b2 = s2.nodes.remove(1);
    let store: SharedStore = Arc::new(FileStore::open(&dir, FileStoreOptions::default()).unwrap());
    let recovered = store.take_recovered();
    assert!(
        !recovered.is_empty(),
        "the first life must have journalled ticket state"
    );
    node_b2.recover_from(&recovered);
    node_b2.attach_store(Arc::clone(&store));
    drop(store);

    let signs_before = qos_crypto::schnorr::sign_ops();
    let verifies_before = qos_crypto::schnorr::verify_ops();
    let daemon_b = BrokerDaemon::start(
        node_b2,
        DaemonConfig {
            identity: ids[&dom_b].clone(),
            ca_key,
            listener: bind_addr(addr_b),
            connect_to: HashMap::new(),
            accept_from: vec![dom_a.clone()],
            completions: Arc::clone(&completions),
            telemetry: qos_telemetry::Telemetry::disabled(),
            options,
            admin: None,
        },
    )
    .unwrap();
    assert!(
        wait_peers(&daemon_a, 1, Duration::from_secs(10)),
        "A must reconnect to the restarted B"
    );
    assert_eq!(
        qos_crypto::schnorr::sign_ops() - signs_before,
        0,
        "reconnect to a restarted acceptor must resume, not re-sign"
    );
    assert_eq!(
        qos_crypto::schnorr::verify_ops() - verifies_before,
        0,
        "reconnect to a restarted acceptor must not verify signatures"
    );

    daemon_a.shutdown();
    daemon_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
