//! The fabric never changes an admission outcome: the cases and the
//! harness behind that check.
//!
//! A case runs first on the deterministic `drive::Mesh` — plain
//! `BbNode`s, no threads, no channels — and that reference is checked in
//! absolute terms: the case's grants commit their rate in every domain,
//! and a denial leaves nothing held. Both sides run the same product
//! code, so without those checks a fault in it would agree with itself.
//! A `TcpMesh` run of the case must then reproduce the reference: the
//! same number of grants and the same unreserved capacity in every
//! domain.

use crate::{build_chain, ChainOptions, Scenario, MBPS};
use qos_core::node::{BbNode, Completion};
use qos_core::SignedRar;
use qos_crypto::{Certificate, Timestamp};
use qos_net::SimDuration;
use qos_storage::{FileStore, FileStoreOptions, MemStore, SharedStore};
use qos_telemetry::{FlightRecorder, Registry, Telemetry, TraceId, FLIGHT_DEFAULT_CAPACITY};
use qos_transport::TcpMesh;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `ChainOptions`' default local capacity of every domain.
const LOCAL_BPS: u64 = 1_000_000_000;

pub struct Case {
    pub name: &'static str,
    /// The domain whose policy denies every request.
    deny_at: Option<usize>,
    sla_rate_bps: u64,
    /// Requests submitted at once at `domain-a`, each at `rate_bps`.
    requests: u64,
    rate_bps: u64,
    /// How many of them the case admits.
    grants: u64,
}

/// The fig2 scenario: every domain accepts, the transit domain denies,
/// the destination denies.
pub const FIG2: [Case; 3] = [
    Case {
        name: "fig2, every domain accepts",
        deny_at: None,
        sla_rate_bps: 100 * MBPS,
        requests: 1,
        rate_bps: 10 * MBPS,
        grants: 1,
    },
    Case {
        name: "fig2, transit domain-b denies",
        deny_at: Some(1),
        sla_rate_bps: 100 * MBPS,
        requests: 1,
        rate_bps: 10 * MBPS,
        grants: 0,
    },
    Case {
        name: "fig2, destination domain-c denies",
        deny_at: Some(2),
        sla_rate_bps: 100 * MBPS,
        requests: 1,
        rate_bps: 10 * MBPS,
        grants: 0,
    },
];

/// Many requests in flight at once, all of which fit.
pub const CONCURRENT: Case = Case {
    name: "16 concurrent 5 Mb/s requests on a 1000 Mb/s SLA",
    deny_at: None,
    sla_rate_bps: 1000 * MBPS,
    requests: 16,
    rate_bps: 5 * MBPS,
    grants: 16,
};

/// Requests in flight at once, more than the SLA holds: the rest are
/// denied.
pub const OVERSUBSCRIBED: Case = Case {
    name: "5 concurrent 5 Mb/s requests on a 10 Mb/s SLA",
    deny_at: None,
    sla_rate_bps: 10 * MBPS,
    requests: 5,
    rate_bps: 5 * MBPS,
    grants: 2,
};

/// What every fabric must agree on: requests granted, and each domain's
/// unreserved capacity afterwards, in chain order.
pub type Outcome = (u64, Vec<u64>);

impl Case {
    /// The chain, and its requests signed for submission at `domain-a`.
    fn world(&self, telemetry: Telemetry) -> (Scenario, Vec<(SignedRar, Certificate)>) {
        let policies = self
            .deny_at
            .map(|i| {
                (
                    i,
                    format!(r#"return deny "domain {i} refuses this reservation""#),
                )
            })
            .into_iter()
            .collect();
        let mut s = build_chain(ChainOptions {
            policies,
            sla_rate_bps: self.sla_rate_bps,
            tracing: telemetry.is_enabled(),
            telemetry,
            ..ChainOptions::default()
        });
        let cert = s.users["alice"].cert.clone();
        let mut requests = Vec::new();
        for i in 0..self.requests {
            let spec = s.spec("alice", 100 + i, self.rate_bps, Timestamp(0), 3600);
            requests.push((
                s.users["alice"].sign_request(spec, &s.nodes[0]),
                cert.clone(),
            ));
        }
        (s, requests)
    }

    /// The outcome on `drive::Mesh`, after checking it is the one the
    /// case describes.
    pub fn reference(&self) -> Outcome {
        let (mut s, requests) = self.world(Telemetry::disabled());
        let domains = s.domains.clone();
        let mut mesh = s.mesh(SimDuration::from_millis(5));
        for (rar, cert) in requests {
            mesh.submit_in(SimDuration::ZERO, "domain-a", rar, cert);
        }
        mesh.run_until_idle();
        let completions: Vec<_> = mesh.completions().iter().map(|(_, _, c)| c).collect();
        assert_eq!(completions.len() as u64, self.requests, "{}", self.name);
        let outcome = outcome(completions.into_iter(), &domains, |d| mesh.node(d));
        assert_eq!(outcome.0, self.grants, "{}: grants", self.name);
        for d in &domains {
            let core = mesh.node(d).core();
            let (active, committed, ..) = core.ledger_summary(Timestamp(10));
            assert_eq!(
                (active, committed),
                (self.grants, self.grants),
                "{}: {d} holds its grants, committed, and nothing else",
                self.name
            );
            assert_eq!(
                core.available_bw_at(Timestamp(10)),
                LOCAL_BPS - self.grants * self.rate_bps,
                "{}: {d}",
                self.name
            );
        }
        outcome
    }
}

fn outcome<'a>(
    completions: impl Iterator<Item = &'a Completion>,
    domains: &[String],
    node: impl Fn(&str) -> &'a BbNode,
) -> Outcome {
    let granted = completions
        .filter(|c| matches!(c, Completion::Reservation { result: Ok(_), .. }))
        .count() as u64;
    let available = domains
        .iter()
        .map(|d| node(d).core().available_bw_at(Timestamp(10)))
        .collect();
    (granted, available)
}

/// How the `TcpMesh` daemons of a run are set up.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Every broker persists to a `FileStore` instead of a `MemStore`.
    pub file_store: bool,
    /// Admin plane up, tracing and the flight recorder on, and a 10 Hz
    /// `/metrics` scraper on every daemon throughout.
    pub scraped: bool,
}

impl Config {
    /// `MemStore`, no admin plane.
    pub const PLAIN: Config = Config {
        file_store: false,
        scraped: false,
    };
}

/// Minimal blocking HTTP/1.1 GET against a daemon's admin endpoint:
/// the status and the body.
pub fn admin_get(addr: SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to the admin plane");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let head = format!("GET {path} HTTP/1.1\r\nHost: bbd\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").expect("an HTTP response");
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    (status.expect("a status line"), body.to_string())
}

/// The outcome of `case` on loopback `TcpMesh` daemons set up as
/// `config` says.
pub fn over_tcp(case: &Case, config: Config) -> Outcome {
    let telemetry = if config.scraped {
        Telemetry::with_registry(Registry::new())
            .with_flight(FlightRecorder::new(FLIGHT_DEFAULT_CAPACITY))
    } else {
        Telemetry::disabled()
    };
    let (mut s, requests) = case.world(telemetry.clone());
    let domains = s.domains.clone();
    let trace = TraceId::mint(&domains[0], requests[0].0.res_spec().rar_id.0);
    let dir = std::env::temp_dir().join(format!("qos-fabric-parity-{}", std::process::id()));
    for node in &s.nodes {
        let store: SharedStore = if config.file_store {
            let dir = dir.join(node.domain());
            let _ = std::fs::remove_dir_all(&dir);
            Arc::new(FileStore::open(&dir, FileStoreOptions::default()).expect("a file store"))
        } else {
            Arc::new(MemStore::default())
        };
        node.attach_store(store);
    }
    let mut mesh = TcpMesh::new();
    mesh.set_telemetry(telemetry);
    mesh.set_admin(config.scraped);
    let ids = s.identities();
    mesh.spawn(std::mem::take(&mut s.nodes), ids, &s.links, s.ca_key)
        .expect("loopback mesh comes up");

    let admin: Vec<SocketAddr> = domains.iter().filter_map(|d| mesh.admin_addr(d)).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = config.scraped.then(|| {
        let (admin, stop) = (admin.clone(), Arc::clone(&stop));
        std::thread::spawn(move || loop {
            for &addr in &admin {
                let (status, body) = admin_get(addr, "/metrics");
                assert_eq!(status, 200, "scrape of {addr}");
                assert!(body.contains("# TYPE"), "exposition from {addr}");
            }
            if stop.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        })
    });

    let n = requests.len();
    mesh.submit_all("domain-a", requests);
    let completions = mesh.wait_completions(n);
    assert_eq!(completions.len(), n, "{}: {config:?}", case.name);
    if let Some(scraper) = scraper {
        // The plane answers while the fabric is live, and the recorder
        // replays the first request's span timeline.
        for &addr in &admin {
            assert_eq!(admin_get(addr, "/healthz").0, 200, "{addr} is unhealthy");
        }
        let (status, body) = admin_get(admin[0], &format!("/trace/{trace}"));
        assert_eq!(status, 200);
        assert!(body.contains(r#""label":"submit""#), "{body}");
        stop.store(true, Ordering::Relaxed);
        scraper.join().expect("every scrape succeeded");
    }
    let nodes = mesh.shutdown();
    if config.file_store {
        let _ = std::fs::remove_dir_all(&dir);
    }
    outcome(completions.iter().map(|(_, c)| c), &domains, |d| &nodes[d])
}
