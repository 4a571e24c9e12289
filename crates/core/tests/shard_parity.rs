//! Transparency of the broker runtime: a [`ShardedNode`] — one node
//! served by one worker thread — must be indistinguishable from the
//! plain [`BbNode`] it wraps: same verdicts, same committed bandwidth,
//! and counter-for-counter identical telemetry on a seeded fig2-style
//! run.

use crossbeam::channel::{unbounded, Receiver, Sender};
use qos_core::node::{BbNode, Completion};
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::{PeerId, ShardSink, ShardedNode, SignalMessage};
use qos_crypto::{Certificate, Timestamp};
use qos_telemetry::{render_prometheus, Registry, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

const MBPS: u64 = 1_000_000;

/// An in-flight delivery: (from, to, message).
type Delivery = (PeerId, String, SignalMessage);
/// 20 Mb/s SLA and six 5 Mb/s requests: four grants, two denials, so
/// the comparison covers holds, commits, rollback, and denial counters.
const SLA_BPS: u64 = 20 * MBPS;
const REQUESTS: u64 = 6;

/// The seeded scenario plus the signed burst, identical for both drives.
fn scenario() -> (Vec<BbNode>, Vec<qos_core::envelope::SignedRar>, Certificate) {
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: SLA_BPS,
        ..ChainOptions::default()
    });
    let mut rars = Vec::new();
    for i in 0..REQUESTS {
        let spec = s.spec("alice", 1000 + i, 5 * MBPS, Timestamp(0), 3600);
        rars.push(s.users["alice"].sign_request(spec, &s.nodes[0]));
    }
    let cert = s.users["alice"].cert.clone();
    (std::mem::take(&mut s.nodes), rars, cert)
}

fn outcome_counts(completions: &[Completion]) -> (usize, usize) {
    let granted = completions
        .iter()
        .filter(|c| matches!(c, Completion::Reservation { result: Ok(_), .. }))
        .count();
    (granted, completions.len() - granted)
}

/// Drive the burst through plain `BbNode`s with a synchronous FIFO
/// pump, mirroring the worker's call shape (`submit_batch` for
/// the burst, `recv_requests` for requests, `recv` otherwise).
fn drive_plain(registry: &Arc<Registry>) -> (Vec<Completion>, HashMap<String, BbNode>) {
    let (nodes, rars, cert) = scenario();
    let telemetry = Telemetry::with_registry(Arc::clone(registry));
    let mut nodes: HashMap<String, BbNode> = nodes
        .into_iter()
        .map(|mut n| {
            n.install_telemetry(telemetry.clone());
            (n.domain().to_string(), n)
        })
        .collect();

    let mut completions = Vec::new();
    let mut queue: VecDeque<Delivery> = VecDeque::new();
    let route = |node: &mut BbNode,
                 out: Vec<(PeerId, SignalMessage)>,
                 queue: &mut VecDeque<Delivery>,
                 completions: &mut Vec<Completion>| {
        let from = PeerId::from(node.domain());
        for (to, msg) in out {
            if !to.starts_with("user:") {
                queue.push_back((from.clone(), to.to_string(), msg));
            }
        }
        completions.extend(node.take_completions());
    };

    let source = nodes.get_mut("domain-a").expect("source domain");
    let out = source.submit_batch(rars.into_iter().map(|r| (r, cert.clone())).collect());
    route(source, out, &mut queue, &mut completions);

    while let Some((from, to, msg)) = queue.pop_front() {
        let node = nodes.get_mut(&to).expect("routed to a known domain");
        let out = match msg {
            SignalMessage::Request(rar) => node.recv_requests(vec![(from, rar)]),
            SignalMessage::TunnelFlow(t) => node.recv_tunnel_flows(vec![(from, t)]),
            other => node.recv(&from, other),
        };
        route(node, out, &mut queue, &mut completions);
    }
    (completions, nodes)
}

/// Fabric for the runtime drive: deliveries and completions land on
/// channels the test pump forwards between domains (a sink must not
/// re-enter dispatch, so routing happens outside the worker).
struct ChanSink {
    domain: String,
    deliveries: Sender<Delivery>,
    completions: Sender<Completion>,
}

impl ShardSink for ChanSink {
    fn deliver(&self, to: &str, msg: SignalMessage) {
        if !to.starts_with("user:") {
            let _ = self
                .deliveries
                .send((self.domain.as_str().into(), to.to_string(), msg));
        }
    }
    fn complete(&self, completion: Completion) {
        let _ = self.completions.send(completion);
    }
}

/// The same burst through `ShardedNode`s.
fn drive_sharded(registry: &Arc<Registry>) -> (Vec<Completion>, HashMap<String, BbNode>) {
    let (nodes, rars, cert) = scenario();
    let telemetry = Telemetry::with_registry(Arc::clone(registry));
    let (delivery_tx, delivery_rx): (Sender<Delivery>, Receiver<Delivery>) = unbounded();
    let (completion_tx, completion_rx) = unbounded();

    let sharded: HashMap<String, ShardedNode> = nodes
        .into_iter()
        .map(|mut n| {
            n.install_telemetry(telemetry.clone());
            let domain = n.domain().to_string();
            let sink = Arc::new(ChanSink {
                domain: domain.clone(),
                deliveries: delivery_tx.clone(),
                completions: completion_tx.clone(),
            });
            (domain, ShardedNode::new(n, sink, &telemetry))
        })
        .collect();

    sharded["domain-a"].dispatch_submit_all(rars.into_iter().map(|r| (r, cert.clone())).collect());

    let mut completions = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while completions.len() < REQUESTS as usize {
        assert!(
            std::time::Instant::now() < deadline,
            "sharded drive stalled"
        );
        while let Ok(c) = completion_rx.try_recv() {
            completions.push(c);
        }
        if let Ok((from, to, msg)) = delivery_rx.recv_timeout(Duration::from_millis(10)) {
            sharded[&to].dispatch_peer(from, msg, 0);
        }
    }

    let nodes = sharded
        .into_iter()
        .map(|(d, s)| (d, s.shutdown()))
        .collect();
    (completions, nodes)
}

/// Counter sample lines of `render`, grouped per family, skipping the
/// timing histograms and depth gauges (their values are wall-clock- and
/// scheduling-dependent; admission accounting is not).
fn counter_families(render: &str) -> HashMap<String, Vec<String>> {
    let mut families = HashMap::new();
    let mut current: Option<String> = None;
    for line in render.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default().to_string();
            current = (parts.next() == Some("counter")).then_some(name);
        } else if line.starts_with("# HELP") {
            continue;
        } else if let Some(name) = &current {
            if line.starts_with(name.as_str()) {
                families
                    .entry(name.clone())
                    .or_insert_with(Vec::new)
                    .push(line.to_string());
            }
        }
    }
    families
}

#[test]
fn sharded_n1_telemetry_matches_plain_node() {
    let plain_reg = Registry::new();
    let (plain_completions, plain_nodes) = drive_plain(&plain_reg);
    let sharded_reg = Registry::new();
    let (sharded_completions, sharded_nodes) = drive_sharded(&sharded_reg);

    // Same verdicts…
    assert_eq!(
        outcome_counts(&plain_completions),
        outcome_counts(&sharded_completions),
        "verdict mix diverged"
    );
    assert_eq!(
        outcome_counts(&plain_completions).0,
        4,
        "4 of 6 fit the SLA"
    );

    // …same committed bandwidth in every domain…
    for (domain, plain) in &plain_nodes {
        let t = Timestamp(10);
        assert_eq!(
            plain.core().available_bw_at(t),
            sharded_nodes[domain].core().available_bw_at(t),
            "committed bandwidth diverged at {domain}"
        );
    }

    // …and counter-for-counter identical telemetry: every counter
    // family the plain run produced renders byte-identically from the
    // runtime's run (which may add the worker's families on top).
    let plain_counters = counter_families(&render_prometheus(&plain_reg));
    let sharded_counters = counter_families(&render_prometheus(&sharded_reg));
    assert!(
        !plain_counters.is_empty(),
        "plain run registered no counters — telemetry not installed?"
    );
    for (family, plain_lines) in &plain_counters {
        let sharded_lines = sharded_counters
            .get(family)
            .unwrap_or_else(|| panic!("family {family} missing from sharded run"));
        assert_eq!(
            plain_lines, sharded_lines,
            "counter family {family} diverged between plain and sharded(N=1)"
        );
    }
}
