//! Transparency of the broker runtime: a [`BbNode`] stepped as a fabric
//! steps it — every domain's waiting inputs in runs, coalescing a burst
//! into batch calls — must be indistinguishable from the plain node
//! driven one message at a time: same verdicts, same committed
//! bandwidth, and counter-for-counter identical telemetry on a seeded
//! fig2-style run.

use qos_core::node::{BbNode, Completion};
use qos_core::scenario::{build_chain, ChainOptions};
use qos_core::step::UNQUEUED;
use qos_core::{Input, PeerId, SignalMessage};
use qos_crypto::{Certificate, Timestamp};
use qos_telemetry::{render_prometheus, Counter, Registry, StdClock, Telemetry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

const MBPS: u64 = 1_000_000;

/// An in-flight delivery: (from, to, message).
type Delivery = (PeerId, String, SignalMessage);
/// 20 Mb/s SLA and six 5 Mb/s requests: four grants, two denials, so
/// the comparison covers holds, commits, rollback, and denial counters.
const SLA_BPS: u64 = 20 * MBPS;
const REQUESTS: u64 = 6;

/// The seeded scenario, its brokers reporting to `registry`, plus the
/// signed burst, identical for both drives.
fn scenario(
    registry: &Arc<Registry>,
) -> (Vec<BbNode>, Vec<qos_core::envelope::SignedRar>, Certificate) {
    let mut s = build_chain(ChainOptions {
        sla_rate_bps: SLA_BPS,
        telemetry: Telemetry::with_registry(Arc::clone(registry)),
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
/// pump, one message a call (one `step` for the burst, `recv` for each
/// message).
fn drive_plain(registry: &Arc<Registry>) -> (Vec<Completion>, HashMap<String, BbNode>) {
    let (nodes, rars, cert) = scenario(registry);
    let mut nodes: HashMap<String, BbNode> = nodes
        .into_iter()
        .map(|n| (n.domain().to_string(), n))
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
    let mut submits = rars
        .into_iter()
        .map(|r| Input::Submit(Box::new(r), Box::new(cert.clone()), UNQUEUED))
        .collect();
    let mut out = Vec::new();
    source.step(
        &mut submits,
        &StdClock,
        &Counter::noop(),
        |msgs, done, _| {
            out.append(msgs);
            completions.append(done);
        },
    );
    route(source, out, &mut queue, &mut completions);

    while let Some((from, to, msg)) = queue.pop_front() {
        let node = nodes.get_mut(&to).expect("routed to a known domain");
        let out = node.recv(&from, msg);
        route(node, out, &mut queue, &mut completions);
    }
    (completions, nodes)
}

/// The same burst through [`BbNode::step`], as each domain's reactor runs
/// it: each domain's waiting inputs in runs, each run's messages routed
/// to the inputs of the domain they are for.
fn drive_dispatcher(registry: &Arc<Registry>) -> (Vec<Completion>, HashMap<String, BbNode>) {
    let (nodes, rars, cert) = scenario(registry);
    let mut brokers: HashMap<String, (BbNode, Vec<Input>)> = nodes
        .into_iter()
        .map(|n| (n.domain().to_string(), (n, Vec::new())))
        .collect();
    let submits = rars
        .into_iter()
        .map(|rar| Input::Submit(Box::new(rar), Box::new(cert.clone()), 0));
    brokers
        .get_mut("domain-a")
        .expect("source domain")
        .1
        .extend(submits);

    let mut completions = Vec::new();
    while let Some(domain) = brokers
        .iter()
        .find(|(_, (_, inputs))| !inputs.is_empty())
        .map(|(d, _)| d.clone())
    {
        let (node, inputs) = brokers.get_mut(&domain).expect("a broker");
        let from = PeerId::from(domain.as_str());
        let mut routed: Vec<(PeerId, SignalMessage)> = Vec::new();
        node.step(inputs, &StdClock, &Counter::noop(), |msgs, done, _| {
            routed.append(msgs);
            completions.append(done);
        });
        for (to, msg) in routed {
            if !to.starts_with("user:") {
                brokers
                    .get_mut(&*to)
                    .expect("routed to a known domain")
                    .1
                    .push(Input::peer(PeerId::clone(&from), msg, 0));
            }
        }
    }
    let nodes = brokers.into_iter().map(|(d, (n, _))| (d, n)).collect();
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
    let dispatched_reg = Registry::new();
    let (dispatched_completions, dispatched_nodes) = drive_dispatcher(&dispatched_reg);

    // Same verdicts…
    assert_eq!(
        outcome_counts(&plain_completions),
        outcome_counts(&dispatched_completions),
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
            dispatched_nodes[domain].core().available_bw_at(t),
            "committed bandwidth diverged at {domain}"
        );
    }

    // …and counter-for-counter identical telemetry: every counter
    // family the plain run produced renders byte-identically from the
    // dispatcher's run (which may add its own families on top).
    let plain_counters = counter_families(&render_prometheus(&plain_reg));
    let dispatched_counters = counter_families(&render_prometheus(&dispatched_reg));
    assert!(
        !plain_counters.is_empty(),
        "plain run registered no counters — telemetry not installed?"
    );
    for (family, plain_lines) in &plain_counters {
        let dispatched_lines = dispatched_counters
            .get(family)
            .unwrap_or_else(|| panic!("family {family} missing from the dispatched run"));
        assert_eq!(
            plain_lines, dispatched_lines,
            "counter family {family} diverged between plain and dispatched"
        );
    }
}
