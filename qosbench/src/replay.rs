//! The traced in-process replay: one thread walks each request through
//! the chain's `BbNode`s and every layer call a hop costs on the wire —
//! encode, seal, frame write, frame decode, open, decode, `recv` — with
//! a span around each call. No sockets, no other threads: what is left
//! of the TCP latency after this sum is the fabric's share.

use crate::gen::Op;
use crate::world::{Outcome, World, MBPS};
use qos_core::channel::{handshake, OpenHalf, PeerPin, SealHalf, SealedRef};
use qos_core::envelope_ref::EnvelopeRef;
use qos_core::messages::SignalMessage;
use qos_core::node::{BbNode, PeerId};
use qos_crypto::{DistinguishedName, Timestamp};
use qos_transport::{write_frame, PooledFrameDecoder, MAX_FRAME_LEN};
use qos_wire::BufferPool;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the request this span belongs to.
    pub op: u32,
    /// `<layer>.<call>`; the layer is the crate the call enters.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(n: usize) -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, op: u32, name: &'static str, parent: Option<u32>) -> u32 {
        let at = self.now();
        self.spans.push(Span {
            op,
            name,
            start_ns: at,
            end_ns: at,
            parent,
        });
        self.spans.len() as u32 - 1
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now();
    }

    /// Record `f` as a child of `parent`.
    fn time<T>(&mut self, op: u32, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(op, name, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "span\top\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// A span's self time: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name totals over a span buffer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

/// Self time per layer, the benchmark's own loop overhead (`bench.*`
/// spans) left out.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        if s.layer() != "bench" {
            *out.entry(s.layer()).or_insert(0) += own;
        }
    }
    out
}

/// What the replay puts before every signalling message, as the reactor
/// does: a data tag and the per-link frame index. The replay strips what
/// it wrote itself, so it stays consistent whatever the reactor does.
const FRAME_DATA: u8 = 0;
const RELIABILITY_HEADER: usize = 1 + std::mem::size_of::<u64>();
/// Wire tag of `PeerMsg::Frame`.
const PEER_MSG_FRAME: u8 = 2;

/// Append the encoding of `PeerMsg::Frame(Sealed { payload, seq, mac })`
/// to `out` without copying the payload into an owned message, the way
/// the transport's write path does. A test pins it to the public
/// `PeerMsg` encoding.
fn sealed_frame_into(out: &mut Vec<u8>, payload: &[u8], seq: u64, mac: &[u8; 32]) {
    out.push(PEER_MSG_FRAME);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(mac);
}

/// One direction of a peering session.
struct Direction {
    seal: SealHalf,
    open: OpenHalf,
    decoder: PooledFrameDecoder,
    index: u64,
}

/// The chain's brokers, detached from any fabric, plus the secure
/// sessions between them.
pub struct Walker {
    pub nodes: Vec<BbNode>,
    by_domain: HashMap<String, usize>,
    links: HashMap<(usize, usize), Direction>,
    plain: Vec<u8>,
    body: Vec<u8>,
    wire: Vec<u8>,
}

impl Walker {
    /// Take the brokers out of `world` and run the channel handshake on
    /// every link.
    pub fn new(world: &mut World) -> Walker {
        let nodes = std::mem::take(&mut world.scenario.nodes);
        let by_domain: HashMap<String, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.domain().to_string(), i))
            .collect();
        let ca_key = world.scenario.ca_key;
        let pin = |n: &BbNode| PeerPin {
            ca_key,
            dn: DistinguishedName::broker(n.domain()),
        };
        let pool = BufferPool::new(2 * nodes.len() + 2);
        let mut links = HashMap::new();
        for (nonce, (a, b)) in world.links().into_iter().enumerate() {
            let (a, b) = (by_domain[&a], by_domain[&b]);
            let (client, server) = handshake(
                &World::identity_of(&nodes[a]),
                &World::identity_of(&nodes[b]),
                &pin(&nodes[b]),
                &pin(&nodes[a]),
                nonce as u64 + 1,
                Timestamp::ZERO,
            )
            .expect("in-process channel handshake");
            let (client_seal, client_open) = client.split();
            let (server_seal, server_open) = server.split();
            for (key, seal, open) in [
                ((a, b), client_seal, server_open),
                ((b, a), server_seal, client_open),
            ] {
                links.insert(
                    key,
                    Direction {
                        seal,
                        open,
                        decoder: PooledFrameDecoder::new(MAX_FRAME_LEN, pool.clone()),
                        index: 0,
                    },
                );
            }
        }
        Walker {
            nodes,
            by_domain,
            links,
            plain: Vec::new(),
            body: Vec::new(),
            wire: Vec::new(),
        }
    }

    /// Carry `msg` over the `from → to` session and hand it to `to`'s
    /// broker, one span per layer call. Returns what the broker sends
    /// next.
    fn hop(
        &mut self,
        rec: &mut Recorder,
        op: u32,
        root: u32,
        from: usize,
        to: usize,
        msg: &SignalMessage,
    ) -> Vec<(PeerId, SignalMessage)> {
        let hop = rec.open(op, "bench.hop", Some(root));
        let link = self
            .links
            .get_mut(&(from, to))
            .expect("brokers only address peers they have a session with");
        let (plain, body, wire) = (&mut self.plain, &mut self.body, &mut self.wire);

        rec.time(op, "wire.encode", hop, || {
            plain.clear();
            plain.push(FRAME_DATA);
            plain.extend_from_slice(&link.index.to_le_bytes());
            qos_wire::encode_into(msg, plain);
        });
        link.index += 1;
        let (seq, mac) = rec.time(op, "core.seal", hop, || link.seal.seal_in_place(plain));
        rec.time(op, "transport.frame_write", hop, || {
            body.clear();
            sealed_frame_into(body, plain, seq, &mac);
            wire.clear();
            write_frame(wire, body, MAX_FRAME_LEN).expect("frame fits");
        });

        let span = rec.open(op, "transport.frame_decode", Some(hop));
        link.decoder.push(wire);
        let frame = link
            .decoder
            .next_frame()
            .expect("well-formed frame")
            .expect("one whole frame was pushed");
        rec.close(span);
        let payload = rec.time(op, "core.open", hop, || {
            let mut r = qos_wire::Reader::new(frame.bytes());
            assert_eq!(r.get_u8().expect("tag"), PEER_MSG_FRAME);
            let sealed = SealedRef::parse(&mut r).expect("sealed frame");
            link.open
                .open_in_place(sealed.payload, sealed.seq, &sealed.mac)
                .expect("MAC and sequence check");
            sealed.payload
        });
        let decoded = rec.time(op, "wire.decode", hop, || {
            EnvelopeRef::to_owned_message(&payload[RELIABILITY_HEADER..]).expect("signal message")
        });

        // Named by the receiver's role, so every workload has all three.
        let name = if to > from {
            "core.node_recv_request"
        } else {
            "core.node_recv_reply"
        };
        let from_domain = self.nodes[from].domain().to_string();
        let node = &mut self.nodes[to];
        let out = rec.time(op, name, hop, || node.recv(&from_domain, decoded));
        rec.close(hop);
        out
    }

    /// Walk one request from `submit` at the source to its completion
    /// there. `keep` receives a copy of every request message entering
    /// the last broker.
    fn walk(
        &mut self,
        rec: &mut Recorder,
        op: u32,
        submit: impl FnOnce(&mut BbNode) -> Vec<(PeerId, SignalMessage)>,
        mut keep: Option<&mut Vec<SignalMessage>>,
    ) -> Option<Outcome> {
        let root = rec.open(op, "bench.op", None);
        let source = &mut self.nodes[0];
        let first = rec.time(op, "core.node_submit", root, || submit(source));
        let mut queue: VecDeque<(usize, PeerId, SignalMessage)> =
            first.into_iter().map(|(to, m)| (0, to, m)).collect();
        let last = self.nodes.len() - 1;
        while let Some((from, to, msg)) = queue.pop_front() {
            let to = self.by_domain[&*to];
            if let (Some(keep), true) = (keep.as_deref_mut(), to == last && to > from) {
                keep.push(msg.clone());
            }
            for (next, m) in self.hop(rec, op, root, from, to, &msg) {
                queue.push_back((to, next, m));
            }
        }
        rec.close(root);
        let done = self.nodes[0].take_completions().pop();
        done.map(|c| Outcome::of(c).1)
    }

    /// Replay `ops` of `world`'s stream; returns each op's outcome.
    /// Spans go to `rec`; `keep` as in [`Walker::walk`].
    pub fn replay(
        &mut self,
        world: &World,
        ops: &[Op],
        rec: &mut Recorder,
        mut keep: Option<&mut Vec<SignalMessage>>,
    ) -> Vec<Option<Outcome>> {
        if let Some(t) = &world.tunnel {
            // Establish the tunnel untraced (its spans would read as an
            // op of the stream).
            let mut scratch = Recorder::with_capacity(64);
            let (rar, cert) = t.request.clone();
            let done = self.walk(&mut scratch, 0, |n| n.submit(rar, &cert), None);
            assert!(
                matches!(done, Some(Outcome::Granted(_))),
                "tunnel establishment failed: {done:?}"
            );
        }
        ops.iter()
            .enumerate()
            .map(|(i, op)| match &world.tunnel {
                Some(t) => {
                    let (id, who) = (t.id, t.requestor.clone());
                    self.walk(
                        rec,
                        i as u32,
                        |n| {
                            n.request_tunnel_flow(id, op.flow, MBPS, who)
                                .expect("tunnel has room for every sub-flow")
                        },
                        keep.as_deref_mut(),
                    )
                }
                None => {
                    let (rar, cert) = world.requests[i].clone();
                    self.walk(rec, i as u32, |n| n.submit(rar, &cert), keep.as_deref_mut())
                }
            })
            .collect()
    }

    /// Hand the brokers back, keyed by domain, for ledger verification.
    pub fn into_nodes(self) -> HashMap<String, BbNode> {
        self.nodes
            .into_iter()
            .map(|n| (n.domain().to_string(), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            op: 0,
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    /// op[0..100] ─ submit[0..30]
    ///            └ hop[30..90] ─ encode[30..40]
    ///                          └ recv[50..85]
    fn tree() -> Vec<Span> {
        vec![
            span("bench.op", 0, 100, None),
            span("core.node_submit", 0, 30, Some(0)),
            span("bench.hop", 30, 90, Some(0)),
            span("wire.encode", 30, 40, Some(2)),
            span("core.node_recv_request", 50, 85, Some(2)),
        ]
    }

    #[test]
    fn hand_built_frame_is_the_public_peer_msg_encoding() {
        use qos_core::channel::Sealed;
        use qos_transport::PeerMsg;
        for (payload, seq) in [(Vec::new(), 0u64), (vec![0xAB; 700], u64::MAX - 1)] {
            let mac = [0x5A; 32];
            let mut hand = Vec::new();
            sealed_frame_into(&mut hand, &payload, seq, &mac);
            let public = qos_wire::to_bytes(&PeerMsg::Frame(Sealed { payload, seq, mac }));
            assert_eq!(hand, public);
            assert_eq!(public[0], PEER_MSG_FRAME);
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_times(&tree()), vec![10, 30, 15, 10, 35]);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = tree();
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn layer_shares_leave_out_the_benchmarks_own_overhead() {
        let by_layer = self_ns_by_layer(&tree());
        assert_eq!(by_layer.get("core"), Some(&65));
        assert_eq!(by_layer.get("wire"), Some(&10));
        assert_eq!(by_layer.get("bench"), None);
    }

    #[test]
    fn totals_group_by_name() {
        let mut spans = tree();
        spans.push(span("wire.encode", 90, 96, Some(0)));
        let t = totals_by_name(&spans);
        assert_eq!(
            t["wire.encode"],
            NameTotals {
                count: 2,
                total_ns: 16,
                self_ns: 16
            }
        );
        assert_eq!(t["bench.op"].self_ns, 4);
    }
}
