//! Threaded actor runtime: each broker runs as a [`ShardedNode`] —
//! N admission shards with work-stealing ingress — and peer links carry
//! authenticated channel frames through per-domain ingress threads.
//!
//! The virtual-time [`crate::drive::Mesh`] answers *how long* signalling
//! takes; this runtime demonstrates the same protocol state machines
//! running **concurrently** — messages between brokers are sealed and
//! opened on real [`crate::channel::SecureChannel`]s established by
//! mutual handshake, and many reservations can be in flight at once.
//! (The approved crate set has no async runtime, so signalling channels
//! are threads + crossbeam channels rather than tokio tasks; see
//! DESIGN.md §2 and §D11.)
//!
//! Division of labour per domain:
//!
//! * the **ingress thread** owns every inbound [`OpenHalf`] — frames
//!   from one peer are opened strictly in arrival order (the channel's
//!   replay window depends on it), decoded once, and dispatched into
//!   the domain's [`ShardedNode`] by reservation id;
//! * the **shard workers** (inside [`ShardedNode`]) run admission and
//!   hand outputs to an [`ActorSink`], which seals under a per-link
//!   [`SealHalf`] lock and drops the frame into the peer's ingress
//!   mailbox — the send happens under the seal lock so frames enter the
//!   mailbox in sequence order.

use crate::channel::{handshake, ChannelIdentity, OpenHalf, PeerPin, SealHalf, Sealed};
use crate::envelope::SignedRar;
use crate::messages::SignalMessage;
use crate::node::{BbNode, Completion};
use crate::shard::{ShardSink, ShardedNode};
use crossbeam::channel::{unbounded, Receiver, Sender};
use qos_crypto::{Certificate, PublicKey, Timestamp};
use qos_telemetry::{Counter, StdClock, Telemetry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

enum IngressMsg {
    /// A sealed frame from a peer, stamped with its enqueue time so the
    /// receiving broker can attribute queue-wait to the trace.
    Frame {
        from: String,
        sealed: Sealed,
        enqueued_ns: u64,
    },
    /// Advance the domain's wall clock (ordered with inbound frames).
    SetTime(Timestamp),
    /// Stop the ingress thread.
    Shutdown,
}

/// The fabric side of one domain: seals shard outputs onto peer links
/// and forwards completions to the mesh supervisor.
struct ActorSink {
    domain: String,
    /// One seal half per peer link, locked per frame; the mailbox send
    /// happens under the lock so sequence numbers and mailbox order
    /// agree (the open side enforces strict per-direction sequencing).
    seals: HashMap<String, Mutex<SealHalf>>,
    peers: HashMap<String, Sender<IngressMsg>>,
    completion_tx: Sender<(String, Completion)>,
    frames_sealed: Counter,
}

impl ShardSink for ActorSink {
    fn deliver(&self, to: &str, msg: SignalMessage) {
        let to = to.strip_prefix("user:").unwrap_or(to);
        let (Some(seal), Some(tx)) = (self.seals.get(to), self.peers.get(to)) else {
            return; // completion address or unlinked peer
        };
        let mut half = seal.lock().unwrap_or_else(|e| e.into_inner());
        let sealed = half.seal(qos_wire::to_bytes(&msg));
        self.frames_sealed.inc();
        let _ = tx.send(IngressMsg::Frame {
            from: self.domain.clone(),
            sealed,
            enqueued_ns: StdClock::now(),
        });
    }

    fn complete(&self, completion: Completion) {
        let _ = self.completion_tx.send((self.domain.clone(), completion));
    }
}

/// A handle to one running domain: its sharded broker plus the ingress
/// thread feeding it.
struct ActorHandle {
    domain: String,
    sharded: Arc<ShardedNode>,
    ingress_tx: Sender<IngressMsg>,
    ingress_join: Option<JoinHandle<()>>,
}

/// A mesh of sharded broker runtimes on OS threads.
pub struct ActorMesh {
    actors: HashMap<String, ActorHandle>,
    completion_rx: Receiver<(String, Completion)>,
    completion_tx: Sender<(String, Completion)>,
    telemetry: Telemetry,
    shards: usize,
}

impl Default for ActorMesh {
    fn default() -> Self {
        Self::new()
    }
}

/// The default shard count for a broker runtime: `min(4, cores)`.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

impl ActorMesh {
    /// An empty actor mesh with the default shard count
    /// ([`default_shards`]).
    pub fn new() -> Self {
        let (completion_tx, completion_rx) = unbounded();
        Self {
            actors: HashMap::new(),
            completion_rx,
            completion_tx,
            telemetry: Telemetry::disabled(),
            shards: default_shards(),
        }
    }

    /// Route mesh-level instruments (shard queues, completion latency,
    /// frame counters, handshakes) into `telemetry`. Call before
    /// [`ActorMesh::spawn`]; the per-broker instruments themselves are
    /// configured through [`crate::node::BbConfig::telemetry`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Run each broker as `n` admission shards (clamped to ≥ 1). Call
    /// before [`ActorMesh::spawn`]. Admission outcomes and committed
    /// bandwidth are shard-count-invariant; only concurrency changes.
    pub fn set_shards(&mut self, n: usize) {
        self.shards = n.max(1);
    }

    /// Spawn the brokers of `nodes` as sharded runtimes, establishing
    /// pairwise secure channels between `links` (pairs of domain names).
    ///
    /// `identities` supplies each broker's channel identity and `ca_key`
    /// the CA all peer pins use.
    pub fn spawn(
        &mut self,
        nodes: Vec<BbNode>,
        identities: HashMap<String, ChannelIdentity>,
        links: &[(String, String)],
        ca_key: PublicKey,
    ) {
        // Establish channels synchronously before spawning (the paper's
        // SLAs exist before any signalling).
        let handshakes = self.telemetry.counter(
            "bb_channel_handshakes_total",
            "Secure-channel handshakes completed at mesh setup",
            &[],
        );
        let mut seal_halves: HashMap<String, HashMap<String, Mutex<SealHalf>>> = HashMap::new();
        let mut open_halves: HashMap<String, HashMap<String, OpenHalf>> = HashMap::new();
        for (nonce, (a, b)) in (1u64..).zip(links.iter()) {
            let ia = &identities[a];
            let ib = &identities[b];
            let (ca_end, cb_end) = handshake(
                ia,
                ib,
                &PeerPin {
                    ca_key,
                    dn: ib.cert.tbs.subject.clone(),
                },
                &PeerPin {
                    ca_key,
                    dn: ia.cert.tbs.subject.clone(),
                },
                nonce,
                Timestamp::ZERO,
            )
            .expect("handshake between configured peers");
            handshakes.inc();
            let (a_seal, a_open) = ca_end.split();
            let (b_seal, b_open) = cb_end.split();
            seal_halves
                .entry(a.clone())
                .or_default()
                .insert(b.clone(), Mutex::new(a_seal));
            open_halves
                .entry(a.clone())
                .or_default()
                .insert(b.clone(), a_open);
            seal_halves
                .entry(b.clone())
                .or_default()
                .insert(a.clone(), Mutex::new(b_seal));
            open_halves
                .entry(b.clone())
                .or_default()
                .insert(a.clone(), b_open);
        }

        // Build ingress mailboxes first so every sink can reach every
        // peer.
        let mut mailboxes: HashMap<String, Sender<IngressMsg>> = HashMap::new();
        let mut receivers: HashMap<String, Receiver<IngressMsg>> = HashMap::new();
        for node in &nodes {
            let (tx, rx) = unbounded();
            mailboxes.insert(node.domain().to_string(), tx);
            receivers.insert(node.domain().to_string(), rx);
        }

        for node in nodes {
            let domain = node.domain().to_string();
            let rx = receivers.remove(&domain).unwrap();
            let dl: &[(&str, &str)] = &[("domain", &domain)];
            let sink = ActorSink {
                domain: domain.clone(),
                seals: seal_halves.remove(&domain).unwrap_or_default(),
                peers: mailboxes.clone(),
                completion_tx: self.completion_tx.clone(),
                frames_sealed: self.telemetry.counter(
                    "bb_frames_sealed_total",
                    "Channel frames sealed for peers",
                    dl,
                ),
            };
            let frames_opened = self.telemetry.counter(
                "bb_frames_opened_total",
                "Channel frames opened and decoded from peers",
                dl,
            );
            let frames_rejected = self.telemetry.counter(
                "bb_frames_rejected_total",
                "Channel frames rejected (tampered, replayed, or undecodable)",
                dl,
            );
            let sharded = Arc::new(ShardedNode::new(
                node,
                self.shards,
                Arc::new(sink),
                &self.telemetry,
            ));
            let mut opens = open_halves.remove(&domain).unwrap_or_default();
            let sharded_ingress = Arc::clone(&sharded);
            let ingress_join = std::thread::Builder::new()
                .name(format!("bb-ingress-{domain}"))
                .spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            IngressMsg::Frame {
                                from,
                                sealed,
                                enqueued_ns,
                            } => {
                                match open_frame(&mut opens, &from, sealed) {
                                    Some(m) => {
                                        frames_opened.inc();
                                        sharded_ingress.dispatch_peer(from, m, enqueued_ns);
                                    }
                                    None => frames_rejected.inc(), // tampered / replayed
                                }
                            }
                            IngressMsg::SetTime(t) => sharded_ingress.set_time(t),
                            IngressMsg::Shutdown => break,
                        }
                    }
                })
                .expect("spawn ingress thread");
            self.actors.insert(
                domain.clone(),
                ActorHandle {
                    ingress_tx: mailboxes[&domain].clone(),
                    domain,
                    sharded,
                    ingress_join: Some(ingress_join),
                },
            );
        }
    }

    /// Domains with running brokers.
    pub fn domains(&self) -> impl Iterator<Item = &str> {
        self.actors.values().map(|h| h.domain.as_str())
    }

    /// Submit a user request to a broker (trusted local delivery, not a
    /// peer frame).
    pub fn submit(&self, domain: &str, rar: SignedRar, user_cert: Certificate) {
        self.actors[domain]
            .sharded
            .dispatch_submit(rar, user_cert, StdClock::now());
    }

    /// Request a sub-flow inside an established tunnel at its source
    /// broker. Bursts of these from one or many sources land on the
    /// tunnel's shard together and are admitted as one run
    /// ([`crate::node::BbNode::recv_tunnel_flows`]).
    pub fn tunnel_flow(
        &self,
        domain: &str,
        tunnel: crate::rar::RarId,
        flow: u64,
        rate_bps: u64,
        requestor: qos_crypto::DistinguishedName,
    ) {
        self.actors[domain]
            .sharded
            .dispatch_tunnel_flow(tunnel, flow, rate_bps, requestor);
    }

    /// Broadcast a wall-clock update, ordered with inbound frames.
    pub fn set_time(&self, now: Timestamp) {
        for h in self.actors.values() {
            let _ = h.ingress_tx.send(IngressMsg::SetTime(now));
        }
    }

    /// Wait for `n` completions (across all source brokers).
    pub fn wait_completions(&self, n: usize) -> Vec<(String, Completion)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self
                .completion_rx
                .recv_timeout(std::time::Duration::from_secs(30))
            {
                Ok(c) => out.push(c),
                Err(_) => break,
            }
        }
        out
    }

    /// Stop all brokers and return one node per domain (its ledger and
    /// counters are the ones every shard shared).
    pub fn shutdown(mut self) -> HashMap<String, BbNode> {
        // Stop every ingress thread first so no new frames reach the
        // shards, then drain and join the shards themselves.
        for h in self.actors.values() {
            let _ = h.ingress_tx.send(IngressMsg::Shutdown);
        }
        for h in self.actors.values_mut() {
            if let Some(join) = h.ingress_join.take() {
                let _ = join.join();
            }
        }
        let mut nodes = HashMap::new();
        for (domain, h) in self.actors.drain() {
            let sharded = Arc::into_inner(h.sharded)
                .expect("ingress joined; mesh holds the only other handle");
            nodes.insert(domain, sharded.shutdown());
        }
        nodes
    }
}

/// Open a sealed peer frame and decode the signalling message inside.
///
/// Frames are opened strictly in arrival order per peer (the channel's
/// replay window depends on it). Shared-buffer decode: any RAR envelope
/// in the message keeps zero-copy views of its layers' canonical bytes,
/// so later verification never re-encodes the nest. `None` means the
/// frame was tampered with, replayed, or from an unknown peer.
fn open_frame(
    opens: &mut HashMap<String, OpenHalf>,
    from: &str,
    sealed: Sealed,
) -> Option<SignalMessage> {
    let half = opens.get_mut(from)?;
    let bytes = half.open(sealed).ok()?;
    let shared: std::sync::Arc<[u8]> = bytes.into();
    qos_wire::from_bytes_shared::<SignalMessage>(&shared).ok()
}
