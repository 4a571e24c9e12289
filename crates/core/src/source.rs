//! Approach 1 — source-domain-based signalling (§3, Figure 3), plus the
//! STARS reservation-coordinator variant.
//!
//! An end-to-end agent in the source domain contacts every broker on the
//! path directly, either sequentially or concurrently. The paper keeps
//! this as the baseline and catalogues its flaws, all of which this
//! module makes measurable:
//!
//! * every broker must know (and be able to authenticate) the user —
//!   trust tables grow as users × domains ([`crate::node::BbNode::trust_table_size`]);
//! * nothing forces the agent to contact *every* domain — a malicious or
//!   buggy agent produces the **misreservation** of Figure 4
//!   ([`SourceBasedRun::skip`]);
//! * there is no end-to-end commit: each domain admits independently.
//!
//! STARS moves the agent into a *reservation coordinator* trusted by all
//! brokers: one trust entry per broker instead of one per user, but
//! still a direct-trust (and skip-capable) architecture.

use crate::drive::Mesh;
use crate::envelope::SignedRar;
use crate::messages::{DirectReply, DirectRequest, SignalMessage};
use crate::rar::ResSpec;
use qos_crypto::{DistinguishedName, KeyPair};
use qos_net::{SimDuration, SimTime};
use std::collections::HashSet;

/// Sequential or concurrent contact of the per-domain brokers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentMode {
    /// One broker at a time, waiting for each reply (GARA's default).
    Sequential,
    /// All brokers at once (GARA "if optimized").
    Concurrent,
}

/// Outcome of one source-based reservation attempt.
#[derive(Debug, Clone)]
pub struct SourceBasedOutcome {
    /// Per-domain replies, in arrival order.
    pub replies: Vec<DirectReply>,
    /// True if every *contacted* domain accepted. Note the trap the
    /// paper warns about: this can be true while domains were skipped.
    pub all_accepted: bool,
    /// Virtual time when the agent started.
    pub started: SimTime,
    /// Virtual time when the last reply arrived.
    pub finished: SimTime,
}

impl SourceBasedOutcome {
    /// End-to-end signalling latency.
    pub fn latency(&self) -> SimDuration {
        self.finished - self.started
    }
}

/// A configured source-based reservation attempt.
pub struct SourceBasedRun {
    /// The user-signed request (one signature serves all domains).
    pub rar: SignedRar,
    /// The full domain path source → destination.
    pub path: Vec<String>,
    /// Domains the agent deliberately does not contact (Figure 4's
    /// misreservation).
    pub skip: HashSet<String>,
    /// Contact strategy.
    pub mode: AgentMode,
}

impl SourceBasedRun {
    /// An honest run contacting every domain.
    pub fn honest(rar: SignedRar, path: Vec<String>, mode: AgentMode) -> Self {
        Self {
            rar,
            path,
            skip: HashSet::new(),
            mode,
        }
    }

    /// A malicious run skipping `skip` (David's incomplete reservation).
    pub fn skipping(
        rar: SignedRar,
        path: Vec<String>,
        skip: impl IntoIterator<Item = String>,
        mode: AgentMode,
    ) -> Self {
        Self {
            rar,
            path,
            skip: skip.into_iter().collect(),
            mode,
        }
    }

    fn request_for(&self, idx: usize) -> DirectRequest {
        DirectRequest {
            rar: self.rar.clone(),
            ingress_peer: (idx > 0).then(|| self.path[idx - 1].clone()),
            egress_peer: (idx + 1 < self.path.len()).then(|| self.path[idx + 1].clone()),
        }
    }

    /// Execute against the mesh, driving virtual time.
    pub fn execute(self, mesh: &mut Mesh) -> SourceBasedOutcome {
        let started = mesh.now();
        let agent_domain = self.path.first().expect("non-empty path").clone();
        let targets: Vec<(usize, String)> = self
            .path
            .iter()
            .enumerate()
            .filter(|(_, d)| !self.skip.contains(*d))
            .map(|(i, d)| (i, d.clone()))
            .collect();

        let mut replies = Vec::new();
        match self.mode {
            AgentMode::Concurrent => {
                for (idx, domain) in &targets {
                    mesh.direct_request_in(
                        SimDuration::ZERO,
                        &agent_domain,
                        domain,
                        self.request_for(*idx),
                    );
                }
                mesh.run_until_idle();
                replies.extend(drain_replies(mesh, started));
            }
            AgentMode::Sequential => {
                for (idx, domain) in &targets {
                    let before = mesh.agent_inbox_len();
                    mesh.direct_request_in(
                        SimDuration::ZERO,
                        &agent_domain,
                        domain,
                        self.request_for(*idx),
                    );
                    mesh.run_until_idle();
                    let mut new = drain_replies_after(mesh, before);
                    let rejected = new.iter().any(|r| !r.accepted);
                    replies.append(&mut new);
                    if rejected {
                        break; // the agent gives up on first rejection
                    }
                }
            }
        }
        let finished = mesh
            .agent_inbox()
            .iter()
            .map(|(t, _)| *t)
            .max()
            .unwrap_or(started);
        let all_accepted = !replies.is_empty() && replies.iter().all(|r| r.accepted);
        SourceBasedOutcome {
            replies,
            all_accepted,
            started,
            finished,
        }
    }
}

fn drain_replies(mesh: &Mesh, since: SimTime) -> Vec<DirectReply> {
    mesh.agent_inbox()
        .iter()
        .filter(|(t, _)| *t >= since)
        .filter_map(|(_, m)| match m {
            SignalMessage::DirectReply(r) => Some(r.clone()),
            _ => None,
        })
        .collect()
}

fn drain_replies_after(mesh: &Mesh, skip_first: usize) -> Vec<DirectReply> {
    mesh.agent_inbox()
        .iter()
        .skip(skip_first)
        .filter_map(|(_, m)| match m {
            SignalMessage::DirectReply(r) => Some(r.clone()),
            _ => None,
        })
        .collect()
}

/// The STARS reservation coordinator: a source-domain entity all brokers
/// trust directly ("it may be feasible for the RC to be 'trusted' to
/// make all necessary reservations; … all bandwidth-brokers need not be
/// aware of all end-users").
pub struct ReservationCoordinator {
    /// The coordinator's DN.
    pub dn: DistinguishedName,
    /// The coordinator's key pair.
    pub key: KeyPair,
}

impl ReservationCoordinator {
    /// Create a coordinator for `domain`.
    pub fn new(domain: &str) -> Self {
        Self {
            dn: DistinguishedName::new([("CN", "RC"), ("OU", domain), ("O", "QoS")]),
            key: KeyPair::from_seed(format!("rc-{domain}").as_bytes()),
        }
    }

    /// Sign a request on a user's behalf: the spec keeps the user as
    /// requestor, the signature (what brokers authenticate) is the RC's.
    pub fn sign_for(&self, spec: ResSpec, source_bb_dn: DistinguishedName) -> SignedRar {
        let mut rar = SignedRar::user_request(spec, source_bb_dn, vec![], &self.key);
        rar.signer = self.dn.clone();
        // Re-sign under the RC identity (user_request stamped the spec's
        // requestor as signer; the RC signs as itself). The layer is
        // untouched, so its cached canonical bytes stay valid.
        rar.signature = self.key.sign_digest(rar.layer_digest());
        rar
    }
}
