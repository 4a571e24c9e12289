//! A mesh of broker daemons on loopback sockets.
//!
//! [`TcpMesh`] runs a scenario's brokers concurrently — `spawn`,
//! `submit`, `tunnel_flow`, `set_time`, `wait_completions`, `shutdown` —
//! with every broker a [`BrokerDaemon`] behind a real TCP listener. For
//! each configured link `(a, b)`, `a` dials and `b` accepts.

use crate::daemon::{BrokerDaemon, DaemonConfig, TransportOptions};
use crate::error::TransportError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use qos_core::channel::ChannelIdentity;
use qos_core::envelope::SignedRar;
use qos_core::node::{BbNode, Completion};
use qos_crypto::{Certificate, PublicKey, Timestamp};
use qos_telemetry::Telemetry;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// A mesh of broker daemons wired over loopback TCP.
pub struct TcpMesh {
    daemons: HashMap<String, BrokerDaemon>,
    completion_rx: Receiver<(String, Completion)>,
    completion_tx: Sender<(String, Completion)>,
    telemetry: Telemetry,
    options: TransportOptions,
    admin: bool,
}

impl Default for TcpMesh {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpMesh {
    /// An empty mesh.
    pub fn new() -> Self {
        let (completion_tx, completion_rx) = unbounded();
        Self {
            daemons: HashMap::new(),
            completion_rx,
            completion_tx,
            telemetry: Telemetry::disabled(),
            options: TransportOptions::default(),
            admin: false,
        }
    }

    /// Route transport and node instruments into `telemetry`. Call
    /// before [`TcpMesh::spawn`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Does nothing: a broker is one node and one worker. ROADMAP item 1 deletes it.
    pub fn set_shards(&mut self, _: usize) {}

    /// Set every daemon's frame-size ceiling
    /// ([`TransportOptions::max_frame`]). Call before [`TcpMesh::spawn`].
    pub fn set_max_frame(&mut self, max_frame: usize) {
        self.options.max_frame = max_frame;
    }

    /// Give every daemon an admin-plane listener on `127.0.0.1:0`
    /// (addresses via [`TcpMesh::admin_addr`]). Call before
    /// [`TcpMesh::spawn`].
    pub fn set_admin(&mut self, admin: bool) {
        self.admin = admin;
    }

    /// The admin-plane address of `domain`'s daemon, when enabled.
    pub fn admin_addr(&self, domain: &str) -> Option<SocketAddr> {
        self.daemons.get(domain).and_then(|d| d.admin_addr())
    }

    /// Spawn each broker of `nodes` as a daemon on `127.0.0.1:0` and
    /// wire the `links` (pairs of domain names; the first member dials
    /// the second). Blocks until every link's session is established.
    pub fn spawn(
        &mut self,
        nodes: Vec<BbNode>,
        mut identities: HashMap<String, ChannelIdentity>,
        links: &[(String, String)],
        ca_key: PublicKey,
    ) -> Result<(), TransportError> {
        // Bind every listener first so dial targets exist before any
        // daemon starts connecting.
        let mut listeners: HashMap<String, TcpListener> = HashMap::new();
        let mut addrs: HashMap<String, SocketAddr> = HashMap::new();
        for node in &nodes {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(node.domain().to_string(), l.local_addr()?);
            listeners.insert(node.domain().to_string(), l);
        }

        let mut connect_to: HashMap<String, HashMap<String, SocketAddr>> = HashMap::new();
        let mut accept_from: HashMap<String, Vec<String>> = HashMap::new();
        for (a, b) in links {
            connect_to
                .entry(a.clone())
                .or_default()
                .insert(b.clone(), addrs[b]);
            accept_from.entry(b.clone()).or_default().push(a.clone());
        }

        for node in nodes {
            let domain = node.domain().to_string();
            let identity = identities.remove(&domain).ok_or_else(|| {
                TransportError::Protocol(format!("no channel identity for {domain}"))
            })?;
            let daemon = BrokerDaemon::start(
                node,
                DaemonConfig {
                    identity,
                    ca_key,
                    listener: listeners.remove(&domain).expect("listener bound above"),
                    connect_to: connect_to.remove(&domain).unwrap_or_default(),
                    accept_from: accept_from.remove(&domain).unwrap_or_default(),
                    completion_tx: self.completion_tx.clone(),
                    telemetry: self.telemetry.clone(),
                    options: self.options.clone(),
                    admin: if self.admin {
                        Some(TcpListener::bind("127.0.0.1:0")?)
                    } else {
                        None
                    },
                },
            )?;
            self.daemons.insert(domain, daemon);
        }

        for (domain, daemon) in &self.daemons {
            if !daemon.wait_connected(Duration::from_secs(10)) {
                return Err(TransportError::Protocol(format!(
                    "daemon {domain} failed to establish all peering sessions"
                )));
            }
        }
        Ok(())
    }

    /// Domains with running daemons.
    pub fn domains(&self) -> impl Iterator<Item = &str> {
        self.daemons.keys().map(String::as_str)
    }

    /// The daemon hosting `domain`.
    pub fn daemon(&self, domain: &str) -> &BrokerDaemon {
        &self.daemons[domain]
    }

    /// Submit a user request to a broker daemon.
    pub fn submit(&self, domain: &str, rar: SignedRar, user_cert: Certificate) {
        self.daemons[domain].submit(rar, user_cert);
    }

    /// Submit a burst of user requests to one broker daemon without any
    /// per-request wait; the daemon batches their signature checks and
    /// coalesces the outbound frames (see [`BrokerDaemon::submit_all`]).
    pub fn submit_all(&self, domain: &str, requests: Vec<(SignedRar, Certificate)>) {
        self.daemons[domain].submit_all(requests);
    }

    /// Request a sub-flow inside an established tunnel at its source
    /// broker.
    pub fn tunnel_flow(
        &self,
        domain: &str,
        tunnel: qos_core::rar::RarId,
        flow: u64,
        rate_bps: u64,
        requestor: qos_crypto::DistinguishedName,
    ) {
        self.daemons[domain].tunnel_flow(tunnel, flow, rate_bps, requestor);
    }

    /// Broadcast a wall-clock update.
    pub fn set_time(&self, now: Timestamp) {
        for d in self.daemons.values() {
            d.set_time(now);
        }
    }

    /// Wait for `n` completions (across all source brokers).
    pub fn wait_completions(&self, n: usize) -> Vec<(String, Completion)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.completion_rx.recv_timeout(Duration::from_secs(30)) {
                Ok(c) => out.push(c),
                Err(_) => break,
            }
        }
        out
    }

    /// Sever every live session in the mesh; daemons recover via
    /// reconnect with backoff. Returns with every daemon's side severed.
    pub fn kill_connections(&self) {
        for d in self.daemons.values() {
            d.kill_connections();
        }
    }

    /// Wait until every daemon has all its peering sessions again.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        self.daemons.values().all(|d| d.wait_connected(timeout))
    }

    /// Stop all daemons and return the broker nodes.
    pub fn shutdown(mut self) -> HashMap<String, BbNode> {
        let mut nodes = HashMap::new();
        for (domain, daemon) in self.daemons.drain() {
            nodes.insert(domain, daemon.shutdown());
        }
        nodes
    }
}
