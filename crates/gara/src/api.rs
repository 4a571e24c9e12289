//! The uniform GARA reservation API.
//!
//! "It defines APIs that allows users and applications to manipulate
//! reservations of different resources in uniform ways." A [`Gara`]
//! instance fronts a broker [`Mesh`] (network reservations ride the
//! hop-by-hop protocol of `qos-core`) plus per-domain CPU and disk
//! managers, all behind handle-based create / status / cancel calls —
//! including the **co-reservation** of network + CPU that Figures 5
//! and 6 depend on (`CPU_Reservation_ID=111`).

use crate::resource::{ResourceKind, SlottedResource};
use qos_broker::Interval;
use qos_core::drive::Mesh;
use qos_core::node::Completion;
use qos_core::scenario::UserIdentity;
use qos_core::{Approval, Denial, Input, RarId, ResSpec, SignedRar};
use qos_crypto::Certificate;
use qos_net::SimDuration;
use std::collections::HashMap;
use std::fmt;

/// An opaque reservation handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GaraHandle(pub u64);

/// Reservation state as reported by [`Gara::status`].
#[derive(Debug, Clone, PartialEq)]
pub enum GaraStatus {
    /// Granted; for network reservations the signed approval chain is
    /// available.
    Granted {
        /// The approval (network reservations only).
        approval: Option<Approval>,
    },
    /// Denied, with the denying domain and reason.
    Denied {
        /// Denying domain (network) or resource domain (CPU/disk).
        domain: String,
        /// Why.
        reason: String,
    },
    /// Cancelled by the caller.
    Cancelled,
}

impl GaraStatus {
    /// True for `Granted`.
    pub fn is_granted(&self) -> bool {
        matches!(self, GaraStatus::Granted { .. })
    }
}

/// GARA API errors.
#[derive(Debug, Clone, PartialEq)]
pub enum GaraError {
    /// Unknown handle.
    UnknownHandle(GaraHandle),
    /// No such resource manager.
    UnknownResource {
        /// The domain asked for.
        domain: String,
        /// The resource kind asked for.
        kind: ResourceKind,
    },
    /// The local resource manager refused.
    Admission(String),
    /// The network request never completed (driver exhausted without a
    /// completion — a protocol bug if it ever happens).
    NoCompletion(RarId),
}

impl fmt::Display for GaraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GaraError::UnknownHandle(h) => write!(f, "unknown handle {h:?}"),
            GaraError::UnknownResource { domain, kind } => {
                write!(f, "no {kind:?} manager in {domain}")
            }
            GaraError::Admission(m) => write!(f, "admission: {m}"),
            GaraError::NoCompletion(id) => write!(f, "request {id:?} never completed"),
        }
    }
}

impl std::error::Error for GaraError {}

enum Record {
    Network {
        rar_id: RarId,
        result: Result<Approval, Denial>,
        cancelled: bool,
    },
    Slotted {
        domain: String,
        kind: ResourceKind,
        id: qos_broker::ReservationId,
        cancelled: bool,
    },
}

/// The GARA service: uniform reservations over a broker mesh and local
/// resource managers.
pub struct Gara {
    mesh: Mesh,
    slotted: HashMap<(String, ResourceKind), SlottedResource>,
    records: HashMap<GaraHandle, Record>,
    next_handle: u64,
    next_cpu_resv_id: u64,
}

impl Gara {
    /// Wrap a configured mesh.
    pub fn new(mesh: Mesh) -> Self {
        Self {
            mesh,
            slotted: HashMap::new(),
            records: HashMap::new(),
            next_handle: 1,
            next_cpu_resv_id: 100,
        }
    }

    /// Register a CPU resource (`slots` units) in `domain`.
    pub fn register_cpu(&mut self, domain: &str, slots: u64) {
        self.slotted.insert(
            (domain.to_string(), ResourceKind::Cpu),
            SlottedResource::new(ResourceKind::Cpu, slots),
        );
    }

    /// Register a disk resource (`bytes_per_sec` units) in `domain`.
    pub fn register_disk(&mut self, domain: &str, bytes_per_sec: u64) {
        self.slotted.insert(
            (domain.to_string(), ResourceKind::Disk),
            SlottedResource::new(ResourceKind::Disk, bytes_per_sec),
        );
    }

    /// The underlying mesh (for attaching networks, inspecting brokers).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Mutable mesh access.
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }

    fn handle(&mut self) -> GaraHandle {
        let h = GaraHandle(self.next_handle);
        self.next_handle += 1;
        h
    }

    /// Reserve CPU slots.
    pub fn reserve_cpu(
        &mut self,
        domain: &str,
        slots: u64,
        interval: Interval,
    ) -> Result<GaraHandle, GaraError> {
        self.reserve_slotted(domain, ResourceKind::Cpu, slots, interval)
    }

    /// Reserve disk bandwidth.
    pub fn reserve_disk(
        &mut self,
        domain: &str,
        bytes_per_sec: u64,
        interval: Interval,
    ) -> Result<GaraHandle, GaraError> {
        self.reserve_slotted(domain, ResourceKind::Disk, bytes_per_sec, interval)
    }

    fn reserve_slotted(
        &mut self,
        domain: &str,
        kind: ResourceKind,
        units: u64,
        interval: Interval,
    ) -> Result<GaraHandle, GaraError> {
        let res = self
            .slotted
            .get_mut(&(domain.to_string(), kind))
            .ok_or_else(|| GaraError::UnknownResource {
                domain: domain.to_string(),
                kind,
            })?;
        let id = res
            .reserve(interval, units)
            .map_err(|e| GaraError::Admission(e.to_string()))?;
        let h = self.handle();
        self.records.insert(
            h,
            Record::Slotted {
                domain: domain.to_string(),
                kind,
                id,
                cancelled: false,
            },
        );
        Ok(h)
    }

    /// Reserve end-to-end network bandwidth via hop-by-hop signalling,
    /// driving the mesh until the reservation completes.
    pub fn reserve_network(
        &mut self,
        rar: SignedRar,
        user_cert: Certificate,
    ) -> Result<GaraHandle, GaraError> {
        let spec = rar.res_spec().clone();
        let rar_id = spec.rar_id;
        let source = spec.source_domain.clone();
        self.mesh
            .submit_in(SimDuration::ZERO, &source, rar, user_cert);
        self.mesh.run_until_idle();
        let (_, completion) = self
            .mesh
            .reservation_outcome(&source, rar_id)
            .ok_or(GaraError::NoCompletion(rar_id))?;
        let result = match completion {
            Completion::Reservation { result, .. } => result.clone(),
            _ => return Err(GaraError::NoCompletion(rar_id)),
        };
        let h = self.handle();
        self.records.insert(
            h,
            Record::Network {
                rar_id,
                result,
                cancelled: false,
            },
        );
        Ok(h)
    }

    /// Co-reserve network + CPU (Figures 5/6): reserve CPU slots in the
    /// destination domain, register the reservation with the destination
    /// broker's oracle, then request the network reservation referencing
    /// it. If the network request is denied, the CPU reservation is
    /// rolled back — all-or-nothing.
    pub fn co_reserve_network_cpu(
        &mut self,
        user: &UserIdentity,
        source_domain: &str,
        mut spec: ResSpec,
        cpu_slots: u64,
    ) -> Result<(GaraHandle, GaraHandle), GaraError> {
        let dest = spec.dest_domain.clone();
        let interval = spec.interval;
        let cpu_handle = self.reserve_cpu(&dest, cpu_slots, interval)?;

        // Name the coupled reservation so the destination's policy can
        // check `HasValidCPUResv(RAR)`.
        let cpu_resv_id = self.next_cpu_resv_id;
        self.next_cpu_resv_id += 1;
        let input = Input::CpuReservation(cpu_resv_id);
        self.mesh.input_in(SimDuration::ZERO, &dest, input);
        spec.cpu_reservation_id = Some(cpu_resv_id);

        let rar = user.sign_request(spec, self.mesh.node(source_domain));
        let net_handle = self.reserve_network(rar, user.cert.clone())?;
        if !self.status(net_handle)?.is_granted() {
            self.cancel(cpu_handle)?;
        }
        Ok((net_handle, cpu_handle))
    }

    /// The RAR id behind a network reservation handle.
    pub fn network_rar_id(&self, h: GaraHandle) -> Option<RarId> {
        match self.records.get(&h) {
            Some(Record::Network { rar_id, .. }) => Some(*rar_id),
            _ => None,
        }
    }

    /// Modify a granted network reservation's rate (GARA lets
    /// applications "manipulate reservations … in uniform ways"). The
    /// modification is make-before-break: a fresh end-to-end request for
    /// the new rate is signalled first; only if it grants is the old
    /// reservation torn down. On denial the old reservation stands and
    /// the error carries the denial reason.
    pub fn modify_network(
        &mut self,
        h: GaraHandle,
        user: &UserIdentity,
        new_rate_bps: u64,
    ) -> Result<GaraHandle, GaraError> {
        let (old_result, _old_id) = match self.records.get(&h) {
            Some(Record::Network {
                result,
                rar_id,
                cancelled: false,
            }) => (result.clone(), *rar_id),
            Some(_) => return Err(GaraError::UnknownHandle(h)),
            None => return Err(GaraError::UnknownHandle(h)),
        };
        let approval = match old_result {
            Ok(a) => a,
            Err(_) => return Err(GaraError::UnknownHandle(h)),
        };
        let source = approval
            .entries
            .last()
            .map(|e| e.domain.clone())
            .ok_or(GaraError::UnknownHandle(h))?;

        // Rebuild the spec with the new rate under a fresh RAR id.
        let new_id = RarId(self.next_cpu_resv_id * 1_000_003 + h.0);
        let mut spec = ResSpec::new(
            new_id,
            user.dn.clone(),
            &source,
            &approval
                .entries
                .first()
                .map(|e| e.domain.clone())
                .unwrap_or_default(),
            h.0, // keep the flow id stable across the modification
            new_rate_bps,
            Interval::new(qos_crypto::Timestamp(0), qos_crypto::Timestamp(0)),
        );
        // Inherit interval from the original reservation's broker record.
        if let Some((interval, _, _)) = self
            .mesh
            .node(&source)
            .core()
            .info(qos_core::node::rar_id_to_reservation(approval.rar_id))
        {
            spec.interval = interval;
        }
        let rar = user.sign_request(spec, self.mesh.node(&source));
        let new_handle = self.reserve_network(rar, user.cert.clone())?;
        if self.status(new_handle)?.is_granted() {
            self.cancel(h)?;
            Ok(new_handle)
        } else {
            let status = self.status(new_handle)?;
            // Forget the failed attempt; the old reservation stands.
            self.records.remove(&new_handle);
            match status {
                GaraStatus::Denied { domain, reason } => Err(GaraError::Admission(format!(
                    "modification denied by {domain}: {reason}"
                ))),
                _ => Err(GaraError::NoCompletion(new_id)),
            }
        }
    }

    /// Query a reservation.
    pub fn status(&self, h: GaraHandle) -> Result<GaraStatus, GaraError> {
        match self.records.get(&h) {
            None => Err(GaraError::UnknownHandle(h)),
            Some(Record::Network {
                result, cancelled, ..
            }) => Ok(if *cancelled {
                GaraStatus::Cancelled
            } else {
                match result {
                    Ok(a) => GaraStatus::Granted {
                        approval: Some(a.clone()),
                    },
                    Err(d) => GaraStatus::Denied {
                        domain: d.domain.clone(),
                        reason: d.reason.clone(),
                    },
                }
            }),
            Some(Record::Slotted { cancelled, .. }) => Ok(if *cancelled {
                GaraStatus::Cancelled
            } else {
                GaraStatus::Granted { approval: None }
            }),
        }
    }

    /// Cancel a reservation (idempotent). Network cancellations tear the
    /// reservation down end-to-end: every domain on the path releases
    /// its capacity and re-dimensions its edge routers.
    pub fn cancel(&mut self, h: GaraHandle) -> Result<(), GaraError> {
        match self.records.get_mut(&h) {
            None => Err(GaraError::UnknownHandle(h)),
            Some(Record::Network {
                rar_id,
                result,
                cancelled,
            }) => {
                if !*cancelled {
                    if let Ok(approval) = result {
                        // The approval's last entry is the source domain.
                        if let Some(source) = approval.entries.last().map(|e| e.domain.clone()) {
                            let input = Input::Release(*rar_id);
                            self.mesh.input_in(SimDuration::ZERO, &source, input);
                            self.mesh.run_until_idle();
                        }
                    }
                    *cancelled = true;
                }
                Ok(())
            }
            Some(Record::Slotted {
                domain,
                kind,
                id,
                cancelled,
            }) => {
                if !*cancelled {
                    if let Some(res) = self.slotted.get_mut(&(domain.clone(), *kind)) {
                        let _ = res.cancel(*id);
                    }
                    *cancelled = true;
                }
                Ok(())
            }
        }
    }

    /// Available units of a slotted resource at `t`.
    pub fn available(
        &self,
        domain: &str,
        kind: ResourceKind,
        t: qos_crypto::Timestamp,
    ) -> Option<u64> {
        self.slotted
            .get(&(domain.to_string(), kind))
            .map(|r| r.available_at(t))
    }
}
