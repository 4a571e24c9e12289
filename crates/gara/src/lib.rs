//! # gara — General-purpose Architecture for Reservation and Allocation
//!
//! The paper builds on GARA, which "provides advance reservations and
//! end-to-end management for quality of service on different types of
//! resources, including networks, CPUs, and disks", with "APIs that
//! allows users and applications to manipulate reservations of different
//! resources in uniform ways". This crate reproduces that layer on top
//! of `qos-core`'s broker mesh:
//!
//! * [`resource`] — CPU/disk managers over the same advance-reservation
//!   tables the brokers use;
//! * [`api`] — the uniform handle-based reservation API ([`api::Gara`]),
//!   including the network+CPU **co-reservation** of Figures 5/6 with
//!   all-or-nothing rollback.
//!
//! The Approach-1 end-to-end network library the paper describes (the
//! GARA agent contacting every broker, sequentially or "if optimized,
//! concurrently") lives in [`qos_core::source`] and is re-exported here.

pub mod api;
pub mod resource;

pub use api::{Gara, GaraError, GaraHandle, GaraStatus};
pub use qos_core::source::{AgentMode, SourceBasedOutcome, SourceBasedRun};
pub use resource::{ResourceKind, SlottedResource};

#[cfg(test)]
mod tests {
    use super::*;
    use qos_broker::Interval;
    use qos_core::scenario::{build_chain, ChainOptions};
    use qos_crypto::Timestamp;
    use qos_net::SimDuration;
    use qos_policy::samples;
    use std::collections::HashMap;

    const MBPS: u64 = 1_000_000;

    fn gara_with_fig6() -> (Gara, qos_core::scenario::Scenario) {
        let mut policies = HashMap::new();
        policies.insert(0, samples::FIG6_DOMAIN_A.to_string());
        policies.insert(1, samples::FIG6_DOMAIN_B.to_string());
        policies.insert(2, samples::FIG6_DOMAIN_C.to_string());
        let mut s = build_chain(ChainOptions {
            policies,
            ..ChainOptions::default()
        });
        let mut gara = Gara::new(s.mesh(SimDuration::from_millis(5)));
        gara.register_cpu("domain-c", 64);
        gara.register_disk("domain-c", 500_000_000);
        (gara, s)
    }

    #[test]
    fn co_reservation_grants_figure6_request() {
        let (mut gara, mut s) = gara_with_fig6();
        let spec = s.spec("alice", 7, 10 * MBPS, Timestamp(0), 3600);
        let alice = &s.users["alice"];
        let (net, cpu) = gara
            .co_reserve_network_cpu(alice, "domain-a", spec, 8)
            .unwrap();
        assert!(gara.status(net).unwrap().is_granted());
        assert!(gara.status(cpu).unwrap().is_granted());
        // CPU slots actually consumed.
        assert_eq!(
            gara.available("domain-c", ResourceKind::Cpu, Timestamp(10)),
            Some(56)
        );
    }

    #[test]
    fn co_reservation_rolls_back_cpu_on_network_denial() {
        let (mut gara, mut s) = gara_with_fig6();
        // David has no ESnet capability: domain C denies ≥5 Mb/s.
        let spec = s.spec("david", 8, 10 * MBPS, Timestamp(0), 3600);
        let david = &s.users["david"];
        let (net, cpu) = gara
            .co_reserve_network_cpu(david, "domain-a", spec, 8)
            .unwrap();
        assert!(!gara.status(net).unwrap().is_granted());
        assert_eq!(gara.status(cpu).unwrap(), GaraStatus::Cancelled);
        // All 64 slots are free again.
        assert_eq!(
            gara.available("domain-c", ResourceKind::Cpu, Timestamp(10)),
            Some(64)
        );
    }

    #[test]
    fn uniform_api_over_cpu_and_disk() {
        let (mut gara, _s) = gara_with_fig6();
        let iv = Interval::starting_at(Timestamp(0), 100);
        let cpu = gara.reserve_cpu("domain-c", 32, iv).unwrap();
        let disk = gara.reserve_disk("domain-c", 100_000_000, iv).unwrap();
        assert!(gara.status(cpu).unwrap().is_granted());
        assert!(gara.status(disk).unwrap().is_granted());
        gara.cancel(cpu).unwrap();
        assert_eq!(gara.status(cpu).unwrap(), GaraStatus::Cancelled);
        // Unknown resources error cleanly.
        assert!(gara.reserve_cpu("domain-x", 1, iv).is_err());
        assert!(gara.status(GaraHandle(999)).is_err());
    }

    #[test]
    fn oversubscribed_cpu_is_refused() {
        let (mut gara, _s) = gara_with_fig6();
        let iv = Interval::starting_at(Timestamp(0), 100);
        gara.reserve_cpu("domain-c", 60, iv).unwrap();
        let err = gara.reserve_cpu("domain-c", 10, iv).unwrap_err();
        assert!(matches!(err, GaraError::Admission(_)));
    }
}
