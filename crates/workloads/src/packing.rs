//! VM-to-SoC consolidation: how many SoC Clusters replace a VM fleet?
//!
//! Fig. 1 shows that most VMs *individually* fit a mobile SoC; this module
//! answers the operational follow-up — bin-packing a sampled fleet onto
//! SoCs (one VM per SoC, the cluster's isolation granularity) versus onto
//! traditional servers, and what fraction of the fleet is cluster-eligible.

use crate::vmtrace::{VmPopulation, VmSubscription};

/// Outcome of consolidating a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsolidationReport {
    /// VMs in the fleet.
    pub total_vms: usize,
    /// VMs that fit a SoC (cluster-eligible).
    pub eligible: usize,
    /// SoC Clusters (60 SoCs each) needed for the eligible VMs.
    pub clusters_needed: usize,
    /// Traditional servers needed for the *whole* fleet (resource
    /// bin-packing on 40 cores / 768 GB / 1.92 TB per server).
    pub traditional_needed: usize,
    /// Mean core utilization of the SoCs hosting eligible VMs.
    pub soc_core_utilization: f64,
}

/// Bin-packs a fleet. One SoC hosts exactly one VM (the cluster's
/// hard-isolation model, §2.2); traditional servers use first-fit
/// decreasing over cores with memory/storage caps.
pub(crate) fn consolidate(vms: &[VmSubscription]) -> ConsolidationReport {
    let eligible: Vec<&VmSubscription> = vms.iter().filter(|v| v.fits_in_soc()).collect();
    let clusters_needed = eligible.len().div_ceil(socc_hw::calib::CLUSTER_SOC_COUNT);
    let used_cores: f64 = eligible.iter().map(|v| v.cores as f64).sum();
    let soc_core_utilization = if eligible.is_empty() {
        0.0
    } else {
        used_cores / (eligible.len() as f64 * socc_hw::calib::SOC_CPU_CORES as f64)
    };

    // First-fit decreasing onto traditional servers.
    const SERVER_CORES: f64 = 40.0;
    const SERVER_MEM: f64 = 768.0;
    const SERVER_STORAGE: f64 = 1920.0 + 30_000.0;
    let mut sorted: Vec<&VmSubscription> = vms.iter().collect();
    sorted.sort_by_key(|v| core::cmp::Reverse(v.cores));
    let mut servers: Vec<(f64, f64, f64)> = Vec::new();
    for vm in sorted {
        let need = (vm.cores as f64, vm.mem_gb, vm.storage_gb);
        match servers.iter_mut().find(|(c, m, s)| {
            *c + need.0 <= SERVER_CORES
                && *m + need.1 <= SERVER_MEM
                && *s + need.2 <= SERVER_STORAGE
        }) {
            Some(server) => {
                server.0 += need.0;
                server.1 += need.1;
                server.2 += need.2;
            }
            None => servers.push(need),
        }
    }

    ConsolidationReport {
        total_vms: vms.len(),
        eligible: eligible.len(),
        clusters_needed,
        traditional_needed: servers.len(),
        soc_core_utilization,
    }
}

/// Samples a fleet and consolidates it.
pub fn consolidate_population(
    pop: VmPopulation,
    n: usize,
    rng: &mut socc_sim::rng::SimRng,
) -> ConsolidationReport {
    let vms = pop.sample_many(n, rng);
    consolidate(&vms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use socc_sim::rng::SimRng;

    #[test]
    fn azure_fleet_mostly_eligible() {
        let mut rng = SimRng::seed(31);
        let r = consolidate_population(VmPopulation::Azure, 6000, &mut rng);
        assert_eq!(r.total_vms, 6000);
        let frac = r.eligible as f64 / r.total_vms as f64;
        assert!((0.60..=0.72).contains(&frac), "eligible {frac}");
        assert_eq!(r.clusters_needed, r.eligible.div_ceil(60));
    }

    #[test]
    fn soc_cores_are_underfilled_by_small_vms() {
        // One-VM-per-SoC wastes cores on 1–2 core VMs: mean utilization is
        // well below 1 — quantifying the isolation granularity's cost.
        let mut rng = SimRng::seed(32);
        let r = consolidate_population(VmPopulation::Azure, 6000, &mut rng);
        assert!(
            (0.2..=0.6).contains(&r.soc_core_utilization),
            "{}",
            r.soc_core_utilization
        );
    }

    #[test]
    fn traditional_packing_respects_all_dimensions() {
        let vms = vec![
            VmSubscription {
                cores: 40,
                mem_gb: 100.0,
                storage_gb: 100.0,
            },
            VmSubscription {
                cores: 40,
                mem_gb: 100.0,
                storage_gb: 100.0,
            },
            VmSubscription {
                cores: 2,
                mem_gb: 760.0,
                storage_gb: 100.0,
            },
        ];
        let r = consolidate(&vms);
        // Two 40-core VMs can't share; the memory hog needs its own box
        // (40-core server already holds the first VM's cores? no — FFD:
        // each 40-core VM fills a server; the 760 GB VM fits neither).
        assert_eq!(r.traditional_needed, 3);
    }

    #[test]
    fn empty_fleet() {
        let r = consolidate(&[]);
        assert_eq!(r.total_vms, 0);
        assert_eq!(r.clusters_needed, 0);
        assert_eq!(r.traditional_needed, 0);
        assert_eq!(r.soc_core_utilization, 0.0);
    }

    #[test]
    fn alibaba_needs_relatively_more_traditional_capacity() {
        // Edge VMs are bigger: fewer fit SoCs, and each eats more server.
        let mut rng = SimRng::seed(33);
        let az = consolidate_population(VmPopulation::Azure, 4000, &mut rng);
        let ali = consolidate_population(VmPopulation::AlibabaEns, 4000, &mut rng);
        let az_frac = az.eligible as f64 / az.total_vms as f64;
        let ali_frac = ali.eligible as f64 / ali.total_vms as f64;
        assert!(az_frac > ali_frac);
        assert!(ali.traditional_needed > az.traditional_needed);
    }
}
