//! CPU models: mobile big.LITTLE complexes and server many-core parts.

use socc_sim::units::{Frequency, Power};

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// A homogeneous cluster of CPU cores (e.g. the prime/gold/silver tiers of a
/// Kryo 585, or all cores of a server part).
#[derive(Debug, Clone)]
pub struct CoreCluster {
    /// Human-readable tier name ("prime", "gold", "silver", …).
    pub name: String,
    /// Number of cores in the tier.
    pub count: usize,
    /// Maximum clock of the tier.
    pub max_freq: Frequency,
    /// Single-core performance in Geekbench-5-like points at max clock.
    pub perf_per_core: f64,
}

impl CoreCluster {
    /// Creates a tier.
    pub fn new(name: &str, count: usize, ghz: f64, perf_per_core: f64) -> Self {
        Self {
            name: name.to_string(),
            count,
            max_freq: Frequency::ghz(ghz),
            perf_per_core,
        }
    }

    /// Raw aggregate performance of the tier (no scaling losses).
    pub fn raw_perf(&self) -> f64 {
        self.count as f64 * self.perf_per_core
    }
}

/// A CPU complex: one or more core tiers plus a power model.
///
/// Two throughput figures matter and differ by workload:
/// - [`multicore_perf`](Self::multicore_perf): sustained all-core throughput
///   under shared-resource contention and (for phones) thermal limits, used
///   for Geekbench-style micro-benchmarks (Table 2);
/// - [`transcode_capacity`](Self::transcode_capacity): throughput on many
///   independent transcode processes, which scale closer to linearly.
#[derive(Debug, Clone)]
pub struct CpuModel {
    /// Marketing name of the part.
    pub name: String,
    /// Core tiers.
    pub clusters: Vec<CoreCluster>,
    /// Multicore scaling efficiency in `(0, 1]` applied to the raw per-tier
    /// sum for all-core benchmark workloads.
    pub multicore_efficiency: f64,
    /// Capacity in transcode perf-units (pu); see `socc_hw::calib`.
    pub transcode_pu: f64,
    /// Power model for the whole complex.
    pub power_model: LoadPowerModel,
}

impl CpuModel {
    /// Total core count across tiers.
    pub fn core_count(&self) -> usize {
        self.clusters.iter().map(|c| c.count).sum()
    }

    /// Single-core performance: the fastest tier's per-core score.
    pub fn single_core_perf(&self) -> f64 {
        self.clusters
            .iter()
            .map(|c| c.perf_per_core)
            .fold(0.0, f64::max)
    }

    /// Sustained all-core performance with contention losses applied.
    pub fn multicore_perf(&self) -> f64 {
        self.clusters.iter().map(CoreCluster::raw_perf).sum::<f64>() * self.multicore_efficiency
    }

    /// Transcode capacity in perf-units.
    pub fn transcode_capacity(&self) -> f64 {
        self.transcode_pu
    }

    /// Electrical power at a given state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        self.power_model.power(state, util)
    }

    /// Workload (idle-excluded) power at a utilization.
    pub fn workload_power(&self, util: Utilization) -> Power {
        self.power_model.workload_power(util)
    }

    /// The Kryo 585 complex of a Snapdragon 865 (Table 1).
    ///
    /// Tier layout: 1× Cortex-A77 prime @ 2.84 GHz, 3× A77 gold @ 2.42 GHz,
    /// 4× A55 silver @ 1.80 GHz. Per-core score anchored at Table 2's 911;
    /// multicore efficiency calibrated so `multicore_perf` matches Table 2's
    /// per-SoC 3,235 (194,100 / 60).
    pub fn kryo_585() -> Self {
        let clusters = vec![
            CoreCluster::new("prime", 1, 2.84, 911.0),
            CoreCluster::new("gold", 3, 2.42, 776.0),
            CoreCluster::new("silver", 4, 1.80, 433.0),
        ];
        let raw: f64 = clusters.iter().map(CoreCluster::raw_perf).sum();
        Self {
            name: "Qualcomm Kryo 585".to_string(),
            clusters,
            multicore_efficiency: crate::calib::SOC_CPU_TRANSCODE_PU / raw,
            transcode_pu: crate::calib::SOC_CPU_TRANSCODE_PU,
            power_model: LoadPowerModel::new(
                crate::calib::SOC_CPU_POWER.0,
                crate::calib::SOC_CPU_POWER.1,
                crate::calib::SOC_CPU_POWER.2,
            ),
        }
    }

    /// An 8-core Docker container slice of the Intel Xeon Gold 5218R host
    /// (§3 "Setups").
    pub fn xeon_5218r_container() -> Self {
        let clusters = vec![CoreCluster::new("core", 8, 4.0, 840.0)];
        Self {
            name: "Intel Xeon Gold 5218R (8-core container)".to_string(),
            clusters,
            // Independent containers see little cross-container contention.
            multicore_efficiency: 0.92,
            transcode_pu: crate::calib::INTEL_CONTAINER_TRANSCODE_PU,
            power_model: LoadPowerModel::new(
                crate::calib::INTEL_CONTAINER_POWER.0,
                crate::calib::INTEL_CONTAINER_POWER.1,
                crate::calib::INTEL_CONTAINER_POWER.2,
            ),
        }
    }

    /// The whole dual-socket Xeon Gold 5218R host (40 physical cores).
    pub fn xeon_5218r_host() -> Self {
        let clusters = vec![CoreCluster::new("core", 40, 4.0, 840.0)];
        let raw: f64 = clusters.iter().map(CoreCluster::raw_perf).sum();
        Self {
            name: "Intel Xeon Gold 5218R".to_string(),
            clusters,
            // Table 2: whole-server CPU score 15,450 vs 40 × 840 raw.
            multicore_efficiency: 15_450.0 / raw,
            transcode_pu: crate::calib::INTEL_CONTAINER_TRANSCODE_PU
                * crate::calib::INTEL_CONTAINER_COUNT as f64,
            power_model: LoadPowerModel::new(
                crate::calib::INTEL_CONTAINER_POWER.0 * crate::calib::INTEL_CONTAINER_COUNT as f64,
                crate::calib::INTEL_CONTAINER_POWER.1 * crate::calib::INTEL_CONTAINER_COUNT as f64,
                crate::calib::INTEL_CONTAINER_POWER.2 * crate::calib::INTEL_CONTAINER_COUNT as f64,
            ),
        }
    }

    /// AWS Graviton 2 (m6g.metal, 64 cores) — Table 2 comparison point.
    pub fn graviton2() -> Self {
        let clusters = vec![CoreCluster::new("core", 64, 2.5, 762.0)];
        let raw: f64 = clusters.iter().map(CoreCluster::raw_perf).sum();
        Self {
            name: "AWS Graviton 2".to_string(),
            clusters,
            multicore_efficiency: 36_091.0 / raw,
            transcode_pu: 36_091.0,
            power_model: LoadPowerModel::new(30.0, 10.0, 110.0),
        }
    }

    /// AWS Graviton 3 (m7g.metal, 64 cores) — Table 2 comparison point.
    pub fn graviton3() -> Self {
        let clusters = vec![CoreCluster::new("core", 64, 2.6, 1121.0)];
        let raw: f64 = clusters.iter().map(CoreCluster::raw_perf).sum();
        Self {
            name: "AWS Graviton 3".to_string(),
            clusters,
            multicore_efficiency: 51_379.0 / raw,
            transcode_pu: 51_379.0,
            power_model: LoadPowerModel::new(30.0, 10.0, 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kryo_matches_table2_anchors() {
        let cpu = CpuModel::kryo_585();
        assert_eq!(cpu.core_count(), 8);
        assert_eq!(cpu.single_core_perf(), 911.0);
        assert!((cpu.multicore_perf() - 3235.0).abs() < 1.0);
    }

    #[test]
    fn xeon_host_matches_table2() {
        let cpu = CpuModel::xeon_5218r_host();
        assert_eq!(cpu.core_count(), 40);
        assert!((cpu.multicore_perf() - 15_450.0).abs() < 1.0);
    }

    #[test]
    fn intel_container_is_about_twice_a_soc() {
        let soc = CpuModel::kryo_585();
        let intel = CpuModel::xeon_5218r_container();
        let ratio = intel.transcode_capacity() / soc.transcode_capacity();
        assert!((1.9..=2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn graviton3_outperforms_graviton2() {
        assert!(CpuModel::graviton3().multicore_perf() > CpuModel::graviton2().multicore_perf());
        assert!(
            CpuModel::graviton3().single_core_perf() > CpuModel::graviton2().single_core_perf()
        );
    }

    #[test]
    fn soc_full_load_workload_power_near_6_6w() {
        let cpu = CpuModel::kryo_585();
        let p = cpu.workload_power(Utilization::FULL).as_watts();
        assert!((6.0..=7.0).contains(&p), "power {p}");
    }

    #[test]
    fn power_zero_when_off() {
        let cpu = CpuModel::kryo_585();
        assert_eq!(cpu.power(PowerState::Off, Utilization::FULL), Power::ZERO);
    }
}
