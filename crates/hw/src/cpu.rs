//! CPU models: mobile big.LITTLE complexes and server many-core parts.

use socc_sim::units::Power;

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// A CPU complex: its transcode capacity plus a power model.
///
/// The capacity is throughput on many independent transcode processes,
/// which scale close to linearly; the Geekbench-style figures of Table 2
/// live in [`crate::microbench`].
#[derive(Debug, Clone)]
pub struct CpuModel {
    /// Core count (Table 1); only the spec tests read it.
    #[cfg(test)]
    pub(crate) cores: usize,
    /// Capacity in transcode perf-units (pu); see `socc_hw::calib`.
    pub(crate) transcode_pu: f64,
    /// Power model for the whole complex.
    pub power_model: LoadPowerModel,
}

impl CpuModel {
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
    /// 4× A55 silver @ 1.80 GHz; the transcode capacity is Table 2's per-SoC
    /// 3,235 (194,100 / 60).
    pub fn kryo_585() -> Self {
        Self {
            #[cfg(test)]
            cores: 8,
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
        Self {
            #[cfg(test)]
            cores: 8,
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
        Self {
            #[cfg(test)]
            cores: 40,
            transcode_pu: crate::calib::INTEL_CONTAINER_TRANSCODE_PU
                * crate::calib::INTEL_CONTAINER_COUNT as f64,
            power_model: LoadPowerModel::new(
                crate::calib::INTEL_CONTAINER_POWER.0 * crate::calib::INTEL_CONTAINER_COUNT as f64,
                crate::calib::INTEL_CONTAINER_POWER.1 * crate::calib::INTEL_CONTAINER_COUNT as f64,
                crate::calib::INTEL_CONTAINER_POWER.2 * crate::calib::INTEL_CONTAINER_COUNT as f64,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_container_is_about_twice_a_soc() {
        let soc = CpuModel::kryo_585();
        let intel = CpuModel::xeon_5218r_container();
        let ratio = intel.transcode_capacity() / soc.transcode_capacity();
        assert!((1.9..=2.1).contains(&ratio), "ratio {ratio}");
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
