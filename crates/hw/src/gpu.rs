//! GPU models: the mobile Adreno 650 and discrete NVIDIA server parts.

use socc_sim::units::Power;

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// A GPU compute model.
///
/// DL-serving latency is *not* computed from raw TFLOPS — real engines reach
/// wildly different fractions of peak depending on the operator mix — so
/// `socc-dl` anchors per-engine latency separately. This model carries the
/// physical attributes the orchestrator and power accounting need.
#[derive(Debug, Clone)]
pub struct GpuModel {
    /// Power model of the part.
    pub(crate) power_model: LoadPowerModel,
}

impl GpuModel {
    /// Electrical power at a state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        self.power_model.power(state, util)
    }

    /// The Adreno 650 inside a Snapdragon 865 (Table 1).
    pub(crate) fn adreno_650() -> Self {
        Self {
            // Workload power anchored at 1.71 W for DL (calib); mobile GPUs
            // have essentially no activation step.
            power_model: LoadPowerModel::new(0.15, 0.1, crate::calib::DL_SOC_GPU_POWER_W - 0.1),
        }
    }

    /// NVIDIA A40 (Table 1: 8 of them in the traditional edge server).
    pub fn a40() -> Self {
        Self {
            // Large activation step: the part jumps to high clocks as soon
            // as any work arrives (§4.1).
            power_model: LoadPowerModel::new(
                crate::calib::A40_TRANSCODE_POWER.0,
                crate::calib::A40_TRANSCODE_POWER.1,
                crate::calib::A40_TRANSCODE_POWER.2 + 120.0, // DL loads clock higher than NVENC
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_gpu_has_large_activation_step() {
        let a40 = GpuModel::a40();
        let adreno = GpuModel::adreno_650();
        // Workload power at minimal load: the A40 pays tens of watts, the
        // mobile GPU a fraction of a watt (§4.1's 40.8× efficiency gap).
        let tiny = Utilization::new(0.02);
        assert!(a40.power_model.workload_power(tiny).as_watts() > 50.0);
        assert!(adreno.power_model.workload_power(tiny).as_watts() < 0.3);
    }

    #[test]
    fn adreno_dl_power_matches_anchor() {
        let p = GpuModel::adreno_650()
            .power_model
            .workload_power(Utilization::FULL)
            .as_watts();
        assert!((p - crate::calib::DL_SOC_GPU_POWER_W).abs() < 0.05);
    }

    #[test]
    fn mobile_gpu_idle_is_negligible() {
        let adreno = GpuModel::adreno_650();
        assert!(adreno.power(PowerState::Idle, Utilization::ZERO).as_watts() < 0.5);
    }
}
