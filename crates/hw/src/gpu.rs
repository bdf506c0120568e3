//! GPU models: the mobile Adreno 650 and discrete NVIDIA server parts.

use socc_sim::units::Power;

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// Broad GPU class, which determines power-behaviour defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuClass {
    /// Integrated mobile GPU sharing the SoC power budget.
    MobileIntegrated,
    /// Discrete datacenter GPU with its own board power.
    DatacenterDiscrete,
}

/// A GPU compute model.
///
/// DL-serving latency is *not* computed from raw TFLOPS — real engines reach
/// wildly different fractions of peak depending on the operator mix — so
/// `socc-dl` anchors per-engine latency separately. This model carries the
/// physical attributes the orchestrator and power accounting need.
#[derive(Debug, Clone)]
pub struct GpuModel {
    /// Marketing name.
    pub name: String,
    /// Class of the part.
    pub class: GpuClass,
    /// Peak FP32 throughput in GFLOP/s (for reference/reporting).
    pub peak_fp32_gflops: f64,
    /// Peak INT8 throughput in GOP/s.
    pub peak_int8_gops: f64,
    /// Dedicated memory in GB (shared with the SoC for mobile parts).
    pub memory_gb: f64,
    /// Power model of the part.
    pub power_model: LoadPowerModel,
    /// Number of independent NVENC-class encode sessions the part sustains
    /// concurrently (0 when the part has no hardware encoder exposed).
    pub encoder_sessions: usize,
}

impl GpuModel {
    /// Electrical power at a state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        self.power_model.power(state, util)
    }

    /// Workload (idle-excluded) power.
    pub fn workload_power(&self, util: Utilization) -> Power {
        self.power_model.workload_power(util)
    }

    /// The Adreno 650 inside a Snapdragon 865 (Table 1).
    pub fn adreno_650() -> Self {
        Self {
            name: "Qualcomm Adreno 650".to_string(),
            class: GpuClass::MobileIntegrated,
            peak_fp32_gflops: 1250.0,
            peak_int8_gops: 5000.0,
            memory_gb: 0.0, // shares LPDDR5 with the CPU
            // Workload power anchored at 1.71 W for DL (calib); mobile GPUs
            // have essentially no activation step.
            power_model: LoadPowerModel::new(0.15, 0.1, crate::calib::DL_SOC_GPU_POWER_W - 0.1),
            encoder_sessions: 0, // encoding is the Venus codec's job
        }
    }

    /// NVIDIA A40 (Table 1: 8 of them in the traditional edge server).
    pub fn a40() -> Self {
        Self {
            name: "NVIDIA A40".to_string(),
            class: GpuClass::DatacenterDiscrete,
            peak_fp32_gflops: 37_400.0,
            peak_int8_gops: 299_000.0,
            memory_gb: 48.0,
            // Large activation step: the part jumps to high clocks as soon
            // as any work arrives (§4.1).
            power_model: LoadPowerModel::new(
                crate::calib::A40_TRANSCODE_POWER.0,
                crate::calib::A40_TRANSCODE_POWER.1,
                crate::calib::A40_TRANSCODE_POWER.2 + 120.0, // DL loads clock higher than NVENC
            ),
            encoder_sessions: 32,
        }
    }

    /// NVIDIA A100 (used for DL-serving comparison only; it has no NVENC,
    /// which is why the paper excludes it from transcoding (§3)).
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100".to_string(),
            class: GpuClass::DatacenterDiscrete,
            peak_fp32_gflops: 19_500.0,
            peak_int8_gops: 624_000.0,
            memory_gb: 40.0,
            power_model: LoadPowerModel::new(40.0, 60.0, crate::calib::DL_A100_POWER_W - 60.0),
            encoder_sessions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_has_no_encoder() {
        assert_eq!(GpuModel::a100().encoder_sessions, 0);
        assert!(GpuModel::a40().encoder_sessions > 0);
    }

    #[test]
    fn discrete_gpu_has_large_activation_step() {
        let a40 = GpuModel::a40();
        let adreno = GpuModel::adreno_650();
        // Workload power at minimal load: the A40 pays tens of watts, the
        // mobile GPU a fraction of a watt (§4.1's 40.8× efficiency gap).
        let tiny = Utilization::new(0.02);
        assert!(a40.workload_power(tiny).as_watts() > 50.0);
        assert!(adreno.workload_power(tiny).as_watts() < 0.3);
    }

    #[test]
    fn adreno_dl_power_matches_anchor() {
        let p = GpuModel::adreno_650()
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
