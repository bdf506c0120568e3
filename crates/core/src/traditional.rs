//! The traditional edge server twin (Table 1): Intel Xeon Gold 5218R host,
//! 768 GB DDR4, optionally 8× NVIDIA A40 — the baseline every experiment
//! compares against.

use socc_hw::codec::HwCodecModel;
use socc_hw::cpu::CpuModel;
use socc_hw::gpu::GpuModel;
use socc_hw::memory::MemoryModel;
use socc_hw::power::{PowerState, Utilization};
use socc_sim::units::Power;

/// Chassis overhead: fans, PSU losses, disks, NICs.
const CHASSIS_BASE_W: f64 = 100.0;

/// The Xeon + A40 baseline server.
pub struct TraditionalServer {
    /// Number of installed A40 GPUs (8 or 0).
    pub(crate) gpu_count: usize,
    cpu: CpuModel,
    dram: MemoryModel,
    gpu: GpuModel,
    nvenc: HwCodecModel,
}

impl TraditionalServer {
    /// The full Table 1 configuration: 8× A40.
    pub(crate) fn with_gpus() -> Self {
        Self {
            gpu_count: 8,
            cpu: CpuModel::xeon_5218r_host(),
            dram: MemoryModel::ddr4_768gb(),
            gpu: GpuModel::a40(),
            nvenc: HwCodecModel::nvenc_a40(),
        }
    }

    /// The "virtual server" of §6: the same box with all GPUs removed.
    pub fn cpu_only() -> Self {
        Self {
            gpu_count: 0,
            ..Self::with_gpus()
        }
    }

    /// Number of 8-core Docker containers carved from the host (§3).
    #[cfg(test)]
    pub(crate) fn container_count(&self) -> usize {
        socc_hw::calib::INTEL_CONTAINER_COUNT
    }

    /// Total power at given CPU and GPU utilizations.
    ///
    /// `gpu_util` applies the A40's *transcoding* power model; DL serving
    /// power is accounted by `socc-dl`'s engines instead.
    pub fn power(&self, cpu_util: Utilization, gpu_util: Utilization, gpus_busy: usize) -> Power {
        let mut p = Power::watts(CHASSIS_BASE_W);
        p += self.cpu.power(PowerState::Active, cpu_util);
        let dram_util = Utilization::new(cpu_util.get().max(if gpus_busy > 0 { 0.2 } else { 0.0 }));
        p += self.dram.power(PowerState::Active, dram_util);
        let busy = gpus_busy.min(self.gpu_count);
        // Transcoding GPUs follow the NVENC power curve (the A40's DL curve
        // clocks far higher and is accounted by `socc-dl`).
        p += self.nvenc.power(PowerState::Active, gpu_util) * busy as f64;
        p += self.gpu.power(PowerState::Idle, Utilization::ZERO) * (self.gpu_count - busy) as f64;
        p
    }

    /// Power with everything idle.
    #[cfg(test)]
    pub(crate) fn idle_power(&self) -> Power {
        self.power(Utilization::ZERO, Utilization::ZERO, 0)
    }

    /// Average peak power while live-transcoding at full CPU load on all
    /// containers (Table 4's CPU-only anchor: 633 W).
    #[cfg(test)]
    pub(crate) fn live_cpu_full_power(&self) -> Power {
        self.power(Utilization::FULL, Utilization::ZERO, 0)
    }

    /// Average peak power while live-transcoding on all GPUs (Table 4's
    /// 8-GPU anchor: 1,231 W); the host only demuxes and feeds streams.
    #[cfg(test)]
    pub(crate) fn live_gpu_full_power(&self) -> Power {
        self.power(Utilization::new(0.05), Utilization::FULL, self.gpu_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_only_peak_matches_table4() {
        let p = TraditionalServer::cpu_only()
            .live_cpu_full_power()
            .as_watts();
        let target = socc_hw::calib::EDGE_CPU_AVG_PEAK_W;
        assert!((p - target).abs() / target < 0.04, "{p} vs {target}");
    }

    #[test]
    fn gpu_server_peak_matches_table4() {
        let p = TraditionalServer::with_gpus()
            .live_gpu_full_power()
            .as_watts();
        let target = socc_hw::calib::EDGE_GPU_AVG_PEAK_W;
        assert!((p - target).abs() / target < 0.06, "{p} vs {target}");
    }

    #[test]
    fn idle_still_draws_hundreds_of_watts() {
        // Monolithic servers have a high idle floor — the contrast with
        // the cluster's per-SoC power gating.
        let idle = TraditionalServer::with_gpus().idle_power().as_watts();
        assert!((350.0..=520.0).contains(&idle), "idle {idle}");
    }

    #[test]
    fn removing_gpus_removes_idle_power() {
        let with = TraditionalServer::with_gpus().idle_power();
        let without = TraditionalServer::cpu_only().idle_power();
        assert!((with.as_watts() - without.as_watts() - 8.0 * 30.0).abs() < 1.0);
    }

    #[test]
    fn ten_containers() {
        assert_eq!(TraditionalServer::with_gpus().container_count(), 10);
    }
}
