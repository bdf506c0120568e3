//! SoC deployment modes: physical Android vs containerized Android (§8,
//! Table 7).
//!
//! The cluster's virtualization solution runs the Android framework inside
//! Docker on the Android Linux kernel. Table 7 shows the cost: ~5 pp more
//! memory everywhere, and a GPU-utilization ceiling that slows large GPU
//! workloads by ~10% (YOLOv5x 620.6 → 683.7 ms).

use socc_hw::calib;

use crate::workload::SocProcessor;

/// How a SoC's software stack is deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeploymentMode {
    /// Android runs directly on the SoC.
    #[default]
    Physical,
    /// Android framework inside a Docker container.
    Containerized,
}

impl DeploymentMode {
    /// Latency multiplier for a DL workload on a processor.
    pub(crate) fn latency_factor(self, processor: SocProcessor) -> f64 {
        match (self, processor) {
            (DeploymentMode::Physical, _) => 1.0,
            (DeploymentMode::Containerized, SocProcessor::Gpu) => calib::VIRT_GPU_LATENCY_FACTOR,
            (DeploymentMode::Containerized, _) => calib::VIRT_CPU_LATENCY_FACTOR,
        }
    }

    /// Additional memory utilization in percentage points.
    pub(crate) fn memory_overhead_pp(self) -> f64 {
        match self {
            DeploymentMode::Physical => 0.0,
            DeploymentMode::Containerized => calib::VIRT_MEMORY_OVERHEAD_PP,
        }
    }

    /// Ceiling on achievable GPU utilization.
    pub(crate) fn gpu_util_ceiling(self) -> f64 {
        match self {
            DeploymentMode::Physical => 1.0,
            DeploymentMode::Containerized => calib::VIRT_GPU_UTIL_FACTOR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_is_identity() {
        for p in [SocProcessor::Cpu, SocProcessor::Gpu, SocProcessor::Dsp] {
            assert_eq!(DeploymentMode::Physical.latency_factor(p), 1.0);
        }
        assert_eq!(DeploymentMode::Physical.memory_overhead_pp(), 0.0);
        assert_eq!(DeploymentMode::Physical.gpu_util_ceiling(), 1.0);
    }

    #[test]
    fn container_slows_only_gpu() {
        let c = DeploymentMode::Containerized;
        assert!(c.latency_factor(SocProcessor::Gpu) > 1.05);
        assert_eq!(c.latency_factor(SocProcessor::Cpu), 1.0);
        assert_eq!(c.latency_factor(SocProcessor::Dsp), 1.0);
    }

    #[test]
    fn container_memory_overhead_about_5pp() {
        let pp = DeploymentMode::Containerized.memory_overhead_pp();
        assert!((4.0..=7.0).contains(&pp));
    }
}
