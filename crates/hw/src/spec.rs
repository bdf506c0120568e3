//! Platform specifications (Table 1) assembling component models.

use crate::codec::HwCodecModel;
use crate::cpu::CpuModel;
use crate::dsp::DspModel;
use crate::gpu::GpuModel;
use crate::memory::MemoryModel;

/// Full specification of one mobile SoC.
#[derive(Debug, Clone)]
pub struct SocSpec {
    /// CPU complex.
    pub cpu: CpuModel,
    /// Integrated GPU.
    pub gpu: GpuModel,
    /// DSP / NPU.
    pub dsp: DspModel,
    /// Hardware video codec.
    pub codec: HwCodecModel,
    /// DRAM.
    pub memory: MemoryModel,
    /// Flash storage (Table 1); only tests read it.
    #[cfg(test)]
    pub(crate) storage: crate::memory::StorageModel,
    /// Operating system string (Table 1: "Android 10"); only tests read it.
    #[cfg(test)]
    pub(crate) os: String,
    /// Integrated Ethernet capacity in bits/s (Table 1: 1 GE).
    pub ethernet_bps: f64,
}

impl SocSpec {
    /// The Qualcomm Snapdragon 865 as integrated in the SoC Cluster
    /// (Table 1, individual-SoC column).
    pub fn snapdragon_865() -> Self {
        Self {
            cpu: CpuModel::kryo_585(),
            gpu: GpuModel::adreno_650(),
            dsp: DspModel::hexagon_698(),
            codec: HwCodecModel::venus_sd865(),
            memory: MemoryModel::lpddr5_12gb(),
            #[cfg(test)]
            storage: crate::memory::StorageModel::ufs_256gb(),
            #[cfg(test)]
            os: "Android 10".to_string(),
            ethernet_bps: 1.0e9,
        }
    }
}

/// Form factor and platform summary of a whole server (Table 1).
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Rack units occupied.
    pub rack_units: u32,
    /// Human-readable CPU description.
    pub cpu_desc: String,
    /// Human-readable GPU description.
    pub gpu_desc: String,
    /// Total DRAM description.
    pub memory_desc: String,
    /// Total storage description.
    pub storage_desc: String,
    /// OS description.
    pub os_desc: String,
    /// Network description.
    pub network_desc: String,
}

impl ServerSpec {
    /// Table 1, SoC Cluster whole-server column.
    pub fn soc_cluster() -> Self {
        Self {
            rack_units: 2,
            cpu_desc: "60x Qualcomm Kryo 585".to_string(),
            gpu_desc: "60x Qualcomm Adreno 650".to_string(),
            memory_desc: "720GB LPDDR5".to_string(),
            storage_desc: "15.36TB Flash".to_string(),
            os_desc: "Android 10 (per SoC)".to_string(),
            network_desc: "2x 10GE SFP+ Port".to_string(),
        }
    }

    /// Table 1, traditional edge server column.
    pub fn traditional_edge() -> Self {
        Self {
            rack_units: 4,
            cpu_desc: "Intel Xeon Gold 5218R Processor".to_string(),
            gpu_desc: "8x NVIDIA A40 PCIe 48GB".to_string(),
            memory_desc: "768GB DDR4".to_string(),
            storage_desc: "1.92TB SSD, 30TB HDD".to_string(),
            os_desc: "Ubuntu 18.04 LTS".to_string(),
            network_desc: "2x 1GE RJ45, 2x 10GE RJ45".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sd865_matches_table1() {
        let soc = SocSpec::snapdragon_865();
        assert_eq!(soc.cpu.cores, 8);
        assert_eq!(soc.memory.capacity_gb, 12.0);
        assert_eq!(soc.storage.capacity_gb, 256.0);
        assert_eq!(soc.os, "Android 10");
        assert_eq!(soc.ethernet_bps, 1.0e9);
    }

    #[test]
    fn form_factors_match_table1() {
        assert_eq!(ServerSpec::soc_cluster().rack_units, 2);
        assert_eq!(ServerSpec::traditional_edge().rack_units, 4);
    }
}
