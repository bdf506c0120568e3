//! Throughput per cost (Table 5): workload throughput normalized by the
//! monthly TCO of the server that produces it.

use socc_dl::{DType, Engine, ModelId};
use socc_video::{TranscodeUnit, VideoMeta};

use crate::capex::Platform;
use crate::tco::breakdown;

/// One hardware row of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareRow {
    /// Intel CPU inside the 8-GPU server (pays the GPUs' CapEx).
    IntelOnGpuServer,
    /// NVIDIA A40 GPUs.
    A40,
    /// Intel CPU inside the GPU-less server.
    IntelOnCpuServer,
    /// SoC Cluster CPUs.
    SocCpu,
    /// SoC Cluster GPUs.
    SocGpu,
    /// SoC Cluster DSPs.
    SocDsp,
}

impl HardwareRow {
    /// All rows in Table 5 order.
    pub const ALL: [HardwareRow; 6] = [
        HardwareRow::IntelOnGpuServer,
        HardwareRow::A40,
        HardwareRow::IntelOnCpuServer,
        HardwareRow::SocCpu,
        HardwareRow::SocGpu,
        HardwareRow::SocDsp,
    ];

    /// Row label as printed in Table 5.
    pub fn label(self) -> &'static str {
        match self {
            HardwareRow::IntelOnGpuServer => "Edge (W/ GPU) Intel CPU",
            HardwareRow::A40 => "Edge (W/ GPU) GPU A40",
            HardwareRow::IntelOnCpuServer => "Edge (W/O GPU) Intel CPU",
            HardwareRow::SocCpu => "SoC Cluster SoC-CPU",
            HardwareRow::SocGpu => "SoC Cluster SoC-GPU",
            HardwareRow::SocDsp => "SoC Cluster SoC-DSP",
        }
    }

    /// The platform whose monthly TCO this row is normalized by.
    pub(crate) fn platform(self) -> Platform {
        match self {
            HardwareRow::IntelOnGpuServer | HardwareRow::A40 => Platform::EdgeWithGpu,
            HardwareRow::IntelOnCpuServer => Platform::EdgeWithoutGpu,
            HardwareRow::SocCpu | HardwareRow::SocGpu | HardwareRow::SocDsp => Platform::SocCluster,
        }
    }

    /// Monthly TCO of the backing server.
    pub(crate) fn monthly_tco(self) -> f64 {
        breakdown(self.platform()).monthly_tco
    }
}

/// Live streaming TpC in streams/$: whole-server max streams ÷ monthly TCO.
/// Returns `None` for rows that cannot transcode (SoC GPU/DSP).
pub fn live_tpc(row: HardwareRow, video: &VideoMeta) -> Option<f64> {
    let (unit, count) = match row {
        HardwareRow::IntelOnGpuServer | HardwareRow::IntelOnCpuServer => {
            (TranscodeUnit::IntelContainer, 10)
        }
        HardwareRow::A40 => (TranscodeUnit::A40Nvenc, 8),
        HardwareRow::SocCpu => (TranscodeUnit::SocCpu, 60),
        HardwareRow::SocGpu | HardwareRow::SocDsp => return None,
    };
    let streams = unit.max_live_streams(video) * count;
    Some(streams as f64 / row.monthly_tco())
}

/// Archive TpC in frames/s/$: single-job throughput ÷ monthly TCO (§6:
/// cluster archive suffers from "low throughput on a single SoC").
pub fn archive_tpc(row: HardwareRow, video: &VideoMeta) -> Option<f64> {
    let unit = match row {
        HardwareRow::IntelOnGpuServer | HardwareRow::IntelOnCpuServer => {
            TranscodeUnit::IntelContainer
        }
        HardwareRow::A40 => TranscodeUnit::A40Nvenc,
        HardwareRow::SocCpu => TranscodeUnit::SocCpu,
        HardwareRow::SocGpu | HardwareRow::SocDsp => return None,
    };
    Some(unit.archive_fps(video)? / row.monthly_tco())
}

/// DL serving TpC in samples/s/$: whole-server throughput at the engine's
/// best batch size ÷ monthly TCO.
pub fn dl_tpc(row: HardwareRow, model: ModelId, dtype: DType) -> Option<f64> {
    let (engine, count) = match row {
        HardwareRow::IntelOnGpuServer | HardwareRow::IntelOnCpuServer => (Engine::TvmIntel, 10),
        HardwareRow::A40 => (Engine::TensorRtA40, 8),
        HardwareRow::SocCpu => (Engine::TfLiteCpu, 60),
        HardwareRow::SocGpu => (Engine::TfLiteGpu, 60),
        HardwareRow::SocDsp => (Engine::QnnDsp, 60),
    };
    let throughput = engine.max_throughput(model, dtype)? * count as f64;
    Some(throughput / row.monthly_tco())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socc_video::vbench;

    #[test]
    fn live_tpc_matches_table5_anchors() {
        let v1 = vbench::by_id("V1").unwrap();
        // Table 5 row values for V1: Intel 0.180, A40 0.420, Intel(no GPU)
        // 0.627, SoC-CPU 0.748. Accept ±8% (stream counts are discrete).
        let cases = [
            (HardwareRow::IntelOnGpuServer, 0.180),
            (HardwareRow::A40, 0.420),
            (HardwareRow::IntelOnCpuServer, 0.627),
            (HardwareRow::SocCpu, 0.748),
        ];
        for (row, expected) in cases {
            let got = live_tpc(row, &v1).unwrap();
            assert!(
                (got - expected).abs() / expected < 0.08,
                "{row:?}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn soc_cpu_wins_live_tpc_everywhere() {
        // Table 5: the SoC-CPU row is highlighted (best) for all six videos.
        for v in vbench::videos() {
            let soc = live_tpc(HardwareRow::SocCpu, &v).unwrap();
            for row in [
                HardwareRow::IntelOnGpuServer,
                HardwareRow::A40,
                HardwareRow::IntelOnCpuServer,
            ] {
                assert!(soc > live_tpc(row, &v).unwrap(), "{} {row:?}", v.id);
            }
        }
    }

    #[test]
    fn live_geomean_ratios_match_section6() {
        // §6: SoC CPUs' live TpC is 4.28× Intel (GPU server) and 2.23× the
        // A40s, geometric mean across videos.
        let videos = vbench::videos();
        let ratios_intel: Vec<f64> = videos
            .iter()
            .map(|v| {
                live_tpc(HardwareRow::SocCpu, v).unwrap()
                    / live_tpc(HardwareRow::IntelOnGpuServer, v).unwrap()
            })
            .collect();
        let ratios_a40: Vec<f64> = videos
            .iter()
            .map(|v| {
                live_tpc(HardwareRow::SocCpu, v).unwrap() / live_tpc(HardwareRow::A40, v).unwrap()
            })
            .collect();
        let gi = socc_sim::stats::geomean(&ratios_intel).unwrap();
        let ga = socc_sim::stats::geomean(&ratios_a40).unwrap();
        assert!((3.6..=4.9).contains(&gi), "intel geomean {gi}");
        assert!((1.9..=2.6).contains(&ga), "a40 geomean {ga}");
    }

    #[test]
    fn archive_tpc_gpu_wins_soc_loses() {
        // Table 5 archive: the A40 row is best for most videos; the SoC
        // row is the worst of the four.
        for v in vbench::videos() {
            let a40 = archive_tpc(HardwareRow::A40, &v).unwrap();
            let soc = archive_tpc(HardwareRow::SocCpu, &v).unwrap();
            let intel_cpu = archive_tpc(HardwareRow::IntelOnCpuServer, &v).unwrap();
            assert!(a40 > soc, "{}", v.id);
            assert!(intel_cpu > soc, "{}", v.id);
        }
    }

    #[test]
    fn archive_tpc_matches_table5_anchors() {
        let v1 = vbench::by_id("V1").unwrap();
        let cases = [
            (HardwareRow::IntelOnGpuServer, 0.027),
            (HardwareRow::A40, 0.162),
            (HardwareRow::IntelOnCpuServer, 0.094),
            (HardwareRow::SocCpu, 0.015),
        ];
        for (row, expected) in cases {
            let got = archive_tpc(row, &v1).unwrap();
            assert!(
                (got - expected).abs() / expected < 0.08,
                "{row:?}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn dl_tpc_a40_dominates() {
        // Table 5 DL: "the NVIDIA GPUs exhibit a marked increase in cost
        // efficiency over SoC Clusters" — A40 wins every column.
        for model in ModelId::ALL {
            for dtype in [DType::Fp32, DType::Int8] {
                let Some(a40) = dl_tpc(HardwareRow::A40, model, dtype) else {
                    continue;
                };
                for row in [
                    HardwareRow::SocCpu,
                    HardwareRow::SocGpu,
                    HardwareRow::SocDsp,
                ] {
                    if let Some(tpc) = dl_tpc(row, model, dtype) {
                        assert!(a40 > tpc, "{model:?} {dtype:?} {row:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn dl_tpc_anchor_values() {
        // Table 5: A40 R50 FP32 = 14.631; SoC-DSP R50 INT8 = 6.673;
        // Intel (W/ GPU) R50 FP32 = 0.579.
        let a40 = dl_tpc(HardwareRow::A40, ModelId::ResNet50, DType::Fp32).unwrap();
        assert!((a40 - 14.631).abs() / 14.631 < 0.05, "{a40}");
        let dsp = dl_tpc(HardwareRow::SocDsp, ModelId::ResNet50, DType::Int8).unwrap();
        assert!((dsp - 6.673).abs() / 6.673 < 0.05, "{dsp}");
        let intel = dl_tpc(
            HardwareRow::IntelOnGpuServer,
            ModelId::ResNet50,
            DType::Fp32,
        )
        .unwrap();
        assert!((intel - 0.579).abs() / 0.579 < 0.05, "{intel}");
    }

    #[test]
    fn transcode_rows_unsupported_on_dl_processors() {
        let v1 = vbench::by_id("V1").unwrap();
        assert!(live_tpc(HardwareRow::SocGpu, &v1).is_none());
        assert!(archive_tpc(HardwareRow::SocDsp, &v1).is_none());
        assert!(dl_tpc(HardwareRow::SocDsp, ModelId::BertBase, DType::Int8).is_none());
    }
}
