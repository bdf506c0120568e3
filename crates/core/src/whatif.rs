//! What-if projections for future SoC Clusters (§8).
//!
//! The paper's discussion argues that (a) clusters built from newer SoC
//! generations inherit the longitudinal gains of §7, and (b) a faster
//! inter-SoC fabric would unlock cross-SoC workloads. This module projects
//! the headline metrics for a hypothetical cluster built from any
//! [`SocGeneration`], reusing the same calibrated models the baseline
//! numbers come from; an upgraded fabric is the link rate of
//! `socc_dl::parallel::tensor_parallel`.

use socc_hw::generations::SocGeneration;
use socc_video::TranscodeUnit;

/// Projected per-SoC and per-cluster numbers for a generation.
#[derive(Debug, Clone)]
pub struct GenerationProjection {
    /// Max live V1 streams per SoC on the CPU.
    pub v1_cpu_streams: usize,
    /// Whole-cluster live V1 streams (60 SoCs).
    pub v1_cluster_streams: usize,
    /// ResNet-50 INT8 DSP latency in ms (None where unsupported).
    pub r50_dsp_ms: Option<f64>,
    /// Whole-cluster ResNet-50 INT8 DSP throughput in fps.
    pub r50_dsp_cluster_fps: Option<f64>,
    /// Live V1 TpE scaling vs the SD865 cluster (power assumed constant:
    /// newer nodes spend the process gains on performance at iso-power).
    pub live_tpe_gain: f64,
}

/// Projects a cluster built from `generation` (iso-power assumption: each
/// generation delivers its §7 speedup at the same per-SoC power envelope,
/// which is how flagship mobile SoCs have actually evolved).
pub fn project_generation(generation: SocGeneration) -> GenerationProjection {
    let v1 = socc_video::vbench::by_id("V1").expect("vbench V1");
    let base_streams = TranscodeUnit::SocCpu.max_live_streams(&v1);
    let scaled = (base_streams as f64 * generation.video_cpu_speed()).floor() as usize;
    let socs = socc_hw::calib::CLUSTER_SOC_COUNT;
    let dsp_ms = generation
        .dl_dsp_speed()
        .map(|s| socc_hw::calib::DL_SOC_DSP_R50_INT8_MS / s);
    GenerationProjection {
        v1_cpu_streams: scaled,
        v1_cluster_streams: scaled * socs,
        r50_dsp_ms: dsp_ms,
        r50_dsp_cluster_fps: dsp_ms.map(|ms| 1000.0 / ms * socs as f64),
        live_tpe_gain: generation.video_cpu_speed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sd8gen1_cluster_nearly_doubles_v1_capacity() {
        // §7: 8+Gen1 transcodes 1.8× faster than the SD865.
        let base = project_generation(SocGeneration::Sd865);
        let next = project_generation(SocGeneration::Sd8Gen1Plus);
        assert_eq!(base.v1_cpu_streams, 13);
        assert!(
            (22..=24).contains(&next.v1_cpu_streams),
            "{}",
            next.v1_cpu_streams
        );
        assert!(next.live_tpe_gain > 1.7);
    }

    #[test]
    fn dsp_projection_follows_generations() {
        let p = project_generation(SocGeneration::Sd8Gen1Plus);
        let ms = p.r50_dsp_ms.unwrap();
        assert!((2.0..=2.6).contains(&ms), "{ms}");
        assert!(p.r50_dsp_cluster_fps.unwrap() > 20_000.0);
        assert!(project_generation(SocGeneration::Sd835)
            .r50_dsp_ms
            .is_none());
    }
}
