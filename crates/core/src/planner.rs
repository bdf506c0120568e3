//! Fleet capacity planning: size a SoC-Cluster fleet and a GPU-server
//! fleet for the same workload mix, and compare monthly cost.
//!
//! This is the purchasing decision §6 informs: given expected live
//! ladders, archive backlog and DL serving load, how many of each server
//! does a site need, and which fleet is cheaper?

use socc_dl::{DType, Engine, ModelId};
use socc_tco::sensitivity::CostAssumptions;
use socc_tco::Platform;
use socc_video::abr::{price_ladder, Ladder};
use socc_video::{TranscodeUnit, VideoMeta};

/// A site's expected steady workload.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    /// Concurrent live ABR ladders of this source class.
    pub live_ladders: usize,
    /// The representative live source.
    pub live_source: VideoMeta,
    /// Archive backlog in frames per day (same source class).
    pub archive_frames_per_day: f64,
    /// Sustained DL serving load in samples/s.
    pub dl_fps: f64,
    /// DL model served.
    pub dl_model: ModelId,
    /// DL precision.
    pub dl_dtype: DType,
}

/// One fleet option's sizing and cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPlan {
    /// Servers needed.
    pub servers: usize,
    /// Monthly TCO of the fleet in dollars.
    pub monthly_tco: f64,
    /// Rack units consumed.
    pub rack_units: usize,
    /// Fraction of the fleet consumed by the live workload.
    pub live_share: f64,
}

/// Errors from planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The DL combination is unsupported on this fleet's engines.
    UnsupportedDl,
    /// The live source cannot be transcoded on this fleet.
    UnsupportedVideo,
}

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlanError::UnsupportedDl => write!(f, "DL model/precision unsupported on fleet"),
            PlanError::UnsupportedVideo => write!(f, "video unsupported on fleet"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Sizes a SoC-Cluster fleet: ladders on hardware codecs, archive on SoC
/// CPUs, DL on the best SoC engine for the precision.
pub(crate) fn plan_cluster_fleet(
    mix: &WorkloadMix,
    costs: &CostAssumptions,
) -> Result<FleetPlan, PlanError> {
    let ladder = Ladder::standard(&mix.live_source);
    let cost = price_ladder(&mix.live_source, &ladder);
    if cost.ladders_per_soc_hw == 0 {
        return Err(PlanError::UnsupportedVideo);
    }
    let live_socs = mix.live_ladders.div_ceil(cost.ladders_per_soc_hw);
    let archive_fps = TranscodeUnit::SocCpu
        .archive_fps(&mix.live_source)
        .ok_or(PlanError::UnsupportedVideo)?;
    let archive_socs = (mix.archive_frames_per_day / 86_400.0 / archive_fps).ceil() as usize;
    let engine = match mix.dl_dtype {
        DType::Int8 => Engine::QnnDsp,
        _ => Engine::TfLiteGpu,
    };
    let dl_unit_fps = engine
        .max_throughput(mix.dl_model, mix.dl_dtype)
        .or_else(|| Engine::TfLiteCpu.max_throughput(mix.dl_model, mix.dl_dtype))
        .ok_or(PlanError::UnsupportedDl)?;
    let dl_socs = (mix.dl_fps / dl_unit_fps).ceil() as usize;
    let total_socs = live_socs + archive_socs + dl_socs;
    let servers = total_socs
        .div_ceil(socc_hw::calib::CLUSTER_SOC_COUNT)
        .max(1);
    Ok(FleetPlan {
        servers,
        monthly_tco: servers as f64 * costs.monthly_tco(Platform::SocCluster),
        rack_units: servers * 2,
        live_share: live_socs as f64 / total_socs.max(1) as f64,
    })
}

/// Sizes a Xeon + 8×A40 fleet: ladders and archive on NVENC, DL on
/// TensorRT at batch 64.
pub(crate) fn plan_gpu_fleet(
    mix: &WorkloadMix,
    costs: &CostAssumptions,
) -> Result<FleetPlan, PlanError> {
    let ladder = Ladder::standard(&mix.live_source);
    let nvenc = socc_hw::codec::HwCodecModel::nvenc_a40();
    let per_ladder_mb_s: f64 = ladder
        .jobs(&mix.live_source)
        .iter()
        .map(VideoMeta::nvenc_cost_mb_s)
        .sum();
    let ladders_per_gpu = (nvenc.max_sessions / ladder.renditions.len())
        .min((nvenc.throughput_mb_per_s / per_ladder_mb_s).floor() as usize);
    if ladders_per_gpu == 0 {
        return Err(PlanError::UnsupportedVideo);
    }
    let live_gpus = mix.live_ladders.div_ceil(ladders_per_gpu);
    let archive_fps = TranscodeUnit::A40Nvenc
        .archive_fps(&mix.live_source)
        .ok_or(PlanError::UnsupportedVideo)?;
    let archive_gpus = (mix.archive_frames_per_day / 86_400.0 / archive_fps).ceil() as usize;
    let dl_unit_fps = Engine::TensorRtA40
        .max_throughput(mix.dl_model, mix.dl_dtype)
        .ok_or(PlanError::UnsupportedDl)?;
    let dl_gpus = (mix.dl_fps / dl_unit_fps).ceil() as usize;
    let total_gpus = live_gpus + archive_gpus + dl_gpus;
    let servers = total_gpus.div_ceil(8).max(1);
    Ok(FleetPlan {
        servers,
        monthly_tco: servers as f64 * costs.monthly_tco(Platform::EdgeWithGpu),
        rack_units: servers * 4,
        live_share: live_gpus as f64 / total_gpus.max(1) as f64,
    })
}

/// Plans both fleets and returns `(cluster, gpu)`.
pub fn compare_fleets(
    mix: &WorkloadMix,
    costs: &CostAssumptions,
) -> Result<(FleetPlan, FleetPlan), PlanError> {
    Ok((plan_cluster_fleet(mix, costs)?, plan_gpu_fleet(mix, costs)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(live: usize, archive: f64, dl: f64) -> WorkloadMix {
        WorkloadMix {
            live_ladders: live,
            live_source: socc_video::vbench::by_id("V5").unwrap(),
            archive_frames_per_day: archive,
            dl_fps: dl,
            dl_model: ModelId::ResNet50,
            dl_dtype: DType::Int8,
        }
    }

    #[test]
    fn live_heavy_mix_favors_the_cluster_per_stream() {
        // Pure live: the cluster's $/ladder is lower.
        let costs = CostAssumptions::default();
        let (cluster, gpu) = compare_fleets(&mix(2000, 0.0, 0.0), &costs).unwrap();
        let cluster_per_ladder = cluster.monthly_tco / 2000.0;
        let gpu_per_ladder = gpu.monthly_tco / 2000.0;
        assert!(
            cluster_per_ladder < gpu_per_ladder,
            "cluster {cluster_per_ladder} vs gpu {gpu_per_ladder}"
        );
    }

    #[test]
    fn archive_heavy_mix_favors_the_gpus() {
        let costs = CostAssumptions::default();
        let (cluster, gpu) = compare_fleets(&mix(0, 200.0e6, 0.0), &costs).unwrap();
        assert!(
            gpu.monthly_tco < cluster.monthly_tco,
            "{gpu:?} vs {cluster:?}"
        );
    }

    #[test]
    fn dl_heavy_mix_favors_the_gpus() {
        let costs = CostAssumptions::default();
        let (cluster, gpu) = compare_fleets(&mix(0, 0.0, 50_000.0), &costs).unwrap();
        assert!(gpu.monthly_tco < cluster.monthly_tco);
    }

    #[test]
    fn plans_scale_linearly_with_demand() {
        let costs = CostAssumptions::default();
        let small = plan_cluster_fleet(&mix(500, 0.0, 0.0), &costs).unwrap();
        let big = plan_cluster_fleet(&mix(5000, 0.0, 0.0), &costs).unwrap();
        let ratio = big.servers as f64 / small.servers as f64;
        assert!(
            (6.0..=12.0).contains(&ratio),
            "ratio {ratio} (ceil rounding)"
        );
    }

    #[test]
    fn empty_mix_still_needs_one_server() {
        let costs = CostAssumptions::default();
        let (cluster, gpu) = compare_fleets(&mix(0, 0.0, 0.0), &costs).unwrap();
        assert_eq!(cluster.servers, 1);
        assert_eq!(gpu.servers, 1);
    }

    #[test]
    fn live_share_reflects_the_mix() {
        let costs = CostAssumptions::default();
        let live_only = plan_cluster_fleet(&mix(1000, 0.0, 0.0), &costs).unwrap();
        assert!((live_only.live_share - 1.0).abs() < 1e-9);
        let balanced = plan_cluster_fleet(&mix(500, 20.0e6, 2000.0), &costs).unwrap();
        assert!(balanced.live_share < 0.9);
    }

    #[test]
    fn rack_density_favors_the_cluster() {
        // Same live demand: the cluster fleet fits in fewer rack units.
        let costs = CostAssumptions::default();
        let (cluster, gpu) = compare_fleets(&mix(2000, 0.0, 0.0), &costs).unwrap();
        assert!(cluster.rack_units <= gpu.rack_units * 2);
    }
}
