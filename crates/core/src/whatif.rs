//! What-if projections for future SoC Clusters (§8).
//!
//! The paper's discussion argues that (a) clusters built from newer SoC
//! generations inherit the longitudinal gains of §7, and (b) a faster
//! inter-SoC fabric would unlock cross-SoC workloads. This module projects
//! the headline metrics for a hypothetical cluster built from any
//! [`SocGeneration`] and for upgraded fabrics, reusing the same calibrated
//! models the baseline numbers come from.

use socc_dl::parallel::{PARTITION_OVERHEAD, PIPELINE_OVERLAP};
use socc_dl::ModelId;
use socc_hw::generations::SocGeneration;
use socc_net::tcp::TcpModel;
use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};
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

/// Projects collaborative-inference latency under an upgraded inter-SoC
/// fabric of `link_gbps` per SoC (the §8 "network infrastructure" lever),
/// for `socs` SoCs with optional pipelining.
pub fn project_collab_with_fabric(
    model: ModelId,
    socs: usize,
    link_gbps: f64,
    pipelined: bool,
) -> socc_dl::parallel::CollabReport {
    assert!(socs > 0, "need at least one SoC");
    let n = socs as f64;
    let t1 = SimDuration::from_millis_f64(socc_dl::parallel::single_soc_ms(model));
    if socs == 1 {
        return socc_dl::parallel::CollabReport {
            socs: 1,
            compute: t1,
            comm: SimDuration::ZERO,
            total: t1,
        };
    }
    let compute = t1 * (1.0 / n + PARTITION_OVERHEAD * (n - 1.0) / n);
    // Same mechanics as `socc_dl::parallel`, at the upgraded link rate. A
    // faster fabric also shrinks the RTT's serialization share; we keep
    // RTT fixed (propagation + switching dominate it).
    let tcp = TcpModel::inter_soc();
    let goodput = tcp.goodput(DataRate::gbps(link_gbps));
    let graph = model.graph();
    let straggler = 1.0 + 0.05 * (n - 2.0).max(0.0);
    let mut comm = SimDuration::ZERO;
    for layer in graph.layers() {
        let halo = layer.halo_bytes();
        if halo > 0.0 {
            comm += (tcp.rtt + DataSize::bytes(halo) / goodput) * straggler;
        }
    }
    let input_bytes = graph.input.bytes(socc_dl::DType::Fp32) as f64 * (n - 1.0) / n;
    comm += tcp.transfer_time(DataSize::bytes(input_bytes), goodput);
    let visible = if pipelined {
        comm * (1.0 - PIPELINE_OVERLAP)
    } else {
        comm
    };
    socc_dl::parallel::CollabReport {
        socs,
        compute,
        comm: visible,
        total: compute + visible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socc_video::VideoMeta;

    /// Maximum live streams of `video` per SoC if the PCB uplink grew to
    /// `pcb_gbps` (Table 3's bound analysis as a dial).
    fn network_bound_streams(video: &VideoMeta, pcb_gbps: f64) -> usize {
        let per_stream_mbps = video.stream_traffic().as_mbps();
        let per_pcb = pcb_gbps * 1000.0 / per_stream_mbps;
        (per_pcb / socc_hw::calib::SOCS_PER_PCB as f64).floor() as usize
    }

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

    #[test]
    fn faster_fabric_shrinks_comm_share() {
        let base = project_collab_with_fabric(ModelId::ResNet50, 5, 1.0, false);
        let ten_g = project_collab_with_fabric(ModelId::ResNet50, 5, 10.0, false);
        assert!(ten_g.comm < base.comm);
        assert!(ten_g.comm_share() < base.comm_share() * 0.8);
        // The 1 Gbps case matches the in-paper model.
        let paper = socc_dl::parallel::tensor_parallel(
            ModelId::ResNet50,
            socc_dl::parallel::CollabConfig {
                socs: 5,
                pipelined: false,
            },
        );
        assert!((base.total.as_millis_f64() - paper.total.as_millis_f64()).abs() < 1e-6);
    }

    #[test]
    fn even_infinite_bandwidth_leaves_rtt_floor() {
        // §8's point that software must improve too: barrier RTTs remain.
        let huge = project_collab_with_fabric(ModelId::ResNet50, 5, 1000.0, false);
        let sync_floor_ms = ModelId::ResNet50.graph().halo_sync_points() as f64 * 0.44;
        assert!(
            huge.comm.as_millis_f64() >= sync_floor_ms * 0.9,
            "{}",
            huge.comm
        );
    }

    #[test]
    fn pcb_upgrade_unlocks_v5_density() {
        // Table 3: at 1 Gbps, V5 supports ~9 streams/SoC of summed traffic;
        // a 10 Gbps PCB would support ~99.
        let v5 = socc_video::vbench::by_id("V5").unwrap();
        let now = network_bound_streams(&v5, 1.0);
        let upgraded = network_bound_streams(&v5, 10.0);
        assert!((9..=10).contains(&now), "{now}");
        assert!(upgraded >= 90, "{upgraded}");
    }
}
