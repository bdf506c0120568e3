//! Figure-level experiment runners.
//!
//! Each function regenerates the data behind one of the paper's figures;
//! the `socc-bench` repro binary formats them as tables, and the
//! integration tests assert the qualitative claims.

use socc_dl::serving::ServingUnit;
use socc_dl::{DType, Engine, ModelId};
use socc_hw::generations::SocGeneration;
use socc_video::quality::live_psnr;
use socc_video::ratecontrol::{EncoderKind, RateControl};
use socc_video::{TranscodeUnit, VideoMeta};

use crate::virt::DeploymentMode;
use crate::workload::SocProcessor;

// ---------------------------------------------------------------------------
// Fig. 6 — transcoding energy efficiency at full load.
// ---------------------------------------------------------------------------

/// One video's live-streaming TpE (streams/W) per platform unit.
#[derive(Debug, Clone)]
pub struct LiveTpeRow {
    /// Video id.
    pub video_id: String,
    /// SoC CPU streams/W.
    pub soc_cpu: f64,
    /// Intel container streams/W.
    pub intel: f64,
    /// NVIDIA A40 streams/W.
    pub a40: f64,
}

/// Fig. 6a: live streaming TpE for V1–V6.
pub fn fig6a_live_tpe() -> Vec<LiveTpeRow> {
    socc_video::vbench::videos()
        .iter()
        .map(|v| LiveTpeRow {
            video_id: v.id.to_string(),
            soc_cpu: TranscodeUnit::SocCpu.live_streams_per_watt(v),
            intel: TranscodeUnit::IntelContainer.live_streams_per_watt(v),
            a40: TranscodeUnit::A40Nvenc.live_streams_per_watt(v),
        })
        .collect()
}

/// One video's archive TpE (frames/J) per platform unit.
#[derive(Debug, Clone)]
pub struct ArchiveTpeRow {
    /// Video id.
    pub video_id: String,
    /// SoC CPU frames/J.
    pub soc_cpu: f64,
    /// Intel container frames/J.
    pub intel: f64,
    /// NVIDIA A40 frames/J.
    pub a40: f64,
}

/// Fig. 6b: archive transcoding TpE for V1–V6.
pub fn fig6b_archive_tpe() -> Vec<ArchiveTpeRow> {
    socc_video::vbench::videos()
        .iter()
        .map(|v| ArchiveTpeRow {
            video_id: v.id.to_string(),
            soc_cpu: TranscodeUnit::SocCpu
                .archive_frames_per_joule(v)
                .unwrap_or(0.0),
            intel: TranscodeUnit::IntelContainer
                .archive_frames_per_joule(v)
                .unwrap_or(0.0),
            a40: TranscodeUnit::A40Nvenc
                .archive_frames_per_joule(v)
                .unwrap_or(0.0),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 7 — live TpE vs number of concurrent streams.
// ---------------------------------------------------------------------------

/// TpE of all three platforms at one stream count.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Point {
    /// Concurrent streams.
    pub streams: usize,
    /// SoC CPUs, streams packed SoC by SoC.
    pub soc_cpu: f64,
    /// Intel containers, packed container by container.
    pub intel: f64,
    /// One A40 (all counts fit a single GPU).
    pub a40: f64,
}

/// TpE of `streams` live streams of `video`, bin-packed onto as few units
/// of `unit` as possible.
pub(crate) fn packed_live_tpe(unit: TranscodeUnit, video: &VideoMeta, streams: usize) -> f64 {
    let cap = unit.max_live_streams(video);
    if cap == 0 || streams == 0 {
        return 0.0;
    }
    let units_needed = streams.div_ceil(cap);
    if units_needed > unit.units_per_server() {
        return 0.0;
    }
    let full_units = streams / cap;
    let remainder = streams % cap;
    let mut power = unit.live_workload_power(video, cap).as_watts() * full_units as f64;
    if remainder > 0 {
        power += unit.live_workload_power(video, remainder).as_watts();
    }
    streams as f64 / power
}

/// Fig. 7: TpE sweep from 1 to `max_streams` concurrent streams.
pub fn fig7_sweep(video: &VideoMeta, max_streams: usize) -> Vec<Fig7Point> {
    (1..=max_streams)
        .map(|n| Fig7Point {
            streams: n,
            soc_cpu: packed_live_tpe(TranscodeUnit::SocCpu, video, n),
            intel: packed_live_tpe(TranscodeUnit::IntelContainer, video, n),
            a40: packed_live_tpe(TranscodeUnit::A40Nvenc, video, n),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 8 — SoC CPU vs hardware codec at whole-cluster scale.
// ---------------------------------------------------------------------------

/// Whole-cluster live throughput and TpE, CPU vs hardware codec.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Video id.
    pub video_id: String,
    /// Whole-cluster streams on SoC CPUs (60 × Table 3).
    pub cpu_streams: usize,
    /// Whole-cluster streams on hardware codecs.
    pub hw_streams: usize,
    /// SoC CPU streams/W.
    pub cpu_tpe: f64,
    /// Hardware-codec streams/W (including delegation CPU).
    pub hw_tpe: f64,
}

/// Fig. 8a/8b rows for V1–V6.
pub fn fig8_hw_codec() -> Vec<Fig8Row> {
    let socs = socc_hw::calib::CLUSTER_SOC_COUNT;
    socc_video::vbench::videos()
        .iter()
        .map(|v| Fig8Row {
            video_id: v.id.to_string(),
            cpu_streams: TranscodeUnit::SocCpu.max_live_streams(v) * socs,
            hw_streams: TranscodeUnit::SocHwCodec.max_live_streams(v) * socs,
            cpu_tpe: TranscodeUnit::SocCpu.live_streams_per_watt(v),
            hw_tpe: TranscodeUnit::SocHwCodec.live_streams_per_watt(v),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 9 — target vs output bitrate.
// ---------------------------------------------------------------------------

/// Bitrate tracking of one video on the hardware codec vs x264.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Video id.
    pub video_id: String,
    /// CBR target in kbps (Table 3).
    pub target_kbps: f64,
    /// Source stream bitrate in kbps.
    pub source_kbps: f64,
    /// x264 output in kbps.
    pub x264_kbps: f64,
    /// MediaCodec output in kbps.
    pub mediacodec_kbps: f64,
}

/// Fig. 9 rows for V1–V6.
pub fn fig9_bitrates() -> Vec<Fig9Row> {
    socc_video::vbench::videos()
        .iter()
        .map(|v| {
            let rc = RateControl::Cbr(v.target_bitrate);
            Fig9Row {
                video_id: v.id.to_string(),
                target_kbps: v.target_bitrate.as_bps() / 1e3,
                source_kbps: v.source_bitrate.as_bps() / 1e3,
                x264_kbps: EncoderKind::X264.output_bitrate(v, rc).as_bps() / 1e3,
                mediacodec_kbps: EncoderKind::MediaCodec.output_bitrate(v, rc).as_bps() / 1e3,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 10 — transcoding quality (PSNR) per encoder.
// ---------------------------------------------------------------------------

/// PSNR of one video under the same bitrate constraint per encoder.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Video id.
    pub video_id: String,
    /// libx264 on SoC CPUs.
    pub x264_soc: f64,
    /// libx264 on the Intel CPU (identical config ⇒ identical quality).
    pub x264_intel: f64,
    /// NVENC on the A40.
    pub nvenc: f64,
    /// MediaCodec on the SoC hardware codec.
    pub mediacodec: f64,
}

/// Fig. 10 rows for V1–V6.
pub fn fig10_quality() -> Vec<Fig10Row> {
    socc_video::vbench::videos()
        .iter()
        .map(|v| Fig10Row {
            video_id: v.id.to_string(),
            x264_soc: live_psnr(EncoderKind::X264, v),
            x264_intel: live_psnr(EncoderKind::X264, v),
            nvenc: live_psnr(EncoderKind::Nvenc, v),
            mediacodec: live_psnr(EncoderKind::MediaCodec, v),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 11 — DL serving latency and energy efficiency.
// ---------------------------------------------------------------------------

/// One (engine, model, dtype, batch) operating point.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Engine label ("SoC GPU", "NVIDIA A40", …).
    pub engine: &'static str,
    /// Model label.
    pub model: &'static str,
    /// Precision label.
    pub dtype: &'static str,
    /// Batch size.
    pub batch: usize,
    /// Whole-batch latency in ms.
    pub latency_ms: f64,
    /// Samples per joule.
    pub samples_per_joule: f64,
}

/// Fig. 11a/11b: every supported combination, batch 1 everywhere plus
/// batches 16/64 on the TensorRT GPUs.
pub fn fig11_dl_serving() -> Vec<Fig11Row> {
    let mut rows = Vec::new();
    for model in ModelId::ALL {
        for dtype in [DType::Fp32, DType::Int8] {
            for engine in Engine::ALL {
                let batches: &[usize] = if engine.batches() { &[1, 16, 64] } else { &[1] };
                for &batch in batches {
                    if let (Some(lat), Some(eff)) = (
                        engine.latency(model, dtype, batch),
                        engine.samples_per_joule(model, dtype, batch),
                    ) {
                        rows.push(Fig11Row {
                            engine: engine.label(),
                            model: model.label(),
                            dtype: dtype.label(),
                            batch,
                            latency_ms: lat.as_millis_f64(),
                            samples_per_joule: eff,
                        });
                    }
                }
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 12 — energy efficiency under offered load.
// ---------------------------------------------------------------------------

/// Cluster vs A100 efficiency at one offered load.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Point {
    /// Offered load in samples/s.
    pub offered_fps: f64,
    /// SoC Cluster (SoC GPUs, autoscaled SoC count) samples/J.
    pub cluster: f64,
    /// Single NVIDIA A100 samples/J.
    pub a100: f64,
    /// SoCs the cluster keeps awake for this load.
    pub socs_active: usize,
}

/// Cluster-side serving efficiency: wake the fewest SoC GPUs that cover the
/// load, spread the load across them, sum their power.
pub fn cluster_serving_efficiency(
    model: ModelId,
    dtype: DType,
    offered_fps: f64,
) -> Option<(f64, usize)> {
    let unit = ServingUnit::new(Engine::TfLiteGpu, model, dtype);
    let cap = unit.capacity_fps()?;
    let socs = socc_hw::calib::CLUSTER_SOC_COUNT;
    let needed = ((offered_fps / cap).ceil() as usize).clamp(1, socs);
    if offered_fps > cap * socs as f64 {
        return None; // beyond cluster capacity
    }
    let per_unit = offered_fps / needed as f64;
    let report = unit.at_load(per_unit)?;
    let total_power = report.total_power.as_watts() * needed as f64;
    Some((offered_fps / total_power, needed))
}

/// Fig. 12: sweep of offered load for a model.
pub fn fig12_load_sweep(model: ModelId, dtype: DType, loads: &[f64]) -> Vec<Fig12Point> {
    let a100 = ServingUnit::new(Engine::TensorRtA100, model, dtype);
    loads
        .iter()
        .filter_map(|&load| {
            let (cluster, socs_active) = cluster_serving_efficiency(model, dtype, load)?;
            let a100_eff = a100.at_load(load)?.samples_per_joule();
            Some(Fig12Point {
                offered_fps: load,
                cluster,
                a100: a100_eff,
                socs_active,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 14 — longitudinal study.
// ---------------------------------------------------------------------------

/// One SoC generation's measurements (Fig. 14).
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Generation.
    pub generation: SocGeneration,
    /// ResNet-50 FP32 CPU latency in ms.
    pub dl_cpu_ms: f64,
    /// ResNet-50 FP32 GPU latency in ms.
    pub dl_gpu_ms: f64,
    /// ResNet-50 INT8 DSP latency in ms (None where unsupported).
    pub dl_dsp_ms: Option<f64>,
    /// V4 single-process CPU transcode speed in frames/s.
    pub v4_cpu_fps: f64,
    /// V4 hardware-codec transcode speed in frames/s.
    pub v4_hw_fps: f64,
    /// V5 single-process CPU transcode speed in frames/s.
    pub v5_cpu_fps: f64,
    /// V5 hardware-codec transcode speed in frames/s.
    pub v5_hw_fps: f64,
}

/// Max single-stream transcode speed of the SD865 on a video, frames/s.
fn sd865_transcode_fps(video: &VideoMeta, hw: bool) -> f64 {
    if hw {
        let venus = socc_hw::codec::HwCodecModel::venus_sd865();
        venus.throughput_mb_per_s / video.hw_cost_mb_s() * video.fps
    } else {
        socc_hw::calib::SOC_CPU_TRANSCODE_PU / video.cpu_cost_pu() * video.fps
    }
}

/// Fig. 14: all six generations.
pub fn fig14_longitudinal() -> Vec<Fig14Row> {
    let v4 = socc_video::vbench::by_id("V4").expect("vbench V4");
    let v5 = socc_video::vbench::by_id("V5").expect("vbench V5");
    let base_cpu = socc_hw::calib::DL_SOC_CPU_R50_FP32_MS;
    let base_gpu = socc_hw::calib::DL_SOC_GPU_R50_FP32_MS;
    let base_dsp = socc_hw::calib::DL_SOC_DSP_R50_INT8_MS;
    SocGeneration::ALL
        .iter()
        .map(|&generation| Fig14Row {
            generation,
            dl_cpu_ms: base_cpu / generation.dl_cpu_speed(),
            dl_gpu_ms: base_gpu / generation.dl_gpu_speed(),
            dl_dsp_ms: generation.dl_dsp_speed().map(|s| base_dsp / s),
            v4_cpu_fps: sd865_transcode_fps(&v4, false) * generation.video_cpu_speed(),
            v4_hw_fps: sd865_transcode_fps(&v4, true) * generation.video_hw_speed(),
            v5_cpu_fps: sd865_transcode_fps(&v5, false) * generation.video_cpu_speed(),
            v5_hw_fps: sd865_transcode_fps(&v5, true) * generation.video_hw_speed(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 7 — physical vs virtualized SoCs.
// ---------------------------------------------------------------------------

/// One (model, processor) row of Table 7.
#[derive(Debug, Clone)]
pub struct Tab7Row {
    /// Model label.
    pub model: &'static str,
    /// Processor label.
    pub processor: &'static str,
    /// Physical-deployment latency in ms.
    pub phy_ms: f64,
    /// Containerized latency in ms.
    pub vir_ms: f64,
    /// Physical memory utilization in percent.
    pub phy_mem_pct: f64,
    /// Containerized memory utilization in percent.
    pub vir_mem_pct: f64,
}

/// Table 7: DL inference on physical vs virtualized SoCs.
pub fn tab7_virtualization() -> Vec<Tab7Row> {
    let combos: [(ModelId, SocProcessor, DType); 8] = [
        (ModelId::ResNet50, SocProcessor::Cpu, DType::Fp32),
        (ModelId::ResNet50, SocProcessor::Gpu, DType::Fp32),
        (ModelId::ResNet50, SocProcessor::Dsp, DType::Int8),
        (ModelId::ResNet152, SocProcessor::Cpu, DType::Fp32),
        (ModelId::ResNet152, SocProcessor::Gpu, DType::Fp32),
        (ModelId::ResNet152, SocProcessor::Dsp, DType::Int8),
        (ModelId::YoloV5x, SocProcessor::Cpu, DType::Fp32),
        (ModelId::YoloV5x, SocProcessor::Gpu, DType::Fp32),
    ];
    combos
        .iter()
        .filter_map(|&(model, processor, dtype)| {
            let engine = processor.engine();
            let phy = engine.latency(model, dtype, 1)?.as_millis_f64();
            let vir = phy * DeploymentMode::Containerized.latency_factor(processor);
            // Memory: Android baseline plus ~3× the model weights resident
            // in the serving process (activations, graph, runtime).
            let weights_gb = model.graph().weight_bytes(dtype) / 1e9;
            let phy_mem = 29.5 + 3.0 * weights_gb / 12.0 * 100.0;
            Some(Tab7Row {
                model: model.label(),
                processor: match processor {
                    SocProcessor::Cpu => "SoC CPU",
                    SocProcessor::Gpu => "SoC GPU",
                    SocProcessor::Dsp => "SoC DSP",
                },
                phy_ms: phy,
                vir_ms: vir,
                phy_mem_pct: phy_mem,
                vir_mem_pct: phy_mem + DeploymentMode::Containerized.memory_overhead_pp(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_soc_wins_everywhere_live() {
        for row in fig6a_live_tpe() {
            assert!(row.soc_cpu > row.intel, "{}", row.video_id);
            assert!(row.soc_cpu > row.a40, "{}", row.video_id);
        }
    }

    #[test]
    fn fig6b_gpu_loses_only_v2_v4() {
        for row in fig6b_archive_tpe() {
            let gpu_wins = row.a40 > row.soc_cpu;
            match row.video_id.as_str() {
                "V2" | "V4" => assert!(!gpu_wins, "{}", row.video_id),
                "V3" | "V5" | "V6" => assert!(gpu_wins, "{}", row.video_id),
                _ => {} // V1: within noise either way (see EXPERIMENTS.md)
            }
        }
    }

    #[test]
    fn fig7_soc_nearly_flat_gpu_ramps() {
        let v4 = socc_video::vbench::by_id("V4").unwrap();
        let sweep = fig7_sweep(&v4, 20);
        // Fig. 7 anchor: the A40 does ~0.018 streams/W at one V4 stream.
        assert!((0.012..=0.025).contains(&sweep[0].a40), "{}", sweep[0].a40);
        // SoC TpE varies by < 2.5× across the sweep; GPU by > 5×.
        let soc_range = sweep
            .iter()
            .map(|p| p.soc_cpu)
            .fold((f64::MAX, 0.0f64), |(lo, hi), v| (lo.min(v), hi.max(v)));
        let a40_range = sweep
            .iter()
            .map(|p| p.a40)
            .fold((f64::MAX, 0.0f64), |(lo, hi), v| (lo.min(v), hi.max(v)));
        assert!(
            soc_range.1 / soc_range.0 < 2.5,
            "soc ratio {}",
            soc_range.1 / soc_range.0
        );
        assert!(
            a40_range.1 / a40_range.0 > 5.0,
            "a40 ratio {}",
            a40_range.1 / a40_range.0
        );
        // The GPU never catches the SoC within 20 streams.
        for p in &sweep {
            assert!(p.soc_cpu > p.a40, "streams {}", p.streams);
        }
    }

    #[test]
    fn fig8_throughput_and_tpe_gains() {
        for row in fig8_hw_codec() {
            let gain = row.hw_streams as f64 / row.cpu_streams as f64;
            assert!((1.0..=3.05).contains(&gain), "{}: {gain}", row.video_id);
            assert!(row.hw_tpe > row.cpu_tpe, "{}", row.video_id);
        }
    }

    #[test]
    fn fig9_v2_overshoots_source() {
        let rows = fig9_bitrates();
        let v2 = rows.iter().find(|r| r.video_id == "V2").unwrap();
        assert!(v2.mediacodec_kbps > v2.source_kbps);
        assert!(v2.x264_kbps <= v2.target_kbps * 1.01);
    }

    #[test]
    fn fig11_has_all_reported_combinations() {
        let rows = fig11_dl_serving();
        // 4 models × {fp32 on 5 engines + int8 on subset} with batch sweeps.
        assert!(rows.len() > 40, "rows {}", rows.len());
        assert!(rows
            .iter()
            .any(|r| r.engine == "SoC DSP" && r.model == "R-50"));
        assert!(rows
            .iter()
            .any(|r| r.engine == "NVIDIA A100" && r.batch == 64));
        // No DSP YOLO/BERT rows (Table 7 blanks).
        assert!(!rows
            .iter()
            .any(|r| r.engine == "SoC DSP" && r.model == "YOLOv5x"));
    }

    #[test]
    fn fig12_cluster_wins_light_a100_wins_heavy() {
        let points = fig12_load_sweep(
            ModelId::ResNet50,
            DType::Fp32,
            &[5.0, 20.0, 100.0, 500.0, 1500.0],
        );
        assert!(
            points[0].cluster / points[0].a100 > 4.0,
            "light-load advantage"
        );
        let last = points.last().unwrap();
        assert!(
            last.a100 > last.cluster,
            "A100 should win at {} fps",
            last.offered_fps
        );
        // SoC count scales with load.
        assert_eq!(points[0].socs_active, 1);
        assert!(points.last().unwrap().socs_active > 20);
    }

    #[test]
    fn fig14_monotone_improvements() {
        let rows = fig14_longitudinal();
        assert_eq!(rows.len(), 6);
        for pair in rows.windows(2) {
            assert!(pair[1].dl_cpu_ms < pair[0].dl_cpu_ms);
            assert!(pair[1].v4_cpu_fps > pair[0].v4_cpu_fps);
            assert!(pair[1].v4_hw_fps > pair[0].v4_hw_fps);
        }
        // §7: 8.4× DSP gain from the 845 to the 8+Gen1.
        let dsp845 = rows[1].dl_dsp_ms.unwrap();
        let dsp8g1 = rows[5].dl_dsp_ms.unwrap();
        assert!((dsp845 / dsp8g1 - 8.4).abs() < 0.2);
        assert!(rows[0].dl_dsp_ms.is_none(), "835 DSP unsupported");
    }

    #[test]
    fn tab7_virtualization_effects() {
        let rows = tab7_virtualization();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            // Memory overhead ~5 pp everywhere.
            assert!((row.vir_mem_pct - row.phy_mem_pct - 5.3).abs() < 1e-9);
            if row.processor == "SoC GPU" {
                assert!(row.vir_ms > row.phy_ms, "{} {}", row.model, row.processor);
            } else {
                assert_eq!(row.vir_ms, row.phy_ms, "{} {}", row.model, row.processor);
            }
        }
        // Table 7 ballpark: R50 CPU memory ≈ 32%.
        let r50cpu = rows
            .iter()
            .find(|r| r.model == "R-50" && r.processor == "SoC CPU")
            .unwrap();
        assert!(
            (29.0..=35.0).contains(&r50cpu.phy_mem_pct),
            "{}",
            r50cpu.phy_mem_pct
        );
    }

    #[test]
    fn packed_tpe_zero_when_overflowing_server() {
        let v6 = socc_video::vbench::by_id("V6").unwrap();
        // 61 V6 CPU streams exceed the 60-SoC cluster.
        assert_eq!(packed_live_tpe(TranscodeUnit::SocCpu, &v6, 61), 0.0);
        assert!(packed_live_tpe(TranscodeUnit::SocCpu, &v6, 60) > 0.0);
    }
}
