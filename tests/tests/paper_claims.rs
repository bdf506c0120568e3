//! End-to-end assertions of the paper's four key findings (§1), exercised
//! through the public APIs across crates.

use socc_dl::{DType, Engine, ModelId};
use socc_hw::generations::SocGeneration;
use socc_sim::stats::geomean;
use socc_tco::tpc::{dl_tpc, live_tpc, HardwareRow};
use socc_video::TranscodeUnit;

/// Key finding (1a): "The SoC Cluster demonstrates up to 6.5× higher
/// throughput per unit of energy for serving DL inference workloads
/// compared to the traditional edge server equipped with NVIDIA A40 GPUs."
#[test]
fn finding1_dl_energy_efficiency_up_to_6_5x_vs_a40() {
    let mut best = 0.0f64;
    for model in ModelId::ALL {
        for dtype in [DType::Fp32, DType::Int8] {
            for soc_engine in Engine::SOC_ENGINES {
                let (Some(soc), Some(a40)) = (
                    soc_engine.samples_per_joule(model, dtype, 1),
                    Engine::TensorRtA40.samples_per_joule(model, dtype, 64),
                ) else {
                    continue;
                };
                best = best.max(soc / a40);
            }
        }
    }
    assert!(
        (4.0..=9.0).contains(&best),
        "best SoC/A40 energy ratio {best}"
    );
}

/// Key finding (1b): "Its energy efficiency is also comparable to high-end
/// NVIDIA A100 GPUs."
#[test]
fn finding1_comparable_to_a100() {
    let soc = Engine::TfLiteGpu
        .samples_per_joule(ModelId::ResNet50, DType::Fp32, 1)
        .unwrap();
    let a100 = Engine::TensorRtA100
        .samples_per_joule(ModelId::ResNet50, DType::Fp32, 64)
        .unwrap();
    let ratio = soc / a100;
    assert!((0.8..=1.6).contains(&ratio), "ratio {ratio}");
}

/// Key finding (1c): "for complex video transcoding workloads, SoC CPUs
/// underperform to NVIDIA GPUs" — archive transcoding on high-entropy
/// videos goes to the GPU.
#[test]
fn finding1_gpu_wins_complex_archive_transcoding() {
    for id in ["V3", "V5", "V6"] {
        let v = socc_video::vbench::by_id(id).unwrap();
        let gpu = TranscodeUnit::A40Nvenc
            .archive_frames_per_joule(&v)
            .unwrap();
        let soc = TranscodeUnit::SocCpu.archive_frames_per_joule(&v).unwrap();
        assert!(gpu > soc, "{id}");
    }
}

/// Key finding (2): single-SoC latency is fine for medium DNNs (8.8 ms
/// quantized ResNet-50) but reaches hundreds of ms for large models.
#[test]
fn finding2_latency_bands() {
    let r50_dsp = Engine::QnnDsp
        .latency(ModelId::ResNet50, DType::Int8, 1)
        .unwrap();
    assert!((r50_dsp.as_millis_f64() - 8.8).abs() < 0.1);
    let yolo_gpu = Engine::TfLiteGpu
        .latency(ModelId::YoloV5x, DType::Fp32, 1)
        .unwrap();
    assert!(
        yolo_gpu.as_millis_f64() > 300.0,
        "large models are slow on one SoC"
    );
}

/// Key finding (2, remedy): collaborative inference helps but communication
/// keeps it far from linear (1.38× at 5 SoCs).
#[test]
fn finding2_collaborative_inference_sublinear() {
    let reports = socc_dl::parallel::sweep(ModelId::ResNet50, 5, false, 1.0);
    let speedup = reports[0].total.as_secs_f64() / reports[4].total.as_secs_f64();
    assert!(
        (speedup - socc_hw::calib::COLLAB_SPEEDUP_5SOC).abs() <= 0.18,
        "speedup {speedup}"
    );
}

/// Key finding (3): "more than 2.23× greater throughput per monetary cost
/// … for live streaming transcoding" vs the GPU server; NVIDIA wins DL TpC.
#[test]
fn finding3_monetary_cost() {
    let videos = socc_video::vbench::videos();
    let ratios: Vec<f64> = videos
        .iter()
        .map(|v| live_tpc(HardwareRow::SocCpu, v).unwrap() / live_tpc(HardwareRow::A40, v).unwrap())
        .collect();
    let g = geomean(&ratios).unwrap();
    assert!(g > 1.9, "live TpC geomean vs A40: {g}");
    // DL serving: the A40 dominates (Table 5).
    let a40 = dl_tpc(HardwareRow::A40, ModelId::ResNet50, DType::Int8).unwrap();
    let dsp = dl_tpc(HardwareRow::SocDsp, ModelId::ResNet50, DType::Int8).unwrap();
    assert!(a40 > 5.0 * dsp, "a40 {a40} vs dsp {dsp}");
}

/// Key finding (4): "mobile SoCs have demonstrated remarkable performance
/// enhancements over the past six years, with a highest improvement of
/// 8.5× on SoC DSPs."
#[test]
fn finding4_longitudinal_dsp_gain() {
    let first_dsp = SocGeneration::Sd845.dl_dsp_speed().unwrap();
    let last_dsp = SocGeneration::Sd8Gen1Plus.dl_dsp_speed().unwrap();
    let gain = last_dsp / first_dsp;
    assert!((8.0..=8.8).contains(&gain), "dsp gain {gain}");
    // Co-processor gains outpace CPU gains (§7's conclusion).
    let cpu_gain = SocGeneration::Sd8Gen1Plus.dl_cpu_speed() / SocGeneration::Sd845.dl_cpu_speed();
    assert!(gain > cpu_gain);
}

/// Abstract: energy proportionality — the cluster scales power with load
/// while the discrete-GPU baseline cannot.
#[test]
fn energy_proportionality_contrast() {
    let soc_cpu = socc_hw::cpu::CpuModel::kryo_585()
        .power_model
        .proportionality_index();
    let a40 = socc_hw::codec::HwCodecModel::nvenc_a40()
        .power_model
        .proportionality_index();
    assert!(soc_cpu > 0.8, "soc proportionality {soc_cpu}");
    assert!(a40 < 0.6, "a40 proportionality {a40}");
}
