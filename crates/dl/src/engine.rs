//! Inference engines: latency, throughput and power per execution backend.
//!
//! Six engines cover the paper's hardware/software matrix (§3): TFLite on
//! the SoC CPU/GPU, Hexagon-NN on the SoC DSP, TVM on the Intel container,
//! and TensorRT on the A40/A100. Latency is anchored at batch 1 (and batch
//! 64 for TensorRT) from `calib`; intermediate batch sizes interpolate with
//! a power law for TensorRT and scale linearly elsewhere (§5.1: batching
//! does not raise throughput on the mobile/CPU engines).

use socc_sim::time::SimDuration;
use socc_sim::units::Power;

use crate::calib;
use crate::tensor::DType;
use crate::zoo::ModelId;

/// An inference engine bound to a hardware unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// TFLite with 8 threads on one SoC's Kryo 585.
    TfLiteCpu,
    /// TFLite GPU delegate on one SoC's Adreno 650.
    TfLiteGpu,
    /// Hexagon NN / SNPE on one SoC's Hexagon 698 DSP.
    QnnDsp,
    /// TVM on one 8-core Intel Xeon container.
    TvmIntel,
    /// TensorRT on one NVIDIA A40.
    TensorRtA40,
    /// TensorRT on one NVIDIA A100.
    TensorRtA100,
}

impl Engine {
    /// All engines in reporting order.
    pub const ALL: [Engine; 6] = [
        Engine::TfLiteCpu,
        Engine::TfLiteGpu,
        Engine::QnnDsp,
        Engine::TvmIntel,
        Engine::TensorRtA40,
        Engine::TensorRtA100,
    ];

    /// Engines hosted on one SoC of the cluster.
    pub const SOC_ENGINES: [Engine; 3] = [Engine::TfLiteCpu, Engine::TfLiteGpu, Engine::QnnDsp];

    /// Human-readable label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Engine::TfLiteCpu => "SoC CPU",
            Engine::TfLiteGpu => "SoC GPU",
            Engine::QnnDsp => "SoC DSP",
            Engine::TvmIntel => "Intel CPU",
            Engine::TensorRtA40 => "NVIDIA A40",
            Engine::TensorRtA100 => "NVIDIA A100",
        }
    }

    /// Returns `true` if the engine batches requests profitably (TensorRT).
    pub fn batches(self) -> bool {
        matches!(self, Engine::TensorRtA40 | Engine::TensorRtA100)
    }

    /// Fixed per-invocation overhead (framework + host↔device copies).
    fn overhead_ms(self) -> f64 {
        match self {
            Engine::TfLiteCpu | Engine::TfLiteGpu => 1.0,
            Engine::QnnDsp => 2.0,
            Engine::TvmIntel => 0.5,
            Engine::TensorRtA40 | Engine::TensorRtA100 => 6.5,
        }
    }

    /// Returns `true` if the engine supports this model/precision combo.
    pub(crate) fn supports(self, model: ModelId, dtype: DType) -> bool {
        calib::batch1_ms(self, model, dtype).is_some()
    }

    /// Inference latency for a whole batch, or `None` if unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn latency(self, model: ModelId, dtype: DType, batch: usize) -> Option<SimDuration> {
        assert!(batch > 0, "batch must be positive");
        let b1 = calib::batch1_ms(self, model, dtype)?;
        let ms = if let Some(b64) = calib::batch64_ms(self, model, dtype) {
            // TensorRT: t(b) = o + (t1 - o) · b^alpha through both anchors.
            let o = self.overhead_ms().min(b1 * 0.8);
            let alpha = ((b64 - o) / (b1 - o)).ln() / 64f64.ln();
            o + (b1 - o) * (batch as f64).powf(alpha)
        } else {
            // Sequential engines: batches serialize.
            b1 * batch as f64
        };
        Some(SimDuration::from_millis_f64(ms))
    }

    /// Steady-state throughput in samples/s at a batch size.
    pub(crate) fn throughput(self, model: ModelId, dtype: DType, batch: usize) -> Option<f64> {
        let lat = self.latency(model, dtype, batch)?;
        Some(batch as f64 / lat.as_secs_f64())
    }

    /// Best achievable throughput (batch 64 for TensorRT, batch 1 otherwise).
    pub fn max_throughput(self, model: ModelId, dtype: DType) -> Option<f64> {
        let batch = if self.batches() { 64 } else { 1 };
        self.throughput(model, dtype, batch)
    }

    /// Workload (idle-excluded) power while continuously serving at full
    /// load (Fig. 11b's operating point).
    pub(crate) fn full_load_power(self) -> Power {
        Power::watts(match self {
            Engine::TfLiteCpu => socc_hw::calib::DL_SOC_CPU_POWER_W,
            Engine::TfLiteGpu => socc_hw::calib::DL_SOC_GPU_POWER_W,
            Engine::QnnDsp => socc_hw::calib::DL_SOC_DSP_POWER_W,
            Engine::TvmIntel => socc_hw::calib::DL_INTEL_POWER_W,
            Engine::TensorRtA40 => socc_hw::calib::DL_A40_POWER_W,
            Engine::TensorRtA100 => socc_hw::calib::DL_A100_POWER_W,
        })
    }

    /// Activation step of the workload power (paid whenever the engine is
    /// busy at all; large for discrete GPUs).
    pub(crate) fn activation_power(self) -> Power {
        Power::watts(match self {
            Engine::TfLiteCpu => 0.5,
            Engine::TfLiteGpu => 0.1,
            Engine::QnnDsp => 0.05,
            Engine::TvmIntel => 1.5,
            Engine::TensorRtA40 => 60.0,
            Engine::TensorRtA100 => 70.0,
        })
    }

    /// Workload power at a batch size (full-load power scaled by the
    /// throughput fraction achieved at this batch, on top of activation).
    pub(crate) fn power_at_batch(
        self,
        model: ModelId,
        dtype: DType,
        batch: usize,
    ) -> Option<Power> {
        let frac = self.throughput(model, dtype, batch)? / self.max_throughput(model, dtype)?;
        let dynamic = self.full_load_power() - self.activation_power();
        Some(self.activation_power() + dynamic * frac.clamp(0.0, 1.0))
    }

    /// Energy efficiency in samples per joule at a batch size (Fig. 11b).
    pub fn samples_per_joule(self, model: ModelId, dtype: DType, batch: usize) -> Option<f64> {
        let tput = self.throughput(model, dtype, batch)?;
        let power = self.power_at_batch(model, dtype, batch)?.as_watts();
        Some(tput / power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch1_latencies_match_anchors() {
        let lat = Engine::TfLiteGpu
            .latency(ModelId::ResNet50, DType::Fp32, 1)
            .unwrap();
        assert!((lat.as_millis_f64() - 32.5).abs() < 1e-9);
        let lat = Engine::QnnDsp
            .latency(ModelId::ResNet50, DType::Int8, 1)
            .unwrap();
        assert!((lat.as_millis_f64() - 8.8).abs() < 1e-9);
    }

    #[test]
    fn batch64_latencies_match_anchors() {
        let lat = Engine::TensorRtA40
            .latency(ModelId::ResNet50, DType::Fp32, 64)
            .unwrap();
        assert!((lat.as_millis_f64() - 24.8).abs() < 0.01);
    }

    #[test]
    fn trt_interpolation_is_monotone() {
        let mut prev_latency = 0.0;
        let mut prev_tput = 0.0;
        for batch in [1, 2, 4, 8, 16, 32, 64] {
            let lat = Engine::TensorRtA40
                .latency(ModelId::ResNet50, DType::Fp32, batch)
                .unwrap()
                .as_millis_f64();
            let tput = Engine::TensorRtA40
                .throughput(ModelId::ResNet50, DType::Fp32, batch)
                .unwrap();
            assert!(lat > prev_latency, "latency must grow with batch");
            assert!(tput > prev_tput, "throughput must grow with batch");
            prev_latency = lat;
            prev_tput = tput;
        }
    }

    #[test]
    fn sequential_engines_scale_linearly() {
        let b1 = Engine::TfLiteCpu
            .latency(ModelId::ResNet50, DType::Fp32, 1)
            .unwrap();
        let b4 = Engine::TfLiteCpu
            .latency(ModelId::ResNet50, DType::Fp32, 4)
            .unwrap();
        assert_eq!(b4.as_nanos(), 4 * b1.as_nanos());
        // No throughput gain from batching (§5.1).
        let t1 = Engine::TfLiteCpu
            .throughput(ModelId::ResNet50, DType::Fp32, 1)
            .unwrap();
        let t4 = Engine::TfLiteCpu
            .throughput(ModelId::ResNet50, DType::Fp32, 4)
            .unwrap();
        assert!((t1 - t4).abs() < 1e-9);
    }

    #[test]
    fn soc_gpu_r50_fp32_is_18_samples_per_joule() {
        // §5.2: "SoC GPUs show the ability to process about 18 frames per
        // second per Joule" on ResNet-50 FP32.
        let eff = Engine::TfLiteGpu
            .samples_per_joule(ModelId::ResNet50, DType::Fp32, 1)
            .unwrap();
        assert!((16.0..=20.0).contains(&eff), "eff {eff}");
    }

    #[test]
    fn soc_gpu_vs_intel_7x_energy_ratio() {
        // §5.2: 7.09× higher than the Intel CPU.
        let soc = Engine::TfLiteGpu
            .samples_per_joule(ModelId::ResNet50, DType::Fp32, 1)
            .unwrap();
        let intel = Engine::TvmIntel
            .samples_per_joule(ModelId::ResNet50, DType::Fp32, 1)
            .unwrap();
        let ratio = soc / intel;
        assert!((6.3..=7.9).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn soc_gpu_vs_a40_and_a100_energy_ratios() {
        // §5.2: 1.78× over the A40 (BS=64), 1.15× over the A100 (BS=64).
        let soc = Engine::TfLiteGpu
            .samples_per_joule(ModelId::ResNet50, DType::Fp32, 1)
            .unwrap();
        let a40 = Engine::TensorRtA40
            .samples_per_joule(ModelId::ResNet50, DType::Fp32, 64)
            .unwrap();
        let a100 = Engine::TensorRtA100
            .samples_per_joule(ModelId::ResNet50, DType::Fp32, 64)
            .unwrap();
        assert!(
            (1.55..=2.0).contains(&(soc / a40)),
            "a40 ratio {}",
            soc / a40
        );
        assert!(
            (1.0..=1.3).contains(&(soc / a100)),
            "a100 ratio {}",
            soc / a100
        );
    }

    #[test]
    fn dsp_r152_int8_42x_intel_and_1_5x_a100() {
        // §5.2's headline DSP result.
        let dsp = Engine::QnnDsp
            .samples_per_joule(ModelId::ResNet152, DType::Int8, 1)
            .unwrap();
        let intel = Engine::TvmIntel
            .samples_per_joule(ModelId::ResNet152, DType::Int8, 1)
            .unwrap();
        let a100 = Engine::TensorRtA100
            .samples_per_joule(ModelId::ResNet152, DType::Int8, 64)
            .unwrap();
        assert!(
            (36.0..=48.0).contains(&(dsp / intel)),
            "intel ratio {}",
            dsp / intel
        );
        assert!(
            (1.3..=1.8).contains(&(dsp / a100)),
            "a100 ratio {}",
            dsp / a100
        );
    }

    #[test]
    fn gpu_latency_comparable_to_8core_intel() {
        // §5.1 observation (1): SoC GPU latency is 1.55×–2.61× lower than
        // SoC CPU, and in the same ballpark as the Intel container.
        for model in [ModelId::ResNet50, ModelId::ResNet152] {
            let cpu = Engine::TfLiteCpu
                .latency(model, DType::Fp32, 1)
                .unwrap()
                .as_millis_f64();
            let gpu = Engine::TfLiteGpu
                .latency(model, DType::Fp32, 1)
                .unwrap()
                .as_millis_f64();
            let ratio = cpu / gpu;
            assert!((1.5..=2.7).contains(&ratio), "{model:?}: {ratio}");
        }
    }

    #[test]
    fn a40_big_batch_yolo_approaches_soc_latency() {
        // §5.1 observation (2): at batch 64, A40 YOLOv5x FP32 latency
        // approaches/exceeds the SoC GPU's.
        let a40 = Engine::TensorRtA40
            .latency(ModelId::YoloV5x, DType::Fp32, 64)
            .unwrap()
            .as_millis_f64();
        let soc = Engine::TfLiteGpu
            .latency(ModelId::YoloV5x, DType::Fp32, 1)
            .unwrap()
            .as_millis_f64();
        assert!(a40 > soc, "a40 {a40} vs soc {soc}");
    }

    #[test]
    fn unsupported_returns_none() {
        assert!(Engine::QnnDsp
            .latency(ModelId::BertBase, DType::Int8, 1)
            .is_none());
        assert!(Engine::TfLiteGpu
            .latency(ModelId::ResNet50, DType::Int8, 1)
            .is_none());
        assert!(!Engine::QnnDsp.supports(ModelId::ResNet50, DType::Fp32));
    }

    #[test]
    fn r152_soc_latency_range_matches_paper() {
        // §5.1: "the inference latency of SoC Cluster [on ResNet-152]
        // ranges from 20.4 ms to 269 ms".
        let lo = Engine::QnnDsp
            .latency(ModelId::ResNet152, DType::Int8, 1)
            .unwrap();
        let hi = Engine::TfLiteCpu
            .latency(ModelId::ResNet152, DType::Fp32, 1)
            .unwrap();
        assert!((19.0..=23.0).contains(&lo.as_millis_f64()));
        assert!((250.0..=270.0).contains(&hi.as_millis_f64()));
    }
}
