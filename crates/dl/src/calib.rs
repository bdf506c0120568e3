//! Per-(engine, model, dtype) latency anchors.
//!
//! Values marked *(paper)* come directly from Fig. 11 / Table 7 / §5.1;
//! values marked *(derived)* are back-computed from Table 5's TpC rows
//! (throughput = TpC × monthly TCO ÷ unit count); values marked *(est.)*
//! are interpolations for combinations the paper does not report, scaled by
//! the model FLOP ratios. See DESIGN.md for the derivations and
//! EXPERIMENTS.md for the residual inconsistencies inside the paper's own
//! numbers.

use socc_hw::calib::{
    DL_A100_R50_FP32_BS64_MS, DL_A40_R50_FP32_BS64_MS, DL_INTEL_R50_FP32_MS,
    DL_SOC_CPU_R152_FP32_MS, DL_SOC_CPU_R50_FP32_MS, DL_SOC_CPU_YOLO_FP32_MS,
    DL_SOC_DSP_R152_INT8_MS, DL_SOC_DSP_R50_INT8_MS, DL_SOC_GPU_R152_FP32_MS,
    DL_SOC_GPU_R50_FP32_MS, DL_SOC_GPU_YOLO_FP32_MS,
};

use crate::engine::Engine;
use crate::tensor::DType;
use crate::zoo::ModelId;

/// Batch-1 latency anchor in milliseconds, or `None` if the combination is
/// unsupported by the engine's software stack.
pub fn batch1_ms(engine: Engine, model: ModelId, dtype: DType) -> Option<f64> {
    use DType::*;
    use Engine::*;
    use ModelId::*;
    Some(match (engine, model, dtype) {
        // --- SoC CPU, TFLite (8 threads) ---
        (TfLiteCpu, ResNet50, Fp32) => DL_SOC_CPU_R50_FP32_MS, // (paper, Table 7)
        (TfLiteCpu, ResNet152, Fp32) => DL_SOC_CPU_R152_FP32_MS, // (paper, Table 7)
        (TfLiteCpu, YoloV5x, Fp32) => DL_SOC_CPU_YOLO_FP32_MS, // (paper, Table 7)
        (TfLiteCpu, BertBase, Fp32) => 390.0,                  // (est.)
        (TfLiteCpu, ResNet50, Int8) => 31.0,                   // (derived, Table 5)
        (TfLiteCpu, ResNet152, Int8) => 99.0,                  // (est., 3.2× R50)
        (TfLiteCpu, YoloV5x, Int8) => 430.0,                   // (est.)
        (TfLiteCpu, BertBase, Int8) => 150.0,                  // (est.)
        // --- SoC GPU, TFLite GPU delegate (FP only) ---
        (TfLiteGpu, ResNet50, Fp32) => DL_SOC_GPU_R50_FP32_MS, // (paper, Table 7)
        (TfLiteGpu, ResNet152, Fp32) => DL_SOC_GPU_R152_FP32_MS, // (paper, Table 7)
        (TfLiteGpu, YoloV5x, Fp32) => DL_SOC_GPU_YOLO_FP32_MS, // (paper, Table 7)
        (TfLiteGpu, BertBase, Fp32) => 310.0,                  // (est.)
        (TfLiteGpu, _, Int8) => return None,
        // --- SoC DSP, Hexagon NN / SNPE (INT8 only on the SD865) ---
        (QnnDsp, ResNet50, Int8) => DL_SOC_DSP_R50_INT8_MS, // (paper, §5.1)
        (QnnDsp, ResNet152, Int8) => DL_SOC_DSP_R152_INT8_MS, // (paper, Table 7)
        (QnnDsp, YoloV5x, Int8) => return None,             // Table 7: blank
        (QnnDsp, BertBase, Int8) => return None,
        (QnnDsp, _, Fp32) => return None,
        // --- Intel 8-core container, TVM ---
        (TvmIntel, ResNet50, Fp32) => DL_INTEL_R50_FP32_MS, // (derived, Table 5)
        (TvmIntel, ResNet152, Fp32) => 34.0,                // (derived, Table 5)
        (TvmIntel, YoloV5x, Fp32) => 709.0,                 // (derived, Table 5)
        (TvmIntel, BertBase, Fp32) => 161.0,                // (derived, Table 5)
        (TvmIntel, ResNet50, Int8) => 5.9,                  // (derived, Table 5)
        (TvmIntel, ResNet152, Int8) => 20.0,                // (derived, Table 5)
        (TvmIntel, YoloV5x, Int8) => 350.0,                 // (est.)
        (TvmIntel, BertBase, Int8) => 80.0,                 // (est.)
        // --- NVIDIA A40, TensorRT ---
        (TensorRtA40, ResNet50, Fp32) => 8.0, // (paper, §5.1 context)
        (TensorRtA40, ResNet152, Fp32) => 10.5, // (est.)
        (TensorRtA40, YoloV5x, Fp32) => 25.0, // (est.)
        (TensorRtA40, BertBase, Fp32) => 9.5, // (est.)
        (TensorRtA40, ResNet50, Int8) => 7.5, // (paper: "approximately 8 ms")
        (TensorRtA40, ResNet152, Int8) => 8.5, // (est.)
        (TensorRtA40, YoloV5x, Int8) => 15.0, // (est.)
        (TensorRtA40, BertBase, Int8) => 8.0, // (est.)
        // --- NVIDIA A100, TensorRT ---
        (TensorRtA100, ResNet50, Fp32) => 7.2,  // (est.)
        (TensorRtA100, ResNet152, Fp32) => 9.0, // (est.)
        (TensorRtA100, YoloV5x, Fp32) => 18.0,  // (est.)
        (TensorRtA100, BertBase, Fp32) => 8.0,  // (est.)
        (TensorRtA100, ResNet50, Int8) => 2.2,  // (est.)
        (TensorRtA100, ResNet152, Int8) => 2.5, // (est.)
        (TensorRtA100, YoloV5x, Int8) => 8.0,   // (est.)
        (TensorRtA100, BertBase, Int8) => 2.6,  // (est.)
        (_, _, Fp16) => return None,
    })
}

/// Batch-64 latency anchor in milliseconds for batching engines (TensorRT),
/// or `None` for engines where batching does not raise throughput (§5.1:
/// "increasing the batch size further only resulted in higher latency").
pub fn batch64_ms(engine: Engine, model: ModelId, dtype: DType) -> Option<f64> {
    use DType::*;
    use Engine::*;
    use ModelId::*;
    Some(match (engine, model, dtype) {
        (TensorRtA40, ResNet50, Fp32) => DL_A40_R50_FP32_BS64_MS, // (derived, Table 5)
        (TensorRtA40, ResNet152, Fp32) => 80.0,                   // (derived, Table 5)
        (TensorRtA40, YoloV5x, Fp32) => 636.0,                    // (derived, Table 5)
        (TensorRtA40, BertBase, Fp32) => 49.7,                    // (derived, Table 5)
        (TensorRtA40, ResNet50, Int8) => 7.95,                    // (derived, Table 5)
        (TensorRtA40, ResNet152, Int8) => 18.3,                   // (derived, Table 5)
        (TensorRtA40, YoloV5x, Int8) => 160.0,                    // (est.)
        (TensorRtA40, BertBase, Int8) => 12.0,                    // (est.)
        (TensorRtA100, ResNet50, Fp32) => DL_A100_R50_FP32_BS64_MS, // (derived, §5.2: 1.15×)
        (TensorRtA100, ResNet152, Fp32) => 39.0,                  // (est.)
        (TensorRtA100, YoloV5x, Fp32) => 350.0,                   // (est.)
        (TensorRtA100, BertBase, Fp32) => 27.0,                   // (est.)
        (TensorRtA100, ResNet50, Int8) => 3.0,                    // (est., > b1)
        (TensorRtA100, ResNet152, Int8) => 5.04,                  // (derived, §5.2: DSP = 1.5×)
        (TensorRtA100, YoloV5x, Int8) => 120.0,                   // (est.)
        (TensorRtA100, BertBase, Int8) => 9.0,                    // (est.)
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchors_present() {
        assert_eq!(
            batch1_ms(Engine::TfLiteCpu, ModelId::ResNet50, DType::Fp32),
            Some(81.2)
        );
        assert_eq!(
            batch1_ms(Engine::QnnDsp, ModelId::ResNet50, DType::Int8),
            Some(8.8)
        );
        assert_eq!(
            batch64_ms(Engine::TensorRtA40, ModelId::ResNet50, DType::Fp32),
            Some(24.8)
        );
    }

    #[test]
    fn unsupported_combos_are_none() {
        assert_eq!(
            batch1_ms(Engine::QnnDsp, ModelId::ResNet50, DType::Fp32),
            None
        );
        assert_eq!(
            batch1_ms(Engine::QnnDsp, ModelId::YoloV5x, DType::Int8),
            None
        );
        assert_eq!(
            batch1_ms(Engine::TfLiteGpu, ModelId::ResNet50, DType::Int8),
            None
        );
        assert_eq!(
            batch64_ms(Engine::TfLiteCpu, ModelId::ResNet50, DType::Fp32),
            None
        );
    }

    #[test]
    fn batch64_always_has_batch1() {
        for engine in Engine::ALL {
            for model in ModelId::ALL {
                for dtype in [DType::Fp32, DType::Int8] {
                    if batch64_ms(engine, model, dtype).is_some() {
                        assert!(
                            batch1_ms(engine, model, dtype).is_some(),
                            "{engine:?} {model:?} {dtype:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch64_per_sample_beats_batch1() {
        for engine in [Engine::TensorRtA40, Engine::TensorRtA100] {
            for model in ModelId::ALL {
                for dtype in [DType::Fp32, DType::Int8] {
                    if let (Some(b1), Some(b64)) = (
                        batch1_ms(engine, model, dtype),
                        batch64_ms(engine, model, dtype),
                    ) {
                        assert!(b64 / 64.0 < b1, "{engine:?} {model:?} {dtype:?}");
                        assert!(b64 > b1, "batch must cost more wall-clock");
                    }
                }
            }
        }
    }
}
