//! Quantization trade-offs: the accuracy cost of INT8 serving.
//!
//! The paper's best energy numbers come from quantized models on the DSP
//! (§5.2), but quantization is not free: post-training INT8 loses a little
//! top-line accuracy. This module carries the published accuracy anchors
//! and computes the latency/accuracy/energy Pareto set across engines, so
//! a serving operator can pick an operating point instead of a folklore
//! default.

use crate::engine::Engine;
use crate::tensor::DType;
use crate::zoo::ModelId;

/// Published top-line accuracy (top-1 for classifiers, mAP@50-95 for
/// YOLOv5x, GLUE-avg-like for BERT), FP32 baseline.
pub(crate) fn fp32_accuracy(model: ModelId) -> f64 {
    match model {
        ModelId::ResNet50 => 76.1,
        ModelId::ResNet152 => 78.3,
        ModelId::YoloV5x => 50.7,
        ModelId::BertBase => 82.5,
    }
}

/// Accuracy drop of post-training INT8 quantization, in points.
///
/// CNNs quantize well (≤0.5 pt); transformers lose more without
/// quantization-aware training.
pub(crate) fn int8_accuracy_drop(model: ModelId) -> f64 {
    match model {
        ModelId::ResNet50 => 0.3,
        ModelId::ResNet152 => 0.4,
        ModelId::YoloV5x => 0.8,
        ModelId::BertBase => 1.6,
    }
}

/// Accuracy at a precision.
pub(crate) fn accuracy(model: ModelId, dtype: DType) -> f64 {
    match dtype {
        DType::Fp32 | DType::Fp16 => fp32_accuracy(model),
        DType::Int8 => fp32_accuracy(model) - int8_accuracy_drop(model),
    }
}

/// One serving operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Engine.
    pub engine: Engine,
    /// Precision.
    pub dtype: DType,
    /// Batch size.
    pub batch: usize,
    /// Whole-batch latency in ms.
    pub latency_ms: f64,
    /// Accuracy in points.
    pub accuracy: f64,
    /// Samples per joule.
    pub samples_per_joule: f64,
}

/// Enumerates every supported operating point for a model on the cluster's
/// SoC engines (batch 1) plus the server GPUs (batch 1/64).
pub fn operating_points(model: ModelId) -> Vec<OperatingPoint> {
    let mut out = Vec::new();
    for engine in Engine::ALL {
        for dtype in [DType::Fp32, DType::Int8] {
            let batches: &[usize] = if engine.batches() { &[1, 64] } else { &[1] };
            for &batch in batches {
                if let (Some(lat), Some(eff)) = (
                    engine.latency(model, dtype, batch),
                    engine.samples_per_joule(model, dtype, batch),
                ) {
                    out.push(OperatingPoint {
                        engine,
                        dtype,
                        batch,
                        latency_ms: lat.as_millis_f64(),
                        accuracy: accuracy(model, dtype),
                        samples_per_joule: eff,
                    });
                }
            }
        }
    }
    out
}

/// The Pareto-optimal subset over (latency ↓, accuracy ↑, efficiency ↑).
pub fn pareto_front(points: &[OperatingPoint]) -> Vec<OperatingPoint> {
    let dominated = |a: &OperatingPoint, b: &OperatingPoint| {
        // b dominates a.
        b.latency_ms <= a.latency_ms
            && b.accuracy >= a.accuracy
            && b.samples_per_joule >= a.samples_per_joule
            && (b.latency_ms < a.latency_ms
                || b.accuracy > a.accuracy
                || b.samples_per_joule > a.samples_per_joule)
    };
    points
        .iter()
        .filter(|a| !points.iter().any(|b| dominated(a, b)))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_always_costs_accuracy() {
        for model in ModelId::ALL {
            assert!(accuracy(model, DType::Int8) < accuracy(model, DType::Fp32));
            assert!(int8_accuracy_drop(model) < 2.0, "PTQ drops stay small");
        }
    }

    #[test]
    fn transformers_quantize_worst() {
        assert!(int8_accuracy_drop(ModelId::BertBase) > int8_accuracy_drop(ModelId::ResNet50));
    }

    #[test]
    fn r50_has_rich_operating_space() {
        let points = operating_points(ModelId::ResNet50);
        assert!(points.len() >= 8, "{}", points.len());
        assert!(points.iter().any(|p| p.engine == Engine::QnnDsp));
    }

    #[test]
    fn pareto_front_is_nonempty_subset() {
        let points = operating_points(ModelId::ResNet50);
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        assert!(front.len() <= points.len());
        // Every front member is genuinely non-dominated.
        for a in &front {
            for b in &points {
                let strictly_better = b.latency_ms < a.latency_ms
                    && b.accuracy >= a.accuracy
                    && b.samples_per_joule >= a.samples_per_joule;
                assert!(!strictly_better, "{a:?} dominated by {b:?}");
            }
        }
    }

    #[test]
    fn dsp_int8_is_on_the_front() {
        // §5.2's headline operating point should be Pareto-optimal: best
        // energy among low-latency points.
        let points = operating_points(ModelId::ResNet50);
        let front = pareto_front(&points);
        assert!(
            front
                .iter()
                .any(|p| p.engine == Engine::QnnDsp && p.dtype == DType::Int8),
            "front: {front:?}"
        );
    }

    #[test]
    fn fp32_max_accuracy_point_survives() {
        // The highest-accuracy point can never be dominated.
        let points = operating_points(ModelId::BertBase);
        let front = pareto_front(&points);
        let best_acc = points.iter().map(|p| p.accuracy).fold(0.0, f64::max);
        assert!(front.iter().any(|p| p.accuracy == best_acc));
    }
}
