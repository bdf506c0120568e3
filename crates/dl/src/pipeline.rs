//! Pipeline parallelism across SoCs: the alternative partitioning §8 hints
//! at when it asks for "more fine-grained tensor partitioning" and better
//! cross-SoC software.
//!
//! Instead of splitting every tensor (halo exchange per layer, §5.3),
//! pipeline parallelism cuts the *layer graph* into stages, one SoC per
//! stage, and streams activations stage-to-stage. One boundary transfer per
//! stage replaces per-layer halos — much less communication — but a single
//! request still traverses every stage, so latency does not drop; the win
//! is *throughput* once the pipeline fills.

use socc_net::tcp::TcpModel;
use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

use crate::parallel::single_soc_ms;
use crate::tensor::DType;
use crate::zoo::ModelId;

/// A stage of a pipeline partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// First layer index (inclusive).
    pub start: usize,
    /// Last layer index (exclusive).
    pub end: usize,
    /// Compute time of the stage on one SoC.
    pub(crate) compute: SimDuration,
    /// Activation bytes shipped to the next stage (0 for the last).
    pub(crate) boundary_bytes: f64,
}

/// A pipeline-parallel execution plan.
#[derive(Debug, Clone)]
pub struct PipelinePlan {
    /// Stages in order.
    pub stages: Vec<Stage>,
    /// End-to-end latency of one inference (fill time).
    pub latency: SimDuration,
    /// Steady-state throughput in inferences/s.
    pub throughput: f64,
}

/// Balances `model` into `stages` pipeline stages by cumulative FLOPs and
/// prices them with the MNN-on-SoC-CPU anchor.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn plan(model: ModelId, stages: usize) -> PipelinePlan {
    assert!(stages > 0, "need at least one stage");
    let graph = model.graph();
    let total_flops = graph.flops();
    let t1 = SimDuration::from_millis_f64(single_soc_ms(model));
    let tcp = TcpModel::inter_soc();
    let goodput = tcp.goodput(DataRate::gbps(1.0));

    // Greedy balanced cut: advance each stage until it holds ≥ 1/stages of
    // the remaining FLOPs.
    let mut cuts = Vec::with_capacity(stages + 1);
    cuts.push(0usize);
    let mut acc = 0.0;
    let mut next_target = total_flops / stages as f64;
    for (i, layer) in graph.layers().iter().enumerate() {
        acc += layer.flops();
        if acc >= next_target && cuts.len() < stages {
            cuts.push(i + 1);
            next_target += total_flops / stages as f64;
        }
    }
    while cuts.len() < stages {
        cuts.push(graph.len());
    }
    cuts.push(graph.len());

    let mut built = Vec::with_capacity(stages);
    for w in cuts.windows(2) {
        let (start, end) = (w[0], w[1]);
        let flops: f64 = graph.layers()[start..end].iter().map(|l| l.flops()).sum();
        let boundary_bytes = if end < graph.len() && end > start {
            graph.layers()[end - 1].output_shape().bytes(DType::Fp32) as f64
        } else {
            0.0
        };
        built.push(Stage {
            start,
            end,
            compute: t1 * (flops / total_flops),
            boundary_bytes,
        });
    }

    // Latency: sum of stage computes plus one transfer per boundary.
    let mut latency = SimDuration::ZERO;
    let mut bottleneck = SimDuration::ZERO;
    for stage in &built {
        latency += stage.compute;
        let transfer = if stage.boundary_bytes > 0.0 {
            tcp.transfer_time(DataSize::bytes(stage.boundary_bytes), goodput)
        } else {
            SimDuration::ZERO
        };
        latency += transfer;
        // Steady state: each stage overlaps compute with shipping the
        // previous result, so the cycle time is max(compute, transfer).
        bottleneck = bottleneck.max(stage.compute.max(transfer));
    }
    let throughput = if bottleneck.is_zero() {
        0.0
    } else {
        1.0 / bottleneck.as_secs_f64()
    };
    PipelinePlan {
        stages: built,
        latency,
        throughput,
    }
}

/// Pipeline vs tensor parallelism at the same SoC count (the ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitioningComparison {
    /// SoCs used.
    pub(crate) socs: usize,
    /// Tensor-parallel single-request latency.
    pub tp_latency: SimDuration,
    /// Pipeline-parallel single-request latency.
    pub pp_latency: SimDuration,
    /// Tensor-parallel throughput (1 / latency — no pipelining of requests).
    pub tp_throughput: f64,
    /// Pipeline-parallel steady-state throughput.
    pub pp_throughput: f64,
}

/// Runs the comparison for a model at a SoC count.
pub fn compare(model: ModelId, socs: usize) -> PartitioningComparison {
    let tp = crate::parallel::tensor_parallel(
        model,
        crate::parallel::CollabConfig {
            socs,
            pipelined: true,
            link_gbps: 1.0,
        },
    );
    let pp = plan(model, socs);
    PartitioningComparison {
        socs,
        tp_latency: tp.total,
        pp_latency: pp.latency,
        tp_throughput: 1.0 / tp.total.as_secs_f64(),
        pp_throughput: pp.throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_cover_the_graph_exactly() {
        for stages in [1, 2, 3, 5] {
            let p = plan(ModelId::ResNet50, stages);
            assert_eq!(p.stages.len(), stages);
            assert_eq!(p.stages[0].start, 0);
            assert_eq!(
                p.stages.last().unwrap().end,
                ModelId::ResNet50.graph().len()
            );
            for w in p.stages.windows(2) {
                assert_eq!(w[0].end, w[1].start, "stages must tile");
            }
        }
    }

    #[test]
    fn single_stage_equals_single_soc() {
        let p = plan(ModelId::ResNet50, 1);
        assert!((p.latency.as_millis_f64() - 80.0).abs() < 1e-6);
        assert_eq!(p.stages[0].boundary_bytes, 0.0);
    }

    #[test]
    fn stages_are_roughly_balanced() {
        let p = plan(ModelId::ResNet152, 4);
        let times: Vec<f64> = p.stages.iter().map(|s| s.compute.as_millis_f64()).collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 2.5, "imbalance {times:?}");
    }

    #[test]
    fn pipelining_raises_throughput_not_latency() {
        let one = plan(ModelId::ResNet50, 1);
        let five = plan(ModelId::ResNet50, 5);
        // Latency does not improve (transfers add on top).
        assert!(five.latency >= one.latency * 0.95);
        // Throughput scales by roughly the stage count (minus imbalance).
        assert!(
            five.throughput > 2.5 * one.throughput,
            "{} vs {}",
            five.throughput,
            one.throughput
        );
    }

    #[test]
    fn pp_beats_tp_on_throughput_tp_wins_latency() {
        // The §8 ablation: at 5 SoCs, tensor parallelism cuts latency,
        // pipeline parallelism multiplies throughput.
        let c = compare(ModelId::ResNet50, 5);
        assert!(c.tp_latency < c.pp_latency, "TP should win latency");
        assert!(
            c.pp_throughput > 2.0 * c.tp_throughput,
            "PP should win throughput"
        );
    }

    #[test]
    fn boundary_bytes_are_activation_sized() {
        let p = plan(ModelId::ResNet50, 2);
        let b = p.stages[0].boundary_bytes;
        // A ResNet-50 mid-network activation is tens of kB to a few MB.
        assert!((1e4..=4e6).contains(&b), "boundary {b}");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        let _ = plan(ModelId::ResNet50, 0);
    }
}
