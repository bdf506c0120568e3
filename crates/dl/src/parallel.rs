//! SoC-collaborative DL inference: width-wise tensor parallelism (§5.3).
//!
//! The paper partitions each layer's tensor along the width dimension
//! across N SoCs (the CoEdge scheme) with intermediate halo exchanges over
//! TCP. We reproduce the mechanics:
//!
//! - **compute** shrinks as `T₁·(1/N + c·(N-1)/N)` where `c` captures the
//!   duplicated halo computation and framework overhead (calibrated to the
//!   measured 80 ms → 34 ms reduction at N = 5);
//! - **communication** is summed per halo-sync point from the layer graph:
//!   each sync pays a TCP slow-start ramp plus the halo bytes at the
//!   inter-SoC goodput, and the input scatter pays its own transfer;
//! - **pipelining** ("transferring computation-required data first")
//!   overlaps a calibrated fraction of communication with compute.

use socc_net::tcp::TcpModel;
use socc_sim::time::SimDuration;
use socc_sim::units::DataSize;

use crate::tensor::DType;
use crate::zoo::ModelId;

/// Fraction of per-partition compute that is duplicated halo work and
/// framework overhead (calibrated: 80 ms → 34 ms at N = 5, §5.3).
pub const PARTITION_OVERHEAD: f64 = 0.28;

/// Fraction of communication hidden by compute/communication pipelining
/// (calibrated: comm share 41.5% → 22.9% at N = 5, §5.3).
pub const PIPELINE_OVERLAP: f64 = 0.58;

/// Single-SoC MNN CPU inference time for ResNet-50 in the collaborative
/// setup (§5.3: "increasing the number of SoCs from one to five reduces
/// the computation time from 80 ms to 34 ms").
pub(crate) const MNN_R50_SINGLE_SOC_MS: f64 = 80.0;

/// Configuration of a collaborative inference run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollabConfig {
    /// Number of participating SoCs (1–5 in the paper).
    pub socs: usize,
    /// Whether compute/communication pipelining is enabled.
    pub pipelined: bool,
}

/// Latency breakdown of one collaborative inference (Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollabReport {
    /// Number of SoCs used.
    pub socs: usize,
    /// Pure computation time.
    pub compute: SimDuration,
    /// Visible (non-overlapped) communication time.
    pub comm: SimDuration,
    /// End-to-end latency.
    pub total: SimDuration,
}

impl CollabReport {
    /// Fraction of total latency spent in communication.
    pub fn comm_share(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.comm.as_secs_f64() / self.total.as_secs_f64()
        }
    }
}

/// Single-SoC MNN CPU latency for a model, scaled from the ResNet-50 anchor
/// by the FLOP ratio.
pub fn single_soc_ms(model: ModelId) -> f64 {
    MNN_R50_SINGLE_SOC_MS * model.gflops_anchor() / ModelId::ResNet50.gflops_anchor()
}

/// Plans one collaborative inference of `model` across `cfg.socs` SoCs.
///
/// # Panics
///
/// Panics if `cfg.socs == 0`.
pub fn tensor_parallel(model: ModelId, cfg: CollabConfig) -> CollabReport {
    assert!(cfg.socs > 0, "need at least one SoC");
    let n = cfg.socs as f64;
    let t1 = SimDuration::from_millis_f64(single_soc_ms(model));
    if cfg.socs == 1 {
        return CollabReport {
            socs: 1,
            compute: t1,
            comm: SimDuration::ZERO,
            total: t1,
        };
    }

    // Compute: ideal split plus duplicated-halo overhead.
    let compute = t1 * (1.0 / n + PARTITION_OVERHEAD * (n - 1.0) / n);

    // Communication, summed mechanically over the layer graph.
    let tcp = TcpModel::inter_soc();
    let goodput = tcp.goodput(socc_sim::units::DataRate::gbps(1.0));
    let graph = model.graph();
    // Barrier cost grows mildly with the rendezvous size (stragglers).
    let straggler = 1.0 + 0.05 * (n - 2.0).max(0.0);
    let mut comm = SimDuration::ZERO;
    for layer in graph.layers() {
        let halo = layer.halo_bytes();
        if halo > 0.0 {
            // Each sync: one RTT of barrier latency (connections between
            // SoCs are persistent and warm) plus the halo bytes at goodput.
            let burst = tcp.rtt + DataSize::bytes(halo) / goodput;
            comm += burst * straggler;
        }
    }
    // Input scatter: (n-1)/n of the input tensor leaves the coordinator on
    // a cold connection (full slow-start).
    let input_bytes = graph.input.bytes(DType::Fp32) as f64 * (n - 1.0) / n;
    comm += tcp.transfer_time(DataSize::bytes(input_bytes), goodput);

    let visible_comm = if cfg.pipelined {
        comm * (1.0 - PIPELINE_OVERLAP)
    } else {
        comm
    };
    CollabReport {
        socs: cfg.socs,
        compute,
        comm: visible_comm,
        total: compute + visible_comm,
    }
}

/// The full 1..=max_socs sweep of Fig. 13.
pub fn sweep(model: ModelId, max_socs: usize, pipelined: bool) -> Vec<CollabReport> {
    (1..=max_socs)
        .map(|socs| tensor_parallel(model, CollabConfig { socs, pipelined }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r50(n: usize, pipelined: bool) -> CollabReport {
        tensor_parallel(ModelId::ResNet50, CollabConfig { socs: n, pipelined })
    }

    #[test]
    fn single_soc_matches_mnn_anchor() {
        let r = r50(1, false);
        assert!((r.total.as_millis_f64() - 80.0).abs() < 1e-9);
        assert_eq!(r.comm_share(), 0.0);
    }

    #[test]
    fn five_soc_compute_matches_anchor() {
        // §5.3: compute 80 ms → 34 ms at N = 5 (a 2.35× reduction).
        let r = r50(5, false);
        assert!(
            (r.compute.as_millis_f64() - 34.0).abs() < 1.0,
            "{}",
            r.compute
        );
    }

    #[test]
    fn five_soc_comm_share_near_41_5_percent() {
        let r = r50(5, false);
        let share = r.comm_share();
        assert!((0.365..=0.465).contains(&share), "share {share}");
    }

    #[test]
    fn five_soc_speedup_near_1_38() {
        let single = r50(1, false).total.as_secs_f64();
        let five = r50(5, false).total.as_secs_f64();
        let speedup = single / five;
        assert!((1.25..=1.55).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn pipelining_brings_comm_share_near_22_9_percent() {
        let r = r50(5, true);
        let share = r.comm_share();
        assert!((0.18..=0.28).contains(&share), "share {share}");
    }

    #[test]
    fn latency_decreases_but_sublinearly() {
        // Fig. 13: "involving more SoCs does not proportionally reduce
        // inference latencies".
        let reports = sweep(ModelId::ResNet50, 5, false);
        for pair in reports.windows(2) {
            assert!(pair[1].total < pair[0].total, "latency must decrease");
        }
        let speedup5 = reports[0].total.as_secs_f64() / reports[4].total.as_secs_f64();
        assert!(speedup5 < 2.0, "far from the ideal 5x: {speedup5}");
    }

    #[test]
    fn comm_share_grows_with_socs() {
        let reports = sweep(ModelId::ResNet50, 5, false);
        assert!(reports[4].comm_share() > reports[1].comm_share());
    }

    #[test]
    fn pipelined_always_at_least_as_fast() {
        for n in 1..=5 {
            assert!(r50(n, true).total <= r50(n, false).total, "n = {n}");
        }
    }

    #[test]
    fn bert_has_no_halo_comm_only_scatter() {
        // Sequence models width-partition without conv halos; only the
        // scatter cost remains.
        let r = tensor_parallel(
            ModelId::BertBase,
            CollabConfig {
                socs: 4,
                pipelined: false,
            },
        );
        let r50 = tensor_parallel(
            ModelId::ResNet50,
            CollabConfig {
                socs: 4,
                pipelined: false,
            },
        );
        assert!(r.comm < r50.comm / 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one SoC")]
    fn zero_socs_panics() {
        let _ = r50(0, false);
    }
}
