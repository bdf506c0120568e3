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
//!   each sync pays one barrier RTT plus the halo bytes at the inter-SoC
//!   goodput of the configured link rate (the prototype's 1 GbE, or an
//!   upgraded fabric for §8's what-if), and the input scatter pays its own
//!   transfer;
//! - **pipelining** ("transferring computation-required data first")
//!   overlaps a calibrated fraction of communication with compute.

use socc_net::tcp::TcpModel;
use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

use crate::tensor::DType;
use crate::zoo::ModelId;

/// Fraction of per-partition compute that is duplicated halo work and
/// framework overhead (calibrated: 80 ms → 34 ms at N = 5, §5.3).
pub(crate) const PARTITION_OVERHEAD: f64 = 0.28;

/// Fraction of communication hidden by compute/communication pipelining
/// (calibrated: comm share 41.5% → 22.9% at N = 5, §5.3).
pub(crate) const PIPELINE_OVERLAP: f64 = 0.58;

/// Configuration of a collaborative inference run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollabConfig {
    /// Number of participating SoCs (1–5 in the paper).
    pub socs: usize,
    /// Whether compute/communication pipelining is enabled.
    pub pipelined: bool,
    /// Per-SoC link rate of the inter-SoC fabric in Gbps: 1 on the
    /// prototype's 1 GbE fabric (Fig. 13).
    pub link_gbps: f64,
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
/// (§5.3: "increasing the number of SoCs from one to five reduces the
/// computation time from 80 ms to 34 ms") by the FLOP ratio.
pub(crate) fn single_soc_ms(model: ModelId) -> f64 {
    socc_hw::calib::COLLAB_R50_1SOC_COMPUTE_MS * model.gflops_anchor()
        / ModelId::ResNet50.gflops_anchor()
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

    // Communication, summed mechanically over the layer graph. A faster
    // link raises the goodput but keeps the RTT: propagation and switching
    // dominate it.
    let tcp = TcpModel::inter_soc();
    let goodput = tcp.goodput(DataRate::gbps(cfg.link_gbps));
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

/// The full 1..=max_socs sweep of Fig. 13 on a fabric of `link_gbps` per
/// SoC.
pub fn sweep(
    model: ModelId,
    max_socs: usize,
    pipelined: bool,
    link_gbps: f64,
) -> Vec<CollabReport> {
    (1..=max_socs)
        .map(|socs| {
            tensor_parallel(
                model,
                CollabConfig {
                    socs,
                    pipelined,
                    link_gbps,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use socc_hw::calib::{
        COLLAB_COMM_SHARE_5SOC, COLLAB_COMM_SHARE_5SOC_PIPELINED, COLLAB_R50_1SOC_COMPUTE_MS,
        COLLAB_R50_5SOC_COMPUTE_MS, COLLAB_SPEEDUP_5SOC,
    };

    fn r50_at(n: usize, pipelined: bool, link_gbps: f64) -> CollabReport {
        tensor_parallel(
            ModelId::ResNet50,
            CollabConfig {
                socs: n,
                pipelined,
                link_gbps,
            },
        )
    }

    fn r50(n: usize, pipelined: bool) -> CollabReport {
        r50_at(n, pipelined, 1.0)
    }

    #[test]
    fn single_soc_matches_mnn_anchor() {
        let r = r50(1, false);
        assert!((r.total.as_millis_f64() - COLLAB_R50_1SOC_COMPUTE_MS).abs() < 1e-9);
        assert_eq!(r.comm_share(), 0.0);
    }

    #[test]
    fn five_soc_compute_matches_anchor() {
        // §5.3: compute 80 ms → 34 ms at N = 5 (a 2.35× reduction).
        let r = r50(5, false);
        assert!(
            (r.compute.as_millis_f64() - COLLAB_R50_5SOC_COMPUTE_MS).abs() < 1.0,
            "{}",
            r.compute
        );
    }

    #[test]
    fn five_soc_comm_share_near_41_5_percent() {
        let share = r50(5, false).comm_share();
        assert!(
            (share - COLLAB_COMM_SHARE_5SOC).abs() <= 0.05,
            "share {share}"
        );
    }

    #[test]
    fn five_soc_speedup_near_1_38() {
        let single = r50(1, false).total.as_secs_f64();
        let five = r50(5, false).total.as_secs_f64();
        let speedup = single / five;
        assert!(
            (speedup - COLLAB_SPEEDUP_5SOC).abs() <= 0.13,
            "speedup {speedup}"
        );
    }

    #[test]
    fn pipelining_brings_comm_share_near_22_9_percent() {
        let share = r50(5, true).comm_share();
        assert!(
            (share - COLLAB_COMM_SHARE_5SOC_PIPELINED).abs() <= 0.049,
            "share {share}"
        );
    }

    #[test]
    fn latency_decreases_but_sublinearly() {
        // Fig. 13: "involving more SoCs does not proportionally reduce
        // inference latencies".
        let reports = sweep(ModelId::ResNet50, 5, false, 1.0);
        for pair in reports.windows(2) {
            assert!(pair[1].total < pair[0].total, "latency must decrease");
        }
        let speedup5 = reports[0].total.as_secs_f64() / reports[4].total.as_secs_f64();
        assert!(speedup5 < 2.0, "far from the ideal 5x: {speedup5}");
    }

    #[test]
    fn comm_share_grows_with_socs() {
        let reports = sweep(ModelId::ResNet50, 5, false, 1.0);
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
                link_gbps: 1.0,
            },
        );
        assert!(r.comm < r50(4, false).comm / 2.0);
    }

    #[test]
    fn faster_fabric_shrinks_comm_share() {
        // §8's network lever: a 10 Gbps fabric cuts the 5-SoC comm share.
        let base = r50_at(5, false, 1.0);
        let ten_g = r50_at(5, false, 10.0);
        assert!(ten_g.comm < base.comm);
        assert!(ten_g.comm_share() < base.comm_share() * 0.8);
        assert_eq!(ten_g.compute, base.compute);
    }

    #[test]
    fn even_infinite_bandwidth_leaves_rtt_floor() {
        // §8's point that software must improve too: barrier RTTs remain.
        let huge = r50_at(5, false, 1000.0);
        let sync_floor_ms = ModelId::ResNet50.graph().halo_sync_points() as f64 * 0.44;
        assert!(
            huge.comm.as_millis_f64() >= sync_floor_ms * 0.9,
            "{}",
            huge.comm
        );
    }

    #[test]
    #[should_panic(expected = "at least one SoC")]
    fn zero_socs_panics() {
        let _ = r50(0, false);
    }
}
