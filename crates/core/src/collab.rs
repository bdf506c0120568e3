//! Collaborative-inference deployment: atomic multi-SoC placement.
//!
//! §5.3 evaluates tensor parallelism as a library experiment; a production
//! orchestrator must *deploy* it: reserve N SoCs together (all-or-nothing),
//! reserve the inter-SoC bandwidth the halo exchange needs, prefer SoCs on
//! the same PCB (the ESB adds two hops), and tear the group down as one.

use socc_dl::parallel::{tensor_parallel, CollabConfig, PARTITION_OVERHEAD};
use socc_dl::ModelId;
use socc_sim::time::SimDuration;

use crate::orchestrator::Orchestrator;
use crate::soc::Demand;
use crate::workload::AdmissionError;

/// Identifies a deployed collaborative group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollabGroupId(pub u64);

/// A deployed collaborative-inference group.
#[derive(Debug, Clone)]
pub struct CollabDeployment {
    /// Group id.
    pub id: CollabGroupId,
    /// The SoC slots serving the group, in partition order.
    pub socs: Vec<usize>,
    /// Whether all members share one PCB (lower-latency placement).
    pub same_pcb: bool,
    /// Model served.
    pub model: ModelId,
    /// Pipelined compute/communication.
    pub pipelined: bool,
    /// Predicted single-inference latency.
    pub latency: SimDuration,
    per_soc_demand: Demand,
}

/// Per-SoC fabric reservation for the halo exchange, in Mbps.
fn halo_mbps(model: ModelId) -> f64 {
    // Each inner SoC ships its per-inference halo both ways; reserve for a
    // 10 inferences/s duty.
    let bytes = model.graph().halo_bytes_per_boundary();
    bytes * 8.0 * 10.0 / 1e6
}

/// Extension methods on [`Orchestrator`] for group placement.
pub trait CollabOrchestrator {
    /// Atomically places a tensor-parallel group of `socs` SoCs, preferring
    /// members on one PCB. All-or-nothing: on failure nothing is reserved.
    fn submit_collab(
        &mut self,
        model: ModelId,
        socs: usize,
        pipelined: bool,
    ) -> Result<CollabDeployment, AdmissionError>;

    /// Releases a previously deployed group.
    fn finish_collab(&mut self, deployment: &CollabDeployment) -> Result<(), AdmissionError>;
}

impl CollabOrchestrator for Orchestrator {
    fn submit_collab(
        &mut self,
        model: ModelId,
        socs: usize,
        pipelined: bool,
    ) -> Result<CollabDeployment, AdmissionError> {
        if socs == 0 || socs > self.cluster().soc_count() {
            return Err(AdmissionError::NoCapacity);
        }
        let n = socs as f64;
        // Each member computes its slice plus the duplicated halo work on
        // the CPU (the MNN configuration of §5.3).
        let share = 1.0 / n + PARTITION_OVERHEAD * (n - 1.0) / n;
        let demand = Demand {
            cpu_pu: socc_hw::calib::SOC_CPU_TRANSCODE_PU * share.min(1.0),
            net_mbps: if socs > 1 { halo_mbps(model) } else { 0.0 },
            mem_gb: model.graph().weight_bytes(socc_dl::DType::Fp32) / 1e9 * 1.5 + 0.8,
            ..Default::default()
        };

        // Candidate search: first try to find a PCB with `socs` SoCs that
        // all fit; otherwise take any fitting SoCs.
        let per_pcb = socc_hw::calib::SOCS_PER_PCB;
        let fits: Vec<usize> = self
            .cluster()
            .socs
            .iter()
            .filter(|s| s.fits(&demand))
            .filter(|s| {
                demand.net_mbps == 0.0 || self.cluster().fits_network(s.index, demand.net_mbps)
            })
            .map(|s| s.index)
            .collect();
        let mut chosen: Vec<usize> = Vec::new();
        let mut same_pcb = false;
        if socs <= per_pcb {
            for pcb in 0..self.cluster().pcb_count() {
                let members: Vec<usize> = fits
                    .iter()
                    .copied()
                    .filter(|&i| i / per_pcb == pcb)
                    .collect();
                if members.len() >= socs {
                    chosen = members[..socs].to_vec();
                    same_pcb = true;
                    break;
                }
            }
        }
        if chosen.is_empty() {
            if fits.len() < socs {
                return Err(AdmissionError::NoCapacity);
            }
            chosen = fits[..socs].to_vec();
        }

        // Reserve every member. The candidates were filtered against the
        // same demand above and nothing ran in between, so placement cannot
        // fail — `place_pinned` would panic if the invariant broke.
        for &soc in &chosen {
            self.place_pinned(soc, &demand);
        }

        let report = tensor_parallel(model, CollabConfig { socs, pipelined });
        Ok(CollabDeployment {
            id: CollabGroupId(chosen.iter().map(|&s| s as u64 + 1).product()),
            socs: chosen,
            same_pcb,
            model,
            pipelined,
            latency: report.total,
            per_soc_demand: demand,
        })
    }

    fn finish_collab(&mut self, deployment: &CollabDeployment) -> Result<(), AdmissionError> {
        for &soc in &deployment.socs {
            self.release_pinned(soc, &deployment.per_soc_demand);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::OrchestratorConfig;
    use crate::workload::WorkloadSpec;

    fn orch() -> Orchestrator {
        Orchestrator::new(OrchestratorConfig::default())
    }

    #[test]
    fn group_lands_on_one_pcb_when_possible() {
        let mut o = orch();
        let d = o.submit_collab(ModelId::ResNet50, 5, false).unwrap();
        assert_eq!(d.socs.len(), 5);
        assert!(d.same_pcb, "5 SoCs fit one PCB");
        let pcb = d.socs[0] / 5;
        assert!(d.socs.iter().all(|&s| s / 5 == pcb));
        // Latency matches the §5.3 model.
        assert!(
            (d.latency.as_millis_f64() - 57.1).abs() < 1.5,
            "{}",
            d.latency
        );
    }

    #[test]
    fn group_reserves_cpu_on_every_member() {
        let mut o = orch();
        let d = o.submit_collab(ModelId::ResNet50, 4, true).unwrap();
        for &soc in &d.socs {
            assert!(
                o.cluster().socs[soc].used().cpu_pu > 1000.0,
                "member {soc} loaded"
            );
        }
        o.finish_collab(&d).unwrap();
        for &soc in &d.socs {
            assert!(o.cluster().socs[soc].is_idle(), "member {soc} released");
        }
    }

    #[test]
    fn group_spills_across_pcbs_when_one_is_busy() {
        let mut o = orch();
        // Occupy one SoC on each of the first 11 PCBs with a big stream mix
        // so no PCB has 5 completely free SoCs... simpler: occupy SoC 0..4
        // heavily so PCB 0 can't host; the group should land on PCB 1.
        let v6 = socc_video::vbench::by_id("V6").unwrap();
        for _ in 0..5 {
            o.submit(WorkloadSpec::LiveStreamCpu { video: v6.clone() })
                .unwrap();
        }
        let d = o.submit_collab(ModelId::ResNet50, 5, false).unwrap();
        assert!(d.same_pcb);
        assert!(
            d.socs.iter().all(|&s| s >= 5),
            "PCB 0 is full: {:?}",
            d.socs
        );
    }

    #[test]
    fn oversized_group_rejected() {
        let mut o = orch();
        assert_eq!(
            o.submit_collab(ModelId::ResNet50, 61, false).unwrap_err(),
            AdmissionError::NoCapacity
        );
        assert_eq!(
            o.submit_collab(ModelId::ResNet50, 0, false).unwrap_err(),
            AdmissionError::NoCapacity
        );
    }

    #[test]
    fn single_soc_group_is_just_one_soc() {
        let mut o = orch();
        let d = o.submit_collab(ModelId::ResNet50, 1, false).unwrap();
        assert_eq!(d.socs.len(), 1);
        assert!((d.latency.as_millis_f64() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn pipelined_groups_are_faster() {
        let mut o = orch();
        let plain = o.submit_collab(ModelId::ResNet50, 5, false).unwrap();
        o.finish_collab(&plain).unwrap();
        let piped = o.submit_collab(ModelId::ResNet50, 5, true).unwrap();
        assert!(piped.latency < plain.latency);
    }

    #[test]
    fn full_cluster_rejects_groups_atomically() {
        let mut o = orch();
        let v6 = socc_video::vbench::by_id("V6").unwrap();
        // Fill every SoC's CPU.
        loop {
            if o.submit(WorkloadSpec::LiveStreamCpu { video: v6.clone() })
                .is_err()
            {
                break;
            }
        }
        let before: Vec<crate::soc::Demand> = o.cluster().socs.iter().map(|s| s.used()).collect();
        let err = o.submit_collab(ModelId::ResNet50, 3, false).unwrap_err();
        assert_eq!(err, AdmissionError::NoCapacity);
        // Nothing was partially reserved: usage identical to before.
        for (soc, prev) in o.cluster().socs.iter().zip(&before) {
            assert_eq!(&soc.used(), prev, "no stray reservations on {}", soc.index);
        }
    }
}
