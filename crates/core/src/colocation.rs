//! Workload colocation: free-ride DL serving on gaming-occupied SoCs.
//!
//! Key finding (3) of the paper: GPUs win DL serving on cost, "\[but\]
//! migrating lightweight or latency-insensitive DL tasks to the already
//! deployed, underutilized SoC Clusters can still enhance energy
//! efficiency." A SoC kept awake by a gaming session has an idle DSP; the
//! *marginal* cost of serving quantized inference there is the DSP's
//! sub-watt draw — no new idle floor, no new CapEx. This module measures
//! that marginal efficiency against dedicating new hardware.

use socc_dl::{DType, Engine, ModelId};
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};

use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use crate::workload::{SocProcessor, WorkloadSpec};

/// Outcome of a colocation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColocationReport {
    /// Hours replayed.
    pub hours: f64,
    /// Gaming-only cluster energy, kWh.
    pub baseline_kwh: f64,
    /// Gaming + colocated DL energy, kWh.
    pub colocated_kwh: f64,
    /// DL samples served by the colocated DSPs.
    pub dl_samples: f64,
    /// Marginal energy efficiency of the colocated serving, samples/J.
    pub marginal_samples_per_joule: f64,
    /// A dedicated A100's full-load efficiency on the same model, samples/J
    /// (the alternative: buy new hardware and run it well).
    pub dedicated_a100_samples_per_joule: f64,
}

impl ColocationReport {
    /// How much better the free ride is than dedicating an A100.
    pub fn advantage(&self) -> f64 {
        self.marginal_samples_per_joule / self.dedicated_a100_samples_per_joule
    }
}

fn replay(hours: u64, seed: u64, colocate_fraction: f64) -> (f64, f64) {
    let cfg = socc_workloads::gaming::GamingTraceConfig::default();
    let mut rng = SimRng::seed(seed);
    let step = SimDuration::from_mins(15);
    let trace = cfg.generate(SimDuration::from_hours(hours), step, &mut rng);
    let mut orch = Orchestrator::new(OrchestratorConfig {
        sleep_after: Some(SimDuration::from_secs(120)),
        ..OrchestratorConfig::default()
    });
    let mbps_per_session = 10.0;
    let mut sessions = Vec::new();
    let mut dl_pool: Vec<crate::workload::WorkloadId> = Vec::new();
    let mut dl_sample_seconds = 0.0;
    let per_soc_dl_fps = Engine::QnnDsp
        .max_throughput(ModelId::ResNet50, DType::Int8)
        .expect("DSP runs INT8 R50")
        * colocate_fraction;
    let mut prev_t = SimTime::ZERO;
    for &(t, gbps) in trace.samples() {
        dl_sample_seconds += dl_pool.len() as f64 * per_soc_dl_fps * t.since(prev_t).as_secs_f64();
        prev_t = t;
        orch.advance_to(t);
        let target = (gbps * 1000.0 / mbps_per_session).round() as usize;
        while sessions.len() > target {
            orch.finish(sessions.pop().expect("non-empty"))
                .expect("deployed");
        }
        while sessions.len() < target {
            match orch.submit(WorkloadSpec::GamingSession {
                stream_mbps: mbps_per_session,
            }) {
                Ok(id) => sessions.push(id),
                Err(_) => break,
            }
        }
        // Colocate: one DSP serving pool per SoC the *gaming* load keeps
        // awake (8 sessions per SoC, bin-packed). Tracking raw active
        // counts would ratchet: the DL pools themselves keep SoCs awake.
        if colocate_fraction > 0.0 {
            let gaming_socs = sessions.len().div_ceil(8);
            while dl_pool.len() > gaming_socs {
                orch.finish(dl_pool.pop().expect("non-empty"))
                    .expect("deployed");
            }
            while dl_pool.len() < gaming_socs {
                match orch.submit(WorkloadSpec::DlServe {
                    processor: SocProcessor::Dsp,
                    model: ModelId::ResNet50,
                    dtype: DType::Int8,
                    offered_fps: per_soc_dl_fps,
                }) {
                    Ok(id) => dl_pool.push(id),
                    Err(_) => break,
                }
            }
        }
    }
    (orch.energy().as_kilowatt_hours(), dl_sample_seconds)
}

/// Replays `hours` of gaming traffic twice — with and without DSP
/// colocation at `colocate_fraction` of each awake SoC's DSP capacity —
/// and reports the marginal efficiency.
pub fn colocation_study(hours: u64, colocate_fraction: f64, seed: u64) -> ColocationReport {
    let (baseline_kwh, _) = replay(hours, seed, 0.0);
    let (colocated_kwh, dl_samples) = replay(hours, seed, colocate_fraction);
    let marginal_joules = ((colocated_kwh - baseline_kwh) * 3.6e6).max(1e-9);
    let a100 = Engine::TensorRtA100
        .samples_per_joule(ModelId::ResNet50, DType::Int8, 64)
        .expect("A100 runs INT8 R50");
    ColocationReport {
        hours: hours as f64,
        baseline_kwh,
        colocated_kwh,
        dl_samples,
        marginal_samples_per_joule: dl_samples / marginal_joules,
        dedicated_a100_samples_per_joule: a100,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ColocationReport {
        colocation_study(12, 0.8, 5)
    }

    #[test]
    fn colocation_serves_meaningful_volume() {
        let r = report();
        assert!(r.dl_samples > 1e6, "samples {}", r.dl_samples);
        // Energy grows only modestly: DSPs are sub-watt.
        assert!(r.colocated_kwh < r.baseline_kwh * 1.25, "{r:?}");
        assert!(
            r.colocated_kwh > r.baseline_kwh,
            "colocation is not literally free"
        );
    }

    #[test]
    fn marginal_efficiency_beats_dedicated_gpu() {
        // The paper's finding (3): migrating light DL to underutilized
        // clusters enhances energy efficiency vs new GPU hardware.
        let r = report();
        assert!(
            r.advantage() > 1.5,
            "marginal {} vs A100 {}",
            r.marginal_samples_per_joule,
            r.dedicated_a100_samples_per_joule
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = colocation_study(4, 0.5, 9);
        let b = colocation_study(4, 0.5, 9);
        assert_eq!(a, b);
    }
}
