//! Cloud-gaming replay: drive the orchestrator with the Fig. 5 production
//! traffic trace and measure energy proportionality at server scale.
//!
//! The deployed clusters' dominant workload is cloud gaming (§2.3); their
//! utilization is low and swings 25×. Replaying the synthetic trace
//! through the orchestrator shows what per-SoC power gating buys on that
//! exact shape — and what a monolithic server would burn instead.

use socc_sim::rng::SimRng;
use socc_sim::time::SimDuration;

use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use crate::workload::{AdmissionError, WorkloadId, WorkloadSpec};

/// Outcome of a gaming-trace replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GamingReplayReport {
    /// Trace length.
    pub hours: f64,
    /// Peak concurrent sessions.
    pub peak_sessions: usize,
    /// Trough concurrent sessions.
    pub trough_sessions: usize,
    /// Cluster energy over the window, kWh.
    pub cluster_kwh: f64,
    /// Energy of a cluster forced to keep all SoCs awake, kWh.
    pub always_awake_kwh: f64,
    /// Peak cluster power, W.
    pub peak_power_w: f64,
    /// Sessions rejected by admission.
    pub rejected: u64,
}

impl GamingReplayReport {
    /// Fraction of energy saved by sleep-state management.
    pub fn sleep_savings(&self) -> f64 {
        1.0 - self.cluster_kwh / self.always_awake_kwh
    }
}

/// Converts a traffic level in Gbps into concurrent sessions at
/// `mbps_per_session` outbound each.
pub(crate) fn sessions_for(gbps: f64, mbps_per_session: f64) -> usize {
    (gbps * 1000.0 / mbps_per_session).round() as usize
}

/// Grows or shrinks `sessions`, deployed copies of `spec` in admission
/// order, to `target`: releases the newest first in one grouped finish, or
/// admits the shortfall in one call. Returns the refusal that left it
/// short.
pub(crate) fn hold_sessions(
    orch: &mut Orchestrator,
    sessions: &mut Vec<WorkloadId>,
    target: usize,
    spec: &WorkloadSpec,
) -> Result<(), AdmissionError> {
    if sessions.len() > target {
        let departing = &mut sessions[target..];
        departing.reverse();
        orch.finish_all(departing).expect("deployed sessions");
        sessions.truncate(target);
        return Ok(());
    }
    orch.admit(spec, target - sessions.len(), None, |id| sessions.push(id))
}

/// Replays `hours` of the Fig. 5 gaming trace at `step` granularity.
pub fn replay_gaming_trace(
    hours: u64,
    step: SimDuration,
    mbps_per_session: f64,
    seed: u64,
) -> GamingReplayReport {
    let cfg = socc_workloads::gaming::GamingTraceConfig::default();
    let mut rng = SimRng::seed(seed);
    let trace = cfg.generate(SimDuration::from_hours(hours), step, &mut rng);

    let run = |sleep: Option<SimDuration>| {
        let mut orch = Orchestrator::new(OrchestratorConfig {
            sleep_after: sleep,
            ..OrchestratorConfig::default()
        });
        let spec = WorkloadSpec::GamingSession {
            stream_mbps: mbps_per_session,
        };
        let mut sessions = Vec::new();
        let mut peak_sessions = 0usize;
        let mut trough_sessions = usize::MAX;
        let mut peak_power = 0.0f64;
        let mut rejected = 0u64;
        for &(t, gbps) in trace.samples() {
            orch.advance_to(t);
            let target = sessions_for(gbps, mbps_per_session);
            if hold_sessions(&mut orch, &mut sessions, target, &spec).is_err() {
                rejected += 1;
            }
            peak_sessions = peak_sessions.max(sessions.len());
            trough_sessions = trough_sessions.min(sessions.len());
            peak_power = peak_power.max(orch.power().as_watts());
        }
        (
            orch.energy().as_kilowatt_hours(),
            peak_sessions,
            trough_sessions,
            peak_power,
            rejected,
        )
    };

    let (cluster_kwh, peak_sessions, trough_sessions, peak_power_w, rejected) =
        run(Some(SimDuration::from_secs(120)));
    let (always_awake_kwh, ..) = run(None);
    GamingReplayReport {
        hours: hours as f64,
        peak_sessions,
        trough_sessions,
        cluster_kwh,
        always_awake_kwh,
        peak_power_w,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> GamingReplayReport {
        replay_gaming_trace(38, SimDuration::from_mins(15), 10.0, 42)
    }

    #[test]
    fn replay_tracks_the_diurnal_swing() {
        let r = report();
        assert!(r.peak_sessions > 5 * r.trough_sessions.max(1), "{r:?}");
        assert!(r.peak_sessions <= 60 * 8, "GPU slots bound sessions");
        assert_eq!(r.rejected, 0, "the trace fits the cluster");
    }

    #[test]
    fn sleep_states_save_double_digit_energy() {
        let r = report();
        assert!(
            r.sleep_savings() > 0.10,
            "savings {:.1}% ({} vs {} kWh)",
            r.sleep_savings() * 100.0,
            r.cluster_kwh,
            r.always_awake_kwh
        );
    }

    #[test]
    fn peak_power_stays_within_psu() {
        let r = report();
        assert!(
            r.peak_power_w < socc_hw::calib::CLUSTER_PSU_LIMIT_W,
            "{}",
            r.peak_power_w
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = replay_gaming_trace(6, SimDuration::from_mins(30), 10.0, 7);
        let b = replay_gaming_trace(6, SimDuration::from_mins(30), 10.0, 7);
        assert_eq!(a, b);
    }
}
