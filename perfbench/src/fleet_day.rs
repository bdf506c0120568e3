//! `fleet_day`: a diurnal day of phased Fig. 5 gaming sessions over a
//! fleet of 60-SoC sites, stepped one site after another on one thread.
//!
//! Set-up is `FleetSim::new`, which generates every site's trace. The
//! timed phase is the barrier loop: `plan_window` → `take_window` →
//! `SiteJob::step` per site in site order → `absorb`, until the fleet is
//! done.

use std::time::Instant;

use socc_cluster::fleet::{FleetConfig, FleetSim};
use socc_sim::time::SimDuration;

use crate::trace::{Call, Tracer};
use crate::workload::{Checks, Unit, Workload};

/// A fleet-day shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetDay {
    /// Sites in the fleet.
    pub sites: usize,
    /// Simulated hours.
    pub hours: u64,
}

/// The benchmark's shape: the committed fleet-day (24 h, 120 s windows,
/// default fleet parameters) at a quarter of its 256 sites, so a run
/// repeats it often enough for a steady median.
pub const BENCH: FleetDay = FleetDay {
    sites: 64,
    hours: 24,
};

/// The committed fleet-day shape, whose digest at seed 42 is pinned in
/// the repository's fleet artifact.
pub const COMMITTED: FleetDay = FleetDay {
    sites: 256,
    hours: 24,
};

const WINDOW_SECS: u64 = 120;

/// Relative tolerance of each shard's energy-conservation check.
const CONSERVATION_REL_TOL: f64 = 1e-6;

impl FleetDay {
    fn config(&self, seed: u64) -> FleetConfig {
        FleetConfig {
            sites: self.sites,
            hours: self.hours,
            window: SimDuration::from_secs(WINDOW_SECS),
            seed,
            ..FleetConfig::default()
        }
    }
}

impl Workload for FleetDay {
    type Input = FleetSim;

    fn setup(&self, seed: u64, _tr: &mut Tracer) -> FleetSim {
        FleetSim::new(self.config(seed))
    }

    fn run(&self, mut fleet: FleetSim, tr: &mut Tracer) -> Unit {
        let mut critical_ns = 0u64;
        let started = Instant::now();
        loop {
            let planned = tr.time(Call::FleetPlan, || {
                fleet.plan_window().then(|| fleet.take_window())
            });
            let Some(mut jobs) = planned else { break };
            let mut slowest = 0;
            for job in &mut jobs {
                tr.time(Call::FleetStep, || job.step());
                slowest = slowest.max(tr.last_ns());
            }
            critical_ns += slowest;
            tr.time(Call::FleetAbsorb, || fleet.absorb(jobs));
        }
        let wall = started.elapsed().as_secs_f64();

        let mut checks = Checks::default();
        let report = fleet.report();
        checks.check(fleet.done() && report.windows == fleet.windows(), || {
            format!(
                "fleet stopped after {} of {} windows",
                report.windows,
                fleet.windows()
            )
        });
        let accounting = fleet.verify_session_accounting();
        checks.check(accounting.is_ok(), || {
            format!("session accounting: {}", accounting.clone().unwrap_err())
        });
        let (mut admitted, mut completed, mut wakeups, mut rejected) = (0, 0, 0, 0);
        let (mut recorded, mut dropped) = (fleet.events().recorded(), fleet.events().dropped());
        for site in 0..self.sites {
            let orch = fleet.shard(site).orchestrator();
            let conservation = orch.verify_energy_conservation(CONSERVATION_REL_TOL);
            checks.check(conservation.is_ok(), || {
                format!("site {site} energy conservation off by {conservation:?}")
            });
            let stats = orch.stats();
            admitted += stats.admitted;
            completed += stats.completed;
            wakeups += stats.wakeups;
            rejected += stats.rejected;
            recorded += orch.events().recorded();
            dropped += orch.events().dropped();
        }
        Unit {
            wall,
            digest: fleet.digest(),
            counters: vec![
                ("orch.admitted", admitted as f64),
                ("orch.completed", completed as f64),
                ("orch.wakeups", wakeups as f64),
                ("orch.rejected", rejected as f64),
                ("fleet.routed", report.routed as f64),
                ("fleet.migrated", report.migrated as f64),
                ("span.recorded", recorded as f64),
                ("span.dropped", dropped as f64),
            ],
            timings: vec![("fleet.step.critical_path_s", critical_ns as f64 / 1e9)],
            checks,
        }
    }

    fn pinned_digest(&self, seed: u64) -> Option<u64> {
        match (*self, seed) {
            (BENCH, 42) => Some(0x36e4_21da_830e_80e3),
            (COMMITTED, 42) => Some(0x574c_f1ac_1f8a_abf5),
            _ => None,
        }
    }
}
