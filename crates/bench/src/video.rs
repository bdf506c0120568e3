//! Live-transcoding-farm benchmark: the analytic steady-state fast path
//! vs tick-level simulation, at equal horizons over the identical
//! pre-generated schedule.
//!
//! One benchmark run executes the production-scale farm day
//! ([`socc_cluster::videofarm`]) in both [`FarmMode`]s several times,
//! keeps the fastest rep of each (min-of-N to shed scheduler noise), and
//! cross-checks the two reports: placement digests and churn counters
//! must match exactly, occupancy/quality/egress integrals to float
//! tolerance, total energy within the documented fan band. The analytic
//! mode runs under the bench binary's counting allocator and must
//! integrate every quiet span without a single heap allocation — the ≥5×
//! headline is only honest if the fast path does no hidden work.

use std::time::Instant;

use socc_cluster::videofarm::{
    generate_schedule, run_farm, FarmConfig, FarmFault, FarmMode, FarmReport, FAN_ENERGY_REL_TOL,
};

use crate::harness::JsonBuilder;

/// The analytic fast path must beat simulation by at least this factor
/// at equal horizons (ISSUE 8 acceptance).
pub(crate) const MIN_SPEEDUP: f64 = 5.0;

/// Live sessions that must be on air when the board fault strikes the
/// default production-scale day.
pub(crate) const MIN_LIVE_AT_FAULT: usize = 1_000;

/// Relative tolerance for the occupancy/quality/egress integral
/// agreement between modes (both integrate piecewise-constant sums; the
/// residual is float summation order).
pub(crate) const INTEGRAL_REL_TOL: f64 = 1e-6;

/// Ledger component names, in `FarmReport::component_energy_j` order.
const COMPONENTS: [&str; 5] = ["cpu", "codec", "gpu", "dsp", "memory"];

/// Parameters of one video-farm benchmark.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VideoOptions {
    /// SoC slots in the enclosure.
    pub(crate) socs: usize,
    /// Simulated horizon, seconds (86400 = the farm day).
    pub(crate) horizon_secs: u64,
    /// Diurnal-peak session arrival rate, per hour.
    pub(crate) peak_arrivals_per_hour: f64,
    /// Master schedule seed.
    pub(crate) seed: u64,
    /// Timed repetitions per mode (fastest wins).
    pub(crate) reps: usize,
}

impl Default for VideoOptions {
    fn default() -> Self {
        Self {
            socs: socc_hw::calib::CLUSTER_SOC_COUNT,
            horizon_secs: 86_400,
            peak_arrivals_per_hour: 500.0,
            seed: 42,
            reps: 3,
        }
    }
}

impl VideoOptions {
    /// The farm scenario: a board-down fault at 7/8 of the horizon — the
    /// 21:00 diurnal peak on the full day — repaired within 15 minutes.
    pub(crate) fn farm_config(&self) -> FarmConfig {
        let at_secs = self.horizon_secs / 8 * 7;
        FarmConfig {
            socs: self.socs,
            horizon_secs: self.horizon_secs,
            peak_arrivals_per_hour: self.peak_arrivals_per_hour,
            seed: self.seed,
            fault: Some(FarmFault {
                board: 1,
                at_secs,
                repair_secs: 900.min(self.horizon_secs / 8).max(1),
            }),
            ..FarmConfig::default()
        }
    }
}

/// Outcome of the benchmark: both mode reports plus timings.
#[derive(Debug, Clone)]
pub(crate) struct VideoBenchReport {
    /// The options the benchmark ran with.
    pub(crate) options: VideoOptions,
    /// Planned sessions in the schedule.
    pub(crate) sessions: usize,
    /// Schedule events (starts, ends, switches, board events).
    pub(crate) events: usize,
    /// Analytic-mode farm report (the committed numbers come from here).
    pub(crate) analytic: FarmReport,
    /// Simulation-mode farm report (the cross-check reference).
    pub(crate) simulation: FarmReport,
    /// Fastest analytic rep, milliseconds.
    pub(crate) analytic_ms: f64,
    /// Fastest simulation rep, milliseconds.
    pub(crate) simulation_ms: f64,
}

impl VideoBenchReport {
    /// Wall-clock speedup of the analytic fast path at equal horizons.
    pub(crate) fn speedup(&self) -> f64 {
        if self.analytic_ms <= 0.0 {
            return 0.0;
        }
        self.simulation_ms / self.analytic_ms
    }

    /// True when every exactly-reproducible field matches between modes:
    /// the placement digest and all churn/fault counters.
    pub(crate) fn exact_fields_match(&self) -> bool {
        let (a, s) = (&self.analytic, &self.simulation);
        a.digest == s.digest
            && a.admitted == s.admitted
            && a.rejected == s.rejected
            && a.completed == s.completed
            && a.abr_switches == s.abr_switches
            && a.abr_drops == s.abr_drops
            && a.migrations == s.migrations
            && a.fault_drops == s.fault_drops
            && a.peak_concurrent == s.peak_concurrent
            && a.concurrent_at_fault == s.concurrent_at_fault
            && a.hw_sessions == s.hw_sessions
            && a.cpu_sessions == s.cpu_sessions
    }

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / a.abs().max(b.abs()).max(1.0)
    }

    /// Worst relative error across the occupancy / quality / egress
    /// integrals and the per-component ledger energies.
    pub(crate) fn integral_rel_err(&self) -> f64 {
        let (a, s) = (&self.analytic, &self.simulation);
        let mut worst = Self::rel_err(a.session_secs, s.session_secs)
            .max(Self::rel_err(a.psnr_secs, s.psnr_secs))
            .max(Self::rel_err(a.egress_mbps_secs, s.egress_mbps_secs));
        for c in 0..COMPONENTS.len() {
            worst = worst.max(Self::rel_err(
                a.component_energy_j[c],
                s.component_energy_j[c],
            ));
        }
        worst
    }

    /// Relative error of the total-energy integral (fan-band tolerance).
    pub(crate) fn energy_rel_err(&self) -> f64 {
        Self::rel_err(self.analytic.energy_j, self.simulation.energy_j)
    }
}

/// Runs the benchmark: both modes over one schedule, min-of-`reps` each.
///
/// `alloc_count` is the counting-allocator reading from the `bench`
/// binary (or `&|| 0` to skip allocation measurement).
pub(crate) fn run_video(opts: &VideoOptions, alloc_count: &dyn Fn() -> u64) -> VideoBenchReport {
    let cfg = opts.farm_config();
    let schedule = generate_schedule(&cfg);
    // One untimed warm-up pays the lazy one-time costs (packet-mode
    // goodput calibration behind `TcpModel::inter_soc`, allocator warmup)
    // so neither mode's timed reps carry them.
    let _ = run_farm(&cfg, &schedule, FarmMode::Analytic, alloc_count);
    // Analytic and simulation reps alternate, so a slow phase of the host
    // lands on both modes rather than on one, and each keeps its fastest.
    let timed = |mode, best_ms: &mut f64| {
        let t0 = Instant::now();
        let report = run_farm(&cfg, &schedule, mode, alloc_count);
        *best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        report
    };
    let (mut analytic_ms, mut simulation_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut analytic, mut simulation) = (FarmReport::default(), FarmReport::default());
    for _ in 0..opts.reps.max(1) {
        analytic = timed(FarmMode::Analytic, &mut analytic_ms);
        simulation = timed(FarmMode::Simulation, &mut simulation_ms);
    }
    VideoBenchReport {
        options: *opts,
        sessions: schedule.session_count(),
        events: schedule.event_count(),
        analytic,
        simulation,
        analytic_ms,
        simulation_ms,
    }
}

/// Renders the `BENCH_video.json` artifact.
pub(crate) fn report_json(report: &VideoBenchReport) -> String {
    let opts = &report.options;
    let cfg = opts.farm_config();
    let a = &report.analytic;
    let session_hours = a.session_secs / 3600.0;
    let mut j = JsonBuilder::new();
    j.str("benchmark", "video_farm");
    j.object("config", |j| {
        j.int("socs", opts.socs as u64);
        j.int("horizon_secs", opts.horizon_secs);
        j.f64("peak_arrivals_per_hour", opts.peak_arrivals_per_hour);
        j.f64("median_session_mins", cfg.median_session_mins);
        j.f64("hw_fraction", cfg.hw_fraction);
        j.f64("abr_switch_prob", cfg.abr_switch_prob);
        j.int("seed", opts.seed);
        j.int("reps", opts.reps as u64);
        if let Some(f) = cfg.fault {
            j.int("fault_board", f.board as u64);
            j.int("fault_at_secs", f.at_secs);
            j.int("fault_repair_secs", f.repair_secs);
        }
    });
    j.object("schedule", |j| {
        j.int("sessions", report.sessions as u64);
        j.int("events", report.events as u64);
    });
    j.object("analytic", |j| {
        j.f64("elapsed_ms", report.analytic_ms);
        j.int("spans", a.spans);
        j.int("steady_allocs", a.steady_allocs);
    });
    j.object("simulation", |j| {
        j.f64("elapsed_ms", report.simulation_ms);
        j.int("ticks", report.simulation.ticks);
    });
    j.f64("speedup", report.speedup());
    j.object("agreement", |j| {
        j.bool("digest_match", a.digest == report.simulation.digest);
        j.bool("counters_match", report.exact_fields_match());
        j.raw(
            "integral_rel_err",
            &format!("{:.3e}", report.integral_rel_err()),
        );
        j.raw(
            "energy_rel_err",
            &format!("{:.3e}", report.energy_rel_err()),
        );
        j.raw("integral_tolerance", &format!("{INTEGRAL_REL_TOL:.0e}"));
        j.raw("fan_tolerance", &format!("{FAN_ENERGY_REL_TOL:.0e}"));
    });
    j.object("farm", |j| {
        j.str("digest", &format!("{:016x}", a.digest));
        j.int("admitted", a.admitted);
        j.int("rejected", a.rejected);
        j.int("completed", a.completed);
        j.int("abr_switches", a.abr_switches);
        j.int("abr_drops", a.abr_drops);
        j.int("hw_sessions", a.hw_sessions);
        j.int("cpu_sessions", a.cpu_sessions);
        j.int("peak_concurrent", a.peak_concurrent as u64);
        j.int("concurrent_at_fault", a.concurrent_at_fault as u64);
        j.f64("session_hours", session_hours);
        j.f64("mean_psnr_db", a.mean_psnr_db());
        j.f64(
            "mean_egress_mbps",
            a.egress_mbps_secs / opts.horizon_secs as f64,
        );
    });
    j.object("energy", |j| {
        j.f64("total_j", a.energy_j);
        j.f64("chassis_j", a.chassis_energy_j);
        for (c, name) in COMPONENTS.iter().enumerate() {
            j.f64(&format!("{name}_j"), a.component_energy_j[c]);
        }
        j.f64("per_session_hour_j", a.energy_per_session_hour_j());
        for (c, name) in COMPONENTS.iter().enumerate() {
            j.f64(
                &format!("{name}_per_session_hour_j"),
                if session_hours > 0.0 {
                    a.component_energy_j[c] / session_hours
                } else {
                    0.0
                },
            );
        }
    });
    j.object("migration", |j| {
        j.int("migrations", a.migrations);
        j.int("fault_drops", a.fault_drops);
        j.f64("mttr_mean_ms", a.mttr_mean_ms());
        j.f64("mttr_max_ms", a.mttr_max_ms);
        j.f64("checkpoint_mb", a.checkpoint_bytes / 1e6);
        j.f64("downtime_secs", a.downtime_secs);
    });
    j.finish()
}

/// Declares the live-transcoding-farm experiment (`bench --run video`)
/// and its gates. It times 5 repetitions per mode, not the options'
/// default 3.
pub(crate) fn experiment() -> crate::runner::Experiment {
    use crate::runner::{gate_bool, gate_num, gate_str, same_config, Experiment};
    Experiment {
        name: "video",
        about: "analytic farm-day fast path vs tick simulation with a peak board fault",
        artifact: "BENCH_video.json",
        run: |scale, alloc_count| {
            let opts = VideoOptions {
                seed: scale.seed,
                reps: 5,
                ..VideoOptions::default()
            };
            report_json(&run_video(&opts, alloc_count))
        },
        gates: |doc| {
            let mut f = Vec::new();
            if let Some(speedup) = gate_num(doc, "video_farm", "speedup", &mut f) {
                if speedup < MIN_SPEEDUP {
                    f.push(format!(
                        "analytic fast path no longer ≥{MIN_SPEEDUP}× over simulation \
                         (speedup {speedup:.2})"
                    ));
                }
            }
            if let Some(allocs) = gate_num(doc, "analytic", "steady_allocs", &mut f) {
                if allocs != 0.0 {
                    f.push(format!("analytic quiet spans allocated {allocs:.0} times"));
                }
            }
            let digest_match = gate_bool(doc, "agreement", "digest_match", &mut f);
            let counters_match = gate_bool(doc, "agreement", "counters_match", &mut f);
            let integral_err = gate_num(doc, "agreement", "integral_rel_err", &mut f);
            let energy_err = gate_num(doc, "agreement", "energy_rel_err", &mut f);
            let agree = digest_match == Some(true)
                && counters_match == Some(true)
                && integral_err.is_some_and(|e| e <= INTEGRAL_REL_TOL)
                && energy_err.is_some_and(|e| e <= FAN_ENERGY_REL_TOL);
            if !agree {
                f.push(format!(
                    "analytic and simulation modes disagree (digest match: {digest_match:?}, \
                     counters match: {counters_match:?}, integral err {integral_err:?}, \
                     energy err {energy_err:?})"
                ));
            }
            if let Some(migrations) = gate_num(doc, "migration", "migrations", &mut f) {
                if migrations == 0.0 {
                    f.push("board fault migrated no live sessions".to_string());
                }
            }
            let horizon = gate_num(doc, "config", "horizon_secs", &mut f);
            let at_fault = gate_num(doc, "farm", "concurrent_at_fault", &mut f);
            if let (Some(horizon), Some(at_fault)) = (horizon, at_fault) {
                if horizon >= 86_400.0 && (at_fault as usize) < MIN_LIVE_AT_FAULT {
                    f.push(format!(
                        "fault struck only {at_fault:.0} live sessions (< {MIN_LIVE_AT_FAULT}) \
                         on the full day"
                    ));
                }
            }
            f
        },
        baseline_gates: |doc, baseline| {
            let mut f = Vec::new();
            if !same_config(
                doc,
                baseline,
                &["socs", "horizon_secs", "peak_arrivals_per_hour", "seed"],
            ) {
                return f;
            }
            if let Some(digest) = gate_str(doc, "farm", "digest", &mut f) {
                if !baseline.contains(&format!("\"digest\": \"{digest}\"")) {
                    f.push(format!(
                        "farm digest {digest} differs from baseline — placement behaviour \
                         drifted; refresh BENCH_video.json deliberately"
                    ));
                }
            }
            let run_e = gate_num(doc, "energy", "per_session_hour_j", &mut f);
            let base_e = gate_num(baseline, "energy", "per_session_hour_j", &mut f);
            if let (Some(run), Some(base)) = (run_e, base_e) {
                if (run - base).abs() > 1e-3 + 1e-6 * base.abs() {
                    f.push(format!(
                        "per-session energy drifted: {run:.3} J/session-hour vs baseline \
                         {base:.3} — the power model changed; refresh BENCH_video.json deliberately"
                    ));
                }
            }
            let run_ms = crate::harness::extract_num(doc, "analytic", "elapsed_ms");
            let base_ms = crate::harness::extract_num(baseline, "analytic", "elapsed_ms");
            if let (Some(run), Some(base)) = (run_ms, base_ms) {
                if run > 1.3 * base {
                    f.push(format!(
                        "analytic farm-day regressed >30%: {run:.1} ms vs baseline {base:.1} ms"
                    ));
                }
            }
            f
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> VideoOptions {
        // Enough arrivals that BinPack overflows board 0 and the board-1
        // fault finds victims even on a two-hour reduced horizon.
        VideoOptions {
            socs: 15,
            horizon_secs: 2 * 3600,
            peak_arrivals_per_hour: 300.0,
            seed: 5,
            reps: 1,
        }
    }

    #[test]
    fn modes_agree_and_artifact_is_well_formed() {
        let report = run_video(&small(), &|| 0);
        assert!(report.sessions > 0 && report.events > 0);
        assert!(
            report.exact_fields_match()
                && report.integral_rel_err() <= INTEGRAL_REL_TOL
                && report.energy_rel_err() <= FAN_ENERGY_REL_TOL,
            "{report:?}"
        );
        assert!(report.analytic.migrations + report.analytic.fault_drops > 0);
        let doc = report_json(&report);
        assert!(doc.contains("\"benchmark\": \"video_farm\""));
        for key in [
            "speedup",
            "digest_match",
            "steady_allocs",
            "per_session_hour_j",
            "codec_per_session_hour_j",
            "mttr_mean_ms",
            "concurrent_at_fault",
        ] {
            assert!(doc.contains(&format!("\"{key}\"")), "missing {key}: {doc}");
        }
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn fault_lands_inside_every_horizon() {
        for horizon in [3_600, 7_200, 86_400] {
            let opts = VideoOptions {
                horizon_secs: horizon,
                ..small()
            };
            let f = opts.farm_config().fault.unwrap();
            assert!(f.at_secs < horizon);
            assert!(f.at_secs + f.repair_secs <= horizon);
            assert!(f.repair_secs >= 1);
        }
    }
}
