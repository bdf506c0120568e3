//! Fleet-day benchmark: a 256-site day of phased Fig. 5 gaming traffic,
//! run at several worker-thread counts on the work-stealing pool.
//!
//! The benchmark proves the two properties the sharded fleet simulator
//! ([`socc_cluster::fleet`]) was built around:
//!
//! - **determinism** — the fleet's result digest is bit-identical across
//!   worker counts (conservative time-window sync makes the step phase
//!   commute);
//! - **scalability** — stepping shards in parallel actually buys
//!   wall-clock. Because CI hosts may have fewer cores than the target
//!   worker count, the artifact records both the *measured* wall-clock
//!   speedup and a *modeled* speedup derived from per-window step-time
//!   sums and maxima observed in the single-worker run: with `W` workers
//!   a window's step phase cannot finish faster than
//!   `max(total_step / W, slowest_shard)`, so
//!   `modeled(W) = Σ(coord + total) / Σ(coord + max(total/W, slowest))`
//!   is the work-stealing critical-path bound. On a host with ≥ W cores
//!   the wall-clock number is gated too; elsewhere the model is.
//!
//! Allocation discipline is measured, not assumed: the serial
//! coordination phases (plan + absorb) are sampled separately from the
//! shard steps, and their steady-state (second-half) allocations per
//! window are reported and gated. The whole single-worker loop's
//! allocations per window (`allocs_per_window`, shard steps included)
//! are gated too: the counting allocator makes them deterministic.

use std::time::{Duration, Instant};

use socc_cluster::fleet::{FleetConfig, FleetSim};
use socc_sim::time::SimDuration;

use crate::harness::JsonBuilder;
use crate::sweep::parallel_map_with;

/// Worker counts every fleet benchmark runs at; digests across all of
/// them must agree, and the last is the speedup target.
pub(crate) const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The modeled speedup the 8-worker run must reach (ISSUE 7 acceptance).
pub(crate) const MIN_SPEEDUP_8W: f64 = 4.0;

/// Steady-state serial-coordination allocations allowed per window.
/// Session stacks and command buffers hold their peak capacity after the
/// first diurnal cycle; a growing value means the barrier loop lost its
/// buffer reuse.
pub(crate) const MAX_COORD_ALLOCS_PER_WINDOW: f64 = 64.0;

/// Single-worker allocations allowed per window over the whole loop
/// (plan, every shard step, absorb). Shard steps reuse their buffers, so
/// only warm-up growth remains; a per-event allocation would cost
/// hundreds per window.
pub(crate) const MAX_ALLOCS_PER_WINDOW: f64 = 64.0;

/// Parameters of one fleet benchmark.
#[derive(Debug, Clone, Copy)]
pub struct FleetBenchOptions {
    /// Sites in the fleet.
    pub sites: usize,
    /// Simulated hours (24 = the fleet-day).
    pub hours: u64,
    /// Synchronization window, seconds.
    pub window_secs: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for FleetBenchOptions {
    fn default() -> Self {
        Self {
            sites: 256,
            hours: 24,
            window_secs: 120,
            seed: 42,
        }
    }
}

impl FleetBenchOptions {
    fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            sites: self.sites,
            hours: self.hours,
            window: SimDuration::from_secs(self.window_secs),
            seed: self.seed,
            ..FleetConfig::default()
        }
    }
}

/// Per-worker scratch threaded through the step phase: wall-clock spent
/// stepping shards and the slowest single shard step this window.
#[derive(Debug, Default, Clone, Copy)]
struct StepClock {
    busy: Duration,
    max: Duration,
}

/// One worker-count run of the fleet.
#[derive(Debug, Clone)]
pub struct FleetRunMetrics {
    /// Worker threads used for the step phase.
    pub workers: usize,
    /// Barrier windows executed.
    pub(crate) windows: usize,
    /// Wall-clock of the whole barrier loop, seconds.
    pub(crate) wall_secs: f64,
    /// Windows per second.
    pub(crate) windows_per_sec: f64,
    /// Result digest (must match across worker counts).
    pub digest_hex: String,
    /// Total heap allocations per window during the barrier loop.
    pub(crate) allocs_per_window: f64,
    /// Serial-coordination (plan + absorb) allocations per window over
    /// the second half of the run (steady state).
    pub(crate) coord_allocs_per_window: f64,
    /// Σ over windows of per-window step-time totals, seconds.
    pub(crate) step_total_secs: f64,
    /// Σ over windows of per-window slowest-shard step time, seconds.
    pub(crate) step_max_secs: f64,
    /// Σ over windows of serial coordination (plan + absorb) time,
    /// seconds.
    pub(crate) coord_secs: f64,
    /// Fleet totals (identical across worker counts when deterministic).
    pub report: socc_cluster::fleet::FleetReport,
}

/// Runs one fleet-day at `workers` step-phase threads.
///
/// `alloc_count` is the counting-allocator reading from the `bench`
/// binary (or `&|| 0` to skip allocation measurement).
pub fn run_fleet_once(
    opts: &FleetBenchOptions,
    workers: usize,
    alloc_count: &dyn Fn() -> u64,
) -> FleetRunMetrics {
    let mut fleet = FleetSim::new(opts.fleet_config());
    let windows = fleet.windows();
    let mut step_total = Duration::ZERO;
    let mut step_max = Duration::ZERO;
    let mut coord = Duration::ZERO;
    let mut coord_allocs_steady = 0u64;
    let mut steady_windows = 0u64;
    let loop_allocs_start = alloc_count();
    let started = Instant::now();
    loop {
        let coord_allocs_before = alloc_count();
        let t0 = Instant::now();
        if !fleet.plan_window() {
            coord += t0.elapsed();
            break;
        }
        let jobs = fleet.take_window();
        coord += t0.elapsed();
        let in_steady_half = fleet.windows_done() * 2 >= windows;
        let plan_allocs = alloc_count() - coord_allocs_before;

        let (jobs, clocks) = parallel_map_with(
            jobs,
            workers,
            |_| StepClock::default(),
            |clock: &mut StepClock, mut job, _| {
                let t = Instant::now();
                job.step();
                let dt = t.elapsed();
                clock.busy += dt;
                clock.max = clock.max.max(dt);
                job
            },
        );
        step_total += clocks.iter().map(|c| c.busy).sum::<Duration>();
        step_max += clocks.iter().map(|c| c.max).max().unwrap_or_default();

        let absorb_allocs_before = alloc_count();
        let t1 = Instant::now();
        fleet.absorb(jobs);
        coord += t1.elapsed();
        if in_steady_half {
            coord_allocs_steady += plan_allocs + (alloc_count() - absorb_allocs_before);
            steady_windows += 1;
        }
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let loop_allocs = alloc_count() - loop_allocs_start;
    FleetRunMetrics {
        workers,
        windows,
        wall_secs,
        windows_per_sec: windows as f64 / wall_secs,
        digest_hex: fleet.digest_hex(),
        allocs_per_window: loop_allocs as f64 / windows as f64,
        coord_allocs_per_window: coord_allocs_steady as f64 / steady_windows.max(1) as f64,
        step_total_secs: step_total.as_secs_f64(),
        step_max_secs: step_max.as_secs_f64(),
        coord_secs: coord.as_secs_f64(),
        report: fleet.report(),
    }
}

/// The full benchmark: one run per [`WORKER_COUNTS`] entry.
#[derive(Debug, Clone)]
pub(crate) struct FleetBenchReport {
    /// The options the benchmark ran with.
    pub(crate) options: FleetBenchOptions,
    /// One entry per worker count, in [`WORKER_COUNTS`] order.
    pub(crate) runs: Vec<FleetRunMetrics>,
    /// Cores available on the measuring host (wall-clock speedups are
    /// only meaningful up to this).
    pub(crate) host_cpus: usize,
}

impl FleetBenchReport {
    /// True when every run produced the same result digest.
    pub(crate) fn digests_match(&self) -> bool {
        self.runs
            .iter()
            .all(|r| r.digest_hex == self.runs[0].digest_hex)
    }

    /// The run at a worker count.
    pub(crate) fn run_at(&self, workers: usize) -> Option<&FleetRunMetrics> {
        self.runs.iter().find(|r| r.workers == workers)
    }

    /// Measured wall-clock speedup of `workers` over single-thread.
    pub(crate) fn wall_speedup(&self, workers: usize) -> f64 {
        match (self.run_at(1), self.run_at(workers)) {
            (Some(one), Some(many)) => one.wall_secs / many.wall_secs,
            _ => 0.0,
        }
    }

    /// Critical-path modeled speedup at `workers`, from the
    /// single-worker run's per-window step totals/maxima: a window's
    /// parallel step phase is bounded below by
    /// `max(total / workers, slowest shard)`, and the serial plan/absorb
    /// phases don't shrink.
    pub(crate) fn modeled_speedup(&self, workers: usize) -> f64 {
        let Some(one) = self.run_at(1) else {
            return 0.0;
        };
        let serial = one.coord_secs + one.step_total_secs;
        let parallel =
            one.coord_secs + (one.step_total_secs / workers as f64).max(one.step_max_secs);
        serial / parallel
    }
}

/// Runs the fleet benchmark at every [`WORKER_COUNTS`] entry.
pub(crate) fn run_fleet_bench(
    opts: &FleetBenchOptions,
    alloc_count: &dyn Fn() -> u64,
) -> FleetBenchReport {
    let runs = WORKER_COUNTS
        .iter()
        .map(|&w| run_fleet_once(opts, w, alloc_count))
        .collect();
    FleetBenchReport {
        options: *opts,
        runs,
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Renders the `BENCH_fleet.json` artifact.
pub(crate) fn report_json(report: &FleetBenchReport) -> String {
    let mut j = JsonBuilder::new();
    j.str("benchmark", "fleet_day");
    j.object("config", |j| {
        j.int("sites", report.options.sites as u64);
        j.int("hours", report.options.hours);
        j.int("window_secs", report.options.window_secs);
        j.int("seed", report.options.seed);
    });
    j.object("determinism", |j| {
        j.str("digest", &report.runs[0].digest_hex);
        j.bool("digests_match", report.digests_match());
    });
    j.object("runs", |j| {
        for run in &report.runs {
            j.object(&format!("w{}", run.workers), |j| {
                j.int("workers", run.workers as u64);
                j.int("windows", run.windows as u64);
                j.f64("wall_secs", run.wall_secs);
                j.f64("windows_per_sec", run.windows_per_sec);
                j.str("digest", &run.digest_hex);
                j.f64("allocs_per_window", run.allocs_per_window);
                j.f64("coord_allocs_per_window", run.coord_allocs_per_window);
                j.f64("step_total_secs", run.step_total_secs);
                j.f64("step_max_secs", run.step_max_secs);
                j.f64("coord_secs", run.coord_secs);
            });
        }
    });
    j.object("speedup", |j| {
        j.f64("wall_2w", report.wall_speedup(2));
        j.f64("wall_8w", report.wall_speedup(8));
        j.f64("modeled_2w", report.modeled_speedup(2));
        j.f64("modeled_8w", report.modeled_speedup(8));
        j.int("host_cpus", report.host_cpus as u64);
    });
    let fleet = &report.runs[0].report;
    j.object("fleet", |j| {
        j.int("routed", fleet.routed);
        j.int("rerouted", fleet.rerouted);
        j.int("finished", fleet.finished);
        j.int("stranded", fleet.stranded);
        j.int("migrated", fleet.migrated);
        j.int("migration_cancelled", fleet.migration_cancelled);
        j.int("migration_retries", fleet.migration_retries);
        j.int("partitions", fleet.partitions);
        j.int("unplaceable", fleet.unplaceable);
        j.int("rejected", fleet.rejected);
        j.f64("availability", fleet.availability());
        j.f64("fleet_kwh", fleet.fleet_kwh);
        j.f64("peak_fleet_power_w", fleet.peak_fleet_power_w);
    });
    j.finish()
}

/// Declares the fleet-day experiment (`bench --run fleet`) and its
/// gates.
pub(crate) fn experiment() -> crate::runner::Experiment {
    use crate::runner::{gate_bool, gate_num, gate_str, same_config, Experiment};
    Experiment {
        name: "fleet",
        about: "sharded 256-site fleet-day under conservative window sync at 1/2/8 workers",
        artifact: "BENCH_fleet.json",
        run: |scale, alloc_count| {
            let opts = FleetBenchOptions {
                seed: scale.seed,
                ..FleetBenchOptions::default()
            };
            report_json(&run_fleet_bench(&opts, alloc_count))
        },
        gates: |doc| {
            let mut f = Vec::new();
            if let Some(digests_match) = gate_bool(doc, "determinism", "digests_match", &mut f) {
                if !digests_match {
                    f.push(
                        "result digest differs across worker counts — \
                         conservative sync is leaking nondeterminism"
                            .to_string(),
                    );
                }
            }
            let modeled_8w = gate_num(doc, "speedup", "modeled_8w", &mut f);
            let wall_8w = gate_num(doc, "speedup", "wall_8w", &mut f);
            let host_cpus = gate_num(doc, "speedup", "host_cpus", &mut f);
            if let Some(modeled) = modeled_8w {
                if modeled < MIN_SPEEDUP_8W {
                    f.push(format!(
                        "modeled 8-worker speedup {modeled:.2}x below the {MIN_SPEEDUP_8W}x bar"
                    ));
                }
            }
            if let (Some(wall), Some(cpus)) = (wall_8w, host_cpus) {
                if cpus >= 8.0 && wall < MIN_SPEEDUP_8W {
                    f.push(format!(
                        "wall-clock 8-worker speedup {wall:.2}x below the {MIN_SPEEDUP_8W}x bar \
                         on a {cpus:.0}-core host"
                    ));
                }
            }
            if let Some(allocs) = gate_num(doc, "w1", "coord_allocs_per_window", &mut f) {
                if allocs > MAX_COORD_ALLOCS_PER_WINDOW {
                    f.push(format!(
                        "steady-state coordination allocated {allocs:.1}/window \
                         (> {MAX_COORD_ALLOCS_PER_WINDOW}) — the barrier loop lost its buffer reuse"
                    ));
                }
            }
            if let Some(allocs) = gate_num(doc, "w1", "allocs_per_window", &mut f) {
                if allocs > MAX_ALLOCS_PER_WINDOW {
                    f.push(format!(
                        "single-worker loop allocated {allocs:.1}/window \
                         (> {MAX_ALLOCS_PER_WINDOW}) — a shard step lost its buffer reuse"
                    ));
                }
            }
            f
        },
        baseline_gates: |doc, baseline| {
            let mut f = Vec::new();
            // The digest is only comparable when the baseline ran the same
            // scenario.
            if same_config(doc, baseline, &["sites", "hours", "window_secs", "seed"]) {
                if let Some(digest) = gate_str(doc, "determinism", "digest", &mut f) {
                    if !baseline.contains(&format!("\"digest\": \"{digest}\"")) {
                        f.push(format!(
                            "fleet digest {digest} differs from baseline — simulated behaviour \
                             drifted; refresh BENCH_fleet.json deliberately"
                        ));
                    }
                }
            }
            let run_wps = crate::harness::extract_num(doc, "w1", "windows_per_sec");
            let base_wps = crate::harness::extract_num(baseline, "w1", "windows_per_sec");
            if let (Some(run), Some(base)) = (run_wps, base_wps) {
                if run < 0.7 * base {
                    f.push(format!(
                        "single-thread windows/sec regressed >30%: {run:.1} vs baseline {base:.1}"
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

    fn small() -> FleetBenchOptions {
        FleetBenchOptions {
            sites: 6,
            hours: 2,
            window_secs: 120,
            seed: 9,
        }
    }

    #[test]
    fn digests_agree_across_worker_counts() {
        let report = run_fleet_bench(&small(), &|| 0);
        assert_eq!(report.runs.len(), WORKER_COUNTS.len());
        assert!(
            report.digests_match(),
            "digests {:?}",
            report
                .runs
                .iter()
                .map(|r| r.digest_hex.clone())
                .collect::<Vec<_>>()
        );
        // The fleet totals agree too, not just the digest.
        for run in &report.runs[1..] {
            assert_eq!(run.report, report.runs[0].report);
        }
    }

    #[test]
    fn modeled_speedup_is_sane() {
        let report = run_fleet_bench(&small(), &|| 0);
        let m8 = report.modeled_speedup(8);
        assert!(m8 >= 1.0, "model can't beat serial downward: {m8}");
        assert!(m8 <= 8.0 + 1e-9, "model can't exceed worker count: {m8}");
        assert!(report.modeled_speedup(2) <= m8 + 1e-9);
    }

    #[test]
    fn artifact_has_the_gated_fields() {
        let report = run_fleet_bench(&small(), &|| 0);
        let doc = report_json(&report);
        assert!(doc.contains("\"benchmark\": \"fleet_day\""));
        assert!(doc.contains("\"digests_match\": true"));
        for key in [
            "modeled_8w",
            "wall_8w",
            "host_cpus",
            "allocs_per_window",
            "coord_allocs_per_window",
        ] {
            assert!(doc.contains(&format!("\"{key}\"")), "missing {key}: {doc}");
        }
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
