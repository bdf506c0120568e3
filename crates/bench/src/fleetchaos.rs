//! Fleet-level chaos campaigns: site-tier faults over the sharded fleet
//! simulator, with live inter-site migration under the microscope.
//!
//! Each campaign builds a fleet whose per-site session capacity sits
//! deliberately close to the diurnal demand envelope, then injects one
//! *correlated* site-tier schedule — a regional WAN partition storm, a
//! full-site blackout, and a rail brownout all striking at the same sync
//! window — and an *independent twin* that re-spreads the same fault
//! volume (every storm site as a lone partition of equal length, the
//! blackout and brownout at re-drawn windows) across the run. The pair
//! isolates the cost of correlation one tier above [`crate::chaos`]: a
//! regional storm displaces several sites' sessions into the fleet's
//! *instantaneous* headroom at once, where the same sites partitioned one
//! at a time are absorbed by headroom that has time to recover.
//!
//! Invariants checked after **every** barrier window, on every run:
//!
//! 1. session accounting stays closed fleet-wide
//!    (`routed = finished + live + rejected + in-flight`, migration flows
//!    balance per site — [`FleetSim::verify_session_accounting`]);
//! 2. a blacked-out site's power sits at its chassis floor (the energy
//!    ledger flatlines, it does not coast at the pre-fault level);
//!
//! and at end of run:
//!
//! 3. per-site energy conservation (meter vs component ledger) and the
//!    fleet total equal to the sum of per-site ledgers;
//! 4. every displaced session drained: migrations landed or cancelled,
//!    no orphaned instances, no pending heals;
//! 5. availability above the campaign floor;
//! 6. no site orchestrator silently dropped a workload.
//!
//! The correlated side runs once per `WORKER_COUNTS` entry and the
//! fleet digests must be bit-identical — chaos must not cost the
//! conservative-sync determinism the fleet simulator is built on. A
//! violating campaign is shrunk to a minimal fault schedule by the
//! shared greedy shrinker (`crate::campaign`), against exactly the
//! checks the sweep applied to the violating side, and reported with a
//! `--run fleetchaos --seed N --step K` repro line. Equal seeds give
//! byte-identical replays.

use std::time::Instant;

use crate::campaign::{self, Violation};
use crate::harness::{mix_seed, JsonBuilder};
use crate::sweep::parallel_map_with;

use socc_cluster::evacuation::EvacuationPacing;
use socc_cluster::faults::{SiteFault, SiteFaultEvent};
use socc_cluster::fleet::{gaming_checkpoint, FleetConfig, FleetReport, FleetSim};
use socc_net::wan::WanFabric;
use socc_sim::rng::SimRng;
use socc_sim::time::SimDuration;
use socc_sim::units::DataRate;

/// Worker counts the correlated side of every campaign runs at; the
/// fleet digest must be bit-identical across all of them.
pub(crate) const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Fraction of fault-displaced sessions that must complete a live
/// inter-site migration over the sweep (the rest may only be cancelled
/// by their own users leaving — never lost).
pub(crate) const MIN_LIVE_MIGRATION_RATE: f64 = 0.90;

/// A dark site's instantaneous power may exceed its chassis floor by at
/// most this factor (the fan spins down over minutes, not instantly).
pub(crate) const DARK_POWER_SLACK: f64 = 1.05;

/// Storm durations in windows, swept by campaign index.
const STORM_WINDOWS: [usize; 3] = [2, 4, 8];
/// Blackout durations in windows, swept on a coarser stride.
const BLACKOUT_WINDOWS: [usize; 3] = [1, 2, 4];
/// Brownout durations in windows, swept on the coarsest stride.
const BROWNOUT_WINDOWS: [usize; 2] = [3, 6];

/// Per-site session capacity the campaigns run at. Deliberately close to
/// the peak of the phased demand envelope: a regional storm's burst of
/// displaced sessions must compete for real headroom, which is where the
/// correlated/independent gap lives.
const SESSION_CAPACITY: usize = 150;

/// Migration lane the campaigns reserve out of each site's WAN uplink —
/// narrow enough that a whole-site evacuation drains in waves.
const MIGRATION_LANE_MBPS: f64 = 200.0;

/// Concurrent checkpoint transfers per displaced site.
const MIGRATION_STREAMS: usize = 4;

/// Campaign-sweep parameters.
#[derive(Debug, Clone)]
pub struct FleetChaosOptions {
    /// Number of campaign *pairs* (each runs correlated + independent).
    pub campaigns: usize,
    /// Master seed; campaign `k` derives its own seed from it.
    pub seed: u64,
    /// Sites in each campaign fleet.
    pub sites: usize,
    /// WAN regions (the storm blast radius is one region block).
    pub regions: usize,
    /// Simulated hours per campaign.
    pub hours: u64,
    /// Synchronization window, seconds.
    pub window_secs: u64,
    /// Post-run availability must not fall below this.
    pub availability_floor: f64,
}

impl Default for FleetChaosOptions {
    fn default() -> Self {
        Self {
            campaigns: 64,
            seed: 42,
            sites: 12,
            regions: 4,
            hours: 4,
            window_secs: 120,
            availability_floor: 0.80,
        }
    }
}

impl FleetChaosOptions {
    /// Barrier windows per campaign run.
    pub(crate) fn windows(&self) -> usize {
        (self.hours * 3600 / self.window_secs) as usize
    }

    /// The fleet every campaign run of pair `k` is built from.
    pub(crate) fn fleet_config(&self, k: usize) -> FleetConfig {
        FleetConfig {
            sites: self.sites,
            regions: self.regions,
            hours: self.hours,
            window: SimDuration::from_secs(self.window_secs),
            seed: mix_seed(self.seed, k),
            session_capacity: SESSION_CAPACITY,
            // Site-tier chaos owns the fault plane: the fleet's seeded
            // WAN partitions are off so the twin comparison is clean.
            mean_partitions: 0.0,
            migration: EvacuationPacing {
                max_concurrent: MIGRATION_STREAMS,
                state_size: gaming_checkpoint(10.0),
                bottleneck: DataRate::mbps(MIGRATION_LANE_MBPS),
            },
            ..FleetConfig::default()
        }
    }
}

/// Draws campaign `k`'s correlated schedule and its independent twin.
///
/// Correlated: a regional storm, a blackout outside the storm region and
/// a brownout at a third site, all at the same window. Independent: the
/// same fault volume — each storm site as a single-site partition of the
/// same duration, blackout and brownout unchanged — at windows re-drawn
/// independently over the same injection range.
pub(crate) fn campaign_schedules(
    opts: &FleetChaosOptions,
    k: usize,
) -> (Vec<SiteFaultEvent>, Vec<SiteFaultEvent>) {
    let windows = opts.windows();
    // Faults land in the first ~five-eighths of the run so every
    // migration has windows left to drain before the books close.
    let (lo, hi) = (windows / 8, windows * 5 / 8);
    let wan = WanFabric::edge_fleet_regions(opts.sites, opts.regions);
    let mut rng = SimRng::seed(mix_seed(opts.seed, k)).split("fleetchaos-schedule");

    let storm_at = rng.uniform_usize(lo, hi);
    let region = rng.uniform_usize(0, opts.regions);
    let block: Vec<usize> = wan.sites_of_region(region).collect();
    let outside: Vec<usize> = (0..opts.sites).filter(|s| !block.contains(s)).collect();
    let blackout_site = outside[rng.uniform_usize(0, outside.len())];
    let brownout_site = {
        let rest: Vec<usize> = outside
            .iter()
            .copied()
            .filter(|&s| s != blackout_site)
            .collect();
        rest[rng.uniform_usize(0, rest.len())]
    };
    let storm_dur = STORM_WINDOWS[k % STORM_WINDOWS.len()];
    let blackout_dur = BLACKOUT_WINDOWS[(k / 3) % BLACKOUT_WINDOWS.len()];
    let brownout_dur = BROWNOUT_WINDOWS[(k / 9) % BROWNOUT_WINDOWS.len()];

    let correlated = vec![
        SiteFaultEvent {
            window: storm_at,
            fault: SiteFault::RegionStorm {
                region,
                windows: storm_dur,
            },
        },
        SiteFaultEvent {
            window: storm_at,
            fault: SiteFault::Blackout {
                site: blackout_site,
                windows: blackout_dur,
            },
        },
        SiteFaultEvent {
            window: storm_at,
            fault: SiteFault::Brownout {
                site: brownout_site,
                windows: brownout_dur,
            },
        },
    ];

    let mut spread = SimRng::seed(mix_seed(opts.seed, k)).split("fleetchaos-spread");
    let mut independent: Vec<SiteFaultEvent> = block
        .iter()
        .map(|&site| SiteFaultEvent {
            window: spread.uniform_usize(lo, hi),
            fault: SiteFault::Partition {
                site,
                windows: storm_dur,
            },
        })
        .collect();
    independent.push(SiteFaultEvent {
        window: spread.uniform_usize(lo, hi),
        fault: SiteFault::Blackout {
            site: blackout_site,
            windows: blackout_dur,
        },
    });
    independent.push(SiteFaultEvent {
        window: spread.uniform_usize(lo, hi),
        fault: SiteFault::Brownout {
            site: brownout_site,
            windows: brownout_dur,
        },
    });
    independent.sort_by_key(|e| (e.window, e.fault.order()));
    (correlated, independent)
}

/// One fleet run of a campaign side.
#[derive(Debug, Clone)]
pub(crate) struct CampaignRun {
    /// Fleet result digest.
    pub(crate) digest: u64,
    /// Digest as hex (what the artifact and repro text show).
    pub(crate) digest_hex: String,
    /// Fleet totals.
    pub(crate) report: FleetReport,
    /// Invariant violations, empty on a clean run.
    pub(crate) violations: Vec<String>,
}

/// Runs one side of a campaign at `workers` step threads, checking the
/// per-window and end-of-run invariants.
pub(crate) fn run_side(
    cfg: FleetConfig,
    schedule: &[SiteFaultEvent],
    workers: usize,
    availability_floor: f64,
) -> CampaignRun {
    let mut fleet = FleetSim::with_site_faults(cfg, schedule.to_vec());
    let mut violations = Vec::new();
    while fleet.plan_window() {
        let jobs = fleet.take_window();
        let (jobs, _) = parallel_map_with(
            jobs,
            workers,
            |_| (),
            |_, mut job, _| {
                job.step();
                job
            },
        );
        fleet.absorb(jobs);
        let w = fleet.windows_done() - 1;
        if let Err(e) = fleet.verify_session_accounting() {
            violations.push(format!("window {w}: {e}"));
        }
        for site in 0..cfg.sites {
            if !fleet.is_dark(site) {
                continue;
            }
            let orch = fleet.shard(site).orchestrator();
            let power = orch.power().as_watts();
            let floor = orch.cluster().chassis_power().as_watts();
            if power > floor * DARK_POWER_SLACK {
                violations.push(format!(
                    "window {w}: dark site {site} draws {power:.1} W \
                     (chassis floor {floor:.1} W) — the blackout ledger is leaking"
                ));
            }
        }
        if violations.len() >= 8 {
            break; // a broken run repeats itself; keep the report short
        }
    }
    let report = fleet.report();
    if fleet.done() {
        if report.in_flight != 0 {
            violations.push(format!(
                "{} migrations still in flight at end of run",
                report.in_flight
            ));
        }
        if fleet.orphaned_instances() != 0 {
            violations.push(format!(
                "{} orphaned instances never reaped",
                fleet.orphaned_instances()
            ));
        }
        if fleet.pending_heals() != 0 {
            violations.push(format!("{} heals never fired", fleet.pending_heals()));
        }
        let availability = report.availability();
        if availability + 1e-12 < availability_floor {
            violations.push(format!(
                "availability {availability:.4} below floor {availability_floor:.2}"
            ));
        }
        let mut ledger_kwh = 0.0;
        for site in 0..cfg.sites {
            let orch = fleet.shard(site).orchestrator();
            if let Err(err) = orch.verify_energy_conservation(1e-6) {
                violations.push(format!(
                    "site {site} energy conservation off by {err:.2e} relative"
                ));
            }
            if orch.stats().dropped != 0 {
                violations.push(format!(
                    "site {site} silently dropped {} workloads",
                    orch.stats().dropped
                ));
            }
            ledger_kwh += orch.energy().as_joules() / 3.6e6;
        }
        let fleet_err = (report.fleet_kwh - ledger_kwh).abs() / ledger_kwh.max(1e-12);
        if fleet_err > 1e-9 {
            violations.push(format!(
                "fleet energy {:.6} kWh != sum of site ledgers {ledger_kwh:.6} kWh",
                report.fleet_kwh
            ));
        }
    }
    CampaignRun {
        digest: fleet.digest(),
        digest_hex: fleet.digest_hex(),
        report,
        violations,
    }
}

/// Outcome of one campaign pair.
#[derive(Debug, Clone)]
pub(crate) struct PairOutcome {
    /// Campaign index (the `--step` argument).
    pub(crate) index: usize,
    /// Correlated run (workers = 1; the other worker counts must agree
    /// bit for bit).
    pub(crate) correlated: CampaignRun,
    /// Independent twin (workers = 1).
    pub(crate) independent: CampaignRun,
    /// Correlated digests at every `WORKER_COUNTS` entry.
    pub(crate) worker_digests: Vec<String>,
    /// Violations across the pair, correlated side first, each with its
    /// side (`true` for the correlated one).
    pub(crate) violations: Vec<(bool, String)>,
}

impl PairOutcome {
    /// True when every worker-count run produced the same digest.
    pub(crate) fn digests_match(&self) -> bool {
        self.worker_digests
            .iter()
            .all(|d| *d == self.worker_digests[0])
    }
}

/// Runs campaign pair `k`: the correlated side at every worker count,
/// the independent twin once.
pub(crate) fn run_campaign(opts: &FleetChaosOptions, k: usize) -> PairOutcome {
    let (corr_schedule, ind_schedule) = campaign_schedules(opts, k);
    let cfg = opts.fleet_config(k);
    let mut worker_runs: Vec<CampaignRun> = WORKER_COUNTS
        .iter()
        .map(|&w| run_side(cfg, &corr_schedule, w, opts.availability_floor))
        .collect();
    let independent = run_side(cfg, &ind_schedule, 1, opts.availability_floor);

    let worker_digests: Vec<String> = worker_runs.iter().map(|r| r.digest_hex.clone()).collect();
    let mut violations = Vec::new();
    if worker_digests.iter().any(|d| *d != worker_digests[0]) {
        violations.push((
            true,
            format!(
                "digest differs across worker counts {WORKER_COUNTS:?}: \
                 {worker_digests:?} — chaos broke conservative-sync determinism"
            ),
        ));
    }
    let correlated = worker_runs.swap_remove(0);
    violations.extend(correlated.violations.iter().map(|v| (true, v.clone())));
    violations.extend(independent.violations.iter().map(|v| (false, v.clone())));
    PairOutcome {
        index: k,
        correlated,
        independent,
        worker_digests,
        violations,
    }
}

/// The shrink predicate: exactly the checks the sweep applies to one
/// side of pair `k` — the 1-worker run's invariants, and on the
/// correlated side equal digests at every `WORKER_COUNTS` entry.
fn side_violates(
    opts: &FleetChaosOptions,
    k: usize,
    correlated: bool,
    schedule: &[SiteFaultEvent],
) -> bool {
    let cfg = opts.fleet_config(k);
    let run = |workers| run_side(cfg, schedule, workers, opts.availability_floor);
    let first = run(WORKER_COUNTS[0]);
    !first.violations.is_empty()
        || (correlated
            && WORKER_COUNTS[1..]
                .iter()
                .any(|&w| run(w).digest != first.digest))
}

/// Aggregated result of a fleet-chaos sweep.
#[derive(Debug, Clone)]
pub(crate) struct FleetChaosReport {
    /// Options the sweep ran with.
    pub(crate) options: FleetChaosOptions,
    /// Every campaign pair.
    pub(crate) outcomes: Vec<PairOutcome>,
    /// Shrunk violations (empty on a clean sweep).
    pub(crate) violations: Vec<Violation>,
    /// Mean availability across correlated campaigns.
    pub(crate) correlated_mean: f64,
    /// Worst correlated campaign.
    pub(crate) correlated_min: f64,
    /// Mean availability across independent twins.
    pub(crate) independent_mean: f64,
    /// Worst independent twin.
    pub(crate) independent_min: f64,
    /// Sessions displaced by site faults, summed over every run.
    pub(crate) stranded: u64,
    /// Displaced sessions that completed a live migration.
    pub(crate) migrated: u64,
    /// Displaced sessions whose users left mid-transfer.
    pub(crate) migration_cancelled: u64,
    /// Migration placements deferred a window.
    pub(crate) migration_retries: u64,
    /// FNV fold of every correlated digest, hex — the sweep's identity
    /// for `--check`.
    pub(crate) digest_hex: String,
    /// Wall-clock seconds for the sweep.
    pub(crate) elapsed_secs: f64,
    /// Fleet runs per wall-clock second.
    pub(crate) runs_per_sec: f64,
}

impl FleetChaosReport {
    /// Fraction of displaced sessions that completed a live migration,
    /// of those whose users did not leave mid-transfer.
    pub(crate) fn live_migration_rate(&self) -> f64 {
        if self.stranded == 0 {
            return 1.0;
        }
        self.migrated as f64 / self.stranded as f64
    }
}

/// Runs the full sweep: `campaigns` pairs, shrink on every violation.
pub(crate) fn run_fleet_chaos(opts: &FleetChaosOptions) -> FleetChaosReport {
    let started = Instant::now();
    let outcomes: Vec<PairOutcome> = (0..opts.campaigns).map(|k| run_campaign(opts, k)).collect();

    let mut violations = Vec::new();
    for o in &outcomes {
        let Some((correlated, detail)) = o.violations.first().cloned() else {
            continue;
        };
        let (corr, ind) = campaign_schedules(opts, o.index);
        let side = if correlated { corr } else { ind };
        let minimal = campaign::shrink(&side, |s| side_violates(opts, o.index, correlated, s));
        violations.push(Violation::new(
            "fleetchaos",
            opts.seed,
            o.index,
            correlated,
            detail,
            minimal.len(),
        ));
    }

    let stats = |f: fn(&PairOutcome) -> f64| campaign::mean_min(outcomes.iter().map(f));
    let (correlated_mean, correlated_min) = stats(|o| o.correlated.report.availability());
    let (independent_mean, independent_min) = stats(|o| o.independent.report.availability());
    let sum = |f: fn(&FleetReport) -> u64| {
        outcomes
            .iter()
            .map(|o| f(&o.correlated.report) + f(&o.independent.report))
            .sum::<u64>()
    };

    // FNV-1a over the correlated digests: the sweep's identity.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for o in &outcomes {
        for b in o.correlated.digest.to_le_bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    let elapsed_secs = started.elapsed().as_secs_f64();
    let runs = opts.campaigns * (WORKER_COUNTS.len() + 1);
    FleetChaosReport {
        options: opts.clone(),
        violations,
        correlated_mean,
        correlated_min,
        independent_mean,
        independent_min,
        stranded: sum(|r| r.stranded),
        migrated: sum(|r| r.migrated),
        migration_cancelled: sum(|r| r.migration_cancelled),
        migration_retries: sum(|r| r.migration_retries),
        digest_hex: format!("{digest:016x}"),
        elapsed_secs,
        runs_per_sec: runs as f64 / elapsed_secs.max(1e-9),
        outcomes,
    }
}

/// Renders one side of a pair as deterministic text (no wall-clock).
fn render_run(label: &str, run: &CampaignRun) -> String {
    use std::fmt::Write as _;
    let r = &run.report;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {label}: availability {:.6}, digest {}",
        r.availability(),
        run.digest_hex
    );
    let _ = writeln!(
        s,
        "    routed {} finished {} rejected {} unplaceable {}",
        r.routed, r.finished, r.rejected, r.unplaceable
    );
    let _ = writeln!(
        s,
        "    stranded {} migrated {} cancelled {} retries {} killed {} zombies {}",
        r.stranded,
        r.migrated,
        r.migration_cancelled,
        r.migration_retries,
        r.killed,
        r.zombies_reaped
    );
    let _ = writeln!(
        s,
        "    partitions {} storms {} blackouts {} brownouts {}",
        r.partitions, r.storms, r.blackouts, r.brownouts
    );
    if run.violations.is_empty() {
        let _ = writeln!(s, "    invariants: ok");
    } else {
        for v in &run.violations {
            let _ = writeln!(s, "    VIOLATION: {v}");
        }
    }
    s
}

/// Replays campaign pair `k` and renders the outcome. Pure function of
/// `(opts, k)` — two calls give byte-identical strings, which is what
/// makes `--run fleetchaos --seed N --step K` a real repro.
pub fn replay(opts: &FleetChaosOptions, k: usize) -> String {
    use std::fmt::Write as _;
    let (corr_schedule, ind_schedule) = campaign_schedules(opts, k);
    let pair = run_campaign(opts, k);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "campaign {k}: correlated {} events, independent {} events",
        corr_schedule.len(),
        ind_schedule.len()
    );
    for e in &corr_schedule {
        let _ = writeln!(s, "  corr w{}: {:?}", e.window, e.fault);
    }
    let _ = writeln!(
        s,
        "  worker digests {:?}: {}",
        WORKER_COUNTS,
        if pair.digests_match() {
            "identical"
        } else {
            "MISMATCH"
        }
    );
    s.push_str(&render_run("correlated", &pair.correlated));
    s.push_str(&render_run("independent", &pair.independent));
    s
}

/// Renders the `BENCH_fleetchaos.json` artifact.
pub(crate) fn report_json(r: &FleetChaosReport) -> String {
    let o = &r.options;
    let all_match = r.outcomes.iter().all(|p| p.digests_match());
    let sum = |f: fn(&FleetReport) -> u64| {
        r.outcomes
            .iter()
            .map(|p| f(&p.correlated.report) + f(&p.independent.report))
            .sum::<u64>()
    };
    let mut j = JsonBuilder::new();
    j.str("benchmark", "fleet_chaos");
    j.object("config", |j| {
        j.int("campaigns", o.campaigns as u64)
            .int("seed", o.seed)
            .int("sites", o.sites as u64)
            .int("regions", o.regions as u64)
            .int("hours", o.hours)
            .int("window_secs", o.window_secs)
            .f64("availability_floor", o.availability_floor)
            .int("session_capacity", SESSION_CAPACITY as u64)
            .f64("migration_lane_mbps", MIGRATION_LANE_MBPS)
            .int("migration_streams", MIGRATION_STREAMS as u64);
    });
    j.f64("elapsed_secs", r.elapsed_secs)
        .f64("runs_per_sec", r.runs_per_sec)
        .int("invariant_violations", r.violations.len() as u64);
    j.object("determinism", |j| {
        j.str("digest", &r.digest_hex)
            .bool("digests_match_all_worker_counts", all_match);
    });
    j.object("availability", |j| {
        j.f64("independent_mean", r.independent_mean)
            .f64("independent_min", r.independent_min)
            .f64("correlated_mean", r.correlated_mean)
            .f64("correlated_min", r.correlated_min)
            .f64("correlation_gap", r.independent_mean - r.correlated_mean);
    });
    j.object("migration", |j| {
        j.int("stranded", r.stranded)
            .int("migrated", r.migrated)
            .int("cancelled", r.migration_cancelled)
            .int("retries", r.migration_retries)
            .f64("live_migration_rate", r.live_migration_rate());
    });
    j.object("faults", |j| {
        j.int("partitions", sum(|f| f.partitions))
            .int("storms", sum(|f| f.storms))
            .int("blackouts", sum(|f| f.blackouts))
            .int("brownouts", sum(|f| f.brownouts));
    });
    j.object("sessions", |j| {
        j.int("routed", sum(|f| f.routed))
            .int("rerouted", sum(|f| f.rerouted))
            .int("finished", sum(|f| f.finished))
            .int("rejected", sum(|f| f.rejected))
            .int("unplaceable", sum(|f| f.unplaceable))
            .int("killed", sum(|f| f.killed))
            .int("zombies_reaped", sum(|f| f.zombies_reaped));
    });
    let viols: Vec<String> = r.violations.iter().map(Violation::json_item).collect();
    j.list("violations", &viols);
    j.finish()
}

/// Declares the fleet-chaos experiment (`bench --run fleetchaos`) and
/// its gates. The smoke tier drops from 64 to 12 campaign pairs.
pub(crate) fn experiment() -> crate::runner::Experiment {
    use crate::runner::{gate_bool, gate_num, gate_str, same_config, Experiment};
    Experiment {
        name: "fleetchaos",
        about: "correlated vs independent site-tier campaigns with live inter-site migration",
        artifact: "BENCH_fleetchaos.json",
        run: |scale, _alloc_count| {
            let full = FleetChaosOptions::default();
            let report = run_fleet_chaos(&FleetChaosOptions {
                campaigns: scale
                    .campaigns
                    .unwrap_or(if scale.smoke { 12 } else { full.campaigns }),
                seed: scale.seed,
                ..full
            });
            report_json(&report)
        },
        gates: |doc| {
            let mut f = campaign::gates(doc);
            if let Some(digests_match) = gate_bool(
                doc,
                "determinism",
                "digests_match_all_worker_counts",
                &mut f,
            ) {
                if !digests_match {
                    f.push(
                        "campaign digests differ across worker counts — \
                         conservative sync is leaking nondeterminism"
                            .to_string(),
                    );
                }
            }
            if let Some(rate) = gate_num(doc, "migration", "live_migration_rate", &mut f) {
                if rate < MIN_LIVE_MIGRATION_RATE {
                    f.push(format!(
                        "only {:.1}% of displaced sessions live-migrated (< {:.0}%)",
                        rate * 100.0,
                        MIN_LIVE_MIGRATION_RATE * 100.0
                    ));
                }
            }
            f
        },
        baseline_gates: |doc, baseline| {
            let mut f = Vec::new();
            if same_config(
                doc,
                baseline,
                &[
                    "campaigns",
                    "seed",
                    "sites",
                    "regions",
                    "hours",
                    "window_secs",
                ],
            ) {
                if let Some(digest) = gate_str(doc, "determinism", "digest", &mut f) {
                    if !baseline.contains(&format!("\"digest\": \"{digest}\"")) {
                        f.push(format!(
                            "fleet-chaos sweep digest {digest} differs from baseline — simulated \
                             behaviour drifted; refresh BENCH_fleetchaos.json deliberately"
                        ));
                    }
                }
            }
            f
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetChaosOptions {
        FleetChaosOptions {
            campaigns: 2,
            seed: 42,
            sites: 8,
            regions: 4,
            hours: 2,
            window_secs: 120,
            availability_floor: 0.80,
        }
    }

    #[test]
    fn schedules_carry_equal_fault_volume() {
        let opts = small();
        let wan = WanFabric::edge_fleet_regions(opts.sites, opts.regions);
        for k in 0..18 {
            let (corr, ind) = campaign_schedules(&opts, k);
            assert_eq!(corr.len(), 3, "storm + blackout + brownout");
            // Every correlated event fires at the same window.
            assert!(corr.iter().all(|e| e.window == corr[0].window));
            // The twin re-spreads the storm as per-site partitions of the
            // same duration: fault·site·window volume is conserved.
            let corr_volume: usize = corr
                .iter()
                .map(|e| match e.fault {
                    SiteFault::RegionStorm { region, windows } => {
                        wan.sites_of_region(region).len() * windows
                    }
                    f => f.windows(),
                })
                .sum();
            let ind_volume: usize = ind.iter().map(|e| e.fault.windows()).sum();
            assert_eq!(corr_volume, ind_volume, "campaign {k}");
            // Injection stays inside the drain margin.
            let hi = opts.windows() * 5 / 8;
            for e in corr.iter().chain(&ind) {
                assert!(e.window < hi, "campaign {k}: fault at {}", e.window);
            }
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let opts = small();
        let a = run_campaign(&opts, 1);
        let b = run_campaign(&opts, 1);
        assert_eq!(a.correlated.digest_hex, b.correlated.digest_hex);
        assert_eq!(a.independent.digest_hex, b.independent.digest_hex);
        assert_eq!(a.violations, b.violations);
        assert_eq!(replay(&opts, 0), replay(&opts, 0));
    }

    #[test]
    fn clean_sweep_has_no_violations_and_matching_digests() {
        let report = run_fleet_chaos(&small());
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        for o in &report.outcomes {
            assert!(
                o.digests_match(),
                "campaign {}: {:?}",
                o.index,
                o.worker_digests
            );
        }
        assert!(report.stranded > 0, "site faults must displace sessions");
        assert!(
            report.live_migration_rate() >= MIN_LIVE_MIGRATION_RATE,
            "live migration rate {}",
            report.live_migration_rate()
        );
    }

    #[test]
    fn a_concentrated_storm_hurts_more_than_its_scattered_twin() {
        // One hand-built pair against the loaded evening region: the
        // whole region partitioned at once must cost more served
        // session-windows than the same sites partitioned one at a time,
        // because the burst competes for instantaneous headroom.
        let opts = FleetChaosOptions {
            sites: 8,
            regions: 4,
            hours: 2,
            ..small()
        };
        let cfg = opts.fleet_config(0);
        let wan = WanFabric::edge_fleet_regions(opts.sites, opts.regions);
        // Region 3 is phased 18 h ahead: its evening peak sits inside the
        // two simulated hours.
        let block: Vec<usize> = wan.sites_of_region(3).collect();
        let corr = vec![SiteFaultEvent {
            window: 20,
            fault: SiteFault::RegionStorm {
                region: 3,
                windows: 6,
            },
        }];
        let ind: Vec<SiteFaultEvent> = block
            .iter()
            .enumerate()
            .map(|(i, &site)| SiteFaultEvent {
                window: 10 + 12 * i,
                fault: SiteFault::Partition { site, windows: 6 },
            })
            .collect();
        let corr_run = run_side(cfg, &corr, 1, 0.0);
        let ind_run = run_side(cfg, &ind, 1, 0.0);
        assert!(corr_run.violations.is_empty(), "{:?}", corr_run.violations);
        assert!(ind_run.violations.is_empty(), "{:?}", ind_run.violations);
        assert!(
            corr_run.report.availability() < ind_run.report.availability(),
            "correlated {:.4} vs independent {:.4}",
            corr_run.report.availability(),
            ind_run.report.availability()
        );
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = run_fleet_chaos(&FleetChaosOptions {
            campaigns: 1,
            ..small()
        });
        let doc = report_json(&report);
        assert!(doc.contains("\"benchmark\": \"fleet_chaos\""));
        assert!(doc.contains("\"correlation_gap\""));
        assert!(doc.contains("\"live_migration_rate\""));
        assert!(doc.contains("\"digests_match_all_worker_counts\": true"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn impossible_floor_shrinks_to_the_empty_schedule() {
        // With a floor above 1.0 every schedule violates — including the
        // empty one — so greedy shrinking must strip every event.
        let opts = FleetChaosOptions {
            campaigns: 1,
            availability_floor: 1.01,
            ..small()
        };
        let (corr, _) = campaign_schedules(&opts, 0);
        let minimal = campaign::shrink(&corr, |s| side_violates(&opts, 0, true, s));
        assert!(minimal.is_empty(), "{} events left", minimal.len());
    }
}
