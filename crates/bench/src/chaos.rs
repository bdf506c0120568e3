//! Seeded chaos campaigns over the fault-tolerant orchestration loop.
//!
//! Each campaign loads the 60-SoC cluster to a board-aligned mix of
//! interactive live streams and batch archive jobs, draws a correlated
//! fault schedule (board drops, ESB port-group partitions, PSU brownouts,
//! plus the independent per-SoC kinds) from the campaign seed, and drives
//! the [`RecoveryEngine`] step by step, checking invariants between every
//! pair of events:
//!
//! 1. no Interactive ("critical") workload is ever lost,
//! 2. the workload ledger conserves submissions
//!    (`submitted = running + completed + shed + lost`) and its shed/lost
//!    counts match the telemetry counters,
//! 3. the placement index agrees with a linear scan of the cluster, and
//! 4. post-run availability stays above the campaign floor.
//!
//! Every campaign is paired with an *independent twin* at equal per-SoC
//! death AFR: the twin replays the same base schedule but re-spreads each
//! board drop as five independent flash deaths at seeded uniform times
//! (partitions and brownouts kill nobody, so they have no independent
//! counterpart and are omitted). Comparing the pair isolates the cost of
//! *correlation* — same failure volume, different arrival shape — which is
//! the §8 concern this module quantifies: a burst of five evacuations
//! overwhelms the instantaneous headroom a trickle would be absorbed by.
//!
//! A campaign that violates an invariant is shrunk to a minimal fault
//! schedule by the shared greedy shrinker (`crate::campaign`), and the
//! report carries a one-line repro
//! (`bench --run chaos --seed N --step K`). Equal seeds give
//! byte-identical replays.

use std::collections::HashSet;
use std::time::Instant;

use crate::campaign::{self, Shrink, Violation};
use crate::harness::{mix_seed, JsonBuilder};

use socc_cluster::faults::{
    DomainFault, FailureDomains, FaultEvent, FaultInjector, FaultKind, FaultSchedule,
};
use socc_cluster::orchestrator::OrchestratorConfig;
use socc_cluster::recovery::{RecoveryConfig, RecoveryEngine, WorkloadFate};
use socc_cluster::workload::{WorkloadId, WorkloadSpec};
use socc_sim::rng::SimRng;
use socc_sim::stats::percentile_mut;
use socc_sim::time::{SimDuration, SimTime};

/// Live V1 streams submitted per board quantum (3 SoCs × 13 streams).
const STREAMS_PER_BOARD: usize = 39;
/// Archive jobs per board quantum (each fills one SoC); the last board
/// carries none, leaving two SoCs of headroom a fault trickle can absorb.
const ARCHIVES_PER_BOARD: usize = 2;
/// At most this many whole-board drops per campaign, so the surviving
/// capacity always holds every interactive stream.
const MAX_BOARD_EVENTS: usize = 2;
/// At most one fabric partition per campaign.
const MAX_PARTITIONS: usize = 1;
/// At most one PSU brownout per campaign.
const MAX_BROWNOUTS: usize = 1;
/// Cap on permanent single-SoC deaths (flash/memory) per campaign.
const MAX_PERM_SOC_DEATHS: usize = 8;
/// No per-SoC fault is injected inside this pre-horizon margin: `finish()`
/// conservatively books any workload still mid-recovery as Lost, so every
/// fault needs room for detection plus the full retry/preemption ladder
/// before the books close. Even a transient hang strands its victims if
/// their first retry lands past the horizon.
const STRAND_MARGIN_SECS: u64 = 60;

/// Fault classes with a meaningful MTTR histogram (partitions never
/// migrate anything, so they have none).
const MTTR_CLASSES: [&str; 4] = ["crash", "hang", "thermal_trip", "link_loss"];

/// Campaign-sweep parameters.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Number of campaign *pairs* (each runs correlated + independent).
    pub campaigns: usize,
    /// Master seed; campaign `k` derives its own seed from it.
    pub seed: u64,
    /// Per-campaign horizon in seconds.
    pub horizon_secs: u64,
    /// Post-run availability must not fall below this.
    pub availability_floor: f64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self {
            campaigns: 256,
            seed: 42,
            horizon_secs: 600,
            availability_floor: 0.90,
        }
    }
}

/// Per-class MTTR summary from one campaign (or aggregated).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClassMttr {
    /// Detector class label (`crash`, `hang`, …).
    pub(crate) class: &'static str,
    /// Recoveries observed.
    pub(crate) count: u64,
    /// Mean repair time in milliseconds.
    pub(crate) mean_ms: f64,
    /// Median repair time in milliseconds.
    pub(crate) p50_ms: f64,
}

/// Everything one campaign run produced.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CampaignOutcome {
    /// Campaign index (the `--step` argument).
    pub(crate) index: usize,
    /// `true` for the correlated schedule, `false` for the twin.
    pub(crate) correlated: bool,
    /// Scheduled fault events actually injected.
    pub(crate) schedule_events: usize,
    /// Events dropped by the safety caps and the pre-horizon margin.
    pub(crate) truncated_events: usize,
    /// Post-run availability.
    pub(crate) availability: f64,
    /// Invariant violations, empty on a clean run.
    pub(crate) violations: Vec<String>,
    /// Workloads shed (brownout envelope + preempting admission).
    pub(crate) sheds: u64,
    /// Workloads lost.
    pub(crate) losses: u64,
    /// Successful post-fault re-placements.
    pub(crate) migrations: u64,
    /// Placement retries.
    pub(crate) retries: u64,
    /// Partitioned SoCs the BMC side channel told apart from crashes.
    pub(crate) partitions_detected: u64,
    /// Soft anti-affinity placements that fell back to the home board.
    pub(crate) anti_affinity_fallbacks: u64,
    /// Per-class MTTR observed this campaign.
    pub(crate) mttr: Vec<ClassMttr>,
}

/// Aggregated result of a chaos sweep.
#[derive(Debug, Clone)]
pub(crate) struct ChaosReport {
    /// Options the sweep ran with.
    pub(crate) options: ChaosOptions,
    /// Every campaign outcome, correlated and independent interleaved.
    pub(crate) outcomes: Vec<CampaignOutcome>,
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
    /// Per-class MTTR pooled over every campaign.
    pub(crate) mttr: Vec<ClassMttr>,
    /// Wall-clock seconds for the sweep.
    pub(crate) elapsed_secs: f64,
    /// Engine runs (2 × campaigns) per wall-clock second.
    pub(crate) campaigns_per_sec: f64,
}

/// Domain events first, then per-SoC events: the order the shrinker
/// tries removals in.
impl Shrink for FaultSchedule {
    fn items(&self) -> usize {
        self.len()
    }

    fn without(&self, i: usize) -> Self {
        let mut s = self.clone();
        if i < s.domain.len() {
            s.domain.remove(i);
        } else {
            s.soc.remove(i - s.domain.len());
        }
        s
    }
}

/// Draws campaign `k`'s correlated schedule and its independent twin.
/// Returns `(correlated, independent, truncated_event_count)`.
pub fn campaign_schedules(opts: &ChaosOptions, k: usize) -> (FaultSchedule, FaultSchedule, usize) {
    let domains = FailureDomains::for_cluster(60);
    let horizon = SimDuration::from_secs(opts.horizon_secs);
    let mut rng = SimRng::seed(mix_seed(opts.seed, k)).split("chaos-schedule");
    // Sweep axes: board-drop intensity by campaign index, partition
    // duration on a coarser stride — nine (tier, duration) combinations.
    let tier = (k % 3 + 1) as f64;
    let partition_secs = [60, 150, 300][(k / 3) % 3];
    // Rates are accelerated so a ten-minute campaign actually sees events:
    // expected counts per campaign ≈ 0.66·tier board drops, 1.5 hangs,
    // 0.5 flash deaths, 0.3 thermal trips, 0.54 partitions, 0.28 brownouts.
    let injector = FaultInjector {
        flash_afr: 440.0,
        hang_afr: 1300.0,
        memory_afr: 0.0,
        thermal_afr: 260.0,
        link_afr: 0.0,
        board_afr: 3000.0 * tier,
        partition_afr: 10_500.0,
        brownout_afr: 7_900.0,
        partition_duration: SimDuration::from_secs(partition_secs),
        brownout_duration: SimDuration::from_secs(150),
    };
    let raw = injector.schedule_all(&domains, horizon, &mut rng);

    let cutoff = SimTime::from_secs(opts.horizon_secs.saturating_sub(STRAND_MARGIN_SECS));
    let mut truncated = 0usize;
    let mut soc = Vec::new();
    let mut perm_deaths = 0usize;
    for e in &raw.soc {
        if e.at > cutoff {
            truncated += 1;
            continue;
        }
        if matches!(e.kind, FaultKind::Flash | FaultKind::Memory) {
            if perm_deaths >= MAX_PERM_SOC_DEATHS {
                truncated += 1;
                continue;
            }
            perm_deaths += 1;
        }
        soc.push(*e);
    }
    let (mut board_events, mut partitions, mut brownouts) = (0usize, 0usize, 0usize);
    let mut domain = Vec::new();
    let mut downed_boards = Vec::new();
    for e in &raw.domain {
        match e.fault {
            DomainFault::BoardDown { board } => {
                if board_events >= MAX_BOARD_EVENTS || e.at > cutoff {
                    truncated += 1;
                    continue;
                }
                board_events += 1;
                downed_boards.push(board);
                domain.push(*e);
            }
            DomainFault::FabricPartition { .. } => {
                if partitions >= MAX_PARTITIONS {
                    truncated += 1;
                    continue;
                }
                partitions += 1;
                domain.push(*e);
            }
            DomainFault::PowerBrownout { .. } => {
                if brownouts >= MAX_BROWNOUTS {
                    truncated += 1;
                    continue;
                }
                brownouts += 1;
                domain.push(*e);
            }
        }
    }
    let correlated = FaultSchedule {
        soc: soc.clone(),
        domain,
    };
    // Independent twin: identical base events, each board burst re-spread
    // as five independent flash deaths at seeded uniform times — the same
    // realized per-SoC death volume without the correlation.
    let mut spread = SimRng::seed(mix_seed(opts.seed, k)).split("chaos-spread");
    let max_at = opts.horizon_secs.saturating_sub(STRAND_MARGIN_SECS) as f64;
    let mut twin = soc;
    for board in downed_boards {
        for s in domains.socs_of_board(board) {
            twin.push(FaultEvent {
                at: SimTime::from_secs_f64(spread.uniform(0.0, max_at)),
                soc: s,
                kind: FaultKind::Flash,
            });
        }
    }
    twin.sort_by_key(|e| (e.at, e.soc));
    let independent = FaultSchedule {
        soc: twin,
        domain: Vec::new(),
    };
    (correlated, independent, truncated)
}

/// Loads the cluster board-aligned: 39 streams (3 SoCs) + 2 archive jobs
/// (2 SoCs) per board, no archives on the last board. Returns the set of
/// interactive ("critical") ids and the total submitted.
fn submit_load(eng: &mut RecoveryEngine) -> (HashSet<WorkloadId>, usize) {
    let video = socc_video::vbench::by_id("V1").expect("V1 in vbench");
    let boards = eng.domains().boards;
    let mut interactive = HashSet::new();
    let mut submitted = 0usize;
    for board in 0..boards {
        for _ in 0..STREAMS_PER_BOARD {
            let id = eng
                .submit(WorkloadSpec::LiveStreamCpu {
                    video: video.clone(),
                })
                .expect("stream fits the board quantum");
            interactive.insert(id);
            submitted += 1;
        }
        let archives = if board + 1 == boards {
            0
        } else {
            ARCHIVES_PER_BOARD
        };
        for _ in 0..archives {
            eng.submit(WorkloadSpec::ArchiveJob {
                video: video.clone(),
                frames: 1_000_000_000,
            })
            .expect("archive fits the board quantum");
            submitted += 1;
        }
    }
    (interactive, submitted)
}

/// The step invariants. Returns the first violation, if any.
fn invariant_violation(
    eng: &RecoveryEngine,
    interactive: &HashSet<WorkloadId>,
    submitted: usize,
) -> Option<String> {
    let fates = eng.fates();
    if fates.len() != submitted {
        return Some(format!(
            "ledger holds {} fates for {submitted} submissions",
            fates.len()
        ));
    }
    let (mut running, mut completed, mut shed, mut lost) = (0u64, 0u64, 0u64, 0u64);
    for (id, rec) in fates {
        match rec.fate {
            WorkloadFate::Running => running += 1,
            WorkloadFate::Completed => completed += 1,
            WorkloadFate::Shed => shed += 1,
            WorkloadFate::Lost => {
                lost += 1;
                if interactive.contains(id) {
                    return Some(format!("critical workload {} lost", id.0));
                }
            }
        }
    }
    if running + completed + shed + lost != submitted as u64 {
        return Some(format!(
            "conservation broke: {running}+{completed}+{shed}+{lost} != {submitted}"
        ));
    }
    let t = eng.telemetry();
    let shed_counter = t.counter("ft.workloads_shed");
    if shed != shed_counter {
        return Some(format!(
            "{shed} shed fates vs ft.workloads_shed={shed_counter}"
        ));
    }
    let lost_counter = t.counter("ft.workloads_lost");
    if lost != lost_counter {
        return Some(format!(
            "{lost} lost fates vs ft.workloads_lost={lost_counter}"
        ));
    }
    let active = eng.orchestrator().active_workloads() as u64;
    if active > running {
        return Some(format!(
            "{active} active workloads exceed {running} running fates"
        ));
    }
    if !eng.orchestrator().verify_placement_index() {
        return Some("placement index diverged from the linear scan".to_string());
    }
    None
}

/// Runs one campaign against an explicit schedule, checking invariants
/// after every engine step.
fn run_with_schedule(
    opts: &ChaosOptions,
    k: usize,
    correlated: bool,
    schedule: &FaultSchedule,
    truncated: usize,
) -> CampaignOutcome {
    let mut eng = RecoveryEngine::new(
        OrchestratorConfig::default(),
        RecoveryConfig::default(),
        mix_seed(opts.seed, k),
    );
    let (interactive, submitted) = submit_load(&mut eng);
    let horizon = SimTime::from_secs(opts.horizon_secs);
    let mut violations = Vec::new();
    eng.begin(schedule, horizon);
    while eng.step() {
        if let Some(v) = invariant_violation(&eng, &interactive, submitted) {
            violations.push(format!("mid-run: {v}"));
            break;
        }
    }
    eng.finish();
    if let Some(v) = invariant_violation(&eng, &interactive, submitted) {
        violations.push(format!("final: {v}"));
    }
    let availability = eng.availability();
    if availability + 1e-12 < opts.availability_floor {
        violations.push(format!(
            "availability {availability:.4} below floor {:.2}",
            opts.availability_floor
        ));
    }
    let t = eng.telemetry();
    let mttr = MTTR_CLASSES
        .iter()
        .map(|class| {
            let name = format!("ft.mttr_ms.{class}");
            ClassMttr {
                class,
                count: t.histogram_count(&name),
                mean_ms: t.histogram_mean(&name),
                p50_ms: t.histogram_quantile(&name, 0.5).unwrap_or(0.0),
            }
        })
        .collect();
    CampaignOutcome {
        index: k,
        correlated,
        schedule_events: schedule.len(),
        truncated_events: truncated,
        availability,
        violations,
        sheds: t.counter("ft.workloads_shed"),
        losses: t.counter("ft.workloads_lost"),
        migrations: t.counter("ft.migrations"),
        retries: t.counter("ft.retries"),
        partitions_detected: t.counter("ft.partitions_detected"),
        anti_affinity_fallbacks: t.counter("ft.anti_affinity_fallbacks"),
        mttr,
    }
}

/// Runs campaign `k` of a sweep: the correlated schedule or its twin.
pub(crate) fn run_campaign(opts: &ChaosOptions, k: usize, correlated: bool) -> CampaignOutcome {
    let (corr, indep, truncated) = campaign_schedules(opts, k);
    if correlated {
        run_with_schedule(opts, k, true, &corr, truncated)
    } else {
        run_with_schedule(opts, k, false, &indep, 0)
    }
}

/// Runs the full sweep: `campaigns` correlated/independent pairs, shrink
/// on every violation.
pub(crate) fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(opts.campaigns * 2);
    for k in 0..opts.campaigns {
        let (corr, indep, truncated) = campaign_schedules(opts, k);
        outcomes.push(run_with_schedule(opts, k, true, &corr, truncated));
        outcomes.push(run_with_schedule(opts, k, false, &indep, 0));
    }
    let mut violations = Vec::new();
    for o in &outcomes {
        if o.violations.is_empty() {
            continue;
        }
        let (corr, indep, _) = campaign_schedules(opts, o.index);
        let full = if o.correlated { corr } else { indep };
        let minimal = campaign::shrink(&full, |s| {
            !run_with_schedule(opts, o.index, o.correlated, s, 0)
                .violations
                .is_empty()
        });
        violations.push(Violation::new(
            "chaos",
            opts.seed,
            o.index,
            o.correlated,
            o.violations[0].clone(),
            minimal.len(),
        ));
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    let stats = |correlated: bool| {
        campaign::mean_min(
            outcomes
                .iter()
                .filter(|o| o.correlated == correlated)
                .map(|o| o.availability),
        )
    };
    let (correlated_mean, correlated_min) = stats(true);
    let (independent_mean, independent_min) = stats(false);
    let mttr = MTTR_CLASSES
        .iter()
        .map(|class| {
            let mut count = 0u64;
            let mut weighted = 0.0f64;
            let mut p50s = Vec::new();
            for o in &outcomes {
                for c in &o.mttr {
                    if c.class == *class && c.count > 0 {
                        count += c.count;
                        weighted += c.count as f64 * c.mean_ms;
                        p50s.push(c.p50_ms);
                    }
                }
            }
            ClassMttr {
                class,
                count,
                mean_ms: if count > 0 {
                    weighted / count as f64
                } else {
                    0.0
                },
                p50_ms: percentile_mut(&mut p50s, 0.5).unwrap_or(0.0),
            }
        })
        .collect();
    let runs = outcomes.len();
    ChaosReport {
        options: opts.clone(),
        outcomes,
        violations,
        correlated_mean,
        correlated_min,
        independent_mean,
        independent_min,
        mttr,
        elapsed_secs,
        campaigns_per_sec: runs as f64 / elapsed_secs.max(1e-9),
    }
}

/// Renders one campaign outcome as deterministic text (no wall-clock).
fn render_outcome(o: &CampaignOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let kind = if o.correlated {
        "correlated"
    } else {
        "independent"
    };
    let _ = writeln!(
        s,
        "campaign {} ({kind}): {} events ({} truncated), availability {:.6}",
        o.index, o.schedule_events, o.truncated_events, o.availability
    );
    let _ = writeln!(
        s,
        "  sheds {} losses {} migrations {} retries {} partitions_detected {} fallbacks {}",
        o.sheds,
        o.losses,
        o.migrations,
        o.retries,
        o.partitions_detected,
        o.anti_affinity_fallbacks
    );
    for c in &o.mttr {
        if c.count > 0 {
            let _ = writeln!(
                s,
                "  mttr {}: n={} mean {:.1} ms p50 {:.1} ms",
                c.class, c.count, c.mean_ms, c.p50_ms
            );
        }
    }
    if o.violations.is_empty() {
        let _ = writeln!(s, "  invariants: ok");
    } else {
        for v in &o.violations {
            let _ = writeln!(s, "  VIOLATION: {v}");
        }
    }
    s
}

/// Replays campaign `k` (both sides of the pair) and renders the outcome.
/// Pure function of `(opts, k)` — two calls give byte-identical strings,
/// which is what makes `--run chaos --seed N --step K` a real repro.
pub fn replay(opts: &ChaosOptions, k: usize) -> String {
    let correlated = run_campaign(opts, k, true);
    let independent = run_campaign(opts, k, false);
    format!(
        "{}{}",
        render_outcome(&correlated),
        render_outcome(&independent)
    )
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

/// Renders the `BENCH_chaos.json` artifact on [`JsonBuilder`]. Floats
/// stay on the mode's four-decimal `json_f64` (via `raw`), so the port
/// is byte-identical to the hand-rolled emitter it replaced and the
/// committed baseline stays valid.
pub(crate) fn report_json(r: &ChaosReport) -> String {
    let total_truncated: usize = r
        .outcomes
        .iter()
        .filter(|o| o.correlated)
        .map(|o| o.truncated_events)
        .sum();
    let sum = |f: fn(&CampaignOutcome) -> u64| r.outcomes.iter().map(f).sum::<u64>();
    let mut j = JsonBuilder::new();
    j.str("benchmark", "chaos")
        .int("campaigns", r.options.campaigns as u64)
        .int("seed", r.options.seed)
        .int("horizon_secs", r.options.horizon_secs)
        .raw(
            "availability_floor",
            &json_f64(r.options.availability_floor),
        )
        .raw("elapsed_secs", &json_f64(r.elapsed_secs))
        .raw("campaigns_per_sec", &json_f64(r.campaigns_per_sec))
        .int("invariant_violations", r.violations.len() as u64)
        .int("truncated_events", total_truncated as u64);
    j.object("availability", |j| {
        j.raw("independent_mean", &json_f64(r.independent_mean))
            .raw("independent_min", &json_f64(r.independent_min))
            .raw("correlated_mean", &json_f64(r.correlated_mean))
            .raw("correlated_min", &json_f64(r.correlated_min))
            .raw(
                "correlation_gap",
                &json_f64(r.independent_mean - r.correlated_mean),
            );
    });
    j.object("mttr_ms", |j| {
        for c in &r.mttr {
            j.raw(
                c.class,
                &format!(
                    "{{ \"count\": {}, \"mean_ms\": {}, \"p50_ms\": {} }}",
                    c.count,
                    json_f64(c.mean_ms),
                    json_f64(c.p50_ms)
                ),
            );
        }
    });
    j.object("counters", |j| {
        j.int("workloads_shed", sum(|o| o.sheds))
            .int("workloads_lost", sum(|o| o.losses))
            .int("migrations", sum(|o| o.migrations))
            .int("retries", sum(|o| o.retries))
            .int("partitions_detected", sum(|o| o.partitions_detected))
            .int(
                "anti_affinity_fallbacks",
                sum(|o| o.anti_affinity_fallbacks),
            );
    });
    let viols: Vec<String> = r.violations.iter().map(Violation::json_item).collect();
    j.list("violations", &viols);
    j.finish()
}

/// MTTR classes the baseline gate watches (must match the report).
pub(crate) const MTTR_GATE_CLASSES: [&str; 4] = ["crash", "hang", "thermal_trip", "link_loss"];

/// Declares the enclosure chaos experiment for the unified runner
/// (`bench --run chaos`): grid, execute, and the gates that used to
/// live in the `bench` binary's `--chaos` branch. The smoke tier drops
/// from 256 to 64 campaign pairs (the old CI scale).
pub(crate) fn experiment() -> crate::runner::Experiment {
    use crate::runner::{ExpConfig, Experiment};
    Experiment {
        name: "chaos",
        about: "correlated vs independent failure-domain campaigns on one enclosure",
        artifact: "BENCH_chaos.json",
        configs: |scale| {
            let full = ChaosOptions::default();
            let campaigns =
                scale
                    .campaigns
                    .unwrap_or(if scale.smoke { 64 } else { full.campaigns });
            vec![ExpConfig::new()
                .u64("campaigns", campaigns as u64)
                .u64("horizon_secs", full.horizon_secs)
                .f64("availability_floor", full.availability_floor)
                .u64("seed", crate::harness::mix_seed(scale.seed, 0))]
        },
        execute: |cfg, _alloc_count| {
            let report = run_chaos(&ChaosOptions {
                campaigns: cfg.get_u64("campaigns") as usize,
                seed: cfg.seed(),
                horizon_secs: cfg.get_u64("horizon_secs"),
                availability_floor: cfg.get_f64("availability_floor"),
            });
            Ok(report_json(&report))
        },
        gates: campaign::gates,
        baseline_gates: |doc, baseline| {
            let mut f = Vec::new();
            for class in MTTR_GATE_CLASSES {
                let (Some(base_p50), Some(run_p50)) = (
                    crate::harness::extract_num(baseline, class, "p50_ms"),
                    crate::harness::extract_num(doc, class, "p50_ms"),
                ) else {
                    continue;
                };
                if base_p50 > 0.0 && run_p50 > 1.3 * base_p50 {
                    f.push(format!(
                        "{class} MTTR p50 regressed >30%: {run_p50:.1} ms vs baseline {base_p50:.1} ms"
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
    use crate::runner::json_escape;

    fn small() -> ChaosOptions {
        ChaosOptions {
            campaigns: 4,
            seed: 42,
            horizon_secs: 600,
            availability_floor: 0.90,
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = run_campaign(&small(), 1, true);
        let b = run_campaign(&small(), 1, true);
        assert_eq!(a, b);
        assert_eq!(replay(&small(), 2), replay(&small(), 2));
    }

    #[test]
    fn schedules_respect_safety_caps() {
        let opts = small();
        for k in 0..12 {
            let (corr, indep, _) = campaign_schedules(&opts, k);
            let boards = corr
                .domain
                .iter()
                .filter(|e| matches!(e.fault, DomainFault::BoardDown { .. }))
                .count();
            assert!(boards <= MAX_BOARD_EVENTS);
            assert!(indep.domain.is_empty());
            // The twin carries five spread deaths per board drop.
            assert_eq!(indep.soc.len(), corr.soc.len() + 5 * boards);
            let cutoff = SimTime::from_secs(opts.horizon_secs - STRAND_MARGIN_SECS);
            for e in corr.soc.iter().chain(indep.soc.iter()) {
                assert!(e.at <= cutoff, "soc fault inside the pre-horizon margin");
            }
        }
    }

    #[test]
    fn clean_sweep_has_no_violations() {
        let report = run_chaos(&small());
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        assert_eq!(report.outcomes.len(), 8);
        for o in &report.outcomes {
            assert!(
                o.availability >= 0.90,
                "campaign {}: {}",
                o.index,
                o.availability
            );
        }
    }

    #[test]
    fn correlated_availability_sits_below_independent() {
        // Deterministic for the fixed seed: the paired sweep must show the
        // correlation penalty the model is built to expose.
        let opts = ChaosOptions {
            campaigns: 12,
            ..small()
        };
        let report = run_chaos(&opts);
        assert!(
            report.correlated_mean < report.independent_mean,
            "correlated {} vs independent {}",
            report.correlated_mean,
            report.independent_mean
        );
    }

    #[test]
    fn impossible_floor_shrinks_to_the_empty_schedule() {
        // With a floor above 1.0 every schedule violates — including the
        // empty one — so greedy shrinking must strip every event.
        let opts = ChaosOptions {
            campaigns: 1,
            seed: 7,
            horizon_secs: 600,
            availability_floor: 1.01,
        };
        let (corr, _, _) = campaign_schedules(&opts, 0);
        if corr.is_empty() {
            return; // nothing to shrink at this seed
        }
        let minimal = campaign::shrink(&corr, |s| {
            !run_with_schedule(&opts, 0, true, s, 0)
                .violations
                .is_empty()
        });
        assert!(minimal.is_empty(), "{} events left", minimal.len());
    }

    #[test]
    fn shrinking_tries_domain_events_before_soc_events() {
        // Under "at least one event", the search order alone picks the
        // survivor: the domain event goes first, then the first SoC event.
        let soc = |at: u64, soc: usize| FaultEvent {
            at: SimTime::from_secs(at),
            soc,
            kind: FaultKind::SocHang,
        };
        let schedule = FaultSchedule {
            soc: vec![soc(10, 0), soc(20, 1)],
            domain: vec![socc_cluster::faults::DomainFaultEvent {
                at: SimTime::from_secs(5),
                fault: DomainFault::BoardDown { board: 0 },
            }],
        };
        let minimal = campaign::shrink(&schedule, |s| !s.is_empty());
        assert_eq!(minimal.domain, vec![]);
        assert_eq!(minimal.soc, vec![soc(20, 1)]);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = run_chaos(&ChaosOptions {
            campaigns: 2,
            ..small()
        });
        let doc = report_json(&report);
        assert!(doc.contains("\"benchmark\": \"chaos\""));
        assert!(doc.contains("\"correlation_gap\""));
        assert!(doc.contains("\"crash\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    /// The retired hand-rolled emitter, kept verbatim as the fixture the
    /// [`JsonBuilder`] port must reproduce byte for byte (the committed
    /// `BENCH_chaos.json` baseline was generated with this code).
    fn handrolled_report_json(r: &ChaosReport) -> String {
        use std::fmt::Write as _;
        let total_truncated: usize = r
            .outcomes
            .iter()
            .filter(|o| o.correlated)
            .map(|o| o.truncated_events)
            .sum();
        let sum = |f: fn(&CampaignOutcome) -> u64| r.outcomes.iter().map(f).sum::<u64>();
        let mut mttr = String::new();
        for (i, c) in r.mttr.iter().enumerate() {
            let _ = writeln!(
                mttr,
                "    \"{}\": {{ \"count\": {}, \"mean_ms\": {}, \"p50_ms\": {} }}{}",
                c.class,
                c.count,
                json_f64(c.mean_ms),
                json_f64(c.p50_ms),
                if i + 1 == r.mttr.len() { "" } else { "," }
            );
        }
        let mut viols = String::new();
        for (i, v) in r.violations.iter().enumerate() {
            let _ = writeln!(
                viols,
                "    \"campaign {} ({}): {}; minimal schedule {} events; repro: {}\"{}",
                v.campaign,
                if v.correlated {
                    "correlated"
                } else {
                    "independent"
                },
                json_escape(&v.detail),
                v.minimal_events,
                json_escape(&v.repro),
                if i + 1 == r.violations.len() { "" } else { "," }
            );
        }
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"chaos\",\n",
                "  \"campaigns\": {},\n",
                "  \"seed\": {},\n",
                "  \"horizon_secs\": {},\n",
                "  \"availability_floor\": {},\n",
                "  \"elapsed_secs\": {},\n",
                "  \"campaigns_per_sec\": {},\n",
                "  \"invariant_violations\": {},\n",
                "  \"truncated_events\": {},\n",
                "  \"availability\": {{\n",
                "    \"independent_mean\": {},\n",
                "    \"independent_min\": {},\n",
                "    \"correlated_mean\": {},\n",
                "    \"correlated_min\": {},\n",
                "    \"correlation_gap\": {}\n",
                "  }},\n",
                "  \"mttr_ms\": {{\n",
                "{}",
                "  }},\n",
                "  \"counters\": {{\n",
                "    \"workloads_shed\": {},\n",
                "    \"workloads_lost\": {},\n",
                "    \"migrations\": {},\n",
                "    \"retries\": {},\n",
                "    \"partitions_detected\": {},\n",
                "    \"anti_affinity_fallbacks\": {}\n",
                "  }},\n",
                "  \"violations\": [\n",
                "{}",
                "  ]\n",
                "}}\n"
            ),
            r.options.campaigns,
            r.options.seed,
            r.options.horizon_secs,
            json_f64(r.options.availability_floor),
            json_f64(r.elapsed_secs),
            json_f64(r.campaigns_per_sec),
            r.violations.len(),
            total_truncated,
            json_f64(r.independent_mean),
            json_f64(r.independent_min),
            json_f64(r.correlated_mean),
            json_f64(r.correlated_min),
            json_f64(r.independent_mean - r.correlated_mean),
            mttr,
            sum(|o| o.sheds),
            sum(|o| o.losses),
            sum(|o| o.migrations),
            sum(|o| o.retries),
            sum(|o| o.partitions_detected),
            sum(|o| o.anti_affinity_fallbacks),
            viols,
        )
    }

    #[test]
    fn report_json_is_byte_identical_to_the_handrolled_emitter() {
        // A clean sweep pins the empty-array shape every committed
        // baseline carries.
        let clean = run_chaos(&small());
        assert!(clean.violations.is_empty(), "fixture sweep must be clean");
        assert_eq!(report_json(&clean), handrolled_report_json(&clean));

        // Synthetic violations exercise the array items and the
        // escaping path the clean sweep leaves idle.
        let mut dirty = clean;
        dirty.violations.push(Violation::new(
            "chaos",
            42,
            3,
            true,
            "availability 0.80 < floor \"0.90\" (path \\x)".to_string(),
            5,
        ));
        dirty.violations.push(Violation::new(
            "chaos",
            42,
            4,
            false,
            "workload lost".to_string(),
            2,
        ));
        assert_eq!(report_json(&dirty), handrolled_report_json(&dirty));
    }
}
