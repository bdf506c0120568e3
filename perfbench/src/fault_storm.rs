//! `fault_storm`: pairs of fault campaigns on one 60-SoC enclosure, in
//! the shape of the repository's chaos scenario.
//!
//! Each pair runs a correlated schedule (board drops, ESB port-group
//! partitions, PSU brownouts plus per-SoC faults) and an independent
//! twin that re-spreads each board drop as five flash deaths. Every
//! engine is loaded with 39 V1 live streams plus 2 archive jobs per
//! board (none on the last), then runs `RecoveryEngine::new` → `submit`
//! → `begin` → `step` until it returns false → `finish`, with no checks
//! between steps. Set-up draws the schedules; the timed phase is every
//! engine from construction to `finish`.

use std::time::Instant;

use socc_cluster::faults::{
    DomainFault, FailureDomains, FaultEvent, FaultInjector, FaultKind, FaultSchedule,
};
use socc_cluster::orchestrator::OrchestratorConfig;
use socc_cluster::recovery::{RecoveryConfig, RecoveryEngine, WorkloadFate};
use socc_cluster::workload::WorkloadSpec;
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};
use socc_video::video::VideoMeta;

use crate::trace::{Call, Tracer};
use crate::workload::{fnv, Checks, Unit, Workload, FNV_OFFSET};

/// A campaign-sweep shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStorm {
    /// Campaign pairs (each runs a correlated engine and its twin).
    pub pairs: usize,
}

/// The benchmark's shape: a quarter of the chaos scenario's 256 pairs,
/// which still covers each of its nine (board-drop tier, partition
/// length) combinations seven times.
pub const BENCH: FaultStorm = FaultStorm { pairs: 64 };

const SOCS: usize = 60;
/// Simulated seconds per campaign.
const HORIZON_SECS: u64 = 600;
/// Live V1 streams per board (3 SoCs × 13 streams).
const STREAMS_PER_BOARD: usize = 39;
/// Archive jobs per board, each filling one SoC; the last board has none,
/// so a fault trickle finds two SoCs of headroom.
const ARCHIVES_PER_BOARD: usize = 2;
/// Caps that keep every interactive stream placeable: at most two board
/// drops, one partition, one brownout and eight permanent SoC deaths.
const MAX_BOARD_EVENTS: usize = 2;
const MAX_PARTITIONS: usize = 1;
const MAX_BROWNOUTS: usize = 1;
const MAX_PERM_SOC_DEATHS: usize = 8;
/// No fault lands in the last minute, so every recovery can finish
/// before the books close.
const STRAND_MARGIN_SECS: u64 = 60;

/// One campaign pair's inputs.
pub struct Pair {
    seed: u64,
    correlated: FaultSchedule,
    independent: FaultSchedule,
}

/// A unit's inputs: every pair plus the clip the streams transcode.
pub struct Input {
    pairs: Vec<Pair>,
    video: VideoMeta,
}

/// Campaign `k`'s own seed.
fn campaign_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// Draws pair `k`: accelerated failure rates so a ten-minute campaign
/// sees events, board-drop intensity cycling with `k` and partition
/// length on a coarser stride, then the safety caps and the twin.
fn draw_pair(seed: u64, k: usize, tr: &mut Tracer) -> Pair {
    let seed = campaign_seed(seed, k);
    let domains = FailureDomains::for_cluster(SOCS);
    let tier = (k % 3 + 1) as f64;
    let injector = FaultInjector {
        flash_afr: 440.0,
        hang_afr: 1300.0,
        memory_afr: 0.0,
        thermal_afr: 260.0,
        link_afr: 0.0,
        board_afr: 3000.0 * tier,
        partition_afr: 10_500.0,
        brownout_afr: 7_900.0,
        partition_duration: SimDuration::from_secs([60, 150, 300][(k / 3) % 3]),
        brownout_duration: SimDuration::from_secs(150),
    };
    let mut rng = SimRng::seed(seed).split("chaos-schedule");
    let horizon = SimDuration::from_secs(HORIZON_SECS);
    let raw = tr.time(Call::FaultsSchedule, || {
        injector.schedule_all(&domains, horizon, &mut rng)
    });

    let cutoff = SimTime::from_secs(HORIZON_SECS - STRAND_MARGIN_SECS);
    let mut perm_deaths = 0;
    let soc: Vec<FaultEvent> = raw
        .soc
        .into_iter()
        .filter(|e| e.at <= cutoff)
        .filter(|e| {
            if !matches!(e.kind, FaultKind::Flash | FaultKind::Memory) {
                return true;
            }
            perm_deaths += 1;
            perm_deaths <= MAX_PERM_SOC_DEATHS
        })
        .collect();
    let (mut boards, mut partitions, mut brownouts) = (0, 0, 0);
    let mut downed = Vec::new();
    let domain = raw
        .domain
        .into_iter()
        .filter(|e| match e.fault {
            DomainFault::BoardDown { board } => {
                let keep = boards < MAX_BOARD_EVENTS && e.at <= cutoff;
                if keep {
                    boards += 1;
                    downed.push(board);
                }
                keep
            }
            DomainFault::FabricPartition { .. } => {
                partitions += 1;
                partitions <= MAX_PARTITIONS
            }
            DomainFault::PowerBrownout { .. } => {
                brownouts += 1;
                brownouts <= MAX_BROWNOUTS
            }
        })
        .collect();

    let mut spread = SimRng::seed(seed).split("chaos-spread");
    let mut twin = soc.clone();
    for board in downed {
        for s in domains.socs_of_board(board) {
            twin.push(FaultEvent {
                at: SimTime::from_secs_f64(spread.uniform(0.0, cutoff.as_secs_f64())),
                soc: s,
                kind: FaultKind::Flash,
            });
        }
    }
    twin.sort_by_key(|e| (e.at, e.soc));
    Pair {
        seed,
        correlated: FaultSchedule { soc, domain },
        independent: FaultSchedule {
            soc: twin,
            domain: Vec::new(),
        },
    }
}

/// Per-engine work counters summed over a unit.
#[derive(Default)]
struct Totals {
    admitted: u64,
    completed: u64,
    wakeups: u64,
    rejected: u64,
    faults_injected: u64,
    migrations: u64,
    retries: u64,
    shed: u64,
    lost: u64,
    recorded: u64,
    dropped: u64,
}

/// Runs one engine; returns its host seconds from construction to
/// `finish`.
fn run_engine(
    seed: u64,
    schedule: &FaultSchedule,
    video: &VideoMeta,
    tr: &mut Tracer,
    checks: &mut Checks,
    digest: &mut u64,
    totals: &mut Totals,
) -> f64 {
    let started = Instant::now();
    let mut eng = tr.time(Call::RecoveryNew, || {
        RecoveryEngine::new(
            OrchestratorConfig::default(),
            RecoveryConfig::default(),
            seed,
        )
    });
    let boards = eng.domains().boards;
    let (mut submitted, mut refused) = (0u64, 0u64);
    for board in 0..boards {
        let archives = if board + 1 == boards {
            0
        } else {
            ARCHIVES_PER_BOARD
        };
        let specs = (0..STREAMS_PER_BOARD)
            .map(|_| WorkloadSpec::LiveStreamCpu {
                video: video.clone(),
            })
            .chain((0..archives).map(|_| WorkloadSpec::ArchiveJob {
                video: video.clone(),
                frames: 1_000_000_000,
            }));
        for spec in specs {
            match tr.time(Call::OrchSubmit, || eng.submit(spec)) {
                Ok(_) => submitted += 1,
                Err(_) => refused += 1,
            }
        }
    }
    eng.begin(schedule, SimTime::from_secs(HORIZON_SECS));
    while tr.time(Call::RecoveryStep, || eng.step()) {}
    tr.time(Call::RecoveryFinish, || eng.finish());
    let wall = started.elapsed().as_secs_f64();

    checks.check(refused == 0, || {
        format!("engine {seed:#x}: {refused} of the board-aligned load refused")
    });
    // One fate per submission, and the shed and lost fates match the
    // telemetry counters.
    let t = eng.telemetry();
    let fates = eng.fates();
    let count = |fate| fates.values().filter(|r| r.fate == fate).count() as u64;
    let (shed, lost) = (count(WorkloadFate::Shed), count(WorkloadFate::Lost));
    let (shed_counter, lost_counter) = (
        t.counter("ft.workloads_shed"),
        t.counter("ft.workloads_lost"),
    );
    checks.check(
        fates.len() as u64 == submitted && shed == shed_counter && lost == lost_counter,
        || {
            format!(
                "engine {seed:#x}: {} fates ({shed} shed, {lost} lost) for {submitted} \
                 submissions; telemetry counts {shed_counter} shed, {lost_counter} lost",
                fates.len()
            )
        },
    );
    checks.check(eng.orchestrator().verify_placement_index(), || {
        format!("engine {seed:#x}: placement index diverged from the linear scan")
    });

    fnv(digest, eng.availability().to_bits());
    for (name, value) in t.counters() {
        if name.starts_with("ft.") {
            for b in name.bytes() {
                fnv(digest, u64::from(b));
            }
            fnv(digest, value);
        }
    }
    let stats = eng.orchestrator().stats();
    totals.admitted += stats.admitted;
    totals.completed += stats.completed;
    totals.wakeups += stats.wakeups;
    totals.rejected += stats.rejected;
    totals.faults_injected += t.counter("ft.faults_injected");
    totals.migrations += t.counter("ft.migrations");
    totals.retries += t.counter("ft.retries");
    totals.shed += shed;
    totals.lost += lost;
    totals.recorded += eng.events().recorded();
    totals.dropped += eng.events().dropped();
    wall
}

impl Workload for FaultStorm {
    type Input = Input;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Input {
        Input {
            pairs: (0..self.pairs).map(|k| draw_pair(seed, k, tr)).collect(),
            video: socc_video::vbench::by_id("V1").expect("V1 is a vbench clip"),
        }
    }

    fn run(&self, input: Input, tr: &mut Tracer) -> Unit {
        let mut checks = Checks::default();
        let mut digest = FNV_OFFSET;
        let mut totals = Totals::default();
        let mut wall = 0.0;
        for pair in &input.pairs {
            for schedule in [&pair.correlated, &pair.independent] {
                wall += run_engine(
                    pair.seed,
                    schedule,
                    &input.video,
                    tr,
                    &mut checks,
                    &mut digest,
                    &mut totals,
                );
            }
        }
        Unit {
            wall,
            digest,
            counters: vec![
                ("orch.admitted", totals.admitted as f64),
                ("orch.completed", totals.completed as f64),
                ("orch.wakeups", totals.wakeups as f64),
                ("orch.rejected", totals.rejected as f64),
                ("ft.faults_injected", totals.faults_injected as f64),
                ("ft.migrations", totals.migrations as f64),
                ("ft.retries", totals.retries as f64),
                ("ft.workloads_shed", totals.shed as f64),
                ("ft.workloads_lost", totals.lost as f64),
                ("span.recorded", totals.recorded as f64),
                ("span.dropped", totals.dropped as f64),
            ],
            timings: Vec::new(),
            checks,
        }
    }

    fn pinned_digest(&self, seed: u64) -> Option<u64> {
        (*self == BENCH && seed == 42).then_some(0x1e2b_3baf_2842_945c)
    }
}
