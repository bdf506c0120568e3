//! Allocation gate of the recovery loop.
//!
//! `RecoveryEngine::step` runs once per fault, heartbeat sweep, retry and
//! repair, tens of thousands of times per fault-storm sweep. After the
//! first heartbeat sweep it should allocate almost nothing: its buffers
//! belong to the engine and keep their capacity, specs clone without
//! allocating and the metrics live in fixed arrays. This binary counts
//! every allocation `step` makes on the test's own thread, for one
//! correlated and one independent chaos campaign, each run twice after
//! a warm-up run:
//!
//! - the two runs of a campaign make the same number of allocations (no
//!   hash-seeded state decides when a table grows);
//! - after the first sweep, the steps of one engine allocate at most
//!   [`MAX_STEP_ALLOCS`] times, however many faults the campaign holds.

use integration_tests::{counted, Counting};
use socc_bench::chaos::{campaign_schedules, ChaosOptions};
use socc_cluster::faults::FaultSchedule;
use socc_cluster::orchestrator::OrchestratorConfig;
use socc_cluster::recovery::{RecoveryConfig, RecoveryEngine, HEARTBEAT_INTERVAL};
use socc_cluster::workload::WorkloadSpec;
use socc_sim::time::SimTime;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations one engine's steps may make after its first sweep.
const MAX_STEP_ALLOCS: u64 = 8;

/// What one engine's steps allocated.
#[derive(Debug, PartialEq, Eq)]
struct StepAllocs {
    /// Steps up to and including the first heartbeat sweep.
    warmup: u64,
    /// Every later step.
    after: u64,
    /// Number of later steps.
    steps: u64,
}

/// Loads an engine as the chaos campaigns and the fault-storm benchmark
/// do (39 V1 streams and two archive jobs per board, none on the last),
/// then runs `schedule` to the ten-minute horizon.
fn run(seed: u64, schedule: &FaultSchedule) -> StepAllocs {
    let mut eng = RecoveryEngine::new(
        OrchestratorConfig::default(),
        RecoveryConfig::default(),
        seed,
    );
    let video = socc_video::vbench::by_id("V1").expect("V1 is a vbench clip");
    let boards = eng.domains().boards;
    for board in 0..boards {
        for _ in 0..39 {
            eng.submit(WorkloadSpec::LiveStreamCpu {
                video: video.clone(),
            })
            .expect("streams fit the board quantum");
        }
        if board + 1 < boards {
            for _ in 0..2 {
                eng.submit(WorkloadSpec::ArchiveJob {
                    video: video.clone(),
                    frames: 1_000_000_000,
                })
                .expect("archive jobs fit the board quantum");
            }
        }
    }
    eng.begin(schedule, SimTime::from_secs(600));
    let first_sweep = SimTime::ZERO + HEARTBEAT_INTERVAL;
    let mut out = StepAllocs {
        warmup: 0,
        after: 0,
        steps: 0,
    };
    loop {
        let warm = eng.orchestrator().now() >= first_sweep;
        let (more, heap) = counted(|| eng.step());
        if !more {
            break;
        }
        if warm {
            out.after += heap.allocs;
            out.steps += 1;
        } else {
            out.warmup += heap.allocs;
        }
    }
    eng.finish();
    out
}

#[test]
fn recovery_steps_allocate_little_and_repeatably() {
    let opts = ChaosOptions::default();
    // Campaign 2 drops boards at the highest tier; its correlated
    // schedule also partitions a port group and browns out a rail.
    let k = 2;
    let (correlated, independent, _) = campaign_schedules(&opts, k);
    assert!(
        !correlated.domain.is_empty(),
        "the correlated campaign holds domain faults"
    );
    for (name, schedule) in [("correlated", &correlated), ("independent", &independent)] {
        // A first run initialises what the process builds once and then
        // shares (the prime-core DVFS table a brownout reads); the runs
        // after it must agree exactly.
        run(opts.seed ^ k as u64, schedule);
        let first = run(opts.seed ^ k as u64, schedule);
        let second = run(opts.seed ^ k as u64, schedule);
        assert_eq!(first, second, "{name}: two runs allocate differently");
        assert!(first.steps > 100, "{name}: only {} steps", first.steps);
        assert!(
            first.after <= MAX_STEP_ALLOCS,
            "{name}: {} allocations in {} steps after the first sweep (bound {MAX_STEP_ALLOCS})",
            first.after,
            first.steps
        );
    }
}
