//! Fleet-level determinism and equivalence properties.
//!
//! Two guarantees back the conservative-sync design (DESIGN.md):
//!
//! 1. the fleet result digest is bit-identical for any worker-thread
//!    count, for *any* configuration, not just the benchmarked one;
//! 2. a 1-site fleet is exactly a standalone [`Orchestrator`] replaying
//!    the same trace — the fleet layer adds control-plane routing, not
//!    simulation drift.
//!
//! A third test pins the order in which one window's faults apply.

use proptest::prelude::*;
use socc_bench::fleet::{run_fleet_once, FleetBenchOptions};
use socc_bench::harness::mix_seed;
use socc_cluster::faults::SiteFaultInjector;
use socc_cluster::fleet::{FleetConfig, FleetSim};
use socc_cluster::orchestrator::{Orchestrator, OrchestratorConfig};
use socc_cluster::workload::WorkloadSpec;
use socc_sim::hash::{fnv1a, FNV_OFFSET};
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};
use socc_workloads::gaming::GamingTraceConfig;

/// No allocator instrumentation in tests.
fn no_allocs() -> u64 {
    0
}

proptest! {
    /// The digest and fleet report are identical at 1, 2, and 8 step
    /// workers for randomized small fleets. Case seeds go through the
    /// same `mix_seed` the chaos and netval campaigns use, so every
    /// proptest case explores a well-separated scenario.
    #[test]
    fn digest_is_identical_across_worker_counts(
        sites in 2usize..5,
        hours in 1u64..2,
        case in 0usize..1_000,
    ) {
        let opts = FleetBenchOptions {
            sites,
            hours,
            window_secs: 120,
            seed: mix_seed(0xF1EE7, case),
        };
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&w| run_fleet_once(&opts, w, &no_allocs))
            .collect();
        for r in &runs[1..] {
            prop_assert_eq!(
                &r.digest_hex, &runs[0].digest_hex,
                "digest drift at {} workers", r.workers
            );
            prop_assert_eq!(r.report, runs[0].report);
        }
    }
}

/// A 1-site fleet must reproduce a standalone orchestrator replaying
/// the same trace, bit for bit: same stats, same energy, same power.
/// The control plane degenerates to "home everything locally" (one
/// region ⇒ zero phase shift, no WAN faults with a single site).
#[test]
fn one_site_fleet_matches_standalone_orchestrator() {
    let cfg = FleetConfig {
        sites: 1,
        hours: 3,
        seed: 7,
        mean_partitions: 0.0,
        ..FleetConfig::default()
    };
    let mut fleet = FleetSim::new(cfg);
    fleet.run_to_end();
    let fleet_orch = fleet.shard(0).orchestrator();

    // The standalone replay: same trace stream, same LIFO session
    // stack, same submit/finish order as `FleetSim`'s plan/step loop.
    let mut rng = SimRng::seed(cfg.seed).split("trace-site-0");
    let trace = GamingTraceConfig::default().generate(
        SimDuration::from_hours(cfg.hours),
        cfg.window,
        &mut rng,
    );
    let mut orch = Orchestrator::new(OrchestratorConfig {
        sleep_after: cfg.sleep_after,
        ..OrchestratorConfig::default()
    });
    let mut stack = Vec::new();
    for (w, &(_, gbps)) in trace.samples().iter().enumerate() {
        let barrier = SimTime::ZERO + cfg.window * w as u32;
        orch.advance_to(barrier);
        let target = (gbps * 1000.0 / cfg.mbps_per_session).round() as usize;
        while stack.len() > target {
            orch.finish(stack.pop().unwrap()).unwrap();
        }
        while stack.len() < target {
            match orch.submit(WorkloadSpec::GamingSession {
                stream_mbps: cfg.mbps_per_session,
            }) {
                Ok(id) => stack.push(id),
                Err(_) => break,
            }
        }
        orch.drain_completions();
    }

    assert_eq!(fleet_orch.stats(), orch.stats());
    assert_eq!(fleet_orch.active_workloads(), orch.active_workloads());
    assert_eq!(
        fleet_orch.energy().as_joules().to_bits(),
        orch.energy().as_joules().to_bits(),
        "energy diverged: fleet {} J vs standalone {} J",
        fleet_orch.energy().as_joules(),
        orch.energy().as_joules(),
    );
    assert_eq!(
        fleet_orch.power().as_watts().to_bits(),
        orch.power().as_watts().to_bits()
    );
    assert_eq!(fleet.report().rerouted, 0);
    assert_eq!(fleet.report().unplaceable, 0);
}

/// Pins the order in which one window's faults apply: the seeded WAN
/// partitions first, in descending (site, length) order, then the
/// scheduled site faults in ascending `SiteFault::order()`. The grid
/// makes seeded partitions collide with each other and with a dense
/// site-fault schedule, and folds every fleet's digest into one FNV-1a
/// literal. Two runs of one build cannot see an order change; this
/// literal can.
#[test]
fn colliding_fault_order_is_pinned() {
    let mut hash = FNV_OFFSET;
    for seed in 0..12u64 {
        for mean_partitions in [8.0, 30.0] {
            let cfg = FleetConfig {
                sites: 8,
                regions: 4,
                hours: 2,
                seed,
                mean_partitions,
                ..FleetConfig::default()
            };
            let site_faults = SiteFaultInjector {
                mean_partitions: 6.0,
                mean_storms: 2.0,
                mean_blackouts: 2.0,
                mean_brownouts: 2.0,
                mean_windows: 3.0,
            }
            .schedule(8, 4, 60, &mut SimRng::seed(seed).split("pin-site"));
            for schedule in [Vec::new(), site_faults] {
                let mut fleet = FleetSim::with_site_faults(cfg, schedule);
                fleet.run_to_end();
                hash = fnv1a(hash, &fleet.digest().to_le_bytes());
            }
        }
    }
    assert_eq!(format!("{hash:016x}"), "c71bdf044f5f7d50");
}
