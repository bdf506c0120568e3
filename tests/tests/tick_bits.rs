//! Bit pins of the orchestrator's clock tick.
//!
//! `Orchestrator::advance_to` steps the thermal model, refreshes the BMC,
//! integrates the energy ledger and checks its conservation identity on
//! every call, and processes sleep deadlines in between. The fleet and
//! fault-storm digests fold only meter energy, power and recovery
//! counters, so none of them would notice a tick that moved a SoC
//! temperature, a per-SoC ledger energy or the order in which the
//! detector reports silent SoCs. These tests fold all of that, after
//! every step of two scenarios, into one FNV-1a literal each:
//!
//! - a `RecoveryEngine` through correlated, chaos-shaped fault schedules
//!   (board drops, a port-group partition, a brownout, hangs, trips, link
//!   losses, flash deaths, same-instant faults), driven by `begin`/`step`;
//! - a bare `Orchestrator` through submits, finishes, faults, restores and
//!   advances across sleep deadlines, with `sleep_after` of 30 s and 0 s.
//!
//! A literal changes only when a bit of the tick does.

use socc_cluster::faults::{
    DomainFault, DomainFaultEvent, FailureDomains, FaultEvent, FaultInjector, FaultKind,
    FaultSchedule,
};
use socc_cluster::orchestrator::{Orchestrator, OrchestratorConfig};
use socc_cluster::recovery::{RecoveryConfig, RecoveryEngine};
use socc_cluster::workload::{WorkloadId, WorkloadSpec};
use socc_sim::hash::{fnv1a, FNV_OFFSET};
use socc_sim::rng::SimRng;
use socc_sim::span::EventKind;
use socc_sim::time::{SimDuration, SimTime};

fn fold(h: &mut u64, v: u64) {
    *h = fnv1a(*h, &v.to_le_bytes());
}

/// Folds everything one tick writes: meter energy and power, the ledger's
/// two sides, chassis and per-SoC energies, the fan duty and every SoC
/// temperature.
fn fold_tick(h: &mut u64, orch: &Orchestrator) {
    let now = orch.now();
    fold(h, now.as_nanos());
    fold(h, orch.energy().as_joules().to_bits());
    fold(h, orch.power().as_watts().to_bits());
    let ledger = orch.energy_ledger();
    fold(h, ledger.component_total(now).as_joules().to_bits());
    fold(h, ledger.rail_total(now).as_joules().to_bits());
    fold(h, ledger.chassis_energy(now).as_joules().to_bits());
    for soc in 0..ledger.socs() {
        fold(h, ledger.soc_energy(soc, now).as_joules().to_bits());
    }
    let cluster = orch.cluster();
    fold(h, cluster.fan_duty().to_bits());
    for soc in 0..cluster.soc_count() {
        fold(h, cluster.temperature_c(soc).to_bits());
    }
}

fn v1() -> WorkloadSpec {
    WorkloadSpec::LiveStreamCpu {
        video: socc_video::vbench::by_id("V1").expect("V1 is a vbench clip"),
    }
}

/// An archive job of `secs` seconds at V1's 15.6 fps SoC-CPU rate.
fn archive(secs: f64) -> WorkloadSpec {
    WorkloadSpec::ArchiveJob {
        video: socc_video::vbench::by_id("V1").expect("V1 is a vbench clip"),
        frames: (secs * 15.6) as u64,
    }
}

fn at(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

fn soc_fault(secs: f64, soc: usize, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: at(secs),
        soc,
        kind,
    }
}

fn domain_fault(secs: f64, fault: DomainFault) -> DomainFaultEvent {
    DomainFaultEvent {
        at: at(secs),
        fault,
    }
}

/// A hand-built correlated schedule touching every detection path: a
/// board drop, a flash death behind a partitioned port group (dropped, as
/// the engine does today), faults on sweep instants and at one instant on
/// one board, and every per-SoC fault kind.
fn crafted_schedule() -> FaultSchedule {
    let mut soc = vec![
        soc_fault(20.0, 3, FaultKind::SocHang),
        soc_fault(35.5, 12, FaultKind::Flash),
        soc_fault(80.0, 21, FaultKind::Flash),
        soc_fault(100.25, 40, FaultKind::ThermalTrip),
        soc_fault(130.0, 50, FaultKind::LinkLoss),
        soc_fault(200.0, 41, FaultKind::SocHang),
        soc_fault(260.0, 7, FaultKind::Memory),
        soc_fault(300.7, 55, FaultKind::ThermalTrip),
        soc_fault(400.0, 1, FaultKind::SocHang),
        soc_fault(400.0, 2, FaultKind::SocHang),
        soc_fault(450.0, 46, FaultKind::LinkLoss),
        soc_fault(451.3, 47, FaultKind::Flash),
    ];
    soc.sort_by_key(|e| (e.at, e.soc));
    FaultSchedule {
        soc,
        domain: vec![
            domain_fault(50.0, DomainFault::BoardDown { board: 3 }),
            domain_fault(
                70.0,
                DomainFault::FabricPartition {
                    group: 1,
                    duration: SimDuration::from_secs(120),
                },
            ),
            domain_fault(
                150.0,
                DomainFault::PowerBrownout {
                    rail: 0,
                    duration: SimDuration::from_secs(90),
                },
            ),
            domain_fault(333.3, DomainFault::BoardDown { board: 9 }),
        ],
    }
}

/// A schedule drawn at the chaos scenario's accelerated failure rates.
fn drawn_schedule(seed: u64) -> FaultSchedule {
    let injector = FaultInjector {
        flash_afr: 440.0,
        hang_afr: 1300.0,
        memory_afr: 0.0,
        thermal_afr: 260.0,
        link_afr: 400.0,
        board_afr: 6000.0,
        partition_afr: 10_500.0,
        brownout_afr: 7_900.0,
        partition_duration: SimDuration::from_secs(150),
        brownout_duration: SimDuration::from_secs(150),
    };
    let mut rng = SimRng::seed(seed).split("tick-bits-schedule");
    injector.schedule_all(
        &FailureDomains::for_cluster(60),
        SimDuration::from_secs(600),
        &mut rng,
    )
}

/// Loads an engine like the chaos scenario (39 streams per board) plus
/// archive jobs that finish mid-run, runs it step by step and folds the
/// tick after every step and each detected SoC in detection order.
fn fold_engine(h: &mut u64, schedule: &FaultSchedule, seed: u64) {
    let mut eng = RecoveryEngine::new(
        OrchestratorConfig::default(),
        RecoveryConfig::default(),
        seed,
    );
    for board in 0..12 {
        for _ in 0..39 {
            eng.submit(v1()).expect("board-aligned load fits");
        }
        if board % 3 == 0 {
            eng.submit(archive(90.0 + 40.0 * board as f64))
                .expect("archive job fits");
        }
    }
    let mut seen = 0u64;
    eng.begin(schedule, SimTime::from_secs(600));
    while eng.step() {
        fold_tick(h, eng.orchestrator());
        for e in eng.events().events().filter(|e| e.seq >= seen) {
            if let EventKind::FaultDetected { soc } = e.kind {
                fold(h, u64::from(soc));
            }
        }
        seen = eng.events().recorded();
    }
    eng.finish();
    fold_tick(h, eng.orchestrator());
    fold(h, eng.availability().to_bits());
}

#[test]
fn recovery_tick_bits_are_pinned() {
    let mut h = FNV_OFFSET;
    fold_engine(&mut h, &crafted_schedule(), 7);
    for seed in [11, 42] {
        fold_engine(&mut h, &drawn_schedule(seed), seed);
    }
    assert_eq!(h, 0x00ce_8e8a_87f2_5fdb, "recovery tick digest {h:#018x}");
}

/// Drives a bare orchestrator through seeded churn at unaligned times:
/// live streams and archive jobs arrive, streams finish, SoCs fail and
/// return, and gaps of up to 45 s cross sleep deadlines.
fn fold_orchestrator(h: &mut u64, sleep_after: SimDuration, seed: u64) {
    let mut orch = Orchestrator::new(OrchestratorConfig {
        sleep_after: Some(sleep_after),
        ..OrchestratorConfig::default()
    });
    let mut rng = SimRng::seed(seed).split("tick-bits-orchestrator");
    let mut live: Vec<WorkloadId> = Vec::new();
    let mut now = 0.0;
    for _ in 0..600 {
        now += rng.uniform(0.0, 1.0).powi(3) * 45.0;
        orch.advance_to(at(now));
        fold_tick(h, &orch);
        match rng.uniform_usize(0, 10) {
            0..=3 => {
                if let Ok(id) = orch.submit(v1()) {
                    live.push(id);
                }
            }
            4 => {
                let _ = orch.submit(archive(rng.uniform(1.0, 120.0)));
            }
            5..=7 if !live.is_empty() => {
                let id = live.swap_remove(rng.uniform_usize(0, live.len()));
                // A stream the fault path dropped is already gone.
                let _ = orch.finish(id);
            }
            8 => orch.inject_fault(rng.uniform_usize(0, 60)),
            9 => {
                orch.restore_soc(rng.uniform_usize(0, 60));
            }
            _ => {}
        }
        fold_tick(h, &orch);
    }
    fold(h, orch.stats().completed);
    fold(h, orch.stats().wakeups);
}

#[test]
fn orchestrator_tick_bits_are_pinned() {
    let mut h = FNV_OFFSET;
    for (sleep_after, seed) in [(30, 3), (0, 5)] {
        fold_orchestrator(&mut h, SimDuration::from_secs(sleep_after), seed);
    }
    assert_eq!(
        h, 0xf826_70aa_36ec_5678,
        "orchestrator tick digest {h:#018x}"
    );
}
