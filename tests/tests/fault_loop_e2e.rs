//! End-to-end acceptance test for the fault-tolerant orchestration loop:
//! a loaded cluster takes four distinct fault kinds mid-run, and every
//! affected workload that is not deliberately shed must be migrated or
//! restarted within the detection + backoff budget, with telemetry that
//! matches the ground truth.

use socc_cluster::faults::{DomainFault, DomainFaultEvent, FaultEvent, FaultKind, FaultSchedule};
use socc_cluster::orchestrator::OrchestratorConfig;
use socc_cluster::recovery::{
    RecoveryConfig, RecoveryEngine, WorkloadFate, BACKOFF_BASE, HEARTBEAT_INTERVAL, MAX_RETRIES,
};
use socc_cluster::workload::{WorkloadId, WorkloadSpec};
use socc_sim::span::{Event, EventKind};
use socc_sim::time::{SimDuration, SimTime};

fn fault(at_secs: u64, soc: usize, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_secs(at_secs),
        soc,
        kind,
    }
}

/// Index of the first event at or after `from` matching `pred`, for
/// asserting causal order ("the detection happened *after* the fault
/// struck, and the classification after that").
fn find_after(events: &[Event], from: usize, pred: impl Fn(&EventKind) -> bool) -> Option<usize> {
    events[from..]
        .iter()
        .position(|e| pred(&e.kind))
        .map(|i| from + i)
}

#[test]
fn four_fault_kinds_recover_within_budget() {
    let config = RecoveryConfig::default();
    let mut eng = RecoveryEngine::new(OrchestratorConfig::default(), config.clone(), 42);
    let video = socc_video::vbench::by_id("V1").expect("vbench V1");

    // Two live streams per victim SoC region: 30 streams spread over the
    // cluster plus slack for migration targets.
    let mut ids: Vec<WorkloadId> = Vec::new();
    for _ in 0..30 {
        ids.push(
            eng.submit(WorkloadSpec::LiveStreamCpu {
                video: video.clone(),
            })
            .expect("capacity"),
        );
    }

    // Four distinct fault kinds strike four different SoCs mid-run.
    let faults = vec![
        fault(20, 0, FaultKind::Flash),
        fault(40, 1, FaultKind::SocHang),
        fault(60, 2, FaultKind::ThermalTrip),
        fault(80, 3, FaultKind::LinkLoss),
    ];
    let horizon = SimTime::from_secs(400);
    eng.run(&faults, horizon);

    let tele = eng.telemetry();

    // Ground truth vs telemetry: all four faults detected.
    assert_eq!(tele.counter("ft.faults_injected"), 4);
    assert_eq!(tele.counter("ft.faults_detected"), 4);

    // Causal chains, not counters: for each fault the structured trace
    // must show inject → detect → classify (with the right class) →
    // kind-specific remediation, in that order on that SoC.
    let events: Vec<Event> = eng.events().events().copied().collect();
    let chains = [
        (0usize, "flash", "crash"),
        (1, "soc_hang", "hang"),
        (2, "thermal_trip", "thermal_trip"),
        (3, "link_loss", "link_loss"),
    ];
    for (victim, kind_label, class_label) in chains {
        let injected = find_after(&events, 0, |k| {
            matches!(k, EventKind::FaultInjected { soc, kind }
                if *soc as usize == victim && *kind == kind_label)
        })
        .unwrap_or_else(|| panic!("no fault_injected for soc {victim}"));
        let detected = find_after(
            &events,
            injected + 1,
            |k| matches!(k, EventKind::FaultDetected { soc } if *soc as usize == victim),
        )
        .unwrap_or_else(|| panic!("no fault_detected after inject for soc {victim}"));
        let classified = find_after(&events, detected + 1, |k| {
            matches!(k, EventKind::FaultClassified { soc, class }
                if *soc as usize == victim && *class == class_label)
        })
        .unwrap_or_else(|| panic!("no {class_label} classification after detect on soc {victim}"));
        // The remediation the class demands follows the classification.
        let remediated = match class_label {
            "hang" => find_after(
                &events,
                classified + 1,
                |k| matches!(k, EventKind::PowerCycleIssued { soc } if *soc as usize == victim),
            ),
            "thermal_trip" => find_after(
                &events,
                classified + 1,
                |k| matches!(k, EventKind::CooldownStarted { soc } if *soc as usize == victim),
            ),
            "link_loss" => find_after(
                &events,
                classified + 1,
                |k| matches!(k, EventKind::LinkRepairStarted { soc } if *soc as usize == victim),
            ),
            // A crash is permanent: the remedy is migrating the victims.
            _ => find_after(&events, classified + 1, |k| {
                matches!(k, EventKind::Migrated { .. })
            }),
        };
        assert!(
            remediated.is_some(),
            "no remediation after {class_label} classification on soc {victim}"
        );
        // Causality also holds in sim time, not just log order.
        assert!(events[injected].at <= events[detected].at);
        assert!(events[detected].at <= events[classified].at);
    }

    // Every affected, non-shed workload was migrated or restarted: with 30
    // streams on 60 SoCs there is always room, so nothing is shed or lost
    // and every stream is still running at the horizon.
    assert_eq!(tele.counter("ft.workloads_shed"), 0);
    assert_eq!(tele.counter("ft.workloads_lost"), 0);
    for id in &ids {
        assert_eq!(eng.fates()[id].fate, WorkloadFate::Running, "{id:?}");
    }
    assert_eq!(eng.orchestrator().active_workloads(), 30);

    // Recovery-time budget: detection fires within window + 2 sweep
    // periods, and re-placement happens immediately or within the bounded
    // exponential-backoff schedule. The worst-case MTTR for a run where
    // capacity exists at detection time is detection + total backoff.
    let detection_budget = config.detection_window + HEARTBEAT_INTERVAL * 2u32;
    let mut backoff_budget = SimDuration::ZERO;
    for attempt in 0..MAX_RETRIES {
        backoff_budget += BACKOFF_BASE * 2f64.powi(attempt as i32) * 1.2;
    }
    let budget_ms = (detection_budget + backoff_budget).as_millis_f64();
    let worst_mttr = tele
        .histogram_quantile("ft.mttr_ms", 1.0)
        .expect("migrations recorded");
    assert!(
        worst_mttr <= budget_ms,
        "MTTR {worst_mttr} ms exceeds detection+backoff budget {budget_ms} ms"
    );
    let worst_detect = tele
        .histogram_quantile("ft.detection_ms", 1.0)
        .expect("detections recorded");
    assert!(
        worst_detect <= detection_budget.as_millis_f64(),
        "detection {worst_detect} ms exceeds {detection_budget}"
    );

    // Migration accounting agrees with the ledger.
    let ledger_migrations: u32 = eng.fates().values().map(|r| r.migrations).sum();
    assert_eq!(tele.counter("ft.migrations"), u64::from(ledger_migrations));
    assert!(
        ledger_migrations >= 1,
        "at least the crash victims migrated"
    );

    // The three recoverable SoCs returned to service; the crashed one
    // stayed dark.
    let socs = &eng.orchestrator().cluster().socs;
    assert!(!socs[0].healthy, "flash death is permanent");
    assert!(socs[1].healthy, "hang power-cycled back");
    assert!(socs[2].healthy, "thermal trip cooled down");
    assert!(socs[3].healthy, "link repaired");
    assert_eq!(tele.counter("ft.power_cycles"), 1);
    assert_eq!(tele.counter("ft.cooldowns"), 1);
    assert_eq!(tele.counter("ft.link_repairs"), 1);
    assert_eq!(tele.counter("ft.socs_restored"), 3);

    // Availability dipped (downtime was real) but stays high.
    let avail = eng.availability();
    assert!(avail < 1.0, "downtime must be accounted");
    // First-fit packs all 30 streams onto the very SoCs the faults hit, so
    // each eats roughly one detection window of outage over the 400 s run.
    assert!(avail > 0.98, "30 streams, seconds of outage each: {avail}");
}

#[test]
fn shedding_path_keeps_interactive_work_alive() {
    // Corner the loop: every SoC pinned by a whole-SoC batch job except
    // one carrying a live stream. When that SoC dies there is no free
    // capacity, so the loop must retry, then shed batch work to keep the
    // interactive stream alive — graceful degradation, not loss.
    let mut eng = RecoveryEngine::new(OrchestratorConfig::default(), RecoveryConfig::default(), 7);
    let video = socc_video::vbench::by_id("V1").expect("vbench V1");
    for _ in 0..59 {
        eng.submit(WorkloadSpec::ArchiveJob {
            video: video.clone(),
            frames: 100_000_000,
        })
        .expect("archive capacity");
    }
    let live = eng
        .submit(WorkloadSpec::LiveStreamCpu {
            video: video.clone(),
        })
        .expect("live capacity");

    eng.run(&[fault(10, 59, FaultKind::Flash)], SimTime::from_secs(120));

    let tele = eng.telemetry();
    assert_eq!(eng.fates()[&live].fate, WorkloadFate::Running);

    // Causal chain, not counters: the trace must show the full graceful-
    // degradation sequence for the live stream — fault → detect →
    // classify(crash) → retry scheduled (no room) → batch work shed →
    // the live stream migrated — in that order.
    let events: Vec<Event> = eng.events().events().copied().collect();
    let injected = find_after(&events, 0, |k| {
        matches!(
            k,
            EventKind::FaultInjected {
                soc: 59,
                kind: "flash"
            }
        )
    })
    .expect("flash fault on soc 59 traced");
    let detected = find_after(&events, injected + 1, |k| {
        matches!(k, EventKind::FaultDetected { soc: 59 })
    })
    .expect("detection after the fault");
    let classified = find_after(&events, detected + 1, |k| {
        matches!(
            k,
            EventKind::FaultClassified {
                soc: 59,
                class: "crash"
            }
        )
    })
    .expect("crash classification after detection");
    let retried = find_after(&events, classified + 1, |k| {
        matches!(k, EventKind::RetryScheduled { workload, attempt }
            if *workload == live.0 && *attempt >= 1)
    })
    .expect("backoff retry for the live stream: no free capacity at detection");
    let shed_at = find_after(&events, retried + 1, |k| {
        matches!(k, EventKind::WorkloadShed { .. })
    })
    .expect("batch work shed after retries ran out of room");
    let migrated = find_after(
        &events,
        shed_at + 1,
        |k| matches!(k, EventKind::Migrated { workload, .. } if *workload == live.0),
    )
    .expect("live stream migrated onto the freed capacity");
    assert!(events[injected].at <= events[detected].at);
    assert!(events[classified].at <= events[migrated].at);

    // The shed events name batch jobs, never the live stream.
    for e in &events {
        if let EventKind::WorkloadShed { workload } = e.kind {
            assert_ne!(workload, live.0, "the interactive stream must not be shed");
        }
    }
    let shed = eng
        .fates()
        .values()
        .filter(|r| r.fate == WorkloadFate::Shed)
        .count() as u64;
    assert_eq!(tele.counter("ft.workloads_shed"), shed);
}

#[test]
fn board_down_evacuates_all_five_socs_and_recovers() {
    // The correlated failure the paper's enclosure makes possible: one PCB
    // drops and takes its five SoCs (and uplinks) down atomically. The
    // loop must detect all five as one blast, evacuate every affected
    // stream to surviving boards, and keep the whole cluster's books
    // straight afterwards.
    let mut eng = RecoveryEngine::new(OrchestratorConfig::default(), RecoveryConfig::default(), 21);
    let video = socc_video::vbench::by_id("V1").expect("vbench V1");
    let domains = eng.domains();
    let victims: Vec<usize> = domains.socs_of_board(0).collect();
    assert_eq!(victims.len(), 5, "a PCB carries five SoCs");

    // 240 streams fill the first 19 SoCs at 13/SoC (BinPack) with a few on
    // the 19th — boards 0-3 are loaded, plenty of slack further out.
    let mut ids: Vec<WorkloadId> = Vec::new();
    for _ in 0..240 {
        ids.push(
            eng.submit(WorkloadSpec::LiveStreamCpu {
                video: video.clone(),
            })
            .expect("capacity"),
        );
    }

    let schedule = FaultSchedule {
        soc: Vec::new(),
        domain: vec![DomainFaultEvent {
            at: SimTime::from_secs(30),
            fault: DomainFault::BoardDown { board: 0 },
        }],
    };
    eng.run_schedule(&schedule, SimTime::from_secs(300));

    let tele = eng.telemetry();
    assert_eq!(tele.counter("ft.domain.board_down"), 1);
    assert_eq!(tele.counter("ft.domain_faults"), 1);
    // One blast, five casualties — each detected and each permanent.
    assert_eq!(tele.counter("ft.faults_detected"), 5);
    let socs = &eng.orchestrator().cluster().socs;
    for &s in &victims {
        assert!(!socs[s].healthy, "soc {s} stays dark with its board");
    }

    // Every stream survived: the 65 victims (5 SoCs × 13) migrated, none
    // shed or lost, and nothing landed back on the dead board.
    assert_eq!(tele.counter("ft.workloads_shed"), 0);
    assert_eq!(tele.counter("ft.workloads_lost"), 0);
    assert!(
        tele.counter("ft.migrations") >= 65,
        "all five SoCs' streams evacuated: {}",
        tele.counter("ft.migrations")
    );
    for id in &ids {
        assert_eq!(eng.fates()[id].fate, WorkloadFate::Running, "{id:?}");
    }
    assert_eq!(eng.orchestrator().active_workloads(), 240);
    for &s in &victims {
        assert_eq!(
            socs[s].workload_count(),
            0,
            "soc {s} must hold nothing after evacuation"
        );
    }
    assert!(eng.orchestrator().verify_placement_index());

    // Availability accounts five SoCs' simultaneous outage but the fast
    // detection + batched evacuation keeps it high.
    let avail = eng.availability();
    assert!(avail < 1.0, "the blast cost real downtime");
    assert!(avail > 0.98, "evacuation must be prompt: {avail}");
}
