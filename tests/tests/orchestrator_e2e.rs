//! End-to-end orchestrator scenarios spanning the cluster, scheduler,
//! power-state manager and fault machinery.

// Tests build reference maps with std collections (see `clippy.toml`).
#![allow(clippy::disallowed_types)]

use socc_cluster::orchestrator::{Orchestrator, OrchestratorConfig};
use socc_cluster::scheduler;
use socc_cluster::workload::{SocProcessor, WorkloadSpec};
use socc_dl::{DType, ModelId};
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};
use socc_workloads::jobs::{archive_job_stream, live_session_stream};

fn orch_with(scheduler_name: &str, sleep: Option<SimDuration>) -> Orchestrator {
    Orchestrator::new(OrchestratorConfig {
        scheduler: scheduler::by_name(scheduler_name).expect("known scheduler"),
        sleep_after: sleep,
        ..OrchestratorConfig::default()
    })
}

/// Bin-packing with sleep states must use less energy than spreading with
/// no sleep over an idle-heavy day — the ablation behind Fig. 7/12.
#[test]
fn binpack_sleep_beats_spread_awake_on_energy() {
    let day = SimDuration::from_hours(6);
    let run = |name: &str, sleep: Option<SimDuration>| {
        let mut orch = orch_with(name, sleep);
        let video = socc_video::vbench::by_id("V4").unwrap();
        // Light load: 12 streams for one hour, then idle.
        let ids: Vec<_> = (0..12)
            .map(|_| {
                orch.submit(WorkloadSpec::LiveStreamCpu {
                    video: video.clone(),
                })
                .unwrap()
            })
            .collect();
        orch.advance_to(SimTime::from_secs(3600));
        for id in ids {
            orch.finish(id).unwrap();
        }
        orch.advance_to(SimTime::ZERO + day);
        orch.energy().as_joules()
    };
    let packed = run("bin-pack", Some(SimDuration::from_secs(30)));
    let spread = run("spread", None);
    // The awake fleet's idle floor dominates the spread run; packing plus
    // sleep roughly halves the day's energy.
    assert!(
        packed < 0.6 * spread,
        "bin-pack+sleep {packed:.0} J should be well under spread+awake {spread:.0} J"
    );
}

/// A full diurnal day of mixed live + archive work completes with no
/// accounting leaks: all admitted workloads finish, capacity returns.
#[test]
fn diurnal_day_has_no_capacity_leak() {
    let mut rng = SimRng::seed(99);
    let day = SimDuration::from_hours(24);
    let sessions = live_session_stream(120.0, day, &mut rng);
    let jobs = archive_job_stream(20.0, day, &mut rng);

    let mut orch = orch_with("bin-pack", Some(SimDuration::from_secs(60)));
    #[derive(Clone, Copy, PartialEq)]
    enum Ev {
        Start(usize),
        End(usize),
        Job(usize),
    }
    let mut events: Vec<(SimTime, u8, Ev)> = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        events.push((s.start, 1, Ev::Start(i)));
        events.push((s.start + s.duration, 0, Ev::End(i)));
    }
    for (i, j) in jobs.iter().enumerate() {
        events.push((j.at, 1, Ev::Job(i)));
    }
    events.sort_by_key(|&(t, pri, _)| (t, pri));

    let mut live_ids = std::collections::HashMap::new();
    for (t, _, ev) in events {
        orch.advance_to(t);
        match ev {
            Ev::Start(i) => {
                let video = socc_video::vbench::by_id(&sessions[i].video_id).unwrap();
                if let Ok(id) = orch.submit(WorkloadSpec::LiveStreamCpu { video }) {
                    live_ids.insert(i, id);
                }
            }
            Ev::End(i) => {
                if let Some(id) = live_ids.remove(&i) {
                    orch.finish(id).unwrap();
                }
            }
            Ev::Job(i) => {
                let video = socc_video::vbench::by_id(&jobs[i].video_id).unwrap();
                let _ = orch.submit(WorkloadSpec::ArchiveJob {
                    video,
                    frames: jobs[i].frames,
                });
            }
        }
    }
    // Let every remaining session/jobs horizon pass.
    let end = orch.now().max(SimTime::ZERO + day) + SimDuration::from_hours(12);
    for (_, id) in live_ids.drain() {
        orch.finish(id).unwrap();
    }
    orch.advance_to(end);

    assert_eq!(orch.active_workloads(), 0, "all workloads drained");
    let stats = orch.stats();
    assert_eq!(stats.admitted, stats.completed + stats.dropped);
    // Capacity fully restored: every SoC can take a full-CPU demand again.
    let video = socc_video::vbench::by_id("V6").unwrap();
    let mut count = 0;
    while orch
        .submit(WorkloadSpec::LiveStreamCpu {
            video: video.clone(),
        })
        .is_ok()
    {
        count += 1;
    }
    assert_eq!(count, 60, "one V6 stream per SoC after drain");
}

/// Cascading faults: kill half the fleet under load; every stream either
/// migrates or is counted dropped, never silently lost.
#[test]
fn cascading_faults_conserve_workloads() {
    let mut orch = orch_with("round-robin", None);
    let video = socc_video::vbench::by_id("V1").unwrap();
    let total = 300;
    for _ in 0..total {
        orch.submit(WorkloadSpec::LiveStreamCpu {
            video: video.clone(),
        })
        .unwrap();
    }
    for soc in 0..30 {
        orch.advance_to(SimTime::from_secs((soc as u64 + 1) * 60));
        orch.inject_fault(soc);
    }
    let stats = orch.stats();
    assert_eq!(orch.active_workloads() + stats.dropped as usize, total);
    // 30 healthy SoCs × 13 streams = 390 ≥ 300, so nothing needed dropping.
    assert_eq!(stats.dropped, 0);
    assert!(stats.migrations > 0);
    // Survivors only on healthy SoCs.
    for soc in orch.cluster().socs.iter().take(30) {
        assert_eq!(soc.workload_count(), 0);
    }
}

/// DL serving split across processors coexists on one SoC: CPU, GPU and
/// DSP pools are independent resources.
#[test]
fn heterogeneous_processors_share_one_soc() {
    let mut orch = orch_with("bin-pack", None);
    let specs = [
        WorkloadSpec::DlServe {
            processor: SocProcessor::Cpu,
            model: ModelId::ResNet50,
            dtype: DType::Fp32,
            offered_fps: 10.0,
        },
        WorkloadSpec::DlServe {
            processor: SocProcessor::Gpu,
            model: ModelId::ResNet50,
            dtype: DType::Fp32,
            offered_fps: 25.0,
        },
        WorkloadSpec::DlServe {
            processor: SocProcessor::Dsp,
            model: ModelId::ResNet50,
            dtype: DType::Int8,
            offered_fps: 90.0,
        },
    ];
    for spec in specs {
        let id = orch.submit(spec).unwrap();
        assert_eq!(orch.placement_of(id), Some(0), "all three fit on SoC 0");
    }
    let used = orch.cluster().socs[0].used();
    assert!(used.cpu_pu > 0.0 && used.gpu_frac > 0.0 && used.dsp_frac > 0.0);
}

/// Waking sleeping SoCs on demand: after the fleet sleeps, a burst of work
/// is still admitted (with wakeups recorded).
#[test]
fn sleeping_fleet_wakes_for_bursts() {
    let mut orch = orch_with("bin-pack", Some(SimDuration::from_secs(10)));
    orch.advance_to(SimTime::from_secs(600));
    let (_, idle, sleeping, _) = orch.cluster().state_counts();
    assert_eq!(idle, 0);
    assert_eq!(sleeping, 60);
    let video = socc_video::vbench::by_id("V4").unwrap();
    for _ in 0..100 {
        orch.submit(WorkloadSpec::LiveStreamCpu {
            video: video.clone(),
        })
        .unwrap();
    }
    assert!(
        orch.stats().wakeups >= 12,
        "wakeups {}",
        orch.stats().wakeups
    );
    assert_eq!(orch.active_workloads(), 100);
}
