//! Property-based tests over the core invariants of every substrate.

// Tests build reference maps with std collections (see `clippy.toml`).
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

use proptest::prelude::*;
use socc_cluster::soc::{Demand, SocUnit};
use socc_cluster::DeploymentMode;
use socc_hw::power::{LoadPowerModel, PowerState, Utilization};
use socc_net::fairness::{max_min_fair, FlowDemand};
use socc_net::LinkId;
use socc_sim::event::EventQueue;
use socc_sim::series::TimeSeries;
use socc_sim::time::{SimDuration, SimTime};
use socc_sim::units::DataRate;

proptest! {
    /// The event queue against a model: under any interleaving of
    /// schedules (at `now` plus a small delay, so instants often tie) and
    /// pops, every pop returns the pending event with the least
    /// (time, schedule order), `peek_time` and `len` agree with the model
    /// after every operation, and the clock is the last popped time.
    #[test]
    fn event_queue_total_order(
        ops in prop::collection::vec((0u8..3, 0u64..40), 1..400)
    ) {
        let mut q = EventQueue::new();
        // Pending (time, schedule order), kept sorted: the model's next
        // event is its first.
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        for (step, &(op, delay)) in ops.iter().enumerate() {
            if op < 2 {
                let at = q.now() + SimDuration::from_nanos(delay);
                q.schedule(at, step);
                let pos = model.partition_point(|&e| e <= (at, step));
                model.insert(pos, (at, step));
            } else {
                let expected = (!model.is_empty()).then(|| model.remove(0));
                prop_assert_eq!(q.pop(), expected, "pop at op {}", step);
                if let Some((at, _)) = expected {
                    prop_assert_eq!(q.now(), at);
                }
            }
            prop_assert_eq!(q.len(), model.len(), "len after op {}", step);
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.peek_time(), model.first().map(|&(at, _)| at));
        }
        // Draining delivers the rest in order.
        for expected in model {
            prop_assert_eq!(q.pop(), Some(expected));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.len(), 0);
    }

    /// Max-min fairness never oversubscribes a link and never exceeds a
    /// flow's demand.
    #[test]
    fn fairness_feasibility(
        caps in prop::collection::vec(1.0f64..10.0, 1..6),
        flows in prop::collection::vec(
            (prop::collection::vec(0usize..6, 1..4), prop::option::of(1.0f64..5000.0)),
            1..20
        )
    ) {
        let capacity: HashMap<LinkId, DataRate> = caps
            .iter()
            .enumerate()
            .map(|(i, &g)| (LinkId(i as u32), DataRate::gbps(g)))
            .collect();
        let demands: Vec<FlowDemand> = flows
            .iter()
            .map(|(route, demand)| FlowDemand {
                route: route
                    .iter()
                    .filter(|&&l| l < caps.len())
                    .map(|&l| LinkId(l as u32))
                    .collect(),
                demand: demand.map(DataRate::mbps),
            })
            .collect();
        let rates = max_min_fair(&demands, &capacity);
        prop_assert_eq!(rates.len(), demands.len());
        let mut used: HashMap<LinkId, f64> = HashMap::new();
        for (d, r) in demands.iter().zip(&rates) {
            prop_assert!(r.as_bps() >= 0.0);
            if let Some(demand) = d.demand {
                prop_assert!(r.as_bps() <= demand.as_bps() * (1.0 + 1e-9) + 1.0);
            }
            for l in &d.route {
                *used.entry(*l).or_insert(0.0) += r.as_bps();
            }
        }
        for (l, total) in used {
            prop_assert!(
                total <= capacity[&l].as_bps() * (1.0 + 1e-9) + 10.0,
                "link {:?} over capacity", l
            );
        }
    }

    /// Work conservation: on a single shared link with all-elastic flows,
    /// the allocation saturates the link.
    #[test]
    fn fairness_work_conservation(n in 1usize..40, gbps in 0.1f64..40.0) {
        let capacity: HashMap<LinkId, DataRate> =
            [(LinkId(0), DataRate::gbps(gbps))].into_iter().collect();
        let demands: Vec<FlowDemand> =
            (0..n).map(|_| FlowDemand { route: vec![LinkId(0)], demand: None }).collect();
        let rates = max_min_fair(&demands, &capacity);
        let total: f64 = rates.iter().map(|r| r.as_bps()).sum();
        prop_assert!((total - gbps * 1e9).abs() / (gbps * 1e9) < 1e-6);
        // And fairness: all equal.
        for r in &rates {
            prop_assert!((r.as_bps() - total / n as f64).abs() < 1.0);
        }
    }

    /// Power models are monotone in utilization and bounded by peak.
    #[test]
    fn power_monotone_in_load(
        idle in 0.0f64..50.0,
        activation in 0.0f64..100.0,
        dynamic in 0.0f64..400.0,
        steps in 2usize..20
    ) {
        let m = LoadPowerModel::new(idle, activation, dynamic);
        let mut prev = m.power(PowerState::Active, Utilization::ZERO);
        for i in 1..=steps {
            let u = Utilization::new(i as f64 / steps as f64);
            let p = m.power(PowerState::Active, u);
            prop_assert!(p >= prev, "power must not fall with load");
            prop_assert!(p <= m.peak() + socc_sim::units::Power::watts(1e-9));
            prev = p;
        }
        prop_assert!(m.power(PowerState::Sleep, Utilization::ZERO)
            <= m.power(PowerState::Idle, Utilization::ZERO));
    }

    /// A SoC never accepts demand beyond its capacity, and place/release
    /// round-trips restore the exact usage.
    #[test]
    fn soc_accounting_roundtrip(
        demands in prop::collection::vec(
            (0.0f64..2000.0, 0.0f64..8e5, 0usize..6, 0.0f64..0.4, 0.0f64..0.4, 0.0f64..2.0, 0.0f64..300.0),
            1..12
        )
    ) {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        let baseline = soc.used();
        let mut placed = Vec::new();
        for (cpu, codec, sessions, gpu, dsp, mem, net) in demands {
            let d = Demand {
                cpu_pu: cpu,
                codec_mb_s: codec,
                codec_sessions: sessions,
                gpu_frac: gpu,
                dsp_frac: dsp,
                mem_gb: mem,
                net_mbps: net,
            };
            if soc.fits(&d) {
                soc.place(&d);
                placed.push(d);
            }
        }
        // Invariants while loaded.
        prop_assert!(soc.used().cpu_pu <= soc.spec.cpu.transcode_capacity() + 1e-6);
        prop_assert!(soc.used().codec_sessions <= soc.spec.codec.max_sessions);
        prop_assert!(soc.used().gpu_frac <= 1.0 + 1e-6);
        // Release everything: usage returns to the baseline.
        for d in placed.iter().rev() {
            soc.release(d);
        }
        prop_assert!((soc.used().cpu_pu - baseline.cpu_pu).abs() < 1e-6);
        prop_assert!((soc.used().mem_gb - baseline.mem_gb).abs() < 1e-6);
        prop_assert_eq!(soc.used().codec_sessions, baseline.codec_sessions);
        prop_assert!(soc.is_idle());
    }

    /// Time-series step integration equals the sum of rectangle areas for
    /// any sample set.
    #[test]
    fn timeseries_integration_matches_rectangles(
        mut points in prop::collection::vec((0u64..10_000, -50.0f64..50.0), 1..30),
        extend in 1u64..1000
    ) {
        points.sort_by_key(|&(t, _)| t);
        points.dedup_by_key(|&mut (t, _)| t);
        let mut ts = TimeSeries::new();
        for &(t, v) in &points {
            ts.push(SimTime::from_nanos(t), v);
        }
        let end = SimTime::from_nanos(points.last().unwrap().0 + extend);
        let start = SimTime::from_nanos(points[0].0);
        let mut expected = 0.0;
        for w in points.windows(2) {
            expected += w[0].1 * (w[1].0 - w[0].0) as f64 / 1e9;
        }
        expected += points.last().unwrap().1 * extend as f64 / 1e9;
        let got = ts.integrate(start, end);
        prop_assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    /// Tensor-parallel plans conserve sanity for every model and size:
    /// compute shrinks monotonically, totals stay positive, pipelining
    /// never hurts.
    #[test]
    fn collab_plan_invariants(socs in 1usize..=8) {
        for model in socc_dl::ModelId::ALL {
            let plain = socc_dl::parallel::tensor_parallel(
                model,
                socc_dl::parallel::CollabConfig { socs, pipelined: false, link_gbps: 1.0 },
            );
            let piped = socc_dl::parallel::tensor_parallel(
                model,
                socc_dl::parallel::CollabConfig { socs, pipelined: true, link_gbps: 1.0 },
            );
            prop_assert!(plain.total >= plain.compute);
            prop_assert!(piped.total <= plain.total);
            prop_assert!(plain.comm_share() < 1.0);
            if socs > 1 {
                let single = socc_dl::parallel::tensor_parallel(
                    model,
                    socc_dl::parallel::CollabConfig { socs: 1, pipelined: false, link_gbps: 1.0 },
                );
                prop_assert!(plain.compute < single.compute);
            }
        }
    }

    /// TCO accounting identity: monthly TCO = CapEx/36 + electricity, and
    /// electricity = kWh × price × PUE, for any power level.
    #[test]
    fn tco_identities(watts in 1.0f64..5000.0) {
        for platform in socc_tco::Platform::ALL {
            let b = socc_tco::tco::breakdown_at_power(platform, watts);
            prop_assert!((b.monthly_tco - (b.monthly_capex + b.monthly_electricity)).abs() < 1e-9);
            let expected_kwh = watts * 0.5 * 24.0 * 30.0 / 1000.0;
            prop_assert!((b.monthly_kwh - expected_kwh).abs() < 1e-9);
            prop_assert!(
                (b.monthly_electricity
                    - b.monthly_kwh * socc_tco::tco::ELECTRICITY_USD_PER_KWH * 2.0)
                    .abs()
                    < 1e-9
            );
        }
    }

    /// Rate control: output bitrate is never below the encoder's floor and
    /// x264 always tracks achievable targets.
    #[test]
    fn ratecontrol_floor_invariant(target_kbps in 5.0f64..60_000.0) {
        use socc_video::ratecontrol::{EncoderKind, RateControl};
        for v in socc_video::vbench::videos() {
            for enc in [EncoderKind::X264, EncoderKind::MediaCodec, EncoderKind::Nvenc] {
                let out = enc.output_bitrate(&v, RateControl::Cbr(DataRate::kbps(target_kbps)));
                let floor = enc.min_bits_per_pixel() * v.pixels_per_s();
                prop_assert!(out.as_bps() >= floor - 1.0, "{:?} {}", enc, v.id);
                prop_assert!(out.as_bps() >= 0.0);
            }
        }
    }

    /// PSNR is monotone in bitrate for every encoder and video.
    #[test]
    fn psnr_monotone_in_bitrate(kbps in 20.0f64..20_000.0) {
        use socc_video::quality::psnr;
        use socc_video::ratecontrol::EncoderKind;
        for v in socc_video::vbench::videos() {
            for enc in [EncoderKind::X264, EncoderKind::Nvenc, EncoderKind::MediaCodec] {
                let lo = psnr(enc, &v, DataRate::kbps(kbps));
                let hi = psnr(enc, &v, DataRate::kbps(kbps * 2.0));
                prop_assert!(hi >= lo - 1e-9, "{:?} {}", enc, v.id);
            }
        }
    }

    /// Synthetic video costs scale monotonically with resolution, fps and
    /// entropy.
    #[test]
    fn video_cost_monotonicity(
        w in 320u32..3840,
        h in 240u32..2160,
        fps in 10.0f64..60.0,
        entropy in 0.1f64..8.0
    ) {
        use socc_video::{Resolution, VideoMeta};
        let base = VideoMeta::synthetic(
            "S", "s", Resolution::new(w, h), fps, entropy,
            DataRate::mbps(5.0), DataRate::mbps(2.0),
        );
        let bigger = VideoMeta::synthetic(
            "S", "s", Resolution::new(w + 64, h + 64), fps, entropy,
            DataRate::mbps(5.0), DataRate::mbps(2.0),
        );
        let busier = VideoMeta::synthetic(
            "S", "s", Resolution::new(w, h), fps, entropy + 0.5,
            DataRate::mbps(5.0), DataRate::mbps(2.0),
        );
        prop_assert!(bigger.cpu_cost_pu() > base.cpu_cost_pu());
        prop_assert!(busier.cpu_cost_pu() > base.cpu_cost_pu());
        prop_assert!(base.cpu_cost_pu() > 0.0);
    }

    /// Pipeline plans tile the graph and keep throughput at least the
    /// single-stage value, for every model and stage count.
    #[test]
    fn pipeline_plan_invariants(stages in 1usize..8) {
        for model in socc_dl::ModelId::ALL {
            let p = socc_dl::pipeline::plan(model, stages);
            prop_assert_eq!(p.stages.len(), stages);
            prop_assert_eq!(p.stages[0].start, 0);
            prop_assert_eq!(p.stages.last().unwrap().end, model.graph().len());
            for w in p.stages.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            let single = socc_dl::pipeline::plan(model, 1);
            prop_assert!(p.throughput >= single.throughput * 0.99);
            prop_assert!(p.latency >= single.latency * 0.99);
        }
    }

    /// DVFS: pacing never uses more energy than racing when both meet the
    /// deadline, across random load levels.
    #[test]
    fn dvfs_pacing_never_worse(load in 0.05f64..1.0, deadline_ms in 5u64..100) {
        use socc_hw::dvfs::{DvfsDomain, Governor};
        let domain = DvfsDomain::kryo585_prime();
        let deadline = socc_sim::time::SimDuration::from_millis(deadline_ms);
        let cycles = domain.max_opp().freq.get() * load * deadline.as_secs_f64();
        let race = domain.energy_for(cycles, deadline, Governor::Performance);
        let pace = domain.energy_for(cycles, deadline, Governor::PaceToDeadline);
        prop_assert!(race.is_some(), "performance always meets feasible deadlines");
        let (race, pace) = (race.unwrap(), pace.unwrap());
        prop_assert!(pace.energy.as_joules() <= race.energy.as_joules() * (1.0 + 1e-9));
    }

    /// ABR ladder pricing is internally consistent for synthetic sources.
    #[test]
    fn abr_pricing_consistent(
        w in 1280u32..3840,
        h in 720u32..2160,
        entropy in 0.2f64..8.0,
        mbps in 1.0f64..40.0
    ) {
        use socc_video::abr::{price_ladder, Ladder};
        use socc_video::{Resolution, VideoMeta};
        let v = VideoMeta::synthetic(
            "S", "s", Resolution::new(w, h), 30.0, entropy,
            DataRate::mbps(mbps * 2.0), DataRate::mbps(mbps),
        );
        let ladder = Ladder::standard(&v);
        let cost = price_ladder(&v, &ladder);
        prop_assert!(cost.cpu_pu >= v.cpu_cost_pu() * 0.999);
        prop_assert!(cost.net_mbps >= v.stream_traffic().as_mbps() * 0.999);
        prop_assert_eq!(cost.hw_sessions, ladder.renditions.len());
        // Egress is the sum of rungs.
        let sum: f64 = ladder.renditions.iter().map(|r| r.bitrate.as_bps()).sum();
        prop_assert!((ladder.egress().as_bps() - sum).abs() < 1.0);
    }

    /// Failure-aware routing never routes through a failed link.
    #[test]
    fn failed_links_never_appear_in_routes(
        fail_count in 0usize..20,
        seed in 0u64..1000
    ) {
        use socc_net::failure::FailureAwareRouting;
        use socc_net::topology::Topology;
        let fabric = Topology::soc_cluster(30);
        let mut rng = socc_sim::rng::SimRng::seed(seed);
        let mut routing = FailureAwareRouting::new();
        let mut attached = FailureAwareRouting::new();
        attached.attach(&fabric.topology);
        for _ in 0..fail_count {
            let l = socc_net::LinkId(rng.uniform_usize(0, fabric.topology.link_count()) as u32);
            routing.fail(l);
            attached.fail(l);
        }
        for _ in 0..10 {
            let a = fabric.socs[rng.uniform_usize(0, 30)];
            let b = fabric.socs[rng.uniform_usize(0, 30)];
            let route = routing.route(&fabric.topology, a, b);
            prop_assert_eq!(&attached.route(&fabric.topology, a, b), &route);
            prop_assert_eq!(routing.reaches(&fabric.topology, a, b), route.is_some());
            prop_assert_eq!(attached.reaches(&fabric.topology, a, b), route.is_some());
            for &link in route.iter().flatten() {
                prop_assert!(routing.usable(link), "route used failed link");
            }
        }
    }

    /// TCO sensitivity: monthly TCO is monotone in every assumption.
    #[test]
    fn tco_monotone_in_assumptions(
        price in 0.01f64..1.0,
        pue in 1.0f64..3.0,
        months in 12.0f64..84.0,
        duty in 0.0f64..1.0
    ) {
        use socc_tco::sensitivity::CostAssumptions;
        let base = CostAssumptions {
            electricity_usd_per_kwh: price,
            pue,
            lifetime_months: months,
            duty_factor: duty,
        };
        for p in socc_tco::Platform::ALL {
            let t0 = base.monthly_tco(p);
            let pricier = CostAssumptions { electricity_usd_per_kwh: price * 1.5, ..base };
            prop_assert!(pricier.monthly_tco(p) >= t0);
            let longer = CostAssumptions { lifetime_months: months * 1.5, ..base };
            prop_assert!(longer.monthly_tco(p) <= t0);
            let hotter = CostAssumptions { pue: pue + 0.5, ..base };
            prop_assert!(hotter.monthly_tco(p) >= t0);
        }
    }
}

// ---------------------------------------------------------------------------
// The fault-tolerant orchestration loop: randomized fault storms against the
// closed detect → migrate → recover cycle.
// ---------------------------------------------------------------------------

use socc_cluster::faults::{FaultEvent, FaultKind};
use socc_cluster::orchestrator::OrchestratorConfig;
use socc_cluster::recovery::{RecoveryConfig, RecoveryEngine, WorkloadFate};
use socc_cluster::workload::WorkloadSpec;

fn fault_kind(tag: u8) -> FaultKind {
    match tag % 5 {
        0 => FaultKind::Flash,
        1 => FaultKind::SocHang,
        2 => FaultKind::Memory,
        3 => FaultKind::ThermalTrip,
        _ => FaultKind::LinkLoss,
    }
}

/// Builds an engine, loads it with `n_batch` whole-SoC archive jobs and
/// `n_live` live streams, runs the given fault storm, and hands it back.
fn storm(
    seed: u64,
    window_s: u64,
    n_live: usize,
    n_batch: usize,
    faults: &[(u64, usize, u8)],
) -> RecoveryEngine {
    let config = RecoveryConfig {
        detection_window: SimDuration::from_secs(window_s),
    };
    let mut eng = RecoveryEngine::new(OrchestratorConfig::default(), config, seed);
    let video = socc_video::vbench::by_id("V1").expect("vbench V1");
    for _ in 0..n_batch {
        eng.submit(WorkloadSpec::ArchiveJob {
            video: video.clone(),
            frames: 100_000_000,
        })
        .expect("archive capacity");
    }
    for _ in 0..n_live {
        eng.submit(WorkloadSpec::LiveStreamCpu {
            video: video.clone(),
        })
        .expect("live capacity");
    }
    let schedule: Vec<FaultEvent> = faults
        .iter()
        .map(|&(at, soc, tag)| FaultEvent {
            at: SimTime::from_secs(at),
            soc: soc % 60,
            kind: fault_kind(tag),
        })
        .collect();
    eng.run(&schedule, SimTime::from_secs(600));
    eng
}

proptest! {
    /// Ledger/telemetry consistency under arbitrary fault storms: every
    /// submitted workload ends in exactly one terminal-or-running fate (in
    /// particular none is both completed and lost), the running count
    /// matches the orchestrator, and the shed/lost/migration counters agree
    /// with the ledger.
    #[test]
    fn recovery_ledger_is_consistent(
        seed in 0u64..1_000,
        window_s in 1u64..8,
        n_live in 1usize..59,
        n_batch in 0usize..20,
        faults in prop::collection::vec((1u64..500, 0usize..60, 0u8..5), 0..12)
    ) {
        let eng = storm(seed, window_s, n_live, n_batch, &faults);
        let mut counts = [0usize; 4];
        for rec in eng.fates().values() {
            let idx = match rec.fate {
                WorkloadFate::Running => 0,
                WorkloadFate::Completed => 1,
                WorkloadFate::Shed => 2,
                WorkloadFate::Lost => 3,
            };
            counts[idx] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), n_live + n_batch);
        prop_assert_eq!(counts[0], eng.orchestrator().active_workloads());
        let tele = eng.telemetry();
        prop_assert_eq!(tele.counter("ft.workloads_shed"), counts[2] as u64);
        prop_assert_eq!(tele.counter("ft.workloads_lost"), counts[3] as u64);
        let migrations: u32 = eng.fates().values().map(|r| r.migrations).sum();
        prop_assert_eq!(tele.counter("ft.migrations"), u64::from(migrations));
        prop_assert!(tele.counter("ft.faults_detected") <= tele.counter("ft.faults_injected"));
        let avail = eng.availability();
        prop_assert!((0.0..=1.0).contains(&avail), "availability {} out of range", avail);
    }

    /// Capacity accounting never goes negative or oversubscribed on any SoC,
    /// no matter how the storm interleaves failures, migrations, power
    /// cycles, and restores.
    #[test]
    fn recovery_capacity_never_negative(
        seed in 0u64..1_000,
        n_live in 1usize..59,
        faults in prop::collection::vec((1u64..500, 0usize..60, 0u8..5), 0..12)
    ) {
        let eng = storm(seed, 3, n_live, 5, &faults);
        for soc in &eng.orchestrator().cluster().socs {
            let used = soc.used();
            prop_assert!(used.cpu_pu >= 0.0 && used.mem_gb >= 0.0 && used.net_mbps >= 0.0);
            prop_assert!(
                used.cpu_pu <= soc.spec.cpu.transcode_capacity() + 1e-6,
                "soc {} cpu oversubscribed: {}",
                soc.index,
                used.cpu_pu
            );
            prop_assert!(used.mem_gb <= soc.spec.memory.capacity_gb + 1e-6);
        }
    }

    /// Domain-aware recovery: when a SoC dies with free capacity both on
    /// its own board and off it, the soft anti-affinity must steer every
    /// victim's retry off the failed board — co-locating a retry next to
    /// the fault it is fleeing would put it back in the same blast radius.
    #[test]
    fn retry_never_lands_on_the_just_failed_board(
        seed in 0u64..1_000,
        // Boards 0-10 only: the boards after the target stay idle, so
        // off-board capacity is guaranteed and the soft anti-affinity has
        // no excuse to fall back. (For board 11 every other board would be
        // full and falling back on-board is the correct behavior.)
        board in 0usize..11,
        at in 10u64..200,
    ) {
        let mut eng = RecoveryEngine::new(
            OrchestratorConfig::default(),
            RecoveryConfig::default(),
            seed,
        );
        let video = socc_video::vbench::by_id("V1").expect("vbench V1");
        // BinPack fills SoCs in index order at 13 streams each: fill every
        // SoC of the boards before the target, then exactly the target
        // board's first SoC. Its other four SoCs stay idle, so same-board
        // room exists and only the anti-affinity keeps retries off it.
        let failed_soc = board * 5;
        let mut victims = Vec::new();
        for i in 0..(failed_soc + 1) * 13 {
            let id = eng
                .submit(WorkloadSpec::LiveStreamCpu { video: video.clone() })
                .expect("capacity");
            prop_assert_eq!(eng.orchestrator().placement_of(id), Some(i / 13));
            if i / 13 == failed_soc {
                victims.push(id);
            }
        }
        eng.run(
            &[FaultEvent {
                at: SimTime::from_secs(at),
                soc: failed_soc,
                kind: FaultKind::Flash,
            }],
            SimTime::from_secs(at + 100),
        );
        for id in &victims {
            prop_assert_eq!(eng.fates()[id].fate, WorkloadFate::Running);
            prop_assert_eq!(eng.fates()[id].migrations, 1, "exactly one migration");
        }
        // Re-placement gives victims fresh orchestrator ids, so check the
        // property structurally: the failed board's other four SoCs were
        // empty before the fault, and anti-affinity must keep them empty —
        // every retry went to another board.
        for s in eng.domains().socs_of_board(board) {
            if s == failed_soc {
                continue;
            }
            prop_assert_eq!(
                eng.orchestrator().cluster().socs[s].workload_count(),
                0,
                "retry landed on soc {} of the failed board",
                s
            );
        }
        prop_assert_eq!(eng.telemetry().counter("ft.workloads_lost"), 0);
        prop_assert_eq!(eng.telemetry().counter("ft.anti_affinity_fallbacks"), 0);
    }

    /// Determinism: the same seed and storm produce byte-identical telemetry
    /// and the same availability, bit for bit.
    #[test]
    fn recovery_same_seed_is_byte_identical(
        seed in 0u64..1_000,
        n_live in 1usize..40,
        faults in prop::collection::vec((1u64..500, 0usize..60, 0u8..5), 0..8)
    ) {
        let a = storm(seed, 3, n_live, 3, &faults);
        let b = storm(seed, 3, n_live, 3, &faults);
        prop_assert_eq!(a.telemetry().render(), b.telemetry().render());
        prop_assert!(a.availability() == b.availability(), "availability drifted");
        prop_assert_eq!(a.fates().len(), b.fates().len());
    }
}

// ---------------------------------------------------------------------------
// The recovery loop's typed metrics read exactly like a string-keyed sink.
// ---------------------------------------------------------------------------

use integration_tests::TelemetrySink;
use socc_cluster::detector::DetectedClass;
use socc_cluster::telemetry::{FtCounter, FtHistogram, FtTelemetry};

proptest! {
    /// Random bumps (including by zero) and observations (including
    /// negative ones, which land in the underflow bucket) go to an
    /// `FtTelemetry` by key and to a `TelemetrySink` by name. Both then
    /// render byte for byte alike, list the same counters in the same
    /// order and answer every read by name with the same bits.
    #[test]
    fn ft_telemetry_reads_like_a_sink(
        ops in prop::collection::vec(
            (0u8..4, 0..FtCounter::ALL.len(), 0u64..4, -5.0f64..5e6),
            0..200,
        )
    ) {
        let mut sink = TelemetrySink::default();
        let mut typed = FtTelemetry::new();
        for &(kind, slot, delta, value) in &ops {
            let class = DetectedClass::ALL[slot % DetectedClass::ALL.len()];
            match kind {
                0 => {
                    let c = FtCounter::ALL[slot];
                    typed.add(c, delta);
                    sink.add(c.name(), delta);
                }
                1 => {
                    typed.detected(class);
                    sink.add(class.detected_metric(), 1);
                }
                2 => {
                    let h = FtHistogram::ALL[slot % FtHistogram::ALL.len()];
                    typed.observe(h, value);
                    sink.observe(h.name(), value);
                }
                _ => {
                    typed.observe_mttr(class, value);
                    sink.observe(class.mttr_metric(), value);
                }
            }
        }
        prop_assert_eq!(typed.render(), sink.render());
        let listed: Vec<(String, u64)> = typed
            .counters()
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        prop_assert_eq!(listed, sink.counters());
        let counters = FtCounter::ALL.iter().map(|c| c.name());
        let detected = DetectedClass::ALL.iter().map(|c| c.detected_metric());
        for name in counters.chain(detected).chain(["ft.unknown"]) {
            prop_assert_eq!(typed.counter(name), sink.counter(name), "{}", name);
        }
        let histograms = FtHistogram::ALL.iter().map(|h| h.name());
        let mttr = DetectedClass::ALL.iter().map(|c| c.mttr_metric());
        for name in histograms.chain(mttr).chain(["ft.unknown_ms"]) {
            prop_assert_eq!(typed.histogram_count(name), sink.histogram_count(name));
            prop_assert_eq!(
                typed.histogram_mean(name).to_bits(),
                sink.histogram_mean(name).to_bits()
            );
            for q in [0.0, 0.5, 0.99, 1.0] {
                prop_assert_eq!(
                    typed.histogram_quantile(name, q).map(f64::to_bits),
                    sink.histogram_quantile(name, q).map(f64::to_bits)
                );
            }
        }
    }
}
