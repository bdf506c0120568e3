//! Table/figure reproduction: one function per paper artifact, each
//! returning the formatted table the `repro` binary prints.

use socc_cluster::capacity::network_bound_analysis;
use socc_cluster::experiments as exp;
use socc_cluster::faults::FaultInjector;
use socc_cluster::orchestrator::OrchestratorConfig;
use socc_cluster::recovery::{RecoveryConfig, RecoveryEngine, WorkloadFate};
use socc_cluster::workload::WorkloadSpec;
use socc_dl::parallel::sweep as collab_sweep;
use socc_dl::{DType, ModelId};
use socc_hw::generations::{longitudinal_devices, SocGeneration};
use socc_hw::microbench::{BenchPlatform, MicroBenchmark};
use socc_hw::spec::ServerSpec;
use socc_sim::report::{dollars, fnum, pct, Table};
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};
use socc_tco::tpc::{archive_tpc, dl_tpc, live_tpc, HardwareRow};
use socc_tco::Platform;
use socc_workloads::gaming::{trace_stats, GamingTraceConfig};
use socc_workloads::vmtrace::VmPopulation;

/// Fig. 1 — CDF of VM resource subscriptions and fit-in-SoC fractions.
pub(crate) fn fig1() -> String {
    let mut rng = SimRng::seed(1);
    let mut out = String::new();
    for pop in [VmPopulation::Azure, VmPopulation::AlibabaEns] {
        let n = 100_000;
        let vms = pop.sample_many(n, &mut rng);
        let mut cores: Vec<f64> = vms.iter().map(|v| v.cores as f64).collect();
        let cdf = socc_workloads::vmtrace::empirical_cdf(&mut cores);
        let fit = vms.iter().filter(|v| v.fits_in_soc()).count() as f64 / n as f64;
        let mut t = Table::new(["vCPU cores", "CDF"]).with_title(format!(
            "Fig.1 {:?} ({} synthetic VMs; paper dataset {})",
            pop,
            n,
            pop.dataset_size()
        ));
        for (v, f) in &cdf {
            t.row([fnum(*v, 0), pct(*f)]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "fits in one SoC: {} (paper: {})\n\n",
            pct(fit),
            pct(pop.paper_fit_fraction())
        ));
    }
    out
}

/// Table 1 — hardware platforms.
pub(crate) fn tab1() -> String {
    let cluster = ServerSpec::soc_cluster();
    let edge = ServerSpec::traditional_edge();
    let mut t = Table::new(["Hardware", "SoC Cluster", "Traditional Server"])
        .with_title("Table 1: platforms");
    t.row(["CPU", &cluster.cpu_desc, &edge.cpu_desc]);
    t.row(["GPU", &cluster.gpu_desc, &edge.gpu_desc]);
    t.row(["Memory", &cluster.memory_desc, &edge.memory_desc]);
    t.row(["Disk/Flash", &cluster.storage_desc, &edge.storage_desc]);
    t.row(["OS", &cluster.os_desc, &edge.os_desc]);
    t.row(["Network", &cluster.network_desc, &edge.network_desc]);
    t.row([
        "Form Factor".to_string(),
        format!("{} RU", cluster.rack_units),
        format!("{} RU", edge.rack_units),
    ]);
    t.render()
}

/// Table 2 — Geekbench-style micro-benchmarks.
pub(crate) fn tab2() -> String {
    let mut t = Table::new([
        "Benchmark",
        "Ours/core",
        "Trad/core",
        "G2/core",
        "G3/core",
        "Ours",
        "Trad.",
        "G2",
        "G3",
    ])
    .with_title("Table 2: micro-benchmarks (per-core | whole server)");
    for b in MicroBenchmark::ALL {
        let per: Vec<String> = BenchPlatform::ALL
            .iter()
            .map(|p| fnum(p.per_core(b), 1))
            .collect();
        let whole: Vec<String> = BenchPlatform::ALL
            .iter()
            .map(|p| fnum(p.whole_server_modeled(b), 0))
            .collect();
        t.row([
            b.label().to_string(),
            per[0].clone(),
            per[1].clone(),
            per[2].clone(),
            per[3].clone(),
            whole[0].clone(),
            whole[1].clone(),
            whole[2].clone(),
            whole[3].clone(),
        ]);
    }
    t.render()
}

/// Fig. 5 — 38 h in-the-wild gaming traffic.
pub(crate) fn fig5() -> String {
    let cfg = GamingTraceConfig::default();
    let mut rng = SimRng::seed(5);
    let trace = cfg.generate(
        SimDuration::from_hours(38),
        SimDuration::from_mins(30),
        &mut rng,
    );
    let stats = trace_stats(&trace, 20.0).expect("non-empty trace");
    let mut t = Table::new(["hour", "Gbps"]).with_title("Fig.5: gaming traffic (30-min samples)");
    for (time, v) in trace.samples() {
        t.row([fnum(time.as_hours_f64(), 1), fnum(*v, 2)]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "peak {:.2} Gbps, trough {:.2} Gbps, dynamic range {:.1}x (paper: up to 25x), mean utilization {} of 20 Gbps (paper: <20%)\n",
        stats.peak_gbps, stats.trough_gbps, stats.dynamic_range, pct(stats.mean_utilization)
    ));
    out
}

/// Table 3 — video metadata and network-bound analysis.
pub(crate) fn tab3() -> String {
    let mut t = Table::new([
        "Video",
        "Resolution",
        "FPS",
        "Entropy",
        "Source",
        "Target",
        "CPU",
        "HW",
        "PCB Mbps",
        "PCB%",
        "Server Mbps",
        "Server%",
    ])
    .with_title("Table 3: vbench videos + network bound analysis");
    let videos = socc_video::vbench::videos();
    for (v, row) in videos.iter().zip(network_bound_analysis()) {
        t.row([
            format!("{}: {}", v.id, v.name),
            format!("{}", v.resolution),
            fnum(v.fps, 0),
            fnum(v.entropy, 1),
            format!("{:.1} Mbps", v.source_bitrate.as_mbps()),
            format!("{:.1} Mbps", v.target_bitrate.as_mbps()),
            format!("{}", row.cpu_streams),
            format!("{}", row.hw_streams),
            fnum(row.pcb_mbps, 0),
            pct(row.pcb_frac),
            fnum(row.server_mbps, 0),
            pct(row.server_frac),
        ]);
    }
    t.render()
}

/// Table 3 (full backend matrix) — `max_live_streams` for every
/// transcode unit × vbench video, per unit and per whole server.
pub(crate) fn tab3_full() -> String {
    use socc_video::backend::TranscodeUnit;
    let mut t = Table::new([
        "Video",
        "SoC CPU",
        "SoC HW codec",
        "Intel CPU",
        "NVIDIA A40",
        "SoC CPU/server",
        "SoC HW/server",
        "Intel/server",
        "A40/server",
    ])
    .with_title("Table 3 (full): max concurrent live streams per unit and per server");
    for v in socc_video::vbench::videos() {
        let per_unit: Vec<usize> = TranscodeUnit::ALL
            .iter()
            .map(|u| u.max_live_streams(&v))
            .collect();
        let per_server: Vec<usize> = TranscodeUnit::ALL
            .iter()
            .zip(&per_unit)
            .map(|(u, n)| n * u.units_per_server())
            .collect();
        t.row([
            v.id.to_string(),
            format!("{}", per_unit[0]),
            format!("{}", per_unit[1]),
            format!("{}", per_unit[2]),
            format!("{}", per_unit[3]),
            format!("{}", per_server[0]),
            format!("{}", per_server[1]),
            format!("{}", per_server[2]),
            format!("{}", per_server[3]),
        ]);
    }
    t.render()
}

/// Fig. 6 — transcoding energy efficiency.
pub(crate) fn fig6() -> String {
    let mut a = Table::new([
        "Video",
        "SoC CPU",
        "Intel CPU",
        "A40",
        "SoC/Intel",
        "SoC/A40",
    ])
    .with_title("Fig.6a: live streaming TpE (streams/W)");
    for row in exp::fig6a_live_tpe() {
        a.row([
            row.video_id.clone(),
            fnum(row.soc_cpu, 3),
            fnum(row.intel, 3),
            fnum(row.a40, 3),
            fnum(row.soc_cpu / row.intel, 2),
            fnum(row.soc_cpu / row.a40, 2),
        ]);
    }
    let mut b = Table::new(["Video", "SoC CPU", "Intel CPU", "A40"])
        .with_title("Fig.6b: archive TpE (frames/J)");
    for row in exp::fig6b_archive_tpe() {
        b.row([
            row.video_id.clone(),
            fnum(row.soc_cpu, 2),
            fnum(row.intel, 2),
            fnum(row.a40, 2),
        ]);
    }
    format!("{}\n{}", a.render(), b.render())
}

/// Fig. 7 — live TpE vs concurrent streams (V4 and V5).
pub(crate) fn fig7() -> String {
    let mut out = String::new();
    for id in ["V4", "V5"] {
        let video = socc_video::vbench::by_id(id).expect("vbench video");
        let mut t = Table::new(["streams", "SoC CPU", "Intel CPU", "A40"])
            .with_title(format!("Fig.7: live TpE (streams/W) vs load, {id}"));
        for p in exp::fig7_sweep(&video, 20) {
            t.row([
                format!("{}", p.streams),
                fnum(p.soc_cpu, 3),
                fnum(p.intel, 3),
                fnum(p.a40, 3),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 8 — SoC CPU vs hardware codec.
pub(crate) fn fig8() -> String {
    let mut t = Table::new([
        "Video",
        "CPU streams",
        "HW streams",
        "gain",
        "CPU TpE",
        "HW TpE",
        "TpE gain",
    ])
    .with_title("Fig.8: whole-cluster live transcoding, CPU vs HW codec");
    for row in exp::fig8_hw_codec() {
        t.row([
            row.video_id.clone(),
            format!("{}", row.cpu_streams),
            format!("{}", row.hw_streams),
            fnum(row.hw_streams as f64 / row.cpu_streams as f64, 2),
            fnum(row.cpu_tpe, 3),
            fnum(row.hw_tpe, 3),
            fnum(row.hw_tpe / row.cpu_tpe, 2),
        ]);
    }
    t.render()
}

/// Fig. 9 — target vs output bitrate.
pub(crate) fn fig9() -> String {
    let mut t = Table::new([
        "Video",
        "target kbps",
        "source kbps",
        "x264 out",
        "MediaCodec out",
    ])
    .with_title("Fig.9: live transcoding bitrate tracking");
    for row in exp::fig9_bitrates() {
        t.row([
            row.video_id.clone(),
            fnum(row.target_kbps, 1),
            fnum(row.source_kbps, 1),
            fnum(row.x264_kbps, 1),
            fnum(row.mediacodec_kbps, 1),
        ]);
    }
    t.render()
}

/// Fig. 10 — transcoding quality (PSNR).
pub(crate) fn fig10() -> String {
    let mut t = Table::new(["Video", "x264 (SoC)", "x264 (Intel)", "NVENC", "MediaCodec"])
        .with_title("Fig.10: PSNR (dB) at identical bitrate constraints");
    for row in exp::fig10_quality() {
        t.row([
            row.video_id.clone(),
            fnum(row.x264_soc, 2),
            fnum(row.x264_intel, 2),
            fnum(row.nvenc, 2),
            fnum(row.mediacodec, 2),
        ]);
    }
    t.render()
}

/// Fig. 11 — DL serving latency and energy efficiency.
pub(crate) fn fig11() -> String {
    let mut t = Table::new([
        "Engine",
        "Model",
        "Prec",
        "Batch",
        "Latency ms",
        "samples/J",
    ])
    .with_title("Fig.11: DL serving performance");
    for row in exp::fig11_dl_serving() {
        t.row([
            row.engine.to_string(),
            row.model.to_string(),
            row.dtype.to_string(),
            format!("{}", row.batch),
            fnum(row.latency_ms, 1),
            fnum(row.samples_per_joule, 2),
        ]);
    }
    t.render()
}

/// Fig. 12 — energy efficiency under offered load.
pub(crate) fn fig12() -> String {
    let loads = [
        5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 1500.0, 1800.0,
    ];
    let mut out = String::new();
    for (model, dtype) in [
        (ModelId::ResNet50, DType::Fp32),
        (ModelId::ResNet152, DType::Fp32),
    ] {
        let mut t =
            Table::new(["offered fps", "cluster s/J", "A100 s/J", "SoCs awake"]).with_title(
                format!("Fig.12: efficiency vs load, {} {}", model.label(), "FP32"),
            );
        for p in exp::fig12_load_sweep(model, dtype, &loads) {
            t.row([
                fnum(p.offered_fps, 0),
                fnum(p.cluster, 2),
                fnum(p.a100, 2),
                format!("{}", p.socs_active),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 13 — SoC-collaborative inference.
pub(crate) fn fig13() -> String {
    let mut out = String::new();
    for pipelined in [false, true] {
        let title = if pipelined {
            "Fig.13 (right): tensor parallelism with pipelining"
        } else {
            "Fig.13 (left): tensor parallelism"
        };
        let mut t = Table::new([
            "SoCs",
            "compute ms",
            "comm ms",
            "total ms",
            "comm share",
            "speedup",
        ])
        .with_title(title);
        let reports = collab_sweep(ModelId::ResNet50, 5, pipelined, 1.0);
        let single = reports[0].total.as_millis_f64();
        for r in &reports {
            t.row([
                format!("{}", r.socs),
                fnum(r.compute.as_millis_f64(), 1),
                fnum(r.comm.as_millis_f64(), 1),
                fnum(r.total.as_millis_f64(), 1),
                pct(r.comm_share()),
                fnum(single / r.total.as_millis_f64(), 2),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Table 4 — CapEx/OpEx/monthly TCO.
pub(crate) fn tab4() -> String {
    let mut out = String::new();
    for platform in Platform::ALL {
        let b = socc_tco::breakdown(platform);
        let mut t = Table::new(["Component", "Cost"]).with_title(format!(
            "Table 4: {} (avg peak {} W)",
            platform.label(),
            fnum(b.avg_peak_power_w, 0)
        ));
        for item in platform.capex_items() {
            t.row([item.name.to_string(), dollars(item.cost)]);
        }
        t.row(["Total CapEx".to_string(), dollars(b.total_capex)]);
        t.row(["CapEx / 36 months".to_string(), dollars(b.monthly_capex)]);
        t.row(["Monthly kWh (50% util)".to_string(), fnum(b.monthly_kwh, 0)]);
        t.row([
            "Server electricity".to_string(),
            dollars(b.server_electricity),
        ]);
        t.row([
            "PUE overhead (PUE=2.0)".to_string(),
            dollars(b.pue_overhead),
        ]);
        t.row([
            "Monthly electricity".to_string(),
            dollars(b.monthly_electricity),
        ]);
        t.row(["Monthly TCO".to_string(), dollars(b.monthly_tco)]);
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Table 5 — throughput per cost.
pub(crate) fn tab5() -> String {
    let videos = socc_video::vbench::videos();
    let mut out = String::new();

    let mut live = Table::new(["Hardware", "V1", "V2", "V3", "V4", "V5", "V6"])
        .with_title("Table 5: live streaming TpC (streams/$)");
    let mut archive = Table::new(["Hardware", "V1", "V2", "V3", "V4", "V5", "V6"])
        .with_title("Table 5: archive TpC (frames/s/$)");
    for row in HardwareRow::ALL {
        let live_cells: Vec<String> = videos
            .iter()
            .map(|v| live_tpc(row, v).map_or("-".into(), |x| fnum(x, 3)))
            .collect();
        if live_cells.iter().any(|c| c != "-") {
            let mut cells = vec![row.label().to_string()];
            cells.extend(live_cells);
            live.row(cells);
        }
        let arch_cells: Vec<String> = videos
            .iter()
            .map(|v| archive_tpc(row, v).map_or("-".into(), |x| fnum(x, 3)))
            .collect();
        if arch_cells.iter().any(|c| c != "-") {
            let mut cells = vec![row.label().to_string()];
            cells.extend(arch_cells);
            archive.row(cells);
        }
    }
    out.push_str(&live.render());
    out.push('\n');
    out.push_str(&archive.render());
    out.push('\n');

    let mut dl = Table::new([
        "Hardware",
        "R-50 FP32",
        "R-152 FP32",
        "YOLO FP32",
        "BERT FP32",
        "R-50 INT8",
        "R-152 INT8",
    ])
    .with_title("Table 5: DL serving TpC (samples/s/$)");
    let columns: [(ModelId, DType); 6] = [
        (ModelId::ResNet50, DType::Fp32),
        (ModelId::ResNet152, DType::Fp32),
        (ModelId::YoloV5x, DType::Fp32),
        (ModelId::BertBase, DType::Fp32),
        (ModelId::ResNet50, DType::Int8),
        (ModelId::ResNet152, DType::Int8),
    ];
    for row in HardwareRow::ALL {
        let mut cells = vec![row.label().to_string()];
        let mut any = false;
        for (model, dtype) in columns {
            match dl_tpc(row, model, dtype) {
                Some(x) => {
                    any = true;
                    cells.push(fnum(x, 3));
                }
                None => cells.push("-".into()),
            }
        }
        if any {
            dl.row(cells);
        }
    }
    out.push_str(&dl.render());
    out
}

/// §8 what-if — availability and goodput under the closed recovery loop,
/// sweeping an accelerated annual-failure-rate multiplier against the
/// failure-detection window. The cluster is loaded adversarially: 55 SoCs
/// are pinned by whole-SoC archive jobs (batch priority), and 40 live
/// streams share the 5 remaining SoCs, so every fault forces the loop to
/// migrate, retry with backoff, shed batch work, or concede a loss.
pub(crate) fn avail() -> String {
    let horizon = SimDuration::from_hours(1);
    let socs = 60;
    let mut t = Table::new([
        "AFR x",
        "win s",
        "faults",
        "det",
        "migr",
        "retry",
        "pcycle",
        "shed",
        "lost",
        "det p99 ms",
        "MTTR p50 ms",
        "goodput",
        "avail",
    ])
    .with_title(format!(
        "avail: accelerated AFR x detection window ({socs} SoCs, {} horizon, seed 7)",
        horizon
    ));
    for mult in [2_000.0, 8_000.0] {
        for window_s in [1u64, 3, 10] {
            let base = FaultInjector {
                thermal_afr: 0.05,
                link_afr: 0.05,
                ..FaultInjector::default()
            };
            let injector = FaultInjector {
                flash_afr: base.flash_afr * mult,
                hang_afr: base.hang_afr * mult,
                memory_afr: base.memory_afr * mult,
                thermal_afr: base.thermal_afr * mult,
                link_afr: base.link_afr * mult,
                ..base
            };
            let config = RecoveryConfig {
                detection_window: SimDuration::from_secs(window_s),
            };
            let mut eng = RecoveryEngine::new(OrchestratorConfig::default(), config, 7);
            let video = socc_video::vbench::by_id("V1").expect("vbench V1");
            for _ in 0..(socs - 5) {
                eng.submit(WorkloadSpec::ArchiveJob {
                    video: video.clone(),
                    frames: 100_000_000,
                })
                .expect("archive capacity");
            }
            for _ in 0..40 {
                eng.submit(WorkloadSpec::LiveStreamCpu {
                    video: video.clone(),
                })
                .expect("live capacity");
            }
            let submitted = eng.fates().len();
            let faults = injector.schedule(socs, horizon, &mut SimRng::seed(0xFA));
            eng.run(&faults, SimTime::ZERO + horizon);
            let tele = eng.telemetry();
            let ok = eng
                .fates()
                .values()
                .filter(|r| matches!(r.fate, WorkloadFate::Running | WorkloadFate::Completed))
                .count();
            let q = |name: &str, q: f64| {
                tele.histogram_quantile(name, q)
                    .map_or("-".to_string(), |ms| fnum(ms, 0))
            };
            t.row([
                fnum(mult, 0),
                format!("{window_s}"),
                format!("{}", tele.counter("ft.faults_injected")),
                format!("{}", tele.counter("ft.faults_detected")),
                format!("{}", tele.counter("ft.migrations")),
                format!("{}", tele.counter("ft.retries")),
                format!("{}", tele.counter("ft.power_cycles")),
                format!("{}", tele.counter("ft.workloads_shed")),
                format!("{}", tele.counter("ft.workloads_lost")),
                q("ft.detection_ms", 0.99),
                q("ft.mttr_ms", 0.5),
                pct(ok as f64 / submitted as f64),
                format!("{:.4}%", 100.0 * eng.availability()),
            ]);
        }
    }
    let mut out = t.render();
    out.push_str(
        "fixed seeds end to end: same invocation is byte-identical. Shape: the \
         detection window sets the MTTR floor (p50 tracks window + sweep cadence), \
         and raising AFR degrades goodput gracefully — batch jobs are shed or lost \
         before live streams, which keep >98% availability even at 8000x \
         accelerated aging.\n",
    );
    out
}

/// §8 what-if — availability under correlated failure domains vs an
/// independent-failure model at equal per-SoC death rate. Each chaos
/// campaign pairs a correlated schedule (whole-board drops, fabric
/// partitions, PSU brownouts) with an independent twin that re-spreads
/// every board burst as five single-SoC deaths at seeded uniform times, so
/// the gap isolates the cost of *correlation* — same failure volume,
/// different arrival shape.
pub(crate) fn fig_avail_domains() -> String {
    let opts = crate::chaos::ChaosOptions {
        campaigns: 12,
        seed: 42,
        ..crate::chaos::ChaosOptions::default()
    };
    let report = crate::chaos::run_chaos(&opts);
    let mut t = Table::new([
        "board AFR x",
        "pairs",
        "indep avail",
        "corr avail",
        "gap",
        "corr sheds",
        "corr losses",
    ])
    .with_title(format!(
        "fig-avail-domains: correlated vs independent failures ({} campaign pairs, seed {})",
        opts.campaigns, opts.seed
    ));
    // Campaign k's board-drop intensity tier is k % 3 + 1 (see
    // `chaos::campaign_schedules`); group the sweep by tier.
    for tier in 1usize..=3 {
        let of_tier = |correlated: bool| {
            report
                .outcomes
                .iter()
                .filter(|o| o.index % 3 + 1 == tier && o.correlated == correlated)
                .collect::<Vec<_>>()
        };
        let mean = |os: &[&crate::chaos::CampaignOutcome]| {
            os.iter().map(|o| o.availability).sum::<f64>() / os.len().max(1) as f64
        };
        let corr = of_tier(true);
        let indep = of_tier(false);
        let (ca, ia) = (mean(&corr), mean(&indep));
        t.row([
            format!("{tier}"),
            format!("{}", corr.len()),
            format!("{:.4}%", 100.0 * ia),
            format!("{:.4}%", 100.0 * ca),
            format!("{:.4}pp", 100.0 * (ia - ca)),
            format!("{}", corr.iter().map(|o| o.sheds).sum::<u64>()),
            format!("{}", corr.iter().map(|o| o.losses).sum::<u64>()),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "overall: independent {:.4} vs correlated {:.4} (gap {:.4}); a burst of five \
         co-failing SoCs overwhelms the instantaneous placement headroom that a \
         trickle of the same deaths would be absorbed by, and brownouts shed batch \
         work that independent deaths never touch. {} invariant violations.\n",
        report.independent_mean,
        report.correlated_mean,
        report.independent_mean - report.correlated_mean,
        report.violations.len(),
    ));
    out
}

/// Table 6 — longitudinal device registry.
pub(crate) fn tab6() -> String {
    let mut t = Table::new(["Device", "SoC", "RAM", "OS", "Release"])
        .with_title("Table 6: longitudinal study devices");
    for d in longitudinal_devices() {
        t.row([
            d.device.to_string(),
            d.soc.name().to_string(),
            format!("{} GB", d.ram_gb),
            d.os.to_string(),
            d.release.to_string(),
        ]);
    }
    t.render()
}

/// Table 7 — physical vs virtualized SoCs.
pub(crate) fn tab7() -> String {
    let mut t = Table::new([
        "Model",
        "Processor",
        "Phy ms",
        "Vir ms",
        "Phy mem%",
        "Vir mem%",
    ])
    .with_title("Table 7: physical vs containerized Android");
    for row in exp::tab7_virtualization() {
        t.row([
            row.model.to_string(),
            row.processor.to_string(),
            fnum(row.phy_ms, 1),
            fnum(row.vir_ms, 1),
            fnum(row.phy_mem_pct, 1),
            fnum(row.vir_mem_pct, 1),
        ]);
    }
    t.render()
}

/// Fig. 14 — six-generation SoC evolution.
pub(crate) fn fig14() -> String {
    let mut t = Table::new([
        "SoC",
        "Year",
        "R50 CPU ms",
        "R50 GPU ms",
        "R50 DSP ms",
        "V4 CPU fps",
        "V4 HW fps",
        "V5 CPU fps",
        "V5 HW fps",
    ])
    .with_title("Fig.14: SoC performance evolution 2017-2022");
    for row in exp::fig14_longitudinal() {
        t.row([
            row.generation.name().to_string(),
            format!("{}", row.generation.release_year()),
            fnum(row.dl_cpu_ms, 1),
            fnum(row.dl_gpu_ms, 1),
            row.dl_dsp_ms.map_or("-".into(), |v| fnum(v, 1)),
            fnum(row.v4_cpu_fps, 0),
            fnum(row.v4_hw_fps, 0),
            fnum(row.v5_cpu_fps, 0),
            fnum(row.v5_hw_fps, 0),
        ]);
    }
    let base = SocGeneration::Sd865;
    let mut out = t.render();
    out.push_str(&format!(
        "anchors: CPU 4.8x, GPU 3.2x (2017->2022); DSP 8.4x (845->8+Gen1); V4 CPU on {} = 2.3x of SD835\n",
        base.name()
    ));
    out
}

/// Live transcoding farm day (beyond the paper's artifacts): the default
/// production-scale diurnal day on one enclosure, advanced by the
/// analytic steady-state fast path, with a board-down fault at the
/// 21:00 peak and GOP-checkpoint-priced migrations.
pub(crate) fn farm() -> String {
    use socc_cluster::videofarm::{generate_schedule, run_farm, FarmConfig, FarmMode};
    let cfg = FarmConfig::default();
    let schedule = generate_schedule(&cfg);
    let r = run_farm(&cfg, &schedule, FarmMode::Analytic, &|| 0);
    let mut t = Table::new(["metric", "value"]).with_title(format!(
        "Live transcoding farm: {} SoCs, {} h day, fault at t={} s",
        cfg.socs,
        cfg.horizon_secs / 3600,
        cfg.fault.map_or(0, |f| f.at_secs),
    ));
    t.row([
        "sessions planned".into(),
        format!("{}", schedule.session_count()),
    ]);
    t.row([
        "admitted / rejected".into(),
        format!("{} / {}", r.admitted, r.rejected),
    ]);
    t.row([
        "hw / cpu encoded".into(),
        format!("{} / {}", r.hw_sessions, r.cpu_sessions),
    ]);
    t.row(["peak concurrent".into(), format!("{}", r.peak_concurrent)]);
    t.row(["live at fault".into(), format!("{}", r.concurrent_at_fault)]);
    t.row([
        "migrations / fault drops".into(),
        format!("{} / {}", r.migrations, r.fault_drops),
    ]);
    t.row([
        "MTTR mean / max".into(),
        format!(
            "{} / {} ms",
            fnum(r.mttr_mean_ms(), 1),
            fnum(r.mttr_max_ms, 1)
        ),
    ]);
    t.row([
        "checkpoint state moved".into(),
        format!("{} MB", fnum(r.checkpoint_bytes / 1e6, 1)),
    ]);
    t.row([
        "ABR switches / drops".into(),
        format!("{} / {}", r.abr_switches, r.abr_drops),
    ]);
    t.row([
        "mean PSNR".into(),
        format!("{} dB", fnum(r.mean_psnr_db(), 2)),
    ]);
    t.row([
        "energy / session-hour".into(),
        format!("{} J", fnum(r.energy_per_session_hour_j(), 0)),
    ]);
    t.row([
        "analytic spans vs events".into(),
        format!("{} vs {}", r.spans, schedule.event_count()),
    ]);
    t.render()
}

/// All experiment ids in paper order (what-if artifacts follow the paper's
/// tables/figures).
pub const ALL_IDS: [&str; 22] = [
    "fig1",
    "tab1",
    "tab2",
    "fig5",
    "tab3",
    "tab3_full",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "tab4",
    "tab5",
    "tab6",
    "tab7",
    "fig14",
    "avail",
    "fig-avail-domains",
    "farm",
];

/// Runs one experiment by id.
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "fig1" => fig1(),
        "tab1" => tab1(),
        "tab2" => tab2(),
        "fig5" => fig5(),
        "tab3" => tab3(),
        "tab3_full" => tab3_full(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "tab4" => tab4(),
        "tab5" => tab5(),
        "tab6" => tab6(),
        "tab7" => tab7(),
        "fig14" => fig14(),
        "avail" => avail(),
        "fig-avail-domains" => fig_avail_domains(),
        "farm" => farm(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use socc_sim::hash::{fnv1a, FNV_OFFSET};

    #[test]
    fn every_id_runs_and_produces_output() {
        // FNV-1a over every artifact's bytes in `ALL_IDS` order: a byte
        // that moves in any artifact moves this literal.
        let mut digest = FNV_OFFSET;
        for id in ALL_IDS {
            let out = run(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(out.len() > 100, "{id} output too short");
            digest = fnv1a(digest, out.as_bytes());
        }
        assert_eq!(format!("{digest:016x}"), "6ef9d1fda77dcc9e");
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig99").is_none());
    }

    #[test]
    fn tab5_contains_all_three_workloads() {
        let out = tab5();
        assert!(out.contains("live streaming TpC"));
        assert!(out.contains("archive TpC"));
        assert!(out.contains("DL serving TpC"));
        assert!(out.contains("SoC Cluster SoC-DSP"));
    }

    #[test]
    fn avail_is_deterministic_and_covers_the_sweep() {
        let a = avail();
        let b = avail();
        assert_eq!(a, b, "fixed seeds must give byte-identical output");
        // Two AFR multipliers × three windows = six data rows.
        let rows = a
            .lines()
            .filter(|l| l.starts_with("2000") || l.starts_with("8000"))
            .count();
        assert_eq!(rows, 6, "sweep rows missing:\n{a}");
        assert!(a.contains("win s"));
    }

    #[test]
    fn fig_avail_domains_shows_the_correlation_penalty() {
        let a = fig_avail_domains();
        assert_eq!(a, fig_avail_domains(), "fixed seeds must be byte-identical");
        assert!(a.contains("0 invariant violations"), "violations:\n{a}");
        // Three board-AFR tiers, four pairs each.
        assert_eq!(a.matches("pp").count(), 3, "tier rows missing:\n{a}");
        // The overall gap is positive: correlated sits strictly below.
        let overall = a.lines().find(|l| l.starts_with("overall:")).unwrap();
        assert!(
            !overall.contains("gap -") && !overall.contains("gap 0.0000"),
            "no correlation penalty:\n{a}"
        );
    }

    #[test]
    fn fig13_contains_both_variants() {
        let out = fig13();
        assert!(out.contains("with pipelining"));
        assert!(out.matches("Fig.13").count() == 2);
    }
}
