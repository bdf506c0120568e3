//! Extension studies beyond the paper's artifacts: the §8 what-ifs and the
//! operational analyses a production orchestrator needs.

use socc_cluster::colocation::colocation_study;
use socc_cluster::gaming::replay_gaming_trace;
use socc_cluster::whatif;
use socc_dl::parallel::sweep;
use socc_dl::pipeline;
use socc_dl::queueing::{max_rate_within_slo, simulate_tail};
use socc_dl::{DType, Engine, ModelId};
use socc_hw::dvfs::{DvfsDomain, Governor};
use socc_hw::generations::SocGeneration;
use socc_sim::report::{fnum, pct, Table};
use socc_sim::rng::SimRng;
use socc_sim::time::SimDuration;
use socc_tco::sensitivity::{opex_significance_price, CostAssumptions};
use socc_tco::Platform;
use socc_video::abr::{cluster_ladder_capacity, price_ladder, Ladder};
use socc_workloads::packing::consolidate_population;
use socc_workloads::vmtrace::VmPopulation;

/// Next-generation cluster projections (§8 / §7).
pub(crate) fn generations() -> String {
    let mut t = Table::new([
        "SoC generation",
        "V1 streams/SoC",
        "V1 streams/cluster",
        "R50 DSP ms",
        "R50 DSP cluster fps",
        "live TpE gain",
    ])
    .with_title("what-if: a cluster built from each SoC generation");
    for g in SocGeneration::ALL {
        let p = whatif::project_generation(g);
        t.row([
            g.name().to_string(),
            format!("{}", p.v1_cpu_streams),
            format!("{}", p.v1_cluster_streams),
            p.r50_dsp_ms.map_or("-".into(), |v| fnum(v, 1)),
            p.r50_dsp_cluster_fps.map_or("-".into(), |v| fnum(v, 0)),
            fnum(p.live_tpe_gain, 2),
        ]);
    }
    t.render()
}

/// Collaborative inference under upgraded fabrics (§8's network lever).
pub(crate) fn fabric() -> String {
    let mut out = String::new();
    for gbps in [1.0, 10.0, 100.0] {
        let mut t = Table::new(["SoCs", "compute ms", "comm ms", "total ms", "comm share"])
            .with_title(format!(
                "what-if: tensor parallelism on a {gbps:.0} Gbps fabric"
            ));
        for r in sweep(ModelId::ResNet50, 5, false, gbps) {
            t.row([
                format!("{}", r.socs),
                fnum(r.compute.as_millis_f64(), 1),
                fnum(r.comm.as_millis_f64(), 1),
                fnum(r.total.as_millis_f64(), 1),
                pct(r.comm_share()),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Tensor vs pipeline parallelism ablation.
pub(crate) fn partitioning() -> String {
    let mut t = Table::new([
        "Model",
        "SoCs",
        "TP latency ms",
        "PP latency ms",
        "TP fps",
        "PP fps",
    ])
    .with_title("what-if: tensor vs pipeline parallelism across SoCs");
    for model in [ModelId::ResNet50, ModelId::ResNet152] {
        for socs in [2usize, 3, 5] {
            let c = pipeline::compare(model, socs);
            t.row([
                model.label().to_string(),
                format!("{socs}"),
                fnum(c.tp_latency.as_millis_f64(), 1),
                fnum(c.pp_latency.as_millis_f64(), 1),
                fnum(c.tp_throughput, 1),
                fnum(c.pp_throughput, 1),
            ]);
        }
    }
    t.render()
}

/// Tail latency and SLO capacity per engine.
pub(crate) fn tail() -> String {
    let mut t = Table::new([
        "Engine",
        "Model",
        "service ms",
        "p99@70% ms",
        "max fps @50ms p99",
    ])
    .with_title("serving tail latency (FIFO queueing, Poisson arrivals)");
    let combos: [(Engine, ModelId, DType); 4] = [
        (Engine::QnnDsp, ModelId::ResNet50, DType::Int8),
        (Engine::QnnDsp, ModelId::ResNet152, DType::Int8),
        (Engine::TfLiteGpu, ModelId::ResNet50, DType::Fp32),
        (Engine::TvmIntel, ModelId::ResNet50, DType::Fp32),
    ];
    for (engine, model, dtype) in combos {
        let service = engine
            .latency(model, dtype, 1)
            .expect("supported")
            .as_millis_f64();
        let capacity = 1000.0 / service;
        let mut rng = SimRng::seed(11);
        let at70 = simulate_tail(
            engine,
            model,
            dtype,
            capacity * 0.7,
            SimDuration::from_secs(600),
            &mut rng,
        )
        .expect("supported");
        let max = max_rate_within_slo(engine, model, dtype, SimDuration::from_millis(50), 11)
            .expect("supported");
        t.row([
            engine.label().to_string(),
            model.label().to_string(),
            fnum(service, 1),
            fnum(at70.p99_ms, 1),
            fnum(max, 1),
        ]);
    }
    t.render()
}

/// VM fleet consolidation (Fig. 1 extension).
pub(crate) fn consolidation() -> String {
    let mut t = Table::new([
        "Population",
        "VMs",
        "SoC-eligible",
        "clusters needed",
        "trad. servers (whole fleet)",
        "SoC core util",
    ])
    .with_title("what-if: consolidating VM fleets onto SoC Clusters");
    let mut rng = SimRng::seed(77);
    for pop in [VmPopulation::Azure, VmPopulation::AlibabaEns] {
        let r = consolidate_population(pop, 6000, &mut rng);
        t.row([
            format!("{pop:?}"),
            format!("{}", r.total_vms),
            format!(
                "{} ({})",
                r.eligible,
                pct(r.eligible as f64 / r.total_vms as f64)
            ),
            format!("{}", r.clusters_needed),
            format!("{}", r.traditional_needed),
            pct(r.soc_core_utilization),
        ]);
    }
    t.render()
}

/// TCO sensitivity sweeps.
pub(crate) fn sensitivity() -> String {
    let mut out = String::new();
    let mut t = Table::new([
        "$/kWh",
        "cluster TCO",
        "GPU server TCO",
        "cluster OpEx share",
    ])
    .with_title("what-if: electricity price sweep (PUE 2.0, 36 months)");
    for price in [0.05, 0.0786, 0.15, 0.30, 0.60] {
        let a = CostAssumptions {
            electricity_usd_per_kwh: price,
            ..Default::default()
        };
        t.row([
            fnum(price, 3),
            fnum(a.monthly_tco(Platform::SocCluster), 0),
            fnum(a.monthly_tco(Platform::EdgeWithGpu), 0),
            pct(a.opex_share(Platform::SocCluster)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nelectricity price where OpEx reaches 25% of TCO: GPU server ${:.2}/kWh, cluster ${:.2}/kWh, CPU-only ${:.2}/kWh\n",
        opex_significance_price(Platform::EdgeWithGpu, 0.25),
        opex_significance_price(Platform::SocCluster, 0.25),
        opex_significance_price(Platform::EdgeWithoutGpu, 0.25),
    ));
    out
}

/// Gaming trace replay through the orchestrator.
pub(crate) fn gaming() -> String {
    let r = replay_gaming_trace(38, SimDuration::from_mins(15), 10.0, 42);
    let mut t =
        Table::new(["metric", "value"]).with_title("Fig.5 trace replayed on the orchestrator");
    t.row(["hours", &format!("{:.0}", r.hours)]);
    t.row(["peak sessions", &format!("{}", r.peak_sessions)]);
    t.row(["trough sessions", &format!("{}", r.trough_sessions)]);
    t.row(["peak power (W)", &format!("{:.0}", r.peak_power_w)]);
    t.row(["energy, sleep mgmt (kWh)", &format!("{:.2}", r.cluster_kwh)]);
    t.row([
        "energy, always awake (kWh)",
        &format!("{:.2}", r.always_awake_kwh),
    ]);
    t.row(["sleep savings", &pct(r.sleep_savings())]);
    t.row(["rejected sessions", &format!("{}", r.rejected)]);
    t.render()
}

/// DVFS governor comparison on a frame deadline.
pub(crate) fn dvfs() -> String {
    let mut t = Table::new(["domain", "governor", "OPP GHz", "busy ms", "energy mJ"])
        .with_title("what-if: DVFS governors on a 33 ms frame at 30% peak load");
    for domain in [DvfsDomain::kryo585_prime(), DvfsDomain::kryo585_gold()] {
        let deadline = SimDuration::from_millis(33);
        let cycles = domain.max_opp().freq.get() * 0.3 * deadline.as_secs_f64();
        for governor in [Governor::Performance, Governor::PaceToDeadline] {
            if let Some(r) = domain.energy_for(cycles, deadline, governor) {
                t.row([
                    domain.name.clone(),
                    format!("{governor:?}"),
                    fnum(r.opp.freq.as_ghz(), 2),
                    fnum(r.busy.as_millis_f64(), 1),
                    fnum(r.energy.as_joules() * 1e3, 2),
                ]);
            }
        }
    }
    t.render()
}

/// DL colocation on gaming-occupied SoCs (key finding 3).
pub(crate) fn colocation() -> String {
    let r = colocation_study(12, 0.8, 5);
    let mut t = Table::new(["metric", "value"])
        .with_title("colocation: free-riding INT8 serving on gaming SoCs");
    t.row(["hours", &format!("{:.0}", r.hours)]);
    t.row(["gaming-only energy (kWh)", &fnum(r.baseline_kwh, 2)]);
    t.row(["with colocation (kWh)", &fnum(r.colocated_kwh, 2)]);
    t.row(["DL samples served", &format!("{:.1}M", r.dl_samples / 1e6)]);
    t.row(["marginal samples/J", &fnum(r.marginal_samples_per_joule, 1)]);
    t.row([
        "dedicated A100 samples/J",
        &fnum(r.dedicated_a100_samples_per_joule, 1),
    ]);
    t.row(["advantage", &format!("{:.2}x", r.advantage())]);
    t.render()
}

/// ABR ladder capacity planning.
pub(crate) fn abr() -> String {
    let mut t = Table::new([
        "source",
        "rungs",
        "CPU pu",
        "egress Mbps",
        "ladders/SoC CPU",
        "ladders/SoC HW",
        "cluster (HW)",
    ])
    .with_title("ABR ladders: one ingest, many renditions");
    for id in ["V3", "V5", "V6"] {
        let v = socc_video::vbench::by_id(id).expect("vbench");
        let ladder = Ladder::standard(&v);
        let cost = price_ladder(&v, &ladder);
        t.row([
            id.to_string(),
            format!("{}", ladder.renditions.len()),
            fnum(cost.cpu_pu, 0),
            fnum(cost.net_mbps, 0),
            format!("{}", cost.ladders_per_soc_cpu),
            format!("{}", cost.ladders_per_soc_hw),
            format!("{}", cluster_ladder_capacity(&v, &ladder, true)),
        ]);
    }
    t.render()
}

/// Dynamic batching window sweep on the A100.
pub(crate) fn batching() -> String {
    use socc_dl::batcher::{simulate_batched, BatcherConfig};
    let mut t = Table::new(["window ms", "mean batch", "p50 ms", "p99 ms", "samples/J"])
        .with_title("dynamic batching at 200 fps offered (A100, R-50 FP32)");
    for delay_ms in [1u64, 5, 20, 50] {
        let mut rng = SimRng::seed(17);
        let r = simulate_batched(
            Engine::TensorRtA100,
            ModelId::ResNet50,
            DType::Fp32,
            200.0,
            BatcherConfig {
                max_batch: 64,
                max_delay: SimDuration::from_millis(delay_ms),
            },
            SimDuration::from_secs(120),
            &mut rng,
        )
        .expect("supported");
        t.row([
            format!("{delay_ms}"),
            fnum(r.mean_batch, 1),
            fnum(r.p50_ms, 1),
            fnum(r.p99_ms, 1),
            fnum(r.samples_per_joule, 2),
        ]);
    }
    t.render()
}

/// Latency/accuracy/energy Pareto front for serving.
pub(crate) fn pareto() -> String {
    use socc_dl::quant::{operating_points, pareto_front};
    let mut out = String::new();
    for model in [ModelId::ResNet50, ModelId::BertBase] {
        let points = operating_points(model);
        let front = pareto_front(&points);
        let mut t = Table::new([
            "engine",
            "prec",
            "batch",
            "latency ms",
            "accuracy",
            "samples/J",
        ])
        .with_title(format!(
            "{}: Pareto front ({} of {} operating points)",
            model.label(),
            front.len(),
            points.len()
        ));
        let mut sorted = front.clone();
        sorted.sort_by(|a, b| a.latency_ms.partial_cmp(&b.latency_ms).expect("finite"));
        for p in sorted {
            t.row([
                p.engine.label().to_string(),
                p.dtype.label().to_string(),
                format!("{}", p.batch),
                fnum(p.latency_ms, 1),
                fnum(p.accuracy, 1),
                fnum(p.samples_per_joule, 2),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// PSU conversion losses across the load range.
pub(crate) fn psu() -> String {
    use socc_hw::psu::RedundantPsu;
    use socc_sim::units::Power;
    let pair = RedundantPsu::cluster_default();
    let mut one = pair;
    one.fail_module();
    let mut t = Table::new(["DC load W", "wall W (2 PSU)", "wall W (1 PSU)", "overhead"])
        .with_title("PSU conversion losses (2x400 W redundant pair)");
    for w in [30.0, 100.0, 200.0, 400.0, 589.0] {
        let load = Power::watts(w);
        let two = pair.wall_power(load).map(|p| p.as_watts());
        let single = one.wall_power(load).map(|p| p.as_watts());
        t.row([
            fnum(w, 0),
            two.map_or("-".into(), |v| fnum(v, 0)),
            single.map_or("overload".into(), |v| fnum(v, 0)),
            two.map_or("-".into(), |v| pct(v / w - 1.0)),
        ]);
    }
    t.render()
}

/// All extension ids.
pub const ALL_IDS: [&str; 13] = [
    "generations",
    "fabric",
    "partitioning",
    "tail",
    "consolidation",
    "sensitivity",
    "gaming",
    "dvfs",
    "colocation",
    "abr",
    "batching",
    "pareto",
    "psu",
];

/// Runs one extension by id.
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "generations" => generations(),
        "fabric" => fabric(),
        "partitioning" => partitioning(),
        "tail" => tail(),
        "consolidation" => consolidation(),
        "sensitivity" => sensitivity(),
        "gaming" => gaming(),
        "dvfs" => dvfs(),
        "colocation" => colocation(),
        "abr" => abr(),
        "batching" => batching(),
        "pareto" => pareto(),
        "psu" => psu(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use socc_sim::hash::{fnv1a, FNV_OFFSET};

    #[test]
    fn every_extension_runs() {
        // FNV-1a over every study's bytes in `ALL_IDS` order: a byte that
        // moves in any study moves this literal.
        let mut digest = FNV_OFFSET;
        for id in ALL_IDS {
            let out = run(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(out.len() > 80, "{id} output too short");
            digest = fnv1a(digest, out.as_bytes());
        }
        assert_eq!(format!("{digest:016x}"), "15d16a861350552b");
    }

    #[test]
    fn unknown_extension_is_none() {
        assert!(run("nope").is_none());
    }
}
