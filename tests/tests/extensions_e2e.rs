//! Integration tests for the extension studies: §8 what-ifs, colocation,
//! partitioning strategies, ABR planning, and fabric failures.

use socc_cluster::whatif;
use socc_dl::parallel::{tensor_parallel, CollabConfig};
use socc_dl::{pipeline, DType, ModelId};
use socc_hw::generations::SocGeneration;
use socc_net::sim::FlowNet;
use socc_net::tcp::TcpModel;
use socc_net::topology::Topology;
use socc_net::LinkId;
use socc_sim::units::DataRate;
use socc_video::abr::{price_ladder, Ladder};

/// A next-generation cluster inherits §7's gains end to end: more streams,
/// faster DSP serving, strictly better TpE.
#[test]
fn generation_projection_chain_is_consistent() {
    let mut prev_streams = 0usize;
    for g in SocGeneration::ALL {
        let p = whatif::project_generation(g);
        assert!(p.v1_cluster_streams >= prev_streams, "{g:?}");
        prev_streams = p.v1_cluster_streams;
        assert_eq!(p.v1_cluster_streams, p.v1_cpu_streams * 60);
    }
    // The flagship projection roughly doubles the deployed fleet's value.
    let now = whatif::project_generation(SocGeneration::Sd865);
    let next = whatif::project_generation(SocGeneration::Sd8Gen1Plus);
    let gain = next.v1_cluster_streams as f64 / now.v1_cluster_streams as f64;
    assert!((1.6..=2.0).contains(&gain), "gain {gain}");
}

/// The §8 remedy stack composes: pipelining + a 10 Gbps fabric pushes the
/// 5-SoC comm share below 10%.
#[test]
fn remedies_compose_to_tame_communication() {
    let r50 = |pipelined, link_gbps| {
        tensor_parallel(
            ModelId::ResNet50,
            CollabConfig {
                socs: 5,
                pipelined,
                link_gbps,
            },
        )
    };
    let baseline = r50(false, 1.0);
    let pipelined = r50(true, 1.0);
    let fast = r50(false, 10.0);
    let both = r50(true, 10.0);
    assert!(baseline.comm_share() > 0.35);
    assert!(pipelined.comm_share() < baseline.comm_share());
    assert!(fast.comm_share() < baseline.comm_share());
    assert!(
        both.comm_share() < 0.16,
        "combined share {}",
        both.comm_share()
    );
    assert!(both.total < baseline.total);
}

/// Pipeline parallelism throughput advantage survives the full model zoo.
#[test]
fn pipeline_throughput_wins_across_models() {
    for model in [ModelId::ResNet50, ModelId::ResNet152, ModelId::YoloV5x] {
        let c = pipeline::compare(model, 4);
        assert!(
            c.pp_throughput > 1.5 * c.tp_throughput,
            "{model:?}: pp {} vs tp {}",
            c.pp_throughput,
            c.tp_throughput
        );
        assert!(c.tp_latency < c.pp_latency, "{model:?}");
    }
}

/// ABR ladders stay within every per-SoC budget simultaneously.
#[test]
fn abr_ladders_respect_all_budgets() {
    for id in ["V3", "V5", "V6"] {
        let v = socc_video::vbench::by_id(id).unwrap();
        let ladder = Ladder::standard(&v);
        let cost = price_ladder(&v, &ladder);
        let per_soc_hw = cost.ladders_per_soc_hw;
        let venus = socc_hw::codec::HwCodecModel::venus_sd865();
        assert!(
            per_soc_hw * cost.hw_sessions <= venus.max_sessions,
            "{id} sessions"
        );
        assert!(
            per_soc_hw as f64 * cost.hw_mb_s <= venus.throughput_mb_per_s * (1.0 + 1e-9),
            "{id} throughput"
        );
    }
}

/// A PCB uplink failure in the fabric strands exactly that PCB's external
/// streams; the rest of the cluster keeps its allocations.
#[test]
fn pcb_uplink_failure_is_contained() {
    let fabric = Topology::soc_cluster(60);
    let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
    let mut streams = Vec::new();
    for i in 0..60 {
        streams.push(
            net.add_stream(fabric.socs[i], fabric.external, DataRate::mbps(50.0))
                .unwrap(),
        );
    }
    // Find PCB 0's uplink toward the ESB.
    let uplink = (0..fabric.topology.link_count() as u32)
        .map(LinkId)
        .find(|&l| {
            let link = fabric.topology.link(l);
            link.src == fabric.pcbs[0] && link.dst == fabric.esb
        })
        .expect("uplink exists");
    let impact = net.fail_link(uplink);
    assert_eq!(impact.lost_streams.len(), 5, "exactly PCB 0's five SoCs");
    assert_eq!(net.active_streams(), 55);
    for (i, s) in streams.iter().enumerate().skip(5) {
        assert!(
            (net.stream_rate(*s).unwrap().as_mbps() - 50.0).abs() < 1e-6,
            "stream {i}"
        );
    }
}

/// Colocation study scales with the colocation fraction.
#[test]
fn colocation_scales_with_fraction() {
    let low = socc_cluster::colocation::colocation_study(6, 0.3, 11);
    let high = socc_cluster::colocation::colocation_study(6, 0.9, 11);
    assert!(high.dl_samples > 2.0 * low.dl_samples);
    assert!(high.colocated_kwh >= low.colocated_kwh);
    // Both beat dedicating an A100.
    assert!(low.advantage() > 1.0);
    assert!(high.advantage() > 1.0);
}

/// DSP INT8 serving on one SoC meets a 33 ms p99 SLO at a third of its
/// raw capacity — the "satisfactory for typical edge applications" claim
/// survives queueing.
#[test]
fn dsp_meets_interactive_slo_under_queueing() {
    let mut rng = socc_sim::rng::SimRng::seed(3);
    let report = socc_dl::queueing::simulate_tail(
        socc_dl::Engine::QnnDsp,
        ModelId::ResNet50,
        DType::Int8,
        38.0,
        socc_sim::time::SimDuration::from_secs(600),
        &mut rng,
    )
    .unwrap();
    assert!(report.p99_ms < 33.0, "p99 {}", report.p99_ms);
    assert!(report.utilization < 0.4);
}
