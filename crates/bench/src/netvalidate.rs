//! Cross-validation of the packet-level fabric engine against the
//! max-min flow model.
//!
//! The flow-level simulator ([`FlowNet`]) *asserts* that per-port fair
//! queueing plus TCP backpressure converges to the max-min fair
//! allocation; the packet-level engine ([`PacketNet`]) actually runs the
//! queues and the windows. This module makes the first claim falsifiable
//! by the second: it draws randomized scenarios — a `soc_cluster` fabric
//! of 4–10 SoCs, optionally with redundant PCB uplinks, a handful of
//! greedy flows, and a burst of uplink fail/repair churn — runs both
//! engines over the *same* topology and churn, and checks
//!
//! 1. the two engines agree on which flows each failure kills, and
//! 2. every surviving flow's packet-measured steady-state goodput lands
//!    within [`AGREEMENT_TOLERANCE`] of the flow model's prediction
//!    (`tcp.goodput(max-min fair share)`).
//!
//! A failing case is shrunk by the shared greedy shrinker
//! (`crate::campaign`: churn ops, then flows, then backup uplinks) to
//! a minimal counterexample, and the report carries a one-line repro
//! (`bench --run netval --seed N --cases 1`).
//!
//! The same harness re-runs the goodput calibration (the packet-measured
//! factor must reproduce the paper's ~903 Mbps within
//! `CALIBRATION_TOLERANCE`) and the incast pacing experiment (an
//! unpaced N-to-1 burst must drop; the paced storm must not, at bounded
//! completion-time inflation) so `bench --run netval` gates all three.

use std::fmt::Write as _;
use std::time::Instant;

use crate::campaign::{self, Shrink};
use crate::harness::JsonBuilder;
use crate::runner::json_escape;

use socc_cluster::evacuation::EvacuationPacing;
use socc_net::packet::{
    run_goodput_calibration, CalibrationReport, PacketConfig, PacketFlowId, PacketNet,
};
use socc_net::sim::{FlowNet, StreamId};
use socc_net::tcp::TcpModel;
use socc_net::topology::{ClusterFabric, LinkId, Topology};
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};
use socc_sim::units::{DataRate, DataSize};

/// Maximum relative error between a flow's packet-measured goodput and
/// the flow model's prediction. The slack covers the AIMD sawtooth, the
/// round-robin quantum, and slow-start recovery after churn — all real
/// effects the fluid model deliberately ignores.
pub const AGREEMENT_TOLERANCE: f64 = 0.12;

/// The calibrated goodput factor must reproduce the paper's measured
/// inter-SoC TCP goodput within this relative error.
pub(crate) const CALIBRATION_TOLERANCE: f64 = 0.05;

/// Paced incast may stretch total completion by at most this factor over
/// the unpaced burst. The bottleneck's drain rate is conserved, so pacing
/// mostly re-orders work; drops and retransmissions it avoids buy most of
/// the budget back.
pub const MAX_PACING_INFLATION: f64 = 1.3;

/// Demand attached to every flow-level stream: far above any link, so
/// streams behave as elastic (greedy) flows and the waterfiller gives
/// each its max-min fair share — the same regime the packet engine's
/// persistent flows run in.
const ELASTIC_DEMAND_GBPS: f64 = 10.0;

/// Settling time between churn operations.
const CHURN_SPACING: SimDuration = SimDuration::from_millis(5);

/// Warmup before the measurement window (slow-start recovery after the
/// last churn op takes a few dozen 0.44 ms RTTs).
const WARMUP: SimDuration = SimDuration::from_millis(30);

/// Goodput measurement window (several AIMD sawtooth periods).
const WINDOW: SimDuration = SimDuration::from_millis(40);

/// One randomized cross-validation scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// SoCs in the fabric (PCB count follows, five per board).
    pub(crate) socs: usize,
    /// PCBs given a second (backup) duplex uplink to the ESB, so uplink
    /// failures exercise rerouting and not just flow removal.
    pub(crate) backup_pcbs: Vec<usize>,
    /// Flows as `(src_soc, dst_soc)` index pairs.
    pub flows: Vec<(usize, usize)>,
    /// Uplink churn applied, in order, before the measurement window.
    pub churn: Vec<ChurnOp>,
}

/// One fail/repair operation on a PCB's ESB uplinks. `slot` indexes the
/// PCB's uplink list (primary pair first, backup pair after), wrapped to
/// its length, so every op is valid on every topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Fail one directed uplink of a PCB.
    Fail {
        /// PCB index.
        pcb: usize,
        /// Index into [`ClusterFabric::uplinks_of_pcb`], wrapped.
        slot: usize,
    },
    /// Repair one directed uplink of a PCB (no-op if it is up).
    Repair {
        /// PCB index.
        pcb: usize,
        /// Index into [`ClusterFabric::uplinks_of_pcb`], wrapped.
        slot: usize,
    },
}

/// Builds the scenario's fabric: the standard cluster plus any backup
/// uplinks.
pub(crate) fn build_fabric(s: &Scenario) -> ClusterFabric {
    let mut fabric = Topology::soc_cluster(s.socs);
    for &p in &s.backup_pcbs {
        fabric.topology.add_duplex(
            fabric.pcbs[p],
            fabric.esb,
            DataRate::bps(socc_hw::calib::PCB_UPLINK_BPS),
        );
    }
    fabric
}

/// Draws a random scenario. The distribution is chosen to hit every
/// qualitative regime: single- and multi-board fabrics, shared access
/// links (repeated endpoints), parking-lot paths across the ESB, uplink
/// failures with and without a backup path, and repairs.
pub fn gen_scenario(rng: &mut SimRng) -> Scenario {
    let socs = rng.uniform_usize(4, 11);
    let pcbs = socs.div_ceil(socc_hw::calib::SOCS_PER_PCB);
    let backup_pcbs: Vec<usize> = (0..pcbs).filter(|_| rng.chance(0.4)).collect();
    let flow_count = rng.uniform_usize(1, 7);
    let mut flows = Vec::with_capacity(flow_count);
    for _ in 0..flow_count {
        let src = rng.uniform_usize(0, socs);
        let mut dst = rng.uniform_usize(0, socs - 1);
        if dst >= src {
            dst += 1;
        }
        flows.push((src, dst));
    }
    let churn_count = rng.uniform_usize(0, 4);
    let mut churn = Vec::with_capacity(churn_count);
    for _ in 0..churn_count {
        let pcb = rng.uniform_usize(0, pcbs);
        let slot = rng.uniform_usize(0, 4);
        if rng.chance(0.7) {
            churn.push(ChurnOp::Fail { pcb, slot });
        } else {
            churn.push(ChurnOp::Repair { pcb, slot });
        }
    }
    Scenario {
        socs,
        backup_pcbs,
        flows,
        churn,
    }
}

/// What one passing case measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseReport {
    /// Flows the scenario started with.
    pub(crate) flows: usize,
    /// Flows alive (in both engines) at measurement time.
    pub(crate) survivors: usize,
    /// Worst per-flow relative error of this case.
    pub max_rel_err: f64,
    /// Mean per-flow relative error of this case.
    pub(crate) mean_rel_err: f64,
}

fn resolve(op: &ChurnOp, fabric: &ClusterFabric) -> (LinkId, bool) {
    match *op {
        ChurnOp::Fail { pcb, slot } => {
            let ups = fabric.uplinks_of_pcb(pcb);
            (ups[slot % ups.len()], true)
        }
        ChurnOp::Repair { pcb, slot } => {
            let ups = fabric.uplinks_of_pcb(pcb);
            (ups[slot % ups.len()], false)
        }
    }
}

/// Runs one scenario through both engines. `Ok` carries the agreement
/// measurements; `Err` carries a human-readable account of the first
/// disagreement (dead-flow sets or a goodput outside the tolerance band).
pub fn run_case(s: &Scenario) -> Result<CaseReport, String> {
    let fabric = build_fabric(s);
    let tcp = TcpModel::inter_soc();
    let mut flow_net = FlowNet::new(fabric.topology.clone(), tcp);
    let mut pkt = PacketNet::new(fabric.topology.clone(), PacketConfig::cluster());

    // Index-aligned pairs; a slot goes `None` once churn kills the flow.
    let mut pairs: Vec<Option<(StreamId, PacketFlowId)>> = Vec::with_capacity(s.flows.len());
    for &(a, b) in &s.flows {
        let (src, dst) = (fabric.socs[a], fabric.socs[b]);
        let sid = flow_net.add_stream(src, dst, DataRate::gbps(ELASTIC_DEMAND_GBPS));
        let pid = pkt.start_flow(src, dst);
        match (sid, pid) {
            (Ok(sid), Ok(pid)) => pairs.push(Some((sid, pid))),
            (Err(_), Err(_)) => pairs.push(None),
            (se, pe) => {
                return Err(format!(
                    "admission disagreement on flow ({a},{b}): flow-level {se:?} vs packet {pe:?}"
                ));
            }
        }
    }

    // Apply churn with settling gaps so packets are genuinely in flight
    // when links die (mid-flight loss + reroute is part of the contract).
    for (step, op) in s.churn.iter().enumerate() {
        let t = pkt.now() + CHURN_SPACING;
        pkt.run_until(t);
        let (link, fail) = resolve(op, &fabric);
        if fail {
            let pkt_lost = pkt.fail_link(link);
            let impact = flow_net.fail_link(link);
            let dead_pkt: Vec<usize> = pairs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some_and(|(_, pid)| pkt_lost.contains(&pid)))
                .map(|(i, _)| i)
                .collect();
            let dead_flow: Vec<usize> = pairs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some_and(|(sid, _)| impact.lost_streams.contains(&sid)))
                .map(|(i, _)| i)
                .collect();
            if dead_pkt != dead_flow {
                return Err(format!(
                    "churn step {step} ({op:?}) killed different flows: \
                     packet {dead_pkt:?} vs flow-level {dead_flow:?}"
                ));
            }
            for i in dead_pkt {
                pairs[i] = None;
            }
        } else {
            pkt.repair_link(link);
            flow_net.repair_link(link);
        }
    }

    // Steady state: warm past the post-churn slow start, then measure
    // every survivor over the same window.
    let t0 = pkt.now() + WARMUP;
    pkt.run_until(t0);
    let before: Vec<Option<f64>> = pairs
        .iter()
        .map(|p| p.map(|(_, pid)| pkt.delivered_bytes(pid).expect("survivor exists")))
        .collect();
    pkt.run_until(t0 + WINDOW);

    let mut max_rel_err = 0.0f64;
    let mut sum_rel_err = 0.0f64;
    let mut survivors = 0usize;
    let mut detail = String::new();
    for (i, pair) in pairs.iter().enumerate() {
        let Some((sid, pid)) = pair else { continue };
        let after = pkt.delivered_bytes(*pid).expect("survivor exists");
        let measured =
            (after - before[i].expect("measured at t0")) * 8.0 / WINDOW.as_secs_f64() / 1.0e6;
        let fair = flow_net.stream_rate(*sid).expect("survivor exists");
        let predicted = tcp.goodput(fair).as_mbps();
        let rel_err = (measured - predicted).abs() / predicted;
        let _ = writeln!(
            detail,
            "  flow {i} {:?}: packet {measured:.1} Mbps vs max-min prediction \
             {predicted:.1} Mbps (rel err {rel_err:.3})",
            s.flows[i]
        );
        max_rel_err = max_rel_err.max(rel_err);
        sum_rel_err += rel_err;
        survivors += 1;
    }
    if max_rel_err > AGREEMENT_TOLERANCE {
        return Err(format!(
            "goodput disagreement beyond ±{AGREEMENT_TOLERANCE} on {:?}:\n{detail}",
            s
        ));
    }
    Ok(CaseReport {
        flows: s.flows.len(),
        survivors,
        max_rel_err,
        mean_rel_err: if survivors > 0 {
            sum_rel_err / survivors as f64
        } else {
            0.0
        },
    })
}

/// Churn ops first, then flows, then backup PCBs: the order the
/// shrinker tries removals in.
impl Shrink for Scenario {
    fn items(&self) -> usize {
        self.churn.len() + self.flows.len() + self.backup_pcbs.len()
    }

    fn without(&self, i: usize) -> Self {
        let mut s = self.clone();
        let (churn, flows) = (s.churn.len(), s.flows.len());
        if i < churn {
            s.churn.remove(i);
        } else if i < churn + flows {
            s.flows.remove(i - churn);
        } else {
            s.backup_pcbs.remove(i - churn - flows);
        }
        s
    }
}

/// Shrinks a failing scenario to a minimal counterexample: one that
/// still fails, where no single churn op, flow or backup uplink can go.
pub fn shrink_scenario(s: &Scenario) -> Scenario {
    campaign::shrink(s, |c| run_case(c).is_err())
}

/// Outcome of one incast run (see [`run_incast`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncastOutcome {
    /// Concurrent senders bursting into one SoC.
    pub(crate) senders: usize,
    /// Whether admissions were paced by [`EvacuationPacing`].
    pub(crate) paced: bool,
    /// Packets tail-dropped across the fabric.
    pub drops: u64,
    /// High-water queue depth at the victim's ESB → PCB port.
    pub max_queue: u32,
    /// When the last transfer finished (ms).
    pub completion_ms: f64,
}

/// N-to-1 incast at a SoC's PCB uplink: `senders` transfers of 1 MB from
/// other boards into SoC 0, either all at `t = 0` (the evacuation-storm
/// shape) or admitted in [`EvacuationPacing`] waves sized to the measured
/// fabric drain rate.
pub fn run_incast(senders: usize, paced: bool) -> IncastOutcome {
    let fabric = Topology::soc_cluster(20);
    assert!(senders <= 15, "senders come from boards 1..4");
    let size = DataSize::megabytes(1.0);
    let offsets = if paced {
        EvacuationPacing {
            max_concurrent: 2,
            state_size: size,
            bottleneck: DataRate::bps(socc_hw::calib::PCB_UPLINK_BPS),
        }
        .admission_offsets(senders)
    } else {
        vec![SimDuration::ZERO; senders]
    };
    let mut net = PacketNet::new(fabric.topology.clone(), PacketConfig::cluster());
    let mut ids = Vec::with_capacity(senders);
    for (i, &off) in offsets.iter().enumerate() {
        net.run_until(SimTime::ZERO + off);
        ids.push(
            net.start_transfer(fabric.socs[5 + i], fabric.socs[0], size)
                .expect("cluster routes"),
        );
    }
    net.run_to_idle();
    let completion_ms = ids
        .iter()
        .map(|&id| {
            net.finished_at(id)
                .expect("flow exists")
                .expect("transfer finished")
                .as_secs_f64()
                * 1e3
        })
        .fold(0.0f64, f64::max);
    let hot = fabric
        .uplinks_of_pcb(0)
        .into_iter()
        .find(|&l| fabric.topology.link(l).src == fabric.esb)
        .expect("ESB-side uplink exists");
    IncastOutcome {
        senders,
        paced,
        drops: net.total_drops(),
        max_queue: net.port_max_depth(hot),
        completion_ms,
    }
}

/// Sweep parameters for `bench --run netval`.
#[derive(Debug, Clone)]
pub(crate) struct NetvalOptions {
    /// Randomized cases to run.
    pub(crate) cases: usize,
    /// Master seed; case `k` derives its own seed from it.
    pub(crate) seed: u64,
    /// Senders in the incast experiment.
    pub(crate) incast_senders: usize,
}

impl Default for NetvalOptions {
    fn default() -> Self {
        Self {
            cases: 200,
            seed: 42,
            incast_senders: 8,
        }
    }
}

/// One shrunk agreement failure.
#[derive(Debug, Clone)]
pub(crate) struct DisagreementRecord {
    /// Case index within the sweep.
    pub(crate) case: usize,
    /// The case's derived seed.
    pub(crate) seed: u64,
    /// First line of the failure detail.
    pub(crate) detail: String,
    /// Minimal counterexample after greedy shrinking.
    pub(crate) minimal: Scenario,
    /// One-line repro command.
    pub(crate) repro: String,
}

/// Aggregated result of a cross-validation sweep.
#[derive(Debug, Clone)]
pub(crate) struct NetvalReport {
    /// Options the sweep ran with.
    pub(crate) options: NetvalOptions,
    /// Shrunk disagreements (empty on a clean sweep).
    pub(crate) failures: Vec<DisagreementRecord>,
    /// Surviving flows measured across all cases.
    pub(crate) flows_checked: usize,
    /// Worst per-flow relative error across the sweep.
    pub(crate) max_rel_err: f64,
    /// Mean of the per-case mean relative errors.
    pub(crate) mean_rel_err: f64,
    /// The goodput calibration run (fresh, not the cached factor).
    pub(crate) calibration: CalibrationReport,
    /// Relative error of the calibrated goodput vs the paper's anchor.
    pub(crate) calibration_rel_err: f64,
    /// The unpaced incast burst.
    pub(crate) incast_unpaced: IncastOutcome,
    /// The paced incast storm.
    pub(crate) incast_paced: IncastOutcome,
    /// Wall-clock seconds for the sweep.
    pub(crate) elapsed_secs: f64,
    /// Cases per wall-clock second.
    pub(crate) cases_per_sec: f64,
}

/// Case `k`'s private seed (same mixing as the chaos harness — one
/// shared [`crate::harness::mix_seed`] — so `--seed S --cases 1` replays
/// case `k` of a sweep run at seed `case_seed(S, k)`).
pub fn case_seed(seed: u64, k: usize) -> u64 {
    crate::harness::mix_seed(seed, k)
}

/// Runs the full sweep plus the calibration and incast experiments.
pub(crate) fn run_netval(opts: &NetvalOptions) -> NetvalReport {
    let started = Instant::now();
    let mut failures = Vec::new();
    let mut flows_checked = 0usize;
    let mut max_rel_err = 0.0f64;
    let mut mean_sum = 0.0f64;
    let mut mean_cases = 0usize;
    for k in 0..opts.cases {
        let seed = case_seed(opts.seed, k);
        let scenario = gen_scenario(&mut SimRng::seed(seed));
        match run_case(&scenario) {
            Ok(report) => {
                flows_checked += report.survivors;
                max_rel_err = max_rel_err.max(report.max_rel_err);
                if report.survivors > 0 {
                    mean_sum += report.mean_rel_err;
                    mean_cases += 1;
                }
            }
            Err(detail) => {
                let minimal = shrink_scenario(&scenario);
                failures.push(DisagreementRecord {
                    case: k,
                    seed,
                    detail: detail.lines().next().unwrap_or("").to_string(),
                    minimal,
                    repro: format!(
                        "cargo run --release -p socc-bench --bin bench -- --run netval --seed {seed} --cases 1"
                    ),
                });
            }
        }
    }
    let calibration = run_goodput_calibration();
    let anchor = socc_hw::calib::INTER_SOC_TCP_MBPS;
    let calibration_rel_err = (calibration.goodput.as_mbps() - anchor).abs() / anchor;
    let incast_unpaced = run_incast(opts.incast_senders, false);
    let incast_paced = run_incast(opts.incast_senders, true);
    let elapsed_secs = started.elapsed().as_secs_f64();
    NetvalReport {
        options: opts.clone(),
        failures,
        flows_checked,
        max_rel_err,
        mean_rel_err: if mean_cases > 0 {
            mean_sum / mean_cases as f64
        } else {
            0.0
        },
        calibration,
        calibration_rel_err,
        incast_unpaced,
        incast_paced,
        elapsed_secs,
        cases_per_sec: opts.cases as f64 / elapsed_secs.max(1e-9),
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Renders the `BENCH_netval.json` artifact on [`JsonBuilder`]. Floats
/// stay on the mode's six-decimal `json_f64` (via `raw`), so the port
/// is byte-identical to the hand-rolled emitter it replaced and the
/// committed baseline stays valid.
pub(crate) fn report_json(r: &NetvalReport) -> String {
    let mut j = JsonBuilder::new();
    j.str("benchmark", "netval")
        .int("cases", r.options.cases as u64)
        .int("seed", r.options.seed)
        .raw("elapsed_secs", &json_f64(r.elapsed_secs))
        .raw("cases_per_sec", &json_f64(r.cases_per_sec));
    j.object("agreement", |j| {
        j.raw("tolerance", &json_f64(AGREEMENT_TOLERANCE))
            .int("flows_checked", r.flows_checked as u64)
            .raw("max_rel_err", &json_f64(r.max_rel_err))
            .raw("mean_rel_err", &json_f64(r.mean_rel_err))
            .int("disagreements", r.failures.len() as u64);
    });
    j.object("calibration", |j| {
        j.raw("goodput_mbps", &json_f64(r.calibration.goodput.as_mbps()))
            .raw("factor", &json_f64(r.calibration.factor))
            .raw("anchor_mbps", &json_f64(socc_hw::calib::INTER_SOC_TCP_MBPS))
            .raw("rel_err", &json_f64(r.calibration_rel_err))
            .raw("tolerance", &json_f64(CALIBRATION_TOLERANCE))
            .int("drops", r.calibration.drops)
            .int("ecn_marks", r.calibration.ecn_marks);
    });
    j.object("incast", |j| {
        j.int("senders", r.incast_unpaced.senders as u64)
            .int("unpaced_drops", r.incast_unpaced.drops)
            .int("unpaced_max_queue", u64::from(r.incast_unpaced.max_queue))
            .raw(
                "unpaced_completion_ms",
                &json_f64(r.incast_unpaced.completion_ms),
            )
            .int("paced_drops", r.incast_paced.drops)
            .int("paced_max_queue", u64::from(r.incast_paced.max_queue))
            .raw(
                "paced_completion_ms",
                &json_f64(r.incast_paced.completion_ms),
            )
            .raw(
                "inflation",
                &json_f64(r.incast_paced.completion_ms / r.incast_unpaced.completion_ms.max(1e-9)),
            )
            .raw("max_inflation", &json_f64(MAX_PACING_INFLATION));
    });
    let fails: Vec<String> = r
        .failures
        .iter()
        .map(|f| {
            format!(
                "\"case {} (seed {}): {}; minimal: {}; repro: {}\"",
                f.case,
                f.seed,
                json_escape(&f.detail),
                json_escape(&format!("{:?}", f.minimal)),
                json_escape(&f.repro),
            )
        })
        .collect();
    j.list("failures", &fails);
    j.finish()
}

/// Declares the fabric cross-validation experiment for the unified
/// runner (`bench --run netval`): grid, execute, and the gates that
/// used to live in the `bench` binary's `--netval` branch. The smoke
/// tier drops from 200 to 64 randomized cases (the old CI scale).
pub(crate) fn experiment() -> crate::runner::Experiment {
    use crate::runner::{gate_num, ExpConfig, Experiment};
    Experiment {
        name: "netval",
        about: "packet-level fabric vs max-min flow model, calibration, incast pacing",
        artifact: "BENCH_netval.json",
        configs: |scale| {
            let full = NetvalOptions::default();
            let cases = scale
                .cases
                .unwrap_or(if scale.smoke { 64 } else { full.cases });
            vec![ExpConfig::new()
                .u64("cases", cases as u64)
                .u64("incast_senders", full.incast_senders as u64)
                .u64("seed", crate::harness::mix_seed(scale.seed, 0))]
        },
        execute: |cfg, _alloc_count| {
            let report = run_netval(&NetvalOptions {
                cases: cfg.get_u64("cases") as usize,
                seed: cfg.seed(),
                incast_senders: cfg.get_u64("incast_senders") as usize,
            });
            Ok(report_json(&report))
        },
        gates: |doc| {
            let mut f = Vec::new();
            for fail in crate::harness::extract_list(doc, "failures") {
                f.push(format!("cross-validation failure: {fail}"));
            }
            if let Some(err) = gate_num(doc, "agreement", "max_rel_err", &mut f) {
                if err > AGREEMENT_TOLERANCE {
                    f.push(format!(
                        "worst packet-vs-flow goodput error {err:.3} exceeds ±{AGREEMENT_TOLERANCE}"
                    ));
                }
            }
            let cal_err = gate_num(doc, "calibration", "rel_err", &mut f);
            let goodput = gate_num(doc, "calibration", "goodput_mbps", &mut f);
            if let (Some(err), Some(goodput)) = (cal_err, goodput) {
                if err > CALIBRATION_TOLERANCE {
                    f.push(format!(
                        "calibrated goodput {goodput:.1} Mbps misses the {:.0} Mbps anchor \
                         by {err:.3} (> {CALIBRATION_TOLERANCE})",
                        socc_hw::calib::INTER_SOC_TCP_MBPS
                    ));
                }
            }
            let unpaced = gate_num(doc, "incast", "unpaced_drops", &mut f);
            let paced = gate_num(doc, "incast", "paced_drops", &mut f);
            if let (Some(unpaced), Some(paced)) = (unpaced, paced) {
                if unpaced == 0.0 {
                    f.push("unpaced incast burst no longer overflows the port buffer".to_string());
                }
                if paced >= unpaced {
                    f.push(format!(
                        "pacing no longer reduces incast drops ({paced:.0} paced vs {unpaced:.0} unpaced)"
                    ));
                }
            }
            if let Some(inflation) = gate_num(doc, "incast", "inflation", &mut f) {
                if inflation > MAX_PACING_INFLATION {
                    f.push(format!(
                        "paced incast completion inflated {inflation:.2}x (> {MAX_PACING_INFLATION}x)"
                    ));
                }
            }
            f
        },
        baseline_gates: |doc, baseline| {
            let mut f = Vec::new();
            let run_factor = gate_num(doc, "calibration", "factor", &mut f);
            let base_factor = gate_num(baseline, "calibration", "factor", &mut f);
            if let (Some(run), Some(base)) = (run_factor, base_factor) {
                if (run - base).abs() > 1e-6 {
                    f.push(format!(
                        "calibrated goodput factor drifted: {run:.6} vs baseline {base:.6} — \
                         the packet engine changed; refresh BENCH_netval.json deliberately"
                    ));
                }
            }
            let run_err = gate_num(doc, "agreement", "max_rel_err", &mut f);
            let base_err = gate_num(baseline, "agreement", "max_rel_err", &mut f);
            if let (Some(run), Some(base)) = (run_err, base_err) {
                if run > base + 0.02 {
                    f.push(format!(
                        "worst agreement error grew: {run:.3} vs baseline {base:.3} (+2pt budget)"
                    ));
                }
            }
            f
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fixed_scenario_agrees_and_is_deterministic() {
        let s = Scenario {
            socs: 10,
            backup_pcbs: vec![0],
            flows: vec![(0, 9), (1, 9), (5, 0)],
            churn: vec![
                ChurnOp::Fail { pcb: 0, slot: 0 },
                ChurnOp::Repair { pcb: 0, slot: 0 },
            ],
        };
        let a = run_case(&s).expect("fixed scenario agrees");
        let b = run_case(&s).expect("fixed scenario agrees");
        assert_eq!(a, b);
        assert_eq!(a.survivors, 3, "backup uplink keeps everyone alive");
        assert!(a.max_rel_err <= AGREEMENT_TOLERANCE);
    }

    #[test]
    fn generation_respects_scenario_bounds() {
        for seed in 0..50 {
            let s = gen_scenario(&mut SimRng::seed(seed));
            assert!((4..=10).contains(&s.socs));
            assert!((1..=6).contains(&s.flows.len()));
            assert!(s.churn.len() <= 3);
            let pcbs = s.socs.div_ceil(socc_hw::calib::SOCS_PER_PCB);
            for &(a, b) in &s.flows {
                assert!(a < s.socs && b < s.socs && a != b);
            }
            for &p in &s.backup_pcbs {
                assert!(p < pcbs);
            }
        }
    }

    #[test]
    fn shrinking_strips_irrelevant_structure() {
        // A synthetic failure: any scenario with a flow between the two
        // PCBs (SoCs 0–4 and 5–9). Shrinking must keep the last such flow
        // and strip every churn op, other flow and backup uplink.
        let crosses = |c: &Scenario| c.flows.iter().any(|&(a, b)| (a < 5) != (b < 5));
        let s = Scenario {
            socs: 10,
            backup_pcbs: vec![0, 1],
            flows: vec![(0, 1), (2, 7), (6, 8), (9, 3)],
            churn: vec![
                ChurnOp::Fail { pcb: 0, slot: 0 },
                ChurnOp::Repair { pcb: 1, slot: 2 },
            ],
        };
        let minimal = campaign::shrink(&s, crosses);
        assert_eq!(
            minimal,
            Scenario {
                socs: 10,
                backup_pcbs: vec![],
                flows: vec![(9, 3)],
                churn: vec![],
            }
        );
        // The search order alone picks the survivor under "at least one
        // item": churn, then flows, then backups, so the last backup PCB.
        let survivor = campaign::shrink(&s, |c| c.items() > 0);
        assert_eq!((survivor.items(), survivor.backup_pcbs), (1, vec![1]));
    }

    #[test]
    fn incast_pacing_kills_the_drops() {
        let unpaced = run_incast(8, false);
        let paced = run_incast(8, true);
        assert!(unpaced.drops > 0, "burst must overflow the port buffer");
        assert!(paced.drops < unpaced.drops);
        assert!(
            paced.completion_ms <= unpaced.completion_ms * MAX_PACING_INFLATION,
            "paced {} ms vs unpaced {} ms",
            paced.completion_ms,
            unpaced.completion_ms
        );
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = run_netval(&NetvalOptions {
            cases: 3,
            seed: 7,
            incast_senders: 8,
        });
        let doc = report_json(&report);
        assert!(doc.contains("\"benchmark\": \"netval\""));
        assert!(doc.contains("\"max_rel_err\""));
        assert!(doc.contains("\"factor\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    /// The retired hand-rolled emitter, kept verbatim as the fixture the
    /// [`JsonBuilder`] port must reproduce byte for byte (the committed
    /// `BENCH_netval.json` baseline was generated with this code).
    fn handrolled_report_json(r: &NetvalReport) -> String {
        let mut fails = String::new();
        for (i, f) in r.failures.iter().enumerate() {
            let _ = writeln!(
                fails,
                "    \"case {} (seed {}): {}; minimal: {}; repro: {}\"{}",
                f.case,
                f.seed,
                json_escape(&f.detail),
                json_escape(&format!("{:?}", f.minimal)),
                json_escape(&f.repro),
                if i + 1 == r.failures.len() { "" } else { "," }
            );
        }
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"netval\",\n",
                "  \"cases\": {},\n",
                "  \"seed\": {},\n",
                "  \"elapsed_secs\": {},\n",
                "  \"cases_per_sec\": {},\n",
                "  \"agreement\": {{\n",
                "    \"tolerance\": {},\n",
                "    \"flows_checked\": {},\n",
                "    \"max_rel_err\": {},\n",
                "    \"mean_rel_err\": {},\n",
                "    \"disagreements\": {}\n",
                "  }},\n",
                "  \"calibration\": {{\n",
                "    \"goodput_mbps\": {},\n",
                "    \"factor\": {},\n",
                "    \"anchor_mbps\": {},\n",
                "    \"rel_err\": {},\n",
                "    \"tolerance\": {},\n",
                "    \"drops\": {},\n",
                "    \"ecn_marks\": {}\n",
                "  }},\n",
                "  \"incast\": {{\n",
                "    \"senders\": {},\n",
                "    \"unpaced_drops\": {},\n",
                "    \"unpaced_max_queue\": {},\n",
                "    \"unpaced_completion_ms\": {},\n",
                "    \"paced_drops\": {},\n",
                "    \"paced_max_queue\": {},\n",
                "    \"paced_completion_ms\": {},\n",
                "    \"inflation\": {},\n",
                "    \"max_inflation\": {}\n",
                "  }},\n",
                "  \"failures\": [\n",
                "{}",
                "  ]\n",
                "}}\n"
            ),
            r.options.cases,
            r.options.seed,
            json_f64(r.elapsed_secs),
            json_f64(r.cases_per_sec),
            json_f64(AGREEMENT_TOLERANCE),
            r.flows_checked,
            json_f64(r.max_rel_err),
            json_f64(r.mean_rel_err),
            r.failures.len(),
            json_f64(r.calibration.goodput.as_mbps()),
            json_f64(r.calibration.factor),
            json_f64(socc_hw::calib::INTER_SOC_TCP_MBPS),
            json_f64(r.calibration_rel_err),
            json_f64(CALIBRATION_TOLERANCE),
            r.calibration.drops,
            r.calibration.ecn_marks,
            r.incast_unpaced.senders,
            r.incast_unpaced.drops,
            r.incast_unpaced.max_queue,
            json_f64(r.incast_unpaced.completion_ms),
            r.incast_paced.drops,
            r.incast_paced.max_queue,
            json_f64(r.incast_paced.completion_ms),
            json_f64(r.incast_paced.completion_ms / r.incast_unpaced.completion_ms.max(1e-9)),
            json_f64(MAX_PACING_INFLATION),
            fails,
        )
    }

    #[test]
    fn report_json_is_byte_identical_to_the_handrolled_emitter() {
        // A clean sweep pins the empty-array shape the committed
        // baseline carries.
        let clean = run_netval(&NetvalOptions {
            cases: 2,
            seed: 11,
            incast_senders: 8,
        });
        assert!(clean.failures.is_empty(), "fixture sweep must be clean");
        assert_eq!(report_json(&clean), handrolled_report_json(&clean));

        // A synthetic disagreement exercises the array items and the
        // escaping path (the `{:?}` scenario debug carries quotes).
        let mut dirty = clean;
        dirty.failures.push(DisagreementRecord {
            case: 1,
            seed: crate::harness::mix_seed(11, 1),
            detail: "flow 3 rel err 0.09 > \"tolerance\"".to_string(),
            minimal: Scenario {
                socs: 4,
                backup_pcbs: vec![0],
                flows: vec![(0, 3)],
                churn: vec![ChurnOp::Fail { pcb: 0, slot: 0 }],
            },
            repro: "bench --run netval --seed 11 --cases 1".to_string(),
        });
        assert_eq!(report_json(&dirty), handrolled_report_json(&dirty));
    }
}
