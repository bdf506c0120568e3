//! Deterministic churn microbenchmark for the flow-level network simulator.
//!
//! [`churn`] drives a [`FlowNet`] over the paper's SoC-Cluster fabric
//! through a seeded mix of stream add/remove, transfer start, and clock
//! advances, then reports throughput (events/sec), per-event latency
//! percentiles, waterfilling work counters, and heap allocations observed
//! during the measured phase. Running it twice — once on the incremental
//! allocator and once with full recomputation forced — quantifies the
//! incremental speedup; [`comparison_json`] renders both runs as the
//! `BENCH_net.json` perf-trajectory artifact.
//!
//! The operation sequence is a pure function of [`PerfOptions::seed`], and
//! a warm-up pass sized like the measured pass runs first so every buffer,
//! hash table, and route-cache entry reaches its peak size before timing
//! starts — which is what makes the `steady_state_allocs == 0` check
//! meaningful rather than flaky.

use std::time::Instant;

use crate::harness::JsonBuilder;
use socc_net::sim::FlowNet;
use socc_net::tcp::TcpModel;
use socc_net::topology::{NodeId, Topology};
use socc_sim::rng::SimRng;
use socc_sim::stats::percentile_mut;
use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

/// Ceiling on concurrently in-flight transfers in the churn mix; beyond it
/// the workload drains instead of starting more.
const MAX_TRANSFERS: usize = 64;
/// Stream population is held within ±this slack of `PerfOptions::flows`.
const STREAM_SLACK: usize = 8;

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub(crate) struct PerfOptions {
    /// Target number of concurrently attached streams.
    pub(crate) flows: usize,
    /// Number of churn events in the measured phase (the warm-up phase runs
    /// the same count).
    pub(crate) churn_events: usize,
    /// Seed for the operation mix; equal seeds give identical op sequences.
    pub(crate) seed: u64,
    /// Force the from-scratch waterfill on every reallocation (the
    /// comparison baseline) instead of the incremental path.
    pub(crate) force_full: bool,
}

impl Default for PerfOptions {
    fn default() -> Self {
        Self {
            flows: 2000,
            churn_events: 1000,
            seed: 42,
            force_full: false,
        }
    }
}

/// Results of one churn run.
#[derive(Debug, Clone)]
pub(crate) struct PerfReport {
    /// `"incremental"` or `"full"`.
    pub(crate) mode: &'static str,
    /// Target stream population.
    pub(crate) flows: usize,
    /// Measured churn events.
    pub(crate) events: usize,
    /// Wall-clock seconds of the measured phase.
    pub(crate) elapsed_secs: f64,
    /// Churn events per second.
    pub(crate) events_per_sec: f64,
    /// Allocation updates performed during the measured phase.
    pub(crate) reallocations: u64,
    /// Allocation updates per second.
    pub(crate) reallocations_per_sec: f64,
    /// Median per-event wall-clock cost, microseconds.
    pub(crate) p50_event_us: f64,
    /// 99th-percentile per-event wall-clock cost, microseconds.
    pub(crate) p99_event_us: f64,
    /// Waterfilling rounds during the measured phase.
    pub(crate) waterfill_rounds: u64,
    /// The progressive-filling tally (`FairnessStats::waterfill_touches`):
    /// summed over rounds, the route lengths of the flows active at the
    /// start of each round — the O(flows × links × rounds) work term the
    /// incremental path is designed to shrink. The allocator keeps it by
    /// subtraction as flows freeze; it is not a count of visits.
    pub(crate) waterfill_touches: u64,
    /// Flow-link visits spent checking/expanding the bottleneck
    /// certificate (incremental-path overhead; zero in full mode).
    pub(crate) cert_touches: u64,
    /// Reallocations that fell back to (or were forced onto) the
    /// from-scratch waterfill.
    pub(crate) full_recomputes: u64,
    /// Heap allocations observed during the measured phase (0 when the
    /// harness runs under the counting allocator and the hot path is
    /// clean; also 0 when no counting allocator is installed).
    pub(crate) steady_state_allocs: u64,
    /// Max |maintained − from-scratch reference| over final rates, bits/s.
    pub(crate) final_drift_bps: f64,
}

/// Runs the churn workload once and reports.
///
/// `alloc_count` is sampled immediately before and after the measured
/// phase; pass a counting-allocator reading (see the `bench` binary) to
/// measure steady-state allocations, or `&|| 0` to skip that measurement.
pub(crate) fn churn(opts: &PerfOptions, alloc_count: &dyn Fn() -> u64) -> PerfReport {
    let fabric = Topology::soc_cluster(60);
    let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
    net.set_force_full_recompute(opts.force_full);

    // Endpoint pool: same-PCB pairs, cross-PCB pairs, and SoC↔external —
    // the three traffic classes of the paper's fabric. Fixed and small so
    // the route cache covers every pair after pre-warming.
    let mut pool: Vec<(NodeId, NodeId)> = Vec::new();
    for i in 0..30 {
        pool.push((fabric.socs[2 * i], fabric.socs[2 * i + 1])); // same PCB
        pool.push((fabric.socs[i], fabric.socs[(i + 17) % 60])); // mostly cross-PCB
        pool.push((fabric.socs[i], fabric.external));
        pool.push((fabric.external, fabric.socs[(i * 7) % 60]));
    }

    let mut rng = SimRng::seed(opts.seed).split("net-churn");
    let mut live = Vec::with_capacity(opts.flows + STREAM_SLACK + 1);
    let mut completed = Vec::with_capacity(MAX_TRANSFERS);

    // Pre-warm: visit every endpoint pair once (fills the route cache and
    // interns every route), push the stream table to its population
    // ceiling, saturate the transfer cap, and touch the full-recompute
    // scratch path once so its buffers reach live-flow size.
    for &(src, dst) in &pool {
        let id = net
            .add_stream(src, dst, DataRate::mbps(5.0))
            .expect("pool endpoints routable");
        net.remove_stream(id).expect("just added");
    }
    while live.len() < opts.flows + STREAM_SLACK {
        let (src, dst) = pool[rng.uniform_usize(0, pool.len())];
        let demand = DataRate::mbps(rng.uniform(2.0, 20.0));
        live.push(net.add_stream(src, dst, demand).expect("routable"));
    }
    while live.len() > opts.flows {
        let id = live.swap_remove(rng.uniform_usize(0, live.len()));
        net.remove_stream(id).expect("live stream");
    }
    while net.active_transfers() < MAX_TRANSFERS {
        let (src, dst) = pool[rng.uniform_usize(0, pool.len())];
        net.start_transfer(src, dst, DataSize::megabytes(rng.uniform(1.0, 8.0)))
            .expect("routable");
    }
    {
        // One forced full recompute at peak population sizes the
        // full-waterfill scratch buffers (the incremental path falls back
        // to them when an update cascades cluster-wide).
        let forced = opts.force_full;
        net.set_force_full_recompute(true);
        let (src, dst) = pool[0];
        let id = net
            .add_stream(src, dst, DataRate::mbps(5.0))
            .expect("routable");
        net.set_force_full_recompute(forced);
        net.remove_stream(id).expect("just added");
    }

    // Warm-up churn: same policy and length as the measured phase.
    for e in 0..opts.churn_events {
        churn_event(
            &mut net,
            &mut rng,
            &pool,
            &mut live,
            &mut completed,
            opts.flows,
            e,
        );
    }

    // Measured phase.
    let mut event_ns: Vec<f64> = Vec::with_capacity(opts.churn_events);
    let stats_before = net.fairness_stats();
    let allocs_before = alloc_count();
    let started = Instant::now();
    for e in 0..opts.churn_events {
        let t0 = Instant::now();
        churn_event(
            &mut net,
            &mut rng,
            &pool,
            &mut live,
            &mut completed,
            opts.flows,
            e,
        );
        event_ns.push(t0.elapsed().as_nanos() as f64);
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    let allocs_after = alloc_count();
    let stats = net.fairness_stats();

    let reallocations = stats.reallocations - stats_before.reallocations;
    PerfReport {
        mode: if opts.force_full {
            "full"
        } else {
            "incremental"
        },
        flows: opts.flows,
        events: opts.churn_events,
        elapsed_secs,
        events_per_sec: opts.churn_events as f64 / elapsed_secs,
        reallocations,
        reallocations_per_sec: reallocations as f64 / elapsed_secs,
        p50_event_us: percentile_mut(&mut event_ns, 0.5).unwrap_or(0.0) / 1e3,
        p99_event_us: percentile_mut(&mut event_ns, 0.99).unwrap_or(0.0) / 1e3,
        waterfill_rounds: stats.waterfill_rounds - stats_before.waterfill_rounds,
        waterfill_touches: stats.waterfill_touches - stats_before.waterfill_touches,
        cert_touches: stats.cert_touches - stats_before.cert_touches,
        full_recomputes: stats.full_recomputes - stats_before.full_recomputes,
        steady_state_allocs: allocs_after - allocs_before,
        final_drift_bps: net.fairness_drift_vs_reference(),
    }
}

/// One deterministic churn event. `e % 4` picks the op: add stream, remove
/// stream, start/drain transfer, advance the clock — with hard caps so
/// state sizes stay inside the envelope the warm-up already visited.
fn churn_event(
    net: &mut FlowNet,
    rng: &mut SimRng,
    pool: &[(NodeId, NodeId)],
    live: &mut Vec<socc_net::sim::StreamId>,
    completed: &mut Vec<socc_net::sim::TransferId>,
    flows: usize,
    e: usize,
) {
    match e % 4 {
        0 if live.len() < flows + STREAM_SLACK => {
            let (src, dst) = pool[rng.uniform_usize(0, pool.len())];
            let demand = DataRate::mbps(rng.uniform(2.0, 20.0));
            live.push(net.add_stream(src, dst, demand).expect("routable"));
        }
        1 | 0 if live.len() > flows.saturating_sub(STREAM_SLACK) => {
            let id = live.swap_remove(rng.uniform_usize(0, live.len()));
            net.remove_stream(id).expect("live stream");
        }
        2 if net.active_transfers() < MAX_TRANSFERS => {
            let (src, dst) = pool[rng.uniform_usize(0, pool.len())];
            net.start_transfer(src, dst, DataSize::megabytes(rng.uniform(1.0, 8.0)))
                .expect("routable");
        }
        2 => {
            if let Some(t) = net.next_completion() {
                completed.clear();
                net.advance_into(t, completed);
            }
        }
        _ => {
            let step = SimDuration::from_millis(rng.uniform_usize(5, 50) as u64);
            completed.clear();
            net.advance_into(net.now() + step, completed);
        }
    }
}

impl PerfReport {
    /// Writes the report's fields into a [`JsonBuilder`] object.
    fn fill(&self, j: &mut JsonBuilder) {
        j.str("mode", self.mode);
        j.int("flows", self.flows as u64);
        j.int("events", self.events as u64);
        j.f64("elapsed_secs", self.elapsed_secs);
        j.f64("events_per_sec", self.events_per_sec);
        j.int("reallocations", self.reallocations);
        j.f64("reallocations_per_sec", self.reallocations_per_sec);
        j.f64("p50_event_us", self.p50_event_us);
        j.f64("p99_event_us", self.p99_event_us);
        j.int("waterfill_rounds", self.waterfill_rounds);
        j.int("waterfill_touches", self.waterfill_touches);
        j.int("cert_touches", self.cert_touches);
        j.int("full_recomputes", self.full_recomputes);
        j.int("steady_state_allocs", self.steady_state_allocs);
        j.f64("final_drift_bps", self.final_drift_bps);
    }
}

/// Renders the `BENCH_net.json` artifact: both runs plus the headline
/// tally ratio, the from-scratch waterfill tally over the incremental one
/// (the acceptance bar is ≥ 5). Built on the shared [`JsonBuilder`], which
/// reproduces the committed artifact's byte format exactly.
pub(crate) fn comparison_json(incremental: &PerfReport, full: &PerfReport) -> String {
    let ratio = if incremental.waterfill_touches > 0 {
        full.waterfill_touches as f64 / incremental.waterfill_touches as f64
    } else {
        f64::INFINITY
    };
    let mut j = JsonBuilder::new();
    j.str("benchmark", "net_churn");
    j.object("incremental", |j| incremental.fill(j));
    j.object("full", |j| full.fill(j));
    j.f64("waterfill_touch_ratio", ratio);
    j.finish()
}

/// Declares the churn microbenchmark (`bench --run perf`) and its gates.
pub(crate) fn experiment() -> crate::runner::Experiment {
    use crate::runner::{gate_num, Experiment};
    Experiment {
        name: "perf",
        about: "incremental vs full max-min waterfilling under churn",
        artifact: "BENCH_net.json",
        run: |scale, alloc_count| {
            let opts = PerfOptions {
                seed: scale.seed,
                ..PerfOptions::default()
            };
            let incremental = churn(&opts, alloc_count);
            let full = churn(
                &PerfOptions {
                    force_full: true,
                    ..opts
                },
                alloc_count,
            );
            comparison_json(&incremental, &full)
        },
        gates: |doc| {
            let mut f = Vec::new();
            if let Some(ratio) = gate_num(doc, "net_churn", "waterfill_touch_ratio", &mut f) {
                if ratio < 5.0 {
                    f.push(format!(
                        "incremental waterfilling no longer ≥5× cheaper (tally ratio {ratio:.2})"
                    ));
                }
            }
            if let Some(allocs) = gate_num(doc, "incremental", "steady_state_allocs", &mut f) {
                if allocs != 0.0 {
                    f.push(format!(
                        "hot path allocated {allocs:.0} times during the measured phase"
                    ));
                }
            }
            if let Some(drift) = gate_num(doc, "incremental", "final_drift_bps", &mut f) {
                if drift > 1.0 {
                    f.push(format!(
                        "incremental allocation drifted {drift} bps from the reference"
                    ));
                }
            }
            f
        },
        baseline_gates: |doc, baseline| {
            let mut f = Vec::new();
            let run_eps = gate_num(doc, "incremental", "events_per_sec", &mut f);
            let base_eps = gate_num(baseline, "incremental", "events_per_sec", &mut f);
            if let (Some(run), Some(base)) = (run_eps, base_eps) {
                if run < 0.7 * base {
                    f.push(format!(
                        "events/sec regressed >30%: {run:.0} vs baseline {base:.0}"
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

    fn small() -> PerfOptions {
        PerfOptions {
            flows: 40,
            churn_events: 80,
            seed: 7,
            force_full: false,
        }
    }

    #[test]
    fn churn_is_deterministic_in_op_sequence() {
        let a = churn(&small(), &|| 0);
        let b = churn(&small(), &|| 0);
        assert_eq!(a.reallocations, b.reallocations);
        assert_eq!(a.waterfill_touches, b.waterfill_touches);
        assert_eq!(a.full_recomputes, b.full_recomputes);
    }

    #[test]
    fn incremental_tracks_reference_under_churn() {
        let r = churn(&small(), &|| 0);
        assert!(
            r.final_drift_bps < 1.0,
            "drift {} bps vs from-scratch reference",
            r.final_drift_bps
        );
    }

    #[test]
    fn incremental_does_less_waterfill_work_than_full() {
        let inc = churn(&small(), &|| 0);
        let full = churn(
            &PerfOptions {
                force_full: true,
                ..small()
            },
            &|| 0,
        );
        assert!(
            full.waterfill_touches > inc.waterfill_touches,
            "full {} vs incremental {}",
            full.waterfill_touches,
            inc.waterfill_touches
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = churn(&small(), &|| 0);
        let doc = comparison_json(&r, &r);
        assert!(doc.contains("\"benchmark\": \"net_churn\""));
        assert!(doc.contains("\"waterfill_touch_ratio\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
