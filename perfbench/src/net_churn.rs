//! `net_churn`: max-min fair sharing on the SoC-Cluster fabric under a
//! seeded mix of stream add/remove, transfer start and clock advances,
//! with no orchestrator in the loop.
//!
//! Set-up builds a `FlowNet` on `Topology::soc_cluster(60)`, attaches the
//! starting stream population, fills the transfer table to its cap, then
//! runs a warm-up of churn, so every buffer and route cache has reached
//! its peak size before timing starts (the timed phase allocates
//! nothing). The timed phase is the next `ops` operations.
//!
//! The starting population is the same for every seed, and streams leave
//! and rejoin with their own endpoints and demand, so every seed churns
//! one congestion regime and the work per run varies little with the
//! seed; the seed drives which streams churn when, the transfers and the
//! clock steps.

use std::time::Instant;

use socc_net::sim::{FlowNet, StreamId, TransferId};
use socc_net::tcp::TcpModel;
use socc_net::topology::{NodeId, Topology};
use socc_sim::rng::SimRng;
use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

use crate::trace::{Call, Tracer};
use crate::workload::{fnv, Checks, Unit, Workload, FNV_OFFSET};

/// A churn shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetChurn {
    /// Target number of attached streams.
    pub flows: usize,
    /// Churn operations run during set-up, after the tables are full.
    pub warmup: usize,
    /// Operations in the timed phase.
    pub ops: usize,
}

/// The benchmark's shape: half the streams of the repository's churn
/// scenario (2000), which quarters the set-up and halves each operation,
/// so a run repeats the unit often enough for a steady minimum; the timed
/// phase gives every operation type over 1000 samples per traced run.
pub const BENCH: NetChurn = NetChurn {
    flows: 1000,
    warmup: 500,
    ops: 2000,
};

/// Ceiling on in-flight transfers; at the cap the mix drains instead.
const MAX_TRANSFERS: usize = 64;
/// The stream population stays within this slack of `flows`.
const STREAM_SLACK: usize = 8;
/// Seed of the starting stream population.
const POPULATION_SEED: u64 = 42;
/// Largest allowed gap between the maintained allocation and a
/// from-scratch max-min reference, bits/s.
const MAX_DRIFT_BPS: f64 = 1.0;

/// A warmed network and the churn generator's state.
pub struct Input {
    net: FlowNet,
    pool: Vec<(NodeId, NodeId)>,
    rng: SimRng,
    /// Attached streams, each with its endpoint pair's index in `pool`
    /// and its demand.
    live: Vec<(StreamId, usize, DataRate)>,
    /// Endpoint pairs and demands of detached streams, waiting to be
    /// re-attached.
    vacant: Vec<(usize, DataRate)>,
    completed: Vec<TransferId>,
}

impl Input {
    /// Operation `e` of the mix; `e % 4` picks add stream, remove stream,
    /// start (or drain) a transfer, or a clock step, with caps that keep
    /// table sizes inside what the warm-up visited. An added stream is one
    /// detached earlier, with its endpoints and demand.
    fn op(&mut self, flows: usize, e: usize, tr: &mut Tracer) {
        let Input {
            net,
            pool,
            rng,
            live,
            vacant,
            completed,
        } = self;
        match e % 4 {
            0 if live.len() < flows + STREAM_SLACK => {
                let (pair, demand) = vacant.swap_remove(rng.uniform_usize(0, vacant.len()));
                let (src, dst) = pool[pair];
                let id = tr.time(Call::NetAddStream, || net.add_stream(src, dst, demand));
                live.push((id.expect("pool endpoints are routable"), pair, demand));
            }
            1 | 0 if live.len() > flows.saturating_sub(STREAM_SLACK) => {
                let (id, pair, demand) = live.swap_remove(rng.uniform_usize(0, live.len()));
                tr.time(Call::NetRemoveStream, || net.remove_stream(id))
                    .expect("stream is live");
                vacant.push((pair, demand));
            }
            2 if net.active_transfers() < MAX_TRANSFERS => {
                let (src, dst) = pool[rng.uniform_usize(0, pool.len())];
                let size = DataSize::megabytes(rng.uniform(1.0, 8.0));
                tr.time(Call::NetStartTransfer, || {
                    net.start_transfer(src, dst, size)
                })
                .expect("pool endpoints are routable");
            }
            2 => {
                completed.clear();
                tr.time(Call::NetAdvance, || {
                    if let Some(t) = net.next_completion() {
                        net.advance_into(t, completed);
                    }
                });
            }
            _ => {
                let step = SimDuration::from_millis(rng.uniform_usize(5, 50) as u64);
                completed.clear();
                tr.time(Call::NetAdvance, || {
                    net.advance_into(net.now() + step, completed)
                });
            }
        }
    }
}

impl Workload for NetChurn {
    type Input = Input;

    fn setup(&self, seed: u64, _tr: &mut Tracer) -> Input {
        let fabric = Topology::soc_cluster(60);
        let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
        // Endpoint pool: same-PCB pairs, mostly cross-PCB pairs, and
        // SoC↔external in both directions — the fabric's three traffic
        // classes, small enough for the route cache to hold every pair.
        let mut pool = Vec::new();
        for i in 0..30 {
            pool.push((fabric.socs[2 * i], fabric.socs[2 * i + 1]));
            pool.push((fabric.socs[i], fabric.socs[(i + 17) % 60]));
            pool.push((fabric.socs[i], fabric.external));
            pool.push((fabric.external, fabric.socs[(i * 7) % 60]));
        }
        for &(src, dst) in &pool {
            let id = net
                .add_stream(src, dst, DataRate::mbps(5.0))
                .expect("pool endpoints are routable");
            net.remove_stream(id).expect("just added");
        }
        let mut pop = SimRng::seed(POPULATION_SEED).split("net-churn-population");
        let mut live = Vec::with_capacity(self.flows + STREAM_SLACK);
        let mut vacant = Vec::with_capacity(2 * STREAM_SLACK);
        while live.len() < self.flows + STREAM_SLACK {
            let pair = pop.uniform_usize(0, pool.len());
            let (src, dst) = pool[pair];
            let demand = DataRate::mbps(pop.uniform(2.0, 20.0));
            let id = net.add_stream(src, dst, demand).expect("routable");
            live.push((id, pair, demand));
        }
        while live.len() > self.flows {
            let (id, pair, demand) = live.swap_remove(pop.uniform_usize(0, live.len()));
            net.remove_stream(id).expect("live stream");
            vacant.push((pair, demand));
        }
        while net.active_transfers() < MAX_TRANSFERS {
            let (src, dst) = pool[pop.uniform_usize(0, pool.len())];
            net.start_transfer(src, dst, DataSize::megabytes(pop.uniform(1.0, 8.0)))
                .expect("routable");
        }
        // One forced from-scratch reallocation at peak population sizes
        // the fallback path's scratch buffers.
        net.set_force_full_recompute(true);
        let (src, dst) = pool[0];
        let id = net
            .add_stream(src, dst, DataRate::mbps(5.0))
            .expect("routable");
        net.set_force_full_recompute(false);
        net.remove_stream(id).expect("just added");

        let mut input = Input {
            net,
            pool,
            rng: SimRng::seed(seed).split("net-churn"),
            live,
            vacant,
            completed: Vec::with_capacity(MAX_TRANSFERS),
        };
        let mut untraced = Tracer::default();
        for e in 0..self.warmup {
            input.op(self.flows, e, &mut untraced);
        }
        input
    }

    fn run(&self, mut input: Input, tr: &mut Tracer) -> Unit {
        let before = input.net.fairness_stats();
        let started = Instant::now();
        for e in self.warmup..self.warmup + self.ops {
            input.op(self.flows, e, tr);
        }
        let wall = started.elapsed().as_secs_f64();
        let after = input.net.fairness_stats();

        let mut checks = Checks::default();
        let drift = input.net.fairness_drift_vs_reference();
        checks.check(drift <= MAX_DRIFT_BPS, || {
            format!("allocation drifted {drift} bps from the from-scratch reference")
        });
        checks.check(input.net.active_streams() == input.live.len(), || {
            format!(
                "{} streams attached, {} expected",
                input.net.active_streams(),
                input.live.len()
            )
        });
        let counters = [
            (
                "net.reallocations",
                after.reallocations - before.reallocations,
            ),
            (
                "net.waterfill_rounds",
                after.waterfill_rounds - before.waterfill_rounds,
            ),
            (
                "net.waterfill_touches",
                after.waterfill_touches - before.waterfill_touches,
            ),
            ("net.cert_touches", after.cert_touches - before.cert_touches),
            (
                "net.full_recomputes",
                after.full_recomputes - before.full_recomputes,
            ),
        ];
        let mut digest = FNV_OFFSET;
        for (_, v) in counters {
            fnv(&mut digest, v);
        }
        fnv(&mut digest, input.net.active_streams() as u64);
        fnv(&mut digest, input.net.active_transfers() as u64);
        Unit {
            wall,
            digest,
            counters: counters.iter().map(|&(k, v)| (k, v as f64)).collect(),
            timings: Vec::new(),
            checks,
        }
    }

    fn pinned_digest(&self, seed: u64) -> Option<u64> {
        (*self == BENCH && seed == 42).then_some(0x4d22_4ab6_1704_10cb)
    }
}
