//! Property tests for the incremental fairness engine: randomized flow
//! churn must stay indistinguishable from from-scratch `max_min_fair`
//! (bit for bit on the forced full path), and link fail/repair
//! round-trips must leave the allocation consistent.
//! A seeded churn pins the allocator's rates and work counters bit for
//! bit, and edge cases of the progressive-filling loop (the numerical
//! guard, a zero-residual link) are pinned directly.

// Tests build reference maps with std collections (see `clippy.toml`).
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;

use proptest::prelude::*;
use socc_net::fairness::{max_min_fair, FairnessState, FlowDemand, FlowKey};
use socc_net::sim::{FlowNet, StreamId};
use socc_net::tcp::TcpModel;
use socc_net::topology::{LinkId, Topology};
use socc_sim::hash::{fnv1a, FNV_OFFSET};
use socc_sim::rng::SimRng;
use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

/// Tolerance in bits/s: the incremental path may differ from the
/// reference only by float-summation noise.
const DRIFT_BPS: f64 = 1.0;

/// The small demand set the churn property mostly draws from, in Mbps;
/// `None` (twice as likely) is an elastic flow. Equal demands are common,
/// so several flows freeze in the same progressive-filling round.
const DEMAND_SET_MBPS: [Option<f64>; 5] = [None, Some(100.0), Some(250.0), Some(500.0), None];

proptest! {
    /// Interleaved adds, removals and removal batches
    /// (`begin_removals` / `defer_remove` / `commit_removals`) on the
    /// persistent allocator match a from-scratch waterfill after every
    /// operation, and each batch is one reallocation. A twin fed the same
    /// operations with `set_force_full(true)` runs the same progressive
    /// filling as `max_min_fair`, so its rates must equal the reference's
    /// bit for bit; the incremental path keeps a 1 bps tolerance for its
    /// different summation order. Adds outweigh the flows removed (5/8 of
    /// ops add one; 2/8 remove one; 1/8 remove a batch of 1-3), so the
    /// live set grows over a case and bottlenecks are shared. Most demands
    /// come from a small set, so several flows often freeze in one round.
    #[test]
    fn incremental_matches_reference_under_churn(
        caps in prop::collection::vec(0.5f64..4.0, 2..8),
        ops in prop::collection::vec(
            (
                0u8..8,                                    // 0-4 = add, 5-6 = remove, 7 = batch
                prop::collection::vec(0usize..8, 0..4),    // route (link indices)
                prop::option::of(1.0f64..500.0),           // demand in mbps, None = elastic
                0usize..8,                                 // < 5: demand from the set instead
                0usize..32,                                // removal pick
                1usize..4,                                 // batch size
            ),
            1..60
        )
    ) {
        let capacity: Vec<f64> = caps.iter().map(|g| g * 1e9).collect();
        let reference_caps: HashMap<LinkId, DataRate> = capacity
            .iter()
            .enumerate()
            .map(|(l, &c)| (LinkId(l as u32), DataRate::bps(c)))
            .collect();
        let mut st = FairnessState::new(capacity.clone());
        let mut twin = FairnessState::new(capacity);
        twin.set_force_full(true);
        // Each live flow's key in `st` and in `twin`, and, at the same
        // index, the flow as the reference sees it.
        let mut live: Vec<(FlowKey, FlowKey)> = Vec::new();
        let mut flows: Vec<FlowDemand> = Vec::new();
        for (kind, route, demand_mbps, set_pick, pick, batch) in ops {
            let before = st.stats().reallocations;
            if kind <= 4 || live.is_empty() {
                let links: Vec<LinkId> = route
                    .iter()
                    .filter(|&&l| l < caps.len())
                    .map(|&l| LinkId(l as u32))
                    .collect();
                let (r, twin_r) = (st.intern_route(&links), twin.intern_route(&links));
                let demand = DEMAND_SET_MBPS.get(set_pick).map_or(demand_mbps, |&d| d);
                let bps = demand.map(|m| m * 1e6);
                live.push((st.add_flow(r, bps), twin.add_flow(twin_r, bps)));
                flows.push(FlowDemand { route: links, demand: bps.map(DataRate::bps) });
            } else if kind <= 6 {
                let at = pick % live.len();
                let (key, twin_key) = live.swap_remove(at);
                flows.swap_remove(at);
                st.remove_flow(key);
                twin.remove_flow(twin_key);
            } else {
                st.begin_removals();
                twin.begin_removals();
                for i in 0..batch.min(live.len()) {
                    let at = (pick + i) % live.len();
                    let (key, twin_key) = live.swap_remove(at);
                    flows.swap_remove(at);
                    st.defer_remove(key);
                    twin.defer_remove(twin_key);
                }
                st.commit_removals();
                twin.commit_removals();
            }
            prop_assert_eq!(st.stats().reallocations, before + 1);
            prop_assert_eq!(st.live_flows(), live.len());
            let drift = st.drift_vs_reference();
            prop_assert!(drift < DRIFT_BPS, "drift {drift} bps after churn op");
            let reference = max_min_fair(&flows, &reference_caps);
            for (&(_, twin_key), r) in live.iter().zip(&reference) {
                let full = twin.rate_bps(twin_key);
                prop_assert!(
                    full.to_bits() == r.as_bps().to_bits(),
                    "full path {full} bps vs reference {} bps",
                    r.as_bps()
                );
            }
        }
    }

    /// Full simulator churn — stream add/remove, transfer start, and
    /// completions inside `advance_to` — keeps the maintained allocation
    /// on the reference after every event.
    #[test]
    fn flownet_churn_tracks_reference(
        ops in prop::collection::vec(
            (0u8..4, 0usize..20, 0usize..21, 1.0f64..20.0),
            1..40
        )
    ) {
        let fabric = Topology::soc_cluster(20);
        let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
        let node = |i: usize| if i == 20 { fabric.external } else { fabric.socs[i] };
        let mut streams: Vec<StreamId> = Vec::new();
        for (kind, a, b, x) in ops {
            match kind {
                0 => {
                    let id = net
                        .add_stream(node(a), node(b), DataRate::mbps(x))
                        .expect("fabric is fully connected");
                    streams.push(id);
                }
                1 if !streams.is_empty() => {
                    let id = streams.swap_remove(a % streams.len());
                    net.remove_stream(id).expect("live stream");
                }
                2 => {
                    net.start_transfer(node(a), node(b), DataSize::megabytes(x))
                        .expect("fabric is fully connected");
                }
                _ => {
                    let step = SimDuration::from_millis((x * 10.0) as u64 + 1);
                    net.advance_to(net.now() + step);
                }
            }
            let drift = net.fairness_drift_vs_reference();
            prop_assert!(drift < DRIFT_BPS, "drift {drift} bps after sim event");
        }
    }

    /// Failing and repairing a link that no flow crosses is a no-op on
    /// rates; failing a used link keeps the allocation consistent with the
    /// reference, as does the repair.
    #[test]
    fn fail_repair_roundtrip(
        demands in prop::collection::vec((0usize..10, 1.0f64..50.0), 1..12),
        link_pick in 0usize..64,
    ) {
        let fabric = Topology::soc_cluster(20);
        let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
        // Keep all traffic on PCBs 0-1 (SoCs 0..10) so PCB 3's uplinks are
        // guaranteed unused.
        let ids: Vec<StreamId> = demands
            .iter()
            .map(|&(s, mbps)| {
                net.add_stream(fabric.socs[s], fabric.external, DataRate::mbps(mbps))
                    .expect("routable")
            })
            .collect();
        let before: Vec<f64> = ids
            .iter()
            .map(|&id| net.stream_rate(id).expect("live").as_bps())
            .collect();

        // An unused link: one of PCB 3's uplink pair.
        let unused = (0..fabric.topology.link_count() as u32)
            .map(LinkId)
            .find(|&l| {
                let link = fabric.topology.link(l);
                link.src == fabric.pcbs[3] && link.dst == fabric.esb
            })
            .expect("pcb3 uplink exists");
        let impact = net.fail_link(unused);
        prop_assert!(impact.lost_streams.is_empty());
        prop_assert!(impact.lost_transfers.is_empty());
        for (&id, &b) in ids.iter().zip(&before) {
            let after = net.stream_rate(id).expect("live").as_bps();
            prop_assert!(
                (after - b).abs() < DRIFT_BPS,
                "unused-link failure moved a rate: {b} -> {after}"
            );
        }
        net.repair_link(unused);
        prop_assert!(net.fairness_drift_vs_reference() < DRIFT_BPS);

        // Now fail + repair an arbitrary link; surviving flows must stay
        // exactly max-min fair throughout.
        let any = LinkId((link_pick % fabric.topology.link_count()) as u32);
        net.fail_link(any);
        prop_assert!(net.fairness_drift_vs_reference() < DRIFT_BPS);
        net.repair_link(any);
        prop_assert!(net.fairness_drift_vs_reference() < DRIFT_BPS);

        // New flows route over the repaired fabric again.
        let id = net
            .add_stream(fabric.socs[0], fabric.external, DataRate::mbps(3.0))
            .expect("repaired fabric is fully connected");
        net.remove_stream(id).expect("live stream");
        prop_assert!(net.fairness_drift_vs_reference() < DRIFT_BPS);
    }
}

/// FNV-1a over the little-endian bytes of one word.
fn fnv(h: &mut u64, v: u64) {
    *h = fnv1a(*h, &v.to_le_bytes());
}

/// A seeded churn of `ops` operations on the 60-SoC fabric: 200 streams
/// attached, then stream adds and removals (up to 240 streams),
/// transfers, completions and clock steps. After every operation the
/// digest folds every live stream's rate bits and the clock; at the end
/// it folds the allocator's work counters.
fn seeded_churn_digest(force_full: bool, ops: usize) -> u64 {
    let fabric = Topology::soc_cluster(60);
    let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
    net.set_force_full_recompute(force_full);
    let node = |i: usize| {
        if i == 60 {
            fabric.external
        } else {
            fabric.socs[i]
        }
    };
    let mut rng = SimRng::seed(42).split("allocator-bit-pin");
    let mut streams: Vec<StreamId> = Vec::new();
    let mut completed = Vec::new();
    let mut digest = FNV_OFFSET;
    for op in 0..ops {
        let (a, b) = (rng.uniform_usize(0, 61), rng.uniform_usize(0, 61));
        let kind = rng.uniform_usize(0, 10);
        match kind {
            _ if op < 200 || (kind <= 2 && streams.len() < 240) => {
                let demand = DataRate::mbps(rng.uniform(2.0, 60.0));
                streams.push(net.add_stream(node(a), node(b), demand).expect("routable"));
            }
            0..=4 => {
                let id = streams.swap_remove(rng.uniform_usize(0, streams.len()));
                net.remove_stream(id).expect("live stream");
            }
            5 | 6 if net.active_transfers() < 24 => {
                let size = DataSize::megabytes(rng.uniform(0.5, 4.0));
                net.start_transfer(node(a), node(b), size)
                    .expect("routable");
            }
            5..=7 => {
                if let Some(t) = net.next_completion() {
                    net.advance_into(t, &mut completed);
                }
            }
            _ => {
                let step = SimDuration::from_millis(rng.uniform_usize(1, 20) as u64);
                net.advance_into(net.now() + step, &mut completed);
            }
        }
        for &id in &streams {
            fnv(
                &mut digest,
                net.stream_rate(id).expect("live").as_bps().to_bits(),
            );
        }
        fnv(&mut digest, net.now().as_nanos());
    }
    let s = net.fairness_stats();
    for v in [
        s.reallocations,
        s.full_recomputes,
        s.incremental_updates,
        s.waterfill_rounds,
        s.waterfill_touches,
        s.cert_rounds,
        s.cert_touches,
    ] {
        fnv(&mut digest, v);
    }
    fnv(&mut digest, completed.len() as u64);
    digest
}

/// Pins the allocator bit for bit: every stream rate after every
/// operation, the clock, and every work counter, on the incremental path
/// and, over a shorter prefix, on the forced from-scratch path. A change
/// to the progressive filling that moves one rate bit or one counted
/// visit fails here.
#[test]
fn seeded_churn_rates_and_counters_are_pinned() {
    assert_eq!(
        [
            seeded_churn_digest(false, 800),
            seeded_churn_digest(true, 320)
        ],
        [0x52a2_1b6c_df64_2f4b, 0xe3ca_c746_9130_3888],
        "(incremental, full) digests"
    );
}

/// Two nets driven through the same operations report bit-identical
/// per-link load, link by link.
#[test]
fn link_load_is_bit_identical_across_identical_nets() {
    let drive = || {
        let fabric = Topology::soc_cluster(60);
        let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
        let mut rng = SimRng::seed(7).split("link-load");
        for _ in 0..200 {
            let (a, b) = (rng.uniform_usize(0, 60), rng.uniform_usize(0, 60));
            let demand = DataRate::mbps(rng.uniform(2.0, 20.0));
            net.add_stream(fabric.socs[a], fabric.external, demand)
                .expect("routable");
            if b % 8 == 0 {
                let size = DataSize::megabytes(rng.uniform(20.0, 40.0));
                net.start_transfer(fabric.socs[b], fabric.socs[a], size)
                    .expect("routable");
            }
        }
        // Past every startup ramp, so transfers count toward the load.
        net.advance_to(net.now() + SimDuration::from_millis(50));
        net
    };
    let (a, b) = (drive(), drive());
    let bits = |net: &FlowNet| {
        let mut v: Vec<(u32, u64)> = net
            .link_load()
            .into_iter()
            .map(|(l, r)| (l.0, r.as_bps().to_bits()))
            .collect();
        v.sort_unstable();
        v
    };
    assert!(!bits(&a).is_empty());
    assert_eq!(bits(&a), bits(&b));
    for l in 0..a.topology().link_count() as u32 {
        assert_eq!(
            a.link_utilization(LinkId(l)).to_bits(),
            b.link_utilization(LinkId(l)).to_bits(),
            "link {l}"
        );
    }
}

/// A round in which nothing freezes ends the progressive filling early
/// (the numerical guard). 1005 Gbps over 7 elastic flows is such a round:
/// `(C / 7) * 7` rounds below `C` by more than the saturation slack, and
/// `C / 7` is below the elastic ceiling. The flows still hold the level.
#[test]
fn numerical_guard_exit_leaves_flows_at_the_level() {
    let cap = 1005e9;
    let level = cap / 7.0;
    assert!(
        cap - level * 7.0 > 1e-6,
        "premise: the link does not saturate"
    );
    assert!(level < 1e12, "premise: no flow reaches the elastic ceiling");
    let mut st = FairnessState::new(vec![cap]);
    let r = st.intern_route(&[LinkId(0)]);
    let keys: Vec<FlowKey> = (0..7).map(|_| st.add_flow(r, None)).collect();
    for &k in &keys {
        assert_eq!(st.rate_bps(k).to_bits(), level.to_bits());
    }
    assert!(st.drift_vs_reference() < DRIFT_BPS);
}

/// An incremental update whose affected set crosses a link with zero
/// residual: the flow on it freezes at 0 in the first round, the link
/// drops out, and the other affected flow fills the rest.
#[test]
fn incremental_update_starting_on_a_zero_residual_link() {
    // Links: 0 = A (1 Gbps), 1 = Z (no capacity), 2 = B (1 Gbps).
    let mut st = FairnessState::new(vec![1e9, 0.0, 1e9]);
    let on_b = st.intern_route(&[LinkId(2)]);
    let on_a = st.intern_route(&[LinkId(0)]);
    let on_z_a = st.intern_route(&[LinkId(1), LinkId(0)]);
    let bystander = st.add_flow(on_b, None);
    let wide = st.add_flow(on_a, None);
    let before = st.stats();
    let starved = st.add_flow(on_z_a, None);
    let after = st.stats();
    assert_eq!(after.incremental_updates, before.incremental_updates + 1);
    assert_eq!(after.full_recomputes, before.full_recomputes);
    // Round 1 freezes `starved` at level 0; round 2 raises `wide` to 1 Gbps.
    assert_eq!(after.waterfill_rounds, before.waterfill_rounds + 2);
    assert_eq!(st.rate_bps(starved), 0.0);
    assert_eq!(st.rate_bps(wide), 1e9);
    assert_eq!(st.rate_bps(bystander), 1e9);
    assert!(st.drift_vs_reference() < DRIFT_BPS);
}
