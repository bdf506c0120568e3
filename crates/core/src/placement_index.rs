//! Capacity-indexed placement: O(log n) bin-pack decisions that are
//! byte-identical to the linear scans they replace.
//!
//! The orchestrator bin-packs: each workload goes to the lowest-index SoC
//! with room, so the idle tail of the fleet can sleep (§8's SoC-level
//! scheduling granularity; Figs. 7 and 12's energy proportionality). A
//! linear scan per decision is tolerable at 60 SoCs; at the "massive"
//! scale the paper targets — and in churn-heavy sweeps where every
//! submit/finish/fault re-runs placement — it dominates. [`PlacementIndex`]
//! is a segment tree over SoC slots whose nodes summarize per-resource
//! *headroom* (capacity − used, elementwise max over the subtree),
//! maintained incrementally in O(log n) per mutation.
//!
//! ## Invariants (see DESIGN.md)
//!
//! 1. **Summaries are pruning bounds, never decisions.** A subtree is
//!    skipped only when *no* SoC inside could possibly fit (with a slack
//!    wider than [`SocUnit::fits`]'s epsilon, so float re-association can
//!    never prune a fitting SoC). The final accept always calls
//!    `socs[i].fits(demand)` on the leaf — the exact same predicate, on
//!    the exact same floats, as the linear scan. Decisions are therefore
//!    byte-identical, just reached faster.
//! 2. **The index mirrors `socs` after every mutation.** Every
//!    place/release/decommission/restore on a `SocUnit` must be followed
//!    by [`PlacementIndex::update`] for that slot before the next
//!    placement query. The orchestrator owns this discipline; each query
//!    cross-checks its decision against the linear scan in debug builds.

use std::ops::Range;

use crate::soc::{Demand, SocUnit};

/// Pruning slack added to headroom comparisons. [`SocUnit::fits`] accepts
/// with a `1e-9` epsilon on `used + demand <= cap`; re-associating that to
/// `demand <= cap - used` can shift the boundary by a few ULPs of the
/// operands (≤ ~1e-10 at this domain's magnitudes), so a 1e-6 slack can
/// never prune a SoC the exact predicate would accept — it only lets a few
/// borderline subtrees through to the exact leaf check.
const PRUNE_SLACK: f64 = 1e-6;

/// Per-subtree summary: elementwise **max** headroom across healthy SoCs
/// (an upper bound on what any single SoC inside can absorb).
#[derive(Debug, Clone, Copy)]
struct Summary {
    cpu_pu: f64,
    codec_mb_s: f64,
    codec_sessions: usize,
    gpu_frac: f64,
    dsp_frac: f64,
    mem_gb: f64,
    net_mbps: f64,
    any_healthy: bool,
}

impl Summary {
    /// The identity for [`Summary::merge`]: an empty/unhealthy range.
    const EMPTY: Self = Self {
        cpu_pu: f64::NEG_INFINITY,
        codec_mb_s: f64::NEG_INFINITY,
        codec_sessions: 0,
        gpu_frac: f64::NEG_INFINITY,
        dsp_frac: f64::NEG_INFINITY,
        mem_gb: f64::NEG_INFINITY,
        net_mbps: f64::NEG_INFINITY,
        any_healthy: false,
    };

    fn leaf(soc: &SocUnit) -> Self {
        if !soc.healthy {
            return Self::EMPTY;
        }
        let used = soc.used();
        Self {
            cpu_pu: soc.spec.cpu.transcode_capacity() - used.cpu_pu,
            codec_mb_s: soc.spec.codec.throughput_mb_per_s - used.codec_mb_s,
            codec_sessions: soc
                .spec
                .codec
                .max_sessions
                .saturating_sub(used.codec_sessions),
            gpu_frac: soc.gpu_capacity_frac() - used.gpu_frac,
            dsp_frac: 1.0 - used.dsp_frac,
            mem_gb: soc.spec.memory.capacity_gb - used.mem_gb,
            net_mbps: soc.spec.ethernet_bps / 1e6 - used.net_mbps,
            any_healthy: true,
        }
    }

    /// Merges two child summaries (elementwise max headroom).
    /// `f64::max` picks one operand verbatim — no arithmetic — so bounds
    /// never accumulate rounding error up the tree.
    fn merge(a: &Self, b: &Self) -> Self {
        Self {
            cpu_pu: a.cpu_pu.max(b.cpu_pu),
            codec_mb_s: a.codec_mb_s.max(b.codec_mb_s),
            codec_sessions: a.codec_sessions.max(b.codec_sessions),
            gpu_frac: a.gpu_frac.max(b.gpu_frac),
            dsp_frac: a.dsp_frac.max(b.dsp_frac),
            mem_gb: a.mem_gb.max(b.mem_gb),
            net_mbps: a.net_mbps.max(b.net_mbps),
            any_healthy: a.any_healthy || b.any_healthy,
        }
    }

    /// Bit-for-bit equality: `to_bits` on every float, so a re-merge that
    /// reproduces the stored node is recognised exactly.
    fn same_bits(&self, other: &Self) -> bool {
        let floats = |s: &Self| {
            [
                s.cpu_pu,
                s.codec_mb_s,
                s.gpu_frac,
                s.dsp_frac,
                s.mem_gb,
                s.net_mbps,
            ]
            .map(f64::to_bits)
        };
        floats(self) == floats(other)
            && self.codec_sessions == other.codec_sessions
            && self.any_healthy == other.any_healthy
    }

    /// Could *some* SoC in this range fit `demand`? `false` is a proof of
    /// no-fit; `true` only licenses descending.
    fn may_fit(&self, d: &Demand) -> bool {
        self.any_healthy
            && d.cpu_pu <= self.cpu_pu + PRUNE_SLACK
            && d.codec_mb_s <= self.codec_mb_s + PRUNE_SLACK
            && d.codec_sessions <= self.codec_sessions
            && d.gpu_frac <= self.gpu_frac + PRUNE_SLACK
            && d.dsp_frac <= self.dsp_frac + PRUNE_SLACK
            && d.mem_gb <= self.mem_gb + PRUNE_SLACK
            && d.net_mbps <= self.net_mbps + PRUNE_SLACK
    }
}

/// A segment tree of per-resource headroom over the fleet's SoC slots.
///
/// Queries answer the two placement shapes the orchestrator needs — first
/// fit, and first fit outside avoided slot ranges — each in O(log n)
/// descent when the answer exists, with decisions byte-identical to the
/// corresponding linear scan.
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    /// Number of real slots (leaves beyond `len` are [`Summary::EMPTY`]).
    len: usize,
    /// Leaf capacity: `len` rounded up to a power of two (min 1).
    base: usize,
    /// 1-based heap layout: `nodes[1]` is the root, leaf `i` lives at
    /// `base + i`.
    nodes: Vec<Summary>,
}

impl PlacementIndex {
    /// Builds the index for the current state of `socs` in O(n).
    pub fn new(socs: &[SocUnit]) -> Self {
        let len = socs.len();
        let base = len.next_power_of_two().max(1);
        let mut nodes = vec![Summary::EMPTY; 2 * base];
        for (i, soc) in socs.iter().enumerate() {
            nodes[base + i] = Summary::leaf(soc);
        }
        for i in (1..base).rev() {
            nodes[i] = Summary::merge(&nodes[2 * i], &nodes[2 * i + 1]);
        }
        Self { len, base, nodes }
    }

    /// Re-summarizes slot `i` from its SoC and refreshes the O(log n)
    /// ancestor path. Must be called after *every* resource or health
    /// mutation of `socs[i]` (invariant 2 above).
    ///
    /// Stops at the first node on the path whose new summary equals the
    /// stored one bit for bit: `merge` picks its operands verbatim, so
    /// every ancestor above an unchanged node is unchanged too, and the
    /// tree still equals a fresh [`Self::new`] bit for bit.
    pub fn update(&mut self, i: usize, soc: &SocUnit) {
        assert!(i < self.len, "slot {i} out of range ({} slots)", self.len);
        let mut node = self.base + i;
        let mut summary = Summary::leaf(soc);
        while !summary.same_bits(&self.nodes[node]) {
            self.nodes[node] = summary;
            node /= 2;
            if node == 0 {
                return;
            }
            summary = Summary::merge(&self.nodes[2 * node], &self.nodes[2 * node + 1]);
        }
    }

    /// Lowest-index SoC that fits `demand` (the bin-pack decision), or
    /// `None` if nothing does.
    pub fn first_fit(&self, demand: &Demand, socs: &[SocUnit]) -> Option<usize> {
        let got = self.first_fit_in(1, 0, self.base, demand, socs);
        debug_assert_eq!(
            got,
            socs.iter().position(|s| s.fits(demand)),
            "indexed first fit diverged from the linear scan"
        );
        got
    }

    /// Lowest-index SoC *outside every `avoid` range* that fits `demand`
    /// (the anti-affinity decision: skip a failed board's slots, skip
    /// partitioned port groups), or `None` if nothing outside fits.
    ///
    /// Byte-identical to a linear scan that skips the avoided slots:
    /// subtrees fully inside one avoided range are pruned, membership is
    /// re-checked exactly at the leaf, and the final accept is the same
    /// `fits` predicate as everywhere else.
    pub(crate) fn first_fit_outside(
        &self,
        demand: &Demand,
        socs: &[SocUnit],
        avoid: &[Range<usize>],
    ) -> Option<usize> {
        let got = self.first_fit_outside_in(1, 0, self.base, demand, socs, avoid);
        debug_assert_eq!(
            got,
            socs.iter()
                .enumerate()
                .position(|(i, s)| !avoid.iter().any(|r| r.contains(&i)) && s.fits(demand)),
            "indexed anti-affinity decision diverged from the skip-scan"
        );
        got
    }

    fn first_fit_outside_in(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        demand: &Demand,
        socs: &[SocUnit],
        avoid: &[Range<usize>],
    ) -> Option<usize> {
        if lo >= self.len || !self.nodes[node].may_fit(demand) {
            return None;
        }
        // Prune a subtree a single avoid range covers whole; unions that
        // only jointly cover it fall through to the exact leaf check.
        let end = hi.min(self.len);
        if avoid.iter().any(|r| r.start <= lo && end <= r.end) {
            return None;
        }
        if hi - lo == 1 {
            let avoided = avoid.iter().any(|r| r.contains(&lo));
            return (!avoided && socs[lo].fits(demand)).then_some(lo);
        }
        let mid = lo + (hi - lo) / 2;
        self.first_fit_outside_in(2 * node, lo, mid, demand, socs, avoid)
            .or_else(|| self.first_fit_outside_in(2 * node + 1, mid, hi, demand, socs, avoid))
    }

    fn first_fit_in(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        demand: &Demand,
        socs: &[SocUnit],
    ) -> Option<usize> {
        if lo >= self.len || !self.nodes[node].may_fit(demand) {
            return None;
        }
        if hi - lo == 1 {
            // Exact check at the leaf: identical predicate to the scan.
            return socs[lo].fits(demand).then_some(lo);
        }
        let mid = lo + (hi - lo) / 2;
        self.first_fit_in(2 * node, lo, mid, demand, socs)
            .or_else(|| self.first_fit_in(2 * node + 1, mid, hi, demand, socs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virt::DeploymentMode;
    use proptest::prelude::*;
    use socc_hw::calib::SOCS_PER_PCB;

    fn fleet(n: usize) -> Vec<SocUnit> {
        (0..n)
            .map(|i| SocUnit::new(i, DeploymentMode::Physical))
            .collect()
    }

    fn d(pu: f64) -> Demand {
        Demand {
            cpu_pu: pu,
            ..Default::default()
        }
    }

    /// Reference decisions: the linear scans the index must reproduce.
    fn linear_first_fit(demand: &Demand, socs: &[SocUnit]) -> Option<usize> {
        socs.iter().position(|s| s.fits(demand))
    }

    #[test]
    fn first_fit_matches_scan_as_fleet_fills() {
        let mut socs = fleet(7);
        let mut idx = PlacementIndex::new(&socs);
        let demand = d(1000.0);
        for _ in 0..3 * 7 {
            let got = idx.first_fit(&demand, &socs);
            assert_eq!(got, linear_first_fit(&demand, &socs));
            let Some(i) = got else { break };
            socs[i].place(&demand);
            idx.update(i, &socs[i]);
        }
        // Fleet is full for this demand; both agree on None.
        assert_eq!(idx.first_fit(&d(1000.0), &socs), None);
        assert_eq!(linear_first_fit(&d(1000.0), &socs), None);
    }

    #[test]
    fn unhealthy_slots_are_invisible() {
        let mut socs = fleet(3);
        socs[0].decommission();
        let mut idx = PlacementIndex::new(&socs);
        assert_eq!(idx.first_fit(&d(1.0), &socs), Some(1));
        socs[1].decommission();
        idx.update(1, &socs[1]);
        assert_eq!(idx.first_fit(&d(1.0), &socs), Some(2));
        socs[0].restore();
        idx.update(0, &socs[0]);
        assert_eq!(idx.first_fit(&d(1.0), &socs), Some(0));
    }

    #[test]
    fn empty_and_single_slot_fleets() {
        let socs = fleet(0);
        let idx = PlacementIndex::new(&socs);
        assert_eq!(idx.len, 0);
        assert_eq!(idx.first_fit(&d(1.0), &socs), None);

        let socs = fleet(1);
        let idx = PlacementIndex::new(&socs);
        assert_eq!(idx.len, 1);
        assert_eq!(idx.first_fit(&d(1.0), &socs), Some(0));
    }

    #[test]
    fn multi_resource_demands_prune_correctly() {
        let mut socs = fleet(6);
        // Exhaust GPU on the first five SoCs; a GPU demand must land on 5
        // even though CPU headroom exists everywhere.
        let gpu = Demand {
            gpu_frac: 1.0,
            ..Default::default()
        };
        let mut idx = PlacementIndex::new(&socs);
        for (i, soc) in socs.iter_mut().enumerate().take(5) {
            soc.place(&gpu);
            idx.update(i, soc);
        }
        let half_gpu = Demand {
            gpu_frac: 0.5,
            cpu_pu: 10.0,
            ..Default::default()
        };
        assert_eq!(idx.first_fit(&half_gpu, &socs), Some(5));
        assert_eq!(
            idx.first_fit(&half_gpu, &socs),
            linear_first_fit(&half_gpu, &socs)
        );
    }

    fn linear_first_fit_outside(
        demand: &Demand,
        socs: &[SocUnit],
        avoid: &[Range<usize>],
    ) -> Option<usize> {
        socs.iter()
            .enumerate()
            .position(|(i, s)| !avoid.iter().any(|r| r.contains(&i)) && s.fits(demand))
    }

    // `&[Range]` is this API's avoid-set type; one board is one range.
    #[allow(clippy::single_range_in_vec_init)]
    #[test]
    fn outside_query_skips_avoided_board_ranges() {
        let mut socs = fleet(20);
        let mut idx = PlacementIndex::new(&socs);
        let demand = d(100.0);
        // Avoid the first board (slots 0..5): the query must land on 5.
        let avoid = [0..5usize];
        assert_eq!(idx.first_fit_outside(&demand, &socs, &avoid), Some(5));
        assert_eq!(
            idx.first_fit_outside(&demand, &socs, &avoid),
            linear_first_fit_outside(&demand, &socs, &avoid)
        );
        // Fill boards 1 and 2; next fit outside the avoided board is 15.
        for (i, soc) in socs.iter_mut().enumerate().take(15).skip(5) {
            soc.place(&d(3235.0));
            idx.update(i, soc);
        }
        assert_eq!(idx.first_fit_outside(&demand, &socs, &avoid), Some(15));
        // Avoiding everything that still fits yields None even though the
        // plain query succeeds.
        let avoid_all = [0..5usize, 15..20];
        assert_eq!(idx.first_fit_outside(&demand, &socs, &avoid_all), None);
        assert_eq!(idx.first_fit(&demand, &socs), Some(0));
    }

    // `&[Range]` is this API's avoid-set type; one board is one range.
    #[allow(clippy::single_range_in_vec_init)]
    #[test]
    fn outside_query_matches_scan_across_range_shapes() {
        let mut socs = fleet(23); // non-power-of-two on purpose
        socs[3].decommission();
        socs[7].place(&d(3235.0));
        socs[12].place(&d(3000.0));
        let idx = PlacementIndex::new(&socs);
        let demand = d(500.0);
        let shapes: [&[Range<usize>]; 6] = [
            &[],              // no avoidance: must equal first_fit
            &[0..5],          // one board
            &[0..20],         // a whole port group
            &[5..10, 15..20], // disjoint boards
            &[0..10, 10..23], // union covers everything
            &[21..40],        // range past the end
        ];
        for avoid in shapes {
            assert_eq!(
                idx.first_fit_outside(&demand, &socs, avoid),
                linear_first_fit_outside(&demand, &socs, avoid),
                "avoid={avoid:?}"
            );
        }
        assert_eq!(
            idx.first_fit_outside(&demand, &socs, &[]),
            idx.first_fit(&demand, &socs)
        );
    }

    /// Asserts that every node of `idx` equals the same node of an index
    /// built afresh from `socs`, bit for bit.
    fn assert_matches_rebuild(idx: &PlacementIndex, socs: &[SocUnit], step: usize) {
        let fresh = PlacementIndex::new(socs);
        assert_eq!(idx.nodes.len(), fresh.nodes.len());
        for (n, (kept, built)) in idx.nodes.iter().zip(&fresh.nodes).enumerate() {
            assert!(
                kept.same_bits(built),
                "step {step}, node {n}: kept {kept:?}, rebuilt {built:?}"
            );
        }
    }

    proptest! {
        /// Updates that stop at the first unchanged node leave the tree
        /// equal to a rebuild after every place, release, decommission,
        /// restore and no-op update, and both queries then answer as their
        /// scans do: first fit, and first fit outside a drawn set of board
        /// ranges (overlapping, or running past the fleet's end). Demands
        /// come from a short list, so siblings often tie and paths stop
        /// early.
        #[test]
        fn early_exit_update_matches_a_rebuild(
            n in 1usize..70,
            ops in prop::collection::vec((0usize..5, 0usize..70, 0usize..4), 1..150),
            boards in prop::collection::vec((0usize..14, 1usize..4), 0..4)
        ) {
            let avoid: Vec<Range<usize>> = boards
                .iter()
                .map(|&(b, len)| b * SOCS_PER_PCB..(b + len) * SOCS_PER_PCB)
                .collect();
            let demands = [
                d(300.0),
                d(1500.0),
                Demand {
                    gpu_frac: 0.125,
                    cpu_pu: 300.0,
                    net_mbps: 8.0,
                    mem_gb: 1.2,
                    ..Default::default()
                },
                Demand {
                    codec_mb_s: 2.0e5,
                    codec_sessions: 1,
                    dsp_frac: 0.25,
                    mem_gb: 0.3,
                    ..Default::default()
                },
            ];
            let mut socs = fleet(n);
            let mut placed: Vec<Vec<Demand>> = vec![Vec::new(); n];
            let mut idx = PlacementIndex::new(&socs);
            for (step, &(op, i, k)) in ops.iter().enumerate() {
                let i = i % n;
                match op {
                    0 if socs[i].fits(&demands[k]) => {
                        socs[i].place(&demands[k]);
                        placed[i].push(demands[k]);
                    }
                    1 => {
                        if let Some(demand) = placed[i].pop() {
                            socs[i].release(&demand);
                        }
                    }
                    2 => {
                        socs[i].decommission();
                        placed[i].clear();
                    }
                    3 if !socs[i].healthy => socs[i].restore(),
                    _ => {}
                }
                idx.update(i, &socs[i]);
                assert_matches_rebuild(&idx, &socs, step);
                let demand = &demands[k];
                prop_assert_eq!(
                    idx.first_fit(demand, &socs),
                    linear_first_fit(demand, &socs)
                );
                prop_assert_eq!(
                    idx.first_fit_outside(demand, &socs, &avoid),
                    linear_first_fit_outside(demand, &socs, &avoid)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_out_of_range_panics() {
        let socs = fleet(2);
        let mut idx = PlacementIndex::new(&socs);
        idx.update(2, &socs[0]);
    }
}
