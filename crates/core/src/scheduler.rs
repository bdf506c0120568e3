//! Placement strategies for the orchestrator.
//!
//! The scheduling granularity is a whole SoC (§8: "The SoC-level workload
//! scheduling granularity"), and the choice of strategy directly controls
//! energy proportionality: packing work onto few SoCs lets the rest sleep
//! (Fig. 7/12's proportional scaling), while spreading maximizes thermal
//! headroom at the cost of keeping every SoC awake.

use crate::placement_index::PlacementIndex;
use crate::soc::{Demand, SocUnit};

/// A placement strategy.
pub trait Scheduler: Send {
    /// Strategy name for telemetry.
    fn name(&self) -> &'static str;

    /// Picks the SoC index for a demand, or `None` if nothing fits.
    fn place(&mut self, demand: &Demand, socs: &[SocUnit]) -> Option<usize>;

    /// Like [`Self::place`], but may consult a capacity index the caller
    /// keeps in sync with `socs` for an O(log n) decision. Implementations
    /// must return **exactly** what `place` would (the index is an
    /// accelerator, not a different policy); the default ignores the index
    /// and runs the linear scan.
    fn place_indexed(
        &mut self,
        demand: &Demand,
        socs: &[SocUnit],
        index: &PlacementIndex,
    ) -> Option<usize> {
        let _ = index;
        self.place(demand, socs)
    }
}

/// Consolidates: first (lowest-index) SoC with room. Idle tails of the
/// fleet stay empty and can sleep — the energy-proportional choice.
#[derive(Debug, Default)]
pub(crate) struct BinPack;

impl Scheduler for BinPack {
    fn name(&self) -> &'static str {
        "bin-pack"
    }

    fn place(&mut self, demand: &Demand, socs: &[SocUnit]) -> Option<usize> {
        socs.iter().position(|s| s.fits(demand))
    }

    fn place_indexed(
        &mut self,
        demand: &Demand,
        socs: &[SocUnit],
        index: &PlacementIndex,
    ) -> Option<usize> {
        let got = index.first_fit(demand, socs);
        debug_assert_eq!(
            got,
            socs.iter().position(|s| s.fits(demand)),
            "indexed bin-pack diverged from the linear scan"
        );
        got
    }
}

/// Rotates through SoCs in order, skipping full ones.
#[derive(Debug, Default)]
pub(crate) struct RoundRobin {
    cursor: usize,
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(&mut self, demand: &Demand, socs: &[SocUnit]) -> Option<usize> {
        if socs.is_empty() {
            return None;
        }
        for offset in 0..socs.len() {
            let idx = (self.cursor + offset) % socs.len();
            if socs[idx].fits(demand) {
                self.cursor = (idx + 1) % socs.len();
                return Some(idx);
            }
        }
        None
    }

    fn place_indexed(
        &mut self,
        demand: &Demand,
        socs: &[SocUnit],
        index: &PlacementIndex,
    ) -> Option<usize> {
        if socs.is_empty() {
            return None;
        }
        let got = index.first_fit_from(self.cursor, demand, socs);
        debug_assert_eq!(
            got,
            // The linear decision as a pure function of the pre-call
            // cursor (the real `place` would advance it).
            (0..socs.len())
                .map(|off| (self.cursor + off) % socs.len())
                .find(|&i| socs[i].fits(demand)),
            "indexed round-robin diverged from the linear scan"
        );
        if let Some(idx) = got {
            self.cursor = (idx + 1) % socs.len();
        }
        got
    }
}

/// Least-loaded first (by CPU utilization): maximizes per-SoC headroom and
/// spreads heat across the chassis.
#[derive(Debug, Default)]
pub struct Spread;

impl Scheduler for Spread {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn place(&mut self, demand: &Demand, socs: &[SocUnit]) -> Option<usize> {
        socs.iter()
            .enumerate()
            .filter(|(_, s)| s.fits(demand))
            .min_by(|(_, a), (_, b)| {
                a.cpu_utilization()
                    .get()
                    .partial_cmp(&b.cpu_utilization().get())
                    .expect("utilization is never NaN")
            })
            .map(|(i, _)| i)
    }

    fn place_indexed(
        &mut self,
        demand: &Demand,
        socs: &[SocUnit],
        index: &PlacementIndex,
    ) -> Option<usize> {
        let got = index.least_loaded_fit(demand, socs);
        debug_assert_eq!(
            got,
            Spread.place(demand, socs),
            "indexed spread diverged from the linear scan"
        );
        got
    }
}

/// The built-in strategies by name (for config parsing and ablations).
pub fn by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    match name {
        "bin-pack" => Some(Box::new(BinPack)),
        "round-robin" => Some(Box::new(RoundRobin::default())),
        "spread" => Some(Box::new(Spread)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::virt::DeploymentMode;

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

    #[test]
    fn binpack_fills_first_soc_first() {
        let mut socs = fleet(4);
        let mut s = BinPack;
        for _ in 0..3 {
            let idx = s.place(&d(1000.0), &socs).unwrap();
            assert_eq!(idx, 0);
            socs[idx].place(&d(1000.0));
        }
        // First SoC now holds 3000 pu; a 1000-pu demand spills to SoC 1.
        assert_eq!(s.place(&d(1000.0), &socs), Some(1));
    }

    #[test]
    fn round_robin_rotates() {
        let mut socs = fleet(3);
        let mut s = RoundRobin::default();
        let mut order = Vec::new();
        for _ in 0..6 {
            let idx = s.place(&d(100.0), &socs).unwrap();
            socs[idx].place(&d(100.0));
            order.push(idx);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn spread_picks_least_loaded() {
        let mut socs = fleet(3);
        socs[0].place(&d(2000.0));
        socs[1].place(&d(500.0));
        let mut s = Spread;
        assert_eq!(s.place(&d(100.0), &socs), Some(2));
        socs[2].place(&d(1000.0));
        assert_eq!(s.place(&d(100.0), &socs), Some(1));
    }

    #[test]
    fn all_skip_unhealthy_and_full() {
        let mut socs = fleet(2);
        socs[0].healthy = false;
        socs[1].place(&d(3235.0));
        for mut s in [
            by_name("bin-pack").unwrap(),
            by_name("round-robin").unwrap(),
            by_name("spread").unwrap(),
        ] {
            assert_eq!(s.place(&d(1.0), &socs), None, "{}", s.name());
        }
    }

    #[test]
    fn indexed_decisions_match_linear_for_all_strategies() {
        use crate::placement_index::PlacementIndex;
        let mut socs = fleet(5);
        socs[0].place(&d(3000.0));
        socs[3].place(&d(800.0));
        socs[2].healthy = false;
        let idx = PlacementIndex::new(&socs);
        for name in ["bin-pack", "round-robin", "spread"] {
            let mut fast = by_name(name).unwrap();
            let mut slow = by_name(name).unwrap();
            for demand in [d(100.0), d(500.0), d(2600.0), d(4000.0)] {
                assert_eq!(
                    fast.place_indexed(&demand, &socs, &idx),
                    slow.place(&demand, &socs),
                    "{name} diverged on {demand:?}"
                );
            }
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("bin-pack").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn empty_fleet_places_nothing() {
        let mut s = RoundRobin::default();
        assert_eq!(s.place(&d(1.0), &[]), None);
    }
}
