//! Power supply units: conversion efficiency and redundancy.
//!
//! The cluster "utilizes two power modules to provide redundant power
//! supplies, with a maximum support of approximately 700 watts" (§2.2).
//! Wall power exceeds DC load by the conversion loss, and the loss curve is
//! U-shaped: PSUs are least efficient near idle — which penalizes exactly
//! the low-utilization operation Fig. 5 shows. Redundant operation (two
//! PSUs sharing load at ~50% each) sits near the efficiency sweet spot.

use socc_sim::units::Power;

/// An 80 PLUS-style efficiency curve: efficiency at 20%, 50% and 100% of
/// rated load, interpolated piecewise-linearly (and degraded below 10%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PsuModel {
    /// Rated output per module in watts.
    pub(crate) rated_w: f64,
    /// Efficiency at 20% load.
    pub(crate) eff_20: f64,
    /// Efficiency at 50% load.
    pub(crate) eff_50: f64,
    /// Efficiency at 100% load.
    pub(crate) eff_100: f64,
}

impl PsuModel {
    /// One of the cluster's two 400 W modules (80 PLUS Gold-class).
    pub(crate) fn cluster_module() -> Self {
        Self {
            rated_w: 400.0,
            eff_20: 0.87,
            eff_50: 0.92,
            eff_100: 0.89,
        }
    }

    /// Conversion efficiency at a DC load on one module.
    pub(crate) fn efficiency_at(&self, dc_load: Power) -> f64 {
        let frac = (dc_load.as_watts() / self.rated_w).clamp(0.0, 1.0);
        if frac <= 0.0 {
            return self.eff_20 * 0.5; // deep idle: fans + standby dominate
        }
        if frac < 0.2 {
            // Efficiency collapses toward zero load.
            let t = frac / 0.2;
            self.eff_20 * (0.55 + 0.45 * t)
        } else if frac < 0.5 {
            let t = (frac - 0.2) / 0.3;
            self.eff_20 + (self.eff_50 - self.eff_20) * t
        } else {
            let t = (frac - 0.5) / 0.5;
            self.eff_50 + (self.eff_100 - self.eff_50) * t
        }
    }

    /// Wall (AC) power drawn by one module for a DC load.
    pub(crate) fn wall_power(&self, dc_load: Power) -> Power {
        let eff = self.efficiency_at(dc_load);
        if eff <= 0.0 {
            Power::ZERO
        } else {
            Power::watts(dc_load.as_watts() / eff + 3.0) // 3 W standby
        }
    }
}

/// A redundant pair of PSU modules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundantPsu {
    /// The module model (both identical).
    pub(crate) module: PsuModel,
    /// Number of healthy modules (2 normally, 1 after a failure).
    pub(crate) healthy_modules: usize,
}

impl RedundantPsu {
    /// The cluster's 2 × 400 W configuration (§2.2: ~700 W usable with
    /// headroom margins).
    pub fn cluster_default() -> Self {
        Self {
            module: PsuModel::cluster_module(),
            healthy_modules: 2,
        }
    }

    /// Maximum DC load deliverable right now.
    pub fn capacity(&self) -> Power {
        Power::watts(self.module.rated_w * self.healthy_modules as f64 * 0.875)
    }

    /// Returns `true` if a DC load is within the surviving capacity.
    pub(crate) fn can_carry(&self, dc_load: Power) -> bool {
        dc_load <= self.capacity()
    }

    /// Total wall power for a DC load, shared equally across healthy
    /// modules, or `None` if the load exceeds capacity.
    pub fn wall_power(&self, dc_load: Power) -> Option<Power> {
        if self.healthy_modules == 0 || !self.can_carry(dc_load) {
            return None;
        }
        let share = dc_load / self.healthy_modules as f64;
        Some(self.module.wall_power(share) * self.healthy_modules as f64)
    }

    /// Marks one module failed.
    pub fn fail_module(&mut self) {
        self.healthy_modules = self.healthy_modules.saturating_sub(1);
    }

    /// Returns one failed module to service (brownout over), capped at the
    /// redundant pair.
    pub fn repair_module(&mut self) {
        self.healthy_modules = (self.healthy_modules + 1).min(2);
    }

    /// `true` when both modules of the pair are healthy.
    pub fn fully_redundant(&self) -> bool {
        self.healthy_modules >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_curve_is_u_shaped() {
        let psu = PsuModel::cluster_module();
        let low = psu.efficiency_at(Power::watts(20.0));
        let mid = psu.efficiency_at(Power::watts(200.0));
        let full = psu.efficiency_at(Power::watts(400.0));
        assert!(mid > low, "{mid} !> {low}");
        assert!(mid > full, "{mid} !> {full}");
        assert_eq!(mid, 0.92);
    }

    #[test]
    fn wall_power_exceeds_dc() {
        let psu = PsuModel::cluster_module();
        for w in [100.0, 200.0, 300.0, 400.0] {
            let wall = psu.wall_power(Power::watts(w)).as_watts();
            assert!(wall > w, "{wall} at {w}");
            assert!(wall < w * 1.25, "loss bounded: {wall} at {w}");
        }
        // Near idle the relative loss balloons — the U-shape's left edge.
        let light = psu.wall_power(Power::watts(20.0)).as_watts();
        assert!(light / 20.0 > 1.5, "idle loss should dominate: {light}");
    }

    #[test]
    fn redundant_pair_carries_cluster_peak() {
        // The 589 W Table 4 peak fits the redundant pair with margin.
        let pair = RedundantPsu::cluster_default();
        assert!(pair.can_carry(Power::watts(socc_hw_peak())));
        assert!((pair.capacity().as_watts() - 700.0).abs() < 1.0);
    }

    fn socc_hw_peak() -> f64 {
        crate::calib::CLUSTER_AVG_PEAK_W
    }

    #[test]
    fn single_module_survival_is_tight() {
        let mut pair = RedundantPsu::cluster_default();
        pair.fail_module();
        // One module carries 350 W — below the 589 W peak: the orchestrator
        // must shed load after a PSU failure.
        assert!(!pair.can_carry(Power::watts(socc_hw_peak())));
        assert!(pair.can_carry(Power::watts(300.0)));
    }

    #[test]
    fn redundancy_improves_efficiency_at_mid_load() {
        // 360 W on two modules = 45% each (sweet spot); on one = 90%.
        let two = RedundantPsu::cluster_default();
        let mut one = RedundantPsu::cluster_default();
        one.fail_module();
        let load = Power::watts(320.0);
        let wall_two = two.wall_power(load).unwrap().as_watts();
        let wall_one = one.wall_power(load).unwrap().as_watts();
        // Two modules pay double standby but run at better efficiency;
        // near full single-module load the difference is small either way.
        assert!(
            (wall_two - wall_one).abs() < 20.0,
            "{wall_two} vs {wall_one}"
        );
    }

    #[test]
    fn repair_restores_the_pair_and_caps_there() {
        let mut pair = RedundantPsu::cluster_default();
        assert!(pair.fully_redundant());
        pair.fail_module();
        assert!(!pair.fully_redundant());
        pair.repair_module();
        assert!(pair.fully_redundant());
        pair.repair_module(); // no third module exists
        assert_eq!(pair.healthy_modules, 2);
    }

    #[test]
    fn overload_returns_none() {
        let pair = RedundantPsu::cluster_default();
        assert!(pair.wall_power(Power::watts(900.0)).is_none());
        let mut dead = pair;
        dead.fail_module();
        dead.fail_module();
        assert!(dead.wall_power(Power::watts(10.0)).is_none());
    }
}
