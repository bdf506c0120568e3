//! TCO sensitivity analysis: how robust are §6's conclusions to the cost
//! assumptions?
//!
//! The paper fixes electricity at $0.0786/kWh, PUE at 2.0, lifetime at 36
//! months and duty at 50%. Operators face different numbers; this module
//! sweeps them and finds where (if anywhere) the winners flip.

use crate::capex::Platform;
use crate::tco::{AMORTIZATION_MONTHS, DUTY_FACTOR, ELECTRICITY_USD_PER_KWH};

/// Adjustable cost assumptions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostAssumptions {
    /// Electricity price in $/kWh.
    pub electricity_usd_per_kwh: f64,
    /// Power usage effectiveness.
    pub pue: f64,
    /// Amortization window in months.
    pub lifetime_months: f64,
    /// Fraction of the month at average peak power.
    pub duty_factor: f64,
}

impl Default for CostAssumptions {
    fn default() -> Self {
        Self {
            electricity_usd_per_kwh: ELECTRICITY_USD_PER_KWH,
            pue: 2.0,
            lifetime_months: AMORTIZATION_MONTHS,
            duty_factor: DUTY_FACTOR,
        }
    }
}

impl CostAssumptions {
    /// Monthly TCO of a platform under these assumptions.
    pub fn monthly_tco(&self, platform: Platform) -> f64 {
        let capex = platform.total_capex() / self.lifetime_months;
        let kwh = platform.avg_peak_power_w() * self.duty_factor * 24.0 * 30.0 / 1000.0;
        let electricity = kwh * self.electricity_usd_per_kwh * self.pue;
        capex + electricity
    }

    /// Fraction of the monthly TCO that is electricity.
    pub fn opex_share(&self, platform: Platform) -> f64 {
        let kwh = platform.avg_peak_power_w() * self.duty_factor * 24.0 * 30.0 / 1000.0;
        let electricity = kwh * self.electricity_usd_per_kwh * self.pue;
        electricity / self.monthly_tco(platform)
    }
}

/// Electricity share of TCO as the price rises: the point where OpEx stops
/// being negligible (>25% of TCO), per platform.
pub fn opex_significance_price(platform: Platform, threshold: f64) -> f64 {
    let mut price = 0.01;
    while price < 10.0 {
        let a = CostAssumptions {
            electricity_usd_per_kwh: price,
            ..Default::default()
        };
        if a.opex_share(platform) >= threshold {
            return price;
        }
        price += 0.01;
    }
    10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_table4() {
        let a = CostAssumptions::default();
        assert!((a.monthly_tco(Platform::SocCluster) - 1042.0).abs() < 3.0);
        assert!((a.monthly_tco(Platform::EdgeWithGpu) - 1410.0).abs() < 3.0);
        assert!((a.monthly_tco(Platform::EdgeWithoutGpu) - 399.0).abs() < 2.0);
    }

    #[test]
    fn capex_dominance_is_robust_to_3x_electricity() {
        // §6's "CapEx consistently dominated" survives a tripled price.
        let a = CostAssumptions {
            electricity_usd_per_kwh: ELECTRICITY_USD_PER_KWH * 3.0,
            ..Default::default()
        };
        for p in Platform::ALL {
            assert!(a.opex_share(p) < 0.5, "{p:?}: {}", a.opex_share(p));
        }
    }

    #[test]
    fn opex_matters_sooner_for_power_hungry_servers() {
        let gpu = opex_significance_price(Platform::EdgeWithGpu, 0.25);
        let cluster = opex_significance_price(Platform::SocCluster, 0.25);
        // The 1,231 W server crosses 25% OpEx share at a lower price than
        // the 589 W cluster (which also has higher CapEx).
        assert!(gpu < cluster, "gpu {gpu} vs cluster {cluster}");
    }

    #[test]
    fn longer_lifetime_cuts_tco() {
        let short = CostAssumptions {
            lifetime_months: 36.0,
            ..Default::default()
        };
        let long = CostAssumptions {
            lifetime_months: 60.0,
            ..Default::default()
        };
        for p in Platform::ALL {
            assert!(long.monthly_tco(p) < short.monthly_tco(p));
        }
    }

    #[test]
    fn duty_factor_scales_only_opex() {
        let idle = CostAssumptions {
            duty_factor: 0.0,
            ..Default::default()
        };
        let busy = CostAssumptions {
            duty_factor: 1.0,
            ..Default::default()
        };
        let p = Platform::SocCluster;
        let capex_only = p.total_capex() / 36.0;
        assert!((idle.monthly_tco(p) - capex_only).abs() < 1e-9);
        assert!(busy.monthly_tco(p) > idle.monthly_tco(p));
    }
}
