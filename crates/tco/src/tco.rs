//! OpEx and monthly total cost of ownership (Table 4, bottom half).

use crate::capex::Platform;

/// U.S. industrial average electricity price, Aug 2021 – Jul 2022 (§6).
pub const ELECTRICITY_USD_PER_KWH: f64 = 0.0786;

/// Power usage effectiveness at the edge (§6; 1.5 at cloud datacenters).
pub(crate) const EDGE_PUE: f64 = 2.0;

/// Server lifetime for CapEx amortization, in months (§6: 3 years).
pub(crate) const AMORTIZATION_MONTHS: f64 = 36.0;

/// Fraction of the month the server runs at its average peak power (§6).
pub(crate) const DUTY_FACTOR: f64 = 0.5;

/// The full Table 4 cost model for one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoBreakdown {
    /// Total purchase cost.
    pub total_capex: f64,
    /// CapEx amortized per month.
    pub monthly_capex: f64,
    /// Average peak power in watts.
    pub avg_peak_power_w: f64,
    /// Monthly energy at 50% duty, in kWh.
    pub monthly_kwh: f64,
    /// Direct server electricity cost per month.
    pub server_electricity: f64,
    /// PUE overhead per month.
    pub pue_overhead: f64,
    /// Total monthly electricity.
    pub monthly_electricity: f64,
    /// Monthly TCO (amortized CapEx + electricity).
    pub monthly_tco: f64,
}

/// Computes the Table 4 breakdown for a platform.
pub fn breakdown(platform: Platform) -> TcoBreakdown {
    breakdown_at_power(platform, platform.avg_peak_power_w())
}

/// The same breakdown at an arbitrary average peak power (used for
/// what-if analyses).
pub fn breakdown_at_power(platform: Platform, avg_peak_power_w: f64) -> TcoBreakdown {
    let total_capex = platform.total_capex();
    let monthly_capex = total_capex / AMORTIZATION_MONTHS;
    let monthly_kwh = avg_peak_power_w * DUTY_FACTOR * 24.0 * 30.0 / 1000.0;
    let server_electricity = monthly_kwh * ELECTRICITY_USD_PER_KWH;
    let pue_overhead = server_electricity * (EDGE_PUE - 1.0);
    let monthly_electricity = server_electricity + pue_overhead;
    TcoBreakdown {
        total_capex,
        monthly_capex,
        avg_peak_power_w,
        monthly_kwh,
        server_electricity,
        pue_overhead,
        monthly_electricity,
        monthly_tco: monthly_capex + monthly_electricity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_gpu_matches_table4() {
        let b = breakdown(Platform::EdgeWithGpu);
        assert!(
            (b.monthly_capex - 1_340.0).abs() < 1.0,
            "{}",
            b.monthly_capex
        );
        assert!((b.monthly_kwh - 443.0).abs() < 2.0, "{}", b.monthly_kwh);
        assert!((b.server_electricity - 35.0).abs() < 1.0);
        assert!((b.monthly_electricity - 70.0).abs() < 1.5);
        assert!((b.monthly_tco - 1_410.0).abs() < 3.0, "{}", b.monthly_tco);
    }

    #[test]
    fn edge_cpu_only_matches_table4() {
        let b = breakdown(Platform::EdgeWithoutGpu);
        assert!((b.monthly_capex - 363.0).abs() < 1.0);
        assert!((b.monthly_kwh - 228.0).abs() < 1.0);
        assert!((b.monthly_tco - 399.0).abs() < 2.0, "{}", b.monthly_tco);
    }

    #[test]
    fn cluster_matches_table4() {
        let b = breakdown(Platform::SocCluster);
        assert!((b.monthly_capex - 1_008.0).abs() < 1.0);
        assert!((b.monthly_kwh - 212.0).abs() < 1.0);
        assert!((b.monthly_electricity - 34.0).abs() < 1.0);
        assert!((b.monthly_tco - 1_042.0).abs() < 2.0, "{}", b.monthly_tco);
    }

    #[test]
    fn capex_dominates_tco_everywhere() {
        // §6: "CapEx consistently dominated the TCO".
        for p in Platform::ALL {
            let b = breakdown(p);
            assert!(
                b.monthly_capex > 5.0 * b.monthly_electricity,
                "{p:?}: {} vs {}",
                b.monthly_capex,
                b.monthly_electricity
            );
        }
    }

    #[test]
    fn pue_doubles_electricity() {
        let b = breakdown(Platform::SocCluster);
        assert!((b.monthly_electricity - 2.0 * b.server_electricity).abs() < 1e-9);
    }

    #[test]
    fn what_if_power_scales_only_opex() {
        let base = breakdown(Platform::SocCluster);
        let halved = breakdown_at_power(Platform::SocCluster, base.avg_peak_power_w / 2.0);
        assert_eq!(halved.monthly_capex, base.monthly_capex);
        assert!((halved.monthly_electricity - base.monthly_electricity / 2.0).abs() < 1e-9);
    }
}
