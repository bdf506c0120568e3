//! Mobile DSP / NPU models (Qualcomm Hexagon).
//!
//! The paper's most striking energy result comes from the Hexagon DSP:
//! "the energy efficiency of SoC DSPs is 42× higher than that of the Intel
//! CPU … attributed to the fact that SoC DSPs are designed for low-power
//! data processing, operating at frequencies of ≤ 500 MHz" (§5.2).

use socc_sim::units::{Frequency, Power};

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// Numeric formats a DSP can execute natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DspPrecision {
    /// Fixed-point INT8 only (tensor accelerator generations before FP16
    /// support landed).
    Int8Only,
    /// INT8 plus floating-point support (§7: "the recent incorporation of
    /// support for floating-point calculations on Qualcomm's flagship
    /// Hexagon DSPs").
    Int8AndFloat,
}

/// A Hexagon-class DSP with its tensor accelerator.
#[derive(Debug, Clone)]
pub struct DspModel {
    /// Marketing name.
    pub name: String,
    /// Peak INT8 throughput in GOP/s.
    pub peak_int8_gops: f64,
    /// Clock of the scalar/vector core.
    pub clock: Frequency,
    /// Supported precisions.
    pub precision: DspPrecision,
    /// Power model.
    pub power_model: LoadPowerModel,
}

impl DspModel {
    /// Returns `true` if the DSP can run FP32/FP16 graphs.
    pub fn supports_float(&self) -> bool {
        self.precision == DspPrecision::Int8AndFloat
    }

    /// Electrical power at a state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        self.power_model.power(state, util)
    }

    /// Workload (idle-excluded) power.
    pub fn workload_power(&self, util: Utilization) -> Power {
        self.power_model.workload_power(util)
    }

    /// The Hexagon 698 of a Snapdragon 865.
    pub fn hexagon_698() -> Self {
        Self {
            name: "Qualcomm Hexagon 698".to_string(),
            peak_int8_gops: 15_000.0,
            clock: Frequency::mhz(500.0),
            precision: DspPrecision::Int8Only,
            power_model: LoadPowerModel::new(0.05, 0.05, crate::calib::DL_SOC_DSP_POWER_W - 0.05),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hexagon_is_sub_watt_class() {
        let dsp = DspModel::hexagon_698();
        let p = dsp.workload_power(Utilization::FULL).as_watts();
        assert!((0.5..=1.0).contains(&p), "power {p}");
    }

    #[test]
    fn hexagon_clock_at_most_500mhz() {
        // §5.2: "operating at frequencies of ≤ 500MHz".
        assert!(DspModel::hexagon_698().clock.as_ghz() <= 0.5);
    }

    #[test]
    fn sd865_dsp_is_int8_only() {
        assert!(!DspModel::hexagon_698().supports_float());
    }

    #[test]
    fn off_state_draws_nothing() {
        let dsp = DspModel::hexagon_698();
        assert_eq!(dsp.power(PowerState::Off, Utilization::FULL), Power::ZERO);
    }
}
