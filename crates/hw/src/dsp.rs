//! Mobile DSP / NPU models (Qualcomm Hexagon).
//!
//! The paper's most striking energy result comes from the Hexagon DSP:
//! "the energy efficiency of SoC DSPs is 42× higher than that of the Intel
//! CPU … attributed to the fact that SoC DSPs are designed for low-power
//! data processing, operating at frequencies of ≤ 500 MHz" (§5.2).

use socc_sim::units::Power;

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// A Hexagon-class DSP with its tensor accelerator.
#[derive(Debug, Clone)]
pub struct DspModel {
    /// Power model.
    pub(crate) power_model: LoadPowerModel,
}

impl DspModel {
    /// Electrical power at a state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        self.power_model.power(state, util)
    }

    /// The Hexagon 698 of a Snapdragon 865.
    pub(crate) fn hexagon_698() -> Self {
        Self {
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
        let p = dsp.power_model.workload_power(Utilization::FULL).as_watts();
        assert!((0.5..=1.0).contains(&p), "power {p}");
    }

    #[test]
    fn off_state_draws_nothing() {
        let dsp = DspModel::hexagon_698();
        assert_eq!(dsp.power(PowerState::Off, Utilization::FULL), Power::ZERO);
    }
}
