//! Memory and storage models.

use socc_sim::units::Power;

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// A DRAM subsystem.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    /// Capacity in GB.
    pub capacity_gb: f64,
    /// Power model.
    pub(crate) power_model: LoadPowerModel,
}

impl MemoryModel {
    /// 12 GB LPDDR5 of one Snapdragon 865 SoC (Table 1).
    pub(crate) fn lpddr5_12gb() -> Self {
        Self {
            capacity_gb: 12.0,
            power_model: LoadPowerModel::new(0.15, 0.05, 0.9),
        }
    }

    /// 768 GB DDR4 of the traditional edge server (Table 1).
    pub fn ddr4_768gb() -> Self {
        Self {
            capacity_gb: 768.0,
            power_model: LoadPowerModel::new(45.0, 5.0, 40.0),
        }
    }

    /// Electrical power at a state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        self.power_model.power(state, util)
    }
}

/// A storage device.
#[derive(Debug, Clone)]
pub struct StorageModel {
    /// Capacity in GB (Table 1); only tests read it.
    #[cfg(test)]
    pub(crate) capacity_gb: f64,
    /// Probability of device failure per year of full-duty operation.
    ///
    /// §8: "The failure of a single SoC subsystem, such as flash, can render
    /// the application and entire SoC unusable" — mobile flash is not rated
    /// for 24/7 server duty, so its annual failure rate is set well above
    /// datacenter SSDs.
    pub annual_failure_rate: f64,
}

impl StorageModel {
    /// 256 GB UFS 3.0 flash of one SoC (Table 1).
    pub fn ufs_256gb() -> Self {
        Self {
            #[cfg(test)]
            capacity_gb: 256.0,
            annual_failure_rate: 0.035,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_capacities() {
        assert_eq!(MemoryModel::lpddr5_12gb().capacity_gb, 12.0);
        assert_eq!(MemoryModel::ddr4_768gb().capacity_gb, 768.0);
        assert_eq!(StorageModel::ufs_256gb().capacity_gb, 256.0);
    }

    #[test]
    fn mobile_dram_draws_far_less() {
        let lp = MemoryModel::lpddr5_12gb();
        let ddr = MemoryModel::ddr4_768gb();
        let full = Utilization::FULL;
        assert!(
            ddr.power(PowerState::Active, full).as_watts()
                > 20.0 * lp.power(PowerState::Active, full).as_watts()
        );
    }
}
