//! Memory and storage models.

use socc_sim::units::Power;

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// DRAM technology generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramKind {
    /// Low-power mobile DRAM.
    Lpddr5,
    /// Previous-generation mobile DRAM.
    Lpddr4x,
    /// Server registered DIMMs.
    Ddr4,
}

/// A DRAM subsystem.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    /// Technology.
    pub kind: DramKind,
    /// Capacity in GB.
    pub capacity_gb: f64,
    /// Peak bandwidth in GB/s.
    pub bandwidth_gb_s: f64,
    /// Power model.
    pub power_model: LoadPowerModel,
}

impl MemoryModel {
    /// 12 GB LPDDR5 of one Snapdragon 865 SoC (Table 1).
    pub fn lpddr5_12gb() -> Self {
        Self {
            kind: DramKind::Lpddr5,
            capacity_gb: 12.0,
            bandwidth_gb_s: 44.0,
            power_model: LoadPowerModel::new(0.15, 0.05, 0.9),
        }
    }

    /// 768 GB DDR4 of the traditional edge server (Table 1).
    pub fn ddr4_768gb() -> Self {
        Self {
            kind: DramKind::Ddr4,
            capacity_gb: 768.0,
            bandwidth_gb_s: 280.0,
            power_model: LoadPowerModel::new(45.0, 5.0, 40.0),
        }
    }

    /// Electrical power at a state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        self.power_model.power(state, util)
    }
}

/// Storage technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Mobile UFS flash.
    UfsFlash,
    /// Datacenter NVMe/SATA SSD.
    Ssd,
    /// Spinning disk.
    Hdd,
}

/// A storage device.
#[derive(Debug, Clone)]
pub struct StorageModel {
    /// Technology.
    pub kind: StorageKind,
    /// Capacity in GB.
    pub capacity_gb: f64,
    /// Sequential read bandwidth in MB/s.
    pub read_mb_s: f64,
    /// Sequential write bandwidth in MB/s.
    pub write_mb_s: f64,
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
            kind: StorageKind::UfsFlash,
            capacity_gb: 256.0,
            read_mb_s: 1700.0,
            write_mb_s: 750.0,
            annual_failure_rate: 0.035,
        }
    }

    /// 1.92 TB SSD of the traditional edge server (Table 1).
    pub fn ssd_1920gb() -> Self {
        Self {
            kind: StorageKind::Ssd,
            capacity_gb: 1920.0,
            read_mb_s: 3500.0,
            write_mb_s: 3000.0,
            annual_failure_rate: 0.009,
        }
    }

    /// 30 TB HDD array of the traditional edge server (Table 1).
    pub fn hdd_30tb() -> Self {
        Self {
            kind: StorageKind::Hdd,
            capacity_gb: 30_000.0,
            read_mb_s: 250.0,
            write_mb_s: 230.0,
            annual_failure_rate: 0.015,
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

    #[test]
    fn mobile_flash_fails_more_often() {
        assert!(
            StorageModel::ufs_256gb().annual_failure_rate
                > 2.0 * StorageModel::ssd_1920gb().annual_failure_rate
        );
    }
}
