//! Hardware video codec models (the mobile Venus ASIC and NVIDIA NVENC).
//!
//! Transcode *behaviour* (rate control, quality) lives in `socc-video`;
//! this module models raw capability: how many macroblocks per second the
//! ASIC processes, how many concurrent sessions it accepts, and what it
//! draws from the power rail.

use socc_sim::units::Power;

use crate::power::{LoadPowerModel, PowerState, Utilization};

/// A hardware encode/decode engine.
#[derive(Debug, Clone)]
pub struct HwCodecModel {
    /// Sustained transcode throughput in 16×16 macroblocks per second,
    /// at unit content-complexity.
    pub throughput_mb_per_s: f64,
    /// Maximum concurrent codec sessions the firmware accepts.
    pub max_sessions: usize,
    /// Power model of the engine (plus its delegation daemons).
    pub power_model: LoadPowerModel,
    /// CPU perf-units consumed per active session by the software
    /// delegation daemon (§4.4: "software delegation daemon processes of
    /// SoC hardware codecs also consume some CPU resources").
    pub delegation_cpu_pu_per_session: f64,
}

impl HwCodecModel {
    /// Electrical power at a state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        self.power_model.power(state, util)
    }

    /// Workload (idle-excluded) power.
    pub fn workload_power(&self, util: Utilization) -> Power {
        self.power_model.workload_power(util)
    }

    /// Maximum concurrent streams given a per-stream cost in macroblocks/s
    /// (already weighted by content complexity), bounded by the session cap.
    pub fn max_streams(&self, cost_mb_per_s: f64) -> usize {
        if cost_mb_per_s <= 0.0 {
            return self.max_sessions;
        }
        let by_throughput = (self.throughput_mb_per_s / cost_mb_per_s).floor() as usize;
        by_throughput.min(self.max_sessions)
    }

    /// The Venus encode/decode ASIC of a Snapdragon 865.
    ///
    /// Throughput and session cap are calibrated so Table 3's HW-codec
    /// max-stream column (16/16/12/16/7/2 for V1–V6) is reproduced by the
    /// vbench cost model in `socc-video`.
    pub fn venus_sd865() -> Self {
        Self {
            throughput_mb_per_s: 1.92e6,
            max_sessions: 16,
            power_model: LoadPowerModel::new(
                crate::calib::SOC_HW_CODEC_POWER.0,
                crate::calib::SOC_HW_CODEC_POWER.1,
                crate::calib::SOC_HW_CODEC_POWER.2,
            ),
            delegation_cpu_pu_per_session: 45.0,
        }
    }

    /// The NVENC/NVDEC engines of one NVIDIA A40.
    ///
    /// Sized so the 8-GPU server's live-stream counts land at the Table 5
    /// TpC-derived whole-server throughputs.
    pub fn nvenc_a40() -> Self {
        Self {
            throughput_mb_per_s: 3.87e6,
            max_sessions: 96,
            power_model: LoadPowerModel::new(
                crate::calib::A40_TRANSCODE_POWER.0,
                crate::calib::A40_TRANSCODE_POWER.1,
                crate::calib::A40_TRANSCODE_POWER.2,
            ),
            delegation_cpu_pu_per_session: 120.0, // host FFmpeg feeding/demux
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_cap_binds_for_cheap_streams() {
        let venus = HwCodecModel::venus_sd865();
        assert_eq!(venus.max_streams(1.0), venus.max_sessions);
        assert_eq!(venus.max_streams(0.0), venus.max_sessions);
    }

    #[test]
    fn throughput_binds_for_heavy_streams() {
        let venus = HwCodecModel::venus_sd865();
        // A ~950k MB/s stream (V6-class UHD) fits twice.
        assert_eq!(venus.max_streams(950_000.0), 2);
    }

    #[test]
    fn nvenc_outscales_venus() {
        let venus = HwCodecModel::venus_sd865();
        let nvenc = HwCodecModel::nvenc_a40();
        assert!(nvenc.throughput_mb_per_s > 2.0 * venus.throughput_mb_per_s);
        assert!(nvenc.max_sessions > venus.max_sessions);
    }

    #[test]
    fn venus_power_is_sub_2w() {
        let venus = HwCodecModel::venus_sd865();
        let p = venus.workload_power(Utilization::FULL).as_watts();
        assert!((1.0..=2.0).contains(&p), "power {p}");
    }

    #[test]
    fn nvenc_pays_activation_step() {
        let nvenc = HwCodecModel::nvenc_a40();
        let p = nvenc.workload_power(Utilization::new(0.01)).as_watts();
        assert!(p > 50.0, "activation step missing: {p}");
    }
}
