//! TCP goodput and startup-latency model.
//!
//! The paper measured 903 Mbps TCP goodput and a 0.44 ms RTT between SoCs
//! on the 1 GbE fabric (§2.3). We model TCP as (a) a goodput efficiency
//! factor applied to the fair share of the path, and (b) a slow-start ramp
//! that delays short transfers by a few RTTs — the effect that makes
//! cross-SoC tensor parallelism communication-bound in §5.3.
//!
//! The efficiency factor is **not** hard-coded: [`TcpModel::inter_soc`]
//! takes it from the packet-level engine's goodput calibration
//! ([`crate::packet::calibrated_goodput_factor`], cached per process),
//! and a test checks the calibrated value reproduces the paper's
//! measurement within 5%.

use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

/// TCP behaviour parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpModel {
    /// Path round-trip time.
    pub rtt: SimDuration,
    /// Fraction of raw link capacity achievable as goodput (protocol
    /// headers, ACK clocking, pacing).
    pub(crate) efficiency: f64,
    /// Initial congestion window in bytes (10 MSS ≈ 14.6 kB).
    pub(crate) initial_window_bytes: f64,
}

impl TcpModel {
    /// The measured inter-SoC path of the cluster (§2.3). The efficiency
    /// comes from the packet-mode calibration run, not from the measured
    /// constant (`INTER_SOC_TCP_MBPS` stays as a validation anchor only).
    pub fn inter_soc() -> Self {
        Self {
            rtt: SimDuration::from_millis_f64(socc_hw::calib::INTER_SOC_RTT_MS),
            efficiency: crate::packet::calibrated_goodput_factor(),
            initial_window_bytes: 14_600.0,
        }
    }

    /// Goodput achievable on a path whose narrowest link allocates
    /// `fair_share` to this connection.
    pub fn goodput(&self, fair_share: DataRate) -> DataRate {
        DataRate::bps(fair_share.as_bps() * self.efficiency)
    }

    /// Slow-start ramp delay for a transfer of `size`: the RTTs spent
    /// doubling the window before the connection reaches line rate, counted
    /// as pure added latency (data sent during the ramp is accounted as if
    /// sent at full rate afterwards, a standard fluid approximation).
    pub(crate) fn startup_delay(&self, size: DataSize) -> SimDuration {
        let rounds = (size.as_bytes() / self.initial_window_bytes)
            .max(1.0)
            .log2()
            .ceil();
        // Connection setup (1 RTT) plus the doubling rounds, capped: once
        // the window covers the bandwidth-delay product the ramp ends.
        let rounds = rounds.clamp(0.0, 8.0);
        self.rtt * (1.0 + rounds)
    }

    /// Total time to move `size` at a given fair share, including startup.
    pub fn transfer_time(&self, size: DataSize, fair_share: DataRate) -> SimDuration {
        let goodput = self.goodput(fair_share);
        self.startup_delay(size) + size / goodput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_soc_matches_measurements() {
        let tcp = TcpModel::inter_soc();
        // 1 Gbps fair share → calibrated goodput within 5% of the paper's
        // measured 903 Mbps (§2.3). The factor is computed, not asserted
        // equal, so the packet engine — not a constant — carries the claim.
        let goodput = tcp.goodput(DataRate::gbps(1.0));
        let anchor = socc_hw::calib::INTER_SOC_TCP_MBPS;
        assert!(
            (goodput.as_mbps() - anchor).abs() < anchor * 0.05,
            "calibrated {} Mbps vs measured {anchor} Mbps",
            goodput.as_mbps()
        );
        assert!((tcp.rtt.as_millis_f64() - 0.44).abs() < 1e-9);
    }

    #[test]
    fn small_transfer_pays_at_least_one_rtt() {
        let tcp = TcpModel::inter_soc();
        let d = tcp.startup_delay(DataSize::bytes(100.0));
        assert!(d >= tcp.rtt);
    }

    #[test]
    fn startup_grows_logarithmically_then_caps() {
        let tcp = TcpModel::inter_soc();
        let small = tcp.startup_delay(DataSize::kilobytes(20.0));
        let big = tcp.startup_delay(DataSize::megabytes(10.0));
        let huge = tcp.startup_delay(DataSize::megabytes(10_000.0));
        assert!(big > small);
        // Cap: 9 RTTs max.
        assert!(huge <= tcp.rtt * 9.0 + SimDuration::from_nanos(1));
    }

    #[test]
    fn transfer_time_dominated_by_bandwidth_for_large_sizes() {
        let tcp = TcpModel::inter_soc();
        let size = DataSize::megabytes(90.3); // ~0.8 s at 903 Mbps
        let t = tcp.transfer_time(size, DataRate::gbps(1.0));
        let pure = size / tcp.goodput(DataRate::gbps(1.0));
        assert!(t >= pure);
        assert!((t - pure).as_millis_f64() < 5.0);
    }
}
