//! Evacuation-storm admission pacing.
//!
//! An evacuation displaces many workloads at once; starting all their
//! state transfers immediately turns them into an N-to-1 incast at the
//! shared bottleneck — exactly the burst the packet-level engine shows
//! overflowing a port buffer (`socc-net`'s incast tests).
//! [`EvacuationPacing`] spreads the admissions into waves sized so the
//! concurrent transfers of each wave fit the bottleneck: the wave length
//! comes from the *measured* fabric goodput (the packet-mode calibration
//! behind [`TcpModel::inter_soc`](socc_net::tcp::TcpModel::inter_soc)),
//! not from the raw link rate, so pacing tracks what the fabric actually
//! drains.
//!
//! The fleet paces its live inter-site migrations with it
//! ([`FleetConfig::migration`](crate::fleet::FleetConfig::migration)),
//! and `bench --run netval`'s incast check paces an N-to-1 burst across
//! the enclosure fabric with it. The enclosure's recovery engine does not
//! pace: it re-places a failed board's workloads in one priority-ordered
//! pass.

use socc_net::tcp::TcpModel;
use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

/// Admission pacing for a batch of fault-displaced workloads.
#[derive(Debug, Clone, Copy)]
pub struct EvacuationPacing {
    /// Migrations admitted concurrently (one wave).
    pub max_concurrent: usize,
    /// Workload state moved per migration.
    pub state_size: DataSize,
    /// Capacity of the narrowest escape link the wave shares.
    pub bottleneck: DataRate,
}

impl EvacuationPacing {
    /// Pacing for the SoC Cluster fabric: two concurrent migrations of
    /// 1 MB of state across a 1 GbE PCB uplink. Two lanes stay under the
    /// per-port ECN threshold, so a paced storm drains without drops.
    #[cfg(test)]
    pub(crate) fn cluster_default() -> Self {
        Self {
            max_concurrent: 2,
            state_size: DataSize::megabytes(1.0),
            bottleneck: DataRate::bps(socc_hw::calib::PCB_UPLINK_BPS),
        }
    }

    /// Pacing for a fleet-level *site* evacuation across the WAN: eight
    /// concurrent migration streams of one session checkpoint (`state`)
    /// each, sharing the site's 10 Gbps WAN uplink
    /// ([`socc_net::wan::WanFabric::edge_fleet`]). Fleet chaos campaigns
    /// typically narrow the bottleneck to a reserved migration lane so an
    /// evacuation storm cannot starve live session traffic.
    pub(crate) fn wan_default(state: DataSize) -> Self {
        Self {
            max_concurrent: 8,
            state_size: state,
            bottleneck: DataRate::gbps(10.0),
        }
    }

    /// How long one wave of `max_concurrent` fair-sharing transfers takes
    /// to drain the bottleneck, at the calibrated (packet-measured)
    /// goodput of each transfer's fair share.
    pub(crate) fn wave_time(&self) -> SimDuration {
        let lanes = self.max_concurrent.max(1);
        let fair_share = DataRate::bps(self.bottleneck.as_bps() / lanes as f64);
        self.state_size / TcpModel::inter_soc().goodput(fair_share)
    }

    /// The admission offset of the `i`-th displaced workload: wave
    /// `i / max_concurrent` starts that many wave-times after detection.
    /// The first wave starts immediately, so pacing never delays a batch
    /// that already fits the fabric.
    #[cfg(test)]
    pub(crate) fn offset_for(&self, i: usize) -> SimDuration {
        let lanes = self.max_concurrent.max(1);
        self.wave_time() * ((i / lanes) as f64)
    }

    /// Admission offsets for `n` displaced workloads
    /// (`offset_for`, batched).
    pub fn admission_offsets(&self, n: usize) -> Vec<SimDuration> {
        let lanes = self.max_concurrent.max(1);
        let wave = self.wave_time();
        (0..n).map(|i| wave * ((i / lanes) as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_wave_is_never_delayed() {
        let p = EvacuationPacing::cluster_default();
        let offsets = p.admission_offsets(5);
        assert_eq!(offsets[0], SimDuration::ZERO);
        assert_eq!(offsets[1], SimDuration::ZERO);
        assert!(offsets[2] > SimDuration::ZERO);
        assert_eq!(offsets[2], offsets[3]);
        assert_eq!(offsets[4], offsets[2] * 2.0);
    }

    #[test]
    fn wave_time_tracks_the_calibrated_goodput() {
        let p = EvacuationPacing::cluster_default();
        // 1 MB over half a 1 GbE link at the calibrated factor: a raw
        // (uncalibrated) drain would be faster, a naive serial one slower.
        let raw = p.state_size / DataRate::bps(p.bottleneck.as_bps() / 2.0);
        assert!(p.wave_time() > raw, "pacing must budget for goodput < raw");
        assert!(p.wave_time() < raw * 1.25, "factor is within 25% of raw");
    }

    #[test]
    fn offset_for_matches_the_batched_offsets() {
        for p in [
            EvacuationPacing::cluster_default(),
            EvacuationPacing::wan_default(DataSize::megabytes(8.0)),
        ] {
            let offsets = p.admission_offsets(13);
            for (i, &off) in offsets.iter().enumerate() {
                assert_eq!(p.offset_for(i), off, "lane {i}");
            }
        }
    }

    #[test]
    fn wan_pacing_spreads_a_site_evacuation_into_waves() {
        // A narrowed WAN migration lane forces a whole-site evacuation to
        // drain over many waves instead of hitting the uplink at once.
        let p = EvacuationPacing {
            bottleneck: DataRate::mbps(200.0),
            ..EvacuationPacing::wan_default(DataSize::megabytes(8.0))
        };
        assert!(p.wave_time() > SimDuration::from_millis(500));
        assert!(p.offset_for(480) > SimDuration::from_secs(30));
    }

    #[test]
    fn small_batches_fit_one_wave() {
        let p = EvacuationPacing::cluster_default();
        assert!(p
            .admission_offsets(2)
            .iter()
            .all(|&d| d == SimDuration::ZERO));
    }
}
