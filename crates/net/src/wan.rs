//! Inter-site WAN fabric: the network *between* enclosures.
//!
//! The intra-site fabric (PCB switches + ESB) is simulated flow-by-flow in
//! [`crate::sim::FlowNet`]; what connects hundreds of edge sites to each
//! other and to users is a WAN whose round-trip times are three orders of
//! magnitude above the enclosure fabric's. At fleet scale only two WAN
//! properties matter to the control plane:
//!
//! - **latency structure** — which sites are close enough to absorb a
//!   neighbour's overflow without wrecking session RTT; and
//! - **the RTT floor** — the minimum time any cross-site signal needs,
//!   which is exactly the safe synchronization window for conservative
//!   parallel simulation (see `socc-cluster::fleet`).
//!
//! [`WanFabric`] models both with a region ring: sites are grouped into
//! contiguous geographic regions, RTT between two sites is a base metro
//! RTT plus a per-region-hop cost along the shorter arc of the ring.
//! Deliberately analytic — no queues,
//! no packets — because cross-site traffic in the fleet simulator only
//! crosses shard boundaries at barrier instants anyway.

use std::ops::Range;

use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

use crate::tcp::TcpModel;

/// The fleet's inter-site network: a ring of geographic regions.
#[derive(Debug, Clone)]
pub struct WanFabric {
    /// Region index per site (contiguous blocks along the ring).
    regions: Vec<u16>,
    /// Number of regions on the ring.
    region_count: usize,
    /// RTT between any two distinct sites in the same region (and the
    /// floor for all cross-site RTTs).
    base_rtt: SimDuration,
    /// Additional RTT per region hop along the ring.
    hop_rtt: SimDuration,
}

impl WanFabric {
    /// Builds a fabric of `sites` sites spread over `regions` contiguous
    /// regions on a ring. `base_rtt` is the metro (same-region) RTT;
    /// `hop_rtt` is added per region hop along the shorter arc.
    ///
    /// # Panics
    ///
    /// Panics if `sites` or `regions` is zero, or if `base_rtt` is zero
    /// (a zero RTT floor would let the fleet simulator pick an unsafe
    /// synchronization window).
    pub(crate) fn new(
        sites: usize,
        regions: usize,
        base_rtt: SimDuration,
        hop_rtt: SimDuration,
    ) -> Self {
        assert!(sites > 0, "a WAN fabric needs at least one site");
        assert!(regions > 0, "a WAN fabric needs at least one region");
        assert!(!base_rtt.is_zero(), "the WAN RTT floor must be positive");
        let regions = regions.min(sites);
        Self {
            regions: (0..sites).map(|s| (s * regions / sites) as u16).collect(),
            region_count: regions,
            base_rtt,
            hop_rtt,
        }
    }

    /// The default edge-fleet shape over `regions` regions around the ring:
    /// 10 ms metro RTT, 12 ms per region hop.
    pub fn edge_fleet_regions(sites: usize, regions: usize) -> Self {
        Self::new(
            sites,
            regions,
            SimDuration::from_millis(10),
            SimDuration::from_millis(12),
        )
    }

    /// Number of sites.
    pub(crate) fn sites(&self) -> usize {
        self.regions.len()
    }

    /// Number of regions on the ring.
    pub fn region_count(&self) -> usize {
        self.region_count
    }

    /// The region a site belongs to.
    pub(crate) fn region_of(&self, site: usize) -> usize {
        usize::from(self.regions[site])
    }

    /// The contiguous block of sites belonging to a region — the blast
    /// radius of a regional WAN partition storm.
    ///
    /// # Panics
    ///
    /// Panics if `region >= self.region_count()`.
    pub fn sites_of_region(&self, region: usize) -> Range<usize> {
        assert!(
            region < self.region_count,
            "region {region} out of range (fabric has {})",
            self.region_count
        );
        let sites = self.sites();
        let start = (region * sites).div_ceil(self.region_count);
        let end = ((region + 1) * sites).div_ceil(self.region_count);
        start..end
    }

    /// Time to live-migrate one session's `state` from site `from` to
    /// site `to`: a control round trip to arrange the hand-off, plus the
    /// checkpoint transfer at the calibrated TCP goodput of `lane` — the
    /// WAN share a single migration stream is granted, not the raw
    /// uplink rate ([`TcpModel::inter_soc`] carries the packet-measured
    /// goodput factor).
    pub fn migration_time(
        &self,
        from: usize,
        to: usize,
        state: DataSize,
        lane: DataRate,
    ) -> SimDuration {
        self.rtt(from, to) + TcpModel::inter_soc().transfer_time(state, lane)
    }

    /// Region hops between two sites along the shorter arc of the ring.
    pub(crate) fn hops(&self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.region_of(a), self.region_of(b));
        let d = ra.abs_diff(rb);
        d.min(self.region_count - d)
    }

    /// Round-trip time between two sites. Zero for a site to itself;
    /// `base_rtt` within a region; one `hop_rtt` more per region hop.
    pub fn rtt(&self, a: usize, b: usize) -> SimDuration {
        if a == b {
            return SimDuration::ZERO;
        }
        let mut rtt = self.base_rtt;
        for _ in 0..self.hops(a, b) {
            rtt += self.hop_rtt;
        }
        rtt
    }

    /// The smallest cross-site RTT — the safe lower bound for a
    /// conservative synchronization window: no signal sent at a barrier
    /// can reach another site sooner than this.
    pub fn min_rtt(&self) -> SimDuration {
        self.base_rtt
    }

    /// The largest cross-site RTT on the ring (diameter).
    #[cfg(test)]
    pub(crate) fn max_rtt(&self) -> SimDuration {
        let mut rtt = self.base_rtt;
        for _ in 0..self.region_count / 2 {
            rtt += self.hop_rtt;
        }
        rtt
    }

    /// The site population's local-time offset in hours: regions are
    /// spread evenly around a 24-hour clock, so a fleet phased with this
    /// sees each region's Fig. 5 evening peak at a different trace hour.
    pub fn local_phase_hours(&self, site: usize) -> f64 {
        self.region_of(site) as f64 * 24.0 / self.region_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> WanFabric {
        WanFabric::edge_fleet_regions(256, 8)
    }

    #[test]
    fn regions_are_contiguous_and_balanced() {
        let w = fabric();
        assert_eq!(w.sites(), 256);
        assert_eq!(w.region_count(), 8);
        assert_eq!(w.region_of(0), 0);
        assert_eq!(w.region_of(255), 7);
        // Contiguous: region index never decreases along the site axis.
        for s in 1..w.sites() {
            assert!(w.region_of(s) >= w.region_of(s - 1));
        }
        // Balanced: 32 sites per region.
        let in_region0 = (0..w.sites()).filter(|&s| w.region_of(s) == 0).count();
        assert_eq!(in_region0, 32);
    }

    #[test]
    fn rtt_is_symmetric_and_floored() {
        let w = fabric();
        assert!(w.rtt(3, 3).is_zero());
        for (a, b) in [(0, 5), (0, 40), (0, 130), (17, 255)] {
            assert_eq!(w.rtt(a, b), w.rtt(b, a));
            assert!(w.rtt(a, b) >= w.min_rtt());
            assert!(w.rtt(a, b) <= w.max_rtt());
        }
        // Same region: the floor. Opposite side of the ring: the diameter.
        assert_eq!(w.rtt(0, 5), SimDuration::from_millis(10));
        assert_eq!(w.rtt(0, 130), w.max_rtt());
        assert_eq!(w.max_rtt(), SimDuration::from_millis(10 + 4 * 12));
    }

    #[test]
    fn ring_distance_wraps() {
        let w = fabric();
        // Region 0 and region 7 are adjacent on the ring.
        assert_eq!(w.hops(0, 255), 1);
        assert_eq!(w.rtt(0, 255), SimDuration::from_millis(22));
    }

    #[test]
    fn phase_offsets_cover_the_clock() {
        let w = fabric();
        assert_eq!(w.local_phase_hours(0), 0.0);
        assert_eq!(w.local_phase_hours(255), 21.0);
        // Adjacent regions sit 3 h apart.
        assert_eq!(w.local_phase_hours(32) - w.local_phase_hours(31), 3.0);
    }

    #[test]
    fn single_region_degenerates_cleanly() {
        let w = WanFabric::new(
            4,
            1,
            SimDuration::from_millis(10),
            SimDuration::from_millis(12),
        );
        assert_eq!(w.rtt(0, 3), w.min_rtt());
        assert_eq!(w.max_rtt(), w.min_rtt());
        assert_eq!(w.local_phase_hours(3), 0.0);
    }

    #[test]
    fn region_blocks_partition_the_site_axis() {
        let w = fabric();
        let mut covered = 0;
        for r in 0..w.region_count() {
            let block = w.sites_of_region(r);
            assert_eq!(block.start, covered, "blocks must be contiguous");
            for s in block.clone() {
                assert_eq!(w.region_of(s), r);
            }
            covered = block.end;
        }
        assert_eq!(covered, w.sites());
        // Uneven split: 10 sites over 4 regions still partitions exactly.
        let w = WanFabric::edge_fleet_regions(10, 4);
        let total: usize = (0..4).map(|r| w.sites_of_region(r).len()).sum();
        assert_eq!(total, 10);
        for s in 0..10 {
            assert!(w.sites_of_region(w.region_of(s)).contains(&s));
        }
    }

    #[test]
    fn migration_time_prices_rtt_plus_goodput_transfer() {
        let w = fabric();
        let state = DataSize::megabytes(8.0);
        let lane = DataRate::mbps(100.0);
        let near = w.migration_time(0, 5, state, lane);
        let far = w.migration_time(0, 130, state, lane);
        // Same transfer, longer control RTT.
        assert_eq!(far - near, w.rtt(0, 130) - w.rtt(0, 5));
        // The transfer component budgets for goodput below the raw lane
        // rate: strictly slower than a raw-rate transfer.
        let raw = state / lane;
        assert!(near - w.rtt(0, 5) > raw);
    }

    #[test]
    #[should_panic(expected = "RTT floor")]
    fn zero_rtt_floor_panics() {
        let _ = WanFabric::new(2, 1, SimDuration::ZERO, SimDuration::ZERO);
    }
}
