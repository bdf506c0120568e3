//! Property test for the capacity-indexed placement: under randomized
//! multi-resource submit/finish/fail/restore churn, the index's first fit
//! (the orchestrator's bin-pack decision) must be byte-identical to a
//! linear scan of the fleet.

use proptest::prelude::*;
use socc_cluster::placement_index::PlacementIndex;
use socc_cluster::soc::{Demand, SocUnit};
use socc_cluster::virt::DeploymentMode;

type Rf = std::ops::Range<f64>;
type DemandRanges = (Rf, Rf, std::ops::Range<usize>, Rf, Rf, Rf, Rf);
type RawDemand = (f64, f64, usize, f64, f64, f64, f64);

/// Generator ranges for one demand: multi-resource, sized so fleets both
/// fill up (cpu approaches the ~3235 pu capacity after a couple of
/// placements) and still admit small requests.
fn demand_ranges() -> DemandRanges {
    (
        0.0..1800.0, // cpu_pu
        0.0..400.0,  // codec_mb_s
        0..10,       // codec_sessions
        0.0..0.6,    // gpu_frac
        0.0..0.6,    // dsp_frac
        0.0..6.0,    // mem_gb
        0.0..500.0,  // net_mbps
    )
}

fn demand_from(
    (cpu_pu, codec_mb_s, codec_sessions, gpu_frac, dsp_frac, mem_gb, net_mbps): RawDemand,
) -> Demand {
    Demand {
        cpu_pu,
        codec_mb_s,
        codec_sessions,
        gpu_frac,
        dsp_frac,
        mem_gb,
        net_mbps,
    }
}

proptest! {
    /// Drives a fleet through random churn. Each submit compares the
    /// indexed first fit against a fresh linear scan, then commits it;
    /// finishes, faults, and restores keep the index in sync via `update`.
    #[test]
    fn indexed_decisions_match_linear_under_churn(
        fleet in 1usize..24,
        ops in prop::collection::vec((0u8..8, demand_ranges(), 0usize..64), 1..60),
    ) {
        let mut socs: Vec<SocUnit> = (0..fleet)
            .map(|i| SocUnit::new(i, DeploymentMode::Physical))
            .collect();
        let mut index = PlacementIndex::new(&socs);
        let mut placed: Vec<(usize, Demand)> = Vec::new();

        for (kind, raw_demand, pick) in ops {
            let demand = demand_from(raw_demand);
            match kind {
                // Submit-heavy mix so fleets actually fill up.
                0..=4 => {
                    let got = index.first_fit(&demand, &socs);
                    prop_assert_eq!(got, socs.iter().position(|s| s.fits(&demand)));
                    if let Some(i) = got {
                        socs[i].place(&demand);
                        index.update(i, &socs[i]);
                        placed.push((i, demand));
                    }
                }
                5 => {
                    if !placed.is_empty() {
                        let (i, d) = placed.swap_remove(pick % placed.len());
                        socs[i].release(&d);
                        index.update(i, &socs[i]);
                    }
                }
                6 => {
                    let i = pick % socs.len();
                    socs[i].decommission();
                    placed.retain(|&(j, _)| j != i);
                    index.update(i, &socs[i]);
                }
                _ => {
                    let i = pick % socs.len();
                    socs[i].restore();
                    placed.retain(|&(j, _)| j != i);
                    index.update(i, &socs[i]);
                }
            }

            // A fixed probe agrees with the scan at every state.
            let probe = Demand { cpu_pu: 400.0, mem_gb: 1.0, ..Demand::default() };
            prop_assert_eq!(
                index.first_fit(&probe, &socs),
                socs.iter().position(|s| s.fits(&probe))
            );
        }
    }
}
