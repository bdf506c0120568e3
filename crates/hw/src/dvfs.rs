//! Dynamic voltage and frequency scaling: operating-point tables and
//! governors.
//!
//! Mobile SoCs owe much of their energy proportionality (§4.1) to DVFS:
//! power scales roughly with `f · V²` and voltage falls with frequency, so
//! running slower is super-linearly cheaper. This module models the
//! operating-point (OPP) tables of the Kryo 585 tiers and the standard
//! Linux cpufreq governors, letting experiments quantify race-to-idle
//! versus pace-to-load policies on transcode-like work.

use socc_sim::time::SimDuration;
use socc_sim::units::{Energy, Frequency, Power};

/// One operating performance point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core clock.
    pub freq: Frequency,
    /// Supply voltage in volts.
    pub(crate) voltage: f64,
}

impl OperatingPoint {
    /// Creates an OPP.
    pub(crate) fn new(ghz: f64, voltage: f64) -> Self {
        Self {
            freq: Frequency::ghz(ghz),
            voltage,
        }
    }
}

/// An OPP table plus the dynamic-power coefficient of the core cluster.
#[derive(Debug, Clone)]
pub struct DvfsDomain {
    /// Domain name ("prime", "gold", "silver").
    pub name: String,
    /// Available OPPs, ascending by frequency.
    pub(crate) opps: Vec<OperatingPoint>,
    /// Effective switched capacitance in nF: `P_dyn = c · f · V²`.
    pub(crate) capacitance_nf: f64,
    /// Leakage power at the highest voltage, in watts (scales with V).
    pub(crate) leakage_w: f64,
}

impl DvfsDomain {
    /// The prime-core domain of a Kryo 585 (1× Cortex-A77 @ 2.84 GHz).
    ///
    /// Calibrated so full-speed dynamic power ≈ 2.1 W, matching the share
    /// of the complex's 6.6 W full-load workload power carried by the
    /// prime core.
    pub fn kryo585_prime() -> Self {
        Self {
            name: "prime".to_string(),
            opps: vec![
                OperatingPoint::new(0.71, 0.55),
                OperatingPoint::new(1.06, 0.60),
                OperatingPoint::new(1.42, 0.65),
                OperatingPoint::new(1.78, 0.72),
                OperatingPoint::new(2.13, 0.80),
                OperatingPoint::new(2.49, 0.88),
                OperatingPoint::new(2.84, 0.96),
            ],
            capacitance_nf: 0.80,
            leakage_w: 0.12,
        }
    }

    /// The gold-core domain (3× Cortex-A77 @ 2.42 GHz), per-core figures.
    pub fn kryo585_gold() -> Self {
        Self {
            name: "gold".to_string(),
            opps: vec![
                OperatingPoint::new(0.71, 0.55),
                OperatingPoint::new(1.17, 0.62),
                OperatingPoint::new(1.61, 0.69),
                OperatingPoint::new(2.02, 0.78),
                OperatingPoint::new(2.42, 0.87),
            ],
            capacitance_nf: 0.72,
            leakage_w: 0.09,
        }
    }

    /// Highest OPP.
    pub fn max_opp(&self) -> OperatingPoint {
        *self.opps.last().expect("non-empty OPP table")
    }

    /// Lowest OPP.
    pub(crate) fn min_opp(&self) -> OperatingPoint {
        self.opps[0]
    }

    /// Dynamic + leakage power at an OPP when fully busy.
    pub fn power_at(&self, opp: OperatingPoint) -> Power {
        let dynamic = self.capacitance_nf * 1e-9 * opp.freq.get() * opp.voltage * opp.voltage;
        let leakage = self.leakage_w * opp.voltage / self.max_opp().voltage;
        Power::watts(dynamic + leakage)
    }

    /// The lowest OPP whose frequency is at least `target` (or the max OPP
    /// if nothing suffices).
    pub(crate) fn opp_for(&self, target: Frequency) -> OperatingPoint {
        for &opp in &self.opps {
            if opp.freq >= target {
                return opp;
            }
        }
        self.max_opp()
    }

    /// The highest OPP whose full-load power fits within `budget`, or
    /// `None` when even the lowest OPP exceeds it. This is the brownout
    /// derating walk: a PSU rail failure shrinks the per-core power budget
    /// and the governor caps itself to the best OPP still affordable.
    pub(crate) fn opp_under_power(&self, budget: Power) -> Option<OperatingPoint> {
        self.opps
            .iter()
            .rev()
            .copied()
            .find(|&opp| self.power_at(opp) <= budget)
    }

    /// Fraction of full-speed throughput retained when capped to the
    /// highest OPP affordable under `budget` (frequency ratio; zero when
    /// no OPP fits). Because power is superlinear in frequency, the
    /// retained throughput fraction always exceeds the power fraction.
    pub fn throughput_cap_under_power(&self, budget: Power) -> f64 {
        self.opp_under_power(budget)
            .map_or(0.0, |opp| opp.freq.get() / self.max_opp().freq.get())
    }

    /// Energy to execute `cycles` of work under a governor, including idle
    /// leakage for the remainder of the `deadline` window.
    pub fn energy_for(
        &self,
        cycles: f64,
        deadline: SimDuration,
        governor: Governor,
    ) -> Option<EnergyReport> {
        let opp = match governor {
            Governor::Performance => self.max_opp(),
            Governor::Powersave => self.min_opp(),
            Governor::PaceToDeadline => {
                let needed = Frequency::hz(cycles / deadline.as_secs_f64());
                self.opp_for(needed)
            }
        };
        let busy_secs = cycles / opp.freq.get();
        if busy_secs > deadline.as_secs_f64() * (1.0 + 1e-9) {
            return None; // misses the deadline
        }
        let busy = SimDuration::from_secs_f64(busy_secs);
        let idle = deadline.saturating_sub(busy);
        // Idle leakage at the lowest voltage (cpuidle drops V quickly).
        let idle_power =
            Power::watts(self.leakage_w * self.min_opp().voltage / self.max_opp().voltage);
        Some(EnergyReport {
            opp,
            busy,
            energy: self.power_at(opp) * busy + idle_power * idle,
        })
    }
}

/// cpufreq-style governors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Governor {
    /// Pin to the maximum OPP, race to idle.
    Performance,
    /// Pin to the minimum OPP.
    Powersave,
    /// Pick the slowest OPP that still meets the deadline (schedutil-like).
    PaceToDeadline,
}

/// Outcome of running a work quantum under a governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// OPP chosen.
    pub opp: OperatingPoint,
    /// Busy time.
    pub busy: SimDuration,
    /// Total energy over the deadline window.
    pub energy: Energy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opp_tables_ascend() {
        for domain in [DvfsDomain::kryo585_prime(), DvfsDomain::kryo585_gold()] {
            for pair in domain.opps.windows(2) {
                assert!(pair[1].freq > pair[0].freq, "{}", domain.name);
                assert!(pair[1].voltage >= pair[0].voltage, "{}", domain.name);
            }
        }
    }

    #[test]
    fn prime_full_speed_power_near_2w() {
        let prime = DvfsDomain::kryo585_prime();
        let p = prime.power_at(prime.max_opp()).as_watts();
        assert!((1.7..=2.6).contains(&p), "power {p}");
    }

    #[test]
    fn power_superlinear_in_frequency() {
        // Halving frequency should cut power by much more than half.
        let prime = DvfsDomain::kryo585_prime();
        let full = prime.power_at(prime.max_opp()).as_watts();
        let half = prime
            .power_at(prime.opp_for(Frequency::ghz(1.42)))
            .as_watts();
        assert!(half < 0.4 * full, "half {half} vs full {full}");
    }

    #[test]
    fn pacing_beats_racing_for_slack_workloads() {
        // A transcode frame that needs 30% of peak throughput: pacing wins.
        let prime = DvfsDomain::kryo585_prime();
        let deadline = SimDuration::from_millis(33); // one 30 fps frame
        let cycles = 2.84e9 * 0.3 * deadline.as_secs_f64();
        let race = prime
            .energy_for(cycles, deadline, Governor::Performance)
            .unwrap();
        let pace = prime
            .energy_for(cycles, deadline, Governor::PaceToDeadline)
            .unwrap();
        assert!(
            pace.energy < race.energy,
            "pace {:?} vs race {:?}",
            pace.energy,
            race.energy
        );
        assert!(pace.opp.freq < race.opp.freq);
    }

    #[test]
    fn powersave_misses_tight_deadlines() {
        let prime = DvfsDomain::kryo585_prime();
        let deadline = SimDuration::from_millis(10);
        let cycles = 2.84e9 * 0.9 * deadline.as_secs_f64(); // needs 90% of peak
        assert!(prime
            .energy_for(cycles, deadline, Governor::Powersave)
            .is_none());
        assert!(prime
            .energy_for(cycles, deadline, Governor::Performance)
            .is_some());
    }

    #[test]
    fn pace_picks_sufficient_opp() {
        let gold = DvfsDomain::kryo585_gold();
        let deadline = SimDuration::from_millis(100);
        let cycles = 1.5e9 * deadline.as_secs_f64(); // needs ≥1.5 GHz
        let report = gold
            .energy_for(cycles, deadline, Governor::PaceToDeadline)
            .unwrap();
        assert!(report.opp.freq >= Frequency::ghz(1.5));
        assert!(report.opp.freq < gold.max_opp().freq);
    }

    #[test]
    fn brownout_cap_keeps_superlinear_throughput() {
        // Half the power budget retains well over half the throughput —
        // the superlinearity that makes brownout derating preferable to
        // killing SoCs outright.
        let prime = DvfsDomain::kryo585_prime();
        let full = prime.power_at(prime.max_opp());
        let frac = prime.throughput_cap_under_power(full * 0.5);
        assert!(frac > 0.6, "throughput fraction {frac}");
        assert!(frac < 1.0, "a halved budget cannot keep full speed");
        // A full budget keeps full speed; a vanishing budget keeps none.
        assert_eq!(prime.throughput_cap_under_power(full), 1.0);
        assert_eq!(prime.throughput_cap_under_power(Power::watts(0.01)), 0.0);
        assert!(prime.opp_under_power(Power::watts(0.01)).is_none());
    }
}
