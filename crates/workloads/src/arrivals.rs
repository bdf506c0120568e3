//! Arrival processes: Poisson and diurnal-modulated.
//!
//! Edge workloads are "mainly user-centric, therefore highly dependent on
//! user activities" (§2.3) — load generators need both memoryless arrivals
//! and realistic day-shaped modulation.

use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};

/// A homogeneous Poisson arrival process.
#[derive(Debug, Clone)]
pub(crate) struct Poisson {
    rate_per_s: f64,
}

impl Poisson {
    /// Creates a process with the given arrival rate (events/s).
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` is not strictly positive.
    pub(crate) fn new(rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "rate must be positive");
        Self { rate_per_s }
    }

    /// Generates arrival times in `[0, horizon)`.
    pub(crate) fn generate(&self, horizon: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += rng.exponential(self.rate_per_s);
            if t >= horizon.as_secs_f64() {
                return out;
            }
            out.push(SimTime::from_secs_f64(t));
        }
    }
}

/// A non-homogeneous Poisson process whose rate follows a diurnal shape
/// (thinning method).
#[derive(Debug, Clone)]
pub(crate) struct DiurnalPoisson {
    /// Peak arrival rate (events/s) at the peak hour.
    pub(crate) peak_rate: f64,
    /// Trough-to-peak ratio in `(0, 1]`.
    pub(crate) trough_ratio: f64,
    /// Hour of day of the peak.
    pub(crate) peak_hour: f64,
}

impl DiurnalPoisson {
    /// Instantaneous rate at an absolute time (day starts at t = 0).
    pub(crate) fn rate_at(&self, t: SimTime) -> f64 {
        let hour = (t.as_secs_f64() / 3600.0) % 24.0;
        let phase = (hour - self.peak_hour) / 24.0 * core::f64::consts::TAU;
        let shape = (1.0 + phase.cos()) / 2.0;
        self.peak_rate * (self.trough_ratio + (1.0 - self.trough_ratio) * shape)
    }

    /// Generates arrival times in `[0, horizon)` by thinning.
    pub(crate) fn generate(&self, horizon: SimDuration, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = 0.0;
        let end = horizon.as_secs_f64();
        loop {
            t += rng.exponential(self.peak_rate);
            if t >= end {
                return out;
            }
            let at = SimTime::from_secs_f64(t);
            if rng.chance(self.rate_at(at) / self.peak_rate) {
                out.push(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_respected() {
        let mut rng = SimRng::seed(5);
        let arrivals = Poisson::new(10.0).generate(SimDuration::from_secs(1000), &mut rng);
        let rate = arrivals.len() as f64 / 1000.0;
        assert!((rate - 10.0).abs() < 0.5, "rate {rate}");
    }

    #[test]
    fn poisson_times_sorted_and_bounded() {
        let mut rng = SimRng::seed(6);
        let horizon = SimDuration::from_secs(100);
        let arrivals = Poisson::new(5.0).generate(horizon, &mut rng);
        for pair in arrivals.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(arrivals.iter().all(|&t| t < SimTime::ZERO + horizon));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = Poisson::new(0.0);
    }

    #[test]
    fn diurnal_peaks_at_peak_hour() {
        let d = DiurnalPoisson {
            peak_rate: 100.0,
            trough_ratio: 0.05,
            peak_hour: 21.0,
        };
        let peak = d.rate_at(SimTime::from_secs_f64(21.0 * 3600.0));
        let trough = d.rate_at(SimTime::from_secs_f64(9.0 * 3600.0));
        assert!((peak - 100.0).abs() < 1e-9);
        assert!(trough < 0.1 * peak);
    }

    #[test]
    fn diurnal_thinning_tracks_shape() {
        let d = DiurnalPoisson {
            peak_rate: 2.0,
            trough_ratio: 0.1,
            peak_hour: 12.0,
        };
        let mut rng = SimRng::seed(9);
        let arrivals = d.generate(SimDuration::from_hours(24), &mut rng);
        // Count arrivals near noon vs near midnight.
        let noon = arrivals
            .iter()
            .filter(|t| (10.0..14.0).contains(&(t.as_secs_f64() / 3600.0)))
            .count();
        let midnight = arrivals
            .iter()
            .filter(|t| {
                let h = t.as_secs_f64() / 3600.0;
                !(2.0..22.0).contains(&h)
            })
            .count();
        assert!(
            noon > 3 * midnight.max(1),
            "noon {noon} vs midnight {midnight}"
        );
    }
}
