//! In-the-wild cloud-gaming traffic generator (Fig. 5).
//!
//! Fig. 5 shows 38 hours of network throughput from a production SoC
//! Cluster serving cloud gaming: strongly diurnal, peak-to-trough ratio up
//! to 25×, and overall utilization below 20% of the 20 Gbps fabric. The
//! generator reproduces those statistics: a diurnal base curve with an
//! evening peak, sharpened by an exponent, plus log-normal noise.

use socc_sim::rng::SimRng;
use socc_sim::series::TimeSeries;
use socc_sim::time::{SimDuration, SimTime};

/// Gaming traffic model parameters.
#[derive(Debug, Clone, Copy)]
pub struct GamingTraceConfig {
    /// Trough throughput in Gbps.
    pub(crate) min_gbps: f64,
    /// Peak throughput in Gbps.
    pub(crate) max_gbps: f64,
    /// Hour of day (0–24) of the evening peak.
    pub(crate) peak_hour: f64,
    /// Diurnal sharpness (higher = peakier evenings).
    pub(crate) sharpness: f64,
    /// Log-normal noise sigma.
    pub(crate) noise_sigma: f64,
    /// Local-time offset in hours: the site's population lives this many
    /// hours ahead of the trace clock, so its evening peak arrives
    /// `phase_hours` earlier. Fleet simulations phase sites across time
    /// zones with this so the fleet-wide envelope flattens while every
    /// site keeps the Fig. 5 diurnal shape.
    pub(crate) phase_hours: f64,
}

impl Default for GamingTraceConfig {
    fn default() -> Self {
        // Calibrated to Fig. 5: ~25× dynamic range, < 20% of 20 Gbps.
        Self {
            min_gbps: 0.14,
            max_gbps: 3.5,
            peak_hour: 21.0,
            sharpness: 3.0,
            noise_sigma: 0.10,
            phase_hours: 0.0,
        }
    }
}

impl GamingTraceConfig {
    /// Returns the config shifted by `hours` of local-time offset.
    pub fn with_phase(self, hours: f64) -> Self {
        Self {
            phase_hours: hours,
            ..self
        }
    }

    /// Deterministic diurnal envelope in `[0, 1]` at an hour of day.
    pub fn envelope(&self, hour_of_day: f64) -> f64 {
        // Cosine bump centred on the peak hour in the site's local time
        // (trace hour + phase offset), raised to `sharpness`.
        let phase =
            (hour_of_day + self.phase_hours - self.peak_hour) / 24.0 * core::f64::consts::TAU;
        let base = (1.0 + phase.cos()) / 2.0;
        base.powf(self.sharpness)
    }

    /// Expected (noise-free) throughput in Gbps at an hour of day.
    pub(crate) fn mean_gbps(&self, hour_of_day: f64) -> f64 {
        self.min_gbps + (self.max_gbps - self.min_gbps) * self.envelope(hour_of_day)
    }

    /// Generates a throughput trace: one sample per `step` over `duration`,
    /// starting at midnight.
    pub fn generate(
        &self,
        duration: SimDuration,
        step: SimDuration,
        rng: &mut SimRng,
    ) -> TimeSeries {
        assert!(!step.is_zero(), "step must be positive");
        let mut series = TimeSeries::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + duration;
        while t <= end {
            let hour = (t.as_secs_f64() / 3600.0) % 24.0;
            let noise = rng.lognormal(0.0, self.noise_sigma);
            series.push(t, (self.mean_gbps(hour) * noise).max(self.min_gbps * 0.5));
            t += step;
        }
        series
    }
}

/// Summary statistics of a throughput trace against a fabric capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Largest sample in Gbps.
    pub peak_gbps: f64,
    /// Smallest sample in Gbps.
    pub trough_gbps: f64,
    /// Peak ÷ trough.
    pub dynamic_range: f64,
    /// Time-average utilization of the capacity.
    pub mean_utilization: f64,
}

/// Computes trace statistics against a capacity in Gbps.
pub fn trace_stats(series: &TimeSeries, capacity_gbps: f64) -> Option<TraceStats> {
    let peak = series.max_value()?;
    let trough = series.min_value()?;
    let (first, last) = (series.samples().first()?.0, series.samples().last()?.0);
    let mean = series.time_average(first, last);
    Some(TraceStats {
        peak_gbps: peak,
        trough_gbps: trough,
        dynamic_range: peak / trough,
        mean_utilization: mean / capacity_gbps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_38h_trace(seed: u64) -> TimeSeries {
        let cfg = GamingTraceConfig::default();
        let mut rng = SimRng::seed(seed);
        cfg.generate(
            SimDuration::from_hours(38),
            SimDuration::from_mins(5),
            &mut rng,
        )
    }

    #[test]
    fn dynamic_range_near_25x() {
        // Fig. 5: "the disparity between its highest and lowest outbound
        // traffic reaches up to 25×".
        let stats = trace_stats(&default_38h_trace(1), 20.0).unwrap();
        assert!(
            (15.0..=45.0).contains(&stats.dynamic_range),
            "range {}",
            stats.dynamic_range
        );
    }

    #[test]
    fn utilization_stays_below_20_percent() {
        // §2.3: "the resource usage of all deployed SoC Clusters remains
        // below 20%".
        for seed in 0..5 {
            let stats = trace_stats(&default_38h_trace(seed), 20.0).unwrap();
            assert!(
                stats.mean_utilization < 0.20,
                "seed {seed}: {}",
                stats.mean_utilization
            );
            assert!(stats.peak_gbps < 20.0 * 0.25);
        }
    }

    #[test]
    fn envelope_peaks_at_peak_hour() {
        let cfg = GamingTraceConfig::default();
        let at_peak = cfg.envelope(cfg.peak_hour);
        assert!((at_peak - 1.0).abs() < 1e-9);
        for hour in [3.0, 9.0, 15.0] {
            assert!(cfg.envelope(hour) < at_peak);
        }
        // Deep trough opposite the peak.
        assert!(cfg.envelope(cfg.peak_hour - 12.0) < 0.01);
    }

    #[test]
    fn phase_shifts_the_peak_without_changing_its_height() {
        let base = GamingTraceConfig::default();
        let shifted = base.with_phase(6.0);
        // A population 6 h ahead peaks 6 h earlier on the trace clock.
        assert!((shifted.envelope(base.peak_hour - 6.0) - 1.0).abs() < 1e-9);
        assert!(shifted.envelope(base.peak_hour) < 0.3);
        // The envelope is the same curve, just translated.
        for hour in [0.0, 5.0, 11.0, 17.0, 23.0] {
            let a = base.envelope(hour);
            let b = shifted.envelope(hour - 6.0);
            assert!((a - b).abs() < 1e-9, "hour {hour}: {a} vs {b}");
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = default_38h_trace(9);
        let b = default_38h_trace(9);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn sample_count_matches_duration() {
        let trace = default_38h_trace(3);
        // 38 h at 5-minute steps: 457 samples (inclusive endpoints).
        assert_eq!(trace.samples().len(), 38 * 12 + 1);
    }
}
