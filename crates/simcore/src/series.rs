//! Time-series recording for figures and energy accounting.

use crate::time::SimTime;
use crate::units::{Energy, Power};

/// An append-only series of `(time, value)` samples.
///
/// Samples must be appended in non-decreasing time order. The series supports
/// step-function integration (used for energy accounting: integrate a power
/// series over time).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last appended sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "TimeSeries samples must be time-ordered");
        }
        self.points.push((t, v));
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Integrates the step function over `[from, to]`.
    ///
    /// Regions before the first sample integrate as zero. The value unit is
    /// `sample-unit × seconds`.
    pub fn integrate(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cursor = from;
        // Walk segment boundaries strictly inside (from, to).
        for window in self.points.windows(2) {
            let (t0, v0) = window[0];
            let t1 = window[1].0;
            let seg_start = t0.max(cursor);
            let seg_end = t1.min(to);
            if seg_end > seg_start {
                acc += v0 * (seg_end - seg_start).as_secs_f64();
                cursor = seg_end;
            }
            if cursor >= to {
                return acc;
            }
        }
        // Tail: last sample holds to the end of the window.
        let (t_last, v_last) = *self.points.last().expect("non-empty");
        let seg_start = t_last.max(cursor);
        if to > seg_start {
            acc += v_last * (to - seg_start).as_secs_f64();
        }
        acc
    }

    /// Mean of the step function over `[from, to]`.
    pub fn time_average(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_since(from).as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            self.integrate(from, to) / span
        }
    }

    /// Largest sample value (ignoring hold semantics), or `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Smallest sample value, or `None` when empty.
    pub fn min_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }
}

/// Accumulates energy from a piecewise-constant power draw.
///
/// Call [`set_power`](Self::set_power) whenever the draw changes; the meter
/// integrates the previous level over the elapsed interval.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    last_time: SimTime,
    current: Power,
    accumulated: Energy,
}

impl EnergyMeter {
    /// Creates a meter starting at `t0` with the given initial draw.
    pub fn new(t0: SimTime, initial: Power) -> Self {
        Self {
            last_time: t0,
            current: initial,
            accumulated: Energy::ZERO,
        }
    }

    /// Records that the power level changed to `p` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous update.
    pub fn set_power(&mut self, t: SimTime, p: Power) {
        self.accumulated += self.current * t.since(self.last_time);
        self.last_time = t;
        self.current = p;
    }

    /// Energy consumed up to time `t` (which must not precede the last update).
    pub fn energy_at(&self, t: SimTime) -> Energy {
        self.accumulated + self.current * t.since(self.last_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn integrate_step_function() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 2.0);
        ts.push(s(10), 4.0);
        // 10s at 2 + 5s at 4 = 40.
        assert!((ts.integrate(s(0), s(15)) - 40.0).abs() < 1e-9);
        // Window before first sample contributes zero.
        let mut ts2 = TimeSeries::new();
        ts2.push(s(5), 1.0);
        assert!((ts2.integrate(s(0), s(10)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_partial_windows() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 1.0);
        ts.push(s(2), 3.0);
        ts.push(s(4), 5.0);
        // [1, 3]: 1s at 1 + 1s at 3 = 4.
        assert!((ts.integrate(s(1), s(3)) - 4.0).abs() < 1e-9);
        assert_eq!(ts.integrate(s(3), s(3)), 0.0);
    }

    #[test]
    fn time_average_over_window() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 10.0);
        ts.push(s(5), 0.0);
        assert!((ts.time_average(s(0), s(10)) - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(s(2), 1.0);
        ts.push(s(1), 1.0);
    }

    #[test]
    fn min_max_values() {
        let mut ts = TimeSeries::new();
        ts.push(s(0), 3.0);
        ts.push(s(1), -1.0);
        ts.push(s(2), 9.0);
        assert_eq!(ts.max_value(), Some(9.0));
        assert_eq!(ts.min_value(), Some(-1.0));
    }

    #[test]
    fn energy_meter_integrates_levels() {
        let mut m = EnergyMeter::new(s(0), Power::watts(10.0));
        m.set_power(s(10), Power::watts(20.0));
        let e = m.energy_at(s(15));
        assert!((e.as_joules() - (100.0 + 100.0)).abs() < 1e-9);
        assert_eq!(m.current.as_watts(), 20.0);
    }
}
