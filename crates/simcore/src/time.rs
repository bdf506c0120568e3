//! Simulated time.
//!
//! [`SimTime`] is an absolute instant on the simulation clock and
//! [`SimDuration`] a span between instants. Both are backed by a `u64`
//! nanosecond count, which gives deterministic integer arithmetic (no
//! floating-point drift in the event queue) while still covering ~584 years
//! of simulated time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds in one second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A span of simulated time with nanosecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: Self = Self { nanos: 0 };

    /// The largest representable duration.
    pub(crate) const MAX: Self = Self { nanos: u64::MAX };

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self { nanos }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self {
            nanos: millis * 1_000_000,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            nanos: secs * NANOS_PER_SEC,
        }
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        Self::from_secs(mins * 60)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        Self::from_secs(hours * 3600)
    }

    /// Creates a duration from fractional seconds, saturating at the
    /// representable range and flooring negatives/NaN to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return Self::ZERO;
        }
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos >= u64::MAX as f64 {
            Self::MAX
        } else {
            Self {
                nanos: nanos.round() as u64,
            }
        }
    }

    /// Creates a duration from fractional milliseconds (negatives clamp to zero).
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Returns the duration as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_SEC as f64
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Returns the duration as fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Returns `true` for the zero duration.
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Self) -> Self {
        Self {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }
}

impl Add for SimDuration {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            nanos: self
                .nanos
                .checked_add(rhs.nanos)
                .expect("SimDuration overflow"),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            nanos: self
                .nanos
                .checked_sub(rhs.nanos)
                .expect("SimDuration underflow"),
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Mul<u32> for SimDuration {
    type Output = Self;
    fn mul(self, rhs: u32) -> Self {
        Self {
            nanos: self
                .nanos
                .checked_mul(rhs as u64)
                .expect("SimDuration overflow"),
        }
    }
}

impl Div<f64> for SimDuration {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self::from_secs_f64(self.as_secs_f64() / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.as_secs_f64() / rhs.as_secs_f64()
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 3600.0 {
            write!(f, "{:.2} h", s / 3600.0)
        } else if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else {
            write!(f, "{:.3} us", s * 1e6)
        }
    }
}

/// An absolute instant on the simulation clock, measured from the start of
/// the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: Self = Self { nanos: 0 };

    /// Creates an instant from nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self { nanos }
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            nanos: secs * NANOS_PER_SEC,
        }
    }

    /// Creates an instant from fractional seconds since the epoch.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self {
            nanos: SimDuration::from_secs_f64(secs).as_nanos(),
        }
    }

    /// Returns nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Returns fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / NANOS_PER_SEC as f64
    }

    /// Returns fractional hours since the epoch.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Duration elapsed since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.nanos <= self.nanos,
            "SimTime::since: earlier instant is in the future"
        );
        SimDuration {
            nanos: self.nanos - earlier.nanos,
        }
    }

    /// Duration elapsed since an earlier instant, or zero if `earlier` is
    /// actually later.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = Self;
    fn add(self, rhs: SimDuration) -> Self {
        Self {
            nanos: self
                .nanos
                .checked_add(rhs.as_nanos())
                .expect("SimTime overflow"),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = Self;
    fn sub(self, rhs: SimDuration) -> Self {
        Self {
            nanos: self
                .nanos
                .checked_sub(rhs.as_nanos())
                .expect("SimTime underflow"),
        }
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(
            SimDuration::from_millis(3),
            SimDuration::from_nanos(3_000_000)
        );
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
    }

    #[test]
    fn fractional_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((d.as_millis_f64() - 1500.0).abs() < 1e-6);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert!((t.as_secs_f64() - 10.5).abs() < 1e-9);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn since_panics_on_future() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn saturating_since_floors_at_zero() {
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10) * 0.5;
        assert_eq!(d, SimDuration::from_secs(5));
        assert_eq!(
            SimDuration::from_secs(10) / 4.0,
            SimDuration::from_millis(2500)
        );
        assert_eq!(SimDuration::from_secs(6) / SimDuration::from_secs(2), 3.0);
    }

    #[test]
    fn ordering_is_total_on_integers() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_nanos(5) > SimDuration::from_nanos(4));
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000 ms");
        assert_eq!(format!("{}", SimDuration::from_secs(7200)), "2.00 h");
        assert_eq!(format!("{}", SimDuration::from_nanos(7_000)), "7.000 us");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=3).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(6));
    }
}
