//! Physical unit newtypes used throughout the workspace.
//!
//! All experiment code manipulates power, energy, data sizes and data rates.
//! Newtypes keep the dimensional analysis honest: multiplying [`Power`] by a
//! [`SimDuration`] yields [`Energy`], dividing a
//! [`DataSize`] by a [`DataRate`] yields a duration, and so on. Every type is
//! a thin wrapper over `f64` (or `u64` for time) and is `Copy`.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::time::SimDuration;

macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new value from the raw magnitude in base units.
            pub(crate) const fn new(v: f64) -> Self {
                Self(v)
            }

            /// Returns the raw magnitude in base units.
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the maximum of `self` and `other`.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

scalar_unit!(
    /// Electrical power in watts.
    Power,
    "W"
);

scalar_unit!(
    /// Energy in joules.
    Energy,
    "J"
);

scalar_unit!(
    /// Data size in bits.
    ///
    /// Bits (not bytes) are the base unit because link capacities and video
    /// bitrates — the dominant uses in this workspace — are naturally
    /// expressed in bits per second.
    DataSize,
    "bit"
);

scalar_unit!(
    /// Data rate in bits per second.
    DataRate,
    "bit/s"
);

scalar_unit!(
    /// Clock frequency in hertz.
    Frequency,
    "Hz"
);

impl Power {
    /// Creates a power value from watts.
    pub const fn watts(w: f64) -> Self {
        Self::new(w)
    }

    /// Returns the magnitude in watts.
    pub const fn as_watts(self) -> f64 {
        self.get()
    }
}

impl Energy {
    /// Creates an energy value from joules.
    pub const fn joules(j: f64) -> Self {
        Self::new(j)
    }

    /// Returns the magnitude in joules.
    pub const fn as_joules(self) -> f64 {
        self.get()
    }

    /// Returns the magnitude in kilowatt-hours.
    pub fn as_kilowatt_hours(self) -> f64 {
        self.get() / 3.6e6
    }
}

impl DataSize {
    /// Creates a size from bits.
    pub const fn bits(b: f64) -> Self {
        Self::new(b)
    }

    /// Creates a size from bytes.
    pub fn bytes(b: f64) -> Self {
        Self::new(b * 8.0)
    }

    /// Creates a size from kilobytes (10^3 bytes).
    pub fn kilobytes(kb: f64) -> Self {
        Self::bytes(kb * 1e3)
    }

    /// Creates a size from megabytes (10^6 bytes).
    pub fn megabytes(mb: f64) -> Self {
        Self::bytes(mb * 1e6)
    }

    /// Creates a size from megabits.
    pub fn megabits(mb: f64) -> Self {
        Self::new(mb * 1e6)
    }

    /// Returns the magnitude in bits.
    pub const fn as_bits(self) -> f64 {
        self.get()
    }

    /// Returns the magnitude in bytes.
    pub fn as_bytes(self) -> f64 {
        self.get() / 8.0
    }
}

impl DataRate {
    /// Creates a rate from bits per second.
    pub const fn bps(v: f64) -> Self {
        Self::new(v)
    }

    /// Creates a rate from kilobits per second.
    pub fn kbps(v: f64) -> Self {
        Self::new(v * 1e3)
    }

    /// Creates a rate from megabits per second.
    pub fn mbps(v: f64) -> Self {
        Self::new(v * 1e6)
    }

    /// Creates a rate from gigabits per second.
    pub fn gbps(v: f64) -> Self {
        Self::new(v * 1e9)
    }

    /// Returns the magnitude in bits per second.
    pub const fn as_bps(self) -> f64 {
        self.get()
    }

    /// Returns the magnitude in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.get() / 1e6
    }

    /// Returns the magnitude in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.get() / 1e9
    }
}

impl Frequency {
    /// Creates a frequency from hertz.
    pub const fn hz(v: f64) -> Self {
        Self::new(v)
    }

    /// Creates a frequency from gigahertz.
    pub fn ghz(v: f64) -> Self {
        Self::new(v * 1e9)
    }

    /// Returns the magnitude in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.get() / 1e9
    }
}

impl Mul<SimDuration> for Power {
    type Output = Energy;
    /// Power sustained over a duration accumulates energy.
    fn mul(self, rhs: SimDuration) -> Energy {
        Energy::joules(self.as_watts() * rhs.as_secs_f64())
    }
}

impl Mul<Power> for SimDuration {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Div<SimDuration> for Energy {
    type Output = Power;
    /// Average power over an interval.
    fn div(self, rhs: SimDuration) -> Power {
        Power::watts(self.as_joules() / rhs.as_secs_f64())
    }
}

impl Mul<SimDuration> for DataRate {
    type Output = DataSize;
    /// Data transferred at a constant rate over a duration.
    fn mul(self, rhs: SimDuration) -> DataSize {
        DataSize::bits(self.as_bps() * rhs.as_secs_f64())
    }
}

impl Div<DataRate> for DataSize {
    type Output = SimDuration;
    /// Time to move `self` at rate `rhs`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the resulting duration is negative or NaN.
    fn div(self, rhs: DataRate) -> SimDuration {
        SimDuration::from_secs_f64(self.as_bits() / rhs.as_bps())
    }
}

impl Div<SimDuration> for DataSize {
    type Output = DataRate;
    /// Average rate needed to move `self` within a duration.
    fn div(self, rhs: SimDuration) -> DataRate {
        DataRate::bps(self.as_bits() / rhs.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn power_times_duration_is_energy() {
        let e = Power::watts(10.0) * SimDuration::from_secs(30);
        assert_eq!(e.as_joules(), 300.0);
    }

    #[test]
    fn energy_kwh_roundtrip() {
        let e = Energy::joules(1.5 * 3.6e6);
        assert!((e.as_kilowatt_hours() - 1.5).abs() < 1e-12);
        assert_eq!(e.as_joules(), 1.5 * 3.6e6);
    }

    #[test]
    fn datasize_over_rate_is_duration() {
        let d = DataSize::megabits(100.0) / DataRate::mbps(50.0);
        assert!((d.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rate_times_duration_is_size() {
        let s = DataRate::gbps(1.0) * SimDuration::from_millis(500);
        assert!((s.as_bits() - 5e8).abs() < 1.0);
    }

    #[test]
    fn like_ratio_is_dimensionless() {
        assert_eq!(Power::watts(10.0) / Power::watts(2.5), 4.0);
    }

    #[test]
    fn bytes_bits_conversions() {
        assert_eq!(DataSize::bytes(2.0).as_bits(), 16.0);
        assert_eq!(DataSize::megabytes(1.0).as_bytes(), 1e6);
    }

    #[test]
    fn ordering_and_clamp() {
        assert!(Power::watts(1.0) < Power::watts(2.0));
    }

    #[test]
    fn sum_iterates() {
        let total: Power = (1..=4).map(|i| Power::watts(i as f64)).sum();
        assert_eq!(total.as_watts(), 10.0);
    }

    #[test]
    fn display_with_precision() {
        assert_eq!(format!("{:.2}", Power::watts(1.2345)), "1.23 W");
        assert_eq!(format!("{:.1}", DataRate::mbps(1.0)), "1000000.0 bit/s");
    }

    #[test]
    fn average_power_from_energy() {
        let p = Energy::joules(600.0) / SimDuration::from_secs(60);
        assert_eq!(p.as_watts(), 10.0);
    }
}
