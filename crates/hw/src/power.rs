//! Power states and load-dependent power models.
//!
//! The paper's headline claim is that a cluster of mobile SoCs scales power
//! *proportionally* with load (§4.1, Fig. 7, Fig. 12) while monolithic
//! server parts pay a large activation penalty (the NVIDIA GPU "stays in a
//! high-power mode" on low-entropy videos). [`LoadPowerModel`] captures both
//! behaviours with three parameters: an idle floor, an activation step paid
//! as soon as *any* work is present, and a dynamic term linear in
//! utilization.

use socc_sim::units::Power;

/// Operating power state of a component or a whole SoC.
///
/// State transitions are driven by the orchestrator's power-state manager;
/// the hardware model only prices each state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// Powered off: consumes nothing, serves nothing. Waking takes the
    /// longest (full OS boot on a mobile SoC).
    Off,
    /// Deep sleep: RAM retained, everything else gated.
    Sleep,
    /// Idle but awake: OS running, no workload.
    Idle,
    /// Actively serving work.
    Active,
}

impl PowerState {
    /// Returns `true` if the component can accept work without a wake-up.
    pub fn is_serving(self) -> bool {
        matches!(self, PowerState::Active | PowerState::Idle)
    }
}

/// Fraction of a component's capacity that is busy, clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Utilization(f64);

impl Utilization {
    /// Completely idle.
    pub const ZERO: Self = Self(0.0);

    /// Fully busy.
    pub const FULL: Self = Self(1.0);

    /// Creates a utilization, clamping to `[0, 1]` (NaN becomes 0).
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            Self(0.0)
        } else {
            Self(v.clamp(0.0, 1.0))
        }
    }

    /// Creates a utilization from used/total capacity, saturating at 1.
    pub fn from_ratio(used: f64, total: f64) -> Self {
        if total <= 0.0 {
            Self(0.0)
        } else {
            Self::new(used / total)
        }
    }

    /// The fraction as a plain `f64` in `[0, 1]`.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` when no capacity is in use.
    pub(crate) fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

/// A three-term load-to-power model.
///
/// `power(util) = idle + [util > 0] * activation + util * dynamic`
///
/// - `idle`: drawn whenever the component is powered on (even with no work);
/// - `activation`: the step paid as soon as any work runs — small for mobile
///   parts, large for discrete server GPUs that jump to a high-clock state;
/// - `dynamic`: the load-proportional term at full utilization.
///
/// *Workload power* (what the paper reports, §3 "Our report on workload
/// power consumption excludes idle power") is `power(util) - idle`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPowerModel {
    /// Power drawn when powered on but completely idle.
    pub(crate) idle: Power,
    /// Step drawn as soon as utilization is non-zero.
    pub(crate) activation: Power,
    /// Additional power at 100% utilization, scaled linearly with load.
    pub(crate) dynamic: Power,
}

impl LoadPowerModel {
    /// Creates a model from watt values.
    pub fn new(idle_w: f64, activation_w: f64, dynamic_w: f64) -> Self {
        Self {
            idle: Power::watts(idle_w),
            activation: Power::watts(activation_w),
            dynamic: Power::watts(dynamic_w),
        }
    }

    /// Total electrical power at the given state and utilization.
    pub fn power(&self, state: PowerState, util: Utilization) -> Power {
        match state {
            PowerState::Off => Power::ZERO,
            PowerState::Sleep => self.idle * 0.08,
            PowerState::Idle => self.idle,
            PowerState::Active => {
                if util.is_zero() {
                    self.idle
                } else {
                    self.idle + self.activation + self.dynamic * util.get()
                }
            }
        }
    }

    /// Workload power: total power minus the idle floor (never negative).
    ///
    /// This matches the paper's measurement convention.
    pub(crate) fn workload_power(&self, util: Utilization) -> Power {
        if util.is_zero() {
            Power::ZERO
        } else {
            self.activation + self.dynamic * util.get()
        }
    }

    /// Power at full load in the active state.
    pub fn peak(&self) -> Power {
        self.power(PowerState::Active, Utilization::FULL)
    }

    /// Energy-proportionality index over a load sweep: 1.0 means power at
    /// load `u` is exactly `u * peak_workload`, 0 means flat power.
    ///
    /// Computed as `1 - wasted_area / ideal_area` over the workload power
    /// curve (activation makes the curve convex from above, wasting energy
    /// at partial load).
    pub fn proportionality_index(&self) -> f64 {
        let peak = self.workload_power(Utilization::FULL).as_watts();
        if peak == 0.0 {
            return 1.0;
        }
        // Integrate workload_power(u) du analytically: activation + dynamic/2.
        let area = self.activation.as_watts() + self.dynamic.as_watts() / 2.0;
        let ideal = peak / 2.0;
        (1.0 - (area - ideal) / ideal).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_clamps() {
        assert_eq!(Utilization::new(1.5).get(), 1.0);
        assert_eq!(Utilization::new(-0.5).get(), 0.0);
        assert_eq!(Utilization::new(f64::NAN).get(), 0.0);
        assert_eq!(Utilization::from_ratio(5.0, 10.0).get(), 0.5);
        assert_eq!(Utilization::from_ratio(5.0, 0.0).get(), 0.0);
    }

    #[test]
    fn power_by_state() {
        let m = LoadPowerModel::new(2.0, 1.0, 6.0);
        assert_eq!(m.power(PowerState::Off, Utilization::FULL), Power::ZERO);
        assert_eq!(
            m.power(PowerState::Idle, Utilization::FULL),
            Power::watts(2.0)
        );
        assert_eq!(
            m.power(PowerState::Active, Utilization::ZERO),
            Power::watts(2.0)
        );
        assert_eq!(
            m.power(PowerState::Active, Utilization::FULL),
            Power::watts(9.0)
        );
        assert!(m.power(PowerState::Sleep, Utilization::ZERO) < Power::watts(0.5));
    }

    #[test]
    fn workload_power_excludes_idle() {
        let m = LoadPowerModel::new(2.0, 1.0, 6.0);
        assert_eq!(m.workload_power(Utilization::ZERO), Power::ZERO);
        assert_eq!(m.workload_power(Utilization::FULL), Power::watts(7.0));
        assert_eq!(m.workload_power(Utilization::new(0.5)), Power::watts(4.0));
    }

    #[test]
    fn proportional_model_has_index_one() {
        let m = LoadPowerModel::new(0.0, 0.0, 10.0);
        assert!((m.proportionality_index() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn activation_hurts_proportionality() {
        let flat = LoadPowerModel::new(0.0, 10.0, 0.1); // nearly flat curve
        let prop = LoadPowerModel::new(0.0, 0.5, 10.0);
        assert!(flat.proportionality_index() < 0.2);
        assert!(prop.proportionality_index() > 0.9);
    }

    #[test]
    fn serving_states() {
        assert!(PowerState::Active.is_serving());
        assert!(PowerState::Idle.is_serving());
        assert!(!PowerState::Sleep.is_serving());
        assert!(!PowerState::Off.is_serving());
    }

    #[test]
    fn peak_is_monotone_upper_bound() {
        let m = LoadPowerModel::new(2.0, 1.0, 6.0);
        for i in 0..=10 {
            let u = Utilization::new(i as f64 / 10.0);
            assert!(m.power(PowerState::Active, u) <= m.peak());
        }
    }
}
