//! Lumped-parameter (RC) thermal model and fan control.
//!
//! The SoC Cluster cools 60 SoCs in 2U with eight fans (§2.2). Each thermal
//! node follows `C·dT/dt = P - (T - T_amb)/R(airflow)`: heat capacity `C`
//! integrates dissipated power, thermal resistance `R` falls as the fans
//! spin up. The BMC reads node temperatures and drives the fan duty cycle.

use socc_sim::time::SimDuration;
use socc_sim::units::Power;

/// One lumped thermal node (an SoC package, the ESB, …).
#[derive(Debug, Clone)]
pub struct ThermalNode {
    /// Ambient (inlet air) temperature in °C.
    pub(crate) ambient_c: f64,
    /// Thermal resistance junction→air at zero airflow, °C/W.
    pub(crate) r_still_c_per_w: f64,
    /// Thermal resistance at full airflow, °C/W.
    pub(crate) r_forced_c_per_w: f64,
    /// Heat capacity, J/°C.
    pub(crate) capacity_j_per_c: f64,
    /// Junction temperature where the part throttles.
    pub(crate) throttle_c: f64,
    temperature_c: f64,
}

impl ThermalNode {
    /// Creates a node in equilibrium with ambient air.
    pub fn new(
        ambient_c: f64,
        r_still: f64,
        r_forced: f64,
        capacity: f64,
        throttle_c: f64,
    ) -> Self {
        Self {
            ambient_c,
            r_still_c_per_w: r_still,
            r_forced_c_per_w: r_forced,
            capacity_j_per_c: capacity,
            throttle_c,
            temperature_c: ambient_c,
        }
    }

    /// A Snapdragon 865 package in the cluster airflow path.
    pub fn soc_package(ambient_c: f64) -> Self {
        Self::new(ambient_c, 8.0, 2.2, 18.0, 95.0)
    }

    /// Current junction temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Returns `true` if the part is at or above its throttle point.
    pub fn is_throttling(&self) -> bool {
        self.temperature_c >= self.throttle_c
    }

    /// Effective thermal resistance at a fan duty cycle in `[0, 1]`.
    fn resistance(&self, fan_duty: f64) -> f64 {
        let duty = fan_duty.clamp(0.0, 1.0);
        self.r_still_c_per_w + (self.r_forced_c_per_w - self.r_still_c_per_w) * duty
    }

    /// Steady-state temperature under constant power and fan duty.
    #[cfg(test)]
    pub(crate) fn steady_state_c(&self, power: Power, fan_duty: f64) -> f64 {
        self.ambient_c + power.as_watts() * self.resistance(fan_duty)
    }

    /// Thermal resistance and decay factor `exp(-dt/τ)`, `τ = R·C`, of one
    /// step of `dt` at a fan duty: what every node of one model shares.
    fn decay(&self, dt: SimDuration, fan_duty: f64) -> (f64, f64) {
        let r = self.resistance(fan_duty);
        let tau = r * self.capacity_j_per_c;
        (r, (-dt.as_secs_f64() / tau).exp())
    }

    /// The exact exponential solution of the RC equation: `temperature_c`
    /// relaxes toward `ambient + P·R` by the decay factor `alpha`.
    fn relax(&self, temperature_c: f64, power: Power, r: f64, alpha: f64) -> f64 {
        let t_inf = self.ambient_c + power.as_watts() * r;
        t_inf + (temperature_c - t_inf) * alpha
    }

    /// Advances the node by `dt` under constant dissipation and fan duty,
    /// using the exact exponential solution of the RC equation.
    pub fn step(&mut self, dt: SimDuration, power: Power, fan_duty: f64) {
        let (r, alpha) = self.decay(dt, fan_duty);
        self.temperature_c = self.relax(self.temperature_c, power, r, alpha);
    }
}

/// Many identical nodes sharing one RC model and one fan duty: the SoC
/// packages of a cluster. A step computes the resistance and the decay
/// factor once and then relaxes every temperature with
/// [`ThermalNode::step`]'s arithmetic, so each temperature is bit-equal to
/// that of a node stepped on its own.
#[derive(Debug, Clone)]
pub struct ThermalBank {
    model: ThermalNode,
    temperatures_c: Vec<f64>,
}

impl ThermalBank {
    /// `count` nodes of `model`, each at the model's temperature.
    pub fn new(model: ThermalNode, count: usize) -> Self {
        Self {
            temperatures_c: vec![model.temperature_c; count],
            model,
        }
    }

    /// Every node's junction temperature in °C, in slot order.
    pub fn temperatures_c(&self) -> &[f64] {
        &self.temperatures_c
    }

    /// Returns `true` if any node is at or above the throttle point.
    pub fn any_throttling(&self) -> bool {
        self.temperatures_c
            .iter()
            .any(|&t| t >= self.model.throttle_c)
    }

    /// Advances every node by `dt`, node `i` dissipating `power[i]`, at one
    /// fan duty, and returns the hottest new temperature (`-inf` for an
    /// empty bank). The new temperatures are [`Self::temperatures_c`].
    ///
    /// # Panics
    ///
    /// Panics unless there is one power per node.
    pub fn step(&mut self, dt: SimDuration, power: &[Power], fan_duty: f64) -> f64 {
        assert_eq!(power.len(), self.temperatures_c.len(), "one power per node");
        let (r, alpha) = self.model.decay(dt, fan_duty);
        for (t, &p) in self.temperatures_c.iter_mut().zip(power) {
            *t = self.model.relax(*t, p, r, alpha);
        }
        hottest(&self.temperatures_c)
    }
}

/// The largest of `temps` (`-inf` for none), from four running maxima that
/// do not wait on each other. `max` is exact and ignores order, so the
/// result is bit-equal to one maximum folded in slot order.
fn hottest(temps: &[f64]) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; 4];
    let mut quads = temps.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &t) in lanes.iter_mut().zip(quad) {
            *lane = lane.max(t);
        }
    }
    for &t in quads.remainder() {
        lanes[0] = lanes[0].max(t);
    }
    lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]))
}

/// Proportional fan controller with hysteresis-free duty mapping.
///
/// Duty rises linearly from `min_duty` at `target_c` to 1.0 at `max_c`.
#[derive(Debug, Clone)]
pub struct FanController {
    /// Temperature at which fans start ramping.
    pub(crate) target_c: f64,
    /// Temperature at which fans reach full speed.
    pub(crate) max_c: f64,
    /// Minimum duty cycle (fans never fully stop in a 2U chassis).
    pub(crate) min_duty: f64,
    /// Electrical power of the fan wall at full duty.
    pub(crate) full_power: Power,
}

impl FanController {
    /// The SoC Cluster's eight-fan wall (§2.2).
    pub fn cluster_default() -> Self {
        Self {
            target_c: 45.0,
            max_c: 85.0,
            min_duty: 0.25,
            full_power: Power::watts(48.0),
        }
    }

    /// Duty cycle for the hottest observed node temperature.
    pub fn duty_for(&self, hottest_c: f64) -> f64 {
        if hottest_c <= self.target_c {
            return self.min_duty;
        }
        let frac = (hottest_c - self.target_c) / (self.max_c - self.target_c);
        (self.min_duty + (1.0 - self.min_duty) * frac).clamp(self.min_duty, 1.0)
    }

    /// Fan electrical power at a duty cycle (cubic fan-affinity law).
    pub fn power_at(&self, duty: f64) -> Power {
        let d = duty.clamp(0.0, 1.0);
        self.full_power * d.powi(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_warms_toward_steady_state() {
        let mut node = ThermalNode::soc_package(25.0);
        let p = Power::watts(8.0);
        let target = node.steady_state_c(p, 1.0);
        for _ in 0..10_000 {
            node.step(SimDuration::from_millis(100), p, 1.0);
        }
        assert!((node.temperature_c() - target).abs() < 0.1);
    }

    #[test]
    fn more_airflow_runs_cooler() {
        let node = ThermalNode::soc_package(25.0);
        let p = Power::watts(8.0);
        assert!(node.steady_state_c(p, 1.0) < node.steady_state_c(p, 0.0));
    }

    #[test]
    fn full_fan_keeps_soc_below_throttle() {
        // A fully loaded SoC (~8.6 W total) must not throttle with fans on.
        let node = ThermalNode::soc_package(30.0);
        let steady = node.steady_state_c(Power::watts(8.6), 1.0);
        assert!(steady < node.throttle_c, "steady {steady}");
    }

    #[test]
    fn still_air_would_throttle() {
        // Sanity: without airflow a loaded SoC exceeds its limit — the fan
        // wall is load-bearing.
        let node = ThermalNode::soc_package(30.0);
        assert!(node.steady_state_c(Power::watts(8.6), 0.0) > node.throttle_c);
    }

    #[test]
    fn fan_duty_ramp() {
        let fc = FanController::cluster_default();
        assert_eq!(fc.duty_for(20.0), fc.min_duty);
        assert_eq!(fc.duty_for(200.0), 1.0);
        let mid = fc.duty_for((fc.target_c + fc.max_c) / 2.0);
        assert!(mid > fc.min_duty && mid < 1.0);
    }

    #[test]
    fn fan_power_is_cubic() {
        let fc = FanController::cluster_default();
        let half = fc.power_at(0.5).as_watts();
        let full = fc.power_at(1.0).as_watts();
        assert!((half / full - 0.125).abs() < 1e-9);
    }

    #[test]
    fn cooling_step_is_exact_exponential() {
        let mut node = ThermalNode::new(25.0, 2.0, 1.0, 10.0, 90.0);
        // Heat to a known temperature first.
        node.step(SimDuration::from_secs(1000), Power::watts(20.0), 0.0);
        let hot = node.temperature_c();
        // One big cooling step equals many small ones (exactness check).
        let mut a = node.clone();
        a.step(SimDuration::from_secs(10), Power::ZERO, 1.0);
        let mut b = node;
        for _ in 0..1000 {
            b.step(SimDuration::from_millis(10), Power::ZERO, 1.0);
        }
        assert!((a.temperature_c() - b.temperature_c()).abs() < 1e-6);
        assert!(a.temperature_c() < hot);
    }
}
