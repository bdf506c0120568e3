//! Per-component energy ledger with board and PSU-rail roll-ups.
//!
//! The paper's headline numbers are energy numbers — per-SoC power curves,
//! the cluster-average peak, energy-per-request against the A40 baseline
//! (PAPER.md §4–§6) — so the simulator keeps an explicit ledger instead of
//! a single cluster-level meter: each SoC's CPU/codec/GPU/DSP/memory power
//! is integrated piecewise-constantly over its DVFS-state residencies,
//! rolled up to the SoC's PCB board, and from the board to the PSU rail
//! that feeds it. Shared chassis power (PCB controllers, the embedded
//! switch board, the BMC, fans) is metered separately and split evenly
//! across rails.
//!
//! Because the rail meters are maintained *incrementally* (a rail's power
//! is nudged by the delta of the one SoC that changed, not recomputed as a
//! fresh sum), the ledger carries a built-in cross-check:
//! [`EnergyLedger::verify_conservation`] demands that the sum of every
//! component energy plus chassis energy equals the sum of rail energies to
//! within a relative tolerance. A bookkeeping bug on either side — a
//! missed residency interval, a rail attributed twice — breaks the
//! identity and fails the check, which the orchestrator runs every tick.

use socc_sim::time::SimTime;
use socc_sim::units::{Energy, Power};

/// The five metered component classes of one SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Component {
    /// Big/little CPU complex.
    Cpu = 0,
    /// Hardware video codec.
    Codec = 1,
    /// GPU.
    Gpu = 2,
    /// DSP / NPU.
    Dsp = 3,
    /// LPDDR memory system.
    Memory = 4,
}

impl Component {
    /// All components, in metering order.
    pub const ALL: [Component; 5] = [
        Component::Cpu,
        Component::Codec,
        Component::Gpu,
        Component::Dsp,
        Component::Memory,
    ];

    /// Stable lower-case name.
    pub const fn name(self) -> &'static str {
        match self {
            Component::Cpu => "cpu",
            Component::Codec => "codec",
            Component::Gpu => "gpu",
            Component::Dsp => "dsp",
            Component::Memory => "memory",
        }
    }
}

/// A per-component power breakdown for one SoC at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentPowers {
    /// CPU complex power.
    pub cpu: Power,
    /// Hardware codec power.
    pub codec: Power,
    /// GPU power.
    pub gpu: Power,
    /// DSP power.
    pub dsp: Power,
    /// Memory system power.
    pub memory: Power,
}

impl ComponentPowers {
    /// All components at zero watts.
    pub const ZERO: ComponentPowers = ComponentPowers {
        cpu: Power::ZERO,
        codec: Power::ZERO,
        gpu: Power::ZERO,
        dsp: Power::ZERO,
        memory: Power::ZERO,
    };

    /// Total SoC power.
    ///
    /// The summation order (`cpu + codec + gpu + dsp + memory`) is part of
    /// the contract: it matches the historical `SocUnit::total_power`
    /// accumulation order bit-for-bit, so switching the orchestrator's
    /// meter to `component_powers().total()` changed no golden number.
    pub fn total(&self) -> Power {
        self.cpu + self.codec + self.gpu + self.dsp + self.memory
    }

    /// The power of one component.
    pub const fn get(&self, c: Component) -> Power {
        match c {
            Component::Cpu => self.cpu,
            Component::Codec => self.codec,
            Component::Gpu => self.gpu,
            Component::Dsp => self.dsp,
            Component::Memory => self.memory,
        }
    }
}

/// Accumulated energy for the five components of one SoC, in joules.
type ComponentEnergies = [f64; 5];

/// Piecewise-constant per-component energy integrator with board and
/// PSU-rail roll-ups and a conservation cross-check.
///
/// All `set_*` calls must carry non-decreasing timestamps; the ledger is
/// monotone in sim time by construction (powers are clamped non-negative
/// and intervals never overlap).
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    socs_per_board: usize,
    boards: usize,
    rails: usize,
    /// Per-SoC integration state.
    soc_last_t: Vec<SimTime>,
    soc_power: Vec<ComponentPowers>,
    soc_energy: Vec<ComponentEnergies>,
    /// Shared chassis power (boards + switch + BMC + fans).
    chassis_last_t: SimTime,
    chassis_power_w: f64,
    chassis_energy_j: f64,
    /// Per-rail roll-up, maintained incrementally.
    rail_last_t: Vec<SimTime>,
    rail_power_w: Vec<f64>,
    rail_energy_j: Vec<f64>,
}

impl EnergyLedger {
    /// Creates a ledger for `socs` SoC slots grouped `socs_per_board` to a
    /// PCB (the last board may be partial), the boards striped across
    /// `rails` PSU rails. Everything starts at zero watts at `t0`.
    ///
    /// # Panics
    ///
    /// Panics on zero `socs`, `socs_per_board` or `rails`.
    pub fn new(t0: SimTime, socs: usize, socs_per_board: usize, rails: usize) -> Self {
        assert!(socs > 0, "socs must be positive");
        assert!(socs_per_board > 0, "socs_per_board must be positive");
        assert!(rails > 0, "rails must be positive");
        let boards = socs.div_ceil(socs_per_board);
        Self {
            socs_per_board,
            boards,
            rails,
            soc_last_t: vec![t0; socs],
            soc_power: vec![ComponentPowers::ZERO; socs],
            soc_energy: vec![[0.0; 5]; socs],
            chassis_last_t: t0,
            chassis_power_w: 0.0,
            chassis_energy_j: 0.0,
            rail_last_t: vec![t0; rails],
            rail_power_w: vec![0.0; rails],
            rail_energy_j: vec![0.0; rails],
        }
    }

    /// Number of SoC slots.
    pub fn socs(&self) -> usize {
        self.soc_last_t.len()
    }

    /// Number of PCB boards.
    pub const fn boards(&self) -> usize {
        self.boards
    }

    /// Number of PSU rails.
    pub const fn rails(&self) -> usize {
        self.rails
    }

    /// The PCB board carrying a SoC slot.
    pub const fn board_of_soc(&self, soc: usize) -> usize {
        soc / self.socs_per_board
    }

    /// The PSU rail feeding a board (boards are striped contiguously:
    /// with 12 boards on 2 rails, boards 0–5 draw from rail 0).
    pub const fn rail_of_board(&self, board: usize) -> usize {
        board * self.rails / self.boards
    }

    /// The PSU rail feeding a SoC slot.
    pub const fn rail_of_soc(&self, soc: usize) -> usize {
        self.rail_of_board(self.board_of_soc(soc))
    }

    /// Books `dt > 0` seconds of a SoC's current breakdown, one
    /// component after another in metering order.
    fn book_soc(&mut self, soc: usize, dt: f64) {
        let p = self.soc_power[soc];
        let e = &mut self.soc_energy[soc];
        e[Component::Cpu as usize] += p.cpu.as_watts() * dt;
        e[Component::Codec as usize] += p.codec.as_watts() * dt;
        e[Component::Gpu as usize] += p.gpu.as_watts() * dt;
        e[Component::Dsp as usize] += p.dsp.as_watts() * dt;
        e[Component::Memory as usize] += p.memory.as_watts() * dt;
    }

    fn integrate_soc(&mut self, soc: usize, t: SimTime) {
        let dt = t.since(self.soc_last_t[soc]).as_secs_f64();
        if dt > 0.0 {
            self.book_soc(soc, dt);
        }
        self.soc_last_t[soc] = t;
    }

    fn integrate_rail(&mut self, rail: usize, t: SimTime) {
        let dt = t.since(self.rail_last_t[rail]).as_secs_f64();
        if dt > 0.0 {
            self.rail_energy_j[rail] += self.rail_power_w[rail] * dt;
        }
        self.rail_last_t[rail] = t;
    }

    fn integrate_chassis(&mut self, t: SimTime) {
        let dt = t.since(self.chassis_last_t).as_secs_f64();
        if dt > 0.0 {
            self.chassis_energy_j += self.chassis_power_w * dt;
        }
        self.chassis_last_t = t;
    }

    /// Registers a SoC's new per-component power breakdown effective at
    /// `t`. The interval since the previous call is integrated at the old
    /// breakdown, and the SoC's rail meter is nudged by the total delta.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes this SoC's previous timestamp, if `soc` is
    /// out of range, or if any component power is negative.
    pub fn set_soc_power(&mut self, t: SimTime, soc: usize, p: ComponentPowers) {
        for c in Component::ALL {
            assert!(
                p.get(c).as_watts() >= 0.0,
                "negative {} power on SoC {soc}",
                c.name()
            );
        }
        self.integrate_soc(soc, t);
        let rail = self.rail_of_soc(soc);
        self.integrate_rail(rail, t);
        let old_total = self.soc_power[soc].total().as_watts();
        self.soc_power[soc] = p;
        self.rail_power_w[rail] += p.total().as_watts() - old_total;
        // Float roundoff in the incremental delta can leave a tiny
        // negative residue when a rail returns to zero; clamp so rail
        // energy stays monotone.
        if self.rail_power_w[rail] < 0.0 {
            self.rail_power_w[rail] = 0.0;
        }
    }

    /// Registers new shared chassis power effective at `t`, split evenly
    /// across rails.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous chassis timestamp or `power`
    /// is negative.
    pub fn set_chassis_power(&mut self, t: SimTime, power: Power) {
        let w = power.as_watts();
        assert!(w >= 0.0, "negative chassis power");
        self.integrate_chassis(t);
        let delta = (w - self.chassis_power_w) / self.rails as f64;
        self.chassis_power_w = w;
        for rail in 0..self.rails {
            self.integrate_rail(rail, t);
            self.rail_power_w[rail] += delta;
            if self.rail_power_w[rail] < 0.0 {
                self.rail_power_w[rail] = 0.0;
            }
        }
    }

    /// Integrates every meter up to `t` without changing any power.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes any meter's previous timestamp.
    pub fn advance(&mut self, t: SimTime) {
        for soc in 0..self.socs() {
            self.integrate_soc(soc, t);
        }
        for rail in 0..self.rails {
            self.integrate_rail(rail, t);
        }
        self.integrate_chassis(t);
    }

    /// The per-component power a SoC is currently booked at.
    pub fn soc_power(&self, soc: usize) -> ComponentPowers {
        self.soc_power[soc]
    }

    fn pending_soc(&self, soc: usize, t: SimTime) -> f64 {
        self.soc_power[soc].total().as_watts()
            * t.saturating_since(self.soc_last_t[soc]).as_secs_f64()
    }

    /// Energy one component of one SoC has accumulated by `t`.
    pub fn component_energy(&self, soc: usize, c: Component, t: SimTime) -> Energy {
        let pending = self.soc_power[soc].get(c).as_watts()
            * t.saturating_since(self.soc_last_t[soc]).as_secs_f64();
        Energy::joules(self.soc_energy[soc][c as usize] + pending)
    }

    /// Total energy one SoC has accumulated by `t` (all components).
    pub fn soc_energy(&self, soc: usize, t: SimTime) -> Energy {
        let booked: f64 = self.soc_energy[soc].iter().sum();
        Energy::joules(booked + self.pending_soc(soc, t))
    }

    /// Total energy one PCB board's SoCs have accumulated by `t` (SoC
    /// silicon only — shared chassis power is metered separately).
    pub fn board_energy(&self, board: usize, t: SimTime) -> Energy {
        let lo = board * self.socs_per_board;
        let hi = (lo + self.socs_per_board).min(self.socs());
        (lo..hi).map(|s| self.soc_energy(s, t)).sum()
    }

    /// Shared chassis energy accumulated by `t`.
    pub fn chassis_energy(&self, t: SimTime) -> Energy {
        let pending = self.chassis_power_w * t.saturating_since(self.chassis_last_t).as_secs_f64();
        Energy::joules(self.chassis_energy_j + pending)
    }

    /// Energy one PSU rail has delivered by `t`.
    pub fn rail_energy(&self, rail: usize, t: SimTime) -> Energy {
        let pending =
            self.rail_power_w[rail] * t.saturating_since(self.rail_last_t[rail]).as_secs_f64();
        Energy::joules(self.rail_energy_j[rail] + pending)
    }

    /// Sum of every component energy plus chassis energy by `t` — the
    /// "demand side" of the conservation identity.
    pub fn component_total(&self, t: SimTime) -> Energy {
        let socs: Energy = (0..self.socs()).map(|s| self.soc_energy(s, t)).sum();
        socs + self.chassis_energy(t)
    }

    /// Sum of every rail energy by `t` — the "supply side" of the
    /// conservation identity.
    pub fn rail_total(&self, t: SimTime) -> Energy {
        (0..self.rails).map(|r| self.rail_energy(r, t)).sum()
    }

    /// Checks conservation at `t`: component-sum energy must equal
    /// rail-sum energy within `rel_tol` relative tolerance. Returns the
    /// observed relative error on failure.
    pub fn verify_conservation(&self, t: SimTime, rel_tol: f64) -> Result<(), f64> {
        conservation(
            self.component_total(t).as_joules(),
            self.rail_total(t).as_joules(),
            rel_tol,
        )
    }

    /// [`Self::advance`] followed by [`Self::verify_conservation`] at `t`,
    /// in one pass: each meter is summed as soon as it is integrated. Once
    /// a meter is integrated to `t` its pending term is exactly `+0.0`, so
    /// the sums (each SoC's components `cpu → memory`, SoCs in slot order,
    /// then chassis; rails in order) and the returned error are bit-equal
    /// to the two-call form.
    ///
    /// The SoCs mostly share one timestamp, the previous tick's, so an
    /// interval is converted to seconds once per run of SoCs that share
    /// its start. The conversion is a pure function of the two instants,
    /// so reusing it leaves every bit as converting per SoC does.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes any meter's previous timestamp.
    pub fn advance_verified(&mut self, t: SimTime, rel_tol: f64) -> Result<(), f64> {
        let mut socs = 0.0;
        let mut interval: Option<(SimTime, f64)> = None;
        for soc in 0..self.socs() {
            let since = self.soc_last_t[soc];
            let dt = match interval {
                Some((start, dt)) if start == since => dt,
                _ => {
                    let dt = t.since(since).as_secs_f64();
                    interval = Some((since, dt));
                    dt
                }
            };
            if dt > 0.0 {
                self.book_soc(soc, dt);
            }
            self.soc_last_t[soc] = t;
            // Energies are never `-0.0`, so this left-to-right sum is
            // bit-equal to `iter().sum()` whatever zero that starts from.
            let [cpu, codec, gpu, dsp, memory] = self.soc_energy[soc];
            socs += cpu + codec + gpu + dsp + memory;
        }
        let supply: f64 = (0..self.rails)
            .map(|rail| {
                self.integrate_rail(rail, t);
                self.rail_energy_j[rail]
            })
            .sum();
        self.integrate_chassis(t);
        conservation(socs + self.chassis_energy_j, supply, rel_tol)
    }
}

/// The conservation verdict: `Err` with the relative error between the
/// demand and supply totals when it exceeds `rel_tol`.
fn conservation(demand: f64, supply: f64, rel_tol: f64) -> Result<(), f64> {
    let scale = demand.abs().max(supply.abs()).max(1e-12);
    let rel = (demand - supply).abs() / scale;
    if rel <= rel_tol {
        Ok(())
    } else {
        Err(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socc_sim::time::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    fn powers(cpu: f64, codec: f64, gpu: f64, dsp: f64, memory: f64) -> ComponentPowers {
        ComponentPowers {
            cpu: Power::watts(cpu),
            codec: Power::watts(codec),
            gpu: Power::watts(gpu),
            dsp: Power::watts(dsp),
            memory: Power::watts(memory),
        }
    }

    #[test]
    fn integrates_piecewise_constant_components() {
        let mut l = EnergyLedger::new(t(0.0), 10, 5, 2);
        l.set_soc_power(t(0.0), 0, powers(2.0, 0.0, 1.0, 0.0, 0.5));
        l.set_soc_power(t(10.0), 0, powers(4.0, 0.0, 0.0, 0.0, 0.5));
        l.advance(t(20.0));
        let e = |c| l.component_energy(0, c, t(20.0)).as_joules();
        assert!((e(Component::Cpu) - (2.0 * 10.0 + 4.0 * 10.0)).abs() < 1e-9);
        assert!((e(Component::Gpu) - 10.0).abs() < 1e-9);
        assert!((e(Component::Memory) - 10.0).abs() < 1e-9);
        assert!((l.soc_energy(0, t(20.0)).as_joules() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn reads_include_pending_interval_without_mutation() {
        let mut l = EnergyLedger::new(t(0.0), 5, 5, 1);
        l.set_soc_power(t(0.0), 2, powers(3.0, 0.0, 0.0, 0.0, 0.0));
        // No advance() — the read itself must extrapolate.
        assert!((l.soc_energy(2, t(7.0)).as_joules() - 21.0).abs() < 1e-9);
        assert!((l.rail_energy(0, t(7.0)).as_joules() - 21.0).abs() < 1e-9);
        // Reading in the past of the meter saturates to booked energy.
        l.advance(t(10.0));
        assert!((l.soc_energy(2, t(7.0)).as_joules() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn rails_stripe_boards_contiguously() {
        let l = EnergyLedger::new(t(0.0), 60, 5, 2);
        assert_eq!(l.boards(), 12);
        assert_eq!(l.rail_of_board(0), 0);
        assert_eq!(l.rail_of_board(5), 0);
        assert_eq!(l.rail_of_board(6), 1);
        assert_eq!(l.rail_of_board(11), 1);
        assert_eq!(l.rail_of_soc(29), 0);
        assert_eq!(l.rail_of_soc(30), 1);
    }

    #[test]
    fn rail_rollup_tracks_soc_and_chassis_power() {
        let mut l = EnergyLedger::new(t(0.0), 10, 5, 2);
        // SoC 0 on rail 0, SoC 7 on rail 1, chassis split across both.
        l.set_soc_power(t(0.0), 0, powers(2.0, 0.0, 0.0, 0.0, 0.0));
        l.set_soc_power(t(0.0), 7, powers(0.0, 0.0, 4.0, 0.0, 0.0));
        l.set_chassis_power(t(0.0), Power::watts(6.0));
        l.advance(t(10.0));
        assert!((l.rail_energy(0, t(10.0)).as_joules() - (2.0 + 3.0) * 10.0).abs() < 1e-9);
        assert!((l.rail_energy(1, t(10.0)).as_joules() - (4.0 + 3.0) * 10.0).abs() < 1e-9);
        l.verify_conservation(t(10.0), 1e-9).expect("conserved");
    }

    #[test]
    fn conservation_holds_under_churn() {
        let mut l = EnergyLedger::new(t(0.0), 20, 5, 2);
        let mut x = 88172645463325252u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut now = 0.0;
        for _ in 0..500 {
            now += rnd() * 3.0;
            let soc = (rnd() * 20.0) as usize % 20;
            l.set_soc_power(
                t(now),
                soc,
                powers(rnd() * 5.0, rnd(), rnd() * 2.0, rnd(), rnd()),
            );
            if rnd() < 0.2 {
                l.set_chassis_power(t(now), Power::watts(rnd() * 50.0));
            }
        }
        l.advance(t(now + 1.0));
        l.verify_conservation(t(now + 1.0), 1e-6)
            .expect("conservation under churn");
    }

    #[test]
    fn ledger_is_monotone_in_time() {
        let mut l = EnergyLedger::new(t(0.0), 5, 5, 1);
        l.set_soc_power(t(0.0), 1, powers(1.0, 1.0, 1.0, 1.0, 1.0));
        l.set_chassis_power(t(0.0), Power::watts(2.0));
        let mut prev = 0.0;
        for k in 1..50 {
            let now = t(k as f64 * 0.37);
            let e = l.rail_total(now).as_joules();
            assert!(e >= prev, "rail energy regressed at step {k}");
            prev = e;
            if k % 7 == 0 {
                l.set_soc_power(now, 1, powers(0.1 * k as f64, 0.0, 0.0, 0.0, 0.0));
            }
        }
    }

    #[test]
    fn conservation_detects_imbalance() {
        let mut l = EnergyLedger::new(t(0.0), 5, 5, 1);
        l.set_soc_power(t(0.0), 0, powers(5.0, 0.0, 0.0, 0.0, 0.0));
        l.advance(t(10.0));
        // Corrupt the supply side directly.
        l.rail_energy_j[0] += 1.0;
        let err = l.verify_conservation(t(10.0), 1e-6).unwrap_err();
        assert!(err > 1e-3);
    }

    #[test]
    fn partial_last_board_still_conserves() {
        let mut l = EnergyLedger::new(t(0.0), 7, 5, 2);
        assert_eq!(l.boards(), 2);
        l.set_soc_power(t(0.0), 6, powers(1.0, 0.0, 0.0, 0.0, 0.0));
        l.set_chassis_power(t(0.0), Power::watts(3.0));
        l.advance(t(4.0));
        assert!((l.board_energy(1, t(4.0)).as_joules() - 4.0).abs() < 1e-9);
        l.verify_conservation(t(4.0), 1e-9).expect("conserved");
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn one_pass_tick_cannot_go_backwards() {
        let mut l = EnergyLedger::new(t(0.0), 5, 5, 1);
        l.set_soc_power(t(2.0), 0, powers(1.0, 0.0, 0.0, 0.0, 0.0));
        let _ = l.advance_verified(t(1.0), 1e-9);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_power_panics() {
        let mut l = EnergyLedger::new(t(0.0), 5, 5, 1);
        l.set_soc_power(t(0.0), 0, powers(-1.0, 0.0, 0.0, 0.0, 0.0));
    }
}
