//! Equivalence properties of the one-pass clock tick.
//!
//! Each fast path of `Orchestrator::advance_to` is checked against the
//! form it replaced, bit for bit:
//!
//! - `EnergyLedger::advance_verified` against `advance` followed by
//!   `verify_conservation` on a twin ledger;
//! - `HeartbeatMonitor`, which records a sweep as one timestamp, against
//!   an eager reference that beats every unmuted SoC at each sweep;
//! - `ThermalBank` against one `ThermalNode` stepped per slot.
//!
//! CI runs these at 2,000 cases each.

use proptest::prelude::*;
use socc_cluster::detector::HeartbeatMonitor;
use socc_cluster::faults::PSU_RAILS;
use socc_hw::calib::SOCS_PER_PCB;
use socc_hw::ledger::{Component, ComponentPowers, EnergyLedger};
use socc_hw::thermal::{ThermalBank, ThermalNode};
use socc_sim::time::{SimDuration, SimTime};
use socc_sim::units::Power;

fn powers(w: &(f64, f64, f64, f64, f64)) -> ComponentPowers {
    ComponentPowers {
        cpu: Power::watts(w.0),
        codec: Power::watts(w.1),
        gpu: Power::watts(w.2),
        dsp: Power::watts(w.3),
        memory: Power::watts(w.4),
    }
}

/// Every energy read of the two ledgers at `t`, bit for bit.
fn assert_reads_equal(a: &EnergyLedger, b: &EnergyLedger, t: SimTime) {
    let bits = |e: socc_sim::units::Energy| e.as_joules().to_bits();
    for soc in 0..a.socs() {
        for c in Component::ALL {
            assert_eq!(
                bits(a.component_energy(soc, c, t)),
                bits(b.component_energy(soc, c, t)),
                "SoC {soc} {} at {t}",
                c.name()
            );
        }
        assert_eq!(bits(a.soc_energy(soc, t)), bits(b.soc_energy(soc, t)));
    }
    for board in 0..a.boards() {
        assert_eq!(
            bits(a.board_energy(board, t)),
            bits(b.board_energy(board, t))
        );
    }
    for rail in 0..a.rails() {
        assert_eq!(bits(a.rail_energy(rail, t)), bits(b.rail_energy(rail, t)));
    }
    assert_eq!(bits(a.chassis_energy(t)), bits(b.chassis_energy(t)));
    assert_eq!(bits(a.component_total(t)), bits(b.component_total(t)));
    assert_eq!(bits(a.rail_total(t)), bits(b.rail_total(t)));
}

/// The heartbeat monitor as it was before sweeps became one timestamp:
/// every unmuted SoC beats at each sweep, and every SoC is scanned.
struct EagerMonitor {
    window: SimDuration,
    last_seen: Vec<SimTime>,
    muted: Vec<bool>,
    reported: Vec<bool>,
}

impl EagerMonitor {
    fn new(socs: usize, window: SimDuration) -> Self {
        Self {
            window,
            last_seen: vec![SimTime::ZERO; socs],
            muted: vec![false; socs],
            reported: vec![false; socs],
        }
    }

    fn sweep(&mut self, now: SimTime) {
        for (t, &muted) in self.last_seen.iter_mut().zip(&self.muted) {
            if !muted {
                *t = (*t).max(now);
            }
        }
    }

    fn overdue(&self, now: SimTime) -> Vec<usize> {
        (0..self.last_seen.len())
            .filter(|&i| !self.reported[i] && now.saturating_since(self.last_seen[i]) > self.window)
            .collect()
    }
}

proptest! {
    /// Under random SoC and chassis power changes at unaligned times, the
    /// one-pass tick returns the same verdict as `advance` then
    /// `verify_conservation` on a twin (a negative tolerance forces
    /// `Err(rel)`, so `rel`'s bits are compared), and every energy read of
    /// the two ledgers stays bit-equal.
    #[test]
    fn one_pass_tick_equals_advance_then_verify(
        steps in prop::collection::vec(
            (
                0usize..17,                       // soc
                (0.0f64..8.0, 0.0f64..3.0, 0.0f64..4.0, 0.0f64..2.0, 0.0f64..1.5),
                0u64..2_000_000_000,              // dt, ns (0 = same instant)
                prop::option::of(0.0f64..60.0),   // chassis repricing
                0u8..3,                           // 0: tick with a negative tolerance
                -1.0f64..1e-6,                    // tolerance of the other ticks
            ),
            1..80
        )
    ) {
        let mut a = EnergyLedger::new(SimTime::ZERO, 17, SOCS_PER_PCB, PSU_RAILS);
        let mut b = a.clone();
        let mut now = SimTime::ZERO;
        for (soc, w, dt, chassis, tick, tol) in &steps {
            now += SimDuration::from_nanos(dt.saturating_sub(500_000_000));
            for l in [&mut a, &mut b] {
                l.set_soc_power(now, *soc, powers(w));
                if let Some(c) = chassis {
                    l.set_chassis_power(now, Power::watts(*c));
                }
            }
            if *tick < 2 {
                let tol = if *tick == 0 { -1.0 } else { *tol };
                let fused = a.advance_verified(now, tol);
                b.advance(now);
                let split = b.verify_conservation(now, tol);
                prop_assert_eq!(
                    fused.map_err(f64::to_bits),
                    split.map_err(f64::to_bits),
                    "verdicts differ at {}", now
                );
            }
            assert_reads_equal(&a, &b, now);
            assert_reads_equal(&a, &b, now + SimDuration::from_nanos(*dt / 3 + 1));
        }
    }

    /// The monitor lists the same overdue SoCs as the eager reference
    /// after every sweep, under random sweep, mute, confirm and clear
    /// sequences with many operations at one instant. Seventy SoCs span
    /// two words of the muted set.
    #[test]
    fn lazy_monitor_equals_eager_reference(
        window_ms in 1u64..5_000,
        ops in prop::collection::vec(
            (
                0u8..6,          // 0-1 sweep, 2 mute, 3 confirm, 4 clear, 5 wait
                0usize..70,      // soc
                0u64..6_000,     // dt, ms (half of all draws are 0)
                0u8..2,          // confirm what a sweep reports, as the engine does
            ),
            1..200
        )
    ) {
        let window = SimDuration::from_millis(window_ms);
        let mut lazy = HeartbeatMonitor::new(70, window);
        let mut eager = EagerMonitor::new(70, window);
        let mut now = SimTime::ZERO;
        let mut out = Vec::new();
        for &(op, soc, dt_ms, confirm_reported) in &ops {
            now += SimDuration::from_millis(dt_ms.saturating_sub(3_000));
            match op {
                0 | 1 => {
                    lazy.sweep(now);
                    eager.sweep(now);
                    lazy.overdue(now, &mut out);
                    prop_assert_eq!(&out, &eager.overdue(now), "overdue at {}", now);
                    if confirm_reported == 1 {
                        for &s in &out {
                            lazy.confirm(s);
                            eager.reported[s] = true;
                        }
                    }
                }
                2 => {
                    lazy.mute(soc);
                    eager.muted[soc] = true;
                }
                3 => {
                    lazy.confirm(soc);
                    eager.reported[soc] = true;
                }
                4 => {
                    lazy.clear(soc, now);
                    eager.reported[soc] = false;
                    eager.last_seen[soc] = now;
                    eager.muted[soc] = false;
                }
                _ => {}
            }
            for s in 0..70 {
                prop_assert_eq!(lazy.is_muted(s), eager.muted[s]);
            }
        }
    }

    /// The bank's temperatures and its hottest value (four partial maxima)
    /// equal those of per-node `ThermalNode::step`, bit for bit, under random powers, fan duties (clamped outside `[0, 1]`)
    /// and steps of any length, zero included.
    #[test]
    fn thermal_bank_equals_per_node_steps(
        model in (15.0f64..40.0, 2.0f64..10.0, 0.5f64..3.0, 5.0f64..40.0),
        steps in prop::collection::vec(
            (
                0u64..20_000,                                   // dt, ms (a quarter are 0)
                -0.2f64..1.2,                                   // fan duty
                prop::collection::vec(0.0f64..12.0, 9..10),     // powers
            ),
            1..40
        )
    ) {
        let (ambient, r_still, r_forced, capacity) = model;
        let node = ThermalNode::new(ambient, r_still, r_forced, capacity, 95.0);
        let mut bank = ThermalBank::new(node.clone(), 9);
        let mut nodes = vec![node; 9];
        for (dt_ms, duty, watts) in &steps {
            let dt = SimDuration::from_millis(dt_ms.saturating_sub(5_000));
            let power: Vec<Power> = watts.iter().map(|&w| Power::watts(w)).collect();
            let hottest = bank.step(dt, &power, *duty);
            for (n, &p) in nodes.iter_mut().zip(&power) {
                n.step(dt, p, *duty);
            }
            let expected: Vec<u64> = nodes.iter().map(|n| n.temperature_c().to_bits()).collect();
            let temps: Vec<u64> = bank.temperatures_c().iter().map(|t| t.to_bits()).collect();
            prop_assert_eq!(temps, expected);
            let max = nodes
                .iter()
                .map(ThermalNode::temperature_c)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(hottest.to_bits(), max.to_bits());
            prop_assert_eq!(
                bank.any_throttling(),
                nodes.iter().any(ThermalNode::is_throttling)
            );
        }
    }
}
