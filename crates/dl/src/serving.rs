//! Load-dependent serving behaviour: duty-cycled power and dynamic batching.
//!
//! Fig. 12 measures energy efficiency *under offered load* rather than at
//! full blast. For a batching GPU engine the served batch size becomes the
//! fixed point of `b = λ · t(b)` (requests that arrive while a batch runs
//! form the next batch); below saturation the accelerator duty-cycles.
//! Sequential engines simply scale busy time with load.

use socc_sim::units::Power;

use crate::engine::Engine;
use crate::tensor::DType;
use crate::zoo::ModelId;

/// A single engine unit serving one model at one precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingUnit {
    /// The engine.
    pub(crate) engine: Engine,
    /// The model served.
    pub(crate) model: ModelId,
    /// Serving precision.
    pub(crate) dtype: DType,
}

/// What a unit does under a given offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Load actually served, samples/s (≤ offered; capped at capacity).
    pub(crate) served_fps: f64,
    /// Steady-state batch size in use.
    pub(crate) batch: f64,
    /// Fraction of time the engine is busy.
    pub(crate) duty: f64,
    /// Workload power plus the host-side base power of keeping the unit
    /// serving (an awake SoC, a host process feeding a GPU).
    pub total_power: Power,
}

impl LoadReport {
    /// Samples per joule at this operating point.
    pub fn samples_per_joule(&self) -> f64 {
        let w = self.total_power.as_watts();
        if w <= 0.0 {
            0.0
        } else {
            self.served_fps / w
        }
    }
}

impl ServingUnit {
    /// Creates a serving unit.
    pub fn new(engine: Engine, model: ModelId, dtype: DType) -> Self {
        Self {
            engine,
            model,
            dtype,
        }
    }

    /// Base power of hosting this unit while it serves: the awake SoC's
    /// floor for mobile engines, the feeding host share for server parts.
    pub(crate) fn host_base_power(&self) -> Power {
        Power::watts(match self.engine {
            Engine::TfLiteCpu | Engine::TfLiteGpu | Engine::QnnDsp => 2.0,
            Engine::TvmIntel => 4.0,
            Engine::TensorRtA40 | Engine::TensorRtA100 => 12.0,
        })
    }

    /// Maximum sustainable throughput of this unit in samples/s.
    pub fn capacity_fps(&self) -> Option<f64> {
        self.engine.max_throughput(self.model, self.dtype)
    }

    /// Steady-state behaviour at an offered load, or `None` if the engine
    /// cannot run the model/precision.
    pub fn at_load(&self, offered_fps: f64) -> Option<LoadReport> {
        let capacity = self.capacity_fps()?;
        let served = offered_fps.clamp(0.0, capacity);
        let t1 = self
            .engine
            .latency(self.model, self.dtype, 1)?
            .as_secs_f64();

        let (batch, duty) = if !self.engine.batches() {
            // Sequential engine: one-at-a-time, busy fraction = λ·t1.
            (1.0, (served * t1).min(1.0))
        } else if served * t1 < 1.0 {
            // Below the always-busy threshold: batch 1, duty cycling.
            (1.0, served * t1)
        } else {
            // Saturated instrument: find b = λ · t(b) by fixed-point
            // iteration (contraction: t is concave in b).
            let mut b: f64 = 1.0;
            for _ in 0..64 {
                let t = self.latency_at_fractional_batch(b)?;
                b = (served * t).clamp(1.0, 64.0);
            }
            (b, 1.0)
        };

        let util = served / capacity;
        let dynamic = self.engine.full_load_power() - self.engine.activation_power();
        let workload = if served > 0.0 {
            self.engine.activation_power() * duty + dynamic * util
        } else {
            Power::ZERO
        };
        Some(LoadReport {
            served_fps: served,
            batch,
            duty,
            total_power: self.host_base_power() + workload,
        })
    }

    /// TensorRT latency interpolated at a fractional batch size (seconds).
    fn latency_at_fractional_batch(&self, batch: f64) -> Option<f64> {
        let lo = batch.floor().max(1.0) as usize;
        let hi = batch.ceil().max(1.0) as usize;
        let t_lo = self
            .engine
            .latency(self.model, self.dtype, lo)?
            .as_secs_f64();
        if lo == hi {
            return Some(t_lo);
        }
        let t_hi = self
            .engine
            .latency(self.model, self.dtype, hi)?
            .as_secs_f64();
        Some(t_lo + (t_hi - t_lo) * (batch - lo as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100_r50() -> ServingUnit {
        ServingUnit::new(Engine::TensorRtA100, ModelId::ResNet50, DType::Fp32)
    }

    fn soc_gpu_r50() -> ServingUnit {
        ServingUnit::new(Engine::TfLiteGpu, ModelId::ResNet50, DType::Fp32)
    }

    #[test]
    fn tiny_load_duty_cycles_the_gpu() {
        let r = a100_r50().at_load(5.0).unwrap();
        assert_eq!(r.served_fps, 5.0);
        assert!(r.duty < 0.1, "duty {}", r.duty);
        assert!((r.batch - 1.0).abs() < 1e-9);
        // Host base dominates: ~12–15 W for 5 fps.
        assert!(r.total_power.as_watts() < 20.0);
    }

    #[test]
    fn saturating_load_grows_batches() {
        let unit = a100_r50();
        let low = unit.at_load(100.0).unwrap();
        let high = unit.at_load(2000.0).unwrap();
        assert!(high.batch > low.batch);
        assert!(high.batch > 4.0, "batch {}", high.batch);
        assert_eq!(high.duty, 1.0);
    }

    #[test]
    fn load_beyond_capacity_is_capped() {
        let unit = a100_r50();
        let cap = unit.capacity_fps().unwrap();
        let r = unit.at_load(cap * 10.0).unwrap();
        assert!((r.served_fps - cap).abs() / cap < 1e-6);
    }

    #[test]
    fn soc_beats_a100_at_light_load() {
        // Fig. 12: "5.71× more energy-efficient than the NVIDIA A100 GPU on
        // average with only five samples per second".
        let soc = soc_gpu_r50().at_load(5.0).unwrap();
        let a100 = a100_r50().at_load(5.0).unwrap();
        let ratio = soc.samples_per_joule() / a100.samples_per_joule();
        assert!((4.0..=8.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn a100_wins_at_full_load() {
        // Fig. 12's crossover: at saturation the A100's batching wins.
        let soc = soc_gpu_r50();
        let a100 = a100_r50();
        let soc_full = soc.at_load(soc.capacity_fps().unwrap()).unwrap();
        let a100_full = a100.at_load(a100.capacity_fps().unwrap()).unwrap();
        assert!(a100_full.samples_per_joule() > soc_full.samples_per_joule());
    }

    #[test]
    fn efficiency_monotone_in_load_for_gpu() {
        let unit = a100_r50();
        let mut prev = 0.0;
        for load in [5.0, 50.0, 500.0, 2000.0, 4000.0] {
            let eff = unit.at_load(load).unwrap().samples_per_joule();
            assert!(eff > prev, "load {load}: {eff} !> {prev}");
            prev = eff;
        }
    }

    #[test]
    fn zero_load_draws_only_host_base() {
        let unit = soc_gpu_r50();
        let r = unit.at_load(0.0).unwrap();
        assert_eq!(r.total_power, unit.host_base_power());
        assert_eq!(r.samples_per_joule(), 0.0);
    }

    #[test]
    fn unsupported_combo_is_none() {
        let unit = ServingUnit::new(Engine::QnnDsp, ModelId::BertBase, DType::Int8);
        assert!(unit.at_load(1.0).is_none());
    }
}
