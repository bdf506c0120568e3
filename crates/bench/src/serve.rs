//! Deterministic DL-serving microbenchmark: the fig. 11/12 hot path.
//!
//! `serving` sweeps a grid of offered-load points (5%–95% of raw engine
//! capacity) across the four engine/model/precision combos the extension
//! studies use, plus a fig. 11-style SLO sweep per combo (the largest
//! sustainable rate at each of several p99 SLOs) — once on the
//! **analytic** M/D/1 fast path ([`socc_dl::queueing::Md1`], with the
//! event simulation as guarded fallback for tails the series cannot
//! resolve) and once on the **simulation** path alone (the pre-fast-path
//! baseline, same tolerance-driven bisection). `comparison_json` renders
//! both runs plus the headline speedup and the analytic-vs-simulation p99
//! drift as the `BENCH_serve.json` perf-trajectory artifact.
//!
//! Like the network-churn harness (`crate::perf`), a full warm-up pass
//! runs before timing starts so every buffer (the simulation arena's
//! histogram and queue, the per-point result vectors) reaches peak size
//! first — making the `steady_state_allocs == 0` acceptance check on the
//! analytic pass meaningful rather than flaky.

use std::time::Instant;

use socc_dl::queueing::{
    max_rate_within_slo, simulate_tail_into, simulated_max_rate, Md1, SimArena,
};
use socc_dl::{DType, Engine, ModelId};
use socc_sim::rng::SimRng;
use socc_sim::time::SimDuration;

use crate::harness::json_fixed;

/// The serving combos under test (the same set as `extensions::tail`):
/// DSP INT8 for both ResNet depths, the GPU FP32 path, and the Intel
/// edge-server reference.
pub const COMBOS: [(Engine, ModelId, DType); 4] = [
    (Engine::QnnDsp, ModelId::ResNet50, DType::Int8),
    (Engine::QnnDsp, ModelId::ResNet152, DType::Int8),
    (Engine::TfLiteGpu, ModelId::ResNet50, DType::Fp32),
    (Engine::TvmIntel, ModelId::ResNet50, DType::Fp32),
];

/// Documented ceiling on analytic-vs-simulation p99 drift at the grid
/// points where the drift is *measured* (see [`DRIFT_MIN_RELAXATIONS`]):
/// the simulated quantile reads log-histogram bucket upper bounds
/// (≤ ~12.2% relative at 20 buckets/decade) plus residual finite-horizon
/// sampling noise, so individual points may sit up to ~25% from the exact
/// value.
pub(crate) const P99_DRIFT_TOLERANCE: f64 = 0.25;

/// Minimum number of M/D/1 relaxation times (`s/(1−ρ)²`) the simulation
/// horizon must span at a grid point for that point to count toward the
/// p99 drift metric. A fixed wall-clock horizon covers ever fewer
/// independent busy cycles as ρ → 1 — below a few hundred relaxation
/// times the sampled p99 swings ±40% by seed, so there is no converged
/// reference to compare the exact value against (that noise is precisely
/// why the analytic path exists). Both passes still *run* every point at
/// equal work; only the drift metric is restricted to converged points.
pub(crate) const DRIFT_MIN_RELAXATIONS: f64 = 800.0;

/// Parameters of one serving sweep run.
#[derive(Debug, Clone)]
pub(crate) struct ServeOptions {
    /// Load-grid points per engine combo.
    pub(crate) points_per_engine: usize,
    /// Event-simulation horizon per grid point, seconds.
    pub(crate) horizon_secs: f64,
    /// The p99 latency SLOs swept per combo (fig. 11 style: largest
    /// sustainable rate as a function of the SLO), milliseconds.
    pub(crate) slo_grid_ms: Vec<f64>,
    /// Base seed; point `i` of a run simulates with `seed + i`.
    pub(crate) seed: u64,
    /// `true` = analytic fast path (simulation only as guarded fallback);
    /// `false` = simulation everywhere (the pre-fast-path baseline).
    pub(crate) analytic: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            points_per_engine: 40,
            horizon_secs: 400.0,
            slo_grid_ms: vec![15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 75.0, 100.0],
            seed: 42,
            analytic: true,
        }
    }
}

/// Results of one serving sweep run.
#[derive(Debug, Clone)]
pub(crate) struct ServeReport {
    /// `"analytic"` or `"simulation"`.
    pub(crate) mode: &'static str,
    /// Engine combos swept.
    pub(crate) engines: usize,
    /// Tail points evaluated (grid only; SLO searches counted separately).
    pub(crate) grid_points: usize,
    /// SLO-saturating-rate searches performed.
    pub(crate) slo_searches: usize,
    /// Event-simulation horizon per grid point, seconds (provenance for
    /// the drift metric's convergence filter).
    pub(crate) horizon_secs: f64,
    /// Wall-clock seconds of the measured phase (grid + SLO searches).
    pub(crate) elapsed_secs: f64,
    /// Grid points per second (the figure-sweep throughput metric).
    pub(crate) points_per_sec: f64,
    /// Heap allocations observed during the measured phase (0 when the
    /// harness runs under the counting allocator and the hot path is
    /// clean; also 0 when no counting allocator is installed).
    pub(crate) steady_state_allocs: u64,
    /// `steady_state_allocs / grid_points`.
    pub(crate) allocs_per_point: f64,
    /// Grid points where the analytic series refused (deep tail at high
    /// utilization) and the guarded simulation fallback ran instead.
    /// Always 0 in simulation mode.
    pub(crate) analytic_fallbacks: u64,
    /// SLO-saturating rates, fps, combo-major over the SLO grid (entry
    /// `ci * slo_grid_ms.len() + si` is combo `ci` at SLO `si`).
    pub(crate) slo_rates: Vec<f64>,
    /// Per-grid-point p99 sojourn latency, ms (combo-major order), kept so
    /// `comparison_json` can compute cross-mode drift point by point.
    pub(crate) p99_ms: Vec<f64>,
}

struct PassBuffers {
    arena: SimArena,
    p99_ms: Vec<f64>,
    slo_rates: Vec<f64>,
    fallbacks: u64,
}

/// Offered utilization of grid point `p` of `n`: 5%–95% of capacity,
/// inclusive endpoints.
fn grid_frac(p: usize, n: usize) -> f64 {
    if n == 1 {
        0.5
    } else {
        0.05 + 0.90 * p as f64 / (n - 1) as f64
    }
}

/// One full sweep pass over every combo's load grid plus its SLO sweep.
fn run_pass(opts: &ServeOptions, services: &[SimDuration], buf: &mut PassBuffers) {
    buf.p99_ms.clear();
    buf.slo_rates.clear();
    buf.fallbacks = 0;
    let horizon = SimDuration::from_secs_f64(opts.horizon_secs);
    let n = opts.points_per_engine;
    for (ci, &service) in services.iter().enumerate() {
        let capacity = 1.0 / service.as_secs_f64();
        for p in 0..n {
            let frac = grid_frac(p, n);
            let rate = frac * capacity;
            let point_seed = opts.seed + (ci * n + p) as u64;
            let report = if opts.analytic {
                match Md1::new(rate, service).and_then(|q| q.tail_report()) {
                    Some(r) => r,
                    None => {
                        // Guarded fallback: the series could not resolve
                        // this tail; cross-check with the event simulator.
                        buf.fallbacks += 1;
                        let mut rng = SimRng::seed(point_seed);
                        simulate_tail_into(&mut buf.arena, service, rate, horizon, &mut rng)
                    }
                }
            } else {
                let mut rng = SimRng::seed(point_seed);
                simulate_tail_into(&mut buf.arena, service, rate, horizon, &mut rng)
            };
            buf.p99_ms.push(report.p99_ms);
        }
        let (engine, model, dtype) = COMBOS[ci];
        for &slo_ms in &opts.slo_grid_ms {
            let slo = SimDuration::from_millis_f64(slo_ms);
            let slo_rate = if opts.analytic {
                max_rate_within_slo(engine, model, dtype, slo, opts.seed).expect("combo supported")
            } else {
                simulated_max_rate(service, slo, opts.seed)
            };
            buf.slo_rates.push(slo_rate);
        }
    }
}

/// Runs the serving sweep once and reports.
///
/// `alloc_count` is sampled immediately before and after the measured
/// phase; pass a counting-allocator reading (see the `bench` binary) to
/// measure steady-state allocations, or `&|| 0` to skip that measurement.
pub(crate) fn serving(opts: &ServeOptions, alloc_count: &dyn Fn() -> u64) -> ServeReport {
    let services: Vec<SimDuration> = COMBOS
        .iter()
        .map(|&(engine, model, dtype)| engine.latency(model, dtype, 1).expect("combo supported"))
        .collect();
    let grid_points = COMBOS.len() * opts.points_per_engine;
    let slo_searches = COMBOS.len() * opts.slo_grid_ms.len();
    let mut buf = PassBuffers {
        arena: SimArena::new(),
        p99_ms: Vec::with_capacity(grid_points),
        slo_rates: Vec::with_capacity(slo_searches),
        fallbacks: 0,
    };

    // Warm-up: the identical pass, so the arena's histogram/queue and the
    // result vectors reach their peak sizes before the timed phase.
    run_pass(opts, &services, &mut buf);

    let allocs_before = alloc_count();
    let started = Instant::now();
    run_pass(opts, &services, &mut buf);
    let elapsed_secs = started.elapsed().as_secs_f64();
    let steady_state_allocs = alloc_count() - allocs_before;

    ServeReport {
        mode: if opts.analytic {
            "analytic"
        } else {
            "simulation"
        },
        engines: COMBOS.len(),
        grid_points,
        slo_searches,
        horizon_secs: opts.horizon_secs,
        elapsed_secs,
        points_per_sec: grid_points as f64 / elapsed_secs,
        steady_state_allocs,
        allocs_per_point: steady_state_allocs as f64 / grid_points.max(1) as f64,
        analytic_fallbacks: buf.fallbacks,
        slo_rates: buf.slo_rates,
        p99_ms: buf.p99_ms,
    }
}

/// Serve artifacts render floats at four decimals (one more than
/// [`crate::harness::JsonBuilder::f64`]) — pinned by the committed
/// `BENCH_serve.json`.
const PLACES: usize = 4;

impl ServeReport {
    /// Fills one run's section of the artifact (see `comparison_json`).
    fn fill(&self, j: &mut crate::harness::JsonBuilder) {
        let slo_rates = self
            .slo_rates
            .iter()
            .map(|&r| json_fixed(r, PLACES))
            .collect::<Vec<_>>()
            .join(", ");
        j.str("mode", self.mode);
        j.int("engines", self.engines as u64);
        j.int("grid_points", self.grid_points as u64);
        j.int("slo_searches", self.slo_searches as u64);
        j.raw("horizon_secs", &json_fixed(self.horizon_secs, PLACES));
        j.raw("elapsed_secs", &json_fixed(self.elapsed_secs, PLACES));
        j.raw("points_per_sec", &json_fixed(self.points_per_sec, PLACES));
        j.int("steady_state_allocs", self.steady_state_allocs);
        j.raw(
            "allocs_per_point",
            &json_fixed(self.allocs_per_point, PLACES),
        );
        j.int("analytic_fallbacks", self.analytic_fallbacks);
        j.raw("slo_rates_fps", &format!("[{slo_rates}]"));
    }
}

/// Maximum and mean relative p99 drift between two aligned runs, plus the
/// number of grid points compared. Only points where the simulation
/// horizon spans at least [`DRIFT_MIN_RELAXATIONS`] relaxation times
/// contribute — elsewhere the finite-horizon p99 is seed noise, not a
/// reference.
fn p99_drift(analytic: &ServeReport, simulation: &ServeReport) -> (f64, f64, usize) {
    let n = analytic.grid_points / analytic.engines.max(1);
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for (i, (&a, &s)) in analytic
        .p99_ms
        .iter()
        .zip(simulation.p99_ms.iter())
        .enumerate()
    {
        let (engine, model, dtype) = COMBOS[i / n];
        let service = engine
            .latency(model, dtype, 1)
            .expect("combo supported")
            .as_secs_f64();
        let frac = grid_frac(i % n, n);
        let relaxations = simulation.horizon_secs * (1.0 - frac) * (1.0 - frac) / service;
        if relaxations < DRIFT_MIN_RELAXATIONS || !(a > 0.0 && s > 0.0) {
            continue;
        }
        let drift = (a - s).abs() / a.max(s);
        max = max.max(drift);
        sum += drift;
        count += 1;
    }
    (
        max,
        if count == 0 { 0.0 } else { sum / count as f64 },
        count,
    )
}

/// Renders the `BENCH_serve.json` artifact: both runs plus the headline
/// speedup (the acceptance bar is ≥ 5×) and the analytic-vs-simulation
/// drift (must stay within [`P99_DRIFT_TOLERANCE`]). Built on the shared
/// [`crate::harness::JsonBuilder`], which reproduces the retired
/// hand-rolled emitter's byte format exactly (see the byte-identity test).
pub(crate) fn comparison_json(analytic: &ServeReport, simulation: &ServeReport) -> String {
    let speedup = if analytic.elapsed_secs > 0.0 {
        simulation.elapsed_secs / analytic.elapsed_secs
    } else {
        f64::INFINITY
    };
    let (drift_max, drift_mean, drift_points) = p99_drift(analytic, simulation);
    let slo_drift_max = analytic
        .slo_rates
        .iter()
        .zip(simulation.slo_rates.iter())
        .map(|(&a, &s)| {
            if a.max(s) > 0.0 {
                (a - s).abs() / a.max(s)
            } else {
                0.0
            }
        })
        .fold(0.0f64, f64::max);
    let mut j = crate::harness::JsonBuilder::new();
    j.str("benchmark", "dl_serving");
    j.object("analytic", |j| analytic.fill(j));
    j.object("simulation", |j| simulation.fill(j));
    j.raw("speedup", &json_fixed(speedup, PLACES));
    j.raw("p99_drift_max", &json_fixed(drift_max, PLACES));
    j.raw("p99_drift_mean", &json_fixed(drift_mean, PLACES));
    j.int("p99_drift_points", drift_points as u64);
    j.raw("slo_rate_drift_max", &json_fixed(slo_drift_max, PLACES));
    j.finish()
}

/// Declares the DL-serving experiment (`bench --run serve`) and its
/// gates.
pub(crate) fn experiment() -> crate::runner::Experiment {
    use crate::runner::{gate_num, Experiment};
    Experiment {
        name: "serve",
        about: "analytic M/D/1 fast path vs event simulation on the fig. 11/12 grid",
        artifact: "BENCH_serve.json",
        run: |scale, alloc_count| {
            let mut opts = ServeOptions {
                seed: scale.seed,
                ..ServeOptions::default()
            };
            let analytic = serving(&opts, alloc_count);
            opts.analytic = false;
            let simulation = serving(&opts, alloc_count);
            comparison_json(&analytic, &simulation)
        },
        gates: |doc| {
            let mut f = Vec::new();
            if let Some(speedup) = gate_num(doc, "dl_serving", "speedup", &mut f) {
                if speedup < 5.0 {
                    f.push(format!(
                        "analytic path no longer ≥5× faster than simulation (speedup {speedup:.2})"
                    ));
                }
            }
            if let Some(allocs) = gate_num(doc, "analytic", "steady_state_allocs", &mut f) {
                if allocs != 0.0 {
                    f.push(format!(
                        "analytic hot path allocated {allocs:.0} times during the measured phase"
                    ));
                }
            }
            if let Some(drift_max) = gate_num(doc, "dl_serving", "p99_drift_max", &mut f) {
                if drift_max > P99_DRIFT_TOLERANCE {
                    f.push(format!(
                        "analytic-vs-simulation p99 drift {drift_max:.3} exceeds {P99_DRIFT_TOLERANCE}"
                    ));
                }
            }
            f
        },
        baseline_gates: |doc, baseline| {
            let mut f = Vec::new();
            let run_pps = gate_num(doc, "analytic", "points_per_sec", &mut f);
            let base_pps = gate_num(baseline, "analytic", "points_per_sec", &mut f);
            if let (Some(run), Some(base)) = (run_pps, base_pps) {
                if run < 0.7 * base {
                    f.push(format!(
                        "analytic points/sec regressed >30%: {run:.0} vs baseline {base:.0}"
                    ));
                }
            }
            f
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How far the *simulated* SLO rate may exceed the exact analytic one
    /// when the search has enough samples to resolve a p99 at all (see
    /// [`SLO_MIN_TAIL_SAMPLES`]). A well-sampled simulated search is
    /// structurally conservative (its p99 reads bucket upper bounds, so it
    /// rejects rates the exact model accepts) — often dramatically so where
    /// the p99(λ) curve is flat near the SLO, so no useful ceiling exists in
    /// that direction and `slo_rate_drift_max` is reported as informational
    /// only. In the optimistic direction the only slack is bisection
    /// tolerance plus sampling noise, and that is what this bound polices.
    const SLO_RATE_OPTIMISM_TOLERANCE: f64 = 0.05;

    /// Minimum expected number of completions beyond the p99 rank before the
    /// simulated SLO search is held to [`SLO_RATE_OPTIMISM_TOLERANCE`]. The
    /// pre-fast-path search sizes its horizon by engine *capacity*, not the
    /// candidate rate, so a slow engine near a tight SLO may finish only a few
    /// dozen requests per bisection step — its "p99" is then an order
    /// statistic of seed noise and can land on either side of the exact value
    /// (another defect the analytic path removes).
    const SLO_MIN_TAIL_SAMPLES: f64 = 10.0;

    fn small(analytic: bool) -> ServeOptions {
        ServeOptions {
            points_per_engine: 8,
            horizon_secs: 60.0,
            slo_grid_ms: vec![25.0, 50.0],
            seed: 7,
            analytic,
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = serving(&small(true), &|| 0);
        let b = serving(&small(true), &|| 0);
        assert_eq!(a.p99_ms, b.p99_ms);
        assert_eq!(a.slo_rates, b.slo_rates);
        assert_eq!(a.analytic_fallbacks, b.analytic_fallbacks);
    }

    #[test]
    fn analytic_and_simulation_agree_within_tolerance() {
        let a = serving(&small(true), &|| 0);
        let s = serving(&small(false), &|| 0);
        assert_eq!(a.p99_ms.len(), s.p99_ms.len());
        let (drift_max, _, points) = p99_drift(&a, &s);
        assert!(points >= 8, "only {points} converged points compared");
        assert!(
            drift_max <= P99_DRIFT_TOLERANCE,
            "p99 drift {drift_max:.3} exceeds {P99_DRIFT_TOLERANCE}"
        );
        // SLO rates: a *well-sampled* simulated search may be arbitrarily
        // conservative (bucket upper bounds on a flat p99 curve) but never
        // optimistic beyond bisection tolerance + noise vs the exact
        // model. Under-sampled searches (slow engine, capacity-scaled
        // horizon) are seed noise in either direction and are only held to
        // basic sanity.
        let slos = small(true).slo_grid_ms.len();
        for (i, (&ar, &sr)) in a.slo_rates.iter().zip(s.slo_rates.iter()).enumerate() {
            let (engine, model, dtype) = COMBOS[i / slos];
            let service = engine.latency(model, dtype, 1).unwrap().as_secs_f64();
            let capacity = 1.0 / service;
            if ar == 0.0 {
                // Service time alone misses the SLO: both searches must
                // agree that no rate works.
                assert_eq!(sr, 0.0, "entry {i}: sim found rate {sr} where none fits");
                continue;
            }
            assert!(sr >= 0.0 && sr <= capacity, "entry {i}: sim rate {sr}");
            let sim_horizon = (2000.0 / capacity).clamp(60.0, 3600.0);
            if 0.01 * sr * sim_horizon >= SLO_MIN_TAIL_SAMPLES {
                assert!(
                    sr <= ar * (1.0 + SLO_RATE_OPTIMISM_TOLERANCE),
                    "entry {i}: simulated rate {sr:.2} optimistic vs exact {ar:.2}"
                );
            }
        }
    }

    #[test]
    fn simulation_mode_never_falls_back() {
        let s = serving(&small(false), &|| 0);
        assert_eq!(s.analytic_fallbacks, 0);
        assert_eq!(s.mode, "simulation");
        assert_eq!(s.grid_points, COMBOS.len() * 8);
        assert_eq!(s.p99_ms.len(), s.grid_points);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let a = serving(&small(true), &|| 0);
        let s = serving(&small(false), &|| 0);
        let doc = comparison_json(&a, &s);
        assert!(doc.contains("\"benchmark\": \"dl_serving\""));
        assert!(doc.contains("\"speedup\""));
        assert!(doc.contains("\"p99_drift_max\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    /// The retired hand-rolled emitter, kept verbatim as the fixture for
    /// the byte-identity test below (the pattern every JsonBuilder port
    /// in this workspace follows). Delete only together with that test.
    fn handrolled_comparison_json(analytic: &ServeReport, simulation: &ServeReport) -> String {
        fn report_to_json(r: &ServeReport) -> String {
            let slo_rates = r
                .slo_rates
                .iter()
                .map(|&x| json_fixed(x, PLACES))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                concat!(
                    "{{\n",
                    "    \"mode\": \"{}\",\n",
                    "    \"engines\": {},\n",
                    "    \"grid_points\": {},\n",
                    "    \"slo_searches\": {},\n",
                    "    \"horizon_secs\": {},\n",
                    "    \"elapsed_secs\": {},\n",
                    "    \"points_per_sec\": {},\n",
                    "    \"steady_state_allocs\": {},\n",
                    "    \"allocs_per_point\": {},\n",
                    "    \"analytic_fallbacks\": {},\n",
                    "    \"slo_rates_fps\": [{}]\n",
                    "  }}"
                ),
                r.mode,
                r.engines,
                r.grid_points,
                r.slo_searches,
                json_fixed(r.horizon_secs, PLACES),
                json_fixed(r.elapsed_secs, PLACES),
                json_fixed(r.points_per_sec, PLACES),
                r.steady_state_allocs,
                json_fixed(r.allocs_per_point, PLACES),
                r.analytic_fallbacks,
                slo_rates,
            )
        }
        let speedup = if analytic.elapsed_secs > 0.0 {
            simulation.elapsed_secs / analytic.elapsed_secs
        } else {
            f64::INFINITY
        };
        let (drift_max, drift_mean, drift_points) = p99_drift(analytic, simulation);
        let slo_drift_max = analytic
            .slo_rates
            .iter()
            .zip(simulation.slo_rates.iter())
            .map(|(&a, &s)| {
                if a.max(s) > 0.0 {
                    (a - s).abs() / a.max(s)
                } else {
                    0.0
                }
            })
            .fold(0.0f64, f64::max);
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"dl_serving\",\n",
                "  \"analytic\": {},\n",
                "  \"simulation\": {},\n",
                "  \"speedup\": {},\n",
                "  \"p99_drift_max\": {},\n",
                "  \"p99_drift_mean\": {},\n",
                "  \"p99_drift_points\": {},\n",
                "  \"slo_rate_drift_max\": {}\n",
                "}}\n"
            ),
            report_to_json(analytic),
            report_to_json(simulation),
            json_fixed(speedup, PLACES),
            json_fixed(drift_max, PLACES),
            json_fixed(drift_mean, PLACES),
            drift_points,
            json_fixed(slo_drift_max, PLACES),
        )
    }

    #[test]
    fn builder_port_is_byte_identical_to_the_handrolled_emitter() {
        let a = serving(&small(true), &|| 0);
        let s = serving(&small(false), &|| 0);
        assert_eq!(comparison_json(&a, &s), handrolled_comparison_json(&a, &s));
        // Degenerate shapes too: zero elapsed (null speedup) and empty
        // SLO grids (inline empty array).
        let mut zero = a.clone();
        zero.elapsed_secs = 0.0;
        zero.slo_rates.clear();
        let mut sim = s.clone();
        sim.slo_rates.clear();
        assert_eq!(
            comparison_json(&zero, &sim),
            handrolled_comparison_json(&zero, &sim)
        );
    }
}
