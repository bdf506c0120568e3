//! Request-level serving analysis: queueing delay and tail latency.
//!
//! §5.1 frames latency as the user-visible metric; under real traffic the
//! *queueing* on a busy engine dominates the tail. Engines serve one
//! request at a time with an (approximately) deterministic service time,
//! so a single engine under Poisson arrivals is an **M/D/1 queue** — and
//! M/D/1 has an *exact* waiting-time distribution (Erlang 1909 /
//! Crommelin 1932). This module therefore offers two paths:
//!
//! - [`Md1`], the **analytic fast path**: closed-form waiting-time CDF,
//!   quantiles by bisection over that CDF, and Pollaczek–Khinchine means.
//!   Evaluating one operating point costs a handful of floating-point
//!   series terms — no events, no allocation — which is what lets the
//!   fig. 11/12 sweeps and SLO bisections run thousands of what-if points
//!   per second.
//! - [`simulate_tail`], the **event-driven fallback**: a discrete-event
//!   FIFO run over an engine's service times. It remains the ground truth
//!   the analytic path is cross-checked against (`BENCH_serve.json`
//!   carries the measured drift), and the only path for disciplines the
//!   closed form does not cover (batched engines live in
//!   [`crate::batcher`]). The simulator uses a specialized two-event loop
//!   (next-arrival scalar + departure clock) and a reusable [`SimArena`],
//!   so bisection-heavy sweeps recycle the histogram and queue instead of
//!   re-allocating per iteration.
//!
//! The alternating Crommelin series is evaluated with compensated
//! summation and a magnitude guard: when cancellation would eat the
//! answer (deep tails at high utilization), the analytic path reports
//! `None` and callers fall back to simulation, so the fast path is never
//! silently wrong.

use socc_sim::metrics::LogHistogram;
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};

use crate::engine::Engine;
use crate::tensor::DType;
use crate::zoo::ModelId;

/// Tail-latency report of a serving run (simulated or analytic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailReport {
    /// Requests completed. Zero for the analytic path, which describes the
    /// steady state rather than a finite run.
    pub(crate) completed: u64,
    /// Mean end-to-end latency in ms.
    pub mean_ms: f64,
    /// Median latency in ms.
    pub(crate) p50_ms: f64,
    /// 95th percentile in ms.
    pub(crate) p95_ms: f64,
    /// 99th percentile in ms.
    pub p99_ms: f64,
    /// Measured server utilization: busy time inside the horizon divided
    /// by the horizon. Unlike the *offered* load `rate × service`, this
    /// saturates at 1.0 when the queue is overloaded. The analytic path
    /// reports the offered ρ, which equals the measured value in steady
    /// state (it only exists for ρ < 1).
    pub utilization: f64,
}

// ---------------------------------------------------------------------------
// Analytic M/D/1 fast path.
// ---------------------------------------------------------------------------

/// Largest |series term| we accept before declaring the alternating sum
/// numerically untrustworthy. f64 carries ~1e16 of relative precision, so
/// terms up to 1e10 leave at least ~1e-6 of absolute CDF accuracy — enough
/// to resolve a p99 threshold with margin.
const SERIES_MAGNITUDE_CAP: f64 = 1e10;

/// Hard ceiling on series length (t/D); beyond this the tail is so deep
/// that the magnitude cap would trip anyway.
const SERIES_MAX_TERMS: usize = 4096;

/// An M/D/1 queue (Poisson arrivals, deterministic service, one server,
/// FIFO) in steady state: the exact model of a single serving engine.
///
/// Construction fails for ρ ≥ 1 (no steady state) and degenerate inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Md1 {
    /// Arrival rate, requests/s.
    rate: f64,
    /// Deterministic service time, seconds.
    service: f64,
}

impl Md1 {
    /// Creates the queue, or `None` when `rate_fps`/`service` are not
    /// strictly positive or the queue is unstable (ρ = rate × service ≥ 1).
    pub fn new(rate_fps: f64, service: SimDuration) -> Option<Self> {
        let s = service.as_secs_f64();
        // NaN rates fail `is_finite`; `s` comes from a `SimDuration` and
        // is always a finite non-negative float.
        if !rate_fps.is_finite() || rate_fps <= 0.0 || s <= 0.0 {
            return None;
        }
        if rate_fps * s >= 1.0 {
            return None;
        }
        Some(Self {
            rate: rate_fps,
            service: s,
        })
    }

    /// Offered (= steady-state) utilization ρ.
    pub fn utilization(&self) -> f64 {
        self.rate * self.service
    }

    /// Mean waiting time (excluding service), seconds — the
    /// Pollaczek–Khinchine formula specialized to deterministic service:
    /// `ρ·s / (2(1−ρ))`.
    pub(crate) fn mean_wait_secs(&self) -> f64 {
        let rho = self.utilization();
        rho * self.service / (2.0 * (1.0 - rho))
    }

    /// Mean sojourn (wait + service) time, seconds.
    pub fn mean_sojourn_secs(&self) -> f64 {
        self.service + self.mean_wait_secs()
    }

    /// Exact FIFO waiting-time CDF `P(W ≤ t)` via the Erlang/Crommelin
    /// series
    ///
    /// `F(t) = (1−ρ) Σ_{k=0}^{⌊t/s⌋} (−x_k)^k e^{x_k} / k!`, `x_k = λ(t−ks)`.
    ///
    /// Returns `None` when the alternating series is too ill-conditioned
    /// to trust (terms above `SERIES_MAGNITUDE_CAP`); callers should fall
    /// back to [`simulate_tail`] in that case.
    pub fn wait_cdf(&self, wait: SimDuration) -> Option<f64> {
        let t = wait.as_secs_f64();
        let (lam, s) = (self.rate, self.service);
        let n = (t / s).floor() as usize;
        if n > SERIES_MAX_TERMS {
            return None;
        }
        // Kahan-compensated alternating sum.
        let mut sum = 0.0f64;
        let mut comp = 0.0f64;
        let mut max_mag = 0.0f64;
        for k in 0..=n {
            // x ≥ 0 for k ≤ ⌊t/s⌋; |term| = x^k e^x / k!, accumulated as
            // Π_{j=1..k}(x/j) · e^x to keep intermediates in range.
            let x = lam * (t - k as f64 * s);
            let mut mag = x.exp();
            for j in 1..=k {
                mag *= x / j as f64;
            }
            max_mag = max_mag.max(mag);
            let term = if k % 2 == 0 { mag } else { -mag };
            let y = term - comp;
            let t_new = sum + y;
            comp = (t_new - sum) - y;
            sum = t_new;
        }
        if max_mag > SERIES_MAGNITUDE_CAP {
            return None;
        }
        Some(((1.0 - self.utilization()) * sum).clamp(0.0, 1.0))
    }

    /// Sojourn-time (wait + service) quantile for `q` in `[0, 1)`, found by
    /// bisection over the exact CDF. `None` when the series is unstable at
    /// the required depth (deep tails at high ρ — fall back to simulation).
    pub fn sojourn_quantile(&self, q: f64) -> Option<SimDuration> {
        let q = q.clamp(0.0, 1.0);
        // P(W = 0) = 1 − ρ: below that mass the request never queues.
        if q <= 1.0 - self.utilization() {
            return Some(SimDuration::from_secs_f64(self.service));
        }
        // Expand an upper bracket, then bisect. Series instability deepens
        // with t (bigger terms, more of them), so a probe that returns
        // `None` marks an upper *frontier* rather than failing the whole
        // search: the quantile is unresolvable only if it lies beyond the
        // frontier. Probes after a frontier hit bisect between the last
        // stable under-q point and the frontier instead of doubling past
        // it — without this, a bracket overshoot at ρ ≈ 0.85 falls back
        // to simulation for quantiles the series can resolve exactly.
        let mut lo = 0.0f64;
        let mut hi = self.service.max(self.mean_wait_secs());
        let mut frontier = f64::INFINITY;
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 128 || hi - lo < 1e-9 * self.service {
                return None;
            }
            match self.wait_cdf(SimDuration::from_secs_f64(hi)) {
                Some(f) if f >= q => break,
                Some(_) => {
                    lo = hi;
                    hi = if frontier.is_finite() {
                        0.5 * (hi + frontier)
                    } else {
                        2.0 * hi
                    };
                }
                None => {
                    frontier = hi;
                    hi = 0.5 * (lo + hi);
                }
            }
        }
        // Resolve the quantile to a relative width far below the
        // histogram-bucket error of the simulated path.
        let tol = 1e-6 * self.service.max(hi * 1e-3);
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if self.wait_cdf(SimDuration::from_secs_f64(mid))? >= q {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(SimDuration::from_secs_f64(self.service + hi))
    }

    /// The steady-state tail report (mean and p50/p95/p99 sojourn times),
    /// or `None` when the tail is too deep for the series to resolve.
    pub fn tail_report(&self) -> Option<TailReport> {
        Some(TailReport {
            completed: 0,
            mean_ms: self.mean_sojourn_secs() * 1e3,
            p50_ms: self.sojourn_quantile(0.5)?.as_millis_f64(),
            p95_ms: self.sojourn_quantile(0.95)?.as_millis_f64(),
            p99_ms: self.sojourn_quantile(0.99)?.as_millis_f64(),
            utilization: self.utilization(),
        })
    }
}

// ---------------------------------------------------------------------------
// Event-driven simulation fallback.
// ---------------------------------------------------------------------------

/// Reusable scratch state for [`simulate_tail_into`]: the latency histogram
/// and the FIFO arrival queue, recycled across runs so bisection sweeps
/// perform zero steady-state heap allocations.
#[derive(Debug, Clone)]
pub struct SimArena {
    hist: LogHistogram,
    waiting: std::collections::VecDeque<SimTime>,
}

impl Default for SimArena {
    fn default() -> Self {
        Self::new()
    }
}

impl SimArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self {
            hist: LogHistogram::for_latency_ms(),
            waiting: std::collections::VecDeque::new(),
        }
    }

    fn reset(&mut self) {
        self.hist.reset();
        self.waiting.clear();
    }
}

/// Simulates Poisson arrivals at `rate_fps` into a FIFO single-server
/// queue with deterministic `service`, reusing `arena` for all scratch
/// state. Arrivals stop at the horizon; requests already queued then are
/// **drained to completion** so the reported tail is not censored
/// optimistically at high utilization. The reported utilization is
/// measured busy time inside the horizon over the horizon.
///
/// The event loop is specialized to the two event kinds this queue can
/// have — the next-arrival scalar and the departure clock — so there is no
/// event heap and no per-event allocation.
pub fn simulate_tail_into(
    arena: &mut SimArena,
    service: SimDuration,
    rate_fps: f64,
    horizon: SimDuration,
    rng: &mut SimRng,
) -> TailReport {
    arena.reset();
    let end = SimTime::ZERO + horizon;
    let mut next_arrival = Some(SimTime::from_secs_f64(rng.exponential(rate_fps)));
    if next_arrival.is_some_and(|t| t > end) {
        next_arrival = None;
    }
    let mut departure: Option<SimTime> = None;
    let mut busy_in_horizon = SimDuration::ZERO;

    loop {
        match (next_arrival, departure) {
            // Next event is a departure (ties go to the departure: the
            // served request leaves before the new one is enqueued, which
            // matches FIFO accounting either way).
            (arrival, Some(dep)) if arrival.is_none_or(|a| dep <= a) => {
                let arrived = arena
                    .waiting
                    .pop_front()
                    .expect("departure without arrival");
                arena.hist.record(dep.since(arrived).as_millis_f64());
                // The service interval that just finished, clipped to the
                // horizon (service started at dep − service; a departure is
                // always at least one service time after t = 0).
                let started = dep - service;
                busy_in_horizon += dep.min(end).saturating_since(started.min(end));
                departure = (!arena.waiting.is_empty()).then(|| dep + service);
            }
            (Some(arr), _) => {
                arena.waiting.push_back(arr);
                if departure.is_none() {
                    departure = Some(arr + service);
                }
                let next = arr + SimDuration::from_secs_f64(rng.exponential(rate_fps));
                next_arrival = (next <= end).then_some(next);
            }
            // No arrivals left and the queue is drained: done.
            (None, None) => break,
            // `(None, Some(_))` always satisfies the first arm's guard.
            (None, Some(_)) => unreachable!(),
        }
    }

    TailReport {
        completed: arena.hist.count(),
        mean_ms: arena.hist.mean(),
        p50_ms: arena.hist.quantile(0.5).unwrap_or(0.0),
        p95_ms: arena.hist.quantile(0.95).unwrap_or(0.0),
        p99_ms: arena.hist.quantile(0.99).unwrap_or(0.0),
        utilization: if horizon.is_zero() {
            0.0
        } else {
            busy_in_horizon.as_secs_f64() / horizon.as_secs_f64()
        },
    }
}

/// Simulates Poisson arrivals at `rate_fps` into a FIFO single-engine
/// server for `horizon`, returning the latency tail, or `None` if the
/// engine cannot run the model/precision. Convenience wrapper over
/// [`simulate_tail_into`] with a one-shot arena.
pub fn simulate_tail(
    engine: Engine,
    model: ModelId,
    dtype: DType,
    rate_fps: f64,
    horizon: SimDuration,
    rng: &mut SimRng,
) -> Option<TailReport> {
    let service = engine.latency(model, dtype, 1)?;
    let mut arena = SimArena::new();
    Some(simulate_tail_into(
        &mut arena, service, rate_fps, horizon, rng,
    ))
}

// ---------------------------------------------------------------------------
// SLO-saturating rate search.
// ---------------------------------------------------------------------------

/// Relative bisection tolerance (fraction of the engine's raw capacity)
/// for SLO-rate searches. Documented in DESIGN.md; `BENCH_serve.json`
/// tracks the analytic-vs-simulation drift this induces.
pub const SLO_RATE_REL_TOL: f64 = 1e-3;

/// Analytic SLO search: the largest λ whose exact M/D/1 p99 sojourn stays
/// within `slo`. `None` when the series cannot be evaluated at the
/// required depth (fall back to simulation).
fn analytic_max_rate(service: SimDuration, slo: SimDuration) -> Option<f64> {
    let capacity = 1.0 / service.as_secs_f64();
    let target_wait = slo - service; // caller guarantees slo ≥ service
    let meets = |rate: f64| -> Option<bool> {
        match Md1::new(rate, service) {
            // ρ ≥ 1 has no steady state: the p99 is unbounded.
            None => Some(false),
            Some(q) => Some(q.wait_cdf(target_wait)? >= 0.99),
        }
    };
    let (mut lo, mut hi) = (0.0f64, capacity);
    while hi - lo > SLO_RATE_REL_TOL * capacity {
        let mid = 0.5 * (lo + hi);
        if meets(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Largest Poisson arrival rate (fps) at which the engine's p99 stays
/// within `slo`. Returns 0.0 when even an idle engine misses the SLO
/// (service time > SLO), `None` when the engine can't run the model.
///
/// The search runs on the analytic M/D/1 fast path (exact p99, bisected to
/// [`SLO_RATE_REL_TOL`] of capacity); when the closed form cannot resolve
/// the tail it falls back to bisection over event-driven simulation runs
/// with common-random-number seeding (each candidate rate replays the
/// identical arrival stream, so the comparison against the SLO is not
/// confounded by sampling noise) and the same tolerance-driven stop.
pub fn max_rate_within_slo(
    engine: Engine,
    model: ModelId,
    dtype: DType,
    slo: SimDuration,
    seed: u64,
) -> Option<f64> {
    let service = engine.latency(model, dtype, 1)?;
    if service > slo {
        return Some(0.0);
    }
    if let Some(rate) = analytic_max_rate(service, slo) {
        return Some(rate);
    }
    Some(simulated_max_rate(service, slo, seed))
}

/// Simulation-only SLO search (the pre-analytic path, retained as the
/// fallback and as the `BENCH_serve.json` baseline): tolerance-driven
/// bisection over [`simulate_tail_into`] runs with CRN seeding and a
/// reused arena.
pub fn simulated_max_rate(service: SimDuration, slo: SimDuration, seed: u64) -> f64 {
    if service > slo {
        return 0.0;
    }
    let capacity = 1.0 / service.as_secs_f64();
    let horizon = SimDuration::from_secs_f64((2000.0 / capacity).clamp(60.0, 3600.0));
    let mut arena = SimArena::new();
    let slo_ms = slo.as_millis_f64();
    let (mut lo, mut hi) = (0.0f64, capacity);
    // The tolerance, not an iteration count, decides when to stop; the
    // iteration cap is only a backstop against degenerate inputs.
    let mut iterations = 0;
    while hi - lo > SLO_RATE_REL_TOL * capacity && iterations < 64 {
        let mid = 0.5 * (lo + hi);
        // Common random numbers: every candidate rate sees the same seed,
        // hence (scaled) arrival pattern.
        let mut rng = SimRng::seed(seed);
        let report = simulate_tail_into(&mut arena, service, mid, horizon, &mut rng);
        if report.p99_ms <= slo_ms {
            lo = mid;
        } else {
            hi = mid;
        }
        iterations += 1;
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dsp_r50(rate: f64, seed: u64) -> TailReport {
        let mut rng = SimRng::seed(seed);
        simulate_tail(
            Engine::QnnDsp,
            ModelId::ResNet50,
            DType::Int8,
            rate,
            SimDuration::from_secs(600),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn light_load_latency_is_service_time() {
        let r = dsp_r50(5.0, 1);
        assert!(r.utilization < 0.05);
        // p50 ≈ 8.8 ms service time, little queueing.
        assert!((8.0..=11.0).contains(&r.p50_ms), "p50 {}", r.p50_ms);
        assert!(r.p99_ms < 25.0, "p99 {}", r.p99_ms);
    }

    #[test]
    fn heavy_load_grows_the_tail() {
        let light = dsp_r50(10.0, 2);
        let heavy = dsp_r50(100.0, 2); // utilization ≈ 0.88
        assert!(
            heavy.p99_ms > 4.0 * light.p99_ms,
            "{} vs {}",
            heavy.p99_ms,
            light.p99_ms
        );
        assert!(heavy.mean_ms > light.mean_ms);
    }

    #[test]
    fn mm1_mean_matches_theory_at_moderate_load() {
        // M/D/1 mean wait = ρ·s/(2(1−ρ)); total = s + wait.
        let rate = 60.0;
        let s = 8.8e-3;
        let rho: f64 = rate * s;
        let expected_ms = (s + rho * s / (2.0 * (1.0 - rho))) * 1e3;
        let r = dsp_r50(rate, 3);
        assert!(
            (r.mean_ms - expected_ms).abs() / expected_ms < 0.15,
            "mean {} vs M/D/1 {}",
            r.mean_ms,
            expected_ms
        );
    }

    #[test]
    fn unsupported_combo_is_none() {
        let mut rng = SimRng::seed(4);
        assert!(simulate_tail(
            Engine::QnnDsp,
            ModelId::BertBase,
            DType::Int8,
            1.0,
            SimDuration::from_secs(10),
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn slo_capacity_is_fraction_of_raw_throughput() {
        // With a 30 ms p99 SLO, the DSP serves a sizeable share of its
        // raw 113 fps, but far from all of it (the queueing tail binds).
        let max = max_rate_within_slo(
            Engine::QnnDsp,
            ModelId::ResNet50,
            DType::Int8,
            SimDuration::from_millis(30),
            7,
        )
        .unwrap();
        assert!((20.0..=110.0).contains(&max), "max rate {max}");
    }

    #[test]
    fn impossible_slo_gives_zero() {
        // CPU FP32 ResNet-50 takes 81 ms > a 50 ms SLO.
        let max = max_rate_within_slo(
            Engine::TfLiteCpu,
            ModelId::ResNet50,
            DType::Fp32,
            SimDuration::from_millis(50),
            7,
        )
        .unwrap();
        assert_eq!(max, 0.0);
    }

    // -- analytic fast path ------------------------------------------------

    #[test]
    fn md1_rejects_unstable_and_degenerate() {
        let s = SimDuration::from_millis(10);
        assert!(Md1::new(0.0, s).is_none());
        assert!(Md1::new(-1.0, s).is_none());
        assert!(Md1::new(100.0, s).is_none(), "rho = 1 exactly");
        assert!(Md1::new(150.0, s).is_none(), "rho > 1");
        assert!(Md1::new(50.0, SimDuration::ZERO).is_none());
        assert!(Md1::new(50.0, s).is_some());
    }

    #[test]
    fn md1_cdf_atom_at_zero_is_one_minus_rho() {
        let q = Md1::new(50.0, SimDuration::from_millis(10)).unwrap(); // ρ = 0.5
        let f0 = q.wait_cdf(SimDuration::ZERO).unwrap();
        assert!((f0 - 0.5).abs() < 1e-12, "F(0) = {f0}");
        // CDF is monotone and approaches 1.
        let f1 = q.wait_cdf(SimDuration::from_millis(10)).unwrap();
        let f5 = q.wait_cdf(SimDuration::from_millis(50)).unwrap();
        assert!(f0 < f1 && f1 < f5, "{f0} {f1} {f5}");
        assert!(f5 > 0.99, "F(5s) = {f5}");
    }

    #[test]
    fn md1_mean_is_pollaczek_khinchine() {
        let q = Md1::new(60.0, SimDuration::from_millis_f64(8.8)).unwrap();
        let rho = 60.0 * 8.8e-3;
        let expected = rho * 8.8e-3 / (2.0 * (1.0 - rho));
        assert!((q.mean_wait_secs() - expected).abs() < 1e-12);
    }

    #[test]
    fn md1_quantiles_match_simulation() {
        // The analytic p99 should land inside the simulated histogram's
        // bucket error (~12%) plus sampling noise.
        let service = SimDuration::from_millis_f64(8.8);
        for rate in [30.0, 60.0, 90.0] {
            let analytic = Md1::new(rate, service).unwrap().tail_report().unwrap();
            let mut rng = SimRng::seed(9);
            let mut arena = SimArena::new();
            let sim = simulate_tail_into(
                &mut arena,
                service,
                rate,
                SimDuration::from_secs(3000),
                &mut rng,
            );
            let drift = (analytic.p99_ms - sim.p99_ms).abs() / analytic.p99_ms;
            assert!(
                drift < 0.2,
                "rate {rate}: analytic p99 {} vs sim {} (drift {drift:.3})",
                analytic.p99_ms,
                sim.p99_ms
            );
            let mean_drift = (analytic.mean_ms - sim.mean_ms).abs() / analytic.mean_ms;
            assert!(mean_drift < 0.1, "rate {rate}: mean drift {mean_drift:.3}");
        }
    }

    #[test]
    fn md1_quantile_below_no_wait_mass_is_service_time() {
        let q = Md1::new(10.0, SimDuration::from_millis(10)).unwrap(); // ρ = 0.1
        let p50 = q.sojourn_quantile(0.5).unwrap();
        assert_eq!(p50, SimDuration::from_millis(10));
    }

    #[test]
    fn deep_tail_at_extreme_rho_falls_back() {
        // ρ = 0.999: the p99 sits hundreds of service times out, where the
        // alternating series cancels catastrophically — the guard must
        // refuse rather than return garbage.
        let q = Md1::new(113.49, SimDuration::from_millis_f64(8.8)).unwrap();
        assert!(q.utilization() > 0.998);
        assert!(q.sojourn_quantile(0.99).is_none());
        // max_rate_within_slo still answers (via the simulation fallback
        // if the analytic bisection ever hits the unstable region).
        let max = max_rate_within_slo(
            Engine::QnnDsp,
            ModelId::ResNet50,
            DType::Int8,
            SimDuration::from_millis(500),
            7,
        )
        .unwrap();
        assert!(max > 0.0);
    }

    #[test]
    fn analytic_tail_unsupported_is_none() {
        // An engine that cannot run the model has no service time to queue.
        assert!(Engine::QnnDsp
            .latency(ModelId::BertBase, DType::Int8, 1)
            .is_none());
        // Unstable load is also None (no steady state to report).
        let service = Engine::QnnDsp
            .latency(ModelId::ResNet50, DType::Int8, 1)
            .unwrap();
        assert!(Md1::new(500.0, service).is_none());
    }

    #[test]
    fn analytic_and_simulated_slo_rates_agree() {
        let service = SimDuration::from_millis_f64(8.8);
        let slo = SimDuration::from_millis(30);
        let analytic = analytic_max_rate(service, slo).unwrap();
        let simulated = simulated_max_rate(service, slo, 7);
        let drift = (analytic - simulated).abs() / analytic;
        // The simulated p99 reads from log-bucketed histogram upper bounds
        // (≤ ~12% high), so its SLO rate is biased low; allow 25%.
        assert!(
            drift < 0.25,
            "analytic {analytic:.1} fps vs simulated {simulated:.1} fps"
        );
    }

    // -- horizon censoring / measured utilization --------------------------

    #[test]
    fn horizon_drains_queued_requests() {
        // At ρ ≈ 0.97 a large backlog exists at the horizon; every request
        // that arrived must still be served and counted.
        let service = SimDuration::from_millis(10);
        let mut rng = SimRng::seed(21);
        let mut arena = SimArena::new();
        let r = simulate_tail_into(
            &mut arena,
            service,
            97.0,
            SimDuration::from_secs(120),
            &mut rng,
        );
        // ~97 * 120 arrivals, all completed (none silently dropped).
        assert!(
            (10_000..=13_500).contains(&(r.completed as i64)),
            "completed {}",
            r.completed
        );
        assert!(arena.waiting.is_empty(), "queue fully drained");
    }

    #[test]
    fn utilization_is_measured_not_offered() {
        // Offered ρ = 1.5, but a single server can only ever be 100% busy:
        // the old report said 1.5, the measured value saturates at ~1.0.
        let service = SimDuration::from_millis(10);
        let mut rng = SimRng::seed(22);
        let mut arena = SimArena::new();
        let r = simulate_tail_into(
            &mut arena,
            service,
            150.0,
            SimDuration::from_secs(60),
            &mut rng,
        );
        assert!(r.utilization <= 1.0 + 1e-9, "utilization {}", r.utilization);
        assert!(r.utilization > 0.97, "utilization {}", r.utilization);
    }

    #[test]
    fn arena_reuse_matches_fresh_runs() {
        let service = SimDuration::from_millis_f64(8.8);
        let mut arena = SimArena::new();
        let mut rng = SimRng::seed(5);
        let a = simulate_tail_into(
            &mut arena,
            service,
            50.0,
            SimDuration::from_secs(300),
            &mut rng,
        );
        let mut rng = SimRng::seed(5);
        let b = simulate_tail_into(
            &mut arena,
            service,
            50.0,
            SimDuration::from_secs(300),
            &mut rng,
        );
        assert_eq!(a, b, "recycled arena must not leak state across runs");
    }
}
