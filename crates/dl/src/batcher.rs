//! Dynamic batching for GPU serving: batch-formation delay vs efficiency.
//!
//! §5.1's batch sweep uses fixed batch sizes; real serving systems form
//! batches dynamically — wait up to `max_delay` for up to `max_batch`
//! requests, then launch. This event-driven simulation exposes the knob's
//! two faces: bigger windows raise throughput-per-joule (the Fig. 11b
//! effect) and tail latency (the Fig. 11a effect) at once.

use socc_sim::event::EventQueue;
use socc_sim::metrics::LogHistogram;
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};

use crate::engine::Engine;
use crate::tensor::DType;
use crate::zoo::ModelId;

/// Dynamic batcher parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatcherConfig {
    /// Largest batch to form.
    pub max_batch: usize,
    /// Longest a request may wait for companions.
    pub max_delay: SimDuration,
}

/// Outcome of a batched-serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedReport {
    /// Requests served.
    pub(crate) completed: u64,
    /// Batches launched.
    pub(crate) batches: u64,
    /// Mean formed batch size.
    pub mean_batch: f64,
    /// Median end-to-end latency (ms).
    pub p50_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// Mean samples per joule over the run (duty-cycled power model).
    pub samples_per_joule: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival,
    DelayExpired(u64),
    BatchDone,
}

/// Simulates Poisson arrivals into a dynamic batcher in front of a
/// TensorRT-class engine, or `None` if the engine/model/dtype combination
/// is unsupported or the engine does not batch.
pub fn simulate_batched(
    engine: Engine,
    model: ModelId,
    dtype: DType,
    rate_fps: f64,
    cfg: BatcherConfig,
    horizon: SimDuration,
    rng: &mut SimRng,
) -> Option<BatchedReport> {
    if !engine.batches() || !engine.supports(model, dtype) {
        return None;
    }
    let mut queue = EventQueue::new();
    let mut waiting: Vec<SimTime> = Vec::new();
    let mut oldest_tag: u64 = 0;
    let mut busy = false;
    let mut in_flight: Vec<SimTime> = Vec::new();
    let mut hist = LogHistogram::for_latency_ms();
    let mut batches = 0u64;
    let mut batch_total = 0u64;
    let mut busy_time = SimDuration::ZERO;
    let mut util_weighted = 0.0f64;
    let end = SimTime::ZERO + horizon;

    queue.schedule(
        SimTime::from_secs_f64(rng.exponential(rate_fps)),
        Ev::Arrival,
    );
    while let Some((now, ev)) = queue.pop() {
        if now > end {
            break;
        }
        let mut maybe_launch = |queue: &mut EventQueue<Ev>,
                                waiting: &mut Vec<SimTime>,
                                in_flight: &mut Vec<SimTime>,
                                busy: &mut bool,
                                force: bool,
                                now: SimTime| {
            if *busy || waiting.is_empty() {
                return;
            }
            if waiting.len() >= cfg.max_batch || force {
                let take = waiting.len().min(cfg.max_batch);
                *in_flight = waiting.drain(..take).collect();
                let service = engine
                    .latency(model, dtype, in_flight.len())
                    .expect("supported combination");
                queue.schedule(now + service, Ev::BatchDone);
                *busy = true;
                batches += 1;
                batch_total += in_flight.len() as u64;
                busy_time += service;
                util_weighted += in_flight.len() as f64;
            }
        };
        match ev {
            Ev::Arrival => {
                if waiting.is_empty() {
                    oldest_tag += 1;
                    queue.schedule(now + cfg.max_delay, Ev::DelayExpired(oldest_tag));
                }
                waiting.push(now);
                maybe_launch(
                    &mut queue,
                    &mut waiting,
                    &mut in_flight,
                    &mut busy,
                    false,
                    now,
                );
                let next = now + SimDuration::from_secs_f64(rng.exponential(rate_fps));
                queue.schedule(next, Ev::Arrival);
            }
            Ev::DelayExpired(tag) => {
                if tag == oldest_tag {
                    maybe_launch(
                        &mut queue,
                        &mut waiting,
                        &mut in_flight,
                        &mut busy,
                        true,
                        now,
                    );
                }
            }
            Ev::BatchDone => {
                for arrived in in_flight.drain(..) {
                    hist.record(now.since(arrived).as_millis_f64());
                }
                busy = false;
                // Oldest waiter (if any) re-arms the delay clock.
                if !waiting.is_empty() {
                    oldest_tag += 1;
                    let oldest = waiting[0];
                    let deadline = (oldest + cfg.max_delay).max(now);
                    queue.schedule(deadline, Ev::DelayExpired(oldest_tag));
                    maybe_launch(
                        &mut queue,
                        &mut waiting,
                        &mut in_flight,
                        &mut busy,
                        false,
                        now,
                    );
                }
            }
        }
    }

    if batches == 0 {
        return Some(BatchedReport {
            completed: 0,
            batches: 0,
            mean_batch: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            samples_per_joule: 0.0,
        });
    }

    // Energy: activation while busy, dynamic scaled by achieved throughput
    // share, plus the serving host base — mirroring `serving::at_load`.
    let total = horizon.as_secs_f64();
    let duty = busy_time.as_secs_f64() / total;
    let max_tput = engine.max_throughput(model, dtype).expect("supported");
    let served = hist.count() as f64 / total;
    let activation = engine.activation_power().as_watts();
    let dynamic = engine.full_load_power().as_watts() - activation;
    let host = 12.0;
    let power = host + activation * duty + dynamic * (served / max_tput).min(1.0);

    Some(BatchedReport {
        completed: hist.count(),
        batches,
        mean_batch: batch_total as f64 / batches as f64,
        p50_ms: hist.quantile(0.5).unwrap_or(0.0),
        p99_ms: hist.quantile(0.99).unwrap_or(0.0),
        samples_per_joule: served / power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rate: f64, max_batch: usize, delay_ms: u64) -> BatchedReport {
        let mut rng = SimRng::seed(17);
        simulate_batched(
            Engine::TensorRtA100,
            ModelId::ResNet50,
            DType::Fp32,
            rate,
            BatcherConfig {
                max_batch,
                max_delay: SimDuration::from_millis(delay_ms),
            },
            SimDuration::from_secs(120),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn light_load_forms_singleton_batches() {
        let r = run(5.0, 64, 5);
        assert!(r.mean_batch < 1.5, "mean batch {}", r.mean_batch);
        // Latency ≈ delay + batch-1 service (≤ ~15 ms).
        assert!(r.p50_ms < 20.0, "p50 {}", r.p50_ms);
    }

    #[test]
    fn heavy_load_fills_batches() {
        let r = run(3000.0, 64, 5);
        assert!(r.mean_batch > 20.0, "mean batch {}", r.mean_batch);
        assert!(r.completed > 100_000);
    }

    #[test]
    fn longer_windows_trade_latency_for_efficiency() {
        let tight = run(200.0, 64, 1);
        let loose = run(200.0, 64, 50);
        assert!(loose.mean_batch > 2.0 * tight.mean_batch);
        assert!(loose.p99_ms > tight.p99_ms);
        assert!(loose.samples_per_joule > tight.samples_per_joule);
    }

    #[test]
    fn non_batching_engine_returns_none() {
        let mut rng = SimRng::seed(1);
        assert!(simulate_batched(
            Engine::TfLiteGpu,
            ModelId::ResNet50,
            DType::Fp32,
            10.0,
            BatcherConfig {
                max_batch: 8,
                max_delay: SimDuration::from_millis(5)
            },
            SimDuration::from_secs(10),
            &mut rng,
        )
        .is_none());
    }

    #[test]
    fn max_batch_is_respected() {
        let r = run(5000.0, 16, 10);
        assert!(r.mean_batch <= 16.0 + 1e-9);
        assert!(
            r.mean_batch > 14.0,
            "saturated server should fill batches: {}",
            r.mean_batch
        );
    }

    #[test]
    fn throughput_conservation() {
        // At moderate load everything offered is served.
        let rate = 500.0;
        let r = run(rate, 64, 10);
        let served_rate = r.completed as f64 / 120.0;
        assert!(
            (served_rate - rate).abs() / rate < 0.05,
            "served {served_rate}"
        );
    }
}
