//! Parallel parameter sweeps: fan experiment points across worker threads.
//!
//! Fine-grained figure series (a 200-point Fig. 12 curve, a seed ensemble
//! of gaming replays) and fleet shard steps are embarrassingly parallel;
//! `parallel_map_with` runs them on scoped threads while preserving input
//! order. Workers claim points one at a time from a shared atomic counter
//! (work stealing), so a few expensive points — an SLO bisection near
//! saturation takes orders of magnitude longer than a light-load point —
//! no longer serialize the whole static chunk they used to land in.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Maps `f` over `inputs` using up to `workers` threads, preserving order,
/// with per-worker scratch state.
///
/// Items are moved into `f` (not borrowed), so stateful jobs — a fleet
/// shard with its arenas — cross threads by value and come back in the
/// result. Each worker builds one scratch with `make_scratch(worker)`
/// and threads it through every item it claims, so per-item working
/// state (timing accumulators, reusable buffers) is allocated once per
/// worker rather than once per item or per barrier window. Returns the
/// ordered results plus each worker's final scratch; stateless callers
/// pass unit scratch.
///
/// Scheduling is dynamic: each worker repeatedly claims the next
/// unprocessed index from an atomic counter, so load imbalance across
/// items costs at most one in-flight item per worker, not a chunk. Which
/// worker processes which item is nondeterministic, so `f` must not let
/// scratch state influence results if callers rely on run-to-run
/// determinism (timings are fine; semantic state is not).
///
/// # Panics
///
/// Propagates the panic of the first failing item (lowest input index),
/// prefixed with that index so the offending parameters can be found. The
/// remaining workers stop claiming new items once a failure is observed.
pub(crate) fn parallel_map_with<T, S, R, FS, F>(
    inputs: Vec<T>,
    workers: usize,
    make_scratch: FS,
    f: F,
) -> (Vec<R>, Vec<S>)
where
    T: Send,
    S: Send,
    R: Send,
    FS: Fn(usize) -> S + Sync,
    F: Fn(&mut S, T, usize) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let workers = workers.clamp(1, n);
    // Hand-off cells: the crate forbids `unsafe`, so workers take
    // ownership of claimed items through a mutex each locks exactly once
    // (uncontended — the claim counter already serializes ownership).
    let cells: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cells = &cells;
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    type Fail = (usize, Box<dyn Any + Send + 'static>);
    type WorkerOut<R, S> = (Result<Vec<(usize, R)>, Fail>, S);
    let per_worker: Vec<WorkerOut<R, S>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (f, make_scratch, next, poisoned) = (&f, &make_scratch, &next, &poisoned);
                scope.spawn(move || {
                    let mut scratch = make_scratch(w);
                    let mut out = Vec::new();
                    let mut fail: Option<Fail> = None;
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = cells[i]
                            .lock()
                            .expect("hand-off cell")
                            .take()
                            .expect("each index claimed once");
                        match catch_unwind(AssertUnwindSafe(|| f(&mut scratch, item, i))) {
                            Ok(r) => out.push((i, r)),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Relaxed);
                                fail = Some((i, payload));
                                break;
                            }
                        }
                    }
                    (fail.map_or(Ok(out), Err), scratch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker thread died outside a point"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut scratches = Vec::with_capacity(workers);
    let mut failure: Option<Fail> = None;
    for (result, scratch) in per_worker {
        scratches.push(scratch);
        match result {
            Ok(pairs) => {
                for (i, r) in pairs {
                    slots[i] = Some(r);
                }
            }
            // Near-simultaneous failures race; keep the lowest index so
            // the report is deterministic.
            Err((i, payload)) => {
                if failure.as_ref().is_none_or(|(j, _)| i < *j) {
                    failure = Some((i, payload));
                }
            }
        }
    }
    if let Some((i, payload)) = failure {
        // Re-panic with the point identified; keep the original payload
        // text when it is the usual &str/String.
        if let Some(msg) = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
        {
            panic!("sweep point {i} panicked: {msg}");
        }
        resume_unwind(payload);
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every non-poisoned slot filled"))
        .collect();
    (results, scratches)
}

/// A dense Fig. 12-style load sweep computed in parallel: returns
/// `(offered_fps, cluster samples/J, A100 samples/J)` triples.
pub fn dense_fig12(points: usize, max_fps: f64, workers: usize) -> Vec<(f64, f64, f64)> {
    use socc_cluster::experiments::cluster_serving_efficiency;
    use socc_dl::serving::ServingUnit;
    use socc_dl::{DType, Engine, ModelId};
    let loads: Vec<f64> = (1..=points)
        .map(|i| max_fps * i as f64 / points as f64)
        .collect();
    let (series, _) = parallel_map_with(
        loads,
        workers,
        |_| (),
        |(), load, _| {
            let (cluster, _) = cluster_serving_efficiency(ModelId::ResNet50, DType::Fp32, load)
                .unwrap_or((0.0, 0));
            let a100 = ServingUnit::new(Engine::TensorRtA100, ModelId::ResNet50, DType::Fp32)
                .at_load(load)
                .map(|r| r.samples_per_joule())
                .unwrap_or(0.0);
            (load, cluster, a100)
        },
    );
    series
}

/// An ensemble of gaming replays across seeds, in parallel: returns each
/// seed's sleep-savings fraction.
pub fn gaming_ensemble(seeds: std::ops::Range<u64>, workers: usize) -> Vec<f64> {
    use socc_cluster::gaming::replay_gaming_trace;
    use socc_sim::time::SimDuration;
    let seeds: Vec<u64> = seeds.collect();
    let (savings, _) = parallel_map_with(
        seeds,
        workers,
        |_| (),
        |(), seed, _| {
            replay_gaming_trace(12, SimDuration::from_mins(30), 10.0, seed).sleep_savings()
        },
    );
    savings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_variant_preserves_order_and_moves_items() {
        // Items are moved in and returned; results stay input-ordered.
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let (out, scratches) = parallel_map_with(
            items,
            4,
            |_| 0u64,
            |count: &mut u64, s: String, i| {
                *count += 1;
                (i, s)
            },
        );
        for (k, (i, s)) in out.iter().enumerate() {
            assert_eq!(k, *i);
            assert_eq!(s, &format!("item-{k}"));
        }
        // Every item was processed by exactly one worker's scratch.
        assert_eq!(scratches.iter().sum::<u64>(), 50);
        assert!(scratches.len() <= 4);
    }

    #[test]
    fn with_variant_single_worker_matches_many() {
        let run =
            |workers| parallel_map_with((0..40u64).collect(), workers, |_| (), |(), x, _| x * x).0;
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn with_variant_empty_input_is_fine() {
        let (out, scratches) = parallel_map_with(Vec::<u8>::new(), 4, |_| 0u8, |_, x, _| x);
        assert!(out.is_empty());
        assert!(scratches.is_empty());
    }

    #[test]
    fn skewed_point_costs_do_not_serialize() {
        // One point 1000x the cost of the rest: with work stealing the
        // result is still ordered and complete regardless of where the
        // expensive point lands.
        let (out, _) = parallel_map_with(
            (0..64).collect(),
            4,
            |_| (),
            |(), x: u64, _| {
                let spins = if x == 3 { 200_000 } else { 200 };
                (0..spins).fold(x, |acc, _| {
                    acc.wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407)
                });
                x * 2
            },
        );
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn with_variant_propagates_panics_with_index() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map_with(
                (0..32).collect(),
                4,
                |_| (),
                |(), x: i32, _| {
                    if x == 11 {
                        panic!("shard {x} diverged");
                    }
                    x
                },
            )
        })
        .expect_err("must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("sweep point 11"), "{msg}");
        assert!(msg.contains("shard 11 diverged"), "{msg}");
    }

    #[test]
    fn dense_fig12_crossover_exists() {
        let series = dense_fig12(60, 1800.0, 8);
        assert_eq!(series.len(), 60);
        // Cluster wins at the left edge; the A100 wins at the right.
        let first = series.first().unwrap();
        let last = series.last().unwrap();
        assert!(first.1 > first.2, "cluster should win at light load");
        assert!(last.2 > last.1, "A100 should win near saturation");
        // Loads are ascending.
        for w in series.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn gaming_ensemble_consistent_savings() {
        let savings = gaming_ensemble(0..6, 6);
        assert_eq!(savings.len(), 6);
        for (seed, s) in savings.iter().enumerate() {
            assert!((0.05..=0.9).contains(s), "seed {seed}: savings {s}");
        }
    }
}
