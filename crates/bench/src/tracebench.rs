//! Observability overhead benchmark: what do structured spans cost?
//!
//! Two phases, both deterministic in everything but wall-clock:
//!
//! 1. **Recording micro-cost** — a pre-sized [`EventLog`] ring takes a
//!    burst of [`EventLog::record`] calls with recording enabled and again
//!    with it disabled, under the bench binary's counting allocator. The
//!    enabled path must not allocate (the ring is pre-allocated at
//!    construction); the disabled path must be a single branch.
//! 2. **Engine overhead** — the fault-loop end-to-end scenario (30 live
//!    streams, four distinct fault kinds, 400 s horizon) runs with spans
//!    on and spans off in interleaved repetitions. One engine run is
//!    short (~1 ms), so each timing sample covers a small batch of
//!    back-to-back runs and each side reports its *minimum* sample —
//!    scheduler noise only ever adds time, so the minimum is the robust
//!    estimator of true cost. The relative overhead is gated at 10%.
//!
//! `report_json` renders the committed `BENCH_trace.json` artifact and
//! includes the event-log digest so a baseline comparison also catches
//! accidental changes to *what* is recorded, not just how fast.

use std::time::Instant;

use crate::harness::JsonBuilder;
use socc_cluster::faults::{FaultEvent, FaultKind};
use socc_cluster::orchestrator::OrchestratorConfig;
use socc_cluster::recovery::{RecoveryConfig, RecoveryEngine};
use socc_cluster::workload::WorkloadSpec;
use socc_sim::span::{EventKind, EventLog, Scope};
use socc_sim::time::SimTime;

/// Relative engine overhead (spans-on vs spans-off) the check gate allows.
pub(crate) const MAX_OVERHEAD_PCT: f64 = 10.0;

/// Parameters of one trace-overhead run.
#[derive(Debug, Clone)]
pub struct TraceOptions {
    /// `record()` calls per micro-phase burst.
    pub record_calls: usize,
    /// Ring capacity of the micro-phase log.
    pub ring_capacity: usize,
    /// Interleaved (spans-on, spans-off) timing samples of the engine
    /// scenario; the minimum of each side is reported.
    pub reps: usize,
    /// Live streams submitted to the engine scenario.
    pub streams: usize,
    /// Engine scenario horizon, seconds.
    pub horizon_secs: u64,
    /// Seed for the recovery engine.
    pub seed: u64,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            record_calls: 1_000_000,
            ring_capacity: 4096,
            reps: 9,
            streams: 30,
            horizon_secs: 400,
            seed: 42,
        }
    }
}

/// Results of one trace-overhead run.
#[derive(Debug, Clone)]
pub(crate) struct TraceReport {
    /// Options the run used.
    pub(crate) options: TraceOptions,
    /// Mean cost of one `record()` call with recording enabled, ns.
    pub(crate) ns_per_event_enabled: f64,
    /// Mean cost of one `record()` call with recording disabled, ns.
    pub(crate) ns_per_event_disabled: f64,
    /// Heap allocations during the enabled burst (ring is pre-allocated,
    /// so this must be 0).
    pub(crate) allocs_enabled: u64,
    /// Heap allocations during the disabled burst (must be 0).
    pub(crate) allocs_disabled: u64,
    /// Best per-run engine wall-clock with spans on, milliseconds.
    pub(crate) spans_on_ms: f64,
    /// Best per-run engine wall-clock with spans off, milliseconds.
    pub(crate) spans_off_ms: f64,
    /// Relative overhead of spans-on over spans-off, percent.
    pub(crate) overhead_pct: f64,
    /// Events captured by one spans-on engine run (recorded, including
    /// any beyond ring capacity).
    pub(crate) events_captured: u64,
    /// Order-sensitive FNV digest of the spans-on engine event log —
    /// machine-independent, so baselines catch content drift.
    pub(crate) digest_hex: String,
}

/// Runs the micro burst: `calls` records into a pre-sized ring.
fn record_burst(log: &mut EventLog, calls: usize) -> f64 {
    let started = Instant::now();
    for i in 0..calls {
        log.record(
            SimTime::from_nanos(i as u64),
            Scope::Placement,
            EventKind::Placed {
                workload: i as u64,
                soc: (i % 60) as u32,
            },
        );
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// Builds the fault-loop scenario engine and runs it to the horizon.
/// Returns the engine so the caller can inspect its event log.
fn engine_run(opts: &TraceOptions, spans_on: bool) -> RecoveryEngine {
    let mut eng = RecoveryEngine::new(
        OrchestratorConfig::default(),
        RecoveryConfig::default(),
        opts.seed,
    );
    eng.set_tracing(spans_on);
    let video = socc_video::vbench::by_id("V1").expect("vbench V1");
    for _ in 0..opts.streams {
        eng.submit(WorkloadSpec::LiveStreamCpu {
            video: video.clone(),
        })
        .expect("capacity");
    }
    let faults = [
        (20, 0, FaultKind::Flash),
        (40, 1, FaultKind::SocHang),
        (60, 2, FaultKind::ThermalTrip),
        (80, 3, FaultKind::LinkLoss),
    ]
    .map(|(at, soc, kind)| FaultEvent {
        at: SimTime::from_secs(at),
        soc,
        kind,
    });
    eng.run(&faults, SimTime::from_secs(opts.horizon_secs));
    eng
}

/// Runs the full overhead benchmark.
///
/// `alloc_count` is sampled around each micro burst; pass the bench
/// binary's counting-allocator reading, or `&|| 0` to skip allocation
/// accounting (as the unit tests do).
pub(crate) fn trace_overhead(opts: &TraceOptions, alloc_count: &dyn Fn() -> u64) -> TraceReport {
    // Micro phase: one warm-up burst sizes nothing (the ring is allocated
    // up front), but it faults in the pages and warms the branch
    // predictor so the measured bursts are steady-state.
    let mut log = EventLog::new(opts.ring_capacity);
    record_burst(&mut log, opts.record_calls.min(8192));
    let before = alloc_count();
    let ns_per_event_enabled = record_burst(&mut log, opts.record_calls);
    let allocs_enabled = alloc_count() - before;

    log.set_enabled(false);
    record_burst(&mut log, opts.record_calls.min(8192));
    let before = alloc_count();
    let ns_per_event_disabled = record_burst(&mut log, opts.record_calls);
    let allocs_disabled = alloc_count() - before;

    // Macro phase: interleave spans-on and spans-off samples so slow
    // drift (thermal, scheduler) hits both sides equally. A single run is
    // under 1 ms (0.5–0.9 ms on a 2-vCPU Xeon) — too short to time
    // reliably — so each sample batches RUNS_PER_SAMPLE back-to-back runs,
    // ~5 ms, and each side keeps its fastest sample: noise only ever adds
    // time, so the minimum estimates the true cost. Longer samples fare
    // worse on a host whose speed changes in bursts: interleaved smoke
    // runs there failed the budget 0 of 23 times at 8 runs per sample, 3
    // at 16 and 2 at 32.
    const RUNS_PER_SAMPLE: usize = 8;
    let mut on_ms = f64::INFINITY;
    let mut off_ms = f64::INFINITY;
    let eng = engine_run(opts, true); // warm-up (code + data caches)
    let events_captured = eng.events().recorded();
    let digest_hex = eng.events().digest_hex();
    drop(eng);
    for _ in 0..opts.reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..RUNS_PER_SAMPLE {
            engine_run(opts, true);
        }
        on_ms = on_ms.min(t0.elapsed().as_secs_f64() * 1e3 / RUNS_PER_SAMPLE as f64);

        let t0 = Instant::now();
        for _ in 0..RUNS_PER_SAMPLE {
            engine_run(opts, false);
        }
        off_ms = off_ms.min(t0.elapsed().as_secs_f64() * 1e3 / RUNS_PER_SAMPLE as f64);
    }
    let spans_on_ms = if on_ms.is_finite() { on_ms } else { 0.0 };
    let spans_off_ms = if off_ms.is_finite() { off_ms } else { 0.0 };
    let overhead_pct = if spans_off_ms > 0.0 {
        (spans_on_ms - spans_off_ms) / spans_off_ms * 100.0
    } else {
        0.0
    };

    TraceReport {
        options: opts.clone(),
        ns_per_event_enabled,
        ns_per_event_disabled,
        allocs_enabled,
        allocs_disabled,
        spans_on_ms,
        spans_off_ms,
        overhead_pct,
        events_captured,
        digest_hex,
    }
}

/// Runs the engine scenario once with spans on and renders its event log
/// in Chrome `trace_event` format (load the result in `about:tracing` or
/// Perfetto).
pub fn chrome_trace(opts: &TraceOptions) -> String {
    engine_run(opts, true).events().to_chrome_trace()
}

/// Renders the `BENCH_trace.json` artifact on [`JsonBuilder`]. This
/// mode's floats were always three-decimal — exactly
/// [`JsonBuilder::f64`] — so the port uses `f64` directly and stays
/// byte-identical to the hand-rolled emitter it replaced.
pub(crate) fn report_json(r: &TraceReport) -> String {
    let mut j = JsonBuilder::new();
    j.str("benchmark", "trace_overhead");
    j.object("recording", |j| {
        j.int("record_calls", r.options.record_calls as u64)
            .int("ring_capacity", r.options.ring_capacity as u64)
            .f64("ns_per_event_enabled", r.ns_per_event_enabled)
            .f64("ns_per_event_disabled", r.ns_per_event_disabled)
            .int("allocs_enabled", r.allocs_enabled)
            .int("allocs_disabled", r.allocs_disabled);
    });
    j.object("engine_overhead", |j| {
        j.str("scenario", "fault_loop_e2e")
            .int("streams", r.options.streams as u64)
            .int("horizon_secs", r.options.horizon_secs)
            .int("reps", r.options.reps as u64)
            .f64("spans_on_ms", r.spans_on_ms)
            .f64("spans_off_ms", r.spans_off_ms)
            .f64("overhead_pct", r.overhead_pct)
            .int("events_captured", r.events_captured)
            .str("digest", &r.digest_hex);
    });
    j.finish()
}

/// Declares the trace-overhead experiment (`bench --run trace`) and its
/// gates.
pub(crate) fn experiment() -> crate::runner::Experiment {
    use crate::runner::{gate_num, gate_str, Experiment};
    Experiment {
        name: "trace",
        about: "structured-span recording and engine overhead vs spans-off",
        artifact: "BENCH_trace.json",
        run: |scale, alloc_count| {
            let opts = TraceOptions {
                seed: scale.seed,
                ..TraceOptions::default()
            };
            report_json(&trace_overhead(&opts, alloc_count))
        },
        gates: |doc| {
            let mut f = Vec::new();
            if let Some(pct) = gate_num(doc, "engine_overhead", "overhead_pct", &mut f) {
                if pct > MAX_OVERHEAD_PCT {
                    f.push(format!(
                        "spans-on engine overhead {pct:.2}% exceeds {MAX_OVERHEAD_PCT}% budget"
                    ));
                }
            }
            for key in ["allocs_enabled", "allocs_disabled"] {
                if let Some(allocs) = gate_num(doc, "recording", key, &mut f) {
                    if allocs != 0.0 {
                        f.push(format!("{key} recording path allocated {allocs:.0} times"));
                    }
                }
            }
            f
        },
        baseline_gates: |doc, baseline| {
            let mut f = Vec::new();
            let run_events = gate_num(doc, "engine_overhead", "events_captured", &mut f);
            let base_events = gate_num(baseline, "engine_overhead", "events_captured", &mut f);
            if let (Some(run), Some(base)) = (run_events, base_events) {
                if run != base {
                    f.push(format!(
                        "events captured changed: {run:.0} vs baseline {base:.0} — \
                         instrumentation drifted; refresh BENCH_trace.json deliberately"
                    ));
                }
            }
            if let Some(digest) = gate_str(doc, "engine_overhead", "digest", &mut f) {
                if !baseline.contains(&format!("\"digest\": \"{digest}\"")) {
                    f.push(format!(
                        "event-log digest {digest} differs from baseline — \
                         recorded content drifted; refresh BENCH_trace.json deliberately"
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
    use crate::harness::json_fixed;

    fn small() -> TraceOptions {
        TraceOptions {
            record_calls: 20_000,
            ring_capacity: 512,
            reps: 1,
            streams: 8,
            horizon_secs: 120,
            seed: 7,
        }
    }

    #[test]
    fn engine_digest_is_deterministic_and_spans_off_is_silent() {
        let a = engine_run(&small(), true);
        let b = engine_run(&small(), true);
        assert_eq!(a.events().digest_hex(), b.events().digest_hex());
        assert!(a.events().recorded() > 0);
        let off = engine_run(&small(), false);
        assert_eq!(off.events().recorded(), 0, "disabled log must stay empty");
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let r = trace_overhead(&small(), &|| 0);
        let doc = report_json(&r);
        assert!(doc.contains("\"benchmark\": \"trace_overhead\""));
        assert!(doc.contains("\"overhead_pct\""));
        assert!(doc.contains("\"digest\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(r.events_captured > 0);
    }

    /// The retired hand-rolled emitter, kept verbatim as the fixture the
    /// [`JsonBuilder`] port must reproduce byte for byte (the committed
    /// `BENCH_trace.json` baseline was generated with this code).
    fn handrolled_report_json(r: &TraceReport) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"trace_overhead\",\n",
                "  \"recording\": {{\n",
                "    \"record_calls\": {},\n",
                "    \"ring_capacity\": {},\n",
                "    \"ns_per_event_enabled\": {},\n",
                "    \"ns_per_event_disabled\": {},\n",
                "    \"allocs_enabled\": {},\n",
                "    \"allocs_disabled\": {}\n",
                "  }},\n",
                "  \"engine_overhead\": {{\n",
                "    \"scenario\": \"fault_loop_e2e\",\n",
                "    \"streams\": {},\n",
                "    \"horizon_secs\": {},\n",
                "    \"reps\": {},\n",
                "    \"spans_on_ms\": {},\n",
                "    \"spans_off_ms\": {},\n",
                "    \"overhead_pct\": {},\n",
                "    \"events_captured\": {},\n",
                "    \"digest\": \"{}\"\n",
                "  }}\n",
                "}}\n"
            ),
            r.options.record_calls,
            r.options.ring_capacity,
            json_fixed(r.ns_per_event_enabled, 3),
            json_fixed(r.ns_per_event_disabled, 3),
            r.allocs_enabled,
            r.allocs_disabled,
            r.options.streams,
            r.options.horizon_secs,
            r.options.reps,
            json_fixed(r.spans_on_ms, 3),
            json_fixed(r.spans_off_ms, 3),
            json_fixed(r.overhead_pct, 3),
            r.events_captured,
            r.digest_hex,
        )
    }

    #[test]
    fn report_json_is_byte_identical_to_the_handrolled_emitter() {
        let mut r = trace_overhead(&small(), &|| 0);
        assert_eq!(report_json(&r), handrolled_report_json(&r));
        // Non-finite timings render as null on both sides.
        r.overhead_pct = f64::NAN;
        assert_eq!(report_json(&r), handrolled_report_json(&r));
    }
}
