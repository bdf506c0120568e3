//! Shared telemetry sink: thread-safe counters and gauges for fleet-scale
//! experiments.
//!
//! The parallel sweep harness runs many orchestrator instances across
//! threads; they report into one [`TelemetrySink`] so a sweep's aggregate
//! (total admissions, rejections, peak power seen anywhere) is collected
//! without funnelling every sample through a channel.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use socc_sim::metrics::MetricRegistry;

use crate::orchestrator::Orchestrator;

/// A cloneable, thread-safe metric registry.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Arc<Mutex<MetricRegistry>>,
}

impl TelemetrySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the registry. Each update under the lock is one insert or one
    /// field write, so a reporter that panicked while holding it left the
    /// registry valid: recover the guard rather than fail every later
    /// report.
    fn registry(&self) -> MutexGuard<'_, MetricRegistry> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds to a counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.registry().counter(name).add(delta);
    }

    /// Sets a gauge, keeping the maximum across reports. The first report
    /// always lands, so all-negative series keep their true peak instead of
    /// losing against the default gauge value of zero.
    pub fn gauge_max(&self, name: &str, value: f64) {
        let mut reg = self.registry();
        let never_set = reg.gauge_ref(name).is_none();
        if never_set || value > reg.gauge_value(name) {
            reg.gauge(name).set(value);
        }
    }

    /// Reads a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.registry().counter_value(name)
    }

    /// Reads a gauge.
    pub fn gauge(&self, name: &str) -> f64 {
        self.registry().gauge_value(name)
    }

    /// Snapshot of all counters, name-ordered.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.registry()
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, name: &str, value: f64) {
        self.registry().histogram(name).record(value);
    }

    /// Reads a histogram quantile (`None` if the histogram is absent or
    /// empty).
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.registry()
            .histogram_ref(name)
            .and_then(|h| h.quantile(q))
    }

    /// Number of observations recorded into a histogram.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.registry().histogram_ref(name).map_or(0, |h| h.count())
    }

    /// Mean of a histogram's observations (zero when absent or empty).
    pub fn histogram_mean(&self, name: &str) -> f64 {
        self.registry()
            .histogram_ref(name)
            .map_or(0.0, |h| h.mean())
    }

    /// Renders the whole sink — counters, gauges, histograms, name-ordered —
    /// as one string. Two runs with identical metric activity produce
    /// byte-identical output, which is what the determinism tests compare.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let reg = self.registry();
        let mut out = String::new();
        for (name, v) in reg.counters() {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, v) in reg.gauges() {
            let _ = writeln!(out, "gauge {name} = {v:.6}");
        }
        for (name, h) in reg.histograms() {
            let _ = writeln!(out, "histogram {name}: {h}");
        }
        out
    }

    /// Folds an orchestrator's lifetime stats into the sink under a prefix.
    pub fn absorb(&self, prefix: &str, orch: &Orchestrator) {
        let stats = orch.stats();
        self.add(&format!("{prefix}.admitted"), stats.admitted);
        self.add(&format!("{prefix}.rejected"), stats.rejected);
        self.add(&format!("{prefix}.completed"), stats.completed);
        self.add(&format!("{prefix}.migrations"), stats.migrations);
        self.add(&format!("{prefix}.dropped"), stats.dropped);
        self.add(&format!("{prefix}.wakeups"), stats.wakeups);
        self.gauge_max(&format!("{prefix}.peak_power_w"), orch.power().as_watts());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::OrchestratorConfig;
    use crate::workload::WorkloadSpec;

    #[test]
    fn counters_accumulate_across_clones() {
        let sink = TelemetrySink::new();
        let other = sink.clone();
        sink.add("x", 2);
        other.add("x", 3);
        assert_eq!(sink.counter("x"), 5);
    }

    #[test]
    fn gauge_keeps_maximum() {
        let sink = TelemetrySink::new();
        sink.gauge_max("p", 10.0);
        sink.gauge_max("p", 4.0);
        sink.gauge_max("p", 12.0);
        assert_eq!(sink.gauge("p"), 12.0);
    }

    #[test]
    fn gauge_max_records_negative_peaks() {
        // Regression: the comparison used to start from the default gauge
        // value of 0.0, so a series that never crossed zero (headroom
        // deficits, sub-ambient temperature deltas) recorded nothing.
        let sink = TelemetrySink::new();
        sink.gauge_max("margin", -5.0);
        assert_eq!(sink.gauge("margin"), -5.0);
        sink.gauge_max("margin", -2.0);
        assert_eq!(sink.gauge("margin"), -2.0);
        sink.gauge_max("margin", -7.0);
        assert_eq!(sink.gauge("margin"), -2.0);
    }

    #[test]
    fn absorbs_orchestrator_stats() {
        let sink = TelemetrySink::new();
        let mut orch = Orchestrator::new(OrchestratorConfig::default());
        let v = socc_video::vbench::by_id("V1").unwrap();
        for _ in 0..3 {
            orch.submit(WorkloadSpec::LiveStreamCpu { video: v.clone() })
                .unwrap();
        }
        sink.absorb("run", &orch);
        assert_eq!(sink.counter("run.admitted"), 3);
        assert!(sink.gauge("run.peak_power_w") > 100.0);
    }

    #[test]
    fn histograms_record_and_render_deterministically() {
        let build = || {
            let sink = TelemetrySink::new();
            sink.add("ft.migrations", 4);
            sink.gauge_max("peak_w", 432.1);
            for v in [10.0, 55.0, 120.0] {
                sink.observe("ft.mttr_ms", v);
            }
            sink
        };
        let a = build();
        let b = build();
        assert_eq!(a.histogram_count("ft.mttr_ms"), 3);
        assert!((a.histogram_mean("ft.mttr_ms") - (185.0 / 3.0)).abs() < 1e-9);
        assert!(a.histogram_quantile("ft.mttr_ms", 0.5).is_some());
        assert_eq!(a.histogram_quantile("absent", 0.5), None);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("counter ft.migrations = 4"));
    }

    #[test]
    fn survives_a_reporter_panicking_under_the_lock() {
        let sink = TelemetrySink::new();
        let s = sink.clone();
        let joined = std::thread::spawn(move || {
            let _held = s.registry();
            panic!("reporter died holding the lock");
        })
        .join();
        assert!(joined.is_err());
        assert!(sink.inner.is_poisoned());
        sink.add("after", 1);
        assert_eq!(sink.counter("after"), 1);
    }

    #[test]
    fn concurrent_reporting_is_consistent() {
        let sink = TelemetrySink::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = sink.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(sink.counter("hits"), 8000);
    }
}
