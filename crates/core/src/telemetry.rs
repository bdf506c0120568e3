//! Telemetry: the recovery loop's typed registry, and the string-keyed
//! sink it reads like.
//!
//! The recovery engine bumps its `ft.*` metrics on every step, so it owns
//! an [`FtTelemetry`]: fixed arrays indexed by [`FtCounter`],
//! [`FtHistogram`] and [`DetectedClass`], read back by name. A
//! [`TelemetrySink`] (a cloneable, thread-safe string-keyed registry of
//! counters and histograms) is the reference it is checked against: fed
//! the same bumps, both read and render byte for byte alike.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use socc_sim::metrics::{LogHistogram, MetricRegistry};

use crate::detector::DetectedClass;

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

    /// Reads a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.registry().counter_value(name)
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

    /// Renders the whole sink — counters, then histograms, name-ordered —
    /// as one string. Two runs with identical metric activity produce
    /// byte-identical output, which is what the determinism tests compare.
    pub fn render(&self) -> String {
        let reg = self.registry();
        let mut out = String::new();
        for (name, v) in reg.counters() {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, h) in reg.histograms() {
            let _ = writeln!(out, "histogram {name}: {h}");
        }
        out
    }
}

/// A counter of the recovery loop, one slot of [`FtTelemetry`]. The
/// detections of each [`DetectedClass`] count in slots of their own
/// (`ft.detected.<class>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtCounter {
    /// `ft.anti_affinity_fallbacks`
    AntiAffinityFallbacks,
    /// `ft.brownouts_ended`
    BrownoutsEnded,
    /// `ft.cooldowns`
    Cooldowns,
    /// `ft.domain.board_down`
    DomainBoardDown,
    /// `ft.domain.brownout`
    DomainBrownout,
    /// `ft.domain.partition`
    DomainPartition,
    /// `ft.domain_faults`
    DomainFaults,
    /// `ft.evacuations_paced`
    EvacuationsPaced,
    /// `ft.faults_detected`
    FaultsDetected,
    /// `ft.faults_injected`
    FaultsInjected,
    /// `ft.link_repairs`
    LinkRepairs,
    /// `ft.migrations`
    Migrations,
    /// `ft.partitions_detected`
    PartitionsDetected,
    /// `ft.partitions_healed`
    PartitionsHealed,
    /// `ft.power_cycles`
    PowerCycles,
    /// `ft.retries`
    Retries,
    /// `ft.socs_restored`
    SocsRestored,
    /// `ft.workloads_lost`
    WorkloadsLost,
    /// `ft.workloads_shed`
    WorkloadsShed,
}

impl FtCounter {
    /// Every counter, in declaration order (the slot order).
    pub const ALL: [FtCounter; 19] = [
        FtCounter::AntiAffinityFallbacks,
        FtCounter::BrownoutsEnded,
        FtCounter::Cooldowns,
        FtCounter::DomainBoardDown,
        FtCounter::DomainBrownout,
        FtCounter::DomainPartition,
        FtCounter::DomainFaults,
        FtCounter::EvacuationsPaced,
        FtCounter::FaultsDetected,
        FtCounter::FaultsInjected,
        FtCounter::LinkRepairs,
        FtCounter::Migrations,
        FtCounter::PartitionsDetected,
        FtCounter::PartitionsHealed,
        FtCounter::PowerCycles,
        FtCounter::Retries,
        FtCounter::SocsRestored,
        FtCounter::WorkloadsLost,
        FtCounter::WorkloadsShed,
    ];

    /// The counter's name, as it renders.
    pub const fn name(self) -> &'static str {
        match self {
            FtCounter::AntiAffinityFallbacks => "ft.anti_affinity_fallbacks",
            FtCounter::BrownoutsEnded => "ft.brownouts_ended",
            FtCounter::Cooldowns => "ft.cooldowns",
            FtCounter::DomainBoardDown => "ft.domain.board_down",
            FtCounter::DomainBrownout => "ft.domain.brownout",
            FtCounter::DomainPartition => "ft.domain.partition",
            FtCounter::DomainFaults => "ft.domain_faults",
            FtCounter::EvacuationsPaced => "ft.evacuations_paced",
            FtCounter::FaultsDetected => "ft.faults_detected",
            FtCounter::FaultsInjected => "ft.faults_injected",
            FtCounter::LinkRepairs => "ft.link_repairs",
            FtCounter::Migrations => "ft.migrations",
            FtCounter::PartitionsDetected => "ft.partitions_detected",
            FtCounter::PartitionsHealed => "ft.partitions_healed",
            FtCounter::PowerCycles => "ft.power_cycles",
            FtCounter::Retries => "ft.retries",
            FtCounter::SocsRestored => "ft.socs_restored",
            FtCounter::WorkloadsLost => "ft.workloads_lost",
            FtCounter::WorkloadsShed => "ft.workloads_shed",
        }
    }
}

/// A latency histogram of the recovery loop (milliseconds), one slot of
/// [`FtTelemetry`]. Repair times of each [`DetectedClass`] also go to a
/// slot of their own (`ft.mttr_ms.<class>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtHistogram {
    /// `ft.detection_ms`: fault to detection.
    DetectionMs,
    /// `ft.mttr_ms`: fault to re-placement, every class.
    MttrMs,
}

impl FtHistogram {
    /// Every histogram, in declaration order (the slot order).
    pub const ALL: [FtHistogram; 2] = [FtHistogram::DetectionMs, FtHistogram::MttrMs];

    /// The histogram's name, as it renders.
    pub const fn name(self) -> &'static str {
        match self {
            FtHistogram::DetectionMs => "ft.detection_ms",
            FtHistogram::MttrMs => "ft.mttr_ms",
        }
    }
}

/// The recovery loop's metrics in fixed arrays: one slot per
/// [`FtCounter`] and [`FtHistogram`], and one detection counter and one
/// MTTR histogram per [`DetectedClass`]. A bump is an array write: no
/// lock, no string key and no allocation (the histograms' buckets are
/// allocated up front).
///
/// It reads like a [`TelemetrySink`] the same bumps went to, byte for
/// byte: a counter exists once it has been bumped (by any amount) and a
/// histogram once it holds an observation, and [`Self::counters`] and
/// [`Self::render`] list what exists in name order.
#[derive(Debug, Clone)]
pub struct FtTelemetry {
    counters: [Option<u64>; FtCounter::ALL.len()],
    detected: [Option<u64>; DetectedClass::ALL.len()],
    histograms: [LogHistogram; FtHistogram::ALL.len()],
    mttr: [LogHistogram; DetectedClass::ALL.len()],
}

impl Default for FtTelemetry {
    fn default() -> Self {
        Self {
            counters: [None; FtCounter::ALL.len()],
            detected: [None; DetectedClass::ALL.len()],
            histograms: std::array::from_fn(|_| LogHistogram::for_latency_ms()),
            mttr: std::array::from_fn(|_| LogHistogram::for_latency_ms()),
        }
    }
}

impl FtTelemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a counter.
    pub fn add(&mut self, counter: FtCounter, delta: u64) {
        *self.counters[counter as usize].get_or_insert(0) += delta;
    }

    /// Counts one detection of `class`.
    pub fn detected(&mut self, class: DetectedClass) {
        *self.detected[class as usize].get_or_insert(0) += 1;
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, histogram: FtHistogram, value: f64) {
        self.histograms[histogram as usize].record(value);
    }

    /// Records one repair time of `class`.
    pub fn observe_mttr(&mut self, class: DetectedClass, value: f64) {
        self.mttr[class as usize].record(value);
    }

    /// Every counter slot with its name, bumped or not.
    fn counter_slots(&self) -> impl Iterator<Item = (&'static str, Option<u64>)> + '_ {
        let plain = FtCounter::ALL
            .iter()
            .map(|&c| (c.name(), self.counters[c as usize]));
        let per_class = DetectedClass::ALL
            .iter()
            .map(|&c| (c.detected_metric(), self.detected[c as usize]));
        plain.chain(per_class)
    }

    /// Every histogram that holds an observation, with its name.
    fn histogram_slots(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        let plain = FtHistogram::ALL
            .iter()
            .map(|&h| (h.name(), &self.histograms[h as usize]));
        let per_class = DetectedClass::ALL
            .iter()
            .map(|&c| (c.mttr_metric(), &self.mttr[c as usize]));
        plain.chain(per_class).filter(|(_, h)| h.count() > 0)
    }

    fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histogram_slots()
            .find_map(|(n, h)| (n == name).then_some(h))
    }

    /// Reads a counter by name (zero if never bumped or unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_slots()
            .find_map(|(n, v)| (n == name).then_some(v))
            .flatten()
            .unwrap_or(0)
    }

    /// Every bumped counter, name-ordered.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut bumped: Vec<_> = self
            .counter_slots()
            .filter_map(|(n, v)| v.map(|v| (n, v)))
            .collect();
        bumped.sort_unstable_by_key(|&(name, _)| name);
        bumped
    }

    /// Reads a histogram quantile (`None` if the histogram is absent or
    /// empty).
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.histogram(name).and_then(|h| h.quantile(q))
    }

    /// Number of observations recorded into a histogram.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histogram(name).map_or(0, LogHistogram::count)
    }

    /// Mean of a histogram's observations (zero when absent or empty).
    pub fn histogram_mean(&self, name: &str) -> f64 {
        self.histogram(name).map_or(0.0, LogHistogram::mean)
    }

    /// Renders every counter, then every histogram, each name-ordered, in
    /// [`TelemetrySink::render`]'s format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        let mut histograms: Vec<_> = self.histogram_slots().collect();
        histograms.sort_unstable_by_key(|&(name, _)| name);
        for (name, h) in histograms {
            let _ = writeln!(out, "histogram {name}: {h}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let sink = TelemetrySink::new();
        let other = sink.clone();
        sink.add("x", 2);
        other.add("x", 3);
        assert_eq!(sink.counter("x"), 5);
    }

    #[test]
    fn histograms_record_and_render_deterministically() {
        let build = || {
            let sink = TelemetrySink::new();
            sink.add("ft.migrations", 4);
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
