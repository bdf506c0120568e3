//! Telemetry: the recovery loop's typed registry.
//!
//! The recovery engine bumps its `ft.*` metrics on every step, so it owns
//! an [`FtTelemetry`]: fixed arrays indexed by [`FtCounter`],
//! [`FtHistogram`] and [`DetectedClass`], read back by name.

use std::fmt::Write as _;

use socc_sim::metrics::LogHistogram;

use crate::detector::DetectedClass;

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
/// It reads like a string-keyed registry the same bumps went to, byte
/// for byte: a counter exists once it has been bumped (by any amount)
/// and a histogram once it holds an observation, and [`Self::counters`]
/// and [`Self::render`] list what exists in name order.
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

    /// Renders every counter (`counter <name> = <value>`), then every
    /// histogram (`histogram <name>: <summary>`), each name-ordered, one
    /// per line. Two runs with identical metric activity render
    /// byte-identical output, which is what the determinism tests compare.
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
