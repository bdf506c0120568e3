//! Lightweight metric primitives: counters, gauges and log-bucketed
//! histograms, plus a registry for telemetry export.

use core::fmt;
use std::collections::BTreeMap;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value
    }
}

/// A gauge holding the latest observed value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// Replaces the stored value.
    pub fn set(&mut self, v: f64) {
        self.value = v;
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        self.value
    }
}

/// A histogram with logarithmically spaced buckets.
///
/// Designed for latency-like positive quantities spanning several orders of
/// magnitude. Each decade is divided into `buckets_per_decade` geometric
/// sub-buckets; quantile estimates use the bucket upper bound, giving a
/// bounded relative error of `10^(1/buckets_per_decade) - 1`.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    min_value: f64,
    buckets_per_decade: usize,
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    sum: f64,
    max_seen: f64,
}

impl LogHistogram {
    /// Creates a histogram covering `[min_value, min_value * 10^decades)`.
    ///
    /// # Panics
    ///
    /// Panics if `min_value <= 0`, `decades == 0` or `buckets_per_decade == 0`.
    pub(crate) fn new(min_value: f64, decades: usize, buckets_per_decade: usize) -> Self {
        assert!(min_value > 0.0, "min_value must be positive");
        assert!(decades > 0 && buckets_per_decade > 0);
        Self {
            min_value,
            buckets_per_decade,
            counts: vec![0; decades * buckets_per_decade],
            underflow: 0,
            total: 0,
            sum: 0.0,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// A sensible default for latencies in milliseconds: 1 µs .. 1000 s.
    pub fn for_latency_ms() -> Self {
        Self::new(1e-3, 9, 20)
    }

    fn bucket_index(&self, v: f64) -> Option<usize> {
        if v < self.min_value {
            return None;
        }
        let idx = ((v / self.min_value).log10() * self.buckets_per_decade as f64).floor() as usize;
        Some(idx.min(self.counts.len() - 1))
    }

    /// Clears all recorded observations while keeping the bucket layout and
    /// its allocation, so a histogram can be recycled across runs (e.g. the
    /// SLO-bisection iterations of a serving sweep) without touching the
    /// heap.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.underflow = 0;
        self.total = 0;
        self.sum = 0.0;
        self.max_seen = f64::NEG_INFINITY;
    }

    /// Records one observation. Non-finite or negative values are counted in
    /// the underflow bucket so they remain visible without poisoning sums.
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        if !v.is_finite() || v < 0.0 {
            self.underflow += 1;
            return;
        }
        self.sum += v;
        self.max_seen = self.max_seen.max(v);
        match self.bucket_index(v) {
            Some(i) => self.counts[i] += 1,
            None => self.underflow += 1,
        }
    }

    /// Total number of recorded observations (including underflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all finite, non-negative observations.
    pub fn mean(&self) -> f64 {
        let n = self.total - self.underflow;
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// Quantile estimate (`q` in `[0, 1]`), or `None` when empty.
    ///
    /// Underflow observations count as smaller than everything.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(0.0);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper =
                    self.min_value * 10f64.powf((i + 1) as f64 / self.buckets_per_decade as f64);
                return Some(upper.min(self.max_seen));
            }
        }
        Some(self.max_seen)
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
            self.count(),
            self.mean(),
            self.quantile(0.5).unwrap_or(0.0),
            self.quantile(0.99).unwrap_or(0.0),
            if self.max_seen.is_finite() {
                self.max_seen
            } else {
                0.0
            }
        )
    }
}

/// The entry under `name`, inserted from `make` on first use. The key
/// `String` is built only then: a bump of an existing metric allocates
/// nothing.
fn get_or_insert<'a, V>(
    map: &'a mut BTreeMap<String, V>,
    name: &str,
    make: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), make());
    }
    map.get_mut(name).expect("inserted above")
}

/// A string-keyed registry of metrics for telemetry snapshots.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricRegistry {
    /// Returns the counter registered under `name`, creating it on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        get_or_insert(&mut self.counters, name, Counter::default)
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        get_or_insert(&mut self.gauges, name, Gauge::default)
    }

    /// Returns the histogram registered under `name`, creating a
    /// latency-shaped one ([`LogHistogram::for_latency_ms`]) on first use.
    pub fn histogram(&mut self, name: &str) -> &mut LogHistogram {
        get_or_insert(&mut self.histograms, name, LogHistogram::for_latency_ms)
    }

    /// Reads a histogram, if one has been registered under `name`.
    pub fn histogram_ref(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Iterates all `(name, histogram)` pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Reads a counter value (zero if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// Reads a gauge value (zero if absent).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.get(name).map_or(0.0, Gauge::get)
    }

    /// Reads a gauge, if one has been registered under `name`. Unlike
    /// [`MetricRegistry::gauge_value`] this distinguishes "never set"
    /// from "set to zero", which max-tracking callers need to seed
    /// correctly from negative first samples.
    pub fn gauge_ref(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// Iterates all `(name, value)` counter pairs in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// Iterates all `(name, value)` gauge pairs in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), v.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::default();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::default();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_mean_and_count() {
        let mut h = LogHistogram::for_latency_ms();
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(h.max_seen, 30.0);
    }

    #[test]
    fn histogram_quantile_bounded_error() {
        let mut h = LogHistogram::new(1.0, 6, 50);
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let rel_err = 10f64.powf(1.0 / 50.0) - 1.0;
        assert!((p50 - 500.0).abs() / 500.0 <= rel_err + 1e-6, "p50={p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() / 990.0 <= rel_err + 1e-6, "p99={p99}");
    }

    #[test]
    fn histogram_handles_garbage() {
        let mut h = LogHistogram::for_latency_ms();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 5.0);
        // Underflow observations sit below everything.
        assert_eq!(h.quantile(0.1).unwrap(), 0.0);
    }

    #[test]
    fn histogram_reset_clears_counts_in_place() {
        let mut h = LogHistogram::for_latency_ms();
        for v in [1.0, 10.0, 100.0] {
            h.record(v);
        }
        h.record(f64::NAN);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
        h.record(7.0);
        assert_eq!(h.count(), 1);
        assert!((h.mean() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_quantile_none() {
        let h = LogHistogram::for_latency_ms();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_clamps_overflow_to_top_bucket() {
        let mut h = LogHistogram::new(1.0, 2, 10); // covers [1, 100)
        h.record(1e9);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).unwrap() <= 1e9);
    }

    #[test]
    fn registry_round_trip() {
        let mut r = MetricRegistry::default();
        r.counter("requests").add(3);
        r.gauge("power_w").set(42.0);
        assert_eq!(r.counter_value("requests"), 3);
        assert_eq!(r.gauge_value("power_w"), 42.0);
        assert_eq!(r.counter_value("absent"), 0);
        assert_eq!(r.counters().count(), 1);
        assert_eq!(r.gauges().count(), 1);
    }

    #[test]
    fn registry_histograms() {
        let mut r = MetricRegistry::default();
        r.histogram("mttr_ms").record(12.0);
        r.histogram("mttr_ms").record(24.0);
        let h = r.histogram_ref("mttr_ms").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 18.0).abs() < 1e-9);
        assert!(r.histogram_ref("absent").is_none());
        assert_eq!(r.histograms().count(), 1);
    }
}
