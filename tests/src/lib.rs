//! Support shared by the integration tests: a thread-local counting
//! allocator for the allocation and heap gates, and the string-keyed
//! metrics sink the recovery loop's typed telemetry is checked against.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use socc_sim::metrics::LogHistogram;

/// Counts the allocations a thread makes, and the bytes it holds live,
/// while that thread runs inside [`counted`]; every call goes on to
/// [`System`]. A test binary installs it with
/// `#[global_allocator] static GLOBAL: Counting = Counting;`.
pub struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed since counting started. Negative
    /// when the thread frees what it allocated before.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` since counting started.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Records `allocs` allocations (a reallocation counts as one) and a
/// change of `bytes` in the bytes held live.
fn count(allocs: u64, bytes: i64) {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + allocs));
            let live = LIVE.with(|l| {
                l.set(l.get() + bytes);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result; counting touches only const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// What a closure did to its thread's heap, as [`Counting`] saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapUse {
    /// Allocations and reallocations made.
    pub allocs: u64,
    /// Peak of the bytes held live, counted from zero at the start.
    pub peak_bytes: u64,
}

/// Runs `f` with counting switched on for this thread and returns its
/// output with what it allocated. Reads zero in a binary whose global
/// allocator is not [`Counting`].
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    ALLOCS.with(|n| n.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let heap = HeapUse {
        allocs: ALLOCS.with(Cell::get),
        peak_bytes: PEAK.with(Cell::get) as u64,
    };
    (out, heap)
}

/// A string-keyed registry of counters and latency histograms. A
/// counter exists once it has been bumped (by any amount) and a
/// histogram once it holds an observation; reads of anything else give
/// zero or `None`.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl TelemetrySink {
    /// Adds to a counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_default() += delta;
    }

    /// Records one observation into a latency histogram
    /// ([`LogHistogram::for_latency_ms`]).
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(LogHistogram::for_latency_ms)
            .record(value);
    }

    /// Reads a counter.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every counter, name-ordered.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// Reads a histogram quantile.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.histograms.get(name).and_then(|h| h.quantile(q))
    }

    /// Number of observations recorded into a histogram.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, LogHistogram::count)
    }

    /// Mean of a histogram's observations.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, LogHistogram::mean)
    }

    /// Renders every counter, then every histogram, each name-ordered.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "histogram {name}: {h}");
        }
        out
    }
}
