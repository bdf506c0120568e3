//! Heap gate of a fleet site.
//!
//! A fleet-day's memory grows with its sites, so what one site holds
//! decides how many sites fit on a host. A site is a bare orchestrator:
//! its event log stays off and owns no ring (only a recovery engine
//! records by default), so a site holds its cluster, placement index,
//! energy ledger and workload slots, and no span ring. This binary counts
//! the live bytes of the test's own thread with a thread-local counting
//! allocator:
//!
//! - a 16-site fleet-day peaks under [`SITE_BUDGET`] bytes per site, and
//!   no site records an event;
//! - an ignored 10,000-site fleet-day closes its session accounting and
//!   prints its peak heap and wall time. Run it with
//!   `cargo test --release -p integration-tests --test site_heap -- --ignored --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use socc_cluster::fleet::{FleetConfig, FleetSim};
use socc_sim::time::SimDuration;

/// Tracks the bytes a thread allocates and frees while that thread has
/// counting switched on; every call goes on to [`System`].
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed since counting started. Negative
    /// when the thread frees what it allocated before.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` since counting started.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let live = LIVE.with(|l| {
                l.set(l.get() + delta);
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
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its output with the peak of the bytes this
/// thread held live during it.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, PEAK.with(Cell::get) as u64)
}

/// Most heap a fleet-day may hold per site at its peak, the fleet's own
/// state shared out over its sites. The 16-site day below peaks at 0.20
/// MB per site; an 8,192-event span ring per site (48 bytes an event)
/// would add 0.39 MB.
const SITE_BUDGET: u64 = 300 << 10;

/// A 24-hour fleet-day of `sites` sites in 120 s windows, otherwise the
/// default fleet, run to its end.
fn fleet_day(sites: usize) -> FleetSim {
    let mut fleet = FleetSim::new(FleetConfig {
        sites,
        hours: 24,
        window: SimDuration::from_secs(120),
        seed: 42,
        ..FleetConfig::default()
    });
    fleet.run_to_end();
    fleet
}

/// Sessions routed, and the events the sites recorded between them.
fn check_day(fleet: &FleetSim, sites: usize) -> (u64, u64) {
    let report = fleet.report();
    assert_eq!(report.windows, fleet.windows(), "the day ran to its end");
    fleet
        .verify_session_accounting()
        .expect("session accounting closes");
    let recorded = (0..sites)
        .map(|site| fleet.shard(site).orchestrator().events().recorded())
        .sum();
    (report.routed, recorded)
}

#[test]
fn fleet_sites_hold_no_span_ring() {
    let sites = 16;
    let (fleet, peak) = peak_heap_of(|| fleet_day(sites));
    let (routed, recorded) = check_day(&fleet, sites);
    assert!(routed > 0, "the day routes sessions");
    assert_eq!(recorded, 0, "a fleet site records no events");
    let per_site = peak / sites as u64;
    assert!(
        per_site <= SITE_BUDGET,
        "{sites} sites peaked at {peak} bytes, {per_site} per site (budget {SITE_BUDGET})"
    );
}

#[test]
#[ignore = "a 10,000-site fleet-day takes ~80 s and ~1.9 GB in release"]
fn ten_thousand_site_fleet_day() {
    let sites = 10_000;
    let started = Instant::now();
    let (fleet, peak) = peak_heap_of(|| fleet_day(sites));
    let wall = started.elapsed().as_secs_f64();
    let (routed, recorded) = check_day(&fleet, sites);
    assert_eq!(recorded, 0, "a fleet site records no events");
    println!(
        "{sites} sites: {routed} sessions routed, peak heap {:.1} MB ({:.1} KB per site), {wall:.1} s",
        peak as f64 / 1e6,
        peak as f64 / 1e3 / sites as f64,
    );
}
