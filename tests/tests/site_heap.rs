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

use std::time::Instant;

use integration_tests::{counted, Counting};
use socc_cluster::fleet::{FleetConfig, FleetSim};
use socc_sim::time::SimDuration;

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    let (fleet, heap) = counted(|| fleet_day(sites));
    let peak = heap.peak_bytes;
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
    let (fleet, heap) = counted(|| fleet_day(sites));
    let peak = heap.peak_bytes;
    let wall = started.elapsed().as_secs_f64();
    let (routed, recorded) = check_day(&fleet, sites);
    assert_eq!(recorded, 0, "a fleet site records no events");
    println!(
        "{sites} sites: {routed} sessions routed, peak heap {:.1} MB ({:.1} KB per site), {wall:.1} s",
        peak as f64 / 1e6,
        peak as f64 / 1e3 / sites as f64,
    );
}
