//! Sharded fleet simulation: O(100–1000) sites, one enclosure each,
//! stepped in parallel under conservative time-window synchronization.
//!
//! Every other module simulates a single 60-SoC enclosure; the paper's
//! deployment story (§2.3, Fig. 5) is a *fleet* of them serving millions
//! of users across time zones. [`FleetSim`] owns one [`SiteShard`] per
//! site — a full [`Orchestrator`] replaying that site's phase-shifted
//! Fig. 5 gaming trace — plus a fleet-level control plane: a session
//! placer that routes each site's user demand to a host site by
//! (reachability, WAN RTT, load), a seeded WAN-partition schedule, and a
//! site-tier fault layer ([`SiteFault`]) covering regional partition
//! storms, full-site blackouts and rail brownouts.
//!
//! # Live inter-site migration
//!
//! A site fault displaces every session hosted there. Instead of
//! stranding them until the fault heals, the control plane *live
//! migrates* them: each displaced session is queued with a readiness
//! window priced from physics — its GOP checkpoint size
//! ([`gaming_checkpoint`]) over the calibrated WAN goodput of one
//! migration lane, plus the control RTT
//! ([`WanFabric::migration_time`](socc_net::wan::WanFabric::migration_time))
//! — and paced into waves by [`EvacuationPacing`] so an evacuation storm
//! cannot incast the WAN. When its transfer completes (readiness window
//! reached), the fleet placer re-places it like any arrival, with
//! priority over fresh demand. Session accounting is closed under all of
//! this: see [`FleetSim::verify_session_accounting`].
//!
//! # Conservative time-window synchronization
//!
//! Shards advance independently between *barriers* spaced one
//! synchronization window apart, and all cross-site effects — session
//! routing, departures, migrations, WAN faults — cross shard boundaries
//! only at barrier instants. The window is required to be at least the
//! WAN's minimum cross-site RTT
//! ([`socc_net::wan::WanFabric::min_rtt`]): no physical signal could
//! travel between sites faster than that, so delaying cross-site
//! delivery to the next barrier never delivers a message earlier than
//! the real system could, and within a window each shard provably cannot
//! be affected by any other. That makes every window three phases:
//!
//! 1. **plan** (serial): the fleet control plane reads last window's
//!    per-site reports, applies due heals and fault events, and turns
//!    each site's trace demand into per-site commands (arrivals,
//!    departures, migrations, power transitions);
//! 2. **step** (parallel): each shard independently advances its
//!    orchestrator to the barrier and applies its own commands — a pure
//!    function of `(shard state, commands, barrier)`;
//! 3. **absorb** (serial, site order): reports are folded into the fleet
//!    digest, placer load estimates, and session bookkeeping.
//!
//! Because phases 1 and 3 are serial and phase 2 is per-shard pure, the
//! run — including the bit-level result digest — is identical for any
//! worker-thread count under a fixed seed. The parallel driver lives in
//! `socc-bench` (this crate has no thread pool); [`FleetSim::take_window`]
//! / [`FleetSim::absorb`] expose the step phase as a `Vec` of [`SiteJob`]s
//! that any order-preserving map may execute.

use socc_net::wan::WanFabric;
use socc_sim::hash::{fnv1a, FNV_OFFSET};
use socc_sim::rng::SimRng;
use socc_sim::series::TimeSeries;
use socc_sim::span::{EventKind, EventLog, Scope};
use socc_sim::time::{SimDuration, SimTime};
use socc_sim::units::{DataRate, DataSize};
use socc_video::gop::GopStructure;
use socc_video::video::{Resolution, VideoMeta};

use crate::evacuation::EvacuationPacing;
use crate::faults::{SiteFault, SiteFaultEvent};
use crate::gaming::sessions_for;
use crate::orchestrator::{Orchestrator, OrchestratorConfig, OrchestratorStats};
use crate::recovery::brownout_throughput_frac;
use crate::workload::{WorkloadId, WorkloadSpec};

/// Fraction of a site's PSU rail budget that survives a site brownout:
/// one of two redundant feeds lost, so every board's DVFS derates to the
/// throughput sustainable at half the rail power (the same
/// [`brownout_throughput_frac`] math as the enclosure-tier
/// `PowerBrownout`, one tier up).
pub(crate) const SITE_BROWNOUT_RAIL_RATIO: f64 = 0.5;

/// The state a live cloud-gaming session must move for an inter-site
/// migration: the GOP checkpoint of a 1080p60 stream at `mbps` —
/// reference frames, macroblock contexts and the in-flight half-GOP
/// ([`GopStructure::checkpoint_size`] under the live-streaming GOP
/// shape). This is what prices migration time over the WAN.
pub fn gaming_checkpoint(mbps: f64) -> DataSize {
    let meta = VideoMeta::synthetic(
        "GAME",
        "cloud-gaming",
        Resolution::new(1920, 1080),
        60.0,
        5.0,
        DataRate::mbps(mbps),
        DataRate::mbps(mbps),
    );
    GopStructure::live_default().checkpoint_size(&meta)
}

/// Fleet construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of sites (one enclosure each).
    pub sites: usize,
    /// Geographic regions on the WAN ring (sites are phased across them).
    pub regions: usize,
    /// Simulated span of the run.
    pub hours: u64,
    /// Synchronization window (barrier spacing); must be ≥ the WAN RTT
    /// floor or the conservative argument above breaks.
    pub window: SimDuration,
    /// Master seed for traces and the WAN fault schedule.
    pub seed: u64,
    /// Outbound bitrate per gaming session.
    pub mbps_per_session: f64,
    /// Placer's per-site admission estimate (sessions); the real
    /// orchestrator may still reject below this if network-bound.
    pub session_capacity: usize,
    /// Expected WAN partitions over the whole run (Poisson).
    pub mean_partitions: f64,
    /// Mean partition length in windows beyond the first.
    pub mean_partition_windows: f64,
    /// Per-site idle-SoC sleep threshold.
    pub sleep_after: Option<SimDuration>,
    /// Pacing for live inter-site migrations: how many checkpoint
    /// transfers run concurrently and over what share of the WAN.
    pub migration: EvacuationPacing,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            sites: 8,
            regions: 8,
            hours: 2,
            window: SimDuration::from_secs(120),
            seed: 42,
            mbps_per_session: 10.0,
            session_capacity: 480,
            mean_partitions: 2.0,
            mean_partition_windows: 3.0,
            sleep_after: Some(SimDuration::from_secs(120)),
            migration: EvacuationPacing::wan_default(gaming_checkpoint(10.0)),
        }
    }
}

/// One site's enclosure: the per-shard simulation state.
pub struct SiteShard {
    site: usize,
    orch: Orchestrator,
}

impl SiteShard {
    /// The site's orchestrator (read-only; mutating it outside
    /// [`SiteJob::step`] would break cross-thread determinism).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }
}

/// Commands the control plane issues to one site for one window.
/// Buffers are reused across windows — cleared, never reallocated in
/// steady state.
#[derive(Debug, Default, Clone)]
pub(crate) struct SiteCommands {
    /// Sessions to finish at the barrier (fleet departures, brownout
    /// evacuations, and zombie instances reaped after a partition heal).
    departures: Vec<WorkloadId>,
    /// Sessions to admit at the barrier, aggregated as
    /// `(home_site, count)`.
    arrivals: Vec<(u32, u32)>,
    /// Migrated sessions landing at the barrier, aggregated as
    /// `(home_site, count)`; admitted before `arrivals` — an evacuated
    /// session outranks fresh demand for the same headroom.
    migrations_in: Vec<(u32, u32)>,
    /// Site power returns at the barrier: restore every SoC.
    power_on: bool,
    /// Site blacks out at the barrier: fail every SoC.
    power_off: bool,
    /// Outbound bitrate per admitted session (fixed per run).
    mbps: f64,
}

/// What one shard reports back from one window. Buffers are reused.
#[derive(Debug, Default, Clone)]
pub(crate) struct SiteWindowReport {
    /// Newly admitted sessions in submission order, tagged with the home
    /// site whose demand they serve.
    admitted: Vec<(u32, WorkloadId)>,
    /// Migrated-in sessions in submission order, tagged with their home.
    migrated_in: Vec<(u32, WorkloadId)>,
    /// Migrations the orchestrator refused (no headroom despite the
    /// estimate), as `(home_site, count)`; the control plane re-queues
    /// them.
    migration_rejected: Vec<(u32, u32)>,
    /// Arrivals the orchestrator rejected (site saturated).
    rejected: u32,
    /// Workload instances killed by a site blackout this window.
    killed: u32,
    /// Active workloads at the barrier.
    active: usize,
    /// Cumulative site energy at the barrier, joules.
    energy_j: f64,
    /// Instantaneous site power at the barrier, watts.
    power_w: f64,
    /// Orchestrator counters at the barrier.
    stats: OrchestratorStats,
}

/// A site's unit of parallel work for one window: its shard, commands
/// and report, movable across threads as a value.
pub struct SiteJob {
    shard: SiteShard,
    commands: SiteCommands,
    report: SiteWindowReport,
    barrier: SimTime,
}

impl SiteJob {
    /// Steps the shard to the barrier and applies its commands — a pure
    /// function of `(shard state, commands, barrier)`; safe to run on
    /// any thread, in any order relative to other sites' jobs.
    pub fn step(&mut self) {
        let r = &mut self.report;
        r.admitted.clear();
        r.migrated_in.clear();
        r.migration_rejected.clear();
        r.rejected = 0;
        r.killed = 0;
        let orch = &mut self.shard.orch;
        orch.advance_to(self.barrier);
        let socs = orch.cluster().socs.len();
        if self.commands.power_on {
            for soc in 0..socs {
                orch.restore_soc(soc);
            }
        }
        // Departures only target sessions the control plane placed here
        // and has not finished elsewhere.
        orch.finish_all(&self.commands.departures)
            .expect("fleet-tracked sessions");
        if self.commands.power_off {
            // Full site power loss: every SoC drops at the barrier. The
            // instances die with the site; their sessions are already in
            // the control plane's migration queue.
            for soc in 0..socs {
                r.killed += orch.fail_soc(soc).len() as u32;
            }
        }
        let spec = WorkloadSpec::GamingSession {
            stream_mbps: self.commands.mbps,
        };
        let migrations = &self.commands.migrations_in;
        if let Some((refused, left)) = admit_groups(orch, &spec, migrations, &mut r.migrated_in) {
            // Hand the refused group's rest and every later group back for
            // re-placement.
            r.migration_rejected.push((migrations[refused].0, left));
            r.migration_rejected
                .extend_from_slice(&migrations[refused + 1..]);
        }
        let arrivals = &self.commands.arrivals;
        if let Some((refused, left)) = admit_groups(orch, &spec, arrivals, &mut r.admitted) {
            r.rejected += left + arrivals[refused + 1..].iter().map(|a| a.1).sum::<u32>();
        }
        // The control plane tracks departures itself; dropping the drain
        // clears the backlog without freeing its buffer.
        orch.drain_completions();
        r.active = orch.active_workloads();
        r.energy_j = orch.energy().as_joules();
        r.power_w = orch.power().as_watts();
        r.stats = orch.stats();
    }
}

/// Admits `(home, count)` groups of identical sessions, one
/// [`Orchestrator::admit`] call per group, and records each new id with its
/// home in `placed`. Stops at the first refusal: the specs are identical,
/// so the rest would be refused too. Returns the refused group's index and
/// how many of its sessions were left unplaced.
fn admit_groups(
    orch: &mut Orchestrator,
    spec: &WorkloadSpec,
    groups: &[(u32, u32)],
    placed: &mut Vec<(u32, WorkloadId)>,
) -> Option<(usize, u32)> {
    groups.iter().enumerate().find_map(|(i, &(home, count))| {
        let before = placed.len();
        let refused = orch
            .admit(spec, count as usize, None, |id| placed.push((home, id)))
            .is_err();
        refused.then(|| (i, count - (placed.len() - before) as u32))
    })
}

/// Totals accumulated over a fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetReport {
    /// Sites simulated.
    pub(crate) sites: usize,
    /// Windows completed.
    pub windows: usize,
    /// Sessions the placer routed (total admissions requested).
    pub routed: u64,
    /// Routed sessions hosted away from their home site.
    pub rerouted: u64,
    /// Sessions that departed normally (trace demand fell), including
    /// mid-migration cancellations.
    pub finished: u64,
    /// Arrivals refused because no reachable site had estimated capacity.
    pub unplaceable: u64,
    /// Arrivals the host orchestrator rejected despite the estimate.
    pub rejected: u64,
    /// Sessions displaced by site faults and handed to the live
    /// migrator (partitions, blackouts and brownout evacuations).
    pub stranded: u64,
    /// Displaced sessions that completed a live inter-site migration.
    pub migrated: u64,
    /// Displaced sessions whose users left before the migration landed.
    pub migration_cancelled: u64,
    /// Migration placements deferred a window (no reachable headroom or
    /// host-side rejection); retries, not sessions.
    pub migration_retries: u64,
    /// Displaced sessions still mid-transfer when the run ended.
    pub in_flight: u64,
    /// Orphaned instances cleaned up: reaped after a partition heal or
    /// killed by a blackout while their sessions lived elsewhere.
    pub zombies_reaped: u64,
    /// Workload instances killed by site blackouts.
    pub killed: u64,
    /// WAN partitions applied (single-site, including storm expansions).
    pub partitions: u64,
    /// Regional partition storms applied.
    pub storms: u64,
    /// Full-site blackouts applied.
    pub blackouts: u64,
    /// Site rail brownouts applied.
    pub brownouts: u64,
    /// Total session-windows of demand over the run.
    pub(crate) demand_session_windows: u64,
    /// Session-windows actually served (sessions live at each barrier).
    pub(crate) served_session_windows: u64,
    /// Fleet energy over the run, kWh.
    pub fleet_kwh: f64,
    /// Peak instantaneous fleet power, watts.
    pub peak_fleet_power_w: f64,
}

impl FleetReport {
    /// Fraction of demanded session-windows the fleet actually served —
    /// the availability a chaos campaign gates on. `1.0` when the run
    /// had no demand.
    pub fn availability(&self) -> f64 {
        if self.demand_session_windows == 0 {
            return 1.0;
        }
        self.served_session_windows as f64 / self.demand_session_windows as f64
    }
}

/// What a scheduled heal restores. Variant order is the tie-break for
/// heals due at the same window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum HealKind {
    /// WAN partition ends: the site is reachable again.
    Partition,
    /// Blackout ends: site power returns, SoCs restore.
    Power,
    /// Brownout ends: the rail returns, capacity un-derates.
    Rail,
}

/// The fleet simulator: shards, control plane, and synchronization.
pub struct FleetSim {
    cfg: FleetConfig,
    wan: WanFabric,
    /// Per-site jobs (shard + reusable command/report buffers), always in
    /// site order except while loaned out between [`Self::take_window`]
    /// and [`Self::absorb`].
    jobs: Vec<SiteJob>,
    /// Per-site phased demand traces, one sample per window.
    traces: Vec<TimeSeries>,
    /// Per home site: the LIFO stack of its live sessions as
    /// `(host_site, id)`.
    stacks: Vec<Vec<(u32, WorkloadId)>>,
    /// Per host site: instances still running behind a partition while
    /// their sessions migrated away — reaped at heal, killed by a
    /// blackout.
    orphaned: Vec<Vec<WorkloadId>>,
    /// Per home site: displaced sessions mid-migration, each entry the
    /// window its checkpoint transfer completes (placement-ready).
    migrating: Vec<Vec<usize>>,
    /// Per-site placer load estimate (sessions), refreshed from reports.
    load_est: Vec<usize>,
    /// Per-site placer capacity estimate; `session_capacity` normally,
    /// derated while a brownout holds.
    cap_est: Vec<usize>,
    unreachable: Vec<bool>,
    /// Site power lost (blackout in progress).
    dark: Vec<bool>,
    /// Site rail derated (brownout in progress).
    derated: Vec<bool>,
    /// Remaining faults, seeded WAN partitions and site-tier faults
    /// alike, soonest last (popped as windows pass).
    site_faults: Vec<SiteFaultEvent>,
    /// Heals scheduled as `(window, kind, site)`, kept sorted descending
    /// (soonest last) by binary insertion.
    heals: Vec<(usize, HealKind, usize)>,
    /// Per-site sessions displaced from it (migration accounting).
    mig_out_by_site: Vec<u64>,
    /// Per-site migrated sessions landed on it (migration accounting).
    mig_in_by_site: Vec<u64>,
    /// One migration wave's duration ([`EvacuationPacing::wave_time`]),
    /// cached — it never changes within a run.
    mig_wave: SimDuration,
    /// Fleet-scope control-plane event ring.
    events: EventLog,
    /// Scratch: arrivals routed per host this window (reused).
    routed_to: Vec<u32>,
    /// Scratch: of those, arrivals rerouted away from home (reused).
    rerouted_to: Vec<u32>,
    /// Scratch: migrations placed per home this window (reused).
    mig_placed: Vec<u32>,
    window_idx: usize,
    windows: usize,
    digest: u64,
    report: FleetReport,
    planned: bool,
}

impl FleetSim {
    /// Builds a fleet: per-site orchestrators, phase-shifted traces, and
    /// a seeded WAN fault schedule. Equivalent to
    /// [`Self::with_site_faults`] with an empty site-fault schedule.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.sites == 0` or the synchronization window is
    /// shorter than the WAN RTT floor (the conservative sync argument
    /// requires `window ≥ min_rtt`).
    pub fn new(cfg: FleetConfig) -> Self {
        Self::with_site_faults(cfg, Vec::new())
    }

    /// [`Self::new`] plus an explicit site-tier fault schedule (chaos
    /// campaigns build these with
    /// [`SiteFaultInjector`](crate::faults::SiteFaultInjector) or by
    /// hand).
    ///
    /// # Panics
    ///
    /// Panics on the [`Self::new`] conditions, or if any event targets a
    /// site outside the fleet or a region outside the WAN ring.
    pub fn with_site_faults(cfg: FleetConfig, mut site_faults: Vec<SiteFaultEvent>) -> Self {
        assert!(cfg.sites > 0, "a fleet needs at least one site");
        let wan = WanFabric::edge_fleet_regions(cfg.sites, cfg.regions);
        assert!(
            cfg.window >= wan.min_rtt(),
            "window {:?} below the WAN RTT floor {:?}: conservative sync unsound",
            cfg.window,
            wan.min_rtt()
        );
        for e in &site_faults {
            match e.fault {
                SiteFault::Partition { site, .. }
                | SiteFault::Blackout { site, .. }
                | SiteFault::Brownout { site, .. } => assert!(
                    site < cfg.sites,
                    "site fault targets site {site} outside the fleet of {}",
                    cfg.sites
                ),
                SiteFault::RegionStorm { region, .. } => assert!(
                    region < wan.region_count(),
                    "region storm targets region {region}, ring has {}",
                    wan.region_count()
                ),
            }
        }
        let root = SimRng::seed(cfg.seed);
        let base_trace = socc_workloads::gaming::GamingTraceConfig::default();
        let mut traces = Vec::with_capacity(cfg.sites);
        let mut jobs = Vec::with_capacity(cfg.sites);
        for site in 0..cfg.sites {
            let mut rng = root.split(&format!("trace-site-{site}"));
            let trace = base_trace.with_phase(wan.local_phase_hours(site)).generate(
                SimDuration::from_hours(cfg.hours),
                cfg.window,
                &mut rng,
            );
            traces.push(trace);
            jobs.push(SiteJob {
                shard: SiteShard {
                    site,
                    orch: Orchestrator::new(OrchestratorConfig {
                        sleep_after: cfg.sleep_after,
                        ..OrchestratorConfig::default()
                    }),
                },
                commands: SiteCommands {
                    mbps: cfg.mbps_per_session,
                    ..SiteCommands::default()
                },
                report: SiteWindowReport::default(),
                barrier: SimTime::ZERO,
            });
        }
        let windows = traces[0].samples().len();

        // Seeded WAN partitions: a Poisson count, each at a uniform window
        // and site with a 1 + Poisson length. Within a window they apply
        // before the scheduled site faults, in descending (site, length)
        // order; the site faults follow in ascending `order()`. The queue
        // holds soonest last, so applying due events is a pop.
        let mut frng = root.split("wan-faults");
        let mut seeded = Vec::new();
        if cfg.mean_partitions > 0.0 && cfg.sites > 1 {
            for _ in 0..frng.poisson(cfg.mean_partitions) {
                let window = frng.uniform_usize(0, windows);
                let site = frng.uniform_usize(0, cfg.sites);
                let len = 1 + frng.poisson(cfg.mean_partition_windows) as usize;
                seeded.push(SiteFaultEvent {
                    window,
                    fault: SiteFault::Partition { site, windows: len },
                });
            }
        }
        seeded.sort_by_key(|e| std::cmp::Reverse(e.fault.order()));
        site_faults.sort_by_key(|e| e.fault.order());
        site_faults.splice(0..0, seeded);
        site_faults.sort_by_key(|e| e.window);
        site_faults.reverse();

        let mut events = EventLog::new(4096);
        events.set_scopes(&[Scope::Fleet]);
        Self {
            wan,
            jobs,
            traces,
            stacks: vec![Vec::new(); cfg.sites],
            orphaned: vec![Vec::new(); cfg.sites],
            migrating: vec![Vec::new(); cfg.sites],
            load_est: vec![0; cfg.sites],
            cap_est: vec![cfg.session_capacity; cfg.sites],
            unreachable: vec![false; cfg.sites],
            dark: vec![false; cfg.sites],
            derated: vec![false; cfg.sites],
            site_faults,
            heals: Vec::new(),
            mig_out_by_site: vec![0; cfg.sites],
            mig_in_by_site: vec![0; cfg.sites],
            mig_wave: cfg.migration.wave_time(),
            events,
            routed_to: vec![0; cfg.sites],
            rerouted_to: vec![0; cfg.sites],
            mig_placed: vec![0; cfg.sites],
            window_idx: 0,
            windows,
            digest: FNV_OFFSET,
            report: FleetReport {
                sites: cfg.sites,
                ..FleetReport::default()
            },
            planned: false,
            cfg,
        }
    }

    /// Total barrier windows in the run.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Windows completed so far.
    pub fn windows_done(&self) -> usize {
        self.window_idx
    }

    /// True once every window has been absorbed.
    pub fn done(&self) -> bool {
        self.window_idx >= self.windows
    }

    /// A site's shard (for inspection; jobs must not be loaned out).
    pub fn shard(&self, site: usize) -> &SiteShard {
        &self.jobs[site].shard
    }

    /// True while a WAN partition cuts the site off.
    pub fn is_unreachable(&self, site: usize) -> bool {
        self.unreachable[site]
    }

    /// True while a blackout holds the site dark.
    pub fn is_dark(&self, site: usize) -> bool {
        self.dark[site]
    }

    /// Displaced sessions currently mid-migration (checkpoint transfers
    /// in flight or awaiting placement).
    pub fn in_flight_sessions(&self) -> usize {
        self.migrating.iter().map(Vec::len).sum()
    }

    /// Instances still running behind unhealed partitions while their
    /// sessions migrated away.
    pub fn orphaned_instances(&self) -> usize {
        self.orphaned.iter().map(Vec::len).sum()
    }

    /// Heals not yet applied (fault effects still outstanding).
    pub fn pending_heals(&self) -> usize {
        self.heals.len()
    }

    /// The fleet-scope control-plane event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The running result digest: an order-sensitive FNV-1a over every
    /// absorbed per-site report (site order within each window). Unlike
    /// the event ring it never evicts, so it witnesses the whole run.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// [`Self::digest`] as fixed-width hex.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// Totals so far (complete once [`Self::done`]).
    pub fn report(&self) -> FleetReport {
        self.report
    }

    /// Checks that session accounting is closed — nothing lost, nothing
    /// double-counted — and that per-site migration flows balance. Valid
    /// between an [`Self::absorb`] and the next [`Self::plan_window`]
    /// (mid-window, jobs are loaned out and orchestrator counts are in
    /// motion). A debug build verifies this automatically at the end of
    /// every run.
    pub fn verify_session_accounting(&self) -> Result<(), String> {
        assert!(!self.planned, "accounting is only closed at barriers");
        let r = &self.report;
        let live: u64 = self.stacks.iter().map(|s| s.len() as u64).sum();
        let in_flight = self.in_flight_sessions() as u64;
        let orphans = self.orphaned_instances() as u64;
        let lhs = r.finished + live + r.rejected + in_flight;
        if r.routed != lhs {
            return Err(format!(
                "routed {} != finished {} + live {live} + rejected {} + in-flight {in_flight}",
                r.routed, r.finished, r.rejected
            ));
        }
        let displaced = r.migrated + r.migration_cancelled + in_flight;
        if r.stranded != displaced {
            return Err(format!(
                "stranded {} != migrated {} + cancelled {} + in-flight {in_flight}",
                r.stranded, r.migrated, r.migration_cancelled
            ));
        }
        let out: u64 = self.mig_out_by_site.iter().sum();
        if out != r.stranded {
            return Err(format!(
                "per-site migrations out {out} != stranded {}",
                r.stranded
            ));
        }
        let landed: u64 = self.mig_in_by_site.iter().sum();
        if landed != r.migrated {
            return Err(format!(
                "per-site migrations in {landed} != migrated {}",
                r.migrated
            ));
        }
        let active: u64 = self
            .jobs
            .iter()
            .map(|j| j.shard.orch.active_workloads() as u64)
            .sum();
        if active != live + orphans {
            return Err(format!(
                "orchestrators run {active} instances != live {live} + orphaned {orphans}"
            ));
        }
        Ok(())
    }

    /// Phase 1 (serial): applies due heals and fault events, then turns
    /// each site's trace demand into per-site commands. Returns `false`
    /// when the run is complete. Must be followed by the step phase and
    /// [`Self::absorb`] before the next call.
    pub fn plan_window(&mut self) -> bool {
        assert!(!self.planned, "plan_window called twice without absorb");
        if self.done() {
            return false;
        }
        let w = self.window_idx;
        let barrier = SimTime::ZERO + self.cfg.window * w as u32;

        // Heals first: a site that comes back this window may host again,
        // and a same-window fault on it re-applies cleanly afterwards.
        self.apply_heals(w, barrier);

        // Due faults: seeded WAN partitions and site-tier chaos events.
        while let Some(&e) = self.site_faults.last() {
            if e.window > w {
                break;
            }
            self.site_faults.pop();
            match e.fault {
                SiteFault::Partition { site, windows } => {
                    self.partition_site(site, windows, w, barrier);
                }
                SiteFault::RegionStorm { region, windows } => {
                    self.report.storms += 1;
                    self.events.record(
                        barrier,
                        Scope::Fleet,
                        EventKind::RegionStorm {
                            region: region as u32,
                        },
                    );
                    for site in self.wan.sites_of_region(region) {
                        self.partition_site(site, windows, w, barrier);
                    }
                }
                SiteFault::Blackout { site, windows } => {
                    self.blackout_site(site, windows, w, barrier);
                }
                SiteFault::Brownout { site, windows } => {
                    self.brownout_site(site, windows, w, barrier);
                }
            }
        }

        self.routed_to.iter_mut().for_each(|c| *c = 0);
        self.rerouted_to.iter_mut().for_each(|c| *c = 0);
        self.mig_placed.iter_mut().for_each(|c| *c = 0);

        // Demand deltas first: every home's departures free capacity
        // before anything is placed.
        for home in 0..self.cfg.sites {
            let target = sessions_for(self.traces[home].samples()[w].1, self.cfg.mbps_per_session);
            self.report.demand_session_windows += target as u64;
            let committed = self.stacks[home].len() + self.migrating[home].len();
            let mut surplus = committed.saturating_sub(target);
            // Departures come from the hosted population first (newest
            // first): a user mid-migration is one actively waiting for
            // their session to resume, so in-flight checkpoints are the
            // last thing demand decline cancels.
            while surplus > 0 {
                let Some((host, id)) = self.stacks[home].pop() else {
                    break;
                };
                self.jobs[host as usize].commands.departures.push(id);
                self.load_est[host as usize] = self.load_est[host as usize].saturating_sub(1);
                self.report.finished += 1;
                surplus -= 1;
            }
            // Only a fall below even the in-flight count cancels
            // transfers, newest first: that user quit and never lands.
            while surplus > 0 {
                self.migrating[home].pop().expect("surplus ≤ committed");
                self.report.migration_cancelled += 1;
                self.report.finished += 1;
                surplus -= 1;
            }
        }

        // Completed migrations place next, with priority over fresh
        // demand: an evacuated user is already mid-session.
        for home in 0..self.cfg.sites {
            let mut due = 0usize;
            self.migrating[home].retain(|&ready| {
                if ready <= w {
                    due += 1;
                    false
                } else {
                    true
                }
            });
            while due > 0 {
                let Some(host) = self.pick_host(home) else {
                    // Nowhere reachable with headroom: hold the
                    // checkpoints and retry at the next barrier.
                    self.report.migration_retries += due as u64;
                    for _ in 0..due {
                        self.migrating[home].push(w + 1);
                    }
                    break;
                };
                let headroom = self.cap_est[host].saturating_sub(self.load_est[host]);
                let batch = due.min(headroom);
                self.load_est[host] += batch;
                self.mig_placed[home] += batch as u32;
                self.jobs[host]
                    .commands
                    .migrations_in
                    .push((home as u32, batch as u32));
                due -= batch;
            }
        }

        // New arrivals last: home site if reachable and under the
        // capacity estimate, else the closest (RTT, load, index)
        // reachable site with headroom.
        for home in 0..self.cfg.sites {
            let target = sessions_for(self.traces[home].samples()[w].1, self.cfg.mbps_per_session);
            let committed = self.stacks[home].len()
                + self.migrating[home].len()
                + self.mig_placed[home] as usize;
            let mut need = target.saturating_sub(committed);
            while need > 0 {
                let Some(host) = self.pick_host(home) else {
                    self.report.unplaceable += need as u64;
                    break;
                };
                // All of this home's remaining need that fits the host's
                // headroom goes there in one batch.
                let headroom = self.cap_est[host].saturating_sub(self.load_est[host]);
                let batch = need.min(headroom);
                self.load_est[host] += batch;
                self.routed_to[host] += batch as u32;
                if host != home {
                    self.rerouted_to[host] += batch as u32;
                }
                self.jobs[host]
                    .commands
                    .arrivals
                    .push((home as u32, batch as u32));
                need -= batch;
            }
        }
        for site in 0..self.cfg.sites {
            let (routed, rerouted) = (self.routed_to[site], self.rerouted_to[site]);
            self.report.routed += u64::from(routed);
            self.report.rerouted += u64::from(rerouted);
            if routed > 0 {
                self.events.record(
                    barrier,
                    Scope::Fleet,
                    EventKind::SessionsRouted {
                        site: site as u32,
                        count: routed,
                    },
                );
            }
            if rerouted > 0 {
                self.events.record(
                    barrier,
                    Scope::Fleet,
                    EventKind::SessionsRerouted {
                        site: site as u32,
                        count: rerouted,
                    },
                );
            }
            self.jobs[site].barrier = barrier;
        }
        self.planned = true;
        true
    }

    /// The host for one of `home`'s sessions: the home site if it can
    /// serve, else the closest (RTT, load, index) serving site with
    /// estimated headroom. `None` when the whole fleet is out.
    fn pick_host(&self, home: usize) -> Option<usize> {
        let serves = |s: usize| !self.unreachable[s] && !self.dark[s];
        if serves(home) && self.load_est[home] < self.cap_est[home] {
            return Some(home);
        }
        (0..self.cfg.sites)
            .filter(|&s| serves(s) && self.load_est[s] < self.cap_est[s])
            .min_by_key(|&s| (self.wan.rtt(home, s).as_nanos(), self.load_est[s], s))
    }

    /// Pops due heals (soonest last) and reverses each fault's effect.
    fn apply_heals(&mut self, w: usize, barrier: SimTime) {
        while let Some(&(at, kind, site)) = self.heals.last() {
            if at > w {
                break;
            }
            self.heals.pop();
            match kind {
                HealKind::Partition => {
                    self.unreachable[site] = false;
                    self.events.record(
                        barrier,
                        Scope::Fleet,
                        EventKind::SiteHealed { site: site as u32 },
                    );
                    // Instances that kept running behind the partition
                    // while their sessions live-migrated away: reap the
                    // zombies now that commands can reach the site again.
                    let orphans = &mut self.orphaned[site];
                    self.report.zombies_reaped += orphans.len() as u64;
                    self.jobs[site].commands.departures.append(orphans);
                }
                HealKind::Power => {
                    self.dark[site] = false;
                    self.jobs[site].commands.power_on = true;
                    self.events.record(
                        barrier,
                        Scope::Fleet,
                        EventKind::SitePowerRestored { site: site as u32 },
                    );
                }
                HealKind::Rail => {
                    self.derated[site] = false;
                    self.cap_est[site] = self.cfg.session_capacity;
                    self.events.record(
                        barrier,
                        Scope::Fleet,
                        EventKind::SiteBrownoutEnded { site: site as u32 },
                    );
                }
            }
        }
    }

    /// Schedules a heal, keeping `heals` sorted descending (soonest
    /// last) by binary insertion — a bursty fault window costs O(log n)
    /// per heal instead of a full re-sort.
    fn schedule_heal(&mut self, at: usize, kind: HealKind, site: usize) {
        let h = (at, kind, site);
        let pos = self.heals.partition_point(|&e| e > h);
        self.heals.insert(pos, h);
    }

    /// Applies a WAN partition to one site: sessions hosted there are
    /// displaced into the migration queue; their instances survive as
    /// orphans behind the partition. Absorbed if the site is already cut
    /// off or dark.
    fn partition_site(&mut self, site: usize, dur: usize, w: usize, barrier: SimTime) {
        if self.unreachable[site] || self.dark[site] {
            return; // already down; overlapping fault is absorbed
        }
        self.unreachable[site] = true;
        self.report.partitions += 1;
        self.schedule_heal(w + dur.max(1), HealKind::Partition, site);
        self.events.record(
            barrier,
            Scope::Fleet,
            EventKind::SiteUnreachable { site: site as u32 },
        );
        self.displace_all(site, w, true);
    }

    /// Applies a full-site blackout: every hosted session is displaced,
    /// every instance (including zombies behind an unhealed partition)
    /// dies with the power, and the shard fails all SoCs at the barrier
    /// so the site's energy ledger flatlines until power returns.
    fn blackout_site(&mut self, site: usize, dur: usize, w: usize, barrier: SimTime) {
        if self.dark[site] {
            return; // already dark; overlapping fault is absorbed
        }
        self.dark[site] = true;
        self.report.blackouts += 1;
        self.schedule_heal(w + dur.max(1), HealKind::Power, site);
        self.events.record(
            barrier,
            Scope::Fleet,
            EventKind::SiteBlackout { site: site as u32 },
        );
        // Zombies behind an unhealed partition die with the site; their
        // sessions already migrated (or are in flight).
        let orphans = &mut self.orphaned[site];
        self.report.zombies_reaped += orphans.len() as u64;
        orphans.clear();
        self.displace_all(site, w, false);
        self.jobs[site].commands.power_off = true;
        self.load_est[site] = 0;
    }

    /// Applies a site rail brownout: the placer capacity derates to the
    /// DVFS-sustainable fraction at the surviving rail budget, and any
    /// excess sessions evacuate (newest first) through the migration
    /// queue.
    fn brownout_site(&mut self, site: usize, dur: usize, w: usize, barrier: SimTime) {
        if self.derated[site] || self.dark[site] || self.unreachable[site] {
            return; // can't derate what's already down
        }
        self.derated[site] = true;
        self.report.brownouts += 1;
        let frac = brownout_throughput_frac(SITE_BROWNOUT_RAIL_RATIO);
        self.cap_est[site] = (self.cfg.session_capacity as f64 * frac).floor() as usize;
        self.schedule_heal(w + dur.max(1), HealKind::Rail, site);
        self.events.record(
            barrier,
            Scope::Fleet,
            EventKind::SiteBrownout {
                site: site as u32,
                permille: (frac * 1000.0).round() as u32,
            },
        );
        let excess = self.load_est[site].saturating_sub(self.cap_est[site]);
        if excess > 0 {
            self.evacuate_excess(site, excess, w);
        }
    }

    /// Displaces every session hosted at `site` into the migration
    /// queue, paced into waves and priced per session by checkpoint size
    /// over one WAN migration lane plus the control RTT. With `orphan`,
    /// the instances keep running unreachable (partition); without, the
    /// caller kills them (blackout).
    fn displace_all(&mut self, site: usize, w: usize, orphan: bool) {
        let lanes = self.cfg.migration.max_concurrent.max(1);
        let lane = DataRate::bps(self.cfg.migration.bottleneck.as_bps() / lanes as f64);
        let wave = self.mig_wave;
        let win_nanos = self.cfg.window.as_nanos().max(1);
        let mut idx = 0usize;
        for home in 0..self.cfg.sites {
            // Per-session price: wave queueing delay plus this pair's
            // control RTT plus one checkpoint transfer at lane goodput.
            let per = self
                .wan
                .migration_time(site, home, self.cfg.migration.state_size, lane);
            let mig = &mut self.migrating[home];
            let orph = &mut self.orphaned[site];
            self.stacks[home].retain(|&(host, id)| {
                if host as usize != site {
                    return true;
                }
                let delay = wave * ((idx / lanes) as f64) + per;
                // Cross-site effects land only at barriers: round up.
                let ready = w + (delay.as_nanos().div_ceil(win_nanos) as usize).max(1);
                mig.push(ready);
                if orphan {
                    orph.push(id);
                }
                idx += 1;
                false
            });
        }
        self.report.stranded += idx as u64;
        self.mig_out_by_site[site] += idx as u64;
    }

    /// Evacuates `excess` sessions from a derated site, newest first,
    /// through the same priced migration queue as [`Self::displace_all`].
    /// Unlike a partition, the source is still reachable: the instances
    /// finish cleanly (departures) instead of orphaning.
    fn evacuate_excess(&mut self, site: usize, mut excess: usize, w: usize) {
        let lanes = self.cfg.migration.max_concurrent.max(1);
        let lane = DataRate::bps(self.cfg.migration.bottleneck.as_bps() / lanes as f64);
        let wave = self.mig_wave;
        let win_nanos = self.cfg.window.as_nanos().max(1);
        let mut idx = 0usize;
        for home in 0..self.cfg.sites {
            let per = self
                .wan
                .migration_time(site, home, self.cfg.migration.state_size, lane);
            while excess > 0 {
                let Some(pos) = self.stacks[home]
                    .iter()
                    .rposition(|&(h, _)| h as usize == site)
                else {
                    break;
                };
                let (_, id) = self.stacks[home].remove(pos);
                self.jobs[site].commands.departures.push(id);
                self.load_est[site] = self.load_est[site].saturating_sub(1);
                let delay = wave * ((idx / lanes) as f64) + per;
                let ready = w + (delay.as_nanos().div_ceil(win_nanos) as usize).max(1);
                self.migrating[home].push(ready);
                idx += 1;
                excess -= 1;
            }
            if excess == 0 {
                break;
            }
        }
        self.report.stranded += idx as u64;
        self.mig_out_by_site[site] += idx as u64;
    }

    /// Loans out the planned window's jobs for the (parallelizable) step
    /// phase. Every job must be stepped exactly once and the whole `Vec`
    /// handed back to [`Self::absorb`] in unchanged order.
    pub fn take_window(&mut self) -> Vec<SiteJob> {
        assert!(self.planned, "take_window before plan_window");
        std::mem::take(&mut self.jobs)
    }

    /// Phase 3 (serial, site order): takes the stepped jobs back and
    /// folds their reports into the digest, totals, session stacks and
    /// placer estimates.
    pub fn absorb(&mut self, jobs: Vec<SiteJob>) {
        assert!(self.planned, "absorb before plan_window");
        assert!(self.jobs.is_empty(), "absorb with jobs not taken");
        assert_eq!(jobs.len(), self.cfg.sites, "job set split or truncated");
        self.jobs = jobs;
        let mut fleet_power = 0.0;
        for site in 0..self.cfg.sites {
            let job = &mut self.jobs[site];
            assert_eq!(job.shard.site, site, "absorb must preserve site order");
            let r = &job.report;
            for &(home, id) in &r.admitted {
                self.stacks[home as usize].push((site as u32, id));
            }
            let mut landed = 0u32;
            for &(home, id) in &r.migrated_in {
                self.stacks[home as usize].push((site as u32, id));
                landed += 1;
            }
            if landed > 0 {
                self.report.migrated += u64::from(landed);
                self.mig_in_by_site[site] += u64::from(landed);
                self.events.record(
                    job.barrier,
                    Scope::Fleet,
                    EventKind::SessionsMigrated {
                        site: site as u32,
                        count: landed,
                    },
                );
            }
            // Host-side rejections bounce the checkpoints back into the
            // queue; they retry at the next barrier.
            let mut bounced = 0u32;
            for &(home, count) in &r.migration_rejected {
                for _ in 0..count {
                    self.migrating[home as usize].push(self.window_idx + 1);
                }
                bounced += count;
            }
            self.report.migration_retries += u64::from(bounced);
            // The orchestrator's count is authoritative; rejections made
            // the plan-time estimate optimistic.
            self.load_est[site] = r.active;
            self.report.rejected += u64::from(r.rejected);
            self.report.killed += u64::from(r.killed);
            fleet_power += r.power_w;

            for v in [
                self.window_idx as u64,
                site as u64,
                r.active as u64,
                u64::from(r.rejected),
                r.migrated_in.len() as u64,
                u64::from(bounced),
                u64::from(r.killed),
                r.stats.admitted,
                r.stats.completed,
                r.stats.wakeups,
                r.energy_j.to_bits(),
                r.power_w.to_bits(),
            ] {
                self.digest = fnv1a(self.digest, &v.to_le_bytes());
            }

            job.commands.departures.clear();
            job.commands.arrivals.clear();
            job.commands.migrations_in.clear();
            job.commands.power_on = false;
            job.commands.power_off = false;
        }
        self.report.peak_fleet_power_w = self.report.peak_fleet_power_w.max(fleet_power);
        self.report.served_session_windows +=
            self.stacks.iter().map(|s| s.len() as u64).sum::<u64>();
        self.report.in_flight = self.in_flight_sessions() as u64;
        self.window_idx += 1;
        self.report.windows = self.window_idx;
        self.planned = false;
        if self.done() {
            self.report.fleet_kwh =
                self.jobs.iter().map(|j| j.report.energy_j).sum::<f64>() / 3.6e6;
            #[cfg(debug_assertions)]
            if let Err(e) = self.verify_session_accounting() {
                panic!("fleet session accounting violated at end of run: {e}");
            }
        }
    }

    /// Plans, steps (sequentially, in site order) and absorbs one window.
    /// Returns `false` when the run is already complete.
    pub fn step_window(&mut self) -> bool {
        if !self.plan_window() {
            return false;
        }
        let mut jobs = self.take_window();
        for job in &mut jobs {
            job.step();
        }
        self.absorb(jobs);
        true
    }

    /// Runs the whole fleet sequentially to completion.
    pub fn run_to_end(&mut self) {
        while self.step_window() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FleetConfig {
        FleetConfig {
            sites: 4,
            hours: 2,
            window: SimDuration::from_secs(120),
            seed: 7,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_runs_to_completion_and_serves_sessions() {
        let mut fleet = FleetSim::new(small());
        fleet.run_to_end();
        let r = fleet.report();
        assert_eq!(r.windows, fleet.windows());
        assert!(r.routed > 0, "{r:?}");
        assert!(r.fleet_kwh > 0.0);
        assert_eq!(r.unplaceable, 0, "Fig. 5 demand fits the fleet: {r:?}");
        assert_eq!(r.rejected, 0, "{r:?}");
        assert!(r.availability() > 0.9, "{r:?}");
        fleet.verify_session_accounting().expect("closed books");
    }

    #[test]
    fn sequential_runs_are_bit_identical() {
        let mut a = FleetSim::new(small());
        let mut b = FleetSim::new(small());
        a.run_to_end();
        b.run_to_end();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.report(), b.report());
        assert_eq!(a.events().digest(), b.events().digest());
    }

    #[test]
    fn out_of_order_stepping_matches_in_order() {
        // The step phase must commute: stepping jobs in reverse site
        // order (as a work-stealing pool might) changes nothing.
        let mut a = FleetSim::new(small());
        let mut b = FleetSim::new(small());
        a.run_to_end();
        while b.plan_window() {
            let mut jobs = b.take_window();
            for job in jobs.iter_mut().rev() {
                job.step();
            }
            b.absorb(jobs);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn partitions_displace_and_live_migrate() {
        let cfg = FleetConfig {
            mean_partitions: 6.0,
            mean_partition_windows: 6.0,
            hours: 4,
            seed: 11,
            ..small()
        };
        let mut fleet = FleetSim::new(cfg);
        fleet.run_to_end();
        let r = fleet.report();
        assert!(r.partitions > 0, "seed must yield partitions: {r:?}");
        assert!(r.stranded > 0, "{r:?}");
        assert!(r.rerouted > 0, "{r:?}");
        // Displaced sessions live-migrate instead of dying with the
        // partition; with the default (fast) WAN pacing nearly all land.
        assert!(r.migrated > 0, "{r:?}");
        assert_eq!(
            r.migrated + r.migration_cancelled + r.in_flight,
            r.stranded,
            "{r:?}"
        );
        assert!(
            r.migrated * 10 >= r.stranded * 9,
            "≥90% of displaced sessions must land: {r:?}"
        );
        fleet.verify_session_accounting().expect("closed books");
    }

    #[test]
    fn no_faults_means_no_rerouting() {
        let mut fleet = FleetSim::new(FleetConfig {
            mean_partitions: 0.0,
            ..small()
        });
        fleet.run_to_end();
        let r = fleet.report();
        assert_eq!(r.partitions, 0);
        assert_eq!(r.rerouted, 0, "capacity never forces rerouting: {r:?}");
        assert_eq!(r.stranded, 0);
        assert_eq!(r.migrated, 0);
        assert_eq!(r.killed, 0);
    }

    #[test]
    fn blackout_kills_instances_and_flatlines_power() {
        let dark_from = 20;
        let dark_for = 5;
        let faults = vec![SiteFaultEvent {
            window: dark_from,
            fault: SiteFault::Blackout {
                site: 1,
                windows: dark_for,
            },
        }];
        let cfg = FleetConfig {
            mean_partitions: 0.0,
            ..small()
        };
        let mut fleet = FleetSim::with_site_faults(cfg, faults);
        let mut power_before = 0.0;
        let mut dark_power = f64::MAX;
        let mut dark_energy = (0.0, 0.0);
        while fleet.plan_window() {
            let mut jobs = fleet.take_window();
            for job in &mut jobs {
                job.step();
            }
            fleet.absorb(jobs);
            let w = fleet.windows_done() - 1;
            let orch = fleet.shard(1).orchestrator();
            if w == dark_from - 1 {
                power_before = orch.power().as_watts();
            }
            if w == dark_from {
                dark_energy.0 = orch.energy().as_joules();
            }
            if w > dark_from && w < dark_from + dark_for {
                dark_power = dark_power.min(orch.power().as_watts());
                dark_energy.1 = orch.energy().as_joules();
            }
        }
        let r = fleet.report();
        assert_eq!(r.blackouts, 1, "{r:?}");
        assert!(r.killed > 0, "dark SoCs kill their instances: {r:?}");
        assert!(r.stranded > 0 && r.migrated > 0, "{r:?}");
        // While dark, only chassis overhead draws power...
        let chassis = fleet
            .shard(1)
            .orchestrator()
            .cluster()
            .chassis_power()
            .as_watts();
        assert!(
            dark_power <= chassis * 1.05,
            "dark site must idle at the chassis floor: {dark_power} W vs chassis {chassis} W"
        );
        assert!(dark_power < power_before, "blackout must cut power");
        // ...so the energy ledger flatlines near the chassis rate. The
        // fan tracks temperature, which decays over the first dark
        // windows, hence the margin above the instantaneous floor.
        let window_s = 120.0;
        let dark_joules = dark_energy.1 - dark_energy.0;
        let dark_windows = (dark_for - 1) as f64;
        assert!(
            dark_joules <= chassis * window_s * dark_windows * 1.25,
            "dark energy {dark_joules} J exceeds the chassis floor {chassis} W"
        );
        assert!(
            dark_joules < 0.9 * power_before * window_s * dark_windows,
            "dark energy {dark_joules} J is not flat vs pre-blackout {power_before} W"
        );
        // And the per-site ledger still conserves energy end-to-end.
        for site in 0..fleet.cfg.sites {
            fleet
                .shard(site)
                .orchestrator()
                .verify_energy_conservation(1e-6)
                .expect("ledger conserves through blackout");
        }
        fleet.verify_session_accounting().expect("closed books");
    }

    #[test]
    fn region_storm_partitions_the_whole_block() {
        let cfg = FleetConfig {
            sites: 8,
            regions: 4,
            mean_partitions: 0.0,
            ..small()
        };
        let faults = vec![SiteFaultEvent {
            window: 10,
            fault: SiteFault::RegionStorm {
                region: 1,
                windows: 3,
            },
        }];
        let mut fleet = FleetSim::with_site_faults(cfg, faults);
        let block = fleet.wan.sites_of_region(1);
        let block_len = block.len() as u64;
        fleet.run_to_end();
        let r = fleet.report();
        assert_eq!(r.storms, 1, "{r:?}");
        assert_eq!(
            r.partitions, block_len,
            "a storm partitions every site in its region: {r:?}"
        );
        assert!(r.stranded > 0 && r.migrated > 0, "{r:?}");
        fleet.verify_session_accounting().expect("closed books");
    }

    #[test]
    fn brownout_derates_capacity_and_evacuates_excess() {
        // Two same-phase sites run a full day so the Fig. 5 evening peak
        // saturates the (lowered) capacity estimate; a brownout at peak
        // then derates below current load and must evacuate the excess.
        let cfg = FleetConfig {
            sites: 2,
            regions: 1,
            hours: 24,
            session_capacity: 300,
            mean_partitions: 0.0,
            ..FleetConfig::default()
        };
        // 21:00 at 120 s windows.
        let peak_window = 21 * 30;
        let faults = vec![SiteFaultEvent {
            window: peak_window,
            fault: SiteFault::Brownout {
                site: 0,
                windows: 6,
            },
        }];
        let mut fleet = FleetSim::with_site_faults(cfg, faults);
        let mut derated_cap = usize::MAX;
        while fleet.plan_window() {
            let mut jobs = fleet.take_window();
            for job in &mut jobs {
                job.step();
            }
            fleet.absorb(jobs);
            if fleet.derated[0] {
                derated_cap = derated_cap.min(fleet.cap_est[0]);
            }
        }
        let r = fleet.report();
        assert_eq!(r.brownouts, 1, "{r:?}");
        let frac = brownout_throughput_frac(SITE_BROWNOUT_RAIL_RATIO);
        assert!(frac > 0.0 && frac < 1.0, "derate must be partial: {frac}");
        assert_eq!(derated_cap, (300.0 * frac).floor() as usize);
        assert!(
            r.stranded > 0,
            "peak load above the derated cap must evacuate: {r:?}"
        );
        fleet.verify_session_accounting().expect("closed books");
    }

    #[test]
    fn bursty_same_window_heals_stay_ordered() {
        // Four faults of three kinds land in the same window with
        // different durations; the binary-inserted heal queue must stay
        // strictly descending throughout and fire each heal on time.
        let at = 5;
        let faults = vec![
            SiteFaultEvent {
                window: at,
                fault: SiteFault::Partition {
                    site: 0,
                    windows: 9,
                },
            },
            SiteFaultEvent {
                window: at,
                fault: SiteFault::Partition {
                    site: 1,
                    windows: 2,
                },
            },
            SiteFaultEvent {
                window: at,
                fault: SiteFault::Blackout {
                    site: 2,
                    windows: 5,
                },
            },
            SiteFaultEvent {
                window: at,
                fault: SiteFault::Brownout {
                    site: 3,
                    windows: 5,
                },
            },
        ];
        let cfg = FleetConfig {
            mean_partitions: 0.0,
            ..small()
        };
        let mut fleet = FleetSim::with_site_faults(cfg, faults);
        while fleet.plan_window() {
            // Strictly descending: soonest heal last, no duplicates.
            for pair in fleet.heals.windows(2) {
                assert!(pair[0] > pair[1], "heal queue out of order: {pair:?}");
            }
            let mut jobs = fleet.take_window();
            for job in &mut jobs {
                job.step();
            }
            fleet.absorb(jobs);
            let w = fleet.windows_done() - 1;
            // Each effect ends exactly at its scheduled heal window.
            assert_eq!(fleet.is_unreachable(1), (at..at + 2).contains(&w));
            assert_eq!(fleet.is_dark(2), (at..at + 5).contains(&w));
            assert_eq!(fleet.derated[3], (at..at + 5).contains(&w));
            assert_eq!(fleet.is_unreachable(0), (at..at + 9).contains(&w));
        }
        assert_eq!(fleet.pending_heals(), 0);
        assert_eq!(fleet.orphaned_instances(), 0);
        fleet.verify_session_accounting().expect("closed books");
    }

    #[test]
    fn chaos_runs_are_deterministic_and_order_independent() {
        let cfg = FleetConfig {
            sites: 8,
            regions: 4,
            hours: 4,
            mean_partitions: 2.0,
            ..small()
        };
        let faults = || {
            vec![
                SiteFaultEvent {
                    window: 8,
                    fault: SiteFault::RegionStorm {
                        region: 2,
                        windows: 4,
                    },
                },
                SiteFaultEvent {
                    window: 30,
                    fault: SiteFault::Blackout {
                        site: 0,
                        windows: 3,
                    },
                },
                SiteFaultEvent {
                    window: 30,
                    fault: SiteFault::Brownout {
                        site: 1,
                        windows: 6,
                    },
                },
            ]
        };
        let mut a = FleetSim::with_site_faults(cfg, faults());
        let mut b = FleetSim::with_site_faults(cfg, faults());
        a.run_to_end();
        while b.plan_window() {
            let mut jobs = b.take_window();
            for job in jobs.iter_mut().rev() {
                job.step();
            }
            b.absorb(jobs);
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.report(), b.report());
        assert!(a.report().storms == 1 && a.report().blackouts == 1);
        a.verify_session_accounting().expect("closed books");
    }

    #[test]
    fn accounting_stays_closed_every_window() {
        let cfg = FleetConfig {
            mean_partitions: 4.0,
            hours: 4,
            seed: 13,
            ..small()
        };
        let faults = vec![
            SiteFaultEvent {
                window: 12,
                fault: SiteFault::Blackout {
                    site: 2,
                    windows: 4,
                },
            },
            SiteFaultEvent {
                window: 40,
                fault: SiteFault::Brownout {
                    site: 0,
                    windows: 8,
                },
            },
        ];
        let mut fleet = FleetSim::with_site_faults(cfg, faults);
        while fleet.plan_window() {
            let mut jobs = fleet.take_window();
            for job in &mut jobs {
                job.step();
            }
            fleet.absorb(jobs);
            fleet
                .verify_session_accounting()
                .unwrap_or_else(|e| panic!("window {}: {e}", fleet.windows_done()));
        }
    }

    #[test]
    fn diurnal_phasing_flattens_the_fleet_envelope() {
        // Phased sites peak at different windows, so fleet peak power is
        // well below sites × single-site peak.
        let cfg = FleetConfig {
            sites: 8,
            regions: 8,
            hours: 24,
            mean_partitions: 0.0,
            ..FleetConfig::default()
        };
        let mut fleet = FleetSim::new(cfg);
        fleet.run_to_end();
        let fleet_peak = fleet.report().peak_fleet_power_w;

        let mut lone = FleetSim::new(FleetConfig {
            sites: 1,
            regions: 1,
            ..cfg
        });
        lone.run_to_end();
        let site_peak = lone.report().peak_fleet_power_w;
        assert!(
            fleet_peak < 0.9 * 8.0 * site_peak,
            "fleet {fleet_peak} vs 8 × site {site_peak}"
        );
    }

    #[test]
    fn gaming_checkpoint_is_megabytes_scale() {
        let s = gaming_checkpoint(10.0);
        let mb = s.as_bytes() / 1e6;
        assert!(
            (1.0..64.0).contains(&mb),
            "1080p60 checkpoint should be MB-scale, got {mb} MB"
        );
    }

    #[test]
    #[should_panic(expected = "WAN RTT floor")]
    fn sub_rtt_window_is_rejected() {
        let _ = FleetSim::new(FleetConfig {
            window: SimDuration::from_millis(5),
            ..small()
        });
    }

    #[test]
    #[should_panic(expected = "outside the fleet")]
    fn out_of_range_site_fault_is_rejected() {
        let _ = FleetSim::with_site_faults(
            small(),
            vec![SiteFaultEvent {
                window: 0,
                fault: SiteFault::Blackout {
                    site: 99,
                    windows: 1,
                },
            }],
        );
    }
}
