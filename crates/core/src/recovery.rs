//! The closed-loop fault-tolerance subsystem: detect → classify → recover.
//!
//! §8 argues fault tolerance is "crucial for the success of SoC Cluster"
//! because mobile silicon was never qualified for 24/7 server duty. This
//! module closes the loop the paper sketches: ground-truth faults from
//! [`crate::faults`] silence a SoC; the [`crate::detector`] notices missed
//! heartbeats within a detection window and classifies the failure through
//! out-of-band BMC probes; and a policy engine re-places the victim
//! workloads (retry with exponential backoff and jitter), power-cycles
//! recoverable hangs over the BMC wire protocol, waits out thermal
//! cooldowns and link repairs, and — when the cluster genuinely lacks room
//! — degrades gracefully by shedding the lowest-priority workloads via
//! preempting admission. Everything is deterministic for a fixed seed.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

use socc_hw::dvfs::DvfsDomain;
use socc_hw::psu::RedundantPsu;
use socc_net::failure::FailureAwareRouting;
use socc_net::topology::{ClusterFabric, Topology};
use socc_sim::event::EventQueue;
use socc_sim::rng::SimRng;
use socc_sim::span::{EventKind, EventLog, Scope};
use socc_sim::time::{SimDuration, SimTime};

use crate::bmc::{encode_command, BmcCommand};
use crate::detector::{access_links, classify, DetectedClass, HeartbeatMonitor};
use crate::evacuation::EvacuationPacing;
use crate::faults::{DomainFault, FailureDomains, FaultEvent, FaultKind, FaultSchedule};
use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use crate::priority::{priority_of, Priority};
use crate::telemetry::{FtCounter, FtHistogram, FtTelemetry};
use crate::workload::{AdmissionError, WorkloadId, WorkloadSpec};

/// Throughput fraction an enclosure keeps when its PSU envelope drops to
/// `ratio` of nominal: the best Kryo-585 operating point affordable under
/// the derated power budget. Power is superlinear in frequency, so the
/// fraction kept always exceeds the power fraction lost. Shared by the
/// single-enclosure brownout path here and the fleet's site-brownout
/// derating (`crate::fleet`).
pub(crate) fn brownout_throughput_frac(ratio: f64) -> f64 {
    // Built once per process: a brownout inside a recovery step then
    // allocates nothing.
    static PRIME: OnceLock<DvfsDomain> = OnceLock::new();
    let dvfs = PRIME.get_or_init(DvfsDomain::kryo585_prime);
    let budget = dvfs.power_at(dvfs.max_opp()) * ratio;
    dvfs.throughput_cap_under_power(budget)
}

/// Tuning knobs of the recovery loop.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Node-agent heartbeat (and detector sweep) period.
    pub heartbeat_interval: SimDuration,
    /// A SoC whose last heartbeat is older than this is declared failed.
    pub detection_window: SimDuration,
    /// Re-placement retries after the initial attempt, before shedding.
    pub max_retries: u32,
    /// First retry delay; doubles each further retry.
    pub backoff_base: SimDuration,
    /// Fractional jitter applied to each backoff delay (`0.2` = ±20%).
    pub backoff_jitter: f64,
    /// BMC power-cycle turnaround for a hung SoC.
    pub power_cycle_time: SimDuration,
    /// Cool-down before a thermally tripped SoC rejoins.
    pub thermal_cooldown: SimDuration,
    /// Time for a technician/auto-retrain to bring a failed link back.
    pub link_repair_time: SimDuration,
    /// Optional admission pacing for evacuation storms: batches of
    /// displaced workloads are re-placed in waves sized to the measured
    /// fabric drain rate instead of all at once. `None` (the default)
    /// keeps the loop's behaviour — and its golden traces — unchanged.
    pub evacuation_pacing: Option<EvacuationPacing>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: SimDuration::from_secs(1),
            detection_window: SimDuration::from_secs(3),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(500),
            backoff_jitter: 0.2,
            power_cycle_time: SimDuration::from_secs(10),
            thermal_cooldown: SimDuration::from_secs(60),
            link_repair_time: SimDuration::from_secs(120),
            evacuation_pacing: None,
        }
    }
}

/// Terminal (or current) disposition of a workload in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadFate {
    /// Placed and serving.
    Running,
    /// Ran to completion.
    Completed,
    /// Deliberately evicted by admission control to make room for
    /// higher-priority work.
    Shed,
    /// Went down with a fault and was never successfully re-placed.
    Lost,
}

/// Ledger entry for one submitted workload.
#[derive(Debug, Clone, Copy)]
pub struct FateRecord {
    /// Current disposition.
    pub fate: WorkloadFate,
    /// Accumulated time the workload was not serving.
    pub(crate) downtime: SimDuration,
    /// Number of successful post-fault re-placements.
    pub migrations: u32,
    out_since: Option<SimTime>,
}

impl FateRecord {
    fn new() -> Self {
        Self {
            fate: WorkloadFate::Running,
            downtime: SimDuration::ZERO,
            migrations: 0,
            out_since: None,
        }
    }
}

/// A displaced workload awaiting re-placement: original id, spec, fault
/// time and the class of the fault that displaced it.
type Displaced = (WorkloadId, WorkloadSpec, SimTime, DetectedClass);

/// The original submission id of each current orchestrator id, indexed by
/// the current id (ids are counters, so the table is dense). A vacant
/// entry holds [`AliasTable::VACANT`].
#[derive(Debug, Default)]
struct AliasTable(Vec<u64>);

impl AliasTable {
    const VACANT: u64 = u64::MAX;

    /// Books `current` as an id of the workload submitted as `original`.
    fn insert(&mut self, current: WorkloadId, original: WorkloadId) {
        debug_assert_ne!(original.0, Self::VACANT, "id space exhausted");
        let i = current.0 as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, Self::VACANT);
        }
        self.0[i] = original.0;
    }

    /// Forgets `current`, returning the original id it stood for.
    fn take(&mut self, current: WorkloadId) -> Option<WorkloadId> {
        let entry = self.0.get_mut(current.0 as usize)?;
        let original = std::mem::replace(entry, Self::VACANT);
        (original != Self::VACANT).then_some(WorkloadId(original))
    }
}

enum Action {
    Fault(FaultEvent),
    Domain(DomainFault),
    Sweep,
    Retry {
        original: WorkloadId,
        spec: WorkloadSpec,
        fault_at: SimTime,
        attempt: u32,
        /// Board the workload was knocked off of (anti-affinity hint).
        from_board: Option<usize>,
        /// Classification of the fault that displaced it (per-class MTTR).
        class: DetectedClass,
    },
    PowerCycleDone(usize),
    CooldownDone(usize),
    LinkRepaired(usize),
    PartitionHealed(usize),
    BrownoutEnded(usize),
}

/// The fault-tolerant orchestration loop.
///
/// Owns an [`Orchestrator`] plus the detection and remediation machinery
/// around it. Drive it by submitting workloads, then calling
/// [`RecoveryEngine::run`] with a fault schedule and a horizon.
pub struct RecoveryEngine {
    orch: Orchestrator,
    config: RecoveryConfig,
    /// Heartbeat state; its muted set is the ground truth of which SoCs
    /// stopped heartbeating (faulted, dropped with their board, or cut
    /// off by a partition) until they return to service.
    monitor: HeartbeatMonitor,
    fabric: ClusterFabric,
    routing: FailureAwareRouting,
    queue: EventQueue<Action>,
    rng: SimRng,
    telemetry: FtTelemetry,
    fates: BTreeMap<WorkloadId, FateRecord>,
    /// Maps the orchestrator's *current* id of a workload to the original
    /// id it was submitted under (migrations re-submit under fresh ids).
    alias: AliasTable,
    /// Workloads stranded by an instant-death fault, held until detection:
    /// `(SoC, original id, spec)`, in stranding order.
    stranded: Vec<(usize, WorkloadId, WorkloadSpec)>,
    /// Scratch for the workloads a failing SoC hands back.
    victims: Vec<(WorkloadId, WorkloadSpec)>,
    /// Scratch for the workloads one detected batch displaces.
    displaced: Vec<Displaced>,
    /// Scratch for workload ids: shed candidates, preemption victims.
    ids: Vec<WorkloadId>,
    /// Scratch for the SoCs one sweep finds overdue.
    overdue: Vec<usize>,
    /// Scratch for the slot ranges one placement attempt avoids.
    avoid: Vec<Range<usize>>,
    /// Ground-truth fault time per SoC, while it is down.
    down_at: Vec<Option<SimTime>>,
    /// Chassis failure-domain hierarchy (SoC → board → ESB port group).
    domains: FailureDomains,
    /// The redundant PSU pair; a brownout derates it.
    psu: RedundantPsu,
    /// ESB port groups currently cut off from the orchestrator.
    partitioned_groups: Vec<bool>,
    /// Horizon of the in-flight run (set by [`RecoveryEngine::begin`]).
    run_horizon: Option<SimTime>,
    horizon: Option<SimTime>,
}

impl RecoveryEngine {
    /// Builds an engine over a fresh orchestrator. `seed` fixes the backoff
    /// jitter stream, so equal seeds give bit-identical runs.
    pub fn new(orch_config: OrchestratorConfig, config: RecoveryConfig, seed: u64) -> Self {
        let mut orch = Orchestrator::new(orch_config);
        // The engine records the causal chain by default; a bare
        // orchestrator's log stays off and owns no ring.
        orch.events_mut().set_enabled(true);
        let socs = orch.cluster().soc_count();
        let fabric = Topology::soc_cluster(socs);
        let mut routing = FailureAwareRouting::new();
        // Cache the fabric adjacency once; fault classification routes on
        // every suspected failure and would otherwise rebuild it per call.
        routing.attach(&fabric.topology);
        let domains = FailureDomains::from_fabric(&fabric);
        Self {
            domains,
            psu: RedundantPsu::cluster_default(),
            partitioned_groups: vec![false; domains.port_groups],
            run_horizon: None,
            monitor: HeartbeatMonitor::new(socs, config.detection_window),
            fabric,
            routing,
            queue: EventQueue::new(),
            rng: SimRng::seed(seed).split("recovery-jitter"),
            telemetry: FtTelemetry::new(),
            fates: BTreeMap::new(),
            alias: AliasTable::default(),
            stranded: Vec::new(),
            victims: Vec::new(),
            displaced: Vec::new(),
            ids: Vec::with_capacity(16),
            overdue: Vec::with_capacity(socs),
            avoid: Vec::with_capacity(domains.port_groups + 1),
            down_at: vec![None; socs],
            horizon: None,
            orch,
            config,
        }
    }

    /// Submits a workload through the engine so its fate is tracked.
    pub fn submit(&mut self, spec: WorkloadSpec) -> Result<WorkloadId, AdmissionError> {
        let id = self.orch.submit(spec)?;
        self.fates.insert(id, FateRecord::new());
        self.alias.insert(id, id);
        Ok(id)
    }

    /// The wrapped orchestrator.
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// The chassis failure-domain hierarchy the engine recovers over.
    pub fn domains(&self) -> FailureDomains {
        self.domains
    }

    /// The loop's counters and its detection and MTTR histograms.
    pub fn telemetry(&self) -> &FtTelemetry {
        &self.telemetry
    }

    /// The typed structured event log carrying the whole causal chain
    /// (fault → detect → classify → retry/migrate/shed), shared with the
    /// wrapped orchestrator's placement and power events.
    pub fn events(&self) -> &EventLog {
        self.orch.events()
    }

    /// Enables or disables structured-event recording, which is on from
    /// construction. Disabled recording costs one branch per would-be
    /// event — the `bench --run trace` harness measures exactly this
    /// spans-on vs spans-off difference.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.orch.events_mut().set_enabled(enabled);
    }

    /// The workload ledger, keyed by original submission id.
    pub fn fates(&self) -> &BTreeMap<WorkloadId, FateRecord> {
        &self.fates
    }

    /// Fraction of offered workload-time actually served over the run:
    /// `1 - Σ downtime / (workloads × horizon)`. Only meaningful after
    /// [`RecoveryEngine::run`].
    pub fn availability(&self) -> f64 {
        let Some(horizon) = self.horizon else {
            return 1.0;
        };
        let n = self.fates.len();
        if n == 0 || horizon.as_secs_f64() <= 0.0 {
            return 1.0;
        }
        let down: f64 = self.fates.values().map(|r| r.downtime.as_secs_f64()).sum();
        (1.0 - down / (n as f64 * horizon.as_secs_f64())).max(0.0)
    }

    /// Runs the loop: injects `faults` at their scheduled times, sweeps
    /// heartbeats every `heartbeat_interval`, recovers as designed, and
    /// stops at `horizon` (pending retries past the horizon lapse; their
    /// workloads are accounted as lost).
    ///
    /// # Panics
    ///
    /// Panics if called more than once.
    pub fn run(&mut self, faults: &[FaultEvent], horizon: SimTime) {
        self.run_schedule(
            &FaultSchedule {
                soc: faults.to_vec(),
                domain: Vec::new(),
            },
            horizon,
        );
    }

    /// Like [`RecoveryEngine::run`] but for a full schedule including
    /// correlated domain-level faults.
    pub fn run_schedule(&mut self, faults: &FaultSchedule, horizon: SimTime) {
        self.begin(faults, horizon);
        while self.step() {}
        self.finish();
    }

    /// Arms the loop without running it: schedules the faults and the first
    /// heartbeat sweep. Drive with [`RecoveryEngine::step`], then close the
    /// books with [`RecoveryEngine::finish`]. Chaos campaigns use this
    /// decomposition to check invariants between every pair of steps.
    ///
    /// # Panics
    ///
    /// Panics if a run is already armed or finished (single-shot).
    pub fn begin(&mut self, faults: &FaultSchedule, horizon: SimTime) {
        assert!(
            self.run_horizon.is_none() && self.horizon.is_none(),
            "RecoveryEngine runs are single-shot"
        );
        self.run_horizon = Some(horizon);
        self.reserve_for_load();
        for e in &faults.soc {
            self.queue.schedule(e.at, Action::Fault(*e));
        }
        for e in &faults.domain {
            self.queue.schedule(e.at, Action::Domain(e.fault));
        }
        let first_sweep = SimTime::ZERO + self.config.heartbeat_interval;
        if first_sweep <= horizon {
            self.queue.schedule(first_sweep, Action::Sweep);
        }
        // Room for a board's evacuation in flight: retries and repairs.
        self.queue.reserve(self.displaced.capacity());
    }

    /// Sizes the step's buffers for the load the run starts with: a SoC's
    /// worth of victims, a board's worth of stranded and displaced
    /// workloads (and of queued retries, see [`Self::begin`]), and as
    /// many re-placement ids again as there are workloads. A step then
    /// grows a buffer only when faults pile up beyond one board's
    /// evacuation at a time.
    fn reserve_for_load(&mut self) {
        let socs = &self.orch.cluster().socs;
        let soc_max = socs.iter().map(|s| s.workload_count()).max().unwrap_or(0);
        let board_max = (0..self.domains.boards)
            .map(|b| {
                socs[self.domains.socs_of_board(b)]
                    .iter()
                    .map(|s| s.workload_count())
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        self.victims.reserve(soc_max);
        self.stranded.reserve(board_max);
        self.displaced.reserve(board_max);
        self.alias.0.reserve(self.orch.active_workloads());
    }

    /// Processes the next queued action at or before the horizon. Returns
    /// `false` once nothing more is due.
    ///
    /// # Panics
    ///
    /// Panics unless [`RecoveryEngine::begin`] armed a run.
    pub fn step(&mut self) -> bool {
        let horizon = self.run_horizon.expect("begin() must arm the run first");
        match self.queue.peek_time() {
            Some(t) if t <= horizon => {}
            _ => return false,
        }
        let (t, action) = self.queue.pop().expect("peeked event exists");
        self.advance(t);
        match action {
            Action::Fault(e) => self.on_fault(e, t),
            Action::Domain(f) => self.on_domain_fault(f, t),
            Action::Sweep => self.on_sweep(t, horizon),
            Action::Retry {
                original,
                spec,
                fault_at,
                attempt,
                from_board,
                class,
            } => self.try_place(original, spec, fault_at, attempt, t, from_board, class),
            Action::PowerCycleDone(soc) => self.on_power_cycle_done(soc, t),
            Action::CooldownDone(soc) => self.on_cooldown_done(soc, t),
            Action::LinkRepaired(soc) => self.on_link_repaired(soc, t),
            Action::PartitionHealed(group) => self.on_partition_healed(group, t),
            Action::BrownoutEnded(rail) => self.on_brownout_ended(rail, t),
        }
        true
    }

    /// Advances to the horizon and closes the books (see
    /// `RecoveryEngine::finalize` semantics in `run`).
    ///
    /// # Panics
    ///
    /// Panics unless [`RecoveryEngine::begin`] armed a run.
    pub fn finish(&mut self) {
        let horizon = self.run_horizon.expect("begin() must arm the run first");
        self.advance(horizon);
        self.finalize(horizon);
    }

    /// Advances the orchestrator and folds completions into the ledger.
    /// A thermally tripped SoC keeps reading its trip temperature at the
    /// BMC across the advance: the trip is a BMC-side override.
    fn advance(&mut self, t: SimTime) {
        self.orch.advance_to(t);
        for id in self.orch.drain_completions() {
            if let Some(orig) = self.alias.take(id) {
                if let Some(rec) = self.fates.get_mut(&orig) {
                    if rec.fate == WorkloadFate::Running {
                        rec.fate = WorkloadFate::Completed;
                    }
                }
            }
        }
    }

    fn on_fault(&mut self, e: FaultEvent, now: SimTime) {
        self.telemetry.add(FtCounter::FaultsInjected, 1);
        let soc = e.soc;
        if self.monitor.is_muted(soc) {
            // Already down: the fault changes nothing and records nothing.
            return;
        }
        self.monitor.mute(soc);
        self.down_at[soc] = Some(now);
        self.orch.events_mut().record(
            now,
            Scope::Fault,
            EventKind::FaultInjected {
                soc: soc as u32,
                kind: e.kind.label(),
            },
        );
        match e.kind {
            FaultKind::Flash | FaultKind::Memory => {
                // Hard death: the SoC powers off instantly; its workloads
                // are stranded until the detector notices the silence.
                self.strand(soc, now);
            }
            FaultKind::ThermalTrip => {
                // Protective shutdown: same instant power-off, but the BMC
                // temperature sensor betrays the cause.
                self.strand(soc, now);
                self.orch.set_thermal_trip(soc, true);
            }
            FaultKind::SocHang => {
                // The SoC keeps drawing power but serves nothing.
            }
            FaultKind::LinkLoss => {
                // The SoC runs on, unreachable.
                for link in access_links(&self.fabric, soc) {
                    self.routing.fail(link);
                }
            }
        }
    }

    /// Powers a SoC off at once and parks its workloads, under their
    /// original ids, until detection.
    fn strand(&mut self, soc: usize, now: SimTime) {
        self.orch.fail_soc_into(soc, &mut self.victims);
        for (cur, spec) in self.victims.drain(..) {
            let orig = self.alias.take(cur).unwrap_or(cur);
            if let Some(rec) = self.fates.get_mut(&orig) {
                rec.out_since = Some(now);
            }
            self.stranded.push((soc, orig, spec));
        }
    }

    fn on_domain_fault(&mut self, fault: DomainFault, now: SimTime) {
        self.telemetry.add(FtCounter::DomainFaults, 1);
        match fault {
            DomainFault::BoardDown { board } => {
                self.telemetry.add(FtCounter::DomainBoardDown, 1);
                self.orch.events_mut().record(
                    now,
                    Scope::Fault,
                    EventKind::DomainFaultInjected {
                        domain: "board_down",
                        index: board as u32,
                    },
                );
                for link in self.fabric.uplinks_of_pcb(board) {
                    self.routing.fail(link);
                }
                for soc in self.domains.socs_of_board(board) {
                    if self.monitor.is_muted(soc) {
                        continue;
                    }
                    self.monitor.mute(soc);
                    self.down_at[soc] = Some(now);
                    self.strand(soc, now);
                }
            }
            DomainFault::FabricPartition { group, duration } => {
                self.telemetry.add(FtCounter::DomainPartition, 1);
                if self.partitioned_groups[group] {
                    return;
                }
                self.partitioned_groups[group] = true;
                self.orch.events_mut().record(
                    now,
                    Scope::Fault,
                    EventKind::DomainFaultInjected {
                        domain: "partition",
                        index: group as u32,
                    },
                );
                self.orch.events_mut().record(
                    now,
                    Scope::Fault,
                    EventKind::PartitionStarted {
                        group: group as u32,
                    },
                );
                for board in self.domains.boards_of_port_group(group) {
                    for link in self.fabric.uplinks_of_pcb(board) {
                        self.routing.fail(link);
                    }
                }
                for soc in self.domains.socs_of_port_group(group) {
                    if self.monitor.is_muted(soc) {
                        continue;
                    }
                    // The SoC keeps running its local work; it just stops
                    // heartbeating. Nothing is stranded or evacuated.
                    self.monitor.mute(soc);
                    self.down_at[soc] = Some(now);
                }
                self.queue
                    .schedule(now + duration, Action::PartitionHealed(group));
            }
            DomainFault::PowerBrownout { rail, duration } => {
                self.telemetry.add(FtCounter::DomainBrownout, 1);
                self.psu.fail_module();
                // Derate DVFS to the best OPP the surviving rail affords;
                // power is superlinear in frequency, so the throughput kept
                // exceeds the power fraction lost.
                let full = RedundantPsu::cluster_default().capacity().as_watts();
                let ratio = self.psu.capacity().as_watts() / full;
                let frac = brownout_throughput_frac(ratio);
                self.orch.events_mut().record(
                    now,
                    Scope::Fault,
                    EventKind::DomainFaultInjected {
                        domain: "brownout",
                        index: rail as u32,
                    },
                );
                self.orch.events_mut().record(
                    now,
                    Scope::Fault,
                    EventKind::BrownoutStarted { rail: rail as u32 },
                );
                self.orch.events_mut().record(
                    now,
                    Scope::Power,
                    EventKind::DvfsCapped {
                        permille: (frac * 1000.0).round() as u32,
                    },
                );
                // Degraded mode: tighten admission to Serving and above,
                // then shed batch work until the derated envelope fits.
                self.orch.set_admission_floor(Some(Priority::Serving));
                self.shed_batch_to_fit(frac, now);
                self.queue
                    .schedule(now + duration, Action::BrownoutEnded(rail));
            }
        }
    }

    /// Sheds batch workloads (newest first — cheapest restart) until the
    /// fleet's used CPU fits within `frac` of its healthy capacity.
    fn shed_batch_to_fit(&mut self, frac: f64, now: SimTime) {
        let allowed: f64 = self
            .orch
            .cluster()
            .socs
            .iter()
            .filter(|s| s.healthy)
            .map(|s| s.spec.cpu.transcode_capacity())
            .sum::<f64>()
            * frac;
        let mut batch = std::mem::take(&mut self.ids);
        batch.clear();
        self.orch
            .workload_ids_where(&mut batch, |s| priority_of(s) == Priority::Batch);
        for &id in batch.iter().rev() {
            let used: f64 = self
                .orch
                .cluster()
                .socs
                .iter()
                .filter(|s| s.healthy)
                .map(|s| s.used().cpu_pu)
                .sum();
            if used <= allowed + 1e-9 {
                break;
            }
            self.orch.finish(id).expect("listed workload exists");
            let orig = self.alias.take(id).unwrap_or(id);
            if let Some(rec) = self.fates.get_mut(&orig) {
                rec.fate = WorkloadFate::Shed;
                rec.out_since = Some(now);
            }
            self.telemetry.add(FtCounter::WorkloadsShed, 1);
            self.orch.events_mut().record(
                now,
                Scope::Recovery,
                EventKind::WorkloadShed { workload: orig.0 },
            );
        }
        self.ids = batch;
    }

    fn on_partition_healed(&mut self, group: usize, now: SimTime) {
        self.partitioned_groups[group] = false;
        for board in self.domains.boards_of_port_group(group) {
            for link in self.fabric.uplinks_of_pcb(board) {
                self.routing.repair(link);
            }
        }
        for soc in self.domains.socs_of_port_group(group) {
            // Only SoCs the partition silenced return here; ones that died
            // behind it (crash, board down) stay down.
            if self.monitor.is_muted(soc) && self.orch.cluster().socs[soc].healthy {
                self.return_to_service(soc, now);
            }
        }
        self.telemetry.add(FtCounter::PartitionsHealed, 1);
        self.orch.events_mut().record(
            now,
            Scope::Recovery,
            EventKind::PartitionHealed {
                group: group as u32,
            },
        );
    }

    fn on_brownout_ended(&mut self, rail: usize, now: SimTime) {
        self.psu.repair_module();
        if self.psu.fully_redundant() {
            self.orch.set_admission_floor(None);
        }
        self.telemetry.add(FtCounter::BrownoutsEnded, 1);
        self.orch.events_mut().record(
            now,
            Scope::Recovery,
            EventKind::BrownoutEnded { rail: rail as u32 },
        );
    }

    fn on_sweep(&mut self, now: SimTime, horizon: SimTime) {
        // Muted means silent or out of service: every SoC that went down
        // was silenced first.
        debug_assert!(
            self.orch
                .cluster()
                .socs
                .iter()
                .enumerate()
                .all(|(soc, unit)| unit.healthy || self.monitor.is_muted(soc)),
            "an out-of-service SoC is still heartbeating"
        );
        self.monitor.sweep(now);
        let mut overdue = std::mem::take(&mut self.overdue);
        self.monitor.overdue(now, &mut overdue);
        for &soc in &overdue {
            self.monitor.confirm(soc);
        }
        // Group overdue SoCs by carrier board (they arrive ascending, so
        // same-board SoCs are contiguous): a whole-board failure is then
        // evacuated as one batch with a single priority-sorted placement
        // pass. Single-SoC faults degenerate to the one-victim case.
        let domains = self.domains;
        for socs in overdue.chunk_by(|&a, &b| domains.board_of_soc(a) == domains.board_of_soc(b)) {
            self.detect_batch(domains.board_of_soc(socs[0]), socs, now);
        }
        self.overdue = overdue;
        let next = now + self.config.heartbeat_interval;
        if next <= horizon {
            self.queue.schedule(next, Action::Sweep);
        }
    }

    /// Detects and remediates a batch of silent SoCs on one board, then
    /// re-places every displaced workload in one priority-sorted pass.
    fn detect_batch(&mut self, board: usize, socs: &[usize], now: SimTime) {
        let mut displaced = std::mem::take(&mut self.displaced);
        for &soc in socs {
            // Classify BEFORE taking the SoC out of service: a hung SoC is
            // distinguishable from a crashed one only while it still draws
            // power.
            let class = classify(
                self.orch.cluster_mut(),
                &mut self.routing,
                &self.fabric,
                soc,
            );
            let fault_at = self.down_at[soc].unwrap_or(now);
            self.telemetry.add(FtCounter::FaultsDetected, 1);
            self.telemetry.detected(class);
            self.telemetry.observe(
                FtHistogram::DetectionMs,
                now.since(fault_at).as_millis_f64(),
            );
            self.orch.events_mut().record(
                now,
                Scope::Detector,
                EventKind::FaultDetected { soc: soc as u32 },
            );
            self.orch.events_mut().record(
                now,
                Scope::Detector,
                EventKind::FaultClassified {
                    soc: soc as u32,
                    class: class.label(),
                },
            );
            if class == DetectedClass::Partitioned {
                // The BMC side channel says the SoC is powered and healthy:
                // it keeps serving its local work behind the dark port
                // group. Nothing to evacuate; the heal is already
                // scheduled from the fault event.
                self.telemetry.add(FtCounter::PartitionsDetected, 1);
                continue;
            }
            // Take over whatever was stranded at fault time (crash/trip)
            // or is still nominally placed (hang/link loss). The batch is
            // sorted below, so the order they join it in does not matter.
            let before = displaced.len();
            let mut i = 0;
            while i < self.stranded.len() {
                if self.stranded[i].0 == soc {
                    let (_, orig, spec) = self.stranded.remove(i);
                    displaced.push((orig, spec, fault_at, class));
                } else {
                    i += 1;
                }
            }
            if displaced.len() == before {
                self.orch.fail_soc_into(soc, &mut self.victims);
                for (cur, spec) in self.victims.drain(..) {
                    let orig = self.alias.take(cur).unwrap_or(cur);
                    if let Some(rec) = self.fates.get_mut(&orig) {
                        rec.out_since = Some(fault_at);
                    }
                    displaced.push((orig, spec, fault_at, class));
                }
            }
            // Schedule remediation for recoverable classes.
            match class {
                DetectedClass::Crash | DetectedClass::Partitioned => {}
                DetectedClass::Hang => {
                    // Power-cycle over the BMC wire protocol, like a real
                    // management agent would.
                    let off = encode_command(BmcCommand::SetSocPowerState(
                        soc as u8,
                        socc_hw::power::PowerState::Off,
                    ));
                    let _ = self.orch.bmc_frame(&off);
                    self.orch.apply_bmc_state_changes();
                    self.telemetry.add(FtCounter::PowerCycles, 1);
                    self.orch.events_mut().record(
                        now,
                        Scope::Recovery,
                        EventKind::PowerCycleIssued { soc: soc as u32 },
                    );
                    self.queue.schedule(
                        now + self.config.power_cycle_time,
                        Action::PowerCycleDone(soc),
                    );
                }
                DetectedClass::ThermalTrip => {
                    self.telemetry.add(FtCounter::Cooldowns, 1);
                    self.orch.events_mut().record(
                        now,
                        Scope::Recovery,
                        EventKind::CooldownStarted { soc: soc as u32 },
                    );
                    self.queue.schedule(
                        now + self.config.thermal_cooldown,
                        Action::CooldownDone(soc),
                    );
                }
                DetectedClass::LinkLoss => {
                    self.telemetry.add(FtCounter::LinkRepairs, 1);
                    self.orch.events_mut().record(
                        now,
                        Scope::Recovery,
                        EventKind::LinkRepairStarted { soc: soc as u32 },
                    );
                    self.queue.schedule(
                        now + self.config.link_repair_time,
                        Action::LinkRepaired(soc),
                    );
                }
            }
        }
        // Re-place victims, most important first; ties in id order. Ids
        // are unique, so the unstable sort orders exactly as a stable one.
        displaced.sort_unstable_by(|a, b| {
            priority_of(&b.1)
                .cmp(&priority_of(&a.1))
                .then(a.0.cmp(&b.0))
        });
        // With pacing on, later waves get their *initial* placement attempt
        // (attempt = 1, so it never books as a retry) deferred by the
        // measured fabric drain time; priority order decides who ships now.
        let offsets = self
            .config
            .evacuation_pacing
            .filter(|_| displaced.len() > 1)
            .map(|p| p.admission_offsets(displaced.len()));
        if let Some(offsets) = &offsets {
            let held = offsets.iter().filter(|&&d| d > SimDuration::ZERO).count() as u64;
            if held > 0 {
                self.telemetry.add(FtCounter::EvacuationsPaced, held);
                self.orch.events_mut().record(
                    now,
                    Scope::Recovery,
                    EventKind::EvacuationPaced { held },
                );
            }
        }
        for (i, (orig, spec, fault_at, class)) in displaced.drain(..).enumerate() {
            let delay = offsets.as_ref().map_or(SimDuration::ZERO, |o| o[i]);
            if delay > SimDuration::ZERO {
                self.queue.schedule(
                    now + delay,
                    Action::Retry {
                        original: orig,
                        spec,
                        fault_at,
                        attempt: 1,
                        from_board: Some(board),
                        class,
                    },
                );
            } else {
                self.try_place(orig, spec, fault_at, 1, now, Some(board), class);
            }
        }
        self.displaced = displaced;
    }

    fn backoff(&mut self, attempt: u32) -> SimDuration {
        let doublings = attempt.saturating_sub(1).min(16);
        let base = self.config.backoff_base * 2f64.powi(doublings as i32);
        let jitter = 1.0 + self.config.backoff_jitter * (2.0 * self.rng.uniform(0.0, 1.0) - 1.0);
        base * jitter.max(0.0)
    }

    /// Slot ranges no placement may use right now: SoCs behind partitioned
    /// ESB port groups look healthy to the placement index but are
    /// unreachable for migration.
    fn partition_avoid_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.partitioned_groups
            .iter()
            .enumerate()
            .filter(|(_, &cut)| cut)
            .map(|(g, _)| self.domains.socs_of_port_group(g))
    }

    /// One placement attempt for a fault-displaced workload. `attempt`
    /// counts from 1 (the immediate post-detection try). Partitioned port
    /// groups are avoided unconditionally; `from_board` is a *soft*
    /// anti-affinity — preferred off-board, but falling back to the home
    /// board beats shedding someone else's work. The orchestrator copies
    /// `spec` only if it admits it; otherwise the spec moves on to the
    /// retry.
    #[allow(clippy::too_many_arguments)]
    fn try_place(
        &mut self,
        original: WorkloadId,
        spec: WorkloadSpec,
        fault_at: SimTime,
        attempt: u32,
        now: SimTime,
        from_board: Option<usize>,
        class: DetectedClass,
    ) {
        if attempt > 1 {
            self.telemetry.add(FtCounter::Retries, 1);
        }
        // The hard ranges first, then the home board's.
        let mut avoid = std::mem::take(&mut self.avoid);
        avoid.clear();
        avoid.extend(self.partition_avoid_ranges());
        let hard = avoid.len();
        if let Some(board) = from_board {
            avoid.push(self.domains.socs_of_board(board));
        }
        fn nonempty(ranges: &[Range<usize>]) -> Option<&[Range<usize>]> {
            (!ranges.is_empty()).then_some(ranges)
        }
        let placed = match self.orch.submit_clone(&spec, nonempty(&avoid)) {
            Err(AdmissionError::NoCapacity) if from_board.is_some() => {
                let fallback = self.orch.submit_clone(&spec, nonempty(&avoid[..hard]));
                if fallback.is_ok() {
                    self.telemetry.add(FtCounter::AntiAffinityFallbacks, 1);
                }
                fallback
            }
            other => other,
        };
        self.avoid = avoid;
        match placed {
            Ok(new_id) => self.settle(original, new_id, fault_at, now, class),
            Err(_) if attempt <= self.config.max_retries => {
                let delay = self.backoff(attempt);
                self.orch.events_mut().record(
                    now,
                    Scope::Recovery,
                    EventKind::RetryScheduled {
                        workload: original.0,
                        attempt,
                    },
                );
                self.queue.schedule(
                    now + delay,
                    Action::Retry {
                        original,
                        spec,
                        fault_at,
                        attempt: attempt + 1,
                        from_board,
                        class,
                    },
                );
            }
            Err(_) => {
                // Retry budget exhausted: degrade gracefully by shedding
                // strictly-lower-priority work, or declare the loss.
                let mut evicted = std::mem::take(&mut self.ids);
                match self.orch.submit_preempting(&spec, &mut evicted) {
                    Ok(new_id) => {
                        for &victim in &evicted {
                            let orig = self.alias.take(victim).unwrap_or(victim);
                            if let Some(rec) = self.fates.get_mut(&orig) {
                                rec.fate = WorkloadFate::Shed;
                                rec.out_since = Some(now);
                            }
                            self.telemetry.add(FtCounter::WorkloadsShed, 1);
                            self.orch.events_mut().record(
                                now,
                                Scope::Recovery,
                                EventKind::WorkloadShed { workload: orig.0 },
                            );
                        }
                        self.settle(original, new_id, fault_at, now, class);
                    }
                    Err(_) => {
                        if let Some(rec) = self.fates.get_mut(&original) {
                            rec.fate = WorkloadFate::Lost;
                            rec.out_since = rec.out_since.or(Some(fault_at));
                        }
                        self.telemetry.add(FtCounter::WorkloadsLost, 1);
                        self.orch.events_mut().record(
                            now,
                            Scope::Recovery,
                            EventKind::WorkloadLost {
                                workload: original.0,
                            },
                        );
                    }
                }
                self.ids = evicted;
            }
        }
    }

    /// Books a successful re-placement: downtime, MTTR (overall and per
    /// fault class), migration count.
    fn settle(
        &mut self,
        original: WorkloadId,
        new_id: WorkloadId,
        fault_at: SimTime,
        now: SimTime,
        class: DetectedClass,
    ) {
        self.alias.insert(new_id, original);
        let outage = now.since(fault_at);
        if let Some(rec) = self.fates.get_mut(&original) {
            rec.downtime += outage;
            rec.out_since = None;
            rec.migrations += 1;
        }
        self.telemetry.add(FtCounter::Migrations, 1);
        self.telemetry
            .observe(FtHistogram::MttrMs, outage.as_millis_f64());
        self.telemetry.observe_mttr(class, outage.as_millis_f64());
        let target = self.orch.placement_of(new_id).unwrap_or(usize::MAX);
        self.orch.events_mut().record(
            now,
            Scope::Recovery,
            EventKind::Migrated {
                workload: original.0,
                soc: target as u32,
            },
        );
    }

    fn on_power_cycle_done(&mut self, soc: usize, now: SimTime) {
        // Bring the SoC back through the same BMC wire protocol.
        let on = encode_command(BmcCommand::SetSocPowerState(
            soc as u8,
            socc_hw::power::PowerState::Idle,
        ));
        let _ = self.orch.bmc_frame(&on);
        self.orch.apply_bmc_state_changes();
        self.return_to_service(soc, now);
    }

    fn on_cooldown_done(&mut self, soc: usize, now: SimTime) {
        self.orch.set_thermal_trip(soc, false);
        self.orch.set_soc_temp(soc, 40.0);
        self.orch.restore_soc(soc);
        self.return_to_service(soc, now);
    }

    fn on_link_repaired(&mut self, soc: usize, now: SimTime) {
        for link in access_links(&self.fabric, soc) {
            self.routing.repair(link);
        }
        self.orch.restore_soc(soc);
        self.return_to_service(soc, now);
    }

    /// Clears ground-truth silence and heartbeat state after remediation.
    /// The orchestrator records the `SocRestored` event on the restore
    /// paths that actually re-commission the slot; a partition heal (the
    /// SoC never left service) records `PartitionHealed` instead.
    fn return_to_service(&mut self, soc: usize, now: SimTime) {
        self.down_at[soc] = None;
        self.monitor.clear(soc, now);
        self.telemetry.add(FtCounter::SocsRestored, 1);
    }

    /// Closes the books at the horizon: anything still out of service eats
    /// downtime to the end, and workloads caught mid-retry are lost.
    fn finalize(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
        for rec in self.fates.values_mut() {
            if let Some(since) = rec.out_since.take() {
                rec.downtime += horizon.saturating_since(since);
                if rec.fate == WorkloadFate::Running {
                    rec.fate = WorkloadFate::Lost;
                    self.telemetry.add(FtCounter::WorkloadsLost, 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::OrchestratorConfig;

    fn live_v1() -> WorkloadSpec {
        WorkloadSpec::LiveStreamCpu {
            video: socc_video::vbench::by_id("V1").unwrap(),
        }
    }

    fn engine(seed: u64) -> RecoveryEngine {
        RecoveryEngine::new(
            OrchestratorConfig::default(),
            RecoveryConfig::default(),
            seed,
        )
    }

    fn fault(at_secs: u64, soc: usize, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(at_secs),
            soc,
            kind,
        }
    }

    #[test]
    fn crash_is_detected_and_workloads_migrate() {
        let mut eng = engine(1);
        let a = eng.submit(live_v1()).unwrap();
        let b = eng.submit(live_v1()).unwrap();
        eng.run(&[fault(10, 0, FaultKind::Flash)], SimTime::from_secs(60));
        assert_eq!(eng.telemetry().counter("ft.faults_detected"), 1);
        assert_eq!(eng.telemetry().counter("ft.detected.crash"), 1);
        assert_eq!(eng.telemetry().counter("ft.migrations"), 2);
        for id in [a, b] {
            let rec = eng.fates()[&id];
            assert_eq!(rec.fate, WorkloadFate::Running);
            assert_eq!(rec.migrations, 1);
            assert!(rec.downtime > SimDuration::ZERO);
        }
        // Crash is permanent: the slot stays dark.
        assert!(!eng.orchestrator().cluster().socs[0].healthy);
        assert!(eng.availability() < 1.0);
    }

    #[test]
    fn hang_is_power_cycled_and_soc_returns() {
        let mut eng = engine(2);
        eng.submit(live_v1()).unwrap();
        eng.run(&[fault(10, 0, FaultKind::SocHang)], SimTime::from_secs(120));
        assert_eq!(eng.telemetry().counter("ft.detected.hang"), 1);
        assert_eq!(eng.telemetry().counter("ft.power_cycles"), 1);
        assert_eq!(eng.telemetry().counter("ft.socs_restored"), 1);
        assert!(eng.orchestrator().cluster().socs[0].healthy);
    }

    #[test]
    fn thermal_trip_cools_down_and_returns() {
        let mut eng = engine(3);
        eng.submit(live_v1()).unwrap();
        eng.run(
            &[fault(10, 0, FaultKind::ThermalTrip)],
            SimTime::from_secs(300),
        );
        assert_eq!(eng.telemetry().counter("ft.detected.thermal_trip"), 1);
        assert_eq!(eng.telemetry().counter("ft.cooldowns"), 1);
        assert!(eng.orchestrator().cluster().socs[0].healthy);
    }

    #[test]
    fn tripped_soc_reads_trip_temperature_until_cooldown() {
        let mut eng = engine(3);
        eng.submit(live_v1()).unwrap();
        let schedule = FaultSchedule {
            soc: vec![fault(10, 0, FaultKind::ThermalTrip)],
            domain: Vec::new(),
        };
        eng.begin(&schedule, SimTime::from_secs(300));
        let read_dc = |eng: &mut RecoveryEngine| {
            let frame = encode_command(BmcCommand::ReadSocTemp(0));
            match eng.orch.bmc_frame(&frame) {
                Ok(crate::bmc::BmcResponse::TempDc(dc)) => dc,
                other => panic!("unexpected BMC answer {other:?}"),
            }
        };
        let (mut tripped_steps, mut cooled_steps) = (0, 0);
        while eng.step() {
            let now = eng.orchestrator().now();
            let dc = read_dc(&mut eng);
            // The override is the BMC's: the thermal model itself never
            // reaches the trip point.
            assert!(eng.orchestrator().cluster().temperature_c(0) < 95.0);
            if now < SimTime::from_secs(10) {
                assert!(dc < 950, "{dc} before the trip at {now}");
            } else if !eng.orchestrator().cluster().socs[0].healthy {
                assert_eq!(dc, 1050, "trip temperature lost at {now}");
                tripped_steps += 1;
            } else {
                assert!(dc < 950, "{dc} after the cooldown at {now}");
                cooled_steps += 1;
            }
        }
        eng.finish();
        // Detection at ~14 s, a 60 s cooldown: a minute of sweeps tripped.
        assert!(tripped_steps >= 60, "{tripped_steps} tripped steps");
        assert!(cooled_steps > 0, "the SoC never came back");
        assert_eq!(eng.telemetry().counter("ft.cooldowns"), 1);
    }

    #[test]
    fn link_loss_is_classified_and_repaired() {
        let mut eng = engine(4);
        eng.submit(live_v1()).unwrap();
        eng.run(
            &[fault(10, 0, FaultKind::LinkLoss)],
            SimTime::from_secs(300),
        );
        assert_eq!(eng.telemetry().counter("ft.detected.link_loss"), 1);
        assert_eq!(eng.telemetry().counter("ft.link_repairs"), 1);
        assert!(eng.orchestrator().cluster().socs[0].healthy);
        assert!(eng.routing.failed().next().is_none());
    }

    #[test]
    fn detection_latency_bounded_by_window_plus_interval() {
        let mut eng = engine(5);
        eng.submit(live_v1()).unwrap();
        eng.run(&[fault(10, 0, FaultKind::Flash)], SimTime::from_secs(60));
        let budget_ms =
            (eng.config.detection_window + eng.config.heartbeat_interval * 2u32).as_millis_f64();
        let seen = eng.telemetry().histogram_quantile("ft.detection_ms", 1.0);
        assert!(
            seen.is_some_and(|ms| ms <= budget_ms),
            "{seen:?} vs {budget_ms}"
        );
    }

    #[test]
    fn full_cluster_sheds_lowest_priority_work() {
        let mut eng = engine(6);
        // Fill every SoC with one never-ending archive job, then add live
        // streams on SoC 0's capacity… the cluster has no slack at all.
        let video = socc_video::vbench::by_id("V1").unwrap();
        let mut batch = Vec::new();
        while let Ok(id) = eng.submit(WorkloadSpec::ArchiveJob {
            video: video.clone(),
            frames: 100_000_000,
        }) {
            batch.push(id);
        }
        assert_eq!(batch.len(), 60);
        // Kill a SoC: its archive job must displace… nothing (batch never
        // preempts batch) → it is lost, not shed.
        eng.run(&[fault(10, 0, FaultKind::Flash)], SimTime::from_secs(120));
        assert_eq!(eng.telemetry().counter("ft.workloads_lost"), 1);
        assert_eq!(eng.telemetry().counter("ft.workloads_shed"), 0);
        let lost = eng
            .fates()
            .values()
            .filter(|r| r.fate == WorkloadFate::Lost)
            .count();
        assert_eq!(lost, 1);
    }

    #[test]
    fn interactive_work_preempts_batch_when_cornered() {
        let mut eng = engine(7);
        let video = socc_video::vbench::by_id("V1").unwrap();
        // Fill the whole cluster with batch, then swap one SoC's job for a
        // live stream so the fault victim is interactive.
        let mut ids = Vec::new();
        while let Ok(id) = eng.submit(WorkloadSpec::ArchiveJob {
            video: video.clone(),
            frames: 100_000_000,
        }) {
            ids.push(id);
        }
        eng.orch.finish(ids[0]).unwrap();
        let live = eng.submit(live_v1()).unwrap();
        assert_eq!(eng.orchestrator().placement_of(live), Some(0));
        eng.run(&[fault(10, 0, FaultKind::Flash)], SimTime::from_secs(120));
        // The live stream migrated by shedding one batch job elsewhere.
        let rec = eng.fates()[&live];
        assert_eq!(rec.fate, WorkloadFate::Running);
        assert!(eng.telemetry().counter("ft.workloads_shed") >= 1);
        assert!(eng.telemetry().counter("ft.retries") >= 1);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let run = || {
            let mut eng = engine(42);
            for _ in 0..30 {
                eng.submit(live_v1()).unwrap();
            }
            let faults = vec![
                fault(5, 0, FaultKind::Flash),
                fault(9, 1, FaultKind::SocHang),
                fault(14, 2, FaultKind::ThermalTrip),
                fault(21, 3, FaultKind::LinkLoss),
            ];
            eng.run(&faults, SimTime::from_secs(400));
            (eng.telemetry().render(), eng.availability())
        };
        let (ra, aa) = run();
        let (rb, ab) = run();
        assert_eq!(ra, rb);
        assert_eq!(aa, ab);
        assert!(!ra.is_empty());
    }

    #[test]
    fn second_fault_on_downed_soc_is_ignored() {
        let mut eng = engine(8);
        eng.submit(live_v1()).unwrap();
        eng.run(
            &[
                fault(10, 0, FaultKind::Flash),
                fault(20, 0, FaultKind::SocHang),
            ],
            SimTime::from_secs(60),
        );
        assert_eq!(eng.telemetry().counter("ft.faults_injected"), 2);
        assert_eq!(eng.telemetry().counter("ft.faults_detected"), 1);
    }

    #[test]
    fn board_down_evacuates_all_five_socs() {
        let mut eng = engine(11);
        // 65 streams: board 0 (socs 0..5) is full and stream 65 spills over.
        for _ in 0..65 {
            eng.submit(live_v1()).unwrap();
        }
        let schedule = FaultSchedule {
            soc: Vec::new(),
            domain: vec![crate::faults::DomainFaultEvent {
                at: SimTime::from_secs(10),
                fault: DomainFault::BoardDown { board: 0 },
            }],
        };
        eng.run_schedule(&schedule, SimTime::from_secs(120));
        assert_eq!(eng.telemetry().counter("ft.domain.board_down"), 1);
        assert_eq!(eng.telemetry().counter("ft.detected.crash"), 5);
        // Every stream survived the whole-board loss: 5 × 13 migrations.
        assert_eq!(eng.telemetry().counter("ft.migrations"), 65);
        assert!(eng
            .fates()
            .values()
            .all(|r| r.fate == WorkloadFate::Running));
        for soc in 0..5 {
            assert!(!eng.orchestrator().cluster().socs[soc].healthy);
            assert!(
                eng.orchestrator().cluster().socs[soc].used().cpu_pu == 0.0,
                "nothing may remain on the dead board"
            );
        }
        assert!(eng.orchestrator().verify_placement_index());
    }

    #[test]
    fn paced_evacuation_spreads_the_storm_without_losing_anyone() {
        let board_down = FaultSchedule {
            soc: Vec::new(),
            domain: vec![crate::faults::DomainFaultEvent {
                at: SimTime::from_secs(10),
                fault: DomainFault::BoardDown { board: 0 },
            }],
        };
        let run = |pacing: Option<EvacuationPacing>| {
            let mut eng = RecoveryEngine::new(
                OrchestratorConfig::default(),
                RecoveryConfig {
                    evacuation_pacing: pacing,
                    ..RecoveryConfig::default()
                },
                11,
            );
            for _ in 0..65 {
                eng.submit(live_v1()).unwrap();
            }
            eng.run_schedule(&board_down, SimTime::from_secs(120));
            eng
        };
        let unpaced = run(None);
        let paced = run(Some(EvacuationPacing::cluster_default()));
        // Pacing changes *when* evacuees are re-placed, never whether.
        for eng in [&unpaced, &paced] {
            assert_eq!(eng.telemetry().counter("ft.migrations"), 65);
            assert!(eng
                .fates()
                .values()
                .all(|r| r.fate == WorkloadFate::Running));
        }
        assert_eq!(unpaced.telemetry().counter("ft.evacuations_paced"), 0);
        // 65 victims in waves of 2: everyone past the first wave is held.
        assert_eq!(paced.telemetry().counter("ft.evacuations_paced"), 63);
        // The held waves trade a bounded sliver of availability for not
        // flooding the fabric: strictly more downtime, but within one
        // storm's worth of wave-times.
        assert!(paced.availability() < unpaced.availability());
        assert!(paced.availability() > unpaced.availability() - 0.01);
    }

    #[test]
    fn partition_is_detected_and_heals_without_loss() {
        let mut eng = engine(12);
        // Fill socs 0..25 so live work sits inside port group 1 (20..40).
        for _ in 0..(25 * 13) {
            eng.submit(live_v1()).unwrap();
        }
        let schedule = FaultSchedule {
            soc: Vec::new(),
            domain: vec![crate::faults::DomainFaultEvent {
                at: SimTime::from_secs(10),
                fault: DomainFault::FabricPartition {
                    group: 1,
                    duration: SimDuration::from_secs(60),
                },
            }],
        };
        eng.run_schedule(&schedule, SimTime::from_secs(200));
        // 20 SoCs went silent; the BMC side channel kept them from being
        // treated as crashes, so their local work ran right through.
        assert_eq!(eng.telemetry().counter("ft.partitions_detected"), 20);
        assert_eq!(eng.telemetry().counter("ft.detected.partitioned"), 20);
        assert_eq!(eng.telemetry().counter("ft.partitions_healed"), 1);
        assert_eq!(eng.telemetry().counter("ft.workloads_lost"), 0);
        assert_eq!(eng.telemetry().counter("ft.workloads_shed"), 0);
        assert_eq!(eng.telemetry().counter("ft.migrations"), 0);
        assert!(eng
            .fates()
            .values()
            .all(|r| r.fate == WorkloadFate::Running));
        assert_eq!(eng.availability(), 1.0, "local work never stopped");
        assert!(eng.orchestrator().cluster().socs.iter().all(|s| s.healthy));
        assert!(
            eng.routing.failed().next().is_none(),
            "uplinks repaired at heal"
        );
    }

    #[test]
    fn migration_avoids_partitioned_port_groups() {
        // Partition port group 0 (socs 0..20), then flash soc 25: the
        // displaced stream must not land in 0..20 even though those SoCs
        // look idle and healthy to the placement index, and must also dodge
        // soc 25's own board (25..30, soft anti-affinity with room left).
        let mut eng = engine(13);
        let video = socc_video::vbench::by_id("V1").unwrap();
        // Fill socs 0..25 fully with batch so the live stream lands on 25.
        for _ in 0..25 {
            eng.submit(WorkloadSpec::ArchiveJob {
                video: video.clone(),
                frames: 100_000_000,
            })
            .unwrap();
        }
        let live = eng.submit(live_v1()).unwrap();
        assert_eq!(eng.orchestrator().placement_of(live), Some(25));
        let schedule = FaultSchedule {
            soc: vec![fault(40, 25, FaultKind::Flash)],
            domain: vec![crate::faults::DomainFaultEvent {
                at: SimTime::from_secs(5),
                fault: DomainFault::FabricPartition {
                    group: 0,
                    duration: SimDuration::from_secs(120),
                },
            }],
        };
        eng.run_schedule(&schedule, SimTime::from_secs(90));
        // The displaced stream re-placed onto a reachable SoC: index ≥ 40
        // (0..20 partitioned at fault time, 20..25 full, 25 dead; board 5
        // holds socs 25..30 and is soft-avoided with room at 26).
        let rec = eng.fates()[&live];
        assert_eq!(rec.fate, WorkloadFate::Running);
        assert_eq!(rec.migrations, 1);
        let spots: Vec<usize> = (0..60)
            .filter(|&s| {
                s != 25
                    && !(0..25).contains(&s)
                    && eng.orchestrator().cluster().socs[s].used().cpu_pu > 0.0
            })
            .collect();
        assert_eq!(spots.len(), 1, "exactly one re-placed stream: {spots:?}");
        assert!(
            spots[0] >= 30,
            "must dodge the partitioned group AND the failed board: {spots:?}"
        );
    }

    #[test]
    fn soft_anti_affinity_falls_back_to_the_home_board() {
        let mut eng = engine(14);
        let video = socc_video::vbench::by_id("V1").unwrap();
        let mut ids = Vec::new();
        while let Ok(id) = eng.submit(WorkloadSpec::ArchiveJob {
            video: video.clone(),
            frames: 100_000_000,
        }) {
            ids.push(id);
        }
        // Free socs 0 and 1 (both on board 0), then put the live stream on
        // soc 0: after soc 0 dies, the only open slot shares its board.
        eng.orch.finish(ids[0]).unwrap();
        eng.orch.finish(ids[1]).unwrap();
        let live = eng.submit(live_v1()).unwrap();
        assert_eq!(eng.orchestrator().placement_of(live), Some(0));
        eng.run(&[fault(10, 0, FaultKind::Flash)], SimTime::from_secs(120));
        // Soft anti-affinity: falling back to board 0's remaining slot
        // beats shedding a batch job on another board.
        assert_eq!(eng.fates()[&live].fate, WorkloadFate::Running);
        assert_eq!(eng.telemetry().counter("ft.anti_affinity_fallbacks"), 1);
        assert_eq!(eng.telemetry().counter("ft.workloads_shed"), 0);
        assert!(eng.orchestrator().cluster().socs[1].used().cpu_pu > 0.0);
    }

    #[test]
    fn brownout_tightens_admission_and_sheds_batch() {
        let mut eng = engine(15);
        let video = socc_video::vbench::by_id("V1").unwrap();
        let mut batch = 0;
        while eng
            .submit(WorkloadSpec::ArchiveJob {
                video: video.clone(),
                frames: 100_000_000,
            })
            .is_ok()
        {
            batch += 1;
        }
        assert_eq!(batch, 60);
        let schedule = FaultSchedule {
            soc: Vec::new(),
            domain: vec![crate::faults::DomainFaultEvent {
                at: SimTime::from_secs(10),
                fault: DomainFault::PowerBrownout {
                    rail: 0,
                    duration: SimDuration::from_secs(60),
                },
            }],
        };
        // Drive with the stepping API so degraded-mode admission is
        // observable mid-run.
        eng.begin(&schedule, SimTime::from_secs(200));
        while eng.orchestrator().admission_floor().is_none() {
            assert!(eng.step(), "brownout never fired");
        }
        // Mid-brownout: batch is refused, interactive still admitted (the
        // sheds freed capacity).
        assert_eq!(
            eng.submit(WorkloadSpec::ArchiveJob {
                video: video.clone(),
                frames: 100
            })
            .unwrap_err(),
            AdmissionError::Degraded
        );
        eng.submit(live_v1()).unwrap();
        assert!(!eng.psu.fully_redundant());
        let shed = eng.telemetry().counter("ft.workloads_shed");
        // Half the PSU capacity retains well over half the throughput
        // (superlinear DVFS), so far fewer than half the jobs shed.
        assert!(shed > 0, "brownout must shed some batch work");
        assert!(shed < 30, "superlinear derating sheds a minority: {shed}");
        while eng.step() {}
        eng.finish();
        assert!(eng.orchestrator().admission_floor().is_none());
        assert!(eng.psu.fully_redundant());
        assert_eq!(eng.telemetry().counter("ft.brownouts_ended"), 1);
        assert_eq!(
            eng.fates()
                .values()
                .filter(|r| r.fate == WorkloadFate::Shed)
                .count() as u64,
            shed
        );
    }

    #[test]
    fn same_seed_domain_runs_are_byte_identical() {
        let run = || {
            let mut eng = engine(77);
            for _ in 0..120 {
                eng.submit(live_v1()).unwrap();
            }
            let schedule = FaultSchedule {
                soc: vec![
                    fault(8, 30, FaultKind::Flash),
                    fault(55, 31, FaultKind::SocHang),
                ],
                domain: vec![
                    crate::faults::DomainFaultEvent {
                        at: SimTime::from_secs(5),
                        fault: DomainFault::BoardDown { board: 0 },
                    },
                    crate::faults::DomainFaultEvent {
                        at: SimTime::from_secs(30),
                        fault: DomainFault::FabricPartition {
                            group: 2,
                            duration: SimDuration::from_secs(50),
                        },
                    },
                    crate::faults::DomainFaultEvent {
                        at: SimTime::from_secs(100),
                        fault: DomainFault::PowerBrownout {
                            rail: 1,
                            duration: SimDuration::from_secs(60),
                        },
                    },
                ],
            };
            eng.run_schedule(&schedule, SimTime::from_secs(400));
            (eng.telemetry().render(), eng.availability())
        };
        let (ra, aa) = run();
        let (rb, ab) = run();
        assert_eq!(ra, rb);
        assert_eq!(aa, ab);
        assert!(ra.contains("ft.domain.board_down"));
    }

    #[test]
    fn completions_and_fates_stay_consistent() {
        let mut eng = engine(9);
        let video = socc_video::vbench::by_id("V1").unwrap();
        // A short archive job that finishes before the fault.
        let short = eng
            .submit(WorkloadSpec::ArchiveJob {
                video: video.clone(),
                frames: 156,
            })
            .unwrap();
        let live = eng.submit(live_v1()).unwrap();
        eng.run(&[fault(30, 0, FaultKind::Flash)], SimTime::from_secs(90));
        assert_eq!(eng.fates()[&short].fate, WorkloadFate::Completed);
        assert_eq!(eng.fates()[&live].fate, WorkloadFate::Running);
        // No workload is both completed and lost — fates are single-valued
        // by construction, and the completed one has zero downtime.
        assert_eq!(eng.fates()[&short].downtime, SimDuration::ZERO);
    }
}
