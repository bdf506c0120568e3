//! The cluster orchestrator: admission, placement, power-state management,
//! failover — the "advanced software that can orchestrate multiple SoCs"
//! the paper calls for (§5.3, §8).

use std::collections::BTreeSet;
use std::ops::{Bound, Range};

use socc_hw::ledger::EnergyLedger;
use socc_hw::power::PowerState;
use socc_sim::hash::IdMap;
use socc_sim::series::EnergyMeter;
use socc_sim::span::{EventKind, EventLog, Scope};
use socc_sim::time::{SimDuration, SimTime};
use socc_sim::units::{Energy, Power};

use crate::cluster::{ClusterConfig, SocCluster};
use crate::placement_index::PlacementIndex;
use crate::priority::{priority_of, Priority};
use crate::soc::{Demand, SocUnit};
use crate::workload::{AdmissionError, SocProcessor, WorkloadId, WorkloadSpec};

/// Orchestrator construction parameters.
pub struct OrchestratorConfig {
    /// Cluster hardware configuration.
    pub cluster: ClusterConfig,
    /// Put an idle SoC to sleep after this long (None = never sleep).
    pub sleep_after: Option<SimDuration>,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            sleep_after: Some(SimDuration::from_secs(30)),
        }
    }
}

#[derive(Debug, Clone)]
struct Placed {
    spec: WorkloadSpec,
    soc: usize,
    demand: Demand,
    completes: Option<SimTime>,
}

/// One slot of the [`WorkloadTable`] slab.
// A vacant slot is as large as a used one on purpose: records live inline,
// and boxing them would bring back an allocation per arrival.
#[allow(clippy::large_enum_variant)]
enum Slot {
    Used(WorkloadId, Placed),
    /// A vacant slot, linking to the next vacant one.
    Free(Option<usize>),
}

/// The deployed workloads: `Placed` records in a slab whose vacant slots
/// thread a free list, found by id through a map of 16-byte entries. The
/// slot a finish frees is the first the next arrival takes, so it is
/// reused while still cached. Iteration runs in slot order; every reader
/// whose result depends on order sorts by id.
struct WorkloadTable {
    slots: Vec<Slot>,
    /// Head of the free list.
    free: Option<usize>,
    by_id: IdMap<WorkloadId, usize>,
}

impl WorkloadTable {
    fn with_capacity(n: usize) -> Self {
        Self {
            slots: Vec::with_capacity(n),
            free: None,
            by_id: IdMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    fn len(&self) -> usize {
        self.by_id.len()
    }

    fn get(&self, id: WorkloadId) -> Option<&Placed> {
        match &self.slots[*self.by_id.get(&id)?] {
            Slot::Used(_, placed) => Some(placed),
            Slot::Free(_) => unreachable!("the id map points at used slots only"),
        }
    }

    fn insert(&mut self, id: WorkloadId, placed: Placed) {
        let slot = match self.free {
            Some(slot) => {
                let Slot::Free(next) = self.slots[slot] else {
                    unreachable!("the free list links vacant slots only")
                };
                self.free = next;
                self.slots[slot] = Slot::Used(id, placed);
                slot
            }
            None => {
                self.slots.push(Slot::Used(id, placed));
                self.slots.len() - 1
            }
        };
        let previous = self.by_id.insert(id, slot);
        debug_assert!(previous.is_none(), "{id:?} deployed twice");
    }

    fn remove(&mut self, id: WorkloadId) -> Option<Placed> {
        let slot = self.by_id.remove(&id)?;
        match std::mem::replace(&mut self.slots[slot], Slot::Free(self.free)) {
            Slot::Used(_, placed) => {
                self.free = Some(slot);
                Some(placed)
            }
            Slot::Free(_) => unreachable!("the id map points at used slots only"),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (WorkloadId, &Placed)> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Used(id, placed) => Some((*id, placed)),
            Slot::Free(_) => None,
        })
    }
}

/// Orchestrator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrchestratorStats {
    /// Workloads admitted.
    pub admitted: u64,
    /// Workloads rejected at admission.
    pub rejected: u64,
    /// Workloads that ran to completion (archive) or were finished.
    pub completed: u64,
    /// SoC wake-ups performed to place work.
    pub wakeups: u64,
    /// Workload migrations after faults.
    pub migrations: u64,
    /// Workloads dropped because no healthy SoC could absorb them.
    pub dropped: u64,
}

/// The cluster orchestrator.
pub struct Orchestrator {
    cluster: SocCluster,
    /// Headroom index over `cluster.socs`, kept in lock-step with every
    /// place/release/decommission/restore so placement decides in
    /// O(log n) (see `placement_index` invariant 2).
    placement: PlacementIndex,
    /// Each SoC's total power, refreshed with the placement index by
    /// [`Self::soc_changed`]; every power reader sums this in slot order.
    soc_power: Vec<Power>,
    sleep_after: Option<SimDuration>,
    now: SimTime,
    meter: EnergyMeter,
    /// Set when an operation at the current instant may have changed
    /// server power; [`Self::sample_meter`] takes the instant's one
    /// sample before the clock moves on.
    meter_stale: bool,
    workloads: WorkloadTable,
    /// Archive-job deadlines of the deployed workloads, earliest first.
    deadlines: BTreeSet<(SimTime, WorkloadId)>,
    /// Scratch for id lists: the archive completions due at one event,
    /// or a failed SoC's victims.
    ids: Vec<WorkloadId>,
    /// Scratch for [`Self::submit_preempting`]'s eviction candidates.
    preempt: Vec<(Priority, WorkloadId)>,
    /// When each SoC last went idle: `Some` exactly while the SoC is
    /// healthy and awake-idle, so sleep deadlines are found without
    /// reading a `SocUnit`.
    idle_since: Vec<Option<SimTime>>,
    next_id: u64,
    stats: OrchestratorStats,
    completions: Vec<WorkloadId>,
    /// Degraded-mode admission floor: while set, submissions strictly
    /// below this priority are rejected with [`AdmissionError::Degraded`]
    /// (PSU brownout tightening; `None` = normal admission).
    admission_floor: Option<Priority>,
    /// Per-component energy ledger with PCB-board and PSU-rail roll-ups;
    /// its conservation identity is re-checked on every clock advance.
    ledger: EnergyLedger,
    /// Typed structured event log (placements, migrations, power
    /// transitions, faults) shared with the recovery engine. Off, and
    /// without a ring, until the recovery engine switches it on: a bare
    /// orchestrator, such as a fleet site, records nothing.
    events: EventLog,
}

/// Retained-event capacity of the orchestrator's ring (oldest events are
/// evicted first; `events().dropped()` counts evictions), reserved when
/// recording is first switched on.
const EVENT_CAPACITY: usize = 8192;

/// Relative tolerance of the per-tick energy-conservation check (the
/// ledger's rail roll-up is incremental, so only float roundoff — not
/// modelling error — may separate component-sum from rail-sum energy).
const CONSERVATION_REL_TOL: f64 = 1e-6;

impl Orchestrator {
    /// Creates an orchestrator over a fresh cluster.
    pub fn new(config: OrchestratorConfig) -> Self {
        let cluster = SocCluster::new(config.cluster);
        let soc_count = cluster.soc_count();
        let placement = PlacementIndex::new(&cluster.socs);
        let mut ledger = EnergyLedger::new(
            SimTime::ZERO,
            soc_count,
            socc_hw::calib::SOCS_PER_PCB,
            crate::faults::PSU_RAILS,
        );
        let mut soc_power = Vec::with_capacity(soc_count);
        for (i, soc) in cluster.socs.iter().enumerate() {
            let powers = soc.component_powers();
            ledger.set_soc_power(SimTime::ZERO, i, powers);
            soc_power.push(powers.total());
        }
        ledger.set_chassis_power(SimTime::ZERO, cluster.chassis_power());
        let initial_power = soc_power.iter().copied().sum::<Power>() + cluster.chassis_power();
        Self {
            cluster,
            placement,
            soc_power,
            sleep_after: config.sleep_after,
            now: SimTime::ZERO,
            meter: EnergyMeter::new(SimTime::ZERO, initial_power),
            meter_stale: false,
            workloads: WorkloadTable::with_capacity(soc_count),
            deadlines: BTreeSet::new(),
            // Room for a SoC's worth of ids and of one instant's
            // completions, so their first use allocates nothing.
            ids: Vec::with_capacity(16),
            preempt: Vec::new(),
            idle_since: vec![Some(SimTime::ZERO); soc_count],
            next_id: 0,
            stats: OrchestratorStats::default(),
            completions: Vec::with_capacity(16),
            admission_floor: None,
            ledger,
            events: EventLog::disabled(EVENT_CAPACITY),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable view of the cluster.
    pub fn cluster(&self) -> &SocCluster {
        &self.cluster
    }

    /// Mutable cluster access for in-crate recovery machinery (BMC probes
    /// need `&mut` because protocol frames run through the command queue).
    pub(crate) fn cluster_mut(&mut self) -> &mut SocCluster {
        &mut self.cluster
    }

    /// Orchestration statistics so far.
    pub fn stats(&self) -> OrchestratorStats {
        self.stats
    }

    /// Total server power right now: the cached per-SoC totals summed in
    /// slot order plus chassis power — bit-identical to
    /// `SocCluster::total_power`.
    pub fn power(&self) -> Power {
        self.soc_power.iter().copied().sum::<Power>() + self.cluster.chassis_power()
    }

    /// Energy consumed by the whole server since t=0. A meter not yet
    /// sampled at this instant reads the same bits: its pending sample
    /// would add `acc + p·Δt` and then `p'·0`.
    pub fn energy(&self) -> Energy {
        self.meter.energy_at(self.now)
    }

    /// The per-component energy ledger (CPU/codec/GPU/DSP/memory per SoC,
    /// rolled up to PCB boards and PSU rails).
    pub fn energy_ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Re-checks the ledger's conservation identity at the current clock:
    /// component-sum energy must equal PSU-rail-sum energy within
    /// `rel_tol`. Returns the observed relative error on failure.
    pub fn verify_energy_conservation(&self, rel_tol: f64) -> Result<(), f64> {
        self.ledger.verify_conservation(self.now, rel_tol)
    }

    /// The typed structured event log: empty unless a recovery engine
    /// owns this orchestrator and has recording on.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Mutable event-log access: enable/disable recording, restrict
    /// scopes, clear, or record additional events (the recovery engine
    /// threads its fault/detector/recovery chain through here so one log
    /// carries the whole causal story).
    pub(crate) fn events_mut(&mut self) -> &mut EventLog {
        &mut self.events
    }

    /// Number of currently deployed workloads.
    pub fn active_workloads(&self) -> usize {
        self.workloads.len()
    }

    /// Books chassis power in the ledger and marks the meter stale. SoC
    /// power reached the ledger already, from [`Self::soc_changed`], when
    /// it changed. The ledger is booked here, not deferred: where its rail
    /// nudges fall among the SoC deltas is part of its bits.
    fn record_power(&mut self) {
        self.ledger
            .set_chassis_power(self.now, self.cluster.chassis_power());
        self.meter_stale = true;
    }

    /// Samples server power into the meter if an operation marked it
    /// stale at the current instant. Called just before the clock moves.
    /// A same-instant `EnergyMeter::set_power` adds `current × 0 = +0.0`,
    /// so only an instant's last sample counts, and this one sample leaves
    /// the meter bit-identical to sampling after every operation.
    fn sample_meter(&mut self) {
        if !self.meter_stale {
            return;
        }
        debug_assert!(
            self.cluster
                .socs
                .iter()
                .map(SocUnit::total_power)
                .eq(self.soc_power.iter().copied()),
            "per-SoC power cache is stale"
        );
        self.meter.set_power(self.now, self.power());
        self.meter_stale = false;
    }

    /// The per-SoC change hook. Every code path that mutates a SoC's
    /// resources, health or power state must call this before the next
    /// placement decision or power reading: it re-summarizes the slot in
    /// the placement index, books the slot's new component powers in the
    /// ledger and caches its total.
    fn soc_changed(&mut self, soc: usize) {
        let unit = &self.cluster.socs[soc];
        self.placement.update(soc, unit);
        let powers = unit.component_powers();
        self.ledger.set_soc_power(self.now, soc, powers);
        self.soc_power[soc] = powers.total();
    }

    /// Translates a spec into a per-SoC resource demand and (for archive
    /// jobs) a completion time offset.
    fn demand_for(
        &self,
        spec: &WorkloadSpec,
    ) -> Result<(Demand, Option<SimDuration>), AdmissionError> {
        match spec {
            WorkloadSpec::LiveStreamCpu { video } => Ok((
                Demand {
                    cpu_pu: video.cpu_cost_pu(),
                    net_mbps: video.stream_traffic().as_mbps(),
                    mem_gb: 0.3,
                    ..Default::default()
                },
                None,
            )),
            WorkloadSpec::LiveStreamHw { video } => {
                let codec = &self.cluster.socs[0].spec.codec;
                Ok((
                    Demand {
                        codec_mb_s: video.hw_cost_mb_s(),
                        codec_sessions: 1,
                        cpu_pu: codec.delegation_cpu_pu_per_session,
                        net_mbps: video.stream_traffic().as_mbps(),
                        mem_gb: 0.3,
                        ..Default::default()
                    },
                    None,
                ))
            }
            WorkloadSpec::ArchiveJob { video, frames } => {
                let fps = socc_video::TranscodeUnit::SocCpu
                    .archive_fps(video)
                    .ok_or(AdmissionError::Unsupported)?;
                if fps <= 0.0 {
                    return Err(AdmissionError::Unsupported);
                }
                let runtime = SimDuration::from_secs_f64(*frames as f64 / fps);
                Ok((
                    Demand {
                        cpu_pu: socc_hw::calib::SOC_CPU_TRANSCODE_PU,
                        mem_gb: 0.5,
                        ..Default::default()
                    },
                    Some(runtime),
                ))
            }
            WorkloadSpec::DlServe {
                processor,
                model,
                dtype,
                offered_fps,
            } => {
                let engine = processor.engine();
                let capacity = engine
                    .max_throughput(*model, *dtype)
                    .ok_or(AdmissionError::Unsupported)?;
                let frac = offered_fps / capacity;
                if frac > 1.0 + 1e-9 {
                    return Err(AdmissionError::NoCapacity);
                }
                let weights_gb = model.graph().weight_bytes(*dtype) / 1e9;
                let mem_gb = weights_gb * 1.5 + 0.8;
                let mut demand = Demand {
                    mem_gb,
                    ..Default::default()
                };
                match processor {
                    SocProcessor::Cpu => {
                        demand.cpu_pu = frac * socc_hw::calib::SOC_CPU_TRANSCODE_PU;
                    }
                    SocProcessor::Gpu => demand.gpu_frac = frac,
                    SocProcessor::Dsp => demand.dsp_frac = frac,
                }
                Ok((demand, None))
            }
            WorkloadSpec::GamingSession { stream_mbps } => Ok((
                Demand {
                    gpu_frac: 0.125,
                    cpu_pu: 300.0,
                    net_mbps: *stream_mbps,
                    mem_gb: 1.2,
                    ..Default::default()
                },
                None,
            )),
        }
    }

    /// Submits a workload; places it on a SoC or rejects it.
    pub fn submit(&mut self, spec: WorkloadSpec) -> Result<WorkloadId, AdmissionError> {
        self.submit_clone(&spec, None)
    }

    /// Submits a copy of `spec`, made only if it is admitted, so a caller
    /// that retries keeps its own. `avoid` places like
    /// [`Self::submit_avoiding`]; `None` places like [`Self::submit`].
    pub(crate) fn submit_clone(
        &mut self,
        spec: &WorkloadSpec,
        avoid: Option<&[Range<usize>]>,
    ) -> Result<WorkloadId, AdmissionError> {
        let mut admitted = None;
        self.admit(spec, 1, avoid, |id| admitted = Some(id))?;
        Ok(admitted.expect("an accepted count-1 admission places one copy"))
    }

    /// Submits a borrowed spec; if the cluster is full and the workload
    /// outranks running batch work, evicts just enough lower-priority
    /// workloads to fit. The spec is copied only if admitted; evicted ids go
    /// to `evicted` (cleared first) so callers can requeue them, and the
    /// candidates are sorted in the orchestrator's own scratch, so a call
    /// allocates nothing once the buffers have grown.
    pub(crate) fn submit_preempting(
        &mut self,
        spec: &WorkloadSpec,
        evicted: &mut Vec<WorkloadId>,
    ) -> Result<WorkloadId, AdmissionError> {
        evicted.clear();
        match self.submit_clone(spec, None) {
            Ok(id) => Ok(id),
            // Unsupported shapes can never run; a below-floor priority in a
            // brownout must not evict its way past the floor either.
            Err(e @ (AdmissionError::Unsupported | AdmissionError::Degraded)) => Err(e),
            Err(_) => {
                let want = priority_of(spec);
                // Victims strictly below the incoming priority, lowest
                // class first, newest first (cheapest restart).
                let mut victims = std::mem::take(&mut self.preempt);
                victims.clear();
                let below = || {
                    self.workloads.iter().filter_map(|(id, placed)| {
                        let p = priority_of(&placed.spec);
                        (p < want).then_some((p, id))
                    })
                };
                victims.reserve(below().count());
                victims.extend(below());
                victims.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
                // With nothing (more) to evict, any evictions already made
                // freed capacity the incoming workload still could not use,
                // so the demand shape is the blocker: report the rejection.
                let mut admitted = Err(AdmissionError::NoCapacity);
                for &(_, victim) in &victims {
                    self.finish(victim).expect("victim exists");
                    evicted.push(victim);
                    if let Ok(id) = self.submit_clone(spec, None) {
                        admitted = Ok(id);
                        break;
                    }
                }
                self.preempt = victims;
                admitted
            }
        }
    }

    /// Submits a workload like [`Self::submit`] but never places it inside
    /// any of the `avoid` slot ranges — the anti-affinity path recovery
    /// uses to keep a retried workload off its just-failed board and out
    /// of partitioned port groups.
    pub(crate) fn submit_avoiding(
        &mut self,
        spec: WorkloadSpec,
        avoid: &[Range<usize>],
    ) -> Result<WorkloadId, AdmissionError> {
        self.submit_clone(&spec, Some(avoid))
    }

    /// While set, submissions strictly below `floor` are rejected with
    /// [`AdmissionError::Degraded`] (brownout admission tightening).
    pub(crate) fn set_admission_floor(&mut self, floor: Option<Priority>) {
        self.admission_floor = floor;
    }

    /// The current degraded-mode admission floor, if any.
    #[cfg(test)]
    pub(crate) fn admission_floor(&self) -> Option<Priority> {
        self.admission_floor
    }

    /// The one admission path: places up to `count` copies of `spec` at
    /// the current instant, hands each new id to `on_admit`, and stops at
    /// the first refusal, which it returns. Copies keep filling the open
    /// SoC while it still [`SocUnit::fits`] one — exactly the SoC the next
    /// first fit would return, since no lower slot gained room — and each
    /// SoC fill is booked once, with one [`Self::soc_changed`] and one
    /// [`Self::record_power`]. So a count-1 call books exactly as a single
    /// submit always did, and a larger one leaves the SoCs, the meter and
    /// every per-SoC and chassis ledger energy as `count` single submits
    /// would; only the ledger's incrementally nudged rail roll-up can
    /// differ, by roundoff. With `avoid`, no copy lands inside those slot
    /// ranges.
    pub(crate) fn admit(
        &mut self,
        spec: &WorkloadSpec,
        count: usize,
        avoid: Option<&[Range<usize>]>,
        mut on_admit: impl FnMut(WorkloadId),
    ) -> Result<(), AdmissionError> {
        if count == 0 {
            return Ok(());
        }
        if let Some(floor) = self.admission_floor {
            if priority_of(spec) < floor {
                self.stats.rejected += 1;
                return Err(AdmissionError::Degraded);
            }
        }
        let (demand, runtime) = self.demand_for(spec)?;
        let mut left = count;
        loop {
            let placed_at = match avoid {
                None => self.placement.first_fit(&demand, &self.cluster.socs),
                Some(avoid) => self
                    .placement
                    .first_fit_outside(&demand, &self.cluster.socs, avoid),
            };
            let Some(soc) = placed_at else {
                self.stats.rejected += 1;
                return Err(AdmissionError::NoCapacity);
            };
            let filled = left;
            let mut refused = None;
            loop {
                if demand.net_mbps > 0.0 && !self.cluster.fits_network(soc, demand.net_mbps) {
                    refused = Some(AdmissionError::NetworkBound);
                    break;
                }
                if !self.cluster.socs[soc].state.is_serving() {
                    self.stats.wakeups += 1;
                    self.cluster.bmc.count_event();
                    self.events
                        .record(self.now, Scope::Power, EventKind::Wake { soc: soc as u32 });
                }
                self.cluster.socs[soc].place(&demand);
                let id = WorkloadId(self.next_id);
                self.next_id += 1;
                self.events.record(
                    self.now,
                    Scope::Placement,
                    EventKind::Placed {
                        workload: id.0,
                        soc: soc as u32,
                    },
                );
                self.deploy(
                    id,
                    Placed {
                        spec: spec.clone(),
                        soc,
                        demand,
                        completes: runtime.map(|d| self.now + d),
                    },
                );
                self.stats.admitted += 1;
                on_admit(id);
                left -= 1;
                if left == 0 || !self.cluster.socs[soc].fits(&demand) {
                    break;
                }
            }
            if left < filled {
                self.soc_changed(soc);
                self.idle_since[soc] = None;
                self.record_power();
            }
            if let Some(refusal) = refused {
                self.stats.rejected += 1;
                return Err(refusal);
            }
            if left == 0 {
                return Ok(());
            }
        }
    }

    /// The SoC a workload currently runs on.
    pub fn placement_of(&self, id: WorkloadId) -> Option<usize> {
        self.workloads.get(id).map(|p| p.soc)
    }

    /// The spec of a deployed workload.
    pub fn spec_of(&self, id: WorkloadId) -> Option<&WorkloadSpec> {
        self.workloads.get(id).map(|p| &p.spec)
    }

    /// Ids of all deployed workloads, ascending.
    pub fn workload_ids(&self) -> Vec<WorkloadId> {
        let mut ids = Vec::with_capacity(self.workloads.len());
        self.workload_ids_where(&mut ids, |_| true);
        ids
    }

    /// Fills `ids` (cleared first) with the ids of the deployed workloads
    /// whose spec satisfies `keep`, ascending. The buffer grows at most
    /// once, to the exact count.
    pub(crate) fn workload_ids_where(
        &self,
        ids: &mut Vec<WorkloadId>,
        keep: impl Fn(&WorkloadSpec) -> bool,
    ) {
        ids.clear();
        let kept = || self.workloads.iter().filter(|(_, p)| keep(&p.spec));
        ids.reserve(kept().count());
        ids.extend(kept().map(|(id, _)| id));
        ids.sort_unstable();
    }

    /// Explicitly finishes a workload (live streams, DL serving).
    pub fn finish(&mut self, id: WorkloadId) -> Result<(), AdmissionError> {
        self.finish_all(std::slice::from_ref(&id))
    }

    /// Finishes `ids` in order, stopping at the first one not deployed
    /// ([`AdmissionError::Unsupported`]). A SoC is re-booked once per run
    /// of consecutive ids placed on it, so a window's departures, grouped
    /// by SoC, cost one booking per SoC; [`Self::finish`] is the one-id
    /// case and books as a single finish always did.
    pub(crate) fn finish_all(&mut self, ids: &[WorkloadId]) -> Result<(), AdmissionError> {
        let (finished, result) = self.release_all(ids);
        if finished > 0 {
            self.record_power();
        }
        result
    }

    /// Drains the ids of workloads that completed (finished explicitly or
    /// ran to their archive deadline) since the last call, in completion
    /// order. The buffer keeps its capacity, so dropping the iterator
    /// unread clears the backlog without allocating.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, WorkloadId> {
        self.completions.drain(..)
    }

    /// Adds a workload to the deployment, indexing its deadline.
    fn deploy(&mut self, id: WorkloadId, placed: Placed) {
        if let Some(t) = placed.completes {
            self.deadlines.insert((t, id));
        }
        self.workloads.insert(id, placed);
    }

    /// Removes a workload from the deployment, forgetting its deadline.
    fn undeploy(&mut self, id: WorkloadId) -> Option<Placed> {
        let placed = self.workloads.remove(id)?;
        if let Some(t) = placed.completes {
            self.deadlines.remove(&(t, id));
        }
        Some(placed)
    }

    /// The one release path: undeploys `ids` in order and frees their
    /// demands, calling [`Self::soc_changed`] once per run of consecutive
    /// ids on one SoC. Stops at the first id not deployed. Returns how many
    /// were released; the caller books chassis power.
    fn release_all(&mut self, ids: &[WorkloadId]) -> (usize, Result<(), AdmissionError>) {
        // The SoC of the run being released, not yet re-booked.
        let mut open = None;
        let mut finished = 0;
        let mut result = Ok(());
        for &id in ids {
            let Some(placed) = self.undeploy(id) else {
                result = Err(AdmissionError::Unsupported);
                break;
            };
            if let Some(soc) = open.take_if(|soc| *soc != placed.soc) {
                self.released(soc);
            }
            let unit = &mut self.cluster.socs[placed.soc];
            if unit.healthy {
                unit.release(&placed.demand);
                open = Some(placed.soc);
            }
            self.stats.completed += 1;
            self.completions.push(id);
            self.events.record(
                self.now,
                Scope::Placement,
                EventKind::Finished {
                    workload: id.0,
                    soc: placed.soc as u32,
                },
            );
            finished += 1;
        }
        if let Some(soc) = open {
            self.released(soc);
        }
        (finished, result)
    }

    /// Re-books a healthy SoC after releases, starting its idle clock if
    /// it emptied.
    fn released(&mut self, soc: usize) {
        if self.cluster.socs[soc].is_idle() {
            self.idle_since[soc] = Some(self.now);
        }
        self.soc_changed(soc);
    }

    /// Next internally scheduled event (archive completion or sleep
    /// deadline) at or before `horizon`.
    fn next_event(&self, horizon: SimTime) -> Option<SimTime> {
        // A deadline at or before `now` (a zero-runtime job) is no event
        // of its own: it fires with the next one.
        let after_now = (
            Bound::Excluded((self.now, WorkloadId(u64::MAX))),
            Bound::Unbounded,
        );
        let completion = self.deadlines.range(after_now).next().map(|&(t, _)| t);
        debug_assert!(
            self.idle_since
                .iter()
                .zip(&self.cluster.socs)
                .all(|(t, s)| t.is_some() == (s.healthy && s.state == PowerState::Idle)),
            "idle_since must be set exactly on healthy awake-idle SoCs"
        );
        let sleep = self.sleep_after.and_then(|after| {
            self.idle_since
                .iter()
                .filter_map(|t| t.map(|t| t + after))
                .filter(|&t| t > self.now)
                .min()
        });
        [completion, sleep]
            .into_iter()
            .flatten()
            .filter(|&t| t <= horizon)
            .min()
    }

    /// Advances the clock to `t`, processing archive completions and
    /// sleep-state transitions in order.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance backwards");
        let start = self.now;
        while let Some(event_time) = self.next_event(t) {
            self.sample_meter();
            self.now = event_time;
            // Archive completions due now, id-sorted: completion order is
            // observable through `drain_completions`.
            let mut due = std::mem::take(&mut self.ids);
            let due_now = self.deadlines.iter().take_while(|&&(t, _)| t <= event_time);
            due.extend(due_now.map(|&(_, id)| id));
            due.sort_unstable();
            self.release_all(&due)
                .1
                .expect("due workloads are deployed");
            due.clear();
            self.ids = due;
            // Sleep transitions due now, in slot order.
            if let Some(after) = self.sleep_after {
                for i in 0..self.idle_since.len() {
                    if self.idle_since[i].is_some_and(|since| since + after <= event_time) {
                        self.idle_since[i] = None;
                        self.cluster.socs[i].state = PowerState::Sleep;
                        self.soc_changed(i);
                        self.cluster.bmc.count_event();
                        self.events.record(
                            event_time,
                            Scope::Power,
                            EventKind::Sleep { soc: i as u32 },
                        );
                    }
                }
            }
            self.record_power();
        }
        self.sample_meter();
        self.now = t;
        self.cluster
            .step_thermal(t.saturating_since(start), &self.soc_power);
        self.cluster.refresh_bmc(&self.soc_power);
        // Energy-conservation tick: the per-component ledger and the
        // incrementally maintained PSU-rail roll-up must tell the same
        // story. A bookkeeping bug on either side fails loudly here.
        if let Err(rel) = self.ledger.advance_verified(t, CONSERVATION_REL_TOL) {
            panic!("energy ledger conservation violated at {t}: relative error {rel:.3e}");
        }
    }

    /// Kills a SoC (flash/SoC failure, §8) and migrates its workloads to
    /// healthy SoCs; workloads that fit nowhere are dropped.
    pub fn inject_fault(&mut self, soc: usize) {
        if !self.cluster.socs[soc].healthy {
            return;
        }
        self.cluster.socs[soc].decommission();
        self.soc_changed(soc);
        self.idle_since[soc] = None;
        self.cluster.bmc.count_event();
        self.events.record(
            self.now,
            Scope::Fault,
            EventKind::SocOff { soc: soc as u32 },
        );
        // Id order: victims compete for the same headroom, so the order
        // they are re-placed in decides where each lands.
        let mut victims: Vec<WorkloadId> = self
            .workloads
            .iter()
            .filter(|(_, p)| p.soc == soc)
            .map(|(id, _)| id)
            .collect();
        victims.sort_unstable();
        for id in victims {
            let mut placed = self.undeploy(id).expect("victim exists");
            match self.placement.first_fit(&placed.demand, &self.cluster.socs) {
                Some(target)
                    if placed.demand.net_mbps == 0.0
                        || self.cluster.fits_network(target, placed.demand.net_mbps) =>
                {
                    if !self.cluster.socs[target].state.is_serving() {
                        self.stats.wakeups += 1;
                    }
                    self.cluster.socs[target].place(&placed.demand);
                    self.soc_changed(target);
                    self.idle_since[target] = None;
                    placed.soc = target;
                    self.stats.migrations += 1;
                    self.cluster.bmc.count_event();
                    self.events.record(
                        self.now,
                        Scope::Recovery,
                        EventKind::Migrated {
                            workload: id.0,
                            soc: target as u32,
                        },
                    );
                    self.deploy(id, placed);
                }
                _ => {
                    self.stats.dropped += 1;
                    self.cluster.bmc.count_event();
                    self.events.record(
                        self.now,
                        Scope::Recovery,
                        EventKind::WorkloadDropped { workload: id.0 },
                    );
                }
            }
        }
        self.record_power();
    }

    /// Takes a SoC out of service *without* migrating its workloads:
    /// decommissions the slot and returns the stranded workloads (id and
    /// spec, id-sorted) so a recovery policy can re-place them on its own
    /// schedule. This is the primitive the fault-tolerance loop builds on —
    /// unlike [`Self::inject_fault`], nothing is silently dropped here.
    pub fn fail_soc(&mut self, soc: usize) -> Vec<(WorkloadId, WorkloadSpec)> {
        let mut stranded = Vec::new();
        self.fail_soc_into(soc, &mut stranded);
        stranded
    }

    /// [`Self::fail_soc`], appending the stranded workloads (id-sorted) to
    /// a caller's buffer instead of returning a fresh one.
    pub(crate) fn fail_soc_into(
        &mut self,
        soc: usize,
        stranded: &mut Vec<(WorkloadId, WorkloadSpec)>,
    ) {
        if !self.cluster.socs[soc].healthy {
            return;
        }
        self.cluster.socs[soc].decommission();
        self.soc_changed(soc);
        self.idle_since[soc] = None;
        self.cluster.bmc.count_event();
        self.events.record(
            self.now,
            Scope::Fault,
            EventKind::SocOff { soc: soc as u32 },
        );
        let mut victims = std::mem::take(&mut self.ids);
        victims.clear();
        let on_soc = || {
            self.workloads
                .iter()
                .filter(|(_, p)| p.soc == soc)
                .map(|(id, _)| id)
        };
        victims.reserve(on_soc().count());
        victims.extend(on_soc());
        victims.sort_unstable();
        stranded.reserve(victims.len());
        for id in victims.drain(..) {
            let placed = self.undeploy(id).expect("victim exists");
            stranded.push((id, placed.spec));
        }
        self.ids = victims;
        // The meter and ledger must see the slot go dark *now*: without a
        // record here, energy until the next power-recording operation
        // would be billed at the pre-fault level — a whole-site blackout
        // (every SoC failed, nothing submitted until power returns) would
        // never flatline.
        self.record_power();
    }

    /// Returns a previously failed SoC to service (post power-cycle,
    /// cooldown or link repair). Returns `false` if the SoC was healthy
    /// already.
    pub fn restore_soc(&mut self, soc: usize) -> bool {
        if self.cluster.socs[soc].healthy {
            return false;
        }
        self.cluster.socs[soc].restore();
        self.soc_changed(soc);
        self.idle_since[soc] = Some(self.now);
        self.cluster.bmc.count_event();
        self.events.record(
            self.now,
            Scope::Recovery,
            EventKind::SocRestored { soc: soc as u32 },
        );
        self.record_power();
        true
    }

    /// Sends one wire frame to the BMC and returns its response. Recovery
    /// tooling uses the same framed protocol an external management agent
    /// would (§2.2), rather than reaching into simulator state.
    pub fn bmc_frame(
        &mut self,
        frame: &[u8],
    ) -> Result<crate::bmc::BmcResponse, crate::bmc::BmcProtocolError> {
        self.cluster.bmc.handle_frame(frame)
    }

    /// Applies power-state change commands queued at the BMC by
    /// `SetSocPowerState` frames: `Off` decommissions a healthy SoC (its
    /// workloads must have been evacuated first), `Idle`/`Active` restore a
    /// failed one. Returns the number of transitions applied.
    pub fn apply_bmc_state_changes(&mut self) -> usize {
        let mut applied = 0;
        while let Some((soc, state)) = self.cluster.bmc.next_state_change() {
            match state {
                PowerState::Off | PowerState::Sleep => {
                    if self.cluster.socs[soc].healthy {
                        self.cluster.socs[soc].decommission();
                        self.soc_changed(soc);
                        self.idle_since[soc] = None;
                        self.cluster.bmc.count_event();
                        self.events.record(
                            self.now,
                            Scope::Power,
                            EventKind::SocOff { soc: soc as u32 },
                        );
                        applied += 1;
                    }
                }
                PowerState::Idle | PowerState::Active => {
                    if self.restore_soc(soc) {
                        applied += 1;
                    }
                }
            }
        }
        if applied > 0 {
            self.record_power();
        }
        applied
    }

    /// Overrides one SoC's BMC temperature reading (deci-°C granularity at
    /// the wire). The thermal model overwrites this on the next
    /// [`Self::advance_to`]; a thermal trip ([`Self::set_thermal_trip`])
    /// outlasts it.
    pub(crate) fn set_soc_temp(&mut self, soc: usize, temp_c: f64) {
        self.cluster.bmc.set_temp(soc, temp_c);
    }

    /// Puts a SoC into (or takes it out of) thermal-trip shutdown at the
    /// BMC: while tripped, its temperature reads
    /// [`crate::bmc::TRIP_TEMP_C`] across every advance.
    pub(crate) fn set_thermal_trip(&mut self, soc: usize, tripped: bool) {
        self.cluster.bmc.set_tripped(soc, tripped);
    }

    /// Cross-checks the incrementally maintained placement index against
    /// a linear scan of the live fleet for a spread of probe demands
    /// (placement-index invariant 2). Returns `true` when every indexed
    /// first fit is byte-identical to the scan — the chaos campaigns call
    /// this after every fault step and treat `false` as an invariant
    /// violation. (A debug build panics first, in `first_fit`'s own
    /// cross-check.)
    pub fn verify_placement_index(&self) -> bool {
        let probes = [
            Demand::default(),
            Demand {
                cpu_pu: 248.8,
                net_mbps: 3.0,
                mem_gb: 0.3,
                ..Default::default()
            },
            Demand {
                cpu_pu: socc_hw::calib::SOC_CPU_TRANSCODE_PU,
                mem_gb: 0.5,
                ..Default::default()
            },
            Demand {
                gpu_frac: 0.125,
                cpu_pu: 300.0,
                net_mbps: 8.0,
                mem_gb: 1.2,
                ..Default::default()
            },
            // Venus hardware-codec sessions: the codec dimensions (MB/s
            // throughput plus the session cap) and the §4.4 delegation
            // daemon's CPU tax, as `demand_for` builds for LiveStreamHw.
            Demand {
                codec_mb_s: socc_video::vbench::by_id("V3")
                    .expect("V3 is in the catalogue")
                    .hw_cost_mb_s(),
                codec_sessions: 1,
                cpu_pu: self.cluster.socs[0]
                    .spec
                    .codec
                    .delegation_cpu_pu_per_session,
                net_mbps: 8.3,
                mem_gb: 0.3,
                ..Default::default()
            },
            Demand {
                codec_mb_s: socc_video::vbench::by_id("V6")
                    .expect("V6 is in the catalogue")
                    .hw_cost_mb_s(),
                codec_sessions: 1,
                cpu_pu: self.cluster.socs[0]
                    .spec
                    .codec
                    .delegation_cpu_pu_per_session,
                net_mbps: 65.6,
                mem_gb: 0.3,
                ..Default::default()
            },
        ];
        probes.iter().all(|d| {
            self.placement.first_fit(d, &self.cluster.socs)
                == self.cluster.socs.iter().position(|s| s.fits(d))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use socc_dl::{DType, ModelId};
    use socc_hw::ledger::Component;

    fn orch() -> Orchestrator {
        Orchestrator::new(OrchestratorConfig::default())
    }

    fn live_v1() -> WorkloadSpec {
        WorkloadSpec::LiveStreamCpu {
            video: socc_video::vbench::by_id("V1").unwrap(),
        }
    }

    #[test]
    fn submit_and_finish_roundtrip() {
        let mut o = orch();
        let id = o.submit(live_v1()).unwrap();
        assert_eq!(o.active_workloads(), 1);
        assert_eq!(o.placement_of(id), Some(0)); // bin-pack starts at 0
        o.finish(id).unwrap();
        assert_eq!(o.active_workloads(), 0);
        assert_eq!(o.stats().completed, 1);
    }

    #[test]
    fn soc_capacity_binds_at_table3_counts() {
        let mut o = orch();
        // One SoC takes 13 V1 streams (Table 3); bin-pack fills SoC 0 then 1.
        for i in 0..14 {
            let id = o.submit(live_v1()).unwrap();
            let expected = if i < 13 { 0 } else { 1 };
            assert_eq!(o.placement_of(id), Some(expected), "stream {i}");
        }
    }

    #[test]
    fn cluster_fills_to_780_v1_streams() {
        // Table 3 × 60 SoCs: 13 × 60 = 780 CPU streams of V1.
        let mut o = orch();
        let mut admitted = 0;
        while o.submit(live_v1()).is_ok() {
            admitted += 1;
        }
        assert_eq!(admitted, 780);
    }

    #[test]
    fn archive_jobs_complete_on_their_own() {
        let mut o = orch();
        let video = socc_video::vbench::by_id("V1").unwrap();
        // 156 frames at 15.6 fps = 10 s.
        o.submit(WorkloadSpec::ArchiveJob { video, frames: 156 })
            .unwrap();
        o.advance_to(SimTime::from_secs(5));
        assert_eq!(o.active_workloads(), 1);
        o.advance_to(SimTime::from_secs(11));
        assert_eq!(o.active_workloads(), 0);
        assert_eq!(o.stats().completed, 1);
    }

    #[test]
    fn idle_socs_sleep_and_power_drops() {
        let mut o = orch();
        let id = o.submit(live_v1()).unwrap();
        o.advance_to(SimTime::from_secs(10));
        o.finish(id).unwrap();
        let before_sleep = o.power();
        // Default sleep_after = 30 s; everything is asleep at t = 100 s.
        o.advance_to(SimTime::from_secs(100));
        let (_, idle, sleeping, _) = o.cluster().state_counts();
        assert_eq!(idle, 0);
        assert_eq!(sleeping, 60);
        assert!(o.power().as_watts() < before_sleep.as_watts() * 0.4);
    }

    #[test]
    fn dl_serving_demands_follow_engine_capacity() {
        let mut o = orch();
        // One SoC DSP serves ~113 fps of INT8 ResNet-50; 60 fps fits.
        let id = o
            .submit(WorkloadSpec::DlServe {
                processor: SocProcessor::Dsp,
                model: ModelId::ResNet50,
                dtype: DType::Int8,
                offered_fps: 60.0,
            })
            .unwrap();
        assert_eq!(o.placement_of(id), Some(0));
        // 200 fps exceeds one DSP.
        let err = o
            .submit(WorkloadSpec::DlServe {
                processor: SocProcessor::Dsp,
                model: ModelId::ResNet50,
                dtype: DType::Int8,
                offered_fps: 200.0,
            })
            .unwrap_err();
        assert_eq!(err, AdmissionError::NoCapacity);
    }

    #[test]
    fn unsupported_dl_combo_rejected() {
        let mut o = orch();
        let err = o
            .submit(WorkloadSpec::DlServe {
                processor: SocProcessor::Dsp,
                model: ModelId::BertBase,
                dtype: DType::Int8,
                offered_fps: 1.0,
            })
            .unwrap_err();
        assert_eq!(err, AdmissionError::Unsupported);
    }

    #[test]
    fn fault_migrates_workloads() {
        let mut o = orch();
        let a = o.submit(live_v1()).unwrap();
        let b = o.submit(live_v1()).unwrap();
        assert_eq!(o.placement_of(a), Some(0));
        o.inject_fault(0);
        // Both streams moved off the dead SoC.
        assert_eq!(o.stats().migrations, 2);
        assert_ne!(o.placement_of(a), Some(0));
        assert_ne!(o.placement_of(b), Some(0));
        assert_eq!(o.stats().dropped, 0);
        // The dead SoC takes no further work.
        assert!(!o.cluster().socs[0].healthy);
    }

    #[test]
    fn inject_fault_replaces_victims_in_id_order() {
        // SoC 0 holds 3× V3 and 3× V1 streams; SoC 1 is partly full, so
        // the order victims are re-placed in decides which of them still
        // fit there. Each run builds a fresh workload map (and hash seed);
        // both must re-place in id order and tell the same story.
        let run = || {
            let mut o = orch();
            o.events_mut().set_enabled(true);
            let v3 = WorkloadSpec::LiveStreamCpu {
                video: socc_video::vbench::by_id("V3").unwrap(),
            };
            let victims: Vec<WorkloadId> = [v3.clone(), v3.clone(), v3]
                .into_iter()
                .chain(std::iter::repeat_with(live_v1).take(3))
                .map(|spec| o.submit(spec).unwrap())
                .collect();
            for _ in 0..6 {
                let id = o.submit(live_v1()).unwrap();
                assert_eq!(o.placement_of(id), Some(1));
            }
            o.inject_fault(0);
            let landed: Vec<Option<usize>> = victims.iter().map(|&id| o.placement_of(id)).collect();
            assert_eq!(landed, [1, 1, 2, 2, 2, 2].map(Some));
            assert!(o.events().recorded() > 0);
            o.events().digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_with_full_cluster_drops_workloads() {
        let mut o = orch();
        loop {
            if o.submit(live_v1()).is_err() {
                break;
            }
        }
        let before = o.active_workloads();
        o.inject_fault(0);
        // 13 streams had nowhere to go.
        assert_eq!(o.stats().dropped, 13);
        assert_eq!(o.active_workloads(), before - 13);
    }

    #[test]
    fn energy_accumulates_over_time() {
        let mut o = orch();
        o.submit(live_v1()).unwrap();
        o.advance_to(SimTime::from_secs(60));
        let e = o.energy().as_joules();
        // At least the idle floor for a minute.
        assert!(e > 100.0 * 60.0, "energy {e}");
    }

    #[test]
    fn fail_soc_returns_stranded_workloads_sorted() {
        let mut o = orch();
        let a = o.submit(live_v1()).unwrap();
        let b = o.submit(live_v1()).unwrap();
        let victims = o.fail_soc(0);
        assert_eq!(
            victims.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![a, b]
        );
        assert!(!o.cluster().socs[0].healthy);
        assert_eq!(o.active_workloads(), 0, "victims are handed back, not kept");
        assert_eq!(o.stats().dropped, 0, "nothing silently dropped");
        // A second fail on the same SoC is a no-op.
        assert!(o.fail_soc(0).is_empty());
    }

    #[test]
    fn restore_soc_returns_slot_to_service() {
        let mut o = orch();
        o.fail_soc(0);
        assert!(o.restore_soc(0));
        assert!(!o.restore_soc(0), "already healthy");
        let id = o.submit(live_v1()).unwrap();
        assert_eq!(o.placement_of(id), Some(0), "bin-pack reuses slot 0");
    }

    #[test]
    fn bmc_frames_drive_power_transitions() {
        use crate::bmc::{encode_command, BmcCommand, BmcResponse};
        use socc_hw::power::PowerState;
        let mut o = orch();
        let r = o
            .bmc_frame(&encode_command(BmcCommand::SetSocPowerState(
                3,
                PowerState::Off,
            )))
            .unwrap();
        assert_eq!(r, BmcResponse::Ack);
        assert_eq!(o.apply_bmc_state_changes(), 1);
        assert!(!o.cluster().socs[3].healthy);
        o.bmc_frame(&encode_command(BmcCommand::SetSocPowerState(
            3,
            PowerState::Idle,
        )))
        .unwrap();
        assert_eq!(o.apply_bmc_state_changes(), 1);
        assert!(o.cluster().socs[3].healthy);
    }

    #[test]
    fn take_completions_reports_finished_ids() {
        let mut o = orch();
        let live = o.submit(live_v1()).unwrap();
        let video = socc_video::vbench::by_id("V1").unwrap();
        let job = o
            .submit(WorkloadSpec::ArchiveJob { video, frames: 156 })
            .unwrap();
        o.finish(live).unwrap();
        assert_eq!(o.drain_completions().collect::<Vec<_>>(), vec![live]);
        o.advance_to(SimTime::from_secs(20));
        assert_eq!(o.drain_completions().collect::<Vec<_>>(), vec![job]);
        assert_eq!(o.drain_completions().count(), 0);
    }

    // `&[Range]` is the avoid-set type; one board is one range.
    #[allow(clippy::single_range_in_vec_init)]
    #[test]
    fn submit_avoiding_skips_the_failed_board() {
        let mut o = orch();
        // Avoid board 0 (slots 0..5): the stream must land on slot 5 even
        // though bin-pack would pick 0.
        let id = o.submit_avoiding(live_v1(), &[0..5]).unwrap();
        assert_eq!(o.placement_of(id), Some(5));
        // With no ranges the decision degenerates to plain first-fit.
        let id = o.submit_avoiding(live_v1(), &[]).unwrap();
        assert_eq!(o.placement_of(id), Some(0));
        // Avoiding the whole fleet rejects even with capacity everywhere.
        assert_eq!(
            o.submit_avoiding(live_v1(), &[0..60]).unwrap_err(),
            AdmissionError::NoCapacity
        );
    }

    #[test]
    fn admission_floor_rejects_below_floor_work() {
        use crate::priority::Priority;
        let mut o = orch();
        o.set_admission_floor(Some(Priority::Serving));
        let video = socc_video::vbench::by_id("V1").unwrap();
        let err = o
            .submit(WorkloadSpec::ArchiveJob { video, frames: 156 })
            .unwrap_err();
        assert_eq!(err, AdmissionError::Degraded);
        assert_eq!(o.stats().rejected, 1);
        // At-or-above the floor still admits.
        o.submit(live_v1()).unwrap();
        o.set_admission_floor(None);
        let video = socc_video::vbench::by_id("V1").unwrap();
        o.submit(WorkloadSpec::ArchiveJob { video, frames: 156 })
            .unwrap();
    }

    #[test]
    fn placement_index_verifies_through_churn() {
        let mut o = orch();
        assert!(o.verify_placement_index());
        let a = o.submit(live_v1()).unwrap();
        for _ in 0..40 {
            o.submit(live_v1()).unwrap();
        }
        o.fail_soc(1);
        o.finish(a).unwrap();
        o.restore_soc(1);
        assert!(o.verify_placement_index());
    }

    /// One seeded operation: a submit of every kind, a finish, a fault,
    /// a restore, a BMC power frame, or a clock advance (zero-length or
    /// up to 90 s, across the default 30 s sleep deadline). Most draws
    /// are not advances, so runs of operations share one instant.
    fn apply(o: &mut Orchestrator, op: usize, soc: usize, arg: u64) {
        use crate::bmc::{encode_command, BmcCommand};
        let soc = soc % o.cluster().soc_count();
        let video = socc_video::vbench::by_id(["V1", "V3", "V6"][soc % 3]).unwrap();
        match op {
            0..=4 => {
                let spec = match op {
                    0 => WorkloadSpec::GamingSession { stream_mbps: 8.0 },
                    1 => WorkloadSpec::LiveStreamCpu { video },
                    2 => WorkloadSpec::LiveStreamHw { video },
                    // Zero frames: a job due with the next internal event.
                    3 => WorkloadSpec::ArchiveJob {
                        video,
                        frames: arg % 900,
                    },
                    _ => WorkloadSpec::DlServe {
                        processor: [SocProcessor::Cpu, SocProcessor::Gpu, SocProcessor::Dsp]
                            [soc % 3],
                        model: ModelId::ResNet50,
                        dtype: DType::Int8,
                        offered_fps: (arg % 40 + 1) as f64,
                    },
                };
                let _ = o.submit(spec);
            }
            5 => {
                let ids = o.workload_ids();
                if !ids.is_empty() {
                    o.finish(ids[arg as usize % ids.len()]).unwrap();
                }
            }
            6 => o.advance_to(o.now() + SimDuration::from_millis(arg % 90_000)),
            7 => o.advance_to(o.now()),
            8 => {
                o.fail_soc(soc);
            }
            9 => {
                o.restore_soc(soc);
            }
            10 => o.inject_fault(soc),
            _ => {
                // Off is only legal once the SoC's workloads are evacuated.
                let state = if o.cluster().socs[soc].is_idle() && arg % 2 == 0 {
                    PowerState::Off
                } else {
                    PowerState::Idle
                };
                let frame = encode_command(BmcCommand::SetSocPowerState(soc as u8, state));
                o.bmc_frame(&frame).unwrap();
                o.apply_bmc_state_changes();
            }
        }
    }

    proptest! {
        /// The meter sampled once per instant, just before the clock
        /// moves, reads the same bits as a twin sampled after every
        /// operation (the eager form it replaced), and the ledger, booked
        /// eagerly in both, agrees too.
        #[test]
        fn lazy_meter_matches_an_eager_twin(
            ops in prop::collection::vec((0usize..12, 0usize..60, 0u64..1_000_000), 1..80)
        ) {
            let (mut lazy, mut eager) = (orch(), orch());
            for (step, &(op, soc, arg)) in ops.iter().enumerate() {
                apply(&mut lazy, op, soc, arg);
                apply(&mut eager, op, soc, arg);
                eager.sample_meter();
                let t = lazy.now();
                prop_assert_eq!(t, eager.now());
                prop_assert_eq!(
                    lazy.energy().as_joules().to_bits(),
                    eager.energy().as_joules().to_bits(),
                    "step {} (op {}): lazy {} J vs eager {} J",
                    step,
                    op,
                    lazy.energy().as_joules(),
                    eager.energy().as_joules()
                );
                let (a, b) = (lazy.energy_ledger(), eager.energy_ledger());
                let reads = |l: &EnergyLedger| {
                    [l.component_total(t), l.rail_total(t), l.chassis_energy(t)]
                        .into_iter()
                        .chain((0..l.socs()).map(|i| l.soc_energy(i, t)))
                        .map(|e| e.as_joules().to_bits())
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(reads(a), reads(b), "step {} (op {}): ledgers differ", step, op);
            }
        }

        /// Grouped admission and release leave an orchestrator where the
        /// same sessions, submitted and finished one at a time, leave its
        /// twin. Each window advances the clock (a quarter of them not at
        /// all), releases a drawn suffix of the live ids newest first, and
        /// admits up to three groups of identical gaming sessions. The
        /// drawn rate makes the SoC port bind (130 Mbps), the PCB uplink
        /// bind (30 Mbps) or neither (7.3 Mbps, GPU slots bind). Only the
        /// ledger's incrementally nudged rail roll-up may differ, by
        /// roundoff: the grouped twin nudges it once per SoC fill and once
        /// per run of releases on one SoC.
        #[test]
        fn batched_admission_matches_one_at_a_time(
            rate in 0usize..3,
            windows in prop::collection::vec(
                (0u64..240_000, 0usize..1_000, prop::collection::vec(0usize..41, 0..4)),
                1..40,
            )
        ) {
            let spec = WorkloadSpec::GamingSession {
                stream_mbps: [130.0, 30.0, 7.3][rate],
            };
            let (mut grouped, mut single) = (orch(), orch());
            let (mut grouped_ids, mut single_ids) = (Vec::new(), Vec::new());
            for (w, (advance_ms, release, groups)) in windows.into_iter().enumerate() {
                let t = grouped.now() + SimDuration::from_millis(advance_ms.saturating_sub(60_000));
                grouped.advance_to(t);
                single.advance_to(t);
                let keep = grouped_ids.len() - release % (grouped_ids.len() + 1);
                grouped_ids[keep..].reverse();
                grouped.finish_all(&grouped_ids[keep..]).unwrap();
                grouped_ids.truncate(keep);
                while single_ids.len() > keep {
                    single.finish(single_ids.pop().unwrap()).unwrap();
                }
                for count in groups {
                    let batched = grouped.admit(&spec, count, None, |id| grouped_ids.push(id));
                    let one_by_one = (0..count).try_for_each(|_| {
                        single.submit(spec.clone()).map(|id| single_ids.push(id))
                    });
                    prop_assert_eq!(batched, one_by_one, "window {}", w);
                }
                prop_assert_eq!(&grouped_ids, &single_ids, "window {}", w);
                for &id in &grouped_ids {
                    prop_assert_eq!(grouped.placement_of(id), single.placement_of(id));
                }
                prop_assert_eq!(grouped.stats(), single.stats(), "window {}", w);
                let socs = |o: &Orchestrator| {
                    o.cluster()
                        .socs
                        .iter()
                        .map(|s| {
                            let u = s.used();
                            let bits =
                                [u.cpu_pu, u.codec_mb_s, u.gpu_frac, u.dsp_frac, u.mem_gb, u.net_mbps]
                                    .map(f64::to_bits);
                            (bits, u.codec_sessions, s.workload_count(), s.state)
                        })
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(socs(&grouped), socs(&single), "window {}: SoC usage", w);
                prop_assert_eq!(grouped.power().as_watts().to_bits(), single.power().as_watts().to_bits());
                prop_assert_eq!(grouped.energy().as_joules().to_bits(), single.energy().as_joules().to_bits());
                let (a, b) = (grouped.energy_ledger(), single.energy_ledger());
                let exact = |l: &EnergyLedger| {
                    (0..l.socs())
                        .flat_map(|soc| Component::ALL.map(|c| l.component_energy(soc, c, t)))
                        .chain([l.chassis_energy(t)])
                        .map(|e| e.as_joules().to_bits())
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(exact(a), exact(b), "window {}: component or chassis energy", w);
                let (ra, rb) = (a.rail_total(t).as_joules(), b.rail_total(t).as_joules());
                prop_assert!(
                    (ra - rb).abs() <= 1e-12 * rb.abs(),
                    "window {}: rails {} vs {}",
                    w,
                    ra,
                    rb
                );
                prop_assert!(grouped.verify_energy_conservation(1e-9).is_ok());
                prop_assert!(single.verify_energy_conservation(1e-9).is_ok());
            }
        }
    }

    #[test]
    fn gaming_sessions_consume_gpu_slots() {
        let mut o = orch();
        for _ in 0..8 {
            o.submit(WorkloadSpec::GamingSession { stream_mbps: 8.0 })
                .unwrap();
        }
        // 8 sessions fill SoC 0's GPU (8 × 0.125); the 9th goes to SoC 1.
        let id = o
            .submit(WorkloadSpec::GamingSession { stream_mbps: 8.0 })
            .unwrap();
        assert_eq!(o.placement_of(id), Some(1));
    }
}
