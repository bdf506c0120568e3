//! Fault modelling: when do SoCs die, and what does it cost?
//!
//! §8: "mobile SoCs are not typically designed to operate at full speed and
//! 24/7 in clouds … The failure of a single SoC subsystem, such as flash,
//! can render the application and entire SoC unusable. Therefore, fault
//! tolerance is crucial for the success of SoC Cluster."
//!
//! The chassis is not 60 independent machines: five SoCs share each PCB
//! carrier board, the twelve boards hang off one Ethernet Switch Board, and
//! the whole 2U enclosure shares a redundant PSU pair and one airflow path.
//! Faults therefore arrive *correlated*: [`FailureDomains`] derives that
//! hierarchy from the fabric topology, and [`FaultInjector`] can schedule
//! domain-level events ([`DomainFault`]) alongside the independent per-SoC
//! kinds.

use std::ops::Range;

use socc_net::topology::ClusterFabric;
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};

/// What broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flash wear-out — the dominant failure mode for 24/7 mobile silicon.
    Flash,
    /// SoC lock-up requiring a power cycle.
    SocHang,
    /// DRAM failure.
    Memory,
    /// Protective thermal shutdown — the SoC trips offline until it cools.
    ThermalTrip,
    /// Loss of the SoC's fabric access link — the SoC runs but is
    /// unreachable until the link is repaired.
    LinkLoss,
}

impl FaultKind {
    /// Whether the SoC can return to service after remediation (a hung SoC
    /// reboots, a tripped SoC cools down, a lost link gets re-seated; dead
    /// flash/DRAM means the slot stays dark until the PCB is swapped).
    #[cfg(test)]
    pub(crate) fn recoverable(self) -> bool {
        matches!(
            self,
            FaultKind::SocHang | FaultKind::ThermalTrip | FaultKind::LinkLoss
        )
    }

    /// Stable lower-case label for telemetry counters and typed trace
    /// events.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            FaultKind::Flash => "flash",
            FaultKind::SocHang => "soc_hang",
            FaultKind::Memory => "memory",
            FaultKind::ThermalTrip => "thermal_trip",
            FaultKind::LinkLoss => "link_loss",
        }
    }
}

/// A scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// Which SoC slot.
    pub soc: usize,
    /// Failure mode.
    pub kind: FaultKind,
}

/// ESB port groups span this many PCB uplink ports (the switch's PHYs are
/// ganged four ports per quad); losing a group partitions four boards at
/// once.
pub(crate) const BOARDS_PER_PORT_GROUP: usize = 4;

/// Redundant PSU modules feeding the chassis (the paper's 2 × 400 W pair).
pub const PSU_RAILS: usize = 2;

/// Airflow zones of the 2U fan wall (front/rear board halves).
pub(crate) const THERMAL_ZONES: usize = 2;

/// The chassis failure-domain hierarchy, sized from the fabric topology
/// (SoC → PCB board → ESB port group, plus the PSU rails and airflow zones
/// the chassis shares).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureDomains {
    /// SoC slots.
    pub(crate) socs: usize,
    /// PCB carrier boards.
    pub boards: usize,
    /// ESB port groups.
    pub(crate) port_groups: usize,
    /// PSU rails.
    pub(crate) psu_rails: usize,
    /// Airflow zones.
    pub(crate) thermal_zones: usize,
}

impl FailureDomains {
    /// Derives the hierarchy from a built fabric: boards and SoCs are read
    /// off the topology, port groups gang the boards in quads, and the PSU
    /// rails / airflow zones come from the chassis design constants.
    pub(crate) fn from_fabric(fabric: &ClusterFabric) -> Self {
        Self {
            socs: fabric.socs.len(),
            boards: fabric.pcbs.len(),
            port_groups: fabric.pcbs.len().div_ceil(BOARDS_PER_PORT_GROUP),
            psu_rails: PSU_RAILS,
            thermal_zones: THERMAL_ZONES,
        }
    }

    /// Same hierarchy for a fleet of `socs` SoCs without building a fabric.
    pub fn for_cluster(socs: usize) -> Self {
        let boards = socs.div_ceil(socc_hw::calib::SOCS_PER_PCB);
        Self {
            socs,
            boards,
            port_groups: boards.div_ceil(BOARDS_PER_PORT_GROUP),
            psu_rails: PSU_RAILS,
            thermal_zones: THERMAL_ZONES,
        }
    }

    /// The board carrying a SoC slot.
    pub(crate) fn board_of_soc(&self, soc: usize) -> usize {
        soc / socc_hw::calib::SOCS_PER_PCB
    }

    /// SoC slots on a board (clamped at the fleet edge).
    pub fn socs_of_board(&self, board: usize) -> Range<usize> {
        let per = socc_hw::calib::SOCS_PER_PCB;
        (board * per).min(self.socs)..((board + 1) * per).min(self.socs)
    }

    /// Boards behind an ESB port group (clamped at the fleet edge).
    pub(crate) fn boards_of_port_group(&self, group: usize) -> Range<usize> {
        (group * BOARDS_PER_PORT_GROUP).min(self.boards)
            ..((group + 1) * BOARDS_PER_PORT_GROUP).min(self.boards)
    }

    /// SoC slots behind an ESB port group (contiguous by construction).
    pub(crate) fn socs_of_port_group(&self, group: usize) -> Range<usize> {
        let boards = self.boards_of_port_group(group);
        self.socs_of_board(boards.start).start..self.socs_of_board(boards.end.saturating_sub(1)).end
    }
}

/// A correlated, domain-level fault: the target and its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DomainFault {
    /// A carrier board drops: its five SoCs and their uplink fail
    /// atomically and permanently (the board must be swapped).
    BoardDown {
        /// Board slot.
        board: usize,
    },
    /// An ESB port group goes dark: the boards behind it keep running
    /// local work but are unreachable until the partition heals.
    FabricPartition {
        /// Port group index.
        group: usize,
        /// How long the partition lasts.
        duration: SimDuration,
    },
    /// A PSU rail derates: the cluster caps DVFS states and tightens
    /// admission instead of killing SoCs.
    PowerBrownout {
        /// PSU rail index.
        rail: usize,
        /// How long the brownout lasts.
        duration: SimDuration,
    },
}

impl DomainFault {
    /// Sort key for deterministic schedule ordering at equal timestamps.
    fn order(&self) -> (u8, usize) {
        match *self {
            DomainFault::BoardDown { board } => (0, board),
            DomainFault::FabricPartition { group, .. } => (1, group),
            DomainFault::PowerBrownout { rail, .. } => (2, rail),
        }
    }
}

/// A scheduled domain-level fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainFaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What breaks, and where.
    pub fault: DomainFault,
}

/// A complete fault schedule: independent per-SoC events plus correlated
/// domain-level events, each sorted by time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// Independent per-SoC faults.
    pub soc: Vec<FaultEvent>,
    /// Correlated domain-level faults.
    pub domain: Vec<DomainFaultEvent>,
}

impl FaultSchedule {
    /// Total number of scheduled events across both levels.
    pub fn len(&self) -> usize {
        self.soc.len() + self.domain.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.soc.is_empty() && self.domain.is_empty()
    }
}

/// Generates fault schedules from annual failure rates.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Annual probability of flash failure per SoC at full duty.
    pub flash_afr: f64,
    /// Annual rate of hangs per SoC.
    pub hang_afr: f64,
    /// Annual rate of DRAM failures per SoC.
    pub memory_afr: f64,
    /// Annual rate of protective thermal shutdowns per SoC. Zero by default:
    /// the prototype's fan wall keeps SoCs below throttle (§3), so trips
    /// only appear in what-if sweeps that opt in.
    pub thermal_afr: f64,
    /// Annual rate of fabric-link failures per SoC slot. Zero by default
    /// for the same reason.
    pub link_afr: f64,
    /// Annual rate of whole-board drops per PCB (power stage or carrier
    /// failure takes all five SoCs and their uplink at once). Zero by
    /// default: correlated kinds are opt-in for chaos campaigns.
    pub board_afr: f64,
    /// Annual rate of ESB port-group losses per group. Zero by default.
    pub partition_afr: f64,
    /// Annual rate of PSU-rail brownouts per rail. Zero by default.
    pub brownout_afr: f64,
    /// How long a fabric partition lasts before the switch recovers.
    pub partition_duration: SimDuration,
    /// How long a PSU brownout lasts before the rail recovers.
    pub brownout_duration: SimDuration,
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self {
            flash_afr: socc_hw::memory::StorageModel::ufs_256gb().annual_failure_rate,
            hang_afr: 0.10,
            memory_afr: 0.008,
            thermal_afr: 0.0,
            link_afr: 0.0,
            board_afr: 0.0,
            partition_afr: 0.0,
            brownout_afr: 0.0,
            partition_duration: SimDuration::from_secs(300),
            brownout_duration: SimDuration::from_secs(600),
        }
    }
}

const SECS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

impl FaultInjector {
    /// Draws the fault schedule for a fleet of `socs` SoCs over `horizon`,
    /// sorted by time. Each (SoC, mode) pair fails at most once.
    pub fn schedule(&self, socs: usize, horizon: SimDuration, rng: &mut SimRng) -> Vec<FaultEvent> {
        // Degenerate inputs produce an empty schedule without consuming any
        // randomness, so a caller's RNG stream is unperturbed.
        if socs == 0 || horizon.is_zero() {
            return Vec::new();
        }
        let mut events = Vec::new();
        for soc in 0..socs {
            for (kind, afr) in [
                (FaultKind::Flash, self.flash_afr),
                (FaultKind::SocHang, self.hang_afr),
                (FaultKind::Memory, self.memory_afr),
                (FaultKind::ThermalTrip, self.thermal_afr),
                (FaultKind::LinkLoss, self.link_afr),
            ] {
                if afr <= 0.0 {
                    continue;
                }
                // Exponential time-to-failure with rate = afr per year.
                let ttf_secs = rng.exponential(afr / SECS_PER_YEAR);
                if ttf_secs < horizon.as_secs_f64() {
                    events.push(FaultEvent {
                        at: SimTime::from_secs_f64(ttf_secs),
                        soc,
                        kind,
                    });
                }
            }
        }
        events.sort_by_key(|e| (e.at, e.soc));
        events
    }

    /// Draws the domain-level schedule for `domains` over `horizon`,
    /// sorted by time. Each (domain, kind) pair fires at most once.
    ///
    /// Like [`FaultInjector::schedule`], degenerate inputs (no domains,
    /// zero horizon, or all domain rates zero) consume no randomness.
    pub(crate) fn schedule_domains(
        &self,
        domains: &FailureDomains,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> Vec<DomainFaultEvent> {
        if domains.socs == 0 || horizon.is_zero() {
            return Vec::new();
        }
        let mut events = Vec::new();
        let draw = |afr: f64, rng: &mut SimRng| -> Option<SimTime> {
            if afr <= 0.0 {
                return None;
            }
            let ttf_secs = rng.exponential(afr / SECS_PER_YEAR);
            (ttf_secs < horizon.as_secs_f64()).then(|| SimTime::from_secs_f64(ttf_secs))
        };
        for board in 0..domains.boards {
            if let Some(at) = draw(self.board_afr, rng) {
                events.push(DomainFaultEvent {
                    at,
                    fault: DomainFault::BoardDown { board },
                });
            }
        }
        for group in 0..domains.port_groups {
            if let Some(at) = draw(self.partition_afr, rng) {
                events.push(DomainFaultEvent {
                    at,
                    fault: DomainFault::FabricPartition {
                        group,
                        duration: self.partition_duration,
                    },
                });
            }
        }
        for rail in 0..domains.psu_rails {
            if let Some(at) = draw(self.brownout_afr, rng) {
                events.push(DomainFaultEvent {
                    at,
                    fault: DomainFault::PowerBrownout {
                        rail,
                        duration: self.brownout_duration,
                    },
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.fault.order()));
        events
    }

    /// Draws the complete schedule — per-SoC events first, then domain
    /// events, in that fixed RNG order — for a fleet shaped by `domains`.
    pub fn schedule_all(
        &self,
        domains: &FailureDomains,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) -> FaultSchedule {
        FaultSchedule {
            soc: self.schedule(domains.socs, horizon, rng),
            domain: self.schedule_domains(domains, horizon, rng),
        }
    }

    /// Expected number of SoCs taken out of service after `horizon`.
    ///
    /// (Site-tier faults are scheduled separately by
    /// [`SiteFaultInjector`]; they operate in fleet sync windows, not
    /// simulation time.)
    ///
    /// A SoC leaves service when any of its own fault kinds strikes *or*
    /// its board drops, so the per-SoC hazard is the sum of the five
    /// per-SoC rates plus the board rate (every SoC sits on exactly one
    /// board, and a board drop downs all of its SoCs). Fabric partitions
    /// and brownouts degrade service but leave SoCs running, so they do
    /// not contribute here.
    pub fn expected_failures(&self, socs: usize, horizon: SimDuration) -> f64 {
        let years = horizon.as_secs_f64() / SECS_PER_YEAR;
        let rate = self.flash_afr
            + self.hang_afr
            + self.memory_afr
            + self.thermal_afr
            + self.link_afr
            + self.board_afr;
        socs as f64 * (1.0 - (-rate * years).exp())
    }
}

/// A fault on the site tier of the hierarchy:
/// whole enclosures and regions, the blast radii the enclosure-level
/// machinery above cannot express. Site-tier state only changes at fleet
/// synchronization barriers, so faults fire at a *window* index and last
/// a whole number of windows (`socc-cluster::fleet` applies them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteFault {
    /// One site's WAN uplink partitions from the control plane: the
    /// enclosure keeps running, its users just cannot reach it.
    Partition {
        /// Site index.
        site: usize,
        /// Duration in sync windows.
        windows: usize,
    },
    /// A regional WAN storm: every site in one contiguous region block
    /// partitions at once — the correlated twin of scattered
    /// single-site [`SiteFault::Partition`]s.
    RegionStorm {
        /// Region index on the WAN ring.
        region: usize,
        /// Duration in sync windows.
        windows: usize,
    },
    /// Full site power loss: every PSU rail dark, all SoCs decommission
    /// and the site's energy ledger flatlines until power returns.
    Blackout {
        /// Site index.
        site: usize,
        /// Duration in sync windows.
        windows: usize,
    },
    /// One PSU rail lost at the site: every board's DVFS derates (the
    /// same math as [`DomainFault::PowerBrownout`], one tier up) and the
    /// site serves a reduced session population until the rail returns.
    Brownout {
        /// Site index.
        site: usize,
        /// Duration in sync windows.
        windows: usize,
    },
}

impl SiteFault {
    /// Duration of the fault in sync windows.
    pub fn windows(&self) -> usize {
        match *self {
            SiteFault::Partition { windows, .. }
            | SiteFault::RegionStorm { windows, .. }
            | SiteFault::Blackout { windows, .. }
            | SiteFault::Brownout { windows, .. } => windows,
        }
    }

    /// Sort key for deterministic schedule ordering at equal windows.
    pub fn order(&self) -> (u8, usize, usize) {
        match *self {
            SiteFault::Partition { site, windows } => (0, site, windows),
            SiteFault::RegionStorm { region, windows } => (1, region, windows),
            SiteFault::Blackout { site, windows } => (2, site, windows),
            SiteFault::Brownout { site, windows } => (3, site, windows),
        }
    }
}

/// A scheduled site-tier fault: fires at the barrier opening sync window
/// `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteFaultEvent {
    /// Window index the fault fires at.
    pub window: usize,
    /// What breaks, and where.
    pub fault: SiteFault,
}

/// Seeded site-tier fault scheduler for fleet chaos campaigns: a Poisson
/// count of each kind over the run, each at a uniform window and target,
/// with a `1 + Poisson` duration — the same shape as the enclosure-level
/// [`FaultInjector`], one tier up.
///
/// Degenerate inputs consume no randomness: a zero mean draws nothing
/// for that kind, and zero sites/windows yields an empty schedule, so
/// seeds stay comparable across configurations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteFaultInjector {
    /// Expected single-site WAN partitions over the run.
    pub mean_partitions: f64,
    /// Expected regional partition storms over the run.
    pub mean_storms: f64,
    /// Expected full-site blackouts over the run.
    pub mean_blackouts: f64,
    /// Expected site rail brownouts over the run.
    pub mean_brownouts: f64,
    /// Mean fault length in windows beyond the first (`1 + Poisson`).
    pub mean_windows: f64,
}

impl Default for SiteFaultInjector {
    fn default() -> Self {
        Self {
            mean_partitions: 0.0,
            mean_storms: 1.0,
            mean_blackouts: 1.0,
            mean_brownouts: 1.0,
            mean_windows: 3.0,
        }
    }
}

impl SiteFaultInjector {
    /// Draws a site-tier schedule for a fleet of `sites` sites over
    /// `regions` WAN regions and `windows` sync windows, sorted by
    /// `(window, kind, target)` so equal-window bursts apply in a fixed
    /// order.
    pub fn schedule(
        &self,
        sites: usize,
        regions: usize,
        windows: usize,
        rng: &mut SimRng,
    ) -> Vec<SiteFaultEvent> {
        let mut events = Vec::new();
        if sites == 0 || windows == 0 {
            return events;
        }
        let dur = |rng: &mut SimRng| {
            if self.mean_windows > 0.0 {
                1 + rng.poisson(self.mean_windows) as usize
            } else {
                1
            }
        };
        if self.mean_partitions > 0.0 {
            for _ in 0..rng.poisson(self.mean_partitions) {
                events.push(SiteFaultEvent {
                    window: rng.uniform_usize(0, windows),
                    fault: SiteFault::Partition {
                        site: rng.uniform_usize(0, sites),
                        windows: dur(rng),
                    },
                });
            }
        }
        if self.mean_storms > 0.0 && regions > 0 {
            for _ in 0..rng.poisson(self.mean_storms) {
                events.push(SiteFaultEvent {
                    window: rng.uniform_usize(0, windows),
                    fault: SiteFault::RegionStorm {
                        region: rng.uniform_usize(0, regions),
                        windows: dur(rng),
                    },
                });
            }
        }
        if self.mean_blackouts > 0.0 {
            for _ in 0..rng.poisson(self.mean_blackouts) {
                events.push(SiteFaultEvent {
                    window: rng.uniform_usize(0, windows),
                    fault: SiteFault::Blackout {
                        site: rng.uniform_usize(0, sites),
                        windows: dur(rng),
                    },
                });
            }
        }
        if self.mean_brownouts > 0.0 {
            for _ in 0..rng.poisson(self.mean_brownouts) {
                events.push(SiteFaultEvent {
                    window: rng.uniform_usize(0, windows),
                    fault: SiteFault::Brownout {
                        site: rng.uniform_usize(0, sites),
                        windows: dur(rng),
                    },
                });
            }
        }
        events.sort_by_key(|e| (e.window, e.fault.order()));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_sorted_and_bounded() {
        let mut rng = SimRng::seed(42);
        let horizon = SimDuration::from_hours(24 * 365);
        let events = FaultInjector::default().schedule(60, horizon, &mut rng);
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for e in &events {
            assert!(e.at.as_secs_f64() < horizon.as_secs_f64());
            assert!(e.soc < 60);
        }
    }

    #[test]
    fn yearly_failure_count_near_expectation() {
        // 60 SoCs × (3.5% flash + 10% hang + 0.8% mem) ≈ 8.2 events/year.
        let inj = FaultInjector::default();
        let horizon = SimDuration::from_hours(24 * 365);
        let mut total = 0usize;
        let runs = 200;
        for seed in 0..runs {
            let mut rng = SimRng::seed(seed);
            total += inj.schedule(60, horizon, &mut rng).len();
        }
        let mean = total as f64 / runs as f64;
        let expected = 60.0 * (0.035 + 0.10 + 0.008);
        assert!(
            (mean - expected).abs() / expected < 0.15,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    fn expected_failures_formula() {
        let inj = FaultInjector::default();
        let one_year = SimDuration::from_hours(24 * 365);
        let e = inj.expected_failures(60, one_year);
        assert!((7.0..=9.0).contains(&e), "expected {e}");
        assert_eq!(inj.expected_failures(0, one_year), 0.0);
    }

    #[test]
    fn recoverability_by_kind() {
        assert!(FaultKind::SocHang.recoverable());
        assert!(FaultKind::ThermalTrip.recoverable());
        assert!(FaultKind::LinkLoss.recoverable());
        assert!(!FaultKind::Flash.recoverable());
        assert!(!FaultKind::Memory.recoverable());
    }

    #[test]
    fn zero_socs_schedule_is_empty_without_sampling() {
        let inj = FaultInjector::default();
        let horizon = SimDuration::from_hours(24 * 365);
        let mut rng = SimRng::seed(9);
        assert!(inj.schedule(0, horizon, &mut rng).is_empty());
        // The RNG stream was not consumed: the next schedule from this RNG
        // matches one drawn from a fresh RNG with the same seed.
        let after = inj.schedule(60, horizon, &mut rng);
        let fresh = inj.schedule(60, horizon, &mut SimRng::seed(9));
        assert_eq!(after, fresh);
    }

    #[test]
    fn zero_horizon_schedule_is_empty_without_sampling() {
        let inj = FaultInjector::default();
        let mut rng = SimRng::seed(11);
        assert!(inj.schedule(60, SimDuration::ZERO, &mut rng).is_empty());
        let after = inj.schedule(60, SimDuration::from_hours(24), &mut rng);
        let fresh = inj.schedule(60, SimDuration::from_hours(24), &mut SimRng::seed(11));
        assert_eq!(after, fresh);
    }

    #[test]
    fn opt_in_kinds_appear_when_rates_set() {
        let inj = FaultInjector {
            thermal_afr: 5.0,
            link_afr: 5.0,
            ..FaultInjector::default()
        };
        let mut rng = SimRng::seed(3);
        let events = inj.schedule(60, SimDuration::from_hours(24 * 365), &mut rng);
        assert!(events.iter().any(|e| e.kind == FaultKind::ThermalTrip));
        assert!(events.iter().any(|e| e.kind == FaultKind::LinkLoss));
    }

    #[test]
    fn deterministic_given_seed() {
        let inj = FaultInjector::default();
        let horizon = SimDuration::from_hours(24 * 30);
        let a = inj.schedule(60, horizon, &mut SimRng::seed(7));
        let b = inj.schedule(60, horizon, &mut SimRng::seed(7));
        assert_eq!(a, b);
    }

    #[test]
    fn domain_hierarchy_maps_the_chassis() {
        let fabric = socc_net::topology::Topology::soc_cluster(60);
        let d = FailureDomains::from_fabric(&fabric);
        assert_eq!(d, FailureDomains::for_cluster(60));
        assert_eq!((d.socs, d.boards, d.port_groups), (60, 12, 3));
        assert_eq!(d.board_of_soc(0), 0);
        assert_eq!(d.board_of_soc(59), 11);
        assert_eq!(d.socs_of_board(11), 55..60);
        assert_eq!(d.boards_of_port_group(2), 8..12);
        assert_eq!(d.socs_of_port_group(1), 20..40);
        assert_eq!(d.socs_of_board(3), 15..20);
        assert_eq!(d.socs_of_port_group(0), 0..20);
    }

    #[test]
    fn ragged_fleet_clamps_domain_ranges() {
        let d = FailureDomains::for_cluster(7);
        assert_eq!((d.socs, d.boards, d.port_groups), (7, 2, 1));
        assert_eq!(d.socs_of_board(1), 5..7);
        assert_eq!(d.socs_of_port_group(0), 0..7);
    }

    #[test]
    fn domain_schedule_is_deterministic_and_sorted() {
        let inj = FaultInjector {
            board_afr: 3.0,
            partition_afr: 6.0,
            brownout_afr: 2.0,
            ..FaultInjector::default()
        };
        let d = FailureDomains::for_cluster(60);
        let horizon = SimDuration::from_hours(24 * 365);
        let a = inj.schedule_domains(&d, horizon, &mut SimRng::seed(5));
        let b = inj.schedule_domains(&d, horizon, &mut SimRng::seed(5));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for pair in a.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        // All three correlated kinds appear at these rates.
        assert!(a
            .iter()
            .any(|e| matches!(e.fault, DomainFault::BoardDown { .. })));
        assert!(a
            .iter()
            .any(|e| matches!(e.fault, DomainFault::FabricPartition { .. })));
        assert!(a
            .iter()
            .any(|e| matches!(e.fault, DomainFault::PowerBrownout { .. })));
    }

    #[test]
    fn zero_domain_rates_consume_no_randomness() {
        // With every correlated rate at its default zero, schedule_all must
        // leave the RNG stream exactly where schedule() alone would.
        let inj = FaultInjector::default();
        let d = FailureDomains::for_cluster(60);
        let horizon = SimDuration::from_hours(24 * 365);
        let mut rng = SimRng::seed(13);
        let all = inj.schedule_all(&d, horizon, &mut rng);
        assert!(all.domain.is_empty());
        let mut soc_only = SimRng::seed(13);
        let plain = inj.schedule(60, horizon, &mut soc_only);
        assert_eq!(all.soc, plain);
        // Both streams advanced identically: the next draws agree.
        assert_eq!(
            inj.schedule(60, horizon, &mut rng),
            inj.schedule(60, horizon, &mut soc_only)
        );
    }

    #[test]
    fn expected_failures_accounts_for_board_events() {
        // Satellite regression: the per-SoC-only formula undercounts as
        // soon as a correlated kind is enabled. Pin the corrected formula
        // against empirical distinct-SoCs-downed counts.
        let inj = FaultInjector {
            board_afr: 0.5,
            ..FaultInjector::default()
        };
        let d = FailureDomains::for_cluster(60);
        let horizon = SimDuration::from_hours(24 * 365);
        let expected = inj.expected_failures(60, horizon);
        // The old (undercounting) formula, for contrast.
        let per_soc_only = 60.0 * (1.0 - f64::exp(-(0.035 + 0.10 + 0.008)));
        assert!(
            expected > per_soc_only * 1.5,
            "{expected} vs {per_soc_only}"
        );

        let runs = 200;
        let mut total = 0usize;
        for seed in 0..runs {
            let sched = inj.schedule_all(&d, horizon, &mut SimRng::seed(seed));
            let mut downed = [false; 60];
            for e in &sched.soc {
                downed[e.soc] = true;
            }
            for e in &sched.domain {
                if let DomainFault::BoardDown { board } = e.fault {
                    for soc in d.socs_of_board(board) {
                        downed[soc] = true;
                    }
                }
            }
            total += downed.iter().filter(|&&x| x).count();
        }
        let mean = total as f64 / runs as f64;
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "empirical {mean} vs expected {expected}"
        );
    }

    #[test]
    fn site_schedule_is_deterministic_and_window_sorted() {
        let inj = SiteFaultInjector {
            mean_partitions: 2.0,
            mean_storms: 2.0,
            mean_blackouts: 2.0,
            mean_brownouts: 2.0,
            mean_windows: 3.0,
        };
        let a = inj.schedule(12, 4, 100, &mut SimRng::seed(5));
        let b = inj.schedule(12, 4, 100, &mut SimRng::seed(5));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "means of 2 must yield events");
        for pair in a.windows(2) {
            assert!(
                (pair[0].window, pair[0].fault.order()) <= (pair[1].window, pair[1].fault.order()),
                "schedule must be window-sorted: {pair:?}"
            );
        }
        for e in &a {
            assert!(e.window < 100);
            assert!(e.fault.windows() >= 1);
        }
    }

    #[test]
    fn degenerate_site_inputs_consume_no_randomness() {
        let zero = SiteFaultInjector {
            mean_partitions: 0.0,
            mean_storms: 0.0,
            mean_blackouts: 0.0,
            mean_brownouts: 0.0,
            mean_windows: 0.0,
        };
        let mut rng = SimRng::seed(9);
        assert!(zero.schedule(12, 4, 100, &mut rng).is_empty());
        let mut fresh = SimRng::seed(9);
        assert_eq!(
            rng.uniform_usize(0, 1 << 30),
            fresh.uniform_usize(0, 1 << 30)
        );

        // Zero sites / zero windows: empty and stream-neutral even with
        // non-zero means.
        let inj = SiteFaultInjector::default();
        let mut rng = SimRng::seed(9);
        assert!(inj.schedule(0, 4, 100, &mut rng).is_empty());
        assert!(inj.schedule(12, 4, 0, &mut rng).is_empty());
        let mut fresh = SimRng::seed(9);
        assert_eq!(
            rng.uniform_usize(0, 1 << 30),
            fresh.uniform_usize(0, 1 << 30)
        );
    }
}
