//! Production-scale live transcoding farm with an analytic steady-state
//! fast path.
//!
//! Figs 6–10 and Table 3 are the paper's core video results; this module
//! serves them at workload scale: thousands of concurrent live sessions
//! with diurnal churn (arrival intensity shaped by the Fig. 5 gaming-trace
//! envelope), ABR ladder rung selection per viewer, a mix of SoC-CPU
//! (x264) and Venus hardware-codec (MediaCodec) encodes co-placed through
//! the capacity index — the codec unit's throughput, session cap and §4.4
//! delegation-daemon CPU tax are all first-class placement dimensions —
//! and mid-stream migration on board faults priced by the GOP-boundary
//! checkpoint cost model over the calibrated ~935.8 Mbps inter-SoC TCP
//! goodput.
//!
//! # Two resolutions, one schedule
//!
//! The farm runs in either of two modes over the *same* pre-generated,
//! tick-aligned event schedule:
//!
//! - [`FarmMode::Simulation`] advances the orchestrator one 1-second tick
//!   at a time and resamples power/occupancy/quality every tick — the
//!   straightforward event-level simulation, O(ticks).
//! - [`FarmMode::Analytic`] observes that between churn events (session
//!   start/end, ABR switch, board fault/repair) every live session is in
//!   steady state: cluster power, active-session count, quality and
//!   egress sums are all constant. It therefore advances epoch to epoch,
//!   integrating occupancy/energy/quality in closed form over each quiet
//!   span — pure arithmetic on pre-allocated state, zero allocations —
//!   and drops to event-level processing only at the epoch boundaries.
//!
//! Because every event lands on a whole-second tick and the farm keeps
//! SoCs awake (a live farm holds slots warm for sub-second placement;
//! `sleep_after: None`), cluster power is piecewise-constant between
//! events and the two modes compute the *same* integrals — a property the
//! `video_farm` proptest pins within float tolerance, alongside
//! bit-identical placement digests. `bench --run video` gates the analytic
//! mode at ≥5× over simulation at equal horizons with zero steady-state
//! allocations.
//!
//! One term is step-size sensitive by construction: the fan-duty control
//! loop updates once per `advance_to`, so the chassis *fan* power traces
//! slightly different duty trajectories under 1-second vs epoch-sized
//! steps. SoC/component energies are exact in both modes; total and
//! chassis energy agree within [`FAN_ENERGY_REL_TOL`].

use std::ops::Range;

use socc_hw::calib::SOCS_PER_PCB;
use socc_hw::ledger::Component;
use socc_net::tcp::TcpModel;
use socc_sim::hash::IdMap;
use socc_sim::rng::SimRng;
use socc_sim::time::SimTime;
use socc_sim::units::{DataRate, DataSize};
use socc_video::abr::Ladder;
use socc_video::gop::GopStructure;
use socc_video::quality::live_psnr;
use socc_video::ratecontrol::{EncoderKind, RateControl};
use socc_video::video::VideoMeta;
use socc_workloads::gaming::GamingTraceConfig;

use crate::cluster::ClusterConfig;
use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use crate::scheduler::BinPack;
use crate::workload::{WorkloadId, WorkloadSpec};

/// Catalogue share of each vbench source (V1..V6) in the ingest mix:
/// mostly SD/HD camera and screen content, a thin tail of 1080p/4K —
/// heavier sources are rarer, as in production ingest populations.
const CATALOGUE_WEIGHTS: [f64; 6] = [0.30, 0.20, 0.15, 0.20, 0.10, 0.05];

/// Viewer rung mix: share of sessions served the top rung, the middle
/// rung, the lowest rung (collapsed onto shorter ladders).
const RUNG_WEIGHTS: [f64; 3] = [0.50, 0.30, 0.20];

/// Upper bound on analytic quiet-span length: the fan-duty control loop
/// steps once per `advance_to`, so quiet spans sub-step at one-minute
/// resolution to keep the fan-power trajectory close to the 1-second
/// simulation reference. Adds at most `horizon / 60` epoch advances — two
/// orders of magnitude below the tick count the fast path avoids.
const THERMAL_CHUNK_SECS: u64 = 60;

/// Relative tolerance for total/chassis energy agreement between the two
/// farm modes. SoC component energies are exact (piecewise-constant power
/// between tick-aligned epochs); the residual is the fan-duty feedback
/// loop, which integrates fan power over slightly different duty
/// trajectories under 1-second vs [`THERMAL_CHUNK_SECS`]-sized steps.
pub const FAN_ENERGY_REL_TOL: f64 = 2e-3;

/// A board-down fault injected into the farm run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmFault {
    /// PCB board index to fail (5 SoC slots).
    pub board: usize,
    /// Fault time in seconds from midnight (tick-aligned).
    pub at_secs: u64,
    /// Seconds until the board returns to service.
    pub repair_secs: u64,
}

/// Farm scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarmConfig {
    /// SoC slots in the cluster.
    pub socs: usize,
    /// Horizon in seconds (events beyond it are clipped).
    pub horizon_secs: u64,
    /// Session arrival rate at the diurnal peak, per hour.
    pub peak_arrivals_per_hour: f64,
    /// Median session length in minutes (log-normal, σ = 0.5).
    pub median_session_mins: f64,
    /// Fraction of sessions encoded on the Venus hardware codec
    /// (MediaCodec path); the rest run x264 on the SoC CPU.
    pub hw_fraction: f64,
    /// Probability a session switches ABR rung mid-stream.
    pub abr_switch_prob: f64,
    /// Master seed for the schedule.
    pub seed: u64,
    /// Optional board-down fault.
    pub fault: Option<FarmFault>,
}

impl Default for FarmConfig {
    fn default() -> Self {
        Self {
            socs: socc_hw::calib::CLUSTER_SOC_COUNT,
            horizon_secs: 86_400,
            peak_arrivals_per_hour: 500.0,
            median_session_mins: 180.0,
            hw_fraction: 0.6,
            abr_switch_prob: 0.15,
            seed: 42,
            // Board 1 at the 21:00 diurnal peak, back after 15 minutes.
            fault: Some(FarmFault {
                board: 1,
                at_secs: 75_600,
                repair_secs: 900,
            }),
        }
    }
}

/// Which engine advances the farm between churn events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarmMode {
    /// Closed-form integration over quiet spans; events only at epochs.
    Analytic,
    /// 1-second ticks through the orchestrator, resampling every tick.
    Simulation,
}

/// One planned viewer session.
#[derive(Debug, Clone)]
struct PlannedSession {
    #[cfg_attr(not(test), allow(dead_code))]
    start: u64,
    /// `None` when the session outlives the horizon.
    #[cfg_attr(not(test), allow(dead_code))]
    end: Option<u64>,
    /// Venus hardware codec (true) or SoC CPU x264 (false).
    hw: bool,
    /// The rung's transcode job at session start.
    job: VideoMeta,
    /// Mid-stream ABR switch: time and the new rung's job.
    switch: Option<(u64, VideoMeta)>,
}

/// Schedule event kinds, in within-tick processing order: repairs free
/// capacity first, departures next, then switches, arrivals, and faults
/// strike last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FarmEventKind {
    BoardRestore,
    End,
    AbrSwitch,
    Start,
    BoardDown,
}

/// The pre-generated, tick-aligned event schedule both modes replay.
#[derive(Debug, Clone)]
pub struct FarmSchedule {
    sessions: Vec<PlannedSession>,
    /// `(time, kind, session)` sorted; board events carry the board index
    /// in the session slot.
    events: Vec<(u64, FarmEventKind, u32)>,
}

impl FarmSchedule {
    /// Number of planned sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Number of schedule events (starts, ends, switches, board events).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }
}

/// Generates the diurnal session schedule for a config: a thinned Poisson
/// process whose intensity follows the Fig. 5 gaming-trace envelope, with
/// per-session catalogue/rung/encoder draws and optional mid-stream ABR
/// switches. Both farm modes replay this schedule verbatim.
pub fn generate_schedule(cfg: &FarmConfig) -> FarmSchedule {
    let mut rng = SimRng::seed(cfg.seed);
    let envelope = GamingTraceConfig::default();
    let catalogue = socc_video::vbench::videos();
    let ladders: Vec<Ladder> = catalogue.iter().map(Ladder::standard).collect();
    let jobs: Vec<Vec<VideoMeta>> = catalogue
        .iter()
        .zip(&ladders)
        .map(|(v, l)| l.jobs(v))
        .collect();

    let mut sessions = Vec::new();
    let mut events: Vec<(u64, FarmEventKind, u32)> = Vec::new();
    let peak_rate = cfg.peak_arrivals_per_hour / 3600.0;
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(peak_rate);
        if t >= cfg.horizon_secs as f64 {
            break;
        }
        let hour = (t / 3600.0) % 24.0;
        if !rng.chance(envelope.envelope(hour)) {
            continue; // thinning: off-peak candidates mostly rejected
        }
        let start = t.floor() as u64;

        // Catalogue draw.
        let mut pick = rng.next_f64();
        let mut vid = 0usize;
        for (i, w) in CATALOGUE_WEIGHTS.iter().enumerate() {
            if pick < *w {
                vid = i;
                break;
            }
            pick -= w;
            vid = i;
        }
        let rungs = &jobs[vid];
        let rung = rung_for(rng.next_f64(), rungs.len());
        let hw = rng.chance(cfg.hw_fraction);

        let secs = rng.lognormal((cfg.median_session_mins * 60.0).ln(), 0.5);
        let dur = (secs.round() as u64).max(120);
        let end = start.checked_add(dur).filter(|&e| e < cfg.horizon_secs);

        // Mid-stream ABR switch halfway through, to a different rung.
        let switch = if rungs.len() > 1 && dur >= 600 && rng.chance(cfg.abr_switch_prob) {
            let at = start + dur / 2;
            let mut other = rung_for(rng.next_f64(), rungs.len());
            if other == rung {
                other = (other + 1) % rungs.len();
            }
            (at < cfg.horizon_secs && end.is_none_or(|e| at < e))
                .then(|| (at, rungs[other].clone()))
        } else {
            None
        };

        let s = sessions.len() as u32;
        events.push((start, FarmEventKind::Start, s));
        if let Some(e) = end {
            events.push((e, FarmEventKind::End, s));
        }
        if let Some((at, _)) = switch {
            events.push((at, FarmEventKind::AbrSwitch, s));
        }
        sessions.push(PlannedSession {
            start,
            end,
            hw,
            job: rungs[rung].clone(),
            switch,
        });
    }
    if let Some(f) = cfg.fault {
        assert!(
            (f.board + 1) * SOCS_PER_PCB <= cfg.socs,
            "fault board {} out of range for {} SoCs",
            f.board,
            cfg.socs
        );
        if f.at_secs < cfg.horizon_secs {
            events.push((f.at_secs, FarmEventKind::BoardDown, f.board as u32));
            let repair = f.at_secs + f.repair_secs;
            if repair < cfg.horizon_secs {
                events.push((repair, FarmEventKind::BoardRestore, f.board as u32));
            }
        }
    }
    events.sort();
    FarmSchedule { sessions, events }
}

/// Collapses a uniform draw onto a rung index under [`RUNG_WEIGHTS`],
/// clamped to the ladder length.
fn rung_for(draw: f64, rungs: usize) -> usize {
    let ideal = if draw < RUNG_WEIGHTS[0] {
        0
    } else if draw < RUNG_WEIGHTS[0] + RUNG_WEIGHTS[1] {
        1
    } else {
        2
    };
    ideal.min(rungs.saturating_sub(1))
}

/// The GOP-boundary migration price of a live session: checkpoint size
/// (see [`GopStructure::checkpoint_size`]) and the seconds the stream is
/// dark while that state crosses the calibrated inter-SoC TCP path at its
/// 1 GbE fair share (~935.8 Mbps goodput) plus slow-start ramp.
pub fn migration_cost(job: &VideoMeta) -> (DataSize, f64) {
    let checkpoint = GopStructure::live_default().checkpoint_size(job);
    let tcp = TcpModel::inter_soc();
    let mttr = tcp
        .transfer_time(checkpoint, DataRate::bps(socc_hw::calib::PCB_UPLINK_BPS))
        .as_secs_f64();
    (checkpoint, mttr)
}

/// Farm run outcome. Counter fields and the placement digest must match
/// exactly between modes; integral fields match within float tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FarmReport {
    /// Sessions admitted (including re-admissions after ABR switches).
    pub admitted: u64,
    /// Admission rejections (capacity or network bound).
    pub rejected: u64,
    /// Sessions that ran to their scheduled end.
    pub completed: u64,
    /// ABR switches executed.
    pub abr_switches: u64,
    /// Sessions lost because the post-switch rung found no slot.
    pub abr_drops: u64,
    /// Sessions migrated off a failed board.
    pub migrations: u64,
    /// Sessions lost at a board fault (no healthy slot fit).
    pub fault_drops: u64,
    /// Peak concurrent live sessions.
    pub peak_concurrent: usize,
    /// Live sessions at the moment the board fault struck.
    pub concurrent_at_fault: usize,
    /// Venus hardware-codec session starts.
    pub hw_sessions: u64,
    /// SoC-CPU x264 session starts.
    pub cpu_sessions: u64,

    /// ∫ cluster power dt over the horizon, joules.
    pub energy_j: f64,
    /// ∫ active-session count dt, session-seconds.
    pub session_secs: f64,
    /// ∫ Σ per-session live PSNR dt, dB·seconds.
    pub psnr_secs: f64,
    /// ∫ Σ per-session egress bitrate dt, Mbit (Mbps·seconds).
    pub egress_mbps_secs: f64,
    /// Total stream dark time across fault migrations, seconds.
    pub downtime_secs: f64,

    /// Migration MTTR sum over migrated sessions, milliseconds.
    pub mttr_sum_ms: f64,
    /// Largest single migration MTTR, milliseconds.
    pub mttr_max_ms: f64,
    /// Checkpoint bytes moved across all migrations.
    pub checkpoint_bytes: f64,

    /// FNV-1a digest over every `(time, session, soc)` placement.
    pub digest: u64,
    /// Allocations observed inside quiet-span integration (analytic mode;
    /// the ≥5× fast path earns its name only if this stays 0).
    pub steady_allocs: u64,
    /// Quiet spans integrated (analytic) — the epoch count.
    pub spans: u64,
    /// Ticks stepped (simulation).
    pub ticks: u64,

    /// Per-component energy from the ledger (CPU, codec, GPU, DSP,
    /// memory), joules, summed over SoCs at the horizon.
    pub component_energy_j: [f64; 5],
    /// Chassis (PCB/ESB/BMC/fan) energy from the ledger, joules.
    pub chassis_energy_j: f64,
}

impl FarmReport {
    /// Mean energy per served session-hour, joules.
    pub fn energy_per_session_hour_j(&self) -> f64 {
        if self.session_secs <= 0.0 {
            return 0.0;
        }
        self.energy_j / (self.session_secs / 3600.0)
    }

    /// Time-mean PSNR across live sessions, dB.
    pub fn mean_psnr_db(&self) -> f64 {
        if self.session_secs <= 0.0 {
            return 0.0;
        }
        self.psnr_secs / self.session_secs
    }

    /// Mean migration MTTR, milliseconds.
    pub fn mttr_mean_ms(&self) -> f64 {
        if self.migrations == 0 {
            return 0.0;
        }
        self.mttr_sum_ms / self.migrations as f64
    }
}

/// Minimal allocation probe over an external counter (the bench harness
/// owns the counting `GlobalAlloc`; it reaches this crate as a closure).
struct Probe<'a> {
    count: &'a dyn Fn() -> u64,
    start: u64,
}

impl<'a> Probe<'a> {
    fn new(count: &'a dyn Fn() -> u64) -> Self {
        Self {
            start: count(),
            count,
        }
    }

    fn restart(&mut self) {
        self.start = (self.count)();
    }

    fn delta(&self) -> u64 {
        (self.count)() - self.start
    }
}

/// Per-session live state while deployed.
#[derive(Debug, Clone, Copy)]
enum SessionState {
    Pending,
    Active(WorkloadId),
    Gone,
}

struct FarmRun<'a> {
    cfg: &'a FarmConfig,
    schedule: &'a FarmSchedule,
    orch: Orchestrator,
    state: Vec<SessionState>,
    by_id: IdMap<WorkloadId, u32>,
    /// Running Σ live PSNR (dB) over active sessions.
    psnr_sum: f64,
    /// Running Σ egress bitrate (Mbps) over active sessions.
    egress_sum: f64,
    active: usize,
    report: FarmReport,
}

/// FNV-1a over a placement observation.
fn fnv_mix(digest: u64, t: u64, session: u32, soc: usize) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut d = digest;
    for word in [t, session as u64, soc as u64] {
        for byte in word.to_le_bytes() {
            d ^= byte as u64;
            d = d.wrapping_mul(PRIME);
        }
    }
    d
}

impl FarmRun<'_> {
    /// The current transcode job of a session (post-switch rung once the
    /// switch fired).
    fn job_at(&self, s: u32, t: u64) -> &VideoMeta {
        let planned = &self.schedule.sessions[s as usize];
        match &planned.switch {
            Some((at, job)) if t >= *at => job,
            _ => &planned.job,
        }
    }

    fn encoder_of(&self, s: u32) -> EncoderKind {
        if self.schedule.sessions[s as usize].hw {
            EncoderKind::MediaCodec
        } else {
            EncoderKind::X264
        }
    }

    fn quality_of(&self, s: u32, job: &VideoMeta) -> (f64, f64) {
        let enc = self.encoder_of(s);
        let psnr = live_psnr(enc, job);
        let egress = enc
            .output_bitrate(job, RateControl::Cbr(job.target_bitrate))
            .as_mbps();
        (psnr, egress)
    }

    fn spec_for(&self, s: u32, job: &VideoMeta) -> WorkloadSpec {
        if self.schedule.sessions[s as usize].hw {
            WorkloadSpec::LiveStreamHw { video: job.clone() }
        } else {
            WorkloadSpec::LiveStreamCpu { video: job.clone() }
        }
    }

    fn start_session(&mut self, t: u64, s: u32) {
        let job = self.job_at(s, t).clone();
        let spec = self.spec_for(s, &job);
        match self.orch.submit(spec) {
            Ok(id) => {
                let soc = self.orch.placement_of(id).expect("just placed");
                self.report.digest = fnv_mix(self.report.digest, t, s, soc);
                self.state[s as usize] = SessionState::Active(id);
                self.by_id.insert(id, s);
                let (psnr, egress) = self.quality_of(s, &job);
                self.psnr_sum += psnr;
                self.egress_sum += egress;
                self.active += 1;
                self.report.peak_concurrent = self.report.peak_concurrent.max(self.active);
                self.report.admitted += 1;
                if self.schedule.sessions[s as usize].hw {
                    self.report.hw_sessions += 1;
                } else {
                    self.report.cpu_sessions += 1;
                }
            }
            Err(_) => {
                self.report.rejected += 1;
                self.state[s as usize] = SessionState::Gone;
            }
        }
    }

    fn end_session(&mut self, t: u64, s: u32) {
        if let SessionState::Active(id) = self.state[s as usize] {
            self.orch.finish(id).expect("active session is deployed");
            self.by_id.remove(&id);
            let job = self.job_at(s, t).clone();
            let (psnr, egress) = self.quality_of(s, &job);
            self.psnr_sum -= psnr;
            self.egress_sum -= egress;
            self.active -= 1;
            self.state[s as usize] = SessionState::Gone;
            self.report.completed += 1;
        }
    }

    fn switch_session(&mut self, t: u64, s: u32) {
        let SessionState::Active(id) = self.state[s as usize] else {
            return;
        };
        let old_job = self.schedule.sessions[s as usize].job.clone();
        let (at, new_job) = self.schedule.sessions[s as usize]
            .switch
            .clone()
            .expect("switch event implies a planned switch");
        debug_assert_eq!(at, t);
        // Release the old rung first so the new one can reuse its slot.
        self.orch.finish(id).expect("active session is deployed");
        self.by_id.remove(&id);
        let (psnr, egress) = self.quality_of(s, &old_job);
        self.psnr_sum -= psnr;
        self.egress_sum -= egress;
        let spec = self.spec_for(s, &new_job);
        match self.orch.submit(spec) {
            Ok(nid) => {
                let soc = self.orch.placement_of(nid).expect("just placed");
                self.report.digest = fnv_mix(self.report.digest, t, s, soc);
                self.state[s as usize] = SessionState::Active(nid);
                self.by_id.insert(nid, s);
                let (psnr, egress) = self.quality_of(s, &new_job);
                self.psnr_sum += psnr;
                self.egress_sum += egress;
                self.report.abr_switches += 1;
            }
            Err(_) => {
                self.active -= 1;
                self.state[s as usize] = SessionState::Gone;
                self.report.abr_drops += 1;
            }
        }
    }

    fn board_down(&mut self, t: u64, board: usize) {
        self.report.concurrent_at_fault = self.active;
        let slots: Range<usize> = board * SOCS_PER_PCB..(board + 1) * SOCS_PER_PCB;
        let mut victims: Vec<(WorkloadId, WorkloadSpec)> = Vec::new();
        for soc in slots.clone() {
            victims.extend(self.orch.fail_soc(soc));
        }
        for (id, spec) in victims {
            let s = self.by_id.remove(&id).expect("victim is a farm session");
            let job = match &spec {
                WorkloadSpec::LiveStreamCpu { video } | WorkloadSpec::LiveStreamHw { video } => {
                    video.clone()
                }
                _ => unreachable!("farm deploys only live streams"),
            };
            match self
                .orch
                .submit_avoiding(spec, std::slice::from_ref(&slots))
            {
                Ok(nid) => {
                    let soc = self.orch.placement_of(nid).expect("just placed");
                    self.report.digest = fnv_mix(self.report.digest, t, s, soc);
                    self.state[s as usize] = SessionState::Active(nid);
                    self.by_id.insert(nid, s);
                    let (checkpoint, mttr) = migration_cost(&job);
                    self.report.migrations += 1;
                    self.report.downtime_secs += mttr;
                    self.report.mttr_sum_ms += mttr * 1e3;
                    self.report.mttr_max_ms = self.report.mttr_max_ms.max(mttr * 1e3);
                    self.report.checkpoint_bytes += checkpoint.as_bytes();
                }
                Err(_) => {
                    let (psnr, egress) = self.quality_of(s, &job);
                    self.psnr_sum -= psnr;
                    self.egress_sum -= egress;
                    self.active -= 1;
                    self.state[s as usize] = SessionState::Gone;
                    self.report.fault_drops += 1;
                }
            }
        }
    }

    fn board_restore(&mut self, board: usize) {
        for soc in board * SOCS_PER_PCB..(board + 1) * SOCS_PER_PCB {
            self.orch.restore_soc(soc);
        }
    }

    fn apply_event(&mut self, t: u64, kind: FarmEventKind, arg: u32) {
        match kind {
            FarmEventKind::Start => self.start_session(t, arg),
            FarmEventKind::End => self.end_session(t, arg),
            FarmEventKind::AbrSwitch => self.switch_session(t, arg),
            FarmEventKind::BoardDown => self.board_down(t, arg as usize),
            FarmEventKind::BoardRestore => self.board_restore(arg as usize),
        }
    }

    /// Integrates the running sums over a quiet span of `dt` seconds.
    /// Pure arithmetic over pre-allocated state: the analytic fast path
    /// measures its allocation count across exactly this region.
    #[inline]
    fn integrate(&mut self, dt: f64) {
        let p = self.orch.power().as_watts();
        self.report.energy_j += p * dt;
        self.report.session_secs += self.active as f64 * dt;
        self.report.psnr_secs += self.psnr_sum * dt;
        self.report.egress_mbps_secs += self.egress_sum * dt;
    }

    fn finalize(&mut self, horizon: u64) {
        let t = SimTime::from_secs(horizon);
        let ledger = self.orch.energy_ledger();
        for (slot, c) in Component::ALL.iter().enumerate() {
            let mut sum = 0.0;
            for soc in 0..self.cfg.socs {
                sum += ledger.component_energy(soc, *c, t).as_joules();
            }
            self.report.component_energy_j[slot] = sum;
        }
        self.report.chassis_energy_j = ledger.chassis_energy(t).as_joules();
    }
}

/// Runs the farm schedule in the requested mode. `alloc_count` is the
/// bench binary's counting-allocator reading (pass `&|| 0` outside the
/// bench harness); the analytic mode samples it around every quiet-span
/// integration and reports the delta as [`FarmReport::steady_allocs`].
pub fn run_farm(
    cfg: &FarmConfig,
    schedule: &FarmSchedule,
    mode: FarmMode,
    alloc_count: &dyn Fn() -> u64,
) -> FarmReport {
    let orch = Orchestrator::new(OrchestratorConfig {
        cluster: ClusterConfig {
            soc_count: cfg.socs,
            ..ClusterConfig::default()
        },
        scheduler: Box::new(BinPack),
        // A live farm keeps slots warm: placement must not wait on a
        // wake-up, and piecewise-constant power between events is what
        // lets the analytic mode integrate in closed form.
        sleep_after: None,
    });
    let mut run = FarmRun {
        cfg,
        schedule,
        orch,
        state: vec![SessionState::Pending; schedule.sessions.len()],
        by_id: IdMap::with_capacity_and_hasher(1024, Default::default()),
        psnr_sum: 0.0,
        egress_sum: 0.0,
        active: 0,
        report: FarmReport {
            digest: 0xCBF2_9CE4_8422_2325, // FNV-1a offset basis
            ..FarmReport::default()
        },
    };
    let horizon = cfg.horizon_secs;
    match mode {
        FarmMode::Simulation => {
            let mut ev = 0usize;
            for tick in 0..horizon {
                run.orch.advance_to(SimTime::from_secs(tick));
                while ev < schedule.events.len() && schedule.events[ev].0 == tick {
                    let (t, kind, arg) = schedule.events[ev];
                    run.apply_event(t, kind, arg);
                    ev += 1;
                }
                run.integrate(1.0);
                run.report.ticks += 1;
            }
        }
        FarmMode::Analytic => {
            let mut probe = Probe::new(alloc_count);
            let mut ev = 0usize;
            let mut now = 0u64;
            // Events at t = 0 fire before the first span.
            while ev < schedule.events.len() && schedule.events[ev].0 == 0 {
                let (t, kind, arg) = schedule.events[ev];
                run.apply_event(t, kind, arg);
                ev += 1;
            }
            while now < horizon {
                let next = schedule
                    .events
                    .get(ev)
                    .map_or(horizon, |&(t, _, _)| t.min(horizon));
                // Quiet span [now, next): closed-form integration, no
                // allocations — the steady-state fast path. Sub-stepped
                // at `THERMAL_CHUNK_SECS` so the fan-duty control loop
                // stays close to the 1-second reference trajectory.
                let chunk_end = next.min(now + THERMAL_CHUNK_SECS);
                probe.restart();
                run.integrate((chunk_end - now) as f64);
                run.report.steady_allocs += probe.delta();
                run.report.spans += 1;
                now = chunk_end;
                if now < horizon {
                    run.orch.advance_to(SimTime::from_secs(now));
                    while ev < schedule.events.len() && schedule.events[ev].0 == now {
                        let (t, kind, arg) = schedule.events[ev];
                        run.apply_event(t, kind, arg);
                        ev += 1;
                    }
                }
            }
        }
    }
    run.orch.advance_to(SimTime::from_secs(horizon));
    run.finalize(horizon);
    run.report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FarmConfig {
        FarmConfig {
            socs: 20,
            horizon_secs: 3 * 3600,
            peak_arrivals_per_hour: 120.0,
            median_session_mins: 40.0,
            hw_fraction: 0.5,
            abr_switch_prob: 0.25,
            seed: 7,
            fault: None,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_tick_aligned() {
        let cfg = small();
        let a = generate_schedule(&cfg);
        let b = generate_schedule(&cfg);
        assert_eq!(a.event_count(), b.event_count());
        assert!(a.session_count() > 0);
        for (i, s) in a.sessions.iter().enumerate() {
            assert_eq!(s.start, b.sessions[i].start);
            if let Some(e) = s.end {
                assert!(e > s.start && e < cfg.horizon_secs);
            }
            if let Some((at, _)) = &s.switch {
                assert!(*at > s.start);
            }
        }
        // Events sorted by (time, kind, session).
        assert!(a.events.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn both_modes_agree_on_a_small_farm() {
        let cfg = small();
        let schedule = generate_schedule(&cfg);
        let ana = run_farm(&cfg, &schedule, FarmMode::Analytic, &|| 0);
        let sim = run_farm(&cfg, &schedule, FarmMode::Simulation, &|| 0);
        assert_eq!(ana.digest, sim.digest, "placements must be identical");
        assert_eq!(ana.admitted, sim.admitted);
        assert_eq!(ana.rejected, sim.rejected);
        assert_eq!(ana.completed, sim.completed);
        assert_eq!(ana.abr_switches, sim.abr_switches);
        assert_eq!(ana.peak_concurrent, sim.peak_concurrent);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0);
        assert!(close(ana.session_secs, sim.session_secs));
        assert!(close(ana.psnr_secs, sim.psnr_secs));
        assert!(close(ana.egress_mbps_secs, sim.egress_mbps_secs));
        // SoC power is piecewise-constant between epochs so component
        // energies agree to fp-summation order; the fan-duty feedback loop
        // steps once per `advance_to`, so total/chassis energy carries a
        // small step-size-dependent fan term (see module docs).
        for c in 0..5 {
            assert!(close(ana.component_energy_j[c], sim.component_energy_j[c]));
        }
        let fan_close =
            |a: f64, b: f64| (a - b).abs() <= FAN_ENERGY_REL_TOL * a.abs().max(b.abs()).max(1.0);
        assert!(fan_close(ana.energy_j, sim.energy_j), "{ana:?} {sim:?}");
        assert!(fan_close(ana.chassis_energy_j, sim.chassis_energy_j));
    }

    #[test]
    fn analytic_quiet_spans_do_not_allocate_per_tick() {
        let cfg = small();
        let schedule = generate_schedule(&cfg);
        let r = run_farm(&cfg, &schedule, FarmMode::Analytic, &|| 0);
        // With a null counter the probe trivially reads 0 — the real gate
        // runs under the bench binary's counting allocator; here we pin
        // the span count is event-bounded, not tick-bounded.
        assert_eq!(r.steady_allocs, 0);
        let chunk_bound = (cfg.horizon_secs / 60) as usize;
        assert!(r.spans as usize <= schedule.event_count() + chunk_bound + 2);
        assert!(r.spans < cfg.horizon_secs / 4);
    }

    #[test]
    fn board_fault_migrates_live_sessions_with_gop_mttr() {
        let cfg = FarmConfig {
            fault: Some(FarmFault {
                board: 0,
                at_secs: 5400,
                repair_secs: 600,
            }),
            ..small()
        };
        let schedule = generate_schedule(&cfg);
        let r = run_farm(&cfg, &schedule, FarmMode::Analytic, &|| 0);
        assert!(r.migrations > 0, "peak-hour board carries sessions");
        assert!(r.downtime_secs > 0.0);
        // MTTR is checkpoint ÷ goodput: every migration sits in the
        // band the vbench catalogue's checkpoint sizes imply.
        let (min_ck, _) = migration_cost(&socc_video::vbench::by_id("V1").unwrap());
        let goodput_bps =
            socc_hw::calib::PCB_UPLINK_BPS * socc_net::packet::calibrated_goodput_factor();
        let floor_ms = min_ck.as_bytes() * 8.0 / goodput_bps * 1e3;
        assert!(r.mttr_mean_ms() >= floor_ms * 0.5, "{}", r.mttr_mean_ms());
        assert!(r.mttr_max_ms < 2_000.0, "live MTTR stays sub-2s");
    }

    #[test]
    fn migration_cost_scales_with_the_rung() {
        let v5 = socc_video::vbench::by_id("V5").unwrap();
        let ladder = Ladder::standard(&v5);
        let jobs = ladder.jobs(&v5);
        let (ck_top, mttr_top) = migration_cost(&jobs[0]);
        let (ck_low, mttr_low) = migration_cost(&jobs[2]);
        assert!(ck_low.as_bytes() < ck_top.as_bytes());
        assert!(mttr_low < mttr_top);
        assert!(mttr_top < 1.0, "1080p checkpoint crosses in well under 1 s");
    }
}
