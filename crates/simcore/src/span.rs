//! Typed, sim-time-aware structured events and spans.
//!
//! This module replaces free-form string tracing on the simulator's hot
//! paths with a bounded, allocation-free event log:
//!
//! - [`EventKind`] is a closed set of `Copy` payloads (placement,
//!   migration, fault, DVFS transition, flow start/finish, …) — no heap,
//!   no formatting at record time;
//! - [`Scope`] tags the emitting subsystem and doubles as a bitmask
//!   filter, so a log can keep only the scopes a test cares about;
//! - [`EventLog`] is a fixed-capacity ring buffer: recording never
//!   allocates, a disabled log costs one branch, and a log built
//!   [`disabled`](EventLog::disabled) owns no heap until recording is
//!   first switched on;
//! - exporters render the retained window as JSONL
//!   ([`EventLog::to_jsonl`]), as a Chrome `trace_event` document
//!   ([`EventLog::to_chrome_trace`]) loadable in `chrome://tracing` /
//!   Perfetto, or as a stable digest ([`EventLog::digest`]) for
//!   golden-trace regression tests.
//!
//! Spans ([`EventLog::begin_span`] / [`EventLog::end_span`]) bracket an
//! activity in sim time; they export as `B`/`E` pairs in the Chrome trace.

use core::fmt;
use std::fmt::Write as _;

use crate::hash::{fnv1a, FNV_OFFSET};
use crate::time::SimTime;

/// Subsystem that emitted an event. Doubles as a filter bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Scope {
    /// Admission and placement decisions.
    Placement = 0,
    /// SoC power-state transitions (wake, sleep, off, restore).
    Power = 1,
    /// Ground-truth fault injection (single-SoC and domain-level).
    Fault = 2,
    /// Heartbeat detection and BMC classification.
    Detector = 3,
    /// Remediation: retries, migrations, shedding, repairs.
    Recovery = 4,
    /// Flow-level network simulator.
    Net = 5,
    /// DL serving.
    Serving = 6,
    /// Video transcode sessions.
    Video = 7,
    /// Energy accounting (ledger conservation checkpoints).
    Energy = 8,
    /// Fleet-level control plane: cross-site routing and WAN faults.
    Fleet = 9,
}

impl Scope {
    /// Every scope, in tag order.
    pub const ALL: [Scope; 10] = [
        Scope::Placement,
        Scope::Power,
        Scope::Fault,
        Scope::Detector,
        Scope::Recovery,
        Scope::Net,
        Scope::Serving,
        Scope::Video,
        Scope::Energy,
        Scope::Fleet,
    ];

    /// The scope's bit in an [`EventLog`] filter mask.
    pub(crate) const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Stable lower-case name (used by every exporter).
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Scope::Placement => "placement",
            Scope::Power => "power",
            Scope::Fault => "fault",
            Scope::Detector => "detector",
            Scope::Recovery => "recovery",
            Scope::Net => "net",
            Scope::Serving => "serving",
            Scope::Video => "video",
            Scope::Energy => "energy",
            Scope::Fleet => "fleet",
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A field value attached to a typed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FieldValue {
    /// An unsigned integer (ids, indices, counts).
    U64(u64),
    /// A static label (fault kind, detected class, span name).
    Label(&'static str),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Label(s) => f.write_str(s),
        }
    }
}

/// One named field of an event: `(name, value)`.
pub(crate) type Field = (&'static str, FieldValue);

/// Typed event payloads. Every variant is `Copy` and heap-free, so
/// recording one is a handful of register moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A workload was admitted and placed on a SoC.
    Placed {
        /// Workload id.
        workload: u64,
        /// Target SoC slot.
        soc: u32,
    },
    /// A workload finished (explicitly or at its archive deadline).
    Finished {
        /// Workload id.
        workload: u64,
        /// SoC it ran on.
        soc: u32,
    },
    /// A sleeping/idle SoC was woken to take work.
    Wake {
        /// SoC slot.
        soc: u32,
    },
    /// An idle SoC was put to sleep.
    Sleep {
        /// SoC slot.
        soc: u32,
    },
    /// A SoC was decommissioned (fault or BMC power-off).
    SocOff {
        /// SoC slot.
        soc: u32,
    },
    /// A previously failed SoC returned to service.
    SocRestored {
        /// SoC slot.
        soc: u32,
    },
    /// Ground truth: a fault struck a SoC.
    FaultInjected {
        /// Victim SoC.
        soc: u32,
        /// Fault kind label (`flash`, `soc_hang`, …).
        kind: &'static str,
    },
    /// Ground truth: a correlated domain fault fired.
    DomainFaultInjected {
        /// Domain label (`board_down`, `partition`, `brownout`).
        domain: &'static str,
        /// Domain index (board, port group or rail).
        index: u32,
    },
    /// The heartbeat detector declared a SoC failed.
    FaultDetected {
        /// Silent SoC.
        soc: u32,
    },
    /// BMC out-of-band probing classified a detected failure.
    FaultClassified {
        /// Classified SoC.
        soc: u32,
        /// Detected class label (`crash`, `hang`, …).
        class: &'static str,
    },
    /// A displaced workload's re-placement was deferred with backoff.
    RetryScheduled {
        /// Original workload id.
        workload: u64,
        /// Attempt number (1 = immediate post-detection try).
        attempt: u32,
    },
    /// A displaced workload was successfully re-placed.
    Migrated {
        /// Original workload id.
        workload: u64,
        /// New SoC slot.
        soc: u32,
    },
    /// A workload was deliberately evicted to make room.
    WorkloadShed {
        /// Original workload id.
        workload: u64,
    },
    /// A workload could not be re-placed anywhere.
    WorkloadLost {
        /// Original workload id.
        workload: u64,
    },
    /// A workload was dropped at migration time (no recovery loop).
    WorkloadDropped {
        /// Workload id.
        workload: u64,
    },
    /// DVFS throughput was capped (PSU brownout derating).
    DvfsCapped {
        /// Retained throughput in permille of nominal.
        permille: u32,
    },
    /// A PSU rail browned out.
    BrownoutStarted {
        /// Rail index.
        rail: u32,
    },
    /// A browned-out PSU rail recovered.
    BrownoutEnded {
        /// Rail index.
        rail: u32,
    },
    /// An ESB port group went dark.
    PartitionStarted {
        /// Port-group index.
        group: u32,
    },
    /// A dark ESB port group healed.
    PartitionHealed {
        /// Port-group index.
        group: u32,
    },
    /// A BMC power cycle was issued for a hung SoC.
    PowerCycleIssued {
        /// SoC slot.
        soc: u32,
    },
    /// A thermally tripped SoC entered its cooldown.
    CooldownStarted {
        /// SoC slot.
        soc: u32,
    },
    /// A lost access link entered repair.
    LinkRepairStarted {
        /// SoC slot whose links are repairing.
        soc: u32,
    },
    /// A long-lived stream attached to the fabric.
    FlowStarted {
        /// Stream id.
        flow: u64,
    },
    /// A long-lived stream detached.
    FlowFinished {
        /// Stream id.
        flow: u64,
    },
    /// A finite transfer started.
    TransferStarted {
        /// Transfer id.
        transfer: u64,
    },
    /// A finite transfer drained.
    TransferFinished {
        /// Transfer id.
        transfer: u64,
    },
    /// A fabric link failed.
    LinkFailed {
        /// Link id.
        link: u32,
    },
    /// A fabric link was repaired.
    LinkRepaired {
        /// Link id.
        link: u32,
    },
    /// A packet was dropped at a full port buffer (packet mode).
    PacketDropped {
        /// Link id of the congested port.
        link: u32,
    },
    /// A packet was ECN-marked at an over-threshold port (packet mode).
    EcnMarked {
        /// Link id of the marking port.
        link: u32,
    },
    /// A sender halved its congestion window (packet mode).
    CwndReduced {
        /// Flow id.
        flow: u64,
    },
    /// A site's WAN uplink partitioned from the fleet control plane.
    SiteUnreachable {
        /// Site index.
        site: u32,
    },
    /// A partitioned site's WAN uplink healed.
    SiteHealed {
        /// Site index.
        site: u32,
    },
    /// Sessions the fleet placer routed to a site in one sync window.
    SessionsRouted {
        /// Target site index.
        site: u32,
        /// Sessions routed this window.
        count: u32,
    },
    /// Sessions diverted away from their home site (partition or no
    /// capacity) in one sync window.
    SessionsRerouted {
        /// Home site the sessions were diverted from.
        site: u32,
        /// Sessions rerouted this window.
        count: u32,
    },
    /// A site lost utility power: every PSU rail dark, all SoCs down.
    SiteBlackout {
        /// Site index.
        site: u32,
    },
    /// A blacked-out site's power returned; SoCs restored to service.
    SitePowerRestored {
        /// Site index.
        site: u32,
    },
    /// A site lost one PSU rail: every board's DVFS derated until the
    /// rail returns.
    SiteBrownout {
        /// Site index.
        site: u32,
        /// Throughput fraction the site keeps, permille.
        permille: u32,
    },
    /// A browned-out site's rail returned; full capacity restored.
    SiteBrownoutEnded {
        /// Site index.
        site: u32,
    },
    /// A regional WAN storm partitioned every site in one region.
    RegionStorm {
        /// Region index.
        region: u32,
    },
    /// Live inter-site migrations that landed at a host site in one sync
    /// window.
    SessionsMigrated {
        /// Host site the sessions resumed at.
        site: u32,
        /// Migrations completed this window.
        count: u32,
    },
    /// Opening edge of a span.
    SpanBegin {
        /// Span id (pairs with the matching [`EventKind::SpanEnd`]).
        span: u32,
        /// Span name.
        name: &'static str,
    },
    /// Closing edge of a span.
    SpanEnd {
        /// Span id.
        span: u32,
        /// Span name.
        name: &'static str,
    },
}

impl EventKind {
    /// Stable lower-case event name (used by every exporter).
    pub const fn name(&self) -> &'static str {
        match self {
            EventKind::Placed { .. } => "placed",
            EventKind::Finished { .. } => "finished",
            EventKind::Wake { .. } => "wake",
            EventKind::Sleep { .. } => "sleep",
            EventKind::SocOff { .. } => "soc_off",
            EventKind::SocRestored { .. } => "soc_restored",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::DomainFaultInjected { .. } => "domain_fault",
            EventKind::FaultDetected { .. } => "fault_detected",
            EventKind::FaultClassified { .. } => "fault_classified",
            EventKind::RetryScheduled { .. } => "retry_scheduled",
            EventKind::Migrated { .. } => "migrated",
            EventKind::WorkloadShed { .. } => "workload_shed",
            EventKind::WorkloadLost { .. } => "workload_lost",
            EventKind::WorkloadDropped { .. } => "workload_dropped",
            EventKind::DvfsCapped { .. } => "dvfs_capped",
            EventKind::BrownoutStarted { .. } => "brownout_started",
            EventKind::BrownoutEnded { .. } => "brownout_ended",
            EventKind::PartitionStarted { .. } => "partition_started",
            EventKind::PartitionHealed { .. } => "partition_healed",
            EventKind::PowerCycleIssued { .. } => "power_cycle_issued",
            EventKind::CooldownStarted { .. } => "cooldown_started",
            EventKind::LinkRepairStarted { .. } => "link_repair_started",
            EventKind::FlowStarted { .. } => "flow_started",
            EventKind::FlowFinished { .. } => "flow_finished",
            EventKind::TransferStarted { .. } => "transfer_started",
            EventKind::TransferFinished { .. } => "transfer_finished",
            EventKind::LinkFailed { .. } => "link_failed",
            EventKind::LinkRepaired { .. } => "link_repaired",
            EventKind::PacketDropped { .. } => "packet_dropped",
            EventKind::EcnMarked { .. } => "ecn_marked",
            EventKind::CwndReduced { .. } => "cwnd_reduced",
            EventKind::SiteUnreachable { .. } => "site_unreachable",
            EventKind::SiteHealed { .. } => "site_healed",
            EventKind::SessionsRouted { .. } => "sessions_routed",
            EventKind::SessionsRerouted { .. } => "sessions_rerouted",
            EventKind::SiteBlackout { .. } => "site_blackout",
            EventKind::SitePowerRestored { .. } => "site_power_restored",
            EventKind::SiteBrownout { .. } => "site_brownout",
            EventKind::SiteBrownoutEnded { .. } => "site_brownout_ended",
            EventKind::RegionStorm { .. } => "region_storm",
            EventKind::SessionsMigrated { .. } => "sessions_migrated",
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
        }
    }

    /// The event's fields as up-to-two `(name, value)` pairs, in a fixed
    /// order. Exporters iterate this so the JSONL, Chrome and digest views
    /// cannot drift apart.
    pub(crate) fn fields(&self) -> [Option<Field>; 2] {
        use FieldValue::{Label, U64};
        match *self {
            EventKind::Placed { workload, soc }
            | EventKind::Finished { workload, soc }
            | EventKind::Migrated { workload, soc } => {
                Some([("workload", U64(workload)), ("soc", U64(u64::from(soc)))])
            }
            EventKind::Wake { soc }
            | EventKind::Sleep { soc }
            | EventKind::SocOff { soc }
            | EventKind::SocRestored { soc }
            | EventKind::FaultDetected { soc }
            | EventKind::PowerCycleIssued { soc }
            | EventKind::CooldownStarted { soc }
            | EventKind::LinkRepairStarted { soc } => {
                return [Some(("soc", U64(u64::from(soc)))), None]
            }
            EventKind::FaultInjected { soc, kind } => {
                Some([("soc", U64(u64::from(soc))), ("kind", Label(kind))])
            }
            EventKind::DomainFaultInjected { domain, index } => {
                Some([("domain", Label(domain)), ("index", U64(u64::from(index)))])
            }
            EventKind::FaultClassified { soc, class } => {
                Some([("soc", U64(u64::from(soc))), ("class", Label(class))])
            }
            EventKind::RetryScheduled { workload, attempt } => Some([
                ("workload", U64(workload)),
                ("attempt", U64(u64::from(attempt))),
            ]),
            EventKind::WorkloadShed { workload }
            | EventKind::WorkloadLost { workload }
            | EventKind::WorkloadDropped { workload } => {
                return [Some(("workload", U64(workload))), None]
            }
            EventKind::DvfsCapped { permille } => {
                return [Some(("permille", U64(u64::from(permille)))), None]
            }
            EventKind::BrownoutStarted { rail } | EventKind::BrownoutEnded { rail } => {
                return [Some(("rail", U64(u64::from(rail)))), None]
            }
            EventKind::PartitionStarted { group } | EventKind::PartitionHealed { group } => {
                return [Some(("group", U64(u64::from(group)))), None]
            }
            EventKind::FlowStarted { flow } | EventKind::FlowFinished { flow } => {
                return [Some(("flow", U64(flow))), None]
            }
            EventKind::TransferStarted { transfer } | EventKind::TransferFinished { transfer } => {
                return [Some(("transfer", U64(transfer))), None]
            }
            EventKind::LinkFailed { link }
            | EventKind::LinkRepaired { link }
            | EventKind::PacketDropped { link }
            | EventKind::EcnMarked { link } => return [Some(("link", U64(u64::from(link)))), None],
            EventKind::CwndReduced { flow } => return [Some(("flow", U64(flow))), None],
            EventKind::SiteUnreachable { site }
            | EventKind::SiteHealed { site }
            | EventKind::SiteBlackout { site }
            | EventKind::SitePowerRestored { site }
            | EventKind::SiteBrownoutEnded { site } => {
                return [Some(("site", U64(u64::from(site)))), None]
            }
            EventKind::SiteBrownout { site, permille } => Some([
                ("site", U64(u64::from(site))),
                ("permille", U64(u64::from(permille))),
            ]),
            EventKind::RegionStorm { region } => {
                return [Some(("region", U64(u64::from(region)))), None]
            }
            EventKind::SessionsRouted { site, count }
            | EventKind::SessionsRerouted { site, count }
            | EventKind::SessionsMigrated { site, count } => Some([
                ("site", U64(u64::from(site))),
                ("count", U64(u64::from(count))),
            ]),
            EventKind::SpanBegin { span, name } | EventKind::SpanEnd { span, name } => {
                Some([("span", U64(u64::from(span))), ("name", Label(name))])
            }
        }
        .map_or([None, None], |[a, b]| [Some(a), Some(b)])
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())?;
        for (name, value) in self.fields().into_iter().flatten() {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Sim-time instant of the event.
    pub at: SimTime,
    /// Monotone sequence number (total order, survives ring eviction).
    pub seq: u64,
    /// Emitting subsystem.
    pub scope: Scope,
    /// Typed payload.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>14.6}s] {:<9} {}",
            self.at.as_secs_f64(),
            self.scope.name(),
            self.kind
        )
    }
}

/// Identifies a span opened by [`EventLog::begin_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

/// Ring capacity of [`EventLog::default`].
const DEFAULT_CAPACITY: usize = 1024;

/// A bounded, filterable, allocation-free typed event log.
///
/// An enabled log always owns its whole ring: [`EventLog::new`] reserves
/// it at construction, and a log built [`disabled`](EventLog::disabled)
/// reserves it the first time [`EventLog::set_enabled`] switches it on,
/// so a log that is never switched on costs no heap. [`EventLog::record`]
/// on an enabled log is a mask check plus one slot write, and on a
/// disabled log a single branch. Oldest events are evicted first once the
/// ring is full; [`EventLog::dropped`] counts evictions.
#[derive(Debug, Clone)]
pub struct EventLog {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    start: usize,
    enabled: bool,
    mask: u32,
    dropped: u64,
    seq: u64,
    next_span: u32,
}

impl EventLog {
    /// Creates an enabled log retaining at most `capacity` events, with
    /// every scope admitted. The ring is pre-allocated here so recording
    /// never touches the heap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        let mut log = Self::disabled(capacity);
        log.set_enabled(true);
        log
    }

    /// Creates a disabled log of `capacity` events that owns no heap:
    /// recording is a no-op, and the ring is reserved the first time
    /// [`EventLog::set_enabled`] turns it on.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn disabled(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        Self {
            buf: Vec::new(),
            capacity,
            start: 0,
            enabled: false,
            mask: u32::MAX,
            dropped: 0,
            seq: 0,
            next_span: 0,
        }
    }

    /// Turns recording on or off. The first switch-on of a log built
    /// [`disabled`](EventLog::disabled) reserves its ring of `capacity`
    /// events; later switches never touch the heap. Disabling keeps
    /// retained events.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled && self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.capacity);
        }
        self.enabled = enabled;
    }

    /// Restricts recording to the given scopes (events from other scopes
    /// are skipped before touching the ring).
    pub fn set_scopes(&mut self, scopes: &[Scope]) {
        self.mask = scopes.iter().fold(0, |m, s| m | s.bit());
    }

    /// Records one event. Allocation-free; a disabled log or filtered
    /// scope costs one branch.
    #[inline]
    pub fn record(&mut self, at: SimTime, scope: Scope, kind: EventKind) {
        if !self.enabled || self.mask & scope.bit() == 0 {
            return;
        }
        let e = Event {
            at,
            seq: self.seq,
            scope,
            kind,
        };
        self.seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(e);
        } else {
            self.buf[self.start] = e;
            self.start += 1;
            if self.start == self.capacity {
                self.start = 0;
            }
            self.dropped += 1;
        }
    }

    /// Opens a span and returns its id. Span ids are handed out even when
    /// the log is disabled so instrumented code needs no branches.
    pub fn begin_span(&mut self, at: SimTime, scope: Scope, name: &'static str) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span = self.next_span.wrapping_add(1);
        self.record(at, scope, EventKind::SpanBegin { span: id.0, name });
        id
    }

    /// Closes a span opened by [`EventLog::begin_span`].
    pub fn end_span(&mut self, at: SimTime, scope: Scope, id: SpanId, name: &'static str) {
        self.record(at, scope, EventKind::SpanEnd { span: id.0, name });
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the capacity bound.
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + evicted).
    pub const fn recorded(&self) -> u64 {
        self.seq
    }

    /// Iterates retained events oldest-first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }

    /// Renders the retained window as human-readable lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// Renders the retained window as JSON Lines: one object per event
    /// with `t_ns`, `seq`, `scope`, `event` and the typed fields.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"seq\":{},\"scope\":\"{}\",\"event\":\"{}\"",
                e.at.as_nanos(),
                e.seq,
                e.scope.name(),
                e.kind.name()
            );
            for (name, value) in e.kind.fields().into_iter().flatten() {
                match value {
                    FieldValue::U64(v) => {
                        let _ = write!(out, ",\"{name}\":{v}");
                    }
                    FieldValue::Label(s) => {
                        let _ = write!(out, ",\"{name}\":\"{s}\"");
                    }
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders the retained window in Chrome `trace_event` format
    /// (loadable in `chrome://tracing` or Perfetto). Instant events use
    /// phase `i`; spans export as `B`/`E` pairs. Sim-time nanoseconds map
    /// to trace microseconds; each scope gets its own named thread row.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for scope in Scope::ALL {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                scope as u8,
                scope.name()
            );
        }
        for e in self.events() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ts_us = e.at.as_nanos() as f64 / 1e3;
            let (name, phase): (&str, &str) = match e.kind {
                EventKind::SpanBegin { name, .. } => (name, "B"),
                EventKind::SpanEnd { name, .. } => (name, "E"),
                _ => (e.kind.name(), "i"),
            };
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"ph\":\"{phase}\",\"ts\":{ts_us:.3},\"pid\":1,\"tid\":{}",
                e.scope as u8
            );
            if phase == "i" {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"args\":{");
            let mut first_field = true;
            for (fname, value) in e.kind.fields().into_iter().flatten() {
                if !first_field {
                    out.push(',');
                }
                first_field = false;
                match value {
                    FieldValue::U64(v) => {
                        let _ = write!(out, "\"{fname}\":{v}");
                    }
                    FieldValue::Label(s) => {
                        let _ = write!(out, "\"{fname}\":\"{s}\"");
                    }
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// A normalized, order-sensitive FNV-1a digest of the retained window:
    /// time, scope, event name and fields — but not sequence numbers, so
    /// clearing or re-recording an identical window digests identically.
    /// Golden-trace tests snapshot this to catch event reordering.
    pub fn digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        let mut line = String::new();
        for e in self.events() {
            line.clear();
            let _ = writeln!(line, "{} {} {}", e.at.as_nanos(), e.scope.name(), e.kind);
            hash = fnv1a(hash, line.as_bytes());
        }
        hash
    }

    /// [`EventLog::digest`] as fixed-width hex.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_in_order() {
        let mut log = EventLog::new(16);
        log.record(
            t(1),
            Scope::Placement,
            EventKind::Placed {
                workload: 7,
                soc: 3,
            },
        );
        log.record(
            t(2),
            Scope::Fault,
            EventKind::FaultInjected {
                soc: 3,
                kind: "flash",
            },
        );
        assert_eq!(log.len(), 2);
        let kinds: Vec<&'static str> = log.events().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["placed", "fault_injected"]);
        assert_eq!(log.events().next().unwrap().seq, 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut log = EventLog::new(3);
        for i in 0..5 {
            log.record(t(i), Scope::Power, EventKind::Wake { soc: i as u32 });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.recorded(), 5);
        let first = log.events().next().unwrap();
        assert_eq!(first.kind, EventKind::Wake { soc: 2 });
        // Oldest-first order survives the wrap.
        let socs: Vec<u32> = log
            .events()
            .map(|e| match e.kind {
                EventKind::Wake { soc } => soc,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(socs, vec![2, 3, 4]);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::disabled(16);
        log.record(t(1), Scope::Net, EventKind::FlowStarted { flow: 1 });
        let span = log.begin_span(t(1), Scope::Fleet, "window");
        log.end_span(t(1), Scope::Fleet, span, "window");
        assert!(log.is_empty());
        assert_eq!((log.recorded(), log.dropped()), (0, 0));
        assert_eq!(log.buf.capacity(), 0, "a disabled log owns no heap");
        log.set_enabled(true);
        assert_eq!(log.buf.capacity(), 16, "the first enable reserves the ring");
        log.record(t(2), Scope::Net, EventKind::FlowStarted { flow: 2 });
        assert_eq!(log.len(), 1);
    }

    /// The ring's heap: its slot count and where it lives. Equal before
    /// and after an operation means that operation did not reallocate.
    fn ring(log: &EventLog) -> (usize, *const Event) {
        (log.buf.capacity(), log.buf.as_ptr())
    }

    #[test]
    fn wrapping_past_capacity_never_reallocates() {
        let mut log = EventLog::disabled(8);
        log.set_enabled(true);
        let before = ring(&log);
        for i in 0..100 {
            log.record(t(i), Scope::Power, EventKind::Wake { soc: i as u32 });
        }
        assert_eq!(ring(&log), before);
        assert_eq!((log.len(), log.dropped()), (8, 92));
    }

    #[test]
    fn switching_off_and_on_never_reallocates() {
        let mut log = EventLog::disabled(8);
        log.set_enabled(true);
        log.record(t(0), Scope::Power, EventKind::Wake { soc: 0 });
        let before = ring(&log);
        for i in 1..4 {
            log.set_enabled(false);
            log.record(t(i), Scope::Power, EventKind::Sleep { soc: 0 });
            log.set_enabled(true);
        }
        assert_eq!(ring(&log), before);
        assert_eq!(log.recorded(), 1);
    }

    #[test]
    fn new_reserves_the_ring_up_front() {
        let log = EventLog::new(8);
        assert_eq!(log.buf.capacity(), 8);
        assert!(log.enabled);
    }

    #[test]
    fn scope_mask_filters() {
        let mut log = EventLog::new(16);
        log.set_scopes(&[Scope::Fault, Scope::Recovery]);
        log.record(
            t(1),
            Scope::Placement,
            EventKind::Placed {
                workload: 1,
                soc: 0,
            },
        );
        log.record(t(2), Scope::Fault, EventKind::FaultDetected { soc: 0 });
        log.record(
            t(3),
            Scope::Recovery,
            EventKind::Migrated {
                workload: 1,
                soc: 4,
            },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.events().filter(|e| e.scope == Scope::Fault).count(), 1);
        log.set_scopes(&[Scope::Placement, Scope::Fault, Scope::Recovery]);
        log.record(
            t(4),
            Scope::Placement,
            EventKind::Placed {
                workload: 2,
                soc: 0,
            },
        );
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn spans_pair_begin_and_end() {
        let mut log = EventLog::new(16);
        let s = log.begin_span(t(1), Scope::Serving, "slo_search");
        log.end_span(t(5), Scope::Serving, s, "slo_search");
        let events: Vec<&Event> = log.events().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].kind,
            EventKind::SpanBegin {
                span: s.0,
                name: "slo_search"
            }
        );
        assert_eq!(
            events[1].kind,
            EventKind::SpanEnd {
                span: s.0,
                name: "slo_search"
            }
        );
    }

    #[test]
    fn jsonl_has_one_object_per_event() {
        let mut log = EventLog::new(16);
        log.record(
            t(1),
            Scope::Fault,
            EventKind::FaultInjected {
                soc: 2,
                kind: "flash",
            },
        );
        log.record(
            t(2),
            Scope::Recovery,
            EventKind::Migrated {
                workload: 9,
                soc: 5,
            },
        );
        let doc = log.to_jsonl();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"fault_injected\""));
        assert!(lines[0].contains("\"kind\":\"flash\""));
        assert!(lines[1].contains("\"workload\":9"));
        for l in lines {
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
    }

    #[test]
    fn chrome_trace_is_balanced_and_typed() {
        let mut log = EventLog::new(16);
        let s = log.begin_span(t(1), Scope::Net, "reroute");
        log.record(t(2), Scope::Net, EventKind::FlowStarted { flow: 100 });
        log.end_span(t(3), Scope::Net, s, "reroute");
        let doc = log.to_chrome_trace();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"B\""));
        assert!(doc.contains("\"ph\":\"E\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"name\":\"net\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let build = |swap: bool| {
            let mut log = EventLog::new(16);
            let a = (t(1), Scope::Fault, EventKind::FaultDetected { soc: 1 });
            let b = (
                t(1),
                Scope::Recovery,
                EventKind::Migrated {
                    workload: 3,
                    soc: 2,
                },
            );
            let (x, y) = if swap { (b, a) } else { (a, b) };
            log.record(x.0, x.1, x.2);
            log.record(y.0, y.1, y.2);
            log.digest()
        };
        assert_eq!(build(false), build(false));
        assert_ne!(build(false), build(true));
        assert_eq!(EventLog::new(4).digest(), EventLog::new(8).digest());
    }

    #[test]
    fn digest_ignores_sequence_numbers() {
        let mut a = EventLog::new(4);
        a.record(t(1), Scope::Net, EventKind::FlowStarted { flow: 1 });
        // A one-slot ring evicts the first event, so `b` retains the same
        // event as `a` under sequence number 1 instead of 0.
        let mut b = EventLog::new(1);
        b.record(t(0), Scope::Net, EventKind::FlowFinished { flow: 9 });
        b.record(t(1), Scope::Net, EventKind::FlowStarted { flow: 1 });
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn display_renders_fields() {
        let e = Event {
            at: t(3),
            seq: 0,
            scope: Scope::Detector,
            kind: EventKind::FaultClassified {
                soc: 7,
                class: "hang",
            },
        };
        let s = e.to_string();
        assert!(s.contains("detector"));
        assert!(s.contains("fault_classified soc=7 class=hang"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = EventLog::new(0);
    }
}
