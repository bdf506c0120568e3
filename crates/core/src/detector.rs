//! Failure detection: in-band heartbeat monitoring with out-of-band
//! classification.
//!
//! Detection follows the two-channel design the prototype's hardware
//! affords (§2.2): each SoC's node agent heartbeats the orchestrator over
//! the data fabric, so *any* fault that stops the agent — crash, hang,
//! thermal trip, link loss — shows up as missed heartbeats within one
//! detection window. The BMC's I2C management channel is out-of-band and
//! keeps working when the fabric does not, so once a SoC goes silent the
//! detector probes it through real BMC wire frames (temperature, power) and
//! the fabric's routing state to decide *which* failure mode it is looking
//! at.

use socc_net::failure::FailureAwareRouting;
use socc_net::topology::{ClusterFabric, LinkId};
use socc_sim::time::{SimDuration, SimTime};

use crate::bmc::{encode_command, BmcCommand, BmcResponse};
use crate::cluster::SocCluster;

/// Junction temperature at or above which a silent SoC is classified as
/// thermally tripped (the Snapdragon's protective shutdown point).
pub(crate) const THERMAL_TRIP_C: f64 = 95.0;

/// What the detector concluded about a silent SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectedClass {
    /// Hard death — no power draw. Flash or DRAM is gone; the slot stays
    /// dark until the PCB is swapped.
    Crash,
    /// The SoC draws power and is reachable but stopped making progress; a
    /// BMC power cycle recovers it.
    Hang,
    /// Protective thermal shutdown; the SoC returns after it cools.
    ThermalTrip,
    /// The SoC is up but its fabric access link is down; it returns when
    /// the link is repaired.
    LinkLoss,
    /// The SoC is healthy and powered (the BMC side channel says so) but
    /// unreachable through the fabric because a failure *upstream* of its
    /// own access link — an ESB port group — cut it off. It keeps running
    /// local work and must not be treated as crashed.
    Partitioned,
}

impl DetectedClass {
    /// Every class, in declaration order.
    pub const ALL: [DetectedClass; 5] = [
        DetectedClass::Crash,
        DetectedClass::Hang,
        DetectedClass::ThermalTrip,
        DetectedClass::LinkLoss,
        DetectedClass::Partitioned,
    ];

    /// Whether remediation can return the SoC to service.
    #[cfg(test)]
    pub(crate) fn recoverable(self) -> bool {
        !matches!(self, DetectedClass::Crash)
    }

    /// Per class, in declaration order: the label, the detection counter
    /// `ft.detected.<label>` and the MTTR histogram `ft.mttr_ms.<label>`.
    const NAMES: [[&'static str; 3]; 5] = [
        ["crash", "ft.detected.crash", "ft.mttr_ms.crash"],
        ["hang", "ft.detected.hang", "ft.mttr_ms.hang"],
        [
            "thermal_trip",
            "ft.detected.thermal_trip",
            "ft.mttr_ms.thermal_trip",
        ],
        ["link_loss", "ft.detected.link_loss", "ft.mttr_ms.link_loss"],
        [
            "partitioned",
            "ft.detected.partitioned",
            "ft.mttr_ms.partitioned",
        ],
    ];

    /// Short label for telemetry counter names and trace messages.
    pub(crate) fn label(self) -> &'static str {
        Self::NAMES[self as usize][0]
    }

    /// Name of the telemetry counter of detections of this class.
    pub fn detected_metric(self) -> &'static str {
        Self::NAMES[self as usize][1]
    }

    /// Name of the telemetry histogram of this class's repair times.
    pub fn mttr_metric(self) -> &'static str {
        Self::NAMES[self as usize][2]
    }

    /// The class a correct detector should assign to a ground-truth fault
    /// kind (used by tests to check the classifier against the injector).
    #[cfg(test)]
    pub(crate) fn expected_for(kind: crate::faults::FaultKind) -> Self {
        use crate::faults::FaultKind;
        match kind {
            FaultKind::Flash | FaultKind::Memory => DetectedClass::Crash,
            FaultKind::SocHang => DetectedClass::Hang,
            FaultKind::ThermalTrip => DetectedClass::ThermalTrip,
            FaultKind::LinkLoss => DetectedClass::LinkLoss,
        }
    }
}

/// Tracks heartbeats and flags SoCs whose last beat is older than the
/// detection window.
///
/// A SoC that beats at every sweep was last seen at the latest sweep, so a
/// sweep is recorded as one timestamp and a per-SoC last beat matters only
/// for the *muted* SoCs, the ones that stopped beating: [`Self::mute`]
/// freezes a SoC's last beat at the latest sweep it answered, and
/// [`Self::clear`] unmutes it. A sweep then costs O(1) and
/// [`Self::overdue`] visits the muted SoCs only.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    window: SimDuration,
    /// The latest sweep: the last beat of every unmuted SoC.
    swept: SimTime,
    /// Each SoC's last beat as of its latest mute or clear; a muted SoC's
    /// stays frozen.
    last_seen: Vec<SimTime>,
    /// Bit `i % 64` of word `i / 64` is set while SoC `i` is muted.
    muted: Vec<u64>,
    reported: Vec<bool>,
}

impl HeartbeatMonitor {
    /// Creates a monitor for `soc_count` SoCs; every SoC counts as freshly
    /// seen at time zero.
    pub fn new(soc_count: usize, window: SimDuration) -> Self {
        Self {
            window,
            swept: SimTime::ZERO,
            last_seen: vec![SimTime::ZERO; soc_count],
            muted: vec![0; soc_count.div_ceil(64)],
            reported: vec![false; soc_count],
        }
    }

    /// Records a sweep at `at`: every unmuted SoC beats.
    pub fn sweep(&mut self, at: SimTime) {
        self.swept = self.swept.max(at);
    }

    /// Whether a SoC has stopped beating.
    pub fn is_muted(&self, soc: usize) -> bool {
        self.muted[soc / 64] & (1 << (soc % 64)) != 0
    }

    /// Stops a SoC's heartbeat: later sweeps pass it by, and its last beat
    /// is the latest sweep it answered. Muting a muted SoC changes nothing.
    pub fn mute(&mut self, soc: usize) {
        if !self.is_muted(soc) {
            self.last_seen[soc] = self.last_seen[soc].max(self.swept);
            self.muted[soc / 64] |= 1 << (soc % 64);
        }
    }

    /// Fills `out` with the SoCs (ascending) whose heartbeat is overdue
    /// at `now` and that have not yet been reported. Detection fires
    /// strictly *after* the window elapses. Only muted SoCs can be
    /// overdue: the others beat at the latest sweep, which callers make
    /// at `now` first.
    pub fn overdue(&self, now: SimTime, out: &mut Vec<usize>) {
        out.clear();
        for (w, &word) in self.muted.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let soc = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !self.reported[soc] && now.saturating_since(self.last_seen[soc]) > self.window {
                    out.push(soc);
                }
            }
        }
    }

    /// Marks a SoC as reported so it is not flagged again while it is being
    /// remediated.
    pub fn confirm(&mut self, soc: usize) {
        if let Some(r) = self.reported.get_mut(soc) {
            *r = true;
        }
    }

    /// Re-arms monitoring for a SoC returning to service at `at`: it is
    /// unmuted and counts as seen at `at`.
    pub fn clear(&mut self, soc: usize, at: SimTime) {
        if let Some(r) = self.reported.get_mut(soc) {
            *r = false;
            self.last_seen[soc] = at;
            self.muted[soc / 64] &= !(1 << (soc % 64));
        }
    }
}

/// Both directions of a SoC's fabric access link, for failing/repairing.
pub(crate) fn access_links(
    fabric: &ClusterFabric,
    soc: usize,
) -> impl Iterator<Item = LinkId> + '_ {
    let node = fabric.socs[soc];
    (0..fabric.topology.link_count() as u32)
        .map(LinkId)
        .filter(move |&id| {
            let link = fabric.topology.link(id);
            link.src == node || link.dst == node
        })
}

/// Classifies a silent SoC by probing out-of-band state: BMC temperature
/// (thermal trip), fabric reachability (link loss vs. partition), BMC
/// power (crash), and otherwise a hang. Probes go through the framed BMC
/// wire protocol — the I2C side channel keeps working when the fabric does
/// not, which is exactly what separates a partitioned SoC (unreachable but
/// powered and healthy) from a crashed one.
pub(crate) fn classify(
    cluster: &mut SocCluster,
    routing: &mut FailureAwareRouting,
    fabric: &ClusterFabric,
    soc: usize,
) -> DetectedClass {
    let temp_frame = encode_command(BmcCommand::ReadSocTemp(soc as u8));
    if let Ok(BmcResponse::TempDc(dc)) = cluster.bmc.handle_frame(&temp_frame) {
        if f64::from(dc) / 10.0 >= THERMAL_TRIP_C {
            return DetectedClass::ThermalTrip;
        }
    }
    let powered = {
        let power_frame = encode_command(BmcCommand::ReadSocPower(soc as u8));
        match cluster.bmc.handle_frame(&power_frame) {
            Ok(BmcResponse::PowerCw(cw)) => cw > 0,
            _ => false,
        }
    };
    if !routing.reaches(&fabric.topology, fabric.socs[soc], fabric.external) {
        if !powered {
            // Dark *and* unroutable: the board (or the SoC itself) died;
            // the missing route is a consequence, not the cause.
            return DetectedClass::Crash;
        }
        // Powered but unroutable: is the SoC's own access link the break,
        // or something upstream of it?
        let own_link_up = access_links(fabric, soc).all(|link| routing.usable(link));
        return if own_link_up {
            DetectedClass::Partitioned
        } else {
            DetectedClass::LinkLoss
        };
    }
    if !powered {
        return DetectedClass::Crash;
    }
    DetectedClass::Hang
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SocCluster};
    use crate::faults::FaultKind;
    use socc_net::topology::Topology;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn monitor_flags_only_after_window() {
        let mut m = HeartbeatMonitor::new(3, SimDuration::from_secs(5));
        let mut out = Vec::new();
        m.sweep(secs(10));
        m.mute(0);
        m.mute(1);
        m.sweep(secs(12));
        m.mute(2);
        m.sweep(secs(15));
        m.overdue(secs(15), &mut out);
        assert!(out.is_empty(), "window not yet exceeded");
        m.sweep(secs(16));
        m.overdue(secs(16), &mut out);
        assert_eq!(out, vec![0, 1]);
        m.confirm(0);
        m.overdue(secs(16), &mut out);
        assert_eq!(out, vec![1]);
        m.clear(0, secs(16));
        m.sweep(secs(17));
        m.overdue(secs(17), &mut out);
        assert_eq!(out, vec![1], "a cleared SoC beats again");
    }

    #[test]
    fn cleared_soc_is_monitored_again() {
        let mut m = HeartbeatMonitor::new(1, SimDuration::from_secs(2));
        let mut out = Vec::new();
        m.mute(0);
        m.confirm(0);
        m.overdue(secs(100), &mut out);
        assert!(out.is_empty());
        m.clear(0, secs(100));
        assert!(!m.is_muted(0));
        m.sweep(secs(101));
        m.mute(0);
        m.overdue(secs(103), &mut out);
        assert!(out.is_empty(), "last seen at the 101 s sweep");
        m.overdue(secs(104), &mut out);
        assert_eq!(out, vec![0]);
    }

    fn harness() -> (SocCluster, FailureAwareRouting, ClusterFabric) {
        let mut cluster = SocCluster::new(ClusterConfig::default());
        cluster.refresh_bmc(&cluster.soc_powers());
        let fabric = Topology::soc_cluster(60);
        (cluster, FailureAwareRouting::new(), fabric)
    }

    #[test]
    fn classifies_thermal_trip_from_bmc_temperature() {
        let (mut cluster, mut routing, fabric) = harness();
        cluster.bmc.set_temp(7, 105.0);
        assert_eq!(
            classify(&mut cluster, &mut routing, &fabric, 7),
            DetectedClass::ThermalTrip
        );
    }

    #[test]
    fn classifies_link_loss_from_routing() {
        let (mut cluster, mut routing, fabric) = harness();
        for link in access_links(&fabric, 9) {
            routing.fail(link);
        }
        assert_eq!(
            classify(&mut cluster, &mut routing, &fabric, 9),
            DetectedClass::LinkLoss
        );
    }

    #[test]
    fn classifies_partition_when_upstream_uplink_dies() {
        // The PCB's ESB uplink fails but the SoC's own access link is fine
        // and the BMC reports it powered: that is a partition, not a crash
        // and not a link loss.
        let (mut cluster, mut routing, fabric) = harness();
        for link in fabric.uplinks_of_pcb(1) {
            routing.fail(link);
        }
        for soc in 5..10 {
            assert_eq!(
                classify(&mut cluster, &mut routing, &fabric, soc),
                DetectedClass::Partitioned
            );
        }
        // SoCs on other boards still route; nothing else is misclassified.
        assert_eq!(
            classify(&mut cluster, &mut routing, &fabric, 0),
            DetectedClass::Hang
        );
    }

    #[test]
    fn dark_soc_behind_partition_is_still_a_crash() {
        // The BMC side channel disambiguates: a SoC with zero power draw is
        // a crash even when the fabric around it is also partitioned.
        let (mut cluster, mut routing, fabric) = harness();
        for link in fabric.uplinks_of_pcb(1) {
            routing.fail(link);
        }
        cluster.socs[6].decommission();
        cluster.refresh_bmc(&cluster.soc_powers());
        assert_eq!(
            classify(&mut cluster, &mut routing, &fabric, 6),
            DetectedClass::Crash
        );
        assert_eq!(
            classify(&mut cluster, &mut routing, &fabric, 7),
            DetectedClass::Partitioned
        );
    }

    #[test]
    fn partitioned_is_recoverable_with_label() {
        assert!(DetectedClass::Partitioned.recoverable());
        assert_eq!(DetectedClass::Partitioned.label(), "partitioned");
    }

    #[test]
    fn metric_names_carry_the_label() {
        for class in [
            DetectedClass::Crash,
            DetectedClass::Hang,
            DetectedClass::ThermalTrip,
            DetectedClass::LinkLoss,
            DetectedClass::Partitioned,
        ] {
            let label = class.label();
            assert_eq!(class.detected_metric(), format!("ft.detected.{label}"));
            assert_eq!(class.mttr_metric(), format!("ft.mttr_ms.{label}"));
        }
        assert_eq!(DetectedClass::ThermalTrip.label(), "thermal_trip");
        assert_eq!(DetectedClass::LinkLoss.label(), "link_loss");
    }

    #[test]
    fn classifies_crash_from_zero_power() {
        let (mut cluster, mut routing, fabric) = harness();
        cluster.socs[4].decommission();
        cluster.refresh_bmc(&cluster.soc_powers());
        assert_eq!(
            classify(&mut cluster, &mut routing, &fabric, 4),
            DetectedClass::Crash
        );
    }

    #[test]
    fn defaults_to_hang_when_probes_look_normal() {
        let (mut cluster, mut routing, fabric) = harness();
        assert_eq!(
            classify(&mut cluster, &mut routing, &fabric, 0),
            DetectedClass::Hang
        );
    }

    #[test]
    fn access_links_cover_both_directions() {
        let fabric = Topology::soc_cluster(60);
        let links: Vec<LinkId> = access_links(&fabric, 0).collect();
        assert_eq!(links.len(), 2, "one duplex pair per SoC");
    }

    #[test]
    fn expected_class_matches_ground_truth() {
        assert_eq!(
            DetectedClass::expected_for(FaultKind::Flash),
            DetectedClass::Crash
        );
        assert_eq!(
            DetectedClass::expected_for(FaultKind::Memory),
            DetectedClass::Crash
        );
        assert_eq!(
            DetectedClass::expected_for(FaultKind::SocHang),
            DetectedClass::Hang
        );
        assert!(DetectedClass::Hang.recoverable());
        assert!(!DetectedClass::Crash.recoverable());
    }
}
