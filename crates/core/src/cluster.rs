//! The SoC Cluster server: 60 SoCs, 12 PCBs, ESB, BMC, fans.

use socc_hw::calib;
use socc_hw::power::PowerState;
use socc_hw::thermal::{FanController, ThermalBank, ThermalNode};
use socc_sim::time::SimDuration;
use socc_sim::units::Power;

use crate::bmc::Bmc;
use crate::soc::SocUnit;
use crate::virt::DeploymentMode;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of SoCs (60 in the prototype).
    pub(crate) soc_count: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            soc_count: calib::CLUSTER_SOC_COUNT,
        }
    }
}

/// The assembled 2U server.
pub struct SocCluster {
    /// The SoC slots.
    pub socs: Vec<SocUnit>,
    /// The management controller.
    pub bmc: Bmc,
    /// One Snapdragon 865 package model for every slot.
    thermal: ThermalBank,
    fan: FanController,
    fan_duty: f64,
}

/// Per-PCB power draw of the carrier board's switch and VRMs.
const PCB_POWER_W: f64 = 1.5;
/// Ethernet Switch Board power.
const ESB_POWER_W: f64 = 20.0;
/// BMC power.
const BMC_POWER_W: f64 = 8.0;
/// Ambient inlet temperature in °C.
const AMBIENT_C: f64 = 28.0;

impl SocCluster {
    /// Builds a cluster.
    pub(crate) fn new(config: ClusterConfig) -> Self {
        let socs: Vec<SocUnit> = (0..config.soc_count)
            .map(|i| SocUnit::new(i, DeploymentMode::Physical))
            .collect();
        let thermal = ThermalBank::new(ThermalNode::soc_package(AMBIENT_C), config.soc_count);
        let bmc = Bmc::new(config.soc_count);
        Self {
            socs,
            bmc,
            thermal,
            fan: FanController::cluster_default(),
            fan_duty: 0.25,
        }
    }

    /// Number of SoC slots.
    pub fn soc_count(&self) -> usize {
        self.socs.len()
    }

    /// Number of PCBs carrying the SoCs.
    pub fn pcb_count(&self) -> usize {
        self.soc_count().div_ceil(calib::SOCS_PER_PCB)
    }

    /// The PCB index carrying a SoC slot.
    pub(crate) fn pcb_of(&self, soc: usize) -> usize {
        soc / calib::SOCS_PER_PCB
    }

    /// Fabric traffic (in + out, Mbps) currently flowing through a PCB.
    pub(crate) fn pcb_net_mbps(&self, pcb: usize) -> f64 {
        let lo = (pcb * calib::SOCS_PER_PCB).min(self.socs.len());
        let hi = (lo + calib::SOCS_PER_PCB).min(self.socs.len());
        self.socs[lo..hi].iter().map(|s| s.used().net_mbps).sum()
    }

    /// Total fabric traffic through the ESB in Mbps.
    pub(crate) fn esb_net_mbps(&self) -> f64 {
        self.socs.iter().map(|s| s.used().net_mbps).sum()
    }

    /// Checks whether adding `mbps` of traffic at a SoC would stay within
    /// the SoC's 1 GbE, its PCB's 1 Gbps uplink and the 20 Gbps ESB trunk
    /// (Table 3's network-bound convention counts in+out together).
    ///
    /// The trunk is summed over every SoC only where it can bind, with
    /// `pcb_count × 1 Gbps` reaching 20 Gbps (more than 100 SoCs).
    /// Admission caps every PCB at its uplink, so the prototype's 12 PCBs
    /// carry at most 12 Gbps and the trunk check could never refuse; there
    /// the sum survives only as a debug-build oracle.
    pub(crate) fn fits_network(&self, soc: usize, mbps: f64) -> bool {
        let soc_ok = self.socs[soc].used().net_mbps + mbps <= 1_000.0 + 1e-9;
        let pcb_ok =
            self.pcb_net_mbps(self.pcb_of(soc)) + mbps <= calib::PCB_UPLINK_BPS / 1e6 + 1e-9;
        let trunk_ok = || self.esb_net_mbps() + mbps <= calib::ESB_CAPACITY_BPS / 1e6 + 1e-9;
        if (self.pcb_count() as f64) * calib::PCB_UPLINK_BPS < calib::ESB_CAPACITY_BPS {
            debug_assert!(
                !(soc_ok && pcb_ok) || trunk_ok(),
                "the trunk bound a fabric whose uplinks cannot reach it"
            );
            return soc_ok && pcb_ok;
        }
        soc_ok && pcb_ok && trunk_ok()
    }

    /// Chassis overhead power (PCBs, ESB, BMC, fans) — everything that is
    /// not a SoC.
    pub fn chassis_power(&self) -> Power {
        Power::watts(self.pcb_count() as f64 * PCB_POWER_W + ESB_POWER_W + BMC_POWER_W)
            + self.fan.power_at(self.fan_duty)
    }

    /// Total server power right now.
    pub fn total_power(&self) -> Power {
        self.socs.iter().map(SocUnit::total_power).sum::<Power>() + self.chassis_power()
    }

    /// Total workload (idle-excluded) power of all SoCs.
    #[cfg(test)]
    pub(crate) fn workload_power(&self) -> Power {
        self.socs.iter().map(SocUnit::workload_power).sum()
    }

    /// Power of the server with every SoC awake and idle (the baseline the
    /// paper's workload-power convention subtracts).
    pub fn idle_power(&self) -> Power {
        self.socs.iter().map(SocUnit::idle_power).sum::<Power>() + self.chassis_power()
    }

    /// Numbers of SoCs in each power state: `(active, idle, sleep, off)`.
    pub fn state_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for s in &self.socs {
            match s.state {
                PowerState::Active => counts.0 += 1,
                PowerState::Idle => counts.1 += 1,
                PowerState::Sleep => counts.2 += 1,
                PowerState::Off => counts.3 += 1,
            }
        }
        counts
    }

    /// Advances the thermal model by `dt`, SoC `i` drawing `soc_power[i]`
    /// throughout, hands the new temperatures to the BMC and updates the
    /// fan duty from the hottest SoC.
    pub(crate) fn step_thermal(&mut self, dt: SimDuration, soc_power: &[Power]) {
        let hottest = self.thermal.step(dt, soc_power, self.fan_duty);
        self.bmc.set_temps(self.thermal.temperatures_c());
        self.fan_duty = self.fan.duty_for(hottest);
    }

    /// Current fan duty cycle.
    pub fn fan_duty(&self) -> f64 {
        self.fan_duty
    }

    /// A SoC's junction temperature in °C, as the thermal model last
    /// stepped it (the BMC reading may be overridden by fault injection).
    pub fn temperature_c(&self, soc: usize) -> f64 {
        self.thermal.temperatures_c()[soc]
    }

    /// `true` if any SoC is at its thermal throttle point.
    #[cfg(test)]
    pub(crate) fn any_throttling(&self) -> bool {
        self.thermal.any_throttling()
    }

    /// Refreshes the BMC's sensor snapshot, SoC `i` drawing `soc_power[i]`.
    pub(crate) fn refresh_bmc(&mut self, soc_power: &[Power]) {
        assert_eq!(soc_power.len(), self.socs.len(), "one power per SoC slot");
        let total = soc_power.iter().copied().sum::<Power>() + self.chassis_power();
        self.bmc.refresh(soc_power, total, self.fan_duty);
    }

    /// Each SoC's current total power, in slot order.
    #[cfg(test)]
    pub(crate) fn soc_powers(&self) -> Vec<Power> {
        self.socs.iter().map(SocUnit::total_power).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::Demand;

    fn full_cpu_demand() -> Demand {
        Demand {
            cpu_pu: socc_hw::calib::SOC_CPU_TRANSCODE_PU,
            net_mbps: 60.0,
            ..Default::default()
        }
    }

    #[test]
    fn default_cluster_shape() {
        let c = SocCluster::new(ClusterConfig::default());
        assert_eq!(c.soc_count(), 60);
        assert_eq!(c.pcb_count(), socc_hw::calib::CLUSTER_PCB_COUNT);
        assert_eq!(c.pcb_of(0), 0);
        assert_eq!(c.pcb_of(59), 11);
    }

    #[test]
    fn fully_loaded_power_near_table4_peak() {
        // Table 4: 589 W average peak while live-transcoding V5 at full
        // CPU load. Accept ±6%.
        let mut c = SocCluster::new(ClusterConfig::default());
        for soc in &mut c.socs {
            soc.place(&full_cpu_demand());
        }
        // Let thermals settle so the fans spin up realistically.
        for _ in 0..600 {
            c.step_thermal(SimDuration::from_secs(1), &c.soc_powers());
        }
        let p = c.total_power().as_watts();
        let target = calib::CLUSTER_AVG_PEAK_W;
        assert!(
            (p - target).abs() / target < 0.06,
            "total power {p} vs Table 4 anchor {target}"
        );
    }

    #[test]
    fn every_soc_of_every_cluster_shares_one_spec() {
        let (a, b) = (
            SocCluster::new(ClusterConfig::default()),
            SocCluster::new(ClusterConfig::default()),
        );
        let first = a.socs[0].spec;
        assert!(a
            .socs
            .iter()
            .chain(&b.socs)
            .all(|s| std::ptr::eq(s.spec, first)));
    }

    #[test]
    fn network_admission_bounds() {
        let mut c = SocCluster::new(ClusterConfig::default());
        // One SoC can carry at most 1 Gbps of summed traffic.
        assert!(c.fits_network(0, 900.0));
        assert!(!c.fits_network(0, 1100.0));
        // Fill PCB 0 (SoCs 0..5) to near the uplink's 1 Gbps.
        for i in 0..5 {
            c.socs[i].place(&Demand {
                net_mbps: 190.0,
                ..Default::default()
            });
        }
        assert!(!c.fits_network(0, 100.0), "PCB uplink should bind");
        assert!(c.fits_network(5, 100.0), "other PCBs unaffected");
    }

    #[test]
    fn esb_bound_binds_cluster_wide() {
        use crate::orchestrator::{Orchestrator, OrchestratorConfig};
        use crate::workload::{AdmissionError, WorkloadSpec};
        // 24 PCBs offer the 20 Gbps trunk 24 Gbps. 24 Mbps sessions fill
        // a SoC's 8 GPU slots at 192 Mbps and a PCB at 960 Mbps, so neither
        // binds: the 834th session (20,016 Mbps) is the first refused.
        let mut o = Orchestrator::new(OrchestratorConfig {
            cluster: ClusterConfig { soc_count: 120 },
            ..OrchestratorConfig::default()
        });
        let session = WorkloadSpec::GamingSession { stream_mbps: 24.0 };
        let refusal = loop {
            if let Err(e) = o.submit(session.clone()) {
                break e;
            }
        };
        assert_eq!(refusal, AdmissionError::NetworkBound);
        assert_eq!(o.active_workloads(), 833);
        let c = o.cluster();
        assert!((c.esb_net_mbps() - 19_992.0).abs() < 1e-9);
        // The session would have gone to SoC 104, one session in, whose
        // port and PCB uplink both had room: only the trunk refused it.
        let next = 833 / 8;
        assert_eq!(c.socs[next].workload_count(), 1);
        assert!(c.socs[next].used().net_mbps + 24.0 <= 1_000.0);
        assert!(c.pcb_net_mbps(c.pcb_of(next)) + 24.0 <= 1_000.0);
        assert!(!c.fits_network(next, 24.0));
    }

    #[test]
    fn sleeping_socs_cut_power() {
        let mut c = SocCluster::new(ClusterConfig::default());
        let awake = c.total_power();
        for soc in &mut c.socs {
            soc.state = PowerState::Sleep;
        }
        assert!(c.total_power().as_watts() < awake.as_watts() * 0.5);
    }

    #[test]
    fn fans_ramp_under_load() {
        let mut c = SocCluster::new(ClusterConfig::default());
        let cold_duty = c.fan_duty();
        for soc in &mut c.socs {
            soc.place(&full_cpu_demand());
        }
        for _ in 0..600 {
            c.step_thermal(SimDuration::from_secs(1), &c.soc_powers());
        }
        assert!(c.fan_duty() > cold_duty);
        assert!(
            !c.any_throttling(),
            "fans must keep the fleet below throttle"
        );
    }

    #[test]
    fn bmc_snapshot_tracks_power() {
        let mut c = SocCluster::new(ClusterConfig::default());
        c.socs[0].place(&full_cpu_demand());
        c.refresh_bmc(&c.soc_powers());
        let r = c
            .bmc
            .handle_frame(&crate::bmc::encode_command(
                crate::bmc::BmcCommand::ReadSocPower(0),
            ))
            .unwrap();
        match r {
            crate::bmc::BmcResponse::PowerCw(cw) => assert!(cw > 700, "got {cw}"),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn workload_power_is_zero_when_idle() {
        let c = SocCluster::new(ClusterConfig::default());
        assert_eq!(c.workload_power().as_watts(), 0.0);
        assert!(c.idle_power().as_watts() > 100.0);
    }
}
