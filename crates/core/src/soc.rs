//! Per-SoC runtime state: load accounting, power states, health.

use std::sync::OnceLock;

use socc_hw::calib::SOC_DRAM_GB;
use socc_hw::ledger::ComponentPowers;
use socc_hw::power::{PowerState, Utilization};
use socc_hw::spec::SocSpec;
use socc_sim::units::Power;

use crate::virt::DeploymentMode;

/// Resource demand of one workload instance on one SoC.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Demand {
    /// CPU perf-units.
    pub cpu_pu: f64,
    /// Hardware-codec load in weighted macroblocks/s.
    pub codec_mb_s: f64,
    /// Hardware-codec sessions.
    pub codec_sessions: usize,
    /// Fraction of the GPU's serving capacity.
    pub gpu_frac: f64,
    /// Fraction of the DSP's serving capacity.
    pub dsp_frac: f64,
    /// Resident memory in GB.
    pub mem_gb: f64,
    /// Fabric traffic (in + out) in Mbps.
    pub net_mbps: f64,
}

/// One SoC slot of the cluster.
#[derive(Debug, Clone)]
pub struct SocUnit {
    /// Slot index (0..59).
    pub index: usize,
    /// Hardware specification, shared by every slot in the process.
    pub spec: &'static SocSpec,
    /// Current power state.
    pub(crate) state: PowerState,
    /// Software deployment mode.
    pub(crate) deployment: DeploymentMode,
    /// `false` once a fault has taken the SoC out of service.
    pub healthy: bool,
    used: Demand,
    active_workloads: usize,
}

/// The one Snapdragon 865 spec of the process. A spec is never mutated,
/// so every slot of every cluster points here instead of carrying its own
/// copy, with its own strings and core-cluster `Vec`.
fn snapdragon_865() -> &'static SocSpec {
    static SPEC: OnceLock<SocSpec> = OnceLock::new();
    SPEC.get_or_init(SocSpec::snapdragon_865)
}

impl SocUnit {
    /// Creates a healthy, idle SoC.
    pub fn new(index: usize, deployment: DeploymentMode) -> Self {
        // Containerized Android's extra resident memory (Table 7).
        let used = Demand {
            mem_gb: deployment.memory_overhead_pp() / 100.0 * SOC_DRAM_GB,
            ..Demand::default()
        };
        Self {
            index,
            spec: snapdragon_865(),
            state: PowerState::Idle,
            deployment,
            healthy: true,
            used,
            active_workloads: 0,
        }
    }

    /// Number of workloads currently placed here.
    pub fn workload_count(&self) -> usize {
        self.active_workloads
    }

    /// Current resource usage.
    pub fn used(&self) -> Demand {
        self.used
    }

    /// CPU utilization in `[0, 1]`.
    pub(crate) fn cpu_utilization(&self) -> Utilization {
        Utilization::from_ratio(self.used.cpu_pu, self.spec.cpu.transcode_capacity())
    }

    /// Effective GPU serving capacity fraction (1.0 physical, lower when
    /// containerized — Table 7's GPU ceiling).
    pub(crate) fn gpu_capacity_frac(&self) -> f64 {
        self.deployment.gpu_util_ceiling()
    }

    /// Checks whether `demand` fits in the remaining capacity.
    pub fn fits(&self, demand: &Demand) -> bool {
        if !self.healthy {
            return false;
        }
        let cpu_ok = self.used.cpu_pu + demand.cpu_pu <= self.spec.cpu.transcode_capacity() + 1e-9;
        let codec_ok = self.used.codec_mb_s + demand.codec_mb_s
            <= self.spec.codec.throughput_mb_per_s + 1e-9
            && self.used.codec_sessions + demand.codec_sessions <= self.spec.codec.max_sessions;
        let gpu_ok = self.used.gpu_frac + demand.gpu_frac <= self.gpu_capacity_frac() + 1e-9;
        let dsp_ok = self.used.dsp_frac + demand.dsp_frac <= 1.0 + 1e-9;
        let mem_ok = self.used.mem_gb + demand.mem_gb <= self.spec.memory.capacity_gb + 1e-9;
        let net_ok = self.used.net_mbps + demand.net_mbps <= self.spec.ethernet_bps / 1e6 + 1e-9;
        cpu_ok && codec_ok && gpu_ok && dsp_ok && mem_ok && net_ok
    }

    /// Places a demand.
    ///
    /// # Panics
    ///
    /// Panics if the demand does not fit (callers must check [`Self::fits`]
    /// first — the orchestrator owns admission).
    pub fn place(&mut self, demand: &Demand) {
        assert!(
            self.fits(demand),
            "demand does not fit on SoC {}",
            self.index
        );
        self.used.cpu_pu += demand.cpu_pu;
        self.used.codec_mb_s += demand.codec_mb_s;
        self.used.codec_sessions += demand.codec_sessions;
        self.used.gpu_frac += demand.gpu_frac;
        self.used.dsp_frac += demand.dsp_frac;
        self.used.mem_gb += demand.mem_gb;
        self.used.net_mbps += demand.net_mbps;
        self.active_workloads += 1;
        self.state = PowerState::Active;
    }

    /// Releases a previously placed demand.
    pub fn release(&mut self, demand: &Demand) {
        self.used.cpu_pu = (self.used.cpu_pu - demand.cpu_pu).max(0.0);
        self.used.codec_mb_s = (self.used.codec_mb_s - demand.codec_mb_s).max(0.0);
        self.used.codec_sessions = self
            .used
            .codec_sessions
            .saturating_sub(demand.codec_sessions);
        self.used.gpu_frac = (self.used.gpu_frac - demand.gpu_frac).max(0.0);
        self.used.dsp_frac = (self.used.dsp_frac - demand.dsp_frac).max(0.0);
        self.used.mem_gb = (self.used.mem_gb - demand.mem_gb).max(0.0);
        self.used.net_mbps = (self.used.net_mbps - demand.net_mbps).max(0.0);
        self.active_workloads = self.active_workloads.saturating_sub(1);
        if self.active_workloads == 0 {
            self.state = PowerState::Idle;
        }
    }

    /// Clears all load accounting when the SoC is decommissioned after a
    /// fault: its workloads are gone (migrated or dropped) and the slot
    /// must not report phantom usage.
    pub fn decommission(&mut self) {
        self.used = Demand {
            mem_gb: self.deployment.memory_overhead_pp() / 100.0 * SOC_DRAM_GB,
            ..Demand::default()
        };
        self.active_workloads = 0;
        self.healthy = false;
        self.state = PowerState::Off;
    }

    /// Returns a decommissioned SoC to service after remediation (power
    /// cycle, thermal cooldown, link repair): healthy again, idle, empty.
    pub fn restore(&mut self) {
        self.used = Demand {
            mem_gb: self.deployment.memory_overhead_pp() / 100.0 * SOC_DRAM_GB,
            ..Demand::default()
        };
        self.active_workloads = 0;
        self.healthy = true;
        self.state = PowerState::Idle;
    }

    /// Returns `true` when no workload is placed here.
    pub fn is_idle(&self) -> bool {
        self.active_workloads == 0
    }

    /// Per-component power breakdown of the SoC in its current state —
    /// the instantaneous values the energy ledger integrates.
    pub fn component_powers(&self) -> ComponentPowers {
        match self.state {
            PowerState::Off => ComponentPowers::ZERO,
            PowerState::Sleep => ComponentPowers {
                cpu: self.spec.cpu.power(PowerState::Sleep, Utilization::ZERO),
                memory: self.spec.memory.power(PowerState::Sleep, Utilization::ZERO),
                ..ComponentPowers::ZERO
            },
            PowerState::Idle | PowerState::Active => {
                let state = self.state;
                let codec_util = Utilization::from_ratio(
                    self.used.codec_mb_s,
                    self.spec.codec.throughput_mb_per_s,
                );
                let mem_util =
                    Utilization::from_ratio(self.used.mem_gb, self.spec.memory.capacity_gb);
                ComponentPowers {
                    cpu: self.spec.cpu.power(state, self.cpu_utilization()),
                    codec: self.spec.codec.power(state, codec_util),
                    gpu: self
                        .spec
                        .gpu
                        .power(state, Utilization::new(self.used.gpu_frac)),
                    dsp: self
                        .spec
                        .dsp
                        .power(state, Utilization::new(self.used.dsp_frac)),
                    memory: self.spec.memory.power(state, mem_util),
                }
            }
        }
    }

    /// Total electrical power of the SoC in its current state.
    ///
    /// Exactly [`ComponentPowers::total`] of [`Self::component_powers`]:
    /// the component-wise sum uses the same accumulation order this
    /// method always used, so the meter and the ledger agree bit-for-bit.
    pub(crate) fn total_power(&self) -> Power {
        self.component_powers().total()
    }

    /// Idle-floor power of an awake, empty SoC (the baseline the paper's
    /// workload-power convention subtracts).
    pub(crate) fn idle_power(&self) -> Power {
        let idle = Utilization::ZERO;
        self.spec.cpu.power(PowerState::Idle, idle)
            + self.spec.codec.power(PowerState::Idle, idle)
            + self.spec.gpu.power(PowerState::Idle, idle)
            + self.spec.dsp.power(PowerState::Idle, idle)
            + self.spec.memory.power(PowerState::Idle, idle)
    }

    /// Workload (idle-excluded) power.
    #[cfg(test)]
    pub(crate) fn workload_power(&self) -> Power {
        let total = self.total_power().as_watts();
        let idle = self.idle_power().as_watts();
        Power::watts((total - idle).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_demand(pu: f64) -> Demand {
        Demand {
            cpu_pu: pu,
            ..Default::default()
        }
    }

    #[test]
    fn place_and_release_roundtrip() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        let d = cpu_demand(1000.0);
        assert!(soc.is_idle());
        soc.place(&d);
        assert_eq!(soc.workload_count(), 1);
        assert_eq!(soc.state, PowerState::Active);
        soc.release(&d);
        assert!(soc.is_idle());
        assert_eq!(soc.state, PowerState::Idle);
        assert!(soc.used().cpu_pu.abs() < 1e-9);
    }

    #[test]
    fn fits_rejects_oversubscription() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        soc.place(&cpu_demand(3000.0));
        assert!(!soc.fits(&cpu_demand(300.0)));
        assert!(soc.fits(&cpu_demand(200.0)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn place_panics_when_full() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        soc.place(&cpu_demand(3235.0));
        soc.place(&cpu_demand(1.0));
    }

    #[test]
    fn unhealthy_soc_fits_nothing() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        soc.healthy = false;
        assert!(!soc.fits(&cpu_demand(1.0)));
        assert!(!soc.healthy);
    }

    #[test]
    fn restore_reverses_decommission() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        soc.place(&cpu_demand(1000.0));
        soc.decommission();
        assert!(!soc.healthy);
        assert_eq!(soc.state, PowerState::Off);
        soc.restore();
        assert!(soc.healthy);
        assert_eq!(soc.state, PowerState::Idle);
        assert!(soc.is_idle());
        assert!(soc.fits(&cpu_demand(1000.0)));
    }

    #[test]
    fn power_ordering_across_states() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        let idle = soc.total_power();
        soc.place(&cpu_demand(3235.0));
        let busy = soc.total_power();
        assert!(busy > idle);
        soc.release(&cpu_demand(3235.0));
        soc.state = PowerState::Sleep;
        assert!(soc.total_power() < idle);
        soc.state = PowerState::Off;
        assert_eq!(soc.total_power(), Power::ZERO);
    }

    #[test]
    fn full_cpu_workload_power_near_6_6w() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        soc.place(&cpu_demand(3235.0));
        let p = soc.workload_power().as_watts();
        assert!((6.0..=7.2).contains(&p), "power {p}");
    }

    #[test]
    fn containerized_has_memory_overhead_and_gpu_ceiling() {
        let phys = SocUnit::new(0, DeploymentMode::Physical);
        let virt = SocUnit::new(1, DeploymentMode::Containerized);
        assert!(virt.used().mem_gb > phys.used().mem_gb);
        assert!(virt.gpu_capacity_frac() < 1.0);
        // A full-GPU demand fits physically but not containerized.
        let d = Demand {
            gpu_frac: 0.98,
            ..Default::default()
        };
        assert!(phys.fits(&d));
        assert!(!virt.fits(&d));
    }

    #[test]
    fn component_powers_total_is_bit_identical_across_states() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        let d = Demand {
            cpu_pu: 1500.0,
            codec_mb_s: 1.0e6,
            codec_sessions: 2,
            gpu_frac: 0.3,
            dsp_frac: 0.2,
            mem_gb: 4.0,
            net_mbps: 100.0,
        };
        soc.place(&d);
        for state in [
            PowerState::Active,
            PowerState::Idle,
            PowerState::Sleep,
            PowerState::Off,
        ] {
            soc.state = state;
            let total = soc.total_power().as_watts();
            let sum = soc.component_powers().total().as_watts();
            assert_eq!(total.to_bits(), sum.to_bits(), "{state:?}");
        }
    }

    #[test]
    fn codec_session_cap_enforced() {
        let mut soc = SocUnit::new(0, DeploymentMode::Physical);
        let d = Demand {
            codec_sessions: 16,
            codec_mb_s: 1.0,
            ..Default::default()
        };
        soc.place(&d);
        assert!(!soc.fits(&Demand {
            codec_sessions: 1,
            ..Default::default()
        }));
    }
}
