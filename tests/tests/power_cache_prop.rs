//! Property test of the orchestrator's per-SoC power cache: under any
//! interleaving of submissions, finishes, clock advances across sleep
//! deadlines, faults, restores and BMC power frames, the cached power
//! never goes stale. After every step the server power equals a fresh
//! recompute over the cluster bit for bit, every SoC is booked in the
//! ledger at its current component powers, and energy is conserved.

use proptest::prelude::*;
use socc_cluster::bmc::{encode_command, BmcCommand};
use socc_cluster::orchestrator::{Orchestrator, OrchestratorConfig};
use socc_cluster::workload::{SocProcessor, WorkloadSpec};
use socc_dl::{DType, ModelId};
use socc_hw::power::PowerState;
use socc_sim::time::SimDuration;

/// Conservation tolerance: component sum ≡ rail total to 1e-6 relative.
const REL_TOL: f64 = 1e-6;

fn video(k: usize) -> socc_video::VideoMeta {
    let id = ["V1", "V2", "V3", "V4", "V5", "V6"][k % 6];
    socc_video::vbench::by_id(id).expect("vbench catalogue")
}

/// Applies one generated operation; `soc` and `arg` are raw draws.
fn apply(orch: &mut Orchestrator, op: usize, soc: usize, arg: u64) {
    let soc = soc % orch.cluster().soc_count();
    match op {
        0 => {
            let _ = orch.submit(WorkloadSpec::GamingSession { stream_mbps: 8.0 });
        }
        1 => {
            let _ = orch.submit(WorkloadSpec::LiveStreamCpu { video: video(soc) });
        }
        2 => {
            let _ = orch.submit(WorkloadSpec::LiveStreamHw { video: video(soc) });
        }
        3 => {
            // Zero frames makes a zero-runtime job that completes with the
            // next internal event.
            let _ = orch.submit(WorkloadSpec::ArchiveJob {
                video: video(soc),
                frames: arg % 900,
            });
        }
        4 => {
            let processor = [SocProcessor::Cpu, SocProcessor::Gpu, SocProcessor::Dsp][soc % 3];
            let _ = orch.submit(WorkloadSpec::DlServe {
                processor,
                model: ModelId::ResNet50,
                dtype: DType::Int8,
                offered_fps: (arg % 40 + 1) as f64,
            });
        }
        5 => {
            let ids = orch.workload_ids();
            if !ids.is_empty() {
                orch.finish(ids[arg as usize % ids.len()])
                    .expect("deployed workload");
            }
        }
        6 => {
            // Up to 90 s: crosses the default 30 s sleep deadline.
            let t = orch.now() + SimDuration::from_millis(arg % 90_000);
            orch.advance_to(t);
        }
        7 => {
            orch.fail_soc(soc);
        }
        8 => {
            orch.restore_soc(soc);
        }
        9 => orch.inject_fault(soc),
        10 => {
            // Off is only legal once the SoC's workloads are evacuated.
            if orch.cluster().socs[soc].is_idle() {
                let frame =
                    encode_command(BmcCommand::SetSocPowerState(soc as u8, PowerState::Off));
                orch.bmc_frame(&frame).expect("valid frame");
                orch.apply_bmc_state_changes();
            }
        }
        _ => {
            let frame = encode_command(BmcCommand::SetSocPowerState(soc as u8, PowerState::Idle));
            orch.bmc_frame(&frame).expect("valid frame");
            orch.apply_bmc_state_changes();
        }
    }
}

proptest! {
    #[test]
    fn power_cache_never_goes_stale(
        ops in prop::collection::vec((0usize..12, 0usize..60, 0u64..1_000_000), 1..80)
    ) {
        let mut orch = Orchestrator::new(OrchestratorConfig::default());
        for (step, &(op, soc, arg)) in ops.iter().enumerate() {
            apply(&mut orch, op, soc, arg);
            let fresh = orch.cluster().total_power().as_watts();
            prop_assert_eq!(
                orch.power().as_watts().to_bits(),
                fresh.to_bits(),
                "step {step} (op {op}): cached power {} vs fresh {fresh}",
                orch.power()
            );
            let ledger = orch.energy_ledger();
            for (i, unit) in orch.cluster().socs.iter().enumerate() {
                prop_assert_eq!(
                    ledger.soc_power(i),
                    unit.component_powers(),
                    "step {step} (op {op}): SoC {i} booked at stale power"
                );
            }
            if let Err(rel) = orch.verify_energy_conservation(REL_TOL) {
                prop_assert!(false, "step {step} (op {op}): conservation rel err {rel:.3e}");
            }
        }
    }
}
