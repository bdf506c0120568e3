//! Property tests of the orchestrator's per-SoC state under any
//! interleaving of submissions, finishes, clock advances across sleep
//! deadlines, faults, restores and BMC power frames.
//!
//! - The per-SoC power cache never goes stale. After every step the
//!   server power equals a fresh recompute over the cluster bit for bit,
//!   every SoC is booked in the ledger at its current component powers,
//!   and energy is conserved.
//! - The workload table agrees with a `BTreeMap` model after every step:
//!   placements, spec kinds, the count, the ascending id list, and the
//!   id-sorted victims `fail_soc` hands back.

use std::collections::BTreeMap;
use std::mem::{discriminant, Discriminant};

use proptest::prelude::*;
use socc_cluster::bmc::{encode_command, BmcCommand};
use socc_cluster::orchestrator::{Orchestrator, OrchestratorConfig};
use socc_cluster::workload::{SocProcessor, WorkloadId, WorkloadSpec};
use socc_dl::{DType, ModelId};
use socc_hw::power::PowerState;
use socc_sim::time::SimDuration;

/// Conservation tolerance: component sum ≡ rail total to 1e-6 relative.
const REL_TOL: f64 = 1e-6;

fn video(k: usize) -> socc_video::VideoMeta {
    let id = ["V1", "V2", "V3", "V4", "V5", "V6"][k % 6];
    socc_video::vbench::by_id(id).expect("vbench catalogue")
}

type Kind = Discriminant<WorkloadSpec>;

/// What one operation did that the workload-table model must follow.
#[derive(Default)]
struct Done {
    /// Admitted submissions with the kind of spec submitted.
    admitted: Vec<(WorkloadId, Kind)>,
    /// The SoC `fail_soc` or `inject_fault` took out of service.
    failed: Option<usize>,
    /// The workloads `fail_soc` handed back.
    stranded: Vec<(WorkloadId, WorkloadSpec)>,
}

fn submit(orch: &mut Orchestrator, spec: WorkloadSpec, done: &mut Done) {
    let kind = discriminant(&spec);
    if let Ok(id) = orch.submit(spec) {
        done.admitted.push((id, kind));
    }
}

/// Applies one generated operation; `soc` and `arg` are raw draws.
fn apply(orch: &mut Orchestrator, op: usize, soc: usize, arg: u64) -> Done {
    let soc = soc % orch.cluster().soc_count();
    let mut done = Done::default();
    match op {
        0 => submit(
            orch,
            WorkloadSpec::GamingSession { stream_mbps: 8.0 },
            &mut done,
        ),
        1 => submit(
            orch,
            WorkloadSpec::LiveStreamCpu { video: video(soc) },
            &mut done,
        ),
        2 => submit(
            orch,
            WorkloadSpec::LiveStreamHw { video: video(soc) },
            &mut done,
        ),
        3 => {
            // Zero frames makes a zero-runtime job that completes with the
            // next internal event.
            let spec = WorkloadSpec::ArchiveJob {
                video: video(soc),
                frames: arg % 900,
            };
            submit(orch, spec, &mut done);
        }
        4 => {
            let processor = [SocProcessor::Cpu, SocProcessor::Gpu, SocProcessor::Dsp][soc % 3];
            let spec = WorkloadSpec::DlServe {
                processor,
                model: ModelId::ResNet50,
                dtype: DType::Int8,
                offered_fps: (arg % 40 + 1) as f64,
            };
            submit(orch, spec, &mut done);
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
            done.failed = Some(soc);
            done.stranded = orch.fail_soc(soc);
        }
        8 => {
            orch.restore_soc(soc);
        }
        9 => {
            done.failed = Some(soc);
            orch.inject_fault(soc);
        }
        10 => {
            // Off is only legal once the SoC's workloads are evacuated.
            if orch.cluster().socs[soc].is_idle() {
                let frame =
                    encode_command(BmcCommand::SetSocPowerState(soc as u8, PowerState::Off));
                orch.bmc_frame(&frame).expect("valid frame");
                orch.apply_bmc_state_changes();
            }
        }
        11 => {
            let frame = encode_command(BmcCommand::SetSocPowerState(soc as u8, PowerState::Idle));
            orch.bmc_frame(&frame).expect("valid frame");
            orch.apply_bmc_state_changes();
        }
        _ => {
            // Churn at one instant: finish up to four workloads, then
            // submit as many, so arrivals take the slots finishes freed.
            let n = 1 + arg as usize % 4;
            for id in orch.workload_ids().into_iter().rev().take(n) {
                orch.finish(id).expect("deployed workload");
            }
            for k in 0..n {
                submit(
                    orch,
                    WorkloadSpec::LiveStreamCpu {
                        video: video(soc + k),
                    },
                    &mut done,
                );
            }
        }
    }
    done
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

    #[test]
    fn workload_table_matches_a_model(
        ops in prop::collection::vec((0usize..13, 0usize..60, 0u64..1_000_000), 1..80)
    ) {
        let mut orch = Orchestrator::new(OrchestratorConfig::default());
        // Deployed workloads: id → (SoC, spec kind).
        let mut model: BTreeMap<WorkloadId, (usize, Kind)> = BTreeMap::new();
        let mut gone: Vec<WorkloadId> = Vec::new();
        for (step, &(op, soc, arg)) in ops.iter().enumerate() {
            let before = orch.stats();
            // The model's workloads on the SoC a fault op would take down.
            let target = soc % orch.cluster().soc_count();
            let victims: Vec<WorkloadId> =
                model.iter().filter(|(_, &(s, _))| s == target).map(|(&id, _)| id).collect();
            let done = apply(&mut orch, op, soc, arg);
            if let Some(failed) = done.failed {
                if op == 7 {
                    let stranded: Vec<(WorkloadId, Kind)> =
                        done.stranded.iter().map(|(id, spec)| (*id, discriminant(spec))).collect();
                    let expected: Vec<(WorkloadId, Kind)> =
                        victims.iter().map(|id| (*id, model[id].1)).collect();
                    prop_assert_eq!(stranded, expected, "step {step}: fail_soc({failed}) victims");
                    for id in &victims {
                        model.remove(id);
                        gone.push(*id);
                    }
                } else {
                    // inject_fault re-places each victim in id order or
                    // drops it; none may stay on the failed SoC.
                    let after = orch.stats();
                    prop_assert_eq!(
                        (after.migrations - before.migrations) + (after.dropped - before.dropped),
                        victims.len() as u64,
                        "step {step}: inject_fault({failed}) victims"
                    );
                    for id in &victims {
                        match orch.placement_of(*id) {
                            Some(to) => {
                                prop_assert_ne!(to, failed);
                                model.get_mut(id).expect("victim is modelled").0 = to;
                            }
                            None => {
                                model.remove(id);
                                gone.push(*id);
                            }
                        }
                    }
                }
            }
            // Finishes and archive completions, in completion order.
            for id in orch.drain_completions().collect::<Vec<_>>() {
                prop_assert!(model.remove(&id).is_some(), "step {step}: {id:?} completed twice");
                gone.push(id);
            }
            for (id, kind) in done.admitted {
                let to = orch.placement_of(id).expect("no clock move since its submit");
                prop_assert!(model.insert(id, (to, kind)).is_none(), "step {step}: id reused");
            }

            prop_assert_eq!(orch.active_workloads(), model.len(), "step {step} (op {op})");
            prop_assert_eq!(
                orch.workload_ids(),
                model.keys().copied().collect::<Vec<_>>(),
                "step {step} (op {op})"
            );
            for (&id, &(to, kind)) in &model {
                prop_assert_eq!(orch.placement_of(id), Some(to), "step {step}: {id:?}");
                prop_assert_eq!(orch.spec_of(id).map(discriminant), Some(kind), "step {step}: {id:?}");
            }
            for &id in &gone {
                prop_assert!(orch.placement_of(id).is_none() && orch.spec_of(id).is_none());
            }
        }
    }
}
