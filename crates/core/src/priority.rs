//! QoS classes and preemption.
//!
//! Production edge sites mix revenue-critical interactive work (gaming,
//! live streams) with deferrable batch work (archive transcoding). When an
//! interactive workload finds the cluster full, the orchestrator should
//! evict batch work rather than reject — archive jobs restart cheaply,
//! dropped game sessions do not. This module adds priority-aware admission
//! on top of [`Orchestrator`].

use crate::orchestrator::Orchestrator;
use crate::workload::{AdmissionError, WorkloadId, WorkloadSpec};

/// Scheduling priority of a workload class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Deferrable batch work (archive transcoding).
    Batch,
    /// Throughput serving (DL pools).
    Serving,
    /// Interactive, revenue-critical (gaming, live streams).
    Interactive,
}

/// The intrinsic priority of a workload spec.
pub fn priority_of(spec: &WorkloadSpec) -> Priority {
    match spec {
        WorkloadSpec::ArchiveJob { .. } => Priority::Batch,
        WorkloadSpec::DlServe { .. } => Priority::Serving,
        WorkloadSpec::LiveStreamCpu { .. }
        | WorkloadSpec::LiveStreamHw { .. }
        | WorkloadSpec::GamingSession { .. } => Priority::Interactive,
    }
}

/// Result of a preempting admission.
#[derive(Debug, Clone, PartialEq)]
pub struct PreemptingAdmission {
    /// The admitted workload.
    pub id: WorkloadId,
    /// Lower-priority workloads evicted to make room (empty if none were
    /// needed).
    pub evicted: Vec<WorkloadId>,
}

/// Priority-aware admission for the orchestrator.
pub trait PriorityAdmission {
    /// Submits a workload; if the cluster is full and the workload outranks
    /// running batch work, evicts just enough lower-priority workloads to
    /// fit. Evicted ids are returned so callers can requeue them.
    fn submit_with_preemption(
        &mut self,
        spec: WorkloadSpec,
    ) -> Result<PreemptingAdmission, AdmissionError>;
}

impl PriorityAdmission for Orchestrator {
    fn submit_with_preemption(
        &mut self,
        spec: WorkloadSpec,
    ) -> Result<PreemptingAdmission, AdmissionError> {
        let mut evicted = Vec::new();
        let id = self.submit_preempting(&spec, &mut evicted)?;
        Ok(PreemptingAdmission { id, evicted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::OrchestratorConfig;

    fn orch() -> Orchestrator {
        Orchestrator::new(OrchestratorConfig::default())
    }

    fn fill_with_archive(o: &mut Orchestrator) -> usize {
        let v = socc_video::vbench::by_id("V1").unwrap();
        let mut n = 0;
        while o
            .submit(WorkloadSpec::ArchiveJob {
                video: v.clone(),
                frames: 1_000_000,
            })
            .is_ok()
        {
            n += 1;
        }
        n
    }

    #[test]
    fn priorities_are_ordered() {
        assert!(Priority::Interactive > Priority::Serving);
        assert!(Priority::Serving > Priority::Batch);
        let v = socc_video::vbench::by_id("V1").unwrap();
        assert_eq!(
            priority_of(&WorkloadSpec::ArchiveJob {
                video: v.clone(),
                frames: 1
            }),
            Priority::Batch
        );
        assert_eq!(
            priority_of(&WorkloadSpec::LiveStreamCpu { video: v }),
            Priority::Interactive
        );
    }

    #[test]
    fn live_preempts_archive_when_full() {
        let mut o = orch();
        let filled = fill_with_archive(&mut o);
        assert_eq!(filled, 60, "one archive job per SoC");
        let v = socc_video::vbench::by_id("V1").unwrap();
        // Plain submit is rejected…
        assert!(o
            .submit(WorkloadSpec::LiveStreamCpu { video: v.clone() })
            .is_err());
        // …preempting admission evicts one archive job.
        let adm = o
            .submit_with_preemption(WorkloadSpec::LiveStreamCpu { video: v })
            .expect("preemption succeeds");
        assert_eq!(adm.evicted.len(), 1);
        assert_eq!(o.active_workloads(), 60, "59 archive + 1 live");
    }

    #[test]
    fn no_preemption_when_room_exists() {
        let mut o = orch();
        let v = socc_video::vbench::by_id("V1").unwrap();
        let adm = o
            .submit_with_preemption(WorkloadSpec::LiveStreamCpu { video: v })
            .unwrap();
        assert!(adm.evicted.is_empty());
    }

    #[test]
    fn batch_never_preempts_anything() {
        let mut o = orch();
        fill_with_archive(&mut o);
        let v = socc_video::vbench::by_id("V1").unwrap();
        let err = o
            .submit_with_preemption(WorkloadSpec::ArchiveJob {
                video: v,
                frames: 100,
            })
            .unwrap_err();
        assert_eq!(err, AdmissionError::NoCapacity);
        assert_eq!(o.active_workloads(), 60, "nothing was evicted");
    }

    #[test]
    fn interactive_cannot_preempt_interactive() {
        let mut o = orch();
        let v6 = socc_video::vbench::by_id("V6").unwrap();
        // Fill every SoC with interactive V6 streams.
        loop {
            if o.submit(WorkloadSpec::LiveStreamCpu { video: v6.clone() })
                .is_err()
            {
                break;
            }
        }
        let before = o.active_workloads();
        let err = o
            .submit_with_preemption(WorkloadSpec::LiveStreamCpu { video: v6 })
            .unwrap_err();
        assert_eq!(err, AdmissionError::NoCapacity);
        assert_eq!(o.active_workloads(), before);
    }

    #[test]
    fn eviction_count_is_minimal() {
        let mut o = orch();
        fill_with_archive(&mut o);
        // A V2 stream needs ~216 pu: evicting one archive job (3,235 pu)
        // is more than enough; exactly one eviction expected.
        let v2 = socc_video::vbench::by_id("V2").unwrap();
        let adm = o
            .submit_with_preemption(WorkloadSpec::LiveStreamCpu { video: v2 })
            .unwrap();
        assert_eq!(adm.evicted.len(), 1);
    }
}
