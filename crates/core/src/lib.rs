//! `socc-cluster` — the SoC Cluster edge server and its orchestrator.
//!
//! This crate is the paper's primary contribution materialized as a
//! library: a 2U server of 60 mobile SoCs (`cluster`), managed through a
//! BMC ([`bmc`]), bin-packed at SoC granularity ([`orchestrator`],
//! [`placement_index`]), compared against a traditional Xeon + A40 twin
//! (`traditional`), with virtualization overheads ([`virt`]), fault
//! modelling ([`faults`]), failure detection and closed-loop recovery
//! ([`detector`], [`recovery`]), network-bound analysis ([`capacity`]) and
//! the figure-level experiment runners ([`experiments`]).
//!
//! # Examples
//!
//! ```
//! use socc_cluster::orchestrator::{Orchestrator, OrchestratorConfig};
//! use socc_cluster::workload::WorkloadSpec;
//!
//! let mut orch = Orchestrator::new(OrchestratorConfig::default());
//! let video = socc_video::vbench::by_id("V1").unwrap();
//! let id = orch.submit(WorkloadSpec::LiveStreamCpu { video }).unwrap();
//! assert_eq!(orch.placement_of(id), Some(0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bmc;
pub mod capacity;
pub(crate) mod cluster;
pub mod colocation;
pub mod detector;
pub mod evacuation;
pub mod experiments;
pub mod faults;
pub mod fleet;
pub mod gaming;
pub mod orchestrator;
pub mod placement_index;
pub mod planner;
pub(crate) mod priority;
pub mod recovery;
pub mod soc;
pub mod telemetry;
pub(crate) mod traditional;
pub mod videofarm;
pub mod virt;
pub mod whatif;
pub mod workload;

pub use traditional::TraditionalServer;
pub use virt::DeploymentMode;
pub use workload::{WorkloadId, WorkloadSpec};
