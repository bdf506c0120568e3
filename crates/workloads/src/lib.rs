//! `socc-workloads` — workload and trace generators.
//!
//! Synthetic substitutes for the paper's proprietary datasets:
//!
//! - [`vmtrace`]: VM-subscription populations fitted to Fig. 1's Azure and
//!   Alibaba ENS CDFs (66% / 36% fit-in-SoC);
//! - [`gaming`]: the 38-hour production cloud-gaming traffic trace of
//!   Fig. 5 (25× dynamic range, < 20% utilization);
//! - `arrivals`: Poisson and diurnal arrival processes;
//! - [`jobs`]: archive-transcode and live-session job streams.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod arrivals;
pub mod gaming;
pub mod jobs;
pub mod packing;
pub mod vmtrace;
