//! `socc-hw` — hardware component models for the SoC Cluster workspace.
//!
//! This crate replaces the paper's physical hardware (60× Snapdragon 865,
//! an Intel Xeon Gold 5218R host, NVIDIA A40/A100 GPUs) with calibrated
//! mechanistic models:
//!
//! - [`cpu`], [`gpu`], `dsp`, [`codec`], [`memory`]: per-component
//!   capability and power models;
//! - [`power`]: the three-term load-to-power model that underpins the
//!   paper's energy-proportionality results;
//! - [`thermal`]: RC thermal nodes and the chassis fan wall;
//! - [`spec`]: Table 1 platform specifications;
//! - [`generations`]: the six Snapdragon generations of the longitudinal
//!   study (§7, Table 6, Fig. 14);
//! - [`ledger`]: the per-component energy ledger with board/PSU-rail
//!   roll-ups and the conservation cross-check;
//! - [`microbench`]: the Geekbench-style model behind Table 2;
//! - [`calib`]: every numeric anchor taken from the paper, with citations.
//!
//! # Examples
//!
//! ```
//! use socc_hw::power::{PowerState, Utilization};
//! use socc_hw::spec::SocSpec;
//!
//! let soc = SocSpec::snapdragon_865();
//! let busy = soc.cpu.power(PowerState::Active, Utilization::FULL);
//! let idle = soc.cpu.power(PowerState::Idle, Utilization::ZERO);
//! assert!(busy > idle);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calib;
pub mod codec;
pub mod cpu;
pub(crate) mod dsp;
pub mod dvfs;
pub mod generations;
pub mod gpu;
pub mod ledger;
pub mod memory;
pub mod microbench;
pub mod power;
pub mod psu;
pub mod spec;
pub mod thermal;
