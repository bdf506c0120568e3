//! `socc-sim` — discrete-event simulation core for the SoC Cluster workspace.
//!
//! This crate provides the foundation every other `socc-*` crate builds on:
//!
//! - [`time`]: nanosecond-resolution [`time::SimTime`] /
//!   [`time::SimDuration`];
//! - [`event`]: a deterministic [`event::EventQueue`] with
//!   stable tie-breaking;
//! - [`hash`]: hash maps and sets with the same layout in every process
//!   ([`hash::IdMap`], [`hash::IdSet`]) and the FNV-1a digest fold
//!   ([`hash::fnv1a`]);
//! - [`rng`]: seedable, splittable randomness ([`rng::SimRng`]);
//! - [`units`]: dimensional newtypes ([`units::Power`],
//!   [`units::Energy`], [`units::DataRate`], …);
//! - [`metrics`] / [`series`] / [`stats`]: telemetry primitives, time-series
//!   integration (energy accounting) and descriptive statistics;
//! - [`span`]: typed structured events and spans with bounded memory,
//!   scope filtering and JSONL / Chrome-trace exporters;
//! - [`report`]: aligned text tables for the reproduction harness.
//!
//! # Examples
//!
//! Energy accounting with a power meter:
//!
//! ```
//! use socc_sim::series::EnergyMeter;
//! use socc_sim::time::SimTime;
//! use socc_sim::units::Power;
//!
//! let mut meter = EnergyMeter::new(SimTime::ZERO, Power::watts(5.0));
//! meter.set_power(SimTime::from_secs(60), Power::watts(10.0));
//! let e = meter.energy_at(SimTime::from_secs(120));
//! assert_eq!(e.as_joules(), 5.0 * 60.0 + 10.0 * 60.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod hash;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod series;
pub mod span;
pub mod stats;
pub mod time;
pub mod units;
