//! `socc-tco` — total cost of ownership and throughput-per-cost analysis.
//!
//! Reproduces the paper's §6 cost study:
//!
//! - `capex`: the Table 4 bill of materials per platform;
//! - [`tco`]: OpEx (electricity × PUE) and monthly TCO with 36-month
//!   amortization;
//! - [`tpc`]: Table 5's throughput-per-cost across live/archive
//!   transcoding and DL serving.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod capex;
pub mod sensitivity;
pub mod tco;
pub mod tpc;

pub use capex::Platform;
pub use tco::breakdown;
