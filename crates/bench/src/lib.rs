//! `socc-bench` — the reproduction harness.
//!
//! One function per paper table/figure lives in [`repro`]; the `repro`
//! binary prints them (`cargo run -p socc-bench --bin repro -- fig6`), and
//! the `bench` binary runs the gated experiments of [`runner`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The harness reports on simulations and runs none itself, so std's
// per-process-seeded maps are allowed here (see `clippy.toml`).
#![allow(clippy::disallowed_types)]

pub mod campaign;
pub mod chaos;
pub mod extensions;
pub mod fleet;
pub mod fleetchaos;
pub mod harness;
pub mod netvalidate;
pub mod perf;
pub mod repro;
pub mod runner;
pub mod serve;
pub mod sweep;
pub mod tracebench;
pub mod video;
