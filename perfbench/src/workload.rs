//! What every workload driver provides: a seeded set-up, one fixed-work
//! unit that the run repeats, and the output checks behind `failed`.

use crate::trace::Tracer;

/// One workload at one scale.
pub trait Workload {
    /// The generated inputs and warmed state a unit starts from.
    type Input;

    /// Builds a unit's inputs from `seed`. Timed by the caller as set-up.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::Input;

    /// Runs one unit over `input`, timing its timed phase itself.
    fn run(&self, input: Self::Input, tr: &mut Tracer) -> Unit;

    /// The digest the unit must produce at `seed`, where one is pinned.
    fn pinned_digest(&self, seed: u64) -> Option<u64>;
}

/// The result of one fixed-work unit.
#[derive(Debug)]
pub struct Unit {
    /// Host seconds of the timed phase.
    pub wall: f64,
    /// Digest of the simulated output: a pure function of scale and seed.
    pub digest: u64,
    /// Deterministic work counters; they repeat exactly across units.
    pub counters: Vec<(&'static str, f64)>,
    /// Timings derived from traced spans (zero in untraced units).
    pub timings: Vec<(&'static str, f64)>,
    /// The output checks this unit ran.
    pub checks: Checks,
}

/// Output checks: how many ran and what failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Folds `v` into an FNV-1a hash.
pub fn fnv(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a offset basis: the digest of nothing.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
