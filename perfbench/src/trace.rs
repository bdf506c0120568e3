//! The traced run's spans: host time, call count, allocations and retained
//! heap of every call the drivers make into a layer's public function.
//!
//! The spans sit in the benchmark's own code, around library calls, so
//! they are leaves: a span's self time is its duration. With tracing off
//! [`Tracer::time`] costs one branch.

use std::time::Instant;

use crate::alloc;

/// A layer's public function as the drivers call it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `FleetSim::plan_window` plus `take_window`.
    FleetPlan,
    /// One `SiteJob::step`.
    FleetStep,
    /// `FleetSim::absorb`.
    FleetAbsorb,
    /// `RecoveryEngine::submit` while loading an enclosure.
    OrchSubmit,
    /// `RecoveryEngine::new`.
    RecoveryNew,
    /// One `RecoveryEngine::step` (one event-queue pop).
    RecoveryStep,
    /// `RecoveryEngine::finish`.
    RecoveryFinish,
    /// `FaultInjector::schedule_all`; runs during set-up.
    FaultsSchedule,
    /// `FlowNet::add_stream`.
    NetAddStream,
    /// `FlowNet::remove_stream`.
    NetRemoveStream,
    /// `FlowNet::start_transfer`.
    NetStartTransfer,
    /// `FlowNet::next_completion` plus `advance_into`, or `advance_into`
    /// alone for a fixed clock step.
    NetAdvance,
}

impl Call {
    /// Every call, in metric order.
    pub const ALL: [Call; 12] = [
        Call::FleetPlan,
        Call::FleetStep,
        Call::FleetAbsorb,
        Call::OrchSubmit,
        Call::RecoveryNew,
        Call::RecoveryStep,
        Call::RecoveryFinish,
        Call::FaultsSchedule,
        Call::NetAddStream,
        Call::NetRemoveStream,
        Call::NetStartTransfer,
        Call::NetAdvance,
    ];

    /// Metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Call::FleetPlan => "fleet.plan",
            Call::FleetStep => "fleet.step",
            Call::FleetAbsorb => "fleet.absorb",
            Call::OrchSubmit => "orch.submit",
            Call::RecoveryNew => "recovery.new",
            Call::RecoveryStep => "recovery.step",
            Call::RecoveryFinish => "recovery.finish",
            Call::FaultsSchedule => "faults.schedule",
            Call::NetAddStream => "net.add_stream",
            Call::NetRemoveStream => "net.remove_stream",
            Call::NetStartTransfer => "net.start_transfer",
            Call::NetAdvance => "net.advance",
        }
    }

    /// The statistics reported for this call, as metric-name suffixes.
    pub fn reported(self) -> &'static [&'static str] {
        const TIME: &[&str] = &["self_s"];
        const TIME_ALLOCS: &[&str] = &["self_s", "allocs"];
        const LATENCY: &[&str] = &["self_s", "calls", "p50_us", "p99_us"];
        const LATENCY_ALLOCS: &[&str] = &["self_s", "calls", "p50_us", "p99_us", "allocs"];
        match self {
            Call::FleetStep | Call::RecoveryStep => LATENCY_ALLOCS,
            Call::FleetPlan | Call::FleetAbsorb => TIME_ALLOCS,
            Call::RecoveryNew | Call::RecoveryFinish | Call::FaultsSchedule => TIME,
            Call::OrchSubmit
            | Call::NetAddStream
            | Call::NetRemoveStream
            | Call::NetStartTransfer
            | Call::NetAdvance => LATENCY,
        }
    }

    /// Whether the call runs inside a workload's timed phase (and so
    /// counts toward the attribution of its `wall_s`) rather than in
    /// set-up.
    pub fn timed_phase(self) -> bool {
        self != Call::FaultsSchedule
    }
}

/// Accumulated spans of one call type.
#[derive(Debug, Default)]
pub struct CallStats {
    /// Σ host nanoseconds inside the call.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
    /// Heap allocations made inside the call.
    pub allocs: u64,
    /// Σ live-heap change across the call, bytes.
    pub retained: i64,
    /// Per-call host nanoseconds, for percentiles.
    pub samples: Vec<u32>,
}

impl CallStats {
    /// The `q` quantile of the per-call times in microseconds (nearest
    /// rank), or 0 with no samples.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut s = self.samples.clone();
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
        let (_, v, _) = s.select_nth_unstable(rank);
        f64::from(*v) / 1e3
    }
}

/// Span recorder shared by every unit of a run; off until
/// [`Tracer::set_on`].
#[derive(Default)]
pub struct Tracer {
    on: bool,
    stats: [CallStats; Call::ALL.len()],
    last_ns: u64,
}

impl Tracer {
    /// Switches recording on or off between units.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` as one `call`, recording its span when tracing is on.
    #[inline]
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let allocs = alloc::allocs();
        let live = alloc::live_bytes();
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let s = &mut self.stats[call as usize];
        s.allocs += alloc::allocs() - allocs;
        s.retained += alloc::live_bytes() as i64 - live as i64;
        s.ns += ns;
        s.calls += 1;
        s.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.last_ns = ns;
        r
    }

    /// Host nanoseconds of the most recent traced call.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// The spans recorded for `call`.
    pub fn stats(&self, call: Call) -> &CallStats {
        &self.stats[call as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = CallStats {
            samples: (1..=1000).map(|i| i * 1000).collect(),
            ..CallStats::default()
        };
        assert_eq!(s.quantile_us(0.5), 500.0);
        assert_eq!(s.quantile_us(0.99), 990.0);
        assert_eq!(CallStats::default().quantile_us(0.99), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::default();
        assert_eq!(tr.time(Call::NetAdvance, || 7), 7);
        assert_eq!(tr.stats(Call::NetAdvance).calls, 0);
        tr.set_on(true);
        tr.time(Call::NetAdvance, || ());
        assert_eq!(tr.stats(Call::NetAdvance).calls, 1);
        assert_eq!(tr.stats(Call::NetAdvance).samples.len(), 1);
    }
}
