//! Property test: the packet-level fabric engine and the max-min flow
//! model agree on randomized scenarios.
//!
//! Each case draws a `soc_cluster` topology (optionally with backup PCB
//! uplinks), a random flow set, and a burst of uplink fail/repair churn,
//! runs both engines over the same inputs, and requires (a) identical
//! dead-flow sets at every failure and (b) every survivor's
//! packet-measured goodput within the agreement tolerance of the flow
//! model's prediction. On failure the scenario is greedily shrunk to a
//! minimal counterexample (the vendored proptest stub does not shrink)
//! and the panic message carries a one-line repro command.

use proptest::prelude::*;
use socc_bench::netvalidate::{
    case_seed, gen_scenario, run_case, shrink_scenario, AGREEMENT_TOLERANCE,
};
use socc_sim::rng::SimRng;

proptest! {
    /// Packet ≡ flow steady-state goodput across randomized
    /// topology × flows × churn.
    #[test]
    fn packet_engine_matches_flow_model(seed in 0u64..u64::MAX) {
        let scenario = gen_scenario(&mut SimRng::seed(seed));
        if let Err(detail) = run_case(&scenario) {
            let minimal = shrink_scenario(&scenario);
            panic!(
                "packet engine disagreed with the flow model (seed {seed}):\n{detail}\n\
                 minimal counterexample: {minimal:?}\n\
                 repro: cargo run --release -p socc-bench --bin bench -- --run netval --seed {seed} --cases 1"
            );
        }
    }

    /// Agreement is tight, not merely within tolerance: a single flow with
    /// no churn has nothing to disturb it, so its error must sit well
    /// inside the band.
    #[test]
    fn quiet_single_flow_agrees_tightly(seed in 0u64..u64::MAX) {
        let mut scenario = gen_scenario(&mut SimRng::seed(seed));
        scenario.churn.clear();
        scenario.flows.truncate(1);
        let report = run_case(&scenario).expect("quiet scenario agrees");
        prop_assert!(report.max_rel_err < AGREEMENT_TOLERANCE / 2.0,
            "quiet flow err {} should sit well inside ±{AGREEMENT_TOLERANCE}: {scenario:?}",
            report.max_rel_err);
    }
}

/// The sweep's per-case seeds replay exactly: case `k` of a sweep at seed
/// `S` equals a one-case sweep at `case_seed(S, k)` — the contract behind
/// the `--run netval --seed N --cases 1` repro line.
#[test]
fn case_seed_replay_contract() {
    assert_eq!(case_seed(42, 0), 42, "case 0 must replay the master seed");
    for k in [1usize, 7, 63] {
        let derived = case_seed(42, k);
        let from_sweep = gen_scenario(&mut SimRng::seed(derived));
        let from_repro = gen_scenario(&mut SimRng::seed(case_seed(derived, 0)));
        assert_eq!(from_sweep, from_repro);
    }
}
