//! What the seeded campaign sweeps share: one greedy shrinker, one
//! violation record with its one-line repro, and the availability
//! summary and gates both paired-campaign artifacts carry.
//!
//! [`chaos`](crate::chaos) (enclosure) and
//! [`fleetchaos`](crate::fleetchaos) (fleet) run correlated campaigns
//! against independent twins; [`netvalidate`](crate::netvalidate) runs
//! packet-vs-flow cases. All three cut a failing input down with
//! [`shrink`].

use crate::runner::{gate_num, json_escape};

/// An input the shrinker can cut down: `items()` numbered items, any
/// one of which `without(i)` removes. The numbering is the search
/// order.
pub(crate) trait Shrink: Clone {
    /// Items that can be removed.
    fn items(&self) -> usize;
    /// A copy with item `i` removed.
    fn without(&self, i: usize) -> Self;
}

impl<T: Clone> Shrink for Vec<T> {
    fn items(&self) -> usize {
        self.len()
    }

    fn without(&self, i: usize) -> Self {
        let mut v = self.clone();
        v.remove(i);
        v
    }
}

/// Greedily shrinks `input` while `fails` holds. It tries removing item
/// 0, 1, …, restarts at item 0 after every accepted removal, and stops
/// when no single removal still fails, so the result is 1-minimal. An
/// input no removal keeps failing comes back unchanged. The vendored
/// proptest stand-in does not shrink, so the harness must.
pub(crate) fn shrink<S: Shrink>(input: &S, mut fails: impl FnMut(&S) -> bool) -> S {
    let mut current = input.clone();
    'search: loop {
        for i in 0..current.items() {
            let candidate = current.without(i);
            if fails(&candidate) {
                current = candidate;
                continue 'search;
            }
        }
        return current;
    }
}

/// One shrunk invariant violation of a campaign pair.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Violation {
    /// Campaign index.
    pub(crate) campaign: usize,
    /// Which side of the pair violated.
    pub(crate) correlated: bool,
    /// First violation message.
    pub(crate) detail: String,
    /// Events left after greedy shrinking (minimal repro schedule).
    pub(crate) minimal_events: usize,
    /// One-line repro command.
    pub(crate) repro: String,
}

impl Violation {
    /// Campaign `k` of the `name` sweep at master `seed` violated on one
    /// side with `detail`; shrinking left `minimal` events. The repro
    /// replays the pair with `bench --run NAME --seed N --step K`.
    pub(crate) fn new(
        name: &str,
        seed: u64,
        k: usize,
        correlated: bool,
        detail: String,
        minimal: usize,
    ) -> Self {
        Self {
            campaign: k,
            correlated,
            detail,
            minimal_events: minimal,
            repro: format!(
                "cargo run --release -p socc-bench --bin bench -- --run {name} --seed {seed} --step {k}"
            ),
        }
    }

    /// The record as one quoted item of an artifact's `violations` list.
    pub(crate) fn json_item(&self) -> String {
        format!(
            "\"campaign {} ({}): {}; minimal schedule {} events; repro: {}\"",
            self.campaign,
            if self.correlated {
                "correlated"
            } else {
                "independent"
            },
            json_escape(&self.detail),
            self.minimal_events,
            json_escape(&self.repro),
        )
    }
}

/// Mean and minimum of one side's availabilities; the minimum of no
/// campaigns is 1.0.
pub(crate) fn mean_min(vals: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let vals: Vec<f64> = vals.into_iter().collect();
    let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
    let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
    (mean, if min.is_finite() { min } else { 1.0 })
}

/// The gates every paired-campaign artifact carries: no violations, and
/// correlated availability strictly below independent.
pub(crate) fn gates(doc: &str) -> Vec<String> {
    let mut f: Vec<String> = crate::harness::extract_list(doc, "violations")
        .into_iter()
        .map(|v| format!("invariant violation: {v}"))
        .collect();
    let corr = gate_num(doc, "availability", "correlated_mean", &mut f);
    let indep = gate_num(doc, "availability", "independent_mean", &mut f);
    if let (Some(corr), Some(indep)) = (corr, indep) {
        if corr >= indep {
            f.push(format!(
                "correlated availability {corr:.4} not below independent {indep:.4} — \
                 the failure-domain model lost its teeth"
            ));
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use socc_sim::rng::SimRng;

    /// Random byte schedules of 0–12 items.
    fn schedules() -> impl Iterator<Item = Vec<u8>> {
        let mut rng = SimRng::seed(0x5_4817);
        (0..300).map(move |_| {
            let n = rng.uniform_usize(0, 13);
            (0..n).map(|_| rng.uniform_usize(0, 8) as u8).collect()
        })
    }

    fn check(input: &[u8], fails: impl Fn(&Vec<u8>) -> bool) {
        let input = input.to_vec();
        if !fails(&input) {
            return;
        }
        let out = shrink(&input, &fails);
        assert!(fails(&out), "{input:?} shrank to passing {out:?}");
        for i in 0..out.items() {
            assert!(!fails(&out.without(i)), "{out:?} is not 1-minimal");
        }
        assert_eq!(shrink(&input, &fails), out, "shrinking is deterministic");
    }

    #[test]
    fn shrink_keeps_failing_and_ends_one_minimal() {
        // Monotone: fails while every item of a subset is present.
        let contains_all = |s: &Vec<u8>| [1u8, 3, 3].iter().all(|x| s.contains(x));
        // Non-monotone: fails on an odd item sum of at least 5, so a
        // removal can both break and restore the failure.
        let odd_sum = |s: &Vec<u8>| {
            let sum: u32 = s.iter().map(|&x| u32::from(x)).sum();
            sum % 2 == 1 && sum >= 5
        };
        for s in schedules() {
            check(&s, contains_all);
            check(&s, odd_sum);
        }
    }

    #[test]
    fn shrink_searches_in_index_order() {
        let input = vec![4u8, 2, 7];
        assert_eq!(shrink(&input, |_| false), input, "nothing to remove");
        // Item 0 goes first every time, so the last item survives.
        assert_eq!(shrink(&input, |s| !s.is_empty()), vec![7]);
    }

    #[test]
    fn violation_items_carry_the_run_repro() {
        let v = Violation::new("chaos", 42, 17, false, "lost \"x\"".to_string(), 3);
        assert_eq!(
            v.json_item(),
            "\"campaign 17 (independent): lost \\\"x\\\"; minimal schedule 3 events; \
             repro: cargo run --release -p socc-bench --bin bench -- --run chaos --seed 42 --step 17\""
        );
    }

    #[test]
    fn gates_flag_violations_and_a_toothless_domain_model() {
        let doc = |corr: f64, viols: &[String]| {
            let mut j = crate::harness::JsonBuilder::new();
            j.object("availability", |j| {
                j.f64("independent_mean", 0.95).f64("correlated_mean", corr);
            });
            j.list("violations", viols);
            j.finish()
        };
        assert!(gates(&doc(0.9, &[])).is_empty());
        let v = Violation::new("fleetchaos", 1, 2, true, "x".to_string(), 1);
        assert_eq!(gates(&doc(0.9, &[v.json_item()])).len(), 1);
        assert_eq!(gates(&doc(0.95, &[])).len(), 1);
        assert_eq!(mean_min([0.5, 1.0]), (0.75, 0.5));
        assert_eq!(mean_min([]), (0.0, 1.0));
    }
}
