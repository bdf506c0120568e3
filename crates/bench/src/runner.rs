//! The experiment registry behind `bench --run`.
//!
//! An experiment is a *name*, a *run* function that renders its artifact
//! document at a [`Scale`] (the bytes that become its `BENCH_*.json`),
//! and its *gates* (absolute plus baseline-relative), all declared next
//! to the code they measure — `bench --run <exp> --check` is the whole
//! CI story.

use std::fs;
use std::path::Path;

/// The knobs every run reads: the master seed, the smoke/full switch,
/// and the two count overrides (`--cases`, `--campaigns`). `None` means
/// "the experiment's declared default for this tier".
#[derive(Debug, Clone, Default)]
pub struct Scale {
    /// Master seed; a campaign or case sweep derives case `k`'s seed from
    /// it with [`crate::harness::mix_seed`].
    pub seed: u64,
    /// CI-smoke tier (reduced campaign counts where the full tier is
    /// expensive; identical where it is not).
    pub smoke: bool,
    /// `--cases` override (netval).
    pub cases: Option<usize>,
    /// `--campaigns` override (chaos, fleetchaos).
    pub campaigns: Option<usize>,
}

/// One registered experiment: its name, how to run it, and its gates.
pub struct Experiment {
    /// Registry name (`bench --run <name>`).
    pub name: &'static str,
    /// One-line description for `--list` and the docs.
    pub about: &'static str,
    /// The committed baseline artifact this experiment reproduces and
    /// `--check` compares against (e.g. `BENCH_net.json`).
    pub artifact: &'static str,
    /// Runs the experiment and renders its artifact document. The second
    /// argument reads the process's allocation counter.
    pub run: fn(&Scale, &dyn Fn() -> u64) -> String,
    /// Absolute gates on an artifact document: the experiment's own
    /// contract, checked on every run.
    pub gates: fn(&str) -> Vec<String>,
    /// Baseline-relative gates: run document vs the committed baseline
    /// document, checked under `--check`.
    pub baseline_gates: fn(&str, &str) -> Vec<String>,
}

/// Every registered experiment, in canonical order. The eight bench
/// modes all live here; adding a mode means adding a declaration, not a
/// CLI branch, an emitter, and a CI step.
pub fn registry() -> Vec<Experiment> {
    vec![
        crate::perf::experiment(),
        crate::serve::experiment(),
        crate::chaos::experiment(),
        crate::tracebench::experiment(),
        crate::netvalidate::experiment(),
        crate::fleet::experiment(),
        crate::fleetchaos::experiment(),
        crate::video::experiment(),
    ]
}

/// Looks up experiments by name, in first-seen order with repeats
/// dropped; `all` expands to the full registry in canonical order.
pub fn resolve(names: &[String]) -> Result<Vec<Experiment>, String> {
    let mut all = registry();
    if names.iter().any(|n| n == "all") {
        return Ok(all);
    }
    let mut picked: Vec<Experiment> = Vec::new();
    for name in names {
        if picked.iter().any(|e| e.name == name) {
            continue;
        }
        let at = all
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| format!("unknown experiment {name} (try --list)"))?;
        picked.push(all.swap_remove(at));
    }
    Ok(picked)
}

/// Reads a required numeric gate input from an artifact document,
/// recording a failure (instead of silently passing) when absent.
pub(crate) fn gate_num(
    doc: &str,
    section: &str,
    key: &str,
    failures: &mut Vec<String>,
) -> Option<f64> {
    let v = crate::harness::extract_num(doc, section, key);
    if v.is_none() {
        failures.push(format!("artifact missing {section}.{key}"));
    }
    v
}

/// Reads a required string gate input from an artifact document,
/// recording a failure when absent.
pub(crate) fn gate_str<'a>(
    doc: &'a str,
    section: &str,
    key: &str,
    failures: &mut Vec<String>,
) -> Option<&'a str> {
    let v = crate::harness::extract_str(doc, section, key);
    if v.is_none() {
        failures.push(format!("artifact missing {section}.{key}"));
    }
    v
}

/// Reads a required boolean gate input from an artifact document,
/// recording a failure when absent.
pub(crate) fn gate_bool(
    doc: &str,
    section: &str,
    key: &str,
    failures: &mut Vec<String>,
) -> Option<bool> {
    let v = crate::harness::extract_bool(doc, section, key);
    if v.is_none() {
        failures.push(format!("artifact missing {section}.{key}"));
    }
    v
}

/// `true` when the run document and the baseline agree on every listed
/// `config` key — the guard every digest-pinning baseline gate uses, so
/// a deliberately rescaled run is not compared against a full-scale
/// baseline.
pub(crate) fn same_config(doc: &str, baseline: &str, keys: &[&str]) -> bool {
    keys.iter().all(|key| {
        let run = crate::harness::extract_num(doc, "config", key);
        run.is_some() && run == crate::harness::extract_num(baseline, "config", key)
    })
}

/// Reads the committed baseline document for an experiment, looking in
/// the working directory first and the workspace root second (so the
/// bin works from either).
pub fn read_baseline(path: &str) -> Result<String, String> {
    if let Ok(doc) = fs::read_to_string(path) {
        return Ok(doc);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path);
    fs::read_to_string(&root).map_err(|e| format!("reading baseline {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_drops_repeated_names_in_first_seen_order() {
        let names: Vec<String> = ["chaos", "perf", "chaos"].map(String::from).to_vec();
        let picked: Vec<&str> = resolve(&names).unwrap().iter().map(|e| e.name).collect();
        assert_eq!(picked, ["chaos", "perf"]);
        let err = resolve(&["nope".to_string()]).err().unwrap();
        assert!(err.contains("unknown experiment nope"), "{err}");
    }
}
