//! Every committed `BENCH_*.json` reads through its registry
//! experiment's gates.
//!
//! `bench --check` reads the fields its gates need by name, from the run
//! and from the committed artifact. A key that an emitter renames, or a
//! gate misspells, turns that gate into an `artifact missing` failure;
//! this test finds it at `cargo test` time, not only in a full sweep:
//!
//! - every committed artifact belongs to exactly one experiment;
//! - no gate, absolute or baseline-relative, misses a field of its
//!   committed artifact;
//! - every baseline gate passes with the artifact compared against
//!   itself.
//!
//! What the absolute gates say of the committed numbers is not checked
//! here: a baseline may predate a gate added after it.

use std::fs;

use socc_bench::runner::registry;

fn repo_file(name: &str) -> String {
    let path = format!("{}/../{name}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn every_committed_artifact_reads_through_its_gates() {
    let root = format!("{}/..", env!("CARGO_MANIFEST_DIR"));
    let mut committed: Vec<String> = fs::read_dir(&root)
        .expect("repository root")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .filter(|name| !name.ends_with(".ci.json"))
        .collect();
    committed.sort();
    let mut declared: Vec<String> = registry().iter().map(|e| e.artifact.to_string()).collect();
    declared.sort();
    assert_eq!(committed, declared, "committed artifacts vs registry");

    let mut failures = Vec::new();
    for exp in registry() {
        let doc = repo_file(exp.artifact);
        for failure in (exp.gates)(&doc) {
            if failure.contains("artifact missing") {
                failures.push(format!("{}: {failure}", exp.name));
            }
        }
        for failure in (exp.baseline_gates)(&doc, &doc) {
            failures.push(format!("{} against itself: {failure}", exp.name));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
