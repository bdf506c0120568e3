//! Contract tests for the unified experiment runner (`socc_bench::runner`):
//! the proptest config-hash contract, sweep resumability after a mid-grid
//! kill, rows that answer only for the build that recorded them, and a
//! golden pin of the JSONL envelope schema.
//!
//! To re-bless the schema golden after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test -p integration-tests --test runner_cache`

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use socc_bench::harness::mix_seed;
use socc_bench::runner::{
    self, rows_digest, run_experiment, Cache, ExpConfig, Experiment, GridScale,
};

// ---------------------------------------------------------------------------
// Config-hash contract (proptest)
// ---------------------------------------------------------------------------

/// Field-name pool: hashing sorts by name, so distinct names from a fixed
/// pool exercise every ordering without colliding keys.
const NAMES: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "seed",
];

#[derive(Clone, Debug, PartialEq)]
enum Val {
    U(u64),
    F(f64),
    B(bool),
    S(String),
}

/// Maps a primitive draw to one typed config value — the vendored
/// proptest has no `prop_oneof`/`prop_map`, so typed values derive
/// deterministically from (kind, raw) pairs instead.
fn val_from(kind: u8, raw: u64) -> Val {
    match kind % 4 {
        0 => Val::U(raw),
        1 => Val::F((raw % 2_000_000) as f64 / 1000.0 - 1000.0),
        2 => Val::B(raw & 1 == 1),
        _ => Val::S(format!("s{raw:x}")),
    }
}

/// Builds a field set from a non-empty name mask and one draw per slot.
fn make_fields(mask: usize, raw: &[(u8, u64)]) -> Vec<(&'static str, Val)> {
    (0..NAMES.len())
        .filter(|b| mask >> b & 1 == 1)
        .map(|b| (NAMES[b], val_from(raw[b].0, raw[b].1)))
        .collect()
}

fn build(fields: &[(&'static str, Val)]) -> ExpConfig {
    let mut cfg = ExpConfig::new();
    for (name, v) in fields {
        cfg = match v {
            Val::U(x) => cfg.u64(name, *x),
            Val::F(x) => cfg.f64(name, *x),
            Val::B(x) => cfg.bool(name, *x),
            Val::S(x) => cfg.str(name, x),
        };
    }
    cfg
}

proptest! {
    /// The hash is a pure function of the field set: rebuilding the same
    /// config reproduces it, and declaration order never matters.
    #[test]
    fn hash_is_stable_and_reorder_insensitive(
        mask in 1usize..256,
        raw in prop::collection::vec((0u8..4, 0u64..u64::MAX), 8..9),
    ) {
        let fields = make_fields(mask, &raw);
        let forward = build(&fields);
        let mut reversed_fields = fields.clone();
        reversed_fields.reverse();
        prop_assert_eq!(forward.hash(), build(&reversed_fields).hash());
        prop_assert_eq!(forward.hash(), build(&fields).hash());
        prop_assert_eq!(forward.hash_hex(), format!("{:016x}", forward.hash()));
    }

    /// Any single field change — value or type — produces a different
    /// hash, so a stale cache row can never answer an edited config.
    #[test]
    fn any_single_field_change_changes_hash(
        mask in 1usize..256,
        raw in prop::collection::vec((0u8..4, 0u64..u64::MAX), 8..9),
        pick in 0usize..8,
        new_kind in 0u8..4,
        new_raw in 0u64..u64::MAX,
    ) {
        let fields = make_fields(mask, &raw);
        let i = pick % fields.len();
        let replacement = val_from(new_kind, new_raw);
        prop_assume!(fields[i].1 != replacement);
        let mut mutated = fields.clone();
        mutated[i].1 = replacement;
        prop_assert_ne!(build(&fields).hash(), build(&mutated).hash());
    }
}

#[test]
fn hash_is_pinned_across_runs_and_processes() {
    // A literal pin: if the algorithm (FNV constants, separator layout,
    // type tags, sort order) drifts, every on-disk cache silently
    // orphans. This fails loudly instead.
    let cfg = ExpConfig::new()
        .u64("campaigns", 256)
        .u64("seed", 42)
        .f64("floor", 0.9)
        .bool("fast", true)
        .str("grid", "15,20,25");
    assert_eq!(cfg.hash_hex(), "ffe91e63f8aca1ab");
}

// ---------------------------------------------------------------------------
// Resumability: kill a sweep mid-grid, re-run, only missing configs execute
// ---------------------------------------------------------------------------

/// Executions performed by [`fused_experiment`], process-wide.
static EXECS: AtomicU64 = AtomicU64::new(0);
/// Executions remaining before the fuse blows (`u64::MAX` = disarmed).
static FUSE: AtomicU64 = AtomicU64::new(u64::MAX);
/// Serializes the tests below — the fuse and counter are shared statics.
static LOCK: Mutex<()> = Mutex::new(());

const GRID: u64 = 6;

fn fused_experiment() -> Experiment {
    Experiment {
        name: "fused",
        about: "resumability self-test",
        artifact: "BENCH_fused.json",
        configs: |scale| {
            (0..GRID)
                .map(|k| {
                    ExpConfig::new()
                        .u64("k", k)
                        .u64("seed", mix_seed(scale.seed, k as usize))
                })
                .collect()
        },
        execute: |cfg, _| {
            if FUSE
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .is_err()
            {
                return Err("fuse blown: sweep killed mid-grid".to_string());
            }
            EXECS.fetch_add(1, Ordering::Relaxed);
            Ok(format!(
                "{{\n  \"k\": {},\n  \"seed\": {}\n}}\n",
                cfg.get_u64("k"),
                cfg.seed()
            ))
        },
        gates: |_| Vec::new(),
        baseline_gates: |_, _| Vec::new(),
    }
}

/// Build fingerprints for the tests; `bench` passes `runner::exe_fnv64()`.
const BUILD_A: u64 = 0xa;
const BUILD_B: u64 = 0xb;

fn temp_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "socc-runner-it-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn temp_cache(tag: &str) -> Cache {
    Cache::new(temp_dir(tag), BUILD_A)
}

#[test]
fn interrupted_sweep_resumes_with_only_missing_configs() {
    let _guard = LOCK.lock().unwrap();
    let exp = fused_experiment();
    let scale = GridScale::full(42);

    // Uninterrupted reference sweep in its own cache.
    FUSE.store(u64::MAX, Ordering::Relaxed);
    let reference =
        run_experiment(&exp, &scale, &temp_cache("ref"), &|| 0).expect("reference sweep");
    assert_eq!(reference.executed as u64, GRID);

    // Killed sweep: the fuse blows after two configs.
    let cache = temp_cache("resume");
    FUSE.store(2, Ordering::Relaxed);
    let err = run_experiment(&exp, &scale, &cache, &|| 0).unwrap_err();
    assert!(err.contains("fuse blown"), "unexpected error: {err}");
    assert_eq!(
        cache.load("fused").len(),
        2,
        "rows completed before the kill must already be on disk"
    );

    // Re-run with the fuse disarmed: only the four missing configs
    // execute, and the merged rows match the uninterrupted sweep.
    FUSE.store(u64::MAX, Ordering::Relaxed);
    let before = EXECS.load(Ordering::Relaxed);
    let resumed = run_experiment(&exp, &scale, &cache, &|| 0).expect("resumed sweep");
    assert_eq!(resumed.executed as u64, GRID - 2);
    assert_eq!(resumed.cached, 2);
    assert_eq!(
        EXECS.load(Ordering::Relaxed) - before,
        GRID - 2,
        "resume must not re-execute cached configs"
    );
    assert_eq!(
        rows_digest(&resumed.rows),
        rows_digest(&reference.rows),
        "resumed sweep must converge to the uninterrupted rows"
    );
}

#[test]
fn equal_hashes_hit_cache_with_zero_executions() {
    let _guard = LOCK.lock().unwrap();
    let exp = fused_experiment();
    let scale = GridScale::full(7);
    let cache = temp_cache("hit");

    FUSE.store(u64::MAX, Ordering::Relaxed);
    let first = run_experiment(&exp, &scale, &cache, &|| 0).expect("first sweep");
    assert_eq!(first.executed as u64, GRID);

    let before = EXECS.load(Ordering::Relaxed);
    let second = run_experiment(&exp, &scale, &cache, &|| 0).expect("second sweep");
    assert_eq!(second.executed, 0, "equal hashes must all hit the cache");
    assert_eq!(second.cached as u64, GRID);
    assert_eq!(EXECS.load(Ordering::Relaxed), before);
    assert_eq!(rows_digest(&first.rows), rows_digest(&second.rows));
}

/// A row answers only for the build that recorded it: the same sweep
/// under another build re-executes every config (edited code is never
/// gated on rows it did not produce), while the original build still
/// hits its own rows in the shared file.
#[test]
fn rows_from_another_build_re_execute() {
    let _guard = LOCK.lock().unwrap();
    let exp = fused_experiment();
    let scale = GridScale::full(11);
    let dir = temp_dir("build");
    FUSE.store(u64::MAX, Ordering::Relaxed);
    let sweep = |build| run_experiment(&exp, &scale, &Cache::new(&dir, build), &|| 0);

    let a = sweep(BUILD_A).expect("sweep under build A");
    assert_eq!(a.executed as u64, GRID);
    let b = sweep(BUILD_B).expect("sweep under build B");
    assert_eq!(
        b.executed as u64, GRID,
        "build A's rows must not answer build B"
    );
    assert_eq!(b.cached, 0);
    let again = sweep(BUILD_A).expect("repeat under build A");
    assert_eq!(
        again.executed, 0,
        "build A's rows must still answer build A"
    );
    assert_eq!(again.cached as u64, GRID);
    assert!(again
        .rows
        .iter()
        .all(|r| r.build == format!("{BUILD_A:016x}")));
    assert!(b.rows.iter().all(|r| r.build == format!("{BUILD_B:016x}")));
    assert_eq!(rows_digest(&again.rows), rows_digest(&b.rows));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden pin of the JSONL envelope + per-experiment config schemas
// ---------------------------------------------------------------------------

#[test]
fn runner_envelope_schema_matches_golden() {
    let actual = runner::schema_description();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("runner_envelope.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "runner envelope schema drifted from {}.\n\
         Field names/types changed — every cached row and committed artifact\n\
         consumer is affected. Re-bless with UPDATE_GOLDEN=1 only after review.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}
