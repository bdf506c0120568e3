//! Unified bench entry point, built on [`socc_bench::runner`].
//!
//! Every experiment — perf, serve, chaos, trace, netval, fleet,
//! fleetchaos, video — is declared in the registry (name, config grid,
//! seed rule, execute fn, gates), so this binary is just the driver:
//!
//! ```text
//! bench --list                         # registered experiments
//! bench --run perf --check             # one experiment + its gates vs its committed baseline
//! bench --run all --smoke --check      # the whole CI smoke sweep in one invocation
//! bench --run netval --cases 64        # scale override for one experiment
//! ```
//!
//! Results land as JSONL rows (shared envelope: `schema`, `experiment`,
//! `config_hash`, `build`, `seed`, `wall_ms`, `config`, `artifact`) in the
//! cache directory (default `.bench-cache/`, override with `--cache-dir`).
//! Re-running a sweep executes only configurations whose FNV config hash
//! this build of `bench` has not already cached (a changed binary
//! re-executes everything) — so an interrupted sweep resumes instead of
//! restarting, and a repeat invocation executes nothing (`--assert-cached`
//! turns that into a hard check; `--force` drops the cache first). Each
//! experiment's artifact document is still printed and written
//! (`--out FILE` for a single experiment, `--out-suffix .ci.json` to
//! derive one file per experiment from its committed baseline name).
//!
//! Gate semantics: *absolute* gates (the experiment's own contract —
//! zero hot-path allocations, speedup floors, invariant violations) run
//! on every artifact, cached or fresh. *Baseline-relative* gates run
//! under `--check`, against the experiment's committed `BENCH_*.json`
//! (or an explicit `--check PATH` when a single experiment runs).
//!
//! Two mode-specific escapes stay outside the cache: `--step K` replays
//! one chaos/fleetchaos campaign pair as deterministic text (the repro
//! line every violation prints: `bench --run chaos --seed N --step K`),
//! and `--chrome FILE` exports the trace scenario's span log in Chrome
//! `trace_event` format.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use socc_bench::chaos::ChaosOptions;
use socc_bench::fleetchaos::FleetChaosOptions;
use socc_bench::runner::{
    exe_fnv64, read_baseline, resolve, run_experiment, Cache, GridScale, DEFAULT_CACHE_DIR,
};
use socc_bench::tracebench::TraceOptions;

/// Counts every heap allocation; the perf harness samples it around the
/// measured phase to prove the hot path is allocation-free.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter increment, which cannot violate the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

struct Args {
    run: Vec<String>,
    list: bool,
    smoke: bool,
    force: bool,
    assert_cached: bool,
    cache_dir: String,
    out: Option<String>,
    out_suffix: Option<String>,
    /// `None` = no check; `Some(None)` = each experiment's declared
    /// baseline; `Some(Some(path))` = explicit baseline (single
    /// experiment only).
    check: Option<Option<String>>,
    chrome: Option<String>,
    step: Option<usize>,
    scale: GridScale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        run: Vec::new(),
        list: false,
        smoke: false,
        force: false,
        assert_cached: false,
        cache_dir: DEFAULT_CACHE_DIR.to_string(),
        out: None,
        out_suffix: None,
        check: None,
        chrome: None,
        step: None,
        scale: GridScale::full(42),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--run" => {
                for name in value("--run")?.split(',') {
                    let name = name.trim();
                    if !name.is_empty() {
                        args.run.push(name.to_string());
                    }
                }
            }
            "--list" => args.list = true,
            "--smoke" => {
                args.smoke = true;
                args.scale.smoke = true;
            }
            "--force" => args.force = true,
            "--assert-cached" => args.assert_cached = true,
            "--cache-dir" => args.cache_dir = value("--cache-dir")?,
            "--out" => args.out = Some(value("--out")?),
            "--out-suffix" => args.out_suffix = Some(value("--out-suffix")?),
            "--check" => {
                // Optional value: `--check BASELINE.json` pins an explicit
                // baseline; bare `--check` uses each experiment's declared
                // one.
                let explicit = match it.peek() {
                    Some(next) if !next.starts_with("--") => Some(it.next().unwrap()),
                    _ => None,
                };
                args.check = Some(explicit);
            }
            "--chrome" => args.chrome = Some(value("--chrome")?),
            "--step" => {
                args.step = Some(
                    value("--step")?
                        .parse()
                        .map_err(|e| format!("--step: {e}"))?,
                )
            }
            "--seed" => {
                args.scale.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--flows" => args.scale.flows = Some(parse_num(&arg, value(&arg)?)?),
            "--events" => args.scale.events = Some(parse_num(&arg, value(&arg)?)?),
            "--points" => args.scale.points = Some(parse_num(&arg, value(&arg)?)?),
            "--cases" => args.scale.cases = Some(parse_num(&arg, value(&arg)?)?),
            "--campaigns" => args.scale.campaigns = Some(parse_num(&arg, value(&arg)?)?),
            "--sites" => args.scale.sites = Some(parse_num(&arg, value(&arg)?)?),
            "--socs" => args.scale.socs = Some(parse_num(&arg, value(&arg)?)?),
            "--reps" => args.scale.reps = Some(parse_num(&arg, value(&arg)?)?),
            "--hours" => {
                args.scale.hours = Some(
                    value("--hours")?
                        .parse()
                        .map_err(|e| format!("--hours: {e}"))?,
                )
            }
            "--window" => {
                args.scale.window = Some(
                    value("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                )
            }
            "--peak" => {
                args.scale.peak = Some(
                    value("--peak")?
                        .parse()
                        .map_err(|e| format!("--peak: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn parse_num(flag: &str, raw: String) -> Result<usize, String> {
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `--step K` replay: one campaign pair as deterministic text, outside
/// the cache (no wall-clock, no JSON — it is a repro tool, not a
/// result).
fn run_step(args: &Args, k: usize) -> Result<(), String> {
    match args.run.as_slice() {
        [name] if name == "chaos" => {
            let opts = ChaosOptions {
                campaigns: args.scale.campaigns.unwrap_or(256),
                seed: args.scale.seed,
                ..ChaosOptions::default()
            };
            print!("{}", socc_bench::chaos::replay(&opts, k));
            Ok(())
        }
        [name] if name == "fleetchaos" => {
            let opts = FleetChaosOptions {
                campaigns: args.scale.campaigns.unwrap_or(64),
                seed: args.scale.seed,
                ..FleetChaosOptions::default()
            };
            print!("{}", socc_bench::fleetchaos::replay(&opts, k));
            Ok(())
        }
        _ => Err("--step needs exactly one of --run chaos / --run fleetchaos".to_string()),
    }
}

fn usage() -> String {
    let mut u = String::from(
        "usage: bench --run <names|all> [--smoke] [--check [BASELINE]] [--out FILE | --out-suffix SUF]\n\
         \x20             [--cache-dir DIR] [--force] [--assert-cached] [--seed N] [scale overrides]\n\
         \x20      bench --list\n\
         \x20      bench --run chaos --seed N --step K    (campaign replay; also --run fleetchaos)\n\
         \x20      bench --run trace --chrome FILE        (Chrome trace_event export)\n\
         scale overrides: --flows --events --points --cases --campaigns --sites --socs\n\
         \x20                --hours --window --peak --reps\n\
         experiments:\n",
    );
    for exp in socc_bench::runner::registry() {
        u.push_str(&format!(
            "  {:<10} {} [{}]\n",
            exp.name, exp.about, exp.artifact
        ));
    }
    u
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(k) = args.step {
        return run_step(args, k);
    }
    let exps = resolve(&args.run)?;
    if args.out.is_some() && exps.len() != 1 {
        return Err("--out needs exactly one experiment; use --out-suffix for sweeps".to_string());
    }
    if let Some(Some(_)) = &args.check {
        if exps.len() != 1 {
            return Err(
                "an explicit --check baseline needs exactly one experiment; \
                 bare --check uses each experiment's declared baseline"
                    .to_string(),
            );
        }
    }
    let build = exe_fnv64().ok_or("cannot read the bench executable to fingerprint its build")?;
    let cache = Cache::new(&args.cache_dir, build);
    let mut failures: Vec<String> = Vec::new();
    let mut total_executed = 0usize;
    let mut total_cached = 0usize;
    for exp in &exps {
        if args.force {
            cache.invalidate(exp.name)?;
        }
        let outcome = run_experiment(exp, &args.scale, &cache, &alloc_count)?;
        total_executed += outcome.executed;
        total_cached += outcome.cached;
        let out_path = args.out.clone().or_else(|| {
            args.out_suffix.as_ref().map(|suffix| {
                let stem = exp.artifact.strip_suffix(".json").unwrap_or(exp.artifact);
                format!("{stem}{suffix}")
            })
        });
        let baseline = match &args.check {
            None => None,
            Some(explicit) => Some(read_baseline(explicit.as_deref().unwrap_or(exp.artifact))?),
        };
        for row in &outcome.rows {
            print!("{}", row.artifact);
            for failure in (exp.gates)(&row.artifact) {
                failures.push(format!("{} [{}]: {failure}", exp.name, row.config_hash));
            }
            if let Some(baseline) = &baseline {
                for failure in (exp.baseline_gates)(&row.artifact, baseline) {
                    failures.push(format!("{} [{}]: {failure}", exp.name, row.config_hash));
                }
            }
        }
        if let Some(path) = out_path {
            // Single-config grids (all eight today): the artifact file is
            // the one row's document, byte-for-byte.
            let doc = &outcome
                .rows
                .first()
                .ok_or_else(|| format!("{}: empty grid", exp.name))?
                .artifact;
            std::fs::write(&path, doc).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        eprintln!(
            "bench: {}: {} executed, {} cached ({} config{}){}",
            exp.name,
            outcome.executed,
            outcome.cached,
            outcome.rows.len(),
            if outcome.rows.len() == 1 { "" } else { "s" },
            if args.check.is_some() {
                ", gates + baseline checked"
            } else {
                ", gates checked"
            },
        );
    }
    if args.chrome.is_some() && !exps.iter().any(|e| e.name == "trace") {
        return Err("--chrome needs the trace experiment in --run".to_string());
    }
    if let Some(path) = &args.chrome {
        let opts = TraceOptions {
            reps: args.scale.reps.unwrap_or(TraceOptions::default().reps),
            seed: socc_bench::harness::mix_seed(args.scale.seed, 0),
            ..TraceOptions::default()
        };
        let trace = socc_bench::tracebench::chrome_trace(&opts);
        std::fs::write(path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    eprintln!(
        "bench: total {total_executed} executed, {total_cached} cached across {} experiment{}",
        exps.len(),
        if exps.len() == 1 { "" } else { "s" },
    );
    if args.assert_cached && total_executed != 0 {
        failures.push(format!(
            "--assert-cached: {total_executed} configs executed (expected every config cached)"
        ));
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        eprint!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args.run.is_empty() {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
