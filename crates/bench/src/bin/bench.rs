//! Unified bench entry point, built on [`socc_bench::runner`].
//!
//! Every experiment — perf, serve, chaos, trace, netval, fleet,
//! fleetchaos, video — is declared in the registry (name, run fn,
//! gates), so this binary is just the driver:
//!
//! ```text
//! bench --list                         # registered experiments
//! bench --run perf --check             # one experiment + its gates vs its committed baseline
//! bench --run all --smoke --check      # the whole CI smoke sweep in one invocation
//! bench --run netval --cases 64        # scale override for one experiment
//! ```
//!
//! Each experiment's artifact document is printed, and written to
//! `--out FILE` (a single experiment) or, with `--out-suffix .ci.json`,
//! to a file named after its committed baseline.
//!
//! Gate semantics: *absolute* gates (the experiment's own contract —
//! zero hot-path allocations, speedup floors, invariant violations) run
//! on every artifact. *Baseline-relative* gates run under `--check`,
//! against the experiment's committed `BENCH_*.json` (or an explicit
//! `--check PATH` when a single experiment runs).
//!
//! Two mode-specific escapes print something other than an artifact:
//! `--step K` replays one chaos/fleetchaos campaign pair as
//! deterministic text (the repro line every violation prints:
//! `bench --run chaos --seed N --step K`), and `--chrome FILE` exports
//! the trace scenario's span log in Chrome `trace_event` format.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use socc_bench::chaos::ChaosOptions;
use socc_bench::fleetchaos::FleetChaosOptions;
use socc_bench::runner::{read_baseline, resolve, Scale};
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
    out: Option<String>,
    out_suffix: Option<String>,
    /// `None` = no check; `Some(None)` = each experiment's declared
    /// baseline; `Some(Some(path))` = explicit baseline (single
    /// experiment only).
    check: Option<Option<String>>,
    chrome: Option<String>,
    step: Option<usize>,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        run: Vec::new(),
        list: false,
        out: None,
        out_suffix: None,
        check: None,
        chrome: None,
        step: None,
        scale: Scale {
            seed: 42,
            ..Scale::default()
        },
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
            "--smoke" => args.scale.smoke = true,
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
            "--step" => args.step = Some(parse_num(&arg, value(&arg)?)?),
            "--seed" => {
                args.scale.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--cases" => args.scale.cases = Some(parse_num(&arg, value(&arg)?)?),
            "--campaigns" => args.scale.campaigns = Some(parse_num(&arg, value(&arg)?)?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn parse_num(flag: &str, raw: String) -> Result<usize, String> {
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `--step K` replay: one campaign pair as deterministic text (no
/// wall-clock, no JSON — it is a repro tool, not a result).
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
         \x20             [--seed N] [--cases N (netval)] [--campaigns N (chaos, fleetchaos)]\n\
         \x20      bench --list\n\
         \x20      bench --run chaos --seed N --step K    (campaign replay; also --run fleetchaos)\n\
         \x20      bench --run trace --chrome FILE        (Chrome trace_event export)\n\
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
    let mut failures: Vec<String> = Vec::new();
    for exp in &exps {
        let doc = (exp.run)(&args.scale, &alloc_count);
        let baseline = match &args.check {
            None => None,
            Some(explicit) => Some(read_baseline(explicit.as_deref().unwrap_or(exp.artifact))?),
        };
        print!("{doc}");
        for failure in (exp.gates)(&doc) {
            failures.push(format!("{}: {failure}", exp.name));
        }
        if let Some(baseline) = &baseline {
            for failure in (exp.baseline_gates)(&doc, baseline) {
                failures.push(format!("{}: {failure}", exp.name));
            }
        }
        let out_path = args.out.clone().or_else(|| {
            args.out_suffix.as_ref().map(|suffix| {
                let stem = exp.artifact.strip_suffix(".json").unwrap_or(exp.artifact);
                format!("{stem}{suffix}")
            })
        });
        if let Some(path) = out_path {
            std::fs::write(&path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        eprintln!(
            "bench: {}: {}",
            exp.name,
            if args.check.is_some() {
                "gates + baseline checked"
            } else {
                "gates checked"
            },
        );
    }
    if args.chrome.is_some() && !exps.iter().any(|e| e.name == "trace") {
        return Err("--chrome needs the trace experiment in --run".to_string());
    }
    if let Some(path) = &args.chrome {
        let opts = TraceOptions {
            seed: args.scale.seed,
            ..TraceOptions::default()
        };
        let trace = socc_bench::tracebench::chrome_trace(&opts);
        std::fs::write(path, &trace).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
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
