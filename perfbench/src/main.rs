//! The repository benchmark: three fixed-work workloads run on one thread
//! (a closed loop with one caller), timed end to end and, in a separate
//! traced run, at every call the driver makes into a layer's public
//! function.
//!
//! ```text
//! perfbench --workload fleet_day|fault_storm|net_churn [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run repeats one fixed-work unit of the workload for `--seconds`,
//! each unit set up afresh from `--seed`, and checks every unit's
//! simulated output. The first unit warms the process and is not timed.
//! With `--trace 0` it reports the end-to-end metrics: `wall_s` is the
//! fastest unit's timed phase (on a shared host, contention only ever
//! adds time, and the fastest repetition repeats across runs far better
//! than the median does), `setup_s` the median set-up. With `--trace 1`
//! it traces two units of every three and reports the per-layer metrics
//! per traced unit. Every timing is host time; simulated time only sets
//! how much work a unit does. The last line of standard output is the
//! JSON result; the line before it lists every unit's timings, the
//! digest and the host and build fingerprint.

mod alloc;
mod fault_storm;
mod fleet_day;
mod metrics;
mod net_churn;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{json_num, json_str};
use trace::{Call, Tracer};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload fleet_day|fault_storm|net_churn \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 3] = ["fleet_day", "fault_storm", "net_churn"];

/// Units a run makes however short `--seconds` is. Unit 0 warms the heap
/// and caches: it is checked but not timed. Of the units after it, a
/// traced run traces two of every three; the third, untraced, is the
/// baseline of `trace.overhead_pct`.
const MIN_UNITS: usize = 4;

/// Largest share of the traced wall time the spans may leave unattributed.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Everything a run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// Output checks run.
    pub attempted: u64,
    /// Failed checks, one message each.
    pub failures: Vec<String>,
    /// The metrics of the run's mode: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Digest of the first unit's output.
    pub digest: u64,
    /// Digest pinned for this shape and seed, if any.
    pub pinned: Option<u64>,
    /// Deterministic work counters of one unit.
    pub counters: Vec<(&'static str, f64)>,
    /// Host seconds of each unit's set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of each untraced unit's timed phase.
    pub wall_s: Vec<f64>,
    /// Host seconds of each traced unit's timed phase.
    pub traced_wall_s: Vec<f64>,
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs units of `w` for `seconds` (at least [`MIN_UNITS`]), tracing two
/// of every three when `traced`, and checks every unit. `name` is the
/// workload's benchmark name.
pub fn measure<W: Workload>(w: &W, name: &str, seed: u64, seconds: u64, traced: bool) -> Report {
    // The goodput constant is calibrated lazily once per process; paying
    // it here keeps it out of the first unit. Each set-up then re-runs the
    // calibration, so `setup_s` carries the cost a fresh process pays.
    let goodput = socc_net::packet::calibrated_goodput_factor();
    let mut tr = Tracer::default();
    let mut report = Report {
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        digest: 0,
        pinned: w.pinned_digest(seed),
        counters: Vec::new(),
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        traced_wall_s: Vec::new(),
    };
    let mut timings: BTreeMap<&str, f64> = BTreeMap::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut unit = 0;
    // Stop before a unit that would overrun the budget, judged by the
    // longest unit so far.
    let mut longest = Duration::ZERO;
    while unit < MIN_UNITS || started.elapsed() + longest <= budget {
        let unit_started = Instant::now();
        let timed = unit > 0;
        let traced_unit = traced && timed && unit % 3 != 0;
        tr.set_on(traced_unit);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            let calibration = socc_net::packet::run_goodput_calibration();
            let input = w.setup(seed, &mut tr);
            let setup = t0.elapsed();
            (calibration.factor, setup, w.run(input, &mut tr))
        }));
        let Ok((factor, setup, out)) = outcome else {
            report.attempted += 1;
            report.failures.push(format!("unit {unit} panicked"));
            break;
        };
        let mut checks = out.checks;
        checks.check(factor.to_bits() == goodput.to_bits(), || {
            format!("goodput calibration gave {factor}, the process cached {goodput}")
        });
        if unit == 0 {
            report.digest = out.digest;
            report.counters = out.counters.clone();
        } else {
            checks.check(
                out.digest == report.digest && out.counters == report.counters,
                || format!("unit {unit} output differs from unit 0"),
            );
        }
        if let Some(pin) = report.pinned {
            checks.check(out.digest == pin, || {
                format!("digest {:016x} != pinned {pin:016x}", out.digest)
            });
        }
        report.attempted += checks.attempted;
        report.failures.extend(
            checks
                .failures
                .into_iter()
                .map(|f| format!("unit {unit}: {f}")),
        );
        if traced_unit {
            report.traced_wall_s.push(out.wall);
            for (k, v) in out.timings {
                *timings.entry(k).or_default() += v;
            }
        } else if timed {
            report.wall_s.push(out.wall);
        }
        if timed {
            report.setup_s.push(setup.as_secs_f64());
        }
        longest = longest.max(unit_started.elapsed());
        unit += 1;
    }
    if report.wall_s.is_empty() || (traced && report.traced_wall_s.is_empty()) {
        return report;
    }

    if !traced {
        let values = [
            min(&report.wall_s),
            median(&report.setup_s),
            alloc::peak_bytes() as f64 / 1e6,
        ];
        report.metrics = metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect();
        return report;
    }

    // Per-layer values, per traced unit.
    let n = report.traced_wall_s.len() as f64;
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut attributed = 0.0;
    for call in Call::ALL {
        let s = tr.stats(call);
        let self_s = s.ns as f64 / 1e9 / n;
        if call.timed_phase() {
            attributed += self_s;
        }
        let p = call.name();
        v.insert(format!("{p}.self_s"), self_s);
        v.insert(format!("{p}.calls"), s.calls as f64 / n);
        v.insert(format!("{p}.p50_us"), s.quantile_us(0.50));
        v.insert(format!("{p}.p99_us"), s.quantile_us(0.99));
        v.insert(format!("{p}.allocs"), s.allocs as f64 / n);
    }
    for (k, c) in &report.counters {
        v.insert(k.to_string(), *c);
    }
    for (k, t) in &timings {
        v.insert(k.to_string(), t / n);
    }
    let counter = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let admitted = counter("orch.admitted");
    let step_self = counter("fleet.step.self_s");
    let reallocations = counter("net.reallocations");
    let full = counter("net.full_recomputes");
    let net_allocs: f64 = [
        Call::NetAddStream,
        Call::NetRemoveStream,
        Call::NetStartTransfer,
        Call::NetAdvance,
    ]
    .iter()
    .map(|&c| tr.stats(c).allocs as f64 / n)
    .sum();
    let traced_wall = report.traced_wall_s.iter().sum::<f64>() / n;
    let unattributed = traced_wall - attributed;
    report.attempted += 1;
    if unattributed > MAX_UNATTRIBUTED * traced_wall {
        report.failures.push(format!(
            "spans leave {unattributed:.6} s of {traced_wall:.6} s unattributed (> {:.0}%)",
            MAX_UNATTRIBUTED * 100.0
        ));
    }
    v.insert(
        "fleet.step.retained_mb".to_string(),
        tr.stats(Call::FleetStep).retained as f64 / 1e6 / n,
    );
    v.insert(
        "fleet.step.us_per_session".to_string(),
        if admitted > 0.0 {
            step_self / admitted * 1e6
        } else {
            0.0
        },
    );
    v.insert("net.allocs".to_string(), net_allocs);
    v.insert(
        "net.full_recompute_ratio".to_string(),
        if reallocations > 0.0 {
            full / reallocations
        } else {
            0.0
        },
    );
    v.insert(format!("{name}.unattributed_s"), unattributed);
    v.insert(
        "trace.overhead_pct".to_string(),
        (min(&report.traced_wall_s) / min(&report.wall_s) - 1.0) * 100.0,
    );
    report.metrics = metrics::per_layer()
        .into_iter()
        .map(|(k, unit)| {
            let value = v.get(&k).copied().unwrap_or(0.0);
            (k, value, unit)
        })
        .collect();
    report
}

/// FNV-1a of a file's bytes, read in fixed-size chunks so hashing leaves
/// the heap untouched.
fn file_fnv(path: &std::path::Path) -> Option<u64> {
    use std::io::Read;
    let mut f = std::fs::File::open(path).ok()?;
    let mut buf = [0u8; 1 << 14];
    let mut hash = workload::FNV_OFFSET;
    loop {
        let n = f.read(&mut buf).ok()?;
        if n == 0 {
            return Some(hash);
        }
        for &b in &buf[..n] {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The processor's brand string, from CPUID.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: CPUID exists on every x86_64 processor. Leaf 0x8000_0000
    // reports the highest extended leaf, and the brand-string leaves are
    // read only when it covers them.
    #[allow(unused_unsafe)]
    let regs = |leaf: u32| unsafe { __cpuid(leaf) };
    if regs(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004 {
        let r = regs(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// The commit checked out in the working directory, when it is the root
/// of a git work tree (a plain source checkout has none).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Host and build fingerprint, as a JSON object.
fn fingerprint() -> String {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| file_fnv(&p))
        .map_or_else(|| "unknown".to_string(), |h| format!("{h:016x}"));
    format!(
        "{{\"cpus\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \"exe_fnv64\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_commit()),
        json_str(&exe),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let report = match args.workload.as_str() {
        "fleet_day" => measure(&fleet_day::BENCH, "fleet_day", seed, seconds, traced),
        "fault_storm" => measure(&fault_storm::BENCH, "fault_storm", seed, seconds, traced),
        _ => measure(&net_churn::BENCH, "net_churn", seed, seconds, traced),
    };
    for f in &report.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if report.metrics.is_empty() {
        eprintln!("perfbench: no unit of {} completed", args.workload);
        return ExitCode::FAILURE;
    }
    let failed = report.failures.len() as u64;
    let list = |v: &[f64]| {
        v.iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"digest\": \"{:016x}\", \
         \"pinned\": {}, \"fail_ratio\": {}, \"setup_s\": [{}], \"wall_s\": [{}], \
         \"traced_wall_s\": [{}], \"fingerprint\": {}}}",
        json_str(&args.workload),
        u8::from(traced),
        report.digest,
        report
            .pinned
            .map_or_else(|| "null".to_string(), |p| format!("\"{p:016x}\"")),
        json_num(failed as f64 / report.attempted as f64),
        list(&report.setup_s),
        list(&report.wall_s),
        list(&report.traced_wall_s),
        fingerprint(),
    );
    println!(
        "{}",
        metrics::result_line(report.attempted, failed, &report.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_storm::FaultStorm;
    use fleet_day::FleetDay;
    use net_churn::NetChurn;

    const TOY_FLEET: FleetDay = FleetDay { sites: 3, hours: 2 };
    const TOY_STORM: FaultStorm = FaultStorm { pairs: 2 };
    const TOY_NET: NetChurn = NetChurn {
        flows: 40,
        warmup: 40,
        ops: 120,
    };

    /// Runs `f` on each toy workload with its benchmark name.
    fn each_toy(mut f: impl FnMut(&str, &dyn Fn(u64, bool) -> Report)) {
        f("fleet_day", &|seed, tr| {
            measure(&TOY_FLEET, "fleet_day", seed, 0, tr)
        });
        f("fault_storm", &|seed, tr| {
            measure(&TOY_STORM, "fault_storm", seed, 0, tr)
        });
        f("net_churn", &|seed, tr| {
            measure(&TOY_NET, "net_churn", seed, 0, tr)
        });
    }

    /// The string value of `"key": "…"` inside `obj`.
    fn field(obj: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\":");
        let rest = obj[obj.find(&pat)? + pat.len()..].trim_start();
        let rest = rest.strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_string())
    }

    /// `(name, unit)` of each entry of a `BENCHMARK.json` list (`unit` is
    /// empty for workloads).
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let body = &doc[doc.find(&format!("\"{section}\"")).expect("section")..];
        let body = &body[body.find('[').expect("list") + 1..body.find(']').expect("list end")];
        body.split('}')
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit").unwrap_or_default())))
            .collect()
    }

    fn owned(v: &[(String, f64, &str)]) -> Vec<(String, String)> {
        v.iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        let end_to_end: Vec<(String, String)> = metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> = metrics::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        let mut names: Vec<&str> = per_layer
            .iter()
            .chain(&end_to_end)
            .map(|(n, _)| n.as_str())
            .collect();
        for n in &names {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names repeat");
    }

    #[test]
    fn each_workload_reports_every_metric_with_its_unit() {
        each_toy(|name, run| {
            let plain = run(42, false);
            assert_eq!(plain.failures, Vec::<String>::new(), "{name}");
            assert!(plain.attempted > 0, "{name}");
            assert_eq!(owned(&plain.metrics), declared("end_to_end"), "{name}");
            assert!(plain.metrics.iter().all(|m| m.1 > 0.0), "{name}: {plain:?}");
            for (counter, _) in &plain.counters {
                assert!(metrics::COUNTERS.contains(counter), "{name}: {counter}");
            }
            let traced = run(42, true);
            assert_eq!(owned(&traced.metrics), declared("per_layer"), "{name}");
            assert!(!traced.traced_wall_s.is_empty() && !traced.wall_s.is_empty());
        });
    }

    #[test]
    fn digests_and_counters_repeat_and_follow_the_seed() {
        each_toy(|name, run| {
            let (a, b, other) = (run(7, false), run(7, false), run(8, false));
            assert_eq!(a.digest, b.digest, "{name}");
            assert_eq!(a.counters, b.counters, "{name}");
            assert!(!a.counters.is_empty(), "{name}");
            assert_ne!(
                a.digest, other.digest,
                "{name}: seed must change the digest"
            );
        });
    }

    #[test]
    fn pins_cover_only_the_benchmark_shapes_at_seed_42() {
        assert!(fleet_day::BENCH.pinned_digest(42).is_some());
        assert!(fault_storm::BENCH.pinned_digest(42).is_some());
        assert!(net_churn::BENCH.pinned_digest(42).is_some());
        assert_eq!(fleet_day::BENCH.pinned_digest(43), None);
        assert_eq!(TOY_FLEET.pinned_digest(42), None);
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload net_churn --seed 5 --seconds 3 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (5, 3, true));
        assert_eq!(parse("--workload fleet_day").expect("valid").seed, 42);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload net_churn --trace 2").is_err());
        assert!(parse("--workload net_churn --bogus 1").is_err());
        assert!(parse("--workload").is_err());
    }

    /// The committed fleet-day shape (256 sites) reproduces the digest of
    /// the repository's fleet artifact. Slow outside release builds:
    /// `cargo test --release -- --include-ignored`.
    #[test]
    #[ignore]
    fn committed_fleet_day_shape_reproduces_its_digest() {
        let mut tr = Tracer::default();
        let unit = fleet_day::COMMITTED.run(fleet_day::COMMITTED.setup(42, &mut tr), &mut tr);
        assert_eq!(unit.checks.failures, Vec::<String>::new());
        assert_eq!(Some(unit.digest), fleet_day::COMMITTED.pinned_digest(42));
    }
}
