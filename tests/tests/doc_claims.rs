//! Numbers the docs quote from committed `BENCH_*.json` artifacts agree
//! with those artifacts.
//!
//! Each row names a doc, a piece of text it must contain verbatim, and the
//! artifact field (file, JSON section, key) the number in that text is
//! quoted from, with how far the quote may round. A re-bless that moves a
//! quoted number then fails here until the doc moves with it, and a doc
//! edit that drops or rewords a quote fails until its row follows.

use socc_bench::harness::extract_num;

/// One quoted number.
struct Claim {
    /// Doc path, relative to the repository root.
    doc: &'static str,
    /// Text the doc contains verbatim; its first number is the quote.
    quote: &'static str,
    /// Artifact path, relative to the repository root.
    artifact: &'static str,
    /// JSON object holding the field (the key itself for a top-level
    /// number).
    section: &'static str,
    /// The field.
    key: &'static str,
    /// Unit factor from the field to the quote (100 for a fraction the
    /// doc quotes as a percentage).
    scale: f64,
    /// Largest allowed |quote − scale × field|.
    tolerance: f64,
}

const CLAIMS: &[Claim] = &[
    Claim {
        doc: "README.md",
        quote: "reports ~5.1 ns per recorded",
        artifact: "BENCH_trace.json",
        section: "recording",
        key: "ns_per_event_enabled",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "and ~2.5% wall-clock overhead",
        artifact: "BENCH_trace.json",
        section: "engine_overhead",
        key: "overhead_pct",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "pins ~5.1 ns",
        artifact: "BENCH_trace.json",
        section: "recording",
        key: "ns_per_event_enabled",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "(measured ~2.5%)",
        artifact: "BENCH_trace.json",
        section: "engine_overhead",
        key: "overhead_pct",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "(baseline ≈7.7×, CI bar ≥5×)",
        artifact: "BENCH_serve.json",
        section: "speedup",
        key: "speedup",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "≈7.7× faster than simulation",
        artifact: "BENCH_serve.json",
        section: "speedup",
        key: "speedup",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "modeled 8-worker speedup ≈7.2×",
        artifact: "BENCH_fleet.json",
        section: "speedup",
        key: "modeled_8w",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "is ≈7.2× (the 256-site step phase",
        artifact: "BENCH_fleet.json",
        section: "speedup",
        key: "modeled_8w",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "(≈7.4× when the baseline was recorded",
        artifact: "BENCH_video.json",
        section: "speedup",
        key: "speedup",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "measures ≈7.4× wall-clock",
        artifact: "BENCH_video.json",
        section: "speedup",
        key: "speedup",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "at ≈7.4× speedup",
        artifact: "BENCH_video.json",
        section: "speedup",
        key: "speedup",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "enclosure: 3,800 sessions",
        artifact: "BENCH_video.json",
        section: "schedule",
        key: "sessions",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "README.md",
        quote: "1,388 concurrent at the diurnal",
        artifact: "BENCH_video.json",
        section: "farm",
        key: "peak_concurrent",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "README.md",
        quote: "striking ≈1,300 live streams",
        artifact: "BENCH_video.json",
        section: "farm",
        key: "concurrent_at_fault",
        scale: 1.0,
        tolerance: 1.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "3,800 diurnal sessions",
        artifact: "BENCH_video.json",
        section: "schedule",
        key: "sessions",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "(peak 1,388 concurrent",
        artifact: "BENCH_video.json",
        section: "farm",
        key: "peak_concurrent",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "striking 1,299 live sessions",
        artifact: "BENCH_video.json",
        section: "farm",
        key: "concurrent_at_fault",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "15 survivors migrate",
        artifact: "BENCH_video.json",
        section: "migration",
        key: "migrations",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "MTTR 18.9 ms mean",
        artifact: "BENCH_video.json",
        section: "migration",
        key: "mttr_mean_ms",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "/ 32.9 ms max",
        artifact: "BENCH_video.json",
        section: "migration",
        key: "mttr_max_ms",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "3,316 J/session-hour",
        artifact: "BENCH_video.json",
        section: "energy",
        key: "per_session_hour_j",
        scale: 1.0,
        tolerance: 0.5,
    },
    Claim {
        doc: "README.md",
        quote: "(256 campaign pairs, zero violations)",
        artifact: "BENCH_chaos.json",
        section: "campaigns",
        key: "campaigns",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "README.md",
        quote: "cost ≈0.5 pp of",
        artifact: "BENCH_chaos.json",
        section: "availability",
        key: "correlation_gap",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "256 pairs, zero invariant violations",
        artifact: "BENCH_chaos.json",
        section: "campaigns",
        key: "campaigns",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "correlated availability 0.9899",
        artifact: "BENCH_chaos.json",
        section: "availability",
        key: "correlated_mean",
        scale: 1.0,
        tolerance: 0.00005,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "< independent 0.9952",
        artifact: "BENCH_chaos.json",
        section: "availability",
        key: "independent_mean",
        scale: 1.0,
        tolerance: 0.00005,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "(gap ≈0.5 pp",
        artifact: "BENCH_chaos.json",
        section: "availability",
        key: "correlation_gap",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "min-campaign 0.957",
        artifact: "BENCH_chaos.json",
        section: "availability",
        key: "correlated_min",
        scale: 1.0,
        tolerance: 0.0005,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "vs 0.985)",
        artifact: "BENCH_chaos.json",
        section: "availability",
        key: "independent_min",
        scale: 1.0,
        tolerance: 0.0005,
    },
    Claim {
        doc: "README.md",
        quote: "(committed baseline, 64 pairs)",
        artifact: "BENCH_fleetchaos.json",
        section: "config",
        key: "campaigns",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "README.md",
        quote: "availability 0.9932 strictly below",
        artifact: "BENCH_fleetchaos.json",
        section: "availability",
        key: "correlated_mean",
        scale: 1.0,
        tolerance: 0.0005,
    },
    Claim {
        doc: "README.md",
        quote: "independent twin's 0.9969",
        artifact: "BENCH_fleetchaos.json",
        section: "availability",
        key: "independent_mean",
        scale: 1.0,
        tolerance: 0.0005,
    },
    Claim {
        doc: "README.md",
        quote: "98.2% of ~66k displaced",
        artifact: "BENCH_fleetchaos.json",
        section: "migration",
        key: "live_migration_rate",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "of ~66k displaced sessions",
        artifact: "BENCH_fleetchaos.json",
        section: "migration",
        key: "stranded",
        scale: 0.001,
        tolerance: 1.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "64 campaign pairs on a",
        artifact: "BENCH_fleetchaos.json",
        section: "config",
        key: "campaigns",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "availability 0.9932 < independent",
        artifact: "BENCH_fleetchaos.json",
        section: "availability",
        key: "correlated_mean",
        scale: 1.0,
        tolerance: 0.0005,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "< independent 0.9969",
        artifact: "BENCH_fleetchaos.json",
        section: "availability",
        key: "independent_mean",
        scale: 1.0,
        tolerance: 0.0005,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "and 98.2% of ~66k",
        artifact: "BENCH_fleetchaos.json",
        section: "migration",
        key: "live_migration_rate",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "within ±12% (observed",
        artifact: "BENCH_netval.json",
        section: "agreement",
        key: "tolerance",
        scale: 100.0,
        tolerance: 0.001,
    },
    Claim {
        doc: "README.md",
        quote: "worst case ≈5% over",
        artifact: "BENCH_netval.json",
        section: "agreement",
        key: "max_rel_err",
        scale: 100.0,
        tolerance: 0.5,
    },
    Claim {
        doc: "README.md",
        quote: "(935.8 Mbps on an idle",
        artifact: "BENCH_netval.json",
        section: "calibration",
        key: "goodput_mbps",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "within 3.6% of the paper's",
        artifact: "BENCH_netval.json",
        section: "calibration",
        key: "rel_err",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "calibrated ~935.8 Mbps inter-SoC",
        artifact: "BENCH_netval.json",
        section: "calibration",
        key: "goodput_mbps",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "on 200 randomized",
        artifact: "BENCH_netval.json",
        section: "cases",
        key: "cases",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "worst goodput error 4.9%",
        artifact: "BENCH_netval.json",
        section: "agreement",
        key: "max_rel_err",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "(tolerance 12%)",
        artifact: "BENCH_netval.json",
        section: "agreement",
        key: "tolerance",
        scale: 100.0,
        tolerance: 0.001,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "= 935.8 Mbps, 3.6% above",
        artifact: "BENCH_netval.json",
        section: "calibration",
        key: "goodput_mbps",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "3.6% above the 903 Mbps anchor",
        artifact: "BENCH_netval.json",
        section: "calibration",
        key: "rel_err",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "into ≤1.01× completion",
        artifact: "BENCH_netval.json",
        section: "incast",
        key: "inflation",
        scale: 1.0,
        tolerance: 0.005,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "the calibrated 935.8 Mbps fabric",
        artifact: "BENCH_netval.json",
        section: "calibration",
        key: "goodput_mbps",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "records 256 campaign pairs: zero",
        artifact: "BENCH_chaos.json",
        section: "campaigns",
        key: "campaigns",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "records 64 campaign pairs: zero",
        artifact: "BENCH_fleetchaos.json",
        section: "config",
        key: "campaigns",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "(observed 98.2%)",
        artifact: "BENCH_fleetchaos.json",
        section: "migration",
        key: "live_migration_rate",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "98.2% of ~66k displaced sessions live-migrated.",
        artifact: "BENCH_fleetchaos.json",
        section: "migration",
        key: "live_migration_rate",
        scale: 100.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "across 200 cases",
        artifact: "BENCH_netval.json",
        section: "cases",
        key: "cases",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "cases is ≈5%, so the band",
        artifact: "BENCH_netval.json",
        section: "agreement",
        key: "max_rel_err",
        scale: 100.0,
        tolerance: 0.5,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "(0.9358, i.e. 935.8 Mbps",
        artifact: "BENCH_netval.json",
        section: "calibration",
        key: "factor",
        scale: 1.0,
        tolerance: 0.00005,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "packet-calibrated ~935.8 Mbps",
        artifact: "BENCH_netval.json",
        section: "calibration",
        key: "goodput_mbps",
        scale: 1.0,
        tolerance: 0.05,
    },
    // BENCH_net.json: the incremental ÷ full tally ratio, and the work
    // counters README's events/sec table quotes (deterministic, so exact).
    Claim {
        doc: "README.md",
        quote: "tally is ~11× smaller",
        artifact: "BENCH_net.json",
        section: "waterfill_touch_ratio",
        key: "waterfill_touch_ratio",
        scale: 1.0,
        tolerance: 0.5,
    },
    Claim {
        doc: "README.md",
        quote: "| 11.1× smaller |",
        artifact: "BENCH_net.json",
        section: "waterfill_touch_ratio",
        key: "waterfill_touch_ratio",
        scale: 1.0,
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "| 241,376 |",
        artifact: "BENCH_net.json",
        section: "incremental",
        key: "waterfill_rounds",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "README.md",
        quote: "| 245,803,903 |",
        artifact: "BENCH_net.json",
        section: "incremental",
        key: "waterfill_touches",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "README.md",
        quote: "| 1,014,658 |",
        artifact: "BENCH_net.json",
        section: "full",
        key: "waterfill_rounds",
        scale: 1.0,
        tolerance: 0.0,
    },
    Claim {
        doc: "README.md",
        quote: "| 2,737,326,599 |",
        artifact: "BENCH_net.json",
        section: "full",
        key: "waterfill_touches",
        scale: 1.0,
        tolerance: 0.0,
    },
];

fn read(path: &str) -> String {
    let full = format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

/// The first decimal number in `text`, read through thousands separators
/// ("8-worker … ≈7.2×" reads 8, "3,800 sessions" reads 3800).
fn first_number(text: &str) -> Option<f64> {
    let start = text.find(|c: char| c.is_ascii_digit())?;
    let rest = &text.as_bytes()[start..];
    let mut number = String::new();
    for (i, &c) in rest.iter().enumerate() {
        // A comma groups digits only when exactly three digits follow.
        let group = |n: usize| rest.get(i + n).is_some_and(u8::is_ascii_digit);
        if c.is_ascii_digit() || c == b'.' {
            number.push(char::from(c));
        } else if !(c == b',' && group(1) && group(2) && group(3) && !group(4)) {
            break;
        }
    }
    number.trim_end_matches('.').parse().ok()
}

/// The number a quote states: the first one after any hyphenated label
/// such as "8-worker", which names the field rather than quoting it.
fn stated(quote: &str) -> f64 {
    let value = quote
        .split_whitespace()
        .filter(|word| !word.contains('-'))
        .find_map(first_number);
    value.unwrap_or_else(|| panic!("no number in {quote:?}"))
}

#[test]
fn quoted_artifact_numbers_match_the_artifacts() {
    let mut wrong = Vec::new();
    for c in CLAIMS {
        let doc = read(c.doc);
        if !doc.contains(c.quote) {
            wrong.push(format!("{} no longer says {:?}", c.doc, c.quote));
            continue;
        }
        let artifact = read(c.artifact);
        let Some(value) = extract_num(&artifact, c.section, c.key) else {
            wrong.push(format!("{} has no {}.{}", c.artifact, c.section, c.key));
            continue;
        };
        let quoted = stated(c.quote);
        if (quoted - c.scale * value).abs() > c.tolerance {
            wrong.push(format!(
                "{} quotes {quoted} in {:?}, but {} records {}.{} = {value} (×{})",
                c.doc, c.quote, c.artifact, c.section, c.key, c.scale
            ));
        }
    }
    assert!(wrong.is_empty(), "stale doc quotes:\n{}", wrong.join("\n"));
}

#[test]
fn quotes_read_the_number_they_state() {
    assert_eq!(stated("reports ~5.1 ns per recorded"), 5.1);
    assert_eq!(stated("and ~2.5% wall-clock overhead"), 2.5);
    assert_eq!(stated("modeled 8-worker speedup ≈7.2×"), 7.2);
    assert_eq!(stated("is ≈7.2× (the 256-site step phase"), 7.2);
    assert_eq!(stated("(baseline ≈7.7×, CI bar ≥5×)"), 7.7);
    assert_eq!(stated("enclosure: 3,800 sessions"), 3800.0);
    assert_eq!(stated("3,316 J/session-hour"), 3316.0);
    assert_eq!(stated("(256 campaign pairs, zero violations)"), 256.0);
    assert_eq!(stated("min-campaign 0.957"), 0.957);
    assert_eq!(stated("of ~66k displaced sessions"), 66.0);
    assert_eq!(stated("| 2,737,326,599 |"), 2_737_326_599.0);
}
