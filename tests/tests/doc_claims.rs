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
    /// Largest allowed |quote − field|.
    tolerance: f64,
}

const CLAIMS: &[Claim] = &[
    Claim {
        doc: "README.md",
        quote: "reports ~5.1 ns per recorded",
        artifact: "BENCH_trace.json",
        section: "recording",
        key: "ns_per_event_enabled",
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "and ~2.5% wall-clock overhead",
        artifact: "BENCH_trace.json",
        section: "engine_overhead",
        key: "overhead_pct",
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "pins ~5.1 ns",
        artifact: "BENCH_trace.json",
        section: "recording",
        key: "ns_per_event_enabled",
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "(measured ~2.5%)",
        artifact: "BENCH_trace.json",
        section: "engine_overhead",
        key: "overhead_pct",
        tolerance: 0.05,
    },
    Claim {
        doc: "README.md",
        quote: "(baseline ≈7.7×, CI bar ≥5×)",
        artifact: "BENCH_serve.json",
        section: "speedup",
        key: "speedup",
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "≈7.7× faster than simulation",
        artifact: "BENCH_serve.json",
        section: "speedup",
        key: "speedup",
        tolerance: 0.05,
    },
    Claim {
        doc: "EXPERIMENTS.md",
        quote: "modeled 8-worker speedup ≈7.2×",
        artifact: "BENCH_fleet.json",
        section: "speedup",
        key: "modeled_8w",
        tolerance: 0.05,
    },
    Claim {
        doc: "DESIGN.md",
        quote: "is ≈7.2× (the 256-site step phase",
        artifact: "BENCH_fleet.json",
        section: "speedup",
        key: "modeled_8w",
        tolerance: 0.05,
    },
];

fn read(path: &str) -> String {
    let full = format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{full}: {e}"))
}

/// The first decimal number in `text` ("8-worker … ≈7.2×" reads 8).
fn first_number(text: &str) -> Option<f64> {
    let start = text.find(|c: char| c.is_ascii_digit())?;
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].trim_end_matches('.').parse().ok()
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
        if (quoted - value).abs() > c.tolerance {
            wrong.push(format!(
                "{} quotes {quoted} in {:?}, but {} records {}.{} = {value}",
                c.doc, c.quote, c.artifact, c.section, c.key
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
}
