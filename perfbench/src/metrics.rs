//! The metric catalogue (names and units, as `BENCHMARK.json` lists them)
//! and the JSON the benchmark prints.

use crate::trace::Call;

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MB")];

/// Deterministic work counters read from the program: identical across
/// units of a run, and unchanged by a speed-only change.
pub const COUNTERS: [&str; 18] = [
    "net.reallocations",
    "net.waterfill_rounds",
    "net.waterfill_touches",
    "net.cert_touches",
    "net.full_recomputes",
    "orch.admitted",
    "orch.completed",
    "orch.wakeups",
    "orch.rejected",
    "fleet.routed",
    "fleet.migrated",
    "ft.faults_injected",
    "ft.migrations",
    "ft.retries",
    "ft.workloads_shed",
    "ft.workloads_lost",
    "span.recorded",
    "span.dropped",
];

/// Per-layer metrics derived from spans and counters beyond each call's
/// own statistics.
const DERIVED: [(&str, &str); 9] = [
    ("fleet.step.retained_mb", "MB"),
    ("fleet.step.us_per_session", "us"),
    ("fleet.step.critical_path_s", "s"),
    ("net.allocs", "count"),
    ("net.full_recompute_ratio", "ratio"),
    ("fleet_day.unattributed_s", "s"),
    ("fault_storm.unattributed_s", "s"),
    ("net_churn.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Unit of a per-call statistic, by its metric-name suffix.
fn suffix_unit(suffix: &str) -> &'static str {
    match suffix {
        "self_s" => "s",
        "p50_us" | "p99_us" => "us",
        _ => "count",
    }
}

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for call in Call::ALL {
        for suffix in call.reported() {
            out.push((format!("{}.{suffix}", call.name()), suffix_unit(suffix)));
        }
    }
    out.extend(COUNTERS.iter().map(|c| (c.to_string(), "count")));
    out.extend(DERIVED.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `f64` carries (non-finite values,
/// which JSON cannot hold, print as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value and unit.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
