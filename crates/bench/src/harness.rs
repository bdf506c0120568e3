//! Shared bench-harness plumbing: seed mixing and JSON emission.
//!
//! [`mix_seed`] derives each case's seed and `JsonBuilder` renders the
//! artifact format every committed `BENCH_*.json` uses. The counting
//! `GlobalAlloc` stays in the `bench` binary — installing a global
//! allocator requires `unsafe`, which this crate forbids — and reaches
//! the library as a plain `&dyn Fn() -> u64`.

use std::fmt::Write as _;

/// Derives case `k`'s private seed from a campaign master seed: a
/// golden-ratio multiply and rotate so neighbouring cases land in
/// unrelated streams, XORed into the master so every case stays
/// reproducible in isolation (`--seed S --step K` re-derives case `K`
/// without replaying the campaign).
///
/// This is the exact mixing the committed chaos/netval artifacts and
/// their repro lines were generated with; changing it would orphan them.
pub fn mix_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// Renders a float as fixed-point JSON with `places` decimals, or `null`
/// when not finite (JSON has no `inf`/`nan`). Each artifact keeps the
/// precision its committed baseline was written with: three places
/// through [`JsonBuilder::f64`], four in chaos and serve, six in netval.
pub(crate) fn json_fixed(v: f64, places: usize) -> String {
    if v.is_finite() {
        format!("{v:.places$}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding as a JSON string value (violation
/// details and repro lines carry quotes and backslashes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Builds the harness's JSON artifact format: two-space indentation per
/// nesting level, one `"key": value` per line, no trailing newline
/// before the root's closing brace.
///
/// The workspace deliberately carries no JSON dependency; this replaces
/// the per-mode `format!(concat!(...))` blocks and reproduces their
/// byte format exactly, so porting a mode onto it does not invalidate
/// its committed `BENCH_*.json` baseline.
#[derive(Debug)]
pub(crate) struct JsonBuilder {
    out: String,
    depth: usize,
    first: bool,
}

impl JsonBuilder {
    /// Starts the root object.
    pub(crate) fn new() -> Self {
        Self {
            out: String::from("{"),
            depth: 1,
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
        let _ = write!(self.out, "\"{key}\": ");
    }

    /// Emits a pre-rendered JSON value.
    pub(crate) fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(value);
        self
    }

    /// Emits a string value (the artifact vocabulary needs no escaping).
    pub(crate) fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "\"{value}\"");
        self
    }

    /// Emits an unsigned integer value.
    pub(crate) fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Emits a bool value.
    pub(crate) fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Emits a float at three decimals via [`json_fixed`].
    pub(crate) fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        let rendered = json_fixed(value, 3);
        self.key(key);
        self.out.push_str(&rendered);
        self
    }

    /// Emits a nested object built by `fill`.
    pub(crate) fn object(&mut self, key: &str, fill: impl FnOnce(&mut Self)) -> &mut Self {
        self.key(key);
        self.out.push('{');
        self.depth += 1;
        self.first = true;
        fill(self);
        self.depth -= 1;
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
        self.out.push('}');
        self.first = false;
        self
    }

    /// Emits an array of pre-rendered items, one per line at one deeper
    /// indent — the hand-rolled `violations`/`failures` array format.
    /// Items carry their own quoting and escaping; an empty slice
    /// renders as an open bracket, a newline, and a closing bracket at
    /// the current indent.
    pub(crate) fn list(&mut self, key: &str, items: &[String]) -> &mut Self {
        self.key(key);
        self.out.push_str("[\n");
        for (i, item) in items.iter().enumerate() {
            for _ in 0..=self.depth {
                self.out.push_str("  ");
            }
            self.out.push_str(item);
            if i + 1 != items.len() {
                self.out.push(',');
            }
            self.out.push('\n');
        }
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
        self.out.push(']');
        self
    }

    /// Closes the root object (with the trailing newline every
    /// `BENCH_*.json` ends in) and returns the document.
    pub(crate) fn finish(mut self) -> String {
        self.out.push_str("\n}\n");
        self.out
    }
}

impl Default for JsonBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Pulls `"key": <number>` out of the JSON `section` object of `doc`.
/// Good enough for the harness's own artifact format; the workspace
/// carries no JSON parser by design.
pub fn extract_num(doc: &str, section: &str, key: &str) -> Option<f64> {
    let start = doc.find(&format!("\"{section}\""))?;
    let tail = &doc[start..];
    let kpos = tail.find(&format!("\"{key}\""))?;
    let after = &tail[kpos..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls `"key": "<string>"` out of the JSON `section` object of `doc`
/// (the artifact vocabulary carries no escapes inside string values).
pub(crate) fn extract_str<'a>(doc: &'a str, section: &str, key: &str) -> Option<&'a str> {
    let start = doc.find(&format!("\"{section}\""))?;
    let tail = &doc[start..];
    let kpos = tail.find(&format!("\"{key}\""))?;
    let after = &tail[kpos..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start().strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Pulls `"key": true|false` out of the JSON `section` object of `doc`.
pub(crate) fn extract_bool(doc: &str, section: &str, key: &str) -> Option<bool> {
    let start = doc.find(&format!("\"{section}\""))?;
    let tail = &doc[start..];
    let kpos = tail.find(&format!("\"{key}\""))?;
    let after = &tail[kpos..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Pulls the string items of the `"key": [ ... ]` array emitted by
/// [`JsonBuilder::list`] — one quoted item per line, as in the
/// `violations`/`failures` arrays of the committed artifacts.
pub(crate) fn extract_list(doc: &str, key: &str) -> Vec<String> {
    let mut items = Vec::new();
    let Some(start) = doc.find(&format!("\"{key}\": [")) else {
        return items;
    };
    let tail = &doc[start..];
    let Some(open) = tail.find('[') else {
        return items;
    };
    let Some(close) = tail.find(']') else {
        return items;
    };
    for line in tail[open + 1..close].lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(inner) = line.strip_prefix('"').and_then(|l| l.strip_suffix('"')) {
            items.push(inner.to_string());
        }
    }
    items
}

/// 64-bit FNV-1a over a byte stream, continuing from `state` (start at
/// the offset basis `0xCBF2_9CE4_8422_2325`): the fold the `repro all`
/// and `whatif all` byte pins use.
#[cfg(test)]
pub(crate) fn fnv1a64(bytes: &[u8], mut state: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(PRIME);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_matches_the_committed_artifacts() {
        // Pinned to the mixing the chaos/netval artifacts were generated
        // with; changing it silently would orphan their repro lines.
        assert_eq!(mix_seed(42, 0), 42);
        assert_eq!(
            mix_seed(42, 17),
            42 ^ (17u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        );
        // Distinct cases get distinct seeds even for a zero master seed.
        assert_ne!(mix_seed(0, 1), mix_seed(0, 2));
    }

    #[test]
    fn json_escape_renders_quotes_controls_and_newlines() {
        assert_eq!(
            json_escape("a \"b\" c\\d\n\r\te\u{1}f"),
            "a \\\"b\\\" c\\\\d\\n\\r\\te\\u0001f"
        );
        assert_eq!(json_escape("plain ascii, µs"), "plain ascii, µs");
    }

    #[test]
    fn json_fixed_pads_rounds_and_nulls() {
        assert_eq!(json_fixed(1.5, 3), "1.500");
        assert_eq!(json_fixed(0.123_456_78, 4), "0.1235");
        assert_eq!(json_fixed(2.0, 6), "2.000000");
        assert_eq!(json_fixed(f64::NAN, 4), "null");
        assert_eq!(json_fixed(f64::NEG_INFINITY, 6), "null");
    }

    #[test]
    fn builder_reproduces_the_handrolled_format() {
        let mut j = JsonBuilder::new();
        j.str("benchmark", "demo");
        j.object("inner", |j| {
            j.str("mode", "fast");
            j.int("count", 7);
            j.f64("ratio", 1.5);
        });
        j.f64("headline", f64::INFINITY);
        let doc = j.finish();
        let expected = concat!(
            "{\n",
            "  \"benchmark\": \"demo\",\n",
            "  \"inner\": {\n",
            "    \"mode\": \"fast\",\n",
            "    \"count\": 7,\n",
            "    \"ratio\": 1.500\n",
            "  },\n",
            "  \"headline\": null\n",
            "}\n"
        );
        assert_eq!(doc, expected);
    }

    #[test]
    fn list_reproduces_the_handrolled_array_format() {
        // Non-empty: items at one deeper indent, comma on all but the
        // last, closing bracket back at the key's indent.
        let mut j = JsonBuilder::new();
        j.int("count", 2);
        j.list(
            "failures",
            &[
                "\"case 0: bad\"".to_string(),
                "\"case 1: worse\"".to_string(),
            ],
        );
        let doc = j.finish();
        let expected = concat!(
            "{\n",
            "  \"count\": 2,\n",
            "  \"failures\": [\n",
            "    \"case 0: bad\",\n",
            "    \"case 1: worse\"\n",
            "  ]\n",
            "}\n"
        );
        assert_eq!(doc, expected);

        // Empty: open bracket, newline, closing bracket — the clean-sweep
        // shape every committed chaos/netval baseline carries.
        let mut j = JsonBuilder::new();
        j.int("count", 0);
        j.list("failures", &[]);
        let doc = j.finish();
        let expected = concat!(
            "{\n",
            "  \"count\": 0,\n",
            "  \"failures\": [\n",
            "  ]\n",
            "}\n"
        );
        assert_eq!(doc, expected);
    }

    #[test]
    fn extract_num_reads_builder_output() {
        let mut j = JsonBuilder::new();
        j.object("stats", |j| {
            j.f64("speedup", 4.25);
            j.int("windows", 721);
        });
        let doc = j.finish();
        assert_eq!(extract_num(&doc, "stats", "speedup"), Some(4.25));
        assert_eq!(extract_num(&doc, "stats", "windows"), Some(721.0));
        assert_eq!(extract_num(&doc, "stats", "missing"), None);
    }

    #[test]
    fn extract_str_bool_and_list_read_builder_output() {
        let mut j = JsonBuilder::new();
        j.object("determinism", |j| {
            j.str("digest", "00c0ffee00c0ffee");
            j.bool("digests_match", true);
        });
        j.int("count", 2);
        j.list(
            "violations",
            &["\"w 3: drop\"".to_string(), "\"w 9: stall\"".to_string()],
        );
        let doc = j.finish();
        assert_eq!(
            extract_str(&doc, "determinism", "digest"),
            Some("00c0ffee00c0ffee")
        );
        assert_eq!(extract_str(&doc, "determinism", "missing"), None);
        assert_eq!(
            extract_bool(&doc, "determinism", "digests_match"),
            Some(true)
        );
        assert_eq!(extract_bool(&doc, "determinism", "digest"), None);
        assert_eq!(
            extract_list(&doc, "violations"),
            vec!["w 3: drop".to_string(), "w 9: stall".to_string()]
        );
        assert!(extract_list(&doc, "failures").is_empty());

        let mut j = JsonBuilder::new();
        j.list("violations", &[]);
        assert!(extract_list(&j.finish(), "violations").is_empty());
    }
}
