//! Unified cached experiment runner (ROADMAP item 5).
//!
//! Every bench mode used to be its own CLI flag with bespoke JSON
//! emission, bespoke `--check` logic, and a hand-wired CI step. This
//! module replaces that plumbing with one registry: an experiment is a
//! *name*, a *config grid* (serializable [`ExpConfig`] rows whose seeds
//! derive from the master seed via [`crate::harness::mix_seed`]), an
//! *execute* function returning the mode's artifact document, and its
//! *gates* (absolute plus baseline-relative), all declared next to the
//! code they measure — `bench --run <exp> --check` is the whole CI
//! story.
//!
//! Results land as JSONL rows under a shared envelope schema
//! (`schema`, `experiment`, `config_hash`, `build`, `seed`, `wall_ms`,
//! `config`, `artifact`), cached on disk keyed by a stable FNV-1a hash of
//! the config's sorted `name=value` pairs and by the FNV-1a of the
//! executable that produced them ([`exe_fnv64`]). Re-running a sweep
//! executes only configurations whose hash is missing from the cache
//! for the running build, so edited code never re-gates old rows; an
//! interrupted sweep resumes from the rows already appended instead of
//! restarting — which is what makes thousand-candidate searches (the TCO
//! planner, >1000-site fleet grids) affordable as incremental campaigns.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Envelope schema version; bump on any row-shape change. Rows carrying
/// a different version are ignored by [`Cache::load`] (and thus
/// re-executed), so a bump invalidates stale caches instead of
/// misreading them.
pub(crate) const SCHEMA_VERSION: u64 = 2;

/// Default on-disk cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".bench-cache";

/// 64-bit FNV-1a over a byte stream — the same cheap, stable hash the
/// fleet digests use; no dependency, identical on every platform.
pub(crate) fn fnv1a64(bytes: &[u8], mut state: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(PRIME);
    }
    state
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a of the running executable's bytes, read in fixed-size chunks:
/// the build fingerprint every cached row records (perfbench prints the
/// same hash as `exe_fnv64`). `None` when the executable cannot be read.
pub fn exe_fnv64() -> Option<u64> {
    use std::io::Read as _;
    let mut file = fs::File::open(std::env::current_exe().ok()?).ok()?;
    let mut buf = [0u8; 1 << 14];
    let mut hash = FNV_OFFSET;
    loop {
        match file.read(&mut buf).ok()? {
            0 => return Some(hash),
            n => hash = fnv1a64(&buf[..n], hash),
        }
    }
}

/// One typed config field value. The tag participates in the config
/// hash, so `U64(1)` and `Str("1")` never collide.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CfgValue {
    /// Unsigned integer field.
    U64(u64),
    /// Float field (canonical shortest-round-trip rendering).
    F64(f64),
    /// Boolean field.
    Bool(bool),
    /// String field (artifact vocabulary: no quotes or control chars).
    Str(String),
}

impl CfgValue {
    /// Canonical rendering used for both hashing and the envelope's
    /// `config` object. Floats use Rust's shortest round-trip `Display`,
    /// which is deterministic for a given bit pattern.
    fn render(&self) -> String {
        match self {
            CfgValue::U64(v) => format!("{v}"),
            CfgValue::F64(v) => format!("{v}"),
            CfgValue::Bool(v) => format!("{v}"),
            CfgValue::Str(v) => format!("\"{v}\""),
        }
    }

    fn type_tag(&self) -> &'static str {
        match self {
            CfgValue::U64(_) => "u64",
            CfgValue::F64(_) => "f64",
            CfgValue::Bool(_) => "bool",
            CfgValue::Str(_) => "str",
        }
    }
}

/// A serializable experiment configuration: ordered `(name, value)`
/// fields. Declaration order drives the envelope's `config` object;
/// the hash sorts by field name first, so two configs with the same
/// fields in different declaration order hash identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpConfig {
    fields: Vec<(&'static str, CfgValue)>,
}

impl ExpConfig {
    /// Empty config.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, name: &'static str, value: CfgValue) -> Self {
        debug_assert!(
            self.fields.iter().all(|(n, _)| *n != name),
            "duplicate config field {name}"
        );
        self.fields.push((name, value));
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(self, name: &'static str, v: u64) -> Self {
        self.push(name, CfgValue::U64(v))
    }

    /// Adds a float field.
    pub fn f64(self, name: &'static str, v: f64) -> Self {
        self.push(name, CfgValue::F64(v))
    }

    /// Adds a boolean field.
    pub fn bool(self, name: &'static str, v: bool) -> Self {
        self.push(name, CfgValue::Bool(v))
    }

    /// Adds a string field.
    pub fn str(self, name: &'static str, v: &str) -> Self {
        self.push(name, CfgValue::Str(v.to_string()))
    }

    fn lookup(&self, name: &str) -> &CfgValue {
        self.fields
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("config field {name} missing"))
    }

    /// Reads a `u64` field; panics on a missing or mistyped name (the
    /// experiment owns both the grid builder and the execute fn, so a
    /// mismatch is a programming error, not an input error).
    pub fn get_u64(&self, name: &str) -> u64 {
        match self.lookup(name) {
            CfgValue::U64(v) => *v,
            other => panic!("config field {name} is {other:?}, not u64"),
        }
    }

    /// Reads an `f64` field (panics like [`Self::get_u64`]).
    pub(crate) fn get_f64(&self, name: &str) -> f64 {
        match self.lookup(name) {
            CfgValue::F64(v) => *v,
            other => panic!("config field {name} is {other:?}, not f64"),
        }
    }

    /// Reads a string field (panics like [`Self::get_u64`]).
    pub(crate) fn get_str(&self, name: &str) -> &str {
        match self.lookup(name) {
            CfgValue::Str(v) => v,
            other => panic!("config field {name} is {other:?}, not str"),
        }
    }

    /// The config's seed field — every experiment grid carries one,
    /// derived from the master seed by [`crate::harness::mix_seed`].
    pub fn seed(&self) -> u64 {
        self.get_u64("seed")
    }

    /// Field names and type tags in declaration order (the envelope
    /// golden test pins these so schema drift fails loudly).
    pub(crate) fn field_schema(&self) -> String {
        let mut out = String::new();
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(name);
            out.push(':');
            out.push_str(value.type_tag());
        }
        out
    }

    /// Stable FNV-1a hash of the config: fields are sorted by name, then
    /// each `name=tag:rendered;` run through the hash sequentially —
    /// insensitive to declaration order, sensitive to any single field's
    /// name, type, or value.
    pub fn hash(&self) -> u64 {
        let mut sorted: Vec<&(&'static str, CfgValue)> = self.fields.iter().collect();
        sorted.sort_by_key(|(name, _)| *name);
        let mut h = FNV_OFFSET;
        for (name, value) in sorted {
            h = fnv1a64(name.as_bytes(), h);
            h = fnv1a64(b"=", h);
            h = fnv1a64(value.type_tag().as_bytes(), h);
            h = fnv1a64(b":", h);
            h = fnv1a64(value.render().as_bytes(), h);
            h = fnv1a64(b";", h);
        }
        h
    }

    /// The hash as the 16-hex-digit cache key.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// Compact JSON object in declaration order (the envelope's
    /// `config` value).
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.render());
        }
        out.push('}');
        out
    }
}

/// Escapes a string for embedding as a JSON string value (the artifact
/// documents carry newlines and quotes).
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

/// Inverse of [`json_escape`]; returns `None` on a malformed escape.
pub(crate) fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// One cached result: the JSONL envelope around an experiment artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Experiment name.
    pub(crate) experiment: String,
    /// 16-hex-digit [`ExpConfig::hash_hex`] cache key.
    pub config_hash: String,
    /// 16-hex-digit fingerprint of the build that produced the row (see
    /// [`Cache::new`]). Like `wall_ms`, excluded from [`rows_digest`]:
    /// it records where a result came from, not what it is.
    pub build: String,
    /// The config's derived seed (provenance; also inside `config`).
    pub(crate) seed: u64,
    /// Wall-clock of the execute call, milliseconds. Excluded from
    /// [`rows_digest`]: it is the one envelope field that legitimately
    /// differs between an interrupted-and-resumed sweep and an
    /// uninterrupted one.
    pub(crate) wall_ms: f64,
    /// Compact JSON object of the config fields (declaration order).
    pub(crate) config_json: String,
    /// The experiment's artifact document, verbatim (the bytes that
    /// become `BENCH_*.json`).
    pub artifact: String,
}

impl Row {
    /// Renders the envelope as one JSONL line (no trailing newline).
    pub(crate) fn to_jsonl(&self) -> String {
        format!(
            "{{\"schema\":{},\"experiment\":\"{}\",\"config_hash\":\"{}\",\"build\":\"{}\",\"seed\":{},\"wall_ms\":{:.3},\"config\":{},\"artifact\":\"{}\"}}",
            SCHEMA_VERSION,
            self.experiment,
            self.config_hash,
            self.build,
            self.seed,
            self.wall_ms,
            self.config_json,
            json_escape(&self.artifact),
        )
    }

    /// Parses one JSONL line back into a row. Returns `None` for
    /// malformed lines (including a partial final line left by a killed
    /// sweep) and rows from a different schema version.
    pub(crate) fn parse(line: &str) -> Option<Row> {
        if field_u64(line, "schema")? != SCHEMA_VERSION {
            return None;
        }
        let experiment = field_raw_str(line, "experiment")?.to_string();
        let config_hash = field_hex16(line, "config_hash")?;
        let build = field_hex16(line, "build")?;
        // Seeds are full-range u64s (mix_seed output); routing them
        // through f64 would silently round above 2^53.
        let seed = field_u64(line, "seed")?;
        let wall_ms = field_num(line, "wall_ms")?;
        let config_json = field_object(line, "config")?.to_string();
        let artifact = json_unescape(field_escaped_str(line, "artifact")?)?;
        Some(Row {
            experiment,
            config_hash,
            build,
            seed,
            wall_ms,
            config_json,
            artifact,
        })
    }

    /// Digest contribution of this row, ignoring `wall_ms`.
    fn content_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for part in [
            self.experiment.as_str(),
            self.config_hash.as_str(),
            &format!("{}", self.seed),
            self.config_json.as_str(),
            self.artifact.as_str(),
        ] {
            h = fnv1a64(part.as_bytes(), h);
            h = fnv1a64(b"\x1f", h);
        }
        h
    }
}

/// Order-insensitive digest over a row set, with wall-clock masked: a
/// resumed sweep and an uninterrupted one produce the same digest when
/// (and only when) they produced the same result rows.
pub fn rows_digest(rows: &[Row]) -> u64 {
    rows.iter()
        .fold(0u64, |acc, r| acc.wrapping_add(r.content_digest()))
}

fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)?;
    Some(&line[at + pat.len()..])
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = after_key(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Exact u64 field parse — full-range integers (seeds) must not round
/// through f64.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = after_key(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A string field that contains no escapes (names and hex keys).
fn field_raw_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(line, key)?.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// A 16-hex-digit string field (config hashes and build fingerprints).
fn field_hex16(line: &str, key: &str) -> Option<String> {
    let hex = field_raw_str(line, key)?;
    (hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit())).then(|| hex.to_string())
}

/// A string field read up to the first unescaped quote (still escaped).
fn field_escaped_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(line, key)?.strip_prefix('"')?;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&rest[..i]),
            _ => i += 1,
        }
    }
    None
}

/// A brace-balanced, string-aware object field.
fn field_object<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = after_key(line, key)?;
    if !rest.starts_with('{') {
        return None;
    }
    let bytes = rest.as_bytes();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'{' if !in_str => depth += 1,
            b'}' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..=i]);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The disk cache: one JSONL file per experiment under a root
/// directory. Rows are appended as each configuration completes, so a
/// killed sweep leaves every finished row behind and a re-run resumes.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
    build: String,
}

impl Cache {
    /// A cache rooted at `dir` (created lazily on first append) for the
    /// build fingerprinted as `build` — the `bench` binary passes
    /// [`exe_fnv64`]. Rows it appends record that build, and rows
    /// recorded by any other build are cache misses: a result is never
    /// re-gated under code that did not produce it.
    pub fn new(dir: impl Into<PathBuf>, build: u64) -> Self {
        Self {
            dir: dir.into(),
            build: format!("{build:016x}"),
        }
    }

    /// The JSONL file backing `experiment`.
    pub(crate) fn path_for(&self, experiment: &str) -> PathBuf {
        self.dir.join(format!("{experiment}.jsonl"))
    }

    /// Loads every parseable row this build recorded for `experiment`,
    /// keyed by config hash. Malformed lines (a partial tail from a
    /// killed run, foreign schema versions) and other builds' rows are
    /// skipped, not errors; a later duplicate hash wins, so a
    /// deliberately re-executed config supersedes its predecessor.
    pub fn load(&self, experiment: &str) -> HashMap<String, Row> {
        let mut rows = HashMap::new();
        let Ok(text) = fs::read_to_string(self.path_for(experiment)) else {
            return rows;
        };
        for line in text.lines() {
            if let Some(row) = Row::parse(line) {
                if row.experiment == experiment && row.build == self.build {
                    rows.insert(row.config_hash.clone(), row);
                }
            }
        }
        rows
    }

    /// Appends one completed row to the experiment's JSONL file,
    /// flushed so the row survives a kill immediately after.
    pub(crate) fn append(&self, row: &Row) -> Result<(), String> {
        fs::create_dir_all(&self.dir).map_err(|e| format!("creating {:?}: {e}", self.dir))?;
        let path = self.path_for(&row.experiment);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("opening {path:?}: {e}"))?;
        let line = row.to_jsonl();
        file.write_all(line.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.flush())
            .map_err(|e| format!("appending to {path:?}: {e}"))
    }

    /// Drops the experiment's cached rows (`--force`).
    pub fn invalidate(&self, experiment: &str) -> Result<(), String> {
        let path = self.path_for(experiment);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(format!("removing {path:?}: {e}")),
        }
    }
}

/// Scale knobs shared by every grid builder: the master seed, the
/// smoke/full switch, and the optional CLI scale overrides (`--cases`,
/// `--campaigns`, …). `None` means "the experiment's declared default
/// for this tier".
#[derive(Debug, Clone, Default)]
pub struct GridScale {
    /// Master seed; config `k` of a grid seeds itself with
    /// `mix_seed(seed, k)`.
    pub seed: u64,
    /// CI-smoke tier (reduced campaign counts where the full tier is
    /// expensive; identical where it is not).
    pub smoke: bool,
    /// `--flows` override (perf).
    pub flows: Option<usize>,
    /// `--events` override (perf).
    pub events: Option<usize>,
    /// `--points` override (serve).
    pub points: Option<usize>,
    /// `--cases` override (netval).
    pub cases: Option<usize>,
    /// `--campaigns` override (chaos, fleetchaos).
    pub campaigns: Option<usize>,
    /// `--sites` override (fleet).
    pub sites: Option<usize>,
    /// `--hours` override (fleet, video).
    pub hours: Option<u64>,
    /// `--window` override (fleet).
    pub window: Option<u64>,
    /// `--socs` override (video).
    pub socs: Option<usize>,
    /// `--peak` override (video).
    pub peak: Option<f64>,
    /// `--reps` override (trace, video).
    pub reps: Option<usize>,
}

impl GridScale {
    /// The default full-scale grid at the conventional master seed.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// An experiment's execute function: one configuration in, the artifact
/// document out. `Err` aborts the sweep (completed rows stay cached).
pub(crate) type ExecFn = fn(&ExpConfig, &dyn Fn() -> u64) -> Result<String, String>;

/// One registered experiment: the declaration that replaces a bespoke
/// bench mode, its JSON emitter wiring, and its hand-wired CI step.
pub struct Experiment {
    /// Registry name (`bench --run <name>`).
    pub name: &'static str,
    /// One-line description for `--list` and the docs.
    pub about: &'static str,
    /// The committed baseline artifact this experiment reproduces and
    /// `--check` compares against (e.g. `BENCH_net.json`).
    pub artifact: &'static str,
    /// Builds the config grid for a scale tier. Config `k` must seed
    /// itself with `mix_seed(scale.seed, k)`.
    pub configs: fn(&GridScale) -> Vec<ExpConfig>,
    /// Executes one configuration.
    pub execute: ExecFn,
    /// Absolute gates on an artifact document: the experiment's own
    /// contract, checked on every run (cached or executed).
    pub gates: fn(&str) -> Vec<String>,
    /// Baseline-relative gates: run document vs the committed baseline
    /// document, checked under `--check`.
    pub baseline_gates: fn(&str, &str) -> Vec<String>,
}

/// Outcome of one experiment sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Configurations executed this run.
    pub executed: usize,
    /// Configurations answered from the cache.
    pub cached: usize,
    /// One row per grid configuration, in grid order.
    pub rows: Vec<Row>,
}

/// Runs one experiment's grid against the cache: configurations whose
/// hash the cache's build already recorded are answered from disk; the
/// rest execute and append. On an execute error the completed rows stay
/// cached and the error propagates — re-running resumes where the sweep
/// died.
pub fn run_experiment(
    exp: &Experiment,
    scale: &GridScale,
    cache: &Cache,
    alloc_count: &dyn Fn() -> u64,
) -> Result<SweepOutcome, String> {
    let configs = (exp.configs)(scale);
    let known = cache.load(exp.name);
    let mut outcome = SweepOutcome {
        executed: 0,
        cached: 0,
        rows: Vec::with_capacity(configs.len()),
    };
    for cfg in &configs {
        let key = cfg.hash_hex();
        if let Some(row) = known.get(&key) {
            outcome.cached += 1;
            outcome.rows.push(row.clone());
            continue;
        }
        let started = Instant::now();
        let artifact = (exp.execute)(cfg, alloc_count)
            .map_err(|e| format!("{}: config {key}: {e}", exp.name))?;
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let row = Row {
            experiment: exp.name.to_string(),
            config_hash: key,
            build: cache.build.clone(),
            seed: cfg.seed(),
            wall_ms,
            config_json: cfg.to_json(),
            artifact,
        };
        cache.append(&row)?;
        outcome.executed += 1;
        outcome.rows.push(row);
    }
    Ok(outcome)
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

/// The envelope + per-experiment config schema description the golden
/// test pins: field names and types only, no values, so legitimate
/// retuning never churns it but silent schema drift fails loudly.
pub fn schema_description() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "envelope v{SCHEMA_VERSION}: schema:u64 experiment:str config_hash:hex16 build:hex16 seed:u64 wall_ms:f64 config:object artifact:str\n"
    ));
    let scale = GridScale::full(42);
    for exp in registry() {
        let grid = (exp.configs)(&scale);
        out.push_str(&format!(
            "{} [{}]: {}\n",
            exp.name,
            exp.artifact,
            grid.first().map_or_else(String::new, |c| c.field_schema()),
        ));
    }
    out
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
    use crate::harness::mix_seed;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn demo_config() -> ExpConfig {
        ExpConfig::new()
            .u64("campaigns", 256)
            .u64("seed", 42)
            .f64("floor", 0.9)
            .bool("fast", true)
            .str("grid", "15,20,25")
    }

    #[test]
    fn config_hash_is_stable_and_order_insensitive() {
        let a = demo_config();
        // Same fields declared in a different order.
        let b = ExpConfig::new()
            .str("grid", "15,20,25")
            .bool("fast", true)
            .f64("floor", 0.9)
            .u64("seed", 42)
            .u64("campaigns", 256);
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.hash(), demo_config().hash());
        // Pinned: changing the algorithm silently would orphan every
        // on-disk cache (they would all re-execute, not misread).
        assert_eq!(a.hash_hex().len(), 16);
    }

    #[test]
    fn config_hash_sees_every_field() {
        let base = demo_config();
        let variants = [
            demo_config().u64("extra", 1),
            ExpConfig::new()
                .u64("campaigns", 257)
                .u64("seed", 42)
                .f64("floor", 0.9)
                .bool("fast", true)
                .str("grid", "15,20,25"),
            ExpConfig::new()
                .u64("campaigns", 256)
                .u64("seed", 43)
                .f64("floor", 0.9)
                .bool("fast", true)
                .str("grid", "15,20,25"),
            ExpConfig::new()
                .u64("campaigns", 256)
                .u64("seed", 42)
                .f64("floor", 0.91)
                .bool("fast", true)
                .str("grid", "15,20,25"),
            ExpConfig::new()
                .u64("campaigns", 256)
                .u64("seed", 42)
                .f64("floor", 0.9)
                .bool("fast", false)
                .str("grid", "15,20,25"),
            ExpConfig::new()
                .u64("campaigns", 256)
                .u64("seed", 42)
                .f64("floor", 0.9)
                .bool("fast", true)
                .str("grid", "15,20"),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base.hash(), v.hash(), "variant {i} collided");
        }
        // Type tags keep same-rendering values apart.
        let int = ExpConfig::new().u64("x", 1).u64("seed", 0);
        let text = ExpConfig::new().str("x", "1").u64("seed", 0);
        assert_ne!(int.hash(), text.hash());
    }

    #[test]
    fn escape_round_trips_artifact_documents() {
        let doc = "{\n  \"k\": \"v\",\n  \"q\": \"a \\\"b\\\" c\",\n  \"t\": \"tab\\there\"\n}\n";
        let escaped = json_escape(doc);
        assert!(!escaped.contains('\n'));
        assert_eq!(json_unescape(&escaped).as_deref(), Some(doc));
        let control = "a\u{1}b";
        assert_eq!(
            json_unescape(&json_escape(control)).as_deref(),
            Some(control)
        );
    }

    #[test]
    fn row_round_trips_through_jsonl() {
        let cfg = demo_config();
        let row = Row {
            experiment: "demo".to_string(),
            config_hash: cfg.hash_hex(),
            build: "00c0ffee00c0ffee".to_string(),
            // Above 2^53: pins the exact-u64 seed parse (an f64 round
            // trip would corrupt the low bits).
            seed: 17_542_363_414_333_701_188,
            wall_ms: 12.345,
            config_json: cfg.to_json(),
            artifact: "{\n  \"benchmark\": \"demo\",\n  \"n\": 7\n}\n".to_string(),
        };
        let line = row.to_jsonl();
        assert!(!line.contains('\n'));
        let parsed = Row::parse(&line).expect("round trip");
        assert_eq!(parsed, row);
        // Partial tail lines (killed mid-append) parse to None.
        assert_eq!(Row::parse(&line[..line.len() / 2]), None);
        assert_eq!(Row::parse(""), None);
        // So do rows of the previous schema, which recorded no build.
        let v1 = line
            .replace("\"schema\":2", "\"schema\":1")
            .replace(",\"build\":\"00c0ffee00c0ffee\"", "");
        assert_eq!(Row::parse(&v1), None);
    }

    #[test]
    fn rows_digest_masks_wall_and_ignores_order() {
        let mk = |hash: &str, wall: f64| Row {
            experiment: "demo".to_string(),
            config_hash: hash.to_string(),
            build: format!("{:016x}", wall.to_bits()),
            seed: 1,
            wall_ms: wall,
            config_json: "{\"seed\":1}".to_string(),
            artifact: format!("{{\n  \"h\": \"{hash}\"\n}}\n"),
        };
        let a = vec![mk("aaaaaaaaaaaaaaaa", 1.0), mk("bbbbbbbbbbbbbbbb", 2.0)];
        let b = vec![mk("bbbbbbbbbbbbbbbb", 9.0), mk("aaaaaaaaaaaaaaaa", 7.5)];
        assert_eq!(rows_digest(&a), rows_digest(&b));
        let c = vec![mk("aaaaaaaaaaaaaaaa", 1.0), mk("cccccccccccccccc", 2.0)];
        assert_ne!(rows_digest(&a), rows_digest(&c));
    }

    fn temp_cache(tag: &str) -> Cache {
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "socc-runner-{tag}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Cache::new(dir, 1)
    }

    static DEMO_EXECS: AtomicU64 = AtomicU64::new(0);
    /// Serializes the tests that run [`demo_experiment`] — the exec
    /// counter is a process-wide static, so concurrent tests would race.
    static DEMO_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn demo_experiment() -> Experiment {
        Experiment {
            name: "demo",
            about: "runner self-test",
            artifact: "BENCH_demo.json",
            configs: |scale| {
                (0..4)
                    .map(|k| {
                        ExpConfig::new()
                            .u64("x", k as u64)
                            .u64("seed", mix_seed(scale.seed, k))
                    })
                    .collect()
            },
            execute: |cfg, _| {
                DEMO_EXECS.fetch_add(1, Ordering::Relaxed);
                Ok(format!(
                    "{{\n  \"x\": {},\n  \"seed\": {}\n}}\n",
                    cfg.get_u64("x"),
                    cfg.seed()
                ))
            },
            gates: |_| Vec::new(),
            baseline_gates: |_, _| Vec::new(),
        }
    }

    #[test]
    fn equal_hash_means_cache_hit_and_zero_executions() {
        let _guard = DEMO_LOCK.lock().unwrap();
        let cache = temp_cache("hit");
        let exp = demo_experiment();
        let scale = GridScale::full(42);
        let before = DEMO_EXECS.load(Ordering::Relaxed);
        let first = run_experiment(&exp, &scale, &cache, &|| 0).unwrap();
        assert_eq!(first.executed, 4);
        assert_eq!(first.cached, 0);
        let second = run_experiment(&exp, &scale, &cache, &|| 0).unwrap();
        assert_eq!(second.executed, 0, "equal hashes must all hit the cache");
        assert_eq!(second.cached, 4);
        assert_eq!(
            DEMO_EXECS.load(Ordering::Relaxed) - before,
            4,
            "second sweep must not execute"
        );
        // Cached rows come back identical apart from wall-clock (the
        // JSONL envelope rounds it to 3 decimals), which the digest
        // masks.
        for (a, b) in first.rows.iter().zip(second.rows.iter()) {
            let mut masked = b.clone();
            masked.wall_ms = a.wall_ms;
            assert_eq!(*a, masked);
        }
        assert_eq!(rows_digest(&first.rows), rows_digest(&second.rows));
        // A different master seed misses (every config re-hashes).
        let third = run_experiment(&exp, &GridScale::full(43), &cache, &|| 0).unwrap();
        assert_eq!(third.executed, 4);
        let _ = fs::remove_dir_all(cache.path_for("demo").parent().unwrap());
    }

    #[test]
    fn resolve_drops_repeated_names_in_first_seen_order() {
        let names: Vec<String> = ["chaos", "perf", "chaos"].map(String::from).to_vec();
        let picked: Vec<&str> = resolve(&names).unwrap().iter().map(|e| e.name).collect();
        assert_eq!(picked, ["chaos", "perf"]);
        let err = resolve(&["nope".to_string()]).err().unwrap();
        assert!(err.contains("unknown experiment nope"), "{err}");
    }

    #[test]
    fn grid_seeds_follow_the_mix_seed_contract() {
        let exp = demo_experiment();
        let grid = (exp.configs)(&GridScale::full(42));
        for (k, cfg) in grid.iter().enumerate() {
            assert_eq!(cfg.seed(), mix_seed(42, k));
        }
        // Config 0 keeps the master seed itself — the property that lets
        // single-config experiments reproduce their committed artifacts.
        assert_eq!(grid[0].seed(), 42);
    }

    #[test]
    fn corrupt_cache_lines_are_skipped_not_fatal() {
        let _guard = DEMO_LOCK.lock().unwrap();
        let cache = temp_cache("corrupt");
        let exp = demo_experiment();
        let scale = GridScale::full(7);
        run_experiment(&exp, &scale, &cache, &|| 0).unwrap();
        // Simulate a kill mid-append: truncate the file mid-line.
        let path = cache.path_for("demo");
        let text = fs::read_to_string(&path).unwrap();
        let cut = text.len() - 25;
        fs::write(&path, &text[..cut]).unwrap();
        let reloaded = cache.load("demo");
        assert_eq!(reloaded.len(), 3, "the torn row is dropped");
        let resumed = run_experiment(&exp, &scale, &cache, &|| 0).unwrap();
        assert_eq!(resumed.executed, 1, "only the torn config re-executes");
        assert_eq!(resumed.cached, 3);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
