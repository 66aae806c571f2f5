//! Crash-dump artifacts and deterministic replay.
//!
//! When a run fails (watchdog stall, invariant violation, protocol
//! fault), [`crate::run_benchmark`] serializes everything needed to
//! reproduce it — protocol, benchmark, seed, the failing cycle and the
//! full [`SystemConfig`] — into a small JSON file. Because the event
//! queue is insertion-stable, a simulation is a pure function of its
//! configuration, so `cmpsim-cli replay <file>` re-runs the exact same
//! failure, optionally with the invariant checker force-enabled to
//! catch the first broken invariant instead of the eventual deadlock.
//!
//! The JSON codec is hand-rolled (the build is fully offline, so no
//! serde): a minimal value tree with a recursive-descent parser.
//! Numbers are kept as raw tokens so `u64` seeds and cycles round-trip
//! without floating-point loss.

use crate::config::SystemConfig;
use crate::manifest::RunManifest;
use cmpsim_cache::Geometry;
use cmpsim_engine::{Cycle, FaultPlan};
use cmpsim_noc::NocConfig;
use cmpsim_protocols::common::{ChipSpec, Latencies, ProtocolKind};
use cmpsim_virt::{AreaMap, Placement};
use cmpsim_workloads::Benchmark;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Artifact schema version (bump on incompatible layout changes).
///
/// * v1 — original layout, no fault injection.
/// * v2 — adds the optional `faults` object (the active [`FaultPlan`])
///   to the config, so faulty runs replay with their exact fault
///   schedule. v1 artifacts still load (no plan).
pub const SCHEMA_VERSION: u64 = 2;

/// Everything needed to re-run a failing simulation deterministically.
#[derive(Debug, Clone)]
pub struct ReplayArtifact {
    /// Schema version of the serialized form.
    pub schema: u64,
    /// Protocol the failing run used.
    pub protocol: ProtocolKind,
    /// Benchmark the failing run used.
    pub benchmark: Benchmark,
    /// Failure kind label (see `SimError::kind_label`).
    pub error_kind: String,
    /// Cycle the failure was detected at.
    pub failing_cycle: Cycle,
    /// Events processed before the failure.
    pub events: u64,
    /// The complete configuration of the failing run.
    pub config: SystemConfig,
}

impl ReplayArtifact {
    /// Captures a failing run.
    pub fn new(
        protocol: ProtocolKind,
        benchmark: Benchmark,
        error_kind: &str,
        failing_cycle: Cycle,
        events: u64,
        config: &SystemConfig,
    ) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            protocol,
            benchmark,
            error_kind: error_kind.to_string(),
            failing_cycle,
            events,
            config: config.clone(),
        }
    }

    /// The manifest of the failing run.
    pub fn manifest(&self) -> RunManifest {
        RunManifest::new(self.protocol, self.benchmark, &self.config)
    }

    /// Deterministic file name for this artifact. The manifest `run_id`
    /// keys every input of the run, fault plan included, so two runs
    /// that fail at the same cycle never overwrite each other's dump.
    pub fn file_name(&self) -> String {
        format!(
            "cmpsim-crash-{}-{}-seed{}-cycle{}-{}.json",
            self.protocol.name().to_lowercase(),
            self.benchmark.name(),
            self.config.seed,
            self.failing_cycle,
            self.manifest().run_id
        )
    }

    /// Directory artifacts are written to: `$CMPSIM_DUMP_DIR` if set and
    /// non-empty, otherwise the system temp directory. This is the one
    /// environment variable the workspace reads.
    pub fn dump_dir() -> PathBuf {
        std::env::var_os("CMPSIM_DUMP_DIR")
            .filter(|dir| !dir.is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir)
    }

    /// Writes the artifact into `dir` (or [`Self::dump_dir`] when
    /// `None`) and returns the path.
    pub fn save(&self, dir: Option<&Path>) -> std::io::Result<PathBuf> {
        let dir = dir.map(Path::to_path_buf).unwrap_or_else(Self::dump_dir);
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Reads an artifact back from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut j = Value::object();
        j.set("schema", Value::uint(self.schema));
        j.set("protocol", Value::string(self.protocol.name()));
        j.set("benchmark", Value::string(self.benchmark.name()));
        j.set("error", Value::string(&self.error_kind));
        j.set("failing_cycle", Value::uint(self.failing_cycle));
        j.set("events", Value::uint(self.events));
        j.set("config", config_to_json(&self.config));
        j.set("manifest", self.manifest().to_value());
        let mut out = String::new();
        j.render(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses an artifact from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        let schema = v.field("schema")?.as_u64()?;
        if schema == 0 || schema > SCHEMA_VERSION {
            return Err(format!(
                "unsupported artifact schema {schema} (this build reads 1..={SCHEMA_VERSION})"
            ));
        }
        let name = v.field("protocol")?.as_str()?;
        let protocol =
            ProtocolKind::from_name(name).ok_or_else(|| format!("unknown protocol {name:?}"))?;
        let name = v.field("benchmark")?.as_str()?;
        let benchmark =
            Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark {name:?}"))?;
        Ok(Self {
            schema,
            protocol,
            benchmark,
            error_kind: v.field("error")?.as_str()?.to_string(),
            failing_cycle: v.field("failing_cycle")?.as_u64()?,
            events: v.field("events")?.as_u64()?,
            config: config_from_json(v.field("config")?)?,
        })
    }
}

fn geometry_to_json(g: &Geometry) -> Value {
    let mut j = Value::object();
    j.set("sets", Value::uint(g.sets as u64));
    j.set("ways", Value::uint(g.ways as u64));
    j.set("index_shift", Value::uint(g.index_shift as u64));
    j
}

fn geometry_from_json(v: &Value) -> Result<Geometry, String> {
    Ok(Geometry {
        sets: v.field("sets")?.as_u64()? as usize,
        ways: v.field("ways")?.as_u64()? as usize,
        index_shift: v.field("index_shift")?.as_u64()? as u32,
    })
}

/// Canonical JSON form of a [`SystemConfig`]: the exact field set the
/// crash-dump schema fixes and the [`crate::manifest`] content hash is
/// computed over. Observability knobs (tracing, sampling, attribution)
/// are deliberately absent — they are timing-invariant, so two runs
/// differing only in them are the *same* run.
pub(crate) fn config_to_json(c: &SystemConfig) -> Value {
    let mut areas = Value::object();
    areas.set("cols", Value::uint(c.chip.areas.cols as u64));
    areas.set("rows", Value::uint(c.chip.areas.rows as u64));
    areas.set("area_cols", Value::uint(c.chip.areas.area_cols as u64));
    areas.set("area_rows", Value::uint(c.chip.areas.area_rows as u64));

    let mut lat = Value::object();
    lat.set("l1_tag", Value::uint(c.chip.lat.l1_tag));
    lat.set("l1_data", Value::uint(c.chip.lat.l1_data));
    lat.set("l2_tag", Value::uint(c.chip.lat.l2_tag));
    lat.set("l2_data", Value::uint(c.chip.lat.l2_data));

    let mut chip = Value::object();
    chip.set("areas", areas);
    chip.set("l1", geometry_to_json(&c.chip.l1));
    chip.set("l2", geometry_to_json(&c.chip.l2));
    chip.set("aux", geometry_to_json(&c.chip.aux));
    chip.set("aux_home", geometry_to_json(&c.chip.aux_home));
    chip.set("lat", lat);
    chip.set("enable_prediction", Value::boolean(c.chip.enable_prediction));
    chip.set("enable_hints", Value::boolean(c.chip.enable_hints));

    let mut noc = Value::object();
    noc.set("cols", Value::uint(c.noc.cols as u64));
    noc.set("rows", Value::uint(c.noc.rows as u64));
    noc.set("link_cycles", Value::uint(c.noc.link_cycles));
    noc.set("switch_cycles", Value::uint(c.noc.switch_cycles));
    noc.set("router_cycles", Value::uint(c.noc.router_cycles));
    noc.set("flit_bytes", Value::uint(c.noc.flit_bytes as u64));
    noc.set("control_flits", Value::uint(c.noc.control_flits));
    noc.set("data_flits", Value::uint(c.noc.data_flits));
    noc.set("model_contention", Value::boolean(c.noc.model_contention));

    let mut j = Value::object();
    j.set("chip", chip);
    j.set("noc", noc);
    j.set("num_vms", Value::uint(c.num_vms as u64));
    j.set(
        "placement",
        Value::string(match c.placement {
            Placement::Matched => "matched",
            Placement::Alternative => "alternative",
        }),
    );
    j.set("mem_controllers", Value::uint(c.mem_controllers as u64));
    j.set("mem_latency", Value::uint(c.mem_latency));
    j.set("mem_jitter", Value::uint(c.mem_jitter));
    j.set("mem_service", Value::uint(c.mem_service));
    j.set("refs_per_core", Value::uint(c.refs_per_core));
    j.set("warmup_frac", Value::float(c.warmup_frac));
    j.set("seed", Value::uint(c.seed));
    j.set(
        "max_events",
        match c.max_events {
            Some(n) => Value::uint(n),
            None => Value::Null,
        },
    );
    j.set("stall_window", Value::uint(c.stall_window));
    j.set("check_invariants", Value::boolean(c.check_invariants));
    j.set(
        "faults",
        match &c.fault_plan {
            Some(p) => fault_plan_to_json(p),
            None => Value::Null,
        },
    );
    j
}

fn fault_plan_to_json(p: &FaultPlan) -> Value {
    let mut j = Value::object();
    j.set("seed", Value::uint(p.seed));
    j.set("chaos", Value::boolean(p.chaos));
    j.set("delay_rate", Value::float(p.delay_rate));
    j.set("delay_max", Value::uint(p.delay_max));
    j.set("duplicate_rate", Value::float(p.duplicate_rate));
    j.set("drop_rate", Value::float(p.drop_rate));
    j.set("max_drops", Value::uint(p.max_drops));
    j.set("reorder_rate", Value::float(p.reorder_rate));
    j.set("outages", Value::uint(p.outages as u64));
    j.set("outage_len", Value::uint(p.outage_len));
    j.set("outage_horizon", Value::uint(p.outage_horizon));
    j.set("timeout", Value::uint(p.timeout));
    j.set("retry_cap", Value::uint(p.retry_cap as u64));
    j
}

fn fault_plan_from_json(v: &Value) -> Result<FaultPlan, String> {
    Ok(FaultPlan {
        seed: v.field("seed")?.as_u64()?,
        chaos: v.field("chaos")?.as_bool()?,
        delay_rate: v.field("delay_rate")?.as_f64()?,
        delay_max: v.field("delay_max")?.as_u64()?,
        duplicate_rate: v.field("duplicate_rate")?.as_f64()?,
        drop_rate: v.field("drop_rate")?.as_f64()?,
        max_drops: v.field("max_drops")?.as_u64()?,
        reorder_rate: v.field("reorder_rate")?.as_f64()?,
        outages: v.field("outages")?.as_u64()? as u32,
        outage_len: v.field("outage_len")?.as_u64()?,
        outage_horizon: v.field("outage_horizon")?.as_u64()?,
        timeout: v.field("timeout")?.as_u64()?,
        retry_cap: v.field("retry_cap")?.as_u64()? as u32,
    })
}

pub(crate) fn config_from_json(v: &Value) -> Result<SystemConfig, String> {
    let chip = v.field("chip")?;
    let areas = chip.field("areas")?;
    let lat = chip.field("lat")?;
    let noc = v.field("noc")?;
    let max_events = match v.field("max_events")? {
        Value::Null => None,
        other => Some(other.as_u64()?),
    };
    // v1 artifacts predate fault injection: a missing `faults` field
    // simply means no plan.
    let fault_plan = match v.field("faults") {
        Err(_) | Ok(Value::Null) => None,
        Ok(f) => Some(fault_plan_from_json(f)?),
    };
    let config = SystemConfig {
        chip: ChipSpec {
            areas: AreaMap {
                cols: areas.field("cols")?.as_u64()? as usize,
                rows: areas.field("rows")?.as_u64()? as usize,
                area_cols: areas.field("area_cols")?.as_u64()? as usize,
                area_rows: areas.field("area_rows")?.as_u64()? as usize,
            },
            l1: geometry_from_json(chip.field("l1")?)?,
            l2: geometry_from_json(chip.field("l2")?)?,
            aux: geometry_from_json(chip.field("aux")?)?,
            aux_home: geometry_from_json(chip.field("aux_home")?)?,
            lat: Latencies {
                l1_tag: lat.field("l1_tag")?.as_u64()?,
                l1_data: lat.field("l1_data")?.as_u64()?,
                l2_tag: lat.field("l2_tag")?.as_u64()?,
                l2_data: lat.field("l2_data")?.as_u64()?,
            },
            enable_prediction: chip.field("enable_prediction")?.as_bool()?,
            enable_hints: chip.field("enable_hints")?.as_bool()?,
        },
        noc: NocConfig {
            cols: noc.field("cols")?.as_u64()? as usize,
            rows: noc.field("rows")?.as_u64()? as usize,
            link_cycles: noc.field("link_cycles")?.as_u64()?,
            switch_cycles: noc.field("switch_cycles")?.as_u64()?,
            router_cycles: noc.field("router_cycles")?.as_u64()?,
            flit_bytes: noc.field("flit_bytes")?.as_u64()? as usize,
            control_flits: noc.field("control_flits")?.as_u64()?,
            data_flits: noc.field("data_flits")?.as_u64()?,
            model_contention: noc.field("model_contention")?.as_bool()?,
        },
        num_vms: v.field("num_vms")?.as_u64()? as usize,
        placement: match v.field("placement")?.as_str()? {
            "matched" => Placement::Matched,
            "alternative" => Placement::Alternative,
            other => return Err(format!("unknown placement {other:?}")),
        },
        mem_controllers: v.field("mem_controllers")?.as_u64()? as usize,
        mem_latency: v.field("mem_latency")?.as_u64()?,
        mem_jitter: v.field("mem_jitter")?.as_u64()?,
        mem_service: v.field("mem_service")?.as_u64()?,
        refs_per_core: v.field("refs_per_core")?.as_u64()?,
        warmup_frac: v.field("warmup_frac")?.as_f64()?,
        seed: v.field("seed")?.as_u64()?,
        max_events,
        stall_window: v.field("stall_window")?.as_u64()?,
        check_invariants: v.field("check_invariants")?.as_bool()?,
        // Observability knobs don't affect simulated timing, so they are
        // not serialized (the schema stays at v1); replays run with them
        // off and the CLI can re-enable them explicitly.
        tracing: false,
        sample_interval: None,
        attribution: false,
        fault_plan,
        // Host-side like the observability knobs: replays run without a
        // wall deadline (a timeout would not reproduce anyway).
        wall_deadline_ms: None,
    };
    config.check()?;
    Ok(config)
}

/// Minimal JSON value tree. Numbers keep their raw token so `u64`
/// values round-trip exactly (no intermediate `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn object() -> Self {
        Value::Obj(Vec::new())
    }

    /// An unsigned integer value.
    pub fn uint(n: u64) -> Self {
        Value::Num(n.to_string())
    }

    /// A floating-point value (shortest round-trip representation).
    pub fn float(x: f64) -> Self {
        Value::Num(format!("{x:?}"))
    }

    /// A string value.
    pub fn string(s: &str) -> Self {
        Value::Str(s.to_string())
    }

    /// A boolean value.
    pub fn boolean(b: bool) -> Self {
        Value::Bool(b)
    }

    /// Sets `key` on an object (panics on non-objects — builder misuse).
    pub fn set(&mut self, key: &str, val: Value) {
        match self {
            Value::Obj(fields) => fields.push((key.to_string(), val)),
            _ => panic!("set() on a non-object JSON value"),
        }
    }

    /// Looks up `key` on an object.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("field {key:?} requested on a non-object")),
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::Num(raw) => raw.parse().map_err(|e| format!("bad integer {raw:?}: {e}")),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(raw) => raw.parse().map_err(|e| format!("bad number {raw:?}: {e}")),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, found {other:?}")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }

    /// Renders the value into `out` (pretty-printed, two-space
    /// indentation) — the entry point other exporters reuse.
    pub fn render_to(&self, out: &mut String) {
        self.render(out, 0);
    }

    /// Pretty-prints with two-space indentation.
    fn render(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => render_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    render_string(out, k);
                    out.push_str(": ");
                    v.render(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }

    /// Renders the value into `out` on a single line (no indentation)
    /// — the form NDJSON journals require, one document per line.
    pub fn render_compact_to(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(raw) => out.push_str(raw),
            Value::Str(s) => render_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_compact_to(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(out, k);
                    out.push(':');
                    v.render_compact_to(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing garbage is an error). Arrays
    /// and objects nest at most 128 levels deep.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Value::parse`] accepts. Far above
/// anything the workspace writes (crash dumps, goldens and baselines are
/// 3–4 levels deep); it stops a hostile document from overflowing the
/// recursive parser's stack.
const MAX_DEPTH: usize = 128;

/// Recursive-descent JSON parser over raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != b {
            return Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char, self.pos, got as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other as char, self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos, other as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Take the longest run without escapes or the closing quote.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(format!("empty number at byte {start}"));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .to_string();
        // Validate the token now so as_u64/as_f64 errors can't hide a
        // malformed file.
        raw.parse::<f64>().map_err(|e| format!("bad number {raw:?}: {e}"))?;
        Ok(Value::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayArtifact {
        ReplayArtifact::new(
            ProtocolKind::DiCoArin,
            Benchmark::MixedCom,
            "stalled",
            123_456_789_012_345,
            987_654,
            &SystemConfig::small()
                .with_seed(0xDEAD_BEEF_CAFE_F00D)
                .with_event_budget(100)
                .with_stall_window(5_000),
        )
    }

    #[test]
    fn artifact_round_trips() {
        let a = sample();
        let b = ReplayArtifact::from_json(&a.to_json()).expect("parse back");
        assert_eq!(b.schema, SCHEMA_VERSION);
        assert_eq!(b.protocol, a.protocol);
        assert_eq!(b.benchmark, a.benchmark);
        assert_eq!(b.error_kind, a.error_kind);
        assert_eq!(b.failing_cycle, a.failing_cycle);
        assert_eq!(b.events, a.events);
        assert_eq!(b.config.seed, a.config.seed);
        assert_eq!(b.config.max_events, Some(100));
        assert_eq!(b.config.stall_window, 5_000);
        assert_eq!(b.config.chip.areas, a.config.chip.areas);
        assert_eq!(b.config.chip.l1, a.config.chip.l1);
        assert_eq!(b.config.chip.l2, a.config.chip.l2);
        assert_eq!(b.config.chip.lat, a.config.chip.lat);
        assert_eq!(b.config.noc.cols, a.config.noc.cols);
        assert_eq!(b.config.refs_per_core, a.config.refs_per_core);
        assert_eq!(b.config.warmup_frac, a.config.warmup_frac);
        assert_eq!(b.config.placement, a.config.placement);
    }

    #[test]
    fn none_event_budget_round_trips_as_null() {
        let mut a = sample();
        a.config.max_events = None;
        assert!(a.to_json().contains("\"max_events\": null"));
        let b = ReplayArtifact::from_json(&a.to_json()).expect("parse back");
        assert_eq!(b.config.max_events, None);
    }

    #[test]
    fn u64_fidelity_preserved() {
        // u64::MAX is not representable in f64; the raw-token codec must
        // keep every digit.
        let mut a = sample();
        a.config.seed = u64::MAX;
        let b = ReplayArtifact::from_json(&a.to_json()).expect("parse back");
        assert_eq!(b.config.seed, u64::MAX);
    }

    #[test]
    fn rejects_schema_mismatch() {
        let bumped = sample().to_json().replacen("\"schema\": 2", "\"schema\": 99", 1);
        let err = ReplayArtifact::from_json(&bumped).unwrap_err();
        assert!(err.contains("schema"), "unexpected error: {err}");
    }

    #[test]
    fn v1_artifacts_without_faults_still_load() {
        // A v1 file has no `faults` field at all; it must parse with no
        // fault plan.
        let v1 = sample()
            .to_json()
            .replacen("\"schema\": 2", "\"schema\": 1", 1)
            .replace("    \"faults\": null,\n", "")
            .replace(",\n    \"faults\": null", "");
        assert!(!v1.contains("faults"));
        let b = ReplayArtifact::from_json(&v1).expect("v1 artifact loads");
        assert_eq!(b.schema, 1);
        assert!(b.config.fault_plan.is_none());
    }

    #[test]
    fn fault_plan_round_trips() {
        let mut a = sample();
        let mut plan = cmpsim_engine::FaultPlan::chaos(0xFEED);
        plan.delay_rate = 0.015625; // exactly representable
        plan.retry_cap = 11;
        a.config.fault_plan = Some(plan.clone());
        let b = ReplayArtifact::from_json(&a.to_json()).expect("parse back");
        assert_eq!(b.config.fault_plan, Some(plan));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(ReplayArtifact::from_json("{\"schema\": 1").is_err());
        assert!(ReplayArtifact::from_json("not json at all").is_err());
        assert!(ReplayArtifact::from_json("{}").is_err());
    }

    /// `sample()`'s JSON with, edit by edit, the first `from` after
    /// `anchor` turned into `to`.
    fn tampered_all(edits: &[(&str, &str, &str)]) -> String {
        edits.iter().fold(sample().to_json(), |json, &(anchor, from, to)| {
            let at = json.find(anchor).expect("anchor") + anchor.len();
            let (head, tail) = json.split_at(at);
            assert!(tail.contains(from), "{from} after {anchor}");
            format!("{head}{}", tail.replacen(from, to, 1))
        })
    }

    fn tampered(anchor: &str, from: &str, to: &str) -> String {
        tampered_all(&[(anchor, from, to)])
    }

    #[test]
    fn configs_the_simulator_would_assert_on_are_refused() {
        for (json, field) in [
            (tampered("\"noc\": {", "\"cols\": 4", "\"cols\": 3"), "config.noc"),
            (tampered("", "\"mem_controllers\": 4", "\"mem_controllers\": 0"), "mem_controllers"),
            (tampered("", "\"num_vms\": 4", "\"num_vms\": 0"), "num_vms"),
            (tampered("\"areas\": {", "\"area_cols\": 2", "\"area_cols\": 3"), "areas"),
            (tampered("\"l2\": {", "\"sets\": 16", "\"sets\": 12"), "config.chip.l2"),
            // A consistent 10x8 chip of four 5x4 areas: more tiles than
            // the 64-bit sharing codes hold.
            (
                tampered_all(&[
                    ("\"areas\": {", "\"cols\": 4", "\"cols\": 10"),
                    ("\"areas\": {", "\"rows\": 4", "\"rows\": 8"),
                    ("\"areas\": {", "\"area_cols\": 2", "\"area_cols\": 5"),
                    ("\"areas\": {", "\"area_rows\": 2", "\"area_rows\": 4"),
                    ("\"noc\": {", "\"cols\": 4", "\"cols\": 10"),
                    ("\"noc\": {", "\"rows\": 4", "\"rows\": 8"),
                ]),
                "config.chip.areas: a 10x8 chip (want 1..=64 tiles)",
            ),
        ] {
            let err = ReplayArtifact::from_json(&json).expect_err("tampered config must fail");
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn every_preset_and_area_count_round_trips() {
        let areas = |n| SystemConfig {
            chip: ChipSpec::paper_with_areas(n),
            num_vms: n,
            ..SystemConfig::paper()
        };
        for cfg in [
            SystemConfig::paper(),
            SystemConfig::small(),
            SystemConfig::smoke(),
            areas(2),
            areas(8),
            areas(16),
        ] {
            let mut json = String::new();
            config_to_json(&cfg).render_to(&mut json);
            let back = config_from_json(&Value::parse(&json).unwrap()).expect("round trip");
            let mut again = String::new();
            config_to_json(&back).render_to(&mut again);
            assert_eq!(json, again);
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(Value::parse(&nested(200_000)).is_err());
        let objects = format!("{}{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&objects).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_arrays() {
        let v = Value::parse(r#"{"a": [1, 2.5, -3], "s": "x\"y\\z\nw", "t": true, "n": null}"#)
            .expect("parse");
        let arr = match v.field("a").unwrap() {
            Value::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64().unwrap(), 1);
        assert_eq!(arr[1].as_f64().unwrap(), 2.5);
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "x\"y\\z\nw");
        assert!(v.field("t").unwrap().as_bool().unwrap());
        assert_eq!(v.field("n").unwrap(), &Value::Null);
    }

    #[test]
    fn deterministic_file_name() {
        let a = sample();
        assert_eq!(
            a.file_name(),
            format!(
                "cmpsim-crash-dico-arin-mixed-com-seed{}-cycle123456789012345-{}.json",
                0xDEAD_BEEF_CAFE_F00Du64,
                a.manifest().run_id
            )
        );
        // Any other input (here the fault plan) names another file.
        let mut b = sample();
        b.config.fault_plan = Some(FaultPlan::chaos(1));
        assert_ne!(a.file_name(), b.file_name());
    }
}
