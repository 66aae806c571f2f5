//! Crash-dump artifacts and deterministic replay.
//!
//! When a run fails (watchdog stall, invariant violation, protocol
//! fault), [`crate::run_benchmark`] serializes everything needed to
//! reproduce it — protocol, benchmark, seed, the failing cycle and the
//! full [`SystemConfig`] — into a small JSON file in the directory its
//! caller names: `D/crash/` for a CLI command with `--out-dir D` (a
//! sweep's `D` included), the system temp directory otherwise. Nothing
//! outside the command line picks that directory. Because the event
//! queue is insertion-stable, a simulation is a pure function of its
//! configuration, so `cmpsim-cli replay <file>` re-runs the exact same
//! failure, optionally with the invariant checker force-enabled to
//! catch the first broken invariant instead of the eventual deadlock.
//!
//! Artifacts are built and parsed with the workspace's one JSON codec,
//! [`crate::json`]; [`Value`] is re-exported here so existing
//! `cmpsim::replay::Value` paths keep resolving.

use crate::config::SystemConfig;
pub use crate::json::Value;
use crate::manifest::RunManifest;
use cmpsim_cache::Geometry;
use cmpsim_engine::{Cycle, FaultPlan};
use cmpsim_noc::NocConfig;
use cmpsim_protocols::common::{ChipSpec, Latencies, ProtocolKind};
use cmpsim_virt::{AreaMap, Placement};
use cmpsim_workloads::Benchmark;
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

    /// Writes the artifact into `dir` (created if missing) and returns
    /// the path.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
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
        j.to_document()
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
