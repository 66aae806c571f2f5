//! Run provenance manifests: deterministic content-hashed identity for
//! every simulation run and every JSON artifact it produces.
//!
//! A [`RunManifest`] is computed from the run's *inputs* — the full
//! [`SystemConfig`] (canonical JSON, including seed and fault plan),
//! the protocol, the benchmark, the artifact schema versions and the
//! tool version. Two runs with the same manifest `run_id` are the same
//! experiment and (because the simulator is deterministic) must produce
//! byte-identical deterministic artifacts; `cmpsim-cli compare` treats
//! a counter mismatch under an equal `run_id` as a determinism
//! violation rather than an ordinary regression.
//!
//! Observability knobs (tracing, interval sampling, attribution) do
//! **not** change the hash: they are timing-invariant observers, so a
//! traced run is still the same run. Host-side data (wall clock, RSS)
//! never enters the manifest either — it lives in the separate
//! host-profile export, which *references* the `run_id`.
//!
//! The `run_id` is exactly the content-addressed cache key the ROADMAP
//! sweep orchestrator (item 5) needs: artifact already exists for this
//! `run_id` → skip the cell.

use crate::config::SystemConfig;
use crate::json::Value;
use crate::replay::config_to_json;
use cmpsim_engine::rng::splitmix64;
use cmpsim_protocols::ProtocolKind;
use cmpsim_workloads::Benchmark;

/// Schema tag of the manifest object itself.
pub const MANIFEST_SCHEMA: &str = "cmpsim-manifest-v1";

/// Schema tags/versions of every artifact family this tool emits, in a
/// fixed order. They are part of the content hash: bumping any artifact
/// schema re-keys all runs, which is intended — the artifacts are no
/// longer interchangeable with the old ones.
pub const ARTIFACT_SCHEMAS: &[(&str, &str)] = &[
    ("crashdump", "2"),
    ("breakdown", "cmpsim-breakdown-v1"),
    ("manifest", MANIFEST_SCHEMA),
    ("compare", "cmpsim-compare-v1"),
    ("progress", "cmpsim-progress-v1"),
    ("hostprofile", "cmpsim-hostprofile-v1"),
    ("vmstat", "cmpsim-vmstat-v1"),
    ("heatmap", "cmpsim-heatmap-v1"),
    ("sweep", "cmpsim-sweep-v1"),
];

/// Provenance record of one simulation run, embedded in every JSON
/// artifact under the `"manifest"` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Content hash over (config, protocol, benchmark, schema
    /// versions, tool version), as 16 lowercase hex digits.
    pub run_id: String,
    /// Content hash of the canonical config JSON alone (shared by the
    /// whole protocol matrix of one configuration).
    pub config_digest: String,
    /// Emitting tool name.
    pub tool: &'static str,
    /// Emitting tool version (crate version).
    pub tool_version: &'static str,
    /// Protocol report name.
    pub protocol: String,
    /// Benchmark report name.
    pub benchmark: String,
    /// PRNG seed (also inside the hashed config; surfaced for humans).
    pub seed: u64,
    /// References per core (the run-length knob).
    pub refs_per_core: u64,
    /// VM placement, `matched` or `alternative`.
    pub placement: String,
    /// Fault plan spec (`mode@seed`), or `None` for fault-free runs.
    pub fault_spec: Option<String>,
}

/// FNV-1a over `bytes` folded into `h`, with a splitmix64 finalizer so
/// single-bit input changes diffuse through all 64 output bits.
pub(crate) fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut state = h;
    splitmix64(&mut state)
}

pub(crate) fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

impl RunManifest {
    /// Builds the manifest of one (protocol, benchmark, config) cell.
    pub fn new(protocol: ProtocolKind, benchmark: Benchmark, cfg: &SystemConfig) -> Self {
        let mut canon = String::new();
        config_to_json(cfg).render_to(&mut canon);
        let config_digest = digest(canon.as_bytes());

        let mut keyed = canon;
        keyed.push('\n');
        keyed.push_str(protocol.name());
        keyed.push('\n');
        keyed.push_str(benchmark.name());
        for (name, tag) in ARTIFACT_SCHEMAS {
            keyed.push('\n');
            keyed.push_str(name);
            keyed.push('=');
            keyed.push_str(tag);
        }
        keyed.push('\n');
        keyed.push_str(env!("CARGO_PKG_VERSION"));

        Self {
            run_id: hex16(digest(keyed.as_bytes())),
            config_digest: hex16(config_digest),
            tool: "cmpsim",
            tool_version: env!("CARGO_PKG_VERSION"),
            protocol: protocol.name().to_string(),
            benchmark: benchmark.name().to_string(),
            seed: cfg.seed,
            refs_per_core: cfg.refs_per_core,
            placement: match cfg.placement {
                cmpsim_virt::Placement::Matched => "matched".to_string(),
                cmpsim_virt::Placement::Alternative => "alternative".to_string(),
            },
            fault_spec: cfg.fault_plan.as_ref().map(|p| p.spec()),
        }
    }

    /// The manifest as a JSON value (the `"manifest"` artifact field).
    pub fn to_value(&self) -> Value {
        let mut schemas = Value::object();
        for (name, tag) in ARTIFACT_SCHEMAS {
            schemas.set(name, Value::string(tag));
        }
        let mut j = Value::object();
        j.set("schema", Value::string(MANIFEST_SCHEMA));
        j.set("run_id", Value::string(&self.run_id));
        j.set("config_digest", Value::string(&self.config_digest));
        j.set("tool", Value::string(self.tool));
        j.set("tool_version", Value::string(self.tool_version));
        j.set("protocol", Value::string(&self.protocol));
        j.set("benchmark", Value::string(&self.benchmark));
        j.set("seed", Value::uint(self.seed));
        j.set("refs_per_core", Value::uint(self.refs_per_core));
        j.set("placement", Value::string(&self.placement));
        j.set(
            "fault_spec",
            match &self.fault_spec {
                Some(s) => Value::string(s),
                None => Value::Null,
            },
        );
        j.set("schemas", schemas);
        j
    }

    /// Standalone manifest JSON document (`D/T.manifest.json`).
    pub fn to_json(&self) -> String {
        self.to_value().to_document()
    }

    /// Reads a manifest back from an artifact's `"manifest"` field.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let schema = v.field("schema")?.as_str()?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!("unsupported manifest schema {schema:?}"));
        }
        Ok(Self {
            run_id: v.field("run_id")?.as_str()?.to_string(),
            config_digest: v.field("config_digest")?.as_str()?.to_string(),
            tool: "cmpsim",
            tool_version: env!("CARGO_PKG_VERSION"),
            protocol: v.field("protocol")?.as_str()?.to_string(),
            benchmark: v.field("benchmark")?.as_str()?.to_string(),
            seed: v.field("seed")?.as_u64()?,
            refs_per_core: v.field("refs_per_core")?.as_u64()?,
            placement: v.field("placement")?.as_str()?.to_string(),
            fault_spec: match v.field("fault_spec")? {
                Value::Null => None,
                other => Some(other.as_str()?.to_string()),
            },
        })
    }
}

/// Reads the manifest embedded in an artifact JSON document, if any.
pub fn manifest_of(doc: &Value) -> Option<RunManifest> {
    doc.field("manifest").ok().and_then(|m| RunManifest::from_value(m).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SystemConfig {
        SystemConfig::smoke()
    }

    #[test]
    fn same_inputs_same_id() {
        let a = RunManifest::new(ProtocolKind::DiCo, Benchmark::Apache, &base());
        let b = RunManifest::new(ProtocolKind::DiCo, Benchmark::Apache, &base());
        assert_eq!(a, b);
        assert_eq!(a.run_id.len(), 16);
    }

    #[test]
    fn any_input_change_changes_id() {
        let a = RunManifest::new(ProtocolKind::DiCo, Benchmark::Apache, &base());
        let ids = [
            RunManifest::new(ProtocolKind::Directory, Benchmark::Apache, &base()),
            RunManifest::new(ProtocolKind::DiCo, Benchmark::Radix, &base()),
            RunManifest::new(ProtocolKind::DiCo, Benchmark::Apache, &base().with_seed(99)),
            RunManifest::new(ProtocolKind::DiCo, Benchmark::Apache, &base().with_refs(777)),
            RunManifest::new(
                ProtocolKind::DiCo,
                Benchmark::Apache,
                &base().with_fault_plan(Some(cmpsim_engine::FaultPlan::recoverable(7))),
            ),
        ];
        for other in &ids {
            assert_ne!(a.run_id, other.run_id);
        }
    }

    #[test]
    fn observability_knobs_do_not_change_id() {
        let plain = RunManifest::new(ProtocolKind::DiCoArin, Benchmark::Jbb, &base());
        let traced = RunManifest::new(
            ProtocolKind::DiCoArin,
            Benchmark::Jbb,
            &base().with_tracing().with_interval(500).with_attribution(),
        );
        assert_eq!(plain.run_id, traced.run_id);
    }
}
