//! Results of one simulation run, with the derived metrics every report
//! uses.

use crate::attr::BreakdownLog;
use crate::error::FaultContext;
use crate::interval::TimeSeries;
use crate::json::Value;
use crate::trace::TraceLog;
use cmpsim_engine::metrics::{MetricSource, MetricsRegistry};
use cmpsim_engine::{Cycle, FaultKind, HostProfile};

/// Timing-invariant summary of the architectural end state of a run,
/// keyed on logical (VM-relative) coordinates. Two runs over the same
/// configuration whose injected faults were all *recovered* must
/// compare equal here even though their cycle counts differ — the
/// differential check ([`ArchState::divergence`]) behind every planned
/// sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchState {
    /// splitmix64-chained digest over every `(vm, region, page index,
    /// block offset, committed version)` tuple with a nonzero version.
    pub version_digest: u64,
    /// Blocks with at least one committed write.
    pub versioned_blocks: u64,
    /// Copy-on-write faults taken by the hypervisor.
    pub cow_faults: u64,
    /// Logical pages mapped across all VMs.
    pub logical_pages: u64,
    /// Physical pages allocated.
    pub physical_pages: u64,
    /// References retired over the whole run (warm-up included).
    pub refs_done: u64,
}

impl ArchState {
    /// The fields by name, as the `arch.*` metrics counters publish them.
    fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("version_digest", self.version_digest),
            ("versioned_blocks", self.versioned_blocks),
            ("cow_faults", self.cow_faults),
            ("logical_pages", self.logical_pages),
            ("physical_pages", self.physical_pages),
            ("refs_done", self.refs_done),
        ]
    }

    /// Reads the state back from a metrics artifact's `arch.*`
    /// counters; `None` when any is missing.
    pub fn from_metrics(doc: &Value) -> Option<Self> {
        let counters = doc.field("counters").ok()?;
        let get = |name: &str| counters.field(&format!("arch.{name}")).ok()?.as_u64().ok();
        Some(Self {
            version_digest: get("version_digest")?,
            versioned_blocks: get("versioned_blocks")?,
            cow_faults: get("cow_faults")?,
            logical_pages: get("logical_pages")?,
            physical_pages: get("physical_pages")?,
            refs_done: get("refs_done")?,
        })
    }

    /// The differential check of fault recovery: compares a faulty
    /// run's end state with its fault-free golden twin's (`self`).
    /// `None` when they are equal, else every mismatched field.
    pub fn divergence(&self, faulty: &ArchState) -> Option<String> {
        let parts: Vec<String> = self
            .fields()
            .into_iter()
            .zip(faulty.fields())
            .filter(|((_, g), (_, f))| g != f)
            .map(|((name, g), (_, f))| format!("{name}: golden={g} faulty={f}"))
            .collect();
        (!parts.is_empty()).then(|| parts.join("; "))
    }
}
/// Spatial (per-tile, per-link) counters of the measured window — the
/// raw grids behind the heatmap exports. Row-major tile order; links
/// are indexed `tile * 4 + direction` (East, West, North, South), the
/// mesh's directed-link layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpatialLog {
    /// Mesh rows.
    pub rows: u64,
    /// Mesh columns.
    pub cols: u64,
    /// Flits each directed link carried.
    pub link_flits: Vec<u64>,
    /// Stall cycles each directed link charged (splits the chip-wide
    /// `contention_cycles` counter).
    pub link_contention: Vec<u64>,
    /// L1 misses each tile opened.
    pub tile_misses: Vec<u64>,
    /// References each tile retired.
    pub tile_refs: Vec<u64>,
    /// The VM each tile's core belongs to.
    pub vm_of: Vec<usize>,
}

use cmpsim_noc::NocStats;
use cmpsim_power::{CacheEnergy, EnergyModel, NetworkEnergy};
use cmpsim_protocols::{MissClass, ProtoStats, ProtocolKind};
use cmpsim_virt::Placement;
use cmpsim_workloads::{Benchmark, Metric};

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Protocol simulated.
    pub protocol: ProtocolKind,
    /// Benchmark configuration.
    pub benchmark: Benchmark,
    /// VM placement used.
    pub placement: Placement,
    /// Tiles on the chip (energy-model geometry).
    pub tiles: u64,
    /// Consolidation areas on the chip (energy-model geometry).
    pub areas: u64,
    /// Measured cycles (post-warm-up until the last core finished).
    pub cycles: Cycle,
    /// References completed in the measured window.
    pub measured_refs: u64,
    /// Mean per-core completion time (post-warm-up), cycles.
    pub avg_finish: f64,
    /// Mean completion time per VM (paper Table IV: "average execution
    /// time of all the VMs"), cycles, indexed by VM id.
    pub vm_finish: Vec<f64>,
    /// Raw protocol event counts.
    pub proto_stats: ProtoStats,
    /// Raw network counts.
    pub noc_stats: NocStats,
    /// Cache dynamic energy (nJ), Figure 8a categories.
    pub cache_energy: CacheEnergy,
    /// Network dynamic energy (nJ), Figure 8b categories.
    pub net_energy: NetworkEnergy,
    /// Memory saved by deduplication (Table IV metric).
    pub dedup_savings: f64,
    /// Interval time-series, when sampling was enabled.
    pub timeseries: Option<TimeSeries>,
    /// Coherence-transaction trace, when tracing was enabled.
    pub trace: Option<TraceLog>,
    /// Per-transaction latency/energy attribution, when enabled.
    pub breakdown: Option<BreakdownLog>,
    /// Per-tile / per-link counters of the measured window (set by the
    /// simulator after a completed run; `None` only for hand-assembled
    /// results).
    pub spatial: Option<SpatialLog>,
    /// Architectural end state (set by the simulator after a completed
    /// run; `None` only for hand-assembled results).
    pub arch: Option<ArchState>,
    /// Fault plan and fired-fault counters, when the run executed under
    /// fault injection.
    pub faults: Option<FaultContext>,
    /// Cycles of the fault-free golden twin, set by the sweep when this
    /// run executed under fault injection and its end state was
    /// verified against the twin ([`ArchState::divergence`]).
    /// `cycles - effective_cycles` is the timing overhead the injected
    /// faults caused.
    pub effective_cycles: Option<Cycle>,
    /// Host-side self-profile (wall-clock; nondeterministic — kept out
    /// of every deterministic artifact, printed to stderr only).
    pub host: HostProfile,
    /// Provenance manifest of the run (set by the simulator; `None`
    /// only for hand-assembled results). Stamped into every JSON
    /// artifact derived from this result.
    pub manifest: Option<crate::manifest::RunManifest>,
}

impl RunResult {
    /// Assembles a result, computing the energy breakdowns.
    #[allow(clippy::too_many_arguments)]
    pub fn collect(
        protocol: ProtocolKind,
        benchmark: Benchmark,
        placement: Placement,
        tiles: u64,
        areas: u64,
        cycles: Cycle,
        measured_refs: u64,
        avg_finish: f64,
        vm_finish: Vec<f64>,
        proto_stats: &ProtoStats,
        noc_stats: &NocStats,
        dedup_savings: f64,
    ) -> Self {
        let model = EnergyModel::new(protocol, tiles, areas);
        Self {
            protocol,
            benchmark,
            placement,
            tiles,
            areas,
            cycles,
            measured_refs,
            avg_finish,
            vm_finish,
            cache_energy: model.cache_energy(proto_stats),
            net_energy: model.network_energy(noc_stats),
            proto_stats: proto_stats.clone(),
            noc_stats: noc_stats.clone(),
            dedup_savings,
            timeseries: None,
            trace: None,
            breakdown: None,
            spatial: None,
            arch: None,
            faults: None,
            effective_cycles: None,
            host: HostProfile::default(),
            manifest: None,
        }
    }

    /// Publishes every measured quantity into one hierarchically named
    /// [`MetricsRegistry`] — the unified export surface behind the
    /// `D/T.metrics.json` files of `cmpsim-cli ... --out-dir D`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("sim.cycles", self.cycles);
        reg.set_counter("sim.measured_refs", self.measured_refs);
        reg.set_gauge("sim.throughput", self.throughput());
        reg.set_gauge("sim.avg_finish", self.avg_finish);
        reg.set_gauge("sim.dedup_savings", self.dedup_savings);
        for (i, v) in self.vm_finish.iter().enumerate() {
            reg.set_gauge(&format!("sim.vm_finish.{i}"), *v);
            // Tenant-facing alias: the per-VM namespace groups every
            // per-tenant series under one prefix.
            reg.set_gauge(&format!("vm.{i}.finish_cycles"), *v);
        }
        self.proto_stats.publish("proto", &mut reg);
        self.noc_stats.publish("noc", &mut reg);
        self.cache_energy.publish("energy.cache", &mut reg);
        self.net_energy.publish("energy.net", &mut reg);
        reg.set_gauge("energy.dynamic_total_nj", self.total_dynamic_nj());
        if let Some(t) = &self.trace {
            reg.set_counter("trace.completed_txs", t.completed_txs);
            reg.set_counter("trace.tx_hops", t.tx_hops);
            reg.set_counter("trace.untracked_hops", t.untracked_hops);
            reg.set_counter("trace.buffered_events", t.ring.len() as u64);
            reg.set_counter("trace.dropped_events", t.ring.dropped());
        }
        if let Some(fc) = &self.faults {
            reg.set_counter("noc.faults_injected.total", fc.fired.total());
            for kind in FaultKind::all() {
                reg.set_counter(
                    &format!("noc.faults_injected.{}", kind.label()),
                    fc.fired.count(kind),
                );
            }
        }
        if let Some(arch) = &self.arch {
            for (name, v) in arch.fields() {
                reg.set_counter(&format!("arch.{name}"), v);
            }
        }
        if let Some(ec) = self.effective_cycles {
            reg.set_counter("sim.effective_cycles", ec);
            reg.set_counter("sim.fault_overhead_cycles", self.cycles.saturating_sub(ec));
        }
        if let Some(b) = &self.breakdown {
            b.publish("attr", &mut reg);
            let model = self.energy_model();
            reg.set_gauge("attr.energy.tx_nj", self.counts_nj(&model, &b.tx_counts));
            reg.set_gauge("attr.energy.untracked_nj", self.counts_nj(&model, &b.untracked_counts));
        }
        reg
    }

    /// The energy table this result was collected with.
    pub fn energy_model(&self) -> EnergyModel {
        EnergyModel::new(self.protocol, self.tiles, self.areas)
    }

    /// Total dynamic energy (nJ) of one attributed event-count bucket.
    pub fn counts_nj(&self, model: &EnergyModel, c: &cmpsim_engine::EventCounts) -> f64 {
        model.counts_cache_energy(c).total() + model.counts_network_energy(c).total()
    }

    /// `D/T.metrics.json`: the registry as deterministic JSON, led by
    /// the run's provenance manifest.
    pub fn metrics_json(&self) -> String {
        self.artifact(metrics_value(&self.metrics()))
    }

    /// `D/T.trace.json`: the Chrome trace-event document of a traced
    /// run, its process labelled `<protocol> on <benchmark>`.
    pub fn trace_json(&self) -> Option<String> {
        let label = format!("{} on {}", self.protocol.name(), self.benchmark.name());
        self.trace.as_ref().map(|t| self.artifact(t.to_value(&label)))
    }

    /// `D/T.series.json`: the interval time series of a sampled run.
    pub fn series_json(&self) -> Option<String> {
        self.timeseries.as_ref().map(|ts| self.artifact(ts.to_value()))
    }

    /// `D/host/T.json`: the host self-profile (wall clock, RSS), keyed
    /// to the deterministic artifacts by the manifest's `run_id` only.
    pub fn host_json(&self) -> String {
        let h = &self.host;
        let mut j = Value::object();
        j.set("schema", Value::string("cmpsim-hostprofile-v1"));
        j.set("run_id", self.manifest.as_ref().map_or(Value::Null, |m| Value::string(&m.run_id)));
        j.set("events", Value::uint(h.events));
        j.set("cycles", Value::uint(h.cycles));
        j.set("total_ns", Value::uint(h.total_ns()));
        j.set("events_per_sec", Value::Num(format!("{:.3}", h.events_per_sec())));
        j.set("cycles_per_sec", Value::Num(format!("{:.3}", h.cycles_per_sec())));
        j.set("peak_rss_bytes", Value::uint(h.peak_rss_bytes));
        let spans = h.spans.iter().map(|&(name, ns)| {
            let mut s = Value::object();
            s.set("name", Value::string(name));
            s.set("ns", Value::uint(ns));
            s
        });
        j.set("spans", Value::Arr(spans.collect()));
        j.to_document()
    }

    /// Renders `doc` as an artifact file, with the run's manifest (when
    /// it has one) inserted as the leading `"manifest"` field.
    fn artifact(&self, mut doc: Value) -> String {
        if let (Some(m), Value::Obj(fields)) = (&self.manifest, &mut doc) {
            fields.insert(0, ("manifest".to_string(), m.to_value()));
        }
        doc.to_document()
    }

    /// References per cycle across the whole chip (the throughput
    /// metric: transactions in a fixed cycle budget).
    pub fn throughput(&self) -> f64 {
        self.measured_refs as f64 / self.cycles as f64
    }

    /// The paper's per-benchmark performance score, normalized so that
    /// **bigger is better** for both metric classes.
    pub fn performance(&self) -> f64 {
        match self.benchmark.metric() {
            Metric::Throughput => self.throughput(),
            // Average execution time: invert so bigger is better.
            Metric::ExecTime => 1.0 / self.avg_finish.max(1.0),
        }
    }

    /// Total dynamic energy, nanojoules (caches + network).
    pub fn total_dynamic_nj(&self) -> f64 {
        self.cache_energy.total() + self.net_energy.total()
    }

    /// Total dynamic energy, microjoules.
    pub fn total_dynamic_uj(&self) -> f64 {
        self.total_dynamic_nj() / 1000.0
    }

    /// L1 miss rate over the measured window.
    pub fn l1_miss_rate(&self) -> f64 {
        let s = &self.proto_stats;
        s.l1_misses.get() as f64 / s.accesses.get().max(1) as f64
    }

    /// Off-chip accesses per L2-reaching request — a proxy for the L2
    /// miss rate the paper quotes (>40% for JBB).
    pub fn l2_miss_rate(&self) -> f64 {
        let s = &self.proto_stats;
        s.mem_reads.get() as f64 / s.l1_misses.get().max(1) as f64
    }

    /// Figure 9b: fraction of completed misses in `class`.
    pub fn miss_class_frac(&self, class: MissClass) -> f64 {
        let total: u64 = MissClass::all().iter().map(|c| self.proto_stats.class_count(*c)).sum();
        self.proto_stats.class_count(class) as f64 / total.max(1) as f64
    }

    /// Average links traversed per network message (paper §V-D).
    pub fn avg_links_per_message(&self) -> f64 {
        self.noc_stats.links_per_message.mean()
    }

    /// Average L1-miss resolution latency in cycles (paper §V-D:
    /// shortened misses "cause a noticeable reduction in the average
    /// miss latency").
    pub fn avg_miss_latency(&self) -> f64 {
        self.proto_stats.miss_latency.mean()
    }

    /// Approximate p-th percentile of the miss latency (from the log2
    /// histogram; tail behaviour under contention).
    pub fn miss_latency_percentile(&self, p: f64) -> u64 {
        self.proto_stats.miss_latency_hist.percentile(p)
    }

    /// Spread between the slowest and fastest VM (fairness indicator;
    /// ~1.0 means the areas progressed evenly).
    pub fn vm_imbalance(&self) -> f64 {
        let max = self.vm_finish.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.vm_finish.iter().cloned().fold(f64::MAX, f64::min);
        if min > 0.0 {
            max / min
        } else {
            1.0
        }
    }
}

/// The registry as the `T.metrics.json` body: counters and gauges as
/// flat name→value objects, each histogram as a summary object with its
/// non-empty `[bucket, count]` pairs, all in name order.
fn metrics_value(reg: &MetricsRegistry) -> Value {
    let opt = |v: Option<u64>| v.map_or(Value::Null, Value::uint);
    let mut counters = Value::object();
    for (name, v) in reg.counters() {
        counters.set(name, Value::uint(v));
    }
    let mut gauges = Value::object();
    for (name, v) in reg.gauges() {
        gauges.set(name, Value::decimal(v));
    }
    let mut hists = Value::object();
    for (name, h) in reg.hists() {
        let s = h.summary();
        let mut j = Value::object();
        j.set("count", Value::uint(s.count()));
        j.set("sum", Value::uint(s.sum()));
        j.set("min", opt(s.min()));
        j.set("max", opt(s.max()));
        j.set("mean", Value::decimal(s.mean()));
        j.set("p50", Value::uint(h.percentile(50.0)));
        j.set("p99", Value::uint(h.percentile(99.0)));
        let pair = |(i, c): (usize, u64)| Value::Arr(vec![Value::uint(i as u64), Value::uint(c)]);
        j.set("buckets", Value::Arr(h.nonzero_buckets().map(pair).collect()));
        hists.set(name, j);
    }
    let mut doc = Value::object();
    doc.set("counters", counters);
    doc.set("gauges", gauges);
    doc.set("histograms", hists);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunResult {
        let mut stats = ProtoStats::default();
        stats.accesses.add(100);
        stats.l1_misses.add(20);
        stats.l1_hits.add(80);
        stats.mem_reads.add(5);
        stats.record_miss(MissClass::Memory, 100);
        stats.record_miss(MissClass::UnpredictedHome, 50);
        RunResult::collect(
            ProtocolKind::DiCo,
            Benchmark::Apache,
            Placement::Matched,
            64,
            4,
            1000,
            100,
            900.0,
            vec![900.0; 4],
            &stats,
            &NocStats::default(),
            0.2,
        )
    }

    #[test]
    fn throughput_is_refs_per_cycle() {
        let r = dummy();
        assert!((r.throughput() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn miss_rates() {
        let r = dummy();
        assert!((r.l1_miss_rate() - 0.2).abs() < 1e-12);
        assert!((r.l2_miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn miss_class_fractions_sum_to_one() {
        let r = dummy();
        let total: f64 = MissClass::all().iter().map(|c| r.miss_class_frac(*c)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_publish_vm_finish_namespace() {
        let reg = dummy().metrics();
        let vm: Vec<(&str, f64)> = reg
            .gauges()
            .filter(|(n, _)| n.starts_with("vm.") && n.ends_with(".finish_cycles"))
            .collect();
        assert_eq!(vm.len(), 4);
        assert!(vm.iter().all(|(_, v)| (*v - 900.0).abs() < 1e-9));
        // The legacy sim.vm_finish.* series stays published alongside.
        assert!(reg.gauges().any(|(n, _)| n == "sim.vm_finish.0"));
    }

    #[test]
    fn arch_state_round_trips_through_metrics_and_diffs_by_field() {
        let golden = ArchState {
            version_digest: u64::MAX,
            versioned_blocks: 2,
            cow_faults: 3,
            logical_pages: 4,
            physical_pages: 5,
            refs_done: 6,
        };
        let mut r = dummy();
        r.arch = Some(golden);
        let doc = Value::parse(&r.metrics_json()).unwrap();
        assert_eq!(ArchState::from_metrics(&doc), Some(golden));
        assert_eq!(ArchState::from_metrics(&Value::parse(&dummy().metrics_json()).unwrap()), None);
        assert_eq!(golden.divergence(&golden), None);
        let faulty = ArchState { version_digest: 1, refs_done: 7, ..golden };
        assert_eq!(
            golden.divergence(&faulty).as_deref(),
            Some("version_digest: golden=18446744073709551615 faulty=1; refs_done: golden=6 faulty=7")
        );
    }

    #[test]
    fn host_profile_lists_spans_and_run_id() {
        let mut r = dummy();
        r.host.spans = vec![("event_loop", 750), ("finalize", 250)];
        let doc = Value::parse(&r.host_json()).unwrap();
        assert_eq!(doc.field("schema").unwrap().as_str().unwrap(), "cmpsim-hostprofile-v1");
        assert_eq!(doc.field("run_id").unwrap(), &Value::Null);
        assert_eq!(doc.field("total_ns").unwrap().as_u64().unwrap(), 1000);
        let Value::Arr(spans) = doc.field("spans").unwrap() else { panic!("spans") };
        assert_eq!(spans[1].field("name").unwrap().as_str().unwrap(), "finalize");
        assert_eq!(spans[1].field("ns").unwrap().as_u64().unwrap(), 250);
    }

    #[test]
    fn vm_imbalance_of_even_vms_is_one() {
        let r = dummy();
        assert!((r.vm_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exec_time_metric_inverts() {
        let mut r = dummy();
        r.benchmark = Benchmark::Radix;
        assert!((r.performance() - 1.0 / 900.0).abs() < 1e-12);
    }
}
