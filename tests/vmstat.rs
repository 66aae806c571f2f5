//! Integration tests for tenant-level and spatial observability: the
//! per-VM attribution buckets and the cross-VM interference matrix
//! must tile the chip-wide aggregates bit-for-bit on every protocol x
//! benchmark cell, the spatial counters must tile the NoC/protocol
//! counters, and the exported artifacts must be byte-deterministic
//! and schema-shaped.

use cmpsim::replay::Value;
use cmpsim::report::breakdown_json;
use cmpsim::vmstat::{heatmap_csv, heatmap_json, vmstat_json};
use cmpsim::{run_benchmark, Benchmark, ProtocolKind, RunResult, SystemConfig};
use cmpsim_engine::phase::Phase;
use cmpsim_engine::EventCounts;

fn cfg() -> SystemConfig {
    let mut c = SystemConfig::smoke();
    c.attribution = true;
    c
}

fn check_cell(r: &RunResult) {
    let what = format!("{} on {}", r.protocol.name(), r.benchmark.name());
    let b = r.breakdown.as_ref().expect("attribution enabled");

    // Per-VM buckets tile every chip-wide attribution aggregate
    // bit-for-bit.
    assert_eq!(b.vm.len(), b.num_vms, "{what}: one bucket per VM");
    assert_eq!(b.vm.iter().map(|v| v.completed).sum::<u64>(), b.completed, "{what}: completed");
    assert_eq!(
        b.vm.iter().map(|v| v.latency_cycles).sum::<u64>(),
        b.latency_cycles,
        "{what}: latency"
    );
    assert_eq!(
        b.vm.iter().map(|v| v.mshr_wait_cycles).sum::<u64>(),
        b.mshr_wait_cycles,
        "{what}: mshr wait"
    );
    assert_eq!(
        b.vm.iter().map(|v| v.retry_wait_cycles).sum::<u64>(),
        b.retry_wait_cycles,
        "{what}: retry wait"
    );
    assert_eq!(b.vm.iter().map(|v| v.open_txs).sum::<u64>(), b.open_txs, "{what}: open");
    for p in Phase::all() {
        assert_eq!(
            b.vm.iter().map(|v| v.phase_cycles.get(p)).sum::<u64>(),
            b.phase_cycles.get(p),
            "{what}: phase {}",
            p.key()
        );
    }
    let mut vm_counts = EventCounts::default();
    for v in &b.vm {
        vm_counts.merge(&v.counts);
    }
    assert_eq!(vm_counts, b.tx_counts, "{what}: energy-event counts");
    let mut tile_sum = EventCounts::default();
    for c in &b.tile_counts {
        tile_sum.merge(c);
    }
    assert_eq!(tile_sum, b.tx_counts, "{what}: per-tile counts");
    for (i, v) in b.vm.iter().enumerate() {
        assert_eq!(v.intra_txs + v.cross_txs, v.completed, "{what}: vm{i} intra/cross partition");
    }

    // The interference matrix is consistent with the per-VM buckets
    // and the chip-wide attributed network counts.
    assert_eq!(b.matrix.len(), b.num_vms * b.num_vms, "{what}: matrix shape");
    let stolen_cells: u64 = b.matrix.iter().map(|c| c.stolen_cycles).sum();
    let stolen_vms: u64 = b.vm.iter().map(|v| v.stolen_cycles).sum();
    assert_eq!(stolen_cells, stolen_vms, "{what}: stolen cycles tile");
    for a in 0..b.num_vms {
        assert_eq!(
            b.matrix_cell(a, a).stolen_cycles,
            0,
            "{what}: stolen cycles are cross-VM by construction"
        );
    }
    let total = b.total_counts();
    assert_eq!(
        b.matrix.iter().map(|c| c.routing).sum::<u64>(),
        total.routing,
        "{what}: matrix routing tiles the attributed total"
    );
    assert_eq!(
        b.matrix.iter().map(|c| c.flit_links).sum::<u64>(),
        total.flit_links,
        "{what}: matrix flit-links tile the attributed total"
    );

    // Spatial grids tile the chip-wide NoC/protocol counters.
    let s = r.spatial.as_ref().expect("spatial counters");
    assert_eq!((s.rows * s.cols) as usize, s.tile_misses.len(), "{what}: mesh shape");
    assert_eq!(
        s.tile_misses.iter().sum::<u64>(),
        r.proto_stats.l1_misses.get(),
        "{what}: tile misses"
    );
    assert_eq!(s.tile_refs.iter().sum::<u64>(), r.measured_refs, "{what}: tile refs");
    assert_eq!(
        s.link_flits.iter().sum::<u64>(),
        r.noc_stats.flit_link_traversals.get(),
        "{what}: link flits"
    );
    assert_eq!(
        s.link_contention.iter().sum::<u64>(),
        r.noc_stats.contention_cycles.get(),
        "{what}: link contention"
    );
    assert_eq!(s.vm_of.len(), s.tile_misses.len(), "{what}: vm map");
}

/// The tiling invariants hold on every protocol x benchmark cell.
#[test]
fn vm_buckets_and_matrix_tile_chip_aggregates_everywhere() {
    let cfg = cfg();
    for &p in &ProtocolKind::all() {
        for &bench in Benchmark::all().iter() {
            let r = run_benchmark(p, bench, &cfg).expect("run");
            check_cell(&r);
        }
    }
}

/// The vmstat and heatmap artifacts are byte-deterministic across
/// reruns and carry the run manifest.
#[test]
fn tenant_artifacts_are_deterministic_and_stamped() {
    let cfg = cfg();
    let a = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Jbb, &cfg).expect("run");
    let b = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Jbb, &cfg).expect("run");
    let (av, bv) = (vmstat_json(std::slice::from_ref(&a)), vmstat_json(std::slice::from_ref(&b)));
    assert_eq!(av, bv, "vmstat artifact must stay byte-deterministic");
    let (ah, bh) = (heatmap_json(std::slice::from_ref(&a)), heatmap_json(std::slice::from_ref(&b)));
    assert_eq!(ah, bh, "heatmap artifact must stay byte-deterministic");
    assert_eq!(
        heatmap_csv(std::slice::from_ref(&a)),
        heatmap_csv(std::slice::from_ref(&b)),
        "heatmap CSV must stay byte-deterministic"
    );

    let doc = Value::parse(&av).expect("vmstat parses");
    assert_eq!(doc.field("schema").unwrap().as_str().unwrap(), "cmpsim-vmstat-v1");
    let Value::Arr(manifests) = doc.field("manifests").unwrap() else {
        panic!("manifests missing")
    };
    assert_eq!(
        manifests[0].field("run_id").unwrap().as_str().unwrap(),
        a.manifest.as_ref().unwrap().run_id
    );
    let doc = Value::parse(&ah).expect("heatmap parses");
    assert_eq!(doc.field("schema").unwrap().as_str().unwrap(), "cmpsim-heatmap-v1");
}

/// A matrix view over several benchmarks names each entry's benchmark,
/// and names one at the top level only when every entry shares it.
#[test]
fn matrix_views_name_each_cells_benchmark() {
    let cfg = cfg();
    let rs: Vec<RunResult> = [Benchmark::Apache, Benchmark::Radix]
        .into_iter()
        .map(|b| run_benchmark(ProtocolKind::DiCo, b, &cfg).expect("run"))
        .collect();
    for (json, key) in [
        (breakdown_json(&rs), "protocols"),
        (vmstat_json(&rs), "protocols"),
        (heatmap_json(&rs), "grids"),
    ] {
        let doc = Value::parse(&json).expect("parses");
        assert!(doc.field("benchmark").is_err(), "two benchmarks share no top-level name");
        let Value::Arr(entries) = doc.field(key).unwrap() else { panic!("{key} missing") };
        let named: Vec<&str> =
            entries.iter().map(|e| e.field("benchmark").unwrap().as_str().unwrap()).collect();
        let want: Vec<&str> = rs.iter().map(|r| r.benchmark.name()).collect();
        assert_eq!(named, want, "{key}");
        let Value::Obj(fields) = &entries[0] else { panic!("entry is not an object") };
        let order: Vec<&str> = fields.iter().take(2).map(|(k, _)| k.as_str()).collect();
        assert_eq!(order, ["protocol", "benchmark"]);
    }
    let one = Value::parse(&heatmap_json(&rs[..1])).unwrap();
    assert_eq!(one.field("benchmark").unwrap().as_str().unwrap(), rs[0].benchmark.name());
}

/// The per-VM finish gauges published under the `vm.` namespace match
/// the legacy `sim.vm_finish.` series.
#[test]
fn vm_finish_metrics_alias() {
    let r = run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &cfg()).expect("run");
    let reg = r.metrics();
    for (i, v) in r.vm_finish.iter().enumerate() {
        let lookup = |name: &str| {
            reg.gauges().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("{name} missing")).1
        };
        assert_eq!(lookup(&format!("vm.{i}.finish_cycles")), *v);
        assert_eq!(lookup(&format!("sim.vm_finish.{i}")), *v);
    }
}
