//! Whole-system integration tests: every protocol drives the full
//! simulator (cores + NoC + memory controllers + VMs + deduplication)
//! to completion on several workloads, deterministically.

use cmpsim::{
    run_benchmark, run_matrix, Benchmark, Placement, ProtocolKind, RunOptions, SystemConfig,
};

#[test]
fn all_protocols_complete_all_benchmarks_small() {
    let cfg = SystemConfig::small();
    for kind in ProtocolKind::all() {
        for bench in Benchmark::all() {
            let r = run_benchmark(kind, bench, &cfg)
                .unwrap_or_else(|e| panic!("{kind:?}/{}: {e}", bench.name()));
            assert!(r.measured_refs > 0, "{kind:?}/{}", bench.name());
            assert!(r.cycles > 0);
            assert!(r.proto_stats.l1_hits.get() > 0, "{kind:?}/{} produced no hits", bench.name());
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let cfg = SystemConfig::small();
    for kind in ProtocolKind::all() {
        let a = run_benchmark(kind, Benchmark::Apache, &cfg).expect("run");
        let b = run_benchmark(kind, Benchmark::Apache, &cfg).expect("run");
        assert_eq!(a.cycles, b.cycles, "{kind:?}");
        assert_eq!(a.proto_stats.l1_misses.get(), b.proto_stats.l1_misses.get());
        assert_eq!(a.noc_stats.flit_link_traversals.get(), b.noc_stats.flit_link_traversals.get());
    }
}

#[test]
fn alternative_placement_completes_for_all_protocols() {
    let cfg = SystemConfig::small().with_placement(Placement::Alternative);
    for kind in ProtocolKind::all() {
        let r = run_benchmark(kind, Benchmark::Apache, &cfg).expect("run");
        assert!(r.measured_refs > 0, "{kind:?}");
    }
}

#[test]
fn matrix_matches_individual_runs() {
    let cfg = SystemConfig::smoke();
    let protocols = [ProtocolKind::Directory, ProtocolKind::DiCoArin];
    let benchmarks = [Benchmark::Radix];
    let matrix = run_matrix(&protocols, &benchmarks, &cfg, RunOptions::default()).expect("matrix");
    for (i, &kind) in protocols.iter().enumerate() {
        let solo = run_benchmark(kind, Benchmark::Radix, &cfg).expect("run");
        assert_eq!(matrix[i].cycles, solo.cycles, "{kind:?}");
    }
}

#[test]
fn energy_accounting_is_consistent() {
    let cfg = SystemConfig::small();
    let r = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Apache, &cfg).expect("run");
    // The breakdowns must add up to the totals.
    let e = &r.cache_energy;
    assert!((e.l1_tag + e.l1_data + e.l2_tag + e.l2_data + e.aux - e.total()).abs() < 1e-9);
    let n = &r.net_energy;
    assert!((n.links + n.routing - n.total()).abs() < 1e-9);
    // Network energy follows the traffic counters through the paper's
    // route = 4 flits relation.
    assert!(n.routing > 0.0 && n.links > 0.0);
    let ratio = n.links / n.routing;
    let flits_per_hop =
        r.noc_stats.flit_link_traversals.get() as f64 / r.noc_stats.routing_events.get() as f64;
    assert!((ratio - flits_per_hop / 4.0).abs() < 1e-6);
}

#[test]
fn arin_broadcasts_appear_under_l2_pressure() {
    // JBB (huge working set) must trigger shared-between-areas L2
    // replacements -> broadcast invalidations in DiCo-Arin.
    let cfg = SystemConfig::small().with_refs(3_000);
    let arin = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Jbb, &cfg).expect("run");
    assert!(arin.proto_stats.broadcast_invs.get() > 0, "JBB under DiCo-Arin should broadcast");
    // ...and the other protocols never broadcast.
    for kind in [ProtocolKind::Directory, ProtocolKind::DiCo, ProtocolKind::DiCoProviders] {
        let r = run_benchmark(kind, Benchmark::Jbb, &cfg).expect("run");
        assert_eq!(r.proto_stats.broadcast_invs.get(), 0, "{kind:?}");
    }
}

#[test]
fn dedup_pages_are_shared_across_vms() {
    // Apache has the highest dedup-access probability; a few thousand
    // references per core touch enough of the shared pool for the
    // hypervisor-level savings to become clearly visible.
    let cfg = SystemConfig::small().with_refs(4_000);
    let r = run_benchmark(ProtocolKind::Directory, Benchmark::Apache, &cfg).expect("run");
    assert!(r.dedup_savings > 0.10, "apache savings {}", r.dedup_savings);
}

#[test]
fn mixed_sci_reports_per_vm_times() {
    // mixed-sci runs a different profile per VM; the per-VM execution
    // times (the paper's ExecTime metric) must be populated and differ.
    let cfg = SystemConfig::small().with_refs(1_500);
    let r = run_benchmark(ProtocolKind::DiCo, Benchmark::MixedSci, &cfg).expect("run");
    assert_eq!(r.vm_finish.len(), 4);
    assert!(r.vm_finish.iter().all(|&t| t > 0.0));
    // Different workloads per VM -> measurably different finish times.
    assert!(r.vm_imbalance() > 1.0);
}
