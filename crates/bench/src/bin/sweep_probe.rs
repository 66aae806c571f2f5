//! Developer probe: one-line summaries (throughput, miss rates, energy,
//! broadcast counts, miss classes) for all four protocols on one
//! benchmark. Usage: `sweep_probe [refs_per_core] [apache|jbb|radix]`.

use cmpsim::*;
fn main() {
    let refs: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(40_000);
    let bench = match std::env::args().nth(2).as_deref() {
        Some("jbb") => Benchmark::Jbb,
        Some("radix") => Benchmark::Radix,
        _ => Benchmark::Apache,
    };
    let cfg = SystemConfig::paper().with_refs(refs);
    let results = run_matrix(&ProtocolKind::all(), &[bench], &cfg, RunOptions::default())
        .expect("simulation failed");
    let base = results[0].total_dynamic_nj();
    let base_perf = results[0].performance();
    for r in &results {
        println!(
            "{:<15} thr={:.4} ({:+.1}%) l1mr={:.3} l2mr={:.3} cache={:.0}uJ net={:.0}uJ tot({:+.1}%) bcasts={} links/msg={:.1} provhits={:.2}",
            r.protocol.name(), r.throughput(),
            100.0*(r.performance()/base_perf-1.0),
            r.l1_miss_rate(), r.l2_miss_rate(),
            r.cache_energy.total()/1000.0, r.net_energy.total()/1000.0,
            100.0*(r.total_dynamic_nj()/base-1.0),
            r.proto_stats.broadcast_invs.get(),
            r.avg_links_per_message(),
            r.miss_class_frac(MissClass::PredictedProviderHit),
        );
        println!("    classes: {:?}", r.proto_stats.miss_class);
    }
}
