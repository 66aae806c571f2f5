//! Quickstart: simulate one consolidated workload under one coherence
//! protocol and print what the paper's evaluation would report about it.
//!
//! ```text
//! cargo run --release --example quickstart [refs_per_core]
//! ```

use cmpsim::{run_benchmark, Benchmark, MissClass, ProtocolKind, SystemConfig};

fn main() {
    let refs = cmpsim_suite::refs_arg(10_000);
    // The paper's chip: 8x8 tiles, 4 areas, 4 VMs of 16 cores each,
    // memory deduplication on.
    let cfg = SystemConfig::paper().with_refs(refs);

    println!("simulating apache4x16p under DiCo-Arin ({refs} refs/core)...\n");
    let r =
        run_benchmark(ProtocolKind::DiCoArin, Benchmark::Apache, &cfg).expect("simulation failed");

    println!("protocol           : {}", r.protocol.name());
    println!("benchmark          : {}", r.benchmark.name());
    println!("measured cycles    : {}", r.cycles);
    println!("throughput         : {:.4} refs/cycle (whole chip)", r.throughput());
    println!("L1 miss rate       : {:.2}%", 100.0 * r.l1_miss_rate());
    println!("off-chip rate      : {:.2}% of L1 misses", 100.0 * r.l2_miss_rate());
    println!("dedup savings      : {:.1}% of logical memory", 100.0 * r.dedup_savings);
    println!("cache energy       : {:.1} uJ", r.cache_energy.total() / 1000.0);
    println!("network energy     : {:.1} uJ", r.net_energy.total() / 1000.0);
    println!("broadcast invals   : {}", r.proto_stats.broadcast_invs.get());
    println!();
    println!("miss resolution (Figure 9b classes):");
    for class in MissClass::all() {
        println!("  {:<18} {:.1}%", class.label(), 100.0 * r.miss_class_frac(class));
    }
}
