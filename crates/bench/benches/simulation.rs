//! Criterion benches for whole-chip simulation throughput: one reduced
//! apache run per protocol on the 64-tile paper configuration. These are
//! the heavyweight benches (seconds each); `cmpsim-cli figures` reuses the
//! same machinery at larger budgets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cmpsim::{run_benchmark, Benchmark, ProtocolKind, SystemConfig};
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let cfg = SystemConfig::paper().with_refs(2_000);
    let mut g = c.benchmark_group("apache_64tiles_2k_refs");
    g.sample_size(10);
    for kind in ProtocolKind::all() {
        g.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &kind| {
            b.iter(|| black_box(run_benchmark(kind, Benchmark::Apache, &cfg).expect("run").cycles))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
