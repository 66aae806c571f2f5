//! Golden full-matrix equality: the event-loop hot path (calendar-queue
//! scheduler, pooled dispatch contexts, fixed-seed hash-map protocol
//! state) must not change simulation results by a single cycle, message
//! or flit. The expected tuples were captured on the smoke
//! configuration before the hot-path overhaul; any drift here means a
//! scheduling or state-iteration order leaked into simulated behavior.

use cmpsim::{run_benchmark, Benchmark, ProtocolKind, SystemConfig};
use ProtocolKind::{DiCo, DiCoArin, DiCoProviders, Directory};

/// (protocol, benchmark, cycles, measured_refs, messages, flit_links)
const GOLDEN: &[(ProtocolKind, Benchmark, u64, u64, u64, u64)] = &[
    (Directory, Benchmark::Apache, 4854, 1536, 949, 6551),
    (DiCo, Benchmark::Apache, 5242, 1536, 1172, 7570),
    (DiCoProviders, Benchmark::Apache, 5243, 1536, 1197, 7632),
    (DiCoArin, Benchmark::Apache, 5242, 1536, 1168, 7588),
    (Directory, Benchmark::Jbb, 9275, 1536, 1985, 14247),
    (DiCo, Benchmark::Jbb, 9594, 1536, 2228, 15480),
    (DiCoProviders, Benchmark::Jbb, 9594, 1536, 2269, 15577),
    (DiCoArin, Benchmark::Jbb, 9594, 1536, 2238, 15602),
    (Directory, Benchmark::Radix, 3422, 1536, 567, 3992),
    (DiCo, Benchmark::Radix, 3426, 1536, 633, 4468),
    (DiCoProviders, Benchmark::Radix, 3426, 1536, 635, 4474),
    (DiCoArin, Benchmark::Radix, 3426, 1536, 633, 4468),
    (Directory, Benchmark::Lu, 3273, 1536, 528, 3757),
    (DiCo, Benchmark::Lu, 3288, 1536, 588, 4197),
    (DiCoProviders, Benchmark::Lu, 3288, 1536, 588, 4197),
    (DiCoArin, Benchmark::Lu, 3288, 1536, 588, 4197),
    (Directory, Benchmark::Volrend, 4590, 1536, 744, 5325),
    (DiCo, Benchmark::Volrend, 4574, 1536, 827, 5728),
    (DiCoProviders, Benchmark::Volrend, 4574, 1536, 833, 5745),
    (DiCoArin, Benchmark::Volrend, 4574, 1536, 827, 5728),
    (Directory, Benchmark::Tomcatv, 5958, 1536, 985, 6756),
    (DiCo, Benchmark::Tomcatv, 5792, 1536, 1101, 7553),
    (DiCoProviders, Benchmark::Tomcatv, 5792, 1536, 1107, 7570),
    (DiCoArin, Benchmark::Tomcatv, 5792, 1536, 1101, 7553),
    (Directory, Benchmark::MixedCom, 9401, 1536, 1497, 10425),
    (DiCo, Benchmark::MixedCom, 8883, 1536, 1704, 11440),
    (DiCoProviders, Benchmark::MixedCom, 8883, 1536, 1733, 11511),
    (DiCoArin, Benchmark::MixedCom, 8883, 1536, 1705, 11455),
    (Directory, Benchmark::MixedSci, 4133, 1536, 686, 4650),
    (DiCo, Benchmark::MixedSci, 4129, 1536, 741, 4966),
    (DiCoProviders, Benchmark::MixedSci, 4129, 1536, 744, 4972),
    (DiCoArin, Benchmark::MixedSci, 4129, 1536, 741, 4966),
];

#[test]
fn full_matrix_matches_pre_overhaul_golden_values() {
    let cfg = SystemConfig::smoke();
    for &(p, b, cycles, refs, messages, flit_links) in GOLDEN {
        let r = run_benchmark(p, b, &cfg).expect("run");
        let got = (
            r.cycles,
            r.measured_refs,
            r.noc_stats.messages.get(),
            r.noc_stats.flit_link_traversals.get(),
        );
        assert_eq!(got, (cycles, refs, messages, flit_links), "golden mismatch for {p:?}/{b:?}");
    }
}

#[test]
fn back_to_back_runs_are_bit_identical() {
    // Same config + seed must give byte-identical results within one
    // process too (no RandomState, no allocation-order dependence).
    let cfg = SystemConfig::smoke();
    let a = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
    let b = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.measured_refs, b.measured_refs);
    assert_eq!(a.noc_stats.messages.get(), b.noc_stats.messages.get());
    assert_eq!(a.noc_stats.flit_link_traversals.get(), b.noc_stats.flit_link_traversals.get());
}
