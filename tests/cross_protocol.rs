//! Cross-protocol equivalence: the same access script must serialize the
//! same set of writes under every protocol (the final write count per
//! block — the "authority version" — is protocol-independent), and every
//! protocol must satisfy the whole-chip coherence invariants at
//! quiescence. The attribution profiler must likewise reconcile exactly
//! on every protocol: phase sums tile miss latency and attributed event
//! counts tile the aggregate energy.

use cmpsim::{run_benchmark, Benchmark, ProtocolKind, SystemConfig};
use cmpsim_engine::SimRng;
use cmpsim_protocols::arin::Arin;
use cmpsim_protocols::checker;
use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol};
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::harness::Harness;
use cmpsim_protocols::providers::Providers;
use std::collections::BTreeMap;

/// Builds one deterministic multi-core script.
fn script(seed: u64, tiles: usize, ops: usize) -> Vec<(usize, u64, bool)> {
    let mut rng = SimRng::new(seed);
    let mut v = Vec::new();
    for t in 0..tiles {
        for _ in 0..ops {
            v.push((t, rng.gen_range(24), rng.gen_bool(0.35)));
        }
    }
    v
}

fn run<P: CoherenceProtocol>(proto: P, script: &[(usize, u64, bool)]) -> BTreeMap<u64, u64> {
    let mut h = Harness::new(proto);
    for &(t, b, w) in script {
        h.push_access(t, b, w);
    }
    h.run_checked(script.len() as u64 * 800 + 20_000);
    checker::check_chip(&h.proto).expect("coherent at quiescence");
    h.proto.authority().iter().collect()
}

#[test]
fn same_writes_serialize_under_every_protocol() {
    for seed in [1u64, 2, 3] {
        let s = script(seed, 16, 25);
        let dir = run(Directory::new(ChipSpec::small()), &s);
        let dico = run(DiCo::new(ChipSpec::small()), &s);
        let prov = run(Providers::new(ChipSpec::small()), &s);
        let arin = run(Arin::new(ChipSpec::small()), &s);
        assert_eq!(dir, dico, "seed {seed}: DiCo committed different writes");
        assert_eq!(dir, prov, "seed {seed}: Providers committed different writes");
        assert_eq!(dir, arin, "seed {seed}: Arin committed different writes");
        // Sanity: the script really wrote something.
        assert!(dir.values().sum::<u64>() > 0);
    }
}

#[test]
fn write_counts_match_script() {
    let s = script(7, 16, 30);
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    for &(_, b, w) in &s {
        if w {
            *expected.entry(b).or_insert(0) += 1;
        }
    }
    let got = run(DiCo::new(ChipSpec::small()), &s);
    for (b, n) in expected {
        assert_eq!(got.get(&b).copied().unwrap_or(0), n, "block {b}");
    }
}

#[test]
fn heavy_contention_all_protocols() {
    // Everyone hammers four blocks.
    let mut s = Vec::new();
    let mut rng = SimRng::new(0x77);
    for t in 0..16 {
        for _ in 0..40 {
            s.push((t, rng.gen_range(4), rng.gen_bool(0.5)));
        }
    }
    let dir = run(Directory::new(ChipSpec::small()), &s);
    let arin = run(Arin::new(ChipSpec::small()), &s);
    assert_eq!(dir, arin);
}

/// The critical-path profiler reconciles exactly on every protocol: the
/// typed phases of every completed miss sum to its measured latency, and
/// the per-transaction event counts tile the chip-wide aggregate
/// counters — so the attributed dynamic energy equals the aggregate
/// dynamic energy bit-for-bit.
#[test]
fn attribution_reconciles_on_every_protocol() {
    let cfg = SystemConfig::small().with_attribution();
    for kind in ProtocolKind::all() {
        let r = run_benchmark(kind, Benchmark::MixedCom, &cfg).expect("run");
        let b = r.breakdown.as_ref().expect("attribution enabled");
        let lat = &r.proto_stats.miss_latency;

        // Phase sums tile the measured miss latency, per transaction and
        // therefore in aggregate, with nothing dropped or left open.
        assert!(b.completed > 0, "{kind:?} attributed no misses");
        assert_eq!(b.completed, lat.count(), "{kind:?}: miss count");
        assert_eq!(b.reconciled, b.completed, "{kind:?}: unreconciled misses");
        assert_eq!(b.open_txs, 0, "{kind:?}: transactions left open");
        assert_eq!(b.latency_cycles, lat.sum(), "{kind:?}: latency total");
        assert_eq!(
            b.phase_cycles.total(),
            b.latency_cycles,
            "{kind:?}: phases do not sum to latency"
        );

        // Attributed event counts tile the aggregate counters exactly.
        let tc = b.total_counts();
        let ps = &r.proto_stats;
        assert_eq!(tc.l1_tag, ps.l1_tag.get(), "{kind:?}: l1 tag");
        assert_eq!(tc.l1_data, ps.l1_data_read.get() + ps.l1_data_write.get(), "{kind:?}: l1 data");
        assert_eq!(tc.l2_tag, ps.l2_tag.get(), "{kind:?}: l2 tag");
        assert_eq!(tc.l2_data, ps.l2_data_read.get() + ps.l2_data_write.get(), "{kind:?}: l2 data");
        assert_eq!(tc.dir, ps.dir_access.get(), "{kind:?}: directory");
        assert_eq!(tc.l1c, ps.l1c_access.get(), "{kind:?}: L1 coherence aux");
        assert_eq!(tc.l2c, ps.l2c_access.get(), "{kind:?}: L2 coherence aux");
        assert_eq!(tc.routing, r.noc_stats.routing_events.get(), "{kind:?}: routing");
        assert_eq!(tc.flit_links, r.noc_stats.flit_link_traversals.get(), "{kind:?}: flit-links");

        // Energy follows the counts: pricing the attributed buckets with
        // the run's own model reproduces the aggregate dynamic energy.
        let model = r.energy_model();
        assert_eq!(
            r.counts_nj(&model, &tc),
            r.total_dynamic_nj(),
            "{kind:?}: attributed energy does not tile the aggregate"
        );
    }
}
