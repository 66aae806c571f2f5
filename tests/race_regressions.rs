//! Regression tests for the specific races discovered (and fixed) while
//! bringing the protocols up — each test reconstructs the triggering
//! interleaving through timing control rather than luck, so the fix
//! stays pinned down.

use cmpsim_engine::SimRng;
use cmpsim_protocols::arin::Arin;
use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol};
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::harness::{random_stress, Harness};
use cmpsim_protocols::providers::Providers;

const B: u64 = 100;

/// Race: a request chases stale tombstones in a cycle (ownership
/// history A -> B -> C -> A left "last transfer" pointers forming a
/// loop). The hop budget must bail the request out to the home.
#[test]
fn tombstone_cycles_terminate() {
    // Rapid write migration between three tiles plus concurrent readers
    // reproduces stale-pointer chases; the run draining at all is the
    // assertion (plus coherence at quiescence).
    let mut h = Harness::new(DiCo::new(ChipSpec::small()));
    h.enable_invariant_checker();
    for round in 0..15 {
        for &w in &[0usize, 5, 10] {
            h.push_access(w, B, true);
        }
        for r in 0..16usize {
            if round % 3 == 0 {
                h.push_access(r, B, false);
            }
        }
    }
    h.run_checked(400_000);
    assert_eq!(h.proto.authority().latest(B), 45);
}

/// Race: the home forwards a request to a cache whose ownership data is
/// still in flight (the ChangeOwner overtook the Data). The request
/// must park at the owner-to-be, not bounce forever.
#[test]
fn requests_park_at_owner_to_be() {
    let mut h = Harness::new(Providers::new(ChipSpec::small()));
    h.enable_invariant_checker();
    // Slow network makes the in-flight window wide.
    h.net_latency = 40;
    h.push_access(0, B, true);
    h.run_checked(5_000);
    // Two writers and two readers pile up while ownership moves.
    h.push_access(2, B, true);
    h.push_access(3, B, false);
    h.push_access(8, B, true);
    h.push_access(9, B, false);
    h.run_checked(60_000);
    assert_eq!(h.proto.authority().latest(B), 3);
}

/// Race: a read fill serialized *before* a write crosses the write's
/// invalidation on the wire. The fill must complete the read but must
/// not install a stale copy.
#[test]
fn stale_fills_are_not_installed() {
    for seed in 0..8u64 {
        let mut h = Harness::new(DiCo::new(ChipSpec::small()));
        h.enable_invariant_checker();
        h.jitter = Some(SimRng::new(seed));
        h.push_access(0, B, true);
        h.run_checked(5_000);
        // Concurrent readers + a writer; with jitter some fills lose the
        // race. run_checked's no-stale-copy invariant is the assertion.
        for t in [1usize, 2, 3, 5, 6] {
            h.push_access(t, B, false);
        }
        h.push_access(4, B, true);
        h.run_checked(80_000);
        let view = h.proto.block_view(B);
        let authority = h.proto.authority().latest(B);
        for t in 0..16 {
            if let Some(c) = view.copies[t] {
                assert_eq!(c.version, authority, "tile {t} kept a stale fill (seed {seed})");
            }
        }
    }
}

/// Race: an ownership recall reaches the new owner before its data.
/// The recall must be parked and honored after the fill, not failed
/// into a stuck home transaction.
#[test]
fn early_recall_is_parked() {
    let mut h = Harness::new(DiCo::new(ChipSpec::small()));
    h.enable_invariant_checker();
    h.net_latency = 30;
    // Fill home 4's L2C$ set (aux_home: 8 sets x 2 ways, shift 4):
    // blocks 4 + 256k all land in L2C$ set 0 of bank 4.
    let b = |k: u64| 4 + 256 * k;
    h.push_access(1, b(0), true);
    h.push_access(2, b(1), true);
    h.run_checked(20_000);
    // The third ownership forces an L2C$ eviction -> recall while the
    // new owner's data may still be flying.
    h.push_access(3, b(2), true);
    h.push_access(5, b(0), true); // keep block 0 moving at the same time
    h.run_checked(60_000);
    assert_eq!(h.proto.authority().latest(b(0)), 2);
    assert_eq!(h.proto.authority().latest(b(2)), 1);
}

/// Race: a provider pointer is repaired while the displaced provider's
/// copy (or fill) is still live; the silent invalidation must destroy
/// it so no untracked copy survives a later write.
#[test]
fn provider_repair_leaves_no_orphans() {
    for seed in 0..6u64 {
        let mut h = Harness::new(Providers::new(ChipSpec::small()));
        h.enable_invariant_checker();
        h.jitter = Some(SimRng::new(0x5151 + seed));
        h.push_access(0, B, true);
        h.run_checked(5_000);
        // Area-1 tiles race to become/replace the provider.
        for t in [2usize, 3, 6, 7, 2, 3] {
            h.push_access(t, B, false);
        }
        h.run_checked(40_000);
        // A write must reach every live copy (checked by invariants) —
        // and afterwards only the writer remains.
        h.push_access(12, B, true);
        h.run_checked(60_000);
        let view = h.proto.block_view(B);
        for t in 0..16 {
            if t != 12 {
                assert!(view.copies[t].is_none(), "tile {t} survived (seed {seed})");
            }
        }
    }
}

/// Race: DiCo-Arin's broadcast blocks an L1 that holds another tile's
/// queued request; the unblock must release the queue even when the
/// blocked tile has its own miss outstanding (mutual-wait regression).
#[test]
fn broadcast_unblock_releases_parked_requests() {
    let mut h = Harness::new(Arin::new(ChipSpec::small()));
    h.enable_invariant_checker();
    h.net_latency = 25;
    // SBA block with providers in several areas.
    h.push_access(0, B, true);
    h.push_access(2, B, false);
    h.push_access(8, B, false);
    h.run_checked(20_000);
    // A broadcast write races with misses from tiles that also hold
    // parked requests for each other.
    h.push_access(5, B, true);
    h.push_access(9, B, false);
    h.push_access(14, B, true);
    h.push_access(3, B, false);
    h.run_checked(120_000);
    assert_eq!(h.proto.authority().latest(B), 3);
}

/// Race: the directory's forwarded request crosses the owner's eviction
/// writeback; the bounced request must be re-served from the home after
/// the writeback lands.
#[test]
fn directory_forward_eviction_crossing() {
    let mut h = Harness::new(Directory::new(ChipSpec::small()));
    h.enable_invariant_checker();
    h.net_latency = 35;
    h.push_access(0, B, true); // M owner
    h.run_checked(8_000);
    // Evictions (fillers in another bank) and a remote read in flight
    // simultaneously.
    h.push_access(0, B + 8, false);
    h.push_access(1, B, false);
    h.push_access(0, B + 24, false);
    h.run_checked(60_000);
    let view = h.proto.block_view(B);
    assert_eq!(view.copies[1].expect("reader must be served").version, 1);
}

/// The whole mix under adversarial latency skew: tiny chip, huge
/// jitter, long memory latency — every protocol still drains coherent.
#[test]
fn adversarial_latency_mix() {
    fn run<P: CoherenceProtocol>(proto: P, seed: u64) {
        let mut h = Harness::new(proto);
        h.enable_invariant_checker();
        h.net_latency = 50;
        h.mem_latency = 500;
        random_stress(&mut h, seed, 25, 10, 0.45);
    }
    for seed in 0..3 {
        run(Directory::new(ChipSpec::tiny()), 0x9a00 + seed);
        run(DiCo::new(ChipSpec::tiny()), 0x9b00 + seed);
        run(Providers::new(ChipSpec::tiny()), 0x9c00 + seed);
        run(Arin::new(ChipSpec::tiny()), 0x9d00 + seed);
    }
}

/// Race: a provider that gives up providership with nobody to pass it
/// to kept its hand-off note from an older transfer, so two tiles'
/// provider tombstones pointed at each other and an `InvProvider`
/// bounced between them forever (a livelock with one message in
/// flight). Giving up providership must clear the tile's note.
#[test]
fn provider_tombstones_cannot_cycle() {
    let cfg = cmpsim::SystemConfig::small().with_refs(2000).with_seed(3);
    let r =
        cmpsim::run_benchmark(cmpsim::ProtocolKind::DiCoProviders, cmpsim::Benchmark::Apache, &cfg);
    if let Err(e) = r {
        panic!("DiCo-Providers/apache, seed 3, must finish: {e}");
    }
}
