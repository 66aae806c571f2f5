//! Conformance tests for the baseline directory's NCID organization
//! (paper §II-A): the L2 is non-inclusive but the directory is
//! inclusive — evicting an L2 *data* line keeps the directory
//! information alive in the directory cache (no L1 invalidations);
//! only evicting a *directory entry* invalidates the L1 copies.

use cmpsim_protocols::checker::CopyState;
use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol, MissClass};
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::harness::Harness;

fn harness() -> Harness<Directory> {
    Harness::new(Directory::new(ChipSpec::small()))
}

const B: u64 = 100;

fn state(h: &Harness<Directory>, tile: usize) -> Option<CopyState> {
    h.proto.block_view(B).copies[tile].map(|c| c.state)
}

/// Blocks fetched from memory are installed in the L2 (and E-granted);
/// the L2 keeps serving after the L1 owner evicts.
#[test]
fn l2_backs_the_l1() {
    let mut h = harness();
    h.push_access(0, B, false);
    h.run_checked(2_000);
    assert!(matches!(state(&h, 0), Some(CopyState::Owner { exclusive: true, dirty: false })));
    // Evict tile 0's copy; the L2 still has the data, so tile 1's read
    // is served on-chip.
    h.push_access(0, B + 8, false);
    h.push_access(0, B + 24, false);
    h.run_checked(6_000);
    let mem_before = h.proto.stats().mem_reads.get();
    h.push_access(1, B, false);
    h.run_checked(9_000);
    assert_eq!(h.proto.stats().mem_reads.get(), mem_before, "L2 must serve the re-read");
    assert_eq!(h.proto.stats().class_count(MissClass::UnpredictedHome), 1);
}

/// The home blocks an address while a transaction is in flight; two
/// concurrent writers serialize to exactly two committed versions.
#[test]
fn home_serializes_concurrent_writers() {
    let mut h = harness();
    h.push_access(4, B, true);
    h.push_access(5, B, true);
    h.run_checked(6_000);
    assert_eq!(h.proto.authority().latest(B), 2);
    // Exactly one owner survives.
    let owners: Vec<usize> =
        (0..16).filter(|&t| matches!(state(&h, t), Some(CopyState::Owner { .. }))).collect();
    assert_eq!(owners.len(), 1);
}

/// A write to a block with three sharers sends three invalidations and
/// the write completes only after all acks.
#[test]
fn write_collects_all_sharer_acks() {
    let mut h = harness();
    h.push_access(0, B, false);
    h.run_checked(2_000);
    for t in [1usize, 2, 3] {
        h.push_access(t, B, false);
    }
    h.run_checked(6_000);
    let inv_before = h.proto.stats().invalidations.get();
    h.push_access(8, B, true);
    h.run_checked(10_000);
    // Four copies to invalidate (tiles 0-3).
    assert_eq!(h.proto.stats().invalidations.get(), inv_before + 4);
    let view = h.proto.block_view(B);
    for t in 0..4 {
        assert!(view.copies[t].is_none());
    }
}

/// E-granted lines upgrade to M silently (the "highly-optimized"
/// baseline the paper insists on).
#[test]
fn exclusive_grant_enables_silent_upgrade() {
    let mut h = harness();
    h.push_access(0, B, false); // E from memory
    h.run_checked(2_000);
    let misses = h.proto.stats().l1_misses.get();
    h.push_access(0, B, true); // silent E -> M
    h.run_checked(3_000);
    assert_eq!(h.proto.stats().l1_misses.get(), misses, "E->M must be a hit");
    assert!(matches!(state(&h, 0), Some(CopyState::Owner { exclusive: true, dirty: true })));
    assert_eq!(h.proto.authority().latest(B), 1);
}

/// A dirty L1 owner supplies a reader through the home (3-hop path) and
/// the home's copy becomes current again.
#[test]
fn dirty_owner_forward_path() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false);
    h.run_checked(5_000);
    assert_eq!(h.proto.stats().class_count(MissClass::UnpredictedForwarded), 1);
    let view = h.proto.block_view(B);
    // Both ex-owner and reader are sharers now; home data is current.
    assert!(matches!(view.copies[0].unwrap().state, CopyState::Shared));
    assert!(matches!(view.copies[1].unwrap().state, CopyState::Shared));
    let l2 = view.l2.expect("home entry");
    assert!(l2.has_data);
    assert_eq!(l2.version, 1);
}

/// Silent sharer evictions leave stale directory bits, and a later
/// write harmlessly over-invalidates (the stale sharer just acks).
#[test]
fn stale_sharer_bits_are_harmless() {
    let mut h = harness();
    h.push_access(0, B, false);
    h.push_access(1, B, false);
    h.run_checked(5_000);
    // Tile 1 silently drops its copy.
    h.push_access(1, B + 8, false);
    h.push_access(1, B + 24, false);
    h.run_checked(9_000);
    assert!(state(&h, 1).is_none());
    // The write still completes (the stale sharer acks an Inv for a
    // block it no longer has).
    h.push_access(2, B, true);
    h.run_checked(13_000);
    assert_eq!(h.proto.authority().latest(B), 1);
    assert!(matches!(state(&h, 2), Some(CopyState::Owner { dirty: true, .. })));
}

/// Capacity stress across many same-home blocks: directory-cache
/// evictions invalidate L1 copies but never lose dirty data (checked by
/// the durability invariant in `run_checked`).
#[test]
fn directory_eviction_pressure_is_safe() {
    let mut h = harness();
    // Three blocks share home bank 4, L2 set 0 and directory-cache set 0
    // (stride 256 on the 16-tile chip); each is owned (M) by a different
    // tile that keeps it L1-resident. Tile 0 then streams six more
    // same-set blocks through the home: the L2 data evictions push the
    // owners' directory info into the 2-way directory-cache set, whose
    // overflow forces full directory evictions (the only NCID event that
    // invalidates L1 copies). The durability invariant of `run_checked`
    // proves the dirty data survives to memory.
    let b = |i: u64| 4 + 256 * i;
    for (i, t) in [(0u64, 1usize), (1, 2), (2, 3)] {
        h.push_access(t, b(i), true);
    }
    h.run_checked(8_000);
    for i in 3..9u64 {
        h.push_access(0, b(i), false);
    }
    h.run_checked(60_000);
    assert!(
        h.proto.stats().l2_evictions.get() >= 1,
        "directory-cache overflow must trigger a directory eviction"
    );
    // At least one owner lost its copy to the eviction.
    let alive =
        (1..=3).filter(|&t| h.proto.block_view(b(t as u64 - 1)).copies[t].is_some()).count();
    assert!(alive < 3, "some owner must have been invalidated");
}
