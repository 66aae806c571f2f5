//! Conformance tests for the paper's Table I ("actions performed upon
//! the reception of a request") and Table II ("actions taken upon a
//! block replacement") in DiCo-Providers, driven scenario by scenario
//! through the protocol harness on the 4x4-tile / 4-area test chip
//! (area 0 = {0,1,4,5}, area 1 = {2,3,6,7}, area 2 = {8,9,12,13},
//! area 3 = {10,11,14,15}).

use cmpsim_protocols::checker::CopyState;
use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol, MissClass};
use cmpsim_protocols::harness::Harness;
use cmpsim_protocols::providers::Providers;

fn harness() -> Harness<Providers> {
    Harness::new(Providers::new(ChipSpec::small()))
}

const B: u64 = 100;

/// Helper: state of `tile`'s copy of block `B`.
fn state(h: &Harness<Providers>, tile: usize) -> Option<CopyState> {
    h.proto.block_view(B).copies[tile].map(|c| c.state)
}

// ------------------------------------------------------------- Table I

/// Read / L1 owner / local area: "Send data. Store coherence info in
/// bit vector (requestor becomes sharer)".
#[test]
fn t1_read_owner_local() {
    let mut h = harness();
    h.push_access(0, B, true); // tile 0 owner (area 0)
    h.run_checked(2_000);
    h.push_access(1, B, false); // same area
    h.run_checked(3_000);
    assert!(matches!(state(&h, 1), Some(CopyState::Shared)));
    assert!(matches!(state(&h, 0), Some(CopyState::Owner { exclusive: false, .. })));
}

/// Read / L1 owner / remote area / provider exists: "Forward request to
/// provider" — the provider supplies the data.
#[test]
fn t1_read_owner_remote_provider_exists() {
    let mut h = harness();
    h.push_access(0, B, true); // owner in area 0
    h.run_checked(2_000);
    h.push_access(2, B, false); // first area-1 read -> provider
    h.run_checked(3_000);
    let before = h.proto.stats().l1_data_read.get();
    h.push_access(3, B, false); // second area-1 read, unpredicted
    h.run_checked(5_000);
    // The data came from an L1 (the provider), not the home L2.
    assert!(h.proto.stats().l1_data_read.get() > before);
    assert!(matches!(state(&h, 3), Some(CopyState::Shared)));
    assert!(matches!(state(&h, 2), Some(CopyState::Provider)));
}

/// Read / L1 owner / remote area / no provider: "Send data. Store
/// coherence info in ProPo (requestor becomes provider)".
#[test]
fn t1_read_owner_remote_no_provider() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(10, B, false); // area 3 read
    h.run_checked(3_000);
    assert!(matches!(state(&h, 10), Some(CopyState::Provider)));
}

/// Read / L1 provider / local area: "Send data ... requestor becomes
/// sharer".
#[test]
fn t1_read_provider_local() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(8, B, false); // area-2 provider
    h.run_checked(3_000);
    h.push_access(9, B, false); // same area
    h.run_checked(4_000);
    assert!(matches!(state(&h, 9), Some(CopyState::Shared)));
}

/// Read / L2 other / owner not in L1 (uncached): "Send request to
/// memory controller ... requestor will become owner in exclusive
/// state".
#[test]
fn t1_read_uncached_memory_exclusive() {
    let mut h = harness();
    h.push_access(5, B, false);
    h.run_checked(2_000);
    assert!(matches!(state(&h, 5), Some(CopyState::Owner { exclusive: true, dirty: false })));
    assert_eq!(h.proto.stats().class_count(MissClass::Memory), 1);
}

/// Read / L2 owner / no provider in the area: "Send data. Store
/// coherence info in the L2C$ (requestor becomes owner)".
#[test]
fn t1_read_l2_owner_grants_ownership() {
    let mut h = harness();
    // Make the home the owner: tile 0 acquires exclusively, then evicts
    // (no sharers -> ownership to home). Set 100 % 8 = 4 of the tiny L1
    // (8 sets x 2 ways) also holds blocks 100+16k.
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(0, B + 16 * 16, false);
    h.push_access(0, B + 2 * 16 * 16, false);
    h.run_checked(8_000);
    assert!(state(&h, 0).is_none(), "owner line must have been evicted");
    // A fresh reader now gets the ownership from the home.
    h.push_access(6, B, false);
    h.run_checked(10_000);
    assert!(matches!(state(&h, 6), Some(CopyState::Owner { .. })));
}

/// Write / L1 owner: "Start invalidation. Send data. Send Change_Owner
/// ... requestor becomes owner in modified state".
#[test]
fn t1_write_owner() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    for t in [1usize, 2, 8] {
        h.push_access(t, B, false); // sharer + two providers
    }
    h.run_checked(6_000);
    h.push_access(4, B, true); // area-0 writer
    h.run_checked(10_000);
    assert!(matches!(state(&h, 4), Some(CopyState::Owner { exclusive: true, dirty: true })));
    for t in [0usize, 1, 2, 8] {
        assert!(state(&h, t).is_none(), "tile {t} must be invalidated");
    }
    assert_eq!(h.proto.authority().latest(B), 2);
}

/// Write / L2 none: memory fetch, "requestor will become owner in
/// modified state".
#[test]
fn t1_write_uncached() {
    let mut h = harness();
    h.push_access(7, B, true);
    h.run_checked(2_000);
    assert!(matches!(state(&h, 7), Some(CopyState::Owner { exclusive: true, dirty: true })));
}

// ------------------------------------------------------------ Table II

/// "shared -> Silent eviction": no replacement transaction is issued.
#[test]
fn t2_shared_eviction_is_silent() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false); // tile 1 sharer
    h.run_checked(3_000);
    let before = h.proto.stats().l1_repl_transactions.get();
    // Evict tile 1's set (block B maps to set 4; +256 strides stay there).
    h.push_access(1, B + 256, false);
    h.push_access(1, B + 512, false);
    h.run_checked(8_000);
    assert!(state(&h, 1).is_none());
    assert_eq!(
        h.proto.stats().l1_repl_transactions.get(),
        before,
        "sharer eviction must be silent"
    );
}

/// "provider, sharers exist -> send providership and sharing code to a
/// sharer".
#[test]
fn t2_provider_eviction_transfers_providership() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(2, B, false); // provider of area 1
    h.push_access(3, B, false); // its sharer
    h.run_checked(5_000);
    // Evict the provider's line.
    h.push_access(2, B + 256, false);
    h.push_access(2, B + 512, false);
    h.run_checked(10_000);
    assert!(state(&h, 2).is_none());
    // The sharer took over the providership.
    assert!(
        matches!(state(&h, 3), Some(CopyState::Provider)),
        "tile 3 should be the new provider, is {:?}",
        state(&h, 3)
    );
}

/// "owner, sharers exist in the area -> send ownership and sharing code
/// to a sharer".
#[test]
fn t2_owner_eviction_transfers_ownership() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false); // area-0 sharer
    h.run_checked(3_000);
    // Fillers share tile 0's L1 set (index = block mod 8) but live in a
    // different home bank, so the home's L2C$ set for block B is not
    // disturbed (an L2C$ eviction would recall B's ownership and turn
    // this into the recall scenario instead).
    h.push_access(0, B + 8, false);
    h.push_access(0, B + 24, false);
    h.run_checked(10_000);
    assert!(
        matches!(state(&h, 1), Some(CopyState::Owner { .. })),
        "tile 1 should have inherited the ownership, is {:?}",
        state(&h, 1)
    );
}

/// "owner, no sharers -> send ownership (and data if dirty) to the home
/// L2" — and the data must survive (write-back checked by the
/// durability invariant of run_checked).
#[test]
fn t2_owner_eviction_to_home() {
    let mut h = harness();
    h.push_access(0, B, true); // dirty exclusive owner
    h.run_checked(2_000);
    h.push_access(0, B + 256, false);
    h.push_access(0, B + 512, false);
    h.run_checked(8_000);
    let view = h.proto.block_view(B);
    assert!(view.copies[0].is_none());
    let l2 = view.l2.expect("home must hold the block");
    assert!(l2.has_data && l2.dirty);
    assert_eq!(l2.version, 1);
}

/// A clean owner's eviction leaves the block in its home L2 alone, never
/// written: the whole-chip check must still reach it.
#[test]
fn clean_eviction_leaves_an_l2_only_block_in_the_walk() {
    let mut h = harness();
    h.push_access(0, B, false);
    h.push_access(0, B + 256, false);
    h.push_access(0, B + 512, false);
    h.run_checked(8_000);
    let view = h.proto.block_view(B);
    assert!(view.held().next().is_none());
    assert!(view.l2.expect("home must hold the block").has_data);
    assert_eq!(h.proto.authority().latest(B), 0);
    assert!(h.proto.blocks().contains(&B));
}

/// After an ownership hand-off, a write by a third core still
/// invalidates every stale copy (the sharing code travelled with the
/// ownership).
#[test]
fn t2_transferred_sharing_code_still_invalidates() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false);
    h.push_access(4, B, false);
    h.run_checked(5_000);
    // Evict the owner; ownership moves to a sharer (1 or 4).
    h.push_access(0, B + 256, false);
    h.push_access(0, B + 512, false);
    h.run_checked(10_000);
    // Now write from another area.
    h.push_access(10, B, true);
    h.run_checked(16_000);
    for t in [0usize, 1, 4] {
        assert!(state(&h, t).is_none(), "tile {t} kept a stale copy");
    }
    assert!(matches!(state(&h, 10), Some(CopyState::Owner { dirty: true, .. })));
}
