//! Message-economy audits: the figures of the paper are linear in
//! message and hop counts, so these tests pin down exactly how many
//! messages each canonical transaction costs in each protocol. A
//! regression here silently skews Figures 7/8 even when coherence is
//! intact.

use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol};
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::harness::Harness;
use cmpsim_protocols::providers::Providers;

const B: u64 = 100;

/// Directory read miss resolved at the home: request + data (+unblock).
#[test]
fn directory_home_read_is_request_data_unblock() {
    let mut h = Harness::new(Directory::new(ChipSpec::small()));
    // Warm the home's L2 with the block: tile 0 fetches and evicts.
    h.push_access(0, B, false);
    h.run_checked(2_000);
    h.push_access(0, B + 8, false);
    h.push_access(0, B + 24, false);
    h.run_checked(6_000);
    // Now a clean read served by the home.
    let inv_before = h.proto.stats().invalidations.get();
    let miss_before = h.proto.stats().l1_misses.get();
    h.push_access(1, B, false);
    h.run_checked(9_000);
    assert_eq!(h.proto.stats().l1_misses.get(), miss_before + 1);
    assert_eq!(h.proto.stats().invalidations.get(), inv_before, "reads never invalidate");
}

/// DiCo predicted read: exactly one L1 data supply, no home involvement
/// (the L2 bank is not accessed at all).
#[test]
fn dico_predicted_read_skips_home() {
    let mut h = Harness::new(DiCo::new(ChipSpec::small()));
    h.push_access(0, B, true); // owner
    h.push_access(1, B, false); // sharer learns the owner
    h.run_checked(4_000);
    // The owner upgrades in place: tile 1 is invalidated and learns the
    // supplier identity from the invalidation (Figure 5).
    h.push_access(0, B, true);
    h.run_checked(6_000);
    let l2_tag_before = h.proto.stats().l2_tag.get();
    let l1_reads_before = h.proto.stats().l1_data_read.get();
    h.push_access(1, B, false); // predicted straight to tile 0
    h.run_checked(9_000);
    assert_eq!(
        h.proto.stats().l2_tag.get(),
        l2_tag_before,
        "a predicted 2-hop read must not touch any L2 bank"
    );
    assert_eq!(h.proto.stats().l1_data_read.get(), l1_reads_before + 1);
}

/// DiCo write to an owned block with N sharers costs exactly N
/// invalidations (sent by the owner, not the home).
#[test]
fn dico_write_invalidation_count() {
    let mut h = Harness::new(DiCo::new(ChipSpec::small()));
    h.push_access(0, B, true);
    h.run_checked(2_000);
    for t in [1usize, 2, 3, 4, 5] {
        h.push_access(t, B, false);
    }
    h.run_checked(8_000);
    let inv_before = h.proto.stats().invalidations.get();
    h.push_access(6, B, true);
    h.run_checked(12_000);
    // Five sharers to invalidate (the requestor was not one).
    assert_eq!(h.proto.stats().invalidations.get(), inv_before + 5);
}

/// DiCo-Providers write through providers: the owner sends one
/// `InvProvider` per provider and one `Inv` per own-area sharer; the
/// providers cascade to their sharers. Total invalidation messages =
/// own-area sharers + providers + their tracked sharers.
#[test]
fn providers_write_invalidation_fanout() {
    let mut h = Harness::new(Providers::new(ChipSpec::small()));
    h.push_access(0, B, true); // owner, area 0
    h.run_checked(2_000);
    h.push_access(1, B, false); // own-area sharer
    h.push_access(2, B, false); // provider area 1
    h.run_checked(5_000);
    h.push_access(3, B, false); // sharer tracked by provider 2
    h.run_checked(7_000);
    h.push_access(8, B, false); // provider area 2 (no sharers)
    h.run_checked(9_000);
    let inv_before = h.proto.stats().invalidations.get();
    h.push_access(4, B, true); // writer in area 0
    h.run_checked(14_000);
    // 1 own-area Inv (tile 1) + 2 InvProvider (tiles 2, 8) + 1 cascaded
    // Inv (tile 3) = 4 invalidation messages.
    assert_eq!(h.proto.stats().invalidations.get(), inv_before + 4);
    // And every copy is gone.
    let view = h.proto.block_view(B);
    for t in [0usize, 1, 2, 3, 8] {
        assert!(view.copies[t].is_none(), "tile {t}");
    }
}

/// An exclusive-owner read hit costs zero messages in every protocol.
#[test]
fn hits_are_free_everywhere() {
    fn check<P: CoherenceProtocol>(proto: P) {
        let mut h = Harness::new(proto);
        h.push_access(0, B, true);
        h.run_checked(2_000);
        let misses = h.proto.stats().l1_misses.get();
        for _ in 0..10 {
            h.push_access(0, B, false);
            h.push_access(0, B, true);
        }
        h.run_checked(4_000);
        assert_eq!(h.proto.stats().l1_misses.get(), misses);
    }
    check(Directory::new(ChipSpec::small()));
    check(DiCo::new(ChipSpec::small()));
    check(Providers::new(ChipSpec::small()));
}

/// The L1C$ is consulted once per non-upgrade miss and never on hits —
/// the paper argues its dynamic power is negligible for exactly this
/// reason.
#[test]
fn l1c_accessed_only_on_misses() {
    let mut h = Harness::new(DiCo::new(ChipSpec::small()));
    h.push_access(0, B, false);
    h.run_checked(2_000);
    let l1c_before = h.proto.stats().l1c_access.get();
    for _ in 0..20 {
        h.push_access(0, B, false);
    }
    h.run_checked(4_000);
    assert_eq!(h.proto.stats().l1c_access.get(), l1c_before, "hits must not probe the L1C$");
}
