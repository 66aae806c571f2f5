//! Behavioral suite for the DiCo baseline (paper §II-B and §IV-A2):
//! owner prediction through the L1C$, hint updates, in-place upgrades,
//! ownership recalls on L2C$ pressure, and replacement chains.

use cmpsim_protocols::checker::CopyState;
use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol, MissClass};
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::harness::Harness;

fn harness() -> Harness<DiCo> {
    Harness::new(DiCo::new(ChipSpec::small()))
}

const B: u64 = 100;

fn state(h: &Harness<DiCo>, tile: usize) -> Option<CopyState> {
    h.proto.block_view(B).copies[tile].map(|c| c.state)
}

/// A sharer's line hint (the embedded GenPo) predicts the owner for its
/// next miss: two-hop resolution without the home.
#[test]
fn line_hint_predicts_owner() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false); // sharer; hint = owner 0
    h.run_checked(3_000);
    h.push_access(1, B, true); // write using the hint
    h.run_checked(5_000);
    assert_eq!(h.proto.stats().class_count(MissClass::PredictedOwnerHit), 1);
}

/// §IV-A2: on eviction the supplier identity is retained in the L1C$ to
/// resolve *future* misses in two hops.
#[test]
fn l1c_keeps_prediction_across_eviction() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false);
    h.run_checked(3_000);
    // Evict tile 1's copy (fillers in another home bank to keep the
    // scenario clean), then re-read: the L1C$ predicts tile 0.
    h.push_access(1, B + 8, false);
    h.push_access(1, B + 24, false);
    h.run_checked(7_000);
    assert!(state(&h, 1).is_none());
    h.push_access(1, B, false);
    h.run_checked(9_000);
    assert!(
        h.proto.stats().class_count(MissClass::PredictedOwnerHit) >= 1,
        "classes: {:?}",
        MissClass::all().map(|c| (c.label(), h.proto.stats().class_count(c)))
    );
}

/// Figure 5: an invalidation teaches its receiver the identity of the
/// next owner (the ack collector), so the next miss goes straight there.
#[test]
fn invalidation_teaches_new_owner() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false); // sharer
    h.run_checked(3_000);
    h.push_access(2, B, true); // writer: tile 1 gets Inv{reply_to: 2}
    h.run_checked(6_000);
    assert!(state(&h, 1).is_none());
    h.push_access(1, B, false); // re-read: predicted to tile 2
    h.run_checked(8_000);
    let s = h.proto.stats();
    assert!(
        s.class_count(MissClass::PredictedOwnerHit) >= 1,
        "classes: {:?}",
        MissClass::all().map(|c| (c.label(), s.class_count(c)))
    );
}

/// A write by the owner of a non-exclusive line upgrades in place: the
/// sharers are invalidated from the owner, no ownership movement, no
/// data transfer.
#[test]
fn upgrade_in_place_keeps_ownership() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    for t in [1usize, 2, 3] {
        h.push_access(t, B, false);
    }
    h.run_checked(6_000);
    let mem_reads_before = h.proto.stats().mem_reads.get();
    h.push_access(0, B, true);
    h.run_checked(9_000);
    assert!(matches!(state(&h, 0), Some(CopyState::Owner { exclusive: true, dirty: true })));
    for t in [1usize, 2, 3] {
        assert!(state(&h, t).is_none(), "tile {t} must be invalidated");
    }
    assert_eq!(h.proto.stats().mem_reads.get(), mem_reads_before, "no data movement");
    assert_eq!(h.proto.authority().latest(B), 2);
}

/// Exclusive-owner writes are silent (no traffic at all).
#[test]
fn exclusive_write_is_a_pure_hit() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    let msgs_before = h.proto.stats().l1_misses.get();
    h.push_access(0, B, true);
    h.push_access(0, B, true);
    h.run_checked(3_000);
    assert_eq!(h.proto.stats().l1_misses.get(), msgs_before);
    assert_eq!(h.proto.authority().latest(B), 3);
}

/// Owner replacement with sharers: the ownership (and the sharing code)
/// moves to a sharer; a later write still invalidates everyone.
#[test]
fn replacement_chain_preserves_sharing_code() {
    let mut h = harness();
    h.push_access(0, B, true);
    h.run_checked(2_000);
    h.push_access(1, B, false);
    h.push_access(2, B, false);
    h.run_checked(5_000);
    // Evict the owner.
    h.push_access(0, B + 8, false);
    h.push_access(0, B + 24, false);
    h.run_checked(9_000);
    // One of the sharers is now the owner.
    let owners: Vec<usize> =
        (0..16).filter(|&t| matches!(state(&h, t), Some(CopyState::Owner { .. }))).collect();
    assert_eq!(owners.len(), 1, "owners: {owners:?}");
    // A third-party write must reach every remaining copy.
    h.push_access(8, B, true);
    h.run_checked(14_000);
    for t in 0..16 {
        if t != 8 {
            assert!(state(&h, t).is_none(), "tile {t} kept a copy");
        }
    }
}

/// DiCo keeps a single copy of the data: when ownership lives in an L1,
/// the home L2 holds no data (contrast with the directory's NCID L2).
#[test]
fn single_copy_in_the_chip() {
    let mut h = harness();
    h.push_access(0, B, false);
    h.run_checked(2_000);
    let view = h.proto.block_view(B);
    assert!(matches!(view.copies[0].unwrap().state, CopyState::Owner { exclusive: true, .. }));
    let l2 = view.l2.expect("L2C$ records the owner");
    assert!(!l2.has_data, "DiCo must not duplicate the data at the home");
    assert_eq!(l2.owner_in_l1, Some(0));
}

/// Heavy same-set traffic exercises L2C$ evictions (ownership recalls)
/// without losing writes — checked by the drain invariants.
#[test]
fn l2c_pressure_recalls_ownership_safely() {
    let mut h = harness();
    // All these blocks share home bank 4 and L2C$/L2 sets there.
    let blocks: Vec<u64> = (0..8).map(|k| 4 + 16 * k).collect();
    for (i, &b) in blocks.iter().enumerate() {
        h.push_access(i % 16, b, true);
        h.push_access((i + 5) % 16, b, false);
    }
    h.run_checked(100_000);
    // Spot-check: every block's single write survived.
    for &b in &blocks {
        assert_eq!(h.proto.authority().latest(b), 1, "block {b}");
    }
}
