//! Direct Coherence (DiCo), the paper's baseline proposal (§II-B).
//!
//! Ownership, data and the full-map sharing code live together in the
//! owner L1. An L1 miss predicts the owner through the L1C$ (or the
//! pointer embedded in an evicted line) and goes straight to it — two
//! hops in the common case, without visiting the home. The home's L2C$
//! stores the *exact* identity of the L1 owner and redirects
//! mispredicted requests.
//!
//! Ownership movement rules implemented as the paper describes:
//!
//! * a write moves the ownership to the writer; the **old** owner starts
//!   the invalidation of its sharers and sends `Change_Owner` to the
//!   home; the **new** owner may not transfer the ownership again until
//!   the home's acknowledgement arrives;
//! * owner replacement passes the ownership (plus sharing code and data)
//!   to a sharer, which registers itself with `Change_Owner`; a target
//!   that silently dropped its copy forwards the transfer to the next
//!   candidate, falling back to the home;
//! * an L2C$ eviction recalls the ownership from the L1 into the home.
//!
//! Unlike the blocking directory, reads are resolved without serializing
//! through the home, so a read fill and the invalidation of a later
//! write can cross on the wire; invalidations carry the epoch they kill
//! and a fill that lost such a race completes the read (it was
//! serialized first) but is not installed.
//!
//! Everything above lives in the shared [`DiCoCore`]; plain DiCo is the
//! [`DiCoPolicy`] that keeps chip-wide sharing codes and no areas.

use crate::common::*;
use crate::dico_core::{AreaPolicy, DiCoCore, L2Entry, NoPropos};
use cmpsim_engine::{Snap, SnapError, SnapReader, SnapWriter};

/// The Direct Coherence protocol.
pub type DiCo = DiCoCore<DiCoPolicy>;

/// Plain DiCo: chip-wide sharing codes, no areas, no providers.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiCoPolicy;

impl Snap for DiCoPolicy {
    fn save(&self, _: &mut SnapWriter) {}

    fn load(_: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(DiCoPolicy)
    }
}

impl AreaPolicy for DiCoPolicy {
    const KIND: ProtocolKind = ProtocolKind::DiCo;
    const AREAS: bool = false;
    type Propos = NoPropos;
    /// The home tracks the chip-wide sharers of a block it owns.
    type Home = u64;

    fn new(_: &ChipSpec) -> Self {
        DiCoPolicy
    }

    fn home_entry(_: &ChipSpec, _: Tile, sharers: u64, _: Propos) -> u64 {
        sharers
    }

    /// The home is the owner: grant the ownership to the requestor
    /// (ownership lives in L1s whenever possible in DiCo).
    fn serve_home_owned(c: &mut DiCo, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        let block = msg.block;
        let e = c.l2[home].remove(block).expect("home-owned entry");
        c.stats.l2_data_read.inc();
        let others = e.code & !bit(req.requestor);
        let acks = if req.write { others.count_ones() } else { 0 };
        if req.write {
            for t in iter_bits(others) {
                c.stats.invalidations.inc();
                ctx.send(
                    Msg {
                        kind: MsgKind::Inv { reply_to: Node::L1(req.requestor), version: e.version },
                        block,
                        src: Node::L2(home),
                        dst: Node::L1(t),
                    },
                    c.spec.lat.l2_tag,
                );
            }
        }
        let data = DataInfo {
            exclusive: others == 0,
            ownership: true,
            sharers: if req.write { 0 } else { others },
            acks_sharers: acks,
            dirty: e.dirty,
            version: e.version,
            supplier: Supplier::HomeL2,
            ..DataInfo::shared(e.version, Supplier::HomeL2)
        };
        c.home_grant(ctx, home, block, req.requestor, data);
    }

    /// Evicting an L2-owner line invalidates every sharer (the home acts
    /// as both owner and requestor, paper §IV-A).
    fn evict_home_owned(c: &mut DiCo, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry<u64>) {
        let n = e.code.count_ones();
        if n == 0 {
            c.evict_home_quiet(home, block, e.dirty, e.version);
            return;
        }
        c.evict_home_begin(home, block, n as i64, 0, e.dirty, e.version);
        for t in iter_bits(e.code) {
            c.stats.invalidations.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::Inv { reply_to: Node::L2(home), version: e.version },
                    block,
                    src: Node::L2(home),
                    dst: Node::L1(t),
                },
                c.spec.lat.l2_tag,
            );
        }
    }

    fn home_recorded(_: &DiCo, sharers: &u64) -> Option<u64> {
        Some(*sharers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CopyState;
    use crate::harness::{random_stress, Harness};

    fn harness() -> Harness<DiCo> {
        Harness::new(DiCo::new(ChipSpec::small()))
    }

    #[test]
    fn first_read_owner_from_memory() {
        let mut h = harness();
        h.push_access(0, 100, false);
        h.run_checked(1000);
        let snap = h.proto.snapshot();
        assert!(matches!(
            snap.l1[0].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: false }
        ));
        assert_eq!(h.proto.stats().class_count(MissClass::Memory), 1);
    }

    #[test]
    fn second_reader_becomes_sharer_via_home() {
        let mut h = harness();
        h.push_access(0, 100, false);
        h.run_checked(1000);
        h.push_access(1, 100, false);
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[1].get(&100).unwrap().state, CopyState::Shared));
        // No prediction available -> through the home -> forwarded.
        assert_eq!(h.proto.stats().class_count(MissClass::UnpredictedForwarded), 1);
    }

    #[test]
    fn prediction_resolves_two_hop() {
        let mut h = harness();
        h.push_access(0, 100, true); // tile 0 owns
        h.run_checked(1000);
        h.push_access(1, 100, false); // sharer, learns the owner
        h.run_checked(2000);
        // Tile 1 writes: its line hint points at tile 0.
        h.push_access(1, 100, true);
        h.run_checked(3000);
        assert_eq!(h.proto.stats().class_count(MissClass::PredictedOwnerHit), 1);
        let snap = h.proto.snapshot();
        assert!(matches!(
            snap.l1[1].get(&100).unwrap().state,
            CopyState::Owner { dirty: true, .. }
        ));
        assert!(!snap.l1[0].contains_key(&100), "old owner invalidated itself");
    }

    #[test]
    fn upgrade_in_place_invalidates_sharers() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(1, 100, false);
        h.push_access(2, 100, false);
        h.run_checked(3000);
        // Tile 0 is owner with sharers {1, 2}; writes again in place.
        h.push_access(0, 100, true);
        h.run_checked(4000);
        let snap = h.proto.snapshot();
        assert!(!snap.l1[1].contains_key(&100));
        assert!(!snap.l1[2].contains_key(&100));
        assert!(matches!(
            snap.l1[0].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
    }

    #[test]
    fn write_by_sharer_moves_ownership() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(1, 100, false);
        h.run_checked(2000);
        h.push_access(1, 100, true);
        h.run_checked(3000);
        let snap = h.proto.snapshot();
        assert!(matches!(
            snap.l1[1].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
    }

    #[test]
    fn ping_pong_writes_serialize() {
        let mut h = harness();
        for i in 0..12 {
            h.push_access(i % 3, 64, true);
        }
        h.run_checked(40_000);
        assert_eq!(*h.proto.snapshot().authority.get(&64).unwrap(), 12);
    }

    #[test]
    fn owner_eviction_keeps_ownership_reachable() {
        let mut h = harness();
        // Tile 0 owns block 0; tile 1 shares it.
        h.push_access(0, 0, true);
        h.run_checked(1000);
        h.push_access(1, 0, false);
        h.run_checked(2000);
        // Force evictions in tile 0's set 0 (small L1: 8 sets).
        h.push_access(0, 128, false);
        h.push_access(0, 256, false);
        h.run_checked(8000);
        let snap = h.proto.snapshot();
        let t1_owner =
            matches!(snap.l1[1].get(&0).map(|c| c.state), Some(CopyState::Owner { .. }));
        let home_owner = snap.l2.get(&0).map(|v| v.has_data).unwrap_or(false);
        assert!(t1_owner || home_owner, "ownership lost on eviction");
    }

    #[test]
    fn stress_read_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xa1, 60, 40, 0.1);
    }

    #[test]
    fn stress_write_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xa2, 60, 24, 0.6);
    }

    #[test]
    fn stress_high_contention() {
        let mut h = harness();
        random_stress(&mut h, 0xa3, 50, 4, 0.5);
    }

    #[test]
    fn stress_tiny_chip_capacity_pressure() {
        let mut h = Harness::new(DiCo::new(ChipSpec::tiny()));
        random_stress(&mut h, 0xa4, 80, 64, 0.3);
    }

    #[test]
    fn stress_many_seeds() {
        for seed in 0..6 {
            let mut h = harness();
            random_stress(&mut h, 0xb000 + seed, 30, 16, 0.4);
            // The shared core can represent providers; plain DiCo must
            // never create one.
            let snap = h.proto.snapshot();
            for (t, l1) in snap.l1.iter().enumerate() {
                for (block, copy) in l1 {
                    assert_ne!(copy.state, CopyState::Provider, "tile {t} block {block:#x}");
                }
            }
        }
    }
}
