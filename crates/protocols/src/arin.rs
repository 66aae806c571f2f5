//! DiCo-Arin (paper §III-B and §IV-B).
//!
//! The simplified, virtualization-optimized protocol. As long as a
//! block's copies are confined to one area, DiCo-Arin behaves exactly
//! like DiCo (with an area-local sharing code of `nta` bits). The first
//! read from a *remote* area dissolves the ownership:
//!
//! * the former owner becomes a provider of its area and sends the data
//!   to the home L2 (`SbaTransition`), which becomes the ordering point
//!   and a provider itself;
//! * the block is now *shared between areas* (SBA): it is always present
//!   in the home L2, which keeps one `ProPo` per area — and **no**
//!   information about sharers;
//! * every new copy handed out makes its receiver a provider, so in-area
//!   reads keep resolving in two short hops;
//! * a forwarded request reaching the home refreshes the stale provider
//!   pointer of the forwarder's area (paper §IV-B), with a silent
//!   invalidation covering the message-crossing case;
//! * writes to (and L2 replacements of) SBA blocks use the paper's
//!   **three-way broadcast invalidation**: the home broadcasts
//!   `BcastInv` (every L1 invalidates, blocks the address and
//!   acknowledges the collector), and the collector broadcasts
//!   `BcastUnblock` once all acknowledgements are in, which also
//!   reverts the block to an area-confined state owned by the writer.
//!
//! The area-confined DiCo behaviour lives in the shared [`DiCoCore`];
//! [`ArinPolicy`] adds the SBA roles and the broadcast.

use crate::common::*;
use crate::dico_core::{AreaPolicy, DiCoCore, HomeTx, L1State, L2Entry, NoPropos};
use cmpsim_engine::{FxHashSet, Snap, SnapError, SnapReader, SnapWriter};

/// The DiCo-Arin protocol.
pub type Arin = DiCoCore<ArinPolicy>;

/// DiCo-Arin: area-local sharing codes while a block is area-confined;
/// shared-between-areas (SBA) blocks are ordered at the home and
/// invalidated by broadcast.
#[derive(Debug, Clone)]
pub struct ArinPolicy {
    /// Blocks locked by an in-flight broadcast invalidation, per tile.
    bcast_blocked: Vec<FxHashSet<Block>>,
}

/// The home bank's role for a resident block.
#[derive(Debug, Clone)]
pub enum L2Role {
    /// The home holds the ownership of an area-confined block; the
    /// sharers (if any) all live in one area.
    Owner {
        /// Area-local sharing code.
        sharers: u64,
        /// The area the sharers live in.
        area: Option<usize>,
    },
    /// Shared between areas: home is ordering point + provider; one
    /// ProPo per area, no sharer information.
    Sba {
        /// Provider pointer per area.
        propos: Propos,
    },
}

impl Snap for L2Role {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            L2Role::Owner { sharers, area } => {
                w.u8(0);
                sharers.save(w);
                area.save(w);
            }
            L2Role::Sba { propos } => {
                w.u8(1);
                propos.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => L2Role::Owner { sharers: Snap::load(r)?, area: Snap::load(r)? },
            1 => L2Role::Sba { propos: Snap::load(r)? },
            tag => return Err(SnapError::BadTag { what: "arin::L2Role", tag }),
        })
    }
}

impl Snap for ArinPolicy {
    fn save(&self, w: &mut SnapWriter) {
        self.bcast_blocked.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { bcast_blocked: Snap::load(r)? })
    }
}

/// Tiles of `area` named by a local-index bit-vector.
fn area_tiles(spec: &ChipSpec, area: usize, bits: u64) -> Vec<Tile> {
    iter_bits(bits).map(|l| spec.areas.tile_in_area(area, l)).collect()
}

impl AreaPolicy for ArinPolicy {
    const KIND: ProtocolKind = ProtocolKind::DiCoArin;
    const AREAS: bool = true;
    type Propos = NoPropos;
    type Home = L2Role;

    fn new(spec: &ChipSpec) -> Self {
        Self { bcast_blocked: vec![FxHashSet::default(); spec.tiles()] }
    }

    fn blocked(&self, tile: Tile, block: Block) -> bool {
        self.bcast_blocked[tile].contains(&block)
    }

    fn quiescent(&self) -> bool {
        self.bcast_blocked.iter().all(|s| s.is_empty())
    }

    fn pending_summary(&self, tile: Tile, out: &mut String) {
        let mut bb: Vec<Block> = self.bcast_blocked[tile].iter().copied().collect();
        bb.sort_unstable();
        for b in bb {
            *out += &format!("tile {tile} bcast_blocked block {b:#x}\n");
        }
    }

    /// First remote-area read: the ownership dissolves (paper §III-B).
    /// We become a provider; the data parks at the home, which becomes
    /// the SBA ordering point.
    fn remote_read_at_owner(c: &mut Arin, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let lat = c.spec.lat;
        let home = c.home(block);
        let line = c.l1[tile].get_mut(block).expect("owner line");
        let (dirty, version) = (line.dirty(), line.version);
        line.state = L1State::Provider;
        line.sharers = 0;
        c.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    make_provider: true,
                    ..DataInfo::shared(version, Supplier::OwnerL1)
                }),
                block,
                src: Node::L1(tile),
                dst: Node::L1(req.requestor),
            },
            lat.l1_hit(),
        );
        ctx.send(
            Msg {
                kind: MsgKind::SbaTransition { dirty, version, former: tile, reader: req.requestor },
                block,
                src: Node::L1(tile),
                dst: Node::L2(home),
            },
            lat.l1_hit(),
        );
        c.tombstones[tile].set(block, Node::L2(home));
    }

    /// SBA provider serves the in-area read; the new copy is a provider
    /// too (paper §IV-B optimization).
    fn provider_read(c: &mut Arin, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let version = c.l1[tile].peek(block).expect("provider line").version;
        c.l1[tile].touch(block);
        c.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    make_provider: true,
                    ..DataInfo::shared(version, Supplier::ProviderL1)
                }),
                block,
                src: Node::L1(tile),
                dst: Node::L1(req.requestor),
            },
            c.spec.lat.l1_hit(),
        );
    }

    // SBA providers track nothing and evict silently (the default);
    // stale home pointers self-correct through the forwarder check.

    /// Third step of the three-way invalidation: unblock all L1s and
    /// commit the new owner at the home.
    fn sba_write_done(c: &mut Arin, ctx: &mut Ctx, tile: Tile, block: Block) {
        ctx.broadcast(MsgKind::BcastUnblock, block, Node::L1(tile), Some(tile), 0);
        ctx.send(
            Msg {
                kind: MsgKind::BcastDone { new_owner: Some(tile) },
                block,
                src: Node::L1(tile),
                dst: Node::L2(c.home(block)),
            },
            0,
        );
    }

    fn home_entry(spec: &ChipSpec, src: Tile, sharers: u64, _: Propos) -> L2Role {
        let area = if sharers != 0 { Some(spec.area_of(src)) } else { None };
        L2Role::Owner { sharers, area }
    }

    fn serve_home_owned(c: &mut Arin, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        match c.l2[home].peek(msg.block).expect("home-owned entry").code.clone() {
            L2Role::Sba { propos } => serve_sba(c, ctx, home, msg, req, propos),
            L2Role::Owner { sharers, area } => serve_as_l2_owner(c, ctx, home, msg, req, sharers, area),
        }
    }

    fn evict_home_owned(c: &mut Arin, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry<L2Role>) {
        match e.code {
            L2Role::Owner { sharers, area } => {
                // Like DiCo: invalidate the (single-area) sharers.
                let targets: Vec<Tile> = match area {
                    Some(a) => area_tiles(&c.spec, a, sharers),
                    None => Vec::new(),
                };
                if targets.is_empty() {
                    c.evict_home_quiet(home, block, e.dirty, e.version);
                    return;
                }
                c.evict_home_begin(home, block, targets.len() as i64, 0, e.dirty, e.version);
                for t in targets {
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
            L2Role::Sba { .. } => {
                // Shared between areas: the paper's broadcast eviction.
                c.stats.broadcast_invs.inc();
                c.evict_home_begin(home, block, c.spec.tiles() as i64, 0, e.dirty, e.version);
                ctx.broadcast(
                    MsgKind::BcastInv { reply_to: Node::L2(home) },
                    block,
                    Node::L2(home),
                    None,
                    c.spec.lat.l2_tag,
                );
            }
        }
    }

    /// Every home eviction ends by unblocking all L1s.
    fn home_eviction_done(_: &mut Arin, ctx: &mut Ctx, home: Tile, block: Block) {
        ctx.broadcast(MsgKind::BcastUnblock, block, Node::L2(home), None, 0);
    }

    /// Area-confined blocks record their area's sharers; SBA blocks are
    /// tracked by broadcast, not by sharing codes.
    fn home_recorded(c: &Arin, role: &L2Role) -> Option<u64> {
        match *role {
            L2Role::Sba { .. } => None,
            L2Role::Owner { sharers, area } => Some(
                area.map(|a| area_tiles(&c.spec, a, sharers).into_iter().fold(0, |b, t| b | bit(t)))
                    .unwrap_or(0),
            ),
        }
    }

    fn handle(c: &mut Arin, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        let block = msg.block;
        match (msg.dst, msg.kind) {
            (Node::L1(_), MsgKind::BcastAck) => c.l1_ack(ctx, &msg, -1, 0, "invalidation ack")?,
            (Node::L1(tile), MsgKind::InvSilent) => {
                c.stats.l1_tag.inc();
                if !matches!(c.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Owner { .. })) {
                    c.l1[tile].remove(block);
                    if let Some(e) = c.mshr[tile].get_mut(block) {
                        if !e.write {
                            e.pending_inv = Some(u64::MAX);
                        }
                    }
                }
            }
            (Node::L1(tile), MsgKind::BcastInv { reply_to }) => bcast_inv(c, ctx, tile, block, reply_to),
            (Node::L1(tile), MsgKind::BcastUnblock) => {
                // Step 3: unblock and replay anything that queued
                // meanwhile. The replay must not wait for a local MSHR:
                // the queued requests do not depend on it, and holding
                // them can close a mutual-wait cycle with another tile
                // whose miss is sitting in *our* queue. Replayed messages
                // re-park or re-route as usual.
                c.policy.bcast_blocked[tile].remove(&block);
                if !c.l1_queues[tile].is_busy(block) && !c.co_pending[tile].contains(&block) {
                    for m in c.l1_queues[tile].release(block) {
                        ctx.replay(m);
                    }
                }
            }
            (Node::L2(home), MsgKind::SbaTransition { dirty, version, former, reader }) => {
                let mut propos = Propos::NONE;
                propos.set(c.area_of(former), Some(former));
                propos.set(c.area_of(reader), Some(reader));
                // The transition also satisfies a pending ownership
                // recall: the data (and the ordering point) are home now.
                let entry = L2Entry { dirty, version, code: L2Role::Sba { propos } };
                c.home_take_ownership(ctx, home, block, entry);
            }
            (Node::L2(home), MsgKind::BcastDone { new_owner }) => {
                let Some(HomeTx::SbaWrite { writer }) = c.tx[home].get(&block).cloned() else {
                    return Err(ProtoError::unexpected(Self::KIND, &msg));
                };
                c.tx[home].remove(&block);
                debug_assert_eq!(new_owner, Some(writer));
                // The block is area-confined again, owned by the writer;
                // the home's stale SBA data is dropped.
                c.stats.l2c_access.inc();
                c.l2[home].remove(block);
                c.l2c_insert(ctx, home, block, writer);
                c.release_home(ctx, home, block);
                c.release_bounces(ctx, home, block);
            }
            (Node::L2(_), MsgKind::BcastAck) => {
                c.home_evict_ack(ctx, &msg, -1, 0, "invalidation ack")?;
            }
            _ => return Err(ProtoError::unexpected(Self::KIND, &msg)),
        }
        Ok(())
    }
}

/// Step 1 of the three-way invalidation, at each L1.
fn bcast_inv(c: &mut Arin, ctx: &mut Ctx, tile: Tile, block: Block, reply_to: Node) {
    c.stats.l1_tag.inc();
    c.l1[tile].remove(block);
    if let Some(e) = c.mshr[tile].get_mut(block) {
        if !e.write {
            e.pending_inv = Some(u64::MAX);
        }
    }
    c.policy.bcast_blocked[tile].insert(block);
    if let Node::L1(writer) = reply_to {
        c.learn(tile, block, writer);
    }
    ctx.send(
        Msg { kind: MsgKind::BcastAck, block, src: Node::L1(tile), dst: reply_to },
        c.spec.lat.l1_tag,
    );
}

/// SBA block at the ordering point.
fn serve_sba(c: &mut Arin, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo, propos: Propos) {
    let block = msg.block;
    let lat = c.spec.lat;
    let req_area = c.area_of(req.requestor);
    if req.write {
        // Three-way broadcast invalidation (paper §IV-B1).
        c.stats.broadcast_invs.inc();
        let e = c.l2[home].peek(block).expect("SBA entry");
        let (dirty, version) = (e.dirty, e.version);
        c.home_queues[home].set_busy(block);
        c.tx[home].insert(block, HomeTx::SbaWrite { writer: req.requestor });
        c.stats.l2_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    acks_sharers: (c.spec.tiles() - 1) as u32,
                    sba_write: true,
                    dirty,
                    version,
                    supplier: Supplier::HomeL2,
                    ..DataInfo::shared(version, Supplier::HomeL2)
                }),
                block,
                src: Node::L2(home),
                dst: Node::L1(req.requestor),
            },
            lat.l2_access(),
        );
        ctx.broadcast(
            MsgKind::BcastInv { reply_to: Node::L1(req.requestor) },
            block,
            Node::L2(home),
            Some(req.requestor),
            lat.l2_tag,
        );
        return;
    }
    // Read: the data is always here. Keep the provider pointers fresh
    // (paper §IV-B: a forwarded request whose forwarder matches the
    // stored provider replaces it with the requestor).
    let mut propos = propos;
    match propos.get(req_area) {
        Some(p) if req.forwarder == Some(p) => {
            ctx.send(
                Msg { kind: MsgKind::InvSilent, block, src: Node::L2(home), dst: Node::L1(p) },
                lat.l2_tag,
            );
            propos.set(req_area, Some(req.requestor));
        }
        Some(p) if p != req.requestor => {
            // A provider exists: hand its identity to the requestor so
            // its future misses go there; data still served here (one
            // serve, no extra hop — the hint rides along).
        }
        _ => {
            propos.set(req_area, Some(req.requestor));
        }
    }
    let hint = propos.get(req_area).filter(|&p| p != req.requestor);
    let e = c.l2[home].peek_mut(block).expect("SBA entry");
    e.code = L2Role::Sba { propos };
    let version = e.version;
    c.stats.l2_data_read.inc();
    ctx.send(
        Msg {
            kind: MsgKind::Data(DataInfo {
                make_provider: true,
                provider_hint: hint,
                ..DataInfo::shared(version, Supplier::HomeL2)
            }),
            block,
            src: Node::L2(home),
            dst: Node::L1(req.requestor),
        },
        lat.l2_access(),
    );
    // No busy state: SBA reads are unordered with each other; only
    // writes serialize (through the broadcast).
}

/// The home holds the ownership of an area-confined block.
#[allow(clippy::too_many_arguments)]
fn serve_as_l2_owner(
    c: &mut Arin,
    ctx: &mut Ctx,
    home: Tile,
    msg: Msg,
    req: ReqInfo,
    sharers: u64,
    area: Option<usize>,
) {
    let block = msg.block;
    let lat = c.spec.lat;
    let req_area = c.area_of(req.requestor);
    let e = c.l2[home].peek(block).expect("home-owned entry");
    let (dirty, version) = (e.dirty, e.version);

    if !req.write {
        if let Some(a) = area {
            if a != req_area && sharers != 0 {
                // Copies confined to another area: the block becomes
                // shared between areas; the home is already a provider
                // ("the L2 becomes a provider immediately"). The old
                // area's sharers become untracked (the later broadcast
                // covers them).
                let mut propos = Propos::NONE;
                propos.set(req_area, Some(req.requestor));
                let e = c.l2[home].peek_mut(block).expect("home-owned entry");
                e.code = L2Role::Sba { propos };
                c.stats.l2_data_read.inc();
                ctx.send(
                    Msg {
                        kind: MsgKind::Data(DataInfo {
                            make_provider: true,
                            ..DataInfo::shared(version, Supplier::HomeL2)
                        }),
                        block,
                        src: Node::L2(home),
                        dst: Node::L1(req.requestor),
                    },
                    lat.l2_access(),
                );
                return;
            }
        }
        // Same area (or no copies): grant the ownership like DiCo.
        let others = sharers & !c.sharer_bit(req.requestor);
        let e = c.l2[home].remove(block).expect("home-owned entry");
        c.stats.l2_data_read.inc();
        let data = DataInfo {
            exclusive: others == 0,
            ownership: true,
            sharers: others,
            dirty: e.dirty,
            version: e.version,
            supplier: Supplier::HomeL2,
            ..DataInfo::shared(e.version, Supplier::HomeL2)
        };
        c.home_grant(ctx, home, block, req.requestor, data);
        return;
    }
    // Write: invalidate the (single-area) sharers, grant ownership.
    let others = if area == Some(req_area) { sharers & !c.sharer_bit(req.requestor) } else { sharers };
    let targets: Vec<Tile> = match area {
        Some(a) => area_tiles(&c.spec, a, others),
        None => Vec::new(),
    };
    let e = c.l2[home].remove(block).expect("home-owned entry");
    c.stats.l2_data_read.inc();
    for t in &targets {
        c.stats.invalidations.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Inv { reply_to: Node::L1(req.requestor), version },
                block,
                src: Node::L2(home),
                dst: Node::L1(*t),
            },
            lat.l2_tag,
        );
    }
    let data = DataInfo {
        exclusive: true,
        ownership: true,
        acks_sharers: targets.len() as u32,
        dirty,
        version: e.version,
        supplier: Supplier::HomeL2,
        ..DataInfo::shared(e.version, Supplier::HomeL2)
    };
    c.home_grant(ctx, home, block, req.requestor, data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CopyState;
    use crate::harness::{random_stress, Harness};

    fn harness() -> Harness<Arin> {
        Harness::new(Arin::new(ChipSpec::small()))
    }

    #[test]
    #[should_panic(expected = "too many tiles for a one-byte ProPo")]
    fn refuses_chips_too_big_for_one_byte_propos() {
        Arin::new(ChipSpec {
            areas: cmpsim_virt::AreaMap::new(16, 16, 16),
            ..ChipSpec::small()
        });
    }

    #[test]
    fn area_confined_behaves_like_dico() {
        let mut h = harness();
        h.push_access(0, 100, true); // tile 0 (area 0) owns
        h.run_checked(1000);
        h.push_access(1, 100, false); // same area: plain sharer
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[1].get(&100).unwrap().state, CopyState::Shared));
        assert!(matches!(snap.l1[0].get(&100).unwrap().state, CopyState::Owner { .. }));
    }

    #[test]
    fn remote_read_dissolves_ownership() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner in area 0
        h.run_checked(1000);
        h.push_access(2, 100, false); // area 1 read -> SBA
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        // Both the former owner and the reader are providers now.
        assert!(matches!(snap.l1[0].get(&100).unwrap().state, CopyState::Provider));
        assert!(matches!(snap.l1[2].get(&100).unwrap().state, CopyState::Provider));
        // The data parked at the home L2.
        assert!(snap.l2.get(&100).map(|v| v.has_data).unwrap_or(false));
    }

    #[test]
    fn sba_reads_all_become_providers() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // SBA transition
        h.run_checked(2000);
        for t in [3usize, 8, 10, 13] {
            h.push_access(t, 100, false);
        }
        h.run_checked(8000);
        let snap = h.proto.snapshot();
        for t in [2usize, 3, 8, 10, 13] {
            assert!(
                matches!(snap.l1[t].get(&100).unwrap().state, CopyState::Provider),
                "tile {t} should be a provider"
            );
        }
    }

    #[test]
    fn sba_write_broadcasts_and_reconfines() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // SBA
        h.push_access(8, 100, false);
        h.run_checked(4000);
        h.push_access(10, 100, true); // write -> three-way broadcast
        h.run_checked(10_000);
        let snap = h.proto.snapshot();
        for t in [0usize, 2, 8] {
            assert!(!snap.l1[t].contains_key(&100), "tile {t} survived the broadcast");
        }
        assert!(matches!(
            snap.l1[10].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
        assert!(h.proto.stats().broadcast_invs.get() >= 1);
        // And the block is area-confined again: a same-area read is a
        // plain DiCo 2-hop serve.
        h.push_access(11, 100, false);
        h.run_checked(12_000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[11].get(&100).unwrap().state, CopyState::Shared));
    }

    #[test]
    fn provider_serves_in_area_read_two_hops() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // provider in area 1
        h.run_checked(2000);
        h.push_access(3, 100, false); // area 1: unpredicted -> home knows provider
        h.run_checked(3000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[3].get(&100).unwrap().state, CopyState::Provider));
    }

    #[test]
    fn ping_pong_writes_across_areas() {
        let mut h = harness();
        for i in 0..12 {
            h.push_access([0, 2, 8, 10][i % 4], 64, true);
        }
        h.run_checked(80_000);
        assert_eq!(*h.proto.snapshot().authority.get(&64).unwrap(), 12);
    }

    #[test]
    fn read_write_interleave_with_sba() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.push_access(0, 100, false);
        h.run_checked(2000);
        h.push_access(10, 100, false); // SBA
        h.push_access(11, 100, false);
        h.run_checked(6000);
        h.push_access(0, 100, true); // broadcast write back to area 0
        h.run_checked(12_000);
        let snap = h.proto.snapshot();
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
        assert!(!snap.l1[10].contains_key(&100));
        assert!(!snap.l1[11].contains_key(&100));
    }

    #[test]
    fn stress_read_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xe1, 60, 40, 0.1);
    }

    #[test]
    fn stress_write_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xe2, 60, 24, 0.6);
    }

    #[test]
    fn stress_high_contention() {
        let mut h = harness();
        random_stress(&mut h, 0xe3, 50, 4, 0.5);
    }

    #[test]
    fn stress_tiny_chip_capacity_pressure() {
        let mut h = Harness::new(Arin::new(ChipSpec::tiny()));
        random_stress(&mut h, 0xe4, 80, 64, 0.3);
    }

    #[test]
    fn stress_many_seeds() {
        for seed in 0..6 {
            let mut h = harness();
            random_stress(&mut h, 0xf000 + seed, 30, 16, 0.4);
        }
    }
}
