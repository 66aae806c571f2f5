//! DiCo-Providers (paper §III-A and §IV-A, Tables I and II).
//!
//! The chip is statically divided into areas. Coherence information is
//! kept **per area**:
//!
//! * the *owner* L1 keeps the sharing code of its own area (an
//!   `nta`-bit vector) plus one provider pointer (`ProPo`) per remote
//!   area;
//! * each *provider* keeps the sharing code of its own area and serves
//!   in-area reads, so misses to data shared between areas (deduplicated
//!   pages) resolve in two short hops without leaving the area;
//! * the home L2, when it holds the ownership, keeps only the ProPos —
//!   never sharers (those live at the providers).
//!
//! Request handling follows the paper's Table I verbatim; replacements
//! follow Table II (providership/ownership hand-off to a sharer of the
//! area, `Change_Provider` / `No_Provider` / `Change_Owner` registration
//! messages, ownership recall on L2C$ eviction with the former owner
//! staying on as its area's provider).
//!
//! Stale pointers are self-correcting rather than blocking: a request
//! forwarded to a cache that is no longer the supplier chases the
//! hand-off tombstone (point-to-point FIFO delivery guarantees the
//! hand-off arrives first) or returns to the node that forwarded it,
//! which recognises its own stale pointer through the `forwarder` field
//! and repairs it — the same mechanism the paper introduces for
//! DiCo-Arin's provider pointers.

use crate::checker::{ChipSnapshot, CopyState, CopyView, L2View};
use crate::common::*;
use cmpsim_cache::{Mshr, SetAssoc};
use cmpsim_engine::{Cycle, FxHashMap, FxHashSet};
use std::collections::VecDeque;

/// L1 line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1State {
    /// Sharer with an embedded supplier hint.
    Sharer { hint: Option<Tile> },
    /// Provider: supplies in-area reads, tracks its area's sharers.
    Provider,
    /// Owner: global ordering point; tracks own-area sharers + ProPos.
    Owner { exclusive: bool, dirty: bool },
}

#[derive(Debug, Clone)]
struct L1Line {
    state: L1State,
    /// Own-area sharing code, bit per local index (Provider/Owner).
    area_sharers: u64,
    /// Provider pointer per area (Owner only; own area implicit).
    propos: Propos,
    version: u64,
}

impl L1Line {
    fn dirty(&self) -> bool {
        matches!(self.state, L1State::Owner { dirty: true, .. })
    }
}

/// Home L2 data entry: exists when the home holds the ownership. Only
/// ProPos are stored (paper §III-A).
#[derive(Debug, Clone)]
struct L2Entry {
    dirty: bool,
    version: u64,
    propos: Propos,
}

#[derive(Debug, Clone)]
struct MshrEntry {
    write: bool,
    issued_at: Cycle,
    predicted: Option<Tile>,
    upgrade: bool,
    have_data: bool,
    fill: Option<DataInfo>,
    fill_from: Option<Node>,
    /// Sharer acks still owed (incremented by provider AckCounts).
    acks_needed: i64,
    /// Provider acks still owed.
    provider_acks_needed: i64,
    pending_inv: Option<u64>,
}

#[derive(Debug, Clone)]
enum HomeTx {
    MemFetch { req: Msg },
    Recall,
    Granting { to: Tile },
    /// Eviction of a home-owned entry: invalidating through providers.
    EvictL2 { acks_left: i64, provider_acks_left: i64, dirty: bool, version: u64 },
}

/// The DiCo-Providers protocol.
#[derive(Clone)]
pub struct Providers {
    spec: ChipSpec,
    stats: ProtoStats,
    authority: VersionAuthority,
    mem: MemoryImage,
    l1: Vec<SetAssoc<L1Line>>,
    l1c: Vec<SetAssoc<Tile>>,
    mshr: Vec<Mshr<MshrEntry>>,
    l1_queues: Vec<BlockQueues>,
    co_pending: Vec<FxHashSet<Block>>,
    co_ack_early: Vec<FxHashSet<Block>>,
    /// Ownership hand-off tombstones.
    tombstones: Vec<FxHashMap<Block, Node>>,
    tombstone_fifo: Vec<VecDeque<Block>>,
    /// Providership hand-off tombstones.
    ptombstones: Vec<FxHashMap<Block, Tile>>,
    ptombstone_fifo: Vec<VecDeque<Block>>,
    l2: Vec<SetAssoc<L2Entry>>,
    l2c: Vec<SetAssoc<Tile>>,
    home_queues: Vec<BlockQueues>,
    tx: Vec<FxHashMap<Block, HomeTx>>,
    bounce_hold: Vec<FxHashMap<Block, VecDeque<Msg>>>,
    pending_mem_writes: Vec<(Tile, Block)>,
}

const TOMBSTONE_CAP: usize = 128;

cmpsim_engine::impl_snap!(L1Line { state, area_sharers, propos, version });
cmpsim_engine::impl_snap!(L2Entry { dirty, version, propos });
cmpsim_engine::impl_snap!(MshrEntry {
    write,
    issued_at,
    predicted,
    upgrade,
    have_data,
    fill,
    fill_from,
    acks_needed,
    provider_acks_needed,
    pending_inv,
});

impl cmpsim_engine::Snap for L1State {
    fn save(&self, w: &mut cmpsim_engine::SnapWriter) {
        match self {
            L1State::Sharer { hint } => {
                w.u8(0);
                hint.save(w);
            }
            L1State::Provider => w.u8(1),
            L1State::Owner { exclusive, dirty } => {
                w.u8(2);
                exclusive.save(w);
                dirty.save(w);
            }
        }
    }

    fn load(r: &mut cmpsim_engine::SnapReader<'_>) -> Result<Self, cmpsim_engine::SnapError> {
        use cmpsim_engine::Snap;
        Ok(match r.u8()? {
            0 => L1State::Sharer { hint: Snap::load(r)? },
            1 => L1State::Provider,
            2 => L1State::Owner { exclusive: Snap::load(r)?, dirty: Snap::load(r)? },
            tag => {
                return Err(cmpsim_engine::SnapError::BadTag { what: "providers::L1State", tag })
            }
        })
    }
}

impl cmpsim_engine::Snap for HomeTx {
    fn save(&self, w: &mut cmpsim_engine::SnapWriter) {
        match self {
            HomeTx::MemFetch { req } => {
                w.u8(0);
                req.save(w);
            }
            HomeTx::Recall => w.u8(1),
            HomeTx::Granting { to } => {
                w.u8(2);
                to.save(w);
            }
            HomeTx::EvictL2 { acks_left, provider_acks_left, dirty, version } => {
                w.u8(3);
                acks_left.save(w);
                provider_acks_left.save(w);
                dirty.save(w);
                version.save(w);
            }
        }
    }

    fn load(r: &mut cmpsim_engine::SnapReader<'_>) -> Result<Self, cmpsim_engine::SnapError> {
        use cmpsim_engine::Snap;
        Ok(match r.u8()? {
            0 => HomeTx::MemFetch { req: Snap::load(r)? },
            1 => HomeTx::Recall,
            2 => HomeTx::Granting { to: Snap::load(r)? },
            3 => HomeTx::EvictL2 {
                acks_left: Snap::load(r)?,
                provider_acks_left: Snap::load(r)?,
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
            },
            tag => {
                return Err(cmpsim_engine::SnapError::BadTag { what: "providers::HomeTx", tag })
            }
        })
    }
}

impl Providers {
    /// Builds the protocol for `spec`.
    pub fn new(spec: ChipSpec) -> Self {
        assert!(spec.num_areas() <= MAX_AREAS, "too many areas for the ProPo array");
        let n = spec.tiles();
        Self {
            l1: (0..n).map(|_| SetAssoc::new(spec.l1)).collect(),
            l1c: (0..n).map(|_| SetAssoc::new(spec.aux)).collect(),
            mshr: (0..n).map(|_| Mshr::new(8)).collect(),
            l1_queues: (0..n).map(|_| BlockQueues::default()).collect(),
            co_pending: vec![FxHashSet::default(); n],
            co_ack_early: vec![FxHashSet::default(); n],
            tombstones: vec![FxHashMap::default(); n],
            tombstone_fifo: vec![VecDeque::new(); n],
            ptombstones: vec![FxHashMap::default(); n],
            ptombstone_fifo: vec![VecDeque::new(); n],
            l2: (0..n).map(|_| SetAssoc::new(spec.l2)).collect(),
            l2c: (0..n).map(|_| SetAssoc::new(spec.aux_home)).collect(),
            home_queues: (0..n).map(|_| BlockQueues::default()).collect(),
            tx: (0..n).map(|_| FxHashMap::default()).collect(),
            bounce_hold: vec![FxHashMap::default(); n],
            pending_mem_writes: Vec::new(),
            spec,
            stats: ProtoStats::default(),
            authority: VersionAuthority::default(),
            mem: MemoryImage::default(),
        }
    }

    // ------------------------------------------------------ small utils

    fn home(&self, block: Block) -> Tile {
        self.spec.home_of(block)
    }

    fn area_of(&self, tile: Tile) -> usize {
        self.spec.area_of(tile)
    }

    fn local_bit(&self, tile: Tile) -> u64 {
        1u64 << self.spec.areas.local_index(tile)
    }

    /// Tiles of `area` named by a local-index bit-vector.
    fn area_tiles(&self, area: usize, bits: u64) -> Vec<Tile> {
        iter_bits(bits).map(|l| self.spec.areas.tile_in_area(area, l)).collect()
    }

    fn send_req(
        &mut self,
        ctx: &mut Ctx,
        block: Block,
        src: Node,
        dst: Node,
        req: ReqInfo,
        delay: Cycle,
    ) {
        ctx.send(Msg { kind: MsgKind::Req(req), block, src, dst }, delay);
    }

    fn tombstone_set(&mut self, tile: Tile, block: Block, to: Node) {
        if self.tombstones[tile].insert(block, to).is_none() {
            self.tombstone_fifo[tile].push_back(block);
            if self.tombstone_fifo[tile].len() > TOMBSTONE_CAP {
                if let Some(old) = self.tombstone_fifo[tile].pop_front() {
                    self.tombstones[tile].remove(&old);
                }
            }
        }
    }

    fn ptombstone_set(&mut self, tile: Tile, block: Block, to: Tile) {
        if self.ptombstones[tile].insert(block, to).is_none() {
            self.ptombstone_fifo[tile].push_back(block);
            if self.ptombstone_fifo[tile].len() > TOMBSTONE_CAP {
                if let Some(old) = self.ptombstone_fifo[tile].pop_front() {
                    self.ptombstones[tile].remove(&old);
                }
            }
        }
    }

    fn propo_count(p: &Propos) -> u32 {
        p.iter().filter(|x| x.is_some()).count() as u32
    }

    // --------------------------------------------------------- L1 side

    fn predict(&mut self, tile: Tile, block: Block) -> Option<Tile> {
        if !self.spec.enable_prediction {
            return None;
        }
        self.stats.l1c_access.inc();
        match self.l1c[tile].get_mut(block) {
            Some(&mut t) if t != tile => Some(t),
            _ => None,
        }
    }

    fn learn(&mut self, tile: Tile, block: Block, supplier: Tile) {
        if supplier == tile {
            return;
        }
        if let Some(line) = self.l1[tile].peek_mut(block) {
            if let L1State::Sharer { hint } = &mut line.state {
                *hint = Some(supplier);
                return;
            }
        }
        self.stats.l1c_access.inc();
        if let Some(p) = self.l1c[tile].get_mut(block) {
            *p = supplier;
        } else {
            self.l1c[tile].insert(block, supplier);
        }
    }

    fn start_miss(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, write: bool, upgrade: bool) {
        self.stats.l1_misses.inc();
        if write {
            self.stats.write_misses.inc();
        }
        let line_hint = match self.l1[tile].peek(block).map(|l| &l.state) {
            Some(L1State::Sharer { hint }) => hint.filter(|&t| t != tile),
            _ => None,
        };
        let predicted = if upgrade || !self.spec.enable_prediction {
            None
        } else if line_hint.is_some() {
            self.stats.l1c_access.inc();
            line_hint
        } else {
            self.predict(tile, block)
        };
        self.mshr[tile].alloc(
            block,
            MshrEntry {
                write,
                issued_at: ctx.now,
                predicted,
                upgrade,
                have_data: upgrade,
                fill: None,
                fill_from: None,
                acks_needed: 0,
                provider_acks_needed: 0,
                pending_inv: None,
            },
        );
        if upgrade {
            // Owner writes with copies outstanding: invalidate in place.
            let line = self.l1[tile].peek(block).expect("upgrade at owner");
            let (sharers, propos, version) = (line.area_sharers, line.propos, line.version);
            let my_area = self.area_of(tile);
            let e = self.mshr[tile].get_mut(block).expect("just allocated");
            e.acks_needed = sharers.count_ones() as i64;
            e.provider_acks_needed = Self::propo_count(&propos) as i64;
            self.l1_queues[tile].set_busy(block);
            self.send_area_invs(ctx, Node::L1(tile), block, my_area, sharers, Node::L1(tile), version);
            self.send_provider_invs(ctx, Node::L1(tile), block, &propos, Node::L1(tile));
            // Clear the pointers now; completion makes us exclusive.
            let line = self.l1[tile].peek_mut(block).unwrap_or_else(|| panic!("providers: owner line missing at L1 tile {tile}, block {block:#x}"));
            line.area_sharers = 0;
            line.propos = [None; MAX_AREAS];
            return;
        }
        let dst = match predicted {
            Some(t) => Node::L1(t),
            None => Node::L2(self.home(block)),
        };
        self.send_req(
            ctx,
            block,
            Node::L1(tile),
            dst,
            ReqInfo {
                requestor: tile,
                write,
                forwarder: None,
                via_home: false,
                predicted: predicted.is_some(),
                vouched: false,
                hops: 0,
            },
            self.spec.lat.l1_tag,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn send_area_invs(
        &mut self,
        ctx: &mut Ctx,
        src: Node,
        block: Block,
        area: usize,
        sharers: u64,
        reply_to: Node,
        version: u64,
    ) {
        for t in self.area_tiles(area, sharers) {
            self.stats.invalidations.inc();
            ctx.send(
                Msg { kind: MsgKind::Inv { reply_to, version }, block, src, dst: Node::L1(t) },
                self.spec.lat.l1_tag,
            );
        }
    }

    fn send_provider_invs(
        &mut self,
        ctx: &mut Ctx,
        src: Node,
        block: Block,
        propos: &Propos,
        reply_to: Node,
    ) {
        for p in propos.iter().flatten() {
            self.stats.invalidations.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::InvProvider { reply_to },
                    block,
                    src,
                    dst: Node::L1(*p as Tile),
                },
                self.spec.lat.l1_tag,
            );
        }
    }

    /// Our own roaming request reached us after an ownership transfer
    /// made us the owner: complete the miss in place (reads finish
    /// immediately; writes convert to an in-place upgrade invalidating
    /// the inherited sharers and providers).
    fn self_serve(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        let write = self.mshr[tile].get(block).map(|e| e.write).unwrap_or(false);
        if !write {
            let e = self.mshr[tile].release(block).expect("self-serve without MSHR");
            self.l1[tile].touch(block);
            self.stats.l1_data_read.inc();
            self.stats.record_miss(MissClass::UnpredictedForwarded, ctx.now - e.issued_at);
            ctx.complete(tile, block, self.spec.lat.l1_data);
            if !self.co_pending[tile].contains(&block) {
                for m in self.l1_queues[tile].release(block) {
                    ctx.replay(m);
                }
            }
            return;
        }
        let my_area = self.area_of(tile);
        let line = self.l1[tile].peek(block).expect("owner line");
        let (sharers, propos, version) = (line.area_sharers, line.propos, line.version);
        {
            let e = self.mshr[tile].get_mut(block).expect("self-serve without MSHR");
            e.upgrade = true;
            e.have_data = true;
            e.acks_needed += sharers.count_ones() as i64;
            e.provider_acks_needed += Self::propo_count(&propos) as i64;
        }
        self.l1_queues[tile].set_busy(block);
        self.send_area_invs(ctx, Node::L1(tile), block, my_area, sharers, Node::L1(tile), version);
        self.send_provider_invs(ctx, Node::L1(tile), block, &propos, Node::L1(tile));
        let line = self.l1[tile].peek_mut(block).expect("owner line");
        line.area_sharers = 0;
        line.propos = [None; MAX_AREAS];
        self.try_complete(ctx, tile, block);
    }

    fn try_complete(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        let Some(e) = self.mshr[tile].get(block) else { return };
        if !e.have_data || e.acks_needed != 0 || e.provider_acks_needed != 0 {
            return;
        }
        let e = self.mshr[tile].release(block).expect("checked");
        let lat = self.spec.lat;

        if e.upgrade {
            let v = self.authority.commit(block);
            let line = self.l1[tile].peek_mut(block).expect("upgrade owner line");
            line.state = L1State::Owner { exclusive: true, dirty: true };
            line.area_sharers = 0;
            line.propos = [None; MAX_AREAS];
            line.version = v;
            self.stats.l1_data_write.inc();
            self.stats.record_miss(MissClass::PredictedOwnerHit, ctx.now - e.issued_at);
            ctx.complete(tile, block, lat.l1_data);
            for m in self.l1_queues[tile].release(block) {
                ctx.replay(m);
            }
            return;
        }

        let fill = e.fill.expect("have_data");
        let stale = e.pending_inv.map(|v| fill.version <= v).unwrap_or(false);
        let class = self.classify(&e, &fill);
        self.stats.record_miss(class, ctx.now - e.issued_at);

        if e.write {
            let v = self.authority.commit(block);
            let line = L1Line {
                state: L1State::Owner { exclusive: true, dirty: true },
                area_sharers: 0,
                propos: [None; MAX_AREAS],
                version: v,
            };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
            if fill.ownership
                && fill.supplier == Supplier::OwnerL1
                && !self.co_ack_early[tile].remove(&block)
            {
                self.co_pending[tile].insert(block);
                self.l1_queues[tile].set_busy(block);
            }
        } else if fill.ownership {
            let line = L1Line {
                state: L1State::Owner { exclusive: fill.exclusive, dirty: fill.dirty },
                area_sharers: fill.sharers & !self.local_bit(tile),
                propos: fill.propos,
                version: fill.version,
            };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
        } else if !stale {
            let state = if fill.make_provider {
                L1State::Provider
            } else {
                let hint = e.fill_from.map(|n| n.tile()).filter(|&t| t != tile);
                L1State::Sharer { hint }
            };
            let line = L1Line { state, area_sharers: 0, propos: [None; MAX_AREAS], version: fill.version };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
        }
        if matches!(fill.supplier, Supplier::HomeL2 | Supplier::Memory) {
            ctx.send(
                Msg {
                    kind: MsgKind::Unblock { became_owner: fill.ownership },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(block)),
                },
                0,
            );
        }
        ctx.complete(tile, block, lat.l1_data);
        if !self.co_pending[tile].contains(&block) {
            for m in self.l1_queues[tile].release(block) {
                ctx.replay(m);
            }
        }
    }

    /// Sends supplier-identity hints to the tiles of `area` named in
    /// `sharers` (paper Figure 5: predictions are refreshed when the
    /// ownership or providership moves).
    fn send_hints(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, area: usize, sharers: u64) {
        if !self.spec.enable_hints {
            return;
        }
        for t in self.area_tiles(area, sharers) {
            ctx.send(
                Msg {
                    kind: MsgKind::Hint { supplier: tile },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(t),
                },
                self.spec.lat.l1_tag,
            );
        }
    }

    fn classify(&self, e: &MshrEntry, fill: &DataInfo) -> MissClass {
        match (e.predicted, fill.supplier) {
            (_, Supplier::Memory) => MissClass::Memory,
            (Some(p), Supplier::OwnerL1) if e.fill_from == Some(Node::L1(p)) => {
                MissClass::PredictedOwnerHit
            }
            (Some(p), Supplier::ProviderL1) if e.fill_from == Some(Node::L1(p)) => {
                MissClass::PredictedProviderHit
            }
            (Some(_), _) => MissClass::PredictionFailed,
            (None, Supplier::HomeL2) => MissClass::UnpredictedHome,
            (None, _) => MissClass::UnpredictedForwarded,
        }
    }

    fn install_l1(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line) {
        // A fresh copy supersedes any stale hand-off note for the block.
        self.tombstones[tile].remove(&block);
        if let Some(existing) = self.l1[tile].get_mut(block) {
            *existing = line;
            return;
        }
        let co = &self.co_pending[tile];
        let lq = &self.l1_queues[tile];
        let (victims, _overflow) =
            self.l1[tile].insert_filtered(block, line, |b| !co.contains(&b) && !lq.is_busy(b));
        for (vb, vline) in victims {
            self.evict_l1_line(ctx, tile, vb, vline);
        }
    }

    /// Replacements per paper Table II.
    fn evict_l1_line(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line) {
        let lat = self.spec.lat;
        let my_area = self.area_of(tile);
        match line.state {
            L1State::Sharer { hint } => {
                if let Some(h) = hint {
                    self.stats.l1c_access.inc();
                    if let Some(p) = self.l1c[tile].get_mut(block) {
                        *p = h;
                    } else {
                        self.l1c[tile].insert(block, h);
                    }
                }
            }
            L1State::Provider => {
                self.stats.l1_repl_transactions.inc();
                if line.area_sharers != 0 {
                    // Providership + sharing code to a sharer of the area.
                    let local = line.area_sharers.trailing_zeros() as usize;
                    let target = self.spec.areas.tile_in_area(my_area, local);
                    let rest = line.area_sharers & !(1 << local);
                    self.ptombstone_set(tile, block, target);
                    ctx.send(
                        Msg {
                            kind: MsgKind::ProvidershipTransfer {
                                sharers: rest,
                                remaining: rest,
                                former: tile,
                            },
                            block,
                            src: Node::L1(tile),
                            dst: Node::L1(target),
                        },
                        lat.l1_tag,
                    );
                } else {
                    // No sharers left: tell the owner (via the home).
                    ctx.send(
                        Msg {
                            kind: MsgKind::NoProvider { area: my_area as u16, former: tile },
                            block,
                            src: Node::L1(tile),
                            dst: Node::L2(self.home(block)),
                        },
                        lat.l1_tag,
                    );
                }
            }
            L1State::Owner { dirty, .. } => {
                self.stats.l1_repl_transactions.inc();
                if line.area_sharers != 0 {
                    // Ownership + sharing code + ProPos to an area sharer.
                    let local = line.area_sharers.trailing_zeros() as usize;
                    let target = self.spec.areas.tile_in_area(my_area, local);
                    let rest = line.area_sharers & !(1 << local);
                    self.tombstone_set(tile, block, Node::L1(target));
                    ctx.send(
                        Msg {
                            kind: MsgKind::OwnershipTransfer {
                                sharers: rest,
                                propos: line.propos,
                                dirty,
                                version: line.version,
                                remaining: rest,
                            },
                            block,
                            src: Node::L1(tile),
                            dst: Node::L1(target),
                        },
                        lat.l1_hit(),
                    );
                } else {
                    // No sharers in the area: ownership goes home; the
                    // other areas' providers stay valid.
                    self.tombstone_set(tile, block, Node::L2(self.home(block)));
                    ctx.send(
                        Msg {
                            kind: MsgKind::OwnershipToHome {
                                dirty,
                                version: line.version,
                                propos: line.propos,
                                sharers: 0,
                                former_stays_provider: false,
                            },
                            block,
                            src: Node::L1(tile),
                            dst: Node::L2(self.home(block)),
                        },
                        lat.l1_hit(),
                    );
                }
            }
        }
    }

    /// Request arrival at an L1 — paper Table I, L1 rows.
    fn l1_handle_req(&mut self, ctx: &mut Ctx, tile: Tile, msg: Msg, req: ReqInfo) {
        self.stats.l1_tag.inc();
        let block = msg.block;
        let lat = self.spec.lat;

        if req.requestor == tile {
            // Self-serve: an ownership transfer made us the owner while
            // our request was roaming (see DiCo's l1_handle_req).
            let is_owner = matches!(
                self.l1[tile].peek(block).map(|l| &l.state),
                Some(L1State::Owner { .. })
            );
            if self.mshr[tile].contains(block) {
                if is_owner {
                    self.self_serve(ctx, tile, block);
                    return;
                }
            } else if is_owner {
                return;
            }
            self.send_req(
                ctx,
                block,
                Node::L1(tile),
                Node::L2(self.home(block)),
                ReqInfo { forwarder: Some(tile), via_home: true, ..req },
                lat.l1_tag,
            );
            return;
        }

        let state = self.l1[tile].peek(block).map(|l| l.state);
        let same_area = self.area_of(req.requestor) == self.area_of(tile);

        match state {
            Some(L1State::Owner { .. }) => {
                if self.l1_queues[tile].is_busy(block)
                    || (req.write && self.co_pending[tile].contains(&block))
                {
                    self.l1_queues[tile].enqueue(msg);
                    return;
                }
                if req.write {
                    self.serve_write_as_owner(ctx, tile, block, req);
                    return;
                }
                // Table I: read at the owner.
                let my_area = self.area_of(tile);
                let req_area = self.area_of(req.requestor);
                if same_area {
                    let lb = self.local_bit(req.requestor);
                    let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("providers: owner line missing at L1 tile {tile}, block {block:#x}"));
                    line.area_sharers |= lb;
                    if let L1State::Owner { exclusive, .. } = &mut line.state {
                        *exclusive = false;
                    }
                    let version = line.version;
                    self.stats.l1_data_read.inc();
                    ctx.send(
                        Msg {
                            kind: MsgKind::Data(DataInfo::shared(version, Supplier::OwnerL1)),
                            block,
                            src: Node::L1(tile),
                            dst: Node::L1(req.requestor),
                        },
                        lat.l1_hit(),
                    );
                    return;
                }
                // Remote-area read.
                let provider = self.l1[tile].peek(block).unwrap_or_else(|| panic!("providers: owner line missing at L1 tile {tile}, block {block:#x}")).propos[req_area];
                match provider {
                    Some(p) if req.forwarder != Some(p as Tile) => {
                        // Forward to the provider of the requestor's area.
                        self.send_req(
                            ctx,
                            block,
                            Node::L1(tile),
                            Node::L1(p as Tile),
                            ReqInfo { forwarder: Some(tile), hops: req.hops.saturating_add(1), ..req },
                            lat.l1_tag,
                        );
                    }
                    _ => {
                        // No provider (or our pointer just bounced):
                        // serve and make the requestor the provider. A
                        // displaced pointer's copy may still be live
                        // (message crossing): destroy it silently so no
                        // untracked copy survives.
                        let stale = self.l1[tile].peek(block).unwrap_or_else(|| panic!("providers: owner line missing at L1 tile {tile}, block {block:#x}")).propos[req_area];
                        if let Some(p) = stale {
                            ctx.send(
                                Msg {
                                    kind: MsgKind::InvSilent,
                                    block,
                                    src: Node::L1(tile),
                                    dst: Node::L1(p as Tile),
                                },
                                lat.l1_tag,
                            );
                        }
                        let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("providers: owner line missing at L1 tile {tile}, block {block:#x}"));
                        line.propos[req_area] = Some(req.requestor as u16);
                        if let L1State::Owner { exclusive, .. } = &mut line.state {
                            *exclusive = false;
                        }
                        let version = line.version;
                        self.stats.l1_data_read.inc();
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
                        let _ = my_area;
                    }
                }
                return;
            }
            // A provider with its own write in flight is about to
            // invalidate its area: it must not hand out copies that the
            // imminent install would forget.
            Some(L1State::Provider) if !req.write && same_area && !self.mshr[tile].contains(block) => {
                // Table I: provider serves an in-area read.
                let lb = self.local_bit(req.requestor);
                let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("providers: provider line missing at L1 tile {tile}, block {block:#x}"));
                line.area_sharers |= lb;
                let version = line.version;
                self.stats.l1_data_read.inc();
                ctx.send(
                    Msg {
                        kind: MsgKind::Data(DataInfo::shared(version, Supplier::ProviderL1)),
                        block,
                        src: Node::L1(tile),
                        dst: Node::L1(req.requestor),
                    },
                    lat.l1_hit(),
                );
                return;
            }
            _ => {}
        }

        // Cannot serve: chase a hand-off, park on incoming ownership, or
        // fall back to the home.
        // Park first: an in-flight transaction that will make us the
        // owner outranks any (possibly stale) hand-off note.
        if let Some(e) = self.mshr[tile].get(block) {
            let ownership_incoming =
                (req.vouched && e.write) || e.fill.map(|f| f.ownership).unwrap_or(false);
            if ownership_incoming {
                self.l1_queues[tile].enqueue(msg);
                return;
            }
        }
        // Chase the hand-off note, bounded (DiCo's deadlock avoidance).
        if req.hops < MAX_CHASE_HOPS {
            if let Some(&next) = self.tombstones[tile].get(&block) {
                self.send_req(
                    ctx,
                    block,
                    Node::L1(tile),
                    next,
                    ReqInfo { forwarder: Some(tile), hops: req.hops + 1, ..req },
                    lat.l1_tag,
                );
                return;
            }
        }
        self.send_req(
            ctx,
            block,
            Node::L1(tile),
            Node::L2(self.home(block)),
            ReqInfo { forwarder: Some(tile), via_home: true, ..req },
            lat.l1_tag,
        );
    }

    /// Owner serves a write: invalidate through the providers and hand
    /// the ownership over (paper Figure 4).
    fn serve_write_as_owner(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let lat = self.spec.lat;
        let my_area = self.area_of(tile);
        let req_area = self.area_of(req.requestor);
        let line = self.l1[tile].remove(block).unwrap_or_else(|| panic!("providers: owner line missing at L1 tile {tile}, block {block:#x}"));

        // Sharers of the owner's area (minus the requestor if local).
        let mut area_invs = line.area_sharers;
        if req_area == my_area {
            area_invs &= !self.local_bit(req.requestor);
        }
        // Every provider is invalidated through InvProvider — including
        // the requestor itself when it is one: the paper's §IV-A special
        // case says the requestor-provider invalidates its area when it
        // receives "the ownership or an invalidation message"; the
        // explicit InvProvider also chases a providership hand-off that
        // may have left the requestor in the meantime.
        let propos = line.propos;
        let acks_sharers = area_invs.count_ones();
        let acks_providers = Self::propo_count(&propos);
        self.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    acks_sharers,
                    acks_providers,
                    dirty: line.dirty(),
                    version: line.version,
                    supplier: Supplier::OwnerL1,
                    ..DataInfo::shared(line.version, Supplier::OwnerL1)
                }),
                block,
                src: Node::L1(tile),
                dst: Node::L1(req.requestor),
            },
            lat.l1_hit(),
        );
        self.send_area_invs(
            ctx,
            Node::L1(tile),
            block,
            my_area,
            area_invs,
            Node::L1(req.requestor),
            line.version,
        );
        self.send_provider_invs(ctx, Node::L1(tile), block, &propos, Node::L1(req.requestor));
        ctx.send(
            Msg {
                kind: MsgKind::ChangeOwner { new_owner: req.requestor },
                block,
                src: Node::L1(tile),
                dst: Node::L2(self.home(block)),
            },
            lat.l1_tag,
        );
        self.tombstone_set(tile, block, Node::L1(req.requestor));
    }

    fn l1_handle_inv(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        reply_to: Node,
        version: u64,
    ) {
        self.stats.l1_tag.inc();
        if self.l1[tile].contains(block) {
            self.l1[tile].remove(block);
        } else if let Some(e) = self.mshr[tile].get_mut(block) {
            if !e.write && !e.have_data {
                e.pending_inv = Some(e.pending_inv.map_or(version, |v| v.max(version)));
            }
        }
        if let Node::L1(new_owner) = reply_to {
            self.learn(tile, block, new_owner);
        }
        ctx.send(
            Msg { kind: MsgKind::Ack, block, src: Node::L1(tile), dst: reply_to },
            self.spec.lat.l1_tag,
        );
    }

    /// Invalidate a provider: it cascades to its area sharers and
    /// acknowledges with the cascaded count.
    fn l1_handle_inv_provider(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, reply_to: Node) {
        self.stats.l1_tag.inc();
        let lat = self.spec.lat;
        let my_area = self.area_of(tile);
        let is_provider =
            matches!(self.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Provider));
        if is_provider {
            let line = self.l1[tile].remove(block).unwrap_or_else(|| panic!("providers: provider line missing at L1 tile {tile}, block {block:#x}"));
            let n = line.area_sharers.count_ones();
            self.send_area_invs(ctx, Node::L1(tile), block, my_area, line.area_sharers, reply_to, line.version);
            ctx.send(
                Msg { kind: MsgKind::AckCount { sharers: n }, block, src: Node::L1(tile), dst: reply_to },
                lat.l1_tag,
            );
            if let Node::L1(new_owner) = reply_to {
                self.learn(tile, block, new_owner);
            }
            return;
        }
        // Not (or no longer) the provider: chase the providership
        // hand-off (FIFO delivery guarantees it arrived first), else the
        // area genuinely has no tracked sharers.
        if let Some(&next) = self.ptombstones[tile].get(&block) {
            ctx.send(
                Msg {
                    kind: MsgKind::InvProvider { reply_to },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(next),
                },
                lat.l1_tag,
            );
            return;
        }
        // Drop any plain copy we still hold and report zero cascades.
        self.l1[tile].remove(block);
        if let Some(e) = self.mshr[tile].get_mut(block) {
            if !e.write && !e.have_data {
                e.pending_inv = Some(u64::MAX);
            }
        }
        ctx.send(
            Msg { kind: MsgKind::AckCount { sharers: 0 }, block, src: Node::L1(tile), dst: reply_to },
            lat.l1_tag,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn l1_handle_transfer(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        msg: Msg,
        sharers: u64,
        propos: Propos,
        dirty: bool,
        version: u64,
    ) {
        self.stats.l1_tag.inc();
        let block = msg.block;
        // Receiving a transfer supersedes any stale hand-off note.
        self.tombstones[tile].remove(&block);
        let lat = self.spec.lat;
        let mine = sharers & !self.local_bit(tile);
        let my_area = self.area_of(tile);
        // A tile with a miss outstanding and no line accepts the
        // ownership as a fresh line; its roaming request completes the
        // MSHR when it returns (self-serve).
        if !self.l1[tile].contains(block) && self.mshr[tile].contains(block) {
            let line = L1Line {
                state: L1State::Owner {
                    exclusive: mine == 0 && Self::propo_count(&propos) == 0,
                    dirty,
                },
                area_sharers: mine,
                propos,
                version,
            };
            self.install_l1(ctx, tile, block, line);
            self.send_hints(ctx, tile, block, my_area, mine);
            ctx.send(
                Msg {
                    kind: MsgKind::ChangeOwner { new_owner: tile },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(block)),
                },
                lat.l1_tag,
            );
            if !self.co_ack_early[tile].remove(&block) {
                self.co_pending[tile].insert(block);
            }
            return;
        }
        if self.l1[tile].contains(block) {
            let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("providers: inherited line missing at L1 tile {tile}, block {block:#x}"));
            line.state = L1State::Owner {
                exclusive: mine == 0 && Self::propo_count(&propos) == 0,
                dirty,
            };
            // Merge: we may have been the area's provider with sharers.
            line.area_sharers |= mine;
            line.propos = propos;
            self.send_hints(ctx, tile, block, my_area, mine);
            ctx.send(
                Msg {
                    kind: MsgKind::ChangeOwner { new_owner: tile },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(block)),
                },
                lat.l1_tag,
            );
            if !self.co_ack_early[tile].remove(&block) {
                self.co_pending[tile].insert(block);
                self.l1_queues[tile].set_busy(block);
            }
            return;
        }
        // Silently dropped: forward along the area sharers or go home.
        if mine != 0 {
            let local = mine.trailing_zeros() as usize;
            let target = self.spec.areas.tile_in_area(my_area, local);
            self.tombstone_set(tile, block, Node::L1(target));
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipTransfer {
                        sharers: mine,
                        propos,
                        dirty,
                        version,
                        remaining: mine & !(1 << local),
                    },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(target),
                },
                lat.l1_tag,
            );
        } else {
            self.tombstone_set(tile, block, Node::L2(self.home(block)));
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipToHome {
                        dirty,
                        version,
                        propos,
                        sharers: 0,
                        former_stays_provider: false,
                    },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(block)),
                },
                lat.l1_tag,
            );
        }
    }

    fn l1_handle_ptransfer(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        msg: Msg,
        sharers: u64,
        former: Tile,
    ) {
        self.stats.l1_tag.inc();
        let block = msg.block;
        let lat = self.spec.lat;
        let mine = sharers & !self.local_bit(tile);
        let my_area = self.area_of(tile);
        let is_plain_sharer =
            matches!(self.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Sharer { .. }));
        if is_plain_sharer {
            let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("providers: sharer line missing at L1 tile {tile}, block {block:#x}"));
            line.state = L1State::Provider;
            line.area_sharers = mine;
            // Register with the owner (routed via the home; best-effort —
            // a stale ProPo self-corrects through the forwarder check).
            ctx.send(
                Msg {
                    kind: MsgKind::ChangeProvider { area: my_area as u16, new_provider: tile },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(block)),
                },
                lat.l1_tag,
            );
            // Hint the inherited sharers about their new supplier
            // (paper Figure 5), keeping their predictions warm.
            self.send_hints(ctx, tile, block, my_area, mine);
            return;
        }
        // Pass it along, or tell the owner there is no provider left.
        if mine != 0 {
            let local = mine.trailing_zeros() as usize;
            let target = self.spec.areas.tile_in_area(my_area, local);
            self.ptombstone_set(tile, block, target);
            ctx.send(
                Msg {
                    kind: MsgKind::ProvidershipTransfer {
                        sharers: mine,
                        remaining: mine & !(1 << local),
                        former,
                    },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(target),
                },
                lat.l1_tag,
            );
        } else {
            ctx.send(
                Msg {
                    kind: MsgKind::NoProvider { area: my_area as u16, former },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(block)),
                },
                lat.l1_tag,
            );
        }
    }

    fn l1_handle_recall(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        self.stats.l1_tag.inc();
        let lat = self.spec.lat;
        let is_owner =
            matches!(self.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Owner { .. }));
        if !is_owner {
            // Ownership may be on its way to us (the home learned about
            // it through our Change_Owner before our data arrived): park
            // the recall; the completion replay honors it.
            if let Some(e) = self.mshr[tile].get(block) {
                if e.write || e.fill.map(|f| f.ownership).unwrap_or(false) {
                    let home = self.home(block);
                    self.l1_queues[tile].enqueue(Msg {
                        kind: MsgKind::OwnershipRecall,
                        block,
                        src: Node::L2(home),
                        dst: Node::L1(tile),
                    });
                    return;
                }
            }
            ctx.send(
                Msg {
                    kind: MsgKind::RecallFailed,
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(block)),
                },
                lat.l1_tag,
            );
            return;
        }
        if self.l1_queues[tile].is_busy(block) || self.co_pending[tile].contains(&block) {
            let home = self.home(block);
            self.l1_queues[tile].enqueue(Msg {
                kind: MsgKind::OwnershipRecall,
                block,
                src: Node::L2(home),
                dst: Node::L1(tile),
            });
            return;
        }
        let my_area = self.area_of(tile);
        let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("providers: owner line missing at L1 tile {tile}, block {block:#x}"));
        let (dirty, version) = (line.dirty(), line.version);
        let mut propos = line.propos;
        // The former owner stays on as the provider of its area
        // (paper §IV-A1, L2C$ replacement).
        propos[my_area] = Some(tile as u16);
        line.state = L1State::Provider;
        line.propos = [None; MAX_AREAS];
        self.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::OwnershipToHome {
                    dirty,
                    version,
                    propos,
                    sharers: 0,
                    former_stays_provider: true,
                },
                block,
                src: Node::L1(tile),
                dst: Node::L2(self.home(block)),
            },
            lat.l1_hit(),
        );
    }

    // -------------------------------------------------------- home side

    fn l2c_insert(&mut self, ctx: &mut Ctx, home: Tile, block: Block, owner: Tile) {
        self.stats.l2c_access.inc();
        if let Some(o) = self.l2c[home].get_mut(block) {
            *o = owner;
            return;
        }
        let hq = &self.home_queues[home];
        let (victims, _overflow) = self.l2c[home].insert_filtered(block, owner, |b| !hq.is_busy(b));
        for (vb, vo) in victims {
            self.home_queues[home].set_busy(vb);
            self.tx[home].insert(vb, HomeTx::Recall);
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipRecall,
                    block: vb,
                    src: Node::L2(home),
                    dst: Node::L1(vo),
                },
                self.spec.lat.l2_tag,
            );
        }
    }

    fn l2_insert(&mut self, ctx: &mut Ctx, home: Tile, block: Block, entry: L2Entry) {
        self.stats.l2_data_write.inc();
        let hq = &self.home_queues[home];
        let (victims, _overflow) = self.l2[home].insert_filtered(block, entry, |b| !hq.is_busy(b));
        for (vb, ve) in victims {
            self.evict_l2_owner_entry(ctx, home, vb, ve);
        }
    }

    /// Evicting a home-owned entry invalidates through the providers
    /// (the home acts as owner and requestor at once, paper §IV-A).
    fn evict_l2_owner_entry(&mut self, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry) {
        self.stats.l2_evictions.inc();
        let n = Self::propo_count(&e.propos);
        if n == 0 {
            if e.dirty {
                self.stats.mem_writes.inc();
                self.mem.write_back(block, e.version);
                self.pending_mem_writes.push((home, block));
            }
            return;
        }
        self.home_queues[home].set_busy(block);
        self.tx[home].insert(
            block,
            HomeTx::EvictL2 {
                acks_left: 0,
                provider_acks_left: n as i64,
                dirty: e.dirty,
                version: e.version,
            },
        );
        self.send_provider_invs(ctx, Node::L2(home), block, &e.propos, Node::L2(home));
    }

    /// Table I, L2 rows.
    fn home_dispatch(&mut self, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        let block = msg.block;
        let lat = self.spec.lat;
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        self.stats.home_lookups.inc();
        if self.l2c[home].contains(block) {
            self.stats.home_hits.inc();
        }
        if let Some(&owner) = self.l2c[home].peek(block) {
            // A *vouched* request bouncing off the very cache the owner
            // pointer names proves an ownership-loss notification is in
            // flight: hold until it lands. Anything else is forwarded
            // with our vouch (the destination parks it if its ownership
            // is still en route).
            if req.vouched && req.forwarder == Some(owner) {
                self.bounce_hold[home]
                    .entry(block)
                    .or_default()
                    .push_back(Msg { kind: MsgKind::Req(req), ..msg });
                return;
            }
            self.send_req(
                ctx,
                block,
                Node::L2(home),
                Node::L1(owner),
                ReqInfo { via_home: true, vouched: true, hops: 0, ..req },
                lat.l2_tag,
            );
            return;
        }
        if self.l2[home].contains(block) {
            let req_area = self.area_of(req.requestor);
            // Read + live provider in the area: forward to the provider.
            if !req.write {
                let propo = self.l2[home].peek(block).unwrap_or_else(|| panic!("providers: L2 entry missing at home {home}, block {block:#x}")).propos[req_area];
                match propo {
                    Some(p) if req.forwarder != Some(p as Tile) && p as Tile != req.requestor => {
                        self.send_req(
                            ctx,
                            block,
                            Node::L2(home),
                            Node::L1(p as Tile),
                            ReqInfo { via_home: true, hops: 0, ..req },
                            lat.l2_tag,
                        );
                        return;
                    }
                    Some(p) if req.forwarder == Some(p as Tile) => {
                        // The provider pointer is stale (or the messages
                        // crossed): repair it and destroy any surviving
                        // copy at the displaced provider.
                        self.l2[home].peek_mut(block).unwrap_or_else(|| panic!("providers: L2 entry missing at home {home}, block {block:#x}")).propos[req_area] = None;
                        ctx.send(
                            Msg {
                                kind: MsgKind::InvSilent,
                                block,
                                src: Node::L2(home),
                                dst: Node::L1(p as Tile),
                            },
                            lat.l2_tag,
                        );
                    }
                    _ => {}
                }
            }
            // Grant the ownership to the requestor (Table I: L2 owner, no
            // provider -> requestor becomes owner).
            let e = self.l2[home].remove(block).unwrap_or_else(|| panic!("providers: L2 entry missing at home {home}, block {block:#x}"));
            self.stats.l2_data_read.inc();
            let propos = e.propos;
            let n_prov = Self::propo_count(&propos);
            if req.write {
                self.send_provider_invs(ctx, Node::L2(home), block, &propos, Node::L1(req.requestor));
            }
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo {
                        exclusive: n_prov == 0,
                        ownership: true,
                        sharers: 0,
                        propos: if req.write { [None; MAX_AREAS] } else { propos },
                        acks_sharers: 0,
                        acks_providers: if req.write { n_prov } else { 0 },
                        dirty: e.dirty,
                        version: e.version,
                        supplier: Supplier::HomeL2,
                        ..DataInfo::shared(e.version, Supplier::HomeL2)
                    }),
                    block,
                    src: Node::L2(home),
                    dst: Node::L1(req.requestor),
                },
                lat.l2_access(),
            );
            self.home_queues[home].set_busy(block);
            self.tx[home].insert(block, HomeTx::Granting { to: req.requestor });
            return;
        }
        self.home_queues[home].set_busy(block);
        self.tx[home].insert(block, HomeTx::MemFetch { req: msg });
        self.stats.mem_reads.inc();
        ctx.mem_read(block, home, lat.l2_tag);
    }

    fn home_handle_memdata(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        let Some(HomeTx::MemFetch { req }) = self.tx[home].remove(&block) else {
            panic!("MemData without MemFetch");
        };
        let MsgKind::Req(req) = req.kind else { unreachable!() };
        let version = self.mem.version(block);
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    dirty: false,
                    version,
                    supplier: Supplier::Memory,
                    ..DataInfo::shared(version, Supplier::Memory)
                }),
                block,
                src: Node::L2(home),
                dst: Node::L1(req.requestor),
            },
            self.spec.lat.l2_access(),
        );
        self.tx[home].insert(block, HomeTx::Granting { to: req.requestor });
    }

    #[allow(clippy::too_many_arguments)]
    fn home_handle_unblock(&mut self, ctx: &mut Ctx, home: Tile, block: Block, src: Tile, became_owner: bool) {
        if let Some(HomeTx::Granting { to }) = self.tx[home].get(&block) {
            debug_assert_eq!(*to, src, "Unblock from a non-grantee");
            self.tx[home].remove(&block);
            if became_owner {
                self.l2c_insert(ctx, home, block, src);
            }
            for mut m in self.home_queues[home].release(block) {
                if let MsgKind::Req(ref mut r) = m.kind {
                    // Any bounce marker predates this release and is
                    // stale: let the request re-evaluate freshly.
                    r.via_home = false;
                    r.forwarder = None;
                }
                ctx.replay(m);
            }
            self.release_bounces(ctx, home, block);
        }
    }

    fn home_handle_change_owner(&mut self, ctx: &mut Ctx, home: Tile, block: Block, new_owner: Tile) {
        self.stats.l2c_access.inc();
        let lat = self.spec.lat;
        if let Some(HomeTx::Recall) = self.tx[home].get(&block) {
            ctx.send(
                Msg { kind: MsgKind::ChangeOwnerAck, block, src: Node::L2(home), dst: Node::L1(new_owner) },
                lat.l2_tag,
            );
            ctx.send(
                Msg { kind: MsgKind::OwnershipRecall, block, src: Node::L2(home), dst: Node::L1(new_owner) },
                lat.l2_tag,
            );
            self.release_bounces(ctx, home, block);
            return;
        }
        if let Some(o) = self.l2c[home].get_mut(block) {
            *o = new_owner;
        } else {
            self.l2c_insert(ctx, home, block, new_owner);
        }
        ctx.send(
            Msg { kind: MsgKind::ChangeOwnerAck, block, src: Node::L2(home), dst: Node::L1(new_owner) },
            lat.l2_tag,
        );
        self.release_bounces(ctx, home, block);
    }

    fn release_bounces(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        if let Some(q) = self.bounce_hold[home].remove(&block) {
            for mut m in q {
                if let MsgKind::Req(ref mut r) = m.kind {
                    r.via_home = false;
                    r.forwarder = None;
                }
                ctx.replay(m);
            }
        }
    }

    fn home_handle_wb(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        dirty: bool,
        version: u64,
        propos: Propos,
    ) {
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        self.l2c[home].remove(block);
        let entry = L2Entry { dirty, version, propos };
        if let Some(HomeTx::Recall) = self.tx[home].get(&block) {
            self.tx[home].remove(&block);
            self.l2_insert(ctx, home, block, entry);
            for mut m in self.home_queues[home].release(block) {
                if let MsgKind::Req(ref mut r) = m.kind {
                    // Any bounce marker predates this release and is
                    // stale: let the request re-evaluate freshly.
                    r.via_home = false;
                    r.forwarder = None;
                }
                ctx.replay(m);
            }
        } else {
            self.l2_insert(ctx, home, block, entry);
        }
        self.release_bounces(ctx, home, block);
    }

    /// `Change_Provider` / `No_Provider` arriving at the home: applied to
    /// the home's own entry, or forwarded to the L1 owner.
    fn home_handle_provider_update(&mut self, ctx: &mut Ctx, home: Tile, msg: Msg) {
        self.stats.l2c_access.inc();
        let block = msg.block;
        if let Some(&owner) = self.l2c[home].peek(block) {
            ctx.send(
                Msg { dst: Node::L1(owner), src: Node::L2(home), ..msg },
                self.spec.lat.l2_tag,
            );
            return;
        }
        if let Some(e) = self.l2[home].peek_mut(block) {
            match msg.kind {
                MsgKind::ChangeProvider { area, new_provider } => {
                    e.propos[area as usize] = Some(new_provider as u16);
                    ctx.send(
                        Msg {
                            kind: MsgKind::ChangeProviderAck,
                            block,
                            src: Node::L2(home),
                            dst: Node::L1(new_provider),
                        },
                        self.spec.lat.l2_tag,
                    );
                }
                MsgKind::NoProvider { area, former } => {
                    if e.propos[area as usize] == Some(former as u16) {
                        e.propos[area as usize] = None;
                    }
                }
                _ => unreachable!(),
            }
        }
        // Ownership in transit: drop; stale pointers self-correct.
    }

    /// The same updates arriving at an owner L1.
    fn l1_handle_provider_update(&mut self, ctx: &mut Ctx, tile: Tile, msg: Msg) {
        self.stats.l1_tag.inc();
        let block = msg.block;
        let is_owner =
            matches!(self.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Owner { .. }));
        if !is_owner {
            // Stale: drop; the pointer will self-correct.
            return;
        }
        let line = self.l1[tile].peek_mut(block).unwrap_or_else(|| panic!("providers: owner line missing at L1 tile {tile}, block {block:#x}"));
        match msg.kind {
            MsgKind::ChangeProvider { area, new_provider } => {
                line.propos[area as usize] = Some(new_provider as u16);
                ctx.send(
                    Msg {
                        kind: MsgKind::ChangeProviderAck,
                        block,
                        src: Node::L1(tile),
                        dst: Node::L1(new_provider),
                    },
                    self.spec.lat.l1_tag,
                );
            }
            MsgKind::NoProvider { area, former } => {
                if line.propos[area as usize] == Some(former as u16) {
                    line.propos[area as usize] = None;
                }
            }
            _ => unreachable!(),
        }
    }

    fn drain_deferred(&mut self, ctx: &mut Ctx) {
        let writes = std::mem::take(&mut self.pending_mem_writes);
        for (home, block) in writes {
            ctx.mem_write(block, home, 0);
        }
    }
}

impl CoherenceProtocol for Providers {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DiCoProviders
    }

    fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    fn core_access(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        write: bool,
    ) -> Result<AccessOutcome, ProtoError> {
        self.stats.accesses.inc();
        self.stats.l1_tag.inc();
        if self.mshr[tile].contains(block) {
            return Ok(AccessOutcome::Blocked { reason: BlockReason::MshrConflict });
        }
        if self.l1_queues[tile].is_busy(block) {
            return Ok(AccessOutcome::Blocked { reason: BlockReason::BusyBlock });
        }
        let lat = self.spec.lat;
        enum Action {
            HitRead,
            HitWrite,
            Upgrade,
            Miss,
        }
        let action = match self.l1[tile].peek(block).map(|l| (&l.state, l.area_sharers, &l.propos))
        {
            Some((L1State::Sharer { .. } | L1State::Provider, ..)) if !write => Action::HitRead,
            Some((L1State::Sharer { .. } | L1State::Provider, ..)) => Action::Miss,
            Some((L1State::Owner { .. }, ..)) if !write => Action::HitRead,
            Some((L1State::Owner { exclusive: true, .. }, ..)) => Action::HitWrite,
            Some((L1State::Owner { .. }, sharers, propos)) => {
                if sharers == 0 && Self::propo_count(propos) == 0 {
                    Action::HitWrite
                } else {
                    Action::Upgrade
                }
            }
            None => Action::Miss,
        };
        let outcome = match action {
            Action::HitRead => {
                self.l1[tile].touch(block);
                self.stats.l1_data_read.inc();
                self.stats.l1_hits.inc();
                AccessOutcome::Hit { latency: lat.l1_hit() }
            }
            Action::HitWrite => {
                let v = self.authority.commit(block);
                let line = self.l1[tile].get_mut(block).expect("hit");
                line.version = v;
                line.state = L1State::Owner { exclusive: true, dirty: true };
                self.stats.l1_data_write.inc();
                self.stats.l1_hits.inc();
                AccessOutcome::Hit { latency: lat.l1_hit() }
            }
            Action::Upgrade => {
                self.start_miss(ctx, tile, block, true, true);
                self.drain_deferred(ctx);
                AccessOutcome::Miss
            }
            Action::Miss => {
                self.start_miss(ctx, tile, block, write, false);
                self.drain_deferred(ctx);
                AccessOutcome::Miss
            }
        };
        Ok(outcome)
    }

    fn handle(&mut self, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        match (msg.dst, msg.kind) {
            (Node::L1(tile), MsgKind::Req(req)) => self.l1_handle_req(ctx, tile, msg, req),
            (Node::L1(tile), MsgKind::Data(d)) => {
                {
                    let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                        return Err(ProtoError::new(
                            ProtocolKind::DiCoProviders,
                            msg.dst,
                            msg.block,
                            format!("data fill without MSHR entry ({:?} from {:?})", d.supplier, msg.src),
                        ));
                    };
                    e.have_data = true;
                    e.acks_needed += d.acks_sharers as i64;
                    e.provider_acks_needed += d.acks_providers as i64;
                    e.fill = Some(d);
                    e.fill_from = Some(msg.src);
                }
                // A writing requestor that is a provider is invalidated
                // through the owner's explicit InvProvider (handled like
                // any other provider), so no special casing is needed
                // here.
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::Ack) => {
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCoProviders,
                        msg.dst,
                        msg.block,
                        format!("invalidation ack without MSHR entry (from {:?})", msg.src),
                    ));
                };
                e.acks_needed -= 1;
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::AckCount { sharers }) => {
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCoProviders,
                        msg.dst,
                        msg.block,
                        format!("provider ack-count without MSHR entry (from {:?})", msg.src),
                    ));
                };
                e.provider_acks_needed -= 1;
                e.acks_needed += sharers as i64;
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::Inv { reply_to, version }) => {
                self.l1_handle_inv(ctx, tile, msg.block, reply_to, version);
            }
            (Node::L1(tile), MsgKind::InvSilent) => {
                self.stats.l1_tag.inc();
                let block = msg.block;
                // An owner copy is authoritative: a silent invalidation
                // targeting it is stale — ignore.
                if matches!(
                    self.l1[tile].peek(block).map(|l| &l.state),
                    Some(L1State::Owner { .. })
                ) {
                    // Stale.
                } else if let Some(line) = self.l1[tile].peek(block) {
                    // A provider cascades to its tracked sharers.
                    if matches!(line.state, L1State::Provider) {
                        let (sharers, area) = (line.area_sharers, self.area_of(tile));
                        for t in self.area_tiles(area, sharers) {
                            ctx.send(
                                Msg {
                                    kind: MsgKind::InvSilent,
                                    block,
                                    src: Node::L1(tile),
                                    dst: Node::L1(t),
                                },
                                self.spec.lat.l1_tag,
                            );
                        }
                    }
                    self.l1[tile].remove(block);
                } else if let Some(e) = self.mshr[tile].get_mut(block) {
                    if !e.write {
                        // Kill the fill in flight from before the repair.
                        e.pending_inv = Some(u64::MAX);
                    }
                }
            }
            (Node::L1(tile), MsgKind::InvProvider { reply_to }) => {
                self.l1_handle_inv_provider(ctx, tile, msg.block, reply_to);
            }
            (Node::L1(tile), MsgKind::OwnershipTransfer { sharers, propos, dirty, version, .. }) => {
                self.l1_handle_transfer(ctx, tile, msg, sharers, propos, dirty, version);
            }
            (Node::L1(tile), MsgKind::ProvidershipTransfer { sharers, former, .. }) => {
                self.l1_handle_ptransfer(ctx, tile, msg, sharers, former);
            }
            (Node::L1(tile), MsgKind::OwnershipRecall) => self.l1_handle_recall(ctx, tile, msg.block),
            (Node::L1(tile), MsgKind::ChangeOwnerAck) => {
                if self.co_pending[tile].remove(&msg.block) {
                    for m in self.l1_queues[tile].release(msg.block) {
                        ctx.replay(m);
                    }
                } else {
                    self.co_ack_early[tile].insert(msg.block);
                }
            }
            (Node::L1(tile), MsgKind::Hint { supplier }) => {
                self.stats.l1_tag.inc();
                self.learn(tile, msg.block, supplier);
            }
            (Node::L1(tile), MsgKind::ChangeProviderAck) => {
                // Informational only (see module docs): no blocking state.
                let _ = tile;
            }
            (Node::L1(tile), MsgKind::ChangeProvider { .. })
            | (Node::L1(tile), MsgKind::NoProvider { .. }) => {
                self.l1_handle_provider_update(ctx, tile, msg);
            }
            // ---------------------------------------------- home side
            (Node::L2(home), MsgKind::Req(req)) => {
                if self.home_queues[home].is_busy(msg.block) {
                    self.home_queues[home].enqueue(msg);
                } else {
                    self.home_dispatch(ctx, home, msg, req);
                }
            }
            (Node::L2(home), MsgKind::MemData) => self.home_handle_memdata(ctx, home, msg.block),
            (Node::L2(home), MsgKind::Unblock { became_owner }) => {
                self.home_handle_unblock(ctx, home, msg.block, msg.src.tile(), became_owner);
            }
            (Node::L2(home), MsgKind::ChangeOwner { new_owner }) => {
                self.home_handle_change_owner(ctx, home, msg.block, new_owner);
            }
            (Node::L2(home), MsgKind::OwnershipToHome { dirty, version, propos, .. }) => {
                self.home_handle_wb(ctx, home, msg.block, dirty, version, propos);
            }
            (Node::L2(home), MsgKind::ChangeProvider { .. })
            | (Node::L2(home), MsgKind::NoProvider { .. }) => {
                self.home_handle_provider_update(ctx, home, msg);
            }
            (Node::L2(_), MsgKind::RecallFailed) => {
                // Ownership is in motion; a ChangeOwner or writeback will
                // restart or complete the recall.
            }
            (Node::L2(home), MsgKind::Ack) => {
                let mut finished = None;
                if let Some(HomeTx::EvictL2 { acks_left, provider_acks_left, dirty, version }) =
                    self.tx[home].get_mut(&msg.block)
                {
                    *acks_left -= 1;
                    if *acks_left == 0 && *provider_acks_left == 0 {
                        finished = Some((*dirty, *version));
                    }
                } else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCoProviders,
                        msg.dst,
                        msg.block,
                        format!("stray invalidation ack at home (no EvictL2 transaction; from {:?})", msg.src),
                    ));
                }
                if let Some((dirty, version)) = finished {
                    self.finish_l2_eviction(ctx, home, msg.block, dirty, version);
                }
            }
            (Node::L2(home), MsgKind::AckCount { sharers }) => {
                let mut finished = None;
                if let Some(HomeTx::EvictL2 { acks_left, provider_acks_left, dirty, version }) =
                    self.tx[home].get_mut(&msg.block)
                {
                    *provider_acks_left -= 1;
                    *acks_left += sharers as i64;
                    if *acks_left == 0 && *provider_acks_left == 0 {
                        finished = Some((*dirty, *version));
                    }
                } else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCoProviders,
                        msg.dst,
                        msg.block,
                        format!("stray provider ack-count at home (no EvictL2 transaction; from {:?})", msg.src),
                    ));
                }
                if let Some((dirty, version)) = finished {
                    self.finish_l2_eviction(ctx, home, msg.block, dirty, version);
                }
            }
            _ => return Err(ProtoError::unexpected(ProtocolKind::DiCoProviders, &msg)),
        }
        self.drain_deferred(ctx);
        Ok(())
    }

    fn stats(&self) -> &ProtoStats {
        &self.stats
    }

    fn authority(&self) -> &VersionAuthority {
        &self.authority
    }

    fn stats_mut(&mut self) -> &mut ProtoStats {
        &mut self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ProtoStats::default();
    }

    fn quiescent(&self) -> bool {
        self.mshr.iter().all(|m| m.is_empty())
            && self.l1_queues.iter().all(|q| q.idle())
            && self.home_queues.iter().all(|q| q.idle())
            && self.tx.iter().all(|t| t.is_empty())
            && self.co_pending.iter().all(|s| s.is_empty())
            && self.bounce_hold.iter().all(|b| b.values().all(|q| q.is_empty()))
    }

    fn clone_box(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }

    crate::common::snap_state_methods!(
        stats,
        authority,
        mem,
        l1,
        l1c,
        mshr,
        l1_queues,
        co_pending,
        co_ack_early,
        tombstones,
        tombstone_fifo,
        ptombstones,
        ptombstone_fifo,
        l2,
        l2c,
        home_queues,
        tx,
        bounce_hold,
        pending_mem_writes,
    );

    fn occupancy(&self) -> Occupancy {
        let (l1_lines, l1_capacity) = occupancy_of(&self.l1);
        let (l2_lines, l2_capacity) = occupancy_of(&self.l2);
        let (c1, cap1) = occupancy_of(&self.l1c);
        let (c2, cap2) = occupancy_of(&self.l2c);
        Occupancy {
            l1_lines,
            l1_capacity,
            l2_lines,
            l2_capacity,
            aux_lines: c1 + c2,
            aux_capacity: cap1 + cap2,
        }
    }

    fn snapshot(&self) -> ChipSnapshot {
        let mut snap = ChipSnapshot::new(self.spec.tiles());
        for (t, l1) in self.l1.iter().enumerate() {
            for (block, line) in l1.iter() {
                let state = match line.state {
                    L1State::Sharer { .. } => CopyState::Shared,
                    L1State::Provider => CopyState::Provider,
                    L1State::Owner { exclusive, dirty } => CopyState::Owner { exclusive, dirty },
                };
                snap.l1[t].insert(block, CopyView { state, version: line.version });
            }
        }
        for (home, bank) in self.l2.iter().enumerate() {
            for (block, e) in bank.iter() {
                snap.l2.insert(
                    block,
                    L2View { has_data: true, version: e.version, dirty: e.dirty, owner_in_l1: None },
                );
            }
            for (block, &o) in self.l2c[home].iter() {
                snap.l2.entry(block).or_insert(L2View {
                    has_data: false,
                    version: 0,
                    dirty: false,
                    owner_in_l1: Some(o),
                });
            }
        }
        for (b, v) in self.authority.iter() {
            snap.authority.insert(*b, *v);
            snap.memory.insert(*b, self.mem.version(*b));
        }
        // Coverage: sharers must appear in the area sharing code of
        // their area's supplier (owner or provider); suppliers
        // self-report (their reachability is through the owner's ProPos
        // or a providership hand-off chain, which the union cannot see).
        let mut rec: std::collections::BTreeMap<Block, u64> = Default::default();
        for (t, l1) in self.l1.iter().enumerate() {
            let area = self.area_of(t);
            for (block, line) in l1.iter() {
                let mut bits = 0u64;
                match line.state {
                    L1State::Owner { .. } | L1State::Provider => {
                        bits |= bit(t);
                        for s in self.area_tiles(area, line.area_sharers) {
                            bits |= bit(s);
                        }
                        if let L1State::Owner { .. } = line.state {
                            for p in line.propos.iter().flatten() {
                                bits |= bit(*p as Tile);
                            }
                        }
                    }
                    L1State::Sharer { .. } => {}
                }
                if bits != 0 {
                    *rec.entry(block).or_insert(0) |= bits;
                }
            }
        }
        for bank in &self.l2 {
            for (block, e) in bank.iter() {
                let mut bits = 0u64;
                for p in e.propos.iter().flatten() {
                    bits |= bit(*p as Tile);
                }
                *rec.entry(block).or_insert(0) |= bits;
            }
        }
        snap.recorded = rec;
        snap
    }

    fn pending_summary(&self) -> String {
        let mut out = String::new();
        for t in 0..self.spec.tiles() {
            for (b, e) in self.mshr[t].iter() {
                out += &format!(
                    "tile {t} MSHR block {b:#x}: write={} have_data={} acks={} packs={} upgrade={}\n",
                    e.write, e.have_data, e.acks_needed, e.provider_acks_needed, e.upgrade
                );
            }
            let mut co: Vec<Block> = self.co_pending[t].iter().copied().collect();
            co.sort_unstable();
            for b in co {
                out += &format!("tile {t} co_pending block {b:#x}\n");
            }
            for (b, n) in self.l1_queues[t].pending_counts() {
                out += &format!(
                    "tile {t} l1_queue block {b:#x}: {n} msgs (busy={})\n",
                    self.l1_queues[t].is_busy(b)
                );
            }
            let mut txs: Vec<(Block, &HomeTx)> =
                self.tx[t].iter().map(|(b, x)| (*b, x)).collect();
            txs.sort_unstable_by_key(|&(b, _)| b);
            for (b, tx) in txs {
                out += &format!("home {t} tx block {b:#x}: {tx:?}\n");
            }
            let mut holds: Vec<(Block, usize)> = self.bounce_hold[t]
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(b, q)| (*b, q.len()))
                .collect();
            holds.sort_unstable();
            for (b, n) in holds {
                out += &format!("home {t} bounce_hold block {b:#x}: {n} msgs\n");
            }
        }
        out
    }
}

impl Providers {
    fn finish_l2_eviction(&mut self, ctx: &mut Ctx, home: Tile, block: Block, dirty: bool, version: u64) {
        self.tx[home].remove(&block);
        if dirty {
            self.stats.mem_writes.inc();
            self.mem.write_back(block, version);
            ctx.mem_write(block, home, 0);
        }
        for mut m in self.home_queues[home].release(block) {
            if let MsgKind::Req(ref mut r) = m.kind {
                r.via_home = false;
                r.forwarder = None;
            }
            ctx.replay(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{random_stress, Harness};

    fn harness() -> Harness<Providers> {
        Harness::new(Providers::new(ChipSpec::small()))
    }

    /// ChipSpec::small is a 4x4 mesh with four 2x2 areas:
    /// area 0 = {0,1,4,5}, area 1 = {2,3,6,7}, area 2 = {8,9,12,13},
    /// area 3 = {10,11,14,15}.
    #[test]
    fn area_layout_assumption() {
        let spec = ChipSpec::small();
        assert_eq!(spec.area_of(0), 0);
        assert_eq!(spec.area_of(2), 1);
        assert_eq!(spec.area_of(8), 2);
        assert_eq!(spec.area_of(15), 3);
    }

    #[test]
    fn local_read_serves_as_dico() {
        let mut h = harness();
        h.push_access(0, 100, true); // tile 0 owner (area 0)
        h.run_checked(1000);
        h.push_access(1, 100, false); // same area read
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[1].get(&100).unwrap().state, CopyState::Shared));
    }

    #[test]
    fn remote_read_creates_provider() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner in area 0
        h.run_checked(1000);
        h.push_access(2, 100, false); // area 1 reads -> becomes provider
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[2].get(&100).unwrap().state, CopyState::Provider));
    }

    #[test]
    fn provider_serves_in_area_read() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // provider of area 1
        h.run_checked(2000);
        h.push_access(3, 100, false); // same area as tile 2
        h.run_checked(3000);
        let snap = h.proto.snapshot();
        assert!(matches!(snap.l1[3].get(&100).unwrap().state, CopyState::Shared));
        // Tile 3 had no prediction: its request went through the home,
        // which forwarded to the owner, which forwarded to the provider —
        // the data still came from the provider L1.
        let s = h.proto.stats();
        assert!(
            s.class_count(MissClass::UnpredictedForwarded) >= 1,
            "classes: {:?}",
            s.miss_class
        );
    }

    #[test]
    fn predicted_provider_hit_is_classified() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // tile 2 provider (area 1)
        h.run_checked(2000);
        h.push_access(3, 100, false); // tile 3 sharer, hint -> tile 2
        h.run_checked(3000);
        // Evict nothing; tile 3's line hint points at the provider. Write
        // some other block then re-miss on 100 via eviction is complex;
        // instead make tile 6 (same area) read with a learned prediction:
        // tile 6 has no hint, so seed its L1C$ through an invalidation is
        // overkill — simply have tile 3 lose its copy by another tile's
        // write, then re-read using the hint learned from the Inv.
        h.push_access(0, 100, true); // invalidates everyone, tile 3 learns owner=0
        h.run_checked(5000);
        h.push_access(3, 100, false); // predicted to tile 0 (owner) -> 2-hop
        h.run_checked(6000);
        assert!(
            h.proto.stats().class_count(MissClass::PredictedOwnerHit) >= 1
                || h.proto.stats().class_count(MissClass::PredictedProviderHit) >= 1,
            "classes: {:?}",
            h.proto.stats().miss_class
        );
    }

    #[test]
    fn write_invalidates_across_areas() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner area 0
        h.run_checked(1000);
        for t in [1usize, 2, 3, 8, 10] {
            h.push_access(t, 100, false); // sharers + providers in 4 areas
        }
        h.run_checked(8000);
        h.push_access(5, 100, true); // write from area 0
        h.run_checked(10_000);
        let snap = h.proto.snapshot();
        for t in [0usize, 1, 2, 3, 8, 10] {
            assert!(!snap.l1[t].contains_key(&100), "tile {t} kept a stale copy");
        }
        assert!(matches!(
            snap.l1[5].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(*snap.authority.get(&100).unwrap(), 2);
    }

    #[test]
    fn writer_who_is_provider_invalidates_own_area() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner area 0
        h.run_checked(1000);
        h.push_access(2, 100, false); // tile 2 provider of area 1
        h.run_checked(2000);
        h.push_access(3, 100, false); // tile 3 sharer tracked by tile 2
        h.run_checked(3000);
        h.push_access(2, 100, true); // the provider writes
        h.run_checked(6000);
        let snap = h.proto.snapshot();
        assert!(!snap.l1[3].contains_key(&100), "tile 3 must be invalidated by tile 2");
        assert!(!snap.l1[0].contains_key(&100));
        assert!(matches!(
            snap.l1[2].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
    }

    #[test]
    fn ping_pong_across_areas_serializes() {
        let mut h = harness();
        for i in 0..12 {
            h.push_access([0, 2, 8, 10][i % 4], 64, true);
        }
        h.run_checked(60_000);
        assert_eq!(*h.proto.snapshot().authority.get(&64).unwrap(), 12);
    }

    #[test]
    fn stress_read_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xc1, 60, 40, 0.1);
    }

    #[test]
    fn stress_write_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xc2, 60, 24, 0.6);
    }

    #[test]
    fn stress_high_contention() {
        let mut h = harness();
        random_stress(&mut h, 0xc3, 50, 4, 0.5);
    }

    #[test]
    fn stress_tiny_chip_capacity_pressure() {
        let mut h = Harness::new(Providers::new(ChipSpec::tiny()));
        random_stress(&mut h, 0xc4, 80, 64, 0.3);
    }

    #[test]
    fn stress_many_seeds() {
        for seed in 0..6 {
            let mut h = harness();
            random_stress(&mut h, 0xd000 + seed, 30, 16, 0.4);
        }
    }
}
