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

use crate::checker::{ChipSnapshot, CopyState, CopyView, L2View};
use crate::common::*;
use cmpsim_cache::{Mshr, SetAssoc};
use cmpsim_engine::{Cycle, FxHashMap, FxHashSet};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1State {
    Sharer { hint: Option<Tile> },
    /// SBA provider: serves in-area reads, tracks nothing.
    Provider,
    Owner { exclusive: bool, dirty: bool },
}

#[derive(Debug, Clone)]
struct L1Line {
    state: L1State,
    /// Own-area sharing code (Owner only) — `nta` bits.
    area_sharers: u64,
    version: u64,
}

impl L1Line {
    fn dirty(&self) -> bool {
        matches!(self.state, L1State::Owner { dirty: true, .. })
    }
}

/// The home bank's role for a resident block.
#[derive(Debug, Clone)]
enum L2Role {
    /// The home holds the ownership of an area-confined block; the
    /// sharers (if any) all live in one area.
    Owner { sharers: u64, area: Option<usize> },
    /// Shared between areas: home is ordering point + provider; one
    /// ProPo per area, no sharer information.
    Sba { propos: Propos },
}

#[derive(Debug, Clone)]
struct L2Entry {
    dirty: bool,
    version: u64,
    role: L2Role,
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
    acks_needed: i64,
    pending_inv: Option<u64>,
}

#[derive(Debug, Clone)]
enum HomeTx {
    MemFetch { req: Msg },
    Recall,
    Granting { to: Tile },
    /// SBA write in flight: busy until the writer's `BcastDone`.
    SbaWrite { writer: Tile },
    /// SBA entry eviction: home collects the broadcast acks itself.
    SbaEvict { acks_left: i64, dirty: bool, version: u64 },
}

/// The DiCo-Arin protocol.
#[derive(Clone)]
pub struct Arin {
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
    /// Blocks locked by an in-flight broadcast invalidation.
    bcast_blocked: Vec<FxHashSet<Block>>,
    tombstones: Vec<FxHashMap<Block, Node>>,
    tombstone_fifo: Vec<VecDeque<Block>>,
    l2: Vec<SetAssoc<L2Entry>>,
    l2c: Vec<SetAssoc<Tile>>,
    home_queues: Vec<BlockQueues>,
    tx: Vec<FxHashMap<Block, HomeTx>>,
    bounce_hold: Vec<FxHashMap<Block, VecDeque<Msg>>>,
    pending_mem_writes: Vec<(Tile, Block)>,
}

const TOMBSTONE_CAP: usize = 128;

cmpsim_engine::impl_snap!(L1Line { state, area_sharers, version });
cmpsim_engine::impl_snap!(L2Entry { dirty, version, role });
cmpsim_engine::impl_snap!(MshrEntry {
    write,
    issued_at,
    predicted,
    upgrade,
    have_data,
    fill,
    fill_from,
    acks_needed,
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
            tag => return Err(cmpsim_engine::SnapError::BadTag { what: "arin::L1State", tag }),
        })
    }
}

impl cmpsim_engine::Snap for L2Role {
    fn save(&self, w: &mut cmpsim_engine::SnapWriter) {
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

    fn load(r: &mut cmpsim_engine::SnapReader<'_>) -> Result<Self, cmpsim_engine::SnapError> {
        use cmpsim_engine::Snap;
        Ok(match r.u8()? {
            0 => L2Role::Owner { sharers: Snap::load(r)?, area: Snap::load(r)? },
            1 => L2Role::Sba { propos: Snap::load(r)? },
            tag => return Err(cmpsim_engine::SnapError::BadTag { what: "arin::L2Role", tag }),
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
            HomeTx::SbaWrite { writer } => {
                w.u8(3);
                writer.save(w);
            }
            HomeTx::SbaEvict { acks_left, dirty, version } => {
                w.u8(4);
                acks_left.save(w);
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
            3 => HomeTx::SbaWrite { writer: Snap::load(r)? },
            4 => HomeTx::SbaEvict {
                acks_left: Snap::load(r)?,
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
            },
            tag => return Err(cmpsim_engine::SnapError::BadTag { what: "arin::HomeTx", tag }),
        })
    }
}

impl Arin {
    /// Builds the protocol for `spec`.
    pub fn new(spec: ChipSpec) -> Self {
        assert!(spec.num_areas() <= MAX_AREAS);
        let n = spec.tiles();
        Self {
            l1: (0..n).map(|_| SetAssoc::new(spec.l1)).collect(),
            l1c: (0..n).map(|_| SetAssoc::new(spec.aux)).collect(),
            mshr: (0..n).map(|_| Mshr::new(8)).collect(),
            l1_queues: (0..n).map(|_| BlockQueues::default()).collect(),
            co_pending: vec![FxHashSet::default(); n],
            co_ack_early: vec![FxHashSet::default(); n],
            bcast_blocked: vec![FxHashSet::default(); n],
            tombstones: vec![FxHashMap::default(); n],
            tombstone_fifo: vec![VecDeque::new(); n],
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

    fn home(&self, block: Block) -> Tile {
        self.spec.home_of(block)
    }

    fn area_of(&self, tile: Tile) -> usize {
        self.spec.area_of(tile)
    }

    fn local_bit(&self, tile: Tile) -> u64 {
        1u64 << self.spec.areas.local_index(tile)
    }

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
                pending_inv: None,
            },
        );
        if upgrade {
            let line = self.l1[tile].peek(block).expect("upgrade at owner");
            let (sharers, version) = (line.area_sharers, line.version);
            let my_area = self.area_of(tile);
            let e = self.mshr[tile].get_mut(block).expect("just allocated");
            e.acks_needed = sharers.count_ones() as i64;
            self.l1_queues[tile].set_busy(block);
            for t in self.area_tiles(my_area, sharers) {
                self.stats.invalidations.inc();
                ctx.send(
                    Msg {
                        kind: MsgKind::Inv { reply_to: Node::L1(tile), version },
                        block,
                        src: Node::L1(tile),
                        dst: Node::L1(t),
                    },
                    self.spec.lat.l1_tag,
                );
            }
            let line = self.l1[tile].peek_mut(block).expect("owner");
            line.area_sharers = 0;
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

    /// Our own roaming request reached us after an ownership transfer
    /// made us the owner: complete the miss in place (reads finish
    /// immediately; writes convert to an in-place upgrade invalidating
    /// the inherited area sharers).
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
        let (sharers, version) = (line.area_sharers, line.version);
        {
            let e = self.mshr[tile].get_mut(block).expect("self-serve without MSHR");
            e.upgrade = true;
            e.have_data = true;
            e.acks_needed += sharers.count_ones() as i64;
        }
        self.l1_queues[tile].set_busy(block);
        for t in self.area_tiles(my_area, sharers) {
            self.stats.invalidations.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::Inv { reply_to: Node::L1(tile), version },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(t),
                },
                self.spec.lat.l1_tag,
            );
        }
        let line = self.l1[tile].peek_mut(block).expect("owner line");
        line.area_sharers = 0;
        self.try_complete(ctx, tile, block);
    }

    fn try_complete(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        let Some(e) = self.mshr[tile].get(block) else { return };
        if !e.have_data || e.acks_needed != 0 {
            return;
        }
        let e = self.mshr[tile].release(block).expect("checked");
        let lat = self.spec.lat;

        if e.upgrade {
            let v = self.authority.commit(block);
            let line = self.l1[tile].peek_mut(block).expect("upgrade owner line");
            line.state = L1State::Owner { exclusive: true, dirty: true };
            line.area_sharers = 0;
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
                version: v,
            };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
            if fill.sba_write {
                // Third step of the three-way invalidation: unblock all
                // L1s and commit the new owner at the home.
                ctx.broadcast(MsgKind::BcastUnblock, block, Node::L1(tile), Some(tile), 0);
                ctx.send(
                    Msg {
                        kind: MsgKind::BcastDone { new_owner: Some(tile) },
                        block,
                        src: Node::L1(tile),
                        dst: Node::L2(self.home(block)),
                    },
                    0,
                );
            } else if fill.ownership
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
            let line = L1Line { state, area_sharers: 0, version: fill.version };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
        }
        if matches!(fill.supplier, Supplier::HomeL2 | Supplier::Memory) && !fill.sba_write {
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
            // SBA providers track nothing and evict silently; stale home
            // pointers self-correct through the forwarder check.
            L1State::Provider => {}
            L1State::Owner { dirty, .. } => {
                self.stats.l1_repl_transactions.inc();
                if line.area_sharers != 0 {
                    let local = line.area_sharers.trailing_zeros() as usize;
                    let target = self.spec.areas.tile_in_area(my_area, local);
                    let rest = line.area_sharers & !(1 << local);
                    self.tombstone_set(tile, block, Node::L1(target));
                    ctx.send(
                        Msg {
                            kind: MsgKind::OwnershipTransfer {
                                sharers: rest,
                                propos: [None; MAX_AREAS],
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
                    self.tombstone_set(tile, block, Node::L2(self.home(block)));
                    ctx.send(
                        Msg {
                            kind: MsgKind::OwnershipToHome {
                                dirty,
                                version: line.version,
                                propos: [None; MAX_AREAS],
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

        // A broadcast invalidation is in flight: no responses until the
        // unblock (paper §IV-B1).
        if self.bcast_blocked[tile].contains(&block) {
            self.l1_queues[tile].enqueue(msg);
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
                if same_area {
                    let lb = self.local_bit(req.requestor);
                    let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("arin: owner line missing at L1 tile {tile}, block {block:#x}"));
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
                // First remote-area read: the ownership dissolves
                // (paper §III-B). We become a provider; the data parks at
                // the home, which becomes the SBA ordering point.
                let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("arin: owner line missing at L1 tile {tile}, block {block:#x}"));
                let (dirty, version) = (line.dirty(), line.version);
                line.state = L1State::Provider;
                line.area_sharers = 0;
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
                ctx.send(
                    Msg {
                        kind: MsgKind::SbaTransition {
                            dirty,
                            version,
                            former: tile,
                            reader: req.requestor,
                        },
                        block,
                        src: Node::L1(tile),
                        dst: Node::L2(self.home(block)),
                    },
                    lat.l1_hit(),
                );
                self.tombstone_set(tile, block, Node::L2(self.home(block)));
                return;
            }
            Some(L1State::Provider)
                if !req.write && same_area && !self.mshr[tile].contains(block) =>
            {
                // SBA provider serves the in-area read; the new copy is a
                // provider too (paper §IV-B optimization).
                let version = self.l1[tile].peek(block).unwrap_or_else(|| panic!("arin: provider line missing at L1 tile {tile}, block {block:#x}")).version;
                self.l1[tile].touch(block);
                self.stats.l1_data_read.inc();
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
                    lat.l1_hit(),
                );
                return;
            }
            _ => {}
        }

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

    fn serve_write_as_owner(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let lat = self.spec.lat;
        let my_area = self.area_of(tile);
        let req_area = self.area_of(req.requestor);
        let line = self.l1[tile].remove(block).unwrap_or_else(|| panic!("arin: owner line missing at L1 tile {tile}, block {block:#x}"));
        let mut area_invs = line.area_sharers;
        if req_area == my_area {
            area_invs &= !self.local_bit(req.requestor);
        }
        let acks = area_invs.count_ones();
        self.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    acks_sharers: acks,
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
        for t in self.area_tiles(my_area, area_invs) {
            self.stats.invalidations.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::Inv { reply_to: Node::L1(req.requestor), version: line.version },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(t),
                },
                lat.l1_tag,
            );
        }
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

    /// Step 1 of the three-way invalidation, at each L1.
    fn l1_handle_bcast_inv(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, reply_to: Node) {
        self.stats.l1_tag.inc();
        self.l1[tile].remove(block);
        if let Some(e) = self.mshr[tile].get_mut(block) {
            if !e.write {
                e.pending_inv = Some(u64::MAX);
            }
        }
        self.bcast_blocked[tile].insert(block);
        if let Node::L1(writer) = reply_to {
            self.learn(tile, block, writer);
        }
        ctx.send(
            Msg { kind: MsgKind::BcastAck, block, src: Node::L1(tile), dst: reply_to },
            self.spec.lat.l1_tag,
        );
    }

    /// Step 3: unblock and replay anything that queued meanwhile. The
    /// replay must not wait for a local MSHR: the queued requests do not
    /// depend on it, and holding them can close a mutual-wait cycle with
    /// another tile whose miss is sitting in *our* queue. Replayed
    /// messages re-park or re-route as usual.
    fn l1_handle_bcast_unblock(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        self.bcast_blocked[tile].remove(&block);
        if !self.l1_queues[tile].is_busy(block) && !self.co_pending[tile].contains(&block) {
            for m in self.l1_queues[tile].release(block) {
                ctx.replay(m);
            }
        }
    }

    fn l1_handle_transfer(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        msg: Msg,
        sharers: u64,
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
                state: L1State::Owner { exclusive: mine == 0, dirty },
                area_sharers: mine,
                version,
            };
            self.install_l1(ctx, tile, block, line);
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
            let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("arin: inherited line missing at L1 tile {tile}, block {block:#x}"));
            line.state = L1State::Owner { exclusive: mine == 0, dirty };
            line.area_sharers = mine;
            // Refresh the inherited sharers' predictions (Figure 5).
            let hint_targets =
                if self.spec.enable_hints { self.area_tiles(my_area, mine) } else { Vec::new() };
            for t in hint_targets {
                ctx.send(
                    Msg {
                        kind: MsgKind::Hint { supplier: tile },
                        block,
                        src: Node::L1(tile),
                        dst: Node::L1(t),
                    },
                    lat.l1_tag,
                );
            }
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
        if mine != 0 {
            let local = mine.trailing_zeros() as usize;
            let target = self.spec.areas.tile_in_area(my_area, local);
            self.tombstone_set(tile, block, Node::L1(target));
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipTransfer {
                        sharers: mine,
                        propos: [None; MAX_AREAS],
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
                        propos: [None; MAX_AREAS],
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
        let line = self.l1[tile].get_mut(block).unwrap_or_else(|| panic!("arin: owner line missing at L1 tile {tile}, block {block:#x}"));
        let (dirty, version, sharers) = (line.dirty(), line.version, line.area_sharers);
        // The former owner stays on as a sharer of its area.
        line.state = L1State::Sharer { hint: None };
        line.area_sharers = 0;
        self.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::OwnershipToHome {
                    dirty,
                    version,
                    propos: [None; MAX_AREAS],
                    sharers: sharers | self.local_bit(tile),
                    former_stays_provider: false,
                },
                block,
                src: Node::L1(tile),
                dst: Node::L2(self.home(block)),
            },
            lat.l1_hit(),
        );
        let _ = my_area;
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
            self.evict_l2_entry(ctx, home, vb, ve);
        }
    }

    fn evict_l2_entry(&mut self, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry) {
        self.stats.l2_evictions.inc();
        match e.role {
            L2Role::Owner { sharers, area } => {
                // Like DiCo: invalidate the (single-area) sharers.
                let targets: Vec<Tile> = match area {
                    Some(a) => self.area_tiles(a, sharers),
                    None => Vec::new(),
                };
                if targets.is_empty() {
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
                    HomeTx::SbaEvict {
                        acks_left: targets.len() as i64,
                        dirty: e.dirty,
                        version: e.version,
                    },
                );
                for t in targets {
                    self.stats.invalidations.inc();
                    ctx.send(
                        Msg {
                            kind: MsgKind::Inv { reply_to: Node::L2(home), version: e.version },
                            block,
                            src: Node::L2(home),
                            dst: Node::L1(t),
                        },
                        self.spec.lat.l2_tag,
                    );
                }
            }
            L2Role::Sba { .. } => {
                // Shared between areas: the paper's broadcast eviction.
                self.stats.broadcast_invs.inc();
                self.home_queues[home].set_busy(block);
                self.tx[home].insert(
                    block,
                    HomeTx::SbaEvict {
                        acks_left: self.spec.tiles() as i64,
                        dirty: e.dirty,
                        version: e.version,
                    },
                );
                ctx.broadcast(
                    MsgKind::BcastInv { reply_to: Node::L2(home) },
                    block,
                    Node::L2(home),
                    None,
                    self.spec.lat.l2_tag,
                );
            }
        }
    }

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
            let role = self.l2[home].peek(block).unwrap_or_else(|| panic!("arin: L2 entry missing at home {home}, block {block:#x}")).role.clone();
            match role {
                L2Role::Sba { propos } => self.serve_sba(ctx, home, msg, req, propos),
                L2Role::Owner { sharers, area } => {
                    self.serve_as_l2_owner(ctx, home, msg, req, sharers, area)
                }
            }
            return;
        }
        self.home_queues[home].set_busy(block);
        self.tx[home].insert(block, HomeTx::MemFetch { req: msg });
        self.stats.mem_reads.inc();
        ctx.mem_read(block, home, lat.l2_tag);
    }

    /// SBA block at the ordering point.
    fn serve_sba(&mut self, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo, propos: Propos) {
        let block = msg.block;
        let lat = self.spec.lat;
        let req_area = self.area_of(req.requestor);
        if req.write {
            // Three-way broadcast invalidation (paper §IV-B1).
            self.stats.broadcast_invs.inc();
            let e = self.l2[home].peek(block).unwrap_or_else(|| panic!("arin: SBA entry missing at home {home}, block {block:#x}"));
            let (dirty, version) = (e.dirty, e.version);
            self.home_queues[home].set_busy(block);
            self.tx[home].insert(block, HomeTx::SbaWrite { writer: req.requestor });
            self.stats.l2_data_read.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo {
                        exclusive: true,
                        ownership: true,
                        acks_sharers: (self.spec.tiles() - 1) as u32,
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
        match propos[req_area] {
            Some(p) if req.forwarder == Some(p as Tile) => {
                ctx.send(
                    Msg { kind: MsgKind::InvSilent, block, src: Node::L2(home), dst: Node::L1(p as Tile) },
                    lat.l2_tag,
                );
                propos[req_area] = Some(req.requestor as u16);
            }
            Some(p) if p as Tile != req.requestor => {
                // A provider exists: hand its identity to the requestor
                // so its future misses go there; data still served here
                // (one serve, no extra hop — the hint rides along).
            }
            _ => {
                propos[req_area] = Some(req.requestor as u16);
            }
        }
        let hint = propos[req_area].map(|p| p as Tile).filter(|&p| p != req.requestor);
        let e = self.l2[home].peek_mut(block).unwrap_or_else(|| panic!("arin: SBA entry missing at home {home}, block {block:#x}"));
        e.role = L2Role::Sba { propos };
        let version = e.version;
        self.stats.l2_data_read.inc();
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
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        msg: Msg,
        req: ReqInfo,
        sharers: u64,
        area: Option<usize>,
    ) {
        let block = msg.block;
        let lat = self.spec.lat;
        let req_area = self.area_of(req.requestor);
        let e = self.l2[home].peek(block).unwrap_or_else(|| panic!("arin: L2 entry missing at home {home}, block {block:#x}"));
        let (dirty, version) = (e.dirty, e.version);

        if !req.write {
            if let Some(a) = area {
                if a != req_area && sharers != 0 {
                    // Copies confined to another area: the block becomes
                    // shared between areas; the home is already a
                    // provider ("the L2 becomes a provider immediately").
                    // The old area's sharers become untracked (the later
                    // broadcast covers them).
                    let mut propos = [None; MAX_AREAS];
                    propos[req_area] = Some(req.requestor as u16);
                    let e = self.l2[home].peek_mut(block).unwrap_or_else(|| panic!("arin: L2 entry missing at home {home}, block {block:#x}"));
                    e.role = L2Role::Sba { propos };
                    self.stats.l2_data_read.inc();
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
            let others = sharers & !self.local_bit(req.requestor);
            let e = self.l2[home].remove(block).unwrap_or_else(|| panic!("arin: L2 entry missing at home {home}, block {block:#x}"));
            self.stats.l2_data_read.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo {
                        exclusive: others == 0,
                        ownership: true,
                        sharers: others,
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
        // Write: invalidate the (single-area) sharers, grant ownership.
        let others = if area == Some(req_area) {
            sharers & !self.local_bit(req.requestor)
        } else {
            sharers
        };
        let targets: Vec<Tile> = match area {
            Some(a) => self.area_tiles(a, others),
            None => Vec::new(),
        };
        let e = self.l2[home].remove(block).unwrap_or_else(|| panic!("arin: L2 entry missing at home {home}, block {block:#x}"));
        self.stats.l2_data_read.inc();
        for t in &targets {
            self.stats.invalidations.inc();
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
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    acks_sharers: targets.len() as u32,
                    dirty,
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
            debug_assert_eq!(*to, src);
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

    #[allow(clippy::too_many_arguments)]
    fn home_handle_sba_transition(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        dirty: bool,
        version: u64,
        former: Tile,
        reader: Tile,
    ) {
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        self.l2c[home].remove(block);
        let mut propos: Propos = [None; MAX_AREAS];
        propos[self.area_of(former)] = Some(former as u16);
        propos[self.area_of(reader)] = Some(reader as u16);
        // The transition also satisfies a pending ownership recall: the
        // data (and the ordering point) are home now.
        let recalled = matches!(self.tx[home].get(&block), Some(HomeTx::Recall));
        if recalled {
            self.tx[home].remove(&block);
        }
        self.l2_insert(ctx, home, block, L2Entry { dirty, version, role: L2Role::Sba { propos } });
        if recalled {
            for mut m in self.home_queues[home].release(block) {
                if let MsgKind::Req(ref mut r) = m.kind {
                    // Any bounce marker predates this release and is
                    // stale: let the request re-evaluate freshly.
                    r.via_home = false;
                    r.forwarder = None;
                }
                ctx.replay(m);
            }
        }
        self.release_bounces(ctx, home, block);
    }

    fn home_handle_bcast_done(&mut self, ctx: &mut Ctx, home: Tile, block: Block, new_owner: Option<Tile>) {
        let Some(HomeTx::SbaWrite { writer }) = self.tx[home].remove(&block) else {
            panic!("BcastDone without SbaWrite");
        };
        debug_assert_eq!(new_owner, Some(writer));
        // The block is area-confined again, owned by the writer; the
        // home's stale SBA data is dropped.
        self.stats.l2c_access.inc();
        self.l2[home].remove(block);
        self.l2c_insert(ctx, home, block, writer);
        for mut m in self.home_queues[home].release(block) {
            if let MsgKind::Req(ref mut r) = m.kind {
                r.via_home = false;
                r.forwarder = None;
            }
            ctx.replay(m);
        }
        self.release_bounces(ctx, home, block);
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

    #[allow(clippy::too_many_arguments)]
    fn home_handle_wb(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        src: Tile,
        dirty: bool,
        version: u64,
        sharers: u64,
    ) {
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        self.l2c[home].remove(block);
        let area = if sharers != 0 { Some(self.area_of(src)) } else { None };
        let entry = L2Entry { dirty, version, role: L2Role::Owner { sharers, area } };
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

    fn finish_sba_evict(&mut self, ctx: &mut Ctx, home: Tile, block: Block, dirty: bool, version: u64) {
        self.tx[home].remove(&block);
        if dirty {
            self.stats.mem_writes.inc();
            self.mem.write_back(block, version);
            ctx.mem_write(block, home, 0);
        }
        // Unblock everyone.
        ctx.broadcast(MsgKind::BcastUnblock, block, Node::L2(home), None, 0);
        for mut m in self.home_queues[home].release(block) {
            if let MsgKind::Req(ref mut r) = m.kind {
                r.via_home = false;
                r.forwarder = None;
            }
            ctx.replay(m);
        }
    }

    fn drain_deferred(&mut self, ctx: &mut Ctx) {
        let writes = std::mem::take(&mut self.pending_mem_writes);
        for (home, block) in writes {
            ctx.mem_write(block, home, 0);
        }
    }
}

impl CoherenceProtocol for Arin {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DiCoArin
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
        if self.l1_queues[tile].is_busy(block) || self.bcast_blocked[tile].contains(&block) {
            return Ok(AccessOutcome::Blocked { reason: BlockReason::BusyBlock });
        }
        let lat = self.spec.lat;
        enum Action {
            HitRead,
            HitWrite,
            Upgrade,
            Miss,
        }
        let action = match self.l1[tile].peek(block).map(|l| (&l.state, l.area_sharers)) {
            Some((L1State::Sharer { .. } | L1State::Provider, _)) if !write => Action::HitRead,
            Some((L1State::Sharer { .. } | L1State::Provider, _)) => Action::Miss,
            Some((L1State::Owner { .. }, _)) if !write => Action::HitRead,
            Some((L1State::Owner { exclusive: true, .. }, _)) => Action::HitWrite,
            Some((L1State::Owner { .. }, sharers)) => {
                if sharers == 0 {
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
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCoArin,
                        msg.dst,
                        msg.block,
                        format!("data fill without MSHR entry ({:?} from {:?})", d.supplier, msg.src),
                    ));
                };
                e.have_data = true;
                e.acks_needed += d.acks_sharers as i64;
                e.fill = Some(d);
                e.fill_from = Some(msg.src);
                if let Some(hint) = d.provider_hint {
                    self.learn(tile, msg.block, hint);
                }
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::Ack) | (Node::L1(tile), MsgKind::BcastAck) => {
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCoArin,
                        msg.dst,
                        msg.block,
                        format!("invalidation ack without MSHR entry (from {:?})", msg.src),
                    ));
                };
                e.acks_needed -= 1;
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::Inv { reply_to, version }) => {
                self.l1_handle_inv(ctx, tile, msg.block, reply_to, version);
            }
            (Node::L1(tile), MsgKind::InvSilent) => {
                self.stats.l1_tag.inc();
                if !matches!(
                    self.l1[tile].peek(msg.block).map(|l| &l.state),
                    Some(L1State::Owner { .. })
                ) {
                    self.l1[tile].remove(msg.block);
                    if let Some(e) = self.mshr[tile].get_mut(msg.block) {
                        if !e.write {
                            e.pending_inv = Some(u64::MAX);
                        }
                    }
                }
            }
            (Node::L1(tile), MsgKind::BcastInv { reply_to }) => {
                self.l1_handle_bcast_inv(ctx, tile, msg.block, reply_to);
            }
            (Node::L1(tile), MsgKind::BcastUnblock) => {
                self.l1_handle_bcast_unblock(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::OwnershipTransfer { sharers, dirty, version, .. }) => {
                self.l1_handle_transfer(ctx, tile, msg, sharers, dirty, version);
            }
            (Node::L1(tile), MsgKind::OwnershipRecall) => self.l1_handle_recall(ctx, tile, msg.block),
            (Node::L1(tile), MsgKind::Hint { supplier }) => {
                self.stats.l1_tag.inc();
                self.learn(tile, msg.block, supplier);
            }
            (Node::L1(tile), MsgKind::ChangeOwnerAck) => {
                if self.co_pending[tile].remove(&msg.block) {
                    for m in self.l1_queues[tile].release(msg.block) {
                        ctx.replay(m);
                    }
                } else {
                    self.co_ack_early[tile].insert(msg.block);
                }
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
            (Node::L2(home), MsgKind::SbaTransition { dirty, version, former, reader }) => {
                self.home_handle_sba_transition(ctx, home, msg.block, dirty, version, former, reader);
            }
            (Node::L2(home), MsgKind::BcastDone { new_owner }) => {
                self.home_handle_bcast_done(ctx, home, msg.block, new_owner);
            }
            (Node::L2(home), MsgKind::OwnershipToHome { dirty, version, sharers, .. }) => {
                self.home_handle_wb(ctx, home, msg.block, msg.src.tile(), dirty, version, sharers);
            }
            (Node::L2(_), MsgKind::RecallFailed) => {}
            (Node::L2(home), MsgKind::Ack) | (Node::L2(home), MsgKind::BcastAck) => {
                let mut finished = None;
                if let Some(HomeTx::SbaEvict { acks_left, dirty, version }) =
                    self.tx[home].get_mut(&msg.block)
                {
                    *acks_left -= 1;
                    if *acks_left == 0 {
                        finished = Some((*dirty, *version));
                    }
                } else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCoArin,
                        msg.dst,
                        msg.block,
                        format!("stray invalidation ack at home (no SbaEvict transaction; from {:?})", msg.src),
                    ));
                }
                if let Some((dirty, version)) = finished {
                    self.finish_sba_evict(ctx, home, msg.block, dirty, version);
                }
            }
            _ => return Err(ProtoError::unexpected(ProtocolKind::DiCoArin, &msg)),
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
            && self.bcast_blocked.iter().all(|s| s.is_empty())
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
        bcast_blocked,
        tombstones,
        tombstone_fifo,
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
        // Coverage for area-confined blocks (SBA blocks are tracked by
        // broadcast, not by sharing codes — they are omitted).
        let mut sba: std::collections::BTreeSet<Block> = Default::default();
        for bank in &self.l2 {
            for (block, e) in bank.iter() {
                match e.role {
                    L2Role::Sba { .. } => {
                        sba.insert(block);
                    }
                    L2Role::Owner { sharers, area } => {
                        let mut bits = 0u64;
                        if let Some(a) = area {
                            for t in self.area_tiles(a, sharers) {
                                bits |= 1u64 << t;
                            }
                        }
                        snap.recorded.insert(block, bits);
                    }
                }
            }
        }
        for (t, l1) in self.l1.iter().enumerate() {
            let area = self.area_of(t);
            for (block, line) in l1.iter() {
                if let L1State::Owner { .. } = line.state {
                    let mut bits = 1u64 << t;
                    for s in self.area_tiles(area, line.area_sharers) {
                        bits |= 1u64 << s;
                    }
                    snap.recorded.entry(block).and_modify(|v| *v |= bits).or_insert(bits);
                }
            }
        }
        for b in sba {
            snap.recorded.remove(&b);
        }
        snap
    }

    fn pending_summary(&self) -> String {
        let mut out = String::new();
        for t in 0..self.spec.tiles() {
            for (b, e) in self.mshr[t].iter() {
                out += &format!(
                    "tile {t} MSHR block {b:#x}: write={} have_data={} acks={} upgrade={}\n",
                    e.write, e.have_data, e.acks_needed, e.upgrade
                );
            }
            let mut co: Vec<Block> = self.co_pending[t].iter().copied().collect();
            co.sort_unstable();
            for b in co {
                out += &format!("tile {t} co_pending block {b:#x}\n");
            }
            let mut bb: Vec<Block> = self.bcast_blocked[t].iter().copied().collect();
            bb.sort_unstable();
            for b in bb {
                out += &format!("tile {t} bcast_blocked block {b:#x}\n");
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{random_stress, Harness};

    fn harness() -> Harness<Arin> {
        Harness::new(Arin::new(ChipSpec::small()))
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
