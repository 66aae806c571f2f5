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

use crate::checker::{ChipSnapshot, CopyState, CopyView, L2View};
use crate::common::*;
use cmpsim_cache::{Mshr, SetAssoc};
use cmpsim_engine::{Cycle, FxHashMap, FxHashSet};
use std::collections::VecDeque;

/// L1 line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1State {
    /// Sharer; `hint` remembers the last known supplier (stored in the
    /// line's directory-info space, moved to the L1C$ on eviction).
    Sharer { hint: Option<Tile> },
    /// Owner: data + sharing code live here.
    Owner {
        /// No sharers exist (E/M as opposed to O).
        exclusive: bool,
        /// Modified with respect to memory.
        dirty: bool,
    },
}

#[derive(Debug, Clone)]
struct L1Line {
    state: L1State,
    /// Chip-wide sharer bit-vector (valid when owner; excludes self).
    sharers: u64,
    version: u64,
}

impl L1Line {
    fn dirty(&self) -> bool {
        matches!(self.state, L1State::Owner { dirty: true, .. })
    }
}

/// L2 data entry: exists exactly when the home L2 holds the ownership.
#[derive(Debug, Clone)]
struct L2Entry {
    dirty: bool,
    version: u64,
    sharers: u64,
}

/// Outstanding miss at the requestor.
#[derive(Debug, Clone)]
struct MshrEntry {
    write: bool,
    issued_at: Cycle,
    /// Predicted destination, if the L1C$ produced one.
    predicted: Option<Tile>,
    /// In-place upgrade at the owner (no data expected).
    upgrade: bool,
    have_data: bool,
    fill: Option<DataInfo>,
    fill_from: Option<Node>,
    acks_needed: i64,
    /// An invalidation for epoch `v` arrived while a read fill was in
    /// flight; a fill with `version <= v` completes but is not installed.
    pending_inv: Option<u64>,
}

/// Home-side transaction.
#[derive(Debug, Clone)]
enum HomeTx {
    /// Off-chip fetch in flight; the triggering request is stored.
    MemFetch { req: Msg },
    /// L2C$ eviction recall in flight.
    Recall,
    /// The home granted ownership (from its own L2 data or from memory)
    /// and waits for the requestor's Unblock before updating the L2C$
    /// and serving the next request.
    Granting {
        /// The grantee.
        to: Tile,
    },
    /// Eviction of an L2-owner data line: collecting invalidation acks.
    EvictL2 { acks_left: u32, dirty: bool, version: u64 },
}

/// The Direct Coherence protocol.
#[derive(Clone)]
pub struct DiCo {
    spec: ChipSpec,
    stats: ProtoStats,
    authority: VersionAuthority,
    mem: MemoryImage,
    l1: Vec<SetAssoc<L1Line>>,
    l1c: Vec<SetAssoc<Tile>>,
    mshr: Vec<Mshr<MshrEntry>>,
    /// Per-L1 pending queues (owner busy with an upgrade or awaiting its
    /// Change_Owner ack).
    l1_queues: Vec<BlockQueues>,
    /// Blocks whose ownership we received from another L1 and whose
    /// Change_Owner ack is still outstanding.
    co_pending: Vec<FxHashSet<Block>>,
    /// Change_Owner acks that arrived before the data (network race).
    co_ack_early: Vec<FxHashSet<Block>>,
    /// Recently transferred-away blocks: new-owner tombstones.
    tombstones: Vec<FxHashMap<Block, Node>>,
    tombstone_fifo: Vec<VecDeque<Block>>,
    l2: Vec<SetAssoc<L2Entry>>,
    l2c: Vec<SetAssoc<Tile>>,
    home_queues: Vec<BlockQueues>,
    tx: Vec<FxHashMap<Block, HomeTx>>,
    /// Requests that returned to the home while its owner pointer was
    /// provably stale; replayed on the next ownership update.
    bounce_hold: Vec<FxHashMap<Block, VecDeque<Msg>>>,
    pending_mem_writes: Vec<(Tile, Block)>,
}

const TOMBSTONE_CAP: usize = 128;

cmpsim_engine::impl_snap!(L1Line { state, sharers, version });
cmpsim_engine::impl_snap!(L2Entry { dirty, version, sharers });
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
            L1State::Owner { exclusive, dirty } => {
                w.u8(1);
                exclusive.save(w);
                dirty.save(w);
            }
        }
    }

    fn load(r: &mut cmpsim_engine::SnapReader<'_>) -> Result<Self, cmpsim_engine::SnapError> {
        use cmpsim_engine::Snap;
        Ok(match r.u8()? {
            0 => L1State::Sharer { hint: Snap::load(r)? },
            1 => L1State::Owner { exclusive: Snap::load(r)?, dirty: Snap::load(r)? },
            tag => return Err(cmpsim_engine::SnapError::BadTag { what: "dico::L1State", tag }),
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
            HomeTx::EvictL2 { acks_left, dirty, version } => {
                w.u8(3);
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
            3 => HomeTx::EvictL2 {
                acks_left: Snap::load(r)?,
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
            },
            tag => return Err(cmpsim_engine::SnapError::BadTag { what: "dico::HomeTx", tag }),
        })
    }
}

impl DiCo {
    /// Builds the protocol for `spec`.
    pub fn new(spec: ChipSpec) -> Self {
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

    /// Prediction for the supplier of `block` at `tile` (L1C$ lookup).
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

    /// Records a supplier hint (line space first, else the L1C$ array).
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
        // A sharer's line hint is the first prediction source.
        let line_hint = match self.l1[tile].peek(block).map(|l| &l.state) {
            Some(L1State::Sharer { hint }) => hint.filter(|&t| t != tile),
            _ => None,
        };
        let predicted = if upgrade || !self.spec.enable_prediction {
            None
        } else if line_hint.is_some() {
            self.stats.l1c_access.inc(); // embedded pointers are part of the L1C$
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
            // In-place upgrade: we are the owner; invalidate our sharers.
            let line = self.l1[tile].peek(block).expect("upgrade at owner");
            let (sharers, version) = (line.sharers, line.version);
            let n = sharers.count_ones();
            debug_assert!(n > 0, "upgrade with no sharers would be a silent hit");
            let e = self.mshr[tile].get_mut(block).expect("just allocated");
            e.acks_needed = n as i64;
            self.l1_queues[tile].set_busy(block);
            for t in iter_bits(sharers) {
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
    /// made us the owner: complete the miss in place. Reads finish
    /// immediately (the line is valid); writes convert to an in-place
    /// upgrade that invalidates the inherited sharers.
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
        // Write: upgrade in place.
        let line = self.l1[tile].peek(block).expect("owner line");
        let (sharers, version) = (line.sharers, line.version);
        let n = sharers.count_ones() as i64;
        {
            let e = self.mshr[tile].get_mut(block).expect("self-serve without MSHR");
            e.upgrade = true;
            e.have_data = true;
            e.acks_needed += n;
        }
        self.l1_queues[tile].set_busy(block);
        for t in iter_bits(sharers) {
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
        line.sharers = 0;
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
            // Commit the in-place upgrade.
            let v = self.authority.commit(block);
            let line = self.l1[tile].peek_mut(block).expect("upgrade owner line");
            line.state = L1State::Owner { exclusive: true, dirty: true };
            line.sharers = 0;
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
                sharers: 0,
                version: v,
            };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
            if fill.ownership && fill.supplier == Supplier::OwnerL1 {
                // Wait for the home's Change_Owner ack before moving the
                // ownership again.
                if !self.co_ack_early[tile].remove(&block) {
                    self.co_pending[tile].insert(block);
                    self.l1_queues[tile].set_busy(block);
                }
            }
        } else if fill.ownership {
            let line = L1Line {
                state: L1State::Owner { exclusive: fill.exclusive, dirty: fill.dirty },
                sharers: fill.sharers & !bit(tile),
                version: fill.version,
            };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
        } else if !stale {
            let hint = e.fill_from.map(|n| n.tile()).filter(|&t| t != tile);
            let line =
                L1Line { state: L1State::Sharer { hint }, sharers: 0, version: fill.version };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
        }
        // Home-supplied grants run under a busy flag at the home bank;
        // the Unblock releases it and commits the L2C$ owner pointer.
        if matches!(fill.supplier, Supplier::HomeL2 | Supplier::Memory) {
            ctx.send(
                Msg {
                    kind: MsgKind::Unblock { became_owner: true },
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
        let (victims, _overflow) = self.l1[tile]
            .insert_filtered(block, line, |b| !co.contains(&b) && !lq.is_busy(b));
        for (vb, vline) in victims {
            self.evict_l1_line(ctx, tile, vb, vline);
        }
    }

    fn evict_l1_line(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line) {
        let lat = self.spec.lat;
        match line.state {
            L1State::Sharer { hint } => {
                // Silent data eviction; the supplier identity is retained
                // in the L1C$ for future two-hop misses (paper §IV-A2).
                if let Some(h) = hint {
                    self.stats.l1c_access.inc();
                    if let Some(p) = self.l1c[tile].get_mut(block) {
                        *p = h;
                    } else {
                        self.l1c[tile].insert(block, h);
                    }
                }
            }
            L1State::Owner { dirty, .. } => {
                self.stats.l1_repl_transactions.inc();
                if line.sharers != 0 {
                    // Pass ownership (+ data + sharing code) to a sharer.
                    let target = line.sharers.trailing_zeros() as Tile;
                    let rest = line.sharers & !bit(target);
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
                    // No sharers: ownership (and data if dirty) go home.
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

    /// A request (predicted, home-forwarded, or chasing) arrives at an L1.
    fn l1_handle_req(&mut self, ctx: &mut Ctx, tile: Tile, msg: Msg, req: ReqInfo) {
        self.stats.l1_tag.inc();
        let block = msg.block;
        let lat = self.spec.lat;

        // Our own request coming back. If an ownership transfer made us
        // the owner while it was roaming, it completes its MSHR here
        // (self-serve) — the single completion path guarantees a request
        // can never be served twice. Otherwise it is chasing a stale
        // owner pointer: send it home as a bounce (the home holds it
        // until the in-flight ownership update lands).
        if req.requestor == tile {
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
                // Stale duplicate (already completed): nothing to do.
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

        let is_owner =
            matches!(self.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Owner { .. }));
        if is_owner {
            if self.l1_queues[tile].is_busy(block) {
                // Mid-upgrade or ownership not yet committed: wait.
                self.l1_queues[tile].enqueue(msg);
                return;
            }
            if req.write && self.co_pending[tile].contains(&block) {
                self.l1_queues[tile].enqueue(msg);
                return;
            }
            if req.write {
                self.serve_write_as_owner(ctx, tile, block, req);
            } else {
                // Serve the read; the requestor becomes a sharer.
                let line = self.l1[tile].get_mut(block).expect("owner");
                line.sharers |= bit(req.requestor);
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
            }
            return;
        }

        // Not the owner. A tombstone knows where the ownership went —
        // but chasing is bounded (DiCo's deadlock-avoidance): after
        // MAX_CHASE_HOPS forwards the request falls back to the home.
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
        // Fall back to the home (bounce).
        self.send_req(
            ctx,
            block,
            Node::L1(tile),
            Node::L2(self.home(block)),
            ReqInfo { forwarder: Some(tile), via_home: true, ..req },
            lat.l1_tag,
        );
    }

    /// We are the stable owner and a write request arrived: move the
    /// ownership to the writer (paper Figure 4).
    fn serve_write_as_owner(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let lat = self.spec.lat;
        let line = self.l1[tile].remove(block).expect("owner line");
        let sharers_to_inv = line.sharers & !bit(req.requestor);
        let n = sharers_to_inv.count_ones();
        self.stats.l1_data_read.inc();
        // Data + ownership to the writer.
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    acks_sharers: n,
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
        // Invalidations from the old owner (it knows the sharers).
        for t in iter_bits(sharers_to_inv) {
            self.stats.invalidations.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::Inv {
                        reply_to: Node::L1(req.requestor),
                        version: line.version,
                    },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(t),
                },
                lat.l1_tag,
            );
        }
        // Register the new owner with the home.
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
            debug_assert!(
                matches!(
                    self.l1[tile].peek(block).map(|l| &l.state),
                    Some(L1State::Sharer { .. })
                ),
                "invalidation reached an owner (tile {tile}, block {block:#x})"
            );
            self.l1[tile].remove(block);
        } else if let Some(e) = self.mshr[tile].get_mut(block) {
            if !e.write && !e.have_data {
                // A read fill may be in flight from the pre-write epoch.
                e.pending_inv = Some(e.pending_inv.map_or(version, |v| v.max(version)));
            }
        }
        // The collector of the acks is the next owner: remember it as the
        // supplier prediction (paper Figure 5).
        if let Node::L1(new_owner) = reply_to {
            self.learn(tile, block, new_owner);
        }
        ctx.send(
            Msg { kind: MsgKind::Ack, block, src: Node::L1(tile), dst: reply_to },
            self.spec.lat.l1_tag,
        );
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
        let mine = sharers & !bit(tile);
        // A tile with a miss outstanding and no line accepts the
        // ownership as a fresh line; its own roaming request completes
        // the MSHR when it returns (self-serve). Transfers never touch
        // MSHRs, so a request can never be satisfied twice.
        if !self.l1[tile].contains(block) && self.mshr[tile].contains(block) {
            let line = L1Line {
                state: L1State::Owner { exclusive: mine == 0, dirty },
                sharers: mine,
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
            // Plain sharer accepts the ownership.
            let line = self.l1[tile].get_mut(block).expect("sharer line");
            debug_assert_eq!(line.version, version, "sharer holds the current version");
            line.state = L1State::Owner { exclusive: mine == 0, dirty };
            line.sharers = mine;
            // Refresh the inherited sharers' predictions (Figure 5).
            let hint_targets: Vec<Tile> =
                if self.spec.enable_hints { iter_bits(mine).collect() } else { Vec::new() };
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
        // We silently dropped our copy: pass the transfer along (paper
        // §IV-A1), or return the ownership to the home. Updating our own
        // tombstone keeps every forwarding pointer pointing forward in
        // the ownership timeline (no chasing cycles).
        if mine != 0 {
            let target = mine.trailing_zeros() as Tile;
            self.tombstone_set(tile, block, Node::L1(target));
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipTransfer {
                        sharers: mine,
                        propos: [None; MAX_AREAS],
                        dirty,
                        version,
                        remaining: mine & !bit(target),
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
            // Owner but unstable: retry once we settle.
            let home = self.home(block);
            self.l1_queues[tile].enqueue(Msg {
                kind: MsgKind::OwnershipRecall,
                block,
                src: Node::L2(home),
                dst: Node::L1(tile),
            });
            return;
        }
        let line = self.l1[tile].get_mut(block).expect("owner");
        let (dirty, version, sharers) = (line.dirty(), line.version, line.sharers);
        // The former owner keeps a shared copy.
        line.state = L1State::Sharer { hint: None };
        line.sharers = 0;
        self.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::OwnershipToHome {
                    dirty,
                    version,
                    propos: [None; MAX_AREAS],
                    sharers: sharers | bit(tile),
                    former_stays_provider: false,
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
        let (victims, _overflow) =
            self.l2c[home].insert_filtered(block, owner, |b| !hq.is_busy(b));
        for (vb, vo) in victims {
            // Recall the victim's ownership into the home (paper §IV-A1).
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
        let (victims, _overflow) =
            self.l2[home].insert_filtered(block, entry, |b| !hq.is_busy(b));
        for (vb, ve) in victims {
            self.evict_l2_owner_entry(ctx, home, vb, ve);
        }
    }

    /// Evicting an L2-owner line invalidates every sharer (the home acts
    /// as both owner and requestor, paper §IV-A).
    fn evict_l2_owner_entry(&mut self, ctx: &mut Ctx, home: Tile, block: Block, e: L2Entry) {
        self.stats.l2_evictions.inc();
        let n = e.sharers.count_ones();
        if n == 0 {
            if e.dirty {
                self.stats.mem_writes.inc();
                self.mem.write_back(block, e.version);
                self.pending_mem_writes.push((home, block));
            }
            return;
        }
        self.home_queues[home].set_busy(block);
        self.tx[home]
            .insert(block, HomeTx::EvictL2 { acks_left: n, dirty: e.dirty, version: e.version });
        for t in iter_bits(e.sharers) {
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
            // A *vouched* request that bounced off the very cache our
            // pointer still names proves that cache lost the ownership
            // after we vouched for it — its loss notification (a
            // ChangeOwner or writeback) is guaranteed to be in flight,
            // so the request is held until it lands. Anything else is
            // (re-)forwarded with our vouch: the destination parks it if
            // its ownership is still en route.
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
            // The home is the owner: grant the ownership to the requestor
            // (ownership lives in L1s whenever possible in DiCo). The
            // grant runs under a busy flag released by the requestor's
            // Unblock, which also commits the L2C$ pointer.
            let e = self.l2[home].remove(block).expect("contains");
            self.stats.l2_data_read.inc();
            let others = e.sharers & !bit(req.requestor);
            let acks = if req.write { others.count_ones() } else { 0 };
            if req.write {
                for t in iter_bits(others) {
                    self.stats.invalidations.inc();
                    ctx.send(
                        Msg {
                            kind: MsgKind::Inv {
                                reply_to: Node::L1(req.requestor),
                                version: e.version,
                            },
                            block,
                            src: Node::L2(home),
                            dst: Node::L1(t),
                        },
                        lat.l2_tag,
                    );
                }
            }
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo {
                        exclusive: others == 0,
                        ownership: true,
                        sharers: if req.write { 0 } else { others },
                        acks_sharers: acks,
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
        // Uncached: fetch from memory.
        self.home_queues[home].set_busy(block);
        self.tx[home].insert(block, HomeTx::MemFetch { req: msg });
        self.stats.mem_reads.inc();
        ctx.mem_read(block, home, lat.l2_tag);
    }

    fn home_handle_unblock(&mut self, ctx: &mut Ctx, home: Tile, block: Block, src: Tile) {
        if let Some(HomeTx::Granting { to }) = self.tx[home].get(&block) {
            debug_assert_eq!(*to, src, "Unblock from a non-grantee");
            self.tx[home].remove(&block);
            self.l2c_insert(ctx, home, block, src);
            for mut m in self.home_queues[home].release(block) {
                if let MsgKind::Req(ref mut r) = m.kind {
                    // Any bounce marker predates this release and is
                    // stale: let the request re-evaluate freshly.
                    r.via_home = false;
                    r.forwarder = None;
                    r.vouched = false;
                }
                ctx.replay(m);
            }
            self.release_bounces(ctx, home, block);
        }
        // Unblocks for superseded grants cannot occur: the grantee's
        // Unblock travels the same (src, dst) FIFO path as any later
        // message it could send about this block.
    }

    fn home_handle_memdata(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        let Some(HomeTx::MemFetch { req }) = self.tx[home].remove(&block) else {
            panic!("MemData without MemFetch");
        };
        let MsgKind::Req(req) = req.kind else { unreachable!() };
        let version = self.mem.version(block);
        // Data goes straight to the requestor, which becomes the
        // exclusive owner; the home records it in the L2C$ (no L2 copy —
        // DiCo keeps one copy, in the owner L1).
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
        // Stay busy until the requestor's Unblock commits the pointer.
        self.tx[home].insert(block, HomeTx::Granting { to: req.requestor });
    }

    fn home_handle_change_owner(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        new_owner: Tile,
    ) {
        self.stats.l2c_access.inc();
        let lat = self.spec.lat;
        if let Some(HomeTx::Recall) = self.tx[home].get(&block) {
            // The ownership moved while we were recalling it: ack the new
            // owner and chase it with another recall.
            ctx.send(
                Msg {
                    kind: MsgKind::ChangeOwnerAck,
                    block,
                    src: Node::L2(home),
                    dst: Node::L1(new_owner),
                },
                lat.l2_tag,
            );
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipRecall,
                    block,
                    src: Node::L2(home),
                    dst: Node::L1(new_owner),
                },
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
            Msg {
                kind: MsgKind::ChangeOwnerAck,
                block,
                src: Node::L2(home),
                dst: Node::L1(new_owner),
            },
            lat.l2_tag,
        );
        self.release_bounces(ctx, home, block);
    }

    fn release_bounces(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        if let Some(q) = self.bounce_hold[home].remove(&block) {
            for mut m in q {
                // Re-dispatch from scratch (clear the via_home marker so
                // the request may be forwarded again).
                if let MsgKind::Req(ref mut r) = m.kind {
                    r.via_home = false;
                    r.forwarder = None;
                    r.vouched = false;
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
        sharers: u64,
    ) {
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        // The ownership is home now: drop the L2C$ pointer.
        self.l2c[home].remove(block);
        if let Some(HomeTx::Recall) = self.tx[home].get(&block) {
            self.tx[home].remove(&block);
            self.l2_insert(ctx, home, block, L2Entry { dirty, version, sharers });
            for mut m in self.home_queues[home].release(block) {
                if let MsgKind::Req(ref mut r) = m.kind {
                    // Any bounce marker predates this release and is
                    // stale: let the request re-evaluate freshly.
                    r.via_home = false;
                    r.forwarder = None;
                    r.vouched = false;
                }
                ctx.replay(m);
            }
        } else {
            self.l2_insert(ctx, home, block, L2Entry { dirty, version, sharers });
        }
        self.release_bounces(ctx, home, block);
    }

    fn drain_deferred(&mut self, ctx: &mut Ctx) {
        let writes = std::mem::take(&mut self.pending_mem_writes);
        for (home, block) in writes {
            ctx.mem_write(block, home, 0);
        }
    }
}

impl CoherenceProtocol for DiCo {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DiCo
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
        let action = match self.l1[tile].peek(block).map(|l| &l.state) {
            Some(L1State::Sharer { .. }) if !write => Action::HitRead,
            Some(L1State::Sharer { .. }) => Action::Miss,
            Some(L1State::Owner { .. }) if !write => Action::HitRead,
            Some(L1State::Owner { exclusive: true, .. }) => Action::HitWrite,
            Some(L1State::Owner { exclusive: false, .. }) => Action::Upgrade,
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
            // ------------------------------------------------ L1 side
            (Node::L1(tile), MsgKind::Req(req)) => self.l1_handle_req(ctx, tile, msg, req),
            (Node::L1(tile), MsgKind::Data(d)) => {
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCo,
                        msg.dst,
                        msg.block,
                        format!("data fill without MSHR entry ({:?} from {:?})", d.supplier, msg.src),
                    ));
                };
                e.have_data = true;
                e.acks_needed += d.acks_sharers as i64;
                e.fill = Some(d);
                e.fill_from = Some(msg.src);
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::Ack) => {
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        ProtocolKind::DiCo,
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
            (Node::L1(tile), MsgKind::OwnershipTransfer { sharers, dirty, version, .. }) => {
                self.l1_handle_transfer(ctx, tile, msg, sharers, dirty, version);
            }
            (Node::L1(tile), MsgKind::OwnershipRecall) => {
                self.l1_handle_recall(ctx, tile, msg.block);
            }
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
            (Node::L2(home), MsgKind::Unblock { .. }) => {
                self.home_handle_unblock(ctx, home, msg.block, msg.src.tile());
            }
            (Node::L2(home), MsgKind::ChangeOwner { new_owner }) => {
                self.home_handle_change_owner(ctx, home, msg.block, new_owner);
            }
            (Node::L2(home), MsgKind::OwnershipToHome { dirty, version, sharers, .. }) => {
                self.home_handle_wb(ctx, home, msg.block, dirty, version, sharers);
            }
            (Node::L2(home), MsgKind::RecallFailed) => {
                // Either the ownership is moving (the pending ChangeOwner
                // or OwnershipToHome will restart or finish the recall),
                // or the recall already completed through a replacement
                // writeback that crossed this reply — ignore in both
                // cases.
                let _ = home;
            }
            (Node::L2(home), MsgKind::Ack) => {
                let finish = {
                    let Some(HomeTx::EvictL2 { acks_left, .. }) =
                        self.tx[home].get_mut(&msg.block)
                    else {
                        return Err(ProtoError::new(
                            ProtocolKind::DiCo,
                            msg.dst,
                            msg.block,
                            format!("stray invalidation ack at home (no EvictL2 transaction; from {:?})", msg.src),
                        ));
                    };
                    *acks_left -= 1;
                    *acks_left == 0
                };
                if finish {
                    let Some(HomeTx::EvictL2 { dirty, version, .. }) =
                        self.tx[home].remove(&msg.block)
                    else {
                        unreachable!()
                    };
                    if dirty {
                        self.stats.mem_writes.inc();
                        self.mem.write_back(msg.block, version);
                        ctx.mem_write(msg.block, home, 0);
                    }
                    for mut m in self.home_queues[home].release(msg.block) {
                        if let MsgKind::Req(ref mut r) = m.kind {
                            r.via_home = false;
                            r.forwarder = None;
                            r.vouched = false;
                        }
                        ctx.replay(m);
                    }
                }
            }
            _ => return Err(ProtoError::unexpected(ProtocolKind::DiCo, &msg)),
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

    fn pending_summary(&self) -> String {
        let mut out = String::new();
        for t in 0..self.spec.tiles() {
            for (b, e) in self.mshr[t].iter() {
                out += &format!(
                    "tile {t} MSHR block {b:#x}: write={} have_data={} acks={} upgrade={}\n",
                    e.write, e.have_data, e.acks_needed, e.upgrade
                );
            }
            if !self.l1_queues[t].idle() {
                out += &format!("tile {t} l1_queue busy: {} blocks\n", self.l1_queues[t].busy_count());
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
            if !self.home_queues[t].idle() {
                out += &format!("home {t} queue busy: {} blocks\n", self.home_queues[t].busy_count());
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

    fn snapshot(&self) -> ChipSnapshot {
        let mut snap = ChipSnapshot::new(self.spec.tiles());
        for (t, l1) in self.l1.iter().enumerate() {
            for (block, line) in l1.iter() {
                let state = match line.state {
                    L1State::Sharer { .. } => CopyState::Shared,
                    L1State::Owner { exclusive, dirty } => CopyState::Owner { exclusive, dirty },
                };
                snap.l1[t].insert(block, CopyView { state, version: line.version });
            }
        }
        for (home, bank) in self.l2.iter().enumerate() {
            for (block, e) in bank.iter() {
                snap.l2.insert(
                    block,
                    L2View {
                        has_data: true,
                        version: e.version,
                        dirty: e.dirty,
                        owner_in_l1: None,
                    },
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
        // Coverage: the owner's full-map sharing code (plus itself) must
        // name every copy; the home's sharing code covers L2-owned
        // blocks.
        for (t, l1) in self.l1.iter().enumerate() {
            for (block, line) in l1.iter() {
                if matches!(line.state, L1State::Owner { .. }) {
                    snap.recorded.insert(block, line.sharers | bit(t));
                }
            }
        }
        for bank in &self.l2 {
            for (block, e) in bank.iter() {
                snap.recorded.entry(block).and_modify(|v| *v |= e.sharers).or_insert(e.sharers);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        }
    }
}
