//! The highly-optimized flat directory protocol (paper §II-A).
//!
//! MESI with a full-map bit-vector sharing code held at the home L2 bank.
//! Following NCID, the L2 is non-inclusive but the directory is
//! inclusive: directory information for blocks whose data is not resident
//! in the L2 lives in a *directory cache* (extra L2 tags). Evicting a
//! data line therefore does **not** invalidate L1 copies; only evicting a
//! directory entry does.
//!
//! The home bank is the ordering point. Transactions block the address at
//! the home until the requestor's `Unblock` (the classic GEMS blocking
//! directory), which keeps races simple and — importantly for the paper's
//! comparisons — gives the directory its characteristic 3-hop
//! requestor → home → owner → requestor misses.

use crate::checker::{ChipSnapshot, CopyState, CopyView, L2View};
use crate::common::*;
use cmpsim_cache::{Mshr, SetAssoc};
use cmpsim_engine::{Cycle, FxHashMap};

/// L1 line states (MESI minus I, which is "not present").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1State {
    Shared,
    Exclusive,
    Modified,
}

#[derive(Debug, Clone)]
struct L1Line {
    state: L1State,
    version: u64,
}

/// L2 data entry with embedded directory information (full map).
#[derive(Debug, Clone)]
struct L2Entry {
    dirty: bool,
    version: u64,
    sharers: u64,
    owner: Option<Tile>,
}

/// Directory-cache entry (dir info for blocks not resident in L2 data).
#[derive(Debug, Clone)]
struct DirEntry {
    sharers: u64,
    owner: Option<Tile>,
}

/// Outstanding miss bookkeeping at the requestor.
#[derive(Debug, Clone)]
struct MshrEntry {
    write: bool,
    issued_at: Cycle,
    have_data: bool,
    fill: Option<DataInfo>,
    /// Sharer acks still owed (may transiently go negative when acks
    /// outrun the data response that carries the expected count).
    acks_needed: i64,
}

/// In-flight transaction at the home bank.
#[derive(Debug, Clone)]
enum HomeTx {
    /// Waiting for off-chip data; `req` is replayed when it arrives.
    MemFetch { req: Msg },
    /// Home supplied (or will supply) the data itself; waiting Unblock.
    Served,
    /// Request forwarded to the L1 owner.
    Forwarded { wb_applied: bool, unblocked: bool, bounced: Option<Msg> },
    /// Directory-entry eviction: collecting invalidation acks (and the
    /// owner's writeback, when there was an owner).
    Evict { acks_left: u32, wb_pending: bool },
}

/// The flat directory protocol.
#[derive(Clone)]
pub struct Directory {
    spec: ChipSpec,
    stats: ProtoStats,
    authority: VersionAuthority,
    mem: MemoryImage,
    l1: Vec<SetAssoc<L1Line>>,
    mshr: Vec<Mshr<MshrEntry>>,
    l2: Vec<SetAssoc<L2Entry>>,
    dircache: Vec<SetAssoc<DirEntry>>,
    queues: Vec<BlockQueues>,
    tx: Vec<FxHashMap<Block, HomeTx>>,
    /// Deferred invalidation fan-outs (flushed into the Ctx at the end of
    /// each dispatch; avoids borrowing tangles in nested evictions).
    pending_evict_invs: Vec<(Tile, Block, u64)>,
    /// Deferred memory write-back ops for driver accounting.
    pending_mem_writes: Vec<(Tile, Block)>,
}

cmpsim_engine::impl_snap!(L1Line { state, version });
cmpsim_engine::impl_snap!(L2Entry { dirty, version, sharers, owner });
cmpsim_engine::impl_snap!(DirEntry { sharers, owner });
cmpsim_engine::impl_snap!(MshrEntry { write, issued_at, have_data, fill, acks_needed });

impl cmpsim_engine::Snap for L1State {
    fn save(&self, w: &mut cmpsim_engine::SnapWriter) {
        w.u8(match self {
            L1State::Shared => 0,
            L1State::Exclusive => 1,
            L1State::Modified => 2,
        });
    }

    fn load(r: &mut cmpsim_engine::SnapReader<'_>) -> Result<Self, cmpsim_engine::SnapError> {
        match r.u8()? {
            0 => Ok(L1State::Shared),
            1 => Ok(L1State::Exclusive),
            2 => Ok(L1State::Modified),
            tag => Err(cmpsim_engine::SnapError::BadTag { what: "directory::L1State", tag }),
        }
    }
}

impl cmpsim_engine::Snap for HomeTx {
    fn save(&self, w: &mut cmpsim_engine::SnapWriter) {
        match self {
            HomeTx::MemFetch { req } => {
                w.u8(0);
                req.save(w);
            }
            HomeTx::Served => w.u8(1),
            HomeTx::Forwarded { wb_applied, unblocked, bounced } => {
                w.u8(2);
                wb_applied.save(w);
                unblocked.save(w);
                bounced.save(w);
            }
            HomeTx::Evict { acks_left, wb_pending } => {
                w.u8(3);
                acks_left.save(w);
                wb_pending.save(w);
            }
        }
    }

    fn load(r: &mut cmpsim_engine::SnapReader<'_>) -> Result<Self, cmpsim_engine::SnapError> {
        use cmpsim_engine::Snap;
        Ok(match r.u8()? {
            0 => HomeTx::MemFetch { req: Snap::load(r)? },
            1 => HomeTx::Served,
            2 => HomeTx::Forwarded {
                wb_applied: Snap::load(r)?,
                unblocked: Snap::load(r)?,
                bounced: Snap::load(r)?,
            },
            3 => HomeTx::Evict { acks_left: Snap::load(r)?, wb_pending: Snap::load(r)? },
            tag => {
                return Err(cmpsim_engine::SnapError::BadTag { what: "directory::HomeTx", tag })
            }
        })
    }
}

impl Directory {
    /// Builds the protocol for `spec`.
    pub fn new(spec: ChipSpec) -> Self {
        let n = spec.tiles();
        Self {
            l1: (0..n).map(|_| SetAssoc::new(spec.l1)).collect(),
            mshr: (0..n).map(|_| Mshr::new(8)).collect(),
            l2: (0..n).map(|_| SetAssoc::new(spec.l2)).collect(),
            dircache: (0..n).map(|_| SetAssoc::new(spec.aux_home)).collect(),
            queues: (0..n).map(|_| BlockQueues::default()).collect(),
            tx: (0..n).map(|_| FxHashMap::default()).collect(),
            pending_evict_invs: Vec::new(),
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

    /// Diagnostics: total resident (L2 data lines, directory-cache
    /// entries) across all banks.
    #[doc(hidden)]
    pub fn occupancy(&self) -> (usize, usize) {
        (
            self.l2.iter().map(|b| b.len()).sum(),
            self.dircache.iter().map(|b| b.len()).sum(),
        )
    }

    // ---------------------------------------------------------- L1 side

    fn start_miss(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, write: bool) {
        self.stats.l1_misses.inc();
        if write {
            self.stats.write_misses.inc();
        }
        self.mshr[tile].alloc(
            block,
            MshrEntry { write, issued_at: ctx.now, have_data: false, fill: None, acks_needed: 0 },
        );
        let home = self.home(block);
        ctx.send(
            Msg {
                kind: MsgKind::Req(ReqInfo {
                    requestor: tile,
                    write,
                    forwarder: None,
                    via_home: false,
                    predicted: false,
                    vouched: false,
                    hops: 0,
                }),
                block,
                src: Node::L1(tile),
                dst: Node::L2(home),
            },
            self.spec.lat.l1_tag,
        );
    }

    fn try_complete(&mut self, ctx: &mut Ctx, tile: Tile, block: Block) {
        let Some(e) = self.mshr[tile].get(block) else { return };
        if !e.have_data || e.acks_needed != 0 {
            return;
        }
        let e = self.mshr[tile].release(block).expect("checked above");
        let fill = e.fill.expect("have_data implies fill");
        let version = if e.write { self.authority.commit(block) } else { fill.version };
        let state = if e.write {
            L1State::Modified
        } else if fill.exclusive {
            L1State::Exclusive
        } else {
            L1State::Shared
        };
        self.install_l1(ctx, tile, block, L1Line { state, version });
        self.stats.l1_data_write.inc();
        let class = match fill.supplier {
            Supplier::Memory => MissClass::Memory,
            Supplier::HomeL2 => MissClass::UnpredictedHome,
            _ => MissClass::UnpredictedForwarded,
        };
        self.stats.record_miss(class, ctx.now - e.issued_at);
        ctx.complete(tile, block, self.spec.lat.l1_data);
        let became_owner = e.write || fill.exclusive;
        ctx.send(
            Msg {
                kind: MsgKind::Unblock { became_owner },
                block,
                src: Node::L1(tile),
                dst: Node::L2(self.home(block)),
            },
            0,
        );
    }

    /// Installs (or updates) an L1 line, running the replacement protocol
    /// for any victim.
    fn install_l1(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line) {
        if let Some(existing) = self.l1[tile].get_mut(block) {
            *existing = line;
            return;
        }
        let (victims, _overflow) =
            self.l1[tile].insert_filtered(block, line, |_| true);
        for (vb, vline) in victims {
            self.evict_l1_line(ctx, tile, vb, vline);
        }
    }

    fn evict_l1_line(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line) {
        match line.state {
            // Silent eviction; the directory's sharer bit goes stale and
            // is cleaned up by a future (harmless) invalidation.
            L1State::Shared => {}
            L1State::Exclusive | L1State::Modified => {
                self.stats.l1_repl_transactions.inc();
                ctx.send(
                    Msg {
                        kind: MsgKind::OwnershipToHome {
                            dirty: line.state == L1State::Modified,
                            version: line.version,
                            propos: Propos::NONE,
                            sharers: 0,
                            former_stays_provider: false,
                        },
                        block,
                        src: Node::L1(tile),
                        dst: Node::L2(self.home(block)),
                    },
                    self.spec.lat.l1_tag,
                );
            }
        }
    }

    fn l1_handle_forwarded(&mut self, ctx: &mut Ctx, tile: Tile, msg: Msg, req: ReqInfo) {
        self.stats.l1_tag.inc();
        let lat = self.spec.lat;
        let can_serve =
            matches!(self.l1[tile].peek(msg.block).map(|l| l.state), Some(L1State::Exclusive) | Some(L1State::Modified));
        if !can_serve {
            // Bounce: we are no longer the owner (eviction in flight).
            ctx.send(
                Msg {
                    kind: MsgKind::Req(ReqInfo { forwarder: Some(tile), ..req }),
                    block: msg.block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(msg.block)),
                },
                lat.l1_tag,
            );
            return;
        }
        let line = self.l1[tile].get_mut(msg.block).expect("checked");
        let (version, was_dirty) = (line.version, line.state == L1State::Modified);
        self.stats.l1_data_read.inc();
        if req.write {
            // Hand everything to the writer and drop our copy.
            self.l1[tile].remove(msg.block);
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo {
                        exclusive: true,
                        dirty: was_dirty,
                        version,
                        supplier: Supplier::OwnerL1,
                        ..DataInfo::shared(version, Supplier::OwnerL1)
                    }),
                    block: msg.block,
                    src: Node::L1(tile),
                    dst: Node::L1(req.requestor),
                },
                lat.l1_hit(),
            );
        } else {
            // Downgrade to shared; data to requestor and home.
            line.state = L1State::Shared;
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo::shared(version, Supplier::OwnerL1)),
                    block: msg.block,
                    src: Node::L1(tile),
                    dst: Node::L1(req.requestor),
                },
                lat.l1_hit(),
            );
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipToHome {
                        dirty: was_dirty,
                        version,
                        propos: Propos::NONE,
                        sharers: bit(tile),
                        former_stays_provider: false,
                    },
                    block: msg.block,
                    src: Node::L1(tile),
                    dst: Node::L2(self.home(msg.block)),
                },
                lat.l1_hit(),
            );
        }
    }

    fn l1_handle_inv(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, reply_to: Node) {
        self.stats.l1_tag.inc();
        if let Some(line) = self.l1[tile].remove(block) {
            if matches!(line.state, L1State::Exclusive | L1State::Modified) {
                // Directory-eviction invalidation reached an owner: the
                // data must survive, so write it back alongside the ack.
                ctx.send(
                    Msg {
                        kind: MsgKind::OwnershipToHome {
                            dirty: line.state == L1State::Modified,
                            version: line.version,
                            propos: Propos::NONE,
                            sharers: 0,
                            former_stays_provider: false,
                        },
                        block,
                        src: Node::L1(tile),
                        dst: Node::L2(self.home(block)),
                    },
                    self.spec.lat.l1_tag,
                );
            }
        }
        ctx.send(
            Msg { kind: MsgKind::Ack, block, src: Node::L1(tile), dst: reply_to },
            self.spec.lat.l1_tag,
        );
    }

    // -------------------------------------------------------- home side

    /// Directory info for `block`, wherever it lives.
    fn dir_info(&self, home: Tile, block: Block) -> Option<(u64, Option<Tile>)> {
        if let Some(e) = self.l2[home].peek(block) {
            return Some((e.sharers, e.owner));
        }
        self.dircache[home].peek(block).map(|d| (d.sharers, d.owner))
    }

    fn dir_update(&mut self, home: Tile, block: Block, f: impl FnOnce(&mut u64, &mut Option<Tile>)) {
        self.stats.dir_access.inc();
        if let Some(e) = self.l2[home].peek_mut(block) {
            f(&mut e.sharers, &mut e.owner);
            return;
        }
        if let Some(d) = self.dircache[home].peek_mut(block) {
            f(&mut d.sharers, &mut d.owner);
            return;
        }
        // No dir info: materialize a dircache entry.
        let mut sharers = 0;
        let mut owner = None;
        f(&mut sharers, &mut owner);
        if sharers != 0 || owner.is_some() {
            self.dircache_insert(home, block, DirEntry { sharers, owner });
        }
    }

    /// Pending dircache insertions are applied outside `dir_update` to
    /// keep borrow scopes simple; evicted victims trigger full
    /// invalidation transactions.
    fn dircache_insert(&mut self, home: Tile, block: Block, entry: DirEntry) {
        let queues = &self.queues[home];
        let (victims, _overflow) =
            self.dircache[home].insert_filtered(block, entry, |b| !queues.is_busy(b));
        for (vb, vd) in victims {
            self.start_dir_eviction(home, vb, vd);
        }
    }

    /// Invalidate every copy of a block whose directory entry was
    /// evicted (NCID: only this eviction kills L1 copies).
    fn start_dir_eviction(&mut self, home: Tile, block: Block, dirent: DirEntry) {
        self.stats.l2_evictions.inc();
        let mut targets = dirent.sharers;
        if let Some(o) = dirent.owner {
            targets |= bit(o);
        }
        let n = targets.count_ones();
        if n == 0 {
            return;
        }
        self.queues[home].set_busy(block);
        self.tx[home].insert(
            block,
            HomeTx::Evict { acks_left: n, wb_pending: dirent.owner.is_some() },
        );
        self.pending_evict_invs.push((home, block, targets));
    }

    fn flush_evict_invs(&mut self, ctx: &mut Ctx) {
        let pend = std::mem::take(&mut self.pending_evict_invs);
        for (home, block, targets) in pend {
            for t in iter_bits(targets) {
                self.stats.invalidations.inc();
                ctx.send(
                    Msg {
                        kind: MsgKind::Inv { reply_to: Node::L2(home), version: 0 },
                        block,
                        src: Node::L2(home),
                        dst: Node::L1(t),
                    },
                    self.spec.lat.l2_tag,
                );
            }
        }
    }

    /// Handles an L2 data-array victim: directory info survives in the
    /// dircache (NCID), dirty data that nobody owns goes to memory.
    fn handle_l2_victim(&mut self, home: Tile, block: Block, entry: L2Entry) {
        // Dirty data always goes to memory — even when an L1 owner
        // exists: that owner may hold a *clean* exclusive copy (granted E
        // from this dirty line) and would evict silently later.
        if entry.dirty {
            self.stats.mem_writes.inc();
            self.mem.write_back(block, entry.version);
            self.pending_mem_writes.push((home, block));
        }
        if entry.sharers != 0 || entry.owner.is_some() {
            self.dircache_insert(home, block, DirEntry { sharers: entry.sharers, owner: entry.owner });
        }
    }

    fn l2_insert(&mut self, home: Tile, block: Block, entry: L2Entry) {
        self.stats.l2_data_write.inc();
        let queues = &self.queues[home];
        let (victims, _overflow) = self.l2[home].insert_filtered(block, entry, |b| !queues.is_busy(b));
        for (vb, ve) in victims {
            self.handle_l2_victim(home, vb, ve);
        }
        // Directory info must be unique: drop any dircache duplicate.
        if let Some(d) = self.dircache[home].remove(block) {
            let e = self.l2[home].peek_mut(block).expect("just inserted");
            e.sharers |= d.sharers;
            if e.owner.is_none() {
                e.owner = d.owner;
            }
        }
    }

    /// Serves a request for which the home can answer right now (owner is
    /// not an L1, data present or fetched). Sets the `Served` transaction.
    fn serve_from_home(&mut self, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo, supplier: Supplier) {
        let block = msg.block;
        let entry = self.l2[home].get_mut(block).expect("serve requires data");
        let (version, dirty, sharers) = (entry.version, entry.dirty, entry.sharers);
        self.stats.l2_data_read.inc();
        let others = sharers & !bit(req.requestor);
        let lat = self.spec.lat;
        if req.write {
            let n = others.count_ones();
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo {
                        exclusive: true,
                        acks_sharers: n,
                        dirty,
                        version,
                        supplier,
                        ..DataInfo::shared(version, supplier)
                    }),
                    block,
                    src: Node::L2(home),
                    dst: Node::L1(req.requestor),
                },
                lat.l2_access(),
            );
            for t in iter_bits(others) {
                self.stats.invalidations.inc();
                ctx.send(
                    Msg {
                        kind: MsgKind::Inv { reply_to: Node::L1(req.requestor), version },
                        block,
                        src: Node::L2(home),
                        dst: Node::L1(t),
                    },
                    lat.l2_tag,
                );
            }
        } else {
            let exclusive = sharers == 0;
            ctx.send(
                Msg {
                    kind: MsgKind::Data(DataInfo {
                        exclusive,
                        dirty,
                        version,
                        supplier,
                        ..DataInfo::shared(version, supplier)
                    }),
                    block,
                    src: Node::L2(home),
                    dst: Node::L1(req.requestor),
                },
                lat.l2_access(),
            );
        }
        self.queues[home].set_busy(block);
        self.tx[home].insert(block, HomeTx::Served);
    }

    /// Request dispatch at a non-busy home.
    fn home_dispatch(&mut self, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        let block = msg.block;
        self.stats.l2_tag.inc();
        self.stats.dir_access.inc();
        let dir = self.dir_info(home, block);
        self.stats.home_lookups.inc();
        if dir.is_some() {
            self.stats.home_hits.inc();
        }
        match dir {
            Some((_, Some(owner))) => {
                // Owner in an L1: forward (3-hop path).
                self.queues[home].set_busy(block);
                self.tx[home].insert(
                    block,
                    HomeTx::Forwarded { wb_applied: false, unblocked: false, bounced: None },
                );
                ctx.send(
                    Msg {
                        kind: MsgKind::Req(ReqInfo { via_home: true, forwarder: None, ..req }),
                        block,
                        src: Node::L2(home),
                        dst: Node::L1(owner),
                    },
                    self.spec.lat.l2_tag,
                );
            }
            _ => {
                if self.l2[home].contains(block) {
                    self.l2[home].touch(block);
                    self.serve_from_home(ctx, home, msg, req, Supplier::HomeL2);
                } else {
                    // Fetch from memory (dir info, if any, stays put).
                    self.queues[home].set_busy(block);
                    self.tx[home].insert(block, HomeTx::MemFetch { req: msg });
                    self.stats.mem_reads.inc();
                    ctx.mem_read(block, home, self.spec.lat.l2_tag);
                }
            }
        }
    }

    fn home_handle_memdata(&mut self, ctx: &mut Ctx, msg: &Msg) -> Result<(), ProtoError> {
        let (home, block) = (msg.dst.tile(), msg.block);
        let Some(HomeTx::MemFetch { req }) = self.tx[home].remove(&block) else {
            return Err(ProtoError::unexpected(ProtocolKind::Directory, msg));
        };
        let version = self.mem.version(block);
        // Preserve sharers recorded in the dircache (blocks whose data
        // was evicted while sharers remained).
        let prior = self.dircache[home].remove(block);
        let sharers = prior.as_ref().map(|d| d.sharers).unwrap_or(0);
        self.l2_insert(home, block, L2Entry { dirty: false, version, sharers, owner: None });
        // The busy flag stays held; serving transitions the tx to Served.
        let MsgKind::Req(req) = req.kind else { panic!("MemFetch holds a request") };
        let msg = Msg { kind: MsgKind::Req(req), block, src: Node::L2(home), dst: Node::L2(home) };
        self.serve_from_home(ctx, home, msg, req, Supplier::Memory);
        Ok(())
    }

    /// Applies an ownership writeback (forward-read downgrade, owner
    /// replacement, or directory-eviction response).
    #[allow(clippy::too_many_arguments)]
    fn apply_wb(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        src: Tile,
        dirty: bool,
        version: u64,
        stay_sharers: u64,
    ) {
        // Directory-eviction transactions consume the writeback
        // specially: data goes straight to memory.
        if let Some(HomeTx::Evict { wb_pending, .. }) = self.tx[home].get_mut(&block) {
            if dirty {
                self.stats.mem_writes.inc();
                self.mem.write_back(block, version);
                self.pending_mem_writes.push((home, block));
            }
            *wb_pending = false;
            self.finish_evict_if_done(ctx, home, block);
            return;
        }
        // Normal path: owner returns to home.
        let owner_matches = matches!(self.dir_info(home, block), Some((_, Some(o))) if o == src);
        if owner_matches {
            self.dir_update(home, block, |sharers, owner| {
                *owner = None;
                *sharers |= stay_sharers;
            });
        } else if self.dir_info(home, block).is_none() && !dirty {
            // Clean writeback for a block whose dir info vanished
            // (eviction already completed): nothing to do.
            return;
        } else {
            self.dir_update(home, block, |sharers, owner| {
                if *owner == Some(src) {
                    *owner = None;
                }
                *sharers |= stay_sharers;
            });
        }
        if dirty {
            if self.l2[home].contains(block) {
                let e = self.l2[home].peek_mut(block).expect("contains");
                e.dirty = true;
                e.version = version;
                self.stats.l2_data_write.inc();
            } else {
                let prior = self.dircache[home].remove(block);
                let (sharers, owner) =
                    prior.map(|d| (d.sharers, d.owner)).unwrap_or((0, None));
                self.l2_insert(home, block, L2Entry { dirty: true, version, sharers, owner });
            }
        }
        // If a forwarded transaction was waiting on this writeback,
        // progress it.
        let mut redispatch = None;
        if let Some(HomeTx::Forwarded { wb_applied, bounced, unblocked }) =
            self.tx[home].get_mut(&block)
        {
            *wb_applied = true;
            if let Some(b) = bounced.take() {
                redispatch = Some(b);
            } else if *unblocked {
                self.tx[home].remove(&block);
                for m in self.queues[home].release(block) {
                    ctx.replay(m);
                }
            }
        }
        if let Some(b) = redispatch {
            // Busy flag and pending queue stay held; dispatch the bounced
            // request anew against the now-updated directory state.
            self.tx[home].remove(&block);
            let MsgKind::Req(req) = b.kind else { unreachable!("bounced is a request") };
            self.home_dispatch(ctx, home, b, req);
        }
    }

    fn finish_evict_if_done(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        if let Some(HomeTx::Evict { acks_left, wb_pending }) = self.tx[home].get(&block) {
            if *acks_left == 0 && !*wb_pending {
                self.tx[home].remove(&block);
                for m in self.queues[home].release(block) {
                    ctx.replay(m);
                }
            }
        }
    }

    fn home_handle_unblock(&mut self, ctx: &mut Ctx, home: Tile, block: Block, src: Tile, became_owner: bool) {
        self.dir_update(home, block, |sharers, owner| {
            if became_owner {
                *owner = Some(src);
                *sharers = 0;
            } else {
                *sharers |= bit(src);
            }
        });
        let release = match self.tx[home].get_mut(&block) {
            Some(HomeTx::Served) => true,
            Some(HomeTx::Forwarded { unblocked, wb_applied, bounced }) => {
                *unblocked = true;
                // Writes expect no writeback; reads do.
                *wb_applied |= became_owner;
                *wb_applied && bounced.is_none()
            }
            other => panic!("Unblock without transaction: {other:?}"),
        };
        if release {
            self.tx[home].remove(&block);
            for m in self.queues[home].release(block) {
                ctx.replay(m);
            }
        }
    }
}

impl Directory {
    /// Flushes deferred work (fan-out invalidations, memory write-backs)
    /// into the Ctx at the end of every dispatch. The memory image is
    /// updated eagerly; these ops exist for network/DRAM accounting.
    fn drain_deferred(&mut self, ctx: &mut Ctx) {
        self.flush_evict_invs(ctx);
        let writes = std::mem::take(&mut self.pending_mem_writes);
        for (home, block) in writes {
            ctx.mem_write(block, home, 0);
        }
    }
}

impl CoherenceProtocol for Directory {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Directory
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
        let lat = self.spec.lat;
        let hit = match self.l1[tile].get_mut(block) {
            Some(line) => match (line.state, write) {
                (L1State::Shared, false)
                | (L1State::Exclusive, false)
                | (L1State::Modified, _) => true,
                (L1State::Exclusive, true) => {
                    line.state = L1State::Modified;
                    line.version = 0; // placeholder, set below
                    true
                }
                (L1State::Shared, true) => false,
            },
            None => false,
        };
        if hit {
            if write {
                let v = self.authority.commit(block);
                let line = self.l1[tile].peek_mut(block).expect("hit");
                line.version = v;
                line.state = L1State::Modified;
                self.stats.l1_data_write.inc();
            } else {
                self.stats.l1_data_read.inc();
            }
            self.stats.l1_hits.inc();
            return Ok(AccessOutcome::Hit { latency: lat.l1_hit() });
        }
        self.start_miss(ctx, tile, block, write);
        self.drain_deferred(ctx);
        Ok(AccessOutcome::Miss)
    }

    fn handle(&mut self, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        match (msg.dst, msg.kind) {
            // ---------------- home (L2 bank) side
            (Node::L2(home), MsgKind::Req(req)) => {
                self.stats.l2_tag.inc();
                if self.queues[home].is_busy(msg.block) {
                    // A bounced request belongs to the transaction in
                    // flight; anything else waits its turn.
                    if req.forwarder.is_some() {
                        match self.tx[home].get_mut(&msg.block) {
                            Some(HomeTx::Forwarded { wb_applied, bounced, .. }) => {
                                if *wb_applied {
                                    let m = Msg { kind: MsgKind::Req(ReqInfo { forwarder: None, ..req }), ..msg };
                                    self.tx[home].remove(&msg.block);
                                    self.home_dispatch(ctx, home, m, ReqInfo { forwarder: None, ..req });
                                } else {
                                    *bounced = Some(Msg {
                                        kind: MsgKind::Req(ReqInfo { forwarder: None, ..req }),
                                        ..msg
                                    });
                                }
                            }
                            _ => self.queues[home].enqueue(msg),
                        }
                    } else {
                        self.queues[home].enqueue(msg);
                    }
                } else {
                    self.home_dispatch(ctx, home, msg, req);
                }
            }
            (Node::L2(_), MsgKind::MemData) => self.home_handle_memdata(ctx, &msg)?,
            (Node::L2(home), MsgKind::OwnershipToHome { dirty, version, sharers, .. }) => {
                self.stats.l2_tag.inc();
                self.apply_wb(ctx, home, msg.block, msg.src.tile(), dirty, version, sharers);
            }
            (Node::L2(home), MsgKind::Unblock { became_owner }) => {
                self.home_handle_unblock(ctx, home, msg.block, msg.src.tile(), became_owner);
            }
            (Node::L2(home), MsgKind::Ack) => {
                if let Some(HomeTx::Evict { acks_left, .. }) = self.tx[home].get_mut(&msg.block) {
                    *acks_left -= 1;
                    self.finish_evict_if_done(ctx, home, msg.block);
                } else {
                    return Err(ProtoError::new(
                        ProtocolKind::Directory,
                        msg.dst,
                        msg.block,
                        format!("stray eviction ack at home (no Evict transaction; from {:?})", msg.src),
                    ));
                }
            }
            // ---------------- L1 side
            (Node::L1(tile), MsgKind::Req(req)) => {
                self.l1_handle_forwarded(ctx, tile, msg, req);
            }
            (Node::L1(tile), MsgKind::Data(d)) => {
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        ProtocolKind::Directory,
                        msg.dst,
                        msg.block,
                        format!("data fill without MSHR entry ({:?} from {:?})", d.supplier, msg.src),
                    ));
                };
                e.have_data = true;
                e.acks_needed += d.acks_sharers as i64;
                e.fill = Some(d);
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::Ack) => {
                let Some(e) = self.mshr[tile].get_mut(msg.block) else {
                    return Err(ProtoError::new(
                        ProtocolKind::Directory,
                        msg.dst,
                        msg.block,
                        format!("invalidation ack without MSHR entry (from {:?})", msg.src),
                    ));
                };
                e.acks_needed -= 1;
                self.try_complete(ctx, tile, msg.block);
            }
            (Node::L1(tile), MsgKind::Inv { reply_to, .. }) => {
                self.l1_handle_inv(ctx, tile, msg.block, reply_to);
            }
            _ => return Err(ProtoError::unexpected(ProtocolKind::Directory, &msg)),
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
            && self.queues.iter().all(|q| q.idle())
            && self.tx.iter().all(|t| t.is_empty())
    }

    fn clone_box(&self) -> Box<dyn CoherenceProtocol> {
        Box::new(self.clone())
    }

    crate::common::snap_state_methods!(
        stats,
        authority,
        mem,
        l1,
        mshr,
        l2,
        dircache,
        queues,
        tx,
        pending_evict_invs,
        pending_mem_writes,
    );

    fn occupancy(&self) -> Occupancy {
        let (l1_lines, l1_capacity) = occupancy_of(&self.l1);
        let (l2_lines, l2_capacity) = occupancy_of(&self.l2);
        let (aux_lines, aux_capacity) = occupancy_of(&self.dircache);
        Occupancy { l1_lines, l1_capacity, l2_lines, l2_capacity, aux_lines, aux_capacity }
    }

    fn snapshot(&self) -> ChipSnapshot {
        let mut snap = ChipSnapshot::new(self.spec.tiles());
        for (t, l1) in self.l1.iter().enumerate() {
            for (block, line) in l1.iter() {
                let state = match line.state {
                    L1State::Shared => CopyState::Shared,
                    L1State::Exclusive => CopyState::Owner { exclusive: true, dirty: false },
                    L1State::Modified => CopyState::Owner { exclusive: true, dirty: true },
                };
                snap.l1[t].insert(block, CopyView { state, version: line.version });
            }
        }
        for bank in &self.l2 {
            for (block, e) in bank.iter() {
                snap.l2.insert(
                    block,
                    L2View { has_data: true, version: e.version, dirty: e.dirty, owner_in_l1: e.owner },
                );
            }
        }
        for bank in &self.dircache {
            for (block, d) in bank.iter() {
                snap.l2.entry(block).or_insert(L2View {
                    has_data: false,
                    version: 0,
                    dirty: false,
                    owner_in_l1: d.owner,
                });
            }
        }
        for (b, v) in self.authority.iter() {
            snap.authority.insert(*b, *v);
        }
        for (b, _) in self.authority.iter() {
            snap.memory.insert(*b, self.mem.version(*b));
        }
        // Coverage: the directory's full map must name every copy.
        for bank in &self.l2 {
            for (block, e) in bank.iter() {
                let mut bits = e.sharers;
                if let Some(o) = e.owner {
                    bits |= bit(o);
                }
                snap.recorded.insert(block, bits);
            }
        }
        for bank in &self.dircache {
            for (block, d) in bank.iter() {
                let mut bits = d.sharers;
                if let Some(o) = d.owner {
                    bits |= bit(o);
                }
                snap.recorded.entry(block).and_modify(|v| *v |= bits).or_insert(bits);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{random_stress, Harness};

    fn harness() -> Harness<Directory> {
        Harness::new(Directory::new(ChipSpec::small()))
    }

    #[test]
    fn single_read_fetches_from_memory() {
        let mut h = harness();
        h.push_access(0, 100, false);
        h.run_checked(1000);
        assert_eq!(h.total_completed(), 1);
        assert_eq!(h.proto.stats().mem_reads.get(), 1);
        assert_eq!(h.proto.stats().class_count(MissClass::Memory), 1);
    }

    #[test]
    fn second_read_hits_home_l2() {
        let mut h = harness();
        h.push_access(0, 100, false);
        h.push_access(1, 100, false);
        h.run_checked(2000);
        // Tile 0 got E from memory; tile 1's read is forwarded to tile 0.
        assert_eq!(h.proto.stats().mem_reads.get(), 1);
        assert_eq!(h.proto.stats().class_count(MissClass::UnpredictedForwarded), 1);
    }

    #[test]
    fn repeated_access_is_a_hit() {
        let mut h = harness();
        h.push_access(0, 100, false);
        h.push_access(0, 100, false);
        h.push_access(0, 100, true); // E -> M silent upgrade
        h.run_checked(1000);
        assert_eq!(h.proto.stats().l1_hits.get(), 2);
        assert_eq!(h.proto.stats().l1_misses.get(), 1);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut h = harness();
        // Three tiles read, then tile 3 writes.
        for t in 0..3 {
            h.push_access(t, 100, false);
        }
        h.run_checked(4000);
        h.push_access(3, 100, true);
        h.run_checked(4000);
        // After the write, only tile 3 has a copy.
        let snap = h.proto.snapshot();
        for t in 0..3 {
            assert!(!snap.l1[t].contains_key(&100), "tile {t} kept a stale copy");
        }
        assert!(matches!(
            snap.l1[3].get(&100).unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert!(h.proto.stats().invalidations.get() >= 1);
    }

    #[test]
    fn write_then_read_transfers_dirty_data() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(1, 100, false);
        h.run_checked(2000);
        let snap = h.proto.snapshot();
        let v = *snap.authority.get(&100).unwrap();
        assert_eq!(v, 1);
        assert_eq!(snap.l1[1].get(&100).unwrap().version, v);
        // Former owner downgraded to shared.
        assert!(matches!(snap.l1[0].get(&100).unwrap().state, CopyState::Shared));
    }

    #[test]
    fn ping_pong_writes_serialize() {
        let mut h = harness();
        for i in 0..10 {
            h.push_access(i % 2, 64, true);
        }
        h.run_checked(20_000);
        let snap = h.proto.snapshot();
        assert_eq!(*snap.authority.get(&64).unwrap(), 10);
    }

    #[test]
    fn capacity_evictions_write_back() {
        let mut h = harness();
        // The tiny L1 (8 sets x 2 ways) overflows with same-set writes:
        // blocks s, s+16, s+32 ... map to one set (16 tiles).
        let tiles = h.proto.spec().tiles();
        for i in 0..6u64 {
            h.push_access(0, i * tiles as u64, true);
        }
        h.run_checked(20_000);
        assert!(h.proto.stats().l1_repl_transactions.get() >= 4);
    }

    #[test]
    fn stress_read_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xd1, 60, 40, 0.1);
    }

    #[test]
    fn stress_write_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xd2, 60, 24, 0.6);
    }

    #[test]
    fn stress_high_contention() {
        let mut h = harness();
        random_stress(&mut h, 0xd3, 50, 4, 0.5);
    }

    #[test]
    fn stress_tiny_chip_capacity_pressure() {
        let mut h = Harness::new(Directory::new(ChipSpec::tiny()));
        random_stress(&mut h, 0xd4, 80, 64, 0.3);
    }

    #[test]
    fn stress_many_seeds() {
        for seed in 0..6 {
            let mut h = harness();
            random_stress(&mut h, 0xe000 + seed, 30, 16, 0.4);
        }
    }
}
