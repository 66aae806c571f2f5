//! The DiCo family's shared controller.
//!
//! [`DiCoCore`] implements Direct Coherence (paper §II-B) once: the L1,
//! L2, L1C$ and L2C$ arrays, owner prediction, ownership hand-offs and
//! their tombstones, vouched forwarding through the home, self-serve
//! completion, L2C$ recalls and the home's writeback/unblock/memory
//! handlers. DiCo-Providers (§III-A/§IV-A) and DiCo-Arin (§III-B/§IV-B)
//! are "DiCo plus area-based changes"; an [`AreaPolicy`] supplies only
//! those changes:
//!
//! | hook | DiCo | DiCo-Providers | DiCo-Arin |
//! |---|---|---|---|
//! | [`AreaPolicy::AREAS`], [`AreaPolicy::Propos`] (who tracks sharers, §III) | chip-wide bits | area bits + ProPos | area bits |
//! | [`AreaPolicy::Home`], [`AreaPolicy::home_entry`] (home-owned entry, §III) | chip sharers | ProPos | owner area or SBA ProPos |
//! | [`AreaPolicy::remote_read_at_owner`] (Table I / §III-B) | — | forward to / make provider | dissolve ownership |
//! | [`AreaPolicy::provider_read`] (§IV-A / §IV-B) | — | serve, track sharer | serve, new provider |
//! | [`AreaPolicy::evict_provider`] (Table II) | — | hand off providership | silent |
//! | [`AreaPolicy::RECALLED_OWNER_STAYS_PROVIDER`] (§IV-A1) | no | yes | no |
//! | [`AreaPolicy::serve_home_owned`], [`AreaPolicy::evict_home_owned`] (Table I L2 rows / §IV-B1) | grant | provider forward, grant | SBA ordering point, broadcast |
//! | [`AreaPolicy::blocked`], [`AreaPolicy::sba_write_done`], [`AreaPolicy::home_eviction_done`] (§IV-B1) | — | — | three-way broadcast |
//! | [`AreaPolicy::handle`] (own messages) | — | `InvProvider`, `AckCount`, `ChangeProvider`/`NoProvider` | `SbaTransition`, `Bcast*` |
//!
//! Every hook is resolved statically: each protocol is a monomorphized
//! `DiCoCore<P>`, with no dynamic dispatch on the per-message path.

use crate::checker::{BlockView, CopyState, CopyView, L2View};
use crate::common::*;
use cmpsim_cache::{LineAt, Mshr, SetAssoc};
use cmpsim_engine::{Cycle, FxHashMap, FxHashSet, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::fmt::Debug;

/// L1 line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1State {
    /// Sharer; `hint` remembers the last known supplier (stored in the
    /// line's directory-info space, moved to the L1C$ on eviction).
    Sharer {
        /// Last known supplier.
        hint: Option<TileId>,
    },
    /// Provider (area policies only): supplies in-area reads.
    Provider,
    /// Owner: data and sharing code live here.
    Owner {
        /// No sharers exist (E/M as opposed to O).
        exclusive: bool,
        /// Modified with respect to memory.
        dirty: bool,
    },
}

/// An L1 line. `sharers` is the sharing code of an owner (or of a
/// DiCo-Providers provider): chip-wide tile bits, or area-local bits
/// under an area policy. `propos` are an owner's per-area provider
/// pointers, if the policy keeps any.
#[derive(Debug, Clone)]
pub struct L1Line<X> {
    pub(crate) state: L1State,
    pub(crate) sharers: u64,
    pub(crate) propos: X,
    pub(crate) version: u64,
}

impl<X> L1Line<X> {
    pub(crate) fn dirty(&self) -> bool {
        matches!(self.state, L1State::Owner { dirty: true, .. })
    }
}

/// Home L2 data entry: exists exactly when the home holds the ownership.
/// `code` is the policy's coherence information for it.
#[derive(Debug, Clone)]
pub struct L2Entry<H> {
    pub(crate) dirty: bool,
    pub(crate) version: u64,
    pub(crate) code: H,
}

/// Outstanding miss at the requestor.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    pub(crate) write: bool,
    pub(crate) issued_at: Cycle,
    /// Predicted destination, if the L1C$ produced one.
    pub(crate) predicted: Option<Tile>,
    /// In-place upgrade at the owner (no data expected).
    pub(crate) upgrade: bool,
    pub(crate) have_data: bool,
    pub(crate) fill: Option<DataInfo>,
    pub(crate) fill_from: Option<Node>,
    /// Sharer acks still owed (raised by provider `AckCount`s).
    pub(crate) acks_needed: i64,
    /// Provider acks still owed.
    pub(crate) provider_acks_needed: i64,
    /// An invalidation for epoch `v` arrived while a read fill was in
    /// flight; a fill with `version <= v` completes but is not installed.
    pub(crate) pending_inv: Option<u64>,
}

/// Home-side transaction.
#[derive(Debug, Clone)]
pub enum HomeTx {
    /// Off-chip fetch in flight; the triggering request is stored.
    MemFetch {
        /// The request to answer.
        req: Msg,
    },
    /// L2C$ eviction recall in flight.
    Recall,
    /// The home granted ownership (from its own L2 data or from memory)
    /// and waits for the requestor's Unblock before updating the L2C$
    /// and serving the next request.
    Granting {
        /// The grantee.
        to: Tile,
    },
    /// Eviction of a home-owned entry: collecting invalidation acks.
    Evict {
        /// Sharer acks still owed.
        acks_left: i64,
        /// Provider acks still owed.
        provider_acks_left: i64,
        /// The evicted data is dirty.
        dirty: bool,
        /// Version of the evicted data.
        version: u64,
    },
    /// DiCo-Arin SBA write in flight: busy until the writer's `BcastDone`.
    SbaWrite {
        /// The writer.
        writer: Tile,
    },
}

const TOMBSTONE_CAP: usize = 128;

/// Hand-off notes of one tile: where the ownership (or providership) of
/// a recently handed-away block went. Bounded to the last
/// `TOMBSTONE_CAP` notes, oldest first out.
#[derive(Debug, Clone)]
pub struct Tombstones<V> {
    map: FxHashMap<Block, V>,
    fifo: VecDeque<Block>,
}

impl<V> Default for Tombstones<V> {
    fn default() -> Self {
        Self { map: FxHashMap::default(), fifo: VecDeque::new() }
    }
}

impl<V: Copy> Tombstones<V> {
    /// Records that `block` went to `to`.
    pub(crate) fn set(&mut self, block: Block, to: V) {
        if self.map.insert(block, to).is_none() {
            self.fifo.push_back(block);
            if self.fifo.len() > TOMBSTONE_CAP {
                if let Some(old) = self.fifo.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Where `block` went, if noted.
    pub(crate) fn get(&self, block: Block) -> Option<V> {
        self.map.get(&block).copied()
    }

    /// Forgets the note for `block` (its FIFO slot ages out as usual).
    pub(crate) fn remove(&mut self, block: Block) {
        self.map.remove(&block);
    }
}

/// The provider pointers an L1 owner keeps: DiCo-Providers' ProPos
/// ([`Propos`]), or none ([`NoPropos`]).
pub trait OwnerPropos: Copy + Default + Debug + Snap {
    /// Takes the pointers a message carried.
    fn from_msg(p: Propos) -> Self;
    /// The pointers as a message carries them.
    fn to_msg(&self) -> Propos;
    /// Number of live pointers.
    fn count(&self) -> u32 {
        self.to_msg().count()
    }
}

impl OwnerPropos for Propos {
    fn from_msg(p: Propos) -> Self {
        p
    }
    fn to_msg(&self) -> Propos {
        *self
    }
}

/// No provider pointers (plain DiCo and DiCo-Arin owners).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPropos;

impl OwnerPropos for NoPropos {
    fn from_msg(_: Propos) -> Self {
        NoPropos
    }
    fn to_msg(&self) -> Propos {
        Propos::NONE
    }
}

/// What a DiCo-family protocol adds to plain DiCo. Hooks default to
/// DiCo's behaviour; hooks DiCo never reaches default to `unreachable!`.
pub trait AreaPolicy: Sized + Clone + Snap + 'static {
    /// Protocol identity.
    const KIND: ProtocolKind;
    /// Sharing codes are area-local (`nta` bits, paper §III) instead of
    /// chip-wide.
    const AREAS: bool;
    /// Providers track their area's sharers (DiCo-Providers) rather than
    /// nothing (DiCo-Arin).
    const PROVIDERS_TRACK_SHARERS: bool = false;
    /// A recalled owner stays on as its area's provider (DiCo-Providers,
    /// §IV-A1) instead of as a plain sharer.
    const RECALLED_OWNER_STAYS_PROVIDER: bool = false;
    /// An ownership transfer that lands on a tile with a miss outstanding
    /// (and no line) also refreshes the inherited sharers' predictions.
    const HINT_ON_TRANSFER_TO_MISS: bool = false;
    /// Provider pointers kept by an L1 owner.
    type Propos: OwnerPropos;
    /// Coherence information of a home-owned L2 entry.
    type Home: Clone + Debug + Snap;

    /// The policy's own state for `spec`.
    fn new(spec: &ChipSpec) -> Self;

    /// `block` is locked at `tile` by an in-flight broadcast
    /// invalidation (DiCo-Arin, §IV-B1).
    fn blocked(&self, _tile: Tile, _block: Block) -> bool {
        false
    }

    /// No policy transaction is in flight.
    fn quiescent(&self) -> bool {
        true
    }

    /// Entries in the policy's own per-tile state (`None` when it keeps
    /// none), checked against the chip when a snapshot is restored.
    fn per_tile_len(&self) -> Option<usize> {
        None
    }

    /// Appends the policy's in-flight state at `tile` to a dump.
    fn pending_summary(&self, _tile: Tile, _out: &mut String) {}

    /// The stable owner at `tile` serves a read from another area.
    fn remote_read_at_owner(
        _c: &mut DiCoCore<Self>,
        _ctx: &mut Ctx,
        _tile: Tile,
        _block: Block,
        _req: ReqInfo,
    ) {
        unreachable!("{} has no areas", Self::KIND.name())
    }

    /// A provider at `tile` serves an in-area read.
    fn provider_read(
        _c: &mut DiCoCore<Self>,
        _ctx: &mut Ctx,
        _tile: Tile,
        _block: Block,
        _req: ReqInfo,
    ) {
        unreachable!("{} has no providers", Self::KIND.name())
    }

    /// A provider line was replaced (Table II). Silent by default.
    fn evict_provider(
        _c: &mut DiCoCore<Self>,
        _ctx: &mut Ctx,
        _tile: Tile,
        _block: Block,
        _line: L1Line<Self::Propos>,
    ) {
    }

    /// A write to a shared-between-areas block committed at `tile`: run
    /// the third step of the three-way invalidation.
    fn sba_write_done(_c: &mut DiCoCore<Self>, _ctx: &mut Ctx, _tile: Tile, _block: Block) {
        unreachable!("{} never grants SBA writes", Self::KIND.name())
    }

    /// Home-owned entry for ownership returning home from `src` with the
    /// given sharing code and provider pointers.
    fn home_entry(spec: &ChipSpec, src: Tile, sharers: u64, propos: Propos) -> Self::Home;

    /// A request reached a home that owns the block (L2 data present).
    fn serve_home_owned(c: &mut DiCoCore<Self>, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo);

    /// A home-owned entry was replaced: invalidate its copies (see
    /// `DiCoCore::evict_home_quiet` and `DiCoCore::evict_home_begin`).
    fn evict_home_owned(
        c: &mut DiCoCore<Self>,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        e: L2Entry<Self::Home>,
    );

    /// The last acknowledgement of a home eviction arrived.
    fn home_eviction_done(_c: &mut DiCoCore<Self>, _ctx: &mut Ctx, _home: Tile, _block: Block) {}

    /// Chip-wide tiles a home-owned entry records as holding copies, or
    /// `None` when its copies are tracked by broadcast.
    fn home_recorded(c: &DiCoCore<Self>, code: &Self::Home) -> Option<u64>;

    /// Messages the shared core has no transition for.
    fn handle(_c: &mut DiCoCore<Self>, _ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        Err(ProtoError::unexpected(Self::KIND, &msg))
    }
}

impl<P: AreaPolicy> PerTile for P {
    fn tile_entries(&self) -> Option<usize> {
        self.per_tile_len()
    }
}

/// A DiCo-family protocol: the shared DiCo controller plus policy `P`.
#[derive(Clone)]
pub struct DiCoCore<P: AreaPolicy> {
    pub(crate) spec: ChipSpec,
    pub(crate) stats: ProtoStats,
    pub(crate) authority: VersionAuthority,
    pub(crate) mem: MemoryImage,
    pub(crate) l1: Vec<SetAssoc<L1Line<P::Propos>>>,
    pub(crate) l1c: Vec<SetAssoc<TileId>>,
    pub(crate) mshr: Vec<Mshr<MshrEntry>>,
    /// Per-L1 pending queues (owner busy with an upgrade or awaiting its
    /// Change_Owner ack).
    pub(crate) l1_queues: Vec<BlockQueues>,
    /// Blocks whose ownership we received from another L1 and whose
    /// Change_Owner ack is still outstanding.
    pub(crate) co_pending: Vec<FxHashSet<Block>>,
    /// Change_Owner acks that arrived before the data (network race).
    pub(crate) co_ack_early: Vec<FxHashSet<Block>>,
    /// Recently transferred-away blocks: new-owner tombstones.
    pub(crate) tombstones: Vec<Tombstones<Node>>,
    pub(crate) l2: Vec<SetAssoc<L2Entry<P::Home>>>,
    pub(crate) l2c: Vec<SetAssoc<TileId>>,
    pub(crate) home_queues: Vec<BlockQueues>,
    pub(crate) tx: Vec<FxHashMap<Block, HomeTx>>,
    /// Requests that returned to the home while its owner pointer was
    /// provably stale; replayed on the next ownership update.
    pub(crate) bounce_hold: Vec<FxHashMap<Block, VecDeque<Msg>>>,
    pub(crate) pending_mem_writes: Vec<(Tile, Block)>,
    pub(crate) policy: P,
}

impl Snap for L1State {
    fn save(&self, w: &mut SnapWriter) {
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

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => L1State::Sharer { hint: Snap::load(r)? },
            1 => L1State::Provider,
            2 => L1State::Owner { exclusive: Snap::load(r)?, dirty: Snap::load(r)? },
            tag => return Err(SnapError::BadTag { what: "dico_core::L1State", tag }),
        })
    }
}

impl<X: Snap> Snap for L1Line<X> {
    fn save(&self, w: &mut SnapWriter) {
        self.state.save(w);
        self.sharers.save(w);
        self.propos.save(w);
        self.version.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            state: Snap::load(r)?,
            sharers: Snap::load(r)?,
            propos: Snap::load(r)?,
            version: Snap::load(r)?,
        })
    }
}

impl<H: Snap> Snap for L2Entry<H> {
    fn save(&self, w: &mut SnapWriter) {
        self.dirty.save(w);
        self.version.save(w);
        self.code.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { dirty: Snap::load(r)?, version: Snap::load(r)?, code: Snap::load(r)? })
    }
}

impl<V: Snap + Copy> Snap for Tombstones<V> {
    fn save(&self, w: &mut SnapWriter) {
        self.map.save(w);
        self.fifo.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { map: Snap::load(r)?, fifo: Snap::load(r)? })
    }
}

impl Snap for NoPropos {
    fn save(&self, _: &mut SnapWriter) {}

    fn load(_: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NoPropos)
    }
}

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

impl Snap for HomeTx {
    fn save(&self, w: &mut SnapWriter) {
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
            HomeTx::Evict { acks_left, provider_acks_left, dirty, version } => {
                w.u8(3);
                acks_left.save(w);
                provider_acks_left.save(w);
                dirty.save(w);
                version.save(w);
            }
            HomeTx::SbaWrite { writer } => {
                w.u8(4);
                writer.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => HomeTx::MemFetch { req: Snap::load(r)? },
            1 => HomeTx::Recall,
            2 => HomeTx::Granting { to: Snap::load(r)? },
            3 => HomeTx::Evict {
                acks_left: Snap::load(r)?,
                provider_acks_left: Snap::load(r)?,
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
            },
            4 => HomeTx::SbaWrite { writer: Snap::load(r)? },
            tag => return Err(SnapError::BadTag { what: "dico_core::HomeTx", tag }),
        })
    }
}

/// Re-dispatches a request released at the home from scratch: any bounce
/// marker predates the release and is stale.
fn redispatch(ctx: &mut Ctx, mut m: Msg) {
    if let MsgKind::Req(ref mut r) = m.kind {
        r.via_home = false;
        r.forwarder = None;
        r.vouched = false;
    }
    ctx.replay(m);
}

impl<P: AreaPolicy> DiCoCore<P> {
    /// Builds the protocol for `spec`.
    pub fn new(spec: ChipSpec) -> Self {
        assert!(!P::AREAS || spec.num_areas() <= MAX_AREAS, "too many areas for the ProPo array");
        assert!(spec.tiles() < u8::MAX as usize, "too many tiles for a one-byte ProPo");
        let n = spec.tiles();
        Self {
            l1: (0..n).map(|_| SetAssoc::new(spec.l1)).collect(),
            l1c: (0..n).map(|_| SetAssoc::new(spec.aux)).collect(),
            mshr: (0..n).map(|_| Mshr::new(8)).collect(),
            l1_queues: (0..n).map(|_| BlockQueues::default()).collect(),
            co_pending: vec![FxHashSet::default(); n],
            co_ack_early: vec![FxHashSet::default(); n],
            tombstones: vec![Tombstones::default(); n],
            l2: (0..n).map(|_| SetAssoc::new(spec.l2)).collect(),
            l2c: (0..n).map(|_| SetAssoc::new(spec.aux_home)).collect(),
            home_queues: (0..n).map(|_| BlockQueues::default()).collect(),
            tx: (0..n).map(|_| FxHashMap::default()).collect(),
            bounce_hold: vec![FxHashMap::default(); n],
            pending_mem_writes: Vec::new(),
            policy: P::new(&spec),
            spec,
            stats: ProtoStats::default(),
            authority: VersionAuthority::default(),
            mem: MemoryImage::default(),
        }
    }

    // ------------------------------------------------------ small utils

    pub(crate) fn home(&self, block: Block) -> Tile {
        self.spec.home_of(block)
    }

    pub(crate) fn area_of(&self, tile: Tile) -> usize {
        self.spec.area_of(tile)
    }

    /// Bit of `tile` in a sharing code.
    pub(crate) fn sharer_bit(&self, tile: Tile) -> u64 {
        if P::AREAS {
            1u64 << self.spec.areas.local_index(tile)
        } else {
            bit(tile)
        }
    }

    /// Tile named by bit `index` of a sharing code kept at `holder`.
    pub(crate) fn sharer_tile(&self, holder: Tile, index: usize) -> Tile {
        if P::AREAS {
            self.spec.areas.tile_in_area(self.area_of(holder), index)
        } else {
            index
        }
    }

    /// `a` and `b` share a sharing code (always, without areas).
    fn same_area(&self, a: Tile, b: Tile) -> bool {
        !P::AREAS || self.area_of(a) == self.area_of(b)
    }

    pub(crate) fn send_req(
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

    /// Invalidates the sharers named by `sharers`, a code kept at
    /// `holder`; their acks go to `reply_to`.
    pub(crate) fn send_sharer_invs(
        &mut self,
        ctx: &mut Ctx,
        holder: Tile,
        block: Block,
        sharers: u64,
        reply_to: Node,
        version: u64,
    ) {
        for i in iter_bits(sharers) {
            let t = self.sharer_tile(holder, i);
            self.stats.invalidations.inc();
            ctx.send(
                Msg {
                    kind: MsgKind::Inv { reply_to, version },
                    block,
                    src: Node::L1(holder),
                    dst: Node::L1(t),
                },
                self.spec.lat.l1_tag,
            );
        }
    }

    /// Invalidates the providers named by `propos`; each cascades to its
    /// area and answers `reply_to` with an `AckCount`.
    pub(crate) fn send_provider_invs(
        &mut self,
        ctx: &mut Ctx,
        src: Node,
        block: Block,
        propos: &Propos,
        reply_to: Node,
    ) {
        for p in propos.iter() {
            self.stats.invalidations.inc();
            ctx.send(
                Msg { kind: MsgKind::InvProvider { reply_to }, block, src, dst: Node::L1(p) },
                self.spec.lat.l1_tag,
            );
        }
    }

    /// Sends supplier-identity hints to the sharers named by `sharers`
    /// (paper Figure 5: predictions are refreshed when the ownership or
    /// providership moves).
    pub(crate) fn send_hints(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, sharers: u64) {
        if !self.spec.enable_hints {
            return;
        }
        for i in iter_bits(sharers) {
            let t = self.sharer_tile(tile, i);
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

    // --------------------------------------------------------- L1 side

    /// Prediction for the supplier of `block` at `tile` (L1C$ lookup).
    fn predict(&mut self, tile: Tile, block: Block) -> Option<Tile> {
        if !self.spec.enable_prediction {
            return None;
        }
        self.stats.l1c_access.inc();
        self.l1c[tile].get_mut(block).map(|t| t.get()).filter(|&t| t != tile)
    }

    /// Records a supplier hint (line space first, else the L1C$ array).
    pub(crate) fn learn(&mut self, tile: Tile, block: Block, supplier: Tile) {
        if supplier == tile {
            return;
        }
        let supplier = TileId::new(supplier);
        if let Some(line) = self.l1[tile].peek_mut(block) {
            if let L1State::Sharer { hint } = &mut line.state {
                *hint = Some(supplier);
                return;
            }
        }
        self.l1c_record(tile, block, supplier);
    }

    /// Points `tile`'s L1C$ entry for `block` at `supplier`.
    fn l1c_record(&mut self, tile: Tile, block: Block, supplier: TileId) {
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
            Some(L1State::Sharer { hint }) => hint.map(TileId::get).filter(|&t| t != tile),
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
                provider_acks_needed: 0,
                pending_inv: None,
            },
        );
        if upgrade {
            // In-place upgrade: we are the owner; invalidate our sharers
            // (and providers).
            let line = self.l1[tile].peek(block).expect("upgrade at owner");
            let (sharers, propos, version) = (line.sharers, line.propos, line.version);
            debug_assert!(
                sharers != 0 || propos.count() > 0,
                "upgrade with no sharers would be a silent hit"
            );
            let e = self.mshr[tile].get_mut(block).expect("just allocated");
            e.acks_needed = sharers.count_ones() as i64;
            e.provider_acks_needed = propos.count() as i64;
            self.l1_queues[tile].set_busy(block);
            self.send_sharer_invs(ctx, tile, block, sharers, Node::L1(tile), version);
            self.send_provider_invs(ctx, Node::L1(tile), block, &propos.to_msg(), Node::L1(tile));
            // Clear the code now; completion makes us exclusive.
            let line = self.l1[tile].peek_mut(block).expect("upgrade at owner");
            line.sharers = 0;
            line.propos = P::Propos::default();
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
    /// upgrade that invalidates the inherited sharers and providers.
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
        let (sharers, propos, version) = (line.sharers, line.propos, line.version);
        {
            let e = self.mshr[tile].get_mut(block).expect("self-serve without MSHR");
            e.upgrade = true;
            e.have_data = true;
            e.acks_needed += sharers.count_ones() as i64;
            e.provider_acks_needed += propos.count() as i64;
        }
        self.l1_queues[tile].set_busy(block);
        self.send_sharer_invs(ctx, tile, block, sharers, Node::L1(tile), version);
        self.send_provider_invs(ctx, Node::L1(tile), block, &propos.to_msg(), Node::L1(tile));
        let line = self.l1[tile].peek_mut(block).expect("owner line");
        line.sharers = 0;
        line.propos = P::Propos::default();
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
            // Commit the in-place upgrade.
            let v = self.authority.commit(block);
            let line = self.l1[tile].peek_mut(block).expect("upgrade owner line");
            line.state = L1State::Owner { exclusive: true, dirty: true };
            line.sharers = 0;
            line.propos = P::Propos::default();
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
        let class = Self::classify(&e, &fill);
        self.stats.record_miss(class, ctx.now - e.issued_at);

        if e.write {
            let v = self.authority.commit(block);
            let line = L1Line {
                state: L1State::Owner { exclusive: true, dirty: true },
                sharers: 0,
                propos: P::Propos::default(),
                version: v,
            };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
            if fill.sba_write {
                P::sba_write_done(self, ctx, tile, block);
            } else if fill.ownership
                && fill.supplier == Supplier::OwnerL1
                && !self.co_ack_early[tile].remove(&block)
            {
                // Wait for the home's Change_Owner ack before moving the
                // ownership again.
                self.co_pending[tile].insert(block);
                self.l1_queues[tile].set_busy(block);
            }
        } else if fill.ownership {
            let line = L1Line {
                state: L1State::Owner { exclusive: fill.exclusive, dirty: fill.dirty },
                sharers: fill.sharers & !self.sharer_bit(tile),
                propos: P::Propos::from_msg(fill.propos),
                version: fill.version,
            };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
        } else if !stale {
            let state = if fill.make_provider {
                L1State::Provider
            } else {
                let hint = e.fill_from.map(|n| n.tile()).filter(|&t| t != tile);
                L1State::Sharer { hint: hint.map(TileId::new) }
            };
            let line =
                L1Line { state, sharers: 0, propos: P::Propos::default(), version: fill.version };
            self.install_l1(ctx, tile, block, line);
            self.stats.l1_data_write.inc();
        }
        // Home-supplied grants run under a busy flag at the home bank;
        // the Unblock releases it and commits the L2C$ owner pointer.
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

    fn classify(e: &MshrEntry, fill: &DataInfo) -> MissClass {
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

    fn install_l1(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line<P::Propos>) {
        // A fresh copy supersedes any stale hand-off note for the block.
        self.tombstones[tile].remove(block);
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

    /// Replacements (paper §IV-A1, Table II).
    fn evict_l1_line(&mut self, ctx: &mut Ctx, tile: Tile, block: Block, line: L1Line<P::Propos>) {
        let lat = self.spec.lat;
        match line.state {
            L1State::Sharer { hint } => {
                // Silent data eviction; the supplier identity is retained
                // in the L1C$ for future two-hop misses (paper §IV-A2).
                if let Some(h) = hint {
                    self.l1c_record(tile, block, h);
                }
            }
            L1State::Provider => P::evict_provider(self, ctx, tile, block, line),
            L1State::Owner { dirty, .. } => {
                self.stats.l1_repl_transactions.inc();
                if line.sharers != 0 {
                    // Pass ownership (+ data + sharing code + ProPos) to
                    // a sharer.
                    let local = line.sharers.trailing_zeros() as usize;
                    let target = self.sharer_tile(tile, local);
                    let rest = line.sharers & !(1 << local);
                    self.tombstones[tile].set(block, Node::L1(target));
                    ctx.send(
                        Msg {
                            kind: MsgKind::OwnershipTransfer {
                                sharers: rest,
                                propos: line.propos.to_msg(),
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
                    // No sharers: ownership (and data if dirty) go home;
                    // other areas' providers stay valid.
                    let home = Node::L2(self.home(block));
                    self.tombstones[tile].set(block, home);
                    ctx.send(
                        Msg {
                            kind: MsgKind::OwnershipToHome {
                                dirty,
                                version: line.version,
                                propos: line.propos.to_msg(),
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

    /// A request (predicted, home-forwarded, or chasing) arrives at an L1
    /// — paper Table I, L1 rows.
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
            let is_owner =
                matches!(self.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Owner { .. }));
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

        // A broadcast invalidation is in flight: no responses until the
        // unblock (paper §IV-B1).
        if self.policy.blocked(tile, block) {
            self.l1_queues[tile].enqueue(msg);
            return;
        }

        match self.l1[tile].peek(block).map(|l| l.state) {
            Some(L1State::Owner { .. }) => {
                if self.l1_queues[tile].is_busy(block)
                    || (req.write && self.co_pending[tile].contains(&block))
                {
                    // Mid-upgrade or ownership not yet committed: wait.
                    self.l1_queues[tile].enqueue(msg);
                } else if req.write {
                    self.serve_write_as_owner(ctx, tile, block, req);
                } else if self.same_area(req.requestor, tile) {
                    // Serve the read; the requestor becomes a sharer.
                    let sb = self.sharer_bit(req.requestor);
                    let line = self.l1[tile].get_mut(block).expect("owner");
                    line.sharers |= sb;
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
                } else {
                    P::remote_read_at_owner(self, ctx, tile, block, req);
                }
                return;
            }
            // A provider with its own miss in flight is about to lose or
            // replace its copy: it must not hand out copies meanwhile.
            Some(L1State::Provider)
                if !req.write
                    && self.same_area(req.requestor, tile)
                    && !self.mshr[tile].contains(block) =>
            {
                P::provider_read(self, ctx, tile, block, req);
                return;
            }
            _ => {}
        }

        // Not a supplier. Park first: an in-flight transaction that will
        // make us the owner outranks any (possibly stale) hand-off note.
        if let Some(e) = self.mshr[tile].get(block) {
            let ownership_incoming =
                (req.vouched && e.write) || e.fill.map(|f| f.ownership).unwrap_or(false);
            if ownership_incoming {
                self.l1_queues[tile].enqueue(msg);
                return;
            }
        }
        // Chase the hand-off note, bounded (DiCo's deadlock avoidance):
        // after MAX_CHASE_HOPS forwards the request falls back to the home.
        if req.hops < MAX_CHASE_HOPS {
            if let Some(next) = self.tombstones[tile].get(block) {
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
        // Sharers of the owner's code, minus the requestor if it is one.
        let mut invs = line.sharers;
        if self.same_area(req.requestor, tile) {
            invs &= !self.sharer_bit(req.requestor);
        }
        // Every provider is invalidated through InvProvider — including
        // the requestor itself when it is one: the paper's §IV-A special
        // case says the requestor-provider invalidates its area when it
        // receives "the ownership or an invalidation message"; the
        // explicit InvProvider also chases a providership hand-off that
        // may have left the requestor in the meantime.
        let propos = line.propos;
        self.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo {
                    exclusive: true,
                    ownership: true,
                    acks_sharers: invs.count_ones(),
                    acks_providers: propos.count(),
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
        self.send_sharer_invs(ctx, tile, block, invs, Node::L1(req.requestor), line.version);
        self.send_provider_invs(
            ctx,
            Node::L1(tile),
            block,
            &propos.to_msg(),
            Node::L1(req.requestor),
        );
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
        self.tombstones[tile].set(block, Node::L1(req.requestor));
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
        if let Some(line) = self.l1[tile].remove(block) {
            debug_assert!(
                P::AREAS || matches!(line.state, L1State::Sharer { .. }),
                "invalidation reached an owner (tile {tile}, block {block:#x})"
            );
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

    #[allow(clippy::too_many_arguments)]
    fn l1_handle_transfer(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        sharers: u64,
        propos: Propos,
        dirty: bool,
        version: u64,
    ) {
        self.stats.l1_tag.inc();
        // Receiving a transfer supersedes any stale hand-off note.
        self.tombstones[tile].remove(block);
        let lat = self.spec.lat;
        let mine = sharers & !self.sharer_bit(tile);
        let propos = P::Propos::from_msg(propos);
        let exclusive = mine == 0 && propos.count() == 0;
        // A tile with a miss outstanding and no line accepts the
        // ownership as a fresh line; its own roaming request completes
        // the MSHR when it returns (self-serve). Transfers never touch
        // MSHRs, so a request can never be satisfied twice.
        if !self.l1[tile].contains(block) && self.mshr[tile].contains(block) {
            let line = L1Line {
                state: L1State::Owner { exclusive, dirty },
                sharers: mine,
                propos,
                version,
            };
            self.install_l1(ctx, tile, block, line);
            if P::HINT_ON_TRANSFER_TO_MISS {
                self.send_hints(ctx, tile, block, mine);
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
            }
            return;
        }
        if let Some((at, _)) = self.l1[tile].find(block) {
            // A sharer (or provider) accepts the ownership.
            let line = self.l1[tile].touch_at(at);
            debug_assert!(P::AREAS || line.version == version, "sharer holds the current version");
            line.state = L1State::Owner { exclusive, dirty };
            // Merge: a DiCo-Providers provider keeps its area's sharers.
            line.sharers |= mine;
            line.propos = propos;
            // Refresh the inherited sharers' predictions (Figure 5).
            self.send_hints(ctx, tile, block, mine);
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
            let local = mine.trailing_zeros() as usize;
            let target = self.sharer_tile(tile, local);
            self.tombstones[tile].set(block, Node::L1(target));
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipTransfer {
                        sharers: mine,
                        propos: propos.to_msg(),
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
            let home = Node::L2(self.home(block));
            self.tombstones[tile].set(block, home);
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipToHome {
                        dirty,
                        version,
                        propos: propos.to_msg(),
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
        let home = self.home(block);
        let recall =
            Msg { kind: MsgKind::OwnershipRecall, block, src: Node::L2(home), dst: Node::L1(tile) };
        let is_owner =
            matches!(self.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Owner { .. }));
        if !is_owner {
            // Ownership may be on its way to us (the home learned about
            // it through our Change_Owner before our data arrived): park
            // the recall; the completion replay honors it.
            if let Some(e) = self.mshr[tile].get(block) {
                if e.write || e.fill.map(|f| f.ownership).unwrap_or(false) {
                    self.l1_queues[tile].enqueue(recall);
                    return;
                }
            }
            ctx.send(
                Msg {
                    kind: MsgKind::RecallFailed,
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(home),
                },
                lat.l1_tag,
            );
            return;
        }
        if self.l1_queues[tile].is_busy(block) || self.co_pending[tile].contains(&block) {
            // Owner but unstable: retry once we settle.
            self.l1_queues[tile].enqueue(recall);
            return;
        }
        let (area, sb) = (self.area_of(tile), self.sharer_bit(tile));
        let line = self.l1[tile].get_mut(block).expect("owner");
        let (dirty, version) = (line.dirty(), line.version);
        let (sharers, propos) = if P::RECALLED_OWNER_STAYS_PROVIDER {
            // The former owner stays on as the provider of its area
            // (paper §IV-A1, L2C$ replacement).
            let mut propos = line.propos.to_msg();
            propos.set(area, Some(tile));
            line.state = L1State::Provider;
            line.propos = P::Propos::default();
            (0, propos)
        } else {
            // The former owner keeps a shared copy.
            let sharers = line.sharers | sb;
            line.state = L1State::Sharer { hint: None };
            line.sharers = 0;
            (sharers, Propos::NONE)
        };
        self.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::OwnershipToHome {
                    dirty,
                    version,
                    propos,
                    sharers,
                    former_stays_provider: P::RECALLED_OWNER_STAYS_PROVIDER,
                },
                block,
                src: Node::L1(tile),
                dst: Node::L2(home),
            },
            lat.l1_hit(),
        );
    }

    fn l1_fill(&mut self, ctx: &mut Ctx, msg: &Msg, d: DataInfo) -> Result<(), ProtoError> {
        let tile = msg.dst.tile();
        let Some(e) = self.mshr[tile].get_mut(msg.block) else {
            return Err(ProtoError::new(
                P::KIND,
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
        // DiCo-Arin's home names the requestor's in-area provider.
        if let Some(hint) = d.provider_hint {
            self.learn(tile, msg.block, hint);
        }
        self.try_complete(ctx, tile, msg.block);
        Ok(())
    }

    /// An invalidation acknowledgement (`acks`/`provider_acks` are the
    /// changes it makes to what the MSHR still owes).
    pub(crate) fn l1_ack(
        &mut self,
        ctx: &mut Ctx,
        msg: &Msg,
        acks: i64,
        provider_acks: i64,
        what: &str,
    ) -> Result<(), ProtoError> {
        let tile = msg.dst.tile();
        let Some(e) = self.mshr[tile].get_mut(msg.block) else {
            return Err(ProtoError::new(
                P::KIND,
                msg.dst,
                msg.block,
                format!("{what} without MSHR entry (from {:?})", msg.src),
            ));
        };
        e.acks_needed += acks;
        e.provider_acks_needed += provider_acks;
        self.try_complete(ctx, tile, msg.block);
        Ok(())
    }

    // -------------------------------------------------------- home side

    pub(crate) fn l2c_insert(&mut self, ctx: &mut Ctx, home: Tile, block: Block, owner: Tile) {
        self.stats.l2c_access.inc();
        let owner = TileId::new(owner);
        if let Some(o) = self.l2c[home].get_mut(block) {
            *o = owner;
            return;
        }
        let hq = &self.home_queues[home];
        let (victims, _overflow) = self.l2c[home].insert_filtered(block, owner, |b| !hq.is_busy(b));
        for (vb, vo) in victims {
            // Recall the victim's ownership into the home (paper §IV-A1).
            self.home_queues[home].set_busy(vb);
            self.tx[home].insert(vb, HomeTx::Recall);
            ctx.send(
                Msg {
                    kind: MsgKind::OwnershipRecall,
                    block: vb,
                    src: Node::L2(home),
                    dst: Node::L1(vo.get()),
                },
                self.spec.lat.l2_tag,
            );
        }
    }

    fn l2_insert(&mut self, ctx: &mut Ctx, home: Tile, block: Block, entry: L2Entry<P::Home>) {
        self.stats.l2_data_write.inc();
        let hq = &self.home_queues[home];
        let (victims, _overflow) = self.l2[home].insert_filtered(block, entry, |b| !hq.is_busy(b));
        for (vb, ve) in victims {
            self.stats.l2_evictions.inc();
            P::evict_home_owned(self, ctx, home, vb, ve);
        }
    }

    /// Evicting a home-owned entry with no copies to invalidate: dirty
    /// data is written back.
    pub(crate) fn evict_home_quiet(&mut self, home: Tile, block: Block, dirty: bool, version: u64) {
        if dirty {
            self.stats.mem_writes.inc();
            self.mem.write_back(block, version);
            self.pending_mem_writes.push((home, block));
        }
    }

    /// Evicting a home-owned entry whose copies are being invalidated:
    /// the block stays busy until every ack is in.
    pub(crate) fn evict_home_begin(
        &mut self,
        home: Tile,
        block: Block,
        acks_left: i64,
        provider_acks_left: i64,
        dirty: bool,
        version: u64,
    ) {
        self.home_queues[home].set_busy(block);
        self.tx[home]
            .insert(block, HomeTx::Evict { acks_left, provider_acks_left, dirty, version });
    }

    /// An acknowledgement of a home eviction's invalidations.
    pub(crate) fn home_evict_ack(
        &mut self,
        ctx: &mut Ctx,
        msg: &Msg,
        acks: i64,
        provider_acks: i64,
        what: &str,
    ) -> Result<(), ProtoError> {
        let (home, block) = (msg.dst.tile(), msg.block);
        let Some(HomeTx::Evict { acks_left, provider_acks_left, dirty, version }) =
            self.tx[home].get_mut(&block)
        else {
            return Err(ProtoError::new(
                P::KIND,
                msg.dst,
                block,
                format!("stray {what} at home (no eviction transaction; from {:?})", msg.src),
            ));
        };
        *acks_left += acks;
        *provider_acks_left += provider_acks;
        if *acks_left != 0 || *provider_acks_left != 0 {
            return Ok(());
        }
        let (dirty, version) = (*dirty, *version);
        self.tx[home].remove(&block);
        if dirty {
            self.stats.mem_writes.inc();
            self.mem.write_back(block, version);
            ctx.mem_write(block, home, 0);
        }
        P::home_eviction_done(self, ctx, home, block);
        self.release_home(ctx, home, block);
        Ok(())
    }

    fn home_dispatch(&mut self, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        let block = msg.block;
        let lat = self.spec.lat;
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        self.stats.home_lookups.inc();
        if let Some(owner) = self.l2c[home].peek(block).map(|o| o.get()) {
            self.stats.home_hits.inc();
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
            P::serve_home_owned(self, ctx, home, msg, req);
            return;
        }
        // Uncached: fetch from memory.
        self.home_queues[home].set_busy(block);
        self.tx[home].insert(block, HomeTx::MemFetch { req: msg });
        self.stats.mem_reads.inc();
        ctx.mem_read(block, home, lat.l2_tag);
    }

    /// Sends `data` (which grants the ownership) to `to` and keeps the
    /// block busy until the grantee's Unblock commits the L2C$ pointer.
    pub(crate) fn home_grant(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        to: Tile,
        data: DataInfo,
    ) {
        ctx.send(
            Msg { kind: MsgKind::Data(data), block, src: Node::L2(home), dst: Node::L1(to) },
            self.spec.lat.l2_access(),
        );
        self.home_queues[home].set_busy(block);
        self.tx[home].insert(block, HomeTx::Granting { to });
    }

    fn home_handle_memdata(&mut self, ctx: &mut Ctx, msg: &Msg) -> Result<(), ProtoError> {
        let (home, block) = (msg.dst.tile(), msg.block);
        let Some(HomeTx::MemFetch { req: Msg { kind: MsgKind::Req(req), .. } }) =
            self.tx[home].remove(&block)
        else {
            return Err(ProtoError::unexpected(P::KIND, msg));
        };
        let version = self.mem.version(block);
        // Data goes straight to the requestor, which becomes the
        // exclusive owner; the home records it in the L2C$ (no L2 copy —
        // DiCo keeps one copy, in the owner L1).
        let data = DataInfo {
            exclusive: true,
            ownership: true,
            dirty: false,
            version,
            supplier: Supplier::Memory,
            ..DataInfo::shared(version, Supplier::Memory)
        };
        self.home_grant(ctx, home, block, req.requestor, data);
        Ok(())
    }

    fn home_handle_unblock(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        src: Tile,
        became_owner: bool,
    ) {
        if let Entry::Occupied(tx) = self.tx[home].entry(block) {
            let HomeTx::Granting { to } = *tx.get() else { return };
            debug_assert_eq!(to, src, "Unblock from a non-grantee");
            tx.remove();
            if became_owner {
                self.l2c_insert(ctx, home, block, src);
            }
            self.release_home(ctx, home, block);
            self.release_bounces(ctx, home, block);
        }
        // Unblocks for superseded grants cannot occur: the grantee's
        // Unblock travels the same (src, dst) FIFO path as any later
        // message it could send about this block.
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
        let ack = Msg {
            kind: MsgKind::ChangeOwnerAck,
            block,
            src: Node::L2(home),
            dst: Node::L1(new_owner),
        };
        if let Some(HomeTx::Recall) = self.tx[home].get(&block) {
            // The ownership moved while we were recalling it: ack the new
            // owner and chase it with another recall.
            ctx.send(ack, lat.l2_tag);
            ctx.send(Msg { kind: MsgKind::OwnershipRecall, ..ack }, lat.l2_tag);
            self.release_bounces(ctx, home, block);
            return;
        }
        if let Some(o) = self.l2c[home].get_mut(block) {
            *o = TileId::new(new_owner);
        } else {
            self.l2c_insert(ctx, home, block, new_owner);
        }
        ctx.send(ack, lat.l2_tag);
        self.release_bounces(ctx, home, block);
    }

    /// Releases the home's busy flag on `block`, re-dispatching every
    /// queued request afresh.
    pub(crate) fn release_home(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        for m in self.home_queues[home].release(block) {
            redispatch(ctx, m);
        }
    }

    /// Re-dispatches the requests held on a stale owner pointer.
    pub(crate) fn release_bounces(&mut self, ctx: &mut Ctx, home: Tile, block: Block) {
        if let Some(q) = self.bounce_hold[home].remove(&block) {
            for m in q {
                redispatch(ctx, m);
            }
        }
    }

    /// The ownership (and the data) arrived home: drop the L2C$ pointer,
    /// install `entry`, and finish the recall it may answer.
    pub(crate) fn home_take_ownership(
        &mut self,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        entry: L2Entry<P::Home>,
    ) {
        self.stats.l2_tag.inc();
        self.stats.l2c_access.inc();
        self.l2c[home].remove(block);
        if let Some(HomeTx::Recall) = self.tx[home].get(&block) {
            self.tx[home].remove(&block);
            self.l2_insert(ctx, home, block, entry);
            self.release_home(ctx, home, block);
        } else {
            self.l2_insert(ctx, home, block, entry);
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

impl<P: AreaPolicy> CoherenceProtocol for DiCoCore<P> {
    fn kind(&self) -> ProtocolKind {
        P::KIND
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
        if self.l1_queues[tile].is_busy(block) || self.policy.blocked(tile, block) {
            return Ok(AccessOutcome::Blocked { reason: BlockReason::BusyBlock });
        }
        let lat = self.spec.lat;
        enum Action {
            HitRead(LineAt),
            HitWrite(LineAt),
            Upgrade,
            Miss,
        }
        let action = match self.l1[tile].find(block) {
            None => Action::Miss,
            Some((at, _)) if !write => Action::HitRead(at),
            Some((at, line)) => match line.state {
                L1State::Sharer { .. } | L1State::Provider => Action::Miss,
                L1State::Owner { exclusive: true, .. } => Action::HitWrite(at),
                L1State::Owner { .. } if line.sharers == 0 && line.propos.count() == 0 => {
                    // Every tracked copy is gone. Plain DiCo tracks its
                    // sharers exactly, so it never gets here.
                    debug_assert!(P::AREAS, "non-exclusive owner without sharers");
                    Action::HitWrite(at)
                }
                L1State::Owner { .. } => Action::Upgrade,
            },
        };
        let outcome = match action {
            Action::HitRead(at) => {
                self.l1[tile].touch_at(at);
                self.stats.l1_data_read.inc();
                self.stats.l1_hits.inc();
                AccessOutcome::Hit { latency: lat.l1_hit() }
            }
            Action::HitWrite(at) => {
                let v = self.authority.commit(block);
                let line = self.l1[tile].touch_at(at);
                line.version = v;
                line.state = L1State::Owner { exclusive: true, dirty: true };
                self.stats.l1_data_write.inc();
                self.stats.l1_hits.inc();
                AccessOutcome::Hit { latency: lat.l1_hit() }
            }
            Action::Upgrade | Action::Miss => {
                let upgrade = matches!(action, Action::Upgrade);
                self.start_miss(ctx, tile, block, write, upgrade);
                self.drain_deferred(ctx);
                AccessOutcome::Miss
            }
        };
        Ok(outcome)
    }

    fn handle(&mut self, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        let block = msg.block;
        match (msg.dst, msg.kind) {
            // ------------------------------------------------ L1 side
            (Node::L1(tile), MsgKind::Req(req)) => self.l1_handle_req(ctx, tile, msg, req),
            (Node::L1(_), MsgKind::Data(d)) => self.l1_fill(ctx, &msg, d)?,
            (Node::L1(_), MsgKind::Ack) => self.l1_ack(ctx, &msg, -1, 0, "invalidation ack")?,
            (Node::L1(tile), MsgKind::Inv { reply_to, version }) => {
                self.l1_handle_inv(ctx, tile, block, reply_to, version);
            }
            (
                Node::L1(tile),
                MsgKind::OwnershipTransfer { sharers, propos, dirty, version, .. },
            ) => {
                self.l1_handle_transfer(ctx, tile, block, sharers, propos, dirty, version);
            }
            (Node::L1(tile), MsgKind::OwnershipRecall) => self.l1_handle_recall(ctx, tile, block),
            (Node::L1(tile), MsgKind::Hint { supplier }) => {
                self.stats.l1_tag.inc();
                self.learn(tile, block, supplier);
            }
            (Node::L1(tile), MsgKind::ChangeOwnerAck) => {
                if self.co_pending[tile].remove(&block) {
                    for m in self.l1_queues[tile].release(block) {
                        ctx.replay(m);
                    }
                } else {
                    self.co_ack_early[tile].insert(block);
                }
            }
            // ---------------------------------------------- home side
            (Node::L2(home), MsgKind::Req(req)) => {
                if self.home_queues[home].is_busy(block) {
                    self.home_queues[home].enqueue(msg);
                } else {
                    self.home_dispatch(ctx, home, msg, req);
                }
            }
            (Node::L2(_), MsgKind::MemData) => self.home_handle_memdata(ctx, &msg)?,
            (Node::L2(home), MsgKind::Unblock { became_owner }) => {
                self.home_handle_unblock(ctx, home, block, msg.src.tile(), became_owner);
            }
            (Node::L2(home), MsgKind::ChangeOwner { new_owner }) => {
                self.home_handle_change_owner(ctx, home, block, new_owner);
            }
            (Node::L2(home), MsgKind::OwnershipToHome { dirty, version, propos, sharers, .. }) => {
                let code = P::home_entry(&self.spec, msg.src.tile(), sharers, propos);
                self.home_take_ownership(ctx, home, block, L2Entry { dirty, version, code });
            }
            (Node::L2(_), MsgKind::RecallFailed) => {
                // Either the ownership is moving (the pending ChangeOwner
                // or OwnershipToHome will restart or finish the recall),
                // or the recall already completed through a replacement
                // writeback that crossed this reply — ignore in both
                // cases.
            }
            (Node::L2(_), MsgKind::Ack) => {
                self.home_evict_ack(ctx, &msg, -1, 0, "invalidation ack")?;
            }
            _ => P::handle(self, ctx, msg)?,
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
            && self.policy.quiescent()
            && self.bounce_hold.iter().all(|b| b.values().all(|q| q.is_empty()))
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
        l2,
        l2c,
        home_queues,
        tx,
        bounce_hold,
        pending_mem_writes,
        policy;
        per_tile: l1, l1c, mshr, l1_queues, co_pending, co_ack_early, tombstones, l2, l2c,
            home_queues, tx, bounce_hold, policy,
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
                    "tile {t} MSHR block {b:#x}: write={} have_data={} acks={} packs={} upgrade={}\n",
                    e.write, e.have_data, e.acks_needed, e.provider_acks_needed, e.upgrade
                );
            }
            if !self.l1_queues[t].idle() {
                out +=
                    &format!("tile {t} l1_queue busy: {} blocks\n", self.l1_queues[t].busy_count());
            }
            let mut co: Vec<Block> = self.co_pending[t].iter().copied().collect();
            co.sort_unstable();
            for b in co {
                out += &format!("tile {t} co_pending block {b:#x}\n");
            }
            self.policy.pending_summary(t, &mut out);
            for (b, n) in self.l1_queues[t].pending_counts() {
                out += &format!(
                    "tile {t} l1_queue block {b:#x}: {n} msgs (busy={})\n",
                    self.l1_queues[t].is_busy(b)
                );
            }
            let mut txs: Vec<(Block, &HomeTx)> = self.tx[t].iter().map(|(b, x)| (*b, x)).collect();
            txs.sort_unstable_by_key(|&(b, _)| b);
            for (b, tx) in txs {
                out += &format!("home {t} tx block {b:#x}: {tx:?}\n");
            }
            if !self.home_queues[t].idle() {
                out +=
                    &format!("home {t} queue busy: {} blocks\n", self.home_queues[t].busy_count());
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

    fn block_view(&self, block: Block) -> BlockView {
        let mut view = BlockView::new(self.spec.tiles());
        // Coverage: every copy must appear in the sharing code of its
        // supplier — the owner (plus its ProPos) or a sharer-tracking
        // provider, each reporting itself — or of the home entry. A home
        // entry tracked by broadcast leaves the block unrecorded.
        let mut recorded = None;
        for (t, l1) in self.l1.iter().enumerate() {
            let Some(line) = l1.peek(block) else { continue };
            let (state, supplier) = match line.state {
                L1State::Sharer { .. } => (CopyState::Shared, false),
                L1State::Provider => (CopyState::Provider, P::PROVIDERS_TRACK_SHARERS),
                L1State::Owner { exclusive, dirty } => {
                    (CopyState::Owner { exclusive, dirty }, true)
                }
            };
            view.copies[t] = Some(CopyView { state, version: line.version });
            if supplier {
                let mut bits = bit(t);
                for i in iter_bits(line.sharers) {
                    bits |= bit(self.sharer_tile(t, i));
                }
                if let CopyState::Owner { .. } = state {
                    for p in line.propos.to_msg().iter() {
                        bits |= bit(p);
                    }
                }
                recorded = Some(recorded.unwrap_or(0) | bits);
            }
        }
        let home = self.home(block);
        view.l2 = match self.l2[home].peek(block) {
            Some(e) => {
                recorded = P::home_recorded(self, &e.code).map(|bits| recorded.unwrap_or(0) | bits);
                Some(L2View {
                    has_data: true,
                    version: e.version,
                    dirty: e.dirty,
                    owner_in_l1: None,
                })
            }
            None => self.l2c[home]
                .peek(block)
                .map(|o| L2View { owner_in_l1: Some(o.get()), ..L2View::default() }),
        };
        view.recorded = recorded;
        view.authority = self.authority.latest(block);
        view.memory = self.mem.version(block);
        view
    }

    fn blocks(&self) -> Vec<Block> {
        self.authority
            .with_held(blocks_in(&self.l1).chain(blocks_in(&self.l2)).chain(blocks_in(&self.l2c)))
    }
}
