//! Vocabulary shared by all four coherence protocols: chip description,
//! messages, the driver context, statistics, and small helpers
//! (per-block pending queues, write-serialization authority, memory
//! image).

use cmpsim_cache::Geometry;
use cmpsim_engine::metrics::{MetricSource, MetricsRegistry};
use cmpsim_engine::stats::{Counter, Log2Hist, Running};
use cmpsim_engine::{Cycle, FxHashMap, FxHashSet};
use cmpsim_virt::AreaMap;
use std::collections::VecDeque;

/// Tile index.
pub type Tile = usize;
/// Physical block address.
pub type Block = u64;
/// Maximum number of areas a simulated chip can have (analytic models in
/// `cmpsim-power` go beyond this; the cycle simulator does not need to).
pub const MAX_AREAS: usize = 16;

/// One provider pointer per area, as stored by owners (DiCo-Providers)
/// or the home L2 (DiCo-Arin): a one-byte tile index per area, the
/// paper's log2(n)-bit ProPo, with `u8::MAX` meaning "no provider".
/// Snapshots and `Debug` output keep the `[Option<u16>; MAX_AREAS]`
/// shape this type replaced.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Propos([u8; MAX_AREAS]);

/// Slot value of an area with no provider.
const NO_PROPO: u8 = u8::MAX;

impl Propos {
    /// No provider in any area.
    pub const NONE: Propos = Propos([NO_PROPO; MAX_AREAS]);

    /// Provider of `area`, if any.
    pub fn get(&self, area: usize) -> Option<Tile> {
        let p = self.0[area];
        (p != NO_PROPO).then_some(p as Tile)
    }

    /// Records (or clears) the provider of `area`.
    pub fn set(&mut self, area: usize, provider: Option<Tile>) {
        self.0[area] = match provider {
            Some(t) => {
                assert!(t < NO_PROPO as Tile, "tile {t} does not fit a one-byte ProPo");
                t as u8
            }
            None => NO_PROPO,
        };
    }

    /// Live providers, in area order.
    pub fn iter(&self) -> impl Iterator<Item = Tile> + '_ {
        self.0.iter().filter(|&&p| p != NO_PROPO).map(|&p| p as Tile)
    }

    /// Number of live providers.
    pub fn count(&self) -> u32 {
        self.iter().count() as u32
    }

    /// Slots as the wider `Option<u16>` they are saved and printed as.
    fn slots(&self) -> impl Iterator<Item = Option<u16>> + '_ {
        self.0.iter().map(|&p| (p != NO_PROPO).then_some(p as u16))
    }
}

impl Default for Propos {
    fn default() -> Self {
        Self::NONE
    }
}

impl std::fmt::Debug for Propos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.slots()).finish()
    }
}

/// A tile index in one byte, as the per-line pointers store it: L1C$
/// and L2C$ entries, sharer hints, and the directory's owner fields.
/// Every chip has at most [`MAX_TILES`] tiles, so the paper's
/// log2(n)-bit pointer fits, and `Option<TileId>` takes two bytes where
/// an `Option<Tile>` takes sixteen. Snapshots and `Debug` output spell
/// the value as the [`Tile`] it names.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TileId(u8);

impl TileId {
    /// `tile` as a one-byte id.
    #[inline]
    pub fn new(tile: Tile) -> Self {
        assert!(tile < MAX_TILES, "tile {tile} is past the {MAX_TILES}-tile limit");
        TileId(tile as u8)
    }

    /// The tile it names.
    #[inline]
    pub fn get(self) -> Tile {
        Tile::from(self.0)
    }
}

impl std::fmt::Debug for TileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// Identifies a protocol implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Flat directory with full-map sharing code and directory cache.
    Directory,
    /// Direct Coherence baseline.
    DiCo,
    /// DiCo-Providers (paper contribution 1).
    DiCoProviders,
    /// DiCo-Arin (paper contribution 2).
    DiCoArin,
}

impl ProtocolKind {
    /// All four, in the paper's reporting order.
    pub fn all() -> [ProtocolKind; 4] {
        [
            ProtocolKind::Directory,
            ProtocolKind::DiCo,
            ProtocolKind::DiCoProviders,
            ProtocolKind::DiCoArin,
        ]
    }

    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Directory => "Directory",
            ProtocolKind::DiCo => "DiCo",
            ProtocolKind::DiCoProviders => "DiCo-Providers",
            ProtocolKind::DiCoArin => "DiCo-Arin",
        }
    }

    /// The protocol whose [`name`](Self::name) matches `name`, ignoring
    /// ASCII case.
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::all().into_iter().find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// Cache access latencies (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// L1 tag array access.
    pub l1_tag: Cycle,
    /// L1 data array access.
    pub l1_data: Cycle,
    /// L2 tag array access.
    pub l2_tag: Cycle,
    /// L2 data array access.
    pub l2_data: Cycle,
}

impl Default for Latencies {
    fn default() -> Self {
        Self { l1_tag: 1, l1_data: 2, l2_tag: 2, l2_data: 3 }
    }
}

impl Latencies {
    /// L1 hit latency (tag + data).
    pub fn l1_hit(&self) -> Cycle {
        self.l1_tag + self.l1_data
    }

    /// Full L2 access latency (tag + data).
    pub fn l2_access(&self) -> Cycle {
        self.l2_tag + self.l2_data
    }
}

/// Static description of the simulated chip, shared by every protocol.
#[derive(Debug, Clone)]
pub struct ChipSpec {
    /// Area map (also fixes mesh dimensions and tile count).
    pub areas: AreaMap,
    /// L1 data cache geometry (per tile).
    pub l1: Geometry,
    /// L2 bank geometry (per tile; index skips the home-select bits).
    pub l2: Geometry,
    /// L1C$ geometry (2048 entries in the paper).
    pub aux: Geometry,
    /// Directory cache / L2C$ geometry (home-bank side: index skips the
    /// home-select bits).
    pub aux_home: Geometry,
    /// Cache latencies.
    pub lat: Latencies,
    /// Ablation: consult the L1C$ / line pointers to predict suppliers
    /// (true in the paper; false degrades every miss to the home path).
    pub enable_prediction: bool,
    /// Ablation: send the Figure-5 hint messages when ownership or
    /// providership moves.
    pub enable_hints: bool,
}

impl ChipSpec {
    /// The paper's configuration: 8x8 tiles, 4 areas, 128 KiB 4-way L1,
    /// 1 MiB 8-way L2 banks, 2048-entry auxiliary structures.
    pub fn paper() -> Self {
        Self::paper_with_areas(4)
    }

    /// The paper's chip divided into a different number of hard-wired
    /// areas (for the area-count trade-off and virtualization-density
    /// studies).
    pub fn paper_with_areas(num_areas: usize) -> Self {
        let shift = 6; // log2(64 tiles)
        Self {
            areas: AreaMap::new(8, 8, num_areas),
            l1: Geometry::from_capacity(128 * 1024, 64, 4),
            l2: Geometry::from_capacity(1024 * 1024, 64, 8).with_shift(shift),
            aux: Geometry::from_entries(2048, 4),
            aux_home: Geometry::from_entries(2048, 4).with_shift(shift),
            lat: Latencies::default(),
            enable_prediction: true,
            enable_hints: true,
        }
    }

    /// A tiny chip for protocol stress tests: 2x2 tiles, 2 areas, caches
    /// small enough that replacements and directory evictions are
    /// constantly exercised.
    pub fn tiny() -> Self {
        Self {
            areas: AreaMap::new(2, 2, 2),
            l1: Geometry::new(4, 2),
            l2: Geometry::new(8, 2).with_shift(2),
            aux: Geometry::new(4, 2),
            aux_home: Geometry::new(4, 2).with_shift(2),
            lat: Latencies::default(),
            enable_prediction: true,
            enable_hints: true,
        }
    }

    /// A 4x4-tile chip with 4 areas and small caches; the middle ground
    /// used by randomized cross-protocol tests.
    pub fn small() -> Self {
        Self {
            areas: AreaMap::new(4, 4, 4),
            l1: Geometry::new(8, 2),
            l2: Geometry::new(16, 4).with_shift(4),
            aux: Geometry::new(8, 2),
            aux_home: Geometry::new(8, 2).with_shift(4),
            lat: Latencies::default(),
            enable_prediction: true,
            enable_hints: true,
        }
    }

    /// Tile count.
    pub fn tiles(&self) -> usize {
        self.areas.tiles()
    }

    /// Number of areas.
    pub fn num_areas(&self) -> usize {
        self.areas.num_areas()
    }

    /// Home L2 bank for a block (low address bits, as in the paper).
    pub fn home_of(&self, block: Block) -> Tile {
        (block % self.tiles() as u64) as Tile
    }

    /// Area of a tile.
    pub fn area_of(&self, tile: Tile) -> usize {
        self.areas.area_of(tile)
    }
}

/// A protocol endpoint: an L1 cache or an L2 bank, in some tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// The L1 cache of a tile.
    L1(Tile),
    /// The L2 bank of a tile.
    L2(Tile),
}

impl Node {
    /// Mesh tile this endpoint lives in.
    pub fn tile(&self) -> Tile {
        match self {
            Node::L1(t) | Node::L2(t) => *t,
        }
    }
}

/// Who supplied the data for a miss — the paper's Figure 9b taxonomy
/// feeds off this plus the prediction outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Supplier {
    /// An owner L1 cache.
    OwnerL1,
    /// A provider L1 cache in the requestor's area.
    ProviderL1,
    /// The home L2 bank.
    HomeL2,
    /// Off-chip memory (through the home L2).
    Memory,
}

/// A coherence request (read or write miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqInfo {
    /// Tile whose L1 missed.
    pub requestor: Tile,
    /// Write (GetX) vs read (GetS).
    pub write: bool,
    /// L1 cache that forwarded this request toward the home, if any
    /// (DiCo-Arin uses it to refresh stale provider pointers).
    pub forwarder: Option<Tile>,
    /// True when the home L2 already redirected this request (suppresses
    /// a second trip through the home on the misprediction path).
    pub via_home: bool,
    /// True when the request was launched using an L1C$ prediction
    /// (cleared when re-routed through the home).
    pub predicted: bool,
    /// The home forwarded this request based on its owner pointer
    /// ("vouched"): the destination either is the owner, has the
    /// ownership en route (park the request), or has provably sent a
    /// loss notification (bounce back; the home holds until it lands).
    pub vouched: bool,
    /// L1-to-L1 forwards taken so far. DiCo's deadlock-avoidance bound:
    /// after [`MAX_CHASE_HOPS`] forwards the request is routed to the
    /// home instead of chasing possibly-stale owner pointers further.
    pub hops: u8,
}

/// Forwarding budget before a request must fall back to the home.
pub const MAX_CHASE_HOPS: u8 = 8;

/// Payload of a data response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataInfo {
    /// Grant exclusive (no other copies exist).
    pub exclusive: bool,
    /// Transfers ownership to the requestor.
    pub ownership: bool,
    /// Requestor must install the line in provider state (DiCo-Arin
    /// shared-between-areas fills; DiCo-Providers remote reads).
    pub make_provider: bool,
    /// Sharing code transferred with ownership (bit per tile-in-area or
    /// per chip tile depending on protocol).
    pub sharers: u64,
    /// Provider pointers transferred with ownership.
    pub propos: Propos,
    /// Identity of a known supplier for the requestor's L1C$ (e.g. the
    /// in-area provider the home L2 knows about).
    pub provider_hint: Option<Tile>,
    /// Sharer invalidation acks the requestor must collect (writes).
    pub acks_sharers: u32,
    /// Provider acks (each carrying its own sharer count) to collect.
    pub acks_providers: u32,
    /// This fill answers a write to a shared-between-areas block: the
    /// requestor must run DiCo-Arin's unblock broadcast on completion.
    pub sba_write: bool,
    /// The line is dirty with respect to memory.
    pub dirty: bool,
    /// Data version (write-serialization number, for checking).
    pub version: u64,
    /// Who supplied the data.
    pub supplier: Supplier,
}

impl DataInfo {
    /// A plain shared-data response carrying `version`.
    pub fn shared(version: u64, supplier: Supplier) -> Self {
        Self {
            exclusive: false,
            ownership: false,
            make_provider: false,
            sharers: 0,
            propos: Propos::NONE,
            provider_hint: None,
            acks_sharers: 0,
            acks_providers: 0,
            sba_write: false,
            dirty: false,
            version,
            supplier,
        }
    }
}

/// Every message the four protocols exchange. Unused variants for a given
/// protocol are simply never constructed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// Coherence request (GetS/GetX).
    Req(ReqInfo),
    /// Data response.
    Data(DataInfo),
    /// Invalidate a sharer; ack to `reply_to`.
    Inv {
        /// Collector of the ack (requestor L1, or home L2 for
        /// directory-eviction invalidations).
        reply_to: Node,
        /// Version of the data being invalidated. A cache with a read
        /// fill in flight uses it to discard a stale fill that was
        /// serialized before this invalidation (the DiCo family resolves
        /// reads without blocking the home, so a fill and an
        /// invalidation for the previous epoch can cross on the wire).
        version: u64,
    },
    /// Invalidate a provider and, transitively, the sharers of its area;
    /// the provider replies to `reply_to` with an `AckCount`.
    InvProvider {
        /// Collector of the acks.
        reply_to: Node,
    },
    /// Silent invalidation: kills a copy (cascading through a provider's
    /// tracked sharers) without any acknowledgement. Used when a
    /// provider pointer is repaired after a message crossing — the
    /// displaced provider's copy is current but about to become
    /// untracked, so it is simply destroyed (equivalent to forcing its
    /// eviction).
    InvSilent,
    /// Sharer invalidation acknowledgement.
    Ack,
    /// Provider acknowledgement carrying how many sharer acks its area
    /// will additionally produce.
    AckCount {
        /// Number of sharers the provider invalidated (their acks travel
        /// directly to the requestor).
        sharers: u32,
    },
    /// Registers a new owner at the home L2C$.
    ChangeOwner {
        /// Tile now holding the ownership.
        new_owner: Tile,
    },
    /// Home L2 acknowledgement of a `ChangeOwner` (ownership may move
    /// again only after this).
    ChangeOwnerAck,
    /// Registers a new provider for `area` at the owner (routed via the
    /// home L2, which forwards it when the owner is an L1).
    ChangeProvider {
        /// Area whose provider moved.
        area: u16,
        /// New provider tile.
        new_provider: Tile,
    },
    /// Owner acknowledgement of a `ChangeProvider`.
    ChangeProviderAck,
    /// A provider evicted its line and its area has no sharers left.
    NoProvider {
        /// Area that lost its provider.
        area: u16,
        /// The former provider (lets the owner ignore stale updates).
        former: Tile,
    },
    /// Replacement: ownership (+ sharing code, propos, data) moves to a
    /// sharer. `remaining` lists other candidate sharers to try when the
    /// target silently dropped its copy.
    OwnershipTransfer {
        /// Area-sharer (or chip-sharer) bit-vector being handed over.
        sharers: u64,
        /// Provider pointers handed over.
        propos: Propos,
        /// Dirty with respect to memory.
        dirty: bool,
        /// Version of the data.
        version: u64,
        /// Candidate sharers (bit-vector, same encoding as `sharers`)
        /// not yet tried.
        remaining: u64,
    },
    /// Replacement: providership (+ area sharing code) moves to a sharer.
    ProvidershipTransfer {
        /// Area-sharer bit-vector being handed over.
        sharers: u64,
        /// Candidates not yet tried.
        remaining: u64,
        /// The evicting provider (for owner bookkeeping).
        former: Tile,
    },
    /// Home L2C$ eviction: the owner must relinquish ownership to the
    /// home.
    OwnershipRecall,
    /// The recall reached a cache that is no longer the owner (the
    /// ownership is in flight); the home retries when it learns the new
    /// owner.
    RecallFailed,
    /// Ownership returns to the home L2 (replacement of an owner with no
    /// sharers, or answer to `OwnershipRecall`).
    OwnershipToHome {
        /// Dirty data travels with the message.
        dirty: bool,
        /// Data version.
        version: u64,
        /// Provider pointers returned to the home.
        propos: Propos,
        /// Area sharers (DiCo/DiCo-Arin: chip or area sharing code that
        /// the home keeps tracking).
        sharers: u64,
        /// The former owner stays on as provider of its area
        /// (L2C$-recall path of DiCo-Providers).
        former_stays_provider: bool,
    },
    /// Home acknowledgement of an `OwnershipToHome` writeback.
    WbAck,
    /// DiCo-Arin: a remote-area read dissolved the ownership; data and
    /// the former owner's identity park at the home L2, which becomes a
    /// provider-serving ordering point.
    SbaTransition {
        /// Dirty with respect to memory.
        dirty: bool,
        /// Data version.
        version: u64,
        /// Former owner (stays on as provider of its area).
        former: Tile,
        /// Tile whose read triggered the transition (becomes provider of
        /// its own area).
        reader: Tile,
    },
    /// Home acknowledgement of an `SbaTransition`.
    SbaAck,
    /// DiCo-Arin three-way invalidation, step 1: block and invalidate.
    BcastInv {
        /// Where acknowledgements must be sent.
        reply_to: Node,
    },
    /// Acknowledgement of a `BcastInv`.
    BcastAck,
    /// DiCo-Arin three-way invalidation, step 3: unblock.
    BcastUnblock,
    /// Collector of a broadcast invalidation tells the home it finished
    /// (write case; home then commits the new owner).
    BcastDone {
        /// The new owner (writer), or `None` for an L2-replacement
        /// invalidation.
        new_owner: Option<Tile>,
    },
    /// Off-chip memory response (synthesized by the driver, addressed to
    /// the home L2 bank that issued the fetch).
    MemData,
    /// Directory protocol: requestor signals transaction completion so
    /// the blocking home can serve the next queued request.
    Unblock {
        /// The requestor installed the line as owner (E/M) rather than
        /// as a sharer; the home updates its directory info accordingly.
        became_owner: bool,
    },
    /// Supplier-identity hint updating L1C$ predictions.
    Hint {
        /// The new supplier to predict.
        supplier: Tile,
    },
}

impl MsgKind {
    /// True when the message carries a cache block (5-flit packet).
    pub fn carries_data(&self) -> bool {
        match self {
            MsgKind::Data(_) | MsgKind::MemData | MsgKind::SbaTransition { .. } => true,
            MsgKind::OwnershipTransfer { .. } => true,
            MsgKind::OwnershipToHome { dirty, .. } => *dirty,
            _ => false,
        }
    }

    /// Short static name for traces and dumps.
    pub fn label(&self) -> &'static str {
        match self {
            MsgKind::Req(r) => {
                if r.write {
                    "GetX"
                } else {
                    "GetS"
                }
            }
            MsgKind::Data(_) => "Data",
            MsgKind::Inv { .. } => "Inv",
            MsgKind::InvProvider { .. } => "InvProvider",
            MsgKind::InvSilent => "InvSilent",
            MsgKind::Ack => "Ack",
            MsgKind::AckCount { .. } => "AckCount",
            MsgKind::ChangeOwner { .. } => "ChangeOwner",
            MsgKind::ChangeOwnerAck => "ChangeOwnerAck",
            MsgKind::ChangeProvider { .. } => "ChangeProvider",
            MsgKind::ChangeProviderAck => "ChangeProviderAck",
            MsgKind::NoProvider { .. } => "NoProvider",
            MsgKind::OwnershipTransfer { .. } => "OwnershipTransfer",
            MsgKind::ProvidershipTransfer { .. } => "ProvidershipTransfer",
            MsgKind::OwnershipRecall => "OwnershipRecall",
            MsgKind::RecallFailed => "RecallFailed",
            MsgKind::OwnershipToHome { .. } => "OwnershipToHome",
            MsgKind::WbAck => "WbAck",
            MsgKind::SbaTransition { .. } => "SbaTransition",
            MsgKind::SbaAck => "SbaAck",
            MsgKind::BcastInv { .. } => "BcastInv",
            MsgKind::BcastAck => "BcastAck",
            MsgKind::BcastUnblock => "BcastUnblock",
            MsgKind::BcastDone { .. } => "BcastDone",
            MsgKind::MemData => "MemData",
            MsgKind::Unblock { .. } => "Unblock",
            MsgKind::Hint { .. } => "Hint",
        }
    }
}

/// One coherence message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Msg {
    /// Payload.
    pub kind: MsgKind,
    /// Block the message concerns.
    pub block: Block,
    /// Sender endpoint.
    pub src: Node,
    /// Receiver endpoint.
    pub dst: Node,
}

/// Outgoing unicast with a local processing delay (cache access
/// latencies) before injection.
#[derive(Debug, Clone, Copy)]
pub struct OutMsg {
    /// The message.
    pub msg: Msg,
    /// Cycles of local work before the message enters the network.
    pub delay: Cycle,
}

/// Outgoing broadcast to every L1, optionally excluding one tile (the
/// write requestor in DiCo-Arin's three-way invalidation).
#[derive(Debug, Clone, Copy)]
pub struct OutBcast {
    /// Template; `dst` is filled per destination tile.
    pub kind: MsgKind,
    /// Block concerned.
    pub block: Block,
    /// Source endpoint.
    pub src: Node,
    /// Tile whose L1 must NOT receive the broadcast, if any.
    pub exclude: Option<Tile>,
    /// Cycles of local work before injection.
    pub delay: Cycle,
}

/// Memory operation issued by a home L2 bank.
#[derive(Debug, Clone, Copy)]
pub struct MemOp {
    /// Block.
    pub block: Block,
    /// Issuing home tile (responses come back to its L2).
    pub home: Tile,
    /// Write-back (no response) vs fetch (MemData response).
    pub is_write: bool,
    /// Local delay before the operation leaves the tile.
    pub delay: Cycle,
}

/// Classification of a completed L1 miss (paper Figure 9b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// Predicted; the predicted node was the owner and served it.
    PredictedOwnerHit,
    /// Predicted; the predicted node was an in-area provider and served
    /// it.
    PredictedProviderHit,
    /// Predicted, but the predicted node could not serve the request
    /// (re-routed through the home).
    PredictionFailed,
    /// Not predicted; the home L2 served the data itself.
    UnpredictedHome,
    /// Not predicted; the home forwarded to the supplier (3-hop).
    UnpredictedForwarded,
    /// Data came from off-chip memory.
    Memory,
}

impl MissClass {
    /// All six categories, report order.
    pub fn all() -> [MissClass; 6] {
        [
            MissClass::PredictedOwnerHit,
            MissClass::PredictedProviderHit,
            MissClass::PredictionFailed,
            MissClass::UnpredictedHome,
            MissClass::UnpredictedForwarded,
            MissClass::Memory,
        ]
    }

    /// All six categories, ordered by [`MissClass::label`].
    const BY_LABEL: [MissClass; 6] = [
        MissClass::Memory,
        MissClass::PredictionFailed,
        MissClass::PredictedOwnerHit,
        MissClass::PredictedProviderHit,
        MissClass::UnpredictedForwarded,
        MissClass::UnpredictedHome,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            MissClass::PredictedOwnerHit => "pred-owner-hit",
            MissClass::PredictedProviderHit => "pred-provider-hit",
            MissClass::PredictionFailed => "pred-failed",
            MissClass::UnpredictedHome => "unpred-home",
            MissClass::UnpredictedForwarded => "unpred-forwarded",
            MissClass::Memory => "memory",
        }
    }
}

/// A finished miss, handed back to the driver so it can resume the core.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Tile whose core resumes.
    pub tile: Tile,
    /// Block that was missing.
    pub block: Block,
    /// Extra cycles before the core restarts (fill latency).
    pub delay: Cycle,
}

/// Per-call output channel between a protocol and its driver.
#[derive(Debug, Default)]
pub struct Ctx {
    /// Current cycle.
    pub now: Cycle,
    /// Unicasts to inject.
    pub sends: Vec<OutMsg>,
    /// Broadcasts to inject (DiCo-Arin only).
    pub bcasts: Vec<OutBcast>,
    /// Messages to re-handle immediately (drained pending queues).
    pub replays: Vec<Msg>,
    /// Completed misses.
    pub completions: Vec<Completion>,
    /// Memory fetches/writebacks.
    pub mem_ops: Vec<MemOp>,
}

impl Ctx {
    /// Fresh context for one dispatch at `now`.
    pub fn at(now: Cycle) -> Self {
        Self { now, ..Default::default() }
    }

    /// Re-arms a pooled context for the next dispatch at `now`, keeping
    /// every buffer's capacity. The driver lends one `Ctx` in place to
    /// every dispatch and reads its buffers without draining them, so
    /// this is where the previous dispatch's output is cleared and the
    /// hot path never allocates.
    pub fn reset(&mut self, now: Cycle) {
        self.now = now;
        self.sends.clear();
        self.bcasts.clear();
        self.replays.clear();
        self.completions.clear();
        self.mem_ops.clear();
    }

    /// Queues a unicast.
    pub fn send(&mut self, msg: Msg, delay: Cycle) {
        self.sends.push(OutMsg { msg, delay });
    }

    /// Queues a broadcast from `src` to every L1 except `exclude`.
    pub fn broadcast(
        &mut self,
        kind: MsgKind,
        block: Block,
        src: Node,
        exclude: Option<Tile>,
        delay: Cycle,
    ) {
        self.bcasts.push(OutBcast { kind, block, src, exclude, delay });
    }

    /// Queues an immediate replay of `msg` (dispatch again after queue
    /// release).
    pub fn replay(&mut self, msg: Msg) {
        self.replays.push(msg);
    }

    /// Reports a completed miss.
    pub fn complete(&mut self, tile: Tile, block: Block, delay: Cycle) {
        self.completions.push(Completion { tile, block, delay });
    }

    /// Issues a memory fetch for `block` from `home`.
    pub fn mem_read(&mut self, block: Block, home: Tile, delay: Cycle) {
        self.mem_ops.push(MemOp { block, home, is_write: false, delay });
    }

    /// Issues a memory write-back for `block` from `home`.
    pub fn mem_write(&mut self, block: Block, home: Tile, delay: Cycle) {
        self.mem_ops.push(MemOp { block, home, is_write: true, delay });
    }
}

/// Outcome of a core load/store presented to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Served locally; core resumes after `latency`.
    Hit {
        /// L1 access latency.
        latency: Cycle,
    },
    /// A transaction was started; a [`Completion`] will arrive later.
    Miss,
    /// The block is temporarily locked; the core must retry shortly.
    Blocked {
        /// What the core is waiting on (feeds the attribution
        /// profiler's pre-issue wait accounting).
        reason: BlockReason,
    },
}

/// Why an access could not issue (the [`AccessOutcome::Blocked`] cause).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// The tile's MSHR already tracks a miss on this block.
    MshrConflict,
    /// The block is locked by an in-flight coherence action (busy
    /// queue entry or a broadcast invalidation in progress).
    BusyBlock,
}

/// Event counts every protocol maintains; the power model turns these
/// into energy and the reports into Figures 7/8/9.
#[derive(Debug, Clone, Default)]
pub struct ProtoStats {
    /// L1 tag array accesses (incl. probes by remote requests).
    pub l1_tag: Counter,
    /// L1 data array reads (hits + supplying data).
    pub l1_data_read: Counter,
    /// L1 data array writes (fills + store hits).
    pub l1_data_write: Counter,
    /// L2 tag array accesses.
    pub l2_tag: Counter,
    /// L2 data array reads.
    pub l2_data_read: Counter,
    /// L2 data array writes.
    pub l2_data_write: Counter,
    /// Directory-cache accesses (flat directory only).
    pub dir_access: Counter,
    /// L1C$ accesses (DiCo family).
    pub l1c_access: Counter,
    /// L2C$ accesses (DiCo family).
    pub l2c_access: Counter,
    /// Core loads+stores presented to the L1.
    pub accesses: Counter,
    /// L1 hits.
    pub l1_hits: Counter,
    /// L1 misses (transactions started).
    pub l1_misses: Counter,
    /// Store misses/upgrades among the above.
    pub write_misses: Counter,
    /// Invalidation messages sent (unicast).
    pub invalidations: Counter,
    /// Broadcast invalidation rounds (DiCo-Arin).
    pub broadcast_invs: Counter,
    /// L1 replacements that required a transaction.
    pub l1_repl_transactions: Counter,
    /// L2/directory evictions that invalidated L1 copies.
    pub l2_evictions: Counter,
    /// Memory fetches.
    pub mem_reads: Counter,
    /// Memory writebacks.
    pub mem_writes: Counter,
    /// Misses launched on an owner/provider prediction (L1C$ or line
    /// pointer chose a destination other than the home); counted at
    /// miss completion from the Figure-9b classification.
    pub pred_lookups: Counter,
    /// Predictions whose target served the miss directly (the two
    /// predicted-hit classes).
    pub pred_hits: Counter,
    /// Home-side ordering-structure lookups (directory cache, or the
    /// L2C$ owner cache in the DiCo family).
    pub home_lookups: Counter,
    /// Home-side lookups that found the entry cached on-chip.
    pub home_hits: Counter,
    /// Request retransmissions issued by the timeout/retry recovery
    /// layer (nonzero only under fault injection).
    pub retries: Counter,
    /// MSHR request timeouts that fired on a live (uncompleted) miss
    /// (nonzero only under fault injection).
    pub timeouts: Counter,
    /// Deliveries suppressed by the idempotent-receive duplicate filter
    /// (nonzero only under fault injection).
    pub dedup_drops: Counter,
    /// Miss latency distribution (summary).
    pub miss_latency: Running,
    /// Miss latency distribution (log2 histogram, for percentiles).
    pub miss_latency_hist: Log2Hist,
    /// Figure 9b: completed misses per class, indexed by [`MissClass`]
    /// (see [`ProtoStats::class_count`]).
    pub miss_class: [u64; 6],
}

impl ProtoStats {
    /// Records a classified, completed miss with its latency. The
    /// prediction counters feed off the classification: the three
    /// `Predicted*`/`PredictionFailed` classes are exactly the misses
    /// that launched using an L1C$/line-pointer prediction.
    pub fn record_miss(&mut self, class: MissClass, latency: Cycle) {
        self.miss_latency.record(latency);
        self.miss_latency_hist.record(latency);
        self.miss_class[class as usize] += 1;
        match class {
            MissClass::PredictedOwnerHit | MissClass::PredictedProviderHit => {
                self.pred_lookups.inc();
                self.pred_hits.inc();
            }
            MissClass::PredictionFailed => self.pred_lookups.inc(),
            _ => {}
        }
    }

    /// Count for one Figure-9b class.
    pub fn class_count(&self, class: MissClass) -> u64 {
        self.miss_class[class as usize]
    }

    /// The classes with at least one miss and their counts, in label
    /// order (the order metrics and snapshot images list them in).
    fn recorded_classes(&self) -> impl Iterator<Item = (MissClass, u64)> + '_ {
        MissClass::BY_LABEL.into_iter().map(|c| (c, self.class_count(c))).filter(|&(_, n)| n > 0)
    }

    /// Prediction hit rate over the measured window (`None` when the
    /// protocol made no predictions — e.g. the flat directory).
    pub fn pred_hit_rate(&self) -> Option<f64> {
        let n = self.pred_lookups.get();
        (n > 0).then(|| self.pred_hits.get() as f64 / n as f64)
    }

    /// Home ordering-structure (directory cache / L2C$) hit rate.
    pub fn home_hit_rate(&self) -> Option<f64> {
        let n = self.home_lookups.get();
        (n > 0).then(|| self.home_hits.get() as f64 / n as f64)
    }
}

impl MetricSource for ProtoStats {
    fn publish(&self, prefix: &str, reg: &mut MetricsRegistry) {
        let c = [
            ("l1_tag", &self.l1_tag),
            ("l1_data_read", &self.l1_data_read),
            ("l1_data_write", &self.l1_data_write),
            ("l2_tag", &self.l2_tag),
            ("l2_data_read", &self.l2_data_read),
            ("l2_data_write", &self.l2_data_write),
            ("dir_access", &self.dir_access),
            ("l1c_access", &self.l1c_access),
            ("l2c_access", &self.l2c_access),
            ("accesses", &self.accesses),
            ("l1_hits", &self.l1_hits),
            ("l1_misses", &self.l1_misses),
            ("write_misses", &self.write_misses),
            ("invalidations", &self.invalidations),
            ("broadcast_invs", &self.broadcast_invs),
            ("l1_repl_transactions", &self.l1_repl_transactions),
            ("l2_evictions", &self.l2_evictions),
            ("mem_reads", &self.mem_reads),
            ("mem_writes", &self.mem_writes),
            ("pred_lookups", &self.pred_lookups),
            ("pred_hits", &self.pred_hits),
            ("home_lookups", &self.home_lookups),
            ("home_hits", &self.home_hits),
            ("retries", &self.retries),
            ("timeouts", &self.timeouts),
            ("dedup_drops", &self.dedup_drops),
        ];
        for (name, counter) in c {
            reg.set_counter(&format!("{prefix}.{name}"), counter.get());
        }
        if let Some(r) = self.pred_hit_rate() {
            reg.set_gauge(&format!("{prefix}.pred_hit_rate"), r);
        }
        if let Some(r) = self.home_hit_rate() {
            reg.set_gauge(&format!("{prefix}.home_hit_rate"), r);
        }
        reg.merge_hist(&format!("{prefix}.miss_latency"), &self.miss_latency_hist);
        for (class, n) in self.recorded_classes() {
            reg.set_counter(&format!("{prefix}.miss_class.{}", class.label()), n);
        }
    }
}

/// Cache-line occupancy snapshot (valid lines vs capacity), sampled by
/// the interval time-series. `aux` covers the protocol's auxiliary
/// structure: the directory cache, or L1C$+L2C$ for the DiCo family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Valid L1 lines across all tiles.
    pub l1_lines: u64,
    /// Total L1 capacity in lines.
    pub l1_capacity: u64,
    /// Valid L2 lines across all banks.
    pub l2_lines: u64,
    /// Total L2 capacity in lines.
    pub l2_capacity: u64,
    /// Valid entries in auxiliary structures.
    pub aux_lines: u64,
    /// Total auxiliary capacity in entries.
    pub aux_capacity: u64,
}

/// Sums resident lines and total capacity over per-tile cache arrays
/// (helper for [`CoherenceProtocol::occupancy`] implementations).
pub fn occupancy_of<T>(arrays: &[cmpsim_cache::SetAssoc<T>]) -> (u64, u64) {
    arrays.iter().fold((0, 0), |(l, c), a| (l + a.len() as u64, c + a.capacity() as u64))
}

/// Every block in the per-tile cache `arrays` (helper for
/// [`CoherenceProtocol::blocks`] implementations).
pub fn blocks_in<T>(arrays: &[cmpsim_cache::SetAssoc<T>]) -> impl Iterator<Item = Block> + '_ {
    arrays.iter().flat_map(|a| a.iter().map(|(block, _)| block))
}

impl Occupancy {
    fn frac(lines: u64, cap: u64) -> f64 {
        if cap == 0 {
            0.0
        } else {
            lines as f64 / cap as f64
        }
    }

    /// L1 fill fraction in `[0, 1]`.
    pub fn l1_frac(&self) -> f64 {
        Self::frac(self.l1_lines, self.l1_capacity)
    }

    /// L2 fill fraction in `[0, 1]`.
    pub fn l2_frac(&self) -> f64 {
        Self::frac(self.l2_lines, self.l2_capacity)
    }

    /// Auxiliary-structure fill fraction in `[0, 1]`.
    pub fn aux_frac(&self) -> f64 {
        Self::frac(self.aux_lines, self.aux_capacity)
    }
}

/// A fatal protocol-state inconsistency detected during dispatch: a
/// message arrived that the receiving controller's state machine has no
/// transition for (e.g. a data fill without an allocated MSHR, or a
/// completion signal with no matching transaction).
///
/// These used to be `panic!`s inside the protocol crates; they are now
/// typed so the driver can abort gracefully, attach the chip-wide
/// diagnostic dump, and emit a replay artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Protocol that faulted.
    pub protocol: ProtocolKind,
    /// Endpoint whose controller had no transition for the event.
    pub at: Node,
    /// Block the offending event concerned.
    pub block: Block,
    /// What happened, e.g. `"fill without MSHR"` or
    /// `"unexpected message Ack"`.
    pub what: String,
}

impl ProtoError {
    /// A fault at `at` concerning `block`.
    pub fn new(protocol: ProtocolKind, at: Node, block: Block, what: impl Into<String>) -> Self {
        Self { protocol, at, block, what: what.into() }
    }

    /// The standard "this controller has no transition for this message"
    /// fault.
    pub fn unexpected(protocol: ProtocolKind, msg: &Msg) -> Self {
        Self::new(
            protocol,
            msg.dst,
            msg.block,
            format!("unexpected message {:?} from {:?}", msg.kind, msg.src),
        )
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} protocol fault at {:?}, block {:#x}: {}",
            self.protocol.name(),
            self.at,
            self.block,
            self.what
        )
    }
}

impl std::error::Error for ProtoError {}

/// The interface every protocol implements; the driver in `cmpsim` (and
/// the in-crate test harness) is written against this.
pub trait CoherenceProtocol {
    /// Which protocol this is.
    fn kind(&self) -> ProtocolKind;
    /// Chip description.
    fn spec(&self) -> &ChipSpec;
    /// A core load (`write == false`) or store presented to its L1.
    ///
    /// `Err` means the L1 controller's state machine hit an
    /// inconsistency; the simulation cannot continue.
    fn core_access(
        &mut self,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        write: bool,
    ) -> Result<AccessOutcome, ProtoError>;
    /// A delivered message.
    ///
    /// `Err` means the receiving controller had no transition for the
    /// message; the simulation cannot continue.
    fn handle(&mut self, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError>;
    /// Statistics.
    fn stats(&self) -> &ProtoStats;
    /// Mutable statistics — lets the driver charge transport-layer
    /// recovery events (request retries, timeouts, duplicate
    /// suppressions) to the protocol's counters so they publish through
    /// the same registry as every other protocol event.
    fn stats_mut(&mut self) -> &mut ProtoStats;
    /// Clears statistics (used after simulation warm-up).
    fn reset_stats(&mut self);
    /// True when no transaction is in flight anywhere in the chip
    /// (used by tests to know when invariants must hold exactly).
    fn quiescent(&self) -> bool;
    /// The invariant checker's view of `block`: each tile's L1 copy,
    /// the home bank's entry, its versions and its recorded sharers.
    fn block_view(&self, block: Block) -> crate::checker::BlockView;
    /// Every block that an L1, an L2 bank, an L2C$/directory cache or
    /// the authority holds, ascending: the blocks the whole-chip check
    /// walks.
    fn blocks(&self) -> Vec<Block>;
    /// The write-serialization authority: every block's latest
    /// committed version. Cheaper than [`Self::block_view`] when only
    /// versions are needed (the simulator's architectural digest).
    fn authority(&self) -> &VersionAuthority;
    /// Human-readable dump of in-flight transaction state, used by the
    /// test harness when a run fails to drain.
    fn pending_summary(&self) -> String {
        String::new()
    }
    /// Current cache-line occupancy (sampled by the interval
    /// time-series). The default reports nothing, so test harness
    /// protocols need not implement it.
    fn occupancy(&self) -> Occupancy {
        Occupancy::default()
    }
    /// Serializes every mutable field (caches, MSHRs, ordering-point
    /// transactions, statistics). The immutable [`ChipSpec`] is identity,
    /// not state: the restorer rebuilds the protocol from the same config
    /// and then calls [`CoherenceProtocol::load_state`].
    fn save_state(&self, w: &mut cmpsim_engine::SnapWriter);
    /// Restores state written by [`CoherenceProtocol::save_state`] into a
    /// freshly-built protocol of the same kind and spec.
    fn load_state(
        &mut self,
        r: &mut cmpsim_engine::SnapReader<'_>,
    ) -> Result<(), cmpsim_engine::SnapError>;
}

// ------------------------------------------------------------- snapshots

use cmpsim_engine::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Node {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Node::L1(t) => {
                w.u8(0);
                t.save(w);
            }
            Node::L2(t) => {
                w.u8(1);
                t.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Node::L1(Snap::load(r)?)),
            1 => Ok(Node::L2(Snap::load(r)?)),
            tag => Err(SnapError::BadTag { what: "Node", tag }),
        }
    }
}

impl Snap for Propos {
    fn save(&self, w: &mut SnapWriter) {
        for slot in self.slots() {
            slot.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut p = Propos::NONE;
        for area in 0..MAX_AREAS {
            if let Some(t) = Option::<u16>::load(r)? {
                if t >= NO_PROPO as u16 {
                    return Err(SnapError::Corrupt("ProPo tile out of range"));
                }
                p.set(area, Some(t as Tile));
            }
        }
        Ok(p)
    }
}

impl Snap for TileId {
    fn save(&self, w: &mut SnapWriter) {
        self.get().save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match Tile::load(r)? {
            t if t < MAX_TILES => Ok(TileId(t as u8)),
            _ => Err(SnapError::Corrupt("tile id past the tile limit")),
        }
    }
}

impl Snap for Supplier {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            Supplier::OwnerL1 => 0,
            Supplier::ProviderL1 => 1,
            Supplier::HomeL2 => 2,
            Supplier::Memory => 3,
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Supplier::OwnerL1),
            1 => Ok(Supplier::ProviderL1),
            2 => Ok(Supplier::HomeL2),
            3 => Ok(Supplier::Memory),
            tag => Err(SnapError::BadTag { what: "Supplier", tag }),
        }
    }
}

cmpsim_engine::impl_snap!(ReqInfo {
    requestor,
    write,
    forwarder,
    via_home,
    predicted,
    vouched,
    hops,
});

cmpsim_engine::impl_snap!(DataInfo {
    exclusive,
    ownership,
    make_provider,
    sharers,
    propos,
    provider_hint,
    acks_sharers,
    acks_providers,
    sba_write,
    dirty,
    version,
    supplier,
});

impl Snap for MsgKind {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            MsgKind::Req(req) => {
                w.u8(0);
                req.save(w);
            }
            MsgKind::Data(d) => {
                w.u8(1);
                d.save(w);
            }
            MsgKind::Inv { reply_to, version } => {
                w.u8(2);
                reply_to.save(w);
                version.save(w);
            }
            MsgKind::InvProvider { reply_to } => {
                w.u8(3);
                reply_to.save(w);
            }
            MsgKind::InvSilent => w.u8(4),
            MsgKind::Ack => w.u8(5),
            MsgKind::AckCount { sharers } => {
                w.u8(6);
                sharers.save(w);
            }
            MsgKind::ChangeOwner { new_owner } => {
                w.u8(7);
                new_owner.save(w);
            }
            MsgKind::ChangeOwnerAck => w.u8(8),
            MsgKind::ChangeProvider { area, new_provider } => {
                w.u8(9);
                area.save(w);
                new_provider.save(w);
            }
            MsgKind::ChangeProviderAck => w.u8(10),
            MsgKind::NoProvider { area, former } => {
                w.u8(11);
                area.save(w);
                former.save(w);
            }
            MsgKind::OwnershipTransfer { sharers, propos, dirty, version, remaining } => {
                w.u8(12);
                sharers.save(w);
                propos.save(w);
                dirty.save(w);
                version.save(w);
                remaining.save(w);
            }
            MsgKind::ProvidershipTransfer { sharers, remaining, former } => {
                w.u8(13);
                sharers.save(w);
                remaining.save(w);
                former.save(w);
            }
            MsgKind::OwnershipRecall => w.u8(14),
            MsgKind::RecallFailed => w.u8(15),
            MsgKind::OwnershipToHome { dirty, version, propos, sharers, former_stays_provider } => {
                w.u8(16);
                dirty.save(w);
                version.save(w);
                propos.save(w);
                sharers.save(w);
                former_stays_provider.save(w);
            }
            MsgKind::WbAck => w.u8(17),
            MsgKind::SbaTransition { dirty, version, former, reader } => {
                w.u8(18);
                dirty.save(w);
                version.save(w);
                former.save(w);
                reader.save(w);
            }
            MsgKind::SbaAck => w.u8(19),
            MsgKind::BcastInv { reply_to } => {
                w.u8(20);
                reply_to.save(w);
            }
            MsgKind::BcastAck => w.u8(21),
            MsgKind::BcastUnblock => w.u8(22),
            MsgKind::BcastDone { new_owner } => {
                w.u8(23);
                new_owner.save(w);
            }
            MsgKind::MemData => w.u8(24),
            MsgKind::Unblock { became_owner } => {
                w.u8(25);
                became_owner.save(w);
            }
            MsgKind::Hint { supplier } => {
                w.u8(26);
                supplier.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => MsgKind::Req(Snap::load(r)?),
            1 => MsgKind::Data(Snap::load(r)?),
            2 => MsgKind::Inv { reply_to: Snap::load(r)?, version: Snap::load(r)? },
            3 => MsgKind::InvProvider { reply_to: Snap::load(r)? },
            4 => MsgKind::InvSilent,
            5 => MsgKind::Ack,
            6 => MsgKind::AckCount { sharers: Snap::load(r)? },
            7 => MsgKind::ChangeOwner { new_owner: Snap::load(r)? },
            8 => MsgKind::ChangeOwnerAck,
            9 => MsgKind::ChangeProvider { area: Snap::load(r)?, new_provider: Snap::load(r)? },
            10 => MsgKind::ChangeProviderAck,
            11 => MsgKind::NoProvider { area: Snap::load(r)?, former: Snap::load(r)? },
            12 => MsgKind::OwnershipTransfer {
                sharers: Snap::load(r)?,
                propos: Snap::load(r)?,
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
                remaining: Snap::load(r)?,
            },
            13 => MsgKind::ProvidershipTransfer {
                sharers: Snap::load(r)?,
                remaining: Snap::load(r)?,
                former: Snap::load(r)?,
            },
            14 => MsgKind::OwnershipRecall,
            15 => MsgKind::RecallFailed,
            16 => MsgKind::OwnershipToHome {
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
                propos: Snap::load(r)?,
                sharers: Snap::load(r)?,
                former_stays_provider: Snap::load(r)?,
            },
            17 => MsgKind::WbAck,
            18 => MsgKind::SbaTransition {
                dirty: Snap::load(r)?,
                version: Snap::load(r)?,
                former: Snap::load(r)?,
                reader: Snap::load(r)?,
            },
            19 => MsgKind::SbaAck,
            20 => MsgKind::BcastInv { reply_to: Snap::load(r)? },
            21 => MsgKind::BcastAck,
            22 => MsgKind::BcastUnblock,
            23 => MsgKind::BcastDone { new_owner: Snap::load(r)? },
            24 => MsgKind::MemData,
            25 => MsgKind::Unblock { became_owner: Snap::load(r)? },
            26 => MsgKind::Hint { supplier: Snap::load(r)? },
            tag => return Err(SnapError::BadTag { what: "MsgKind", tag }),
        })
    }
}

cmpsim_engine::impl_snap!(Msg { kind, block, src, dst });

impl Snap for ProtoStats {
    fn save(&self, w: &mut SnapWriter) {
        self.l1_tag.save(w);
        self.l1_data_read.save(w);
        self.l1_data_write.save(w);
        self.l2_tag.save(w);
        self.l2_data_read.save(w);
        self.l2_data_write.save(w);
        self.dir_access.save(w);
        self.l1c_access.save(w);
        self.l2c_access.save(w);
        self.accesses.save(w);
        self.l1_hits.save(w);
        self.l1_misses.save(w);
        self.write_misses.save(w);
        self.invalidations.save(w);
        self.broadcast_invs.save(w);
        self.l1_repl_transactions.save(w);
        self.l2_evictions.save(w);
        self.mem_reads.save(w);
        self.mem_writes.save(w);
        self.pred_lookups.save(w);
        self.pred_hits.save(w);
        self.home_lookups.save(w);
        self.home_hits.save(w);
        self.retries.save(w);
        self.timeouts.save(w);
        self.dedup_drops.save(w);
        self.miss_latency.save(w);
        self.miss_latency_hist.save(w);
        // Classes are spelled by their Figure-9b labels, nonzero ones
        // only, in label order: the bytes of the label-keyed map this
        // array replaced.
        w.len_prefix(self.recorded_classes().count());
        for (class, n) in self.recorded_classes() {
            class.label().to_string().save(w);
            n.save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut s = ProtoStats {
            l1_tag: Snap::load(r)?,
            l1_data_read: Snap::load(r)?,
            l1_data_write: Snap::load(r)?,
            l2_tag: Snap::load(r)?,
            l2_data_read: Snap::load(r)?,
            l2_data_write: Snap::load(r)?,
            dir_access: Snap::load(r)?,
            l1c_access: Snap::load(r)?,
            l2c_access: Snap::load(r)?,
            accesses: Snap::load(r)?,
            l1_hits: Snap::load(r)?,
            l1_misses: Snap::load(r)?,
            write_misses: Snap::load(r)?,
            invalidations: Snap::load(r)?,
            broadcast_invs: Snap::load(r)?,
            l1_repl_transactions: Snap::load(r)?,
            l2_evictions: Snap::load(r)?,
            mem_reads: Snap::load(r)?,
            mem_writes: Snap::load(r)?,
            pred_lookups: Snap::load(r)?,
            pred_hits: Snap::load(r)?,
            home_lookups: Snap::load(r)?,
            home_hits: Snap::load(r)?,
            retries: Snap::load(r)?,
            timeouts: Snap::load(r)?,
            dedup_drops: Snap::load(r)?,
            miss_latency: Snap::load(r)?,
            miss_latency_hist: Snap::load(r)?,
            miss_class: [0; 6],
        };
        let n = r.len_prefix("ProtoStats.miss_class", 1)?;
        let mut last: Option<MissClass> = None;
        for _ in 0..n {
            let label = String::load(r)?;
            let count = u64::load(r)?;
            let class = MissClass::all()
                .into_iter()
                .find(|c| c.label() == label)
                .ok_or(SnapError::Corrupt("unknown miss-class label"))?;
            if last.is_some_and(|prev| prev.label() >= class.label()) {
                return Err(SnapError::Corrupt("miss-class labels out of order or repeated"));
            }
            if count == 0 {
                return Err(SnapError::Corrupt("miss class recorded with no misses"));
            }
            last = Some(class);
            s.miss_class[class as usize] = count;
        }
        Ok(s)
    }
}

cmpsim_engine::impl_snap!(BlockQueues { busy, pending });

// Version maps keep the image of the `FxHashMap<u64, u64>` they were:
// `(block, version)` pairs ascending by block, each half a `u64`. An
// entry that does not fit the 32-bit halves is refused.
fn save_versions(map: &FxHashMap<u32, u32>, w: &mut SnapWriter) {
    let mut pairs: Vec<(u32, u32)> = map.iter().map(|(&b, &v)| (b, v)).collect();
    pairs.sort_unstable();
    w.len_prefix(pairs.len());
    for (block, version) in pairs {
        w.u64(u64::from(block));
        w.u64(u64::from(version));
    }
}

fn load_versions(r: &mut SnapReader<'_>) -> Result<FxHashMap<u32, u32>, SnapError> {
    let n = r.len_prefix("FxHashMap", 2)?;
    let mut map = FxHashMap::default();
    map.reserve(n);
    for _ in 0..n {
        let block = u32::try_from(r.u64()?);
        let version = u32::try_from(r.u64()?);
        let (Ok(block), Ok(version)) = (block, version) else {
            return Err(SnapError::Corrupt("version-map entry does not fit 32 bits"));
        };
        map.insert(block, version);
    }
    Ok(map)
}

impl Snap for VersionAuthority {
    fn save(&self, w: &mut SnapWriter) {
        save_versions(&self.latest, w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { latest: load_versions(r)? })
    }
}

impl Snap for MemoryImage {
    fn save(&self, w: &mut SnapWriter) {
        save_versions(&self.versions, w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { versions: load_versions(r)? })
    }
}

/// State a protocol keeps with one entry per tile, checked against the
/// chip when a snapshot is restored.
pub(crate) trait PerTile {
    /// Entries held, or `None` for state that is not kept per tile.
    fn tile_entries(&self) -> Option<usize>;
}

impl<T> PerTile for Vec<T> {
    fn tile_entries(&self) -> Option<usize> {
        Some(self.len())
    }
}

/// Expands to the [`CoherenceProtocol::save_state`] /
/// [`CoherenceProtocol::load_state`] method pair over the listed fields
/// (every mutable field, in declaration order; the immutable `ChipSpec`
/// is identity and is supplied again by the restorer's constructor).
/// The fields after `per_tile:` are indexed by tile: a restored one
/// that does not hold one entry per tile fails closed.
macro_rules! snap_state_methods {
    ($($field:ident),+ ; per_tile: $($tiled:ident),+ $(,)?) => {
        fn save_state(&self, w: &mut cmpsim_engine::SnapWriter) {
            $( cmpsim_engine::Snap::save(&self.$field, w); )+
        }

        fn load_state(
            &mut self,
            r: &mut cmpsim_engine::SnapReader<'_>,
        ) -> Result<(), cmpsim_engine::SnapError> {
            $( self.$field = cmpsim_engine::Snap::load(r)?; )+
            let tiles = self.spec.tiles();
            $(
                if crate::common::PerTile::tile_entries(&self.$tiled).is_some_and(|n| n != tiles) {
                    return Err(cmpsim_engine::SnapError::Corrupt(concat!(
                        "per-tile `",
                        stringify!($tiled),
                        "` state does not have one entry per tile"
                    )));
                }
            )+
            Ok(())
        }
    };
}
pub(crate) use snap_state_methods;

/// Asserts that restoring state saved with any of the listed per-tile
/// vectors one entry short fails closed as a corrupt snapshot.
#[cfg(test)]
macro_rules! assert_restore_checks_per_tile {
    ($new:expr; $($($field:ident).+),+ $(,)?) => {$({
        use crate::common::CoherenceProtocol as _;
        let mut short = $new;
        short.$($field).+.pop().expect("per-tile state is non-empty");
        let mut w = cmpsim_engine::SnapWriter::new();
        short.save_state(&mut w);
        let bytes = w.into_bytes();
        let field = stringify!($($field).+);
        match $new.load_state(&mut cmpsim_engine::SnapReader::new(&bytes)) {
            Err(e @ cmpsim_engine::SnapError::Corrupt(_)) => {
                assert!(e.to_string().contains("one entry per tile"), "{field}: {e}")
            }
            Err(e) => panic!("{field}: expected a corrupt-snapshot error, got {e}"),
            Ok(()) => panic!("state with a short per-tile `{field}` was restored"),
        }
    })+};
}
#[cfg(test)]
pub(crate) use assert_restore_checks_per_tile;

/// Per-block busy flags with FIFO pending queues — the transaction
/// serialization device used at every ordering point.
#[derive(Debug, Clone, Default)]
pub struct BlockQueues {
    busy: FxHashSet<Block>,
    pending: FxHashMap<Block, VecDeque<Msg>>,
}

impl BlockQueues {
    /// True when `block` has an in-flight transaction here.
    pub fn is_busy(&self, block: Block) -> bool {
        self.busy.contains(&block)
    }

    /// Marks `block` busy.
    pub fn set_busy(&mut self, block: Block) {
        self.busy.insert(block);
    }

    /// Appends a message to the pending queue of its (busy) block.
    pub fn enqueue(&mut self, msg: Msg) {
        self.pending.entry(msg.block).or_default().push_back(msg);
    }

    /// Clears the busy flag and drains pending messages (FIFO) for
    /// replay.
    pub fn release(&mut self, block: Block) -> Vec<Msg> {
        self.busy.remove(&block);
        self.pending.remove(&block).map(|q| q.into_iter().collect()).unwrap_or_default()
    }

    /// True when neither busy flags nor queued messages exist.
    pub fn idle(&self) -> bool {
        self.busy.is_empty() && self.pending.iter().all(|(_, q)| q.is_empty())
    }

    /// Number of busy blocks (diagnostics).
    pub fn busy_count(&self) -> usize {
        self.busy.len()
    }

    /// Blocks with queued messages and their counts, address-ordered
    /// (diagnostics; the backing map iterates in unspecified order).
    pub fn pending_counts(&self) -> Vec<(Block, usize)> {
        let mut counts: Vec<(Block, usize)> = self
            .pending
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(b, q)| (*b, q.len()))
            .collect();
        counts.sort_unstable_by_key(|&(b, _)| b);
        counts
    }
}

/// The most tiles a chip may have: sharing codes hold one bit per tile
/// in a `u64`.
pub const MAX_TILES: usize = 64;

/// Bit mask for one tile in a sharing code.
#[inline]
pub fn bit(t: Tile) -> u64 {
    1u64 << t
}

/// Tiles set in a sharing code, ascending.
pub fn iter_bits(mut v: u64) -> impl Iterator<Item = Tile> {
    std::iter::from_fn(move || {
        if v == 0 {
            None
        } else {
            let t = v.trailing_zeros() as Tile;
            v &= v - 1;
            Some(t)
        }
    })
}

// Every block a simulated machine hands out fits the version maps'
// 32-bit keys: a chip has at most `MAX_AREAS` VMs (one per area, or
// one in all).
const _: () = assert!(
    cmpsim_virt::mem::block_limit(MAX_AREAS) <= 1 << 32,
    "block addresses must fit the version maps' u32 keys"
);

/// `block` as a version-map key (see the assertion above).
#[inline]
fn block_key(block: Block) -> u32 {
    u32::try_from(block).expect("block address past the machine's block limit")
}

/// Write-serialization authority: every committed store gets a fresh,
/// globally increasing version per block. Data messages carry versions so
/// the checker can detect stale data being served, and the end-of-run
/// architectural digest (`arch_state` in `cmpsim`'s simulator) reads the
/// final versions straight from here through
/// [`CoherenceProtocol::authority`]. Blocks and versions are kept as
/// `u32`: every block address a machine hands out is below
/// [`cmpsim_virt::mem::block_limit`], and a version counts the stores to
/// one block.
#[derive(Debug, Clone, Default)]
pub struct VersionAuthority {
    latest: FxHashMap<u32, u32>,
}

impl VersionAuthority {
    /// Commits a store to `block`, returning its new version.
    ///
    /// # Panics
    /// Panics on the `u32::MAX + 1`-th store to one block.
    pub fn commit(&mut self, block: Block) -> u64 {
        let v = self.latest.entry(block_key(block)).or_insert(0);
        *v = v.checked_add(1).expect("more than u32::MAX stores to one block");
        u64::from(*v)
    }

    /// Latest committed version of `block` (0 if never written).
    pub fn latest(&self, block: Block) -> u64 {
        self.latest.get(&block_key(block)).map_or(0, |&v| u64::from(v))
    }

    /// Iterates `(block, version)` pairs, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Block, u64)> + '_ {
        self.latest.iter().map(|(&b, &v)| (Block::from(b), u64::from(v)))
    }

    /// Every committed block together with the `held` ones, distinct
    /// and ascending (see [`CoherenceProtocol::blocks`]).
    pub fn with_held(&self, held: impl Iterator<Item = Block>) -> Vec<Block> {
        let mut blocks: Vec<Block> =
            self.latest.keys().map(|&b| Block::from(b)).chain(held).collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

/// Off-chip memory image, tracked as versions only (the simulator never
/// materializes data bytes), in the authority's `u32` blocks and
/// versions.
#[derive(Debug, Clone, Default)]
pub struct MemoryImage {
    versions: FxHashMap<u32, u32>,
}

impl MemoryImage {
    /// Version memory holds for `block` (0 = never written back).
    pub fn version(&self, block: Block) -> u64 {
        self.versions.get(&block_key(block)).map_or(0, |&v| u64::from(v))
    }

    /// Records a write-back of `version`, one the authority committed.
    pub fn write_back(&mut self, block: Block, version: u64) {
        let version = u32::try_from(version).expect("versions are committed as u32");
        self.versions.insert(block_key(block), version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `[Option<u16>; MAX_AREAS]` array [`Propos`] replaced: the
    /// oracle for its snapshot bytes and `Debug` text.
    type OldPropos = [Option<u16>; MAX_AREAS];

    fn snap_bytes(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn protocol_from_name_round_trips() {
        for k in ProtocolKind::all() {
            assert_eq!(ProtocolKind::from_name(k.name()), Some(k));
            assert_eq!(ProtocolKind::from_name(&k.name().to_lowercase()), Some(k));
        }
        assert_eq!(ProtocolKind::from_name("arin"), None);
    }

    /// The hot path moves these by value on every event; a field that
    /// re-inflates them should fail here, not in a profile.
    #[test]
    fn hot_path_types_stay_small() {
        assert_eq!(std::mem::size_of::<Propos>(), MAX_AREAS);
        assert!(std::mem::size_of::<Msg>() <= 104, "Msg is {} B", std::mem::size_of::<Msg>());
        assert!(std::mem::size_of::<Ctx>() <= 128, "Ctx is {} B", std::mem::size_of::<Ctx>());
    }

    proptest! {
        /// Snapshot bytes, `Debug` text and the accessors agree with the
        /// old array for any assignment of providers to areas.
        #[test]
        fn propos_matches_old_array(
            slots in prop::collection::vec((prop::bool::ANY, 0u16..255), MAX_AREAS..MAX_AREAS + 1)
        ) {
            let mut old: OldPropos = [None; MAX_AREAS];
            let mut new = Propos::NONE;
            for (area, &(live, tile)) in slots.iter().enumerate() {
                if live {
                    old[area] = Some(tile);
                    new.set(area, Some(tile as Tile));
                }
            }
            prop_assert_eq!(snap_bytes(&new), snap_bytes(&old));
            prop_assert_eq!(format!("{new:?}"), format!("{old:?}"));
            prop_assert_eq!(format!("{new:#?}"), format!("{old:#?}"));
            let live: Vec<Tile> = old.iter().flatten().map(|&t| t as Tile).collect();
            prop_assert_eq!(new.iter().collect::<Vec<_>>(), live.clone());
            prop_assert_eq!(new.count() as usize, live.len());
            for (area, slot) in old.iter().enumerate() {
                prop_assert_eq!(new.get(area), slot.map(|t| t as Tile));
            }
            let bytes = snap_bytes(&old);
            let mut r = SnapReader::new(&bytes);
            prop_assert_eq!(Propos::load(&mut r).unwrap(), new);
            prop_assert!(r.finish().is_ok());
        }
    }

    #[test]
    fn propos_load_refuses_out_of_range_tiles() {
        for bad in [255u16, 300, u16::MAX] {
            let mut old: OldPropos = [None; MAX_AREAS];
            old[3] = Some(bad);
            let bytes = snap_bytes(&old);
            assert!(
                matches!(Propos::load(&mut SnapReader::new(&bytes)), Err(SnapError::Corrupt(_))),
                "slot Some({bad}) must not decode"
            );
        }
    }

    /// A tile id saves as the `Tile` it names, so an `Option<TileId>`
    /// field keeps the bytes of the `Option<Tile>` it replaced.
    #[test]
    fn tile_id_round_trips_as_a_tile() {
        for t in [0, 1, 17, MAX_TILES - 1] {
            let id = TileId::new(t);
            assert_eq!(id.get(), t);
            assert_eq!(snap_bytes(&id), snap_bytes(&t));
            assert_eq!(snap_bytes(&Some(id)), snap_bytes(&Some(t)));
            assert_eq!(format!("{:?}", Some(id)), format!("{:?}", Some(t)));
            let bytes = snap_bytes(&t);
            let mut r = SnapReader::new(&bytes);
            assert_eq!(TileId::load(&mut r), Ok(id));
            assert!(r.finish().is_ok());
        }
        assert_eq!(snap_bytes(&None::<TileId>), snap_bytes(&None::<Tile>));
        assert_eq!(std::mem::size_of::<Option<TileId>>(), 2);
    }

    #[test]
    fn tile_id_load_refuses_tiles_past_the_limit() {
        for bad in [MAX_TILES, MAX_TILES + 1, 255, 256, usize::MAX] {
            let bytes = snap_bytes(&bad);
            assert!(
                matches!(TileId::load(&mut SnapReader::new(&bytes)), Err(SnapError::Corrupt(_))),
                "tile {bad} must not decode"
            );
        }
    }

    #[test]
    #[should_panic(expected = "past the 64-tile limit")]
    fn tile_id_refuses_tiles_past_the_limit() {
        TileId::new(MAX_TILES);
    }

    /// The `u64` encoding the version maps keep: key-sorted `(block,
    /// version)` pairs of an `FxHashMap<u64, u64>`.
    fn wide_versions(pairs: &[(u64, u64)]) -> Vec<u8> {
        let wide: FxHashMap<u64, u64> = pairs.iter().copied().collect();
        snap_bytes(&wide)
    }

    proptest! {
        /// The `u32` version maps write the bytes of the `u64` maps
        /// they replaced, and read them back to the same contents.
        #[test]
        fn version_maps_keep_the_u64_encoding(
            stores in prop::collection::vec((0u64..64, prop::bool::weighted(0.3), 0u64..4), 0..200)
        ) {
            let mut authority = VersionAuthority::default();
            let mut memory = MemoryImage::default();
            let mut latest: FxHashMap<u64, u64> = FxHashMap::default();
            let mut written: FxHashMap<u64, u64> = FxHashMap::default();
            for (i, wide, back) in stores {
                // Blocks across the whole 32-bit range a machine can use.
                let block = if wide { u64::from(u32::MAX) - i } else { i * 4099 };
                let v = authority.commit(block);
                *latest.entry(block).or_insert(0) += 1;
                prop_assert_eq!(v, latest[&block]);
                if back == 0 {
                    memory.write_back(block, v);
                    written.insert(block, v);
                }
            }
            for (&block, &v) in &latest {
                prop_assert_eq!(authority.latest(block), v);
            }
            for (&block, &v) in &written {
                prop_assert_eq!(memory.version(block), v);
            }
            let pairs = |m: &FxHashMap<u64, u64>| m.iter().map(|(&b, &v)| (b, v)).collect::<Vec<_>>();
            let image = snap_bytes(&authority);
            prop_assert_eq!(&image, &wide_versions(&pairs(&latest)));
            let back = VersionAuthority::load(&mut SnapReader::new(&image)).unwrap();
            prop_assert_eq!(snap_bytes(&back), image);
            let image = snap_bytes(&memory);
            prop_assert_eq!(&image, &wide_versions(&pairs(&written)));
            let back = MemoryImage::load(&mut SnapReader::new(&image)).unwrap();
            prop_assert_eq!(snap_bytes(&back), image);
        }
    }

    #[test]
    fn version_maps_refuse_entries_past_32_bits() {
        let top = u64::from(u32::MAX);
        assert!(VersionAuthority::load(&mut SnapReader::new(&wide_versions(&[(top, top)]))).is_ok());
        for pairs in [[(top + 1, 1)], [(7, top + 1)], [(u64::MAX, 1)]] {
            let bytes = wide_versions(&pairs);
            for result in [
                VersionAuthority::load(&mut SnapReader::new(&bytes)).map(|_| ()),
                MemoryImage::load(&mut SnapReader::new(&bytes)).map(|_| ()),
            ] {
                assert!(matches!(result, Err(SnapError::Corrupt(_))), "{pairs:?}");
            }
        }
    }

    #[test]
    fn home_mapping_is_interleaved() {
        let spec = ChipSpec::paper();
        assert_eq!(spec.home_of(0), 0);
        assert_eq!(spec.home_of(63), 63);
        assert_eq!(spec.home_of(64), 0);
        assert_eq!(spec.home_of(130), 2);
    }

    #[test]
    fn paper_spec_shape() {
        let spec = ChipSpec::paper();
        assert_eq!(spec.tiles(), 64);
        assert_eq!(spec.num_areas(), 4);
        assert_eq!(spec.l1.entries(), 2048);
        assert_eq!(spec.l2.entries(), 16384);
        assert_eq!(spec.aux.entries(), 2048);
        assert_eq!(spec.lat.l1_hit(), 3);
        assert_eq!(spec.lat.l2_access(), 5);
    }

    #[test]
    fn data_messages_are_data_sized() {
        assert!(MsgKind::Data(DataInfo::shared(0, Supplier::HomeL2)).carries_data());
        assert!(MsgKind::MemData.carries_data());
        assert!(!MsgKind::Ack.carries_data());
        assert!(!MsgKind::Req(ReqInfo {
            requestor: 0,
            write: false,
            forwarder: None,
            via_home: false,
            predicted: false,
            vouched: false,
            hops: 0,
        })
        .carries_data());
        assert!(!MsgKind::OwnershipToHome {
            dirty: false,
            version: 0,
            propos: Propos::NONE,
            sharers: 0,
            former_stays_provider: false
        }
        .carries_data());
        assert!(MsgKind::OwnershipToHome {
            dirty: true,
            version: 1,
            propos: Propos::NONE,
            sharers: 0,
            former_stays_provider: false
        }
        .carries_data());
    }

    #[test]
    fn block_queues_fifo() {
        let mut q = BlockQueues::default();
        assert!(!q.is_busy(5));
        q.set_busy(5);
        let mk = |i: u64| Msg {
            kind: MsgKind::Ack,
            block: 5,
            src: Node::L1(i as usize),
            dst: Node::L2(0),
        };
        q.enqueue(mk(1));
        q.enqueue(mk(2));
        assert!(q.is_busy(5));
        assert!(!q.idle());
        let drained = q.release(5);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].src, Node::L1(1));
        assert!(q.idle());
    }

    #[test]
    fn version_authority_monotone() {
        let mut a = VersionAuthority::default();
        assert_eq!(a.latest(9), 0);
        assert_eq!(a.commit(9), 1);
        assert_eq!(a.commit(9), 2);
        assert_eq!(a.commit(3), 1);
        assert_eq!(a.latest(9), 2);
    }

    #[test]
    fn memory_image_versions() {
        let mut m = MemoryImage::default();
        assert_eq!(m.version(4), 0);
        m.write_back(4, 7);
        assert_eq!(m.version(4), 7);
    }

    #[test]
    fn miss_class_labels_unique() {
        let mut labels: Vec<&str> = MissClass::all().iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
        assert!(MissClass::BY_LABEL.map(|c| c.label()).iter().eq(&labels));
    }

    /// `miss_class` indices follow `MissClass::all()`.
    #[test]
    fn miss_classes_index_in_report_order() {
        for (i, c) in MissClass::all().into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
    }

    /// Stats with misses recorded in a scrambled order.
    fn stats_with_misses() -> ProtoStats {
        let mut s = ProtoStats::default();
        for (class, n) in [
            (MissClass::UnpredictedHome, 3),
            (MissClass::Memory, 5),
            (MissClass::PredictedOwnerHit, 1),
            (MissClass::UnpredictedForwarded, 2),
        ] {
            for _ in 0..n {
                s.record_miss(class, 40);
            }
        }
        s
    }

    fn stats_image(s: &ProtoStats) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.save(&mut w);
        w.into_bytes()
    }

    /// The miss-class section is byte-for-byte the label-keyed
    /// `BTreeMap<&str, u64>` encoding: nonzero classes only, labels
    /// sorted, each as a string then its count.
    #[test]
    fn miss_class_bytes_match_the_label_map_encoding() {
        let s = stats_with_misses();
        let mut old: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for c in MissClass::all() {
            if s.class_count(c) > 0 {
                old.insert(c.label(), s.class_count(c));
            }
        }
        let mut w = SnapWriter::new();
        w.len_prefix(old.len());
        for (label, n) in &old {
            label.to_string().save(&mut w);
            n.save(&mut w);
        }
        let tail = w.into_bytes();
        let image = stats_image(&s);
        assert!(image.ends_with(&tail), "miss-class bytes moved");

        let back = ProtoStats::load(&mut SnapReader::new(&image)).expect("decode");
        assert_eq!(back.miss_class, s.miss_class);
        assert_eq!(stats_image(&back), image);

        let mut reg = MetricsRegistry::new();
        s.publish("p", &mut reg);
        let published: Vec<(String, u64)> = reg
            .counters()
            .filter(|(name, _)| name.contains(".miss_class."))
            .map(|(name, n)| (name.to_string(), n))
            .collect();
        let want: Vec<(String, u64)> =
            old.iter().map(|(label, n)| (format!("p.miss_class.{label}"), *n)).collect();
        assert_eq!(published, want);
    }

    /// Loads an image of empty stats whose miss-class section (the last
    /// field) lists `classes`.
    fn load_with_classes(classes: &[(&str, u64)]) -> Result<ProtoStats, SnapError> {
        let mut image = stats_image(&ProtoStats::default());
        image.truncate(image.len() - 8); // the empty section's count
        let mut w = SnapWriter::new();
        w.len_prefix(classes.len());
        for (label, n) in classes {
            label.to_string().save(&mut w);
            n.save(&mut w);
        }
        image.extend_from_slice(&w.into_bytes());
        let mut r = SnapReader::new(&image);
        let s = ProtoStats::load(&mut r)?;
        r.finish()?;
        Ok(s)
    }

    #[test]
    fn miss_class_load_refuses_zero_repeated_or_unsorted_labels() {
        assert!(load_with_classes(&[("memory", 5), ("unpred-home", 3)]).is_ok());
        for (classes, why) in [
            (&[("memory", 0)][..], "no misses"),
            (&[("memory", 5), ("memory", 1)][..], "out of order or repeated"),
            (&[("unpred-home", 3), ("memory", 5)][..], "out of order or repeated"),
            (&[("hits", 1)][..], "unknown miss-class label"),
        ] {
            match load_with_classes(classes) {
                Err(e @ SnapError::Corrupt(_)) => assert!(e.to_string().contains(why), "{e}"),
                other => panic!("{classes:?}: expected a corrupt error for {why:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn protocol_kind_names() {
        assert_eq!(ProtocolKind::all().len(), 4);
        assert_eq!(ProtocolKind::DiCoArin.name(), "DiCo-Arin");
    }
}
