//! The whole-chip simulator: cores, NoC, memory controllers and one
//! coherence protocol, driven by a deterministic event loop.

use crate::attr::{classify, MsgClass, TxAttribution};
use crate::config::SystemConfig;
use crate::error::{
    CoreStallState, FaultAbort, FaultContext, HotBlock, InFlightMsg, InvariantReport,
    ProtocolFault, SimError, StallReason, StallReport, TimeoutReport,
};
use crate::interval::{CumSnapshot, IntervalSampler};
use crate::replay::ReplayArtifact;
use crate::result::{ArchState, RunResult, SpatialLog};
use crate::trace::TxTracer;
use crate::snapshot::{self, SnapshotError, SnapshotStore};
use cmpsim_engine::par::{num_threads, par_map_with_threads};
use cmpsim_engine::rng::splitmix64;
use cmpsim_engine::{
    Cycle, EventCounts, EventQueue, FaultDecision, FaultEngine, FaultPlan, FxHashMap, FxHashSet,
    HostProfiler, SimRng, Snap, SnapError, SnapReader, SnapWriter, WallDeadline,
};
use cmpsim_noc::Mesh;
use cmpsim_protocols::arin::Arin;
use cmpsim_protocols::checker::StepChecker;
use cmpsim_protocols::common::{
    AccessOutcome, Block, ChipSpec, CoherenceProtocol, Ctx, Msg, MsgKind, Node, ProtoError, Tile,
};
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::providers::Providers;
use cmpsim_protocols::{ProtoStats, ProtocolKind};
use cmpsim_virt::mem::{LogicalPage, PageKind, Region, BLOCKS_PER_PAGE};
use cmpsim_virt::MachineMemory;
use cmpsim_workloads::{Benchmark, CoreStream};
use std::collections::BTreeMap;

/// Builds a protocol instance for `spec`.
pub fn build_protocol(kind: ProtocolKind, spec: ChipSpec) -> Box<dyn CoherenceProtocol> {
    match kind {
        ProtocolKind::Directory => Box::new(Directory::new(spec)),
        ProtocolKind::DiCo => Box::new(DiCo::new(spec)),
        ProtocolKind::DiCoProviders => Box::new(Providers::new(spec)),
        ProtocolKind::DiCoArin => Box::new(Arin::new(spec)),
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The core of a tile wants to make progress.
    CoreResume(Tile),
    /// A coherence message arrives, tagged with its transport-layer
    /// retry sequence number (0 = untracked; always 0 with fault
    /// injection off).
    Deliver(Msg, u64),
    /// The MSHR timeout for tile's open miss fired. `generation`
    /// disambiguates stale timeouts: it must match the tile's current
    /// miss generation or the event is a no-op.
    ReqTimeout {
        /// Tile whose open request timed out.
        tile: Tile,
        /// Miss generation the timeout was armed for.
        generation: u64,
    },
}

impl Snap for Ev {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            Ev::CoreResume(tile) => {
                w.u8(0);
                tile.save(w);
            }
            Ev::Deliver(msg, seq) => {
                w.u8(1);
                msg.save(w);
                seq.save(w);
            }
            Ev::ReqTimeout { tile, generation } => {
                w.u8(2);
                tile.save(w);
                generation.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Ev::CoreResume(Snap::load(r)?)),
            1 => {
                let msg = Snap::load(r)?;
                let seq = Snap::load(r)?;
                Ok(Ev::Deliver(msg, seq))
            }
            2 => {
                let tile = Snap::load(r)?;
                let generation = Snap::load(r)?;
                Ok(Ev::ReqTimeout { tile, generation })
            }
            tag => Err(SnapError::BadTag { what: "Ev", tag }),
        }
    }
}

/// How a [`CmpSimulator::run_phase`] event loop ended.
enum PhaseExit {
    /// The event queue drained (the run is complete).
    Drained,
    /// The warm-up window closed (the snapshot boundary; only with
    /// `stop_at_warm`).
    Warmed,
}

/// The first hop of a miss transaction: the requestor L1's own request
/// with no forwarding history. Only this hop is retransmittable — the
/// home (or predicted owner) has no transient state for it yet, so a
/// lost copy can be re-sent by the MSHR timeout and a duplicate is
/// suppressed by the receiver-side sequence filter.
fn initial_req_of(msg: &Msg) -> Option<Tile> {
    match msg.kind {
        MsgKind::Req(r)
            if r.hops == 0
                && !r.via_home
                && r.forwarder.is_none()
                && msg.src == Node::L1(r.requestor) =>
        {
            Some(r.requestor)
        }
        _ => None,
    }
}

/// Payload-class messages (requests, data fills, memory responses,
/// hints) fail *safe* when lost or reordered: the worst case is a clean
/// wedge that the MSHR timeout or the watchdog detects and surfaces as
/// a typed error. Control notifications (invalidations, acks, owner /
/// provider bookkeeping) are excluded even in chaos mode — losing one
/// silently corrupts directory metadata, which models undetectable
/// state corruption outside this transport-layer fault model. They
/// still receive delays, duplicates and outage holds.
fn payload_class(kind: &MsgKind) -> bool {
    matches!(
        kind,
        MsgKind::Req(_) | MsgKind::Data(_) | MsgKind::MemData | MsgKind::Hint { .. }
    )
}

/// Retransmission state for one tile's open miss.
#[derive(Clone)]
struct RetryInfo {
    block: Block,
    msg: Msg,
    attempts: u32,
    generation: u64,
}

cmpsim_engine::impl_snap!(RetryInfo { block, msg, attempts, generation });

/// Driver-side fault state: the engine (plan + RNG + outage schedule),
/// the per-tile open-request registry feeding timeouts and
/// retransmissions, and the receiver-side duplicate filter. Exists only
/// when [`SystemConfig::fault_plan`] is set; with it `None` every hook
/// below is a single branch and the simulation is bit-identical to a
/// build without fault injection.
#[derive(Clone)]
struct FaultState {
    engine: FaultEngine,
    /// Per-tile open tracked request: block and its sequence number.
    open_reqs: FxHashMap<Tile, (Block, u64)>,
    /// Per-tile retransmission state for the open miss.
    retry: FxHashMap<Tile, RetryInfo>,
    /// Sequence numbers already delivered once. Entries live for the
    /// whole run: a retransmit can arrive after its miss completed, and
    /// forgetting the seq would let it reach the protocol as a spurious
    /// new request. One u64 per tracked miss is an acceptable bound.
    seen: FxHashSet<u64>,
    /// Per-tile miss generation counters (stale-timeout filter).
    generation: Vec<u64>,
    /// A completion arrived for a core with no outstanding access
    /// (possible only under chaos faults); latched here and surfaced as
    /// a typed protocol fault by the event loop.
    violation: Option<(Tile, Block)>,
}

impl FaultState {
    fn new(plan: FaultPlan, tiles: usize) -> Self {
        Self {
            engine: FaultEngine::new(plan, tiles),
            open_reqs: FxHashMap::default(),
            retry: FxHashMap::default(),
            seen: FxHashSet::default(),
            generation: vec![0; tiles],
            violation: None,
        }
    }

    /// The active plan and fired-fault counters, as embedded in stall
    /// reports and crash dumps.
    fn context(&self) -> FaultContext {
        FaultContext { plan: self.engine.plan().clone(), fired: *self.engine.stats() }
    }
}

cmpsim_engine::impl_snap!(FaultState {
    engine,
    open_reqs,
    retry,
    seen,
    generation,
    violation,
});

/// Point-to-point FIFO delivery floors: the latest delivery cycle
/// scheduled on each (source, destination) endpoint pair. Wormhole
/// meshes preserve per-pair ordering and the protocols rely on it, so a
/// message never lands before an earlier one on the same pair. A flat
/// `2·tiles × 2·tiles` table indexed by endpoint (`L1(t)` is `t`,
/// `L2(t)` is `tiles + t`), so the per-message probe is one indexed load.
#[derive(Clone)]
struct FifoFloors {
    tiles: usize,
    floors: Vec<Cycle>,
}

impl FifoFloors {
    fn new(tiles: usize) -> Self {
        Self { tiles, floors: vec![0; 4 * tiles * tiles] }
    }

    #[inline]
    fn endpoint(&self, node: Node) -> usize {
        match node {
            Node::L1(t) => t,
            Node::L2(t) => self.tiles + t,
        }
    }

    #[inline]
    fn pair(&self, src: Node, dst: Node) -> usize {
        self.endpoint(src) * 2 * self.tiles + self.endpoint(dst)
    }

    /// Schedules a delivery from `src` to `dst` no earlier than `at`
    /// and no earlier than the pair's previous delivery; returns the
    /// delivery cycle, which becomes the pair's new floor.
    #[inline]
    fn admit(&mut self, src: Node, dst: Node, at: Cycle) -> Cycle {
        let i = self.pair(src, dst);
        let floor = &mut self.floors[i];
        let at = at.max(*floor);
        *floor = at;
        at
    }

    /// The endpoint with table index `i` (inverse of `endpoint`).
    fn node(&self, i: usize) -> Node {
        if i < self.tiles {
            Node::L1(i)
        } else {
            Node::L2(i - self.tiles)
        }
    }

    /// Snapshots store the floors sparsely, as images always have: a
    /// count, then `(src, dst, floor)` ascending by pair. A floor of 0
    /// constrains nothing, so it doubles as "pair never used" and such
    /// pairs are left out.
    fn save(&self, w: &mut SnapWriter) {
        let n = 2 * self.tiles;
        w.len_prefix(self.floors.iter().filter(|&&f| f != 0).count());
        for (i, &floor) in self.floors.iter().enumerate() {
            if floor != 0 {
                self.node(i / n).save(w);
                self.node(i % n).save(w);
                floor.save(w);
            }
        }
    }

    /// Decodes an image for a `tiles`-tile chip. Endpoints outside the
    /// chip and pairs out of ascending order are refused.
    fn load(r: &mut SnapReader<'_>, tiles: usize) -> Result<Self, SnapError> {
        let mut fifo = Self::new(tiles);
        let count = r.len_prefix("FIFO floors", 26)?;
        let mut last = None;
        for _ in 0..count {
            let (src, dst, floor): (Node, Node, Cycle) = Snap::load(r)?;
            if src.tile() >= tiles || dst.tile() >= tiles {
                return Err(SnapError::Corrupt("FIFO floor names a tile outside the chip"));
            }
            let i = fifo.pair(src, dst);
            if last.is_some_and(|l| l >= i) {
                return Err(SnapError::Corrupt("FIFO floor pairs are not strictly ascending"));
            }
            fifo.floors[i] = floor;
            last = Some(i);
        }
        Ok(fifo)
    }
}

/// Initial value of [`ArchState::version_digest`].
const ARCH_DIGEST_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Folds one versioned block, keyed on its logical coordinates, into
/// the architectural digest.
fn arch_fold(digest: u64, vm: usize, region: Region, index: u64, off: u64, version: u64) -> u64 {
    fn mix(h: u64, w: u64) -> u64 {
        let mut s = h ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut s)
    }
    mix(mix(mix(mix(mix(digest, vm as u64), region as u64), index), off), version)
}

/// The cache-structure counters attribution charges per dispatch, in
/// [`EventCounts`] field order (the two network counters are charged
/// per message instead).
fn cache_counts(ps: &ProtoStats) -> [u64; 7] {
    [
        ps.l1_tag.get(),
        ps.l1_data_read.get() + ps.l1_data_write.get(),
        ps.l2_tag.get(),
        ps.l2_data_read.get() + ps.l2_data_write.get(),
        ps.dir_access.get(),
        ps.l1c_access.get(),
        ps.l2c_access.get(),
    ]
}

/// True when `block` is backed by a deduplicated (inter-VM shared)
/// page. Only consulted when attribution is on — one indexed load into
/// the page-kind table per observed message, never on the timing path.
fn is_dedup_block(memory: &MachineMemory, block: Block) -> bool {
    matches!(memory.kind_of_block(block), Some(PageKind::Deduplicated))
}

#[derive(Clone)]
struct Core {
    stream: CoreStream,
    vm: usize,
    /// Translated reference waiting to issue (after its think gap, or a
    /// Blocked retry).
    pending: Option<(Block, bool)>,
    outstanding: bool,
    refs_done: u64,
    finished_at: Option<Cycle>,
}

/// One full-system simulation.
pub struct CmpSimulator {
    cfg: SystemConfig,
    proto: Box<dyn CoherenceProtocol>,
    mesh: Mesh,
    queue: EventQueue<Ev>,
    cores: Vec<Core>,
    memory: MachineMemory,
    benchmark: Benchmark,
    rng: SimRng,
    /// Point-to-point FIFO delivery floors.
    fifo: FifoFloors,
    /// Reusable dispatch context: one `Ctx` serves every event, so the
    /// hot path constructs no buffers (see [`Ctx::reset`]).
    ctx_pool: Ctx,
    /// Block filter from `CMPSIM_TRACE_BLOCK`, parsed once at build
    /// time (an env lookup per delivered message would dominate the
    /// event loop).
    trace_block: Option<u64>,
    /// Host wall-clock deadline (from `cfg.wall_deadline_ms`), armed at
    /// the start of each public run entry point. Host-side only: never
    /// snapshotted, never part of deterministic results.
    wall: Option<WallDeadline>,
    /// Memory controller availability.
    ctrl_free: Vec<Cycle>,
    /// Warm-up bookkeeping.
    warmed_up: bool,
    measure_start: Cycle,
    refs_at_reset: u64,
    events: u64,
    /// Cycle of the last retired reference (watchdog no-progress clock).
    last_progress: Cycle,
    /// Running sum of every core's `refs_done` (the warm-up check runs
    /// per event, so it must not rescan the cores).
    refs_total: u64,
    /// Per-message invariant checker (from `cfg.check_invariants`).
    checker: Option<StepChecker>,
    /// Coherence-transaction tracer (from `cfg.tracing`).
    tracer: Option<TxTracer>,
    /// Per-transaction critical-path and energy attribution (from
    /// `cfg.attribution`).
    attr: Option<TxAttribution>,
    /// Interval time-series sampler; created when the warm-up window
    /// ends (from `cfg.sample_interval`).
    sampler: Option<IntervalSampler>,
    /// Energy table for the sampler's cumulative dynamic-energy
    /// snapshots (built alongside the sampler).
    energy_model: Option<cmpsim_power::EnergyModel>,
    /// Fault-injection engine and recovery bookkeeping (from
    /// `cfg.fault_plan`; `None` keeps every fault hook inert).
    faults: Option<FaultState>,
    /// Per-tile L1 misses (spatial heatmap counter; zeroed with the
    /// stats at the end of warm-up).
    tile_misses: Vec<u64>,
    /// Per-tile `refs_done` at the warm-up reset (the baseline the
    /// spatial per-tile reference counts diff against).
    tile_refs_base: Vec<u64>,
}

impl CmpSimulator {
    /// Builds a simulator for one protocol/benchmark/config triple.
    pub fn new(kind: ProtocolKind, benchmark: Benchmark, cfg: &SystemConfig) -> Self {
        let tiles = cfg.tiles();
        assert_eq!(
            cfg.noc.cols * cfg.noc.rows,
            tiles,
            "NoC dimensions must match the chip"
        );
        let mut rng = SimRng::new(cfg.seed);
        let areas = &cfg.chip.areas;
        let cores = (0..tiles)
            .map(|t| {
                let vm = cfg.placement.vm_of_tile(areas, cfg.num_vms, t);
                let profile = benchmark.profile_for_vm(vm, cfg.num_vms);
                // Slot of this core within its VM (0..cores_per_vm).
                let core_in_vm = cfg
                    .placement
                    .tiles_of_vm(areas, cfg.num_vms, vm)
                    .iter()
                    .position(|&x| x == t)
                    .expect("tile in own VM") as u64;
                Core {
                    stream: CoreStream::new(profile, core_in_vm, rng.fork(t as u64)),
                    vm,
                    pending: None,
                    outstanding: false,
                    refs_done: 0,
                    finished_at: None,
                }
            })
            .collect::<Vec<Core>>();
        let vm_of: Vec<usize> = cores.iter().map(|c| c.vm).collect();
        Self {
            proto: build_protocol(kind, cfg.chip.clone()),
            mesh: Mesh::new(cfg.noc),
            queue: EventQueue::with_capacity(4 * tiles),
            cores,
            memory: MachineMemory::new(cfg.num_vms),
            benchmark,
            rng,
            fifo: FifoFloors::new(tiles),
            ctx_pool: Ctx::default(),
            trace_block: cmpsim_engine::env::parsed_or_warn(
                cmpsim_engine::env::TRACE_BLOCK,
                "a block address (u64)",
            ),
            wall: None,
            ctrl_free: vec![0; cfg.mem_controllers],
            warmed_up: false,
            measure_start: 0,
            refs_at_reset: 0,
            events: 0,
            last_progress: 0,
            refs_total: 0,
            checker: cfg.check_invariants.then(StepChecker::new),
            tracer: cfg.tracing.then(|| TxTracer::new(tiles, cfg.trace_capacity)),
            attr: cfg.attribution.then(|| TxAttribution::with_vms(vm_of, cfg.num_vms)),
            sampler: None,
            energy_model: None,
            faults: cfg.fault_plan.clone().map(|p| FaultState::new(p, tiles)),
            tile_misses: vec![0; tiles],
            tile_refs_base: vec![0; tiles],
            cfg: cfg.clone(),
        }
    }

    /// Turns on the per-message invariant checker regardless of the
    /// configuration flag (used by `cmpsim-cli replay --check`).
    pub fn enable_invariant_checker(&mut self) {
        if self.checker.is_none() {
            self.checker = Some(StepChecker::new());
        }
    }

    fn flits(&self, kind: &MsgKind) -> u64 {
        if kind.carries_data() {
            self.cfg.noc.data_flits
        } else {
            self.cfg.noc.control_flits
        }
    }

    /// Snapshot of the cache-structure counters before a protocol
    /// dispatch. Paired with [`Self::attr_record_cache_delta`] around
    /// every `core_access` / `handle` call so each dispatch's energy
    /// events charge to the transaction that caused them. Callers skip
    /// both calls entirely when attribution is off.
    fn attr_cache_base(&self) -> [u64; 7] {
        cache_counts(self.proto.stats())
    }

    /// Charges the cache-counter delta since `base` to the transaction
    /// open on `block` (or the untracked bucket when none is).
    fn attr_record_cache_delta(&mut self, block: Block, base: [u64; 7]) {
        let cur = cache_counts(self.proto.stats());
        if let Some(a) = &mut self.attr {
            let delta = EventCounts {
                l1_tag: cur[0] - base[0],
                l1_data: cur[1] - base[1],
                l2_tag: cur[2] - base[2],
                l2_data: cur[3] - base[3],
                dir: cur[4] - base[4],
                l1c: cur[5] - base[5],
                l2c: cur[6] - base[6],
                routing: 0,
                flit_links: 0,
            };
            a.on_cache_events(block, delta);
        }
    }

    fn deliver(&mut self, at: Cycle, msg: Msg) {
        if self.faults.is_some() {
            return self.deliver_faulty(at, msg);
        }
        let at = self.fifo.admit(msg.src, msg.dst, at);
        self.queue.push(at, Ev::Deliver(msg, 0));
    }

    /// Fault-mode delivery: holds the message through any open router
    /// outage window its route crosses, then asks the engine for a
    /// per-delivery fault decision. Delays (and outage holds) raise the
    /// link's FIFO floor like any slow delivery; a reorder deliberately
    /// bypasses the floor; a duplicate enqueues two copies sharing one
    /// sequence number so the receiver-side filter masks the second.
    fn deliver_faulty(&mut self, at: Cycle, msg: Msg) {
        let fs = self.faults.as_mut().expect("fault mode");
        let mut at = at;
        let mut held = false;
        for o in fs.engine.outages() {
            if at >= o.start
                && at <= o.end
                && self.mesh.passes_through(msg.src.tile(), msg.dst.tile(), o.tile)
            {
                at = at.max(o.end + 1);
                held = true;
            }
        }
        if held {
            fs.engine.record_outage_hit();
        }
        // Sequence number: the tracked first hop of an open miss reuses
        // its registered seq (so retransmits collapse at the receiver).
        let seq = initial_req_of(&msg)
            .and_then(|t| fs.open_reqs.get(&t).copied())
            .and_then(|(b, s)| (b == msg.block).then_some(s))
            .unwrap_or(0);
        let payload = payload_class(&msg.kind);
        // Recoverable drops need a retransmission path (tracked initial
        // request) or no architectural effect (hint); chaos mode widens
        // to any payload-class message, whose loss wedges detectably.
        let droppable =
            seq != 0 || matches!(msg.kind, MsgKind::Hint { .. }) || (fs.engine.plan().chaos && payload);
        match fs.engine.decide(droppable, payload) {
            FaultDecision::Drop => {}
            FaultDecision::Reorder => {
                self.queue.push(at, Ev::Deliver(msg, seq));
            }
            FaultDecision::Duplicate(extra) => {
                let seq = if seq == 0 { fs.engine.alloc_seq() } else { seq };
                let at = self.fifo.admit(msg.src, msg.dst, at);
                self.queue.push(at, Ev::Deliver(msg, seq));
                self.queue.push(at + extra, Ev::Deliver(msg, seq));
            }
            FaultDecision::Delay(extra) => {
                let at = self.fifo.admit(msg.src, msg.dst, at + extra);
                self.queue.push(at, Ev::Deliver(msg, seq));
            }
            FaultDecision::None => {
                let at = self.fifo.admit(msg.src, msg.dst, at);
                self.queue.push(at, Ev::Deliver(msg, seq));
            }
        }
    }

    /// Routes one Ctx worth of protocol output through the chip,
    /// draining the (pooled) context's buffers in a fixed order:
    /// sends, bcasts, replays, mem_ops, completions.
    fn apply_ctx(&mut self, now: Cycle, ctx: &mut Ctx) {
        for out in ctx.sends.drain(..) {
            let flits = self.flits(&out.msg.kind);
            let d = self.mesh.send(now + out.delay, out.msg.src.tile(), out.msg.dst.tile(), flits);
            if let Some(tr) = &mut self.tracer {
                tr.on_message(
                    now + out.delay,
                    d.arrival,
                    out.msg.kind.label(),
                    "msg",
                    out.msg.block,
                    out.msg.src.tile(),
                    out.msg.dst.tile(),
                    d.links,
                );
            }
            if let Some(a) = &mut self.attr {
                a.on_message(
                    now + out.delay,
                    d.arrival,
                    classify(&out.msg.kind, out.msg.src),
                    out.msg.block,
                    out.msg.src,
                    out.msg.dst,
                    d.links,
                    flits,
                    is_dedup_block(&self.memory, out.msg.block),
                );
            }
            self.deliver(d.arrival, out.msg);
        }
        for b in ctx.bcasts.drain(..) {
            let flits = if b.kind.carries_data() {
                self.cfg.noc.data_flits
            } else {
                self.cfg.noc.control_flits
            };
            let arrivals = self.mesh.broadcast(now + b.delay, b.src.tile(), flits);
            let end = arrivals.iter().map(|&(_, at)| at).max().unwrap_or(now + b.delay);
            // The spanning-tree broadcast charges tiles - 1 links.
            let bcast_links = (self.cfg.tiles() - 1) as u64;
            if let Some(tr) = &mut self.tracer {
                let src = b.src.tile();
                tr.on_message(
                    now + b.delay,
                    end,
                    b.kind.label(),
                    "bcast",
                    b.block,
                    src,
                    src,
                    bcast_links,
                );
            }
            if let Some(a) = &mut self.attr {
                a.on_message(
                    now + b.delay,
                    end,
                    classify(&b.kind, b.src),
                    b.block,
                    b.src,
                    b.src,
                    bcast_links,
                    flits,
                    is_dedup_block(&self.memory, b.block),
                );
            }
            for (t, at) in arrivals {
                if Some(t) == b.exclude {
                    continue;
                }
                self.deliver(at, Msg { kind: b.kind, block: b.block, src: b.src, dst: Node::L1(t) });
            }
            // The source's own L1 may also be a destination (e.g. the
            // home bank broadcasting to its co-located L1).
            let src_tile = b.src.tile();
            if Some(src_tile) != b.exclude && matches!(b.src, Node::L2(_)) {
                self.deliver(
                    now + b.delay + 1,
                    Msg { kind: b.kind, block: b.block, src: b.src, dst: Node::L1(src_tile) },
                );
            }
        }
        for m in ctx.replays.drain(..) {
            // Replays are the protocol re-enqueueing a message it chose
            // to defer: they never re-cross the network, so they take
            // no faults and carry no sequence number (a replayed
            // message must not be mistaken for a duplicate).
            self.queue.push(now, Ev::Deliver(m, 0));
        }
        for op in ctx.mem_ops.drain(..) {
            let ctrl = self.cfg.mem_ctrl_of(op.block);
            let ctrl_tile = self.cfg.mem_ctrl_tile(ctrl);
            let flits =
                if op.is_write { self.cfg.noc.data_flits } else { self.cfg.noc.control_flits };
            let d = self.mesh.send(now + op.delay, op.home, ctrl_tile, flits);
            if let Some(tr) = &mut self.tracer {
                let name = if op.is_write { "MemWrite" } else { "MemRead" };
                tr.on_message(
                    now + op.delay,
                    d.arrival,
                    name,
                    "mem",
                    op.block,
                    op.home,
                    ctrl_tile,
                    d.links,
                );
            }
            if let Some(a) = &mut self.attr {
                let class = if op.is_write { MsgClass::MemWrite } else { MsgClass::MemRead };
                a.on_message(
                    now + op.delay,
                    d.arrival,
                    class,
                    op.block,
                    Node::L2(op.home),
                    Node::L2(ctrl_tile),
                    d.links,
                    flits,
                    is_dedup_block(&self.memory, op.block),
                );
            }
            let start = d.arrival.max(self.ctrl_free[ctrl]);
            self.ctrl_free[ctrl] = start + self.cfg.mem_service;
            if !op.is_write {
                let ready = start + self.cfg.mem_latency + self.rng.jitter(self.cfg.mem_jitter);
                let back =
                    self.mesh.send(ready, ctrl_tile, op.home, self.cfg.noc.data_flits);
                if let Some(tr) = &mut self.tracer {
                    tr.on_message(
                        ready,
                        back.arrival,
                        "MemData",
                        "mem",
                        op.block,
                        ctrl_tile,
                        op.home,
                        back.links,
                    );
                }
                if let Some(a) = &mut self.attr {
                    a.on_message(
                        ready,
                        back.arrival,
                        MsgClass::MemData,
                        op.block,
                        Node::L2(ctrl_tile),
                        Node::L2(op.home),
                        back.links,
                        self.cfg.noc.data_flits,
                        is_dedup_block(&self.memory, op.block),
                    );
                }
                self.deliver(
                    back.arrival,
                    Msg {
                        kind: MsgKind::MemData,
                        block: op.block,
                        src: Node::L2(op.home),
                        dst: Node::L2(op.home),
                    },
                );
            }
        }
        for c in ctx.completions.drain(..) {
            if let Some(fs) = &mut self.faults {
                // The miss is closed: timeouts armed for it go stale
                // and its retransmission state is dropped (the seen-set
                // entry stays — see `FaultState::seen`).
                fs.open_reqs.remove(&c.tile);
                fs.retry.remove(&c.tile);
                if !self.cores[c.tile].outstanding {
                    // Chaos faults can desynchronize the protocol's
                    // notion of an outstanding miss; latch it as a
                    // typed violation instead of corrupting the core
                    // bookkeeping (the event loop aborts on it).
                    fs.violation.get_or_insert((c.tile, c.block));
                    continue;
                }
            }
            if let Some(tr) = &mut self.tracer {
                tr.on_completion(now, c.tile);
            }
            if let Some(a) = &mut self.attr {
                a.on_completion(now, c.tile);
            }
            let core = &mut self.cores[c.tile];
            debug_assert!(core.outstanding, "completion without outstanding access");
            core.outstanding = false;
            core.refs_done += 1;
            self.refs_total += 1;
            self.last_progress = now;
            self.queue.push(now + c.delay + 1, Ev::CoreResume(c.tile));
        }
    }

    fn core_resume(&mut self, now: Cycle, tile: Tile) -> Result<(), SimError> {
        if self.cores[tile].outstanding {
            return Ok(());
        }
        if self.cores[tile].refs_done >= self.cfg.refs_per_core {
            if self.cores[tile].finished_at.is_none() {
                self.cores[tile].finished_at = Some(now);
            }
            return Ok(());
        }
        // Generate (and translate) the next reference if none is pending.
        if self.cores[tile].pending.is_none() {
            let vm = self.cores[tile].vm;
            let r = self.cores[tile].stream.next_ref();
            let lp = LogicalPage { vm, region: r.region, index: r.page_index };
            let block = self.memory.translate(lp, r.block_in_page, r.is_write);
            self.cores[tile].pending = Some((block, r.is_write));
            if r.gap > 0 {
                // Non-memory work before the access issues.
                self.queue.push(now + r.gap, Ev::CoreResume(tile));
                return Ok(());
            }
        }
        let (block, write) = self.cores[tile].pending.expect("pending set above");
        if let Some(chk) = &mut self.checker {
            chk.record_access(now, tile, block, write);
        }
        let attr_on = self.attr.is_some();
        let mut ctx = std::mem::take(&mut self.ctx_pool);
        ctx.reset(now);
        let attr_base = if attr_on { self.attr_cache_base() } else { [0; 7] };
        let outcome = match self.proto.core_access(&mut ctx, tile, block, write) {
            Ok(o) => o,
            Err(e) => return Err(self.protocol_fault(now, e)),
        };
        match outcome {
            AccessOutcome::Hit { latency } => {
                self.cores[tile].pending = None;
                self.cores[tile].refs_done += 1;
                self.refs_total += 1;
                self.last_progress = now;
                if attr_on {
                    self.attr_record_cache_delta(block, attr_base);
                }
                self.apply_ctx(now, &mut ctx);
                self.queue.push(now + latency, Ev::CoreResume(tile));
            }
            AccessOutcome::Miss => {
                self.cores[tile].pending = None;
                self.cores[tile].outstanding = true;
                self.tile_misses[tile] += 1;
                // Open the transaction before routing the request so
                // its own messages (and this dispatch's cache probes)
                // attribute to it.
                if let Some(tr) = &mut self.tracer {
                    tr.on_issue(now, tile, block, write);
                }
                if let Some(a) = &mut self.attr {
                    a.on_issue(now, tile, block, write, is_dedup_block(&self.memory, block));
                }
                if attr_on {
                    self.attr_record_cache_delta(block, attr_base);
                }
                if self.faults.is_some() {
                    self.fault_open_miss(now, tile, block, &ctx);
                }
                self.apply_ctx(now, &mut ctx);
            }
            AccessOutcome::Blocked { reason } => {
                if attr_on {
                    self.attr_record_cache_delta(block, attr_base);
                }
                // The 7-cycle retry below is a pre-issue wait: it is
                // accounted chip-wide by reason, outside the per-miss
                // reconciliation window (the miss has not opened yet).
                if let Some(a) = &mut self.attr {
                    a.on_blocked(reason, 7, tile);
                }
                self.apply_ctx(now, &mut ctx);
                self.queue.push(now + 7, Ev::CoreResume(tile));
            }
        }
        self.ctx_pool = ctx;
        Ok(())
    }

    /// Registers a newly opened miss with the recovery layer: stashes
    /// the first-hop request for retransmission, allocates its
    /// transport-layer sequence number, and arms the MSHR timeout.
    /// Misses that send no first-hop request (served without leaving
    /// the tile) need no recovery and are skipped.
    fn fault_open_miss(&mut self, now: Cycle, tile: Tile, block: Block, ctx: &Ctx) {
        let Some(first_hop) = ctx
            .sends
            .iter()
            .map(|o| o.msg)
            .find(|m| m.block == block && initial_req_of(m) == Some(tile))
        else {
            return;
        };
        let fs = self.faults.as_mut().expect("fault mode");
        let seq = fs.engine.alloc_seq();
        fs.generation[tile] += 1;
        let generation = fs.generation[tile];
        fs.open_reqs.insert(tile, (block, seq));
        // The retransmission path re-derives `seq` from `open_reqs`, so
        // retransmits share the original's sequence number and are
        // masked by the receiver-side filter whenever it arrived.
        fs.retry.insert(tile, RetryInfo { block, msg: first_hop, attempts: 0, generation });
        let timeout = fs.engine.plan().timeout;
        self.queue.push(now + timeout, Ev::ReqTimeout { tile, generation });
    }

    /// Handles an MSHR timeout. Stale timeouts (the miss completed, or
    /// a newer miss bumped the tile's generation) are no-ops. A live
    /// one retransmits the stashed first-hop request — suppressed at
    /// the receiver if the original actually arrived — and re-arms with
    /// capped exponential backoff; past the retry cap it aborts the run
    /// with a typed [`SimError::Fault`].
    fn req_timeout(&mut self, now: Cycle, tile: Tile, generation: u64) -> Result<(), SimError> {
        let Some(fs) = self.faults.as_mut() else { return Ok(()) };
        let base_timeout = fs.engine.plan().timeout;
        let retry_cap = fs.engine.plan().retry_cap;
        let Some(info) = fs.retry.get_mut(&tile) else { return Ok(()) };
        if info.generation != generation {
            return Ok(());
        }
        info.attempts += 1;
        let (attempts, msg, block) = (info.attempts, info.msg, info.block);
        self.proto.stats_mut().timeouts.inc();
        if attempts > retry_cap {
            return Err(self.fault_abort(now, tile, block, attempts - 1));
        }
        self.proto.stats_mut().retries.inc();
        // The retransmission is charged as regular network traffic.
        let flits = self.flits(&msg.kind);
        let d = self.mesh.send(now, msg.src.tile(), msg.dst.tile(), flits);
        self.deliver(d.arrival, msg);
        let backoff = base_timeout << attempts.min(5);
        self.queue.push(now + backoff, Ev::ReqTimeout { tile, generation });
        Ok(())
    }

    /// Builds the typed error for a request that exhausted its retry
    /// budget (an unrecoverable injected fault).
    fn fault_abort(&self, now: Cycle, tile: Tile, block: Block, attempts: u32) -> SimError {
        let fs = self.faults.as_ref().expect("fault mode");
        SimError::Fault(Box::new(FaultAbort {
            cycle: now,
            events: self.events,
            tile,
            block,
            attempts,
            fault: fs.context(),
            pending_summary: self.proto.pending_summary(),
            artifact: None,
        }))
    }

    /// Timing-invariant digest of the architectural end state, keyed on
    /// *logical* coordinates: for every established page translation
    /// `(vm, region, index)` and block offset, the block's final
    /// committed version (the protocol's write-serialization authority)
    /// is folded into a splitmix64-chained digest. Physical page
    /// numbers are first-touch-order artifacts and stay out of it, so
    /// two runs whose injected faults were all recovered — identical
    /// reference streams, possibly different timing — digest equal.
    ///
    /// Costs O(mapped pages + versioned blocks): a per-page bitmask of
    /// versioned offsets lets pages nobody wrote be skipped whole.
    fn arch_state(&self) -> ArchState {
        const _: () = assert!(BLOCKS_PER_PAGE == u64::BITS as u64);
        let authority = self.proto.authority();
        let mut versioned = vec![0u64; self.memory.physical_pages() as usize];
        for (&block, _) in authority.iter().filter(|&(_, &version)| version != 0) {
            let page = usize::try_from(block / BLOCKS_PER_PAGE).ok();
            if let Some(mask) = page.and_then(|p| versioned.get_mut(p)) {
                *mask |= 1 << (block % BLOCKS_PER_PAGE);
            }
        }
        let mut digest: u64 = ARCH_DIGEST_SEED;
        let mut versioned_blocks = 0u64;
        for (vm, region, index, ppn) in self.memory.mappings() {
            let mut mask = versioned[ppn as usize];
            while mask != 0 {
                let off = u64::from(mask.trailing_zeros());
                mask &= mask - 1;
                let version = authority.latest(ppn * BLOCKS_PER_PAGE + off);
                versioned_blocks += 1;
                digest = arch_fold(digest, vm, region, index, off, version);
            }
        }
        self.arch_with(digest, versioned_blocks)
    }

    /// [`ArchState`] with the given version digest and the memory and
    /// progress counters of this simulator.
    fn arch_with(&self, version_digest: u64, versioned_blocks: u64) -> ArchState {
        ArchState {
            version_digest,
            versioned_blocks,
            cow_faults: self.memory.cow_faults,
            logical_pages: self.memory.logical_pages(),
            physical_pages: self.memory.physical_pages(),
            refs_done: self.refs_total,
        }
    }

    /// Builds the structured dump for a watchdog abort.
    fn stall_error(&self, now: Cycle, reason: StallReason) -> SimError {
        let mut in_flight: Vec<InFlightMsg> = self
            .queue
            .iter()
            .filter_map(|(due, ev)| match ev {
                Ev::Deliver(msg, _) => Some(InFlightMsg { due, msg: *msg }),
                Ev::CoreResume(_) | Ev::ReqTimeout { .. } => None,
            })
            .collect();
        in_flight.sort_by_key(|m| (m.due, m.msg.block));
        let stalled_cores: Vec<CoreStallState> = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.refs_done < self.cfg.refs_per_core)
            .map(|(tile, c)| CoreStallState {
                tile,
                vm: c.vm,
                refs_done: c.refs_done,
                refs_target: self.cfg.refs_per_core,
                outstanding: c.outstanding,
                pending: c.pending,
            })
            .collect();
        // The blocks with the most in-flight traffic, with every
        // controller's view of them — the usual deadlock suspects.
        let mut traffic: BTreeMap<Block, usize> = BTreeMap::new();
        for m in &in_flight {
            *traffic.entry(m.msg.block).or_default() += 1;
        }
        let mut ranked: Vec<(Block, usize)> = traffic.into_iter().collect();
        ranked.sort_by_key(|&(block, n)| (std::cmp::Reverse(n), block));
        let snap = self.proto.snapshot();
        let hot_blocks = ranked
            .into_iter()
            .take(4)
            .map(|(block, queued)| {
                let mut views = Vec::new();
                for (t, l1) in snap.l1.iter().enumerate() {
                    if let Some(c) = l1.get(&block) {
                        views.push(format!("L1 tile {t}: {:?} (version {})", c.state, c.version));
                    }
                }
                if let Some(v) = snap.l2.get(&block) {
                    views.push(format!(
                        "home L2: has_data={}, dirty={}, owner_in_l1={:?}, version={}",
                        v.has_data, v.dirty, v.owner_in_l1, v.version
                    ));
                }
                HotBlock { block, queued, views }
            })
            .collect();
        SimError::Stalled(Box::new(StallReport {
            reason,
            cycle: now,
            events: self.events,
            stalled_cores,
            in_flight,
            pending_summary: self.proto.pending_summary(),
            hot_blocks,
            trace_tail: self.tracer.as_ref().map(|t| t.tail_lines(16)).unwrap_or_default(),
            phase_lines: self.attr.as_ref().map(|a| a.stall_lines(now, 8)).unwrap_or_default(),
            fault: self.faults.as_ref().map(FaultState::context),
            artifact: None,
        }))
    }

    /// Builds the structured dump for a wall-clock deadline abort.
    fn timeout_error(&self, now: Cycle) -> SimError {
        let w = self.wall.as_ref().expect("timeout fired without an armed deadline");
        SimError::Timeout(Box::new(TimeoutReport {
            budget_ms: w.budget_ms(),
            elapsed_ms: w.elapsed_ms(),
            cycle: now,
            events: self.events,
            refs_done: self.refs_total,
            fault: self.faults.as_ref().map(FaultState::context),
            artifact: None,
        }))
    }

    fn protocol_fault(&self, now: Cycle, error: ProtoError) -> SimError {
        SimError::Protocol(Box::new(ProtocolFault {
            cycle: now,
            events: self.events,
            error,
            pending_summary: self.proto.pending_summary(),
            artifact: None,
        }))
    }

    /// Runs the per-message invariant checks after `msg` was handled.
    fn check_invariants(&mut self, now: Cycle, msg: &Msg) -> Result<(), SimError> {
        if let Some(chk) = &mut self.checker {
            chk.record_message(now, msg);
        } else {
            return Ok(());
        }
        let snap = self.proto.snapshot();
        // True quiescence needs an empty event queue too: fire-and-forget
        // traffic (hints, acks, writebacks) is not tracked by the
        // protocol's pending state.
        let quiescent = self.queue.is_empty() && self.proto.quiescent();
        let chk = self.checker.as_ref().expect("checked above");
        if let Err(violations) = chk.check_step(msg, &snap, quiescent) {
            return Err(SimError::InvariantViolation(Box::new(InvariantReport {
                cycle: now,
                events: self.events,
                trigger: format!("{:?} -> {:?}: {:?}", msg.src, msg.dst, msg.kind),
                block: msg.block,
                violations,
                history: chk.history_for(msg.block),
                artifact: None,
            })));
        }
        Ok(())
    }

    fn maybe_finish_warmup(&mut self, now: Cycle) {
        if self.warmed_up {
            return;
        }
        let total = self.refs_total;
        let target = (self.cfg.warmup_frac
            * (self.cfg.refs_per_core * self.cores.len() as u64) as f64) as u64;
        if total >= target {
            self.warmed_up = true;
            self.measure_start = now;
            self.refs_at_reset = total;
            self.proto.reset_stats();
            self.mesh.reset_stats();
            // The tracer's hop accounting mirrors the NoC counters, so
            // it resets with them (open transactions are kept).
            if let Some(tr) = &mut self.tracer {
                tr.reset();
            }
            // Attribution likewise: aggregates zero with the stats, and
            // open transactions keep their recorded spans so misses
            // straddling the boundary still reconcile against the
            // protocol's full-latency miss record.
            if let Some(a) = &mut self.attr {
                a.reset();
            }
            // Spatial counters cover the measurement window only.
            self.tile_misses.iter_mut().for_each(|m| *m = 0);
            for (base, c) in self.tile_refs_base.iter_mut().zip(&self.cores) {
                *base = c.refs_done;
            }
            self.build_sampler(now);
        }
    }

    /// Builds the interval sampler and its energy model at the warm-up
    /// boundary (`now` = the cycle the window closed). Also called when
    /// a snapshot is restored or forked: the snapshot is captured at
    /// exactly this boundary — stats freshly reset, zero samples taken
    /// — so rebuilding here reproduces the cold-run sampler state
    /// bit-for-bit, and a sampling run can share snapshots with a
    /// non-sampling one.
    fn build_sampler(&mut self, now: Cycle) {
        if let Some(interval) = self.cfg.sample_interval {
            let tiles = self.cfg.tiles() as u64;
            let areas = self.cfg.chip.num_areas() as u64;
            let leak = cmpsim_power::leakage_per_tile(self.proto.kind(), tiles, areas);
            self.energy_model =
                Some(cmpsim_power::EnergyModel::new(self.proto.kind(), tiles, areas));
            // The proto/NoC stats were just reset, but the per-core
            // ref counters were not — snapshot after the resets so
            // interval deltas cover the measurement window only.
            let base = self.cum_snapshot();
            self.sampler = Some(IntervalSampler::new(
                interval,
                now,
                base,
                leak.total_mw,
                tiles,
                self.mesh.directed_links(),
            ));
        }
    }

    /// Cumulative counter snapshot the interval sampler diffs against.
    fn cum_snapshot(&self) -> CumSnapshot {
        let ps = self.proto.stats();
        let ns = self.mesh.stats();
        let model = self.energy_model.as_ref().expect("built with the sampler");
        CumSnapshot {
            messages: ns.messages.get(),
            hops: ns.routing_events.get(),
            flit_links: ns.flit_link_traversals.get(),
            contention: ns.contention_cycles.get(),
            link_busy: self.mesh.link_busy().to_vec(),
            link_stall: self.mesh.link_contention().to_vec(),
            tile_misses: self.tile_misses.clone(),
            pred_lookups: ps.pred_lookups.get(),
            pred_hits: ps.pred_hits.get(),
            home_lookups: ps.home_lookups.get(),
            home_hits: ps.home_hits.get(),
            refs: self.cores.iter().map(|c| c.refs_done).sum(),
            cache_nj: model.cache_energy(ps).total(),
            net_nj: model.network_energy(ns).total(),
            phase: self.attr.as_ref().map(|a| a.phase_totals().0).unwrap_or_default(),
            faults_injected: self.faults.as_ref().map(|f| f.engine.stats().total()).unwrap_or(0),
            retries: ps.retries.get(),
            timeouts: ps.timeouts.get(),
        }
    }

    /// Takes any interval samples due at `now`.
    fn maybe_sample(&mut self, now: Cycle) {
        let due = match &self.sampler {
            Some(s) => s.due(now),
            None => return,
        };
        if !due {
            return;
        }
        let cum = self.cum_snapshot();
        let occ = self.proto.occupancy();
        if let Some(s) = &mut self.sampler {
            s.sample(now, &cum, &occ);
        }
    }

    /// (Re-)arms the host wall-clock deadline from the configuration.
    /// Called at each public run entry point so a forked or restored
    /// simulator gets a fresh budget, not the parent's leftovers.
    fn arm_deadline(&mut self) {
        self.wall = self.cfg.wall_deadline_ms.map(WallDeadline::new);
    }

    /// Seeds the initial per-tile core wakeups of a fresh run.
    fn seed_initial_events(&mut self) {
        for t in 0..self.cores.len() {
            self.queue.push(0, Ev::CoreResume(t));
        }
    }

    /// Drives the event loop until the queue drains, or — with
    /// `stop_at_warm` — until the warm-up window closes (the snapshot
    /// boundary). The per-event body is identical either way, so a run
    /// split at the boundary is bit-for-bit the same as an
    /// uninterrupted one.
    ///
    /// The loop is watched for forward progress: exceeding the
    /// [`SystemConfig::event_budget`], going a full `stall_window`
    /// without any core retiring a reference, or draining the queue
    /// with unfinished cores all abort into [`SimError::Stalled`] with
    /// a structured dump instead of spinning or panicking.
    fn run_phase(&mut self, stop_at_warm: bool) -> Result<PhaseExit, SimError> {
        let budget = self.cfg.event_budget();
        let stall_window = self.cfg.stall_window;
        while let Some((now, ev)) = self.queue.pop() {
            self.events += 1;
            if self.events > budget {
                return Err(self.stall_error(now, StallReason::EventBudget { budget }));
            }
            if now.saturating_sub(self.last_progress) > stall_window {
                return Err(self.stall_error(
                    now,
                    StallReason::NoProgress {
                        window: stall_window,
                        last_progress: self.last_progress,
                    },
                ));
            }
            // Host wall-clock deadline, layered on the simulated-time
            // watchdog above. The poll is a counter+mask in the common
            // case; the host clock is read once per 4096 events.
            if self.wall.as_mut().is_some_and(|w| w.poll()) {
                return Err(self.timeout_error(now));
            }
            match ev {
                Ev::CoreResume(tile) => self.core_resume(now, tile)?,
                Ev::ReqTimeout { tile, generation } => self.req_timeout(now, tile, generation)?,
                Ev::Deliver(msg, seq) => {
                    // Idempotent receive: a tracked sequence number that
                    // was already delivered (injected duplicate, or a
                    // retransmit whose original arrived) is absorbed
                    // here, before the protocol can observe it.
                    let duplicate = seq != 0
                        && self.faults.as_mut().is_some_and(|fs| !fs.seen.insert(seq));
                    if duplicate {
                        self.proto.stats_mut().dedup_drops.inc();
                        self.maybe_finish_warmup(now);
                        self.maybe_sample(now);
                        continue;
                    }
                    if self.trace_block == Some(msg.block) {
                        cmpsim_engine::debug_log::trace(now, format_args!("{msg:?}"));
                    }
                    let attr_on = self.attr.is_some();
                    let mut ctx = std::mem::take(&mut self.ctx_pool);
                    ctx.reset(now);
                    let attr_base = if attr_on { self.attr_cache_base() } else { [0; 7] };
                    if let Err(e) = self.proto.handle(&mut ctx, msg) {
                        return Err(self.protocol_fault(now, e));
                    }
                    // Charge this dispatch's cache events before the
                    // Ctx is applied (which may close the transaction).
                    if attr_on {
                        self.attr_record_cache_delta(msg.block, attr_base);
                    }
                    self.apply_ctx(now, &mut ctx);
                    self.ctx_pool = ctx;
                    if let Some((tile, block)) =
                        self.faults.as_mut().and_then(|fs| fs.violation.take())
                    {
                        let e = ProtoError::new(
                            self.proto.kind(),
                            Node::L1(tile),
                            block,
                            "completion without outstanding access (under fault injection)",
                        );
                        return Err(self.protocol_fault(now, e));
                    }
                    self.check_invariants(now, &msg)?;
                }
            }
            self.maybe_finish_warmup(now);
            self.maybe_sample(now);
            if stop_at_warm && self.warmed_up {
                return Ok(PhaseExit::Warmed);
            }
        }
        Ok(PhaseExit::Drained)
    }

    /// Runs to completion and returns the measured results.
    ///
    /// Equivalent to [`Self::warm_up`] followed by [`Self::resume`],
    /// with the two phases reported as separate `warmup` / `measure`
    /// spans in the host profile.
    pub fn run(mut self) -> Result<RunResult, SimError> {
        let mut prof = HostProfiler::new();
        self.arm_deadline();
        self.seed_initial_events();
        let t = std::time::Instant::now();
        let exit = self.run_phase(true);
        prof.record("warmup", t.elapsed().as_nanos() as u64);
        exit?;
        self.run_measure(prof)
    }

    /// Runs a fresh simulator up to the warm-up boundary — the snapshot
    /// point. Returns `true` when the boundary was reached, `false`
    /// when the queue drained first (a run whose warm-up window covers
    /// every reference). Call at most once, on a newly built simulator;
    /// follow with [`Self::save_snapshot`], [`Self::fork`], or
    /// [`Self::resume`].
    pub fn warm_up(&mut self) -> Result<bool, SimError> {
        self.arm_deadline();
        self.seed_initial_events();
        Ok(matches!(self.run_phase(true)?, PhaseExit::Warmed))
    }

    /// Completes a simulation from its current state: a warmed
    /// simulator ([`Self::warm_up`]), a restored snapshot
    /// ([`Self::restore_snapshot`]), or a fork ([`Self::fork`]).
    pub fn resume(mut self) -> Result<RunResult, SimError> {
        self.arm_deadline();
        self.run_measure(HostProfiler::new())
    }

    /// Measurement phase + finalization, with the loop reported as the
    /// `measure` host-profile span.
    fn run_measure(mut self, mut prof: HostProfiler) -> Result<RunResult, SimError> {
        let t = std::time::Instant::now();
        let exit = self.run_phase(false);
        prof.record("measure", t.elapsed().as_nanos() as u64);
        exit?;
        self.finalize(prof)
    }

    /// Collects the measured results after the event queue drained.
    fn finalize(mut self, mut prof: HostProfiler) -> Result<RunResult, SimError> {
        let tiles = self.cores.len();
        // The queue drained; anything left unfinished means a message or
        // wakeup was lost (no event remains that could ever revive it).
        let now = self.queue.now();
        let unfinished = self.cores.iter().any(|c| c.refs_done < self.cfg.refs_per_core);
        if unfinished || !self.proto.quiescent() {
            return Err(self.stall_error(now, StallReason::IncompleteDrain));
        }

        let finalize_start = std::time::Instant::now();
        let last_finish =
            self.cores.iter().map(|c| c.finished_at.unwrap_or(0)).max().unwrap_or(0);
        let avg_finish = self.cores.iter().map(|c| c.finished_at.unwrap_or(0) as f64).sum::<f64>()
            / tiles as f64;
        let total_refs: u64 = self.cores.iter().map(|c| c.refs_done).sum();
        // Per-VM mean completion time (the paper's ExecTime metric).
        let mut vm_sum = vec![0.0f64; self.cfg.num_vms];
        let mut vm_n = vec![0u64; self.cfg.num_vms];
        for c in &self.cores {
            vm_sum[c.vm] += c.finished_at.unwrap_or(0) as f64 - self.measure_start as f64;
            vm_n[c.vm] += 1;
        }
        let vm_finish: Vec<f64> =
            vm_sum.iter().zip(&vm_n).map(|(s, &n)| s / n.max(1) as f64).collect();
        // Close out the observability layers before the stats are moved.
        let timeseries = self.sampler.take().map(|s| {
            let cum = self.cum_snapshot();
            let occ = self.proto.occupancy();
            s.finish(now, &cum, &occ)
        });
        let trace = self.tracer.take().map(TxTracer::finish);
        let mut result = RunResult::collect(
            self.proto.kind(),
            self.benchmark,
            self.cfg.placement,
            self.cfg.tiles() as u64,
            self.cfg.chip.num_areas() as u64,
            last_finish.saturating_sub(self.measure_start).max(1),
            total_refs - self.refs_at_reset,
            avg_finish.max(1.0) - self.measure_start as f64,
            vm_finish,
            self.proto.stats(),
            self.mesh.stats(),
            self.memory.dedup_savings(),
        );
        result.timeseries = timeseries;
        result.trace = trace;
        result.breakdown = self.attr.take().map(TxAttribution::finish);
        result.spatial = Some(SpatialLog {
            rows: self.cfg.noc.rows as u64,
            cols: self.cfg.noc.cols as u64,
            link_flits: self.mesh.link_busy().to_vec(),
            link_contention: self.mesh.link_contention().to_vec(),
            tile_misses: self.tile_misses.clone(),
            tile_refs: self
                .cores
                .iter()
                .zip(&self.tile_refs_base)
                .map(|(c, &base)| c.refs_done - base)
                .collect(),
            vm_of: self.cores.iter().map(|c| c.vm).collect(),
        });
        result.arch = Some(self.arch_state());
        result.faults = self.faults.as_ref().map(FaultState::context);
        result.manifest =
            Some(crate::manifest::RunManifest::new(result.protocol, self.benchmark, &self.cfg));
        prof.record("finalize", finalize_start.elapsed().as_nanos() as u64);
        result.host = prof.finish(self.events, result.cycles);
        Ok(result)
    }

    /// Stable wire tag for the protocol, embedded in snapshot payloads
    /// so an image decoded under the wrong protocol fails closed.
    fn proto_tag(kind: ProtocolKind) -> u8 {
        match kind {
            ProtocolKind::Directory => 0,
            ProtocolKind::DiCo => 1,
            ProtocolKind::DiCoProviders => 2,
            ProtocolKind::DiCoArin => 3,
        }
    }

    /// Serialises the complete machine state into a versioned snapshot
    /// image: protocol (caches, MSHRs, directory and every in-flight
    /// transaction), NoC link state, the calendar event queue, core and
    /// workload cursors, hypervisor memory, RNG streams, fault-plan
    /// cursors, and the warm-up bookkeeping. `key` must come from
    /// [`snapshot::snapshot_key`] for the same (protocol, benchmark,
    /// config) triple — restore validates it.
    ///
    /// Only valid on observer-free simulators (the [`snapshot_eligible`]
    /// precondition): the tracer, invariant checker and attribution
    /// accumulate pre-warm-up history that is deliberately not part of
    /// the image.
    pub fn save_snapshot(&self, key: u64) -> Vec<u8> {
        debug_assert!(
            self.checker.is_none() && self.tracer.is_none() && self.attr.is_none(),
            "snapshots are only taken from observer-free simulators"
        );
        let mut w = SnapWriter::with_capacity(1 << 16);
        w.u8(Self::proto_tag(self.proto.kind()));
        self.proto.save_state(&mut w);
        self.mesh.save(&mut w);
        w.u64(self.queue.now());
        self.queue.snapshot_events().save(&mut w);
        w.len_prefix(self.cores.len());
        for c in &self.cores {
            // The VM leads its core record: decoding needs it to pick
            // the workload profile the stream cursor belongs to.
            c.vm.save(&mut w);
            c.stream.snap_save(&mut w);
            c.pending.save(&mut w);
            c.outstanding.save(&mut w);
            c.refs_done.save(&mut w);
            c.finished_at.save(&mut w);
        }
        self.memory.snap_save(&mut w);
        self.rng.save(&mut w);
        self.fifo.save(&mut w);
        self.ctrl_free.save(&mut w);
        self.warmed_up.save(&mut w);
        self.measure_start.save(&mut w);
        self.refs_at_reset.save(&mut w);
        self.events.save(&mut w);
        self.last_progress.save(&mut w);
        self.refs_total.save(&mut w);
        self.faults.save(&mut w);
        self.tile_misses.save(&mut w);
        self.tile_refs_base.save(&mut w);
        let payload = w.into_bytes();
        // Header + payload + trailing payload digest: flipping any
        // payload byte is detected before decoding starts.
        let mut out = SnapWriter::with_capacity(payload.len() + 32);
        snapshot::write_header(&mut out, key);
        out.raw(&payload);
        out.u64(crate::manifest::digest(&payload));
        out.into_bytes()
    }

    /// Rebuilds a simulator from a snapshot image taken by
    /// [`Self::save_snapshot`] under the same (protocol, benchmark,
    /// config) triple. Resuming it is bit-for-bit identical to the
    /// uninterrupted run. Every defect — wrong key, foreign version,
    /// truncation, corruption — surfaces as a typed
    /// [`SimError::Snapshot`]; this function never panics on bad input.
    pub fn restore_snapshot(
        kind: ProtocolKind,
        benchmark: Benchmark,
        cfg: &SystemConfig,
        bytes: &[u8],
    ) -> Result<Self, SimError> {
        let key = snapshot::snapshot_key(kind, benchmark, cfg);
        let mut r = snapshot::read_header(bytes, key)?;
        let rem = r.remaining();
        if rem < 8 {
            return Err(SnapshotError::new("truncated: no payload digest").into());
        }
        let payload = r.raw(rem - 8).expect("sized above");
        let sum = r.u64().expect("sized above");
        r.finish().map_err(|e| SnapshotError::from_snap("image", e))?;
        if crate::manifest::digest(payload) != sum {
            return Err(SnapshotError::new("payload digest mismatch: image is corrupted").into());
        }
        let mut pr = SnapReader::new(payload);
        let mut sim = Self::decode_payload(kind, benchmark, cfg, &mut pr)
            .map_err(|e| SnapshotError::from_snap("payload", e))?;
        pr.finish().map_err(|e| SnapshotError::from_snap("payload", e))?;
        if sim.warmed_up {
            sim.build_sampler(sim.measure_start);
        }
        Ok(sim)
    }

    fn decode_payload(
        kind: ProtocolKind,
        benchmark: Benchmark,
        cfg: &SystemConfig,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, SnapError> {
        let mut sim = Self::new(kind, benchmark, cfg);
        let tag = r.u8()?;
        if tag != Self::proto_tag(kind) {
            return Err(SnapError::BadTag { what: "snapshot protocol", tag });
        }
        sim.proto.load_state(r)?;
        sim.mesh = Snap::load(r)?;
        let queue_now = r.u64()?;
        let events: Vec<(Cycle, Ev)> = Snap::load(r)?;
        sim.queue = EventQueue::from_snapshot(queue_now, events);
        let n = r.len_prefix("snapshot cores", 8)?;
        if n != sim.cores.len() {
            return Err(SnapError::Corrupt("core count does not match configuration"));
        }
        for c in sim.cores.iter_mut() {
            let vm: usize = Snap::load(r)?;
            if vm != c.vm {
                return Err(SnapError::Corrupt("core VM assignment does not match configuration"));
            }
            let profile = benchmark.profile_for_vm(vm, cfg.num_vms);
            c.stream = CoreStream::snap_load(profile, r)?;
            c.pending = Snap::load(r)?;
            c.outstanding = Snap::load(r)?;
            c.refs_done = Snap::load(r)?;
            c.finished_at = Snap::load(r)?;
        }
        sim.memory = MachineMemory::snap_load(r, cfg.num_vms)?;
        sim.rng = Snap::load(r)?;
        sim.fifo = FifoFloors::load(r, cfg.tiles())?;
        sim.ctrl_free = Snap::load(r)?;
        sim.warmed_up = Snap::load(r)?;
        sim.measure_start = Snap::load(r)?;
        sim.refs_at_reset = Snap::load(r)?;
        sim.events = Snap::load(r)?;
        sim.last_progress = Snap::load(r)?;
        sim.refs_total = Snap::load(r)?;
        sim.faults = Snap::load(r)?;
        sim.tile_misses = Snap::load(r)?;
        sim.tile_refs_base = Snap::load(r)?;
        Ok(sim)
    }

    /// Cheap in-memory fork: duplicates the full machine state so many
    /// measurement legs can branch from one warmed simulator without
    /// serialising anything. Only valid on observer-free simulators
    /// (the [`snapshot_eligible`] precondition), and meant to be taken
    /// at the warm-up boundary — the fork's interval sampler is rebuilt
    /// there, exactly like a snapshot restore.
    pub fn fork(&self) -> Self {
        assert!(
            self.checker.is_none() && self.tracer.is_none() && self.attr.is_none(),
            "fork is only valid on observer-free simulators"
        );
        let mut f = Self {
            cfg: self.cfg.clone(),
            proto: self.proto.clone(),
            mesh: self.mesh.clone(),
            queue: self.queue.clone(),
            cores: self.cores.clone(),
            memory: self.memory.clone(),
            benchmark: self.benchmark,
            rng: self.rng.clone(),
            fifo: self.fifo.clone(),
            ctx_pool: Ctx::default(),
            trace_block: self.trace_block,
            wall: None,
            ctrl_free: self.ctrl_free.clone(),
            warmed_up: self.warmed_up,
            measure_start: self.measure_start,
            refs_at_reset: self.refs_at_reset,
            events: self.events,
            last_progress: self.last_progress,
            refs_total: self.refs_total,
            checker: None,
            tracer: None,
            attr: None,
            sampler: None,
            energy_model: None,
            faults: self.faults.clone(),
            tile_misses: self.tile_misses.clone(),
            tile_refs_base: self.tile_refs_base.clone(),
        };
        if f.warmed_up {
            f.build_sampler(f.measure_start);
        }
        f
    }
}

/// True when runs under `cfg` may take and share warm-state snapshots:
/// the accumulating observers (tracer, invariant checker, attribution)
/// hold pre-warm-up history a restored run would lack, so runs using
/// them always execute cold. Interval sampling is fine — the sampler is
/// created at the warm-up boundary, exactly where snapshots restore.
pub fn snapshot_eligible(cfg: &SystemConfig) -> bool {
    !cfg.tracing && !cfg.check_invariants && !cfg.attribution
}

/// One cell through the snapshot store: restore the warmed state when
/// an image for this key exists, otherwise simulate the warm-up phase,
/// capture it for every later run sharing the key, and continue with
/// the same simulator (capturing costs one serialisation, never a
/// second warm-up). Snapshot spans (`snapshot.save` /
/// `snapshot.restore`) land in the host profile next to `warmup` and
/// `measure`.
fn run_via_store(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
    store: &SnapshotStore,
) -> Result<RunResult, SimError> {
    let key = snapshot::snapshot_key(kind, benchmark, cfg);
    let mut prof = HostProfiler::new();
    if let Some(bytes) = store.get(key)? {
        let t = std::time::Instant::now();
        let sim = CmpSimulator::restore_snapshot(kind, benchmark, cfg, &bytes)?;
        prof.record("snapshot.restore", t.elapsed().as_nanos() as u64);
        return sim.run_measure(prof);
    }
    let mut sim = CmpSimulator::new(kind, benchmark, cfg);
    sim.seed_initial_events();
    let t = std::time::Instant::now();
    let exit = sim.run_phase(true);
    prof.record("warmup", t.elapsed().as_nanos() as u64);
    if matches!(exit?, PhaseExit::Warmed) {
        let t = std::time::Instant::now();
        let bytes = sim.save_snapshot(key);
        prof.record("snapshot.save", t.elapsed().as_nanos() as u64);
        store.put(key, bytes)?;
    }
    sim.run_measure(prof)
}

/// Runs one protocol on one benchmark. On failure, a replay artifact
/// (protocol + benchmark + seed + full config, see [`ReplayArtifact`])
/// is written to [`ReplayArtifact::dump_dir`] and its path attached to
/// the returned [`SimError`], so `cmpsim-cli replay <file>` can re-run
/// the failure deterministically.
pub fn run_benchmark(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
) -> Result<RunResult, SimError> {
    run_benchmark_with_store(kind, benchmark, cfg, None)
}

/// [`run_benchmark`] with an optional [`SnapshotStore`]: eligible runs
/// (see [`snapshot_eligible`]) restore their warm-up phase from the
/// store when a matching image exists and contribute one when none
/// does. Ineligible runs execute cold, unchanged.
pub fn run_benchmark_with_store(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
    store: Option<&SnapshotStore>,
) -> Result<RunResult, SimError> {
    let result = match store.filter(|_| snapshot_eligible(cfg)) {
        Some(store) => run_via_store(kind, benchmark, cfg, store),
        None => CmpSimulator::new(kind, benchmark, cfg).run(),
    };
    result.map_err(|mut e| {
        // A wall-clock timeout is a host-side condition: replaying the
        // cell would not reproduce it (the artifact config carries no
        // deadline, deliberately), so no crash dump is written.
        if matches!(e, SimError::Timeout(_)) {
            return e;
        }
        let artifact = ReplayArtifact::new(
            kind,
            benchmark,
            e.kind_label(),
            e.failing_cycle(),
            e.events(),
            cfg,
        );
        if let Ok(path) = artifact.save(None) {
            e.set_artifact(path);
        }
        e
    })
}

/// Runs every (protocol, benchmark) pair of the given lists in parallel
/// across host cores, returning results in row-major order
/// (`benchmarks x protocols`). The first failing cell's error is
/// returned (its replay artifact is still written).
pub fn run_matrix(
    protocols: &[ProtocolKind],
    benchmarks: &[Benchmark],
    cfg: &SystemConfig,
) -> Result<Vec<RunResult>, SimError> {
    run_matrix_with_progress(protocols, benchmarks, cfg, None)
}

/// [`run_matrix`] with an optional live-telemetry sink: every finished
/// cell reports its name, host events/s and ETA to `progress` as it
/// completes (completion order, not row-major order — the stream is
/// host-side telemetry, the returned results stay deterministic).
pub fn run_matrix_with_progress(
    protocols: &[ProtocolKind],
    benchmarks: &[Benchmark],
    cfg: &SystemConfig,
    progress: Option<&crate::progress::ProgressSink>,
) -> Result<Vec<RunResult>, SimError> {
    run_matrix_with_options(protocols, benchmarks, cfg, progress, None, None)
}

/// [`run_matrix_with_progress`] plus the sweep-level knobs: an explicit
/// worker-thread count (`None` = one per host core) and a shared
/// [`SnapshotStore`]. With a store, all cells sharing a snapshot key
/// warm up once; the rest fork from the captured image — and with a
/// disk-backed store the warm-up survives across invocations.
pub fn run_matrix_with_options(
    protocols: &[ProtocolKind],
    benchmarks: &[Benchmark],
    cfg: &SystemConfig,
    progress: Option<&crate::progress::ProgressSink>,
    threads: Option<usize>,
    store: Option<&SnapshotStore>,
) -> Result<Vec<RunResult>, SimError> {
    let jobs: Vec<(ProtocolKind, Benchmark)> = benchmarks
        .iter()
        .flat_map(|&b| protocols.iter().map(move |&p| (p, b)))
        .collect();
    let threads = threads.unwrap_or_else(num_threads);
    let out = par_map_with_threads(&jobs, threads, |&(p, b)| {
        let r = run_benchmark_with_store(p, b, cfg, store);
        if let Some(sink) = progress {
            let cell = format!("{}/{}", p.name(), b.name());
            match &r {
                Ok(res) => {
                    sink.cell_done(&cell, "ok", res.host.events, res.host.events_per_sec())
                }
                Err(e) => sink.cell_done(&cell, e.kind_label(), 0, 0.0),
            }
        }
        r
    })
    .into_iter()
    .collect();
    if let Some(sink) = progress {
        sink.finish();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The architectural digest as first written: probe all 64 blocks
    /// of every mapped page in a whole-chip protocol snapshot. Kept as
    /// the oracle for [`CmpSimulator::arch_state`].
    fn reference_arch_state(sim: &CmpSimulator) -> ArchState {
        let snap = sim.proto.snapshot();
        let mut digest = ARCH_DIGEST_SEED;
        let mut versioned_blocks = 0u64;
        for (vm, region, index, ppn) in sim.memory.mappings() {
            for off in 0..BLOCKS_PER_PAGE {
                let block = ppn * BLOCKS_PER_PAGE + off;
                let version = snap.authority.get(&block).copied().unwrap_or(0);
                if version == 0 {
                    continue;
                }
                versioned_blocks += 1;
                digest = arch_fold(digest, vm, region, index, off, version);
            }
        }
        sim.arch_with(digest, versioned_blocks)
    }

    /// Runs a cell to the drained end state, then returns the
    /// reference digest of that state with the finalized result.
    fn run_with_reference(
        kind: ProtocolKind,
        benchmark: Benchmark,
        cfg: &SystemConfig,
    ) -> (ArchState, CmpSimulator) {
        let mut sim = CmpSimulator::new(kind, benchmark, cfg);
        sim.warm_up().expect("warm-up");
        sim.run_phase(false).expect("measure");
        (reference_arch_state(&sim), sim)
    }

    #[test]
    fn arch_digest_matches_full_snapshot_reference() {
        let cfg = SystemConfig::smoke();
        for kind in ProtocolKind::all() {
            for benchmark in Benchmark::all() {
                let (reference, sim) = run_with_reference(kind, benchmark, &cfg);
                let r = sim.finalize(HostProfiler::new()).expect("finalize");
                assert_eq!(r.arch, Some(reference), "{kind:?} {benchmark:?}");
                assert!(reference.versioned_blocks > 0, "{kind:?} {benchmark:?} wrote nothing");
            }
        }
    }

    #[test]
    fn arch_digest_matches_reference_on_copy_on_written_pages() {
        let cfg = SystemConfig::smoke()
            .with_refs(2000)
            .with_fault_plan(Some(FaultPlan::recoverable(7)));
        let (reference, sim) = run_with_reference(ProtocolKind::DiCo, Benchmark::Apache, &cfg);
        // Precondition: some version lives on a dedup page this run
        // copied on write (a Dedup-region mapping now backed privately).
        let authority = sim.proto.authority();
        let cow_versioned = sim.memory.mappings().any(|(_, region, _, ppn)| {
            region == Region::Dedup
                && sim.memory.kind_of_block(ppn * BLOCKS_PER_PAGE) == Some(PageKind::Private)
                && (0..BLOCKS_PER_PAGE).any(|off| authority.latest(ppn * BLOCKS_PER_PAGE + off) > 0)
        });
        assert!(cow_versioned, "no version landed on a copy-on-written page");
        let r = sim.finalize(HostProfiler::new()).expect("recovered run");
        let fired = r.faults.as_ref().expect("fault plan set").fired;
        assert!(fired.total() > 0, "no fault fired");
        assert_eq!(r.arch, Some(reference));
    }

    #[test]
    fn smoke_all_protocols_complete() {
        let cfg = SystemConfig::smoke();
        for kind in ProtocolKind::all() {
            let r = run_benchmark(kind, Benchmark::Radix, &cfg).expect("run");
            assert!(r.measured_refs > 0, "{kind:?}");
            assert!(r.cycles > 0);
            assert!(r.proto_stats.l1_hits.get() > 0, "{kind:?} should have hits");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SystemConfig::smoke();
        let a = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
        let b = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.measured_refs, b.measured_refs);
        assert_eq!(a.noc_stats.messages.get(), b.noc_stats.messages.get());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SystemConfig::smoke();
        let a = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
        let b = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg.clone().with_seed(99))
            .expect("run");
        assert_ne!(a.cycles, b.cycles);
    }

    #[test]
    fn alt_placement_runs() {
        let cfg = SystemConfig::smoke().with_placement(cmpsim_virt::Placement::Alternative);
        let r = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Apache, &cfg).expect("run");
        assert!(r.measured_refs > 0);
    }

    #[test]
    fn dedup_savings_reported() {
        let cfg = SystemConfig::small();
        let r = run_benchmark(ProtocolKind::Directory, Benchmark::Apache, &cfg).expect("run");
        // Apache's pools are sized for ~21.7% savings once fully touched;
        // a short run underestimates but must be clearly nonzero.
        assert!(r.dedup_savings > 0.02, "savings {}", r.dedup_savings);
    }

    #[test]
    fn matrix_runs_in_parallel() {
        let cfg = SystemConfig::smoke();
        let rs = run_matrix(
            &[ProtocolKind::Directory, ProtocolKind::DiCoArin],
            &[Benchmark::Radix, Benchmark::Apache],
            &cfg,
        )
        .expect("matrix");
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].protocol, ProtocolKind::Directory);
        assert_eq!(rs[0].benchmark.name(), "radix4x16p");
        assert_eq!(rs[3].protocol, ProtocolKind::DiCoArin);
    }

    #[test]
    fn event_budget_trips_watchdog() {
        let cfg = SystemConfig::smoke().with_event_budget(100);
        let err = CmpSimulator::new(ProtocolKind::DiCo, Benchmark::Radix, &cfg)
            .run()
            .expect_err("a 100-event budget cannot finish a smoke run");
        match err {
            SimError::Stalled(r) => {
                assert_eq!(r.reason, StallReason::EventBudget { budget: 100 });
                assert_eq!(r.events, 101);
                assert!(!r.stalled_cores.is_empty(), "no core can have finished");
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn stall_window_trips_watchdog() {
        // Every L1 miss takes >= mem_latency cycles, so a tiny window
        // declares NoProgress on the first one.
        let cfg = SystemConfig::smoke().with_stall_window(3);
        let err = CmpSimulator::new(ProtocolKind::Directory, Benchmark::Radix, &cfg)
            .run()
            .expect_err("a 3-cycle window cannot survive a memory access");
        match err {
            SimError::Stalled(r) => {
                assert!(matches!(r.reason, StallReason::NoProgress { window: 3, .. }));
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    #[test]
    fn invariant_checker_passes_clean_runs() {
        let cfg = SystemConfig::smoke().with_invariant_checks();
        for kind in ProtocolKind::all() {
            let r = run_benchmark(kind, Benchmark::Radix, &cfg)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(r.measured_refs > 0);
        }
    }

    #[test]
    fn attribution_does_not_change_timing() {
        let cfg = SystemConfig::smoke();
        let plain = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Apache, &cfg).expect("run");
        let attributed = run_benchmark(
            ProtocolKind::DiCoArin,
            Benchmark::Apache,
            &cfg.clone().with_attribution(),
        )
        .expect("attributed run");
        assert_eq!(plain.cycles, attributed.cycles);
        assert_eq!(plain.measured_refs, attributed.measured_refs);
        assert_eq!(plain.noc_stats.messages.get(), attributed.noc_stats.messages.get());
        assert!(plain.breakdown.is_none());
        assert!(attributed.breakdown.is_some());
    }

    #[test]
    fn attribution_reconciles_every_miss() {
        let cfg = SystemConfig::smoke().with_attribution();
        for kind in ProtocolKind::all() {
            let r = run_benchmark(kind, Benchmark::Radix, &cfg).expect("run");
            let b = r.breakdown.as_ref().expect("breakdown enabled");
            assert_eq!(b.completed, r.proto_stats.miss_latency.count(), "{kind:?}");
            assert_eq!(b.reconciled, b.completed, "{kind:?} must reconcile every miss");
            assert_eq!(b.phase_cycles.total(), b.latency_cycles, "{kind:?}");
            assert_eq!(b.latency_cycles, r.proto_stats.miss_latency.sum(), "{kind:?}");
            assert_eq!(b.open_txs, 0, "{kind:?}: a drained run leaves no open tx");
        }
    }

    #[test]
    fn spatial_counters_tile_chip_aggregates() {
        let cfg = SystemConfig::smoke().with_attribution();
        let r = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
        let s = r.spatial.as_ref().expect("spatial log always attached");
        assert_eq!((s.rows * s.cols) as usize, s.tile_misses.len());
        assert_eq!(
            s.tile_misses.iter().sum::<u64>(),
            r.proto_stats.l1_misses.get(),
            "per-tile misses must sum to the chip L1 miss counter"
        );
        assert_eq!(
            s.link_flits.iter().sum::<u64>(),
            r.noc_stats.flit_link_traversals.get(),
            "per-link flits must sum to the chip flit counter"
        );
        assert_eq!(
            s.link_contention.iter().sum::<u64>(),
            r.noc_stats.contention_cycles.get(),
            "per-link stalls must sum to the chip contention counter"
        );
        assert_eq!(s.tile_refs.iter().sum::<u64>(), r.measured_refs);
        // Per-VM attribution buckets tile the chip aggregates.
        let b = r.breakdown.as_ref().expect("attribution on");
        assert_eq!(b.vm.len(), cfg.num_vms);
        assert_eq!(b.vm.iter().map(|v| v.completed).sum::<u64>(), b.completed);
        assert_eq!(b.vm.iter().map(|v| v.latency_cycles).sum::<u64>(), b.latency_cycles);
        assert!(b.vm.iter().any(|v| v.completed > 0), "some VM saw traffic");
    }

    #[test]
    fn checker_does_not_change_timing() {
        let cfg = SystemConfig::smoke();
        let plain = run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &cfg).expect("run");
        let checked =
            run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &cfg.clone().with_invariant_checks())
                .expect("checked run");
        assert_eq!(plain.cycles, checked.cycles);
        assert_eq!(plain.measured_refs, checked.measured_refs);
    }

    fn encode_fifo(fifo: &FifoFloors) -> Vec<u8> {
        let mut w = SnapWriter::new();
        fifo.save(&mut w);
        w.into_bytes()
    }

    /// One `(src, dst, floor)` entry image with raw tile numbers.
    fn fifo_image(entries: &[(u8, u64, u8, u64, u64)]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.len_prefix(entries.len());
        for &(src_tag, src, dst_tag, dst, floor) in entries {
            w.u8(src_tag);
            w.u64(src);
            w.u8(dst_tag);
            w.u64(dst);
            w.u64(floor);
        }
        w.into_bytes()
    }

    #[test]
    fn fifo_floors_keep_the_sorted_map_encoding() {
        let tiles = 4;
        let mut map: FxHashMap<(Node, Node), Cycle> = FxHashMap::default();
        let mut fifo = FifoFloors::new(tiles);
        let mut rng = SimRng::new(5);
        for _ in 0..40 {
            let node = |x: u64| if x & 1 == 0 { Node::L1(x as usize / 2) } else { Node::L2(x as usize / 2) };
            let (src, dst) = (node(rng.gen_range(8)), node(rng.gen_range(8)));
            let at = 1 + rng.gen_range(1000);
            let floor = map.entry((src, dst)).or_insert(0);
            *floor = at.max(*floor);
            assert_eq!(fifo.admit(src, dst, at), *floor);
        }
        let mut w = SnapWriter::new();
        map.save(&mut w);
        let map_bytes = w.into_bytes();
        assert_eq!(encode_fifo(&fifo), map_bytes);
        let back = FifoFloors::load(&mut SnapReader::new(&map_bytes), tiles).expect("decode");
        assert_eq!(encode_fifo(&back), map_bytes);
    }

    #[test]
    fn fifo_floor_source_outside_the_chip_is_refused() {
        let bytes = fifo_image(&[(0, 4, 1, 0, 9)]);
        let err = FifoFloors::load(&mut SnapReader::new(&bytes), 4).err();
        assert!(matches!(err, Some(SnapError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn fifo_floor_destination_outside_the_chip_is_refused() {
        let bytes = fifo_image(&[(0, 0, 1, u64::MAX, 9)]);
        let err = FifoFloors::load(&mut SnapReader::new(&bytes), 4).err();
        assert!(matches!(err, Some(SnapError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn fifo_floor_pairs_out_of_order_are_refused() {
        let bytes = fifo_image(&[(1, 0, 0, 0, 9), (0, 3, 0, 0, 9)]);
        let err = FifoFloors::load(&mut SnapReader::new(&bytes), 4).err();
        assert!(matches!(err, Some(SnapError::Corrupt(_))), "{err:?}");
    }

    /// Rewrites the payload section whose encoding is `section` with
    /// `edit`, then re-seals the image with a matching payload digest,
    /// so only the section decoder can catch the damage.
    fn tamper(image: &[u8], section: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut header = SnapWriter::new();
        snapshot::write_header(&mut header, 0);
        let at = image.windows(section.len()).position(|w| w == section).expect("section in image");
        let mut out = image[..image.len() - 8].to_vec();
        edit(&mut out[at..at + section.len()]);
        let sum = crate::manifest::digest(&out[header.len()..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Restores `image` and asserts it fails as `E-SNAPSHOT` naming `why`.
    fn expect_e_snapshot(kind: ProtocolKind, b: Benchmark, cfg: &SystemConfig, image: &[u8], why: &str) {
        match CmpSimulator::restore_snapshot(kind, b, cfg, image) {
            Err(e @ SimError::Snapshot(_)) => {
                assert_eq!(e.code(), "E-SNAPSHOT");
                assert!(e.to_string().contains(why), "{e}");
            }
            Err(other) => panic!("expected SimError::Snapshot, got {other}"),
            Ok(_) => panic!("a corrupt image was accepted ({why})"),
        }
    }

    #[test]
    fn restore_maps_corrupt_dense_tables_to_e_snapshot() {
        let cfg = SystemConfig::smoke();
        let (kind, b) = (ProtocolKind::Directory, Benchmark::Radix);
        let mut sim = CmpSimulator::new(kind, b, &cfg);
        assert!(sim.warm_up().expect("warm-up"));
        let image = sim.save_snapshot(snapshot::snapshot_key(kind, b, &cfg));
        assert!(CmpSimulator::restore_snapshot(kind, b, &cfg, &image).is_ok());

        let fifo = encode_fifo(&sim.fifo);
        assert!(fifo.len() > 8, "warm-up scheduled no delivery");
        // The first entry's source tile follows the count and its tag.
        let tiles = (cfg.tiles() as u64).to_le_bytes();
        let bad = tamper(&image, &fifo, |f| f[9..17].copy_from_slice(&tiles));
        expect_e_snapshot(kind, b, &cfg, &bad, "outside the chip");

        let mut w = SnapWriter::new();
        sim.memory.snap_save(&mut w);
        let memory = w.into_bytes();
        // Shrinking `next_ppn` orphans the last allocated page.
        let next_ppn = (sim.memory.physical_pages() - 1).to_le_bytes();
        let bad = tamper(&image, &memory, |m| m[..8].copy_from_slice(&next_ppn));
        expect_e_snapshot(kind, b, &cfg, &bad, "corrupt snapshot");
    }

    #[test]
    fn restore_maps_corrupt_cache_arrays_to_e_snapshot() {
        let cfg = SystemConfig::smoke();
        let (kind, b) = (ProtocolKind::Directory, Benchmark::Radix);
        let mut sim = CmpSimulator::new(kind, b, &cfg);
        assert!(sim.warm_up().expect("warm-up"));
        let image = sim.save_snapshot(snapshot::snapshot_key(kind, b, &cfg));

        // Tile 0's L1 opens with its geometry and then its set count.
        let l1 = cfg.chip.l1;
        let mut w = SnapWriter::new();
        l1.save(&mut w);
        w.len_prefix(l1.sets);
        let head = w.into_bytes();
        let count = head.len() - 8;
        let bad = tamper(&image, &head, |h| h[count..].copy_from_slice(&1u64.to_le_bytes()));
        expect_e_snapshot(kind, b, &cfg, &bad, "set count");

        // Leading empty sets are bare zero lengths; the first non-zero
        // length is followed by that set's first line's block.
        let at = image.windows(head.len()).position(|h| h == head).expect("L1 in image");
        let u64_at = |i: usize| u64::from_le_bytes(image[i..i + 8].try_into().expect("8 bytes"));
        let mut len_at = at + head.len();
        while u64_at(len_at) == 0 {
            len_at += 8;
        }
        assert!(len_at < at + head.len() + 8 * l1.sets, "tile 0's L1 is empty after warm-up");
        let moved = (u64_at(len_at + 8) + (1 << l1.index_shift)).to_le_bytes();
        let bad = tamper(&image, &image[at..len_at + 16], |s| {
            let end = s.len();
            s[end - 8..].copy_from_slice(&moved)
        });
        expect_e_snapshot(kind, b, &cfg, &bad, "wrong set");
    }
}
