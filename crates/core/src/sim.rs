//! The whole-chip simulator: cores, NoC, memory controllers and one
//! coherence protocol, driven by a deterministic event loop.

use crate::config::SystemConfig;
use crate::error::{
    CoreStallState, FaultAbort, FaultContext, HotBlock, InFlightMsg, InvariantReport,
    ProtocolFault, SimError, StallReason, StallReport, TimeoutReport,
};
use crate::interval::{CumSnapshot, IntervalSampler};
use crate::observers::{MsgEvent, Observers, Wire};
use crate::replay::ReplayArtifact;
use crate::result::{ArchState, RunResult, SpatialLog};
use crate::snapshot::{self, SnapshotError, SnapshotStore};
use cmpsim_engine::rng::splitmix64;
use cmpsim_engine::{
    Cycle, EventQueue, FaultDecision, FaultEngine, FaultPlan, FxHashMap, FxHashSet, HostProfiler,
    SimRng, Snap, SnapError, SnapReader, SnapWriter, WallDeadline,
};
use cmpsim_noc::{Delivery, Mesh};
use cmpsim_protocols::arin::Arin;
use cmpsim_protocols::checker::StepChecker;
use cmpsim_protocols::common::{
    AccessOutcome, Block, ChipSpec, CoherenceProtocol, Ctx, Msg, MsgKind, Node, ProtoError, Tile,
    MAX_TILES,
};
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::providers::Providers;
use cmpsim_protocols::ProtocolKind;
use cmpsim_virt::mem::{LogicalPage, Region, BLOCKS_PER_PAGE};
use cmpsim_virt::MachineMemory;
use cmpsim_workloads::{Benchmark, CoreStream};
use std::collections::BTreeMap;
use std::path::Path;

/// Builds a protocol instance for `spec`.
pub fn build_protocol(kind: ProtocolKind, spec: ChipSpec) -> Box<dyn CoherenceProtocol> {
    match kind {
        ProtocolKind::Directory => Box::new(Directory::new(spec)),
        ProtocolKind::DiCo => Box::new(DiCo::new(spec)),
        ProtocolKind::DiCoProviders => Box::new(Providers::new(spec)),
        ProtocolKind::DiCoArin => Box::new(Arin::new(spec)),
    }
}

/// One logical event of the loop. The event queue does not store it:
/// it stores an 8-byte [`EvRef`], with a wake-up held inline and the
/// other events parked in the [`SlottedQueue`]'s slab. `Ev` is what the
/// loop dispatches and what snapshots and stall dumps list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// An event-queue entry's payload: 8 bytes, so an entry with its cycle
/// is 16. Core wake-ups, about four in five events, carry their tile
/// inline; a delivery or a request timeout names its slab slot.
#[derive(Debug, Clone, Copy)]
enum EvRef {
    /// [`Ev::CoreResume`] of this tile.
    Resume(u32),
    /// The [`Ev`] parked in this slot of [`SlottedQueue::parked`].
    Parked(u32),
}

/// The simulator's event queue: an [`EventQueue`] of 8-byte [`EvRef`]
/// handles plus the slab their parked events live in. Pushes and pops
/// keep `(cycle, push order)` order, exactly as an `EventQueue<Ev>`
/// would, while moving 16 bytes per entry instead of 120.
#[derive(Debug, Clone, Default)]
struct SlottedQueue {
    queue: EventQueue<EvRef>,
    /// Parked deliveries and timeouts. A slot is freed when its event
    /// pops and reused by the next park (`free` is a stack), so the
    /// slab is never longer than the most events ever parked at once.
    parked: Vec<Ev>,
    free: Vec<u32>,
}

impl SlottedQueue {
    fn with_capacity(cap: usize) -> Self {
        Self { queue: EventQueue::with_capacity(cap), parked: Vec::new(), free: Vec::new() }
    }

    fn now(&self) -> Cycle {
        self.queue.now()
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `ev` for cycle `at`.
    #[inline]
    fn push(&mut self, at: Cycle, ev: Ev) {
        let handle = self.handle_of(ev);
        self.queue.push(at, handle);
    }

    /// The handle `ev` is queued under, parking it unless it is a
    /// wake-up.
    #[inline]
    fn handle_of(&mut self, ev: Ev) -> EvRef {
        if let Ev::CoreResume(tile) = ev {
            return EvRef::Resume(tile as u32);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.parked[slot as usize] = ev;
                slot
            }
            None => {
                self.parked.push(ev);
                (self.parked.len() - 1) as u32
            }
        };
        EvRef::Parked(slot)
    }

    /// Removes and returns the earliest event, advancing the clock to
    /// it. A parked event is copied out before its slot is freed.
    #[inline]
    fn pop(&mut self) -> Option<(Cycle, Ev)> {
        let (at, handle) = self.queue.pop()?;
        let ev = self.resolve(handle);
        if let EvRef::Parked(slot) = handle {
            self.free.push(slot);
        }
        Some((at, ev))
    }

    #[inline]
    fn resolve(&self, handle: EvRef) -> Ev {
        match handle {
            EvRef::Resume(tile) => Ev::CoreResume(tile as Tile),
            EvRef::Parked(slot) => self.parked[slot as usize],
        }
    }

    /// Every pending event as `(due_cycle, event)`, in the queue's
    /// internal order (see [`EventQueue::iter`]).
    fn iter(&self) -> impl Iterator<Item = (Cycle, Ev)> + '_ {
        self.queue.iter().map(|(at, &handle)| (at, self.resolve(handle)))
    }

    /// Every pending event in exact delivery order: the list an
    /// `EventQueue<Ev>` would snapshot, so images keep their bytes.
    fn snapshot_events(&self) -> Vec<(Cycle, Ev)> {
        let handles = self.queue.snapshot_events();
        handles.into_iter().map(|(at, handle)| (at, self.resolve(handle))).collect()
    }

    /// Rebuilds a queue from a [`Self::snapshot_events`] list, its
    /// clock at `now`.
    fn from_snapshot(now: Cycle, events: Vec<(Cycle, Ev)>) -> Self {
        let mut q = Self::default();
        let handles = events.into_iter().map(|(at, ev)| (at, q.handle_of(ev))).collect();
        q.queue = EventQueue::from_snapshot(now, handles);
        q
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
    matches!(kind, MsgKind::Req(_) | MsgKind::Data(_) | MsgKind::MemData | MsgKind::Hint { .. })
}

/// Retransmission state for one tile's open miss.
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

cmpsim_engine::impl_snap!(FaultState { engine, open_reqs, retry, seen, generation, violation });

/// Point-to-point FIFO delivery floors: the latest delivery cycle
/// scheduled on each (source, destination) endpoint pair. Wormhole
/// meshes preserve per-pair ordering and the protocols rely on it, so a
/// message never lands before an earlier one on the same pair. A flat
/// `2·tiles × 2·tiles` table indexed by endpoint (`L1(t)` is `t`,
/// `L2(t)` is `tiles + t`), so the per-message probe is one indexed load.
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
    queue: SlottedQueue,
    cores: Vec<Core>,
    memory: MachineMemory,
    benchmark: Benchmark,
    rng: SimRng,
    /// Point-to-point FIFO delivery floors.
    fifo: FifoFloors,
    /// Reusable dispatch context: one `Ctx` serves every event, so the
    /// hot path constructs no buffers (see [`Ctx::reset`]).
    ctx_pool: Ctx,
    /// Host wall-clock deadline (from `cfg.wall_deadline_ms`), armed at
    /// the start of each public run entry point. Host-side only: never
    /// snapshotted, never part of deterministic results.
    wall: Option<WallDeadline>,
    /// Memory controller availability.
    ctrl_free: Vec<Cycle>,
    /// Warm-up bookkeeping.
    warmed_up: bool,
    /// `refs_total` at which the warm-up window closes (fixed by the
    /// configuration, so computed once when the simulator is built).
    warm_target: u64,
    measure_start: Cycle,
    refs_at_reset: u64,
    events: u64,
    /// Cycle of the last retired reference (watchdog no-progress clock).
    last_progress: Cycle,
    /// Running sum of every core's `refs_done` (the warm-up check runs
    /// per event, so it must not rescan the cores).
    refs_total: u64,
    /// Every opt-in observer, behind one fan-out.
    obs: Observers,
    /// The interval sampler's next boundary, mirrored here so the
    /// per-event check is one compare (`Cycle::MAX` without a sampler).
    sample_at: Cycle,
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
        assert!(
            tiles <= MAX_TILES,
            "a {tiles}-tile chip exceeds the {MAX_TILES}-bit sharing codes"
        );
        assert_eq!(cfg.noc.cols * cfg.noc.rows, tiles, "NoC dimensions must match the chip");
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
        let obs = Observers::new(cfg, cores.iter().map(|c| c.vm).collect());
        let warm_target = (cfg.warmup_frac * (cfg.refs_per_core * tiles as u64) as f64) as u64;
        Self {
            proto: build_protocol(kind, cfg.chip.clone()),
            mesh: Mesh::new(cfg.noc),
            queue: SlottedQueue::with_capacity(4 * tiles),
            cores,
            memory: MachineMemory::new(cfg.num_vms),
            benchmark,
            rng,
            fifo: FifoFloors::new(tiles),
            ctx_pool: Ctx::default(),
            wall: None,
            ctrl_free: vec![0; cfg.mem_controllers],
            warmed_up: false,
            warm_target,
            measure_start: 0,
            refs_at_reset: 0,
            events: 0,
            last_progress: 0,
            refs_total: 0,
            obs,
            sample_at: Cycle::MAX,
            faults: cfg.fault_plan.clone().map(|p| FaultState::new(p, tiles)),
            tile_misses: vec![0; tiles],
            tile_refs_base: vec![0; tiles],
            cfg: cfg.clone(),
        }
    }

    /// Turns on the per-message invariant checker (used by `cmpsim-cli
    /// replay --check`). The configuration records it, so the simulator
    /// stops being snapshot-eligible.
    pub fn enable_invariant_checker(&mut self) {
        self.cfg.check_invariants = true;
        self.obs.checker.get_or_insert_with(StepChecker::new);
    }

    fn flits(&self, kind: &MsgKind) -> u64 {
        if kind.carries_data() {
            self.cfg.noc.data_flits
        } else {
            self.cfg.noc.control_flits
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
        let droppable = seq != 0
            || matches!(msg.kind, MsgKind::Hint { .. })
            || (fs.engine.plan().chaos && payload);
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

    /// Routes the pooled context's protocol output through the chip, in
    /// a fixed order: sends, bcasts, replays, mem_ops, completions. The
    /// buffers are read by index in place and left for the next
    /// [`Ctx::reset`] to clear.
    fn apply_ctx(&mut self, now: Cycle) {
        for i in 0..self.ctx_pool.sends.len() {
            let out = self.ctx_pool.sends[i];
            let (m, depart) = (out.msg, now + out.delay);
            let flits = self.flits(&m.kind);
            let d = self.mesh.send(depart, m.src.tile(), m.dst.tile(), flits);
            self.obs.on_message(&self.memory, || {
                MsgEvent::new(Wire::Msg(m.kind), m.block, m.src, m.dst, depart, d, flits)
            });
            self.deliver(d.arrival, m);
        }
        for i in 0..self.ctx_pool.bcasts.len() {
            let b = self.ctx_pool.bcasts[i];
            let flits = self.flits(&b.kind);
            let depart = now + b.delay;
            let arrivals = self.mesh.broadcast(depart, b.src.tile(), flits);
            self.obs.on_message(&self.memory, || {
                let arrival = arrivals.iter().map(|&(_, at)| at).max().unwrap_or(depart);
                // The spanning-tree broadcast charges tiles - 1 links.
                let d = Delivery { arrival, links: (self.cfg.tiles() - 1) as u64 };
                MsgEvent::new(Wire::Bcast(b.kind), b.block, b.src, b.src, depart, d, flits)
            });
            for (t, at) in arrivals {
                if Some(t) == b.exclude {
                    continue;
                }
                self.deliver(
                    at,
                    Msg { kind: b.kind, block: b.block, src: b.src, dst: Node::L1(t) },
                );
            }
            // The source's own L1 may also be a destination (e.g. the
            // home bank broadcasting to its co-located L1).
            let src_tile = b.src.tile();
            if Some(src_tile) != b.exclude && matches!(b.src, Node::L2(_)) {
                self.deliver(
                    depart + 1,
                    Msg { kind: b.kind, block: b.block, src: b.src, dst: Node::L1(src_tile) },
                );
            }
        }
        for i in 0..self.ctx_pool.replays.len() {
            // Replays are the protocol re-enqueueing a message it chose
            // to defer: they never re-cross the network, so they take
            // no faults and carry no sequence number (a replayed
            // message must not be mistaken for a duplicate).
            self.queue.push(now, Ev::Deliver(self.ctx_pool.replays[i], 0));
        }
        for i in 0..self.ctx_pool.mem_ops.len() {
            let op = self.ctx_pool.mem_ops[i];
            let ctrl = self.cfg.mem_ctrl_of(op.block);
            let ctrl_tile = self.cfg.mem_ctrl_tile(ctrl);
            let flits =
                if op.is_write { self.cfg.noc.data_flits } else { self.cfg.noc.control_flits };
            let depart = now + op.delay;
            let d = self.mesh.send(depart, op.home, ctrl_tile, flits);
            let (home, ctrl_node) = (Node::L2(op.home), Node::L2(ctrl_tile));
            self.obs.on_message(&self.memory, || {
                let wire = if op.is_write { Wire::MemWrite } else { Wire::MemRead };
                MsgEvent::new(wire, op.block, home, ctrl_node, depart, d, flits)
            });
            let start = d.arrival.max(self.ctrl_free[ctrl]);
            self.ctrl_free[ctrl] = start + self.cfg.mem_service;
            if !op.is_write {
                let ready = start + self.cfg.mem_latency + self.rng.jitter(self.cfg.mem_jitter);
                let flits = self.cfg.noc.data_flits;
                let back = self.mesh.send(ready, ctrl_tile, op.home, flits);
                self.obs.on_message(&self.memory, || {
                    MsgEvent::new(Wire::MemData, op.block, ctrl_node, home, ready, back, flits)
                });
                self.deliver(
                    back.arrival,
                    Msg { kind: MsgKind::MemData, block: op.block, src: home, dst: home },
                );
            }
        }
        for i in 0..self.ctx_pool.completions.len() {
            let c = self.ctx_pool.completions[i];
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
            self.obs.on_completion(now, c.tile);
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
        if let Some(chk) = &mut self.obs.checker {
            chk.record_access(now, tile, block, write);
        }
        self.ctx_pool.reset(now);
        let cache_base = self.obs.cache_base(self.proto.stats());
        let outcome = match self.proto.core_access(&mut self.ctx_pool, tile, block, write) {
            Ok(o) => o,
            Err(e) => return Err(self.protocol_fault(now, e)),
        };
        // A miss opens its transaction before its request is routed, so
        // its own messages and this dispatch's cache probes attribute to
        // it.
        if matches!(outcome, AccessOutcome::Miss) {
            self.obs.on_issue(now, tile, block, write, &self.memory);
        }
        if let Some(base) = cache_base {
            self.obs.on_cache_delta(block, base, self.proto.stats());
        }
        match outcome {
            AccessOutcome::Hit { latency } => {
                self.cores[tile].pending = None;
                self.cores[tile].refs_done += 1;
                self.refs_total += 1;
                self.last_progress = now;
                self.apply_ctx(now);
                self.queue.push(now + latency, Ev::CoreResume(tile));
            }
            AccessOutcome::Miss => {
                self.cores[tile].pending = None;
                self.cores[tile].outstanding = true;
                self.tile_misses[tile] += 1;
                if self.faults.is_some() {
                    self.fault_open_miss(now, tile, block);
                }
                self.apply_ctx(now);
            }
            AccessOutcome::Blocked { reason } => {
                // The 7-cycle retry below is a pre-issue wait: it is
                // accounted chip-wide by reason, outside the per-miss
                // reconciliation window (the miss has not opened yet).
                self.obs.on_blocked(reason, 7, tile);
                self.apply_ctx(now);
                self.queue.push(now + 7, Ev::CoreResume(tile));
            }
        }
        Ok(())
    }

    /// Registers a newly opened miss with the recovery layer: stashes
    /// the first-hop request for retransmission, allocates its
    /// transport-layer sequence number, and arms the MSHR timeout.
    /// Misses that send no first-hop request (served without leaving
    /// the tile) need no recovery and are skipped.
    fn fault_open_miss(&mut self, now: Cycle, tile: Tile, block: Block) {
        let Some(first_hop) = self
            .ctx_pool
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
        for (block, _) in authority.iter().filter(|&(_, version)| version != 0) {
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

    /// Builds the structured dump for a watchdog abort. `popped` is the
    /// event the watchdog tripped on, already off the queue: it is listed
    /// with what is still queued, so a livelock of one message bouncing
    /// between two tiles shows that message and its block.
    fn stall_error(&self, now: Cycle, reason: StallReason, popped: Option<Ev>) -> SimError {
        let mut in_flight: Vec<InFlightMsg> = popped
            .map(|ev| (now, ev))
            .into_iter()
            .chain(self.queue.iter())
            .filter_map(|(due, ev)| match ev {
                Ev::Deliver(msg, _) => Some(InFlightMsg { due, msg }),
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
        let (trace_tail, phase_lines) = self.obs.stall_context(now);
        let hot_blocks = ranked
            .into_iter()
            .take(4)
            .map(|(block, queued)| {
                let view = self.proto.block_view(block);
                let mut views: Vec<String> = view
                    .held()
                    .map(|(t, c)| format!("L1 tile {t}: {:?} (version {})", c.state, c.version))
                    .collect();
                if let Some(v) = view.l2 {
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
            trace_tail,
            phase_lines,
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
        let Some(chk) = &mut self.obs.checker else {
            return Ok(());
        };
        if let Err(violations) = chk.after_message(now, msg, &*self.proto, self.queue.is_empty()) {
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

    /// Closes the warm-up window once enough references retired.
    #[inline]
    fn maybe_finish_warmup(&mut self, now: Cycle) {
        if !self.warmed_up && self.refs_total >= self.warm_target {
            self.finish_warmup(now);
        }
    }

    /// Resets every statistic at the warm-up boundary `now`.
    #[cold]
    fn finish_warmup(&mut self, now: Cycle) {
        self.warmed_up = true;
        self.measure_start = now;
        self.refs_at_reset = self.refs_total;
        self.proto.reset_stats();
        self.mesh.reset_stats();
        self.obs.reset();
        // Spatial counters cover the measurement window only.
        self.tile_misses.iter_mut().for_each(|m| *m = 0);
        for (base, c) in self.tile_refs_base.iter_mut().zip(&self.cores) {
            *base = c.refs_done;
        }
        self.build_sampler(now);
    }

    /// Builds the interval sampler and its energy model at the warm-up
    /// boundary (`now` = the cycle the window closed). Also called when
    /// a snapshot is restored: the snapshot is captured at
    /// exactly this boundary — stats freshly reset, zero samples taken
    /// — so rebuilding here reproduces the cold-run sampler state
    /// bit-for-bit, and a sampling run can share snapshots with a
    /// non-sampling one.
    fn build_sampler(&mut self, now: Cycle) {
        if let Some(interval) = self.cfg.sample_interval {
            let tiles = self.cfg.tiles() as u64;
            let areas = self.cfg.chip.num_areas() as u64;
            let leak = cmpsim_power::leakage_per_tile(self.proto.kind(), tiles, areas);
            self.obs.energy_model =
                Some(cmpsim_power::EnergyModel::new(self.proto.kind(), tiles, areas));
            // The proto/NoC stats were just reset, but the per-core
            // ref counters were not — snapshot after the resets so
            // interval deltas cover the measurement window only.
            let base = self.cum_snapshot();
            let sampler =
                IntervalSampler::new(interval, now, base, leak, tiles, self.mesh.directed_links());
            self.sample_at = sampler.next_boundary();
            self.obs.sampler = Some(sampler);
        }
    }

    /// Cumulative counter snapshot the interval sampler diffs against.
    fn cum_snapshot(&self) -> CumSnapshot {
        let ps = self.proto.stats();
        let ns = self.mesh.stats();
        let model = self.obs.energy_model.as_ref().expect("built with the sampler");
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
            phase: self.obs.attr.as_ref().map(|a| a.phase_totals().0).unwrap_or_default(),
            faults_injected: self.faults.as_ref().map(|f| f.engine.stats().total()).unwrap_or(0),
            retries: ps.retries.get(),
            timeouts: ps.timeouts.get(),
        }
    }

    /// Takes any interval samples due at `now`.
    #[inline]
    fn maybe_sample(&mut self, now: Cycle) {
        if now >= self.sample_at {
            self.take_samples(now);
        }
    }

    #[cold]
    fn take_samples(&mut self, now: Cycle) {
        let cum = self.cum_snapshot();
        let occ = self.proto.occupancy();
        if let Some(s) = &mut self.obs.sampler {
            s.sample(now, &cum, &occ);
            self.sample_at = s.next_boundary();
        }
    }

    /// (Re-)arms the host wall-clock deadline from the configuration.
    /// Called at each public run entry point so a restored simulator
    /// gets a fresh budget, not the parent's leftovers.
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
                return Err(self.stall_error(now, StallReason::EventBudget { budget }, Some(ev)));
            }
            if now.saturating_sub(self.last_progress) > stall_window {
                let last_progress = self.last_progress;
                let reason = StallReason::NoProgress { window: stall_window, last_progress };
                return Err(self.stall_error(now, reason, Some(ev)));
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
                    let duplicate =
                        seq != 0 && self.faults.as_mut().is_some_and(|fs| !fs.seen.insert(seq));
                    if duplicate {
                        self.proto.stats_mut().dedup_drops.inc();
                        self.maybe_finish_warmup(now);
                        self.maybe_sample(now);
                        continue;
                    }
                    self.ctx_pool.reset(now);
                    let cache_base = self.obs.cache_base(self.proto.stats());
                    if let Err(e) = self.proto.handle(&mut self.ctx_pool, msg) {
                        return Err(self.protocol_fault(now, e));
                    }
                    // Charge this dispatch's cache events before the
                    // Ctx is applied (which may close the transaction).
                    if let Some(base) = cache_base {
                        self.obs.on_cache_delta(msg.block, base, self.proto.stats());
                    }
                    self.apply_ctx(now);
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
    /// follow with [`Self::save_snapshot`] or [`Self::resume`].
    pub fn warm_up(&mut self) -> Result<bool, SimError> {
        self.arm_deadline();
        self.seed_initial_events();
        Ok(matches!(self.run_phase(true)?, PhaseExit::Warmed))
    }

    /// Completes a simulation from its current state: a warmed
    /// simulator ([`Self::warm_up`]), a restored snapshot
    /// ([`Self::restore_snapshot`]).
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
            return Err(self.stall_error(now, StallReason::IncompleteDrain, None));
        }

        let finalize_start = std::time::Instant::now();
        let last_finish = self.cores.iter().map(|c| c.finished_at.unwrap_or(0)).max().unwrap_or(0);
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
        let series_end =
            self.obs.sampler.is_some().then(|| (now, self.cum_snapshot(), self.proto.occupancy()));
        let (trace, breakdown, timeseries) = self.obs.finish(series_end);
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
        result.breakdown = breakdown;
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
    /// Only valid on [`snapshot_eligible`] simulators: the tracer,
    /// invariant checker and attribution accumulate pre-warm-up history
    /// that is deliberately not part of the image.
    pub fn save_snapshot(&self, key: u64) -> Vec<u8> {
        assert!(snapshot_eligible(&self.cfg), "snapshots need an observer-free simulator");
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
    /// truncation, corruption, a `cfg` that is not
    /// [`snapshot_eligible`] — surfaces as a typed
    /// [`SimError::Snapshot`]; this function never panics on bad input.
    pub fn restore_snapshot(
        kind: ProtocolKind,
        benchmark: Benchmark,
        cfg: &SystemConfig,
        bytes: &[u8],
    ) -> Result<Self, SimError> {
        if !snapshot_eligible(cfg) {
            return Err(SnapshotError::new(
                "tracing, invariant-checking and attribution runs cannot resume from a snapshot",
            )
            .into());
        }
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
        let outside = |&(_, ev): &(Cycle, Ev)| match ev {
            Ev::CoreResume(tile) | Ev::ReqTimeout { tile, .. } => tile >= cfg.tiles(),
            Ev::Deliver(..) => false,
        };
        if events.iter().any(outside) {
            return Err(SnapError::Corrupt("queued event names a tile outside the chip"));
        }
        sim.queue = SlottedQueue::from_snapshot(queue_now, events);
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
        if sim.ctrl_free.len() != cfg.mem_controllers {
            return Err(SnapError::Corrupt("memory-controller count does not match configuration"));
        }
        sim.warmed_up = Snap::load(r)?;
        sim.measure_start = Snap::load(r)?;
        sim.refs_at_reset = Snap::load(r)?;
        sim.events = Snap::load(r)?;
        sim.last_progress = Snap::load(r)?;
        sim.refs_total = Snap::load(r)?;
        sim.faults = Snap::load(r)?;
        sim.tile_misses = Snap::load(r)?;
        sim.tile_refs_base = Snap::load(r)?;
        if sim.tile_misses.len() != cfg.tiles() || sim.tile_refs_base.len() != cfg.tiles() {
            return Err(SnapError::Corrupt("per-tile counters do not match the tile count"));
        }
        Ok(sim)
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
/// is written to the system temp directory and its path attached to
/// the returned [`SimError`], so `cmpsim-cli replay <file>` can re-run
/// the failure deterministically.
pub fn run_benchmark(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
) -> Result<RunResult, SimError> {
    run_benchmark_with_store(kind, benchmark, cfg, None, None)
}

/// [`run_benchmark`] with an optional [`SnapshotStore`] and crash-dump
/// directory. Eligible runs (see [`snapshot_eligible`]) restore their
/// warm-up phase from the store when a matching image exists and
/// contribute one when none does; ineligible runs execute cold,
/// unchanged. A failing run's replay artifact goes to `crash_dir`, or
/// to the system temp directory when it is `None`.
pub fn run_benchmark_with_store(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
    store: Option<&SnapshotStore>,
    crash_dir: Option<&Path>,
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
        let dir = crash_dir.map_or_else(std::env::temp_dir, Path::to_path_buf);
        if let Ok(path) = artifact.save(&dir) {
            e.set_artifact(path);
        }
        e
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_virt::mem::PageKind;

    /// The architectural digest as first written: probe the authority
    /// for all 64 blocks of every mapped page, one block at a time. Kept
    /// as the oracle for [`CmpSimulator::arch_state`].
    fn reference_arch_state(sim: &CmpSimulator) -> ArchState {
        let mut digest = ARCH_DIGEST_SEED;
        let mut versioned_blocks = 0u64;
        for (vm, region, index, ppn) in sim.memory.mappings() {
            for off in 0..BLOCKS_PER_PAGE {
                let block = ppn * BLOCKS_PER_PAGE + off;
                let version = sim.proto.authority().latest(block);
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
        let cfg =
            SystemConfig::smoke().with_refs(2000).with_fault_plan(Some(FaultPlan::recoverable(7)));
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

    /// A livelock of one message: the watchdog trips on the delivery it
    /// has just popped, so the dump must list that delivery (and rank
    /// its block hot) even though the queue is now empty.
    #[test]
    fn stall_dump_lists_the_popped_delivery() {
        let cfg = SystemConfig::smoke().with_stall_window(10);
        let mut sim = CmpSimulator::new(ProtocolKind::DiCo, Benchmark::Radix, &cfg);
        let msg = Msg { kind: MsgKind::Ack, block: 0xa17, src: Node::L1(1), dst: Node::L1(0) };
        sim.queue.push(100, Ev::Deliver(msg, 0));
        let Err(SimError::Stalled(r)) = sim.run_phase(false) else {
            panic!("no progress for 100 cycles must stall");
        };
        assert!(matches!(r.reason, StallReason::NoProgress { window: 10, .. }));
        assert_eq!(r.cycle, 100);
        assert_eq!(r.in_flight.len(), 1, "the popped delivery is the one in flight");
        assert_eq!((r.in_flight[0].due, r.in_flight[0].msg), (100, msg));
        assert_eq!(r.hot_blocks.iter().map(|h| h.block).collect::<Vec<_>>(), vec![0xa17]);
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

    /// The loop pushes and pops one entry per event; a payload that
    /// re-inflates the handle should fail here, not in a profile.
    #[test]
    fn queue_entries_stay_small() {
        let entry = std::mem::size_of::<(Cycle, EvRef)>();
        assert!(entry <= 16, "a queue entry is {entry} B");
    }

    /// A random event for the differential test below: wake-ups,
    /// deliveries and timeouts, due near (inside the calendar wheel) or
    /// far (in its overflow tier).
    fn random_event(rng: &mut SimRng, now: Cycle) -> (Cycle, Ev) {
        let tile = rng.gen_range(64) as Tile;
        let ev = match rng.gen_range(3) {
            0 => Ev::CoreResume(tile),
            1 => {
                let (block, dst) = (rng.gen_range(1 << 20), rng.gen_range(64) as Tile);
                let msg =
                    Msg { kind: MsgKind::MemData, block, src: Node::L2(tile), dst: Node::L1(dst) };
                Ev::Deliver(msg, rng.gen_range(4))
            }
            _ => Ev::ReqTimeout { tile, generation: rng.gen_range(1000) },
        };
        let delta =
            if rng.gen_range(8) == 0 { 500 + rng.gen_range(4000) } else { rng.gen_range(64) };
        (now + delta, ev)
    }

    /// The slotted queue pops exactly what a plain `EventQueue<Ev>`
    /// pops, snapshots the same list (also after a snapshot round
    /// trip), and never holds more parked slots than events were ever
    /// parked at once.
    #[test]
    fn slotted_queue_matches_a_plain_event_queue() {
        let mut rng = SimRng::new(23);
        for round in 0..6 {
            let mut oracle: EventQueue<Ev> = EventQueue::new();
            let mut q = SlottedQueue::default();
            let (mut parked, mut most_parked) = (0usize, 0usize);
            // Push-heavy, balanced and pop-heavy phases grow and drain
            // the queue, so freed slots are reused at every depth.
            for step in 0..12_000 {
                let push_odds = [3, 2, 1][step / 4_000];
                if rng.gen_range(4) < push_odds {
                    let (at, ev) = random_event(&mut rng, oracle.now());
                    oracle.push(at, ev);
                    q.push(at, ev);
                    if !matches!(ev, Ev::CoreResume(_)) {
                        parked += 1;
                        most_parked = most_parked.max(parked);
                    }
                } else {
                    let popped = q.pop();
                    assert_eq!(popped, oracle.pop(), "round {round}, step {step}");
                    if popped.is_some_and(|(_, ev)| !matches!(ev, Ev::CoreResume(_))) {
                        parked -= 1;
                    }
                }
                assert!(
                    q.parked.len() <= most_parked,
                    "round {round}, step {step}: slab outgrew its events"
                );
                if rng.gen_range(500) == 0 {
                    let events = q.snapshot_events();
                    assert_eq!(events, oracle.snapshot_events(), "round {round}, step {step}");
                    q = SlottedQueue::from_snapshot(q.now(), events);
                }
            }
            while let Some(popped) = oracle.pop() {
                assert_eq!(q.pop(), Some(popped), "round {round}, drain");
            }
            assert!(q.pop().is_none() && q.is_empty());
        }
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
            let node = |x: u64| {
                if x & 1 == 0 {
                    Node::L1(x as usize / 2)
                } else {
                    Node::L2(x as usize / 2)
                }
            };
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
        let mut edited = section.to_vec();
        edit(&mut edited);
        splice(image, section, &edited)
    }

    /// Replaces the payload section `section` with `with`, which may
    /// differ in length, and re-seals the image like [`tamper`].
    fn splice(image: &[u8], section: &[u8], with: &[u8]) -> Vec<u8> {
        let mut header = SnapWriter::new();
        snapshot::write_header(&mut header, 0);
        let at = image.windows(section.len()).position(|w| w == section).expect("section in image");
        let mut out = image[..at].to_vec();
        out.extend_from_slice(with);
        out.extend_from_slice(&image[at + section.len()..image.len() - 8]);
        let sum = crate::manifest::digest(&out[header.len()..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Restores `image` and asserts it fails as `E-SNAPSHOT` naming `why`.
    fn expect_e_snapshot(
        kind: ProtocolKind,
        b: Benchmark,
        cfg: &SystemConfig,
        image: &[u8],
        why: &str,
    ) {
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

    /// A queued wake-up or timeout for a tile the chip lacks fails
    /// closed instead of aliasing another tile's handle.
    #[test]
    fn restore_refuses_queued_events_outside_the_chip() {
        let cfg = SystemConfig::smoke();
        let (kind, b) = (ProtocolKind::Directory, Benchmark::Radix);
        let mut sim = CmpSimulator::new(kind, b, &cfg);
        assert!(sim.warm_up().expect("warm-up"));
        let image = sim.save_snapshot(snapshot::snapshot_key(kind, b, &cfg));
        let encode = |events: &Vec<(Cycle, Ev)>| {
            let mut w = SnapWriter::new();
            events.save(&mut w);
            w.into_bytes()
        };
        let events = sim.queue.snapshot_events();
        let tile = cfg.tiles() + (1 << 32);
        for ev in [Ev::CoreResume(tile), Ev::ReqTimeout { tile, generation: 1 }] {
            let mut bad = events.clone();
            bad.push((sim.queue.now() + 1, ev));
            let image = splice(&image, &encode(&events), &encode(&bad));
            expect_e_snapshot(kind, b, &cfg, &image, "outside the chip");
        }
    }

    /// Restoring a warm image of a simulator whose per-tile or
    /// per-controller state was given one entry too many fails closed.
    #[test]
    fn restore_maps_miscounted_sim_vectors_to_e_snapshot() {
        let cfg = SystemConfig::smoke();
        let (kind, b) = (ProtocolKind::Directory, Benchmark::Radix);
        let key = snapshot::snapshot_key(kind, b, &cfg);
        let check = |grow: fn(&mut CmpSimulator), why: &str| {
            let mut sim = CmpSimulator::new(kind, b, &cfg);
            assert!(sim.warm_up().expect("warm-up"));
            grow(&mut sim);
            expect_e_snapshot(kind, b, &cfg, &sim.save_snapshot(key), why);
        };
        check(|s| s.ctrl_free.push(0), "memory-controller count");
        check(|s| s.tile_misses.push(0), "per-tile counters");
        check(|s| s.tile_refs_base.push(0), "per-tile counters");
    }

    /// A protocol section whose per-tile vectors were written for a
    /// smaller chip fails closed instead of panicking on a tile index.
    #[test]
    fn restore_maps_miscounted_protocol_state_to_e_snapshot() {
        let cfg = SystemConfig::smoke();
        let smaller = ChipSpec::tiny();
        assert!(smaller.tiles() < cfg.tiles());
        for kind in ProtocolKind::all() {
            let b = Benchmark::Radix;
            let sim = CmpSimulator::new(kind, b, &cfg);
            let image = sim.save_snapshot(snapshot::snapshot_key(kind, b, &cfg));
            let state = |p: &dyn CoherenceProtocol| {
                let mut w = SnapWriter::new();
                p.save_state(&mut w);
                w.into_bytes()
            };
            let ours = state(sim.proto.as_ref());
            let theirs = state(build_protocol(kind, smaller.clone()).as_ref());
            let bad = splice(&image, &ours, &theirs);
            expect_e_snapshot(kind, b, &cfg, &bad, "one entry per tile");
        }
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
