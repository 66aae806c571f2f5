//! The mirror loop: `cmpsim::sim`'s fault-free, observer-free event
//! loop re-implemented against the layers' public APIs only, so that the
//! traced run can put a span around every call into a layer without
//! touching the simulator.
//!
//! It must stay event-for-event identical to `CmpSimulator`. The traced
//! run checks that on every cell (see [`MirrorStats`]) and reports the
//! layer numbers of a cell that drifted as invalid. The watchdog, wall
//! deadline, fault injection and observers of the real loop are left
//! out; their cost shows only in the `sim.glue` residual.

use crate::spans::{Layer, Tracer};
use cmpsim::{build_protocol, Benchmark, ProtocolKind, SystemConfig};
use cmpsim_engine::{Cycle, EventQueue, FxHashMap, SimRng};
use cmpsim_noc::Mesh;
use cmpsim_protocols::common::{
    AccessOutcome, Block, CoherenceProtocol, Ctx, Msg, MsgKind, Node, Tile,
};
use cmpsim_virt::mem::LogicalPage;
use cmpsim_virt::MachineMemory;
use cmpsim_workloads::CoreStream;

#[derive(Debug, Clone, Copy)]
enum Ev {
    CoreResume(Tile),
    Deliver(Msg),
}

struct Core {
    stream: CoreStream,
    vm: usize,
    pending: Option<(Block, bool)>,
    outstanding: bool,
    refs_done: u64,
    finished_at: Option<Cycle>,
}

/// What a mirror run simulated. Every field but `blocked` must equal
/// the real run's value for the cell to count as exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MirrorStats {
    /// Measured cycles (warm-up boundary to the last core's finish).
    pub cycles: Cycle,
    /// Events popped over the whole run.
    pub events: u64,
    /// References retired after the warm-up boundary.
    pub measured_refs: u64,
    /// NoC messages in the measured window.
    pub messages: u64,
    /// NoC broadcasts in the measured window.
    pub broadcasts: u64,
    /// L1 misses in the measured window.
    pub l1_misses: u64,
    /// Core accesses answered `Blocked` over the whole run.
    pub blocked: u64,
}

struct Mirror<'a> {
    cfg: &'a SystemConfig,
    proto: Box<dyn CoherenceProtocol>,
    mesh: Mesh,
    queue: EventQueue<Ev>,
    cores: Vec<Core>,
    memory: MachineMemory,
    rng: SimRng,
    /// Per-pair FIFO delivery floors, as in the real loop.
    fifo: FxHashMap<(Node, Node), Cycle>,
    ctx: Ctx,
    ctrl_free: Vec<Cycle>,
    warm_target: u64,
    warmed_up: bool,
    measure_start: Cycle,
    refs_at_reset: u64,
    refs_total: u64,
    events: u64,
    blocked: u64,
    tr: &'a mut Tracer,
}

/// Simulates one cell, recording spans into `tr`.
pub fn run(
    kind: ProtocolKind,
    benchmark: Benchmark,
    cfg: &SystemConfig,
    tr: &mut Tracer,
) -> Result<MirrorStats, String> {
    let tiles = cfg.tiles();
    let areas = &cfg.chip.areas;
    let mut rng = SimRng::new(cfg.seed);
    let cores = (0..tiles)
        .map(|t| {
            let vm = cfg.placement.vm_of_tile(areas, cfg.num_vms, t);
            let core_in_vm = cfg
                .placement
                .tiles_of_vm(areas, cfg.num_vms, vm)
                .iter()
                .position(|&x| x == t)
                .expect("tile in own VM") as u64;
            let profile = benchmark.profile_for_vm(vm, cfg.num_vms);
            Core {
                stream: CoreStream::new(profile, core_in_vm, rng.fork(t as u64)),
                vm,
                pending: None,
                outstanding: false,
                refs_done: 0,
                finished_at: None,
            }
        })
        .collect();
    let mut m = Mirror {
        cfg,
        proto: build_protocol(kind, cfg.chip.clone()),
        mesh: Mesh::new(cfg.noc),
        queue: EventQueue::with_capacity(4 * tiles),
        cores,
        memory: MachineMemory::new(cfg.num_vms),
        rng,
        fifo: FxHashMap::default(),
        ctx: Ctx::default(),
        ctrl_free: vec![0; cfg.mem_controllers],
        warm_target: (cfg.warmup_frac * (cfg.refs_per_core * tiles as u64) as f64) as u64,
        warmed_up: false,
        measure_start: 0,
        refs_at_reset: 0,
        refs_total: 0,
        events: 0,
        blocked: 0,
        tr,
    };
    for t in 0..tiles {
        m.push(0, Ev::CoreResume(t));
    }
    m.event_loop()?;
    m.finish()
}

impl Mirror<'_> {
    fn push(&mut self, at: Cycle, ev: Ev) {
        let t = self.tr.start();
        self.queue.push(at, ev);
        self.tr.end(Layer::Push, t);
    }

    fn deliver(&mut self, at: Cycle, msg: Msg) {
        let floor = self.fifo.entry((msg.src, msg.dst)).or_insert(0);
        let at = at.max(*floor);
        *floor = at;
        self.push(at, Ev::Deliver(msg));
    }

    fn flits(&self, carries_data: bool) -> u64 {
        if carries_data {
            self.cfg.noc.data_flits
        } else {
            self.cfg.noc.control_flits
        }
    }

    fn send(&mut self, at: Cycle, src: Tile, dst: Tile, flits: u64) -> Cycle {
        let t = self.tr.start();
        let d = self.mesh.send(at, src, dst, flits);
        self.tr.end(Layer::Send, t);
        d.arrival
    }

    fn event_loop(&mut self) -> Result<(), String> {
        loop {
            self.tr.begin_event();
            let t = self.tr.start();
            let Some((now, ev)) = self.queue.pop() else {
                self.tr.cancel_event();
                return Ok(());
            };
            self.tr.end(Layer::Pop, t);
            self.events += 1;
            match ev {
                Ev::CoreResume(tile) => self.core_resume(now, tile)?,
                Ev::Deliver(msg) => {
                    let mut ctx = std::mem::take(&mut self.ctx);
                    ctx.reset(now);
                    let t = self.tr.start();
                    let handled = self.proto.handle(&mut ctx, msg);
                    self.tr.end(Layer::Handle, t);
                    handled.map_err(|e| format!("cycle {now}: {e}"))?;
                    self.apply_ctx(now, &mut ctx);
                    self.ctx = ctx;
                }
            }
            self.maybe_finish_warmup(now);
            self.tr.end_event();
        }
    }

    fn core_resume(&mut self, now: Cycle, tile: Tile) -> Result<(), String> {
        let core = &mut self.cores[tile];
        if core.outstanding {
            return Ok(());
        }
        if core.refs_done >= self.cfg.refs_per_core {
            core.finished_at.get_or_insert(now);
            return Ok(());
        }
        if core.pending.is_none() {
            let t = self.tr.start();
            let r = self.cores[tile].stream.next_ref();
            self.tr.end(Layer::NextRef, t);
            let lp = LogicalPage { vm: self.cores[tile].vm, region: r.region, index: r.page_index };
            let t = self.tr.start();
            let block = self.memory.translate(lp, r.block_in_page, r.is_write);
            self.tr.end(Layer::Translate, t);
            self.cores[tile].pending = Some((block, r.is_write));
            if r.gap > 0 {
                self.push(now + r.gap, Ev::CoreResume(tile));
                return Ok(());
            }
        }
        let (block, write) = self.cores[tile].pending.expect("pending set above");
        let mut ctx = std::mem::take(&mut self.ctx);
        ctx.reset(now);
        let t = self.tr.start();
        let outcome = self.proto.core_access(&mut ctx, tile, block, write);
        self.tr.end(Layer::CoreAccess, t);
        match outcome.map_err(|e| format!("cycle {now}: {e}"))? {
            AccessOutcome::Hit { latency } => {
                let core = &mut self.cores[tile];
                core.pending = None;
                core.refs_done += 1;
                self.refs_total += 1;
                self.apply_ctx(now, &mut ctx);
                self.push(now + latency, Ev::CoreResume(tile));
            }
            AccessOutcome::Miss => {
                let core = &mut self.cores[tile];
                core.pending = None;
                core.outstanding = true;
                self.apply_ctx(now, &mut ctx);
            }
            AccessOutcome::Blocked { .. } => {
                self.blocked += 1;
                self.apply_ctx(now, &mut ctx);
                self.push(now + 7, Ev::CoreResume(tile));
            }
        }
        self.ctx = ctx;
        Ok(())
    }

    /// Routes one dispatch's output in the real loop's order: sends,
    /// broadcasts, replays, memory operations, completions.
    fn apply_ctx(&mut self, now: Cycle, ctx: &mut Ctx) {
        for out in std::mem::take(&mut ctx.sends) {
            let flits = self.flits(out.msg.kind.carries_data());
            let arrival = self.send(now + out.delay, out.msg.src.tile(), out.msg.dst.tile(), flits);
            self.deliver(arrival, out.msg);
        }
        for b in ctx.bcasts.drain(..) {
            let flits = self.flits(b.kind.carries_data());
            let t = self.tr.start();
            let arrivals = self.mesh.broadcast(now + b.delay, b.src.tile(), flits);
            self.tr.end(Layer::Broadcast, t);
            for (tile, at) in arrivals {
                if Some(tile) != b.exclude {
                    self.deliver(
                        at,
                        Msg { kind: b.kind, block: b.block, src: b.src, dst: Node::L1(tile) },
                    );
                }
            }
            let src_tile = b.src.tile();
            if Some(src_tile) != b.exclude && matches!(b.src, Node::L2(_)) {
                let msg = Msg { kind: b.kind, block: b.block, src: b.src, dst: Node::L1(src_tile) };
                self.deliver(now + b.delay + 1, msg);
            }
        }
        for m in ctx.replays.drain(..) {
            self.push(now, Ev::Deliver(m));
        }
        for op in ctx.mem_ops.drain(..) {
            let ctrl = self.cfg.mem_ctrl_of(op.block);
            let ctrl_tile = self.cfg.mem_ctrl_tile(ctrl);
            let arrival = self.send(now + op.delay, op.home, ctrl_tile, self.flits(op.is_write));
            let start = arrival.max(self.ctrl_free[ctrl]);
            self.ctrl_free[ctrl] = start + self.cfg.mem_service;
            if !op.is_write {
                let ready = start + self.cfg.mem_latency + self.rng.jitter(self.cfg.mem_jitter);
                let back = self.send(ready, ctrl_tile, op.home, self.cfg.noc.data_flits);
                let home = Node::L2(op.home);
                self.deliver(
                    back,
                    Msg { kind: MsgKind::MemData, block: op.block, src: home, dst: home },
                );
            }
        }
        for c in std::mem::take(&mut ctx.completions) {
            let core = &mut self.cores[c.tile];
            core.outstanding = false;
            core.refs_done += 1;
            self.refs_total += 1;
            self.push(now + c.delay + 1, Ev::CoreResume(c.tile));
        }
    }

    fn maybe_finish_warmup(&mut self, now: Cycle) {
        if !self.warmed_up && self.refs_total >= self.warm_target {
            self.warmed_up = true;
            self.measure_start = now;
            self.refs_at_reset = self.refs_total;
            self.proto.reset_stats();
            self.mesh.reset_stats();
        }
    }

    fn finish(self) -> Result<MirrorStats, String> {
        if self.cores.iter().any(|c| c.refs_done < self.cfg.refs_per_core)
            || !self.proto.quiescent()
        {
            return Err(format!("queue drained at cycle {} with work left", self.queue.now()));
        }
        let last_finish = self.cores.iter().filter_map(|c| c.finished_at).max().unwrap_or(0);
        let refs: u64 = self.cores.iter().map(|c| c.refs_done).sum();
        Ok(MirrorStats {
            cycles: last_finish.saturating_sub(self.measure_start).max(1),
            events: self.events,
            measured_refs: refs - self.refs_at_reset,
            messages: self.mesh.stats().messages.get(),
            broadcasts: self.mesh.stats().broadcasts.get(),
            l1_misses: self.proto.stats().l1_misses.get(),
            blocked: self.blocked,
        })
    }
}
