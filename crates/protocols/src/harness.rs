//! In-crate test driver for the protocols.
//!
//! The full simulator (`cmpsim` crate) drives protocols through the mesh
//! NoC with contention and real memory controllers. For unit and stress
//! tests we want something smaller: this harness delivers every message
//! with a fixed latency, synthesizes memory responses, and runs per-tile
//! scripts of accesses to completion. It is deliberately timing-naive —
//! protocol *correctness* must not depend on timing, and the randomized
//! tests shuffle delivery latencies to prove it.

use crate::checker::{self, StepChecker};
use crate::common::{AccessOutcome, Block, CoherenceProtocol, Ctx, Msg, MsgKind, Node, Tile};
use cmpsim_engine::{Cycle, EventQueue, SimRng};
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug)]
enum Ev {
    Deliver(Msg),
    Retry(Tile),
}

/// Fixed-latency test driver around a protocol instance.
pub struct Harness<P: CoherenceProtocol> {
    /// The protocol under test (public for direct inspection).
    pub proto: P,
    queue: EventQueue<Ev>,
    /// Remaining scripted accesses per tile.
    scripts: Vec<VecDeque<(Block, bool)>>,
    /// Outstanding access per tile.
    outstanding: Vec<Option<(Block, bool)>>,
    /// Completed accesses per tile.
    pub completed: Vec<u64>,
    /// Per-message network latency (varied by tests).
    pub net_latency: Cycle,
    /// Memory latency.
    pub mem_latency: Cycle,
    /// Optional RNG for jittering delivery (None = deterministic fixed).
    pub jitter: Option<SimRng>,
    /// Per-(src, dst) in-order delivery floor: a dimension-ordered
    /// wormhole mesh preserves point-to-point ordering, and the
    /// protocols rely on it for (e.g.) Unblock-before-ChangeOwner.
    fifo: BTreeMap<(Node, Node), Cycle>,
    events_processed: u64,
    /// Optional per-message invariant checker (see
    /// [`enable_invariant_checker`](Self::enable_invariant_checker)).
    checker: Option<StepChecker>,
}

impl<P: CoherenceProtocol> Harness<P> {
    /// Wraps `proto`.
    pub fn new(proto: P) -> Self {
        let tiles = proto.spec().tiles();
        Self {
            proto,
            queue: EventQueue::new(),
            scripts: vec![VecDeque::new(); tiles],
            outstanding: vec![None; tiles],
            completed: vec![0; tiles],
            net_latency: 10,
            mem_latency: 100,
            jitter: None,
            fifo: BTreeMap::new(),
            events_processed: 0,
            checker: None,
        }
    }

    /// Turns on the per-message invariant checker: SWMR and the
    /// forwarding bound are validated after every handled message, and
    /// the full quiescent checks whenever the chip drains. Slows the run
    /// down (a view of the touched block per message) but pins down
    /// *when* an invariant first breaks instead of discovering it at the
    /// end.
    pub fn enable_invariant_checker(&mut self) {
        self.checker = Some(StepChecker::new());
    }

    /// Appends an access to a tile's script.
    pub fn push_access(&mut self, tile: Tile, block: Block, write: bool) {
        self.scripts[tile].push_back((block, write));
    }

    fn lat(&mut self, base: Cycle) -> Cycle {
        match &mut self.jitter {
            Some(rng) => base + rng.gen_range(base.max(1)),
            None => base,
        }
    }

    /// Applies one `Ctx` worth of protocol output.
    fn apply_ctx(&mut self, now: Cycle, ctx: Ctx) {
        for out in ctx.sends {
            let mut at = now + out.delay + self.lat(self.net_latency);
            let key = (out.msg.src, out.msg.dst);
            if let Some(&floor) = self.fifo.get(&key) {
                at = at.max(floor);
            }
            self.fifo.insert(key, at);
            self.queue.push(at, Ev::Deliver(out.msg));
        }
        for b in ctx.bcasts {
            for t in 0..self.proto.spec().tiles() {
                if Some(t) == b.exclude {
                    continue;
                }
                let at = now + b.delay + self.lat(self.net_latency);
                self.queue.push(
                    at,
                    Ev::Deliver(Msg { kind: b.kind, block: b.block, src: b.src, dst: Node::L1(t) }),
                );
            }
        }
        for m in ctx.replays {
            // Same-cycle replay; FIFO order preserves fairness.
            self.queue.push(now, Ev::Deliver(m));
        }
        for op in ctx.mem_ops {
            if !op.is_write {
                let at = now + op.delay + self.lat(self.mem_latency);
                self.queue.push(
                    at,
                    Ev::Deliver(Msg {
                        kind: MsgKind::MemData,
                        block: op.block,
                        src: Node::L2(op.home),
                        dst: Node::L2(op.home),
                    }),
                );
            }
            // Writebacks are fire-and-forget; the protocol updated its
            // memory image when it issued the op.
        }
        for c in ctx.completions {
            let tile = c.tile;
            assert!(
                self.outstanding[tile].is_some(),
                "completion for tile {tile} with no outstanding access"
            );
            self.outstanding[tile] = None;
            self.completed[tile] += 1;
            // Issue the tile's next scripted access.
            self.queue.push(now + c.delay + 1, Ev::Retry(tile));
        }
    }

    fn try_issue(&mut self, now: Cycle, tile: Tile) {
        if self.outstanding[tile].is_some() {
            return;
        }
        let Some(&(block, write)) = self.scripts[tile].front() else {
            return;
        };
        let mut ctx = Ctx::at(now);
        if let Some(chk) = &mut self.checker {
            chk.record_access(now, tile, block, write);
        }
        let outcome = self
            .proto
            .core_access(&mut ctx, tile, block, write)
            .unwrap_or_else(|e| panic!("{e}\n{}", self.proto.pending_summary()));
        match outcome {
            AccessOutcome::Hit { .. } => {
                self.scripts[tile].pop_front();
                self.completed[tile] += 1;
                self.apply_ctx(now, ctx);
                // Immediately try the next access.
                self.queue.push(now + 1, Ev::Retry(tile));
            }
            AccessOutcome::Miss => {
                self.scripts[tile].pop_front();
                self.outstanding[tile] = Some((block, write));
                self.apply_ctx(now, ctx);
            }
            AccessOutcome::Blocked { .. } => {
                self.apply_ctx(now, ctx);
                self.queue.push(now + 7, Ev::Retry(tile));
            }
        }
    }

    /// Runs every scripted access to completion. Panics (with context)
    /// if the system fails to drain within `max_events`.
    pub fn run(&mut self, max_events: u64) {
        // Kick every tile (the clock may have advanced in a prior run).
        let t0 = self.queue.now();
        for t in 0..self.proto.spec().tiles() {
            self.queue.push(t0, Ev::Retry(t));
        }
        while let Some((now, ev)) = self.queue.pop() {
            self.events_processed += 1;
            assert!(
                self.events_processed <= max_events,
                "harness did not drain after {max_events} events \
                 (deadlock or livelock?); outstanding: {:?}\n{}",
                self.outstanding
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.is_some())
                    .collect::<Vec<_>>(),
                self.proto.pending_summary()
            );
            match ev {
                Ev::Deliver(msg) => {
                    let mut ctx = Ctx::at(now);
                    if let Err(e) = self.proto.handle(&mut ctx, msg) {
                        let history = self
                            .checker
                            .as_ref()
                            .map(|c| c.history_for(msg.block).join("\n"))
                            .unwrap_or_default();
                        panic!("{e}\n{}\n{history}", self.proto.pending_summary());
                    }
                    self.apply_ctx(now, ctx);
                    if let Some(chk) = &mut self.checker {
                        let verdict =
                            chk.after_message(now, &msg, &self.proto, self.queue.is_empty());
                        if let Err(errors) = verdict {
                            panic!(
                                "invariant violation at cycle {now} after {:?} -> {:?}: {:?}\n{}\nhistory of block {:#x}:\n{}",
                                msg.src,
                                msg.dst,
                                msg.kind,
                                errors.join("\n"),
                                msg.block,
                                chk.history_for(msg.block).join("\n")
                            );
                        }
                    }
                }
                Ev::Retry(tile) => self.try_issue(now, tile),
            }
        }
        // Everything scripted must have completed.
        for t in 0..self.proto.spec().tiles() {
            assert!(
                self.scripts[t].is_empty() && self.outstanding[t].is_none(),
                "tile {t} stuck: {} scripted left, outstanding {:?}\n{}",
                self.scripts[t].len(),
                self.outstanding[t],
                self.proto.pending_summary()
            );
        }
        assert!(
            self.proto.quiescent(),
            "protocol not quiescent after drain\n{}",
            self.proto.pending_summary()
        );
    }

    /// Runs and then checks every coherence invariant.
    pub fn run_checked(&mut self, max_events: u64) {
        self.run(max_events);
        if let Err(errors) = checker::check_chip(&self.proto) {
            panic!(
                "coherence invariants violated ({} errors):\n{}",
                errors.len(),
                errors.join("\n")
            );
        }
    }

    /// Total accesses completed across all tiles.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }
}

/// Generates a random access script mixing private and contended blocks,
/// pushes it into `h`, runs it, and checks invariants. The workhorse of
/// every protocol's stress tests.
pub fn random_stress<P: CoherenceProtocol>(
    h: &mut Harness<P>,
    seed: u64,
    ops_per_tile: usize,
    num_blocks: u64,
    write_frac: f64,
) {
    let mut rng = SimRng::new(seed);
    h.jitter = Some(rng.fork(0xbead));
    let tiles = h.proto.spec().tiles();
    for t in 0..tiles {
        for _ in 0..ops_per_tile {
            let block = rng.gen_range(num_blocks);
            let write = rng.gen_bool(write_frac);
            h.push_access(t, block, write);
        }
    }
    let budget = (ops_per_tile as u64 * tiles as u64 + 10) * 400;
    h.run_checked(budget);
    assert_eq!(h.total_completed(), (ops_per_tile * tiles) as u64);
}
