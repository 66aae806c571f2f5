//! The observer bus: [`Observers`] owns the transaction tracer, the
//! attribution tracker, the invariant checker, the interval sampler with
//! its energy model, and each tile's open-miss record ([`OpenTx`]), the
//! one copy of a miss's identity the tracer and attribution read. The
//! event loop calls it once per hook site, handing messages over as one
//! small [`MsgEvent`] record built only when an observer follows
//! transactions; with every observer off, each site is a single branch.
//! Finding the transaction an event belongs to is O(1), and no per-event
//! hook allocates once the span buffers have grown to their working
//! size.

use cmpsim_engine::{Cycle, EventCounts, FxHashMap};
use cmpsim_noc::Delivery;
use cmpsim_power::EnergyModel;
use cmpsim_protocols::checker::StepChecker;
use cmpsim_protocols::common::{
    bit, iter_bits, Block, BlockReason, MsgKind, Node, Tile, MAX_TILES,
};
use cmpsim_protocols::ProtoStats;
use cmpsim_virt::mem::PageKind;
use cmpsim_virt::MachineMemory;

use crate::attr::{classify, BreakdownLog, MsgClass, TxAttribution};
use crate::config::SystemConfig;
use crate::interval::{CumSnapshot, IntervalSampler, TimeSeries};
use crate::trace::{TraceLog, TxTracer};

/// What a message on the wire is.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Wire {
    /// A point-to-point protocol message.
    Msg(MsgKind),
    /// A protocol broadcast from its source tile to every L1.
    Bcast(MsgKind),
    /// Home → memory controller fetch.
    MemRead,
    /// Home → memory controller writeback.
    MemWrite,
    /// Memory controller → home data return.
    MemData,
}

/// One network message as the observers see it: what it is, its
/// endpoints, its NoC delivery from `depart`, and its size in flits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MsgEvent {
    wire: Wire,
    block: Block,
    src: Node,
    dst: Node,
    depart: Cycle,
    noc: Delivery,
    flits: u64,
}

impl MsgEvent {
    pub(crate) fn new(
        wire: Wire,
        block: Block,
        src: Node,
        dst: Node,
        depart: Cycle,
        noc: Delivery,
        flits: u64,
    ) -> Self {
        Self { wire, block, src, dst, depart, noc, flits }
    }

    fn name(&self) -> &'static str {
        match self.wire {
            Wire::Msg(k) | Wire::Bcast(k) => k.label(),
            Wire::MemRead => "MemRead",
            Wire::MemWrite => "MemWrite",
            Wire::MemData => "MemData",
        }
    }

    fn category(&self) -> &'static str {
        match self.wire {
            Wire::Msg(_) => "msg",
            Wire::Bcast(_) => "bcast",
            Wire::MemRead | Wire::MemWrite | Wire::MemData => "mem",
        }
    }

    fn class(&self) -> MsgClass {
        match self.wire {
            Wire::Msg(k) | Wire::Bcast(k) => classify(&k, self.src),
            Wire::MemRead => MsgClass::MemRead,
            Wire::MemWrite => MsgClass::MemWrite,
            Wire::MemData => MsgClass::MemData,
        }
    }
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
/// page: one indexed load into the page-kind table, made only when
/// attribution is on.
fn is_dedup_block(memory: &MachineMemory, block: Block) -> bool {
    matches!(memory.kind_of_block(block), Some(PageKind::Deduplicated))
}

/// One tile's open (issued, not yet completed) L1 miss.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpenTx {
    /// The missed block.
    pub(crate) block: Block,
    /// A store miss.
    pub(crate) write: bool,
    /// The cycle the miss issued at.
    pub(crate) issued: Cycle,
    /// Issue order: the number of misses issued before this one.
    pub(crate) seq: u64,
}

/// Each tile's open miss, and which of them owns the traffic on a
/// block. A core has at most one outstanding miss, so a tile has at
/// most one open transaction; several tiles may have one open on the
/// same block, and the oldest of them (the lowest issue order) owns
/// every message on it.
struct OpenIndex {
    /// Each tile's open miss.
    open: Vec<Option<OpenTx>>,
    /// The next issue order.
    next_seq: u64,
    /// The tiles with a transaction open on each block, one bit per
    /// tile (a chip has at most [`MAX_TILES`]).
    by_block: FxHashMap<Block, u64>,
}

impl OpenIndex {
    fn new(tiles: usize) -> Self {
        assert!(tiles <= MAX_TILES, "the open-transaction index holds at most {MAX_TILES} tiles");
        Self { open: vec![None; tiles], next_seq: 0, by_block: FxHashMap::default() }
    }

    /// Opens `tile`'s miss on `block` at `now` as the newest one. A core
    /// has one outstanding miss at a time; a leftover record would mean
    /// a completion was lost, so it is dropped here, the one place a
    /// stale miss is handled.
    fn issue(&mut self, now: Cycle, tile: Tile, block: Block, write: bool) {
        let tx = OpenTx { block, write, issued: now, seq: self.next_seq };
        self.next_seq += 1;
        if let Some(stale) = self.open[tile].replace(tx) {
            self.unlink(stale.block, tile);
        }
        *self.by_block.entry(block).or_insert(0) |= bit(tile);
    }

    /// Closes `tile`'s open miss, returning its record.
    fn complete(&mut self, tile: Tile) -> Option<OpenTx> {
        let tx = self.open[tile].take()?;
        self.unlink(tx.block, tile);
        Some(tx)
    }

    fn unlink(&mut self, block: Block, tile: Tile) {
        if let Some(mask) = self.by_block.get_mut(&block) {
            *mask &= !bit(tile);
            if *mask == 0 {
                self.by_block.remove(&block);
            }
        }
    }

    /// The open miss that owns traffic on `block`, with its tile: the
    /// only one open on it, or else the oldest.
    #[inline]
    fn owner(&self, block: Block) -> Option<(Tile, &OpenTx)> {
        let mask = *self.by_block.get(&block)?;
        let tile = if mask & (mask - 1) == 0 {
            mask.trailing_zeros() as Tile
        } else {
            iter_bits(mask).min_by_key(|&t| self.open[t].map_or(u64::MAX, |tx| tx.seq))?
        };
        Some((tile, self.open[tile].as_ref()?))
    }
}

/// Every opt-in observer of one simulation. Observation-only: nothing
/// here touches the event queue or the RNG, so simulated timing is
/// bit-identical with any observer on or off.
pub(crate) struct Observers {
    /// Per-message invariant checker (from `cfg.check_invariants`).
    pub(crate) checker: Option<StepChecker>,
    /// Coherence-transaction tracer (from `cfg.tracing`).
    pub(crate) tracer: Option<TxTracer>,
    /// Per-transaction critical-path and energy attribution (from
    /// `cfg.attribution`).
    pub(crate) attr: Option<TxAttribution>,
    /// Interval time-series sampler, built when the warm-up window ends
    /// (from `cfg.sample_interval`).
    pub(crate) sampler: Option<IntervalSampler>,
    /// Energy table for the sampler's cumulative snapshots.
    pub(crate) energy_model: Option<EnergyModel>,
    /// Each tile's open miss, which the tracer and attribution read.
    index: OpenIndex,
}

impl Observers {
    /// The observers `cfg` asks for; `vm_of[tile]` is each core's VM.
    pub(crate) fn new(cfg: &SystemConfig, vm_of: Vec<usize>) -> Self {
        let tiles = vm_of.len();
        Self {
            checker: cfg.check_invariants.then(StepChecker::new),
            tracer: cfg.tracing.then(|| TxTracer::new(tiles)),
            attr: cfg.attribution.then(|| TxAttribution::with_vms(vm_of, cfg.num_vms)),
            sampler: None,
            energy_model: None,
            index: OpenIndex::new(tiles),
        }
    }

    /// True when an observer follows transactions (tracer or
    /// attribution): the one branch at each hook site.
    #[inline]
    fn tracks_tx(&self) -> bool {
        self.tracer.is_some() || self.attr.is_some()
    }

    /// An L1 miss issues at `now` on `tile`: opens its transaction.
    #[inline]
    pub(crate) fn on_issue(
        &mut self,
        now: Cycle,
        tile: Tile,
        block: Block,
        write: bool,
        memory: &MachineMemory,
    ) {
        if self.tracks_tx() {
            self.open_tx(now, tile, block, write, memory);
        }
    }

    // The observers' work stays out of line (here, in `record_message`
    // and in `close_tx`), so the event loop compiles to the same code
    // with every observer off whatever that work grows or shrinks to.
    #[inline(never)]
    fn open_tx(
        &mut self,
        now: Cycle,
        tile: Tile,
        block: Block,
        write: bool,
        memory: &MachineMemory,
    ) {
        self.index.issue(now, tile, block, write);
        if let Some(tr) = &mut self.tracer {
            tr.on_issue(tile);
        }
        if let Some(a) = &mut self.attr {
            a.on_issue(tile, is_dedup_block(memory, block));
        }
    }

    /// One network message, described by `ev`, which is called only
    /// when an observer follows transactions.
    #[inline]
    pub(crate) fn on_message(&mut self, memory: &MachineMemory, ev: impl FnOnce() -> MsgEvent) {
        if self.tracks_tx() {
            self.record_message(ev(), memory);
        }
    }

    #[inline(never)]
    fn record_message(&mut self, ev: MsgEvent, memory: &MachineMemory) {
        let (owner, arrival, links) = (self.index.owner(ev.block), ev.noc.arrival, ev.noc.links);
        if let Some(tr) = &mut self.tracer {
            let (name, cat, src, dst) = (ev.name(), ev.category(), ev.src.tile(), ev.dst.tile());
            tr.on_message(owner, ev.depart, arrival, name, cat, ev.block, src, dst, links);
        }
        if let Some(a) = &mut self.attr {
            let dedup = is_dedup_block(memory, ev.block);
            let (owner, class, src, dst) = (owner.map(|(t, _)| t), ev.class(), ev.src, ev.dst);
            a.on_message(owner, ev.depart, arrival, class, src, dst, links, ev.flits, dedup);
        }
    }

    /// The miss open on `tile` completes at `now`.
    #[inline]
    pub(crate) fn on_completion(&mut self, now: Cycle, tile: Tile) {
        if self.tracks_tx() {
            self.close_tx(now, tile);
        }
    }

    #[inline(never)]
    fn close_tx(&mut self, now: Cycle, tile: Tile) {
        let Some(tx) = self.index.complete(tile) else {
            return;
        };
        if let Some(tr) = &mut self.tracer {
            tr.on_completion(now, tile, &tx);
        }
        if let Some(a) = &mut self.attr {
            a.on_completion(now, tile, &tx);
        }
    }

    /// A core on `tile` waits `cycles` before retrying a blocked access.
    pub(crate) fn on_blocked(&mut self, reason: BlockReason, cycles: u64, tile: Tile) {
        if let Some(a) = &mut self.attr {
            a.on_blocked(reason, cycles, tile);
        }
    }

    /// The cache counters before a protocol dispatch, when attribution
    /// wants the dispatch's delta (see [`Self::on_cache_delta`]).
    #[inline]
    pub(crate) fn cache_base(&self, stats: &ProtoStats) -> Option<[u64; 7]> {
        self.attr.is_some().then(|| cache_counts(stats))
    }

    /// Charges the cache-counter movement since `base` to the
    /// transaction open on `block` (or the untracked bucket); a dispatch
    /// that moved no counter charges nothing.
    pub(crate) fn on_cache_delta(&mut self, block: Block, base: [u64; 7], stats: &ProtoStats) {
        let cur = cache_counts(stats);
        // An OR-fold of the element-wise XOR, not `cur == base`: array
        // `==` compiles to a libc `bcmp` call on this per-dispatch path.
        if cur.iter().zip(&base).fold(0, |moved, (c, b)| moved | (c ^ b)) == 0 {
            return;
        }
        let owner = self.index.owner(block).map(|(t, _)| t);
        let Some(a) = &mut self.attr else { return };
        let [l1_tag, l1_data, l2_tag, l2_data, dir, l1c, l2c] =
            std::array::from_fn(|i| cur[i] - base[i]);
        let delta =
            EventCounts { l1_tag, l1_data, l2_tag, l2_data, dir, l1c, l2c, ..Default::default() };
        a.on_cache_events(owner, delta);
    }

    /// Warm-up reset: aggregates zero with the stats they mirror, while
    /// open transactions are kept so misses straddling the boundary
    /// still complete and reconcile.
    pub(crate) fn reset(&mut self) {
        if let Some(tr) = &mut self.tracer {
            tr.reset();
        }
        if let Some(a) = &mut self.attr {
            a.reset();
        }
    }

    /// Stall-dump context at `now`: the trace tail and the phase
    /// timelines of in-flight misses.
    pub(crate) fn stall_context(&self, now: Cycle) -> (Vec<String>, Vec<String>) {
        (
            self.tracer.as_ref().map(|t| t.tail_lines(16)).unwrap_or_default(),
            self.attr.as_ref().map(|a| a.stall_lines(now, 8, &self.index.open)).unwrap_or_default(),
        )
    }

    /// Closes every observer out. `series_end` is the sampler's final
    /// (cycle, cumulative snapshot, occupancy), present when sampling.
    pub(crate) fn finish(
        &mut self,
        series_end: Option<(Cycle, CumSnapshot, cmpsim_protocols::Occupancy)>,
    ) -> (Option<TraceLog>, Option<BreakdownLog>, Option<TimeSeries>) {
        let series = self.sampler.take().zip(series_end);
        (
            self.tracer.take().map(|t| t.finish(&self.index.open)),
            self.attr.take().map(|a| a.finish(&self.index.open)),
            series.map(|(s, (now, cum, occ))| s.finish(now, &cum, &occ)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The index as a list of open tiles per block in issue order: the
    /// oracle [`OpenIndex`]'s owners must agree with.
    struct OracleIndex {
        open: Vec<Option<Block>>,
        by_block: BTreeMap<Block, Vec<Tile>>,
    }

    impl OracleIndex {
        fn issue(&mut self, tile: Tile, block: Block) {
            if let Some(stale) = self.open[tile].replace(block) {
                self.unlink(stale, tile);
            }
            self.by_block.entry(block).or_default().push(tile);
        }

        fn complete(&mut self, tile: Tile) -> Option<Block> {
            let block = self.open[tile].take()?;
            self.unlink(block, tile);
            Some(block)
        }

        fn unlink(&mut self, block: Block, tile: Tile) {
            let tiles = self.by_block.get_mut(&block).expect("open tile is linked");
            tiles.retain(|&t| t != tile);
            if tiles.is_empty() {
                self.by_block.remove(&block);
            }
        }

        fn owner(&self, block: Block) -> Option<Tile> {
            self.by_block.get(&block).and_then(|tiles| tiles.first().copied())
        }

        /// The `k`-th open tile (modulo their count), if any is open.
        fn nth_open(&self, k: usize) -> Option<Tile> {
            let open: Vec<Tile> =
                (0..self.open.len()).filter(|&t| self.open[t].is_some()).collect();
            (!open.is_empty()).then(|| open[k % open.len()])
        }
    }

    const BLOCKS: u64 = 4;

    proptest! {
        /// Over random issues (fresh, and stale re-issues on a tile
        /// whose miss never completed) and completions on a 64-tile
        /// chip, the index names the same owner for every block as the
        /// issue-ordered oracle at every step, and is empty once every
        /// transaction completes.
        #[test]
        fn index_matches_issue_ordered_oracle(
            ops in prop::collection::vec((0u8..3, 0usize..64, 0u64..BLOCKS), 1..400),
        ) {
            let mut index = OpenIndex::new(64);
            let mut oracle = OracleIndex { open: vec![None; 64], by_block: BTreeMap::new() };
            for (now, (op, tile, block)) in (0..).zip(ops) {
                match op {
                    0 => {
                        index.issue(now, tile, block, false);
                        oracle.issue(tile, block);
                    }
                    1 => {
                        if let Some(t) = oracle.nth_open(tile) {
                            prop_assert_eq!(index.complete(t).map(|tx| tx.block), oracle.complete(t));
                        }
                    }
                    _ => {
                        if let Some(t) = oracle.nth_open(tile) {
                            index.issue(now, t, block, true);
                            oracle.issue(t, block);
                        }
                    }
                }
                for b in 0..BLOCKS {
                    let owner = index.owner(b).map(|(t, _)| t);
                    prop_assert_eq!(owner, oracle.owner(b), "owner of block {}", b);
                }
            }
            while let Some(t) = oracle.nth_open(0) {
                prop_assert_eq!(index.complete(t).map(|tx| tx.block), oracle.complete(t));
            }
            prop_assert!(index.by_block.is_empty());
            prop_assert!(index.open.iter().all(Option::is_none));
        }
    }

    /// Messages on a block belong to its oldest open transaction, and
    /// pass to the next one when that completes.
    #[test]
    fn traffic_follows_oldest_open_tx() {
        let mut obs = Observers::new(&SystemConfig::smoke().with_tracing(), vec![0; 4]);
        let memory = MachineMemory::new(1);
        let noc = Delivery { arrival: 1, links: 1 };
        let msg = MsgEvent::new(Wire::MemRead, 0x40, Node::L2(0), Node::L2(1), 0, noc, 1);
        obs.on_issue(1, 2, 0x40, false, &memory);
        obs.on_issue(2, 1, 0x40, true, &memory);
        obs.on_message(&memory, || msg);
        obs.on_completion(6, 2);
        obs.on_message(&memory, || msg);
        obs.on_completion(9, 1);
        assert!(obs.index.by_block.is_empty());
        let ring = obs.finish(None).0.expect("tracing on").ring;
        let tids: Vec<u64> = ring.iter().filter(|e| e.cat == "mem").map(|e| e.tid).collect();
        assert_eq!(tids, vec![1, 2], "tile 2 issued first, then tile 1");
    }
}
