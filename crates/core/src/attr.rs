//! Per-transaction critical-path and energy attribution.
//!
//! When [`SystemConfig::attribution`](crate::SystemConfig) is on, every
//! L1 miss's lifetime is decomposed into the typed [`Phase`]s of the
//! paper's Figure 7, and every dynamic-energy-bearing event (cache
//! array access, directory/coherence-info access, NoC routing, flit
//! transmission) is charged to the transaction that caused it — or to
//! the untracked background bucket when none is open on the block.
//!
//! Two hard tiling invariants hold (and are enforced by the integration
//! tests, per transaction and in aggregate):
//!
//! 1. **Latency**: the per-phase cycles of a completed transaction sum
//!    *exactly* to its measured end-to-end miss latency (the same
//!    `completion - issue` window the protocols record into
//!    `miss_latency`).
//! 2. **Energy**: attributed event counts (transactions + untracked +
//!    still-open) sum integer-exactly to the aggregate
//!    [`ProtoStats`](cmpsim_protocols::ProtoStats) and NoC counters, so
//!    per-transaction energy computed from them tiles bit-exactly into
//!    the aggregate dynamic energy.
//!
//! The latency decomposition is a deterministic cursor sweep over the
//! transaction's recorded message spans, run at completion time: spans
//! are visited in `(depart, arrival)` order; uncovered gaps are charged
//! to the phase implied by where the transaction logically *is*
//! (requestor, home, owner, memory controller, or filled), and in-span
//! time is charged to the span's own class. Everything is clamped to
//! the `[issue, completion]` window, and any residue after the last
//! span is the fill phase — which is what makes the sum exact by
//! construction rather than by sampling.
//!
//! When VM identity is supplied ([`TxAttribution::with_vms`]), every
//! charge above is *additionally* bucketed by the originating VM (the
//! VM of the requestor core), and the same tiling holds per tenant:
//! summing any [`VmBucket`] field over all VMs reproduces the chip
//! aggregate bit-for-bit, because each charge is the same integer add
//! applied to exactly one VM bucket and to the chip total. On top of
//! that, every message is charged into an N x N [`MatrixCell`] grid —
//! cell `(a, v)` holds the costs VM `a` imposed on VM `v`: traffic of
//! `a`'s transactions delivered into `v`'s tiles, and critical-path
//! cycles `v`'s transactions lost in invalidation/forward/retry spans
//! terminating in `a`'s tiles (`stolen_cycles`).
//!
//! Like tracing, attribution is observation-only: it never touches the
//! event queue or the RNG, and simulated timing is bit-identical with
//! it on or off.

use cmpsim_engine::phase::{EventCounts, Phase, PhaseCycles, PHASES};
use cmpsim_engine::stats::Log2Hist;
use cmpsim_engine::Cycle;
use cmpsim_protocols::common::{Block, BlockReason, MsgKind, Node, Tile};

/// Critical-path classification of one network message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// A coherence request leaving the requestor (first hop).
    Request,
    /// A request re-sent past its first stop (home -> owner, owner
    /// chasing) — the indirection hop the DiCo family removes.
    Forward,
    /// A data response.
    Data,
    /// Home -> memory controller fetch.
    MemRead,
    /// Home -> memory controller writeback.
    MemWrite,
    /// Memory controller -> home data return.
    MemData,
    /// Invalidation round traffic (invs, acks, broadcast steps).
    Inv,
    /// NACK/retry traffic (ownership recalls and their failures).
    Retry,
    /// Ordering-point maintenance (registrations, unblocks, writeback
    /// acks, transfers, hints).
    Control,
}

/// Classifies a protocol message for phase charging. `src` distinguishes
/// a first-hop request (from the requestor's L1) from a forward.
pub fn classify(kind: &MsgKind, src: Node) -> MsgClass {
    match kind {
        MsgKind::Req(r) => {
            if matches!(src, Node::L1(_)) && src.tile() == r.requestor {
                MsgClass::Request
            } else {
                MsgClass::Forward
            }
        }
        MsgKind::Data(_) => MsgClass::Data,
        MsgKind::MemData => MsgClass::MemData,
        MsgKind::Inv { .. }
        | MsgKind::InvProvider { .. }
        | MsgKind::InvSilent
        | MsgKind::Ack
        | MsgKind::AckCount { .. }
        | MsgKind::BcastInv { .. }
        | MsgKind::BcastAck
        | MsgKind::BcastUnblock
        | MsgKind::BcastDone { .. } => MsgClass::Inv,
        MsgKind::OwnershipRecall | MsgKind::RecallFailed => MsgClass::Retry,
        _ => MsgClass::Control,
    }
}

/// In-flight time of a span, by class.
fn span_phase(class: MsgClass) -> Phase {
    match class {
        MsgClass::Request => Phase::ReqNet,
        MsgClass::Forward => Phase::OwnerInd,
        MsgClass::Data => Phase::DataNet,
        MsgClass::MemRead | MsgClass::MemWrite | MsgClass::MemData => Phase::Memory,
        MsgClass::Inv => Phase::Inv,
        MsgClass::Retry => Phase::Retry,
        // Ordering-point maintenance is precisely the serialization the
        // home imposes on the transaction, so it charges the home phase.
        MsgClass::Control => Phase::Home,
    }
}

/// Where the transaction logically sits between spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// At the requestor, request not yet departed (L1 lookup).
    Requestor,
    /// At the ordering point (home directory, or the owner a direct
    /// DiCo request reached): lookup + queueing.
    Home,
    /// At an indirected owner (forwarded request parked there).
    Owner,
    /// At the memory controller (queueing + DRAM access).
    MemCtrl,
    /// Back at the requestor, data arrived (fill + completion delay).
    Filled,
}

/// Gap (non-span) time is charged by location.
fn gap_phase(loc: Loc) -> Phase {
    match loc {
        Loc::Requestor => Phase::ReqNet,
        Loc::Home => Phase::Home,
        Loc::Owner => Phase::OwnerInd,
        Loc::MemCtrl => Phase::Memory,
        Loc::Filled => Phase::Fill,
    }
}

/// One recorded message span of an open transaction.
#[derive(Debug, Clone, Copy)]
struct AttrEvent {
    depart: Cycle,
    arrival: Cycle,
    class: MsgClass,
    /// Destination is an L1 (vs L2) — a data response to the
    /// requestor's L1 moves the transaction to [`Loc::Filled`].
    dst_l1: bool,
    dst_tile: Tile,
}

fn transition(loc: Loc, e: &AttrEvent, requestor: Tile) -> Loc {
    match e.class {
        MsgClass::Request => Loc::Home,
        MsgClass::Forward => Loc::Owner,
        MsgClass::MemRead => Loc::MemCtrl,
        MsgClass::MemData => Loc::Home,
        MsgClass::Data if e.dst_l1 && e.dst_tile == requestor => Loc::Filled,
        _ => loc,
    }
}

/// The deterministic cursor sweep over `events` in `(depart, arrival)`
/// order: charges `[issued, end)` across the phases. Returns the
/// per-phase cycles (summing exactly to `end - issued`) and the final
/// location. `on_span` observes each span's clamped in-span charge (for
/// cross-VM stolen-cycle accounting); pass a no-op closure when only the
/// phases matter.
fn sweep(
    issued: Cycle,
    requestor: Tile,
    events: &[AttrEvent],
    end: Cycle,
    mut on_span: impl FnMut(&AttrEvent, u64),
) -> (PhaseCycles, Loc) {
    let mut pc = PhaseCycles::default();
    let mut cur = issued;
    let mut loc = Loc::Requestor;
    for e in events.iter() {
        if cur >= end {
            break;
        }
        if e.depart > cur {
            let stop = e.depart.min(end);
            pc.add(gap_phase(loc), stop - cur);
            cur = stop;
        }
        if e.arrival > cur {
            let stop = e.arrival.min(end);
            if stop > cur {
                pc.add(span_phase(e.class), stop - cur);
                on_span(e, stop - cur);
                cur = stop;
            }
        }
        loc = transition(loc, e, requestor);
    }
    if end > cur {
        pc.add(gap_phase(loc), end - cur);
    }
    (pc, loc)
}

/// One open (issued, not yet completed) transaction.
#[derive(Debug, Clone)]
struct OpenAttr {
    block: Block,
    write: bool,
    issued: Cycle,
    requestor: Tile,
    /// Message spans in `(depart, arrival)` order, equal keys in the
    /// order they were recorded.
    events: Vec<AttrEvent>,
    counts: EventCounts,
    /// The missed block is backed by a deduplicated (inter-VM shared)
    /// page — the transaction is cross-VM by construction.
    dedup: bool,
}

/// Per-VM bucket of the chip-level attribution aggregates. Summing any
/// field over all VMs reproduces the corresponding chip aggregate
/// bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmBucket {
    /// Completed transactions issued by this VM's cores.
    pub completed: u64,
    /// Sum of their end-to-end miss latencies.
    pub latency_cycles: u64,
    /// Their per-phase critical-path cycles (sums to `latency_cycles`).
    pub phase_cycles: PhaseCycles,
    /// Their attributed energy-event counts.
    pub counts: EventCounts,
    /// Pre-issue core wait on MSHR conflicts.
    pub mshr_wait_cycles: u64,
    /// Pre-issue core wait on busy/locked blocks.
    pub retry_wait_cycles: u64,
    /// Completed transactions on VM-private blocks.
    pub intra_txs: u64,
    /// Completed transactions on dedup-backed (inter-VM shared) blocks.
    pub cross_txs: u64,
    /// Critical-path cycles this VM's transactions lost in
    /// invalidation/forward/retry spans ending in *other* VMs' tiles
    /// (the row sum of its column in the interference matrix, off the
    /// diagonal).
    pub stolen_cycles: u64,
    /// Transactions still open at the end of the run.
    pub open_txs: u64,
}

/// One cell `(aggressor a, victim v)` of the cross-VM interference
/// matrix: costs VM `a` imposed on VM `v`. Message counts are charged
/// at send time — `a` = the VM of the transaction (or source tile) the
/// message belongs to, `v` = the VM of the destination tile. Stolen
/// cycles are charged at completion — `v` = the requestor VM whose
/// critical path grew, `a` = the VM of the remote tile the
/// invalidation/forward/retry span ended in. The diagonal holds a VM's
/// self-interference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixCell {
    /// Messages delivered into the victim's tiles.
    pub msgs: u64,
    /// Of which: invalidation-round traffic.
    pub inv_msgs: u64,
    /// Of which: forwarded (indirected) requests.
    pub fwd_msgs: u64,
    /// Of which: traffic on dedup-backed (inter-VM shared) blocks.
    pub dedup_msgs: u64,
    /// Routing events of those messages.
    pub routing: u64,
    /// Flit-link traversals of those messages.
    pub flit_links: u64,
    /// Victim critical-path cycles spent in inv/forward/retry spans
    /// ending in the aggressor's tiles.
    pub stolen_cycles: u64,
}

impl MatrixCell {
    /// True when every field is zero (cell renders as empty).
    pub fn is_zero(&self) -> bool {
        *self == MatrixCell::default()
    }
}

/// The per-transaction attribution tracker. Owned by the simulator;
/// only present when attribution is enabled, so the disabled hot path
/// is a single `Option` test per hook.
#[derive(Debug, Clone)]
pub struct TxAttribution {
    /// The open transaction of each tile (one outstanding miss per
    /// core, so tile indexes the open set exactly).
    open: Vec<Option<OpenAttr>>,
    /// Per-phase per-transaction distributions (one sample per
    /// completed transaction per phase, zeros included, so every hist
    /// count equals `completed`).
    hists: Vec<Log2Hist>,
    /// Total cycles per phase over completed transactions.
    totals: PhaseCycles,
    /// Completed transactions since the last reset.
    completed: u64,
    /// Completed transactions whose phase sum equaled their end-to-end
    /// latency (always == `completed`; a hard invariant).
    reconciled: u64,
    /// Sum of end-to-end latencies (mirrors `miss_latency.sum()`).
    latency_cycles: u64,
    /// Pre-issue wait: cycles cores spent retrying on an MSHR conflict.
    mshr_wait_cycles: u64,
    /// Pre-issue wait: cycles cores spent retrying on a busy block.
    retry_wait_cycles: u64,
    /// Energy-event counts of completed transactions.
    tx_counts: EventCounts,
    /// Energy-event counts with no open transaction on their block.
    untracked_counts: EventCounts,
    /// VM of each tile's core (all zeros without tenant identity).
    vm_of: Vec<usize>,
    /// Number of VMs (1 without tenant identity).
    num_vms: usize,
    /// Per-VM buckets of the aggregates above, indexed by VM id.
    vm: Vec<VmBucket>,
    /// Cross-VM interference matrix, row-major `[aggressor][victim]`.
    matrix: Vec<MatrixCell>,
    /// Energy-event counts of completed transactions by requestor tile
    /// (the spatial split of `tx_counts`, for energy heatmaps).
    tile_counts: Vec<EventCounts>,
    /// Each tile's span buffer from its last completed transaction,
    /// emptied, for its next miss to reuse.
    spare_events: Vec<Vec<AttrEvent>>,
}

impl TxAttribution {
    /// Creates a tracker for a `tiles`-tile chip without tenant
    /// identity (everything lands in a single VM-0 bucket).
    pub fn new(tiles: usize) -> Self {
        Self::with_vms(vec![0; tiles], 1)
    }

    /// Creates a tracker with tenant identity: `vm_of[tile]` is the VM
    /// the core on `tile` belongs to, each `< num_vms`.
    pub fn with_vms(vm_of: Vec<usize>, num_vms: usize) -> Self {
        let tiles = vm_of.len();
        let num_vms = num_vms.max(1);
        debug_assert!(vm_of.iter().all(|&v| v < num_vms), "vm_of out of range");
        Self {
            open: vec![None; tiles],
            hists: (0..PHASES).map(|_| Log2Hist::new()).collect(),
            totals: PhaseCycles::default(),
            completed: 0,
            reconciled: 0,
            latency_cycles: 0,
            mshr_wait_cycles: 0,
            retry_wait_cycles: 0,
            tx_counts: EventCounts::default(),
            untracked_counts: EventCounts::default(),
            vm: vec![VmBucket::default(); num_vms],
            matrix: vec![MatrixCell::default(); num_vms * num_vms],
            tile_counts: vec![EventCounts::default(); tiles],
            spare_events: vec![Vec::new(); tiles],
            vm_of,
            num_vms,
        }
    }

    /// Opens a transaction for the L1 miss issuing at `now` on `tile`.
    /// `dedup` marks a miss on a deduplicated (inter-VM shared) block.
    pub fn on_issue(&mut self, now: Cycle, tile: Tile, block: Block, write: bool, dedup: bool) {
        self.open[tile] = Some(OpenAttr {
            block,
            write,
            issued: now,
            requestor: tile,
            events: std::mem::take(&mut self.spare_events[tile]),
            counts: EventCounts::default(),
            dedup,
        });
    }

    /// Records one network message span owned by `owner`'s open
    /// transaction (none: untracked traffic), charging its NoC energy
    /// events (`links` routings, `links * flits` flit-links) the same
    /// way the mesh counts them, plus one interference-matrix cell
    /// (aggressor = the VM of the owning transaction's requestor, or of
    /// `src`'s tile for untracked traffic; victim = the VM of `dst`'s
    /// tile). `dedup` marks traffic on an inter-VM shared block.
    #[allow(clippy::too_many_arguments)]
    pub fn on_message(
        &mut self,
        owner: Option<Tile>,
        depart: Cycle,
        arrival: Cycle,
        class: MsgClass,
        src: Node,
        dst: Node,
        links: u64,
        flits: u64,
        dedup: bool,
    ) {
        let noc = EventCounts { routing: links, flit_links: links * flits, ..Default::default() };
        let tx = owner.and_then(|t| self.open[t].as_mut());
        let aggressor = match tx {
            Some(tx) => {
                // Spans are recorded nearly in depart order, so the scan
                // for the insertion point is short.
                let key = (depart, arrival);
                let at = tx.events.iter().rposition(|e| (e.depart, e.arrival) <= key);
                let span = AttrEvent {
                    depart,
                    arrival,
                    class,
                    dst_l1: matches!(dst, Node::L1(_)),
                    dst_tile: dst.tile(),
                };
                tx.events.insert(at.map_or(0, |i| i + 1), span);
                tx.counts.merge(&noc);
                tx.dedup |= dedup;
                self.vm_of[tx.requestor]
            }
            None => {
                self.untracked_counts.merge(&noc);
                self.vm_of[src.tile()]
            }
        };
        let victim = self.vm_of[dst.tile()];
        let cell = &mut self.matrix[aggressor * self.num_vms + victim];
        cell.msgs += 1;
        match class {
            MsgClass::Inv => cell.inv_msgs += 1,
            MsgClass::Forward => cell.fwd_msgs += 1,
            _ => {}
        }
        if dedup {
            cell.dedup_msgs += 1;
        }
        cell.routing += links;
        cell.flit_links += links * flits;
    }

    /// Charges a cache-side energy-event delta (the counter movement of
    /// one protocol dispatch) to `owner`'s open transaction.
    pub fn on_cache_events(&mut self, owner: Option<Tile>, delta: EventCounts) {
        if delta.is_zero() {
            return;
        }
        if let Some(tx) = owner.and_then(|t| self.open[t].as_mut()) {
            tx.counts.merge(&delta);
        } else {
            self.untracked_counts.merge(&delta);
        }
    }

    /// Records a blocked (pre-issue) core retry of `cycles` cycles on
    /// `tile`'s core.
    pub fn on_blocked(&mut self, reason: BlockReason, cycles: u64, tile: Tile) {
        let vm = &mut self.vm[self.vm_of[tile]];
        match reason {
            BlockReason::MshrConflict => {
                self.mshr_wait_cycles += cycles;
                vm.mshr_wait_cycles += cycles;
            }
            BlockReason::BusyBlock => {
                self.retry_wait_cycles += cycles;
                vm.retry_wait_cycles += cycles;
            }
        }
    }

    /// Completes the transaction open on `tile` at `now`: runs the
    /// sweep and folds the result into the chip, VM, tile, and matrix
    /// aggregates.
    pub fn on_completion(&mut self, now: Cycle, tile: Tile) {
        let Some(mut tx) = self.open[tile].take() else {
            return;
        };
        let latency = now.saturating_sub(tx.issued);
        let req_vm = self.vm_of[tx.requestor];
        let num_vms = self.num_vms;
        let vm_of = &self.vm_of;
        let matrix = &mut self.matrix;
        let mut stolen = 0u64;
        let (phases, _) = sweep(tx.issued, tx.requestor, &tx.events, now, |e, cycles| {
            // Cross-VM critical-path theft: inv/forward/retry spans of
            // this (victim) transaction ending in another VM's tiles.
            let dst_vm = vm_of[e.dst_tile];
            if dst_vm != req_vm
                && matches!(e.class, MsgClass::Inv | MsgClass::Forward | MsgClass::Retry)
            {
                matrix[dst_vm * num_vms + req_vm].stolen_cycles += cycles;
                stolen += cycles;
            }
        });
        for (p, cycles) in phases.iter() {
            self.hists[p.index()].record(cycles);
        }
        self.totals.merge(&phases);
        self.completed += 1;
        self.latency_cycles += latency;
        if phases.total() == latency {
            self.reconciled += 1;
        }
        self.tx_counts.merge(&tx.counts);
        self.tile_counts[tx.requestor].merge(&tx.counts);
        let vm = &mut self.vm[req_vm];
        vm.completed += 1;
        vm.latency_cycles += latency;
        vm.phase_cycles.merge(&phases);
        vm.counts.merge(&tx.counts);
        vm.stolen_cycles += stolen;
        if tx.dedup {
            vm.cross_txs += 1;
        } else {
            vm.intra_txs += 1;
        }
        tx.events.clear();
        self.spare_events[tile] = tx.events;
    }

    /// Warm-up reset: zeroes every aggregate (mirroring the proto/NoC
    /// stats resets) and the open transactions' energy counts, but
    /// keeps their recorded spans — a straddling miss still reports its
    /// full issue-to-completion decomposition, exactly matching the
    /// full latency the protocol records for it.
    pub fn reset(&mut self) {
        self.hists = (0..PHASES).map(|_| Log2Hist::new()).collect();
        self.totals = PhaseCycles::default();
        self.completed = 0;
        self.reconciled = 0;
        self.latency_cycles = 0;
        self.mshr_wait_cycles = 0;
        self.retry_wait_cycles = 0;
        self.tx_counts = EventCounts::default();
        self.untracked_counts = EventCounts::default();
        self.vm = vec![VmBucket::default(); self.num_vms];
        self.matrix = vec![MatrixCell::default(); self.num_vms * self.num_vms];
        self.tile_counts = vec![EventCounts::default(); self.tile_counts.len()];
        for tx in self.open.iter_mut().flatten() {
            tx.counts = EventCounts::default();
        }
    }

    /// Completed-transaction phase totals so far (interval sampling).
    pub fn phase_totals(&self) -> PhaseCycles {
        self.totals
    }

    /// Renders up to `n` open transactions' phase timelines at `now`
    /// (for watchdog stall dumps): where each in-flight miss is stuck.
    pub fn stall_lines(&self, now: Cycle, n: usize) -> Vec<String> {
        self.open
            .iter()
            .enumerate()
            .filter_map(|(tile, o)| o.as_ref().map(|tx| (tile, tx)))
            .take(n)
            .map(|(tile, tx)| {
                let (phases, loc) = sweep(tx.issued, tx.requestor, &tx.events, now, |_, _| {});
                let parts: Vec<String> = phases
                    .iter()
                    .filter(|&(_, c)| c > 0)
                    .map(|(p, c)| format!("{}={}", p.key(), c))
                    .collect();
                format!(
                    "tile {tile} block {:#x} {} issued@{} age={}: {} (in {})",
                    tx.block,
                    if tx.write { "store" } else { "load" },
                    tx.issued,
                    now.saturating_sub(tx.issued),
                    if parts.is_empty() { "-".to_string() } else { parts.join(" ") },
                    gap_phase(loc).key(),
                )
            })
            .collect()
    }

    /// Finalizes into the exportable log. Counts of transactions still
    /// open (none after a clean drain) land in `open_counts` so the
    /// energy tiling stays integer-exact regardless.
    pub fn finish(self) -> BreakdownLog {
        let mut open_counts = EventCounts::default();
        let mut open_txs = 0;
        let mut vm = self.vm;
        for tx in self.open.iter().flatten() {
            open_counts.merge(&tx.counts);
            open_txs += 1;
            vm[self.vm_of[tx.requestor]].open_txs += 1;
        }
        BreakdownLog {
            hists: self.hists,
            phase_cycles: self.totals,
            completed: self.completed,
            reconciled: self.reconciled,
            latency_cycles: self.latency_cycles,
            open_txs,
            mshr_wait_cycles: self.mshr_wait_cycles,
            retry_wait_cycles: self.retry_wait_cycles,
            tx_counts: self.tx_counts,
            untracked_counts: self.untracked_counts,
            open_counts,
            vm,
            matrix: self.matrix,
            num_vms: self.num_vms,
            vm_of: self.vm_of,
            tile_counts: self.tile_counts,
        }
    }
}

/// The attribution result of one finished run.
#[derive(Debug, Clone)]
pub struct BreakdownLog {
    /// Per-phase per-transaction distributions, indexed by
    /// [`Phase::index`]. Every hist's count equals `completed`.
    pub hists: Vec<Log2Hist>,
    /// Total cycles per phase over completed transactions; sums exactly
    /// to `latency_cycles`.
    pub phase_cycles: PhaseCycles,
    /// Transactions completed in the measured window (equals the
    /// protocol's `miss_latency.count()`).
    pub completed: u64,
    /// Transactions whose phase sum equaled their latency (== `completed`).
    pub reconciled: u64,
    /// Sum of end-to-end miss latencies (equals `miss_latency.sum()`).
    pub latency_cycles: u64,
    /// Transactions still open at the end (0 on a clean drain).
    pub open_txs: u64,
    /// Pre-issue core wait on MSHR conflicts (outside the miss window).
    pub mshr_wait_cycles: u64,
    /// Pre-issue core wait on busy/locked blocks (outside the window).
    pub retry_wait_cycles: u64,
    /// Energy events attributed to completed transactions.
    pub tx_counts: EventCounts,
    /// Energy events of background traffic (no open transaction).
    pub untracked_counts: EventCounts,
    /// Energy events of transactions still open at the end.
    pub open_counts: EventCounts,
    /// Per-VM buckets; each field sums over VMs to the chip aggregate
    /// of the same name bit-for-bit.
    pub vm: Vec<VmBucket>,
    /// Cross-VM interference matrix, row-major `[aggressor][victim]`,
    /// `num_vms * num_vms` cells.
    pub matrix: Vec<MatrixCell>,
    /// Number of VMs (matrix dimension; `vm.len()`).
    pub num_vms: usize,
    /// VM of each tile's core.
    pub vm_of: Vec<usize>,
    /// Energy events of completed transactions by requestor tile (the
    /// spatial split of `tx_counts`).
    pub tile_counts: Vec<EventCounts>,
}

impl BreakdownLog {
    /// The interference-matrix cell for `(aggressor, victim)`.
    pub fn matrix_cell(&self, aggressor: usize, victim: usize) -> &MatrixCell {
        &self.matrix[aggressor * self.num_vms + victim]
    }
    /// All attributed energy events; equals the aggregate proto/NoC
    /// counters integer-exactly.
    pub fn total_counts(&self) -> EventCounts {
        let mut c = self.tx_counts;
        c.merge(&self.untracked_counts);
        c.merge(&self.open_counts);
        c
    }

    /// The per-transaction distribution of `phase`.
    pub fn phase_hist(&self, phase: Phase) -> &Log2Hist {
        &self.hists[phase.index()]
    }

    /// Mean cycles per miss spent in `phase`.
    pub fn phase_avg(&self, phase: Phase) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.phase_cycles.get(phase) as f64 / self.completed as f64
        }
    }

    /// Share of total miss latency spent in `phase` (0..1).
    pub fn phase_frac(&self, phase: Phase) -> f64 {
        if self.latency_cycles == 0 {
            0.0
        } else {
            self.phase_cycles.get(phase) as f64 / self.latency_cycles as f64
        }
    }

    /// Publishes the attribution metrics under `prefix` (counters,
    /// per-phase cycle totals and Log2Hists, per-bucket event counts).
    pub fn publish(&self, prefix: &str, reg: &mut cmpsim_engine::MetricsRegistry) {
        reg.set_counter(&format!("{prefix}.completed"), self.completed);
        reg.set_counter(&format!("{prefix}.reconciled"), self.reconciled);
        reg.set_counter(&format!("{prefix}.open_txs"), self.open_txs);
        reg.set_counter(&format!("{prefix}.latency_cycles"), self.latency_cycles);
        reg.set_counter(&format!("{prefix}.mshr_wait_cycles"), self.mshr_wait_cycles);
        reg.set_counter(&format!("{prefix}.retry_wait_cycles"), self.retry_wait_cycles);
        for p in Phase::all() {
            reg.set_counter(
                &format!("{prefix}.phase.{}.cycles", p.key()),
                self.phase_cycles.get(p),
            );
            reg.merge_hist(&format!("{prefix}.phase.{}", p.key()), self.phase_hist(p));
        }
        for (bucket, counts) in [
            ("tx", &self.tx_counts),
            ("untracked", &self.untracked_counts),
            ("open", &self.open_counts),
        ] {
            for (name, v) in counts.fields() {
                reg.set_counter(&format!("{prefix}.events.{bucket}.{name}"), v);
            }
        }
        for (i, vm) in self.vm.iter().enumerate() {
            reg.set_counter(&format!("{prefix}.vm.{i}.completed"), vm.completed);
            reg.set_counter(&format!("{prefix}.vm.{i}.latency_cycles"), vm.latency_cycles);
            reg.set_counter(&format!("{prefix}.vm.{i}.intra_txs"), vm.intra_txs);
            reg.set_counter(&format!("{prefix}.vm.{i}.cross_txs"), vm.cross_txs);
            reg.set_counter(&format!("{prefix}.vm.{i}.stolen_cycles"), vm.stolen_cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_protocols::common::ReqInfo;

    fn req(requestor: Tile) -> MsgKind {
        MsgKind::Req(ReqInfo {
            requestor,
            write: false,
            forwarder: None,
            via_home: false,
            predicted: false,
            vouched: false,
            hops: 0,
        })
    }

    #[test]
    fn classify_request_vs_forward() {
        let k = req(3);
        assert_eq!(classify(&k, Node::L1(3)), MsgClass::Request);
        assert_eq!(classify(&k, Node::L2(5)), MsgClass::Forward);
        assert_eq!(classify(&k, Node::L1(4)), MsgClass::Forward);
        assert_eq!(classify(&MsgKind::MemData, Node::L2(0)), MsgClass::MemData);
        assert_eq!(classify(&MsgKind::OwnershipRecall, Node::L2(0)), MsgClass::Retry);
        assert_eq!(classify(&MsgKind::WbAck, Node::L2(0)), MsgClass::Control);
        assert_eq!(classify(&MsgKind::Ack, Node::L1(0)), MsgClass::Inv);
    }

    /// Spans recorded out of order are kept in `(depart, arrival)`
    /// order, equal keys in the order they were recorded: the order the
    /// sweep reads them in.
    #[test]
    fn spans_are_kept_in_sweep_order() {
        use MsgClass::*;
        let mut a = TxAttribution::new(2);
        a.on_issue(0, 0, 0x40, false, false);
        let spans = [(5, 9, Data), (3, 4, Request), (5, 9, Inv), (1, 2, Forward), (5, 7, Control)];
        for (depart, arrival, class) in spans {
            a.on_message(Some(0), depart, arrival, class, Node::L1(0), Node::L2(1), 1, 1, false);
        }
        let tx = a.open[0].as_ref().expect("open");
        let got: Vec<_> = tx.events.iter().map(|e| (e.depart, e.arrival, e.class)).collect();
        let want = [(1, 2, Forward), (3, 4, Request), (5, 7, Control), (5, 9, Data), (5, 9, Inv)];
        assert_eq!(got, want);
    }

    /// A two-hop miss: request 10..20, home processes until 25, data
    /// 25..40, completion at 43. Phases must tile [10, 43] exactly.
    #[test]
    fn sweep_tiles_simple_miss() {
        let mut a = TxAttribution::new(4);
        a.on_issue(10, 1, 0x40, false, false);
        a.on_message(Some(1), 10, 20, MsgClass::Request, Node::L1(1), Node::L2(2), 3, 1, false);
        a.on_message(Some(1), 25, 40, MsgClass::Data, Node::L2(2), Node::L1(1), 3, 5, false);
        a.on_completion(43, 1);
        let log = a.finish();
        assert_eq!(log.completed, 1);
        assert_eq!(log.reconciled, 1);
        assert_eq!(log.latency_cycles, 33);
        assert_eq!(log.phase_cycles.total(), 33);
        assert_eq!(log.phase_cycles.get(Phase::ReqNet), 10);
        assert_eq!(log.phase_cycles.get(Phase::Home), 5);
        assert_eq!(log.phase_cycles.get(Phase::DataNet), 15);
        assert_eq!(log.phase_cycles.get(Phase::Fill), 3);
        // NoC events: 3 + 3 routings, 3*1 + 3*5 flit-links.
        assert_eq!(log.tx_counts.routing, 6);
        assert_eq!(log.tx_counts.flit_links, 18);
    }

    /// A memory miss adds the MemRead/MemData bracket; the controller
    /// queueing + DRAM gap between them charges the memory phase.
    #[test]
    fn sweep_charges_memory_gap() {
        let mut a = TxAttribution::new(4);
        a.on_issue(0, 0, 0x80, true, false);
        a.on_message(Some(0), 0, 10, MsgClass::Request, Node::L1(0), Node::L2(3), 2, 1, false);
        a.on_message(Some(0), 12, 20, MsgClass::MemRead, Node::L2(3), Node::L2(3), 4, 1, false);
        // DRAM: 20..320 is a gap at the controller.
        a.on_message(Some(0), 320, 330, MsgClass::MemData, Node::L2(3), Node::L2(3), 4, 5, false);
        a.on_message(Some(0), 335, 350, MsgClass::Data, Node::L2(3), Node::L1(0), 5, 5, false);
        a.on_completion(352, 0);
        let log = a.finish();
        assert_eq!(log.reconciled, 1);
        assert_eq!(log.phase_cycles.total(), 352);
        // Memory = MemRead span (8) + DRAM gap (300) + MemData span (10).
        assert_eq!(log.phase_cycles.get(Phase::Memory), 318);
        assert_eq!(log.phase_cycles.get(Phase::Home), 2 + 5);
        assert_eq!(log.phase_cycles.get(Phase::DataNet), 15);
        assert_eq!(log.phase_cycles.get(Phase::Fill), 2);
    }

    /// Spans arriving after the completion (crossing traffic) are
    /// clamped; the sum still tiles exactly.
    #[test]
    fn sweep_clamps_to_completion() {
        let mut a = TxAttribution::new(2);
        a.on_issue(100, 0, 0x10, false, false);
        a.on_message(Some(0), 100, 110, MsgClass::Request, Node::L1(0), Node::L2(1), 2, 1, false);
        a.on_message(Some(0), 110, 500, MsgClass::Inv, Node::L2(1), Node::L1(1), 2, 1, false);
        a.on_completion(130, 0);
        let log = a.finish();
        assert_eq!(log.reconciled, 1);
        assert_eq!(log.phase_cycles.total(), 30);
        assert_eq!(log.phase_cycles.get(Phase::Inv), 20);
    }

    #[test]
    fn untracked_traffic_lands_in_background_bucket() {
        let mut a = TxAttribution::new(2);
        a.on_message(None, 5, 9, MsgClass::Control, Node::L2(1), Node::L2(0), 2, 1, false);
        a.on_cache_events(None, EventCounts { l2_tag: 1, ..Default::default() });
        let log = a.finish();
        assert_eq!(log.untracked_counts.routing, 2);
        assert_eq!(log.untracked_counts.l2_tag, 1);
        assert!(log.tx_counts.is_zero());
        assert_eq!(log.total_counts().routing, 2);
    }

    #[test]
    fn blocked_waits_split_by_reason() {
        let mut a = TxAttribution::new(1);
        a.on_blocked(BlockReason::MshrConflict, 7, 0);
        a.on_blocked(BlockReason::MshrConflict, 7, 0);
        a.on_blocked(BlockReason::BusyBlock, 7, 0);
        let log = a.finish();
        assert_eq!(log.mshr_wait_cycles, 14);
        assert_eq!(log.retry_wait_cycles, 7);
    }

    /// Reset keeps a straddling transaction's spans (its full-latency
    /// decomposition survives) but zeroes its energy counts.
    #[test]
    fn reset_keeps_spans_zeroes_counts() {
        let mut a = TxAttribution::new(2);
        a.on_issue(0, 0, 0x40, false, false);
        a.on_message(Some(0), 0, 10, MsgClass::Request, Node::L1(0), Node::L2(1), 3, 1, false);
        a.reset();
        a.on_message(Some(0), 12, 30, MsgClass::Data, Node::L2(1), Node::L1(0), 3, 5, false);
        a.on_completion(32, 0);
        let log = a.finish();
        assert_eq!(log.completed, 1);
        assert_eq!(log.reconciled, 1);
        // Full latency decomposed, including the pre-reset request span.
        assert_eq!(log.phase_cycles.total(), 32);
        assert_eq!(log.phase_cycles.get(Phase::ReqNet), 10);
        // Only post-reset energy counted (3 routings of the data msg).
        assert_eq!(log.tx_counts.routing, 3);
    }

    #[test]
    fn hists_record_one_sample_per_phase_per_tx() {
        let mut a = TxAttribution::new(2);
        a.on_issue(0, 0, 0x40, false, false);
        a.on_completion(8, 0);
        a.on_issue(10, 1, 0x80, true, false);
        a.on_completion(30, 1);
        let log = a.finish();
        for p in Phase::all() {
            assert_eq!(log.phase_hist(p).summary().count(), 2, "{p:?}");
        }
        // A miss with no recorded spans is all requestor-side gap.
        assert_eq!(log.phase_cycles.get(Phase::ReqNet), 28);
    }

    #[test]
    fn stall_lines_show_current_phase() {
        let mut a = TxAttribution::new(4);
        a.on_issue(10, 2, 0x40, true, false);
        a.on_message(Some(2), 10, 20, MsgClass::Request, Node::L1(2), Node::L2(3), 2, 1, false);
        a.on_message(Some(2), 22, 30, MsgClass::MemRead, Node::L2(3), Node::L2(3), 2, 1, false);
        let lines = a.stall_lines(500, 8);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("tile 2"), "{}", lines[0]);
        assert!(lines[0].contains("store"), "{}", lines[0]);
        assert!(lines[0].contains("(in memory)"), "{}", lines[0]);
    }

    /// Two VMs on a 4-tile chip: every chip aggregate is the exact sum
    /// of the two VM buckets, and dedup-backed misses classify as
    /// cross-VM.
    #[test]
    fn vm_buckets_tile_chip_aggregates() {
        let mut a = TxAttribution::with_vms(vec![0, 0, 1, 1], 2);
        // VM 0, tile 0: private-block miss.
        a.on_issue(0, 0, 0x40, false, false);
        a.on_message(Some(0), 0, 10, MsgClass::Request, Node::L1(0), Node::L2(1), 2, 1, false);
        a.on_message(Some(0), 12, 20, MsgClass::Data, Node::L2(1), Node::L1(0), 2, 5, false);
        a.on_completion(22, 0);
        // VM 1, tile 2: dedup-backed miss.
        a.on_issue(30, 2, 0x80, true, true);
        a.on_message(Some(2), 30, 40, MsgClass::Request, Node::L1(2), Node::L2(3), 1, 1, true);
        a.on_message(Some(2), 42, 50, MsgClass::Data, Node::L2(3), Node::L1(2), 1, 5, true);
        a.on_completion(51, 2);
        a.on_blocked(BlockReason::MshrConflict, 5, 3);
        let log = a.finish();

        assert_eq!(log.vm.len(), 2);
        assert_eq!(log.vm.iter().map(|v| v.completed).sum::<u64>(), log.completed);
        assert_eq!(log.vm.iter().map(|v| v.latency_cycles).sum::<u64>(), log.latency_cycles);
        let mut phases = PhaseCycles::default();
        let mut counts = EventCounts::default();
        for v in &log.vm {
            phases.merge(&v.phase_cycles);
            counts.merge(&v.counts);
        }
        assert_eq!(phases, log.phase_cycles);
        assert_eq!(counts, log.tx_counts);
        assert_eq!(log.vm.iter().map(|v| v.mshr_wait_cycles).sum::<u64>(), log.mshr_wait_cycles);
        assert_eq!(log.vm[0].intra_txs, 1);
        assert_eq!(log.vm[0].cross_txs, 0);
        assert_eq!(log.vm[1].cross_txs, 1, "dedup-backed miss is cross-VM");
        assert_eq!(log.vm[1].mshr_wait_cycles, 5, "blocked wait charged to tile 3's VM");
        // Tile counts split tx_counts spatially.
        let mut tile_sum = EventCounts::default();
        for t in &log.tile_counts {
            tile_sum.merge(t);
        }
        assert_eq!(tile_sum, log.tx_counts);
        assert_eq!(log.tile_counts[0].routing, 4);
        assert_eq!(log.tile_counts[2].routing, 2);
    }

    /// Matrix cells charge aggressor (message's VM) -> victim (dest
    /// tile's VM); stolen cycles charge the remote VM an inv span ended
    /// in, as aggressor over the requestor VM.
    #[test]
    fn matrix_charges_aggressor_to_victim() {
        let mut a = TxAttribution::with_vms(vec![0, 0, 1, 1], 2);
        a.on_issue(0, 0, 0xC0, true, true);
        a.on_message(Some(0), 0, 10, MsgClass::Request, Node::L1(0), Node::L2(1), 2, 1, true);
        // Invalidation into VM 1's tile 2: 10..30 on the critical path.
        a.on_message(Some(0), 10, 30, MsgClass::Inv, Node::L2(1), Node::L1(2), 3, 1, true);
        a.on_message(Some(0), 30, 40, MsgClass::Data, Node::L2(1), Node::L1(0), 2, 5, true);
        a.on_completion(42, 0);
        let log = a.finish();

        // Message accounting: VM 0's tx into VM 0 tiles (request + data)
        // and into VM 1's tile (the inv).
        assert_eq!(log.matrix_cell(0, 0).msgs, 2);
        assert_eq!(log.matrix_cell(0, 1).msgs, 1);
        assert_eq!(log.matrix_cell(0, 1).inv_msgs, 1);
        assert_eq!(log.matrix_cell(0, 1).dedup_msgs, 1);
        assert_eq!(log.matrix_cell(0, 1).routing, 3);
        assert_eq!(log.matrix_cell(0, 1).flit_links, 3);
        // The inv span's 20 cycles were stolen from VM 0 by VM 1.
        assert_eq!(log.matrix_cell(1, 0).stolen_cycles, 20);
        assert_eq!(log.vm[0].stolen_cycles, 20);
        // Matrix routing sums to all attributed routing events.
        let matrix_routing: u64 = log.matrix.iter().map(|c| c.routing).sum();
        assert_eq!(matrix_routing, log.total_counts().routing);
        // Untracked traffic still lands in a cell (src tile's VM).
        a = TxAttribution::with_vms(vec![0, 0, 1, 1], 2);
        a.on_message(None, 5, 9, MsgClass::Control, Node::L2(2), Node::L2(0), 2, 1, false);
        let log = a.finish();
        assert_eq!(log.matrix_cell(1, 0).msgs, 1);
    }

    #[test]
    fn publish_exports_counters_and_hists() {
        let mut a = TxAttribution::new(2);
        a.on_issue(0, 0, 0x40, false, false);
        a.on_message(Some(0), 0, 10, MsgClass::Request, Node::L1(0), Node::L2(1), 3, 1, false);
        a.on_completion(12, 0);
        let log = a.finish();
        let mut reg = cmpsim_engine::MetricsRegistry::new();
        log.publish("attr", &mut reg);
        let counters: std::collections::BTreeMap<_, _> = reg.counters().collect();
        assert_eq!(counters["attr.completed"], 1);
        assert_eq!(counters["attr.reconciled"], 1);
        assert_eq!(counters["attr.phase.req_net.cycles"], 10);
        assert_eq!(counters["attr.events.tx.routing"], 3);
        assert_eq!(counters["attr.vm.0.completed"], 1);
        assert_eq!(counters["attr.vm.0.intra_txs"], 1);
        assert_eq!(reg.hists().count(), PHASES);
    }
}
