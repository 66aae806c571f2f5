//! Per-block coherence invariants.
//!
//! Protocols answer [`CoherenceProtocol::block_view`]: one block's copy in
//! every L1, the home bank's view, the write-serialization authority's
//! version and the memory image's version. [`check_block`] holds every
//! rule once. At every step, even with transactions in flight:
//!
//! 1. **Single owner (SWMR)** — at most one L1 owns a block.
//!
//! At quiescence (no transaction in flight anywhere) the following must
//! hold as well:
//!
//! 2. **Exclusivity** — an exclusive/modified owner excludes every other
//!    L1 copy of the block.
//! 3. **No stale copies** — every valid L1 copy and every current L2 copy
//!    holds the latest committed version (a write that completed must
//!    have invalidated all stale copies).
//! 4. **Coverage** — every real copy is named by the sharing information
//!    the protocol keeps for the block, when it keeps it precisely.
//! 5. **Durability** — if no cache holds a block, memory (or the L2) must
//!    hold its latest version: writebacks are never lost.
//! 6. **Owner pointer** — a home that names an L1 owner finds that L1
//!    owning the block (ownership moves are never silent).
//!
//! [`check`] walks the quiescent rules over a set of blocks, and
//! [`check_chip`] over every block a protocol holds; the randomized
//! stress tests call it at the end of every run.
//!
//! [`StepChecker`] runs after every handled message. It checks the
//! message against DiCo's forwarding bound and the step rules against
//! the one block the message touched, and walks the whole chip whenever
//! it drains. It keeps a bounded history of recent events so a violation
//! report can show what led up to it.

use crate::common::{Block, CoherenceProtocol, Msg, MsgKind, Tile, MAX_CHASE_HOPS};
use cmpsim_engine::Cycle;
use std::collections::VecDeque;
use std::fmt;

/// State of one L1 copy, protocol-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyState {
    /// Plain sharer.
    Shared,
    /// Provider (DiCo-Providers / DiCo-Arin): a sharer that may supply
    /// data to in-area reads.
    Provider,
    /// Owner; `exclusive` means no other copy may exist, `dirty` means
    /// memory is stale.
    Owner {
        /// No other copies exist (E/M as opposed to O).
        exclusive: bool,
        /// Block modified with respect to memory.
        dirty: bool,
    },
}

/// One L1 copy.
#[derive(Debug, Clone, Copy)]
pub struct CopyView {
    /// Coherence state.
    pub state: CopyState,
    /// Data version held.
    pub version: u64,
}

/// The home L2 bank's view of a block.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2View {
    /// The L2 data array holds the block.
    pub has_data: bool,
    /// Version of the L2 copy (meaningful when `has_data`).
    pub version: u64,
    /// L2 copy modified with respect to memory.
    pub dirty: bool,
    /// The home believes this L1 holds the ownership.
    pub owner_in_l1: Option<Tile>,
}

/// One block as the whole chip holds it: everything the rules read.
#[derive(Debug, Clone, Default)]
pub struct BlockView {
    /// Each tile's L1 copy, indexed by tile.
    pub copies: Vec<Option<CopyView>>,
    /// The home bank's view: its L2 data entry, else its L2C$ or
    /// directory-cache entry; `None` when the home holds neither.
    pub l2: Option<L2View>,
    /// Latest committed version (0 if never written).
    pub authority: u64,
    /// Version the memory image holds (0 if never written back).
    pub memory: u64,
    /// Directory conservativeness: the chip-wide tile bit-set of copies
    /// the protocol *believes* exist. Every real copy must be covered
    /// (stale bits are fine — silent evictions over-approximate). `None`
    /// when no entry records the block, or when it is tracked by
    /// broadcast (DiCo-Arin's shared-between-areas state).
    pub recorded: Option<u64>,
}

impl BlockView {
    /// A view of a block that no tile of a `tiles`-tile chip holds.
    pub fn new(tiles: usize) -> Self {
        Self { copies: vec![None; tiles], ..Default::default() }
    }

    /// The L1 copies that exist, with their tiles.
    pub fn held(&self) -> impl Iterator<Item = (Tile, &CopyView)> {
        self.copies.iter().enumerate().filter_map(|(t, c)| c.as_ref().map(|c| (t, c)))
    }
}

fn is_owner(c: &CopyView) -> bool {
    matches!(c.state, CopyState::Owner { .. })
}

/// Checks the rules for `block` seen as `view`: SWMR always, and every
/// other rule when `quiescent`. Returns every violation found (empty =
/// pass).
pub fn check_block(block: Block, view: &BlockView, quiescent: bool) -> Vec<String> {
    let mut errors = Vec::new();

    // 1. Single owner.
    let owners: Vec<Tile> = view.held().filter(|(_, c)| is_owner(c)).map(|(t, _)| t).collect();
    if owners.len() > 1 {
        errors.push(format!("block {block:#x}: multiple owners {owners:?}"));
    }
    if !quiescent {
        return errors;
    }
    let authority = view.authority;
    let copies = view.held().count();

    // 2. Exclusivity.
    for (t, c) in view.held() {
        if let CopyState::Owner { exclusive: true, .. } = c.state {
            if copies > 1 {
                errors.push(format!(
                    "block {block:#x}: exclusive owner in tile {t} but {copies} copies exist"
                ));
            }
        }
    }

    // 3. No stale copies.
    for (t, c) in view.held() {
        if c.version != authority {
            errors.push(format!(
                "block {block:#x}: tile {t} holds version {} but authority is {authority}",
                c.version
            ));
        }
    }
    let dirty_owner =
        view.held().any(|(_, c)| matches!(c.state, CopyState::Owner { dirty: true, .. }));
    let l2 = view.l2.filter(|l2| l2.has_data);
    if let Some(l2) = l2.filter(|l2| !dirty_owner && l2.version != authority) {
        errors.push(format!(
            "block {block:#x}: L2 holds version {} but authority is {authority}",
            l2.version
        ));
    }

    // 4. Coverage: every real copy is known to the protocol (when the
    //    block is tracked precisely).
    if let Some(bits) = view.recorded {
        for (t, _) in view.held() {
            if bits & (1u64 << t) == 0 {
                errors.push(format!(
                    "block {block:#x}: tile {t} holds an untracked copy (recorded {bits:#x})"
                ));
            }
        }
    }

    // 5. Durability: someone must hold the latest version.
    let cached_current = view.held().any(|(_, c)| c.version == authority)
        || l2.is_some_and(|l2| l2.version == authority);
    if !cached_current && view.memory != authority {
        errors.push(format!(
            "block {block:#x}: latest version {authority} lost (memory has {})",
            view.memory
        ));
    }

    // 6. Owner pointer: at quiescence the home's pointer is exact.
    if let Some(t) = view.l2.and_then(|l2| l2.owner_in_l1) {
        if !view.copies.get(t).copied().flatten().is_some_and(|c| is_owner(&c)) {
            errors.push(format!(
                "block {block:#x}: home points at owner tile {t}, which does not own the block"
            ));
        }
    }

    errors
}

/// Checks every rule on each of `blocks`, seen through `view`; returns
/// every violation found (empty = pass).
pub fn check(
    blocks: impl IntoIterator<Item = Block>,
    mut view: impl FnMut(Block) -> BlockView,
) -> Result<(), Vec<String>> {
    let errors: Vec<String> =
        blocks.into_iter().flat_map(|block| check_block(block, &view(block), true)).collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// [`check`] over every block `proto` holds.
pub fn check_chip<P: CoherenceProtocol + ?Sized>(proto: &P) -> Result<(), Vec<String>> {
    check(proto.blocks(), |block| proto.block_view(block))
}

/// DiCo's forwarding bound: a request must fall back to the home after
/// [`MAX_CHASE_HOPS`] L1-to-L1 forwards.
fn check_hops(msg: &Msg) -> Option<String> {
    match msg.kind {
        MsgKind::Req(req) if req.hops > MAX_CHASE_HOPS => Some(format!(
            "block {:#x}: request from tile {} exceeded the forwarding bound ({} hops > {MAX_CHASE_HOPS})",
            msg.block, req.requestor, req.hops
        )),
        _ => None,
    }
}

/// What a [`HistoryEntry`] records.
#[derive(Debug, Clone, Copy)]
enum Event {
    Access { tile: Tile, write: bool },
    Message(Msg),
}

/// One entry in the [`StepChecker`]'s event history; its `Display` is the
/// line a violation report shows.
#[derive(Debug, Clone, Copy)]
struct HistoryEntry {
    cycle: Cycle,
    block: Block,
    event: Event,
}

impl fmt::Display for HistoryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: ", self.cycle)?;
        match self.event {
            Event::Access { tile, write } => {
                write!(f, "core {tile} {}", if write { "store" } else { "load" })
            }
            Event::Message(m) => write!(f, "{:?} -> {:?}: {:?}", m.src, m.dst, m.kind),
        }
    }
}

/// Per-message invariant checker (the watchdog's second half).
///
/// After each handled message, only the invariants that survive
/// transient states may be asserted — exclusivity and stale-copy checks
/// are *legally* violated while invalidations are in flight. So each
/// message gets the forwarding bound and the SWMR rule on the block it
/// touched, and the chip gets every rule on every block whenever it
/// drains.
#[derive(Debug, Clone)]
pub struct StepChecker {
    history: VecDeque<HistoryEntry>,
    capacity: usize,
}

impl Default for StepChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl StepChecker {
    /// A checker with the default history window (512 events).
    pub fn new() -> Self {
        Self::with_capacity(512)
    }

    /// A checker keeping the last `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { history: VecDeque::with_capacity(capacity.min(4096)), capacity }
    }

    fn push(&mut self, cycle: Cycle, block: Block, event: Event) {
        if self.history.len() == self.capacity {
            self.history.pop_front();
        }
        self.history.push_back(HistoryEntry { cycle, block, event });
    }

    /// Records a core access in the history window.
    pub fn record_access(&mut self, now: Cycle, tile: Tile, block: Block, write: bool) {
        self.push(now, block, Event::Access { tile, write });
    }

    /// Records `msg`, handled by `proto` at `now`, and checks the chip
    /// after it. `queue_empty` says the host has no event pending: true
    /// quiescence needs it, because fire-and-forget traffic (hints,
    /// acks, writebacks) is not tracked by the protocol's pending state.
    /// Returns every violation found (empty = pass).
    pub fn after_message<P: CoherenceProtocol + ?Sized>(
        &mut self,
        now: Cycle,
        msg: &Msg,
        proto: &P,
        queue_empty: bool,
    ) -> Result<(), Vec<String>> {
        self.push(now, msg.block, Event::Message(*msg));
        let mut errors: Vec<String> = check_hops(msg).into_iter().collect();
        if queue_empty && proto.quiescent() {
            errors.extend(check_chip(proto).err().into_iter().flatten());
        } else {
            errors.extend(check_block(msg.block, &proto.block_view(msg.block), false));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The recorded history window for `block`, oldest first.
    pub fn history_for(&self, block: Block) -> Vec<String> {
        self.history.iter().filter(|e| e.block == block).map(HistoryEntry::to_string).collect()
    }

    /// The full recorded history window, oldest first.
    pub fn history(&self) -> impl Iterator<Item = String> + '_ {
        self.history.iter().map(HistoryEntry::to_string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OWNER_E: CopyState = CopyState::Owner { exclusive: true, dirty: false };
    const OWNER_M: CopyState = CopyState::Owner { exclusive: true, dirty: true };
    const OWNER_O: CopyState = CopyState::Owner { exclusive: false, dirty: true };

    /// A two-tile view of a block at `authority`, memory up to date.
    fn view(authority: u64) -> BlockView {
        BlockView { authority, memory: authority, ..BlockView::new(2) }
    }

    fn copy(state: CopyState, version: u64) -> Option<CopyView> {
        Some(CopyView { state, version })
    }

    fn quiescent_errors(v: &BlockView) -> Vec<String> {
        check_block(1, v, true)
    }

    fn assert_flags(errors: &[String], needle: &str) {
        assert!(errors.iter().any(|e| e.contains(needle)), "no {needle:?} in {errors:?}");
    }

    #[test]
    fn empty_block_passes() {
        assert!(quiescent_errors(&view(0)).is_empty());
    }

    #[test]
    fn coherent_sharing_passes() {
        let mut v = view(3);
        v.memory = 0;
        v.copies = vec![copy(CopyState::Shared, 3), copy(OWNER_O, 3)];
        assert!(quiescent_errors(&v).is_empty());
    }

    #[test]
    fn detects_double_owner() {
        let mut v = view(0);
        v.copies = vec![copy(OWNER_O, 0), copy(OWNER_O, 0)];
        assert_flags(&quiescent_errors(&v), "multiple owners [0, 1]");
    }

    #[test]
    fn detects_exclusivity_violation() {
        let mut v = view(0);
        v.copies = vec![copy(OWNER_M, 0), copy(CopyState::Shared, 0)];
        assert_flags(&quiescent_errors(&v), "exclusive owner in tile 0 but 2 copies exist");
    }

    #[test]
    fn detects_stale_copy() {
        // Tile 1 kept a stale shared copy that should have been
        // invalidated by the write that produced version 5.
        let mut v = view(5);
        v.copies = vec![copy(OWNER_O, 5), copy(CopyState::Shared, 4)];
        assert_flags(&quiescent_errors(&v), "tile 1 holds version 4 but authority is 5");
    }

    #[test]
    fn detects_stale_l2() {
        let mut v = view(7);
        v.copies[0] = copy(CopyState::Shared, 7);
        v.l2 = Some(L2View { has_data: true, version: 6, dirty: false, owner_in_l1: None });
        assert_flags(&quiescent_errors(&v), "L2 holds version 6");
    }

    #[test]
    fn l2_may_lag_behind_dirty_owner() {
        // Exclusivity counts only L1 copies, and a stale L2 copy is
        // permitted while a dirty owner exists.
        let mut v = view(7);
        v.copies[0] = copy(OWNER_M, 7);
        v.l2 = Some(L2View { has_data: true, version: 6, dirty: false, owner_in_l1: Some(0) });
        assert!(quiescent_errors(&v).is_empty());
    }

    #[test]
    fn detects_untracked_copy() {
        let mut v = view(0);
        v.copies = vec![copy(OWNER_O, 0), copy(CopyState::Shared, 0)];
        // The protocol only recorded tile 0.
        v.recorded = Some(0b01);
        assert_flags(&quiescent_errors(&v), "tile 1 holds an untracked copy (recorded 0x1)");
        // Covering both passes (extra stale bits are fine).
        v.recorded = Some(0b1111);
        assert!(quiescent_errors(&v).is_empty());
    }

    #[test]
    fn detects_lost_writeback() {
        // Nothing cached, memory never updated: version 2 vanished.
        let mut v = view(2);
        v.memory = 0;
        assert_flags(&quiescent_errors(&v), "latest version 2 lost (memory has 0)");
        v.memory = 2;
        assert!(quiescent_errors(&v).is_empty());
    }

    #[test]
    fn detects_stale_owner_pointer() {
        let mut v = view(0);
        v.l2 = Some(L2View { has_data: false, version: 0, dirty: false, owner_in_l1: Some(1) });
        assert_flags(&quiescent_errors(&v), "home points at owner tile 1");
        // A sharer there is not the owner the home names.
        v.copies[1] = copy(CopyState::Shared, 0);
        assert_flags(&quiescent_errors(&v), "home points at owner tile 1");
        v.copies[1] = copy(OWNER_E, 0);
        assert!(quiescent_errors(&v).is_empty());
    }

    #[test]
    fn midflight_allows_transient_staleness_but_not_double_owner() {
        // A stale sharer, an untracked copy, a lost version and a stale
        // owner pointer are all legal mid-flight…
        let mut v = view(5);
        v.memory = 0;
        v.copies = vec![copy(OWNER_O, 5), copy(CopyState::Shared, 4)];
        v.recorded = Some(0);
        v.l2 = Some(L2View { has_data: false, version: 0, dirty: false, owner_in_l1: Some(1) });
        assert!(check_block(1, &v, false).is_empty());
        // …but a second owner never is.
        v.copies[1] = copy(OWNER_O, 4);
        assert_eq!(check_block(1, &v, false), ["block 0x1: multiple owners [0, 1]"]);
    }

    #[test]
    fn whole_chip_walk_reaches_l2_only_and_authority_only_blocks() {
        // Block 2 lives only in its home L2, one version behind; block 3
        // is known only to the authority, and memory missed its last
        // writeback. Block 1 is coherent.
        let views = |block: Block| match block {
            2 => BlockView {
                l2: Some(L2View { has_data: true, version: 1, dirty: false, owner_in_l1: None }),
                ..view(2)
            },
            3 => BlockView { memory: 1, ..view(2) },
            _ => view(4),
        };
        let errs = check([1, 2, 3], views).unwrap_err();
        assert_eq!(
            errs,
            [
                "block 0x2: L2 holds version 1 but authority is 2",
                "block 0x3: latest version 2 lost (memory has 1)",
            ]
        );
        assert!(check([1], views).is_ok());
    }

    mod step_checker {
        use super::*;
        use crate::common::{ChipSpec, DataInfo, Node, ReqInfo, Supplier};
        use crate::directory::Directory;

        fn req_msg(hops: u8) -> Msg {
            Msg {
                kind: MsgKind::Req(ReqInfo {
                    requestor: 0,
                    write: false,
                    forwarder: None,
                    via_home: false,
                    predicted: false,
                    vouched: false,
                    hops,
                }),
                block: 1,
                src: Node::L1(0),
                dst: Node::L1(1),
            }
        }

        #[test]
        fn hop_bound_enforced() {
            assert!(check_hops(&req_msg(MAX_CHASE_HOPS)).is_none());
            let err = check_hops(&req_msg(MAX_CHASE_HOPS + 1)).unwrap();
            assert!(err.contains("forwarding bound"), "{err}");
        }

        #[test]
        fn after_message_records_then_checks() {
            // A fresh chip is coherent, so only the message can fail,
            // whether or not the chip has drained.
            let proto = Directory::new(ChipSpec::small());
            let mut chk = StepChecker::new();
            for queue_empty in [false, true] {
                assert!(chk.after_message(3, &req_msg(0), &proto, queue_empty).is_ok());
                let errs = chk.after_message(4, &req_msg(MAX_CHASE_HOPS + 1), &proto, queue_empty);
                assert_eq!(errs.unwrap_err().len(), 1);
            }
            let history = chk.history_for(1);
            assert_eq!(history.len(), 4);
            assert_eq!(
                history[0],
                "cycle 3: L1(0) -> L1(1): Req(ReqInfo { requestor: 0, write: false, \
                 forwarder: None, via_home: false, predicted: false, vouched: false, hops: 0 })"
            );
        }

        #[test]
        fn history_window_is_bounded_and_filtered() {
            let mut chk = StepChecker::with_capacity(4);
            for i in 0..10u64 {
                chk.record_access(i, 0, i % 2, i % 3 == 0);
            }
            assert_eq!(chk.history().count(), 4);
            assert_eq!(chk.history_for(1), ["cycle 7: core 0 load", "cycle 9: core 0 store"]);
            let msg = Msg {
                kind: MsgKind::Data(DataInfo::shared(1, Supplier::HomeL2)),
                block: 7,
                src: Node::L2(0),
                dst: Node::L1(1),
            };
            let proto = Directory::new(ChipSpec::small());
            chk.after_message(11, &msg, &proto, false).unwrap();
            assert_eq!(chk.history_for(7).len(), 1);
            assert_eq!(chk.history().count(), 4);
        }
    }
}
