//! Generic set-associative array with true-LRU replacement.
//!
//! Ways are 16-byte `(block, LRU stamp, payload slot)` triples kept in
//! chunks of 1, 2, 4, … up to `ways` ways. A set gets a one-way chunk
//! on its first insert; an insert into a full chunk smaller than `ways`
//! moves the set's lines, in in-set order, to a chunk of the next size
//! and frees the old one. A set keeps its chunk when lines leave, so a
//! set's chunk is sized to the most lines it has held, and way memory
//! grows with the lines the sets have held, not with the geometry. That
//! matters for the L2 banks: their set index comes from page-number
//! bits, so the few lines a bank holds are spread over all of its sets,
//! one or two to a set, and a dense `sets × ways` array (or a full row
//! per set) would pay for ways that are never written.
//!
//! Chunks of one size form a class with an arena of its own: class `c`
//! holds chunks of `(1 << c) >> 1` ways, so class 0 is the empty chunk
//! that every set without ways names and whose arena stays empty, and
//! the largest class rounds `ways` up to a power of two. Freed chunks go
//! onto their class's free list and are reused before the arena grows.
//! Each set has one 4-byte entry packing `(index, class, n)`: its
//! chunk's index in its class's arena and the `n` live lines at the
//! front of it (see `EntryBits`). A class holds at most one chunk per
//! set, since a set passes through each class once, so the entry fits
//! in 30 bits for every geometry [`Geometry::in_range`] accepts. The
//! entry is as small as the per-set length it replaced, because a
//! lookup must read it before it can load the ways, and the fewer host
//! cache lines the entries take, the more often that first read hits. A
//! lookup reads the entry and scans `n` ways from the chunk's first way
//! without asking whether the set has a chunk: a set without one reads
//! zero lines of class 0. The entries are built with `vec![0; sets]`,
//! which asks the allocator for zeroed memory, so the entries of sets
//! nothing touches are never faulted in either. Payloads live in a
//! dense slab that grows with the resident lines and reuses freed
//! slots. The slab and the class arenas grow by a quarter of their
//! capacity at a time, not by doubling. The rare lines an
//! [`SetAssoc::insert_filtered`] overshoot places beyond a full set
//! live in a small ordered side table.
//!
//! LRU stamps are `u32`. Every access takes the next value of a
//! per-array clock, so live stamps are unique and only their order
//! matters. When the clock would pass `u32::MAX`, the live stamps are
//! renumbered `1..=resident` in their current order and the clock
//! restarts above them: victim choice, iteration order and
//! `insert_filtered` results are exactly those of unbounded stamps.
//! Snapshot images still spell stamps and the clock as `u64`.
//!
//! In-set order is behaviourally significant (iteration order and the
//! first-minimum victim tie-break), so each set keeps the order of a
//! vector mutated only by `push` and `swap_remove`: in-set position
//! `p < ways` is way `p` of the set's chunk, and position `ways + i` is
//! entry `i` of the set's overshoot list.

use std::collections::BTreeMap;

use crate::geometry::Geometry;
use cmpsim_engine::{Snap, SnapError, SnapReader, SnapWriter};

/// One resident line: `(block, LRU stamp, payload slot)`, 16 bytes. A
/// tuple of integers, so that an array of them can be allocated zeroed.
/// Most of a warm cell's memory is the ways of the sets it touched, so
/// the stamp is a renumbered `u32` (see the module docs), not a `u64`.
type Way = (u64, u32, u32);

/// How a set's 4-byte entry packs `(index, class, n)`, low bits first:
/// `n`, the live lines of its chunk, in just enough bits to count to
/// `ways`; `class`, in just enough bits for the largest class; and
/// `index`, the chunk's index within its class, in the rest. The
/// all-zero entry is a set without a chunk.
#[derive(Debug, Clone, Copy)]
struct EntryBits {
    /// Low bits that count a chunk's live lines.
    count: u32,
    /// Bits above them that name the chunk's class.
    class: u32,
}

impl EntryBits {
    fn new(geom: Geometry) -> Self {
        let bits = |x: usize| usize::BITS - x.leading_zeros();
        Self { count: bits(geom.ways), class: bits(Self::top_class(geom)) }
    }

    /// The class whose chunks hold a full set: `ways` rounded up to a
    /// power of two.
    fn top_class(geom: Geometry) -> usize {
        geom.ways.next_power_of_two().trailing_zeros() as usize + 1
    }

    /// The entry naming chunk `index` of `class`, with `n` live lines.
    fn pack(self, index: usize, class: usize, n: usize) -> u32 {
        u32::try_from((index << self.class | class) << self.count | n)
            .expect("a set entry can name every chunk")
    }

    /// `(index, class, n)` of an entry.
    #[inline]
    fn unpack(self, entry: u32) -> (usize, usize, usize) {
        let entry = entry as usize;
        let n = entry & ((1 << self.count) - 1);
        let class = (entry >> self.count) & ((1 << self.class) - 1);
        (entry >> (self.count + self.class), class, n)
    }
}

/// Makes room for `extra` more elements, growing `v` by a quarter of
/// its capacity rather than doubling it. Chunk arenas and payload slabs
/// grow as the lines arrive and stop where the cell's working set
/// does, so a doubled buffer would leave up to half of its memory
/// unused for the rest of the run.
fn reserve_gently<E>(v: &mut Vec<E>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(extra.max(v.capacity() / 4).max(4));
    }
}

/// Ways between consecutive chunks of `class`: 0, 1, 2, 4, ….
#[inline]
fn stride(class: usize) -> usize {
    (1 << class) >> 1
}

/// A set-associative array. All structures of a tile (L1, L2 bank,
/// directory cache, L1C$, L2C$) are instances of this with different
/// payloads and geometries.
#[derive(Debug, Clone)]
pub struct SetAssoc<T> {
    geom: Geometry,
    /// Per set, its packed `(index, class, n)` (see [`EntryBits`]).
    sets: Vec<u32>,
    bits: EntryBits,
    /// Per class, the arena of its chunks, [`stride`] ways apart.
    chunks: Vec<Vec<Way>>,
    /// Per class, the indices of its free chunks, reused before the
    /// class's arena grows.
    spare: Vec<Vec<u32>>,
    /// Lines at in-set positions `>= ways`, by set.
    overshoot: BTreeMap<usize, Vec<Way>>,
    /// Payloads; `None` marks a free slot.
    slab: Vec<Option<T>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// Resident lines across all sets.
    resident: usize,
    clock: u32,
}

impl<T> SetAssoc<T> {
    /// Creates an empty array.
    pub fn new(geom: Geometry) -> Self {
        let classes = EntryBits::top_class(geom) + 1;
        Self {
            geom,
            sets: vec![0; geom.sets],
            bits: EntryBits::new(geom),
            chunks: vec![Vec::new(); classes],
            spare: vec![Vec::new(); classes],
            overshoot: BTreeMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            resident: 0,
            clock: 0,
        }
    }

    /// Geometry in effect.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Total line capacity (sets x ways), for occupancy reporting.
    pub fn capacity(&self) -> usize {
        self.geom.entries()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// An array whose clock starts at `clock`, so tests can cross the
    /// renumbering point in a few operations.
    #[cfg(test)]
    fn with_clock(geom: Geometry, clock: u32) -> Self {
        Self { clock, ..Self::new(geom) }
    }

    fn bump(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.restart_clock();
        }
        self.clock += 1;
        self.clock
    }

    /// Renumbers the live stamps so the clock can keep counting.
    #[cold]
    fn restart_clock(&mut self) {
        let stamps: Vec<u64> = self.all_lines().map(|w| u64::from(w.1)).collect();
        self.clock = self.renumber(&stamps);
    }

    /// Rewrites the live stamps as their dense ranks `1..` in stamp
    /// order, keeping equal stamps equal, and returns the highest rank
    /// (the new clock). `stamps` holds every live line's stamp in
    /// [`Self::all_lines`] order.
    fn renumber(&mut self, stamps: &[u64]) -> u32 {
        let mut ranks = stamps.to_vec();
        ranks.sort_unstable();
        ranks.dedup();
        let mut next = stamps.iter();
        for set in 0..self.geom.sets {
            for pos in 0..self.len_of(set) {
                let stamp = next.next().expect("one stamp per live line");
                let rank = ranks.binary_search(stamp).expect("stamp was ranked") + 1;
                self.way_mut(set, pos).1 = u32::try_from(rank).expect("fewer lines than u32::MAX");
            }
        }
        u32::try_from(ranks.len()).expect("fewer lines than u32::MAX")
    }

    /// `set`'s chunk class, the arena index of the chunk's first way,
    /// and the live lines at the front of the chunk.
    #[inline]
    fn chunk(&self, set: usize) -> (usize, usize, usize) {
        let (index, class, n) = self.bits.unpack(self.sets[set]);
        (class, (index << class) >> 1, n)
    }

    /// True when `set`'s chunk holds `ways` lines, as it does whenever
    /// the set overshoots.
    #[inline]
    fn full(&self, set: usize) -> bool {
        self.chunk(set).2 == self.geom.ways
    }

    /// The lines of `set` beyond its chunk (empty unless it overshoots).
    #[inline]
    fn spilled(&self, set: usize) -> &[Way] {
        if self.overshoot.is_empty() {
            return &[];
        }
        self.overshoot.get(&set).map_or(&[], Vec::as_slice)
    }

    /// Resident lines of `set`: its chunk's, plus any overshoot (only a
    /// full set overshoots).
    #[inline]
    fn len_of(&self, set: usize) -> usize {
        let n = self.chunk(set).2;
        if n < self.geom.ways {
            n
        } else {
            n + self.spilled(set).len()
        }
    }

    /// The line at in-set position `pos` of `set`.
    #[inline]
    fn way(&self, set: usize, pos: usize) -> &Way {
        let ways = self.geom.ways;
        if pos < ways {
            let (class, base, _) = self.chunk(set);
            &self.chunks[class][base + pos]
        } else {
            &self.overshoot[&set][pos - ways]
        }
    }

    #[inline]
    fn way_mut(&mut self, set: usize, pos: usize) -> &mut Way {
        let ways = self.geom.ways;
        if pos < ways {
            let (class, base, _) = self.chunk(set);
            &mut self.chunks[class][base + pos]
        } else {
            let spilled = self.overshoot.get_mut(&set).expect("overshooting set has a side list");
            &mut spilled[pos - ways]
        }
    }

    /// The live lines of `set` in in-set order: the live ways of its
    /// chunk, then its overshoot list.
    #[inline]
    fn lines(&self, set: usize) -> impl Iterator<Item = &Way> {
        let (class, base, n) = self.chunk(set);
        let spilled = if n == self.geom.ways { self.spilled(set) } else { &[] };
        self.chunks[class][base..base + n].iter().chain(spilled)
    }

    /// Every live line, set by set in in-set order.
    fn all_lines(&self) -> impl Iterator<Item = &Way> {
        (0..self.geom.sets).flat_map(move |set| self.lines(set))
    }

    /// In-set position of `block` within `set`.
    #[inline]
    fn position(&self, set: usize, block: u64) -> Option<usize> {
        let (class, base, n) = self.chunk(set);
        match self.chunks[class][base..base + n].iter().position(|w| w.0 == block) {
            None if n == self.geom.ways => {
                self.spilled(set).iter().position(|w| w.0 == block).map(|i| n + i)
            }
            found => found,
        }
    }

    /// In-set position of the least recently used line of `set` among
    /// those `eligible` accepts. Ties go to the earliest position, and
    /// `eligible` sees every line in in-set order.
    fn lru_position(&self, set: usize, mut eligible: impl FnMut(u64) -> bool) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None;
        for (pos, &(block, lru, _)) in self.lines(set).enumerate() {
            if eligible(block) && best.is_none_or(|(oldest, _)| lru < oldest) {
                best = Some((lru, pos));
            }
        }
        best.map(|(_, pos)| pos)
    }

    /// Moves the `n` lines of `set`, whose chunk of `class` at `base` is
    /// full, to a chunk of the next class (a free one if there is one),
    /// and frees the old chunk. Returns the new class and chunk base.
    fn grow(&mut self, set: usize, class: usize, base: usize, n: usize) -> (usize, usize) {
        let next = class + 1;
        let width = stride(next);
        let index = match self.spare[next].pop() {
            Some(index) => index as usize,
            None => {
                let arena = &mut self.chunks[next];
                reserve_gently(arena, width);
                arena.resize(arena.len() + width, (0, 0, 0));
                arena.len() / width - 1
            }
        };
        let (lower, upper) = self.chunks.split_at_mut(next);
        upper[0][index * width..][..n].copy_from_slice(&lower[class][base..base + n]);
        if class > 0 {
            // Chunk indices are below `sets`, so they fit the entry.
            self.spare[class].push((base / stride(class)) as u32);
        }
        self.sets[set] = self.bits.pack(index, next, n);
        (next, index * width)
    }

    /// Appends a line at the end of `set` (`Vec::push` order).
    fn push(&mut self, set: usize, block: u64, lru: u32, data: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(data);
                slot
            }
            None => {
                reserve_gently(&mut self.slab, 1);
                self.slab.push(Some(data));
                u32::try_from(self.slab.len() - 1).expect("payload slab exceeds u32 slots")
            }
        };
        let (class, base, n) = self.chunk(set);
        if n < self.geom.ways {
            let (class, base) =
                if n == stride(class) { self.grow(set, class, base, n) } else { (class, base) };
            self.chunks[class][base + n] = (block, lru, slot);
            self.sets[set] += 1;
        } else {
            self.overshoot.entry(set).or_default().push((block, lru, slot));
        }
        self.resident += 1;
    }

    /// Removes the line at in-set position `pos` of `set`, moving the
    /// set's last line into its place (`Vec::swap_remove` order). The
    /// set keeps its chunk.
    fn swap_remove(&mut self, set: usize, pos: usize) -> (u64, T) {
        let last = self.len_of(set) - 1;
        let (block, _, slot) = *self.way(set, pos);
        if pos != last {
            *self.way_mut(set, pos) = *self.way(set, last);
        }
        if last >= self.geom.ways {
            let spilled = self.overshoot.get_mut(&set).expect("overshooting set has a side list");
            spilled.pop();
            if spilled.is_empty() {
                self.overshoot.remove(&set);
            }
        } else {
            self.sets[set] -= 1;
        }
        self.resident -= 1;
        self.free.push(slot);
        (block, self.slab[slot as usize].take().expect("resident line has a payload"))
    }

    fn payload(&self, slot: u32) -> &T {
        self.slab[slot as usize].as_ref().expect("resident line has a payload")
    }

    fn payload_mut(&mut self, slot: u32) -> &mut T {
        self.slab[slot as usize].as_mut().expect("resident line has a payload")
    }

    /// Immutable lookup without touching LRU state (probe).
    pub fn peek(&self, block: u64) -> Option<&T> {
        let set = self.geom.index(block);
        let pos = self.position(set, block)?;
        Some(self.payload(self.way(set, pos).2))
    }

    /// Mutable lookup without touching LRU state.
    pub fn peek_mut(&mut self, block: u64) -> Option<&mut T> {
        let set = self.geom.index(block);
        let pos = self.position(set, block)?;
        let slot = self.way(set, pos).2;
        Some(self.payload_mut(slot))
    }

    /// Stamps `block`'s line as the most recently used and returns its
    /// payload slot.
    fn restamp(&mut self, block: u64) -> Option<u32> {
        let stamp = self.bump();
        let set = self.geom.index(block);
        let pos = self.position(set, block)?;
        let way = self.way_mut(set, pos);
        way.1 = stamp;
        Some(way.2)
    }

    /// Lookup that refreshes the line's LRU position (a real access).
    pub fn get_mut(&mut self, block: u64) -> Option<&mut T> {
        let slot = self.restamp(block)?;
        Some(self.payload_mut(slot))
    }

    /// Refreshes LRU position if present; returns whether it was.
    pub fn touch(&mut self, block: u64) -> bool {
        self.restamp(block).is_some()
    }

    /// True if `block` is resident.
    pub fn contains(&self, block: u64) -> bool {
        self.position(self.geom.index(block), block).is_some()
    }

    /// Inserts `block`. If the set is full, the LRU line is evicted and
    /// returned as `(victim_block, victim_payload)`.
    ///
    /// # Panics
    /// Panics if `block` is already resident (protocols must update in
    /// place instead of re-inserting).
    pub fn insert(&mut self, block: u64, data: T) -> Option<(u64, T)> {
        let stamp = self.bump();
        let set = self.geom.index(block);
        assert!(self.position(set, block).is_none(), "insert of already-resident block {block:#x}");
        let victim = if self.full(set) {
            let pos = self.lru_position(set, |_| true).expect("full set is non-empty");
            Some(self.swap_remove(set, pos))
        } else {
            None
        };
        self.push(set, block, stamp, data);
        victim
    }

    /// Inserts `block`, choosing the LRU victim among lines for which
    /// `can_evict` returns true. When the set is full and *no* line is
    /// evictable (all are mid-transaction), the set temporarily exceeds
    /// its associativity — the overflow is repaid by later insertions,
    /// which keep evicting while `set_len > ways`. Returns all victims
    /// evicted (usually zero or one; more when repaying an overshoot)
    /// and whether an overflow occurred.
    ///
    /// This mirrors what real controllers achieve by stalling a fill
    /// until a victim's transaction drains; modelling it as a bounded
    /// overshoot keeps the simulator deadlock-free without a global
    /// stall network.
    pub fn insert_filtered(
        &mut self,
        block: u64,
        data: T,
        mut can_evict: impl FnMut(u64) -> bool,
    ) -> (Vec<(u64, T)>, bool) {
        let stamp = self.bump();
        let set = self.geom.index(block);
        assert!(self.position(set, block).is_none(), "insert of already-resident block {block:#x}");
        let mut victims = Vec::new();
        let mut overflowed = false;
        // Evict until below associativity. A chunk stays full while its
        // set overshoots, so an earlier overshoot is repaid first.
        while self.full(set) {
            match self.lru_position(set, &mut can_evict) {
                Some(pos) => victims.push(self.swap_remove(set, pos)),
                None => {
                    overflowed = true;
                    break;
                }
            }
        }
        self.push(set, block, stamp, data);
        (victims, overflowed)
    }

    /// The line that `insert(block, ..)` would evict, if the set is full.
    /// Protocols use this to launch replacement transactions *before*
    /// the fill arrives.
    pub fn victim_if_full(&self, block: u64) -> Option<(&u64, &T)> {
        let set = self.geom.index(block);
        if !self.full(set) {
            return None;
        }
        let (victim, _, slot) = self.way(set, self.lru_position(set, |_| true)?);
        Some((victim, self.payload(*slot)))
    }

    /// Removes `block`, returning its payload.
    pub fn remove(&mut self, block: u64) -> Option<T> {
        let set = self.geom.index(block);
        let pos = self.position(set, block)?;
        Some(self.swap_remove(set, pos).1)
    }

    /// Iterates over all resident lines in deterministic (set, then
    /// insertion) order. Used by invariant checkers and tests only.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.all_lines().map(|&(block, _, slot)| (block, self.payload(slot)))
    }

    /// Occupancy of the set that `block` maps to.
    pub fn set_len(&self, block: u64) -> usize {
        self.len_of(self.geom.index(block))
    }
}

// Images keep the encoding of the set-of-vectors layout this array
// replaced: the geometry, a set count, then per set its lines in in-set
// order as (block, payload, LRU stamp), then the stamp clock, stamps and
// clock as `u64`. The host layout never reaches the bytes. Loading fails
// closed on anything the array could not have produced itself, and
// renumbers the stamps of an image whose clock does not fit a `u32`.
impl<T: Snap> Snap for SetAssoc<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.geom.save(w);
        w.len_prefix(self.geom.sets);
        for set in 0..self.geom.sets {
            w.len_prefix(self.len_of(set));
            for &(block, lru, slot) in self.lines(set) {
                block.save(w);
                self.payload(slot).save(w);
                u64::from(lru).save(w);
            }
        }
        u64::from(self.clock).save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let geom = Geometry::load(r)?;
        if !geom.in_range() {
            return Err(SnapError::Corrupt("cache geometry out of range"));
        }
        if r.len_prefix("SetAssoc", 8)? != geom.sets {
            return Err(SnapError::Corrupt("cache set count differs from its geometry"));
        }
        let mut a = Self::new(geom);
        // The image's stamps in `all_lines` order; each line gets its
        // stamp's low half until the clock says whether that is exact.
        let mut stamps = Vec::new();
        for set in 0..geom.sets {
            for _ in 0..r.len_prefix("SetAssoc set", 16)? {
                let block = u64::load(r)?;
                let data = T::load(r)?;
                let lru = u64::load(r)?;
                if geom.index(block) != set {
                    return Err(SnapError::Corrupt("cache line stored in the wrong set"));
                }
                if a.position(set, block).is_some() {
                    return Err(SnapError::Corrupt("duplicate block in a cache set"));
                }
                stamps.push(lru);
                a.push(set, block, lru as u32, data);
            }
        }
        let clock = u64::load(r)?;
        if stamps.iter().any(|&lru| lru > clock) {
            return Err(SnapError::Corrupt("cache LRU stamp ahead of its clock"));
        }
        a.clock = match u32::try_from(clock) {
            Ok(clock) => clock,
            Err(_) => a.renumber(&stamps),
        };
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssoc<u32> {
        SetAssoc::new(Geometry::new(2, 2))
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = tiny();
        assert!(c.insert(0, 10).is_none());
        assert_eq!(c.peek(0), Some(&10));
        assert!(c.peek(2).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even blocks).
        c.insert(0, 1);
        c.insert(2, 2);
        c.touch(0); // 2 is now LRU
        let victim = c.insert(4, 3);
        assert_eq!(victim, Some((2, 2)));
        assert!(c.contains(0));
        assert!(c.contains(4));
    }

    #[test]
    fn peek_does_not_refresh_lru() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(2, 2);
        c.peek(0); // must NOT protect block 0
        let victim = c.insert(4, 3);
        assert_eq!(victim, Some((0, 1)));
    }

    #[test]
    fn get_mut_refreshes_lru() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(2, 2);
        *c.get_mut(0).unwrap() += 100;
        let victim = c.insert(4, 3);
        assert_eq!(victim, Some((2, 2)));
        assert_eq!(c.peek(0), Some(&101));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(1, 2); // odd -> set 1
        c.insert(2, 3);
        c.insert(3, 4);
        assert_eq!(c.len(), 4);
        assert!(c.victim_if_full(5).is_some());
    }

    #[test]
    fn victim_if_full_matches_insert() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(2, 2);
        let predicted = *c.victim_if_full(4).unwrap().0;
        let actual = c.insert(4, 9).unwrap().0;
        assert_eq!(predicted, actual);
    }

    #[test]
    fn victim_if_full_none_when_space() {
        let mut c = tiny();
        c.insert(0, 1);
        assert!(c.victim_if_full(2).is_none());
    }

    #[test]
    fn remove_works() {
        let mut c = tiny();
        c.insert(0, 7);
        assert_eq!(c.remove(0), Some(7));
        assert_eq!(c.remove(0), None);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_insert_panics() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(0, 2);
    }

    #[test]
    fn insert_filtered_skips_protected_victims() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(2, 2);
        // Block 0 is the LRU, but it is protected.
        let (victims, overflowed) = c.insert_filtered(4, 3, |b| b != 0);
        assert_eq!(victims, vec![(2, 2)]);
        assert!(!overflowed);
        assert!(c.contains(0));
    }

    #[test]
    fn insert_filtered_overflows_when_all_protected() {
        let mut c = tiny();
        c.insert(0, 1);
        c.insert(2, 2);
        let (victims, overflowed) = c.insert_filtered(4, 3, |_| false);
        assert!(victims.is_empty());
        assert!(overflowed);
        assert_eq!(c.set_len(0), 3); // temporarily above 2 ways

        // The next insertion repays the debt (evicts down to 1, pushes 1).
        let (victims, overflowed) = c.insert_filtered(6, 4, |_| true);
        assert_eq!(victims.len(), 2);
        assert!(!overflowed);
        assert_eq!(c.set_len(0), 2);
    }

    /// Building an array faults in none of its set entries (the zeroed
    /// entries come from fresh pages), and ways are paid for only for
    /// the chunks that sets are given.
    #[cfg(target_os = "linux")]
    #[test]
    fn untouched_sets_are_never_faulted_in() {
        fn rss_bytes() -> u64 {
            let statm = std::fs::read_to_string("/proc/self/statm").expect("statm");
            let pages: u64 =
                statm.split_whitespace().nth(1).and_then(|p| p.parse().ok()).expect("rss");
            pages * 4096
        }
        let before = rss_bytes();
        // 8 Mi ways: well over 100 MiB if the way arrays were written.
        let mut c: SetAssoc<u64> = SetAssoc::new(Geometry::new(1 << 20, 8));
        c.insert(0, 1);
        c.insert(12345, 2);
        let grown = rss_bytes().saturating_sub(before);
        assert!(grown < 32 << 20, "building a huge array faulted in {grown} bytes");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn iter_sees_everything() {
        let mut c = SetAssoc::new(Geometry::new(4, 2));
        for b in 0..8u64 {
            c.insert(b, b as u32);
        }
        let mut blocks: Vec<u64> = c.iter().map(|(b, _)| b).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, (0..8).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// The array never holds two lines with the same block, never
        /// exceeds its capacity per set, and lookups agree with a model
        /// map restricted to resident blocks.
        #[test]
        fn behaves_like_bounded_map(ops in prop::collection::vec((0u64..32, 0u32..1000), 1..200)) {
            let mut c: SetAssoc<u32> = SetAssoc::new(Geometry::new(4, 2));
            let mut model: HashMap<u64, u32> = HashMap::new();
            for (block, val) in ops {
                if c.contains(block) {
                    *c.get_mut(block).unwrap() = val;
                    model.insert(block, val);
                } else {
                    if let Some((vb, _)) = c.insert(block, val) {
                        model.remove(&vb);
                    }
                    model.insert(block, val);
                }
                // Invariants.
                let mut seen = std::collections::HashSet::new();
                for (b, _) in c.iter() {
                    prop_assert!(seen.insert(b), "duplicate block {}", b);
                }
                for b in 0u64..32 {
                    prop_assert!(c.set_len(b) <= 2);
                    if let Some(v) = c.peek(b) {
                        prop_assert_eq!(model.get(&b), Some(v));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod filtered_proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// With a shrinking-but-reappearing protected set, the array
        /// never loses protected lines, and overshoot is bounded by the
        /// number of protected lines in the set.
        #[test]
        fn protected_lines_survive(ops in prop::collection::vec(
            (0u64..32, prop::bool::ANY), 1..120,
        )) {
            let mut c: SetAssoc<u32> = SetAssoc::new(Geometry::new(4, 2));
            let mut protected: BTreeSet<u64> = BTreeSet::new();
            for (block, protect) in ops {
                if protect && c.contains(block) {
                    protected.insert(block);
                }
                if !c.contains(block) {
                    let guard = protected.clone();
                    let (victims, _overflow) =
                        c.insert_filtered(block, block as u32, |b| !guard.contains(&b));
                    for (vb, _) in victims {
                        prop_assert!(!protected.contains(&vb), "evicted protected {vb}");
                    }
                }
                // Protected lines are all still resident.
                for &b in &protected {
                    prop_assert!(c.contains(b));
                }
            }
        }
    }
}

/// The vector-of-sets implementation the flat layout replaced, kept as
/// the reference model the equivalence proptest runs against.
#[cfg(test)]
mod oracle {
    use crate::geometry::Geometry;
    use cmpsim_engine::{Snap, SnapWriter};

    #[derive(Debug)]
    struct Line<T> {
        block: u64,
        data: T,
        lru: u64,
    }

    #[derive(Debug)]
    pub struct VecSetAssoc<T> {
        geom: Geometry,
        sets: Vec<Vec<Line<T>>>,
        pub clock: u64,
    }

    impl<T> VecSetAssoc<T> {
        pub fn with_clock(geom: Geometry, clock: u64) -> Self {
            let sets = (0..geom.sets).map(|_| Vec::with_capacity(geom.ways)).collect();
            Self { geom, sets, clock }
        }

        pub fn len(&self) -> usize {
            self.sets.iter().map(|s| s.len()).sum()
        }

        fn bump(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        pub fn peek(&self, block: u64) -> Option<&T> {
            let set = &self.sets[self.geom.index(block)];
            set.iter().find(|l| l.block == block).map(|l| &l.data)
        }

        pub fn get_mut(&mut self, block: u64) -> Option<&mut T> {
            let stamp = self.bump();
            let idx = self.geom.index(block);
            let line = self.sets[idx].iter_mut().find(|l| l.block == block)?;
            line.lru = stamp;
            Some(&mut line.data)
        }

        pub fn insert(&mut self, block: u64, data: T) -> Option<(u64, T)> {
            let stamp = self.bump();
            let idx = self.geom.index(block);
            let set = &mut self.sets[idx];
            assert!(!set.iter().any(|l| l.block == block));
            let victim = if set.len() >= self.geom.ways {
                let (vi, _) = set.iter().enumerate().min_by_key(|(_, l)| l.lru).unwrap();
                let v = set.swap_remove(vi);
                Some((v.block, v.data))
            } else {
                None
            };
            set.push(Line { block, data, lru: stamp });
            victim
        }

        pub fn insert_filtered(
            &mut self,
            block: u64,
            data: T,
            mut can_evict: impl FnMut(u64) -> bool,
        ) -> (Vec<(u64, T)>, bool) {
            let stamp = self.bump();
            let idx = self.geom.index(block);
            let set = &mut self.sets[idx];
            assert!(!set.iter().any(|l| l.block == block));
            let mut victims = Vec::new();
            let mut overflowed = false;
            while set.len() >= self.geom.ways {
                let candidate = set
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| can_evict(l.block))
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i);
                match candidate {
                    Some(vi) => {
                        let v = set.swap_remove(vi);
                        victims.push((v.block, v.data));
                    }
                    None => {
                        overflowed = true;
                        break;
                    }
                }
            }
            set.push(Line { block, data, lru: stamp });
            (victims, overflowed)
        }

        pub fn victim_if_full(&self, block: u64) -> Option<(&u64, &T)> {
            let set = &self.sets[self.geom.index(block)];
            if set.len() < self.geom.ways {
                return None;
            }
            set.iter().min_by_key(|l| l.lru).map(|l| (&l.block, &l.data))
        }

        pub fn remove(&mut self, block: u64) -> Option<T> {
            let idx = self.geom.index(block);
            let set = &mut self.sets[idx];
            let pos = set.iter().position(|l| l.block == block)?;
            Some(set.swap_remove(pos).data)
        }

        pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
            self.sets.iter().flat_map(|s| s.iter().map(|l| (l.block, &l.data)))
        }

        pub fn set_len(&self, block: u64) -> usize {
            self.sets[self.geom.index(block)].len()
        }
    }

    impl<T: Snap> Snap for Line<T> {
        fn save(&self, w: &mut SnapWriter) {
            self.block.save(w);
            self.data.save(w);
            self.lru.save(w);
        }
        fn load(r: &mut cmpsim_engine::SnapReader<'_>) -> Result<Self, cmpsim_engine::SnapError> {
            Ok(Self { block: Snap::load(r)?, data: Snap::load(r)?, lru: Snap::load(r)? })
        }
    }

    impl<T: Snap> VecSetAssoc<T> {
        pub fn save(&self, w: &mut SnapWriter) {
            self.geom.save(w);
            self.sets.save(w);
            self.clock.save(w);
        }
    }
}

#[cfg(test)]
mod oracle_proptests {
    use super::oracle::VecSetAssoc;
    use super::*;
    use proptest::prelude::*;

    pub(super) fn image(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    type Op = (u8, u64, u32, u32);

    /// Runs `ops` on a flat array and on the vector-of-sets model, both
    /// with their clocks at `clock`, and checks after every operation
    /// that return values, per-set occupancy and iteration order agree.
    /// Snapshot bytes are compared too while the stamps are still the
    /// model's, i.e. unless the flat array has renumbered them.
    fn run_against_model(
        geom: Geometry,
        clock: u32,
        ops: Vec<Op>,
    ) -> (SetAssoc<u32>, VecSetAssoc<u32>) {
        let mut flat: SetAssoc<u32> = SetAssoc::with_clock(geom, clock);
        let mut model: VecSetAssoc<u32> = VecSetAssoc::with_clock(geom, u64::from(clock));
        for (op, block, val, protect) in ops {
            // Bit `b % 32` of `protect` guards block `b` from eviction.
            let can_evict = |b: u64| protect & (1 << (b % 32)) == 0;
            match op {
                0 if model.peek(block).is_none() => {
                    prop_assert_eq!(flat.insert(block, val), model.insert(block, val));
                }
                1 if model.peek(block).is_none() => {
                    prop_assert_eq!(
                        flat.insert_filtered(block, val, can_evict),
                        model.insert_filtered(block, val, can_evict)
                    );
                }
                2 => {
                    let got = flat.get_mut(block).map(|v| {
                        *v += val;
                        *v
                    });
                    let want = model.get_mut(block).map(|v| {
                        *v += val;
                        *v
                    });
                    prop_assert_eq!(got, want);
                }
                3 => prop_assert_eq!(flat.peek(block), model.peek(block)),
                4 => prop_assert_eq!(flat.remove(block), model.remove(block)),
                _ => prop_assert_eq!(flat.victim_if_full(block), model.victim_if_full(block)),
            }
            prop_assert_eq!(flat.set_len(block), model.set_len(block));
            prop_assert_eq!(flat.len(), model.len());
            prop_assert!(flat.iter().eq(model.iter()), "iteration order diverged");
            if u64::from(flat.clock) == model.clock {
                prop_assert_eq!(image(|w| flat.save(w)), image(|w| model.save(w)));
            }
        }
        (flat, model)
    }

    /// A snapshot of `flat` restores to the same state, with each set
    /// in the smallest chunk that holds its lines, and a clone (a fork)
    /// carries it too.
    fn round_trips(flat: &SetAssoc<u32>) {
        let bytes = image(|w| flat.save(w));
        let back = SetAssoc::<u32>::load(&mut SnapReader::new(&bytes)).expect("decode");
        super::dense_proptests::check_chunks(&back, |set| back.len_of(set));
        prop_assert_eq!(image(|w| back.save(w)), bytes.clone());
        prop_assert_eq!(image(|w| flat.clone().save(w)), bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The flat array is observationally identical to the
        /// vector-of-sets model after every operation: same return
        /// values, per-set occupancy, iteration order and snapshot bytes.
        /// Random protected sets force `insert_filtered` overshoots and
        /// their repayment.
        #[test]
        fn flat_layout_matches_vector_of_sets(
            ways in 2usize..5,
            sets_log2 in 0u32..3,
            ops in prop::collection::vec((0u8..6, 0u64..24, 0u32..1000, 0u32..u32::MAX), 1..300),
        ) {
            let (flat, _) = run_against_model(Geometry::new(1 << sets_log2, ways), 0, ops);
            round_trips(&flat);
        }

        /// The same, starting with the clock a few accesses short of
        /// `u32::MAX`: renumbering the stamps mid-run changes no return
        /// value, occupancy or iteration order against the model's
        /// unbounded `u64` stamps.
        #[test]
        fn renumbered_stamps_match_vector_of_sets(
            ways in 2usize..5,
            sets_log2 in 0u32..3,
            headroom in 0u32..64,
            ops in prop::collection::vec((0u8..6, 0u64..24, 0u32..1000, 0u32..u32::MAX), 1..300),
        ) {
            let (flat, model) =
                run_against_model(Geometry::new(1 << sets_log2, ways), u32::MAX - headroom, ops);
            if model.clock > u64::from(u32::MAX) {
                // Renumbered: the clock restarted low, and the live
                // stamps are still unique and behind it.
                prop_assert!(u64::from(flat.clock) < model.clock);
                let mut stamps: Vec<u32> = flat.all_lines().map(|w| w.1).collect();
                stamps.sort_unstable();
                stamps.dedup();
                prop_assert_eq!(stamps.len(), flat.len());
                prop_assert!(stamps.last().is_none_or(|&s| s <= flat.clock));
            }
            round_trips(&flat);
        }
    }
}

/// The dense layout the chunks replaced: way `w` of set `s` is entry
/// `s * ways + w` of one `sets × ways` array, beside a length per set.
/// Kept as the reference the chunked layout is diffed against, stamps,
/// renumbering and snapshot bytes included.
#[cfg(test)]
mod dense {
    use super::Way;
    use crate::geometry::Geometry;
    use cmpsim_engine::{Snap, SnapWriter};
    use std::collections::BTreeMap;

    #[derive(Debug)]
    pub struct DenseSetAssoc<T> {
        geom: Geometry,
        lens: Vec<u32>,
        ways: Vec<Way>,
        overshoot: BTreeMap<usize, Vec<Way>>,
        slab: Vec<Option<T>>,
        free: Vec<u32>,
        clock: u32,
    }

    impl<T> DenseSetAssoc<T> {
        pub fn with_clock(geom: Geometry, clock: u32) -> Self {
            Self {
                geom,
                lens: vec![0; geom.sets],
                ways: vec![(0, 0, 0); geom.entries()],
                overshoot: BTreeMap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                clock,
            }
        }

        fn bump(&mut self) -> u32 {
            if self.clock == u32::MAX {
                self.renumber();
            }
            self.clock += 1;
            self.clock
        }

        fn renumber(&mut self) {
            let stamps: Vec<u32> =
                (0..self.geom.sets).flat_map(|set| self.lines(set)).map(|w| w.1).collect();
            let mut ranks = stamps.clone();
            ranks.sort_unstable();
            ranks.dedup();
            let mut next = stamps.iter();
            for set in 0..self.geom.sets {
                for pos in 0..self.lens[set] as usize {
                    let rank = ranks.binary_search(next.next().unwrap()).unwrap() + 1;
                    self.way_mut(set, pos).1 = rank as u32;
                }
            }
            self.clock = ranks.len() as u32;
        }

        fn way(&self, set: usize, pos: usize) -> &Way {
            let ways = self.geom.ways;
            if pos < ways {
                &self.ways[set * ways + pos]
            } else {
                &self.overshoot[&set][pos - ways]
            }
        }

        fn way_mut(&mut self, set: usize, pos: usize) -> &mut Way {
            let ways = self.geom.ways;
            if pos < ways {
                &mut self.ways[set * ways + pos]
            } else {
                &mut self.overshoot.get_mut(&set).unwrap()[pos - ways]
            }
        }

        fn lines(&self, set: usize) -> impl Iterator<Item = &Way> {
            let ways = self.geom.ways;
            let len = self.lens[set] as usize;
            let flat = &self.ways[set * ways..set * ways + len.min(ways)];
            let spilled = if len > ways { &self.overshoot[&set][..] } else { &[] };
            flat.iter().chain(spilled)
        }

        fn position(&self, set: usize, block: u64) -> Option<usize> {
            self.lines(set).position(|w| w.0 == block)
        }

        fn lru_position(&self, set: usize, mut eligible: impl FnMut(u64) -> bool) -> Option<usize> {
            let mut best: Option<(u32, usize)> = None;
            for (pos, &(block, lru, _)) in self.lines(set).enumerate() {
                if eligible(block) && best.is_none_or(|(oldest, _)| lru < oldest) {
                    best = Some((lru, pos));
                }
            }
            best.map(|(_, pos)| pos)
        }

        fn push(&mut self, set: usize, block: u64, lru: u32, data: T) {
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slab[slot as usize] = Some(data);
                    slot
                }
                None => {
                    self.slab.push(Some(data));
                    self.slab.len() as u32 - 1
                }
            };
            let pos = self.lens[set] as usize;
            if pos < self.geom.ways {
                *self.way_mut(set, pos) = (block, lru, slot);
            } else {
                self.overshoot.entry(set).or_default().push((block, lru, slot));
            }
            self.lens[set] += 1;
        }

        fn swap_remove(&mut self, set: usize, pos: usize) -> (u64, T) {
            let last = self.lens[set] as usize - 1;
            let (block, _, slot) = *self.way(set, pos);
            if pos != last {
                *self.way_mut(set, pos) = *self.way(set, last);
            }
            if last >= self.geom.ways {
                let spilled = self.overshoot.get_mut(&set).unwrap();
                spilled.pop();
                if spilled.is_empty() {
                    self.overshoot.remove(&set);
                }
            }
            self.lens[set] -= 1;
            self.free.push(slot);
            (block, self.slab[slot as usize].take().unwrap())
        }

        pub fn len(&self) -> usize {
            self.lens.iter().map(|&n| n as usize).sum()
        }

        pub fn peek(&self, block: u64) -> Option<&T> {
            let set = self.geom.index(block);
            let pos = self.position(set, block)?;
            self.slab[self.way(set, pos).2 as usize].as_ref()
        }

        pub fn get_mut(&mut self, block: u64) -> Option<&mut T> {
            let stamp = self.bump();
            let set = self.geom.index(block);
            let pos = self.position(set, block)?;
            let way = self.way_mut(set, pos);
            way.1 = stamp;
            let slot = way.2 as usize;
            self.slab[slot].as_mut()
        }

        pub fn touch(&mut self, block: u64) -> bool {
            self.get_mut(block).is_some()
        }

        pub fn insert(&mut self, block: u64, data: T) -> Option<(u64, T)> {
            let stamp = self.bump();
            let set = self.geom.index(block);
            let victim = if self.lens[set] as usize >= self.geom.ways {
                let pos = self.lru_position(set, |_| true).unwrap();
                Some(self.swap_remove(set, pos))
            } else {
                None
            };
            self.push(set, block, stamp, data);
            victim
        }

        pub fn insert_filtered(
            &mut self,
            block: u64,
            data: T,
            mut can_evict: impl FnMut(u64) -> bool,
        ) -> (Vec<(u64, T)>, bool) {
            let stamp = self.bump();
            let set = self.geom.index(block);
            let mut victims = Vec::new();
            let mut overflowed = false;
            while self.lens[set] as usize >= self.geom.ways {
                match self.lru_position(set, &mut can_evict) {
                    Some(pos) => victims.push(self.swap_remove(set, pos)),
                    None => {
                        overflowed = true;
                        break;
                    }
                }
            }
            self.push(set, block, stamp, data);
            (victims, overflowed)
        }

        pub fn victim_if_full(&self, block: u64) -> Option<(&u64, &T)> {
            let set = self.geom.index(block);
            if (self.lens[set] as usize) < self.geom.ways {
                return None;
            }
            let (victim, _, slot) = self.way(set, self.lru_position(set, |_| true)?);
            Some((victim, self.slab[*slot as usize].as_ref().unwrap()))
        }

        pub fn remove(&mut self, block: u64) -> Option<T> {
            let set = self.geom.index(block);
            let pos = self.position(set, block)?;
            Some(self.swap_remove(set, pos).1)
        }

        pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
            (0..self.geom.sets)
                .flat_map(|set| self.lines(set))
                .map(|&(block, _, slot)| (block, self.slab[slot as usize].as_ref().unwrap()))
        }

        pub fn set_len(&self, block: u64) -> usize {
            self.lens[self.geom.index(block)] as usize
        }
    }

    impl<T: Snap> DenseSetAssoc<T> {
        pub fn save(&self, w: &mut SnapWriter) {
            self.geom.save(w);
            w.len_prefix(self.geom.sets);
            for set in 0..self.geom.sets {
                w.len_prefix(self.lens[set] as usize);
                for &(block, lru, slot) in self.lines(set) {
                    block.save(w);
                    self.slab[slot as usize].as_ref().unwrap().save(w);
                    u64::from(lru).save(w);
                }
            }
            u64::from(self.clock).save(w);
        }
    }
}

#[cfg(test)]
mod dense_proptests {
    use super::dense::DenseSetAssoc;
    use super::oracle_proptests::image;
    use super::*;
    use proptest::prelude::*;

    /// The smallest class whose chunks hold `held` lines of a set of
    /// `ways` ways.
    fn class_for(held: usize, ways: usize) -> usize {
        if held == 0 {
            0
        } else {
            held.min(ways).next_power_of_two().trailing_zeros() as usize + 1
        }
    }

    /// Checks that each set's chunk is of the smallest class holding the
    /// `held(set)` lines, and that every chunk of every class's arena is
    /// named by exactly one set or is on its class's free list.
    pub(super) fn check_chunks<T>(a: &SetAssoc<T>, held: impl Fn(usize) -> usize) {
        let ways = a.geom.ways;
        let mut owners: Vec<Vec<u32>> = a.chunks.iter().map(|_| Vec::new()).collect();
        for set in 0..a.geom.sets {
            let (index, class, _) = a.bits.unpack(a.sets[set]);
            prop_assert_eq!(class, class_for(held(set), ways), "class of set {}", set);
            prop_assert!(class > 0 || index == 0, "set {} names a chunk of class 0", set);
            if class > 0 {
                owners[class].push(index as u32);
            }
        }
        prop_assert!(a.chunks[0].is_empty() && a.spare[0].is_empty(), "class 0 has ways");
        for (class, (arena, spare)) in a.chunks.iter().zip(&a.spare).enumerate().skip(1) {
            prop_assert_eq!(arena.len() % stride(class), 0);
            let mut named = std::mem::take(&mut owners[class]);
            named.extend(spare);
            named.sort_unstable();
            let all: Vec<u32> = (0..(arena.len() / stride(class)) as u32).collect();
            prop_assert_eq!(named, all, "chunks of class {} lost or shared", class);
        }
    }

    /// Runs `ops` on the chunked array and on the dense layout, both
    /// with their clocks at `clock`, and checks after every operation
    /// that return values, per-set occupancy, iteration order and
    /// snapshot bytes agree, and that the chunks are sized to the most
    /// lines each set has held and all accounted for.
    fn run_against_dense(geom: Geometry, clock: u32, ops: Vec<(u8, u64, u32, u32)>) {
        let mut chunked: SetAssoc<u32> = SetAssoc::with_clock(geom, clock);
        let mut dense: DenseSetAssoc<u32> = DenseSetAssoc::with_clock(geom, clock);
        let mut held = vec![0; geom.sets];
        for (op, block, val, protect) in ops {
            // Bit `b % 32` of `protect` guards block `b` from eviction.
            let can_evict = |b: u64| protect & (1 << (b % 32)) == 0;
            match op {
                0 if dense.peek(block).is_none() => {
                    prop_assert_eq!(chunked.insert(block, val), dense.insert(block, val));
                }
                1 if dense.peek(block).is_none() => {
                    prop_assert_eq!(
                        chunked.insert_filtered(block, val, can_evict),
                        dense.insert_filtered(block, val, can_evict)
                    );
                }
                2 => {
                    let got = chunked.get_mut(block).map(|v| {
                        *v += val;
                        *v
                    });
                    let want = dense.get_mut(block).map(|v| {
                        *v += val;
                        *v
                    });
                    prop_assert_eq!(got, want);
                }
                3 => prop_assert_eq!(chunked.touch(block), dense.touch(block)),
                4 => prop_assert_eq!(chunked.peek(block), dense.peek(block)),
                5 => prop_assert_eq!(chunked.remove(block), dense.remove(block)),
                _ => prop_assert_eq!(chunked.victim_if_full(block), dense.victim_if_full(block)),
            }
            let set = geom.index(block);
            held[set] = held[set].max(chunked.set_len(block));
            prop_assert_eq!(chunked.set_len(block), dense.set_len(block));
            prop_assert_eq!(chunked.len(), dense.len());
            prop_assert!(chunked.iter().eq(dense.iter()), "iteration order diverged");
            prop_assert_eq!(image(|w| chunked.save(w)), image(|w| dense.save(w)));
            check_chunks(&chunked, |set| held[set]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The chunked array is observationally identical to the dense
        /// layout after every operation. Random protected sets force
        /// `insert_filtered` overshoots and their repayment.
        #[test]
        fn chunks_match_dense_layout(
            ways in 1usize..10,
            sets_log2 in 0u32..4,
            ops in prop::collection::vec((0u8..7, 0u64..48, 0u32..1000, 0u32..u32::MAX), 1..300),
        ) {
            run_against_dense(Geometry::new(1 << sets_log2, ways), 0, ops);
        }

        /// The same, starting with the clock a few accesses short of
        /// `u32::MAX`, so both layouts renumber their stamps mid-run.
        #[test]
        fn chunks_match_dense_layout_across_renumbering(
            ways in 1usize..10,
            sets_log2 in 0u32..4,
            headroom in 0u32..64,
            ops in prop::collection::vec((0u8..7, 0u64..48, 0u32..1000, 0u32..u32::MAX), 1..300),
        ) {
            run_against_dense(Geometry::new(1 << sets_log2, ways), u32::MAX - headroom, ops);
        }
    }

    /// On the paper's L2 bank (1 MiB, 8 ways, 2048 sets, indexed above
    /// the 64-tile bank bits), lines in k distinct sets take k one-way
    /// chunks, not k rows of 8 ways; a set that reaches 3 lines sits in
    /// a 4-way chunk; the chunks it left are reused by the next sets to
    /// grow into their classes; and a set emptied and refilled keeps
    /// its chunk.
    #[test]
    fn paper_l2_bank_sizes_chunks_to_the_lines_held() {
        let geom = Geometry::from_capacity(1 << 20, 64, 8).with_shift(6);
        let mut c: SetAssoc<u32> = SetAssoc::new(geom);
        let k = 100u64;
        // Blocks of home bank 3 in sets 0, 19, 38, ...
        let block = |set: u64, nth: u64| 3 + 64 * (set * 19 % 2048 + 2048 * nth);
        let class = |c: &SetAssoc<u32>, set: u64| c.chunk(geom.index(block(set, 0))).0;
        let arena_ways = |c: &SetAssoc<u32>| c.chunks.iter().map(Vec::len).sum::<usize>();
        for set in 0..k {
            c.insert(block(set, 0), set as u32);
        }
        assert_eq!(arena_ways(&c), k as usize);
        assert!((0..k).all(|set| class(&c, set) == 1));

        // Set 0 grows to 3 lines: its one-way and two-way chunks are freed.
        c.insert(block(0, 1), 0);
        c.insert(block(0, 2), 0);
        assert_eq!(class(&c, 0), 3);
        assert_eq!(arena_ways(&c), k as usize + 2 + 4);
        assert_eq!((c.spare[1].len(), c.spare[2].len()), (1, 1));

        // Set 1 grows the same way into the freed two-way chunk; only
        // its four-way chunk is new.
        c.insert(block(1, 1), 0);
        assert_eq!(arena_ways(&c), k as usize + 2 + 4);
        c.insert(block(1, 2), 0);
        assert_eq!(class(&c, 1), 3);
        assert_eq!(arena_ways(&c), k as usize + 2 + 4 + 4);

        // A new set takes the freed one-way chunk.
        c.insert(block(k, 0), 0);
        assert_eq!(arena_ways(&c), k as usize + 2 + 4 + 4);
        assert_eq!(c.spare.iter().map(Vec::len).sum::<usize>(), 2);

        // Emptying and refilling a set keeps its chunk.
        let before = c.sets.clone();
        for set in 2..k {
            assert_eq!(c.remove(block(set, 0)), Some(set as u32));
            c.insert(block(set, 3), 0);
        }
        assert_eq!(c.sets, before);
        assert_eq!(arena_ways(&c), k as usize + 2 + 4 + 4);
        assert_eq!(c.len(), k as usize + 1 + 4);
    }

    /// The entry packs the largest chunk index, the largest class and a
    /// full count for the extreme geometries `in_range` accepts, without
    /// building an array.
    #[test]
    fn entry_packs_the_extreme_geometries() {
        for (sets, ways) in
            [(1 << 24, 1), (1, 1 << 24), (1 << 21, 8), (1 << 22, 3), (1, (1 << 23) + 1)]
        {
            let geom = Geometry::new(sets, ways);
            assert!(geom.in_range());
            let bits = EntryBits::new(geom);
            assert!(bits.count + bits.class + sets.trailing_zeros() <= 30, "{sets} x {ways}");
            let top = EntryBits::top_class(geom);
            assert!(stride(top) >= ways && stride(top - 1) < ways);
            for (index, class, n) in [(sets - 1, top, ways), (sets - 1, 1, 0), (0, top, 1)] {
                assert_eq!(bits.unpack(bits.pack(index, class, n)), (index, class, n));
            }
            assert_eq!(bits.unpack(0), (0, 0, 0));
        }
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    /// Image of a 2-set, 2-way array holding blocks 0 and 2 (set 0) and
    /// 1 (set 1), with payloads `10 + block`.
    fn image() -> Vec<u8> {
        let mut c: SetAssoc<u32> = SetAssoc::new(Geometry::new(2, 2));
        for b in [0u64, 2, 1] {
            c.insert(b, 10 + b as u32);
        }
        let mut w = SnapWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    // Byte offsets in `image()`: geometry (sets u64, ways u64, shift
    // u32), set count u64, then set 0's length and lines (block u64,
    // payload u32, stamp u64), set 1's, and the clock (u64).
    const SET_COUNT: usize = 20;
    const SET0_LINE0: usize = 36;
    const SET0_LINE1: usize = SET0_LINE0 + 20;
    const SET1_LINE0: usize = SET0_LINE1 + 28;
    const CLOCK: usize = SET1_LINE0 + 20;

    fn load(bytes: &[u8]) -> Result<SetAssoc<u32>, SnapError> {
        let mut r = SnapReader::new(bytes);
        let a = SetAssoc::load(&mut r)?;
        r.finish()?;
        Ok(a)
    }

    fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn expect_corrupt(bytes: &[u8], why: &str) {
        match load(bytes) {
            Err(e @ SnapError::Corrupt(_)) => assert!(e.to_string().contains(why), "{e}"),
            Err(e) => panic!("expected a corrupt-snapshot error naming {why:?}, got {e}"),
            Ok(_) => panic!("a corrupt array image was accepted ({why})"),
        }
    }

    #[test]
    fn pristine_image_round_trips() {
        let bytes = image();
        let a = load(&bytes).expect("pristine image");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, &10), (2, &12), (1, &11)]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn set_count_must_match_geometry() {
        let mut bad = image();
        put_u64(&mut bad, SET_COUNT, 1);
        expect_corrupt(&bad, "set count");
    }

    #[test]
    fn line_must_index_to_its_set() {
        let mut bad = image();
        put_u64(&mut bad, SET0_LINE0, 5); // odd block in the even set
        expect_corrupt(&bad, "wrong set");
    }

    #[test]
    fn set_must_not_hold_a_block_twice() {
        let mut bad = image();
        put_u64(&mut bad, SET0_LINE1, 0);
        expect_corrupt(&bad, "duplicate block");
    }

    #[test]
    fn stamp_must_not_pass_the_clock() {
        let mut bad = image();
        put_u64(&mut bad, SET0_LINE0 + 12, 99);
        expect_corrupt(&bad, "ahead of its clock");
    }

    #[test]
    fn geometry_must_be_sane() {
        let mut bad = image();
        put_u64(&mut bad, 0, 3); // not a power of two
        expect_corrupt(&bad, "geometry");
        let mut bad = image();
        put_u64(&mut bad, 8, 1 << 40); // absurd associativity
        expect_corrupt(&bad, "geometry");
    }

    /// An image whose clock does not fit a `u32` loads with its stamps
    /// renumbered in order, so the LRU choices are the image's.
    #[test]
    fn clock_beyond_u32_renumbers_in_order() {
        let mut big = image();
        put_u64(&mut big, SET0_LINE0 + 12, (1 << 40) + 7); // block 0, newest
        put_u64(&mut big, SET0_LINE1 + 12, (1 << 40) + 5); // block 2
        put_u64(&mut big, SET1_LINE0 + 12, 1 << 33); // block 1, oldest
        put_u64(&mut big, CLOCK, (1 << 40) + 9);
        let mut a = load(&big).expect("an image with a u64 clock loads");
        assert_eq!(a.victim_if_full(4).map(|(b, _)| *b), Some(2));

        let mut w = SnapWriter::new();
        a.save(&mut w);
        let mut want = image();
        put_u64(&mut want, SET0_LINE0 + 12, 3);
        put_u64(&mut want, SET0_LINE1 + 12, 2);
        put_u64(&mut want, SET1_LINE0 + 12, 1);
        put_u64(&mut want, CLOCK, 3);
        assert_eq!(w.into_bytes(), want);

        // The next access stamps above every renumbered line.
        assert!(a.touch(2));
        assert_eq!(a.insert(4, 14), Some((0, 10)));
    }

    /// A clock of exactly `u32::MAX` still fits: the image re-saves
    /// byte-identical.
    #[test]
    fn clock_at_u32_max_round_trips() {
        let mut edge = image();
        put_u64(&mut edge, SET0_LINE0 + 12, u64::from(u32::MAX));
        put_u64(&mut edge, CLOCK, u64::from(u32::MAX));
        let a = load(&edge).expect("edge image");
        let mut w = SnapWriter::new();
        a.save(&mut w);
        assert_eq!(w.into_bytes(), edge);
    }

    /// The ways are 16 bytes: a `u64` block and `u32` stamp and slot.
    #[test]
    fn ways_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Way>(), 16);
    }
}
