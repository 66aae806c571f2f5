//! Generic set-associative array with true-LRU replacement.
//!
//! The array is stored flat. Way `w` of set `s` is entry `s * ways + w`
//! of one array of `(block, LRU stamp, payload slot)` triples, so a
//! lookup, the stamp update of a hit and a victim search all read the
//! same host cache lines. The array holds plain integers and is built
//! with `vec![(0, 0, 0); n]`, which asks the allocator for zeroed
//! memory; large zeroed blocks come from fresh pages, so the pages of
//! sets nothing touches are never faulted in. A 64-tile chip's arrays
//! cost address space, not memory, and building or dropping one is a
//! handful of allocations rather than one per set. A per-set length
//! says how many leading ways are live. Payloads live in a dense slab
//! that grows with the resident lines and reuses freed slots. The rare
//! lines an [`SetAssoc::insert_filtered`] overshoot places beyond
//! `ways` live in a small ordered side table.
//!
//! In-set order is behaviourally significant (iteration order and the
//! first-minimum victim tie-break), so each set keeps the order of a
//! vector mutated only by `push` and `swap_remove`: in-set position
//! `p < ways` is flat way `p`, and position `ways + i` is entry `i` of
//! the set's overshoot list.

use std::collections::BTreeMap;

use crate::geometry::Geometry;
use cmpsim_engine::{Snap, SnapError, SnapReader, SnapWriter};

/// Largest `sets × ways` a snapshot may declare. Far above any modelled
/// structure (the paper's L2 bank has 16 Ki entries); it stops a corrupt
/// geometry from reserving an absurd amount of memory before decoding
/// fails.
const MAX_LOADED_ENTRIES: usize = 1 << 24;

/// One resident line: `(block, LRU stamp, payload slot)`. A tuple of
/// integers, so that an array of them can be allocated zeroed.
type Way = (u64, u64, u32);

/// A set-associative array. All structures of a tile (L1, L2 bank,
/// directory cache, L1C$, L2C$) are instances of this with different
/// payloads and geometries.
#[derive(Debug, Clone)]
pub struct SetAssoc<T> {
    geom: Geometry,
    /// Resident lines per set; above `ways` only during an overshoot.
    lens: Vec<u32>,
    /// `sets × ways` flat ways; only the first `lens[s]` of set `s` are
    /// live.
    ways: Vec<Way>,
    /// Lines at in-set positions `>= ways`, by set.
    overshoot: BTreeMap<usize, Vec<Way>>,
    /// Payloads; `None` marks a free slot.
    slab: Vec<Option<T>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// Resident lines across all sets.
    resident: usize,
    clock: u64,
}

impl<T> SetAssoc<T> {
    /// Creates an empty array.
    pub fn new(geom: Geometry) -> Self {
        Self {
            geom,
            lens: vec![0; geom.sets],
            ways: vec![(0, 0, 0); geom.entries()],
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

    fn bump(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The line at in-set position `pos` of `set`.
    #[inline]
    fn way(&self, set: usize, pos: usize) -> &Way {
        let ways = self.geom.ways;
        if pos < ways {
            &self.ways[set * ways + pos]
        } else {
            &self.overshoot[&set][pos - ways]
        }
    }

    #[inline]
    fn way_mut(&mut self, set: usize, pos: usize) -> &mut Way {
        let ways = self.geom.ways;
        if pos < ways {
            &mut self.ways[set * ways + pos]
        } else {
            let spilled = self.overshoot.get_mut(&set).expect("overshooting set has a side list");
            &mut spilled[pos - ways]
        }
    }

    /// The live lines of `set` in in-set order: its flat ways, then its
    /// overshoot list.
    #[inline]
    fn lines(&self, set: usize) -> impl Iterator<Item = &Way> {
        let ways = self.geom.ways;
        let len = self.lens[set] as usize;
        let flat = &self.ways[set * ways..set * ways + len.min(ways)];
        let spilled = if len > ways { &self.overshoot[&set][..] } else { &[] };
        flat.iter().chain(spilled)
    }

    /// In-set position of `block` within `set`.
    #[inline]
    fn position(&self, set: usize, block: u64) -> Option<usize> {
        self.lines(set).position(|w| w.0 == block)
    }

    /// In-set position of the least recently used line of `set` among
    /// those `eligible` accepts. Ties go to the earliest position, and
    /// `eligible` sees every line in in-set order.
    fn lru_position(&self, set: usize, mut eligible: impl FnMut(u64) -> bool) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (pos, &(block, lru, _)) in self.lines(set).enumerate() {
            if eligible(block) && best.is_none_or(|(oldest, _)| lru < oldest) {
                best = Some((lru, pos));
            }
        }
        best.map(|(_, pos)| pos)
    }

    /// Appends a line at the end of `set` (`Vec::push` order).
    fn push(&mut self, set: usize, block: u64, lru: u64, data: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(data);
                slot
            }
            None => {
                self.slab.push(Some(data));
                u32::try_from(self.slab.len() - 1).expect("payload slab exceeds u32 slots")
            }
        };
        let pos = self.lens[set] as usize;
        if pos < self.geom.ways {
            *self.way_mut(set, pos) = (block, lru, slot);
        } else {
            self.overshoot.entry(set).or_default().push((block, lru, slot));
        }
        self.lens[set] += 1;
        self.resident += 1;
    }

    /// Removes the line at in-set position `pos` of `set`, moving the
    /// set's last line into its place (`Vec::swap_remove` order).
    fn swap_remove(&mut self, set: usize, pos: usize) -> (u64, T) {
        let last = self.lens[set] as usize - 1;
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
        }
        self.lens[set] -= 1;
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
        let victim = if self.lens[set] as usize >= self.geom.ways {
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
        // Evict until below associativity (repaying any earlier
        // overshoot).
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

    /// The line that `insert(block, ..)` would evict, if the set is full.
    /// Protocols use this to launch replacement transactions *before*
    /// the fill arrives.
    pub fn victim_if_full(&self, block: u64) -> Option<(&u64, &T)> {
        let set = self.geom.index(block);
        if (self.lens[set] as usize) < self.geom.ways {
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
        (0..self.geom.sets)
            .flat_map(move |set| self.lines(set).map(|&(block, _, slot)| (block, self.payload(slot))))
    }

    /// Occupancy of the set that `block` maps to.
    pub fn set_len(&self, block: u64) -> usize {
        self.lens[self.geom.index(block)] as usize
    }
}

// Images keep the encoding of the set-of-vectors layout this array
// replaced: the geometry, a set count, then per set its lines in in-set
// order as (block, payload, LRU stamp), then the stamp clock. The host
// layout never reaches the bytes. Loading fails closed on anything the
// array could not have produced itself.
impl<T: Snap> Snap for SetAssoc<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.geom.save(w);
        w.len_prefix(self.geom.sets);
        for set in 0..self.geom.sets {
            w.len_prefix(self.lens[set] as usize);
            for &(block, lru, slot) in self.lines(set) {
                block.save(w);
                self.payload(slot).save(w);
                lru.save(w);
            }
        }
        self.clock.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let geom = Geometry::load(r)?;
        let sane = geom.sets.is_power_of_two()
            && geom.ways >= 1
            && geom.index_shift < u64::BITS
            && geom.sets.checked_mul(geom.ways).is_some_and(|n| n <= MAX_LOADED_ENTRIES);
        if !sane {
            return Err(SnapError::Corrupt("cache geometry out of range"));
        }
        if r.len_prefix("SetAssoc", 8)? != geom.sets {
            return Err(SnapError::Corrupt("cache set count differs from its geometry"));
        }
        let mut a = Self::new(geom);
        let mut newest = 0;
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
                newest = newest.max(lru);
                a.push(set, block, lru, data);
            }
        }
        a.clock = u64::load(r)?;
        if newest > a.clock {
            return Err(SnapError::Corrupt("cache LRU stamp ahead of its clock"));
        }
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

    /// Building an array faults in none of its ways: the zeroed arrays
    /// come from fresh pages, and only the pages of touched sets are
    /// ever paid for.
    #[cfg(target_os = "linux")]
    #[test]
    fn untouched_sets_are_never_faulted_in() {
        fn rss_bytes() -> u64 {
            let statm = std::fs::read_to_string("/proc/self/statm").expect("statm");
            let pages: u64 = statm.split_whitespace().nth(1).and_then(|p| p.parse().ok()).expect("rss");
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
        clock: u64,
    }

    impl<T> VecSetAssoc<T> {
        pub fn new(geom: Geometry) -> Self {
            let sets = (0..geom.sets).map(|_| Vec::with_capacity(geom.ways)).collect();
            Self { geom, sets, clock: 0 }
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

    fn image(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        save(&mut w);
        w.into_bytes()
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
            let geom = Geometry::new(1 << sets_log2, ways);
            let mut flat: SetAssoc<u32> = SetAssoc::new(geom);
            let mut model: VecSetAssoc<u32> = VecSetAssoc::new(geom);
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
                prop_assert_eq!(image(|w| flat.save(w)), image(|w| model.save(w)));
            }
            // A snapshot of the flat array restores to the same state,
            // and a clone (a fork) carries it too.
            let bytes = image(|w| flat.save(w));
            let back = SetAssoc::<u32>::load(&mut SnapReader::new(&bytes)).expect("decode");
            prop_assert_eq!(image(|w| back.save(w)), bytes.clone());
            prop_assert_eq!(image(|w| flat.clone().save(w)), bytes);
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
    // payload u32, stamp u64), set 1's, and the clock.
    const SET_COUNT: usize = 20;
    const SET0_LINE0: usize = 36;
    const SET0_LINE1: usize = SET0_LINE0 + 20;

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
}
