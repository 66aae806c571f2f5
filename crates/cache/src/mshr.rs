//! Miss Status Holding Registers.
//!
//! One MSHR tracks one outstanding transaction for one block. The entry
//! payload is protocol-defined (pending ack counters, requested access
//! type, queued requests, ...). Lookups are hot-path (every protocol
//! dispatch probes the MSHR), so the entries live in a deterministic
//! fixed-seed hash map; [`Mshr::iter`] sorts so whole-chip invariant
//! checks stay address-ordered.

use cmpsim_engine::{FxHashMap, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::hash_map::Entry;

/// MSHR file with a capacity limit.
#[derive(Debug, Clone)]
pub struct Mshr<E> {
    entries: FxHashMap<u64, E>,
    capacity: usize,
}

impl<E> Mshr<E> {
    /// Creates an MSHR file with room for `capacity` in-flight blocks.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { entries: FxHashMap::default(), capacity }
    }

    /// Number of in-flight transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no transaction is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when a new transaction can be allocated.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry for `block`.
    ///
    /// # Panics
    /// Panics if the block already has an entry (callers must merge into
    /// the existing transaction) or if the file is full (callers must
    /// check [`Mshr::has_room`] and stall the core).
    pub fn alloc(&mut self, block: u64, entry: E) -> &mut E {
        assert!(self.has_room(), "MSHR overflow");
        match self.entries.entry(block) {
            Entry::Occupied(_) => panic!("duplicate MSHR for block {block:#x}"),
            Entry::Vacant(slot) => slot.insert(entry),
        }
    }

    /// Entry for `block`, if in flight.
    pub fn get(&self, block: u64) -> Option<&E> {
        self.entries.get(&block)
    }

    /// Mutable entry for `block`, if in flight.
    pub fn get_mut(&mut self, block: u64) -> Option<&mut E> {
        self.entries.get_mut(&block)
    }

    /// True if `block` has an in-flight transaction.
    pub fn contains(&self, block: u64) -> bool {
        self.entries.contains_key(&block)
    }

    /// Completes and removes the transaction for `block`.
    pub fn release(&mut self, block: u64) -> Option<E> {
        self.entries.remove(&block)
    }

    /// Address-ordered iteration (checkers/tests; sorts a scratch
    /// vector, so keep off the hot path).
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &E)> {
        let mut v: Vec<(&u64, &E)> = self.entries.iter().collect();
        v.sort_unstable_by_key(|(b, _)| **b);
        v.into_iter()
    }
}

// Images hold the entries key-sorted, then the capacity. Loading fails
// closed on a file the simulator could not have built or filled: zero
// capacity, more entries than capacity, or blocks out of order or
// repeated.
impl<E: Snap> Snap for Mshr<E> {
    fn save(&self, w: &mut SnapWriter) {
        self.entries.save(w);
        self.capacity.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix("Mshr", 8)?;
        let mut entries = FxHashMap::default();
        let mut last = None;
        for _ in 0..n {
            let block = u64::load(r)?;
            if last.is_some_and(|prev| prev >= block) {
                return Err(SnapError::Corrupt("MSHR blocks out of order or repeated"));
            }
            last = Some(block);
            entries.insert(block, E::load(r)?);
        }
        let capacity = usize::load(r)?;
        if capacity == 0 {
            return Err(SnapError::Corrupt("MSHR file with no capacity"));
        }
        if entries.len() > capacity {
            return Err(SnapError::Corrupt("MSHR file holds more entries than its capacity"));
        }
        Ok(Self { entries, capacity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_release() {
        let mut m: Mshr<u32> = Mshr::new(4);
        m.alloc(10, 1);
        assert!(m.contains(10));
        *m.get_mut(10).unwrap() += 5;
        assert_eq!(m.release(10), Some(6));
        assert!(!m.contains(10));
    }

    #[test]
    fn room_accounting() {
        let mut m: Mshr<()> = Mshr::new(2);
        assert!(m.has_room());
        m.alloc(1, ());
        m.alloc(2, ());
        assert!(!m.has_room());
        m.release(1);
        assert!(m.has_room());
    }

    #[test]
    #[should_panic(expected = "duplicate MSHR")]
    fn duplicate_alloc_panics() {
        let mut m: Mshr<()> = Mshr::new(4);
        m.alloc(1, ());
        m.alloc(1, ());
    }

    #[test]
    #[should_panic(expected = "MSHR overflow")]
    fn overflow_panics() {
        let mut m: Mshr<()> = Mshr::new(1);
        m.alloc(1, ());
        m.alloc(2, ());
    }

    /// Image of an MSHR file of `capacity` holding `blocks` in the
    /// given order, with payload `block as u8`.
    fn image(blocks: &[u64], capacity: usize) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.len_prefix(blocks.len());
        for &b in blocks {
            b.save(&mut w);
            (b as u8).save(&mut w);
        }
        capacity.save(&mut w);
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<Mshr<u8>, SnapError> {
        let mut r = SnapReader::new(bytes);
        let m = Mshr::load(&mut r)?;
        r.finish()?;
        Ok(m)
    }

    fn expect_corrupt(bytes: &[u8], why: &str) {
        match load(bytes) {
            Err(e @ SnapError::Corrupt(_)) => assert!(e.to_string().contains(why), "{e}"),
            Err(e) => panic!("expected a corrupt-snapshot error naming {why:?}, got {e}"),
            Ok(_) => panic!("a corrupt MSHR image was accepted ({why})"),
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let mut m: Mshr<u8> = Mshr::new(4);
        for b in [9u64, 2, 5] {
            m.alloc(b, b as u8);
        }
        let mut w = SnapWriter::new();
        m.save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes, image(&[2, 5, 9], 4));
        let back = load(&bytes).expect("pristine image");
        let entries: Vec<(u64, u8)> = back.iter().map(|(b, e)| (*b, *e)).collect();
        assert_eq!(entries, vec![(2, 2), (5, 5), (9, 9)]);
        assert!(back.has_room());
    }

    #[test]
    fn zero_capacity_is_refused() {
        expect_corrupt(&image(&[], 0), "no capacity");
    }

    #[test]
    fn more_entries_than_capacity_are_refused() {
        expect_corrupt(&image(&[1, 2, 3], 2), "more entries than its capacity");
    }

    #[test]
    fn unsorted_or_repeated_blocks_are_refused() {
        expect_corrupt(&image(&[3, 1], 4), "out of order or repeated");
        expect_corrupt(&image(&[3, 3], 4), "out of order or repeated");
    }

    #[test]
    fn iteration_is_address_ordered() {
        let mut m: Mshr<u8> = Mshr::new(8);
        for b in [5u64, 1, 9, 3] {
            m.alloc(b, b as u8);
        }
        let order: Vec<u64> = m.iter().map(|(b, _)| *b).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }
}
