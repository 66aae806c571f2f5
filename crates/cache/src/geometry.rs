//! Cache geometry: sizes, associativity and address slicing.

/// Geometry of one set-associative structure.
///
/// `sets` must be a power of two so that index extraction is a mask.
/// `index_shift` drops low address bits before indexing — bank-level
/// structures in a home-interleaved chip must not index with the same
/// bits that select the bank, or each bank would only ever touch
/// `1/ntiles` of its sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Low block-address bits skipped before set indexing.
    pub index_shift: u32,
}

/// Largest `sets × ways` an outside input may declare. Far above any
/// modelled structure (the paper's L2 bank has 16 Ki entries); it stops
/// a corrupt geometry from reserving an absurd amount of memory.
const MAX_ENTRIES: usize = 1 << 24;

impl Geometry {
    /// Builds a geometry, checking the power-of-two constraint.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two, got {sets}");
        assert!(ways >= 1, "at least one way required");
        Self { sets, ways, index_shift: 0 }
    }

    /// Same geometry, skipping `shift` low bits before indexing (for
    /// structures private to one home bank of a `2^shift`-tile chip).
    pub fn with_shift(self, shift: u32) -> Self {
        Self { index_shift: shift, ..self }
    }

    /// Geometry from a total capacity in entries and an associativity.
    pub fn from_entries(entries: usize, ways: usize) -> Self {
        assert!(entries.is_multiple_of(ways), "entries {entries} not divisible by ways {ways}");
        Self::new(entries / ways, ways)
    }

    /// Geometry of a cache given capacity in bytes, block size and ways —
    /// e.g. the paper's L1: 128 KiB, 64-byte blocks, 4 ways -> 512 sets.
    pub fn from_capacity(bytes: usize, block_bytes: usize, ways: usize) -> Self {
        let entries = bytes / block_bytes;
        Self::from_entries(entries, ways)
    }

    /// True when an array can be built at this geometry and restored
    /// from a snapshot: power-of-two sets, at least one way, an index
    /// shift below 64 and at most 2^24 entries. Geometry read from
    /// outside input (a snapshot image, a replay artifact) is checked
    /// with this before anything is allocated.
    pub fn in_range(&self) -> bool {
        self.sets.is_power_of_two()
            && self.ways >= 1
            && self.index_shift < u64::BITS
            && self.sets.checked_mul(self.ways).is_some_and(|n| n <= MAX_ENTRIES)
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for a block address.
    #[inline]
    pub fn index(&self, block: u64) -> usize {
        ((block >> self.index_shift) as usize) & (self.sets - 1)
    }

    /// Tag for a block address (bits above the index).
    #[inline]
    pub fn tag(&self, block: u64) -> u64 {
        block >> self.sets.trailing_zeros()
    }
}

cmpsim_engine::impl_snap!(Geometry { sets, ways, index_shift });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry() {
        // 128KB, 4-way, 64B blocks -> 2048 entries, 512 sets.
        let g = Geometry::from_capacity(128 * 1024, 64, 4);
        assert_eq!(g.entries(), 2048);
        assert_eq!(g.sets, 512);
        assert_eq!(g.ways, 4);
    }

    #[test]
    fn paper_l2_geometry() {
        // 1MB bank, 8-way, 64B blocks -> 16384 entries, 2048 sets.
        let g = Geometry::from_capacity(1024 * 1024, 64, 8);
        assert_eq!(g.entries(), 16384);
        assert_eq!(g.sets, 2048);
    }

    #[test]
    fn index_and_tag_partition_address() {
        let g = Geometry::new(512, 4);
        for block in [0u64, 1, 511, 512, 513, 0xdead_beef] {
            let rebuilt = (g.tag(block) << 9) | g.index(block) as u64;
            assert_eq!(rebuilt, block);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        Geometry::new(100, 4);
    }

    #[test]
    fn shifted_index_skips_bank_bits() {
        // 64-tile chip: blocks of home bank 3 are 3, 67, 131, ...
        let g = Geometry::new(8, 1).with_shift(6);
        let idxs: Vec<usize> = (0..8u64).map(|k| g.index(3 + 64 * k)).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn index_distributes() {
        let g = Geometry::new(8, 1);
        let idxs: Vec<usize> = (0..16u64).map(|b| g.index(b)).collect();
        assert_eq!(&idxs[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(&idxs[8..], &[0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
