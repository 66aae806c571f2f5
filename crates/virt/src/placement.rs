//! VM-to-tile placement policies.
//!
//! The paper's default configuration schedules each VM onto the tiles of
//! one area ([`Placement::Matched`]). The alternative configuration of
//! Figure 6 ([`Placement::Alternative`]) shifts every VM half an area to
//! the right, so each VM straddles two areas — the stress case for
//! DiCo-Arin, where formerly VM-private read/write data becomes "shared
//! between areas" and is invalidated by broadcast.

use crate::area::AreaMap;

/// How VMs are scheduled onto tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Each VM runs exactly on the tiles of one area (paper default).
    Matched,
    /// Each VM's tile rectangle is shifted by half an area width, so every
    /// VM spans two areas (paper Figure 6, "-alt" results).
    Alternative,
}

impl Placement {
    /// The VM that `tile` belongs to, for `num_vms` VMs on `areas`.
    ///
    /// VM count must equal the area count (the paper's configuration: one
    /// 16-core VM per 16-tile area, 4 VMs on 64 tiles).
    pub fn vm_of_tile(&self, areas: &AreaMap, num_vms: usize, tile: usize) -> usize {
        // A single VM spanning the whole chip (the paper's §III
        // "application uses all the cores" scenario) is always legal.
        if num_vms == 1 {
            return 0;
        }
        assert_eq!(num_vms, areas.num_areas(), "one VM per area is assumed");
        match self {
            Placement::Matched => areas.area_of(tile),
            Placement::Alternative => {
                // Shift the VM pattern left by half an area width: tile
                // (x, y) belongs to the VM whose matched rectangle covers
                // (x + area_cols/2 mod cols, y).
                let shift = (areas.area_cols / 2).max(1);
                let x = tile % areas.cols;
                let y = tile / areas.cols;
                let sx = (x + shift) % areas.cols;
                areas.area_of(y * areas.cols + sx)
            }
        }
    }

    /// All tiles of `vm`, ascending.
    pub fn tiles_of_vm(&self, areas: &AreaMap, num_vms: usize, vm: usize) -> Vec<usize> {
        (0..areas.tiles()).filter(|&t| self.vm_of_tile(areas, num_vms, t) == vm).collect()
    }

    /// Suffix used by the evaluation reports ("" or "-alt").
    pub fn suffix(&self) -> &'static str {
        match self {
            Placement::Matched => "",
            Placement::Alternative => "-alt",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> AreaMap {
        AreaMap::new(8, 8, 4)
    }

    #[test]
    fn matched_equals_areas() {
        let a = paper();
        for t in 0..64 {
            assert_eq!(Placement::Matched.vm_of_tile(&a, 4, t), a.area_of(t));
        }
    }

    #[test]
    fn every_vm_gets_equal_share() {
        let a = paper();
        for p in [Placement::Matched, Placement::Alternative] {
            let mut counts = [0usize; 4];
            for t in 0..64 {
                counts[p.vm_of_tile(&a, 4, t)] += 1;
            }
            assert_eq!(counts, [16, 16, 16, 16], "{p:?}");
        }
    }

    #[test]
    fn alternative_straddles_areas() {
        let a = paper();
        let p = Placement::Alternative;
        for vm in 0..4 {
            let tiles = p.tiles_of_vm(&a, 4, vm);
            let mut areas_used: Vec<usize> = tiles.iter().map(|&t| a.area_of(t)).collect();
            areas_used.sort_unstable();
            areas_used.dedup();
            assert!(areas_used.len() >= 2, "vm {vm} must span >= 2 areas, got {areas_used:?}");
        }
    }

    #[test]
    fn matched_never_straddles() {
        let a = paper();
        let p = Placement::Matched;
        for vm in 0..4 {
            let tiles = p.tiles_of_vm(&a, 4, vm);
            assert!(tiles.iter().all(|&t| a.area_of(t) == vm));
            assert_eq!(tiles.len(), 16);
        }
    }

    #[test]
    fn tiles_of_vm_inverse_of_vm_of_tile() {
        let a = paper();
        for p in [Placement::Matched, Placement::Alternative] {
            for vm in 0..4 {
                for t in p.tiles_of_vm(&a, 4, vm) {
                    assert_eq!(p.vm_of_tile(&a, 4, t), vm);
                }
            }
        }
    }

    #[test]
    fn single_vm_spans_chip() {
        let a = paper();
        for p in [Placement::Matched, Placement::Alternative] {
            for t in 0..64 {
                assert_eq!(p.vm_of_tile(&a, 1, t), 0);
            }
            assert_eq!(p.tiles_of_vm(&a, 1, 0).len(), 64);
        }
    }

    #[test]
    fn suffixes() {
        assert_eq!(Placement::Matched.suffix(), "");
        assert_eq!(Placement::Alternative.suffix(), "-alt");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn area_counts() -> impl Strategy<Value = usize> {
        prop::sample::select(vec![1usize, 2, 4, 8, 16, 32, 64])
    }

    proptest! {
        /// Both placements partition the chip into equal VM shares for
        /// every legal area count.
        #[test]
        fn placements_partition_equally(num in area_counts()) {
            let a = AreaMap::new(8, 8, num);
            for p in [Placement::Matched, Placement::Alternative] {
                let mut counts = vec![0usize; num];
                for t in 0..64 {
                    counts[p.vm_of_tile(&a, num, t)] += 1;
                }
                prop_assert!(counts.iter().all(|&c| c == 64 / num), "{:?} {:?}", p, counts);
            }
        }

        /// tiles_of_vm is the exact preimage of vm_of_tile.
        #[test]
        fn tiles_of_vm_is_preimage(num in area_counts(), vm_sel in 0usize..64) {
            let a = AreaMap::new(8, 8, num);
            let vm = vm_sel % num;
            for p in [Placement::Matched, Placement::Alternative] {
                for t in p.tiles_of_vm(&a, num, vm) {
                    prop_assert_eq!(p.vm_of_tile(&a, num, t), vm);
                }
            }
        }
    }
}
