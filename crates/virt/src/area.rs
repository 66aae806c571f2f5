//! Static division of the chip into areas.
//!
//! An area is a rectangular subset of tiles, hard-wired at design time
//! (paper §III). Coherence information in DiCo-Providers/DiCo-Arin is kept
//! per area: `ProPo` pointers are `log2(tiles_per_area)` bits wide and
//! sharer bit-vectors cover only the local area.

/// Rectangular tiling of a `cols x rows` mesh into `na` equal areas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaMap {
    /// Mesh width, tiles.
    pub cols: usize,
    /// Mesh height, tiles.
    pub rows: usize,
    /// Area width, tiles.
    pub area_cols: usize,
    /// Area height, tiles.
    pub area_rows: usize,
}

impl AreaMap {
    /// Divides a mesh into `num_areas` near-square rectangular areas.
    ///
    /// `num_areas` must divide the tile count; areas are arranged on a
    /// grid of `gx x gy` area slots where `gx * gy == num_areas` and the
    /// slot aspect ratio is as square as possible (e.g. 8x8 mesh, 4 areas
    /// -> 2x2 grid of 4x4-tile areas, as in the paper).
    pub fn new(cols: usize, rows: usize, num_areas: usize) -> Self {
        assert!(
            num_areas >= 1 && (cols * rows).is_multiple_of(num_areas),
            "areas must tile the chip"
        );
        // Choose the grid factorization gx*gy == num_areas whose areas are
        // most square, requiring gx | cols and gy | rows.
        let mut best: Option<(usize, usize)> = None;
        for gx in 1..=num_areas {
            if !num_areas.is_multiple_of(gx) {
                continue;
            }
            let gy = num_areas / gx;
            if !cols.is_multiple_of(gx) || !rows.is_multiple_of(gy) {
                continue;
            }
            let (ac, ar) = (cols / gx, rows / gy);
            let score = (ac as i64 - ar as i64).abs();
            if best.is_none() || score < (best.unwrap().0 as i64 - best.unwrap().1 as i64).abs() {
                best = Some((ac, ar));
            }
        }
        let (area_cols, area_rows) =
            best.unwrap_or_else(|| panic!("cannot tile {cols}x{rows} into {num_areas} areas"));
        Self { cols, rows, area_cols, area_rows }
    }

    /// Total tiles.
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Number of areas.
    pub fn num_areas(&self) -> usize {
        self.tiles() / self.tiles_per_area()
    }

    /// Tiles per area (`nta` in the paper).
    pub fn tiles_per_area(&self) -> usize {
        self.area_cols * self.area_rows
    }

    /// Areas per mesh row of areas.
    fn grid_cols(&self) -> usize {
        self.cols / self.area_cols
    }

    /// Area that `tile` belongs to.
    pub fn area_of(&self, tile: usize) -> usize {
        let x = tile % self.cols;
        let y = tile / self.cols;
        (y / self.area_rows) * self.grid_cols() + (x / self.area_cols)
    }

    /// Index of `tile` within its area, in `[0, tiles_per_area)`; this is
    /// what a `ProPo` pointer stores.
    pub fn local_index(&self, tile: usize) -> usize {
        let x = tile % self.cols;
        let y = tile / self.cols;
        (y % self.area_rows) * self.area_cols + (x % self.area_cols)
    }

    /// Tile with `local` index inside `area` (inverse of
    /// [`AreaMap::local_index`]).
    pub fn tile_in_area(&self, area: usize, local: usize) -> usize {
        let gx = area % self.grid_cols();
        let gy = area / self.grid_cols();
        let lx = local % self.area_cols;
        let ly = local / self.area_cols;
        (gy * self.area_rows + ly) * self.cols + gx * self.area_cols + lx
    }

    /// All tiles of `area`, in local-index order.
    pub fn tiles_of(&self, area: usize) -> Vec<usize> {
        (0..self.tiles_per_area()).map(|l| self.tile_in_area(area, l)).collect()
    }

    /// True when two tiles share an area.
    pub fn same_area(&self, a: usize, b: usize) -> bool {
        self.area_of(a) == self.area_of(b)
    }

    /// `log2(tiles_per_area)` — the ProPo width in bits.
    pub fn propo_bits(&self) -> u32 {
        (self.tiles_per_area() as u64).next_power_of_two().trailing_zeros()
    }

    /// `log2(tiles)` — the GenPo width in bits.
    pub fn genpo_bits(&self) -> u32 {
        (self.tiles() as u64).next_power_of_two().trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> AreaMap {
        AreaMap::new(8, 8, 4)
    }

    #[test]
    fn paper_areas_are_4x4_quadrants() {
        let a = paper();
        assert_eq!(a.tiles_per_area(), 16);
        assert_eq!(a.num_areas(), 4);
        assert_eq!((a.area_cols, a.area_rows), (4, 4));
        // Corners of the chip land in the four distinct areas.
        assert_eq!(a.area_of(0), 0);
        assert_eq!(a.area_of(7), 1);
        assert_eq!(a.area_of(56), 2);
        assert_eq!(a.area_of(63), 3);
    }

    #[test]
    fn local_index_roundtrips() {
        let a = paper();
        for tile in 0..64 {
            let area = a.area_of(tile);
            let local = a.local_index(tile);
            assert!(local < 16);
            assert_eq!(a.tile_in_area(area, local), tile);
        }
    }

    #[test]
    fn tiles_of_partitions_chip() {
        let a = paper();
        let mut seen = [false; 64];
        for area in 0..4 {
            for t in a.tiles_of(area) {
                assert!(!seen[t]);
                seen[t] = true;
                assert_eq!(a.area_of(t), area);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pointer_widths_match_paper() {
        let a = paper();
        assert_eq!(a.genpo_bits(), 6); // GenPo: 6 bits for 64 tiles
        assert_eq!(a.propo_bits(), 4); // ProPo: 4 bits for 16-tile areas
    }

    #[test]
    fn single_area_covers_chip() {
        let a = AreaMap::new(8, 8, 1);
        assert_eq!(a.tiles_per_area(), 64);
        for t in 0..64 {
            assert_eq!(a.area_of(t), 0);
            assert_eq!(a.local_index(t), t);
        }
    }

    #[test]
    fn per_tile_areas() {
        let a = AreaMap::new(8, 8, 64);
        assert_eq!(a.tiles_per_area(), 1);
        for t in 0..64 {
            assert_eq!(a.area_of(t), t);
            assert_eq!(a.local_index(t), 0);
        }
    }

    #[test]
    fn two_areas_split_vertically() {
        let a = AreaMap::new(8, 8, 2);
        assert_eq!(a.tiles_per_area(), 32);
        assert!(!a.same_area(0, 63));
    }

    #[test]
    fn sixteen_areas_on_8x8() {
        let a = AreaMap::new(8, 8, 16);
        assert_eq!(a.tiles_per_area(), 4);
        assert_eq!(a.propo_bits(), 2);
    }

    #[test]
    fn non_square_mesh() {
        let a = AreaMap::new(16, 8, 8);
        assert_eq!(a.tiles_per_area(), 16);
        let mut counts = [0usize; 8];
        for t in 0..128 {
            counts[a.area_of(t)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 16));
    }
}
