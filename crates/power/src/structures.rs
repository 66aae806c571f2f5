//! Per-tile SRAM structure inventory for each protocol.
//!
//! Bit counts follow §V-B of the paper exactly: 40-bit physical
//! addresses, 64-byte blocks, 128 KiB 4-way L1 (L1Tag = 25 bits), 1 MiB
//! 8-way L2 banks (L2Tag = 17 bits), 2048-entry auxiliary structures
//! (DirTag = 17, L1CTag = 23, L2CTag = 17 bits), `GenPo = log2(ntc)`,
//! `ProPo = log2(nta)`.

use cmpsim_protocols::ProtocolKind;

/// What a structure stores — leakage calibration and per-access energy
/// distinguish data arrays from tag-side structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureClass {
    /// Block data array.
    Data,
    /// Address tags.
    Tag,
    /// Coherence information (sharing codes, pointers, valid bits).
    Coherence,
}

/// One SRAM structure in a tile.
#[derive(Debug, Clone)]
pub struct Structure {
    /// Report name.
    pub name: &'static str,
    /// Bits per entry.
    pub entry_bits: u64,
    /// Entries.
    pub entries: u64,
    /// Classification.
    pub class: StructureClass,
}

impl Structure {
    /// Total bits.
    pub fn bits(&self) -> u64 {
        self.entry_bits * self.entries
    }

    /// Total size in KiB.
    pub fn kib(&self) -> f64 {
        self.bits() as f64 / 8.0 / 1024.0
    }
}

/// Chip geometry parameters for the analytic models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipGeometry {
    /// Total cores/tiles (`ntc`).
    pub cores: u64,
    /// Number of areas (`na`).
    pub areas: u64,
    /// L1 entries per tile.
    pub l1_entries: u64,
    /// L2 entries per bank.
    pub l2_entries: u64,
    /// Entries of each auxiliary structure (dir cache, L1C$, L2C$).
    pub aux_entries: u64,
}

impl ChipGeometry {
    /// Paper configuration for a given core and area count (per-tile
    /// cache sizes are fixed; only pointer widths change).
    pub fn paper(cores: u64, areas: u64) -> Self {
        assert!(areas >= 1 && cores.is_multiple_of(areas), "areas must divide cores");
        Self { cores, areas, l1_entries: 2048, l2_entries: 16384, aux_entries: 2048 }
    }

    /// Tiles per area (`nta`).
    pub fn tiles_per_area(&self) -> u64 {
        self.cores / self.areas
    }

    /// `GenPo` width: `log2(ntc)`.
    pub fn genpo_bits(&self) -> u64 {
        self.cores.next_power_of_two().trailing_zeros() as u64
    }

    /// `ProPo` width: `log2(nta)`.
    pub fn propo_bits(&self) -> u64 {
        self.tiles_per_area().next_power_of_two().trailing_zeros() as u64
    }

    /// `log2(na)`.
    pub fn area_id_bits(&self) -> u64 {
        self.areas.next_power_of_two().trailing_zeros() as u64
    }
}

const BLOCK_BITS: u64 = 64 * 8;
const L1_TAG: u64 = 25;
const L2_TAG: u64 = 17;
const DIR_TAG: u64 = 17;
const L1C_TAG: u64 = 23;
const L2C_TAG: u64 = 17;

/// The data + tag structures common to every protocol.
fn base_structures(g: &ChipGeometry) -> Vec<Structure> {
    vec![
        Structure {
            name: "L1 data",
            entry_bits: BLOCK_BITS,
            entries: g.l1_entries,
            class: StructureClass::Data,
        },
        Structure {
            name: "L1 tags",
            entry_bits: L1_TAG,
            entries: g.l1_entries,
            class: StructureClass::Tag,
        },
        Structure {
            name: "L2 data",
            entry_bits: BLOCK_BITS,
            entries: g.l2_entries,
            class: StructureClass::Data,
        },
        Structure {
            name: "L2 tags",
            entry_bits: L2_TAG,
            entries: g.l2_entries,
            class: StructureClass::Tag,
        },
    ]
}

/// The coherence-information structures a protocol adds per tile
/// (paper Table V).
pub fn coherence_structures(kind: ProtocolKind, g: &ChipGeometry) -> Vec<Structure> {
    let n = g.cores;
    let nta = g.tiles_per_area();
    let na = g.areas;
    let genpo = g.genpo_bits();
    let propo = g.propo_bits();
    let l1c = Structure {
        name: "L1C$",
        entry_bits: L1C_TAG + genpo + 1,
        entries: g.aux_entries,
        class: StructureClass::Coherence,
    };
    let l2c = Structure {
        name: "L2C$",
        entry_bits: L2C_TAG + genpo + 1,
        entries: g.aux_entries,
        class: StructureClass::Coherence,
    };
    match kind {
        ProtocolKind::Directory => vec![
            Structure {
                name: "L2 dir. inf.",
                entry_bits: n,
                entries: g.l2_entries,
                class: StructureClass::Coherence,
            },
            Structure {
                name: "Dir. cache",
                entry_bits: DIR_TAG + n + genpo,
                entries: g.aux_entries,
                class: StructureClass::Coherence,
            },
        ],
        ProtocolKind::DiCo => vec![
            Structure {
                name: "L1 dir. inf.",
                entry_bits: n,
                entries: g.l1_entries,
                class: StructureClass::Coherence,
            },
            Structure {
                name: "L2 dir. inf.",
                entry_bits: n,
                entries: g.l2_entries,
                class: StructureClass::Coherence,
            },
            l1c,
            l2c,
        ],
        ProtocolKind::DiCoProviders => vec![
            // Own-area bit-vector + one (ProPo + valid) per remote area.
            Structure {
                name: "L1 dir. inf.",
                entry_bits: nta + (na - 1) * (propo + 1),
                entries: g.l1_entries,
                class: StructureClass::Coherence,
            },
            // One (ProPo + valid) per area at the home.
            Structure {
                name: "L2 dir. inf.",
                entry_bits: na * (propo + 1),
                entries: g.l2_entries,
                class: StructureClass::Coherence,
            },
            l1c,
            l2c,
        ],
        ProtocolKind::DiCoArin => vec![
            // Own-area bit-vector only.
            Structure {
                name: "L1 dir. inf.",
                entry_bits: nta,
                entries: g.l1_entries,
                class: StructureClass::Coherence,
            },
            // Either the area sharing code + area id, or the ProPos —
            // never both, so only the larger is provisioned (§V-B).
            Structure {
                name: "L2 dir. inf.",
                entry_bits: (nta + g.area_id_bits()).max(na * propo),
                entries: g.l2_entries,
                class: StructureClass::Coherence,
            },
            l1c,
            l2c,
        ],
    }
}

/// Every structure in a tile (data + tags + coherence info).
pub fn all_structures(kind: ProtocolKind, g: &ChipGeometry) -> Vec<Structure> {
    let mut v = base_structures(g);
    v.extend(coherence_structures(kind, g));
    v
}

/// Bits of data storage per tile (denominator of the overhead metric).
pub fn data_bits(g: &ChipGeometry) -> u64 {
    base_structures(g).iter().map(|s| s.bits()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper64() -> ChipGeometry {
        ChipGeometry::paper(64, 4)
    }

    #[test]
    fn pointer_widths() {
        let g = paper64();
        assert_eq!(g.genpo_bits(), 6);
        assert_eq!(g.propo_bits(), 4);
        assert_eq!(g.area_id_bits(), 2);
        assert_eq!(g.tiles_per_area(), 16);
    }

    #[test]
    fn data_sizes_match_table_v() {
        let g = paper64();
        let base = base_structures(&g);
        // L1 cache: L1Tag (25 bits) + 64 bytes, 2048 entries = 134.25 KB.
        let l1: f64 = base.iter().filter(|s| s.name.starts_with("L1")).map(|s| s.kib()).sum();
        assert!((l1 - 134.25).abs() < 1e-9, "{l1}");
        // L2 cache: L2Tag (17 bits) + 64 bytes, 16384 entries = 1058 KB.
        let l2: f64 = base.iter().filter(|s| s.name.starts_with("L2")).map(|s| s.kib()).sum();
        assert!((l2 - 1058.0).abs() < 1e-9, "{l2}");
    }

    #[test]
    fn directory_structures_match_table_v() {
        let g = paper64();
        let cs = coherence_structures(ProtocolKind::Directory, &g);
        let total: f64 = cs.iter().map(|s| s.kib()).sum();
        // 128 KB (L2 dir inf) + 21.75 KB (dir cache).
        assert!((total - 149.75).abs() < 1e-9, "{total}");
    }

    #[test]
    fn dico_structures_match_table_v() {
        let g = paper64();
        let cs = coherence_structures(ProtocolKind::DiCo, &g);
        let total: f64 = cs.iter().map(|s| s.kib()).sum();
        // 16 + 128 + 7.5 + 6 KB.
        assert!((total - 157.5).abs() < 1e-9, "{total}");
    }

    #[test]
    fn providers_structures_match_table_v() {
        let g = paper64();
        let cs = coherence_structures(ProtocolKind::DiCoProviders, &g);
        let by_name = |n: &str| cs.iter().find(|s| s.name == n).unwrap().kib();
        // 2 bytes + 3 ProPos + 3 valid bits = 31 bits -> 7.75 KB.
        assert!((by_name("L1 dir. inf.") - 7.75).abs() < 1e-9);
        // 4 ProPos + 4 valid bits = 20 bits -> 40 KB.
        assert!((by_name("L2 dir. inf.") - 40.0).abs() < 1e-9);
        let total: f64 = cs.iter().map(|s| s.kib()).sum();
        assert!((total - 61.25).abs() < 1e-9, "{total}");
    }

    #[test]
    fn arin_structures_match_table_v() {
        let g = paper64();
        let cs = coherence_structures(ProtocolKind::DiCoArin, &g);
        let by_name = |n: &str| cs.iter().find(|s| s.name == n).unwrap().kib();
        // nta bits = 16 -> 4 KB.
        assert!((by_name("L1 dir. inf.") - 4.0).abs() < 1e-9);
        // max(16 + 2, 4*4) = 18 bits -> 36 KB.
        assert!((by_name("L2 dir. inf.") - 36.0).abs() < 1e-9);
        let total: f64 = cs.iter().map(|s| s.kib()).sum();
        assert!((total - 53.5).abs() < 1e-9, "{total}");
    }

    #[test]
    fn aux_structures_shared_by_dico_family() {
        let g = paper64();
        for kind in [ProtocolKind::DiCo, ProtocolKind::DiCoProviders, ProtocolKind::DiCoArin] {
            let cs = coherence_structures(kind, &g);
            let l1c = cs.iter().find(|s| s.name == "L1C$").unwrap();
            let l2c = cs.iter().find(|s| s.name == "L2C$").unwrap();
            assert!((l1c.kib() - 7.5).abs() < 1e-9);
            assert!((l2c.kib() - 6.0).abs() < 1e-9);
        }
    }
}
