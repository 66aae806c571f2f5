//! Dynamic energy model — paper §V-A and Figures 7/8.
//!
//! Per-access energies follow a CACTI-style square-root capacity law:
//! `E(structure) = E_ref * sqrt(bits / bits_ref)`, anchored at the L1
//! data array. Tag accesses therefore get *more expensive* in the DiCo
//! family (their tag entries embed the directory information) and L2
//! block reads cost more than L1 block reads — the two effects the
//! paper's Figure 8a analysis is built on.
//!
//! The network model is the paper's: routing one message consumes as
//! much energy as reading an L1 block, and four times as much as
//! transmitting one flit over one link.

use crate::structures::{all_structures, ChipGeometry, Structure};
use cmpsim_engine::metrics::{MetricSource, MetricsRegistry};
use cmpsim_engine::phase::EventCounts;
use cmpsim_noc::NocStats;
use cmpsim_protocols::{ProtoStats, ProtocolKind};

/// Reference energy of one L1 data-block read, in nanojoules. The
/// absolute value only scales the reports (every figure in the paper is
/// normalized); the *ratios* between structures are what matters.
pub const E_L1_BLOCK_READ_NJ: f64 = 0.10;

/// Cache-side dynamic energy, split by the Figure 8a categories (nJ).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheEnergy {
    /// L1 tag accesses (incl. embedded directory info).
    pub l1_tag: f64,
    /// L1 data reads + writes.
    pub l1_data: f64,
    /// L2 tag accesses (incl. embedded directory info).
    pub l2_tag: f64,
    /// L2 data reads + writes.
    pub l2_data: f64,
    /// Directory cache / L1C$ / L2C$ accesses.
    pub aux: f64,
}

impl CacheEnergy {
    /// Total cache energy (nJ).
    pub fn total(&self) -> f64 {
        self.l1_tag + self.l1_data + self.l2_tag + self.l2_data + self.aux
    }
}

impl MetricSource for CacheEnergy {
    fn publish(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.set_gauge(&format!("{prefix}.l1_tag_nj"), self.l1_tag);
        reg.set_gauge(&format!("{prefix}.l1_data_nj"), self.l1_data);
        reg.set_gauge(&format!("{prefix}.l2_tag_nj"), self.l2_tag);
        reg.set_gauge(&format!("{prefix}.l2_data_nj"), self.l2_data);
        reg.set_gauge(&format!("{prefix}.aux_nj"), self.aux);
        reg.set_gauge(&format!("{prefix}.total_nj"), self.total());
    }
}

/// Network dynamic energy, split by the Figure 8b categories (nJ).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkEnergy {
    /// Per-router message routing.
    pub routing: f64,
    /// Per-link flit transmission.
    pub links: f64,
}

impl NetworkEnergy {
    /// Total network energy (nJ).
    pub fn total(&self) -> f64 {
        self.routing + self.links
    }
}

impl MetricSource for NetworkEnergy {
    fn publish(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.set_gauge(&format!("{prefix}.routing_nj"), self.routing);
        reg.set_gauge(&format!("{prefix}.links_nj"), self.links);
        reg.set_gauge(&format!("{prefix}.total_nj"), self.total());
    }
}

/// Per-event energy table for one protocol/geometry.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    /// L1 tag+dir access energy (nJ).
    pub e_l1_tag: f64,
    /// L1 data access energy (nJ).
    pub e_l1_data: f64,
    /// L2 tag+dir access energy (nJ).
    pub e_l2_tag: f64,
    /// L2 data access energy (nJ).
    pub e_l2_data: f64,
    /// Directory-cache access energy (nJ).
    pub e_dir: f64,
    /// L1C$ access energy (nJ).
    pub e_l1c: f64,
    /// L2C$ access energy (nJ).
    pub e_l2c: f64,
    /// Per-router routing energy (nJ) — equals `e_l1_data` (paper rule).
    pub e_route: f64,
    /// Per-flit-per-link energy (nJ) — a quarter of `e_route`.
    pub e_flit: f64,
}

fn find<'a>(v: &'a [Structure], name: &str) -> Option<&'a Structure> {
    v.iter().find(|s| s.name == name)
}

impl EnergyModel {
    /// Builds the model for `kind` on a `cores`-core, `areas`-area chip.
    pub fn new(kind: ProtocolKind, cores: u64, areas: u64) -> Self {
        let g = ChipGeometry::paper(cores, areas);
        let v = all_structures(kind, &g);
        let ref_bits = find(&v, "L1 data").expect("L1 data").bits() as f64;
        let e = |bits: f64| E_L1_BLOCK_READ_NJ * (bits / ref_bits).sqrt();

        // Tag accesses read the tag entry plus any embedded coherence
        // info of the same array level.
        let l1_tag_bits = find(&v, "L1 tags").map(|s| s.bits()).unwrap_or(0)
            + v.iter().filter(|s| s.name == "L1 dir. inf.").map(|s| s.bits()).sum::<u64>();
        let l2_tag_bits = find(&v, "L2 tags").map(|s| s.bits()).unwrap_or(0)
            + v.iter().filter(|s| s.name == "L2 dir. inf.").map(|s| s.bits()).sum::<u64>();
        let e_l1_data = e(find(&v, "L1 data").unwrap().bits() as f64);
        Self {
            e_l1_tag: e(l1_tag_bits as f64),
            e_l1_data,
            e_l2_tag: e(l2_tag_bits as f64),
            e_l2_data: e(find(&v, "L2 data").unwrap().bits() as f64),
            e_dir: find(&v, "Dir. cache").map(|s| e(s.bits() as f64)).unwrap_or(0.0),
            e_l1c: find(&v, "L1C$").map(|s| e(s.bits() as f64)).unwrap_or(0.0),
            e_l2c: find(&v, "L2C$").map(|s| e(s.bits() as f64)).unwrap_or(0.0),
            e_route: e_l1_data,
            e_flit: e_l1_data / 4.0,
        }
    }

    /// Cache-side energy of a run's event counts.
    pub fn cache_energy(&self, s: &ProtoStats) -> CacheEnergy {
        CacheEnergy {
            l1_tag: self.e_l1_tag * s.l1_tag.get() as f64,
            l1_data: self.e_l1_data * (s.l1_data_read.get() + s.l1_data_write.get()) as f64,
            l2_tag: self.e_l2_tag * s.l2_tag.get() as f64,
            l2_data: self.e_l2_data * (s.l2_data_read.get() + s.l2_data_write.get()) as f64,
            aux: self.e_dir * s.dir_access.get() as f64
                + self.e_l1c * s.l1c_access.get() as f64
                + self.e_l2c * s.l2c_access.get() as f64,
        }
    }

    /// Network energy of a run's traffic counts (paper model: route =
    /// L1 block read = 4 flit-links).
    pub fn network_energy(&self, n: &NocStats) -> NetworkEnergy {
        NetworkEnergy {
            routing: self.e_route * n.routing_events.get() as f64,
            links: self.e_flit * n.flit_link_traversals.get() as f64,
        }
    }

    /// Cache-side energy of attributed per-transaction event counts.
    ///
    /// Uses the same per-structure multiplications and summation order
    /// as [`cache_energy`](Self::cache_energy), so counts that sum to
    /// the aggregate [`ProtoStats`] counters produce a bit-identical
    /// total — the tiling invariant the attribution tests assert.
    pub fn counts_cache_energy(&self, c: &EventCounts) -> CacheEnergy {
        CacheEnergy {
            l1_tag: self.e_l1_tag * c.l1_tag as f64,
            l1_data: self.e_l1_data * c.l1_data as f64,
            l2_tag: self.e_l2_tag * c.l2_tag as f64,
            l2_data: self.e_l2_data * c.l2_data as f64,
            aux: self.e_dir * c.dir as f64 + self.e_l1c * c.l1c as f64 + self.e_l2c * c.l2c as f64,
        }
    }

    /// Network energy of attributed per-transaction event counts
    /// (mirrors [`network_energy`](Self::network_energy)).
    pub fn counts_network_energy(&self, c: &EventCounts) -> NetworkEnergy {
        NetworkEnergy {
            routing: self.e_route * c.routing as f64,
            links: self.e_flit * c.flit_links as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_engine::stats::Counter;

    #[test]
    fn paper_network_ratios() {
        let m = EnergyModel::new(ProtocolKind::Directory, 64, 4);
        assert!((m.e_route - m.e_l1_data).abs() < 1e-12);
        assert!((m.e_route / m.e_flit - 4.0).abs() < 1e-9);
    }

    #[test]
    fn counts_energy_matches_aggregate_energy() {
        // Attributed counts equal to the aggregate counters must yield a
        // bit-identical energy total (the tiling invariant).
        let m = EnergyModel::new(ProtocolKind::DiCo, 16, 4);
        let s = ProtoStats {
            l1_tag: Counter(101),
            l1_data_read: Counter(40),
            l1_data_write: Counter(13),
            l2_tag: Counter(77),
            l2_data_read: Counter(20),
            l2_data_write: Counter(5),
            l1c_access: Counter(31),
            l2c_access: Counter(64),
            ..Default::default()
        };
        let c = EventCounts {
            l1_tag: 101,
            l1_data: 53,
            l2_tag: 77,
            l2_data: 25,
            dir: 0,
            l1c: 31,
            l2c: 64,
            routing: 200,
            flit_links: 800,
        };
        assert_eq!(m.counts_cache_energy(&c).total(), m.cache_energy(&s).total());
        let n = NocStats {
            routing_events: Counter(200),
            flit_link_traversals: Counter(800),
            ..Default::default()
        };
        assert_eq!(m.counts_network_energy(&c).total(), m.network_energy(&n).total());
    }

    #[test]
    fn l2_reads_cost_more_than_l1() {
        let m = EnergyModel::new(ProtocolKind::Directory, 64, 4);
        assert!(m.e_l2_data > m.e_l1_data);
        // 8x the capacity -> sqrt(8) = 2.83x the energy.
        assert!((m.e_l2_data / m.e_l1_data - 8f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn dico_tags_cost_more_than_directory_tags() {
        // Paper Figure 8a: "tag accesses are more power consuming in
        // DiCo-based protocols than in the flat directory" (the L1 tags
        // carry the full-map); DiCo-Providers/Arin narrow the gap.
        let dir = EnergyModel::new(ProtocolKind::Directory, 64, 4);
        let dico = EnergyModel::new(ProtocolKind::DiCo, 64, 4);
        let prov = EnergyModel::new(ProtocolKind::DiCoProviders, 64, 4);
        let arin = EnergyModel::new(ProtocolKind::DiCoArin, 64, 4);
        assert!(dico.e_l1_tag > dir.e_l1_tag);
        assert!(prov.e_l1_tag < dico.e_l1_tag);
        assert!(arin.e_l1_tag < prov.e_l1_tag);
        // L2 tags are smaller in DiCo-Providers and smaller still in
        // DiCo-Arin (paper §V-C).
        assert!(prov.e_l2_tag < dir.e_l2_tag);
        assert!(arin.e_l2_tag < prov.e_l2_tag);
    }

    #[test]
    fn energy_accumulates_linearly() {
        let m = EnergyModel::new(ProtocolKind::DiCo, 64, 4);
        let s = ProtoStats {
            l1_tag: Counter(10),
            l1_data_read: Counter(4),
            l1_data_write: Counter(6),
            ..Default::default()
        };
        let e = m.cache_energy(&s);
        assert!((e.l1_tag - 10.0 * m.e_l1_tag).abs() < 1e-12);
        assert!((e.l1_data - 10.0 * m.e_l1_data).abs() < 1e-12);
        assert!(e.l2_tag == 0.0 && e.l2_data == 0.0);
        assert!(e.total() > 0.0);
    }

    #[test]
    fn network_energy_counts() {
        let m = EnergyModel::new(ProtocolKind::DiCo, 64, 4);
        let n = NocStats {
            routing_events: Counter(8),
            flit_link_traversals: Counter(40),
            ..Default::default()
        };
        let e = m.network_energy(&n);
        assert!((e.routing - 8.0 * m.e_route).abs() < 1e-12);
        assert!((e.links - 40.0 * m.e_flit).abs() < 1e-12);
        // 5-flit data packets: links = 40 flit-links over 8 hops means
        // link energy exceeds routing energy by 5/4.
        assert!((e.links / e.routing - 1.25).abs() < 1e-9);
    }

    #[test]
    fn directory_has_no_coherence_caches() {
        let m = EnergyModel::new(ProtocolKind::Directory, 64, 4);
        assert_eq!(m.e_l1c, 0.0);
        assert_eq!(m.e_l2c, 0.0);
        assert!(m.e_dir > 0.0);
    }
}
