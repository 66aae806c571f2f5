//! Benchmark profiles calibrated to the paper's Table IV.

/// How the paper scores a benchmark (Table IV, "Performance Metric").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Transactions completed in a fixed cycle budget (bigger is better):
    /// apache, jbb, mixed-com.
    Throughput,
    /// Average execution time of all the VMs (smaller is better): the
    /// scientific codes and mixed-sci.
    ExecTime,
}

/// Statistical model of one benchmark running inside a VM.
///
/// Page pools are per VM: each of the VM's cores owns
/// `private_pages_per_core` pages, the VM's cores share
/// `vm_shared_pages` read-write pages, and all VMs share the
/// deduplicated pool (`dedup_pages` logical pages per VM, all backed by
/// the same physical pages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Display name.
    pub name: &'static str,
    /// Core-private pool size, pages.
    pub private_pages_per_core: u64,
    /// Intra-VM shared read-write pool size, pages.
    pub vm_shared_pages: u64,
    /// Deduplicated read-only pool size (per VM, logical), pages.
    pub dedup_pages: u64,
    /// Probability an access targets the VM-shared pool.
    pub p_vm_shared: f64,
    /// Probability an access targets the deduplicated pool.
    pub p_dedup: f64,
    /// Write fraction for core-private accesses.
    pub write_frac_private: f64,
    /// Write fraction for VM-shared accesses.
    pub write_frac_shared: f64,
    /// Write fraction for dedup accesses (tiny; each write takes a
    /// copy-on-write fault and un-deduplicates the page for that VM).
    pub write_frac_dedup: f64,
    /// Zipf exponent for page popularity within each pool.
    pub zipf: f64,
    /// Probability the next reference continues sequentially in the same
    /// page (spatial locality / streaming).
    pub spatial_locality: f64,
    /// Mean consecutive references to the same 64-byte block (word-level
    /// reuse within a cache line; first-order control of the L1 miss
    /// rate).
    pub block_repeats: u64,
    /// Blocks actually used per 4 KiB page (<= 64): densely-packed hot
    /// structures touch only part of each page, which controls the
    /// per-core cache footprint independently of the page-pool sizes
    /// (and therefore of the Table-IV deduplication ratios).
    pub page_span: u64,
    /// Mean non-memory cycles between references (in-order 2-way core).
    pub gap_mean: u64,
}

impl WorkloadProfile {
    /// Fraction of memory saved by deduplication when `num_vms` VMs map
    /// all their pools, assuming `cores_per_vm` cores per VM:
    /// `saved = (1 - 1/num_vms) * d / (c*p + s + d)`.
    pub fn dedup_savings(&self, cores_per_vm: u64, num_vms: u64) -> f64 {
        let logical =
            cores_per_vm * self.private_pages_per_core + self.vm_shared_pages + self.dedup_pages;
        let saved = self.dedup_pages as f64 * (1.0 - 1.0 / num_vms as f64);
        saved / logical as f64
    }

    /// Aggregate working set of one VM in bytes (all pools).
    pub fn vm_working_set_bytes(&self, cores_per_vm: u64) -> u64 {
        (cores_per_vm * self.private_pages_per_core + self.vm_shared_pages + self.dedup_pages)
            * cmpsim_virt::PAGE_BYTES
    }
}

/// Solve the dedup pool size so that `dedup_savings` hits `target` for
/// 4 VMs of 16 cores: `d = target * (c*p + s) / (0.75 - target)`.
const fn solve_dedup(cp_s: u64, target_permille: u64) -> u64 {
    // Integer arithmetic to stay const: d = cp_s * t / (750 - t).
    cp_s * target_permille / (750 - target_permille)
}

/// Web server with static contents: working set larger than L1, heavy
/// VM-shared (page cache) and dedup (static files, binaries) traffic.
/// L2-power-dominated; the paper's "most representative" benchmark.
pub const APACHE: WorkloadProfile = WorkloadProfile {
    name: "apache",
    private_pages_per_core: 24,
    vm_shared_pages: 64,
    dedup_pages: solve_dedup(16 * 24 + 64, 217),
    p_vm_shared: 0.30,
    p_dedup: 0.30,
    write_frac_private: 0.20,
    write_frac_shared: 0.10,
    write_frac_dedup: 0.0004,
    zipf: 1.00,
    spatial_locality: 0.50,
    block_repeats: 8,
    page_span: 24,
    gap_mean: 2,
};

/// Java server: huge working set, >40% L2 miss rate — the worst case for
/// DiCo-Arin (frequent L2 replacements of shared-between-areas blocks
/// trigger broadcasts). L2-power-dominated.
pub const JBB: WorkloadProfile = WorkloadProfile {
    name: "jbb",
    private_pages_per_core: 2048,
    vm_shared_pages: 4096,
    dedup_pages: solve_dedup(16 * 2048 + 4096, 239),
    p_vm_shared: 0.25,
    p_dedup: 0.12,
    write_frac_private: 0.25,
    write_frac_shared: 0.15,
    write_frac_dedup: 0.0004,
    zipf: 0.55,
    spatial_locality: 0.40,
    block_repeats: 4,
    page_span: 64,
    gap_mean: 2,
};

/// Integer sort: tiny working set, write-heavy, L1-power-dominated.
pub const RADIX: WorkloadProfile = WorkloadProfile {
    name: "radix",
    private_pages_per_core: 16,
    vm_shared_pages: 128,
    dedup_pages: solve_dedup(16 * 16 + 128, 242),
    p_vm_shared: 0.10,
    p_dedup: 0.05,
    write_frac_private: 0.35,
    write_frac_shared: 0.25,
    write_frac_dedup: 0.0002,
    zipf: 0.60,
    spatial_locality: 0.80,
    block_repeats: 12,
    page_span: 48,
    gap_mean: 3,
};

/// Dense-matrix factorization (512x512): small per-core tiles,
/// L1-power-dominated.
pub const LU: WorkloadProfile = WorkloadProfile {
    name: "lu",
    private_pages_per_core: 20,
    vm_shared_pages: 64,
    dedup_pages: solve_dedup(16 * 20 + 64, 327),
    p_vm_shared: 0.15,
    p_dedup: 0.05,
    write_frac_private: 0.25,
    write_frac_shared: 0.20,
    write_frac_dedup: 0.0002,
    zipf: 0.50,
    spatial_locality: 0.75,
    block_repeats: 12,
    page_span: 48,
    gap_mean: 3,
};

/// Ray-casting renderer: read-dominated, small working set,
/// L1-power-dominated.
pub const VOLREND: WorkloadProfile = WorkloadProfile {
    name: "volrend",
    private_pages_per_core: 24,
    vm_shared_pages: 96,
    dedup_pages: solve_dedup(16 * 24 + 96, 300),
    p_vm_shared: 0.12,
    p_dedup: 0.08,
    write_frac_private: 0.06,
    write_frac_shared: 0.04,
    write_frac_dedup: 0.0002,
    zipf: 0.70,
    spatial_locality: 0.60,
    block_repeats: 10,
    page_span: 48,
    gap_mean: 3,
};

/// Vectorized mesh generation: streaming row sweeps, moderate writes,
/// L1-power-dominated with the largest dedup share of the scientific
/// codes.
pub const TOMCATV: WorkloadProfile = WorkloadProfile {
    name: "tomcatv",
    private_pages_per_core: 28,
    vm_shared_pages: 64,
    dedup_pages: solve_dedup(16 * 28 + 64, 368),
    p_vm_shared: 0.08,
    p_dedup: 0.06,
    write_frac_private: 0.40,
    write_frac_shared: 0.20,
    write_frac_dedup: 0.0002,
    zipf: 0.30,
    spatial_locality: 0.85,
    block_repeats: 8,
    page_span: 64,
    gap_mean: 3,
};

/// The paper's eight benchmark configurations (Table IV). Each assigns a
/// profile to every VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// apache4x16p — 4 Apache VMs.
    Apache,
    /// jbb4x16p — 4 SPECjbb VMs.
    Jbb,
    /// radix4x16p — 4 radix VMs.
    Radix,
    /// lu4x16p — 4 lu VMs.
    Lu,
    /// volrend4x16p — 4 volrend VMs.
    Volrend,
    /// tomcatv4x16p — 4 tomcatv VMs.
    Tomcatv,
    /// mixed-com — 2 Apache VMs + 2 JBB VMs.
    MixedCom,
    /// mixed-sci — radix + lu + volrend + tomcatv, one VM each.
    MixedSci,
}

impl Benchmark {
    /// All eight configurations, in the paper's reporting order.
    pub fn all() -> [Benchmark; 8] {
        [
            Benchmark::Apache,
            Benchmark::Jbb,
            Benchmark::Radix,
            Benchmark::Lu,
            Benchmark::Volrend,
            Benchmark::Tomcatv,
            Benchmark::MixedCom,
            Benchmark::MixedSci,
        ]
    }

    /// Report name (matching Table IV).
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Apache => "apache4x16p",
            Benchmark::Jbb => "jbb4x16p",
            Benchmark::Radix => "radix4x16p",
            Benchmark::Lu => "lu4x16p",
            Benchmark::Volrend => "volrend4x16p",
            Benchmark::Tomcatv => "tomcatv4x16p",
            Benchmark::MixedCom => "mixed-com",
            Benchmark::MixedSci => "mixed-sci",
        }
    }

    /// The configuration whose [`name`](Self::name) matches `name`,
    /// ignoring ASCII case.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::all().into_iter().find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// The profile run by `vm` (of `num_vms`).
    pub fn profile_for_vm(&self, vm: usize, num_vms: usize) -> &'static WorkloadProfile {
        match self {
            Benchmark::Apache => &APACHE,
            Benchmark::Jbb => &JBB,
            Benchmark::Radix => &RADIX,
            Benchmark::Lu => &LU,
            Benchmark::Volrend => &VOLREND,
            Benchmark::Tomcatv => &TOMCATV,
            Benchmark::MixedCom => {
                if vm < num_vms / 2 {
                    &APACHE
                } else {
                    &JBB
                }
            }
            Benchmark::MixedSci => [&RADIX, &LU, &VOLREND, &TOMCATV][vm % 4],
        }
    }

    /// Performance metric class (Table IV).
    pub fn metric(&self) -> Metric {
        match self {
            Benchmark::Apache | Benchmark::Jbb | Benchmark::MixedCom => Metric::Throughput,
            _ => Metric::ExecTime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table IV, "Memory saved by deduplication".
    const TABLE_IV: [(&WorkloadProfile, f64); 5] =
        [(&APACHE, 0.2172), (&JBB, 0.2388), (&RADIX, 0.2418), (&LU, 0.3271), (&TOMCATV, 0.3682)];

    #[test]
    fn from_name_round_trips() {
        for b in Benchmark::all() {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
            assert_eq!(Benchmark::from_name(&b.name().to_lowercase()), Some(b));
        }
        assert_eq!(Benchmark::from_name("radix"), None);
    }

    #[test]
    fn dedup_savings_match_table_iv() {
        for (p, want) in TABLE_IV {
            let got = p.dedup_savings(16, 4);
            assert!((got - want).abs() < 0.01, "{}: savings {got:.4} vs paper {want:.4}", p.name);
        }
    }

    #[test]
    fn l1_dominated_fit_in_l1() {
        // Core-private working set below the 128 KiB L1 for the
        // scientific codes (32 pages = 128 KiB).
        for p in [&RADIX, &LU, &VOLREND, &TOMCATV] {
            assert!(p.private_pages_per_core <= 32, "{}", p.name);
        }
    }

    #[test]
    fn l2_dominated_exceed_l1() {
        // Per-core cache footprint (private pool + shared pools, at the
        // profile's page span) exceeds the 2048-line L1 for the
        // L2-power-dominated workloads.
        for p in [&APACHE, &JBB] {
            let blocks = (p.private_pages_per_core + p.vm_shared_pages + p.dedup_pages)
                * p.page_span.min(64);
            assert!(blocks > 2048, "{}: footprint {blocks} blocks", p.name);
        }
    }

    #[test]
    fn jbb_overflows_l2_share() {
        // One VM's share of the 64 MiB L2 is 16 MiB; JBB's VM working set
        // must exceed it (it is the >40% L2-miss-rate workload).
        assert!(JBB.vm_working_set_bytes(16) > 16 * 1024 * 1024);
        // ...while apache's fits comfortably.
        assert!(APACHE.vm_working_set_bytes(16) < 16 * 1024 * 1024);
    }

    #[test]
    fn probabilities_are_sane() {
        for p in [&APACHE, &JBB, &RADIX, &LU, &VOLREND, &TOMCATV] {
            assert!(p.p_vm_shared + p.p_dedup < 1.0, "{}", p.name);
            for w in [p.write_frac_private, p.write_frac_shared, p.write_frac_dedup] {
                assert!((0.0..=1.0).contains(&w), "{}", p.name);
            }
            assert!(p.write_frac_dedup < 0.001, "{}: dedup pages are ~read-only", p.name);
        }
    }

    #[test]
    fn mixed_assignments() {
        assert_eq!(Benchmark::MixedCom.profile_for_vm(0, 4).name, "apache");
        assert_eq!(Benchmark::MixedCom.profile_for_vm(1, 4).name, "apache");
        assert_eq!(Benchmark::MixedCom.profile_for_vm(2, 4).name, "jbb");
        assert_eq!(Benchmark::MixedCom.profile_for_vm(3, 4).name, "jbb");
        let names: Vec<&str> =
            (0..4).map(|vm| Benchmark::MixedSci.profile_for_vm(vm, 4).name).collect();
        assert_eq!(names, vec!["radix", "lu", "volrend", "tomcatv"]);
    }

    #[test]
    fn metrics_match_table_iv() {
        assert_eq!(Benchmark::Apache.metric(), Metric::Throughput);
        assert_eq!(Benchmark::Jbb.metric(), Metric::Throughput);
        assert_eq!(Benchmark::MixedCom.metric(), Metric::Throughput);
        assert_eq!(Benchmark::Radix.metric(), Metric::ExecTime);
        assert_eq!(Benchmark::MixedSci.metric(), Metric::ExecTime);
    }

    #[test]
    fn all_lists_eight() {
        let all = Benchmark::all();
        assert_eq!(all.len(), 8);
        let mut names: Vec<&str> = all.iter().map(|b| b.name()).collect();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
