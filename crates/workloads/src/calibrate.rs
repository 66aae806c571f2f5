//! Empirical calibration: measure what a [`CoreStream`]
//! actually produces — region mix, write fraction, block-level reuse,
//! footprint — so the profile knobs can be validated against the
//! characteristics the paper reports (Table IV and the §V-C workload
//! classification) instead of trusted blindly.

use crate::profile::WorkloadProfile;
use crate::stream::CoreStream;
use cmpsim_engine::SimRng;
use cmpsim_virt::Region;
use std::collections::BTreeSet;

/// Empirical summary of `n` references from one core's stream.
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// References measured.
    pub refs: u64,
    /// Fraction of accesses per region `[private, vm_shared, dedup]`.
    pub region_frac: [f64; 3],
    /// Overall write fraction.
    pub write_frac: f64,
    /// Distinct 64-byte blocks touched.
    pub distinct_blocks: u64,
    /// Mean consecutive references hitting the same block.
    pub mean_run: f64,
    /// Fraction of block transitions that continue sequentially.
    pub seq_frac: f64,
}

impl StreamStats {
    /// Measures `refs` references of `profile` for one core.
    pub fn measure(profile: &'static WorkloadProfile, refs: u64, seed: u64) -> Self {
        let mut s = CoreStream::new(profile, 0, SimRng::new(seed));
        let mut region_counts = [0u64; 3];
        let mut writes = 0u64;
        let mut distinct: BTreeSet<(u8, u64, u64)> = BTreeSet::new();
        let mut runs = 0u64;
        let mut transitions = 0u64;
        let mut seq = 0u64;
        let mut last: Option<(u8, u64, u64)> = None;
        for _ in 0..refs {
            let r = s.next_ref();
            let region_idx = match r.region {
                Region::CorePrivate => 0u8,
                Region::VmShared => 1,
                Region::Dedup => 2,
            };
            region_counts[region_idx as usize] += 1;
            if r.is_write {
                writes += 1;
            }
            let key = (region_idx, r.page_index, r.block_in_page);
            distinct.insert(key);
            match last {
                Some(prev) if prev == key => {}
                Some((pr, pp, pb)) => {
                    runs += 1;
                    transitions += 1;
                    if pr == region_idx && pp == r.page_index && r.block_in_page == pb + 1 {
                        seq += 1;
                    }
                }
                None => runs += 1,
            }
            last = Some(key);
        }
        Self {
            refs,
            region_frac: region_counts.map(|c| c as f64 / refs as f64),
            write_frac: writes as f64 / refs as f64,
            distinct_blocks: distinct.len() as u64,
            mean_run: refs as f64 / runs.max(1) as f64,
            seq_frac: seq as f64 / transitions.max(1) as f64,
        }
    }

    /// Approximate per-core cache footprint in bytes (distinct blocks x
    /// 64 B) for the measured window.
    pub fn footprint_bytes(&self) -> u64 {
        self.distinct_blocks * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{APACHE, JBB, LU, RADIX, TOMCATV, VOLREND};

    const N: u64 = 120_000;

    #[test]
    fn region_mix_matches_profiles() {
        for p in [&APACHE, &JBB, &RADIX, &LU, &VOLREND, &TOMCATV] {
            let s = StreamStats::measure(p, N, 11);
            assert!(
                (s.region_frac[1] - p.p_vm_shared).abs() < 0.03,
                "{}: shared {:.3} vs {:.3}",
                p.name,
                s.region_frac[1],
                p.p_vm_shared
            );
            assert!(
                (s.region_frac[2] - p.p_dedup).abs() < 0.03,
                "{}: dedup {:.3} vs {:.3}",
                p.name,
                s.region_frac[2],
                p.p_dedup
            );
        }
    }

    #[test]
    fn block_reuse_tracks_block_repeats() {
        for p in [&APACHE, &JBB, &RADIX] {
            let s = StreamStats::measure(p, N, 5);
            // mean_run is a draw from 1..2m, so its mean is ~m (+1/2).
            let m = p.block_repeats as f64;
            assert!(
                s.mean_run > 0.6 * m && s.mean_run < 1.6 * m,
                "{}: mean run {:.2} vs target {m}",
                p.name,
                s.mean_run
            );
        }
    }

    #[test]
    fn l1_classification_holds_empirically() {
        // L2-power-dominated workloads overflow the 128 KiB L1 per core;
        // the scientific codes fit comfortably.
        let l1 = 128 * 1024;
        for p in [&APACHE, &JBB] {
            let s = StreamStats::measure(p, N, 7);
            assert!(
                s.footprint_bytes() > l1,
                "{} footprint {} must exceed the L1",
                p.name,
                s.footprint_bytes()
            );
        }
        for p in [&RADIX, &LU, &VOLREND] {
            let s = StreamStats::measure(p, N, 7);
            assert!(
                s.footprint_bytes() < 4 * l1,
                "{} footprint {} should be L1-class",
                p.name,
                s.footprint_bytes()
            );
        }
    }

    #[test]
    fn jbb_has_the_largest_footprint() {
        let jbb = StreamStats::measure(&JBB, N, 3).footprint_bytes();
        for p in [&APACHE, &RADIX, &LU, &VOLREND, &TOMCATV] {
            let f = StreamStats::measure(p, N, 3).footprint_bytes();
            assert!(jbb > f, "jbb {jbb} vs {} {f}", p.name);
        }
    }

    #[test]
    fn write_fractions_are_profile_weighted() {
        let vol = StreamStats::measure(&VOLREND, N, 9);
        let tom = StreamStats::measure(&TOMCATV, N, 9);
        // Volrend is read-dominated; tomcatv is the most write-heavy.
        assert!(vol.write_frac < 0.10, "{}", vol.write_frac);
        assert!(tom.write_frac > 0.25, "{}", tom.write_frac);
        assert!(tom.write_frac > vol.write_frac);
    }

    #[test]
    fn sequential_locality_ranks_streaming_codes_high() {
        let tom = StreamStats::measure(&TOMCATV, N, 13).seq_frac;
        let jbb = StreamStats::measure(&JBB, N, 13).seq_frac;
        assert!(tom > jbb, "tomcatv {tom:.3} vs jbb {jbb:.3}");
    }
}
