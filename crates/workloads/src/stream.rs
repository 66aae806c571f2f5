//! Per-core reference stream generation.

use crate::profile::WorkloadProfile;
use cmpsim_engine::rng::{SimRng, Zipf};
use cmpsim_virt::{Region, BLOCKS_PER_PAGE};

/// One logical memory reference emitted by a core.
///
/// `page_index` is relative to the region's pool; the simulator combines
/// it with the core's VM to form a `cmpsim_virt::mem::LogicalPage` and
/// translates it to a physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalRef {
    /// Pool the access targets.
    pub region: Region,
    /// Page within the pool.
    pub page_index: u64,
    /// Block within the page.
    pub block_in_page: u64,
    /// Store (true) or load (false).
    pub is_write: bool,
    /// Non-memory cycles the core spends before issuing this reference.
    pub gap: u64,
}

/// Deterministic reference generator for one core.
#[derive(Debug, Clone)]
pub struct CoreStream {
    profile: &'static WorkloadProfile,
    core_in_vm: u64,
    rng: SimRng,
    /// Page-popularity samplers per pool. Their CDF tables are shared
    /// with every other stream over the same pool size and exponent.
    zipf_private: Zipf,
    zipf_shared: Zipf,
    zipf_dedup: Zipf,
    /// Sequential-run cursor for spatial locality.
    last: Option<(Region, u64, u64)>,
    /// Remaining references to the current block (word-level reuse).
    run_left: u64,
}

impl CoreStream {
    /// Builds the stream for core `core_in_vm` (0-based within its VM)
    /// running `profile`, seeded deterministically from `rng`.
    pub fn new(profile: &'static WorkloadProfile, core_in_vm: u64, rng: SimRng) -> Self {
        Self {
            zipf_private: Zipf::new(profile.private_pages_per_core.max(1) as usize, profile.zipf),
            zipf_shared: Zipf::new(profile.vm_shared_pages.max(1) as usize, profile.zipf),
            zipf_dedup: Zipf::new(profile.dedup_pages.max(1) as usize, profile.zipf),
            profile,
            core_in_vm,
            rng,
            last: None,
            run_left: 0,
        }
    }

    /// Profile driving this stream.
    pub fn profile(&self) -> &'static WorkloadProfile {
        self.profile
    }

    /// Draws the number of back-to-back references the next block will
    /// receive (geometric-ish around the profile mean; >= 1).
    fn draw_run(&mut self) -> u64 {
        let m = self.profile.block_repeats.max(1);
        1 + self.rng.gen_range(2 * m - 1)
    }

    /// Generates the next reference.
    pub fn next_ref(&mut self) -> LogicalRef {
        let p = self.profile;

        // Word-level reuse: keep hitting the current 64-byte block.
        if self.run_left > 0 {
            if let Some((region, page, block)) = self.last {
                self.run_left -= 1;
                let is_write = self.rng.gen_bool(self.write_frac(region));
                return LogicalRef {
                    region,
                    page_index: page,
                    block_in_page: block,
                    is_write,
                    gap: self.gap(),
                };
            }
        }

        // Spatial locality: continue the current sequential run onto the
        // next block of the page.
        let span = p.page_span.clamp(1, BLOCKS_PER_PAGE);
        if let Some((region, page, block)) = self.last {
            if block + 1 < span && self.rng.gen_bool(p.spatial_locality) {
                let nb = block + 1;
                self.last = Some((region, page, nb));
                self.run_left = self.draw_run() - 1;
                let is_write = self.rng.gen_bool(self.write_frac(region));
                return LogicalRef {
                    region,
                    page_index: page,
                    block_in_page: nb,
                    is_write,
                    gap: self.gap(),
                };
            }
        }

        // New temporal access: pick region, then page by popularity.
        let u = self.rng.gen_f64();
        let (region, page_index) = if u < p.p_dedup {
            (Region::Dedup, self.zipf_dedup.sample(&mut self.rng) as u64)
        } else if u < p.p_dedup + p.p_vm_shared {
            (Region::VmShared, self.zipf_shared.sample(&mut self.rng) as u64)
        } else {
            // Core-private pools are disjoint per core: page ids are
            // offset by the core's slot so cores never alias.
            let within = self.zipf_private.sample(&mut self.rng) as u64;
            (Region::CorePrivate, self.core_in_vm * p.private_pages_per_core + within)
        };
        let block_in_page = self.rng.gen_range(span);
        self.last = Some((region, page_index, block_in_page));
        self.run_left = self.draw_run() - 1;
        let is_write = self.rng.gen_bool(self.write_frac(region));
        LogicalRef { region, page_index, block_in_page, is_write, gap: self.gap() }
    }

    fn write_frac(&self, region: Region) -> f64 {
        match region {
            Region::CorePrivate => self.profile.write_frac_private,
            Region::VmShared => self.profile.write_frac_shared,
            Region::Dedup => self.profile.write_frac_dedup,
        }
    }

    fn gap(&mut self) -> u64 {
        let m = self.profile.gap_mean;
        if m == 0 {
            0
        } else {
            self.rng.gen_range(2 * m + 1)
        }
    }

    /// Serializes the stream's mutable cursor state (RNG, locality
    /// cursors). The profile is identity, not state — the restorer
    /// supplies it again and the Zipf tables are looked up from it
    /// (they are pure functions of the profile, never touched by RNG,
    /// and shared with every live stream of the same profile).
    pub fn snap_save(&self, w: &mut cmpsim_engine::SnapWriter) {
        use cmpsim_engine::Snap;
        self.core_in_vm.save(w);
        self.rng.save(w);
        self.last.save(w);
        self.run_left.save(w);
    }

    /// Rebuilds a stream for `profile` from state written by
    /// [`CoreStream::snap_save`].
    pub fn snap_load(
        profile: &'static WorkloadProfile,
        r: &mut cmpsim_engine::SnapReader<'_>,
    ) -> Result<Self, cmpsim_engine::SnapError> {
        use cmpsim_engine::Snap;
        let core_in_vm = u64::load(r)?;
        let rng = SimRng::load(r)?;
        let last = Option::<(Region, u64, u64)>::load(r)?;
        let run_left = u64::load(r)?;
        let mut s = Self::new(profile, core_in_vm, rng);
        s.last = last;
        s.run_left = run_left;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{APACHE, RADIX, VOLREND};

    fn stream(p: &'static WorkloadProfile, seed: u64) -> CoreStream {
        CoreStream::new(p, 0, SimRng::new(seed))
    }

    #[test]
    fn deterministic_replay() {
        let mut a = stream(&APACHE, 42);
        let mut b = stream(&APACHE, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
    }

    #[test]
    fn region_mix_close_to_profile() {
        let mut s = stream(&APACHE, 7);
        let n = 200_000;
        let mut dedup = 0usize;
        let mut shared = 0usize;
        for _ in 0..n {
            match s.next_ref().region {
                Region::Dedup => dedup += 1,
                Region::VmShared => shared += 1,
                Region::CorePrivate => {}
            }
        }
        // Spatial-locality runs inherit the region, so region frequency
        // still converges to the draw probabilities.
        let fd = dedup as f64 / n as f64;
        let fs = shared as f64 / n as f64;
        assert!((fd - APACHE.p_dedup).abs() < 0.03, "dedup {fd}");
        assert!((fs - APACHE.p_vm_shared).abs() < 0.03, "shared {fs}");
    }

    #[test]
    fn write_fraction_tracks_profile() {
        let mut s = stream(&VOLREND, 3);
        let n = 100_000;
        let writes = (0..n).filter(|_| s.next_ref().is_write).count();
        let f = writes as f64 / n as f64;
        // Volrend is read-dominated (~6% private writes).
        assert!(f < 0.10, "write fraction {f}");
    }

    #[test]
    fn pages_stay_in_pools() {
        let mut s = stream(&RADIX, 9);
        for _ in 0..50_000 {
            let r = s.next_ref();
            assert!(r.block_in_page < BLOCKS_PER_PAGE);
            match r.region {
                Region::CorePrivate => assert!(r.page_index < RADIX.private_pages_per_core),
                Region::VmShared => assert!(r.page_index < RADIX.vm_shared_pages),
                Region::Dedup => assert!(r.page_index < RADIX.dedup_pages),
            }
        }
    }

    #[test]
    fn private_pools_disjoint_between_cores() {
        let mut s0 = CoreStream::new(&RADIX, 0, SimRng::new(1));
        let mut s5 = CoreStream::new(&RADIX, 5, SimRng::new(2));
        for _ in 0..20_000 {
            let a = s0.next_ref();
            let b = s5.next_ref();
            if a.region == Region::CorePrivate {
                assert!(a.page_index < RADIX.private_pages_per_core);
            }
            if b.region == Region::CorePrivate {
                assert!(
                    (5 * RADIX.private_pages_per_core..6 * RADIX.private_pages_per_core)
                        .contains(&b.page_index)
                );
            }
        }
    }

    #[test]
    fn spatial_runs_are_sequential() {
        let mut s = stream(&RADIX, 11);
        let mut local = 0usize;
        let mut prev: Option<LogicalRef> = None;
        let n = 50_000;
        for _ in 0..n {
            let r = s.next_ref();
            if let Some(p) = prev {
                if p.region == r.region
                    && p.page_index == r.page_index
                    && (r.block_in_page == p.block_in_page
                        || r.block_in_page == p.block_in_page + 1)
                {
                    local += 1;
                }
            }
            prev = Some(r);
        }
        // Radix: 0.8 spatial locality and ~12 refs per block.
        let f = local as f64 / n as f64;
        assert!(f > 0.85, "local fraction {f}");
    }

    #[test]
    fn blocks_are_reused_before_moving_on() {
        let mut s = stream(&RADIX, 17);
        let mut same = 0usize;
        let mut prev: Option<LogicalRef> = None;
        let n = 50_000;
        for _ in 0..n {
            let r = s.next_ref();
            if let Some(p) = prev {
                if p.region == r.region
                    && p.page_index == r.page_index
                    && p.block_in_page == r.block_in_page
                {
                    same += 1;
                }
            }
            prev = Some(r);
        }
        // Mean 12 refs per block -> >85% of consecutive refs hit the
        // same block.
        let f = same as f64 / n as f64;
        assert!(f > 0.85, "same-block fraction {f}");
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let mut a = stream(&APACHE, 99);
        for _ in 0..5000 {
            a.next_ref(); // advance into a mid-run cursor state
        }
        let mut w = cmpsim_engine::SnapWriter::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        let mut r = cmpsim_engine::SnapReader::new(&bytes);
        let mut b = CoreStream::snap_load(&APACHE, &mut r).expect("decode");
        r.finish().expect("fully consumed");
        for _ in 0..5000 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
    }

    #[test]
    fn streams_share_zipf_tables() {
        let a = CoreStream::new(&APACHE, 0, SimRng::new(1));
        let b = CoreStream::new(&APACHE, 3, SimRng::new(2));
        let shared = |x: &CoreStream, y: &CoreStream| {
            x.zipf_private.shares_table(&y.zipf_private)
                && x.zipf_shared.shares_table(&y.zipf_shared)
                && x.zipf_dedup.shares_table(&y.zipf_dedup)
        };
        assert!(shared(&a, &b), "cores of one profile share tables");
        assert!(shared(&a, &a.clone()), "a forked stream shares its parent's tables");
        let mut w = cmpsim_engine::SnapWriter::new();
        a.snap_save(&mut w);
        let bytes = w.into_bytes();
        let restored = CoreStream::snap_load(&APACHE, &mut cmpsim_engine::SnapReader::new(&bytes))
            .expect("decode");
        assert!(shared(&a, &restored), "a restored stream shares the live tables");
    }

    #[test]
    fn gaps_bounded_by_twice_mean() {
        let mut s = stream(&APACHE, 13);
        for _ in 0..10_000 {
            assert!(s.next_ref().gap <= 2 * APACHE.gap_mean);
        }
    }
}
