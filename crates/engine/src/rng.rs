//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-reproducible across machines and across crate
//! upgrades, so we implement the generator in-tree instead of depending on
//! an external crate: a xoshiro256++ core seeded through splitmix64 (the
//! construction recommended by the xoshiro authors). Quality is far beyond
//! what synthetic workload generation needs, and state is four words.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// splitmix64 step; used for seeding and as a standalone mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic simulation RNG (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Every distinct seed yields an
    /// independent, well-mixed stream (seeded through splitmix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent child stream, e.g. one per core, so per-core
    /// streams do not alias even when consumed at different rates.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let mut sm = self.next_u64() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)`. Uses Lemire's multiply-shift reduction;
    /// the tiny modulo bias (< 2^-32 for all n used here) is irrelevant for
    /// workload synthesis.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform usize in `[0, n)`.
    #[inline]
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(n as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Geometric-ish bounded jitter in `[0, max]`, used for the paper's
    /// "fixed memory latency plus a small random delay".
    #[inline]
    pub fn jitter(&mut self, max: u64) -> u64 {
        if max == 0 {
            0
        } else {
            self.gen_range(max + 1)
        }
    }
}

/// Sampler for a (truncated) Zipf distribution over `{0, .., n-1}`,
/// used to model skewed page popularity in the synthetic workloads.
///
/// Holds the CDF; sampling is a binary search. For the pool sizes used
/// by the workloads (≤ tens of thousands of pages) this is both exact
/// and fast. A table is a pure function of `(n, s)`, so samplers over
/// the same domain and exponent share one: a 64-core chip builds each
/// distinct table once instead of once per core, and the shared table
/// stays warm in the host cache. Clones share it too.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Arc<[f64]>,
}

/// Live CDF tables by `(n, s.to_bits())`. Entries are weak, so a table
/// is freed with the last sampler using it.
type ZipfTables = BTreeMap<(usize, u64), Weak<[f64]>>;
static ZIPF_TABLES: Mutex<ZipfTables> = Mutex::new(BTreeMap::new());

impl Zipf {
    /// Builds a sampler over `n` items with exponent `s` (`s = 0` is
    /// uniform; `s ≈ 0.8–1.2` is typical for page popularity), sharing
    /// the CDF table of any live sampler with the same `(n, s)`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        let key = (n, s.to_bits());
        let mut tables = ZIPF_TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cdf) = tables.get(&key).and_then(Weak::upgrade) {
            return Self { cdf };
        }
        let cdf: Arc<[f64]> = zipf_cdf(n, s).into();
        tables.retain(|_, table| table.strong_count() > 0);
        tables.insert(key, Arc::downgrade(&cdf));
        Self { cdf }
    }

    /// True when `self` and `other` sample from the same shared table.
    pub fn shares_table(&self, other: &Zipf) -> bool {
        Arc::ptr_eq(&self.cdf, &other.cdf)
    }

    /// Number of items in the domain.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the domain has no items (never true — kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws an index in `[0, n)`; small indices are the popular ones.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// The normalised CDF of a Zipf distribution over `n` items with
/// exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

crate::impl_snap!(SimRng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(12345);
        let mut b = SimRng::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = SimRng::new(7);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = SimRng::new(99);
        for n in [1u64, 2, 3, 7, 64, 1000, u32::MAX as u64] {
            for _ in 0..200 {
                assert!(r.gen_range(n) < n);
            }
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(-1.0));
        assert!(r.gen_bool(2.0));
    }

    #[test]
    fn gen_bool_rate_close() {
        let mut r = SimRng::new(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn jitter_bounded() {
        let mut r = SimRng::new(42);
        assert_eq!(r.jitter(0), 0);
        for _ in 0..100 {
            assert!(r.jitter(20) <= 20);
        }
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        let mut r = SimRng::new(8);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.01, "frac {frac}");
        }
    }

    #[test]
    fn zipf_skews_to_head() {
        let z = Zipf::new(100, 1.0);
        let mut r = SimRng::new(8);
        let mut head = 0usize;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // With s=1 over 100 items the first 10 items carry ~56% of the mass.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.5, "head fraction {frac}");
    }

    #[test]
    fn zipf_tables_are_shared_and_exact() {
        let a = Zipf::new(1000, 0.7);
        let b = Zipf::new(1000, 0.7);
        assert!(a.shares_table(&b) && a.shares_table(&a.clone()));
        assert!(!a.shares_table(&Zipf::new(1000, 0.75)));
        assert!(!a.shares_table(&Zipf::new(999, 0.7)));
        let fresh = zipf_cdf(1000, 0.7);
        assert!(a.cdf.iter().zip(&fresh).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a.len(), fresh.len());
    }

    #[test]
    fn zipf_table_freed_with_last_sampler() {
        let n = 4321;
        let weak = Arc::downgrade(&Zipf::new(n, 0.9).cdf);
        assert!(weak.upgrade().is_none(), "no sampler holds the table any more");
        let again = Zipf::new(n, 0.9);
        assert_eq!(again.len(), n);
    }

    #[test]
    fn zipf_sample_in_domain() {
        let z = Zipf::new(3, 1.2);
        let mut r = SimRng::new(21);
        for _ in 0..1000 {
            assert!(z.sample(&mut r) < 3);
        }
    }
}
