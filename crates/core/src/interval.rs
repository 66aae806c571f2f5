//! Interval time-series sampling.
//!
//! When [`SystemConfig::sample_interval`](crate::SystemConfig) is set,
//! the simulator snapshots the chip every `N` cycles of the measured
//! (post-warm-up) window: link utilization, cache occupancy, prediction
//! and home (directory / owner-cache) hit rates, and dynamic + static
//! energy. Each sample is a *delta* over its interval, so the series
//! integrates back to the end-of-run totals, and a final partial sample
//! covers the tail when the run does not end on an interval boundary.
//!
//! Samples are taken at the first processed event at or after each
//! boundary — the event loop only observes time at event granularity —
//! so a sample labelled `[start, end)` may include the counters of one
//! event past `end`. The slop is bounded by a single event and the
//! series stays deterministic.

use crate::json::Value;
use cmpsim_engine::phase::{Phase, PHASES};
use cmpsim_engine::Cycle;
use cmpsim_power::Leakage;
use cmpsim_protocols::Occupancy;
use std::fmt::Write as _;

/// The cumulative counter snapshot a sample is diffed against.
#[derive(Debug, Clone, Default)]
pub struct CumSnapshot {
    /// NoC messages sent.
    pub messages: u64,
    /// Per-router routing events (link traversals).
    pub hops: u64,
    /// Flit-link traversals.
    pub flit_links: u64,
    /// Link contention stall cycles.
    pub contention: u64,
    /// Per-directed-link busy flit counts (`Mesh::link_busy`).
    pub link_busy: Vec<u64>,
    /// Per-directed-link contention stall cycles
    /// (`Mesh::link_contention`).
    pub link_stall: Vec<u64>,
    /// Per-tile L1 miss counts (measurement window).
    pub tile_misses: Vec<u64>,
    /// Predictor lookups / hits (DiCo family).
    pub pred_lookups: u64,
    /// Predictor hits.
    pub pred_hits: u64,
    /// Ordering-point (directory / L2C$) lookups.
    pub home_lookups: u64,
    /// Ordering-point hits.
    pub home_hits: u64,
    /// References retired across all cores.
    pub refs: u64,
    /// Cumulative cache dynamic energy (nJ).
    pub cache_nj: f64,
    /// Cumulative network dynamic energy (nJ).
    pub net_nj: f64,
    /// Cumulative per-phase miss-latency cycles (attribution totals,
    /// indexed by [`Phase::index`]; all zero when attribution is off).
    pub phase: [u64; PHASES],
    /// Faults injected so far (all kinds; zero when injection is off).
    pub faults_injected: u64,
    /// Protocol-level retransmissions so far (zero when injection is
    /// off).
    pub retries: u64,
    /// MSHR timeouts fired so far (zero when injection is off).
    pub timeouts: u64,
}

/// One interval's worth of activity.
#[derive(Debug, Clone)]
pub struct IntervalSample {
    /// First cycle of the interval.
    pub start: Cycle,
    /// One past the last cycle of the interval.
    pub end: Cycle,
    /// References retired in the interval.
    pub refs: u64,
    /// NoC messages sent.
    pub messages: u64,
    /// Link traversals (routing events).
    pub hops: u64,
    /// Flit-link traversals.
    pub flit_links: u64,
    /// Link contention stall cycles.
    pub contention: u64,
    /// Mean utilization over all physical directed links, in `[0, 1]`.
    pub link_util_mean: f64,
    /// Utilization of the busiest directed link.
    pub link_util_max: f64,
    /// Flits the single busiest directed link carried in the interval
    /// (numerator of [`Self::link_util_max`]).
    pub hot_link_flits: u64,
    /// Stall cycles on the single most contended directed link in the
    /// interval.
    pub hot_link_stall: u64,
    /// L1 misses of the single hottest tile in the interval.
    pub hot_tile_misses: u64,
    /// L1 fill fraction at the sample point.
    pub l1_occ: f64,
    /// L2 fill fraction at the sample point.
    pub l2_occ: f64,
    /// Auxiliary-structure fill fraction at the sample point.
    pub aux_occ: f64,
    /// Predictor lookups in the interval.
    pub pred_lookups: u64,
    /// Predictor hits in the interval.
    pub pred_hits: u64,
    /// Ordering-point lookups in the interval.
    pub home_lookups: u64,
    /// Ordering-point hits in the interval.
    pub home_hits: u64,
    /// Cache dynamic energy spent in the interval (nJ).
    pub cache_nj: f64,
    /// Network dynamic energy spent in the interval (nJ).
    pub net_nj: f64,
    /// Static (leakage) energy over the interval (nJ).
    pub static_nj: f64,
    /// Per-phase miss-latency cycles attributed to transactions that
    /// completed in the interval (all zero when attribution is off).
    pub phase: [u64; PHASES],
    /// Faults injected in the interval (all kinds; zero when fault
    /// injection is off).
    pub faults_injected: u64,
    /// Request retransmissions in the interval (zero when injection is
    /// off).
    pub retries: u64,
    /// MSHR timeouts fired in the interval (zero when injection is
    /// off).
    pub timeouts: u64,
}

impl IntervalSample {
    /// Cycles the interval covers.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }

    /// Total energy (dynamic + static) of the interval (nJ).
    pub fn total_nj(&self) -> f64 {
        self.cache_nj + self.net_nj + self.static_nj
    }
}

/// Collects [`IntervalSample`]s over the measured window.
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    interval: u64,
    /// Start of the interval being accumulated.
    window_start: Cycle,
    /// Next boundary a sample is due at.
    next_boundary: Cycle,
    prev: CumSnapshot,
    /// Per-tile static power, charged to every interval.
    leakage: Leakage,
    tiles: u64,
    /// Physical directed links (mean-utilization denominator).
    links: usize,
    samples: Vec<IntervalSample>,
}

impl IntervalSampler {
    /// Creates a sampler whose first interval starts at `start` (the
    /// warm-up boundary, right after the stat reset — `base` is the
    /// cumulative snapshot at that point, normally all zeros).
    pub fn new(
        interval: u64,
        start: Cycle,
        base: CumSnapshot,
        leakage: Leakage,
        tiles: u64,
        links: usize,
    ) -> Self {
        let interval = interval.max(1);
        Self {
            interval,
            window_start: start,
            next_boundary: start + interval,
            prev: base,
            leakage,
            tiles,
            links: links.max(1),
            samples: Vec::new(),
        }
    }

    /// The cycle the next sample is due at: once `now` reaches it, the
    /// caller should take a snapshot and call [`Self::sample`].
    pub fn next_boundary(&self) -> Cycle {
        self.next_boundary
    }

    /// Closes the interval `[window_start, end)` against `cum` and
    /// opens the next one.
    fn close(&mut self, end: Cycle, cum: &CumSnapshot, occ: &Occupancy) {
        let dur = end.saturating_sub(self.window_start).max(1);
        let busy_dt: Vec<u64> = cum
            .link_busy
            .iter()
            .zip(self.prev.link_busy.iter().chain(std::iter::repeat(&0)))
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let total_busy: u64 = busy_dt.iter().sum();
        let max_busy = busy_dt.iter().copied().max().unwrap_or(0);
        let delta_max = |now: &[u64], then: &[u64]| {
            now.iter()
                .zip(then.iter().chain(std::iter::repeat(&0)))
                .map(|(n, t)| n.saturating_sub(*t))
                .max()
                .unwrap_or(0)
        };
        let hot_stall = delta_max(&cum.link_stall, &self.prev.link_stall);
        let hot_misses = delta_max(&cum.tile_misses, &self.prev.tile_misses);
        self.samples.push(IntervalSample {
            start: self.window_start,
            end,
            refs: cum.refs - self.prev.refs,
            messages: cum.messages - self.prev.messages,
            hops: cum.hops - self.prev.hops,
            flit_links: cum.flit_links - self.prev.flit_links,
            contention: cum.contention - self.prev.contention,
            link_util_mean: total_busy as f64 / (self.links as u64 * dur) as f64,
            link_util_max: max_busy as f64 / dur as f64,
            hot_link_flits: max_busy,
            hot_link_stall: hot_stall,
            hot_tile_misses: hot_misses,
            l1_occ: occ.l1_frac(),
            l2_occ: occ.l2_frac(),
            aux_occ: occ.aux_frac(),
            pred_lookups: cum.pred_lookups - self.prev.pred_lookups,
            pred_hits: cum.pred_hits - self.prev.pred_hits,
            home_lookups: cum.home_lookups - self.prev.home_lookups,
            home_hits: cum.home_hits - self.prev.home_hits,
            cache_nj: cum.cache_nj - self.prev.cache_nj,
            net_nj: cum.net_nj - self.prev.net_nj,
            static_nj: self.leakage.energy_nj(self.tiles, dur),
            phase: std::array::from_fn(|i| cum.phase[i] - self.prev.phase[i]),
            faults_injected: cum.faults_injected - self.prev.faults_injected,
            retries: cum.retries - self.prev.retries,
            timeouts: cum.timeouts - self.prev.timeouts,
        });
        self.prev = cum.clone();
        self.window_start = end;
    }

    /// Takes the sample(s) due at `now`. Quiet stretches spanning
    /// several boundaries produce one sample per boundary, so the
    /// series has no gaps.
    pub fn sample(&mut self, now: Cycle, cum: &CumSnapshot, occ: &Occupancy) {
        while now >= self.next_boundary {
            let end = self.next_boundary;
            self.close(end, cum, occ);
            self.next_boundary += self.interval;
        }
    }

    /// Ends the series at `now`, emitting a final partial sample when
    /// the run stopped mid-interval.
    pub fn finish(mut self, now: Cycle, cum: &CumSnapshot, occ: &Occupancy) -> TimeSeries {
        self.sample(now, cum, occ);
        if now > self.window_start {
            self.close(now, cum, occ);
        }
        TimeSeries { interval: self.interval, samples: self.samples }
    }
}

/// The exported per-interval series of one run.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// The configured sampling interval (the last sample may be
    /// shorter).
    pub interval: u64,
    /// Samples in time order, covering the measured window end to end.
    pub samples: Vec<IntervalSample>,
}

/// CSV column headers, in emission order. The eight `phase_*` columns
/// follow [`Phase::all`] order (attribution cycles; zero when off).
const CSV_HEADER: &str = "start,end,cycles,refs,messages,hops,flit_links,contention_cycles,\
link_util_mean,link_util_max,hot_link_flits,hot_link_stall,hot_tile_misses,\
l1_occ,l2_occ,aux_occ,\
pred_lookups,pred_hits,home_lookups,home_hits,\
cache_dyn_nj,net_dyn_nj,static_nj,total_nj,\
phase_req_net,phase_home,phase_owner_ind,phase_memory,\
phase_data_net,phase_inv,phase_retry,phase_fill,\
faults_injected,fault_retries,fault_timeouts";

impl TimeSeries {
    /// Renders the series as CSV (deterministic, one row per sample).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{:.6},{:.6},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},\
                 {:.3},{:.3},{:.3},{:.3},{},{},{},{},{},{},{},{},{},{},{}",
                s.start,
                s.end,
                s.cycles(),
                s.refs,
                s.messages,
                s.hops,
                s.flit_links,
                s.contention,
                s.link_util_mean,
                s.link_util_max,
                s.hot_link_flits,
                s.hot_link_stall,
                s.hot_tile_misses,
                s.l1_occ,
                s.l2_occ,
                s.aux_occ,
                s.pred_lookups,
                s.pred_hits,
                s.home_lookups,
                s.home_hits,
                s.cache_nj,
                s.net_nj,
                s.static_nj,
                s.total_nj(),
                s.phase[0],
                s.phase[1],
                s.phase[2],
                s.phase[3],
                s.phase[4],
                s.phase[5],
                s.phase[6],
                s.phase[7],
                s.faults_injected,
                s.retries,
                s.timeouts,
            );
        }
        out
    }

    /// The series as a JSON document body (`interval`, then one object
    /// per sample).
    pub fn to_value(&self) -> Value {
        let mut j = Value::object();
        j.set("interval", Value::uint(self.interval));
        let rows = self
            .samples
            .iter()
            .map(|s| {
                let mut r = Value::object();
                r.set("start", Value::uint(s.start));
                r.set("end", Value::uint(s.end));
                r.set("refs", Value::uint(s.refs));
                r.set("messages", Value::uint(s.messages));
                r.set("hops", Value::uint(s.hops));
                r.set("flit_links", Value::uint(s.flit_links));
                r.set("contention_cycles", Value::uint(s.contention));
                r.set("link_util_mean", Value::float(s.link_util_mean));
                r.set("link_util_max", Value::float(s.link_util_max));
                r.set("hot_link_flits", Value::uint(s.hot_link_flits));
                r.set("hot_link_stall", Value::uint(s.hot_link_stall));
                r.set("hot_tile_misses", Value::uint(s.hot_tile_misses));
                r.set("l1_occ", Value::float(s.l1_occ));
                r.set("l2_occ", Value::float(s.l2_occ));
                r.set("aux_occ", Value::float(s.aux_occ));
                r.set("pred_lookups", Value::uint(s.pred_lookups));
                r.set("pred_hits", Value::uint(s.pred_hits));
                r.set("home_lookups", Value::uint(s.home_lookups));
                r.set("home_hits", Value::uint(s.home_hits));
                r.set("cache_dyn_nj", Value::float(s.cache_nj));
                r.set("net_dyn_nj", Value::float(s.net_nj));
                r.set("static_nj", Value::float(s.static_nj));
                for p in Phase::all() {
                    r.set(&format!("phase_{}", p.key()), Value::uint(s.phase[p.index()]));
                }
                r.set("faults_injected", Value::uint(s.faults_injected));
                r.set("fault_retries", Value::uint(s.retries));
                r.set("fault_timeouts", Value::uint(s.timeouts));
                r
            })
            .collect();
        j.set("samples", Value::Arr(rows));
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cum(refs: u64, hops: u64, busy: Vec<u64>) -> CumSnapshot {
        CumSnapshot {
            messages: hops / 2,
            hops,
            flit_links: hops * 3,
            contention: 0,
            link_stall: busy.iter().map(|b| b / 4).collect(),
            tile_misses: vec![refs, refs / 2],
            link_busy: busy,
            pred_lookups: refs / 10,
            pred_hits: refs / 20,
            home_lookups: refs / 5,
            home_hits: refs / 10,
            refs,
            cache_nj: refs as f64 * 0.5,
            net_nj: hops as f64 * 0.1,
            phase: std::array::from_fn(|i| refs * (i as u64 + 1)),
            faults_injected: refs / 4,
            retries: 0,
            timeouts: 0,
        }
    }

    /// A tile leaking `total_mw`.
    fn leak(total_mw: f64) -> Leakage {
        Leakage { total_mw, tag_mw: 0.0 }
    }

    #[test]
    fn samples_are_deltas() {
        let mut s = IntervalSampler::new(100, 1000, CumSnapshot::default(), leak(200.0), 4, 8);
        assert_eq!(s.next_boundary(), 1100);
        s.sample(1100, &cum(40, 80, vec![40; 8]), &Occupancy::default());
        s.sample(1200, &cum(100, 200, vec![100; 8]), &Occupancy::default());
        let ts = s.finish(1200, &cum(100, 200, vec![100; 8]), &Occupancy::default());
        assert_eq!(ts.samples.len(), 2);
        assert_eq!(ts.samples[0].refs, 40);
        assert_eq!(ts.samples[1].refs, 60);
        assert_eq!(ts.samples[1].hops, 120);
        // Phase columns are deltas too (helper: phase[i] = refs * (i+1)).
        assert_eq!(ts.samples[0].phase[0], 40);
        assert_eq!(ts.samples[1].phase[0], 60);
        assert_eq!(ts.samples[1].phase[7], 60 * 8);
        // Fault counters are deltas too (helper: faults = refs / 4).
        assert_eq!(ts.samples[0].faults_injected, 10);
        assert_eq!(ts.samples[1].faults_injected, 15);
        // 40 busy flit-cycles per link over a 100-cycle interval.
        assert!((ts.samples[0].link_util_mean - 0.4).abs() < 1e-12);
        assert!((ts.samples[0].link_util_max - 0.4).abs() < 1e-12);
        // Hot-spot columns are per-interval maxima of the spatial deltas
        // (helper: stall = busy / 4, tile_misses = [refs, refs / 2]).
        assert_eq!(ts.samples[0].hot_link_flits, 40);
        assert_eq!(ts.samples[0].hot_link_stall, 10);
        assert_eq!(ts.samples[0].hot_tile_misses, 40);
        assert_eq!(ts.samples[1].hot_link_flits, 60);
        assert_eq!(ts.samples[1].hot_link_stall, 15);
        assert_eq!(ts.samples[1].hot_tile_misses, 60);
        // 200 mW x 4 tiles x 100 cycles = 80 nJ of leakage.
        assert!((ts.samples[0].static_nj - 80.0).abs() < 1e-9);
    }

    #[test]
    fn final_partial_sample_covers_the_tail() {
        let mut s = IntervalSampler::new(100, 0, CumSnapshot::default(), leak(0.0), 1, 4);
        s.sample(100, &cum(10, 20, vec![5; 4]), &Occupancy::default());
        let ts = s.finish(130, &cum(16, 24, vec![8; 4]), &Occupancy::default());
        assert_eq!(ts.samples.len(), 2);
        let tail = &ts.samples[1];
        assert_eq!((tail.start, tail.end), (100, 130));
        assert_eq!(tail.cycles(), 30);
        assert_eq!(tail.refs, 6);
        assert_eq!(tail.hops, 4);
    }

    #[test]
    fn series_integrates_to_totals() {
        let mut s = IntervalSampler::new(50, 0, CumSnapshot::default(), leak(100.0), 2, 4);
        for t in 1..=7 {
            s.sample(t * 50, &cum(t * 9, t * 13, vec![t; 4]), &Occupancy::default());
        }
        let last = cum(80, 100, vec![9; 4]);
        let ts = s.finish(371, &last, &Occupancy::default());
        assert_eq!(ts.samples.iter().map(|x| x.refs).sum::<u64>(), 80);
        assert_eq!(ts.samples.iter().map(|x| x.hops).sum::<u64>(), 100);
        assert_eq!(ts.samples.last().unwrap().end, 371);
        // Static energy integrates over the whole covered window.
        let static_total: f64 = ts.samples.iter().map(|x| x.static_nj).sum();
        assert!((static_total - 100.0 * 2.0 * 371.0 * 1e-3).abs() < 1e-9);
    }

    #[test]
    fn quiet_stretches_emit_empty_samples() {
        let mut s = IntervalSampler::new(10, 0, CumSnapshot::default(), leak(0.0), 1, 4);
        // One event at cycle 35 crosses three boundaries at once.
        s.sample(35, &cum(5, 5, vec![1; 4]), &Occupancy::default());
        let ts = s.finish(35, &cum(5, 5, vec![1; 4]), &Occupancy::default());
        assert_eq!(ts.samples.len(), 4);
        // All activity lands in the first closed interval; the rest are
        // zero-delta fillers.
        assert_eq!(ts.samples[0].refs, 5);
        assert!(ts.samples[1..].iter().all(|x| x.refs == 0 && x.hops == 0));
    }

    #[test]
    fn csv_and_json_shape() {
        let mut s = IntervalSampler::new(10, 0, CumSnapshot::default(), leak(0.0), 1, 4);
        s.sample(5, &cum(2, 3, vec![1; 4]), &Occupancy::default());
        let ts = s.finish(10, &cum(5, 8, vec![2; 4]), &Occupancy::default());
        let csv = ts.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("start,end,cycles,refs"));
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
        let v = Value::parse(&ts.to_value().to_document()).expect("valid json");
        assert_eq!(v.field("interval").unwrap().as_u64().unwrap(), 10);
        match v.field("samples").unwrap() {
            Value::Arr(rows) => assert_eq!(rows.len(), 1),
            other => panic!("samples not an array: {other:?}"),
        }
    }
}
