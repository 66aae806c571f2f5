//! Host-side self-profiling: coarse scoped wall-clock timers over the
//! simulator's own subsystems (setup, event loop, finalization) plus a
//! simulated-cycles-per-second throughput summary.
//!
//! The profile measures the *host*, not the simulation: its numbers are
//! nondeterministic wall-clock durations and must never leak into
//! simulation artifacts (metrics JSON, time-series, breakdown reports),
//! which are required to be byte-identical across identical runs. The
//! CLI prints profiles to stderr and, under `--out-dir D`, writes each
//! to its own `D/host/` file carrying the run's manifest id, so the
//! nondeterministic data can be joined back to the deterministic
//! artifacts without contaminating them.

use std::time::Instant;

/// A finished host-side profile of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct HostProfile {
    /// `(subsystem, nanoseconds)` in the order the spans were recorded.
    pub spans: Vec<(&'static str, u64)>,
    /// Events popped from the simulation queue.
    pub events: u64,
    /// Simulated cycles covered by the run (measured window).
    pub cycles: u64,
    /// Peak resident-set high-water mark of the process in bytes
    /// (`VmHWM`), sampled when the profile was finalized. Zero on
    /// platforms without `/proc/self/status`.
    pub peak_rss_bytes: u64,
}

impl HostProfile {
    /// Total wall-clock nanoseconds across all spans.
    pub fn total_ns(&self) -> u64 {
        self.spans.iter().map(|&(_, ns)| ns).sum()
    }

    /// Nanoseconds of the named span (0 when absent).
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans.iter().find(|&&(n, _)| n == name).map_or(0, |&(_, ns)| ns)
    }

    /// Simulated cycles per host second, over the total span time.
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.total_ns() as f64 / 1e9;
        if secs > 0.0 {
            self.cycles as f64 / secs
        } else {
            0.0
        }
    }

    /// Events processed per host second, over the total span time.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.total_ns() as f64 / 1e9;
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// The one-line throughput summary the CLI prints to stderr.
    pub fn throughput_line(&self) -> String {
        let mut line = format!(
            "self-profile: {} events, {} sim-cycles in {:.3} s host ({:.2} Mevents/s, {:.2} Msim-cycles/s)",
            self.events,
            self.cycles,
            self.total_ns() as f64 / 1e9,
            self.events_per_sec() / 1e6,
            self.cycles_per_sec() / 1e6,
        );
        if self.peak_rss_bytes > 0 {
            line.push_str(&format!(
                ", peak RSS {:.1} MiB",
                self.peak_rss_bytes as f64 / (1024.0 * 1024.0)
            ));
        }
        line
    }

    /// Per-subsystem lines (span name, milliseconds, share of total).
    pub fn lines(&self) -> Vec<String> {
        let total = self.total_ns().max(1) as f64;
        self.spans
            .iter()
            .map(|&(name, ns)| {
                format!(
                    "self-profile: {:<10} {:>10.3} ms  {:>5.1}%",
                    name,
                    ns as f64 / 1e6,
                    100.0 * ns as f64 / total
                )
            })
            .collect()
    }
}

/// Accumulates named wall-clock spans. Repeated spans with the same
/// name are summed.
#[derive(Debug, Default)]
pub struct HostProfiler {
    spans: Vec<(&'static str, u64)>,
}

impl HostProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f`, charging its wall-clock duration to `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, t0.elapsed().as_nanos() as u64);
        r
    }

    /// Adds `ns` nanoseconds to the span `name`.
    pub fn record(&mut self, name: &'static str, ns: u64) {
        if let Some(s) = self.spans.iter_mut().find(|(n, _)| *n == name) {
            s.1 += ns;
        } else {
            self.spans.push((name, ns));
        }
    }

    /// Finalizes into a [`HostProfile`] with the given simulation
    /// totals, sampling the process peak-RSS high-water mark.
    pub fn finish(self, events: u64, cycles: u64) -> HostProfile {
        HostProfile { spans: self.spans, events, cycles, peak_rss_bytes: peak_rss_bytes() }
    }
}

/// The process peak resident-set size in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc filesystem is unavailable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<u64>().ok()))
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_by_name() {
        let mut p = HostProfiler::new();
        p.record("loop", 500);
        p.record("loop", 250);
        p.record("finalize", 100);
        let prof = p.finish(10, 1000);
        assert_eq!(prof.spans.len(), 2);
        assert_eq!(prof.span_ns("loop"), 750);
        assert_eq!(prof.total_ns(), 850);
    }

    #[test]
    fn timed_closure_returns_value() {
        let mut p = HostProfiler::new();
        let v = p.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(p.spans.len(), 1);
    }

    #[test]
    fn throughput_line_mentions_rates() {
        let prof = HostProfile {
            spans: vec![("loop", 1_000_000_000)],
            events: 2_000_000,
            cycles: 4_000_000,
            ..Default::default()
        };
        assert!((prof.events_per_sec() - 2e6).abs() < 1.0);
        assert!((prof.cycles_per_sec() - 4e6).abs() < 1.0);
        let line = prof.throughput_line();
        assert!(line.contains("Msim-cycles/s"), "{line}");
    }

    #[test]
    fn finish_samples_peak_rss_on_linux() {
        let prof = HostProfiler::new().finish(1, 1);
        if cfg!(target_os = "linux") {
            assert!(prof.peak_rss_bytes > 0, "VmHWM should be readable on Linux");
            assert!(prof.throughput_line().contains("peak RSS"));
        }
    }

    #[test]
    fn empty_profile_is_safe() {
        let prof = HostProfile::default();
        assert_eq!(prof.cycles_per_sec(), 0.0);
        assert_eq!(prof.total_ns(), 0);
        assert!(prof.lines().is_empty());
    }
}
