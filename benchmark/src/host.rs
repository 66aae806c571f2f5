//! Host-speed normalisation of the end-to-end times.
//!
//! On a shared virtual machine the simulator's speed drifts with the
//! load that other tenants put on the host: by up to ±30 % from one
//! minute to the next, for minutes at a time, with no CPU steal time
//! (the drift is in how fast the vCPU runs while it runs). Medians over
//! a run do not average that out. So each worker times a fixed probe
//! right before each cell, and the end-to-end times of a repetition are
//! divided by the slowdown its probes saw against a reference.
//!
//! The probe is a chain of dependent register operations that touches no
//! memory, so the simulator's own cache and memory traffic cannot change
//! its time; only the host can. The simulator, which stalls on memory,
//! slows more than the probe does when the host is loaded: its time
//! goes about as the square of the probe's ([`SENSITIVITY`]).

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one probe: about 8 ms, ~1 % of a cell.
const PROBE_ITERS: u64 = 3_000_000;
/// The probe's median time on the calibration host (a 2-vCPU Intel
/// Xeon KVM guest; see `benchmark/README.md`). Normalised times are what
/// the host would have measured at that speed.
const PROBE_REFERENCE_NS: f64 = 8.0e6;
/// Exponent relating the simulator's slowdown to the probe's. A least
/// squares fit of log cell time on log probe time over 391 matrix
/// repetitions (44 minutes) on the calibration host gave 1.4–1.8 on
/// either half of the data; on two later sets of ten runs per workload,
/// 2 left the smallest run-to-run spread (see `benchmark/README.md`).
const SENSITIVITY: f64 = 2.0;

/// Runs the probe once; returns its host time in nanoseconds.
pub fn probe() -> u64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_mul(31).wrapping_add(x);
    }
    black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// How much slower than the reference the host ran the simulator, given
/// the mean time of the probes taken meanwhile.
pub fn slowdown(mean_probe_ns: f64) -> f64 {
    (mean_probe_ns / PROBE_REFERENCE_NS).powf(SENSITIVITY)
}
