#![warn(missing_docs)]

//! # cmpsim-engine
//!
//! Discrete-event simulation kernel used by every other crate in the
//! workspace. It provides:
//!
//! * [`Cycle`] — the simulated time unit (one processor clock cycle).
//! * [`EventQueue`] — a deterministic time-ordered event queue. Events that
//!   are scheduled for the same cycle are delivered in FIFO (insertion)
//!   order, which makes whole-chip simulations bit-reproducible.
//! * [`rng::SimRng`] — a small, fast, fully deterministic PRNG
//!   (splitmix64-seeded xoshiro256++) so that results never depend on the
//!   version of an external crate.
//! * [`stats`] — counters, running means and power-of-two latency
//!   histograms used for every measurement reported by the benchmark
//!   harness.
//! * [`metrics`] — a hierarchically named registry over the [`stats`]
//!   primitives: zero-cost handles for hot-path updates, a
//!   [`metrics::MetricSource`] publish trait for components with typed
//!   stat structs, and deterministic text/JSON export.
//! * [`fault`] — seeded, fully deterministic fault-injection plans and
//!   the per-delivery decision engine behind the chaos-testing harness
//!   (delay spikes, reordering, duplicates, bounded drops, router
//!   outages), on a standalone RNG stream so faults-off runs are
//!   bit-identical.
//! * [`trace`] — a bounded drop-oldest ring of trace events with Chrome
//!   trace-event (Perfetto-loadable) JSON export.
//! * [`phase`] — the critical-path phase taxonomy and per-transaction
//!   cycle/energy-event accumulators used by the attribution profiler.
//! * [`profile`] — host-side scoped wall-clock timers, the peak-RSS
//!   high-water mark and the simulated-cycles/sec throughput summary
//!   (stderr or side-channel JSON only; never part of deterministic
//!   artifacts).
//! * [`debug_log`] — the shared sink behind the ad-hoc block-trace
//!   prints: one consistent `[cycle] message` line shape, capturable
//!   in tests instead of hard-wired to stderr.
//! * [`snap`] — the dependency-free binary codec behind deterministic
//!   full-state snapshots (little-endian fixed layouts, sorted hash
//!   containers, typed decode errors — a corrupt snapshot fails closed).
//! * [`par`] — a scoped-thread parallel map built on `std::thread::scope`
//!   used to run independent simulations (protocol × workload sweeps) on
//!   all host cores; a panicking item is isolated per slot instead of
//!   poisoning the whole map.
//! * [`env`] — unified typed parsing of the `CMPSIM_*` environment
//!   variables (malformed values error instead of vanishing).
//! * [`deadline`] — coarse cooperative wall-clock deadlines layered on
//!   the watchdog for sweep-cell timeouts.
//!
//! The kernel is intentionally single-threaded *within* one simulation:
//! cycle-level coherence simulators are causality-bound, so parallelism is
//! applied across the parameter sweep, not inside one run.

pub mod deadline;
pub mod debug_log;
pub mod env;
pub mod event;
pub mod fault;
pub mod fxmap;
pub mod metrics;
pub mod par;
pub mod phase;
pub mod profile;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod trace;

pub use deadline::WallDeadline;
pub use env::EnvError;
pub use event::{Cycle, EventQueue};
pub use fault::{FaultDecision, FaultEngine, FaultKind, FaultPlan, FaultStats};
pub use fxmap::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use metrics::{MetricSource, MetricsRegistry};
pub use phase::{EventCounts, Phase, PhaseCycles};
pub use profile::{HostProfile, HostProfiler};
pub use rng::SimRng;
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use trace::{TraceEvent, TraceRing};
