#![warn(missing_docs)]

//! # cmpsim
//!
//! The complete simulator assembling every substrate of the workspace —
//! the reproduction of *Energy-Efficient Cache Coherence Protocols in
//! Chip-Multiprocessors for Server Consolidation* (ICPP 2011):
//!
//! * a tiled CMP (8x8 by default) with in-order cores, split-level
//!   caches and per-tile L2 banks, driven by one of the four coherence
//!   protocols (`Directory`, `DiCo`, `DiCo-Providers`, `DiCo-Arin`);
//! * a 2D-mesh NoC with contention and broadcast support;
//! * eight memory controllers along the chip borders (300-cycle DRAM
//!   plus a small random delay, per Table III);
//! * consolidated virtual machines with memory deduplication and the
//!   matched / alternative tile placements of Figure 6;
//! * the synthetic workloads of Table IV;
//! * energy accounting through `cmpsim-power`.
//!
//! # Quickstart
//!
//! ```
//! use cmpsim::{run_benchmark, SystemConfig};
//! use cmpsim_protocols::ProtocolKind;
//! use cmpsim_workloads::Benchmark;
//!
//! let cfg = SystemConfig::smoke(); // tiny run for doc tests
//! let result = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Apache, &cfg)
//!     .expect("simulation completed");
//! assert!(result.measured_refs > 0);
//! println!(
//!     "{}: {:.4} refs/cycle, {:.2} uJ",
//!     result.protocol.name(),
//!     result.throughput(),
//!     result.total_dynamic_uj()
//! );
//! ```
//!
//! Runs that stop making forward progress (deadlock, livelock, lost
//! message) return a typed [`SimError`] with a structured dump and a
//! JSON replay artifact instead of spinning forever — see [`error`]
//! and [`replay`].
//!
//! # Fault injection
//!
//! A seeded [`FaultPlan`] ([`SystemConfig::with_fault_plan`]) injects
//! deterministic NoC faults — delay spikes, duplicates, reordering,
//! bounded drops, transient router outages — which the simulator
//! recovers from with per-MSHR timeouts, capped-backoff retransmission
//! and duplicate suppression. A [`run_sweep`] over fault plans verifies
//! recovery differentially: every planned cell that completes must end
//! bit-identical in architectural state ([`ArchState::divergence`]) to
//! its fault-free golden twin.
//!
//! # Observability
//!
//! Every run's stats publish into a unified [`MetricsRegistry`]
//! ([`RunResult::metrics`]); opt-in extras record a coherence
//! transaction trace ([`SystemConfig::with_tracing`], exported as
//! Chrome trace-event JSON via [`trace`]) and an interval time-series
//! ([`SystemConfig::with_interval`], exported as CSV/JSON via
//! [`interval`]). Both are observation-only: simulated timing is
//! identical with them on or off.
//!
//! Every JSON artifact — metrics, traces, series, matrix views, host
//! profiles, progress and sweep journals, compare diffs, crash dumps —
//! is built as a [`json::Value`] and rendered once by [`json`], the
//! workspace's one JSON codec; `cmpsim-engine` writes no JSON.

pub mod attr;
pub mod compare;
pub mod config;
pub mod error;
pub mod interval;
pub mod json;
pub mod manifest;
mod observers;
pub mod orchestrator;
pub mod progress;
pub mod replay;
pub mod report;
pub mod result;
pub mod sim;
pub mod snapshot;
pub mod trace;
pub mod vmstat;

pub use attr::BreakdownLog;
pub use compare::{CompareOptions, CompareReport, MetricDiff, Verdict};
pub use config::SystemConfig;
pub use error::{FaultContext, SimError, StallReason, TimeoutReport};
pub use interval::{IntervalSample, IntervalSampler, TimeSeries};
pub use manifest::RunManifest;
pub use orchestrator::{
    parse_journal, parse_plans, resume_sweep, run_matrix, run_sweep, CellError, CellState,
    Injection, RunOptions, SweepCell, SweepOptions, SweepOutcome, SweepSpec,
};
pub use progress::ProgressSink;
pub use replay::ReplayArtifact;
pub use result::{ArchState, RunResult, SpatialLog};
pub use sim::{
    build_protocol, run_benchmark, run_benchmark_with_store, snapshot_eligible, CmpSimulator,
};
pub use snapshot::{snapshot_key, SnapshotError, SnapshotStore, SNAPSHOT_VERSION};
pub use trace::TraceLog;
pub use vmstat::{ascii_heatmap, heatmap_csv, heatmap_json, vmstat_json, vmstat_tables};

// Re-export the registry types so downstream binaries need not depend
// on cmpsim-engine directly.
pub use cmpsim_engine::{FaultKind, FaultPlan, FaultStats, MetricSource, MetricsRegistry};

// Re-export the pieces callers need to drive experiments.
pub use cmpsim_protocols::{MissClass, ProtocolKind};
pub use cmpsim_virt::Placement;
pub use cmpsim_workloads::{Benchmark, Metric};
