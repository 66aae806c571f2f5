//! Typed simulation failures with structured diagnostic dumps.
//!
//! The event loop's watchdog produces [`SimError::Stalled`] when the
//! chip stops making forward progress, the optional invariant checker
//! produces [`SimError::InvariantViolation`] when a coherence invariant
//! breaks mid-run, and [`SimError::Protocol`] wraps a controller
//! state-machine fault surfaced by the protocol itself. All three carry
//! enough state to diagnose the failure offline, and
//! [`run_benchmark`](crate::run_benchmark) additionally serializes the
//! failing run into a replay artifact (see [`crate::replay`]).

use cmpsim_engine::{Cycle, FaultKind, FaultPlan, FaultStats};
use cmpsim_protocols::common::{Msg, ProtoError};
use std::fmt;
use std::path::{Path, PathBuf};

/// The active fault-injection plan plus the faults fired so far,
/// embedded in every failure dump of a faulty run so the failure can be
/// reproduced exactly (`cmpsim-cli replay` re-runs the same plan).
#[derive(Debug, Clone)]
pub struct FaultContext {
    /// The plan the run executed under.
    pub plan: FaultPlan,
    /// Per-kind counts of faults fired before the failure.
    pub fired: FaultStats,
}

impl fmt::Display for FaultContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault plan {} ({} faults fired:",
            self.plan.spec(),
            self.fired.total()
        )?;
        for kind in FaultKind::all() {
            write!(f, " {}={}", kind.label(), self.fired.count(kind))?;
        }
        write!(f, ")")
    }
}

/// Why the watchdog declared the simulation stalled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallReason {
    /// The hard event budget was exhausted (classic deadlock signature:
    /// events keep circulating without retiring references).
    EventBudget {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// No core retired a reference for a full stall window.
    NoProgress {
        /// The window, in cycles.
        window: Cycle,
        /// Cycle of the last retired reference.
        last_progress: Cycle,
    },
    /// The event queue drained but cores or protocol state were left
    /// hanging (lost message / lost wakeup).
    IncompleteDrain,
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallReason::EventBudget { budget } => {
                write!(f, "event budget exhausted ({budget} events)")
            }
            StallReason::NoProgress { window, last_progress } => write!(
                f,
                "no reference retired for {window} cycles (last progress at cycle {last_progress})"
            ),
            StallReason::IncompleteDrain => {
                write!(f, "event queue drained with unfinished cores or protocol state")
            }
        }
    }
}

/// One core's state at the moment of a stall.
#[derive(Debug, Clone)]
pub struct CoreStallState {
    /// Tile index.
    pub tile: usize,
    /// VM the core belongs to.
    pub vm: usize,
    /// References retired so far.
    pub refs_done: u64,
    /// Reference target (`refs_per_core`).
    pub refs_target: u64,
    /// A miss is outstanding in the memory system.
    pub outstanding: bool,
    /// A translated reference is waiting to issue: `(block, is_write)`.
    pub pending: Option<(u64, bool)>,
}

/// One queued/in-flight message at the moment of a stall.
#[derive(Debug, Clone)]
pub struct InFlightMsg {
    /// Cycle the message would have been delivered at.
    pub due: Cycle,
    /// The message.
    pub msg: Msg,
}

/// A block with in-flight traffic, plus each controller's view of it.
#[derive(Debug, Clone)]
pub struct HotBlock {
    /// Block address.
    pub block: u64,
    /// In-flight messages concerning it.
    pub queued: usize,
    /// Human-readable per-controller views (from the protocol snapshot).
    pub views: Vec<String>,
}

/// Structured dump attached to [`SimError::Stalled`].
#[derive(Debug, Clone)]
pub struct StallReport {
    /// What tripped the watchdog.
    pub reason: StallReason,
    /// Cycle the stall was declared at.
    pub cycle: Cycle,
    /// Events processed up to that point.
    pub events: u64,
    /// Cores that had not finished their reference budget.
    pub stalled_cores: Vec<CoreStallState>,
    /// Everything still in the event queue, ordered by due cycle.
    pub in_flight: Vec<InFlightMsg>,
    /// The protocol's own dump of in-flight transactions.
    pub pending_summary: String,
    /// Blocks with the most in-flight traffic, with each controller's
    /// view of them.
    pub hot_blocks: Vec<HotBlock>,
    /// The last few coherence-trace events before the stall (rendered
    /// lines; empty unless the run had tracing enabled).
    pub trace_tail: Vec<String>,
    /// Per-transaction phase timelines of the in-flight misses — which
    /// phase each one is stuck in (rendered lines; empty unless the run
    /// had attribution enabled).
    pub phase_lines: Vec<String>,
    /// Replay artifact written for this failure, if any.
    pub artifact: Option<PathBuf>,
    /// The active fault plan and fired-fault counts, when the run was
    /// executing under fault injection.
    pub fault: Option<FaultContext>,
}

/// Structured dump attached to [`SimError::InvariantViolation`].
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Cycle the violation was detected at.
    pub cycle: Cycle,
    /// Events processed up to that point.
    pub events: u64,
    /// The message whose handling exposed the violation.
    pub trigger: String,
    /// Block the violation concerns.
    pub block: u64,
    /// Every violated invariant.
    pub violations: Vec<String>,
    /// The checker's recent history window for the offending block.
    pub history: Vec<String>,
    /// Replay artifact written for this failure, if any.
    pub artifact: Option<PathBuf>,
}

/// Structured dump attached to [`SimError::Protocol`].
#[derive(Debug, Clone)]
pub struct ProtocolFault {
    /// Cycle the fault happened at.
    pub cycle: Cycle,
    /// Events processed up to that point.
    pub events: u64,
    /// The protocol's own description of the fault.
    pub error: ProtoError,
    /// The protocol's dump of in-flight transactions.
    pub pending_summary: String,
    /// Replay artifact written for this failure, if any.
    pub artifact: Option<PathBuf>,
}

/// Structured dump attached to [`SimError::Fault`]: a request exhausted
/// its retransmission budget under fault injection.
#[derive(Debug, Clone)]
pub struct FaultAbort {
    /// Cycle the abort was declared at.
    pub cycle: Cycle,
    /// Events processed up to that point.
    pub events: u64,
    /// Tile whose request could not be recovered.
    pub tile: usize,
    /// Block the request concerned.
    pub block: u64,
    /// Retransmissions attempted before giving up.
    pub attempts: u32,
    /// The active plan and fired-fault counts.
    pub fault: FaultContext,
    /// The protocol's dump of in-flight transactions.
    pub pending_summary: String,
    /// Replay artifact written for this failure, if any.
    pub artifact: Option<PathBuf>,
}

/// Structured dump attached to [`SimError::Timeout`]: the run exceeded
/// its host wall-clock budget (`SystemConfig::wall_deadline_ms`). Unlike
/// a stall, this says nothing about simulated progress — the run may
/// simply be too slow for the sweep's per-cell deadline — so timeouts
/// are classified as *transient* by the orchestrator and retried.
#[derive(Debug, Clone)]
pub struct TimeoutReport {
    /// The wall-clock budget that was exceeded, in milliseconds.
    pub budget_ms: u64,
    /// Host milliseconds actually elapsed when the deadline fired.
    pub elapsed_ms: u64,
    /// Simulated cycle the run had reached.
    pub cycle: Cycle,
    /// Events processed up to that point.
    pub events: u64,
    /// References retired chip-wide up to that point.
    pub refs_done: u64,
    /// The active fault plan and fired-fault counts, when the run was
    /// executing under fault injection.
    pub fault: Option<FaultContext>,
    /// Replay artifact written for this failure, if any.
    pub artifact: Option<PathBuf>,
}

/// A failed simulation run.
///
/// The reports are boxed so a `Result<RunResult, SimError>` stays small
/// on the happy path — the dumps are only materialized on failure.
///
/// The enum is `#[non_exhaustive]`: downstream tooling must keep a
/// wildcard arm and should prefer matching on [`SimError::code`], a
/// stable machine-readable string per variant, over parsing `Display`
/// output.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SimError {
    /// The watchdog declared the run stuck.
    Stalled(Box<StallReport>),
    /// The invariant checker caught a coherence violation.
    InvariantViolation(Box<InvariantReport>),
    /// A protocol controller hit a state-machine inconsistency.
    Protocol(Box<ProtocolFault>),
    /// An injected fault could not be recovered: a request exhausted
    /// its retransmission budget.
    Fault(Box<FaultAbort>),
    /// The snapshot subsystem failed: unreadable snapshot directory, or
    /// a corrupted / version-mismatched image. Snapshots fail closed —
    /// a bad image is reported, never silently re-simulated around.
    Snapshot(Box<crate::snapshot::SnapshotError>),
    /// The run exceeded its host wall-clock budget
    /// (`SystemConfig::wall_deadline_ms`). A host-side condition, not a
    /// simulated one: the same cell re-run with a larger budget (or a
    /// faster host) may well complete, which is why sweep orchestration
    /// treats it as transient.
    Timeout(Box<TimeoutReport>),
}

impl SimError {
    /// Cycle the failure was detected at.
    pub fn failing_cycle(&self) -> Cycle {
        match self {
            SimError::Stalled(r) => r.cycle,
            SimError::InvariantViolation(r) => r.cycle,
            SimError::Protocol(r) => r.cycle,
            SimError::Fault(r) => r.cycle,
            SimError::Snapshot(_) => 0,
            SimError::Timeout(r) => r.cycle,
        }
    }

    /// Events processed before the failure.
    pub fn events(&self) -> u64 {
        match self {
            SimError::Stalled(r) => r.events,
            SimError::InvariantViolation(r) => r.events,
            SimError::Protocol(r) => r.events,
            SimError::Fault(r) => r.events,
            SimError::Snapshot(_) => 0,
            SimError::Timeout(r) => r.events,
        }
    }

    /// Stable label used in replay artifacts.
    pub fn kind_label(&self) -> &'static str {
        match self {
            SimError::Stalled(_) => "stalled",
            SimError::InvariantViolation(_) => "invariant-violation",
            SimError::Protocol(_) => "protocol-fault",
            SimError::Fault(_) => "fault-unrecoverable",
            SimError::Snapshot(_) => "snapshot",
            SimError::Timeout(_) => "wall-timeout",
        }
    }

    /// Stable machine-readable error code, one per variant. Downstream
    /// tooling (the sweep journal, CI scripts) matches on these instead
    /// of string-parsing `Display` output; codes never change once
    /// shipped, even as `#[non_exhaustive]` grows the enum.
    pub fn code(&self) -> &'static str {
        match self {
            SimError::Stalled(_) => "E-STALL",
            SimError::InvariantViolation(_) => "E-INVARIANT",
            SimError::Protocol(_) => "E-PROTOCOL",
            SimError::Fault(_) => "E-FAULT",
            SimError::Snapshot(_) => "E-SNAPSHOT",
            SimError::Timeout(_) => "E-TIMEOUT",
        }
    }

    /// True when the failure is *transient* under the sweep retry
    /// policy: a host wall-clock deadline missed on a loaded machine,
    /// which is not a property of the cell's inputs. Every other error
    /// is reproducible — a seeded fault plan fires the same faults at
    /// the same cycles on every attempt — so retrying it only wastes
    /// the worker, and the orchestrator settles it immediately.
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::Timeout(_))
    }

    /// The active fault plan and fired-fault counts, when the failing
    /// run was executing under fault injection.
    pub fn fault_context(&self) -> Option<&FaultContext> {
        match self {
            SimError::Stalled(r) => r.fault.as_ref(),
            SimError::Fault(r) => Some(&r.fault),
            SimError::Timeout(r) => r.fault.as_ref(),
            SimError::InvariantViolation(_) | SimError::Protocol(_) | SimError::Snapshot(_) => {
                None
            }
        }
    }

    /// Replay artifact written for this failure, if any.
    pub fn artifact(&self) -> Option<&Path> {
        match self {
            SimError::Stalled(r) => r.artifact.as_deref(),
            SimError::InvariantViolation(r) => r.artifact.as_deref(),
            SimError::Protocol(r) => r.artifact.as_deref(),
            SimError::Fault(r) => r.artifact.as_deref(),
            SimError::Snapshot(r) => r.artifact.as_deref(),
            SimError::Timeout(r) => r.artifact.as_deref(),
        }
    }

    /// Records where the replay artifact was written.
    pub fn set_artifact(&mut self, path: PathBuf) {
        match self {
            SimError::Stalled(r) => r.artifact = Some(path),
            SimError::InvariantViolation(r) => r.artifact = Some(path),
            SimError::Protocol(r) => r.artifact = Some(path),
            SimError::Fault(r) => r.artifact = Some(path),
            SimError::Snapshot(r) => r.artifact = Some(path),
            SimError::Timeout(r) => r.artifact = Some(path),
        }
    }
}

/// How many in-flight messages / stalled cores / history lines the
/// Display rendering shows before eliding (the structs keep everything).
const DISPLAY_CAP: usize = 32;

fn elided(total: usize) -> String {
    if total > DISPLAY_CAP {
        format!("  … {} more elided\n", total - DISPLAY_CAP)
    } else {
        String::new()
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled(r) => {
                writeln!(
                    f,
                    "simulation stalled at cycle {} after {} events: {}",
                    r.cycle, r.events, r.reason
                )?;
                writeln!(f, "stalled cores ({}):", r.stalled_cores.len())?;
                for c in r.stalled_cores.iter().take(DISPLAY_CAP) {
                    writeln!(
                        f,
                        "  tile {} (vm {}): {}/{} refs, outstanding={}, pending={:?}",
                        c.tile, c.vm, c.refs_done, c.refs_target, c.outstanding, c.pending
                    )?;
                }
                write!(f, "{}", elided(r.stalled_cores.len()))?;
                writeln!(f, "in-flight messages ({}):", r.in_flight.len())?;
                for m in r.in_flight.iter().take(DISPLAY_CAP) {
                    writeln!(f, "  due {}: {:?}", m.due, m.msg)?;
                }
                write!(f, "{}", elided(r.in_flight.len()))?;
                if !r.hot_blocks.is_empty() {
                    writeln!(f, "hot blocks:")?;
                    for hb in &r.hot_blocks {
                        writeln!(f, "  block {:#x}: {} in-flight messages", hb.block, hb.queued)?;
                        for v in &hb.views {
                            writeln!(f, "    {v}")?;
                        }
                    }
                }
                if !r.trace_tail.is_empty() {
                    writeln!(f, "recent trace events:")?;
                    for line in &r.trace_tail {
                        writeln!(f, "  {line}")?;
                    }
                }
                if !r.phase_lines.is_empty() {
                    writeln!(f, "in-flight miss phase timelines:")?;
                    for line in &r.phase_lines {
                        writeln!(f, "  {line}")?;
                    }
                }
                if !r.pending_summary.is_empty() {
                    writeln!(f, "protocol pending state:\n{}", r.pending_summary.trim_end())?;
                }
                if let Some(fc) = &r.fault {
                    writeln!(f, "{fc}")?;
                }
                if let Some(p) = &r.artifact {
                    writeln!(f, "replay artifact: {}", p.display())?;
                }
                Ok(())
            }
            SimError::InvariantViolation(r) => {
                writeln!(
                    f,
                    "coherence invariant violated at cycle {} after {} events (block {:#x})",
                    r.cycle, r.events, r.block
                )?;
                writeln!(f, "trigger: {}", r.trigger)?;
                for v in &r.violations {
                    writeln!(f, "  {v}")?;
                }
                if !r.history.is_empty() {
                    writeln!(f, "recent history of block {:#x}:", r.block)?;
                    let skip = r.history.len().saturating_sub(DISPLAY_CAP);
                    for h in r.history.iter().skip(skip) {
                        writeln!(f, "  {h}")?;
                    }
                }
                if let Some(p) = &r.artifact {
                    writeln!(f, "replay artifact: {}", p.display())?;
                }
                Ok(())
            }
            SimError::Protocol(r) => {
                writeln!(f, "at cycle {} after {} events: {}", r.cycle, r.events, r.error)?;
                if !r.pending_summary.is_empty() {
                    writeln!(f, "protocol pending state:\n{}", r.pending_summary.trim_end())?;
                }
                if let Some(p) = &r.artifact {
                    writeln!(f, "replay artifact: {}", p.display())?;
                }
                Ok(())
            }
            SimError::Fault(r) => {
                writeln!(
                    f,
                    "unrecoverable injected fault at cycle {} after {} events: \
                     tile {} gave up on block {:#x} after {} retransmissions",
                    r.cycle, r.events, r.tile, r.block, r.attempts
                )?;
                writeln!(f, "{}", r.fault)?;
                if !r.pending_summary.is_empty() {
                    writeln!(f, "protocol pending state:\n{}", r.pending_summary.trim_end())?;
                }
                if let Some(p) = &r.artifact {
                    writeln!(f, "replay artifact: {}", p.display())?;
                }
                Ok(())
            }
            SimError::Snapshot(r) => {
                writeln!(f, "{r}")?;
                if let Some(p) = &r.artifact {
                    writeln!(f, "replay artifact: {}", p.display())?;
                }
                Ok(())
            }
            SimError::Timeout(r) => {
                writeln!(
                    f,
                    "wall-clock deadline exceeded: {} ms elapsed against a {} ms budget \
                     (simulated cycle {}, {} events, {} refs retired)",
                    r.elapsed_ms, r.budget_ms, r.cycle, r.events, r.refs_done
                )?;
                if let Some(fc) = &r.fault {
                    writeln!(f, "{fc}")?;
                }
                if let Some(p) = &r.artifact {
                    writeln!(f, "replay artifact: {}", p.display())?;
                }
                Ok(())
            }
        }
    }
}

impl From<crate::snapshot::SnapshotError> for SimError {
    fn from(e: crate::snapshot::SnapshotError) -> Self {
        SimError::Snapshot(Box::new(e))
    }
}

impl std::error::Error for SimError {}
