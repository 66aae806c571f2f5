//! The one cell executor, and the resilient sweep built on it.
//!
//! Every simulation cell that runs on a worker thread goes through
//! `run_cells`: it owns the worker pool, the per-cell `catch_unwind`
//! and the live progress stream, and callers supply only a per-cell
//! body. [`SweepSpec::expand`] is the only cell enumerator: [`run_matrix`]
//! is a spec with no seeds and no plans. [`run_sweep`] adds blast-radius
//! containment per cell:
//!
//! * a [`SweepSpec`] expands into `(config, protocol, benchmark, seed,
//!   fault_plan)` cells, each identified by its content-hash manifest
//!   `run_id` (duplicate cells collapse through the run-id ledger and
//!   pre-existing artifacts are reused, never recomputed);
//! * a spec with fault plans also expands the fault-free plan, so every
//!   planned cell has a *golden twin*: the same (protocol, benchmark,
//!   seed) without faults. Golden cells run first; a planned cell that
//!   completes is judged against its twin's architectural end state
//!   ([`ArchState::divergence`]), read from the twin's metrics
//!   artifact, so a resumed sweep judges without re-running the twin.
//!   An equal cell is `done` (its artifact records the twin's cycles as
//!   `sim.effective_cycles`), an unequal one `diverged`, and one that
//!   ends in a typed error with a crash dump `faulted`;
//! * a panic is a typed [`CellError`] (`E-PANIC`) for its cell, not a
//!   dead sweep;
//! * a per-cell wall-clock deadline ([`SweepOptions::deadline_ms`]) is
//!   layered on the simulated-time watchdog via
//!   [`SystemConfig::wall_deadline_ms`]; an overrunning cell aborts
//!   with `E-TIMEOUT`;
//! * *transient* failures ([`SimError::is_transient`]: `E-TIMEOUT`) are
//!   retried with exponential backoff plus deterministic jitter, up to
//!   [`SweepOptions::retries`] times; *deterministic* failures (stall,
//!   invariant violation, protocol fault, unrecoverable injected fault,
//!   snapshot corruption, panic) settle on their first attempt with
//!   their crash dump attached;
//! * every state transition appends one line to an NDJSON **sweep
//!   journal** (`schemas/run.schema.json#sweep`). The journal's `start`
//!   line embeds the full spec (canonical config JSON included), so
//!   [`resume_sweep`] after a `kill -9` needs nothing but the journal:
//!   completed cells are skipped, in-flight ones re-dispatched, and —
//!   because every cell is a pure function of its manifest inputs —
//!   the replayed remainder produces byte-identical artifacts;
//! * a sweep that loses cells degrades gracefully: the outcome still
//!   carries the partial matrix with a "Failed cells" section naming
//!   each quarantined or diverged cell, and the CLI exits nonzero
//!   without aborting the batch.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once};

use cmpsim_engine::par::{num_threads, panic_message, par_map_with_threads, ItemPanic};
use cmpsim_engine::rng::splitmix64;
use cmpsim_engine::{Cycle, FaultPlan, WallDeadline};
use cmpsim_protocols::ProtocolKind;
use cmpsim_workloads::Benchmark;

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::manifest::RunManifest;
use crate::progress::ProgressSink;
use crate::replay::{config_from_json, config_to_json, Value};
use crate::result::{ArchState, RunResult};
use crate::sim::run_benchmark_with_store;
use crate::snapshot::SnapshotStore;

/// Schema tag of every sweep-journal line.
pub const SWEEP_SCHEMA: &str = "cmpsim-sweep-v1";

/// Error code for a cell whose worker panicked (no [`SimError`] variant
/// exists for panics — they are bugs, quarantined immediately).
pub const PANIC_CODE: &str = "E-PANIC";

/// Error code for a planned cell whose golden twin did not finish, so
/// there is nothing to judge it against.
pub const GOLDEN_CODE: &str = "E-GOLDEN";

/// Most plans one `mode@A..B` range may name.
const MAX_RANGE: u64 = 4096;

/// Parses a comma-separated plan list: `none` (fault-free),
/// `recoverable[@SEED]`, `chaos[@SEED]`, or a seed range `MODE@A..B`
/// naming the plans with seeds `A` up to but excluding `B`.
pub fn parse_plans(list: &str) -> Result<Vec<Option<FaultPlan>>, String> {
    let mut plans = Vec::new();
    for item in list.split(',') {
        let range = item.split_once('@').and_then(|(m, r)| Some((m, r.split_once("..")?)));
        let Some((mode, (lo, hi))) = range else {
            plans.push((item != "none").then(|| FaultPlan::parse(item)).transpose()?);
            continue;
        };
        let bad = |why: &str| format!("bad plan range {item:?} ({why})");
        let lo: u64 = lo.parse().map_err(|_| bad("want MODE@FIRST..END"))?;
        let hi: u64 = hi.parse().map_err(|_| bad("want MODE@FIRST..END"))?;
        if hi <= lo {
            return Err(bad("empty: END must exceed FIRST"));
        }
        if hi - lo > MAX_RANGE {
            return Err(bad(&format!("more than {MAX_RANGE} plans")));
        }
        for seed in lo..hi {
            plans.push(Some(FaultPlan::parse(&format!("{mode}@{seed}"))?));
        }
    }
    Ok(plans)
}

/// What to sweep: the cross product of protocols, benchmarks, seeds and
/// fault plans over one base configuration.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Protocols to run.
    pub protocols: Vec<ProtocolKind>,
    /// Benchmarks to run.
    pub benchmarks: Vec<Benchmark>,
    /// Seeds to run (empty means "the base config's seed").
    pub seeds: Vec<u64>,
    /// Fault plans to run (`None` = fault-free; empty means "the base
    /// config's plan"). When any plan is set, the cells expand with
    /// the fault-free plan first unless it is listed already: it gives
    /// every planned cell its golden twin.
    pub plans: Vec<Option<FaultPlan>>,
    /// Everything else (chip, refs, watchdog knobs, ...).
    pub base: SystemConfig,
}

impl SweepSpec {
    /// The `benchmarks x protocols` matrix over `base`, with no seeds
    /// and no plans: every cell runs under `base`'s own seed and plan.
    pub fn matrix(
        protocols: &[ProtocolKind],
        benchmarks: &[Benchmark],
        base: &SystemConfig,
    ) -> Self {
        Self {
            protocols: protocols.to_vec(),
            benchmarks: benchmarks.to_vec(),
            seeds: Vec::new(),
            plans: Vec::new(),
            base: base.clone(),
        }
    }

    /// Expands the spec into cells in deterministic (plan, seed,
    /// benchmark, protocol) row-major order, computing each cell's
    /// manifest, marking duplicates (same `run_id`) as dedups of their
    /// first occurrence, and pointing each planned cell at its golden
    /// twin.
    pub fn expand(&self) -> Vec<SweepCell> {
        let seeds: &[u64] =
            if self.seeds.is_empty() { &[self.base.seed] } else { &self.seeds };
        let mut plans = self.plans.clone();
        if plans.iter().any(Option::is_some) && !plans.contains(&None) {
            plans.insert(0, None);
        }
        if plans.is_empty() {
            plans.push(self.base.fault_plan.clone());
        }
        let mut cells = Vec::new();
        let mut first_by_run_id: HashMap<String, usize> = HashMap::new();
        for plan in &plans {
            for &seed in seeds {
                for &benchmark in &self.benchmarks {
                    for &protocol in &self.protocols {
                        let cfg = self
                            .base
                            .clone()
                            .with_seed(seed)
                            .with_fault_plan(plan.clone());
                        let manifest = RunManifest::new(protocol, benchmark, &cfg);
                        let index = cells.len();
                        let dedup_of =
                            first_by_run_id.entry(manifest.run_id.clone()).or_insert(index);
                        let dedup_of = (*dedup_of != index).then_some(*dedup_of);
                        cells.push(SweepCell {
                            index,
                            protocol,
                            benchmark,
                            seed,
                            plan: plan.clone(),
                            cfg,
                            manifest,
                            dedup_of,
                            golden: None,
                        });
                    }
                }
            }
        }
        if plans.contains(&None) {
            for c in &mut cells {
                if c.plan.is_some() {
                    let twin = c.cfg.clone().with_fault_plan(None);
                    let run_id = RunManifest::new(c.protocol, c.benchmark, &twin).run_id;
                    c.golden = first_by_run_id.get(&run_id).copied();
                }
            }
        }
        cells
    }
}

/// One expanded cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the expanded cell list (stable across resume: the
    /// expansion order is deterministic).
    pub index: usize,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Benchmark under test.
    pub benchmark: Benchmark,
    /// Seed this cell runs under.
    pub seed: u64,
    /// Fault plan this cell runs under, if any.
    pub plan: Option<FaultPlan>,
    /// The cell's full configuration (base + seed + plan).
    pub cfg: SystemConfig,
    /// Provenance manifest; `manifest.run_id` keys the cell's artifact.
    pub manifest: RunManifest,
    /// When another cell with the same `run_id` precedes this one, its
    /// index: this cell never dispatches, it shares that artifact.
    pub dedup_of: Option<usize>,
    /// For a planned cell of a spec with plans, the index of its golden
    /// twin, the fault-free cell it is judged against.
    pub golden: Option<usize>,
}

impl SweepCell {
    /// Human-readable cell name for journals and reports.
    pub fn name(&self) -> String {
        let mut s = format!("{}/{}@{}", self.protocol.name(), self.benchmark.name(), self.seed);
        if let Some(p) = &self.plan {
            s.push('+');
            s.push_str(&p.spec());
        }
        s
    }

    /// File name of the cell's metrics artifact (under the sweep's
    /// `out_dir`), keyed by content-hash run id.
    pub fn artifact_name(&self) -> String {
        format!("{}.metrics.json", self.manifest.run_id)
    }

    /// Runs the cell once on the calling thread.
    pub fn run(&self, store: Option<&SnapshotStore>) -> Result<RunResult, SimError> {
        run_benchmark_with_store(self.protocol, self.benchmark, &self.cfg, store)
    }

    /// The cell's name in the live progress stream: `protocol/benchmark`,
    /// prefixed with `plan:` when it runs under a fault plan.
    fn progress_name(&self) -> String {
        let cell = format!("{}/{}", self.protocol.name(), self.benchmark.name());
        match &self.plan {
            Some(p) => format!("{}:{cell}", p.spec()),
            None => cell,
        }
    }
}

/// Host-side knobs of every cell-executing entry point, all defaulted.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Worker-pool size (`None` = one per host core).
    pub threads: Option<usize>,
    /// Shared snapshot store: cells sharing a snapshot key warm up once
    /// and the rest fork from the captured image (`None` = all cold).
    pub store: Option<&'a SnapshotStore>,
    /// Live telemetry: one line per finished cell in completion order,
    /// then a `finish` line.
    pub progress: Option<&'a ProgressSink>,
}

/// What a finished cell reports to the progress stream: a short status
/// tag and its run's host events and events/s (0 when unknown).
pub(crate) type Heartbeat = (&'static str, u64, f64);

/// The heartbeat of one simulated run.
pub(crate) fn run_heartbeat(r: &Result<RunResult, SimError>) -> Heartbeat {
    match r {
        Ok(r) => ("ok", r.host.events, r.host.events_per_sec()),
        Err(e) => (e.kind_label(), 0, 0.0),
    }
}

thread_local! {
    /// True while this thread runs a cell body under [`run_cells`].
    static IN_CELL: Cell<bool> = const { Cell::new(false) };
}

/// Installs, once per process, a panic hook that stays quiet while the
/// panicking thread is inside a cell: [`run_cells`] catches that panic
/// and records its message as the cell's `E-PANIC`, so the default
/// hook's `panicked at` line and backtrace would only be noise. Every
/// other panic goes to the hook that was installed before.
fn quiet_cell_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_CELL.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Runs `body` with [`IN_CELL`] set, restoring the old value after.
fn in_cell<R>(body: impl FnOnce() -> R) -> R {
    let outer = IN_CELL.with(|c| c.replace(true));
    let r = body();
    IN_CELL.with(|c| c.set(outer));
    r
}

/// The one cell executor: runs `body` on every cell on a bounded worker
/// pool, each under `catch_unwind`, and reports each finished cell's
/// `heartbeat` to `opts.progress`. Results come back in cell order; a
/// panicking body is that cell's `Err`, and its siblings still run.
pub(crate) fn run_cells<C, R>(
    cells: &[C],
    opts: RunOptions<'_>,
    body: impl Fn(&SweepCell) -> R + Sync,
    heartbeat: impl Fn(&R) -> Heartbeat + Sync,
) -> Vec<Result<R, ItemPanic>>
where
    C: std::borrow::Borrow<SweepCell> + Sync,
    R: Send,
{
    let threads = opts.threads.unwrap_or_else(num_threads);
    quiet_cell_panics();
    let results = par_map_with_threads(cells, threads, |c| {
        let cell = c.borrow();
        let r = in_cell(|| panic::catch_unwind(AssertUnwindSafe(|| body(cell))))
            .map_err(|p| ItemPanic { message: panic_message(p) });
        if let Some(sink) = opts.progress {
            let (status, events, rate) = r.as_ref().map_or((PANIC_CODE, 0, 0.0), &heartbeat);
            sink.cell_done(&cell.progress_name(), status, events, rate);
        }
        r
    });
    if let Some(sink) = opts.progress {
        sink.finish();
    }
    results
}

/// Runs every (protocol, benchmark) pair of the given lists under `cfg`,
/// returning results in row-major order (`benchmarks x protocols`). The
/// first failing cell's error is returned (its replay artifact is still
/// written); a panicking cell re-raises once every cell has finished.
pub fn run_matrix(
    protocols: &[ProtocolKind],
    benchmarks: &[Benchmark],
    cfg: &SystemConfig,
    opts: RunOptions<'_>,
) -> Result<Vec<RunResult>, SimError> {
    let cells = SweepSpec::matrix(protocols, benchmarks, cfg).expand();
    let results: Result<Vec<_>, ItemPanic> =
        run_cells(&cells, opts, |c| c.run(opts.store), run_heartbeat).into_iter().collect();
    results.unwrap_or_else(|p| panic::panic_any(p.message)).into_iter().collect()
}

/// A deliberately broken cell, for exercising the containment paths in
/// tests and CI without hunting for a real defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Injection {
    /// The worker panics inside the cell (→ quarantined, `E-PANIC`).
    Panic {
        /// Target cell index.
        cell: usize,
    },
    /// The cell hangs past the per-cell deadline on every attempt
    /// (→ retried as `E-TIMEOUT`, then quarantined).
    Hang {
        /// Target cell index.
        cell: usize,
    },
    /// The cell fails with a synthetic transient `E-TIMEOUT` on its
    /// first `failures` attempts, then runs normally (→ retried to
    /// success).
    Flaky {
        /// Target cell index.
        cell: usize,
        /// Attempts that fail before the cell runs clean.
        failures: u32,
    },
}

impl Injection {
    /// Parses `panic@IDX`, `hang@IDX` or `flaky@IDX[:N]` (N defaults
    /// to 1).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, rest) = spec
            .split_once('@')
            .ok_or_else(|| format!("bad injection {spec:?} (want kind@cell)"))?;
        let bad = |what: &str| format!("bad injection {spec:?} ({what})");
        match kind {
            "panic" => Ok(Injection::Panic {
                cell: rest.parse().map_err(|_| bad("cell index"))?,
            }),
            "hang" => Ok(Injection::Hang {
                cell: rest.parse().map_err(|_| bad("cell index"))?,
            }),
            "flaky" => {
                let (cell, failures) = match rest.split_once(':') {
                    Some((c, n)) => (
                        c.parse().map_err(|_| bad("cell index"))?,
                        n.parse().map_err(|_| bad("failure count"))?,
                    ),
                    None => (rest.parse().map_err(|_| bad("cell index"))?, 1),
                };
                Ok(Injection::Flaky { cell, failures })
            }
            other => Err(format!("unknown injection kind {other:?} (panic|hang|flaky)")),
        }
    }

    /// Spec string that round-trips through [`Injection::parse`].
    pub fn spec(&self) -> String {
        match self {
            Injection::Panic { cell } => format!("panic@{cell}"),
            Injection::Hang { cell } => format!("hang@{cell}"),
            Injection::Flaky { cell, failures } => format!("flaky@{cell}:{failures}"),
        }
    }

    fn cell(&self) -> usize {
        match self {
            Injection::Panic { cell } | Injection::Hang { cell } => *cell,
            Injection::Flaky { cell, .. } => *cell,
        }
    }
}

/// Execution knobs of one sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker-pool size (`None` = one per host core).
    pub threads: Option<usize>,
    /// Directory cell artifacts are written into (created if missing).
    pub out_dir: PathBuf,
    /// Path of the NDJSON sweep journal.
    pub journal: PathBuf,
    /// Per-cell wall-clock deadline in milliseconds (`None` = no
    /// deadline; only the simulated-time watchdog applies).
    pub deadline_ms: Option<u64>,
    /// Retry budget for transient failures (0 = quarantine on first
    /// failure, like deterministic ones).
    pub retries: u32,
    /// Exponential-backoff base in milliseconds: attempt `k` sleeps
    /// `backoff_ms * 2^(k-1)` plus deterministic jitter in
    /// `[0, backoff_ms)`, capped at 5 s.
    pub backoff_ms: u64,
    /// Disk-backed snapshot store for warm-state forking (`None` = a
    /// process-local in-memory store).
    pub snapshot_dir: Option<PathBuf>,
    /// Deliberately broken cells (tests / CI).
    pub injections: Vec<Injection>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            threads: None,
            out_dir: PathBuf::from("sweep-out"),
            journal: PathBuf::from("sweep-out/sweep.ndjson"),
            deadline_ms: None,
            retries: 2,
            backoff_ms: 100,
            snapshot_dir: None,
            injections: Vec::new(),
        }
    }
}

/// Typed failure of one cell (panics included), as recorded in the
/// journal and the report.
#[derive(Debug, Clone)]
pub struct CellError {
    /// Stable machine-readable code: a [`SimError::code`] or
    /// [`PANIC_CODE`].
    pub code: String,
    /// One-line human-readable description.
    pub message: String,
    /// Crash-dump replay artifact, when one was written.
    pub artifact: Option<PathBuf>,
    /// Whether the retry policy applies (see [`SimError::is_transient`];
    /// panics never are).
    pub transient: bool,
}

impl CellError {
    fn from_sim(e: &SimError) -> Self {
        Self {
            code: e.code().to_string(),
            message: e.to_string().lines().next().unwrap_or("simulation failed").to_string(),
            artifact: e.artifact().map(Path::to_path_buf),
            transient: e.is_transient(),
        }
    }
}

/// Terminal state of one cell after the sweep.
#[derive(Debug, Clone)]
pub enum CellState {
    /// Artifact produced (or reused); a planned cell's end state equals
    /// its golden twin's. `attempts` counts executions of this cell
    /// itself (0 when deduped or cached).
    Done {
        /// Attempts this cell consumed.
        attempts: u32,
        /// Path of the metrics artifact.
        artifact: PathBuf,
        /// A pre-existing artifact with this run id was reused.
        cached: bool,
        /// The cell shares the artifact of this earlier identical cell.
        dedup_of: Option<usize>,
    },
    /// A planned cell ended in a typed error with a crash dump: its
    /// plan's faults were unrecoverable, an outcome the contract allows.
    Faulted {
        /// Attempts this cell consumed.
        attempts: u32,
        /// The error; `artifact` is the crash dump.
        error: CellError,
    },
    /// A planned cell completed, but its end state differs from its
    /// golden twin's: silent corruption, always a violation.
    Diverged {
        /// Attempts this cell consumed.
        attempts: u32,
        /// Path of the divergent run's metrics artifact.
        artifact: PathBuf,
        /// Index of the golden twin.
        golden: usize,
        /// Every mismatched field ([`ArchState::divergence`]).
        detail: String,
    },
    /// Quarantined with a typed error after `attempts` executions.
    Quarantined {
        /// Attempts this cell consumed before quarantine.
        attempts: u32,
        /// The final error.
        error: CellError,
    },
}

impl CellState {
    /// Short status word, also the state's journal event.
    pub fn status(&self) -> &'static str {
        match self {
            CellState::Done { .. } => "done",
            CellState::Faulted { .. } => "faulted",
            CellState::Diverged { .. } => "diverged",
            CellState::Quarantined { .. } => "quarantined",
        }
    }

    /// Whether the cell meets the sweep's contract: done, or faulted
    /// with a replayable crash dump.
    pub fn ok(&self) -> bool {
        matches!(self, CellState::Done { .. } | CellState::Faulted { .. })
    }

    fn attempts(&self) -> u32 {
        match self {
            CellState::Done { attempts, .. }
            | CellState::Faulted { attempts, .. }
            | CellState::Diverged { attempts, .. }
            | CellState::Quarantined { attempts, .. } => *attempts,
        }
    }

    /// The file the state stands on (metrics artifact or crash dump);
    /// a resume re-dispatches the cell when it is gone.
    fn artifact(&self) -> Option<&Path> {
        match self {
            CellState::Done { artifact, .. } | CellState::Diverged { artifact, .. } => {
                Some(artifact)
            }
            CellState::Faulted { error, .. } => error.artifact.as_deref(),
            CellState::Quarantined { .. } => None,
        }
    }

    /// The state a dedup of this cell, the primary at `primary`,
    /// inherits.
    fn inherited(&self, primary: usize) -> CellState {
        match self.clone() {
            CellState::Done { artifact, .. } => {
                CellState::Done { attempts: 0, artifact, cached: false, dedup_of: Some(primary) }
            }
            CellState::Faulted { error, .. } => CellState::Faulted { attempts: 0, error },
            CellState::Diverged { artifact, golden, detail, .. } => {
                CellState::Diverged { attempts: 0, artifact, golden, detail }
            }
            CellState::Quarantined { error, .. } => CellState::Quarantined { attempts: 0, error },
        }
    }
}

/// Result of [`run_sweep`] / [`resume_sweep`].
#[derive(Debug)]
pub struct SweepOutcome {
    /// The expanded cells, in order.
    pub cells: Vec<SweepCell>,
    /// Terminal state of each cell (parallel to `cells`).
    pub states: Vec<CellState>,
    /// Cells this invocation skipped because the journal already showed
    /// them terminal (resume only).
    pub skipped: usize,
    /// The directory the cells' artifacts went to.
    pub out_dir: PathBuf,
}

impl SweepOutcome {
    /// True when every cell is done or faulted.
    pub fn ok(&self) -> bool {
        self.states.iter().all(CellState::ok)
    }

    /// The cells breaking the contract (quarantined or diverged), in
    /// order.
    pub fn violations(&self) -> Vec<(&SweepCell, &CellState)> {
        self.cells.iter().zip(&self.states).filter(|(_, s)| !s.ok()).collect()
    }

    /// Number of cells whose [`CellState::status`] is `status`.
    pub fn count(&self, status: &str) -> usize {
        self.states.iter().filter(|s| s.status() == status).count()
    }

    /// Canonical `(index, status)` set for replay-equivalence checks:
    /// faulted and quarantined cells carry their E-code.
    pub fn state_set(&self) -> Vec<(usize, String)> {
        self.cells
            .iter()
            .zip(&self.states)
            .map(|(c, s)| match s {
                CellState::Faulted { error, .. } | CellState::Quarantined { error, .. } => {
                    (c.index, format!("{}:{}", s.status(), error.code))
                }
                _ => (c.index, s.status().to_string()),
            })
            .collect()
    }

    /// The partial matrix report: summary, per-cell table, and — when
    /// cells were lost — a "Failed cells" section naming each
    /// quarantined cell and its E-code and each diverged cell and its
    /// mismatch.
    pub fn report_markdown(&self) -> String {
        let mut md =
            format!("# Sweep report\n\n{} cells: {} done", self.cells.len(), self.count("done"));
        for status in ["faulted", "diverged"] {
            match self.count(status) {
                0 => {}
                n => md.push_str(&format!(", {n} {status}")),
            }
        }
        md.push_str(&format!(
            ", {} quarantined{}\n\n",
            self.count("quarantined"),
            if self.ok() { " — complete" } else { " — PARTIAL" },
        ));
        md.push_str("| cell | name | run_id | status | attempts | detail |\n");
        md.push_str("|-----:|------|--------|--------|---------:|--------|\n");
        for (c, s) in self.cells.iter().zip(&self.states) {
            let detail = match s {
                CellState::Done { cached, dedup_of, .. } => match (dedup_of, cached) {
                    (Some(i), _) => format!("dedup of cell {i}"),
                    (None, true) => "cached artifact".to_string(),
                    (None, false) => String::new(),
                },
                CellState::Faulted { error, .. } | CellState::Quarantined { error, .. } => {
                    error.code.clone()
                }
                CellState::Diverged { golden, .. } => format!("golden cell {golden}"),
            };
            md.push_str(&format!(
                "| {} | {} | `{}` | {} | {} | {} |\n",
                c.index,
                c.name(),
                c.manifest.run_id,
                s.status(),
                s.attempts(),
                detail
            ));
        }
        let failed = self.violations();
        if !failed.is_empty() {
            md.push_str("\n## Failed cells\n\n");
            for (c, s) in &failed {
                let (what, path) = match s {
                    CellState::Diverged { artifact, golden, detail, .. } => (
                        format!("**diverged** from golden cell {golden} — {detail}"),
                        Some(format!(" (metrics: `{}`)", artifact.display())),
                    ),
                    CellState::Faulted { error, .. } | CellState::Quarantined { error, .. } => (
                        format!("**{}** — {}", error.code, error.message),
                        error
                            .artifact
                            .as_ref()
                            .map(|p| format!(" (crash dump: `{}`)", p.display())),
                    ),
                    CellState::Done { .. } => continue,
                };
                md.push_str(&format!(
                    "- cell {} `{}` (run `{}`): {what}{}\n",
                    c.index,
                    c.name(),
                    c.manifest.run_id,
                    path.unwrap_or_default(),
                ));
            }
        }
        md
    }
}

/// Append-only NDJSON journal with per-line flush, shared by the worker
/// pool behind a mutex. Lines are self-describing (`schema` + `event`)
/// so a torn trailing line from a `kill -9` is detectable and ignorable
/// on resume.
struct Journal {
    file: Mutex<std::fs::File>,
}

impl Journal {
    fn create(path: &Path) -> Result<Self, String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        Ok(Self { file: Mutex::new(file) })
    }

    fn append(path: &Path) -> Result<Self, String> {
        // Terminate a torn trailing line (kill -9 mid-write) before
        // appending, so the first new event starts on its own line.
        let torn = std::fs::read(path)
            .map(|b| !b.is_empty() && *b.last().unwrap() != b'\n')
            .unwrap_or(false);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot append to journal {}: {e}", path.display()))?;
        if torn {
            let _ = file.write_all(b"\n");
        }
        Ok(Self { file: Mutex::new(file) })
    }

    fn emit(&self, v: Value) {
        let mut line = String::new();
        v.render_compact_to(&mut line);
        line.push('\n');
        let mut f = self.file.lock().unwrap();
        // Failure to journal must not kill the sweep; the journal is
        // the recovery aid, not the result.
        let _ = f.write_all(line.as_bytes());
        let _ = f.flush();
    }
}

fn event(kind: &str) -> Value {
    let mut j = Value::object();
    j.set("schema", Value::string(SWEEP_SCHEMA));
    j.set("event", Value::string(kind));
    j
}

fn opt_path(p: &Option<PathBuf>) -> Value {
    match p {
        Some(p) => Value::string(&p.display().to_string()),
        None => Value::Null,
    }
}

fn start_event(spec: &SweepSpec, opts: &SweepOptions, cells: &[SweepCell]) -> Value {
    let mut j = event("start");
    j.set("tool", Value::string("cmpsim"));
    j.set("tool_version", Value::string(env!("CARGO_PKG_VERSION")));
    let mut canon = String::new();
    config_to_json(&spec.base).render_to(&mut canon);
    j.set(
        "config_digest",
        Value::string(&crate::manifest::hex16(crate::manifest::digest(canon.as_bytes()))),
    );
    j.set("config", config_to_json(&spec.base));
    j.set(
        "protocols",
        Value::Arr(spec.protocols.iter().map(|p| Value::string(p.name())).collect()),
    );
    j.set(
        "benchmarks",
        Value::Arr(spec.benchmarks.iter().map(|b| Value::string(b.name())).collect()),
    );
    j.set("seeds", Value::Arr(spec.seeds.iter().map(|&s| Value::uint(s)).collect()));
    j.set(
        "plans",
        Value::Arr(
            spec.plans
                .iter()
                .map(|p| p.as_ref().map_or(Value::Null, |p| Value::string(&p.spec())))
                .collect(),
        ),
    );
    j.set("out_dir", Value::string(&opts.out_dir.display().to_string()));
    j.set(
        "deadline_ms",
        opts.deadline_ms.map_or(Value::Null, Value::uint),
    );
    j.set("retries", Value::uint(opts.retries as u64));
    j.set("backoff_ms", Value::uint(opts.backoff_ms));
    j.set("snapshot_dir", opt_path(&opts.snapshot_dir));
    j.set(
        "injections",
        Value::Arr(opts.injections.iter().map(|i| Value::string(&i.spec())).collect()),
    );
    j.set("cells", Value::uint(cells.len() as u64));
    j
}

/// Runs a fresh sweep: expands the spec, writes the journal `start` and
/// per-cell `queued` lines, executes every unique cell on the worker
/// pool and returns the full outcome (including quarantined cells — the
/// caller decides the exit code from [`SweepOutcome::ok`]).
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let cells = spec.expand();
    if cells.is_empty() {
        return Err("sweep expands to zero cells".to_string());
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let journal = Journal::create(&opts.journal)?;
    journal.emit(start_event(spec, opts, &cells));
    for c in &cells {
        let mut j = event("queued");
        j.set("cell", Value::uint(c.index as u64));
        j.set("name", Value::string(&c.name()));
        j.set("run_id", Value::string(&c.manifest.run_id));
        j.set("dedup_of", c.dedup_of.map_or(Value::Null, |i| Value::uint(i as u64)));
        journal.emit(j);
    }
    execute(cells, HashMap::new(), opts, &journal)
}

/// Resumes a sweep from its journal after a crash or kill: cells whose
/// terminal state (with an existing artifact) is already journaled are
/// skipped; queued and in-flight cells are re-dispatched. New events
/// append to the same journal. `threads` overrides the worker-pool
/// size (a host-side knob; everything else comes from the journal).
pub fn resume_sweep(journal_path: &Path, threads: Option<usize>) -> Result<SweepOutcome, String> {
    let text = std::fs::read_to_string(journal_path)
        .map_err(|e| format!("cannot read journal {}: {e}", journal_path.display()))?;
    let parsed = parse_journal(&text)?;
    let mut opts = parsed.options;
    opts.journal = journal_path.to_path_buf();
    if threads.is_some() {
        opts.threads = threads;
    }
    let cells = parsed.spec.expand();
    if cells.len() != parsed.cell_count {
        return Err(format!(
            "journal names {} cells but the spec expands to {} — journal corrupted?",
            parsed.cell_count,
            cells.len()
        ));
    }
    // A plan the journal's `mode@seed` spec cannot carry (tuned rates,
    // timeout or retry cap) re-expands to other run ids: the journaled
    // states then belong to other cells, so nothing may be resumed.
    for c in &cells {
        match parsed.run_ids.get(&c.index) {
            Some(queued) if *queued != c.manifest.run_id => {
                return Err(format!(
                    "journal cell {} ({}) was queued as run {queued} but its spec re-expands \
                     to run {} — the journal cannot reproduce this sweep's plans",
                    c.index,
                    c.name(),
                    c.manifest.run_id
                ));
            }
            _ => {}
        }
    }
    // Trust a terminal state only when the file it stands on is
    // actually present; a missing file (deleted out-of-band)
    // re-dispatches the cell.
    let mut terminal = parsed.terminal;
    terminal.retain(|&i, s| i < cells.len() && s.artifact().is_none_or(Path::is_file));
    let journal = Journal::append(journal_path)?;
    let mut j = event("resume");
    j.set("skipped", Value::uint(terminal.len() as u64));
    journal.emit(j);
    execute(cells, terminal, &opts, &journal)
}

/// Everything [`resume_sweep`] recovers from a journal.
pub struct JournalState {
    /// The sweep spec, reconstructed from the `start` line.
    pub spec: SweepSpec,
    /// The execution options, reconstructed from the `start` line.
    pub options: SweepOptions,
    /// Cell count recorded at start (consistency check).
    pub cell_count: usize,
    /// Last journaled *terminal* state per cell index.
    pub terminal: HashMap<usize, CellState>,
    /// Run id per cell index, from the `queued` lines.
    pub run_ids: HashMap<usize, String>,
}

/// Parses a sweep journal. Unparsable lines (torn tail after `kill -9`)
/// are skipped; only the `start` line is mandatory.
pub fn parse_journal(text: &str) -> Result<JournalState, String> {
    let mut lines = text.lines();
    let start = loop {
        let line = lines.next().ok_or("journal has no start event")?;
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| format!("bad journal start line: {e}"))?;
        if v.field("schema")?.as_str()? != SWEEP_SCHEMA {
            return Err(format!(
                "not a {SWEEP_SCHEMA} journal (schema {:?})",
                v.field("schema")?.as_str()?
            ));
        }
        if v.field("event")?.as_str()? != "start" {
            return Err("journal does not begin with a start event".to_string());
        }
        break v;
    };

    let base = config_from_json(start.field("config")?)?;
    let str_list = |field: &str| -> Result<Vec<String>, String> {
        match start.field(field)? {
            Value::Arr(items) => {
                items.iter().map(|v| Ok(v.as_str()?.to_string())).collect()
            }
            _ => Err(format!("journal field {field:?} is not an array")),
        }
    };
    let protocols = str_list("protocols")?
        .iter()
        .map(|n| {
            ProtocolKind::from_name(n).ok_or_else(|| format!("unknown protocol {n:?} in journal"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let benchmarks = str_list("benchmarks")?
        .iter()
        .map(|n| {
            Benchmark::from_name(n).ok_or_else(|| format!("unknown benchmark {n:?} in journal"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let seeds = match start.field("seeds")? {
        Value::Arr(items) => items.iter().map(|v| v.as_u64()).collect::<Result<Vec<_>, _>>()?,
        _ => return Err("journal field \"seeds\" is not an array".to_string()),
    };
    let plans = match start.field("plans")? {
        Value::Arr(items) => items
            .iter()
            .map(|v| match v {
                Value::Null => Ok(None),
                other => FaultPlan::parse(other.as_str()?).map(Some),
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("journal field \"plans\" is not an array".to_string()),
    };
    let spec = SweepSpec { protocols, benchmarks, seeds, plans, base };

    let injections = str_list("injections")?
        .iter()
        .map(|s| Injection::parse(s))
        .collect::<Result<Vec<_>, _>>()?;
    let options = SweepOptions {
        threads: None,
        out_dir: PathBuf::from(start.field("out_dir")?.as_str()?),
        journal: PathBuf::new(), // caller fills in
        deadline_ms: match start.field("deadline_ms")? {
            Value::Null => None,
            other => Some(other.as_u64()?),
        },
        retries: narrow(start.field("retries")?, "retries")?,
        backoff_ms: start.field("backoff_ms")?.as_u64()?,
        snapshot_dir: match start.field("snapshot_dir")? {
            Value::Null => None,
            other => Some(PathBuf::from(other.as_str()?)),
        },
        injections,
    };
    let cell_count = narrow(start.field("cells")?, "cells")?;

    let mut terminal: HashMap<usize, CellState> = HashMap::new();
    let mut run_ids: HashMap<usize, String> = HashMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        // A torn or foreign line is skipped, not fatal: the journal is
        // append-only and the writer can die mid-line.
        let Ok(v) = Value::parse(line) else { continue };
        let (Ok(ev), Ok(cell)) = (
            v.field("event").and_then(|e| e.as_str()),
            v.field("cell").and_then(|c| c.as_u64()).map(|c| c as usize),
        ) else {
            continue;
        };
        let attempts =
            v.field("attempt").and_then(|a| a.as_u64()).unwrap_or(0) as u32;
        let text = |name: &str| v.field(name).and_then(|x| x.as_str().map(str::to_string));
        let artifact = text("artifact").map(PathBuf::from);
        let error = || CellError {
            code: text("code").unwrap_or_else(|_| "E-UNKNOWN".to_string()),
            message: text("error").unwrap_or_default(),
            artifact: artifact.clone().ok(),
            transient: false,
        };
        let state = match ev {
            "done" => CellState::Done {
                attempts,
                artifact: artifact.unwrap_or_default(),
                cached: v.field("cached").and_then(|c| c.as_bool()).unwrap_or(false),
                dedup_of: v.field("dedup_of").and_then(|d| d.as_u64()).ok().map(|d| d as usize),
            },
            "faulted" => CellState::Faulted { attempts, error: error() },
            "diverged" => CellState::Diverged {
                attempts,
                artifact: artifact.unwrap_or_default(),
                golden: v.field("golden").and_then(|g| g.as_u64()).unwrap_or(0) as usize,
                detail: text("error").unwrap_or_default(),
            },
            "quarantined" => CellState::Quarantined { attempts, error: error() },
            "queued" => {
                if let Ok(run_id) = text("run_id") {
                    run_ids.insert(cell, run_id);
                }
                continue;
            }
            // running / retrying are non-terminal: a crash mid-cell
            // re-dispatches it.
            _ => continue,
        };
        terminal.insert(cell, state);
    }
    Ok(JournalState { spec, options, cell_count, terminal, run_ids })
}

/// A journal integer that must fit `T`: an out-of-range value is a
/// tampered or corrupted journal, never silently truncated.
fn narrow<T: TryFrom<u64>>(v: &Value, field: &str) -> Result<T, String> {
    let n = v.as_u64()?;
    T::try_from(n).map_err(|_| format!("journal field {field:?} is out of range ({n})"))
}

/// The sweep body shared by fresh runs and resumes: dispatches every
/// unique unfinished cell through [`run_cells`] in two waves — first
/// the cells with no golden twin (the twins among them), then the
/// planned cells judged against them — and resolves dedups.
fn execute(
    cells: Vec<SweepCell>,
    terminal: HashMap<usize, CellState>,
    opts: &SweepOptions,
    journal: &Journal,
) -> Result<SweepOutcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let store = match &opts.snapshot_dir {
        Some(dir) => SnapshotStore::with_dir(dir).map_err(|e| e.to_string())?,
        None => SnapshotStore::in_memory(),
    };
    let skipped = terminal.len();
    let mut states: Vec<Option<CellState>> = vec![None; cells.len()];
    for (&i, s) in &terminal {
        states[i] = Some(s.clone());
    }

    // Only primaries dispatch; dedups inherit their primary's outcome.
    let (judged, plain): (Vec<&SweepCell>, Vec<&SweepCell>) = cells
        .iter()
        .filter(|c| c.dedup_of.is_none() && !terminal.contains_key(&c.index))
        .partition(|c| c.golden.is_some());
    let pool = RunOptions { threads: opts.threads, store: Some(&store), progress: None };
    for wave in [plain, judged] {
        let settled = &states;
        let body = |cell: &SweepCell| {
            let golden = cell.golden.map(|g| golden_state(&cells[g], settled[g].as_ref()));
            let state = run_cell(cell, golden, opts, &store, journal);
            journal_terminal(journal, cell, &state);
            state
        };
        let results = run_cells(&wave, pool, body, |s| (s.status(), 0, 0.0));
        for (cell, r) in wave.iter().zip(results) {
            // A panic in the orchestration code itself (not the cell —
            // those are caught in attempt_cell) still quarantines only
            // its cell.
            let state = r.unwrap_or_else(|p| {
                let state = CellState::Quarantined {
                    attempts: 0,
                    error: CellError {
                        code: PANIC_CODE.to_string(),
                        message: p.message,
                        artifact: None,
                        transient: false,
                    },
                };
                journal_terminal(journal, cell, &state);
                state
            });
            states[cell.index] = Some(state);
        }
    }

    // Dedup cells inherit their primary's terminal state.
    for c in &cells {
        if states[c.index].is_some() {
            continue;
        }
        let Some(primary) = c.dedup_of else {
            return Err(format!("cell {} was never dispatched (orchestrator bug)", c.index));
        };
        let Some(state) = states[primary].as_ref().map(|s| s.inherited(primary)) else {
            return Err(format!("cell {} dedups to cell {primary}, which never resolved", c.index));
        };
        journal_terminal(journal, c, &state);
        states[c.index] = Some(state);
    }

    let states: Vec<CellState> =
        states.into_iter().map(|s| s.expect("every cell resolved above")).collect();
    let outcome = SweepOutcome { cells, states, skipped, out_dir: opts.out_dir.clone() };
    let mut fin = event("finish");
    fin.set("completed", Value::uint(outcome.count("done") as u64));
    fin.set("quarantined", Value::uint(outcome.count("quarantined") as u64));
    fin.set("ok", Value::boolean(outcome.ok()));
    journal.emit(fin);
    Ok(outcome)
}

fn journal_terminal(journal: &Journal, cell: &SweepCell, state: &CellState) {
    let mut j = event(state.status());
    j.set("cell", Value::uint(cell.index as u64));
    j.set("attempt", Value::uint(state.attempts() as u64));
    j.set("run_id", Value::string(&cell.manifest.run_id));
    match state {
        CellState::Done { artifact, cached, dedup_of, .. } => {
            j.set("artifact", Value::string(&artifact.display().to_string()));
            j.set("cached", Value::boolean(*cached));
            j.set("dedup_of", dedup_of.map_or(Value::Null, |i| Value::uint(i as u64)));
        }
        CellState::Diverged { artifact, golden, detail, .. } => {
            j.set("artifact", Value::string(&artifact.display().to_string()));
            j.set("golden", Value::uint(*golden as u64));
            j.set("error", Value::string(detail));
        }
        CellState::Faulted { error, .. } | CellState::Quarantined { error, .. } => {
            j.set("code", Value::string(&error.code));
            j.set("error", Value::string(&error.message));
            j.set("artifact", opt_path(&error.artifact));
        }
    }
    journal.emit(j);
}

/// What a planned cell is judged against: its golden `twin`'s end
/// state and cycle count, read from the twin's metrics artifact.
fn golden_state(
    twin: &SweepCell,
    state: Option<&CellState>,
) -> Result<(ArchState, Cycle), CellError> {
    let why = match state {
        Some(CellState::Done { artifact, .. }) => {
            if let Some(found) = artifact_state(artifact, &twin.manifest.run_id) {
                return Ok(found);
            }
            format!("left no readable metrics artifact at {}", artifact.display())
        }
        Some(CellState::Quarantined { error, .. }) => format!("did not finish ({})", error.code),
        _ => "did not finish".to_string(),
    };
    Err(CellError {
        code: GOLDEN_CODE.to_string(),
        message: format!("golden cell {} `{}` {why}", twin.index, twin.name()),
        artifact: None,
        transient: false,
    })
}

/// Runs one primary cell to a terminal state: retry loop, deadline,
/// injections, artifact write, and — for a planned cell — the verdict
/// against its `golden` twin. Never panics (the cell body is caught).
fn run_cell(
    cell: &SweepCell,
    golden: Option<Result<(ArchState, Cycle), CellError>>,
    opts: &SweepOptions,
    store: &SnapshotStore,
    journal: &Journal,
) -> CellState {
    let golden = match golden.transpose() {
        Ok(golden) => golden,
        Err(error) => return CellState::Quarantined { attempts: 0, error },
    };
    let artifact_path = opts.out_dir.join(cell.artifact_name());
    // A completed cell is done unless its end state differs from its
    // golden twin's.
    let settle = |attempts: u32, cached: bool, arch: Option<ArchState>| {
        let artifact = artifact_path.clone();
        match (golden, cell.golden) {
            (Some((twin, _)), Some(golden)) if arch != Some(twin) => CellState::Diverged {
                attempts,
                artifact,
                golden,
                detail: arch
                    .and_then(|a| twin.divergence(&a))
                    .unwrap_or_else(|| "no architectural end state".to_string()),
            },
            _ => CellState::Done { attempts, artifact, cached, dedup_of: None },
        }
    };
    // Run-id ledger dedupe across invocations: an artifact produced by
    // a previous sweep for this exact run id is reused (and judged),
    // not recomputed.
    if let Some((arch, _)) = artifact_state(&artifact_path, &cell.manifest.run_id) {
        return settle(0, true, Some(arch));
    }

    let injections: Vec<&Injection> =
        opts.injections.iter().filter(|i| i.cell() == cell.index).collect();
    let max_attempts = opts.retries.saturating_add(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut j = event("running");
        j.set("cell", Value::uint(cell.index as u64));
        j.set("attempt", Value::uint(attempt as u64));
        journal.emit(j);

        let error = match attempt_cell(cell, &injections, opts, store, attempt) {
            Ok(mut result) => {
                if let Some((_, cycles)) = golden.filter(|(twin, _)| result.arch == Some(*twin)) {
                    result.effective_cycles = Some(cycles);
                }
                match write_artifact(&artifact_path, &result.metrics_json()) {
                    Ok(()) => return settle(attempt, false, result.arch),
                    Err(e) => CellError {
                        code: "E-IO".to_string(),
                        message: e,
                        artifact: None,
                        transient: false,
                    },
                }
            }
            Err(e) => e,
        };

        if error.transient && attempt < max_attempts {
            let backoff = backoff_ms(opts.backoff_ms, cell, attempt);
            let mut j = event("retrying");
            j.set("cell", Value::uint(cell.index as u64));
            j.set("attempt", Value::uint(attempt as u64));
            j.set("code", Value::string(&error.code));
            j.set("error", Value::string(&error.message));
            j.set("backoff_ms", Value::uint(backoff));
            journal.emit(j);
            std::thread::sleep(std::time::Duration::from_millis(backoff));
            continue;
        }
        // A plan's unrecoverable faults end in a typed error with a
        // crash dump; that is an outcome, not a lost cell.
        if cell.plan.is_some() && !error.transient && error.artifact.is_some() {
            return CellState::Faulted { attempts: attempt, error };
        }
        return CellState::Quarantined { attempts: attempt, error };
    }
}

/// Exponential backoff with deterministic jitter: `base * 2^(k-1)` plus
/// a cell/attempt-keyed pseudo-random extra in `[0, base)`, capped at
/// 5 s so a misconfigured base cannot park a worker for minutes.
fn backoff_ms(base: u64, cell: &SweepCell, attempt: u32) -> u64 {
    if base == 0 {
        return 0;
    }
    let exp = base.saturating_mul(1u64 << (attempt - 1).min(12));
    let mut state = cell.cfg.seed ^ (cell.index as u64) << 20 ^ attempt as u64;
    let jitter = splitmix64(&mut state) % base;
    exp.saturating_add(jitter).min(5_000)
}

/// One attempt of one cell: applies injections, arms the per-cell
/// deadline, and catches panics from the simulation body.
fn attempt_cell(
    cell: &SweepCell,
    injections: &[&Injection],
    opts: &SweepOptions,
    store: &SnapshotStore,
    attempt: u32,
) -> Result<RunResult, CellError> {
    // The cell-level clock starts before any injected hang so setup
    // time counts against the deadline too.
    let wall = opts.deadline_ms.map(WallDeadline::new);

    for inj in injections {
        match inj {
            Injection::Panic { .. } => {
                // Caught below like any real worker panic.
            }
            Injection::Hang { .. } => {
                let ms = opts.deadline_ms.map_or(200, |d| d.saturating_add(50));
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Injection::Flaky { failures, .. } => {
                if attempt <= *failures {
                    return Err(CellError {
                        code: "E-TIMEOUT".to_string(),
                        message: format!(
                            "injected transient timeout (attempt {attempt} of {failures} failing)"
                        ),
                        artifact: None,
                        transient: true,
                    });
                }
            }
        }
    }

    // Layered deadline: whatever budget the hang (or slow setup) left
    // becomes the event loop's wall budget. An already-expired budget
    // times out here without simulating at all.
    let mut cfg = cell.cfg.clone();
    if let Some(w) = &wall {
        let remaining = w.budget_ms().saturating_sub(w.elapsed_ms());
        if remaining == 0 {
            return Err(CellError {
                code: "E-TIMEOUT".to_string(),
                message: format!(
                    "cell exceeded its {} ms deadline before the event loop started",
                    w.budget_ms()
                ),
                artifact: None,
                transient: true,
            });
        }
        cfg.wall_deadline_ms = Some(match cfg.wall_deadline_ms {
            Some(own) => own.min(remaining),
            None => remaining,
        });
    }

    // A panic is caught per attempt, so the journal records which
    // attempt died.
    let panics = injections.iter().any(|i| matches!(i, Injection::Panic { .. }));
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        if panics {
            panic!("injected panic in cell {}", cell.index);
        }
        run_benchmark_with_store(cell.protocol, cell.benchmark, &cfg, Some(store))
    }));
    match caught {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e)) => Err(CellError::from_sim(&e)),
        Err(payload) => Err(CellError {
            code: PANIC_CODE.to_string(),
            message: panic_message(payload),
            artifact: None,
            transient: false,
        }),
    }
}

/// The end state and cycle count recorded in the metrics artifact at
/// `path`, when it parses, is stamped with `run_id` and carries every
/// `arch.*` counter — the ledger-reuse check: anything else re-runs
/// the cell.
fn artifact_state(path: &Path, run_id: &str) -> Option<(ArchState, Cycle)> {
    let doc = Value::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    crate::manifest::manifest_of(&doc).filter(|m| m.run_id == run_id)?;
    let cycles = doc.field("counters").ok()?.field("sim.cycles").ok()?.as_u64().ok()?;
    Some((ArchState::from_metrics(&doc)?, cycles))
}

/// Atomic artifact write: temp file + rename, so a killed sweep never
/// leaves a torn artifact that a resume would mistake for a result.
fn write_artifact(path: &Path, body: &str) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, body).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            protocols: vec![ProtocolKind::Directory, ProtocolKind::DiCo],
            benchmarks: vec![Benchmark::Radix],
            seeds: vec![7, 8],
            plans: vec![None],
            base: SystemConfig::smoke(),
        }
    }

    #[test]
    fn expansion_is_deterministic_and_indexed() {
        let a = tiny_spec().expand();
        let b = tiny_spec().expand();
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.manifest.run_id, y.manifest.run_id);
            assert_eq!(x.name(), y.name());
        }
    }

    #[test]
    fn matrix_runs_in_row_major_order() {
        let rs = run_matrix(
            &[ProtocolKind::Directory, ProtocolKind::DiCoArin],
            &[Benchmark::Radix, Benchmark::Apache],
            &SystemConfig::smoke(),
            RunOptions::default(),
        )
        .expect("matrix");
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].protocol, ProtocolKind::Directory);
        assert_eq!(rs[0].benchmark.name(), "radix4x16p");
        assert_eq!(rs[3].protocol, ProtocolKind::DiCoArin);
    }

    #[test]
    fn duplicate_cells_dedup_by_run_id() {
        let mut spec = tiny_spec();
        spec.seeds = vec![7, 7];
        let cells = spec.expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[2].dedup_of, Some(0));
        assert_eq!(cells[3].dedup_of, Some(1));
    }

    #[test]
    fn planned_specs_expand_golden_twins_first() {
        let plans = vec![Some(FaultPlan::recoverable(1)), Some(FaultPlan::chaos(2))];
        let cells = SweepSpec { plans, ..tiny_spec() }.expand();
        assert_eq!(cells.len(), 12, "4 golden twins + 2 plans x 4");
        for c in &cells {
            match &c.plan {
                None => assert_eq!((c.index < 4, c.golden), (true, None)),
                Some(_) => {
                    let twin = &cells[c.golden.expect("planned cells have a twin")];
                    assert_eq!((twin.plan.as_ref(), twin.seed), (None, c.seed));
                    assert_eq!((twin.protocol, twin.benchmark), (c.protocol, c.benchmark));
                }
            }
        }
        // A listed `none` keeps its place and is not doubled.
        let plans = vec![Some(FaultPlan::recoverable(1)), None];
        let cells = SweepSpec { plans, ..tiny_spec() }.expand();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].golden, Some(4));
        // Fault-free specs have no twins.
        assert!(tiny_spec().expand().iter().all(|c| c.golden.is_none()));
    }

    #[test]
    fn plan_ranges_round_trip() {
        let specs = |plans: &[Option<FaultPlan>]| -> String {
            let spec = |p: &Option<FaultPlan>| p.as_ref().map_or("none".to_string(), |p| p.spec());
            plans.iter().map(spec).collect::<Vec<_>>().join(",")
        };
        for (range, list) in [
            ("recoverable@1000..1003", "recoverable@1000,recoverable@1001,recoverable@1002"),
            ("chaos@7..8,none", "chaos@7,none"),
            ("none,recoverable@1,chaos@2000..2002", "none,recoverable@1,chaos@2000,chaos@2001"),
        ] {
            let plans = parse_plans(range).unwrap();
            assert_eq!(specs(&plans), list);
            assert_eq!(parse_plans(list).unwrap(), plans);
        }
        for bad in [
            "recoverable@5..5",
            "recoverable@8..5",
            "chaos@1..18446744073709551616",
            "chaos@0..18446744073709551615",
            "recoverable@..5",
            "recoverable@5..",
            "sometimes@1..3",
            "",
        ] {
            assert!(parse_plans(bad).is_err(), "{bad:?}");
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cmpsim-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn planned_sweep(tag: &str, spec: &SweepSpec) -> SweepOutcome {
        let out_dir = temp_dir(tag);
        let opts =
            SweepOptions { journal: out_dir.join("sweep.ndjson"), out_dir, ..Default::default() };
        run_sweep(spec, &opts).expect("sweep runs")
    }

    #[test]
    fn planned_cell_recovers_and_verifies() {
        let spec = SweepSpec {
            plans: vec![Some(FaultPlan::recoverable(42))],
            ..SweepSpec::matrix(&[ProtocolKind::DiCo], &[Benchmark::Apache], &SystemConfig::smoke())
        };
        let outcome = planned_sweep("verify", &spec);
        let CellState::Done { artifact, .. } = &outcome.states[1] else {
            panic!("expected verified recovery, got {:?}", outcome.states[1])
        };
        let doc = Value::parse(&std::fs::read_to_string(artifact).unwrap()).unwrap();
        let counters = doc.field("counters").unwrap();
        assert!(counters.field("sim.effective_cycles").is_ok());
        assert!(counters.field("noc.faults_injected.total").is_ok());
    }

    #[test]
    fn planned_sweep_smoke_passes() {
        let spec = SweepSpec {
            plans: vec![Some(FaultPlan::recoverable(1)), Some(FaultPlan::recoverable(2))],
            ..SweepSpec::matrix(
                &[ProtocolKind::Directory, ProtocolKind::DiCoArin],
                &[Benchmark::Radix],
                &SystemConfig::smoke(),
            )
        };
        let outcome = planned_sweep("smoke", &spec);
        assert_eq!(outcome.cells.len(), 6);
        assert!(outcome.ok(), "violations: {:?}", outcome.violations());
        assert_eq!(outcome.count("done"), 6);
    }

    #[test]
    fn injection_specs_round_trip() {
        for spec in ["panic@3", "hang@0", "flaky@2:4"] {
            assert_eq!(Injection::parse(spec).unwrap().spec(), spec);
        }
        assert_eq!(Injection::parse("flaky@2").unwrap(), Injection::Flaky { cell: 2, failures: 1 });
        assert!(Injection::parse("explode@1").is_err());
        assert!(Injection::parse("panic").is_err());
    }

    #[test]
    fn tampered_journal_counts_fail_closed() {
        let opts = SweepOptions::default();
        let cells = tiny_spec().expand();
        let mut start = String::new();
        start_event(&tiny_spec(), &opts, &cells).render_compact_to(&mut start);
        assert_eq!(parse_journal(&start).expect("pristine start line").options.retries, 2);
        // 2^32 would truncate to a retry budget of 0.
        assert!(start.contains("\"retries\":2,"), "{start}");
        let tampered = start.replace("\"retries\":2,", "\"retries\":4294967296,");
        let err = parse_journal(&tampered).err().expect("out-of-range retries must fail");
        assert!(err.contains("retries") && err.contains("out of range"), "{err}");
    }

    #[test]
    fn journal_with_an_unbuildable_config_fails_closed() {
        let mut start = String::new();
        start_event(&tiny_spec(), &SweepOptions::default(), &tiny_spec().expand())
            .render_compact_to(&mut start);
        // Zero memory controllers, and a consistent 10x8 chip of four
        // 5x4 areas: more tiles than the 64-bit sharing codes hold.
        let chip_4x4 = [
            "\"areas\":{\"cols\":4,\"rows\":4,\"area_cols\":2,\"area_rows\":2}",
            "\"noc\":{\"cols\":4,\"rows\":4,",
        ];
        let chip_10x8 = [
            "\"areas\":{\"cols\":10,\"rows\":8,\"area_cols\":5,\"area_rows\":4}",
            "\"noc\":{\"cols\":10,\"rows\":8,",
        ];
        for (edits, want) in [
            (vec![("\"mem_controllers\":4,", "\"mem_controllers\":0,")], "mem_controllers"),
            (chip_4x4.into_iter().zip(chip_10x8).collect(), "a 10x8 chip (want 1..=64 tiles)"),
        ] {
            let tampered = edits.iter().fold(start.clone(), |text, &(from, to)| {
                assert!(text.contains(from), "{from} in {text}");
                text.replacen(from, to, 1)
            });
            let err = parse_journal(&tampered).err().expect("an unbuildable config must fail");
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cell = &tiny_spec().expand()[0];
        let b1 = backoff_ms(100, cell, 1);
        let b2 = backoff_ms(100, cell, 2);
        assert!((100..200).contains(&b1), "{b1}");
        assert!((200..300).contains(&b2), "{b2}");
        assert_eq!(backoff_ms(100, cell, 60), 5_000);
        assert_eq!(backoff_ms(0, cell, 3), 0);
        // Deterministic: same inputs, same jitter.
        assert_eq!(b1, backoff_ms(100, cell, 1));
    }
}
