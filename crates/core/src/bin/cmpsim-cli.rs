//! Command-line front end for the simulator, and the one entry point
//! for regenerating the paper's tables, figures and studies.
//!
//! ```text
//! cmpsim-cli run [-p P] [-b B] [--refs N] [--alt] [--seed S] [--max-events N]
//!                [--check] [--faults SPEC] [observers] [--out-dir D]
//!                [--snapshot-dir D]             # one protocol x benchmark cell
//! cmpsim-cli matrix [-b B] [run options except -p] [--threads N]
//!                                               # all four protocols, one benchmark
//! cmpsim-cli report [-b B | --all-benchmarks] [matrix options except --attr]
//!                                               # deterministic Markdown matrix
//!                                               # report: run ledger, Tables V-VII
//!                                               # style, Fig. 7/8 attribution,
//!                                               # tenant breakdown, cross-VM
//!                                               # interference, ASCII mesh heatmaps
//! cmpsim-cli compare A B [--tol F] [--allow-improved] [--out diff.json]
//!                                               # structural diff of two artifact
//!                                               # files or directories / CI
//!                                               # regression gate (nonzero exit)
//! cmpsim-cli tables [5|6|7]                     # Tables V, VI, VII (analytic;
//!                                               # all three by default)
//! cmpsim-cli figures [7|8a|8b|9a|9b|all|csv] [--refs N] [observers] [--out-dir D]
//!                                               # Figures 7-9 from one 32-cell
//!                                               # sweep (default all, 60000 refs)
//! cmpsim-cli study <alt|area|density|ablation|single-app|hops> [--refs N]
//!                  [observers] [--out-dir D]    # side studies: "-alt" placement
//!                                               # (60000 refs), area count,
//!                                               # VM density, prediction/hint
//!                                               # ablation, single application
//!                                               # (20000 refs), §V-D hop counts
//! cmpsim-cli replay <artifact.json> [--check] [--snapshot-dir D]
//!                                               # re-run a crash dump (resumes
//!                                               # from the warmed checkpoint
//!                                               # when one is on disk)
//! cmpsim-cli sweep [-p P[,P..]] [-b B[,B..]] [--seeds S,S..] [--plans SPEC,..]
//!                  [--refs N] [--small|--paper] [--alt] [--out-dir D]
//!                  [--journal F] [--deadline-ms N] [--retries N]
//!                  [--backoff-ms N] [--inject panic@I|hang@I|flaky@I[:N]]...
//!                  [--threads N] [--snapshot-dir D]
//! cmpsim-cli sweep --resume <journal> [--threads N]
//!                                               # resilient job-queue sweep:
//!                                               # per-cell catch_unwind +
//!                                               # deadline, retry w/ backoff,
//!                                               # quarantine, crash-resumable
//!                                               # NDJSON journal, and every
//!                                               # planned cell judged against
//!                                               # its fault-free golden twin;
//!                                               # exits nonzero when cells
//!                                               # were lost or diverged (the
//!                                               # partial report still lists
//!                                               # every failed cell)
//! cmpsim-cli list                               # protocols & benchmarks
//! ```
//!
//! Observers (`run`, `matrix`, `report`, `figures`, `study`) are turned
//! on by what they record, not by which file is wanted:
//!
//! ```text
//! --trace                 record the coherence-transaction trace
//! --interval <cycles>     sample an interval time-series every N cycles
//! --attr                  per-transaction critical-path & energy
//!                         attribution (always on for report)
//! ```
//!
//! Host options, which never change a result:
//!
//! ```text
//! --threads <n>           worker threads for sweeps (default: one per host
//!                         core)
//! --snapshot-dir <dir>    cache warmed-state checkpoints: the first run of a
//!                         configuration snapshots at the warm-up boundary,
//!                         every later run sharing its key forks from the
//!                         image and skips warm-up entirely (results stay
//!                         bit-identical; observer runs — --trace, --check,
//!                         --attr — always run cold)
//! ```
//!
//! `--out-dir D` writes every artifact into one flat directory under one
//! naming rule. `T` is a cell's tag, `{protocol}-{benchmark}[-{variant}]`,
//! and `-V` a study's variant of the configuration (e.g. `-alt`):
//!
//! ```text
//! D/T.metrics.json            the metrics registry        every cell
//! D/T.manifest.json           the run manifest (ledger)   every cell
//! D/T.trace.json              Chrome trace-event JSON     --trace
//! D/T.series.{json,csv}       the interval time-series    --interval
//! D/breakdown[-V].{json,csv}  Fig. 7/8 attribution        attribution ran
//! D/vmstat[-V].json           per-VM stats, interference  attribution ran
//! D/heatmap[-V].{json,csv}    per-tile/per-link counters  every matrix
//! D/report.md                 the Markdown report         report, sweep
//! D/host/T.json               host self-profile           every cell
//! D/host/progress.ndjson      live telemetry              run, matrix, report
//! ```
//!
//! Files under `D/host/` are wall-clock measurements and differ between
//! identical runs; `compare` reads only `D`'s own JSON files, so two runs
//! of one command compare clean. A sweep's `D` holds its journal, one
//! `{run_id}.metrics.json` per cell and `report.md`. Each file written
//! is named on stderr, so stdout does not depend on `--out-dir` (but
//! for `report`, whose Markdown goes to `D/report.md`).
//!
//! Every deterministic JSON artifact (metrics, time-series, trace,
//! breakdown, crash dump) embeds a `manifest` object: a content-hashed
//! `run_id` over (config, protocol, benchmark, seed, fault plan, schema
//! versions) plus the tool version, so any two artifacts can be traced
//! to — and compared against — the exact run that produced them.
//! Every simulating command prints a host self-profile line (wall-clock
//! spans + simulated-cycles/s throughput) to **stderr**, keeping stdout
//! and every artifact deterministic.
//!
//! Fault injection: `--faults recoverable[@SEED]` or `--faults
//! chaos[@SEED]` arms a deterministic fault plan on `run`, `matrix` and
//! `report`. `sweep --plans` fans plans across the protocol x benchmark
//! matrix: a list such as `recoverable@1000,chaos@1001`, or a seed
//! range `recoverable@1000..1008` (seeds 1000 to 1007). Each planned
//! cell runs beside its fault-free golden twin and ends `done` (end
//! state verified bit-identical to the twin's), `faulted` (a typed
//! error with a replayable crash dump) or `diverged`; the sweep exits
//! nonzero on any divergence, panic, golden failure, or typed error
//! lacking a crash dump.
//!
//! Protocols: directory | dico | providers | arin.
//! Benchmarks: apache | jbb | radix | lu | volrend | tomcatv |
//! mixed-com | mixed-sci.
//!
//! Every command parses its arguments through one table-driven parser:
//! an option the command does not read, a missing or malformed value,
//! a zero `--refs`/`--threads` count or an empty `--plans` range exits 2
//! with a one-line `error:`; simulation failures exit 1.
//!
//! A failing `run`/`matrix` writes a JSON replay artifact (path printed
//! with the error); `replay` re-runs it deterministically and reports
//! whether the original failure reproduced at the same cycle.
//! `--check` force-enables the coherence invariant checker during the
//! replay, often turning an end-state deadlock into the first broken
//! invariant.

use cmpsim::report::figures::Sweep;
use cmpsim::report::{
    breakdown_csv, breakdown_energy_table, breakdown_json, breakdown_latency_table,
    markdown_report, studies, table, Runner,
};
use cmpsim::snapshot::key_hex;
use cmpsim::vmstat::{heatmap_csv, heatmap_json, vmstat_json};
use cmpsim::{
    parse_plans, run_matrix, snapshot_eligible, snapshot_key, Benchmark, CellState, CmpSimulator,
    CompareOptions, FaultPlan, Injection, MissClass, Placement, ProgressSink, ProtocolKind,
    ReplayArtifact, RunOptions, RunResult, SimError, SnapshotStore, SweepOptions, SystemConfig,
};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Every option the CLI understands. Which commands accept which is
/// data ([`Command::flags`]); what each one sets is [`Options::set`].
/// Variants sharing a name (`Protocol`/`Protocols`) mean different
/// things to different commands.
#[rustfmt::skip]
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flag {
    // The run family's chip, workload, observers and outputs.
    Protocol, Benchmark, Refs, Seed, Alt, MaxEvents, Check, Faults, Attr, Interval, Trace,
    OutDir, AllBenchmarks, Threads, SnapshotDir,
    // `sweep`.
    Small, Paper, Protocols, Benchmarks, Seeds, Plans, Resume, Journal, DeadlineMs, Retries,
    BackoffMs, Inject,
    // `compare`.
    AllowImproved, Tol, Out,
}

impl Flag {
    /// The spellings of the flag on the command line.
    fn names(self) -> &'static [&'static str] {
        use Flag::*;
        match self {
            Protocol | Protocols => &["--protocol", "-p"],
            Benchmark | Benchmarks => &["--benchmark", "-b"],
            Refs => &["--refs", "-n"],
            Seed => &["--seed", "-s"],
            Seeds => &["--seeds"],
            Alt => &["--alt"],
            Small => &["--small"],
            Paper => &["--paper"],
            MaxEvents => &["--max-events"],
            Check => &["--check"],
            Faults => &["--faults"],
            Attr => &["--attr"],
            Interval => &["--interval"],
            Trace => &["--trace"],
            OutDir => &["--out-dir"],
            AllBenchmarks => &["--all-benchmarks"],
            Threads => &["--threads"],
            SnapshotDir => &["--snapshot-dir"],
            Plans => &["--plans"],
            Resume => &["--resume"],
            Journal => &["--journal"],
            DeadlineMs => &["--deadline-ms"],
            Retries => &["--retries"],
            BackoffMs => &["--backoff-ms"],
            Inject => &["--inject"],
            AllowImproved => &["--allow-improved"],
            Tol => &["--tol"],
            Out => &["--out"],
        }
    }

    /// Whether the flag is a switch rather than taking a value.
    fn is_switch(self) -> bool {
        use Flag::*;
        matches!(self, Alt | Small | Paper | Check | Attr | Trace | AllBenchmarks | AllowImproved)
    }
}

/// `run`: one cell's chip, workload, observers and outputs.
#[rustfmt::skip]
const RUN_FLAGS: &[Flag] = {
    use Flag::*;
    &[
        Protocol, Benchmark, Refs, Seed, Alt, MaxEvents, Check, Faults, Attr, Interval, Trace,
        OutDir, SnapshotDir,
    ]
};

/// `matrix`: every protocol on one benchmark.
#[rustfmt::skip]
const MATRIX_FLAGS: &[Flag] = {
    use Flag::*;
    &[
        Benchmark, Refs, Seed, Alt, MaxEvents, Check, Faults, Attr, Interval, Trace, OutDir,
        Threads, SnapshotDir,
    ]
};

/// `report`: attribution is always on.
#[rustfmt::skip]
const REPORT_FLAGS: &[Flag] = {
    use Flag::*;
    &[
        Benchmark, AllBenchmarks, Refs, Seed, Alt, MaxEvents, Check, Faults, Interval, Trace,
        OutDir, Threads, SnapshotDir,
    ]
};

/// The paper reports (`figures`, `study`).
const PAPER_FLAGS: &[Flag] = {
    use Flag::*;
    &[Refs, Interval, Attr, Trace, OutDir]
};

#[rustfmt::skip]
const SWEEP_FLAGS: &[Flag] = {
    use Flag::*;
    &[
        Resume, Protocols, Benchmarks, Seeds, Plans, Refs, Paper, Small, Alt, OutDir, Journal,
        DeadlineMs, Retries, BackoffMs, Inject, Threads, SnapshotDir,
    ]
};

const COMPARE_FLAGS: &[Flag] = {
    use Flag::*;
    &[AllowImproved, Tol, Out]
};

/// One subcommand: what it accepts and its defaults.
struct Command {
    name: &'static str,
    /// Options the command accepts; any other is rejected.
    flags: &'static [Flag],
    /// Inclusive range of positional arguments.
    args: (usize, usize),
    /// Default `--refs` (`None`: no default, or chosen per selector).
    refs: Option<u64>,
    /// Whether the command simulates the 16-tile `small` chip unless
    /// `--paper` is given.
    small: bool,
    run: fn(Options),
}

const fn command(name: &'static str, flags: &'static [Flag], run: fn(Options)) -> Command {
    Command { name, flags, args: (0, 0), refs: None, small: false, run }
}

const COMMANDS: &[Command] = &[
    Command { refs: Some(20_000), ..command("run", RUN_FLAGS, cmd_run) },
    Command { refs: Some(20_000), ..command("matrix", MATRIX_FLAGS, cmd_matrix) },
    Command { refs: Some(20_000), ..command("report", REPORT_FLAGS, cmd_report) },
    Command { args: (2, 2), ..command("compare", COMPARE_FLAGS, cmd_compare) },
    Command { args: (0, 1), ..command("tables", &[], cmd_tables) },
    Command { args: (0, 1), refs: Some(60_000), ..command("figures", PAPER_FLAGS, cmd_figures) },
    Command { args: (1, 1), ..command("study", PAPER_FLAGS, cmd_study) },
    Command { args: (1, 1), ..command("replay", &[Flag::Check, Flag::SnapshotDir], cmd_replay) },
    Command { refs: Some(800), small: true, ..command("sweep", SWEEP_FLAGS, cmd_sweep) },
    command("list", &[], cmd_list),
];

/// Everything a command line can set. Fields a command's flags cannot
/// reach keep their defaults.
#[derive(Default)]
struct Options {
    /// Positional arguments.
    args: Vec<String>,
    /// The flags given, in order.
    given: Vec<Flag>,
    protocols: Vec<ProtocolKind>,
    benchmarks: Vec<Benchmark>,
    refs: Option<u64>,
    /// Simulation seed override (run family).
    seed: Option<u64>,
    seeds: Vec<u64>,
    small: bool,
    alt: bool,
    max_events: Option<u64>,
    check: bool,
    faults: Option<FaultPlan>,
    attr: bool,
    interval: Option<u64>,
    trace: bool,
    out_dir: Option<PathBuf>,
    out: Option<String>,
    all_benchmarks: bool,
    threads: Option<usize>,
    snapshot_dir: Option<String>,
    plans: Vec<Option<FaultPlan>>,
    resume: Option<String>,
    journal: Option<String>,
    sweep: SweepOptions,
    compare: CompareOptions,
}
fn protocol(s: &str) -> Result<ProtocolKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "directory" | "dir" => Ok(ProtocolKind::Directory),
        "dico" => Ok(ProtocolKind::DiCo),
        "providers" | "dico-providers" => Ok(ProtocolKind::DiCoProviders),
        "arin" | "dico-arin" => Ok(ProtocolKind::DiCoArin),
        _ => Err(format!("unknown protocol {s}")),
    }
}

fn benchmark(s: &str) -> Result<Benchmark, String> {
    match s.to_ascii_lowercase().as_str() {
        "apache" => Ok(Benchmark::Apache),
        "jbb" => Ok(Benchmark::Jbb),
        "radix" => Ok(Benchmark::Radix),
        "lu" => Ok(Benchmark::Lu),
        "volrend" => Ok(Benchmark::Volrend),
        "tomcatv" => Ok(Benchmark::Tomcatv),
        "mixed-com" => Ok(Benchmark::MixedCom),
        "mixed-sci" => Ok(Benchmark::MixedSci),
        _ => Err(format!("unknown benchmark {s}")),
    }
}

fn num<T: FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {what} {v}"))
}

fn positive(v: &str, what: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad {what} {v} (want an integer >= 1)")),
    }
}

/// `list` for every comma-separated item of `v`.
fn each<T>(
    v: &str,
    list: &mut Vec<T>,
    item: impl Fn(&str) -> Result<T, String>,
) -> Result<(), String> {
    for s in v.split(',') {
        list.push(item(s)?);
    }
    Ok(())
}

impl Options {
    /// The one argument parser: `args` against `cmd`'s flag table.
    fn parse(cmd: &Command, args: &[String]) -> Result<Self, String> {
        let mut o = Options { refs: cmd.refs, small: cmd.small, ..Options::default() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with('-') || a.len() == 1 {
                o.args.push(a.clone());
                continue;
            }
            let flag = *cmd
                .flags
                .iter()
                .find(|f| f.names().contains(&a.as_str()))
                .ok_or_else(|| format!("{} does not take option {a}", cmd.name))?;
            let value = if flag.is_switch() {
                ""
            } else {
                it.next().ok_or_else(|| format!("{a} needs a value"))?
            };
            o.set(flag, value)?;
            o.given.push(flag);
        }
        let (min, max) = cmd.args;
        if let Some(extra) = o.args.get(max) {
            return Err(format!("unexpected argument {extra}"));
        }
        if o.args.len() < min {
            return Err(format!("{} needs {min} argument(s), got {}", cmd.name, o.args.len()));
        }
        Ok(o)
    }

    fn set(&mut self, flag: Flag, v: &str) -> Result<(), String> {
        use Flag::*;
        let path = || Some(v.to_string());
        match flag {
            Protocol => self.protocols = vec![protocol(v)?],
            Protocols => each(v, &mut self.protocols, protocol)?,
            Benchmark => self.benchmarks = vec![benchmark(v)?],
            Benchmarks => each(v, &mut self.benchmarks, benchmark)?,
            Refs => self.refs = Some(positive(v, "refs")?),
            Seed => self.seed = Some(num(v, "seed")?),
            Seeds => each(v, &mut self.seeds, |s| num(s, "seed"))?,
            Alt => self.alt = true,
            Small => self.small = true,
            Paper => self.small = false,
            MaxEvents => self.max_events = Some(num(v, "event budget")?),
            Check => self.check = true,
            Faults => self.faults = Some(FaultPlan::parse(v)?),
            Attr => self.attr = true,
            Interval => self.interval = Some(num(v, "interval")?),
            Trace => self.trace = true,
            OutDir => self.out_dir = Some(v.into()),
            AllBenchmarks => self.all_benchmarks = true,
            Threads => self.threads = Some(positive(v, "thread count")? as usize),
            SnapshotDir => self.snapshot_dir = path(),
            Plans => self.plans.extend(parse_plans(v)?),
            Resume => self.resume = path(),
            Journal => self.journal = path(),
            DeadlineMs => self.sweep.deadline_ms = Some(num(v, "deadline")?),
            Retries => self.sweep.retries = num(v, "retry count")?,
            BackoffMs => self.sweep.backoff_ms = num(v, "backoff")?,
            Inject => self.sweep.injections.push(Injection::parse(v)?),
            AllowImproved => self.compare.allow_improved = true,
            Tol => self.compare.tolerance = num(v, "tolerance")?,
            Out => self.out = path(),
        }
        Ok(())
    }

    /// The run family's single benchmark.
    fn benchmark(&self) -> Benchmark {
        self.benchmarks.first().copied().unwrap_or(Benchmark::Apache)
    }
}

/// `given`, or every item of `all` when nothing was given.
fn or_all<T: Copy>(given: &[T], all: &[T]) -> Vec<T> {
    if given.is_empty() {
        all.to_vec()
    } else {
        given.to_vec()
    }
}

/// A bad command line: one `error:` line, exit 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Opens the disk-backed snapshot store when `--snapshot-dir` was
/// given. An unusable directory is fatal: the user asked for reuse.
fn snapshot_store(dir: Option<&str>) -> Option<SnapshotStore> {
    dir.map(|d| SnapshotStore::with_dir(d).unwrap_or_else(|e| usage_error(e)))
}

/// The one `SystemConfig` builder: the command's chip at its reference
/// budget, with every option applied (see [`observe`]).
fn config(o: &Options) -> SystemConfig {
    let base = if o.small { SystemConfig::small() } else { SystemConfig::paper() };
    observe(o, base.with_refs(o.refs.expect("simulating commands default --refs")))
}

/// Applies the options to `cfg`, a command's base chip or one of a
/// paper report's configurations.
fn observe(o: &Options, mut cfg: SystemConfig) -> SystemConfig {
    if let Some(seed) = o.seed {
        cfg = cfg.with_seed(seed);
    }
    if o.alt {
        cfg = cfg.with_placement(Placement::Alternative);
    }
    if let Some(n) = o.max_events {
        cfg = cfg.with_event_budget(n);
    }
    if o.check {
        cfg = cfg.with_invariant_checks();
    }
    if o.trace {
        cfg = cfg.with_tracing();
    }
    if let Some(n) = o.interval {
        cfg = cfg.with_interval(n);
    }
    if o.attr {
        cfg = cfg.with_attribution();
    }
    cfg.with_fault_plan(o.faults.clone())
}

/// Prints a simulation failure and exits (the replay artifact path is
/// part of the error's rendering).
fn bail(e: SimError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// An output that cannot be written: one `error:` line, exit 1.
fn write_failed(what: &str, path: &Path, e: std::io::Error) -> ! {
    eprintln!("error: cannot write {what} to {}: {e}", path.display());
    std::process::exit(1);
}

/// Writes one output and names it on stderr, so stdout is the same
/// with or without `--out-dir`.
fn write_file(path: &Path, contents: &str, what: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| write_failed(what, path, e));
    eprintln!("{what}: {}", path.display());
}

/// `D/host` under `--out-dir D`, created (with `D`) on first use.
fn host_dir(dir: &Path) -> PathBuf {
    let host = dir.join("host");
    std::fs::create_dir_all(&host).unwrap_or_else(|e| write_failed("artifacts", &host, e));
    host
}

/// The live telemetry of a run-family command: a heartbeat line per
/// cell on stderr, and `D/host/progress.ndjson` under `--out-dir D`.
fn progress_sink(o: &Options, label: &str, total: usize) -> ProgressSink {
    let path = o.out_dir.as_deref().map(|d| host_dir(d).join("progress.ndjson"));
    let path = path.as_deref().map(|p| p.to_str().expect("--out-dir is UTF-8"));
    ProgressSink::new(label, total, path, true).unwrap_or_else(|e| {
        eprintln!("error: cannot open progress stream: {e}");
        std::process::exit(1);
    })
}

/// Runs `protocols x benchmarks` under `cfg` through the executor, with
/// the command's snapshot store and worker count.
fn simulate(
    o: &Options,
    protocols: &[ProtocolKind],
    benchmarks: &[Benchmark],
    cfg: &SystemConfig,
    progress: Option<&ProgressSink>,
) -> Vec<RunResult> {
    let store = snapshot_store(o.snapshot_dir.as_deref());
    let opts = RunOptions { threads: o.threads, store: store.as_ref(), progress };
    run_matrix(protocols, benchmarks, cfg, opts).unwrap_or_else(|e| bail(e))
}

/// Prints each cell's observer summaries on stdout.
fn print_observed(results: &[RunResult]) {
    for r in results {
        if let Some(t) = &r.trace {
            println!(
                "trace: {} transactions, {} events buffered ({} dropped), {} hops attributed",
                t.completed_txs,
                t.ring.len(),
                t.ring.dropped(),
                t.tx_hops
            );
        }
        if let Some(ts) = &r.timeseries {
            println!("time-series: {} samples of {} cycles", ts.samples.len(), ts.interval);
        }
    }
}

/// Prints each cell's host self-profile line on stderr and, under
/// `--out-dir`, writes every artifact of one matrix by the naming rule
/// in the module docs. `variant` is a paper report's name for its
/// variant of the configuration (empty for the paper's own).
fn write_artifacts(o: &Options, results: &[RunResult], variant: &str) {
    for r in results {
        eprintln!("{}: {}", r.protocol.name(), r.host.throughput_line());
    }
    let Some(dir) = o.out_dir.as_deref() else { return };
    let host = host_dir(dir);
    let v = if variant.is_empty() { String::new() } else { format!("-{variant}") };
    let file = |stem: &str, ext: &str| dir.join(format!("{stem}{v}.{ext}"));
    for r in results {
        let cell = format!("{}-{}", r.protocol.name().to_lowercase(), r.benchmark.name());
        let m = r.manifest.as_ref().expect("simulator-produced results carry a manifest");
        write_file(&file(&cell, "metrics.json"), &r.metrics_json(), "metrics");
        write_file(&file(&cell, "manifest.json"), &m.to_json(), "manifest");
        if let Some(t) = &r.trace {
            let label = format!("{} on {}", r.protocol.name(), r.benchmark.name());
            let body = r.stamp_artifact(t.to_chrome_json(&label));
            write_file(&file(&cell, "trace.json"), &body, "trace");
        }
        if let Some(ts) = &r.timeseries {
            let body = r.stamp_artifact(ts.to_json());
            write_file(&file(&cell, "series.json"), &body, "time-series");
            write_file(&file(&cell, "series.csv"), &ts.to_csv(), "time-series");
        }
        let profile = host.join(format!("{cell}{v}.json"));
        write_file(&profile, &r.host.to_json(Some(&m.run_id)), "host profile");
    }
    if results.iter().any(|r| r.breakdown.is_some()) {
        write_file(&file("breakdown", "json"), &breakdown_json(results), "breakdown");
        write_file(&file("breakdown", "csv"), &breakdown_csv(results), "breakdown");
        write_file(&file("vmstat", "json"), &vmstat_json(results), "vmstat");
    }
    write_file(&file("heatmap", "json"), &heatmap_json(results), "heatmap");
    write_file(&file("heatmap", "csv"), &heatmap_csv(results), "heatmap");
}

fn cmd_run(o: Options) {
    // A single run is a one-cell sweep as far as telemetry goes; its
    // heartbeat is only built under `--out-dir`, so the default stderr
    // output stays one line.
    let sink = o.out_dir.is_some().then(|| progress_sink(&o, "run", 1));
    let protocol = o.protocols.first().copied().unwrap_or(ProtocolKind::DiCoArin);
    let results = simulate(&o, &[protocol], &[o.benchmark()], &config(&o), sink.as_ref());
    let r = &results[0];
    println!("{} on {}{}", r.protocol.name(), r.benchmark.name(), r.placement.suffix());
    println!("  cycles            {:>12}", r.cycles);
    println!("  throughput        {:>12.4} refs/cycle", r.throughput());
    println!("  L1 miss rate      {:>11.2}%", 100.0 * r.l1_miss_rate());
    println!("  off-chip rate     {:>11.2}%", 100.0 * r.l2_miss_rate());
    println!("  dedup savings     {:>11.1}%", 100.0 * r.dedup_savings);
    println!("  cache energy      {:>12.1} uJ", r.cache_energy.total() / 1000.0);
    println!("  network energy    {:>12.1} uJ", r.net_energy.total() / 1000.0);
    println!("  links/message     {:>12.2}", r.avg_links_per_message());
    println!("  avg miss latency  {:>12.1} cycles", r.avg_miss_latency());
    println!("  p95 miss latency  {:>12} cycles", r.miss_latency_percentile(95.0));
    println!("  broadcasts        {:>12}", r.proto_stats.broadcast_invs.get());
    println!("  VM imbalance      {:>12.3}", r.vm_imbalance());
    println!("  miss classes:");
    for class in MissClass::all() {
        println!("    {:<18} {:>6.1}%", class.label(), 100.0 * r.miss_class_frac(class));
    }
    if let Some(b) = &r.breakdown {
        println!(
            "  attribution: {} misses, {} reconciled exactly, {} still open",
            b.completed, b.reconciled, b.open_txs
        );
        println!("{}", breakdown_latency_table(&results));
        println!("{}", breakdown_energy_table(&results));
    }
    print_observed(&results);
    write_artifacts(&o, &results, "");
}

fn cmd_matrix(o: Options) {
    let cfg = config(&o);
    let protocols = ProtocolKind::all();
    let sink = progress_sink(&o, "matrix", protocols.len());
    let results = simulate(&o, &protocols, &[o.benchmark()], &cfg, Some(&sink));
    let base = &results[0];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.protocol.name().to_string(),
                format!("{:.4}", r.throughput()),
                format!("{:+.1}%", 100.0 * (r.performance() / base.performance() - 1.0)),
                format!("{:.1} uJ", r.total_dynamic_uj()),
                format!("{:+.1}%", 100.0 * (r.total_dynamic_nj() / base.total_dynamic_nj() - 1.0)),
                format!("{:.2}", r.avg_links_per_message()),
            ]
        })
        .collect();
    println!(
        "{}{} at {} refs/core:",
        o.benchmark().name(),
        cfg.placement.suffix(),
        cfg.refs_per_core
    );
    println!(
        "{}",
        table(
            &["protocol", "throughput", "perf vs dir", "dyn energy", "vs dir", "links/msg"],
            &rows
        )
    );
    print_observed(&results);
    write_artifacts(&o, &results, "");
}

/// `report`: one deterministic Markdown report over a matrix run — the
/// run ledger, the paper-style tables, Fig. 7/8 breakdowns, the tenant
/// view, interval summaries and fault counts. Attribution is always
/// enabled so the breakdown sections are populated. Byte-identical
/// across reruns of the same configuration (stdout, or `D/report.md`).
fn cmd_report(o: Options) {
    if o.all_benchmarks && !o.benchmarks.is_empty() {
        usage_error("report takes --benchmark or --all-benchmarks, not both");
    }
    let cfg = config(&o).with_attribution();
    let benchmarks: Vec<Benchmark> =
        if o.all_benchmarks { Benchmark::all().to_vec() } else { vec![o.benchmark()] };
    let protocols = ProtocolKind::all();
    let sink = progress_sink(&o, "report", protocols.len() * benchmarks.len());
    let results = simulate(&o, &protocols, &benchmarks, &cfg, Some(&sink));
    let md = markdown_report(&results);
    match &o.out_dir {
        Some(d) => write_file(&d.join("report.md"), &md, "report"),
        None => print!("{md}"),
    }
    write_artifacts(&o, &results, "");
}

/// `compare`: structural diff of two runs/matrices. Exits nonzero when
/// the comparison fails, writing a machine-readable JSON diff with
/// `--out`.
fn cmd_compare(o: Options) {
    let (a, b) = (&o.args[0], &o.args[1]);
    let report = cmpsim::compare::compare_paths(Path::new(a), Path::new(b), &o.compare)
        .unwrap_or_else(|e| usage_error(e));
    for line in report.lines() {
        println!("{line}");
    }
    if let Some(p) = &o.out {
        write_file(Path::new(p), &report.to_json(&o.compare), "compare diff");
    }
    if !report.passed(&o.compare) {
        std::process::exit(1);
    }
}

/// `tables [5|6|7]`: the analytic Tables V, VI and VII (all three by
/// default).
fn cmd_tables(o: Options) {
    let out = match o.args.first().map(String::as_str) {
        None => studies::table5() + &studies::table6() + &studies::table7(),
        Some("5") => studies::table5(),
        Some("6") => studies::table6(),
        Some("7") => studies::table7(),
        Some(other) => usage_error(format!("unknown table {other} (5|6|7)")),
    };
    print!("{out}");
}

/// Runs a paper report (`figures`, `study`): each of its matrices goes
/// through the executor with the observer options applied, and its
/// artifacts go into `--out-dir` under the matrix's variant.
fn run_report<T>(o: &Options, report: impl FnOnce(&mut Runner) -> Result<T, SimError>) -> T {
    let mut run = |protocols: &[ProtocolKind], benchmarks: &[Benchmark], cfg, variant: &str| {
        let results = run_matrix(protocols, benchmarks, &observe(o, cfg), RunOptions::default())?;
        print_observed(&results);
        write_artifacts(o, &results, variant);
        Ok(results)
    };
    report(&mut run).unwrap_or_else(|e| bail(e))
}

/// `figures [7|8a|8b|9a|9b|all|csv]`: the paper's Figures 7-9 (and the
/// §V-D summaries, or the raw CSV) from one full sweep.
fn cmd_figures(o: Options) {
    let figure: fn(&Sweep) -> String = match o.args.first().map_or("all", String::as_str) {
        "7" => Sweep::figure7,
        "8a" => Sweep::figure8a,
        "8b" => Sweep::figure8b,
        "9a" => Sweep::figure9a,
        "9b" => Sweep::figure9b,
        "csv" => Sweep::to_csv,
        "all" => |s| {
            [
                s.figure7(),
                s.figure8a(),
                s.figure8b(),
                s.figure9a(),
                s.figure9b(),
                s.hop_summary(),
                s.latency_summary(),
            ]
            .map(|f| f + "\n")
            .concat()
        },
        other => usage_error(format!("unknown figure {other} (7|8a|8b|9a|9b|all|csv)")),
    };
    let cfg = config(&o);
    eprintln!(
        "running {} benchmarks x 4 protocols at {} refs/core ...",
        Benchmark::all().len(),
        cfg.refs_per_core
    );
    let sweep = run_report(&o, |run| Sweep::run(&cfg, run));
    print!("{}", figure(&sweep));
}

/// A simulated study and its default `--refs`.
type Study = (fn(u64, &mut Runner) -> Result<String, SimError>, u64);

/// `study <name>`: one of the paper's side studies.
fn cmd_study(o: Options) {
    let (study, refs): Study = match o.args[0].as_str() {
        "hops" if o.given.is_empty() => return print!("{}", studies::hops()),
        "hops" => usage_error("study hops is analytic and takes no options"),
        "alt" => (studies::alt_placement, 60_000),
        "area" => (studies::area_sweep, 20_000),
        "density" => (studies::density_study, 20_000),
        "ablation" => (studies::ablation, 20_000),
        "single-app" => (studies::single_app, 20_000),
        other => usage_error(format!(
            "unknown study {other} (alt|area|density|ablation|single-app|hops)"
        )),
    };
    let out = run_report(&o, |run| study(o.refs.unwrap_or(refs), run));
    print!("{out}");
}

/// Tries to resume a replay from a warmed checkpoint on disk instead
/// of re-simulating the warm-up. Falls back to a cold replay (with a
/// stderr note) on any miss or unusable image — a replay must never
/// fail because its cache did.
fn replay_checkpoint(dir: &str, art: &ReplayArtifact) -> Option<CmpSimulator> {
    if !snapshot_eligible(&art.config) {
        return None;
    }
    let store = match SnapshotStore::with_dir(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("warning: snapshot store unavailable, replaying cold: {e}");
            return None;
        }
    };
    let key = snapshot_key(art.protocol, art.benchmark, &art.config);
    match store.get(key) {
        Ok(Some(image)) => {
            match CmpSimulator::restore_snapshot(art.protocol, art.benchmark, &art.config, &image) {
                Ok(sim) => {
                    println!(
                        "resuming from checkpoint {} in {dir} (warm-up skipped)",
                        key_hex(key)
                    );
                    Some(sim)
                }
                Err(e) => {
                    eprintln!("warning: checkpoint {} unusable, replaying cold: {e}", key_hex(key));
                    None
                }
            }
        }
        Ok(None) => None,
        Err(e) => {
            eprintln!("warning: {e}; replaying cold");
            None
        }
    }
}

fn cmd_replay(o: Options) {
    let art = ReplayArtifact::load(Path::new(&o.args[0])).unwrap_or_else(|e| usage_error(e));
    println!(
        "replaying {} on {} (seed {}): original failure {} at cycle {}",
        art.protocol.name(),
        art.benchmark.name(),
        art.config.seed,
        art.error_kind,
        art.failing_cycle
    );
    // `--check` changes the simulation (the checker observes every
    // event), so a checked replay always runs cold from cycle zero.
    let check = o.check;
    let warmed = if check {
        None
    } else {
        o.snapshot_dir.as_deref().and_then(|d| replay_checkpoint(d, &art))
    };
    let outcome = match warmed {
        Some(sim) => sim.resume(),
        None => {
            let mut sim = CmpSimulator::new(art.protocol, art.benchmark, &art.config);
            if check {
                sim.enable_invariant_checker();
                println!("invariant checker force-enabled for this replay");
            }
            sim.run()
        }
    };
    match outcome {
        Ok(r) => {
            println!(
                "run completed cleanly ({} refs in {} cycles) — the failure did NOT reproduce",
                r.measured_refs, r.cycles
            );
            std::process::exit(1);
        }
        Err(e) => {
            println!("{e}");
            if e.kind_label() == art.error_kind && e.failing_cycle() == art.failing_cycle {
                println!("reproduced: {} at cycle {}", e.kind_label(), e.failing_cycle());
            } else if check && matches!(e, SimError::InvariantViolation(_)) {
                println!(
                    "invariant checker caught the root cause at cycle {} (original failure: {} at cycle {})",
                    e.failing_cycle(),
                    art.error_kind,
                    art.failing_cycle
                );
            } else {
                println!(
                    "failure differs: got {} at cycle {}, expected {} at cycle {}",
                    e.kind_label(),
                    e.failing_cycle(),
                    art.error_kind,
                    art.failing_cycle
                );
                std::process::exit(1);
            }
        }
    }
}

/// `sweep`: resilient job-queue sweep — blast-radius containment per
/// cell (catch_unwind + per-cell deadline), bounded retry with backoff
/// for transient failures, immediate quarantine for deterministic ones,
/// and an NDJSON journal that makes the whole run crash-resumable.
fn cmd_sweep(o: Options) {
    let outcome = match &o.resume {
        Some(journal) => {
            if let Some(f) = o.given.iter().find(|f| !matches!(f, Flag::Resume | Flag::Threads)) {
                usage_error(format!(
                    "sweep --resume takes no {} (the journal holds it)",
                    f.names()[0]
                ));
            }
            eprintln!("resuming sweep from {journal}");
            cmpsim::resume_sweep(Path::new(journal), o.threads).unwrap_or_else(|e| usage_error(e))
        }
        None => {
            let spec = cmpsim::SweepSpec {
                protocols: or_all(&o.protocols, &ProtocolKind::all()),
                benchmarks: or_all(&o.benchmarks, &Benchmark::all()),
                seeds: o.seeds.clone(),
                plans: o.plans.clone(),
                base: config(&o),
            };
            let out_dir = o.out_dir.clone().unwrap_or_else(|| o.sweep.out_dir.clone());
            let opts = SweepOptions {
                threads: o.threads,
                snapshot_dir: o.snapshot_dir.as_ref().map(Into::into),
                journal: o
                    .journal
                    .as_ref()
                    .map_or_else(|| out_dir.join("sweep.ndjson"), Into::into),
                out_dir,
                ..o.sweep.clone()
            };
            eprintln!(
                "sweep: {} protocols x {} benchmarks x {} seeds x {} plans, journal {}",
                spec.protocols.len(),
                spec.benchmarks.len(),
                spec.seeds.len().max(1),
                spec.plans.len().max(1),
                opts.journal.display()
            );
            cmpsim::run_sweep(&spec, &opts).unwrap_or_else(|e| usage_error(e))
        }
    };

    write_file(&outcome.out_dir.join("report.md"), &outcome.report_markdown(), "sweep report");
    if outcome.skipped > 0 {
        eprintln!("resume skipped {} already-terminal cells", outcome.skipped);
    }
    let failed = outcome.violations();
    if !failed.is_empty() {
        eprintln!("{} cell(s) failed:", failed.len());
        for (c, s) in &failed {
            let why = match s {
                CellState::Diverged { golden, detail, .. } => {
                    format!("diverged from golden cell {golden}: {detail}")
                }
                CellState::Faulted { error, .. } | CellState::Quarantined { error, .. } => {
                    format!("[{}]: {}", error.code, error.message)
                }
                CellState::Done { .. } => continue,
            };
            eprintln!("  cell {} {} {why}", c.index, c.name());
        }
        std::process::exit(1);
    }
    match outcome.count("faulted") {
        0 => eprintln!("sweep complete: all {} cells done", outcome.cells.len()),
        n => eprintln!(
            "sweep complete: {} cells done, {n} faulted with a crash dump",
            outcome.count("done")
        ),
    }
}

fn cmd_list(_: Options) {
    println!("protocols:  directory | dico | providers | arin");
    println!("benchmarks: apache | jbb | radix | lu | volrend | tomcatv | mixed-com | mixed-sci");
    println!("fault modes: recoverable[@SEED] | chaos[@SEED]  (--faults)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let Some((name, rest)) = args.split_first() else {
        usage_error(format!("usage: cmpsim-cli <{}> [options]", names.join("|")))
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        usage_error(format!("unknown command {name}; try {}", names.join(", ")))
    };
    let o = Options::parse(cmd, rest).unwrap_or_else(|e| usage_error(e));
    (cmd.run)(o);
}
