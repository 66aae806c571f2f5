//! Command-line front end for the simulator, and the one entry point
//! for regenerating the paper's tables, figures and studies.
//!
//! ```text
//! cmpsim-cli run  [--protocol P] [--benchmark B] [--refs N] [--alt] [--seed S]
//!                 [--max-events N] [--check] [observability flags]
//! cmpsim-cli stats [run options]                # run + full metrics registry dump
//! cmpsim-cli matrix [--refs N] [--alt] [...]    # all protocols x one benchmark set
//! cmpsim-cli breakdown [run options]            # Fig. 7/8-style latency & energy
//!                                               # attribution, all four protocols
//! cmpsim-cli vmstat [run options]               # per-VM tables, cross-VM
//!                                               # interference matrix, ASCII mesh
//!                                               # heatmaps, all four protocols
//! cmpsim-cli report [run options] [--all-benchmarks] [--out report.md]
//!                                               # deterministic Markdown matrix
//!                                               # report (run ledger + tables)
//! cmpsim-cli compare A.json B.json [--tol F] [--allow-improved] [--out diff.json]
//!                                               # structural run diff / CI
//!                                               # regression gate (nonzero exit)
//! cmpsim-cli tables [5|6|7]                     # Tables V, VI, VII (analytic;
//!                                               # all three by default)
//! cmpsim-cli figures [7|8a|8b|9a|9b|all|csv] [--refs N] [report flags]
//!                                               # Figures 7-9 from one 32-cell
//!                                               # sweep (default all, 60000 refs)
//! cmpsim-cli study <alt|area|density|ablation|single-app|hops> [--refs N]
//!                  [report flags]               # side studies: "-alt" placement
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
//!                  [--threads N] [--snapshot-dir D] [--report-out F]
//! cmpsim-cli sweep --resume <journal> [--threads N] [--report-out F]
//!                                               # resilient job-queue sweep:
//!                                               # per-cell catch_unwind +
//!                                               # deadline, retry w/ backoff,
//!                                               # quarantine, crash-resumable
//!                                               # NDJSON journal; exits nonzero
//!                                               # when cells were lost (the
//!                                               # partial report still lists
//!                                               # every failed cell + E-code)
//! cmpsim-cli chaos [--plans N] [--mode M] [--seed S] [--refs N]
//!                  [--small] [--alt] [-p P] [-b B] [--progress-out F]
//!                  [--json-out F] [--report-out F] [--threads N]
//!                  [--snapshot-dir D]           # seeded fault-injection soak
//! cmpsim-cli list                               # protocols & benchmarks
//! ```
//!
//! Observability flags (run / stats / matrix / breakdown / vmstat):
//!
//! ```text
//! --trace-out <file>      record the coherence-transaction trace and
//!                         write Chrome trace-event JSON (Perfetto-loadable)
//! --interval <cycles>     sample an interval time-series every N cycles
//! --series-out <file>     write the time-series (.csv -> CSV, else JSON)
//! --metrics-out <file>    write the unified metrics registry as JSON
//! --attr                  per-transaction critical-path & energy attribution
//! --breakdown-out <file>  write the attribution breakdown
//!                         (.csv -> CSV, else JSON; implies --attr)
//! --vmstat-out <file>     write per-VM stats + the cross-VM interference
//!                         matrix as JSON (implies --attr)
//! --heatmap-out <file>    write per-tile/per-link spatial counters
//!                         (.csv -> long-format CSV, else JSON grids)
//! --threads <n>           worker threads for sweeps (default: one per host
//!                         core)
//! --snapshot-dir <dir>    cache warmed-state checkpoints: the first run of a
//!                         configuration snapshots at the warm-up boundary,
//!                         every later run sharing its key forks from the
//!                         image and skips warm-up entirely (results stay
//!                         bit-identical; observer runs — --trace-out,
//!                         --check, --attr — always run cold)
//! --manifest-out <file>   write the run manifest (run ledger entry) alone
//! --host-profile-out <f>  write the host self-profile JSON (wall-clock,
//!                         nondeterministic; keyed by manifest run_id)
//! --progress-out <file>   live sweep telemetry as NDJSON (run/stats/matrix/report/chaos)
//! ```
//!
//! The report flags of `figures` and `study` are `--interval`, `--attr`,
//! `--trace-out`, `--series-out`, `--breakdown-out` and `--metrics-out`.
//!
//! Every deterministic JSON artifact (metrics, time-series, trace,
//! breakdown, crash dump) embeds a `manifest` object: a content-hashed
//! `run_id` over (config, protocol, benchmark, seed, fault plan, schema
//! versions) plus the tool version, so any two artifacts can be traced
//! to — and compared against — the exact run that produced them.
//!
//! Commands that run several cells write one file per cell, inserting
//! a tag into the file name before its extension: the protocol name for
//! `matrix` (`m.json` -> `m-dico.json`), `{protocol}-{benchmark}` for
//! `figures` and `study` (plus the study's variant, e.g. `-alt`). The
//! breakdown artifact is one combined file per matrix.
//! Every simulating command prints a host self-profile line (wall-clock
//! spans + simulated-cycles/s throughput) to **stderr**, keeping stdout
//! and every artifact deterministic.
//!
//! Fault injection: `--faults recoverable[@SEED]` or `--faults
//! chaos[@SEED]` arms a deterministic fault plan on any run-family
//! command. `chaos` sweeps N seeded plans across the protocol x
//! benchmark matrix, verifies every recovered cell bit-identical (in
//! architectural state) against its fault-free golden twin, and exits
//! nonzero on any divergence, panic, or typed error lacking a replay
//! artifact.
//!
//! Protocols: directory | dico | providers | arin.
//! Benchmarks: apache | jbb | radix | lu | volrend | tomcatv |
//! mixed-com | mixed-sci.
//!
//! Every command parses its arguments through one table-driven parser:
//! an option the command does not accept, a missing or malformed value,
//! or a zero `--refs`/`--threads`/`--plans` count exits 2 with a
//! one-line `error:`; simulation failures exit 1.
//!
//! A failing `run`/`matrix` writes a JSON replay artifact (path printed
//! with the error); `replay` re-runs it deterministically and reports
//! whether the original failure reproduced at the same cycle.
//! `--check` force-enables the coherence invariant checker during the
//! replay, often turning an end-state deadlock into the first broken
//! invariant.

use cmpsim::chaos::{chaos_sweep, CellOutcome};
use cmpsim::report::figures::Sweep;
use cmpsim::report::{
    breakdown_csv, breakdown_energy_table, breakdown_json, breakdown_latency_table,
    markdown_chaos_section, markdown_report, studies, table, Runner,
};
use cmpsim::snapshot::key_hex;
use cmpsim::vmstat::{heatmap_csv, heatmap_json, vmstat_json, vmstat_tables};
use cmpsim::{
    run_matrix, snapshot_eligible, snapshot_key, Benchmark, CmpSimulator, CompareOptions,
    FaultPlan, Injection, MissClass, Placement, ProtocolKind, ReplayArtifact, RunOptions,
    RunResult, SimError, SnapshotStore, SweepOptions, SystemConfig,
};
use std::path::Path;
use std::str::FromStr;

/// Every option the CLI understands. Which commands accept which is
/// data ([`Command::flags`]); what each one sets is [`Options::set`].
/// Variants sharing a name (`Protocol`/`Protocols`, `Seed`/`PlanSeed`,
/// `PlanCount`/`PlanList`) mean different things to different commands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flag {
    // The run family's chip, workload and observers.
    Protocol, Benchmark, Refs, Seed, Alt, MaxEvents, Check, Faults, Attr, Interval,
    TraceOut, SeriesOut, MetricsOut, BreakdownOut, VmstatOut, HeatmapOut, ManifestOut,
    HostProfileOut, ProgressOut, Out, AllBenchmarks, Threads, SnapshotDir,
    // Soaks: `chaos` and `sweep`.
    Small, Paper, PlanCount, PlanSeed, Mode, JsonOut, ReportOut,
    Protocols, Benchmarks, Seeds, PlanList, Resume, OutDir, Journal, DeadlineMs, Retries,
    BackoffMs, Inject,
    // `compare`.
    AllowImproved, Tol,
}

impl Flag {
    /// The spellings of the flag on the command line.
    fn names(self) -> &'static [&'static str] {
        use Flag::*;
        match self {
            Protocol | Protocols => &["--protocol", "-p"],
            Benchmark | Benchmarks => &["--benchmark", "-b"],
            Refs => &["--refs", "-n"],
            Seed | PlanSeed => &["--seed", "-s"],
            Seeds => &["--seeds"],
            Alt => &["--alt"],
            Small => &["--small"],
            Paper => &["--paper"],
            MaxEvents => &["--max-events"],
            Check => &["--check"],
            Faults => &["--faults"],
            Attr => &["--attr"],
            Interval => &["--interval"],
            TraceOut => &["--trace-out"],
            SeriesOut => &["--series-out"],
            MetricsOut => &["--metrics-out"],
            BreakdownOut => &["--breakdown-out"],
            VmstatOut => &["--vmstat-out"],
            HeatmapOut => &["--heatmap-out"],
            ManifestOut => &["--manifest-out"],
            HostProfileOut => &["--host-profile-out"],
            ProgressOut => &["--progress-out"],
            Out => &["--out"],
            AllBenchmarks => &["--all-benchmarks"],
            Threads => &["--threads"],
            SnapshotDir => &["--snapshot-dir"],
            PlanCount | PlanList => &["--plans"],
            Mode => &["--mode"],
            JsonOut => &["--json-out"],
            ReportOut => &["--report-out"],
            Resume => &["--resume"],
            OutDir => &["--out-dir"],
            Journal => &["--journal"],
            DeadlineMs => &["--deadline-ms"],
            Retries => &["--retries"],
            BackoffMs => &["--backoff-ms"],
            Inject => &["--inject"],
            AllowImproved => &["--allow-improved"],
            Tol => &["--tol"],
        }
    }

    /// Whether the flag is a switch rather than taking a value.
    fn is_switch(self) -> bool {
        use Flag::*;
        matches!(self, Alt | Small | Paper | Check | Attr | AllBenchmarks | AllowImproved)
    }
}

/// The run family's options (`run`, `stats`, `matrix`, `breakdown`,
/// `vmstat`, `report`).
const RUN_FLAGS: &[Flag] = {
    use Flag::*;
    &[
        Protocol, Benchmark, Refs, Seed, Alt, MaxEvents, Check, Faults, Attr, Interval, TraceOut,
        SeriesOut, MetricsOut, BreakdownOut, VmstatOut, HeatmapOut, ManifestOut, HostProfileOut,
        ProgressOut, Out, AllBenchmarks, Threads, SnapshotDir,
    ]
};

/// The paper reports' options (`figures`, `study`).
const REPORT_FLAGS: &[Flag] = {
    use Flag::*;
    &[Refs, Interval, Attr, TraceOut, SeriesOut, BreakdownOut, MetricsOut]
};

const CHAOS_FLAGS: &[Flag] = {
    use Flag::*;
    &[
        PlanCount, Mode, PlanSeed, Refs, Paper, Small, Alt, Protocol, Benchmark, ProgressOut,
        JsonOut, ReportOut, Threads, SnapshotDir,
    ]
};

const SWEEP_FLAGS: &[Flag] = {
    use Flag::*;
    &[
        Resume, Protocols, Benchmarks, Seeds, PlanList, Refs, Paper, Small, Alt, OutDir, Journal,
        DeadlineMs, Retries, BackoffMs, Inject, Threads, SnapshotDir, ReportOut,
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
    Command { refs: Some(20_000), ..command("stats", RUN_FLAGS, cmd_stats) },
    Command { refs: Some(20_000), ..command("matrix", RUN_FLAGS, cmd_matrix) },
    Command { refs: Some(20_000), ..command("breakdown", RUN_FLAGS, cmd_breakdown) },
    Command { refs: Some(20_000), ..command("vmstat", RUN_FLAGS, cmd_vmstat) },
    Command { refs: Some(20_000), ..command("report", RUN_FLAGS, cmd_report) },
    Command { args: (2, 2), ..command("compare", COMPARE_FLAGS, cmd_compare) },
    Command { args: (0, 1), ..command("tables", &[], cmd_tables) },
    Command { args: (0, 1), refs: Some(60_000), ..command("figures", REPORT_FLAGS, cmd_figures) },
    Command { args: (1, 1), ..command("study", REPORT_FLAGS, cmd_study) },
    Command { args: (1, 1), ..command("replay", &[Flag::Check, Flag::SnapshotDir], cmd_replay) },
    Command { refs: Some(800), small: true, ..command("sweep", SWEEP_FLAGS, cmd_sweep) },
    Command { refs: Some(800), small: true, ..command("chaos", CHAOS_FLAGS, cmd_chaos) },
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
    /// Base seed of the chaos fault plans.
    plan_seed: u64,
    seeds: Vec<u64>,
    small: bool,
    alt: bool,
    max_events: Option<u64>,
    check: bool,
    faults: Option<FaultPlan>,
    attr: bool,
    interval: Option<u64>,
    trace_out: Option<String>,
    series_out: Option<String>,
    metrics_out: Option<String>,
    breakdown_out: Option<String>,
    vmstat_out: Option<String>,
    heatmap_out: Option<String>,
    manifest_out: Option<String>,
    host_profile_out: Option<String>,
    progress_out: Option<String>,
    out: Option<String>,
    json_out: Option<String>,
    report_out: Option<String>,
    all_benchmarks: bool,
    threads: Option<usize>,
    snapshot_dir: Option<String>,
    plan_count: u64,
    plans: Vec<Option<FaultPlan>>,
    mode: &'static str,
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
        let mut o = Options {
            refs: cmd.refs,
            small: cmd.small,
            plan_count: 8,
            plan_seed: 0xC4A05,
            mode: "both",
            ..Options::default()
        };
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
            PlanSeed => self.plan_seed = num(v, "seed")?,
            Seeds => each(v, &mut self.seeds, |s| num(s, "seed"))?,
            Alt => self.alt = true,
            Small => self.small = true,
            Paper => self.small = false,
            MaxEvents => self.max_events = Some(num(v, "event budget")?),
            Check => self.check = true,
            Faults => self.faults = Some(FaultPlan::parse(v)?),
            Attr => self.attr = true,
            Interval => self.interval = Some(num(v, "interval")?),
            TraceOut => self.trace_out = path(),
            SeriesOut => self.series_out = path(),
            MetricsOut => self.metrics_out = path(),
            BreakdownOut => self.breakdown_out = path(),
            VmstatOut => self.vmstat_out = path(),
            HeatmapOut => self.heatmap_out = path(),
            ManifestOut => self.manifest_out = path(),
            HostProfileOut => self.host_profile_out = path(),
            ProgressOut => self.progress_out = path(),
            Out => self.out = path(),
            AllBenchmarks => self.all_benchmarks = true,
            Threads => self.threads = Some(positive(v, "thread count")? as usize),
            SnapshotDir => self.snapshot_dir = path(),
            PlanCount => self.plan_count = positive(v, "plan count")?,
            PlanList => each(v, &mut self.plans, |s| match s {
                "none" => Ok(None),
                spec => FaultPlan::parse(spec).map(Some),
            })?,
            Mode => {
                self.mode = ["recoverable", "chaos", "both"]
                    .into_iter()
                    .find(|m| *m == v)
                    .ok_or_else(|| format!("unknown chaos mode {v} (recoverable|chaos|both)"))?
            }
            JsonOut => self.json_out = path(),
            ReportOut => self.report_out = path(),
            Resume => self.resume = path(),
            OutDir => self.sweep.out_dir = v.into(),
            Journal => self.journal = path(),
            DeadlineMs => self.sweep.deadline_ms = Some(num(v, "deadline")?),
            Retries => self.sweep.retries = num(v, "retry count")?,
            BackoffMs => self.sweep.backoff_ms = num(v, "backoff")?,
            Inject => self.sweep.injections.push(Injection::parse(v)?),
            AllowImproved => self.compare.allow_improved = true,
            Tol => self.compare.tolerance = num(v, "tolerance")?,
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
    if o.trace_out.is_some() {
        cfg = cfg.with_tracing();
    }
    if let Some(n) = o.interval {
        cfg = cfg.with_interval(n);
    }
    if o.attr || o.breakdown_out.is_some() || o.vmstat_out.is_some() {
        cfg = cfg.with_attribution();
    }
    cfg.with_fault_plan(o.faults.clone())
}

/// Inserts `tag` into the file name, before its extension:
/// `out.d/m.json` -> `out.d/m-dico.json`, `./m` -> `./m-dico`.
fn suffixed(path: &str, tag: &str) -> String {
    let (dir, file) = path.split_at(path.rfind(std::path::is_separator).map_or(0, |i| i + 1));
    match file.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{dir}{stem}-{tag}.{ext}"),
        _ => format!("{path}-{tag}"),
    }
}

fn write_file(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
    println!("{what}: {path}");
}

/// Writes the per-run observability artifacts the flags asked for.
/// `tag` distinguishes the cells of a multi-cell command (None for
/// single runs).
fn write_outputs(o: &Options, r: &RunResult, tag: Option<&str>) {
    let name = |p: &str| tag.map_or_else(|| p.to_string(), |t| suffixed(p, t));
    if let Some(p) = &o.trace_out {
        let t = r.trace.as_ref().expect("tracing enabled by --trace-out");
        let label = format!("{} on {}", r.protocol.name(), r.benchmark.name());
        println!(
            "trace: {} transactions, {} events buffered ({} dropped), {} hops attributed",
            t.completed_txs,
            t.ring.len(),
            t.ring.dropped(),
            t.tx_hops
        );
        write_file(&name(p), &r.stamp_artifact(t.to_chrome_json(&label)), "trace");
    }
    if let Some(ts) = &r.timeseries {
        println!("time-series: {} samples of {} cycles", ts.samples.len(), ts.interval);
        if let Some(p) = &o.series_out {
            let p = name(p);
            let body =
                if p.ends_with(".csv") { ts.to_csv() } else { r.stamp_artifact(ts.to_json()) };
            write_file(&p, &body, "time-series");
        }
    }
    if let Some(p) = &o.metrics_out {
        write_file(&name(p), &r.metrics_json(), "metrics");
    }
    if let Some(p) = &o.manifest_out {
        let m = r.manifest.as_ref().expect("simulator-produced results carry a manifest");
        write_file(&name(p), &m.to_json(), "manifest");
    }
    // The host self-profile is wall-clock (nondeterministic), so it
    // goes to stderr only — stdout and every artifact stay
    // deterministic and byte-comparable. `--host-profile-out` is the
    // side-channel export: its own file, keyed by the manifest run_id.
    if let Some(p) = &o.host_profile_out {
        let run_id = r.manifest.as_ref().map(|m| m.run_id.as_str());
        if let Err(e) = std::fs::write(name(p), r.host.to_json(run_id)) {
            eprintln!("error: cannot write host profile to {p}: {e}");
            std::process::exit(1);
        }
        eprintln!("host profile: {}", name(p));
    }
    eprintln!("{}: {}", r.protocol.name(), r.host.throughput_line());
}

/// Writes the combined breakdown artifact (CSV or JSON by extension).
fn write_breakdown(path: &str, results: &[RunResult]) {
    let body =
        if path.ends_with(".csv") { breakdown_csv(results) } else { breakdown_json(results) };
    write_file(path, &body, "breakdown");
}

/// Writes the sweep-level tenant/spatial artifacts the flags asked
/// for (one combined file each, like the breakdown artifact): per-VM
/// statistics as JSON, the spatial heatmap as CSV or JSON by extension.
fn write_tenant_outputs(o: &Options, results: &[RunResult]) {
    if let Some(p) = &o.vmstat_out {
        write_file(p, &vmstat_json(results), "vmstat");
    }
    if let Some(p) = &o.heatmap_out {
        let body = if p.ends_with(".csv") { heatmap_csv(results) } else { heatmap_json(results) };
        write_file(p, &body, "heatmap");
    }
}

/// Prints the Fig. 7/8-style attribution summary for one result on
/// stdout (used by `run`/`stats` when `--attr` is on).
fn print_breakdown_summary(r: &RunResult) {
    let Some(b) = &r.breakdown else { return };
    println!(
        "  attribution: {} misses, {} reconciled exactly, {} still open",
        b.completed, b.reconciled, b.open_txs
    );
    let slice = std::slice::from_ref(r);
    println!("{}", breakdown_latency_table(slice));
    println!("{}", breakdown_energy_table(slice));
}

/// Prints a simulation failure and exits (the replay artifact path is
/// part of the error's rendering).
fn bail(e: SimError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// `run`/`stats`: one cell through the executor. A single run is a
/// one-cell sweep as far as telemetry goes; the sink is only built when
/// asked, so the default stderr output is unchanged.
fn run_one(o: &Options, label: &str) -> RunResult {
    let sink = o.progress_out.as_deref().map(|p| progress_sink(label, 1, Some(p)));
    let store = snapshot_store(o.snapshot_dir.as_deref());
    let opts = RunOptions { threads: o.threads, store: store.as_ref(), progress: sink.as_ref() };
    let protocol = o.protocols.first().copied().unwrap_or(ProtocolKind::DiCoArin);
    let mut results =
        run_matrix(&[protocol], &[o.benchmark()], &config(o), opts).unwrap_or_else(|e| bail(e));
    results.pop().expect("one cell")
}

/// The per-result artifacts of `run`/`stats`.
fn write_single(o: &Options, r: &RunResult) {
    if let Some(p) = &o.breakdown_out {
        write_breakdown(p, std::slice::from_ref(r));
    }
    write_tenant_outputs(o, std::slice::from_ref(r));
    write_outputs(o, r, None);
}

fn cmd_run(o: Options) {
    let r = run_one(&o, "run");
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
    print_breakdown_summary(&r);
    write_single(&o, &r);
}

/// `stats`: one run, then the full metrics registry, one line per
/// metric (hierarchical names, sorted).
fn cmd_stats(o: Options) {
    let r = run_one(&o, "stats");
    let cfg = config(&o);
    println!(
        "{} on {}{} ({} refs/core, seed {})",
        r.protocol.name(),
        r.benchmark.name(),
        r.placement.suffix(),
        cfg.refs_per_core,
        cfg.seed
    );
    println!();
    print!("{}", r.metrics().dump());
    write_single(&o, &r);
}

/// Builds the live-telemetry sink for a sweep (`--progress-out` NDJSON
/// plus a human heartbeat line per cell on stderr).
fn progress_sink(label: &str, total: usize, path: Option<&str>) -> cmpsim::ProgressSink {
    cmpsim::ProgressSink::new(label, total, path, true).unwrap_or_else(|e| {
        eprintln!("error: cannot open progress stream: {e}");
        std::process::exit(1);
    })
}

fn cmd_matrix(o: Options) {
    let cfg = config(&o);
    let protocols = ProtocolKind::all();
    let sink = progress_sink("matrix", protocols.len(), o.progress_out.as_deref());
    let store = snapshot_store(o.snapshot_dir.as_deref());
    let opts = RunOptions { threads: o.threads, store: store.as_ref(), progress: Some(&sink) };
    let results = run_matrix(&protocols, &[o.benchmark()], &cfg, opts).unwrap_or_else(|e| bail(e));
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
    if let Some(p) = &o.breakdown_out {
        write_breakdown(p, &results);
    }
    write_tenant_outputs(&o, &results);
    for r in &results {
        let tag = r.protocol.name().to_lowercase();
        write_outputs(&o, r, Some(&tag));
    }
}

/// All four protocols on the benchmark with attribution on, after the
/// `view` header line that `breakdown` and `vmstat` print.
fn attributed_matrix(o: &Options, view: &str) -> Vec<RunResult> {
    let cfg = config(o).with_attribution();
    let opts = RunOptions { threads: o.threads, ..RunOptions::default() };
    let results =
        run_matrix(&ProtocolKind::all(), &[o.benchmark()], &cfg, opts).unwrap_or_else(|e| bail(e));
    let (b, suffix) = (o.benchmark().name(), cfg.placement.suffix());
    println!("{view}: {b}{suffix} at {} refs/core, seed {}", cfg.refs_per_core, cfg.seed);
    println!();
    results
}

/// The host self-profile line of each result, on stderr.
fn print_throughput(results: &[RunResult]) {
    for r in results {
        eprintln!("{}: {}", r.protocol.name(), r.host.throughput_line());
    }
}

/// `breakdown`: runs all four protocols with attribution on and prints
/// the paper's Figure 7 (miss latency per critical-path phase) and
/// Figure 8 (dynamic energy per structure) breakdowns.
fn cmd_breakdown(o: Options) {
    let results = attributed_matrix(&o, "critical-path & energy attribution");
    println!("miss latency by phase (avg cycles per miss, Fig. 7 style):");
    println!("{}", breakdown_latency_table(&results));
    println!("attributed dynamic energy by structure (uJ, Fig. 8 style):");
    println!("{}", breakdown_energy_table(&results));
    for r in &results {
        let b = r.breakdown.as_ref().expect("attribution enabled");
        let model = r.energy_model();
        let tiled = r.counts_nj(&model, &b.total_counts());
        println!(
            "{:<10} {} misses, {} reconciled exactly; attributed {:.1} uJ of {:.1} uJ aggregate",
            r.protocol.name(),
            b.completed,
            b.reconciled,
            tiled / 1000.0,
            r.total_dynamic_nj() / 1000.0,
        );
    }
    if let Some(p) = &o.breakdown_out {
        write_breakdown(p, &results);
    }
    print_throughput(&results);
}

/// `vmstat`: runs all four protocols with attribution on and prints
/// the tenant view — per-VM latency/energy tables, the cross-VM
/// interference matrix, and ASCII mesh heatmaps of the per-tile
/// counters. `--vmstat-out`/`--heatmap-out` export the same data as
/// manifest-stamped JSON/CSV artifacts.
fn cmd_vmstat(o: Options) {
    let results = attributed_matrix(&o, "tenant observability");
    print!("{}", vmstat_tables(&results));
    write_tenant_outputs(&o, &results);
    print_throughput(&results);
}

/// `report`: one deterministic Markdown report over a matrix run — the
/// run ledger, the paper-style tables, Fig. 7/8 breakdowns, interval
/// summaries and fault counts. Attribution is always enabled so the
/// breakdown sections are populated. Byte-identical across reruns of
/// the same configuration (`--out` or stdout).
fn cmd_report(o: Options) {
    let cfg = config(&o).with_attribution();
    let benchmarks: Vec<Benchmark> =
        if o.all_benchmarks { Benchmark::all().to_vec() } else { vec![o.benchmark()] };
    let protocols = ProtocolKind::all();
    let sink =
        progress_sink("report", protocols.len() * benchmarks.len(), o.progress_out.as_deref());
    let store = snapshot_store(o.snapshot_dir.as_deref());
    let opts = RunOptions { threads: o.threads, store: store.as_ref(), progress: Some(&sink) };
    let results = run_matrix(&protocols, &benchmarks, &cfg, opts).unwrap_or_else(|e| bail(e));
    let md = markdown_report(&results);
    match &o.out {
        Some(p) => write_file(p, &md, "report"),
        None => print!("{md}"),
    }
    print_throughput(&results);
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
        write_file(p, &report.to_json(&o.compare), "compare diff");
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
/// through the executor with the report flags applied, writing each
/// cell's artifacts tagged `{protocol}-{benchmark}[-{variant}]` and one
/// breakdown per matrix.
fn run_report<T>(o: &Options, report: impl FnOnce(&mut Runner) -> Result<T, SimError>) -> T {
    let mut run = |protocols: &[ProtocolKind], benchmarks: &[Benchmark], cfg, variant: &str| {
        let results = run_matrix(protocols, benchmarks, &observe(o, cfg), RunOptions::default())?;
        let variant_of =
            |name: String| if variant.is_empty() { name } else { suffixed(&name, variant) };
        for r in &results {
            let tag = format!("{}-{}", r.protocol.name().to_lowercase(), r.benchmark.name());
            write_outputs(o, r, Some(&variant_of(tag)));
        }
        if let Some(p) = &o.breakdown_out {
            write_breakdown(&variant_of(p.clone()), &results);
        }
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

/// `chaos`: seeded fault-injection soak across the protocol x
/// benchmark matrix with differential golden verification.
fn cmd_chaos(o: Options) {
    let cfg = config(&o);
    let protocols = or_all(&o.protocols, &ProtocolKind::all());
    let benchmarks = or_all(&o.benchmarks, &Benchmark::all());
    let seed = o.plan_seed;
    let plans: Vec<FaultPlan> = (0..o.plan_count)
        .map(|i| match o.mode {
            "recoverable" => FaultPlan::recoverable(seed + i),
            "chaos" => FaultPlan::chaos(seed + i),
            _ if i % 2 == 0 => FaultPlan::recoverable(seed + i),
            _ => FaultPlan::chaos(seed + i),
        })
        .collect();
    println!(
        "chaos soak: {} plans x {} protocols x {} benchmarks = {} cells ({} refs/core, base seed {:#x})",
        plans.len(),
        protocols.len(),
        benchmarks.len(),
        plans.len() * protocols.len() * benchmarks.len(),
        cfg.refs_per_core,
        seed
    );
    let sink = progress_sink(
        "chaos",
        plans.len() * protocols.len() * benchmarks.len(),
        o.progress_out.as_deref(),
    );
    let store = snapshot_store(o.snapshot_dir.as_deref());
    let opts = RunOptions { threads: o.threads, store: store.as_ref(), progress: Some(&sink) };
    let report = chaos_sweep(&protocols, &benchmarks, &plans, &cfg, opts);
    if let Some(p) = &o.json_out {
        write_file(p, &report.to_json(), "chaos report");
    }
    if let Some(p) = &o.report_out {
        write_file(p, &markdown_chaos_section(&report), "chaos markdown");
    }

    let mut rows = Vec::new();
    for plan in &plans {
        let cells: Vec<_> = report.cells.iter().filter(|c| c.plan == *plan).collect();
        let recovered =
            cells.iter().filter(|c| matches!(c.outcome, CellOutcome::Recovered { .. })).count();
        let faulted =
            cells.iter().filter(|c| matches!(c.outcome, CellOutcome::Faulted { .. })).count();
        let violations = cells.iter().filter(|c| !c.outcome.acceptable()).count();
        let (mut fired, mut retries, mut timeouts, mut overhead) = (0u64, 0u64, 0u64, 0u64);
        for c in &cells {
            if let CellOutcome::Recovered {
                faults_fired,
                retries: r,
                timeouts: t,
                cycles,
                effective_cycles,
            } = c.outcome
            {
                fired += faults_fired;
                retries += r;
                timeouts += t;
                overhead += cycles.saturating_sub(effective_cycles);
            }
        }
        rows.push(vec![
            plan.spec(),
            format!("{recovered}/{}", cells.len()),
            faulted.to_string(),
            violations.to_string(),
            fired.to_string(),
            retries.to_string(),
            timeouts.to_string(),
            overhead.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "plan",
                "recovered",
                "faulted",
                "violations",
                "faults",
                "retries",
                "timeouts",
                "overhead cy"
            ],
            &rows
        )
    );
    for cell in report.cells.iter() {
        if let CellOutcome::Faulted { code, label, artifact } = &cell.outcome {
            println!(
                "  faulted: {} on {} under {}: {label} ({code}), artifact {}",
                cell.protocol.name(),
                cell.benchmark.name(),
                cell.plan.spec(),
                artifact.as_deref().map_or("MISSING".into(), |p| p.display().to_string()),
            );
        }
    }
    for cell in report.violations() {
        let detail = match &cell.outcome {
            CellOutcome::Diverged { detail } => detail.clone(),
            CellOutcome::Panicked { message } => message.clone(),
            CellOutcome::GoldenFailed { message } => format!("golden failed: {message}"),
            CellOutcome::Faulted { .. } => "typed error without replay artifact".into(),
            CellOutcome::Recovered { .. } => unreachable!("recovered cells are acceptable"),
        };
        println!(
            "  VIOLATION: {} on {} under {} [{}]: {detail}",
            cell.protocol.name(),
            cell.benchmark.name(),
            cell.plan.spec(),
            cell.outcome.status(),
        );
    }
    println!(
        "{} recovered+verified, {} typed errors, {} violations",
        report.recovered(),
        report.faulted(),
        report.violations().len()
    );
    if !report.passed() {
        std::process::exit(1);
    }
}

/// `sweep`: resilient job-queue sweep — blast-radius containment per
/// cell (catch_unwind + per-cell deadline), bounded retry with backoff
/// for transient failures, immediate quarantine for deterministic ones,
/// and an NDJSON journal that makes the whole run crash-resumable.
fn cmd_sweep(o: Options) {
    let outcome = match &o.resume {
        Some(journal) => {
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
            let opts = SweepOptions {
                threads: o.threads,
                snapshot_dir: o.snapshot_dir.as_ref().map(Into::into),
                journal: o
                    .journal
                    .as_ref()
                    .map_or_else(|| o.sweep.out_dir.join("sweep.ndjson"), Into::into),
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

    let md = outcome.report_markdown();
    match &o.report_out {
        Some(p) => write_file(p, &md, "sweep report"),
        None => print!("{md}"),
    }
    if outcome.skipped > 0 {
        eprintln!("resume skipped {} already-terminal cells", outcome.skipped);
    }
    if !outcome.ok() {
        let failed = outcome.quarantined();
        eprintln!("{} cell(s) quarantined:", failed.len());
        for (c, e) in &failed {
            eprintln!("  cell {} {} [{}]: {}", c.index, c.name(), e.code, e.message);
        }
        std::process::exit(1);
    }
    eprintln!("sweep complete: all {} cells done", outcome.cells.len());
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

#[cfg(test)]
mod tests {
    use super::suffixed;

    #[test]
    fn tags_go_into_the_file_name_only() {
        for (path, want) in [
            ("m", "m-dico"),
            ("m.json", "m-dico.json"),
            ("./m", "./m-dico"),
            ("out.d/m", "out.d/m-dico"),
            ("out.d/m.json", "out.d/m-dico.json"),
            (".hidden", ".hidden-dico"),
        ] {
            assert_eq!(suffixed(path, "dico"), want, "{path}");
        }
    }
}
