//! Command-line front end for the simulator.
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
//! cmpsim-cli compare --baseline cur.json base.json [--threshold F] [--rebaseline]
//!                                               # structural run diff / CI
//!                                               # regression gate (nonzero exit)
//! cmpsim-cli tables                             # Tables V, VI, VII (analytic)
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
//!                         core; the CMPSIM_THREADS environment variable sets
//!                         the default)
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
//! Every deterministic JSON artifact (metrics, time-series, trace,
//! breakdown, crash dump) embeds a `manifest` object: a content-hashed
//! `run_id` over (config, protocol, benchmark, seed, fault plan, schema
//! versions) plus the tool version, so any two artifacts can be traced
//! to — and compared against — the exact run that produced them.
//!
//! `matrix` writes one file per cell, suffixing the protocol name
//! before the extension (the breakdown artifact is one combined file).
//! Every simulating command prints a host self-profile line (wall-clock
//! spans + simulated-cycles/s throughput) to **stderr**, keeping stdout
//! and every artifact deterministic.
//!
//! Fault injection: `--faults recoverable[@SEED]` or `--faults
//! chaos[@SEED]` (or the `CMPSIM_FAULTS` environment variable) arms a
//! deterministic fault plan on any simulating command. `chaos` sweeps N
//! seeded plans across the protocol x benchmark matrix, verifies every
//! recovered cell bit-identical (in architectural state) against its
//! fault-free golden twin, and exits nonzero on any divergence, panic,
//! or typed error lacking a replay artifact.
//!
//! Protocols: directory | dico | providers | arin.
//! Benchmarks: apache | jbb | radix | lu | volrend | tomcatv |
//! mixed-com | mixed-sci.
//!
//! A failing `run`/`matrix` writes a JSON replay artifact (path printed
//! with the error); `replay` re-runs it deterministically and reports
//! whether the original failure reproduced at the same cycle.
//! `--check` force-enables the coherence invariant checker during the
//! replay, often turning an end-state deadlock into the first broken
//! invariant.

use cmpsim::report::{
    breakdown_csv, breakdown_energy_table, breakdown_json, breakdown_latency_table,
    markdown_chaos_section, markdown_report, table,
};
use cmpsim::chaos::{chaos_sweep, CellOutcome};
use cmpsim::snapshot::key_hex;
use cmpsim::vmstat::{heatmap_csv, heatmap_json, vmstat_json, vmstat_tables};
use cmpsim::{
    run_matrix, snapshot_eligible, snapshot_key, Benchmark, CmpSimulator, FaultPlan, MissClass,
    Placement, ProtocolKind, ReplayArtifact, RunOptions, RunResult, SimError, SnapshotStore,
    SystemConfig,
};
use cmpsim_power::{leakage_per_tile, overhead_percent};
use std::path::Path;

fn parse_protocol(s: &str) -> Option<ProtocolKind> {
    match s.to_ascii_lowercase().as_str() {
        "directory" | "dir" => Some(ProtocolKind::Directory),
        "dico" => Some(ProtocolKind::DiCo),
        "providers" | "dico-providers" => Some(ProtocolKind::DiCoProviders),
        "arin" | "dico-arin" => Some(ProtocolKind::DiCoArin),
        _ => None,
    }
}

fn parse_benchmark(s: &str) -> Option<Benchmark> {
    match s.to_ascii_lowercase().as_str() {
        "apache" => Some(Benchmark::Apache),
        "jbb" => Some(Benchmark::Jbb),
        "radix" => Some(Benchmark::Radix),
        "lu" => Some(Benchmark::Lu),
        "volrend" => Some(Benchmark::Volrend),
        "tomcatv" => Some(Benchmark::Tomcatv),
        "mixed-com" => Some(Benchmark::MixedCom),
        "mixed-sci" => Some(Benchmark::MixedSci),
        _ => None,
    }
}

struct Options {
    protocol: ProtocolKind,
    benchmark: Benchmark,
    refs: u64,
    seed: u64,
    alt: bool,
    max_events: Option<u64>,
    check: bool,
    trace_out: Option<String>,
    interval: Option<u64>,
    series_out: Option<String>,
    metrics_out: Option<String>,
    attr: bool,
    breakdown_out: Option<String>,
    vmstat_out: Option<String>,
    heatmap_out: Option<String>,
    faults: Option<FaultPlan>,
    manifest_out: Option<String>,
    host_profile_out: Option<String>,
    progress_out: Option<String>,
    out: Option<String>,
    all_benchmarks: bool,
    threads: Option<usize>,
    snapshot_dir: Option<String>,
}

/// Worker-thread default from `CMPSIM_THREADS` (`None` when unset;
/// `--threads` overrides it).
fn env_threads() -> Result<Option<usize>, String> {
    cmpsim::env::positive(cmpsim::env::THREADS).map_err(|e| e.to_string())
}

fn parse_threads(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad thread count {v} (want an integer >= 1)")),
    }
}

/// Opens the disk-backed snapshot store when `--snapshot-dir` was
/// given. An unusable directory is fatal: the user asked for reuse.
fn snapshot_store(dir: Option<&str>) -> Option<SnapshotStore> {
    dir.map(|d| {
        SnapshotStore::with_dir(d).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    })
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        protocol: ProtocolKind::DiCoArin,
        benchmark: Benchmark::Apache,
        refs: 20_000,
        seed: 0xC0FFEE,
        alt: false,
        max_events: None,
        check: false,
        trace_out: None,
        interval: None,
        series_out: None,
        metrics_out: None,
        attr: false,
        breakdown_out: None,
        vmstat_out: None,
        heatmap_out: None,
        faults: None,
        manifest_out: None,
        host_profile_out: None,
        progress_out: None,
        out: None,
        all_benchmarks: false,
        threads: env_threads()?,
        snapshot_dir: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--protocol" | "-p" => {
                let v = it.next().ok_or("--protocol needs a value")?;
                o.protocol = parse_protocol(v).ok_or_else(|| format!("unknown protocol {v}"))?;
            }
            "--benchmark" | "-b" => {
                let v = it.next().ok_or("--benchmark needs a value")?;
                o.benchmark =
                    parse_benchmark(v).ok_or_else(|| format!("unknown benchmark {v}"))?;
            }
            "--refs" | "-n" => {
                let v = it.next().ok_or("--refs needs a value")?;
                o.refs = v.parse().map_err(|_| format!("bad refs {v}"))?;
            }
            "--seed" | "-s" => {
                let v = it.next().ok_or("--seed needs a value")?;
                o.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--alt" => o.alt = true,
            "--max-events" => {
                let v = it.next().ok_or("--max-events needs a value")?;
                o.max_events = Some(v.parse().map_err(|_| format!("bad event budget {v}"))?);
            }
            "--check" => o.check = true,
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a file path")?;
                o.trace_out = Some(v.clone());
            }
            "--interval" => {
                let v = it.next().ok_or("--interval needs a cycle count")?;
                o.interval = Some(v.parse().map_err(|_| format!("bad interval {v}"))?);
            }
            "--series-out" => {
                let v = it.next().ok_or("--series-out needs a file path")?;
                o.series_out = Some(v.clone());
            }
            "--metrics-out" => {
                let v = it.next().ok_or("--metrics-out needs a file path")?;
                o.metrics_out = Some(v.clone());
            }
            "--attr" => o.attr = true,
            "--faults" => {
                let v = it.next().ok_or("--faults needs a spec (recoverable[@SEED] | chaos[@SEED])")?;
                o.faults = Some(FaultPlan::parse(v)?);
            }
            "--breakdown-out" => {
                let v = it.next().ok_or("--breakdown-out needs a file path")?;
                o.breakdown_out = Some(v.clone());
            }
            "--vmstat-out" => {
                let v = it.next().ok_or("--vmstat-out needs a file path")?;
                o.vmstat_out = Some(v.clone());
            }
            "--heatmap-out" => {
                let v = it.next().ok_or("--heatmap-out needs a file path")?;
                o.heatmap_out = Some(v.clone());
            }
            "--manifest-out" => {
                let v = it.next().ok_or("--manifest-out needs a file path")?;
                o.manifest_out = Some(v.clone());
            }
            "--host-profile-out" => {
                let v = it.next().ok_or("--host-profile-out needs a file path")?;
                o.host_profile_out = Some(v.clone());
            }
            "--progress-out" => {
                let v = it.next().ok_or("--progress-out needs a file path")?;
                o.progress_out = Some(v.clone());
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                o.out = Some(v.clone());
            }
            "--all-benchmarks" => o.all_benchmarks = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a count")?;
                o.threads = Some(parse_threads(v)?);
            }
            "--snapshot-dir" => {
                let v = it.next().ok_or("--snapshot-dir needs a directory path")?;
                o.snapshot_dir = Some(v.clone());
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

fn config(o: &Options) -> SystemConfig {
    let mut cfg = SystemConfig::paper().with_refs(o.refs).with_seed(o.seed);
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
    // The CLI flag wins over the CMPSIM_FAULTS environment variable.
    let plan = match &o.faults {
        Some(p) => Some(p.clone()),
        None => FaultPlan::from_env().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    };
    cfg.with_fault_plan(plan)
}

/// Inserts `tag` before the extension: `out.json` -> `out-dico.json`.
fn suffixed(path: &str, tag: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}-{tag}.{ext}"),
        None => format!("{path}-{tag}"),
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
/// `tag` distinguishes matrix cells (None for single runs).
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
            let body = if p.ends_with(".csv") {
                ts.to_csv()
            } else {
                r.stamp_artifact(ts.to_json())
            };
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
    let mut results =
        run_matrix(&[o.protocol], &[o.benchmark], &config(o), opts).unwrap_or_else(|e| bail(e));
    results.pop().expect("one cell")
}

fn cmd_run(o: &Options) {
    let r = run_one(o, "run");
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
    if let Some(p) = &o.breakdown_out {
        write_breakdown(p, std::slice::from_ref(&r));
    }
    write_tenant_outputs(o, std::slice::from_ref(&r));
    write_outputs(o, &r, None);
}

/// `stats`: one run, then the full metrics registry, one line per
/// metric (hierarchical names, sorted).
fn cmd_stats(o: &Options) {
    let r = run_one(o, "stats");
    println!(
        "{} on {}{} ({} refs/core, seed {})",
        r.protocol.name(),
        r.benchmark.name(),
        r.placement.suffix(),
        o.refs,
        o.seed
    );
    println!();
    print!("{}", r.metrics().dump());
    if let Some(p) = &o.breakdown_out {
        write_breakdown(p, std::slice::from_ref(&r));
    }
    write_tenant_outputs(o, std::slice::from_ref(&r));
    write_outputs(o, &r, None);
}

/// Builds the live-telemetry sink for a sweep (`--progress-out` NDJSON
/// plus a human heartbeat line per cell on stderr).
fn progress_sink(label: &str, total: usize, path: Option<&str>) -> cmpsim::ProgressSink {
    cmpsim::ProgressSink::new(label, total, path, true).unwrap_or_else(|e| {
        eprintln!("error: cannot open progress stream: {e}");
        std::process::exit(1);
    })
}

fn cmd_matrix(o: &Options) {
    let cfg = config(o);
    let protocols = ProtocolKind::all();
    let sink = progress_sink("matrix", protocols.len(), o.progress_out.as_deref());
    let store = snapshot_store(o.snapshot_dir.as_deref());
    let opts = RunOptions { threads: o.threads, store: store.as_ref(), progress: Some(&sink) };
    let results = run_matrix(&protocols, &[o.benchmark], &cfg, opts).unwrap_or_else(|e| bail(e));
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
    println!("{}{} at {} refs/core:", o.benchmark.name(), cfg.placement.suffix(), cfg.refs_per_core);
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
    write_tenant_outputs(o, &results);
    for r in &results {
        let tag = r.protocol.name().to_lowercase();
        write_outputs(o, r, Some(&tag));
    }
}

/// All four protocols on `o.benchmark` with attribution on, after the
/// `view` header line that `breakdown` and `vmstat` print.
fn attributed_matrix(o: &Options, view: &str) -> Vec<RunResult> {
    let cfg = config(o).with_attribution();
    let opts = RunOptions { threads: o.threads, ..RunOptions::default() };
    let results =
        run_matrix(&ProtocolKind::all(), &[o.benchmark], &cfg, opts).unwrap_or_else(|e| bail(e));
    let (b, suffix) = (o.benchmark.name(), cfg.placement.suffix());
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
fn cmd_breakdown(o: &Options) {
    let results = attributed_matrix(o, "critical-path & energy attribution");
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
fn cmd_vmstat(o: &Options) {
    let results = attributed_matrix(o, "tenant observability");
    print!("{}", vmstat_tables(&results));
    write_tenant_outputs(o, &results);
    print_throughput(&results);
}

/// `report`: one deterministic Markdown report over a matrix run — the
/// run ledger, the paper-style tables, Fig. 7/8 breakdowns, interval
/// summaries and fault counts. Attribution is always enabled so the
/// breakdown sections are populated. Byte-identical across reruns of
/// the same configuration (`--out` or stdout).
fn cmd_report(o: &Options) {
    let cfg = config(o).with_attribution();
    let benchmarks: Vec<Benchmark> =
        if o.all_benchmarks { Benchmark::all().to_vec() } else { vec![o.benchmark] };
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

/// `compare`: structural diff of two runs/matrices, or (`--baseline`)
/// the host-throughput regression gate. Exits nonzero when the
/// comparison fails, writing a machine-readable JSON diff with
/// `--out`.
fn cmd_compare(args: &[String]) {
    let bad = |e: String| -> ! {
        eprintln!("error: {e}");
        eprintln!(
            "usage: cmpsim-cli compare A.json B.json [--tol F] [--allow-improved] [--out diff.json]"
        );
        eprintln!(
            "       cmpsim-cli compare --baseline current.json baseline.json [--threshold F] [--rebaseline] [--out diff.json]"
        );
        std::process::exit(2);
    };
    let mut paths: Vec<String> = Vec::new();
    let mut baseline_mode = false;
    let mut rebaseline = false;
    let mut threshold = 0.20f64;
    let mut opts = cmpsim::CompareOptions::default();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => baseline_mode = true,
            "--rebaseline" => rebaseline = true,
            "--allow-improved" => opts.allow_improved = true,
            "--threshold" => {
                let v = it.next().unwrap_or_else(|| bad("--threshold needs a value".into()));
                threshold = v.parse().unwrap_or_else(|_| bad(format!("bad threshold {v}")));
            }
            "--tol" => {
                let v = it.next().unwrap_or_else(|| bad("--tol needs a value".into()));
                opts.tolerance = v.parse().unwrap_or_else(|_| bad(format!("bad tolerance {v}")));
            }
            "--out" => {
                let v = it.next().unwrap_or_else(|| bad("--out needs a file path".into()));
                out = Some(v.clone());
            }
            other if !other.starts_with('-') => paths.push(other.to_string()),
            other => bad(format!("unknown compare option {other}")),
        }
    }
    if paths.len() != 2 {
        bad(format!("compare needs exactly two paths, got {}", paths.len()));
    }

    if baseline_mode {
        let read = |p: &str| -> cmpsim::replay::Value {
            let text = std::fs::read_to_string(p)
                .unwrap_or_else(|e| bad(format!("cannot read {p}: {e}")));
            cmpsim::replay::Value::parse(&text).unwrap_or_else(|e| bad(format!("{p}: {e}")))
        };
        let current = read(&paths[0]);
        let baseline = read(&paths[1]);
        if rebaseline {
            let text = cmpsim::compare::rebaseline(&current, &baseline)
                .unwrap_or_else(|e| bad(e));
            std::fs::write(&paths[1], &text)
                .unwrap_or_else(|e| bad(format!("cannot write {}: {e}", paths[1])));
            println!("rebaselined into {}", paths[1]);
            return;
        }
        let report = cmpsim::compare::compare_baseline(&current, &baseline, threshold)
            .unwrap_or_else(|e| bad(e));
        for line in &report.lines {
            println!("{line}");
        }
        if let Some(p) = &out {
            write_file(p, &report.to_json(&paths[0], &paths[1], threshold), "compare diff");
        }
        if !report.passed() {
            eprintln!(
                "\n{} benchmark(s) regressed more than {:.0}%:",
                report.failures.len(),
                threshold * 100.0
            );
            for f in &report.failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!("\nall benchmarks within threshold");
        return;
    }

    let report =
        cmpsim::compare::compare_paths(Path::new(&paths[0]), Path::new(&paths[1]), &opts)
            .unwrap_or_else(|e| bad(e));
    for line in report.lines() {
        println!("{line}");
    }
    if let Some(p) = &out {
        write_file(p, &report.to_json(&opts), "compare diff");
    }
    if !report.passed(&opts) {
        std::process::exit(1);
    }
}

fn cmd_tables() {
    println!("== Table V/VII: storage overhead (64 cores) ==\n");
    let areas = [2u64, 4, 8, 16, 32, 64];
    let mut rows = Vec::new();
    for kind in ProtocolKind::all() {
        let mut row = vec![kind.name().to_string()];
        row.extend(areas.iter().map(|&a| format!("{:.1}%", overhead_percent(kind, 64, a))));
        rows.push(row);
    }
    let mut header = vec!["protocol".to_string()];
    header.extend(areas.iter().map(|a| format!("{a} areas")));
    let refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    println!("{}", table(&refs, &rows));

    println!("== Table VI: leakage per tile (4 areas) ==\n");
    let rows: Vec<Vec<String>> = ProtocolKind::all()
        .iter()
        .map(|&k| {
            let l = leakage_per_tile(k, 64, 4);
            vec![
                k.name().to_string(),
                format!("{:.0} mW", l.total_mw),
                format!("{:.0} mW", l.tag_mw),
            ]
        })
        .collect();
    println!("{}", table(&["protocol", "total", "tags"], &rows));
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
            match CmpSimulator::restore_snapshot(art.protocol, art.benchmark, &art.config, &image)
            {
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

fn cmd_replay(path: &str, check: bool, snapshot_dir: Option<&str>) {
    let art = ReplayArtifact::load(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
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
    let warmed = if check { None } else { snapshot_dir.and_then(|d| replay_checkpoint(d, &art)) };
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
fn cmd_chaos(args: &[String]) {
    let mut plans_n: u64 = 8;
    let mut mode = "both".to_string();
    let mut seed: u64 = 0xC4A05;
    let mut refs: u64 = 800;
    let mut small = true;
    let mut alt = false;
    let mut protocol: Option<ProtocolKind> = None;
    let mut benchmark: Option<Benchmark> = None;
    let mut progress_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut report_out: Option<String> = None;
    let mut snapshot_dir: Option<String> = None;
    let mut it = args.iter();
    let bad = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2);
    };
    let mut threads = env_threads().unwrap_or_else(|e| bad(e));
    while let Some(a) = it.next() {
        match a.as_str() {
            "--plans" => {
                let v = it.next().unwrap_or_else(|| bad("--plans needs a count".into()));
                plans_n = v.parse().unwrap_or_else(|_| bad(format!("bad plan count {v}")));
            }
            "--mode" => {
                let v = it.next().unwrap_or_else(|| bad("--mode needs a value".into()));
                match v.as_str() {
                    "recoverable" | "chaos" | "both" => mode = v.clone(),
                    other => bad(format!("unknown chaos mode {other} (recoverable|chaos|both)")),
                }
            }
            "--seed" | "-s" => {
                let v = it.next().unwrap_or_else(|| bad("--seed needs a value".into()));
                seed = v.parse().unwrap_or_else(|_| bad(format!("bad seed {v}")));
            }
            "--refs" | "-n" => {
                let v = it.next().unwrap_or_else(|| bad("--refs needs a value".into()));
                refs = v.parse().unwrap_or_else(|_| bad(format!("bad refs {v}")));
            }
            "--paper" => small = false,
            "--small" => small = true,
            "--alt" => alt = true,
            "--protocol" | "-p" => {
                let v = it.next().unwrap_or_else(|| bad("--protocol needs a value".into()));
                protocol =
                    Some(parse_protocol(v).unwrap_or_else(|| bad(format!("unknown protocol {v}"))));
            }
            "--benchmark" | "-b" => {
                let v = it.next().unwrap_or_else(|| bad("--benchmark needs a value".into()));
                benchmark = Some(
                    parse_benchmark(v).unwrap_or_else(|| bad(format!("unknown benchmark {v}"))),
                );
            }
            "--progress-out" => {
                let v = it.next().unwrap_or_else(|| bad("--progress-out needs a file path".into()));
                progress_out = Some(v.clone());
            }
            "--json-out" => {
                let v = it.next().unwrap_or_else(|| bad("--json-out needs a file path".into()));
                json_out = Some(v.clone());
            }
            "--report-out" => {
                let v = it.next().unwrap_or_else(|| bad("--report-out needs a file path".into()));
                report_out = Some(v.clone());
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| bad("--threads needs a count".into()));
                threads = Some(parse_threads(v).unwrap_or_else(|e| bad(e)));
            }
            "--snapshot-dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| bad("--snapshot-dir needs a directory path".into()));
                snapshot_dir = Some(v.clone());
            }
            other => bad(format!("unknown chaos option {other}")),
        }
    }
    let mut cfg = if small { SystemConfig::small() } else { SystemConfig::paper() };
    cfg = cfg.with_refs(refs);
    if alt {
        cfg = cfg.with_placement(Placement::Alternative);
    }
    let protocols: Vec<ProtocolKind> =
        protocol.map_or_else(|| ProtocolKind::all().to_vec(), |p| vec![p]);
    let benchmarks: Vec<Benchmark> =
        benchmark.map_or_else(|| Benchmark::all().to_vec(), |b| vec![b]);
    let plans: Vec<FaultPlan> = (0..plans_n)
        .map(|i| match mode.as_str() {
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
        progress_out.as_deref(),
    );
    let store = snapshot_store(snapshot_dir.as_deref());
    let opts = RunOptions { threads, store: store.as_ref(), progress: Some(&sink) };
    let report = chaos_sweep(&protocols, &benchmarks, &plans, &cfg, opts);
    if let Some(p) = &json_out {
        write_file(p, &report.to_json(), "chaos report");
    }
    if let Some(p) = &report_out {
        write_file(p, &markdown_chaos_section(&report), "chaos markdown");
    }

    let mut rows = Vec::new();
    for plan in &plans {
        let cells: Vec<_> =
            report.cells.iter().filter(|c| c.plan == *plan).collect();
        let recovered =
            cells.iter().filter(|c| matches!(c.outcome, CellOutcome::Recovered { .. })).count();
        let faulted =
            cells.iter().filter(|c| matches!(c.outcome, CellOutcome::Faulted { .. })).count();
        let violations = cells.iter().filter(|c| !c.outcome.acceptable()).count();
        let (mut fired, mut retries, mut timeouts, mut overhead) = (0u64, 0u64, 0u64, 0u64);
        for c in &cells {
            if let CellOutcome::Recovered {
                faults_fired, retries: r, timeouts: t, cycles, effective_cycles,
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
            &["plan", "recovered", "faulted", "violations", "faults", "retries", "timeouts",
              "overhead cy"],
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
fn cmd_sweep(args: &[String]) {
    let bad = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2);
    };
    let mut resume: Option<String> = None;
    let mut protocols: Vec<ProtocolKind> = Vec::new();
    let mut benchmarks: Vec<Benchmark> = Vec::new();
    let mut seeds: Vec<u64> = Vec::new();
    let mut plans: Vec<Option<FaultPlan>> = Vec::new();
    let mut refs: u64 = 800;
    let mut small = true;
    let mut alt = false;
    let mut opts = cmpsim::SweepOptions::default();
    let mut journal: Option<String> = None;
    let mut report_out: Option<String> = None;
    opts.threads = env_threads().unwrap_or_else(|e| bad(e));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--resume" => {
                let v = it.next().unwrap_or_else(|| bad("--resume needs a journal path".into()));
                resume = Some(v.clone());
            }
            "--protocol" | "-p" => {
                let v = it.next().unwrap_or_else(|| bad("--protocol needs a value".into()));
                for s in v.split(',') {
                    protocols.push(
                        parse_protocol(s).unwrap_or_else(|| bad(format!("unknown protocol {s}"))),
                    );
                }
            }
            "--benchmark" | "-b" => {
                let v = it.next().unwrap_or_else(|| bad("--benchmark needs a value".into()));
                for s in v.split(',') {
                    benchmarks.push(
                        parse_benchmark(s).unwrap_or_else(|| bad(format!("unknown benchmark {s}"))),
                    );
                }
            }
            "--seeds" => {
                let v = it.next().unwrap_or_else(|| bad("--seeds needs a comma list".into()));
                for s in v.split(',') {
                    seeds.push(s.parse().unwrap_or_else(|_| bad(format!("bad seed {s}"))));
                }
            }
            "--plans" => {
                let v = it.next().unwrap_or_else(|| bad("--plans needs a comma list".into()));
                for s in v.split(',') {
                    if s == "none" {
                        plans.push(None);
                    } else {
                        plans.push(Some(FaultPlan::parse(s).unwrap_or_else(|e| bad(e))));
                    }
                }
            }
            "--refs" | "-n" => {
                let v = it.next().unwrap_or_else(|| bad("--refs needs a value".into()));
                refs = v.parse().unwrap_or_else(|_| bad(format!("bad refs {v}")));
            }
            "--paper" => small = false,
            "--small" => small = true,
            "--alt" => alt = true,
            "--out-dir" => {
                let v = it.next().unwrap_or_else(|| bad("--out-dir needs a directory".into()));
                opts.out_dir = v.into();
            }
            "--journal" => {
                let v = it.next().unwrap_or_else(|| bad("--journal needs a file path".into()));
                journal = Some(v.clone());
            }
            "--deadline-ms" => {
                let v = it.next().unwrap_or_else(|| bad("--deadline-ms needs a value".into()));
                opts.deadline_ms =
                    Some(v.parse().unwrap_or_else(|_| bad(format!("bad deadline {v}"))));
            }
            "--retries" => {
                let v = it.next().unwrap_or_else(|| bad("--retries needs a count".into()));
                opts.retries = v.parse().unwrap_or_else(|_| bad(format!("bad retry count {v}")));
            }
            "--backoff-ms" => {
                let v = it.next().unwrap_or_else(|| bad("--backoff-ms needs a value".into()));
                opts.backoff_ms = v.parse().unwrap_or_else(|_| bad(format!("bad backoff {v}")));
            }
            "--inject" => {
                let v = it.next().unwrap_or_else(|| bad("--inject needs kind@cell".into()));
                opts.injections.push(cmpsim::Injection::parse(v).unwrap_or_else(|e| bad(e)));
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| bad("--threads needs a count".into()));
                opts.threads = Some(parse_threads(v).unwrap_or_else(|e| bad(e)));
            }
            "--snapshot-dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| bad("--snapshot-dir needs a directory path".into()));
                opts.snapshot_dir = Some(v.into());
            }
            "--report-out" => {
                let v = it.next().unwrap_or_else(|| bad("--report-out needs a file path".into()));
                report_out = Some(v.clone());
            }
            other => bad(format!("unknown sweep option {other}")),
        }
    }

    let outcome = match resume {
        Some(journal) => {
            eprintln!("resuming sweep from {journal}");
            cmpsim::resume_sweep(Path::new(&journal), opts.threads).unwrap_or_else(|e| bad(e))
        }
        None => {
            let mut base = if small { SystemConfig::small() } else { SystemConfig::paper() };
            base = base.with_refs(refs);
            if alt {
                base = base.with_placement(Placement::Alternative);
            }
            let spec = cmpsim::SweepSpec {
                protocols: if protocols.is_empty() {
                    ProtocolKind::all().to_vec()
                } else {
                    protocols
                },
                benchmarks: if benchmarks.is_empty() {
                    Benchmark::all().to_vec()
                } else {
                    benchmarks
                },
                seeds,
                plans,
                base,
            };
            opts.journal =
                journal.map_or_else(|| opts.out_dir.join("sweep.ndjson"), Into::into);
            eprintln!(
                "sweep: {} protocols x {} benchmarks x {} seeds x {} plans, journal {}",
                spec.protocols.len(),
                spec.benchmarks.len(),
                spec.seeds.len().max(1),
                spec.plans.len().max(1),
                opts.journal.display()
            );
            cmpsim::run_sweep(&spec, &opts).unwrap_or_else(|e| bad(e))
        }
    };

    let md = outcome.report_markdown();
    match &report_out {
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

fn cmd_list() {
    println!("protocols:  directory | dico | providers | arin");
    println!("benchmarks: apache | jbb | radix | lu | volrend | tomcatv | mixed-com | mixed-sci");
    println!("fault modes: recoverable[@SEED] | chaos[@SEED]  (--faults / CMPSIM_FAULTS)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!(
                "usage: cmpsim-cli <run|stats|matrix|breakdown|vmstat|report|compare|tables|replay|sweep|chaos|list> [options]"
            );
            std::process::exit(2);
        }
    };
    match cmd {
        "tables" => cmd_tables(),
        "list" => cmd_list(),
        "sweep" => cmd_sweep(rest),
        "chaos" => cmd_chaos(rest),
        "compare" => cmd_compare(rest),
        "replay" => {
            let mut file = None;
            let mut check = false;
            let mut snapshot_dir: Option<String> = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--check" => check = true,
                    "--snapshot-dir" => match it.next() {
                        Some(v) => snapshot_dir = Some(v.clone()),
                        None => {
                            eprintln!("--snapshot-dir needs a directory path");
                            std::process::exit(2);
                        }
                    },
                    other if file.is_none() && !other.starts_with('-') => {
                        file = Some(other.to_string())
                    }
                    other => {
                        eprintln!("unknown replay option {other}");
                        std::process::exit(2);
                    }
                }
            }
            match file {
                Some(f) => cmd_replay(&f, check, snapshot_dir.as_deref()),
                None => {
                    eprintln!(
                        "usage: cmpsim-cli replay <artifact.json> [--check] [--snapshot-dir D]"
                    );
                    std::process::exit(2);
                }
            }
        }
        "run" | "matrix" | "stats" | "breakdown" | "report" | "vmstat" => match parse_options(rest)
        {
            Ok(o) => match cmd {
                "run" => cmd_run(&o),
                "stats" => cmd_stats(&o),
                "breakdown" => cmd_breakdown(&o),
                "report" => cmd_report(&o),
                "vmstat" => cmd_vmstat(&o),
                _ => cmd_matrix(&o),
            },
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
        other => {
            eprintln!(
                "unknown command {other}; try run, stats, matrix, breakdown, vmstat, report, compare, tables, replay, sweep, chaos, list"
            );
            std::process::exit(2);
        }
    }
}
