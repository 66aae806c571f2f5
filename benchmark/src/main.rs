//! `cmpsim-benchmark`: host-performance benchmark of the cmpsim
//! simulator on the paper's 64-tile, 4-VM chip.
//!
//! ```text
//! cmpsim-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                  [--out DIR] [--quick] [--check] [--write-golden]
//! ```
//!
//! Run it from the repository root (`benchmark/run.sh` builds it and
//! does so). One invocation measures one workload, a fixed list of
//! protocol × benchmark cells, and prints every metric as
//! `METRIC <workload> <name> <value> <unit>`, then `failed_cells F/N`,
//! then one JSON result line. A results JSON goes to `--out`.
//!
//! * `--trace 0` (end-to-end): the cells run on a closed loop of
//!   [`WORKERS`] threads. One discarded repetition at the golden seed is
//!   checked against `benchmark/golden.json`; repetitions at `--seed`
//!   follow until `--seconds` are measured, and the medians of their
//!   times, normalised to a reference host speed by [`host`], are
//!   reported.
//! * `--trace 1` (per layer): one closed-loop repetition, then every
//!   cell on one thread through the real simulator and through the
//!   span-recording [`mirror`] loop.
//!
//! `--quick` runs 2k references per core and one repetition, `--check`
//! fails when the emitted metric names differ from `BENCHMARK.json`, and
//! `--write-golden` records this workload's statistics at the golden
//! seed. See `benchmark/README.md` for the metrics and workloads.

mod cells;
mod host;
mod mirror;
mod spans;

use cells::{
    load_golden, run_cell, run_rep, write_golden, Cell, CellRun, CellStats, Rep, Workload,
    DEFAULT_SEED, QUICK_REFS, REFS, WORKLOADS,
};
use cmpsim::replay::Value;
use spans::{Layer, Tracer};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// Worker threads of the closed loop over cells (the load model).
const WORKERS: usize = 2;
/// Measured repetitions an untraced run makes however short `--seconds`.
const MIN_REPS: usize = 3;
const DEFAULT_SECONDS: f64 = 50.0;
const DEFAULT_OUT: &str = "benchmark/out";
const BENCHMARK_JSON: &str = "BENCHMARK.json";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    quick: bool,
    check: bool,
    write_golden: bool,
}

impl Args {
    fn refs(&self) -> u64 {
        if self.quick {
            QUICK_REFS
        } else {
            REFS
        }
    }

    /// Whether this run's cells are the golden ones.
    fn golden_seed(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.quick
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: WORKLOADS[0],
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
        quick: false,
        check: false,
        write_golden: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (expected one of {names:?})")
                })?);
            }
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = parsed.map_err(|e| format!("bad --seed {v:?}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds =
                    v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0).ok_or_else(
                        || format!("bad --seconds {v:?}: expected a positive number"),
                    )?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--write-golden" => args.write_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.write_golden && (args.trace || !args.golden_seed()) {
        return Err("--write-golden needs an untraced full run at the default seed".into());
    }
    Ok(args)
}

/// One reported metric with its spread over the repetitions.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Metric {
    fn one(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value, q1: value, q3: value, n: 1 }
    }

    fn median_of(name: &'static str, unit: &'static str, values: &[f64]) -> Self {
        let (q1, value, q3) = quartiles(values);
        Self { name, unit, value, q1, q3, n: values.len() }
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; all three equal a lone value.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let q = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// `a / b`, or 0 when `b` is 0 (keeps a metric finite when every cell
/// of its population failed).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counts cell runs and failures. A run fails when the simulator returns
/// an error or its statistics differ from what was expected of it.
struct Gate {
    cells: usize,
    attempted: u64,
    failed: u64,
    failed_cells: BTreeSet<usize>,
}

impl Gate {
    fn new(cells: usize) -> Self {
        Self { cells, attempted: 0, failed: 0, failed_cells: BTreeSet::new() }
    }

    fn check(
        &mut self,
        i: usize,
        cell: Cell,
        run: &CellRun,
        expect: Option<&CellStats>,
        what: &str,
    ) {
        self.attempted += 1;
        let problem = match (&run.outcome, expect) {
            (Err(e), _) => Some(e.clone()),
            (Ok(got), Some(want)) if got != want => {
                Some(format!("differs from {what}: {}", got.diff(want)))
            }
            _ => None,
        };
        if let Some(p) = problem {
            eprintln!("FAILED {}: {p}", cell.label());
            self.failed += 1;
            self.failed_cells.insert(i);
        }
    }

    /// Checks a repetition cell by cell against `expect` (`None`
    /// entries check only that the cell ran).
    fn check_rep(&mut self, cells: &[Cell], rep: &Rep, expect: &[Option<CellStats>], what: &str) {
        for (i, (run, want)) in rep.cells.iter().zip(expect).enumerate() {
            self.check(i, cells[i], run, want.as_ref(), what);
        }
    }
}

/// The expectation a first repetition is checked against: the golden
/// statistics when `golden`, only a clean run otherwise.
fn first_expectation(
    args: &Args,
    cells: &[Cell],
    golden: bool,
) -> Result<Vec<Option<CellStats>>, String> {
    if golden && !args.write_golden {
        Ok(load_golden(args.workload.name, cells)?.into_iter().map(Some).collect())
    } else {
        Ok(vec![None; cells.len()])
    }
}

fn stats_of(rep: &Rep) -> Vec<Option<CellStats>> {
    rep.cells.iter().map(|c| c.outcome.clone().ok()).collect()
}

struct Outcome {
    metrics: Vec<Metric>,
    gate: Gate,
    /// Run-specific detail for the results JSON.
    detail: Value,
}

/// End-to-end run: closed-loop repetitions until `--seconds` elapse.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let cells = w.cells();
    let refs = args.refs();
    let mut gate = Gate::new(cells.len());
    if !args.quick {
        // The first repetition of a process runs slow (page faults,
        // allocator growth) and is discarded. It runs at the golden seed
        // so that every run checks the golden statistics.
        let rep = run_rep(&cells, &w.config(refs, DEFAULT_SEED), WORKERS);
        gate.check_rep(&cells, &rep, &first_expectation(args, &cells, true)?, "golden");
        eprintln!("{}: warm-up repetition {:.3} s", w.name, rep.wall_s());
    }
    let golden = first_expectation(args, &cells, args.golden_seed())?;
    let cfg = w.config(refs, args.seed);
    let mut reps: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    loop {
        let rep = run_rep(&cells, &cfg, WORKERS);
        match reps.first() {
            None => gate.check_rep(&cells, &rep, &golden, "golden"),
            Some(first) => gate.check_rep(&cells, &rep, &stats_of(first), "repetition 1"),
        }
        eprintln!(
            "{}: repetition {} {:.3} s, host slowdown {:.3}",
            w.name,
            reps.len() + 1,
            rep.wall_s(),
            rep.slowdown()
        );
        reps.push(rep);
        let elapsed = t0.elapsed().as_secs_f64();
        let after_next = elapsed * (reps.len() + 1) as f64 / reps.len() as f64;
        if args.quick || (reps.len() >= MIN_REPS && after_next > args.seconds) {
            break;
        }
    }
    if args.write_golden {
        let stats: Option<Vec<CellStats>> = stats_of(&reps[0]).into_iter().collect();
        let stats = stats.ok_or("a cell failed; golden statistics not written")?;
        write_golden(w.name, &cells, &stats)?;
        eprintln!("{}: wrote golden statistics", w.name);
    }
    let refs_total = (refs * cfg.tiles() as u64 * cells.len() as u64) as f64;
    // Every time is normalised to the reference host speed (see `host`).
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let metrics = vec![
        Metric::median_of("wall_s", "s", &per_rep(&|r: &Rep| r.wall_s() / r.slowdown())),
        Metric::median_of(
            "refs_per_s",
            "Mrefs/s",
            &per_rep(&|r: &Rep| refs_total / r.busy_s() * r.slowdown() / 1e6),
        ),
        Metric::median_of("setup_s", "s", &per_rep(&|r: &Rep| r.setup_s() / r.slowdown())),
        Metric::one(
            "peak_rss_mib",
            "MiB",
            cmpsim_engine::profile::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
        ),
    ];
    let mut detail = Value::object();
    let rep_rows = reps
        .iter()
        .map(|r| {
            // As measured, before normalisation.
            let mut v = Value::object();
            v.set("wall_s", Value::float(r.wall_s()));
            v.set("busy_s", Value::float(r.busy_s()));
            v.set("setup_s", Value::float(r.setup_s()));
            v.set("probe_s", Value::float(r.probe_s()));
            v.set("slowdown", Value::float(r.slowdown()));
            v
        })
        .collect();
    detail.set("reps", Value::Arr(rep_rows));
    Ok(Outcome { metrics, gate, detail })
}

/// Per-layer run: the real program and the mirror loop, one cell at a
/// time.
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let cells = w.cells();
    let labels: Vec<String> = cells.iter().map(Cell::label).collect();
    let refs = args.refs();
    let cfg = w.config(refs, args.seed);
    let plain = w.plain_config(refs, args.seed);
    let refs_total = (refs * cfg.tiles() as u64 * cells.len() as u64) as f64;
    let mut gate = Gate::new(cells.len());

    // 1. One closed-loop repetition: executor idle time and event counts.
    let rep = run_rep(&cells, &cfg, WORKERS);
    gate.check_rep(&cells, &rep, &first_expectation(args, &cells, args.golden_seed())?, "golden");
    let reference = stats_of(&rep);
    let idle_frac = 1.0 - (rep.busy_s() + rep.probe_s()) / (WORKERS as f64 * rep.wall_s());
    let events: u64 = reference.iter().flatten().map(|s| s.events).sum();
    eprintln!("{}: closed-loop repetition {:.3} s", w.name, rep.wall_s());

    // 2. Cell by cell on one thread, so that host-speed drift hits the
    // runs compared with each other alike: the real program with the
    // observers off; for `alt_observed` also with them on (they must not
    // change a single statistic); then the mirror loop with spans.
    let mut tr = Tracer::new();
    let mut real = Vec::with_capacity(cells.len());
    let mut observed_ns = 0u64;
    let mut mirror_ns = 0u64;
    let mut exact_cells = 0usize;
    let mut blocked = 0u64;
    for (i, &c) in cells.iter().enumerate() {
        let run = run_cell(c, &plain);
        gate.check(i, c, &run, reference[i].as_ref(), "the closed-loop run");
        if w.observed {
            let run = run_cell(c, &cfg);
            gate.check(i, c, &run, reference[i].as_ref(), "the closed-loop run");
            observed_ns += run.total_ns();
        }
        tr.begin_cell(i as u32);
        let t = Instant::now();
        let m = mirror::run(c.protocol, c.benchmark, &plain, &mut tr);
        mirror_ns += t.elapsed().as_nanos() as u64;
        let exact = match (&m, &run.outcome) {
            (Ok(m), Ok(s)) => {
                (m.cycles, m.events, m.measured_refs, m.messages, m.broadcasts, m.l1_misses)
                    == (s.cycles, s.events, s.measured_refs, s.messages, s.broadcasts, s.l1_misses)
            }
            _ => false,
        };
        if !exact {
            eprintln!("INVALID {}: mirror {m:?} vs real {:?}", labels[i], run.outcome);
        }
        tr.end_cell(exact);
        exact_cells += usize::from(exact);
        blocked += m.map_or(0, |m| m.blocked);
        real.push(run);
    }
    let real_ns: u64 = real.iter().map(CellRun::total_ns).sum();
    let observers_frac =
        if w.observed { ratio(observed_ns as f64, real_ns as f64) - 1.0 } else { 0.0 };
    eprintln!(
        "{}: real cells {:.3} s, mirror cells {:.3} s",
        w.name,
        real_ns as f64 / 1e9,
        mirror_ns as f64 / 1e9
    );
    std::fs::create_dir_all(&args.out).map_err(|e| format!("cannot create {:?}: {e}", args.out))?;
    let spans_path = args.out.join(format!("{}.spans.json", w.name));
    tr.write_chrome(&spans_path, &labels)
        .map_err(|e| format!("cannot write {spans_path:?}: {e}"))?;

    let ok: Vec<&CellStats> = real.iter().filter_map(|r| r.outcome.as_ref().ok()).collect();
    let sum = |f: fn(&CellStats) -> u64| ok.iter().map(|s| f(s)).sum::<u64>() as f64;
    let measured = sum(|s| s.measured_refs);
    let ok_loop_ns: u64 = real.iter().filter(|r| r.outcome.is_ok()).map(CellRun::loop_ns).sum();
    let core_ns_per_event = ratio(ok_loop_ns as f64, sum(|s| s.events));
    let layers = &tr.kept;
    let ns = |l: Layer| layers.ns_per_event(l);
    let engine = ns(Layer::Pop) + ns(Layer::Push);
    let workloads = ns(Layer::NextRef);
    let virt = ns(Layer::Translate);
    let protocols = ns(Layer::CoreAccess) + ns(Layer::Handle);
    let noc = ns(Layer::Send) + ns(Layer::Broadcast);
    let glue = core_ns_per_event - (engine + workloads + virt + protocols + noc);
    let share = |x: f64| ratio(x, core_ns_per_event);
    let mean_ms =
        |f: fn(&CellRun) -> u64| real.iter().map(f).sum::<u64>() as f64 / 1e6 / cells.len() as f64;
    // The mirror has no result collection: compare it with the real
    // program's construction and event loop only.
    let real_unfinalized_ns: u64 = real.iter().map(|r| r.new_ns + r.loop_ns()).sum();
    let m = Metric::one;
    let metrics = vec![
        m("executor.idle_frac", "fraction", idle_frac),
        m("engine.events_per_ref", "events/ref", ratio(events as f64, refs_total)),
        m("engine.push_ns", "ns/event", ns(Layer::Push)),
        m("engine.pop_ns", "ns/event", ns(Layer::Pop)),
        m("workloads.next_ref_ns", "ns/event", workloads),
        m("virt.translate_ns", "ns/event", virt),
        m("protocols.core_access_ns", "ns/event", ns(Layer::CoreAccess)),
        m("protocols.l1_hit_ratio", "fraction", ratio(sum(|s| s.l1_hits), sum(|s| s.accesses))),
        m("protocols.handle_ns", "ns/event", ns(Layer::Handle)),
        m("protocols.msgs_per_ref", "msgs/ref", ratio(sum(|s| s.messages), measured)),
        m("protocols.blocked_per_kref", "1/kref", 1e3 * ratio(blocked as f64, refs_total)),
        m("noc.send_ns", "ns/event", ns(Layer::Send)),
        m("noc.broadcast_ns", "ns/event", ns(Layer::Broadcast)),
        m("noc.broadcasts_per_kref", "1/kref", 1e3 * ratio(sum(|s| s.broadcasts), measured)),
        m("core.ns_per_event", "ns/event", core_ns_per_event),
        m("core.new_ms", "ms", mean_ms(|r| r.new_ns)),
        m("core.finalize_ms", "ms", mean_ms(|r| r.finalize_ns)),
        m("sim.glue_ns_per_event", "ns/event", glue),
        m("observers.overhead_frac", "fraction", observers_frac),
        m("share.engine", "fraction", share(engine)),
        m("share.workloads", "fraction", share(workloads)),
        m("share.virt", "fraction", share(virt)),
        m("share.protocols", "fraction", share(protocols)),
        m("share.noc", "fraction", share(noc)),
        m("share.sim_glue", "fraction", share(glue)),
        m(
            "trace.overhead_frac",
            "fraction",
            ratio(mirror_ns as f64, real_unfinalized_ns as f64) - 1.0,
        ),
        m("trace.exact", "bool", if exact_cells == cells.len() { 1.0 } else { 0.0 }),
    ];
    let mut detail = Value::object();
    detail.set("exact_cells", Value::uint(exact_cells as u64));
    detail.set("sampled_events", Value::uint(layers.events));
    detail.set("spans_dropped", Value::uint(tr.dropped));
    detail.set("spans_file", Value::string(&spans_path.to_string_lossy()));
    Ok(Outcome { metrics, gate, detail })
}

/// The contract's result line: correctness, run counts and the metrics.
fn result_line(o: &Outcome) -> String {
    let mut metrics = Value::object();
    for m in &o.metrics {
        let mut v = Value::object();
        v.set("value", Value::float(m.value));
        v.set("unit", Value::string(m.unit));
        metrics.set(m.name, v);
    }
    let mut line = Value::object();
    line.set("correct", Value::boolean(o.gate.failed == 0));
    line.set("attempted", Value::uint(o.gate.attempted));
    line.set("failed", Value::uint(o.gate.failed));
    line.set("metrics", metrics);
    let mut out = String::new();
    line.render_compact_to(&mut out);
    out
}

/// Writes `<out>/<workload>.<untraced|traced>.json`.
fn write_results(args: &Args, o: &Outcome) -> Result<(), String> {
    let mut doc = Value::object();
    doc.set("workload", Value::string(args.workload.name));
    doc.set("trace", Value::boolean(args.trace));
    doc.set("seed", Value::uint(args.seed));
    doc.set("refs_per_core", Value::uint(args.refs()));
    doc.set("workers", Value::uint(WORKERS as u64));
    doc.set("cells", Value::uint(o.gate.cells as u64));
    doc.set("attempted", Value::uint(o.gate.attempted));
    doc.set("failed", Value::uint(o.gate.failed));
    doc.set("failed_cells", Value::uint(o.gate.failed_cells.len() as u64));
    let mut metrics = Value::object();
    for m in &o.metrics {
        let mut v = Value::object();
        v.set("value", Value::float(m.value));
        v.set("unit", Value::string(m.unit));
        v.set("q1", Value::float(m.q1));
        v.set("q3", Value::float(m.q3));
        v.set("n", Value::uint(m.n as u64));
        metrics.set(m.name, v);
    }
    doc.set("metrics", metrics);
    doc.set("detail", o.detail.clone());
    let mut text = String::new();
    doc.render_to(&mut text);
    text.push('\n');
    let kind = if args.trace { "traced" } else { "untraced" };
    let path = args.out.join(format!("{}.{kind}.json", args.workload.name));
    std::fs::create_dir_all(&args.out).map_err(|e| format!("cannot create {:?}: {e}", args.out))?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// Compares the emitted metric names with the ones `BENCHMARK.json`
/// declares for this kind of run.
fn check_names(trace: bool, emitted: &[&str]) -> Result<(), String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Value::Arr(items) = doc.field(key)? else {
        return Err(format!("{BENCHMARK_JSON}: {key} is not an array"));
    };
    let declared = items
        .iter()
        .map(|m| m.field("name").and_then(Value::as_str).map(str::to_string))
        .collect::<Result<BTreeSet<String>, String>>()?;
    let emitted: BTreeSet<String> = emitted.iter().map(|s| s.to_string()).collect();
    let missing: Vec<&String> = declared.difference(&emitted).collect();
    let undeclared: Vec<&String> = emitted.difference(&declared).collect();
    if missing.is_empty() && undeclared.is_empty() {
        Ok(())
    } else {
        Err(format!("{key}: missing {missing:?}, undeclared {undeclared:?}"))
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    let run = if args.trace { traced(&args) } else { untraced(&args) };
    let outcome = run.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1)
    });
    let w = args.workload.name;
    for m in &outcome.metrics {
        println!("METRIC {w} {} {} {}", m.name, m.value, m.unit);
    }
    println!("failed_cells {}/{}", outcome.gate.failed_cells.len(), outcome.gate.cells);
    if let Err(e) = write_results(&args, &outcome) {
        eprintln!("error: {e}");
        exit(1)
    }
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let check = if args.check { check_names(args.trace, &names) } else { Ok(()) };
    println!("{}", result_line(&outcome));
    if let Err(e) = check {
        eprintln!("check failed: {e}");
        exit(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::{Benchmark, Placement, ProtocolKind, SystemConfig};

    /// The mirror loop reproduces the real simulator event for event,
    /// for every protocol, on matched and alternative placement (the
    /// latter exercises DiCo-Arin's broadcasts).
    #[test]
    fn mirror_matches_the_simulator() {
        for placement in [Placement::Matched, Placement::Alternative] {
            let cfg = SystemConfig::smoke().with_placement(placement);
            for protocol in ProtocolKind::all() {
                let cell = Cell { protocol, benchmark: Benchmark::MixedCom };
                let real = run_cell(cell, &cfg).outcome.expect("real run");
                if protocol == ProtocolKind::DiCoArin && placement == Placement::Alternative {
                    assert!(real.broadcasts > 0, "the broadcast path is not exercised");
                }
                let mut tr = Tracer::new();
                tr.begin_cell(0);
                let m = mirror::run(protocol, cell.benchmark, &cfg, &mut tr).expect("mirror run");
                assert_eq!(
                    (m.cycles, m.events, m.measured_refs, m.messages, m.broadcasts, m.l1_misses),
                    (
                        real.cycles,
                        real.events,
                        real.measured_refs,
                        real.messages,
                        real.broadcasts,
                        real.l1_misses
                    ),
                    "{} {placement:?}",
                    cell.label()
                );
                tr.end_cell(true);
                assert!(tr.kept.events > 0, "no event was sampled");
            }
        }
    }

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }
}
