//! Workloads, the cells they run, and the per-cell simulated statistics
//! the correctness gate compares.

use crate::host;
use cmpsim::replay::Value;
use cmpsim::{Benchmark, CmpSimulator, Placement, ProtocolKind, RunResult, SystemConfig};
use cmpsim_engine::par::par_map_with_threads;
use std::time::Instant;

/// Seed of the golden statistics (and the simulator's default).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// References per core of a full run. Sized so that a repetition of the
/// largest workload takes a few seconds: a run can then take the median
/// of several repetitions within its time budget.
pub const REFS: u64 = 5_000;
/// References per core under `--quick`.
pub const QUICK_REFS: u64 = 2_000;
/// Interval length of the `alt_observed` workload's time-series sampler.
const OBSERVED_INTERVAL: u64 = 10_000;
/// Where the golden statistics live, relative to the repository root.
pub const GOLDEN_PATH: &str = "benchmark/golden.json";

/// One set of protocol × benchmark cells on the paper chip.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    benchmarks: &'static [Benchmark],
    placement: Placement,
    /// Attribution and the interval sampler are on.
    pub observed: bool,
}

/// The workloads; see `benchmark/README.md` for why each exists.
pub const WORKLOADS: [Workload; 2] = [
    // The paper's 32-cell matrix: the L2-power-dominated class (message
    // handling, NoC, memory), then the L1-power-dominated one (core-access
    // hits). The longest cells come first, so that the short ones fill
    // the executor's tail.
    Workload {
        name: "matrix",
        benchmarks: &[
            Benchmark::Jbb,
            Benchmark::Apache,
            Benchmark::MixedCom,
            Benchmark::Radix,
            Benchmark::Lu,
            Benchmark::Volrend,
            Benchmark::Tomcatv,
            Benchmark::MixedSci,
        ],
        placement: Placement::Matched,
        observed: false,
    },
    // VMs straddle areas, so DiCo-Arin broadcasts, and the observers of
    // the report/vmstat/breakdown path are on.
    Workload {
        name: "alt_observed",
        benchmarks: &[Benchmark::Apache, Benchmark::MixedCom],
        placement: Placement::Alternative,
        observed: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The cells, benchmark-major in the paper's protocol order.
    pub fn cells(&self) -> Vec<Cell> {
        self.benchmarks
            .iter()
            .flat_map(|&b| ProtocolKind::all().map(|p| Cell { protocol: p, benchmark: b }))
            .collect()
    }

    /// The configuration the workload runs, observers off.
    pub fn plain_config(&self, refs: u64, seed: u64) -> SystemConfig {
        SystemConfig::paper().with_refs(refs).with_seed(seed).with_placement(self.placement)
    }

    /// The configuration the workload runs.
    pub fn config(&self, refs: u64, seed: u64) -> SystemConfig {
        let cfg = self.plain_config(refs, seed);
        if self.observed {
            cfg.with_attribution().with_interval(OBSERVED_INTERVAL)
        } else {
            cfg
        }
    }
}

/// One protocol on one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Benchmark configuration.
    pub benchmark: Benchmark,
}

impl Cell {
    /// `Protocol/benchmark`, as in reports.
    pub fn label(&self) -> String {
        format!("{}/{}", self.protocol.name(), self.benchmark.name())
    }
}

/// The simulated statistics of one cell. They are a pure function of
/// the configuration, so any difference between two runs of a cell is
/// a correctness failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellStats {
    /// Measured cycles.
    pub cycles: u64,
    /// References retired in the measured window.
    pub measured_refs: u64,
    /// Events over the whole run.
    pub events: u64,
    /// NoC messages (measured window).
    pub messages: u64,
    /// NoC broadcasts (measured window).
    pub broadcasts: u64,
    /// L1 accesses (measured window).
    pub accesses: u64,
    /// L1 hits (measured window).
    pub l1_hits: u64,
    /// L1 misses (measured window).
    pub l1_misses: u64,
    /// Total dynamic energy in nJ, as its f64 bit pattern.
    pub dynamic_nj_bits: u64,
}

const STATS_FIELDS: [&str; 9] = [
    "cycles",
    "measured_refs",
    "events",
    "messages",
    "broadcasts",
    "accesses",
    "l1_hits",
    "l1_misses",
    "dynamic_nj_bits",
];

impl CellStats {
    fn of(r: &RunResult) -> Self {
        let p = &r.proto_stats;
        Self {
            cycles: r.cycles,
            measured_refs: r.measured_refs,
            events: r.host.events,
            messages: r.noc_stats.messages.get(),
            broadcasts: r.noc_stats.broadcasts.get(),
            accesses: p.accesses.get(),
            l1_hits: p.l1_hits.get(),
            l1_misses: p.l1_misses.get(),
            dynamic_nj_bits: r.total_dynamic_nj().to_bits(),
        }
    }

    fn values(&self) -> [u64; 9] {
        [
            self.cycles,
            self.measured_refs,
            self.events,
            self.messages,
            self.broadcasts,
            self.accesses,
            self.l1_hits,
            self.l1_misses,
            self.dynamic_nj_bits,
        ]
    }

    /// The statistics as a JSON object led by the cell label.
    pub fn to_json(self, label: &str) -> Value {
        let mut v = Value::object();
        v.set("cell", Value::string(label));
        for (name, x) in STATS_FIELDS.iter().zip(self.values()) {
            v.set(name, Value::uint(x));
        }
        v
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let f = |name: &str| v.field(name).and_then(Value::as_u64);
        Ok(Self {
            cycles: f("cycles")?,
            measured_refs: f("measured_refs")?,
            events: f("events")?,
            messages: f("messages")?,
            broadcasts: f("broadcasts")?,
            accesses: f("accesses")?,
            l1_hits: f("l1_hits")?,
            l1_misses: f("l1_misses")?,
            dynamic_nj_bits: f("dynamic_nj_bits")?,
        })
    }

    /// Names the fields that differ from `other`.
    pub fn diff(&self, other: &CellStats) -> String {
        STATS_FIELDS
            .iter()
            .zip(self.values().into_iter().zip(other.values()))
            .filter(|(_, (a, b))| a != b)
            .map(|(name, (a, b))| format!("{name} {a} != {b}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// One cell run, timed from outside through the simulator's public
/// entry points.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// `CmpSimulator::new`.
    pub new_ns: u64,
    /// `warm_up()`.
    pub warm_ns: u64,
    /// `resume()`.
    pub resume_ns: u64,
    /// The part of `resume()` spent collecting results after the loop
    /// (the simulator's own `finalize` host-profile span).
    pub finalize_ns: u64,
    /// Statistics, or why the run failed.
    pub outcome: Result<CellStats, String>,
}

impl CellRun {
    /// Host time of the whole cell.
    pub fn total_ns(&self) -> u64 {
        self.new_ns + self.warm_ns + self.resume_ns
    }

    /// Host time of the event loop (warm-up and measure phases).
    pub fn loop_ns(&self) -> u64 {
        self.warm_ns + self.resume_ns - self.finalize_ns
    }
}

/// Runs one cell: `new`, then `warm_up()`, then `resume()`.
pub fn run_cell(cell: Cell, cfg: &SystemConfig) -> CellRun {
    let t0 = Instant::now();
    let mut sim = CmpSimulator::new(cell.protocol, cell.benchmark, cfg);
    let t1 = Instant::now();
    let warmed = sim.warm_up();
    let t2 = Instant::now();
    let result = warmed.and_then(|_| sim.resume());
    let t3 = Instant::now();
    let expected_refs = cfg.refs_per_core * cfg.tiles() as u64;
    let finalize_ns = result.as_ref().map_or(0, |r| r.host.span_ns("finalize"));
    let outcome = match result {
        Err(e) => Err(format!("{}: {e}", e.code())),
        Ok(r) => match r.arch.map(|a| a.refs_done) {
            Some(done) if done == expected_refs => Ok(CellStats::of(&r)),
            done => Err(format!("retired {done:?} references, expected {expected_refs}")),
        },
    };
    CellRun {
        new_ns: (t1 - t0).as_nanos() as u64,
        warm_ns: (t2 - t1).as_nanos() as u64,
        resume_ns: (t3 - t2).as_nanos() as u64,
        finalize_ns,
        outcome,
    }
}

/// One repetition: every cell once, on `workers` threads pulling from a
/// shared cursor (the simulator's own sweep executor).
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall-clock time of the whole repetition, probes included.
    pub wall_ns: u64,
    /// Per-cell runs, in cell order.
    pub cells: Vec<CellRun>,
    /// Host time of the [`host::probe`] run before each cell.
    pub probe_ns: Vec<u64>,
}

impl Rep {
    /// Summed probe seconds.
    pub fn probe_s(&self) -> f64 {
        self.probe_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// How much slower than the reference the host ran this repetition.
    pub fn slowdown(&self) -> f64 {
        host::slowdown(self.probe_s() * 1e9 / self.probe_ns.len() as f64)
    }

    /// Summed per-cell host seconds.
    pub fn busy_s(&self) -> f64 {
        self.cells.iter().map(CellRun::total_ns).sum::<u64>() as f64 / 1e9
    }

    /// Summed per-cell host seconds in `new` + `warm_up()`.
    pub fn setup_s(&self) -> f64 {
        self.cells.iter().map(|c| c.new_ns + c.warm_ns).sum::<u64>() as f64 / 1e9
    }

    /// Wall-clock seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// Runs every cell once on `workers` threads, each worker probing the
/// host's speed right before each cell.
pub fn run_rep(cells: &[Cell], cfg: &SystemConfig, workers: usize) -> Rep {
    let t0 = Instant::now();
    let runs = par_map_with_threads(cells, workers, |&c| (host::probe(), run_cell(c, cfg)));
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let (probe_ns, cells) = runs.into_iter().unzip();
    Rep { wall_ns, cells, probe_ns }
}

/// The golden statistics of `workload`'s `cells` at [`DEFAULT_SEED`] and
/// [`REFS`], in cell order.
pub fn load_golden(workload: &str, cells: &[Cell]) -> Result<Vec<CellStats>, String> {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .map_err(|e| format!("cannot read {GOLDEN_PATH}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
    let entries = match doc.field("workloads").and_then(|w| w.field(workload))? {
        Value::Arr(items) => items,
        _ => return Err(format!("{GOLDEN_PATH}: workloads.{workload} is not an array")),
    };
    let labels: Vec<String> = cells.iter().map(Cell::label).collect();
    let golden: Vec<String> = entries
        .iter()
        .map(|e| e.field("cell").and_then(Value::as_str).map(str::to_string))
        .collect::<Result<_, _>>()?;
    if golden != labels {
        return Err(format!("{GOLDEN_PATH}: workloads.{workload} lists cells {golden:?}"));
    }
    entries.iter().map(CellStats::from_json).collect()
}

/// Records `stats` as the golden statistics of `workload`, keeping the
/// other workloads' entries.
pub fn write_golden(workload: &str, cells: &[Cell], stats: &[CellStats]) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(GOLDEN_PATH) {
        Ok(text) => Value::parse(&text).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?,
        Err(_) => {
            let mut d = Value::object();
            d.set("refs_per_core", Value::uint(REFS));
            d.set("seed", Value::uint(DEFAULT_SEED));
            d.set("workloads", Value::object());
            d
        }
    };
    let entries = cells.iter().zip(stats).map(|(c, s)| s.to_json(&c.label())).collect();
    let Value::Obj(fields) = &mut doc else {
        return Err(format!("{GOLDEN_PATH}: not an object"));
    };
    let Some((_, Value::Obj(workloads))) = fields.iter_mut().find(|(k, _)| k == "workloads") else {
        return Err(format!("{GOLDEN_PATH}: no workloads object"));
    };
    workloads.retain(|(k, _)| k != workload);
    workloads.push((workload.to_string(), Value::Arr(entries)));
    workloads.sort_by_key(|(k, _)| WORKLOADS.iter().position(|w| w.name == k));
    let mut out = String::new();
    doc.render_to(&mut out);
    out.push('\n');
    std::fs::write(GOLDEN_PATH, out).map_err(|e| format!("cannot write {GOLDEN_PATH}: {e}"))
}
