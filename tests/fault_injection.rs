//! Fault injection, end to end:
//!
//! * differential golden — a `sweep` over fault plans runs every
//!   protocol x benchmark cell beside its fault-free twin, and every
//!   cell under a recoverable plan ends in the bit-identical
//!   architectural state;
//! * determinism — the same plan + seed re-runs identically;
//! * unrecoverable plans abort into a typed `SimError::Fault` whose
//!   crash dump embeds the plan and replays to the same failure;
//! * property: *arbitrary* bounded fault plans never panic and always
//!   resolve — verified recovery or a typed error with a crash dump;
//! * fault injection off means zero observable change (no fault
//!   metrics, no fault context).

use cmpsim::replay::Value;
use cmpsim::{
    run_benchmark, run_sweep, Benchmark, CellState, FaultKind, FaultPlan, ProtocolKind,
    ReplayArtifact, SimError, SweepOptions, SweepOutcome, SweepSpec, SystemConfig,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn counter(reg: &cmpsim::MetricsRegistry, name: &str) -> Option<u64> {
    reg.counters().find(|(n, _)| *n == name).map(|(_, v)| v)
}

/// Sweeps `plans` over the smoke chip into a fresh directory named by
/// `tag`.
fn sweep(
    tag: &str,
    protocols: &[ProtocolKind],
    benchmarks: &[Benchmark],
    plans: Vec<FaultPlan>,
) -> SweepOutcome {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("cmpsim-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec {
        plans: plans.into_iter().map(Some).collect(),
        ..SweepSpec::matrix(protocols, benchmarks, &SystemConfig::smoke())
    };
    let opts = SweepOptions {
        out_dir: dir.clone(),
        journal: dir.join("sweep.ndjson"),
        ..Default::default()
    };
    run_sweep(&spec, &opts).expect("sweep runs")
}

/// A counter of the metrics artifact at `path`.
fn artifact_counter(path: &Path, name: &str) -> Option<u64> {
    let doc = Value::parse(&std::fs::read_to_string(path).expect("artifact")).expect("JSON");
    doc.field("counters").ok()?.field(name).ok()?.as_u64().ok()
}

/// The flagship differential check: one recoverable plan fanned across
/// the full 4-protocol x 8-benchmark matrix. Every planned cell must
/// recover and verify bit-identical against its fault-free golden twin.
#[test]
fn all_32_cells_recover_and_match_golden() {
    let outcome =
        sweep("all32", &ProtocolKind::all(), &Benchmark::all(), vec![FaultPlan::recoverable(7)]);
    assert_eq!(outcome.cells.len(), 64, "32 golden twins + 32 planned cells");
    assert!(outcome.ok(), "violations: {:#?}", outcome.violations());
    let mut total_fired = 0;
    for (c, s) in outcome.cells.iter().zip(&outcome.states) {
        let CellState::Done { artifact, .. } = s else { panic!("{}: {s:?}", c.name()) };
        if c.plan.is_some() {
            assert!(c.golden.is_some(), "{} has no golden twin", c.name());
            assert!(artifact_counter(artifact, "sim.effective_cycles").is_some(), "{}", c.name());
            total_fired += artifact_counter(artifact, "noc.faults_injected.total").unwrap();
        }
    }
    assert!(total_fired > 0, "the plan injected nothing — the sweep proved nothing");
}

/// Same plan, same seed, same cell: the re-run is indistinguishable,
/// down to the full metrics registry.
#[test]
fn same_plan_and_seed_reruns_identically() {
    let cfg = SystemConfig::smoke().with_fault_plan(Some(FaultPlan::recoverable(42)));
    let a = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Jbb, &cfg).expect("run a");
    let b = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Jbb, &cfg).expect("run b");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.arch, b.arch);
    let (fa, fb) = (a.faults.as_ref().expect("plan active"), b.faults.as_ref().expect("plan"));
    assert_eq!(fa.fired, fb.fired);
    assert_eq!(a.metrics().dump(), b.metrics().dump());
}

/// Recovery costs cycles but never architectural state: the recovered
/// cell's artifact reports its golden twin's cycle count as
/// `sim.effective_cycles`, and the recovery counters surface in it.
#[test]
fn recovery_counters_and_effective_cycles_are_exported() {
    let plan = FaultPlan::recoverable(3);
    let outcome =
        sweep("counters", &[ProtocolKind::DiCo], &[Benchmark::Apache], vec![plan.clone()]);
    let [CellState::Done { artifact: golden, .. }, CellState::Done { artifact, .. }] =
        &outcome.states[..]
    else {
        panic!("expected a done golden and a done planned cell: {:?}", outcome.states)
    };
    let get = |name: &str| artifact_counter(artifact, name);
    let ec = get("sim.effective_cycles").expect("verified cells record effective_cycles");
    assert_eq!(Some(ec), artifact_counter(golden, "sim.cycles"), "the twin's cycles");
    let cycles = get("sim.cycles").unwrap();
    assert!(ec <= cycles, "recovery cannot make the run faster");
    assert_eq!(get("sim.fault_overhead_cycles"), Some(cycles - ec));
    let fired = get("noc.faults_injected.total").expect("total exported");
    let cfg = SystemConfig::smoke().with_fault_plan(Some(plan));
    let direct = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("direct run");
    assert_eq!(fired, direct.faults.as_ref().unwrap().fired.total());
    let by_kind: u64 = FaultKind::all()
        .iter()
        .filter_map(|k| get(&format!("noc.faults_injected.{}", k.label())))
        .sum();
    assert_eq!(by_kind, fired, "per-kind counters must sum to the total");
    assert!(get("proto.retries").is_some());
    assert!(get("proto.timeouts").is_some());
}

/// With no fault plan there is no trace of the machinery at all: no
/// fault context, no fault metrics keys, and (per the perf-golden
/// pins, tested elsewhere) bit-identical behavior to the seed.
#[test]
fn faults_off_leaves_no_trace() {
    let r = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Volrend, &SystemConfig::smoke())
        .expect("clean run");
    assert!(r.faults.is_none());
    assert!(r.effective_cycles.is_none());
    let reg = r.metrics();
    assert_eq!(counter(&reg, "noc.faults_injected.total"), None);
    assert_eq!(counter(&reg, "sim.effective_cycles"), None);
}

/// A plan aggressive enough to destroy a data response is
/// unrecoverable by design: the run must abort into a typed
/// `SimError::Fault` (stable code `E-FAULT`) whose crash dump embeds
/// the plan, and replaying that dump must reproduce the same failure
/// at the same cycle.
#[test]
fn unrecoverable_plan_aborts_typed_and_replays_exactly() {
    let mut plan = FaultPlan::chaos(2);
    plan.drop_rate = 0.05;
    plan.max_drops = 200;
    let cfg = SystemConfig::smoke().with_fault_plan(Some(plan.clone()));
    let err = run_benchmark(ProtocolKind::Directory, Benchmark::Radix, &cfg)
        .expect_err("destroying data responses must wedge some request past its retry cap");
    assert_eq!(err.code(), "E-FAULT");
    assert_eq!(err.kind_label(), "fault-unrecoverable");
    let ctx = err.fault_context().expect("fault errors carry the active plan");
    assert_eq!(ctx.plan, plan);
    assert!(ctx.fired.drops > 0, "the abort should follow actual drops");

    let path = err.artifact().expect("a replay artifact must be written");
    let art = ReplayArtifact::load(path).expect("artifact loads");
    assert_eq!(art.config.fault_plan.as_ref(), Some(&plan), "dump embeds the plan");
    let replayed = run_benchmark(art.protocol, art.benchmark, &art.config)
        .expect_err("replay must fail again");
    assert_eq!(replayed.kind_label(), art.error_kind);
    assert_eq!(replayed.failing_cycle(), art.failing_cycle);
    let _ = std::fs::remove_file(path);
    if let Some(p) = replayed.artifact() {
        let _ = std::fs::remove_file(p);
    }
}

/// Error codes are stable API: anything the watchdog or the fault
/// layer returns maps to a non-empty `E-*` code even as `SimError`
/// grows (`#[non_exhaustive]`).
#[test]
fn sim_error_codes_are_stable() {
    let err = run_benchmark(
        ProtocolKind::DiCo,
        Benchmark::Radix,
        &SystemConfig::smoke().with_stall_window(1),
    )
    .expect_err("1-cycle stall window always trips");
    match &err {
        SimError::Stalled(_) => assert_eq!(err.code(), "E-STALL"),
        other => panic!("expected a stall, got {other}"),
    }
    assert!(err.code().starts_with("E-"));
    if let Some(p) = err.artifact() {
        let _ = std::fs::remove_file(p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Chaos property: an arbitrary bounded fault plan never panics
    /// and never diverges silently — every planned cell either recovers
    /// and verifies against its golden twin, or ends in a typed
    /// `SimError` with a crash dump within the watchdog budget.
    #[test]
    fn arbitrary_plans_resolve_typed(
        (seed, chaos, delay_mill, drop_mill) in
            (0u64..1_000_000, prop::bool::ANY, 0u64..30, 0u64..8),
        (timeout, retry_cap, outages, pidx) in
            (500u64..6_000, 1u64..8, 0u64..4, 0usize..4),
    ) {
        let mut plan =
            if chaos { FaultPlan::chaos(seed) } else { FaultPlan::recoverable(seed) };
        plan.delay_rate = delay_mill as f64 / 1000.0;
        plan.drop_rate = drop_mill as f64 / 1000.0;
        plan.timeout = timeout;
        plan.retry_cap = retry_cap as u32;
        plan.outages = outages as u32;
        let protocol = ProtocolKind::all()[pidx];
        let outcome = sweep("arbitrary", &[protocol], &[Benchmark::Radix], vec![plan]);
        prop_assert!(matches!(outcome.states[0], CellState::Done { .. }), "golden failed");
        match &outcome.states[1] {
            CellState::Done { artifact, .. } =>
                prop_assert!(artifact_counter(artifact, "sim.effective_cycles").is_some()),
            CellState::Faulted { error, .. } => {
                prop_assert!(error.code.starts_with("E-"), "untyped error {}", error.message);
                let _ = std::fs::remove_file(error.artifact.as_ref().unwrap());
            }
            other => prop_assert!(false, "silent divergence or lost cell: {other:?}"),
        }
    }
}
