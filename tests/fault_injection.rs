//! Fault injection & chaos soak, end to end:
//!
//! * differential golden — every protocol x benchmark cell under a
//!   recoverable fault plan ends in the bit-identical architectural
//!   state as its fault-free twin;
//! * determinism — the same plan + seed re-runs identically;
//! * unrecoverable plans abort into a typed `SimError::Fault` whose
//!   crash dump embeds the plan and replays to the same failure;
//! * property: *arbitrary* bounded fault plans never panic and always
//!   resolve — verified recovery or a typed error;
//! * fault injection off means zero observable change (no fault
//!   metrics, no fault context).

use cmpsim::chaos::{chaos_sweep, run_differential, CellOutcome, DiffOutcome};
use cmpsim::{
    run_benchmark, Benchmark, FaultKind, FaultPlan, ProtocolKind, ReplayArtifact, RunOptions,
    SimError, SystemConfig,
};
use proptest::prelude::*;

fn counter(reg: &cmpsim::MetricsRegistry, name: &str) -> Option<u64> {
    reg.counters().find(|(n, _)| *n == name).map(|(_, v)| v)
}

/// The flagship differential check: one recoverable plan fanned across
/// the full 4-protocol x 8-benchmark matrix. Every cell must recover
/// and verify bit-identical against its fault-free golden run.
#[test]
fn all_32_cells_recover_and_match_golden() {
    let report = chaos_sweep(
        &ProtocolKind::all(),
        &Benchmark::all(),
        &[FaultPlan::recoverable(7)],
        &SystemConfig::smoke(),
        RunOptions::default(),
    );
    assert_eq!(report.cells.len(), 32);
    assert!(report.passed(), "violations: {:#?}", report.violations());
    assert_eq!(report.recovered(), 32, "not all cells recovered: {:#?}", report.violations());
    let total_fired: u64 = report
        .cells
        .iter()
        .map(|c| match c.outcome {
            CellOutcome::Recovered { faults_fired, .. } => faults_fired,
            _ => 0,
        })
        .sum();
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
/// run reports the golden cycle count via `effective_cycles`, and the
/// recovery counters surface in the metrics registry.
#[test]
fn recovery_counters_and_effective_cycles_are_exported() {
    let cfg = SystemConfig::smoke().with_fault_plan(Some(FaultPlan::recoverable(3)));
    match run_differential(ProtocolKind::DiCo, Benchmark::Apache, &cfg) {
        DiffOutcome::Verified(r) => {
            let ec = r.effective_cycles.expect("differential sets effective_cycles");
            assert!(ec <= r.cycles, "recovery cannot make the run faster");
            let reg = r.metrics();
            let fired = counter(&reg, "noc.faults_injected.total").expect("total exported");
            assert_eq!(fired, r.faults.as_ref().unwrap().fired.total());
            let by_kind: u64 = FaultKind::all()
                .iter()
                .filter_map(|k| counter(&reg, &format!("noc.faults_injected.{}", k.label())))
                .sum();
            assert_eq!(by_kind, fired, "per-kind counters must sum to the total");
            assert!(counter(&reg, "proto.retries").is_some());
            assert!(counter(&reg, "proto.timeouts").is_some());
            assert_eq!(counter(&reg, "sim.effective_cycles"), Some(ec));
        }
        other => panic!("expected verified recovery, got {other:?}"),
    }
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
    /// and never diverges silently — every run either recovers and
    /// verifies against golden, or returns a typed `SimError` within
    /// the watchdog budget.
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
        let cfg = SystemConfig::smoke().with_fault_plan(Some(plan));
        match run_differential(protocol, Benchmark::Radix, &cfg) {
            DiffOutcome::Verified(r) => prop_assert!(r.effective_cycles.is_some()),
            DiffOutcome::Faulted(e) => {
                prop_assert!(e.code().starts_with("E-"), "untyped error {e}");
                if let Some(p) = e.artifact() {
                    let _ = std::fs::remove_file(p);
                }
            }
            DiffOutcome::Diverged { detail, .. } =>
                prop_assert!(false, "silent divergence: {detail}"),
            DiffOutcome::Panicked { message } =>
                prop_assert!(false, "panic escaped the simulator: {message}"),
        }
    }
}
