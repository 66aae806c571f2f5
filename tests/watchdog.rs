//! Forward-progress watchdog and crash-dump/replay pipeline, end to end:
//! a starved run must abort into a typed `SimError::Stalled` carrying a
//! structured dump, write a replay artifact, and that artifact must
//! re-run deterministically to the identical failing cycle.

use cmpsim::{
    run_benchmark, Benchmark, CmpSimulator, ProtocolKind, ReplayArtifact, SimError, StallReason,
    SystemConfig,
};

/// A config whose event budget is far too small to finish: the watchdog
/// must trip mid-flight, while messages are still queued.
fn starved() -> SystemConfig {
    SystemConfig::small().with_event_budget(100)
}

#[test]
fn starved_run_stalls_with_structured_dump() {
    let err = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &starved())
        .expect_err("a 100-event budget cannot complete 400 refs/core");
    let SimError::Stalled(report) = &err else {
        panic!("expected SimError::Stalled, got: {err}");
    };
    assert_eq!(report.reason, StallReason::EventBudget { budget: 100 });
    assert_eq!(report.events, 101, "watchdog must trip on the first event over budget");
    assert!(!report.in_flight.is_empty(), "a chip aborted mid-flight must have queued messages");
    assert!(
        report.in_flight.windows(2).all(|w| w[0].due <= w[1].due),
        "in-flight dump must be ordered by due cycle"
    );
    assert!(
        !report.stalled_cores.is_empty(),
        "no core can have retired 400 refs within 100 events"
    );
    for c in &report.stalled_cores {
        assert!(c.refs_done < c.refs_target);
    }
    // The rendering must surface the dump, not just the reason.
    let shown = err.to_string();
    assert!(shown.contains("event budget exhausted"), "{shown}");
    assert!(shown.contains("in-flight messages"), "{shown}");
    assert!(shown.contains("stalled cores"), "{shown}");
    let _ = std::fs::remove_file(err.artifact().expect("a failing run writes an artifact"));
}

#[test]
fn stall_writes_replay_artifact_that_reproduces_the_failure() {
    let cfg = starved().with_seed(0xBADC0DE);
    let err = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Radix, &cfg)
        .expect_err("starved run must stall");
    let path = err.artifact().expect("a failing run_benchmark must write an artifact");
    assert!(path.exists(), "artifact {path:?} missing on disk");

    // Round-trip the artifact and re-run it the way `cmpsim-cli replay`
    // does: the event queue is insertion-stable, so the failure must
    // land on the identical cycle with the identical event count.
    let art = ReplayArtifact::load(path).expect("artifact parses back");
    assert_eq!(art.protocol, ProtocolKind::DiCoArin);
    assert_eq!(art.benchmark, Benchmark::Radix);
    assert_eq!(art.error_kind, err.kind_label());
    assert_eq!(art.failing_cycle, err.failing_cycle());
    assert_eq!(art.config.seed, 0xBADC0DE);
    assert_eq!(art.config.max_events, Some(100));

    let replayed = CmpSimulator::new(art.protocol, art.benchmark, &art.config)
        .run()
        .expect_err("replay must fail exactly like the original");
    assert_eq!(replayed.kind_label(), err.kind_label());
    assert_eq!(
        replayed.failing_cycle(),
        err.failing_cycle(),
        "replay diverged from the recorded failure"
    );
    assert_eq!(replayed.events(), err.events());

    let _ = std::fs::remove_file(path);
}

#[test]
fn replay_artifact_survives_an_explicit_save_load_cycle() {
    let cfg = starved();
    let err = CmpSimulator::new(ProtocolKind::Directory, Benchmark::Lu, &cfg)
        .run()
        .expect_err("starved run must stall");
    let art = ReplayArtifact::new(
        ProtocolKind::Directory,
        Benchmark::Lu,
        err.kind_label(),
        err.failing_cycle(),
        err.events(),
        &cfg,
    );
    let dir = std::env::temp_dir().join("cmpsim-watchdog-test");
    let path = art.save(&dir).expect("save");
    let loaded = ReplayArtifact::load(&path).expect("load");
    assert_eq!(loaded.failing_cycle, err.failing_cycle());
    assert_eq!(loaded.config.refs_per_core, cfg.refs_per_core);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn no_progress_watchdog_names_the_last_productive_cycle() {
    // A 1-cycle window cannot even survive the first L1 hit latency.
    let cfg = SystemConfig::smoke().with_stall_window(1);
    let err = CmpSimulator::new(ProtocolKind::DiCo, Benchmark::Radix, &cfg)
        .run()
        .expect_err("a 1-cycle stall window must trip");
    match err {
        SimError::Stalled(r) => match r.reason {
            StallReason::NoProgress { window, last_progress } => {
                assert_eq!(window, 1);
                assert!(last_progress <= r.cycle);
            }
            other => panic!("expected NoProgress, got {other:?}"),
        },
        other => panic!("expected Stalled, got {other}"),
    }
}

#[test]
fn healthy_runs_are_untouched_by_the_watchdog() {
    // Defaults: derived event budget and a one-million-cycle window.
    let cfg = SystemConfig::smoke();
    for kind in ProtocolKind::all() {
        let r =
            run_benchmark(kind, Benchmark::Radix, &cfg).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(r.measured_refs > 0);
    }
}
