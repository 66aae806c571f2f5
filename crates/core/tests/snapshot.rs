//! Snapshot/fork engine gates.
//!
//! The hard invariant: snapshot → restore → run must be bit-for-bit
//! identical to an uninterrupted run — same cycles, same stats, same
//! metrics rendering, same architectural digest — across the full
//! 4-protocol × 8-benchmark matrix. And every malformed image must
//! surface as a typed [`SimError::Snapshot`], never a panic.

use cmpsim::snapshot::snapshot_key;
use cmpsim::{
    run_benchmark, run_benchmark_with_store, run_matrix, run_sweep, Benchmark, CmpSimulator,
    FaultPlan, ProtocolKind, RunOptions, RunResult, SimError, SnapshotStore, SweepOptions,
    SweepSpec, SystemConfig,
};
use proptest::prelude::*;
use std::path::Path;

/// Everything deterministic a run produces, rendered for comparison.
/// Host-profile timings are the one legitimately nondeterministic part
/// of a result and are excluded by construction (`metrics_json` does
/// not include them).
fn fingerprint(r: &RunResult) -> String {
    format!(
        "{}\narch={:?}\nmanifest={:?}\ncycles={} refs={} effective={:?}",
        r.metrics_json(),
        r.arch,
        r.manifest.as_ref().map(|m| (&m.run_id, &m.config_digest)),
        r.cycles,
        r.measured_refs,
        r.effective_cycles,
    )
}

#[test]
fn full_matrix_restore_is_bit_identical_to_cold_runs() {
    let cfg = SystemConfig::smoke();
    for kind in ProtocolKind::all() {
        for b in Benchmark::all() {
            let cold = run_benchmark(kind, b, &cfg).expect("cold run");

            // Manual path: warm, capture, restore, resume.
            let key = snapshot_key(kind, b, &cfg);
            let mut sim = CmpSimulator::new(kind, b, &cfg);
            assert!(sim.warm_up().expect("warm-up"), "{kind:?}/{b:?} must reach the boundary");
            let image = sim.save_snapshot(key);
            let restored = CmpSimulator::restore_snapshot(kind, b, &cfg, &image).expect("restore");
            let resumed = restored.resume().expect("resumed run");
            assert_eq!(
                fingerprint(&cold),
                fingerprint(&resumed),
                "{kind:?}/{b:?}: snapshot->restore->run differs from the uninterrupted run"
            );

            // The producer leg (capture, then continue in place) must
            // be identical too.
            let continued = sim.resume().expect("continued run");
            assert_eq!(fingerprint(&cold), fingerprint(&continued), "{kind:?}/{b:?} producer leg");
        }
    }
}

#[test]
fn store_driven_matrix_matches_cold_matrix() {
    let cfg = SystemConfig::smoke();
    let protocols = ProtocolKind::all();
    let benchmarks = Benchmark::all();
    let cold = run_matrix(&protocols, &benchmarks, &cfg, RunOptions::default()).expect("cold");
    let store = SnapshotStore::in_memory();
    let opts = RunOptions { threads: Some(2), store: Some(&store), ..RunOptions::default() };
    // First pass populates the store (every cell is a miss), second
    // pass restores every cell from it.
    let first = run_matrix(&protocols, &benchmarks, &cfg, opts).expect("populating pass");
    assert_eq!(store.cached(), protocols.len() * benchmarks.len());
    let second = run_matrix(&protocols, &benchmarks, &cfg, opts).expect("forked pass");
    for ((c, f), s) in cold.iter().zip(&first).zip(&second) {
        assert_eq!(fingerprint(c), fingerprint(f), "populating pass differs from cold");
        assert_eq!(fingerprint(c), fingerprint(s), "restored pass differs from cold");
    }
    // Forked runs report the snapshot span family in the host profile.
    assert!(
        second.iter().all(|r| r.host.spans.iter().any(|(name, _)| *name == "snapshot.restore")),
        "restored cells must carry a snapshot.restore span"
    );
    assert!(
        first.iter().all(|r| r.host.spans.iter().any(|(name, _)| *name == "snapshot.save")),
        "populating cells must carry a snapshot.save span"
    );
}

#[test]
fn sampling_runs_can_share_snapshots_with_plain_runs() {
    // The interval sampler is created at the warm boundary, so a
    // sampled run forked from a plain run's snapshot must produce the
    // identical time-series a cold sampled run does.
    let base = SystemConfig::smoke();
    let sampled = base.clone().with_interval(64);
    assert_eq!(
        snapshot_key(ProtocolKind::DiCo, Benchmark::Lu, &base),
        snapshot_key(ProtocolKind::DiCo, Benchmark::Lu, &sampled),
        "sampling is observability-only and must not split the key"
    );
    let cold = run_benchmark(ProtocolKind::DiCo, Benchmark::Lu, &sampled).expect("cold sampled");
    let store = SnapshotStore::in_memory();
    // Populate with the plain config, then run the sampled config hot.
    run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Lu, &base, Some(&store), None)
        .expect("plain populate");
    let hot =
        run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Lu, &sampled, Some(&store), None)
            .expect("sampled restore");
    assert_eq!(fingerprint(&cold), fingerprint(&hot));
    let (c, h) = (cold.timeseries.expect("cold series"), hot.timeseries.expect("hot series"));
    assert_eq!(c.to_csv(), h.to_csv(), "restored run's time-series must match the cold run's");
}

#[test]
fn observer_runs_stay_cold_and_identical() {
    // Tracing / checking / attribution runs are ineligible: the store
    // must be bypassed (not populated, not consulted) and results stay
    // identical to plain cold runs.
    let cfg = SystemConfig::smoke().with_attribution();
    let store = SnapshotStore::in_memory();
    let a =
        run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Radix, &cfg, Some(&store), None)
            .expect("attributed run");
    assert_eq!(store.cached(), 0, "ineligible runs must not populate the store");
    let b = run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &cfg).expect("plain attributed");
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn observer_configs_refuse_plain_images() {
    // The snapshot key leaves observer flags out, so a plain image
    // matches an observer config's key. Resuming it would report
    // observers that missed the warm-up (a wrong breakdown, a truncated
    // trace): restore must fail closed instead.
    let cfg = SystemConfig::smoke();
    let (kind, b) = (ProtocolKind::DiCo, Benchmark::Apache);
    let mut sim = CmpSimulator::new(kind, b, &cfg);
    assert!(sim.warm_up().expect("warm-up"));
    let image = sim.save_snapshot(snapshot_key(kind, b, &cfg));
    for (what, observed) in [
        ("tracing", cfg.clone().with_tracing()),
        ("attribution", cfg.clone().with_attribution()),
        ("invariant checking", cfg.clone().with_invariant_checks()),
    ] {
        match CmpSimulator::restore_snapshot(kind, b, &observed, &image) {
            Err(e @ SimError::Snapshot(_)) => assert_eq!(e.code(), "E-SNAPSHOT", "{what}"),
            Err(other) => panic!("{what}: expected E-SNAPSHOT, got {other}"),
            Ok(_) => panic!("{what}: a plain image resumed an observer run"),
        }
    }
    CmpSimulator::restore_snapshot(kind, b, &cfg.with_interval(64), &image)
        .expect("sampling runs share plain images");
}

/// A planned sweep's report and artifacts are the same without a
/// snapshot directory, while populating one, and when forking from it.
#[test]
fn sweep_with_store_matches_plain_sweep() {
    let root = std::env::temp_dir().join(format!("cmpsim-snap-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spec = SweepSpec {
        plans: vec![
            Some(FaultPlan::parse("recoverable@7").expect("plan")),
            Some(FaultPlan::parse("chaos@11").expect("plan")),
        ],
        ..SweepSpec::matrix(
            &[ProtocolKind::Directory, ProtocolKind::DiCoArin],
            &[Benchmark::Radix, Benchmark::Apache],
            &SystemConfig::smoke(),
        )
    };
    let images = root.join("snapshots");
    let run = |tag: &str, snapshot_dir: Option<&Path>| {
        let out_dir = root.join(tag);
        let opts = SweepOptions {
            threads: Some(2),
            out_dir: out_dir.clone(),
            snapshot_dir: snapshot_dir.map(Path::to_path_buf),
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&spec, &opts).expect("sweep runs");
        assert!(outcome.ok(), "{tag}: {:#?}", outcome.violations());
        let mut artifacts: Vec<_> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with(".metrics.json"))
            .map(|p| (p.file_name().unwrap().to_owned(), std::fs::read(&p).unwrap()))
            .collect();
        artifacts.sort();
        (outcome.report_markdown(), artifacts)
    };
    let plain = run("plain", None);
    let populated = run("populate", Some(&images));
    // Golden cells and the two per-plan cells all have distinct keys
    // (the fault plan shapes warm-up), so each populated its own image.
    assert_eq!(std::fs::read_dir(&images).unwrap().count(), 2 * 2 * 3);
    let forked = run("fork", Some(&images));
    assert!(!plain.1.is_empty());
    assert_eq!(plain, populated, "populating a store must not change a byte");
    assert_eq!(plain, forked, "forking from a store must not change a byte");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_images_are_typed_errors_never_panics() {
    let cfg = SystemConfig::smoke();
    let (kind, b) = (ProtocolKind::Directory, Benchmark::Radix);
    let key = snapshot_key(kind, b, &cfg);
    let mut sim = CmpSimulator::new(kind, b, &cfg);
    assert!(sim.warm_up().expect("warm-up"));
    let image = sim.save_snapshot(key);

    let expect_snapshot_err =
        |bytes: &[u8], what: &str| match CmpSimulator::restore_snapshot(kind, b, &cfg, bytes) {
            Err(SimError::Snapshot(e)) => {
                assert_eq!(
                    SimError::Snapshot(e.clone()).code(),
                    "E-SNAPSHOT",
                    "stable error code for {what}"
                );
            }
            Err(other) => panic!("{what}: expected SimError::Snapshot, got {other}"),
            Ok(_) => panic!("{what}: malformed image was accepted"),
        };

    // Truncations at every interesting boundary.
    expect_snapshot_err(&[], "empty image");
    expect_snapshot_err(&image[..4], "truncated magic");
    expect_snapshot_err(&image[..10], "truncated version");
    expect_snapshot_err(&image[..image.len() / 2], "truncated payload");
    expect_snapshot_err(&image[..image.len() - 1], "truncated digest");

    // Bad magic.
    let mut bad = image.clone();
    bad[0] ^= 0xff;
    expect_snapshot_err(&bad, "bad magic");

    // Foreign (newer) version.
    let mut newer = image.clone();
    newer[8] = newer[8].wrapping_add(1);
    expect_snapshot_err(&newer, "version bump");

    // Stale (older) version: images from before a layout change.
    let mut older = image.clone();
    older[8] = older[8].wrapping_sub(1);
    expect_snapshot_err(&older, "older version");

    // Key mismatch: an image captured under a different seed.
    let other_cfg = cfg.clone().with_seed(12345);
    let mut other = CmpSimulator::new(kind, b, &other_cfg);
    assert!(other.warm_up().expect("warm-up"));
    let foreign = other.save_snapshot(snapshot_key(kind, b, &other_cfg));
    expect_snapshot_err(&foreign, "key mismatch");

    // Same image decoded under the wrong protocol (different key).
    match CmpSimulator::restore_snapshot(ProtocolKind::DiCo, b, &cfg, &image) {
        Err(SimError::Snapshot(_)) => {}
        Err(other) => panic!("wrong-protocol restore must fail typed, got {other}"),
        Ok(_) => panic!("wrong-protocol restore must fail typed, got a simulator"),
    }

    // Payload corruption: flip one byte in the middle; the trailing
    // digest catches it before decoding.
    let mut corrupt = image.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x55;
    expect_snapshot_err(&corrupt, "payload bit-flip");

    // Trailing garbage.
    let mut padded = image.clone();
    padded.extend_from_slice(b"extra");
    expect_snapshot_err(&padded, "trailing bytes");

    // The pristine image still restores (the mutations above cloned).
    CmpSimulator::restore_snapshot(kind, b, &cfg, &image).expect("pristine image restores");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Serialize → restore → serialize is a fixed point: the restored
    /// simulator re-encodes to the exact bytes of the original image,
    /// for any (protocol, benchmark, seed).
    #[test]
    fn snapshot_reencode_round_trip(proto_i in 0usize..4, bench_i in 0usize..8, seed in 0u64..1000) {
        let kind = ProtocolKind::all()[proto_i];
        let b = Benchmark::all()[bench_i];
        let cfg = SystemConfig::smoke().with_seed(seed);
        let key = snapshot_key(kind, b, &cfg);
        let mut sim = CmpSimulator::new(kind, b, &cfg);
        prop_assert!(sim.warm_up().expect("warm-up"));
        let image = sim.save_snapshot(key);
        let restored = CmpSimulator::restore_snapshot(kind, b, &cfg, &image).expect("restore");
        let reencoded = restored.save_snapshot(key);
        prop_assert_eq!(image, reencoded, "restore must reproduce the exact serialized state");
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Digests of each protocol's warm-boundary image of the apache smoke
/// cell, as every build since `SNAPSHOT_VERSION` 2 has written them.
const PINNED_APACHE_IMAGES: [(ProtocolKind, u64); 4] = [
    (ProtocolKind::Directory, 0x86ad_b382_5847_1261),
    (ProtocolKind::DiCo, 0xa404_3083_87dd_76c2),
    (ProtocolKind::DiCoProviders, 0x6e84_049f_2dc4_f5b0),
    (ProtocolKind::DiCoArin, 0xe56a_920c_56ac_7825),
];

/// The warm-boundary image of `kind`'s apache smoke cell.
fn warm_apache_image(kind: ProtocolKind) -> Vec<u8> {
    let cfg = SystemConfig::smoke();
    let mut sim = CmpSimulator::new(kind, Benchmark::Apache, &cfg);
    assert!(sim.warm_up().expect("warm-up"), "{kind:?} must reach the boundary");
    sim.save_snapshot(snapshot_key(kind, Benchmark::Apache, &cfg))
}

/// The warm-boundary image of each protocol's apache smoke cell is
/// pinned byte for byte: a change to how the simulator stores its state
/// (e.g. the cache arrays' host layout) must not change what it
/// serializes. A deliberate format change bumps `SNAPSHOT_VERSION` and
/// recaptures these digests.
#[test]
fn warm_snapshot_bytes_are_pinned() {
    assert_eq!(cmpsim::snapshot::SNAPSHOT_VERSION, 2);
    for (kind, want) in PINNED_APACHE_IMAGES {
        let image = warm_apache_image(kind);
        let got = fnv1a64(&image);
        assert_eq!(
            got,
            want,
            "{kind:?}/apache warm image digest {got:#018x} (len {})",
            image.len()
        );
    }
}

/// An image with the pinned bytes, i.e. one an earlier build wrote,
/// restores into the narrower host records (one-byte tile ids, `u32`
/// page tables and version maps) and saves back byte for byte.
#[test]
fn pinned_images_restore_and_save_back_identically() {
    let cfg = SystemConfig::smoke();
    let b = Benchmark::Apache;
    for (kind, want) in PINNED_APACHE_IMAGES {
        let image = warm_apache_image(kind);
        assert_eq!(fnv1a64(&image), want, "{kind:?}: not the pinned image");
        let restored = CmpSimulator::restore_snapshot(kind, b, &cfg, &image).expect("restore");
        assert!(restored.save_snapshot(snapshot_key(kind, b, &cfg)) == image, "{kind:?}");
    }
}
