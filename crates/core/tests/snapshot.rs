//! Snapshot/fork engine gates.
//!
//! The hard invariant: snapshot → restore → run must be bit-for-bit
//! identical to an uninterrupted run — same cycles, same stats, same
//! metrics rendering, same architectural digest — across the full
//! 4-protocol × 8-benchmark matrix. A forked simulator must satisfy the
//! same identity. And every malformed image must surface as a typed
//! [`SimError::Snapshot`], never a panic.

use cmpsim::snapshot::snapshot_key;
use cmpsim::{
    chaos_sweep_with_options, run_benchmark, run_benchmark_with_store, run_matrix_with_options,
    Benchmark, CmpSimulator, FaultPlan, ProtocolKind, RunResult, SimError, SnapshotStore,
    SystemConfig,
};
use proptest::prelude::*;

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
            let restored =
                CmpSimulator::restore_snapshot(kind, b, &cfg, &image).expect("restore");
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
    let cold =
        run_matrix_with_options(&protocols, &benchmarks, &cfg, None, None, None).expect("cold");
    let store = SnapshotStore::in_memory();
    // First pass populates the store (every cell is a miss), second
    // pass restores every cell from it.
    let first = run_matrix_with_options(&protocols, &benchmarks, &cfg, None, Some(2), Some(&store))
        .expect("populating pass");
    assert_eq!(store.cached(), protocols.len() * benchmarks.len());
    let second = run_matrix_with_options(&protocols, &benchmarks, &cfg, None, Some(2), Some(&store))
        .expect("forked pass");
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
fn forks_are_bit_identical_to_their_parent() {
    let cfg = SystemConfig::smoke();
    let cold = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Jbb, &cfg).expect("cold");
    let mut sim = CmpSimulator::new(ProtocolKind::DiCoArin, Benchmark::Jbb, &cfg);
    assert!(sim.warm_up().expect("warm-up"));
    let twin_a = sim.fork();
    let twin_b = sim.fork();
    let a = twin_a.resume().expect("fork a");
    let b = twin_b.resume().expect("fork b");
    let parent = sim.resume().expect("parent");
    assert_eq!(fingerprint(&cold), fingerprint(&a));
    assert_eq!(fingerprint(&cold), fingerprint(&b));
    assert_eq!(fingerprint(&cold), fingerprint(&parent));
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
    run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Lu, &base, Some(&store))
        .expect("plain populate");
    let hot = run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Lu, &sampled, Some(&store))
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
    let a = run_benchmark_with_store(ProtocolKind::DiCo, Benchmark::Radix, &cfg, Some(&store))
        .expect("attributed run");
    assert_eq!(store.cached(), 0, "ineligible runs must not populate the store");
    let b = run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &cfg).expect("plain attributed");
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn chaos_sweep_with_store_matches_plain_sweep() {
    let cfg = SystemConfig::smoke();
    let plans = vec![
        FaultPlan::parse("recoverable@7").expect("plan"),
        FaultPlan::parse("chaos@11").expect("plan"),
    ];
    let protocols = [ProtocolKind::Directory, ProtocolKind::DiCoArin];
    let benchmarks = [Benchmark::Radix, Benchmark::Apache];
    let plain =
        chaos_sweep_with_options(&protocols, &benchmarks, &plans, &cfg, None, Some(2), None);
    let store = SnapshotStore::in_memory();
    let stored = chaos_sweep_with_options(
        &protocols,
        &benchmarks,
        &plans,
        &cfg,
        None,
        Some(2),
        Some(&store),
    );
    assert!(plain.passed(), "baseline chaos sweep must pass");
    assert!(stored.passed(), "store-backed chaos sweep must pass");
    assert_eq!(plain.to_json(), stored.to_json(), "store must not change any chaos verdict");
    // Golden legs and the two per-plan legs all have distinct keys
    // (the fault plan shapes warm-up), so each populated its own image.
    assert_eq!(store.cached(), protocols.len() * benchmarks.len() * (1 + plans.len()));
}

#[test]
fn malformed_images_are_typed_errors_never_panics() {
    let cfg = SystemConfig::smoke();
    let (kind, b) = (ProtocolKind::Directory, Benchmark::Radix);
    let key = snapshot_key(kind, b, &cfg);
    let mut sim = CmpSimulator::new(kind, b, &cfg);
    assert!(sim.warm_up().expect("warm-up"));
    let image = sim.save_snapshot(key);

    let expect_snapshot_err = |bytes: &[u8], what: &str| {
        match CmpSimulator::restore_snapshot(kind, b, &cfg, bytes) {
            Err(SimError::Snapshot(e)) => {
                assert_eq!(
                    SimError::Snapshot(e.clone()).code(),
                    "E-SNAPSHOT",
                    "stable error code for {what}"
                );
            }
            Err(other) => panic!("{what}: expected SimError::Snapshot, got {other}"),
            Ok(_) => panic!("{what}: malformed image was accepted"),
        }
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

/// The warm-boundary image of each protocol's apache smoke cell is
/// pinned byte for byte: a change to how the simulator stores its state
/// (e.g. the cache arrays' host layout) must not change what it
/// serializes. A deliberate format change bumps `SNAPSHOT_VERSION` and
/// recaptures these digests.
#[test]
fn warm_snapshot_bytes_are_pinned() {
    assert_eq!(cmpsim::snapshot::SNAPSHOT_VERSION, 2);
    let cfg = SystemConfig::smoke();
    let b = Benchmark::Apache;
    let pinned = [
        (ProtocolKind::Directory, 0x86ad_b382_5847_1261u64),
        (ProtocolKind::DiCo, 0xa404_3083_87dd_76c2),
        (ProtocolKind::DiCoProviders, 0x6e84_049f_2dc4_f5b0),
        (ProtocolKind::DiCoArin, 0xe56a_920c_56ac_7825),
    ];
    for (kind, want) in pinned {
        let mut sim = CmpSimulator::new(kind, b, &cfg);
        assert!(sim.warm_up().expect("warm-up"), "{kind:?} must reach the boundary");
        let image = sim.save_snapshot(snapshot_key(kind, b, &cfg));
        let got = fnv1a64(&image);
        assert_eq!(got, want, "{kind:?}/apache warm image digest {got:#018x} (len {})", image.len());
    }
}
