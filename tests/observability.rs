//! Integration tests for the observability stack: the unified metrics
//! registry, the coherence-transaction tracer and the interval
//! time-series — including the hop-reconciliation and golden
//! byte-identity guarantees the exports rely on.

use cmpsim::replay::Value;
use cmpsim::{run_benchmark, run_matrix, Benchmark, ProtocolKind, RunOptions, SystemConfig};

fn obs_config() -> SystemConfig {
    SystemConfig::small().with_tracing().with_interval(1_000)
}

type Observe = fn(SystemConfig) -> SystemConfig;

/// Runs the protocol × {apache, radix} matrix on `small` plainly and
/// under each named observer configuration, and asserts that each
/// observer is observation-only — the simulated outcome is
/// bit-identical to the plain run's — and that each observer's payload
/// is present exactly when it is on. Each configuration runs as one
/// matrix, so its cells use every host core.
fn assert_observation_only(observers: &[(&str, Observe)]) {
    let base = SystemConfig::small();
    let benchmarks = [Benchmark::Apache, Benchmark::Radix];
    let matrix = |cfg: &SystemConfig| {
        run_matrix(&ProtocolKind::all(), &benchmarks, cfg, RunOptions::default()).expect("run")
    };
    let plain = matrix(&base);
    assert!(plain.iter().all(|p| p.trace.is_none() && p.breakdown.is_none()));
    assert!(plain.iter().all(|p| p.timeseries.is_none()));
    for &(name, on) in observers {
        let cfg = on(base.clone());
        for (p, seen) in plain.iter().zip(matrix(&cfg)) {
            let what = format!("{:?}/{:?} with {name}", p.protocol, p.benchmark);
            assert_eq!(p.cycles, seen.cycles, "{what}");
            assert_eq!(p.measured_refs, seen.measured_refs, "{what}");
            assert_eq!(p.noc_stats.messages.get(), seen.noc_stats.messages.get(), "{what}");
            assert_eq!(
                p.noc_stats.routing_events.get(),
                seen.noc_stats.routing_events.get(),
                "{what}"
            );
            assert_eq!(p.arch, seen.arch, "{what}");
            assert_eq!(seen.trace.is_some(), cfg.tracing, "{what}");
            assert_eq!(seen.breakdown.is_some(), cfg.attribution, "{what}");
            assert_eq!(seen.timeseries.is_some(), cfg.sample_interval.is_some(), "{what}");
        }
    }
}

/// Tracing, interval sampling and invariant checking are
/// observation-only, alone and together with attribution, on every
/// protocol.
#[test]
fn observability_does_not_change_timing() {
    assert_observation_only(&[
        ("tracing", SystemConfig::with_tracing),
        ("interval", |c| c.with_interval(1_000)),
        ("checker", SystemConfig::with_invariant_checks),
        ("all", |c| {
            c.with_tracing().with_attribution().with_interval(1_000).with_invariant_checks()
        }),
    ]);
}

/// Attribution alone is observation-only on every protocol.
#[test]
fn attribution_does_not_change_timing_on_any_protocol() {
    assert_observation_only(&[("attribution", SystemConfig::with_attribution)]);
}

/// Every post-warm-up link traversal the NoC charges is seen by the
/// tracer, so the per-transaction hop attribution reconciles exactly
/// with the end-of-run `routing_events` counter.
#[test]
fn trace_hops_reconcile_with_noc_counters() {
    for kind in ProtocolKind::all() {
        let r = run_benchmark(kind, Benchmark::Apache, &obs_config()).expect("run");
        let t = r.trace.as_ref().expect("tracing enabled");
        assert_eq!(
            t.total_hops(),
            r.noc_stats.routing_events.get(),
            "{kind:?}: tx {} + untracked {} != routing_events",
            t.tx_hops,
            t.untracked_hops
        );
        assert!(t.completed_txs > 0, "{kind:?} traced no transactions");
        assert_eq!(t.open_txs, 0, "{kind:?} left transactions open after a clean drain");
    }
}

/// The per-event `links` arguments also sum to the attributed totals
/// (no event recorded outside the accounting), as long as the ring
/// never overflowed.
#[test]
fn trace_event_links_sum_to_hops() {
    let cfg = SystemConfig::smoke().with_tracing().with_interval(500);
    let r = run_benchmark(ProtocolKind::Directory, Benchmark::Radix, &cfg).expect("run");
    let t = r.trace.as_ref().expect("tracing enabled");
    assert_eq!(t.ring.dropped(), 0, "capacity too small for this budget");
    let links_sum: u64 = t
        .ring
        .iter()
        .filter(|e| e.cat != "tx")
        .map(|e| e.args.iter().find(|(k, _)| *k == "links").map_or(0, |&(_, v)| v))
        .sum();
    assert_eq!(links_sum, t.total_hops());
    // Per-transaction hop counts from the lifecycle spans reconcile too.
    let tx_hops: u64 = t
        .ring
        .iter()
        .filter(|e| e.cat == "tx")
        .map(|e| e.args.iter().find(|(k, _)| *k == "hops").map_or(0, |&(_, v)| v))
        .sum();
    assert_eq!(tx_hops, t.tx_hops);
}

/// Two identical seeded runs export byte-identical metrics JSON, trace
/// JSON and time-series CSV (the golden-file property downstream
/// tooling and CI diffs rely on).
#[test]
fn exports_are_byte_identical_across_runs() {
    let cfg = obs_config();
    let a = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
    let b = run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run");
    assert_eq!(a.metrics_json(), b.metrics_json());
    assert_eq!(a.trace_json().unwrap(), b.trace_json().unwrap());
    let (sa, sb) = (a.timeseries.as_ref().unwrap(), b.timeseries.as_ref().unwrap());
    assert_eq!(sa.to_csv(), sb.to_csv());
    assert_eq!(a.series_json().unwrap(), b.series_json().unwrap());
}

/// The trace export is well-formed Chrome trace-event JSON our own
/// strict parser accepts, with the expected envelope.
#[test]
fn chrome_trace_parses() {
    let r = run_benchmark(ProtocolKind::DiCoArin, Benchmark::Radix, &obs_config()).expect("run");
    let v = Value::parse(&r.trace_json().unwrap()).expect("valid JSON");
    let events = match v.field("traceEvents").expect("traceEvents") {
        Value::Arr(items) => items,
        other => panic!("traceEvents not an array: {other:?}"),
    };
    // Metadata record plus at least one span.
    assert!(events.len() > 1);
    assert_eq!(events[0].field("ph").unwrap().as_str().unwrap(), "M");
    for ev in &events[1..] {
        assert_eq!(ev.field("ph").unwrap().as_str().unwrap(), "X");
        ev.field("ts").unwrap().as_u64().expect("numeric ts");
        ev.field("dur").unwrap().as_u64().expect("numeric dur");
    }
    v.field("otherData").unwrap().field("droppedEvents").unwrap().as_u64().unwrap();
}

/// The interval series tiles the measured window exactly: samples are
/// contiguous, interval-sized except the final partial one, and sum to
/// the end-of-run totals.
#[test]
fn interval_series_tiles_the_measured_window() {
    let r = run_benchmark(ProtocolKind::Directory, Benchmark::Apache, &obs_config()).expect("run");
    let ts = r.timeseries.as_ref().expect("sampling enabled");
    assert!(!ts.samples.is_empty());
    for w in ts.samples.windows(2) {
        assert_eq!(w[0].end, w[1].start, "gap in the series");
    }
    for s in &ts.samples[..ts.samples.len() - 1] {
        assert_eq!(s.cycles(), ts.interval, "non-final sample must be interval-sized");
    }
    let last = ts.samples.last().unwrap();
    assert!(last.cycles() <= ts.interval, "final sample may be partial, not longer");
    // Delta sums reconcile with the cumulative end-of-run counters.
    let hops: u64 = ts.samples.iter().map(|s| s.hops).sum();
    assert_eq!(hops, r.noc_stats.routing_events.get());
    let msgs: u64 = ts.samples.iter().map(|s| s.messages).sum();
    assert_eq!(msgs, r.noc_stats.messages.get());
    let refs: u64 = ts.samples.iter().map(|s| s.refs).sum();
    assert_eq!(refs, r.measured_refs);
    let dyn_nj: f64 = ts.samples.iter().map(|s| s.cache_nj + s.net_nj).sum();
    assert!(
        (dyn_nj - r.total_dynamic_nj()).abs() < 1e-6 * r.total_dynamic_nj().max(1.0),
        "dynamic energy drifted: {} vs {}",
        dyn_nj,
        r.total_dynamic_nj()
    );
    // Occupancies and utilizations are sane fractions.
    for s in &ts.samples {
        assert!((0.0..=1.0).contains(&s.l1_occ));
        assert!((0.0..=1.0).contains(&s.l2_occ));
        assert!(s.link_util_mean >= 0.0 && s.link_util_max >= s.link_util_mean);
    }
}

/// The registry export is valid JSON with the three top-level sections
/// and covers the headline counters.
#[test]
fn metrics_json_shape() {
    let r = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Jbb, &obs_config()).expect("run");
    let v = Value::parse(&r.metrics_json()).expect("valid JSON");
    let counters = v.field("counters").expect("counters section");
    assert_eq!(
        counters.field("sim.cycles").unwrap().as_u64().unwrap(),
        r.cycles,
        "registry disagrees with the result struct"
    );
    assert_eq!(
        counters.field("noc.messages").unwrap().as_u64().unwrap(),
        r.noc_stats.messages.get()
    );
    assert_eq!(
        counters.field("trace.completed_txs").unwrap().as_u64().unwrap(),
        r.trace.as_ref().unwrap().completed_txs
    );
    v.field("gauges").expect("gauges section");
    let hists = v.field("histograms").expect("histograms section");
    let lat = hists.field("proto.miss_latency").expect("latency histogram");
    assert!(lat.field("count").unwrap().as_u64().unwrap() > 0);
}

/// Two identical seeded runs export byte-identical breakdown JSON and
/// CSV — the golden-file property the `--out-dir` artifacts and CI's
/// double-run `cmp` check rely on.
#[test]
fn breakdown_exports_are_byte_identical_across_runs() {
    use cmpsim::report::{breakdown_csv, breakdown_json};
    let cfg = SystemConfig::small().with_attribution();
    let a = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Apache, &cfg).expect("run");
    let b = run_benchmark(ProtocolKind::DiCoProviders, Benchmark::Apache, &cfg).expect("run");
    let (ra, rb) = (std::slice::from_ref(&a), std::slice::from_ref(&b));
    assert_eq!(breakdown_json(ra), breakdown_json(rb));
    assert_eq!(breakdown_csv(ra), breakdown_csv(rb));
    // The export is well-formed JSON with the versioned envelope.
    let v = Value::parse(&breakdown_json(ra)).expect("valid JSON");
    assert_eq!(v.field("schema").unwrap().as_str().unwrap(), "cmpsim-breakdown-v1");
}

/// Without the opt-ins, runs carry no observability payloads.
#[test]
fn disabled_by_default() {
    let r =
        run_benchmark(ProtocolKind::DiCo, Benchmark::Radix, &SystemConfig::smoke()).expect("run");
    assert!(r.trace.is_none());
    assert!(r.timeseries.is_none());
    // The registry still works — it publishes from the result itself.
    assert!(!r.metrics().is_empty());
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Every observer artifact of an `-alt` apache cell on each protocol,
/// with tracing, attribution and interval sampling all on, is pinned
/// byte for byte: a change to how the observer bus finds a message's
/// transaction, pools its spans or records trace events must not change
/// what any export says. A deliberate change to an export's content
/// recaptures these digests.
#[test]
fn observer_artifacts_are_pinned() {
    use cmpsim::report::{breakdown_csv, breakdown_json};
    use cmpsim::{vmstat_tables, Placement};
    let cfg = SystemConfig::small()
        .with_placement(Placement::Alternative)
        .with_tracing()
        .with_attribution()
        .with_interval(1_000);
    let rs = run_matrix(&ProtocolKind::all(), &[Benchmark::Apache], &cfg, RunOptions::default())
        .expect("run");
    let per_cell = |f: &dyn Fn(&cmpsim::RunResult) -> String| -> String {
        rs.iter().map(|r| format!("== {:?}\n{}", r.protocol, f(r))).collect()
    };
    let got = [
        ("breakdown JSON", breakdown_json(&rs)),
        ("breakdown CSV", breakdown_csv(&rs)),
        ("vmstat text", vmstat_tables(&rs)),
        ("interval CSV", per_cell(&|r| r.timeseries.as_ref().expect("sampling").to_csv())),
        ("Chrome trace", per_cell(&|r| r.trace_json().expect("tracing"))),
        ("metrics JSON", per_cell(&|r| r.metrics_json())),
        ("series JSON", per_cell(&|r| r.series_json().expect("sampling"))),
    ]
    .map(|(name, text)| (name, fnv1a64(text.as_bytes())));
    let pinned = [
        ("breakdown JSON", 0x872d_eaba_3aee_e088u64),
        ("breakdown CSV", 0x72af_9ec5_c50b_a983),
        ("vmstat text", 0xdb30_d7c1_865c_4a7c),
        ("interval CSV", 0xfda2_6ad9_320d_4210),
        ("Chrome trace", 0xf8b4_f23f_fe29_1161),
        ("metrics JSON", 0x1bf5_96af_f80c_00d4),
        ("series JSON", 0xf916_5b40_789c_0926),
    ];
    assert_eq!(got, pinned, "observer artifact digests (name, FNV-1a) changed");
}
