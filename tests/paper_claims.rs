//! End-to-end checks of the paper's quantitative claims: the analytic
//! ones exactly, the simulation-based ones as shapes (who wins, which
//! direction) on a reduced-budget paper-configuration run.

use cmpsim::{run_matrix, Benchmark, ProtocolKind, RunOptions, SystemConfig};
use cmpsim_power::{leakage_per_tile, overhead_percent};

/// Abstract: "our protocols achieve a 59–64% reduction in directory
/// information in cache for a 64-tile CMP with just 4 VMs".
#[test]
fn claim_directory_information_reduction() {
    let dir = overhead_percent(ProtocolKind::Directory, 64, 4);
    let prov = overhead_percent(ProtocolKind::DiCoProviders, 64, 4);
    let arin = overhead_percent(ProtocolKind::DiCoArin, 64, 4);
    let red_prov = 100.0 * (1.0 - prov / dir);
    let red_arin = 100.0 * (1.0 - arin / dir);
    assert!((58.0..61.0).contains(&red_prov), "providers reduction {red_prov:.1}%");
    assert!((63.0..66.0).contains(&red_arin), "arin reduction {red_arin:.1}%");
}

/// Abstract: "this reduces static power consumption by 45–54%" (tags).
#[test]
fn claim_static_power_reduction() {
    let dir = leakage_per_tile(ProtocolKind::Directory, 64, 4);
    let prov = leakage_per_tile(ProtocolKind::DiCoProviders, 64, 4);
    let arin = leakage_per_tile(ProtocolKind::DiCoArin, 64, 4);
    let red_prov = 100.0 * (1.0 - prov.tag_mw / dir.tag_mw);
    let red_arin = 100.0 * (1.0 - arin.tag_mw / dir.tag_mw);
    assert!((42.0..52.0).contains(&red_prov), "providers tag reduction {red_prov:.1}%");
    assert!((48.0..58.0).contains(&red_arin), "arin tag reduction {red_arin:.1}%");
}

/// §V-C shape on a reduced paper-configuration apache run: every DiCo
/// derivative consumes less total dynamic energy than the directory, and
/// the area-based protocols consume less cache energy than DiCo.
#[test]
fn claim_dynamic_power_shape_apache() {
    let cfg = SystemConfig::paper().with_refs(6_000);
    let r = run_matrix(&ProtocolKind::all(), &[Benchmark::Apache], &cfg, RunOptions::default())
        .expect("run");
    let dir = &r[0];
    let dico = &r[1];
    let prov = &r[2];
    let arin = &r[3];
    for (name, x) in [("DiCo", dico), ("Providers", prov), ("Arin", arin)] {
        assert!(
            x.total_dynamic_nj() < dir.total_dynamic_nj(),
            "{name} should beat the directory: {} vs {}",
            x.total_dynamic_nj(),
            dir.total_dynamic_nj()
        );
    }
    assert!(prov.cache_energy.total() < dico.cache_energy.total());
    assert!(arin.cache_energy.total() < dico.cache_energy.total());
}

/// §V-D shape: DiCo-family resolves misses in fewer link traversals than
/// the directory's indirection on apache.
#[test]
fn claim_shortened_misses() {
    let cfg = SystemConfig::paper().with_refs(6_000);
    let r = run_matrix(
        &[ProtocolKind::Directory, ProtocolKind::DiCoProviders],
        &[Benchmark::Apache],
        &cfg,
        RunOptions::default(),
    )
    .expect("run");
    assert!(
        r[1].avg_links_per_message() < r[0].avg_links_per_message(),
        "providers {:.2} vs directory {:.2}",
        r[1].avg_links_per_message(),
        r[0].avg_links_per_message()
    );
}

/// §V-D: shortened misses reduce the average miss latency relative to
/// the directory's indirection (apache).
#[test]
fn claim_miss_latency_reduction() {
    let cfg = SystemConfig::paper().with_refs(6_000);
    let r = run_matrix(
        &[ProtocolKind::Directory, ProtocolKind::DiCo, ProtocolKind::DiCoArin],
        &[Benchmark::Apache],
        &cfg,
        RunOptions::default(),
    )
    .expect("run");
    assert!(
        r[1].avg_miss_latency() < r[0].avg_miss_latency(),
        "DiCo {:.1} vs directory {:.1}",
        r[1].avg_miss_latency(),
        r[0].avg_miss_latency()
    );
    assert!(r[2].avg_miss_latency() < r[0].avg_miss_latency());
}

/// Table IV: deduplication savings emerge in simulation (apache, which
/// touches its dedup pool most aggressively) and match the calibrated
/// profile formula analytically for every workload.
#[test]
fn claim_dedup_savings_direction() {
    let cfg = SystemConfig::small().with_refs(4_000);
    let apache =
        cmpsim::run_benchmark(ProtocolKind::Directory, Benchmark::Apache, &cfg).expect("run");
    assert!(apache.dedup_savings > 0.10, "apache {}", apache.dedup_savings);
    // Analytically (all pools mapped), the profiles are calibrated to
    // Table IV; tomcatv saves the most among the scientific codes.
    let t = cmpsim_workloads::profile::TOMCATV.dedup_savings(16, 4);
    let a = cmpsim_workloads::profile::APACHE.dedup_savings(16, 4);
    assert!((t - 0.368).abs() < 0.01, "tomcatv analytic {t}");
    assert!(t > a);
}
