//! The paper's analytic tables (V, VI, VII), the §V-D link-count
//! analysis, and the side studies: the "-alt" placement (§V-C/§V-D),
//! the area-count trade-off (§V-B), the density projection (§VI), the
//! prediction/hint ablation and the single-application scenario (§III).
//! Each returns the plain-text report that `cmpsim-cli tables` /
//! `cmpsim-cli study` prints.

use super::{pct_delta, table, Runner};
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::result::RunResult;
use cmpsim_noc::{Mesh, NocConfig};
use cmpsim_power::{leakage_per_tile, overhead_percent, table_v_rows};
use cmpsim_protocols::common::ChipSpec;
use cmpsim_protocols::{MissClass, ProtocolKind};
use cmpsim_virt::Placement;
use cmpsim_workloads::Benchmark;

/// Table V — memory overhead introduced by coherence information (per
/// tile) in the 8x8 tiled CMP with 4 areas.
pub fn table5() -> String {
    let mut out = String::from("== Table V: per-tile coherence storage (64 cores, 4 areas) ==\n\n");
    let paper = [
        (ProtocolKind::Directory, 12.56),
        (ProtocolKind::DiCo, 13.21),
        (ProtocolKind::DiCoProviders, 5.14),
        (ProtocolKind::DiCoArin, 4.49),
    ];
    for (kind, paper_pct) in paper {
        let rows: Vec<Vec<String>> = table_v_rows(kind, 64, 4)
            .iter()
            .map(|r| {
                vec![
                    r.structure.to_string(),
                    format!("{} bits", r.entry_bits),
                    r.entries.to_string(),
                    format!("{:.2} KB", r.kib),
                ]
            })
            .collect();
        out += &format!("{}\n", kind.name());
        out += &format!("{}\n", table(&["structure", "entry", "entries", "size"], &rows));
        let got = overhead_percent(kind, 64, 4);
        out += &format!("overhead: {got:.2}%   (paper: {paper_pct}%)\n\n");
    }
    out
}

/// Table VI — leakage power of the caches per tile.
pub fn table6() -> String {
    let mut out = String::from(
        "== Table VI: leakage power per tile (64 cores, 4 areas, 32 nm-calibrated) ==\n\n",
    );
    let paper = [
        (ProtocolKind::Directory, 239.0, 37.0),
        (ProtocolKind::DiCo, 241.0, 39.0),
        (ProtocolKind::DiCoProviders, 222.0, 20.0),
        (ProtocolKind::DiCoArin, 219.0, 17.0),
    ];
    let dir = leakage_per_tile(ProtocolKind::Directory, 64, 4);
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(kind, p_total, p_tag)| {
            let l = leakage_per_tile(kind, 64, 4);
            vec![
                kind.name().to_string(),
                format!("{:.0} mW", l.total_mw),
                format!("{p_total:.0} mW"),
                format!("{:+.0}%", l.total_diff_percent(&dir)),
                format!("{:.0} mW", l.tag_mw),
                format!("{p_tag:.0} mW"),
                format!("{:+.0}%", l.tag_diff_percent(&dir)),
            ]
        })
        .collect();
    let header = ["protocol", "total", "paper", "vs dir", "tags", "paper", "vs dir"];
    out += &format!("{}\n", table(&header, &rows));
    out
}

/// Table VII — storage overhead of the protocols depending on the
/// number of cores and areas of the chip.
pub fn table7() -> String {
    let mut out = String::from("== Table VII: storage overhead vs cores x areas ==\n\n");
    for cores in [64u64, 128, 256, 512, 1024] {
        let areas: Vec<u64> =
            (1..=10).map(|i| 1u64 << i).filter(|&a| a <= cores && a >= 2).collect();
        let mut header: Vec<String> = vec![format!("{cores} cores")];
        header.extend(areas.iter().map(|a| format!("{a} areas")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = ProtocolKind::all()
            .iter()
            .map(|&kind| {
                let mut row = vec![kind.name().to_string()];
                row.extend(
                    areas.iter().map(|&a| format!("{:.1}%", overhead_percent(kind, cores, a))),
                );
                row
            })
            .collect();
        out += &format!("{}\n", table(&header_refs, &rows));
    }
    out += "(Directory/DiCo are area-independent; DiCo-Providers grows with the\n\
            area count; DiCo-Arin is minimized at intermediate area counts —\n\
            compare with the paper's Table VII.)\n";
    out
}

/// Average round-trip links between distinct tiles of the mesh, or of
/// its top-left `within_area`-tile square.
fn avg_round_trip(cfg: NocConfig, within_area: Option<usize>) -> f64 {
    let mesh = Mesh::new(cfg);
    let tiles = cfg.tiles();
    let area_cols = (within_area.unwrap_or(tiles) as f64).sqrt() as usize;
    let in_area = |t: usize| {
        within_area
            .map(|_| (t % cfg.cols) < area_cols && (t / cfg.cols) < area_cols)
            .unwrap_or(true)
    };
    let mut sum = 0u64;
    let mut n = 0u64;
    for a in 0..tiles {
        for b in 0..tiles {
            if a != b && in_area(a) && in_area(b) {
                sum += 2 * mesh.distance(a, b);
                n += 1;
            }
        }
    }
    sum as f64 / n as f64
}

/// §V-D link-count analysis: the paper's analytic hop counts for 2-hop
/// misses — 10.6 links chip-wide vs 5.4 links inside a 16-tile area on
/// the 8x8 mesh, and the 256-tile / 4-tile-area projection — checked
/// against the mesh model.
pub fn hops() -> String {
    let mut out = String::from("== Paper §V-D: links traversed by a two-hop miss ==\n\n");
    let m8 = NocConfig { cols: 8, rows: 8, ..NocConfig::default() };
    let m16 = NocConfig { cols: 16, rows: 16, ..NocConfig::default() };
    let rows: Vec<Vec<String>> = [
        ("8x8 chip-wide (paper: 10.6)", avg_round_trip(m8, None)),
        ("8x8 within a 16-tile area (paper: 5.4)", avg_round_trip(m8, Some(16))),
        ("16x16 chip-wide (paper: 21.3)", avg_round_trip(m16, None)),
        ("16x16 within a 4-tile area (paper: 2.6)", avg_round_trip(m16, Some(4))),
        ("16x16 3-hop indirection (paper: 32)", 1.5 * avg_round_trip(m16, None)),
    ]
    .iter()
    .map(|(path, links)| vec![path.to_string(), format!("{links:.1}")])
    .collect();
    out += &format!("{}\n", table(&["path", "avg links"], &rows));
    out += &format!(
        "Shortened (in-area) misses traverse ~{}% fewer links than chip-wide\n\
         two-hop misses on the 8x8 mesh — the paper reports 38-40% fewer\n\
         links than DiCo for provider-resolved misses.\n",
        (100.0 * (1.0 - avg_round_trip(m8, Some(16)) / avg_round_trip(m8, None))) as i64
    );
    out
}

/// Runs one cell through `run`.
fn one(
    run: &mut Runner,
    kind: ProtocolKind,
    cfg: SystemConfig,
    variant: &str,
) -> Result<RunResult, SimError> {
    let mut results = run(&[kind], &[Benchmark::Apache], cfg, variant)?;
    Ok(results.pop().expect("one cell"))
}

/// The paper chip with `n` VMs, one per area.
fn areas(n: usize, refs: u64) -> SystemConfig {
    SystemConfig { chip: ChipSpec::paper_with_areas(n), num_vms: n, ..SystemConfig::paper() }
        .with_refs(refs)
}

/// The "-alt" study (paper Figure 6 + §V-C/§V-D): VMs shifted so every
/// VM straddles two areas. The paper reports no significant
/// performance change and only a logical increase in DiCo-Arin
/// broadcast traffic.
pub fn alt_placement(refs: u64, run: &mut Runner) -> Result<String, SimError> {
    let cfg = SystemConfig::paper().with_refs(refs);
    let benchmarks = [Benchmark::Apache, Benchmark::Radix];
    let protocols = ProtocolKind::all();
    let matched = run(&protocols, &benchmarks, cfg.clone(), "")?;
    let alt = run(&protocols, &benchmarks, cfg.with_placement(Placement::Alternative), "alt")?;

    let mut out =
        String::from("== Alternative VM placement (paper Figure 6, '-alt' results) ==\n\n");
    let rows: Vec<Vec<String>> = matched
        .iter()
        .zip(&alt)
        .map(|(m, a)| {
            vec![
                m.benchmark.name().to_string(),
                m.protocol.name().to_string(),
                format!("{:.3}", a.performance() / m.performance()),
                format!("{:.3}", a.total_dynamic_nj() / m.total_dynamic_nj()),
                format!(
                    "{} -> {}",
                    m.proto_stats.broadcast_invs.get(),
                    a.proto_stats.broadcast_invs.get()
                ),
            ]
        })
        .collect();
    let header = ["benchmark", "protocol", "perf alt/matched", "energy alt/matched", "broadcasts"];
    out += &format!("{}\n", table(&header, &rows));
    out += "Paper: no significant performance change in any protocol; DiCo-Arin\n\
            broadcasts grow (read/write data now shared between areas); the\n\
            proposals keep consuming less power than the directory.\n";
    Ok(out)
}

/// The area-count trade-off the paper calls out in §V-B — "using
/// smaller areas implies that providers will be closer to the
/// requestors but also that finding a provider in the area is less
/// likely" — plus the storage overhead per choice. Runs DiCo-Providers
/// and DiCo-Arin on apache with 2, 4, 8 and 16 areas (one VM per area).
pub fn area_sweep(refs: u64, run: &mut Runner) -> Result<String, SimError> {
    let mut out =
        format!("== Area-count ablation (apache, {refs} refs/core, 1 VM per area) ==\n\n");
    // One matrix per area count, so each variant's per-matrix
    // artifacts cover both protocols.
    let kinds = [ProtocolKind::DiCoProviders, ProtocolKind::DiCoArin];
    let mut by_areas = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let results = run(&kinds, &[Benchmark::Apache], areas(n, refs), &format!("{n}areas"))?;
        by_areas.push((n, results));
    }
    let mut rows = Vec::new();
    for (k, &kind) in kinds.iter().enumerate() {
        for (n, results) in &by_areas {
            let r = &results[k];
            rows.push(vec![
                kind.name().to_string(),
                n.to_string(),
                format!("{:.4}", r.throughput()),
                format!("{:.1} uJ", r.total_dynamic_uj()),
                format!("{:.2}", r.avg_links_per_message()),
                format!("{:.1}%", overhead_percent(kind, 64, *n as u64)),
            ]);
        }
    }
    let header = ["protocol", "areas", "throughput", "dyn energy", "links/msg", "storage ovh"];
    out += &format!("{}\n", table(&header, &rows));
    out += "Expected trade-off: smaller areas shorten in-area trips (links/msg)\n\
            but shrink each area's chance of holding a provider; DiCo-Providers'\n\
            storage grows with the area count while DiCo-Arin's dips at 4 areas.\n";
    Ok(out)
}

/// The paper's closing projection (§V-D/§VI): "as virtualization
/// density increases, with tens of virtual machines running in a
/// single server, the advantages of our proposals will become even
/// more noticeable". Raises the density on the 64-tile chip from 4 VMs
/// (16 cores each) to 16 VMs (4 cores each, 4-tile areas).
pub fn density_study(refs: u64, run: &mut Runner) -> Result<String, SimError> {
    let mut out = format!("== Virtualization-density study (apache, {refs} refs/core) ==\n\n");
    let mut rows = Vec::new();
    for (vms, label) in [(4usize, "4 VMs x 16 cores"), (16, "16 VMs x 4 cores")] {
        let results = run(
            &ProtocolKind::all(),
            &[Benchmark::Apache],
            areas(vms, refs),
            &format!("{vms}vms"),
        )?;
        let base = &results[0];
        for r in &results {
            rows.push(vec![
                label.to_string(),
                r.protocol.name().to_string(),
                pct_delta(r.performance(), base.performance()),
                pct_delta(r.total_dynamic_nj(), base.total_dynamic_nj()),
                format!("{:.2}", r.avg_links_per_message()),
            ]);
        }
    }
    let header = ["density", "protocol", "perf vs dir", "energy vs dir", "links/msg"];
    out += &format!("{}\n", table(&header, &rows));
    out += "Paper projection (§VI): the advantages grow with density. Note that\n\
            in this synthetic setting the denser configuration also shrinks each\n\
            VM's cache share and dedup pool, which offsets part of the gain —\n\
            see EXPERIMENTS.md.\n";
    Ok(out)
}

/// Ablation of the two prediction mechanisms: the L1C$ supplier
/// prediction (paper §IV-A2) and the Figure-5 hint messages sent when
/// ownership/providership moves. Runs DiCo-Providers on apache with
/// each mechanism toggled.
pub fn ablation(refs: u64, run: &mut Runner) -> Result<String, SimError> {
    let mut out =
        format!("== Prediction/hint ablation (DiCo-Providers, apache, {refs} refs/core) ==\n\n");
    let mut rows = Vec::new();
    for (pred, hints, label, variant) in [
        (true, true, "prediction + hints (paper)", ""),
        (true, false, "prediction, no hints", "no-hints"),
        (false, false, "no prediction (always via home)", "no-prediction"),
    ] {
        let mut cfg = SystemConfig::paper().with_refs(refs);
        cfg.chip.enable_prediction = pred;
        cfg.chip.enable_hints = hints;
        let r = one(run, ProtocolKind::DiCoProviders, cfg, variant)?;
        let predicted = r.miss_class_frac(MissClass::PredictedOwnerHit)
            + r.miss_class_frac(MissClass::PredictedProviderHit);
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", r.throughput()),
            format!("{:.1} uJ", r.total_dynamic_uj()),
            format!("{:.2}", r.avg_links_per_message()),
            format!("{:.1}%", 100.0 * predicted),
            format!("{:.1}%", 100.0 * r.miss_class_frac(MissClass::PredictionFailed)),
        ]);
    }
    let header =
        ["configuration", "throughput", "dyn energy", "links/msg", "pred hits", "mispredicts"];
    out += &format!("{}\n", table(&header, &rows));
    out += "The L1C$ prediction is what buys the 2-hop misses (paper §II-B);\n\
            hints keep predictions fresh across ownership movement (Figure 5).\n\
            Disabling prediction reverts every miss to home indirection.\n";
    Ok(out)
}

/// The paper's §III non-virtualized scenario: one application (one
/// "VM") uses all 64 cores across the 4 hard-wired areas. The claim:
/// data shared by several areas can still be accessed without leaving
/// the requestors' areas, so the proposals keep their shortened misses
/// and smaller directory entries beyond server consolidation.
pub fn single_app(refs: u64, run: &mut Runner) -> Result<String, SimError> {
    let mut cfg = SystemConfig::paper().with_refs(refs);
    cfg.num_vms = 1; // one application on all 64 cores; areas stay hard-wired
    let results = run(&ProtocolKind::all(), &[Benchmark::Apache], cfg, "")?;
    let mut out = String::from("== Single application on all 64 cores (4 hard-wired areas) ==\n\n");
    let base = &results[0];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.protocol.name().to_string(),
                pct_delta(r.performance(), base.performance()),
                pct_delta(r.total_dynamic_nj(), base.total_dynamic_nj()),
                format!("{:.2}", r.avg_links_per_message()),
                r.proto_stats.broadcast_invs.get().to_string(),
            ]
        })
        .collect();
    let header = ["protocol", "perf vs dir", "energy vs dir", "links/msg", "bcasts"];
    out += &format!("{}\n", table(&header, &rows));
    out += "Expected: the proposals still beat the directory (owners stay near\n\
            their threads; providers shorten cross-area trips) — DiCo-Arin pays\n\
            broadcasts for the now chip-wide read/write shared data.\n";
    Ok(out)
}
