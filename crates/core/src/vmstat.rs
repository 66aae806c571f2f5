//! Tenant-level and spatial exports: per-VM attribution tables, the
//! cross-VM interference matrix, and per-tile/per-link heatmap grids.
//!
//! Everything here renders data already collected by the attribution
//! layer ([`crate::attr`]) and the simulator's spatial counters
//! ([`crate::result::SpatialLog`]) — nothing affects simulated timing.
//! The JSON artifacts are deterministic, carry one manifest per cell
//! (the envelope is [`crate::report`]'s, shared with the breakdown
//! view), and are validated by the `vmstat` and `heatmap` definitions of
//! `schemas/run.schema.json`; the text renderers back the "Tenant
//! breakdown" section of `cmpsim-cli report`.

use crate::attr::{BreakdownLog, MatrixCell};
use crate::json::Value;
use crate::report::{cell_entry, matrix_doc, md_table, table};
use crate::result::RunResult;
use cmpsim_engine::phase::Phase;
use std::fmt::Write as _;

/// Schema tag of the per-VM statistics artifact.
pub const VMSTAT_SCHEMA: &str = "cmpsim-vmstat-v1";
/// Schema tag of the spatial heatmap artifact.
pub const HEATMAP_SCHEMA: &str = "cmpsim-heatmap-v1";

/// Shade ramp for ASCII heatmaps, darkest last.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Sums the four outgoing directed links of every tile into one
/// per-tile value (`links` is the mesh layout `tile * 4 + direction`).
fn per_tile_links(links: &[u64]) -> Vec<u64> {
    links.chunks(4).map(|c| c.iter().sum()).collect()
}

/// One interference-matrix cell as JSON.
fn cell_json(aggressor: usize, victim: usize, c: &MatrixCell) -> Value {
    let mut j = Value::object();
    j.set("aggressor", Value::uint(aggressor as u64));
    j.set("victim", Value::uint(victim as u64));
    j.set("msgs", Value::uint(c.msgs));
    j.set("inv_msgs", Value::uint(c.inv_msgs));
    j.set("fwd_msgs", Value::uint(c.fwd_msgs));
    j.set("dedup_msgs", Value::uint(c.dedup_msgs));
    j.set("routing", Value::uint(c.routing));
    j.set("flit_links", Value::uint(c.flit_links));
    j.set("stolen_cycles", Value::uint(c.stolen_cycles));
    j
}

/// Renders a per-VM statistics sweep as a deterministic JSON document
/// (validated by `schemas/run.schema.json#vmstat`). Results without a
/// breakdown are skipped — the export needs attribution enabled.
pub fn vmstat_json(results: &[RunResult]) -> String {
    let mut doc = matrix_doc(VMSTAT_SCHEMA, results);
    let protos = results
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .map(|(r, b)| {
            let model = r.energy_model();
            let mut p = cell_entry(r);
            p.set("num_vms", Value::uint(b.num_vms as u64));
            let vms =
                b.vm.iter()
                    .enumerate()
                    .map(|(i, vm)| {
                        let mut v = Value::object();
                        v.set("vm", Value::uint(i as u64));
                        v.set(
                            "finish_cycles",
                            Value::float(r.vm_finish.get(i).copied().unwrap_or(0.0)),
                        );
                        v.set("completed", Value::uint(vm.completed));
                        v.set("latency_cycles", Value::uint(vm.latency_cycles));
                        v.set(
                            "avg_miss_latency",
                            Value::float(vm.latency_cycles as f64 / vm.completed.max(1) as f64),
                        );
                        v.set("mshr_wait_cycles", Value::uint(vm.mshr_wait_cycles));
                        v.set("retry_wait_cycles", Value::uint(vm.retry_wait_cycles));
                        v.set("intra_txs", Value::uint(vm.intra_txs));
                        v.set("cross_txs", Value::uint(vm.cross_txs));
                        v.set("stolen_cycles", Value::uint(vm.stolen_cycles));
                        v.set("open_txs", Value::uint(vm.open_txs));
                        v.set("attributed_nj", Value::float(r.counts_nj(&model, &vm.counts)));
                        let mut ph = Value::object();
                        for p in Phase::all() {
                            ph.set(p.key(), Value::uint(vm.phase_cycles.get(p)));
                        }
                        v.set("phase_cycles", ph);
                        v
                    })
                    .collect();
            p.set("vms", Value::Arr(vms));
            let matrix = (0..b.num_vms)
                .flat_map(|a| (0..b.num_vms).map(move |v| (a, v)))
                .map(|(a, v)| cell_json(a, v, b.matrix_cell(a, v)))
                .collect();
            p.set("matrix", Value::Arr(matrix));
            p
        })
        .collect();
    doc.set("protocols", Value::Arr(protos));
    doc.to_document()
}

/// Renders the spatial counters of a sweep as a deterministic,
/// heatmap-ready JSON document (validated by
/// `schemas/run.schema.json#heatmap`). Results without spatial counters
/// (hand-assembled) are skipped.
pub fn heatmap_json(results: &[RunResult]) -> String {
    let mut doc = matrix_doc(HEATMAP_SCHEMA, results);
    let uints = |xs: &[u64]| Value::Arr(xs.iter().map(|&x| Value::uint(x)).collect());
    let grids = results
        .iter()
        .filter_map(|r| r.spatial.as_ref().map(|s| (r, s)))
        .map(|(r, s)| {
            let mut g = cell_entry(r);
            g.set("rows", Value::uint(s.rows));
            g.set("cols", Value::uint(s.cols));
            g.set("tile_misses", uints(&s.tile_misses));
            g.set("tile_refs", uints(&s.tile_refs));
            g.set("tile_flits", uints(&per_tile_links(&s.link_flits)));
            g.set("tile_stall", uints(&per_tile_links(&s.link_contention)));
            g.set("tile_vm", Value::Arr(s.vm_of.iter().map(|&v| Value::uint(v as u64)).collect()));
            g.set("link_flits", uints(&s.link_flits));
            g.set("link_stall", uints(&s.link_contention));
            g
        })
        .collect();
    doc.set("grids", Value::Arr(grids));
    doc.to_document()
}

/// Renders the spatial counters as long-format CSV, one row per tile
/// per grid kind — the shape spreadsheet/pandas heatmap tooling
/// ingests directly. Per-link counters are folded to their source tile
/// (sum of the four outgoing directed links), so each grid still sums
/// to the chip-wide counter it splits.
pub fn heatmap_csv(results: &[RunResult]) -> String {
    let mut out = String::from("benchmark,protocol,grid,row,col,vm,value\n");
    for (r, s) in results.iter().filter_map(|r| r.spatial.as_ref().map(|s| (r, s))) {
        let grids: [(&str, Vec<u64>); 4] = [
            ("tile_misses", s.tile_misses.clone()),
            ("tile_refs", s.tile_refs.clone()),
            ("tile_flits", per_tile_links(&s.link_flits)),
            ("tile_stall", per_tile_links(&s.link_contention)),
        ];
        for (kind, cells) in &grids {
            for (tile, v) in cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{}",
                    r.benchmark.name(),
                    r.protocol.name(),
                    kind,
                    tile as u64 / s.cols.max(1),
                    tile as u64 % s.cols.max(1),
                    s.vm_of.get(tile).copied().unwrap_or(0),
                    v,
                );
            }
        }
    }
    out
}

/// Renders a `rows x cols` grid as an ASCII heatmap, one mesh row per
/// line, shading each cell by its fraction of the grid maximum.
pub fn ascii_heatmap(rows: usize, cols: usize, cells: &[u64]) -> String {
    let max = cells.iter().copied().max().unwrap_or(0);
    let mut out = String::new();
    for row in 0..rows {
        for col in 0..cols {
            let v = cells.get(row * cols + col).copied().unwrap_or(0);
            let idx = if max == 0 {
                0
            } else {
                // Nonzero cells shade at least one step above blank.
                (v as u128 * (RAMP.len() as u128 - 1)).div_ceil(max as u128) as usize
            };
            let c = RAMP[idx.min(RAMP.len() - 1)] as char;
            out.push(c);
            out.push(c); // double width: terminal cells are ~2:1
        }
        out.push('\n');
    }
    out
}

/// The interference matrix as an aligned text table (rows = aggressor,
/// columns = victim), each cell `msgs/stolen`.
fn matrix_table(b: &BreakdownLog) -> String {
    let header: Vec<String> = std::iter::once("aggr\\victim".to_string())
        .chain((0..b.num_vms).map(|v| format!("vm{v}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = (0..b.num_vms)
        .map(|a| {
            std::iter::once(format!("vm{a}"))
                .chain((0..b.num_vms).map(|v| {
                    let c = b.matrix_cell(a, v);
                    if c.is_zero() {
                        "-".to_string()
                    } else {
                        format!("{}/{}", c.msgs, c.stolen_cycles)
                    }
                }))
                .collect()
        })
        .collect();
    table(&header_refs, &rows)
}

/// Plain-text per-VM tables, interference matrices and ASCII mesh
/// heatmaps for a sweep, closing the report's "Tenant breakdown"
/// section. Results without a breakdown are skipped.
pub fn vmstat_tables(results: &[RunResult]) -> String {
    let mut out = String::new();
    for (r, b) in results.iter().filter_map(|r| r.breakdown.as_ref().map(|b| (r, b))) {
        let model = r.energy_model();
        let _ = writeln!(out, "== {} / {} ==\n", r.protocol.name(), r.benchmark.name());
        let rows: Vec<Vec<String>> =
            b.vm.iter()
                .enumerate()
                .map(|(i, vm)| {
                    vec![
                        format!("vm{i}"),
                        format!("{:.0}", r.vm_finish.get(i).copied().unwrap_or(0.0)),
                        vm.completed.to_string(),
                        format!("{:.1}", vm.latency_cycles as f64 / vm.completed.max(1) as f64),
                        vm.intra_txs.to_string(),
                        vm.cross_txs.to_string(),
                        vm.stolen_cycles.to_string(),
                        format!("{:.1}", r.counts_nj(&model, &vm.counts) / 1000.0),
                    ]
                })
                .collect();
        out.push_str(&table(
            &["vm", "finish", "misses", "avg lat", "intra", "cross", "stolen cyc", "energy uJ"],
            &rows,
        ));
        out.push('\n');
        out.push_str("interference (msgs/stolen cycles, aggressor -> victim):\n");
        out.push_str(&matrix_table(b));
        out.push('\n');
        if let Some(s) = &r.spatial {
            let _ = writeln!(out, "L1-miss heatmap ({}x{} mesh):", s.rows, s.cols);
            out.push_str(&ascii_heatmap(s.rows as usize, s.cols as usize, &s.tile_misses));
            let _ = writeln!(out, "link-flit heatmap (per-tile outgoing):");
            out.push_str(&ascii_heatmap(
                s.rows as usize,
                s.cols as usize,
                &per_tile_links(&s.link_flits),
            ));
            out.push('\n');
        }
    }
    if out.is_empty() {
        out.push_str(
            "No attribution data. Rerun with attribution enabled (report does this \
                      by default).\n",
        );
    }
    out
}

/// Markdown "Tenant breakdown" section of one per-benchmark protocol
/// sweep, appended to the matrix report when attribution ran.
pub fn tenant_section(rs: &[&RunResult]) -> String {
    let mut out = String::from("### Tenant breakdown\n\n");
    let rows: Vec<Vec<String>> = rs
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .flat_map(|(r, b)| {
            let model = r.energy_model();
            b.vm.iter()
                .enumerate()
                .map(|(i, vm)| {
                    vec![
                        r.protocol.name().to_string(),
                        format!("vm{i}"),
                        format!("{:.0}", r.vm_finish.get(i).copied().unwrap_or(0.0)),
                        vm.completed.to_string(),
                        vm.intra_txs.to_string(),
                        vm.cross_txs.to_string(),
                        vm.stolen_cycles.to_string(),
                        format!("{:.1}", r.counts_nj(&model, &vm.counts) / 1000.0),
                    ]
                })
                .collect::<Vec<_>>()
        })
        .collect();
    out.push_str(&md_table(
        &[
            "protocol",
            "vm",
            "finish cycles",
            "misses",
            "intra-VM",
            "cross-VM",
            "stolen cycles",
            "energy (uJ)",
        ],
        &rows,
    ));
    out.push('\n');
    // Off-diagonal interference summary, one row per protocol.
    let irows: Vec<Vec<String>> = rs
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .map(|(r, b)| {
            let mut msgs = 0u64;
            let mut dedup = 0u64;
            let mut stolen = 0u64;
            for a in 0..b.num_vms {
                for v in 0..b.num_vms {
                    if a != v {
                        let c = b.matrix_cell(a, v);
                        msgs += c.msgs;
                        dedup += c.dedup_msgs;
                        stolen += c.stolen_cycles;
                    }
                }
            }
            vec![
                r.protocol.name().to_string(),
                msgs.to_string(),
                dedup.to_string(),
                stolen.to_string(),
            ]
        })
        .collect();
    out.push_str("Cross-VM interference (off-diagonal totals):\n\n");
    out.push_str(&md_table(
        &["protocol", "msgs into other VMs", "dedup-shared msgs", "stolen cycles"],
        &irows,
    ));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::sim::run_benchmark;
    use cmpsim_protocols::ProtocolKind;
    use cmpsim_workloads::Benchmark;

    fn attributed_run() -> RunResult {
        let mut cfg = SystemConfig::smoke();
        cfg.attribution = true;
        run_benchmark(ProtocolKind::DiCo, Benchmark::Apache, &cfg).expect("run")
    }

    #[test]
    fn vmstat_json_is_schema_shaped_and_deterministic() {
        let r = attributed_run();
        let json = vmstat_json(std::slice::from_ref(&r));
        assert_eq!(json, vmstat_json(std::slice::from_ref(&r)));
        let v = Value::parse(&json).expect("valid json");
        assert_eq!(v.field("schema").unwrap().as_str().unwrap(), VMSTAT_SCHEMA);
        let Value::Arr(protos) = v.field("protocols").unwrap() else {
            panic!("protocols not an array");
        };
        assert_eq!(protos.len(), 1);
        let p = &protos[0];
        let n = p.field("num_vms").unwrap().as_u64().unwrap() as usize;
        let Value::Arr(vms) = p.field("vms").unwrap() else { panic!("vms") };
        assert_eq!(vms.len(), n);
        let Value::Arr(matrix) = p.field("matrix").unwrap() else { panic!("matrix") };
        assert_eq!(matrix.len(), n * n);
        // Per-VM completed counts tile the chip total.
        let b = r.breakdown.as_ref().unwrap();
        let sum: u64 = vms.iter().map(|v| v.field("completed").unwrap().as_u64().unwrap()).sum();
        assert_eq!(sum, b.completed);
    }

    #[test]
    fn heatmap_json_and_csv_cover_the_mesh() {
        let r = attributed_run();
        let s = r.spatial.as_ref().expect("spatial counters");
        let tiles = (s.rows * s.cols) as usize;
        let json = heatmap_json(std::slice::from_ref(&r));
        let v = Value::parse(&json).expect("valid json");
        assert_eq!(v.field("schema").unwrap().as_str().unwrap(), HEATMAP_SCHEMA);
        let Value::Arr(grids) = v.field("grids").unwrap() else { panic!("grids") };
        let g = &grids[0];
        for key in ["tile_misses", "tile_refs", "tile_flits", "tile_stall", "tile_vm"] {
            let Value::Arr(cells) = g.field(key).unwrap() else { panic!("{key}") };
            assert_eq!(cells.len(), tiles, "{key}");
        }
        let Value::Arr(links) = g.field("link_flits").unwrap() else { panic!("links") };
        assert_eq!(links.len(), tiles * 4);
        // CSV: header + 4 grids x tiles rows; per-tile folds keep sums.
        let csv = heatmap_csv(std::slice::from_ref(&r));
        assert_eq!(csv.lines().count(), 1 + 4 * tiles);
        let flit_sum: u64 = per_tile_links(&s.link_flits).iter().sum();
        assert_eq!(flit_sum, r.noc_stats.flit_link_traversals.get());
    }

    #[test]
    fn ascii_heatmap_shades_by_magnitude() {
        let art = ascii_heatmap(2, 2, &[0, 1, 5, 10]);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("  ")); // zero cell is blank
        assert!(lines[1].ends_with("@@")); // max cell is darkest
                                           // A nonzero cell never renders blank.
        assert!(!lines[0].ends_with(' '));
        // Zero-max grids render all blank.
        assert_eq!(ascii_heatmap(1, 2, &[0, 0]), "    \n");
    }

    #[test]
    fn tables_and_report_section_render() {
        let r = attributed_run();
        let txt = vmstat_tables(std::slice::from_ref(&r));
        assert!(txt.contains("== DiCo / apache4x16p =="));
        assert!(txt.contains("aggr\\victim"));
        assert!(txt.contains("L1-miss heatmap"));
        let md = tenant_section(&[&r]);
        assert!(md.starts_with("### Tenant breakdown"));
        assert!(md.contains("| DiCo | vm0 |"));
        assert!(md.contains("Cross-VM interference"));
    }
}
