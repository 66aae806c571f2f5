//! Plain-text report formatting shared by the CLI and the examples:
//! aligned tables and normalized series, in the style of the paper's
//! figures. [`figures`] and [`studies`] regenerate the paper's tables,
//! figures and side studies (`cmpsim-cli tables|figures|study`).
//!
//! The `breakdown_*` builders render the per-transaction attribution
//! of a protocol sweep ([`RunResult::breakdown`]) in the style of the
//! paper's Figure 7 (miss latency decomposed into critical-path
//! phases) and Figure 8 (dynamic energy decomposed per structure),
//! as aligned text, deterministic JSON, and CSV.

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::replay::Value;
use crate::result::RunResult;
use cmpsim_engine::phase::Phase;
use cmpsim_engine::EventCounts;
use cmpsim_protocols::{MissClass, ProtocolKind};
use cmpsim_workloads::Benchmark;
use std::fmt::Write as _;

pub mod figures;
pub mod studies;

/// How the paper reports run their simulations: one `protocols x
/// benchmarks` matrix under a configuration, results row-major as
/// [`crate::run_matrix`] returns them. The `&str` names the report's
/// variant of the configuration (empty for the paper's own), so a
/// caller that writes per-cell artifacts can keep variants apart.
pub type Runner<'a> = dyn FnMut(
        &[ProtocolKind],
        &[Benchmark],
        SystemConfig,
        &str,
    ) -> Result<Vec<RunResult>, SimError>
    + 'a;

/// Formats a table with a header row and aligned columns.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out += &fmt_row(&head, &widths);
    out += "\n";
    out += &"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1));
    out += "\n";
    for r in rows {
        out += &fmt_row(r, &widths);
        out += "\n";
    }
    out
}

/// Normalizes a series to its first element (the paper normalizes every
/// figure to the Directory bar).
pub fn normalize(series: &[f64]) -> Vec<f64> {
    let base = series.first().copied().unwrap_or(1.0);
    series.iter().map(|v| if base != 0.0 { v / base } else { 0.0 }).collect()
}

/// A unicode bar for quick visual comparison in terminal reports.
pub fn bar(value: f64, scale: f64) -> String {
    let n = ((value * scale).round() as usize).min(60);
    "#".repeat(n)
}

/// Formats a ratio as a percent delta ("-38%", "+6%").
pub fn pct_delta(value: f64, base: f64) -> String {
    let d = 100.0 * (value / base - 1.0);
    format!("{:+.1}%", d)
}

/// The seven Figure-8 structure categories of one attributed
/// event-count bucket, in nJ: `[l1_tag, l1_data, l2_tag, l2_data,
/// aux, routing, links]`.
fn bucket_categories_nj(r: &RunResult, c: &EventCounts) -> [f64; 7] {
    let model = r.energy_model();
    let cache = model.counts_cache_energy(c);
    let net = model.counts_network_energy(c);
    [cache.l1_tag, cache.l1_data, cache.l2_tag, cache.l2_data, cache.aux, net.routing, net.links]
}

/// Fig. 7-style table: average miss-latency cycles per critical-path
/// phase, one row per attribution-enabled result (results without a
/// breakdown are skipped).
pub fn breakdown_latency_table(results: &[RunResult]) -> String {
    let mut header = vec!["protocol"];
    header.extend(Phase::all().iter().map(|p| p.key()));
    header.push("total");
    header.push("misses");
    let rows: Vec<Vec<String>> = results
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .map(|(r, b)| {
            let mut row = vec![r.protocol.name().to_string()];
            row.extend(Phase::all().iter().map(|&p| format!("{:.1}", b.phase_avg(p))));
            row.push(format!("{:.1}", r.avg_miss_latency()));
            row.push(b.completed.to_string());
            row
        })
        .collect();
    table(&header, &rows)
}

/// Fig. 8-style table: transaction-attributed dynamic energy per
/// structure (uJ), one row per attribution-enabled result. The
/// `background` column is traffic no open transaction caused (hits,
/// writebacks, evictions); `total` tiles exactly into the aggregate
/// dynamic energy of the run.
pub fn breakdown_energy_table(results: &[RunResult]) -> String {
    let header = [
        "protocol", "l1_tag", "l1_data", "l2_tag", "l2_data", "aux", "routing", "links",
        "tx total", "background", "total",
    ];
    let rows: Vec<Vec<String>> = results
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .map(|(r, b)| {
            let model = r.energy_model();
            let tx = bucket_categories_nj(r, &b.tx_counts);
            let tx_total = r.counts_nj(&model, &b.tx_counts);
            let mut background = b.untracked_counts;
            background.merge(&b.open_counts);
            let bg_total = r.counts_nj(&model, &background);
            let mut row = vec![r.protocol.name().to_string()];
            row.extend(tx.iter().map(|nj| format!("{:.1}", nj / 1000.0)));
            row.push(format!("{:.1}", tx_total / 1000.0));
            row.push(format!("{:.1}", bg_total / 1000.0));
            row.push(format!("{:.1}", (tx_total + bg_total) / 1000.0));
            row
        })
        .collect();
    table(&header, &rows)
}

/// One line per attributed result: misses reconciled exactly, and the
/// attributed dynamic energy against the aggregate it must tile.
fn reconciliation(results: &[RunResult]) -> String {
    let mut out = String::new();
    for r in results {
        let Some(b) = &r.breakdown else { continue };
        let tiled = r.counts_nj(&r.energy_model(), &b.total_counts());
        let _ = writeln!(
            out,
            "{:<10} {} misses, {} reconciled exactly; attributed {:.1} uJ of {:.1} uJ aggregate",
            r.protocol.name(),
            b.completed,
            b.reconciled,
            tiled / 1000.0,
            r.total_dynamic_nj() / 1000.0,
        );
    }
    out
}

/// Renders one event-count bucket as a JSON object (categories + total,
/// nJ).
fn bucket_json(r: &RunResult, c: &EventCounts) -> Value {
    let cats = bucket_categories_nj(r, c);
    let mut j = Value::object();
    for (name, nj) in
        ["l1_tag_nj", "l1_data_nj", "l2_tag_nj", "l2_data_nj", "aux_nj", "routing_nj", "links_nj"]
            .iter()
            .zip(cats.iter())
    {
        j.set(name, Value::float(*nj));
    }
    j.set("total_nj", Value::float(cats.iter().sum()));
    j
}

/// Renders a breakdown sweep as a deterministic JSON document
/// (validated by `schemas/run.schema.json#breakdown`). Results without a
/// breakdown are skipped.
pub fn breakdown_json(results: &[RunResult]) -> String {
    let mut doc = Value::object();
    doc.set("schema", Value::string("cmpsim-breakdown-v1"));
    if let Some(r) = results.first() {
        doc.set("benchmark", Value::string(r.benchmark.name()));
    }
    // Provenance: one manifest per contributing run, in table order.
    let manifests: Vec<Value> =
        results.iter().filter_map(|r| r.manifest.as_ref().map(|m| m.to_value())).collect();
    if !manifests.is_empty() {
        doc.set("manifests", Value::Arr(manifests));
    }
    let protos = results
        .iter()
        .filter_map(|r| r.breakdown.as_ref().map(|b| (r, b)))
        .map(|(r, b)| {
            let mut p = Value::object();
            p.set("protocol", Value::string(r.protocol.name()));
            p.set("completed", Value::uint(b.completed));
            p.set("reconciled", Value::uint(b.reconciled));
            p.set("open_txs", Value::uint(b.open_txs));
            p.set("latency_cycles", Value::uint(b.latency_cycles));
            p.set("avg_miss_latency", Value::float(r.avg_miss_latency()));
            p.set("mshr_wait_cycles", Value::uint(b.mshr_wait_cycles));
            p.set("retry_wait_cycles", Value::uint(b.retry_wait_cycles));
            let phases = Phase::all()
                .iter()
                .map(|&ph| {
                    let mut v = Value::object();
                    v.set("key", Value::string(ph.key()));
                    v.set("label", Value::string(ph.label()));
                    v.set("cycles", Value::uint(b.phase_cycles.get(ph)));
                    v.set("avg", Value::float(b.phase_avg(ph)));
                    v.set("frac", Value::float(b.phase_frac(ph)));
                    v
                })
                .collect();
            p.set("phases", Value::Arr(phases));
            let model = r.energy_model();
            let mut e = Value::object();
            e.set("tx", bucket_json(r, &b.tx_counts));
            e.set("untracked", bucket_json(r, &b.untracked_counts));
            e.set("open", bucket_json(r, &b.open_counts));
            e.set("attributed_nj", Value::float(r.counts_nj(&model, &b.total_counts())));
            e.set("aggregate_dynamic_nj", Value::float(r.total_dynamic_nj()));
            p.set("energy", e);
            p
        })
        .collect();
    doc.set("protocols", Value::Arr(protos));
    let mut out = String::new();
    doc.render_to(&mut out);
    out.push('\n');
    out
}

/// Renders a breakdown sweep as CSV: one row per protocol, phase
/// cycles then attributed energy buckets.
pub fn breakdown_csv(results: &[RunResult]) -> String {
    let mut out = String::from(
        "protocol,completed,reconciled,latency_cycles,\
         phase_req_net,phase_home,phase_owner_ind,phase_memory,\
         phase_data_net,phase_inv,phase_retry,phase_fill,\
         tx_nj,untracked_nj,open_nj,aggregate_dynamic_nj",
    );
    out.push('\n');
    for (r, b) in results.iter().filter_map(|r| r.breakdown.as_ref().map(|b| (r, b))) {
        let model = r.energy_model();
        let _ = write!(out, "{},{},{},{}", r.protocol.name(), b.completed, b.reconciled, b.latency_cycles);
        for &p in &Phase::all() {
            let _ = write!(out, ",{}", b.phase_cycles.get(p));
        }
        let _ = writeln!(
            out,
            ",{:.3},{:.3},{:.3},{:.3}",
            r.counts_nj(&model, &b.tx_counts),
            r.counts_nj(&model, &b.untracked_counts),
            r.counts_nj(&model, &b.open_counts),
            r.total_dynamic_nj(),
        );
    }
    out
}

/// Formats a GitHub-flavored Markdown table.
pub fn md_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(out, "|{}", "---|".repeat(header.len()));
    for r in rows {
        let _ = writeln!(out, "| {} |", r.join(" | "));
    }
    out
}

/// One deterministic Markdown report over a matrix run: the run
/// ledger (per-cell manifests), the paper's throughput/energy table
/// per benchmark, miss-class mix, Fig. 7/8 breakdowns plus the tenant
/// (per-VM / cross-VM interference) breakdown when attribution ran —
/// the latter closing with a text block of each protocol's
/// reconciliation line and [`crate::vmstat::vmstat_tables`] (per-VM
/// tables, interference matrices, ASCII mesh heatmaps),
/// interval-series summaries when sampling ran, and fault-recovery
/// counts when the matrix ran under fault injection.
///
/// Only deterministic fields of the results are rendered — no host
/// profile, no wall clock — so the report is byte-identical across
/// reruns of the same cells. Results arrive in `run_matrix`'s
/// row-major (benchmark x protocol) order.
pub fn markdown_report(results: &[RunResult]) -> String {
    let mut out = String::from("# cmpsim matrix report\n\n");
    if results.is_empty() {
        out.push_str("No results.\n");
        return out;
    }
    let first = &results[0];
    if let Some(m) = &first.manifest {
        let _ = writeln!(out, "- tool: {} {}", m.tool, m.tool_version);
        let _ = writeln!(out, "- config digest: `{}`", m.config_digest);
        let _ = writeln!(
            out,
            "- seed: {}, refs/core: {}, placement: {}",
            m.seed, m.refs_per_core, m.placement
        );
        let _ = writeln!(out, "- fault plan: {}", m.fault_spec.as_deref().unwrap_or("none"));
        out.push('\n');
    }

    out.push_str("## Run ledger\n\n");
    let ledger_rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.benchmark.name().to_string(),
                r.protocol.name().to_string(),
                r.manifest
                    .as_ref()
                    .map(|m| format!("`{}`", m.run_id))
                    .unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    out.push_str(&md_table(&["benchmark", "protocol", "run_id"], &ledger_rows));
    out.push('\n');

    // Group into per-benchmark protocol sweeps, preserving order.
    let mut groups: Vec<(&str, Vec<&RunResult>)> = Vec::new();
    for r in results {
        match groups.last_mut() {
            Some((name, rs)) if *name == r.benchmark.name() => rs.push(r),
            _ => groups.push((r.benchmark.name(), vec![r])),
        }
    }

    for (bench, rs) in &groups {
        let base = rs[0];
        let _ = writeln!(out, "## {bench}{}\n", base.placement.suffix());

        out.push_str("### Throughput & energy (Tables V-VII style)\n\n");
        let rows: Vec<Vec<String>> = rs
            .iter()
            .map(|r| {
                vec![
                    r.protocol.name().to_string(),
                    format!("{:.4}", r.throughput()),
                    pct_delta(r.performance(), base.performance()),
                    format!("{:.1}", r.total_dynamic_uj()),
                    pct_delta(r.total_dynamic_nj(), base.total_dynamic_nj()),
                    format!("{:.2}", r.avg_links_per_message()),
                    format!("{:.1}", r.avg_miss_latency()),
                ]
            })
            .collect();
        out.push_str(&md_table(
            &[
                "protocol",
                "throughput (refs/cycle)",
                "perf vs dir",
                "dyn energy (uJ)",
                "energy vs dir",
                "links/msg",
                "avg miss lat",
            ],
            &rows,
        ));
        out.push('\n');

        out.push_str("### L1 miss mix\n\n");
        let mut header = vec!["protocol"];
        header.extend(MissClass::all().iter().map(|c| c.label()));
        let rows: Vec<Vec<String>> = rs
            .iter()
            .map(|r| {
                let mut row = vec![r.protocol.name().to_string()];
                row.extend(
                    MissClass::all()
                        .iter()
                        .map(|&c| format!("{:.1}%", 100.0 * r.miss_class_frac(c))),
                );
                row
            })
            .collect();
        out.push_str(&md_table(&header, &rows));
        out.push('\n');

        let attributed: Vec<RunResult> =
            rs.iter().filter(|r| r.breakdown.is_some()).map(|&r| r.clone()).collect();
        if !attributed.is_empty() {
            out.push_str("### Miss latency by phase (Fig. 7 style, avg cycles)\n\n```text\n");
            out.push_str(&breakdown_latency_table(&attributed));
            out.push_str("```\n\n");
            out.push_str("### Attributed dynamic energy (Fig. 8 style, uJ)\n\n```text\n");
            out.push_str(&breakdown_energy_table(&attributed));
            out.push_str("```\n\n");
            out.push_str(&crate::vmstat::tenant_section(rs));
            out.push_str("```text\n");
            out.push_str(&reconciliation(&attributed));
            out.push('\n');
            out.push_str(&crate::vmstat::vmstat_tables(&attributed));
            out.push_str("```\n\n");
        }

        if rs.iter().any(|r| r.timeseries.is_some()) {
            out.push_str("### Interval series\n\n");
            let rows: Vec<Vec<String>> = rs
                .iter()
                .filter_map(|r| r.timeseries.as_ref().map(|ts| (r, ts)))
                .map(|(r, ts)| {
                    let max_util = ts
                        .samples
                        .iter()
                        .map(|s| s.link_util_max)
                        .fold(0.0f64, f64::max);
                    vec![
                        r.protocol.name().to_string(),
                        ts.samples.len().to_string(),
                        ts.interval.to_string(),
                        format!("{:.3}", max_util),
                    ]
                })
                .collect();
            out.push_str(&md_table(
                &["protocol", "samples", "interval (cycles)", "peak link util"],
                &rows,
            ));
            out.push('\n');
        }

        if rs.iter().any(|r| r.faults.is_some()) {
            out.push_str("### Fault injection\n\n");
            let rows: Vec<Vec<String>> = rs
                .iter()
                .filter_map(|r| r.faults.as_ref().map(|f| (r, f)))
                .map(|(r, f)| {
                    vec![
                        r.protocol.name().to_string(),
                        f.plan.spec(),
                        f.fired.total().to_string(),
                        r.proto_stats.retries.get().to_string(),
                        r.proto_stats.timeouts.get().to_string(),
                        r.effective_cycles
                            .map(|ec| r.cycles.saturating_sub(ec).to_string())
                            .unwrap_or_else(|| "-".to_string()),
                    ]
                })
                .collect();
            out.push_str(&md_table(
                &["protocol", "plan", "faults fired", "retries", "timeouts", "overhead cycles"],
                &rows,
            ));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn normalize_to_first() {
        assert_eq!(normalize(&[2.0, 1.0, 4.0]), vec![1.0, 0.5, 2.0]);
        assert!(normalize(&[]).is_empty());
    }

    #[test]
    fn pct_delta_signs() {
        assert_eq!(pct_delta(0.62, 1.0), "-38.0%");
        assert_eq!(pct_delta(1.06, 1.0), "+6.0%");
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(100.0, 1.0).len(), 60);
        assert_eq!(bar(0.2, 10.0).len(), 2);
    }
}
