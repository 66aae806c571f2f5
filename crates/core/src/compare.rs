//! Cross-run regression analytics: structural diff of two runs (or two
//! whole matrices) of JSON artifacts, with per-metric verdicts and a
//! machine-readable diff document for CI gating.
//!
//! Artifacts from this simulator are deterministic, so the default
//! contract is *byte-equality per metric*: integer-valued leaves
//! (counters, histogram buckets, flit/message totals) must match
//! exactly; float-valued leaves (derived gauges, energies) may be given
//! a relative tolerance for cross-toolchain comparisons but default to
//! exact as well. Each differing metric gets a verdict — `improved`,
//! `regressed` or `changed` — from a small direction table (cycles and
//! energy are lower-better, throughput and hit rates higher-better).
//!
//! Two manifest-stamped artifacts with the *same* `run_id` that differ
//! in any metric are flagged as a **determinism violation**: same
//! inputs must give same outputs, so this is never a performance
//! regression but a bug (or a corrupted artifact).

use crate::manifest::manifest_of;
use crate::replay::Value;

/// Schema tag of the JSON diff document.
pub const COMPARE_SCHEMA: &str = "cmpsim-compare-v1";

/// Per-metric comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-identical (or within the float tolerance).
    Identical,
    /// Differs in the direction the metric is supposed to move.
    Improved,
    /// Differs in the wrong direction.
    Regressed,
    /// Differs, and the metric has no known better/worse direction.
    Changed,
    /// Present only in B.
    MissingA,
    /// Present only in A.
    MissingB,
}

impl Verdict {
    /// Stable lowercase name used in the JSON diff.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Changed => "changed",
            Verdict::MissingA => "missing_a",
            Verdict::MissingB => "missing_b",
        }
    }
}

/// One differing metric (identical metrics are only counted).
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// File name, for directory (matrix) comparisons.
    pub file: Option<String>,
    /// Dotted path of the leaf, e.g. `counters.sim.cycles`.
    pub metric: String,
    /// Rendered value in A (absent for `missing_a`).
    pub a: Option<String>,
    /// Rendered value in B (absent for `missing_b`).
    pub b: Option<String>,
    /// Relative change in percent, when both sides are numeric.
    pub delta_pct: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Knobs for a comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareOptions {
    /// Relative tolerance applied to float-valued leaves (0 = exact).
    pub tolerance: f64,
    /// Whether `improved` verdicts still count as a pass.
    pub allow_improved: bool,
}

/// The full result of comparing two runs or matrices.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Label (path) of side A.
    pub a_label: String,
    /// Label (path) of side B.
    pub b_label: String,
    /// Total leaves compared.
    pub compared: usize,
    /// Leaves that matched.
    pub identical: usize,
    /// Every differing leaf.
    pub diffs: Vec<MetricDiff>,
    /// Same `run_id` on both sides yet metrics differ.
    pub determinism_violation: bool,
}

impl CompareReport {
    /// Whether the comparison passes under `opts`.
    pub fn passed(&self, opts: &CompareOptions) -> bool {
        !self.determinism_violation
            && self.diffs.iter().all(|d| {
                d.verdict == Verdict::Identical
                    || (opts.allow_improved && d.verdict == Verdict::Improved)
            })
    }

    fn count(&self, v: Verdict) -> usize {
        self.diffs.iter().filter(|d| d.verdict == v).count()
    }

    /// Renders the machine-readable JSON diff document.
    pub fn to_json(&self, opts: &CompareOptions) -> String {
        let mut summary = Value::object();
        summary.set("compared", Value::uint(self.compared as u64));
        summary.set("identical", Value::uint(self.identical as u64));
        summary.set("improved", Value::uint(self.count(Verdict::Improved) as u64));
        summary.set("regressed", Value::uint(self.count(Verdict::Regressed) as u64));
        summary.set("changed", Value::uint(self.count(Verdict::Changed) as u64));
        summary.set(
            "missing",
            Value::uint((self.count(Verdict::MissingA) + self.count(Verdict::MissingB)) as u64),
        );

        let mut diffs = Vec::new();
        for d in &self.diffs {
            let mut j = Value::object();
            j.set(
                "file",
                match &d.file {
                    Some(f) => Value::string(f),
                    None => Value::Null,
                },
            );
            j.set("metric", Value::string(&d.metric));
            j.set("a", d.a.as_ref().map_or(Value::Null, |s| Value::Num(s.clone())));
            j.set("b", d.b.as_ref().map_or(Value::Null, |s| Value::Num(s.clone())));
            j.set("delta_pct", d.delta_pct.map_or(Value::Null, Value::float));
            j.set("verdict", Value::string(d.verdict.name()));
            diffs.push(j);
        }

        let mut j = Value::object();
        j.set("schema", Value::string(COMPARE_SCHEMA));
        j.set("mode", Value::string("artifacts"));
        j.set("a", Value::string(&self.a_label));
        j.set("b", Value::string(&self.b_label));
        j.set("passed", Value::boolean(self.passed(opts)));
        j.set("determinism_violation", Value::boolean(self.determinism_violation));
        j.set("summary", summary);
        j.set("diffs", Value::Arr(diffs));
        let mut out = String::new();
        j.render_to(&mut out);
        out.push('\n');
        out
    }

    /// Human summary lines for stdout.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "compare: {} vs {}: {} metrics, {} identical, {} differing",
            self.a_label,
            self.b_label,
            self.compared,
            self.identical,
            self.diffs.len()
        )];
        if self.determinism_violation {
            out.push(
                "DETERMINISM VIOLATION: same run_id on both sides but metrics differ".to_string(),
            );
        }
        for d in &self.diffs {
            let loc = d.file.as_deref().map(|f| format!("{f}: ")).unwrap_or_default();
            let delta = d.delta_pct.map(|p| format!(" ({p:+.2}%)")).unwrap_or_default();
            out.push(format!(
                "{:9} {loc}{}: {} -> {}{delta}",
                d.verdict.name().to_uppercase(),
                d.metric,
                d.a.as_deref().unwrap_or("-"),
                d.b.as_deref().unwrap_or("-"),
            ));
        }
        out
    }
}

/// Direction of a metric: `Some(true)` = lower is better, `Some(false)`
/// = higher is better, `None` = no preferred direction.
fn lower_is_better(metric: &str) -> Option<bool> {
    // Strip the artifact section (counters./gauges.) if present.
    let name = metric.strip_prefix("counters.").or_else(|| metric.strip_prefix("gauges.")).unwrap_or(metric);
    if name == "sim.cycles"
        || name == "sim.avg_finish"
        || name == "sim.fault_overhead_cycles"
        || name.starts_with("sim.vm_finish")
        || (name.starts_with("vm.") && name.ends_with(".finish_cycles"))
        || name.starts_with("energy.")
        || name.starts_with("attr.energy.")
        || name.starts_with("attr.lat.")
        || name.starts_with("noc.contention")
    {
        return Some(true);
    }
    if name == "sim.throughput" || name == "sim.dedup_savings" || name.ends_with("hit_rate") {
        return Some(false);
    }
    None
}

/// Flattens a JSON document to `(dotted path, raw token, is_float)`
/// leaves, skipping the embedded `manifest` subtree (provenance is
/// compared separately, not metric-by-metric).
fn flatten(v: &Value, prefix: &str, top: bool, out: &mut Vec<(String, String, bool)>) {
    match v {
        Value::Obj(fields) => {
            for (k, val) in fields {
                if top && k == "manifest" {
                    continue;
                }
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(val, &path, false, out);
            }
        }
        Value::Arr(items) => {
            for (i, val) in items.iter().enumerate() {
                flatten(val, &format!("{prefix}[{i}]"), false, out);
            }
        }
        Value::Num(raw) => {
            let is_float = raw.contains(['.', 'e', 'E']);
            out.push((prefix.to_string(), raw.clone(), is_float));
        }
        Value::Str(s) => out.push((prefix.to_string(), format!("\"{s}\""), false)),
        Value::Bool(b) => out.push((prefix.to_string(), b.to_string(), false)),
        Value::Null => out.push((prefix.to_string(), "null".to_string(), false)),
    }
}

fn judge(metric: &str, a: &str, b: &str, float_class: bool, opts: &CompareOptions) -> (Verdict, Option<f64>) {
    if a == b {
        return (Verdict::Identical, Some(0.0));
    }
    let (na, nb) = (a.parse::<f64>().ok(), b.parse::<f64>().ok());
    let (Some(na), Some(nb)) = (na, nb) else {
        return (Verdict::Changed, None);
    };
    let delta_pct = if na != 0.0 { Some((nb - na) / na * 100.0) } else { None };
    if float_class && opts.tolerance > 0.0 {
        let scale = na.abs().max(nb.abs());
        if (nb - na).abs() <= opts.tolerance * scale {
            return (Verdict::Identical, delta_pct);
        }
    }
    let verdict = match lower_is_better(metric) {
        Some(true) => {
            if nb < na {
                Verdict::Improved
            } else {
                Verdict::Regressed
            }
        }
        Some(false) => {
            if nb > na {
                Verdict::Improved
            } else {
                Verdict::Regressed
            }
        }
        None => Verdict::Changed,
    };
    (verdict, delta_pct)
}

/// Compares two artifact documents (already parsed). `file` labels the
/// diffs for matrix comparisons.
pub fn compare_docs(
    a: &Value,
    b: &Value,
    file: Option<&str>,
    opts: &CompareOptions,
    report: &mut CompareReport,
) {
    let mut la = Vec::new();
    let mut lb = Vec::new();
    flatten(a, "", true, &mut la);
    flatten(b, "", true, &mut lb);

    let mut any_diff = false;
    let index_b: std::collections::BTreeMap<&str, (&str, bool)> =
        lb.iter().map(|(p, t, f)| (p.as_str(), (t.as_str(), *f))).collect();
    let index_a: std::collections::BTreeSet<&str> = la.iter().map(|(p, _, _)| p.as_str()).collect();

    for (path, tok_a, float_a) in &la {
        report.compared += 1;
        match index_b.get(path.as_str()) {
            Some(&(tok_b, float_b)) => {
                let (verdict, delta_pct) =
                    judge(path, tok_a, tok_b, *float_a || float_b, opts);
                if verdict == Verdict::Identical {
                    // Byte-equal or within tolerance: counted, not listed.
                    report.identical += 1;
                } else {
                    any_diff = true;
                    report.diffs.push(MetricDiff {
                        file: file.map(str::to_string),
                        metric: path.clone(),
                        a: Some(tok_a.clone()),
                        b: Some(tok_b.to_string()),
                        delta_pct,
                        verdict,
                    });
                }
            }
            None => {
                any_diff = true;
                report.diffs.push(MetricDiff {
                    file: file.map(str::to_string),
                    metric: path.clone(),
                    a: Some(tok_a.clone()),
                    b: None,
                    delta_pct: None,
                    verdict: Verdict::MissingB,
                });
            }
        }
    }
    for (path, tok_b, _) in &lb {
        if !index_a.contains(path.as_str()) {
            report.compared += 1;
            any_diff = true;
            report.diffs.push(MetricDiff {
                file: file.map(str::to_string),
                metric: path.clone(),
                a: None,
                b: Some(tok_b.clone()),
                delta_pct: None,
                verdict: Verdict::MissingA,
            });
        }
    }

    // Same declared identity but different content → the simulator (or
    // the artifact pipeline) broke its determinism contract.
    if any_diff {
        if let (Some(ma), Some(mb)) = (manifest_of(a), manifest_of(b)) {
            if ma.run_id == mb.run_id {
                report.determinism_violation = true;
            }
        }
    }
}

/// Compares two artifact files or two directories of artifact files
/// (matrix runs; files are paired by name). Only a directory's own
/// `.json` files are read, not its subdirectories, so the wall-clock
/// files that `cmpsim-cli --out-dir D` keeps in `D/host/` never fail a
/// comparison of two runs.
pub fn compare_paths(
    a: &std::path::Path,
    b: &std::path::Path,
    opts: &CompareOptions,
) -> Result<CompareReport, String> {
    let mut report = CompareReport {
        a_label: a.display().to_string(),
        b_label: b.display().to_string(),
        ..Default::default()
    };
    if a.is_dir() != b.is_dir() {
        return Err("compare: A and B must both be files or both be directories".to_string());
    }
    if !a.is_dir() {
        let da = parse_file(a)?;
        let db = parse_file(b)?;
        compare_docs(&da, &db, None, opts, &mut report);
        return Ok(report);
    }

    let names_a = json_names(a)?;
    let names_b = json_names(b)?;
    for name in names_a.union(&names_b).collect::<std::collections::BTreeSet<_>>() {
        match (names_a.contains(name.as_str()), names_b.contains(name.as_str())) {
            (true, true) => {
                let da = parse_file(&a.join(name))?;
                let db = parse_file(&b.join(name))?;
                compare_docs(&da, &db, Some(name), opts, &mut report);
            }
            // The token must stay a valid JSON fragment (it is spliced
            // into the diff document verbatim), hence the inner quotes.
            (true, false) => report.diffs.push(MetricDiff {
                file: Some(name.clone()),
                metric: "<file>".to_string(),
                a: Some("\"present\"".to_string()),
                b: None,
                delta_pct: None,
                verdict: Verdict::MissingB,
            }),
            (false, _) => report.diffs.push(MetricDiff {
                file: Some(name.clone()),
                metric: "<file>".to_string(),
                a: None,
                b: Some("\"present\"".to_string()),
                delta_pct: None,
                verdict: Verdict::MissingA,
            }),
        }
    }
    Ok(report)
}

fn parse_file(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn json_names(dir: &std::path::Path) -> Result<std::collections::BTreeSet<String>, String> {
    let mut names = std::collections::BTreeSet::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") && entry.path().is_file() {
            names.insert(name);
        }
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_doc(cycles: u64, throughput: f64) -> Value {
        let mut counters = Value::object();
        counters.set("sim.cycles", Value::uint(cycles));
        counters.set("noc.flits", Value::uint(1000));
        let mut gauges = Value::object();
        gauges.set("sim.throughput", Value::float(throughput));
        let mut doc = Value::object();
        doc.set("counters", counters);
        doc.set("gauges", gauges);
        doc
    }

    fn run_compare(a: &Value, b: &Value, opts: &CompareOptions) -> CompareReport {
        let mut r = CompareReport::default();
        compare_docs(a, b, None, opts, &mut r);
        r
    }

    #[test]
    fn identical_docs_pass() {
        let opts = CompareOptions::default();
        let r = run_compare(&metrics_doc(500, 0.25), &metrics_doc(500, 0.25), &opts);
        assert!(r.passed(&opts));
        assert_eq!(r.diffs.len(), 0);
        assert_eq!(r.compared, 3);
        assert_eq!(r.identical, 3);
    }

    #[test]
    fn higher_cycles_is_a_regression() {
        let opts = CompareOptions::default();
        let r = run_compare(&metrics_doc(500, 0.25), &metrics_doc(550, 0.25), &opts);
        assert!(!r.passed(&opts));
        assert_eq!(r.diffs.len(), 1);
        assert_eq!(r.diffs[0].metric, "counters.sim.cycles");
        assert_eq!(r.diffs[0].verdict, Verdict::Regressed);
        assert!((r.diffs[0].delta_pct.unwrap() - 10.0).abs() < 1e-9);
        assert!(r.to_json(&opts).contains("\"counters.sim.cycles\""));
    }

    #[test]
    fn lower_cycles_improves_and_can_be_allowed() {
        let strict = CompareOptions::default();
        let lenient = CompareOptions { allow_improved: true, ..Default::default() };
        let r = run_compare(&metrics_doc(500, 0.25), &metrics_doc(450, 0.25), &strict);
        assert_eq!(r.diffs[0].verdict, Verdict::Improved);
        assert!(!r.passed(&strict));
        assert!(r.passed(&lenient));
    }

    #[test]
    fn float_tolerance_applies_to_gauges_only() {
        let opts = CompareOptions { tolerance: 0.01, ..Default::default() };
        // Throughput off by 0.4% → tolerated; cycles off by 1 → exact class, fails.
        let r = run_compare(&metrics_doc(500, 0.250), &metrics_doc(500, 0.251), &opts);
        assert!(r.passed(&opts), "{:?}", r.diffs);
        let r = run_compare(&metrics_doc(500, 0.25), &metrics_doc(501, 0.25), &opts);
        assert!(!r.passed(&opts));
    }

    #[test]
    fn missing_metric_is_reported() {
        let opts = CompareOptions::default();
        let mut b = metrics_doc(500, 0.25);
        b.set("extra", Value::uint(1));
        let r = run_compare(&metrics_doc(500, 0.25), &b, &opts);
        assert_eq!(r.diffs.len(), 1);
        assert_eq!(r.diffs[0].verdict, Verdict::MissingA);
        assert_eq!(r.diffs[0].metric, "extra");
    }

    #[test]
    fn same_run_id_with_diffs_is_a_determinism_violation() {
        use crate::manifest::RunManifest;
        use crate::SystemConfig;
        let m = RunManifest::new(
            cmpsim_protocols::ProtocolKind::DiCo,
            cmpsim_workloads::Benchmark::Apache,
            &SystemConfig::smoke(),
        );
        let render = |doc: &Value| {
            let mut s = String::new();
            doc.render_to(&mut s);
            m.stamp(&s).unwrap()
        };
        let a = Value::parse(&render(&metrics_doc(500, 0.25))).unwrap();
        let b = Value::parse(&render(&metrics_doc(999, 0.25))).unwrap();
        let opts = CompareOptions::default();
        let r = run_compare(&a, &b, &opts);
        assert!(r.determinism_violation);
        assert!(!r.passed(&opts));
    }
}
