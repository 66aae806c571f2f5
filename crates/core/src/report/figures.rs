//! Figures 7, 8a, 8b, 9a and 9b, the §V-D hop and latency summaries
//! and the raw CSV export, all from one (benchmark x protocol) sweep
//! (`cmpsim-cli figures`).

use super::{table, Runner};
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::result::RunResult;
use cmpsim_protocols::{MissClass, ProtocolKind};
use cmpsim_workloads::Benchmark;

/// All results for the standard sweep, row-major `benchmarks x protocols`.
pub struct Sweep {
    /// Benchmarks, in Table IV order.
    pub benchmarks: Vec<Benchmark>,
    /// Protocols, in the paper's order.
    pub protocols: Vec<ProtocolKind>,
    /// Results.
    pub results: Vec<RunResult>,
}

impl Sweep {
    /// Runs the full paper matrix under `cfg` through `run`.
    pub fn run(cfg: &SystemConfig, run: &mut Runner) -> Result<Self, SimError> {
        let benchmarks = Benchmark::all().to_vec();
        let protocols = ProtocolKind::all().to_vec();
        let results = run(&protocols, &benchmarks, cfg.clone(), "")?;
        Ok(Self { benchmarks, protocols, results })
    }

    /// Result for `(benchmark row, protocol column)`.
    pub fn at(&self, b: usize, p: usize) -> &RunResult {
        &self.results[b * self.protocols.len() + p]
    }

    fn header(&self) -> Vec<String> {
        let mut h = vec!["benchmark".to_string()];
        h.extend(self.protocols.iter().map(|p| p.name().to_string()));
        h
    }

    fn fmt_table(&self, rows: Vec<Vec<String>>) -> String {
        let header = self.header();
        let refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        table(&refs, &rows)
    }

    /// Figure 7 — total dynamic power (cache + network), normalized to
    /// the directory's **cache** consumption per the paper's caption.
    pub fn figure7(&self) -> String {
        let mut out = String::from(
            "== Figure 7: total dynamic power, normalized to the directory's cache power ==\n\
             (each cell: total | cache + link + routing shares)\n\n",
        );
        let mut rows = Vec::new();
        for (bi, b) in self.benchmarks.iter().enumerate() {
            let base = self.at(bi, 0).cache_energy.total();
            let mut row = vec![b.name().to_string()];
            for pi in 0..self.protocols.len() {
                let r = self.at(bi, pi);
                row.push(format!(
                    "{:.2} ({:.2}c+{:.2}l+{:.2}r)",
                    r.total_dynamic_nj() / base,
                    r.cache_energy.total() / base,
                    r.net_energy.links / base,
                    r.net_energy.routing / base,
                ));
            }
            rows.push(row);
        }
        out += &self.fmt_table(rows);
        out += "\nPaper: every proposal below the directory; up to -38% in apache;\n\
                DiCo-Arin's broadcasts make JBB its worst case (-4%).\n";
        out
    }

    /// Figure 8a — cache dynamic power breakdown.
    pub fn figure8a(&self) -> String {
        let mut out = String::from(
            "== Figure 8a: cache dynamic power, normalized to directory ==\n\
             (each cell: total | l1tag/l1data/l2tag/l2data/aux shares)\n\n",
        );
        let mut rows = Vec::new();
        for (bi, b) in self.benchmarks.iter().enumerate() {
            let base = self.at(bi, 0).cache_energy.total();
            let mut row = vec![b.name().to_string()];
            for pi in 0..self.protocols.len() {
                let e = &self.at(bi, pi).cache_energy;
                row.push(format!(
                    "{:.2} ({:.2}/{:.2}/{:.2}/{:.2}/{:.2})",
                    e.total() / base,
                    e.l1_tag / base,
                    e.l1_data / base,
                    e.l2_tag / base,
                    e.l2_data / base,
                    e.aux / base,
                ));
            }
            rows.push(row);
        }
        out += &self.fmt_table(rows);
        out += "\nPaper: DiCo-family tag accesses cost more at L1 (embedded directory\n\
                info) but less at L2 (smaller entries); L2 reads are rarer.\n";
        out
    }

    /// Figure 8b — network dynamic power breakdown.
    pub fn figure8b(&self) -> String {
        let mut out = String::from(
            "== Figure 8b: network dynamic power, normalized to directory ==\n\
             (each cell: total | links + routing shares)\n\n",
        );
        let mut rows = Vec::new();
        for (bi, b) in self.benchmarks.iter().enumerate() {
            let base = self.at(bi, 0).net_energy.total();
            let mut row = vec![b.name().to_string()];
            for pi in 0..self.protocols.len() {
                let e = &self.at(bi, pi).net_energy;
                row.push(format!(
                    "{:.2} ({:.2}l+{:.2}r)",
                    e.total() / base,
                    e.links / base,
                    e.routing / base,
                ));
            }
            rows.push(row);
        }
        out += &self.fmt_table(rows);
        out += "\nPaper: DiCo reduces network power vs the directory; providers reduce\n\
                it further; DiCo-Arin's broadcasts close the gap in JBB.\n";
        out
    }

    /// Figure 9a — performance normalized to the directory.
    pub fn figure9a(&self) -> String {
        let mut out =
            String::from("== Figure 9a: performance, normalized to directory (bigger is better) ==\n\n");
        let mut rows = Vec::new();
        for (bi, b) in self.benchmarks.iter().enumerate() {
            let base = self.at(bi, 0).performance();
            let mut row = vec![b.name().to_string()];
            for pi in 0..self.protocols.len() {
                row.push(format!("{:.3}", self.at(bi, pi).performance() / base));
            }
            rows.push(row);
        }
        out += &self.fmt_table(rows);
        out += "\nPaper: +3% (DiCo-Providers) and +6% (DiCo-Arin) in apache; -2%\n\
                (DiCo-Arin) in JBB; no significant degradation elsewhere.\n";
        out
    }

    /// Figure 9b — L1 miss classification (per protocol, per benchmark).
    pub fn figure9b(&self) -> String {
        let mut out = String::from(
            "== Figure 9b: L1 misses by resolution class (fractions) ==\n\n",
        );
        for (bi, b) in self.benchmarks.iter().enumerate() {
            out += &format!("{}\n", b.name());
            let mut rows = Vec::new();
            for (pi, p) in self.protocols.iter().enumerate() {
                let r = self.at(bi, pi);
                let mut row = vec![p.name().to_string()];
                for class in MissClass::all() {
                    row.push(format!("{:.3}", r.miss_class_frac(class)));
                }
                rows.push(row);
            }
            let mut header = vec!["protocol"];
            let labels: Vec<&str> = MissClass::all().iter().map(|c| c.label()).collect();
            header.extend(labels.iter());
            out += &table(&header, &rows);
            out += "\n";
        }
        out += "Paper: a significant share of requests resolve at in-area providers\n\
                (21% for apache under DiCo-Providers); predictions mostly succeed.\n";
        out
    }

    /// Machine-readable export: one CSV row per (benchmark, protocol)
    /// with every metric the figures use. Feed it to any plotting tool.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "benchmark,protocol,cycles,measured_refs,throughput,performance,\
             l1_miss_rate,l2_miss_rate,cache_nj,net_links_nj,net_routing_nj,\
             links_per_msg,broadcasts,pred_owner,pred_provider,pred_failed,\
             unpred_home,unpred_forwarded,memory
",
        );
        for (bi, b) in self.benchmarks.iter().enumerate() {
            for (pi, p) in self.protocols.iter().enumerate() {
                let r = self.at(bi, pi);
                use MissClass as M;
                out += &format!(
                    "{},{},{},{},{:.6},{:.6e},{:.4},{:.4},{:.1},{:.1},{:.1},{:.3},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}
",
                    b.name(),
                    p.name(),
                    r.cycles,
                    r.measured_refs,
                    r.throughput(),
                    r.performance(),
                    r.l1_miss_rate(),
                    r.l2_miss_rate(),
                    r.cache_energy.total(),
                    r.net_energy.links,
                    r.net_energy.routing,
                    r.avg_links_per_message(),
                    r.proto_stats.broadcast_invs.get(),
                    r.miss_class_frac(M::PredictedOwnerHit),
                    r.miss_class_frac(M::PredictedProviderHit),
                    r.miss_class_frac(M::PredictionFailed),
                    r.miss_class_frac(M::UnpredictedHome),
                    r.miss_class_frac(M::UnpredictedForwarded),
                    r.miss_class_frac(M::Memory),
                );
            }
        }
        out
    }

    /// §V-D hop statistics: average links per message.
    pub fn hop_summary(&self) -> String {
        let mut out = String::from("== Links traversed per message (paper §V-D) ==\n\n");
        let mut rows = Vec::new();
        for (bi, b) in self.benchmarks.iter().enumerate() {
            let mut row = vec![b.name().to_string()];
            for pi in 0..self.protocols.len() {
                row.push(format!("{:.2}", self.at(bi, pi).avg_links_per_message()));
            }
            rows.push(row);
        }
        out += &self.fmt_table(rows);
        out
    }

    /// §V-D miss-latency statistics (avg | p95 cycles).
    pub fn latency_summary(&self) -> String {
        let mut out = String::from(
            "== Average (p95) L1-miss latency in cycles (paper §V-D) ==\n\n",
        );
        let mut rows = Vec::new();
        for (bi, b) in self.benchmarks.iter().enumerate() {
            let mut row = vec![b.name().to_string()];
            for pi in 0..self.protocols.len() {
                let r = self.at(bi, pi);
                row.push(format!(
                    "{:.0} ({})",
                    r.avg_miss_latency(),
                    r.miss_latency_percentile(95.0)
                ));
            }
            rows.push(row);
        }
        out += &self.fmt_table(rows);
        out
    }
}
