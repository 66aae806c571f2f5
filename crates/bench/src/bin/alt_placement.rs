//! The "-alt" study (paper Figure 6 + §V-C/§V-D): VMs shifted so every
//! VM straddles two areas. The paper reports no significant performance
//! change and only a logical increase in DiCo-Arin broadcast traffic.

use cmpsim::report::table;
use cmpsim::{run_matrix, Benchmark, Placement, ProtocolKind, RunOptions};
use cmpsim_bench::report_config;

fn main() {
    let cfg = report_config();
    let benchmarks = [Benchmark::Apache, Benchmark::Radix];
    let protocols = ProtocolKind::all();

    let matched = run_matrix(&protocols, &benchmarks, &cfg, RunOptions::default()).expect("simulation failed");
    let alt = run_matrix(
        &protocols,
        &benchmarks,
        &cfg.clone().with_placement(Placement::Alternative),
        RunOptions::default(),
    )
    .expect("simulation failed");

    println!("== Alternative VM placement (paper Figure 6, '-alt' results) ==\n");
    let mut rows = Vec::new();
    for (bi, b) in benchmarks.iter().enumerate() {
        for (pi, p) in protocols.iter().enumerate() {
            let m = &matched[bi * protocols.len() + pi];
            let a = &alt[bi * protocols.len() + pi];
            rows.push(vec![
                format!("{}{}", b.name(), ""),
                p.name().to_string(),
                format!("{:.3}", a.performance() / m.performance()),
                format!("{:.3}", a.total_dynamic_nj() / m.total_dynamic_nj()),
                format!("{} -> {}", m.proto_stats.broadcast_invs.get(), a.proto_stats.broadcast_invs.get()),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["benchmark", "protocol", "perf alt/matched", "energy alt/matched", "broadcasts"],
            &rows
        )
    );
    println!(
        "Paper: no significant performance change in any protocol; DiCo-Arin\n\
         broadcasts grow (read/write data now shared between areas); the\n\
         proposals keep consuming less power than the directory."
    );
}
