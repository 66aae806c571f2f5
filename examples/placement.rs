//! VM-placement study (paper Figure 6): what happens when the
//! hypervisor does *not* schedule each VM onto one hard-wired area and
//! every VM straddles two areas instead ("-alt"). The paper's claim: no
//! significant performance change — the owners stay inside the VM, and
//! providers start serving VM-private data too.
//!
//! ```text
//! cargo run --release --example placement [refs_per_core]
//! ```

use cmpsim::report::table;
use cmpsim::{run_benchmark, Benchmark, Placement, ProtocolKind, SystemConfig};

fn main() {
    let refs = cmpsim_suite::refs_arg(20_000);
    let base = SystemConfig::paper().with_refs(refs);

    println!("apache4x16p, matched vs alternative placement ({refs} refs/core)\n");
    let mut rows = Vec::new();
    for kind in [ProtocolKind::DiCoProviders, ProtocolKind::DiCoArin] {
        let matched = run_benchmark(kind, Benchmark::Apache, &base).expect("simulation failed");
        let alt = run_benchmark(
            kind,
            Benchmark::Apache,
            &base.clone().with_placement(Placement::Alternative),
        )
        .expect("simulation failed");
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.3}", alt.performance() / matched.performance()),
            format!("{:.3}", alt.total_dynamic_nj() / matched.total_dynamic_nj()),
            format!(
                "{} -> {}",
                matched.proto_stats.broadcast_invs.get(),
                alt.proto_stats.broadcast_invs.get()
            ),
            format!(
                "{:.2} -> {:.2}",
                matched.avg_links_per_message(),
                alt.avg_links_per_message()
            ),
        ]);
    }
    println!(
        "{}",
        table(
            &["protocol", "perf alt/matched", "energy alt/matched", "broadcasts", "links/msg"],
            &rows
        )
    );
    println!(
        "Expected (paper §V-D): ratios near 1.0 — performance holds even when\n\
         VMs span areas; DiCo-Arin shows extra broadcast traffic because\n\
         formerly VM-private read/write data is now shared between areas."
    );
}
