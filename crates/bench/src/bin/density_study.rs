//! The paper's closing projection (§V-D/§VI): "as the number of tiles
//! and VMs increases, this potential benefit should grow ... we expect
//! that as virtualization density increases, with tens of virtual
//! machines running in a single server, the advantages of our proposals
//! will become even more noticeable."
//!
//! This study raises the consolidation density on the 64-tile chip from
//! 4 VMs (16 cores each) to 16 VMs (4 cores each, 4-tile areas) and
//! compares the directory against the proposals at both densities.

use cmpsim::report::{pct_delta, table};
use cmpsim::{run_matrix, Benchmark, ProtocolKind, RunOptions, SystemConfig};
use cmpsim_protocols::common::ChipSpec;

fn main() {
    let refs: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let protocols = ProtocolKind::all();
    println!("== Virtualization-density study (apache, {refs} refs/core) ==\n");
    let mut rows = Vec::new();
    for (vms, label) in [(4usize, "4 VMs x 16 cores"), (16, "16 VMs x 4 cores")] {
        let cfg = SystemConfig {
            chip: ChipSpec::paper_with_areas(vms),
            num_vms: vms,
            ..SystemConfig::paper()
        }
        .with_refs(refs);
        let results =
            run_matrix(&protocols, &[Benchmark::Apache], &cfg, RunOptions::default())
                .expect("simulation failed");
        let base = &results[0];
        for (pi, p) in protocols.iter().enumerate() {
            let r = &results[pi];
            rows.push(vec![
                label.to_string(),
                p.name().to_string(),
                pct_delta(r.performance(), base.performance()),
                pct_delta(r.total_dynamic_nj(), base.total_dynamic_nj()),
                format!("{:.2}", r.avg_links_per_message()),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["density", "protocol", "perf vs dir", "energy vs dir", "links/msg"],
            &rows
        )
    );
    println!(
        "Paper projection (§VI): the advantages grow with density. Note that\n\
         in this synthetic setting the denser configuration also shrinks each\n\
         VM's cache share and dedup pool, which offsets part of the gain —\n\
         see EXPERIMENTS.md."
    );
}
