//! The paper's §III non-virtualized scenario: one application (one "VM")
//! uses all 64 cores across the 4 hard-wired areas. The claim: "the data
//! shared by several areas can still be accessed without leaving the
//! areas of the requestors, so we still have the benefits of shortened
//! misses ... and the power benefits of the smaller directory
//! entries", making the proposals attractive beyond server
//! consolidation.

use cmpsim::report::{pct_delta, table};
use cmpsim::{run_matrix, Benchmark, ProtocolKind, RunOptions, SystemConfig};
use cmpsim_bench::{obs_from_env, write_observability};

fn main() {
    let refs: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    let mut cfg = obs_from_env(SystemConfig::paper().with_refs(refs));
    cfg.num_vms = 1; // one application on all 64 cores; areas stay hard-wired
    println!("== Single application on all 64 cores (4 hard-wired areas) ==\n");
    let results =
        run_matrix(&ProtocolKind::all(), &[Benchmark::Apache], &cfg, RunOptions::default())
            .expect("simulation failed");
    for r in &results {
        write_observability(r, &r.protocol.name().to_lowercase());
    }
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
    println!(
        "{}",
        table(&["protocol", "perf vs dir", "energy vs dir", "links/msg", "bcasts"], &rows)
    );
    println!(
        "Expected: the proposals still beat the directory (owners stay near\n\
         their threads; providers shorten cross-area trips) — DiCo-Arin pays\n\
         broadcasts for the now chip-wide read/write shared data."
    );
}
