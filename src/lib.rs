//! Workspace façade crate: hosts the runnable examples (`examples/`) and
//! the cross-crate integration tests (`tests/`). The library surface
//! re-exports the simulator crate, plus the examples' argument helper.

pub use cmpsim;

/// The examples' optional first argument, a per-core reference budget
/// (`default` when absent). Anything but an integer >= 1 prints an
/// `error:` line and exits 2, rather than silently running the default.
pub fn refs_arg(default: u64) -> u64 {
    let Some(arg) = std::env::args().nth(1) else { return default };
    match arg.parse() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("error: bad refs_per_core {arg:?} (want an integer >= 1)");
            std::process::exit(2);
        }
    }
}
