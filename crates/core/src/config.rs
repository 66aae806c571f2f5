//! Whole-system configuration (paper Table III defaults).

use cmpsim_engine::FaultPlan;
use cmpsim_noc::NocConfig;
use cmpsim_protocols::common::{ChipSpec, MAX_AREAS, MAX_TILES};
use cmpsim_virt::Placement;

/// Everything a simulation run needs besides the protocol and workload.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Chip description (tiles, areas, cache geometries, latencies).
    pub chip: ChipSpec,
    /// Mesh parameters.
    pub noc: NocConfig,
    /// Virtual machines (one per area in the paper).
    pub num_vms: usize,
    /// VM-to-tile placement.
    pub placement: Placement,
    /// Memory controllers along the chip borders.
    pub mem_controllers: usize,
    /// DRAM latency in cycles (Table III: 300 + on-chip delay).
    pub mem_latency: u64,
    /// Bound of the small random extra DRAM delay.
    pub mem_jitter: u64,
    /// Controller service (occupancy) time per request, cycles.
    pub mem_service: u64,
    /// References each core executes.
    pub refs_per_core: u64,
    /// Fraction of references treated as warm-up (stats reset after).
    pub warmup_frac: f64,
    /// RNG seed (workloads + jitter).
    pub seed: u64,
    /// Watchdog: hard cap on processed events before the run aborts with
    /// `SimError::Stalled`. `None` derives a generous bound from the
    /// reference budget (`refs_per_core * tiles * 600 + 5_000_000`).
    pub max_events: Option<u64>,
    /// Watchdog: abort with `SimError::Stalled` when no core retires a
    /// reference for this many consecutive cycles. Must exceed the worst
    /// legitimate gap (contended misses queue behind 300-cycle DRAM
    /// accesses); the default of one million cycles is far above it.
    pub stall_window: u64,
    /// Run the per-message coherence invariant checker (SWMR, forwarding
    /// bound, owner-pointer consistency at quiescence). Roughly an order
    /// of magnitude slower — a debugging tool, not a default.
    pub check_invariants: bool,
    /// Record the coherence-transaction trace (issue → lookup → forward
    /// → data → completion, with per-hop NoC latency) into a bounded
    /// ring buffer, exportable as Chrome trace-event JSON. Observability
    /// only: the simulated timing is identical with or without it.
    pub tracing: bool,
    /// Interval time-series sampling: every `N` cycles of the measured
    /// (post-warm-up) window, snapshot link utilization, cache
    /// occupancy, directory/owner-cache hit rates and dynamic+static
    /// energy. `None` disables sampling.
    pub sample_interval: Option<u64>,
    /// Per-transaction critical-path and energy attribution: decompose
    /// every miss into typed phases (summing exactly to its latency)
    /// and charge every dynamic-energy event to its causing
    /// transaction. Observability only: simulated timing is identical
    /// with or without it.
    pub attribution: bool,
    /// Deterministic fault-injection plan. `None` (the default) means
    /// the fault machinery is entirely inert: no RNG stream is created,
    /// no timeouts are armed, and the run is bit-identical to builds
    /// that predate fault injection. The plan is part of the replay
    /// artifact so faulty runs reproduce exactly.
    pub fault_plan: Option<FaultPlan>,
    /// Host wall-clock budget for one run, in milliseconds. When the
    /// budget is exceeded the event loop aborts with
    /// `SimError::Timeout` instead of holding its worker indefinitely
    /// (the sweep orchestrator's per-cell deadline). A *host*-side
    /// knob like the observability toggles: it is excluded from the
    /// canonical config JSON, the manifest `run_id` and the snapshot
    /// key, because a run that completes under a deadline is
    /// bit-identical to one without it.
    pub wall_deadline_ms: Option<u64>,
}

impl SystemConfig {
    /// The paper's 64-tile, 4-VM configuration with a reduced reference
    /// budget suitable for report generation on a laptop.
    pub fn paper() -> Self {
        Self {
            chip: ChipSpec::paper(),
            noc: NocConfig::default(),
            num_vms: 4,
            placement: Placement::Matched,
            mem_controllers: 8,
            mem_latency: 300,
            mem_jitter: 20,
            mem_service: 12,
            refs_per_core: 120_000,
            warmup_frac: 0.3,
            seed: 0xC0FFEE,
            max_events: None,
            stall_window: 1_000_000,
            check_invariants: false,
            tracing: false,
            sample_interval: None,
            attribution: false,
            fault_plan: None,
            wall_deadline_ms: None,
        }
    }

    /// A scaled-down 4x4-tile configuration for integration tests.
    pub fn small() -> Self {
        Self {
            chip: ChipSpec::small(),
            noc: NocConfig { cols: 4, rows: 4, ..NocConfig::default() },
            num_vms: 4,
            placement: Placement::Matched,
            mem_controllers: 4,
            mem_latency: 100,
            mem_jitter: 8,
            mem_service: 6,
            refs_per_core: 400,
            warmup_frac: 0.2,
            seed: 7,
            max_events: None,
            stall_window: 1_000_000,
            check_invariants: false,
            tracing: false,
            sample_interval: None,
            attribution: false,
            fault_plan: None,
            wall_deadline_ms: None,
        }
    }

    /// The smallest sensible run (doc tests / smoke tests).
    pub fn smoke() -> Self {
        Self { refs_per_core: 120, ..Self::small() }
    }

    /// Returns a copy with the alternative placement (paper "-alt").
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Returns a copy with a different reference budget.
    pub fn with_refs(mut self, refs: u64) -> Self {
        self.refs_per_core = refs;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a hard event budget (watchdog knob).
    pub fn with_event_budget(mut self, max_events: u64) -> Self {
        self.max_events = Some(max_events);
        self
    }

    /// Returns a copy with a different no-progress window (watchdog
    /// knob).
    pub fn with_stall_window(mut self, cycles: u64) -> Self {
        self.stall_window = cycles;
        self
    }

    /// Returns a copy with the per-message invariant checker enabled.
    pub fn with_invariant_checks(mut self) -> Self {
        self.check_invariants = true;
        self
    }

    /// Returns a copy with coherence-transaction tracing enabled.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Returns a copy with interval time-series sampling every `cycles`
    /// cycles of the measured window.
    pub fn with_interval(mut self, cycles: u64) -> Self {
        self.sample_interval = Some(cycles.max(1));
        self
    }

    /// Returns a copy with per-transaction critical-path and energy
    /// attribution enabled.
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// Returns a copy running under the given deterministic
    /// fault-injection plan (`None` disables injection).
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The effective event budget (explicit, or derived from the
    /// reference budget).
    pub fn event_budget(&self) -> u64 {
        self.max_events.unwrap_or(self.refs_per_core * self.tiles() as u64 * 600 + 5_000_000)
    }

    /// Tiles in the configuration.
    pub fn tiles(&self) -> usize {
        self.chip.tiles()
    }

    /// Mesh tile hosting memory controller `i`: controllers sit along
    /// the top and bottom borders, evenly spaced (Table III).
    pub fn mem_ctrl_tile(&self, i: usize) -> usize {
        let cols = self.noc.cols;
        let rows = self.noc.rows;
        let per_row = self.mem_controllers.div_ceil(2);
        let spread = |j: usize| j * cols / per_row + cols / (2 * per_row).max(1);
        if i < per_row {
            spread(i).min(cols - 1)
        } else {
            (rows - 1) * cols + spread(i - per_row).min(cols - 1)
        }
    }

    /// Controller that owns `block`.
    pub fn mem_ctrl_of(&self, block: u64) -> usize {
        (block % self.mem_controllers as u64) as usize
    }

    /// Refuses, naming the field, a configuration the simulator's
    /// constructors would assert on. Every preset passes; configs read
    /// from outside input (replay artifacts, sweep journals) are checked
    /// with this before anything is built from them.
    pub(crate) fn check(&self) -> Result<(), String> {
        let (a, noc) = (&self.chip.areas, &self.noc);
        let tiles = a.cols.checked_mul(a.rows).unwrap_or(0);
        if tiles == 0 || tiles > MAX_TILES {
            return Err(format!(
                "config.chip.areas: a {}x{} chip (want 1..={MAX_TILES} tiles)",
                a.cols, a.rows
            ));
        }
        let tiled = a.area_cols > 0
            && a.area_rows > 0
            && a.cols.is_multiple_of(a.area_cols)
            && a.rows.is_multiple_of(a.area_rows);
        if !tiled || a.num_areas() > MAX_AREAS {
            return Err(format!(
                "config.chip.areas: {}x{} areas do not tile the {}x{} chip (at most {MAX_AREAS})",
                a.area_cols, a.area_rows, a.cols, a.rows
            ));
        }
        if noc.cols.checked_mul(noc.rows) != Some(tiles) {
            return Err(format!(
                "config.noc: a {}x{} mesh does not match the chip's {tiles} tiles",
                noc.cols, noc.rows
            ));
        }
        if self.num_vms != 1 && self.num_vms != a.num_areas() {
            let areas = a.num_areas();
            return Err(format!("config.num_vms: {} (want 1 or {areas} VMs)", self.num_vms));
        }
        if !(1..=tiles).contains(&self.mem_controllers) {
            let n = self.mem_controllers;
            return Err(format!("config.mem_controllers: {n} (want 1..={tiles})"));
        }
        let c = &self.chip;
        for (name, g) in [("l1", c.l1), ("l2", c.l2), ("aux", c.aux), ("aux_home", c.aux_home)] {
            if !g.in_range() {
                return Err(format!("config.chip.{name}: geometry out of range ({g:?})"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let c = SystemConfig::paper();
        assert_eq!(c.tiles(), 64);
        assert_eq!(c.num_vms, 4);
        assert_eq!(c.mem_controllers, 8);
        assert_eq!(c.mem_latency, 300);
    }

    #[test]
    fn mem_ctrls_on_borders() {
        let c = SystemConfig::paper();
        for i in 0..8 {
            let t = c.mem_ctrl_tile(i);
            let row = t / 8;
            assert!(row == 0 || row == 7, "ctrl {i} tile {t} not on a border row");
        }
        // Top and bottom are both used.
        assert!((0..8).any(|i| c.mem_ctrl_tile(i) < 8));
        assert!((0..8).any(|i| c.mem_ctrl_tile(i) >= 56));
    }

    #[test]
    fn ctrl_mapping_covers_all() {
        let c = SystemConfig::paper();
        let mut seen = [false; 8];
        for b in 0..64u64 {
            seen[c.mem_ctrl_of(b)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn small_config_consistent() {
        let c = SystemConfig::small();
        assert_eq!(c.tiles(), 16);
        assert_eq!(c.noc.cols * c.noc.rows, 16);
        for i in 0..c.mem_controllers {
            assert!(c.mem_ctrl_tile(i) < 16);
        }
    }
}
