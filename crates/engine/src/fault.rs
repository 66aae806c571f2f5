//! Deterministic fault injection for the simulation transport layer.
//!
//! A [`FaultPlan`] describes a seeded schedule of point faults — message
//! delay spikes, within-link reordering, duplicate delivery, bounded
//! drops, and transient router outages over a cycle window. The
//! [`FaultEngine`] turns the plan into concrete per-delivery decisions
//! from a **standalone** [`SimRng`] stream (never forked from the
//! workload RNG), so enabling faults perturbs message timing only: the
//! synthetic reference streams, page placement, and memory jitter are
//! bit-identical with faults on or off.
//!
//! The engine is purely temporal: it knows about cycles, rates, and
//! routers, not about coherence messages. Message-aware policy (which
//! kinds are safe to drop, which requests carry retry sequence numbers,
//! which routes cross a downed router) lives in the driver that calls
//! [`FaultEngine::decide`].

use crate::rng::{splitmix64, SimRng};
use crate::Cycle;

/// The kinds of point faults the engine can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A delivery is delayed by a large latency spike.
    Delay,
    /// A delivery bypasses the link's FIFO ordering (chaos mode only).
    Reorder,
    /// A message is delivered twice.
    Duplicate,
    /// A message is silently dropped (bounded by the plan).
    Drop,
    /// A delivery was delayed by a transient router outage window.
    Outage,
}

impl FaultKind {
    /// All kinds, report order.
    pub fn all() -> [FaultKind; 5] {
        [
            FaultKind::Delay,
            FaultKind::Reorder,
            FaultKind::Duplicate,
            FaultKind::Drop,
            FaultKind::Outage,
        ]
    }

    /// Short static label for metrics and dumps.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Delay => "delay",
            FaultKind::Reorder => "reorder",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Drop => "drop",
            FaultKind::Outage => "outage",
        }
    }
}

/// Per-kind counts of faults actually fired (part of crash dumps, the
/// metrics registry, and the chaos harness report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Delay spikes applied.
    pub delays: u64,
    /// FIFO-order violations applied.
    pub reorders: u64,
    /// Duplicate deliveries injected.
    pub duplicates: u64,
    /// Messages dropped.
    pub drops: u64,
    /// Deliveries delayed by a router outage window.
    pub outage_hits: u64,
}

impl FaultStats {
    /// Total faults fired, all kinds.
    pub fn total(&self) -> u64 {
        self.delays + self.reorders + self.duplicates + self.drops + self.outage_hits
    }

    /// Count for one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::Delay => self.delays,
            FaultKind::Reorder => self.reorders,
            FaultKind::Duplicate => self.duplicates,
            FaultKind::Drop => self.drops,
            FaultKind::Outage => self.outage_hits,
        }
    }
}

/// A transient router outage: messages whose route crosses `tile`
/// while the window is open are held until it closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Router (tile index) that is down.
    pub tile: usize,
    /// First cycle of the window.
    pub start: Cycle,
    /// Last cycle of the window (inclusive).
    pub end: Cycle,
}

/// A seeded, fully deterministic fault-injection plan.
///
/// Two presets exist: [`FaultPlan::recoverable`] injects only faults the
/// protocol-level recovery machinery (timeout/retry + duplicate
/// suppression) provably masks, so a run under it must reach the
/// bit-identical architectural end state as the fault-free run.
/// [`FaultPlan::chaos`] additionally reorders messages within a link and
/// drops arbitrary message kinds — faults the protocols were never
/// designed to survive — to prove that every failure is *detected* and
/// surfaced as a typed error with a replayable crash dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the standalone fault RNG stream.
    pub seed: u64,
    /// Chaos mode: enables reordering and unrestricted drops.
    pub chaos: bool,
    /// Per-delivery probability of a latency spike.
    pub delay_rate: f64,
    /// Spike size is drawn uniformly from `[1, delay_max]` cycles.
    pub delay_max: Cycle,
    /// Per-delivery probability of duplicate delivery.
    pub duplicate_rate: f64,
    /// Per-delivery probability of a drop (gated by `max_drops`, and in
    /// recoverable mode by the driver's droppable-message policy).
    pub drop_rate: f64,
    /// Hard cap on total drops, so a retransmission eventually passes.
    pub max_drops: u64,
    /// Per-delivery probability of a FIFO-order violation (chaos only).
    pub reorder_rate: f64,
    /// Number of transient router outages to schedule.
    pub outages: u32,
    /// Length of each outage window in cycles.
    pub outage_len: Cycle,
    /// Outage windows start uniformly in `[0, outage_horizon)`.
    pub outage_horizon: Cycle,
    /// Base MSHR request timeout before the first retransmission.
    pub timeout: Cycle,
    /// Retransmissions allowed before the request aborts the run.
    pub retry_cap: u32,
}

impl FaultPlan {
    /// The recoverable preset: delay spikes, duplicates, router outages
    /// and a small bounded budget of drops that the driver restricts to
    /// retransmittable messages. Runs under this plan must end in the
    /// bit-identical architectural state as a fault-free run.
    pub fn recoverable(seed: u64) -> Self {
        Self {
            seed,
            chaos: false,
            delay_rate: 0.01,
            delay_max: 400,
            duplicate_rate: 0.005,
            drop_rate: 0.002,
            max_drops: 25,
            reorder_rate: 0.0,
            outages: 2,
            outage_len: 300,
            outage_horizon: 20_000,
            timeout: 4_000,
            retry_cap: 8,
        }
    }

    /// The chaos preset: everything in the recoverable preset plus
    /// message reordering and drops of arbitrary message kinds. Runs
    /// may legitimately wedge; the guarantee is a typed error and a
    /// replayable crash dump, never a panic or silent divergence.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            chaos: true,
            delay_rate: 0.02,
            delay_max: 800,
            duplicate_rate: 0.01,
            drop_rate: 0.004,
            max_drops: 40,
            reorder_rate: 0.01,
            outages: 3,
            outage_len: 500,
            outage_horizon: 20_000,
            timeout: 4_000,
            retry_cap: 8,
        }
    }

    /// Preset name ("recoverable" / "chaos") for dumps and reports.
    pub fn mode(&self) -> &'static str {
        if self.chaos {
            "chaos"
        } else {
            "recoverable"
        }
    }

    /// Parses a plan spec of the form `recoverable`, `chaos`,
    /// `recoverable@SEED` or `chaos@SEED` (seed defaults to 0).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (mode, seed) = match spec.split_once('@') {
            Some((m, s)) => {
                let seed: u64 =
                    s.parse().map_err(|_| format!("bad fault seed {s:?} in {spec:?}"))?;
                (m, seed)
            }
            None => (spec, 0),
        };
        match mode.to_ascii_lowercase().as_str() {
            "recoverable" => Ok(Self::recoverable(seed)),
            "chaos" => Ok(Self::chaos(seed)),
            other => Err(format!(
                "unknown fault mode {other:?} (expected recoverable[@seed] or chaos[@seed])"
            )),
        }
    }

    /// Spec string that round-trips through [`FaultPlan::parse`] for
    /// the two presets (`mode@seed`).
    pub fn spec(&self) -> String {
        format!("{}@{}", self.mode(), self.seed)
    }
}

/// The decision the engine hands the driver for one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    None,
    /// Delay the delivery by the given extra cycles.
    Delay(Cycle),
    /// Deliver twice (second copy after the given extra cycles).
    Duplicate(Cycle),
    /// Deliver bypassing the link's FIFO floor (chaos mode only).
    Reorder,
    /// Do not deliver at all.
    Drop,
}

/// Runtime state of one plan: the standalone RNG stream, the
/// pre-scheduled outage windows, the drop budget, and the fired-fault
/// counters.
#[derive(Debug, Clone)]
pub struct FaultEngine {
    plan: FaultPlan,
    rng: SimRng,
    outages: Vec<Outage>,
    drops_left: u64,
    stats: FaultStats,
    next_seq: u64,
}

impl FaultEngine {
    /// Builds the engine for `plan` on a chip with `tiles` routers,
    /// pre-scheduling the outage windows from the plan seed.
    pub fn new(plan: FaultPlan, tiles: usize) -> Self {
        // The outage schedule and the per-delivery stream are derived
        // from the plan seed through independent mixers so adding an
        // outage does not shift every later per-delivery draw.
        let mut sm = plan.seed ^ 0x9E3779B97F4A7C15;
        let mut sched = SimRng::new(splitmix64(&mut sm));
        let rng = SimRng::new(splitmix64(&mut sm));
        let mut outages = Vec::with_capacity(plan.outages as usize);
        for _ in 0..plan.outages {
            let tile = sched.gen_index(tiles.max(1));
            let start = sched.gen_range(plan.outage_horizon.max(1));
            outages.push(Outage { tile, start, end: start + plan.outage_len });
        }
        outages.sort_by_key(|o| (o.start, o.tile));
        let drops_left = plan.max_drops;
        Self { plan, rng, outages, drops_left, stats: FaultStats::default(), next_seq: 0 }
    }

    /// The plan this engine executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults fired so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The scheduled router outage windows.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Allocates the next retry sequence number (`>= 1`; 0 means
    /// "untracked" at the transport layer).
    pub fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Decides the fate of one delivery. `droppable` and `reorderable`
    /// are the driver's verdicts on whether losing or FIFO-bypassing
    /// this message fails safe (the driver widens them in chaos mode);
    /// reordering additionally requires the plan's chaos flag. The RNG
    /// draws are made unconditionally so the stream depends only on
    /// delivery order, never on message classification.
    pub fn decide(&mut self, droppable: bool, reorderable: bool) -> FaultDecision {
        let drop_roll = self.rng.gen_bool(self.plan.drop_rate);
        let dup_roll = self.rng.gen_bool(self.plan.duplicate_rate);
        let reorder_roll = self.rng.gen_bool(self.plan.reorder_rate);
        let delay_roll = self.rng.gen_bool(self.plan.delay_rate);
        let delay_amt = 1 + self.rng.gen_range(self.plan.delay_max.max(1));
        if drop_roll && self.drops_left > 0 && droppable {
            self.drops_left -= 1;
            self.stats.drops += 1;
            return FaultDecision::Drop;
        }
        if dup_roll {
            self.stats.duplicates += 1;
            return FaultDecision::Duplicate(delay_amt);
        }
        if reorder_roll && self.plan.chaos && reorderable {
            self.stats.reorders += 1;
            return FaultDecision::Reorder;
        }
        if delay_roll {
            self.stats.delays += 1;
            return FaultDecision::Delay(delay_amt);
        }
        FaultDecision::None
    }

    /// Records that a delivery was held by an outage window.
    pub fn record_outage_hit(&mut self) {
        self.stats.outage_hits += 1;
    }
}

crate::impl_snap!(FaultPlan {
    seed,
    chaos,
    delay_rate,
    delay_max,
    duplicate_rate,
    drop_rate,
    max_drops,
    reorder_rate,
    outages,
    outage_len,
    outage_horizon,
    timeout,
    retry_cap,
});

crate::impl_snap!(FaultStats { delays, reorders, duplicates, drops, outage_hits });

crate::impl_snap!(Outage { tile, start, end });

crate::impl_snap!(FaultEngine { plan, rng, outages, drops_left, stats, next_seq });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let p = FaultPlan::parse("recoverable@42").expect("parse");
        assert_eq!(p.seed, 42);
        assert!(!p.chaos);
        assert_eq!(FaultPlan::parse(&p.spec()).expect("round trip"), p);
        let c = FaultPlan::parse("chaos").expect("parse");
        assert!(c.chaos);
        assert_eq!(c.seed, 0);
        assert!(FaultPlan::parse("bogus@1").is_err());
        assert!(FaultPlan::parse("chaos@xyz").is_err());
    }

    #[test]
    fn decisions_are_deterministic() {
        let mk = || FaultEngine::new(FaultPlan::chaos(7), 16);
        let (mut a, mut b) = (mk(), mk());
        for i in 0..5000 {
            assert_eq!(a.decide(i % 3 == 0, i % 2 == 0), b.decide(i % 3 == 0, i % 2 == 0));
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.outages(), b.outages());
    }

    #[test]
    fn drop_budget_is_bounded() {
        let mut e = FaultEngine::new(FaultPlan::chaos(1), 16);
        for _ in 0..2_000_000 {
            e.decide(true, true);
        }
        assert_eq!(e.stats().drops, e.plan().max_drops);
    }

    #[test]
    fn recoverable_mode_never_reorders_or_drops_undroppable() {
        let mut e = FaultEngine::new(FaultPlan::recoverable(3), 16);
        for _ in 0..100_000 {
            let d = e.decide(false, true);
            assert!(!matches!(d, FaultDecision::Reorder | FaultDecision::Drop));
        }
        assert_eq!(e.stats().reorders, 0);
        assert_eq!(e.stats().drops, 0);
    }

    #[test]
    fn outages_scheduled_within_horizon() {
        let e = FaultEngine::new(FaultPlan::recoverable(9), 64);
        assert_eq!(e.outages().len(), 2);
        for o in e.outages() {
            assert!(o.tile < 64);
            assert!(o.start < e.plan().outage_horizon);
            assert_eq!(o.end, o.start + e.plan().outage_len);
        }
    }

    #[test]
    fn seq_allocation_starts_at_one() {
        let mut e = FaultEngine::new(FaultPlan::recoverable(0), 4);
        assert_eq!(e.alloc_seq(), 1);
        assert_eq!(e.alloc_seq(), 2);
    }

    #[test]
    fn faults_fire_at_roughly_the_configured_rates() {
        let mut e = FaultEngine::new(FaultPlan::recoverable(11), 16);
        let n = 200_000u64;
        for _ in 0..n {
            e.decide(true, true);
        }
        let s = e.stats();
        let delay_rate = s.delays as f64 / n as f64;
        assert!((delay_rate - 0.01).abs() < 0.003, "delay rate {delay_rate}");
        assert!(s.duplicates > 0);
        assert_eq!(s.drops, e.plan().max_drops, "rate * n >> budget");
        assert_eq!(s.total(), s.delays + s.duplicates + s.drops);
    }
}
