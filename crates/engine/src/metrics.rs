//! Hierarchically named metrics registry.
//!
//! Every quantity the simulator reports flows through one of three
//! primitive shapes defined in [`crate::stats`]: monotonic counters,
//! scalar gauges, and power-of-two histograms. This module adds the
//! *naming* layer on top: a [`MetricsRegistry`] maps dotted names
//! (`noc.messages`, `proto.miss_latency`, `energy.cache.l1_tag`) to
//! values and hands them back in name order.
//!
//! Components accumulate into their own typed stat structs (the
//! allocation-free hot-path accumulators), implement [`MetricSource`]
//! and copy their finished numbers into the registry at reporting time
//! under a caller-chosen prefix. The registry renders nothing itself:
//! `cmpsim` builds the `T.metrics.json` document from its iterators.

use crate::stats::Log2Hist;
use std::collections::BTreeMap;

/// A named collection of counters, gauges, and histograms.
///
/// Names are dotted paths; one name holds one shape (writing a name as
/// a second kind panics). All iteration orders are by name, so output
/// is deterministic regardless of publication order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Log2Hist>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics when `name` is held by a kind other than `kind` (the
    /// index of its map: counters, gauges, histograms).
    fn claim(&self, name: &str, kind: usize) {
        let held = [
            self.counters.contains_key(name),
            self.gauges.contains_key(name),
            self.hists.contains_key(name),
        ];
        let clash = held.iter().enumerate().any(|(k, &h)| h && k != kind);
        assert!(!clash, "metric `{name}` already registered with a different kind");
    }

    /// Sets counter `name` to the absolute value `v`.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.claim(name, 0);
        self.counters.insert(name.to_string(), v);
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.claim(name, 1);
        self.gauges.insert(name.to_string(), v);
    }

    /// Merges `h` into histogram `name`.
    pub fn merge_hist(&mut self, name: &str, h: &Log2Hist) {
        self.claim(name, 2);
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// Number of registered metrics across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(n, &v)| (n.as_str(), v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(n, &v)| (n.as_str(), v))
    }

    /// Histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Log2Hist)> + '_ {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }
}

/// A component that can copy its accumulated statistics into a registry
/// under a dotted `prefix` (e.g. `"noc"` → `noc.messages`, ...).
pub trait MetricSource {
    /// Writes this component's metrics into `reg`, each name prefixed
    /// with `prefix` and a dot.
    fn publish(&self, prefix: &str, reg: &mut MetricsRegistry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let mut r = MetricsRegistry::new();
        r.set_counter("x", 1);
        r.set_gauge("x", 1.0);
    }

    #[test]
    fn publish_style_writes() {
        let mut r = MetricsRegistry::new();
        r.set_counter("noc.messages", 42);
        r.set_counter("noc.messages", 43);
        r.set_gauge("noc.util", 0.25);
        let mut h = Log2Hist::new();
        h.record(8);
        r.merge_hist("noc.latency", &h);
        r.merge_hist("noc.latency", &h);
        assert_eq!(r.counters().collect::<Vec<_>>(), vec![("noc.messages", 43)]);
        let (_, lat) = r.hists().next().unwrap();
        assert_eq!(lat.summary().count(), 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn iteration_is_by_name() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.set_counter("b.two", 2);
        r.set_counter("a.one", 1);
        r.set_gauge("d.g", 1.5);
        r.set_gauge("c.g", 0.5);
        let names: Vec<_> =
            r.counters().map(|(n, _)| n).chain(r.gauges().map(|(n, _)| n)).collect();
        assert_eq!(names, ["a.one", "b.two", "c.g", "d.g"]);
    }
}
