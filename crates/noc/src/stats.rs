//! Traffic statistics exported to the power model and the reports.
//!
//! `NocStats` is built entirely from the `cmpsim_engine::stats`
//! primitives (the workspace's one source of truth for counter shapes)
//! and publishes into the unified [`MetricsRegistry`] via
//! [`MetricSource`].

use cmpsim_engine::metrics::{MetricSource, MetricsRegistry};
use cmpsim_engine::stats::{Counter, Running};

/// Publishes a [`Running`] under `prefix` as a count counter plus
/// mean/min/max gauges (min/max omitted when the series is empty).
pub fn publish_running(r: &Running, prefix: &str, reg: &mut MetricsRegistry) {
    reg.set_counter(&format!("{prefix}.count"), r.count());
    reg.set_gauge(&format!("{prefix}.mean"), r.mean());
    if let Some(v) = r.min() {
        reg.set_gauge(&format!("{prefix}.min"), v as f64);
    }
    if let Some(v) = r.max() {
        reg.set_gauge(&format!("{prefix}.max"), v as f64);
    }
}

/// Raw NoC activity counts for one simulation.
///
/// `routing_events` and `flit_link_traversals` are the two inputs of the
/// paper's network energy model (§V-A): each routing event costs as much
/// energy as one L1 block read, i.e. four flit transmissions.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Messages injected (unicast + broadcast roots).
    pub messages: Counter,
    /// Broadcast operations.
    pub broadcasts: Counter,
    /// Deliveries where source == destination tile (no network use).
    pub local_deliveries: Counter,
    /// Router traversals (one per link hop per message).
    pub routing_events: Counter,
    /// Flit x link traversals (bandwidth use).
    pub flit_link_traversals: Counter,
    /// Cycles lost to link contention across all messages.
    pub contention_cycles: Counter,
    /// Links traversed per unicast message.
    pub links_per_message: Running,
    /// End-to-end latency per unicast message.
    pub message_latency: Running,
    /// Per-destination delivery latency of broadcast/tree deliveries
    /// (one record per reached tile). Kept separate from the unicast
    /// `message_latency` so the two populations aren't conflated.
    pub broadcast_latency: Running,
}

impl MetricSource for NocStats {
    fn publish(&self, prefix: &str, reg: &mut MetricsRegistry) {
        let c = [
            ("messages", &self.messages),
            ("broadcasts", &self.broadcasts),
            ("local_deliveries", &self.local_deliveries),
            ("routing_events", &self.routing_events),
            ("flit_link_traversals", &self.flit_link_traversals),
            ("contention_cycles", &self.contention_cycles),
        ];
        for (name, counter) in c {
            reg.set_counter(&format!("{prefix}.{name}"), counter.get());
        }
        publish_running(&self.links_per_message, &format!("{prefix}.links_per_message"), reg);
        publish_running(&self.message_latency, &format!("{prefix}.message_latency"), reg);
        publish_running(&self.broadcast_latency, &format!("{prefix}.broadcast_latency"), reg);
    }
}

cmpsim_engine::impl_snap!(NocStats {
    messages,
    broadcasts,
    local_deliveries,
    routing_events,
    flit_link_traversals,
    contention_cycles,
    links_per_message,
    message_latency,
    broadcast_latency,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_into_registry() {
        let mut s = NocStats::default();
        s.messages.add(9);
        s.message_latency.record(15);
        let mut reg = MetricsRegistry::new();
        s.publish("noc", &mut reg);
        let counters: std::collections::BTreeMap<_, _> = reg.counters().collect();
        assert_eq!(counters["noc.messages"], 9);
        assert_eq!(counters["noc.message_latency.count"], 1);
        let gauges: std::collections::BTreeMap<_, _> = reg.gauges().collect();
        assert_eq!(gauges["noc.message_latency.max"], 15.0);
        // Empty series publish no min/max (None, not a fake 0).
        assert!(!gauges.contains_key("noc.links_per_message.min"));
    }
}
