//! Coherence-transaction tracing.
//!
//! When [`SystemConfig::tracing`](crate::SystemConfig) is on, the
//! simulator tags every L1 miss with a transaction id and records its
//! lifecycle — issue, the request reaching the ordering point
//! (directory or owner lookup), forwards, data/ack responses, and
//! completion — into a bounded [`TraceRing`]. Every network message is
//! recorded as a span whose duration is its NoC delivery latency and
//! whose `links` argument is the hop count the mesh charged for it, so
//! the per-transaction hop totals reconcile exactly with the NoC's
//! `routing_events` counter (a property the integration tests assert).
//!
//! Tracing is observation-only: it allocates no events in the
//! simulation queue, never touches the RNG, and the simulated timing is
//! bit-identical with it on or off.

use crate::json::Value;
use cmpsim_engine::{trace::format_event, Cycle, TraceEvent, TraceRing};
use cmpsim_protocols::common::{Block, Tile};

/// Capacity of the trace ring, in events. When full, the oldest events
/// are dropped (and counted), keeping memory bounded on long runs while
/// preserving the tail.
pub const TRACE_CAPACITY: usize = 65_536;

/// One open (issued, not yet completed) transaction.
#[derive(Debug, Clone)]
struct OpenTx {
    id: u64,
    block: Block,
    write: bool,
    issued: Cycle,
    hops: u64,
    msgs: u64,
}

/// Assigns transaction ids to misses and records message spans into a
/// bounded ring. Owned by the simulator; only present when tracing is
/// enabled, so the disabled hot path is a single `Option` test.
#[derive(Debug, Clone)]
pub struct TxTracer {
    ring: TraceRing,
    /// Next transaction id (0 is reserved for untracked traffic).
    next_id: u64,
    /// The open transaction of each tile (a core has at most one
    /// outstanding miss, so tile indexes the open set exactly).
    open: Vec<Option<OpenTx>>,
    /// Link traversals attributed to an open transaction.
    tx_hops: u64,
    /// Link traversals with no open transaction on their block
    /// (writebacks, hints, evictions and other background traffic).
    untracked_hops: u64,
    /// Transactions completed since the last reset.
    completed: u64,
}

impl TxTracer {
    /// Creates a tracer for a `tiles`-tile chip with a ring of
    /// [`TRACE_CAPACITY`] events.
    pub fn new(tiles: usize) -> Self {
        Self {
            ring: TraceRing::new(TRACE_CAPACITY),
            next_id: 1,
            open: vec![None; tiles],
            tx_hops: 0,
            untracked_hops: 0,
            completed: 0,
        }
    }

    /// Records an L1 miss issuing at `now` on `tile`: opens a new
    /// transaction and returns its id.
    pub fn on_issue(&mut self, now: Cycle, tile: Tile, block: Block, write: bool) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open[tile] = Some(OpenTx { id, block, write, issued: now, hops: 0, msgs: 0 });
        id
    }

    /// Records one network message: a span `[depart, arrival)` on the
    /// track of `owner`'s open transaction (the tile whose transaction
    /// the message belongs to), charging its `links` hop count to that
    /// transaction — or to the untracked bucket when there is none.
    #[allow(clippy::too_many_arguments)]
    pub fn on_message(
        &mut self,
        owner: Option<Tile>,
        depart: Cycle,
        arrival: Cycle,
        name: &'static str,
        cat: &'static str,
        block: Block,
        src: Tile,
        dst: Tile,
        links: u64,
    ) {
        let tid = match owner.and_then(|t| self.open[t].as_mut()) {
            Some(tx) => {
                tx.hops += links;
                tx.msgs += 1;
                self.tx_hops += links;
                tx.id
            }
            None => {
                self.untracked_hops += links;
                0
            }
        };
        self.ring.push(TraceEvent {
            ts: depart,
            dur: arrival.saturating_sub(depart),
            name,
            cat,
            tid,
            args: [("block", block), ("src", src as u64), ("dst", dst as u64), ("links", links)],
        });
    }

    /// Records the completion at `now` of the transaction open on
    /// `tile`, emitting its whole-lifecycle span.
    pub fn on_completion(&mut self, now: Cycle, tile: Tile) {
        let Some(tx) = self.open[tile].take() else {
            return;
        };
        self.completed += 1;
        self.ring.push(TraceEvent {
            ts: tx.issued,
            dur: now.saturating_sub(tx.issued),
            name: if tx.write { "store-miss" } else { "load-miss" },
            cat: "tx",
            tid: tx.id,
            args: [
                ("block", tx.block),
                ("tile", tile as u64),
                ("hops", tx.hops),
                ("msgs", tx.msgs),
            ],
        });
    }

    /// Warm-up reset: discards buffered events and zeroes the hop
    /// accounting (mirroring the NoC stats reset), but keeps open
    /// transactions so misses straddling the boundary still complete.
    /// Their per-transaction accumulators restart too, so completed
    /// spans only ever report post-warm-up hops and the span sum stays
    /// reconcilable with `tx_hops`.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.tx_hops = 0;
        self.untracked_hops = 0;
        self.completed = 0;
        for tx in self.open.iter_mut().flatten() {
            tx.hops = 0;
            tx.msgs = 0;
        }
    }

    /// The last `n` events rendered as text lines (for stall dumps).
    pub fn tail_lines(&self, n: usize) -> Vec<String> {
        self.ring.tail(n).map(format_event).collect()
    }

    /// Finalizes the tracer into the exportable log.
    pub fn finish(self) -> TraceLog {
        let open = self.open.iter().filter(|o| o.is_some()).count() as u64;
        TraceLog {
            ring: self.ring,
            tx_hops: self.tx_hops,
            untracked_hops: self.untracked_hops,
            completed_txs: self.completed,
            open_txs: open,
        }
    }
}

/// The trace of one finished run.
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// The buffered events (tail of the run when the ring overflowed).
    pub ring: TraceRing,
    /// Post-warm-up link traversals attributed to a transaction.
    pub tx_hops: u64,
    /// Post-warm-up link traversals of background traffic.
    pub untracked_hops: u64,
    /// Transactions completed in the measured window.
    pub completed_txs: u64,
    /// Transactions still open at the end (0 on a clean drain).
    pub open_txs: u64,
}

impl TraceLog {
    /// All post-warm-up link traversals seen by the tracer; equals the
    /// NoC's `routing_events` counter.
    pub fn total_hops(&self) -> u64 {
        self.tx_hops + self.untracked_hops
    }

    /// The trace as a Chrome trace-event document (Perfetto /
    /// `chrome://tracing` loadable): a `process_name` metadata record,
    /// then one `"X"` complete event per buffered span in ring order,
    /// all on `pid` 0, and the ring's drop count under `otherData`.
    pub fn to_value(&self, process_name: &str) -> Value {
        let mut meta = Value::object();
        meta.set("ph", Value::string("M"));
        meta.set("pid", Value::uint(0));
        meta.set("name", Value::string("process_name"));
        let mut label = Value::object();
        label.set("name", Value::string(process_name));
        meta.set("args", label);
        let spans = self.ring.iter().map(|ev| {
            let mut j = Value::object();
            j.set("ph", Value::string("X"));
            j.set("pid", Value::uint(0));
            j.set("tid", Value::uint(ev.tid));
            j.set("ts", Value::uint(ev.ts));
            j.set("dur", Value::uint(ev.dur));
            j.set("cat", Value::string(ev.cat));
            j.set("name", Value::string(ev.name));
            let mut args = Value::object();
            for &(k, v) in &ev.args {
                args.set(k, Value::uint(v));
            }
            j.set("args", args);
            j
        });
        let mut other = Value::object();
        other.set("droppedEvents", Value::uint(self.ring.dropped()));
        let mut doc = Value::object();
        doc.set("displayTimeUnit", Value::string("ms"));
        doc.set("traceEvents", Value::Arr(std::iter::once(meta).chain(spans).collect()));
        doc.set("otherData", other);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_message_complete_lifecycle() {
        let mut t = TxTracer::new(4);
        let id = t.on_issue(10, 2, 0x40, false);
        assert_eq!(id, 1);
        t.on_message(Some(2), 10, 15, "GetS", "msg", 0x40, 2, 0, 3);
        t.on_message(Some(2), 15, 22, "Data", "msg", 0x40, 0, 2, 3);
        t.on_completion(22, 2);
        let log = t.finish();
        assert_eq!(log.completed_txs, 1);
        assert_eq!(log.open_txs, 0);
        assert_eq!(log.tx_hops, 6);
        assert_eq!(log.untracked_hops, 0);
        assert_eq!(log.ring.len(), 3);
        let tx = log.ring.iter().last().unwrap();
        assert_eq!(tx.cat, "tx");
        assert_eq!(tx.ts, 10);
        assert_eq!(tx.dur, 12);
        assert!(tx.args.contains(&("hops", 6)));
        assert!(tx.args.contains(&("msgs", 2)));
    }

    #[test]
    fn background_traffic_lands_on_track_zero() {
        let mut t = TxTracer::new(2);
        t.on_message(None, 5, 9, "WbData", "msg", 0x80, 1, 0, 2);
        let log = t.finish();
        assert_eq!(log.untracked_hops, 2);
        assert_eq!(log.tx_hops, 0);
        assert_eq!(log.ring.iter().next().unwrap().tid, 0);
    }

    #[test]
    fn reset_keeps_open_transactions() {
        let mut t = TxTracer::new(2);
        t.on_issue(1, 0, 0x40, false);
        t.on_message(Some(0), 1, 4, "GetS", "msg", 0x40, 0, 1, 2);
        t.reset();
        assert_eq!(t.tail_lines(8).len(), 0);
        t.on_message(Some(0), 5, 8, "Data", "msg", 0x40, 1, 0, 2);
        t.on_completion(8, 0);
        let log = t.finish();
        // Only the post-reset hops are counted...
        assert_eq!(log.tx_hops, 2);
        // ...but the straddling transaction still completes.
        assert_eq!(log.completed_txs, 1);
        assert_eq!(log.open_txs, 0);
    }

    #[test]
    fn chrome_document_shape() {
        let mut t = TxTracer::new(4);
        t.on_message(None, 10, 12, "Get\"S", "msg", 7, 1, 2, 3);
        let doc = t.finish().to_value("a \\ b");
        let text = doc.to_document();
        assert_eq!(Value::parse(&text).unwrap(), doc);
        let events = match doc.field("traceEvents").unwrap() {
            Value::Arr(items) => items,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        let label = events[0].field("args").unwrap().field("name").unwrap();
        assert_eq!(label.as_str().unwrap(), "a \\ b");
        assert_eq!(events[1].field("name").unwrap().as_str().unwrap(), "Get\"S");
        assert_eq!(events[1].field("ts").unwrap().as_u64().unwrap(), 10);
        assert_eq!(events[1].field("dur").unwrap().as_u64().unwrap(), 2);
        let dropped = doc.field("otherData").unwrap().field("droppedEvents").unwrap();
        assert_eq!(dropped.as_u64().unwrap(), 0);
    }

    #[test]
    fn tail_lines_render() {
        let mut t = TxTracer::new(2);
        t.on_issue(1, 0, 0x40, true);
        t.on_message(Some(0), 1, 4, "GetX", "msg", 0x40, 0, 1, 2);
        let lines = t.tail_lines(4);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("GetX"), "{}", lines[0]);
        assert!(lines[0].contains("links=2"), "{}", lines[0]);
    }
}
