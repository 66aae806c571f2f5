//! Coherence-transaction tracing.
//!
//! When [`SystemConfig::tracing`](crate::SystemConfig) is on, the
//! simulator tags every L1 miss with a transaction id (one more than its
//! issue order) and records its lifecycle — issue, the request reaching
//! the ordering point (directory or owner lookup), forwards, data/ack
//! responses, and completion — into a bounded [`TraceRing`]. Every
//! network message is recorded as a span whose duration is its NoC
//! delivery latency and whose `links` argument is the hop count the mesh
//! charged for it, so the per-transaction hop totals reconcile exactly
//! with the NoC's `routing_events` counter (a property the integration
//! tests assert).
//!
//! Tracing is observation-only: it allocates no events in the
//! simulation queue, never touches the RNG, and the simulated timing is
//! bit-identical with it on or off.

use crate::json::Value;
use cmpsim_engine::{trace::format_event, Cycle, TraceEvent, TraceRing};
use cmpsim_protocols::common::{Block, Tile};

use crate::observers::OpenTx;

/// Capacity of the trace ring, in events. When full, the oldest events
/// are dropped (and counted), keeping memory bounded on long runs while
/// preserving the tail.
pub const TRACE_CAPACITY: usize = 65_536;

/// The messages and link traversals charged to one tile's open miss.
#[derive(Debug, Clone, Copy, Default)]
struct TxCounts {
    hops: u64,
    msgs: u64,
}

/// Records message spans into a bounded ring, each on the track of the
/// miss it belongs to. The misses themselves are the observer bus's
/// [`OpenTx`] records: a miss's trace id is its issue order + 1 (0 is
/// the track of untracked traffic). Only present when tracing is
/// enabled, so the disabled hot path is a single `Option` test.
#[derive(Debug, Clone)]
pub(crate) struct TxTracer {
    ring: TraceRing,
    /// What each tile's open miss has been charged so far.
    counts: Vec<TxCounts>,
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
    pub(crate) fn new(tiles: usize) -> Self {
        Self {
            ring: TraceRing::new(TRACE_CAPACITY),
            counts: vec![TxCounts::default(); tiles],
            tx_hops: 0,
            untracked_hops: 0,
            completed: 0,
        }
    }

    /// A miss opens on `tile`: its counts start from zero.
    pub(crate) fn on_issue(&mut self, tile: Tile) {
        self.counts[tile] = TxCounts::default();
    }

    /// Records one network message: a span `[depart, arrival)` on the
    /// track of `owner`, the open miss (and its tile) the message
    /// belongs to, charging its `links` hop count to that miss — or to
    /// the untracked bucket when there is none.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_message(
        &mut self,
        owner: Option<(Tile, &OpenTx)>,
        depart: Cycle,
        arrival: Cycle,
        name: &'static str,
        cat: &'static str,
        block: Block,
        src: Tile,
        dst: Tile,
        links: u64,
    ) {
        let tid = match owner {
            Some((tile, tx)) => {
                let c = &mut self.counts[tile];
                c.hops += links;
                c.msgs += 1;
                self.tx_hops += links;
                tx.seq + 1
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

    /// Records the completion at `now` of `tx`, the miss open on
    /// `tile`, emitting its whole-lifecycle span.
    pub(crate) fn on_completion(&mut self, now: Cycle, tile: Tile, tx: &OpenTx) {
        let c = self.counts[tile];
        self.completed += 1;
        self.ring.push(TraceEvent {
            ts: tx.issued,
            dur: now.saturating_sub(tx.issued),
            name: if tx.write { "store-miss" } else { "load-miss" },
            cat: "tx",
            tid: tx.seq + 1,
            args: [("block", tx.block), ("tile", tile as u64), ("hops", c.hops), ("msgs", c.msgs)],
        });
    }

    /// Warm-up reset: discards buffered events and zeroes the hop
    /// accounting (mirroring the NoC stats reset); open misses straddling
    /// the boundary still complete. Their counts restart too, so
    /// completed spans only ever report post-warm-up hops and the span
    /// sum stays reconcilable with `tx_hops`.
    pub(crate) fn reset(&mut self) {
        self.ring.clear();
        self.tx_hops = 0;
        self.untracked_hops = 0;
        self.completed = 0;
        self.counts.fill(TxCounts::default());
    }

    /// The last `n` events rendered as text lines (for stall dumps).
    pub(crate) fn tail_lines(&self, n: usize) -> Vec<String> {
        self.ring.tail(n).map(format_event).collect()
    }

    /// Finalizes the tracer into the exportable log; `open` is each
    /// tile's miss still open.
    pub(crate) fn finish(self, open: &[Option<OpenTx>]) -> TraceLog {
        TraceLog {
            ring: self.ring,
            tx_hops: self.tx_hops,
            untracked_hops: self.untracked_hops,
            completed_txs: self.completed,
            open_txs: open.iter().flatten().count() as u64,
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

    /// The bus's record of a miss on `block` issued at `issued`, the
    /// `seq`-th issued.
    fn tx(block: Block, write: bool, issued: Cycle, seq: u64) -> OpenTx {
        OpenTx { block, write, issued, seq }
    }

    #[test]
    fn issue_message_complete_lifecycle() {
        let mut t = TxTracer::new(4);
        let miss = tx(0x40, false, 10, 0);
        t.on_issue(2);
        t.on_message(Some((2, &miss)), 10, 15, "GetS", "msg", 0x40, 2, 0, 3);
        t.on_message(Some((2, &miss)), 15, 22, "Data", "msg", 0x40, 0, 2, 3);
        t.on_completion(22, 2, &miss);
        let log = t.finish(&[None; 4]);
        assert_eq!(log.completed_txs, 1);
        assert_eq!(log.open_txs, 0);
        assert_eq!(log.tx_hops, 6);
        assert_eq!(log.untracked_hops, 0);
        assert_eq!(log.ring.len(), 3);
        assert!(log.ring.iter().all(|e| e.tid == 1), "trace id is the issue order + 1");
        let tx = log.ring.iter().last().unwrap();
        assert_eq!(tx.cat, "tx");
        assert_eq!(tx.ts, 10);
        assert_eq!(tx.dur, 12);
        assert!(tx.args.contains(&("hops", 6)));
        assert!(tx.args.contains(&("msgs", 2)));
    }

    /// A re-issue on a tile whose miss never completed starts its counts
    /// from zero.
    #[test]
    fn issue_restarts_the_tiles_counts() {
        let mut t = TxTracer::new(2);
        let (stale, fresh) = (tx(0x40, false, 1, 0), tx(0x80, true, 5, 1));
        t.on_issue(1);
        t.on_message(Some((1, &stale)), 1, 4, "GetS", "msg", 0x40, 1, 0, 2);
        t.on_issue(1);
        t.on_message(Some((1, &fresh)), 5, 9, "GetX", "msg", 0x80, 1, 0, 3);
        t.on_completion(9, 1, &fresh);
        let span = *t.finish(&[None; 2]).ring.iter().last().unwrap();
        assert_eq!(span.tid, 2);
        assert!(span.args.contains(&("hops", 3)));
        assert!(span.args.contains(&("msgs", 1)));
    }

    #[test]
    fn background_traffic_lands_on_track_zero() {
        let mut t = TxTracer::new(2);
        t.on_message(None, 5, 9, "WbData", "msg", 0x80, 1, 0, 2);
        let log = t.finish(&[None; 2]);
        assert_eq!(log.untracked_hops, 2);
        assert_eq!(log.tx_hops, 0);
        assert_eq!(log.ring.iter().next().unwrap().tid, 0);
    }

    #[test]
    fn reset_keeps_open_transactions() {
        let mut t = TxTracer::new(2);
        let miss = tx(0x40, false, 1, 0);
        t.on_issue(0);
        t.on_message(Some((0, &miss)), 1, 4, "GetS", "msg", 0x40, 0, 1, 2);
        t.reset();
        assert_eq!(t.tail_lines(8).len(), 0);
        t.on_message(Some((0, &miss)), 5, 8, "Data", "msg", 0x40, 1, 0, 2);
        t.on_completion(8, 0, &miss);
        let log = t.finish(&[None, Some(tx(0x80, false, 6, 1))]);
        // Only the post-reset hops are counted...
        assert_eq!(log.tx_hops, 2);
        // ...but the straddling transaction still completes.
        assert_eq!(log.completed_txs, 1);
        assert_eq!(log.open_txs, 1);
    }

    #[test]
    fn chrome_document_shape() {
        let mut t = TxTracer::new(4);
        t.on_message(None, 10, 12, "Get\"S", "msg", 7, 1, 2, 3);
        let doc = t.finish(&[None; 4]).to_value("a \\ b");
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
        let miss = tx(0x40, true, 1, 0);
        t.on_issue(0);
        t.on_message(Some((0, &miss)), 1, 4, "GetX", "msg", 0x40, 0, 1, 2);
        let lines = t.tail_lines(4);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("GetX"), "{}", lines[0]);
        assert!(lines[0].contains("links=2"), "{}", lines[0]);
    }
}
