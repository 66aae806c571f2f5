//! Bounded event tracing.
//!
//! [`TraceRing`] is a fixed-capacity ring buffer of [`TraceEvent`]s:
//! when full, the oldest event is dropped (and counted), so tracing a
//! long run costs bounded memory and the *tail* — the part that matters
//! when diagnosing a stall — is always retained.
//!
//! `cmpsim` renders the buffer in the Chrome trace-event format (the
//! `traceEvents` array of `"X"` complete events), which Perfetto and
//! `chrome://tracing` load directly. Timestamps are simulated cycles
//! reported in the format's microsecond field — 1 cycle displays as
//! 1 µs.

use crate::event::Cycle;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One trace span: `[ts, ts+dur)` on track `tid`, with four numeric
/// arguments shown by the viewer on click. Every field is inline, so
/// recording an event allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start cycle.
    pub ts: Cycle,
    /// Duration in cycles (0 renders as an instant-like sliver).
    pub dur: Cycle,
    /// Event name (e.g. message kind or `GetX`).
    pub name: &'static str,
    /// Category string used by trace viewers for filtering.
    pub cat: &'static str,
    /// Track id — here: the transaction id (0 = untracked traffic).
    pub tid: u64,
    /// `key: value` arguments (block address, src/dst tile, hop count).
    pub args: [(&'static str, u64); 4],
}

/// Fixed-capacity drop-oldest ring of trace events.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `cap` events (min 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self { buf: VecDeque::with_capacity(cap), cap, dropped: 0 }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.buf.iter()
    }

    /// The last `n` events, oldest first (for crash-dump tails).
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.buf.iter().skip(self.buf.len().saturating_sub(n))
    }

    /// Clears the buffer and the drop counter (warm-up reset).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

/// One-line rendering of an event for text dumps (`[ts+dur] name ...`).
pub fn format_event(ev: &TraceEvent) -> String {
    let mut s = format!("[{}+{}] tx={} {}", ev.ts, ev.dur, ev.tid, ev.name);
    for (k, v) in &ev.args {
        let _ = write!(s, " {k}={v}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            ts,
            dur: 2,
            name,
            cat: "msg",
            tid: 1,
            args: [("block", 7), ("src", 1), ("dst", 2), ("links", 3)],
        }
    }

    #[test]
    fn ring_drops_oldest() {
        let mut r = TraceRing::new(2);
        r.push(ev(1, "a"));
        r.push(ev(2, "b"));
        r.push(ev(3, "c"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let names: Vec<_> = r.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn tail_returns_last_n() {
        let mut r = TraceRing::new(8);
        for i in 0..5 {
            r.push(ev(i, "e"));
        }
        let tail: Vec<_> = r.tail(2).map(|e| e.ts).collect();
        assert_eq!(tail, vec![3, 4]);
    }

    #[test]
    fn clear_resets() {
        let mut r = TraceRing::new(1);
        r.push(ev(1, "a"));
        r.push(ev(2, "b"));
        assert_eq!(r.dropped(), 1);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn format_event_line() {
        let line = format_event(&ev(5, "Fwd"));
        assert_eq!(line, "[5+2] tx=1 Fwd block=7 src=1 dst=2 links=3");
    }
}
