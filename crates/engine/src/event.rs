//! Deterministic discrete-event queue.
//!
//! The queue orders events primarily by their scheduled [`Cycle`] and
//! secondarily by insertion order, so two events scheduled for the same
//! cycle are always delivered in the order they were pushed. This makes a
//! whole simulation a pure function of its inputs (configuration + RNG
//! seed), which the test suite relies on for replay-based debugging.
//!
//! # Implementation
//!
//! Almost every delta a coherence simulation schedules is one of the
//! Table III latencies (link/switch/cache accesses, a few hundred cycles
//! at most), so the queue is a calendar queue: a fixed wheel of
//! `WHEEL_SLOTS` (512) per-cycle FIFO buckets covering the near future, with
//! a binary-heap overflow tier for the rare far-future event (memory
//! round-trips, think gaps). Pushes into the wheel are O(1); pops scan
//! forward from the current cycle, which is O(gap) — and gaps are tiny
//! because event density is high. The overflow heap keeps `(cycle, seq)`
//! order, and events migrate into the wheel only when the window slides
//! past them, so the global delivery order is exactly the `(cycle, seq)`
//! order a sorted heap would produce.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated time, in processor clock cycles.
pub type Cycle = u64;

/// Wheel size in cycles (one bucket per cycle). Must be a power of two;
/// sized to cover the common scheduling deltas (Table III latencies plus
/// NoC traversals are well under 512 cycles).
const WHEEL_SLOTS: usize = 512;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;

#[derive(Debug, Clone)]
struct Overflow<E> {
    at: Cycle,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Overflow<E> {}
impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A time-ordered, insertion-stable event queue.
///
/// ```
/// use cmpsim_engine::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b"))); // FIFO among same-cycle events
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Per-cycle FIFO buckets; bucket `c & WHEEL_MASK` holds the events
    /// due at cycle `c` for every `c` in `[wheel_base, wheel_base +
    /// WHEEL_SLOTS)`. Within a bucket, entries are in push order, which
    /// for one cycle is exactly seq order (overflow migration preserves
    /// this: an event can only migrate before any later direct push for
    /// its cycle lands).
    buckets: Vec<VecDeque<(Cycle, E)>>,
    /// Start of the wheel window. Invariants: `wheel_base <= now` holds
    /// at every push (the window only slides forward inside `pop`, which
    /// ends with `now` inside it), and every queued event with cycle
    /// `< wheel_base + WHEEL_SLOTS` lives in the wheel, the rest in
    /// `overflow`.
    wheel_base: Cycle,
    /// Events currently stored in the wheel.
    wheel_len: usize,
    /// Far-future events, ordered by `(cycle, seq)`.
    overflow: BinaryHeap<Reverse<Overflow<E>>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at cycle 0.
    pub fn new() -> Self {
        Self {
            buckets: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            wheel_base: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Creates an empty queue with room for `cap` far-future events
    /// before the overflow tier reallocates (the wheel itself grows its
    /// buckets on demand).
    pub fn with_capacity(cap: usize) -> Self {
        Self { overflow: BinaryHeap::with_capacity(cap), ..Self::new() }
    }

    /// The cycle of the most recently popped event (the simulation clock).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `ev` for cycle `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past would violate causality and always indicates a model bug.
    pub fn push(&mut self, at: Cycle, ev: E) {
        assert!(at >= self.now, "event scheduled in the past: {} < {}", at, self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        if at - self.wheel_base < WHEEL_SLOTS as u64 {
            self.buckets[(at & WHEEL_MASK) as usize].push_back((at, ev));
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(Overflow { at, seq, ev }));
        }
    }

    /// Moves every overflow event the current window covers into its
    /// wheel bucket. Overflow drains in `(cycle, seq)` order, and the
    /// target buckets cannot yet hold direct pushes for those cycles
    /// (they only just entered the window), so bucket FIFO order stays
    /// seq order.
    fn migrate(&mut self) {
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.at - self.wheel_base >= WHEEL_SLOTS as u64 {
                break;
            }
            let Reverse(o) = self.overflow.pop().expect("peeked");
            self.buckets[(o.at & WHEEL_MASK) as usize].push_back((o.at, o.ev));
            self.wheel_len += 1;
        }
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.wheel_len == 0 {
            // The wheel is drained; jump the window to the earliest
            // far-future event (if any) and pull its cohort in.
            let Reverse(top) = self.overflow.peek()?;
            self.wheel_base = top.at;
            self.migrate();
        }
        // Scan forward from the clock for the next non-empty bucket. All
        // wheel events are >= now (causality), so nothing is skipped.
        let mut c = self.now.max(self.wheel_base);
        let (at, ev) = loop {
            let bucket = &mut self.buckets[(c & WHEEL_MASK) as usize];
            if let Some(entry) = bucket.pop_front() {
                break entry;
            }
            c += 1;
        };
        debug_assert_eq!(at, c);
        debug_assert!(at >= self.now);
        self.wheel_len -= 1;
        self.now = at;
        // Slide the window up to the clock and admit newly covered
        // overflow events, keeping near-future pushes on the O(1) path.
        if self.wheel_base < at {
            self.wheel_base = at;
            self.migrate();
        }
        Some((at, ev))
    }

    /// The cycle of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.wheel_len > 0 {
            let mut c = self.now.max(self.wheel_base);
            loop {
                if let Some(&(at, _)) = self.buckets[(c & WHEEL_MASK) as usize].front() {
                    return Some(at);
                }
                c += 1;
            }
        }
        self.overflow.peek().map(|Reverse(o)| o.at)
    }

    /// Iterates over every pending event as `(due_cycle, event)`, in
    /// unspecified order (the queue's internal layout). Used by the
    /// watchdog to dump in-flight events when a simulation stalls; sort
    /// by cycle at the use site if order matters.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &E)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|(at, ev)| (*at, ev)))
            .chain(self.overflow.iter().map(|Reverse(o)| (o.at, &o.ev)))
    }
}

impl<E: Clone> EventQueue<E> {
    /// Every pending event in **exact delivery order** (the `(cycle,
    /// seq)` order `pop` would produce), paired with its due cycle.
    /// This is the queue's canonical serialized form: re-pushing the
    /// list in order into a fresh queue reproduces the same delivery
    /// stream, regardless of how the wheel/overflow split looked.
    pub fn snapshot_events(&self) -> Vec<(Cycle, E)> {
        let mut probe = self.clone();
        let mut out = Vec::with_capacity(self.len());
        while let Some(entry) = probe.pop() {
            out.push(entry);
        }
        out
    }

    /// Rebuilds a queue whose clock starts at `now` from a delivery-
    /// ordered event list (as produced by [`snapshot_events`]). Seq
    /// numbers are reassigned in list order, so same-cycle FIFO order
    /// is preserved exactly.
    ///
    /// [`snapshot_events`]: EventQueue::snapshot_events
    pub fn from_snapshot(now: Cycle, events: Vec<(Cycle, E)>) -> Self {
        let mut q = Self::new();
        q.now = now;
        q.wheel_base = now;
        for (at, ev) in events {
            q.push(at, ev);
        }
        q
    }
}

/// The original `BinaryHeap`-based queue, kept as the ordering oracle
/// for the calendar queue's differential tests.
#[cfg(test)]
mod heap_queue {
    use super::Cycle;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug)]
    struct Entry<E> {
        at: Cycle,
        seq: u64,
        ev: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }

    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        next_seq: u64,
        now: Cycle,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            Self { heap: BinaryHeap::new(), next_seq: 0, now: 0 }
        }

        pub fn push(&mut self, at: Cycle, ev: E) {
            assert!(at >= self.now, "event scheduled in the past: {} < {}", at, self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Entry { at, seq, ev }));
        }

        pub fn pop(&mut self) -> Option<(Cycle, E)> {
            let Reverse(e) = self.heap.pop()?;
            self.now = e.at;
            Some((e.at, e.ev))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
    }

    #[test]
    fn fifo_within_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(5, ());
        q.push(5, ());
        q.push(9, ());
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(3, ());
    }

    #[test]
    fn push_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        q.pop();
        q.push(10, 'b');
        assert_eq!(q.pop(), Some((10, 'b')));
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(42, ());
        q.push(17, ());
        assert_eq!(q.peek_time(), Some(17));
        q.pop();
        assert_eq!(q.peek_time(), Some(42));
    }

    #[test]
    fn iter_sees_all_pending_events() {
        let mut q = EventQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(20, 'b');
        q.pop();
        let mut pending: Vec<(Cycle, char)> = q.iter().map(|(t, &e)| (t, e)).collect();
        pending.sort_unstable();
        assert_eq!(pending, vec![(20, 'b'), (30, 'c')]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // Far beyond the wheel window: must round-trip through overflow.
        q.push(1_000_000, 'z');
        q.push(3, 'a');
        q.push(2_000_000, 'y');
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((3, 'a')));
        assert_eq!(q.peek_time(), Some(1_000_000));
        assert_eq!(q.pop(), Some((1_000_000, 'z')));
        assert_eq!(q.pop(), Some((2_000_000, 'y')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_preserved_across_overflow_boundary() {
        let mut q = EventQueue::new();
        // 'a' goes to overflow (beyond the window from cycle 0) ...
        q.push(1000, 'a');
        // ... the window slides onto cycle 900 ...
        q.push(900, 'w');
        q.pop();
        // ... so 'b' lands in the wheel directly. 'a' was pushed first
        // and must still come out first.
        q.push(1000, 'b');
        assert_eq!(q.pop(), Some((1000, 'a')));
        assert_eq!(q.pop(), Some((1000, 'b')));
    }

    #[test]
    fn window_edge_cases() {
        let mut q = EventQueue::new();
        // Exactly the last in-window cycle and the first out-of-window one.
        q.push(511, 'i');
        q.push(512, 'o');
        assert_eq!(q.pop(), Some((511, 'i')));
        assert_eq!(q.pop(), Some((512, 'o')));
        assert_eq!(q.pop(), None);
        // Re-push at now after large jumps.
        q.push(1 << 40, 'f');
        assert_eq!(q.pop(), Some((1 << 40, 'f')));
        q.push(1 << 40, 'g');
        assert_eq!(q.pop(), Some((1 << 40, 'g')));
    }

    /// The tentpole's correctness anchor: a long randomized push/pop
    /// schedule driven identically through the calendar queue and the
    /// original binary heap must produce identical `(cycle, seq, event)`
    /// streams. Deltas mix the dense near-future band with rare
    /// far-future jumps so both tiers and the migration path are hit.
    #[test]
    fn differential_vs_legacy_heap() {
        let mut rng = SimRng::new(0xD1FF);
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: heap_queue::HeapQueue<u64> = heap_queue::HeapQueue::new();
        let mut tag = 0u64; // doubles as the seq the streams are compared on
        let mut pending = 0usize;
        for _ in 0..50_000 {
            let action = rng.next_u64() % 100;
            if pending == 0 || action < 55 {
                let delta = match rng.next_u64() % 10 {
                    0 => rng.next_u64() % 100_000,  // far-future (overflow tier)
                    1..=3 => rng.next_u64() % 2000, // just past the window
                    _ => rng.next_u64() % 200,      // Table III band
                };
                // Both queues share one clock by construction: their pop
                // streams are asserted identical below.
                let at = cal.now() + delta;
                cal.push(at, tag);
                heap.push(at, tag);
                tag += 1;
                pending += 1;
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "queues diverged after {tag} pushes");
                pending -= 1;
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// A snapshot taken mid-run and rebuilt must produce the exact
    /// same delivery stream as the original queue, including same-cycle
    /// FIFO order and events parked in the overflow tier.
    #[test]
    fn snapshot_round_trip_preserves_delivery_order() {
        let mut rng = SimRng::new(0x5A47);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut tag = 0u64;
        for _ in 0..5000 {
            if q.is_empty() || rng.next_u64() % 100 < 60 {
                let delta = match rng.next_u64() % 10 {
                    0 => rng.next_u64() % 50_000, // overflow tier
                    _ => rng.next_u64() % 300,
                };
                q.push(q.now() + delta, tag);
                tag += 1;
            } else {
                q.pop();
            }
        }
        let now = q.now();
        let events = q.snapshot_events();
        let mut rebuilt = EventQueue::from_snapshot(now, events);
        assert_eq!(rebuilt.now(), now);
        assert_eq!(rebuilt.len(), q.len());
        loop {
            let a = q.pop();
            let b = rebuilt.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // A rebuilt queue keeps working: same-cycle pushes at `now`.
        rebuilt.push(rebuilt.now(), 99);
        assert_eq!(rebuilt.pop(), Some((now.max(rebuilt.now()), 99)));
    }

    /// Same-cycle bursts larger than anything the simulator produces,
    /// interleaved with pops, stay FIFO.
    #[test]
    fn differential_same_cycle_bursts() {
        let mut rng = SimRng::new(77);
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut heap: heap_queue::HeapQueue<u32> = heap_queue::HeapQueue::new();
        let mut tag = 0u32;
        for round in 0..500u64 {
            let at = cal.now() + rng.next_u64() % 3;
            let burst = 1 + rng.next_u64() % 8;
            for _ in 0..burst {
                cal.push(at, tag);
                heap.push(at, tag);
                tag += 1;
            }
            if round % 3 != 0 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let a = cal.pop();
            assert_eq!(a, heap.pop());
            if a.is_none() {
                break;
            }
        }
    }
}
