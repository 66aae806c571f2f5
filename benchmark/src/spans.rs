//! In-memory span recorder for the traced run.
//!
//! The mirror loop marks a deterministic 1-in-[`SAMPLE_EVERY`] sample
//! of its events. A sampled event is a parent span (`sim.event`, from
//! before the queue pop to after the warm-up check); every call it makes
//! into a layer is a child span sharing the parent's id. Unsampled
//! events read no clock at all, which keeps the trace's own cost small.
//! Per-layer sums are kept per cell and merged only for cells whose
//! mirror run matched the real simulator (see [`Tracer::end_cell`]).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One event in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;
/// Spans kept for the Chrome-trace export; later ones are only counted.
pub const MAX_SPANS: usize = 200_000;

/// A layer call the mirror loop wraps in a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `EventQueue::pop`.
    Pop,
    /// `EventQueue::push`.
    Push,
    /// `CoreStream::next_ref`.
    NextRef,
    /// `MachineMemory::translate`.
    Translate,
    /// `CoherenceProtocol::core_access`.
    CoreAccess,
    /// `CoherenceProtocol::handle`.
    Handle,
    /// `Mesh::send`.
    Send,
    /// `Mesh::broadcast`.
    Broadcast,
}

impl Layer {
    /// Span name: the layer's crate, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Pop => "engine.pop",
            Layer::Push => "engine.push",
            Layer::NextRef => "workloads.next_ref",
            Layer::Translate => "virt.translate",
            Layer::CoreAccess => "protocols.core_access",
            Layer::Handle => "protocols.handle",
            Layer::Send => "noc.send",
            Layer::Broadcast => "noc.broadcast",
        }
    }
}

/// Sampled time of one set of events.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSums {
    /// Sampled events.
    pub events: u64,
    /// Summed child-span durations per [`Layer`] (timer cost removed).
    pub ns: [u64; 8],
}

impl LayerSums {
    fn merge(&mut self, o: &LayerSums) {
        self.events += o.events;
        for (a, b) in self.ns.iter_mut().zip(o.ns) {
            *a += b;
        }
    }

    /// Host ns per event spent in `layer`, over the sampled events.
    pub fn ns_per_event(&self, layer: Layer) -> f64 {
        self.ns[layer as usize] as f64 / self.events.max(1) as f64
    }
}

struct Span {
    name: &'static str,
    cell: u32,
    event: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Records the traced run's spans.
pub struct Tracer {
    epoch: Instant,
    /// Cost of one clock read, removed from every child span.
    timer_ns: u64,
    cell: u32,
    /// Events begun in the current cell (the sampling clock).
    ordinal: u64,
    /// The sampled event in progress: its ordinal and start.
    event: Option<(u64, Instant)>,
    current: LayerSums,
    /// Sums over the cells kept so far.
    pub kept: LayerSums,
    spans: Vec<Span>,
    /// Spans recorded but not kept for export.
    pub dropped: u64,
}

impl Tracer {
    /// A recorder with its clock-read cost calibrated.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            timer_ns: clock_read_ns(),
            cell: 0,
            ordinal: 0,
            event: None,
            current: LayerSums::default(),
            kept: LayerSums::default(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Starts the spans of cell `cell`.
    pub fn begin_cell(&mut self, cell: u32) {
        self.cell = cell;
        self.ordinal = 0;
        self.current = LayerSums::default();
    }

    /// Ends the current cell, merging its sums when `keep` (its mirror
    /// run was exact) and discarding them otherwise.
    pub fn end_cell(&mut self, keep: bool) {
        if keep {
            self.kept.merge(&self.current);
        }
    }

    /// Opens the next event; it is sampled when its ordinal is a
    /// multiple of [`SAMPLE_EVERY`].
    #[inline]
    pub fn begin_event(&mut self) {
        self.ordinal += 1;
        self.event =
            self.ordinal.is_multiple_of(SAMPLE_EVERY).then(|| (self.ordinal, Instant::now()));
    }

    /// Drops the open event (the queue was empty).
    #[inline]
    pub fn cancel_event(&mut self) {
        self.event = None;
    }

    /// Closes the open event's parent span.
    #[inline]
    pub fn end_event(&mut self) {
        if let Some((id, t0)) = self.event.take() {
            self.current.events += 1;
            self.record("sim.event", id, t0, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Start of a child span: a clock read inside a sampled event,
    /// nothing otherwise.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.event.map(|_| Instant::now())
    }

    /// Closes a child span opened by [`Tracer::start`].
    #[inline]
    pub fn end(&mut self, layer: Layer, t0: Option<Instant>) {
        let (Some(t0), Some((id, _))) = (t0, self.event) else {
            return;
        };
        let dur = (t0.elapsed().as_nanos() as u64).saturating_sub(self.timer_ns);
        self.current.ns[layer as usize] += dur;
        self.record(layer.name(), id, t0, dur);
    }

    fn record(&mut self, name: &'static str, event: u64, t0: Instant, dur_ns: u64) {
        if self.spans.len() == MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let start_ns = t0.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, cell: self.cell, event, start_ns, dur_ns });
    }

    /// Writes the kept spans as Chrome trace-event JSON (one thread per
    /// cell; each span's `args.event` is its parent event's id).
    pub fn write_chrome(&self, path: &Path, cells: &[String]) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, name) in cells.iter().enumerate() {
            writeln!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":\"{name}\"}}}},"
            )?;
        }
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"event\":{}}}}},",
                s.name,
                s.cell,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.event,
            )?;
        }
        // The closing record carries the export's metadata and absorbs
        // the trailing comma.
        writeln!(
            w,
            "{{\"name\":\"trace_info\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"sample_every\":{SAMPLE_EVERY},\"timer_ns\":{},\"dropped_spans\":{}}}}}\n],\"displayTimeUnit\":\"ns\"}}",
            self.timer_ns, self.dropped
        )?;
        w.flush()
    }
}

/// Mean cost of one `Instant::now()`, from back-to-back reads.
fn clock_read_ns() -> u64 {
    const READS: u32 = 10_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_nanos() as u64 / u64::from(READS)
}
