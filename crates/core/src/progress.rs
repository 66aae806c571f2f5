//! Live sweep telemetry: a heartbeat progress stream for the cell
//! executor ([`RunOptions::progress`](crate::RunOptions::progress)).
//!
//! A [`ProgressSink`] counts completed cells and emits one event per
//! cell — an NDJSON line to an optional file (`cmpsim-cli`'s
//! `D/host/progress.ndjson` under `--out-dir D`) and a human-readable
//! line to stderr — with cells done/total, the cell's events/s from the host
//! self-profiler, and an ETA extrapolated from the elapsed wall clock.
//! This is *host-side telemetry*: lines carry wall-clock timings, arrive
//! in completion order and are explicitly nondeterministic. They never
//! touch the deterministic artifacts.
//!
//! Stream shape (one JSON document per line, `cmpsim-progress-v1`):
//!
//! ```text
//! {"schema":"cmpsim-progress-v1","event":"start","label":"matrix","total":32,...}
//! {"schema":"cmpsim-progress-v1","event":"cell","done":1,"total":32,"cell":"DiCo/apache4x16p",...}
//! {"schema":"cmpsim-progress-v1","event":"finish","done":32,"total":32,...}
//! ```

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema tag of each NDJSON progress line.
pub const PROGRESS_SCHEMA: &str = "cmpsim-progress-v1";

/// Thread-safe sink for sweep progress events. Cheap to share by
/// reference across the sweep's worker threads.
pub struct ProgressSink {
    out: Option<Mutex<std::fs::File>>,
    stderr: bool,
    label: String,
    total: usize,
    done: AtomicUsize,
    started: Instant,
}

impl ProgressSink {
    /// A sink over `total` cells. `path` receives the NDJSON stream
    /// (`None` = stderr lines only); `stderr` controls the human line.
    pub fn new(
        label: &str,
        total: usize,
        path: Option<&str>,
        stderr: bool,
    ) -> std::io::Result<Self> {
        let out = match path {
            Some(p) => Some(Mutex::new(std::fs::File::create(p)?)),
            None => None,
        };
        let sink = Self {
            out,
            stderr,
            label: label.to_string(),
            total,
            done: AtomicUsize::new(0),
            started: Instant::now(),
        };
        sink.write_line(&format!(
            "{{\"schema\":\"{PROGRESS_SCHEMA}\",\"event\":\"start\",\"label\":\"{}\",\"total\":{}}}",
            sink.label, sink.total
        ));
        Ok(sink)
    }

    /// Records one finished cell. `cell` names it (`protocol/benchmark`
    /// or `plan:protocol/benchmark`), `status` is a short outcome tag
    /// (`ok`, `recovered`, `faulted`, ...), `events`/`events_per_sec`
    /// come from the run's host self-profile (0 when unavailable).
    pub fn cell_done(&self, cell: &str, status: &str, events: u64, events_per_sec: f64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = self.started.elapsed();
        let elapsed_ms = elapsed.as_millis() as u64;
        let eta_ms = if done > 0 && self.total >= done {
            elapsed_ms.saturating_mul((self.total - done) as u64) / done as u64
        } else {
            0
        };
        self.write_line(&format!(
            "{{\"schema\":\"{PROGRESS_SCHEMA}\",\"event\":\"cell\",\"label\":\"{}\",\"done\":{done},\"total\":{},\"cell\":\"{cell}\",\"status\":\"{status}\",\"events\":{events},\"events_per_sec\":{events_per_sec:.1},\"elapsed_ms\":{elapsed_ms},\"eta_ms\":{eta_ms}}}",
            self.label, self.total
        ));
        if self.stderr {
            let rate = if events_per_sec > 0.0 {
                format!(", {:.2} Mev/s", events_per_sec / 1e6)
            } else {
                String::new()
            };
            eprintln!(
                "{} [{done}/{}] {cell}: {status}{rate}, ETA {:.1}s",
                self.label,
                self.total,
                eta_ms as f64 / 1e3
            );
        }
    }

    /// Emits the final summary event. Called once after the sweep.
    pub fn finish(&self) {
        let done = self.done.load(Ordering::Relaxed);
        self.write_line(&format!(
            "{{\"schema\":\"{PROGRESS_SCHEMA}\",\"event\":\"finish\",\"label\":\"{}\",\"done\":{done},\"total\":{},\"elapsed_ms\":{}}}",
            self.label,
            self.total,
            self.started.elapsed().as_millis() as u64
        ));
    }

    fn write_line(&self, line: &str) {
        if let Some(out) = &self.out {
            let mut f = out.lock().unwrap();
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Value;

    #[test]
    fn ndjson_stream_counts_cells_and_parses() {
        let dir = std::env::temp_dir().join(format!("cmpsim-progress-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.ndjson");
        let sink =
            ProgressSink::new("matrix", 2, Some(path.to_str().unwrap()), false).unwrap();
        sink.cell_done("DiCo/apache4x16p", "ok", 1000, 2.5e6);
        sink.cell_done("Directory/apache4x16p", "ok", 900, 2.0e6);
        sink.finish();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        for line in &lines {
            let v = Value::parse(line).expect("each line is a JSON document");
            assert_eq!(v.field("schema").unwrap().as_str().unwrap(), PROGRESS_SCHEMA);
        }
        let first = Value::parse(lines[0]).unwrap();
        assert_eq!(first.field("event").unwrap().as_str().unwrap(), "start");
        let last = Value::parse(lines[3]).unwrap();
        assert_eq!(last.field("event").unwrap().as_str().unwrap(), "finish");
        assert_eq!(last.field("done").unwrap().as_u64().unwrap(), 2);
        let cell = Value::parse(lines[1]).unwrap();
        assert_eq!(cell.field("total").unwrap().as_u64().unwrap(), 2);
        assert!(cell.field("eta_ms").unwrap().as_u64().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
