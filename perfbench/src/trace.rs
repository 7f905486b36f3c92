//! The benchmark's own spans.
//!
//! Every call the benchmark makes into a layer of the pipeline is
//! bracketed by [`Tracer::begin`] and [`Tracer::end`]. `end` always
//! returns the call's wall time, which the end-to-end metrics use; when
//! recording is on, the span (name, label, parent, start, duration) is
//! also kept in memory, to be written out once the run ends. Nothing
//! inside the measured crates is instrumented: the spans sit at the
//! public boundaries the benchmark calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use holistic_core::json::escape;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Layer boundary, e.g. `checker.check_cell`.
    pub name: &'static str,
    /// What the call worked on, e.g. `bv-broadcast/BV-Just0`.
    pub label: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the start from the tracer's creation.
    pub start: Duration,
    /// Wall time of the call.
    pub duration: Duration,
}

/// An open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// In-memory span recorder; single-threaded, like the benchmark.
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only once [`set_recording`](Self::set_recording)
    /// turns it on.
    pub fn new() -> Tracer {
        Tracer {
            recording: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off; only call between top-level spans.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.recording = on;
    }

    /// Opens a span. `label` is only evaluated while recording.
    pub fn begin(&mut self, name: &'static str, label: impl FnOnce() -> String) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let index = self.spans.len();
            self.spans.push(SpanRecord {
                name,
                label: label(),
                parent: self.stack.last().copied(),
                start: start - self.origin,
                duration: Duration::ZERO,
            });
            self.stack.push(index);
            index
        });
        Open { start, index }
    }

    /// Closes a span and returns its wall time.
    pub fn end(&mut self, open: Open) -> Duration {
        let duration = open.start.elapsed();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans closed out of order");
            self.spans[index].duration = duration;
        }
        duration
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        label: impl FnOnce() -> String,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, label);
        let out = f();
        (out, self.end(open))
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its child
    /// spans cover. Children of one span never overlap (one thread), so
    /// the covered time is the sum of their durations.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration);
            }
        }
        own
    }

    /// Per span name: `(calls, total, self)` summed over recorded spans.
    pub fn rollup(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration;
            e.2 += own;
        }
        out
    }

    /// Writes every span as one JSON line: id, parent, name, label,
    /// start, duration and self time in microseconds.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"label\": \"{}\", \
                 \"start_us\": {:.1}, \"dur_us\": {:.1}, \"self_us\": {:.1}}}",
                s.name,
                escape(&s.label),
                micros(s.start),
                micros(s.duration),
                micros(own),
            );
        }
        std::fs::write(path, out)
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.set_recording(true);
        let outer = tr.begin("outer", String::new);
        let ((), _) = tr.time("inner", String::new, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        let ((), _) = tr.time("inner", String::new, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        let total = tr.end(outer);
        let own = tr.self_times();
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(
            own[0] + tr.spans()[1].duration + tr.spans()[2].duration,
            total
        );
        assert_eq!(own[1], tr.spans()[1].duration);
        let rollup = tr.rollup();
        assert_eq!(rollup["inner"].0, 2);
        assert_eq!(rollup["outer"].1, total);
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut tr = Tracer::new();
        let ((), d) = tr.time(
            "x",
            || unreachable!("label built while not recording"),
            || std::thread::sleep(Duration::from_millis(1)),
        );
        assert!(d >= Duration::from_millis(1));
        assert!(tr.spans().is_empty());
    }
}
