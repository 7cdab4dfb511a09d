//! In-memory spans and counters recorded by the benchmark around each
//! public call it makes into the pipeline's crates.
//!
//! A span has a name, a start, an end, a parent span and an op id. Spans
//! are kept in memory and written out as JSON lines when the run ends; a
//! layer's self time is its spans' durations minus the part covered by
//! their direct children. Everything the benchmark calls runs on its own
//! thread, so the children of one span never overlap and their coverage is
//! the sum of their durations.
//!
//! Counters are kept beside the spans, and so are durations the library
//! reports for work inside a call (`report_seconds`).
//!
//! A disabled tracer records nothing: `span` calls its closure directly and
//! `count` returns at once, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Span and counter recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counting: bool,
    counters: BTreeMap<&'static str, f64>,
    reported: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counting: true,
            counters: BTreeMap::new(),
            reported: Vec::new(),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced run interleaves traced and
    /// untraced ops to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Limits counters to a fixed window of ops (spans keep recording), so
    /// that deterministic counts repeat exactly however long a run lasts.
    pub fn set_counting(&mut self, counting: bool) {
        self.counting = counting;
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled && self.counting {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// Records `secs` of time under `name` for the current op: a duration
    /// the library measured itself, for work inside a call the benchmark
    /// cannot wrap in a span. It counts as self time of `name` and is not
    /// subtracted from the enclosing span.
    pub fn report_seconds(&mut self, name: &'static str, secs: f64) {
        if self.enabled {
            self.reported.push((self.op, name, secs));
        }
    }

    /// The counters recorded so far.
    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    /// Self time per span name, in seconds, over the spans of the ops
    /// `keep` accepts.
    pub fn self_seconds(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            if !keep(s.op) {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(*covered);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        for &(op, name, secs) in &self.reported {
            if keep(op) {
                *out.entry(name).or_default() += secs;
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}
