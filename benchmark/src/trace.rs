//! In-memory spans around the benchmark's own calls into each crate.
//!
//! Every span records its name, start, end, parent span and the content
//! hash of the scenario it served. Spans stay in memory while the
//! workload runs and are written out as JSON lines when it ends, so
//! writing never lands inside a timed region.

use simkit::telemetry::json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `thermal.step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Content hash of the scenario the call served (0 for set-up).
    pub scenario: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Spans opened before
    /// it is closed become its children.
    pub fn begin(&mut self, name: &'static str, scenario: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            scenario,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` returned by [`Tracer::begin`].
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in nesting order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, scenario: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, scenario);
        let out = f();
        self.end(id);
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::sum_since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total seconds of the spans named `name` recorded since `mark`.
    pub fn sum_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!("{{\"id\":{id},\"name\":"));
            json::write_str(&mut out, s.name);
            out.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"scenario\":\"{:016x}\"}}\n",
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.scenario
            ));
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::new(true);
        let outer = t.begin("replay", 7);
        let mark = t.len();
        let x = t.leaf("pdn.ir_drop", 7, || 2 + 2);
        t.leaf("pdn.ir_drop", 7, || ());
        t.end(outer);
        assert_eq!(x, 4);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.scenario == 7));
        assert_eq!(t.seconds("pdn.ir_drop").len(), 2);
        let sum = t.sum_since(mark, "pdn.ir_drop");
        assert!(sum >= 0.0 && sum <= t.spans[0].seconds());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 1);
        assert_eq!(t.leaf("x", 1, || 5), 5);
        t.end(id);
        assert!(t.is_empty());
    }
}
