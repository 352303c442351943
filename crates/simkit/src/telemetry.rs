//! Structured run telemetry: events and sinks.
//!
//! Every layer of the simulation stack (solvers, thermal stepper, PDN
//! analyzer, engine, sweep executor) can emit structured events —
//! span start/end pairs, counters, histograms, per-step gauges, and
//! domain events (gating changes, voltage emergencies, solver
//! convergence) — through a shared [`Telemetry`] handle. The handle is
//!
//! * **zero-overhead when disabled** — [`Telemetry::disabled`] carries no
//!   sink at all, so every emit site reduces to one branch on an
//!   `Option` and constructs nothing (no event, no allocation);
//! * **thread-safe** — handles are `Clone + Send + Sync` and all sinks
//!   accept events from any thread, so the parallel sweep executor can
//!   share one trace file across workers;
//! * **pluggable** — backends implement [`TelemetrySink`]:
//!   [`NoopSink`] (discard, reports itself inactive), [`MemorySink`]
//!   (in-memory recorder for tests), [`JsonlSink`] (JSON-lines file
//!   writer), plus the combinators [`FanoutSink`] and [`CountingSink`].
//!
//! The [`json`] submodule holds the dependency-free JSON writer/parser
//! the JSONL sink and the manifest validator share; [`manifest`] holds
//! the machine-readable per-run `manifest.json` schema; [`analyze`]
//! closes the loop with a streaming trace reader and the one trace
//! aggregate (event counts, counters, percentile rollups, span
//! durations, solver / gating / emergency aggregates) behind the
//! `tg-obs` CLI, the run summary tables, and — through
//! [`live::LiveSink`] — in-process health monitoring.
//!
//! # Examples
//!
//! ```
//! use simkit::telemetry::{EventKind, MemorySink, Telemetry};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::default());
//! let tel = Telemetry::with_sink(sink.clone());
//! {
//!     let _span = tel.span("solve");
//!     tel.counter("steps", 3);
//!     tel.histogram("residual", 1e-9);
//! }
//! assert_eq!(sink.count_kind(EventKind::SpanStart), 1);
//! assert_eq!(sink.count_kind(EventKind::SpanEnd), 1);
//! assert_eq!(sink.len(), 4);
//!
//! let off = Telemetry::disabled();
//! assert!(!off.is_enabled());
//! off.counter("steps", 3); // no-op, allocates nothing
//! ```

pub mod analyze;
pub mod json;
pub mod live;
pub mod manifest;
pub mod prof;
pub mod rules;
pub mod timeline;

use std::borrow::Cow;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The kind of a telemetry [`Event`].
///
/// The kind string (see [`EventKind::as_str`]) is what lands in the
/// `"kind"` field of each JSONL line, and what trace consumers key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A named span opened (paired with a later [`EventKind::SpanEnd`]).
    SpanStart,
    /// A named span closed; carries a `dur_s` field.
    SpanEnd,
    /// A monotonic counter increment; carries a `delta` field.
    Counter,
    /// An instantaneous sampled value; carries a `value` field.
    Gauge,
    /// A distribution observation; carries a `value` field.
    Histogram,
    /// A regulator gating decision or active-set change.
    Gating,
    /// A voltage-emergency check or occurrence.
    Emergency,
    /// An iterative solve finished; carries `iters` and `residual`.
    Solve,
    /// Coarse progress (sweep cells, run start/end).
    Progress,
    /// A spatial snapshot (downsampled thermal grid, voltage lanes,
    /// gating mask, hotspot) captured by the frame recorder.
    Frame,
}

impl EventKind {
    /// All kinds, in a stable order (used by validators).
    pub const ALL: [EventKind; 10] = [
        EventKind::SpanStart,
        EventKind::SpanEnd,
        EventKind::Counter,
        EventKind::Gauge,
        EventKind::Histogram,
        EventKind::Gating,
        EventKind::Emergency,
        EventKind::Solve,
        EventKind::Progress,
        EventKind::Frame,
    ];

    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Histogram => "histogram",
            EventKind::Gating => "gating",
            EventKind::Emergency => "emergency",
            EventKind::Solve => "solve",
            EventKind::Progress => "progress",
            EventKind::Frame => "frame",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// One typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (times, temperatures, residuals).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (labels).
    Str(String),
}

/// A single structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Seconds since the owning [`Telemetry`] handle's epoch.
    pub t_s: f64,
    /// Event kind (drives the `"kind"` wire field).
    pub kind: EventKind,
    /// Event name, e.g. `"thermal.max_c"` or `"transient"`.
    pub name: Cow<'static, str>,
    /// Additional key/value payload.
    pub fields: Vec<(Cow<'static, str>, FieldValue)>,
}

impl Event {
    /// Serialises the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 24 * self.fields.len());
        out.push_str("{\"t\":");
        json::write_f64(&mut out, self.t_s);
        out.push_str(",\"kind\":");
        json::write_str(&mut out, self.kind.as_str());
        out.push_str(",\"name\":");
        json::write_str(&mut out, &self.name);
        for (key, value) in &self.fields {
            out.push(',');
            json::write_str(&mut out, key);
            out.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => json::write_f64(&mut out, *v),
                FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                FieldValue::Str(v) => json::write_str(&mut out, v),
            }
        }
        out.push('}');
        out
    }
}

/// A telemetry backend: receives every emitted [`Event`].
///
/// Implementations must be cheap and non-blocking where possible; they
/// are called from solver hot paths (only when the handle is enabled).
pub trait TelemetrySink: Send + Sync + std::fmt::Debug {
    /// Whether emit sites should bother constructing events at all.
    ///
    /// [`NoopSink`] returns `false`, which makes a handle carrying it
    /// behave exactly like [`Telemetry::disabled`].
    fn active(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file-backed sinks.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every event and reports itself inactive, so emit sites
/// skip event construction entirely. Equivalent to
/// [`Telemetry::disabled`] in cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn active(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// In-memory recorder, mainly for tests and the overhead benchmark.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of recorded events of one kind.
    pub fn count_kind(&self, kind: EventKind) -> usize {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    }
}

impl TelemetrySink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// JSON-lines file writer: one event per line, buffered.
///
/// Write errors after creation are counted rather than panicking (the
/// simulation should not die because a trace disk filled up); call
/// [`JsonlSink::flush`] / check [`JsonlSink::write_errors`] at the end
/// of a run.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    lines: AtomicU64,
    errors: AtomicU64,
    flush_every: u64,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
            lines: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            flush_every: 0,
        })
    }

    /// Flushes the writer every `n` recorded events (`0` disables —
    /// the default), so a tailing reader (`tg-obs watch`) sees fresh
    /// events instead of waiting for the run's final flush. Small `n`
    /// trades syscalls for latency; the buffered write itself stays
    /// batched.
    #[must_use]
    pub fn flush_every(mut self, n: u64) -> Self {
        self.flush_every = n;
        self
    }

    /// Number of lines successfully handed to the writer.
    pub fn lines_written(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Number of write failures since creation.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        match writer.write_all(line.as_bytes()) {
            Ok(()) => {
                let written = self.lines.fetch_add(1, Ordering::Relaxed) + 1;
                if self.flush_every > 0 && written.is_multiple_of(self.flush_every) {
                    let _ = writer.flush();
                }
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn flush(&self) -> io::Result<()> {
        self.writer.lock().expect("jsonl sink poisoned").flush()
    }
}

impl Drop for JsonlSink {
    /// Flushes the buffered tail so a run that crashes (or simply
    /// forgets the final flush) still leaves a parseable trace on disk.
    /// `BufWriter`'s own drop-flush swallows nothing extra here, but it
    /// never runs at all when the mutex was poisoned by a panicking
    /// writer thread — recover the guard and flush anyway. Errors are
    /// deliberately ignored: drop during unwind must not double-panic.
    fn drop(&mut self) {
        match self.writer.lock() {
            Ok(mut writer) => {
                let _ = writer.flush();
            }
            Err(poisoned) => {
                let _ = poisoned.into_inner().flush();
            }
        }
    }
}

/// Forwards every event to each of several sinks (e.g. a JSONL file
/// plus a [`live::LiveSink`]).
#[derive(Debug, Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TelemetrySink>>,
}

impl FanoutSink {
    /// Builds a fanout over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TelemetrySink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TelemetrySink for FanoutSink {
    fn active(&self) -> bool {
        self.sinks.iter().any(|s| s.active())
    }

    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn flush(&self) -> io::Result<()> {
        for sink in &self.sinks {
            sink.flush()?;
        }
        Ok(())
    }
}

/// Counts events passing through to an inner sink — the sweep executor
/// wraps the shared trace sink per cell to attribute event counts in
/// the run manifest.
#[derive(Debug)]
pub struct CountingSink {
    inner: Arc<dyn TelemetrySink>,
    count: AtomicU64,
}

impl CountingSink {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn TelemetrySink>) -> Self {
        CountingSink {
            inner,
            count: AtomicU64::new(0),
        }
    }

    /// Number of events seen so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl TelemetrySink for CountingSink {
    fn active(&self) -> bool {
        self.inner.active()
    }

    fn record(&self, event: &Event) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.record(event);
    }

    fn flush(&self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct TelemetryInner {
    sink: Arc<dyn TelemetrySink>,
    epoch: Instant,
    active: bool,
    /// Track (worker/cell lane) id stamped on every event; 0 is the
    /// run-level default track and is omitted from the wire format so
    /// single-track traces stay byte-compatible with older readers.
    track: u64,
}

impl std::fmt::Debug for TelemetryInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryInner")
            .field("active", &self.active)
            .field("track", &self.track)
            .finish_non_exhaustive()
    }
}

/// A cheap, cloneable handle every instrumented component holds.
///
/// The default handle is disabled: emit methods check one flag and
/// return without constructing anything, so instrumentation costs
/// nothing on hot paths unless a sink is installed.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The zero-overhead disabled handle (also `Telemetry::default()`).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A handle emitting into `sink`; the epoch (t = 0) is now.
    ///
    /// If the sink reports itself [inactive](TelemetrySink::active)
    /// (e.g. [`NoopSink`]) the handle behaves like
    /// [`Telemetry::disabled`]: no events are constructed.
    pub fn with_sink(sink: Arc<dyn TelemetrySink>) -> Self {
        Telemetry::with_sink_tracked(sink, 0)
    }

    /// Like [`Telemetry::with_sink`], but every event carries a
    /// `"track"` field identifying the worker/cell lane it came from.
    /// Track 0 is the run-level default and emits no field, so existing
    /// single-track traces are unchanged; sweep workers take tracks
    /// 1.. so trace consumers (the profiler, the Chrome-trace exporter)
    /// can pair and lay out spans per worker.
    pub fn with_sink_tracked(sink: Arc<dyn TelemetrySink>, track: u64) -> Self {
        let active = sink.active();
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                sink,
                epoch: Instant::now(),
                active,
                track,
            })),
        }
    }

    /// The track id events from this handle carry (0 when disabled or
    /// untracked).
    pub fn track(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.track)
    }

    /// A handle plus the in-memory recorder behind it, for tests.
    pub fn recorder() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::default());
        (Telemetry::with_sink(sink.clone()), sink)
    }

    /// Whether events will actually be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(&self.inner, Some(inner) if inner.active)
    }

    /// Seconds since the handle's epoch (0.0 when disabled).
    pub fn now_s(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file-backed sinks.
    pub fn flush(&self) -> io::Result<()> {
        match &self.inner {
            Some(inner) => inner.sink.flush(),
            None => Ok(()),
        }
    }

    fn send(
        &self,
        kind: EventKind,
        name: Cow<'static, str>,
        mut fields: Vec<(Cow<'static, str>, FieldValue)>,
    ) {
        if let Some(inner) = &self.inner {
            if inner.active {
                if inner.track > 0 {
                    fields.push((Cow::Borrowed("track"), FieldValue::U64(inner.track)));
                }
                let event = Event {
                    t_s: inner.epoch.elapsed().as_secs_f64(),
                    kind,
                    name,
                    fields,
                };
                inner.sink.record(&event);
            }
        }
    }

    /// Emits a counter increment.
    pub fn counter(&self, name: &'static str, delta: u64) {
        if self.is_enabled() {
            self.send(
                EventKind::Counter,
                Cow::Borrowed(name),
                vec![(Cow::Borrowed("delta"), FieldValue::U64(delta))],
            );
        }
    }

    /// Emits an instantaneous gauge sample.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if self.is_enabled() {
            self.send(
                EventKind::Gauge,
                Cow::Borrowed(name),
                vec![(Cow::Borrowed("value"), FieldValue::F64(value))],
            );
        }
    }

    /// Emits a histogram observation.
    pub fn histogram(&self, name: &'static str, value: f64) {
        if self.is_enabled() {
            self.send(
                EventKind::Histogram,
                Cow::Borrowed(name),
                vec![(Cow::Borrowed("value"), FieldValue::F64(value))],
            );
        }
    }

    /// Emits a solver-convergence event (iteration count + residual).
    pub fn solve(&self, name: &'static str, iterations: usize, residual: f64) {
        if self.is_enabled() {
            self.send(
                EventKind::Solve,
                Cow::Borrowed(name),
                vec![
                    (Cow::Borrowed("iters"), FieldValue::U64(iterations as u64)),
                    (Cow::Borrowed("residual"), FieldValue::F64(residual)),
                ],
            );
        }
    }

    /// Emits a solver-convergence event annotated with the backend that
    /// produced it and the factor/solve wall-time split — the direct
    /// solver reports its (possibly zero, when cached) factorization time
    /// separately from the triangular solves; iterative backends report
    /// `factor_s = 0`.
    pub fn solve_timed(
        &self,
        name: &'static str,
        iterations: usize,
        residual: f64,
        backend: &'static str,
        factor_s: f64,
        solve_s: f64,
    ) {
        if self.is_enabled() {
            self.send(
                EventKind::Solve,
                Cow::Borrowed(name),
                vec![
                    (Cow::Borrowed("iters"), FieldValue::U64(iterations as u64)),
                    (Cow::Borrowed("residual"), FieldValue::F64(residual)),
                    (
                        Cow::Borrowed("backend"),
                        FieldValue::Str(backend.to_string()),
                    ),
                    (Cow::Borrowed("factor_s"), FieldValue::F64(factor_s)),
                    (Cow::Borrowed("solve_s"), FieldValue::F64(solve_s)),
                ],
            );
        }
    }

    /// Starts building an event of arbitrary kind; finish with
    /// [`EventBuilder::emit`]. No-op (and allocation-free) when the
    /// handle is disabled.
    pub fn event(&self, kind: EventKind, name: &'static str) -> EventBuilder<'_> {
        EventBuilder {
            telemetry: self,
            event: if self.is_enabled() {
                Some((kind, Cow::Borrowed(name), Vec::new()))
            } else {
                None
            },
        }
    }

    /// Opens a span; the returned guard emits the matching
    /// [`EventKind::SpanEnd`] (with a `dur_s` field) when dropped.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if self.is_enabled() {
            self.send(EventKind::SpanStart, Cow::Borrowed(name), Vec::new());
            SpanGuard {
                telemetry: self.clone(),
                name,
                started: Some(Instant::now()),
            }
        } else {
            SpanGuard {
                telemetry: Telemetry::disabled(),
                name,
                started: None,
            }
        }
    }
}

/// The in-flight payload of an [`EventBuilder`]: kind, name, and the
/// fields accumulated so far.
type PendingEvent = (
    EventKind,
    Cow<'static, str>,
    Vec<(Cow<'static, str>, FieldValue)>,
);

/// Incremental builder returned by [`Telemetry::event`].
#[derive(Debug)]
pub struct EventBuilder<'a> {
    telemetry: &'a Telemetry,
    event: Option<PendingEvent>,
}

impl EventBuilder<'_> {
    fn push(mut self, key: &'static str, value: FieldValue) -> Self {
        if let Some((_, _, fields)) = &mut self.event {
            fields.push((Cow::Borrowed(key), value));
        }
        self
    }

    /// Attaches an unsigned-integer field.
    pub fn field_u64(self, key: &'static str, value: u64) -> Self {
        self.push(key, FieldValue::U64(value))
    }

    /// Attaches a signed-integer field.
    pub fn field_i64(self, key: &'static str, value: i64) -> Self {
        self.push(key, FieldValue::I64(value))
    }

    /// Attaches a floating-point field.
    pub fn field_f64(self, key: &'static str, value: f64) -> Self {
        self.push(key, FieldValue::F64(value))
    }

    /// Attaches a boolean field.
    pub fn field_bool(self, key: &'static str, value: bool) -> Self {
        self.push(key, FieldValue::Bool(value))
    }

    /// Attaches a string field (only evaluated when enabled if the
    /// caller guards with [`Telemetry::is_enabled`]).
    pub fn field_str(self, key: &'static str, value: impl Into<String>) -> Self {
        self.push(key, FieldValue::Str(value.into()))
    }

    /// Emits the built event (no-op when the handle is disabled).
    pub fn emit(self) {
        if let Some((kind, name, fields)) = self.event {
            self.telemetry.send(kind, name, fields);
        }
    }
}

/// RAII guard emitting a span-end event on drop; see [`Telemetry::span`].
#[derive(Debug)]
pub struct SpanGuard {
    telemetry: Telemetry,
    name: &'static str,
    started: Option<Instant>,
}

impl SpanGuard {
    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            self.telemetry.send(
                EventKind::SpanEnd,
                Cow::Borrowed(self.name),
                vec![(
                    Cow::Borrowed("dur_s"),
                    FieldValue::F64(started.elapsed().as_secs_f64()),
                )],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("a", 1);
        tel.gauge("b", 2.0);
        tel.histogram("c", 3.0);
        tel.solve("d", 4, 1e-9);
        tel.event(EventKind::Gating, "e").field_u64("k", 1).emit();
        let span = tel.span("f");
        span.finish();
        assert_eq!(tel.now_s(), 0.0);
        tel.flush().expect("noop flush");
    }

    #[test]
    fn noop_sink_handle_is_disabled() {
        let tel = Telemetry::with_sink(Arc::new(NoopSink));
        assert!(!tel.is_enabled());
    }

    #[test]
    fn memory_sink_records_all_emit_shapes() {
        let (tel, sink) = Telemetry::recorder();
        assert!(tel.is_enabled());
        {
            let _span = tel.span("phase");
            tel.counter("steps", 7);
            tel.gauge("temp_c", 81.5);
            tel.histogram("residual", 1e-8);
            tel.solve("cg", 12, 1e-10);
            tel.event(EventKind::Emergency, "check")
                .field_u64("domains", 2)
                .field_bool("any", true)
                .field_f64("worst", 0.06)
                .field_str("policy", "oracvt")
                .emit();
        }
        let events = sink.events();
        assert_eq!(events.len(), 7);
        assert_eq!(sink.count_kind(EventKind::SpanStart), 1);
        assert_eq!(sink.count_kind(EventKind::SpanEnd), 1);
        assert_eq!(sink.count_kind(EventKind::Emergency), 1);
        let end = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd)
            .expect("span end recorded");
        assert_eq!(end.name, "phase");
        assert!(matches!(end.fields[0], (ref k, FieldValue::F64(d)) if k == "dur_s" && d >= 0.0));
        let mut last_t = 0.0;
        for event in &events {
            assert!(event.t_s >= last_t);
            last_t = event.t_s;
        }
    }

    #[test]
    fn event_json_is_parseable_and_escaped() {
        let (tel, sink) = Telemetry::recorder();
        tel.event(EventKind::Progress, "cell")
            .field_str("label", "fft-\"quoted\"\n")
            .field_u64("index", 3)
            .field_f64("nan", f64::NAN)
            .emit();
        let line = sink.events()[0].to_json();
        let value = json::parse(&line).expect("event json parses");
        assert_eq!(
            value.get("kind").and_then(json::JsonValue::as_str),
            Some("progress")
        );
        assert_eq!(
            value.get("label").and_then(json::JsonValue::as_str),
            Some("fft-\"quoted\"\n")
        );
        assert_eq!(
            value.get("index").and_then(json::JsonValue::as_f64),
            Some(3.0)
        );
        assert!(value.get("nan").expect("nan field present").is_null());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("bogus"), None);
    }

    #[test]
    fn counting_and_fanout_sinks_compose() {
        let mem_a = Arc::new(MemorySink::default());
        let mem_b = Arc::new(MemorySink::default());
        let fan = Arc::new(FanoutSink::new(vec![mem_a.clone(), mem_b.clone()]));
        let counting = Arc::new(CountingSink::new(fan));
        let tel = Telemetry::with_sink(counting.clone());
        tel.counter("x", 1);
        tel.counter("x", 2);
        assert_eq!(counting.count(), 2);
        assert_eq!(mem_a.len(), 2);
        assert_eq!(mem_b.len(), 2);
    }

    #[test]
    fn sink_swapping_changes_destination() {
        let (tel_a, sink_a) = Telemetry::recorder();
        tel_a.counter("x", 1);
        // A component re-configured with a new handle writes to the new
        // sink only; the old recorder keeps its history.
        let (tel_b, sink_b) = Telemetry::recorder();
        tel_b.counter("x", 1);
        tel_b.counter("x", 1);
        assert_eq!(sink_a.len(), 1);
        assert_eq!(sink_b.len(), 2);
    }

    #[test]
    fn tracked_handle_stamps_every_event() {
        let sink = Arc::new(MemorySink::default());
        let tel = Telemetry::with_sink_tracked(sink.clone(), 3);
        assert_eq!(tel.track(), 3);
        tel.counter("x", 1);
        {
            let _span = tel.span("work");
        }
        for event in sink.events() {
            let track = event.fields.iter().find(|(k, _)| k == "track");
            assert!(
                matches!(track, Some((_, FieldValue::U64(3)))),
                "event {:?} missing track field",
                event.name
            );
        }
        // Track 0 (the default) stays off the wire entirely.
        let (tel0, sink0) = Telemetry::recorder();
        assert_eq!(tel0.track(), 0);
        tel0.counter("x", 1);
        assert!(sink0.events()[0].fields.iter().all(|(k, _)| k != "track"));
    }

    #[test]
    fn jsonl_sink_flushes_buffered_tail_on_drop() {
        let dir = std::env::temp_dir().join(format!(
            "tg_jsonl_drop_{}_{:?}",
            std::process::id(),
            thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("trace.jsonl");
        {
            let tel = Telemetry::with_sink(Arc::new(JsonlSink::create(&path).expect("create")));
            tel.counter("crash.test", 1);
            // No explicit flush: the event sits in the BufWriter.
        }
        let text = std::fs::read_to_string(&path).expect("trace readable after drop");
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("crash.test"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_sink_flush_every_makes_events_visible_mid_run() {
        let dir = std::env::temp_dir().join(format!(
            "tg_jsonl_flush_every_{}_{:?}",
            std::process::id(),
            thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("trace.jsonl");
        let sink = JsonlSink::create(&path).expect("create").flush_every(4);
        let tel = Telemetry::with_sink(Arc::new(sink));
        for k in 0..10 {
            tel.counter("tick", k);
        }
        // 10 events with flush_every(4): the first 8 are on disk while
        // the run is still alive; the last 2 wait in the buffer.
        let text = std::fs::read_to_string(&path).expect("readable mid-run");
        assert_eq!(text.lines().count(), 8);
        drop(tel);
        let text = std::fs::read_to_string(&path).expect("readable after drop");
        assert_eq!(text.lines().count(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_sink_survives_panic_unwind_with_parseable_trace() {
        let dir = std::env::temp_dir().join(format!(
            "tg_jsonl_panic_{}_{:?}",
            std::process::id(),
            thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("trace.jsonl");
        let tel = Telemetry::with_sink(Arc::new(JsonlSink::create(&path).expect("create")));
        let worker = tel.clone();
        let crashed = thread::spawn(move || {
            worker.counter("before.panic", 1);
            panic!("simulated mid-run crash");
        })
        .join();
        assert!(crashed.is_err(), "worker thread must have panicked");
        drop(tel); // last handle: the sink's Drop flush runs here
        let text = std::fs::read_to_string(&path).expect("trace readable after crash");
        assert!(text.contains("before.panic"));
        for line in text.lines() {
            json::parse(line).expect("every flushed line parses");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_handle_accepts_events_from_many_threads() {
        let (tel, sink) = Telemetry::recorder();
        thread::scope(|scope| {
            for t in 0..4 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for _ in 0..250 {
                        tel.counter("thread.events", t + 1);
                    }
                });
            }
        });
        assert_eq!(sink.len(), 1000);
    }
}
