//! Trace analytics: reading JSONL telemetry traces and folding events
//! into one aggregate.
//!
//! The [`telemetry`](crate::telemetry) module *emits* structured traces;
//! this module *consumes* them. A [`TraceReader`] streams a
//! `trace.jsonl` file line by line through the hand-rolled
//! [`json`](super::json) parser (skipping corrupt interior lines and
//! recovering from a truncated final line, so a trace cut mid-write
//! still analyzes), a
//! [`TraceTailer`] follows one that is still being written, and a
//! [`TraceAnalysis`] folds the event stream — parsed lines or emit-side
//! events, through the [`EventView`] trait — into:
//!
//! * per-[`EventKind`] event counts and per-name counter totals;
//! * per-name value [`Rollup`]s for gauges and histograms, with
//!   p50/p95/p99 percentiles — exact ([`TraceAnalysis::exact`]) or
//!   bounded-memory P² estimates ([`TraceAnalysis::streaming`]);
//! * span begin/end pairing per `(track, name)` into per-name duration
//!   rollups ([`SpanStats`], with unmatched starts/ends surfaced rather
//!   than silently dropped);
//! * solver-convergence aggregates per solve site ([`SolverRollup`]:
//!   iteration and residual distributions);
//! * gating-churn ([`GatingStats`]) and voltage-emergency
//!   ([`EmergencyStats`]) aggregates.
//!
//! Nothing here panics on hostile input: unknown kinds, missing fields,
//! `null`ed non-finite numbers, and malformed lines are counted and
//! reported instead.
//!
//! # Examples
//!
//! ```
//! use simkit::telemetry::analyze::TraceAnalysis;
//! use simkit::telemetry::{EventKind, Telemetry};
//!
//! let (tel, sink) = Telemetry::recorder();
//! {
//!     let _span = tel.span("engine.run");
//!     tel.gauge("thermal.max_c", 81.5);
//!     tel.solve("thermal.transient_cg", 12, 1e-9);
//! }
//! let trace: String = sink
//!     .events()
//!     .iter()
//!     .map(|e| e.to_json() + "\n")
//!     .collect();
//! let analysis = TraceAnalysis::from_reader(trace.as_bytes()).unwrap();
//! assert_eq!(analysis.events, 4);
//! assert_eq!(analysis.kind_count(EventKind::SpanEnd), 1);
//! assert_eq!(analysis.rollup("thermal.max_c").unwrap().count(), 1);
//! assert_eq!(analysis.solver("thermal.transient_cg").unwrap().solves(), 1);
//!
//! // Emit-side events fold through the same `observe`.
//! let mut live = TraceAnalysis::streaming();
//! for event in sink.events() {
//!     live.observe(&event);
//! }
//! assert_eq!(live.events, analysis.events);
//! ```

use super::json::JsonValue;
use super::live::P2Grid;
use super::{Event, EventKind, FieldValue};
use crate::stats;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// One trace line decoded into its envelope and payload fields.
///
/// Unlike the emit-side [`Event`], field values are parsed
/// [`JsonValue`]s: a consumer cannot know the original Rust type, and
/// non-finite floats arrive as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Seconds since the producing handle's epoch.
    pub t_s: f64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name, e.g. `"thermal.max_silicon_c"`.
    pub name: String,
    /// Remaining payload members, in document order.
    pub fields: Vec<(String, JsonValue)>,
}

impl ParsedEvent {
    /// Decodes one JSONL trace line.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem: malformed JSON, a
    /// non-object document, a missing/invalid `t`, `kind`, or `name`.
    pub fn from_line(line: &str) -> Result<ParsedEvent, String> {
        let doc = super::json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let members = doc.as_object().ok_or("event is not a JSON object")?;
        let t_s = doc
            .get("t")
            .and_then(JsonValue::as_f64)
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or("missing finite numeric field \"t\"")?;
        let kind_str = doc
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field \"kind\"")?;
        let kind =
            EventKind::parse(kind_str).ok_or_else(|| format!("unknown kind {kind_str:?}"))?;
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .filter(|n| !n.is_empty())
            .ok_or("missing string field \"name\"")?
            .to_string();
        let fields = members
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "t" | "kind" | "name"))
            .cloned()
            .collect();
        Ok(ParsedEvent {
            t_s,
            kind,
            name,
            fields,
        })
    }

    /// Looks up a payload field.
    pub fn field(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A payload field as a number.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(JsonValue::as_f64)
    }

    /// A payload field as an unsigned integer (negative values clamp
    /// to 0, fractional values truncate).
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field_f64(key).map(|v| v.max(0.0) as u64)
    }
}

/// Streaming JSONL trace reader with recovery.
///
/// Reads one event per [`TraceReader::next_event`] call. A malformed
/// line *with* a trailing newline (mid-file corruption) is counted in
/// [`malformed_lines`](TraceReader::malformed_lines) and skipped; a
/// malformed *final* line without one (the writer died mid-line, or the
/// file is still being appended to) ends the stream cleanly and sets
/// [`truncated`](TraceReader::truncated). Blank lines are ignored. The
/// first problem of either sort is kept, with its line number, in
/// [`first_error`](TraceReader::first_error).
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    buf: String,
    line: u64,
    lines_read: u64,
    malformed: u64,
    truncated: bool,
    first_error: Option<(u64, String)>,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered byte source.
    pub fn new(reader: R) -> Self {
        TraceReader {
            reader,
            buf: String::new(),
            line: 0,
            lines_read: 0,
            malformed: 0,
            truncated: false,
            first_error: None,
        }
    }

    /// The next well-formed event, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including invalid UTF-8) from the
    /// underlying reader; recoverable *format* problems never error.
    pub fn next_event(&mut self) -> io::Result<Option<ParsedEvent>> {
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                return Ok(None);
            }
            self.line += 1;
            let complete = self.buf.ends_with('\n');
            let line = self.buf.trim();
            if line.is_empty() {
                continue;
            }
            self.lines_read += 1;
            let error = match ParsedEvent::from_line(line) {
                Ok(event) => return Ok(Some(event)),
                Err(e) => e,
            };
            if self.first_error.is_none() {
                self.first_error = Some((self.line, error));
            }
            if !complete {
                // Final unterminated line: a writer cut mid-record.
                self.truncated = true;
                return Ok(None);
            }
            self.malformed += 1;
        }
    }

    /// The 1-based line number of the line read last (blank lines
    /// count).
    pub fn line(&self) -> u64 {
        self.line
    }

    /// The first malformed or truncated line seen so far: its line
    /// number and what was wrong with it.
    pub fn first_error(&self) -> Option<(u64, &str)> {
        self.first_error
            .as_ref()
            .map(|(line, error)| (*line, error.as_str()))
    }

    /// Non-blank lines consumed so far (including bad ones).
    pub fn lines_read(&self) -> u64 {
        self.lines_read
    }

    /// Malformed interior lines skipped so far.
    pub fn malformed_lines(&self) -> u64 {
        self.malformed
    }

    /// Whether the stream ended in a truncated (unterminated,
    /// unparseable) final line.
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file for streaming.
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(TraceReader::new(BufReader::new(File::open(path)?)))
    }
}

/// Incremental reader following a trace file that is still being
/// written — the tailing mode of [`TraceReader`].
///
/// Each [`TraceTailer::poll`] drains the complete (`\n`-terminated)
/// lines appended since the last poll and leaves anything after the
/// final newline untouched: the committed [`offset`](TraceTailer::offset)
/// only ever advances past whole lines, so a writer cut mid-record is
/// re-read — intact — on the next poll once the rest of the line lands.
/// A watcher can therefore persist the offset and
/// [`resume`](TraceTailer::resume) later; the resumed stream yields
/// exactly the events a one-shot read of the finished file would.
///
/// Malformed *complete* lines are counted and skipped, mirroring
/// [`TraceReader`]'s recovery behaviour.
#[derive(Debug)]
pub struct TraceTailer {
    file: File,
    offset: u64,
    malformed: u64,
    partial_tail: bool,
}

impl TraceTailer {
    /// Starts tailing `path` from the beginning.
    ///
    /// # Errors
    ///
    /// Propagates the open failure (e.g. the writer has not created the
    /// file yet — callers typically retry).
    pub fn follow(path: &Path) -> io::Result<Self> {
        TraceTailer::resume(path, 0)
    }

    /// Resumes tailing `path` from a previously committed byte
    /// `offset`. Resuming at [`TraceTailer::offset`] of an earlier
    /// tailer continues the stream without loss or duplication.
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn resume(path: &Path, offset: u64) -> io::Result<Self> {
        Ok(TraceTailer {
            file: File::open(path)?,
            offset,
            malformed: 0,
            partial_tail: false,
        })
    }

    /// Drains the complete lines currently available past the committed
    /// offset, in file order. An empty vector means no complete new
    /// line has landed yet — poll again later.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; format problems (malformed complete
    /// lines, invalid UTF-8, partial tails) never error.
    pub fn poll(&mut self) -> io::Result<Vec<ParsedEvent>> {
        use std::io::{Read, Seek, SeekFrom};
        self.file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        let mut events = Vec::new();
        let mut consumed = 0usize;
        while let Some(len) = buf[consumed..].iter().position(|&b| b == b'\n') {
            let bytes = &buf[consumed..consumed + len];
            consumed += len + 1;
            let line = match std::str::from_utf8(bytes) {
                Ok(text) => text.trim(),
                Err(_) => {
                    self.malformed += 1;
                    continue;
                }
            };
            if line.is_empty() {
                continue;
            }
            match ParsedEvent::from_line(line) {
                Ok(event) => events.push(event),
                Err(_) => self.malformed += 1,
            }
        }
        self.offset += consumed as u64;
        self.partial_tail = consumed < buf.len();
        Ok(events)
    }

    /// The committed byte offset: the start of the first line not yet
    /// returned as a complete event. Safe to persist and
    /// [`resume`](TraceTailer::resume) from.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Malformed complete lines skipped so far.
    pub fn malformed_lines(&self) -> u64 {
        self.malformed
    }

    /// Whether the last poll saw bytes after the final newline — a
    /// line still being written (or a writer that died mid-record).
    pub fn partial_tail(&self) -> bool {
        self.partial_tail
    }
}

/// The event fields the aggregate reads, abstracted over the emit-side
/// [`Event`] (in-process sinks, recorders) and the consume-side
/// [`ParsedEvent`] (trace files) so both fold through one
/// [`TraceAnalysis::observe`].
///
/// Numeric access mirrors the JSONL round trip: an emit-side non-finite
/// float reads as `None`, exactly as its `null` wire form would.
pub trait EventView {
    /// Event kind.
    fn kind(&self) -> EventKind;
    /// Event name.
    fn name(&self) -> &str;
    /// Seconds since the producing handle's epoch.
    fn t_s(&self) -> f64;
    /// A payload field as a finite number.
    fn num(&self, key: &str) -> Option<f64>;

    /// A payload field as an unsigned integer (negative values clamp
    /// to 0, fractional values truncate).
    fn num_u64(&self, key: &str) -> Option<u64> {
        self.num(key).map(|v| v.max(0.0) as u64)
    }

    /// The track id stamped on the event (0 when absent).
    fn track(&self) -> u64 {
        self.num_u64("track").unwrap_or(0)
    }
}

impl EventView for ParsedEvent {
    fn kind(&self) -> EventKind {
        self.kind
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn t_s(&self) -> f64 {
        self.t_s
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.field_f64(key)
    }
}

impl EventView for Event {
    fn kind(&self) -> EventKind {
        self.kind
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn t_s(&self) -> f64 {
        self.t_s
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                FieldValue::U64(x) => Some(*x as f64),
                FieldValue::I64(x) => Some(*x as f64),
                FieldValue::F64(x) => x.is_finite().then_some(*x),
                FieldValue::Bool(_) | FieldValue::Str(_) => None,
            })
    }
}

/// Where a [`Rollup`] keeps what its percentiles are computed from.
#[derive(Debug, Clone, PartialEq)]
enum Quantiles {
    /// Every finite observation, in arrival order: exact percentiles.
    Exact(Vec<f64>),
    /// A thirteen-marker P² grid: bounded memory, estimated p50/p95/p99.
    P2(P2Grid),
}

/// Distribution rollup of one named value stream: exact count /
/// non-finite count / sum / min / max / mean, plus percentiles from one
/// of two quantile stores.
///
/// [`Rollup::exact`] keeps every finite observation, so any percentile
/// is exact (a finished trace is bounded by run length).
/// [`Rollup::streaming`] keeps a [`P2Grid`] instead — O(1) memory for a
/// watcher following a multi-hour sweep — and answers p0/p50/p95/p99/
/// p100 only. Both stores agree bit for bit on everything but the
/// interior percentiles. Non-finite observations — including `null`s
/// the JSON writer substitutes for NaN — are counted separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    count: u64,
    non_finite: u64,
    min: f64,
    max: f64,
    sum: f64,
    quantiles: Quantiles,
}

impl Rollup {
    /// An empty rollup with exact percentiles.
    pub fn exact() -> Self {
        Rollup::with(Quantiles::Exact(Vec::new()))
    }

    /// An empty rollup with bounded-memory P² percentile estimates.
    pub fn streaming() -> Self {
        Rollup::with(Quantiles::P2(P2Grid::new()))
    }

    fn with(quantiles: Quantiles) -> Self {
        Rollup {
            count: 0,
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            // `Iterator::sum` over f64 starts at -0.0; so does this, so
            // the running sum equals summing the kept values.
            sum: -0.0,
            quantiles,
        }
    }

    /// Folds one observation in (non-finite values are counted but not
    /// ranked).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        match &mut self.quantiles {
            Quantiles::Exact(values) => values.push(value),
            Quantiles::P2(grid) => grid.observe(value),
        }
    }

    /// Folds a field that may be absent or `null`: a missing number is
    /// counted as non-finite.
    fn observe_field(&mut self, value: Option<f64>) {
        self.observe(value.unwrap_or(f64::NAN));
    }

    /// Number of finite observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of non-finite / unusable observations.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of finite observations; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest finite observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest finite observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Linear-interpolated percentile over the finite observations.
    /// The exact store answers any `p`; the streaming store answers 0
    /// and 100 (exact min/max) and 50, 95, 99 (P² estimates), and
    /// `None` for anything else.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        match &self.quantiles {
            Quantiles::Exact(values) => stats::percentile(values, p),
            Quantiles::P2(grid) => match p {
                0.0 => self.min(),
                50.0 | 95.0 | 99.0 => grid.estimate(p / 100.0),
                100.0 => self.max(),
                _ => None,
            },
        }
    }
}

/// Span begin/end pairing state and completed-duration rollup for one
/// span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Starts not yet matched by an end, over all tracks (non-zero at
    /// end of trace means the run died inside this span).
    pub open: u64,
    /// Durations (`dur_s`) of completed spans.
    pub durations: Rollup,
    /// Ends that arrived with no matching start on their track.
    pub unmatched_ends: u64,
}

impl SpanStats {
    /// Completed start/end pairs.
    pub fn completed(&self) -> u64 {
        self.durations.count() + self.durations.non_finite()
    }
}

/// Solver-convergence rollup for one solve site (`thermal.transient_cg`,
/// `pdn.ir_cg`, …): iteration-count and final-residual distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverRollup {
    /// Iterations per solve.
    pub iters: Rollup,
    /// Final relative residual per solve.
    pub residuals: Rollup,
}

impl SolverRollup {
    /// Number of solve events folded in.
    pub fn solves(&self) -> u64 {
        self.iters.count() + self.iters.non_finite()
    }
}

/// Aggregate over the regulator gating decisions of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GatingStats {
    /// Gating events seen.
    pub decisions: u64,
    /// Regulators switched on across all decisions.
    pub turned_on: u64,
    /// Regulators switched off across all decisions.
    pub turned_off: u64,
    /// Active-regulator count per decision.
    pub active: Rollup,
}

impl GatingStats {
    /// Total switching activity (on + off transitions).
    pub fn churn(&self) -> u64 {
        self.turned_on + self.turned_off
    }

    /// Mean switching activity per decision; `None` with no decisions.
    pub fn churn_per_decision(&self) -> Option<f64> {
        if self.decisions == 0 {
            None
        } else {
            Some(self.churn() as f64 / self.decisions as f64)
        }
    }
}

/// Aggregate over the voltage-emergency checks of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmergencyStats {
    /// Emergency-check events seen.
    pub checks: u64,
    /// Checks that flagged at least one domain.
    pub with_emergency: u64,
    /// Domain flags raised, summed over all checks.
    pub flagged_domains: u64,
    /// Ground-truth emergency domains, summed over all checks.
    pub true_domains: u64,
    /// Mispredicted domains, summed over all checks.
    pub mispredicted: u64,
}

impl EmergencyStats {
    /// Fraction of checks that flagged an emergency; `None` with no
    /// checks.
    pub fn emergency_rate(&self) -> Option<f64> {
        if self.checks == 0 {
            None
        } else {
            Some(self.with_emergency as f64 / self.checks as f64)
        }
    }
}

/// The one trace aggregate: per-kind event counts, counter totals,
/// value rollups, span pairing, and solver / gating / emergency
/// aggregates, folded one event at a time by [`TraceAnalysis::observe`].
///
/// The constructor picks the rollups' quantile store:
/// [`TraceAnalysis::exact`] for a finished trace (`summarize`, `diff`,
/// `check`, snapshots), [`TraceAnalysis::streaming`] for bounded memory
/// over a live one ([`LiveSink`](super::live::LiveSink), `watch`).
/// Everything but the interior rollup percentiles is identical between
/// the two.
///
/// Rollups, counters, and solver sites are keyed by name across tracks.
/// Spans pair per `(track, name)` — a sweep worker's end never closes
/// another worker's start — and report per name. All name-keyed
/// collections preserve first-appearance order, so reports over a
/// deterministic trace are deterministic.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Well-formed events folded in.
    pub events: u64,
    kind_counts: [u64; EventKind::ALL.len()],
    /// Counter totals by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge/histogram (and frame hotspot) value rollups by name.
    pub rollups: Vec<(String, Rollup)>,
    /// Span pairing and durations by name.
    pub spans: Vec<(String, SpanStats)>,
    /// Solver-convergence rollups by solve site.
    pub solvers: Vec<(String, SolverRollup)>,
    /// Gating-churn aggregate.
    pub gating: GatingStats,
    /// Voltage-emergency aggregate.
    pub emergency: EmergencyStats,
    /// Timestamp of the first event.
    pub first_t_s: Option<f64>,
    /// Timestamp of the last event.
    pub last_t_s: Option<f64>,
    /// Malformed interior lines the reader skipped.
    pub malformed_lines: u64,
    /// Whether the trace ended in a truncated final line.
    pub truncated: bool,
    /// Open span depth per `(track, name)`; an entry leaves when its
    /// depth returns to zero, so this holds only what is open now.
    open: Vec<((u64, String), u64)>,
    /// An empty rollup of the chosen store, cloned for each new name.
    blank: Rollup,
}

fn kind_index(kind: EventKind) -> usize {
    EventKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind is in ALL")
}

/// Finds `name` in an order-preserving name-keyed vector, inserting
/// `make()` when absent.
fn entry<'v, T>(vec: &'v mut Vec<(String, T)>, name: &str, make: impl FnOnce() -> T) -> &'v mut T {
    let i = match vec.iter().position(|(n, _)| n == name) {
        Some(i) => i,
        None => {
            vec.push((name.to_string(), make()));
            vec.len() - 1
        }
    };
    &mut vec[i].1
}

impl TraceAnalysis {
    /// An empty aggregate with exact percentiles.
    pub fn exact() -> Self {
        TraceAnalysis::with(Rollup::exact())
    }

    /// An empty aggregate with bounded-memory P² percentile estimates.
    pub fn streaming() -> Self {
        TraceAnalysis::with(Rollup::streaming())
    }

    fn with(blank: Rollup) -> Self {
        TraceAnalysis {
            events: 0,
            kind_counts: [0; EventKind::ALL.len()],
            counters: Vec::new(),
            rollups: Vec::new(),
            spans: Vec::new(),
            solvers: Vec::new(),
            gating: GatingStats {
                decisions: 0,
                turned_on: 0,
                turned_off: 0,
                active: blank.clone(),
            },
            emergency: EmergencyStats::default(),
            first_t_s: None,
            last_t_s: None,
            malformed_lines: 0,
            truncated: false,
            open: Vec::new(),
            blank,
        }
    }

    /// Streams every event of a byte source into a fresh exact
    /// analysis.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors only; format problems are folded into
    /// [`malformed_lines`](TraceAnalysis::malformed_lines) /
    /// [`truncated`](TraceAnalysis::truncated).
    pub fn from_reader(reader: impl BufRead) -> io::Result<Self> {
        let mut trace = TraceReader::new(reader);
        let mut analysis = TraceAnalysis::exact();
        while let Some(event) = trace.next_event()? {
            analysis.observe(&event);
        }
        analysis.malformed_lines = trace.malformed_lines();
        analysis.truncated = trace.truncated();
        Ok(analysis)
    }

    /// Streams a trace file (conventionally `trace.jsonl`) into a fresh
    /// exact analysis.
    ///
    /// # Errors
    ///
    /// Propagates open/read failures.
    pub fn from_path(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        TraceAnalysis::from_reader(BufReader::new(file))
    }

    /// Folds one event in — a parsed trace line or an emit-side event
    /// alike.
    pub fn observe<E: EventView>(&mut self, event: &E) {
        self.events += 1;
        self.kind_counts[kind_index(event.kind())] += 1;
        let t = event.t_s();
        if self.first_t_s.is_none() {
            self.first_t_s = Some(t);
        }
        self.last_t_s = Some(self.last_t_s.map_or(t, |prev| prev.max(t)));
        let name = event.name();
        let blank = &self.blank;
        let new_span = || SpanStats {
            open: 0,
            durations: blank.clone(),
            unmatched_ends: 0,
        };
        match event.kind() {
            EventKind::Counter => {
                *entry(&mut self.counters, name, || 0) += event.num_u64("delta").unwrap_or(1);
            }
            EventKind::Gauge | EventKind::Histogram => {
                entry(&mut self.rollups, name, || blank.clone()).observe_field(event.num("value"));
            }
            EventKind::SpanStart => {
                let track = event.track();
                match self
                    .open
                    .iter_mut()
                    .find(|((t, n), _)| *t == track && n == name)
                {
                    Some((_, depth)) => *depth += 1,
                    None => self.open.push(((track, name.to_string()), 1)),
                }
                entry(&mut self.spans, name, new_span).open += 1;
            }
            EventKind::SpanEnd => {
                let track = event.track();
                let opener = self
                    .open
                    .iter()
                    .position(|((t, n), _)| *t == track && n == name);
                let span = entry(&mut self.spans, name, new_span);
                match opener {
                    Some(i) => {
                        self.open[i].1 -= 1;
                        if self.open[i].1 == 0 {
                            self.open.remove(i);
                        }
                        span.open -= 1;
                        span.durations.observe_field(event.num("dur_s"));
                    }
                    None => span.unmatched_ends += 1,
                }
            }
            EventKind::Solve => {
                let solver = entry(&mut self.solvers, name, || SolverRollup {
                    iters: blank.clone(),
                    residuals: blank.clone(),
                });
                solver.iters.observe_field(event.num("iters"));
                solver.residuals.observe_field(event.num("residual"));
            }
            EventKind::Gating => {
                self.gating.decisions += 1;
                self.gating.turned_on += event.num_u64("turned_on").unwrap_or(0);
                self.gating.turned_off += event.num_u64("turned_off").unwrap_or(0);
                self.gating.active.observe_field(event.num("active"));
            }
            EventKind::Emergency => {
                self.emergency.checks += 1;
                let flagged = event.num_u64("flagged_domains").unwrap_or(0);
                if flagged > 0 {
                    self.emergency.with_emergency += 1;
                }
                self.emergency.flagged_domains += flagged;
                self.emergency.true_domains += event.num_u64("true_domains").unwrap_or(0);
                self.emergency.mispredicted += event.num_u64("mispredicted").unwrap_or(0);
            }
            // Frame payloads (grid data, lanes) are consumed by the
            // timeline exporter, not the aggregate rollups; hotspot
            // magnitude rides along as a plain value rollup when present.
            EventKind::Frame => {
                if let Some(v) = event.num("value") {
                    entry(&mut self.rollups, name, || blank.clone()).observe(v);
                }
            }
            EventKind::Progress => {}
        }
    }

    /// Number of events of one kind.
    pub fn kind_count(&self, kind: EventKind) -> u64 {
        self.kind_counts[kind_index(kind)]
    }

    /// Total of one named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The gauge/histogram rollup for one name.
    pub fn rollup(&self, name: &str) -> Option<&Rollup> {
        self.rollups.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }

    /// The span stats for one name.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The solver rollup for one solve site.
    pub fn solver(&self, name: &str) -> Option<&SolverRollup> {
        self.solvers.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Total solve events across all sites.
    pub fn total_solves(&self) -> u64 {
        self.solvers.iter().map(|(_, s)| s.solves()).sum()
    }

    /// Span of event timestamps (0.0 for empty or single-event traces).
    pub fn duration_s(&self) -> f64 {
        match (self.first_t_s, self.last_t_s) {
            (Some(a), Some(b)) => (b - a).max(0.0),
            _ => 0.0,
        }
    }

    /// Spans left open or ended without a start, summed over all names
    /// — 0 for a cleanly recorded trace.
    pub fn unpaired_spans(&self) -> u64 {
        self.spans
            .iter()
            .map(|(_, s)| s.open + s.unmatched_ends)
            .sum()
    }

    /// The spans open right now as `(track, name, depth)`, sorted by
    /// track then name.
    pub fn open_spans(&self) -> Vec<(u64, &str, u64)> {
        let mut open: Vec<(u64, &str, u64)> = self
            .open
            .iter()
            .map(|((track, name), depth)| (*track, name.as_str(), *depth))
            .collect();
        open.sort_unstable();
        open
    }
}

/// Expands one event into exportable time-series points, appended to
/// `out` as `(series, value)` pairs (the timestamp is the event's own
/// `t_s`):
///
/// * gauges and histograms → one point on the series of that name;
/// * gating events → `<name>.active` (the active-regulator count);
/// * solve events → `<name>.iters` and `<name>.residual`;
/// * span ends → `<name>.dur_s`.
///
/// Everything else (counters, span starts, progress) carries no
/// plottable instantaneous value and contributes nothing. This is the
/// mapping behind `tg-obs export`: T_max arrives as the
/// `thermal.max_silicon_c` gauge, worst window noise as the
/// `engine.window_noise_pct` histogram / `pdn.noise_max_pct` gauge,
/// `n_on` as `engine.gating.active`, and solver residuals as
/// `<site>.residual`.
pub fn series_points(event: &ParsedEvent, out: &mut Vec<(String, f64)>) {
    match event.kind {
        EventKind::Gauge | EventKind::Histogram => {
            if let Some(v) = event.field_f64("value") {
                out.push((event.name.clone(), v));
            }
        }
        EventKind::Gating => {
            if let Some(a) = event.field_f64("active") {
                out.push((format!("{}.active", event.name), a));
            }
        }
        EventKind::Solve => {
            if let Some(i) = event.field_f64("iters") {
                out.push((format!("{}.iters", event.name), i));
            }
            if let Some(r) = event.field_f64("residual") {
                out.push((format!("{}.residual", event.name), r));
            }
        }
        EventKind::Frame => {
            if let Some(v) = event.field_f64("value") {
                out.push((event.name.clone(), v));
            }
        }
        EventKind::SpanEnd => {
            if let Some(d) = event.field_f64("dur_s") {
                out.push((format!("{}.dur_s", event.name), d));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    /// Records a small synthetic run and returns its JSONL text.
    fn sample_trace() -> String {
        let (tel, sink) = Telemetry::recorder();
        {
            let _run = tel.span("engine.run");
            for k in 0..4u64 {
                tel.event(EventKind::Gating, "engine.gating")
                    .field_u64("decision", k)
                    .field_u64("active", 10 + k)
                    .field_u64("turned_on", 1)
                    .field_u64("turned_off", if k > 1 { 2 } else { 0 })
                    .emit();
                tel.counter("engine.decisions", 1);
                tel.histogram("engine.window_noise_pct", 4.0 + k as f64);
                tel.solve("thermal.gs", 10 + k as usize, 1e-9 * (k + 1) as f64);
            }
            tel.event(EventKind::Emergency, "engine.emergency_check")
                .field_u64("flagged_domains", 2)
                .field_u64("true_domains", 1)
                .field_u64("mispredicted", 1)
                .emit();
            tel.event(EventKind::Emergency, "engine.emergency_check")
                .field_u64("flagged_domains", 0)
                .field_u64("true_domains", 0)
                .field_u64("mispredicted", 0)
                .emit();
            tel.gauge("thermal.max_silicon_c", 63.5);
        }
        sink.events().iter().map(|e| e.to_json() + "\n").collect()
    }

    #[test]
    fn analysis_counts_and_rolls_up() {
        let text = sample_trace();
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        assert_eq!(a.events, text.lines().count() as u64);
        assert_eq!(a.kind_count(EventKind::Gating), 4);
        assert_eq!(a.kind_count(EventKind::Emergency), 2);
        assert_eq!(a.counter("engine.decisions"), 4);

        let noise = a.rollup("engine.window_noise_pct").unwrap();
        assert_eq!(noise.count(), 4);
        assert_eq!(noise.min(), Some(4.0));
        assert_eq!(noise.max(), Some(7.0));
        assert_eq!(noise.percentile(50.0), Some(5.5));

        let gs = a.solver("thermal.gs").unwrap();
        assert_eq!(gs.solves(), 4);
        assert_eq!(gs.iters.percentile(0.0), Some(10.0));
        assert_eq!(gs.iters.percentile(100.0), Some(13.0));
        assert_eq!(gs.residuals.max(), Some(4e-9));

        assert_eq!(a.gating.decisions, 4);
        assert_eq!(a.gating.turned_on, 4);
        assert_eq!(a.gating.turned_off, 4);
        assert_eq!(a.gating.churn(), 8);
        assert_eq!(a.gating.churn_per_decision(), Some(2.0));
        assert_eq!(a.gating.active.mean(), Some(11.5));

        assert_eq!(a.emergency.checks, 2);
        assert_eq!(a.emergency.with_emergency, 1);
        assert_eq!(a.emergency.flagged_domains, 2);
        assert_eq!(a.emergency.mispredicted, 1);
        assert_eq!(a.emergency.emergency_rate(), Some(0.5));

        let run = a.span("engine.run").unwrap();
        assert_eq!(run.completed(), 1);
        assert_eq!(run.open, 0);
        assert_eq!(run.unmatched_ends, 0);
        assert_eq!(a.unpaired_spans(), 0);
        assert!(run.durations.max().unwrap() >= 0.0);
        assert!(!a.truncated);
        assert_eq!(a.malformed_lines, 0);
    }

    #[test]
    fn truncated_final_line_is_recovered() {
        let mut text = sample_trace();
        // Cut the final record mid-JSON, dropping its newline.
        text.truncate(text.len() - 15);
        assert!(!text.ends_with('\n'));
        let full_events = sample_trace().lines().count() as u64;
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        assert!(a.truncated);
        assert_eq!(a.events, full_events - 1);
        assert_eq!(a.malformed_lines, 0);
    }

    #[test]
    fn malformed_interior_lines_are_skipped_and_counted() {
        let good = sample_trace();
        let lines: Vec<&str> = good.lines().collect();
        let text = format!(
            "{}\nnot json at all\n{{\"t\":1}}\n{}\n",
            lines[0],
            lines[1..].join("\n")
        );
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        assert_eq!(a.malformed_lines, 2);
        assert_eq!(a.events, lines.len() as u64);
        assert!(!a.truncated);
    }

    #[test]
    fn blank_lines_are_ignored() {
        let text = format!("\n\n{}\n\n", sample_trace());
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        assert_eq!(a.malformed_lines, 0);
        assert_eq!(a.events, sample_trace().lines().count() as u64);
    }

    #[test]
    fn null_values_count_as_non_finite() {
        // The writer emits NaN gauges as null; the rollup must not
        // panic and must surface the bad observation.
        let (tel, sink) = Telemetry::recorder();
        tel.gauge("g", f64::NAN);
        tel.gauge("g", 2.0);
        tel.solve("s", 3, f64::NAN);
        let text: String = sink.events().iter().map(|e| e.to_json() + "\n").collect();
        let a = TraceAnalysis::from_reader(text.as_bytes()).unwrap();
        let g = a.rollup("g").unwrap();
        assert_eq!(g.count(), 1);
        assert_eq!(g.non_finite(), 1);
        assert_eq!(g.percentile(99.0), Some(2.0));
        let s = a.solver("s").unwrap();
        assert_eq!(s.solves(), 1);
        assert_eq!(s.residuals.non_finite(), 1);
    }

    #[test]
    fn unmatched_spans_are_reported() {
        let lines = "\
            {\"t\":0.1,\"kind\":\"span_end\",\"name\":\"a\",\"dur_s\":0.1}\n\
            {\"t\":0.2,\"kind\":\"span_start\",\"name\":\"b\"}\n";
        let a = TraceAnalysis::from_reader(lines.as_bytes()).unwrap();
        assert_eq!(a.span("a").unwrap().unmatched_ends, 1);
        assert_eq!(a.span("b").unwrap().open, 1);
        assert_eq!(a.unpaired_spans(), 2);
    }

    #[test]
    fn spans_pair_per_track_and_report_per_name() {
        let lines = "\
            {\"t\":0.1,\"kind\":\"span_start\",\"name\":\"cell\",\"track\":1}\n\
            {\"t\":0.2,\"kind\":\"span_start\",\"name\":\"cell\",\"track\":2}\n\
            {\"t\":0.3,\"kind\":\"span_end\",\"name\":\"cell\",\"dur_s\":0.2,\"track\":1}\n\
            {\"t\":0.4,\"kind\":\"span_end\",\"name\":\"cell\",\"dur_s\":0.1,\"track\":3}\n";
        let a = TraceAnalysis::from_reader(lines.as_bytes()).unwrap();
        let cell = a.span("cell").unwrap();
        assert_eq!(cell.completed(), 1);
        // Track 3's end cannot close track 2's start.
        assert_eq!(cell.unmatched_ends, 1);
        assert_eq!(cell.open, 1);
        assert_eq!(a.open_spans(), [(2, "cell", 1)]);
        assert_eq!(a.unpaired_spans(), 2);
    }

    #[test]
    fn reader_keeps_the_first_bad_line_number() {
        let good = sample_trace();
        let lines: Vec<&str> = good.lines().collect();
        let text = format!("{}\n\n{}\nnot json\n{}\n", lines[0], lines[1], lines[2]);
        let mut reader = TraceReader::new(text.as_bytes());
        while reader.next_event().unwrap().is_some() {}
        assert_eq!(reader.line(), 5);
        let (line, error) = reader.first_error().expect("bad line recorded");
        assert_eq!(line, 4, "blank lines count toward line numbers");
        assert!(error.contains("bad JSON"), "{error}");

        let mut cut = sample_trace();
        cut.truncate(cut.len() - 15);
        let mut reader = TraceReader::new(cut.as_bytes());
        while reader.next_event().unwrap().is_some() {}
        assert!(reader.truncated());
        assert_eq!(
            reader.first_error().map(|(line, _)| line),
            Some(sample_trace().lines().count() as u64)
        );
    }

    #[test]
    fn series_points_expand_expected_kinds() {
        let (tel, sink) = Telemetry::recorder();
        tel.gauge("thermal.max_silicon_c", 63.5);
        tel.event(EventKind::Gating, "engine.gating")
            .field_u64("active", 12)
            .emit();
        tel.solve("pdn.ir_cg", 8, 1e-10);
        tel.counter("engine.steps", 50);
        let mut points = Vec::new();
        for event in sink.events() {
            let parsed = ParsedEvent::from_line(&event.to_json()).unwrap();
            series_points(&parsed, &mut points);
        }
        let names: Vec<&str> = points.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "thermal.max_silicon_c",
                "engine.gating.active",
                "pdn.ir_cg.iters",
                "pdn.ir_cg.residual"
            ]
        );
        assert_eq!(points[0].1, 63.5);
        assert_eq!(points[2].1, 8.0);
    }

    #[test]
    fn parsed_event_rejects_bad_envelopes() {
        for bad in [
            "[1,2]",
            "{\"kind\":\"gauge\",\"name\":\"x\"}",
            "{\"t\":1.0,\"kind\":\"nope\",\"name\":\"x\"}",
            "{\"t\":1.0,\"kind\":\"gauge\"}",
            "{\"t\":1.0,\"kind\":\"gauge\",\"name\":\"\"}",
            "{\"t\":-1.0,\"kind\":\"gauge\",\"name\":\"x\"}",
            "{\"t\":null,\"kind\":\"gauge\",\"name\":\"x\"}",
        ] {
            assert!(ParsedEvent::from_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_trace_analyzes_to_empty() {
        let a = TraceAnalysis::from_reader("".as_bytes()).unwrap();
        assert_eq!(a.events, 0);
        assert_eq!(a.duration_s(), 0.0);
        assert_eq!(a.first_t_s, None);
        assert!(a.counters.is_empty() && a.rollups.is_empty());
    }

    /// A scratch directory unique to the calling test.
    fn tail_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tg_tail_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn event_line(name: &str, value: u64) -> String {
        format!("{{\"t\":0.5,\"kind\":\"counter\",\"name\":\"{name}\",\"delta\":{value}}}\n")
    }

    #[test]
    fn tailer_holds_a_partial_final_line_until_it_completes() {
        use std::io::Write;
        let dir = tail_dir("partial");
        let path = dir.join("trace.jsonl");
        let full = event_line("a", 1);
        let (head, rest) = full.split_at(20);
        std::fs::write(&path, head).expect("write partial");

        let mut tailer = TraceTailer::follow(&path).expect("open");
        assert!(tailer.poll().expect("poll").is_empty());
        assert!(tailer.partial_tail());
        assert_eq!(tailer.offset(), 0, "partial bytes stay uncommitted");

        // The writer finishes the record (and appends another).
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen");
        write!(file, "{rest}{}", event_line("b", 2)).expect("complete line");
        drop(file);

        let events = tailer.poll().expect("poll");
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(!tailer.partial_tail());
        assert_eq!(tailer.malformed_lines(), 0);
        assert_eq!(
            tailer.offset() as usize,
            full.len() + event_line("b", 2).len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tailer_sees_appends_between_polls() {
        use std::io::Write;
        let dir = tail_dir("append");
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, event_line("first", 1)).expect("seed");
        let mut tailer = TraceTailer::follow(&path).expect("open");
        assert_eq!(tailer.poll().expect("poll").len(), 1);
        assert!(tailer.poll().expect("idle poll").is_empty());

        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen");
        for k in 0..5 {
            write!(file, "{}", event_line("more", k)).expect("append");
            file.flush().expect("flush");
            let events = tailer.poll().expect("poll");
            assert_eq!(events.len(), 1, "append {k} visible immediately");
            assert_eq!(events[0].field_u64("delta"), Some(k));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tailer_resume_at_offset_matches_a_one_shot_read() {
        let dir = tail_dir("resume");
        let path = dir.join("trace.jsonl");
        let mut trace = String::new();
        trace.push_str(&event_line("a", 1));
        trace.push_str("this line is garbage\n");
        trace.push_str(&event_line("b", 2));
        trace.push_str(&event_line("c", 3));
        std::fs::write(&path, &trace).expect("write");

        // Tail part of the file, remember the offset, then resume.
        let mut first = TraceTailer::follow(&path).expect("open");
        let mut streamed: Vec<String> = first
            .poll()
            .expect("poll")
            .iter()
            .map(|e| e.name.clone())
            .collect();
        let malformed = first.malformed_lines();
        let offset = first.offset();
        drop(first);
        let mut resumed = TraceTailer::resume(&path, offset).expect("resume");
        streamed.extend(resumed.poll().expect("poll").iter().map(|e| e.name.clone()));

        // One-shot batch read of the finished file.
        let mut reader = TraceReader::open(&path).expect("open");
        let mut batch = Vec::new();
        while let Some(event) = reader.next_event().expect("read") {
            batch.push(event.name.clone());
        }
        assert_eq!(streamed, batch);
        assert_eq!(
            malformed + resumed.malformed_lines(),
            reader.malformed_lines()
        );

        // Resuming mid-stream (after just the first line) also loses
        // nothing: offset commits are per-line.
        let first_line = event_line("a", 1).len() as u64;
        let mut mid = TraceTailer::resume(&path, first_line).expect("resume");
        let names: Vec<String> = mid
            .poll()
            .expect("poll")
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(names, ["b", "c"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
