//! Trace analytics: reading JSONL telemetry traces and folding events
//! into one aggregate.
//!
//! The [`telemetry`](crate::telemetry) module *emits* structured traces;
//! this module *consumes* them. A [`TraceReader`] is the one line
//! decoder: it streams a `trace.jsonl` file line by line through the
//! hand-rolled [`json`](super::json) parser, skipping corrupt interior
//! lines (a line that is not UTF-8 among them) and recovering from a
//! truncated final line, so a trace cut mid-write still analyzes. A
//! [`TraceTailer`] follows a trace that is still being written and
//! decodes each poll's complete lines through a `TraceReader`. A
//! [`TraceAnalysis`] is the one fold: it takes the event stream —
//! parsed lines or emit-side events, through the [`EventView`] trait —
//! into:
//!
//! * per-[`EventKind`] event counts and per-name counter totals;
//! * per-name value [`Rollup`]s for gauges and histograms, with exact
//!   percentiles;
//! * span begin/end pairing on one open-span stack per track, where an
//!   end closes only the innermost open span, into an exact call tree
//!   per track ([`TrackProfile`], rendered by [`prof`](super::prof)) and
//!   per-name duration rollups ([`SpanStats`], with unmatched starts/ends
//!   surfaced rather than silently dropped);
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
//! let mut emitted = TraceAnalysis::exact();
//! for event in sink.events() {
//!     emitted.observe(&event);
//! }
//! assert_eq!(emitted.events, analysis.events);
//! ```

use super::json::JsonValue;
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
/// line — bad JSON, a bad envelope, or bytes that are not UTF-8 —
/// *with* a trailing newline (mid-file corruption) is counted in
/// [`malformed_lines`](TraceReader::malformed_lines) and skipped; a
/// malformed *final* line without one (the writer died mid-line, or the
/// file is still being appended to) ends the stream cleanly and sets
/// [`truncated`](TraceReader::truncated). Blank lines are ignored. The
/// first problem of either sort is kept, with its line number, in
/// [`first_error`](TraceReader::first_error).
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    buf: Vec<u8>,
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
            buf: Vec::new(),
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
    /// Propagates I/O errors from the underlying reader; recoverable
    /// *format* problems, a line that is not UTF-8 included, never
    /// error.
    pub fn next_event(&mut self) -> io::Result<Option<ParsedEvent>> {
        loop {
            self.buf.clear();
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Ok(None);
            }
            self.line += 1;
            let complete = self.buf.ends_with(b"\n");
            let error = match std::str::from_utf8(&self.buf).map(str::trim) {
                Ok("") => continue,
                Ok(line) => match ParsedEvent::from_line(line) {
                    Ok(event) => {
                        self.lines_read += 1;
                        return Ok(Some(event));
                    }
                    Err(e) => e,
                },
                Err(e) => format!("line is not UTF-8: {e}"),
            };
            self.lines_read += 1;
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
/// Complete lines go through a [`TraceReader`], so a malformed one is
/// counted and skipped under the same rule as a one-shot read.
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
    /// offset, in file order, decoded by a [`TraceReader`]. An empty
    /// vector means no complete new line has landed yet — poll again
    /// later.
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
        let complete = buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut reader = TraceReader::new(&buf[..complete]);
        let mut events = Vec::new();
        while let Some(event) = reader.next_event()? {
            events.push(event);
        }
        self.malformed += reader.malformed_lines();
        self.offset += complete as u64;
        self.partial_tail = complete < buf.len();
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
                FieldValue::F64(x) => x.is_finite().then_some(*x),
                FieldValue::Bool(_) | FieldValue::Str(_) => None,
            })
    }
}

/// Distribution rollup of one named value stream: count / non-finite
/// count / sum / min / max / mean, plus exact percentiles.
///
/// Every finite observation is kept, so any percentile is exact (a
/// trace is bounded by run length). Non-finite observations — including
/// `null`s the JSON writer substitutes for NaN — are counted
/// separately.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    non_finite: u64,
    min: f64,
    max: f64,
    sum: f64,
    /// Every finite observation: a sorted prefix of `sorted` values,
    /// then the later arrivals in arrival order.
    values: Vec<f64>,
    sorted: usize,
}

impl Rollup {
    /// An empty rollup.
    pub fn exact() -> Self {
        Rollup {
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            // `Iterator::sum` over f64 starts at -0.0; so does this, so
            // the running sum equals summing the kept values.
            sum: -0.0,
            values: Vec::new(),
            sorted: 0,
        }
    }

    /// Folds one observation in (non-finite values are counted but not
    /// ranked).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.values.push(value);
        // A percentile sorts a copy of the samples; keeping all but a
        // sixteenth of them pre-sorted makes that sort about one merge
        // pass, so `watch` can re-evaluate its rules as events arrive.
        if self.values.len() - self.sorted > (self.sorted / 16).max(1024) {
            self.values.sort_by(f64::total_cmp);
            self.sorted = self.values.len();
        }
    }

    /// Folds a field that may be absent or `null`: a missing number is
    /// counted as non-finite.
    fn observe_field(&mut self, value: Option<f64>) {
        self.observe(value.unwrap_or(f64::NAN));
    }

    /// Number of finite observations.
    pub fn count(&self) -> u64 {
        self.values.len() as u64
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
        (self.count() > 0).then(|| self.sum / self.count() as f64)
    }

    /// Smallest finite observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.min)
    }

    /// Largest finite observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.max)
    }

    /// Linear-interpolated percentile over the finite observations;
    /// `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        stats::percentile(&self.values, p)
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
    fn new() -> Self {
        SpanStats {
            open: 0,
            durations: Rollup::exact(),
            unmatched_ends: 0,
        }
    }

    /// Completed start/end pairs.
    pub fn completed(&self) -> u64 {
        self.durations.count() + self.durations.non_finite()
    }
}

/// One site (span name at one position in the call tree) of a track.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Span name as emitted, e.g. `"engine.run"`.
    pub name: String,
    /// Index of the parent node within the track (`None` for roots).
    pub parent: Option<usize>,
    /// Child node indices, in first-appearance order.
    pub children: Vec<usize>,
    /// Number of times this site was entered.
    pub calls: u64,
    /// Total wall time inside this site, children included (from the
    /// `dur_s` field of the matching span ends).
    pub inclusive_s: f64,
    /// Spans entered but not closed yet.
    pub open: u64,
}

/// The call tree of one track (worker lane) and the spans open on it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackProfile {
    /// Track id (0 = the run-level handle).
    pub track: u64,
    /// All nodes, in creation order; tree edges are index-based.
    pub nodes: Vec<Node>,
    /// Indices of top-level nodes, in first-appearance order.
    pub roots: Vec<usize>,
    /// The open spans as node indices, outermost first: a span end
    /// closes only the last one.
    stack: Vec<usize>,
}

impl TrackProfile {
    /// Wall time exclusive to `node` (inclusive minus the children's
    /// inclusive time, clamped at zero against timer jitter).
    pub fn exclusive_s(&self, node: usize) -> f64 {
        let n = &self.nodes[node];
        let children: f64 = n.children.iter().map(|&c| self.nodes[c].inclusive_s).sum();
        (n.inclusive_s - children).max(0.0)
    }

    /// Sum of the root spans' inclusive time — the track's total
    /// profiled wall time.
    pub fn root_inclusive_s(&self) -> f64 {
        self.roots.iter().map(|&r| self.nodes[r].inclusive_s).sum()
    }

    /// The child of the innermost open span (or the root) named
    /// `name`, created on first sight.
    fn find_or_create(&mut self, name: &str) -> usize {
        let (siblings, parent) = match self.stack.last() {
            Some(&top) => (&self.nodes[top].children, Some(top)),
            None => (&self.roots, None),
        };
        if let Some(found) = siblings
            .iter()
            .copied()
            .find(|&idx| self.nodes[idx].name == name)
        {
            return found;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            calls: 0,
            inclusive_s: 0.0,
            open: 0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
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
/// A finished trace (`summarize`, `diff`, `check`, snapshots) and one
/// still being written (`watch`) fold the same way, so their
/// percentiles agree.
///
/// Rollups, counters, and solver sites are keyed by name across tracks.
/// Spans pair by one rule: each track keeps a stack of open spans, and
/// a span end closes the innermost one when the names match; otherwise
/// the end is unmatched and pops nothing. So a sweep worker's end never
/// closes another worker's start, and a mis-nested end is caught. The
/// stacks build one call tree per track ([`TraceAnalysis::tracks`],
/// rendered by [`prof`](super::prof)); the per-name [`SpanStats`],
/// [`open_spans`](TraceAnalysis::open_spans) and
/// [`unpaired_spans`](TraceAnalysis::unpaired_spans) follow from the
/// same pairing. All collections preserve first-appearance order, so
/// reports over a deterministic trace are deterministic.
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
    /// Per-track call trees, in order of each track's first span event.
    pub tracks: Vec<TrackProfile>,
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
    /// An empty aggregate.
    pub fn exact() -> Self {
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
                active: Rollup::exact(),
            },
            emergency: EmergencyStats::default(),
            first_t_s: None,
            last_t_s: None,
            malformed_lines: 0,
            truncated: false,
            tracks: Vec::new(),
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
        match event.kind() {
            EventKind::Counter => {
                *entry(&mut self.counters, name, || 0) += event.num_u64("delta").unwrap_or(1);
            }
            EventKind::Gauge | EventKind::Histogram => {
                entry(&mut self.rollups, name, Rollup::exact).observe_field(event.num("value"));
            }
            EventKind::SpanStart | EventKind::SpanEnd => self.observe_span(event),
            EventKind::Solve => {
                let solver = entry(&mut self.solvers, name, || SolverRollup {
                    iters: Rollup::exact(),
                    residuals: Rollup::exact(),
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
                    entry(&mut self.rollups, name, Rollup::exact).observe(v);
                }
            }
            EventKind::Progress => {}
        }
    }

    /// Pairs one span start or end on its track's open-span stack.
    fn observe_span<E: EventView>(&mut self, event: &E) {
        let (id, name) = (event.track(), event.name());
        let i = match self.tracks.iter().position(|t| t.track == id) {
            Some(i) => i,
            None => {
                self.tracks.push(TrackProfile {
                    track: id,
                    ..TrackProfile::default()
                });
                self.tracks.len() - 1
            }
        };
        let track = &mut self.tracks[i];
        let span = entry(&mut self.spans, name, SpanStats::new);
        if event.kind() == EventKind::SpanStart {
            let idx = track.find_or_create(name);
            track.nodes[idx].calls += 1;
            track.nodes[idx].open += 1;
            track.stack.push(idx);
            span.open += 1;
            return;
        }
        match track.stack.last() {
            Some(&top) if track.nodes[top].name == name => {
                track.stack.pop();
                let dur_s = event.num("dur_s");
                let node = &mut track.nodes[top];
                node.open -= 1;
                node.inclusive_s += dur_s.unwrap_or(0.0);
                span.open -= 1;
                span.durations.observe_field(dur_s);
            }
            _ => span.unmatched_ends += 1,
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

    /// The spans open right now as `(track, name)`, one entry per open
    /// span, sorted by track then name.
    pub fn open_spans(&self) -> Vec<(u64, &str)> {
        let mut open: Vec<(u64, &str)> = self
            .tracks
            .iter()
            .flat_map(|t| t.stack.iter().map(|&n| (t.track, t.nodes[n].name.as_str())))
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
    use crate::check::{ensure, TestResult};
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

    /// A synthetic run exercising every aggregated kind.
    fn sample_events() -> Vec<Event> {
        let (tel, sink) = Telemetry::recorder();
        {
            let _run = tel.span("engine.run");
            for k in 0..40u64 {
                tel.event(EventKind::Gating, "engine.gating")
                    .field_u64("decision", k)
                    .field_u64("active", 10 + k % 7)
                    .field_u64("turned_on", 1)
                    .field_u64("turned_off", k % 3)
                    .emit();
                tel.counter("engine.decisions", 1);
                tel.histogram("engine.window_noise_pct", 4.0 + (k % 11) as f64);
                tel.solve("thermal.gs", 10 + (k % 5) as usize, 1e-9 * (k + 1) as f64);
                tel.event(EventKind::Emergency, "engine.emergency_check")
                    .field_u64("flagged_domains", k % 4)
                    .field_u64("true_domains", k % 5)
                    .field_u64("mispredicted", u64::from(k % 8 == 0))
                    .emit();
            }
            tel.gauge("thermal.max_silicon_c", 63.5);
            tel.gauge("bad.gauge", f64::NAN);
        }
        sink.events()
    }

    #[test]
    fn wire_and_emit_folds_agree_completely() {
        let events = sample_events();
        let mut wire = TraceAnalysis::exact();
        let mut emit = TraceAnalysis::exact();
        for event in &events {
            wire.observe(&ParsedEvent::from_line(&event.to_json()).unwrap());
            emit.observe(event);
        }
        assert_eq!(wire.events, emit.events);
        for kind in EventKind::ALL {
            assert_eq!(wire.kind_count(kind), emit.kind_count(kind), "{kind:?}");
        }
        assert_eq!(wire.counters, emit.counters);
        assert_eq!(wire.rollups, emit.rollups);
        assert_eq!(wire.spans, emit.spans);
        assert_eq!(wire.solvers, emit.solvers);
        assert_eq!(wire.gating, emit.gating);
        assert_eq!(wire.emergency, emit.emergency);
        assert_eq!(wire.tracks, emit.tracks);
        assert_eq!(wire.first_t_s, emit.first_t_s);
        assert_eq!(wire.last_t_s, emit.last_t_s);
        assert_eq!(wire.span("engine.run").unwrap().completed(), 1);
        assert_eq!(wire.unpaired_spans(), 0);
        assert_eq!(wire.total_solves(), 40);
    }

    #[test]
    fn rollups_merge_tracks_by_name() {
        let sink = std::sync::Arc::new(crate::telemetry::MemorySink::default());
        let t0 = Telemetry::with_sink(sink.clone());
        let t1 = Telemetry::with_sink_tracked(sink.clone(), 1);
        t0.gauge("cell.metric", 1.0);
        t1.gauge("cell.metric", 100.0);
        t1.gauge("cell.metric", 200.0);
        let mut stats = TraceAnalysis::exact();
        for event in sink.events() {
            stats.observe(&event);
        }
        assert_eq!(stats.rollups.len(), 1);
        let merged = stats.rollup("cell.metric").unwrap();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), Some(1.0));
        assert_eq!(merged.max(), Some(200.0));
        assert_eq!(merged.mean(), Some(301.0 / 3.0));
    }

    #[test]
    fn empty_stats_answer_safely() {
        let stats = TraceAnalysis::exact();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.counter("nope"), 0);
        assert!(stats.rollup("nope").is_none());
        assert_eq!(stats.duration_s(), 0.0);
        assert_eq!(stats.gating.churn_per_decision(), None);
        assert_eq!(stats.emergency.emergency_rate(), None);
        assert_eq!(Rollup::exact().percentile(50.0), None);
    }

    #[test]
    fn running_moments_equal_the_slice_helpers() {
        // Enough samples that the rollup pre-sorts them several times,
        // with ties and both signed zeros, which must not move a bit of
        // any percentile.
        let mut rng = crate::rng::DeterministicRng::new(0x5eed);
        let values: Vec<f64> = (0..5000)
            .map(|_| match (rng.uniform_f64() * 100.0) as u32 {
                0..=9 => 0.0,
                10..=19 => -0.0,
                k => f64::from(k % 7) * 1.5 - 4.0 + rng.uniform_f64() * 1e-3,
            })
            .collect();
        let mut rollup = Rollup::exact();
        for (n, &v) in values.iter().enumerate() {
            rollup.observe(v);
            if n % 997 == 0 {
                let seen = &values[..=n];
                for p in [0.0, 12.5, 50.0, 95.0, 100.0] {
                    let bits = |x: Option<f64>| x.map(f64::to_bits);
                    assert_eq!(
                        bits(rollup.percentile(p)),
                        bits(stats::percentile(seen, p)),
                        "n={n} p{p}"
                    );
                }
            }
        }
        assert_eq!(rollup.count(), 5000);
        assert_eq!(rollup.sum().to_bits(), values.iter().sum::<f64>().to_bits());
        assert_eq!(rollup.mean(), stats::mean(&values));
        for p in (0..=200).map(|k| k as f64 / 2.0) {
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            assert_eq!(
                bits(rollup.percentile(p)),
                bits(stats::percentile(&values, p)),
                "p{p}"
            );
        }
        assert_eq!(rollup.percentile(0.0), rollup.min());
        assert_eq!(rollup.percentile(100.0), rollup.max());
    }

    #[test]
    fn non_finite_values_are_counted_not_ranked() {
        let mut rollup = Rollup::exact();
        for v in [3.0, f64::NAN, 1.0, f64::INFINITY, f64::NEG_INFINITY, 2.0] {
            rollup.observe(v);
        }
        assert_eq!((rollup.count(), rollup.non_finite()), (3, 3));
        assert_eq!((rollup.min(), rollup.max()), (Some(1.0), Some(3.0)));
        assert_eq!(rollup.sum(), 6.0);
        assert_eq!(rollup.percentile(50.0), Some(2.0));

        let mut stats = TraceAnalysis::exact();
        for event in sample_events() {
            stats.observe(&event);
        }
        let bad = stats.rollup("bad.gauge").unwrap();
        assert_eq!((bad.count(), bad.non_finite()), (0, 1));
        assert_eq!(bad.percentile(50.0), None);
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
        assert_eq!(a.open_spans(), [(2, "cell")]);
        assert_eq!(a.unpaired_spans(), 2);
    }

    #[test]
    fn spans_build_an_exact_call_tree_per_track() {
        // Power-of-two durations keep the float arithmetic exact: track
        // 0 runs a;b;b;c, track 2 runs a alone.
        let lines = "\
            {\"t\":0.0,\"kind\":\"span_start\",\"name\":\"a\"}\n\
            {\"t\":0.1,\"kind\":\"span_start\",\"name\":\"b\"}\n\
            {\"t\":0.2,\"kind\":\"span_end\",\"name\":\"b\",\"dur_s\":0.25}\n\
            {\"t\":0.1,\"kind\":\"span_start\",\"name\":\"a\",\"track\":2}\n\
            {\"t\":0.3,\"kind\":\"span_start\",\"name\":\"b\"}\n\
            {\"t\":0.4,\"kind\":\"span_end\",\"name\":\"b\",\"dur_s\":0.25}\n\
            {\"t\":0.2,\"kind\":\"span_end\",\"name\":\"a\",\"dur_s\":0.5,\"track\":2}\n\
            {\"t\":0.5,\"kind\":\"span_start\",\"name\":\"c\"}\n\
            {\"t\":0.6,\"kind\":\"span_end\",\"name\":\"c\",\"dur_s\":0.125}\n\
            {\"t\":0.7,\"kind\":\"span_end\",\"name\":\"a\",\"dur_s\":1.0}\n";
        let a = TraceAnalysis::from_reader(lines.as_bytes()).unwrap();
        assert_eq!((a.unpaired_spans(), a.open_spans().len()), (0, 0));
        let ids: Vec<u64> = a.tracks.iter().map(|t| t.track).collect();
        assert_eq!(ids, [0, 2]);

        let t0 = &a.tracks[0];
        assert_eq!(t0.roots.len(), 1);
        let root = &t0.nodes[t0.roots[0]];
        assert_eq!(
            (root.name.as_str(), root.calls, root.inclusive_s),
            ("a", 1, 1.0)
        );
        assert_eq!(root.children.len(), 2); // b (×2 calls) and c
        let b = &t0.nodes[root.children[0]];
        assert_eq!((b.name.as_str(), b.calls, b.inclusive_s), ("b", 2, 0.5));
        // exclusive(a) = 1.0 − (0.5 + 0.125)
        assert_eq!(t0.exclusive_s(t0.roots[0]), 0.375);
        assert_eq!(a.tracks[1].root_inclusive_s(), 0.5);
        // The per-name stats pool both tracks.
        assert_eq!(a.span("a").unwrap().completed(), 2);
        assert_eq!(a.span("b").unwrap().durations.sum(), 0.5);
    }

    #[test]
    fn an_end_closes_only_the_innermost_open_span() {
        // a, b, /a, /b on one track: the end of a does not close the
        // innermost open span (b), so it is unmatched and pops nothing;
        // the end of b then closes b, and a stays open.
        let lines = "\
            {\"t\":0.1,\"kind\":\"span_start\",\"name\":\"a\"}\n\
            {\"t\":0.2,\"kind\":\"span_start\",\"name\":\"b\"}\n\
            {\"t\":0.3,\"kind\":\"span_end\",\"name\":\"a\",\"dur_s\":0.2}\n\
            {\"t\":0.4,\"kind\":\"span_end\",\"name\":\"b\",\"dur_s\":0.2}\n";
        let a = TraceAnalysis::from_reader(lines.as_bytes()).unwrap();
        let (span_a, span_b) = (a.span("a").unwrap(), a.span("b").unwrap());
        assert_eq!(
            (span_a.completed(), span_a.open, span_a.unmatched_ends),
            (0, 1, 1)
        );
        assert_eq!(
            (span_b.completed(), span_b.open, span_b.unmatched_ends),
            (1, 0, 0)
        );
        assert_eq!(a.open_spans(), [(0, "a")]);
        assert_eq!(a.unpaired_spans(), 2);
        let track = &a.tracks[0];
        let root = &track.nodes[track.roots[0]];
        assert_eq!(
            (root.name.as_str(), root.open, root.inclusive_s),
            ("a", 1, 0.0)
        );
        let child = &track.nodes[root.children[0]];
        assert_eq!(
            (child.name.as_str(), child.open, child.inclusive_s),
            ("b", 0, 0.2)
        );
    }

    /// Decodes `bytes` one-shot with a [`TraceReader`], and with a
    /// [`TraceTailer`] that polls the first `split` bytes, then one
    /// resumed at its offset that polls the whole file; both must see
    /// the same events and malformed lines.
    /// The tailer holds back an unterminated final line, so the one-shot
    /// read covers the complete lines only — all of `bytes` when it ends
    /// in a newline.
    fn decoders_agree(bytes: &[u8], split: usize, path: &std::path::Path) -> TestResult {
        let mut whole = TraceReader::new(bytes);
        while whole.next_event().map_err(|e| e.to_string())?.is_some() {}
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut reader = TraceReader::new(&bytes[..complete]);
        let mut expected = Vec::new();
        while let Some(event) = reader.next_event().map_err(|e| e.to_string())? {
            expected.push(event);
        }
        let io = |e: io::Error| e.to_string();
        std::fs::write(path, &bytes[..split]).map_err(io)?;
        let mut first = TraceTailer::follow(path).map_err(io)?;
        let mut events = first.poll().map_err(io)?;
        std::fs::write(path, bytes).map_err(io)?;
        let mut tailer = TraceTailer::resume(path, first.offset()).map_err(io)?;
        events.extend(tailer.poll().map_err(io)?);
        ensure(events == expected, || {
            format!(
                "split {split}: tailer saw {} events, reader {}",
                events.len(),
                expected.len()
            )
        })?;
        let malformed = first.malformed_lines() + tailer.malformed_lines();
        ensure(malformed == reader.malformed_lines(), || {
            format!(
                "split {split}: tailer skipped {malformed} lines, reader {}",
                reader.malformed_lines()
            )
        })?;
        ensure(tailer.offset() == complete as u64, || {
            format!("split {split}: offset {} of {complete}", tailer.offset())
        })
    }

    #[test]
    fn decoders_survive_every_truncation_and_byte_mutation() {
        use crate::check::{self, CheckConfig, Checker};
        let trace = include_bytes!("../../../experiments/tests/fixtures/run_a/trace.jsonl");
        let dir = tail_dir("fuzz");
        let path = dir.join("trace.jsonl");
        // Every split point of the intact trace: each prefix decodes
        // one-shot without panicking, and a tailer that stops there
        // and resumes sees exactly the whole trace.
        for split in 0..=trace.len() {
            let mut prefix = TraceReader::new(&trace[..split]);
            while prefix.next_event().expect("in-memory read").is_some() {}
            if let Err(e) = decoders_agree(trace, split, &path) {
                panic!("{e}");
            }
        }
        // Byte mutations, half of them outside ASCII (never UTF-8 on
        // their own), each tailed across a random split.
        let checker = Checker::new(CheckConfig {
            seed: 0x5452_4143, // "TRAC"
            cases: 512,
            ..CheckConfig::default()
        });
        let gen = (
            check::usize_in(0, trace.len() - 1),
            check::usize_in(0, 255),
            check::usize_in(0, trace.len()),
        );
        checker.assert(
            "analyze.decoders_survive_mutation",
            &gen,
            |&(at, byte, split)| {
                let mut bytes = trace.to_vec();
                bytes[at] = byte as u8;
                decoders_agree(&bytes, split, &path)
            },
        );
        std::fs::remove_dir_all(&dir).ok();
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

        // Bytes that are not UTF-8 are a malformed line, not an I/O
        // error that ends the read.
        let mut bytes = text.into_bytes();
        bytes[5] = 0xFF;
        let mut reader = TraceReader::new(&bytes[..]);
        let mut events = 0;
        while reader.next_event().expect("not an I/O error").is_some() {
            events += 1;
        }
        assert_eq!((events, reader.malformed_lines()), (2, 2));
        let (line, error) = reader.first_error().expect("bad line recorded");
        assert_eq!(line, 1);
        assert!(error.contains("not UTF-8"), "{error}");

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
}
