//! Wiring between experiment binaries and `simkit::telemetry`.
//!
//! A [`TelemetryCtx`] owns one telemetry output directory for a run:
//! every event goes to a `trace.jsonl` JSONL writer. Event counts are
//! tracked at two levels — per run and per sweep cell — so
//! [`TelemetryCtx::finish`] can write a `manifest.json` whose
//! `events_total` provably matches the number of trace lines. A binary that prints a counter/histogram
//! table folds the finished trace
//! ([`TraceAnalysis::from_path`](simkit::telemetry::analyze::TraceAnalysis::from_path)
//! over [`TelemetryCtx::trace_path`]).
//!
//! ```text
//! Telemetry handle ──► CountingSink (run or cell) ──► JsonlSink (trace.jsonl)
//! ```

use crate::context::ExpOptions;
use simkit::telemetry::manifest::{RunManifest, MANIFEST_FILE, TRACE_FILE};
use simkit::telemetry::{CountingSink, JsonlSink, Telemetry, TelemetrySink};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Trace-flush cadence (events per flush): keeps a tailing
/// `tg-obs watch` at most a few hundred events stale while costing one
/// syscall per batch.
pub const FLUSH_EVERY: u64 = 256;

/// One run's telemetry outputs: a JSONL trace and the bookkeeping
/// needed to write a consistent manifest.
#[derive(Debug)]
pub struct TelemetryCtx {
    dir: PathBuf,
    /// The JSONL writer every event ends up in.
    shared: Arc<dyn TelemetrySink>,
    /// Counts run-level events (everything not attributed to a cell).
    run_counter: Arc<CountingSink>,
    telemetry: Telemetry,
    /// Next track id to hand out to a sweep cell. Track 0 is the
    /// run-level handle; cells get 1, 2, … so the profiler and the
    /// Chrome-trace export can keep concurrent cells on separate lanes.
    next_track: AtomicU64,
}

impl TelemetryCtx {
    /// Creates the output directory (and parents) and opens
    /// `trace.jsonl` inside it.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let shared: Arc<dyn TelemetrySink> =
            Arc::new(JsonlSink::create(&dir.join(TRACE_FILE))?.flush_every(FLUSH_EVERY));
        let run_counter = Arc::new(CountingSink::new(Arc::clone(&shared)));
        let telemetry = Telemetry::with_sink(Arc::clone(&run_counter) as Arc<dyn TelemetrySink>);
        Ok(TelemetryCtx {
            dir,
            shared,
            run_counter,
            telemetry,
            next_track: AtomicU64::new(1),
        })
    }

    /// Builds a context from `--telemetry=<dir>` / `SIMKIT_TELEMETRY`.
    /// Returns `None` when telemetry is not requested; a requested
    /// directory that cannot be created is reported on stderr and also
    /// yields `None` (the simulation still runs, untraced).
    pub fn from_options(opts: &ExpOptions) -> Option<Self> {
        let dir = opts.telemetry.as_ref()?;
        match TelemetryCtx::create(dir) {
            Ok(ctx) => Some(ctx),
            Err(e) => {
                eprintln!("warning: cannot open telemetry dir {}: {e}", dir.display());
                None
            }
        }
    }

    /// The output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The `trace.jsonl` file every event is written to (complete once
    /// [`TelemetryCtx::finish`] has flushed it).
    pub fn trace_path(&self) -> PathBuf {
        self.dir.join(TRACE_FILE)
    }

    /// The run-level telemetry handle (events count toward
    /// `run_events` in the manifest).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// A fresh handle for one sweep cell, with its own event counter
    /// (events count toward that cell's manifest entry, not
    /// `run_events`) and a unique track id (1, 2, …) stamped onto every
    /// event, so concurrent cells stay on separate timeline lanes.
    /// Sinks are shared, so the cell's events land in the same trace.
    pub fn cell_handle(&self) -> (Telemetry, Arc<CountingSink>) {
        let counter = Arc::new(CountingSink::new(Arc::clone(&self.shared)));
        let track = self.next_track.fetch_add(1, Ordering::Relaxed);
        let telemetry =
            Telemetry::with_sink_tracked(Arc::clone(&counter) as Arc<dyn TelemetrySink>, track);
        (telemetry, counter)
    }

    /// Events emitted through the run-level handle so far.
    pub fn run_events(&self) -> u64 {
        self.run_counter.count()
    }

    /// Stamps `manifest.run_events`, flushes the trace, and writes
    /// `manifest.json` into the directory. Cell entries must already be
    /// in `manifest.cells`; run-level events are counted here so the
    /// manifest's `events_total` equals the trace's line count.
    ///
    /// # Errors
    ///
    /// Propagates flush and write failures.
    pub fn finish(&self, manifest: &mut RunManifest) -> io::Result<PathBuf> {
        manifest.run_events = self.run_events();
        self.telemetry.flush()?;
        let path = self.dir.join(MANIFEST_FILE);
        manifest.write(&path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::analyze::TraceAnalysis;
    use simkit::telemetry::EventKind;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tg-telemetry-ctx-{tag}-{}", std::process::id()))
    }

    #[test]
    fn run_and_cell_events_are_counted_separately() {
        let dir = temp_dir("counts");
        let ctx = TelemetryCtx::create(&dir).unwrap();
        ctx.telemetry().counter("run.level", 1);
        let (cell_tel, cell_counter) = ctx.cell_handle();
        cell_tel.gauge("cell.level", 1.0);
        cell_tel.gauge("cell.level", 2.0);
        assert_eq!(ctx.run_events(), 1);
        assert_eq!(cell_counter.count(), 2);

        let mut manifest = RunManifest::new("test");
        manifest
            .cells
            .push(simkit::telemetry::manifest::CellManifest {
                label: "cell".into(),
                seconds: 0.0,
                events: cell_counter.count(),
                cached: false,
            });
        let path = ctx.finish(&mut manifest).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = RunManifest::from_json(text.trim()).unwrap();
        assert_eq!(back.total_events(), 3);

        // Trace line count matches the manifest total.
        let trace = std::fs::read_to_string(ctx.trace_path()).unwrap();
        assert_eq!(trace.lines().count() as u64, back.total_events());
        // Both handles wrote into the one trace.
        let analysis = TraceAnalysis::from_path(&ctx.trace_path()).unwrap();
        assert_eq!(analysis.counter("run.level"), 1);
        assert_eq!(analysis.rollup("cell.level").unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_handles_get_distinct_track_ids() {
        let dir = temp_dir("tracks");
        let ctx = TelemetryCtx::create(&dir).unwrap();
        assert_eq!(ctx.telemetry().track(), 0);
        let (a, _) = ctx.cell_handle();
        let (b, _) = ctx.cell_handle();
        assert_eq!(a.track(), 1);
        assert_eq!(b.track(), 2);

        ctx.telemetry().counter("run.level", 1);
        a.counter("cell.level", 1);
        ctx.telemetry().flush().unwrap();
        let trace = std::fs::read_to_string(dir.join(TRACE_FILE)).unwrap();
        let mut lines = trace.lines();
        let run_line = lines.next().unwrap();
        let cell_line = lines.next().unwrap();
        // Track 0 stays off the wire; cells stamp theirs on every event.
        assert!(!run_line.contains("\"track\""));
        assert!(cell_line.contains("\"track\":1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_options_respects_absence() {
        assert!(TelemetryCtx::from_options(&ExpOptions::tiny()).is_none());
        let dir = temp_dir("opts");
        let opts = ExpOptions::tiny().with_telemetry(&dir);
        let ctx = TelemetryCtx::from_options(&opts).expect("telemetry dir creatable");
        ctx.telemetry()
            .event(EventKind::Progress, "run.start")
            .emit();
        assert_eq!(ctx.run_events(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
