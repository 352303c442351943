//! Sweep-as-a-service: content-addressed scenario caching and the
//! sharded batch executor behind `tg-serve`, [`crate::sweep::grid`],
//! and the `snap.serve.*` BENCH axis.
//!
//! The module splits *scenario description* from *engine execution*:
//!
//! * [`ScenarioSpec`] — one (benchmark, policy, [`EngineConfig`])
//!   triple with a canonical FNV-1a content hash over every
//!   configuration field (via [`EngineConfig::config_fields`] and the
//!   [`ContentHasher`] shared with `RunManifest::config_hash`). Any
//!   field change — solver backend, a governor gain, one
//!   efficiency-curve point — changes the hash.
//! * [`ScenarioCache`] — a content-addressed on-disk record store.
//!   Each entry is one file named `<bench>-<policy>-<hash>.csv` whose
//!   first line is a versioned header carrying the schema and hash and
//!   whose second line is the lossless `{:e}` CSV record; a header or
//!   body mismatch invalidates loudly (stderr + `serve.invalid`
//!   counter) instead of silently serving stale data. Entries are
//!   written to a temporary file and renamed into place, so a reader
//!   sharing the directory sees no entry or a whole one.
//! * [`run_batch`] — a sharded executor that streams arbitrarily large
//!   scenario batches through bounded memory: a bounded work queue
//!   with backpressure (the feeder blocks when `queue_cap` scenarios
//!   are in flight), a work-stealing worker pool, coalescing of
//!   identical in-flight hashes (one simulation, N waiters), and
//!   incremental re-evaluation (only hashes absent from the cache are
//!   simulated). Results are delivered to the caller's closure in
//!   submission order.
//!
//! [`ServeCounters`] tallies hits/misses/coalesced/invalid and the
//! maximum work-queue depth; [`ServeCounters::emit`] publishes them as
//! `serve.*` telemetry counters so a warm run can prove "zero engine
//! executions" from its trace alone.

use crate::sweep::{self, SweepRecord};
use crate::telemetry::TelemetryCtx;
use floorplan::reference::power8_like;
use simkit::telemetry::manifest::{CellManifest, ContentHasher};
use simkit::telemetry::EventKind;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use workload::Benchmark;

/// Schema identifier stamped into (and required of) every cache entry.
pub const SCENARIO_SCHEMA: &str = "thermogater.scenario/v1";

/// One fully described simulation scenario: what to run, under which
/// policy, with which engine configuration. The spec is pure data — no
/// engine state — so it can be hashed, queued, shipped, and cached.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Benchmark to simulate.
    pub benchmark: Benchmark,
    /// Gating policy to apply.
    pub policy: PolicyKind,
    /// Complete engine configuration.
    pub engine_config: EngineConfig,
}

impl ScenarioSpec {
    /// Bundles a scenario description.
    pub fn new(benchmark: Benchmark, policy: PolicyKind, engine_config: EngineConfig) -> Self {
        ScenarioSpec {
            benchmark,
            policy,
            engine_config,
        }
    }

    /// Human-readable cell label, e.g. `"fft-oracvt"`.
    pub fn label(&self) -> String {
        format!(
            "{}-{}",
            self.benchmark.label(),
            sweep::policy_tag(self.policy)
        )
    }

    /// Canonical FNV-1a content hash over the benchmark, the policy,
    /// and every engine-configuration field, using the same framing as
    /// `RunManifest::config_hash`. Equal specs hash equally; any field
    /// change forces a different hash and therefore a cache miss.
    pub fn content_hash(&self) -> u64 {
        let mut hasher = ContentHasher::new("scenario");
        hasher.push("benchmark", self.benchmark.label());
        hasher.push("policy", sweep::policy_tag(self.policy));
        for (key, value) in self.engine_config.config_fields() {
            hasher.push(&key, &value);
        }
        hasher.finish()
    }
}

/// Result of probing the cache for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A valid entry for this exact content hash.
    Hit(SweepRecord),
    /// No entry on disk.
    Miss,
    /// An entry exists but is unusable (wrong header, malformed record,
    /// label mismatch); the reason is reported loudly and the scenario
    /// re-simulated.
    Invalid(String),
}

/// Content-addressed on-disk store of [`SweepRecord`]s, one file per
/// scenario hash. The record codec is the lossless `{:e}` CSV, so a
/// cache round trip is byte-identical to the freshly computed record.
#[derive(Debug, Clone)]
pub struct ScenarioCache {
    dir: PathBuf,
}

impl ScenarioCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ScenarioCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path of `spec`:
    /// `<dir>/<bench>-<policy>-<hash:016x>.csv`. The label prefix is
    /// redundant with the hash but keeps the directory humane to `ls`.
    pub fn path(&self, spec: &ScenarioSpec) -> PathBuf {
        self.entry_path(spec, spec.content_hash())
    }

    /// [`ScenarioCache::path`] for the hash of `spec`, which the caller
    /// already holds: hashing every config field costs more than the
    /// write itself.
    fn entry_path(&self, spec: &ScenarioSpec, hash: u64) -> PathBuf {
        self.dir.join(format!("{}-{hash:016x}.csv", spec.label()))
    }

    fn header(hash: u64) -> String {
        format!("# {SCENARIO_SCHEMA} {hash:016x}")
    }

    /// Probes the cache for `spec`, validating the versioned header and
    /// the record body against the spec's content hash and label.
    pub fn load(&self, spec: &ScenarioSpec) -> CacheLookup {
        let path = self.path(spec);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(e) => return CacheLookup::Invalid(format!("unreadable: {e}")),
        };
        let mut lines = text.lines();
        let expected = Self::header(spec.content_hash());
        match lines.next() {
            Some(header) if header == expected => {}
            Some(header) => {
                return CacheLookup::Invalid(format!(
                    "header {header:?} does not match expected {expected:?}"
                ))
            }
            None => return CacheLookup::Invalid("empty file".into()),
        }
        let Some(body) = lines.next() else {
            return CacheLookup::Invalid("missing record line".into());
        };
        let Some(record) = SweepRecord::from_csv(body) else {
            return CacheLookup::Invalid(format!("malformed record line {body:?}"));
        };
        if record.benchmark != spec.benchmark || record.policy != spec.policy {
            return CacheLookup::Invalid(format!(
                "record is for {}-{}, expected {}",
                record.benchmark.label(),
                sweep::policy_tag(record.policy),
                spec.label()
            ));
        }
        CacheLookup::Hit(record)
    }

    /// Writes `record` as the entry for `spec` (header + CSV line),
    /// atomically: the text goes to a temporary file in the cache
    /// directory (unique per process and store), which is then renamed
    /// over the entry. A concurrent [`ScenarioCache::load`], in this
    /// process or another, sees the old entry or the new one, never a
    /// torn write.
    ///
    /// # Panics
    ///
    /// Panics when the cache directory cannot be created or the entry
    /// cannot be written — a sweep without a working cache would
    /// silently re-simulate everything forever.
    pub fn store(&self, spec: &ScenarioSpec, record: &SweepRecord) -> PathBuf {
        static STORES: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(&self.dir).expect("create scenario cache directory");
        let hash = spec.content_hash();
        let path = self.entry_path(spec, hash);
        let text = format!("{}\n{}\n", Self::header(hash), record.to_csv());
        let tmp = self.dir.join(format!(
            ".{}.{}.tmp",
            std::process::id(),
            STORES.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, text).expect("write scenario cache entry");
        fs::rename(&tmp, &path).expect("move scenario cache entry into place");
        path
    }
}

/// Where a batch answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Served from a valid on-disk cache entry.
    Cache,
    /// Simulated by this batch (exactly one per distinct missing hash).
    Simulated,
    /// Waited on an identical in-flight simulation (no engine run).
    Coalesced,
}

/// One answered scenario of a batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Zero-based submission index within the batch.
    pub index: usize,
    /// The scenario's content hash.
    pub hash: u64,
    /// The answer.
    pub record: SweepRecord,
    /// How the answer was produced.
    pub source: CellSource,
    /// Wall-clock seconds from dequeue to answer.
    pub seconds: f64,
    /// Telemetry events the simulation emitted (0 unless `Simulated`
    /// under an active telemetry context).
    pub events: u64,
}

/// Executor tuning for [`run_batch`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (at least 1).
    pub threads: usize,
    /// Bound of the work queue: the feeder blocks once this many
    /// scenarios are queued but not yet claimed, so a million-line
    /// batch file streams through memory proportional to
    /// `queue_cap + threads`, never the batch length.
    pub queue_cap: usize,
    /// Suppress per-cell progress chatter on stderr.
    pub quiet: bool,
}

impl BatchOptions {
    /// Defaults for `threads` workers: queue bound `4 × threads`
    /// (enough to keep every worker fed without buffering the batch).
    pub fn for_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        BatchOptions {
            threads,
            queue_cap: 4 * threads,
            quiet: false,
        }
    }
}

/// Shared tallies of one batch (or service lifetime): how every
/// scenario was answered plus the high-water mark of the work queue.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Scenarios answered from a valid cache entry.
    pub hits: AtomicU64,
    /// Scenarios simulated (distinct missing hashes).
    pub misses: AtomicU64,
    /// Scenarios that waited on an identical in-flight simulation.
    pub coalesced: AtomicU64,
    /// Cache entries found but rejected (header/record mismatch).
    pub invalid: AtomicU64,
    depth: AtomicU64,
    depth_max: AtomicU64,
}

impl ServeCounters {
    fn enqueue(&self) {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    fn dequeue(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Maximum observed work-queue depth (bounded by `queue_cap`).
    pub fn queue_depth_max(&self) -> u64 {
        self.depth_max.load(Ordering::Relaxed)
    }

    /// One-line deterministic summary, e.g.
    /// `scenarios=112 hits=0 misses=112 coalesced=0 invalid=0`.
    pub fn summary(&self) -> String {
        let (h, m, c, i) = (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.coalesced.load(Ordering::Relaxed),
            self.invalid.load(Ordering::Relaxed),
        );
        format!(
            "scenarios={} hits={h} misses={m} coalesced={c} invalid={i}",
            h + m + c
        )
    }

    /// Publishes the tallies as `serve.*` telemetry counters through
    /// `ctx`, so the trace itself proves how the batch was answered
    /// (a warm run shows `serve.misses` = 0: zero engine executions).
    pub fn emit(&self, ctx: &TelemetryCtx) {
        let telemetry = ctx.telemetry();
        telemetry.counter("serve.hits", self.hits.load(Ordering::Relaxed));
        telemetry.counter("serve.misses", self.misses.load(Ordering::Relaxed));
        telemetry.counter("serve.coalesced", self.coalesced.load(Ordering::Relaxed));
        telemetry.counter("serve.invalid", self.invalid.load(Ordering::Relaxed));
        telemetry.counter("serve.queue_depth_max", self.queue_depth_max());
    }
}

/// Simulates one scenario (the only place the executor touches the
/// engine), with the per-cell counted telemetry handle when a context
/// is active. Returns the record and the cell's event count.
fn simulate_spec(
    spec: &ScenarioSpec,
    ctx: Option<&TelemetryCtx>,
    quiet: bool,
) -> (SweepRecord, u64) {
    if !quiet {
        eprintln!(
            "[sweep] running {} × {} …",
            spec.benchmark.label(),
            spec.policy.label()
        );
    }
    let chip = power8_like();
    let mut engine = SimulationEngine::new(&chip, spec.engine_config.clone());
    let cell_counter = ctx.map(|ctx| {
        let (telemetry, counter) = ctx.cell_handle();
        engine.set_telemetry(telemetry);
        counter
    });
    let result = engine
        .run(spec.benchmark, spec.policy)
        .expect("simulation of a physical configuration succeeds");
    if !quiet {
        eprintln!(
            "[sweep] {} × {} phase times:\n{}",
            spec.benchmark.label(),
            spec.policy.label(),
            crate::report::phase_report(result.phase_times()),
        );
    }
    let record = SweepRecord::from_result(&result);
    (record, cell_counter.map_or(0, |c| c.count()))
}

/// Emits the `sweep.cell` progress event marking one answered cell
/// (the same event the pre-service sweep emitted, so traces and
/// watchers are unaffected by the refactor). A `cached=false` event
/// appears exactly once per engine execution.
fn emit_cell_event(ctx: Option<&TelemetryCtx>, label: &str, cached: bool, seconds: f64) {
    if let Some(ctx) = ctx {
        ctx.telemetry()
            .event(EventKind::Progress, "sweep.cell")
            .field_str("cell", label.to_string())
            .field_bool("cached", cached)
            .field_f64("seconds", seconds)
            .emit();
    }
}

/// Reports an unusable cache entry loudly — on stderr regardless of
/// `quiet` (a corrupt cache should never be silent) and as a
/// `serve.invalid` increment.
fn report_invalid(
    cache: &ScenarioCache,
    spec: &ScenarioSpec,
    reason: &str,
    counters: &ServeCounters,
) {
    counters.invalid.fetch_add(1, Ordering::Relaxed);
    eprintln!(
        "[serve] cache entry {} is invalid ({reason}); re-simulating",
        cache.path(spec).display()
    );
}

/// Answers one scenario synchronously: cache probe, then simulate and
/// store on miss (or loud invalidation). The building block of
/// [`crate::sweep::record_for`] and the `tg-serve` request loop.
pub fn answer_one(
    cache: &ScenarioCache,
    spec: &ScenarioSpec,
    ctx: Option<&TelemetryCtx>,
    counters: &ServeCounters,
    quiet: bool,
) -> BatchOutcome {
    let started = Instant::now();
    let hash = spec.content_hash();
    match cache.load(spec) {
        CacheLookup::Hit(record) => {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            let seconds = started.elapsed().as_secs_f64();
            emit_cell_event(ctx, &spec.label(), true, seconds);
            return BatchOutcome {
                index: 0,
                hash,
                record,
                source: CellSource::Cache,
                seconds,
                events: 0,
            };
        }
        CacheLookup::Invalid(reason) => report_invalid(cache, spec, &reason, counters),
        CacheLookup::Miss => {}
    }
    let (record, events) = simulate_spec(spec, ctx, quiet);
    cache.store(spec, &record);
    counters.misses.fetch_add(1, Ordering::Relaxed);
    let seconds = started.elapsed().as_secs_f64();
    emit_cell_event(ctx, &spec.label(), false, seconds);
    BatchOutcome {
        index: 0,
        hash,
        record,
        source: CellSource::Simulated,
        seconds,
        events,
    }
}

/// Streams a scenario batch through the cache and a work-stealing
/// worker pool, delivering one [`BatchOutcome`] per scenario to
/// `on_result` **in submission order**. Returns the number of
/// scenarios answered.
///
/// Memory stays bounded regardless of batch length: the feeder blocks
/// once `queue_cap` scenarios are in flight, and the reorder window is
/// bounded by the in-flight count, so `specs` may be a lazy iterator
/// over a file of millions of lines. Identical in-flight hashes
/// coalesce onto one simulation; scenarios whose hash is already
/// cached never touch the engine.
///
/// # Panics
///
/// Panics when a simulation fails (physical configurations do not) or
/// the cache directory cannot be created or written.
pub fn run_batch<I, F>(
    cache: &ScenarioCache,
    specs: I,
    opts: &BatchOptions,
    ctx: Option<&TelemetryCtx>,
    counters: &ServeCounters,
    mut on_result: F,
) -> usize
where
    I: IntoIterator<Item = ScenarioSpec>,
    I::IntoIter: Send,
    F: FnMut(BatchOutcome),
{
    let threads = opts.threads.max(1);
    let queue_cap = opts.queue_cap.max(1);
    let specs = specs.into_iter();
    let (work_tx, work_rx) = mpsc::sync_channel::<(usize, ScenarioSpec)>(queue_cap);
    let work_rx = Mutex::new(work_rx);
    let (result_tx, result_rx) = mpsc::channel::<BatchOutcome>();
    // Hash → submission indices parked behind an in-flight simulation.
    // `Some` while the simulation runs; removed when it completes.
    let inflight: Mutex<HashMap<u64, Vec<(usize, Instant)>>> = Mutex::new(HashMap::new());

    std::thread::scope(|scope| {
        // Feeder: pulls specs lazily and blocks on the bounded queue,
        // providing backpressure against arbitrarily long batches.
        scope.spawn(move || {
            for (index, spec) in specs.enumerate() {
                counters.enqueue();
                if work_tx.send((index, spec)).is_err() {
                    break;
                }
            }
        });

        for _ in 0..threads {
            let result_tx = result_tx.clone();
            let work_rx = &work_rx;
            let inflight = &inflight;
            scope.spawn(move || loop {
                let claimed = work_rx.lock().expect("work queue lock").recv();
                let Ok((index, spec)) = claimed else { break };
                counters.dequeue();
                let started = Instant::now();
                let hash = spec.content_hash();
                match cache.load(&spec) {
                    CacheLookup::Hit(record) => {
                        counters.hits.fetch_add(1, Ordering::Relaxed);
                        let seconds = started.elapsed().as_secs_f64();
                        emit_cell_event(ctx, &spec.label(), true, seconds);
                        let _ = result_tx.send(BatchOutcome {
                            index,
                            hash,
                            record,
                            source: CellSource::Cache,
                            seconds,
                            events: 0,
                        });
                        continue;
                    }
                    CacheLookup::Invalid(reason) => report_invalid(cache, &spec, &reason, counters),
                    CacheLookup::Miss => {}
                }
                {
                    let mut map = inflight.lock().expect("inflight lock");
                    if let Some(waiters) = map.get_mut(&hash) {
                        // An identical scenario is already simulating:
                        // park this index on it and claim the next item.
                        waiters.push((index, started));
                        counters.coalesced.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    map.insert(hash, Vec::new());
                }
                let (record, events) = simulate_spec(&spec, ctx, opts.quiet);
                cache.store(&spec, &record);
                counters.misses.fetch_add(1, Ordering::Relaxed);
                let waiters = inflight
                    .lock()
                    .expect("inflight lock")
                    .remove(&hash)
                    .expect("in-flight entry owned by this worker");
                let seconds = started.elapsed().as_secs_f64();
                emit_cell_event(ctx, &spec.label(), false, seconds);
                for (waiter_index, waiter_started) in waiters {
                    let waiter_seconds = waiter_started.elapsed().as_secs_f64();
                    emit_cell_event(ctx, &spec.label(), true, waiter_seconds);
                    let _ = result_tx.send(BatchOutcome {
                        index: waiter_index,
                        hash,
                        record: record.clone(),
                        source: CellSource::Coalesced,
                        seconds: waiter_seconds,
                        events: 0,
                    });
                }
                let _ = result_tx.send(BatchOutcome {
                    index,
                    hash,
                    record,
                    source: CellSource::Simulated,
                    seconds,
                    events,
                });
            });
        }
        drop(result_tx);

        // Drain on this thread while workers run (heartbeats and
        // streamed output stay live), reordering to submission order.
        // The window holds only outcomes ahead of the next expected
        // index — bounded by the in-flight count, not the batch.
        let mut window: BTreeMap<usize, BatchOutcome> = BTreeMap::new();
        let mut next = 0usize;
        for outcome in result_rx {
            window.insert(outcome.index, outcome);
            while let Some(outcome) = window.remove(&next) {
                on_result(outcome);
                next += 1;
            }
        }
        assert!(
            window.is_empty(),
            "batch executor lost outcomes before index {next}"
        );
        next
    })
}

/// Builds a [`CellManifest`] entry from one answered scenario.
pub fn cell_manifest(outcome: &BatchOutcome, label: String) -> CellManifest {
    CellManifest {
        label,
        seconds: outcome.seconds,
        events: outcome.events,
        cached: outcome.source != CellSource::Simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(Benchmark::Fft, PolicyKind::OracVT, EngineConfig::fast())
    }

    fn record() -> SweepRecord {
        SweepRecord {
            benchmark: Benchmark::Fft,
            policy: PolicyKind::OracVT,
            tmax_c: 66.25,
            gradient_c: 10.5,
            mean_efficiency: 0.89,
            mean_loss_w: 9.1,
            max_noise_pct: Some(22.6),
            emergency_fraction: Some(0.0041),
            mean_active: 71.5,
            r_squared: None,
        }
    }

    fn temp_cache(tag: &str) -> ScenarioCache {
        let dir = std::env::temp_dir().join(format!("tg-service-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScenarioCache::new(dir)
    }

    #[test]
    fn hash_is_stable_and_field_sensitive() {
        let base = spec();
        assert_eq!(base.content_hash(), spec().content_hash());
        let mut changed = spec();
        changed.engine_config.seed ^= 1;
        assert_ne!(base.content_hash(), changed.content_hash());
        let mut nested = spec();
        nested.engine_config.thermal.package.k_silicon += 1.0;
        assert_ne!(base.content_hash(), nested.content_hash());
        let mut policy = spec();
        policy.policy = PolicyKind::AllOn;
        assert_ne!(base.content_hash(), policy.content_hash());
        let mut bench = spec();
        bench.benchmark = Benchmark::LuNcb;
        assert_ne!(base.content_hash(), bench.content_hash());
    }

    #[test]
    fn cache_round_trips_byte_identically() {
        let cache = temp_cache("roundtrip");
        let (s, r) = (spec(), record());
        assert_eq!(cache.load(&s), CacheLookup::Miss);
        let path = cache.store(&s, &r);
        assert_eq!(cache.load(&s), CacheLookup::Hit(r.clone()));
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&format!("# {SCENARIO_SCHEMA} ")));
        assert!(text.contains(&r.to_csv()));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_invalid_not_hits() {
        let cache = temp_cache("corrupt");
        let (s, r) = (spec(), record());
        let path = cache.store(&s, &r);
        fs::write(&path, "garbage\n").unwrap();
        assert!(matches!(cache.load(&s), CacheLookup::Invalid(_)));
        // A stale hash in the header (config drift) is also invalid.
        fs::write(
            &path,
            format!("# {SCENARIO_SCHEMA} {:016x}\n{}\n", 0u64, r.to_csv()),
        )
        .unwrap();
        assert!(matches!(cache.load(&s), CacheLookup::Invalid(_)));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn mismatched_record_labels_are_invalid() {
        let cache = temp_cache("label");
        let s = spec();
        let mut wrong = record();
        wrong.benchmark = Benchmark::LuNcb;
        let text = format!(
            "{}\n{}\n",
            ScenarioCache::header(s.content_hash()),
            wrong.to_csv()
        );
        fs::create_dir_all(cache.dir()).unwrap();
        fs::write(cache.path(&s), text).unwrap();
        assert!(matches!(cache.load(&s), CacheLookup::Invalid(_)));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_stores_and_loads_never_see_a_torn_entry() {
        let cache = temp_cache("atomic");
        let s = spec();
        // Records of different lengths, so a torn write would show as a
        // short or mixed body.
        let records = [
            record(),
            SweepRecord {
                max_noise_pct: None,
                emergency_fraction: None,
                r_squared: Some(0.123_456_789),
                ..record()
            },
        ];
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..400 {
                    cache.store(&s, &records[i % 2]);
                }
                done.store(true, Ordering::SeqCst);
            });
            let mut loads = 0;
            while !done.load(Ordering::SeqCst) || loads == 0 {
                match cache.load(&s) {
                    CacheLookup::Invalid(why) => panic!("torn entry after {loads} loads: {why}"),
                    CacheLookup::Hit(r) => assert!(records.contains(&r)),
                    CacheLookup::Miss => {}
                }
                loads += 1;
            }
        });
        let names: Vec<String> = fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "temporary files left behind: {names:?}");
        assert!(cache.path(&s).ends_with(&names[0]));
        let _ = fs::remove_dir_all(cache.dir());
    }
}
