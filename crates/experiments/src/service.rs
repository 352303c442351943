//! Sweep-as-a-service: content-addressed scenario caching and the
//! sharded batch executor behind `tg-serve` and [`crate::sweep::grid`].
//!
//! The module splits *scenario description* from *engine execution*:
//!
//! * [`ScenarioSpec`] — one (benchmark, policy, [`EngineConfig`])
//!   triple with a canonical FNV-1a content hash over every
//!   configuration field, folded by [`EngineConfig::hash_fields`] into
//!   the [`ContentHasher`] shared with `RunManifest::config_hash`:
//!   floats as their bits, integers as bytes, names and tags as text,
//!   so hashing formats no number. Any field change — solver backend, a
//!   package resistance, one efficiency-curve point, even `0.0` to
//!   `-0.0` — changes the hash. The hash's bytes are versioned by
//!   [`SCENARIO_SCHEMA`].
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
//!   submission order; one worker runs on the caller's thread. Each
//!   worker owns one chip and one engine, which it keeps from cell to
//!   cell and rebuilds only when a cell's configuration hash
//!   ([`EngineConfig::content_hash`]) differs from the previous cell's;
//!   a run does not depend on what its engine ran before, so this
//!   changes no record.
//!
//! [`ServeCounters`] tallies hits/misses/coalesced/invalid, the engine
//! builds and the maximum work-queue depth; [`ServeCounters::emit`]
//! publishes them as `serve.*` telemetry counters so a warm run can
//! prove "zero engine executions" from its trace alone.

use crate::sweep::{self, SweepRecord};
use crate::telemetry::TelemetryCtx;
use floorplan::reference::power8_like;
use floorplan::Floorplan;
use simkit::telemetry::manifest::{CellManifest, ContentHasher};
use simkit::telemetry::{EventKind, Telemetry};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use workload::Benchmark;

/// Schema identifier stamped into (and required of) every cache entry.
/// `v2` hashes floats as bits; a `v1` entry's file name carries a hash
/// no `v2` spec produces, so it reads as a miss.
pub const SCENARIO_SCHEMA: &str = "thermogater.scenario/v2";

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
    /// and every engine-configuration field
    /// ([`EngineConfig::hash_fields`]). Equal specs hash equally; any
    /// field change forces a different hash and therefore a cache miss.
    /// Allocates nothing.
    pub fn content_hash(&self) -> u64 {
        let mut hasher = ContentHasher::new("scenario");
        hasher.push("benchmark", self.benchmark.label());
        hasher.push("policy", sweep::policy_tag(self.policy));
        self.engine_config.hash_fields(&mut hasher);
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
        self.load_hashed(spec, spec.content_hash())
    }

    /// [`ScenarioCache::load`] for `spec` of content hash `hash`.
    fn load_hashed(&self, spec: &ScenarioSpec, hash: u64) -> CacheLookup {
        let text = match fs::read_to_string(self.entry_path(spec, hash)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(e) => return CacheLookup::Invalid(format!("unreadable: {e}")),
        };
        let mut lines = text.lines();
        let expected = Self::header(hash);
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
        self.store_hashed(spec, spec.content_hash(), record)
    }

    /// [`ScenarioCache::store`] for `spec` of content hash `hash`.
    fn store_hashed(&self, spec: &ScenarioSpec, hash: u64, record: &SweepRecord) -> PathBuf {
        static STORES: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(&self.dir).expect("create scenario cache directory");
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
    /// Engines built to simulate the misses: one per worker and
    /// configuration change in [`run_batch`], one per miss in
    /// [`answer_one`].
    pub engine_builds: AtomicU64,
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

    /// Maximum work-queue depth seen (at most `queue_cap`; 0 with one worker).
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
        telemetry.counter(
            "serve.engine_builds",
            self.engine_builds.load(Ordering::Relaxed),
        );
        telemetry.counter("serve.coalesced", self.coalesced.load(Ordering::Relaxed));
        telemetry.counter("serve.invalid", self.invalid.load(Ordering::Relaxed));
        telemetry.counter("serve.queue_depth_max", self.queue_depth_max());
    }
}

/// The engine a worker keeps between cells, with the content hash of
/// the configuration it was built from; empty until the worker's first
/// miss.
type EngineSlot<'c> = Option<(u64, SimulationEngine<'c>)>;

/// Simulates one scenario (the only place the executor touches the
/// engine) on the engine in `slot`, first building one on `chip` (built
/// itself on first use) when the slot is empty or holds another
/// configuration's. The cell's counted telemetry handle, when a context
/// is active, replaces the engine's handle. Returns the record and the
/// cell's event count.
fn simulate_spec<'c>(
    spec: &ScenarioSpec,
    chip: &'c OnceCell<Floorplan>,
    slot: &mut EngineSlot<'c>,
    ctx: Option<&TelemetryCtx>,
    counters: &ServeCounters,
    quiet: bool,
) -> (SweepRecord, u64) {
    if !quiet {
        eprintln!(
            "[sweep] running {} × {} …",
            spec.benchmark.label(),
            spec.policy.label()
        );
    }
    let key = spec.engine_config.content_hash();
    let (_, engine) = match slot.take() {
        Some((built, engine)) if built == key => slot.insert((built, engine)),
        old => {
            // Drop the old engine before building its successor.
            drop(old);
            counters.engine_builds.fetch_add(1, Ordering::Relaxed);
            let engine =
                SimulationEngine::new(chip.get_or_init(power8_like), spec.engine_config.clone());
            slot.insert((key, engine))
        }
    };
    let (telemetry, cell_counter) = ctx.map(TelemetryCtx::cell_handle).unzip();
    engine.set_telemetry(telemetry.unwrap_or_else(Telemetry::disabled));
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

/// One claimed cell: its submission index, its content hash (computed
/// once, when it is claimed) and the instant it was claimed, from which
/// its answer's `seconds` count.
type Claim = (usize, u64, Instant);

/// What answering a cell takes besides the cell: the cache, the
/// telemetry context, the tallies and whether to chatter on stderr.
#[derive(Clone, Copy)]
struct Answerer<'a> {
    cache: &'a ScenarioCache,
    ctx: Option<&'a TelemetryCtx>,
    counters: &'a ServeCounters,
    quiet: bool,
}

impl Answerer<'_> {
    /// Probes the cache for the cell. A valid entry answers it; an
    /// unusable one is reported loudly — on stderr regardless of `quiet`
    /// (a corrupt cache should never be silent) and as a `serve.invalid`
    /// increment — and, like a missing one, leaves the cell to
    /// [`Answerer::simulate`].
    fn probe(self, spec: &ScenarioSpec, claim: Claim) -> Option<BatchOutcome> {
        let hash = claim.1;
        match self.cache.load_hashed(spec, hash) {
            CacheLookup::Hit(record) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Some(self.outcome(spec, claim, record, CellSource::Cache, 0));
            }
            CacheLookup::Invalid(reason) => {
                self.counters.invalid.fetch_add(1, Ordering::Relaxed);
                let path = self.cache.entry_path(spec, hash);
                eprintln!(
                    "[serve] cache entry {} is invalid ({reason}); re-simulating",
                    path.display()
                );
            }
            CacheLookup::Miss => {}
        }
        None
    }

    /// Simulates the cell [`Answerer::probe`] left (on the engine in
    /// `slot`; see [`simulate_spec`]) and stores its record.
    fn simulate<'c>(
        self,
        spec: &ScenarioSpec,
        claim: Claim,
        chip: &'c OnceCell<Floorplan>,
        slot: &mut EngineSlot<'c>,
    ) -> BatchOutcome {
        let (record, events) = simulate_spec(spec, chip, slot, self.ctx, self.counters, self.quiet);
        self.cache.store_hashed(spec, claim.1, &record);
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.outcome(spec, claim, record, CellSource::Simulated, events)
    }

    /// Answers the cells `claim` yields until it runs dry, on one chip
    /// and one engine kept from cell to cell, and returns how many it
    /// claimed. `inflight` maps the hash of each simulation under way to
    /// the cells parked on it, which are answered with its record.
    fn work(
        self,
        inflight: &Mutex<HashMap<u64, Vec<Claim>>>,
        mut claim: impl FnMut() -> Option<(usize, ScenarioSpec)>,
        mut deliver: impl FnMut(BatchOutcome),
    ) -> usize {
        let (chip, mut slot, mut claimed) = (OnceCell::new(), None, 0);
        while let Some((index, spec)) = claim() {
            claimed += 1;
            let claim = (index, spec.content_hash(), Instant::now());
            if let Some(hit) = self.probe(&spec, claim) {
                deliver(hit);
                continue;
            }
            let hash = claim.1;
            let mut map = inflight.lock().expect("inflight lock");
            if let Some(waiters) = map.get_mut(&hash) {
                // An identical scenario is already simulating: park this
                // cell on it and claim the next item.
                waiters.push(claim);
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            map.insert(hash, Vec::new());
            drop(map);
            let outcome = self.simulate(&spec, claim, &chip, &mut slot);
            let waiters = inflight
                .lock()
                .expect("inflight lock")
                .remove(&hash)
                .expect("in-flight entry owned by this worker");
            for waiter in waiters {
                let record = outcome.record.clone();
                deliver(self.outcome(&spec, waiter, record, CellSource::Coalesced, 0));
            }
            deliver(outcome);
        }
        claimed
    }

    /// The answer to the cell, announced by a `sweep.cell` progress
    /// event; a `cached=false` one appears exactly once per engine
    /// execution.
    fn outcome(
        self,
        spec: &ScenarioSpec,
        (index, hash, started): Claim,
        record: SweepRecord,
        source: CellSource,
        events: u64,
    ) -> BatchOutcome {
        let seconds = started.elapsed().as_secs_f64();
        if let Some(ctx) = self.ctx {
            ctx.telemetry()
                .event(EventKind::Progress, "sweep.cell")
                .field_str("cell", spec.label())
                .field_bool("cached", source != CellSource::Simulated)
                .field_f64("seconds", seconds)
                .emit();
        }
        BatchOutcome {
            index,
            hash,
            record,
            source,
            seconds,
            events,
        }
    }
}

/// Answers one scenario synchronously: cache probe, then simulate and
/// store on miss (or loud invalidation) on an engine built for it. The
/// building block of the `tg-serve` request loop.
pub fn answer_one(
    cache: &ScenarioCache,
    spec: &ScenarioSpec,
    ctx: Option<&TelemetryCtx>,
    counters: &ServeCounters,
    quiet: bool,
) -> BatchOutcome {
    let answerer = Answerer {
        cache,
        ctx,
        counters,
        quiet,
    };
    let claim = (0, spec.content_hash(), Instant::now());
    answerer
        .probe(spec, claim)
        .unwrap_or_else(|| answerer.simulate(spec, claim, &OnceCell::new(), &mut None))
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
/// cached never touch the engine. Each worker builds its engine on its
/// first miss and keeps it while the configuration repeats.
///
/// One worker runs on the calling thread and pulls a scenario only
/// after delivering the previous one: no cell waits on a thread wake-up.
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
    let mut specs = specs.into_iter().enumerate();
    let answerer = Answerer {
        cache,
        ctx,
        counters,
        quiet: opts.quiet,
    };
    let inflight = Mutex::new(HashMap::new());
    if threads == 1 {
        return answerer.work(&inflight, || specs.next(), on_result);
    }
    let (work_tx, work_rx) = mpsc::sync_channel::<(usize, ScenarioSpec)>(opts.queue_cap.max(1));
    let work_rx = Mutex::new(work_rx);
    let (result_tx, result_rx) = mpsc::channel::<BatchOutcome>();

    std::thread::scope(|scope| {
        // Feeder: pulls specs lazily and blocks on the bounded queue,
        // providing backpressure against arbitrarily long batches.
        scope.spawn(move || {
            for (index, spec) in specs {
                counters.enqueue();
                if work_tx.send((index, spec)).is_err() {
                    break;
                }
            }
        });

        for _ in 0..threads {
            let result_tx = result_tx.clone();
            let (work_rx, inflight) = (&work_rx, &inflight);
            scope.spawn(move || {
                let claim = || {
                    let claimed = work_rx.lock().expect("work queue lock").recv();
                    claimed.ok().inspect(|_| counters.dequeue())
                };
                answerer.work(inflight, claim, |o| result_tx.send(o).unwrap_or_default());
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
    fn every_hashed_field_moves_the_hash() {
        use simkit::linalg::SolverBackend;
        use simkit::units::{Celsius, Hertz, Seconds, Volts, Watts};
        use vreg::{EfficiencyCurve, RegulatorDesign, RegulatorTopology};

        let points = [(0.0, 0.30), (0.5, 0.80), (1.5, 0.90), (3.0, 0.85)];
        let design = |name: &str, topology, points: &[(f64, f64)], density, response_ns| {
            let curve = EfficiencyCurve::from_points(points.to_vec()).unwrap();
            RegulatorDesign::new(
                name,
                topology,
                curve,
                density,
                Seconds::from_nanos(response_ns),
            )
        };
        let buck = RegulatorTopology::Buck;
        let base = EngineConfig {
            design: design("custom", buck, &points, 30.0, 10.0),
            solver: SolverBackend::Auto,
            thermal: thermal::ThermalConfig {
                solver: SolverBackend::Auto,
                ..EngineConfig::fast().thermal
            },
            pdn: pdn::PdnConfig {
                solver: SolverBackend::Auto,
                ..EngineConfig::fast().pdn
            },
            ..EngineConfig::fast()
        };

        let mut variants: Vec<(String, EngineConfig)> = Vec::new();
        let mut vary = |name: &str, edit: &dyn Fn(&mut EngineConfig)| {
            let mut config = base.clone();
            edit(&mut config);
            variants.push((name.to_string(), config));
        };
        // EngineConfig
        vary("duration", &|c| c.duration = Seconds::from_millis(7.0));
        vary("decision_interval", &|c| {
            c.decision_interval = Seconds::from_millis(0.5)
        });
        vary("thermal_step", &|c| {
            c.thermal_step = Seconds::from_micros(10.0)
        });
        vary("noise_window_count", &|c| c.noise_window_count += 1);
        vary("solver", &|c| c.solver = SolverBackend::Cg);
        vary("profiling_decisions", &|c| c.profiling_decisions += 1);
        vary("frame_every", &|c| c.frame_every += 1);
        vary("seed", &|c| c.seed ^= 1);
        // ThermalConfig
        vary("thermal.nx", &|c| c.thermal.nx += 1);
        vary("thermal.ny", &|c| c.thermal.ny += 1);
        vary("thermal.vr_self_resistance", &|c| {
            c.thermal.vr_self_resistance += 0.5
        });
        vary("thermal.solver", &|c| {
            c.thermal.solver = SolverBackend::Mgcg
        });
        // PackageParams
        vary("k_silicon", &|c| c.thermal.package.k_silicon += 1.0);
        vary("c_silicon", &|c| c.thermal.package.c_silicon += 1.0);
        vary("t_silicon", &|c| c.thermal.package.t_silicon *= 1.5);
        vary("k_tim", &|c| c.thermal.package.k_tim += 1.0);
        vary("t_tim", &|c| c.thermal.package.t_tim *= 1.5);
        vary("k_spreader", &|c| c.thermal.package.k_spreader += 1.0);
        vary("c_spreader", &|c| c.thermal.package.c_spreader += 1.0);
        vary("t_spreader", &|c| c.thermal.package.t_spreader *= 1.5);
        vary("sink_base_resistance", &|c| {
            c.thermal.package.sink_base_resistance *= 1.5
        });
        vary("convection_resistance", &|c| {
            c.thermal.package.convection_resistance *= 1.5
        });
        vary("sink_capacitance", &|c| {
            c.thermal.package.sink_capacitance += 1.0
        });
        vary("ambient", &|c| {
            c.thermal.package.ambient = Celsius::new(40.0)
        });
        // PdnConfig
        vary("pdn.vdd", &|c| c.pdn.vdd = Volts::new(0.9));
        vary("cell_mm", &|c| c.pdn.cell_mm *= 1.5);
        vary("r_sheet_ohm", &|c| c.pdn.r_sheet_ohm *= 1.5);
        vary("r_vr_ohm", &|c| c.pdn.r_vr_ohm *= 1.5);
        vary("r_global_ohm", &|c| c.pdn.r_global_ohm *= 1.5);
        vary("z_transient_ohm", &|c| c.pdn.z_transient_ohm *= 1.5);
        vary("z_reference_active", &|c| c.pdn.z_reference_active += 1.0);
        vary("ring_period_cycles", &|c| c.pdn.ring_period_cycles += 1.0);
        vary("passive_decay_cycles", &|c| {
            c.pdn.passive_decay_cycles += 1.0
        });
        vary("pdn.solver", &|c| c.pdn.solver = SolverBackend::Direct);
        // TechnologyParams
        vary("tech.vdd", &|c| c.tech.vdd = Volts::new(0.9));
        vary("frequency", &|c| c.tech.frequency = Hertz::from_ghz(3.0));
        vary("tdp", &|c| c.tech.tdp = Watts::new(120.0));
        vary("calibration_temperature", &|c| {
            c.tech.calibration_temperature = Celsius::new(70.0)
        });
        vary("static_share_at_calibration", &|c| {
            c.tech.static_share_at_calibration = 0.25
        });
        vary("leakage_temp_coeff", &|c| c.tech.leakage_temp_coeff *= 1.5);
        // RegulatorDesign
        let sc = RegulatorTopology::SwitchedCapacitor;
        let mut designs = vec![
            ("design.name", design("other", buck, &points, 30.0, 10.0)),
            ("design.topology", design("custom", sc, &points, 30.0, 10.0)),
            (
                "design.density",
                design("custom", buck, &points, 31.0, 10.0),
            ),
            (
                "design.response",
                design("custom", buck, &points, 30.0, 11.0),
            ),
        ];
        for k in 0..points.len() {
            let mut moved = points;
            moved[k].0 += 0.1;
            designs.push((
                "design.curve.amps",
                design("custom", buck, &moved, 30.0, 10.0),
            ));
            let mut moved = points;
            moved[k].1 -= 0.01;
            designs.push((
                "design.curve.eta",
                design("custom", buck, &moved, 30.0, 10.0),
            ));
        }
        for (k, (name, design)) in designs.into_iter().enumerate() {
            vary(&format!("{name} #{k}"), &|c| c.design = design.clone());
        }
        assert_eq!(variants.len(), 8 + 4 + 12 + 10 + 6 + 4 + 2 * points.len());

        let spec_of = |config: &EngineConfig| {
            ScenarioSpec::new(Benchmark::Fft, PolicyKind::OracVT, config.clone())
        };
        let mut seen = HashMap::from([(spec_of(&base).content_hash(), "base".to_string())]);
        for (name, config) in &variants {
            let hash = spec_of(config).content_hash();
            if let Some(twin) = seen.insert(hash, name.clone()) {
                panic!("{name} hashes like {twin}");
            }
            assert_ne!(
                config.content_hash(),
                base.content_hash(),
                "{name} leaves the configuration key"
            );
        }

        // Signed zeros differ in their bits, so they hash apart.
        let mut zero = spec_of(&base);
        zero.engine_config.pdn.r_global_ohm = 0.0;
        let mut negative_zero = zero.clone();
        negative_zero.engine_config.pdn.r_global_ohm = -0.0;
        assert_ne!(zero.content_hash(), negative_zero.content_hash());

        // Clones hash equal; the benchmark and the policy move the
        // scenario hash but not the configuration key.
        let spec = spec_of(&base);
        assert_eq!(spec.content_hash(), spec.clone().content_hash());
        assert_eq!(base.content_hash(), base.clone().content_hash());
        for other in [
            ScenarioSpec::new(Benchmark::LuNcb, spec.policy, base.clone()),
            ScenarioSpec::new(spec.benchmark, PolicyKind::AllOn, base.clone()),
        ] {
            assert_ne!(other.content_hash(), spec.content_hash());
            assert_eq!(other.engine_config.content_hash(), base.content_hash());
        }
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

    /// Loads `bytes` as the entry of `s` in `cache`: an error when
    /// `load` panics, reads the existing file as a miss, or hits a record
    /// of another cell.
    fn load_bytes(
        cache: &ScenarioCache,
        s: &ScenarioSpec,
        bytes: &[u8],
    ) -> Result<CacheLookup, String> {
        fs::write(cache.path(s), bytes).unwrap();
        let lookup = std::panic::catch_unwind(|| cache.load(s))
            .map_err(|_| format!("load panicked on a {}-byte entry", bytes.len()))?;
        match &lookup {
            CacheLookup::Hit(r) if (r.benchmark, r.policy) != (s.benchmark, s.policy) => {
                Err(format!("hit for another cell: {}", r.to_csv()))
            }
            CacheLookup::Miss => Err("an existing entry reads as a miss".into()),
            _ => Ok(lookup),
        }
    }

    #[test]
    fn load_survives_every_truncation_and_byte_mutation() {
        use simkit::check::{self, CheckConfig, Checker};
        let cache = temp_cache("fuzz");
        let (s, r) = (spec(), record());
        let entry = fs::read(cache.store(&s, &r)).unwrap();
        // The header line and its newline: no prefix this long or
        // shorter holds a record.
        let header_line = ScenarioCache::header(s.content_hash()).len() + 1;
        for end in 0..=entry.len() {
            let lookup = load_bytes(&cache, &s, &entry[..end])
                .unwrap_or_else(|e| panic!("prefix of {end} bytes: {e}"));
            if end <= header_line {
                assert!(
                    matches!(lookup, CacheLookup::Invalid(_)),
                    "prefix of {end} bytes: {lookup:?}"
                );
            }
        }
        assert_eq!(load_bytes(&cache, &s, &entry), Ok(CacheLookup::Hit(r)));
        let checker = Checker::new(CheckConfig {
            seed: 0x5343_4143, // "SCAC"
            cases: 300,
            ..CheckConfig::default()
        });
        let gen = (check::usize_in(0, 1 << 16), check::usize_in(0, 255));
        checker.assert(
            "service.cache_load_survives_mutation",
            &gen,
            |&(at, byte)| {
                let mut bytes = entry.clone();
                bytes[at % entry.len()] = byte as u8;
                load_bytes(&cache, &s, &bytes).map(|_| ())
            },
        );
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_reused_engine_gives_a_fresh_engines_record_under_every_backend() {
        use simkit::linalg::SolverBackend;
        // Repeats of a cell come after other benchmarks and policies, and
        // right after the same benchmark (the trace and θ memos replay).
        let cells = [
            (Benchmark::LuNcb, PolicyKind::OracVT),
            (Benchmark::Barnes, PolicyKind::PracVT),
            (Benchmark::LuNcb, PolicyKind::PracVT),
            (Benchmark::LuNcb, PolicyKind::OracVT),
            (Benchmark::Barnes, PolicyKind::AllOn),
            (Benchmark::Barnes, PolicyKind::PracVT),
        ];
        for solver in [
            SolverBackend::Direct,
            SolverBackend::Cg,
            SolverBackend::Mgcg,
        ] {
            let config = EngineConfig {
                solver,
                ..crate::context::ExpOptions::tiny().engine_config()
            };
            let (chip, mut slot) = (OnceCell::new(), None);
            let counters = ServeCounters::default();
            for (benchmark, policy) in cells {
                let spec = ScenarioSpec::new(benchmark, policy, config.clone());
                let (reused, _) = simulate_spec(&spec, &chip, &mut slot, None, &counters, true);
                let (fresh, _) =
                    simulate_spec(&spec, &OnceCell::new(), &mut None, None, &counters, true);
                assert_eq!(
                    reused.to_csv(),
                    fresh.to_csv(),
                    "{} under {solver:?}",
                    spec.label()
                );
            }
            // One build for the reused engine, one per fresh engine.
            let builds = counters.engine_builds.load(Ordering::Relaxed);
            assert_eq!(builds, 1 + cells.len() as u64);
        }
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
