//! Cached benchmark × policy sweeps over the scenario service.
//!
//! The headline figures (9, 10, 11) and Table 2 all read the same
//! 14-benchmark × 8-policy grid; on a single core that sweep takes tens
//! of minutes at the paper-faithful configuration, so each
//! (benchmark, policy) cell is cached on disk after its first run. The
//! cache lives under `target/experiments/<tag>/` and is
//! content-addressed: every entry is keyed by the scenario's FNV hash
//! over the *full* [`EngineConfig`](thermogater::EngineConfig) (see
//! [`crate::service::ScenarioSpec`]), so changing any configuration
//! field — solver backend, a package resistance, frame recording —
//! forces a re-run instead of silently serving stale records. Delete
//! the directory to force re-runs wholesale.
//!
//! [`grid`] streams the cells through the
//! [`service`](crate::service) batch executor: workers steal cells
//! from a bounded queue, each keeps one engine for every cell of the
//! grid's configuration (a record never depends on what the engine ran
//! before), and the grid completes in roughly
//! `cells / min(threads, cells)` serial-cell times. Every figure that
//! reads cells of the shared grid takes them from one [`grid`] call and
//! [`cell`]. The worker count comes from
//! [`ExpOptions::resolved_threads`] (`--threads=N`, then
//! `SIMKIT_THREADS`, then the machine's parallelism); the produced
//! records — and the per-cell cache files — are byte-identical to a
//! serial run regardless of thread count.

use crate::context::ExpOptions;
use crate::service::{self, BatchOptions, ScenarioCache, ScenarioSpec, ServeCounters};
use crate::telemetry::TelemetryCtx;
use simkit::telemetry::manifest::{CellManifest, RunManifest};
use simkit::telemetry::EventKind;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use thermogater::{PolicyKind, SimulationResult};
use workload::Benchmark;

/// The scalar metrics of one benchmark × policy run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// Benchmark simulated.
    pub benchmark: Benchmark,
    /// Policy applied.
    pub policy: PolicyKind,
    /// Temporal maximum of the chip-wide maximum temperature, °C.
    pub tmax_c: f64,
    /// Temporal maximum of the spatial thermal gradient, °C.
    pub gradient_c: f64,
    /// Time-averaged effective conversion efficiency.
    pub mean_efficiency: f64,
    /// Time-averaged total regulator conversion loss, W.
    pub mean_loss_w: f64,
    /// Maximum voltage noise, percent of Vdd (`None` for off-chip).
    pub max_noise_pct: Option<f64>,
    /// Fraction of analyzed cycles in voltage emergencies.
    pub emergency_fraction: Option<f64>,
    /// Mean number of active regulators.
    pub mean_active: f64,
    /// Thermal-predictor R² (practical policies).
    pub r_squared: Option<f64>,
}

impl SweepRecord {
    /// Extracts the scalar metrics from a full simulation result.
    pub fn from_result(result: &SimulationResult) -> Self {
        SweepRecord {
            benchmark: result.benchmark(),
            policy: result.policy(),
            tmax_c: result.max_temperature().get(),
            gradient_c: result.max_gradient(),
            mean_efficiency: result.mean_efficiency(),
            mean_loss_w: result.mean_total_vr_loss().get(),
            max_noise_pct: result.max_noise_percent(),
            emergency_fraction: result.emergency_cycle_fraction(),
            mean_active: result.mean_active_count(),
            r_squared: result.predictor_r_squared(),
        }
    }

    /// Lossless one-line CSV encoding: `{:e}` prints the shortest
    /// representation that parses back to the exact same f64, so a
    /// cache round-trip is lossless and a cache-read record equals the
    /// freshly computed one bit for bit.
    pub fn to_csv(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map_or("-".into(), |x| format!("{x:e}"))
        }
        format!(
            "{},{},{:e},{:e},{:e},{:e},{},{},{:e},{}",
            self.benchmark.label(),
            policy_tag(self.policy),
            self.tmax_c,
            self.gradient_c,
            self.mean_efficiency,
            self.mean_loss_w,
            opt(self.max_noise_pct),
            opt(self.emergency_fraction),
            self.mean_active,
            opt(self.r_squared),
        )
    }

    /// Parses one [`SweepRecord::to_csv`] line (`None` when malformed).
    pub fn from_csv(line: &str) -> Option<Self> {
        let parts: Vec<&str> = line.trim().split(',').collect();
        if parts.len() != 10 {
            return None;
        }
        // `Some(None)` for `-`, `None` when malformed.
        fn opt(s: &str) -> Option<Option<f64>> {
            if s == "-" {
                Some(None)
            } else {
                s.parse().ok().map(Some)
            }
        }
        Some(SweepRecord {
            benchmark: benchmark_from_label(parts[0])?,
            policy: policy_from_tag(parts[1])?,
            tmax_c: parts[2].parse().ok()?,
            gradient_c: parts[3].parse().ok()?,
            mean_efficiency: parts[4].parse().ok()?,
            mean_loss_w: parts[5].parse().ok()?,
            max_noise_pct: opt(parts[6])?,
            emergency_fraction: opt(parts[7])?,
            mean_active: parts[8].parse().ok()?,
            r_squared: opt(parts[9])?,
        })
    }
}

/// ASCII cache tag of a policy (labels contain non-filename
/// characters). The match is exhaustive on purpose: adding a
/// `PolicyKind` variant without a unique tag is a compile error, never
/// a silent cache-file collision.
pub fn policy_tag(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::AllOn => "allon",
        PolicyKind::OffChip => "offchip",
        PolicyKind::Naive => "naive",
        PolicyKind::OracT => "oract",
        PolicyKind::OracV => "oracv",
        PolicyKind::OracVT => "oracvt",
        PolicyKind::PracT => "pract",
        PolicyKind::PracVT => "pracvt",
    }
}

/// The inverse of [`policy_tag`] (used by `simulate --policy` and
/// `tg-obs bench-snapshot --policies`).
pub fn policy_from_tag(tag: &str) -> Option<PolicyKind> {
    PolicyKind::ALL.into_iter().find(|&p| policy_tag(p) == tag)
}

/// Resolves a benchmark from its [`Benchmark::label`] (used by the
/// record codec, the `tg-serve` request parser and `simulate --bench`).
pub fn benchmark_from_label(label: &str) -> Option<Benchmark> {
    Benchmark::ALL.into_iter().find(|b| b.label() == label)
}

/// The on-disk cache directory of a configuration
/// (`target/experiments/<tag>/`). Delete it to force re-runs.
pub fn cache_dir(opts: &ExpOptions) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/experiments")
        .join(opts.tag())
}

/// The content-addressed cache of a configuration: the directory above,
/// entries keyed by scenario hash (see [`crate::service::ScenarioCache`]).
pub fn cache(opts: &ExpOptions) -> ScenarioCache {
    ScenarioCache::new(cache_dir(opts))
}

/// The cache-entry path of one cell (tests and tooling use this to
/// inspect or delete individual entries).
pub fn cache_path(opts: &ExpOptions, benchmark: Benchmark, policy: PolicyKind) -> PathBuf {
    cache(opts).path(&ScenarioSpec::new(benchmark, policy, opts.engine_config()))
}

/// Emits a `sweep.heartbeat` progress event (`done` of `total` cells)
/// through the run-level handle. Fields are pure functions of the
/// completion count, so heartbeats stay deterministic.
fn heartbeat(ctx: Option<&TelemetryCtx>, done: usize, total: usize) {
    if let Some(ctx) = ctx {
        ctx.telemetry()
            .event(EventKind::Progress, "sweep.heartbeat")
            .field_u64("done", done as u64)
            .field_u64("total", total as u64)
            .field_f64("frac", done as f64 / total.max(1) as f64)
            .emit();
    }
}

/// One telemetry directory's trace and manifest, shared by every grid a
/// process runs into it.
struct GridTrace {
    ctx: TelemetryCtx,
    /// The cells of every grid finished so far, and the union of their
    /// tags, benchmarks and policies.
    manifest: Mutex<RunManifest>,
}

/// The trace of `opts`' telemetry directory. The first grid a process
/// runs into a directory opens it, truncating what an earlier process
/// left there; later grids append to it. So a process that renders
/// several figures (`repro all`) keeps every grid's events in one trace
/// and every grid's cells in one manifest. A directory whose trace was
/// removed in between starts over.
fn grid_trace(opts: &ExpOptions) -> Option<Arc<GridTrace>> {
    static TRACES: Mutex<Vec<(PathBuf, Arc<GridTrace>)>> = Mutex::new(Vec::new());
    let dir = opts.telemetry.as_ref()?;
    let mut traces = TRACES.lock().unwrap_or_else(PoisonError::into_inner);
    traces.retain(|(_, trace)| trace.ctx.trace_path().exists());
    if let Some((_, trace)) = traces.iter().find(|(open, _)| open == dir) {
        return Some(Arc::clone(trace));
    }
    let trace = Arc::new(GridTrace {
        ctx: TelemetryCtx::from_options(opts)?,
        manifest: Mutex::new(RunManifest::new("sweep")),
    });
    traces.push((dir.clone(), Arc::clone(&trace)));
    Some(trace)
}

/// Adds the `items` not yet listed to the comma-separated list under
/// `key` in `manifest`'s configuration, creating the key if absent.
fn merge_config_list<'a>(
    manifest: &mut RunManifest,
    key: &str,
    items: impl IntoIterator<Item = &'a str>,
) {
    let index = match manifest.config.iter().position(|(k, _)| k == key) {
        Some(index) => index,
        None => {
            manifest.push_config(key, "");
            manifest.config.len() - 1
        }
    };
    let list = &mut manifest.config[index].1;
    for item in items {
        if !list.split(',').any(|listed| listed == item) {
            if !list.is_empty() {
                list.push(',');
            }
            list.push_str(item);
        }
    }
}

/// All records of a benchmark × policy grid (content-addressed cache
/// per cell), in benchmark-major order.
///
/// Cells stream through the [`service`](crate::service) batch
/// executor on [`ExpOptions::resolved_threads`] workers: cached hashes
/// never touch the engine, every missing hash is simulated by exactly
/// one worker (identical in-flight cells coalesce), and the records
/// come back in submission order, so the output is independent of the
/// thread count.
///
/// # Panics
///
/// Panics when any cell's simulation fails (physical configurations do
/// not) or the cache directory cannot be created.
pub fn grid(
    opts: &ExpOptions,
    benchmarks: &[Benchmark],
    policies: &[PolicyKind],
) -> Vec<SweepRecord> {
    let trace = grid_trace(opts);
    let ctx = trace.as_ref().map(|trace| &trace.ctx);
    let cells: Vec<(Benchmark, PolicyKind)> = benchmarks
        .iter()
        .flat_map(|&b| policies.iter().map(move |&p| (b, p)))
        .collect();
    let threads = opts.resolved_threads().min(cells.len().max(1));
    let config = opts.engine_config();
    let specs = cells
        .iter()
        .map(|&(b, p)| ScenarioSpec::new(b, p, config.clone()));
    let counters = ServeCounters::default();
    let batch = BatchOptions {
        quiet: opts.quiet,
        ..BatchOptions::for_threads(threads)
    };
    let mut records: Vec<SweepRecord> = Vec::with_capacity(cells.len());
    let mut cell_manifests: Vec<CellManifest> = Vec::with_capacity(cells.len());
    let total = cells.len();
    service::run_batch(&cache(opts), specs, &batch, ctx, &counters, |outcome| {
        if ctx.is_some() {
            let (b, p) = cells[outcome.index];
            let label = format!("{}-{}", b.label(), policy_tag(p));
            cell_manifests.push(service::cell_manifest(&outcome, label));
        }
        records.push(outcome.record);
        heartbeat(ctx, records.len(), total);
    });

    if let Some(trace) = &trace {
        counters.emit(&trace.ctx);
        let mut manifest = trace
            .manifest
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        merge_config_list(&mut manifest, "tag", [opts.tag()]);
        merge_config_list(
            &mut manifest,
            "benchmarks",
            benchmarks.iter().map(|b| b.label()),
        );
        merge_config_list(
            &mut manifest,
            "policies",
            policies.iter().copied().map(policy_tag),
        );
        manifest.threads = manifest.threads.max(threads);
        manifest.cells.extend(cell_manifests);
        if let Err(e) = trace.ctx.finish(&mut manifest) {
            eprintln!(
                "warning: cannot write sweep manifest into {}: {e}",
                trace.ctx.dir().display()
            );
        }
    }
    records
}

/// Looks up one cell in a grid produced by [`grid`].
///
/// # Panics
///
/// Panics when the cell is missing.
pub fn cell(records: &[SweepRecord], benchmark: Benchmark, policy: PolicyKind) -> &SweepRecord {
    records
        .iter()
        .find(|r| r.benchmark == benchmark && r.policy == policy)
        .expect("cell present in sweep grid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepRecord {
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

    #[test]
    fn csv_roundtrip() {
        let r = sample();
        let line = r.to_csv();
        let back = SweepRecord::from_csv(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn csv_roundtrip_with_none_fields() {
        let mut r = sample();
        r.max_noise_pct = None;
        r.emergency_fraction = None;
        r.r_squared = Some(0.99);
        let back = SweepRecord::from_csv(&r.to_csv()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn malformed_csv_is_rejected() {
        assert!(SweepRecord::from_csv("not,a,record").is_none());
        assert!(SweepRecord::from_csv("").is_none());
        // A garbled optional field is malformed, not absent.
        let mut r = sample();
        r.r_squared = None;
        let garbled = r.to_csv().replace(",-", ",x");
        assert!(SweepRecord::from_csv(&garbled).is_none(), "{garbled}");
    }

    #[test]
    fn policy_tags_are_unique_and_reversible() {
        let mut seen = std::collections::HashSet::new();
        for p in PolicyKind::ALL {
            let tag = policy_tag(p);
            assert_ne!(tag, "unknown", "{p}");
            assert!(seen.insert(tag), "duplicate tag {tag}");
            assert_eq!(policy_from_tag(tag), Some(p));
        }
    }

    #[test]
    fn benchmark_labels_reversible() {
        for b in Benchmark::ALL {
            assert_eq!(benchmark_from_label(b.label()), Some(b));
        }
        assert_eq!(benchmark_from_label("nope"), None);
    }
}
