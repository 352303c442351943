//! Performance snapshots (`BENCH_<label>.json`, schema
//! `thermogater.bench/v2`).
//!
//! A snapshot pins the repository's performance at one point in time.
//! It is a header (`label`, `config`, `bench`) plus one flat list of
//! metric [`Row`]s, each `(key, value, better, tol)`: the metric name
//! `tg-obs diff` prints, its value, which way it may move, and how far.
//! `tg-obs bench-snapshot` writes one; `tg-obs diff` compares two under
//! the baseline's per-row direction and tolerance
//! ([`crate::obs::diff_snapshots`]) and fails CI on a regression, so the
//! `BENCH_*.json` trajectory accumulates a machine-checkable perf
//! history instead of prose.
//!
//! A key's first segment after `snap.` names its *axis*:
//!
//! * a policy tag (`snap.oract.…`) — the pinned fast-configuration
//!   workload (`lu_ncb` under [`EngineConfig::fast`]): throughput
//!   (thermal steps per second), the per-phase wall-time breakdown, and
//!   solver iteration percentiles per solve site, recovered from the
//!   run's own telemetry stream;
//! * `scaling` — steady-solve cost per (grid, backend) cell;
//! * `telemetry` — frame-recorder overhead;
//! * `serve` — scenario-service cache-hit throughput;
//! * `entries` and `peak_rss_bytes` — the policy count and the process
//!   peak RSS.
//!
//! Wall-clock numbers are env-sensitive, so their rows are `info`, or
//! gate only an order-of-magnitude change (`overhead_share`) or loosely
//! (peak RSS). Solver solve and iteration counts are deterministic and
//! gate `exact`: `ci.sh` diffs a fresh capture against the committed
//! `BENCH_ref.json`, so any change in them fails until the reference is
//! re-captured.

use crate::obs::Direction;
use simkit::linalg::SolverBackend;
use simkit::telemetry::analyze::TraceAnalysis;
use simkit::telemetry::json::{self, JsonValue};
use simkit::telemetry::Telemetry;
use simkit::units::Watts;
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;
use thermal::{PowerMap, SteadyScratch, ThermalConfig, ThermalModel};
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use workload::Benchmark;

/// Schema identifier stamped into every snapshot this code writes.
pub const SNAPSHOT_SCHEMA: &str = "thermogater.bench/v2";

/// The pinned benchmark every policy measurement runs.
pub const SNAPSHOT_BENCH: Benchmark = Benchmark::LuNcb;

/// Peak RSS may grow this much before gating.
const PEAK_RSS_TOL: f64 = 0.30;
/// An overhead share may grow this much before gating (both the
/// numerator and denominator are wall-clock, so the ratio is doubly
/// env-sensitive; an order of magnitude means the cost model changed).
const OVERHEAD_SHARE_TOL: f64 = 9.0;

/// Walls below the clock's resolution count as this long, so derived
/// rates and shares stay finite (and hence writable).
const MIN_WALL_S: f64 = 1e-9;

/// One metric of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name, `snap.<axis>.…` — what `tg-obs diff` prints.
    pub key: String,
    /// Measured value (always finite).
    pub value: f64,
    /// Which way the metric may move from a baseline: serialised as
    /// `better` = `higher` ([`Direction::LowerIsWorse`]), `lower`
    /// ([`Direction::HigherIsWorse`]), `exact` ([`Direction::BothWays`])
    /// or `info` ([`Direction::Informational`]).
    pub better: Direction,
    /// Allowed relative change in the gating direction (finite, ≥ 0).
    pub tol: f64,
}

impl Row {
    fn new(key: String, value: f64, better: Direction, tol: f64) -> Row {
        Row {
            key,
            value,
            better,
            tol,
        }
    }

    fn exact(key: String, value: f64) -> Row {
        Row::new(key, value, Direction::BothWays, 0.0)
    }

    fn info(key: String, value: f64) -> Row {
        Row::new(key, value, Direction::Informational, 0.0)
    }

    /// The key's first segment after `snap.`: a policy tag, `scaling`,
    /// `telemetry`, `serve`, `entries` or `peak_rss_bytes`.
    pub fn axis(&self) -> &str {
        let rest = self.key.strip_prefix("snap.").unwrap_or(&self.key);
        rest.split('.').next().unwrap_or(rest)
    }
}

/// `x` per second of `wall_s`.
fn per_wall(x: f64, wall_s: f64) -> f64 {
    x / wall_s.max(MIN_WALL_S)
}

fn entries_row(policies: f64) -> Row {
    Row::exact("snap.entries".into(), policies)
}

fn peak_rss_row(bytes: f64) -> Row {
    Row::new(
        "snap.peak_rss_bytes".into(),
        bytes,
        Direction::HigherIsWorse,
        PEAK_RSS_TOL,
    )
}

fn policy_rows(p: &str, steps: f64, wall_s: f64, steps_per_sec: f64) -> [Row; 3] {
    [
        Row::info(format!("snap.{p}.steps_per_sec"), steps_per_sec),
        Row::info(format!("snap.{p}.wall_s"), wall_s),
        Row::info(format!("snap.{p}.steps"), steps),
    ]
}

fn phase_row(p: &str, phase: &str, seconds: f64) -> Row {
    Row::info(format!("snap.{p}.phase.{phase}_s"), seconds)
}

/// `solves` is the site's presence marker: a site missing from one side
/// gates under its key.
fn site_rows(p: &str, site: &str, solves: f64, p50: f64, p95: f64, residual_max: f64) -> [Row; 4] {
    let key = |stat: &str| format!("snap.{p}.solver.{site}.{stat}");
    [
        Row::exact(key("solves"), solves),
        Row::exact(key("iters_p50"), p50),
        Row::exact(key("iters_p95"), p95),
        Row::info(key("residual_max"), residual_max),
    ]
}

/// `solves` is the cell's presence marker: a (grid, backend) cell
/// dropped from one side gates under its key.
fn scaling_rows(
    grid: f64,
    backend: &str,
    solves: f64,
    iters_mean: f64,
    setup_s: f64,
    wall_s: f64,
) -> [Row; 4] {
    let key = |stat: &str| format!("snap.scaling.{grid}.{backend}.{stat}");
    [
        Row::exact(key("solves"), solves),
        Row::exact(key("iters_mean"), iters_mean),
        Row::info(key("setup_s"), setup_s),
        Row::info(key("wall_s"), wall_s),
    ]
}

/// Rows of the `telemetry` overhead axis: a deterministic count that gates exactly, the sink's self-timed cost
/// as a share of the instrumented run's wall, and both walls for
/// context.
fn overhead_rows(
    axis: &str,
    count: (&str, f64),
    overhead_us: f64,
    wall: (&str, f64),
    base_wall_s: f64,
) -> [Row; 4] {
    [
        Row::exact(format!("snap.{axis}.{}", count.0), count.1),
        Row::new(
            format!("snap.{axis}.overhead_share"),
            per_wall(overhead_us / 1e6, wall.1),
            Direction::HigherIsWorse,
            OVERHEAD_SHARE_TOL,
        ),
        Row::info(format!("snap.{axis}.{}", wall.0), wall.1),
        Row::info(format!("snap.{axis}.base_wall_s"), base_wall_s),
    ]
}

/// The serve axis's deterministic counters, in row order.
const SERVE_COUNTERS: [&str; 5] = [
    "scenarios",
    "unique",
    "cold_misses",
    "cold_served",
    "warm_hits",
];

fn serve_rows(counters: [f64; 5], cold_wall_s: f64, warm_wall_s: f64) -> Vec<Row> {
    let mut rows: Vec<Row> = SERVE_COUNTERS
        .iter()
        .zip(counters)
        .map(|(name, n)| Row::exact(format!("snap.serve.{name}"), n))
        .collect();
    rows.push(Row::info("snap.serve.cold_wall_s".into(), cold_wall_s));
    rows.push(Row::info("snap.serve.warm_wall_s".into(), warm_wall_s));
    rows.push(Row::info(
        "snap.serve.warm_per_sec".into(),
        per_wall(counters[0], warm_wall_s),
    ));
    rows
}

/// A schema-tagged performance snapshot (one `BENCH_<label>.json`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchSnapshot {
    /// Snapshot label (`ci`, a date stamp, …) — names the output file.
    pub label: String,
    /// Engine-configuration tag the policy runs used.
    pub config: String,
    /// Benchmark label the policy runs used.
    pub bench: String,
    /// Every measured metric, in capture order; keys are unique.
    pub rows: Vec<Row>,
}

/// Why a snapshot document was rejected. Every variant about a value
/// names the row key it came from.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The text is not one JSON document.
    Json(String),
    /// The `schema` tag is missing or names no supported version.
    Schema(String),
    /// A required member is missing or has the wrong JSON type.
    Missing(String),
    /// A value is NaN or infinite.
    NonFinite {
        /// The offending row.
        key: String,
    },
    /// A `better` tag other than `higher`, `lower`, `exact` or `info`.
    UnknownBetter {
        /// The offending row.
        key: String,
        /// The tag it carried.
        tag: String,
    },
    /// A tolerance that is negative or not finite.
    BadTolerance {
        /// The offending row.
        key: String,
        /// The tolerance it carried.
        tol: f64,
    },
    /// Two rows share a key.
    DuplicateKey {
        /// The repeated key.
        key: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "malformed JSON: {e}"),
            SnapshotError::Schema(e) => f.write_str(e),
            SnapshotError::Missing(what) => write!(f, "snapshot missing {what}"),
            SnapshotError::NonFinite { key } => write!(f, "{key}: value is not finite"),
            SnapshotError::UnknownBetter { key, tag } => write!(
                f,
                "{key}: unknown better tag {tag:?} (expected higher, lower, exact or info)"
            ),
            SnapshotError::BadTolerance { key, tol } => {
                write!(
                    f,
                    "{key}: tolerance {tol} is not a finite non-negative number"
                )
            }
            SnapshotError::DuplicateKey { key } => write!(f, "{key}: duplicate row key"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Peak resident set size of this process (`VmHWM` from
/// `/proc/self/status`); `None` where unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Measures one policy under the pinned fast configuration: its
/// `snap.<policy>.…` rows.
///
/// The run is traced into an in-memory sink so solver iteration
/// *distributions* (not just the mean/max the engine aggregates) can be
/// rolled up through [`TraceAnalysis`].
///
/// # Errors
///
/// Propagates engine failures as a rendered message.
pub fn measure_policy(policy: PolicyKind) -> Result<Vec<Row>, String> {
    let chip = floorplan::reference::power8_like();
    let config = EngineConfig::fast();
    let steps = (config.duration.get() / config.thermal_step.get()).round();
    let mut engine = SimulationEngine::new(&chip, config);
    let (telemetry, sink) = Telemetry::recorder();
    engine.set_telemetry(telemetry);

    let started = Instant::now();
    let result = engine
        .run(SNAPSHOT_BENCH, policy)
        .map_err(|e| format!("{policy:?} run failed: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();

    let mut analysis = TraceAnalysis::exact();
    for event in sink.events() {
        analysis.observe(&event);
    }
    let p = crate::sweep::policy_tag(policy);
    let mut rows = policy_rows(p, steps, wall_s, per_wall(steps, wall_s)).to_vec();
    rows.extend(
        result
            .phase_times()
            .iter()
            .map(|(name, seconds, _)| phase_row(p, name, seconds)),
    );
    for (site, rollup) in &analysis.solvers {
        rows.extend(site_rows(
            p,
            site,
            rollup.solves() as f64,
            rollup.iters.percentile(50.0).unwrap_or(0.0),
            rollup.iters.percentile(95.0).unwrap_or(0.0),
            rollup.residuals.max().unwrap_or(0.0),
        ));
    }
    Ok(rows)
}

/// Frame-recorder sampling period (thermal steps) for the pinned
/// overhead measurement — ~6 frames over the fast config's 300 steps.
pub const SNAPSHOT_FRAME_EVERY: usize = 50;

/// Measures the frame-recorder overhead axis (`snap.telemetry.…`): the
/// pinned fast-config workload once with the spatial frame recorder
/// sampling every [`SNAPSHOT_FRAME_EVERY`] steps, once with telemetry on
/// but frames off. The frames-on run's `telemetry.frames` /
/// `telemetry.overhead` counters provide the deterministic frame count
/// and the recorder's self-reported cost.
///
/// # Errors
///
/// Propagates engine failures as a rendered message.
pub fn measure_telemetry_overhead() -> Result<Vec<Row>, String> {
    let chip = floorplan::reference::power8_like();
    let run = |frame_every: usize| -> Result<(f64, TraceAnalysis), String> {
        let config = EngineConfig {
            frame_every,
            ..EngineConfig::fast()
        };
        let mut engine = SimulationEngine::new(&chip, config);
        let (telemetry, sink) = Telemetry::recorder();
        engine.set_telemetry(telemetry);
        let started = Instant::now();
        engine
            .run(SNAPSHOT_BENCH, PolicyKind::PracVT)
            .map_err(|e| format!("overhead run failed: {e}"))?;
        let wall_s = started.elapsed().as_secs_f64();
        let mut analysis = TraceAnalysis::exact();
        for event in sink.events() {
            analysis.observe(&event);
        }
        Ok((wall_s, analysis))
    };
    let (frames_wall_s, analysis) = run(SNAPSHOT_FRAME_EVERY)?;
    let (base_wall_s, _) = run(0)?;
    Ok(overhead_rows(
        "telemetry",
        ("frames", analysis.counter("telemetry.frames") as f64),
        analysis.counter("telemetry.overhead") as f64,
        ("frames_wall_s", frames_wall_s),
        base_wall_s,
    )
    .to_vec())
}

/// Benchmarks of the serve-throughput batch (small but not singular,
/// so the batch exercises distinct hashes).
pub const SERVE_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::LuNcb,
    Benchmark::Fft,
    Benchmark::Barnes,
    Benchmark::Radix,
];

/// Policies of the serve-throughput batch.
pub const SERVE_POLICIES: [PolicyKind; 3] =
    [PolicyKind::AllOn, PolicyKind::OracT, PolicyKind::PracVT];

/// Repeats of the unique-cell block in the serve-throughput batch —
/// every unique scenario appears this many times, so the cold pass
/// must serve `repeats − 1` of each without touching the engine.
pub const SERVE_REPEATS: usize = 25;

/// Measures the scenario-service axis (`snap.serve.…`): a batch of
/// `|SERVE_BENCHMARKS| × |SERVE_POLICIES| × SERVE_REPEATS` tiny-config
/// scenarios streamed through the batch executor against a fresh
/// temporary cache (cold), then again (warm). The cold pass may answer
/// a duplicate either from the just-written cache or by coalescing
/// onto the in-flight simulation — both bypass the engine, so
/// `cold_misses` (= unique hashes) and `cold_served` (= the rest) are
/// deterministic even though the split is not. The warm pass must be
/// all hits. The counters gate exactly; the walls and the derived
/// `warm_per_sec` are informational.
///
/// # Errors
///
/// Reports counter inconsistencies (an engine run where none was
/// allowed) as a rendered message.
pub fn measure_serve_throughput() -> Result<Vec<Row>, String> {
    use crate::service::{run_batch, BatchOptions, ScenarioCache, ScenarioSpec, ServeCounters};
    use std::sync::atomic::Ordering;

    let dir = std::env::temp_dir().join(format!("tg-serve-bench-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = ScenarioCache::new(&dir);
    let config = crate::context::ExpOptions::tiny().engine_config();
    let block: Vec<ScenarioSpec> = SERVE_BENCHMARKS
        .iter()
        .flat_map(|&b| SERVE_POLICIES.iter().map(move |&p| (b, p)))
        .map(|(b, p)| ScenarioSpec::new(b, p, config.clone()))
        .collect();
    let unique = block.len() as u64;
    let scenarios = unique * SERVE_REPEATS as u64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let batch = BatchOptions {
        quiet: true,
        ..BatchOptions::for_threads(threads)
    };
    let pass = |counters: &ServeCounters| -> (u64, f64) {
        let specs = (0..SERVE_REPEATS).flat_map(|_| block.iter().cloned());
        let started = Instant::now();
        let answered = run_batch(&cache, specs, &batch, None, counters, |_| {});
        (answered as u64, started.elapsed().as_secs_f64())
    };

    let cold = ServeCounters::default();
    let (cold_answered, cold_wall_s) = pass(&cold);
    let warm = ServeCounters::default();
    let (warm_answered, warm_wall_s) = pass(&warm);
    let _ = fs::remove_dir_all(&dir);

    let cold_misses = cold.misses.load(Ordering::Relaxed);
    let cold_served = cold.hits.load(Ordering::Relaxed) + cold.coalesced.load(Ordering::Relaxed);
    let warm_hits = warm.hits.load(Ordering::Relaxed);
    if cold_answered != scenarios || warm_answered != scenarios {
        return Err(format!(
            "serve axis answered {cold_answered}/{warm_answered} of {scenarios} scenarios"
        ));
    }
    if cold_misses != unique {
        return Err(format!(
            "cold pass simulated {cold_misses} scenarios, expected the {unique} unique hashes"
        ));
    }
    if warm.misses.load(Ordering::Relaxed) != 0 || warm_hits != scenarios {
        return Err(format!(
            "warm pass was not pure cache hits: {}",
            warm.summary()
        ));
    }
    Ok(serve_rows(
        [scenarios, unique, cold_misses, cold_served, warm_hits].map(|n| n as f64),
        cold_wall_s,
        warm_wall_s,
    ))
}

/// Captures a snapshot: one [`measure_policy`] run per `policies`
/// entry, the frame-recorder overhead axis, plus the process peak RSS
/// (taken before any scaling or serve rows a caller appends, so it
/// prices the pinned workload alone).
///
/// # Errors
///
/// Propagates the first failing measurement.
pub fn capture(label: &str, policies: &[PolicyKind]) -> Result<BenchSnapshot, String> {
    let mut policy_rows = Vec::new();
    for &p in policies {
        policy_rows.extend(measure_policy(p)?);
    }
    let telemetry = measure_telemetry_overhead()?;
    let mut rows = vec![entries_row(policies.len() as f64)];
    rows.extend(peak_rss_bytes().map(|b| peak_rss_row(b as f64)));
    rows.extend(telemetry);
    rows.extend(policy_rows);
    Ok(BenchSnapshot {
        label: label.to_string(),
        config: "fast".to_string(),
        bench: SNAPSHOT_BENCH.label().to_string(),
        rows,
    })
}

/// Backends the grid-scaling axis measures: every pinned steady path.
pub const SCALING_BACKENDS: [SolverBackend; 3] = [
    SolverBackend::Cg,
    SolverBackend::Mgcg,
    SolverBackend::Direct,
];

/// Measures the steady-solve grid-scaling axis (`snap.scaling.…`): for
/// each `grid` edge and each backend in [`SCALING_BACKENDS`], one cold
/// solve (which builds the backend's cached factor / multigrid
/// hierarchy — its wall-clock is `setup_s`) followed by `warm_solves`
/// solves from a freshly reset ambient state against the warm cache.
/// Resetting the state each solve keeps every measured solve doing full
/// work (a warm-started repeat of an identical system would converge
/// instantly and measure nothing).
///
/// # Errors
///
/// Propagates solver failures as a rendered message.
pub fn capture_scaling(grids: &[usize], warm_solves: usize) -> Result<Vec<Row>, String> {
    let chip = floorplan::reference::power8_like();
    let mut out = Vec::new();
    for &grid in grids {
        for backend in SCALING_BACKENDS {
            let config = ThermalConfig {
                nx: grid,
                ny: grid,
                solver: backend,
                ..ThermalConfig::standard()
            };
            let model = ThermalModel::new(&chip, config);
            let mut pm = PowerMap::new(&model);
            for block in chip.blocks() {
                pm.add_block(block.id(), Watts::new(2.0))
                    .map_err(|e| format!("power map: {e}"))?;
            }
            let mut scratch = SteadyScratch::new();
            let mut state = model.ambient_state();
            let err = |e| format!("steady {grid}x{grid} {}: {e}", backend.name());
            let started = Instant::now();
            model
                .steady_state_with_scratch(&pm, &mut state, &mut scratch)
                .map_err(err)?;
            let setup_s = started.elapsed().as_secs_f64();
            let mut iters = 0u64;
            let started = Instant::now();
            for _ in 0..warm_solves {
                state = model.ambient_state();
                let stats = model
                    .steady_state_with_scratch(&pm, &mut state, &mut scratch)
                    .map_err(err)?;
                iters += stats.iterations as u64;
            }
            out.extend(scaling_rows(
                grid as f64,
                backend.name(),
                warm_solves as f64,
                iters as f64 / (warm_solves.max(1)) as f64,
                setup_s,
                started.elapsed().as_secs_f64(),
            ));
        }
    }
    Ok(out)
}

impl BenchSnapshot {
    /// The conventional file name, `BENCH_<label>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.label)
    }

    /// The row with this key.
    pub fn row(&self, key: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.key == key)
    }

    /// The value of the row with this key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.row(key).map(|r| r.value)
    }

    /// Serialises the snapshot as one `thermogater.bench/v2` JSON
    /// document, one row per line (trailing newline included, for clean
    /// committed artifacts).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + 96 * self.rows.len());
        out.push_str("{\"schema\":");
        json::write_str(&mut out, SNAPSHOT_SCHEMA);
        for (name, value) in [
            ("label", &self.label),
            ("config", &self.config),
            ("bench", &self.bench),
        ] {
            out.push_str(",\"");
            out.push_str(name);
            out.push_str("\":");
            json::write_str(&mut out, value);
        }
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"key\":");
            json::write_str(&mut out, &row.key);
            out.push_str(",\"value\":");
            json::write_f64(&mut out, row.value);
            out.push_str(",\"better\":");
            json::write_str(&mut out, row.better.better_tag());
            out.push_str(",\"tol\":");
            json::write_f64(&mut out, row.tol);
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes `BENCH_<label>.json` into `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn write(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(self.file_name());
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Parses and validates a document.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing or unknown schema tag, a missing or
    /// mistyped member, and every row the type cannot represent: a
    /// non-finite value, an unknown `better` tag, a negative or
    /// non-finite tolerance, or a duplicate key.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let doc = json::parse(text.trim()).map_err(SnapshotError::Json)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| SnapshotError::Schema("snapshot missing \"schema\"".into()))?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(SnapshotError::Schema(format!(
                "unsupported schema {schema:?} (expected {SNAPSHOT_SCHEMA:?})"
            )));
        }
        let rows = read_rows(&doc)?;
        let mut keys = HashSet::new();
        for row in &rows {
            if !row.value.is_finite() {
                return Err(SnapshotError::NonFinite {
                    key: row.key.clone(),
                });
            }
            if !(row.tol.is_finite() && row.tol >= 0.0) {
                return Err(SnapshotError::BadTolerance {
                    key: row.key.clone(),
                    tol: row.tol,
                });
            }
            if !keys.insert(row.key.as_str()) {
                return Err(SnapshotError::DuplicateKey {
                    key: row.key.clone(),
                });
            }
        }
        let header = |name: &str| {
            doc.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| SnapshotError::Missing(format!("\"{name}\"")))
        };
        Ok(BenchSnapshot {
            label: header("label")?,
            config: header("config")?,
            bench: header("bench")?,
            rows,
        })
    }
}

/// A number member of a JSON object, named `path.field` when missing.
fn number(obj: &JsonValue, path: &str, field: &str) -> Result<f64, SnapshotError> {
    obj.get(field)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| SnapshotError::Missing(format!("number {path}.{field}")))
}

/// A string member of a JSON object, named `path.field` when missing.
fn string<'d>(obj: &'d JsonValue, path: &str, field: &str) -> Result<&'d str, SnapshotError> {
    obj.get(field)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| SnapshotError::Missing(format!("string {path}.{field}")))
}

/// An array member of a JSON object, named `path.field` when missing.
fn array<'d>(
    obj: &'d JsonValue,
    path: &str,
    field: &str,
) -> Result<&'d [JsonValue], SnapshotError> {
    obj.get(field)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| SnapshotError::Missing(format!("array {path}.{field}")))
}

/// A v2 document's `rows`, as written; [`BenchSnapshot::from_json`]
/// validates the values.
fn read_rows(doc: &JsonValue) -> Result<Vec<Row>, SnapshotError> {
    let mut rows = Vec::new();
    for (i, row) in array(doc, "snapshot", "rows")?.iter().enumerate() {
        let key = string(row, &format!("rows[{i}]"), "key")?;
        let tag = string(row, key, "better")?;
        let better =
            Direction::from_better_tag(tag).ok_or_else(|| SnapshotError::UnknownBetter {
                key: key.to_string(),
                tag: tag.to_string(),
            })?;
        rows.push(Row::new(
            key.to_string(),
            number(row, key, "value")?,
            better,
            number(row, key, "tol")?,
        ));
    }
    Ok(rows)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simkit::check::{self, CheckConfig, Checker};

    /// A small hand-built snapshot (no engine run — fast) with every
    /// axis.
    pub(crate) fn sample(label: &str, iters_p95: f64) -> BenchSnapshot {
        let mut rows = vec![entries_row(1.0), peak_rss_row(64.0 * 1024.0 * 1024.0)];
        rows.extend(overhead_rows(
            "telemetry",
            ("frames", 6.0),
            800.0,
            ("frames_wall_s", 0.5),
            0.49,
        ));
        rows.extend(serve_rows([300.0, 12.0, 12.0, 288.0, 300.0], 2.0, 0.02));
        rows.extend(policy_rows("oract", 300.0, 0.5, 600.0));
        rows.push(phase_row("oract", "trace", 0.01));
        rows.push(phase_row("oract", "transient", 0.4));
        rows.extend(site_rows("oract", "transient", 300.0, 3.0, iters_p95, 1e-9));
        rows.extend(scaling_rows(64.0, "cg", 3.0, 210.0, 0.0, 0.09));
        rows.extend(scaling_rows(64.0, "mgcg", 3.0, 14.0, 0.01, 0.03));
        BenchSnapshot {
            label: label.to_string(),
            config: "fast".to_string(),
            bench: "lu_ncb".to_string(),
            rows,
        }
    }

    /// The row with `key`, for tests that doctor one value.
    pub(crate) fn row_mut<'s>(snap: &'s mut BenchSnapshot, key: &str) -> &'s mut Row {
        snap.rows
            .iter_mut()
            .find(|r| r.key == key)
            .unwrap_or_else(|| panic!("no row {key}"))
    }

    #[test]
    fn round_trips_through_json() {
        let snap = sample("test", 4.0);
        let back = BenchSnapshot::from_json(&snap.to_json()).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.file_name(), "BENCH_test.json");
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(matches!(
            BenchSnapshot::from_json("not json"),
            Err(SnapshotError::Json(_))
        ));
        assert!(BenchSnapshot::from_json("{}").is_err());
        let wrong_schema = sample("x", 4.0).to_json().replace(SNAPSHOT_SCHEMA, "v0");
        assert!(matches!(
            BenchSnapshot::from_json(&wrong_schema),
            Err(SnapshotError::Schema(_))
        ));
        let no_rows = sample("x", 4.0).to_json().replace("\"rows\"", "\"cells\"");
        assert!(BenchSnapshot::from_json(&no_rows).is_err());
    }

    fn rejection(text: &str) -> SnapshotError {
        BenchSnapshot::from_json(text).expect_err("document must be rejected")
    }

    #[test]
    fn rejects_a_non_finite_value() {
        let text = sample("x", 4.0).to_json().replace(
            r#""key":"snap.oract.wall_s","value":0.5"#,
            r#""key":"snap.oract.wall_s","value":1e999"#,
        );
        let key = "snap.oract.wall_s".to_string();
        assert_eq!(rejection(&text), SnapshotError::NonFinite { key });
    }

    #[test]
    fn rejects_an_unknown_better_tag() {
        let text = sample("x", 4.0).to_json().replace(
            r#""key":"snap.entries","value":1,"better":"exact""#,
            r#""key":"snap.entries","value":1,"better":"up""#,
        );
        assert_eq!(
            rejection(&text),
            SnapshotError::UnknownBetter {
                key: "snap.entries".into(),
                tag: "up".into()
            }
        );
    }

    #[test]
    fn rejects_a_negative_or_non_finite_tolerance() {
        let rss = r#""key":"snap.peak_rss_bytes","value":67108864,"better":"lower","tol":0.3"#;
        for (tol, expected) in [("-0.1", -0.1), ("1e999", f64::INFINITY)] {
            let text = sample("x", 4.0)
                .to_json()
                .replace(rss, &rss.replace("0.3", tol));
            assert_eq!(
                rejection(&text),
                SnapshotError::BadTolerance {
                    key: "snap.peak_rss_bytes".into(),
                    tol: expected
                }
            );
        }
    }

    #[test]
    fn rejects_a_duplicate_key() {
        let mut snap = sample("x", 4.0);
        let again = snap.rows[3].clone();
        snap.rows.push(again.clone());
        assert_eq!(
            rejection(&snap.to_json()),
            SnapshotError::DuplicateKey { key: again.key }
        );
    }

    /// The reader must answer `Ok` or `Err` — never panic — and whatever
    /// it accepts must survive a write and re-read unchanged.
    fn survives(text: &str) -> check::TestResult {
        let parsed = std::panic::catch_unwind(|| BenchSnapshot::from_json(text))
            .map_err(|_| format!("reader panicked on a {}-byte document", text.len()))?;
        if let Ok(snap) = parsed {
            let again = BenchSnapshot::from_json(&snap.to_json());
            check::ensure(again.as_ref() == Ok(&snap), || {
                format!("an accepted document rewrites to one that reads back as {again:?}")
            })?;
        }
        Ok(())
    }

    #[test]
    fn reader_survives_every_truncation_and_byte_mutation() {
        let reference = include_str!("../../../BENCH_ref.json");
        let v2 = sample("x", 4.0).to_json();
        let docs = [reference, v2.as_str()];
        for doc in docs {
            assert!(doc.is_ascii(), "mutations below assume ASCII documents");
            for end in 0..=doc.len() {
                if let Err(e) = survives(&doc[..end]) {
                    panic!("prefix of {end} bytes: {e}");
                }
            }
        }
        let checker = Checker::new(CheckConfig {
            seed: 0x4245_4e43, // "BENC"
            cases: 512,
            ..CheckConfig::default()
        });
        let gen = (
            check::usize_in(0, docs.len() - 1),
            check::usize_in(0, 1 << 16),
            check::usize_in(0, 127),
        );
        checker.assert(
            "snapshot.reader_survives_mutation",
            &gen,
            |&(doc, at, byte)| {
                let mut bytes = docs[doc].as_bytes().to_vec();
                let at = at % bytes.len();
                bytes[at] = byte as u8;
                survives(std::str::from_utf8(&bytes).expect("ASCII stays UTF-8"))
            },
        );
    }

    #[test]
    fn random_row_sets_round_trip() {
        const AXES: [&str; 5] = ["oract", "scaling", "telemetry", "serve", "x"];
        const BETTER: [Direction; 4] = [
            Direction::BothWays,
            Direction::HigherIsWorse,
            Direction::LowerIsWorse,
            Direction::Informational,
        ];
        const SUFFIX: [&str; 4] = ["", "\"q\"", "\\", "é\n"];
        let row = (
            check::usize_in(0, AXES.len() * BETTER.len() * SUFFIX.len() - 1),
            check::f64_in(-1.0, 1.0),
            check::usize_in(0, 600),
            check::f64_in(0.0, 10.0),
        );
        let checker = Checker::new(CheckConfig {
            seed: 0x524f_5753, // "ROWS"
            cases: 128,
            ..CheckConfig::default()
        });
        checker.assert(
            "snapshot.rows_round_trip",
            &check::vec_of(row, 0, 24),
            |cells| {
                let rows = cells
                    .iter()
                    .enumerate()
                    .map(|(i, &(pick, mantissa, exponent, tol))| Row {
                        key: format!(
                            "snap.{}.m{i}{}",
                            AXES[pick % AXES.len()],
                            SUFFIX[pick / AXES.len() / BETTER.len()]
                        ),
                        value: mantissa * 10f64.powi(exponent as i32 - 300),
                        better: BETTER[pick / AXES.len() % BETTER.len()],
                        tol,
                    })
                    .collect();
                let snap = BenchSnapshot {
                    label: "rt".into(),
                    config: "fast".into(),
                    bench: "lu_ncb".into(),
                    rows,
                };
                let back = BenchSnapshot::from_json(&snap.to_json());
                check::ensure(back.as_ref() == Ok(&snap), || format!("read back {back:?}"))
            },
        );
    }

    #[test]
    fn derived_rows_stay_finite_at_zero_wall() {
        let share =
            |wall_s: f64| overhead_rows("t", ("n", 6.0), 1000.0, ("w", wall_s), 0.1)[1].value;
        assert!((share(0.1) - 0.01).abs() < 1e-12);
        assert!(share(0.0).is_finite());
        let per_sec = |warm_wall_s: f64| {
            let rows = serve_rows([300.0, 12.0, 12.0, 288.0, 300.0], 2.0, warm_wall_s);
            rows.iter()
                .find(|r| r.key == "snap.serve.warm_per_sec")
                .expect("derived row")
                .value
        };
        assert!((per_sec(0.02) - 300.0 / 0.02).abs() < 1e-9);
        assert!(per_sec(0.0).is_finite());
    }

    fn value(rows: &[Row], key: &str) -> f64 {
        rows.iter()
            .find(|r| r.key == key)
            .unwrap_or_else(|| panic!("no row {key}"))
            .value
    }

    #[test]
    fn measure_policy_records_throughput_and_solvers() {
        let rows = measure_policy(thermogater::PolicyKind::AllOn).expect("run succeeds");
        assert!(rows.iter().all(|r| r.axis() == "allon"));
        assert!(value(&rows, "snap.allon.steps") > 0.0);
        assert!(value(&rows, "snap.allon.steps_per_sec") > 0.0);
        assert!(rows.iter().any(|r| r.key.contains(".phase.")));
        // The transient stepper always solves; its site must be rolled up.
        assert!(value(&rows, "snap.allon.solver.thermal.transient_cg.solves") > 0.0);
    }

    #[test]
    fn measure_telemetry_overhead_counts_frames() {
        let rows = measure_telemetry_overhead().expect("overhead runs succeed");
        // 300 fast-config steps sampled every 50 (step 0 included).
        let frames = value(&rows, "snap.telemetry.frames");
        assert!(frames >= 5.0, "too few frames: {frames}");
        assert!(value(&rows, "snap.telemetry.frames_wall_s") > 0.0);
        assert!(value(&rows, "snap.telemetry.base_wall_s") > 0.0);
    }

    #[test]
    fn capture_scaling_measures_each_grid_and_backend() {
        let rows = capture_scaling(&[12], 2).expect("tiny scaling run");
        assert_eq!(rows.len(), 4 * SCALING_BACKENDS.len());
        for backend in SCALING_BACKENDS {
            let cell =
                |stat: &str| value(&rows, &format!("snap.scaling.12.{}.{stat}", backend.name()));
            assert_eq!(cell("solves"), 2.0);
            assert!(cell("iters_mean") >= 1.0, "{} did no work", backend.name());
            assert!(cell("wall_s") > 0.0);
        }
        // Same system, same tolerance: multigrid must not need more
        // iterations than Jacobi-CG even on a tiny grid.
        let iters = |tag: &str| value(&rows, &format!("snap.scaling.12.{tag}.iters_mean"));
        assert!(iters("mgcg") <= iters("cg"));
        assert_eq!(iters("direct"), 1.0);
    }

    #[test]
    fn peak_rss_is_plausible_when_present() {
        if let Some(rss) = peak_rss_bytes() {
            // More than a page, less than a terabyte.
            assert!(rss > 4096 && rss < 1 << 40, "implausible RSS {rss}");
        }
    }
}
