//! Performance snapshots (`BENCH_<label>.json`, schema
//! `thermogater.bench/v1`).
//!
//! A snapshot pins the repository's performance at one point in time:
//! for each policy it runs the pinned fast-configuration workload
//! (`lu_ncb` under [`EngineConfig::fast`]) once and records throughput
//! (thermal steps per second), the per-phase wall-time breakdown, and
//! solver iteration percentiles recovered from the run's own telemetry
//! stream. `tg-obs bench-snapshot` writes one; `tg-obs diff` compares
//! two and fails CI on a regression, so the `BENCH_*.json` trajectory
//! accumulates a machine-checkable perf history instead of prose.
//!
//! Wall-clock numbers are env-sensitive, so snapshot comparisons use
//! loose, directional tolerances (see [`crate::obs`]); solver iteration
//! counts are deterministic and gate tightly.

use simkit::linalg::SolverBackend;
use simkit::telemetry::analyze::TraceAnalysis;
use simkit::telemetry::json::{self, JsonValue};
use simkit::telemetry::Telemetry;
use simkit::units::Watts;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;
use thermal::{PowerMap, SteadyScratch, ThermalConfig, ThermalModel};
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use workload::Benchmark;

/// Schema identifier stamped into (and required of) every snapshot.
pub const SNAPSHOT_SCHEMA: &str = "thermogater.bench/v1";

/// The pinned benchmark every snapshot entry runs.
pub const SNAPSHOT_BENCH: Benchmark = Benchmark::LuNcb;

/// Solver iteration/residual percentiles for one solve site of one
/// entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSnapshot {
    /// Solve site, e.g. `"thermal.transient_cg"`.
    pub site: String,
    /// Number of solves recorded.
    pub solves: u64,
    /// Mean iterations per solve.
    pub iters_mean: f64,
    /// Median iterations per solve.
    pub iters_p50: f64,
    /// 95th-percentile iterations per solve.
    pub iters_p95: f64,
    /// Worst final relative residual.
    pub residual_max: f64,
}

/// One policy's measurement within a [`BenchSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEntry {
    /// Policy tag, e.g. `"oracvt"`.
    pub policy: String,
    /// Thermal grid edge (`nx`) the run solved on (0 in snapshots
    /// written before the grid-scaling axis existed).
    pub grid_n: u64,
    /// Wall-clock seconds for the run.
    pub wall_s: f64,
    /// Thermal steps simulated.
    pub steps: u64,
    /// Throughput: `steps / wall_s`.
    pub steps_per_sec: f64,
    /// Per-phase wall seconds, in first-recorded order.
    pub phases: Vec<(String, f64)>,
    /// Per-site solver percentiles.
    pub solver: Vec<SolverSnapshot>,
}

/// One (grid, backend) cell of the steady-solve grid-scaling axis: the
/// cost of cold-starting the backend's cache (factor / hierarchy) and
/// the amortised cost and iteration count of repeated cold-state solves
/// against it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingEntry {
    /// Grid edge: the thermal model ran `grid × grid` cells.
    pub grid: u64,
    /// Total solver unknowns (`2·grid² + 1` for the two-layer stack).
    pub nodes: u64,
    /// Backend tag: `"cg"`, `"mgcg"`, or `"direct"`.
    pub backend: String,
    /// Number of measured (cache-warm) solves behind the means.
    pub solves: u64,
    /// Mean solver iterations per measured solve.
    pub iters_mean: f64,
    /// Wall-clock of the first solve, which builds the backend's cached
    /// factor / multigrid hierarchy, seconds.
    pub setup_s: f64,
    /// Total wall-clock of the measured solves (setup excluded), seconds.
    pub wall_s: f64,
}

/// The telemetry/frame-recorder overhead axis: one pinned fast-config
/// run with the spatial frame recorder on, against one with telemetry
/// on but frames off.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryOverhead {
    /// Frames the recorder captured (deterministic for the pinned
    /// config and sampling period).
    pub frames: u64,
    /// Recorder self-reported capture + serialisation time, whole µs
    /// (the run's `telemetry.overhead` counter).
    pub overhead_us: u64,
    /// Wall seconds of the frames-on run.
    pub frames_wall_s: f64,
    /// Wall seconds of the frames-off (telemetry still on) run.
    pub base_wall_s: f64,
}

impl TelemetryOverhead {
    /// Recorder overhead as a share of the frames-on run's wall time.
    pub fn overhead_share(&self) -> f64 {
        (self.overhead_us as f64 / 1e6) / self.frames_wall_s.max(f64::MIN_POSITIVE)
    }
}

/// The live-aggregation overhead axis: one pinned fast-config run with
/// the in-process streaming aggregator ([`simkit::telemetry::live::LiveSink`])
/// fanned in next to the recorder sink, against one with the recorder
/// alone.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveOverhead {
    /// Events the live sink folded (deterministic for the pinned
    /// config; the run's `telemetry.live.events` counter).
    pub events: u64,
    /// Sink self-reported fold time, whole µs (the run's
    /// `telemetry.live.overhead` counter).
    pub overhead_us: u64,
    /// Wall seconds of the live-sink run.
    pub live_wall_s: f64,
    /// Wall seconds of the recorder-only run.
    pub base_wall_s: f64,
}

impl LiveOverhead {
    /// Fold overhead as a share of the live run's wall time.
    pub fn overhead_share(&self) -> f64 {
        (self.overhead_us as f64 / 1e6) / self.live_wall_s.max(f64::MIN_POSITIVE)
    }
}

/// The scenario-service cache-hit-throughput axis: one repeated tiny
/// batch pushed through [`crate::service::run_batch`] twice against a
/// fresh cache — the cold pass simulates each unique hash once
/// (duplicates coalesce or hit), the warm pass must answer every
/// scenario from cache. The counters are deterministic and gate
/// exactly; the walls (and the derived throughput) are env-sensitive
/// and informational.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeThroughput {
    /// Scenarios per pass (`unique × repeats`).
    pub scenarios: u64,
    /// Distinct scenario hashes in the batch.
    pub unique: u64,
    /// Engine executions in the cold pass (must equal `unique`).
    pub cold_misses: u64,
    /// Cold-pass answers that avoided the engine (cache hits of
    /// already-stored duplicates plus coalesced waiters —
    /// `scenarios − unique`; the hit/coalesce split depends on timing).
    pub cold_served: u64,
    /// Warm-pass cache hits (must equal `scenarios`: zero engine runs).
    pub warm_hits: u64,
    /// Wall seconds of the cold pass.
    pub cold_wall_s: f64,
    /// Wall seconds of the warm pass.
    pub warm_wall_s: f64,
}

impl ServeThroughput {
    /// Warm-pass cache-hit throughput, answers per second.
    pub fn warm_per_sec(&self) -> f64 {
        self.scenarios as f64 / self.warm_wall_s.max(f64::MIN_POSITIVE)
    }
}

/// A schema-tagged performance snapshot (one `BENCH_<label>.json`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchSnapshot {
    /// Snapshot label (`ci`, a date stamp, …) — names the output file.
    pub label: String,
    /// Engine-configuration tag the entries ran under.
    pub config: String,
    /// Benchmark label the entries ran.
    pub bench: String,
    /// Peak resident set size, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
    /// Frame-recorder overhead axis (`None` in snapshots written
    /// before it existed or captured without it).
    pub telemetry: Option<TelemetryOverhead>,
    /// Live-aggregation overhead axis (`None` in snapshots written
    /// before it existed or captured without it).
    pub live: Option<LiveOverhead>,
    /// Scenario-service cache-hit-throughput axis (`None` in snapshots
    /// written before it existed or captured without `--serve`).
    pub serve: Option<ServeThroughput>,
    /// One entry per measured policy.
    pub entries: Vec<PolicyEntry>,
    /// Steady-solve grid-scaling axis (empty when not captured).
    pub scaling: Vec<ScalingEntry>,
}

/// Peak resident set size of this process (`VmHWM` from
/// `/proc/self/status`); `None` where unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Measures one policy under the pinned fast configuration.
///
/// The run is traced into an in-memory sink so solver iteration
/// *distributions* (not just the mean/max the engine aggregates) can be
/// rolled up through [`TraceAnalysis`].
///
/// # Errors
///
/// Propagates engine failures as a rendered message.
pub fn measure_policy(policy: PolicyKind) -> Result<PolicyEntry, String> {
    let chip = floorplan::reference::power8_like();
    let config = EngineConfig::fast();
    let steps = (config.duration.get() / config.thermal_step.get()).round() as u64;
    let grid_n = config.thermal.nx as u64;
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
    let solver = analysis
        .solvers
        .iter()
        .map(|(site, rollup)| SolverSnapshot {
            site: site.clone(),
            solves: rollup.solves(),
            iters_mean: rollup.iters.mean().unwrap_or(0.0),
            iters_p50: rollup.iters.percentile(50.0).unwrap_or(0.0),
            iters_p95: rollup.iters.percentile(95.0).unwrap_or(0.0),
            residual_max: rollup.residuals.max().unwrap_or(0.0),
        })
        .collect();
    Ok(PolicyEntry {
        policy: crate::sweep::policy_tag(policy).to_string(),
        grid_n,
        wall_s,
        steps,
        steps_per_sec: steps as f64 / wall_s.max(f64::MIN_POSITIVE),
        phases: result
            .phase_times()
            .iter()
            .map(|(name, seconds, _)| (name.to_string(), seconds))
            .collect(),
        solver,
    })
}

/// Frame-recorder sampling period (thermal steps) for the pinned
/// overhead measurement — ~6 frames over the fast config's 300 steps.
pub const SNAPSHOT_FRAME_EVERY: usize = 50;

/// Measures the frame-recorder overhead axis: the pinned fast-config
/// workload once with the spatial frame recorder sampling every
/// [`SNAPSHOT_FRAME_EVERY`] steps, once with telemetry on but frames
/// off. The frames-on run's `telemetry.frames` / `telemetry.overhead`
/// counters provide the deterministic frame count and the recorder's
/// self-reported cost.
///
/// # Errors
///
/// Propagates engine failures as a rendered message.
pub fn measure_telemetry_overhead() -> Result<TelemetryOverhead, String> {
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
    Ok(TelemetryOverhead {
        frames: analysis.counter("telemetry.frames"),
        overhead_us: analysis.counter("telemetry.overhead"),
        frames_wall_s,
        base_wall_s,
    })
}

/// Measures the live-aggregation overhead axis: the pinned fast-config
/// workload once with a [`LiveSink`] fanned in next to the recorder
/// sink, once with the recorder alone. The live run's sink provides
/// the deterministic folded-event count and its self-timed fold cost —
/// the same numbers a `--live` run writes into its trace as
/// `telemetry.live.events` / `telemetry.live.overhead`.
///
/// # Errors
///
/// Propagates engine failures as a rendered message.
pub fn measure_live_overhead() -> Result<LiveOverhead, String> {
    use simkit::telemetry::live::LiveSink;
    use simkit::telemetry::{FanoutSink, MemorySink, TelemetrySink};
    use std::sync::Arc;

    let chip = floorplan::reference::power8_like();
    let run = |live: Option<Arc<LiveSink>>| -> Result<f64, String> {
        let mut engine = SimulationEngine::new(&chip, EngineConfig::fast());
        let recorder: Arc<dyn TelemetrySink> = Arc::new(MemorySink::default());
        let sink: Arc<dyn TelemetrySink> = match live {
            Some(live) => Arc::new(FanoutSink::new(vec![recorder, live])),
            None => recorder,
        };
        engine.set_telemetry(Telemetry::with_sink(sink));
        let started = Instant::now();
        engine
            .run(SNAPSHOT_BENCH, PolicyKind::PracVT)
            .map_err(|e| format!("live overhead run failed: {e}"))?;
        Ok(started.elapsed().as_secs_f64())
    };
    let live = Arc::new(simkit::telemetry::live::LiveSink::new());
    let live_wall_s = run(Some(live.clone()))?;
    let base_wall_s = run(None)?;
    Ok(LiveOverhead {
        events: live.events(),
        overhead_us: live.overhead_us(),
        live_wall_s,
        base_wall_s,
    })
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

/// Measures the scenario-service axis: a batch of
/// `|SERVE_BENCHMARKS| × |SERVE_POLICIES| × SERVE_REPEATS` tiny-config
/// scenarios streamed through the batch executor against a fresh
/// temporary cache (cold), then again (warm). The cold pass may answer
/// a duplicate either from the just-written cache or by coalescing
/// onto the in-flight simulation — both bypass the engine, so
/// `cold_misses` (= unique hashes) and `cold_served` (= the rest) are
/// deterministic even though the split is not. The warm pass must be
/// all hits.
///
/// # Errors
///
/// Reports counter inconsistencies (an engine run where none was
/// allowed) as a rendered message.
pub fn measure_serve_throughput() -> Result<ServeThroughput, String> {
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
    Ok(ServeThroughput {
        scenarios,
        unique,
        cold_misses,
        cold_served,
        warm_hits,
        cold_wall_s,
        warm_wall_s,
    })
}

/// Captures a full snapshot: one [`measure_policy`] run per `policies`
/// entry, the frame-recorder and live-aggregation overhead axes, plus
/// the process peak RSS.
///
/// # Errors
///
/// Propagates the first failing policy run.
pub fn capture(label: &str, policies: &[PolicyKind]) -> Result<BenchSnapshot, String> {
    let entries = policies
        .iter()
        .map(|&p| measure_policy(p))
        .collect::<Result<Vec<_>, _>>()?;
    let telemetry = Some(measure_telemetry_overhead()?);
    let live = Some(measure_live_overhead()?);
    Ok(BenchSnapshot {
        label: label.to_string(),
        config: "fast".to_string(),
        bench: SNAPSHOT_BENCH.label().to_string(),
        peak_rss_bytes: peak_rss_bytes(),
        telemetry,
        live,
        serve: None,
        entries,
        scaling: Vec::new(),
    })
}

/// Backends the grid-scaling axis measures: every pinned steady path.
pub const SCALING_BACKENDS: [SolverBackend; 3] = [
    SolverBackend::Cg,
    SolverBackend::Mgcg,
    SolverBackend::Direct,
];

/// Measures the steady-solve grid-scaling axis: for each `grid` edge and
/// each backend in [`SCALING_BACKENDS`], one cold solve (which builds
/// the backend's cached factor / multigrid hierarchy — its wall-clock is
/// `setup_s`) followed by `warm_solves` solves from a freshly reset
/// ambient state against the warm cache. Resetting the state each solve
/// keeps every measured solve doing full work (a warm-started repeat of
/// an identical system would converge instantly and measure nothing).
///
/// # Errors
///
/// Propagates solver failures as a rendered message.
pub fn capture_scaling(grids: &[usize], warm_solves: usize) -> Result<Vec<ScalingEntry>, String> {
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
            out.push(ScalingEntry {
                grid: grid as u64,
                nodes: model.node_count() as u64,
                backend: backend.name().to_string(),
                solves: warm_solves as u64,
                iters_mean: iters as f64 / (warm_solves.max(1)) as f64,
                setup_s,
                wall_s: started.elapsed().as_secs_f64(),
            });
        }
    }
    Ok(out)
}

impl BenchSnapshot {
    /// The conventional file name, `BENCH_<label>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.label)
    }

    /// Serialises the snapshot as one JSON document (trailing newline
    /// included, for clean committed artifacts).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"schema\":");
        json::write_str(&mut out, SNAPSHOT_SCHEMA);
        out.push_str(",\"label\":");
        json::write_str(&mut out, &self.label);
        out.push_str(",\"config\":");
        json::write_str(&mut out, &self.config);
        out.push_str(",\"bench\":");
        json::write_str(&mut out, &self.bench);
        match self.peak_rss_bytes {
            Some(rss) => {
                let _ = write!(out, ",\"peak_rss_bytes\":{rss}");
            }
            None => out.push_str(",\"peak_rss_bytes\":null"),
        }
        match &self.telemetry {
            Some(t) => {
                let _ = write!(
                    out,
                    ",\"telemetry\":{{\"frames\":{},\"overhead_us\":{}",
                    t.frames, t.overhead_us
                );
                out.push_str(",\"frames_wall_s\":");
                json::write_f64(&mut out, t.frames_wall_s);
                out.push_str(",\"base_wall_s\":");
                json::write_f64(&mut out, t.base_wall_s);
                out.push('}');
            }
            None => out.push_str(",\"telemetry\":null"),
        }
        match &self.live {
            Some(l) => {
                let _ = write!(
                    out,
                    ",\"live\":{{\"events\":{},\"overhead_us\":{}",
                    l.events, l.overhead_us
                );
                out.push_str(",\"live_wall_s\":");
                json::write_f64(&mut out, l.live_wall_s);
                out.push_str(",\"base_wall_s\":");
                json::write_f64(&mut out, l.base_wall_s);
                out.push('}');
            }
            None => out.push_str(",\"live\":null"),
        }
        match &self.serve {
            Some(s) => {
                let _ = write!(
                    out,
                    ",\"serve\":{{\"scenarios\":{},\"unique\":{},\"cold_misses\":{},\"cold_served\":{},\"warm_hits\":{}",
                    s.scenarios, s.unique, s.cold_misses, s.cold_served, s.warm_hits
                );
                out.push_str(",\"cold_wall_s\":");
                json::write_f64(&mut out, s.cold_wall_s);
                out.push_str(",\"warm_wall_s\":");
                json::write_f64(&mut out, s.warm_wall_s);
                out.push('}');
            }
            None => out.push_str(",\"serve\":null"),
        }
        out.push_str(",\"entries\":[");
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"policy\":");
            json::write_str(&mut out, &entry.policy);
            let _ = write!(out, ",\"grid_n\":{}", entry.grid_n);
            out.push_str(",\"wall_s\":");
            json::write_f64(&mut out, entry.wall_s);
            let _ = write!(out, ",\"steps\":{}", entry.steps);
            out.push_str(",\"steps_per_sec\":");
            json::write_f64(&mut out, entry.steps_per_sec);
            out.push_str(",\"phases\":{");
            for (j, (name, seconds)) in entry.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, name);
                out.push(':');
                json::write_f64(&mut out, *seconds);
            }
            out.push_str("},\"solver\":[");
            for (j, s) in entry.solver.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"site\":");
                json::write_str(&mut out, &s.site);
                let _ = write!(out, ",\"solves\":{}", s.solves);
                out.push_str(",\"iters_mean\":");
                json::write_f64(&mut out, s.iters_mean);
                out.push_str(",\"iters_p50\":");
                json::write_f64(&mut out, s.iters_p50);
                out.push_str(",\"iters_p95\":");
                json::write_f64(&mut out, s.iters_p95);
                out.push_str(",\"residual_max\":");
                json::write_f64(&mut out, s.residual_max);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("\n],\"scaling\":[");
        for (i, s) in self.scaling.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n  {{\"grid\":{},\"nodes\":{}", s.grid, s.nodes);
            out.push_str(",\"backend\":");
            json::write_str(&mut out, &s.backend);
            let _ = write!(out, ",\"solves\":{}", s.solves);
            out.push_str(",\"iters_mean\":");
            json::write_f64(&mut out, s.iters_mean);
            out.push_str(",\"setup_s\":");
            json::write_f64(&mut out, s.setup_s);
            out.push_str(",\"wall_s\":");
            json::write_f64(&mut out, s.wall_s);
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

    /// Parses and validates a snapshot document.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem: malformed JSON, a wrong
    /// or missing schema tag, or missing required members.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text.trim())?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("snapshot missing \"schema\"")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SNAPSHOT_SCHEMA:?})"
            ));
        }
        let str_member = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("snapshot missing \"{key}\""))
        };
        let peak_rss_bytes = match doc.get("peak_rss_bytes") {
            None => return Err("snapshot missing \"peak_rss_bytes\"".into()),
            Some(JsonValue::Null) => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|r| *r >= 0.0)
                    .ok_or("\"peak_rss_bytes\" is not a number")? as u64,
            ),
        };
        // Absent in snapshots written before the overhead axis existed;
        // tolerate so committed perf history stays diffable.
        let telemetry = match doc.get("telemetry") {
            None | Some(JsonValue::Null) => None,
            Some(t) => {
                let num = |key: &str| {
                    t.get(key)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("\"telemetry\" missing number \"{key}\""))
                };
                Some(TelemetryOverhead {
                    frames: num("frames")? as u64,
                    overhead_us: num("overhead_us")? as u64,
                    frames_wall_s: num("frames_wall_s")?,
                    base_wall_s: num("base_wall_s")?,
                })
            }
        };
        // Same tolerance for the younger serve-throughput axis.
        let serve = match doc.get("serve") {
            None | Some(JsonValue::Null) => None,
            Some(s) => {
                let num = |key: &str| {
                    s.get(key)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("\"serve\" missing number \"{key}\""))
                };
                Some(ServeThroughput {
                    scenarios: num("scenarios")? as u64,
                    unique: num("unique")? as u64,
                    cold_misses: num("cold_misses")? as u64,
                    cold_served: num("cold_served")? as u64,
                    warm_hits: num("warm_hits")? as u64,
                    cold_wall_s: num("cold_wall_s")?,
                    warm_wall_s: num("warm_wall_s")?,
                })
            }
        };
        // Same tolerance for the younger live-aggregation axis.
        let live = match doc.get("live") {
            None | Some(JsonValue::Null) => None,
            Some(l) => {
                let num = |key: &str| {
                    l.get(key)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("\"live\" missing number \"{key}\""))
                };
                Some(LiveOverhead {
                    events: num("events")? as u64,
                    overhead_us: num("overhead_us")? as u64,
                    live_wall_s: num("live_wall_s")?,
                    base_wall_s: num("base_wall_s")?,
                })
            }
        };
        let mut entries = Vec::new();
        for (index, entry) in doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("snapshot missing \"entries\"")?
            .iter()
            .enumerate()
        {
            let num = |key: &str| {
                entry
                    .get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("entry {index} missing number \"{key}\""))
            };
            let phases = entry
                .get("phases")
                .and_then(JsonValue::as_object)
                .ok_or_else(|| format!("entry {index} missing \"phases\""))?
                .iter()
                .map(|(name, v)| {
                    v.as_f64()
                        .map(|s| (name.clone(), s))
                        .ok_or_else(|| format!("entry {index} phase {name:?} is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mut solver = Vec::new();
            for (j, site) in entry
                .get("solver")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("entry {index} missing \"solver\""))?
                .iter()
                .enumerate()
            {
                let snum = |key: &str| {
                    site.get(key)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("entry {index} solver {j} missing \"{key}\""))
                };
                solver.push(SolverSnapshot {
                    site: site
                        .get("site")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("entry {index} solver {j} missing \"site\""))?
                        .to_string(),
                    solves: snum("solves")? as u64,
                    iters_mean: snum("iters_mean")?,
                    iters_p50: snum("iters_p50")?,
                    iters_p95: snum("iters_p95")?,
                    residual_max: snum("residual_max")?,
                });
            }
            entries.push(PolicyEntry {
                policy: entry
                    .get("policy")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("entry {index} missing \"policy\""))?
                    .to_string(),
                // Absent in snapshots written before the grid-scaling
                // axis; tolerate so perf history stays diffable.
                grid_n: entry
                    .get("grid_n")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0) as u64,
                wall_s: num("wall_s")?,
                steps: num("steps")? as u64,
                steps_per_sec: num("steps_per_sec")?,
                phases,
                solver,
            });
        }
        // Also optional for pre-axis snapshots: missing ⇒ empty.
        let mut scaling = Vec::new();
        if let Some(rows) = doc.get("scaling").and_then(JsonValue::as_array) {
            for (index, row) in rows.iter().enumerate() {
                let num = |key: &str| {
                    row.get(key)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("scaling {index} missing number \"{key}\""))
                };
                scaling.push(ScalingEntry {
                    grid: num("grid")? as u64,
                    nodes: num("nodes")? as u64,
                    backend: row
                        .get("backend")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("scaling {index} missing \"backend\""))?
                        .to_string(),
                    solves: num("solves")? as u64,
                    iters_mean: num("iters_mean")?,
                    setup_s: num("setup_s")?,
                    wall_s: num("wall_s")?,
                });
            }
        }
        Ok(BenchSnapshot {
            label: str_member("label")?,
            config: str_member("config")?,
            bench: str_member("bench")?,
            peak_rss_bytes,
            telemetry,
            live,
            serve,
            entries,
            scaling,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small hand-built snapshot (no engine run — fast).
    pub(crate) fn sample(label: &str, iters_p95: f64) -> BenchSnapshot {
        BenchSnapshot {
            label: label.to_string(),
            config: "fast".to_string(),
            bench: "lu_ncb".to_string(),
            peak_rss_bytes: Some(64 * 1024 * 1024),
            telemetry: Some(TelemetryOverhead {
                frames: 6,
                overhead_us: 800,
                frames_wall_s: 0.5,
                base_wall_s: 0.49,
            }),
            live: Some(LiveOverhead {
                events: 1800,
                overhead_us: 300,
                live_wall_s: 0.5,
                base_wall_s: 0.49,
            }),
            serve: Some(ServeThroughput {
                scenarios: 300,
                unique: 12,
                cold_misses: 12,
                cold_served: 288,
                warm_hits: 300,
                cold_wall_s: 2.0,
                warm_wall_s: 0.02,
            }),
            entries: vec![PolicyEntry {
                policy: "oract".to_string(),
                grid_n: 32,
                wall_s: 0.5,
                steps: 300,
                steps_per_sec: 600.0,
                phases: vec![("trace".into(), 0.01), ("transient".into(), 0.4)],
                solver: vec![SolverSnapshot {
                    site: "transient".to_string(),
                    solves: 300,
                    iters_mean: 3.1,
                    iters_p50: 3.0,
                    iters_p95,
                    residual_max: 1e-9,
                }],
            }],
            scaling: vec![
                ScalingEntry {
                    grid: 64,
                    nodes: 8193,
                    backend: "cg".to_string(),
                    solves: 3,
                    iters_mean: 210.0,
                    setup_s: 0.0,
                    wall_s: 0.09,
                },
                ScalingEntry {
                    grid: 64,
                    nodes: 8193,
                    backend: "mgcg".to_string(),
                    solves: 3,
                    iters_mean: 14.0,
                    setup_s: 0.01,
                    wall_s: 0.03,
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let snap = sample("test", 4.0);
        let back = BenchSnapshot::from_json(&snap.to_json()).expect("round trip");
        assert_eq!(back, snap);
        assert_eq!(back.file_name(), "BENCH_test.json");
    }

    #[test]
    fn null_rss_round_trips() {
        let mut snap = sample("test", 4.0);
        snap.peak_rss_bytes = None;
        let back = BenchSnapshot::from_json(&snap.to_json()).expect("round trip");
        assert_eq!(back.peak_rss_bytes, None);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(BenchSnapshot::from_json("not json").is_err());
        assert!(BenchSnapshot::from_json("{}").is_err());
        let wrong_schema = sample("x", 4.0).to_json().replace(SNAPSHOT_SCHEMA, "v0");
        assert!(BenchSnapshot::from_json(&wrong_schema).is_err());
        let no_entries = sample("x", 4.0)
            .to_json()
            .replace("\"entries\"", "\"cells\"");
        assert!(BenchSnapshot::from_json(&no_entries).is_err());
    }

    #[test]
    fn measure_policy_records_throughput_and_solvers() {
        let entry = measure_policy(thermogater::PolicyKind::AllOn).expect("run succeeds");
        assert_eq!(entry.policy, "allon");
        assert!(entry.steps > 0);
        assert!(entry.steps_per_sec > 0.0);
        assert!(!entry.phases.is_empty());
        // The transient stepper always solves; its site must be rolled up.
        assert!(entry.solver.iter().any(|s| s.solves > 0));
    }

    #[test]
    fn pre_telemetry_documents_still_parse() {
        // Snapshots written before the overhead axis existed must keep
        // loading, with the axis simply absent.
        let snap = sample("old", 4.0);
        let mut text = snap.to_json();
        let start = text.find(",\"telemetry\"").expect("telemetry member");
        let end = text[start + 1..].find(",\"entries\"").expect("entries") + start + 1;
        text.replace_range(start..end, "");
        let back = BenchSnapshot::from_json(&text).expect("old document parses");
        assert_eq!(back.telemetry, None);
        // Explicit null also maps to absent.
        let null = snap
            .to_json()
            .replace(&snap.to_json()[start..end], ",\"telemetry\":null");
        assert_eq!(BenchSnapshot::from_json(&null).unwrap().telemetry, None);
    }

    #[test]
    fn overhead_share_is_well_defined() {
        let t = TelemetryOverhead {
            frames: 6,
            overhead_us: 1000,
            frames_wall_s: 0.1,
            base_wall_s: 0.1,
        };
        assert!((t.overhead_share() - 0.01).abs() < 1e-12);
        let zero_wall = TelemetryOverhead {
            frames_wall_s: 0.0,
            ..t
        };
        assert!(zero_wall.overhead_share().is_finite());
    }

    #[test]
    fn measure_telemetry_overhead_counts_frames() {
        let t = measure_telemetry_overhead().expect("overhead runs succeed");
        // 300 fast-config steps sampled every 50 (step 0 included).
        assert!(t.frames >= 5, "too few frames: {}", t.frames);
        assert!(t.frames_wall_s > 0.0 && t.base_wall_s > 0.0);
    }

    #[test]
    fn pre_live_documents_still_parse() {
        // Snapshots written before the live-aggregation axis existed
        // must keep loading, with the axis simply absent.
        let snap = sample("old", 4.0);
        let text = snap.to_json();
        let start = text.find(",\"live\"").expect("live member");
        let end = text[start + 1..].find(",\"entries\"").expect("entries") + start + 1;
        let mut cut = text.clone();
        cut.replace_range(start..end, "");
        let back = BenchSnapshot::from_json(&cut).expect("old document parses");
        assert_eq!(back.live, None);
        assert_eq!(back.telemetry, snap.telemetry, "sibling axis untouched");
        // Explicit null also maps to absent.
        let mut null = text.clone();
        null.replace_range(start..end, ",\"live\":null");
        assert_eq!(BenchSnapshot::from_json(&null).unwrap().live, None);
        // And the full document round-trips the axis intact.
        let back = BenchSnapshot::from_json(&text).expect("round trip");
        assert_eq!(back.live, snap.live);
    }

    #[test]
    fn pre_serve_documents_still_parse() {
        // Snapshots written before the serve axis existed must keep
        // loading, with the axis simply absent.
        let snap = sample("old", 4.0);
        let text = snap.to_json();
        let start = text.find(",\"serve\"").expect("serve member");
        let end = text[start + 1..].find(",\"entries\"").expect("entries") + start + 1;
        let mut cut = text.clone();
        cut.replace_range(start..end, "");
        let back = BenchSnapshot::from_json(&cut).expect("old document parses");
        assert_eq!(back.serve, None);
        assert_eq!(back.live, snap.live, "sibling axis untouched");
        // Explicit null also maps to absent.
        let mut null = text.clone();
        null.replace_range(start..end, ",\"serve\":null");
        assert_eq!(BenchSnapshot::from_json(&null).unwrap().serve, None);
        // And the full document round-trips the axis intact.
        let back = BenchSnapshot::from_json(&text).expect("round trip");
        assert_eq!(back.serve, snap.serve);
    }

    #[test]
    fn warm_per_sec_is_well_defined() {
        let s = sample("x", 4.0).serve.unwrap();
        assert!((s.warm_per_sec() - 300.0 / 0.02).abs() < 1e-9);
        // A degenerate zero wall must not poison the report with NaN
        // (an infinite throughput prints as `inf`, which is honest).
        let zero_wall = ServeThroughput {
            warm_wall_s: 0.0,
            ..s
        };
        assert!(!zero_wall.warm_per_sec().is_nan());
    }

    #[test]
    fn live_overhead_share_is_well_defined() {
        let l = LiveOverhead {
            events: 1800,
            overhead_us: 1000,
            live_wall_s: 0.1,
            base_wall_s: 0.1,
        };
        assert!((l.overhead_share() - 0.01).abs() < 1e-12);
        let zero_wall = LiveOverhead {
            live_wall_s: 0.0,
            ..l
        };
        assert!(zero_wall.overhead_share().is_finite());
    }

    #[test]
    fn measure_live_overhead_folds_every_engine_event() {
        let l = measure_live_overhead().expect("overhead runs succeed");
        // The fast config emits at minimum gating + emergency + solve
        // events per decision window; the live sink must have folded a
        // substantial stream, not a handful.
        assert!(l.events > 100, "too few folded events: {}", l.events);
        assert!(l.live_wall_s > 0.0 && l.base_wall_s > 0.0);
    }

    #[test]
    fn pre_scaling_documents_still_parse() {
        // Snapshots written before grid_n / scaling existed must keep
        // loading so committed perf history stays diffable.
        let snap = sample("old", 4.0);
        let mut text = snap.to_json();
        let cut = text.find(",\"scaling\"").expect("scaling member present");
        text.truncate(cut);
        text.push_str("}\n");
        let text = text.replace(",\"grid_n\":32", "");
        let back = BenchSnapshot::from_json(&text).expect("old document parses");
        assert!(back.scaling.is_empty());
        assert_eq!(back.entries[0].grid_n, 0);
    }

    #[test]
    fn capture_scaling_measures_each_grid_and_backend() {
        let rows = capture_scaling(&[12], 2).expect("tiny scaling run");
        assert_eq!(rows.len(), SCALING_BACKENDS.len());
        for row in &rows {
            assert_eq!(row.grid, 12);
            assert_eq!(row.nodes, 2 * 12 * 12 + 1);
            assert_eq!(row.solves, 2);
            assert!(row.iters_mean >= 1.0, "{} did no work", row.backend);
            assert!(row.wall_s > 0.0);
        }
        // Same system, same tolerance: multigrid must not need more
        // iterations than Jacobi-CG even on a tiny grid.
        let by = |tag: &str| rows.iter().find(|r| r.backend == tag).unwrap();
        assert!(by("mgcg").iters_mean <= by("cg").iters_mean);
        assert_eq!(by("direct").iters_mean, 1.0);
    }

    #[test]
    fn peak_rss_is_plausible_when_present() {
        if let Some(rss) = peak_rss_bytes() {
            // More than a page, less than a terabyte.
            assert!(rss > 4096 && rss < 1 << 40, "implausible RSS {rss}");
        }
    }
}
