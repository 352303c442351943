//! Workload runners: set-up, the timed loop, output checks, and the
//! metrics each run reports.
//!
//! Load comes from one client on one worker. An engine workload's
//! operation is one `SimulationEngine::run` call, issued when the previous
//! one returns; a batched workload's operation is one scenario or request,
//! timed from submission to in-order delivery by `service::run_batch`.
//! The loop runs for the requested seconds, and never less than the first
//! round. `sweep-cold` also stops only at a round boundary, because its
//! policies differ sixfold in cost; the engine workloads' policies cost
//! about the same, so they stop at the first operation past the time.
//!
//! Throughput is the median over windows of one round (1 000 requests
//! for `serve-warm`): the shared host this runs on has slow episodes of
//! about a second, and a median over windows ignores them where a
//! whole-run mean would not.

use crate::check::{check_record, Expected};
use crate::replay::{serve_replay, Layers, Tally};
use crate::report::{Metric, WorkloadResult};
use crate::scenario::{grid, spec, Cell, Workload, ZipfRequests, CALIBRATING};
use crate::stats;
use crate::trace::Tracer;
use experiments::service::{
    run_batch, BatchOptions, BatchOutcome, CacheLookup, CellSource, ScenarioCache, ScenarioSpec,
    ServeCounters,
};
use experiments::sweep::SweepRecord;
use floorplan::reference::power8_like;
use simkit::perf::{PhaseTimes, SolverProfile};
use simkit::DeterministicRng;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};
use thermogater::{EngineConfig, SimulationEngine, SimulationResult};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Share of `serve-warm` requests whose service calls the traced run
/// replays.
const SERVE_REPLAY_SHARE: f64 = 0.01;

/// Latencies a run keeps at most (see [`Measured::op`]).
const LATENCY_SAMPLES: usize = 1 << 16;

/// Requests per `serve-warm` throughput window.
const SERVE_WINDOW: usize = 1_000;

/// Requests `serve-warm` keeps in flight: the executor's default queue
/// for one worker.
const SERVE_IN_FLIGHT: usize = 4;

/// Requests of `serve-warm` that the engine re-simulates after the timed
/// loop to check the cache's answers against the physics.
const SERVE_RESIMULATED: usize = 2;

/// Set by the panic hook [`install_panic_flag`] installs, so a stream
/// stops feeding a batch whose worker died.
static PANICKED: AtomicBool = AtomicBool::new(false);

/// Chains a hook that records any panic into [`PANICKED`] before the
/// default report.
pub fn install_panic_flag() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICKED.store(true, Ordering::SeqCst);
        default(info);
    }));
}

/// What one run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the scenario stream.
    pub seed: u64,
    /// Seconds the timed loop runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced counts (one set-up, one operation minimum).
    pub smoke: bool,
}

impl Options {
    /// Set-up repetitions before the timed loop (the last one is used) and
    /// after it. Spreading them over the run keeps one slow second of the
    /// shared host from covering most of them.
    fn setup_reps(&self) -> (usize, usize) {
        if self.smoke {
            (1, 0)
        } else {
            (SETUP_REPS / 2 + 1, SETUP_REPS / 2)
        }
    }

    /// The run's working directory under `target/benchmark/work/`,
    /// emptied before use.
    fn work_dir(&self) -> Result<PathBuf, String> {
        let dir = crate::output_dir().join("work").join(self.workload.name());
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Runs one workload and returns its result; `tracer` receives the spans
/// of a traced run.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure: a missing expected
/// file, an unwritable working directory.
pub fn run(opts: &Options, tracer: &mut Tracer) -> Result<WorkloadResult, String> {
    let expected = Expected::load(opts.workload)?;
    let measured = match opts.workload {
        Workload::PaperNoise | Workload::ThermalFine => run_engine(opts, &expected, tracer)?,
        Workload::SweepCold => run_sweep(opts, &expected, tracer)?,
        Workload::ServeWarm => run_serve(opts, &expected, tracer)?,
    };
    Ok(measured.finish(opts, tracer))
}

/// Failed operations, with the first few reasons echoed to stderr.
#[derive(Debug, Default)]
struct Failures {
    count: u64,
}

impl Failures {
    fn add(&mut self, reason: impl std::fmt::Display) {
        self.count += 1;
        if self.count <= 5 {
            eprintln!("[bench] failed: {reason}");
        }
    }
}

/// Everything a run measured, before it becomes metrics.
#[derive(Debug, Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Answered operations.
    ops: u64,
    /// Latencies of every `stride`-th operation.
    latencies: Vec<f64>,
    stride: u64,
    /// Operations per throughput window.
    window: u64,
    /// When the last full window ended, seconds since the loop began.
    window_end: f64,
    /// Throughput of each full window.
    rates: Vec<f64>,
    /// Operations lost with a batch whose worker panicked.
    aborted: u64,
    loop_s: f64,
    /// `VmHWM` when the timed loop ended, before any checking work after
    /// it.
    peak_rss_mb: f64,
    /// Seconds of the loop spent on tracing work (replays) rather than on
    /// operations.
    traced_s: f64,
    failures: Failures,
    /// Engine phase times summed over `phase_runs` engine runs.
    phases: PhaseTimes,
    phase_runs: usize,
    /// Solver profile of the first round's engine runs.
    first_round: SolverProfile,
    tally: Tally,
    notes: Vec<Metric>,
}

impl Measured {
    fn new(window: usize) -> Self {
        // Writing the whole sample buffer once touches its pages, so peak
        // RSS does not depend on how many operations a run completes.
        let mut latencies = vec![f64::NAN; LATENCY_SAMPLES];
        latencies.clear();
        Measured {
            latencies,
            stride: 1,
            window: window.max(1) as u64,
            ..Measured::default()
        }
    }

    /// Records one answered operation. Past [`LATENCY_SAMPLES`] kept
    /// latencies the sample thins to every other one, so memory, and with
    /// it `peak_rss_mb`, does not grow with throughput.
    fn op(&mut self, latency: f64, start: Instant) {
        if self.ops.is_multiple_of(self.stride) {
            self.latencies.push(latency);
            if self.latencies.len() == LATENCY_SAMPLES {
                let mut kept = 0usize;
                self.latencies.retain(|_| {
                    kept += 1;
                    kept % 2 == 1
                });
                self.stride *= 2;
            }
        }
        self.ops += 1;
        if self.ops.is_multiple_of(self.window) {
            let now = start.elapsed().as_secs_f64();
            self.rates
                .push(self.window as f64 / (now - self.window_end));
            self.window_end = now;
        }
    }

    /// Closes the timed loop begun at `start`: its length, and the peak
    /// RSS it reached.
    fn end_loop(&mut self, start: Instant) {
        self.loop_s = start.elapsed().as_secs_f64();
        self.peak_rss_mb = experiments::snapshot::peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
    }

    /// Median throughput over the full windows; the whole loop's mean when
    /// no window completed.
    fn ops_per_s(&self) -> f64 {
        stats::median(&self.rates).unwrap_or(self.ops as f64 / self.loop_s)
    }

    /// Folds one finished engine run into the phase and solver tallies.
    fn engine_run(&mut self, result: &SimulationResult, first_round: bool) {
        self.phases.merge(result.phase_times());
        self.phase_runs += 1;
        if first_round {
            self.first_round.merge(result.solver_profile());
        }
    }

    fn finish(mut self, opts: &Options, tracer: &Tracer) -> WorkloadResult {
        let attempted = self.ops + self.aborted;
        let sorted = stats::sorted(&self.latencies);
        let metrics = if opts.trace {
            let overhead = self.traced_s / (self.loop_s - self.traced_s);
            self.layer_metrics(tracer, overhead)
        } else {
            vec![
                Metric::new("setup_s", stats::median(&self.setup_s).unwrap_or(0.0), "s"),
                Metric::new("ops_per_s", self.ops_per_s(), "1/s"),
                Metric::new("op_s.p50", pct(&sorted, 50.0), "s"),
                Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            ]
        };
        // Tails are printed, not compared: on this shared host they track
        // slow episodes more than the code. The highest percentile with
        // ten samples beyond it is the tail the run supports.
        self.notes
            .push(Metric::new("ops", self.ops as f64, "count"));
        self.notes
            .push(Metric::new("op_s.p90", pct(&sorted, 90.0), "s"));
        let tail = stats::supported_tail(sorted.len(), &[50.0, 90.0, 99.0, 99.9]);
        if let Some(p) = tail.filter(|&p| p > 90.0) {
            self.notes
                .push(Metric::new(&format!("op_s.p{p}"), pct(&sorted, p), "s"));
        }
        self.notes.push(Metric::new(
            "failed_frac",
            self.failures.count as f64 / attempted.max(1) as f64,
            "fraction",
        ));
        WorkloadResult {
            name: opts.workload.name().to_string(),
            correct: self.failures.count == 0,
            attempted,
            failed: self.failures.count,
            metrics,
            notes: self.notes,
        }
    }

    fn layer_metrics(&self, tracer: &Tracer, overhead: f64) -> Vec<Metric> {
        let p50 = |name: &str, scale: f64| pct(&stats::sorted(&tracer.seconds(name)), 50.0) * scale;
        let runs = self.phase_runs.max(1) as f64;
        let tally = &self.tally;
        let c = &tally.counts;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let splits = tally.split.len().max(1) as f64;
        let split = |i: usize| tally.split.iter().map(|s| s[i]).sum::<f64>() / splits;
        let mut out = vec![
            Metric::new("floorplan.build_ms", p50("floorplan.build", 1e3), "ms"),
            Metric::new("power.calibrate_ms", p50("power.calibrate", 1e3), "ms"),
            Metric::new("core.engine_new_ms", p50("core.engine_new", 1e3), "ms"),
            Metric::new("core.calibrate_ms", p50("core.calibrate", 1e3), "ms"),
            Metric::new("core.rank_us.p50", p50("core.rank", 1e6), "us"),
        ];
        for phase in [
            "trace",
            "calibrate",
            "steady",
            "policy",
            "transient",
            "noise",
        ] {
            let name = format!("core.phase.{phase}_s");
            out.push(Metric::new(&name, self.phases.seconds(phase) / runs, "s"));
        }
        for site in ["steady", "transient", "noise"] {
            let agg = self.first_round.get(site).unwrap_or_default();
            out.push(Metric::new(
                &format!("core.solves.{site}"),
                agg.solves as f64,
                "count",
            ));
            out.push(Metric::new(
                &format!("core.iters_mean.{site}"),
                agg.mean_iterations(),
                "count",
            ));
        }
        out.extend([
            Metric::new("thermal.build_ms", p50("thermal.build", 1e3), "ms"),
            Metric::new("thermal.steady_ms", p50("thermal.steady", 1e3), "ms"),
            Metric::new("thermal.steady_iters", c.steady_iters as f64, "count"),
            Metric::new("thermal.step_us.p50", p50("thermal.step", 1e6), "us"),
            Metric::new(
                "thermal.step_iters_mean",
                ratio(c.step_iters, c.steps),
                "count",
            ),
            Metric::new("pdn.build_ms", p50("pdn.build", 1e3), "ms"),
            Metric::new("pdn.ir_drop_ms.p50", p50("pdn.ir_drop", 1e3), "ms"),
            Metric::new(
                "pdn.ir_factor_ms",
                1e3 * tally.ir_factor_s / tally.ir_calls.max(1) as f64,
                "ms",
            ),
            Metric::new(
                "pdn.ir_solve_ms",
                1e3 * tally.ir_solve_s / tally.ir_calls.max(1) as f64,
                "ms",
            ),
            Metric::new("pdn.ir_iters_mean", ratio(c.ir_iters, c.ir_solves), "count"),
            Metric::new("pdn.analyze_ms.p50", p50("pdn.analyze", 1e3), "ms"),
            Metric::new("pdn.didt_us.p50", p50("pdn.didt", 1e6), "us"),
            Metric::new(
                "workload.trace_gen_ms",
                p50("workload.trace_gen", 1e3),
                "ms",
            ),
            Metric::new(
                "workload.window_gen_us.p50",
                p50("workload.window_gen", 1e6),
                "us",
            ),
            Metric::new("service.hash_us.p50", p50("service.hash", 1e6), "us"),
            Metric::new("service.load_us.p50", p50("service.load", 1e6), "us"),
            Metric::new("service.store_us.p50", p50("service.store", 1e6), "us"),
            Metric::new("split.ir_drop_s", split(0), "s"),
            Metric::new("split.didt_s", split(1), "s"),
            Metric::new("split.window_gen_s", split(2), "s"),
            Metric::new("split.engine_s", split(3), "s"),
            Metric::new("bench.trace_overhead_frac", overhead, "fraction"),
        ]);
        out
    }
}

fn pct(sorted: &[f64], p: f64) -> f64 {
    stats::nearest_rank(sorted, p).unwrap_or(f64::NAN)
}

/// Builds an engine for `config` inside a `core.engine_new` span.
fn build_engine<'c>(
    tracer: &mut Tracer,
    chip: &'c floorplan::Floorplan,
    config: &EngineConfig,
) -> SimulationEngine<'c> {
    tracer.leaf("core.engine_new", 0, || {
        SimulationEngine::new(chip, config.clone())
    })
}

/// Runs one engine scenario, turning an error or a panic into a reason.
fn simulate(engine: &SimulationEngine<'_>, cell: Cell) -> Result<SimulationResult, String> {
    match catch_unwind(AssertUnwindSafe(|| engine.run(cell.0, cell.1))) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e)) => Err(format!("{}/{}: {e}", cell.0.label(), cell.1.label())),
        Err(_) => Err(format!(
            "{}/{}: engine panicked",
            cell.0.label(),
            cell.1.label()
        )),
    }
}

/// `paper-noise` and `thermal-fine`: one engine, `run` calls cycling over
/// the seeded scenario rounds.
fn run_engine(
    opts: &Options,
    expected: &Expected,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let cfg = opts.workload.engine_config(opts.seed);
    let rounds = opts.workload.rounds(opts.seed);
    let cells = rounds.concat();
    let ids: Vec<u64> = cells
        .iter()
        .map(|&c| spec(c, &cfg).content_hash())
        .collect();
    let replay_cache = ScenarioCache::new(opts.work_dir()?.join("replay"));
    let mut m = Measured::new(rounds[0].len());

    let (before, after) = opts.setup_reps();
    let spare_setup = |tracer: &mut Tracer| {
        let started = Instant::now();
        let chip = tracer.leaf("floorplan.build", 0, power8_like);
        black_box(build_engine(tracer, &chip, &cfg));
        started.elapsed().as_secs_f64()
    };
    for _ in 1..before {
        m.setup_s.push(spare_setup(tracer));
    }
    let started = Instant::now();
    let chip = tracer.leaf("floorplan.build", 0, power8_like);
    let engine = build_engine(tracer, &chip, &cfg);
    m.setup_s.push(started.elapsed().as_secs_f64());
    let layers = tracer.enabled().then(|| Layers::build(tracer, &chip, &cfg));

    let min_ops = if opts.smoke { 1 } else { rounds[0].len() };
    let start = Instant::now();
    let mut i = 0usize;
    while i < min_ops || start.elapsed().as_secs_f64() < opts.seconds {
        let (cell, id) = (cells[i % cells.len()], ids[i % cells.len()]);
        let first_round = i < rounds[0].len();
        let op = tracer.begin("op", id);
        let t = Instant::now();
        let run = simulate(&engine, cell);
        m.op(t.elapsed().as_secs_f64(), start);
        tracer.end(op);
        i += 1;
        let result = match run {
            Ok(result) => result,
            Err(reason) => {
                m.failures.add(reason);
                continue;
            }
        };
        let record = SweepRecord::from_result(&result);
        if let Err(reason) = check_record(&record, expected.lookup(cell, cfg.seed), &cfg) {
            m.failures.add(reason);
        }
        m.engine_run(&result, first_round);
        if let Some(layers) = &layers {
            let t = Instant::now();
            let replayed = replay_run(
                tracer,
                (layers, &engine, &replay_cache),
                (&spec(cell, &cfg), id),
                &result,
                first_round,
                &mut m.tally,
            );
            m.traced_s += t.elapsed().as_secs_f64();
            if let Err(reason) = replayed {
                m.failures.add(reason);
            }
        }
    }
    m.end_loop(start);
    for _ in 0..after {
        m.setup_s.push(spare_setup(tracer));
    }
    Ok(m)
}

/// Streams scenarios through `service::run_batch` on one worker with at
/// most `in_flight` submitted but unanswered: `next(i)` supplies the
/// `i`-th scenario (or ends the stream), and `deliver` receives each
/// answer with its latency from submission to in-order delivery. One in
/// flight is a strict closed loop; a few keep the worker fed, as
/// `tg-serve --batch` does, so per-request thread wake-ups do not
/// dominate microsecond-scale requests. The executor's queue holds
/// `in_flight`, so the feeder only ever waits here, where a panicked
/// worker ends the stream instead of blocking it forever.
///
/// # Errors
///
/// Reports a batch whose worker panicked (an engine failure inside the
/// executor).
fn stream<N, D>(
    cache: &ScenarioCache,
    counters: &ServeCounters,
    in_flight: usize,
    mut next: N,
    mut deliver: D,
) -> Result<(), String>
where
    N: FnMut(usize) -> Option<ScenarioSpec> + Send,
    D: FnMut(BatchOutcome, f64),
{
    let (answered_tx, answered_rx) = mpsc::channel::<()>();
    let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
    let (mut index, mut unanswered) = (0usize, 0usize);
    let specs = std::iter::from_fn(move || {
        while unanswered >= in_flight {
            if !await_answer(&answered_rx) {
                return None;
            }
            unanswered -= 1;
        }
        let spec = next(index)?;
        index += 1;
        unanswered += 1;
        sent_tx.send(Instant::now()).ok()?;
        Some(spec)
    });
    let opts = BatchOptions {
        queue_cap: in_flight,
        quiet: true,
        ..BatchOptions::for_threads(1)
    };
    catch_unwind(AssertUnwindSafe(|| {
        run_batch(cache, specs, &opts, None, counters, |outcome| {
            let sent = sent_rx.recv().expect("submission time precedes its answer");
            deliver(outcome, sent.elapsed().as_secs_f64());
            let _ = answered_tx.send(());
        })
    }))
    .map(drop)
    .map_err(|_| "batch executor panicked".to_string())
}

/// Waits for one more answer; gives up once any thread has panicked,
/// since a dead worker never answers.
fn await_answer(answered: &Receiver<()>) -> bool {
    loop {
        match answered.recv_timeout(Duration::from_millis(20)) {
            Ok(()) => return true,
            Err(RecvTimeoutError::Timeout) if !PANICKED.load(Ordering::SeqCst) => {}
            Err(_) => return false,
        }
    }
}

/// A fresh, empty cache directory per set-up repetition.
fn fresh_cache(work: &Path, rep: usize) -> Result<ScenarioCache, String> {
    let dir = work.join(format!("cache-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(ScenarioCache::new(dir))
}

/// `sweep-cold`: the quick-config grid in seeded rounds through the
/// batch executor into an empty cache, whole rounds at a time.
fn run_sweep(opts: &Options, expected: &Expected, tracer: &mut Tracer) -> Result<Measured, String> {
    let cfg = opts.workload.engine_config(opts.seed);
    let rounds = opts.workload.rounds(opts.seed);
    let cells = rounds.concat();
    let round_len = rounds[0].len();
    let work = opts.work_dir()?;
    let mut m = Measured::new(round_len);

    let setup = |rep: usize| -> Result<_, String> {
        let started = Instant::now();
        let specs: Vec<ScenarioSpec> = cells.iter().map(|&c| spec(c, &cfg)).collect();
        let ids: Vec<u64> = specs.iter().map(ScenarioSpec::content_hash).collect();
        let cache = fresh_cache(&work, rep)?;
        Ok(((specs, ids, cache), started.elapsed().as_secs_f64()))
    };
    let (before, after) = opts.setup_reps();
    let mut kept = None;
    for rep in 0..before {
        let (made, secs) = setup(rep)?;
        m.setup_s.push(secs);
        kept = Some(made);
    }
    let (specs, ids, cache) = kept.expect("at least one set-up repetition");

    // Traced runs re-run one calibrating cell of every round on their
    // own engine and replay its layers; the batch executor hides its
    // engine.
    let chip = tracer.leaf("floorplan.build", 0, power8_like);
    let traced = if tracer.enabled() {
        let layers = Layers::build(tracer, &chip, &cfg);
        let engine = build_engine(tracer, &chip, &cfg);
        Some((layers, engine, ScenarioCache::new(work.join("replay"))))
    } else {
        None
    };
    let mut pick = DeterministicRng::new(opts.seed ^ 0x5245_504C);

    let counters = ServeCounters::default();
    let mut delivered: Vec<SweepRecord> = Vec::with_capacity(cells.len());
    let seconds = opts.seconds;
    let start = Instant::now();
    let outcome = stream(
        &cache,
        &counters,
        1,
        |i| {
            let done = i >= cells.len()
                || (i % round_len == 0 && i > 0 && start.elapsed().as_secs_f64() >= seconds);
            (!done).then(|| specs[i].clone())
        },
        |outcome, latency| {
            let i = outcome.index;
            m.op(latency, start);
            if outcome.hash != ids[i] || outcome.source != CellSource::Simulated {
                m.failures
                    .add(format!("{}: not a cold simulation", specs[i].label()));
            } else if let Err(reason) =
                check_record(&outcome.record, expected.lookup(cells[i], cfg.seed), &cfg)
            {
                m.failures.add(reason);
            }
            delivered.push(outcome.record);
            if (i + 1) % round_len != 0 {
                return;
            }
            if let Some((layers, engine, replay_cache)) = &traced {
                let t = Instant::now();
                let candidates: Vec<usize> = (i + 1 - round_len..=i)
                    .filter(|&j| CALIBRATING.contains(&cells[j].1))
                    .collect();
                let j = candidates[pick.uniform_usize(candidates.len())];
                let replayed = resimulate(
                    tracer,
                    engine,
                    Some((layers, replay_cache)),
                    (&specs[j], ids[j]),
                    &delivered[j],
                    j < round_len,
                    &mut m,
                );
                m.traced_s += t.elapsed().as_secs_f64();
                if let Err(reason) = replayed {
                    m.failures.add(reason);
                }
            }
        },
    );
    m.end_loop(start);
    if let Err(reason) = outcome {
        m.failures.add(reason);
        m.aborted += 1;
    }
    if counters.invalid.load(Ordering::Relaxed) > 0 {
        m.failures.add("the cache rejected an entry as invalid");
    }
    for rep in before..before + after {
        m.setup_s.push(setup(rep)?.1);
    }
    Ok(m)
}

/// Replays one finished run's layer calls, then the service calls that
/// serving its record takes, inside a `replay` span.
fn replay_run(
    tracer: &mut Tracer,
    (layers, engine, cache): (&Layers<'_>, &SimulationEngine<'_>, &ScenarioCache),
    (scenario, id): (&ScenarioSpec, u64),
    result: &SimulationResult,
    first_round: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let cell = (scenario.benchmark, scenario.policy);
    let span = tracer.begin("replay", id);
    let replayed = layers
        .replay(tracer, engine, cell, result, id, first_round, tally)
        .map_err(|e| format!("replay of {}: {e}", scenario.label()))
        .and_then(|()| serve_replay(tracer, cache, scenario, &SweepRecord::from_result(result)));
    tracer.end(span);
    replayed
}

/// Re-simulates a served scenario on `engine` and checks the served
/// answer against it; in a traced run, also replays the re-simulation.
fn resimulate(
    tracer: &mut Tracer,
    engine: &SimulationEngine<'_>,
    traced: Option<(&Layers<'_>, &ScenarioCache)>,
    (scenario, id): (&ScenarioSpec, u64),
    answered: &SweepRecord,
    first_round: bool,
    m: &mut Measured,
) -> Result<(), String> {
    let cell = (scenario.benchmark, scenario.policy);
    let result = tracer.leaf("core.rerun", id, || simulate(engine, cell))?;
    let record = SweepRecord::from_result(&result);
    check_record(&record, Some(answered), &scenario.engine_config)
        .map_err(|e| format!("served answer differs from the engine: {e}"))?;
    m.engine_run(&result, first_round);
    match traced {
        Some((layers, cache)) => replay_run(
            tracer,
            (layers, engine, cache),
            (scenario, id),
            &result,
            first_round,
            &mut m.tally,
        ),
        None => Ok(()),
    }
}

/// `serve-warm`: Zipf-distributed requests over the 14 × 8 tiny grid,
/// answered from a cache that set-up fills with the committed records.
fn run_serve(opts: &Options, expected: &Expected, tracer: &mut Tracer) -> Result<Measured, String> {
    let cfg = opts.workload.engine_config(opts.seed);
    let cells = grid();
    let records: Vec<SweepRecord> = cells
        .iter()
        .map(|&c| {
            expected
                .lookup(c, cfg.seed)
                .cloned()
                .ok_or_else(|| format!("expected records lack {}/{}", c.0.label(), c.1.label()))
        })
        .collect::<Result<_, _>>()?;
    let work = opts.work_dir()?;
    let mut m = Measured::new(SERVE_WINDOW);

    let setup = |tracer: &mut Tracer, rep: usize| -> Result<_, String> {
        let started = Instant::now();
        let specs: Vec<ScenarioSpec> = cells.iter().map(|&c| spec(c, &cfg)).collect();
        let cache = fresh_cache(&work, rep)?;
        for (s, r) in specs.iter().zip(&records) {
            tracer.leaf("service.store", 0, || cache.store(s, r));
        }
        Ok(((specs, cache), started.elapsed().as_secs_f64()))
    };
    let (before, after) = opts.setup_reps();
    let mut kept = None;
    for rep in 0..before {
        let (made, secs) = setup(tracer, rep)?;
        m.setup_s.push(secs);
        kept = Some(made);
    }
    let (specs, cache) = kept.expect("at least one set-up repetition");
    let ids: Vec<u64> = specs.iter().map(ScenarioSpec::content_hash).collect();

    let counters = ServeCounters::default();
    let mut requested = ZipfRequests::new(cells.len(), opts.seed);
    let mut answered = ZipfRequests::new(cells.len(), opts.seed);
    let mut sample = DeterministicRng::new(opts.seed ^ 0x5341_4D50);
    let mut first_requests: Vec<usize> = Vec::new();
    let seconds = opts.seconds;
    let start = Instant::now();
    let outcome = stream(
        &cache,
        &counters,
        SERVE_IN_FLIGHT,
        |i| {
            if i > 0 && start.elapsed().as_secs_f64() >= seconds {
                return None;
            }
            requested.next().map(|k| specs[k].clone())
        },
        |outcome, latency| {
            let k = answered.next().expect("endless request stream");
            m.op(latency, start);
            if first_requests.len() < 1_000 {
                first_requests.push(k);
            }
            if outcome.hash != ids[k]
                || outcome.source != CellSource::Cache
                || outcome.record != records[k]
            {
                m.failures.add(format!(
                    "request {} for {}: wrong or uncached answer",
                    outcome.index,
                    specs[k].label()
                ));
            }
            if tracer.enabled() && sample.bernoulli(SERVE_REPLAY_SHARE) {
                let t = Instant::now();
                let span = tracer.begin("replay", ids[k]);
                tracer.leaf("service.hash", ids[k], || specs[k].content_hash());
                let hit = tracer.leaf("service.load", ids[k], || cache.load(&specs[k]));
                tracer.end(span);
                m.traced_s += t.elapsed().as_secs_f64();
                if hit != CacheLookup::Hit(records[k].clone()) {
                    m.failures
                        .add(format!("replayed load of {}", specs[k].label()));
                }
            }
        },
    );
    m.end_loop(start);
    if let Err(reason) = outcome {
        m.failures.add(reason);
        m.aborted += 1;
    }
    if counters.invalid.load(Ordering::Relaxed) > 0 {
        m.failures.add("the cache rejected an entry as invalid");
    }
    for rep in before..before + after {
        m.setup_s.push(setup(tracer, rep)?.1);
    }

    // The cache only proves it returns what was stored; re-simulating a
    // few answered requests proves the stored answers are the physics'.
    let chip = tracer.leaf("floorplan.build", 0, power8_like);
    let engine = build_engine(tracer, &chip, &cfg);
    let layers = tracer.enabled().then(|| {
        (
            Layers::build(tracer, &chip, &cfg),
            ScenarioCache::new(work.join("replay")),
        )
    });
    let mut candidates: Vec<usize> = first_requests
        .iter()
        .copied()
        .filter(|&k| CALIBRATING.contains(&cells[k].1))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    let mut pick = DeterministicRng::new(opts.seed ^ 0x5645_5249);
    pick.shuffle(&mut candidates);
    for &k in candidates.iter().take(SERVE_RESIMULATED) {
        let traced = layers.as_ref().map(|(l, c)| (l, c));
        let checked = resimulate(
            tracer,
            &engine,
            traced,
            (&specs[k], ids[k]),
            &records[k],
            true,
            &mut m,
        );
        if let Err(reason) = checked {
            m.failures.add(reason);
        }
    }
    Ok(m)
}

/// Simulates every scenario the default seed can submit, for
/// `benchmark/expected/`.
///
/// # Errors
///
/// An engine failure: nothing is written then.
pub fn bless(workload: Workload) -> Result<Expected, String> {
    let seed = crate::scenario::DEFAULT_SEED;
    let cfg = workload.engine_config(seed);
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, cfg.clone());
    let records = workload
        .rounds(seed)
        .concat()
        .into_iter()
        .map(|cell| simulate(&engine, cell).map(|r| SweepRecord::from_result(&r)))
        .collect::<Result<_, _>>()?;
    Ok(Expected {
        engine_seed: cfg.seed,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sample_and_windows_stay_bounded() {
        let mut m = Measured::new(10);
        let start = Instant::now();
        let n = 3 * LATENCY_SAMPLES;
        for i in 0..n {
            m.op(i as f64, start);
        }
        assert_eq!(m.ops, n as u64);
        assert_eq!(m.stride, 4);
        assert!(m.latencies.len() < LATENCY_SAMPLES);
        // A systematic sample: every kept operation is a multiple of the
        // stride, and none is missing.
        assert!(m
            .latencies
            .iter()
            .all(|&l| (l as u64).is_multiple_of(m.stride)));
        assert_eq!(m.latencies.len(), n / 4);
        assert_eq!(m.rates.len(), n / 10);
    }

    #[test]
    fn a_panicking_worker_ends_the_stream() {
        install_panic_flag();
        let dir = std::env::temp_dir().join(format!("tg-bench-panic-{}", std::process::id()));
        let cache = ScenarioCache::new(&dir);
        // A thermal step that does not divide the decision interval makes
        // engine construction panic inside the executor's worker.
        let mut config = Workload::ServeWarm.engine_config(1);
        config.thermal_step = simkit::units::Seconds::from_micros(30.0);
        let broken = ScenarioSpec::new(
            workload::Benchmark::Fft,
            thermogater::PolicyKind::AllOn,
            config,
        );
        let counters = ServeCounters::default();
        let mut answered = 0;
        let outcome = stream(
            &cache,
            &counters,
            SERVE_IN_FLIGHT,
            |i| (i < 10).then(|| broken.clone()),
            |_, _| answered += 1,
        );
        assert!(outcome.is_err());
        assert_eq!(answered, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
