//! The closed-loop co-simulation engine.
//!
//! One [`SimulationEngine::run`] reproduces the paper's evaluation flow
//! for a single benchmark × policy pair:
//!
//! 1. a synthetic SPLASH-2x activity trace drives the calibrated power
//!    model (dynamic + temperature-dependent leakage);
//! 2. each Vdd-domain's regulator bank converts the demand, dissipating
//!    per-regulator conversion loss that is injected — together with the
//!    block powers — into the HotSpot-style transient thermal model;
//! 3. every decision interval (1 ms) the active policy picks which
//!    regulators stay on, constrained to the `n_on` that sustains peak
//!    conversion efficiency;
//! 4. voltage noise is evaluated on sampled 2 K-cycle windows
//!    (VoltSpot methodology), and the `*VT` policies react to (predicted)
//!    voltage emergencies.
//!
//! Initial temperatures come from a leakage-feedback steady-state solve,
//! standing in for the long pre-ROI history the paper's traces carry.
//!
//! Every run replays one activity trace as per-thermal-step means
//! ([`SimulationEngine::run_spec`] streams a synthetic one,
//! [`SimulationEngine::trace_duration`] long, straight into the means,
//! so its 1 µs samples are never held) and profiles
//! θ on the trace's first `max(profiling_decisions, 3)` decisions. A
//! synthetic trace, the θ fitted on its head and the noise windows drawn
//! along it depend only on the chip, the workload spec and the engine's
//! configuration, never on the policy (the off-chip policy draws no
//! window). So an engine keeps, keyed by spec, the last synthetic run's
//! resampled steps, and for each of the last 16 specs its synthetic runs
//! met (least recently used first out) the θ fit and R² of the first that
//! calibrated and the window book of the first that drew windows: each
//! window's starting RNG state and each domain's response peak
//! ([`crate::windows::WindowBook`]). A synthetic run of a kept spec
//! replays them instead of generating the trace, profiling θ or drawing
//! its windows again; a replayed external trace neither reads nor writes
//! them. A run also drops the PDN's IR warm
//! starts before its first analysis, so a record depends only on the
//! spec and the configuration, never on what the engine ran before: a
//! batch worker keeps one engine for every cell of one configuration.
//!
//! A run that draws its windows uses two threads. Before the trace
//! phase, a scoped producer
//! thread (see [`crate::windows`]) plans the noise windows: a draw-only
//! pass finds each window's starting state in the run's one noise RNG
//! while this thread builds the trace. As the trace reaches each
//! window's step, the producer can draw the window and convolve it into
//! its di/dt responses, which it does while this thread finishes the
//! trace, calibrates, settles and steps the run;
//! the loop takes an interval's windows before its decision, filling
//! the next planned ones itself when they are not ready, and hands each
//! back once it is measured. Every window is drawn from the state the
//! serial stream reaches at it, so the overlap changes no number, and
//! the `noise` phase holds what obtaining the windows costs the loop
//! (its waits and its own fills) rather than their whole cost. A run
//! whose windows are booked starts no producer and draws no window
//! ahead: the truth check and a measurement read the booked peaks, and
//! only a domain whose peak crosses the emergency threshold (its cycles
//! over it are counted) or that holds a new worst window (its per-cycle
//! trace is kept) is drawn again, on this thread, from its window's
//! booked start. The counts are 0 below the threshold, so every number
//! is the drawing run's.
//!
//! Every phase is timed at one call site through
//! [`PhaseTimes::timed`], which also opens the phase's span. Each
//! interval takes its windows (`noise`, `engine.noise.wait`), decides
//! (`policy`, `engine.policy`, with the VT truth check nested as
//! `noise`, `engine.noise.truth`), steps (`transient`,
//! `engine.transient`, with each window's measurement nested as `noise`,
//! `engine.noise.measure`) and updates the demand forecaster (`policy`
//! again). A nested phase's time is taken out of the phase around it, so
//! the phases never overlap.
//!
//! ### Oracle fidelity
//!
//! `OracT`'s "temperature each regulator would assume" is computed with
//! the linear ΔT = θ·ΔP model driven by *perfect* inputs (true current
//! temperatures, true next-interval power). The paper validates exactly
//! this linearisation against HotSpot for regulator-sized sources
//! (R² ≈ 0.99, Section 6.3), so the oracle and the practical policy
//! differ only in input quality — sensor delay, demand forecast, and
//! calibration — matching the paper's Orac/Prac design.

use crate::policy::{gating_from_rankings, rank_regulators, PolicyInputs, PolicyKind};
use crate::predictor::{DomainPowerForecaster, ThermalPredictor};
use crate::result::{DecisionRecord, SimulationResult};
use crate::sensor::ThermalSensorArray;
use crate::windows::{with_window_stream, FillScratch, WindowBook, WindowStream};
use floorplan::{DomainId, Floorplan, VddDomain};
use pdn::transient::DidtResponse;
use pdn::{EmergencyDetector, EmergencyPredictor, NoiseAnalyzer, PdnConfig, PdnModel};
use power::{PowerModel, TechnologyParams};
use simkit::linalg::{SolveStats, SolverBackend};
use simkit::perf::{PhaseTimes, SolverProfile};
use simkit::series::{TimeSeries, TraceMatrix};
use simkit::telemetry::manifest::{ContentHasher, KeyPrefix};
use simkit::telemetry::{EventKind, Telemetry};
use simkit::units::{Amps, Hertz, Seconds, Watts};
use simkit::{DeterministicRng, Error, Result};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use thermal::{FeedbackStats, PowerMap, ThermalConfig, ThermalModel, ThermalState};
use vreg::{GatingState, RegulatorBank, RegulatorDesign};
use workload::microtrace::{generate_window_into, skip_window, WARMUP_CYCLES, WINDOW_CYCLES};
use workload::{ActivityTrace, Benchmark, StepMeans, TraceGenerator, WorkloadSpec};

/// Configuration of a co-simulation.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated region-of-interest length.
    pub duration: Seconds,
    /// Gating decision interval (1 ms in the paper).
    pub decision_interval: Seconds,
    /// Thermal integration step; must divide the decision interval.
    pub thermal_step: Seconds,
    /// Component regulator design.
    pub design: RegulatorDesign,
    /// Thermal model configuration.
    pub thermal: ThermalConfig,
    /// PDN configuration.
    pub pdn: PdnConfig,
    /// Technology / power-model parameters.
    pub tech: TechnologyParams,
    /// Number of noise windows sampled evenly over the run (the paper
    /// uses 200 per application).
    pub noise_window_count: usize,
    /// Linear-solver family for the thermal steady-state and PDN systems
    /// (transient steps are warm Jacobi-CG under every backend). Engine
    /// construction copies this into the thermal and PDN configurations
    /// it instantiates, so one knob steers the whole stack; the
    /// `SIMKIT_SOLVER` environment variable overrides the default.
    pub solver: SolverBackend,
    /// Decision intervals simulated by the θ-calibration profiling pass
    /// (at least 3 are run), taken from the head of the run's trace.
    pub profiling_decisions: usize,
    /// Thermal steps between spatial frames captured into the
    /// telemetry trace by the [`FrameRecorder`](crate::FrameRecorder)
    /// (heat map downsampled to at most 16×16 cells, voltage lanes,
    /// gating mask, hotspot track). 0 — the default — disables frame
    /// capture entirely: no recorder is constructed and the event
    /// stream is unchanged.
    pub frame_every: usize,
    /// Master seed for every stochastic element.
    pub seed: u64,
}

impl EngineConfig {
    /// The paper-faithful configuration: 20 ms ROI, 1 ms decisions,
    /// 64×64 thermal grid, 200 noise windows, FIVR-like regulators.
    pub fn standard() -> Self {
        EngineConfig {
            duration: Seconds::from_millis(20.0),
            decision_interval: Seconds::from_millis(1.0),
            thermal_step: Seconds::from_micros(20.0),
            design: RegulatorDesign::fivr(),
            thermal: ThermalConfig::standard(),
            pdn: PdnConfig::reference(),
            tech: TechnologyParams::table1(),
            noise_window_count: 200,
            solver: SolverBackend::env_default(),
            profiling_decisions: 10,
            frame_every: 0,
            seed: 0x7468_6572_6D6F,
        }
    }

    /// A reduced configuration for tests and quick exploration: 6 ms ROI,
    /// 32×32 grid, 12 noise windows.
    pub fn fast() -> Self {
        EngineConfig {
            duration: Seconds::from_millis(6.0),
            thermal: ThermalConfig::coarse(),
            noise_window_count: 12,
            profiling_decisions: 5,
            ..EngineConfig::standard()
        }
    }

    /// Folds every configuration field into `hasher`, in a fixed order:
    /// the top-level fields (floats as their bits, counts and the seed
    /// as integers, the solver backend's name as text), then the
    /// design, thermal, PDN and technology walks under the `design.`,
    /// `thermal.`, `pdn.` and `tech.` prefixes. Two configurations fold
    /// equal bytes iff every field is bit-identical, so any change to a
    /// field, however nested (a package resistance, one efficiency-curve
    /// point, the solver backend), changes the hash; the destructuring
    /// is exhaustive, so a field added later cannot be left out of it.
    /// Formats no number and allocates nothing.
    pub fn hash_fields(&self, hasher: &mut ContentHasher) {
        let EngineConfig {
            duration,
            decision_interval,
            thermal_step,
            design,
            thermal,
            pdn,
            tech,
            noise_window_count,
            solver,
            profiling_decisions,
            frame_every,
            seed,
        } = self;
        let top = KeyPrefix::new("");
        hasher.field(&top, "duration", duration.get());
        hasher.field(&top, "decision_interval", decision_interval.get());
        hasher.field(&top, "thermal_step", thermal_step.get());
        hasher.field(&top, "noise_window_count", *noise_window_count);
        hasher.field(&top, "solver", solver.name());
        hasher.field(&top, "profiling_decisions", *profiling_decisions);
        hasher.field(&top, "frame_every", *frame_every);
        hasher.field(&top, "seed", *seed);
        design.hash_fields(&KeyPrefix::new("design."), hasher);
        thermal.hash_fields(&KeyPrefix::new("thermal."), hasher);
        pdn.hash_fields(&KeyPrefix::new("pdn."), hasher);
        tech.hash_fields(&KeyPrefix::new("tech."), hasher);
    }

    /// The content hash of this configuration alone
    /// ([`EngineConfig::hash_fields`] under its own domain): equal iff
    /// every field is bit-identical, up to 64-bit collisions.
    pub fn content_hash(&self) -> u64 {
        let mut hasher = ContentHasher::new("engine");
        self.hash_fields(&mut hasher);
        hasher.finish()
    }

    /// Checks that an engine can be built and run from this
    /// configuration: a non-empty thermal grid of at most
    /// [`EngineConfig::MAX_THERMAL_CELLS`] cells, a thermal step that
    /// divides the decision interval, a finite duration of at least one
    /// decision interval, at most [`EngineConfig::MAX_THERMAL_STEPS`]
    /// thermal steps in the run and in its profiling pass, no more
    /// noise windows than thermal steps (a step measures at most one
    /// window), and a thermal step that spans a whole number of
    /// synthetic trace samples ([`workload::trace::DEFAULT_DT`]). Front
    /// ends call it to reject bad input with a message instead of the
    /// panic [`SimulationEngine::new`] raises.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] naming the first rule broken.
    pub fn validate(&self) -> Result<()> {
        self.step_counts().map(|_| ())
    }

    /// The largest thermal grid [`EngineConfig::validate`] accepts, in
    /// cells (`nx × ny`): 512 × 512, 64 times the paper's 64 × 64 grid
    /// and above every grid this reproduction runs (128 × 128 in the
    /// finest benchmark, 208 × 208 on the steady-solver scaling axis).
    /// That is 524 289 thermal nodes, where a grid no bound stops
    /// (`grid=100000`, 2·10¹⁰ nodes) cannot be allocated on any host.
    pub const MAX_THERMAL_CELLS: usize = 512 * 512;

    /// The most thermal steps [`EngineConfig::validate`] lets a run or
    /// its θ profiling pass take: 10⁶, a thousand times the paper's
    /// 20 ms run at 20 µs steps. A run holds one activity per block for
    /// each step (416 MB for the 52-block reference chip at this bound)
    /// and spends about a millisecond per step, so a longer run would
    /// exhaust the memory or the patience of any host it shares.
    pub const MAX_THERMAL_STEPS: usize = 1_000_000;

    /// `(thermal steps per decision, decisions)` of a valid
    /// configuration; see [`EngineConfig::validate`].
    fn step_counts(&self) -> Result<(usize, usize)> {
        let (nx, ny) = (self.thermal.nx, self.thermal.ny);
        if nx == 0 || ny == 0 {
            return Err(Error::invalid_argument(format!(
                "thermal grid must be non-empty, got {nx}×{ny}"
            )));
        }
        if nx
            .checked_mul(ny)
            .is_none_or(|cells| cells > Self::MAX_THERMAL_CELLS)
        {
            return Err(Error::invalid_argument(format!(
                "thermal grid must hold at most {} cells, got {nx}×{ny}",
                Self::MAX_THERMAL_CELLS
            )));
        }
        let interval = self.decision_interval.get();
        let Some(spd) = whole_ratio(self.decision_interval, self.thermal_step) else {
            return Err(Error::invalid_argument(format!(
                "thermal step must divide the decision interval, got {} and {}",
                readable(self.thermal_step),
                readable(self.decision_interval)
            )));
        };
        let duration = self.duration.get();
        if !(duration.is_finite() && duration >= interval * (1.0 - 1e-9)) {
            return Err(Error::invalid_argument(format!(
                "duration must be finite and at least one decision interval ({}), got {}",
                readable(self.decision_interval),
                readable(self.duration)
            )));
        }
        // Bounded before the conversion, since `as usize` saturates.
        let decisions = (duration / interval).round();
        let longest = decisions.max(self.profiling_decisions as f64);
        if longest * spd as f64 > Self::MAX_THERMAL_STEPS as f64 {
            return Err(Error::invalid_argument(format!(
                "a run and its profiling pass must each take at most {} thermal steps, got {:e}",
                Self::MAX_THERMAL_STEPS,
                longest * spd as f64
            )));
        }
        let n_decisions = decisions as usize;
        let steps = n_decisions * spd;
        if self.noise_window_count > steps {
            return Err(Error::invalid_argument(format!(
                "noise_window_count must not exceed the run's thermal steps, got {} windows over {steps} steps",
                self.noise_window_count
            )));
        }
        samples_per_step(self.thermal_step, workload::trace::DEFAULT_DT)?;
        Ok((spd, n_decisions))
    }
}

/// `whole / part` when it is a positive whole number (to 1e-12 s).
fn whole_ratio(whole: Seconds, part: Seconds) -> Option<usize> {
    let n = (whole.get() / part.get()).round();
    (n >= 1.0 && n.is_finite() && (whole.get() - n * part.get()).abs() < 1e-12)
        .then_some(n as usize)
}

/// Trace samples one thermal `step` averages: a step must span a whole
/// number of samples `dt` apart, or the replay would run fast or slow.
fn samples_per_step(step: Seconds, dt: Seconds) -> Result<usize> {
    whole_ratio(step, dt).ok_or_else(|| {
        Error::invalid_argument(format!(
            "thermal step must be a whole multiple of the trace's sample interval, got {} and {}",
            readable(step),
            readable(dt)
        ))
    })
}

/// `d` for a message: in the largest of s, ms, µs and ns that keeps it
/// at least 1, rounded to nine significant digits with trailing zeros
/// cut, so a 20 µs step built as `20.0 * 1e-6` reads `20 µs`, not
/// `0.000019999999999999998 s`.
fn readable(d: Seconds) -> String {
    let seconds = d.get();
    if !seconds.is_finite() || seconds == 0.0 {
        return format!("{seconds} s");
    }
    let (scale, unit) = [(1.0, "s"), (1e-3, "ms"), (1e-6, "µs")]
        .into_iter()
        .find(|&(scale, _)| seconds.abs() >= scale)
        .unwrap_or((1e-9, "ns"));
    let value = seconds / scale;
    let decimals = (8 - value.abs().log10().floor() as i64).clamp(0, 17) as usize;
    let text = format!("{value:.decimals$}");
    let text = if text.contains('.') {
        text.trim_end_matches('0').trim_end_matches('.')
    } else {
        &text
    };
    format!("{text} {unit}")
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::standard()
    }
}

/// Thermal sensor + aggregation latency (100 µs in the paper).
const SENSOR_LATENCY: Seconds = Seconds::new(100.0 * 1e-6);

/// PracVT's voltage-emergency predictor accuracy (0.9 in the paper).
const EMERGENCY_PREDICTOR_ACCURACY: f64 = 0.9;

/// Maximum edge of a downsampled thermal frame, cells per axis.
const FRAME_GRID: usize = 16;

/// How far past the 10 % threshold a droop travels before the on-line
/// detector's reaction (domain all-on) clips it, as a fraction of Vdd.
const DETECTOR_OVERSHOOT_FRACTION: f64 = 0.03;

/// Emergency cycles that elapse before the detector's reaction takes
/// effect (detection latency + regulator turn-on).
const DETECTOR_REACTION_CYCLES: usize = 30;

/// The co-simulation engine for one chip.
#[derive(Debug)]
pub struct SimulationEngine<'c> {
    chip: &'c Floorplan,
    config: EngineConfig,
    power: PowerModel,
    thermal: ThermalModel,
    pdn: PdnModel,
    banks: Vec<RegulatorBank>,
    analyzer: NoiseAnalyzer,
    telemetry: Telemetry,
    steps_per_decision: usize,
    n_decisions: usize,
    /// What the engine keeps from its last synthetic runs.
    memo: Mutex<Memo>,
}

/// Specs whose θ fit and window book an engine keeps: a whole 14-benchmark
/// grid with room for two mixes. A book is 48 bytes per window plus 8 per
/// domain window (35 KB at the standard configuration's 200 windows over
/// 16 domains), so the table stays under 0.6 MB.
const KEPT_SPECS: usize = 16;

/// The entries an engine keeps from its synthetic runs, each keyed by
/// the spec it was made for: a synthetic run's trace steps, θ fit and
/// noise windows are pure functions of the chip, the spec and the
/// engine's configuration (steady solves take fresh scratch on every
/// call, and the profiling pass's solves never enter a run's solver
/// profile).
#[derive(Debug, Default)]
struct Memo {
    /// The last synthetic run's resampled trace steps (one slot: a trace
    /// is 125–416 KB).
    trace: Option<(WorkloadSpec, Arc<Vec<Vec<f64>>>)>,
    /// What the last [`KEPT_SPECS`] specs' synthetic runs left, least
    /// recently used first.
    specs: Vec<(WorkloadSpec, SpecMemo)>,
}

/// The policy-independent results an engine keeps for one spec.
#[derive(Debug, Default)]
struct SpecMemo {
    /// The first calibrating run's θ fit and its R².
    theta: Option<(ThermalPredictor, f64)>,
    /// The first windowed run's window book.
    windows: Option<Arc<WindowBook>>,
}

impl Memo {
    /// `spec`'s entry, if kept, now the most recently used.
    fn spec(&mut self, spec: &WorkloadSpec) -> Option<&mut SpecMemo> {
        let i = self.specs.iter().position(|(key, _)| key == spec)?;
        self.specs[i..].rotate_left(1);
        self.specs.last_mut().map(|(_, entry)| entry)
    }

    /// `spec`'s entry, now the most recently used; an empty one if it was
    /// not kept, in place of the least recently used when the table is
    /// full.
    fn spec_or_insert(&mut self, spec: &WorkloadSpec) -> &mut SpecMemo {
        if self.spec(spec).is_none() {
            if self.specs.len() == KEPT_SPECS {
                self.specs.remove(0);
            }
            self.specs.push((spec.clone(), SpecMemo::default()));
        }
        let last = self.specs.len() - 1;
        &mut self.specs[last].1
    }
}

/// The simulated chip between thermal steps: its state, the transient
/// stepper, and the buffers every [`SimulationEngine::step`] reuses, so
/// a step allocates nothing.
struct Plant<'m> {
    state: ThermalState,
    stepper: thermal::TransientStepper<'m>,
    power: PowerMap<'m>,
    block_powers: Vec<Watts>,
    /// Per-VR conversion losses of the latest step.
    vr_losses: Vec<f64>,
}

/// What a policy knows and remembers between decisions.
struct Governor {
    policy: PolicyKind,
    /// The profiled θ (thermally-aware policies only).
    predictor: Option<ThermalPredictor>,
    sensors: ThermalSensorArray,
    forecaster: DomainPowerForecaster,
    emergency_predictor: EmergencyPredictor,
}

/// What [`SimulationEngine::decide`] settles for one interval.
struct Decision {
    gating: GatingState,
    n_on: Vec<usize>,
    /// Domains switched all-on by a (predicted) voltage emergency.
    emergency: Vec<bool>,
    /// The practical policies' per-domain demand forecast (empty for
    /// every other policy).
    forecast: Vec<Watts>,
}

/// Every metric a run accumulates, folded step by step into its
/// [`SimulationResult`].
struct RunMetrics {
    decisions: Vec<DecisionRecord>,
    total_power: TimeSeries,
    active_count: TimeSeries,
    required_count: TimeSeries,
    vr_temps: TraceMatrix,
    /// The latest step's per-VR temperatures (one reused buffer).
    vr_temps_now: Vec<f64>,
    max_t: f64,
    max_gradient: f64,
    /// The silicon layer at the running T_max, copied into one reused
    /// buffer; the heat map is built from it once, after the run.
    silicon_at_tmax: Vec<f64>,
    pout: f64,
    pin: f64,
    loss: f64,
    window_noise: Vec<f64>,
    emergency_cycles: usize,
    analyzed_cycles: usize,
    worst_window: Option<(f64, Vec<f64>)>,
    solver_profile: SolverProfile,
    perf: PhaseTimes,
}

impl AsMut<PhaseTimes> for RunMetrics {
    fn as_mut(&mut self) -> &mut PhaseTimes {
        &mut self.perf
    }
}

impl RunMetrics {
    /// Empty accumulators for a run starting at the steady `state`
    /// that `steady` converged to, after the phases timed in `perf`.
    fn new(
        engine: &SimulationEngine<'_>,
        state: &ThermalState,
        steady: &FeedbackStats,
        perf: PhaseTimes,
    ) -> Self {
        let step = engine.config.thermal_step;
        let n_vrs = engine.chip.vr_sites().len();
        let mut solver_profile = SolverProfile::new();
        solver_profile.merge_agg("steady", &steady.cg);
        RunMetrics {
            decisions: Vec::with_capacity(engine.n_decisions),
            total_power: TimeSeries::new(step),
            active_count: TimeSeries::new(step),
            required_count: TimeSeries::new(step),
            vr_temps: TraceMatrix::new(n_vrs, step),
            vr_temps_now: Vec::with_capacity(n_vrs),
            max_t: f64::MIN,
            max_gradient: f64::MIN,
            silicon_at_tmax: state.silicon().to_vec(),
            pout: 0.0,
            pin: 0.0,
            loss: 0.0,
            window_noise: Vec::new(),
            emergency_cycles: 0,
            analyzed_cycles: 0,
            worst_window: None,
            solver_profile,
            perf,
        }
    }

    /// Folds in the step `plant` just took under `gating`: power and
    /// efficiency accounting (each domain's demand also adds into
    /// `domain_power`), then the thermal accounting, leaving the step's
    /// VR temperatures in `vr_temps_now`.
    fn observe_step(
        &mut self,
        engine: &SimulationEngine<'_>,
        plant: &Plant<'_>,
        gating: &GatingState,
        solve: SolveStats,
        domain_power: &mut [f64],
    ) -> Result<()> {
        let vdd = engine.config.tech.vdd;
        let (state, vr_losses) = (&plant.state, &plant.vr_losses);
        self.solver_profile.record("transient", solve);
        self.total_power
            .push(plant.block_powers.iter().map(|p| p.get()).sum());
        self.active_count.push(gating.active_count() as f64);
        // Demand-driven count: how many regulators pure (thermally-
        // oblivious) efficiency gating would keep on right now — Section
        // 6.1 / Fig. 6.
        let mut required = 0usize;
        let mut step_loss = 0.0;
        for (d, domain) in engine.chip.domains().iter().enumerate() {
            let demand = domain_demand(domain, &plant.block_powers);
            required += engine.banks[domain.id().0].required_active(demand / vdd);
            let p = demand.get();
            domain_power[d] += p;
            self.pout += p;
            let domain_loss: f64 = domain.vrs().iter().map(|&v| vr_losses[v.0]).sum();
            step_loss += domain_loss;
            self.pin += p + domain_loss;
        }
        self.required_count.push(required as f64);
        self.loss += step_loss;

        // Thermal accounting (silicon + regulator hotspots).
        engine.vr_temperatures_into(state, vr_losses, &mut self.vr_temps_now);
        self.vr_temps.push_column(&self.vr_temps_now)?;
        let vr_max = self.vr_temps_now.iter().copied().fold(f64::MIN, f64::max);
        let t_max = state.max_silicon().get().max(vr_max);
        if t_max > self.max_t {
            self.max_t = t_max;
            self.silicon_at_tmax.copy_from_slice(state.silicon());
        }
        self.max_gradient = self.max_gradient.max(t_max - state.min_silicon().get());
        Ok(())
    }

    /// The run's result, once every step is folded in.
    fn into_result(
        self,
        spec: &WorkloadSpec,
        policy: PolicyKind,
        predictor_r_squared: Option<f64>,
        grid_nx: usize,
    ) -> SimulationResult {
        let steps = self.total_power.len() as f64;
        SimulationResult {
            spec: spec.clone(),
            policy,
            decisions: self.decisions,
            total_power: self.total_power,
            active_count: self.active_count,
            required_count: self.required_count,
            vr_temps: self.vr_temps,
            max_temperature_c: self.max_t,
            max_gradient_c: self.max_gradient,
            mean_efficiency: if self.pin > 0.0 {
                self.pout / self.pin
            } else {
                1.0
            },
            mean_total_vr_loss_w: self.loss / steps,
            window_noise_percent: self.window_noise,
            emergency_cycle_fraction: (self.analyzed_cycles > 0)
                .then(|| self.emergency_cycles as f64 / self.analyzed_cycles as f64),
            heatmap_at_tmax: self
                .silicon_at_tmax
                .chunks(grid_nx)
                .map(<[f64]>::to_vec)
                .collect(),
            worst_window_trace: self.worst_window.map(|(_, trace)| trace),
            predictor_r_squared,
            perf: self.perf,
            solver_profile: self.solver_profile,
        }
    }
}

/// A domain's demand: the sum of its blocks' powers.
fn domain_demand(domain: &VddDomain, block_powers: &[Watts]) -> Watts {
    domain.blocks().iter().map(|&b| block_powers[b.0]).sum()
}

/// A domain's mean activity over its blocks, whose activities are `row`:
/// the input its noise window is drawn at.
fn domain_activity(domain: &VddDomain, row: &[f64]) -> f64 {
    let blocks = domain.blocks();
    blocks.iter().map(|&b| row[b.0]).sum::<f64>() / blocks.len() as f64
}

/// How a run draws its noise windows, one domain at a time: each
/// domain's di/dt severity (indexed by domain, so multiprogrammed mixes
/// give each core domain its own benchmark's di/dt character) and the
/// PDN and regulator parameters of its response.
struct WindowDraw<'e> {
    domains: &'e [VddDomain],
    didt: Vec<f64>,
    pdn: &'e PdnConfig,
    response_time: Seconds,
    frequency: Hertz,
}

impl WindowDraw<'_> {
    /// Advances `rng` past domain `d`'s window without drawing it.
    fn skip(&self, d: usize, rng: &mut DeterministicRng) {
        skip_window(rng, WINDOW_CYCLES, self.didt[d]);
    }

    /// Draws domain `d`'s window at `activity` from `rng` and convolves
    /// it into `response`.
    fn fill(
        &self,
        d: usize,
        activity: f64,
        rng: &mut DeterministicRng,
        response: &mut DidtResponse,
        scratch: &mut FillScratch,
    ) {
        generate_window_into(
            rng,
            WINDOW_CYCLES,
            activity,
            self.didt[d],
            &mut scratch.multipliers,
        );
        response.refill(
            self.pdn,
            self.response_time,
            self.frequency,
            &scratch.multipliers,
            WARMUP_CYCLES,
            &mut scratch.steps,
        );
    }
}

/// A run's noise windows as its decision loop reads them, one interval
/// at a time: each window's response peaks, one per domain, which are
/// all the VT truth check and most measurements read, and one domain's
/// whole response when a measurement needs its cycles.
struct RunWindows<'r, 's> {
    /// Every window's thermal step, in order.
    steps: &'r [usize],
    steps_per_decision: usize,
    /// The current interval's windows: `first..next`.
    first: usize,
    next: usize,
    source: WindowSource<'r, 's>,
}

/// Where a run's noise windows come from.
enum WindowSource<'r, 's> {
    /// The run's window stream, which records their book as the loop
    /// takes them. `held` are the taken windows not yet released, with
    /// their steps, oldest first.
    Stream {
        stream: &'r mut WindowStream<'s>,
        held: Vec<(usize, Vec<DidtResponse>)>,
    },
    /// The book an earlier run of the spec recorded. A domain's response
    /// is drawn again into `response` from its window's booked start, at
    /// its activity in the resampled trace steps `acts`.
    Book {
        book: &'r WindowBook,
        draw: &'r WindowDraw<'r>,
        acts: &'r [Vec<f64>],
        scratch: FillScratch,
        response: DidtResponse,
    },
}

impl<'r, 's> RunWindows<'r, 's> {
    /// The windows of a run in intervals of `steps_per_decision` thermal
    /// steps, taken from `stream`.
    fn streamed(steps_per_decision: usize, stream: &'r mut WindowStream<'s>) -> Self {
        let steps = stream.steps();
        let held = Vec::with_capacity(steps_per_decision.min(steps.len()));
        let source = WindowSource::Stream { stream, held };
        RunWindows {
            steps,
            steps_per_decision,
            first: 0,
            next: 0,
            source,
        }
    }

    /// The windows at `steps` read from `book`, a domain drawn again by
    /// `draw` at its activity in `acts`; the scratch for that is sized
    /// here, once.
    fn booked(
        steps: &'r [usize],
        steps_per_decision: usize,
        book: &'r WindowBook,
        draw: &'r WindowDraw<'r>,
        acts: &'r [Vec<f64>],
    ) -> Self {
        let source = WindowSource::Book {
            book,
            draw,
            acts,
            scratch: FillScratch::default(),
            response: DidtResponse::with_capacity(WINDOW_CYCLES - WARMUP_CYCLES),
        };
        RunWindows {
            steps,
            steps_per_decision,
            first: 0,
            next: 0,
            source,
        }
    }

    /// Moves on to interval `k`'s windows, taking them from the stream.
    ///
    /// # Errors
    ///
    /// The stream's ([`WindowStream::take_interval`]).
    fn take_interval(&mut self, k: usize) -> Result<()> {
        let end = (k + 1) * self.steps_per_decision;
        self.first = self.next;
        while self.steps.get(self.next).is_some_and(|&s| s < end) {
            self.next += 1;
        }
        match &mut self.source {
            WindowSource::Stream { stream, held } => stream.take_interval(k, held),
            WindowSource::Book { .. } => Ok(()),
        }
    }

    /// The current interval's windows.
    fn interval(&self) -> Range<usize> {
        self.first..self.next
    }

    /// Window `w`'s thermal step.
    fn step(&self, w: usize) -> usize {
        self.steps[w]
    }

    /// Window `w`'s response peaks, one per domain.
    fn peaks(&self, w: usize) -> &[f64] {
        match &self.source {
            WindowSource::Stream { stream, .. } => stream.peaks(w),
            WindowSource::Book { book, .. } => book.peaks(w),
        }
    }

    /// Domain `d`'s whole response in window `w` of the current
    /// interval, drawn again when the window is booked.
    fn response(&mut self, w: usize, d: usize) -> &DidtResponse {
        match &mut self.source {
            WindowSource::Stream { held, .. } => &held[w + held.len() - self.next].1[d],
            WindowSource::Book {
                book,
                draw,
                acts,
                scratch,
                response,
            } => {
                let activity = domain_activity(&draw.domains[d], &acts[self.steps[w]]);
                book.redraw(
                    w,
                    d,
                    |before, rng| draw.skip(before, rng),
                    |rng| draw.fill(d, activity, rng, response, scratch),
                );
                response
            }
        }
    }

    /// Releases the oldest window held, once it is measured: the stream
    /// may refill its slot.
    fn release_oldest(&mut self) {
        if let WindowSource::Stream { stream, held } = &mut self.source {
            if !held.is_empty() {
                stream.give_back(held.remove(0).1);
            }
        }
    }
}

impl<'c> SimulationEngine<'c> {
    /// Builds the engine: calibrates the power model, discretises the
    /// thermal and PDN networks.
    ///
    /// # Panics
    ///
    /// Panics when [`EngineConfig::validate`] rejects the configuration:
    /// an empty thermal grid, a thermal step that does not divide the
    /// decision interval, a duration that is not finite, is shorter
    /// than one decision interval or has more thermal steps than a
    /// `usize` counts, more noise windows than thermal steps, or a
    /// thermal step that is not a whole number of synthetic trace
    /// samples.
    pub fn new(chip: &'c Floorplan, config: EngineConfig) -> Self {
        let (spd, n_decisions) = config.step_counts().unwrap_or_else(|e| panic!("{e}"));

        let power = PowerModel::calibrated(chip, config.tech.clone());
        // The engine-level solver choice wins over whatever the thermal /
        // PDN sub-configurations carry, so `EngineConfig::solver` (and
        // `SIMKIT_SOLVER`) steers every linear solve of the run.
        let mut thermal_config = config.thermal.clone();
        thermal_config.solver = config.solver;
        let thermal = ThermalModel::new(chip, thermal_config);
        let mut pdn_config = config.pdn.clone();
        pdn_config.solver = config.solver;
        let pdn = PdnModel::new(chip, pdn_config);
        let banks = chip
            .domains()
            .iter()
            .map(|d| RegulatorBank::new(config.design.clone(), d.vr_count()))
            .collect();
        let analyzer = NoiseAnalyzer::new(config.tech.frequency, config.design.response_time());
        SimulationEngine {
            chip,
            config,
            power,
            thermal,
            pdn,
            banks,
            analyzer,
            telemetry: Telemetry::disabled(),
            steps_per_decision: spd,
            n_decisions,
            memo: Mutex::default(),
        }
    }

    /// Installs a telemetry handle for this engine and cascades it into
    /// the thermal model and noise analyzer, so one sink receives the
    /// whole stack's events (engine spans/decisions, thermal solves and
    /// hotspot gauges, PDN IR solves and noise gauges). Must be called
    /// before [`SimulationEngine::run`]; runs started earlier keep the
    /// previous handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.thermal.set_telemetry(telemetry.clone());
        self.analyzer.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The telemetry handle events are emitted through (disabled by
    /// default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The chip this engine simulates.
    pub fn chip(&self) -> &Floorplan {
        self.chip
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Per-domain regulator banks.
    pub fn banks(&self) -> &[RegulatorBank] {
        &self.banks
    }

    /// Decisions the θ profiling pass simulates.
    fn profiling_decisions(&self) -> usize {
        self.config.profiling_decisions.max(3)
    }

    /// Decisions one run's trace covers: the run itself or the θ
    /// profiling pass on its leading decisions, whichever is longer.
    fn trace_decisions(&self) -> usize {
        self.n_decisions.max(self.profiling_decisions())
    }

    /// Length of the activity trace one run replays.
    /// [`SimulationEngine::run_spec`] generates a synthetic trace this
    /// long, so a trace of this length written out and handed back to
    /// [`SimulationEngine::run_trace`] reproduces the synthetic run,
    /// θ included; a shorter one clamps the profiling pass.
    pub fn trace_duration(&self) -> Seconds {
        self.config.decision_interval * self.trace_decisions() as f64
    }

    // ------------------------------------------------------------------
    // Trace preparation
    // ------------------------------------------------------------------

    /// An empty [`StepMeans`] for the first `n_decisions` decisions'
    /// thermal steps of a trace sampled every `dt`; fails when a thermal
    /// step is not a whole number of its samples.
    fn step_means(&self, dt: Seconds, n_decisions: usize) -> Result<StepMeans> {
        StepMeans::new(
            self.chip.blocks().len(),
            samples_per_step(self.config.thermal_step, dt)?,
            n_decisions * self.steps_per_decision,
        )
    }

    /// The per-thermal-step block activities of `spec`'s synthetic trace
    /// over its first `n_decisions` decisions, streamed from the
    /// generator so the 1 µs trace is never held, and its
    /// `workload.trace` event. `step_closed(i, row)` sees each step as
    /// the generator completes it.
    fn synthetic_steps(
        &self,
        spec: &WorkloadSpec,
        n_decisions: usize,
        step_closed: impl FnMut(usize, &[f64]),
    ) -> Result<Vec<Vec<f64>>> {
        let dt = workload::trace::DEFAULT_DT;
        let mut means = self.step_means(dt, n_decisions)?;
        let duration = self.config.decision_interval * n_decisions as f64;
        TraceGenerator::new(self.chip).generate_into(spec, duration, &mut means, step_closed)?;
        means.emit_telemetry(&self.telemetry, spec);
        means.finish()
    }

    /// Per-block powers for one step's activities at the given state's
    /// temperatures.
    fn block_powers(&self, activities: &[f64], state: &ThermalState) -> Vec<Watts> {
        let mut out = Vec::with_capacity(self.chip.blocks().len());
        self.block_powers_into(activities, state, &mut out);
        out
    }

    /// [`Self::block_powers`] into a caller-owned buffer.
    fn block_powers_into(&self, activities: &[f64], state: &ThermalState, out: &mut Vec<Watts>) {
        out.clear();
        out.extend(self.chip.blocks().iter().map(|b| {
            let t = state.block_temperature(&self.thermal, b.id());
            self.power.block_power(b.id(), activities[b.id().0], t)
        }));
    }

    /// Per-domain demand currents implied by block powers.
    fn domain_currents(&self, block_powers: &[Watts]) -> Vec<f64> {
        let vdd = self.config.tech.vdd;
        self.chip
            .domains()
            .iter()
            .map(|d| (domain_demand(d, block_powers) / vdd).get())
            .collect()
    }

    /// Mean per-block activity over a span of steps.
    fn mean_activities(acts: &[Vec<f64>], lo: usize, hi: usize) -> Vec<f64> {
        let span = &acts[lo..hi];
        let n_blocks = span[0].len();
        let mut out = vec![0.0; n_blocks];
        for col in span {
            for (o, &a) in out.iter_mut().zip(col) {
                *o += a;
            }
        }
        for o in &mut out {
            *o /= span.len() as f64;
        }
        out
    }

    /// True regulator temperatures (cell + self-heating) for the current
    /// state and per-VR losses.
    fn vr_temperatures(&self, state: &ThermalState, vr_losses: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(vr_losses.len());
        self.vr_temperatures_into(state, vr_losses, &mut out);
        out
    }

    /// [`Self::vr_temperatures`] into a caller-owned buffer.
    fn vr_temperatures_into(&self, state: &ThermalState, vr_losses: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.chip.vr_sites().iter().map(|site| {
            state
                .vr_temperature(&self.thermal, site.id(), Watts::new(vr_losses[site.id().0]))
                .get()
        }));
    }

    /// Per-VR conversion losses under `gating` into `vr_losses` — each
    /// domain's demand split over its active regulators; a domain with
    /// none on (the off-chip baseline) dissipates nothing on die — and
    /// the heat they inject together with the block powers into `pm`.
    fn inject_heat(
        &self,
        block_powers: &[Watts],
        gating: &GatingState,
        vr_losses: &mut [f64],
        pm: &mut PowerMap<'_>,
    ) -> Result<()> {
        let vdd = self.config.tech.vdd;
        pm.clear();
        for b in self.chip.blocks() {
            pm.add_block(b.id(), block_powers[b.id().0])?;
        }
        vr_losses.fill(0.0);
        for domain in self.chip.domains() {
            let active = gating.active_among(domain.vrs());
            if active == 0 {
                continue;
            }
            let demand = domain_demand(domain, block_powers);
            let loss = self.banks[domain.id().0].per_regulator_loss(demand / vdd, active, vdd)?;
            for &v in domain.vrs().iter().filter(|&&v| gating.is_on(v)) {
                vr_losses[v.0] = loss.get();
                pm.add_vr(v, loss)?;
            }
        }
        Ok(())
    }

    /// Initial thermal state: leakage-feedback steady state at the first
    /// interval's mean activity, regulators `all-on` (the pre-ROI
    /// condition; all-off without on-chip regulation). Also returns the
    /// feedback loop's convergence statistics for the run's solver
    /// profile.
    fn initial_state(
        &self,
        acts: &[Vec<f64>],
        with_vr_loss: bool,
    ) -> Result<(ThermalState, FeedbackStats)> {
        let mean_acts = Self::mean_activities(acts, 0, self.steps_per_decision.min(acts.len()));
        let n_vrs = self.chip.vr_sites().len();
        let gating = if with_vr_loss {
            GatingState::all_on(n_vrs)
        } else {
            GatingState::all_off(n_vrs)
        };
        let mut vr_losses = vec![0.0; n_vrs];
        self.thermal.steady_state_with_feedback(60, 0.05, |state| {
            let block_powers = self.block_powers(&mean_acts, state);
            let mut pm = PowerMap::new(&self.thermal);
            self.inject_heat(&block_powers, &gating, &mut vr_losses, &mut pm)?;
            Ok(pm)
        })
    }

    /// A plant at `state`, before any conversion loss.
    fn plant(&self, state: ThermalState) -> Plant<'_> {
        Plant {
            state,
            stepper: self.thermal.stepper(self.config.thermal_step),
            power: PowerMap::new(&self.thermal),
            block_powers: Vec::new(),
            vr_losses: vec![0.0; self.chip.vr_sites().len()],
        }
    }

    /// Advances `plant` one thermal step at `activities` under `gating`
    /// (the thermally-aware policies hold their selected set for a full
    /// 1 ms decision interval — Section 6.2).
    fn step(
        &self,
        plant: &mut Plant<'_>,
        activities: &[f64],
        gating: &GatingState,
    ) -> Result<SolveStats> {
        self.block_powers_into(activities, &plant.state, &mut plant.block_powers);
        self.inject_heat(
            &plant.block_powers,
            gating,
            &mut plant.vr_losses,
            &mut plant.power,
        )?;
        plant.stepper.step(&mut plant.state, &plant.power)
    }

    // ------------------------------------------------------------------
    // θ calibration (profiling pass)
    // ------------------------------------------------------------------

    /// Runs the paper's profiling pass: a short simulation with rotating
    /// gating that exercises regulator on/off transitions, fitting the
    /// per-regulator θ of Eqn. 2 and reporting the in-sample R² of
    /// Eqn. 3.
    ///
    /// # Errors
    ///
    /// Propagates solver failures and degenerate-statistics errors.
    pub fn calibrate_predictor(&self, benchmark: Benchmark) -> Result<(ThermalPredictor, f64)> {
        self.calibrate_predictor_spec(&WorkloadSpec::Single(benchmark))
    }

    /// [`SimulationEngine::calibrate_predictor`] for an arbitrary
    /// workload spec (single benchmark or multiprogrammed mix), on a
    /// trace as long as the profiling pass, streamed into its step means
    /// as [`SimulationEngine::run_spec`] streams its trace. Always runs
    /// the pass: it neither reads nor replaces the fit runs reuse.
    ///
    /// # Errors
    ///
    /// Propagates solver failures and degenerate-statistics errors.
    pub fn calibrate_predictor_spec(&self, spec: &WorkloadSpec) -> Result<(ThermalPredictor, f64)> {
        let n_dec = self.profiling_decisions();
        self.calibrate_on(&self.synthetic_steps(spec, n_dec, |_, _| ())?, n_dec)
    }

    /// The profiling pass over the first `n_dec` decisions of prepared
    /// step activities.
    fn calibrate_on(&self, acts: &[Vec<f64>], n_dec: usize) -> Result<(ThermalPredictor, f64)> {
        let spd = self.steps_per_decision;
        let (state, _feedback) = self.initial_state(acts, true)?;
        let mut plant = self.plant(state);
        let n_vrs = self.chip.vr_sites().len();
        let mut samples: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_vrs];
        let mut prev_mean_loss = vec![0.0f64; n_vrs];
        for k in 0..n_dec {
            let interval = &acts[k * spd..(k + 1) * spd];
            // Rotating active sets: shift the window by 2 slots per
            // decision so every VR sees on→off and off→on transitions.
            let block_powers = self.block_powers(&interval[0], &plant.state);
            let currents = self.domain_currents(&block_powers);
            let mut gating = GatingState::all_off(n_vrs);
            for domain in self.chip.domains() {
                let bank = &self.banks[domain.id().0];
                let n_on = bank.required_active(Amps::new(currents[domain.id().0]));
                let vrs = domain.vrs();
                for i in 0..n_on.min(vrs.len()) {
                    let idx = (i + 2 * k) % vrs.len();
                    gating.set(vrs[idx], true)?;
                }
            }

            let t_start = self.vr_temperatures(&plant.state, &plant.vr_losses);
            let mut loss_acc = vec![0.0f64; n_vrs];
            for act in interval {
                self.step(&mut plant, act, &gating)?;
                for (acc, &l) in loss_acc.iter_mut().zip(&plant.vr_losses) {
                    *acc += l;
                }
            }
            let mean_loss: Vec<f64> = loss_acc.iter().map(|&l| l / spd as f64).collect();
            let t_end = self.vr_temperatures(&plant.state, &plant.vr_losses);
            if k > 0 {
                for v in 0..n_vrs {
                    let dp = mean_loss[v] - prev_mean_loss[v];
                    let dt = t_end[v] - t_start[v];
                    samples[v].push((dp, dt));
                }
            }
            prev_mean_loss = mean_loss;
        }

        let predictor = ThermalPredictor::calibrate(&samples)?;
        let r2 = predictor.r_squared(&samples)?;
        Ok((predictor, r2))
    }

    /// The engine's memo. No update of it panics midway, so a poisoned
    /// lock still guards a valid memo.
    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value `read` finds in the memo, or else `make`'s, which
    /// `write` stores; the counter `reused` records which. The lock is
    /// not held while `make` runs, so runs sharing an engine never wait
    /// on one another.
    fn memoised<T: Clone>(
        &self,
        reused: &'static str,
        read: impl FnOnce(&mut Memo) -> Option<T>,
        make: impl FnOnce() -> Result<T>,
        write: impl FnOnce(&mut Memo, T),
    ) -> Result<T> {
        let hit = read(&mut self.memo());
        self.telemetry.counter(reused, u64::from(hit.is_some()));
        if let Some(value) = hit {
            return Ok(value);
        }
        let value = make()?;
        write(&mut self.memo(), value.clone());
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Main run
    // ------------------------------------------------------------------

    /// Runs one benchmark under one policy and returns every metric the
    /// paper reports.
    ///
    /// # Errors
    ///
    /// Propagates solver and calibration failures; physical
    /// configurations complete.
    pub fn run(&self, benchmark: Benchmark, policy: PolicyKind) -> Result<SimulationResult> {
        self.run_spec(&WorkloadSpec::Single(benchmark), policy)
    }

    /// [`SimulationEngine::run`] for an arbitrary workload spec —
    /// Section 7's multiprogramming support: each core may run its own
    /// benchmark, and ThermoGater governs every Vdd-domain independently.
    /// Streams one synthetic trace covering both the run and the θ
    /// profiling pass from the generator into its per-thermal-step means
    /// ([`TraceGenerator::generate_into`]), never holding the 1 µs
    /// trace, and replays them as [`SimulationEngine::run_trace`] does;
    /// the means are bit-identical to those of the held trace. A run of
    /// the same spec as the engine's last synthetic run replays that
    /// run's steps without generating the trace again; one of a spec the
    /// engine keeps takes its θ without profiling again, and its noise
    /// windows' book without drawing them again (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates solver and calibration failures.
    pub fn run_spec(&self, spec: &WorkloadSpec, policy: PolicyKind) -> Result<SimulationResult> {
        let (steps, draw) = (self.window_steps(policy), self.window_draw(spec));
        let booked = if steps.is_empty() {
            Some(Arc::default())
        } else {
            let book = self.memo().spec(spec).and_then(|m| m.windows.clone());
            self.telemetry
                .counter("engine.windows_reused", u64::from(book.is_some()));
            book
        };
        if let Some(book) = booked {
            let mut perf = PhaseTimes::new();
            let acts = self.synthetic_trace(spec, &mut perf, |_, _| ())?;
            let windows = RunWindows::booked(&steps, self.steps_per_decision, &book, &draw, &acts);
            return self.run_decisions(policy, spec, true, &acts, perf, windows);
        }
        let (result, book) = self.with_noise_windows(spec, &steps, &draw, |stream| {
            let mut perf = PhaseTimes::new();
            let acts = self.synthetic_trace(spec, &mut perf, |step, row| {
                self.publish_window(stream, step, row);
            })?;
            let result = self.run_streamed(policy, spec, true, &acts, perf, stream)?;
            Ok((result, stream.take_book()))
        })?;
        if let Some(book) = book {
            self.memo().spec_or_insert(spec).windows = Some(Arc::new(book));
        }
        Ok(result)
    }

    /// `spec`'s synthetic steps over [`Self::trace_decisions`] (the
    /// memo's, when it holds them), timed as the `trace` phase into
    /// `perf`; `step_closed(i, row)` sees each step as a generated trace
    /// closes it.
    fn synthetic_trace(
        &self,
        spec: &WorkloadSpec,
        perf: &mut PhaseTimes,
        step_closed: impl FnMut(usize, &[f64]),
    ) -> Result<Arc<Vec<Vec<f64>>>> {
        PhaseTimes::timed(perf, &self.telemetry, "trace", "engine.trace", |_| {
            self.memoised(
                "engine.trace_reused",
                |m| match m.trace.take() {
                    Some((key, acts)) if key == *spec => {
                        m.trace = Some((key, Arc::clone(&acts)));
                        Some(acts)
                    }
                    // A stale trace goes before the new one is made.
                    _ => None,
                },
                || {
                    let n_dec = self.trace_decisions();
                    Ok(Arc::new(self.synthetic_steps(spec, n_dec, step_closed)?))
                },
                |m, acts| m.trace = Some((spec.clone(), acts)),
            )
        })
    }

    /// Runs the governor against an externally supplied activity trace
    /// (e.g. replayed from `workload::replay::read_csv`) instead of the
    /// synthetic suite. The trace must carry one channel per floorplan
    /// block; its columns are folded into per-thermal-step means
    /// ([`StepMeans`]) and its final sample held if it ends before the
    /// configured duration or the θ profiling pass, which runs on the
    /// trace's leading decisions.
    /// It neither reads nor replaces the trace, θ and windows synthetic
    /// runs reuse: it draws its windows.
    ///
    /// # Errors
    ///
    /// * [`simkit::Error::DimensionMismatch`] when the trace's channel
    ///   count differs from the chip's block count;
    /// * [`Error::InvalidArgument`] when the thermal step is not a whole
    ///   number of the trace's samples;
    /// * solver and calibration failures are propagated.
    pub fn run_trace(&self, trace: &ActivityTrace, policy: PolicyKind) -> Result<SimulationResult> {
        let spec = trace.spec();
        let (steps, draw) = (self.window_steps(policy), self.window_draw(spec));
        self.with_noise_windows(spec, &steps, &draw, |stream| {
            let mut perf = PhaseTimes::new();
            let acts =
                PhaseTimes::timed(&mut perf, &self.telemetry, "trace", "engine.trace", |_| {
                    let mut means = self.step_means(trace.dt(), self.trace_decisions())?;
                    means.push_trace(trace)?;
                    trace.emit_telemetry(&self.telemetry);
                    means.finish()
                })?;
            self.run_streamed(policy, spec, false, &acts, perf, stream)
        })
    }

    /// The thermal steps of the noise windows a run under `policy`
    /// analyses: `noise_window_count` windows evenly spread over the
    /// run, none for the off-chip policy.
    fn window_steps(&self, policy: PolicyKind) -> Vec<usize> {
        let run_steps = self.n_decisions * self.steps_per_decision;
        let n_windows = match policy {
            PolicyKind::OffChip => 0,
            _ => self.config.noise_window_count,
        };
        (0..n_windows)
            .map(|w| ((w as f64 + 0.5) / n_windows as f64 * run_steps as f64) as usize)
            .collect()
    }

    /// How `spec`'s noise windows are drawn, one domain at a time.
    fn window_draw(&self, spec: &WorkloadSpec) -> WindowDraw<'_> {
        WindowDraw {
            domains: self.chip.domains(),
            didt: self.domain_didt(spec),
            pdn: self.pdn.config(),
            response_time: self.analyzer.response_time(),
            frequency: self.analyzer.frequency(),
        }
    }

    /// Runs `run` against a stream of the noise windows at `steps` of a
    /// run of `spec`. Each window is one cycle window per domain, drawn
    /// by `draw` from the run's one noise RNG at the domain's mean
    /// activity in the window's step and reduced to its di/dt responses.
    /// The stream's producer thread starts planning the windows at once,
    /// so the plan is laid while `run` builds the trace, and a window can
    /// be filled as soon as `run` publishes its activities
    /// ([`Self::publish_window`]).
    fn with_noise_windows<R>(
        &self,
        spec: &WorkloadSpec,
        steps: &[usize],
        draw: &WindowDraw<'_>,
        run: impl FnOnce(&mut WindowStream<'_>) -> Result<R>,
    ) -> Result<R> {
        let rng = DeterministicRng::new(self.config.seed ^ spec.seed() ^ 0x4E01);
        let domains = draw.domains.len();
        let skip = |rng: &mut DeterministicRng| {
            for d in 0..domains {
                draw.skip(d, rng);
            }
        };
        let fill = |activities: &[f64],
                    rng: &mut DeterministicRng,
                    slot: &mut [DidtResponse],
                    scratch: &mut FillScratch| {
            for (d, (response, &activity)) in slot.iter_mut().zip(activities).enumerate() {
                draw.fill(d, activity, rng, response, scratch);
            }
        };
        with_window_stream(
            steps,
            self.steps_per_decision,
            domains,
            rng,
            skip,
            &fill,
            run,
        )
    }

    /// Publishes to `windows` the inputs of the window at thermal step
    /// `step`, if it is the next one, whose per-block activities are
    /// `row`: every domain's mean activity. Windows fall on distinct
    /// steps (`EngineConfig::validate`).
    fn publish_window(&self, windows: &mut WindowStream<'_>, step: usize, row: &[f64]) {
        if windows.next_unpublished() == Some(step) {
            windows.publish(|activities| {
                for (activity, domain) in activities.iter_mut().zip(self.chip.domains()) {
                    *activity = domain_activity(domain, row);
                }
            });
        }
    }

    /// The run against a window stream after the `trace` phase (timed
    /// into `perf`): publish the noise windows the trace phase did not
    /// from the resampled trace steps `acts`, and run
    /// [`Self::run_decisions`] against the `stream`.
    fn run_streamed(
        &self,
        policy: PolicyKind,
        spec: &WorkloadSpec,
        synthetic: bool,
        acts: &[Vec<f64>],
        perf: PhaseTimes,
        stream: &mut WindowStream<'_>,
    ) -> Result<SimulationResult> {
        while let Some(step) = stream.next_unpublished() {
            let Some(row) = acts.get(step) else {
                break;
            };
            self.publish_window(stream, step, row);
        }
        let windows = RunWindows::streamed(self.steps_per_decision, stream);
        self.run_decisions(policy, spec, synthetic, acts, perf, windows)
    }

    /// The run after its trace phase: drop the PDN's IR warm starts,
    /// profile θ on the leading decisions of `acts` (or, for `synthetic`
    /// steps, reuse the engine's fit for `spec`), settle the initial
    /// steady state, then alternate [`Self::decide`] and a simulated
    /// interval, taking each interval's noise `windows` before its
    /// decision and releasing each once it is measured.
    fn run_decisions(
        &self,
        policy: PolicyKind,
        spec: &WorkloadSpec,
        synthetic: bool,
        acts: &[Vec<f64>],
        mut perf: PhaseTimes,
        mut windows: RunWindows<'_, '_>,
    ) -> Result<SimulationResult> {
        // The memo replays only what a run would recompute bit for bit,
        // the solvers are pure functions of the configuration and the
        // key, and without its warm starts a CG IR solve is too: a run
        // does not depend on the runs this engine made before.
        self.pdn.forget_warm_starts();
        let (cfg, tel) = (&self.config, &self.telemetry);
        let spd = self.steps_per_decision;
        let n_prof = self.profiling_decisions();
        // Practical policies get the profiled θ; thermal oracles drive
        // the same linear model with perfect inputs.
        let calibration = if policy.needs_predictor() {
            let fit = || self.calibrate_on(&acts[..n_prof * spd], n_prof);
            Some(PhaseTimes::timed(
                &mut perf,
                tel,
                "calibrate",
                "engine.calibrate",
                |_| {
                    if synthetic {
                        self.memoised(
                            "engine.calibrate_reused",
                            |m| m.spec(spec)?.theta.clone(),
                            fit,
                            |m, theta| m.spec_or_insert(spec).theta = Some(theta),
                        )
                    } else {
                        fit()
                    }
                },
            )?)
        } else {
            None
        };
        let (predictor, r_squared) = calibration.unzip();
        let acts = &acts[..self.n_decisions * spd];

        let run_span = tel.span("engine.run");
        let (state, steady) = PhaseTimes::timed(&mut perf, tel, "steady", "engine.steady", |_| {
            self.initial_state(acts, policy != PolicyKind::OffChip)
        })?;
        let mut metrics = RunMetrics::new(self, &state, &steady, perf);
        let mut plant = self.plant(state);
        let n_vrs = self.chip.vr_sites().len();
        let n_domains = self.chip.domains().len();
        let mut gov = Governor {
            policy,
            predictor,
            sensors: ThermalSensorArray::new(n_vrs, SENSOR_LATENCY, cfg.thermal_step),
            forecaster: DomainPowerForecaster::new(n_domains),
            emergency_predictor: EmergencyPredictor::new(
                EMERGENCY_PREDICTOR_ACCURACY,
                cfg.seed ^ spec.seed(),
            ),
        };
        gov.sensors
            .record(&self.vr_temperatures(&plant.state, &plant.vr_losses));

        // Spatial frame capture: only built when telemetry is live AND
        // frames were requested, so the disabled path costs one branch.
        let mut frame_recorder = (tel.is_enabled() && cfg.frame_every > 0).then(|| {
            let (every, step) = (cfg.frame_every, cfg.thermal_step);
            crate::FrameRecorder::new(tel.clone(), every, FRAME_GRID, step)
        });
        // Per-domain supply lanes: Vdd scaled by the most recent
        // measured droop fraction, held between noise windows.
        let mut lanes = vec![cfg.tech.vdd.get(); n_domains];

        for k in 0..self.n_decisions {
            let step0 = k * spd;
            // The interval's measurement windows, taken before the
            // decision so that (a) the window stream is identical across
            // policies (one benchmark = one set of sampled windows, as in
            // the paper's methodology) and (b) the VT policies' oracle
            // judges the *same* windows that will be measured. Each is
            // reduced to its gating-independent di/dt responses, by the
            // producer or, when it is behind, here; waiting for it or
            // filling here counts as noise time. A booked window is
            // already reduced to its peaks.
            PhaseTimes::timed(&mut metrics, tel, "noise", "engine.noise.wait", |_| {
                windows.take_interval(k)
            })?;
            let decision = PhaseTimes::timed(&mut metrics, tel, "policy", "engine.policy", |m| {
                let decision = self.decide(&mut gov, k, acts, &plant, &windows, m)?;
                self.record_decision(k, &decision, policy, m)?;
                Ok::<_, Error>(decision)
            })?;
            let domain_power =
                PhaseTimes::timed(&mut metrics, tel, "transient", "engine.transient", |m| {
                    let mut domain_power = vec![0.0f64; n_domains];
                    // `EngineConfig::validate` allows at most one window per step.
                    let mut pending = windows.interval().peekable();
                    for (s, act) in acts.iter().enumerate().skip(step0).take(spd) {
                        let solve = self.step(&mut plant, act, &decision.gating)?;
                        m.observe_step(self, &plant, &decision.gating, solve, &mut domain_power)?;
                        gov.sensors.record(&m.vr_temps_now);
                        if let Some(w) = pending.next_if(|&w| windows.step(w) == s) {
                            PhaseTimes::timed(m, tel, "noise", "engine.noise.measure", |m| {
                                let window = (&mut windows, w);
                                self.measure_window(
                                    &plant, &decision, window, policy, &mut lanes, m,
                                )
                            })?;
                            windows.release_oldest();
                        }
                        if let Some(recorder) = frame_recorder.as_mut() {
                            recorder.observe(s, &plant.state, &decision.gating, &lanes);
                        }
                    }
                    Ok::<_, Error>(domain_power)
                })?;
            PhaseTimes::timed(&mut metrics, tel, "policy", "engine.policy", |_| {
                let interval_power: Vec<Watts> = domain_power
                    .iter()
                    .map(|&p| Watts::new(p / spd as f64))
                    .collect();
                if tel.is_enabled() {
                    // Demand-forecast error: what the policy believed each
                    // domain would draw versus what the interval delivered.
                    for (forecast, actual) in decision.forecast.iter().zip(&interval_power) {
                        let error = (forecast.get() - actual.get()).abs();
                        tel.histogram("engine.forecast_error_w", error);
                    }
                }
                gov.forecaster.observe(&interval_power);
            });
        }

        if let Some(recorder) = frame_recorder {
            recorder.finish();
        }
        run_span.finish();
        Ok(metrics.into_result(spec, policy, r_squared, self.thermal.grid_size().0))
    }

    /// One decision (Section 6.2): size each domain's `n_on` from its
    /// demand (the forecast for practical policies, the true next
    /// interval for oracles, the present otherwise), rank the
    /// regulators, gate, and — for the VT policies — check the planned
    /// gating against this interval's measurement `windows`, switching a
    /// domain with a (predicted) emergency all-on. The truth check's
    /// solves go to `metrics`, and its time to the `noise` phase.
    fn decide(
        &self,
        gov: &mut Governor,
        k: usize,
        acts: &[Vec<f64>],
        plant: &Plant<'_>,
        windows: &RunWindows<'_, '_>,
        metrics: &mut RunMetrics,
    ) -> Result<Decision> {
        let policy = gov.policy;
        let (state, vr_losses) = (&plant.state, &plant.vr_losses);
        let vdd = self.config.tech.vdd;
        let n_vrs = self.chip.vr_sites().len();
        let n_domains = self.chip.domains().len();
        let step0 = k * self.steps_per_decision;

        // --- Demand views ---------------------------------------------
        let currents_now = self.domain_currents(&self.block_powers(&acts[step0], state));
        let next_mean_acts = Self::mean_activities(acts, step0, step0 + self.steps_per_decision);
        let block_powers_next = self.block_powers(&next_mean_acts, state);
        let currents_next = self.domain_currents(&block_powers_next);
        let forecast: Vec<Watts> = if policy.is_practical() {
            let fallback = |d: usize| Watts::new(currents_now[d] * vdd.get());
            (0..n_domains)
                .map(|d| gov.forecaster.forecast(d, fallback(d)))
                .collect()
        } else {
            Vec::new()
        };
        let demand: Vec<f64> = if policy.is_practical() {
            forecast.iter().map(|&w| (w / vdd).get()).collect()
        } else if policy.is_oracular() {
            currents_next
        } else {
            currents_now
        };
        let n_on: Vec<usize> = self
            .banks
            .iter()
            .zip(&demand)
            .map(|(bank, &i)| bank.required_active(Amps::new(i)))
            .collect();

        // --- Ranking inputs -------------------------------------------
        // The thermally-aware policies rank by the temperature each
        // regulator would assume under the demand: oracles from the true
        // temperatures, practical policies from the delayed sensors.
        let true_temps = self.vr_temperatures(state, vr_losses);
        let vr_temp_rank = match &gov.predictor {
            Some(p) => {
                let base = if policy.is_practical() {
                    gov.sensors.read()
                } else {
                    true_temps
                };
                self.anticipated_temps(&base, p, &demand, &n_on, vr_losses)
            }
            None => true_temps,
        };
        let mut vr_noise_score = vec![0.0; n_vrs];
        if policy.uses_noise_ranking() {
            for d in self.chip.domains() {
                for (v, s) in self.pdn.vr_load_proximity(d.id(), &block_powers_next) {
                    vr_noise_score[v.0] = s;
                }
            }
        }

        // --- Rank and gate --------------------------------------------
        let no_emergency = vec![false; n_domains];
        let inputs = PolicyInputs {
            chip: self.chip,
            n_on: &n_on,
            vr_temp_rank: &vr_temp_rank,
            vr_noise_score: &vr_noise_score,
            emergency: &no_emergency,
        };
        let rankings = rank_regulators(policy, &inputs)?;
        let mut gating = gating_from_rankings(policy, self.chip, &rankings, &n_on, &no_emergency)?;
        let mut emergency = no_emergency;
        if policy.reacts_to_emergencies() && !windows.interval().is_empty() {
            // Ground truth: would the planned gating put any domain over
            // the emergency threshold during this interval's windows?
            let tel = &self.telemetry;
            let truth = PhaseTimes::timed(metrics, tel, "noise", "engine.noise.truth", |m| {
                let threshold = EmergencyDetector::new().threshold_fraction();
                let mut truth = vec![false; n_domains];
                for w in windows.interval() {
                    let report = self.analyzer.analyze_responses(
                        self.chip,
                        &self.pdn,
                        &gating,
                        &block_powers_next,
                        windows.peaks(w),
                    )?;
                    m.solver_profile
                        .merge_agg("noise", &report.ir_solve_stats());
                    for (d, flag) in truth.iter_mut().enumerate() {
                        *flag |= report.domain_fraction(DomainId(d)) > threshold;
                    }
                }
                Ok::<_, Error>(truth)
            })?;
            let truth_count = truth.iter().filter(|&&t| t).count();
            let flags: Vec<bool> = if policy.is_oracular() {
                truth.clone()
            } else {
                truth
                    .iter()
                    .map(|&t| gov.emergency_predictor.predict(t))
                    .collect()
            };
            let mispredicted = truth.iter().zip(&flags).filter(|(t, f)| t != f).count();
            let flagged = flags.iter().filter(|&&e| e).count();
            if flagged > 0 {
                gating = gating_from_rankings(policy, self.chip, &rankings, &n_on, &flags)?;
            }
            if self.telemetry.is_enabled() {
                self.telemetry
                    .event(EventKind::Emergency, "engine.emergency_check")
                    .field_u64("decision", k as u64)
                    .field_u64("windows", windows.interval().len() as u64)
                    .field_u64("true_domains", truth_count as u64)
                    .field_u64("flagged_domains", flagged as u64)
                    .field_u64("mispredicted", mispredicted as u64)
                    .field_bool("predicted", !policy.is_oracular())
                    .emit();
                if mispredicted > 0 {
                    self.telemetry
                        .counter("engine.emergency_mispredict", mispredicted as u64);
                }
            }
            emergency = flags;
        }
        Ok(Decision {
            gating,
            n_on,
            emergency,
            forecast,
        })
    }

    /// Appends `decision` to the run's records, emitting its gating
    /// event, counters and progress heartbeat.
    fn record_decision(
        &self,
        k: usize,
        decision: &Decision,
        policy: PolicyKind,
        metrics: &mut RunMetrics,
    ) -> Result<()> {
        let gating = &decision.gating;
        if self.telemetry.is_enabled() {
            // Active-VR set change versus the previous decision (the
            // pre-ROI baseline for the first one: all-on, or all-off
            // under the off-chip policy).
            let (turned_on, turned_off) = match metrics.decisions.last() {
                Some(prev) => gating.diff_counts(&prev.gating)?,
                None if policy == PolicyKind::OffChip => {
                    gating.diff_counts(&GatingState::all_off(gating.len()))?
                }
                None => gating.diff_counts(&GatingState::all_on(gating.len()))?,
            };
            self.telemetry
                .event(EventKind::Gating, "engine.gating")
                .field_u64("decision", k as u64)
                .field_u64("active", gating.active_count() as u64)
                .field_u64("turned_on", turned_on as u64)
                .field_u64("turned_off", turned_off as u64)
                .emit();
            self.telemetry.counter("engine.decisions", 1);
            self.telemetry
                .counter("engine.steps", self.steps_per_decision as u64);
            // Progress heartbeat: lets a live watcher (`tg-obs watch`)
            // see how far along the run is. Every field is a pure
            // function of the decision index, so heartbeats never perturb
            // cross-run trace determinism.
            self.telemetry
                .event(EventKind::Progress, "engine.heartbeat")
                .field_u64("decision", k as u64)
                .field_u64("decisions", self.n_decisions as u64)
                .field_u64("steps_done", ((k + 1) * self.steps_per_decision) as u64)
                .field_f64("frac", (k + 1) as f64 / self.n_decisions as f64)
                .emit();
        }
        metrics.decisions.push(DecisionRecord {
            time_s: k as f64 * self.config.decision_interval.get(),
            gating: gating.clone(),
            n_on: decision.n_on.clone(),
        });
        Ok(())
    }

    /// Measures noise window `w` of `windows` at the step `plant` just
    /// took under `decision`: per-domain droop fractions (the VT
    /// policies' on-line detector clips a droop the predictor missed
    /// shortly past the threshold), the supply lanes, emergency residency
    /// (Table 2) and the worst window's per-cycle trace (Fig. 14).
    fn measure_window(
        &self,
        plant: &Plant<'_>,
        decision: &Decision,
        (windows, w): (&mut RunWindows<'_, '_>, usize),
        policy: PolicyKind,
        lanes: &mut [f64],
        metrics: &mut RunMetrics,
    ) -> Result<()> {
        let report = self.analyzer.analyze_responses(
            self.chip,
            &self.pdn,
            &decision.gating,
            &plant.block_powers,
            windows.peaks(w),
        )?;
        metrics
            .solver_profile
            .merge_agg("noise", &report.ir_solve_stats());
        let threshold = EmergencyDetector::new().threshold_fraction();
        let mut fractions = Vec::with_capacity(lanes.len());
        let mut window_emergency_cycles = 0usize;
        for (d, lane) in lanes.iter_mut().enumerate() {
            let id = DomainId(d);
            let mut fraction = report.domain_fraction(id);
            // The report carries the static IR component and the
            // transient scale, so neither a second grid solve nor a
            // second convolution. A cycle's noise `scale · c + ir` grows
            // with its magnitude `c`, and `fraction` is that of the peak,
            // so no cycle is over the threshold unless `fraction` is: only
            // then are the domain's cycles read.
            let scale = report.domain_transient_scale(id);
            let mut over = if fraction > threshold {
                let ir = report.domain_ir_fraction(id);
                windows.response(w, d).cycles_over(scale, ir, threshold)
            } else {
                0
            };
            if policy.reacts_to_emergencies() && !decision.emergency[d] {
                // A droop the predictor missed is still caught by the
                // on-line detector within a ring period: its reaction
                // clips the excursion shortly past the threshold and
                // truncates the emergency after detection latency.
                fraction = fraction.min(threshold + DETECTOR_OVERSHOOT_FRACTION);
                over = over.min(DETECTOR_REACTION_CYCLES);
            }
            *lane = self.config.tech.vdd.get() * (1.0 - fraction);
            fractions.push(fraction);
            window_emergency_cycles = window_emergency_cycles.max(over);
        }
        let pct = fractions.iter().copied().fold(0.0f64, f64::max) * 100.0;
        metrics.window_noise.push(pct);
        self.telemetry.histogram("engine.window_noise_pct", pct);
        metrics.emergency_cycles += window_emergency_cycles;
        metrics.analyzed_cycles += WINDOW_CYCLES - WARMUP_CYCLES;

        if metrics
            .worst_window
            .as_ref()
            .is_none_or(|(worst, _)| pct > *worst)
        {
            // Record the worst domain's per-cycle trace.
            let worst_domain = (0..fractions.len())
                .max_by(|&a, &b| fractions[a].total_cmp(&fractions[b]))
                .unwrap_or(0);
            let scale = report.domain_transient_scale(DomainId(worst_domain));
            let ir = report.domain_ir_fraction(DomainId(worst_domain));
            let trace = windows
                .response(w, worst_domain)
                .magnitudes()
                .iter()
                .map(|&c| (scale * c + ir) * 100.0)
                .collect();
            metrics.worst_window = Some((pct, trace));
        }
        Ok(())
    }

    /// Anticipated per-VR temperatures via the ΔT = θ·ΔP model:
    /// `base_temps` are the temperatures visible to the policy,
    /// `domain_currents` the (forecast or true) next-interval demand.
    fn anticipated_temps(
        &self,
        base_temps: &[f64],
        predictor: &ThermalPredictor,
        domain_currents: &[f64],
        n_on: &[usize],
        current_losses: &[f64],
    ) -> Vec<f64> {
        let vdd = self.config.tech.vdd;
        let mut out = base_temps.to_vec();
        for domain in self.chip.domains() {
            let d = domain.id().0;
            let bank = &self.banks[d];
            let share = n_on[d].clamp(1, domain.vr_count());
            let loss_if_on = bank
                .per_regulator_loss(Amps::new(domain_currents[d]), share, vdd)
                .map(|w| w.get())
                .unwrap_or(0.0);
            for &v in domain.vrs() {
                let dp = loss_if_on - current_losses[v.0];
                out[v.0] = predictor.predict(v.0, base_temps[v.0], Watts::new(dp));
            }
        }
        out
    }

    /// Per-domain di/dt severity: a core domain inherits its own
    /// benchmark's character; shared L3/uncore domains see the mix.
    fn domain_didt(&self, spec: &WorkloadSpec) -> Vec<f64> {
        let is_core = |d: &&VddDomain| d.kind() == floorplan::DomainKind::Core;
        let core_count = self.chip.domains().iter().filter(is_core).count();
        let mut next_core = 0usize;
        self.chip
            .domains()
            .iter()
            .map(|d| {
                if is_core(&d) {
                    next_core += 1;
                    spec.profile_for_core(next_core - 1).didt_severity
                } else {
                    spec.mean_didt_severity(core_count)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::reference::power8_like;
    use simkit::telemetry::analyze::TraceAnalysis;

    fn tiny_config() -> EngineConfig {
        EngineConfig {
            duration: Seconds::from_millis(3.0),
            noise_window_count: 4,
            profiling_decisions: 4,
            thermal: ThermalConfig::coarse(),
            ..EngineConfig::standard()
        }
    }

    #[test]
    fn validate_rejects_configs_no_engine_can_run() {
        assert!(EngineConfig::standard().validate().is_ok());
        assert!(tiny_config().validate().is_ok());
        let one_cell = EngineConfig {
            thermal: ThermalConfig {
                nx: 1,
                ny: 1,
                ..ThermalConfig::coarse()
            },
            ..tiny_config()
        };
        assert!(one_cell.validate().is_ok());
        // The largest grid and the longest run the bounds allow.
        let at_the_bounds = EngineConfig {
            thermal: ThermalConfig {
                nx: 512,
                ny: 512,
                ..ThermalConfig::coarse()
            },
            duration: Seconds::new(20.0),
            ..tiny_config()
        };
        assert!(at_the_bounds.validate().is_ok());
        let bad = [
            EngineConfig {
                thermal: ThermalConfig {
                    nx: 0,
                    ..ThermalConfig::coarse()
                },
                ..tiny_config()
            },
            EngineConfig {
                duration: Seconds::new(0.0),
                ..tiny_config()
            },
            EngineConfig {
                duration: Seconds::new(f64::NAN),
                ..tiny_config()
            },
            EngineConfig {
                duration: Seconds::from_micros(600.0),
                ..tiny_config()
            },
            EngineConfig {
                thermal_step: Seconds::from_micros(30.0),
                ..tiny_config()
            },
            EngineConfig {
                thermal_step: Seconds::new(0.0),
                ..tiny_config()
            },
            // Three 50-step decisions hold at most 150 windows.
            EngineConfig {
                noise_window_count: 151,
                ..tiny_config()
            },
            // 2.5 µs divides 1 ms but not into whole 1 µs trace samples.
            EngineConfig {
                thermal_step: Seconds::from_micros(2.5),
                ..tiny_config()
            },
            // More decisions than a usize holds, and a decision count a
            // usize holds whose thermal steps it does not.
            EngineConfig {
                duration: Seconds::from_millis(1e300),
                ..tiny_config()
            },
            EngineConfig {
                duration: Seconds::from_millis(1e18),
                ..tiny_config()
            },
            // Grids and runs no host can hold: one cell and one step past
            // the bounds, a 10¹⁰-cell grid, a 10⁹ s run, and a profiling
            // pass past the bound under a short run.
            EngineConfig {
                thermal: ThermalConfig {
                    nx: 513,
                    ny: 512,
                    ..ThermalConfig::coarse()
                },
                ..tiny_config()
            },
            EngineConfig {
                thermal: ThermalConfig {
                    nx: 100_000,
                    ny: 100_000,
                    ..ThermalConfig::coarse()
                },
                ..tiny_config()
            },
            EngineConfig {
                duration: Seconds::new(20.0 + 1e-3),
                ..tiny_config()
            },
            EngineConfig {
                duration: Seconds::new(1e9),
                ..tiny_config()
            },
            EngineConfig {
                profiling_decisions: 20_001,
                ..tiny_config()
            },
        ];
        for config in bad {
            let err = config.validate().unwrap_err();
            assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
        }
        let one_per_step = EngineConfig {
            noise_window_count: 150,
            ..tiny_config()
        };
        assert!(one_per_step.validate().is_ok());
        let err = EngineConfig {
            noise_window_count: 151,
            ..tiny_config()
        }
        .validate()
        .unwrap_err()
        .to_string();
        assert!(err.contains("151 windows over 150 steps"), "{err}");
    }

    #[test]
    fn all_on_run_produces_sane_metrics() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let r = engine.run(Benchmark::LuNcb, PolicyKind::AllOn).unwrap();
        assert_eq!(r.decisions().len(), 3);
        assert_eq!(r.total_power().len(), 150);
        let t = r.max_temperature().get();
        assert!(t > 45.0 && t < 120.0, "T_max {t}");
        assert!(r.max_gradient() > 0.0);
        assert!(r.mean_efficiency() > 0.5 && r.mean_efficiency() < 1.0);
        assert!(r.mean_total_vr_loss().get() > 0.0);
        assert!(r.max_noise_percent().is_some());
        assert_eq!(r.decisions()[0].active_count(), 96);
    }

    #[test]
    fn off_chip_has_no_vr_loss_or_noise() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let r = engine.run(Benchmark::Volrend, PolicyKind::OffChip).unwrap();
        assert_eq!(r.mean_total_vr_loss(), Watts::ZERO);
        assert!(r.max_noise_percent().is_none());
        assert!(r.emergency_cycle_fraction().is_none());
        assert_eq!(r.mean_active_count(), 0.0);
        assert_eq!(r.mean_efficiency(), 1.0);
    }

    #[test]
    fn gating_reduces_loss_versus_all_on() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let all_on = engine.run(Benchmark::Raytrace, PolicyKind::AllOn).unwrap();
        let gated = engine.run(Benchmark::Raytrace, PolicyKind::Naive).unwrap();
        assert!(
            gated.mean_total_vr_loss().get() < all_on.mean_total_vr_loss().get(),
            "gated {} vs all-on {}",
            gated.mean_total_vr_loss(),
            all_on.mean_total_vr_loss()
        );
        // Gating keeps (near-)peak efficiency, all-on drifts below.
        assert!(gated.mean_efficiency() > all_on.mean_efficiency());
    }

    #[test]
    fn active_count_tracks_demand() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let heavy = engine.run(Benchmark::Cholesky, PolicyKind::OracT).unwrap();
        let light = engine.run(Benchmark::Raytrace, PolicyKind::OracT).unwrap();
        assert!(
            heavy.mean_active_count() > light.mean_active_count() + 10.0,
            "heavy {} vs light {}",
            heavy.mean_active_count(),
            light.mean_active_count()
        );
    }

    #[test]
    fn practical_policy_reports_r_squared() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let r = engine.run(Benchmark::Barnes, PolicyKind::PracT).unwrap();
        let r2 = r
            .predictor_r_squared()
            .expect("practical policies calibrate");
        assert!(r2 > 0.8, "R² {r2}");
    }

    #[test]
    fn calibration_r2_is_high() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let (_pred, r2) = engine.calibrate_predictor(Benchmark::LuNcb).unwrap();
        assert!(r2 > 0.9, "R² {r2}");
    }

    #[test]
    fn runs_are_deterministic() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let a = engine.run(Benchmark::Fft, PolicyKind::PracVT).unwrap();
        let b = engine.run(Benchmark::Fft, PolicyKind::PracVT).unwrap();
        assert_eq!(a.max_temperature(), b.max_temperature());
        assert_eq!(a.max_noise_percent(), b.max_noise_percent());
        assert_eq!(a.decisions().len(), b.decisions().len());
        for (da, db) in a.decisions().iter().zip(b.decisions()) {
            assert_eq!(da.gating, db.gating);
        }
    }

    #[test]
    fn run_trace_replays_external_activity() {
        // Replaying the trace the synthetic path generates — one covering
        // the run and the profiling pass, which at the tiny config is the
        // longer — reproduces the synthetic result exactly, θ included.
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        assert!(engine.profiling_decisions() > engine.n_decisions);
        let mix: WorkloadSpec =
            workload::WorkloadMix::alternating(Benchmark::Cholesky, Benchmark::Raytrace, 8).into();
        for spec in [WorkloadSpec::Single(Benchmark::Volrend), mix] {
            let trace = TraceGenerator::new(&chip).generate_spec(&spec, engine.trace_duration());
            for policy in [PolicyKind::OracT, PolicyKind::PracVT] {
                let replayed = engine.run_trace(&trace, policy).unwrap();
                let synthetic = engine.run_spec(&spec, policy).unwrap();
                assert_eq!(
                    masked_debug(&replayed),
                    masked_debug(&synthetic),
                    "{spec} {policy}"
                );
            }
        }
    }

    #[test]
    fn calibrating_runs_on_one_engine_match_fresh_engines() {
        // θ and the trace depend on the spec and the engine, never on
        // the policy: every policy in sequence on one engine, all but the
        // first of each spec reusing its trace (and the calibrating ones
        // its fit), renders exactly what each renders on a fresh engine.
        let chip = power8_like();
        let shared = SimulationEngine::new(&chip, tiny_config());
        let mix: WorkloadSpec =
            workload::WorkloadMix::alternating(Benchmark::Cholesky, Benchmark::Raytrace, 8).into();
        for spec in [
            WorkloadSpec::Single(Benchmark::LuNcb),
            WorkloadSpec::Single(Benchmark::Barnes),
            mix,
        ] {
            for policy in [
                PolicyKind::AllOn,
                PolicyKind::OracT,
                PolicyKind::PracT,
                PolicyKind::OracV,
                PolicyKind::OracVT,
                PolicyKind::PracVT,
            ] {
                let fresh = SimulationEngine::new(&chip, tiny_config())
                    .run_spec(&spec, policy)
                    .unwrap();
                let reused = shared.run_spec(&spec, policy).unwrap();
                assert_eq!(
                    masked_debug(&reused),
                    masked_debug(&fresh),
                    "{spec} {policy}"
                );
            }
        }
    }

    /// The deltas of the counter `name` that `sink` recorded, in order.
    fn counter_deltas(sink: &simkit::telemetry::MemorySink, name: &str) -> Vec<u64> {
        use simkit::telemetry::analyze::EventView;
        sink.events()
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.num_u64("delta").unwrap())
            .collect()
    }

    /// The `engine.calibrate_reused` deltas `sink` recorded, in order.
    fn reuse_counts(sink: &simkit::telemetry::MemorySink) -> Vec<u64> {
        counter_deltas(sink, "engine.calibrate_reused")
    }

    #[test]
    fn a_synthetic_run_reuses_the_trace_exactly_when_the_spec_repeats() {
        let chip = power8_like();
        let mut engine = SimulationEngine::new(&chip, tiny_config());
        let (tel, sink) = Telemetry::recorder();
        engine.set_telemetry(tel);
        for (benchmark, policy) in [
            (Benchmark::LuNcb, PolicyKind::AllOn),
            (Benchmark::LuNcb, PolicyKind::OracT),
            (Benchmark::Barnes, PolicyKind::AllOn),
            (Benchmark::LuNcb, PolicyKind::AllOn),
        ] {
            engine.run(benchmark, policy).unwrap();
        }
        assert_eq!(counter_deltas(&sink, "engine.trace_reused"), [0, 1, 0, 0]);
        // A reused trace is not generated again.
        let events = sink.events();
        let generated = events.iter().filter(|e| e.name == "workload.trace");
        assert_eq!(generated.count(), 3);

        // barnes' all-on run replaces the trace entry but fits no θ, so
        // lu_ncb's OracT generates its trace again and reuses its fit.
        let mut engine = SimulationEngine::new(&chip, tiny_config());
        let (tel, sink) = Telemetry::recorder();
        engine.set_telemetry(tel);
        for (benchmark, policy) in [
            (Benchmark::LuNcb, PolicyKind::PracT),
            (Benchmark::Barnes, PolicyKind::AllOn),
            (Benchmark::LuNcb, PolicyKind::OracT),
        ] {
            engine.run(benchmark, policy).unwrap();
        }
        assert_eq!(reuse_counts(&sink), [0, 1]);
        assert_eq!(counter_deltas(&sink, "engine.trace_reused"), [0, 0, 0]);
    }

    #[test]
    fn run_trace_and_calibrate_predictor_leave_the_trace_memo_alone() {
        let chip = power8_like();
        let mut engine = SimulationEngine::new(&chip, tiny_config());
        let (tel, sink) = Telemetry::recorder();
        engine.set_telemetry(tel);
        engine.run(Benchmark::LuNcb, PolicyKind::AllOn).unwrap();
        // Neither replaying lu_ncb's own trace nor another benchmark's
        // reads the memo or the spec table, and neither writes them, even
        // under a policy that calibrates and draws windows.
        let generator = TraceGenerator::new(&chip);
        for benchmark in [Benchmark::LuNcb, Benchmark::Barnes] {
            let trace = generator.generate(benchmark, engine.trace_duration());
            engine.run_trace(&trace, PolicyKind::AllOn).unwrap();
            engine.run_trace(&trace, PolicyKind::PracT).unwrap();
        }
        engine.calibrate_predictor(Benchmark::Barnes).unwrap();
        assert_eq!(counter_deltas(&sink, "engine.trace_reused"), [0]);
        assert_eq!(counter_deltas(&sink, "engine.windows_reused"), [0]);
        assert_eq!(reuse_counts(&sink), []);
        let reused = engine.run(Benchmark::LuNcb, PolicyKind::AllOn).unwrap();
        assert_eq!(counter_deltas(&sink, "engine.trace_reused"), [0, 1]);
        assert_eq!(counter_deltas(&sink, "engine.windows_reused"), [0, 1]);
        let fresh = SimulationEngine::new(&chip, tiny_config())
            .run(Benchmark::LuNcb, PolicyKind::AllOn)
            .unwrap();
        assert_eq!(masked_debug(&reused), masked_debug(&fresh));
        // barnes' replays left it out of the table: its synthetic run
        // draws its windows and fits its θ.
        engine.run(Benchmark::Barnes, PolicyKind::OracT).unwrap();
        assert_eq!(counter_deltas(&sink, "engine.windows_reused"), [0, 1, 0]);
        assert_eq!(reuse_counts(&sink), [0]);
    }

    /// `config` with `windows` noise windows, enough for some domain
    /// windows to cross the emergency threshold.
    fn windowed(windows: usize) -> EngineConfig {
        EngineConfig {
            noise_window_count: windows,
            ..tiny_config()
        }
    }

    #[test]
    fn interleaved_policies_on_one_engine_match_fresh_engines() {
        // Every policy on three benchmarks in a sweep's interleaved order,
        // no two cells of one benchmark side by side: all but the first
        // windowed cell of each benchmark read its window book, and every
        // record renders what a fresh engine's run of the cell does,
        // worst-window trace, window noise and emergency cycles included.
        let chip = power8_like();
        let mut shared = SimulationEngine::new(&chip, windowed(24));
        let (tel, sink) = Telemetry::recorder();
        shared.set_telemetry(tel);
        let benchmarks = [Benchmark::LuNcb, Benchmark::Fft, Benchmark::Raytrace];
        let (mut drawn, mut expected) = (Vec::new(), Vec::new());
        let mut redrawn_emergencies = 0;
        for round in 0..PolicyKind::ALL.len() {
            for (b, &benchmark) in benchmarks.iter().enumerate() {
                let policy = PolicyKind::ALL[(b + round) % PolicyKind::ALL.len()];
                let reused = shared.run(benchmark, policy).unwrap();
                let fresh = SimulationEngine::new(&chip, windowed(24))
                    .run(benchmark, policy)
                    .unwrap();
                assert_eq!(
                    masked_debug(&reused),
                    masked_debug(&fresh),
                    "{benchmark} {policy}"
                );
                if policy != PolicyKind::OffChip {
                    let hit = drawn.contains(&benchmark);
                    expected.push(u64::from(hit));
                    drawn.push(benchmark);
                    // On a hit, a cycle over the threshold is only
                    // counted by drawing its domain again.
                    if hit && reused.emergency_cycle_fraction().is_some_and(|f| f > 0.0) {
                        redrawn_emergencies += 1;
                    }
                }
            }
        }
        assert_eq!(counter_deltas(&sink, "engine.windows_reused"), expected);
        assert!(
            redrawn_emergencies > 0,
            "no booked cell drew a domain over the threshold again"
        );
    }

    #[test]
    fn the_spec_table_evicts_its_least_recently_used_spec() {
        // Seventeen specs, one past the table: the fourteen benchmarks and
        // three mixes.
        let chip = power8_like();
        let mix = |a, b| workload::WorkloadMix::alternating(a, b, 8).into();
        let specs: Vec<WorkloadSpec> = Benchmark::ALL
            .into_iter()
            .map(WorkloadSpec::Single)
            .chain([
                mix(Benchmark::Cholesky, Benchmark::Raytrace),
                mix(Benchmark::Fft, Benchmark::Barnes),
                mix(Benchmark::LuNcb, Benchmark::Volrend),
            ])
            .collect();
        assert_eq!(specs.len(), KEPT_SPECS + 1);
        let mut engine = SimulationEngine::new(&chip, tiny_config());
        let (tel, sink) = Telemetry::recorder();
        engine.set_telemetry(tel);
        let run = |spec: &WorkloadSpec| engine.run_spec(spec, PolicyKind::PracT).unwrap();
        let reused = |name| counter_deltas(&sink, name).last().copied();
        for spec in &specs {
            run(spec);
        }
        // The first spec went out with the seventeenth: it misses both
        // its book and its θ, and renders its fresh record.
        let again = run(&specs[0]);
        assert_eq!(reused("engine.windows_reused"), Some(0));
        assert_eq!(reused("engine.calibrate_reused"), Some(0));
        let fresh = SimulationEngine::new(&chip, tiny_config())
            .run_spec(&specs[0], PolicyKind::PracT)
            .unwrap();
        assert_eq!(masked_debug(&again), masked_debug(&fresh));
        assert!(counter_deltas(&sink, "engine.windows_reused")
            .iter()
            .all(|&d| d == 0));
        // It took the place of the second, the least recently used; the
        // third is still kept, and reading it keeps it.
        run(&specs[2]);
        assert_eq!(reused("engine.windows_reused"), Some(1));
        assert_eq!(reused("engine.calibrate_reused"), Some(1));
        run(&specs[1]);
        assert_eq!(reused("engine.windows_reused"), Some(0));
        run(&specs[2]);
        assert_eq!(reused("engine.windows_reused"), Some(1));
        run(&specs[3]);
        assert_eq!(reused("engine.windows_reused"), Some(0));
    }

    #[test]
    fn calibrate_predictor_neither_reads_nor_writes_the_memo() {
        let chip = power8_like();
        let mut engine = SimulationEngine::new(&chip, tiny_config());
        let (tel, sink) = Telemetry::recorder();
        engine.set_telemetry(tel);
        engine.run(Benchmark::LuNcb, PolicyKind::PracT).unwrap();
        let before = sink.len();
        let fit = engine.calibrate_predictor(Benchmark::LuNcb).unwrap();
        let pass = &sink.events()[before..];
        assert!(
            pass.iter().any(|e| e.name == "thermal.transient_cg"),
            "the profiling pass ran"
        );
        assert!(pass.iter().all(|e| e.name != "engine.calibrate_reused"));
        let fresh = SimulationEngine::new(&chip, tiny_config())
            .calibrate_predictor(Benchmark::LuNcb)
            .unwrap();
        assert_eq!(fit, fresh);
        // A pass over another benchmark leaves the run's fit in place.
        engine.calibrate_predictor(Benchmark::Barnes).unwrap();
        engine.run(Benchmark::LuNcb, PolicyKind::OracT).unwrap();
        assert_eq!(reuse_counts(&sink), [0, 1]);
    }

    /// A result's `Debug` rendering with its wall-clock phase seconds
    /// masked: phase names and sample counts stay.
    fn masked_debug(r: &SimulationResult) -> String {
        let s = format!("{r:?}");
        let (lo, hi) = (
            s.find("perf: ").unwrap(),
            s.find("solver_profile: ").unwrap(),
        );
        let phases: Vec<_> = r.phase_times().iter().map(|(n, _, k)| (n, k)).collect();
        format!("{}perf: {phases:?}, {}", &s[..lo], &s[hi..])
    }

    /// Each phase and the spans it is timed in.
    const PHASE_SPANS: [(&str, &[&str]); 6] = [
        ("trace", &["engine.trace"]),
        ("calibrate", &["engine.calibrate"]),
        ("steady", &["engine.steady"]),
        ("policy", &["engine.policy"]),
        ("transient", &["engine.transient"]),
        (
            "noise",
            &[
                "engine.noise.wait",
                "engine.noise.truth",
                "engine.noise.measure",
            ],
        ),
    ];

    /// `policy` run on lu_ncb under a recorder, its trace folded, and
    /// the wall time around the run.
    fn traced_run(policy: PolicyKind) -> (SimulationResult, TraceAnalysis, f64) {
        let chip = power8_like();
        let mut engine = SimulationEngine::new(&chip, tiny_config());
        let (tel, sink) = Telemetry::recorder();
        engine.set_telemetry(tel);
        let mut wall = PhaseTimes::new();
        let r = PhaseTimes::timed(&mut wall, &Telemetry::disabled(), "run", "run", |_| {
            engine.run(Benchmark::LuNcb, policy)
        })
        .unwrap();
        let mut trace = TraceAnalysis::exact();
        for event in sink.events() {
            trace.observe(&event);
        }
        (r, trace, wall.seconds("run"))
    }

    #[test]
    fn run_reports_phase_times() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let r = engine.run(Benchmark::Fft, PolicyKind::OracT).unwrap();
        let perf = r.phase_times();
        for (phase, _) in PHASE_SPANS {
            assert!(perf.samples(phase) > 0, "phase {phase} has no samples");
        }
        // Transient stepping runs once per decision interval.
        assert_eq!(perf.samples("transient"), 3);
        assert!(perf.total_seconds() > 0.0);
        assert!(perf.seconds("transient") > 0.0);

        for policy in [PolicyKind::AllOn, PolicyKind::PracVT] {
            let (r, trace, wall) = traced_run(policy);
            let perf = r.phase_times();
            // One sample per completed span of the phase.
            let completed = |span: &str| trace.span(span).map_or(0, |s| s.completed());
            for (phase, spans) in PHASE_SPANS {
                let spans: u64 = spans.iter().map(|s| completed(s)).sum();
                assert_eq!(perf.samples(phase), spans, "{policy:?} {phase}");
            }
            // Only the VT policies check the truth. PracVT shows every
            // span: the noise phase at all three of its sites.
            let vt = policy == PolicyKind::PracVT;
            assert_eq!(completed("engine.noise.truth") > 0, vt, "{policy:?}");
            if vt {
                for span in PHASE_SPANS.iter().flat_map(|(_, spans)| spans.iter()) {
                    assert!(completed(span) > 0, "{policy:?} has no {span} span");
                }
            }
            // The loop's spans nest under `engine.run`, each noise site
            // under the phase that hosts it, and at no other site.
            let track = &trace.tracks[0];
            let mut sites: Vec<(&str, &str)> = track
                .nodes
                .iter()
                .filter_map(|n| Some((n.name.as_str(), track.nodes[n.parent?].name.as_str())))
                .collect();
            sites.sort_unstable();
            let mut expected = vec![
                ("engine.noise.measure", "engine.transient"),
                ("engine.noise.wait", "engine.run"),
                ("engine.policy", "engine.run"),
                ("engine.steady", "engine.run"),
                ("engine.transient", "engine.run"),
            ];
            if vt {
                expected.insert(1, ("engine.noise.truth", "engine.policy"));
            }
            assert_eq!(sites, expected, "{policy:?}");
            // The phases never overlap, so together they fit in the
            // run's wall time; counting one twice would break this.
            assert!(
                perf.total_seconds() <= wall,
                "{policy:?}: phases sum to {} s in a {wall} s run",
                perf.total_seconds()
            );
        }
    }

    #[test]
    fn run_emits_telemetry_and_solver_profile() {
        let chip = power8_like();
        let mut engine = SimulationEngine::new(&chip, tiny_config());
        let (tel, sink) = Telemetry::recorder();
        engine.set_telemetry(tel);
        let r = engine.run(Benchmark::Fft, PolicyKind::OracVT).unwrap();

        // Every phase that issues solves is in the profile, with real
        // (finite) residuals.
        for phase in ["steady", "transient", "noise"] {
            let agg = r
                .solver_profile()
                .get(phase)
                .unwrap_or_else(|| panic!("phase {phase} missing from solver profile"));
            assert!(agg.solves > 0, "phase {phase} recorded no solves");
            assert!(
                agg.max_residual.is_finite(),
                "phase {phase} residual {}",
                agg.max_residual
            );
        }
        // Transient stepping solves once per thermal step.
        assert_eq!(
            r.solver_profile().get("transient").unwrap().solves as usize,
            r.total_power().len()
        );

        // The whole stack reported through one sink.
        for kind in [
            EventKind::SpanStart,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Histogram,
            EventKind::Gating,
            EventKind::Emergency,
            EventKind::Solve,
            EventKind::Progress,
        ] {
            assert!(sink.count_kind(kind) > 0, "no {kind:?} events in the trace");
        }
        // One gating event per decision; spans for every phase.
        assert_eq!(sink.count_kind(EventKind::Gating), r.decisions().len());
        let names: Vec<String> = sink.events().iter().map(|e| e.name.to_string()).collect();
        for span in [
            "engine.trace",
            "engine.steady",
            "engine.run",
            "engine.noise.wait",
            "engine.policy",
            "engine.noise.truth",
            "engine.transient",
            "engine.noise.measure",
        ] {
            assert!(names.iter().any(|n| n == span), "missing span {span}");
        }
        // Transient steps are warm CG under every backend; the PDN IR
        // solves carry the backend the engine resolved to (Auto factors
        // them, DESIGN.md §11).
        assert!(
            names.iter().any(|n| n == "thermal.transient_cg"),
            "missing thermal.transient_cg"
        );
        let ir_event = pdn::IR_SITES.of(engine.config().solver);
        assert!(names.iter().any(|n| n == ir_event), "missing {ir_event}");
    }

    #[test]
    fn solver_backends_agree_over_a_full_run() {
        // The direct LDLᵀ path must reproduce the iterative baselines at
        // simulation-metric precision over an entire traced run: same
        // gating decisions, and temperatures / noise within far less than
        // any physically meaningful margin.
        let chip = power8_like();
        let trace = TraceGenerator::new(&chip).generate(Benchmark::LuNcb, tiny_config().duration);
        let run_with = |solver: SolverBackend| {
            let engine = SimulationEngine::new(
                &chip,
                EngineConfig {
                    solver,
                    ..tiny_config()
                },
            );
            engine.run_trace(&trace, PolicyKind::OracVT).unwrap()
        };
        let direct = run_with(SolverBackend::Direct);
        let cg = run_with(SolverBackend::Cg);
        let mgcg = run_with(SolverBackend::Mgcg);
        for (name, other) in [("cg", &cg), ("mgcg", &mgcg)] {
            let dt = (direct.max_temperature().get() - other.max_temperature().get()).abs();
            assert!(dt < 1e-2, "direct vs {name} T_max gap {dt} °C");
            let dn =
                (direct.max_noise_percent().unwrap() - other.max_noise_percent().unwrap()).abs();
            assert!(dn < 1e-2, "direct vs {name} noise gap {dn} %");
            assert_eq!(direct.decisions().len(), other.decisions().len());
            for (da, db) in direct.decisions().iter().zip(other.decisions()) {
                assert_eq!(da.gating, db.gating, "gating diverged vs {name}");
            }
        }
    }

    #[test]
    fn disabled_telemetry_runs_match_enabled_runs() {
        let chip = power8_like();
        let quiet = SimulationEngine::new(&chip, tiny_config());
        let mut loud = SimulationEngine::new(&chip, tiny_config());
        let (tel, _sink) = Telemetry::recorder();
        loud.set_telemetry(tel);
        let a = quiet.run(Benchmark::Fft, PolicyKind::PracVT).unwrap();
        let b = loud.run(Benchmark::Fft, PolicyKind::PracVT).unwrap();
        assert_eq!(a.max_temperature(), b.max_temperature());
        assert_eq!(a.max_noise_percent(), b.max_noise_percent());
        assert_eq!(a.emergency_cycle_fraction(), b.emergency_cycle_fraction());
    }

    #[test]
    fn frame_recorder_emits_frames_without_perturbing_physics() {
        let chip = power8_like();
        let framed_config = EngineConfig {
            frame_every: 25,
            ..tiny_config()
        };
        let mut framed = SimulationEngine::new(&chip, framed_config.clone());
        let (tel, sink) = Telemetry::recorder();
        framed.set_telemetry(tel);
        let with_frames = framed.run(Benchmark::Fft, PolicyKind::OracVT).unwrap();

        // 3 ms ROI at 20 µs steps = 150 steps; every 25th is sampled.
        let expected_frames = 150 / 25;
        let events = sink.events();
        let count_name = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count_name("thermal.frame"), expected_frames);
        assert_eq!(count_name("engine.lanes"), expected_frames);
        assert_eq!(count_name("thermal.hotspot"), expected_frames);
        assert_eq!(sink.count_kind(EventKind::Frame), 3 * expected_frames);

        // The frame count lands at end of run; it is the recorder's
        // only counter, so the trace stays free of wall-clock counters.
        let counter_total = |name: &str| -> u64 {
            events
                .iter()
                .filter(|e| e.kind == EventKind::Counter && e.name == name)
                .filter_map(|e| {
                    e.fields.iter().find_map(|(k, v)| match (k.as_ref(), v) {
                        ("delta", simkit::telemetry::FieldValue::U64(d)) => Some(*d),
                        _ => None,
                    })
                })
                .sum()
        };
        assert_eq!(counter_total("telemetry.frames"), expected_frames as u64);
        assert!(events
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.name.starts_with("telemetry."))
            .all(|e| e.name == "telemetry.frames"));

        // The hotspot track is a running maximum.
        let hotspots: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "thermal.hotspot")
            .filter_map(|e| {
                e.fields.iter().find_map(|(k, v)| match (k.as_ref(), v) {
                    ("value", simkit::telemetry::FieldValue::F64(t)) => Some(*t),
                    _ => None,
                })
            })
            .collect();
        assert_eq!(hotspots.len(), expected_frames);
        assert!(hotspots.windows(2).all(|w| w[1] >= w[0]));

        // Frame capture reads state only: physics identical to a
        // frames-off run.
        let plain = SimulationEngine::new(&chip, tiny_config());
        let without = plain.run(Benchmark::Fft, PolicyKind::OracVT).unwrap();
        assert_eq!(with_frames.max_temperature(), without.max_temperature());
        assert_eq!(with_frames.max_noise_percent(), without.max_noise_percent());

        // frame_every == 0 with telemetry on adds no frame events.
        let mut unframed = SimulationEngine::new(&chip, tiny_config());
        let (tel2, sink2) = Telemetry::recorder();
        unframed.set_telemetry(tel2);
        unframed.run(Benchmark::Fft, PolicyKind::OracVT).unwrap();
        assert_eq!(sink2.count_kind(EventKind::Frame), 0);
        let no_frame_count = sink2.events().iter().all(|e| e.name != "telemetry.frames");
        assert!(no_frame_count, "frames-off run must not count frames");
    }

    #[test]
    fn run_trace_rejects_wrong_channel_count() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let csv = "# dt_us=20\nblock_0,block_1\n0.5,0.5\n0.6,0.4\n";
        let trace = workload::replay::read_csv(csv.as_bytes(), Benchmark::Fft).unwrap();
        assert!(engine.run_trace(&trace, PolicyKind::AllOn).is_err());
    }

    #[test]
    fn run_trace_rejects_a_step_of_partial_samples() {
        // A 20 µs step averages eight 2.5 µs samples; 30 µs samples would
        // play the trace fast rather than be averaged.
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let trace = |dt_us| {
            TraceGenerator::new(&chip)
                .with_dt(Seconds::from_micros(dt_us))
                .generate(Benchmark::Fft, engine.trace_duration())
        };
        assert!(engine.run_trace(&trace(2.5), PolicyKind::AllOn).is_ok());
        let err = engine
            .run_trace(&trace(30.0), PolicyKind::AllOn)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
        // Durations print rounded, not with their binary noise.
        assert!(err.to_string().contains("got 20 µs and 30 µs"), "{err}");
    }

    #[test]
    fn durations_in_messages_are_rounded() {
        let cases = [
            (Seconds::from_micros(20.0), "20 µs"),
            (Seconds::from_micros(30.0), "30 µs"),
            (Seconds::from_millis(1.0), "1 ms"),
            (Seconds::from_micros(2.5), "2.5 µs"),
            (Seconds::from_micros(600.0), "600 µs"),
            (Seconds::from_nanos(0.8), "0.8 ns"),
            (Seconds::new(2.0), "2 s"),
            (Seconds::new(-0.002), "-2 ms"),
            (Seconds::new(0.0), "0 s"),
            (Seconds::new(f64::INFINITY), "inf s"),
            (Seconds::new(f64::NAN), "NaN s"),
        ];
        for (d, text) in cases {
            assert_eq!(readable(d), text, "{d}");
        }
        let err = EngineConfig {
            thermal_step: Seconds::from_micros(30.0),
            ..tiny_config()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("got 30 µs and 1 ms"), "{err}");
    }
}
