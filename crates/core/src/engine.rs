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
//! Every run replays one activity trace ([`SimulationEngine::run_spec`]
//! generates it, [`SimulationEngine::trace_duration`] long) and profiles
//! θ on the trace's first `max(profiling_decisions, 3)` decisions. The fit depends on those
//! steps and the engine alone, never on the policy, so an engine keeps
//! its last fit and a run whose profiling steps match it bit for bit
//! reuses it.
//!
//! A run uses two threads. Once the trace phase ends, a scoped producer
//! thread (see `windows`) draws each noise window and convolves it into
//! its di/dt responses, in window order from the run's one noise RNG,
//! while this thread calibrates, settles and steps the run; the loop
//! takes an interval's windows before its decision and hands each back
//! once it is measured. The windows depend only on the trace, the
//! benchmark and the seed, so the overlap changes no number, and the
//! `noise` phase holds the loop's wait for them rather than their cost.
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
use crate::windows::{with_window_stream, WindowStream};
use floorplan::{DomainId, Floorplan, VddDomain};
use pdn::transient::DidtResponse;
use pdn::{EmergencyDetector, EmergencyPredictor, NoiseAnalyzer, PdnConfig, PdnModel};
use power::{PowerModel, TechnologyParams};
use simkit::linalg::{SolveStats, SolverBackend};
use simkit::perf::{PhaseTimes, SolverProfile, Timer};
use simkit::series::{TimeSeries, TraceMatrix};
use simkit::telemetry::{EventKind, Telemetry};
use simkit::units::{Amps, Seconds, Watts};
use simkit::{DeterministicRng, Error, Result};
use std::borrow::Borrow;
use std::sync::{Mutex, PoisonError};
use thermal::{FeedbackStats, PowerMap, ThermalConfig, ThermalModel, ThermalState};
use vreg::{GatingState, RegulatorBank, RegulatorDesign};
use workload::microtrace::{generate_window_into, WARMUP_CYCLES, WINDOW_CYCLES};
use workload::{ActivityTrace, Benchmark, TraceGenerator, WorkloadSpec};

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

    /// Every configuration field as canonical, ordered
    /// `(name, value)` pairs — the substrate of scenario content
    /// hashing. Floats render with `{:e}` (the shortest representation
    /// that parses back to the same bits), so two configs produce the
    /// same pair list iff every field is bit-identical; any change to a
    /// field, however nested (a package resistance, one efficiency-curve
    /// point, the solver backend), changes the list and therefore the
    /// hash built over it.
    pub fn config_fields(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(64);
        for (name, value) in [
            ("duration", self.duration.get()),
            ("decision_interval", self.decision_interval.get()),
            ("thermal_step", self.thermal_step.get()),
        ] {
            out.push((name.to_string(), format!("{value:e}")));
        }
        out.push((
            "noise_window_count".to_string(),
            self.noise_window_count.to_string(),
        ));
        out.push(("solver".to_string(), self.solver.name().to_string()));
        out.push((
            "profiling_decisions".to_string(),
            self.profiling_decisions.to_string(),
        ));
        out.push(("frame_every".to_string(), self.frame_every.to_string()));
        out.push(("seed".to_string(), self.seed.to_string()));
        self.design.config_fields("design.", &mut out);
        self.thermal.config_fields("thermal.", &mut out);
        self.pdn.config_fields("pdn.", &mut out);
        self.tech.config_fields("tech.", &mut out);
        out
    }

    /// Checks that an engine can be built and run from this
    /// configuration: a non-empty thermal grid, a thermal step that
    /// divides the decision interval, a finite duration of at least one
    /// decision interval, and no more noise windows than thermal steps
    /// (a step measures at most one window). Front ends call it to
    /// reject bad input with a message instead of the panic
    /// [`SimulationEngine::new`] raises.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] naming the first rule broken.
    pub fn validate(&self) -> Result<()> {
        self.step_counts().map(|_| ())
    }

    /// `(thermal steps per decision, decisions)` of a valid
    /// configuration; see [`EngineConfig::validate`].
    fn step_counts(&self) -> Result<(usize, usize)> {
        let (nx, ny) = (self.thermal.nx, self.thermal.ny);
        if nx == 0 || ny == 0 {
            return Err(Error::invalid_argument(format!(
                "thermal grid must be non-empty, got {nx}×{ny}"
            )));
        }
        let interval = self.decision_interval.get();
        let step = self.thermal_step.get();
        let spd = (interval / step).round();
        if !(spd >= 1.0 && spd.is_finite() && (interval - spd * step).abs() < 1e-12) {
            return Err(Error::invalid_argument(format!(
                "thermal step must divide the decision interval, got {} and {}",
                self.thermal_step, self.decision_interval
            )));
        }
        let duration = self.duration.get();
        if !(duration.is_finite() && duration >= interval * (1.0 - 1e-9)) {
            return Err(Error::invalid_argument(format!(
                "duration must be finite and at least one decision interval ({}), got {}",
                self.decision_interval, self.duration
            )));
        }
        let (spd, n_decisions) = (spd as usize, (duration / interval).round() as usize);
        let steps = spd * n_decisions;
        if self.noise_window_count > steps {
            return Err(Error::invalid_argument(format!(
                "noise_window_count must not exceed the run's thermal steps, got {} windows over {steps} steps",
                self.noise_window_count
            )));
        }
        Ok((spd, n_decisions))
    }
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
    /// The last θ fit a run made (see [`ThetaMemo`]).
    theta: Mutex<Option<ThetaMemo>>,
}

/// A θ fit and the profiling steps it was fitted on. The fit is a pure
/// function of those steps and the engine's immutable configuration:
/// steady solves take fresh scratch on every call, and the profiling
/// pass's solves never enter a run's solver profile.
#[derive(Debug)]
struct ThetaMemo {
    /// The profiling steps' activities, one step after another in one
    /// allocation: every step has one activity per block, so the
    /// flattened steps determine the steps.
    steps: Vec<f64>,
    fit: (ThermalPredictor, f64),
}

impl ThetaMemo {
    /// Whether `steps` equal the fitted steps bit for bit.
    fn matches(&self, steps: &[Vec<f64>]) -> bool {
        let mut fitted = self.steps.iter();
        steps
            .iter()
            .flatten()
            .all(|x| fitted.next().is_some_and(|y| x.to_bits() == y.to_bits()))
            && fitted.next().is_none()
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
    /// Noise analysis runs interleaved with the policy and transient
    /// phases; it accumulates here and is subtracted from whichever
    /// phase hosted it, so the report attributes time where it is spent.
    noise_secs: f64,
}

impl RunMetrics {
    /// Empty accumulators for a run starting at the steady `state`
    /// that `steady` converged to.
    fn new(engine: &SimulationEngine<'_>, state: &ThermalState, steady: &FeedbackStats) -> Self {
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
            noise_secs: 0.0,
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
        perf: PhaseTimes,
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
            perf,
            solver_profile: self.solver_profile,
        }
    }
}

/// A domain's demand: the sum of its blocks' powers.
fn domain_demand(domain: &VddDomain, block_powers: &[Watts]) -> Watts {
    domain.blocks().iter().map(|&b| block_powers[b.0]).sum()
}

impl<'c> SimulationEngine<'c> {
    /// Builds the engine: calibrates the power model, discretises the
    /// thermal and PDN networks.
    ///
    /// # Panics
    ///
    /// Panics when [`EngineConfig::validate`] rejects the configuration:
    /// an empty thermal grid, a thermal step that does not divide the
    /// decision interval, a duration that is not finite or is shorter
    /// than one decision interval, or more noise windows than thermal
    /// steps.
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
            theta: Mutex::new(None),
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

    /// The calibrated power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
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

    /// Runs `f` as one sample of the `phase` timing, inside the
    /// telemetry span `span`.
    fn timed<T>(
        &self,
        perf: &mut PhaseTimes,
        phase: &'static str,
        span: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let t = Timer::start();
        let span = self.telemetry.span(span);
        let out = f();
        span.finish();
        perf.add(phase, t.elapsed_seconds());
        out
    }

    // ------------------------------------------------------------------
    // Trace preparation
    // ------------------------------------------------------------------

    /// Resamples any activity trace (synthetic or replayed) into
    /// per-thermal-step block-activity columns. Traces shorter than the
    /// requested horizon clamp to their final sample.
    fn steps_from_trace(&self, trace: &ActivityTrace, n_decisions: usize) -> Vec<Vec<f64>> {
        let total_steps = n_decisions * self.steps_per_decision;
        let samples_per_step = (self.config.thermal_step.get() / trace.dt().get())
            .round()
            .max(1.0) as usize;
        let n_blocks = self.chip.blocks().len();
        let mut out = Vec::with_capacity(total_steps);
        for s in 0..total_steps {
            let lo = (s * samples_per_step).min(trace.sample_count() - 1);
            let hi = ((s + 1) * samples_per_step).min(trace.sample_count());
            let mut col = vec![0.0; n_blocks];
            for (b, slot) in col.iter_mut().enumerate() {
                let ch = trace.activity().channel(b);
                let window = &ch[lo..hi.max(lo + 1)];
                *slot = window.iter().sum::<f64>() / window.len() as f64;
            }
            out.push(col);
        }
        out
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
    /// trace as long as the profiling pass. Always runs the pass: it
    /// neither reads nor replaces the fit runs reuse.
    ///
    /// # Errors
    ///
    /// Propagates solver failures and degenerate-statistics errors.
    pub fn calibrate_predictor_spec(&self, spec: &WorkloadSpec) -> Result<(ThermalPredictor, f64)> {
        let n_dec = self.profiling_decisions();
        let duration = self.config.decision_interval * n_dec as f64;
        let trace = TraceGenerator::new(self.chip).generate_spec(spec, duration);
        trace.emit_telemetry(&self.telemetry);
        self.calibrate_on(&self.steps_from_trace(&trace, n_dec), n_dec)
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

    /// [`Self::calibrate_on`] through the engine's memo: the last fit
    /// when `profiling` matches its steps bit for bit, otherwise a fresh
    /// fit that replaces it. The lock is not held while fitting, so
    /// runs sharing an engine never wait on one another.
    fn calibrate_reusing(
        &self,
        profiling: &[Vec<f64>],
        n_prof: usize,
    ) -> Result<(ThermalPredictor, f64)> {
        let reused = self
            .theta
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .filter(|memo| memo.matches(profiling))
            .map(|memo| memo.fit.clone());
        self.telemetry
            .counter("engine.calibrate_reused", u64::from(reused.is_some()));
        if let Some(fit) = reused {
            return Ok(fit);
        }
        let fit = self.calibrate_on(profiling, n_prof)?;
        *self.theta.lock().unwrap_or_else(PoisonError::into_inner) = Some(ThetaMemo {
            steps: profiling.concat(),
            fit: fit.clone(),
        });
        Ok(fit)
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
    /// Generates one synthetic trace covering both the run and the θ
    /// profiling pass and replays it as [`SimulationEngine::run_trace`]
    /// does.
    ///
    /// # Errors
    ///
    /// Propagates solver and calibration failures.
    pub fn run_spec(&self, spec: &WorkloadSpec, policy: PolicyKind) -> Result<SimulationResult> {
        self.replay(policy, || {
            TraceGenerator::new(self.chip).generate_spec(spec, self.trace_duration())
        })
    }

    /// Runs the governor against an externally supplied activity trace
    /// (e.g. replayed from `workload::replay::read_csv`) instead of the
    /// synthetic suite. The trace must carry one channel per floorplan
    /// block; it is resampled onto the engine's thermal steps and clamped
    /// at its end if shorter than the configured duration or the θ
    /// profiling pass, which runs on the trace's leading decisions.
    ///
    /// # Errors
    ///
    /// * [`simkit::Error::DimensionMismatch`] when the trace's channel
    ///   count differs from the chip's block count;
    /// * solver and calibration failures are propagated.
    pub fn run_trace(&self, trace: &ActivityTrace, policy: PolicyKind) -> Result<SimulationResult> {
        if trace.activity().channel_count() != self.chip.blocks().len() {
            return Err(simkit::Error::DimensionMismatch {
                expected: self.chip.blocks().len(),
                actual: trace.activity().channel_count(),
            });
        }
        self.replay(policy, || trace)
    }

    /// The one run path: prepare the trace `make_trace` yields (timed as
    /// the `trace` phase), start drawing its noise windows on a producer
    /// thread, and run [`Self::run_decisions`] against them.
    fn replay<T: Borrow<ActivityTrace>>(
        &self,
        policy: PolicyKind,
        make_trace: impl FnOnce() -> T,
    ) -> Result<SimulationResult> {
        let cfg = &self.config;
        let spd = self.steps_per_decision;
        let mut perf = PhaseTimes::new();
        // Only the resampled steps outlive this phase: a generated trace
        // is dropped here.
        let (spec, acts) = self.timed(&mut perf, "trace", "engine.trace", || {
            let trace = make_trace();
            let trace = trace.borrow();
            trace.emit_telemetry(&self.telemetry);
            let acts = self.steps_from_trace(trace, self.trace_decisions());
            (trace.spec().clone(), acts)
        });
        let spec = &spec;
        // Noise windows, evenly spread over the run; the off-chip policy
        // analyses no noise and draws none. From here on a producer
        // thread draws and convolves them, one window after another from
        // the run's noise RNG, while this thread calibrates, settles and
        // steps the run.
        let run_steps = self.n_decisions * spd;
        let n_windows = match policy {
            PolicyKind::OffChip => 0,
            _ => cfg.noise_window_count,
        };
        let window_steps: Vec<usize> = (0..n_windows)
            .map(|w| ((w as f64 + 0.5) / n_windows as f64 * run_steps as f64) as usize)
            .collect();
        // Each window is one cycle window per domain, drawn from the
        // run's one noise RNG and reduced to its di/dt response. `didt`
        // is indexed by domain, so multiprogrammed mixes give each core
        // domain its own benchmark's di/dt character. The two scratch
        // buffers are sized here so that the producer never allocates.
        let didt = self.domain_didt(spec);
        let mut rng = DeterministicRng::new(cfg.seed ^ spec.seed() ^ 0x4E01);
        let mut multipliers = Vec::with_capacity(WINDOW_CYCLES);
        let mut scratch = Vec::with_capacity(WINDOW_CYCLES);
        let pdn = self.pdn.config();
        let (response_time, frequency) = (self.analyzer.response_time(), self.analyzer.frequency());
        let fill = |step: usize, slot: &mut [DidtResponse]| {
            for (domain, response) in self.chip.domains().iter().zip(slot) {
                let blocks = domain.blocks();
                let mean_act =
                    blocks.iter().map(|&b| acts[step][b.0]).sum::<f64>() / blocks.len() as f64;
                let severity = didt[domain.id().0];
                generate_window_into(
                    &mut rng,
                    WINDOW_CYCLES,
                    mean_act,
                    severity,
                    &mut multipliers,
                );
                response.refill(
                    pdn,
                    response_time,
                    frequency,
                    &multipliers,
                    WARMUP_CYCLES,
                    &mut scratch,
                );
            }
        };
        let domains = self.chip.domains().len();
        with_window_stream(&window_steps, spd, domains, fill, |windows| {
            self.run_decisions(policy, spec, &acts, perf, windows)
        })
    }

    /// The run after its trace phase: profile θ on the leading
    /// decisions of `acts` (or reuse the engine's last fit of the same
    /// steps), settle the initial steady state, then alternate
    /// [`Self::decide`] and a simulated interval, taking each interval's
    /// noise `windows` before its decision and handing each back once
    /// it is measured.
    fn run_decisions(
        &self,
        policy: PolicyKind,
        spec: &WorkloadSpec,
        acts: &[Vec<f64>],
        mut perf: PhaseTimes,
        windows: &mut WindowStream<'_>,
    ) -> Result<SimulationResult> {
        let cfg = &self.config;
        let spd = self.steps_per_decision;
        let n_prof = self.profiling_decisions();
        // Practical policies get the profiled θ; thermal oracles drive
        // the same linear model with perfect inputs.
        let calibration = if policy.needs_predictor() {
            let profiling = &acts[..n_prof * spd];
            Some(self.timed(&mut perf, "calibrate", "engine.calibrate", || {
                self.calibrate_reusing(profiling, n_prof)
            })?)
        } else {
            None
        };
        let (predictor, r_squared) = calibration.unzip();
        let acts = &acts[..self.n_decisions * spd];

        let run_span = self.telemetry.span("engine.run");
        let (state, steady) = self.timed(&mut perf, "steady", "engine.steady", || {
            self.initial_state(acts, policy != PolicyKind::OffChip)
        })?;
        let mut metrics = RunMetrics::new(self, &state, &steady);
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
        let mut frame_recorder = (self.telemetry.is_enabled() && cfg.frame_every > 0).then(|| {
            let (tel, every, step) = (self.telemetry.clone(), cfg.frame_every, cfg.thermal_step);
            crate::FrameRecorder::new(tel, every, FRAME_GRID, step)
        });
        // Per-domain supply lanes: Vdd scaled by the most recent
        // measured droop fraction, held between noise windows.
        let mut lanes = vec![cfg.tech.vdd.get(); n_domains];
        let mut interval_windows = Vec::with_capacity(spd);

        for k in 0..self.n_decisions {
            let step0 = k * spd;
            let noise_at_decide = metrics.noise_secs;
            let t_decide = Timer::start();
            // The interval's measurement windows, taken before the
            // decision so that (a) the window stream is identical across
            // policies (one benchmark = one set of sampled windows, as in
            // the paper's methodology) and (b) the VT policies' oracle
            // judges the *same* windows that will be measured. The
            // producer has already reduced each to its gating-independent
            // di/dt responses; waiting for it counts as noise time, not
            // policy time.
            let t_windows = Timer::start();
            windows.take_interval(k, &mut interval_windows)?;
            metrics.noise_secs += t_windows.elapsed_seconds();
            let decision =
                self.decide(&mut gov, k, acts, &plant, &interval_windows, &mut metrics)?;
            self.record_decision(k, &decision, policy, &mut metrics)?;
            let noise = metrics.noise_secs - noise_at_decide;
            perf.add("policy", t_decide.elapsed_seconds() - noise);

            let noise_at_step = metrics.noise_secs;
            let t_step = Timer::start();
            let mut domain_power = vec![0.0f64; n_domains];
            // `EngineConfig::validate` allows at most one window per step.
            let mut pending = interval_windows.drain(..).peekable();
            for (s, act) in acts.iter().enumerate().skip(step0).take(spd) {
                let solve = self.step(&mut plant, act, &decision.gating)?;
                metrics.observe_step(self, &plant, &decision.gating, solve, &mut domain_power)?;
                gov.sensors.record(&metrics.vr_temps_now);
                if let Some((_, responses)) = pending.next_if(|(w, _)| *w == s) {
                    self.measure_window(
                        &plant,
                        &decision,
                        &responses,
                        policy,
                        &mut lanes,
                        &mut metrics,
                    )?;
                    windows.give_back(responses);
                }
                if let Some(recorder) = frame_recorder.as_mut() {
                    recorder.observe(s, &plant.state, &decision.gating, &lanes);
                }
            }
            let noise = metrics.noise_secs - noise_at_step;
            perf.add("transient", t_step.elapsed_seconds() - noise);
            let interval_power: Vec<Watts> = domain_power
                .iter()
                .map(|&p| Watts::new(p / spd as f64))
                .collect();
            if self.telemetry.is_enabled() {
                // Demand-forecast error: what the policy believed each
                // domain would draw versus what the interval delivered.
                for (forecast, actual) in decision.forecast.iter().zip(&interval_power) {
                    let error = (forecast.get() - actual.get()).abs();
                    self.telemetry.histogram("engine.forecast_error_w", error);
                }
            }
            gov.forecaster.observe(&interval_power);
        }

        if metrics.noise_secs > 0.0 {
            perf.add("noise", metrics.noise_secs);
        }
        if let Some(recorder) = frame_recorder {
            recorder.finish();
        }
        run_span.finish();
        Ok(metrics.into_result(spec, policy, r_squared, perf, self.thermal.grid_size().0))
    }

    /// One decision (Section 6.2): size each domain's `n_on` from its
    /// demand (the forecast for practical policies, the true next
    /// interval for oracles, the present otherwise), rank the
    /// regulators, gate, and — for the VT policies — check the planned
    /// gating against this interval's measurement `windows`, switching a
    /// domain with a (predicted) emergency all-on. The truth check's
    /// solves and time go to `metrics`.
    fn decide(
        &self,
        gov: &mut Governor,
        k: usize,
        acts: &[Vec<f64>],
        plant: &Plant<'_>,
        windows: &[(usize, Vec<DidtResponse>)],
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
        if policy.reacts_to_emergencies() && !windows.is_empty() {
            // Ground truth: would the planned gating put any domain over
            // the emergency threshold during this interval's windows?
            let t_truth = Timer::start();
            let threshold = EmergencyDetector::new().threshold_fraction();
            let mut truth = vec![false; n_domains];
            for (_, responses) in windows {
                let report = self.analyzer.analyze_responses(
                    self.chip,
                    &self.pdn,
                    &gating,
                    &block_powers_next,
                    responses,
                )?;
                metrics
                    .solver_profile
                    .merge_agg("noise", &report.ir_solve_stats());
                for (d, flag) in truth.iter_mut().enumerate() {
                    *flag |= report.domain_fraction(DomainId(d)) > threshold;
                }
            }
            metrics.noise_secs += t_truth.elapsed_seconds();
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
                    .field_u64("windows", windows.len() as u64)
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

    /// Measures one noise window at the step `plant` just took under
    /// `decision`: per-domain droop fractions (the VT policies' on-line
    /// detector clips a droop the predictor missed shortly past the
    /// threshold), the supply lanes, emergency residency (Table 2) and
    /// the worst window's per-cycle trace (Fig. 14). Timed as noise.
    fn measure_window(
        &self,
        plant: &Plant<'_>,
        decision: &Decision,
        responses: &[DidtResponse],
        policy: PolicyKind,
        lanes: &mut [f64],
        metrics: &mut RunMetrics,
    ) -> Result<()> {
        let t_noise = Timer::start();
        let report = self.analyzer.analyze_responses(
            self.chip,
            &self.pdn,
            &decision.gating,
            &plant.block_powers,
            responses,
        )?;
        metrics
            .solver_profile
            .merge_agg("noise", &report.ir_solve_stats());
        let threshold = EmergencyDetector::new().threshold_fraction();
        let mut fractions = Vec::with_capacity(responses.len());
        let mut window_emergency_cycles = 0usize;
        for (d, response) in responses.iter().enumerate() {
            let id = DomainId(d);
            let mut fraction = report.domain_fraction(id);
            // The report carries the static IR component and the
            // transient scale, so neither a second grid solve nor a
            // second convolution.
            let scale = report.domain_transient_scale(id);
            let mut over = response.cycles_over(scale, report.domain_ir_fraction(id), threshold);
            if policy.reacts_to_emergencies() && !decision.emergency[d] {
                // A droop the predictor missed is still caught by the
                // on-line detector within a ring period: its reaction
                // clips the excursion shortly past the threshold and
                // truncates the emergency after detection latency.
                fraction = fraction.min(threshold + DETECTOR_OVERSHOOT_FRACTION);
                over = over.min(DETECTOR_REACTION_CYCLES);
            }
            lanes[d] = self.config.tech.vdd.get() * (1.0 - fraction);
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
            let trace = responses[worst_domain]
                .magnitudes()
                .iter()
                .map(|&c| (scale * c + ir) * 100.0)
                .collect();
            metrics.worst_window = Some((pct, trace));
        }
        metrics.noise_secs += t_noise.elapsed_seconds();
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
        // θ depends on the trace and the engine, never on the policy: the
        // calibrating policies in sequence on one engine, all but the
        // first of each benchmark reusing its fit, render exactly what
        // each renders on a fresh engine.
        let chip = power8_like();
        let shared = SimulationEngine::new(&chip, tiny_config());
        for benchmark in [Benchmark::LuNcb, Benchmark::Barnes] {
            for policy in [
                PolicyKind::OracT,
                PolicyKind::PracT,
                PolicyKind::OracVT,
                PolicyKind::PracVT,
            ] {
                let fresh = SimulationEngine::new(&chip, tiny_config())
                    .run(benchmark, policy)
                    .unwrap();
                let reused = shared.run(benchmark, policy).unwrap();
                assert_eq!(
                    masked_debug(&reused),
                    masked_debug(&fresh),
                    "{benchmark:?} {policy}"
                );
            }
        }
    }

    /// The `engine.calibrate_reused` deltas `sink` recorded, in order.
    fn reuse_counts(sink: &simkit::telemetry::MemorySink) -> Vec<u64> {
        use simkit::telemetry::analyze::EventView;
        sink.events()
            .iter()
            .filter(|e| e.name == "engine.calibrate_reused")
            .map(|e| e.num_u64("delta").unwrap())
            .collect()
    }

    /// `trace` through the CSV interchange format with block 0's sample
    /// `s` replaced by `edit` of its value.
    fn edited(trace: &ActivityTrace, s: usize, edit: impl Fn(f64) -> f64) -> ActivityTrace {
        let mut csv = Vec::new();
        workload::replay::write_csv(trace, &mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        let mut rows: Vec<String> = text.lines().map(str::to_owned).collect();
        let (first, rest) = rows[s + 2].split_once(',').unwrap();
        rows[s + 2] = format!("{},{rest}", edit(first.parse().unwrap()));
        workload::replay::read_csv(rows.join("\n").as_bytes(), trace.benchmark()).unwrap()
    }

    #[test]
    fn theta_is_refitted_exactly_when_the_profiling_steps_change() {
        // One sample per thermal step, so a trace sample is a step
        // activity bit for bit; the run outlasts the 3-decision prefix.
        let chip = power8_like();
        let config = EngineConfig {
            duration: Seconds::from_millis(5.0),
            profiling_decisions: 3,
            ..tiny_config()
        };
        let mut engine = SimulationEngine::new(&chip, config.clone());
        let (tel, sink) = Telemetry::recorder();
        engine.set_telemetry(tel);
        let prefix = engine.profiling_decisions() * engine.steps_per_decision;
        assert!(prefix < engine.n_decisions * engine.steps_per_decision);
        let base = TraceGenerator::new(&chip)
            .with_dt(config.thermal_step)
            .generate(Benchmark::LuNcb, config.duration);
        let flip_last_bit = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        let in_prefix = edited(&base, prefix - 1, flip_last_bit);
        let after_prefix = edited(&base, prefix, |x| 1.0 - x);

        engine.run_trace(&base, PolicyKind::AllOn).unwrap();
        assert_eq!(reuse_counts(&sink), [] as [u64; 0], "all-on fits no θ");
        engine.run_trace(&base, PolicyKind::PracT).unwrap();
        engine.run_trace(&base, PolicyKind::OracVT).unwrap();
        assert_eq!(reuse_counts(&sink), [0, 1]);
        // One flipped bit at the prefix's last step refits, and the
        // refit is what a fresh engine fits on that trace.
        let refitted = engine.run_trace(&in_prefix, PolicyKind::PracT).unwrap();
        let fresh = SimulationEngine::new(&chip, config)
            .run_trace(&in_prefix, PolicyKind::PracT)
            .unwrap();
        assert_eq!(masked_debug(&refitted), masked_debug(&fresh));
        assert_eq!(reuse_counts(&sink), [0, 1, 0]);
        // The refit replaced the memo; a change past the prefix reuses it.
        engine.run_trace(&base, PolicyKind::PracT).unwrap();
        engine.run_trace(&after_prefix, PolicyKind::PracVT).unwrap();
        assert_eq!(reuse_counts(&sink), [0, 1, 0, 0, 1]);
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

    #[test]
    fn run_reports_phase_times() {
        let chip = power8_like();
        let engine = SimulationEngine::new(&chip, tiny_config());
        let r = engine.run(Benchmark::Fft, PolicyKind::OracT).unwrap();
        let perf = r.phase_times();
        for phase in [
            "trace",
            "calibrate",
            "steady",
            "policy",
            "transient",
            "noise",
        ] {
            assert!(perf.samples(phase) > 0, "phase {phase} has no samples");
        }
        // Transient stepping runs once per decision interval.
        assert_eq!(perf.samples("transient"), 3);
        assert!(perf.total_seconds() > 0.0);
        assert!(perf.render().contains("transient"));
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
        for span in ["engine.trace", "engine.steady", "engine.run"] {
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
}
