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
use floorplan::{DomainId, Floorplan};
use pdn::transient::DidtResponse;
use pdn::{EmergencyDetector, EmergencyPredictor, NoiseAnalyzer, PdnConfig, PdnModel};
use power::{PowerModel, TechnologyParams};
use simkit::linalg::SolverBackend;
use simkit::perf::{PhaseTimes, SolverProfile, Timer};
use simkit::series::{TimeSeries, TraceMatrix};
use simkit::telemetry::{EventKind, Telemetry};
use simkit::units::{Seconds, Watts};
use simkit::{DeterministicRng, Error, Result};
use thermal::{FeedbackStats, PowerMap, ThermalConfig, ThermalModel, ThermalState};
use vreg::{GatingState, RegulatorBank, RegulatorDesign};
use workload::microtrace::{generate_window, WARMUP_CYCLES, WINDOW_CYCLES};
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
    /// Thermal sensor + aggregation latency (100 µs in the paper).
    pub sensor_latency: Seconds,
    /// Component regulator design.
    pub design: RegulatorDesign,
    /// Thermal model configuration.
    pub thermal: ThermalConfig,
    /// PDN configuration.
    pub pdn: PdnConfig,
    /// Technology / power-model parameters.
    pub tech: TechnologyParams,
    /// Voltage-emergency predictor accuracy for PracVT (0.9 per the
    /// paper).
    pub predictor_accuracy: f64,
    /// Number of noise windows sampled evenly over the run (the paper
    /// uses 200 per application).
    pub noise_window_count: usize,
    /// Linear-solver family for the thermal steady-state and PDN systems
    /// (transient steps are warm Jacobi-CG under every backend). Engine
    /// construction copies this into the thermal and PDN configurations
    /// it instantiates, so one knob steers the whole stack; the
    /// `SIMKIT_SOLVER` environment variable overrides the default.
    pub solver: SolverBackend,
    /// Decision intervals simulated by the θ-calibration profiling pass.
    pub profiling_decisions: usize,
    /// Thermal steps between spatial frames captured into the
    /// telemetry trace by the [`FrameRecorder`](crate::FrameRecorder)
    /// (downsampled heat map, voltage lanes, gating mask, hotspot
    /// track). 0 — the default — disables frame capture entirely: no
    /// recorder is constructed and the event stream is unchanged.
    pub frame_every: usize,
    /// Maximum edge of the downsampled thermal frame (cells per axis).
    pub frame_grid: usize,
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
            sensor_latency: Seconds::from_micros(100.0),
            design: RegulatorDesign::fivr(),
            thermal: ThermalConfig::standard(),
            pdn: PdnConfig::reference(),
            tech: TechnologyParams::table1(),
            predictor_accuracy: 0.9,
            noise_window_count: 200,
            solver: SolverBackend::env_default(),
            profiling_decisions: 10,
            frame_every: 0,
            frame_grid: 16,
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
            ("sensor_latency", self.sensor_latency.get()),
            ("predictor_accuracy", self.predictor_accuracy),
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
        out.push(("frame_grid".to_string(), self.frame_grid.to_string()));
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
    /// decision interval, and a predictor accuracy in [0, 1]. Front ends
    /// call it to reject bad input with a message instead of the panic
    /// [`SimulationEngine::new`] or a run raises.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] naming the first rule broken.
    pub fn validate(&self) -> Result<()> {
        self.step_counts()?;
        if !(0.0..=1.0).contains(&self.predictor_accuracy) {
            return Err(Error::invalid_argument(format!(
                "predictor accuracy must be in [0, 1], got {}",
                self.predictor_accuracy
            )));
        }
        Ok(())
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
        Ok((spd as usize, (duration / interval).round() as usize))
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::standard()
    }
}

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
}

/// Per-step buffers of [`SimulationEngine::simulate_interval`], built
/// once per run and reused by every step.
struct StepScratch<'m> {
    power: PowerMap<'m>,
    block_powers: Vec<Watts>,
}

impl<'m> StepScratch<'m> {
    fn new(thermal: &'m ThermalModel) -> Self {
        StepScratch {
            power: PowerMap::new(thermal),
            block_powers: Vec::new(),
        }
    }
}

/// What a per-step observer sees.
struct StepView<'a> {
    step: usize,
    state: &'a ThermalState,
    block_powers: &'a [Watts],
    vr_losses: &'a [f64],
    gating: &'a GatingState,
    solve: simkit::linalg::SolveStats,
}

impl<'c> SimulationEngine<'c> {
    /// Builds the engine: calibrates the power model, discretises the
    /// thermal and PDN networks.
    ///
    /// # Panics
    ///
    /// Panics when [`EngineConfig::validate`] rejects the configuration:
    /// an empty thermal grid, a thermal step that does not divide the
    /// decision interval, or a duration that is not finite or is shorter
    /// than one decision interval.
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

    // ------------------------------------------------------------------
    // Trace preparation
    // ------------------------------------------------------------------

    /// Per-thermal-step per-block activities for `n_decisions` intervals.
    fn step_activities(&self, spec: &WorkloadSpec, n_decisions: usize) -> Vec<Vec<f64>> {
        let duration = self.config.decision_interval * n_decisions as f64;
        let trace = TraceGenerator::new(self.chip).generate_spec(spec, duration);
        trace.emit_telemetry(&self.telemetry);
        self.steps_from_trace(&trace, n_decisions)
    }

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
            .map(|d| {
                let p: Watts = d.blocks().iter().map(|&b| block_powers[b.0]).sum();
                (p / vdd).get()
            })
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

    /// Initial thermal state: leakage-feedback steady state at the first
    /// interval's mean activity, regulators `all-on` (the pre-ROI
    /// condition). Also returns the feedback loop's convergence
    /// statistics for the run's solver profile.
    fn initial_state(
        &self,
        acts: &[Vec<f64>],
        with_vr_loss: bool,
    ) -> Result<(ThermalState, FeedbackStats)> {
        let mean_acts = Self::mean_activities(acts, 0, self.steps_per_decision.min(acts.len()));
        let vdd = self.config.tech.vdd;
        let (state, feedback) = self.thermal.steady_state_with_feedback(60, 0.05, |state| {
            let block_powers = self.block_powers(&mean_acts, state);
            let mut pm = PowerMap::new(&self.thermal);
            for b in self.chip.blocks() {
                pm.add_block(b.id(), block_powers[b.id().0])?;
            }
            if with_vr_loss {
                for domain in self.chip.domains() {
                    let demand: Watts = domain.blocks().iter().map(|&b| block_powers[b.0]).sum();
                    let bank = &self.banks[domain.id().0];
                    let n = domain.vr_count();
                    let loss = bank.per_regulator_loss(demand / vdd, n, vdd)?;
                    for &v in domain.vrs() {
                        pm.add_vr(v, loss)?;
                    }
                }
            }
            Ok(pm)
        })?;
        Ok((state, feedback))
    }

    /// Simulates one decision interval under a fixed gating state (the
    /// thermally-aware policies hold their selected set for a full 1 ms
    /// decision interval — Section 6.2), calling `observe` after each
    /// thermal step. Every per-step buffer lives in `scratch`, so a step
    /// allocates nothing.
    #[allow(clippy::too_many_arguments)]
    fn simulate_interval<'m, F>(
        &'m self,
        acts: &[Vec<f64>],
        k: usize,
        gating: &GatingState,
        state: &mut ThermalState,
        stepper: &mut thermal::TransientStepper<'_>,
        vr_losses: &mut [f64],
        scratch: &mut StepScratch<'m>,
        mut observe: F,
    ) -> Result<()>
    where
        F: FnMut(StepView<'_>) -> Result<()>,
    {
        let vdd = self.config.tech.vdd;
        let lo = k * self.steps_per_decision;
        let StepScratch {
            power: pm,
            block_powers,
        } = scratch;
        for (s, act) in acts
            .iter()
            .enumerate()
            .skip(lo)
            .take(self.steps_per_decision)
        {
            self.block_powers_into(act, state, block_powers);
            // Per-VR conversion losses under the current gating.
            vr_losses.iter_mut().for_each(|l| *l = 0.0);
            for domain in self.chip.domains() {
                let active = gating.active_among(domain.vrs());
                if active == 0 {
                    continue; // off-chip baseline: no on-chip loss
                }
                let demand: Watts = domain.blocks().iter().map(|&b| block_powers[b.0]).sum();
                let bank = &self.banks[domain.id().0];
                let loss = bank.per_regulator_loss(demand / vdd, active, vdd)?;
                for &v in domain.vrs() {
                    if gating.is_on(v) {
                        vr_losses[v.0] = loss.get();
                    }
                }
            }
            // Inject heat and advance.
            pm.clear();
            for b in self.chip.blocks() {
                pm.add_block(b.id(), block_powers[b.id().0])?;
            }
            for site in self.chip.vr_sites() {
                let l = vr_losses[site.id().0];
                if l > 0.0 {
                    pm.add_vr(site.id(), Watts::new(l))?;
                }
            }
            let solve = stepper.step(state, pm)?;
            observe(StepView {
                step: s,
                state,
                block_powers,
                vr_losses,
                gating,
                solve,
            })?;
        }
        Ok(())
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
    /// workload spec (single benchmark or multiprogrammed mix).
    ///
    /// # Errors
    ///
    /// Propagates solver failures and degenerate-statistics errors.
    pub fn calibrate_predictor_spec(&self, spec: &WorkloadSpec) -> Result<(ThermalPredictor, f64)> {
        let n_dec = self.config.profiling_decisions.max(3);
        let acts = self.step_activities(spec, n_dec);
        self.calibrate_predictor_inner(&acts, n_dec)
    }

    /// The profiling pass over prepared step activities (shared by the
    /// synthetic and trace-replay paths).
    fn calibrate_predictor_inner(
        &self,
        acts: &[Vec<f64>],
        n_dec: usize,
    ) -> Result<(ThermalPredictor, f64)> {
        let (mut state, _feedback) = self.initial_state(acts, true)?;
        let mut stepper = self.thermal.stepper(self.config.thermal_step);
        let mut scratch = StepScratch::new(&self.thermal);
        let n_vrs = self.chip.vr_sites().len();
        let mut vr_losses = vec![0.0f64; n_vrs];

        let mut samples: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_vrs];
        let mut prev_mean_loss = vec![0.0f64; n_vrs];
        let mut have_prev = false;

        for k in 0..n_dec {
            // Rotating active sets: shift the window by 2 slots per
            // decision so every VR sees on→off and off→on transitions.
            let block_powers = self.block_powers(&acts[k * self.steps_per_decision], &state);
            let currents = self.domain_currents(&block_powers);
            let mut gating = GatingState::all_off(n_vrs);
            for domain in self.chip.domains() {
                let bank = &self.banks[domain.id().0];
                let n_on = bank.required_active(simkit::units::Amps::new(currents[domain.id().0]));
                let vrs = domain.vrs();
                for i in 0..n_on.min(vrs.len()) {
                    let idx = (i + 2 * k) % vrs.len();
                    gating.set(vrs[idx], true)?;
                }
            }

            let t_start = self.vr_temperatures(&state, &vr_losses);
            let mut loss_acc = vec![0.0f64; n_vrs];
            let mut steps = 0usize;
            self.simulate_interval(
                acts,
                k,
                &gating,
                &mut state,
                &mut stepper,
                &mut vr_losses,
                &mut scratch,
                |view| {
                    for (acc, &l) in loss_acc.iter_mut().zip(view.vr_losses) {
                        *acc += l;
                    }
                    steps += 1;
                    Ok(())
                },
            )?;
            let mean_loss: Vec<f64> = loss_acc.iter().map(|&l| l / steps as f64).collect();
            let t_end = self.vr_temperatures(&state, &vr_losses);

            if have_prev {
                for v in 0..n_vrs {
                    let dp = mean_loss[v] - prev_mean_loss[v];
                    let dt = t_end[v] - t_start[v];
                    samples[v].push((dp, dt));
                }
            }
            prev_mean_loss = mean_loss;
            have_prev = true;
        }

        let predictor = ThermalPredictor::calibrate(&samples)?;
        let r2 = predictor.r_squared(&samples)?;
        Ok((predictor, r2))
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
    ///
    /// # Errors
    ///
    /// Propagates solver and calibration failures.
    pub fn run_spec(&self, spec: &WorkloadSpec, policy: PolicyKind) -> Result<SimulationResult> {
        let mut perf = PhaseTimes::new();
        let t = Timer::start();
        let span = self.telemetry.span("engine.trace");
        let acts = self.step_activities(spec, self.n_decisions);
        span.finish();
        perf.add("trace", t.elapsed_seconds());
        self.run_inner(spec, &acts, None, policy, perf)
    }

    /// Runs the governor against an externally supplied activity trace
    /// (e.g. replayed from `workload::replay::read_csv`) instead of the
    /// synthetic suite. The trace must carry one channel per floorplan
    /// block; it is resampled onto the engine's thermal steps and clamped
    /// at its end if shorter than the configured duration.
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
        let mut perf = PhaseTimes::new();
        let t = Timer::start();
        let span = self.telemetry.span("engine.trace");
        trace.emit_telemetry(&self.telemetry);
        let acts = self.steps_from_trace(trace, self.n_decisions);
        // Profile θ on the leading decisions of the same trace.
        let n_dec = self.config.profiling_decisions.max(3).min(self.n_decisions);
        let profiling_acts = self.steps_from_trace(trace, n_dec);
        span.finish();
        perf.add("trace", t.elapsed_seconds());
        let calibration = if policy.needs_predictor() {
            let t = Timer::start();
            let span = self.telemetry.span("engine.calibrate");
            let cal = self.calibrate_predictor_inner(&profiling_acts, n_dec)?;
            span.finish();
            perf.add("calibrate", t.elapsed_seconds());
            Some(cal)
        } else {
            None
        };
        self.run_inner(trace.spec(), &acts, Some(calibration), policy, perf)
    }

    /// The main loop over prepared step activities. `calibration` is
    /// `None` to let the engine profile θ itself (synthetic path), or
    /// `Some(optional-predictor)` when the caller already decided
    /// (trace-replay path). `perf` carries the caller's already-timed
    /// phases (trace synthesis, possibly calibration) and accumulates the
    /// run's own phases.
    #[allow(clippy::type_complexity)]
    fn run_inner(
        &self,
        spec: &WorkloadSpec,
        acts: &[Vec<f64>],
        calibration: Option<Option<(ThermalPredictor, f64)>>,
        policy: PolicyKind,
        mut perf: PhaseTimes,
    ) -> Result<SimulationResult> {
        let cfg = &self.config;
        let vdd = cfg.tech.vdd;
        let n_vrs = self.chip.vr_sites().len();
        let n_domains = self.chip.domains().len();
        let total_steps = self.n_decisions * self.steps_per_decision;
        // Per-domain di/dt severity: a core domain inherits its own
        // benchmark's character; shared L3/uncore domains see the mix.
        let core_count = self
            .chip
            .domains()
            .iter()
            .filter(|d| d.kind() == floorplan::DomainKind::Core)
            .count();
        let mut next_core = 0usize;
        let domain_didt: Vec<f64> = self
            .chip
            .domains()
            .iter()
            .map(|d| {
                if d.kind() == floorplan::DomainKind::Core {
                    let sev = spec.profile_for_core(next_core).didt_severity;
                    next_core += 1;
                    sev
                } else {
                    spec.mean_didt_severity(core_count)
                }
            })
            .collect();

        // Predictor: practical policies get the profiled θ; thermal
        // oracles drive the same linear model with perfect inputs.
        let (predictor, r_squared) = match calibration {
            Some(Some((p, r2))) => (Some(p), Some(r2)),
            Some(None) => (None, None),
            None if policy.needs_predictor() => {
                let t = Timer::start();
                let span = self.telemetry.span("engine.calibrate");
                let (p, r2) = self.calibrate_predictor_spec(spec)?;
                span.finish();
                perf.add("calibrate", t.elapsed_seconds());
                (Some(p), Some(r2))
            }
            None => (None, None),
        };

        let run_span = self.telemetry.span("engine.run");
        let mut solver_profile = SolverProfile::new();
        let t_steady = Timer::start();
        let steady_span = self.telemetry.span("engine.steady");
        let (mut state, steady_fb) = self.initial_state(acts, policy != PolicyKind::OffChip)?;
        steady_span.finish();
        solver_profile.merge_agg("steady", &steady_fb.cg);
        perf.add("steady", t_steady.elapsed_seconds());
        let mut stepper = self.thermal.stepper(cfg.thermal_step);
        let mut scratch = StepScratch::new(&self.thermal);

        let mut vr_losses = vec![0.0f64; n_vrs];
        let mut sensors = ThermalSensorArray::new(n_vrs, cfg.sensor_latency, cfg.thermal_step);
        sensors.record(&self.vr_temperatures(&state, &vr_losses));
        let mut forecaster = DomainPowerForecaster::new(n_domains);
        let mut emergency_predictor =
            EmergencyPredictor::new(cfg.predictor_accuracy, cfg.seed ^ spec.seed());
        let detector = EmergencyDetector::new();
        let mut noise_rng = DeterministicRng::new(cfg.seed ^ spec.seed() ^ 0x4E01);

        // Noise windows, evenly spread over the run.
        let analyze_noise = policy != PolicyKind::OffChip;
        let window_steps: Vec<usize> = (0..cfg.noise_window_count)
            .map(|w| {
                ((w as f64 + 0.5) / cfg.noise_window_count as f64 * total_steps as f64) as usize
            })
            .collect();

        // Metric accumulators.
        let mut decisions: Vec<DecisionRecord> = Vec::with_capacity(self.n_decisions);
        let mut total_power = TimeSeries::new(cfg.thermal_step);
        let mut active_count = TimeSeries::new(cfg.thermal_step);
        let mut required_count = TimeSeries::new(cfg.thermal_step);
        let mut vr_temps = TraceMatrix::new(n_vrs, cfg.thermal_step);
        let mut max_t = f64::MIN;
        let mut max_gradient = f64::MIN;
        // The silicon layer at the running T_max, copied into one reused
        // buffer; the heat map is built from it once, after the run.
        let mut silicon_at_tmax = state.silicon().to_vec();
        let mut vr_temps_now = Vec::with_capacity(n_vrs);
        let mut pout_acc = 0.0f64;
        let mut pin_acc = 0.0f64;
        let mut loss_acc = 0.0f64;
        let mut window_noise = Vec::new();
        let mut emergency_cycles = 0usize;
        let mut analyzed_cycles = 0usize;
        let mut worst_window: Option<(f64, Vec<f64>)> = None;
        // Noise analysis runs interleaved with the policy and transient
        // phases; it accumulates here and is subtracted from whichever
        // phase hosted it so the report attributes time where it is spent.
        let mut noise_secs = 0.0f64;

        // Spatial frame capture (heat-map / lane / hotspot Frame
        // events): only built when telemetry is live AND frames were
        // requested, so the disabled path costs one `is_none` branch.
        let mut frame_recorder = if self.telemetry.is_enabled() && cfg.frame_every > 0 {
            Some(crate::FrameRecorder::new(
                self.telemetry.clone(),
                cfg.frame_every,
                cfg.frame_grid,
                cfg.thermal_step,
            ))
        } else {
            None
        };
        // Per-domain supply lanes: Vdd scaled by the most recent
        // measured droop fraction, held between noise windows.
        let mut lane_voltages = vec![vdd.get(); n_domains];

        for k in 0..self.n_decisions {
            let noise_at_decide = noise_secs;
            let t_decide = Timer::start();
            let step0 = k * self.steps_per_decision;
            // --- Demand views -----------------------------------------
            let block_powers_now = self.block_powers(&acts[step0], &state);
            let currents_now = self.domain_currents(&block_powers_now);
            let next_mean_acts =
                Self::mean_activities(acts, step0, step0 + self.steps_per_decision);
            let block_powers_next = self.block_powers(&next_mean_acts, &state);
            let currents_next = self.domain_currents(&block_powers_next);

            // --- n_on per domain --------------------------------------
            let n_on: Vec<usize> = self
                .chip
                .domains()
                .iter()
                .map(|d| {
                    let bank = &self.banks[d.id().0];
                    let demand = if policy.is_practical() {
                        let fallback = Watts::new(currents_now[d.id().0] * vdd.get());
                        forecaster.forecast(d.id().0, fallback) / vdd
                    } else if policy.is_oracular() {
                        simkit::units::Amps::new(currents_next[d.id().0])
                    } else {
                        simkit::units::Amps::new(currents_now[d.id().0])
                    };
                    bank.required_active(demand)
                })
                .collect();

            // --- Thermal ranking inputs -------------------------------
            let true_temps = self.vr_temperatures(&state, &vr_losses);
            let vr_temp_rank: Vec<f64> = match policy {
                PolicyKind::Naive => true_temps.clone(),
                PolicyKind::OracT | PolicyKind::OracVT => {
                    let p = predictor.as_ref().expect("oracle predictor");
                    self.anticipated_temps(&true_temps, p, &currents_next, &n_on, &vr_losses)
                }
                PolicyKind::PracT | PolicyKind::PracVT => {
                    let p = predictor.as_ref().expect("practical predictor");
                    let sensed = sensors.read();
                    let forecast: Vec<f64> = (0..n_domains)
                        .map(|d| {
                            let fallback = Watts::new(currents_now[d] * vdd.get());
                            (forecaster.forecast(d, fallback) / vdd).get()
                        })
                        .collect();
                    self.anticipated_temps(&sensed, p, &forecast, &n_on, &vr_losses)
                }
                _ => true_temps.clone(),
            };

            // --- Noise ranking inputs ---------------------------------
            let vr_noise_score: Vec<f64> = if policy.uses_noise_ranking() {
                let mut scores = vec![0.0; n_vrs];
                for d in self.chip.domains() {
                    for (v, s) in self.pdn.vr_load_proximity(d.id(), &block_powers_next) {
                        scores[v.0] = s;
                    }
                }
                scores
            } else {
                vec![0.0; n_vrs]
            };

            // --- Measurement windows of this interval -----------------
            // Pre-generated before the decision so that (a) the window
            // stream is identical across policies (one benchmark = one
            // set of sampled windows, as in the paper's methodology) and
            // (b) the VT policies' oracle judges the *same* windows that
            // will be measured. Each window is reduced to its
            // gating-independent di/dt responses here, once; the truth
            // check and the measurement only scale them. The off-chip
            // policy analyses no noise and draws no windows. Generation
            // counts as noise time, not policy time.
            let t_windows = Timer::start();
            let interval_windows: Vec<(usize, Vec<DidtResponse>)> = window_steps
                .iter()
                .copied()
                .filter(|&s| analyze_noise && s >= step0 && s < step0 + self.steps_per_decision)
                .map(|s| {
                    (
                        s,
                        self.domain_windows(&acts[s], &domain_didt, &mut noise_rng),
                    )
                })
                .collect();
            noise_secs += t_windows.elapsed_seconds();

            // --- Decide ------------------------------------------------
            let no_emergency = vec![false; n_domains];
            let inputs = PolicyInputs {
                chip: self.chip,
                n_on: &n_on,
                vr_temp_rank: &vr_temp_rank,
                vr_noise_score: &vr_noise_score,
                emergency: &no_emergency,
            };
            let rankings = rank_regulators(policy, &inputs)?;
            let mut applied_emergency = vec![false; n_domains];
            let mut gating =
                gating_from_rankings(policy, self.chip, &rankings, &n_on, &applied_emergency)?;
            if policy.reacts_to_emergencies() && !interval_windows.is_empty() {
                // Ground truth: would the planned gating put any domain
                // over the emergency threshold during this interval's
                // measurement windows?
                let t_truth = Timer::start();
                let mut truth = vec![false; n_domains];
                for (_, responses) in &interval_windows {
                    let report = self.analyzer.analyze_responses(
                        self.chip,
                        &self.pdn,
                        &gating,
                        &block_powers_next,
                        responses,
                    )?;
                    solver_profile.merge_agg("noise", &report.ir_solve_stats());
                    for (d, flag) in truth.iter_mut().enumerate() {
                        *flag |=
                            report.domain_fraction(DomainId(d)) > detector.threshold_fraction();
                    }
                }
                noise_secs += t_truth.elapsed_seconds();
                let truth_count = truth.iter().filter(|&&t| t).count();
                let (emergency_flags, mispredicted) = if policy.is_oracular() {
                    (truth, 0usize)
                } else {
                    let mut wrong = 0usize;
                    let flags: Vec<bool> = truth
                        .iter()
                        .map(|&t| {
                            let p = emergency_predictor.predict(t);
                            if p != t {
                                wrong += 1;
                            }
                            p
                        })
                        .collect();
                    (flags, wrong)
                };
                let flagged = emergency_flags.iter().filter(|&&e| e).count();
                if flagged > 0 {
                    gating = gating_from_rankings(
                        policy,
                        self.chip,
                        &rankings,
                        &n_on,
                        &emergency_flags,
                    )?;
                }
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .event(EventKind::Emergency, "engine.emergency_check")
                        .field_u64("decision", k as u64)
                        .field_u64("windows", interval_windows.len() as u64)
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
                applied_emergency = emergency_flags;
            }
            if self.telemetry.is_enabled() {
                // Active-VR set change versus the previous decision (the
                // pre-ROI baseline for the first one: all-on, or all-off
                // under the off-chip policy).
                let (turned_on, turned_off) = match decisions.last() {
                    Some(prev) => gating.diff_counts(&prev.gating)?,
                    None if policy == PolicyKind::OffChip => {
                        gating.diff_counts(&GatingState::all_off(n_vrs))?
                    }
                    None => gating.diff_counts(&GatingState::all_on(n_vrs))?,
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
                // Progress heartbeat: lets a live watcher (`tg-obs
                // watch`) see how far along the run is. Every field is
                // a pure function of the decision index, so heartbeats
                // never perturb cross-run trace determinism.
                self.telemetry
                    .event(EventKind::Progress, "engine.heartbeat")
                    .field_u64("decision", k as u64)
                    .field_u64("decisions", self.n_decisions as u64)
                    .field_u64("steps_done", ((k + 1) * self.steps_per_decision) as u64)
                    .field_f64("frac", (k + 1) as f64 / self.n_decisions as f64)
                    .emit();
            }
            decisions.push(DecisionRecord {
                time_s: k as f64 * cfg.decision_interval.get(),
                gating: gating.clone(),
                n_on: n_on.clone(),
            });
            perf.add(
                "policy",
                t_decide.elapsed_seconds() - (noise_secs - noise_at_decide),
            );

            // --- Simulate the interval --------------------------------
            let noise_at_step = noise_secs;
            let t_step = Timer::start();
            let mut interval_domain_power = vec![0.0f64; n_domains];
            self.simulate_interval(
                acts,
                k,
                &gating,
                &mut state,
                &mut stepper,
                &mut vr_losses,
                &mut scratch,
                |view| {
                    solver_profile.record("transient", view.solve);
                    // Power + efficiency accounting.
                    let chip_power: f64 = view.block_powers.iter().map(|p| p.get()).sum();
                    total_power.push(chip_power);
                    active_count.push(view.gating.active_count() as f64);
                    // Demand-driven count: how many regulators pure
                    // (thermally-oblivious) efficiency gating would keep
                    // on right now — Section 6.1 / Fig. 6.
                    let required: usize = self
                        .chip
                        .domains()
                        .iter()
                        .map(|domain| {
                            let p: Watts = domain
                                .blocks()
                                .iter()
                                .map(|&b| view.block_powers[b.0])
                                .sum();
                            self.banks[domain.id().0].required_active(p / vdd)
                        })
                        .sum();
                    required_count.push(required as f64);
                    let mut step_loss = 0.0;
                    for (d, domain) in self.chip.domains().iter().enumerate() {
                        let p: f64 = domain
                            .blocks()
                            .iter()
                            .map(|&b| view.block_powers[b.0].get())
                            .sum();
                        interval_domain_power[d] += p;
                        pout_acc += p;
                        let domain_loss: f64 =
                            domain.vrs().iter().map(|&v| view.vr_losses[v.0]).sum();
                        step_loss += domain_loss;
                        pin_acc += p + domain_loss;
                    }
                    loss_acc += step_loss;

                    // Thermal accounting (silicon + regulator hotspots).
                    self.vr_temperatures_into(view.state, view.vr_losses, &mut vr_temps_now);
                    let temps = &vr_temps_now;
                    sensors.record(temps);
                    vr_temps.push_column(temps)?;
                    let si_max = view.state.max_silicon().get();
                    let vr_max = temps.iter().copied().fold(f64::MIN, f64::max);
                    let t_max = si_max.max(vr_max);
                    if t_max > max_t {
                        max_t = t_max;
                        silicon_at_tmax.copy_from_slice(view.state.silicon());
                    }
                    let gradient = t_max - view.state.min_silicon().get();
                    max_gradient = max_gradient.max(gradient);

                    // Noise windows.
                    let window_here = interval_windows
                        .iter()
                        .find(|&&(s, _)| s == view.step)
                        .map(|(_, r)| r);
                    if let Some(responses) = window_here {
                        let t_noise = Timer::start();
                        let report = self.analyzer.analyze_responses(
                            self.chip,
                            &self.pdn,
                            view.gating,
                            view.block_powers,
                            responses,
                        )?;
                        solver_profile.merge_agg("noise", &report.ir_solve_stats());
                        // Per-domain fractions, with the VT policies'
                        // detector backstop: a droop the predictor missed
                        // is still caught by the on-line detector within
                        // a ring period, clipping the excursion shortly
                        // past the threshold.
                        let threshold = detector.threshold_fraction();
                        let backstop = policy.reacts_to_emergencies();
                        let fractions: Vec<f64> = (0..n_domains)
                            .map(|d| {
                                let f = report.domain_fraction(DomainId(d));
                                if backstop && !applied_emergency[d] && f > threshold {
                                    f.min(threshold + DETECTOR_OVERSHOOT_FRACTION)
                                } else {
                                    f
                                }
                            })
                            .collect();
                        for (lane, fraction) in lane_voltages.iter_mut().zip(&fractions) {
                            *lane = vdd.get() * (1.0 - fraction);
                        }
                        let pct = fractions.iter().copied().fold(0.0f64, f64::max) * 100.0;
                        window_noise.push(pct);
                        self.telemetry.histogram("engine.window_noise_pct", pct);

                        // Emergency residency (Table 2) + worst trace
                        // (Fig. 14). The analyzer's report carries the
                        // static IR component and each domain's transient
                        // scale, so neither a second grid solve nor a
                        // second convolution.
                        let mut window_emergency_cycles = 0usize;
                        for (d, response) in responses.iter().enumerate() {
                            let mut over = response.cycles_over(
                                report.domain_transient_scale(DomainId(d)),
                                report.domain_ir_fraction(DomainId(d)),
                                threshold,
                            );
                            if backstop && !applied_emergency[d] {
                                // Detector reaction truncates the
                                // emergency after detection latency.
                                over = over.min(DETECTOR_REACTION_CYCLES);
                            }
                            window_emergency_cycles = window_emergency_cycles.max(over);
                        }
                        emergency_cycles += window_emergency_cycles;
                        analyzed_cycles += WINDOW_CYCLES - WARMUP_CYCLES;

                        if worst_window.as_ref().is_none_or(|(best, _)| pct > *best) {
                            // Record the worst domain's per-cycle trace.
                            let worst_domain = (0..n_domains)
                                .max_by(|&a, &b| {
                                    fractions[a]
                                        .partial_cmp(&fractions[b])
                                        .expect("finite noise")
                                })
                                .expect("at least one domain");
                            let scale = report.domain_transient_scale(DomainId(worst_domain));
                            let ir = report.domain_ir_fraction(DomainId(worst_domain));
                            let trace: Vec<f64> = responses[worst_domain]
                                .magnitudes()
                                .iter()
                                .map(|&c| (scale * c + ir) * 100.0)
                                .collect();
                            worst_window = Some((pct, trace));
                        }
                        noise_secs += t_noise.elapsed_seconds();
                    }

                    if let Some(recorder) = frame_recorder.as_mut() {
                        recorder.observe(view.step, view.state, view.gating, &lane_voltages);
                    }
                    Ok(())
                },
            )?;
            perf.add(
                "transient",
                t_step.elapsed_seconds() - (noise_secs - noise_at_step),
            );
            if self.telemetry.is_enabled() && policy.is_practical() {
                // Demand-forecast error: what the policy believed each
                // domain would draw versus what the interval delivered.
                for (d, &p) in interval_domain_power.iter().enumerate() {
                    let actual = p / self.steps_per_decision as f64;
                    let fallback = Watts::new(currents_now[d] * vdd.get());
                    let forecast = forecaster.forecast(d, fallback).get();
                    self.telemetry
                        .histogram("engine.forecast_error_w", (forecast - actual).abs());
                }
            }
            forecaster.observe(
                &interval_domain_power
                    .iter()
                    .map(|&p| Watts::new(p / self.steps_per_decision as f64))
                    .collect::<Vec<_>>(),
            );
        }

        if noise_secs > 0.0 {
            perf.add("noise", noise_secs);
        }
        if let Some(recorder) = frame_recorder {
            recorder.finish();
        }
        run_span.finish();

        let steps_f = total_steps as f64;
        let heatmap_at_tmax = silicon_at_tmax
            .chunks(self.thermal.grid_size().0)
            .map(<[f64]>::to_vec)
            .collect();
        Ok(SimulationResult {
            spec: spec.clone(),
            policy,
            decisions,
            total_power,
            active_count,
            required_count,
            vr_temps,
            max_temperature_c: max_t,
            max_gradient_c: max_gradient,
            mean_efficiency: if pin_acc > 0.0 {
                pout_acc / pin_acc
            } else {
                1.0
            },
            mean_total_vr_loss_w: loss_acc / steps_f,
            window_noise_percent: window_noise,
            emergency_cycle_fraction: if analyzed_cycles > 0 {
                Some(emergency_cycles as f64 / analyzed_cycles as f64)
            } else {
                None
            },
            heatmap_at_tmax,
            worst_window_trace: worst_window.map(|(_, trace)| trace),
            predictor_r_squared: r_squared,
            perf,
            solver_profile,
        })
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
                .per_regulator_loss(simkit::units::Amps::new(domain_currents[d]), share, vdd)
                .map(|w| w.get())
                .unwrap_or(0.0);
            for &v in domain.vrs() {
                let dp = loss_if_on - current_losses[v.0];
                out[v.0] = predictor.predict(v.0, base_temps[v.0], Watts::new(dp));
            }
        }
        out
    }

    /// Generates the per-domain cycle windows for one noise evaluation
    /// and reduces each to its di/dt response. `didt_severity` is
    /// indexed by domain, so multiprogrammed mixes give each core domain
    /// its own benchmark's di/dt character.
    fn domain_windows(
        &self,
        activities: &[f64],
        didt_severity: &[f64],
        rng: &mut DeterministicRng,
    ) -> Vec<DidtResponse> {
        self.chip
            .domains()
            .iter()
            .map(|domain| {
                let mean_act = domain
                    .blocks()
                    .iter()
                    .map(|&b| activities[b.0])
                    .sum::<f64>()
                    / domain.blocks().len() as f64;
                let window =
                    generate_window(rng, WINDOW_CYCLES, mean_act, didt_severity[domain.id().0]);
                self.analyzer
                    .response(self.pdn.config(), window.multipliers(), WARMUP_CYCLES)
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
        for accuracy in [0.0, 1.0] {
            let edge = EngineConfig {
                predictor_accuracy: accuracy,
                ..tiny_config()
            };
            assert!(edge.validate().is_ok(), "{accuracy}");
        }
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
            EngineConfig {
                predictor_accuracy: 1.5,
                ..tiny_config()
            },
            EngineConfig {
                predictor_accuracy: -0.1,
                ..tiny_config()
            },
            EngineConfig {
                predictor_accuracy: f64::NAN,
                ..tiny_config()
            },
            EngineConfig {
                predictor_accuracy: f64::INFINITY,
                ..tiny_config()
            },
        ];
        for config in bad {
            let err = config.validate().unwrap_err();
            assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
        }
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
        let chip = power8_like();
        // Profiling must fit inside the replayed trace for the synthetic
        // and replay paths to calibrate on identical data.
        let engine = SimulationEngine::new(
            &chip,
            EngineConfig {
                profiling_decisions: 3,
                ..tiny_config()
            },
        );
        // Replaying the same trace the synthetic path would generate
        // reproduces the synthetic result exactly.
        let trace =
            TraceGenerator::new(&chip).generate(Benchmark::Volrend, engine.config().duration);
        let replayed = engine.run_trace(&trace, PolicyKind::OracT).unwrap();
        let synthetic = engine.run(Benchmark::Volrend, PolicyKind::OracT).unwrap();
        assert_eq!(replayed.max_temperature(), synthetic.max_temperature());
        assert_eq!(replayed.max_noise_percent(), synthetic.max_noise_percent());
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
            frame_grid: 8,
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

        // Self-accounting counters land at end of run.
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
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Counter && e.name == "telemetry.overhead"),
            "telemetry.overhead counter missing"
        );

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
        let no_overhead = sink2
            .events()
            .iter()
            .all(|e| e.name != "telemetry.overhead" && e.name != "telemetry.frames");
        assert!(no_overhead, "frames-off run must not self-account");
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
