//! Outside-in layer replay for the traced run.
//!
//! After a scenario's `SimulationEngine::run`, the replay calls the same
//! public functions of each crate that the run called, with the run's own
//! inputs (configuration, benchmark, and the gating of every decision
//! from `result.decisions()`) and at the run's call counts, each inside a
//! span. The engine itself stays untouched: the replay mirrors its loop
//! in `crates/core/src/engine.rs` step by step, so a change in a layer's
//! cost shows up in that layer's spans.
//!
//! The mirror is a copy, so every replay checks itself against the run:
//! its steady iterations, transient steps and IR solves must equal the
//! counts of the run's own `solver_profile()`, or the run counts as
//! failed. One input differs by construction. Before each VT decision
//! the engine analyses the *planned* gating, which emergency flags may
//! then change; the result keeps only the final gating, so the replay
//! analyses that. The two differ only in decisions with a flagged
//! emergency, and the IR solve count does not depend on the gating.
//!
//! Noise analysis is replayed through its constituents so that its cost
//! splits into IR solves and the di/dt convolution: each engine call of
//! `NoiseAnalyzer::analyze` becomes one `pdn.ir_drop` plus one
//! `pdn.peak` convolution per domain, and each measured window adds one
//! `pdn.didt` (`transient::cycles_over`) per domain. `analyze` itself is
//! timed on every [`ANALYZE_EVERY`]-th measured window.

use crate::scenario::Cell;
use crate::trace::Tracer;
use experiments::service::{CacheLookup, ScenarioCache, ScenarioSpec};
use experiments::sweep::SweepRecord;
use floorplan::{DomainId, DomainKind, Floorplan, VddDomain};
use pdn::transient::{cycles_over, peak_transient_fraction, TransientParams};
use pdn::{EmergencyDetector, IrReport, NoiseAnalyzer, PdnModel, WindowInputs};
use power::PowerModel;
use simkit::units::Watts;
use simkit::DeterministicRng;
use std::hint::black_box;
use thermal::{PowerMap, ThermalModel, ThermalState};
use thermogater::{
    gating_from_rankings, rank_regulators, EngineConfig, PolicyInputs, PolicyKind,
    SimulationEngine, SimulationResult,
};
use vreg::{GatingState, RegulatorBank};
use workload::microtrace::{generate_window, WARMUP_CYCLES, WINDOW_CYCLES};
use workload::{ActivityTrace, TraceGenerator, WorkloadSpec};

/// Measured windows between two timed `NoiseAnalyzer::analyze` calls.
pub const ANALYZE_EVERY: usize = 8;

/// Solver counts of the replays of a run's first round. The round is the
/// same on every run of a seed, so these counts must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Inner steady-state solver iterations (leakage feedback loop).
    pub steady_iters: u64,
    /// Transient steps replayed.
    pub steps: u64,
    /// Solver iterations over those steps.
    pub step_iters: u64,
    /// Per-domain IR solves.
    pub ir_solves: u64,
    /// Solver iterations over those solves.
    pub ir_iters: u64,
}

/// What the replays of one run add up to.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Counts over the first round only.
    pub counts: Counts,
    /// `IrReport::factor_seconds` summed over every replayed IR solve.
    pub ir_factor_s: f64,
    /// `IrReport::solve_seconds` summed over every replayed IR solve.
    pub ir_solve_s: f64,
    /// Replayed `PdnModel::ir_drop` calls.
    pub ir_calls: u64,
    /// Per replayed scenario: IR drop, di/dt, window generation, and the
    /// engine's own `noise` + `policy` phase seconds.
    pub split: Vec<[f64; 4]>,
}

/// The models a replay calls, built once per run through the same public
/// constructors the engine uses.
#[derive(Debug)]
pub struct Layers<'c> {
    chip: &'c Floorplan,
    config: EngineConfig,
    power: PowerModel,
    thermal: ThermalModel,
    pdn: PdnModel,
    banks: Vec<RegulatorBank>,
    analyzer: NoiseAnalyzer,
    threshold: f64,
}

impl<'c> Layers<'c> {
    /// Builds the power, thermal and PDN models of `config`, timing each
    /// constructor.
    pub fn build(tracer: &mut Tracer, chip: &'c Floorplan, config: &EngineConfig) -> Self {
        let power = tracer.leaf("power.calibrate", 0, || {
            PowerModel::calibrated(chip, config.tech.clone())
        });
        let thermal = tracer.leaf("thermal.build", 0, || {
            ThermalModel::new(chip, config.thermal.clone())
        });
        let pdn = tracer.leaf("pdn.build", 0, || PdnModel::new(chip, config.pdn.clone()));
        Layers {
            chip,
            config: config.clone(),
            power,
            thermal,
            pdn,
            banks: chip
                .domains()
                .iter()
                .map(|d| RegulatorBank::new(config.design.clone(), d.vr_count()))
                .collect(),
            analyzer: NoiseAnalyzer::new(config.tech.frequency, config.design.response_time()),
            threshold: EmergencyDetector::new().threshold_fraction(),
        }
    }

    /// Replays the layer calls of one finished run of `cell` and checks
    /// them against the run's own `solver_profile()`. `counted` adds the
    /// replay's solver counts to `tally.counts`.
    ///
    /// # Errors
    ///
    /// A layer error, or a steady iteration, transient step or IR solve
    /// count other than the engine's. The run the replay mirrors
    /// succeeded, so either is a divergence between replay and engine.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &self,
        tracer: &mut Tracer,
        engine: &SimulationEngine<'_>,
        cell: Cell,
        result: &SimulationResult,
        scenario: u64,
        counted: bool,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let counts = self
            .mirror(tracer, engine, cell, result, scenario, tally)
            .map_err(|e| e.to_string())?;
        let profile = result.solver_profile();
        let site = |name: &str| profile.get(name).unwrap_or_default();
        for (what, engine, replayed) in [
            (
                "steady iterations",
                site("steady").iterations,
                counts.steady_iters,
            ),
            ("transient steps", site("transient").solves, counts.steps),
            ("IR solves", site("noise").solves, counts.ir_solves),
        ] {
            if engine != replayed {
                return Err(format!("{what}: engine {engine}, replay {replayed}"));
            }
        }
        if counted {
            let c = &mut tally.counts;
            c.steady_iters += counts.steady_iters;
            c.steps += counts.steps;
            c.step_iters += counts.step_iters;
            c.ir_solves += counts.ir_solves;
            c.ir_iters += counts.ir_iters;
        }
        Ok(())
    }

    /// The layer calls of one run, each in a span; returns their solver
    /// counts.
    fn mirror(
        &self,
        tracer: &mut Tracer,
        engine: &SimulationEngine<'_>,
        cell: Cell,
        result: &SimulationResult,
        scenario: u64,
        tally: &mut Tally,
    ) -> simkit::Result<Counts> {
        let (chip, cfg, id) = (self.chip, &self.config, scenario);
        let policy = cell.1;
        let spec = WorkloadSpec::Single(cell.0);
        let spd = (cfg.decision_interval.get() / cfg.thermal_step.get()).round() as usize;
        let n_decisions = result.decisions().len();
        let total_steps = n_decisions * spd;
        let mark = tracer.len();
        let mut counts = Counts::default();

        let trace = tracer.leaf("workload.trace_gen", id, || {
            TraceGenerator::new(chip)
                .generate_spec(&spec, cfg.decision_interval * n_decisions as f64)
        });
        let acts = self.step_activities(&trace, total_steps);
        if policy.uses_thermal_ranking() && policy != PolicyKind::Naive && !policy.is_closed_loop()
        {
            tracer.leaf("core.calibrate", id, || {
                engine.calibrate_predictor_spec(&spec)
            })?;
        }

        let steady = tracer.begin("thermal.steady", id);
        let mean_acts = mean_activities(&acts, 0, spd.min(acts.len()));
        let with_vr_loss = policy != PolicyKind::OffChip;
        let (mut state, feedback) = self.thermal.steady_state_with_feedback(60, 0.05, |state| {
            let powers = self.block_powers(&mean_acts, state);
            let mut pm = PowerMap::new(&self.thermal);
            for b in chip.blocks() {
                pm.add_block(b.id(), powers[b.id().0])?;
            }
            if with_vr_loss {
                let vdd = cfg.tech.vdd;
                for domain in chip.domains() {
                    let loss = self.banks[domain.id().0].per_regulator_loss(
                        domain_power(domain, &powers) / vdd,
                        domain.vr_count(),
                        vdd,
                    )?;
                    for &v in domain.vrs() {
                        pm.add_vr(v, loss)?;
                    }
                }
            }
            Ok(pm)
        })?;
        tracer.end(steady);
        counts.steady_iters = feedback.cg.iterations;

        let mut stepper = self.thermal.stepper(cfg.thermal_step);
        let mut vr_losses = vec![0.0f64; chip.vr_sites().len()];
        let mut noise_rng = DeterministicRng::new(cfg.seed ^ spec.seed() ^ 0x4E01);
        let window_steps: Vec<usize> = (0..cfg.noise_window_count)
            .map(|w| {
                ((w as f64 + 0.5) / cfg.noise_window_count as f64 * total_steps as f64) as usize
            })
            .collect();
        let didt = self.domain_didt(&spec);
        let no_emergency = vec![false; chip.domains().len()];
        let no_noise_score = vec![0.0; chip.vr_sites().len()];
        let mut measured = 0usize;

        for (k, decision) in result.decisions().iter().enumerate() {
            let step0 = k * spd;
            let gating = &decision.gating;
            let temps = self.vr_temperatures(&state, &vr_losses);
            tracer.leaf("core.rank", id, || {
                let inputs = PolicyInputs {
                    chip,
                    n_on: &decision.n_on,
                    vr_temp_rank: &temps,
                    vr_noise_score: &no_noise_score,
                    emergency: &no_emergency,
                };
                let rankings = rank_regulators(policy, &inputs)?;
                gating_from_rankings(policy, chip, &rankings, &decision.n_on, &no_emergency)
            })?;

            let windows: Vec<(usize, Vec<Vec<f64>>)> = window_steps
                .iter()
                .copied()
                .filter(|&s| s >= step0 && s < step0 + spd)
                .map(|s| {
                    (
                        s,
                        self.domain_windows(tracer, id, &acts[s], &didt, &mut noise_rng),
                    )
                })
                .collect();
            if policy.reacts_to_emergencies() && !windows.is_empty() {
                let next = mean_activities(&acts, step0, step0 + spd);
                let powers_next = self.block_powers(&next, &state);
                for (_, mults) in &windows {
                    self.ir_and_peak(tracer, id, gating, &powers_next, mults, &mut counts, tally)?;
                }
            }

            for (s, act) in acts.iter().enumerate().skip(step0).take(spd) {
                let powers = self.block_powers(act, &state);
                self.vr_losses(gating, &powers, &mut vr_losses)?;
                let mut pm = PowerMap::new(&self.thermal);
                for b in chip.blocks() {
                    pm.add_block(b.id(), powers[b.id().0])?;
                }
                for site in chip.vr_sites() {
                    let loss = vr_losses[site.id().0];
                    if loss > 0.0 {
                        pm.add_vr(site.id(), Watts::new(loss))?;
                    }
                }
                let solve = tracer.leaf("thermal.step", id, || stepper.step(&mut state, &pm))?;
                counts.steps += 1;
                counts.step_iters += solve.iterations as u64;

                let window = windows.iter().find(|(ws, _)| *ws == s);
                let Some((_, mults)) = window.filter(|_| policy != PolicyKind::OffChip) else {
                    continue;
                };
                let ir =
                    self.ir_and_peak(tracer, id, gating, &powers, mults, &mut counts, tally)?;
                for (d, domain) in chip.domains().iter().enumerate() {
                    let params = self.transient_params(domain, gating, &powers, cfg.tech.vdd.get());
                    let ir_fraction = ir.domain_fraction(DomainId(d));
                    tracer.leaf("pdn.didt", id, || {
                        black_box(cycles_over(
                            &cfg.pdn,
                            &params,
                            &mults[d],
                            WARMUP_CYCLES,
                            ir_fraction,
                            self.threshold,
                        ))
                    });
                }
                if measured.is_multiple_of(ANALYZE_EVERY) {
                    let inputs = WindowInputs {
                        block_powers: &powers,
                        domain_multipliers: mults,
                        warmup: WARMUP_CYCLES,
                    };
                    tracer.leaf("pdn.analyze", id, || {
                        self.analyzer.analyze(chip, &self.pdn, gating, &inputs)
                    })?;
                }
                measured += 1;
            }
        }

        let phases = result.phase_times();
        tally.split.push([
            tracer.sum_since(mark, "pdn.ir_drop"),
            tracer.sum_since(mark, "pdn.peak") + tracer.sum_since(mark, "pdn.didt"),
            tracer.sum_since(mark, "workload.window_gen"),
            phases.seconds("noise") + phases.seconds("policy"),
        ]);
        Ok(counts)
    }

    /// One engine `NoiseAnalyzer::analyze` call through its parts: the
    /// IR-drop solve, then the peak di/dt convolution of every domain.
    #[allow(clippy::too_many_arguments)]
    fn ir_and_peak(
        &self,
        tracer: &mut Tracer,
        id: u64,
        gating: &GatingState,
        powers: &[Watts],
        mults: &[Vec<f64>],
        counts: &mut Counts,
        tally: &mut Tally,
    ) -> simkit::Result<IrReport> {
        let ir = tracer.leaf("pdn.ir_drop", id, || self.pdn.ir_drop(gating, powers))?;
        let solves = ir.solve_stats();
        counts.ir_solves += solves.solves;
        counts.ir_iters += solves.iterations;
        tally.ir_factor_s += ir.factor_seconds();
        tally.ir_solve_s += ir.solve_seconds();
        tally.ir_calls += 1;
        let vdd = self.config.pdn.vdd.get();
        for (d, domain) in self.chip.domains().iter().enumerate() {
            let params = self.transient_params(domain, gating, powers, vdd);
            tracer.leaf("pdn.peak", id, || {
                black_box(peak_transient_fraction(
                    &self.config.pdn,
                    &params,
                    &mults[d],
                    WARMUP_CYCLES,
                ))
            });
        }
        Ok(ir)
    }

    /// Per-thermal-step block activities resampled from `trace`, clamped
    /// at its end (the engine's `steps_from_trace`).
    fn step_activities(&self, trace: &ActivityTrace, total_steps: usize) -> Vec<Vec<f64>> {
        let per_step = (self.config.thermal_step.get() / trace.dt().get())
            .round()
            .max(1.0) as usize;
        let n = trace.sample_count();
        (0..total_steps)
            .map(|s| {
                let lo = (s * per_step).min(n - 1);
                let hi = ((s + 1) * per_step).min(n).max(lo + 1);
                (0..self.chip.blocks().len())
                    .map(|b| {
                        let window = &trace.activity().channel(b)[lo..hi];
                        window.iter().sum::<f64>() / window.len() as f64
                    })
                    .collect()
            })
            .collect()
    }

    fn block_powers(&self, activities: &[f64], state: &ThermalState) -> Vec<Watts> {
        self.chip
            .blocks()
            .iter()
            .map(|b| {
                let t = state.block_temperature(&self.thermal, b.id());
                self.power.block_power(b.id(), activities[b.id().0], t)
            })
            .collect()
    }

    fn vr_temperatures(&self, state: &ThermalState, vr_losses: &[f64]) -> Vec<f64> {
        self.chip
            .vr_sites()
            .iter()
            .map(|site| {
                let loss = Watts::new(vr_losses[site.id().0]);
                state.vr_temperature(&self.thermal, site.id(), loss).get()
            })
            .collect()
    }

    /// Per-regulator conversion loss under `gating` (0 for gated-off
    /// regulators and off-chip domains).
    fn vr_losses(
        &self,
        gating: &GatingState,
        powers: &[Watts],
        out: &mut [f64],
    ) -> simkit::Result<()> {
        let vdd = self.config.tech.vdd;
        out.iter_mut().for_each(|l| *l = 0.0);
        for domain in self.chip.domains() {
            let active = gating.active_among(domain.vrs());
            if active == 0 {
                continue;
            }
            let loss = self.banks[domain.id().0].per_regulator_loss(
                domain_power(domain, powers) / vdd,
                active,
                vdd,
            )?;
            for &v in domain.vrs() {
                if gating.is_on(v) {
                    out[v.0] = loss.get();
                }
            }
        }
        Ok(())
    }

    /// Per-domain di/dt severity: a core domain takes its benchmark's,
    /// shared domains the mean over cores.
    fn domain_didt(&self, spec: &WorkloadSpec) -> Vec<f64> {
        let domains = self.chip.domains();
        let cores = domains
            .iter()
            .filter(|d| d.kind() == DomainKind::Core)
            .count();
        let mut next_core = 0usize;
        domains
            .iter()
            .map(|d| {
                if d.kind() == DomainKind::Core {
                    next_core += 1;
                    spec.profile_for_core(next_core - 1).didt_severity
                } else {
                    spec.mean_didt_severity(cores)
                }
            })
            .collect()
    }

    /// The per-domain cycle windows of one noise evaluation, drawn from
    /// the run's own window stream.
    fn domain_windows(
        &self,
        tracer: &mut Tracer,
        id: u64,
        activities: &[f64],
        didt: &[f64],
        rng: &mut DeterministicRng,
    ) -> Vec<Vec<f64>> {
        self.chip
            .domains()
            .iter()
            .map(|domain| {
                let blocks = domain.blocks();
                let mean =
                    blocks.iter().map(|&b| activities[b.0]).sum::<f64>() / blocks.len() as f64;
                tracer.leaf("workload.window_gen", id, || {
                    generate_window(rng, WINDOW_CYCLES, mean, didt[domain.id().0])
                        .multipliers()
                        .to_vec()
                })
            })
            .collect()
    }

    fn transient_params(
        &self,
        domain: &VddDomain,
        gating: &GatingState,
        powers: &[Watts],
        vdd: f64,
    ) -> TransientParams {
        TransientParams {
            mean_current: domain_power(domain, powers) / simkit::units::Volts::new(vdd),
            n_active: gating.active_among(domain.vrs()).max(1),
            n_total: domain.vr_count(),
            distance_factor: self.pdn.active_distance_factor(domain.id(), gating, powers),
            response_time: self.config.design.response_time(),
            frequency: self.config.tech.frequency,
        }
    }
}

/// Replays the service-layer calls that serving one answered scenario
/// takes: its content hash, a cache store, and a cache load that must
/// return the stored record.
///
/// # Errors
///
/// Describes a load that does not return the stored record.
pub fn serve_replay(
    tracer: &mut Tracer,
    cache: &ScenarioCache,
    spec: &ScenarioSpec,
    record: &SweepRecord,
) -> Result<(), String> {
    let id = tracer.leaf("service.hash", 0, || spec.content_hash());
    tracer.leaf("service.store", id, || cache.store(spec, record));
    match tracer.leaf("service.load", id, || cache.load(spec)) {
        CacheLookup::Hit(back) if back == *record => Ok(()),
        other => Err(format!(
            "{}: replayed cache load gave {other:?}",
            spec.label()
        )),
    }
}

fn domain_power(domain: &VddDomain, powers: &[Watts]) -> Watts {
    domain.blocks().iter().map(|&b| powers[b.0]).sum()
}

fn mean_activities(acts: &[Vec<f64>], lo: usize, hi: usize) -> Vec<f64> {
    let span = &acts[lo..hi];
    let mut out = vec![0.0; span[0].len()];
    for col in span {
        for (o, &a) in out.iter_mut().zip(col) {
            *o += a;
        }
    }
    out.iter_mut().for_each(|o| *o /= span.len() as f64);
    out
}
