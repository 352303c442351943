//! Simulation outputs and the metrics the paper reports.

use crate::policy::PolicyKind;
use floorplan::VrId;
use simkit::perf::{PhaseTimes, SolverProfile};
use simkit::series::{TimeSeries, TraceMatrix};
use simkit::units::{Celsius, Watts};
use vreg::GatingState;
use workload::{Benchmark, WorkloadSpec};

/// One gating decision, as taken at a decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Simulation time of the decision, seconds.
    pub time_s: f64,
    /// The gating state applied until the next decision.
    pub gating: GatingState,
    /// Required active regulators per domain at this decision.
    pub n_on: Vec<usize>,
}

impl DecisionRecord {
    /// Total active regulators across the chip under this decision.
    pub fn active_count(&self) -> usize {
        self.gating.active_count()
    }
}

/// The full outcome of one benchmark × policy co-simulation.
///
/// Construction happens inside
/// [`SimulationEngine::run`](crate::SimulationEngine::run); the accessors
/// expose every metric the paper's tables and figures report.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    pub(crate) spec: WorkloadSpec,
    pub(crate) policy: PolicyKind,
    pub(crate) decisions: Vec<DecisionRecord>,
    /// Chip power demand per thermal step, W.
    pub(crate) total_power: TimeSeries,
    /// Active regulator count per thermal step.
    pub(crate) active_count: TimeSeries,
    /// Demand-driven regulator count per thermal step: how many
    /// regulators pure efficiency gating needs right now.
    pub(crate) required_count: TimeSeries,
    /// Per-VR temperature per thermal step, °C.
    pub(crate) vr_temps: TraceMatrix,
    /// Temporal maximum of the spatial maximum temperature (incl. VR
    /// self-heating), °C.
    pub(crate) max_temperature_c: f64,
    /// Temporal maximum of the spatial thermal gradient, °C.
    pub(crate) max_gradient_c: f64,
    /// Time-averaged effective conversion efficiency (ΣP_out / ΣP_in).
    pub(crate) mean_efficiency: f64,
    /// Time-averaged total regulator conversion loss, W.
    pub(crate) mean_total_vr_loss_w: f64,
    /// Chip-wide maximum noise (percent of Vdd) per analyzed window.
    pub(crate) window_noise_percent: Vec<f64>,
    /// Fraction of analyzed cycles spent in voltage emergencies.
    pub(crate) emergency_cycle_fraction: Option<f64>,
    /// Silicon heat map at the instant of the temporal T_max.
    pub(crate) heatmap_at_tmax: Vec<Vec<f64>>,
    /// Per-cycle noise (% of Vdd) over the worst analyzed window.
    pub(crate) worst_window_trace: Option<Vec<f64>>,
    /// Predictor R² (practical policies only).
    pub(crate) predictor_r_squared: Option<f64>,
    /// Wall-clock seconds per simulation phase.
    pub(crate) perf: PhaseTimes,
    /// Aggregated linear-solver convergence statistics per phase.
    pub(crate) solver_profile: SolverProfile,
}

impl SimulationResult {
    /// The simulated workload (single benchmark or multiprogrammed mix).
    pub fn workload(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The simulated benchmark, for single-program runs.
    ///
    /// # Panics
    ///
    /// Panics for a multiprogrammed run; use
    /// [`SimulationResult::workload`] there.
    pub fn benchmark(&self) -> Benchmark {
        self.spec
            .as_single()
            .expect("benchmark() on a multiprogrammed result; use workload()")
    }

    /// The gating policy used.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// All gating decisions in order.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Chip total power demand over time (per thermal step) — the left
    /// axis of Fig. 6.
    pub fn total_power(&self) -> &TimeSeries {
        &self.total_power
    }

    /// Applied active-regulator count over time (step-wise constant per
    /// decision interval under the thermally-aware policies).
    pub fn active_count(&self) -> &TimeSeries {
        &self.active_count
    }

    /// Demand-driven regulator count over time: the cumulative `n_on`
    /// that sustaining peak efficiency requires at each instant — the
    /// right axis of Fig. 6 (Section 6.1's thermally-oblivious gating).
    pub fn required_count(&self) -> &TimeSeries {
        &self.required_count
    }

    /// Mean active-regulator count over the run.
    pub fn mean_active_count(&self) -> f64 {
        self.active_count.mean().unwrap_or(0.0)
    }

    /// Per-regulator temperature histories (°C, per thermal step) — the
    /// Fig. 8 traces.
    pub fn vr_temperatures(&self) -> &TraceMatrix {
        &self.vr_temps
    }

    /// Whether regulator `vr` was on at decision `k`.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn was_on(&self, k: usize, vr: VrId) -> bool {
        self.decisions[k].gating.is_on(vr)
    }

    /// Fraction of decisions during which `vr` was on — the Fig. 13
    /// activity metric.
    ///
    /// # Panics
    ///
    /// Panics when `vr` is out of range for the chip.
    pub fn vr_activity_fraction(&self, vr: VrId) -> f64 {
        if self.decisions.is_empty() {
            return 0.0;
        }
        let on = self.decisions.iter().filter(|d| d.gating.is_on(vr)).count();
        on as f64 / self.decisions.len() as f64
    }

    /// Temporal maximum of the chip-wide maximum temperature — Fig. 9.
    pub fn max_temperature(&self) -> Celsius {
        Celsius::new(self.max_temperature_c)
    }

    /// Temporal maximum of the spatial thermal gradient — Fig. 10.
    pub fn max_gradient(&self) -> f64 {
        self.max_gradient_c
    }

    /// Time-averaged effective conversion efficiency.
    pub fn mean_efficiency(&self) -> f64 {
        self.mean_efficiency
    }

    /// Time-averaged total regulator conversion loss — the quantity whose
    /// savings Fig. 7 reports.
    pub fn mean_total_vr_loss(&self) -> Watts {
        Watts::new(self.mean_total_vr_loss_w)
    }

    /// Maximum voltage noise (percent of Vdd) per analyzed window.
    pub fn window_noise_percent(&self) -> &[f64] {
        &self.window_noise_percent
    }

    /// The overall maximum voltage noise in percent of Vdd — Fig. 11.
    /// `None` when noise was not analyzed (the off-chip baseline).
    pub fn max_noise_percent(&self) -> Option<f64> {
        self.window_noise_percent
            .iter()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Fraction of analyzed cycles spent in voltage emergencies —
    /// Table 2. `None` when noise was not analyzed.
    pub fn emergency_cycle_fraction(&self) -> Option<f64> {
        self.emergency_cycle_fraction
    }

    /// The silicon heat map at the instant the temporal maximum
    /// temperature occurred — the Fig. 12 frames.
    pub fn heatmap_at_tmax(&self) -> &[Vec<f64>] {
        &self.heatmap_at_tmax
    }

    /// Per-cycle noise (% of Vdd) over the worst analyzed window — the
    /// Fig. 14 traces. `None` when noise was not analyzed.
    pub fn worst_window_trace(&self) -> Option<&[f64]> {
        self.worst_window_trace.as_deref()
    }

    /// The thermal predictor's R² over the run (practical policies).
    pub fn predictor_r_squared(&self) -> Option<f64> {
        self.predictor_r_squared
    }

    /// Wall-clock time spent in each simulation phase (trace synthesis,
    /// calibration, steady-state init, policy decisions, transient
    /// stepping, noise analysis).
    pub fn phase_times(&self) -> &PhaseTimes {
        &self.perf
    }

    /// Aggregated linear-solver convergence statistics, keyed by the
    /// phase that issued the solves: `steady` (the leakage-feedback CG
    /// init), `transient` (per-step warm CG), and `noise` (the IR
    /// solves behind every analyzed window).
    pub fn solver_profile(&self) -> &SolverProfile {
        &self.solver_profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::Seconds;

    fn tiny_result() -> SimulationResult {
        let mut gating = GatingState::all_off(4);
        gating.set(VrId(1), true).unwrap();
        let decisions = vec![
            DecisionRecord {
                time_s: 0.0,
                gating: gating.clone(),
                n_on: vec![1],
            },
            DecisionRecord {
                time_s: 1e-3,
                gating: GatingState::all_on(4),
                n_on: vec![4],
            },
        ];
        SimulationResult {
            spec: WorkloadSpec::Single(Benchmark::Fft),
            policy: PolicyKind::OracT,
            decisions,
            total_power: TimeSeries::from_values(Seconds::from_micros(20.0), vec![50.0, 60.0]),
            active_count: TimeSeries::from_values(Seconds::from_micros(20.0), vec![1.0, 4.0]),
            required_count: TimeSeries::from_values(Seconds::from_micros(20.0), vec![2.0, 3.0]),
            vr_temps: TraceMatrix::new(4, Seconds::from_micros(20.0)),
            max_temperature_c: 71.5,
            max_gradient_c: 12.0,
            mean_efficiency: 0.9,
            mean_total_vr_loss_w: 5.0,
            window_noise_percent: vec![8.0, 12.5, 10.0],
            emergency_cycle_fraction: Some(0.001),
            heatmap_at_tmax: vec![vec![50.0; 2]; 2],
            worst_window_trace: Some(vec![1.0, 2.0]),
            predictor_r_squared: None,
            perf: PhaseTimes::new(),
            solver_profile: SolverProfile::new(),
        }
    }

    #[test]
    fn accessors_roundtrip() {
        let r = tiny_result();
        assert_eq!(r.benchmark(), Benchmark::Fft);
        assert_eq!(r.policy(), PolicyKind::OracT);
        assert_eq!(r.decisions().len(), 2);
        assert_eq!(r.max_temperature(), Celsius::new(71.5));
        assert_eq!(r.max_gradient(), 12.0);
        assert_eq!(r.mean_efficiency(), 0.9);
        assert_eq!(r.mean_total_vr_loss(), Watts::new(5.0));
        assert_eq!(r.max_noise_percent(), Some(12.5));
        assert_eq!(r.emergency_cycle_fraction(), Some(0.001));
        assert_eq!(r.worst_window_trace().unwrap().len(), 2);
        assert!(r.predictor_r_squared().is_none());
    }

    #[test]
    fn vr_activity_fraction_counts_decisions() {
        let r = tiny_result();
        // VR1 on in both decisions; VR0 only in the all-on one.
        assert_eq!(r.vr_activity_fraction(VrId(1)), 1.0);
        assert_eq!(r.vr_activity_fraction(VrId(0)), 0.5);
        assert!(r.was_on(0, VrId(1)));
        assert!(!r.was_on(0, VrId(0)));
    }

    #[test]
    fn mean_active_count_averages_series() {
        let r = tiny_result();
        assert!((r.mean_active_count() - 2.5).abs() < 1e-12);
        assert_eq!(r.decisions()[0].active_count(), 1);
    }
}
