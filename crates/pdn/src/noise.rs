//! Combined voltage-noise analysis (static IR drop + transient di/dt).

use crate::config::PdnConfig;
use crate::grid::PdnModel;
use crate::transient::{response_scale, DidtResponse, TransientParams};
use floorplan::{DomainId, Floorplan};
use simkit::perf::SolverAgg;
use simkit::telemetry::{EventKind, Telemetry};
use simkit::units::{Hertz, Seconds, Watts};
use simkit::Result;
use vreg::GatingState;

/// Per-domain maximum voltage noise, as fractions of nominal Vdd.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseReport {
    per_domain: Vec<f64>,
    per_domain_ir: Vec<f64>,
    per_domain_scale: Vec<f64>,
    ir_solve: SolverAgg,
}

impl NoiseReport {
    /// Builds a report from raw per-domain total-noise fractions
    /// (indexed by [`DomainId`]) — mainly for tests and external tooling;
    /// [`NoiseAnalyzer::analyze`] is the normal source of reports. The
    /// static IR component and the transient scales are taken as zero.
    pub fn from_fractions(per_domain: Vec<f64>) -> Self {
        let per_domain_ir = vec![0.0; per_domain.len()];
        let per_domain_scale = vec![0.0; per_domain.len()];
        NoiseReport {
            per_domain,
            per_domain_ir,
            per_domain_scale,
            ir_solve: SolverAgg::default(),
        }
    }

    /// Aggregated CG convergence statistics of the IR solves behind this
    /// report (zero solves for [`NoiseReport::from_fractions`] reports).
    pub fn ir_solve_stats(&self) -> SolverAgg {
        self.ir_solve
    }

    /// The static IR-drop component of one domain's noise, as a fraction
    /// of Vdd (total minus this is the transient peak).
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_ir_fraction(&self, domain: DomainId) -> f64 {
        self.per_domain_ir[domain.0]
    }

    /// The transient scale `a = Z_eff · i_mean / Vdd` of one domain under
    /// the analysed gating: a [`DidtResponse`] magnitude times `a` is
    /// that cycle's transient noise as a fraction of Vdd.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_transient_scale(&self, domain: DomainId) -> f64 {
        self.per_domain_scale[domain.0]
    }

    /// Noise of one domain as a fraction of Vdd.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_fraction(&self, domain: DomainId) -> f64 {
        self.per_domain[domain.0]
    }

    /// Worst noise across all domains, as a fraction of Vdd.
    pub fn max_fraction(&self) -> f64 {
        self.per_domain.iter().copied().fold(0.0, f64::max)
    }

    /// Worst noise across all domains, in percent of Vdd (the unit of
    /// Figs. 11/14/15).
    pub fn max_percent(&self) -> f64 {
        self.max_fraction() * 100.0
    }

    /// Domains whose noise exceeds `threshold_fraction` of Vdd.
    pub fn domains_over(&self, threshold_fraction: f64) -> Vec<DomainId> {
        self.per_domain
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > threshold_fraction)
            .map(|(i, _)| DomainId(i))
            .collect()
    }

    /// All per-domain fractions, indexed by [`DomainId`].
    pub fn fractions(&self) -> &[f64] {
        &self.per_domain
    }
}

/// One noise evaluation's inputs for a single sampled cycle window.
#[derive(Debug)]
pub struct WindowInputs<'a> {
    /// Per-block load powers at the window's instant.
    pub block_powers: &'a [Watts],
    /// Per-domain cycle-current multipliers for the window (indexed by
    /// [`DomainId`]); each slice is one window of per-cycle multipliers.
    pub domain_multipliers: &'a [Vec<f64>],
    /// Warm-up cycles excluded from the peak search.
    pub warmup: usize,
}

/// Combines static IR-drop solves with transient window analysis into the
/// paper's per-domain maximum-voltage-noise metric.
#[derive(Debug, Clone)]
pub struct NoiseAnalyzer {
    frequency: Hertz,
    response_time: Seconds,
    telemetry: Telemetry,
}

impl NoiseAnalyzer {
    /// Creates an analyzer for a chip clocked at `frequency` whose
    /// regulators respond in `response_time`.
    pub fn new(frequency: Hertz, response_time: Seconds) -> Self {
        NoiseAnalyzer {
            frequency,
            response_time,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; each analysis then emits a
    /// `pdn.ir_direct`, `pdn.ir_cg`, or `pdn.ir_mgcg` solve event (aggregated over the
    /// per-domain solves, named after the configured solver backend,
    /// carrying the factor/solve wall-clock split and, as
    /// `basis_solves`, the superposition-basis solves of
    /// [`IrReport::basis_solves`]) and a `pdn.noise_max_pct` gauge.
    ///
    /// [`IrReport::basis_solves`]: crate::IrReport::basis_solves
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Clock frequency used to convert response times to cycles.
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// Regulator response time used for the transient kernel.
    pub fn response_time(&self) -> Seconds {
        self.response_time
    }

    /// The gating-independent di/dt response of one domain window, for
    /// [`NoiseAnalyzer::analyze_responses`].
    ///
    /// # Panics
    ///
    /// Panics when `warmup >= multipliers.len()`.
    pub fn response(&self, config: &PdnConfig, multipliers: &[f64], warmup: usize) -> DidtResponse {
        DidtResponse::new(
            config,
            self.response_time,
            self.frequency,
            multipliers,
            warmup,
        )
    }

    /// Evaluates the total (IR + transient) noise of every domain for one
    /// sampled window under the given gating state.
    ///
    /// # Errors
    ///
    /// Propagates IR-solve errors (floating domains, size mismatches),
    /// and an invalid-argument error for a domain without regulators.
    pub fn analyze(
        &self,
        chip: &Floorplan,
        model: &PdnModel,
        gating: &GatingState,
        inputs: &WindowInputs<'_>,
    ) -> Result<NoiseReport> {
        let peaks: Vec<f64> = inputs
            .domain_multipliers
            .iter()
            .map(|m| self.response(model.config(), m, inputs.warmup).peak())
            .collect();
        self.analyze_responses(chip, model, gating, inputs.block_powers, &peaks)
    }

    /// [`NoiseAnalyzer::analyze`] over windows already reduced to the
    /// peaks of their responses ([`DidtResponse::peak`], indexed by
    /// [`DomainId`]): one IR solve, then each domain's transient peak is
    /// its response peak times the gating's scale. The peak is all of a
    /// window this reads.
    ///
    /// # Errors
    ///
    /// Propagates IR-solve errors (floating domains, size mismatches),
    /// and an invalid-argument error for a domain without regulators.
    pub fn analyze_responses(
        &self,
        chip: &Floorplan,
        model: &PdnModel,
        gating: &GatingState,
        block_powers: &[Watts],
        peaks: &[f64],
    ) -> Result<NoiseReport> {
        let ir = model.ir_drop(gating, block_powers)?;
        let config: &PdnConfig = model.config();
        let vdd = config.vdd;

        let n_domains = chip.domains().len();
        let mut per_domain_ir = Vec::with_capacity(n_domains);
        let mut per_domain_scale = Vec::with_capacity(n_domains);
        let per_domain = chip
            .domains()
            .iter()
            .map(|domain| {
                let d = domain.id();
                let mean_current = domain
                    .blocks()
                    .iter()
                    .map(|&b| block_powers[b.0])
                    .sum::<Watts>()
                    / vdd;
                let params = TransientParams {
                    mean_current,
                    n_active: gating.active_among(domain.vrs()).max(1),
                    n_total: domain.vr_count(),
                    distance_factor: model.active_distance_factor(d, gating, block_powers),
                    response_time: self.response_time,
                    frequency: self.frequency,
                };
                let scale = response_scale(config, &params)? / vdd.get();
                per_domain_ir.push(ir.domain_fraction(d));
                per_domain_scale.push(scale);
                Ok(ir.domain_fraction(d) + scale * peaks[d.0])
            })
            .collect::<Result<_>>()?;
        let report = NoiseReport {
            per_domain,
            per_domain_ir,
            per_domain_scale,
            ir_solve: ir.solve_stats(),
        };
        if self.telemetry.is_enabled() {
            // The fields of `Telemetry::solve_timed`, plus the basis
            // solves: a field rather than a counter event, so that every
            // backend emits the same events.
            let solve = report.ir_solve;
            self.telemetry
                .event(EventKind::Solve, ir.site())
                .field_u64("iters", solve.iterations)
                .field_f64("residual", solve.max_residual)
                .field_str("backend", ir.backend())
                .field_f64("factor_s", ir.factor_seconds())
                .field_f64("solve_s", ir.solve_seconds())
                .field_u64("basis_solves", ir.basis_solves())
                .emit();
            self.telemetry
                .gauge("pdn.noise_max_pct", report.max_percent());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PdnConfig;
    use floorplan::reference::power8_like;
    use simkit::DeterministicRng;

    fn step_window(len: usize, at: usize, height: f64) -> Vec<f64> {
        (0..len)
            .map(|i| if i < at { 1.0 } else { 1.0 + height })
            .collect()
    }

    fn setup() -> (floorplan::Floorplan, PdnModel, NoiseAnalyzer) {
        let chip = power8_like();
        let model = PdnModel::new(&chip, PdnConfig::default());
        let analyzer = NoiseAnalyzer::new(Hertz::from_ghz(4.0), Seconds::from_nanos(15.0));
        (chip, model, analyzer)
    }

    #[test]
    fn all_on_noise_is_in_band() {
        let (chip, model, analyzer) = setup();
        let powers = vec![Watts::new(1.5); chip.blocks().len()];
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|i| step_window(2000, 1200 + 37 * i, 0.25))
            .collect();
        let gating = GatingState::all_on(chip.vr_sites().len());
        let report = analyzer
            .analyze(
                &chip,
                &model,
                &gating,
                &WindowInputs {
                    block_powers: &powers,
                    domain_multipliers: &windows,
                    warmup: 1000,
                },
            )
            .unwrap();
        let pct = report.max_percent();
        assert!(pct > 2.0 && pct < 25.0, "all-on noise {pct}%");
    }

    #[test]
    fn memory_side_gating_worsens_noise() {
        let (chip, model, analyzer) = setup();
        let powers: Vec<Watts> = chip
            .blocks()
            .iter()
            .map(|b| {
                if b.kind().is_logic() {
                    Watts::new(2.5)
                } else {
                    Watts::new(0.5)
                }
            })
            .collect();
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|_| step_window(2000, 1500, 0.3))
            .collect();
        let inputs = WindowInputs {
            block_powers: &powers,
            domain_multipliers: &windows,
            warmup: 1000,
        };
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let base = analyzer.analyze(&chip, &model, &all_on, &inputs).unwrap();
        // OracT-like: keep only memory-side VRs in every core domain.
        let mut gated = all_on.clone();
        for domain in chip.domains() {
            for &v in domain.vrs() {
                if chip.vr_site(v).neighborhood() == floorplan::VrNeighborhood::Logic {
                    gated.set(v, false).unwrap();
                }
            }
        }
        // L3 domains have only memory VRs — all still on; core domains
        // run on 3 of 9.
        let worse = analyzer.analyze(&chip, &model, &gated, &inputs).unwrap();
        assert!(
            worse.max_fraction() > 1.3 * base.max_fraction(),
            "gated {} vs all-on {}",
            worse.max_percent(),
            base.max_percent()
        );
    }

    #[test]
    fn report_scales_reproduce_the_transient_peak() {
        use crate::transient::peak_transient_fraction;

        let (chip, model, analyzer) = setup();
        let powers = vec![Watts::new(1.2); chip.blocks().len()];
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|i| step_window(2000, 1100 + 53 * i, 0.3))
            .collect();
        let mut gating = GatingState::all_on(chip.vr_sites().len());
        for &v in chip.domains()[0].vrs().iter().skip(2) {
            gating.set(v, false).unwrap();
        }
        let inputs = WindowInputs {
            block_powers: &powers,
            domain_multipliers: &windows,
            warmup: 1000,
        };
        let report = analyzer.analyze(&chip, &model, &gating, &inputs).unwrap();
        let responses: Vec<DidtResponse> = windows
            .iter()
            .map(|w| analyzer.response(model.config(), w, 1000))
            .collect();
        let peaks: Vec<f64> = responses.iter().map(DidtResponse::peak).collect();
        let again = analyzer
            .analyze_responses(&chip, &model, &gating, &powers, &peaks)
            .unwrap();
        assert_eq!(report.fractions(), again.fractions());
        for domain in chip.domains() {
            let d = domain.id();
            let params = TransientParams {
                mean_current: domain.blocks().iter().map(|&b| powers[b.0]).sum::<Watts>()
                    / model.config().vdd,
                n_active: gating.active_among(domain.vrs()).max(1),
                n_total: domain.vr_count(),
                distance_factor: model.active_distance_factor(d, &gating, &powers),
                response_time: analyzer.response_time(),
                frequency: analyzer.frequency(),
            };
            let transient = report.domain_fraction(d) - report.domain_ir_fraction(d);
            let scaled = report.domain_transient_scale(d) * responses[d.0].peak();
            assert!((transient - scaled).abs() <= 1e-15, "D{}", d.0);
            let direct =
                peak_transient_fraction(model.config(), &params, &windows[d.0], 1000).unwrap();
            assert!((transient - direct).abs() <= 1e-12 * direct, "D{}", d.0);
        }
    }

    #[test]
    fn domains_over_threshold_detection() {
        let report = NoiseReport::from_fractions(vec![0.05, 0.12, 0.09, 0.15]);
        assert_eq!(report.domains_over(0.10), vec![DomainId(1), DomainId(3)]);
        assert!((report.max_percent() - 15.0).abs() < 1e-12);
        assert_eq!(report.fractions().len(), 4);
    }

    #[test]
    fn analysis_reports_ir_solve_stats_and_emits_telemetry() {
        let (chip, model, mut analyzer) = setup();
        let (tel, sink) = Telemetry::recorder();
        analyzer.set_telemetry(tel);
        let powers = vec![Watts::new(1.0); chip.blocks().len()];
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|_| step_window(2000, 1500, 0.2))
            .collect();
        let gating = GatingState::all_on(chip.vr_sites().len());
        let report = analyzer
            .analyze(
                &chip,
                &model,
                &gating,
                &WindowInputs {
                    block_powers: &powers,
                    domain_multipliers: &windows,
                    warmup: 1000,
                },
            )
            .unwrap();
        let solve = report.ir_solve_stats();
        assert_eq!(solve.solves as usize, chip.domains().len());
        assert!(solve.iterations > 0, "IR solve iterations were dropped");
        assert!(solve.max_residual.is_finite() && solve.max_residual <= 1e-9);
        assert_eq!(sink.count_kind(EventKind::Solve), 1);
        assert_eq!(sink.count_kind(EventKind::Gauge), 1);
        assert!(sink.events().iter().any(|e| e.name == "pdn.noise_max_pct"));
        // The first analysis built every domain's basis, one solve per
        // block; a second one under the same gating builds none.
        analyzer
            .analyze(
                &chip,
                &model,
                &gating,
                &WindowInputs {
                    block_powers: &powers,
                    domain_multipliers: &windows,
                    warmup: 1000,
                },
            )
            .unwrap();
        let basis_solves: Vec<u64> = {
            use simkit::telemetry::analyze::EventView;
            sink.events()
                .iter()
                .filter(|e| e.kind == EventKind::Solve)
                .map(|e| e.num_u64("basis_solves").unwrap())
                .collect()
        };
        assert_eq!(basis_solves, [chip.blocks().len() as u64, 0]);
    }

    #[test]
    fn analysis_is_deterministic() {
        let (chip, model, analyzer) = setup();
        let mut rng = DeterministicRng::new(5);
        let powers: Vec<Watts> = chip
            .blocks()
            .iter()
            .map(|_| Watts::new(1.0 + rng.uniform_f64()))
            .collect();
        let windows: Vec<Vec<f64>> = (0..chip.domains().len())
            .map(|_| step_window(2000, 1500, 0.2))
            .collect();
        let inputs = WindowInputs {
            block_powers: &powers,
            domain_multipliers: &windows,
            warmup: 1000,
        };
        let gating = GatingState::all_on(chip.vr_sites().len());
        let a = analyzer.analyze(&chip, &model, &gating, &inputs).unwrap();
        let b = analyzer.analyze(&chip, &model, &gating, &inputs).unwrap();
        assert_eq!(a, b);
    }
}
