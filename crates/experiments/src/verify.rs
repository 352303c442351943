//! Physics-invariant and differential verification — the engine behind
//! the `tg-verify` bin.
//!
//! Three layers, all built on [`simkit::check`]:
//!
//! 1. **Physics/policy oracles** — properties that must hold for *every*
//!    configuration, not just the paper's figure setups: regulator
//!    sizing (`required_active` minimal + sufficient), Eqn-1 loss
//!    consistency, η ≤ η_peak with equality only at the peak-load point,
//!    policy active-set exactness, the VT policies' per-domain all-on
//!    emergency overlay, steady-state thermal energy balance
//!    (heat in ≈ heat out), PDN KCL residual bounds, and PDN linearity.
//! 2. **Differential checks** — direct LDLᵀ vs CG and multigrid-CG vs
//!    Jacobi-CG agreement on random SPD grids and on the real thermal /
//!    PDN matrices, the separable di/dt response vs the direct
//!    convolution on random windows, and serial vs parallel sweep
//!    bit-equality (the cache is cleared between legs so both actually
//!    recompute).
//! 3. **Golden-run comparison** — a committed fixture of tiny-sweep
//!    records, compared field-by-field at relative tolerance; regenerate
//!    with `tg-verify --bless` after an intentional physics change.
//!
//! Failures carry a fully shrunk [`simkit::check::Counterexample`]
//! (base seed + shrunk input), so any red run reproduces offline.

use crate::context::ExpOptions;
use crate::sweep::{self, SweepRecord};
use floorplan::reference::power8_like;
use simkit::check::{self, CheckConfig, CheckOutcome, Checker};
use simkit::linalg::vec_ops;
use simkit::linalg::TripletBuilder;
use simkit::units::{Amps, Volts, Watts};
use std::path::{Path, PathBuf};
use thermal::{PowerMap, ThermalConfig, ThermalModel, ThermalOperator};
use thermogater::{select_gating, PolicyInputs, PolicyKind};
use vreg::{loss, EfficiencyCurve, GatingState, RegulatorBank, RegulatorDesign};
use workload::Benchmark;

/// Default corpus directory: `tests/corpus/` at the repository root.
pub fn default_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Default golden fixture: `crates/experiments/tests/fixtures/golden_tiny.csv`.
pub fn default_golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_tiny.csv")
}

/// Configuration of a `tg-verify` run.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Base seed for every property's per-case RNG streams.
    pub seed: u64,
    /// Random cases per cheap (vreg/policy) oracle; the solver-heavy
    /// oracles use a small fixed fraction of this.
    pub cases: usize,
    /// Reduced-depth mode for CI smoke runs.
    pub fast: bool,
    /// `.case` regression corpus replayed before every random phase.
    pub corpus: Option<PathBuf>,
    /// Where to persist newly shrunk counterexamples (`None` = print
    /// only).
    pub save_dir: Option<PathBuf>,
    /// Thread count of the parallel sweep leg (≥ 2).
    pub threads: usize,
    /// Golden fixture path.
    pub golden: PathBuf,
    /// Regenerate the golden fixture instead of comparing against it.
    pub bless: bool,
    /// Skip the (slow) sweep differential + golden comparison.
    pub skip_sweep: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            seed: 0x7467_2d76_6572_6966, // "tg-verif"
            cases: 48,
            fast: false,
            corpus: Some(default_corpus_dir()),
            save_dir: None,
            threads: 2,
            golden: default_golden_path(),
            bless: false,
            skip_sweep: false,
        }
    }
}

/// Outcome of one named check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Check name (`vreg.required_active`, `diff.golden`, …).
    pub name: String,
    /// Random cases evaluated (0 for non-property checks).
    pub cases: usize,
    /// Corpus cases replayed.
    pub corpus_cases: usize,
    /// `None` when the check passed; the rendered counterexample or
    /// mismatch description otherwise.
    pub failure: Option<String>,
    /// Informational note shown on passing checks (e.g. "blessed").
    pub note: Option<String>,
}

impl CheckReport {
    /// Whether the check passed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// A full verification run.
#[derive(Debug, Clone)]
pub struct VerifyRun {
    /// Per-check outcomes, in execution order.
    pub reports: Vec<CheckReport>,
}

impl VerifyRun {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.reports.iter().all(CheckReport::passed)
    }

    /// Deterministic plain-text report (no timestamps, no paths that
    /// vary run-to-run) — two runs with the same options must render
    /// byte-identically.
    pub fn render(&self, opts: &VerifyOptions) -> String {
        let mut out = String::new();
        out.push_str("tg-verify report\n");
        out.push_str(&format!(
            "seed: {:#018x}  cases: {}  mode: {}  sweep: {}\n\n",
            opts.seed,
            opts.cases,
            if opts.fast { "fast" } else { "full" },
            if opts.skip_sweep { "skipped" } else { "on" },
        ));
        for r in &self.reports {
            match &r.failure {
                None => {
                    let note = r
                        .note
                        .as_deref()
                        .map(|n| format!("  [{n}]"))
                        .unwrap_or_default();
                    out.push_str(&format!(
                        "ok   {:<34} ({} cases + {} corpus){}\n",
                        r.name, r.cases, r.corpus_cases, note
                    ));
                }
                Some(detail) => {
                    out.push_str(&format!("FAIL {}\n", r.name));
                    for line in detail.lines() {
                        out.push_str(&format!("     {line}\n"));
                    }
                }
            }
        }
        let passed = self.reports.iter().filter(|r| r.passed()).count();
        out.push_str(&format!(
            "\nsummary: {passed}/{} checks passed\n",
            self.reports.len()
        ));
        out
    }
}

fn checker(opts: &VerifyOptions, cases: usize) -> Checker {
    Checker::new(CheckConfig {
        seed: opts.seed,
        cases,
        max_shrink_evals: 200,
        corpus: opts.corpus.clone(),
    })
}

fn to_report(name: &str, cases: usize, outcome: CheckOutcome, opts: &VerifyOptions) -> CheckReport {
    match outcome {
        CheckOutcome::Pass {
            cases,
            corpus_cases,
        } => CheckReport {
            name: name.to_string(),
            cases,
            corpus_cases,
            failure: None,
            note: None,
        },
        CheckOutcome::Fail(cex) => {
            let mut detail = cex.render();
            if let Some(dir) = &opts.save_dir {
                match cex.save_into(dir) {
                    Ok(path) => detail.push_str(&format!("\nsaved to {}", path.display())),
                    Err(e) => detail.push_str(&format!("\n(corpus save failed: {e})")),
                }
            }
            CheckReport {
                name: name.to_string(),
                cases,
                corpus_cases: 0,
                failure: Some(detail),
                note: None,
            }
        }
    }
}

fn err_str(e: simkit::Error) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Physics / policy oracles
// ---------------------------------------------------------------------------

/// `required_active` is minimal and sufficient for the demand.
pub fn oracle_required_active(opts: &VerifyOptions) -> CheckReport {
    let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
    let peak = bank.design().peak_current().get();
    let gen = check::f64_in(0.0, 20.0);
    let outcome = checker(opts, opts.cases).run("vreg.required_active", &gen, |&demand| {
        let n = bank.required_active(Amps::new(demand));
        check::ensure((1..=9).contains(&n), || format!("n = {n} outside 1..=9"))?;
        if demand > 0.0 && n < 9 {
            check::ensure(demand / n as f64 <= peak + 1e-12, || {
                format!(
                    "insufficient: {n} regulators carry {} A each",
                    demand / n as f64
                )
            })?;
        }
        if n > 1 {
            check::ensure(demand / (n as f64 - 1.0) > peak - 1e-12, || {
                format!("not minimal: {} regulators would already suffice", n - 1)
            })?;
        }
        Ok(())
    });
    to_report("vreg.required_active", opts.cases, outcome, opts)
}

/// Eqn 1 consistency: the bank's reported per-regulator and total losses
/// equal `P_out·(1/η − 1)` computed from its own reported efficiency.
pub fn oracle_loss_eqn1(opts: &VerifyOptions) -> CheckReport {
    let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
    let vdd = Volts::new(1.0);
    let gen = (check::f64_in(1e-3, 25.0), check::usize_in(1, 9));
    let outcome = checker(opts, opts.cases).run("vreg.loss_eqn1", &gen, |&(demand, n_on)| {
        let share = bank
            .per_regulator_current(Amps::new(demand), n_on)
            .map_err(err_str)?;
        let eta = bank.efficiency(Amps::new(demand), n_on).map_err(err_str)?;
        let per = bank
            .per_regulator_loss(Amps::new(demand), n_on, vdd)
            .map_err(err_str)?;
        let total = bank
            .total_loss(Amps::new(demand), n_on, vdd)
            .map_err(err_str)?;
        let p_out = Watts::new(vdd.get() * share.get());
        let expect = loss::conversion_loss(p_out, eta);
        check::ensure(
            (per.get() - expect.get()).abs() <= 1e-9 * expect.get().max(1e-9),
            || format!("per-regulator loss {per:?} != Eqn-1 value {expect:?}"),
        )?;
        check::ensure(
            (total.get() - n_on as f64 * per.get()).abs() <= 1e-9 * total.get().max(1e-9),
            || format!("total loss {total:?} != n_on × per-regulator loss"),
        )?;
        let p_in = loss::input_power(p_out, eta);
        check::ensure(
            (p_in.get() * eta - p_out.get()).abs() <= 1e-9 * p_out.get().max(1e-9),
            || "P_in·η != P_out".to_string(),
        )
    });
    to_report("vreg.loss_eqn1", opts.cases, outcome, opts)
}

/// η never exceeds η_peak, with equality only at the peak-load point.
pub fn oracle_eta_peak(opts: &VerifyOptions) -> CheckReport {
    let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
    let peak_eta = bank.design().peak_efficiency();
    let peak_i = bank.design().peak_current().get();
    let gen = (check::f64_in(1e-3, 25.0), check::usize_in(1, 9));
    let outcome = checker(opts, opts.cases).run("vreg.eta_peak", &gen, |&(demand, n_on)| {
        let share = bank
            .per_regulator_current(Amps::new(demand), n_on)
            .map_err(err_str)?;
        let eta = bank.efficiency(Amps::new(demand), n_on).map_err(err_str)?;
        check::ensure(eta <= peak_eta + 1e-12, || {
            format!("η = {eta} exceeds η_peak = {peak_eta}")
        })?;
        if eta > peak_eta - 1e-12 {
            check::ensure((share.get() - peak_i).abs() <= 1e-6, || {
                format!(
                    "η hit the peak at share {} A, but the peak-load point is {peak_i} A",
                    share.get()
                )
            })?;
        }
        Ok(())
    });
    to_report("vreg.eta_peak", opts.cases, outcome, opts)
}

/// The bank's efficiency agrees point-for-point with a reference curve.
///
/// Exposed with an explicit `bank`/`reference` so the fault-injection
/// test can demonstrate that a 1 %-perturbed efficiency curve is caught:
/// the reference is rebuilt from the *shape* the design claims
/// ([`EfficiencyCurve::scaled_reference`] through the design's peak), so
/// any deviation of the actual curve from that shape fails the oracle.
pub fn curve_consistency_outcome(
    bank: &RegulatorBank,
    reference: &EfficiencyCurve,
    checker: &Checker,
) -> CheckOutcome {
    let gen = (check::f64_in(1e-3, 25.0), check::usize_in(1, bank.total()));
    checker.run("vreg.curve_consistency", &gen, |&(demand, n_on)| {
        let share = bank
            .per_regulator_current(Amps::new(demand), n_on)
            .map_err(err_str)?;
        let eta = bank.efficiency(Amps::new(demand), n_on).map_err(err_str)?;
        let expected = reference.eval(share);
        check::ensure((eta - expected).abs() <= 1e-9 * expected.max(1e-3), || {
            format!(
                "η({} A) = {eta}, reference shape says {expected}",
                share.get()
            )
        })
    })
}

/// [`curve_consistency_outcome`] for the stock FIVR design.
pub fn oracle_curve_consistency(opts: &VerifyOptions) -> CheckReport {
    let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
    let reference = EfficiencyCurve::scaled_reference(
        bank.design().peak_efficiency(),
        bank.design().peak_current(),
    )
    .expect("reference shape is valid");
    let outcome = curve_consistency_outcome(&bank, &reference, &checker(opts, opts.cases));
    to_report("vreg.curve_consistency", opts.cases, outcome, opts)
}

/// Gating policies activate exactly `n_on` regulators per domain
/// (clamped to the domain's VR count) absent emergencies.
pub fn oracle_policy_active_set(opts: &VerifyOptions) -> CheckReport {
    let chip = power8_like();
    let n_vrs = chip.vr_sites().len();
    let gen = (
        check::vec_of(check::f64_in(20.0, 120.0), n_vrs, n_vrs),
        check::usize_in(1, 9),
        check::usize_in(1, 3),
    );
    let outcome =
        checker(opts, opts.cases).run("policy.active_set", &gen, |(temps, n_on_core, n_on_l3)| {
            let n_on: Vec<usize> = chip
                .domains()
                .iter()
                .map(|d| {
                    if d.vr_count() == 9 {
                        *n_on_core
                    } else {
                        *n_on_l3
                    }
                })
                .collect();
            let noise = vec![0.0; n_vrs];
            let emergency = vec![false; chip.domains().len()];
            let inputs = PolicyInputs {
                chip: &chip,
                n_on: &n_on,
                vr_temp_rank: temps,
                vr_noise_score: &noise,
                emergency: &emergency,
            };
            for kind in [
                PolicyKind::Naive,
                PolicyKind::OracT,
                PolicyKind::OracV,
                PolicyKind::PracT,
            ] {
                let state = select_gating(kind, &inputs).map_err(err_str)?;
                let mut sum = 0;
                for domain in chip.domains() {
                    let want = n_on[domain.id().0].min(domain.vr_count());
                    let got = state.active_among(domain.vrs());
                    check::ensure(got == want, || {
                        format!(
                            "{kind:?}: domain D{} has {got} active, wanted {want}",
                            domain.id().0
                        )
                    })?;
                    sum += got;
                }
                check::ensure(state.active_count() == sum, || {
                    format!(
                        "{kind:?}: {} regulators on chip-wide, but domains account for {sum}",
                        state.active_count()
                    )
                })?;
            }
            Ok(())
        });
    to_report("policy.active_set", opts.cases, outcome, opts)
}

/// The VT policies force per-domain all-on exactly on flagged domains;
/// non-reactive policies ignore the flags.
pub fn oracle_policy_emergency(opts: &VerifyOptions) -> CheckReport {
    let chip = power8_like();
    let n_vrs = chip.vr_sites().len();
    let n_domains = chip.domains().len();
    let gen = (
        check::vec_of(check::f64_in(20.0, 120.0), n_vrs, n_vrs),
        check::vec_of(check::bool_any(), n_domains, n_domains),
        check::usize_in(1, 9),
    );
    let outcome = checker(opts, opts.cases).run(
        "policy.emergency_all_on",
        &gen,
        |(temps, flags, n_on_core)| {
            let n_on: Vec<usize> = chip
                .domains()
                .iter()
                .map(|d| (*n_on_core).min(d.vr_count()))
                .collect();
            let noise = vec![0.0; n_vrs];
            let inputs = PolicyInputs {
                chip: &chip,
                n_on: &n_on,
                vr_temp_rank: temps,
                vr_noise_score: &noise,
                emergency: flags,
            };
            for kind in [PolicyKind::OracVT, PolicyKind::PracVT] {
                let state = select_gating(kind, &inputs).map_err(err_str)?;
                for domain in chip.domains() {
                    let d = domain.id().0;
                    let got = state.active_among(domain.vrs());
                    let want = if flags[d] {
                        domain.vr_count()
                    } else {
                        n_on[d].min(domain.vr_count())
                    };
                    check::ensure(got == want, || {
                        format!(
                            "{kind:?}: domain D{d} (emergency={}) has {got} active, wanted {want}",
                            flags[d]
                        )
                    })?;
                }
            }
            // A non-reactive policy must ignore the flags entirely.
            let state = select_gating(PolicyKind::OracT, &inputs).map_err(err_str)?;
            for domain in chip.domains() {
                let d = domain.id().0;
                let got = state.active_among(domain.vrs());
                let want = n_on[d].min(domain.vr_count());
                check::ensure(got == want, || {
                    format!("OracT reacted to an emergency flag on domain D{d}")
                })?;
            }
            Ok(())
        },
    );
    to_report("policy.emergency_all_on", opts.cases, outcome, opts)
}

/// Steady-state energy balance: convective outflow equals total injected
/// power, and the temperature field solves the conductance system.
pub fn oracle_thermal_energy_balance(opts: &VerifyOptions) -> CheckReport {
    let cases = if opts.fast { 2 } else { 4 };
    let chip = power8_like();
    let model = ThermalModel::new(
        &chip,
        ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::coarse()
        },
    );
    let n_blocks = chip.blocks().len();
    let gen = check::vec_of(check::f64_in(0.0, 8.0), n_blocks, n_blocks);
    let outcome = checker(opts, cases).run("thermal.energy_balance", &gen, |powers| {
        let mut pm = PowerMap::new(&model);
        for (block, &p) in chip.blocks().iter().zip(powers) {
            pm.add_block(block.id(), Watts::new(p)).map_err(err_str)?;
        }
        let state = model.steady_state(&pm).map_err(err_str)?;
        let outflow = model.heat_outflow(&state).get();
        let total = pm.total().get();
        check::ensure((outflow - total).abs() <= 1e-5 * total.max(1e-3), || {
            format!("heat out {outflow} W vs heat in {total} W")
        })?;
        let residual = model.balance_residual(&pm, &state);
        check::ensure(residual <= 1e-6, || {
            format!("steady-state balance residual {residual:e} above 1e-6")
        })
    });
    to_report("thermal.energy_balance", cases, outcome, opts)
}

/// Every PDN domain solve satisfies KCL to solver tolerance.
pub fn oracle_pdn_kcl(opts: &VerifyOptions) -> CheckReport {
    use pdn::{PdnConfig, PdnModel};
    let cases = if opts.fast { 2 } else { 4 };
    let chip = power8_like();
    let model = PdnModel::new(&chip, PdnConfig::reference());
    let gating = GatingState::all_on(chip.vr_sites().len());
    let n_blocks = chip.blocks().len();
    let gen = check::vec_of(check::f64_in(0.0, 4.0), n_blocks, n_blocks);
    let outcome = checker(opts, cases).run("pdn.kcl", &gen, |powers| {
        let watts: Vec<Watts> = powers.iter().map(|&p| Watts::new(p)).collect();
        let residual = model.kcl_residual(&gating, &watts).map_err(err_str)?;
        check::ensure(residual <= 1e-6, || {
            format!("KCL residual {residual:e} above 1e-6")
        })
    });
    to_report("pdn.kcl", cases, outcome, opts)
}

/// The PDN is linear: scaling every load scales every domain's worst
/// drop by the same factor.
pub fn oracle_pdn_linearity(opts: &VerifyOptions) -> CheckReport {
    use pdn::{PdnConfig, PdnModel};
    let cases = if opts.fast { 2 } else { 3 };
    let chip = power8_like();
    let model = PdnModel::new(&chip, PdnConfig::reference());
    let gating = GatingState::all_on(chip.vr_sites().len());
    let n_blocks = chip.blocks().len();
    let gen = (
        check::vec_of(check::f64_in(0.0, 4.0), n_blocks, n_blocks),
        check::f64_in(0.25, 4.0),
    );
    let outcome = checker(opts, cases).run("pdn.linearity", &gen, |(powers, scale)| {
        let to_watts = |v: &[f64]| v.iter().map(|&p| Watts::new(p)).collect::<Vec<_>>();
        let scaled: Vec<f64> = powers.iter().map(|&p| p * scale).collect();
        let base = model.ir_drop(&gating, &to_watts(powers)).map_err(err_str)?;
        let big = model
            .ir_drop(&gating, &to_watts(&scaled))
            .map_err(err_str)?;
        for d in 0..chip.domains().len() {
            let id = floorplan::DomainId(d);
            let lhs = big.domain_volts(id);
            let rhs = base.domain_volts(id) * scale;
            check::ensure((lhs - rhs).abs() < 1e-6 * scale.max(1.0), || {
                format!("homogeneity broke on domain D{d}: {lhs} vs {rhs}")
            })?;
        }
        Ok(())
    });
    to_report("pdn.linearity", cases, outcome, opts)
}

// ---------------------------------------------------------------------------
// Differential checks
// ---------------------------------------------------------------------------

/// Solves `A·x = b` with both the tightly-converged CG path and the
/// direct LDLᵀ factorization and demands max-abs agreement within
/// `1e-8 × scale`.
fn direct_matches_cg(tag: &str, a: &simkit::linalg::CsrMatrix, b: &[f64]) -> Result<(), String> {
    use simkit::linalg::{LdltFactor, LdltWorkspace};
    let n = a.rows();
    let x_cg = a
        .solve_cg(b, None, 1e-12, 40 * n.max(1))
        .map_err(|e| format!("{tag}: CG failed: {e}"))?;
    let factor = LdltFactor::new(a).map_err(|e| format!("{tag}: factorization failed: {e}"))?;
    let mut ws = LdltWorkspace::new();
    let mut x = vec![0.0; n];
    factor
        .solve_into(b, &mut x, &mut ws)
        .map_err(|e| format!("{tag}: direct solve failed: {e}"))?;
    let diff = vec_ops::max_abs_diff(&x_cg, &x);
    let scale = x_cg.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
    if diff > 1e-8 * scale {
        return Err(format!(
            "{tag}: direct and CG solutions differ by {diff:e} (scale {scale:e})"
        ));
    }
    Ok(())
}

/// The direct LDLᵀ backend agrees with CG on the *real* model matrices:
/// the thermal conductance system and every PDN domain grid under a
/// partially gated configuration.
fn direct_vs_cg_real_matrices() -> Result<(), String> {
    let chip = power8_like();
    let model = ThermalModel::new(
        &chip,
        ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::coarse()
        },
    );
    let n = model.node_count();
    // A deterministic, spatially varying heat load.
    let b: Vec<f64> = (0..n).map(|i| 0.25 + 0.5 * (i % 7) as f64).collect();
    direct_matches_cg("thermal conductance", model.conductance_matrix(), &b)?;

    let pdn_model = pdn::PdnModel::new(&chip, pdn::PdnConfig::reference());
    let mut gating = GatingState::all_on(chip.vr_sites().len());
    for &v in chip.domains()[0].vrs().iter().skip(3) {
        gating.set(v, false).map_err(err_str)?;
    }
    for domain in chip.domains() {
        let a = pdn_model
            .domain_system(domain.id(), &gating)
            .map_err(err_str)?;
        let b: Vec<f64> = (0..a.rows()).map(|i| 0.3 * (i % 5) as f64).collect();
        direct_matches_cg(&format!("pdn domain D{}", domain.id().0), &a, &b)?;
    }
    Ok(())
}

/// The direct LDLᵀ solver matches CG on random SPD grid systems and on
/// the real thermal / PDN matrices. The corpus pins the boundary shapes:
/// a 1×1 system, a singleton pure-diagonal domain, and a grid with a
/// disconnected node.
pub fn diff_direct_vs_cg(opts: &VerifyOptions) -> CheckReport {
    let cases = if opts.fast { 3 } else { 8 };
    if let Err(detail) = direct_vs_cg_real_matrices() {
        return CheckReport {
            name: "diff.direct_vs_cg".to_string(),
            cases: 0,
            corpus_cases: 0,
            failure: Some(detail),
            note: None,
        };
    }
    let gen = (
        check::usize_in(1, 12),
        check::vec_of(check::f64_in(0.05, 3.0), 1, 16),
        check::vec_of(check::f64_in(-1.0, 1.0), 1, 16),
        check::bool_any(),
    );
    let outcome = checker(opts, cases).run(
        "diff.direct_vs_cg",
        &gen,
        |(side, loading, rhs, disconnect)| {
            let side = *side;
            let n = side * side;
            // A side×side grid Laplacian with positive diagonal loading;
            // `disconnect` isolates the last node (pure diagonal, no
            // couplings) to exercise effectively-singleton structure.
            let isolated = if *disconnect && n > 1 {
                Some(n - 1)
            } else {
                None
            };
            let mut builder = TripletBuilder::new(n, n);
            for j in 0..side {
                for i in 0..side {
                    let cell = j * side + i;
                    let mut degree = 0.0;
                    if Some(cell) != isolated {
                        for (di, dj) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                            let (ni, nj) = (i as i64 + di, j as i64 + dj);
                            if (0..side as i64).contains(&ni) && (0..side as i64).contains(&nj) {
                                let other = (nj * side as i64 + ni) as usize;
                                if Some(other) != isolated {
                                    builder.add(cell, other, -1.0);
                                    degree += 1.0;
                                }
                            }
                        }
                    }
                    builder.add(cell, cell, degree + loading[cell % loading.len()]);
                }
            }
            let a = builder.build();
            let b: Vec<f64> = (0..n).map(|c| rhs[c % rhs.len()]).collect();
            direct_matches_cg("random grid", &a, &b)
        },
    );
    to_report("diff.direct_vs_cg", cases, outcome, opts)
}

/// Solves `A x = b` with multigrid-preconditioned CG and with plain
/// Jacobi-CG and insists the solutions agree to `1e-8` relative — a
/// wrong transfer operator or Galerkin product still converges
/// somewhere, just not to the same place.
fn mgcg_matches_cg(
    tag: &str,
    a: &simkit::linalg::CsrMatrix,
    geometry: simkit::linalg::multigrid::GridGeometry,
    b: &[f64],
) -> Result<(), String> {
    use simkit::linalg::{multigrid::MultigridPreconditioner, solve_cg, CgWorkspace};
    let n = a.rows();
    let x_cg = a
        .solve_cg(b, None, 1e-12, 40 * n.max(1))
        .map_err(|e| format!("{tag}: CG failed: {e}"))?;
    let mg = MultigridPreconditioner::new(a, geometry)
        .map_err(|e| format!("{tag}: hierarchy setup failed: {e}"))?;
    let cycle = mg
        .v_cycle(a)
        .map_err(|e| format!("{tag}: hierarchy dimension: {e}"))?;
    let mut x = vec![0.0; n];
    let mut ws = CgWorkspace::new();
    solve_cg(a, b, &mut x, &cycle, &mut ws, 1e-12, 40 * n.max(1))
        .map_err(|e| format!("{tag}: mgcg solve failed: {e}"))?;
    let diff = vec_ops::max_abs_diff(&x_cg, &x);
    let scale = x_cg.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
    if diff > 1e-8 * scale {
        return Err(format!(
            "{tag}: mgcg and CG solutions differ by {diff:e} (scale {scale:e})"
        ));
    }
    Ok(())
}

/// Multigrid-CG agrees with Jacobi-CG on the *real* model matrices: the
/// two-layer-plus-sink thermal conductance system and every PDN domain
/// sheet under a partially gated configuration.
fn mgcg_vs_cg_real_matrices() -> Result<(), String> {
    use simkit::linalg::multigrid::GridGeometry;
    let chip = power8_like();
    let model = ThermalModel::new(
        &chip,
        ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::coarse()
        },
    );
    let n = model.node_count();
    let b: Vec<f64> = (0..n).map(|i| 0.25 + 0.5 * (i % 7) as f64).collect();
    mgcg_matches_cg(
        "thermal conductance",
        model.conductance_matrix(),
        model.grid_geometry(),
        &b,
    )?;

    let pdn_model = pdn::PdnModel::new(&chip, pdn::PdnConfig::reference());
    let mut gating = GatingState::all_on(chip.vr_sites().len());
    for &v in chip.domains()[0].vrs().iter().skip(3) {
        gating.set(v, false).map_err(err_str)?;
    }
    for domain in chip.domains() {
        let a = pdn_model
            .domain_system(domain.id(), &gating)
            .map_err(err_str)?;
        let (nx, ny) = pdn_model.domain_grid_size(domain.id());
        let b: Vec<f64> = (0..a.rows()).map(|i| 0.3 * (i % 5) as f64).collect();
        mgcg_matches_cg(
            &format!("pdn domain D{}", domain.id().0),
            &a,
            GridGeometry::new(nx, ny, 1, 0),
            &b,
        )?;
    }
    Ok(())
}

/// Multigrid-preconditioned CG matches Jacobi-CG on random SPD grid
/// Laplacians (with an optional sink-style extra node, exercising the
/// uncoarsened-extra path) and on the real thermal / PDN matrices.
pub fn diff_mgcg_vs_cg(opts: &VerifyOptions) -> CheckReport {
    use simkit::linalg::multigrid::GridGeometry;
    let cases = if opts.fast { 3 } else { 8 };
    if let Err(detail) = mgcg_vs_cg_real_matrices() {
        return CheckReport {
            name: "diff.mgcg_vs_cg".to_string(),
            cases: 0,
            corpus_cases: 0,
            failure: Some(detail),
            note: None,
        };
    }
    let gen = (
        check::usize_in(1, 12),
        check::vec_of(check::f64_in(0.05, 3.0), 1, 16),
        check::vec_of(check::f64_in(-1.0, 1.0), 1, 16),
        check::bool_any(),
    );
    let outcome = checker(opts, cases).run(
        "diff.mgcg_vs_cg",
        &gen,
        |(side, loading, rhs, with_sink)| {
            let side = *side;
            let cells = side * side;
            let extra = usize::from(*with_sink);
            let n = cells + extra;
            // A side×side grid Laplacian with positive diagonal loading;
            // `with_sink` appends one off-grid node coupled to every
            // cell — the shape of the thermal sink, which multigrid must
            // carry uncoarsened through every level.
            let mut builder = TripletBuilder::new(n, n);
            for j in 0..side {
                for i in 0..side {
                    let cell = j * side + i;
                    let mut degree = 0.0;
                    for (di, dj) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                        let (ni, nj) = (i as i64 + di, j as i64 + dj);
                        if (0..side as i64).contains(&ni) && (0..side as i64).contains(&nj) {
                            builder.add(cell, (nj * side as i64 + ni) as usize, -1.0);
                            degree += 1.0;
                        }
                    }
                    if extra == 1 {
                        builder.add(cell, cells, -0.25);
                        builder.add(cells, cell, -0.25);
                        degree += 0.25;
                    }
                    builder.add(cell, cell, degree + loading[cell % loading.len()]);
                }
            }
            if extra == 1 {
                builder.add(
                    cells,
                    cells,
                    0.25 * cells as f64 + loading[cells % loading.len()],
                );
            }
            let a = builder.build();
            let b: Vec<f64> = (0..n).map(|c| rhs[c % rhs.len()]).collect();
            mgcg_matches_cg(
                "random grid",
                &a,
                GridGeometry::new(side, side, 1, extra),
                &b,
            )
        },
    );
    to_report("diff.mgcg_vs_cg", cases, outcome, opts)
}

/// The thermal system in both forms: the assembled CSR matrix (`G`,
/// or `G + C/Δt` when `dt` is given) and the matrix-free
/// [`ThermalOperator`] the solvers apply.
fn thermal_system_forms(
    model: &ThermalModel,
    dt: Option<simkit::units::Seconds>,
) -> (simkit::linalg::CsrMatrix, ThermalOperator) {
    match dt {
        Some(dt) => (
            model.backward_euler_matrix(dt),
            model.stepper(dt).operator().clone(),
        ),
        None => (model.conductance_matrix().clone(), model.operator().clone()),
    }
}

/// The stencil reproduces CSR·x to 1e-12 relative, and CG over the
/// stencil solves `A x = b` to the same answer (1e-8 relative) as CG over
/// the CSR matrix, both Jacobi-preconditioned.
fn stencil_matches_csr(
    tag: &str,
    csr: &simkit::linalg::CsrMatrix,
    op: &ThermalOperator,
    x: &[f64],
) -> Result<(), String> {
    use simkit::linalg::{solve_cg, CgWorkspace, JacobiPreconditioner, LinearOperator};
    let n = csr.rows();
    if op.dim() != n {
        return Err(format!("{tag}: stencil dimension {} vs CSR {n}", op.dim()));
    }
    let mut want = vec![0.0; n];
    csr.mul_vec_into(x, &mut want);
    let mut got = vec![f64::NAN; n];
    op.apply_into(x, &mut got);
    let scale = want.iter().fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
    let diff = vec_ops::max_abs_diff(&got, &want);
    if diff > 1e-12 * scale {
        return Err(format!(
            "{tag}: stencil·x and CSR·x differ by {diff:e} (scale {scale:e})"
        ));
    }
    let pre = JacobiPreconditioner::new(csr).map_err(|e| format!("{tag}: {e}"))?;
    let mut ws = CgWorkspace::new();
    let mut x_csr = vec![0.0; n];
    solve_cg(csr, x, &mut x_csr, &pre, &mut ws, 1e-12, 40 * n.max(1))
        .map_err(|e| format!("{tag}: CSR CG failed: {e}"))?;
    let mut x_op = vec![0.0; n];
    solve_cg(op, x, &mut x_op, &pre, &mut ws, 1e-12, 40 * n.max(1))
        .map_err(|e| format!("{tag}: stencil CG failed: {e}"))?;
    let diff = vec_ops::max_abs_diff(&x_csr, &x_op);
    let scale = x_csr.iter().fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
    if diff > 1e-8 * scale {
        return Err(format!(
            "{tag}: stencil and CSR CG solutions differ by {diff:e} (scale {scale:e})"
        ));
    }
    Ok(())
}

/// A power8-like thermal model on an `nx × ny` grid.
fn thermal_model(nx: usize, ny: usize) -> ThermalModel {
    ThermalModel::new(
        &power8_like(),
        ThermalConfig {
            nx,
            ny,
            ..ThermalConfig::coarse()
        },
    )
}

/// The stencil against the CSR matrix on the real 16×16 model, steady
/// (`d = 0`) and backward-Euler (`d = C/Δt`); and a steady state solved
/// through the stencil balances the CSR `G` to the solver tolerance.
fn stencil_vs_csr_real_model() -> Result<(), String> {
    let chip = power8_like();
    let model = thermal_model(16, 16);
    let n = model.node_count();
    let x: Vec<f64> = (0..n).map(|i| 45.0 + 0.5 * (i % 7) as f64).collect();
    for dt in [None, Some(simkit::units::Seconds::from_micros(20.0))] {
        let (csr, op) = thermal_system_forms(&model, dt);
        stencil_matches_csr(&format!("16x16 model, dt {dt:?}"), &csr, &op, &x)?;
    }
    let mut power = PowerMap::new(&model);
    for (i, block) in chip.blocks().iter().enumerate() {
        power
            .add_block(block.id(), Watts::new(0.5 + 0.25 * (i % 5) as f64))
            .map_err(err_str)?;
    }
    let state = model.steady_state(&power).map_err(err_str)?;
    let residual = model.balance_residual(&power, &state);
    if residual > 1e-9 {
        return Err(format!(
            "16x16 model: stencil steady state leaves CSR residual {residual:e}"
        ));
    }
    Ok(())
}

/// The matrix-free thermal stencil matches the assembled CSR system:
/// on random `nx × ny` grids (1..=12 per edge, steady and
/// backward-Euler diagonals) its product and its CG solution equal the
/// CSR ones, and on the real 16×16 model a steady state solved through
/// the stencil balances the CSR `G`. The corpus pins the 1×1 grid (no
/// lateral couplings at all) and a 1×N strip (no x-neighbours).
pub fn diff_thermal_stencil_vs_csr(opts: &VerifyOptions) -> CheckReport {
    let cases = if opts.fast { 6 } else { 24 };
    if let Err(detail) = stencil_vs_csr_real_model() {
        return CheckReport {
            name: "diff.thermal_stencil_vs_csr".to_string(),
            cases: 0,
            corpus_cases: 0,
            failure: Some(detail),
            note: None,
        };
    }
    let gen = (
        check::usize_in(1, 12),
        check::usize_in(1, 12),
        check::vec_of(check::f64_in(-1.0, 1.0), 1, 16),
        check::bool_any(),
    );
    let outcome = checker(opts, cases).run(
        "diff.thermal_stencil_vs_csr",
        &gen,
        |(nx, ny, values, transient)| {
            let model = thermal_model(*nx, *ny);
            let dt = transient.then(|| simkit::units::Seconds::from_micros(20.0));
            let (csr, op) = thermal_system_forms(&model, dt);
            let x: Vec<f64> = (0..model.node_count())
                .map(|i| values[i % values.len()])
                .collect();
            stencil_matches_csr(&format!("{nx}x{ny} grid"), &csr, &op, &x)
        },
    );
    to_report("diff.thermal_stencil_vs_csr", cases, outcome, opts)
}

/// The di/dt convolution as the engine computed it before the separable
/// response: the gating-dependent kernel applied to the current steps of
/// every analysis cycle, summed tap by tap. An oracle only.
fn direct_noise_series(
    config: &pdn::PdnConfig,
    params: &pdn::transient::TransientParams,
    multipliers: &[f64],
    warmup: usize,
) -> Vec<f64> {
    let kernel = pdn::transient::impulse_kernel(config, params);
    let i_mean = params.mean_current.get().max(0.0);
    (warmup..multipliers.len())
        .map(|n| {
            let mut v = 0.0;
            for (k, &h) in kernel.iter().take(kernel.len().min(n)).enumerate() {
                v += h * (i_mean * (multipliers[n - k] - multipliers[n - k - 1]));
            }
            v.abs() / config.vdd.get()
        })
        .collect()
}

/// The separable di/dt evaluation (one gating-independent response per
/// window, scaled per gating) matches the direct convolution on random
/// `generate_window` windows, warm-ups, gatings, loads and both regulator
/// response times (0.8 ns LDO, 15 ns FIVR): the peak and every cycle of
/// the series within 1e-12 of the reference peak, and `cycles_over`
/// exactly whenever no cycle lies within 1e-12 of the threshold. The
/// corpus pins a zero warm-up and a one-cycle analysis region.
pub fn diff_noise_separable_vs_direct(opts: &VerifyOptions) -> CheckReport {
    use pdn::transient::{cycles_over, noise_series, peak_transient_fraction, TransientParams};
    use simkit::units::{Hertz, Seconds};
    use workload::microtrace::{generate_window, WINDOW_CYCLES};

    let cases = if opts.fast { 32 } else { 128 };
    let config = pdn::PdnConfig::default();
    // Knobs, each in [0, 1): activity, di/dt severity, distance factor,
    // mean current, regulator (< 0.5 = LDO), IR fraction, and the
    // threshold's height above the IR floor as a share of 1.5× the peak.
    let gen = (
        check::usize_in(0, 1 << 20),
        check::usize_in(0, WINDOW_CYCLES - 1),
        check::usize_in(1, 9),
        check::vec_of(check::f64_in(0.0, 1.0), 7, 7),
    );
    let outcome = checker(opts, cases).run(
        "diff.noise_separable_vs_direct",
        &gen,
        |(seed, warmup, n_active, knobs)| {
            let mut rng = simkit::DeterministicRng::new(*seed as u64);
            let window = generate_window(&mut rng, WINDOW_CYCLES, knobs[0], knobs[1]);
            let multipliers = window.multipliers();
            let params = TransientParams {
                mean_current: Amps::new(40.0 * knobs[3]),
                n_active: *n_active,
                n_total: 9,
                distance_factor: 0.05 + 3.95 * knobs[2],
                response_time: Seconds::from_nanos(if knobs[4] < 0.5 { 0.8 } else { 15.0 }),
                frequency: Hertz::from_ghz(4.0),
            };
            let reference = direct_noise_series(&config, &params, multipliers, *warmup);
            let ref_peak = reference.iter().copied().fold(0.0, f64::max);
            let tol = 1e-12 * ref_peak;

            let peak = peak_transient_fraction(&config, &params, multipliers, *warmup)
                .map_err(|e| e.to_string())?;
            check::ensure((peak - ref_peak).abs() <= tol, || {
                format!("peak {peak:e} vs direct {ref_peak:e}")
            })?;
            let series =
                noise_series(&config, &params, multipliers, *warmup).map_err(|e| e.to_string())?;
            check::ensure(series.len() == reference.len(), || {
                format!("series length {} vs {}", series.len(), reference.len())
            })?;
            for (n, (a, b)) in series.iter().zip(&reference).enumerate() {
                check::ensure((a - b).abs() <= tol, || {
                    format!("cycle {n}: {a:e} vs direct {b:e} (peak {ref_peak:e})")
                })?;
            }

            let ir = 0.05 * knobs[5];
            let threshold = ir + 1.5 * knobs[6] * ref_peak;
            let near = 1e-12 * threshold.max(f64::MIN_POSITIVE);
            if reference.iter().all(|v| (v + ir - threshold).abs() > near) {
                let expected = reference.iter().filter(|&&v| v + ir > threshold).count();
                let got = cycles_over(&config, &params, multipliers, *warmup, ir, threshold)
                    .map_err(|e| e.to_string())?;
                check::ensure(got == expected, || {
                    format!("cycles_over {got} vs direct {expected} at threshold {threshold:e}")
                })?;
            }
            Ok(())
        },
    );
    to_report("diff.noise_separable_vs_direct", cases, outcome, opts)
}

/// The direct backend's superposed IR drops (one unit-load basis per
/// domain and regulator key, combined per analysis) match a fresh
/// [`LdltFactor`](simkit::linalg::LdltFactor) solve of the domain's
/// `domain_system` on the same load: on random gatings (a domain whose
/// regulators are all drawn off keeps its first) and random loads, every
/// domain's worst drop within 1e-12 relative, the one-block L3 domains
/// included. Each case analyses all-on first, so its gating's basis is
/// rebuilt on a key change (unless the gating is all-on), and then two
/// loads under that gating, the second on the basis the first built.
pub fn diff_ir_superposition_vs_solve(opts: &VerifyOptions) -> CheckReport {
    use pdn::{PdnConfig, PdnModel};
    use simkit::linalg::{LdltFactor, LdltWorkspace, SolverBackend};

    let cases = if opts.fast { 8 } else { 32 };
    let chip = power8_like();
    let model = PdnModel::new(
        &chip,
        PdnConfig {
            solver: SolverBackend::Direct,
            ..PdnConfig::reference()
        },
    );
    let (n_vrs, n_blocks) = (chip.vr_sites().len(), chip.blocks().len());
    let gen = (
        check::vec_of(check::bool_any(), n_vrs, n_vrs),
        check::vec_of(check::f64_in(0.0, 4.0), n_blocks, n_blocks),
        check::vec_of(check::f64_in(0.0, 4.0), n_blocks, n_blocks),
    );
    let outcome = checker(opts, cases).run(
        "diff.ir_superposition_vs_solve",
        &gen,
        |(on, first, second)| {
            let mut gating = GatingState::all_off(n_vrs);
            for domain in chip.domains() {
                let vrs = domain.vrs();
                let none_on = !vrs.iter().any(|v| on[v.0]);
                for (i, &v) in vrs.iter().enumerate() {
                    gating
                        .set(v, on[v.0] || (none_on && i == 0))
                        .map_err(err_str)?;
                }
            }
            let to_watts = |v: &[f64]| v.iter().map(|&p| Watts::new(p)).collect::<Vec<_>>();
            let loads = [to_watts(first), to_watts(second)];
            model
                .ir_drop(&GatingState::all_on(n_vrs), &loads[0])
                .map_err(err_str)?;
            let mut reports = Vec::with_capacity(loads.len());
            for watts in &loads {
                reports.push(model.ir_drop(&gating, watts).map_err(err_str)?);
            }
            let mut ws = LdltWorkspace::new();
            for domain in chip.domains() {
                let id = domain.id();
                let system = model.domain_system(id, &gating).map_err(err_str)?;
                let factor = LdltFactor::new(&system).map_err(err_str)?;
                for (load, (watts, report)) in loads.iter().zip(&reports).enumerate() {
                    let mut volts = vec![0.0; system.rows()];
                    factor
                        .solve_into(&model.domain_load(id, watts), &mut volts, &mut ws)
                        .map_err(err_str)?;
                    let want = volts.iter().copied().fold(0.0f64, f64::max);
                    let got = report.domain_volts(id);
                    let diff = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
                    check::ensure(diff <= 1e-12, || {
                        format!(
                            "domain D{} load {load}: superposed {got:e} vs solved {want:e} \
                             (relative {diff:e})",
                            id.0
                        )
                    })?;
                }
            }
            Ok(())
        },
    );
    to_report("diff.ir_superposition_vs_solve", cases, outcome, opts)
}

/// The benchmark × policy cells of the sweep differential / golden runs.
pub fn verify_grid() -> ([Benchmark; 2], [PolicyKind; 2]) {
    (
        [Benchmark::LuNcb, Benchmark::Fft],
        [PolicyKind::OracT, PolicyKind::AllOn],
    )
}

/// Serial vs parallel sweep equality. Both legs recompute from scratch
/// (the on-disk cell cache is cleared first), so this checks the
/// work-stealing executor, not the cache. Returns the serial records for
/// reuse by [`golden_check`].
pub fn diff_sweep_parallel(opts: &VerifyOptions) -> (CheckReport, Vec<SweepRecord>) {
    let (benches, policies) = verify_grid();
    let serial_opts = ExpOptions::tiny().with_threads(1).with_quiet();
    let parallel_opts = ExpOptions::tiny()
        .with_threads(opts.threads.max(2))
        .with_quiet();
    let _ = std::fs::remove_dir_all(sweep::cache_dir(&serial_opts));
    let serial = sweep::grid(&serial_opts, &benches, &policies);
    let _ = std::fs::remove_dir_all(sweep::cache_dir(&parallel_opts));
    let parallel = sweep::grid(&parallel_opts, &benches, &policies);
    let failure = if serial == parallel {
        None
    } else {
        let detail = serial
            .iter()
            .zip(&parallel)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("first mismatch:\n  serial   {a:?}\n  parallel {b:?}"))
            .unwrap_or_else(|| {
                format!(
                    "record counts differ: {} serial vs {} parallel",
                    serial.len(),
                    parallel.len()
                )
            });
        Some(detail)
    };
    (
        CheckReport {
            name: "diff.sweep_serial_vs_parallel".to_string(),
            cases: serial.len(),
            corpus_cases: 0,
            failure,
            note: None,
        },
        serial,
    )
}

// ---------------------------------------------------------------------------
// Golden-run comparison
// ---------------------------------------------------------------------------

/// Names of the numeric fields of a golden row, in file order.
pub const GOLDEN_FIELDS: [&str; 8] = [
    "tmax_c",
    "gradient_c",
    "mean_efficiency",
    "mean_loss_w",
    "max_noise_pct",
    "emergency_fraction",
    "mean_active",
    "r_squared",
];

/// One row of the golden fixture: a sweep cell's identity plus its
/// numeric metrics (`None` = not applicable, stored as `-`).
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRow {
    /// Benchmark label (`lu_ncb`, …).
    pub benchmark: String,
    /// Policy tag (`oract`, …).
    pub policy: String,
    /// The eight metrics, ordered as [`GOLDEN_FIELDS`].
    pub values: [Option<f64>; 8],
}

impl GoldenRow {
    /// Builds a row from a sweep record.
    pub fn from_record(r: &SweepRecord) -> Self {
        GoldenRow {
            benchmark: r.benchmark.label().to_string(),
            policy: sweep::policy_tag(r.policy).to_string(),
            values: [
                Some(r.tmax_c),
                Some(r.gradient_c),
                Some(r.mean_efficiency),
                Some(r.mean_loss_w),
                r.max_noise_pct,
                r.emergency_fraction,
                Some(r.mean_active),
                r.r_squared,
            ],
        }
    }

    /// Serialises the row as one CSV line (lossless `{:e}` floats, `-`
    /// for not-applicable).
    pub fn to_line(&self) -> String {
        let mut parts = vec![self.benchmark.clone(), self.policy.clone()];
        for v in &self.values {
            parts.push(match v {
                Some(x) => format!("{x:e}"),
                None => "-".to_string(),
            });
        }
        parts.join(",")
    }

    /// Parses one CSV line; `None` on malformed input.
    pub fn parse_line(line: &str) -> Option<Self> {
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 10 {
            return None;
        }
        let mut values = [None; 8];
        for (slot, text) in values.iter_mut().zip(&parts[2..]) {
            *slot = match *text {
                "-" => None,
                s => Some(s.parse::<f64>().ok()?),
            };
        }
        Some(GoldenRow {
            benchmark: parts[0].to_string(),
            policy: parts[1].to_string(),
            values,
        })
    }
}

/// Parses a golden fixture body (`#` comments and blank lines skipped).
pub fn parse_golden(text: &str) -> Option<Vec<GoldenRow>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(GoldenRow::parse_line)
        .collect()
}

/// Serialises golden rows with a header comment.
pub fn render_golden(rows: &[GoldenRow]) -> String {
    let mut out = String::from(
        "# tg-verify golden fixture: tiny-sweep records (regenerate with `tg-verify --bless`)\n# benchmark,policy,tmax_c,gradient_c,mean_efficiency,mean_loss_w,max_noise_pct,emergency_fraction,mean_active,r_squared\n",
    );
    for row in rows {
        out.push_str(&row.to_line());
        out.push('\n');
    }
    out
}

/// Compares actual rows against expected, field-by-field, at relative
/// tolerance `rel_tol`.
///
/// # Errors
///
/// Returns a description of the first mismatch (row, cell identity, and
/// field name).
pub fn compare_golden(
    actual: &[GoldenRow],
    expected: &[GoldenRow],
    rel_tol: f64,
) -> Result<(), String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "row counts differ: {} actual vs {} expected",
            actual.len(),
            expected.len()
        ));
    }
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        if a.benchmark != e.benchmark || a.policy != e.policy {
            return Err(format!(
                "row {i}: cell identity {}/{} vs expected {}/{}",
                a.benchmark, a.policy, e.benchmark, e.policy
            ));
        }
        for (field, (av, ev)) in GOLDEN_FIELDS.iter().zip(a.values.iter().zip(&e.values)) {
            match (av, ev) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    let tol = rel_tol * x.abs().max(y.abs()).max(1.0);
                    if (x - y).abs() > tol {
                        return Err(format!(
                            "row {i} ({}/{}): field {field}: got {x:e}, golden {y:e} (tol {tol:e})",
                            a.benchmark, a.policy
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "row {i} ({}/{}): field {field}: applicability differs ({av:?} vs {ev:?})",
                        a.benchmark, a.policy
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Golden comparison of freshly computed records against the committed
/// fixture — or, with `opts.bless`, regeneration of the fixture.
pub fn golden_check(records: &[SweepRecord], opts: &VerifyOptions) -> CheckReport {
    let rows: Vec<GoldenRow> = records.iter().map(GoldenRow::from_record).collect();
    let mut report = CheckReport {
        name: "diff.golden".to_string(),
        cases: rows.len(),
        corpus_cases: 0,
        failure: None,
        note: None,
    };
    if opts.bless {
        if let Some(parent) = opts.golden.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&opts.golden, render_golden(&rows)) {
            Ok(()) => report.note = Some(format!("blessed {} rows", rows.len())),
            Err(e) => report.failure = Some(format!("could not write golden fixture: {e}")),
        }
        return report;
    }
    let text = match std::fs::read_to_string(&opts.golden) {
        Ok(t) => t,
        Err(e) => {
            report.failure = Some(format!(
                "golden fixture {} unreadable ({e}); run `tg-verify --bless` to create it",
                opts.golden.display()
            ));
            return report;
        }
    };
    let Some(expected) = parse_golden(&text) else {
        report.failure = Some(format!(
            "golden fixture {} is malformed",
            opts.golden.display()
        ));
        return report;
    };
    if let Err(detail) = compare_golden(&rows, &expected, 1e-6) {
        report.failure = Some(detail);
    }
    report
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

/// Runs every oracle and differential, in a fixed deterministic order.
pub fn run_all(opts: &VerifyOptions) -> VerifyRun {
    let mut reports = vec![
        oracle_required_active(opts),
        oracle_loss_eqn1(opts),
        oracle_eta_peak(opts),
        oracle_curve_consistency(opts),
        oracle_policy_active_set(opts),
        oracle_policy_emergency(opts),
        oracle_thermal_energy_balance(opts),
        oracle_pdn_kcl(opts),
        oracle_pdn_linearity(opts),
        diff_direct_vs_cg(opts),
        diff_mgcg_vs_cg(opts),
        diff_thermal_stencil_vs_csr(opts),
        diff_noise_separable_vs_direct(opts),
        diff_ir_superposition_vs_solve(opts),
    ];
    if !opts.skip_sweep {
        let (sweep_report, records) = diff_sweep_parallel(opts);
        reports.push(sweep_report);
        reports.push(golden_check(&records, opts));
    }
    VerifyRun { reports }
}
