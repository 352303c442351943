//! Cross-crate consistency of the substrates: floorplan ↔ power ↔
//! thermal ↔ PDN ↔ regulators, without the governor in the loop.

use floorplan::reference::power8_like;
use pdn::{PdnConfig, PdnModel};
use power::{PowerModel, TechnologyParams};
use simkit::linalg::{CsrMatrix, GridGeometry, MultigridPreconditioner};
use simkit::units::{Amps, Celsius, Watts};
use thermal::{PowerMap, ThermalConfig, ThermalModel};
use vreg::{GatingState, RegulatorBank, RegulatorDesign};
use workload::{Benchmark, TraceGenerator};

#[test]
fn power_model_covers_every_floorplan_block() {
    let chip = power8_like();
    let model = PowerModel::calibrated(&chip, TechnologyParams::table1());
    let total: Watts = chip
        .blocks()
        .iter()
        .map(|b| model.block_power(b.id(), 1.0, Celsius::new(80.0)))
        .sum();
    assert!((total.get() - 150.0).abs() < 1e-6);
}

#[test]
fn domain_demand_fits_bank_capability() {
    // The per-core regulator bank must be able to carry the core's peak
    // demand — the sizing invariant the whole evaluation relies on.
    let chip = power8_like();
    let model = PowerModel::calibrated(&chip, TechnologyParams::table1());
    let acts = vec![1.0; chip.blocks().len()];
    let temps = vec![Celsius::new(85.0); chip.blocks().len()];
    for domain in chip.domains() {
        let bank = RegulatorBank::new(RegulatorDesign::fivr(), domain.vr_count());
        let demand = model.domain_current(&chip, domain.id(), &acts, &temps);
        assert!(
            demand.get() <= bank.max_current().get(),
            "domain {} demand {demand} exceeds bank {}",
            domain.name(),
            bank.max_current()
        );
    }
}

#[test]
fn workload_power_thermal_pipeline_is_stable() {
    // Trace → power → steady-state temperature, with leakage feedback:
    // the loop converges and lands in a plausible server-chip band.
    let chip = power8_like();
    let power = PowerModel::calibrated(&chip, TechnologyParams::table1());
    let thermal = ThermalModel::new(&chip, ThermalConfig::coarse());
    let trace = TraceGenerator::new(&chip)
        .generate(Benchmark::Barnes, simkit::units::Seconds::from_millis(1.0));
    let mean_acts: Vec<f64> = (0..chip.blocks().len())
        .map(|b| {
            let ch = trace.activity().channel(b);
            ch.iter().sum::<f64>() / ch.len() as f64
        })
        .collect();

    let (state, feedback) = thermal
        .steady_state_with_feedback(60, 0.05, |state| {
            let mut pm = PowerMap::new(&thermal);
            for block in chip.blocks() {
                let t = state.block_temperature(&thermal, block.id());
                pm.add_block(
                    block.id(),
                    power.block_power(block.id(), mean_acts[block.id().0], t),
                )?;
            }
            Ok(pm)
        })
        .unwrap();
    let iterations = feedback.iterations;
    assert!(iterations >= 2, "feedback loop too eager: {iterations}");
    assert!(feedback.cg.solves > 0, "feedback ran no CG solves");
    let t = state.max_silicon().get();
    assert!(t > 50.0 && t < 100.0, "steady T_max {t}");
    // Logic regions run hotter than the L3 region.
    let exu = chip
        .blocks()
        .iter()
        .find(|b| b.name() == "core0.EXU")
        .unwrap();
    let l3 = chip
        .blocks()
        .iter()
        .find(|b| b.name() == "l3bank0.L3")
        .unwrap();
    assert!(
        state.block_temperature(&thermal, exu.id()) > state.block_temperature(&thermal, l3.id())
    );
}

#[test]
fn pdn_and_floorplan_agree_on_counts() {
    let chip = power8_like();
    let pdn = PdnModel::new(&chip, PdnConfig::reference());
    let powers = vec![Watts::new(1.0); chip.blocks().len()];
    let all_on = GatingState::all_on(chip.vr_sites().len());
    let report = pdn.ir_drop(&all_on, &powers).unwrap();
    assert_eq!(report.domain_count(), chip.domains().len());
    for domain in chip.domains() {
        let scores = pdn.vr_load_proximity(domain.id(), &powers);
        assert_eq!(scores.len(), domain.vr_count());
    }
}

#[test]
fn conversion_loss_heats_the_thermal_model_where_the_regulator_sits() {
    // The cross-crate contract: vreg loss → thermal PowerMap → local
    // temperature rise at the regulator's site.
    let chip = power8_like();
    let thermal = ThermalModel::new(&chip, ThermalConfig::coarse());
    let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
    let loss = bank
        .per_regulator_loss(Amps::new(12.0), 8, simkit::units::Volts::new(1.03))
        .unwrap();
    assert!(loss.get() > 0.1, "loss {loss}");

    let vr = chip.vr_sites()[0].id();
    let mut pm = PowerMap::new(&thermal);
    // 8 active regulators of core0, each dissipating `loss`.
    for &v in chip.domains()[0].vrs().iter().take(8) {
        pm.add_vr(v, loss).unwrap();
    }
    let state = thermal.steady_state(&pm).unwrap();
    let t_local = state.vr_temperature(&thermal, vr, loss);
    let ambient = state.ambient();
    assert!(
        t_local.get() > ambient.get() + 0.5,
        "regulator loss did not heat its site: {t_local}"
    );
    // A far-away regulator stays near ambient.
    let far = *chip.domains()[7].vrs().last().unwrap();
    let t_far = state.vr_temperature(&thermal, far, Watts::ZERO);
    assert!(t_local.get() > t_far.get());
}

#[test]
fn trace_statistics_separate_the_suite() {
    // The synthetic suite must spread across the utilisation axis —
    // otherwise Figs. 6/7/9 would degenerate.
    let chip = power8_like();
    let gen = TraceGenerator::new(&chip);
    let mean_util = |b| {
        let t = gen.generate(b, simkit::units::Seconds::from_millis(1.0));
        t.activity().total().mean().unwrap() / chip.blocks().len() as f64
    };
    let mut utils: Vec<(Benchmark, f64)> =
        Benchmark::ALL.iter().map(|&b| (b, mean_util(b))).collect();
    utils.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let (lightest, lo) = utils[0];
    let (heaviest, hi) = utils[utils.len() - 1];
    assert_eq!(lightest, Benchmark::Raytrace);
    assert_eq!(heaviest, Benchmark::Cholesky);
    assert!(hi > 2.0 * lo, "spread too small: {lo}..{hi}");
}

/// Every coarse operator of `mg` equals the explicit `R·(A·P)` of the
/// level above it, entry for entry and bit for bit; the finest level's
/// `A` is `fine`, the matrix `mg` was built or updated from.
fn assert_galerkin_exact(mg: &MultigridPreconditioner, fine: &CsrMatrix, what: &str) {
    for level in 0..mg.num_levels() {
        let a = match level {
            0 => fine,
            _ => mg.coarse_matrix(level - 1),
        };
        let explicit = mg
            .restriction(level)
            .multiply(&a.multiply(mg.prolongation(level)).unwrap())
            .unwrap();
        let coarse = mg.coarse_matrix(level);
        assert_eq!(coarse.rows(), explicit.rows(), "{what}, level {level}");
        assert_eq!(coarse.nnz(), explicit.nnz(), "{what}, level {level}");
        let differing = coarse
            .iter_entries()
            .zip(explicit.iter_entries())
            .filter(|((r, c, v), (re, ce, ve))| r != re || c != ce || v.to_bits() != ve.to_bits())
            .count();
        assert_eq!(
            differing, 0,
            "{what}: level {level}'s coarse operator differs from R·(A·P)"
        );
    }
}

#[test]
fn multigrid_coarse_operators_equal_the_explicit_triple_product() {
    let chip = power8_like();
    for (side, levels) in [(32, 1), (64, 2), (128, 3)] {
        let config = ThermalConfig {
            nx: side,
            ny: side,
            ..ThermalConfig::coarse()
        };
        let model = ThermalModel::new(&chip, config);
        let mg = MultigridPreconditioner::new(model.conductance_matrix(), model.grid_geometry())
            .unwrap();
        assert_eq!(mg.num_levels(), levels, "thermal G at {side}²");
        let g = model.conductance_matrix();
        assert_galerkin_exact(&mg, g, &format!("thermal G at {side}²"));
    }

    // A PDN domain's hierarchy, built at all-on and refilled in place for
    // a key with regulators off, equals the explicit product and a fresh
    // build of the patched matrix.
    let pdn = PdnModel::new(&chip, PdnConfig::reference());
    let domain = chip.domains()[0].id();
    let (nx, ny) = pdn.domain_grid_size(domain);
    let geometry = GridGeometry::new(nx, ny, 1, 0);
    let mut gating = GatingState::all_on(chip.vr_sites().len());
    let all_on = pdn.domain_system(domain, &gating).unwrap();
    let mut mg = MultigridPreconditioner::with_bottom_limit(&all_on, geometry, 4).unwrap();
    assert!(mg.num_levels() >= 2, "{nx}×{ny} domain grid");
    for &vr in chip.domains()[0].vrs().iter().take(3) {
        gating.set(vr, false).unwrap();
    }
    let patched = pdn.domain_system(domain, &gating).unwrap();
    mg.update(&patched).unwrap();
    assert_galerkin_exact(&mg, &patched, "patched PDN domain after update");
    let fresh = MultigridPreconditioner::with_bottom_limit(&patched, geometry, 4).unwrap();
    let depth = mg.num_levels() - 1;
    assert_eq!(mg.num_levels(), fresh.num_levels());
    assert_eq!(mg.coarse_matrix(depth), fresh.coarse_matrix(depth));
}
