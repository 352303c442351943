//! Property-based tests on cross-crate invariants, on `simkit::check`.
//!
//! Each test keeps its original fixed base seed (`0xA001`…), so failures
//! reproduce bit-for-bit offline — but instead of dumping a raw
//! 64-iteration assertion, a failure now *shrinks* to a minimal
//! counterexample and prints the `.case` block to pin it under
//! `tests/corpus/` (which is replayed first on every run; set
//! `SIMKIT_CHECK_SAVE=1` to write it automatically).

use floorplan::reference::power8_like;
use simkit::check::{self, CheckConfig, Checker, TestResult};
use simkit::units::{Amps, Watts};
use simkit::PiecewiseLinear;
use std::path::PathBuf;
use thermal::{PowerMap, ThermalConfig, ThermalModel};
use thermogater::{select_gating, PolicyInputs, PolicyKind};
use vreg::{loss, GatingState, RegulatorBank, RegulatorDesign};

fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

fn checker(seed: u64, cases: usize) -> Checker {
    Checker::new(CheckConfig {
        seed,
        cases,
        max_shrink_evals: 256,
        corpus: Some(corpus_dir()),
    })
}

/// `required_active` is the minimal count that keeps every active
/// regulator at or below its peak current.
#[test]
fn required_active_is_minimal_and_sufficient() {
    let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
    let peak = bank.design().peak_current().get();
    checker(0xA001, 64).assert(
        "vreg.required_active",
        &check::f64_in(0.0, 20.0),
        |&demand| {
            let n = bank.required_active(Amps::new(demand));
            check::ensure((1..=9).contains(&n), || format!("n = {n} outside 1..=9"))?;
            if demand > 0.0 && n < 9 {
                // Sufficient: the chosen count carries ≤ peak per regulator.
                check::ensure(demand / n as f64 <= peak + 1e-12, || {
                    format!("{n} regulators carry {} A each", demand / n as f64)
                })?;
            }
            if n > 1 {
                // Minimal: one fewer would overload someone.
                check::ensure(demand / (n as f64 - 1.0) > peak - 1e-12, || {
                    format!("{} regulators would already suffice", n - 1)
                })?;
            }
            Ok(())
        },
    );
}

/// Conversion loss is non-negative and strictly decreasing in η.
#[test]
fn conversion_loss_monotone_in_eta() {
    let gen = (
        check::f64_in(0.0, 200.0),
        check::f64_in(0.05, 0.90),
        check::f64_in(0.001, 0.09),
    );
    checker(0xA002, 64).assert(
        "vreg.loss_monotone",
        &gen,
        |&(pout, eta_lo, delta)| -> TestResult {
            let eta_hi = (eta_lo + delta).min(1.0);
            let lossy = loss::conversion_loss(Watts::new(pout), eta_lo);
            let clean = loss::conversion_loss(Watts::new(pout), eta_hi);
            check::ensure(lossy.get() >= 0.0 && clean.get() >= 0.0, || {
                "negative conversion loss".to_string()
            })?;
            if pout > 0.0 {
                check::ensure(lossy.get() > clean.get(), || {
                    format!("loss not decreasing: η {eta_lo} → {lossy:?}, η {eta_hi} → {clean:?}")
                })?;
            }
            Ok(())
        },
    );
}

/// Bank efficiency under even sharing never exceeds the design peak.
#[test]
fn bank_efficiency_bounded_by_peak() {
    let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
    let gen = (check::f64_in(0.0, 25.0), check::usize_in(1, 9));
    checker(0xA003, 64).assert("vreg.eta_bounded", &gen, |&(demand, n_on)| {
        let eta = bank
            .efficiency(Amps::new(demand), n_on)
            .map_err(|e| e.to_string())?;
        check::ensure(eta > 0.0, || format!("η = {eta} not positive"))?;
        check::ensure(eta <= bank.design().peak_efficiency() + 1e-12, || {
            format!("η = {eta} above peak {}", bank.design().peak_efficiency())
        })
    });
}

/// Piecewise-linear evaluation never escapes the convex hull of the
/// breakpoint ordinates.
#[test]
fn interpolation_stays_in_hull() {
    let gen = (
        check::vec_of(check::f64_in(0.0, 100.0), 2, 8),
        check::vec_of(check::f64_in(-5.0, 5.0), 2, 8),
        check::f64_in(-50.0, 150.0),
    );
    checker(0xA004, 64).assert("simkit.interp_hull", &gen, |(xs, ys, probe)| {
        let mut xs = xs[..xs.len().min(ys.len())].to_vec();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        if xs.len() < 2 {
            return Ok(()); // vacuous after dedup
        }
        let points: Vec<(f64, f64)> = xs.iter().zip(ys).map(|(&x, &y)| (x, y)).collect();
        let f = PiecewiseLinear::new(points.clone()).map_err(|e| e.to_string())?;
        let lo = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let v = f.eval(*probe);
        check::ensure(v >= lo - 1e-9 && v <= hi + 1e-9, || {
            format!("eval({probe}) = {v} escaped hull [{lo}, {hi}]")
        })
    });
}

/// Gating selection activates exactly the required count per domain
/// (absent emergencies), whatever the ranking inputs look like.
#[test]
fn selection_activates_exactly_n_on() {
    let chip = power8_like();
    let n_vrs = chip.vr_sites().len();
    let gen = (
        check::vec_of(check::f64_in(20.0, 120.0), n_vrs, n_vrs),
        check::usize_in(1, 9),
        check::usize_in(1, 3),
    );
    checker(0xA005, 24).assert("policy.active_set", &gen, |(temps, n_on_core, n_on_l3)| {
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
        for kind in [PolicyKind::Naive, PolicyKind::OracT, PolicyKind::PracVT] {
            let state = select_gating(kind, &inputs).map_err(|e| e.to_string())?;
            for domain in chip.domains() {
                let want = n_on[domain.id().0].min(domain.vr_count());
                let got = state.active_among(domain.vrs());
                check::ensure(got == want, || {
                    format!(
                        "{kind:?}: domain D{} has {got} on, wanted {want}",
                        domain.id().0
                    )
                })?;
            }
        }
        Ok(())
    });
}

/// Power maps conserve energy: total equals the sum of injections.
#[test]
fn power_map_conserves_energy() {
    let chip = power8_like();
    let model = ThermalModel::new(&chip, ThermalConfig::coarse());
    let n_blocks = chip.blocks().len();
    let gen = check::vec_of(check::f64_in(0.0, 10.0), n_blocks, n_blocks);
    checker(0xA006, 16).assert("thermal.power_map_total", &gen, |block_powers| {
        let mut pm = PowerMap::new(&model);
        let mut expected = 0.0;
        for (block, &p) in chip.blocks().iter().zip(block_powers) {
            pm.add_block(block.id(), Watts::new(p))
                .map_err(|e| e.to_string())?;
            expected += p;
        }
        check::ensure((pm.total().get() - expected).abs() < 1e-9, || {
            format!("map total {} != injected {expected}", pm.total().get())
        })
    });
}

/// Gating diff is an involution-ish: applying the reported toggles to
/// the old state reproduces the new state.
#[test]
fn gating_diff_reconstructs_state() {
    let gen = (
        check::vec_of(check::bool_any(), 96, 96),
        check::vec_of(check::bool_any(), 96, 96),
    );
    checker(0xA007, 32).assert("vreg.gating_diff", &gen, |(bits_a, bits_b)| {
        let mut a = GatingState::all_off(96);
        let mut b = GatingState::all_off(96);
        for i in 0..96 {
            a.set(floorplan::VrId(i), bits_a[i])
                .map_err(|e| e.to_string())?;
            b.set(floorplan::VrId(i), bits_b[i])
                .map_err(|e| e.to_string())?;
        }
        let changes = b.diff(&a).map_err(|e| e.to_string())?;
        let mut rebuilt = a.clone();
        for (id, on) in changes {
            rebuilt.set(id, on).map_err(|e| e.to_string())?;
        }
        check::ensure(rebuilt == b, || {
            "diff did not reconstruct the state".to_string()
        })
    });
}

/// The PDN is a linear resistive network. Its per-domain *maximum* drop
/// is therefore homogeneous (scaling the loads scales the drop) and
/// subadditive (the max of a sum cannot exceed the sum of maxima —
/// superposition holds per cell, and max is subadditive).
#[test]
fn pdn_ir_drop_is_linear_in_the_loads() {
    use pdn::{PdnConfig, PdnModel};
    let chip = power8_like();
    let model = PdnModel::new(&chip, PdnConfig::reference());
    let gating = GatingState::all_on(chip.vr_sites().len());
    let n_blocks = chip.blocks().len();
    let to_watts = |v: &[f64]| v.iter().map(|&p| Watts::new(p)).collect::<Vec<_>>();
    let gen = (
        check::vec_of(check::f64_in(0.0, 4.0), n_blocks, n_blocks),
        check::vec_of(check::f64_in(0.0, 4.0), n_blocks, n_blocks),
        check::f64_in(0.25, 4.0),
    );
    checker(0xA008, 6).assert("pdn.linearity_full", &gen, |(pa, pb, scale)| {
        let scaled: Vec<f64> = pa.iter().map(|&p| p * scale).collect();
        let sum: Vec<f64> = pa.iter().zip(pb).map(|(a, b)| a + b).collect();
        let ra = model
            .ir_drop(&gating, &to_watts(pa))
            .map_err(|e| e.to_string())?;
        let rb = model
            .ir_drop(&gating, &to_watts(pb))
            .map_err(|e| e.to_string())?;
        let rscaled = model
            .ir_drop(&gating, &to_watts(&scaled))
            .map_err(|e| e.to_string())?;
        let rsum = model
            .ir_drop(&gating, &to_watts(&sum))
            .map_err(|e| e.to_string())?;
        for d in 0..chip.domains().len() {
            let id = floorplan::DomainId(d);
            // Homogeneity: the worst cell stays the worst cell.
            let lhs = rscaled.domain_volts(id);
            let rhs = ra.domain_volts(id) * scale;
            check::ensure((lhs - rhs).abs() < 1e-6 * scale.max(1.0), || {
                format!("homogeneity, domain {d}: {lhs} vs {rhs}")
            })?;
            // Subadditivity of the max.
            check::ensure(
                rsum.domain_volts(id) <= ra.domain_volts(id) + rb.domain_volts(id) + 1e-9,
                || format!("subadditivity, domain {d}"),
            )?;
        }
        Ok(())
    });
}

/// Steady-state temperature responds monotonically to power: more heat
/// in one block never cools the chip's hottest point.
#[test]
fn steady_state_monotone_in_power() {
    let chip = power8_like();
    let model = ThermalModel::new(
        &chip,
        ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::coarse()
        },
    );
    let block = chip.blocks()[0].id();
    let gen = (check::f64_in(1.0, 10.0), check::f64_in(0.5, 10.0));
    checker(0xA009, 4).assert("thermal.monotone", &gen, |&(p1, extra)| {
        let mut low = PowerMap::new(&model);
        low.add_block(block, Watts::new(p1))
            .map_err(|e| e.to_string())?;
        let mut high = PowerMap::new(&model);
        high.add_block(block, Watts::new(p1 + extra))
            .map_err(|e| e.to_string())?;
        let t_low = model
            .steady_state(&low)
            .map_err(|e| e.to_string())?
            .max_silicon();
        let t_high = model
            .steady_state(&high)
            .map_err(|e| e.to_string())?
            .max_silicon();
        check::ensure(t_high > t_low, || {
            format!("+{extra} W cooled the hot spot: {t_low} → {t_high}")
        })
    });
}
