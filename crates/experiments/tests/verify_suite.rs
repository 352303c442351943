//! Fault-injection tests for the `tg-verify` oracle suite: deliberately
//! corrupt a physical model (or the golden fixture) and demonstrate the
//! oracles catch it with a shrunk, reproducible counterexample — the
//! negative control that proves the verification harness has teeth.

use experiments::verify::{
    self, compare_golden, curve_consistency_outcome, parse_golden, render_golden, VerifyOptions,
};
use simkit::check::{parse_case, CheckConfig, Checker};
use simkit::units::{Amps, Seconds};
use vreg::{EfficiencyCurve, RegulatorBank, RegulatorDesign, RegulatorTopology};

fn checker(cases: usize) -> Checker {
    Checker::new(CheckConfig {
        seed: 0xFA17,
        cases,
        max_shrink_evals: 256,
        corpus: None,
    })
}

fn fivr_reference() -> EfficiencyCurve {
    let design = RegulatorDesign::fivr();
    EfficiencyCurve::scaled_reference(design.peak_efficiency(), design.peak_current())
        .expect("reference shape is valid")
}

/// Builds a FIVR-like design whose efficiency curve is perturbed by the
/// given factor at every breakpoint — the injected fault. At 1.01 this
/// is the "1 % efficiency-curve perturbation" of the acceptance
/// criteria; any sampled load current then deviates from the clean
/// reference shape.
fn perturbed_fivr(factor: f64) -> RegulatorDesign {
    let clean = RegulatorDesign::fivr();
    let points: Vec<(f64, f64)> = clean
        .curve()
        .points()
        .iter()
        .map(|&(i, eta)| (i, (eta * factor).min(1.0)))
        .collect();
    let curve = EfficiencyCurve::from_points(points).expect("perturbed curve is still valid");
    RegulatorDesign::new(
        "FIVR-perturbed",
        RegulatorTopology::Buck,
        curve,
        33.6,
        Seconds::from_nanos(15.0),
    )
}

/// Negative control: the stock design matches its own reference shape.
#[test]
fn clean_curve_passes_consistency_oracle() {
    let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
    let outcome = curve_consistency_outcome(&bank, &fivr_reference(), &checker(64));
    assert!(outcome.is_pass(), "{:?}", outcome.counterexample());
}

/// The acceptance demonstration: a 1 % perturbation of one efficiency
/// breakpoint is caught by the curve-consistency oracle, and the
/// counterexample carries the seed and a shrunk input for offline
/// replay.
#[test]
fn injected_one_percent_curve_fault_is_caught() {
    let bank = RegulatorBank::new(perturbed_fivr(1.01), 9);
    let outcome = curve_consistency_outcome(&bank, &fivr_reference(), &checker(64));
    let cx = outcome
        .counterexample()
        .expect("perturbed curve must fail the oracle");
    assert_eq!(cx.property, "vreg.curve_consistency");
    assert_eq!(cx.seed, 0xFA17);
    let rendered = cx.render();
    assert!(rendered.contains("seed"), "render lacks seed:\n{rendered}");
    assert!(
        rendered.contains("input"),
        "render lacks input:\n{rendered}"
    );
    // The shrunk input still reproduces the failure directly.
    let (demand, n_on) = {
        let mut parts = cx.input.split(" ; ");
        let demand: f64 = parts.next().unwrap().parse().unwrap();
        let n_on: usize = parts.next().unwrap().parse().unwrap();
        (demand, n_on)
    };
    let share = bank
        .per_regulator_current(Amps::new(demand), n_on)
        .expect("shrunk input stays in-domain");
    let eta = bank.efficiency(Amps::new(demand), n_on).unwrap();
    let expected = fivr_reference().eval(share);
    assert!(
        (eta - expected).abs() > 1e-9 * expected.max(1e-3),
        "shrunk input does not reproduce: η {eta} vs reference {expected}"
    );
}

/// Sensitivity floor: a perturbation at the oracle's tolerance (1e-9
/// relative) passes — the oracle rejects faults, not round-off.
#[test]
fn sub_tolerance_perturbation_passes() {
    let bank = RegulatorBank::new(perturbed_fivr(1.0 + 1e-12), 9);
    let outcome = curve_consistency_outcome(&bank, &fivr_reference(), &checker(64));
    assert!(outcome.is_pass(), "{:?}", outcome.counterexample());
}

/// Golden rows survive a render → parse round trip unchanged.
#[test]
fn golden_fixture_round_trips() {
    let text = std::fs::read_to_string(verify::default_golden_path())
        .expect("committed golden fixture exists");
    let rows = parse_golden(&text).expect("fixture parses");
    assert!(!rows.is_empty());
    let reparsed = parse_golden(&render_golden(&rows)).expect("rendered fixture parses");
    compare_golden(&rows, &reparsed, 0.0).expect("round trip is lossless");
}

/// Every committed corpus file parses: a malformed one would fail every
/// oracle's replay.
#[test]
fn committed_corpus_files_all_parse() {
    let dir = std::fs::read_dir(verify::default_corpus_dir()).expect("committed corpus exists");
    let mut files = 0;
    for path in dir.map(|e| e.expect("corpus entry lists").path()) {
        if path.extension().is_some_and(|e| e == "case") {
            let text = std::fs::read_to_string(&path).expect("corpus file reads");
            assert!(
                parse_case(&text).is_some(),
                "{} does not parse",
                path.display()
            );
            files += 1;
        }
    }
    assert!(files >= 19, "only {files} corpus files");
}

/// A 1 % perturbation of one golden field is caught and the error names
/// the row and field; the unperturbed rows compare clean.
#[test]
fn golden_comparison_catches_field_perturbation() {
    let text = std::fs::read_to_string(verify::default_golden_path())
        .expect("committed golden fixture exists");
    let rows = parse_golden(&text).expect("fixture parses");
    compare_golden(&rows, &rows, 1e-6).expect("self-comparison passes");

    let mut perturbed = rows.clone();
    let v = perturbed[0].values[2].expect("mean_efficiency is applicable");
    perturbed[0].values[2] = Some(v * 1.01);
    let err = compare_golden(&perturbed, &rows, 1e-6)
        .expect_err("1 % efficiency drift must fail the golden comparison");
    assert!(
        err.contains("mean_efficiency"),
        "error lacks field name: {err}"
    );
    assert!(err.contains("row 0"), "error lacks row identity: {err}");
}

/// Two full oracle passes with the same options render byte-identical
/// reports — the determinism the CI `cmp` gate relies on.
#[test]
fn verify_reports_are_deterministic() {
    let opts = VerifyOptions {
        cases: 8,
        fast: true,
        corpus: None,
        skip_sweep: true,
        ..VerifyOptions::default()
    };
    let a = verify::run_all(&opts);
    let b = verify::run_all(&opts);
    assert!(a.ok(), "baseline verify run failed:\n{}", a.render(&opts));
    assert_eq!(a.render(&opts), b.render(&opts));
}
