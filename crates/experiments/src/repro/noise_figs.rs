//! Fig. 14, Fig. 15, and Table 2 — voltage-noise artefacts. (Fig. 11
//! reads the shared sweep directly.)

use super::{range, simulate, span, table, Claim, Report};
use crate::context::ExpOptions;
use crate::report::{downsample, fmt_opt};
use crate::sweep;
use floorplan::reference::power8_like;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use vreg::RegulatorDesign;
use workload::Benchmark;

/// Table 2's reported non-zero values (% execution time, under OracT).
fn paper_emergency_pct(benchmark: Benchmark) -> Option<f64> {
    match benchmark {
        Benchmark::Barnes => Some(0.67),
        Benchmark::Cholesky => Some(0.001),
        Benchmark::Fft => Some(0.49),
        Benchmark::Fmm => Some(0.024),
        Benchmark::OceanCp => Some(0.50),
        Benchmark::OceanNcp => Some(0.002),
        Benchmark::Radiosity => Some(0.008),
        Benchmark::Radix => Some(0.06),
        Benchmark::Raytrace => Some(0.032),
        Benchmark::Volrend => Some(0.002),
        Benchmark::WaterSpatial => Some(0.11),
        // lu_cb, lu_ncb, water_n have zero entries (omitted in Table 2).
        _ => None,
    }
}

/// The paper's reported average emergency residency (0.13 %).
const PAPER_AVERAGE_EMERGENCY_PCT: f64 = 0.13;

/// Fig. 14: the worst sampled window's per-cycle noise trace of `fft`
/// (the application with the worst OracT noise) under OracT and OracV;
/// OracV must cut the peak by about the paper's 28.2 %.
pub fn fig14_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let [trace_t, trace_v] = [PolicyKind::OracT, PolicyKind::OracV].map(|policy| {
        let result = simulate(&engine, Benchmark::Fft, policy);
        result.worst_window_trace().unwrap_or_default().to_vec()
    });
    let points = 50;
    let [oract, oracv] = [&trace_t, &trace_v].map(|t| downsample(t, points));
    let cell = |s: &[f64], k: usize| s.get(k).map_or("-".into(), |v| format!("{v:.2}"));
    let rows = (0..oract.len().max(oracv.len())).map(|k| {
        let bucket = format!("{}", k * trace_t.len() / points);
        vec![bucket, cell(&oract, k), cell(&oracv, k)]
    });
    let detail = table(&["cycle bucket", "OracT (%Vdd)", "OracV (%Vdd)"], rows);
    let peak = |t: &[f64]| t.iter().copied().fold(0.0f64, f64::max);
    let (p_t, p_v) = (peak(&trace_t), peak(&trace_v));
    let cut = (1.0 - p_v / p_t) * 100.0;
    let measured = format!("OracV cuts the peak by {cut:.0} % (OracT {p_t:.1} → OracV {p_v:.1} %)");
    let claims = [Claim::Near(cut, PAPER_ORACV_CUT_PCT)];
    Report::new(detail, measured, true, &claims, None)
}

/// The paper's cut of fft's critical-window noise under OracV (28.2 %).
pub(super) const PAPER_ORACV_CUT_PCT: f64 = 28.2;

/// Fig. 15: all-on max noise per benchmark under the POWER8-like LDO
/// design ([`RegulatorDesign::power8_ldo`]) and the FIVR design of the
/// shared sweep; the LDO must be quieter by about the paper's ≈0.7 % of
/// Vdd on average and ≈1.1 % at the overall max.
pub fn fig15_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let ldo_config = EngineConfig {
        design: RegulatorDesign::power8_ldo(),
        ..opts.engine_config()
    };
    let ldo_engine = SimulationEngine::new(&chip, ldo_config);
    // (LDO, FIVR) max noise per benchmark, % of Vdd.
    let noise: Vec<(f64, f64)> = Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let fivr = sweep::record_for(opts, benchmark, PolicyKind::AllOn).max_noise_pct;
            eprintln!("[fig15] running {} × LDO …", benchmark.label());
            let ldo = simulate(&ldo_engine, benchmark, PolicyKind::AllOn).max_noise_percent();
            (ldo.unwrap_or(f64::NAN), fivr.unwrap_or(f64::NAN))
        })
        .collect();
    let (max_ldo, max_fivr) = noise
        .iter()
        .fold((0.0f64, 0.0f64), |(l, f), r| (l.max(r.0), f.max(r.1)));
    let cells = |label: &str, (ldo, fivr): (f64, f64)| {
        let delta = format!("{:+.2}", ldo - fivr);
        vec![
            label.to_string(),
            format!("{ldo:.2}"),
            format!("{fivr:.2}"),
            delta,
        ]
    };
    let rows_out = Benchmark::ALL
        .iter()
        .zip(&noise)
        .map(|(b, &r)| cells(b.label(), r));
    let headers = ["benchmark", "LDO (%Vdd)", "FIVR (%Vdd)", "Δ"];
    let detail = table(
        &headers,
        rows_out.chain([cells("MAX", (max_ldo, max_fivr))]),
    );
    let avg = noise.iter().map(|(ldo, fivr)| fivr - ldo).sum::<f64>() / noise.len() as f64;
    let at_max = max_fivr - max_ldo;
    let measured =
        format!("LDO lower by {avg:.2} % of Vdd on average, {at_max:.2} % at the overall max");
    let claims = [Claim::Near(avg, 0.7), Claim::Near(at_max, 1.1)];
    Report::new(detail, measured, true, &claims, None)
}

/// Table 2: % of analyzed cycles in voltage emergencies under OracT per
/// benchmark, from the shared sweep; every application must stay under
/// 1 %, and the average near the paper's 0.13 %.
pub fn table2_report(opts: &ExpOptions) -> Report {
    let pct: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| {
            let record = sweep::record_for(opts, b, PolicyKind::OracT);
            record.emergency_fraction.unwrap_or(0.0) * 100.0
        })
        .collect();
    let avg = pct.iter().sum::<f64>() / pct.len() as f64;
    let cells = |label: &str, pct: f64, paper: Option<f64>| {
        vec![label.to_string(), format!("{pct:.3}"), fmt_opt(paper, 3)]
    };
    let rows_out = Benchmark::ALL
        .iter()
        .zip(&pct)
        .map(|(&b, &p)| cells(b.label(), p, paper_emergency_pct(b)));
    let avg_row = cells("AVG", avg, Some(PAPER_AVERAGE_EMERGENCY_PCT));
    let detail = table(
        &["benchmark", "% exec. time", "paper (%)"],
        rows_out.chain([avg_row]),
    );
    let (lo, hi) = span(pct.iter().copied());
    let measured = format!("{} %, AVG {avg:.3} %", range(lo, hi, 3));
    let claims = [Claim::Near(avg, PAPER_AVERAGE_EMERGENCY_PCT)];
    Report::new(detail, measured, hi < 1.0, &claims, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_anchors_match_paper() {
        assert_eq!(paper_emergency_pct(Benchmark::Barnes), Some(0.67));
        assert_eq!(paper_emergency_pct(Benchmark::Fft), Some(0.49));
        assert_eq!(paper_emergency_pct(Benchmark::LuNcb), None);
        let listed = Benchmark::ALL
            .iter()
            .filter(|&&b| paper_emergency_pct(b).is_some())
            .count();
        // The paper lists 11 non-zero applications (+ AVG).
        assert_eq!(listed, 11);
    }
}
