//! Fig. 14, Fig. 15, and Table 2 — voltage-noise artefacts. (Fig. 11
//! reads the shared sweep directly.)

use super::{range, span, table, Claim, Report};
use crate::context::ExpOptions;
use crate::report::{downsample, fmt_opt};
use crate::sweep;
use floorplan::reference::power8_like;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use vreg::RegulatorDesign;
use workload::Benchmark;

/// Fig. 14 data: the worst sampled window's per-cycle noise trace under
/// OracT vs. OracV (fft — the application with the worst OracT noise).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Data {
    /// Per-cycle noise (% of Vdd) under OracT.
    pub oract: Vec<f64>,
    /// Per-cycle noise (% of Vdd) under OracV.
    pub oracv: Vec<f64>,
}

/// Builds Fig. 14 by simulating `fft` under both policies.
pub fn fig14(opts: &ExpOptions) -> Fig14Data {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let trace = |policy| {
        engine
            .run(Benchmark::Fft, policy)
            .expect("physical configuration simulates")
            .worst_window_trace()
            .expect("noise analyzed for gating policies")
            .to_vec()
    };
    Fig14Data {
        oract: trace(PolicyKind::OracT),
        oracv: trace(PolicyKind::OracV),
    }
}

/// One Fig. 15 row: maximum all-on voltage noise under the LDO- vs.
/// FIVR-based regulator design.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Max noise (% of Vdd), POWER8-like LDO design.
    pub ldo_pct: f64,
    /// Max noise (% of Vdd), Intel-FIVR-like design.
    pub fivr_pct: f64,
}

/// Builds Fig. 15: all regulators on, both designs, every benchmark.
/// The FIVR column reuses the shared sweep cache; the LDO runs use a
/// configuration with [`RegulatorDesign::power8_ldo`].
pub fn fig15(opts: &ExpOptions) -> Vec<Fig15Row> {
    let chip = power8_like();
    let ldo_config = EngineConfig {
        design: RegulatorDesign::power8_ldo(),
        ..opts.engine_config()
    };
    let ldo_engine = SimulationEngine::new(&chip, ldo_config);
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let fivr = sweep::record_for(opts, benchmark, PolicyKind::AllOn)
                .max_noise_pct
                .expect("all-on analyzes noise");
            eprintln!("[fig15] running {} × LDO …", benchmark.label());
            let ldo = ldo_engine
                .run(benchmark, PolicyKind::AllOn)
                .expect("physical configuration simulates")
                .max_noise_percent()
                .expect("all-on analyzes noise");
            Fig15Row {
                benchmark,
                ldo_pct: ldo,
                fivr_pct: fivr,
            }
        })
        .collect()
}

/// One Table 2 entry: % of execution time spent in voltage emergencies
/// under OracT.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// % of analyzed cycles in emergency.
    pub pct: f64,
    /// The paper's reported value, where stated.
    pub paper_pct: Option<f64>,
}

/// Builds Table 2 from the shared sweep.
pub fn table2(opts: &ExpOptions) -> Vec<Table2Row> {
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let record = sweep::record_for(opts, benchmark, PolicyKind::OracT);
            Table2Row {
                benchmark,
                pct: record.emergency_fraction.unwrap_or(0.0) * 100.0,
                paper_pct: paper_emergency_pct(benchmark),
            }
        })
        .collect()
}

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
pub const PAPER_AVERAGE_EMERGENCY_PCT: f64 = 0.13;

/// Fig. 14: both worst-window traces; OracV must cut the peak by about
/// the paper's 28.2 %.
pub fn fig14_report(opts: &ExpOptions) -> Report {
    let data = fig14(opts);
    let points = 50;
    let [oract, oracv] = [&data.oract, &data.oracv].map(|t| downsample(t, points));
    let cell = |s: &[f64], k: usize| s.get(k).map_or("-".into(), |v| format!("{v:.2}"));
    let rows = (0..oract.len().max(oracv.len())).map(|k| {
        let bucket = format!("{}", k * data.oract.len() / points);
        vec![bucket, cell(&oract, k), cell(&oracv, k)]
    });
    let detail = table(&["cycle bucket", "OracT (%Vdd)", "OracV (%Vdd)"], rows);
    let peak = |t: &[f64]| t.iter().copied().fold(0.0f64, f64::max);
    let (p_t, p_v) = (peak(&data.oract), peak(&data.oracv));
    let cut = (1.0 - p_v / p_t) * 100.0;
    let measured = format!("OracV cuts the peak by {cut:.0} % (OracT {p_t:.1} → OracV {p_v:.1} %)");
    let claims = [Claim::Near(cut, PAPER_ORACV_CUT_PCT)];
    Report::new(detail, measured, true, &claims, None)
}

/// The paper's cut of fft's critical-window noise under OracV (28.2 %).
pub const PAPER_ORACV_CUT_PCT: f64 = 28.2;

/// Fig. 15: LDO vs FIVR per benchmark; the LDO must be quieter by about
/// the paper's ≈0.7 % of Vdd on average and ≈1.1 % at the overall max.
pub fn fig15_report(opts: &ExpOptions) -> Report {
    let rows = fig15(opts);
    let max = |f: fn(&Fig15Row) -> f64| rows.iter().map(f).fold(0.0f64, f64::max);
    let (max_ldo, max_fivr) = (max(|r| r.ldo_pct), max(|r| r.fivr_pct));
    let cells = |label: &str, ldo: f64, fivr: f64| {
        let delta = format!("{:+.2}", ldo - fivr);
        vec![
            label.to_string(),
            format!("{ldo:.2}"),
            format!("{fivr:.2}"),
            delta,
        ]
    };
    let rows_out = rows
        .iter()
        .map(|r| cells(r.benchmark.label(), r.ldo_pct, r.fivr_pct));
    let headers = ["benchmark", "LDO (%Vdd)", "FIVR (%Vdd)", "Δ"];
    let detail = table(&headers, rows_out.chain([cells("MAX", max_ldo, max_fivr)]));
    let avg = rows.iter().map(|r| r.fivr_pct - r.ldo_pct).sum::<f64>() / rows.len() as f64;
    let at_max = max_fivr - max_ldo;
    let measured =
        format!("LDO lower by {avg:.2} % of Vdd on average, {at_max:.2} % at the overall max");
    let claims = [Claim::Near(avg, 0.7), Claim::Near(at_max, 1.1)];
    Report::new(detail, measured, true, &claims, None)
}

/// Table 2: emergency residency per benchmark; every application must
/// stay under 1 %, and the average near the paper's 0.13 %.
pub fn table2_report(opts: &ExpOptions) -> Report {
    let rows = table2(opts);
    let avg = rows.iter().map(|r| r.pct).sum::<f64>() / rows.len() as f64;
    let cells = |label: &str, pct: f64, paper: Option<f64>| {
        vec![label.to_string(), format!("{pct:.3}"), fmt_opt(paper, 3)]
    };
    let rows_out = rows
        .iter()
        .map(|r| cells(r.benchmark.label(), r.pct, r.paper_pct));
    let avg_row = cells("AVG", avg, Some(PAPER_AVERAGE_EMERGENCY_PCT));
    let detail = table(
        &["benchmark", "% exec. time", "paper (%)"],
        rows_out.chain([avg_row]),
    );
    let (lo, hi) = span(rows.iter().map(|r| r.pct));
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
