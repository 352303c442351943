//! Fig. 6 and Fig. 7 — regulator-count tracking and conversion-loss
//! savings.

use super::{span, table, Claim, Report};
use crate::context::ExpOptions;
use crate::report::{downsample, fmt_opt};
use crate::sweep;
use floorplan::reference::power8_like;
use simkit::stats::pearson;
use thermogater::{PolicyKind, SimulationEngine};
use workload::Benchmark;

/// Fig. 6 data: the evolution of the demand-driven active-regulator
/// count against the total power demand over time (lu_ncb, Section 6.1's
/// thermally-oblivious peak-efficiency gating).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig06Data {
    /// Sample times, ms.
    pub time_ms: Vec<f64>,
    /// Total chip power demand, W.
    pub power_w: Vec<f64>,
    /// Cumulative `n_on` over all domains required to sustain peak
    /// efficiency at each instant.
    pub active: Vec<f64>,
}

/// Builds Fig. 6 by simulating `lu_ncb` and reading the demand-driven
/// regulator-count series.
pub fn fig06(opts: &ExpOptions) -> Fig06Data {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let result = engine
        .run(Benchmark::LuNcb, PolicyKind::OracT)
        .expect("physical configuration simulates");
    let dt_ms = result.total_power().dt().as_millis();
    let time_ms: Vec<f64> = (0..result.total_power().len())
        .map(|i| i as f64 * dt_ms)
        .collect();
    Fig06Data {
        time_ms,
        power_w: result.total_power().values().to_vec(),
        active: result.required_count().values().to_vec(),
    }
}

/// One row of Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig07Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// % conversion-loss saving of gating vs. keeping all 96 regulators
    /// on.
    pub saving_pct: f64,
    /// The value the paper reports, where it states one explicitly.
    pub paper_pct: Option<f64>,
}

/// Fig. 7: per-benchmark regulator conversion-loss saving under optimal
/// (peak-efficiency) gating vs. the all-on baseline.
pub fn fig07(opts: &ExpOptions) -> Vec<Fig07Row> {
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let all_on = sweep::record_for(opts, benchmark, PolicyKind::AllOn);
            let gated = sweep::record_for(opts, benchmark, PolicyKind::OracT);
            let saving_pct = (1.0 - gated.mean_loss_w / all_on.mean_loss_w) * 100.0;
            Fig07Row {
                benchmark,
                saving_pct,
                paper_pct: paper_saving(benchmark),
            }
        })
        .collect()
}

/// The savings the paper quotes explicitly in Section 6.1.
fn paper_saving(benchmark: Benchmark) -> Option<f64> {
    match benchmark {
        Benchmark::Cholesky => Some(10.4),
        Benchmark::Raytrace => Some(49.8),
        _ => None,
    }
}

/// The paper's reported average saving across the suite (26.5 %).
pub const PAPER_AVERAGE_SAVING_PCT: f64 = 26.5;

/// Fig. 6: demand and active count over time; they must correlate at
/// r ≥ 0.9 (closely tracking) at full resolution.
pub fn fig06_report(opts: &ExpOptions) -> Report {
    let data = fig06(opts);
    // 100 µs buckets resolve the program phases without drowning the
    // table (the decision interval is 1 ms).
    let points = (data.time_ms.len() / 5).clamp(1, 200);
    let [time, power, active] =
        [&data.time_ms, &data.power_w, &data.active].map(|s| downsample(s, points));
    let rows = (0..time.len()).step_by((time.len() / 50).max(1)).map(|k| {
        vec![
            format!("{:.2}", time[k]),
            format!("{:.1}", power[k]),
            format!("{:.1}", active[k]),
        ]
    });
    let detail = table(
        &["time (ms)", "total power (W)", "# active regulators"],
        rows,
    );
    let r = pearson(&data.power_w, &data.active).unwrap_or(f64::NAN);
    let (p_lo, p_hi) = span(data.power_w.iter().copied());
    let (a_lo, a_hi) = span(data.active.iter().copied());
    let measured = format!(
        "Pearson r = {r:.3} between demand and required count; power swings \
         {p_lo:.0}–{p_hi:.0} W, count {a_lo:.0}–{a_hi:.0}"
    );
    Report::new(detail, measured, r >= 0.9, &[], None)
}

/// Fig. 7: savings per benchmark; cholesky must save least and raytrace
/// most, near the paper's quoted savings and average.
pub fn fig07_report(opts: &ExpOptions) -> Report {
    let rows = fig07(opts);
    let avg = rows.iter().map(|r| r.saving_pct).sum::<f64>() / rows.len() as f64;
    let cells = |label: &str, saving: f64, paper: Option<f64>| {
        vec![label.to_string(), format!("{saving:.1}"), fmt_opt(paper, 1)]
    };
    let rows_out = rows
        .iter()
        .map(|r| cells(r.benchmark.label(), r.saving_pct, r.paper_pct));
    let avg_row = cells("AVG", avg, Some(PAPER_AVERAGE_SAVING_PCT));
    let detail = table(
        &["benchmark", "saving (%)", "paper (%)"],
        rows_out.chain([avg_row]),
    );
    let saving = |b| {
        rows.iter()
            .find(|r| r.benchmark == b)
            .expect("every benchmark")
    };
    let (chol, rayt) = (saving(Benchmark::Cholesky), saving(Benchmark::Raytrace));
    let (lo, hi) = span(rows.iter().map(|r| r.saving_pct));
    let measured = format!(
        "chol {:.1} %, rayt {:.1} %, AVG {avg:.1} %",
        chol.saving_pct, rayt.saving_pct
    );
    let quoted = |r: &Fig07Row| Claim::Near(r.saving_pct, r.paper_pct.unwrap_or(f64::NAN));
    let claims = [
        quoted(chol),
        quoted(rayt),
        Claim::Near(avg, PAPER_AVERAGE_SAVING_PCT),
    ];
    let shape = chol.saving_pct == lo && rayt.saving_pct == hi;
    Report::new(detail, measured, shape, &claims, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchors_are_the_section61_numbers() {
        assert_eq!(paper_saving(Benchmark::Cholesky), Some(10.4));
        assert_eq!(paper_saving(Benchmark::Raytrace), Some(49.8));
        assert_eq!(paper_saving(Benchmark::Fft), None);
        assert!((PAPER_AVERAGE_SAVING_PCT - 26.5).abs() < 1e-12);
    }
}
