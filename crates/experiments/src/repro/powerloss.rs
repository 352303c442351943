//! Fig. 6 and Fig. 7 — regulator-count tracking and conversion-loss
//! savings.

use super::{simulate, span, table, Claim, Report};
use crate::context::ExpOptions;
use crate::report::{downsample, fmt_opt};
use crate::sweep;
use floorplan::reference::power8_like;
use simkit::stats::pearson;
use thermogater::{PolicyKind, SimulationEngine};
use workload::Benchmark;

/// The savings the paper quotes explicitly in Section 6.1.
fn paper_saving(benchmark: Benchmark) -> Option<f64> {
    match benchmark {
        Benchmark::Cholesky => Some(10.4),
        Benchmark::Raytrace => Some(49.8),
        _ => None,
    }
}

/// The paper's reported average saving across the suite (26.5 %).
const PAPER_AVERAGE_SAVING_PCT: f64 = 26.5;

/// Fig. 6: the demand-driven active-regulator count (Section 6.1's
/// thermally-oblivious peak-efficiency gating, summed over domains)
/// against total power demand over time on `lu_ncb`; they must
/// correlate at r ≥ 0.9 (closely tracking) at full resolution.
pub fn fig06_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let result = simulate(&engine, Benchmark::LuNcb, PolicyKind::OracT);
    let series = result.total_power();
    let dt_ms = series.dt().as_millis();
    let time_ms: Vec<f64> = (0..series.len()).map(|i| i as f64 * dt_ms).collect();
    let (power, active) = (series.values(), result.required_count().values());
    // 100 µs buckets resolve the program phases without drowning the
    // table (the decision interval is 1 ms).
    let points = (time_ms.len() / 5).clamp(1, 200);
    let [t, p, a] = [&time_ms[..], power, active].map(|s| downsample(s, points));
    let rows = (0..t.len()).step_by((t.len() / 50).max(1)).map(|k| {
        let [t, p, a] = [t[k], p[k], a[k]];
        vec![format!("{t:.2}"), format!("{p:.1}"), format!("{a:.1}")]
    });
    let detail = table(
        &["time (ms)", "total power (W)", "# active regulators"],
        rows,
    );
    let r = pearson(power, active).unwrap_or(f64::NAN);
    let (p_lo, p_hi) = span(power.iter().copied());
    let (a_lo, a_hi) = span(active.iter().copied());
    let measured = format!(
        "Pearson r = {r:.3} between demand and required count; power swings \
         {p_lo:.0}–{p_hi:.0} W, count {a_lo:.0}–{a_hi:.0}"
    );
    Report::new(detail, measured, r >= 0.9, &[], None)
}

/// Fig. 7: each benchmark's conversion-loss saving of optimal
/// (peak-efficiency) gating over keeping all 96 regulators on, from the
/// shared sweep; cholesky must save least and raytrace most, near the
/// paper's quoted savings and average.
pub fn fig07_report(opts: &ExpOptions) -> Report {
    let (all_on, gated) = (PolicyKind::AllOn, PolicyKind::OracT);
    let records = sweep::grid(opts, &Benchmark::ALL, &[all_on, gated]);
    let saving: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&b| {
            let loss = |p| sweep::cell(&records, b, p).mean_loss_w;
            (1.0 - loss(gated) / loss(all_on)) * 100.0
        })
        .collect();
    let avg = saving.iter().sum::<f64>() / saving.len() as f64;
    let cells = |label: &str, saving: f64, paper: Option<f64>| {
        vec![label.to_string(), format!("{saving:.1}"), fmt_opt(paper, 1)]
    };
    let rows_out = Benchmark::ALL
        .iter()
        .zip(&saving)
        .map(|(&b, &s)| cells(b.label(), s, paper_saving(b)));
    let avg_row = cells("AVG", avg, Some(PAPER_AVERAGE_SAVING_PCT));
    let detail = table(
        &["benchmark", "saving (%)", "paper (%)"],
        rows_out.chain([avg_row]),
    );
    let of = |b: Benchmark| {
        let k = Benchmark::ALL.iter().position(|&x| x == b);
        (
            k.map_or(f64::NAN, |k| saving[k]),
            paper_saving(b).unwrap_or(f64::NAN),
        )
    };
    let ((chol, chol_paper), (rayt, rayt_paper)) =
        (of(Benchmark::Cholesky), of(Benchmark::Raytrace));
    let (lo, hi) = span(saving.iter().copied());
    let measured = format!("chol {chol:.1} %, rayt {rayt:.1} %, AVG {avg:.1} %");
    let claims = [
        Claim::Near(chol, chol_paper),
        Claim::Near(rayt, rayt_paper),
        Claim::Near(avg, PAPER_AVERAGE_SAVING_PCT),
    ];
    let shape = chol == lo && rayt == hi;
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
