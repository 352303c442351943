//! Figs. 9, 10 and 11 — the benchmark × policy sweeps. One renderer
//! draws a [`SweepRecord`] field per benchmark and policy; each figure
//! then compares policy averages with the paper's.

use super::noise_figs::PAPER_ORACV_CUT_PCT;
use super::{table, Claim, Report};
use crate::context::ExpOptions;
use crate::sweep::{self, SweepRecord};
use thermogater::PolicyKind::{self, AllOn, Naive, OffChip, OracT, OracV, OracVT, PracT, PracVT};
use workload::Benchmark;

/// A footer row: its label and how it folds one policy's column.
type Footer = (&'static str, fn(&[f64]) -> f64);

/// Sweeps `policies` over every benchmark and renders `field` per cell
/// (plus `footer`). Returns the table and each policy's benchmark mean.
fn panel(
    opts: &ExpOptions,
    policies: &[PolicyKind],
    field: fn(&SweepRecord) -> f64,
    footer: Option<Footer>,
) -> (String, impl Fn(PolicyKind) -> f64) {
    let records = sweep::grid(opts, &Benchmark::ALL, policies);
    let column = move |p: PolicyKind| -> Vec<f64> {
        let cells = Benchmark::ALL.iter().map(|&b| sweep::cell(&records, b, p));
        cells.map(field).collect()
    };
    let columns: Vec<Vec<f64>> = policies.iter().map(|&p| column(p)).collect();
    let row = |label: &str, cell: &dyn Fn(&[f64]) -> f64| {
        let cells = columns.iter().map(|c| format!("{:.1}", cell(c)));
        [vec![label.to_string()], cells.collect()].concat()
    };
    let rows = Benchmark::ALL
        .iter()
        .enumerate()
        .map(|(k, b)| row(b.label(), &|c| c[k]));
    let footer = footer.map(|(label, fold)| row(label, &fold));
    let mut headers = vec!["benchmark"];
    headers.extend(policies.iter().map(|p| p.label()));
    let detail = table(&headers, rows.chain(footer));
    (detail, move |p| mean(&column(p)))
}

fn mean(column: &[f64]) -> f64 {
    column.iter().sum::<f64>() / column.len() as f64
}

/// One compared pair of policies: a label, the pair, and the paper's
/// value for their difference.
type Delta = (&'static str, PolicyKind, PolicyKind, f64);

/// A full 14 × 8 panel graded on each delta, the `combine`d means of its
/// two policies printed at `precision`, against the paper's value.
fn delta_figure(
    opts: &ExpOptions,
    field: fn(&SweepRecord) -> f64,
    footer: Option<Footer>,
    deltas: &[Delta; 5],
    (combine, unit, precision): (fn(f64, f64) -> f64, &str, usize),
) -> Report {
    let (detail, average) = panel(opts, &PolicyKind::ALL, field, footer);
    let measured = deltas.map(|(_, a, b, _)| combine(average(a), average(b)));
    let cells = deltas.iter().zip(measured);
    let cells: Vec<String> = cells
        .map(|((label, ..), m)| format!("{label} {m:+.precision$} {unit}"))
        .collect();
    let claims = deltas
        .iter()
        .zip(measured)
        .map(|(d, m)| Claim::Near(m, d.3));
    let claims: Vec<Claim> = claims.collect();
    Report::new(
        detail,
        cells.join("; "),
        true,
        &claims,
        Some("OracV weaker"),
    )
}

/// Fig. 9: T_max per benchmark and policy, graded on the paper's five
/// average deltas (°C).
pub fn fig09_report(opts: &ExpOptions) -> Report {
    let deltas = [
        ("all-on − off-chip", AllOn, OffChip, 5.4),
        ("Naïve − all-on", Naive, AllOn, 1.1),
        ("OracT − all-on", OracT, AllOn, -1.2),
        ("OracV − all-on", OracV, AllOn, 8.5),
        ("PracT − OracT", PracT, OracT, 0.5),
    ];
    let footer: Footer = ("AVG", mean);
    delta_figure(
        opts,
        |r| r.tmax_c,
        Some(footer),
        &deltas,
        (|a, b| a - b, "°C", 2),
    )
}

/// Fig. 10: maximum gradient per benchmark and policy, graded on the
/// paper's five average relative deltas (%).
pub fn fig10_report(opts: &ExpOptions) -> Report {
    let deltas = [
        ("all-on/off-chip", AllOn, OffChip, 79.4),
        ("Naïve/all-on", Naive, AllOn, 12.5),
        ("OracT/all-on", OracT, AllOn, -10.9),
        ("OracV/all-on", OracV, AllOn, 96.3),
        ("PracT/OracT", PracT, OracT, 3.0),
    ];
    let relative: fn(f64, f64) -> f64 = |a, b| (a / b - 1.0) * 100.0;
    delta_figure(opts, |r| r.gradient_c, None, &deltas, (relative, "%", 1))
}

/// Fig. 11: maximum noise per benchmark and Fig. 11's policies (no
/// Naïve, no off-chip), graded on OracT's excess over all-on, OracV's
/// cut below OracT, and the share of OracT's excess PracVT removes
/// (paper averages: OracT 23.4, all-on 13.05, PracVT 13.22 % of Vdd).
pub fn fig11_report(opts: &ExpOptions) -> Report {
    let noise = |r: &SweepRecord| r.max_noise_pct.unwrap_or(f64::NAN);
    let max: fn(&[f64]) -> f64 = |c| c.iter().copied().fold(0.0, f64::max);
    let policies = [OracT, OracV, OracVT, PracT, PracVT, AllOn];
    let (detail, average) = panel(opts, &policies, noise, Some(("MAX", max)));
    let [t, v, vt, pvt, on] = [OracT, OracV, OracVT, PracVT, AllOn].map(average);
    let excess = |t: f64, on: f64| (t / on - 1.0) * 100.0;
    let removed = |t: f64, pvt: f64, on: f64| (1.0 - (pvt - on) / (t - on)) * 100.0;
    let (over, cut, gone) = (excess(t, on), (1.0 - v / t) * 100.0, removed(t, pvt, on));
    let measured = format!(
        "OracT {t:.1} % ({over:+.0} % over all-on); OracV {cut:.0} % below OracT; \
         OracVT/PracVT {vt:.1}/{pvt:.1} vs all-on {on:.1} % ({gone:.0} % of OracT's excess removed)"
    );
    let claims = [
        Claim::Near(over, excess(23.4, 13.05)),
        Claim::Near(cut, PAPER_ORACV_CUT_PCT),
        Claim::Near(gone, removed(23.4, 13.22, 13.05)),
    ];
    Report::new(detail, measured, true, &claims, None)
}
