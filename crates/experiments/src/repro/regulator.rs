//! Fig. 1, Fig. 2, and Fig. 5 — regulator efficiency characteristics.

use super::{range, span, table, Claim, Report};
use crate::context::ExpOptions;
use simkit::units::Amps;
use vreg::{survey, EfficiencyCurve, RegulatorBank, RegulatorDesign};

/// One labelled η-vs-current curve.
#[derive(Debug, Clone, PartialEq)]
struct LabelledCurve {
    /// Legend label (the active-phase count, or "effective").
    label: String,
    /// `(I_out amps, η)` samples.
    points: Vec<(f64, f64)>,
}

/// A multi-phase regulator's curve family plus the effective curve that
/// phase gating achieves.
#[derive(Debug, Clone, PartialEq)]
struct PhaseFamily {
    /// One curve per active-phase count.
    per_count: Vec<LabelledCurve>,
    /// The gated effective curve (the dotted trend line of Fig. 2/5).
    effective: LabelledCurve,
}

/// Builds the η-vs-I_out family of a bank of `total` phases for the given
/// active-phase counts, sampling each curve at `samples` points up to the
/// bank's full-load current.
///
/// # Panics
///
/// Panics when a count is zero or exceeds `total`.
fn phase_family(
    design: &RegulatorDesign,
    total: usize,
    counts: &[usize],
    samples: usize,
) -> PhaseFamily {
    let bank = RegulatorBank::new(design.clone(), total);
    let i_full = design.peak_current() * total as f64 * 1.2;
    let per_count = counts
        .iter()
        .map(|&n| {
            assert!(n >= 1 && n <= total, "invalid phase count {n}");
            let points = (1..=samples)
                .map(|k| {
                    let i = i_full * (k as f64 / samples as f64);
                    let eta = bank
                        .efficiency(Amps::new(i.get()), n)
                        .expect("validated count");
                    (i.get(), eta)
                })
                .collect();
            LabelledCurve {
                label: format!("{n} active"),
                points,
            }
        })
        .collect();
    let effective = LabelledCurve {
        label: "effective".to_string(),
        points: bank.effective_curve(i_full, samples),
    };
    PhaseFamily {
        per_count,
        effective,
    }
}

/// Fig. 2: the 16-phase Intel buck regulator — phases of ≈0.94 A each so
/// the full bank covers the figure's 0–15 A axis.
fn fig02_family() -> PhaseFamily {
    let curve =
        EfficiencyCurve::scaled_reference(0.90, Amps::new(15.0 / 16.0)).expect("static parameters");
    let design = RegulatorDesign::new(
        "Intel-16phase",
        vreg::RegulatorTopology::Buck,
        curve,
        33.6,
        simkit::units::Seconds::from_nanos(15.0),
    );
    phase_family(&design, 16, &[2, 4, 8, 12, 16], 120)
}

/// Fig. 5: the calibration family used throughout the evaluation — a
/// per-core domain of 9 FIVR-like phases (1.5 A each at η_peak = 90 %).
fn fig05_family() -> PhaseFamily {
    phase_family(&RegulatorDesign::fivr(), 9, &FIG05_COUNTS, 120)
}

/// The active-phase counts of Fig. 5's family.
const FIG05_COUNTS: [usize; 6] = [2, 3, 4, 6, 8, 9];

/// The `(I_out, η)` sample where a curve peaks.
fn peak(points: &[(f64, f64)]) -> (f64, f64) {
    points.iter().copied().fold(
        (0.0, f64::MIN),
        |best, p| if p.1 > best.1 { p } else { best },
    )
}

/// Fig. 1: the reported efficiency curves of the eight ISSCC 2015
/// designs; each must peak at 40–95 % and be lower at both ends of its
/// range.
pub fn fig01_report(_opts: &ExpOptions) -> Report {
    let survey = survey::isscc2015();
    let mut detail = String::new();
    for entry in &survey {
        let points = entry.curve.points().iter();
        let rows = points.map(|(i, eta)| vec![format!("{i:.6}"), format!("{:.1}", eta * 100.0)]);
        let label = format!("{} {}", entry.tag, entry.description);
        detail += &format!("\n{label}\n{}", table(&["I_out (A)", "η (%)"], rows));
    }
    let n = survey.len();
    let flanked = survey
        .iter()
        .filter(|entry| {
            let points = entry.curve.points();
            let top = peak(points).1;
            points[0].1 < top && points[points.len() - 1].1 < top
        })
        .count();
    let (lo, hi) = span(survey.iter().map(|e| peak(e.curve.points()).1 * 100.0));
    let measured = format!(
        "{n}-design dataset, peaks {} %, {flanked} of {n} degrade on both flanks",
        range(lo, hi, 0)
    );
    let shape = n == 8 && flanked == n && lo >= 40.0 && hi <= 95.0;
    Report::new(detail, measured, shape, &[], None)
}

/// A phase family as one table, every 6th sample.
fn family_table(family: &PhaseFamily) -> String {
    let mut headers = vec!["I_out (A)"];
    headers.extend(family.per_count.iter().map(|c| c.label.as_str()));
    headers.push(&family.effective.label);
    let rows = (0..family.effective.points.len()).step_by(6).map(|k| {
        let mut row = vec![format!("{:.2}", family.effective.points[k].0)];
        for curve in family.per_count.iter().chain([&family.effective]) {
            row.push(format!("{:.1}", curve.points[k].1 * 100.0));
        }
        row
    });
    table(&headers, rows)
}

/// Whether each active-phase count peaks at a higher current than the
/// one before it.
fn peaks_rise(family: &PhaseFamily) -> bool {
    let peaks: Vec<f64> = family.per_count.iter().map(|c| peak(&c.points).0).collect();
    peaks.windows(2).all(|w| w[0] < w[1])
}

/// Fig. 2: the 16-phase family; per-count peaks must rise with current
/// and the effective curve stay within 3 points of its peak past 1 A.
pub fn fig02_report(_opts: &ExpOptions) -> Report {
    let family = fig02_family();
    let effective = family.effective.points.iter();
    let floor = effective
        .filter(|p| p.0 > 1.0)
        .map(|p| p.1 * 100.0)
        .fold(f64::INFINITY, f64::min);
    let rising = peaks_rise(&family);
    let measured = format!(
        "per-count peaks {} with I_out; effective-curve floor {floor:.1} % past 1 A",
        if rising { "rise" } else { "do not rise" }
    );
    let flat = floor >= peak(&family.effective.points).1 * 100.0 - 3.0;
    Report::new(family_table(&family), measured, rising && flat, &[], None)
}

/// Fig. 5: the calibration family; each count must peak at ≈1.5 A per
/// phase and η_peak ≈ 90 %.
pub fn fig05_report(_opts: &ExpOptions) -> Report {
    let family = fig05_family();
    let per_phase: Vec<(f64, f64)> = (family.per_count.iter().zip(FIG05_COUNTS))
        .map(|(c, n)| {
            let (i, eta) = peak(&c.points);
            (i / n as f64, eta * 100.0)
        })
        .collect();
    let claims: Vec<Claim> = per_phase
        .iter()
        .flat_map(|&(i, eta)| [Claim::Near(i, 1.5), Claim::Near(eta, 90.0)])
        .collect();
    let (i_lo, i_hi) = span(per_phase.iter().map(|p| p.0));
    let (e_lo, e_hi) = span(per_phase.iter().map(|p| p.1));
    let measured = format!(
        "each phase peaks at {} A, η_peak {} %",
        range(i_lo, i_hi, 2),
        range(e_lo, e_hi, 1)
    );
    Report::new(
        family_table(&family),
        measured,
        peaks_rise(&family),
        &claims,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_counts_match_figure_legend() {
        let fam = fig02_family();
        let labels: Vec<_> = fam.per_count.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["2 active", "4 active", "8 active", "12 active", "16 active"]
        );
        // Full bank covers ≥ 15 A.
        let max_i = fam.effective.points.last().map(|&(i, _)| i).unwrap_or(0.0);
        assert!(max_i >= 15.0, "axis reach {max_i}");
    }

    #[test]
    fn each_count_peaks_at_increasing_current() {
        let fam = fig05_family();
        let mut prev_peak = 0.0;
        for curve in &fam.per_count {
            let (peak_i, _) = curve
                .points
                .iter()
                .copied()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!(peak_i > prev_peak, "{}: {peak_i}", curve.label);
            prev_peak = peak_i;
        }
    }

    #[test]
    fn effective_curve_tracks_peak_efficiency() {
        // Past the first phase's ramp, the gated effective curve stays
        // within ~1.5 % of η_peak (the near-flat dotted line of Fig. 5).
        // It may dip marginally below a fixed-count curve right past an
        // n_on boundary, because `required_active` never overloads a
        // phase beyond its rated peak current.
        let fam = fig05_family();
        let eta_peak = RegulatorDesign::fivr().peak_efficiency();
        for &(i, eta_eff) in &fam.effective.points {
            if i < 3.0 {
                continue; // the 1→2→3 phase steps still ride the ramp
            }
            assert!(
                eta_eff > eta_peak - 0.015,
                "effective {eta_eff} too far below peak at {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid phase count")]
    fn zero_count_panics() {
        phase_family(&RegulatorDesign::fivr(), 9, &[0], 10);
    }
}
