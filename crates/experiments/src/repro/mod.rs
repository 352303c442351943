//! The paper's artefacts as data: one [`Artefact`] per figure, table and
//! ablation, run by the `repro` binary.
//!
//! An entry is a row of EXPERIMENTS.md's summary table — id, artefact,
//! what the paper says — plus the function that runs it. The function
//! returns a [`Report`]: the detail tables, the "Measured" cell, and a
//! shape mark that [`grade`] computes from the paper's [`Claim`]s, so
//! `repro all --quiet` prints exactly that table. Each artefact is one
//! such function: it runs its simulations and builds its tables, claims
//! and shape predicate in one place, with no data type between them.

use crate::context::ExpOptions;
use crate::report::TextTable;
use thermogater::{PolicyKind, SimulationEngine, SimulationResult};
use workload::WorkloadSpec;

pub mod ablations;
pub mod noise_figs;
pub mod powerloss;
pub mod regulator;
pub mod sweep_figs;
pub mod thermal_figs;

/// One artefact of the paper: a row of EXPERIMENTS.md's summary table.
#[derive(Debug, Clone, Copy)]
pub struct Artefact {
    /// The id `repro` selects it by (EXPERIMENTS.md's ID column).
    pub id: &'static str,
    /// What the artefact shows.
    pub artefact: &'static str,
    /// The paper's claims its grade checks.
    pub paper_says: &'static str,
    /// Runs the artefact.
    pub run: fn(&ExpOptions) -> Report,
}

/// What one artefact run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Detail tables (printed unless `--quiet`).
    pub detail: String,
    /// The summary table's "Measured" cell.
    pub measured: String,
    /// The shape mark, `✓✓`, `✓` or `✗` (see [`grade`]).
    pub mark: &'static str,
    /// A static note after the mark, naming a known gap.
    pub note: Option<&'static str>,
}

/// One number the paper reports, as `(measured, paper)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Claim {
    /// The paper reports this value.
    Near(f64, f64),
    /// The paper reports this positive lower bound.
    AtLeast(f64, f64),
    /// The paper reports this positive upper bound.
    AtMost(f64, f64),
}

impl Claim {
    /// Whether the measurement has the paper's sign and lies within
    /// `factor` of its value, or inside its bound loosened by `slack`.
    fn holds(self, factor: f64, slack: f64) -> bool {
        match self {
            Claim::Near(m, p) => (1.0 / factor..=factor).contains(&(m / p)),
            Claim::AtLeast(m, p) => m * slack >= p,
            Claim::AtMost(m, p) => m <= p * slack,
        }
    }
}

/// The one grading rule: `✗` unless `shape_holds` and every claim is
/// within a factor of 3 (bounds loosened 3×); `✓✓` when there are claims
/// and each is within 20 % (bounds met); `✓` otherwise. NaN fails.
pub fn grade(shape_holds: bool, claims: &[Claim]) -> &'static str {
    if !shape_holds || !claims.iter().all(|c| c.holds(3.0, 3.0)) {
        "✗"
    } else if !claims.is_empty() && claims.iter().all(|c| c.holds(1.2, 1.0)) {
        "✓✓"
    } else {
        "✓"
    }
}

impl Report {
    /// A report whose mark [`grade`] computes.
    pub fn new(
        detail: String,
        measured: String,
        shape_holds: bool,
        claims: &[Claim],
        note: Option<&'static str>,
    ) -> Self {
        let mark = grade(shape_holds, claims);
        Report {
            detail,
            measured,
            mark,
            note,
        }
    }
}

/// Runs `workload` under `policy` on `engine`: every artefact simulates
/// through here, and the paper's configurations always simulate.
fn simulate(
    engine: &SimulationEngine<'_>,
    workload: impl Into<WorkloadSpec>,
    policy: PolicyKind,
) -> SimulationResult {
    let result = engine.run_spec(&workload.into(), policy);
    result.expect("physical configuration simulates")
}

/// Renders `rows` under `headers` as an aligned text table.
fn table(headers: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let mut table = TextTable::new(headers);
    rows.into_iter().for_each(|row| table.add_row(row));
    table.render()
}

/// The smallest and largest of `values`.
fn span(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let extremes = (f64::INFINITY, f64::NEG_INFINITY);
    values
        .into_iter()
        .fold(extremes, |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// `lo–hi` at `precision` decimals, or one value when both print alike.
fn range(lo: f64, hi: f64, precision: usize) -> String {
    let (lo, hi) = (format!("{lo:.precision$}"), format!("{hi:.precision$}"));
    if lo == hi {
        lo
    } else {
        format!("{lo}–{hi}")
    }
}

/// The header of EXPERIMENTS.md's summary table.
pub const SUMMARY_HEADER: &str = "| ID | Artefact | Paper says | Measured | Shape |\n\
                                  |----|----------|-----------|----------|-------|";

impl Artefact {
    /// This artefact's summary-table row for `report`.
    pub fn summary_row(&self, report: &Report) -> String {
        let note = report.note.map(|n| format!(" ({n})")).unwrap_or_default();
        format!(
            "| {} | {} | {} | {} | {}{note} |",
            self.id, self.artefact, self.paper_says, report.measured, report.mark
        )
    }
}

/// The registry entry with this id.
pub fn find(id: &str) -> Option<&'static Artefact> {
    ARTEFACTS.iter().find(|a| a.id == id)
}

/// Every artefact, in EXPERIMENTS.md's order.
pub const ARTEFACTS: &[Artefact] = &[
    Artefact {
        id: "fig01",
        artefact: "ISSCC'15 survey η vs I_out",
        paper_says: "8 designs, each peaking at 40–95 % inside its range and degrading off-peak",
        run: regulator::fig01_report,
    },
    Artefact {
        id: "fig02",
        artefact: "16-phase buck + effective curve",
        paper_says: "per-count curves peak at increasing I_out; gated effective curve ≈ flat at η_peak over 0–15 A",
        run: regulator::fig02_report,
    },
    Artefact {
        id: "fig05",
        artefact: "9-phase calibration family",
        paper_says: "each component ≈1.5 A at η_peak = 90 %",
        run: regulator::fig05_report,
    },
    Artefact {
        id: "fig06",
        artefact: "#active regulators track power demand (lu_ncb)",
        paper_says: "activity closely tracks temporal power changes (r ≥ 0.9)",
        run: powerloss::fig06_report,
    },
    Artefact {
        id: "fig07",
        artefact: "P_loss saving of gating vs all-on",
        paper_says: "chol saves least (10.4 %), rayt most (49.8 %), AVG 26.5 %",
        run: powerloss::fig07_report,
    },
    Artefact {
        id: "fig08",
        artefact: "one regulator's T under Naïve",
        paper_says: "toggling every 1 ms, swing > 5 °C",
        run: thermal_figs::fig08_report,
    },
    Artefact {
        id: "fig09",
        artefact: "T_max per policy × benchmark",
        paper_says: "all-on − off-chip +5.4 °C; Naïve − all-on +1.1; OracT − all-on −1.2; OracV − all-on +8.5; PracT − OracT +0.5",
        run: sweep_figs::fig09_report,
    },
    Artefact {
        id: "fig10",
        artefact: "max thermal gradient per policy",
        paper_says: "all-on/off-chip +79.4 %; Naïve/all-on +12.5 %; OracT/all-on −10.9 %; OracV/all-on +96.3 %; PracT/OracT +3 %",
        run: sweep_figs::fig10_report,
    },
    Artefact {
        id: "fig11",
        artefact: "max voltage noise per policy",
        paper_says: "OracT 23.4 %, +79.3 % over all-on (13.05 %); OracV 28.2 % below OracT (fft); PracVT 13.22 %, i.e. 98 % of OracT's excess removed",
        run: sweep_figs::fig11_report,
    },
    Artefact {
        id: "fig12",
        artefact: "cholesky heat maps at T_max",
        paper_says: "off-chip ≤66 °C < OracT ≈71.2 < all-on 73 < OracV >90 °C",
        run: thermal_figs::fig12_report,
    },
    Artefact {
        id: "fig13",
        artefact: "regulator activity: logic vs memory groups",
        paper_says: "OracT keeps memory-side regulators on, OracV the opposite",
        run: thermal_figs::fig13_report,
    },
    Artefact {
        id: "fig14",
        artefact: "worst-window noise trace, OracT vs OracV (fft)",
        paper_says: "OracV cuts the critical window's max noise by 28.2 %",
        run: noise_figs::fig14_report,
    },
    Artefact {
        id: "fig15",
        artefact: "LDO vs FIVR max noise (all-on)",
        paper_says: "LDO ≈0.7 % lower on average, ≈1.1 % at the overall max",
        run: noise_figs::fig15_report,
    },
    Artefact {
        id: "table2",
        artefact: "% cycles in voltage emergencies (OracT)",
        paper_says: "0.001–0.67 % per app (all well under 1 %), AVG 0.13 %",
        run: noise_figs::table2_report,
    },
    Artefact {
        id: "ablation_interval",
        artefact: "footnote 5: 100× shorter decisions",
        paper_says: "< 1 % change in T_max and conversion loss",
        run: ablations::interval_report,
    },
    Artefact {
        id: "ablation_placement",
        artefact: "§5: optimized vs uniform placement",
        paper_says: "< 0.4 % of Vdd max-noise difference",
        run: ablations::placement_report,
    },
    Artefact {
        id: "ablation_r2",
        artefact: "§6.3: ΔT = θ·ΔP predictor",
        paper_says: "R² ≈ 0.99",
        run: ablations::r2_report,
    },
    Artefact {
        id: "ablation_aging",
        artefact: "§7 discussion: aging balance",
        paper_says: "OracV concentrates heat near logic and ages its fleet fastest",
        run: ablations::aging_report,
    },
    Artefact {
        id: "ablation_cooling",
        artefact: "§5: better cooling",
        paper_says: "observations hold: off-chip < OracT ≤ all-on < OracV",
        run: ablations::cooling_report,
    },
    Artefact {
        id: "ablation_multiprogram",
        artefact: "§7: multiprogramming",
        paper_says: "per-domain independence accommodates mixes: a mix lands between its programs",
        run: ablations::multiprogram_report,
    },
    Artefact {
        id: "ablation_thermal_placement",
        artefact: "§7: thermally-aware placement",
        paper_says: "cools logic but \"very likely to boost voltage noise\"",
        run: ablations::thermal_placement_report,
    },
    Artefact {
        id: "ablation_vr_count",
        artefact: "footnote 2: regulator count",
        paper_says: "lower count worsens thermal *and* noise",
        run: ablations::vr_count_report,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grade_applies_one_rule() {
        assert_eq!(grade(true, &[]), "✓");
        assert_eq!(grade(false, &[]), "✗");
        assert_eq!(grade(true, &[Claim::Near(-1.1, -1.2)]), "✓✓");
        assert_eq!(grade(true, &[Claim::Near(-0.5, -1.2)]), "✓");
        // The wrong sign, or beyond a factor of 3, misses.
        assert_eq!(grade(true, &[Claim::Near(0.5, -1.2)]), "✗");
        assert_eq!(grade(true, &[Claim::Near(1.6, 8.5)]), "✗");
        assert_eq!(grade(true, &[Claim::AtLeast(5.2, 5.0)]), "✓✓");
        assert_eq!(grade(true, &[Claim::AtLeast(4.2, 5.0)]), "✓");
        assert_eq!(grade(true, &[Claim::AtMost(0.3, 0.4)]), "✓✓");
        assert_eq!(grade(true, &[Claim::AtMost(4.0, 1.0)]), "✗");
        assert_eq!(grade(true, &[Claim::Near(f64::NAN, 1.0)]), "✗");
    }

    /// EXPERIMENTS.md's summary table lists the registry's ids, in order.
    #[test]
    fn experiments_md_summary_ids_match_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md readable");
        let (_, table) = doc
            .split_once(SUMMARY_HEADER)
            .expect("EXPERIMENTS.md has the summary table header");
        let ids: Vec<&str> = table
            .lines()
            .skip(1)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.split('|').nth(1).expect("id column").trim())
            .collect();
        let registry: Vec<&str> = ARTEFACTS.iter().map(|a| a.id).collect();
        assert_eq!(ids, registry);
    }
}
