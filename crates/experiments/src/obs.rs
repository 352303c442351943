//! Run and snapshot diffing with per-metric relative tolerances.
//!
//! `tg-obs diff` reduces two runs (JSONL trace + manifest) or two
//! [`BenchSnapshot`]s to a flat list of [`MetricDelta`]s. Every metric
//! carries its own tolerance and *direction*:
//!
//! * deterministic simulation metrics (event counts, counters, gauge
//!   means, solver iterations, gating churn) gate **exactly** or near
//!   exactly in either direction — the engine is bit-reproducible, so
//!   any drift means behaviour changed;
//! * wall-clock metrics (span durations, phase seconds) are
//!   **informational** — they never gate, they are reported for eyes;
//! * snapshot rows carry their own direction and tolerance
//!   ([`crate::snapshot::Row`]), so one loop diffs every axis: solver
//!   solve and iteration counts gate exactly, wall-clock rows are
//!   informational, and peak RSS may only grow so far.
//!
//! A diff with at least one [`Verdict::Regression`] is a non-zero exit
//! for the CLI; the offending metrics are named in the rendered table.

use crate::report::TextTable;
use crate::snapshot::{BenchSnapshot, Row};
use simkit::telemetry::analyze::{Rollup, TraceAnalysis};
use simkit::telemetry::manifest::RunManifest;
use simkit::telemetry::EventKind;
use std::collections::{HashMap, HashSet};

/// How a metric is allowed to move between baseline `a` and candidate
/// `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Any relative change beyond tolerance is a regression.
    BothWays,
    /// Only an increase beyond tolerance is a regression (iterations,
    /// RSS, residuals).
    HigherIsWorse,
    /// Only a decrease beyond tolerance is a regression (throughput).
    LowerIsWorse,
    /// Never gates; reported for context (wall-clock noise).
    Informational,
}

impl Direction {
    /// The snapshot row's `better` tag: which way the metric improves
    /// (`exact` when any change beyond tolerance gates, `info` when
    /// none does).
    pub fn better_tag(self) -> &'static str {
        match self {
            Direction::BothWays => "exact",
            Direction::HigherIsWorse => "lower",
            Direction::LowerIsWorse => "higher",
            Direction::Informational => "info",
        }
    }

    /// The inverse of [`Direction::better_tag`].
    pub fn from_better_tag(tag: &str) -> Option<Self> {
        match tag {
            "exact" => Some(Direction::BothWays),
            "lower" => Some(Direction::HigherIsWorse),
            "higher" => Some(Direction::LowerIsWorse),
            "info" => Some(Direction::Informational),
            _ => None,
        }
    }
}

/// The outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or an allowed-direction change).
    Ok,
    /// Out of tolerance in a gating direction.
    Regression,
    /// Informational metric; never gates.
    Info,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name, e.g. `"solver.thermal.transient_cg.iters_p95"`.
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// Relative change `(b - a) / |a|` (sign preserved; ±∞ when the
    /// baseline is zero and the candidate is not).
    pub rel_change: f64,
    /// Allowed relative change.
    pub tolerance: f64,
    /// Gating direction.
    pub direction: Direction,
    /// Outcome.
    pub verdict: Verdict,
}

/// Per-metric tolerance overrides (`--tol name=rel` on the CLI) and the
/// cross-backend comparison mode (`--solver-agnostic`).
#[derive(Debug, Clone, Default)]
pub struct DiffConfig {
    overrides: Vec<(String, f64)>,
    solver_agnostic: bool,
}

impl DiffConfig {
    /// No overrides: built-in defaults apply.
    pub fn new() -> Self {
        DiffConfig::default()
    }

    /// Overrides the tolerance for one exact metric name.
    pub fn with_tolerance(mut self, metric: &str, tolerance: f64) -> Self {
        self.overrides.push((metric.to_string(), tolerance));
        self
    }

    /// Compares runs produced by *different solver backends*: solver
    /// sites are matched by their backend-stripped canonical name and
    /// only their solve counts gate (iteration counts and residuals are
    /// meaningless across solver families), while simulation metrics
    /// gate at [`PHYS_TOL`] instead of bit-tightness — different solvers
    /// agree to solver tolerance, not to the last ulp.
    pub fn solver_agnostic(mut self, yes: bool) -> Self {
        self.solver_agnostic = yes;
        self
    }

    fn tolerance(&self, metric: &str, default: f64) -> f64 {
        self.overrides
            .iter()
            .rev()
            .find(|(name, _)| name == metric)
            .map_or(default, |(_, t)| *t)
    }
}

/// The result of one diff: every compared metric, in comparison order.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All compared metrics.
    pub deltas: Vec<MetricDelta>,
}

impl DiffReport {
    fn push(
        &mut self,
        config: &DiffConfig,
        metric: String,
        a: f64,
        b: f64,
        default_tol: f64,
        direction: Direction,
    ) {
        let tolerance = config.tolerance(&metric, default_tol);
        let rel_change = if a == b {
            0.0
        } else if a == 0.0 {
            f64::INFINITY * (b - a).signum()
        } else {
            (b - a) / a.abs()
        };
        let verdict = match direction {
            Direction::Informational => Verdict::Info,
            _ if rel_change == 0.0 => Verdict::Ok,
            Direction::BothWays if rel_change.abs() > tolerance => Verdict::Regression,
            Direction::HigherIsWorse if rel_change > tolerance => Verdict::Regression,
            Direction::LowerIsWorse if rel_change < -tolerance => Verdict::Regression,
            _ => Verdict::Ok,
        };
        self.deltas.push(MetricDelta {
            metric,
            a,
            b,
            rel_change,
            tolerance,
            direction,
            verdict,
        });
    }

    /// The metrics that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regression)
    }

    /// Whether any metric regressed (CLI exit status).
    pub fn has_regression(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Merges another report's deltas in.
    pub fn extend(&mut self, other: DiffReport) {
        self.deltas.extend(other.deltas);
    }

    /// Renders the comparison as a column-aligned table. With
    /// `only_notable`, Ok rows are dropped (Info rows with a visible
    /// change and all regressions stay).
    pub fn render(&self, only_notable: bool) -> String {
        let mut table = TextTable::new(&["metric", "a", "b", "Δ%", "tol%", "verdict"]);
        for d in &self.deltas {
            if only_notable && d.verdict == Verdict::Ok {
                continue;
            }
            if only_notable && d.verdict == Verdict::Info && d.rel_change == 0.0 {
                continue;
            }
            let pct = |v: f64| {
                if v.is_finite() {
                    format!("{:+.2}", v * 100.0)
                } else {
                    "inf".to_string()
                }
            };
            table.add_row(vec![
                d.metric.clone(),
                format!("{:.6}", d.a),
                format!("{:.6}", d.b),
                pct(d.rel_change),
                format!("{:.2}", d.tolerance * 100.0),
                match d.verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regression => "REGRESSION".to_string(),
                    Verdict::Info => "info".to_string(),
                },
            ]);
        }
        table.render()
    }
}

/// Relative tolerance for simulation metrics in a cross-backend diff
/// ([`DiffConfig::solver_agnostic`]): direct and iterative solvers agree
/// to solver tolerance (measured ≤6e-9 relative on the hotspot
/// temperature — BENCH.md), far inside this bound, while any real
/// physics change is far outside it.
pub const PHYS_TOL: f64 = 1e-6;

/// Backend-stripped canonical solver-site name: `thermal.steady_cg`,
/// `thermal.steady_mgcg`, and `thermal.steady_direct` all solve the
/// steady conductance system. Every backend steps the backward-Euler
/// system as `thermal.transient_cg`, but traces from before the stepper
/// was unified name the same solve `thermal.gs`, `thermal.transient_mgcg`
/// or `thermal.transient_direct`; all of them map to `thermal.transient`
/// so those traces still diff — a cross-backend diff
/// matches sites by *what* they solve, not how. (`_mgcg` strips before
/// `_cg`: the suffixes overlap.)
fn canonical_site(name: &str) -> &str {
    match name {
        "thermal.gs" => "thermal.transient",
        _ => name
            .strip_suffix("_mgcg")
            .or_else(|| name.strip_suffix("_cg"))
            .or_else(|| name.strip_suffix("_direct"))
            .unwrap_or(name),
    }
}

/// Unions the names of two ordered name-keyed slices, preserving `a`'s
/// order then appending `b`-only names.
fn name_union<'s, T>(a: &'s [(String, T)], b: &'s [(String, T)]) -> Vec<&'s str> {
    let mut names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
    for (n, _) in b {
        if !names.contains(&n.as_str()) {
            names.push(n);
        }
    }
    names
}

/// Compares two trace analyses.
///
/// Simulation metrics gate tightly (the engine is deterministic);
/// span-duration metrics are informational. A name present on only one
/// side shows up as a `count` metric with a zero on the missing side —
/// which gates, so a disappeared metric is a named regression, not a
/// silent hole.
pub fn diff_analyses(a: &TraceAnalysis, b: &TraceAnalysis, config: &DiffConfig) -> DiffReport {
    /// Relative slack for deterministic float aggregates: bitwise
    /// reproducibility is the repo's contract, but a diff should not
    /// fail on a last-ulp wobble in a mean.
    const EXACT: f64 = 0.0;
    const TIGHT: f64 = 1e-9;
    // Cross-backend comparisons agree to solver tolerance, not to the
    // last ulp of a deterministic replay.
    let metric_tol = if config.solver_agnostic {
        PHYS_TOL
    } else {
        TIGHT
    };

    let mut report = DiffReport::default();
    report.push(
        config,
        "events.total".into(),
        a.events as f64,
        b.events as f64,
        EXACT,
        Direction::BothWays,
    );
    for kind in EventKind::ALL {
        report.push(
            config,
            format!("events.{}", kind.as_str()),
            a.kind_count(kind) as f64,
            b.kind_count(kind) as f64,
            EXACT,
            Direction::BothWays,
        );
    }
    for name in name_union(&a.counters, &b.counters) {
        report.push(
            config,
            format!("counter.{name}"),
            a.counter(name) as f64,
            b.counter(name) as f64,
            EXACT,
            Direction::BothWays,
        );
    }
    for name in name_union(&a.rollups, &b.rollups) {
        let (ra, rb) = (a.rollup(name), b.rollup(name));
        report.push(
            config,
            format!("metric.{name}.count"),
            ra.map_or(0.0, |r| r.count() as f64),
            rb.map_or(0.0, |r| r.count() as f64),
            EXACT,
            Direction::BothWays,
        );
        for (stat, get) in [
            ("mean", Rollfn::Mean),
            ("p50", Rollfn::P(50.0)),
            ("p99", Rollfn::P(99.0)),
        ] {
            report.push(
                config,
                format!("metric.{name}.{stat}"),
                ra.and_then(|r| get.eval(r)).unwrap_or(0.0),
                rb.and_then(|r| get.eval(r)).unwrap_or(0.0),
                metric_tol,
                Direction::BothWays,
            );
        }
    }
    if config.solver_agnostic {
        // Match sites by the system they solve; only the solve *counts*
        // gate (both backends must solve every system exactly as often).
        // Iteration counts and residuals are properties of the solver
        // family, not the simulation — they are not comparable and are
        // not reported here.
        let canon_solves = |x: &TraceAnalysis, canon: &str| -> f64 {
            x.solvers
                .iter()
                .filter(|(n, _)| canonical_site(n) == canon)
                .map(|(_, s)| s.solves() as f64)
                .sum()
        };
        let mut canon_names: Vec<&str> = Vec::new();
        for (n, _) in a.solvers.iter().chain(b.solvers.iter()) {
            let c = canonical_site(n);
            if !canon_names.contains(&c) {
                canon_names.push(c);
            }
        }
        for canon in canon_names {
            report.push(
                config,
                format!("solver.{canon}.solves"),
                canon_solves(a, canon),
                canon_solves(b, canon),
                EXACT,
                Direction::BothWays,
            );
        }
    } else {
        for name in name_union(&a.solvers, &b.solvers) {
            let (sa, sb) = (a.solver(name), b.solver(name));
            report.push(
                config,
                format!("solver.{name}.solves"),
                sa.map_or(0.0, |s| s.solves() as f64),
                sb.map_or(0.0, |s| s.solves() as f64),
                EXACT,
                Direction::BothWays,
            );
            report.push(
                config,
                format!("solver.{name}.iters_mean"),
                sa.and_then(|s| s.iters.mean()).unwrap_or(0.0),
                sb.and_then(|s| s.iters.mean()).unwrap_or(0.0),
                TIGHT,
                Direction::BothWays,
            );
            report.push(
                config,
                format!("solver.{name}.iters_p95"),
                sa.and_then(|s| s.iters.percentile(95.0)).unwrap_or(0.0),
                sb.and_then(|s| s.iters.percentile(95.0)).unwrap_or(0.0),
                TIGHT,
                Direction::BothWays,
            );
            report.push(
                config,
                format!("solver.{name}.residual_max"),
                sa.and_then(|s| s.residuals.max()).unwrap_or(0.0),
                sb.and_then(|s| s.residuals.max()).unwrap_or(0.0),
                TIGHT,
                Direction::BothWays,
            );
        }
    }
    report.push(
        config,
        "gating.decisions".into(),
        a.gating.decisions as f64,
        b.gating.decisions as f64,
        EXACT,
        Direction::BothWays,
    );
    report.push(
        config,
        "gating.churn".into(),
        a.gating.churn() as f64,
        b.gating.churn() as f64,
        EXACT,
        Direction::BothWays,
    );
    report.push(
        config,
        "gating.active_mean".into(),
        a.gating.active.mean().unwrap_or(0.0),
        b.gating.active.mean().unwrap_or(0.0),
        TIGHT,
        Direction::BothWays,
    );
    report.push(
        config,
        "emergency.checks".into(),
        a.emergency.checks as f64,
        b.emergency.checks as f64,
        EXACT,
        Direction::BothWays,
    );
    report.push(
        config,
        "emergency.flagged_domains".into(),
        a.emergency.flagged_domains as f64,
        b.emergency.flagged_domains as f64,
        EXACT,
        Direction::BothWays,
    );
    report.push(
        config,
        "emergency.mispredicted".into(),
        a.emergency.mispredicted as f64,
        b.emergency.mispredicted as f64,
        EXACT,
        Direction::BothWays,
    );
    for name in name_union(&a.spans, &b.spans) {
        report.push(
            config,
            format!("span.{name}.p50_s"),
            a.span(name)
                .and_then(|s| s.durations.percentile(50.0))
                .unwrap_or(0.0),
            b.span(name)
                .and_then(|s| s.durations.percentile(50.0))
                .unwrap_or(0.0),
            0.0,
            Direction::Informational,
        );
    }
    report
}

enum Rollfn {
    Mean,
    P(f64),
}

impl Rollfn {
    fn eval(&self, r: &Rollup) -> Option<f64> {
        match self {
            Rollfn::Mean => r.mean(),
            Rollfn::P(p) => r.percentile(*p),
        }
    }
}

/// Compares two run manifests. Everything here is context (who produced
/// the runs, with what configuration), so all rows are informational —
/// except the event totals, which gate exactly like the trace counts.
pub fn diff_manifests(a: &RunManifest, b: &RunManifest, config: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    report.push(
        config,
        "manifest.config_hash_matches".into(),
        1.0,
        if a.config_hash() == b.config_hash() {
            1.0
        } else {
            0.0
        },
        0.0,
        Direction::Informational,
    );
    report.push(
        config,
        "manifest.threads".into(),
        a.threads as f64,
        b.threads as f64,
        0.0,
        Direction::Informational,
    );
    report.push(
        config,
        "manifest.cells".into(),
        a.cells.len() as f64,
        b.cells.len() as f64,
        0.0,
        Direction::BothWays,
    );
    report.push(
        config,
        "manifest.events_total".into(),
        a.total_events() as f64,
        b.total_events() as f64,
        0.0,
        Direction::BothWays,
    );
    report
}

/// Compares two performance snapshots (`BENCH_*.json`), row by row
/// under the baseline `a`'s direction and tolerance.
///
/// Only axes (a key's first segment after `snap.`, see
/// [`Row::axis`]) that both sides measured are compared, so a snapshot
/// captured without, say, `--grids` diffs cleanly against one with the
/// scaling axis. Within a shared axis, a row present on one side only
/// is a regression under its key whatever its direction: a dropped
/// policy phase, solver site or scaling cell cannot pass silently.
pub fn diff_snapshots(a: &BenchSnapshot, b: &BenchSnapshot, config: &DiffConfig) -> DiffReport {
    let axes_a: HashSet<&str> = a.rows.iter().map(Row::axis).collect();
    let axes_b: HashSet<&str> = b.rows.iter().map(Row::axis).collect();
    let shared = |row: &&Row| axes_a.contains(row.axis()) && axes_b.contains(row.axis());
    let keys_a: HashSet<&str> = a.rows.iter().map(|r| r.key.as_str()).collect();
    let values_b: HashMap<&str, f64> = b.rows.iter().map(|r| (r.key.as_str(), r.value)).collect();

    let mut report = DiffReport::default();
    let mut compare = |row: &Row, a: Option<f64>, b: Option<f64>| {
        let (va, vb) = (a.unwrap_or(0.0), b.unwrap_or(0.0));
        report.push(config, row.key.clone(), va, vb, row.tol, row.better);
        if a.is_none() || b.is_none() {
            if let Some(delta) = report.deltas.last_mut() {
                delta.verdict = Verdict::Regression;
            }
        }
    };
    for ra in a.rows.iter().filter(shared) {
        compare(ra, Some(ra.value), values_b.get(ra.key.as_str()).copied());
    }
    for rb in b.rows.iter().filter(shared) {
        if !keys_a.contains(rb.key.as_str()) {
            compare(rb, None, Some(rb.value));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::row_mut;
    use simkit::telemetry::analyze::ParsedEvent;
    use simkit::telemetry::Telemetry;

    fn tiny_analysis(extra_iters: usize) -> TraceAnalysis {
        let (tel, sink) = Telemetry::recorder();
        tel.counter("engine.decisions", 3);
        tel.gauge("thermal.max_silicon_c", 63.5);
        tel.solve("thermal.gs", 10 + extra_iters, 1e-9);
        tel.event(simkit::telemetry::EventKind::Gating, "engine.gating")
            .field_u64("active", 12)
            .field_u64("turned_on", 1)
            .field_u64("turned_off", 0)
            .emit();
        let mut analysis = TraceAnalysis::exact();
        for event in sink.events() {
            analysis.observe(&ParsedEvent::from_line(&event.to_json()).unwrap());
        }
        analysis
    }

    #[test]
    fn identical_analyses_have_zero_drift() {
        let a = tiny_analysis(0);
        let report = diff_analyses(&a, &a, &DiffConfig::new());
        assert!(!report.has_regression(), "{}", report.render(true));
        assert!(report.deltas.iter().all(|d| d.rel_change == 0.0));
    }

    #[test]
    fn solver_iteration_growth_is_a_named_regression() {
        let a = tiny_analysis(0);
        let b = tiny_analysis(5);
        let report = diff_analyses(&a, &b, &DiffConfig::new());
        assert!(report.has_regression());
        let names: Vec<&str> = report.regressions().map(|d| d.metric.as_str()).collect();
        assert!(
            names.contains(&"solver.thermal.gs.iters_mean"),
            "regressions: {names:?}"
        );
    }

    #[test]
    fn missing_metric_gates_instead_of_vanishing() {
        let a = tiny_analysis(0);
        let mut b = tiny_analysis(0);
        b.rollups.clear();
        let report = diff_analyses(&a, &b, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "metric.thermal.max_silicon_c.count"));
    }

    fn backend_analysis(site: &'static str, temp: f64, solves: usize) -> TraceAnalysis {
        let (tel, sink) = Telemetry::recorder();
        tel.counter("engine.decisions", 3);
        tel.gauge("thermal.max_silicon_c", temp);
        for _ in 0..solves {
            tel.solve(site, if site.ends_with("_direct") { 1 } else { 42 }, 1e-9);
        }
        let mut analysis = TraceAnalysis::exact();
        for event in sink.events() {
            analysis.observe(&ParsedEvent::from_line(&event.to_json()).unwrap());
        }
        analysis
    }

    #[test]
    fn solver_agnostic_diff_matches_sites_across_backends() {
        // A GS run and a direct run: different site names, different
        // iteration counts, temperatures agreeing to solver tolerance.
        let a = backend_analysis("thermal.gs", 63.5, 4);
        let b = backend_analysis("thermal.transient_direct", 63.5 + 1e-7, 4);

        // The default (bit-tight) diff flags the renamed site and the
        // float wobble…
        let strict = diff_analyses(&a, &b, &DiffConfig::new());
        assert!(strict.has_regression());

        // …the solver-agnostic diff sees the same system solved the
        // same number of times and physics within PHYS_TOL.
        let config = DiffConfig::new().solver_agnostic(true);
        let report = diff_analyses(&a, &b, &config);
        assert!(!report.has_regression(), "{}", report.render(true));
        let solves = report
            .deltas
            .iter()
            .find(|d| d.metric == "solver.thermal.transient.solves")
            .expect("canonical solver row");
        assert_eq!((solves.a, solves.b), (4.0, 4.0));
        // Per-backend iteration stats are not comparable and not emitted.
        assert!(report.deltas.iter().all(|d| !d.metric.contains("iters")));
    }

    #[test]
    fn solver_agnostic_diff_still_gates_on_solve_counts_and_physics() {
        let a = backend_analysis("thermal.transient_cg", 63.5, 4);
        let config = DiffConfig::new().solver_agnostic(true);

        // One missing solve is a gating regression even across backends.
        let fewer = backend_analysis("thermal.transient_direct", 63.5, 3);
        let report = diff_analyses(&a, &fewer, &config);
        assert!(report
            .regressions()
            .any(|d| d.metric == "solver.thermal.transient.solves"));

        // So is a physics difference beyond PHYS_TOL.
        let hotter = backend_analysis("thermal.transient_direct", 64.2, 4);
        let report = diff_analyses(&a, &hotter, &config);
        assert!(report
            .regressions()
            .any(|d| d.metric.starts_with("metric.thermal.max_silicon_c")));
    }

    #[test]
    fn tolerance_overrides_win() {
        let a = tiny_analysis(0);
        let b = tiny_analysis(5);
        let config = DiffConfig::new()
            .with_tolerance("solver.thermal.gs.iters_mean", 10.0)
            .with_tolerance("solver.thermal.gs.iters_p95", 10.0)
            .with_tolerance("solver.thermal.gs.residual_max", 10.0);
        let report = diff_analyses(&a, &b, &config);
        assert!(!report.has_regression(), "{}", report.render(true));
    }

    #[test]
    fn snapshot_diff_gates_directionally() {
        let base = crate::snapshot::tests::sample("a", 4.0);

        // Identical snapshots: zero drift.
        let same = diff_snapshots(&base, &base, &DiffConfig::new());
        assert!(!same.has_regression(), "{}", same.render(true));

        // Injected solver-iteration regression: named, gating.
        let worse = crate::snapshot::tests::sample("b", 8.0);
        let report = diff_snapshots(&base, &worse, &DiffConfig::new());
        assert!(report.has_regression());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.oract.solver.transient.iters_p95"));

        // Counts gate exactly: fewer iterations fail too, until the
        // reference is re-captured.
        let fewer = diff_snapshots(&worse, &base, &DiffConfig::new());
        assert!(fewer
            .regressions()
            .any(|d| d.metric == "snap.oract.solver.transient.iters_p95"));
    }

    #[test]
    fn scaling_axis_gates_on_iterations_and_missing_cells() {
        let base = crate::snapshot::tests::sample("a", 4.0);

        // Multigrid losing its iteration advantage at a grid gates.
        let mut worse = base.clone();
        row_mut(&mut worse, "snap.scaling.64.mgcg.iters_mean").value *= 3.0;
        let report = diff_snapshots(&base, &worse, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.scaling.64.mgcg.iters_mean"));

        // Wall-clock drift alone stays informational.
        let mut slower = base.clone();
        for row in &mut slower.rows {
            if row.key.ends_with("_s") && row.axis() == "scaling" {
                row.value *= 5.0;
            }
        }
        let report = diff_snapshots(&base, &slower, &DiffConfig::new());
        assert!(!report.has_regression(), "{}", report.render(true));

        // Dropping a (grid, backend) cell cannot pass silently — in
        // either direction.
        let mut missing = base.clone();
        missing
            .rows
            .retain(|r| !r.key.starts_with("snap.scaling.64.mgcg."));
        let report = diff_snapshots(&base, &missing, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.scaling.64.mgcg.solves"));
        let report = diff_snapshots(&missing, &base, &DiffConfig::new());
        assert!(report
            .regressions()
            .any(|d| d.metric == "snap.scaling.64.mgcg.solves"));
    }

    #[test]
    fn a_side_without_the_scaling_axis_skips_it() {
        // The committed baseline carries the scaling axis; a default
        // capture (no --grids) does not, and must still diff clean.
        let base = crate::snapshot::tests::sample("a", 4.0);
        let mut plain = base.clone();
        plain.rows.retain(|r| r.axis() != "scaling");
        for (a, b) in [(&base, &plain), (&plain, &base)] {
            let report = diff_snapshots(a, b, &DiffConfig::new());
            assert!(!report.has_regression(), "{}", report.render(true));
            assert!(report
                .deltas
                .iter()
                .all(|d| !d.metric.starts_with("snap.scaling")));
        }
    }

    #[test]
    fn throughput_is_informational() {
        // Steps per second is wall clock on a shared host: a halved rate
        // is reported, never gated.
        let base = crate::snapshot::tests::sample("a", 4.0);
        let mut slow = base.clone();
        row_mut(&mut slow, "snap.oract.steps_per_sec").value *= 0.5;
        let report = diff_snapshots(&base, &slow, &DiffConfig::new());
        assert!(!report.has_regression(), "{}", report.render(true));
        assert!(report
            .deltas
            .iter()
            .any(|d| d.metric == "snap.oract.steps_per_sec" && d.rel_change < 0.0));
    }

    #[test]
    fn manifest_diff_flags_event_totals_only() {
        let mut a = RunManifest::new("simulate");
        a.push_config("bench", "fft");
        a.run_events = 10;
        let mut b = a.clone();
        let same = diff_manifests(&a, &b, &DiffConfig::new());
        assert!(!same.has_regression());
        b.run_events = 11;
        b.push_config("bench2", "lu"); // hash differs: informational
        let diff = diff_manifests(&a, &b, &DiffConfig::new());
        let names: Vec<&str> = diff.regressions().map(|d| d.metric.as_str()).collect();
        assert_eq!(names, ["manifest.events_total"]);
    }

    #[test]
    fn render_marks_regressions() {
        let base = crate::snapshot::tests::sample("a", 4.0);
        let worse = crate::snapshot::tests::sample("b", 8.0);
        let table = diff_snapshots(&base, &worse, &DiffConfig::new()).render(true);
        assert!(table.contains("REGRESSION"));
        assert!(table.contains("iters_p95"));
    }

    #[test]
    fn zero_baseline_changes_are_infinite_but_finite_to_render() {
        let mut report = DiffReport::default();
        report.push(
            &DiffConfig::new(),
            "x".into(),
            0.0,
            1.0,
            0.0,
            Direction::BothWays,
        );
        assert!(report.has_regression());
        assert!(report.render(false).contains("inf"));
    }
}
