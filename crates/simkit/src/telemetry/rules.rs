//! Declarative health/alert rules over live trace aggregates.
//!
//! A rules file is a small JSON document (schema
//! [`RULES_SCHEMA`] = `thermogater.rules/v1`) listing thresholds over
//! the metrics a [`TraceAnalysis`] tracks — counters, rollup
//! percentiles, emergency rate, solver iteration spikes, gating churn:
//!
//! ```json
//! {
//!   "schema": "thermogater.rules/v1",
//!   "rules": [
//!     {"name": "decisions made", "metric": "counter:engine.decisions",
//!      "fail_below": 1},
//!     {"name": "noise p95 sane", "metric": "p95:engine.window_noise_pct",
//!      "warn_above": 25, "fail_above": 60},
//!     {"name": "no solver blowup", "metric": "solver_iters_max:thermal.transient_cg",
//!      "fail_above": 500, "missing": "ok"}
//!   ]
//! }
//! ```
//!
//! Each rule yields [`Severity::Ok`], [`Severity::Warn`], or
//! [`Severity::Fail`]; `fail_*` bounds are checked before `warn_*`, and
//! a metric the trace does not (yet) carry yields the rule's `missing`
//! severity (default `warn`). Evaluation is a pure function of the
//! current aggregate state, so `tg-obs watch` can re-evaluate the same
//! [`RuleSet`] incrementally as events stream in, and `tg-obs check`
//! can gate CI on a finished trace — same file, same rules. `check`
//! folds the trace exactly, so its percentile verdicts agree with the
//! numbers `tg-obs summarize` prints; `watch` folds with the streaming
//! store, so its percentiles are P² estimates. Reports
//! render deterministically: rules appear in file order with stable
//! number formatting, so two identical runs produce byte-identical
//! reports.

use super::analyze::TraceAnalysis;
use super::json::{self, JsonValue};
use std::fmt;

/// Schema identifier required of every rules file.
pub const RULES_SCHEMA: &str = "thermogater.rules/v1";

/// The verdict of one rule (ordered: `Ok < Warn < Fail`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Severity {
    /// Within bounds.
    #[default]
    Ok,
    /// Outside a `warn_*` bound (or the metric is missing, by default).
    Warn,
    /// Outside a `fail_*` bound — gates CI.
    Fail,
}

impl Severity {
    /// The wire/report name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Ok => "ok",
            Severity::Warn => "warn",
            Severity::Fail => "fail",
        }
    }

    fn parse(name: &str) -> Option<Severity> {
        match name {
            "ok" => Some(Severity::Ok),
            "warn" => Some(Severity::Warn),
            "fail" => Some(Severity::Fail),
            _ => None,
        }
    }
}

/// Which rollup statistic a rollup selector reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollupStat {
    /// p50 (exact or P²-estimated, by the aggregate's store).
    P50,
    /// p95 (exact or P²-estimated, by the aggregate's store).
    P95,
    /// p99 (exact or P²-estimated, by the aggregate's store).
    P99,
    /// Exact mean.
    Mean,
    /// Exact minimum.
    Min,
    /// Exact maximum.
    Max,
    /// Exact finite-sample count.
    Samples,
}

impl RollupStat {
    fn as_str(self) -> &'static str {
        match self {
            RollupStat::P50 => "p50",
            RollupStat::P95 => "p95",
            RollupStat::P99 => "p99",
            RollupStat::Mean => "mean",
            RollupStat::Min => "min",
            RollupStat::Max => "max",
            RollupStat::Samples => "samples",
        }
    }
}

/// What a rule measures: a typed selector parsed from strings like
/// `counter:engine.decisions` or `p95:engine.window_noise_pct`.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSelector {
    /// Total events folded in.
    Events,
    /// Malformed trace lines reported by the reader.
    MalformedLines,
    /// A counter total: `counter:<name>`.
    Counter(String),
    /// A statistic of a name's value rollup (all tracks):
    /// `p50|p95|p99|mean|min|max|samples:<name>`.
    Rollup(RollupStat, String),
    /// Fraction of emergency checks that flagged a domain:
    /// `emergency_rate`.
    EmergencyRate,
    /// Emergency-check events seen: `emergency_checks`.
    EmergencyChecks,
    /// Mispredicted emergency domains, summed: `emergency_mispredicted`.
    EmergencyMispredicted,
    /// Total gating transitions (on + off): `gating_churn`.
    GatingChurn,
    /// Mean transitions per gating decision:
    /// `gating_churn_per_decision`.
    GatingChurnPerDecision,
    /// Gating decision events seen: `gating_decisions`.
    GatingDecisions,
    /// p95 of a solve site's iteration counts:
    /// `solver_iters_p95:<site>`.
    SolverItersP95(String),
    /// Maximum iterations of a solve site: `solver_iters_max:<site>`.
    SolverItersMax(String),
    /// Solve events of a site: `solver_solves:<site>`.
    SolverSolves(String),
    /// Worst final residual of a solve site:
    /// `solver_residual_max:<site>`.
    SolverResidualMax(String),
}

impl MetricSelector {
    /// Parses a selector string.
    ///
    /// # Errors
    ///
    /// Describes the unknown selector head or a missing `:<name>` part.
    pub fn parse(text: &str) -> Result<MetricSelector, String> {
        let (head, arg) = match text.split_once(':') {
            Some((head, arg)) if !arg.is_empty() => (head, Some(arg)),
            Some((head, _)) => {
                return Err(format!("selector `{head}:` is missing its name"));
            }
            None => (text, None),
        };
        let named = |arg: Option<&str>| -> Result<String, String> {
            arg.map(str::to_string)
                .ok_or_else(|| format!("selector `{head}` needs `:<name>`"))
        };
        let bare = |selector: MetricSelector| -> Result<MetricSelector, String> {
            if arg.is_some() {
                Err(format!("selector `{head}` takes no `:<name>`"))
            } else {
                Ok(selector)
            }
        };
        let rollup = |stat: RollupStat| Ok(MetricSelector::Rollup(stat, named(arg)?));
        match head {
            "events" => bare(MetricSelector::Events),
            "malformed_lines" => bare(MetricSelector::MalformedLines),
            "counter" => Ok(MetricSelector::Counter(named(arg)?)),
            "p50" => rollup(RollupStat::P50),
            "p95" => rollup(RollupStat::P95),
            "p99" => rollup(RollupStat::P99),
            "mean" => rollup(RollupStat::Mean),
            "min" => rollup(RollupStat::Min),
            "max" => rollup(RollupStat::Max),
            "samples" => rollup(RollupStat::Samples),
            "emergency_rate" => bare(MetricSelector::EmergencyRate),
            "emergency_checks" => bare(MetricSelector::EmergencyChecks),
            "emergency_mispredicted" => bare(MetricSelector::EmergencyMispredicted),
            "gating_churn" => bare(MetricSelector::GatingChurn),
            "gating_churn_per_decision" => bare(MetricSelector::GatingChurnPerDecision),
            "gating_decisions" => bare(MetricSelector::GatingDecisions),
            "solver_iters_p95" => Ok(MetricSelector::SolverItersP95(named(arg)?)),
            "solver_iters_max" => Ok(MetricSelector::SolverItersMax(named(arg)?)),
            "solver_solves" => Ok(MetricSelector::SolverSolves(named(arg)?)),
            "solver_residual_max" => Ok(MetricSelector::SolverResidualMax(named(arg)?)),
            other => Err(format!("unknown metric selector `{other}`")),
        }
    }

    /// Reads the selected metric from an aggregate; `None` when the
    /// trace does not (yet) carry it.
    pub fn resolve(&self, stats: &TraceAnalysis) -> Option<f64> {
        match self {
            MetricSelector::Events => Some(stats.events as f64),
            MetricSelector::MalformedLines => Some(stats.malformed_lines as f64),
            MetricSelector::Counter(name) => stats
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v as f64),
            MetricSelector::Rollup(stat, name) => {
                let rollup = stats.rollup(name)?;
                match stat {
                    RollupStat::P50 => rollup.percentile(50.0),
                    RollupStat::P95 => rollup.percentile(95.0),
                    RollupStat::P99 => rollup.percentile(99.0),
                    RollupStat::Mean => rollup.mean(),
                    RollupStat::Min => rollup.min(),
                    RollupStat::Max => rollup.max(),
                    RollupStat::Samples => Some(rollup.count() as f64),
                }
            }
            MetricSelector::EmergencyRate => stats.emergency.emergency_rate(),
            MetricSelector::EmergencyChecks => {
                (stats.emergency.checks > 0).then_some(stats.emergency.checks as f64)
            }
            MetricSelector::EmergencyMispredicted => {
                (stats.emergency.checks > 0).then_some(stats.emergency.mispredicted as f64)
            }
            MetricSelector::GatingChurn => {
                (stats.gating.decisions > 0).then_some(stats.gating.churn() as f64)
            }
            MetricSelector::GatingChurnPerDecision => stats.gating.churn_per_decision(),
            MetricSelector::GatingDecisions => {
                (stats.gating.decisions > 0).then_some(stats.gating.decisions as f64)
            }
            MetricSelector::SolverItersP95(site) => stats.solver(site)?.iters.percentile(95.0),
            MetricSelector::SolverItersMax(site) => stats.solver(site)?.iters.max(),
            MetricSelector::SolverSolves(site) => stats.solver(site).map(|s| s.solves() as f64),
            MetricSelector::SolverResidualMax(site) => stats.solver(site)?.residuals.max(),
        }
    }
}

impl fmt::Display for MetricSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricSelector::Events => write!(f, "events"),
            MetricSelector::MalformedLines => write!(f, "malformed_lines"),
            MetricSelector::Counter(n) => write!(f, "counter:{n}"),
            MetricSelector::Rollup(stat, n) => write!(f, "{}:{n}", stat.as_str()),
            MetricSelector::EmergencyRate => write!(f, "emergency_rate"),
            MetricSelector::EmergencyChecks => write!(f, "emergency_checks"),
            MetricSelector::EmergencyMispredicted => write!(f, "emergency_mispredicted"),
            MetricSelector::GatingChurn => write!(f, "gating_churn"),
            MetricSelector::GatingChurnPerDecision => {
                write!(f, "gating_churn_per_decision")
            }
            MetricSelector::GatingDecisions => write!(f, "gating_decisions"),
            MetricSelector::SolverItersP95(s) => write!(f, "solver_iters_p95:{s}"),
            MetricSelector::SolverItersMax(s) => write!(f, "solver_iters_max:{s}"),
            MetricSelector::SolverSolves(s) => write!(f, "solver_solves:{s}"),
            MetricSelector::SolverResidualMax(s) => write!(f, "solver_residual_max:{s}"),
        }
    }
}

/// One threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Human-readable rule name (appears in the report).
    pub name: String,
    /// What the rule measures.
    pub metric: MetricSelector,
    /// Warn when the value exceeds this.
    pub warn_above: Option<f64>,
    /// Fail when the value exceeds this.
    pub fail_above: Option<f64>,
    /// Warn when the value is below this.
    pub warn_below: Option<f64>,
    /// Fail when the value is below this.
    pub fail_below: Option<f64>,
    /// Verdict when the metric is absent from the trace (default
    /// [`Severity::Warn`]).
    pub missing: Severity,
}

impl Rule {
    /// A rule with no bounds (always ok when the metric is present) —
    /// builder-style entry point for tests.
    pub fn new(name: impl Into<String>, metric: MetricSelector) -> Self {
        Rule {
            name: name.into(),
            metric,
            warn_above: None,
            fail_above: None,
            warn_below: None,
            fail_below: None,
            missing: Severity::Warn,
        }
    }

    /// Evaluates the rule against the current aggregate state.
    pub fn evaluate(&self, stats: &TraceAnalysis) -> RuleOutcome {
        let value = self.metric.resolve(stats);
        let (severity, note) = match value {
            None => (self.missing, "metric missing".to_string()),
            Some(v) => self.judge(v),
        };
        RuleOutcome {
            rule: self.name.clone(),
            metric: self.metric.to_string(),
            value,
            severity,
            note,
        }
    }

    fn judge(&self, v: f64) -> (Severity, String) {
        let over = |t: f64| format!("{} > {}", fmt_value(v), fmt_value(t));
        let under = |t: f64| format!("{} < {}", fmt_value(v), fmt_value(t));
        if let Some(t) = self.fail_above.filter(|t| v > *t) {
            return (Severity::Fail, over(t));
        }
        if let Some(t) = self.fail_below.filter(|t| v < *t) {
            return (Severity::Fail, under(t));
        }
        if let Some(t) = self.warn_above.filter(|t| v > *t) {
            return (Severity::Warn, over(t));
        }
        if let Some(t) = self.warn_below.filter(|t| v < *t) {
            return (Severity::Warn, under(t));
        }
        (Severity::Ok, String::new())
    }
}

/// A parsed rules file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleSet {
    /// Rules in file order.
    pub rules: Vec<Rule>,
}

impl RuleSet {
    /// Parses and validates a rules document.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem: malformed JSON, a wrong
    /// or missing schema tag, a missing member, an unknown selector, or
    /// a non-numeric bound.
    pub fn from_json(text: &str) -> Result<RuleSet, String> {
        let doc = json::parse(text.trim())?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("rules file missing \"schema\"")?;
        if schema != RULES_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {RULES_SCHEMA:?})"
            ));
        }
        let entries = doc
            .get("rules")
            .and_then(JsonValue::as_array)
            .ok_or("rules file missing \"rules\" array")?;
        let mut rules = Vec::with_capacity(entries.len());
        for (index, entry) in entries.iter().enumerate() {
            let context = |what: &str| format!("rule {index}: {what}");
            let name = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .filter(|n| !n.is_empty())
                .ok_or_else(|| context("missing string \"name\""))?;
            let metric = entry
                .get("metric")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| context("missing string \"metric\""))?;
            let metric = MetricSelector::parse(metric).map_err(|e| context(&e))?;
            let bound = |key: &str| -> Result<Option<f64>, String> {
                match entry.get(key) {
                    None => Ok(None),
                    Some(v) => v
                        .as_f64()
                        .filter(|x| x.is_finite())
                        .map(Some)
                        .ok_or_else(|| context(&format!("\"{key}\" is not a finite number"))),
                }
            };
            let missing = match entry.get("missing") {
                None => Severity::Warn,
                Some(v) => v
                    .as_str()
                    .and_then(Severity::parse)
                    .ok_or_else(|| context("\"missing\" must be \"ok\", \"warn\", or \"fail\""))?,
            };
            rules.push(Rule {
                name: name.to_string(),
                metric,
                warn_above: bound("warn_above")?,
                fail_above: bound("fail_above")?,
                warn_below: bound("warn_below")?,
                fail_below: bound("fail_below")?,
                missing,
            });
        }
        Ok(RuleSet { rules })
    }

    /// Evaluates every rule against the current aggregate state, in
    /// file order.
    pub fn evaluate(&self, stats: &TraceAnalysis) -> RuleReport {
        RuleReport {
            outcomes: self.rules.iter().map(|r| r.evaluate(stats)).collect(),
        }
    }
}

/// One rule's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOutcome {
    /// Rule name (from the file).
    pub rule: String,
    /// Canonical selector string.
    pub metric: String,
    /// The resolved value, when the metric was present.
    pub value: Option<f64>,
    /// The verdict.
    pub severity: Severity,
    /// Which bound tripped (empty for ok).
    pub note: String,
}

/// All verdicts of one evaluation pass, in rule order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleReport {
    /// Per-rule verdicts.
    pub outcomes: Vec<RuleOutcome>,
}

impl RuleReport {
    /// The most severe verdict (`Ok` for an empty report).
    pub fn worst(&self) -> Severity {
        self.outcomes
            .iter()
            .map(|o| o.severity)
            .max()
            .unwrap_or(Severity::Ok)
    }

    /// Rules that failed.
    pub fn failures(&self) -> impl Iterator<Item = &RuleOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.severity == Severity::Fail)
    }

    /// Count of outcomes at one severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.severity == severity)
            .count()
    }

    /// Renders the deterministic report table: rules in file order,
    /// stable value formatting, a one-line tally at the end.
    pub fn render(&self) -> String {
        let headers = ["rule", "metric", "value", "status", "note"];
        let mut rows: Vec<[String; 5]> = Vec::with_capacity(self.outcomes.len());
        for o in &self.outcomes {
            rows.push([
                o.rule.clone(),
                o.metric.clone(),
                o.value.map_or("-".to_string(), fmt_value),
                o.severity.as_str().to_string(),
                o.note.clone(),
            ]);
        }
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[&str]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                if i + 1 < cells.len() {
                    for _ in cell.chars().count()..*w {
                        out.push(' ');
                    }
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &headers);
        for row in &rows {
            let cells: Vec<&str> = row.iter().map(String::as_str).collect();
            render_row(&mut out, &cells);
        }
        out.push_str(&format!(
            "{} rule(s): {} ok, {} warn, {} fail\n",
            self.outcomes.len(),
            self.count(Severity::Ok),
            self.count(Severity::Warn),
            self.count(Severity::Fail),
        ));
        out
    }
}

/// Deterministic, compact value formatting for reports: integers
/// verbatim, small/huge magnitudes in scientific notation, everything
/// else at up to six trimmed decimals.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{}", v as i64);
    }
    if v != 0.0 && (v.abs() < 1e-4 || v.abs() >= 1e9) {
        return format!("{v:e}");
    }
    let mut s = format!("{v:.6}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EventKind, Telemetry};

    /// A small aggregate with gating, counters, a rollup, solves, and
    /// emergencies.
    fn sample_stats() -> TraceAnalysis {
        let (tel, sink) = Telemetry::recorder();
        for k in 0..20u64 {
            tel.counter("engine.decisions", 1);
            tel.histogram("engine.window_noise_pct", 5.0 + (k % 10) as f64);
            tel.solve("thermal.gs", 8 + (k % 4) as usize, 1e-9);
            tel.event(EventKind::Gating, "engine.gating")
                .field_u64("active", 12)
                .field_u64("turned_on", 1)
                .field_u64("turned_off", 1)
                .emit();
            tel.event(EventKind::Emergency, "engine.emergency_check")
                .field_u64("flagged_domains", u64::from(k == 3))
                .field_u64("true_domains", u64::from(k == 3))
                .field_u64("mispredicted", 0)
                .emit();
        }
        let mut stats = TraceAnalysis::streaming();
        for event in sink.events() {
            stats.observe(&event);
        }
        stats
    }

    fn rules_doc() -> String {
        format!(
            r#"{{
  "schema": "{RULES_SCHEMA}",
  "rules": [
    {{"name": "decisions made", "metric": "counter:engine.decisions", "fail_below": 1}},
    {{"name": "noise p95", "metric": "p95:engine.window_noise_pct", "warn_above": 10, "fail_above": 50}},
    {{"name": "no emergencies", "metric": "emergency_rate", "warn_above": 0.2}},
    {{"name": "solver sane", "metric": "solver_iters_max:thermal.gs", "fail_above": 500}},
    {{"name": "absent metric", "metric": "counter:not.there"}},
    {{"name": "absent but fine", "metric": "gauge is wrong", "missing": "ok"}}
  ]
}}"#
        )
        .replace("\"metric\": \"gauge is wrong\"", "\"metric\": \"max:not.there\"")
    }

    #[test]
    fn parses_and_evaluates_a_rules_file() {
        let set = RuleSet::from_json(&rules_doc()).expect("valid rules file");
        assert_eq!(set.rules.len(), 6);
        let report = set.evaluate(&sample_stats());
        let by_name = |name: &str| {
            report
                .outcomes
                .iter()
                .find(|o| o.rule == name)
                .expect("rule present")
        };
        assert_eq!(by_name("decisions made").severity, Severity::Ok);
        assert_eq!(by_name("decisions made").value, Some(20.0));
        // p95 of 5..14 is > 10 but < 50 — warn, not fail.
        assert_eq!(by_name("noise p95").severity, Severity::Warn);
        assert_eq!(by_name("no emergencies").severity, Severity::Ok);
        assert_eq!(by_name("solver sane").severity, Severity::Ok);
        assert_eq!(by_name("absent metric").severity, Severity::Warn);
        assert_eq!(by_name("absent metric").note, "metric missing");
        assert_eq!(by_name("absent but fine").severity, Severity::Ok);
        assert_eq!(report.worst(), Severity::Warn);
        assert_eq!(report.count(Severity::Ok), 4);
    }

    #[test]
    fn fail_bounds_dominate_and_gate() {
        let mut rule = Rule::new(
            "gate",
            MetricSelector::parse("counter:engine.decisions").unwrap(),
        );
        rule.fail_below = Some(1e9);
        rule.warn_below = Some(2e9);
        let outcome = rule.evaluate(&sample_stats());
        assert_eq!(outcome.severity, Severity::Fail);
        assert!(outcome.note.contains('<'), "note: {}", outcome.note);
        let report = RuleReport {
            outcomes: vec![outcome],
        };
        assert_eq!(report.worst(), Severity::Fail);
        assert_eq!(report.failures().count(), 1);
    }

    #[test]
    fn evaluation_is_incremental_and_monotone_in_information() {
        // The same rule set evaluated mid-stream and at the end: the
        // mid-stream verdict uses whatever has arrived, no panic, and
        // the final verdict matches a one-shot evaluation.
        let set = RuleSet::from_json(&rules_doc()).unwrap();
        let (tel, sink) = Telemetry::recorder();
        tel.counter("engine.decisions", 1);
        let mut partial = TraceAnalysis::streaming();
        for event in sink.events() {
            partial.observe(&event);
        }
        let early = set.evaluate(&partial);
        // Only the counter rule can resolve yet.
        assert_eq!(early.outcomes[0].severity, Severity::Ok);
        assert_eq!(early.outcomes[1].severity, Severity::Warn); // missing
        let late = set.evaluate(&sample_stats());
        assert_eq!(late, set.evaluate(&sample_stats()));
    }

    #[test]
    fn report_renders_deterministically() {
        let set = RuleSet::from_json(&rules_doc()).unwrap();
        let a = set.evaluate(&sample_stats()).render();
        let b = set.evaluate(&sample_stats()).render();
        assert_eq!(a, b);
        assert!(a.starts_with("rule"), "header first:\n{a}");
        assert!(a.contains("6 rule(s):"), "tally line:\n{a}");
        assert!(a.contains("metric missing"), "notes rendered:\n{a}");
    }

    #[test]
    fn rejects_bad_documents() {
        for (bad, what) in [
            ("not json", "malformed"),
            ("{}", "no schema"),
            (r#"{"schema": "nope", "rules": []}"#, "wrong schema"),
            (
                r#"{"schema": "thermogater.rules/v1"}"#,
                "missing rules array",
            ),
            (
                r#"{"schema": "thermogater.rules/v1", "rules": [{"metric": "events"}]}"#,
                "rule without name",
            ),
            (
                r#"{"schema": "thermogater.rules/v1", "rules": [{"name": "x", "metric": "bogus:y"}]}"#,
                "unknown selector",
            ),
            (
                r#"{"schema": "thermogater.rules/v1", "rules": [{"name": "x", "metric": "events", "fail_above": "much"}]}"#,
                "non-numeric bound",
            ),
            (
                r#"{"schema": "thermogater.rules/v1", "rules": [{"name": "x", "metric": "events", "missing": "maybe"}]}"#,
                "bad missing severity",
            ),
        ] {
            assert!(RuleSet::from_json(bad).is_err(), "{what}");
        }
    }

    #[test]
    fn selector_parsing_round_trips_display() {
        for text in [
            "events",
            "malformed_lines",
            "counter:engine.decisions",
            "p50:x",
            "p95:x",
            "p99:x",
            "mean:x",
            "min:x",
            "max:x",
            "samples:x",
            "emergency_rate",
            "emergency_checks",
            "emergency_mispredicted",
            "gating_churn",
            "gating_churn_per_decision",
            "gating_decisions",
            "solver_iters_p95:thermal.gs",
            "solver_iters_max:thermal.gs",
            "solver_solves:thermal.gs",
            "solver_residual_max:thermal.gs",
        ] {
            let parsed = MetricSelector::parse(text).expect(text);
            assert_eq!(parsed.to_string(), text);
        }
        assert!(MetricSelector::parse("counter:").is_err());
        assert!(MetricSelector::parse("events:x").is_err());
        assert!(MetricSelector::parse("p42:x").is_err());
    }

    #[test]
    fn absent_domain_aggregates_resolve_to_none() {
        let empty = TraceAnalysis::exact();
        for selector in [
            "emergency_rate",
            "emergency_checks",
            "gating_churn",
            "gating_decisions",
            "gating_churn_per_decision",
            "solver_solves:thermal.gs",
            "p95:whatever",
            "counter:whatever",
        ] {
            let parsed = MetricSelector::parse(selector).unwrap();
            assert_eq!(parsed.resolve(&empty), None, "{selector}");
        }
        // Structural metrics always resolve.
        assert_eq!(
            MetricSelector::parse("events").unwrap().resolve(&empty),
            Some(0.0)
        );
        assert_eq!(
            MetricSelector::parse("malformed_lines")
                .unwrap()
                .resolve(&empty),
            Some(0.0)
        );
    }

    #[test]
    fn value_formatting_is_stable() {
        assert_eq!(fmt_value(20.0), "20");
        assert_eq!(fmt_value(0.5), "0.5");
        assert_eq!(fmt_value(1e-9), "1e-9");
        assert_eq!(fmt_value(12.25), "12.25");
        assert_eq!(fmt_value(-3.0), "-3");
        assert_eq!(fmt_value(2.5e12), "2500000000000");
    }
}
