//! Result lines and files, and the `compare` verdicts over them.
//!
//! A run prints one JSON object as its last line of standard output:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{"<name>":{"value":…,"unit":"…"}}}`.
//! Result files under `target/benchmark/` hold one such object per
//! workload plus the run's settings and its human-only notes.

use crate::stats;
use simkit::telemetry::json::{self, JsonValue};

/// Schema stamped into every result file.
pub const SCHEMA: &str = "thermogater.benchmark/v1";

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `op_s.p50`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, panics, invalid cache entries,
    /// failed output checks).
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further numbers printed for people, not compared.
    pub notes: Vec<Metric>,
}

impl WorkloadResult {
    /// The `workload metric value unit` lines of the metrics and notes.
    pub fn lines(&self) -> String {
        self.metrics
            .iter()
            .chain(&self.notes)
            .map(|m| format!("{} {} {} {}\n", self.name, m.name, m.value, m.unit))
            .collect()
    }

    /// The one-line JSON object a run ends with.
    pub fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.correct, self.attempted, self.failed
        );
        write_metrics(&mut out, &self.metrics);
        out.push('}');
        out
    }

    fn render(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        let line = self.contract_line();
        out.push(',');
        out.push_str(&line[1..line.len() - 1]);
        out.push_str(",\"notes\":");
        write_metrics(out, &self.notes);
        out.push('}');
    }

    /// Parses a contract line (or a result-file entry) of workload `name`.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn parse(name: &str, value: &JsonValue) -> Result<WorkloadResult, String> {
        let field = |key: &str| value.get(key).ok_or(format!("{name}: missing `{key}`"));
        let count = |key: &str| -> Result<u64, String> {
            field(key)?
                .as_f64()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or(format!("{name}: `{key}` is not a count"))
        };
        Ok(WorkloadResult {
            name: name.to_string(),
            correct: field("correct")?
                .as_bool()
                .ok_or(format!("{name}: `correct` is not a boolean"))?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: parse_metrics(name, field("metrics")?)?,
            notes: match value.get("notes") {
                Some(notes) => parse_metrics(name, notes)?,
                None => Vec::new(),
            },
        })
    }
}

fn write_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, &m.name);
        out.push_str(":{\"value\":");
        json::write_f64(out, m.value);
        out.push_str(",\"unit\":");
        json::write_str(out, &m.unit);
        out.push('}');
    }
    out.push('}');
}

fn parse_metrics(workload: &str, value: &JsonValue) -> Result<Vec<Metric>, String> {
    let members = value
        .as_object()
        .ok_or(format!("{workload}: metrics are not an object"))?;
    members
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Some(JsonValue::Null) => f64::NAN,
                Some(v) => v.as_f64().ok_or(format!("{workload}.{name}: bad value"))?,
                None => return Err(format!("{workload}.{name}: missing value")),
            };
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .ok_or(format!("{workload}.{name}: missing unit"))?;
            Ok(Metric::new(name, value, unit))
        })
        .collect()
}

/// A result file: the run's settings and one result per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Scenario seed.
    pub seed: u64,
    /// Timed seconds per workload.
    pub seconds: f64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Whether the run used smoke counts.
    pub smoke: bool,
    /// Per-workload results, in run order.
    pub workloads: Vec<WorkloadResult>,
}

impl ResultFile {
    /// Serialises the file (one JSON document).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"schema\":");
        json::write_str(&mut out, SCHEMA);
        out.push_str(&format!(
            ",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"workloads\":[",
            self.seed, self.seconds, self.trace, self.smoke
        ));
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            w.render(&mut out);
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a file written by [`ResultFile::render`].
    ///
    /// # Errors
    ///
    /// Describes malformed JSON, a foreign schema, or a bad field.
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} result file"));
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("missing `{key}`"))
        };
        let flag = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_bool)
                .ok_or(format!("missing `{key}`"))
        };
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("missing `workloads`")?
            .iter()
            .map(|w| {
                let name = w
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("workload without name")?;
                WorkloadResult::parse(name, w)
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultFile {
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            trace: flag("trace")?,
            smoke: flag("smoke")?,
            workloads,
        })
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Largest tolerated worsening, as a share of the base median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Reads the `end_to_end` and `per_layer` declarations of `BENCHMARK.json`.
///
/// # Errors
///
/// Describes malformed JSON or a bad declaration.
pub fn declarations(text: &str) -> Result<Vec<Declared>, String> {
    let doc = json::parse(text)?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let list = doc
            .get(section)
            .and_then(JsonValue::as_array)
            .ok_or(format!("BENCHMARK.json: missing `{section}`"))?;
        for d in list {
            let text = |key: &str| {
                d.get(key)
                    .and_then(JsonValue::as_str)
                    .ok_or(format!("BENCHMARK.json {section}: missing `{key}`"))
            };
            let better = match text("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: bad direction {other:?}")),
            };
            out.push(Declared {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better,
                bound: d.get("bound").and_then(JsonValue::as_f64),
            });
        }
    }
    Ok(out)
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A by more than the bound.
    Better,
    /// Within the bound either way (counts: identical).
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// A's own spread exceeds the bound, or a side lacks the metric.
    Unresolved,
    /// A deterministic count differs between the sides.
    Changed,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Median of side A (NaN when absent).
    pub a: f64,
    /// Median of side B (NaN when absent).
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two sets of result files metric by metric. End-to-end
/// metrics compare medians against their bound; a side A whose own
/// interquartile spread exceeds the bound leaves the row unresolved
/// unless every B run beats every A run. Per-layer counts must repeat
/// exactly; per-layer timings have no bound and are not compared.
pub fn compare(declared: &[Declared], a: &[ResultFile], b: &[ResultFile]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for w in a.iter().chain(b).flat_map(|f| &f.workloads) {
        if !workloads.contains(&w.name.as_str()) {
            workloads.push(&w.name);
        }
    }
    let values = |side: &[ResultFile], workload: &str, metric: &str| -> Vec<f64> {
        side.iter()
            .flat_map(|f| &f.workloads)
            .filter(|w| w.name == workload)
            .flat_map(|w| &w.metrics)
            .filter(|m| m.name == metric && m.value.is_finite())
            .map(|m| m.value)
            .collect()
    };
    let mut rows = Vec::new();
    for workload in workloads {
        for d in declared {
            if d.bound.is_none() && d.unit != "count" {
                continue;
            }
            let (va, vb) = (values(a, workload, &d.name), values(b, workload, &d.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let (ma, mb) = (
                stats::median(&va).unwrap_or(f64::NAN),
                stats::median(&vb).unwrap_or(f64::NAN),
            );
            let verdict = match d.bound {
                _ if va.is_empty() || vb.is_empty() => Verdict::Unresolved,
                None if va.iter().chain(&vb).all(|&v| v == va[0]) => Verdict::Same,
                None => Verdict::Changed,
                Some(bound) => bounded(d.better, bound, &va, &vb, ma, mb),
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: d.name.clone(),
                a: ma,
                b: mb,
                verdict,
            });
        }
    }
    rows
}

fn bounded(better: Better, bound: f64, va: &[f64], vb: &[f64], ma: f64, mb: f64) -> Verdict {
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    // Worsening as a share of A's median: positive means B is worse.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let b_wins_every_pair = match better {
        Better::Lower => vb.iter().all(|&x| va.iter().all(|&y| x < y)),
        Better::Higher => vb.iter().all(|&x| va.iter().all(|&y| x > y)),
    };
    if stats::spread(va).is_some_and(|s| s > bound) && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultFile {
        ResultFile {
            seed: 3,
            seconds: 10.0,
            trace: false,
            smoke: false,
            workloads: vec![WorkloadResult {
                name: "paper-noise".into(),
                correct: true,
                attempted: 6,
                failed: 0,
                metrics: vec![
                    Metric::new("setup_s", 0.053_123_456_789_012_3, "s"),
                    Metric::new("ops_per_s", 0.5123, "1/s"),
                    Metric::new("core.solves.noise", 416.0, "count"),
                ],
                notes: vec![Metric::new("failed_frac", 0.0, "fraction")],
            }],
        }
    }

    #[test]
    fn result_files_round_trip() {
        let file = sample();
        assert_eq!(ResultFile::parse(&file.render()).unwrap(), file);
        assert!(ResultFile::parse("{\"schema\":\"other\"}").is_err());
        assert!(ResultFile::parse("{").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let w = &sample().workloads[0];
        let line = json::parse(&w.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let back = WorkloadResult::parse(&w.name, &line).unwrap();
        assert_eq!(back.metrics, w.metrics);
        assert!(back.notes.is_empty());
    }

    fn declared() -> Vec<Declared> {
        declarations(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25},
                {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}],
               "per_layer":[{"name":"core.solves.noise","unit":"count","better":"lower"}]}"#,
        )
        .unwrap()
    }

    fn with(ops: f64, setup: f64, solves: f64) -> ResultFile {
        let mut f = sample();
        f.workloads[0].metrics = vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("ops_per_s", ops, "1/s"),
            Metric::new("core.solves.noise", solves, "count"),
        ];
        f
    }

    #[test]
    fn compare_applies_bounds_per_metric() {
        let d = declared();
        let verdicts = |a: ResultFile, b: ResultFile| -> Vec<Verdict> {
            compare(&d, &[a], &[b]).iter().map(|r| r.verdict).collect()
        };
        use Verdict::*;
        assert_eq!(
            verdicts(with(1.0, 1.0, 4.0), with(0.95, 1.2, 4.0)),
            [Same, Same, Same]
        );
        assert_eq!(
            verdicts(with(1.0, 1.0, 4.0), with(0.8, 1.3, 5.0)),
            [Worse, Worse, Changed]
        );
        assert_eq!(
            verdicts(with(1.0, 1.0, 4.0), with(1.2, 0.7, 4.0)),
            [Better, Better, Same]
        );
        // A side A whose own runs spread wider than the bound cannot
        // resolve a small change.
        let a = [
            with(1.0, 1.0, 4.0),
            with(2.0, 1.0, 4.0),
            with(3.0, 1.0, 4.0),
        ];
        let rows = compare(&d, &a, &[with(1.9, 1.0, 4.0)]);
        assert_eq!(rows[1].verdict, Unresolved);
        let rows = compare(&d, &a, &[with(4.0, 1.0, 4.0)]);
        assert_eq!(rows[1].verdict, Better);
        let missing = compare(
            &d,
            &[with(1.0, 1.0, 4.0)],
            &[ResultFile {
                workloads: vec![],
                ..sample()
            }],
        );
        assert!(missing.iter().all(|r| r.verdict == Unresolved));
    }
}
