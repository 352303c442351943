//! Plain-text rendering of tables, series, and heat maps.

use simkit::perf::SolverProfile;
use simkit::telemetry::analyze::{SpanStats, TraceAnalysis};

/// A column-aligned text table.
///
/// # Examples
///
/// ```
/// use experiments::report::TextTable;
///
/// let mut t = TextTable::new(&["bench", "T_max"]);
/// t.add_row(vec!["lu_ncb".into(), "65.3".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("lu_ncb"));
/// assert!(rendered.contains("T_max"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extra cells are kept.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders to a string with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for row in &self.rows {
            measure(&mut widths, row);
        }
        let render_row = |row: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let pad = width - cell.chars().count();
                if i == 0 {
                    // First column left-aligned.
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Renders a per-phase wall-clock breakdown (from
/// [`SimulationResult::phase_times`](thermogater::SimulationResult::phase_times))
/// as a column-aligned table with each phase's share of the total.
pub fn phase_report(perf: &simkit::perf::PhaseTimes) -> String {
    let total = perf.total_seconds();
    let mut t = TextTable::new(&["phase", "seconds", "samples", "share"]);
    for (phase, seconds, samples) in perf.iter() {
        let share = if total > 0.0 {
            seconds / total * 100.0
        } else {
            0.0
        };
        t.add_row(vec![
            phase.to_string(),
            format!("{seconds:.3}"),
            samples.to_string(),
            format!("{share:.1}%"),
        ]);
    }
    t.add_row(vec![
        "total".into(),
        format!("{total:.3}"),
        String::new(),
        String::new(),
    ]);
    t.render()
}

/// Formats an `Option<f64>` with fixed precision (`"-"` when absent).
pub fn fmt_opt(value: Option<f64>, precision: usize) -> String {
    match value {
        Some(v) => format!("{v:.precision$}"),
        None => "-".to_string(),
    }
}

/// Prints an experiment banner with the artefact id and a description.
pub fn banner(artefact: &str, description: &str) {
    println!("================================================================");
    println!("{artefact} — {description}");
    println!("================================================================");
}

/// Renders a per-phase solver-convergence table (from
/// [`SimulationResult::solver_profile`](thermogater::SimulationResult::solver_profile)):
/// solve counts, mean iterations per solve, and mean/max relative
/// residuals — the companion of [`phase_report`] for numerical health.
pub fn solver_report(profile: &SolverProfile) -> String {
    let mut t = TextTable::new(&["phase", "solves", "iters/solve", "mean resid", "max resid"]);
    for (phase, agg) in profile.iter() {
        t.add_row(vec![
            phase.to_string(),
            agg.solves.to_string(),
            format!("{:.1}", agg.mean_iterations()),
            format!("{:.2e}", agg.mean_residual()),
            format!("{:.2e}", agg.max_residual),
        ]);
    }
    t.render()
}

/// Renders the counter totals and value rollups of a telemetry-enabled
/// run's trace, as two column-aligned tables (counters first). Empty
/// sections are omitted; an empty trace renders to an empty string.
pub fn metrics_report(analysis: &TraceAnalysis) -> String {
    let mut out = String::new();
    if !analysis.counters.is_empty() {
        let mut t = TextTable::new(&["counter", "total"]);
        for (name, total) in &analysis.counters {
            t.add_row(vec![name.clone(), total.to_string()]);
        }
        out.push_str(&t.render());
    }
    if !analysis.rollups.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let mut t = TextTable::new(&["histogram", "samples", "min", "mean", "max"]);
        for (name, r) in &analysis.rollups {
            t.add_row(vec![
                name.clone(),
                r.count().to_string(),
                fmt_opt(r.min(), 4),
                fmt_opt(r.mean(), 4),
                fmt_opt(r.max(), 4),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Renders a full trace analysis ([`tg-obs
/// summarize`](crate::obs)) as a stack of column-aligned tables:
/// event-kind counts, counters, metric rollups with percentiles, span
/// durations, solver convergence, and the gating/emergency aggregates.
/// Sections with no data are omitted. Malformed or truncated trace
/// lines, span pairing errors and spans left open are called out at
/// the top so a damaged trace is never summarised silently.
pub fn analysis_report(analysis: &TraceAnalysis) -> String {
    use simkit::telemetry::EventKind;

    let mut out = String::new();
    out.push_str(&format!(
        "events: {}   trace span: {:.3}s\n",
        analysis.events,
        analysis.duration_s()
    ));
    if analysis.malformed_lines > 0 {
        out.push_str(&format!(
            "warning: {} malformed line(s) skipped\n",
            analysis.malformed_lines
        ));
    }
    if analysis.truncated {
        out.push_str("warning: trace ends mid-line (truncated write)\n");
    }
    out.push_str(&simkit::telemetry::prof::pairing_notes(analysis));
    out.push('\n');

    let mut kinds = TextTable::new(&["event kind", "count"]);
    for kind in EventKind::ALL {
        let n = analysis.kind_count(kind);
        if n > 0 {
            kinds.add_row(vec![kind.as_str().to_string(), n.to_string()]);
        }
    }
    out.push_str(&kinds.render());

    if !analysis.counters.is_empty() {
        out.push('\n');
        let mut t = TextTable::new(&["counter", "total"]);
        for (name, total) in &analysis.counters {
            t.add_row(vec![name.clone(), total.to_string()]);
        }
        out.push_str(&t.render());
    }

    if !analysis.rollups.is_empty() {
        out.push('\n');
        let mut t = TextTable::new(&[
            "metric", "samples", "min", "mean", "p50", "p95", "p99", "max",
        ]);
        for (name, r) in &analysis.rollups {
            t.add_row(vec![
                name.clone(),
                r.count().to_string(),
                fmt_opt(r.min(), 4),
                fmt_opt(r.mean(), 4),
                fmt_opt(r.percentile(50.0), 4),
                fmt_opt(r.percentile(95.0), 4),
                fmt_opt(r.percentile(99.0), 4),
                fmt_opt(r.max(), 4),
            ]);
        }
        out.push_str(&t.render());
    }

    let completed_spans: u64 = analysis.spans.iter().map(|(_, s)| s.completed()).sum();
    if completed_spans > 0 {
        out.push('\n');
        let mut t = TextTable::new(&["span", "completed", "open", "total s", "p50 s", "max s"]);
        for (name, s) in &analysis.spans {
            t.add_row(vec![
                name.clone(),
                s.completed().to_string(),
                s.open.to_string(),
                fmt_total(span_total_s(s)),
                fmt_opt(s.durations.percentile(50.0), 3),
                fmt_opt(s.durations.max(), 3),
            ]);
        }
        out.push_str(&t.render());
    } else {
        out.push_str("\nspans: no paired spans in this trace\n");
    }

    if !analysis.solvers.is_empty() {
        out.push('\n');
        let mut t = TextTable::new(&[
            "solver",
            "solves",
            "iters p50",
            "iters p95",
            "iters max",
            "resid max",
        ]);
        for (name, s) in &analysis.solvers {
            t.add_row(vec![
                name.clone(),
                s.solves().to_string(),
                fmt_opt(s.iters.percentile(50.0), 1),
                fmt_opt(s.iters.percentile(95.0), 1),
                fmt_opt(s.iters.max(), 1),
                s.residuals
                    .max()
                    .map_or("-".to_string(), |r| format!("{r:.2e}")),
            ]);
        }
        out.push_str(&t.render());
    }

    if analysis.gating.decisions > 0 {
        out.push_str(&format!(
            "\ngating: {} decisions, churn {} (+{} / -{}), {:.3} toggles/decision, mean active {}\n",
            analysis.gating.decisions,
            analysis.gating.churn(),
            analysis.gating.turned_on,
            analysis.gating.turned_off,
            analysis.gating.churn_per_decision().unwrap_or(0.0),
            fmt_opt(analysis.gating.active.mean(), 2),
        ));
    }
    if analysis.emergency.checks > 0 {
        out.push_str(&format!(
            "emergency: {} checks, {} with emergencies ({:.2}% rate), {} flagged / {} true domains, {} mispredicted\n",
            analysis.emergency.checks,
            analysis.emergency.with_emergency,
            analysis.emergency.emergency_rate().unwrap_or(0.0) * 100.0,
            analysis.emergency.flagged_domains,
            analysis.emergency.true_domains,
            analysis.emergency.mispredicted,
        ));
    }
    out
}

/// A span's total time, `+0.0` when it has none: the sum over no
/// samples starts at −0.0, which would print as `-0.000` (adding +0.0
/// turns −0.0 into +0.0 and leaves every other sum as it is).
fn span_total_s(s: &SpanStats) -> f64 {
    s.durations.sum() + 0.0
}

/// A span total for the summary table: `0` when no time was recorded,
/// else seconds to the millisecond.
fn fmt_total(total: f64) -> String {
    if total == 0.0 {
        "0".to_string()
    } else {
        format!("{total:.3}")
    }
}

/// Schema identifier of `tg-obs summarize --json` documents.
pub const SUMMARY_SCHEMA: &str = "thermogater.summary/v1";

/// The machine-readable twin of [`analysis_report`]: one JSON document
/// (schema [`SUMMARY_SCHEMA`]) with a fixed member order — members in
/// the order written here, collections in trace first-appearance order
/// — so identical runs serialise byte-identically and scripts stop
/// scraping the human table. Each `spans` entry carries `name`,
/// `completed`, `open` (starts never ended), `unmatched_ends` (ends that
/// closed no innermost open span on their track), `total_s` (0 for a
/// span that never completed), `p50_s` and `max_s`.
pub fn analysis_json(
    analysis: &TraceAnalysis,
    manifest: Option<&simkit::telemetry::manifest::RunManifest>,
) -> String {
    use simkit::telemetry::json::{write_f64, write_str};
    use simkit::telemetry::EventKind;

    fn opt(out: &mut String, v: Option<f64>) {
        match v {
            Some(x) => write_f64(out, x),
            None => out.push_str("null"),
        }
    }

    let mut out = String::from("{\"schema\":");
    write_str(&mut out, SUMMARY_SCHEMA);
    out.push_str(&format!(",\"events\":{}", analysis.events));
    out.push_str(",\"duration_s\":");
    write_f64(&mut out, analysis.duration_s());
    out.push_str(&format!(
        ",\"malformed_lines\":{},\"truncated\":{}",
        analysis.malformed_lines, analysis.truncated
    ));

    out.push_str(",\"kinds\":{");
    let mut first = true;
    for kind in EventKind::ALL {
        let n = analysis.kind_count(kind);
        if n > 0 {
            if !first {
                out.push(',');
            }
            first = false;
            write_str(&mut out, kind.as_str());
            out.push_str(&format!(":{n}"));
        }
    }
    out.push('}');

    out.push_str(",\"counters\":[");
    for (i, (name, total)) in analysis.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(&mut out, name);
        out.push_str(&format!(",\"total\":{total}}}"));
    }
    out.push(']');

    out.push_str(",\"rollups\":[");
    for (i, (name, r)) in analysis.rollups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"metric\":");
        write_str(&mut out, name);
        out.push_str(&format!(
            ",\"samples\":{},\"non_finite\":{}",
            r.count(),
            r.non_finite()
        ));
        for (key, value) in [
            ("min", r.min()),
            ("mean", r.mean()),
            ("p50", r.percentile(50.0)),
            ("p95", r.percentile(95.0)),
            ("p99", r.percentile(99.0)),
            ("max", r.max()),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            opt(&mut out, value);
        }
        out.push('}');
    }
    out.push(']');

    out.push_str(",\"spans\":[");
    for (i, (name, s)) in analysis.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(&mut out, name);
        out.push_str(&format!(
            ",\"completed\":{},\"open\":{},\"unmatched_ends\":{}",
            s.completed(),
            s.open,
            s.unmatched_ends
        ));
        for (key, value) in [
            ("total_s", Some(span_total_s(s))),
            ("p50_s", s.durations.percentile(50.0)),
            ("max_s", s.durations.max()),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            opt(&mut out, value);
        }
        out.push('}');
    }
    out.push(']');

    out.push_str(",\"solvers\":[");
    for (i, (site, s)) in analysis.solvers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"site\":");
        write_str(&mut out, site);
        out.push_str(&format!(",\"solves\":{}", s.solves()));
        for (key, value) in [
            ("iters_p50", s.iters.percentile(50.0)),
            ("iters_p95", s.iters.percentile(95.0)),
            ("iters_max", s.iters.max()),
            ("residual_max", s.residuals.max()),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            opt(&mut out, value);
        }
        out.push('}');
    }
    out.push(']');

    out.push_str(",\"gating\":");
    if analysis.gating.decisions > 0 {
        out.push_str(&format!(
            "{{\"decisions\":{},\"turned_on\":{},\"turned_off\":{},\"churn\":{},\"churn_per_decision\":",
            analysis.gating.decisions,
            analysis.gating.turned_on,
            analysis.gating.turned_off,
            analysis.gating.churn(),
        ));
        opt(&mut out, analysis.gating.churn_per_decision());
        out.push_str(",\"mean_active\":");
        opt(&mut out, analysis.gating.active.mean());
        out.push('}');
    } else {
        out.push_str("null");
    }

    out.push_str(",\"emergency\":");
    if analysis.emergency.checks > 0 {
        out.push_str(&format!(
            "{{\"checks\":{},\"with_emergency\":{},\"flagged_domains\":{},\"true_domains\":{},\"mispredicted\":{},\"rate\":",
            analysis.emergency.checks,
            analysis.emergency.with_emergency,
            analysis.emergency.flagged_domains,
            analysis.emergency.true_domains,
            analysis.emergency.mispredicted,
        ));
        opt(&mut out, analysis.emergency.emergency_rate());
        out.push('}');
    } else {
        out.push_str("null");
    }

    out.push_str(",\"manifest\":");
    match manifest {
        Some(m) => {
            out.push_str("{\"created_by\":");
            write_str(&mut out, &m.created_by);
            out.push_str(&format!(
                ",\"config_hash\":\"{:016x}\",\"threads\":{},\"cells\":{},\"events_total\":{}}}",
                m.config_hash(),
                m.threads,
                m.cells.len(),
                m.total_events(),
            ));
        }
        None => out.push_str("null"),
    }
    out.push_str("}\n");
    out
}

/// Downsamples a series to at most `points` bucket means (for compact
/// printing of long traces).
pub fn downsample(series: &[f64], points: usize) -> Vec<f64> {
    if series.is_empty() || points == 0 {
        return Vec::new();
    }
    let chunk = series.len().div_ceil(points);
    series
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Renders a heat map (rows of °C values, bottom row first) as ASCII art
/// with a shade ramp, top row printed first. Returns the art plus the
/// used temperature range.
pub fn render_heatmap(map: &[Vec<f64>]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for row in map {
        for &v in row {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || hi <= lo {
        return String::new();
    }
    let mut out = String::new();
    for row in map.iter().rev() {
        for &v in row {
            let t = (v - lo) / (hi - lo);
            let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out.push_str(&format!("range: {lo:.1} °C (' ') … {hi:.1} °C ('@')\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = TextTable::new(&["name", "v"]);
        t.add_row(vec!["a".into(), "1.0".into()]);
        t.add_row(vec!["longer".into(), "22.5".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        let w = lines[0].chars().count();
        assert!(lines[3].chars().count() <= w + 2);
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn phase_report_shows_shares_and_total() {
        let mut perf = simkit::perf::PhaseTimes::new();
        perf.add("transient", 3.0);
        perf.add("noise", 1.0);
        let s = phase_report(&perf);
        assert!(s.contains("transient"));
        assert!(s.contains("75.0%"));
        assert!(s.contains("total"));
        assert!(s.contains("4.000"));
    }

    #[test]
    fn solver_report_lists_phases() {
        use simkit::linalg::SolveStats;
        let mut profile = SolverProfile::new();
        profile.record(
            "transient",
            SolveStats {
                iterations: 12,
                residual: 1e-7,
            },
        );
        profile.record(
            "noise",
            SolveStats {
                iterations: 40,
                residual: 1e-10,
            },
        );
        let s = solver_report(&profile);
        assert!(s.contains("transient"));
        assert!(s.contains("noise"));
        assert!(s.contains("12.0"));
    }

    #[test]
    fn metrics_report_renders_counters_and_histograms() {
        use simkit::telemetry::Telemetry;

        assert_eq!(metrics_report(&TraceAnalysis::exact()), "");
        let (tel, sink) = Telemetry::recorder();
        tel.counter("engine.decisions", 20);
        tel.histogram("engine.window_noise_pct", 8.5);
        tel.histogram("engine.window_noise_pct", 11.5);
        let mut analysis = TraceAnalysis::exact();
        for event in sink.events() {
            analysis.observe(&event);
        }
        let s = metrics_report(&analysis);
        assert!(s.contains("engine.decisions"));
        assert!(s.contains("20"));
        assert!(s.contains("engine.window_noise_pct"));
        assert!(s.contains("10.0000"), "mean missing from:\n{s}");
    }

    #[test]
    fn analysis_report_notes_traces_with_no_paired_spans() {
        use std::io::Cursor;

        // No span events at all.
        let trace = r#"{"t":0.0,"kind":"counter","name":"engine.steps","delta":5}"#.to_string();
        let a = TraceAnalysis::from_reader(Cursor::new(trace)).unwrap();
        let text = analysis_report(&a);
        assert!(text.contains("no paired spans"), "missing note in:\n{text}");

        // A start that never ended is called out explicitly.
        let trace = r#"{"t":0.0,"kind":"span_start","name":"engine.run"}"#.to_string();
        let a = TraceAnalysis::from_reader(Cursor::new(trace)).unwrap();
        let text = analysis_report(&a);
        assert!(text.contains("no paired spans"), "{text}");
        assert!(
            text.contains("note: 1 span(s) still open at end of trace"),
            "{text}"
        );

        // A completed span still renders the table, not the note.
        let trace = concat!(
            r#"{"t":0.0,"kind":"span_start","name":"engine.run"}"#,
            "\n",
            r#"{"t":1.0,"kind":"span_end","name":"engine.run","dur_s":1.0}"#,
        )
        .to_string();
        let a = TraceAnalysis::from_reader(Cursor::new(trace)).unwrap();
        let text = analysis_report(&a);
        assert!(!text.contains("no paired spans"), "{text}");
        assert!(text.contains("engine.run"), "{text}");
    }

    #[test]
    fn fmt_opt_renders_dash_for_none() {
        assert_eq!(fmt_opt(None, 2), "-");
        assert_eq!(fmt_opt(Some(1.234), 2), "1.23");
    }

    #[test]
    fn downsample_buckets_means() {
        let s: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let d = downsample(&s, 5);
        assert_eq!(d, vec![0.5, 2.5, 4.5, 6.5, 8.5]);
        assert!(downsample(&[], 3).is_empty());
        assert!(downsample(&s, 0).is_empty());
    }

    #[test]
    fn heatmap_renders_rows_top_first() {
        let map = vec![vec![50.0, 50.0], vec![90.0, 50.0]];
        let art = render_heatmap(&map);
        let lines: Vec<&str> = art.lines().collect();
        // Top row (second vec) first: hottest cell is '@'.
        assert!(lines[0].starts_with('@'));
        assert!(lines[1].starts_with(' '));
        assert!(lines[2].contains("range"));
    }

    #[test]
    fn heatmap_handles_flat_input() {
        let map = vec![vec![60.0; 3]; 2];
        assert_eq!(render_heatmap(&map), "");
    }

    #[test]
    fn analysis_json_is_parseable_and_stable() {
        use simkit::telemetry::analyze::ParsedEvent;
        use simkit::telemetry::{EventKind, Telemetry};

        let (tel, sink) = Telemetry::recorder();
        {
            let _run = tel.span("engine.run");
            tel.counter("engine.decisions", 2);
            tel.gauge("thermal.max_c", 81.5);
            tel.solve("thermal.gs", 12, 1e-9);
            tel.event(EventKind::Gating, "engine.gating")
                .field_u64("active", 9)
                .field_u64("turned_on", 1)
                .field_u64("turned_off", 0)
                .emit();
        }
        let mut analysis = TraceAnalysis::exact();
        for event in sink.events() {
            let parsed = ParsedEvent::from_line(&event.to_json()).unwrap();
            analysis.observe(&parsed);
        }
        // Mis-nested a, b, /a, /b: the end of a is unmatched, a stays open.
        for line in [
            r#"{"t":1.0,"kind":"span_start","name":"a"}"#,
            r#"{"t":1.1,"kind":"span_start","name":"b"}"#,
            r#"{"t":1.2,"kind":"span_end","name":"a","dur_s":0.2}"#,
            r#"{"t":1.3,"kind":"span_end","name":"b","dur_s":0.2}"#,
        ] {
            analysis.observe(&ParsedEvent::from_line(line).unwrap());
        }

        let doc = analysis_json(&analysis, None);
        assert_eq!(doc, analysis_json(&analysis, None), "byte-stable");
        let parsed = simkit::telemetry::json::parse(doc.trim()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some(SUMMARY_SCHEMA)
        );
        assert_eq!(
            parsed.get("events").and_then(|v| v.as_f64()),
            Some(analysis.events as f64)
        );
        let counters = parsed.get("counters").and_then(|v| v.as_array()).unwrap();
        assert_eq!(
            counters[0].get("name").and_then(|v| v.as_str()),
            Some("engine.decisions")
        );
        let spans = parsed.get("spans").and_then(|v| v.as_array()).unwrap();
        let span = |name: &str| {
            let span = spans
                .iter()
                .find(|s| s.get("name").and_then(|v| v.as_str()) == Some(name))
                .unwrap();
            ["completed", "open", "unmatched_ends", "total_s"]
                .map(|key| span.get(key).and_then(|v| v.as_f64()).unwrap())
        };
        assert_eq!(span("engine.run")[..3], [1.0, 0.0, 0.0]);
        assert_eq!(span("a"), [0.0, 1.0, 1.0, 0.0]);
        assert_eq!(span("b"), [1.0, 0.0, 0.0, 0.2]);
        // A span that never completed totals 0, not -0.
        assert!(doc.contains(
            "\"name\":\"a\",\"completed\":0,\"open\":1,\"unmatched_ends\":1,\"total_s\":0,"
        ));
        assert!(parsed.get("gating").unwrap().get("decisions").is_some());
        assert!(parsed.get("emergency").unwrap().is_null());
        assert!(parsed.get("manifest").unwrap().is_null());
        // Key order is fixed: schema first, manifest last.
        assert!(doc.starts_with("{\"schema\":"));
        assert!(doc.trim_end().ends_with("\"manifest\":null}"));
    }
}
