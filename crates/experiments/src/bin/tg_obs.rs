//! `tg-obs` — trace analytics, run diffing, and perf-regression
//! snapshots over the telemetry layer.
//!
//! Operates on the run directories every experiment binary produces
//! under `--telemetry=<dir>` (a `trace.jsonl` plus `manifest.json`) and
//! on the `BENCH_*.json` performance snapshots this tool captures
//! itself:
//!
//! ```text
//! tg-obs summarize <run-dir>                  # human-readable report
//! tg-obs validate <run-dir> [--require k,k]   # trace + manifest checks
//! tg-obs watch <run-dir> [--rules <json>]     # follow a live trace
//! tg-obs check <run-dir> --rules <json>       # gate on health rules
//! tg-obs export <run-dir> [--out <csv>]       # CSV time series
//! tg-obs timeline <run-dir> [--out <json>]    # Chrome-trace / Perfetto
//! tg-obs flame <run-dir> [--out <txt>]        # collapsed stacks
//! tg-obs top <run-dir> [--times] [--tree]     # hottest-site profile
//! tg-obs diff <a> <b> [--all] [--tol m=rel] [--solver-agnostic]
//! tg-obs bench-snapshot [--label <l>] [--out <dir>] [--policies t,t]
//! ```
//!
//! `validate`, `check`, and `diff` exit 1 on a violation, a failed rule,
//! or a regression beyond tolerance, so they can guard CI; every
//! subcommand exits 2 on a usage error.

use experiments::obs::{diff_analyses, diff_manifests, diff_snapshots, DiffConfig, DiffReport};
use experiments::report::{analysis_json, analysis_report};
use experiments::snapshot::{self, BenchSnapshot};
use experiments::sweep::policy_from_tag;
use simkit::linalg::SolverBackend;
use simkit::telemetry::analyze::{series_points, TraceAnalysis, TraceReader, TraceTailer};
use simkit::telemetry::manifest::{RunManifest, MANIFEST_FILE, TRACE_FILE};
use simkit::telemetry::prof;
use simkit::telemetry::rules::{RuleSet, Severity};
use simkit::telemetry::{timeline, EventKind};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use thermogater::PolicyKind;

const USAGE: &str = "\
tg-obs — trace analytics over ThermoGater telemetry

USAGE:
    tg-obs summarize <run-dir> [--json] [--out <file>]
        Summarise a run: event counts, metric percentiles, span
        durations, solver convergence, gating churn, emergency rates.
        --json writes one stable-key-order JSON document (schema
        thermogater.summary/v1) instead of the human tables.

    tg-obs validate <run-dir> [--require <kind,kind,..>]
        Check a run directory: manifest.json parses and its
        events_total equals the trace's event count; every trace line
        is a well-formed event (a bad line fails, naming its number)
        with a non-negative integer track; every span end closes the
        innermost open span on its track and no span stays open;
        timestamps never step back more than 0.1 s when the manifest
        lists at most one cell; each --require kind appears. Kinds:
        span_start span_end counter gauge histogram gating emergency
        solve progress frame. Exits 1 on the first violation, naming it
        on stderr.

    tg-obs watch <run-dir> [--once] [--rules <file.json>]
                 [--status-every <n>] [--interval-ms <n>] [--timeout-s <n>]
        Follow a live trace as it is written: the exact aggregation
        `check` and `summarize` use, with a deterministic status line
        every n events (default 1000), rules re-evaluated as events
        arrive, and — once the run completes (manifest written), goes
        idle for timeout-s (default 30), or --once drains the current
        file — the rule table `check` prints and a final summary that
        is byte-identical to `summarize` on the finished trace, below a
        `--- summary ---` marker. Exits 1 when a rule fails.

    tg-obs check <run-dir> --rules <file.json> [--strict]
        Batch-evaluate a rules file against a finished trace, with the
        exact percentiles `summarize` prints. Prints the deterministic
        rule report and exits 1 when any rule fails
        (with `failed: <rule>` on stderr, mirroring diff's contract);
        --strict also gates warnings. Usage errors exit 2.

    tg-obs export <run-dir> [--out <file.csv>]
        Export the trace as a CSV time series (t_s,metric,value):
        gauges, histograms, solver iterations/residuals, gating
        activity, span durations.

    tg-obs timeline <run-dir> [--out <file.json>]
        Export the trace in Chrome Trace Event JSON: spans as duration
        events per worker track, counters/gauges/histograms as counter
        tracks, gating/emergency/progress as instants, timed solves as
        complete events. Open the file in Perfetto
        (https://ui.perfetto.dev) or chrome://tracing. The export is
        shape-validated before it is written.

    tg-obs flame <run-dir> [--out <file.txt>]
        Fold the trace's spans into collapsed-stack lines
        (`track0;a;b <weight-µs>`), ready for flamegraph.pl or
        inferno-flamegraph. Per-track weights sum exactly to that
        track's root inclusive time. Span pairing errors and spans left
        open are noted on stderr.

    tg-obs top <run-dir> [--times] [--tree]
        Hierarchical self-profile of the run: hottest span sites with
        call counts. The default report is structural (byte-identical
        across reruns of the same seeded config); --times adds
        inclusive/exclusive wall time and re-ranks by exclusive time.
        --tree prints the full per-track call tree instead.

    tg-obs diff <a> <b> [--all] [--tol <metric>=<rel>]... [--solver-agnostic]
        Compare two run directories or two BENCH_*.json snapshots.
        Exits 1 when a gated metric regresses beyond tolerance.
        --all prints every compared metric, not just notable ones.
        --solver-agnostic compares runs made with different solver
        backends: solver sites match by backend-stripped name and gate
        on solve counts only, simulation metrics gate at 1e-6 relative.

    tg-obs bench-snapshot [--label <l>] [--out <dir>] [--policies <t,t>]
                          [--grids <n,n>]
        Run the pinned fast-config workload per policy and write
        BENCH_<label>.json (schema thermogater.bench/v2: a label,
        config and bench header plus one row per metric, each with its
        key, value, better direction and tolerance). Default label
        `local`, directory `.`, policies allon,oract,pracvt;
        `--policies all` measures the paper's eight. `--grids 64,128`
        also measures the steady-solve grid-scaling axis (cg/mgcg/direct
        per grid edge, two cache-warm solves each) as `snap.scaling.*`
        rows. `diff` compares only the axes both snapshots measured.

A <run-dir> is a directory holding trace.jsonl (and usually
manifest.json), as written by any experiment binary under
--telemetry=<dir>; a bare path to a .jsonl trace also works.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tg-obs: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("summarize") => cmd_summarize(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        Some("flame") => cmd_flame(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("bench-snapshot") => cmd_bench_snapshot(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    }
}

/// Resolves a CLI input to the trace file it denotes.
fn trace_path(input: &Path) -> PathBuf {
    if input.is_dir() {
        input.join(TRACE_FILE)
    } else {
        input.to_path_buf()
    }
}

/// Loads `manifest.json` next to the trace, when present.
fn load_manifest(input: &Path) -> Result<Option<RunManifest>, String> {
    let path = if input.is_dir() {
        input.join(MANIFEST_FILE)
    } else {
        match input.parent() {
            Some(dir) => dir.join(MANIFEST_FILE),
            None => return Ok(None),
        }
    };
    if !path.is_file() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    RunManifest::from_json(text.trim())
        .map(Some)
        .map_err(|e| format!("invalid manifest {}: {e}", path.display()))
}

fn load_analysis(input: &Path) -> Result<TraceAnalysis, String> {
    let trace = trace_path(input);
    TraceAnalysis::from_path(&trace).map_err(|e| format!("cannot read {}: {e}", trace.display()))
}

fn cmd_summarize(args: &[String]) -> Result<ExitCode, String> {
    let (run_dir, out, flags) = parse_io_args(
        args,
        "usage: tg-obs summarize <run-dir> [--json] [--out <file>]",
        &["--json"],
    )?;
    let input = Path::new(run_dir);
    let text = if flags[0] {
        let analysis = load_analysis(input)?;
        let manifest = load_manifest(input)?;
        analysis_json(&analysis, manifest.as_ref())
    } else {
        render_summarize(input)?
    };
    write_output(&text, out)?;
    Ok(ExitCode::SUCCESS)
}

/// Builds the complete `summarize` text for a run directory. `watch`
/// prints this same string as its final summary, so the two are
/// byte-identical by construction.
fn render_summarize(input: &Path) -> Result<String, String> {
    let analysis = load_analysis(input)?;
    let mut text = format!("run: {}\n", input.display());
    if let Some(manifest) = load_manifest(input)? {
        text.push_str(&format!(
            "created by {} · config hash {:016x} · {} thread(s) · {} cell(s)\n",
            manifest.created_by,
            manifest.config_hash(),
            manifest.threads,
            manifest.cells.len(),
        ));
        if manifest.total_events() != analysis.events {
            text.push_str(&format!(
                "warning: manifest claims {} events but the trace holds {}\n",
                manifest.total_events(),
                analysis.events
            ));
        }
    }
    text.push('\n');
    text.push_str(&analysis_report(&analysis));
    Ok(text)
}

/// Largest backward timestamp step `validate` tolerates, in seconds:
/// run-level and cell-level handles have separate epochs a few
/// milliseconds apart, so exact monotonicity would be a false positive.
const MONO_SLACK_S: f64 = 0.1;

fn cmd_validate(args: &[String]) -> Result<ExitCode, String> {
    let usage = "usage: tg-obs validate <run-dir> [--require <kind,kind,..>]";
    let mut run_dir: Option<&str> = None;
    let mut require = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--require" => {
                let list = iter
                    .next()
                    .ok_or_else(|| format!("--require needs a kind list\n\n{usage}"))?;
                for tag in list.split(',').filter(|t| !t.is_empty()) {
                    require.push(
                        EventKind::parse(tag)
                            .ok_or_else(|| format!("unknown event kind `{tag}`\n\n{usage}"))?,
                    );
                }
            }
            _ if run_dir.is_none() && !arg.starts_with('-') => run_dir = Some(arg),
            other => return Err(format!("unexpected argument `{other}`\n\n{usage}")),
        }
    }
    let Some(run_dir) = run_dir else {
        return Err(format!("{usage}\n\n{USAGE}"));
    };
    match validate_run(Path::new(run_dir), &require) {
        Ok(summary) => {
            println!("ok: {summary}");
            Ok(ExitCode::SUCCESS)
        }
        Err(msg) => {
            eprintln!("validate: {msg}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Runs every `validate` check over a run directory, stopping at the
/// first violation; on success returns the one-line verdict.
fn validate_run(dir: &Path, require: &[EventKind]) -> Result<String, String> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    // `from_json` re-checks the schema tag, config hash, and event total.
    let manifest = RunManifest::from_json(text.trim())
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let trace = dir.join(TRACE_FILE);
    let mut reader =
        TraceReader::open(&trace).map_err(|e| format!("cannot open {}: {e}", trace.display()))?;
    // Parallel sweep cells interleave their (per-handle-epoch)
    // timestamps arbitrarily; only single-cell traces are ordered.
    let check_mono = manifest.cells.len() <= 1;
    let mut analysis = TraceAnalysis::exact();
    let mut prev_t = f64::NEG_INFINITY;
    loop {
        let event = reader
            .next_event()
            .map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
        if let Some((line, error)) = reader.first_error() {
            return Err(format!("{TRACE_FILE}:{line}: {error}"));
        }
        let Some(event) = event else { break };
        let at = |what: String| format!("{TRACE_FILE}:{}: {what}", reader.line());
        let track = match event.field("track") {
            None => 0,
            Some(v) => v
                .as_f64()
                .filter(|t| t.is_finite() && *t >= 0.0 && t.fract() == 0.0)
                .ok_or_else(|| at("field \"track\" is not a non-negative integer".into()))?
                as u64,
        };
        let unmatched =
            |a: &TraceAnalysis| a.span(&event.name).map_or(0, |span| span.unmatched_ends);
        let before = unmatched(&analysis);
        analysis.observe(&event);
        if unmatched(&analysis) > before {
            return Err(at(format!(
                "span_end {:?} on track {track} without a matching span_start",
                event.name
            )));
        }
        if check_mono && event.t_s + MONO_SLACK_S < prev_t {
            return Err(at(format!(
                "timestamp went backwards: {:.6}s after {prev_t:.6}s (slack {MONO_SLACK_S}s)",
                event.t_s
            )));
        }
        prev_t = prev_t.max(event.t_s);
    }
    let mut unclosed: Vec<String> = analysis
        .open_spans()
        .iter()
        .map(|(track, name)| format!("{name} (track {track})"))
        .collect();
    // Nested spans of one name on one track are listed once.
    unclosed.dedup();
    if !unclosed.is_empty() {
        return Err(format!(
            "{} span(s) never closed: {}",
            unclosed.len(),
            unclosed.join(", ")
        ));
    }
    if analysis.events != manifest.total_events() {
        return Err(format!(
            "event count mismatch: {} trace lines vs events_total {}",
            analysis.events,
            manifest.total_events()
        ));
    }
    if let Some(kind) = require.iter().find(|k| analysis.kind_count(**k) == 0) {
        return Err(format!(
            "required event kind {:?} never appears",
            kind.as_str()
        ));
    }
    let kinds = EventKind::ALL
        .iter()
        .filter(|k| analysis.kind_count(**k) > 0)
        .count();
    Ok(format!(
        "{} valid events across {kinds} kinds in {} (spans paired, timestamps ordered)",
        analysis.events,
        dir.display()
    ))
}

fn load_rules(path: &str) -> Result<RuleSet, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read rules file {path}: {e}"))?;
    RuleSet::from_json(&text).map_err(|e| format!("invalid rules file {path}: {e}"))
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let usage = "usage: tg-obs check <run-dir> --rules <file.json> [--strict]";
    let mut run_dir: Option<&str> = None;
    let mut rules_path: Option<&str> = None;
    let mut strict = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--rules" => {
                rules_path = Some(
                    iter.next()
                        .ok_or_else(|| format!("--rules needs a file path\n\n{usage}"))?,
                );
            }
            "--strict" => strict = true,
            _ if run_dir.is_none() && !arg.starts_with('-') => run_dir = Some(arg),
            other => return Err(format!("unexpected argument `{other}`\n\n{usage}")),
        }
    }
    let (Some(run_dir), Some(rules_path)) = (run_dir, rules_path) else {
        return Err(format!("{usage}\n\n{USAGE}"));
    };
    let rules = load_rules(rules_path)?;
    let stats = load_analysis(Path::new(run_dir))?;
    let report = rules.evaluate(&stats);
    print!("{}", report.render());
    let gate = if strict {
        Severity::Warn
    } else {
        Severity::Fail
    };
    if report.worst() >= gate {
        for outcome in report.outcomes.iter().filter(|o| o.severity >= gate) {
            eprintln!("failed: {}", outcome.rule);
        }
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// One deterministic status line: every field is a pure function of
/// the trace prefix folded so far — counts and aggregates only, never
/// wall-clock times — so two watches of identical runs render
/// identical lines.
fn watch_status(stats: &TraceAnalysis, rules: Option<&RuleSet>) -> String {
    let mut line = format!(
        "[watch] events={} decisions={} churn={} solves={} emergencies={} progress={}",
        stats.events,
        stats.counter("engine.decisions"),
        stats.gating.churn(),
        stats.total_solves(),
        stats.emergency.with_emergency,
        stats.kind_count(EventKind::Progress),
    );
    if let Some(rules) = rules {
        let report = rules.evaluate(stats);
        line.push_str(&format!(
            " rules={}ok/{}warn/{}fail",
            report.count(Severity::Ok),
            report.count(Severity::Warn),
            report.count(Severity::Fail),
        ));
    }
    line
}

/// The run is complete once the manifest has landed and the trace has
/// yielded every event it claims (malformed lines count toward the
/// total — they occupy trace lines) with no partial line pending.
fn watch_complete(
    input: &Path,
    stats: &TraceAnalysis,
    tailer: &TraceTailer,
) -> Result<bool, String> {
    if tailer.partial_tail() {
        return Ok(false);
    }
    Ok(load_manifest(input)?
        .is_some_and(|m| stats.events + tailer.malformed_lines() >= m.total_events()))
}

fn cmd_watch(args: &[String]) -> Result<ExitCode, String> {
    let usage = "usage: tg-obs watch <run-dir> [--once] [--rules <file.json>] \
                 [--status-every <n>] [--interval-ms <n>] [--timeout-s <n>]";
    let mut run_dir: Option<&str> = None;
    let mut once = false;
    let mut rules_path: Option<&str> = None;
    let mut status_every: u64 = 1000;
    let mut interval_ms: u64 = 200;
    let mut timeout_s: f64 = 30.0;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{usage}"))
        };
        match arg.as_str() {
            "--once" => once = true,
            "--rules" => rules_path = Some(value("--rules")?),
            "--status-every" => {
                status_every = value("--status-every")?
                    .parse()
                    .map_err(|_| format!("--status-every needs a positive integer\n\n{usage}"))?;
                if status_every == 0 {
                    return Err(format!(
                        "--status-every needs a positive integer\n\n{usage}"
                    ));
                }
            }
            "--interval-ms" => {
                interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|_| format!("--interval-ms needs an integer\n\n{usage}"))?;
            }
            "--timeout-s" => {
                // NaN compares false against every elapsed time, so it
                // would never time out; a negative value always would.
                timeout_s = value("--timeout-s")?
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        format!("--timeout-s needs a finite number of seconds >= 0\n\n{usage}")
                    })?;
            }
            _ if run_dir.is_none() && !arg.starts_with('-') => run_dir = Some(arg),
            other => return Err(format!("unexpected argument `{other}`\n\n{usage}")),
        }
    }
    let Some(run_dir) = run_dir else {
        return Err(format!("{usage}\n\n{USAGE}"));
    };
    let input = Path::new(run_dir);
    let rules = rules_path.map(load_rules).transpose()?;
    let trace = trace_path(input);

    // Wait for the trace to appear (the writer may not have started yet).
    let opened = Instant::now();
    let mut tailer = loop {
        match TraceTailer::follow(&trace) {
            Ok(tailer) => break tailer,
            Err(e) => {
                if once || opened.elapsed().as_secs_f64() >= timeout_s {
                    return Err(format!("cannot open {}: {e}", trace.display()));
                }
                std::thread::sleep(Duration::from_millis(interval_ms.max(1)));
            }
        }
    };

    let mut stats = TraceAnalysis::exact();
    let mut last_event = Instant::now();
    loop {
        let events = tailer
            .poll()
            .map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
        if events.is_empty() {
            if once || watch_complete(input, &stats, &tailer)? {
                break;
            }
            if last_event.elapsed().as_secs_f64() >= timeout_s {
                eprintln!("watch: no new events for {timeout_s}s, stopping");
                break;
            }
            std::thread::sleep(Duration::from_millis(interval_ms.max(1)));
            continue;
        }
        last_event = Instant::now();
        for event in &events {
            stats.observe(event);
            // Status fires at exact event counts, not poll boundaries,
            // so the rendered sequence is independent of I/O timing.
            if stats.events.is_multiple_of(status_every) {
                println!("{}", watch_status(&stats, rules.as_ref()));
            }
        }
    }
    stats.malformed_lines = tailer.malformed_lines();
    stats.truncated = tailer.partial_tail();
    if !stats.events.is_multiple_of(status_every) || stats.events == 0 {
        println!("{}", watch_status(&stats, rules.as_ref()));
    }
    let mut failed: Vec<String> = Vec::new();
    if let Some(rules) = &rules {
        let report = rules.evaluate(&stats);
        print!("{}", report.render());
        failed = report.failures().map(|o| o.rule.clone()).collect();
    }
    println!("--- summary ---");
    print!("{}", render_summarize(input)?);
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for rule in &failed {
            eprintln!("failed: {rule}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_export(args: &[String]) -> Result<ExitCode, String> {
    let (run_dir, out, _) = parse_io_args(args, "tg-obs export <run-dir> [--out <file>]", &[])?;
    let trace = trace_path(Path::new(run_dir));
    let mut reader =
        TraceReader::open(&trace).map_err(|e| format!("cannot open {}: {e}", trace.display()))?;

    let mut csv = String::from("t_s,metric,value\n");
    let mut points = Vec::new();
    while let Some(event) = reader
        .next_event()
        .map_err(|e| format!("read error in {}: {e}", trace.display()))?
    {
        points.clear();
        series_points(&event, &mut points);
        for (metric, value) in &points {
            csv.push_str(&format!("{:.9},{metric},{value}\n", event.t_s));
        }
    }
    if reader.malformed_lines() > 0 || reader.truncated() {
        eprintln!(
            "warning: {} malformed line(s), truncated: {}",
            reader.malformed_lines(),
            reader.truncated()
        );
    }
    write_output(&csv, out)?;
    Ok(ExitCode::SUCCESS)
}

/// Parses `<run-dir> [--out <file>]` plus any listed boolean flags;
/// returns (input, out, flag states in the order given).
fn parse_io_args<'a>(
    args: &'a [String],
    usage: &str,
    flags: &[&str],
) -> Result<(&'a str, Option<&'a str>, Vec<bool>), String> {
    let mut run_dir: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut states = vec![false; flags.len()];
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--out" {
            out = Some(
                iter.next()
                    .ok_or_else(|| "--out needs a file path".to_string())?,
            );
        } else if let Some(pos) = flags.iter().position(|f| f == arg) {
            states[pos] = true;
        } else if run_dir.is_none() && !arg.starts_with('-') {
            run_dir = Some(arg);
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    let run_dir = run_dir.ok_or_else(|| format!("usage: {usage}\n\n{USAGE}"))?;
    Ok((run_dir, out, states))
}

/// Writes `text` to `out` (reporting the path on stderr) or to stdout.
fn write_output(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => {
            std::io::stdout()
                .write_all(text.as_bytes())
                .map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_timeline(args: &[String]) -> Result<ExitCode, String> {
    let (run_dir, out, _) = parse_io_args(args, "tg-obs timeline <run-dir> [--out <file>]", &[])?;
    let trace = trace_path(Path::new(run_dir));
    let json = timeline::chrome_trace_from_path(&trace)
        .map_err(|e| format!("cannot read {}: {e}", trace.display()))?;
    let stats = timeline::validate(&json)
        .map_err(|e| format!("internal error: export failed validation: {e}"))?;
    write_output(&json, out)?;
    eprintln!(
        "{} events: {} span, {} complete, {} counter, {} instant on {} track(s)",
        stats.events, stats.spans, stats.complete, stats.counters, stats.instants, stats.tracks,
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_flame(args: &[String]) -> Result<ExitCode, String> {
    let (run_dir, out, _) = parse_io_args(args, "tg-obs flame <run-dir> [--out <file>]", &[])?;
    let analysis = load_analysis(Path::new(run_dir))?;
    eprint!("{}", prof::pairing_notes(&analysis));
    write_output(&prof::collapsed(&analysis), out)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_top(args: &[String]) -> Result<ExitCode, String> {
    let (run_dir, out, flags) = parse_io_args(
        args,
        "tg-obs top <run-dir> [--times] [--tree]",
        &["--times", "--tree"],
    )?;
    let analysis = load_analysis(Path::new(run_dir))?;
    let report = if flags[1] {
        prof::render_tree(&analysis)
    } else {
        prof::render_top(&analysis, flags[0])
    };
    write_output(&report, out)?;
    Ok(ExitCode::SUCCESS)
}

/// What one side of a `diff` turned out to be.
enum DiffSide {
    Run(Box<TraceAnalysis>, Option<RunManifest>),
    Snapshot(Box<BenchSnapshot>),
}

fn load_side(input: &Path) -> Result<DiffSide, String> {
    if input.is_file() && input.extension().is_some_and(|e| e == "json") {
        let text = std::fs::read_to_string(input)
            .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
        let snap = BenchSnapshot::from_json(&text)
            .map_err(|e| format!("{} is not a bench snapshot: {e}", input.display()))?;
        return Ok(DiffSide::Snapshot(Box::new(snap)));
    }
    Ok(DiffSide::Run(
        Box::new(load_analysis(input)?),
        load_manifest(input)?,
    ))
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut inputs: Vec<&str> = Vec::new();
    let mut config = DiffConfig::new();
    let mut all = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--solver-agnostic" => config = config.solver_agnostic(true),
            "--tol" => {
                let spec = iter
                    .next()
                    .ok_or_else(|| "--tol needs <metric>=<rel>".to_string())?;
                let (metric, tol) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("bad --tol `{spec}`, expected <metric>=<rel>"))?;
                let tol: f64 = tol
                    .parse()
                    .map_err(|_| format!("bad --tol value in `{spec}`"))?;
                config = config.with_tolerance(metric, tol);
            }
            _ => inputs.push(arg),
        }
    }
    let [a, b] = inputs[..] else {
        return Err(format!("usage: tg-obs diff <a> <b>\n\n{USAGE}"));
    };

    let report = match (load_side(Path::new(a))?, load_side(Path::new(b))?) {
        (DiffSide::Run(analysis_a, manifest_a), DiffSide::Run(analysis_b, manifest_b)) => {
            let mut report = DiffReport::default();
            if let (Some(ma), Some(mb)) = (manifest_a, manifest_b) {
                report.extend(diff_manifests(&ma, &mb, &config));
            }
            report.extend(diff_analyses(&analysis_a, &analysis_b, &config));
            report
        }
        (DiffSide::Snapshot(snap_a), DiffSide::Snapshot(snap_b)) => {
            diff_snapshots(&snap_a, &snap_b, &config)
        }
        _ => {
            return Err(format!(
                "cannot diff a run directory against a snapshot ({a} vs {b})"
            ))
        }
    };

    let regressions: Vec<&str> = report.regressions().map(|d| d.metric.as_str()).collect();
    let table = report.render(!all);
    if !table.trim_end().ends_with('-') || all {
        // The table body is non-empty (or everything was requested).
        print!("{table}");
    }
    println!(
        "{} metric(s) compared, {} regression(s)",
        report.deltas.len(),
        regressions.len()
    );
    if regressions.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for metric in &regressions {
            eprintln!("regression: {metric}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_bench_snapshot(args: &[String]) -> Result<ExitCode, String> {
    SolverBackend::from_env().map_err(|e| e.to_string())?;
    let mut label = "local".to_string();
    let mut out_dir = PathBuf::from(".");
    let mut policies = vec![PolicyKind::AllOn, PolicyKind::OracT, PolicyKind::PracVT];
    let mut grids: Vec<usize> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--grids" => {
                let spec = iter
                    .next()
                    .ok_or_else(|| "--grids needs a comma-separated list".to_string())?;
                grids = spec
                    .split(',')
                    .map(|g| {
                        g.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|n| *n > 0)
                            .ok_or_else(|| format!("bad grid edge `{g}`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--label" => {
                label = iter
                    .next()
                    .ok_or_else(|| "--label needs a value".to_string())?
                    .clone();
            }
            "--out" => {
                out_dir = PathBuf::from(
                    iter.next()
                        .ok_or_else(|| "--out needs a directory".to_string())?,
                );
            }
            "--policies" => {
                let spec = iter
                    .next()
                    .ok_or_else(|| "--policies needs a comma-separated list".to_string())?;
                if spec == "all" {
                    policies = PolicyKind::ALL.to_vec();
                } else {
                    policies = spec
                        .split(',')
                        .map(|tag| {
                            policy_from_tag(tag.trim())
                                .ok_or_else(|| format!("unknown policy tag `{tag}`"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if policies.is_empty() {
        return Err("--policies list is empty".to_string());
    }

    eprintln!(
        "measuring {} polic{} with the pinned fast config…",
        policies.len(),
        if policies.len() == 1 { "y" } else { "ies" }
    );
    let mut snap = snapshot::capture(&label, &policies)?;
    if !grids.is_empty() {
        eprintln!(
            "measuring the grid-scaling axis at {} grid edge(s)…",
            grids.len()
        );
        snap.rows.extend(snapshot::capture_scaling(&grids)?);
    }
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let path = snap
        .write(&out_dir)
        .map_err(|e| format!("cannot write snapshot: {e}"))?;

    let mut t = experiments::report::TextTable::new(&["metric", "value", "better", "tol%"]);
    for row in &snap.rows {
        t.add_row(vec![
            row.key.clone(),
            format!("{:.6}", row.value),
            row.better.better_tag().to_string(),
            format!("{:.2}", row.tol * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!("wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}
