//! End-to-end tests of the `tg-obs` binary: summarize/export/diff over
//! the committed fixture run, regression gating with non-zero exits and
//! named metrics, snapshot capture, rules checks, watch, and `validate`
//! (span pairing, timestamp ordering).

use experiments::snapshot::BenchSnapshot;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture_run() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run_a")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tg-obs-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}

fn tg_obs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tg-obs"))
        .args(args)
        .output()
        .expect("tg-obs runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn summarize_reports_fixture_statistics() {
    let run = fixture_run();
    let out = tg_obs(&["summarize", run.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for needle in [
        "created by fixture",
        "events: 14",
        "engine.steps",
        "65.7000",
        "thermal.gs",
        "gating: 1 decisions, churn 3",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn summarize_works_on_a_bare_trace_file() {
    let trace = fixture_run().join("trace.jsonl");
    let out = tg_obs(&["summarize", trace.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("events: 14"));
}

#[test]
fn export_writes_the_expected_csv_series() {
    let run = fixture_run();
    let dir = temp_dir("export");
    let csv_path = dir.join("series.csv");
    let out = tg_obs(&[
        "export",
        run.to_str().unwrap(),
        "--out",
        csv_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    assert!(csv.starts_with("t_s,metric,value\n"));
    for needle in [
        "thermal.max_silicon_c,60",
        "thermal.max_silicon_c,66",
        "engine.window_noise_pct,5",
        "thermal.gs.iters,8",
        "thermal.gs.iters,12",
        "engine.gating.active,10",
        "engine.run.dur_s,0.13",
    ] {
        assert!(csv.contains(needle), "missing {needle:?} in:\n{csv}");
    }
    // 4 gauges + 2 histograms + 2 solves × 2 points + 1 gating + 1 span
    // end = 12 data rows.
    assert_eq!(csv.lines().count(), 13);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timeline_exports_validated_chrome_trace_json() {
    let run = fixture_run();
    let dir = temp_dir("timeline");
    let json_path = dir.join("timeline.json");
    let out = tg_obs(&[
        "timeline",
        run.to_str().unwrap(),
        "--out",
        json_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&json_path).expect("timeline written");
    let stats = simkit::telemetry::timeline::validate(&text).expect("valid Chrome trace");
    // Fixture: engine.run B+E, the counter/gauge/histogram/gating.active
    // counter tracks, and gating/emergency/progress/solve instants.
    assert_eq!(stats.spans, 2);
    assert!(stats.counters >= 4, "counters: {}", stats.counters);
    assert!(stats.instants >= 3, "instants: {}", stats.instants);
    assert_eq!(stats.tracks, 1);
    assert!(text.contains("\"traceEvents\""));
    assert!(stderr(&out).contains("track(s)"), "{}", stderr(&out));
    // Without --out the document goes to stdout.
    let out = tg_obs(&["timeline", run.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flame_stack_weights_telescope_to_the_root_span() {
    let run = fixture_run();
    let out = tg_obs(&["flame", run.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    // engine.run is the only span: 0.13 s = 130000 µs, all exclusive.
    assert_eq!(text.trim_end(), "track0;engine.run 130000");
    let total: u64 = text
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, 130_000);
}

#[test]
fn top_default_report_is_byte_identical_across_invocations() {
    let run = fixture_run();
    let a = tg_obs(&["top", run.to_str().unwrap()]);
    let b = tg_obs(&["top", run.to_str().unwrap()]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "structural top report must not drift");
    let text = stdout(&a);
    assert!(text.contains("engine.run"), "{text}");
    assert!(
        !text.contains("incl"),
        "default top must omit wall-time columns:\n{text}"
    );
    // --times adds the wall-time columns; --tree renders the call tree.
    let times = tg_obs(&["top", run.to_str().unwrap(), "--times"]);
    assert!(stdout(&times).contains("excl"), "{}", stdout(&times));
    let tree = tg_obs(&["top", run.to_str().unwrap(), "--tree"]);
    assert!(stdout(&tree).contains("track 0 (run)"), "{}", stdout(&tree));
}

#[test]
fn summarize_notes_traces_with_no_paired_spans() {
    let dir = temp_dir("nospans");
    std::fs::write(
        dir.join("trace.jsonl"),
        "{\"t\":0.01,\"kind\":\"counter\",\"name\":\"engine.steps\",\"delta\":5}\n",
    )
    .expect("trace written");
    let out = tg_obs(&["summarize", dir.join("trace.jsonl").to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("no paired spans"),
        "missing note in:\n{}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn self_diff_exits_zero_with_zero_drift() {
    let run = fixture_run();
    let out = tg_obs(&["diff", run.to_str().unwrap(), run.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("0 regression(s)"), "{}", stdout(&out));
}

#[test]
fn doctored_run_diff_exits_nonzero_and_names_the_metric() {
    let run = fixture_run();
    let dir = temp_dir("doctored");
    // Same event count (the manifest stays valid), different solver
    // iteration count.
    let trace = std::fs::read_to_string(run.join("trace.jsonl")).expect("fixture trace");
    assert!(trace.contains("\"iters\":12"));
    std::fs::write(
        dir.join("trace.jsonl"),
        trace.replace("\"iters\":12", "\"iters\":50"),
    )
    .expect("doctored trace written");
    std::fs::copy(run.join("manifest.json"), dir.join("manifest.json")).expect("manifest copied");

    let out = tg_obs(&["diff", run.to_str().unwrap(), dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let err = stderr(&out);
    assert!(
        err.contains("regression: solver.thermal.gs.iters_mean"),
        "stderr: {err}"
    );
    // A tolerance override wide enough to absorb the change flips the
    // exit back to success.
    let out = tg_obs(&[
        "diff",
        run.to_str().unwrap(),
        dir.to_str().unwrap(),
        "--tol",
        "solver.thermal.gs.iters_mean=10",
        "--tol",
        "solver.thermal.gs.iters_p95=10",
        "--tol",
        "solver.thermal.gs.residual_max=10",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small `thermogater.bench/v2` document: one policy, one solver
/// site, one scaling cell.
fn sample_snapshot(label: &str, iters_p95: f64) -> String {
    let rows = [
        ("snap.entries", 1.0, "exact", 0.0),
        ("snap.peak_rss_bytes", 32.0 * 1024.0 * 1024.0, "lower", 0.3),
        ("snap.oract.steps_per_sec", 600.0, "higher", 0.25),
        ("snap.oract.wall_s", 0.5, "info", 0.0),
        ("snap.oract.steps", 300.0, "info", 0.0),
        ("snap.oract.phase.noise_s", 0.3, "info", 0.0),
        ("snap.oract.solver.transient.solves", 300.0, "info", 0.0),
        ("snap.oract.solver.transient.iters_p50", 3.0, "lower", 0.1),
        (
            "snap.oract.solver.transient.iters_p95",
            iters_p95,
            "lower",
            0.1,
        ),
        (
            "snap.oract.solver.transient.residual_max",
            1e-12,
            "info",
            0.0,
        ),
        ("snap.scaling.64.mgcg.solves", 3.0, "info", 0.0),
        ("snap.scaling.64.mgcg.iters_mean", 14.0, "lower", 0.1),
        ("snap.scaling.64.mgcg.setup_s", 0.01, "info", 0.0),
        ("snap.scaling.64.mgcg.wall_s", 0.03, "info", 0.0),
    ]
    .map(|(key, value, better, tol)| {
        format!(r#"{{"key":"{key}","value":{value},"better":"{better}","tol":{tol}}}"#)
    });
    format!(
        r#"{{"schema":"thermogater.bench/v2","label":"{label}","config":"fast","bench":"lu_ncb","rows":[{}]}}"#,
        rows.join(",\n")
    )
}

#[test]
fn snapshot_diff_gates_on_injected_iteration_regression() {
    let dir = temp_dir("snapdiff");
    let base = dir.join("BENCH_base.json");
    let worse = dir.join("BENCH_worse.json");
    std::fs::write(&base, sample_snapshot("base", 4.0)).expect("base written");
    std::fs::write(&worse, sample_snapshot("worse", 8.0)).expect("worse written");

    // Self-diff of a snapshot: clean.
    let out = tg_obs(&["diff", base.to_str().unwrap(), base.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // Injected +100% iters_p95: non-zero exit, metric named.
    let out = tg_obs(&["diff", base.to_str().unwrap(), worse.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("regression: snap.oract.solver.transient.iters_p95"),
        "stderr: {}",
        stderr(&out)
    );

    // Mixing a run directory with a snapshot is a usage error (exit 2).
    let run = fixture_run();
    let out = tg_obs(&["diff", run.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_diff_rejects_an_unrepresentable_value_with_exit_2() {
    let dir = temp_dir("snapbad");
    let base = dir.join("BENCH_base.json");
    let bad = dir.join("BENCH_bad.json");
    std::fs::write(&base, sample_snapshot("base", 4.0)).expect("base written");
    // 1e999 parses to +inf, which no row can hold (nor be written back).
    let overflow = sample_snapshot("bad", 4.0).replace("\"value\":600", "\"value\":1e999");
    std::fs::write(&bad, overflow).expect("bad written");
    let out = tg_obs(&["diff", base.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("snap.oract.steps_per_sec: value is not finite"),
        "stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_snapshot_captures_a_valid_schema_file() {
    let dir = temp_dir("bench");
    let out = tg_obs(&[
        "bench-snapshot",
        "--label",
        "e2e",
        "--policies",
        "allon",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let path = dir.join("BENCH_e2e.json");
    let text = std::fs::read_to_string(&path).expect("snapshot written");
    let snap = BenchSnapshot::from_json(&text).expect("schema-valid snapshot");
    assert_eq!(snap.label, "e2e");
    assert_eq!(snap.get("snap.entries"), Some(1.0));
    assert!(snap.rows.iter().any(|r| r.axis() == "allon"));
    assert!(snap.get("snap.allon.steps").unwrap() > 0.0);
    assert!(snap.get("snap.allon.steps_per_sec").unwrap() > 0.0);
    // The frame-recorder overhead axis was captured alongside.
    let frames = snap
        .get("snap.telemetry.frames")
        .expect("overhead axis captured");
    assert!(frames >= 5.0);
    assert!(snap.get("snap.telemetry.frames_wall_s").unwrap() > 0.0);
    assert!(snap.get("snap.telemetry.base_wall_s").unwrap() > 0.0);

    // The file it just captured self-diffs clean.
    let out = tg_obs(&["diff", path.to_str().unwrap(), path.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_subcommand_and_bad_policy_fail_cleanly() {
    let out = tg_obs(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown subcommand"));

    let out = tg_obs(&["bench-snapshot", "--policies", "warp9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown policy tag"));
}

#[test]
fn validate_accepts_the_fixture_and_rejects_broken_traces() {
    let run = fixture_run();
    let out = tg_obs(&[
        "validate",
        run.to_str().unwrap(),
        "--require",
        "gating,emergency,solve",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("spans paired"));

    // A required kind the trace lacks is a violation (exit 1)…
    let out = tg_obs(&["validate", run.to_str().unwrap(), "--require", "frame"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("required event kind \"frame\" never appears"),
        "stderr: {}",
        stderr(&out)
    );
    // …while an unknown kind or a missing run dir is a usage error.
    let out = tg_obs(&["validate", run.to_str().unwrap(), "--require", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(tg_obs(&["validate"]).status.code(), Some(2));

    // An extra span_end with no opener must fail pairing...
    let dir = temp_dir("check-span");
    let trace = std::fs::read_to_string(run.join("trace.jsonl")).expect("fixture trace");
    std::fs::write(
        dir.join("trace.jsonl"),
        trace.replace(
            "{\"t\":0.120,\"kind\":\"progress\",\"name\":\"workload.trace\",\"workload\":\"lu_ncb\"}",
            "{\"t\":0.120,\"kind\":\"span_end\",\"name\":\"engine.orphan\",\"dur_s\":0.1}",
        ),
    )
    .expect("doctored trace written");
    std::fs::copy(run.join("manifest.json"), dir.join("manifest.json")).expect("manifest copied");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains(
            "trace.jsonl:13: span_end \"engine.orphan\" on track 0 without a matching span_start"
        ),
        "stderr: {}",
        stderr(&out)
    );

    // ...a span left open must fail too...
    std::fs::write(
        dir.join("trace.jsonl"),
        trace.replace(
            "{\"t\":0.130,\"kind\":\"span_end\",\"name\":\"engine.run\",\"dur_s\":0.13}",
            "{\"t\":0.130,\"kind\":\"span_start\",\"name\":\"engine.run\"}",
        ),
    )
    .expect("doctored trace written");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("1 span(s) never closed: engine.run (track 0)"),
        "stderr: {}",
        stderr(&out)
    );

    // ...a timestamp jumping backwards beyond the 0.1 s slack must
    // fail (0.110 s → 0.000 s)...
    let with_progress_at = |t: &str| {
        trace.replace(
            "{\"t\":0.120,\"kind\":\"progress\",\"name\":\"workload.trace\",\"workload\":\"lu_ncb\"}",
            &format!(
                "{{\"t\":{t},\"kind\":\"progress\",\"name\":\"workload.trace\",\"workload\":\"lu_ncb\"}}"
            ),
        )
    };
    std::fs::write(dir.join("trace.jsonl"), with_progress_at("0.000")).expect("doctored trace");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("trace.jsonl:13: timestamp went backwards"),
        "stderr: {}",
        stderr(&out)
    );
    // ...while the slack tolerates a smaller wobble (0.110 s → 0.020 s)...
    std::fs::write(dir.join("trace.jsonl"), with_progress_at("0.020")).expect("doctored trace");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // ...a malformed line fails, naming its line number...
    std::fs::write(
        dir.join("trace.jsonl"),
        trace.replace("\"kind\":\"gating\"", "\"kind\":gating"),
    )
    .expect("doctored trace");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("trace.jsonl:11: bad JSON"),
        "stderr: {}",
        stderr(&out)
    );
    // ...as does a truncated final line...
    std::fs::write(dir.join("trace.jsonl"), &trace[..trace.len() - 10]).expect("doctored trace");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("trace.jsonl:14: bad JSON"),
        "stderr: {}",
        stderr(&out)
    );
    // ...a track that is not a non-negative integer...
    std::fs::write(
        dir.join("trace.jsonl"),
        with_progress_at("0.120,\"track\":-1"),
    )
    .expect("doctored trace");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("trace.jsonl:13: field \"track\" is not a non-negative integer"),
        "stderr: {}",
        stderr(&out)
    );
    // ...and a trace whose event count disagrees with the manifest.
    let mut lines: Vec<&str> = trace.lines().collect();
    lines.remove(12);
    std::fs::write(dir.join("trace.jsonl"), lines.join("\n") + "\n").expect("doctored trace");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("event count mismatch: 13 trace lines vs events_total 14"),
        "stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_pairs_spans_per_track() {
    // A span_end on track 2 must not be paired with the run-track
    // (track 0) span_start of the same name: pairing is keyed by
    // (track, name), not name alone.
    let run = fixture_run();
    let dir = temp_dir("check-track");
    let trace = std::fs::read_to_string(run.join("trace.jsonl")).expect("fixture trace");
    std::fs::write(
        dir.join("trace.jsonl"),
        trace.replace(
            "{\"t\":0.120,\"kind\":\"progress\",\"name\":\"workload.trace\",\"workload\":\"lu_ncb\"}",
            "{\"t\":0.120,\"kind\":\"span_end\",\"name\":\"engine.run\",\"dur_s\":0.1,\"track\":2}",
        ),
    )
    .expect("doctored trace written");
    std::fs::copy(run.join("manifest.json"), dir.join("manifest.json")).expect("manifest copied");
    let out = tg_obs(&["validate", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "cross-track pairing must fail");
    assert!(
        stderr(&out).contains("on track 2 without a matching span_start"),
        "stderr: {}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn rules_fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn summarize_json_is_stable_and_schema_tagged() {
    let run = fixture_run();
    let a = tg_obs(&["summarize", run.to_str().unwrap(), "--json"]);
    let b = tg_obs(&["summarize", run.to_str().unwrap(), "--json"]);
    assert!(a.status.success(), "stderr: {}", stderr(&a));
    assert_eq!(a.stdout, b.stdout, "JSON summary must not drift");
    let text = stdout(&a);
    let doc = simkit::telemetry::json::parse(text.trim()).expect("parseable JSON");
    let obj = doc.as_object().expect("an object");
    let schema = obj.iter().find(|(k, _)| k == "schema").expect("schema tag");
    assert_eq!(schema.1.as_str(), Some("thermogater.summary/v1"));
    // Key order is fixed by the hand-rolled writer, so the raw text
    // starts with the schema tag — stable for textual diffing.
    assert!(
        text.starts_with("{\"schema\":\"thermogater.summary/v1\",\"events\":14,"),
        "{text}"
    );
    // --out writes the same bytes to a file.
    let dir = temp_dir("sumjson");
    let path = dir.join("summary.json");
    let out = tg_obs(&[
        "summarize",
        run.to_str().unwrap(),
        "--json",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_passes_smoke_rules_and_gates_failing_rules() {
    let run = fixture_run();
    let rules = rules_fixture("rules_smoke.json");
    let out = tg_obs(&[
        "check",
        run.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("trace-parses-clean"), "{text}");
    assert!(text.contains("0 fail"), "{text}");

    // The deliberately-failing rules file must exit 1 (not 2: the
    // rules parsed fine, the trace violated them) and name each
    // failed rule on stderr, mirroring diff's `regression:` contract.
    let rules = rules_fixture("rules_failing.json");
    let out = tg_obs(&[
        "check",
        run.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    let err = stderr(&out);
    assert!(
        err.contains("failed: unreachable-event-count"),
        "stderr: {err}"
    );
    assert!(err.contains("failed: ghost-counter"), "stderr: {err}");

    // --strict promotes warnings to gate failures: the smoke rules
    // warn on the fixture's 100 % emergency rate, so strict mode
    // flips the exit to 1.
    let rules = rules_fixture("rules_smoke.json");
    let out = tg_obs(&[
        "check",
        run.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        "--strict",
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("failed: emergency-rate-sane"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn check_rejects_malformed_rules_files_as_usage_errors() {
    let run = fixture_run();
    let dir = temp_dir("badrules");
    let path = dir.join("rules.json");
    std::fs::write(&path, "{\"schema\":\"wrong/v9\",\"rules\":[]}").unwrap();
    let out = tg_obs(&[
        "check",
        run.to_str().unwrap(),
        "--rules",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains("invalid rules file"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_once_summary_tail_matches_batch_summarize_exactly() {
    let run = fixture_run();
    let watch = tg_obs(&[
        "watch",
        run.to_str().unwrap(),
        "--once",
        "--status-every",
        "5",
    ]);
    assert!(watch.status.success(), "stderr: {}", stderr(&watch));
    let text = stdout(&watch);
    // Status lines fire at exact event counts (5, 10) plus the final
    // 14-event line, each a pure function of the trace prefix.
    assert!(text.contains("[watch] events=5 "), "{text}");
    assert!(text.contains("[watch] events=10 "), "{text}");
    assert!(text.contains("[watch] events=14 "), "{text}");
    let marker = "--- summary ---\n";
    let tail = &text[text.find(marker).expect("summary marker") + marker.len()..];
    let summarize = tg_obs(&["summarize", run.to_str().unwrap()]);
    assert!(summarize.status.success());
    assert_eq!(
        tail,
        stdout(&summarize),
        "watch's final summary must be byte-identical to batch summarize"
    );
}

#[test]
fn watch_renders_are_byte_identical_across_invocations() {
    let run = fixture_run();
    let rules = rules_fixture("rules_smoke.json");
    let args = [
        "watch",
        run.to_str().unwrap(),
        "--once",
        "--status-every",
        "3",
        "--rules",
        rules.to_str().unwrap(),
    ];
    let a = tg_obs(&args);
    let b = tg_obs(&args);
    assert!(a.status.success(), "stderr: {}", stderr(&a));
    assert_eq!(a.stdout, b.stdout, "watch render must not drift");
    // Rules are evaluated incrementally on each status line and once
    // at the end as a full report.
    let text = stdout(&a);
    assert!(text.contains(" rules="), "{text}");
    assert!(text.contains("rule(s):"), "{text}");
}

#[test]
fn watch_follows_a_growing_trace_to_completion() {
    let run = fixture_run();
    let dir = temp_dir("watchlive");
    let trace = std::fs::read_to_string(run.join("trace.jsonl")).unwrap();
    let lines: Vec<&str> = trace.lines().collect();
    // Seed the file with the first few lines; the manifest arrives
    // only after the writer finishes, which is what ends the watch.
    std::fs::write(
        dir.join("trace.jsonl"),
        format!("{}\n", lines[..4].join("\n")),
    )
    .unwrap();

    let child = std::process::Command::new(env!("CARGO_BIN_EXE_tg-obs"))
        .args([
            "watch",
            dir.to_str().unwrap(),
            "--status-every",
            "7",
            "--interval-ms",
            "20",
            "--timeout-s",
            "30",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("watch spawns");

    // Append the rest while the watcher polls, splitting one append
    // mid-line to exercise partial-tail handling, then land the
    // manifest to signal completion.
    std::thread::sleep(std::time::Duration::from_millis(120));
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("trace.jsonl"))
            .unwrap();
        let rest = format!("{}\n", lines[4..].join("\n"));
        let split = rest.len() / 2;
        file.write_all(&rest.as_bytes()[..split]).unwrap();
        file.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(120));
        file.write_all(&rest.as_bytes()[split..]).unwrap();
        file.flush().unwrap();
    }
    std::fs::copy(run.join("manifest.json"), dir.join("manifest.json")).unwrap();

    let out = child.wait_with_output().expect("watch finishes");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("[watch] events=7 "), "{text}");
    assert!(text.contains("[watch] events=14 "), "{text}");
    assert!(text.contains("events: 14"), "{text}");
    // The live fold and the batch analysis agree on the final line.
    let marker = "--- summary ---\n";
    let tail = &text[text.find(marker).expect("summary marker") + marker.len()..];
    let summarize = tg_obs(&["summarize", dir.to_str().unwrap()]);
    assert_eq!(tail, stdout(&summarize));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_rejects_a_timeout_that_never_or_always_expires() {
    let run = fixture_run();
    for bad in ["nan", "inf", "-1", "soon"] {
        let out = tg_obs(&["watch", run.to_str().unwrap(), "--timeout-s", bad]);
        assert_eq!(out.status.code(), Some(2), "--timeout-s {bad}");
        assert!(
            stderr(&out).contains("--timeout-s needs a finite number of seconds >= 0"),
            "--timeout-s {bad}: {}",
            stderr(&out)
        );
    }
    let out = tg_obs(&["watch", run.to_str().unwrap(), "--once", "--timeout-s", "0"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn check_percentile_rules_use_the_exact_percentiles_summarize_prints() {
    use simkit::telemetry::live::P2Grid;

    // A bimodal gauge with more samples than the P² grid holds
    // verbatim (13), so the streaming estimate and the exact p95 part.
    let values: Vec<f64> = (0..20)
        .map(|k| {
            if k % 5 == 4 {
                90.0 + k as f64
            } else {
                1.0 + 0.1 * k as f64
            }
        })
        .collect();
    let exact = simkit::stats::percentile(&values, 95.0).unwrap();
    let mut grid = P2Grid::new();
    values.iter().for_each(|&v| grid.observe(v));
    let estimate = grid.estimate(0.95).unwrap();
    assert!(
        (exact - estimate).abs() > 1.0,
        "the sample must separate the stores: exact {exact}, P² {estimate}"
    );

    let dir = temp_dir("exact-check");
    let trace: String = values
        .iter()
        .enumerate()
        .map(|(k, v)| {
            format!(
                "{{\"t\":{:.3},\"kind\":\"gauge\",\"name\":\"bimodal\",\"value\":{v}}}\n",
                k as f64 * 0.01
            )
        })
        .collect();
    std::fs::write(dir.join("trace.jsonl"), trace).unwrap();

    // summarize prints the exact p95.
    let out = tg_obs(&["summarize", dir.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let doc = simkit::telemetry::json::parse(stdout(&out).trim()).unwrap();
    let rollup = &doc.get("rollups").and_then(|r| r.as_array()).unwrap()[0];
    assert_eq!(rollup.get("p95").and_then(|v| v.as_f64()), Some(exact));

    // A bound between the two: check's verdict is the exact one.
    let bound = (exact + estimate) / 2.0;
    let rules = dir.join("rules.json");
    std::fs::write(
        &rules,
        format!(
            r#"{{"schema":"thermogater.rules/v1","rules":[{{"name":"p95-bound","metric":"p95:bimodal","fail_above":{bound}}}]}}"#
        ),
    )
    .unwrap();
    let out = tg_obs(&[
        "check",
        dir.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
    ]);
    let expected = if exact > bound { 1 } else { 0 };
    assert_eq!(
        out.status.code(),
        Some(expected),
        "exact p95 {exact}, P² {estimate}, bound {bound}:\n{}",
        stdout(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
