//! `simulate` rejects flags no engine can be built from — an empty
//! thermal grid, a duration that is zero, not a number, or shorter than
//! one decision interval, an unknown flag, policy or benchmark, or an
//! unparsable value — with an `error:` line and exit 2 before simulating
//! anything, instead of a panic (exit 101) or a generic failure. The
//! degenerate 1×1 grid is valid and still runs.
//!
//! A trace written by `--export-trace` and replayed with `--trace` under
//! the same flags reproduces the synthetic run.

use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--bench", "fft", "--policy", "oract", "--windows", "2"])
        .args(args)
        .env_remove("SIMKIT_SOLVER")
        .env_remove("SIMKIT_TELEMETRY")
        .output()
        .expect("simulate runs")
}

#[test]
fn non_physical_flags_are_usage_errors() {
    let cases: [(&[&str], &str); 13] = [
        (&["--grid", "0"], "thermal grid must be non-empty"),
        (&["--duration-ms", "0"], "at least one decision interval"),
        (&["--duration-ms", "nan"], "at least one decision interval"),
        (&["--duration-ms", "0.4"], "at least one decision interval"),
        (&["--duration-ms", "inf"], "at least one decision interval"),
        (&["--duration-ms", "-2"], "at least one decision interval"),
        (&["--no-such-flag"], "unknown flag"),
        (&["--live"], "unknown flag"),
        (&["--grid", "many"], "bad grid"),
        (&["--grid"], "expects a value"),
        (&["--policy", "integralt"], "unknown policy"),
        (&["--bench", "nope"], "unknown benchmark"),
        (&["--mix", "chol,rayt", "--trace", "t.csv"], "not --mix"),
    ];
    for (args, reason) in cases {
        let out = simulate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(
            stderr
                .lines()
                .next()
                .is_some_and(|l| l.starts_with("error:")),
            "{args:?}: first stderr line is not an error line:\n{stderr}"
        );
        assert!(
            stderr.contains(reason),
            "{args:?}: missing {reason:?}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
    }
}

#[test]
fn one_cell_grid_still_simulates() {
    let out = simulate(&["--grid", "1", "--duration-ms", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("T_max:"), "stdout:\n{stdout}");
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = simulate(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: simulate"));
}

/// The lines of a run's report that depend on the noise-window and
/// emergency seeds and on the θ fit.
fn seeded_lines(out: &Output) -> Vec<String> {
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<String> = stdout
        .lines()
        .filter(|l| {
            ["max voltage noise", "emergency residency", "predictor R²"]
                .iter()
                .any(|p| l.starts_with(p))
        })
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 3, "stdout:\n{stdout}");
    lines
}

#[test]
fn exported_trace_replays_the_synthetic_run() {
    // fft, not the lu_ncb default, so a replay seeded as another
    // benchmark shows; 3 ms is shorter than the θ profiling pass, so a
    // clamped export shows in the R² line.
    let run = ["--bench", "fft", "--policy", "pracvt", "--duration-ms", "3"];
    let run = [&run[..], &["--grid", "32", "--windows", "4"]].concat();
    let path = std::env::temp_dir().join(format!("simulate-cli-{}-fft.csv", std::process::id()));
    let path = path.to_str().expect("UTF-8 temp path");
    let export = simulate(&[&run[..], &["--export-trace", path]].concat());
    assert!(
        export.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&export.stderr)
    );
    let replayed = simulate(&[&run[..], &["--trace", path]].concat());
    let _ = std::fs::remove_file(path);
    assert_eq!(seeded_lines(&replayed), seeded_lines(&simulate(&run)));
}
