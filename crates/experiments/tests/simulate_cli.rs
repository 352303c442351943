//! `simulate` rejects flags no engine can be built from — an empty
//! thermal grid, a duration that is zero, not a number, or shorter than
//! one decision interval, an unknown flag, policy or benchmark, or an
//! unparsable value — with an `error:` line and exit 2 before simulating
//! anything, instead of a panic (exit 101) or a generic failure. The
//! degenerate 1×1 grid is valid and still runs.

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
    let cases: [(&[&str], &str); 12] = [
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
