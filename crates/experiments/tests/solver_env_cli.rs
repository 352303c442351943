//! A `SIMKIT_SOLVER` value that names no solver backend is a usage
//! error: every entry point that reads it exits 2 at start-up, naming
//! the accepted backends, instead of silently running under `Auto`.

use std::process::{Command, Output};

fn run_with_solver(bin: &str, solver: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("SIMKIT_SOLVER", solver)
        .output()
        .expect("binary runs")
}

fn assert_rejected(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr:\n{stderr}");
    assert!(
        stderr.contains("auto | direct | cg | mgcg"),
        "{what}: error does not list the backends:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{what}: ran before rejecting");
}

#[test]
fn unknown_backend_is_rejected_by_every_entry_point() {
    // `gs` named the removed Gauss–Seidel backend.
    let cases: [(&str, &str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_tg-verify"), "gs", &["--fast"]),
        (
            env!("CARGO_BIN_EXE_simulate"),
            "gauss-seidel",
            &["--bench", "fft", "--quiet"],
        ),
        (env!("CARGO_BIN_EXE_tg-obs"), "gs", &["bench-snapshot"]),
        (
            env!("CARGO_BIN_EXE_tg-serve"),
            "nope",
            &["--tiny", "--quiet"],
        ),
    ];
    for (bin, solver, args) in cases {
        assert_rejected(&run_with_solver(bin, solver, args), bin);
    }
}

#[test]
fn named_backends_are_accepted() {
    // `--help` returns before any simulation, after the start-up check.
    for solver in ["auto", "direct", "cg", "mgcg", " MGCG "] {
        let out = run_with_solver(env!("CARGO_BIN_EXE_tg-verify"), solver, &["--help"]);
        assert!(out.status.success(), "SIMKIT_SOLVER={solver:?} rejected");
    }
}
