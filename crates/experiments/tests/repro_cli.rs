//! End-to-end tests of the `repro` binary on the artefacts that need no
//! simulation: `--quiet` prints exactly the summary table, an unknown
//! id or flag is a usage error (exit 2) that lists the ids, and so is a
//! malformed count in the environment.

use experiments::repro::{ARTEFACTS, SUMMARY_HEADER};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn quiet_prints_exactly_the_summary_rows() {
    let out = repro(&["fig01", "fig05", "--quiet"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let (header, rows) = text.split_at(SUMMARY_HEADER.len());
    assert_eq!(header, SUMMARY_HEADER);
    let rows: Vec<&str> = rows.lines().skip(1).collect();
    assert_eq!(rows.len(), 2, "{text}");
    assert!(rows[0].starts_with("| fig01 | ") && rows[0].ends_with(" |"));
    assert!(rows[1].starts_with("| fig05 | "));
    assert_eq!(rows[0].matches(" | ").count(), 4, "five cells: {}", rows[0]);
}

#[test]
fn detail_tables_precede_the_summary() {
    let out = repro(&["fig02"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let summary = text.find(SUMMARY_HEADER).expect("summary printed");
    let detail = text.find("16 active").expect("detail table printed");
    assert!(detail < summary, "{text}");
}

#[test]
fn unknown_ids_and_flags_exit_2_and_list_the_ids() {
    for args in [
        &["nope"][..],
        &["fig01", "--bogus"],
        &["fig01", "--live"],
        &["fig01", "--frames=25"],
        &["--quiet"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: "), "{err}");
        for artefact in ARTEFACTS {
            assert!(err.contains(artefact.id), "{args:?} omits {}", artefact.id);
        }
    }
    let out = repro(&["fig01", "--threads=abc"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn malformed_count_env_vars_exit_2_and_name_the_variable() {
    for (var, value) in [("SIMKIT_THREADS", "abc"), ("SIMKIT_THREADS", "-1")] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["fig01", "--quiet"])
            .env(var, value)
            .output()
            .expect("repro runs");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {err}");
        assert!(out.stdout.is_empty(), "{var}={value}");
        assert!(err.starts_with("error: ") && err.contains(var), "{err}");
    }
    // A well-formed value still runs.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig01", "--quiet"])
        .env("SIMKIT_THREADS", " 2 ")
        .output()
        .expect("repro runs");
    assert!(out.status.success());
}
