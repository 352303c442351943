//! `tg-verify` usage errors exit 2, apart from a failed oracle's 1.

use std::process::Command;

#[test]
fn usage_errors_exit_2_before_any_check_runs() {
    for arg in ["--bogus", "--seed=zz", "--cases=x", "--threads=x"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tg-verify"))
            .arg(arg)
            .output()
            .expect("tg-verify runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: stderr:\n{stderr}");
        assert!(stderr.contains("USAGE:"), "{arg}: no usage in:\n{stderr}");
        assert!(out.stdout.is_empty(), "{arg}: ran before rejecting");
    }
}
