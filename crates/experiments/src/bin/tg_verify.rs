//! `tg-verify` — physics-invariant and differential verification of the
//! whole simulator stack.
//!
//! Runs, in a fixed deterministic order:
//!
//! * the [`simkit::check`]-based physics/policy oracles (regulator
//!   sizing, Eqn-1 loss consistency, η ≤ η_peak, efficiency-curve shape
//!   consistency, policy active-set exactness, emergency all-on overlay,
//!   thermal energy balance, PDN KCL and linearity);
//! * the direct-vs-CG and multigrid-vs-Jacobi-CG solver differentials;
//! * the serial vs parallel sweep differential (cache cleared, both legs
//!   recompute) and the golden-run comparison against the committed
//!   fixture.
//!
//! On any violation the process exits non-zero and prints the fully
//! shrunk counterexample — base seed plus shrunk encoded input — so the
//! failure replays offline. The report contains no timestamps: two runs
//! with the same options render byte-identical output (CI compares them
//! with `cmp`).

use experiments::verify::{self, VerifyOptions};
use simkit::linalg::SolverBackend;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
tg-verify — physics-invariant + differential verification

USAGE:
    tg-verify [OPTIONS]

OPTIONS:
    --seed=<u64>      Base seed for the property RNG streams (decimal or 0x-hex)
    --cases=<n>       Random cases per cheap oracle (default 48)
    --fast            Reduced depth for CI smoke runs
    --corpus=<dir>    Regression corpus directory (default tests/corpus)
    --no-corpus       Disable corpus replay
    --save=<dir>      Persist newly shrunk counterexamples as .case files
    --threads=<n>     Parallel-sweep leg thread count (default 2)
    --golden=<file>   Golden fixture path (default crates/experiments/tests/fixtures/golden_tiny.csv)
    --bless           Regenerate the golden fixture instead of comparing
    --no-sweep        Skip the sweep differential and golden comparison
    --report=<file>   Also write the report to a file
    -h, --help        This help

Exit status is 0 when every check passes, 1 otherwise, and 2 when
SIMKIT_SOLVER names no solver backend (auto | direct | cg | mgcg).
";

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn main() -> ExitCode {
    if let Err(e) = SolverBackend::from_env() {
        eprintln!("tg-verify: {e}");
        return ExitCode::from(2);
    }
    let mut opts = VerifyOptions::default();
    let mut report_path: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--seed=") {
            match parse_u64(v) {
                Some(seed) => opts.seed = seed,
                None => return usage_error(&format!("bad --seed value: {v}")),
            }
        } else if let Some(v) = arg.strip_prefix("--cases=") {
            match v.parse() {
                Ok(n) => opts.cases = n,
                Err(_) => return usage_error(&format!("bad --cases value: {v}")),
            }
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            match v.parse() {
                Ok(n) => opts.threads = n,
                Err(_) => return usage_error(&format!("bad --threads value: {v}")),
            }
        } else if let Some(v) = arg.strip_prefix("--corpus=") {
            opts.corpus = Some(PathBuf::from(v));
        } else if let Some(v) = arg.strip_prefix("--save=") {
            opts.save_dir = Some(PathBuf::from(v));
        } else if let Some(v) = arg.strip_prefix("--golden=") {
            opts.golden = PathBuf::from(v);
        } else if let Some(v) = arg.strip_prefix("--report=") {
            report_path = Some(PathBuf::from(v));
        } else {
            match arg.as_str() {
                "--fast" => opts.fast = true,
                "--no-corpus" => opts.corpus = None,
                "--bless" => opts.bless = true,
                "--no-sweep" => opts.skip_sweep = true,
                "-h" | "--help" => {
                    print!("{USAGE}");
                    return ExitCode::SUCCESS;
                }
                other => return usage_error(&format!("unknown argument: {other}")),
            }
        }
    }
    if opts.fast {
        opts.cases = opts.cases.min(16);
    }

    let run = verify::run_all(&opts);
    let rendered = run.render(&opts);
    print!("{rendered}");
    if let Some(path) = report_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("tg-verify: could not write report {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if run.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("tg-verify: {message}\n\n{USAGE}");
    ExitCode::FAILURE
}
