//! The repository benchmark: four workloads of the ThermoGater
//! reproduction, their end-to-end metrics, and an outside-in per-layer
//! trace. `benchmark/README.md` documents the workloads, the metrics and
//! the commands; `BENCHMARK.json` at the repository root declares the
//! metrics, their units, directions and bounds.

#![forbid(unsafe_code)]

pub mod check;
pub mod replay;
pub mod report;
pub mod run;
pub mod scenario;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

/// The repository root (the parent of this package).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Where result files, span traces and working caches go:
/// `target/benchmark/` under the repository root.
pub fn output_dir() -> PathBuf {
    repo_root().join("target").join("benchmark")
}
