//! Experiment drivers that regenerate every table and figure of the
//! ThermoGater paper.
//!
//! The `repro` binary reproduces every artefact of the paper's evaluation
//! section from the [`repro`] registry; the shared logic lives here:
//!
//! * [`context`] — common CLI options (`--quick`) and engine
//!   configurations;
//! * [`report`] — plain-text tables, series and heat-map rendering;
//! * [`sweep`] — cached benchmark × policy sweeps (the 14 × 8 grid that
//!   Figs. 9/10/11 and Table 2 share);
//! * [`service`] — the scenario layer under the sweep: content-hashed
//!   [`service::ScenarioSpec`]s, the content-addressed
//!   [`service::ScenarioCache`], and the bounded-memory batch executor
//!   behind the `tg-serve` bin;
//! * [`telemetry`] — per-run JSONL traces, metrics registries, and
//!   `manifest.json` writing (`--telemetry=<dir>`);
//! * [`repro`] — the artefact registry: one entry per figure, table and
//!   ablation, with its data builder, detail report and shape grade;
//! * [`obs`] — run/snapshot diffing with per-metric directional
//!   tolerances (the engine behind `tg-obs diff`);
//! * [`snapshot`] — performance snapshots (`BENCH_*.json`, schema
//!   `thermogater.bench/v2`): a header plus one flat list of metric
//!   rows, each with its own direction and tolerance;
//! * [`verify`] — physics-invariant oracles, differential checks, and
//!   golden-run comparison (the engine behind `tg-verify`).
//!
//! Run an experiment with e.g.
//!
//! ```text
//! cargo run --release -p experiments --bin repro -- fig09            # full
//! cargo run --release -p experiments --bin repro -- fig09 --quick    # reduced
//! cargo run --release -p experiments --bin repro -- all --quiet      # EXPERIMENTS.md's table
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod obs;
pub mod report;
pub mod repro;
pub mod service;
pub mod snapshot;
pub mod sweep;
pub mod telemetry;
pub mod verify;
