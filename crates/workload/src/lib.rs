//! Synthetic SPLASH-2x workloads for the ThermoGater reproduction.
//!
//! The paper drives its evaluation with per-functional-unit power traces
//! of the 14 SPLASH-2x benchmarks (8 threads, region of interest),
//! collected from the SNIPER+McPAT toolchain. Neither those binaries nor
//! the simulators exist in this environment, so this crate substitutes a
//! *synthetic trace generator*: each benchmark is modelled as a
//! deterministic parametric stochastic process — mean utilisation, program
//! -phase structure, burstiness, memory intensity, thread imbalance —
//! calibrated to the per-benchmark behaviour the paper reports (sustained
//! high power for `cholesky`, light load for `raytrace`, strong phases for
//! `lu_ncb`, bursty noise-critical behaviour for `fft`, …).
//!
//! ThermoGater itself only ever sees *activity/power traces*, never
//! instructions, so this substitution exercises exactly the same code
//! paths as the original toolchain (see DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use workload::{Benchmark, TraceGenerator};
//! use floorplan::reference::power8_like;
//! use simkit::units::Seconds;
//!
//! let chip = power8_like();
//! let gen = TraceGenerator::new(&chip);
//! let trace = gen.generate(Benchmark::LuNcb, Seconds::from_millis(2.0));
//! assert_eq!(trace.activity().channel_count(), chip.blocks().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmark;
pub mod microtrace;
mod mix;
mod profile;
pub mod replay;
pub mod trace;

pub use benchmark::Benchmark;
pub use mix::{WorkloadMix, WorkloadSpec};
pub use profile::BenchmarkProfile;
pub use trace::{ActivityTrace, StepMeans, TraceGenerator};
