//! Foundation toolkit for the ThermoGater reproduction.
//!
//! `simkit` collects the domain-neutral machinery every other crate in the
//! workspace builds on:
//!
//! * [`units`] — zero-cost newtypes for physical quantities ([`Watts`],
//!   [`Celsius`], [`Amps`], …) so that module boundaries are type-safe;
//! * [`geometry`] — planar rectangles and points used by floorplans and
//!   grid discretisations;
//! * [`rng`] — a small, fully deterministic random number generator
//!   (SplitMix64 seeding + xoshiro256++ core) so every experiment is
//!   reproducible bit-for-bit without pulling thread-local state;
//! * [`series`] — uniformly sampled time series and multi-channel traces;
//! * [`linalg`] — dense vectors, CSR sparse matrices, and the solvers
//!   (preconditioned conjugate gradient, sparse LDLᵀ, multigrid) that
//!   the thermal RC network and the power-delivery-network models
//!   require;
//! * [`interp`] — piecewise-linear interpolation used for regulator
//!   efficiency curves;
//! * [`check`] — hand-rolled property-based testing (composable
//!   generators, automatic shrinking, and a persisted `.case` regression
//!   corpus) backing the repo's physics-invariant oracles;
//! * [`perf`] — wall-clock timers and per-phase accumulators so the
//!   engine can attribute its runtime to solver phases;
//! * [`stats`] — summary statistics, the coefficient of determination
//!   (R²) used to calibrate ThermoGater's ΔT = θ·ΔP predictor, and the
//!   weighted moving average the practical policies use to forecast power;
//! * [`telemetry`] — structured event tracing (spans, counters,
//!   histograms, gauges) with pluggable sinks, a thread-safe metrics
//!   registry, machine-readable run manifests, and streaming trace
//!   analytics ([`telemetry::analyze`]) for run summaries and diffs;
//! * [`error`] — the shared error type.
//!
//! # Examples
//!
//! ```
//! use simkit::units::{Watts, Celsius};
//! use simkit::stats::r_squared;
//!
//! let p = Watts::new(3.5) + Watts::new(1.5);
//! assert_eq!(p, Watts::new(5.0));
//!
//! let observed = [1.0, 2.0, 3.0];
//! let predicted = [1.0, 2.0, 3.0];
//! assert!((r_squared(&observed, &predicted).unwrap() - 1.0).abs() < 1e-12);
//!
//! let t = Celsius::new(80.0);
//! assert_eq!(t.to_kelvin(), 353.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod error;
pub mod geometry;
pub mod interp;
pub mod linalg;
pub mod perf;
pub mod rng;
pub mod series;
pub mod stats;
pub mod telemetry;
pub mod units;

pub use error::{Error, Result};
pub use geometry::{Point, Rect};
pub use interp::PiecewiseLinear;
pub use rng::DeterministicRng;
pub use series::TimeSeries;
pub use units::{Amps, Celsius, Hertz, Joules, Meters, Ohms, Seconds, Volts, Watts};
