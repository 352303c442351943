//! **ThermoGater** — an architectural governor for thermally-aware
//! on-chip voltage-regulator gating.
//!
//! Reproduction of *ThermoGater: Thermally-Aware On-Chip Voltage
//! Regulation* (Khatamifard et al., ISCA 2017). Distributed on-chip
//! regulators dissipate their conversion loss as heat in a tiny
//! footprint; regulator gating keeps only as many component regulators on
//! as needed to sustain peak conversion efficiency, and ThermoGater picks
//! *which* ones — balancing the thermal profile against the voltage-noise
//! cost of supplying blocks from farther away.
//!
//! The crate provides:
//!
//! * [`PolicyKind`] / [`select_gating`] — the paper's eight gating
//!   policies (`all-on`, `off-chip`, `Naïve`, `OracT`, `OracV`,
//!   `OracVT`, `PracT`, `PracVT`);
//! * [`ThermalPredictor`] — the practical policies' linear
//!   ΔT = θ·ΔP per-regulator temperature model with R² calibration
//!   (Eqns. 2–3);
//! * [`DomainPowerForecaster`] — the weighted-moving-average power
//!   forecast over the last three decision points;
//! * [`ThermalSensorArray`] — delayed thermal sensor readings
//!   (100 µs-class sensor + aggregation latency);
//! * [`SimulationEngine`] — the closed-loop co-simulation
//!   (workload → power → regulators → thermal → noise → governor) that
//!   every experiment drives — single-program or multiprogrammed
//!   (`run_spec`, a replay of the synthetic trace it generates), or
//!   replaying external traces (`run_trace`) — and
//!   [`SimulationResult`] with the metrics the paper reports (T_max,
//!   thermal gradient, conversion-loss savings, voltage noise,
//!   emergency residency);
//! * [`AgingModel`] — Arrhenius wear assessment over per-regulator
//!   temperature/utilisation histories (the Section 7 discussion).
//!
//! # Examples
//!
//! ```no_run
//! use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
//! use workload::Benchmark;
//! use floorplan::reference::power8_like;
//!
//! let chip = power8_like();
//! let engine = SimulationEngine::new(&chip, EngineConfig::fast());
//! let result = engine.run(Benchmark::LuNcb, PolicyKind::PracVT)?;
//! println!(
//!     "T_max {:.1}, gradient {:.1} °C, noise {:.1} %",
//!     result.max_temperature().get(),
//!     result.max_gradient(),
//!     result.max_noise_percent().unwrap_or(0.0),
//! );
//! # Ok::<(), simkit::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aging;
mod engine;
mod frames;
mod policy;
mod predictor;
mod result;
mod sensor;
mod windows;

pub use aging::{AgingModel, AgingReport};
pub use engine::{EngineConfig, SimulationEngine};
pub use frames::FrameRecorder;
pub use policy::{gating_from_rankings, rank_regulators, select_gating, PolicyInputs, PolicyKind};
pub use predictor::{DomainPowerForecaster, ThermalPredictor};
pub use result::{DecisionRecord, SimulationResult};
pub use sensor::ThermalSensorArray;
