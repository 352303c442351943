//! HotSpot-style compact thermal simulation for the ThermoGater
//! reproduction.
//!
//! The die is discretised into an `nx × ny` grid of silicon cells stacked
//! on a matching grid of heat-spreader cells and a lumped heat-sink node
//! with a convection path to ambient — the classic equivalent-RC-circuit
//! compact thermal model (Huang et al., Skadron et al.) the paper uses via
//! HotSpot 6.0, with the package defaults standing in for the POWER7+
//! package HotSpot ships:
//!
//! ```text
//!   silicon grid   — lateral conduction + heat injection (blocks, VRs)
//!        │ (½Si + TIM + ½Cu per cell)
//!   spreader grid  — strong lateral conduction (copper)
//!        │ (½Cu + sink base, per cell)
//!   sink node      — large thermal mass
//!        │ (convection)
//!   ambient        — fixed temperature
//! ```
//!
//! Steady state solves `G·T = P` by conjugate gradient; transients use
//! backward Euler (`(C/Δt + G)·T' = C/Δt·T + P`), each step a
//! Jacobi-CG solve warm-started from the previous one, unconditionally
//! stable at any step size. CG applies `G + diag(d)` as a matrix-free
//! stencil ([`ThermalOperator`]); the assembled CSR `G` is kept only for
//! the multigrid hierarchy and the direct factor.
//!
//! Component voltage regulators are much smaller than a grid cell, so
//! their self-heating above the local silicon temperature is modelled by
//! an analytic spreading resistance on top of the cell temperature — the
//! mechanism that makes a 0.04 mm² regulator a hotspot.
//!
//! # Examples
//!
//! ```
//! use thermal::{ThermalConfig, ThermalModel, PowerMap};
//! use floorplan::reference::power8_like;
//! use simkit::units::Watts;
//!
//! let chip = power8_like();
//! let model = ThermalModel::new(&chip, ThermalConfig::coarse());
//! let mut power = PowerMap::new(&model);
//! for block in chip.blocks() {
//!     power.add_block(block.id(), Watts::new(100.0 / chip.blocks().len() as f64))?;
//! }
//! let state = model.steady_state(&power)?;
//! assert!(state.max_silicon().get() > state.ambient().get());
//! # Ok::<(), simkit::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block_model;
mod config;
mod map;
mod model;
mod operator;
mod state;

pub use block_model::BlockThermalModel;
pub use config::{PackageParams, ThermalConfig};
pub use map::PowerMap;
pub use model::{FeedbackStats, SteadyScratch, ThermalModel, TransientStepper};
pub use operator::ThermalOperator;
pub use state::ThermalState;
