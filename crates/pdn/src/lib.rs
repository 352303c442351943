//! VoltSpot-style power-delivery-network modelling for the ThermoGater
//! reproduction.
//!
//! The paper extends VoltSpot to quantify how thermally-aware regulator
//! gating affects voltage noise: gating the regulator closest to a hot
//! logic block forces its current through longer grid paths (higher IR
//! drop) and weakens the local transient response. This crate models both
//! effects:
//!
//! * [`PdnModel`] — per-Vdd-domain nodal DC grids. Each domain's local
//!   power grid is discretised into cells connected by rail resistances;
//!   **active** regulators provide low-impedance paths to the regulated
//!   supply, blocks inject their load currents, and a conjugate-gradient
//!   solve yields the static IR-drop map. A lumped global-grid term
//!   (C4 pads → regulator inputs) adds the chip-wide component.
//! * [`transient`] — cycle-resolution di/dt noise over sampled 2 K-cycle
//!   windows (the paper's VoltSpot sampling methodology), via an
//!   underdamped impulse-response kernel whose magnitude shrinks with the
//!   number of active regulators and with regulator response speed (the
//!   LDO-vs-FIVR distinction of Fig. 15). The kernel's gating dependence
//!   is a single scale, so each window is convolved once into a
//!   gating-independent [`transient::DidtResponse`].
//! * [`NoiseAnalyzer`] — combines both into the per-domain maximum
//!   voltage-noise percentages reported in Figs. 11/14/15.
//! * [`EmergencyDetector`] / [`EmergencyPredictor`] — the 10 %-of-Vdd
//!   voltage-emergency definition of Section 6.2.4 and the ~90 %-accurate
//!   Reddi-style predictor PracVT deploys.
//! * [`placement`] — the "Deep Optimization"-like iterative regulator
//!   placement of Section 5.
//!
//! # Examples
//!
//! ```
//! use pdn::{PdnConfig, PdnModel};
//! use floorplan::reference::power8_like;
//! use vreg::GatingState;
//! use simkit::units::Watts;
//!
//! let chip = power8_like();
//! let model = PdnModel::new(&chip, PdnConfig::default());
//! let powers = vec![Watts::new(1.5); chip.blocks().len()];
//! let all_on = GatingState::all_on(chip.vr_sites().len());
//! let report = model.ir_drop(&all_on, &powers)?;
//! assert!(report.chip_max_fraction() > 0.0);
//! # Ok::<(), simkit::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod emergency;
mod grid;
mod noise;
pub mod placement;
pub mod transient;

pub use config::PdnConfig;
pub use emergency::{EmergencyDetector, EmergencyPredictor};
pub use grid::{IrReport, PdnModel, IR_SITES};
pub use noise::{NoiseAnalyzer, NoiseReport, WindowInputs};
