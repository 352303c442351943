//! Integrated voltage-regulator models for the ThermoGater reproduction.
//!
//! This crate supplies the electrical side of distributed on-chip voltage
//! regulation:
//!
//! * [`EfficiencyCurve`] — η vs. output-current characteristics with the
//!   shape of Fig. 1/2/5 of the paper;
//! * [`RegulatorDesign`] — named industrial design points (Intel-FIVR-like
//!   buck, IBM-POWER8-like LDO, switched-capacitor) with peak efficiency,
//!   output power density, and response time;
//! * [`RegulatorBank`] — a parallel network of identical component
//!   regulators inside one Vdd-domain, the object regulator gating acts
//!   on: it computes the number of active regulators required to sustain
//!   peak efficiency (`n_on`), splits load current, and accounts
//!   conversion loss per regulator;
//! * [`GatingState`] — which component regulators are currently on;
//! * [`survey`] — the ISSCC 2015 survey dataset behind Fig. 1;
//! * [`loss`] — conversion-loss helpers and cooling-limit constants for
//!   the Section 2 case study.
//!
//! # Examples
//!
//! ```
//! use vreg::{RegulatorBank, RegulatorDesign};
//! use simkit::units::Amps;
//!
//! // A per-core domain: 9 FIVR-like phases, 1.5 A each at peak efficiency.
//! let bank = RegulatorBank::new(RegulatorDesign::fivr(), 9);
//! assert_eq!(bank.required_active(Amps::new(4.0)), 3);
//! // Gating sustains (near-)peak efficiency at partial load:
//! let eta = bank.efficiency(Amps::new(4.0), 3).unwrap();
//! assert!(eta > 0.88);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod curve;
mod design;
mod gating;
pub mod loss;
pub mod survey;

pub use bank::RegulatorBank;
pub use curve::EfficiencyCurve;
pub use design::{RegulatorDesign, RegulatorTopology};
pub use gating::GatingState;
