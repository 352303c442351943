//! Per-artefact data builders.
//!
//! Every module returns plain data the binaries render; nothing here
//! prints.

pub mod ablations;
pub mod noise_figs;
pub mod powerloss;
pub mod regulator;
pub mod thermal_figs;
