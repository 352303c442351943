//! PDN model configuration.

use simkit::linalg::SolverBackend;
use simkit::units::Volts;

/// Electrical parameters of the on-chip power-delivery network.
///
/// Defaults are calibrated so that the reference chip under the `all-on`
/// baseline exhibits a maximum voltage noise of ≈ 13 % of nominal Vdd
/// (the paper's Fig. 11 all-on level), split between static IR drop and
/// transient di/dt noise.
#[derive(Debug, Clone, PartialEq)]
pub struct PdnConfig {
    /// Nominal supply voltage.
    pub vdd: Volts,
    /// Local-grid cell edge length, mm.
    pub cell_mm: f64,
    /// Effective sheet resistance of the local power grid, Ω per square.
    pub r_sheet_ohm: f64,
    /// Internal (output) resistance of one active component regulator, Ω.
    pub r_vr_ohm: f64,
    /// Lumped global-grid resistance from the C4 pads to regulator
    /// inputs, Ω (multiplies total chip current).
    pub r_global_ohm: f64,
    /// Characteristic transient impedance of a domain with
    /// [`PdnConfig::z_reference_active`] regulators active, Ω (scales the
    /// di/dt kernel).
    pub z_transient_ohm: f64,
    /// Active-regulator count at which `z_transient_ohm` is calibrated;
    /// the effective impedance scales as `sqrt(reference / n_active)` —
    /// each active regulator adds output conductance in parallel, while
    /// bypassed regulators' decoupling stays on the rail.
    pub z_reference_active: f64,
    /// Ring-down period of the transient response, cycles.
    pub ring_period_cycles: f64,
    /// Passive decay constant of the transient response, cycles (before
    /// the regulator control loop reacts).
    pub passive_decay_cycles: f64,
    /// Solver family for the per-domain IR-drop systems.
    ///
    /// Constructors default this to [`SolverBackend::env_default`]
    /// (`SIMKIT_SOLVER` override, else [`SolverBackend::Auto`]). `Auto`
    /// resolves to `Direct`. Each domain keeps one solver (factor,
    /// hierarchy or Jacobi diagonal), built on its first solve and
    /// refreshed only when its active-regulator set changes; `Cg` and
    /// `Mgcg` solve iteratively, warm-started while the set is unchanged.
    pub solver: SolverBackend,
}

impl PdnConfig {
    /// The calibrated reference configuration.
    pub fn reference() -> Self {
        PdnConfig {
            vdd: Volts::new(1.03),
            cell_mm: 0.25,
            r_sheet_ohm: 0.008,
            r_vr_ohm: 0.003,
            r_global_ohm: 0.0001,
            z_transient_ohm: 0.034,
            z_reference_active: 9.0,
            ring_period_cycles: 40.0,
            passive_decay_cycles: 90.0,
            solver: SolverBackend::env_default(),
        }
    }

    /// Appends every field as canonical `(<prefix><name>, value)` pairs
    /// for content hashing (floats render with `{:e}`).
    pub fn config_fields(&self, prefix: &str, out: &mut Vec<(String, String)>) {
        for (name, value) in [
            ("vdd", self.vdd.get()),
            ("cell_mm", self.cell_mm),
            ("r_sheet_ohm", self.r_sheet_ohm),
            ("r_vr_ohm", self.r_vr_ohm),
            ("r_global_ohm", self.r_global_ohm),
            ("z_transient_ohm", self.z_transient_ohm),
            ("z_reference_active", self.z_reference_active),
            ("ring_period_cycles", self.ring_period_cycles),
            ("passive_decay_cycles", self.passive_decay_cycles),
        ] {
            out.push((format!("{prefix}{name}"), format!("{value:e}")));
        }
        out.push((format!("{prefix}solver"), self.solver.name().to_string()));
    }
}

impl Default for PdnConfig {
    fn default() -> Self {
        PdnConfig::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_are_positive() {
        let c = PdnConfig::reference();
        assert!(c.vdd.get() > 0.0);
        assert!(c.cell_mm > 0.0);
        assert!(c.r_sheet_ohm > 0.0);
        assert!(c.r_vr_ohm > 0.0);
        assert!(c.r_global_ohm > 0.0);
        assert!(c.z_transient_ohm > 0.0);
        assert!(c.z_reference_active >= 1.0);
        assert!(c.ring_period_cycles > 1.0);
        assert!(c.passive_decay_cycles > 1.0);
    }

    #[test]
    fn default_is_reference() {
        assert_eq!(PdnConfig::default(), PdnConfig::reference());
    }
}
