//! Thermal model configuration.

use simkit::linalg::SolverBackend;
use simkit::telemetry::manifest::{ContentHasher, KeyPrefix};
use simkit::units::Celsius;

/// Physical parameters of the die and cooling package.
///
/// Defaults follow HotSpot's stock package (which the paper adapts,
/// mimicking POWER7+): a thinned silicon die on a copper spreader and an
/// air-cooled heat sink at 45 °C ambient.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageParams {
    /// Silicon thermal conductivity, W/(m·K).
    pub k_silicon: f64,
    /// Silicon volumetric heat capacity, J/(m³·K).
    pub c_silicon: f64,
    /// Die thickness, m.
    pub t_silicon: f64,
    /// Thermal-interface-material conductivity, W/(m·K).
    pub k_tim: f64,
    /// TIM thickness, m.
    pub t_tim: f64,
    /// Spreader (copper) conductivity, W/(m·K).
    pub k_spreader: f64,
    /// Spreader volumetric heat capacity, J/(m³·K).
    pub c_spreader: f64,
    /// Spreader thickness, m.
    pub t_spreader: f64,
    /// Total spreader-to-sink base resistance, K/W (distributed evenly
    /// over the grid cells).
    pub sink_base_resistance: f64,
    /// Sink-to-ambient convection resistance, K/W.
    pub convection_resistance: f64,
    /// Heat-sink thermal capacitance, J/K.
    pub sink_capacitance: f64,
    /// Ambient temperature.
    pub ambient: Celsius,
}

impl PackageParams {
    /// HotSpot-like default air-cooled package.
    pub fn hotspot_default() -> Self {
        PackageParams {
            k_silicon: 130.0,
            c_silicon: 1.75e6,
            t_silicon: 0.08e-3,
            k_tim: 4.0,
            t_tim: 20e-6,
            k_spreader: 400.0,
            c_spreader: 3.55e6,
            t_spreader: 1.0e-3,
            sink_base_resistance: 0.02,
            convection_resistance: 0.12,
            sink_capacitance: 140.0,
            ambient: Celsius::new(45.0),
        }
    }

    /// A better (lower-resistance) cooling solution, for the "our
    /// observations hold under better cooling" discussion in Section 5.
    pub fn improved_cooling() -> Self {
        PackageParams {
            sink_base_resistance: 0.01,
            convection_resistance: 0.06,
            ..PackageParams::hotspot_default()
        }
    }

    /// Folds every parameter into `hasher` under `prefix`, floats as
    /// their bits. The destructuring is exhaustive, so a field added
    /// later cannot be left out of the content hash.
    pub fn hash_fields(&self, prefix: &KeyPrefix<'_>, hasher: &mut ContentHasher) {
        let PackageParams {
            k_silicon,
            c_silicon,
            t_silicon,
            k_tim,
            t_tim,
            k_spreader,
            c_spreader,
            t_spreader,
            sink_base_resistance,
            convection_resistance,
            sink_capacitance,
            ambient,
        } = *self;
        for (name, value) in [
            ("k_silicon", k_silicon),
            ("c_silicon", c_silicon),
            ("t_silicon", t_silicon),
            ("k_tim", k_tim),
            ("t_tim", t_tim),
            ("k_spreader", k_spreader),
            ("c_spreader", c_spreader),
            ("t_spreader", t_spreader),
            ("sink_base_resistance", sink_base_resistance),
            ("convection_resistance", convection_resistance),
            ("sink_capacitance", sink_capacitance),
            ("ambient_c", ambient.get()),
        ] {
            hasher.field(prefix, name, value);
        }
    }
}

impl Default for PackageParams {
    fn default() -> Self {
        PackageParams::hotspot_default()
    }
}

/// Grid resolution and regulator-heating parameters of the thermal model.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Grid cells along x.
    pub nx: usize,
    /// Grid cells along y.
    pub ny: usize,
    /// Cooling package.
    pub package: PackageParams,
    /// Spreading (self-heating) resistance of one component regulator
    /// above its silicon cell, K/W.
    ///
    /// The bare analytic value for a 0.2 mm × 0.2 mm source on bulk
    /// silicon is `≈ 1/(2·k_si·a) ≈ 19 K/W`, but the regulator's power
    /// and metal stack spread its heat over most of the grid cell, and
    /// HotSpot-class grid models (which the paper uses) resolve
    /// regulators at cell granularity. The default therefore keeps only
    /// a small residual sub-cell bump; raise it to study
    /// self-heating-dominated designs.
    pub vr_self_resistance: f64,
    /// Solver family for the steady-state system.
    ///
    /// Constructors default this to [`SolverBackend::env_default`]
    /// (`SIMKIT_SOLVER` override, else [`SolverBackend::Auto`]): under
    /// `Auto`, steady solves take multigrid-CG at 16 000 nodes and more
    /// (`MGCG_MIN_NODES`) and Jacobi-CG below. `Direct`, `Cg` and
    /// `Mgcg` pin one steady path. The solver (factor or hierarchy) is
    /// built once per [`ThermalModel`](crate::ThermalModel), on its
    /// first steady solve. Transient steppers use warm-started
    /// Jacobi-CG under every backend: the `C/Δt`-dominated system makes
    /// an iterative step cheaper than a triangular solve (BENCH.md).
    pub solver: SolverBackend,
}

impl ThermalConfig {
    /// Production resolution: 64 × 64 grid (≈ 0.33 mm cells on the
    /// reference die).
    pub fn standard() -> Self {
        ThermalConfig {
            nx: 64,
            ny: 64,
            package: PackageParams::default(),
            vr_self_resistance: 3.0,
            solver: SolverBackend::env_default(),
        }
    }

    /// Coarse 32 × 32 grid for tests and quick exploration.
    pub fn coarse() -> Self {
        ThermalConfig {
            nx: 32,
            ny: 32,
            ..ThermalConfig::standard()
        }
    }

    /// Folds every field (grid, solver, package) into `hasher` under
    /// `prefix`; see [`PackageParams::hash_fields`].
    pub fn hash_fields(&self, prefix: &KeyPrefix<'_>, hasher: &mut ContentHasher) {
        let ThermalConfig {
            nx,
            ny,
            package,
            vr_self_resistance,
            solver,
        } = self;
        hasher.field(prefix, "nx", *nx);
        hasher.field(prefix, "ny", *ny);
        hasher.field(prefix, "vr_self_resistance", *vr_self_resistance);
        hasher.field(prefix, "solver", solver.name());
        package.hash_fields(&prefix.nest("package."), hasher);
    }
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = PackageParams::default();
        assert!(p.k_silicon > 100.0 && p.k_silicon < 160.0);
        assert!(p.k_spreader > p.k_silicon);
        assert!(p.ambient.get() == 45.0);
        assert!(p.convection_resistance > 0.0);
    }

    #[test]
    fn improved_cooling_is_actually_better() {
        let base = PackageParams::hotspot_default();
        let better = PackageParams::improved_cooling();
        assert!(better.convection_resistance < base.convection_resistance);
        assert!(better.sink_base_resistance < base.sink_base_resistance);
    }

    #[test]
    fn standard_config_resolution() {
        let c = ThermalConfig::standard();
        assert_eq!((c.nx, c.ny), (64, 64));
        let coarse = ThermalConfig::coarse();
        assert_eq!((coarse.nx, coarse.ny), (32, 32));
        assert_eq!(coarse.package, c.package);
    }

    #[test]
    fn vr_self_resistance_is_a_residual_bump() {
        // The analytic point-source value is ≈ 19 K/W, but the grid cell
        // resolves most of the spreading; the default keeps a small
        // positive residual well below the analytic bound.
        let c = ThermalConfig::default();
        assert!(c.vr_self_resistance > 0.0 && c.vr_self_resistance < 19.0);
    }
}
