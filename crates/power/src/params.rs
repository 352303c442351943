//! Technology parameters (Table 1 of the paper).

use simkit::telemetry::manifest::{ContentHasher, KeyPrefix};
use simkit::units::{Celsius, Hertz, Volts, Watts};

/// Process/technology parameters of the modelled chip.
#[derive(Debug, Clone, PartialEq)]
pub struct TechnologyParams {
    /// Nominal supply voltage.
    pub vdd: Volts,
    /// Clock frequency.
    pub frequency: Hertz,
    /// Thermal design power of the whole chip.
    pub tdp: Watts,
    /// Calibration temperature at which the static share is anchored.
    pub calibration_temperature: Celsius,
    /// Static share of total power at the calibration temperature and
    /// full activity (the paper bounds it at 30 %).
    pub static_share_at_calibration: f64,
    /// Exponential leakage-temperature coefficient per °C. The default
    /// (ln 2 / 20) doubles leakage every 20 °C, typical for 22 nm.
    pub leakage_temp_coeff: f64,
}

impl TechnologyParams {
    /// The Table 1 configuration: 22 nm, 4 GHz, 150 W TDP, Vdd = 1.03 V,
    /// static ≤ 30 % of total at 80 °C.
    pub fn table1() -> Self {
        TechnologyParams {
            vdd: Volts::new(1.03),
            frequency: Hertz::from_ghz(4.0),
            tdp: Watts::new(150.0),
            calibration_temperature: Celsius::new(80.0),
            static_share_at_calibration: 0.30,
            leakage_temp_coeff: std::f64::consts::LN_2 / 20.0,
        }
    }

    /// Folds every field into `hasher` under `prefix`, floats as their
    /// bits. The destructuring is exhaustive, so a field added later
    /// cannot be left out of the content hash.
    pub fn hash_fields(&self, prefix: &KeyPrefix<'_>, hasher: &mut ContentHasher) {
        let TechnologyParams {
            vdd,
            frequency,
            tdp,
            calibration_temperature,
            static_share_at_calibration,
            leakage_temp_coeff,
        } = *self;
        for (name, value) in [
            ("vdd", vdd.get()),
            ("frequency", frequency.get()),
            ("tdp", tdp.get()),
            ("calibration_temperature", calibration_temperature.get()),
            ("static_share_at_calibration", static_share_at_calibration),
            ("leakage_temp_coeff", leakage_temp_coeff),
        ] {
            hasher.field(prefix, name, value);
        }
    }
}

impl Default for TechnologyParams {
    fn default() -> Self {
        TechnologyParams::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let p = TechnologyParams::table1();
        assert!((p.vdd.get() - 1.03).abs() < 1e-12);
        assert!((p.frequency.get() - 4e9).abs() < 1.0);
        assert!((p.tdp.get() - 150.0).abs() < 1e-12);
        assert!((p.static_share_at_calibration - 0.30).abs() < 1e-12);
        assert!((p.calibration_temperature.get() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn leakage_doubles_every_20_degrees() {
        let p = TechnologyParams::table1();
        let ratio = (p.leakage_temp_coeff * 20.0).exp();
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_table1() {
        assert_eq!(TechnologyParams::default(), TechnologyParams::table1());
    }
}
