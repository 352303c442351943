//! Named industrial regulator design points.

use crate::curve::EfficiencyCurve;
use simkit::telemetry::manifest::{ContentHasher, KeyPrefix};
use simkit::units::{Amps, Seconds};

/// Circuit topology of an integrated regulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RegulatorTopology {
    /// Inductor-based buck converter (Intel FIVR keeps the inductors on
    /// package; regulation itself is on-chip).
    Buck,
    /// Switched-capacitor converter.
    SwitchedCapacitor,
    /// Linear low-dropout regulator (IBM POWER8 microregulators).
    LowDropout,
}

impl RegulatorTopology {
    /// Stable lowercase tag (content hashing, telemetry field values).
    pub fn tag(self) -> &'static str {
        match self {
            RegulatorTopology::Buck => "buck",
            RegulatorTopology::SwitchedCapacitor => "sc",
            RegulatorTopology::LowDropout => "ldo",
        }
    }
}

/// One component regulator design: the electrical parameters ThermoGater
/// and the thermal/noise models need.
///
/// The two headline design points of the paper are available as
/// constructors: [`RegulatorDesign::fivr`] (Intel-Haswell-like buck,
/// η_peak = 90 %, 33.6 W/mm²) and [`RegulatorDesign::power8_ldo`]
/// (IBM-POWER8-like digital LDO, η_peak = 90.5 %, 34.5 W/mm²). Per
/// Section 6.4 both are calibrated to the *same* efficiency-curve shape;
/// they differ in power density and response time (the LDO responds
/// faster, which lowers transient voltage noise — Fig. 15).
#[derive(Debug, Clone, PartialEq)]
pub struct RegulatorDesign {
    name: String,
    topology: RegulatorTopology,
    curve: EfficiencyCurve,
    pout_per_area_w_mm2: f64,
    response_time: Seconds,
}

impl RegulatorDesign {
    /// Creates a custom design.
    ///
    /// `pout_per_area_w_mm2` is the output power density at full load;
    /// `response_time` is the control-loop latency to a load transient.
    pub fn new(
        name: impl Into<String>,
        topology: RegulatorTopology,
        curve: EfficiencyCurve,
        pout_per_area_w_mm2: f64,
        response_time: Seconds,
    ) -> Self {
        RegulatorDesign {
            name: name.into(),
            topology,
            curve,
            pout_per_area_w_mm2,
            response_time,
        }
    }

    /// Intel-Haswell-FIVR-like multi-phase buck design point: one phase
    /// delivers ~1.5 A at η_peak = 90 %; output power density
    /// 33.6 W/mm² (Kurd et al., ISSCC'14).
    pub fn fivr() -> Self {
        RegulatorDesign {
            name: "FIVR".to_string(),
            topology: RegulatorTopology::Buck,
            curve: EfficiencyCurve::scaled_reference(0.90, Amps::new(1.5))
                .expect("static parameters"),
            pout_per_area_w_mm2: 33.6,
            response_time: Seconds::from_nanos(15.0),
        }
    }

    /// IBM-POWER8-like digital LDO microregulator design point:
    /// η_peak = 90.5 %, 34.5 W/mm² (Toprak-Deniz et al., ISSCC'14),
    /// calibrated to the same curve shape as FIVR per Section 6.4 of the
    /// paper, with a sub-nanosecond response.
    pub fn power8_ldo() -> Self {
        RegulatorDesign {
            name: "POWER8-LDO".to_string(),
            topology: RegulatorTopology::LowDropout,
            curve: EfficiencyCurve::scaled_reference(0.905, Amps::new(1.5))
                .expect("static parameters"),
            pout_per_area_w_mm2: 34.5,
            response_time: Seconds::from_nanos(0.8),
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Circuit topology.
    pub fn topology(&self) -> RegulatorTopology {
        self.topology
    }

    /// Per-component-regulator efficiency curve.
    pub fn curve(&self) -> &EfficiencyCurve {
        &self.curve
    }

    /// Peak conversion efficiency η_peak.
    pub fn peak_efficiency(&self) -> f64 {
        self.curve.peak_efficiency()
    }

    /// Load current at which one component regulator reaches η_peak.
    pub fn peak_current(&self) -> Amps {
        self.curve.peak_current()
    }

    /// Output power density at full load, in W/mm².
    pub fn pout_per_area_w_mm2(&self) -> f64 {
        self.pout_per_area_w_mm2
    }

    /// Control-loop response time to a load transient.
    pub fn response_time(&self) -> Seconds {
        self.response_time
    }

    /// Folds every parameter, the efficiency curve's points included,
    /// into `hasher` under `prefix`: floats as their bits, the name and
    /// the topology tag as text. The destructuring is exhaustive, so a
    /// field added later cannot be left out of the content hash.
    pub fn hash_fields(&self, prefix: &KeyPrefix<'_>, hasher: &mut ContentHasher) {
        let RegulatorDesign {
            name,
            topology,
            curve,
            pout_per_area_w_mm2,
            response_time,
        } = self;
        hasher.field(prefix, "name", name.as_str());
        hasher.field(prefix, "topology", topology.tag());
        hasher.field(prefix, "pout_per_area_w_mm2", *pout_per_area_w_mm2);
        hasher.field(prefix, "response_time", response_time.get());
        curve.hash_fields(&prefix.nest("curve."), hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fivr_matches_paper_parameters() {
        let d = RegulatorDesign::fivr();
        assert_eq!(d.topology(), RegulatorTopology::Buck);
        assert!((d.peak_efficiency() - 0.90).abs() < 1e-12);
        assert!((d.pout_per_area_w_mm2() - 33.6).abs() < 1e-12);
    }

    #[test]
    fn ldo_matches_paper_parameters() {
        let d = RegulatorDesign::power8_ldo();
        assert_eq!(d.topology(), RegulatorTopology::LowDropout);
        assert!((d.peak_efficiency() - 0.905).abs() < 1e-12);
        assert!((d.pout_per_area_w_mm2() - 34.5).abs() < 1e-12);
    }

    #[test]
    fn ldo_responds_faster_than_fivr() {
        assert!(
            RegulatorDesign::power8_ldo().response_time() < RegulatorDesign::fivr().response_time()
        );
    }

    #[test]
    fn designs_share_curve_shape_per_section_6_4() {
        // The LDO curve is the same normalized shape: its efficiency at
        // half the peak current relative to peak matches FIVR's.
        let fivr = RegulatorDesign::fivr();
        let ldo = RegulatorDesign::power8_ldo();
        let r_fivr = fivr.curve().eval(Amps::new(0.75)) / fivr.peak_efficiency();
        let r_ldo = ldo.curve().eval(Amps::new(0.75)) / ldo.peak_efficiency();
        assert!((r_fivr - r_ldo).abs() < 1e-9);
    }

    #[test]
    fn custom_design_roundtrip() {
        let curve = EfficiencyCurve::scaled_reference(0.8, Amps::new(2.0)).unwrap();
        let d = RegulatorDesign::new(
            "test",
            RegulatorTopology::SwitchedCapacitor,
            curve,
            10.0,
            Seconds::from_nanos(3.0),
        );
        assert_eq!(d.name(), "test");
        assert_eq!(d.peak_current(), Amps::new(2.0));
    }
}
