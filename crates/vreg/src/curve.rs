//! Regulator conversion-efficiency curves.

use simkit::telemetry::manifest::{ContentHasher, KeyPrefix};
use simkit::units::Amps;
use simkit::{Error, PiecewiseLinear, Result};

/// The canonical normalized shape of an integrated regulator's η vs.
/// I_out characteristic, as a fraction of peak efficiency over the load
/// ratio `I_out / I_peak`.
///
/// The shape follows the curves of Fig. 1/2/5 of the paper (and the
/// underlying Intel FIVR disclosure): efficiency climbs steeply out of
/// light load, flattens as it approaches the design point, and droops
/// gently in overload.
const NORMALIZED_SHAPE: &[(f64, f64)] = &[
    (0.000, 0.30),
    (0.010, 0.46),
    (0.025, 0.56),
    (0.050, 0.67),
    (0.100, 0.78),
    (0.200, 0.872),
    (0.300, 0.920),
    (0.400, 0.950),
    (0.550, 0.975),
    (0.700, 0.990),
    (0.850, 0.998),
    (1.000, 1.000),
    (1.150, 0.995),
    (1.300, 0.983),
    (1.500, 0.960),
];

/// Conversion efficiency η as a function of the regulator's output load
/// current.
///
/// # Examples
///
/// ```
/// use vreg::EfficiencyCurve;
/// use simkit::units::Amps;
///
/// // A single FIVR-like phase: 90 % peak at 1.5 A.
/// let curve = EfficiencyCurve::scaled_reference(0.90, Amps::new(1.5))?;
/// assert!((curve.peak_efficiency() - 0.90).abs() < 1e-12);
/// assert!((curve.peak_current().get() - 1.5).abs() < 1e-12);
/// // Light load hurts efficiency:
/// assert!(curve.eval(Amps::new(0.1)) < 0.85);
/// # Ok::<(), simkit::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyCurve {
    eta: PiecewiseLinear,
    peak_current: Amps,
    peak_efficiency: f64,
}

impl EfficiencyCurve {
    /// Builds a curve from explicit `(I_out in amps, η in [0, 1])` points.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] when any η is outside `(0, 1]` or the
    ///   current breakpoints are not strictly increasing;
    /// * [`Error::EmptyDomain`] when no points are given.
    pub fn from_points(points: Vec<(f64, f64)>) -> Result<Self> {
        if points
            .iter()
            .any(|&(_, eta)| !(0.0..=1.0).contains(&eta) || eta == 0.0)
        {
            return Err(Error::invalid_argument("η must lie in (0, 1]"));
        }
        let eta = PiecewiseLinear::new(points)?;
        let (peak_i, peak_eta) = eta.argmax();
        Ok(EfficiencyCurve {
            eta,
            peak_current: Amps::new(peak_i),
            peak_efficiency: peak_eta,
        })
    }

    /// Builds the canonical reference shape scaled to reach
    /// `peak_efficiency` at `peak_current`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when `peak_efficiency` is outside
    /// `(0, 1]` or `peak_current` is not positive.
    pub fn scaled_reference(peak_efficiency: f64, peak_current: Amps) -> Result<Self> {
        if !(0.0..=1.0).contains(&peak_efficiency) || peak_efficiency == 0.0 {
            return Err(Error::invalid_argument("peak efficiency must be in (0, 1]"));
        }
        if peak_current.get() <= 0.0 {
            return Err(Error::invalid_argument("peak current must be positive"));
        }
        let points = NORMALIZED_SHAPE
            .iter()
            .map(|&(ratio, eta_frac)| (ratio * peak_current.get(), eta_frac * peak_efficiency))
            .collect();
        EfficiencyCurve::from_points(points)
    }

    /// Efficiency at the given load current (clamped at the table edges).
    pub fn eval(&self, i_out: Amps) -> f64 {
        self.eta.eval(i_out.get())
    }

    /// Load current at which peak efficiency is reached.
    pub fn peak_current(&self) -> Amps {
        self.peak_current
    }

    /// The peak efficiency η_peak.
    pub fn peak_efficiency(&self) -> f64 {
        self.peak_efficiency
    }

    /// The supported current domain `[min, max]` of the underlying table.
    pub fn current_domain(&self) -> (Amps, Amps) {
        let (lo, hi) = self.eta.domain();
        (Amps::new(lo), Amps::new(hi))
    }

    /// The breakpoints of the underlying piecewise-linear table as
    /// `(amps, η)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        self.eta.points()
    }

    /// Folds the point count and every `(amps, η)` point into `hasher`
    /// under `prefix`, as bits. The peak follows from the points, so it
    /// adds nothing.
    pub fn hash_fields(&self, prefix: &KeyPrefix<'_>, hasher: &mut ContentHasher) {
        let EfficiencyCurve {
            eta,
            peak_current: _,
            peak_efficiency: _,
        } = self;
        hasher.field(prefix, "points", eta.points().len());
        for &(amps, efficiency) in eta.points() {
            hasher.field(prefix, "amps", amps);
            hasher.field(prefix, "eta", efficiency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fivr_phase() -> EfficiencyCurve {
        EfficiencyCurve::scaled_reference(0.90, Amps::new(1.5)).unwrap()
    }

    #[test]
    fn peak_is_where_it_should_be() {
        let c = fivr_phase();
        assert!((c.peak_efficiency() - 0.90).abs() < 1e-12);
        assert!((c.peak_current().get() - 1.5).abs() < 1e-12);
        assert!((c.eval(Amps::new(1.5)) - 0.90).abs() < 1e-12);
    }

    #[test]
    fn efficiency_monotone_up_to_peak() {
        let c = fivr_phase();
        let mut prev = 0.0;
        for k in 1..=30 {
            let i = Amps::new(1.5 * k as f64 / 30.0);
            let eta = c.eval(i);
            assert!(eta >= prev, "η not monotone at {i}");
            prev = eta;
        }
    }

    #[test]
    fn efficiency_droops_past_peak() {
        let c = fivr_phase();
        assert!(c.eval(Amps::new(2.0)) < c.peak_efficiency());
        assert!(c.eval(Amps::new(2.25)) < c.eval(Amps::new(2.0)));
    }

    #[test]
    fn light_load_is_inefficient() {
        let c = fivr_phase();
        // At ~1 % load the curve sits below half of peak + a bit: the Fig 1
        // designs report 40-60 % there.
        let eta = c.eval(Amps::new(0.015));
        assert!(eta < 0.50, "η at 1 % load was {eta}");
        assert!(eta > 0.30);
    }

    #[test]
    fn clamps_at_zero_current() {
        let c = fivr_phase();
        assert!((c.eval(Amps::ZERO) - 0.30 * 0.90).abs() < 1e-12);
    }

    #[test]
    fn from_points_validates_eta_range() {
        assert!(EfficiencyCurve::from_points(vec![(0.0, 0.5), (1.0, 1.2)]).is_err());
        assert!(EfficiencyCurve::from_points(vec![(0.0, 0.0)]).is_err());
        assert!(EfficiencyCurve::from_points(vec![]).is_err());
    }

    #[test]
    fn scaled_reference_validates() {
        assert!(EfficiencyCurve::scaled_reference(0.0, Amps::new(1.0)).is_err());
        assert!(EfficiencyCurve::scaled_reference(1.1, Amps::new(1.0)).is_err());
        assert!(EfficiencyCurve::scaled_reference(0.9, Amps::ZERO).is_err());
    }

    #[test]
    fn custom_curve_peak_detection() {
        let c = EfficiencyCurve::from_points(vec![(0.0, 0.4), (2.0, 0.85), (4.0, 0.6)]).unwrap();
        assert_eq!(c.peak_current(), Amps::new(2.0));
        assert!((c.peak_efficiency() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn domain_is_scaled() {
        let c = fivr_phase();
        let (lo, hi) = c.current_domain();
        assert_eq!(lo, Amps::ZERO);
        assert!((hi.get() - 2.25).abs() < 1e-12);
    }
}
