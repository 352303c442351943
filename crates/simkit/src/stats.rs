//! Statistics used across the workspace.
//!
//! Includes the coefficient of determination (R²) the paper uses to
//! calibrate ThermoGater's linear ΔT = θ·ΔP temperature predictor
//! (Eqn. 3), the weighted moving average its practical policies use to
//! forecast power demand, and generic summary helpers.

use crate::error::{Error, Result};

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population variance; `None` for an empty slice.
pub fn variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64)
}

/// Population standard deviation; `None` for an empty slice.
pub fn std_dev(values: &[f64]) -> Option<f64> {
    variance(values).map(f64::sqrt)
}

/// Maximum of a slice; `None` when empty. NaN entries are ignored.
pub fn max(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
}

/// Minimum of a slice; `None` when empty. NaN entries are ignored.
pub fn min(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.min(v))))
}

/// Linear-interpolated percentile (`p` in `[0, 100]`).
///
/// Non-finite values (NaN, ±∞) are filtered out before ranking — trace
/// analyzers feed this arbitrary recorded data, so it must never panic.
/// Returns `None` when the slice is empty or holds no finite value.
///
/// # Panics
///
/// Panics in debug builds when `p` is outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    debug_assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Coefficient of determination between observations and predictions —
/// Eqn. 3 of the paper:
///
/// ```text
/// R² = 1 − Σ (obs_i − pred_i)² / Σ (obs_i − mean(obs))²
/// ```
///
/// A perfect prediction yields 1.0. The paper calibrates the per-regulator
/// θ values so this stays around 0.99.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] when the slices differ in length;
/// * [`Error::InvalidArgument`] when fewer than two observations are given
///   or the observations have zero variance (R² undefined).
pub fn r_squared(observed: &[f64], predicted: &[f64]) -> Result<f64> {
    if observed.len() != predicted.len() {
        return Err(Error::DimensionMismatch {
            expected: observed.len(),
            actual: predicted.len(),
        });
    }
    if observed.len() < 2 {
        return Err(Error::invalid_argument(
            "R² needs at least two observations",
        ));
    }
    let obs_mean = mean(observed).expect("non-empty");
    let ss_tot: f64 = observed.iter().map(|o| (o - obs_mean).powi(2)).sum();
    if ss_tot == 0.0 {
        return Err(Error::invalid_argument(
            "observations have zero variance; R² undefined",
        ));
    }
    let ss_res: f64 = observed
        .iter()
        .zip(predicted)
        .map(|(o, p)| (o - p).powi(2))
        .sum();
    Ok(1.0 - ss_res / ss_tot)
}

/// Pearson correlation coefficient of two equally long series: their
/// covariance over the product of their standard deviations, in
/// `[-1, 1]`.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] when the slices differ in length;
/// * [`Error::InvalidArgument`] when fewer than two observations are given
///   or either series has zero variance (the coefficient is undefined).
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(Error::DimensionMismatch {
            expected: a.len(),
            actual: b.len(),
        });
    }
    if a.len() < 2 {
        return Err(Error::invalid_argument(
            "correlation needs at least two observations",
        ));
    }
    let ma = mean(a).expect("non-empty");
    let mb = mean(b).expect("non-empty");
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    if va == 0.0 || vb == 0.0 {
        return Err(Error::invalid_argument(
            "a series has zero variance; correlation undefined",
        ));
    }
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

/// Ordinary least squares fit of `y ≈ slope·x` (no intercept), the form of
/// the paper's ΔT = θ·ΔP model.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] when lengths differ;
/// * [`Error::InvalidArgument`] when `Σx²` is zero (slope undefined).
pub fn fit_proportional(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(Error::DimensionMismatch {
            expected: x.len(),
            actual: y.len(),
        });
    }
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    if sxx == 0.0 {
        return Err(Error::invalid_argument(
            "zero x energy; proportional fit undefined",
        ));
    }
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    Ok(sxy / sxx)
}

/// A weighted moving average forecaster over a fixed history window.
///
/// The paper's practical policies use a WMA over the last three decision
/// points (after Ardestani et al.) to anticipate the next interval's power
/// demand; weights grow linearly towards the most recent sample.
///
/// # Examples
///
/// ```
/// use simkit::stats::WeightedMovingAverage;
///
/// let mut wma = WeightedMovingAverage::new(3);
/// wma.observe(10.0);
/// wma.observe(20.0);
/// wma.observe(30.0);
/// // (1·10 + 2·20 + 3·30) / 6
/// assert!((wma.forecast().unwrap() - 140.0 / 6.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedMovingAverage {
    window: usize,
    history: Vec<f64>,
}

impl WeightedMovingAverage {
    /// Creates a forecaster averaging over the last `window` observations.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WeightedMovingAverage {
            window,
            history: Vec::with_capacity(window),
        }
    }

    /// Records a new observation, discarding the oldest when the window is
    /// full.
    pub fn observe(&mut self, value: f64) {
        if self.history.len() == self.window {
            self.history.remove(0);
        }
        self.history.push(value);
    }

    /// Linearly weighted forecast; `None` until at least one observation
    /// has been recorded.
    pub fn forecast(&self) -> Option<f64> {
        if self.history.is_empty() {
            return None;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &v) in self.history.iter().enumerate() {
            let w = (i + 1) as f64;
            num += w * v;
            den += w;
        }
        Some(num / den)
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Clears the history.
    pub fn reset(&mut self) {
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), Some(2.5));
        assert_eq!(variance(&v), Some(1.25));
        assert!((std_dev(&v).unwrap() - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(max(&v), Some(4.0));
        assert_eq!(min(&v), Some(1.0));
    }

    #[test]
    fn empty_statistics() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn nan_ignored_in_extrema() {
        assert_eq!(max(&[1.0, f64::NAN, 3.0]), Some(3.0));
        assert_eq!(min(&[1.0, f64::NAN, 3.0]), Some(1.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 50.0), Some(25.0));
    }

    #[test]
    fn percentile_filters_non_finite_instead_of_panicking() {
        // Regression: this used to panic on the NaN partial_cmp.
        let v = [10.0, f64::NAN, 20.0, f64::INFINITY, 30.0, f64::NEG_INFINITY];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 50.0), Some(20.0));
        assert_eq!(percentile(&v, 100.0), Some(30.0));
    }

    #[test]
    fn percentile_all_non_finite_is_none() {
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), None);
        assert_eq!(percentile(&[f64::INFINITY], 99.0), None);
    }

    #[test]
    fn r_squared_perfect_prediction() {
        let obs = [1.0, 2.0, 3.0];
        assert!((r_squared(&obs, &obs).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn r_squared_mean_prediction_is_zero() {
        let obs = [1.0, 2.0, 3.0];
        let pred = [2.0, 2.0, 2.0];
        assert!(r_squared(&obs, &pred).unwrap().abs() < 1e-15);
    }

    #[test]
    fn r_squared_bad_prediction_is_negative() {
        let obs = [1.0, 2.0, 3.0];
        let pred = [3.0, 2.0, 1.0];
        assert!(r_squared(&obs, &pred).unwrap() < 0.0);
    }

    #[test]
    fn r_squared_errors() {
        assert!(r_squared(&[1.0, 2.0], &[1.0]).is_err());
        assert!(r_squared(&[1.0], &[1.0]).is_err());
        assert!(r_squared(&[5.0, 5.0], &[5.0, 5.0]).is_err());
    }

    #[test]
    fn pearson_perfect_and_anti_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = a.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = a.iter().map(|v| -0.5 * v).collect();
        assert!((pearson(&a, &up).unwrap() - 1.0).abs() < 1e-15);
        assert!((pearson(&a, &down).unwrap() + 1.0).abs() < 1e-15);
        // Uncorrelated by symmetry.
        assert!(pearson(&a, &[1.0, -1.0, -1.0, 1.0]).unwrap().abs() < 1e-15);
    }

    #[test]
    fn pearson_errors() {
        assert!(matches!(
            pearson(&[1.0, 2.0], &[1.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(pearson(&[1.0], &[1.0]).is_err());
        // A constant series has no correlation (it used to divide by zero).
        assert!(pearson(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]).is_err());
        assert!(pearson(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).is_err());
    }

    #[test]
    fn proportional_fit_recovers_slope() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v).collect();
        assert!((fit_proportional(&x, &y).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn proportional_fit_least_squares_with_noise() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.1, 3.9, 6.0];
        let theta = fit_proportional(&x, &y).unwrap();
        assert!((theta - 2.0).abs() < 0.05, "theta {theta}");
    }

    #[test]
    fn proportional_fit_errors() {
        assert!(fit_proportional(&[1.0], &[1.0, 2.0]).is_err());
        assert!(fit_proportional(&[0.0, 0.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn wma_single_observation() {
        let mut wma = WeightedMovingAverage::new(3);
        assert_eq!(wma.forecast(), None);
        assert!(wma.is_empty());
        wma.observe(5.0);
        assert_eq!(wma.forecast(), Some(5.0));
        assert_eq!(wma.len(), 1);
    }

    #[test]
    fn wma_weights_recent_samples_more() {
        let mut wma = WeightedMovingAverage::new(3);
        wma.observe(0.0);
        wma.observe(0.0);
        wma.observe(6.0);
        // (0 + 0 + 3·6)/6 = 3.0 — closer to the latest than plain mean 2.0.
        assert!((wma.forecast().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn wma_window_rolls() {
        let mut wma = WeightedMovingAverage::new(2);
        wma.observe(100.0);
        wma.observe(1.0);
        wma.observe(2.0);
        // Window now [1, 2]: (1·1 + 2·2)/3
        assert!((wma.forecast().unwrap() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(wma.len(), 2);
    }

    #[test]
    fn wma_reset_clears() {
        let mut wma = WeightedMovingAverage::new(2);
        wma.observe(1.0);
        wma.reset();
        assert_eq!(wma.forecast(), None);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn wma_zero_window_panics() {
        WeightedMovingAverage::new(0);
    }
}
