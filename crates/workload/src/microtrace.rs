//! Cycle-resolution current micro-traces for voltage-noise analysis.
//!
//! VoltSpot-style noise simulation needs cycle-accurate load currents, but
//! generating those for a whole ROI is prohibitively expensive — the paper
//! samples 200 windows of 2 K cycles instead (1 K warm-up + 1 K analysis).
//! This module synthesises those windows: given a block's µs-scale
//! activity level, it produces per-cycle current multipliers exhibiting
//! the high-frequency di/dt events (pipeline flushes, cache-miss stalls
//! and returns) that create voltage noise.

use simkit::DeterministicRng;

/// Number of sample windows per benchmark (paper Section 5).
pub const WINDOW_COUNT: usize = 200;
/// Cycles per sample window (paper Section 5).
pub const WINDOW_CYCLES: usize = 2000;
/// Warm-up cycles discarded at the start of each window.
pub const WARMUP_CYCLES: usize = 1000;

/// A cycle-resolution window of per-cycle current multipliers for one
/// load (mean 1.0; multiply by the µs-scale average current to get the
/// instantaneous current).
#[derive(Debug, Clone, PartialEq)]
pub struct CycleWindow {
    multipliers: Vec<f64>,
}

impl CycleWindow {
    /// The per-cycle multipliers (length = window size).
    pub fn multipliers(&self) -> &[f64] {
        &self.multipliers
    }

    /// Number of cycles in the window.
    pub fn len(&self) -> usize {
        self.multipliers.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.multipliers.is_empty()
    }

    /// The analysis region (after warm-up).
    ///
    /// # Panics
    ///
    /// Panics when the window is shorter than [`WARMUP_CYCLES`].
    pub fn analysis(&self) -> &[f64] {
        &self.multipliers[WARMUP_CYCLES..]
    }
}

/// Generates one cycle window for a load running at the given activity.
///
/// `didt_severity` in `[0, 1]` scales the magnitude and frequency of
/// large current steps (see
/// [`BenchmarkProfile::didt_severity`](crate::BenchmarkProfile)). Higher
/// activity produces somewhat smaller *relative* swings (a busy pipeline
/// has fewer idle-to-busy transitions), matching the observation that
/// voltage noise is dominated by activity *changes*.
///
/// The multiplier process mirrors how real programs misbehave: a quiet
/// base of per-cycle shot noise plus a gentle two-state run/stall
/// modulation, punctuated by **rare large di/dt events** (pipeline
/// flushes, barrier exits, cache-miss bursts) — a step of tens of percent
/// of the mean current holding for a geometric dwell. Rarity matters:
/// the paper's Table 2 shows that even the worst gating policy spends
/// well under 1 % of cycles in voltage emergencies, so the maximum noise
/// must come from infrequent spikes, not a continuously noisy floor.
pub fn generate_window(
    rng: &mut DeterministicRng,
    cycles: usize,
    activity: f64,
    didt_severity: f64,
) -> CycleWindow {
    let mut multipliers = Vec::with_capacity(cycles);
    generate_window_into(rng, cycles, activity, didt_severity, &mut multipliers);
    CycleWindow { multipliers }
}

/// [`generate_window`] into a caller-owned buffer: `multipliers` is
/// cleared and refilled with the window's per-cycle multipliers,
/// drawing the same numbers from `rng` in the same order. A buffer with
/// capacity for `cycles` values is refilled without allocating.
pub fn generate_window_into(
    rng: &mut DeterministicRng,
    cycles: usize,
    activity: f64,
    didt_severity: f64,
    multipliers: &mut Vec<f64>,
) {
    let activity = activity.clamp(0.0, 1.0);
    let severity = didt_severity.clamp(0.0, 1.0);
    // Quiet base: small shot noise + shallow run/stall modulation.
    let shot_sigma = 0.010 + 0.020 * severity;
    let base_mag = 0.012 + 0.020 * severity;
    let base_dwell = 120.0;
    // Rare large events. The quadratic severity dependence separates
    // noise-critical codes (fft, radix) from calm ones (cholesky) by an
    // order of magnitude in event rate, as Table 2's spread requires.
    let events_per_window = 0.18 * severity * severity + 0.012;
    let event_prob_per_cycle = events_per_window / cycles as f64;
    let event_mag = (0.28 + 0.17 * severity) * (1.0 - 0.40 * activity);
    let event_dwell = 120.0;

    multipliers.clear();
    let mut high = rng.bernoulli(0.5);
    let mut base_remaining = sample_dwell(rng, base_dwell);
    let mut event_remaining = 0usize;
    let mut event_sign = 1.0;
    let mut event_scale = 1.0;
    let mut sum = 0.0;
    for _ in 0..cycles {
        if base_remaining == 0 {
            high = !high;
            base_remaining = sample_dwell(rng, base_dwell);
        }
        base_remaining -= 1;
        if event_remaining > 0 {
            event_remaining -= 1;
        } else if rng.bernoulli(event_prob_per_cycle) {
            event_remaining = sample_dwell(rng, event_dwell);
            // Heavy-tailed magnitudes: most events are moderate, only
            // the occasional full-magnitude one crosses the emergency
            // threshold — keeping emergencies rare while still setting
            // the run's maximum noise.
            let u = rng.uniform_f64();
            event_scale = 0.15 + 0.85 * u.powi(4);
            event_sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
        }
        let base = if high { 1.0 + base_mag } else { 1.0 - base_mag };
        let event = if event_remaining > 0 {
            event_sign * event_mag * event_scale
        } else {
            0.0
        };
        let v = (base + event + shot_sigma * rng.normal()).max(0.0);
        sum += v;
        multipliers.push(v);
    }
    // Renormalise so the window's mean current equals the µs-scale value.
    if sum > 0.0 {
        let scale = cycles as f64 / sum;
        for v in multipliers.iter_mut() {
            *v *= scale;
        }
    }
}

/// Geometric dwell time with the given mean (at least 1 cycle).
fn sample_dwell(rng: &mut DeterministicRng, mean: f64) -> usize {
    let u = rng.uniform_f64().max(1e-12);
    ((-(1.0 - u).ln()) * mean).ceil().max(1.0) as usize
}

/// The largest cycle-to-cycle current step in a window — a proxy for the
/// worst di/dt event, which first-droop noise tracks.
pub fn max_didt_step(window: &CycleWindow) -> f64 {
    window
        .multipliers
        .windows(2)
        .map(|w| (w[1] - w[0]).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DeterministicRng {
        DeterministicRng::new(0xABCD)
    }

    #[test]
    fn window_has_requested_length_and_unit_mean() {
        let w = generate_window(&mut rng(), WINDOW_CYCLES, 0.5, 0.5);
        assert_eq!(w.len(), WINDOW_CYCLES);
        let mean = w.multipliers().iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn multipliers_are_non_negative() {
        let w = generate_window(&mut rng(), 5000, 0.3, 1.0);
        assert!(w.multipliers().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn higher_severity_means_larger_swings() {
        let mut r1 = rng();
        let mut r2 = rng();
        let calm = generate_window(&mut r1, 4000, 0.5, 0.1);
        let wild = generate_window(&mut r2, 4000, 0.5, 0.9);
        let var = |w: &CycleWindow| {
            let m = w.multipliers().iter().sum::<f64>() / w.len() as f64;
            w.multipliers().iter().map(|v| (v - m).powi(2)).sum::<f64>() / w.len() as f64
        };
        assert!(var(&wild) > 2.0 * var(&calm));
    }

    #[test]
    fn didt_step_grows_with_severity() {
        let mut r1 = rng();
        let mut r2 = rng();
        let calm = generate_window(&mut r1, 4000, 0.5, 0.1);
        let wild = generate_window(&mut r2, 4000, 0.5, 0.9);
        assert!(max_didt_step(&wild) > max_didt_step(&calm));
    }

    #[test]
    fn analysis_region_skips_warmup() {
        let w = generate_window(&mut rng(), WINDOW_CYCLES, 0.5, 0.5);
        assert_eq!(w.analysis().len(), WINDOW_CYCLES - WARMUP_CYCLES);
    }

    #[test]
    fn deterministic_given_same_rng_state() {
        let a = generate_window(&mut rng(), 1000, 0.4, 0.6);
        let b = generate_window(&mut rng(), 1000, 0.4, 0.6);
        assert_eq!(a, b);
    }

    #[test]
    fn refilled_buffer_matches_a_fresh_window_and_rng_state() {
        let (mut fresh_rng, mut into_rng) = (rng(), rng());
        // The buffer starts out holding a longer, different window.
        let mut buffer = generate_window(&mut rng(), 2 * WINDOW_CYCLES, 0.9, 1.0)
            .multipliers()
            .to_vec();
        for (activity, severity) in [(0.5, 0.5), (0.2, 0.9), (0.8, 0.0)] {
            let fresh = generate_window(&mut fresh_rng, WINDOW_CYCLES, activity, severity);
            generate_window_into(
                &mut into_rng,
                WINDOW_CYCLES,
                activity,
                severity,
                &mut buffer,
            );
            assert_eq!(buffer, fresh.multipliers());
            assert_eq!(into_rng, fresh_rng);
        }
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(WINDOW_COUNT, 200);
        assert_eq!(WINDOW_CYCLES, 2000);
        assert_eq!(WARMUP_CYCLES, 1000);
    }
}
