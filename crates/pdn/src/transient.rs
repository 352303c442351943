//! Cycle-resolution transient (di/dt) noise.
//!
//! Given a sampled cycle window of load-current multipliers (from
//! `workload::microtrace`-style generators), the transient voltage
//! response is the convolution of the per-cycle current steps with an
//! underdamped impulse-response kernel:
//!
//! ```text
//! h[k] = Z_eff · shape[k],   shape[k] = cos(2π k / T_ring) · decay(k)
//! ```
//!
//! `Z_eff` grows when fewer regulators are active and when the active set
//! sits farther from the load (the `distance_factor`); `decay(k)` is the
//! passive RC decay until the regulator's control loop reacts (after
//! `response_cycles`), then a fast regulated decay — which is how a
//! faster regulator (POWER8-style LDO vs. FIVR, Fig. 15) earns its lower
//! transient noise.
//!
//! # Separable evaluation
//!
//! The current steps are `di[n] = i_mean · Δm[n]`, and only `Z_eff`
//! depends on the gating. A cycle's noise therefore factors into a
//! gating-dependent scale and a gating-independent magnitude:
//!
//! ```text
//! v[n] / Vdd = a · c[n],   a = Z_eff · i_mean / Vdd,   c[n] = |Σ_k shape[k] · Δm[n−k]|
//! ```
//!
//! [`DidtResponse`] convolves a window once, when it is drawn, and keeps
//! `c[n]` over the analysis region; [`response_scale`] gives `Z_eff ·
//! i_mean` for a gating. Every check on the window — the peak, the
//! per-cycle series, the emergency-cycle count — then scales the stored
//! magnitudes instead of convolving again.
//!
//! # Recursive evaluation
//!
//! The shape is a damped cosine whose decay steepens once the regulator
//! responds, `L₁ = ⌊response_cycles⌋ + 1` taps in. With
//! `a = e^(−1/τ_passive + iω)` and `b = a · e^(−1/τ_regulated)`, tap `k`
//! is `Re a^k` before the response and `Re(C · b^(k−L₁))` after it, for
//! one constant `C`. So the convolution is the real part of two windowed
//! one-pole filters over the steps,
//!
//! ```text
//! c[n] = |Re U[n] + Re(C · V[n−L₁])|,   U[n] = a·U[n−1] + Δm[n] − a^L₁ · Δm[n−L₁]
//! ```
//!
//! with `V` the same recursion through `b` over the remaining `K − L₁`
//! taps. [`DidtResponse`] runs them, a few operations per cycle instead
//! of one per tap, from powers computed in closed form once per window;
//! they match the tap-by-tap sum to rounding (`tg-verify`'s
//! `diff.noise_separable_vs_direct` holds them to 1e-12 of the peak).
//! [`impulse_kernel`] still lists the taps, the reference the checks
//! convolve directly.

use crate::config::PdnConfig;
use simkit::units::{Amps, Hertz, Seconds};
use simkit::{Error, Result};

/// Parameters of one transient evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientParams {
    /// Mean domain load current over the window.
    pub mean_current: Amps,
    /// Active regulators in the domain.
    pub n_active: usize,
    /// Total regulators in the domain.
    pub n_total: usize,
    /// Spatial weakening factor from
    /// [`crate::PdnModel::active_distance_factor`] (≈1 under all-on).
    pub distance_factor: f64,
    /// Regulator control-loop response time.
    pub response_time: Seconds,
    /// Clock frequency (cycle length of the window samples).
    pub frequency: Hertz,
}

/// The gating-independent di/dt response of one cycle window: the
/// per-cycle magnitudes `c[n] = |Σ_k shape[k] · Δm[n−k]|` over the
/// analysis region, where `shape` is the unit-impedance impulse kernel
/// and `Δm` the per-cycle multiplier steps, evaluated by the recursion
/// of the module docs.
///
/// Multiplying by `a` = [`response_scale`] / Vdd turns a magnitude
/// into a fraction of Vdd for one gating, so a window is convolved once
/// however many gatings and checks it is evaluated under.
#[derive(Debug, Clone, PartialEq)]
pub struct DidtResponse {
    magnitudes: Vec<f64>,
    peak: f64,
}

impl DidtResponse {
    /// Convolves one window of per-cycle current multipliers (around a
    /// mean of 1, see `workload::microtrace`) with the kernel shape of a
    /// regulator responding in `response_time` at clock `frequency`. The
    /// first `warmup` cycles seed the convolution but are excluded from
    /// the analysis region.
    ///
    /// # Panics
    ///
    /// Panics when `warmup >= multipliers.len()`.
    pub fn new(
        config: &PdnConfig,
        response_time: Seconds,
        frequency: Hertz,
        multipliers: &[f64],
        warmup: usize,
    ) -> Self {
        let mut response = DidtResponse::with_capacity(multipliers.len().saturating_sub(warmup));
        let mut steps = Vec::with_capacity(multipliers.len());
        response.refill(
            config,
            response_time,
            frequency,
            multipliers,
            warmup,
            &mut steps,
        );
        response
    }

    /// An empty response (no magnitudes, peak 0) with room for
    /// `cycles` analysis cycles, so that [`DidtResponse::refill`] with a
    /// window of up to that many analysis cycles does not allocate.
    pub fn with_capacity(cycles: usize) -> Self {
        DidtResponse {
            magnitudes: Vec::with_capacity(cycles),
            peak: 0.0,
        }
    }

    /// [`DidtResponse::new`] in place: replaces this response with the
    /// response of `multipliers`, bit for bit what `new` returns for the
    /// same arguments. `steps` is scratch for the window's per-cycle
    /// steps. Neither buffer is reallocated while its capacity covers
    /// the window (`steps`) and its analysis region (the magnitudes).
    ///
    /// # Panics
    ///
    /// Panics when `warmup >= multipliers.len()`.
    pub fn refill(
        &mut self,
        config: &PdnConfig,
        response_time: Seconds,
        frequency: Hertz,
        multipliers: &[f64],
        warmup: usize,
        steps: &mut Vec<f64>,
    ) {
        let len = multipliers.len();
        assert!(warmup < len, "warm-up swallows the window");
        let Kernel {
            l1,
            taps,
            mut u,
            mut v,
            c,
        } = Kernel::new(config, response_cycles(response_time, frequency));
        // The recursions start from zero state at `first`, early enough
        // that every tap of the analysis region's first cycle is in;
        // steps before it read as zero (`steps[0]` has no predecessor).
        let first = (warmup + 1).saturating_sub(taps).max(1);
        steps.clear();
        steps.resize(len, 0.0);
        for (s, m) in steps[first..]
            .iter_mut()
            .zip(multipliers[first - 1..].windows(2))
        {
            *s = m[1] - m[0];
        }
        let acc = &mut self.magnitudes;
        acc.clear();
        // Cycle 0 has no step behind it (reached only when `warmup` is 0).
        acc.extend((warmup..first).map(|_| 0.0));
        let mut peak = 0.0f64;
        for n in first..len {
            let at = |lag: usize| if n >= lag { steps[n - lag] } else { 0.0 };
            let u = u.push(steps[n], at(l1));
            let v = v.push(at(l1), at(taps));
            if n >= warmup {
                let magnitude = (u.re + c.re * v.re - c.im * v.im).abs();
                peak = peak.max(magnitude);
                acc.push(magnitude);
            }
        }
        self.peak = peak;
    }

    /// Per-cycle magnitudes `c[n]` over the analysis region.
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitudes
    }

    /// The largest magnitude over the analysis region (0 for a quiet
    /// window).
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Analysis cycles whose total noise `scale · c[n] + ir_fraction`
    /// exceeds `threshold_fraction`, with `scale` = [`response_scale`]
    /// / Vdd.
    pub fn cycles_over(&self, scale: f64, ir_fraction: f64, threshold_fraction: f64) -> usize {
        self.magnitudes
            .iter()
            .filter(|&&c| scale * c + ir_fraction > threshold_fraction)
            .count()
    }
}

/// `Z_eff · i_mean`: the gating-dependent factor that turns a
/// [`DidtResponse`] magnitude into volts. Divide by Vdd for fractions.
///
/// # Errors
///
/// [`Error::InvalidArgument`] when `n_active` is zero or exceeds
/// `n_total`.
pub fn response_scale(config: &PdnConfig, params: &TransientParams) -> Result<f64> {
    if params.n_active == 0 || params.n_active > params.n_total {
        return Err(Error::invalid_argument(format!(
            "n_active {} outside [1, {}]",
            params.n_active, params.n_total
        )));
    }
    Ok(z_eff(config, params) * params.mean_current.get().max(0.0))
}

/// Peak transient noise over a cycle window, as a fraction of Vdd.
///
/// `multipliers` are per-cycle current multipliers around a mean of 1
/// (see `workload::microtrace`); the first `warmup` cycles seed the
/// convolution but are excluded from the peak search.
///
/// # Errors
///
/// [`Error::InvalidArgument`] when `n_active` is zero or exceeds
/// `n_total` (see [`response_scale`]).
///
/// # Panics
///
/// Panics when `warmup >= multipliers.len()`.
pub fn peak_transient_fraction(
    config: &PdnConfig,
    params: &TransientParams,
    multipliers: &[f64],
    warmup: usize,
) -> Result<f64> {
    let scale = response_scale(config, params)? / config.vdd.get();
    Ok(scale * response(config, params, multipliers, warmup).peak())
}

/// The full per-cycle transient-noise magnitude over the analysis region
/// of a window, as fractions of Vdd (the Fig. 14-style trace). Add the
/// static IR fraction on top for total noise.
///
/// # Errors
///
/// As [`peak_transient_fraction`].
///
/// # Panics
///
/// As [`peak_transient_fraction`].
pub fn noise_series(
    config: &PdnConfig,
    params: &TransientParams,
    multipliers: &[f64],
    warmup: usize,
) -> Result<Vec<f64>> {
    let scale = response_scale(config, params)? / config.vdd.get();
    Ok(response(config, params, multipliers, warmup)
        .magnitudes()
        .iter()
        .map(|&c| scale * c)
        .collect())
}

/// Number of analysis cycles whose total noise (transient + the given
/// static IR fraction) exceeds `threshold_fraction` of Vdd — the
/// quantity behind Table 2's "% execution time spent in voltage
/// emergencies".
///
/// # Errors
///
/// As [`peak_transient_fraction`].
///
/// # Panics
///
/// As [`peak_transient_fraction`].
pub fn cycles_over(
    config: &PdnConfig,
    params: &TransientParams,
    multipliers: &[f64],
    warmup: usize,
    ir_fraction: f64,
    threshold_fraction: f64,
) -> Result<usize> {
    let scale = response_scale(config, params)? / config.vdd.get();
    Ok(response(config, params, multipliers, warmup).cycles_over(
        scale,
        ir_fraction,
        threshold_fraction,
    ))
}

/// The impulse-response kernel for the given configuration.
pub fn impulse_kernel(config: &PdnConfig, params: &TransientParams) -> Vec<f64> {
    let z_eff = z_eff(config, params);
    let response_cycles = response_cycles(params.response_time, params.frequency);
    (0..kernel_len(response_cycles))
        .map(|k| z_eff * kernel_tap(config, response_cycles, k))
        .collect()
}

fn response(
    config: &PdnConfig,
    params: &TransientParams,
    multipliers: &[f64],
    warmup: usize,
) -> DidtResponse {
    DidtResponse::new(
        config,
        params.response_time,
        params.frequency,
        multipliers,
        warmup,
    )
}

fn response_cycles(response_time: Seconds, frequency: Hertz) -> f64 {
    (response_time.get() * frequency.get()).max(1.0)
}

/// The kernel's impedance: the only factor of `h[k]` that depends on the
/// gating (through `n_active` and `distance_factor`).
fn z_eff(config: &PdnConfig, params: &TransientParams) -> f64 {
    let response_cycles = response_cycles(params.response_time, params.frequency);
    // A regulator that reacts within the first droop (≈ a quarter of the
    // ring period) partially suppresses even the initial undershoot; a
    // slow loop only helps the tail. This is the (modest) LDO-vs-FIVR
    // advantage of Fig. 15.
    let quarter = config.ring_period_cycles / 4.0;
    let first_droop_suppression = 1.0 - 0.25 * quarter / (quarter + response_cycles);
    config.z_transient_ohm
        * (config.z_reference_active / params.n_active as f64).sqrt()
        * params.distance_factor.max(0.1)
        * first_droop_suppression
}

/// Regulated decay time constant: a few cycles once the loop has
/// reacted.
const REGULATED_TAU: f64 = 8.0;

/// Taps of the kernel shape: the response time plus five regulated
/// decay constants.
fn kernel_len(response_cycles: f64) -> usize {
    (response_cycles + 5.0 * REGULATED_TAU).ceil() as usize
}

/// Tap `k` of the unit-impedance kernel
/// `shape[k] = cos(2π k / T_ring) · decay(k)`.
fn kernel_tap(config: &PdnConfig, response_cycles: f64, k: usize) -> f64 {
    let omega = 2.0 * std::f64::consts::PI / config.ring_period_cycles;
    let kf = k as f64;
    let passive = (-kf / config.passive_decay_cycles).exp();
    let regulated = if kf > response_cycles {
        (-(kf - response_cycles) / REGULATED_TAU).exp()
    } else {
        1.0
    };
    (omega * kf).cos() * passive * regulated
}

/// A complex number, as much of one as the recursions need.
#[derive(Debug, Clone, Copy)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    /// `e^(log_modulus + i·angle)`.
    fn polar(log_modulus: f64, angle: f64) -> Self {
        let modulus = log_modulus.exp();
        Complex {
            re: modulus * angle.cos(),
            im: modulus * angle.sin(),
        }
    }

    fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }
}

/// A windowed one-pole filter: its output `y[n] = Σ_{j<L} p^j · x[n−j]`
/// is the sum of the last `L` inputs weighted by powers of the pole `p`,
/// kept by `y[n] = p·y[n−1] + x[n] − p^L·x[n−L]`.
#[derive(Debug, Clone, Copy)]
struct WindowedPole {
    pole: Complex,
    /// `p^L`.
    pole_len: Complex,
    state: Complex,
}

impl WindowedPole {
    /// A filter from zero state.
    fn new(pole: Complex, pole_len: Complex) -> Self {
        WindowedPole {
            pole,
            pole_len,
            state: Complex { re: 0.0, im: 0.0 },
        }
    }

    /// Takes the input `entering` = `x[n]` and the input `leaving` =
    /// `x[n−L]` the window drops, and returns `y[n]`.
    fn push(&mut self, entering: f64, leaving: f64) -> Complex {
        let y = self.pole.mul(self.state);
        self.state = Complex {
            re: y.re + entering - self.pole_len.re * leaving,
            im: y.im - self.pole_len.im * leaving,
        };
        self.state
    }
}

/// The kernel shape as two windowed one-pole filters. With
/// `a = e^(−1/τ_p + iω)`, tap `k` is `Re a^k` up to the response
/// (`k < L₁ = ⌊r⌋ + 1`) and `Re(C·b^(k−L₁))` after it, with
/// `b = a·e^(−1/τ_reg)` and `C = a^L₁·e^(−(L₁−r)/τ_reg)`. So
/// `c[n] = Re U[n] + Re(C·V[n−L₁])`, where `U` windows `L₁` steps through
/// pole `a` and `V` the remaining `K − L₁` through pole `b`.
struct Kernel {
    /// `L₁`: the taps before the regulator responds.
    l1: usize,
    /// `K`: all taps.
    taps: usize,
    u: WindowedPole,
    v: WindowedPole,
    c: Complex,
}

impl Kernel {
    /// The filters of [`kernel_tap`]'s shape, from closed-form powers.
    fn new(config: &PdnConfig, response_cycles: f64) -> Self {
        let omega = 2.0 * std::f64::consts::PI / config.ring_period_cycles;
        let passive = -1.0 / config.passive_decay_cycles;
        let regulated = passive - 1.0 / REGULATED_TAU;
        let taps = kernel_len(response_cycles);
        let l1 = response_cycles.floor() as usize + 1;
        let (l1f, l2f) = (l1 as f64, (taps - l1) as f64);
        Kernel {
            l1,
            taps,
            u: WindowedPole::new(
                Complex::polar(passive, omega),
                Complex::polar(passive * l1f, omega * l1f),
            ),
            v: WindowedPole::new(
                Complex::polar(regulated, omega),
                Complex::polar(regulated * l2f, omega * l2f),
            ),
            c: Complex::polar(
                passive * l1f - (l1f - response_cycles) / REGULATED_TAU,
                omega * l1f,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n_active: usize, response_ns: f64) -> TransientParams {
        TransientParams {
            mean_current: Amps::new(8.0),
            n_active,
            n_total: 9,
            distance_factor: 1.0,
            response_time: Seconds::from_nanos(response_ns),
            frequency: Hertz::from_ghz(4.0),
        }
    }

    /// A window with one large current step in the middle.
    fn step_window(len: usize, at: usize, height: f64) -> Vec<f64> {
        (0..len)
            .map(|i| if i < at { 1.0 } else { 1.0 + height })
            .collect()
    }

    #[test]
    fn quiet_window_has_no_noise() {
        let cfg = PdnConfig::default();
        let w = vec![1.0; 2000];
        let f = peak_transient_fraction(&cfg, &params(9, 15.0), &w, 1000).unwrap();
        assert_eq!(f, 0.0);
    }

    #[test]
    fn bigger_steps_make_more_noise() {
        let cfg = PdnConfig::default();
        let small =
            peak_transient_fraction(&cfg, &params(9, 15.0), &step_window(2000, 1500, 0.1), 1000)
                .unwrap();
        let large =
            peak_transient_fraction(&cfg, &params(9, 15.0), &step_window(2000, 1500, 0.4), 1000)
                .unwrap();
        assert!(large > 3.0 * small, "large {large} small {small}");
    }

    #[test]
    fn fewer_active_regulators_mean_more_noise() {
        let cfg = PdnConfig::default();
        let w = step_window(2000, 1500, 0.3);
        let strong = peak_transient_fraction(&cfg, &params(9, 15.0), &w, 1000).unwrap();
        let weak = peak_transient_fraction(&cfg, &params(2, 15.0), &w, 1000).unwrap();
        assert!(weak > 1.5 * strong, "weak {weak} strong {strong}");
    }

    #[test]
    fn faster_regulator_means_less_noise() {
        // The Fig. 15 effect: the LDO's sub-ns response truncates the
        // ring-down that the 15 ns FIVR lets ring.
        let cfg = PdnConfig::default();
        let w = step_window(2000, 1500, 0.3);
        let fivr = peak_transient_fraction(&cfg, &params(9, 15.0), &w, 1000).unwrap();
        let ldo = peak_transient_fraction(&cfg, &params(9, 0.8), &w, 1000).unwrap();
        assert!(ldo < fivr, "ldo {ldo} fivr {fivr}");
        assert!(
            ldo > 0.3 * fivr,
            "effect should be modest, got {ldo} vs {fivr}"
        );
    }

    #[test]
    fn distance_factor_scales_noise_linearly() {
        let cfg = PdnConfig::default();
        let w = step_window(2000, 1500, 0.3);
        let near = peak_transient_fraction(&cfg, &params(9, 15.0), &w, 1000).unwrap();
        let mut p = params(9, 15.0);
        p.distance_factor = 2.0;
        let far = peak_transient_fraction(&cfg, &p, &w, 1000).unwrap();
        assert!((far / near - 2.0).abs() < 1e-9);
    }

    #[test]
    fn kernel_starts_at_z_eff_and_decays() {
        let cfg = PdnConfig::default();
        let p = params(9, 15.0);
        let k = impulse_kernel(&cfg, &p);
        // k[0] is z_transient scaled by the first-droop suppression
        // factor, which stays within (0.75, 1].
        assert!(k[0] > 0.75 * cfg.z_transient_ohm && k[0] <= cfg.z_transient_ohm);
        let tail = k[k.len() - 1].abs();
        assert!(tail < 0.05 * k[0].abs(), "tail {tail}");
    }

    #[test]
    fn steps_in_warmup_do_not_count_for_peak_but_do_seed_state() {
        let cfg = PdnConfig::default();
        // Step well inside warm-up, long before the analysis region: the
        // ring has decayed by cycle 1000, so the peak is near zero.
        let early = step_window(2000, 200, 0.4);
        let f = peak_transient_fraction(&cfg, &params(9, 15.0), &early, 1000).unwrap();
        let direct =
            peak_transient_fraction(&cfg, &params(9, 15.0), &step_window(2000, 1500, 0.4), 1000)
                .unwrap();
        assert!(f < 0.05 * direct, "early {f} direct {direct}");
    }

    #[test]
    fn noise_series_peak_matches_peak_function() {
        let cfg = PdnConfig::default();
        let p = params(4, 15.0);
        let w = step_window(2000, 1500, 0.3);
        let series = noise_series(&cfg, &p, &w, 1000).unwrap();
        assert_eq!(series.len(), 1000);
        let series_peak = series.iter().copied().fold(0.0, f64::max);
        let peak = peak_transient_fraction(&cfg, &p, &w, 1000).unwrap();
        assert!((series_peak - peak).abs() < 1e-12);
    }

    #[test]
    fn cycles_over_counts_threshold_crossings() {
        let cfg = PdnConfig::default();
        let p = params(2, 15.0);
        let w = step_window(2000, 1500, 0.4);
        // With a huge threshold nothing crosses.
        assert_eq!(cycles_over(&cfg, &p, &w, 1000, 0.0, 10.0).unwrap(), 0);
        // With a zero threshold and positive IR, every cycle crosses.
        assert_eq!(cycles_over(&cfg, &p, &w, 1000, 0.05, 0.0).unwrap(), 1000);
        // Intermediate threshold: some but not all cycles cross.
        let peak = peak_transient_fraction(&cfg, &p, &w, 1000).unwrap();
        let some = cycles_over(&cfg, &p, &w, 1000, 0.0, peak * 0.5).unwrap();
        assert!(some > 0 && some < 1000, "crossings {some}");
    }

    /// The convolution as it was written before the separable response:
    /// one full gating-dependent kernel per cycle, summed tap by tap.
    fn direct_series(
        cfg: &PdnConfig,
        p: &TransientParams,
        multipliers: &[f64],
        warmup: usize,
    ) -> Vec<f64> {
        let kernel = impulse_kernel(cfg, p);
        let i_mean = p.mean_current.get().max(0.0);
        (warmup..multipliers.len())
            .map(|n| {
                let mut v = 0.0;
                for (k, &h) in kernel.iter().take(kernel.len().min(n)).enumerate() {
                    v += h * (i_mean * (multipliers[n - k] - multipliers[n - k - 1]));
                }
                v.abs() / cfg.vdd.get()
            })
            .collect()
    }

    fn noisy_window(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = simkit::DeterministicRng::new(seed);
        (0..len).map(|_| 0.8 + 0.4 * rng.uniform_f64()).collect()
    }

    fn response(p: &TransientParams, w: &[f64], warmup: usize) -> DidtResponse {
        DidtResponse::new(
            &PdnConfig::default(),
            p.response_time,
            p.frequency,
            w,
            warmup,
        )
    }

    #[test]
    fn response_is_independent_of_gating() {
        // Every gating's series is its own scale times one shared set of
        // magnitudes: dividing the scale back out recovers the response.
        let cfg = PdnConfig::default();
        let w = noisy_window(2000, 3);
        let shared = response(&params(9, 15.0), &w, 1000);
        for (n_active, distance) in [(1, 1.0), (4, 0.05), (9, 2.5)] {
            let mut p = params(n_active, 15.0);
            p.distance_factor = distance;
            let scale = response_scale(&cfg, &p).unwrap() / cfg.vdd.get();
            assert_eq!(response(&p, &w, 1000), shared);
            for (v, &c) in noise_series(&cfg, &p, &w, 1000)
                .unwrap()
                .iter()
                .zip(shared.magnitudes())
            {
                assert!((v / scale - c).abs() <= 1e-12 * shared.peak(), "{v} vs {c}");
            }
        }
    }

    #[test]
    fn peak_is_the_largest_magnitude() {
        let w = noisy_window(2000, 4);
        let r = response(&params(9, 0.8), &w, 1000);
        assert_eq!(r.magnitudes().len(), 1000);
        let max = r.magnitudes().iter().copied().fold(0.0, f64::max);
        assert!(max > 0.0);
        assert_eq!(r.peak(), max);
    }

    #[test]
    fn peak_fraction_is_the_scaled_peak() {
        let cfg = PdnConfig::default();
        let w = noisy_window(2000, 5);
        let p = params(3, 15.0);
        let expected =
            response_scale(&cfg, &p).unwrap() / cfg.vdd.get() * response(&p, &w, 1000).peak();
        assert_eq!(
            peak_transient_fraction(&cfg, &p, &w, 1000).unwrap(),
            expected
        );
    }

    #[test]
    fn warmup_shorter_than_the_kernel_matches_direct_convolution() {
        let cfg = PdnConfig::default();
        let w = noisy_window(400, 6);
        for response_ns in [0.8, 15.0] {
            let p = params(5, response_ns);
            let taps = impulse_kernel(&cfg, &p).len();
            for warmup in [0, 1, taps / 2, taps - 1, taps, taps + 1] {
                let reference = direct_series(&cfg, &p, &w, warmup);
                let series = noise_series(&cfg, &p, &w, warmup).unwrap();
                assert_eq!(series.len(), reference.len());
                let peak = reference.iter().copied().fold(0.0, f64::max);
                for (n, (a, b)) in series.iter().zip(&reference).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-12 * peak,
                        "warm-up {warmup}, cycle {n}: {a} vs {b}"
                    );
                }
                let got = peak_transient_fraction(&cfg, &p, &w, warmup).unwrap();
                assert!((got - peak).abs() <= 1e-12 * peak, "{got} vs {peak}");
            }
        }
    }

    /// The magnitudes as the tap loop computes them: every cycle sums
    /// its taps `k = 0, 1, …` in turn. The recursion's reference.
    fn tap_loop(
        cfg: &PdnConfig,
        p: &TransientParams,
        multipliers: &[f64],
        warmup: usize,
    ) -> Vec<f64> {
        let r = response_cycles(p.response_time, p.frequency);
        (warmup..multipliers.len())
            .map(|n| {
                (0..kernel_len(r).min(n))
                    .map(|k| kernel_tap(cfg, r, k) * (multipliers[n - k] - multipliers[n - k - 1]))
                    .sum::<f64>()
                    .abs()
            })
            .collect()
    }

    #[test]
    fn recursion_matches_the_tap_loop() {
        // The LDO, an integer response time and the FIVR; warm-ups from
        // none through shorter and longer than the kernel.
        let cfg = PdnConfig::default();
        for (seed, response_ns) in [(8, 0.8), (9, 3.25), (10, 3.3), (11, 15.0)] {
            let p = params(9, response_ns);
            let taps = kernel_len(response_cycles(p.response_time, p.frequency));
            let w = noisy_window(2000, seed);
            for warmup in [0, 1, 2, taps - 1, taps, taps + 1, 1000, 1999] {
                let reference = tap_loop(&cfg, &p, &w, warmup);
                let r = response(&p, &w, warmup);
                assert_eq!(r.magnitudes().len(), reference.len());
                let peak = reference.iter().copied().fold(0.0, f64::max);
                assert!((r.peak() - peak).abs() <= 1e-13 * peak);
                for (n, (a, b)) in r.magnitudes().iter().zip(&reference).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-13 * peak,
                        "{response_ns} ns, warm-up {warmup}, cycle {n}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Bit-for-bit equality: magnitudes and peak alike.
    fn assert_same_bits(a: &DidtResponse, b: &DidtResponse) {
        let bits =
            |r: &DidtResponse| -> Vec<u64> { r.magnitudes().iter().map(|c| c.to_bits()).collect() };
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.peak().to_bits(), b.peak().to_bits());
    }

    #[test]
    fn refill_matches_a_fresh_response_bit_for_bit() {
        let cfg = PdnConfig::default();
        let p = params(9, 15.0);
        let (rt, f) = (p.response_time, p.frequency);
        let mut steps = Vec::new();
        let noisy = noisy_window(2000, 7);
        let quiet = vec![1.0; 2000];
        // A quiet window after a noisy one leaves no stale magnitude or
        // peak behind.
        let mut r = DidtResponse::new(&cfg, rt, f, &noisy, 1000);
        assert!(r.peak() > 0.0);
        r.refill(&cfg, rt, f, &quiet, 1000, &mut steps);
        assert_same_bits(&r, &DidtResponse::new(&cfg, rt, f, &quiet, 1000));
        assert_eq!(r.peak(), 0.0);
        // Back to noisy, then a shorter window with a longer analysis
        // region, from an empty response.
        r.refill(&cfg, rt, f, &noisy, 1000, &mut steps);
        assert_same_bits(&r, &DidtResponse::new(&cfg, rt, f, &noisy, 1000));
        r.refill(&cfg, rt, f, &noisy[..700], 100, &mut steps);
        assert_same_bits(&r, &DidtResponse::new(&cfg, rt, f, &noisy[..700], 100));
        let mut empty = DidtResponse::with_capacity(0);
        empty.refill(&cfg, rt, f, &noisy, 1000, &mut steps);
        assert_same_bits(&empty, &DidtResponse::new(&cfg, rt, f, &noisy, 1000));
    }

    #[test]
    fn active_counts_outside_the_domain_are_invalid_arguments() {
        let cfg = PdnConfig::default();
        for n_active in [0, 10] {
            let err =
                peak_transient_fraction(&cfg, &params(n_active, 15.0), &[1.0, 1.0], 0).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument { .. }), "{err}");
            assert!(err.to_string().contains("outside [1, 9]"), "{err}");
        }
    }
}
