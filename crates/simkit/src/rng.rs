//! Deterministic random number generation.
//!
//! Experiments in this workspace must be reproducible bit-for-bit, so
//! nothing uses ambient randomness. [`DeterministicRng`] is a small
//! xoshiro256++ generator seeded through SplitMix64 — the standard
//! construction recommended by the xoshiro authors. It is *not*
//! cryptographically secure and does not need to be.
//!
//! # Examples
//!
//! ```
//! use simkit::DeterministicRng;
//!
//! let mut a = DeterministicRng::new(42);
//! let mut b = DeterministicRng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.uniform_f64();
//! assert!((0.0..1.0).contains(&x));
//! ```

/// A seeded xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    state: [u64; 4],
    /// Cached second output of the last Box–Muller transform.
    gauss_spare: Option<u64>,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators created from the same seed produce identical streams.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state, which
        // guards against the all-zero state xoshiro cannot escape.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next_sm(), next_sm(), next_sm(), next_sm()];
        DeterministicRng {
            state,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator; useful to give each
    /// benchmark / functional unit its own stream without coupling their
    /// sequences.
    pub fn fork(&mut self, stream: u64) -> Self {
        let mix = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        DeterministicRng::new(mix)
    }

    /// Next raw 64-bit output.
    // The per-draw methods are `#[inline]` so that per-cycle loops in
    // other crates inline them: `workload::microtrace::skip_window` took
    // about 1.5 times as long without.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `lo > hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "uniform_range requires lo <= hi");
        lo + (hi - lo) * self.uniform_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize(0) has no valid output");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (n as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
        }
    }

    /// Standard normal sample (mean 0, standard deviation 1) via the
    /// Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        if let Some(spare_bits) = self.gauss_spare.take() {
            return f64::from_bits(spare_bits);
        }
        let (r, theta) = box_muller_polar(self.box_muller_uniforms());
        self.gauss_spare = Some((r * theta.sin()).to_bits());
        r * theta.cos()
    }

    /// The two uniforms of a fresh Box–Muller pair, u1 in (0, 1] so that
    /// ln(u1) is finite.
    #[inline]
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        (u1, u2)
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.uniform_usize(i + 1);
            slice.swap(i, j);
        }
    }
}

/// The radius and angle of the Box–Muller transform of `(u1, u2)`.
fn box_muller_polar((u1, u2): (f64, f64)) -> (f64, f64) {
    ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f64::consts::PI * u2)
}

/// Advances a [`DeterministicRng`] past a run of
/// [`DeterministicRng::normal`] calls without their transcendentals. A
/// skipped call consumes the pending spare, or draws a fresh Box–Muller
/// pair's two uniforms and keeps them here untransformed; only the pair
/// whose second half is still pending when the run ends is transformed,
/// by [`SkippedNormals::settle`], which leaves the generator exactly as
/// the calls would have, spare included. Other draws may interleave
/// with the skipped calls, but no `normal` call on the generator may
/// until it is settled: its own spare reads empty meanwhile.
#[derive(Debug, Default)]
pub struct SkippedNormals {
    /// The uniforms of a drawn pair whose second half is pending.
    pending: Option<(f64, f64)>,
}

impl SkippedNormals {
    /// Advances `rng` past one [`DeterministicRng::normal`] call.
    #[inline]
    pub fn skip(&mut self, rng: &mut DeterministicRng) {
        if self.pending.take().is_none() && rng.gauss_spare.take().is_none() {
            self.pending = Some(rng.box_muller_uniforms());
        }
    }

    /// Leaves `rng` with the spare the skipped calls would have left.
    pub fn settle(self, rng: &mut DeterministicRng) {
        if let Some(pair) = self.pending {
            let (r, theta) = box_muller_polar(pair);
            rng.gauss_spare = Some((r * theta.sin()).to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DeterministicRng::new(7);
        let mut b = DeterministicRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = DeterministicRng::new(3);
        for _ in 0..10_000 {
            let x = rng.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut rng = DeterministicRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn uniform_usize_covers_all_buckets() {
        let mut rng = DeterministicRng::new(5);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.uniform_usize(7)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 8_000, "bucket {i} undersampled: {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = DeterministicRng::new(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn normal_with_scales_and_shifts() {
        let mut rng = DeterministicRng::new(17);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.normal_with(10.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = DeterministicRng::new(23);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = DeterministicRng::new(29);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        // Out-of-range probabilities are clamped, not panicking.
        assert!(rng.bernoulli(2.0));
        assert!(!rng.bernoulli(-1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DeterministicRng::new(31);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = DeterministicRng::new(99);
        let mut parent2 = DeterministicRng::new(99);
        let mut c1 = parent1.fork(0);
        let mut c2 = parent2.fork(0);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent1.fork(1);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn skipped_normals_leave_the_generator_as_drawn_ones() {
        // Runs of every parity, from a state with and without a pending
        // spare, with uniform draws in between.
        for (start_spare, calls) in [(false, 0), (false, 1), (true, 1), (false, 4), (true, 7)] {
            let mut drawn = DeterministicRng::new(37);
            if start_spare {
                drawn.normal();
            }
            let mut skipped = drawn.clone();
            let mut normals = SkippedNormals::default();
            for _ in 0..calls {
                drawn.normal();
                drawn.uniform_f64();
                normals.skip(&mut skipped);
                skipped.uniform_f64();
            }
            normals.settle(&mut skipped);
            assert_eq!(skipped, drawn, "spare {start_spare}, {calls} calls");
            assert_eq!(skipped.normal().to_bits(), drawn.normal().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "no valid output")]
    fn uniform_usize_zero_panics() {
        DeterministicRng::new(0).uniform_usize(0);
    }
}
