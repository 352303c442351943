//! Activity-trace generation.

use crate::benchmark::Benchmark;
use crate::mix::WorkloadSpec;
use crate::profile::BenchmarkProfile;
use floorplan::{BlockId, DomainKind, Floorplan, UnitKind};
use simkit::series::TraceMatrix;
use simkit::telemetry::{EventKind, Telemetry};
use simkit::units::Seconds;
use simkit::{DeterministicRng, Error, Result};

/// Default trace resolution: 1 µs, matching the power-trace granularity
/// the paper's SNIPER+McPAT flow produces.
pub const DEFAULT_DT: Seconds = Seconds::new(1e-6);

/// A generated per-block activity trace over one benchmark ROI.
///
/// Activities are utilisations in `[0, 1]`, one channel per
/// [`BlockId`] of the floorplan the trace was generated for.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityTrace {
    spec: WorkloadSpec,
    activity: TraceMatrix,
}

impl ActivityTrace {
    /// Assembles a trace from parts (used by the CSV replay reader).
    pub(crate) fn from_parts(spec: WorkloadSpec, activity: TraceMatrix) -> Self {
        ActivityTrace { spec, activity }
    }

    /// The workload this trace models (single benchmark or mix).
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The benchmark this trace models, when it is a single-program run.
    ///
    /// # Panics
    ///
    /// Panics for a multiprogrammed trace; use [`ActivityTrace::spec`]
    /// there.
    pub fn benchmark(&self) -> Benchmark {
        self.spec
            .as_single()
            .expect("benchmark() on a multiprogrammed trace; use spec()")
    }

    /// The per-block activity channels.
    pub fn activity(&self) -> &TraceMatrix {
        &self.activity
    }

    /// Sample interval.
    pub fn dt(&self) -> Seconds {
        self.activity.dt()
    }

    /// Number of samples per channel.
    pub fn sample_count(&self) -> usize {
        self.activity.sample_count()
    }

    /// Activity history of one block.
    ///
    /// # Panics
    ///
    /// Panics when the block id is out of range for the generating chip.
    pub fn block_activity(&self, block: BlockId) -> &[f64] {
        self.activity.channel(block.0)
    }

    /// Activity of one block at one sample.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of range.
    pub fn sample(&self, block: BlockId, index: usize) -> f64 {
        self.activity.channel(block.0)[index]
    }

    /// Mean utilisation across every channel and sample — a cheap
    /// one-number summary for telemetry and sanity checks.
    pub fn mean_activity(&self) -> f64 {
        let channels = self.activity.channel_count();
        let samples = self.activity.sample_count();
        if channels == 0 || samples == 0 {
            return 0.0;
        }
        let total: f64 = (0..channels)
            .map(|c| self.activity.channel(c).iter().sum::<f64>())
            .sum();
        total / (channels * samples) as f64
    }

    /// Emits a `workload.trace` progress event describing this trace
    /// (label, channels, samples, mean activity). No-op when `telemetry`
    /// is disabled.
    pub fn emit_telemetry(&self, telemetry: &Telemetry) {
        emit_trace_event(
            telemetry,
            &self.spec,
            self.activity.channel_count(),
            self.activity.sample_count(),
            || self.mean_activity(),
        );
    }
}

/// The `workload.trace` progress event of a trace, whether held whole
/// ([`ActivityTrace`]) or streamed ([`StepMeans`]); `mean_activity` runs
/// only when `telemetry` is enabled.
fn emit_trace_event(
    telemetry: &Telemetry,
    spec: &WorkloadSpec,
    channels: usize,
    samples: usize,
    mean_activity: impl FnOnce() -> f64,
) {
    if telemetry.is_enabled() {
        telemetry
            .event(EventKind::Progress, "workload.trace")
            .field_str("workload", spec.to_string())
            .field_u64("channels", channels as u64)
            .field_u64("samples", samples as u64)
            .field_f64("mean_activity", mean_activity())
            .emit();
    }
}

/// The value `Iterator::sum` starts an `f64` sum from, so that a sum
/// folded one sample at a time is bit-identical to `iter().sum()`.
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// Folds activity columns, one sample instant at a time, into the mean
/// of every channel over each run of `samples_per_step` samples: the
/// per-thermal-step activities a simulation replays, without holding the
/// trace they come from.
///
/// Each mean adds its samples in order, from the value `Iterator::sum`
/// starts at, and divides by their count, so it is bit-identical to
/// `window.iter().sum::<f64>() / window.len() as f64` over the same
/// samples. A trace that ends before `steps` steps are full gives its
/// last, partial step the mean of the samples it has and holds its final
/// sample for every step after that; columns past the last step count
/// only towards [`StepMeans::mean_activity`].
///
/// # Examples
///
/// ```
/// use floorplan::reference::power8_like;
/// use simkit::units::Seconds;
/// use workload::{Benchmark, StepMeans, TraceGenerator, WorkloadSpec};
///
/// let chip = power8_like();
/// let generator = TraceGenerator::new(&chip);
/// let spec = WorkloadSpec::Single(Benchmark::Fft);
/// let duration = Seconds::from_micros(100.0);
/// // Five 20 µs steps of 1 µs samples, streamed without holding the trace…
/// let mut streamed = StepMeans::new(chip.blocks().len(), 20, 5).unwrap();
/// generator.generate_into(&spec, duration, &mut streamed, |_, _| ()).unwrap();
/// assert_eq!(streamed.sample_count(), 100);
/// // …equal to the means of the held trace.
/// let mut held = StepMeans::new(chip.blocks().len(), 20, 5).unwrap();
/// held.push_trace(&generator.generate_spec(&spec, duration)).unwrap();
/// assert_eq!(streamed.finish().unwrap(), held.finish().unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct StepMeans {
    samples_per_step: usize,
    steps: usize,
    /// The finished steps, one mean per channel each.
    means: Vec<Vec<f64>>,
    /// Per channel: the running sum of the step being filled.
    step_sums: Vec<f64>,
    /// Samples in the step being filled.
    filled: usize,
    /// Per channel: the running sum of every sample pushed.
    totals: Vec<f64>,
    /// The latest column, held once the trace runs out.
    last: Vec<f64>,
    samples: usize,
}

impl StepMeans {
    /// An accumulator for `steps` steps of `samples_per_step` samples of
    /// `channels` channels.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when `samples_per_step` is zero.
    pub fn new(channels: usize, samples_per_step: usize, steps: usize) -> Result<Self> {
        if samples_per_step == 0 {
            return Err(Error::invalid_argument(
                "a step must span at least one sample",
            ));
        }
        Ok(StepMeans {
            samples_per_step,
            steps,
            means: Vec::with_capacity(steps),
            step_sums: vec![sum_start(); channels],
            filled: 0,
            totals: vec![sum_start(); channels],
            last: vec![0.0; channels],
            samples: 0,
        })
    }

    /// Adds every sample instant of `trace`, in order.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] when the trace's channel count
    /// differs from this accumulator's.
    pub fn push_trace(&mut self, trace: &ActivityTrace) -> Result<()> {
        let activity = trace.activity();
        self.check_channels(activity.channel_count())?;
        let mut column = vec![0.0; activity.channel_count()];
        for s in 0..activity.sample_count() {
            for (c, slot) in column.iter_mut().enumerate() {
                *slot = activity.channel(c)[s];
            }
            self.fold(&column);
        }
        Ok(())
    }

    fn check_channels(&self, channels: usize) -> Result<()> {
        if channels == self.totals.len() {
            Ok(())
        } else {
            Err(Error::DimensionMismatch {
                expected: self.totals.len(),
                actual: channels,
            })
        }
    }

    /// Adds the next sample instant, one value per channel; whether it
    /// closed a step.
    fn fold(&mut self, column: &[f64]) -> bool {
        for (total, &v) in self.totals.iter_mut().zip(column) {
            *total += v;
        }
        self.last.copy_from_slice(column);
        self.samples += 1;
        if self.means.len() == self.steps {
            return false;
        }
        for (sum, &v) in self.step_sums.iter_mut().zip(column) {
            *sum += v;
        }
        self.filled += 1;
        let closes = self.filled == self.samples_per_step;
        if closes {
            self.close_step();
        }
        closes
    }

    /// Sample instants pushed so far.
    pub fn sample_count(&self) -> usize {
        self.samples
    }

    /// Mean over every channel and sample pushed, bit-identical to
    /// [`ActivityTrace::mean_activity`] of the same samples; zero before
    /// the first sample.
    pub fn mean_activity(&self) -> f64 {
        let channels = self.totals.len();
        if channels == 0 || self.samples == 0 {
            return 0.0;
        }
        let total: f64 = self.totals.iter().sum();
        total / (channels * self.samples) as f64
    }

    /// Emits the `workload.trace` event [`ActivityTrace::emit_telemetry`]
    /// would for the samples pushed, as a trace of `spec`. No-op when
    /// `telemetry` is disabled.
    pub fn emit_telemetry(&self, telemetry: &Telemetry, spec: &WorkloadSpec) {
        emit_trace_event(telemetry, spec, self.totals.len(), self.samples, || {
            self.mean_activity()
        });
    }

    /// The `steps` per-step means, one value per channel each.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when no sample was pushed.
    pub fn finish(mut self) -> Result<Vec<Vec<f64>>> {
        if self.samples == 0 {
            return Err(Error::invalid_argument("trace has no samples"));
        }
        if self.filled > 0 {
            self.close_step();
        }
        while self.means.len() < self.steps {
            self.filled = 1;
            for (sum, &v) in self.step_sums.iter_mut().zip(&self.last) {
                *sum += v;
            }
            self.close_step();
        }
        Ok(self.means)
    }

    /// Appends the means of the `filled` samples summed so far and
    /// starts the next step.
    fn close_step(&mut self) {
        let n = self.filled as f64;
        self.means
            .push(self.step_sums.iter().map(|&sum| sum / n).collect());
        self.step_sums.fill(sum_start());
        self.filled = 0;
    }
}

/// Generates synthetic activity traces for a chip.
///
/// One sample loop serves both outputs: [`TraceGenerator::generate_spec`]
/// holds every sample in an [`ActivityTrace`], and
/// [`TraceGenerator::generate_into`] streams the same samples into a
/// [`StepMeans`], which keeps only per-step means — what a simulation
/// replays — so a long trace need never be held.
///
/// # Examples
///
/// ```
/// use workload::{Benchmark, TraceGenerator};
/// use floorplan::reference::power8_like;
/// use simkit::units::Seconds;
///
/// let chip = power8_like();
/// let trace = TraceGenerator::new(&chip)
///     .generate(Benchmark::Fft, Seconds::from_millis(1.0));
/// assert_eq!(trace.sample_count(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator<'a> {
    chip: &'a Floorplan,
    dt: Seconds,
    seed_offset: u64,
}

impl<'a> TraceGenerator<'a> {
    /// Creates a generator for the given chip with the default 1 µs
    /// resolution.
    pub fn new(chip: &'a Floorplan) -> Self {
        TraceGenerator {
            chip,
            dt: DEFAULT_DT,
            seed_offset: 0,
        }
    }

    /// Overrides the sample interval.
    ///
    /// # Panics
    ///
    /// Panics when `dt` is not positive.
    pub fn with_dt(mut self, dt: Seconds) -> Self {
        assert!(dt.get() > 0.0, "dt must be positive");
        self.dt = dt;
        self
    }

    /// Perturbs the per-benchmark seed, e.g. to generate independent
    /// replicas of the same benchmark.
    pub fn with_seed_offset(mut self, offset: u64) -> Self {
        self.seed_offset = offset;
        self
    }

    /// Generates the activity trace of a single benchmark for
    /// `duration`.
    ///
    /// Deterministic: the same generator configuration always produces
    /// the same trace.
    ///
    /// # Panics
    ///
    /// Panics when `duration` is shorter than one sample.
    pub fn generate(&self, benchmark: Benchmark, duration: Seconds) -> ActivityTrace {
        self.generate_spec(&WorkloadSpec::Single(benchmark), duration)
    }

    /// Generates the activity trace of an arbitrary workload spec —
    /// single-program or multiprogrammed — for `duration`.
    ///
    /// In a mix, each core runs its own benchmark's stochastic process;
    /// shared uncore blocks see the utilisation-and-memory-intensity mix
    /// the cores collectively produce.
    ///
    /// # Panics
    ///
    /// Panics when `duration` is shorter than one sample.
    pub fn generate_spec(&self, spec: &WorkloadSpec, duration: Seconds) -> ActivityTrace {
        let mut matrix = TraceMatrix::new(self.chip.blocks().len(), self.dt);
        self.for_each_column(spec, duration, |column| {
            matrix
                .push_column(column)
                .expect("column length fixed to block count");
        });
        ActivityTrace {
            spec: spec.clone(),
            activity: matrix,
        }
    }

    /// Streams the trace [`TraceGenerator::generate_spec`] would return
    /// into `means`, one sample instant at a time, so the trace itself is
    /// never held: only the generator's per-core and per-block state and
    /// one column of activities live while it runs. As each step closes,
    /// `step_closed(i, row)` sees its index and its means, the row
    /// [`StepMeans::finish`] returns at `i`, so a caller can use a step
    /// while later ones are still being generated; steps that `finish`
    /// pads past the trace's end are not reported.
    ///
    /// # Panics
    ///
    /// Panics when `duration` is shorter than one sample.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] when `means` does not take one
    /// channel per block of the chip.
    pub fn generate_into(
        &self,
        spec: &WorkloadSpec,
        duration: Seconds,
        means: &mut StepMeans,
        mut step_closed: impl FnMut(usize, &[f64]),
    ) -> Result<()> {
        means.check_channels(self.chip.blocks().len())?;
        self.for_each_column(spec, duration, |column| {
            if means.fold(column) {
                if let Some(row) = means.means.last() {
                    step_closed(means.means.len() - 1, row);
                }
            }
        });
        Ok(())
    }

    /// The one sample loop behind [`TraceGenerator::generate_spec`] and
    /// [`TraceGenerator::generate_into`]: hands `visit` the activity of
    /// every block at each sample instant, in time order.
    fn for_each_column(
        &self,
        spec: &WorkloadSpec,
        duration: Seconds,
        mut visit: impl FnMut(&[f64]),
    ) {
        let samples = (duration.get() / self.dt.get()).round() as usize;
        assert!(samples > 0, "duration shorter than one sample");
        let mut rng = DeterministicRng::new(spec.seed() ^ self.seed_offset);

        let cores = self.core_indices();
        let distinct_cores = self
            .chip
            .domains()
            .iter()
            .filter(|d| d.kind() == DomainKind::Core)
            .count()
            .max(1);

        // Per-core profile and state: imbalance factor, phase offset,
        // AR(1) noise, burst countdown, burst RNG.
        let core_profiles: Vec<BenchmarkProfile> = (0..distinct_cores)
            .map(|i| spec.profile_for_core(i))
            .collect();
        let mut core_state: Vec<CoreState> = core_profiles
            .iter()
            .enumerate()
            .map(|(i, profile)| CoreState::new(&mut rng, profile, i))
            .collect();
        // Per-block jitter streams.
        let mut block_rng: Vec<DeterministicRng> = (0..self.chip.blocks().len())
            .map(|i| rng.fork(i as u64))
            .collect();
        // Uncore shares one slower AR(1) wander, parameterised by the
        // average noise character of the mix.
        let uncore_ar =
            core_profiles.iter().map(|p| p.noise_ar).sum::<f64>() / core_profiles.len() as f64;
        let uncore_sigma =
            core_profiles.iter().map(|p| p.noise_sigma).sum::<f64>() / core_profiles.len() as f64;
        let mut uncore_noise = 0.0f64;
        let mut uncore_rng = rng.fork(0xDEAD);

        let mut column = vec![0.0f64; self.chip.blocks().len()];
        let dt_us = self.dt.as_micros();

        for s in 0..samples {
            let t_us = s as f64 * dt_us;
            // Advance per-core processes.
            for (state, profile) in core_state.iter_mut().zip(&core_profiles) {
                state.step(profile, t_us, dt_us);
            }
            // Memory traffic the cores collectively generate.
            let mean_memory_drive = core_state
                .iter()
                .zip(&core_profiles)
                .map(|(c, p)| c.util * p.memory_intensity)
                .sum::<f64>()
                / core_state.len() as f64;
            // Uncore wander.
            uncore_noise = uncore_ar * uncore_noise
                + uncore_sigma * 0.5 * (1.0 - uncore_ar * uncore_ar).sqrt() * uncore_rng.normal();

            for (block_idx, block) in self.chip.blocks().iter().enumerate() {
                let jitter = 0.02 * block_rng[block_idx].normal();
                let util = match cores[block_idx] {
                    Some(core) => {
                        let core_util = core_state[core].util;
                        let mem = core_profiles[core].memory_intensity;
                        core_util * kind_weight(block.kind(), mem) + jitter
                    }
                    None => {
                        let w = uncore_weight(block.kind());
                        mean_memory_drive * w + uncore_noise + jitter
                    }
                };
                column[block_idx] = util.clamp(0.02, 1.0);
            }
            visit(&column);
        }
    }

    /// For each block: the index (0-based, over core domains only) of the
    /// core domain it belongs to, or `None` for uncore blocks.
    fn core_indices(&self) -> Vec<Option<usize>> {
        let mut core_of_domain = vec![None; self.chip.domains().len()];
        let mut next = 0usize;
        for (i, d) in self.chip.domains().iter().enumerate() {
            if d.kind() == DomainKind::Core {
                core_of_domain[i] = Some(next);
                next += 1;
            }
        }
        let mut out = vec![None; self.chip.blocks().len()];
        for domain in self.chip.domains() {
            for &bid in domain.blocks() {
                out[bid.0] = core_of_domain[domain.id().0];
            }
        }
        out
    }
}

/// Relative activity of a unit inside an active core.
fn kind_weight(kind: UnitKind, memory_intensity: f64) -> f64 {
    match kind {
        UnitKind::Execution => 1.0 + 0.15 * (1.0 - memory_intensity),
        UnitKind::LoadStore => 0.85 + 0.25 * memory_intensity,
        UnitKind::InstructionSchedule => 0.78,
        UnitKind::InstructionFetch => 0.72,
        UnitKind::L2Cache => 0.40 + 0.35 * memory_intensity,
        // Uncore kinds normally route through `uncore_weight`, but a
        // custom floorplan may place them inside a core domain.
        UnitKind::L3Cache => 0.35 + 0.40 * memory_intensity,
        UnitKind::Noc => 0.50,
        UnitKind::MemoryController => 0.45,
        // `UnitKind` is non-exhaustive; treat future kinds as average logic.
        _ => 0.70,
    }
}

/// Relative activity of an uncore block, applied on top of
/// `mean_core_util × memory_intensity`.
fn uncore_weight(kind: UnitKind) -> f64 {
    match kind {
        UnitKind::L3Cache => 0.80,
        UnitKind::Noc => 0.95,
        UnitKind::MemoryController => 0.85,
        // A logic unit in an uncore domain behaves like moderate logic.
        _ => 0.70,
    }
}

#[derive(Debug)]
struct CoreState {
    imbalance: f64,
    phase_offset: f64,
    noise: f64,
    burst_remaining_us: f64,
    util: f64,
    rng: DeterministicRng,
}

impl CoreState {
    fn new(rng: &mut DeterministicRng, profile: &BenchmarkProfile, index: usize) -> Self {
        let mut core_rng = rng.fork(0x636F_7265 ^ index as u64);
        let imbalance = 1.0 + profile.thread_imbalance * (2.0 * core_rng.uniform_f64() - 1.0);
        // Barrier-synchronised codes keep every thread on (nearly) the
        // same phase; task-parallel ones drift apart.
        let phase_offset = (1.0 - profile.phase_sync) * core_rng.uniform_f64();
        CoreState {
            imbalance,
            phase_offset,
            noise: 0.0,
            burst_remaining_us: 0.0,
            util: profile.mean_util,
            rng: core_rng,
        }
    }

    fn step(&mut self, profile: &BenchmarkProfile, t_us: f64, dt_us: f64) {
        // Plateau-shaped program phases: tanh-squashed sinusoid.
        let raw =
            (2.0 * std::f64::consts::PI * (t_us / profile.phase_period_us + self.phase_offset))
                .sin();
        let phase = (3.0 * raw).tanh() / 3.0f64.tanh();
        // AR(1) noise with stationary variance `noise_sigma²`.
        self.noise = profile.noise_ar * self.noise
            + profile.noise_sigma
                * (1.0 - profile.noise_ar * profile.noise_ar).sqrt()
                * self.rng.normal();
        // Poisson burst arrivals.
        if self.burst_remaining_us > 0.0 {
            self.burst_remaining_us -= dt_us;
        } else {
            let p_arrival = profile.burst_rate_per_ms * dt_us / 1000.0;
            if self.rng.bernoulli(p_arrival) {
                self.burst_remaining_us = profile.burst_len_us;
            }
        }
        let burst = if self.burst_remaining_us > 0.0 {
            profile.burst_gain
        } else {
            0.0
        };
        self.util =
            (profile.mean_util * self.imbalance + profile.phase_depth * phase + self.noise + burst)
                .clamp(0.02, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::reference::power8_like;

    fn short_trace(benchmark: Benchmark) -> (floorplan::Floorplan, ActivityTrace) {
        let chip = power8_like();
        let trace = TraceGenerator::new(&chip).generate(benchmark, Seconds::from_millis(2.0));
        (chip, trace)
    }

    #[test]
    fn trace_shape_matches_chip_and_duration() {
        let (chip, trace) = short_trace(Benchmark::Barnes);
        assert_eq!(trace.activity().channel_count(), chip.blocks().len());
        assert_eq!(trace.sample_count(), 2000);
        assert_eq!(trace.benchmark(), Benchmark::Barnes);
    }

    #[test]
    fn trace_summary_telemetry() {
        use simkit::telemetry::{EventKind, FieldValue, Telemetry};

        let (_, trace) = short_trace(Benchmark::Fft);
        let mean = trace.mean_activity();
        assert!(mean > 0.0 && mean < 1.0, "mean activity {mean}");
        let (tel, sink) = Telemetry::recorder();
        trace.emit_telemetry(&tel);
        trace.emit_telemetry(&Telemetry::disabled());
        assert_eq!(sink.count_kind(EventKind::Progress), 1);
        let event = &sink.events()[0];
        assert_eq!(event.name, "workload.trace");
        assert!(event
            .fields
            .iter()
            .any(|(k, v)| k == "samples" && *v == FieldValue::U64(2000)));
    }

    #[test]
    fn activities_stay_in_unit_interval() {
        let (_, trace) = short_trace(Benchmark::Fft);
        for ch in 0..trace.activity().channel_count() {
            for &v in trace.activity().channel(ch) {
                assert!((0.0..=1.0).contains(&v), "activity {v}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let chip = power8_like();
        let a = TraceGenerator::new(&chip).generate(Benchmark::Radix, Seconds::from_millis(1.0));
        let b = TraceGenerator::new(&chip).generate(Benchmark::Radix, Seconds::from_millis(1.0));
        assert_eq!(a, b);
    }

    #[test]
    fn seed_offset_changes_the_trace() {
        let chip = power8_like();
        let a = TraceGenerator::new(&chip).generate(Benchmark::Radix, Seconds::from_millis(1.0));
        let b = TraceGenerator::new(&chip)
            .with_seed_offset(1)
            .generate(Benchmark::Radix, Seconds::from_millis(1.0));
        assert_ne!(a, b);
    }

    #[test]
    fn cholesky_runs_hotter_than_raytrace() {
        let (_, chol) = short_trace(Benchmark::Cholesky);
        let (_, rayt) = short_trace(Benchmark::Raytrace);
        let mean = |t: &ActivityTrace| {
            let total = t.activity().total();
            total.mean().unwrap() / t.activity().channel_count() as f64
        };
        assert!(mean(&chol) > 2.0 * mean(&rayt));
    }

    #[test]
    fn exu_is_more_active_than_l2_within_a_core() {
        let (chip, trace) = short_trace(Benchmark::Barnes);
        let exu = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core0.EXU")
            .unwrap();
        let l2 = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core0.L2")
            .unwrap();
        let mean = |bid: BlockId| {
            let v = trace.block_activity(bid);
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(exu.id()) > mean(l2.id()));
    }

    #[test]
    fn lu_ncb_shows_phase_structure() {
        // The per-chip total should swing appreciably over a phase period.
        let (_, trace) = short_trace(Benchmark::LuNcb);
        let total = trace.activity().total();
        let smoothed = total.downsample(100).unwrap(); // 100 µs bins
        let max = smoothed.max().unwrap();
        let min = smoothed.min().unwrap();
        assert!(
            (max - min) / max > 0.25,
            "phase swing too small: {min}..{max}"
        );
    }

    /// Per-step means the way a replay reads a held trace: each step
    /// sums its window with `Iterator::sum`, a step past the trace's end
    /// reads the final sample alone.
    fn held_step_means(trace: &ActivityTrace, per_step: usize, steps: usize) -> Vec<Vec<f64>> {
        let n = trace.sample_count();
        (0..steps)
            .map(|s| {
                let lo = (s * per_step).min(n - 1);
                let hi = ((s + 1) * per_step).min(n).max(lo + 1);
                (0..trace.activity().channel_count())
                    .map(|c| {
                        let window = &trace.activity().channel(c)[lo..hi];
                        window.iter().sum::<f64>() / window.len() as f64
                    })
                    .collect()
            })
            .collect()
    }

    fn bits(steps: &[Vec<f64>]) -> Vec<Vec<u64>> {
        steps
            .iter()
            .map(|step| step.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn streamed_step_means_are_bit_identical_to_the_held_trace() {
        let chip = power8_like();
        let generator = TraceGenerator::new(&chip);
        let spec: WorkloadSpec =
            crate::WorkloadMix::alternating(Benchmark::Cholesky, Benchmark::Raytrace, 8).into();
        let duration = Seconds::from_micros(1000.0);
        let trace = generator.generate_spec(&spec, duration);
        // Whole steps, a trace ending mid-step and held for 40 more, and
        // a trace longer than the steps asked for.
        for (per_step, steps) in [(20, 50), (20, 1), (7, 183), (1000, 3), (3, 100)] {
            let blocks = chip.blocks().len();
            let mut streamed = StepMeans::new(blocks, per_step, steps).unwrap();
            let mut closed = Vec::new();
            generator
                .generate_into(&spec, duration, &mut streamed, |i, row| {
                    closed.push((i, row.to_vec()));
                })
                .unwrap();
            let mut replayed = StepMeans::new(blocks, per_step, steps).unwrap();
            replayed.push_trace(&trace).unwrap();
            assert_eq!(streamed.sample_count(), trace.sample_count());
            assert_eq!(
                streamed.mean_activity().to_bits(),
                trace.mean_activity().to_bits()
            );
            let expected = bits(&held_step_means(&trace, per_step, steps));
            // Each step the samples close is reported once, in order, as
            // its final row; the padded steps are not.
            let whole = steps.min(trace.sample_count() / per_step);
            let (indices, rows): (Vec<usize>, Vec<Vec<f64>>) = closed.into_iter().unzip();
            assert_eq!(
                indices,
                (0..whole).collect::<Vec<_>>(),
                "{per_step}×{steps}"
            );
            assert_eq!(bits(&rows), expected[..whole], "{per_step}×{steps}");
            assert_eq!(
                bits(&streamed.finish().unwrap()),
                expected,
                "{per_step}×{steps}"
            );
            assert_eq!(
                bits(&replayed.finish().unwrap()),
                expected,
                "{per_step}×{steps}"
            );
        }
    }

    #[test]
    fn a_held_sample_keeps_its_sign_and_bad_shapes_are_errors() {
        let mut means = StepMeans::new(2, 2, 3).unwrap();
        means.fold(&[-0.0, 1.0]);
        let steps = means.finish().unwrap();
        assert_eq!(steps.len(), 3);
        for step in &steps {
            let expected = [[-0.0f64].iter().sum::<f64>(), 1.0];
            assert_eq!(step[0].to_bits(), expected[0].to_bits());
            assert_eq!(step[1], expected[1]);
        }
        assert!(StepMeans::new(2, 0, 3).is_err());
        assert!(StepMeans::new(2, 2, 3).unwrap().finish().is_err());
        let mut means = StepMeans::new(2, 2, 3).unwrap();
        let chip = power8_like();
        let duration = Seconds::from_micros(10.0);
        let spec = WorkloadSpec::Single(Benchmark::Fft);
        let generator = TraceGenerator::new(&chip);
        assert!(generator
            .generate_into(&spec, duration, &mut means, |_, _| ())
            .is_err());
        assert_eq!(means.sample_count(), 0);
    }

    #[test]
    fn streamed_and_held_traces_emit_the_same_event() {
        use simkit::telemetry::Telemetry;

        let chip = power8_like();
        let generator = TraceGenerator::new(&chip);
        let spec = WorkloadSpec::Single(Benchmark::LuNcb);
        let duration = Seconds::from_millis(2.0);
        let (held_tel, held) = Telemetry::recorder();
        generator
            .generate_spec(&spec, duration)
            .emit_telemetry(&held_tel);
        let (streamed_tel, streamed) = Telemetry::recorder();
        let mut means = StepMeans::new(chip.blocks().len(), 20, 100).unwrap();
        generator
            .generate_into(&spec, duration, &mut means, |_, _| ())
            .unwrap();
        means.emit_telemetry(&streamed_tel, &spec);
        means.emit_telemetry(&Telemetry::disabled(), &spec);
        let fields = |sink: &simkit::telemetry::MemorySink| {
            let events = sink.events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].name, "workload.trace");
            events[0].fields.clone()
        };
        assert_eq!(fields(&streamed), fields(&held));
    }

    #[test]
    fn custom_dt_respected() {
        let chip = power8_like();
        let trace = TraceGenerator::new(&chip)
            .with_dt(Seconds::from_micros(10.0))
            .generate(Benchmark::Volrend, Seconds::from_millis(1.0));
        assert_eq!(trace.sample_count(), 100);
        assert!((trace.dt().as_micros() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn different_benchmarks_differ() {
        let chip = power8_like();
        let a = TraceGenerator::new(&chip).generate(Benchmark::Fft, Seconds::from_millis(1.0));
        let b = TraceGenerator::new(&chip).generate(Benchmark::Fmm, Seconds::from_millis(1.0));
        assert_ne!(a.activity(), b.activity());
    }
}
