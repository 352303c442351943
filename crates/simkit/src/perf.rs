//! Lightweight wall-clock instrumentation for the simulation hot paths.
//!
//! The engine attributes its runtime to a small set of named phases
//! (trace synthesis, predictor calibration, transient stepping, PDN noise
//! analysis, …) so that optimisation work is measurable in-repo instead
//! of guessed at. A [`Timer`] measures one span; a [`PhaseTimes`]
//! accumulates spans per phase for the reports in `experiments::report`,
//! and [`PhaseTimes::timed`] times one call as one sample of a phase,
//! inside a telemetry span of its own.
//!
//! The accumulator keys phases by `&'static str` and stores them in
//! insertion order in a small vector — no hashing, no allocation per
//! sample, deterministic order.
//!
//! # Examples
//!
//! ```
//! use simkit::perf::PhaseTimes;
//! use simkit::telemetry::Telemetry;
//!
//! let tel = Telemetry::disabled();
//! let mut phases = PhaseTimes::new();
//! let sum = PhaseTimes::timed(&mut phases, &tel, "outer", "demo.outer", |phases| {
//!     // Timed inside `outer`: its seconds are not `outer`'s.
//!     PhaseTimes::timed(phases, &tel, "inner", "demo.inner", |_| {
//!         (0..100).map(|i| i as f64).sum::<f64>()
//!     })
//! });
//! assert_eq!(sum, 4950.0);
//! assert_eq!(phases.samples("outer"), 1);
//! assert_eq!(phases.samples("inner"), 1);
//! ```

use crate::linalg::SolveStats;
use crate::telemetry::Telemetry;
use std::time::Instant;

/// A started wall-clock timer; read it with
/// [`elapsed_seconds`](Timer::elapsed_seconds).
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    started: Instant,
}

impl Timer {
    /// Starts timing now.
    pub fn start() -> Self {
        Timer {
            started: Instant::now(),
        }
    }

    /// Seconds since [`Timer::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Per-phase accumulated wall-clock time.
///
/// Phases appear in the report in the order they were first recorded.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    phases: Vec<(&'static str, f64, u64)>,
}

impl PhaseTimes {
    /// An empty accumulator.
    pub fn new() -> Self {
        PhaseTimes::default()
    }

    /// Adds `seconds` to `phase`, creating the phase on first use.
    pub fn add(&mut self, phase: &'static str, seconds: f64) {
        if let Some(entry) = self.phases.iter_mut().find(|(name, _, _)| *name == phase) {
            entry.1 += seconds;
            entry.2 += 1;
        } else {
            self.phases.push((phase, seconds, 1));
        }
    }

    /// Merges another accumulator into this one (summing shared phases).
    pub fn merge(&mut self, other: &PhaseTimes) {
        for &(name, seconds, samples) in &other.phases {
            if let Some(entry) = self.phases.iter_mut().find(|(n, _, _)| *n == name) {
                entry.1 += seconds;
                entry.2 += samples;
            } else {
                self.phases.push((name, seconds, samples));
            }
        }
    }

    /// Accumulated seconds for one phase (0.0 when never recorded).
    pub fn seconds(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .find(|(name, _, _)| *name == phase)
            .map_or(0.0, |&(_, s, _)| s)
    }

    /// Number of recorded spans for one phase.
    pub fn samples(&self, phase: &str) -> u64 {
        self.phases
            .iter()
            .find(|(name, _, _)| *name == phase)
            .map_or(0, |&(_, _, n)| n)
    }

    /// Sum over all phases.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|&(_, s, _)| s).sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Iterates `(phase, seconds, samples)` in first-recorded order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, u64)> + '_ {
        self.phases.iter().copied()
    }

    /// Runs `f` as one sample of `phase`, inside the telemetry span
    /// `span` (no event when `telemetry` is disabled). `f` is handed the
    /// ledger, and what it times there is nested: those seconds go to
    /// their own phases and are taken out of this sample. So the phases
    /// never overlap, and [`PhaseTimes::total_seconds`] is at most the
    /// wall time spent in the outermost calls.
    ///
    /// `ledger` is the accumulator itself or a value that holds one, so
    /// that `f` can reach the rest of that value while it runs.
    pub fn timed<L: AsMut<PhaseTimes>, T>(
        ledger: &mut L,
        telemetry: &Telemetry,
        phase: &'static str,
        span: &'static str,
        f: impl FnOnce(&mut L) -> T,
    ) -> T {
        let before = ledger.as_mut().total_seconds();
        let t = Timer::start();
        let span = telemetry.span(span);
        let out = f(ledger);
        span.finish();
        let elapsed = t.elapsed_seconds();
        let perf = ledger.as_mut();
        let nested = perf.total_seconds() - before;
        perf.add(phase, elapsed - nested);
        out
    }
}

impl AsMut<PhaseTimes> for PhaseTimes {
    fn as_mut(&mut self) -> &mut PhaseTimes {
        self
    }
}

/// Aggregate over many iterative solves: count, total iterations, and
/// residual extremes — what the engine accumulates per phase so solver
/// behaviour is visible in results, not dropped on the floor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolverAgg {
    /// Number of solves folded in.
    pub solves: u64,
    /// Total iterations (or sweeps) across all solves.
    pub iterations: u64,
    /// Sum of final relative residuals (for the mean).
    pub sum_residual: f64,
    /// Worst (largest) final relative residual seen.
    pub max_residual: f64,
}

impl SolverAgg {
    /// Folds one solve in.
    pub fn record(&mut self, stats: SolveStats) {
        self.solves += 1;
        self.iterations += stats.iterations as u64;
        self.sum_residual += stats.residual;
        self.max_residual = self.max_residual.max(stats.residual);
    }

    /// Merges another aggregate in.
    pub fn merge(&mut self, other: &SolverAgg) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.sum_residual += other.sum_residual;
        self.max_residual = self.max_residual.max(other.max_residual);
    }

    /// Mean iterations per solve (0.0 when empty).
    pub fn mean_iterations(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.iterations as f64 / self.solves as f64
        }
    }

    /// Mean final relative residual (0.0 when empty).
    pub fn mean_residual(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.sum_residual / self.solves as f64
        }
    }
}

/// Per-phase [`SolverAgg`] accumulator, keyed like [`PhaseTimes`] by
/// `&'static str` in insertion order.
///
/// # Examples
///
/// ```
/// use simkit::linalg::SolveStats;
/// use simkit::perf::SolverProfile;
///
/// let mut profile = SolverProfile::new();
/// profile.record("transient", SolveStats { iterations: 4, residual: 1e-9 });
/// profile.record("transient", SolveStats { iterations: 6, residual: 2e-9 });
/// let agg = profile.get("transient").unwrap();
/// assert_eq!(agg.solves, 2);
/// assert_eq!(agg.iterations, 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverProfile {
    phases: Vec<(&'static str, SolverAgg)>,
}

impl SolverProfile {
    /// An empty profile.
    pub fn new() -> Self {
        SolverProfile::default()
    }

    /// Folds one solve into `phase`, creating the phase on first use.
    pub fn record(&mut self, phase: &'static str, stats: SolveStats) {
        if let Some(entry) = self.phases.iter_mut().find(|(name, _)| *name == phase) {
            entry.1.record(stats);
        } else {
            let mut agg = SolverAgg::default();
            agg.record(stats);
            self.phases.push((phase, agg));
        }
    }

    /// Merges a pre-aggregated [`SolverAgg`] into `phase`.
    pub fn merge_agg(&mut self, phase: &'static str, agg: &SolverAgg) {
        if agg.solves == 0 {
            return;
        }
        if let Some(entry) = self.phases.iter_mut().find(|(name, _)| *name == phase) {
            entry.1.merge(agg);
        } else {
            self.phases.push((phase, *agg));
        }
    }

    /// Merges another profile in.
    pub fn merge(&mut self, other: &SolverProfile) {
        for (phase, agg) in &other.phases {
            self.merge_agg(phase, agg);
        }
    }

    /// The aggregate for one phase, when any solve was recorded there.
    pub fn get(&self, phase: &str) -> Option<SolverAgg> {
        self.phases
            .iter()
            .find(|(name, _)| *name == phase)
            .map(|(_, agg)| *agg)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Iterates `(phase, aggregate)` in first-recorded order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, SolverAgg)> + '_ {
        self.phases.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_nonnegative_time() {
        let t = Timer::start();
        assert!(t.elapsed_seconds() >= 0.0);
    }

    #[test]
    fn phases_accumulate_in_insertion_order() {
        let mut p = PhaseTimes::new();
        p.add("transient", 1.0);
        p.add("noise", 0.25);
        p.add("transient", 0.5);
        let order: Vec<&str> = p.iter().map(|(n, _, _)| n).collect();
        assert_eq!(order, ["transient", "noise"]);
        assert!((p.seconds("transient") - 1.5).abs() < 1e-12);
        assert_eq!(p.samples("transient"), 2);
        assert_eq!(p.samples("noise"), 1);
        assert!((p.total_seconds() - 1.75).abs() < 1e-12);
        assert_eq!(p.seconds("absent"), 0.0);
    }

    #[test]
    fn merge_sums_shared_phases_and_appends_new() {
        let mut a = PhaseTimes::new();
        a.add("steady", 2.0);
        let mut b = PhaseTimes::new();
        b.add("steady", 1.0);
        b.add("policy", 0.1);
        a.merge(&b);
        assert!((a.seconds("steady") - 3.0).abs() < 1e-12);
        assert_eq!(a.samples("steady"), 2);
        assert!((a.seconds("policy") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn solver_profile_accumulates_and_merges() {
        let mut a = SolverProfile::new();
        a.record(
            "transient",
            SolveStats {
                iterations: 4,
                residual: 1e-9,
            },
        );
        a.record(
            "transient",
            SolveStats {
                iterations: 8,
                residual: 3e-9,
            },
        );
        a.record(
            "steady",
            SolveStats {
                iterations: 100,
                residual: 1e-11,
            },
        );
        let t = a.get("transient").unwrap();
        assert_eq!(t.solves, 2);
        assert_eq!(t.iterations, 12);
        assert!((t.mean_iterations() - 6.0).abs() < 1e-12);
        assert!((t.mean_residual() - 2e-9).abs() < 1e-21);
        assert_eq!(t.max_residual, 3e-9);
        assert!(a.get("absent").is_none());

        let mut b = SolverProfile::new();
        b.record(
            "transient",
            SolveStats {
                iterations: 2,
                residual: 5e-9,
            },
        );
        b.record(
            "noise",
            SolveStats {
                iterations: 30,
                residual: 1e-10,
            },
        );
        a.merge(&b);
        assert_eq!(a.get("transient").unwrap().solves, 3);
        assert_eq!(a.get("transient").unwrap().max_residual, 5e-9);
        assert_eq!(a.get("noise").unwrap().solves, 1);
        let order: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(order, ["transient", "steady", "noise"]);
    }

    #[test]
    fn nested_phases_are_exclusive() {
        let tel = Telemetry::disabled();
        let busy = || {
            let t = Timer::start();
            while t.elapsed_seconds() < 1e-3 {}
        };
        let mut p = PhaseTimes::new();
        let outer = Timer::start();
        PhaseTimes::timed(&mut p, &tel, "policy", "t.policy", |p| {
            busy();
            PhaseTimes::timed(p, &tel, "noise", "t.noise", |_| busy());
            PhaseTimes::timed(p, &tel, "noise", "t.noise", |_| busy());
        });
        let wall = outer.elapsed_seconds();
        assert_eq!(p.samples("policy"), 1);
        assert_eq!(p.samples("noise"), 2);
        assert!(p.seconds("noise") >= 2e-3);
        assert!(p.seconds("policy") >= 1e-3);
        // Double-counting the nested noise would put the total near
        // 5 ms against a ~3 ms wall time.
        assert!(p.total_seconds() <= wall, "{} > {wall}", p.total_seconds());
    }

    #[test]
    fn empty_accumulator_has_zero_total() {
        let p = PhaseTimes::new();
        assert!(p.is_empty());
        assert_eq!(p.total_seconds(), 0.0);
    }
}
