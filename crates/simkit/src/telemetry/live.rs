//! Live (streaming) trace aggregation with bounded memory.
//!
//! A finished trace folds into an exact [`TraceAnalysis`], keeping every
//! observation so its percentiles are exact. A watcher that follows a
//! multi-hour sweep cannot afford a growing buffer per metric, and an
//! in-process health monitor must not turn the run it watches into an
//! allocation benchmark. This module holds the two pieces that make the
//! same aggregate live:
//!
//! * [`P2Grid`] — an extended-P² (Jain & Chlamtac; Raatikainen's
//!   multi-quantile extension) marker grid: thirteen markers tracking
//!   several quantiles jointly in O(1) memory and O(1) update, exact
//!   for the first thirteen observations and validated against the
//!   exact [`stats::percentile`](crate::stats::percentile) in tests.
//!   The dense grid keeps every reported quantile's interpolation
//!   bracket narrow, which is what lets the estimate survive bimodal
//!   gaps and heavy tails that defeat the classic five-marker form. It
//!   is the quantile store of
//!   [`TraceAnalysis::streaming`](super::analyze::TraceAnalysis::streaming);
//! * [`LiveSink`] — a [`TelemetrySink`] folding events into a streaming
//!   [`TraceAnalysis`] as they are emitted, self-timing its own cost so
//!   a run can report (and CI can gate) the overhead of being watched.
//!
//! The [`rules`](super::rules) module evaluates health rules over a
//! [`TraceAnalysis`]; `tg-obs watch` re-renders one as a live status
//! line.

use super::analyze::TraceAnalysis;
use super::{Event, TelemetrySink};
use crate::stats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The marker grid: the quantile each marker tracks. Chosen so every
/// *reported* quantile (0.5, 0.95, 0.99) has both neighbours within
/// 0.125 rank points — narrow interpolation brackets are what keep the
/// estimates honest across bimodal density gaps and heavy tails, where
/// the classic five-marker P² (whose median bracket spans 0.25–0.75)
/// drifts by tens of rank points.
const MARKER_Q: [f64; 13] = [
    0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.6875, 0.75, 0.875, 0.95, 0.975, 0.99, 1.0,
];

/// Number of markers in the grid.
const MARKERS: usize = MARKER_Q.len();

/// Streaming multi-quantile estimator via the extended P² algorithm
/// (Jain & Chlamtac, CACM 1985; Raatikainen's simultaneous-quantile
/// extension): a fixed grid of thirteen markers whose heights converge
/// on the [`MARKER_Q`] quantiles without storing the sample.
///
/// The first thirteen observations are kept verbatim, so estimates for
/// n ≤ 13 equal the exact linear-interpolated percentile. Beyond that
/// the estimate carries the algorithm's usual error, which shrinks with
/// sample size and is bounded in rank terms (see the module tests for
/// the documented tolerance).
#[derive(Debug, Clone, PartialEq)]
pub struct P2Grid {
    /// Marker heights (sorted ascending once initialised).
    heights: [f64; MARKERS],
    /// Actual marker positions (1-based ranks).
    positions: [f64; MARKERS],
    /// Observations folded in so far.
    count: u64,
}

impl Default for P2Grid {
    fn default() -> Self {
        P2Grid::new()
    }
}

impl P2Grid {
    /// A fresh estimator.
    pub fn new() -> Self {
        P2Grid {
            heights: [0.0; MARKERS],
            positions: [0.0; MARKERS],
            count: 0,
        }
    }

    /// Observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one finite observation in. Non-finite values must be
    /// filtered by the caller (the rollup layer counts them separately).
    pub fn observe(&mut self, x: f64) {
        if (self.count as usize) < MARKERS {
            self.heights[self.count as usize] = x;
            self.count += 1;
            if self.count as usize == MARKERS {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
                for (i, p) in self.positions.iter_mut().enumerate() {
                    *p = (i + 1) as f64;
                }
            }
            return;
        }
        self.count += 1;

        // Locate the marker cell containing x, extending the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[MARKERS - 1] {
            self.heights[MARKERS - 1] = x;
            MARKERS - 2
        } else {
            // heights[k] <= x < heights[k+1] for some interior k.
            (0..MARKERS - 1)
                .find(|&i| x < self.heights[i + 1])
                .expect("x is below the top marker")
        };
        for i in (k + 1)..MARKERS {
            self.positions[i] += 1.0;
        }

        // Nudge the interior markers toward their desired ranks.
        let n = self.count as f64;
        for (i, &q) in MARKER_Q.iter().enumerate().take(MARKERS - 1).skip(1) {
            let desired = 1.0 + (n - 1.0) * q;
            let d = desired - self.positions[i];
            let ahead = self.positions[i + 1] - self.positions[i];
            let behind = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && ahead > 1.0) || (d <= -1.0 && behind < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height update for marker `i`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    /// Linear fallback when the parabola escapes the neighbour heights.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate of quantile `q`; `None` before any
    /// observation or for a `q` the grid does not track. Exact
    /// (matching [`stats::percentile`]) while n ≤ 13.
    pub fn estimate(&self, q: f64) -> Option<f64> {
        let marker = MARKER_Q.iter().position(|&t| (t - q).abs() < 1e-12)?;
        match self.count {
            0 => None,
            n if (n as usize) < MARKERS => {
                let mut head = self.heights[..n as usize].to_vec();
                head.sort_by(|a, b| a.partial_cmp(b).expect("finite heights"));
                stats::percentile(&head, q * 100.0)
            }
            _ => Some(self.heights[marker]),
        }
    }
}

/// A [`TelemetrySink`] that folds every event into a streaming
/// [`TraceAnalysis`] as it is emitted, timing itself so the run can
/// report what live aggregation cost.
///
/// Intended to ride in a fanout next to the JSONL sink: the run gains
/// an in-process health view (queryable mid-run via
/// [`LiveSink::snapshot`], fed to the rules engine) at a measured,
/// self-reported price — [`LiveSink::overhead_us`] backs the
/// `telemetry.live.overhead` counter and the BENCH live-overhead axis.
#[derive(Debug)]
pub struct LiveSink {
    stats: Mutex<TraceAnalysis>,
    events: AtomicU64,
    overhead_ns: AtomicU64,
}

impl Default for LiveSink {
    fn default() -> Self {
        LiveSink::new()
    }
}

impl LiveSink {
    /// An empty sink.
    pub fn new() -> Self {
        LiveSink {
            stats: Mutex::new(TraceAnalysis::streaming()),
            events: AtomicU64::new(0),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// A snapshot of the aggregate state so far.
    pub fn snapshot(&self) -> TraceAnalysis {
        self.stats.lock().expect("live sink poisoned").clone()
    }

    /// Events folded in so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Total time spent inside the aggregator, whole microseconds.
    pub fn overhead_us(&self) -> u64 {
        self.overhead_ns.load(Ordering::Relaxed) / 1_000
    }
}

impl TelemetrySink for LiveSink {
    fn record(&self, event: &Event) {
        let started = Instant::now();
        self.stats
            .lock()
            .expect("live sink poisoned")
            .observe(event);
        self.overhead_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;
    use crate::telemetry::analyze::{ParsedEvent, Rollup};
    use crate::telemetry::{EventKind, Telemetry};

    /// Exact reference percentile over a sample.
    fn exact(values: &[f64], p: f64) -> f64 {
        stats::percentile(values, p).expect("non-empty sample")
    }

    /// Rank of `estimate` within `values`: the fraction of the sample
    /// strictly below it. A quantile estimator is judged by how close
    /// this lands to the target quantile — value-space error is
    /// meaningless for heavy tails and bimodal gaps.
    fn rank_of(values: &[f64], estimate: f64) -> f64 {
        let below = values.iter().filter(|&&v| v < estimate).count();
        below as f64 / values.len() as f64
    }

    /// Documented tolerance: for n ≥ 200 the P² estimate of quantile q
    /// must sit within 5 percentile points of rank q.
    const RANK_TOL: f64 = 0.05;

    fn check_rank(values: &[f64], q: f64) {
        let mut est = P2Grid::new();
        for &v in values {
            est.observe(v);
        }
        let rank = rank_of(values, est.estimate(q).expect("non-empty"));
        assert!(
            (rank - q).abs() <= RANK_TOL,
            "q={q}: estimate rank {rank:.4} off target by {:.4}",
            (rank - q).abs()
        );
    }

    #[test]
    fn p2_is_exact_below_the_marker_count() {
        // n < 13 (the marker count) must match stats::percentile bit
        // for bit — this covers the adversarial n < 5 case exactly.
        let sample = [
            4.0, -1.5, 2.25, 9.0, 0.0, 7.5, -3.0, 1.0, 6.0, 2.0, 8.0, 5.0,
        ];
        for n in 1..=sample.len() {
            let head = &sample[..n];
            let mut est = P2Grid::new();
            for &v in head {
                est.observe(v);
            }
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(est.estimate(q), Some(exact(head, q * 100.0)), "n={n} q={q}");
            }
        }
        assert_eq!(P2Grid::new().estimate(0.5), None);
    }

    #[test]
    fn p2_tracks_a_constant_distribution_exactly() {
        let mut est = P2Grid::new();
        for _ in 0..1000 {
            est.observe(42.5);
        }
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(est.estimate(q), Some(42.5), "q={q}");
        }
    }

    #[test]
    fn p2_ignores_untracked_quantiles() {
        let mut est = P2Grid::new();
        for i in 0..100 {
            est.observe(i as f64);
        }
        assert_eq!(est.estimate(0.42), None);
        assert_eq!(est.count(), 100);
    }

    #[test]
    fn p2_tracks_uniform_and_ramp_distributions() {
        let mut rng = DeterministicRng::new(0x11ec);
        let uniform: Vec<f64> = (0..2000).map(|_| rng.uniform_f64() * 10.0).collect();
        let ramp: Vec<f64> = (0..2000).map(|i| i as f64 * 0.5).collect();
        for q in [0.5, 0.95, 0.99] {
            check_rank(&uniform, q);
            check_rank(&ramp, q);
        }
        // Uniform on [0, 10]: value-space agreement is also tight.
        let mut est = P2Grid::new();
        for &v in &uniform {
            est.observe(v);
        }
        let err = (est.estimate(0.5).unwrap() - exact(&uniform, 50.0)).abs();
        assert!(err < 0.5, "uniform p50 off by {err}");
    }

    #[test]
    fn p2_tracks_bimodal_distributions() {
        // Two far-apart modes: 70% near 1.0, 30% near 1000.0.
        let mut rng = DeterministicRng::new(0xb1d0);
        let bimodal: Vec<f64> = (0..3000)
            .map(|_| {
                if rng.uniform_f64() < 0.7 {
                    1.0 + rng.uniform_f64()
                } else {
                    1000.0 + rng.uniform_f64() * 10.0
                }
            })
            .collect();
        for q in [0.5, 0.95, 0.99] {
            check_rank(&bimodal, q);
        }
    }

    #[test]
    fn p2_tracks_heavy_tailed_distributions() {
        // Pareto-ish: x = u^-2 on (0, 1] has a heavy right tail.
        let mut rng = DeterministicRng::new(0x7a11);
        let heavy: Vec<f64> = (0..3000)
            .map(|_| (1.0 - rng.uniform_f64()).max(1e-6).powi(-2))
            .collect();
        for q in [0.5, 0.95, 0.99] {
            check_rank(&heavy, q);
        }
    }

    #[test]
    fn streaming_and_exact_rollups_agree_bit_for_bit_on_moments() {
        let mut streaming = Rollup::streaming();
        let mut exact_store = Rollup::exact();
        let mut rng = DeterministicRng::new(0x5eed);
        let mut values = Vec::new();
        for _ in 0..500 {
            let v = rng.uniform_f64() * 200.0 - 100.0;
            streaming.observe(v);
            exact_store.observe(v);
            values.push(v);
        }
        streaming.observe(f64::NAN);
        exact_store.observe(f64::NAN);
        assert_eq!(streaming.count(), exact_store.count());
        assert_eq!(streaming.non_finite(), exact_store.non_finite());
        assert_eq!(streaming.min(), exact_store.min());
        assert_eq!(streaming.max(), exact_store.max());
        assert_eq!(streaming.sum().to_bits(), exact_store.sum().to_bits());
        assert_eq!(streaming.mean(), exact_store.mean());
        // The running moments equal the slice helpers over the sample.
        assert_eq!(exact_store.mean(), stats::mean(&values));
        assert_eq!(
            exact_store.percentile(50.0),
            stats::percentile(&values, 50.0)
        );
        assert_eq!(streaming.percentile(0.0), exact_store.min());
        assert_eq!(streaming.percentile(100.0), exact_store.max());
        // Only the exact store answers arbitrary percentiles.
        assert_eq!(streaming.percentile(42.0), None);
        assert!(exact_store.percentile(42.0).is_some());
    }

    /// A synthetic run exercising every aggregated kind.
    fn sample_events() -> Vec<Event> {
        let (tel, sink) = Telemetry::recorder();
        {
            let _run = tel.span("engine.run");
            for k in 0..40u64 {
                tel.event(EventKind::Gating, "engine.gating")
                    .field_u64("decision", k)
                    .field_u64("active", 10 + k % 7)
                    .field_u64("turned_on", 1)
                    .field_u64("turned_off", k % 3)
                    .emit();
                tel.counter("engine.decisions", 1);
                tel.histogram("engine.window_noise_pct", 4.0 + (k % 11) as f64);
                tel.solve("thermal.gs", 10 + (k % 5) as usize, 1e-9 * (k + 1) as f64);
                tel.event(EventKind::Emergency, "engine.emergency_check")
                    .field_u64("flagged_domains", k % 4)
                    .field_u64("true_domains", k % 5)
                    .field_u64("mispredicted", u64::from(k % 8 == 0))
                    .emit();
            }
            tel.gauge("thermal.max_silicon_c", 63.5);
            tel.gauge("bad.gauge", f64::NAN);
        }
        sink.events()
    }

    /// The exact and streaming moments of two rollups match bit for
    /// bit; each streaming p50/p95/p99 lies within a tenth of the
    /// sample's range of the exact one. (These streams are short and
    /// integer-valued, where the rank tolerance above — stated for
    /// n ≥ 200 — is ill-defined.)
    fn assert_stores_agree(what: &str, exact: &Rollup, streaming: &Rollup) {
        assert_eq!(exact.count(), streaming.count(), "{what}");
        assert_eq!(exact.non_finite(), streaming.non_finite(), "{what}");
        assert_eq!(exact.min(), streaming.min(), "{what}");
        assert_eq!(exact.max(), streaming.max(), "{what}");
        assert_eq!(exact.sum().to_bits(), streaming.sum().to_bits(), "{what}");
        assert_eq!(exact.mean(), streaming.mean(), "{what}");
        let tol = 0.1 * (exact.max().unwrap() - exact.min().unwrap());
        for p in [50.0, 95.0, 99.0] {
            let estimate = streaming.percentile(p).unwrap();
            let truth = exact.percentile(p).unwrap();
            assert!(
                (estimate - truth).abs() <= tol,
                "{what} p{p}: estimate {estimate} vs exact {truth} (tol {tol})"
            );
        }
    }

    #[test]
    fn streaming_and_exact_stores_agree_on_a_completed_trace() {
        let events = sample_events();
        let mut wire = TraceAnalysis::streaming();
        let mut emit = TraceAnalysis::streaming();
        let mut exact = TraceAnalysis::exact();
        for event in &events {
            let parsed = ParsedEvent::from_line(&event.to_json()).unwrap();
            wire.observe(&parsed);
            emit.observe(event);
            exact.observe(&parsed);
        }

        // Wire-side and emit-side folding agree completely.
        assert_eq!(wire.events, emit.events);
        assert_eq!(wire.counters, emit.counters);
        assert_eq!(wire.rollups, emit.rollups);
        assert_eq!(wire.solvers, emit.solvers);
        assert_eq!(wire.gating, emit.gating);
        assert_eq!(wire.emergency, emit.emergency);

        // Counts and domain aggregates are store-independent.
        assert_eq!(wire.events, exact.events);
        for kind in EventKind::ALL {
            assert_eq!(wire.kind_count(kind), exact.kind_count(kind), "{kind:?}");
        }
        assert_eq!(wire.counters, exact.counters);
        assert_eq!(wire.gating.decisions, exact.gating.decisions);
        assert_eq!(wire.gating.churn(), exact.gating.churn());
        assert_eq!(wire.emergency, exact.emergency);
        assert_eq!(wire.first_t_s, exact.first_t_s);
        assert_eq!(wire.last_t_s, exact.last_t_s);
        assert_eq!(wire.span("engine.run").unwrap().completed(), 1);
        assert_eq!(wire.unpaired_spans(), exact.unpaired_spans());

        // Rollup moments match bit for bit; percentiles within tolerance.
        assert_stores_agree(
            "noise",
            exact.rollup("engine.window_noise_pct").unwrap(),
            wire.rollup("engine.window_noise_pct").unwrap(),
        );
        assert_stores_agree(
            "iters",
            &exact.solver("thermal.gs").unwrap().iters,
            &wire.solver("thermal.gs").unwrap().iters,
        );
        assert_stores_agree("active", &exact.gating.active, &wire.gating.active);

        // Non-finite gauges are counted, not ranked.
        let bad = wire.rollup("bad.gauge").unwrap();
        assert_eq!((bad.count(), bad.non_finite()), (0, 1));
        assert_eq!(wire.total_solves(), 40);
    }

    #[test]
    fn rollups_merge_tracks_by_name() {
        let sink = std::sync::Arc::new(LiveSink::new());
        let t0 = Telemetry::with_sink(sink.clone());
        let t1 = Telemetry::with_sink_tracked(sink.clone(), 1);
        t0.gauge("cell.metric", 1.0);
        t1.gauge("cell.metric", 100.0);
        t1.gauge("cell.metric", 200.0);
        let stats = sink.snapshot();
        assert_eq!(stats.rollups.len(), 1);
        let merged = stats.rollup("cell.metric").unwrap();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.min(), Some(1.0));
        assert_eq!(merged.max(), Some(200.0));
        assert_eq!(merged.mean(), Some(301.0 / 3.0));
    }

    #[test]
    fn live_sink_counts_events_and_time() {
        let sink = std::sync::Arc::new(LiveSink::new());
        let tel = Telemetry::with_sink(sink.clone());
        for k in 0..100 {
            tel.counter("ticks", k);
        }
        assert_eq!(sink.events(), 100);
        assert_eq!(sink.snapshot().counter("ticks"), (0..100).sum::<u64>());
        // Overhead accounting is monotone (may round to 0 µs on a fast
        // machine, but never goes backwards).
        let us = sink.overhead_us();
        tel.counter("ticks", 1);
        assert!(sink.overhead_us() >= us);
    }

    #[test]
    fn empty_stats_answer_safely() {
        let stats = LiveSink::new().snapshot();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.counter("nope"), 0);
        assert!(stats.rollup("nope").is_none());
        assert_eq!(stats.duration_s(), 0.0);
        assert_eq!(stats.gating.churn_per_decision(), None);
        assert_eq!(stats.emergency.emergency_rate(), None);
    }
}
