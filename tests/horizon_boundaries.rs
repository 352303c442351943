//! Horizon-boundary tests for the sensing/prediction pipeline: what the
//! governor sees at t = 0 (nothing recorded yet), during warm-up
//! (t < sensing delay), exactly at t = delay, and at the end of a trace;
//! plus the WMA forecaster's behaviour at the edges of its 3-point
//! window. A `simkit::check` property pins the sensor ring buffer
//! against an O(n)-history reference model for arbitrary latencies and
//! record counts.

use simkit::check::{self, CheckConfig, Checker};
use simkit::units::{Seconds, Watts};
use thermogater::{DomainPowerForecaster, ThermalPredictor, ThermalSensorArray};

fn sensors(latency_steps: usize) -> ThermalSensorArray {
    ThermalSensorArray::new(
        1,
        Seconds::from_micros(latency_steps as f64 * 10.0),
        Seconds::from_micros(10.0),
    )
    .with_quantisation(0.0)
}

/// t = 0: nothing recorded yet, the governor reads the cold default.
#[test]
fn sensor_before_first_snapshot_reads_zero() {
    let s = sensors(4);
    assert_eq!(s.read(), vec![0.0]);
}

/// 0 < t < delay: the lag clamps to the oldest snapshot that exists, so
/// the reading tracks the *first* recorded instant until the pipeline
/// fills.
#[test]
fn sensor_warmup_clamps_to_first_snapshot() {
    let mut s = sensors(4);
    for k in 0..4 {
        s.record(&[10.0 + k as f64]);
        // k+1 snapshots recorded; latency 4 still exceeds what exists.
        assert_eq!(s.read(), vec![10.0], "after {} snapshots", k + 1);
    }
}

/// t = delay exactly: the first snapshot is now precisely `latency`
/// old, and every later read lags by exactly `latency` steps.
#[test]
fn sensor_reaches_exact_lag_at_the_delay_boundary() {
    let mut s = sensors(4);
    for k in 0..5 {
        s.record(&[10.0 + k as f64]);
    }
    // Snapshot 4 is newest; latency 4 selects snapshot 0.
    assert_eq!(s.read(), vec![10.0]);
    s.record(&[15.0]);
    assert_eq!(s.read(), vec![11.0]);
}

/// End of trace: after the final snapshot the reading is the value from
/// `latency` steps before the end — the governor never sees the last
/// `latency` snapshots.
#[test]
fn sensor_at_end_of_trace_lags_the_final_snapshots() {
    let mut s = sensors(3);
    let n = 20;
    for k in 0..n {
        s.record(&[k as f64]);
    }
    assert_eq!(s.read(), vec![(n - 1 - 3) as f64]);
}

/// Zero-latency sensors are transparent: every read returns the latest
/// record, including the very first.
#[test]
fn zero_latency_sensor_is_transparent() {
    let mut s = sensors(0);
    s.record(&[42.5]);
    assert_eq!(s.read(), vec![42.5]);
    s.record(&[43.25]);
    assert_eq!(s.read(), vec![43.25]);
}

/// Quantisation applies to the *read*, not the stored truth: the default
/// 0.25 °C grid rounds to the nearest step.
#[test]
fn sensor_quantisation_rounds_reads_to_grid() {
    let mut s = ThermalSensorArray::new(1, Seconds::ZERO, Seconds::from_micros(10.0));
    s.record(&[61.37]);
    assert_eq!(s.read(), vec![61.25]);
    let mut s = s.with_quantisation(0.5);
    s.record(&[61.37]);
    assert_eq!(s.read(), vec![61.5]);
}

/// Property: for any latency and any record sequence the ring buffer
/// agrees with a reference model that keeps the whole history — reads
/// return `history[len-1 - min(latency, len-1)]`, or 0 before any
/// record.
#[test]
fn sensor_ring_buffer_matches_full_history_model() {
    let gen = (
        check::usize_in(0, 8),
        check::vec_of(check::f64_in(0.0, 100.0), 0, 24),
    );
    Checker::new(CheckConfig {
        seed: 0xA00A,
        cases: 64,
        max_shrink_evals: 256,
        corpus: Some(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus").into()),
    })
    .assert("core.sensor_lag", &gen, |(latency, truths)| {
        let mut s = sensors(*latency);
        let mut history: Vec<f64> = Vec::new();
        // Read before any record.
        check::ensure(s.read() == vec![0.0], || "cold read not zero".to_string())?;
        for &t in truths {
            s.record(&[t]);
            history.push(t);
            let lag = (*latency).min(history.len() - 1);
            let expect = history[history.len() - 1 - lag];
            let got = s.read()[0];
            check::ensure(got == expect, || {
                format!(
                    "latency {latency}, {} records: read {got}, reference {expect}",
                    history.len()
                )
            })?;
        }
        Ok(())
    });
}

/// Before the first observation the forecaster hands back the caller's
/// fallback untouched — the t = 0 decision runs on nominal demand.
#[test]
fn forecaster_falls_back_before_any_history() {
    let f = DomainPowerForecaster::new(3);
    assert_eq!(f.forecast(0, Watts::new(7.25)), Watts::new(7.25));
    assert_eq!(f.forecast(2, Watts::ZERO), Watts::ZERO);
}

/// WMA over a partially filled window: with one point the forecast is
/// that point; with two the weights are 1 and 2.
#[test]
fn forecaster_partial_window_weights() {
    let mut f = DomainPowerForecaster::new(1);
    f.observe(&[Watts::new(10.0)]);
    assert!((f.forecast(0, Watts::ZERO).get() - 10.0).abs() < 1e-12);
    f.observe(&[Watts::new(20.0)]);
    // (1·10 + 2·20) / 3
    assert!((f.forecast(0, Watts::ZERO).get() - 50.0 / 3.0).abs() < 1e-12);
    f.observe(&[Watts::new(30.0)]);
    // (1·10 + 2·20 + 3·30) / 6
    assert!((f.forecast(0, Watts::ZERO).get() - 140.0 / 6.0).abs() < 1e-12);
}

/// At the far edge of the horizon the oldest point falls out of the
/// 3-point window entirely: a spike four decisions ago no longer
/// influences the forecast.
#[test]
fn forecaster_window_drops_history_beyond_horizon() {
    let mut f = DomainPowerForecaster::new(1);
    for p in [1000.0, 1.0, 2.0, 3.0] {
        f.observe(&[Watts::new(p)]);
    }
    assert!((f.forecast(0, Watts::ZERO).get() - 14.0 / 6.0).abs() < 1e-12);
}

/// The thermal predictor at the horizon's trivial boundary: ΔP = 0 means
/// "temperature stays", whatever θ is; a flat profiling pass calibrates
/// θ = 0 so *every* prediction degenerates to "stays".
#[test]
fn predictor_boundary_cases() {
    let pred = ThermalPredictor::from_thetas(vec![12.0]);
    assert_eq!(pred.predict(0, 63.5, Watts::ZERO), 63.5);

    let flat = ThermalPredictor::calibrate(&[vec![(0.0, 0.0); 4]]).unwrap();
    assert_eq!(flat.theta(0), 0.0);
    assert_eq!(flat.predict(0, 80.0, Watts::new(5.0)), 80.0);

    assert!(ThermalPredictor::calibrate(&[]).is_err());
}
