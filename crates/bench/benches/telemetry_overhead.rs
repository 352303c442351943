//! Telemetry overhead: the acceptance bar is that a run with the no-op
//! sink installed stays within 1 % of a run with telemetry disabled
//! (the default), while the full JSONL + live-aggregation pipeline is
//! measured separately to quantify the cost of actually recording, and
//! the spatial frame recorder's extra cost on top of that pipeline is
//! measured as its own row.

use bench::bench_config;
use criterion::{criterion_group, criterion_main, Criterion};
use floorplan::reference::power8_like;
use simkit::telemetry::live::LiveSink;
use simkit::telemetry::{CountingSink, FanoutSink, JsonlSink, NoopSink, Telemetry, TelemetrySink};
use std::hint::black_box;
use std::sync::Arc;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use workload::Benchmark;

/// One engine run with the given telemetry handle installed, capturing
/// a spatial frame every `frame_every` thermal steps (0 = off).
fn traced_run_with_frames(telemetry: Telemetry, frame_every: usize) {
    let chip = power8_like();
    let config = EngineConfig {
        frame_every,
        ..bench_config()
    };
    let mut engine = SimulationEngine::new(&chip, config);
    engine.set_telemetry(telemetry);
    black_box(engine.run(Benchmark::LuNcb, PolicyKind::OracVT).unwrap());
}

/// One engine run with the given telemetry handle installed.
fn traced_run(telemetry: Telemetry) {
    traced_run_with_frames(telemetry, 0);
}

/// What `--telemetry=<dir> --live` installs: the JSONL file plus the
/// streaming aggregate, behind the run's event counter.
fn jsonl_live_sink(trace: &std::path::Path) -> Arc<dyn TelemetrySink> {
    let jsonl = Arc::new(JsonlSink::create(trace).unwrap());
    let fanout = Arc::new(FanoutSink::new(vec![
        jsonl as Arc<dyn TelemetrySink>,
        Arc::new(LiveSink::new()),
    ]));
    Arc::new(CountingSink::new(fanout))
}

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(20);

    // Baseline: the default disabled handle (no sink at all).
    group.bench_function("disabled", |b| {
        b.iter(|| traced_run(Telemetry::disabled()))
    });

    // No-op sink: the handle caches the sink's inactive flag, so this
    // must be indistinguishable from `disabled` (within 1 %).
    group.bench_function("noop_sink", |b| {
        b.iter(|| traced_run(Telemetry::with_sink(Arc::new(NoopSink))))
    });

    // Full pipeline: JSONL file + live aggregate + event counter.
    group.bench_function("jsonl_live", |b| {
        let dir = std::env::temp_dir().join(format!("tg-bench-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        b.iter(|| {
            traced_run(Telemetry::with_sink(jsonl_live_sink(
                &dir.join("trace.jsonl"),
            )))
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    // Frames on top of the full pipeline: the spatial frame recorder
    // sampling every 50 steps. The delta against `jsonl_live` is the
    // recorder's cost; the gated BENCH axis tracks the same quantity
    // from the recorder's own `telemetry.overhead` counter.
    group.bench_function("jsonl_live_frames", |b| {
        let dir =
            std::env::temp_dir().join(format!("tg-bench-telemetry-fr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        b.iter(|| {
            let sink = jsonl_live_sink(&dir.join("trace.jsonl"));
            traced_run_with_frames(Telemetry::with_sink(sink), 50);
        });
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.finish();
}

criterion_group!(benches, telemetry_overhead);
criterion_main!(benches);
