//! Edge-case tests for `workload` trace handling: empty traces,
//! single-sample traces, the lossless CSV round trip (a replayed export
//! reproduces its synthetic run), replay clamping past the end of a
//! short trace,
//! modulo wrap-around of per-core mixes, and the activity clamp that
//! keeps over-unity kind weights physical.

use experiments::sweep::SweepRecord;
use floorplan::reference::power8_like;
use simkit::telemetry::analyze::EventView;
use simkit::telemetry::{MemorySink, Telemetry};
use simkit::units::Seconds;
use thermal::ThermalConfig;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine, SimulationResult};
use workload::replay::{read_csv, write_csv};
use workload::{Benchmark, TraceGenerator, WorkloadMix, WorkloadSpec};

fn tiny_config() -> EngineConfig {
    EngineConfig {
        duration: Seconds::from_millis(3.0),
        thermal: ThermalConfig::coarse(),
        noise_window_count: 4,
        profiling_decisions: 4,
        ..EngineConfig::standard()
    }
}

#[test]
fn empty_trace_file_is_rejected() {
    let err = read_csv(&b""[..], Benchmark::LuNcb).unwrap_err();
    assert!(err.to_string().contains("empty trace file"), "{err}");
}

#[test]
fn trace_with_no_samples_is_rejected() {
    // Valid dt and column header, zero data rows.
    let body = "# dt_us=1\nblock_0,block_1\n";
    let err = read_csv(body.as_bytes(), Benchmark::LuNcb).unwrap_err();
    assert!(err.to_string().contains("no samples"), "{err}");
}

#[test]
#[should_panic(expected = "duration shorter than one sample")]
fn sub_sample_duration_panics() {
    let chip = power8_like();
    let gen = TraceGenerator::new(&chip);
    // A quarter of the default 1 µs sampling interval rounds to zero
    // samples — the generator must refuse, not emit an empty trace.
    let _ = gen.generate(Benchmark::LuNcb, Seconds::from_micros(0.25));
}

#[test]
fn single_sample_trace_round_trips_through_csv() {
    let chip = power8_like();
    let gen = TraceGenerator::new(&chip);
    let trace = gen.generate(Benchmark::Fft, Seconds::from_micros(1.0));
    assert_eq!(trace.sample_count(), 1);
    let mut buf = Vec::new();
    write_csv(&trace, &mut buf).unwrap();
    let replayed = read_csv(&buf[..], Benchmark::Fft).unwrap();
    assert_eq!(replayed.sample_count(), 1);
    assert_eq!(replayed.activity().channel_count(), chip.blocks().len());
    assert_eq!(replayed.dt().get().to_bits(), trace.dt().get().to_bits());
    for block in chip.blocks() {
        let orig = trace.sample(block.id(), 0);
        let back = replayed.sample(block.id(), 0);
        assert_eq!(
            orig.to_bits(),
            back.to_bits(),
            "block {:?}: {orig} vs {back}",
            block.id()
        );
    }
}

/// Every simulated quantity of a run, wall-clock phase times excluded.
fn physics(r: &SimulationResult) -> String {
    format!(
        "{:?}",
        (
            (r.workload(), r.policy(), r.decisions(), r.total_power()),
            (r.active_count(), r.required_count(), r.vr_temperatures()),
            (r.max_temperature(), r.max_gradient(), r.mean_efficiency()),
            (r.mean_total_vr_loss(), r.window_noise_percent()),
            (r.emergency_cycle_fraction(), r.heatmap_at_tmax()),
            (r.worst_window_trace(), r.predictor_r_squared()),
            r.solver_profile(),
        )
    )
}

/// `simulate --export-trace` then `--trace`: a synthetic trace written
/// to CSV and read back replays exactly the synthetic run, θ included,
/// though the replay profiles θ and draws its windows itself rather
/// than reading or writing the engine's table of them.
#[test]
fn round_tripped_trace_replays_the_synthetic_run_exactly() {
    let chip = power8_like();
    let mut engine = SimulationEngine::new(&chip, tiny_config());
    let (tel, sink) = Telemetry::recorder();
    engine.set_telemetry(tel);
    // `run_spec`'s own trace covers the 4-decision profiling pass,
    // which outlasts the 3 ms run.
    let trace = TraceGenerator::new(&chip).generate(Benchmark::LuNcb, engine.trace_duration());
    let mut csv = Vec::new();
    write_csv(&trace, &mut csv).unwrap();
    let replayed = read_csv(&csv[..], Benchmark::LuNcb).unwrap();

    let spec = WorkloadSpec::Single(Benchmark::LuNcb);
    let synthetic = engine.run_spec(&spec, PolicyKind::PracVT).unwrap();
    let from_csv = engine.run_trace(&replayed, PolicyKind::PracVT).unwrap();
    assert_eq!(physics(&from_csv), physics(&synthetic));
    let reused = |sink: &MemorySink, name: &str| -> Vec<Option<u64>> {
        let events = sink.events();
        let deltas = events.iter().filter(|e| e.name == name);
        deltas.map(|e| e.num_u64("delta")).collect()
    };
    // Only the synthetic run consults the engine's table of θ fits and
    // window books; the replay fits θ and draws its windows anew.
    assert_eq!(reused(&sink, "engine.calibrate_reused"), [Some(0)]);
    assert_eq!(reused(&sink, "engine.windows_reused"), [Some(0)]);

    // Nor does a replay write the table: a synthetic run after it fits
    // θ and draws its windows itself, with the same physics.
    let mut engine = SimulationEngine::new(&chip, tiny_config());
    let (tel, sink) = Telemetry::recorder();
    engine.set_telemetry(tel);
    let from_csv = engine.run_trace(&replayed, PolicyKind::PracVT).unwrap();
    let synthetic = engine.run_spec(&spec, PolicyKind::PracVT).unwrap();
    assert_eq!(physics(&synthetic), physics(&from_csv));
    assert_eq!(reused(&sink, "engine.calibrate_reused"), [Some(0)]);
    assert_eq!(reused(&sink, "engine.windows_reused"), [Some(0)]);
}

/// The per-kind activity weights intentionally sum to more than the
/// per-core utilisation (Execution alone weighs up to 1.15×), so the
/// final clamp is what keeps every sample a physical activity factor.
#[test]
fn activity_stays_clamped_for_every_block_and_sample() {
    let chip = power8_like();
    let gen = TraceGenerator::new(&chip);
    let trace = gen.generate(Benchmark::LuNcb, Seconds::from_micros(200.0));
    for block in chip.blocks() {
        for &a in trace.block_activity(block.id()) {
            assert!(
                (0.02..=1.0).contains(&a),
                "block {:?} activity {a}",
                block.id()
            );
        }
    }
}

/// Replaying a trace shorter than the simulated duration clamps to the
/// final sample: a 1-sample trace and the same sample materialised for
/// the full duration must produce the identical simulation. The sample
/// value is dyadic (0.5) so per-step window averaging is bit-exact and
/// the two runs can be compared with `==`, not a tolerance.
#[test]
fn replay_clamps_to_final_sample_beyond_trace_end() {
    let chip = power8_like();
    let n_blocks = chip.blocks().len();
    let header = format!(
        "# dt_us=1\n{}\n",
        (0..n_blocks)
            .map(|b| format!("block_{b}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let row = vec!["0.500000"; n_blocks].join(",");
    let short_csv = format!("{header}{row}\n");
    let samples = 3000; // 3 ms at the 1 µs sampling interval
    let mut long_csv = header.clone();
    for _ in 0..samples {
        long_csv.push_str(&row);
        long_csv.push('\n');
    }
    let short = read_csv(short_csv.as_bytes(), Benchmark::LuNcb).unwrap();
    let long = read_csv(long_csv.as_bytes(), Benchmark::LuNcb).unwrap();
    assert_eq!(short.sample_count(), 1);
    assert_eq!(long.sample_count(), samples);

    let engine = SimulationEngine::new(&chip, tiny_config());
    let a = engine.run_trace(&short, PolicyKind::OracT).unwrap();
    let b = engine.run_trace(&long, PolicyKind::OracT).unwrap();
    assert_eq!(
        SweepRecord::from_result(&a),
        SweepRecord::from_result(&b),
        "clamped replay diverged from materialised constant trace"
    );
}

#[test]
fn run_trace_rejects_wrong_channel_count() {
    let chip = power8_like();
    let body = "# dt_us=1\nblock_0\n0.5\n";
    let trace = read_csv(body.as_bytes(), Benchmark::LuNcb).unwrap();
    let engine = SimulationEngine::new(&chip, tiny_config());
    let err = engine.run_trace(&trace, PolicyKind::OracT).unwrap_err();
    assert!(
        err.to_string().to_lowercase().contains("dimension")
            || err.to_string().contains("expected"),
        "unexpected error: {err}"
    );
}

/// A per-core mix that does not divide the chip's core count wraps
/// modulo its length instead of truncating or panicking.
#[test]
fn mix_assignment_wraps_modulo_mix_length() {
    let alternating = WorkloadMix::alternating(Benchmark::Fft, Benchmark::Radix, 2);
    assert_eq!(alternating.benchmark_for_core(0), Benchmark::Fft);
    assert_eq!(alternating.benchmark_for_core(1), Benchmark::Radix);
    assert_eq!(alternating.benchmark_for_core(5), Benchmark::Radix);
    assert_eq!(alternating.benchmark_for_core(8), Benchmark::Fft);

    let triple = WorkloadMix::new(vec![
        Benchmark::Barnes,
        Benchmark::Cholesky,
        Benchmark::OceanCp,
    ]);
    for core in 0..8 {
        assert_eq!(
            triple.benchmark_for_core(core),
            triple.benchmark_for_core(core + 3)
        );
    }
}

#[test]
#[should_panic(expected = "at least one core")]
fn empty_mix_panics() {
    let _ = WorkloadMix::new(Vec::new());
}
