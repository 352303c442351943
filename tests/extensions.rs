//! Integration tests for the discussion-section extensions:
//! multiprogramming (Section 7), aging (Section 7), and better cooling
//! (Section 5).

use floorplan::reference::power8_like;
use simkit::units::Seconds;
use thermal::{PackageParams, ThermalConfig};
use thermogater::{AgingModel, EngineConfig, PolicyKind, SimulationEngine};
use workload::{Benchmark, TraceGenerator, WorkloadMix, WorkloadSpec};

fn tiny_config() -> EngineConfig {
    EngineConfig {
        duration: Seconds::from_millis(3.0),
        thermal: ThermalConfig::coarse(),
        noise_window_count: 6,
        profiling_decisions: 4,
        ..EngineConfig::standard()
    }
}

#[test]
fn multiprogram_run_lands_between_its_components() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    let heavy = engine.run(Benchmark::Cholesky, PolicyKind::OracT).unwrap();
    let light = engine.run(Benchmark::Raytrace, PolicyKind::OracT).unwrap();
    let mix: WorkloadSpec =
        WorkloadMix::alternating(Benchmark::Cholesky, Benchmark::Raytrace, 8).into();
    let mixed = engine.run_spec(&mix, PolicyKind::OracT).unwrap();

    // Active regulator demand of the mix sits between the pure runs.
    assert!(
        mixed.mean_active_count() > light.mean_active_count()
            && mixed.mean_active_count() < heavy.mean_active_count(),
        "mix {} not between {} and {}",
        mixed.mean_active_count(),
        light.mean_active_count(),
        heavy.mean_active_count()
    );
    // So does its temperature.
    assert!(mixed.max_temperature() > light.max_temperature());
    assert!(mixed.max_temperature() < heavy.max_temperature());
    // And gating still sustains near-peak efficiency per domain.
    assert!(mixed.mean_efficiency() > 0.85);
    assert_eq!(mixed.workload(), &mix);
}

#[test]
fn mixed_traces_make_assigned_cores_differ() {
    let chip = power8_like();
    let mix: WorkloadSpec =
        WorkloadMix::alternating(Benchmark::Cholesky, Benchmark::Raytrace, 8).into();
    let trace = TraceGenerator::new(&chip).generate_spec(&mix, Seconds::from_millis(1.0));
    let mean = |name: &str| {
        let block = chip.blocks().iter().find(|b| b.name() == name).unwrap();
        let ch = trace.block_activity(block.id());
        ch.iter().sum::<f64>() / ch.len() as f64
    };
    // core0 runs cholesky (heavy), core1 raytrace (light).
    assert!(
        mean("core0.EXU") > 2.0 * mean("core1.EXU"),
        "core0 {} vs core1 {}",
        mean("core0.EXU"),
        mean("core1.EXU")
    );
}

#[test]
fn aging_assessment_separates_policies() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, tiny_config());
    let model = AgingModel::electromigration();
    let all_on = model.assess(&engine.run(Benchmark::LuNcb, PolicyKind::AllOn).unwrap());
    let oracv = model.assess(&engine.run(Benchmark::LuNcb, PolicyKind::OracV).unwrap());

    // All-on stresses every regulator continuously: imbalance comes from
    // temperature alone.
    assert!(all_on.imbalance() >= 1.0);
    // OracV concentrates both utilisation and heat near logic: its worst
    // regulator ages faster than under all-on relative to the fleet.
    assert!(
        oracv.imbalance() > all_on.imbalance(),
        "OracV {} vs all-on {}",
        oracv.imbalance(),
        all_on.imbalance()
    );
    assert_eq!(all_on.wear_values().len(), chip.vr_sites().len());
    assert!(all_on.relative_mttf() > 0.0);
}

#[test]
fn better_cooling_cools_every_policy_uniformly() {
    let chip = power8_like();
    let air = SimulationEngine::new(&chip, tiny_config());
    let improved = SimulationEngine::new(
        &chip,
        EngineConfig {
            thermal: ThermalConfig {
                package: PackageParams::improved_cooling(),
                ..ThermalConfig::coarse()
            },
            ..tiny_config()
        },
    );
    let mut deltas = Vec::new();
    for policy in [PolicyKind::AllOn, PolicyKind::OracT] {
        let hot = air.run(Benchmark::Barnes, policy).unwrap();
        let cool = improved.run(Benchmark::Barnes, policy).unwrap();
        let delta = hot.max_temperature().get() - cool.max_temperature().get();
        assert!(delta > 1.0, "{policy}: cooling saved only {delta} °C");
        deltas.push(delta);
    }
    // The package improvement shifts policies almost uniformly (paper
    // Section 5: cooling solutions usually uniformly affect the chip).
    assert!((deltas[0] - deltas[1]).abs() < 1.0, "deltas {deltas:?}");
}
