//! Lifecycle of the content-addressed scenario cache and the sharded
//! batch executor behind it: a cold batch fills the cache, a warm batch
//! answers byte-identically without touching the engine, a changed
//! engine configuration changes the scenario hash and forces
//! re-simulation, a worker keeps its engine while the configuration
//! repeats and its records equal fresh engines', duplicate in-flight
//! scenarios coalesce onto exactly one engine run, and a corrupt entry
//! is rejected loudly instead of served.

use experiments::context::ExpOptions;
use experiments::service::{
    answer_one, run_batch, BatchOptions, CellSource, ScenarioCache, ScenarioSpec, ServeCounters,
};
use experiments::telemetry::TelemetryCtx;
use simkit::telemetry::json::{parse, JsonValue};
use simkit::telemetry::manifest::{RunManifest, TRACE_FILE};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use thermogater::PolicyKind;
use workload::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tg-serve-it-{tag}-{}", std::process::id()))
}

fn fresh_cache(tag: &str) -> ScenarioCache {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    ScenarioCache::new(dir)
}

fn tiny_spec(benchmark: Benchmark, policy: PolicyKind) -> ScenarioSpec {
    ScenarioSpec::new(benchmark, policy, ExpOptions::tiny().engine_config())
}

#[test]
fn cold_then_warm_batch_is_byte_identical_and_pure_hit() {
    let cache = fresh_cache("coldwarm");
    let specs: Vec<ScenarioSpec> = [Benchmark::Fft, Benchmark::LuNcb]
        .into_iter()
        .flat_map(|b| {
            [PolicyKind::AllOn, PolicyKind::OracT]
                .into_iter()
                .map(move |p| tiny_spec(b, p))
        })
        .collect();
    let opts = BatchOptions {
        quiet: true,
        ..BatchOptions::for_threads(2)
    };

    let cold_counters = ServeCounters::default();
    let mut cold = Vec::new();
    let answered = run_batch(
        &cache,
        specs.clone(),
        &opts,
        None,
        &cold_counters,
        |outcome| cold.push(outcome),
    );
    assert_eq!(answered, specs.len());
    assert_eq!(cold_counters.misses.load(Ordering::Relaxed), 4);
    assert_eq!(cold_counters.hits.load(Ordering::Relaxed), 0);
    assert_eq!(cold_counters.coalesced.load(Ordering::Relaxed), 0);
    // One configuration: at most one engine per worker.
    let builds = cold_counters.engine_builds.load(Ordering::Relaxed);
    assert!((1..=2).contains(&builds), "{builds} engine builds");
    assert!(cold.iter().all(|o| o.source == CellSource::Simulated));
    // Submission order survives the parallel executor.
    assert!(cold.iter().enumerate().all(|(i, o)| o.index == i));

    // The warm pass answers everything from cache: zero engine runs,
    // byte-identical records, untouched cache files.
    let entry_bytes: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| std::fs::read(cache.path(s)).expect("cold pass wrote every entry"))
        .collect();
    let warm_counters = ServeCounters::default();
    let mut warm = Vec::new();
    run_batch(&cache, specs.clone(), &opts, None, &warm_counters, |o| {
        warm.push(o)
    });
    assert_eq!(warm_counters.hits.load(Ordering::Relaxed), 4);
    assert_eq!(warm_counters.misses.load(Ordering::Relaxed), 0);
    assert_eq!(warm_counters.engine_builds.load(Ordering::Relaxed), 0);
    assert!(warm.iter().all(|o| o.source == CellSource::Cache));
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.hash, w.hash);
        assert_eq!(
            c.record.to_csv(),
            w.record.to_csv(),
            "cache round trip must be byte-identical"
        );
    }
    for (spec, before) in specs.iter().zip(&entry_bytes) {
        assert_eq!(&std::fs::read(cache.path(spec)).unwrap(), before);
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn engine_config_change_renames_the_scenario_and_resimulates() {
    let cache = fresh_cache("rehash");
    let counters = ServeCounters::default();
    let base = tiny_spec(Benchmark::Fft, PolicyKind::AllOn);

    let first = answer_one(&cache, &base, None, &counters, true);
    assert_eq!(first.source, CellSource::Simulated);
    let again = answer_one(&cache, &base, None, &counters, true);
    assert_eq!(again.source, CellSource::Cache);
    assert_eq!(first.record, again.record);

    // One changed EngineConfig field — a different RNG seed — must
    // change the content hash, miss the cache, and re-simulate.
    let mut reseeded = base.clone();
    reseeded.engine_config.seed ^= 0xdead_beef;
    assert_ne!(base.content_hash(), reseeded.content_hash());
    assert_ne!(cache.path(&base), cache.path(&reseeded));
    let fresh = answer_one(&cache, &reseeded, None, &counters, true);
    assert_eq!(fresh.source, CellSource::Simulated);
    assert_eq!(counters.misses.load(Ordering::Relaxed), 2);
    assert_eq!(counters.hits.load(Ordering::Relaxed), 1);
    // Both entries coexist: content addressing never overwrites.
    assert!(cache.path(&base).exists() && cache.path(&reseeded).exists());
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn a_worker_rebuilds_its_engine_only_when_the_configuration_changes() {
    let cache = fresh_cache("rebuild");
    let reference = fresh_cache("rebuild-fresh");
    let base = ExpOptions::tiny().engine_config();
    let mut reseeded = base.clone();
    reseeded.seed ^= 0x5eed;
    // Two same-configuration cells, then cells alternating between the
    // two configurations: builds on cells 0, 2, 3 and 4.
    let specs: Vec<ScenarioSpec> = [
        (Benchmark::LuNcb, PolicyKind::OracVT, &base),
        (Benchmark::Barnes, PolicyKind::PracT, &base),
        (Benchmark::LuNcb, PolicyKind::OracVT, &reseeded),
        (Benchmark::Barnes, PolicyKind::AllOn, &base),
        (Benchmark::Barnes, PolicyKind::PracT, &reseeded),
    ]
    .into_iter()
    .map(|(b, p, config)| ScenarioSpec::new(b, p, config.clone()))
    .collect();
    let opts = BatchOptions {
        quiet: true,
        ..BatchOptions::for_threads(1)
    };
    let counters = ServeCounters::default();
    let mut outcomes = Vec::new();
    run_batch(&cache, specs.clone(), &opts, None, &counters, |o| {
        outcomes.push(o)
    });
    assert_eq!(counters.misses.load(Ordering::Relaxed), 5);
    assert_eq!(counters.engine_builds.load(Ordering::Relaxed), 4);
    // Each record is a fresh engine's, byte for byte.
    let fresh_counters = ServeCounters::default();
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        let fresh = answer_one(&reference, spec, None, &fresh_counters, true);
        assert_eq!(fresh.source, CellSource::Simulated);
        assert_eq!(
            outcome.record.to_csv(),
            fresh.record.to_csv(),
            "{}",
            spec.label()
        );
    }
    assert_eq!(fresh_counters.engine_builds.load(Ordering::Relaxed), 5);
    let _ = std::fs::remove_dir_all(cache.dir());
    let _ = std::fs::remove_dir_all(reference.dir());
}

#[test]
fn duplicate_scenarios_coalesce_onto_one_engine_run() {
    let cache = fresh_cache("coalesce");
    let trace_dir = temp_dir("coalesce-trace");
    let _ = std::fs::remove_dir_all(&trace_dir);
    let ctx = TelemetryCtx::create(&trace_dir).unwrap();
    let counters = ServeCounters::default();
    let spec = tiny_spec(Benchmark::Barnes, PolicyKind::PracVT);
    let copies = 6usize;
    let specs = vec![spec; copies];
    let opts = BatchOptions {
        quiet: true,
        ..BatchOptions::for_threads(4)
    };

    let mut outcomes = Vec::new();
    run_batch(&cache, specs, &opts, Some(&ctx), &counters, |o| {
        outcomes.push(o)
    });
    ctx.finish(&mut RunManifest::new("serve-it")).unwrap();

    // Exactly one engine execution; every other copy was answered
    // without one. Whether a given copy coalesced onto the in-flight
    // simulation or hit the just-written cache entry depends on timing,
    // so only the split's sum is deterministic.
    assert_eq!(counters.misses.load(Ordering::Relaxed), 1);
    assert_eq!(
        counters.hits.load(Ordering::Relaxed) + counters.coalesced.load(Ordering::Relaxed),
        (copies - 1) as u64
    );
    assert_eq!(
        outcomes
            .iter()
            .filter(|o| o.source == CellSource::Simulated)
            .count(),
        1
    );
    let first = &outcomes[0].record;
    assert!(outcomes.iter().all(|o| o.record == *first));

    // The trace agrees: exactly one `sweep.cell` event with
    // cached=false (the engine run), `copies - 1` with cached=true.
    let text = std::fs::read_to_string(trace_dir.join(TRACE_FILE)).unwrap();
    let mut live = 0usize;
    let mut cached = 0usize;
    for line in text.lines() {
        let value = parse(line).unwrap();
        if value.get("name").and_then(JsonValue::as_str) != Some("sweep.cell") {
            continue;
        }
        match value.get("cached").and_then(JsonValue::as_bool) {
            Some(false) => live += 1,
            Some(true) => cached += 1,
            None => panic!("sweep.cell event without a cached field: {line}"),
        }
    }
    assert_eq!(live, 1, "exactly one uncached sweep.cell event");
    assert_eq!(cached, copies - 1);
    let _ = std::fs::remove_dir_all(cache.dir());
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn corrupt_cache_entries_are_rejected_and_resimulated() {
    let cache = fresh_cache("corrupt");
    let counters = ServeCounters::default();
    let spec = tiny_spec(Benchmark::Fft, PolicyKind::Naive);

    let first = answer_one(&cache, &spec, None, &counters, true);
    std::fs::write(cache.path(&spec), "# not a scenario entry\n").unwrap();
    let second = answer_one(&cache, &spec, None, &counters, true);
    assert_eq!(second.source, CellSource::Simulated);
    assert_eq!(counters.invalid.load(Ordering::Relaxed), 1);
    assert_eq!(counters.misses.load(Ordering::Relaxed), 2);
    assert_eq!(first.record, second.record);
    // The re-simulation healed the entry.
    let third = answer_one(&cache, &spec, None, &counters, true);
    assert_eq!(third.source, CellSource::Cache);
    let _ = std::fs::remove_dir_all(cache.dir());
}
