//! End-to-end telemetry: a real engine run traced through
//! [`experiments::telemetry::TelemetryCtx`] must produce a `trace.jsonl`
//! whose every line is a well-formed event, plus a self-validating
//! `manifest.json` whose event total equals the trace's line count —
//! and the sweep executor must do the same for a whole grid.

use experiments::context::ExpOptions;
use experiments::telemetry::TelemetryCtx;
use floorplan::reference::power8_like;
use simkit::telemetry::analyze::TraceAnalysis;
use simkit::telemetry::json::{parse, JsonValue};
use simkit::telemetry::manifest::{CellManifest, RunManifest, MANIFEST_FILE, TRACE_FILE};
use simkit::telemetry::EventKind;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use thermogater::{PolicyKind, SimulationEngine};
use workload::Benchmark;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tg-telemetry-it-{tag}-{}", std::process::id()))
}

/// Parses every trace line, asserting the common envelope, and returns
/// (line count, set of seen kinds).
fn scan_trace(dir: &Path) -> (u64, BTreeSet<&'static str>) {
    let text = std::fs::read_to_string(dir.join(TRACE_FILE)).expect("trace.jsonl written");
    let mut kinds = BTreeSet::new();
    let mut lines = 0u64;
    for (i, line) in text.lines().enumerate() {
        let value = parse(line).unwrap_or_else(|e| panic!("line {}: bad JSON: {e}", i + 1));
        assert!(
            matches!(value, JsonValue::Obj(_)),
            "line {}: not an object",
            i + 1
        );
        let kind_str = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("line {}: missing kind", i + 1));
        let kind = EventKind::parse(kind_str)
            .unwrap_or_else(|| panic!("line {}: unknown kind {kind_str:?}", i + 1));
        let t = value
            .get("t")
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("line {}: missing t", i + 1));
        assert!(t.is_finite() && t >= 0.0, "line {}: bad t {t}", i + 1);
        assert!(
            value
                .get("name")
                .and_then(JsonValue::as_str)
                .is_some_and(|n| !n.is_empty()),
            "line {}: missing name",
            i + 1
        );
        kinds.insert(kind.as_str());
        lines += 1;
    }
    (lines, kinds)
}

fn read_manifest(dir: &Path) -> RunManifest {
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("manifest.json written");
    RunManifest::from_json(text.trim()).expect("manifest self-validates")
}

#[test]
fn engine_run_produces_valid_trace_and_manifest() {
    let dir = temp_dir("engine");
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = TelemetryCtx::create(&dir).unwrap();

    let chip = power8_like();
    let mut engine = SimulationEngine::new(&chip, ExpOptions::tiny().engine_config());
    let (telemetry, counter) = ctx.cell_handle();
    engine.set_telemetry(telemetry);
    let started = Instant::now();
    // OracVT exercises the emergency path, so every event kind appears.
    engine.run(Benchmark::LuNcb, PolicyKind::OracVT).unwrap();

    let mut manifest = RunManifest::new("integration-test");
    manifest.push_config("benchmark", Benchmark::LuNcb.label());
    manifest.push_config("policy", "oracvt");
    manifest.cells.push(CellManifest {
        label: "lu_ncb-oracvt".into(),
        seconds: started.elapsed().as_secs_f64(),
        events: counter.count(),
        cached: false,
    });
    ctx.finish(&mut manifest).unwrap();

    let (lines, kinds) = scan_trace(&dir);
    let back = read_manifest(&dir);
    assert_eq!(
        lines,
        back.total_events(),
        "trace line count must equal the manifest's events_total"
    );
    assert!(lines > 0, "traced run emitted no events");
    for required in [
        EventKind::SpanStart,
        EventKind::SpanEnd,
        EventKind::Counter,
        EventKind::Gauge,
        EventKind::Histogram,
        EventKind::Gating,
        EventKind::Emergency,
        EventKind::Solve,
        EventKind::Progress,
    ] {
        assert!(
            kinds.contains(required.as_str()),
            "event kind {:?} missing from trace (saw {kinds:?})",
            required.as_str()
        );
    }
    // The trace folds into the counters and histograms it recorded.
    let analysis = TraceAnalysis::from_path(&ctx.trace_path()).unwrap();
    assert!(analysis.counter("engine.decisions") > 0);
    assert!(analysis
        .rollup("engine.window_noise_pct")
        .is_some_and(|h| h.count() > 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_grid_writes_manifest_covering_every_cell() {
    let dir = temp_dir("sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let benchmarks = [Benchmark::Fft];
    let policies = [PolicyKind::AllOn, PolicyKind::OracT];
    let opts = ExpOptions::tiny().with_threads(2).with_telemetry(&dir);
    let records = experiments::sweep::grid(&opts, &benchmarks, &policies);
    assert_eq!(records.len(), 2);

    let (lines, kinds) = scan_trace(&dir);
    let manifest = read_manifest(&dir);
    assert_eq!(manifest.cells.len(), 2, "one manifest cell per grid cell");
    let labels: BTreeSet<&str> = manifest.cells.iter().map(|c| c.label.as_str()).collect();
    assert!(labels.contains("fft-allon") && labels.contains("fft-oract"));
    assert_eq!(lines, manifest.total_events());
    // Sweep progress events ride the run-level handle.
    assert!(kinds.contains(EventKind::Progress.as_str()));
    for cell in &manifest.cells {
        assert!(
            cell.cached || cell.events > 0,
            "uncached cell {} traced no events",
            cell.label
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_sweep_produces_per_worker_tracks_with_paired_spans() {
    let dir = temp_dir("tracks");
    let _ = std::fs::remove_dir_all(&dir);
    let benchmarks = [Benchmark::LuNcb];
    let policies = [PolicyKind::OracV, PolicyKind::PracT];
    let opts = ExpOptions::tiny().with_threads(2).with_telemetry(&dir);
    // Cached cells replay results without tracing, so force both cells
    // to run live: drop any cache left behind by earlier test runs.
    for policy in policies {
        let cache = experiments::sweep::cache_path(&opts, Benchmark::LuNcb, policy);
        let _ = std::fs::remove_file(cache);
    }
    let records = experiments::sweep::grid(&opts, &benchmarks, &policies);
    assert_eq!(records.len(), 2);

    // Folding the cross-thread trace into call trees must find every
    // span paired on its own track, with one track per sweep cell.
    let profile = simkit::telemetry::prof::Profile::from_path(&dir.join(TRACE_FILE))
        .expect("trace folds into a profile");
    assert_eq!(
        profile.pairing_errors(),
        0,
        "cross-thread spans must pair cleanly per track"
    );
    assert_eq!(profile.open_spans(), 0, "all spans must close");
    let track_ids: BTreeSet<u64> = profile.tracks().iter().map(|t| t.track).collect();
    assert!(
        track_ids.contains(&1) && track_ids.contains(&2),
        "each worker cell must trace on its own track (saw {track_ids:?})"
    );
    for track in profile.tracks() {
        if track.track == 0 {
            continue; // run-level handle carries only instants
        }
        assert!(
            track.root_inclusive_s() > 0.0,
            "track {} recorded no span time",
            track.track
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
