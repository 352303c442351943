//! General-purpose simulation runner: any workload × policy ×
//! configuration from the command line, with optional trace replay and
//! export.
//!
//! ```text
//! cargo run --release -p experiments --bin simulate -- \
//!     --bench fft --policy pracvt --duration-ms 10 --heatmap
//!
//! cargo run --release -p experiments --bin simulate -- \
//!     --mix chol,rayt --policy oract
//!
//! cargo run --release -p experiments --bin simulate -- \
//!     --trace my_trace.csv --policy allon
//!
//! cargo run --release -p experiments --bin simulate -- \
//!     --bench lu_ncb --export-trace lu_ncb.csv
//! ```

use experiments::report::{banner, metrics_report, render_heatmap, solver_report};
use experiments::telemetry::TelemetryCtx;
use floorplan::reference::power8_like;
use simkit::linalg::SolverBackend;
use simkit::telemetry::analyze::TraceAnalysis;
use simkit::telemetry::manifest::{CellManifest, RunManifest};
use simkit::units::Seconds;
use std::fs::File;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use thermal::ThermalConfig;
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use vreg::RegulatorDesign;
use workload::{replay, Benchmark, TraceGenerator, WorkloadMix, WorkloadSpec};

struct Args {
    spec: WorkloadSpec,
    policy: PolicyKind,
    duration_ms: Option<f64>,
    windows: Option<usize>,
    grid: Option<usize>,
    design: Option<RegulatorDesign>,
    trace_path: Option<String>,
    export_path: Option<String>,
    heatmap: bool,
    quiet: bool,
    telemetry: Option<PathBuf>,
    frames: Option<usize>,
    live: bool,
}

fn usage() -> &'static str {
    "usage: simulate [--bench <label> | --mix <a,b,..>] [--policy <tag>]\n\
     \u{20}       [--duration-ms <f64>] [--windows <n>] [--grid <n>]\n\
     \u{20}       [--design fivr|ldo] [--trace <csv>] [--export-trace <csv>]\n\
     \u{20}       [--heatmap] [--quiet|-q] [--telemetry=<dir>] [--frames <n>]\n\
     \u{20}       [--live]\n\
     benchmarks: barnes chol fft fmm lu_cb lu_ncb oc_cp oc_ncp radio\n\
     \u{20}           radix rayt volr water_n water_s\n\
     policies:   allon offchip naive oract oracv oracvt pract pracvt\n\
     \u{20}           integralt integralp\n\
     telemetry:  --telemetry=<dir> (or SIMKIT_TELEMETRY=<dir>) writes a\n\
     \u{20}           structured trace.jsonl + manifest.json into <dir>;\n\
     \u{20}           --frames <n> records a spatial thermal frame every\n\
     \u{20}           n thermal steps into the trace (0 = off);\n\
     \u{20}           --live (or SIMKIT_LIVE=1) adds a streaming in-process\n\
     \u{20}           aggregator that self-reports its cost as\n\
     \u{20}           telemetry.live.* counters in the trace"
}

fn parse_benchmark(label: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.label() == label)
        .ok_or_else(|| format!("unknown benchmark {label:?}"))
}

fn parse_policy(tag: &str) -> Result<PolicyKind, String> {
    match tag {
        "allon" => Ok(PolicyKind::AllOn),
        "offchip" => Ok(PolicyKind::OffChip),
        "naive" => Ok(PolicyKind::Naive),
        "oract" => Ok(PolicyKind::OracT),
        "oracv" => Ok(PolicyKind::OracV),
        "oracvt" => Ok(PolicyKind::OracVT),
        "pract" => Ok(PolicyKind::PracT),
        "pracvt" => Ok(PolicyKind::PracVT),
        "integralt" => Ok(PolicyKind::IntegralT),
        "integralp" => Ok(PolicyKind::IntegralP),
        other => Err(format!("unknown policy {other:?}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: WorkloadSpec::Single(Benchmark::LuNcb),
        policy: PolicyKind::PracVT,
        duration_ms: None,
        windows: None,
        grid: None,
        design: None,
        trace_path: None,
        export_path: None,
        heatmap: false,
        quiet: false,
        telemetry: std::env::var("SIMKIT_TELEMETRY").ok().map(PathBuf::from),
        frames: None,
        live: std::env::var("SIMKIT_LIVE").is_ok(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--bench" => args.spec = WorkloadSpec::Single(parse_benchmark(&value()?)?),
            "--mix" => {
                let assignments = value()?
                    .split(',')
                    .map(parse_benchmark)
                    .collect::<Result<Vec<_>, _>>()?;
                if assignments.is_empty() {
                    return Err("--mix needs at least one benchmark".into());
                }
                args.spec = WorkloadSpec::Mix(WorkloadMix::new(assignments));
            }
            "--policy" => args.policy = parse_policy(&value()?)?,
            "--duration-ms" => {
                args.duration_ms = Some(value()?.parse().map_err(|e| format!("bad duration: {e}"))?)
            }
            "--windows" => {
                args.windows = Some(value()?.parse().map_err(|e| format!("bad windows: {e}"))?)
            }
            "--grid" => args.grid = Some(value()?.parse().map_err(|e| format!("bad grid: {e}"))?),
            "--design" => {
                args.design = Some(match value()?.as_str() {
                    "fivr" => RegulatorDesign::fivr(),
                    "ldo" => RegulatorDesign::power8_ldo(),
                    other => return Err(format!("unknown design {other:?}")),
                })
            }
            "--frames" => {
                args.frames = Some(value()?.parse().map_err(|e| format!("bad frames: {e}"))?)
            }
            "--trace" => args.trace_path = Some(value()?),
            "--export-trace" => args.export_path = Some(value()?),
            "--heatmap" => args.heatmap = true,
            "--quiet" | "-q" => args.quiet = true,
            "--telemetry" => args.telemetry = Some(PathBuf::from(value()?)),
            "--live" => args.live = true,
            "--help" | "-h" => return Err(String::new()),
            other => match other.strip_prefix("--telemetry=") {
                Some(dir) => args.telemetry = Some(PathBuf::from(dir)),
                None => return Err(format!("unknown flag {other:?}")),
            },
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    if let Err(e) = SolverBackend::from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    // Usage errors — an unknown flag, an unparsable value, or a
    // configuration no engine can be built from — exit 2 before any
    // simulation; `--help` prints the usage and succeeds.
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    let chip = power8_like();
    let mut config = EngineConfig::standard();
    if let Some(ms) = args.duration_ms {
        config.duration = Seconds::from_millis(ms);
    }
    if let Some(w) = args.windows {
        config.noise_window_count = w;
    }
    if let Some(n) = args.grid {
        config.thermal = ThermalConfig {
            nx: n,
            ny: n,
            ..config.thermal
        };
    }
    if let Some(design) = args.design {
        config.design = design;
    }
    if let Some(every) = args.frames {
        config.frame_every = every;
    }
    if let Err(e) = config.validate() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let duration = config.duration;
    let noise_windows = config.noise_window_count;
    let grid_n = config.thermal.nx;
    // A single-benchmark run is exactly one scenario of the service
    // layer; stamping its content hash into the manifest ties the run
    // to the matching `ScenarioCache` entry (mixes and trace replays
    // have no scenario identity).
    let scenario_hash = match (&args.spec, &args.trace_path) {
        (WorkloadSpec::Single(bench), None) => Some(
            experiments::service::ScenarioSpec::new(*bench, args.policy, config.clone())
                .content_hash(),
        ),
        _ => None,
    };
    let mut engine = SimulationEngine::new(&chip, config);

    // Telemetry: the engine runs with a per-cell counted handle so the
    // manifest's single cell carries an exact event count.
    let telemetry_ctx =
        args.telemetry
            .as_ref()
            .and_then(|dir| match TelemetryCtx::create_with(dir, args.live) {
                Ok(ctx) => Some(ctx),
                Err(e) => {
                    eprintln!("warning: cannot open telemetry dir {}: {e}", dir.display());
                    None
                }
            });
    let cell_counter = telemetry_ctx.as_ref().map(|ctx| {
        let (telemetry, counter) = ctx.cell_handle();
        engine.set_telemetry(telemetry);
        counter
    });

    // Export-only path.
    if let Some(path) = &args.export_path {
        let trace = TraceGenerator::new(&chip).generate_spec(&args.spec, duration);
        let file = match File::create(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = replay::write_csv(&trace, file) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} samples × {} blocks to {path}",
            trace.sample_count(),
            trace.activity().channel_count()
        );
        return ExitCode::SUCCESS;
    }

    if !args.quiet {
        banner("simulate", &format!("{} under {}", args.spec, args.policy));
    }
    let run_started = Instant::now();
    let result = if let Some(path) = &args.trace_path {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: cannot open {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trace = match replay::read_csv(file, Benchmark::LuNcb) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        engine.run_trace(&trace, args.policy)
    } else {
        engine.run_spec(&args.spec, args.policy)
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let (Some(ctx), Some(counter)) = (&telemetry_ctx, &cell_counter) {
        let mut manifest = RunManifest::new("simulate");
        manifest.push_config("workload", args.spec.to_string());
        manifest.push_config("policy", experiments::sweep::policy_tag(args.policy));
        manifest.push_config("duration_ms", format!("{}", duration.get() * 1e3));
        manifest.push_config("windows", noise_windows);
        manifest.push_config("grid", grid_n);
        if let Some(path) = &args.trace_path {
            manifest.push_config("trace", path);
        }
        if let Some(hash) = scenario_hash {
            manifest.push_config("scenario_hash", format!("{hash:016x}"));
        }
        manifest.cells.push(CellManifest {
            label: format!(
                "{}-{}",
                args.spec,
                experiments::sweep::policy_tag(args.policy)
            ),
            seconds: run_started.elapsed().as_secs_f64(),
            events: counter.count(),
            cached: false,
        });
        match ctx.finish(&mut manifest) {
            Ok(path) => {
                if !args.quiet {
                    println!(
                        "telemetry:            {} events → {}",
                        manifest.total_events(),
                        path.display()
                    );
                }
            }
            Err(e) => eprintln!("warning: cannot write telemetry manifest: {e}"),
        }
    }

    if args.quiet {
        return ExitCode::SUCCESS;
    }
    println!("T_max:                {:.2}", result.max_temperature());
    println!("thermal gradient:     {:.2} °C", result.max_gradient());
    println!(
        "conversion η:         {:.2} %",
        result.mean_efficiency() * 100.0
    );
    println!("regulator loss:       {:.2}", result.mean_total_vr_loss());
    println!(
        "max voltage noise:    {}",
        result
            .max_noise_percent()
            .map_or("- (off-chip)".to_string(), |v| format!("{v:.2} % of Vdd"))
    );
    println!(
        "emergency residency:  {}",
        result
            .emergency_cycle_fraction()
            .map_or("-".to_string(), |v| format!("{:.4} % of cycles", v * 100.0))
    );
    println!(
        "active regulators:    {:.1} / {} (mean)",
        result.mean_active_count(),
        chip.vr_sites().len()
    );
    if let Some(r2) = result.predictor_r_squared() {
        println!("predictor R²:         {r2:.4}");
    }
    if !result.solver_profile().is_empty() {
        print!(
            "\nsolver profile:\n{}",
            solver_report(result.solver_profile())
        );
    }
    if let Some(ctx) = &telemetry_ctx {
        // `finish` flushed the trace above, so its fold is complete.
        match TraceAnalysis::from_path(&ctx.trace_path()) {
            Ok(analysis) => {
                let metrics = metrics_report(&analysis);
                if !metrics.is_empty() {
                    print!("\ntelemetry metrics:\n{metrics}");
                }
            }
            Err(e) => eprintln!("warning: cannot read the telemetry trace back: {e}"),
        }
    }
    if args.heatmap {
        println!("\nheat map at T_max:");
        print!("{}", render_heatmap(result.heatmap_at_tmax()));
    }
    ExitCode::SUCCESS
}
