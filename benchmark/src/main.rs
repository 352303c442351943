//! `tg-bench`: the command behind `benchmark/run.sh`.

use simkit::telemetry::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use tg_benchmark::check::Expected;
use tg_benchmark::report::{self, ResultFile, Verdict, WorkloadResult};
use tg_benchmark::run::{self, Options};
use tg_benchmark::scenario::{Workload, DEFAULT_SEED};
use tg_benchmark::trace::Tracer;
use tg_benchmark::{output_dir, repo_root};

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME|all] [--seed N] [--trace 0|1] [--smoke]
       benchmark/run.sh --bless [--workload NAME|all]
       benchmark/run.sh compare A.json[,A2.json...] B.json[,B2.json...]
workloads: paper-noise thermal-fine sweep-cold serve-warm
--seconds S is accepted only as BENCHMARK.json's run_seconds";

/// Timed seconds of a smoke run.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug)]
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    trace: bool,
    smoke: bool,
    bless: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::from_name(name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            // The benchmark command is invoked with `--seconds
            // <run_seconds>`; the run length is not a knob, so result files
            // stay comparable and any other value is refused.
            "--seconds" => {
                let v = value("--seconds")?;
                let declared = declared_seconds()?;
                if v.parse::<f64>() != Ok(declared) {
                    return Err(format!(
                        "--seconds {v}: runs last run_seconds = {declared} of BENCHMARK.json"
                    ));
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--smoke" => cli.smoke = true,
            "--bless" => cli.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One workload runs in this process (smoke counts with `--smoke`);
    // several each get a child process of their own.
    let outcome = if cli.bless {
        bless(&cli)
    } else if let [workload] = cli.workloads[..] {
        run_one(&cli, workload)
    } else if cli.smoke {
        smoke(&cli)
    } else {
        run_children(&cli, cli.trace, &cli.workloads).map(|_| ())
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `run_seconds` of `BENCHMARK.json`: the default timed seconds.
fn declared_seconds() -> Result<f64, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)?
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .ok_or(format!("{}: missing run_seconds", path.display()))
}

fn seconds(cli: &Cli) -> Result<f64, String> {
    if cli.smoke {
        Ok(SMOKE_SECONDS)
    } else {
        declared_seconds()
    }
}

fn result_path(label: &str, cli: &Cli, trace: bool) -> PathBuf {
    let mut name = format!("{label}-seed{}", cli.seed);
    if trace {
        name.push_str("-trace");
    }
    if cli.smoke {
        name.push_str("-smoke");
    }
    output_dir().join(format!("{name}.json"))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process and ends its output with the
/// result line.
fn run_one(cli: &Cli, workload: Workload) -> Result<(), String> {
    run::install_panic_flag();
    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: seconds(cli)?,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let mut tracer = Tracer::new(opts.trace);
    let result = run::run(&opts, &mut tracer)?;
    print!("{}", result.lines());
    let file = ResultFile {
        seed: cli.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        smoke: opts.smoke,
        workloads: vec![result.clone()],
    };
    write(
        &result_path(workload.name(), cli, opts.trace),
        &file.render(),
    )?;
    if opts.trace {
        let spans = output_dir().join(format!("spans-{}-seed{}.jsonl", workload.name(), cli.seed));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    println!("{}", result.contract_line());
    Ok(())
}

/// Runs each workload in its own child process (so `peak_rss_mb` is the
/// workload's own), relays their lines, and writes the combined file.
fn run_children(cli: &Cli, trace: bool, workloads: &[Workload]) -> Result<ResultFile, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let secs = seconds(cli)?;
    let mut results = Vec::new();
    for &w in workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &cli.seed.to_string()]);
        if trace {
            cmd.args(["--trace", "1"]);
        }
        if cli.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        for line in lines.iter().take(lines.len().saturating_sub(1)) {
            println!("{line}");
        }
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let path = result_path(w.name(), cli, trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut file = ResultFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        results.append(&mut file.workloads);
    }
    let file = ResultFile {
        seed: cli.seed,
        seconds: secs,
        trace,
        smoke: cli.smoke,
        workloads: results,
    };
    let path = result_path("all", cli, trace);
    write(&path, &file.render())?;
    let combined = WorkloadResult {
        name: "all".into(),
        correct: file.workloads.iter().all(|w| w.correct),
        attempted: file.workloads.iter().map(|w| w.attempted).sum(),
        failed: file.workloads.iter().map(|w| w.failed).sum(),
        metrics: file
            .workloads
            .iter()
            .flat_map(|w| {
                w.metrics.iter().map(move |m| report::Metric {
                    name: format!("{}/{}", w.name, m.name),
                    ..m.clone()
                })
            })
            .collect(),
        notes: Vec::new(),
    };
    eprintln!("[bench] wrote {}", path.display());
    println!("{}", combined.contract_line());
    Ok(file)
}

/// The pre-push check: every selected workload untraced and traced at
/// smoke counts; fails on any incorrect output.
fn smoke(cli: &Cli) -> Result<(), String> {
    let mut bad = Vec::new();
    for trace in [false, true] {
        for w in run_children(cli, trace, &cli.workloads)?.workloads {
            if !w.correct {
                bad.push(format!(
                    "{}{}",
                    w.name,
                    if trace { " (traced)" } else { "" }
                ));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("incorrect outputs: {}", bad.join(", ")))
    }
}

fn bless(cli: &Cli) -> Result<(), String> {
    for &w in &cli.workloads {
        let expected = run::bless(w)?;
        let path = Expected::path(w);
        write(&path, &expected.render(w))?;
        eprintln!(
            "[bench] blessed {} records into {}",
            expected.records.len(),
            path.display()
        );
    }
    Ok(())
}

fn compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("error: compare takes two result-file lists\n{USAGE}");
        return ExitCode::from(2);
    };
    let load = |list: &str| -> Result<Vec<ResultFile>, String> {
        list.split(',')
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                ResultFile::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let declared = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| report::declarations(&t));
    let (declared, a, b) = match (declared, load(a), load(b)) {
        (Ok(d), Ok(a), Ok(b)) => (d, a, b),
        (d, a, b) => {
            for e in [d.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let rows = report::compare(&declared, &a, &b);
    println!(
        "{:<13} {:<26} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A-1"
    );
    for r in &rows {
        println!(
            "{:<13} {:<26} {:>14.6e} {:>14.6e} {:>+7.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * (r.b / r.a - 1.0),
            r.verdict.label()
        );
    }
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
