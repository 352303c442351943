//! `tg-serve` — the sweep-as-a-service front end.
//!
//! Answers (benchmark, policy, engine-config) scenarios from the
//! content-addressed [`ScenarioCache`], simulating only hashes the
//! cache has never seen. Two modes:
//!
//! * `--batch=<file>` — stream a request file through the sharded
//!   batch executor: bounded work queue with backpressure, coalescing
//!   of identical in-flight scenarios, answers on stdout in request
//!   order. Memory stays bounded in the batch length, so the file may
//!   hold millions of lines.
//! * no `--batch` — a line-oriented stdin request loop (one answer per
//!   request, flushed immediately; `quit`/`exit` or EOF ends it).
//!
//! Request grammar (one request per line, `#` comments and blank lines
//! skipped):
//!
//! ```text
//! <benchmark> <policy> [seed=N] [duration-ms=X] [windows=N] [grid=N]
//! ```
//!
//! Overrides mutate the base engine configuration (`--tiny`/`--quick`
//! or the full default), and therefore the scenario hash: the same
//! cell under a different seed or grid is a different cache entry.
//!
//! Every answer is one stdout line — `<hash:016x> <record-csv>` — so a
//! cold and a warm run of the same batch compare byte-identically. The
//! tallies land on stderr (`serve: scenarios=… hits=… misses=…`) and,
//! under `--telemetry=<dir>`, as `serve.*` counters in the trace: a
//! warm batch proves "zero engine executions" via `serve.misses` = 0.
//!
//! A line that cannot be read (an I/O error, invalid UTF-8) ends the
//! input: the answers already accepted are delivered, then `error:`
//! names the file and line and the process exits 2. So does an unknown
//! argument, after printing the usage.

use experiments::context::{count_flag, is_flag, ExpOptions, FLAGS};
use experiments::service::{
    self, BatchOptions, BatchOutcome, ScenarioCache, ScenarioSpec, ServeCounters,
};
use experiments::sweep;
use experiments::telemetry::TelemetryCtx;
use simkit::telemetry::manifest::RunManifest;
use simkit::units::Seconds;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use thermogater::EngineConfig;

const USAGE: &str = "\
tg-serve — content-addressed scenario evaluation service

USAGE:
  tg-serve --batch=<file> [options]   stream a request file (stdout answers in request order)
  tg-serve [options]                  stdin request loop (quit/exit or EOF ends it)

OPTIONS:
  --tiny | --quick      reduced base engine configurations (default: full)
  --threads=N           worker threads (else SIMKIT_THREADS, else all cores)
  --queue=N             work-queue bound for backpressure (default 4×threads)
  --cache=<dir>         cache directory (default target/experiments/<tag>)
  --telemetry=<dir>     write trace.jsonl + manifest.json with serve.* counters
  --quiet | -q          suppress per-cell progress chatter on stderr

REQUESTS (one per line; '#' comments and blank lines are skipped):
  <benchmark> <policy> [seed=N] [duration-ms=X] [windows=N] [grid=N]

Each answer is one line: <hash:016x> <record-csv>.
";

/// Parses one request line against the base configuration. A request
/// whose configuration no engine can run (see
/// [`EngineConfig::validate`]) is malformed too.
fn parse_request(line: &str, base: &EngineConfig) -> Result<ScenarioSpec, String> {
    let mut words = line.split_whitespace();
    let bench_word = words.next().ok_or("missing benchmark")?;
    let benchmark = sweep::benchmark_from_label(bench_word)
        .ok_or_else(|| format!("unknown benchmark {bench_word:?}"))?;
    let policy_word = words.next().ok_or("missing policy")?;
    let policy = sweep::policy_from_tag(policy_word)
        .ok_or_else(|| format!("unknown policy {policy_word:?}"))?;
    let mut config = base.clone();
    for word in words {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("override {word:?} is not key=value"))?;
        match key {
            "seed" => {
                config.seed =
                    parse_u64(value).ok_or_else(|| format!("seed {value:?} is not an integer"))?;
            }
            "duration-ms" => {
                let ms: f64 = value
                    .parse()
                    .map_err(|_| format!("duration-ms {value:?} is not a number"))?;
                config.duration = Seconds::from_millis(ms);
            }
            "windows" => {
                config.noise_window_count = value
                    .parse()
                    .map_err(|_| format!("windows {value:?} is not an integer"))?;
            }
            "grid" => {
                let edge: usize = value
                    .parse()
                    .map_err(|_| format!("grid {value:?} is not an integer"))?;
                config.thermal.nx = edge;
                config.thermal.ny = edge;
            }
            other => return Err(format!("unknown override key {other:?}")),
        }
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(ScenarioSpec::new(benchmark, policy, config))
}

fn parse_u64(value: &str) -> Option<u64> {
    if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        value.parse().ok()
    }
}

fn answer_line(outcome: &BatchOutcome) -> String {
    format!("{:016x} {}", outcome.hash, outcome.record.to_csv())
}

fn cell_label(outcome: &BatchOutcome) -> String {
    format!(
        "{}-{}",
        outcome.record.benchmark.label(),
        sweep::policy_tag(outcome.record.policy)
    )
}

fn finish_manifest(
    ctx: &TelemetryCtx,
    counters: &ServeCounters,
    cells: Vec<simkit::telemetry::manifest::CellManifest>,
    opts: &ExpOptions,
    mode: &str,
    threads: usize,
) {
    counters.emit(ctx);
    let mut manifest = RunManifest::new("tg-serve");
    manifest.push_config("tag", opts.tag());
    manifest.push_config("mode", mode);
    manifest.threads = threads;
    manifest.cells = cells;
    if let Err(e) = ctx.finish(&mut manifest) {
        eprintln!(
            "warning: cannot write serve manifest into {}: {e}",
            ctx.dir().display()
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let known =
        |a: &String| is_flag(a, &FLAGS) || is_flag(a, &["--batch=", "--queue=", "--cache="]);
    if let Some(arg) = std::env::args().skip(1).find(|a| !known(a)) {
        eprint!("error: unknown argument `{arg}`\n{USAGE}");
        std::process::exit(2);
    }
    let opts = ExpOptions::from_args();
    let batch_file = std::env::args().find_map(|a| a.strip_prefix("--batch=").map(PathBuf::from));
    let queue = count_flag("--queue=");
    let cache_dir = std::env::args()
        .find_map(|a| a.strip_prefix("--cache=").map(PathBuf::from))
        .unwrap_or_else(|| sweep::cache_dir(&opts));
    let cache = ScenarioCache::new(cache_dir);
    let ctx = TelemetryCtx::from_options(&opts);
    let counters = ServeCounters::default();
    let base = opts.engine_config();

    let (malformed, read_error) = match &batch_file {
        Some(path) => run_batch_mode(path, &opts, &cache, &ctx, &counters, &base, queue),
        None => run_stdin_loop(&opts, &cache, &ctx, &counters, &base),
    };

    eprintln!("serve: {}", counters.summary());
    if malformed > 0 {
        eprintln!("serve: {malformed} malformed request line(s) skipped");
    }
    if let Some(e) = &read_error {
        eprintln!("error: {e}");
    }
    if malformed > 0 || read_error.is_some() {
        std::process::exit(2);
    }
}

/// The lines of `reader` up to the first one that cannot be read; that
/// failure, naming `source` and the line number, goes into `error`.
fn readable_lines<'a>(
    reader: impl BufRead + 'a,
    source: &'a Path,
    error: &'a OnceLock<String>,
) -> impl Iterator<Item = String> + 'a {
    reader
        .lines()
        .enumerate()
        .map_while(move |(i, line)| match line {
            Ok(line) => Some(line),
            Err(e) => {
                let _ = error.set(format!(
                    "cannot read {} line {}: {e}",
                    source.display(),
                    i + 1
                ));
                None
            }
        })
}

fn run_batch_mode(
    path: &PathBuf,
    opts: &ExpOptions,
    cache: &ScenarioCache,
    ctx: &Option<TelemetryCtx>,
    counters: &ServeCounters,
    base: &EngineConfig,
    queue: Option<usize>,
) -> (u64, Option<String>) {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("error: cannot open batch file {}: {e}", path.display());
        std::process::exit(2);
    });
    let malformed = AtomicU64::new(0);
    let read_error = OnceLock::new();
    // Lazy request parsing: the executor's bounded queue pulls lines
    // from the file only as workers free up, so a huge batch file never
    // materializes in memory.
    let lines = readable_lines(io::BufReader::new(file), path, &read_error);
    let specs = lines.filter_map(|line| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        match parse_request(line, base) {
            Ok(spec) => Some(spec),
            Err(e) => {
                eprintln!("[serve] skipping malformed request {line:?}: {e}");
                malformed.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    });
    let threads = opts.resolved_threads();
    let batch = BatchOptions {
        queue_cap: queue.unwrap_or(4 * threads.max(1)),
        quiet: opts.quiet,
        ..BatchOptions::for_threads(threads)
    };
    let stdout = io::stdout();
    let mut out = io::BufWriter::new(stdout.lock());
    let mut cells = Vec::new();
    let answered = service::run_batch(cache, specs, &batch, ctx.as_ref(), counters, |outcome| {
        writeln!(out, "{}", answer_line(&outcome)).expect("write answer");
        if ctx.is_some() {
            let label = cell_label(&outcome);
            cells.push(service::cell_manifest(&outcome, label));
        }
    });
    out.flush().expect("flush answers");
    if !opts.quiet {
        eprintln!(
            "serve: answered {answered} scenario(s) from {}",
            path.display()
        );
    }
    if let Some(ctx) = ctx {
        finish_manifest(ctx, counters, cells, opts, "batch", batch.threads);
    }
    (malformed.load(Ordering::Relaxed), read_error.into_inner())
}

fn run_stdin_loop(
    opts: &ExpOptions,
    cache: &ScenarioCache,
    ctx: &Option<TelemetryCtx>,
    counters: &ServeCounters,
    base: &EngineConfig,
) -> (u64, Option<String>) {
    let stdin = io::stdin();
    let mut malformed = 0u64;
    let mut cells = Vec::new();
    let read_error = OnceLock::new();
    for line in readable_lines(stdin.lock(), Path::new("stdin"), &read_error) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        if line == "stats" {
            println!("# {}", counters.summary());
            io::stdout().flush().expect("flush stats");
            continue;
        }
        match parse_request(line, base) {
            Ok(spec) => {
                let outcome = service::answer_one(cache, &spec, ctx.as_ref(), counters, opts.quiet);
                println!("{}", answer_line(&outcome));
                io::stdout().flush().expect("flush answer");
                if ctx.is_some() {
                    let label = cell_label(&outcome);
                    cells.push(service::cell_manifest(&outcome, label));
                }
            }
            Err(e) => {
                eprintln!("[serve] malformed request {line:?}: {e}");
                malformed += 1;
            }
        }
    }
    if let Some(ctx) = ctx {
        finish_manifest(ctx, counters, cells, opts, "stdin", 1);
    }
    (malformed, read_error.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::check::{self, CheckConfig, Checker, TestResult};

    /// Valid requests between them using every override key. The
    /// second sits on the window limit: one 50-step decision holds at
    /// most 50 windows, so most digit changes make it invalid.
    const LINES: [&str; 2] = [
        "lu_ncb pracvt seed=0x2a duration-ms=3 windows=4 grid=16",
        "fft allon seed=7 duration-ms=1 windows=50",
    ];

    /// Bytes a mutation draws half its time: the request grammar's.
    const GRAMMAR: &[u8] = b"0123456789.e-=x ";

    /// Parses `line` and nothing more: a spec it accepts must carry a
    /// configuration that an engine can run.
    fn parses_soundly(line: &str, base: &EngineConfig) -> TestResult {
        match parse_request(line, base) {
            Ok(spec) => spec
                .engine_config
                .validate()
                .map_err(|e| format!("{line:?} was accepted, yet {e}")),
            Err(_) => Ok(()),
        }
    }

    #[test]
    fn parse_request_survives_every_truncation_and_byte_mutation() {
        let base = ExpOptions::tiny().engine_config();
        for line in LINES {
            assert!(parse_request(line, &base).is_ok(), "{line:?}");
            for end in 0..=line.len() {
                parses_soundly(&line[..end], &base).unwrap();
            }
        }
        let checker = Checker::new(CheckConfig {
            seed: 0x5447_5352, // "TGSR"
            cases: 400,
            ..CheckConfig::default()
        });
        let gen = (
            check::usize_in(0, LINES.len() - 1),
            check::usize_in(0, 1 << 16),
            check::usize_in(0, 255),
        );
        checker.assert(
            "tg_serve.parse_request_survives_mutation",
            &gen,
            |&(which, at, byte)| {
                let mut bytes = LINES[which].as_bytes().to_vec();
                let at = at % bytes.len();
                bytes[at] = match byte {
                    0..=127 => GRAMMAR[byte % GRAMMAR.len()],
                    _ => byte as u8,
                };
                // The line reader stops at invalid UTF-8, so the parser
                // only ever sees text.
                parses_soundly(&String::from_utf8_lossy(&bytes), &base)
            },
        );
    }
}
