//! Experiment options and engine configurations.

use simkit::linalg::SolverBackend;
use simkit::units::Seconds;
use std::path::PathBuf;
use thermal::ThermalConfig;
use thermogater::EngineConfig;

/// The flags [`ExpOptions::from_args`] reads; those ending in `=` take a
/// value.
pub const FLAGS: [&str; 6] = [
    "--quick",
    "--tiny",
    "--quiet",
    "-q",
    "--threads=",
    "--telemetry=",
];

/// Whether `arg` is one of `flags`, where an entry ending in `=` matches
/// it with any value.
pub fn is_flag(arg: &str, flags: &[&str]) -> bool {
    flags
        .iter()
        .any(|f| arg == *f || (f.ends_with('=') && arg.starts_with(f)))
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExpOptions {
    /// Run a reduced configuration (shorter ROI, coarser grid, fewer
    /// noise windows) for fast iteration.
    pub quick: bool,
    /// Run a minimal configuration (3 ms ROI, 4 noise windows) — for
    /// tests and benchmarks of the sweep machinery itself.
    pub tiny: bool,
    /// Sweep worker-thread count. `None` defers to the `SIMKIT_THREADS`
    /// environment variable, then to the machine's available parallelism.
    pub threads: Option<usize>,
    /// Suppress human-readable tables and banners; telemetry files are
    /// still written.
    pub quiet: bool,
    /// Directory to write structured telemetry into (`trace.jsonl` +
    /// `manifest.json`). `None` disables telemetry.
    pub telemetry: Option<PathBuf>,
}

impl ExpOptions {
    /// Parses the process arguments (`--quick`, `--tiny`, `--threads=N`,
    /// `--quiet`/`-q`, `--telemetry=<dir>`). `THERMOGATER_QUICK` in the
    /// environment also selects the quick configuration, and
    /// `SIMKIT_TELEMETRY=<dir>` enables telemetry when the flag is
    /// absent.
    ///
    /// Exits the process with status 2 when `SIMKIT_SOLVER` names no
    /// solver backend, rather than silently running under `Auto`, and
    /// when `--threads=` or `SIMKIT_THREADS` is not a non-negative
    /// integer.
    pub fn from_args() -> Self {
        if let Err(e) = SolverBackend::from_env() {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        // Read again by `resolved_threads`; checked here so that a typo
        // fails loudly instead of falling back to every core.
        count_env("SIMKIT_THREADS");
        let quick =
            std::env::args().any(|a| a == "--quick") || std::env::var("THERMOGATER_QUICK").is_ok();
        let tiny = std::env::args().any(|a| a == "--tiny");
        let threads = count_flag("--threads=");
        let quiet = std::env::args().any(|a| a == "--quiet" || a == "-q");
        let telemetry = std::env::args()
            .find_map(|a| a.strip_prefix("--telemetry=").map(PathBuf::from))
            .or_else(|| std::env::var("SIMKIT_TELEMETRY").ok().map(PathBuf::from));
        ExpOptions {
            quick,
            tiny,
            threads,
            quiet,
            telemetry,
        }
    }

    /// Explicit constructor for benches and tests.
    pub fn new(quick: bool) -> Self {
        ExpOptions {
            quick,
            ..ExpOptions::default()
        }
    }

    /// The minimal configuration (3 ms ROI, coarse grid, 4 noise
    /// windows) — small enough for sweep-machinery tests and benches.
    pub fn tiny() -> Self {
        ExpOptions {
            tiny: true,
            ..ExpOptions::default()
        }
    }

    /// This configuration with an explicit sweep worker-thread count.
    pub fn with_threads(self, threads: usize) -> Self {
        ExpOptions {
            threads: Some(threads),
            ..self
        }
    }

    /// This configuration with telemetry written into `dir`.
    pub fn with_telemetry(self, dir: impl Into<PathBuf>) -> Self {
        ExpOptions {
            telemetry: Some(dir.into()),
            ..self
        }
    }

    /// This configuration with human-readable output suppressed.
    pub fn with_quiet(self) -> Self {
        ExpOptions {
            quiet: true,
            ..self
        }
    }

    /// The sweep worker-thread count: the explicit option, else the
    /// `SIMKIT_THREADS` environment variable, else the machine's
    /// available parallelism; never zero.
    pub fn resolved_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n.max(1);
        }
        if let Some(n) = std::env::var("SIMKIT_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The engine configuration these options select.
    pub fn engine_config(&self) -> EngineConfig {
        if self.tiny {
            EngineConfig {
                duration: Seconds::from_millis(3.0),
                thermal: ThermalConfig::coarse(),
                noise_window_count: 4,
                profiling_decisions: 4,
                ..EngineConfig::standard()
            }
        } else if self.quick {
            EngineConfig {
                duration: Seconds::from_millis(6.0),
                thermal: ThermalConfig::coarse(),
                noise_window_count: 60,
                profiling_decisions: 5,
                ..EngineConfig::standard()
            }
        } else {
            EngineConfig::standard()
        }
    }

    /// Cache-directory tag for this configuration.
    pub fn tag(&self) -> &'static str {
        if self.tiny {
            "tiny"
        } else if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// The value of the first `<prefix><n>` process argument (e.g.
/// `--threads=`); exits the process with status 2 when `<n>` is not a
/// non-negative integer.
pub fn count_flag(prefix: &str) -> Option<usize> {
    let value = std::env::args().find_map(|a| a.strip_prefix(prefix).map(str::to_string))?;
    match value.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("error: {prefix}<n> expects a non-negative integer, got `{value}`");
            std::process::exit(2);
        }
    }
}

/// The value of environment variable `name`, `None` when it is unset;
/// exits the process with status 2 when it is not a non-negative
/// integer.
fn count_env(name: &str) -> Option<usize> {
    let value = std::env::var_os(name)?;
    match value.to_str().and_then(|v| v.trim().parse().ok()) {
        Some(n) => Some(n),
        None => {
            eprintln!("error: {name} expects a non-negative integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller() {
        let quick = ExpOptions::new(true).engine_config();
        let full = ExpOptions::new(false).engine_config();
        assert!(quick.duration < full.duration);
        assert!(quick.noise_window_count < full.noise_window_count);
        assert!(quick.thermal.nx < full.thermal.nx);
        assert_eq!(ExpOptions::new(true).tag(), "quick");
        assert_eq!(ExpOptions::new(false).tag(), "full");
    }

    #[test]
    fn tiny_config_is_smallest() {
        let tiny = ExpOptions::tiny().engine_config();
        let quick = ExpOptions::new(true).engine_config();
        assert!(tiny.duration < quick.duration);
        assert!(tiny.noise_window_count < quick.noise_window_count);
        assert_eq!(ExpOptions::tiny().tag(), "tiny");
    }

    #[test]
    fn explicit_threads_win_and_are_clamped() {
        assert_eq!(ExpOptions::tiny().with_threads(3).resolved_threads(), 3);
        assert_eq!(ExpOptions::tiny().with_threads(0).resolved_threads(), 1);
        // Without an explicit count the resolution is still nonzero.
        assert!(ExpOptions::tiny().resolved_threads() >= 1);
    }

    #[test]
    fn telemetry_and_quiet_builders() {
        let opts = ExpOptions::tiny().with_telemetry("/tmp/tg").with_quiet();
        assert!(opts.quiet);
        assert_eq!(
            opts.telemetry.as_deref(),
            Some(std::path::Path::new("/tmp/tg"))
        );
        assert!(ExpOptions::tiny().telemetry.is_none());
        assert!(!ExpOptions::tiny().quiet);
    }
}
