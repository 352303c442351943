//! The four workloads: their engine configurations and the seeded
//! scenario streams they submit.

use experiments::context::ExpOptions;
use experiments::service::ScenarioSpec;
use simkit::linalg::SolverBackend;
use simkit::units::Seconds;
use simkit::DeterministicRng;
use thermal::ThermalConfig;
use thermogater::{EngineConfig, PolicyKind};
use workload::Benchmark;

/// The seed a bare `run.sh` uses and the one `benchmark/expected/` holds
/// records for.
pub const DEFAULT_SEED: u64 = 1;

/// One (benchmark, policy) cell.
pub type Cell = (Benchmark, PolicyKind);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline configuration; noise-analysis bound.
    PaperNoise,
    /// A 128 × 128 thermal grid; thermal-solver bound.
    ThermalFine,
    /// A cold quick-config 14 × 8 sweep through the batch executor.
    SweepCold,
    /// Zipf-distributed requests against a warm scenario cache.
    ServeWarm,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperNoise,
        Workload::ThermalFine,
        Workload::SweepCold,
        Workload::ServeWarm,
    ];

    /// The workload's command-line and result-file name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperNoise => "paper-noise",
            Workload::ThermalFine => "thermal-fine",
            Workload::SweepCold => "sweep-cold",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine configuration every scenario of the workload uses.
    /// Only `sweep-cold` feeds the seed into the engine; the other
    /// workloads' records depend on the benchmark and policy alone.
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        let config = match self {
            Workload::PaperNoise => EngineConfig::standard(),
            Workload::ThermalFine => EngineConfig {
                duration: Seconds::from_millis(10.0),
                noise_window_count: 4,
                thermal: ThermalConfig {
                    nx: 128,
                    ny: 128,
                    ..ThermalConfig::standard()
                },
                ..EngineConfig::standard()
            },
            Workload::SweepCold => EngineConfig {
                seed,
                ..ExpOptions::new(true).engine_config()
            },
            Workload::ServeWarm => ExpOptions::tiny().engine_config(),
        };
        pin_auto(config)
    }

    /// The scenarios as rounds of cells; a run measures whole rounds.
    /// Engine workloads cycle through their rounds, one benchmark under
    /// every policy of the workload each. `sweep-cold`'s 14 rounds cover
    /// the grid once, each round all eight policies on eight different
    /// benchmarks: the policy mix of every round is the same, and the
    /// benchmark mix is spread over eight benchmarks, so what a run
    /// measures barely depends on which rounds the seed puts first.
    /// `serve-warm` has one round, the [`grid`] its cache holds, and draws
    /// its requests from [`ZipfRequests`].
    pub fn rounds(self, seed: u64) -> Vec<Vec<Cell>> {
        let mut rng = DeterministicRng::new(seed ^ self.salt());
        let mut benchmarks = Benchmark::ALL;
        rng.shuffle(&mut benchmarks);
        let (count, policies): (usize, &[PolicyKind]) = match self {
            Workload::PaperNoise => (6, &[PolicyKind::OracVT, PolicyKind::PracVT]),
            Workload::ThermalFine => (3, &CALIBRATING),
            Workload::SweepCold => {
                let mut policies = PolicyKind::ALL;
                rng.shuffle(&mut policies);
                let n = benchmarks.len();
                return (0..n)
                    .map(|r| {
                        let mut round: Vec<Cell> = policies
                            .iter()
                            .enumerate()
                            .map(|(j, &p)| (benchmarks[(r + j) % n], p))
                            .collect();
                        rng.shuffle(&mut round);
                        round
                    })
                    .collect();
            }
            Workload::ServeWarm => return vec![grid()],
        };
        benchmarks[..count]
            .iter()
            .map(|&b| policies.iter().map(|&p| (b, p)).collect())
            .collect()
    }

    fn salt(self) -> u64 {
        match self {
            Workload::PaperNoise => 0x5041_5045,
            Workload::ThermalFine => 0x5448_4552,
            Workload::SweepCold => 0x5357_4545,
            Workload::ServeWarm => 0x5345_5256,
        }
    }
}

/// The policies that run the θ-calibration pass and thermal ranking: the
/// ones whose scenarios exercise every layer.
pub const CALIBRATING: [PolicyKind; 4] = [
    PolicyKind::OracT,
    PolicyKind::PracT,
    PolicyKind::OracVT,
    PolicyKind::PracVT,
];

/// Pins the solver to `Auto` at every level of the configuration, so a
/// `SIMKIT_SOLVER` in the environment changes neither what is measured
/// nor the scenario hashes.
pub fn pin_auto(mut config: EngineConfig) -> EngineConfig {
    config.solver = SolverBackend::Auto;
    config.thermal.solver = SolverBackend::Auto;
    config.pdn.solver = SolverBackend::Auto;
    config
}

/// The full 14 × 8 grid in benchmark-major order.
pub fn grid() -> Vec<Cell> {
    Benchmark::ALL
        .iter()
        .flat_map(|&b| PolicyKind::ALL.iter().map(move |&p| (b, p)))
        .collect()
}

/// The scenario of one cell under `config`.
pub fn spec(cell: Cell, config: &EngineConfig) -> ScenarioSpec {
    ScenarioSpec::new(cell.0, cell.1, config.clone())
}

/// An endless seeded stream of indices into `n` scenarios, Zipf
/// distributed with exponent 1: the `k`-th most popular scenario is asked
/// for in proportion to `1/k`, and the seed decides which scenario has
/// which popularity rank.
#[derive(Debug, Clone)]
pub struct ZipfRequests {
    cdf: Vec<f64>,
    by_rank: Vec<usize>,
    rng: DeterministicRng,
}

impl ZipfRequests {
    /// A stream over `n >= 1` scenarios.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = DeterministicRng::new(seed ^ Workload::ServeWarm.salt());
        let mut by_rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut by_rank);
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        ZipfRequests { cdf, by_rank, rng }
    }
}

impl Iterator for ZipfRequests {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let u = self.rng.uniform_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        Some(self.by_rank[rank])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_selection_is_seeded() {
        for w in Workload::ALL {
            assert_eq!(w.rounds(1), w.rounds(1), "{}", w.name());
        }
        for w in [
            Workload::PaperNoise,
            Workload::ThermalFine,
            Workload::SweepCold,
        ] {
            assert_ne!(w.rounds(1), w.rounds(2), "{}", w.name());
        }
        let a: Vec<usize> = ZipfRequests::new(112, 1).take(1000).collect();
        assert_eq!(a, ZipfRequests::new(112, 1).take(1000).collect::<Vec<_>>());
        assert_ne!(a, ZipfRequests::new(112, 2).take(1000).collect::<Vec<_>>());
    }

    #[test]
    fn rounds_have_the_documented_shape() {
        let paper = Workload::PaperNoise.rounds(7);
        assert_eq!((paper.len(), paper[0].len()), (6, 2));
        let fine = Workload::ThermalFine.rounds(7);
        assert_eq!((fine.len(), fine[0].len()), (3, 4));
        // A sweep-cold round is all eight policies on eight different
        // benchmarks; the 14 rounds cover the grid exactly once.
        let sweep = Workload::SweepCold.rounds(7);
        assert_eq!(sweep.len(), 14);
        for round in &sweep {
            let mut policies: Vec<usize> = round
                .iter()
                .map(|c| PolicyKind::ALL.iter().position(|&q| q == c.1).unwrap())
                .collect();
            policies.sort_unstable();
            assert_eq!(policies, (0..8).collect::<Vec<_>>());
            let mut benchmarks: Vec<Benchmark> = round.iter().map(|c| c.0).collect();
            benchmarks.sort_unstable();
            benchmarks.dedup();
            assert_eq!(benchmarks.len(), 8);
        }
        let key = |&(b, p): &Cell| (b, PolicyKind::ALL.iter().position(|&q| q == p));
        let mut cells: Vec<Cell> = sweep.concat();
        cells.sort_by_key(key);
        assert_eq!(cells, grid());
        assert_eq!(Workload::ServeWarm.rounds(7), vec![grid()]);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut counts = vec![0usize; 112];
        for i in ZipfRequests::new(112, 3).take(50_000) {
            counts[i] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 1 draws 1/H(112) ≈ 19 % of the requests, rank 2 half that.
        let top = sorted[0] as f64 / 50_000.0;
        assert!((top - 0.19).abs() < 0.02, "top share {top}");
        assert!(sorted[1] * 10 > sorted[0] * 4 && sorted[1] * 10 < sorted[0] * 6);
    }

    #[test]
    fn configs_ignore_the_solver_environment() {
        for w in Workload::ALL {
            let c = w.engine_config(1);
            assert_eq!(c.solver, SolverBackend::Auto);
            assert_eq!(c.thermal.solver, SolverBackend::Auto);
            assert_eq!(c.pdn.solver, SolverBackend::Auto);
        }
        assert_eq!(Workload::ThermalFine.engine_config(1).thermal.nx, 128);
        assert_ne!(
            Workload::SweepCold.engine_config(1).seed,
            Workload::SweepCold.engine_config(2).seed
        );
        assert_eq!(
            Workload::PaperNoise.engine_config(1).seed,
            Workload::PaperNoise.engine_config(2).seed
        );
    }
}
