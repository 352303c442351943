//! Ablations and discussion-section (Section 7 / Section 5) studies:
//!
//! * footnote 5 — shortening the 1 ms gating interval 100× changes the
//!   results by less than 1 %;
//! * Section 5 — the voltage-noise-optimized regulator placement differs
//!   from the uniform one by < 0.4 % maximum noise, and the observations
//!   hold under better cooling;
//! * Section 6.3 — the ΔT = θ·ΔP predictor reaches R² ≈ 0.99;
//! * Section 7 — gating policies' effect on regulator aging, and
//!   multiprogrammed (per-core heterogeneous) workloads.

use super::{range, span, table, Claim, Report};
use crate::context::ExpOptions;
use crate::report::fmt_opt;
use floorplan::reference::power8_like;
use pdn::placement::{optimize_placement, PlacementOutcome};
use pdn::PdnConfig;
use power::{PowerModel, TechnologyParams};
use simkit::units::{Celsius, Seconds, Watts};
use thermal::{PackageParams, ThermalConfig};
use thermogater::{AgingModel, EngineConfig, PolicyKind, SimulationEngine};
use workload::{Benchmark, TraceGenerator, WorkloadMix, WorkloadSpec};

/// One row of the gating-interval ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRow {
    /// Decision interval, µs.
    pub interval_us: f64,
    /// Maximum chip temperature, °C.
    pub tmax_c: f64,
    /// Maximum thermal gradient, °C.
    pub gradient_c: f64,
    /// Mean total regulator conversion loss, W.
    pub mean_loss_w: f64,
}

/// Runs `lu_ncb` under OracT at 1 ms, 100 µs, and 10 µs decision
/// intervals (1×, 10×, 100× shorter). A common 10 µs thermal step keeps
/// the physics identical across rows.
pub fn ablation_interval(opts: &ExpOptions) -> Vec<IntervalRow> {
    let chip = power8_like();
    let base = opts.engine_config();
    [1000.0, 100.0, 10.0]
        .into_iter()
        .map(|interval_us| {
            let config = EngineConfig {
                decision_interval: Seconds::from_micros(interval_us),
                thermal_step: Seconds::from_micros(10.0),
                // Noise windows are orthogonal to this ablation; keep the
                // cost down.
                noise_window_count: 8,
                ..base.clone()
            };
            let engine = SimulationEngine::new(&chip, config);
            let result = engine
                .run(Benchmark::LuNcb, PolicyKind::OracT)
                .expect("physical configuration simulates");
            IntervalRow {
                interval_us,
                tmax_c: result.max_temperature().get(),
                gradient_c: result.max_gradient(),
                mean_loss_w: result.mean_total_vr_loss().get(),
            }
        })
        .collect()
}

/// Runs the Walking-Pads-style placement optimisation against the
/// uniform placement, under an fft-like load.
pub fn ablation_placement(opts: &ExpOptions) -> PlacementOutcome {
    let mut chip = power8_like();
    let power = PowerModel::calibrated(&chip, TechnologyParams::table1());
    let trace = TraceGenerator::new(&chip).generate(
        Benchmark::Fft,
        Seconds::from_millis(if opts.quick { 1.0 } else { 4.0 }),
    );
    let powers: Vec<Watts> = chip
        .blocks()
        .iter()
        .map(|b| {
            let ch = trace.activity().channel(b.id().0);
            let mean = ch.iter().sum::<f64>() / ch.len() as f64;
            power.block_power(b.id(), mean, Celsius::new(70.0))
        })
        .collect();
    let passes = if opts.quick { 2 } else { 6 };
    optimize_placement(&mut chip, &PdnConfig::reference(), &powers, 0.25, passes)
        .expect("placement optimisation completes")
}

/// One row of the predictor-accuracy ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct R2Row {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// In-sample R² of the calibrated ΔT = θ·ΔP model.
    pub r_squared: f64,
}

/// Calibrates the thermal predictor on each benchmark and reports R²
/// (the paper keeps it around 0.99).
pub fn ablation_r2(opts: &ExpOptions) -> Vec<R2Row> {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            eprintln!("[r2] calibrating {} …", benchmark.label());
            let (_predictor, r_squared) = engine
                .calibrate_predictor(benchmark)
                .expect("profiling pass completes");
            R2Row {
                benchmark,
                r_squared,
            }
        })
        .collect()
}

/// One row of the aging study.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingRow {
    /// Policy assessed.
    pub policy: PolicyKind,
    /// Aging imbalance (max wear / mean wear) across the 96 regulators.
    pub imbalance: f64,
    /// Worst-regulator wear relative to reference-temperature operation.
    pub max_wear: f64,
    /// Relative MTTF of the fleet (1 / max wear).
    pub relative_mttf: f64,
}

/// Section 7's aging discussion: assess per-regulator wear under each
/// gating policy on `lu_ncb` with an electromigration-class Arrhenius
/// model.
pub fn ablation_aging(opts: &ExpOptions) -> Vec<AgingRow> {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let model = AgingModel::electromigration();
    [
        PolicyKind::AllOn,
        PolicyKind::Naive,
        PolicyKind::OracT,
        PolicyKind::OracV,
        PolicyKind::PracVT,
    ]
    .into_iter()
    .map(|policy| {
        eprintln!("[aging] running {} …", policy.label());
        let result = engine
            .run(Benchmark::LuNcb, policy)
            .expect("physical configuration simulates");
        let report = model.assess(&result);
        AgingRow {
            policy,
            imbalance: report.imbalance(),
            max_wear: report.max_wear(),
            relative_mttf: report.relative_mttf(),
        }
    })
    .collect()
}

/// One row of the better-cooling study.
#[derive(Debug, Clone, PartialEq)]
pub struct CoolingRow {
    /// Policy assessed.
    pub policy: PolicyKind,
    /// T_max under the default air-cooled package, °C.
    pub tmax_air: f64,
    /// T_max under the improved cooling solution, °C.
    pub tmax_improved: f64,
}

/// Section 5's claim that the observations hold under better cooling:
/// re-run the key policies on `lu_ncb` with a lower-resistance package
/// and confirm the ordering survives.
pub fn ablation_cooling(opts: &ExpOptions) -> Vec<CoolingRow> {
    let chip = power8_like();
    let base_cfg = opts.engine_config();
    let improved_cfg = EngineConfig {
        thermal: ThermalConfig {
            package: PackageParams::improved_cooling(),
            ..base_cfg.thermal.clone()
        },
        ..base_cfg.clone()
    };
    let air = SimulationEngine::new(&chip, base_cfg);
    let improved = SimulationEngine::new(&chip, improved_cfg);
    [
        PolicyKind::OffChip,
        PolicyKind::AllOn,
        PolicyKind::OracT,
        PolicyKind::OracV,
    ]
    .into_iter()
    .map(|policy| {
        eprintln!("[cooling] running {} …", policy.label());
        let run = |engine: &SimulationEngine<'_>| {
            engine
                .run(Benchmark::LuNcb, policy)
                .expect("physical configuration simulates")
                .max_temperature()
                .get()
        };
        CoolingRow {
            policy,
            tmax_air: run(&air),
            tmax_improved: run(&improved),
        }
    })
    .collect()
}

/// One row of the regulator-count study.
#[derive(Debug, Clone, PartialEq)]
pub struct VrCountRow {
    /// Component regulators per core domain.
    pub core_vrs: usize,
    /// Component regulators per L3-bank domain.
    pub l3_vrs: usize,
    /// Maximum chip temperature under all-on, °C.
    pub tmax_allon_c: f64,
    /// Maximum voltage noise under all-on, % of Vdd.
    pub noise_allon_pct: Option<f64>,
    /// Maximum chip temperature under OracT, °C.
    pub tmax_oract_c: f64,
    /// Maximum voltage noise under OracT, % of Vdd.
    pub noise_oract_pct: Option<f64>,
}

/// Footnote 2 of the paper: "A lower regulator count worsens both the
/// thermal and the voltage noise profile." Sweeps the per-domain
/// regulator count on `lu_ncb`. The all-on columns show the network
/// effect footnote 2 describes; the OracT columns show how much placement
/// freedom thermally-aware gating gains from a denser network.
pub fn ablation_vr_count(opts: &ExpOptions) -> Vec<VrCountRow> {
    [(4usize, 2usize), (6, 2), (9, 3), (12, 4)]
        .into_iter()
        .map(|(core_vrs, l3_vrs)| {
            eprintln!("[vr-count] running {core_vrs}/{l3_vrs} …");
            let chip = floorplan::reference::power8_like_with_vr_counts(core_vrs, l3_vrs);
            let engine = SimulationEngine::new(&chip, opts.engine_config());
            let all_on = engine
                .run(Benchmark::LuNcb, PolicyKind::AllOn)
                .expect("physical configuration simulates");
            let oract = engine
                .run(Benchmark::LuNcb, PolicyKind::OracT)
                .expect("physical configuration simulates");
            VrCountRow {
                core_vrs,
                l3_vrs,
                tmax_allon_c: all_on.max_temperature().get(),
                noise_allon_pct: all_on.max_noise_percent(),
                tmax_oract_c: oract.max_temperature().get(),
                noise_oract_pct: oract.max_noise_percent(),
            }
        })
        .collect()
}

/// One row of the thermally-aware-placement study.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalPlacementRow {
    /// Placement label.
    pub placement: &'static str,
    /// Policy assessed.
    pub policy: PolicyKind,
    /// Maximum chip temperature, °C.
    pub tmax_c: f64,
    /// Maximum voltage noise, % of Vdd.
    pub max_noise_pct: Option<f64>,
}

/// Section 7's closing discussion: thermally-aware regulator placement
/// (shifting core regulators towards the memory blocks) can exploit
/// lateral heat transfer, but boosts voltage noise by lengthening the
/// path to the logic load. Compares the uniform placement against a
/// 1.5 mm memory-ward shift under all-on and OracT on `lu_ncb`.
pub fn ablation_thermal_placement(opts: &ExpOptions) -> Vec<ThermalPlacementRow> {
    let uniform_chip = power8_like();
    let mut shifted_chip = power8_like();
    pdn::placement::shift_towards_memory(&mut shifted_chip, 1.5).expect("clamped shift succeeds");
    let mut rows = Vec::new();
    for (placement, chip) in [
        ("uniform", &uniform_chip),
        ("memory-shifted", &shifted_chip),
    ] {
        let engine = SimulationEngine::new(chip, opts.engine_config());
        for policy in [PolicyKind::AllOn, PolicyKind::OracT] {
            eprintln!("[placement] running {placement} × {} …", policy.label());
            let result = engine
                .run(Benchmark::LuNcb, policy)
                .expect("physical configuration simulates");
            rows.push(ThermalPlacementRow {
                placement,
                policy,
                tmax_c: result.max_temperature().get(),
                max_noise_pct: result.max_noise_percent(),
            });
        }
    }
    rows
}

/// One row of the multiprogramming study.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiprogramRow {
    /// Workload label.
    pub workload: String,
    /// Policy assessed.
    pub policy: PolicyKind,
    /// Maximum chip temperature, °C.
    pub tmax_c: f64,
    /// Mean conversion efficiency.
    pub mean_efficiency: f64,
    /// Maximum voltage noise, % of Vdd.
    pub max_noise_pct: Option<f64>,
    /// Mean active regulators.
    pub mean_active: f64,
}

/// Section 7's multiprogramming claim: ThermoGater governs each
/// Vdd-domain independently, so a mixed workload (heavy cholesky on half
/// the cores, light raytrace on the other half) still sustains
/// near-peak efficiency with a sensible thermal/noise profile.
pub fn ablation_multiprogram(opts: &ExpOptions) -> Vec<MultiprogramRow> {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let mix: WorkloadSpec =
        WorkloadMix::alternating(Benchmark::Cholesky, Benchmark::Raytrace, 8).into();
    let specs: [WorkloadSpec; 3] = [
        WorkloadSpec::Single(Benchmark::Cholesky),
        WorkloadSpec::Single(Benchmark::Raytrace),
        mix,
    ];
    let mut rows = Vec::new();
    for spec in &specs {
        for policy in [PolicyKind::AllOn, PolicyKind::PracVT] {
            eprintln!("[multiprogram] running {spec} × {} …", policy.label());
            let result = engine
                .run_spec(spec, policy)
                .expect("physical configuration simulates");
            rows.push(MultiprogramRow {
                workload: spec.to_string(),
                policy,
                tmax_c: result.max_temperature().get(),
                mean_efficiency: result.mean_efficiency(),
                max_noise_pct: result.max_noise_percent(),
                mean_active: result.mean_active_count(),
            });
        }
    }
    rows
}

/// `value` at two decimals, the precision of every ablation column.
fn f2(value: f64) -> String {
    format!("{value:.2}")
}

/// Footnote 5: the three intervals; T_max and conversion loss must stay
/// within the paper's 1 % of the 1 ms baseline.
pub fn interval_report(opts: &ExpOptions) -> Report {
    let rows = ablation_interval(opts);
    let headers = ["interval (µs)", "T_max (°C)", "gradient (°C)", "loss (W)"];
    let detail = table(
        &headers,
        rows.iter().map(|r| {
            let interval = format!("{:.0}", r.interval_us);
            vec![interval, f2(r.tmax_c), f2(r.gradient_c), f2(r.mean_loss_w)]
        }),
    );
    // The largest deviation of a shorter interval from the baseline, %.
    let deviation = |metric: fn(&IntervalRow) -> f64| {
        let base = metric(&rows[0]);
        let devs = rows[1..]
            .iter()
            .map(|r| (metric(r) / base - 1.0).abs() * 100.0);
        devs.fold(0.0f64, f64::max)
    };
    let (loss, tmax) = (deviation(|r| r.mean_loss_w), deviation(|r| r.tmax_c));
    let measured = format!("conversion loss within {loss:.2} %, T_max within {tmax:.2} %");
    let claims = [Claim::AtMost(loss, 1.0), Claim::AtMost(tmax, 1.0)];
    Report::new(detail, measured, true, &claims, Some("T_max sensitive"))
}

/// Section 5: uniform vs optimized placement; their max IR drops must
/// differ by less than the paper's 0.4 % of Vdd.
pub fn placement_report(opts: &ExpOptions) -> Report {
    let outcome = ablation_placement(opts);
    let uniform = outcome.initial_max_fraction * 100.0;
    let optimized = outcome.final_max_fraction * 100.0;
    let detail = format!(
        "uniform placement max IR drop:   {uniform:.3} % of Vdd\n\
         optimized placement max IR drop: {optimized:.3} % of Vdd\n\
         accepted moves: {}\n\
         relative improvement: {:.2} %\n",
        outcome.accepted_moves,
        outcome.improvement() * 100.0,
    );
    let measured =
        format!("uniform {uniform:.3} % vs optimized {optimized:.3} % of Vdd max IR drop");
    let claims = [Claim::AtMost(uniform - optimized, 0.4)];
    Report::new(detail, measured, true, &claims, None)
}

/// Section 6.3: R² per benchmark; the paper's R² ≈ 0.99 leaves 1 %
/// unexplained, which the suite average is graded against.
pub fn r2_report(opts: &ExpOptions) -> Report {
    let rows = ablation_r2(opts);
    let avg = rows.iter().map(|r| r.r_squared).sum::<f64>() / rows.len() as f64;
    let rows_out = rows.iter().map(|r| (r.benchmark.label(), r.r_squared));
    let detail = table(
        &["benchmark", "R²"],
        rows_out
            .chain([("AVG", avg)])
            .map(|(label, r2)| vec![label.to_string(), format!("{r2:.4}")]),
    );
    let (lo, hi) = span(rows.iter().map(|r| r.r_squared));
    let measured = format!("R² {} per benchmark, AVG {avg:.3}", range(lo, hi, 3));
    Report::new(
        detail,
        measured,
        true,
        &[Claim::AtMost(1.0 - avg, 0.01)],
        None,
    )
}

/// Section 7 aging: wear per policy; OracV alone must wear its worst
/// regulator fastest.
pub fn aging_report(opts: &ExpOptions) -> Report {
    let rows = ablation_aging(opts);
    let headers = ["policy", "imbalance (max/mean)", "max wear", "rel. MTTF"];
    let detail = table(
        &headers,
        rows.iter().map(|r| {
            let label = r.policy.label().to_string();
            vec![label, f2(r.imbalance), f2(r.max_wear), f2(r.relative_mttf)]
        }),
    );
    let wear: Vec<String> = rows
        .iter()
        .map(|r| format!("{} {:.2}", r.policy.label(), r.max_wear))
        .collect();
    let worst = span(rows.iter().map(|r| r.max_wear)).1;
    let fastest = rows
        .iter()
        .filter(|r| r.max_wear == worst)
        .map(|r| r.policy);
    let shape = fastest.eq([PolicyKind::OracV]);
    Report::new(
        detail,
        format!("max wear: {}", wear.join(", ")),
        shape,
        &[],
        None,
    )
}

/// Section 5 cooling: T_max under both packages; the ordering off-chip
/// < OracT ≤ all-on < OracV must survive better cooling.
pub fn cooling_report(opts: &ExpOptions) -> Report {
    let rows = ablation_cooling(opts);
    let headers = ["policy", "T_max air (°C)", "T_max improved (°C)", "Δ"];
    let detail = table(
        &headers,
        rows.iter().map(|r| {
            let delta = format!("{:+.2}", r.tmax_improved - r.tmax_air);
            vec![
                r.policy.label().to_string(),
                f2(r.tmax_air),
                f2(r.tmax_improved),
                delta,
            ]
        }),
    );
    // The builder's order: off-chip, all-on, OracT, OracV.
    let [off, on, oract, oracv] = [0, 1, 2, 3].map(|k| rows[k].tmax_improved);
    let preserved = off < oract && oract <= on && on < oracv;
    let (lo, hi) = span(rows.iter().map(|r| r.tmax_air - r.tmax_improved));
    let measured = format!(
        "ordering {} under improved cooling, which lowers T_max by {} °C",
        if preserved { "preserved" } else { "broken" },
        range(lo, hi, 1)
    );
    Report::new(detail, measured, preserved, &[], None)
}

/// Section 7 multiprogramming: PracVT's mixed run must land between the
/// two single-program runs in T_max and active count.
pub fn multiprogram_report(opts: &ExpOptions) -> Report {
    let rows = ablation_multiprogram(opts);
    let headers = [
        "workload",
        "policy",
        "T_max (°C)",
        "η (%)",
        "noise (%)",
        "#active",
    ];
    let detail = table(
        &headers,
        rows.iter().map(|r| {
            vec![
                r.workload.clone(),
                r.policy.label().to_string(),
                f2(r.tmax_c),
                f2(r.mean_efficiency * 100.0),
                fmt_opt(r.max_noise_pct, 1),
                format!("{:.1}", r.mean_active),
            ]
        }),
    );
    // PracVT's rows: cholesky, raytrace, then the mix.
    let p: Vec<&MultiprogramRow> = rows
        .iter()
        .filter(|r| r.policy == PolicyKind::PracVT)
        .collect();
    let between = |f: fn(&MultiprogramRow) -> f64| {
        let (lo, hi) = span([f(p[0]), f(p[1])]);
        (lo..=hi).contains(&f(p[2]))
    };
    let measured = format!(
        "PracVT: mix T_max {:.1} °C vs chol {:.1} / rayt {:.1}; #active {:.1} vs {:.1} / {:.1}",
        p[2].tmax_c, p[0].tmax_c, p[1].tmax_c, p[2].mean_active, p[0].mean_active, p[1].mean_active
    );
    let shape = between(|r| r.tmax_c) && between(|r| r.mean_active);
    Report::new(detail, measured, shape, &[], None)
}

/// Section 7 thermally-aware placement: the memory-ward shift must lower
/// T_max and raise noise under both policies.
pub fn thermal_placement_report(opts: &ExpOptions) -> Report {
    let rows = ablation_thermal_placement(opts);
    let headers = ["placement", "policy", "T_max (°C)", "noise (%)"];
    let detail = table(
        &headers,
        rows.iter().map(|r| {
            let noise = fmt_opt(r.max_noise_pct, 1);
            vec![
                r.placement.to_string(),
                r.policy.label().to_string(),
                f2(r.tmax_c),
                noise,
            ]
        }),
    );
    // The uniform rows, then the shifted rows, in the same policy order.
    let (uniform, shifted) = rows.split_at(rows.len() / 2);
    let noise = |r: &ThermalPlacementRow| r.max_noise_pct.unwrap_or(f64::NAN);
    let deltas: Vec<(PolicyKind, f64, f64)> = uniform
        .iter()
        .zip(shifted)
        .map(|(u, s)| (u.policy, s.tmax_c - u.tmax_c, noise(s) - noise(u)))
        .collect();
    let cells: Vec<String> = deltas
        .iter()
        .map(|(p, dt, dn)| format!("{}: {dt:+.1} °C T_max, {dn:+.1} % noise", p.label()))
        .collect();
    let measured = format!("1.5 mm memory-ward shift — {}", cells.join("; "));
    let shape = deltas.iter().all(|&(_, dt, dn)| dt < 0.0 && dn > 0.0);
    Report::new(detail, measured, shape, &[], None)
}

/// Footnote 2: network density vs profile; under all-on the sparsest
/// network must be hotter and noisier than the densest.
pub fn vr_count_report(opts: &ExpOptions) -> Report {
    let rows = ablation_vr_count(opts);
    let headers = [
        "VRs/core",
        "VRs/L3",
        "total",
        "T_max all-on",
        "noise all-on",
        "T_max OracT",
        "noise OracT",
    ];
    let detail = table(
        &headers,
        rows.iter().map(|r| {
            vec![
                r.core_vrs.to_string(),
                r.l3_vrs.to_string(),
                (8 * r.core_vrs + 8 * r.l3_vrs).to_string(),
                f2(r.tmax_allon_c),
                fmt_opt(r.noise_allon_pct, 1),
                f2(r.tmax_oract_c),
                fmt_opt(r.noise_oract_pct, 1),
            ]
        }),
    );
    let (sparse, dense) = (&rows[0], &rows[rows.len() - 1]);
    let noise = |r: &VrCountRow| r.noise_allon_pct.unwrap_or(f64::NAN);
    let dt = sparse.tmax_allon_c - dense.tmax_allon_c;
    let rel = (noise(sparse) / noise(dense) - 1.0) * 100.0;
    let measured = format!(
        "all-on: {}/{} network is {dt:+.1} °C and {rel:+.0} % noisier than {}/{}",
        sparse.core_vrs, sparse.l3_vrs, dense.core_vrs, dense.l3_vrs
    );
    Report::new(detail, measured, dt > 0.0 && rel > 0.0, &[], None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_rows_cover_three_decades() {
        // Structure-only check; the actual runs are exercised by the
        // binaries and integration tests.
        let intervals = [1000.0, 100.0, 10.0];
        assert!(intervals.windows(2).all(|w| w[0] / w[1] == 10.0));
    }

    #[test]
    fn aging_policies_cover_the_contrast() {
        // OracV (logic-side, hot) vs PracVT (memory-side, cool) is the
        // Section 7 contrast; both must be in the assessed set.
        let assessed = [
            PolicyKind::AllOn,
            PolicyKind::Naive,
            PolicyKind::OracT,
            PolicyKind::OracV,
            PolicyKind::PracVT,
        ];
        assert!(assessed.contains(&PolicyKind::OracV));
        assert!(assessed.contains(&PolicyKind::PracVT));
    }
}
