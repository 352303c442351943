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

use super::{range, simulate, span, table, Claim, Report};
use crate::context::ExpOptions;
use crate::report::fmt_opt;
use floorplan::reference::power8_like;
use pdn::placement::optimize_placement;
use pdn::PdnConfig;
use power::{PowerModel, TechnologyParams};
use simkit::units::{Celsius, Seconds, Watts};
use thermal::{PackageParams, ThermalConfig};
use thermogater::PolicyKind::{self, AllOn, Naive, OffChip, OracT, OracV, PracVT};
use thermogater::{AgingModel, EngineConfig, SimulationEngine};
use workload::{Benchmark, TraceGenerator, WorkloadMix, WorkloadSpec};

/// `value` at two decimals, the precision of every ablation column.
fn f2(value: f64) -> String {
    format!("{value:.2}")
}

/// Footnote 5: `lu_ncb` under OracT at 1 ms, 100 µs and 10 µs decision
/// intervals (1×, 10×, 100× shorter), on a common 10 µs thermal step so
/// the physics is identical across rows; T_max and conversion loss must
/// stay within the paper's 1 % of the 1 ms baseline.
pub fn interval_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    // [interval µs, T_max °C, gradient °C, loss W] per interval.
    let runs: Vec<[f64; 4]> = [1000.0, 100.0, 10.0]
        .into_iter()
        .map(|interval_us| {
            let config = EngineConfig {
                decision_interval: Seconds::from_micros(interval_us),
                thermal_step: Seconds::from_micros(10.0),
                // Noise windows are orthogonal to this ablation; keep the
                // cost down.
                noise_window_count: 8,
                ..opts.engine_config()
            };
            let engine = SimulationEngine::new(&chip, config);
            let r = simulate(&engine, Benchmark::LuNcb, OracT);
            let (tmax, loss) = (r.max_temperature().get(), r.mean_total_vr_loss().get());
            [interval_us, tmax, r.max_gradient(), loss]
        })
        .collect();
    let headers = ["interval (µs)", "T_max (°C)", "gradient (°C)", "loss (W)"];
    let detail = table(
        &headers,
        runs.iter().map(|&[interval, tmax, gradient, loss]| {
            vec![format!("{interval:.0}"), f2(tmax), f2(gradient), f2(loss)]
        }),
    );
    // The largest deviation of a shorter interval from the baseline, %.
    let deviation = |k: usize| {
        let devs = runs[1..]
            .iter()
            .map(|r| (r[k] / runs[0][k] - 1.0).abs() * 100.0);
        devs.fold(0.0f64, f64::max)
    };
    let (loss, tmax) = (deviation(3), deviation(1));
    let measured = format!("conversion loss within {loss:.2} %, T_max within {tmax:.2} %");
    let claims = [Claim::AtMost(loss, 1.0), Claim::AtMost(tmax, 1.0)];
    Report::new(detail, measured, true, &claims, Some("T_max sensitive"))
}

/// Section 5: the Walking-Pads-style placement optimisation against the
/// uniform placement under an fft-like load; their max IR drops must
/// differ by less than the paper's 0.4 % of Vdd.
pub fn placement_report(opts: &ExpOptions) -> Report {
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
    let outcome = optimize_placement(&mut chip, &PdnConfig::reference(), &powers, 0.25, passes)
        .expect("placement optimisation completes");
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

/// Section 6.3: the in-sample R² of the calibrated ΔT = θ·ΔP predictor
/// per benchmark; the paper's R² ≈ 0.99 leaves 1 % unexplained, which
/// the suite average is graded against.
pub fn r2_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let r2: Vec<f64> = Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            eprintln!("[r2] calibrating {} …", benchmark.label());
            let calibrated = engine.calibrate_predictor(benchmark);
            calibrated.expect("profiling pass completes").1
        })
        .collect();
    let avg = r2.iter().sum::<f64>() / r2.len() as f64;
    let labels = Benchmark::ALL.iter().map(|b| b.label());
    let detail = table(
        &["benchmark", "R²"],
        labels
            .zip(r2.iter().copied())
            .chain([("AVG", avg)])
            .map(|(label, r2)| vec![label.to_string(), format!("{r2:.4}")]),
    );
    let (lo, hi) = span(r2.iter().copied());
    let measured = format!("R² {} per benchmark, AVG {avg:.3}", range(lo, hi, 3));
    Report::new(
        detail,
        measured,
        true,
        &[Claim::AtMost(1.0 - avg, 0.01)],
        None,
    )
}

/// Section 7 aging: per-regulator wear on `lu_ncb` under each gating
/// policy with an electromigration-class Arrhenius model; OracV alone
/// must wear its worst regulator fastest.
pub fn aging_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let model = AgingModel::electromigration();
    let mut rows = Vec::new();
    let mut wear = Vec::new();
    for policy in [AllOn, Naive, OracT, OracV, PracVT] {
        eprintln!("[aging] running {} …", policy.label());
        let aging = model.assess(&simulate(&engine, Benchmark::LuNcb, policy));
        let (label, max_wear) = (policy.label().to_string(), aging.max_wear());
        let (imbalance, mttf) = (aging.imbalance(), aging.relative_mttf());
        rows.push(vec![label, f2(imbalance), f2(max_wear), f2(mttf)]);
        wear.push((policy, max_wear));
    }
    let headers = ["policy", "imbalance (max/mean)", "max wear", "rel. MTTF"];
    let cells: Vec<String> = wear
        .iter()
        .map(|(p, w)| format!("{} {w:.2}", p.label()))
        .collect();
    let worst = span(wear.iter().map(|w| w.1)).1;
    let fastest = wear.iter().filter(|w| w.1 == worst).map(|w| w.0);
    let shape = fastest.eq([OracV]);
    Report::new(
        table(&headers, rows),
        format!("max wear: {}", cells.join(", ")),
        shape,
        &[],
        None,
    )
}

/// Section 5 cooling: the key policies on `lu_ncb` under the default
/// air-cooled package and a lower-resistance one; the ordering off-chip
/// < OracT ≤ all-on < OracV must survive better cooling.
pub fn cooling_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let air_cfg = opts.engine_config();
    let improved_cfg = EngineConfig {
        thermal: ThermalConfig {
            package: PackageParams::improved_cooling(),
            ..air_cfg.thermal.clone()
        },
        ..air_cfg.clone()
    };
    let air = SimulationEngine::new(&chip, air_cfg);
    let improved = SimulationEngine::new(&chip, improved_cfg);
    // (policy, T_max air, T_max improved).
    let runs = [OffChip, AllOn, OracT, OracV].map(|policy| {
        eprintln!("[cooling] running {} …", policy.label());
        let tmax = |engine: &SimulationEngine<'_>| {
            simulate(engine, Benchmark::LuNcb, policy)
                .max_temperature()
                .get()
        };
        (policy, tmax(&air), tmax(&improved))
    });
    let headers = ["policy", "T_max air (°C)", "T_max improved (°C)", "Δ"];
    let detail = table(
        &headers,
        runs.iter().map(|&(policy, air, improved)| {
            let delta = format!("{:+.2}", improved - air);
            vec![policy.label().to_string(), f2(air), f2(improved), delta]
        }),
    );
    let [off, on, oract, oracv] = runs.map(|r| r.2);
    let preserved = off < oract && oract <= on && on < oracv;
    let (lo, hi) = span(runs.iter().map(|&(_, air, improved)| air - improved));
    let measured = format!(
        "ordering {} under improved cooling, which lowers T_max by {} °C",
        if preserved { "preserved" } else { "broken" },
        range(lo, hi, 1)
    );
    Report::new(detail, measured, preserved, &[], None)
}

/// Section 7 multiprogramming: ThermoGater governs each Vdd-domain
/// independently, so a mix (heavy cholesky on half the cores, light
/// raytrace on the other half) still runs near peak efficiency; PracVT's
/// mixed run must land between the two single-program runs in T_max and
/// active count.
pub fn multiprogram_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let mix = WorkloadMix::alternating(Benchmark::Cholesky, Benchmark::Raytrace, 8);
    let specs: [WorkloadSpec; 3] = [
        Benchmark::Cholesky.into(),
        Benchmark::Raytrace.into(),
        mix.into(),
    ];
    let mut rows = Vec::new();
    // PracVT's (T_max, #active) per spec: cholesky, raytrace, the mix.
    let mut pracvt = Vec::new();
    for spec in &specs {
        for policy in [AllOn, PracVT] {
            eprintln!("[multiprogram] running {spec} × {} …", policy.label());
            let r = simulate(&engine, spec.clone(), policy);
            let (tmax, active) = (r.max_temperature().get(), r.mean_active_count());
            rows.push(vec![
                spec.to_string(),
                policy.label().to_string(),
                f2(tmax),
                f2(r.mean_efficiency() * 100.0),
                fmt_opt(r.max_noise_percent(), 1),
                format!("{active:.1}"),
            ]);
            if policy == PracVT {
                pracvt.push((tmax, active));
            }
        }
    }
    let headers = [
        "workload",
        "policy",
        "T_max (°C)",
        "η (%)",
        "noise (%)",
        "#active",
    ];
    let [chol, rayt, mixed] = [pracvt[0], pracvt[1], pracvt[2]];
    let between = |f: fn((f64, f64)) -> f64| {
        let (lo, hi) = span([f(chol), f(rayt)]);
        (lo..=hi).contains(&f(mixed))
    };
    let measured = format!(
        "PracVT: mix T_max {:.1} °C vs chol {:.1} / rayt {:.1}; #active {:.1} vs {:.1} / {:.1}",
        mixed.0, chol.0, rayt.0, mixed.1, chol.1, rayt.1
    );
    let shape = between(|r| r.0) && between(|r| r.1);
    Report::new(table(&headers, rows), measured, shape, &[], None)
}

/// Section 7 thermally-aware placement: shifting core regulators 1.5 mm
/// towards the memory blocks exploits lateral heat transfer but
/// lengthens the path to the logic load; on `lu_ncb` the shift must
/// lower T_max and raise noise under both all-on and OracT.
pub fn thermal_placement_report(opts: &ExpOptions) -> Report {
    let uniform_chip = power8_like();
    let mut shifted_chip = power8_like();
    pdn::placement::shift_towards_memory(&mut shifted_chip, 1.5).expect("clamped shift succeeds");
    let mut rows = Vec::new();
    // (policy, T_max, noise): the uniform runs, then the shifted ones.
    let mut runs = Vec::new();
    for (placement, chip) in [
        ("uniform", &uniform_chip),
        ("memory-shifted", &shifted_chip),
    ] {
        let engine = SimulationEngine::new(chip, opts.engine_config());
        for policy in [AllOn, OracT] {
            eprintln!("[placement] running {placement} × {} …", policy.label());
            let r = simulate(&engine, Benchmark::LuNcb, policy);
            let (tmax, noise) = (r.max_temperature().get(), r.max_noise_percent());
            let row = [placement, policy.label()].map(str::to_string);
            rows.push([row.to_vec(), vec![f2(tmax), fmt_opt(noise, 1)]].concat());
            runs.push((policy, tmax, noise.unwrap_or(f64::NAN)));
        }
    }
    let headers = ["placement", "policy", "T_max (°C)", "noise (%)"];
    let (uniform, shifted) = runs.split_at(runs.len() / 2);
    let deltas: Vec<(PolicyKind, f64, f64)> = uniform
        .iter()
        .zip(shifted)
        .map(|(u, s)| (u.0, s.1 - u.1, s.2 - u.2))
        .collect();
    let cells: Vec<String> = deltas
        .iter()
        .map(|(p, dt, dn)| format!("{}: {dt:+.1} °C T_max, {dn:+.1} % noise", p.label()))
        .collect();
    let measured = format!("1.5 mm memory-ward shift — {}", cells.join("; "));
    let shape = deltas.iter().all(|&(_, dt, dn)| dt < 0.0 && dn > 0.0);
    Report::new(table(&headers, rows), measured, shape, &[], None)
}

/// Footnote 2: "A lower regulator count worsens both the thermal and
/// the voltage noise profile." Sweeps the per-domain regulator count on
/// `lu_ncb`: the all-on columns show that network effect, the OracT
/// columns how much placement freedom gating gains from a denser
/// network. Under all-on the sparsest network must be hotter and
/// noisier than the densest.
pub fn vr_count_report(opts: &ExpOptions) -> Report {
    let counts = [(4usize, 2usize), (6, 2), (9, 3), (12, 4)];
    let mut rows = Vec::new();
    // All-on (T_max, noise) per count.
    let mut all_on = Vec::new();
    for (core_vrs, l3_vrs) in counts {
        eprintln!("[vr-count] running {core_vrs}/{l3_vrs} …");
        let chip = floorplan::reference::power8_like_with_vr_counts(core_vrs, l3_vrs);
        let engine = SimulationEngine::new(&chip, opts.engine_config());
        let total = 8 * core_vrs + 8 * l3_vrs;
        let mut row: Vec<String> = [core_vrs, l3_vrs, total].map(|n| n.to_string()).to_vec();
        for policy in [AllOn, OracT] {
            let r = simulate(&engine, Benchmark::LuNcb, policy);
            let (tmax, noise) = (r.max_temperature().get(), r.max_noise_percent());
            row.extend([f2(tmax), fmt_opt(noise, 1)]);
            if policy == AllOn {
                all_on.push((tmax, noise.unwrap_or(f64::NAN)));
            }
        }
        rows.push(row);
    }
    let headers = [
        "VRs/core",
        "VRs/L3",
        "total",
        "T_max all-on",
        "noise all-on",
        "T_max OracT",
        "noise OracT",
    ];
    let (sparse, dense) = (all_on[0], all_on[all_on.len() - 1]);
    let dt = sparse.0 - dense.0;
    let rel = (sparse.1 / dense.1 - 1.0) * 100.0;
    let ((c0, l0), (c1, l1)) = (counts[0], counts[counts.len() - 1]);
    let measured =
        format!("all-on: {c0}/{l0} network is {dt:+.1} °C and {rel:+.0} % noisier than {c1}/{l1}");
    Report::new(
        table(&headers, rows),
        measured,
        dt > 0.0 && rel > 0.0,
        &[],
        None,
    )
}
