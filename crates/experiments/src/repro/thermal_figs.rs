//! Fig. 8, Fig. 12, and Fig. 13 — thermal traces, heat maps, and
//! regulator activity. (Figs. 9/10 read the shared sweep directly.)

use super::{simulate, table, Claim, Report};
use crate::context::ExpOptions;
use crate::report::render_heatmap;
use floorplan::reference::power8_like;
use floorplan::{DomainKind, VrId, VrNeighborhood};
use thermogater::{DecisionRecord, PolicyKind, SimulationEngine};
use workload::Benchmark;

/// Fig. 8: `lu_ncb` under Naïve gating, showing the temperature and
/// on/off trace of the regulator that, among those Naïve toggles, swings
/// most; it must toggle, and swing by the paper's "more than 5 °C".
pub fn fig08_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let result = simulate(&engine, Benchmark::LuNcb, PolicyKind::Naive);
    let decisions = result.decisions();
    let toggles = |vr: VrId| {
        let flip = |w: &&[DecisionRecord]| w[0].gating.is_on(vr) != w[1].gating.is_on(vr);
        decisions.windows(2).filter(flip).count()
    };
    let swing = |vr: VrId| {
        let t = result.vr_temperatures().channel(vr.0);
        t.iter().copied().fold(f64::MIN, f64::max) - t.iter().copied().fold(f64::MAX, f64::min)
    };
    let vr = (0..chip.vr_sites().len())
        .map(VrId)
        .filter(|&v| toggles(v) >= 2)
        .max_by(|&a, &b| swing(a).total_cmp(&swing(b)))
        .unwrap_or(VrId(0));
    let temps = result.vr_temperatures().channel(vr.0);
    let dt_ms = result.vr_temperatures().dt().as_millis();
    let steps_per_decision = temps.len() / decisions.len();
    // The on/off state at each sample, step-wise constant per decision.
    let state_on: Vec<bool> = (0..temps.len())
        .map(|s| {
            decisions[(s / steps_per_decision).min(decisions.len() - 1)]
                .gating
                .is_on(vr)
        })
        .collect();
    let rows = (0..temps.len())
        .step_by((temps.len() / 50).max(1))
        .map(|k| {
            vec![
                format!("{:.2}", k as f64 * dt_ms),
                format!("{:.2}", temps[k]),
                if state_on[k] { "ON" } else { "off" }.to_string(),
            ]
        });
    let rows = table(&["time (ms)", "T (°C)", "state"], rows);
    let detail = format!("showcased regulator: {vr}\n\n{rows}");
    let toggles = state_on.windows(2).filter(|w| w[0] != w[1]).count();
    let measured = format!("{toggles} toggles, swing {:.2} °C", swing(vr));
    let claims = [Claim::AtLeast(swing(vr), 5.0)];
    Report::new(detail, measured, toggles >= 2, &claims, Some("weaker"))
}

/// Fig. 12: cholesky's heat map at the instant of T_max under off-chip,
/// all-on, OracT and OracV; T_max must order off-chip < OracT < all-on <
/// OracV with the paper's offsets from all-on (off-chip ≤ 66, OracT ≈
/// 71.2, all-on 73, OracV > 90 °C).
pub fn fig12_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let mut detail = String::new();
    let policies = [
        PolicyKind::OffChip,
        PolicyKind::AllOn,
        PolicyKind::OracT,
        PolicyKind::OracV,
    ];
    let [off, on, oract, oracv] = policies.map(|policy| {
        let result = simulate(&engine, Benchmark::Cholesky, policy);
        let tmax = result.max_temperature().get();
        let map = render_heatmap(result.heatmap_at_tmax());
        detail += &format!("\n--- {policy} (T_max {tmax:.1} °C) ---\n{map}");
        tmax
    });
    let measured =
        format!("off-chip {off:.1}, OracT {oract:.1}, all-on {on:.1}, OracV {oracv:.1} °C");
    let claims = [
        Claim::AtLeast(on - off, 73.0 - 66.0),
        Claim::Near(on - oract, 73.0 - 71.2),
        Claim::AtLeast(oracv - on, 90.0 - 73.0),
    ];
    let ordered = off < oract && oract < on && on < oracv;
    Report::new(detail, measured, ordered, &claims, Some("OracV weaker"))
}

/// Fig. 13: the fraction of decisions each per-core-domain regulator is
/// on for `lu_ncb` under OracT, OracV and PracVT, logic neighbours on
/// the left as in the figure; OracT must favour the memory side and
/// OracV the logic side.
pub fn fig13_report(opts: &ExpOptions) -> Report {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let core_domains = chip
        .domains()
        .iter()
        .filter(|d| d.kind() == DomainKind::Core);
    let mut vrs: Vec<(VrId, VrNeighborhood)> = core_domains
        .flat_map(|d| {
            d.vrs()
                .iter()
                .map(|&vr| (vr, chip.vr_site(vr).neighborhood()))
        })
        .collect();
    vrs.sort_by_key(|&(vr, hood)| (hood == VrNeighborhood::Memory, vr.0));
    let policies = [PolicyKind::OracT, PolicyKind::OracV, PolicyKind::PracVT];
    // Each regulator's on-fraction, one column per policy.
    let columns = policies.map(|policy| {
        let result = simulate(&engine, Benchmark::LuNcb, policy);
        vrs.iter()
            .map(|&(vr, _)| result.vr_activity_fraction(vr))
            .collect::<Vec<f64>>()
    });
    let pct = |a: f64| format!("{:.0}", a * 100.0);
    let rows = vrs.iter().enumerate().map(|(k, &(vr, hood))| {
        let group = match hood {
            VrNeighborhood::Logic => "logic",
            VrNeighborhood::Memory => "memory",
        };
        let on = columns.iter().map(|c| pct(c[k]));
        [vr.to_string(), group.to_string()]
            .into_iter()
            .chain(on)
            .collect()
    });
    let headers = [
        "regulator",
        "group",
        "OracT on-%",
        "OracV on-%",
        "PracVT on-%",
    ];
    // Each policy's mean activity of the (logic, memory) groups.
    let [oract, oracv, pracvt] = columns.each_ref().map(|column| {
        [VrNeighborhood::Logic, VrNeighborhood::Memory].map(|group| {
            let of_group = vrs
                .iter()
                .zip(column)
                .filter(|((_, hood), _)| *hood == group);
            let activity: Vec<f64> = of_group.map(|(_, &a)| a).collect();
            activity.iter().sum::<f64>() / activity.len().max(1) as f64
        })
    });
    let mut detail = table(&headers, rows) + "\nGroup means (% of decisions on):\n";
    for (label, [logic, memory]) in ["OracT: ", "OracV: ", "PracVT:"]
        .iter()
        .zip([oract, oracv, pracvt])
    {
        detail += &format!("{label} logic {} %, memory {} %\n", pct(logic), pct(memory));
    }
    let measured = format!(
        "OracT: logic {} % / memory {} %; OracV: logic {} % / memory {} %",
        pct(oract[0]),
        pct(oract[1]),
        pct(oracv[0]),
        pct(oracv[1])
    );
    let shape = oract[1] > oract[0] && oracv[0] > oracv[1];
    Report::new(detail, measured, shape, &[], None)
}
