//! Fig. 8, Fig. 12, and Fig. 13 — thermal traces, heat maps, and
//! regulator activity. (Figs. 9/10 read the shared sweep directly.)

use super::{table, Claim, Report};
use crate::context::ExpOptions;
use crate::report::render_heatmap;
use floorplan::reference::power8_like;
use floorplan::{DomainKind, VrId, VrNeighborhood};
use thermogater::{PolicyKind, SimulationEngine};
use workload::Benchmark;

/// Fig. 8 data: the temperature and on/off trace of the regulator that
/// toggles the most under Naïve gating.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig08Data {
    /// The showcased regulator.
    pub vr: VrId,
    /// Sample times, ms.
    pub time_ms: Vec<f64>,
    /// Regulator temperature, °C.
    pub temperature_c: Vec<f64>,
    /// On/off state at each sample (step-wise constant per decision).
    pub state_on: Vec<bool>,
    /// Peak-to-peak temperature swing of the showcased regulator, °C.
    pub swing_c: f64,
}

/// Builds Fig. 8 by simulating `lu_ncb` under the Naïve policy.
pub fn fig08(opts: &ExpOptions) -> Fig08Data {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let result = engine
        .run(Benchmark::LuNcb, PolicyKind::Naive)
        .expect("physical configuration simulates");

    // The showcased regulator: among those Naïve actually toggles, the
    // one with the largest temperature swing.
    let n_vrs = chip.vr_sites().len();
    let toggles = |vr: VrId| {
        result
            .decisions()
            .windows(2)
            .filter(|w| w[0].gating.is_on(vr) != w[1].gating.is_on(vr))
            .count()
    };
    let swing = |vr: VrId| {
        let t = result.vr_temperatures().channel(vr.0);
        t.iter().copied().fold(f64::MIN, f64::max) - t.iter().copied().fold(f64::MAX, f64::min)
    };
    let vr = (0..n_vrs)
        .map(VrId)
        .filter(|&v| toggles(v) >= 2)
        .max_by(|&a, &b| swing(a).partial_cmp(&swing(b)).expect("finite temps"))
        .unwrap_or(VrId(0));

    let temps = result.vr_temperatures().channel(vr.0).to_vec();
    let dt_ms = result.vr_temperatures().dt().as_millis();
    let time_ms: Vec<f64> = (0..temps.len()).map(|i| i as f64 * dt_ms).collect();
    let steps_per_decision = temps.len() / result.decisions().len();
    let state_on: Vec<bool> = (0..temps.len())
        .map(|s| {
            let k = (s / steps_per_decision).min(result.decisions().len() - 1);
            result.decisions()[k].gating.is_on(vr)
        })
        .collect();
    let max = temps.iter().copied().fold(f64::MIN, f64::max);
    let min = temps.iter().copied().fold(f64::MAX, f64::min);
    Fig08Data {
        vr,
        time_ms,
        temperature_c: temps,
        state_on,
        swing_c: max - min,
    }
}

/// One Fig. 12 frame: the heat map at the instant of T_max.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Frame {
    /// The policy of this frame.
    pub policy: PolicyKind,
    /// Silicon heat map (rows bottom-first, °C).
    pub heatmap: Vec<Vec<f64>>,
    /// The temporal maximum chip temperature, °C.
    pub tmax_c: f64,
}

/// Builds the four Fig. 12 frames (cholesky under off-chip / all-on /
/// OracT / OracV).
pub fn fig12(opts: &ExpOptions) -> Vec<Fig12Frame> {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    [
        PolicyKind::OffChip,
        PolicyKind::AllOn,
        PolicyKind::OracT,
        PolicyKind::OracV,
    ]
    .into_iter()
    .map(|policy| {
        let result = engine
            .run(Benchmark::Cholesky, policy)
            .expect("physical configuration simulates");
        Fig12Frame {
            policy,
            heatmap: result.heatmap_at_tmax().to_vec(),
            tmax_c: result.max_temperature().get(),
        }
    })
    .collect()
}

/// One regulator's activity bar of Fig. 13.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityBar {
    /// The regulator.
    pub vr: VrId,
    /// Whether it neighbors logic (left group) or memory (right group).
    pub neighborhood: VrNeighborhood,
    /// Fraction of decisions during which it was on.
    pub activity: f64,
}

/// Fig. 13 data: per-core-domain regulator activity under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Data {
    /// The 72 per-core-domain regulators' bars, logic group first.
    pub bars: Vec<ActivityBar>,
    /// Mean activity of the logic-neighborhood group.
    pub logic_mean: f64,
    /// Mean activity of the memory-neighborhood group.
    pub memory_mean: f64,
}

/// Builds one Fig. 13 panel by simulating `lu_ncb` under `policy`
/// (the paper contrasts OracT and OracV).
pub fn fig13(opts: &ExpOptions, policy: PolicyKind) -> Fig13Data {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, opts.engine_config());
    let result = engine
        .run(Benchmark::LuNcb, policy)
        .expect("physical configuration simulates");

    let mut bars: Vec<ActivityBar> = chip
        .domains()
        .iter()
        .filter(|d| d.kind() == DomainKind::Core)
        .flat_map(|d| d.vrs().iter().copied())
        .map(|vr| ActivityBar {
            vr,
            neighborhood: chip.vr_site(vr).neighborhood(),
            activity: result.vr_activity_fraction(vr),
        })
        .collect();
    // Logic group on the left, as in the figure.
    bars.sort_by_key(|b| (b.neighborhood == VrNeighborhood::Memory, b.vr.0));
    let mean = |hood: VrNeighborhood| {
        let group: Vec<f64> = bars
            .iter()
            .filter(|b| b.neighborhood == hood)
            .map(|b| b.activity)
            .collect();
        group.iter().sum::<f64>() / group.len().max(1) as f64
    };
    Fig13Data {
        logic_mean: mean(VrNeighborhood::Logic),
        memory_mean: mean(VrNeighborhood::Memory),
        bars,
    }
}

/// Fig. 8: the showcased regulator's trace; it must toggle, and swing by
/// the paper's "more than 5 °C".
pub fn fig08_report(opts: &ExpOptions) -> Report {
    let data = fig08(opts);
    let step = (data.time_ms.len() / 50).max(1);
    let rows = (0..data.time_ms.len()).step_by(step).map(|k| {
        vec![
            format!("{:.2}", data.time_ms[k]),
            format!("{:.2}", data.temperature_c[k]),
            if data.state_on[k] { "ON" } else { "off" }.to_string(),
        ]
    });
    let rows = table(&["time (ms)", "T (°C)", "state"], rows);
    let detail = format!("showcased regulator: {}\n\n{rows}", data.vr);
    let toggles = data.state_on.windows(2).filter(|w| w[0] != w[1]).count();
    let measured = format!("{toggles} toggles, swing {:.2} °C", data.swing_c);
    let claims = [Claim::AtLeast(data.swing_c, 5.0)];
    Report::new(detail, measured, toggles >= 2, &claims, Some("weaker"))
}

/// Fig. 12: the four heat maps; T_max must order off-chip < OracT <
/// all-on < OracV with the paper's offsets from all-on (off-chip ≤ 66,
/// OracT ≈ 71.2, all-on 73, OracV > 90 °C).
pub fn fig12_report(opts: &ExpOptions) -> Report {
    let frames = fig12(opts);
    let mut detail = String::new();
    for f in &frames {
        let map = render_heatmap(&f.heatmap);
        detail += &format!("\n--- {} (T_max {:.1} °C) ---\n{map}", f.policy, f.tmax_c);
    }
    // The builder's order: off-chip, all-on, OracT, OracV.
    let [off, on, oract, oracv] = [0, 1, 2, 3].map(|k| frames[k].tmax_c);
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

/// Fig. 13: per-regulator activity under OracT, OracV and PracVT; OracT
/// must favour the memory side and OracV the logic side.
pub fn fig13_report(opts: &ExpOptions) -> Report {
    let panels = [PolicyKind::OracT, PolicyKind::OracV, PolicyKind::PracVT].map(|p| fig13(opts, p));
    let [oract, oracv, pracvt] = &panels;
    let pct = |a: f64| format!("{:.0}", a * 100.0);
    let bars = oract.bars.iter().zip(&oracv.bars).zip(&pracvt.bars);
    let rows = bars.map(|((a, b), c)| {
        assert!(a.vr == b.vr && a.vr == c.vr, "bar ordering must match");
        let group = match a.neighborhood {
            VrNeighborhood::Logic => "logic",
            VrNeighborhood::Memory => "memory",
        };
        let on = [a, b, c].map(|bar| pct(bar.activity));
        [vec![a.vr.to_string(), group.to_string()], on.to_vec()].concat()
    });
    let headers = [
        "regulator",
        "group",
        "OracT on-%",
        "OracV on-%",
        "PracVT on-%",
    ];
    let mut detail = table(&headers, rows) + "\nGroup means (% of decisions on):\n";
    for (label, p) in ["OracT: ", "OracV: ", "PracVT:"].iter().zip(&panels) {
        let (logic, memory) = (pct(p.logic_mean), pct(p.memory_mean));
        detail += &format!("{label} logic {logic} %, memory {memory} %\n");
    }
    let measured = format!(
        "OracT: logic {} % / memory {} %; OracV: logic {} % / memory {} %",
        pct(oract.logic_mean),
        pct(oract.memory_mean),
        pct(oracv.logic_mean),
        pct(oracv.memory_mean)
    );
    let shape = oract.memory_mean > oract.logic_mean && oracv.logic_mean > oracv.memory_mean;
    Report::new(detail, measured, shape, &[], None)
}

#[cfg(test)]
mod tests {
    use super::*;

    // End-to-end figure builders are exercised by the integration tests
    // and the binaries; here we only check cheap invariants of the data
    // types.

    #[test]
    fn fig12_policies_match_the_paper_frames() {
        let frames = [
            PolicyKind::OffChip,
            PolicyKind::AllOn,
            PolicyKind::OracT,
            PolicyKind::OracV,
        ];
        assert_eq!(frames.len(), 4);
    }

    #[test]
    fn activity_bar_is_plain_data() {
        let bar = ActivityBar {
            vr: VrId(3),
            neighborhood: VrNeighborhood::Logic,
            activity: 0.75,
        };
        assert_eq!(bar.vr, VrId(3));
        assert!((bar.activity - 0.75).abs() < 1e-12);
    }
}
