//! The gating policies of the paper.
//!
//! Every viable policy first receives the number of active regulators
//! each Vdd-domain needs to sustain peak conversion efficiency (`n_on`,
//! computed by the engine from the current demand and the regulator
//! bank). Policies only differ in *which* `n_on` regulators they select —
//! by a thermal ranking, by a noise-proximity ranking, or with an
//! emergency overlay — exactly the structure of Section 6.2.

use floorplan::Floorplan;
use simkit::{Error, Result};
use vreg::GatingState;

/// The eight gating policies evaluated in the paper.
///
/// Deliberately *not* `#[non_exhaustive]`: downstream matches (policy
/// cache tags, report columns) must break at compile time when a
/// variant is added, so two future policies can never silently share a
/// fallback tag and collide on the same cache file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Baseline: every regulator on all the time. Best-case voltage
    /// noise, but conversion efficiency drifts below the peak.
    AllOn,
    /// Baseline: no on-chip regulation — no conversion-loss heat on die.
    OffChip,
    /// Greedy thermally-aware gating: keep the instantaneously coolest
    /// `n_on` regulators on.
    Naive,
    /// Thermally-aware oracle: keep the coolest-*to-be* regulators on
    /// (perfect knowledge of next-interval power and temperature).
    OracT,
    /// Voltage-noise-aware oracle: keep the regulators closest to the
    /// current load (noise peak) on; thermally oblivious.
    OracV,
    /// OracT by default, per-domain all-on upon a (perfectly predicted)
    /// voltage emergency.
    OracVT,
    /// Practical OracT: delayed sensor readings + ΔT = θ·ΔP prediction +
    /// WMA power forecast.
    PracT,
    /// PracT plus a ~90 %-accurate voltage-emergency predictor driving
    /// per-domain all-on.
    PracVT,
}

impl PolicyKind {
    /// The paper's policies, in the paper's figure-legend order.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Naive,
        PolicyKind::OracT,
        PolicyKind::OracV,
        PolicyKind::OracVT,
        PolicyKind::PracT,
        PolicyKind::PracVT,
        PolicyKind::AllOn,
        PolicyKind::OffChip,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::AllOn => "all-on",
            PolicyKind::OffChip => "off-chip",
            PolicyKind::Naive => "Naïve",
            PolicyKind::OracT => "OracT",
            PolicyKind::OracV => "OracV",
            PolicyKind::OracVT => "OracVT",
            PolicyKind::PracT => "PracT",
            PolicyKind::PracVT => "PracVT",
        }
    }

    /// Whether the policy performs regulator gating at all (the two
    /// baselines do not).
    pub fn gates(self) -> bool {
        !matches!(self, PolicyKind::AllOn | PolicyKind::OffChip)
    }

    /// Whether the policy ranks regulators thermally.
    pub fn uses_thermal_ranking(self) -> bool {
        matches!(
            self,
            PolicyKind::Naive
                | PolicyKind::OracT
                | PolicyKind::OracVT
                | PolicyKind::PracT
                | PolicyKind::PracVT
        )
    }

    /// Whether the policy ranks by the linear ΔT = θ·ΔP predictor and so
    /// needs a θ-calibration pass before its run: the thermal oracles
    /// and the practical policies. `Naïve` ranks by the instantaneous
    /// truth and needs none.
    pub fn needs_predictor(self) -> bool {
        matches!(
            self,
            PolicyKind::OracT | PolicyKind::OracVT | PolicyKind::PracT | PolicyKind::PracVT
        )
    }

    /// Always `false`: no policy closes a feedback loop over the measured
    /// plant. Kept only because the frozen benchmark's replay
    /// (`benchmark/src/replay.rs`) still calls it; it goes when that
    /// replay is deleted.
    pub fn is_closed_loop(self) -> bool {
        false
    }

    /// Whether the policy ranks regulators by noise proximity.
    pub fn uses_noise_ranking(self) -> bool {
        matches!(self, PolicyKind::OracV)
    }

    /// Whether the policy switches a domain to all-on upon a (predicted)
    /// voltage emergency.
    pub fn reacts_to_emergencies(self) -> bool {
        matches!(self, PolicyKind::OracVT | PolicyKind::PracVT)
    }

    /// Whether the policy has oracular knowledge of the future.
    pub fn is_oracular(self) -> bool {
        matches!(
            self,
            PolicyKind::OracT | PolicyKind::OracV | PolicyKind::OracVT
        )
    }

    /// Whether the policy is implementable in hardware (sensors,
    /// predictors, firmware).
    pub fn is_practical(self) -> bool {
        matches!(self, PolicyKind::PracT | PolicyKind::PracVT)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything a gating decision can depend on, assembled by the engine.
///
/// The engine fills `vr_temp_rank` with whatever temperature estimate the
/// active policy is entitled to: the instantaneous truth for `Naïve`, the
/// anticipated next-interval temperature for the oracles, or the
/// sensor-plus-predictor estimate for the practical policies. The policy
/// itself is just a ranking rule.
#[derive(Debug)]
pub struct PolicyInputs<'a> {
    /// The chip (for domain→VR structure).
    pub chip: &'a Floorplan,
    /// Required active regulators per domain (indexed by `DomainId`),
    /// as dictated by sustaining peak conversion efficiency.
    pub n_on: &'a [usize],
    /// Per-VR temperature estimate used for thermal ranking (°C).
    pub vr_temp_rank: &'a [f64],
    /// Per-VR load-proximity score (higher = closer to the load/noise
    /// peak).
    pub vr_noise_score: &'a [f64],
    /// Per-domain voltage-emergency flag for the upcoming interval.
    pub emergency: &'a [bool],
}

/// Applies a policy's ranking rule, producing each domain's regulators
/// in keep-on priority order (first = the regulator to keep on at the
/// smallest `n_on`).
///
/// Rankings are the 1 ms-granularity part of a decision: *which*
/// regulators to prefer. The *number* actually on (`n_on`) follows the
/// instantaneous current demand continuously, like automatic phase
/// shedding in a multi-phase regulator — so the engine re-takes a prefix
/// of this ranking at every simulation step.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] when the input vectors do not
/// match the chip's domain/VR counts.
pub fn rank_regulators(
    kind: PolicyKind,
    inputs: &PolicyInputs<'_>,
) -> Result<Vec<Vec<floorplan::VrId>>> {
    let chip = inputs.chip;
    let n_vrs = chip.vr_sites().len();
    let n_domains = chip.domains().len();
    for (len, expected) in [
        (inputs.n_on.len(), n_domains),
        (inputs.vr_temp_rank.len(), n_vrs),
        (inputs.vr_noise_score.len(), n_vrs),
        (inputs.emergency.len(), n_domains),
    ] {
        if len != expected {
            return Err(Error::DimensionMismatch {
                expected,
                actual: len,
            });
        }
    }
    Ok(chip
        .domains()
        .iter()
        .map(|domain| {
            let mut ranked: Vec<_> = domain.vrs().to_vec();
            if kind.uses_noise_ranking() {
                // Highest load proximity first.
                ranked.sort_by(|a, b| {
                    inputs.vr_noise_score[b.0]
                        .partial_cmp(&inputs.vr_noise_score[a.0])
                        .expect("finite scores")
                        .then(a.0.cmp(&b.0))
                });
            } else if kind.uses_thermal_ranking() {
                // Coolest (anticipated) first.
                ranked.sort_by(|a, b| {
                    inputs.vr_temp_rank[a.0]
                        .partial_cmp(&inputs.vr_temp_rank[b.0])
                        .expect("finite temperatures")
                        .then(a.0.cmp(&b.0))
                });
            }
            ranked
        })
        .collect())
}

/// Applies a policy's selection rule at a fixed `n_on` per domain,
/// producing a chip-wide gating state — the snapshot taken at the
/// decision instant (the engine then slides `n_on` with the demand, see
/// [`rank_regulators`]).
///
/// # Examples
///
/// ```
/// use thermogater::{select_gating, PolicyInputs, PolicyKind};
/// use floorplan::reference::power8_like;
///
/// let chip = power8_like();
/// let n_on = vec![3; chip.domains().len()];
/// // Rank by some temperature estimate (here: VR index as a stand-in).
/// let temps: Vec<f64> = (0..96).map(|i| 50.0 + i as f64 * 0.1).collect();
/// let inputs = PolicyInputs {
///     chip: &chip,
///     n_on: &n_on,
///     vr_temp_rank: &temps,
///     vr_noise_score: &vec![0.0; 96],
///     emergency: &vec![false; chip.domains().len()],
/// };
/// let gating = select_gating(PolicyKind::OracT, &inputs)?;
/// // Three regulators on per domain, 16 domains.
/// assert_eq!(gating.active_count(), 48);
/// # Ok::<(), simkit::Error>(())
/// ```
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] when the input vectors do not
/// match the chip's domain/VR counts.
pub fn select_gating(kind: PolicyKind, inputs: &PolicyInputs<'_>) -> Result<GatingState> {
    let rankings = rank_regulators(kind, inputs)?;
    gating_from_rankings(kind, inputs.chip, &rankings, inputs.n_on, inputs.emergency)
}

/// Materialises a gating state from per-domain rankings and the current
/// per-domain `n_on` (with the VT policies' emergency overlay).
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] when `rankings`/`n_on`/
/// `emergency` do not have one entry per domain.
pub fn gating_from_rankings(
    kind: PolicyKind,
    chip: &Floorplan,
    rankings: &[Vec<floorplan::VrId>],
    n_on: &[usize],
    emergency: &[bool],
) -> Result<GatingState> {
    let n_vrs = chip.vr_sites().len();
    let n_domains = chip.domains().len();
    for (len, expected) in [
        (rankings.len(), n_domains),
        (n_on.len(), n_domains),
        (emergency.len(), n_domains),
    ] {
        if len != expected {
            return Err(Error::DimensionMismatch {
                expected,
                actual: len,
            });
        }
    }
    match kind {
        PolicyKind::AllOn => return Ok(GatingState::all_on(n_vrs)),
        PolicyKind::OffChip => return Ok(GatingState::all_off(n_vrs)),
        _ => {}
    }
    let mut state = GatingState::all_off(n_vrs);
    for domain in chip.domains() {
        let d = domain.id().0;
        if kind.reacts_to_emergencies() && emergency[d] {
            // Emergency overlay: the affected domain runs all-on, trading
            // a sliver of conversion efficiency for noise headroom.
            for &v in domain.vrs() {
                state.set(v, true)?;
            }
            continue;
        }
        let count = n_on[d].clamp(1, domain.vr_count());
        for &v in rankings[d].iter().take(count) {
            state.set(v, true)?;
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::reference::power8_like;
    use floorplan::VrId;

    struct Fixture {
        chip: Floorplan,
        n_on: Vec<usize>,
        temps: Vec<f64>,
        noise: Vec<f64>,
        emergency: Vec<bool>,
    }

    fn fixture() -> Fixture {
        let chip = power8_like();
        let n_domains = chip.domains().len();
        let n_vrs = chip.vr_sites().len();
        Fixture {
            chip,
            n_on: vec![2; n_domains],
            temps: (0..n_vrs).map(|i| 50.0 + i as f64).collect(),
            noise: (0..n_vrs).map(|i| i as f64).collect(),
            emergency: vec![false; n_domains],
        }
    }

    fn inputs(f: &Fixture) -> PolicyInputs<'_> {
        PolicyInputs {
            chip: &f.chip,
            n_on: &f.n_on,
            vr_temp_rank: &f.temps,
            vr_noise_score: &f.noise,
            emergency: &f.emergency,
        }
    }

    #[test]
    fn all_on_and_off_chip() {
        let f = fixture();
        let on = select_gating(PolicyKind::AllOn, &inputs(&f)).unwrap();
        assert_eq!(on.active_count(), 96);
        let off = select_gating(PolicyKind::OffChip, &inputs(&f)).unwrap();
        assert_eq!(off.active_count(), 0);
    }

    #[test]
    fn thermal_policies_pick_coolest_per_domain() {
        let f = fixture();
        for kind in [PolicyKind::Naive, PolicyKind::OracT, PolicyKind::PracT] {
            let state = select_gating(kind, &inputs(&f)).unwrap();
            // Temps ascend with VrId, so the 2 lowest-id VRs of each
            // domain are selected.
            for domain in f.chip.domains() {
                let mut ids: Vec<_> = domain.vrs().to_vec();
                ids.sort();
                assert!(state.is_on(ids[0]), "{kind}: coolest not on");
                assert!(state.is_on(ids[1]));
                assert_eq!(state.active_among(domain.vrs()), 2, "{kind}");
            }
        }
    }

    #[test]
    fn oracv_picks_highest_proximity() {
        let f = fixture();
        let state = select_gating(PolicyKind::OracV, &inputs(&f)).unwrap();
        for domain in f.chip.domains() {
            let mut ids: Vec<_> = domain.vrs().to_vec();
            ids.sort();
            // Noise score ascends with id → highest ids win.
            assert!(state.is_on(ids[ids.len() - 1]));
            assert!(state.is_on(ids[ids.len() - 2]));
            assert_eq!(state.active_among(domain.vrs()), 2);
        }
    }

    #[test]
    fn emergency_forces_domain_all_on() {
        let mut f = fixture();
        f.emergency[3] = true;
        for kind in [PolicyKind::OracVT, PolicyKind::PracVT] {
            let state = select_gating(kind, &inputs(&f)).unwrap();
            let affected = &f.chip.domains()[3];
            assert_eq!(
                state.active_among(affected.vrs()),
                affected.vr_count(),
                "{kind}"
            );
            // Unaffected domains still gate to n_on.
            let other = &f.chip.domains()[0];
            assert_eq!(state.active_among(other.vrs()), 2, "{kind}");
        }
    }

    #[test]
    fn emergencies_ignored_by_non_vt_policies() {
        let mut f = fixture();
        f.emergency.iter_mut().for_each(|e| *e = true);
        let state = select_gating(PolicyKind::OracT, &inputs(&f)).unwrap();
        for domain in f.chip.domains() {
            assert_eq!(state.active_among(domain.vrs()), 2);
        }
    }

    #[test]
    fn n_on_is_clamped_to_domain_size() {
        let mut f = fixture();
        f.n_on.iter_mut().for_each(|n| *n = 100);
        let state = select_gating(PolicyKind::OracT, &inputs(&f)).unwrap();
        assert_eq!(state.active_count(), 96);
        f.n_on.iter_mut().for_each(|n| *n = 0);
        let state = select_gating(PolicyKind::OracT, &inputs(&f)).unwrap();
        // At least one regulator per domain stays on.
        assert_eq!(state.active_count(), f.chip.domains().len());
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let f = fixture();
        let bad = PolicyInputs {
            chip: &f.chip,
            n_on: &f.n_on[..3],
            vr_temp_rank: &f.temps,
            vr_noise_score: &f.noise,
            emergency: &f.emergency,
        };
        assert!(select_gating(PolicyKind::OracT, &bad).is_err());
    }

    #[test]
    fn ties_resolve_deterministically() {
        let mut f = fixture();
        f.temps.iter_mut().for_each(|t| *t = 60.0);
        let a = select_gating(PolicyKind::OracT, &inputs(&f)).unwrap();
        let b = select_gating(PolicyKind::OracT, &inputs(&f)).unwrap();
        assert_eq!(a, b);
        // Lowest ids win ties.
        let d0 = &f.chip.domains()[0];
        let mut ids: Vec<_> = d0.vrs().to_vec();
        ids.sort();
        assert!(a.is_on(ids[0]) && a.is_on(ids[1]));
    }

    #[test]
    fn classification_helpers() {
        assert!(PolicyKind::PracVT.is_practical());
        assert!(!PolicyKind::OracVT.is_practical());
        assert!(PolicyKind::OracV.is_oracular());
        assert!(!PolicyKind::AllOn.gates());
        assert!(PolicyKind::Naive.uses_thermal_ranking());
        assert!(!PolicyKind::Naive.reacts_to_emergencies());
        assert!(PolicyKind::OracV.uses_noise_ranking());
        assert_eq!(PolicyKind::ALL.len(), 8);
        assert_eq!(PolicyKind::Naive.to_string(), "Naïve");
        for kind in PolicyKind::ALL {
            assert!(!kind.is_closed_loop(), "{kind}");
        }
        let predicted: Vec<_> = PolicyKind::ALL
            .into_iter()
            .filter(|k| k.needs_predictor())
            .collect();
        assert_eq!(
            predicted,
            [
                PolicyKind::OracT,
                PolicyKind::OracVT,
                PolicyKind::PracT,
                PolicyKind::PracVT
            ]
        );
    }

    #[test]
    fn naive_avoids_the_hottest() {
        let mut f = fixture();
        // Make one specific VR of domain 0 blazing hot.
        let d0 = &f.chip.domains()[0];
        let hot = d0.vrs()[4];
        f.temps[hot.0] = 200.0;
        let state = select_gating(PolicyKind::Naive, &inputs(&f)).unwrap();
        assert!(!state.is_on(hot));
        let _ = VrId(0);
    }
}
