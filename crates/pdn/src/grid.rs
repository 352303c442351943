//! Per-domain nodal DC grids and IR-drop solves.

use crate::config::PdnConfig;
use floorplan::{DomainId, Floorplan, VrId};
use simkit::linalg::{
    CsrMatrix, GridGeometry, SolveSites, SolveStats, SolverBackend, SpdSolver, SpdWorkspace,
    TripletBuilder,
};
use simkit::perf::SolverAgg;
use simkit::units::Watts;
use simkit::{Error, Result};
use std::sync::Mutex;
use vreg::GatingState;

/// Telemetry sites of the IR-drop solves.
pub const IR_SITES: SolveSites = SolveSites {
    cg: "pdn.ir_cg",
    mgcg: "pdn.ir_mgcg",
    direct: "pdn.ir_direct",
};

/// Result of one static IR-drop analysis.
#[derive(Debug, Clone)]
pub struct IrReport {
    /// Worst local drop per domain, volts (indexed by [`DomainId`]).
    per_domain_volts: Vec<f64>,
    /// Chip-wide global-grid drop, volts.
    global_volts: f64,
    vdd: f64,
    /// Aggregate over the per-domain solves that produced the report.
    solve: SolverAgg,
    /// Solver family that produced the report.
    backend: SolverBackend,
    /// Wall-clock spent building or refreshing domain solvers, seconds
    /// (zero when every domain's active-regulator set repeats).
    factor_seconds: f64,
    /// Wall-clock spent in the triangular / iterative solves, seconds.
    solve_seconds: f64,
}

/// Equality ignores the wall-clock timing fields: two reports are equal
/// when they describe the same physical result via the same backend, so
/// cache-consistency tests can `assert_eq!` across repeated solves.
impl PartialEq for IrReport {
    fn eq(&self, other: &Self) -> bool {
        self.per_domain_volts == other.per_domain_volts
            && self.global_volts == other.global_volts
            && self.vdd == other.vdd
            && self.solve == other.solve
            && self.backend == other.backend
    }
}

impl IrReport {
    /// Worst local IR drop of one domain, volts.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_volts(&self, domain: DomainId) -> f64 {
        self.per_domain_volts[domain.0]
    }

    /// Total (local + global) drop of one domain as a fraction of Vdd.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_fraction(&self, domain: DomainId) -> f64 {
        (self.per_domain_volts[domain.0] + self.global_volts) / self.vdd
    }

    /// The chip-wide global-grid component, volts.
    pub fn global_volts(&self) -> f64 {
        self.global_volts
    }

    /// Worst total drop across all domains as a fraction of Vdd.
    pub fn chip_max_fraction(&self) -> f64 {
        let worst_local = self.per_domain_volts.iter().copied().fold(0.0f64, f64::max);
        (worst_local + self.global_volts) / self.vdd
    }

    /// Number of domains in the report.
    pub fn domain_count(&self) -> usize {
        self.per_domain_volts.len()
    }

    /// Aggregated convergence statistics of the per-domain solves behind
    /// this report (one solve per domain; direct solves count as one
    /// iteration with the achieved relative residual).
    pub fn solve_stats(&self) -> SolverAgg {
        self.solve
    }

    /// Solver family that produced the report: `"direct"`, `"cg"` or
    /// `"mgcg"`.
    pub fn backend(&self) -> &'static str {
        self.backend.name()
    }

    /// The telemetry site of the solves behind the report
    /// ([`IR_SITES`]).
    pub fn site(&self) -> &'static str {
        IR_SITES.of(self.backend)
    }

    /// Wall-clock spent building or refreshing domain solvers (factor,
    /// hierarchy or Jacobi diagonal), seconds; zero when every domain's
    /// active-regulator set repeats.
    pub fn factor_seconds(&self) -> f64 {
        self.factor_seconds
    }

    /// Wall-clock spent in the per-domain solves, seconds.
    pub fn solve_seconds(&self) -> f64 {
        self.solve_seconds
    }
}

/// One Vdd-domain's local power grid.
#[derive(Debug, Clone)]
struct DomainGrid {
    nx: usize,
    ny: usize,
    cell_mm: f64,
    /// Per block of this domain: `(block index, cells, fractions)`.
    block_cells: Vec<(usize, Vec<(usize, f64)>)>,
    /// Per VR of this domain: `(vr id, cell)`.
    vr_cells: Vec<(VrId, usize)>,
    /// Sheet conductance matrix, assembled once, with zero-valued
    /// placeholder entries on every regulator cell's diagonal so that a
    /// gating configuration is applied by patching values, not by
    /// re-assembling the matrix.
    base: CsrMatrix,
    /// Per VR of this domain: `(vr id, index into the matrix values of
    /// its cell's diagonal entry)`.
    vr_entries: Vec<(VrId, usize)>,
}

/// Per-domain solver scratch, reused across [`PdnModel::ir_drop`] calls:
/// the patched conductance matrix, its solver, the load/solution vectors
/// and the solver workspace.
///
/// The matrix and its solver are keyed by the active-regulator count per
/// diagonal slot (regulators sharing a cell share its slot), which fixes
/// the patched values exactly. While a key repeats, nothing is patched
/// or refreshed: a factor is reused as is, and CG warm-starts from the
/// previous IR solution (consecutive decision windows mostly re-solve
/// one configuration with similar loads, which cuts cold ~2 050-iteration
/// solves to a handful). A new key patches the values, refreshes the
/// solver (a numeric `refactor`; the symbolic structure survives) and
/// restarts CG from zero.
#[derive(Debug, Clone)]
struct DomainScratch {
    matrix: CsrMatrix,
    i_load: Vec<f64>,
    volts: Vec<f64>,
    ws: SpdWorkspace,
    /// The solver of `matrix`, built on the domain's first solve.
    solver: Option<SpdSolver>,
    /// The diagonal slots of the active regulators that `matrix` and
    /// `solver` hold, sorted: each slot appears once per active
    /// regulator on it. Empty until the first solve.
    key: Vec<usize>,
    /// The key of the gating state being solved.
    next_key: Vec<usize>,
}

/// Totals accumulated by [`PdnModel::solve_domains`] across the domains.
struct DomainSolveTotals {
    total_current: f64,
    factor_seconds: f64,
    solve_seconds: f64,
}

impl DomainGrid {
    fn cell_xy(&self, cell: usize) -> (f64, f64) {
        let i = cell % self.nx;
        let j = cell / self.nx;
        (i as f64 * self.cell_mm, j as f64 * self.cell_mm)
    }

    /// Writes the sorted diagonal slots of `gating`'s active regulators
    /// into `key` (the solver key of [`DomainScratch`]) and returns how
    /// many there are.
    fn active_key(&self, gating: &GatingState, key: &mut Vec<usize>) -> usize {
        key.clear();
        key.extend(
            self.vr_entries
                .iter()
                .filter(|&&(vid, _)| gating.is_on(vid))
                .map(|&(_, k)| k),
        );
        key.sort_unstable();
        key.len()
    }

    /// Writes the sheet conductances into `values`, then adds each
    /// active regulator's low-impedance path to the supply onto its
    /// cell's diagonal.
    fn patch(&self, gating: &GatingState, g_vr: f64, values: &mut [f64]) {
        values.copy_from_slice(self.base.values());
        for &(vid, k) in &self.vr_entries {
            if gating.is_on(vid) {
                values[k] += g_vr;
            }
        }
    }
}

/// The error for a domain whose regulators are all gated off.
fn floating(domain: usize) -> Error {
    Error::invalid_argument(format!(
        "domain D{domain} has no active regulator; its grid is floating"
    ))
}

/// The assembled PDN model of one chip.
///
/// See the crate docs for the modelling approach. The model snapshots the
/// chip geometry at construction; rebuild it after moving regulators.
#[derive(Debug)]
pub struct PdnModel {
    config: PdnConfig,
    /// The IR backend, `Auto` resolved to direct at construction.
    backend: SolverBackend,
    grids: Vec<DomainGrid>,
    /// Interior-mutable solver scratch: `ir_drop` keeps its `&self`
    /// signature while reusing buffers across calls. The mutex keeps the
    /// model `Sync`; it is uncontended in practice because each sweep
    /// worker owns its own engine and model.
    scratch: Mutex<Vec<DomainScratch>>,
    n_vrs: usize,
    n_blocks: usize,
}

impl Clone for PdnModel {
    fn clone(&self) -> Self {
        PdnModel {
            config: self.config.clone(),
            backend: self.backend,
            grids: self.grids.clone(),
            scratch: Mutex::new(
                self.scratch
                    .lock()
                    .expect("pdn scratch lock is never poisoned")
                    .clone(),
            ),
            n_vrs: self.n_vrs,
            n_blocks: self.n_blocks,
        }
    }
}

impl PdnModel {
    /// Discretises every Vdd-domain's local grid.
    pub fn new(chip: &Floorplan, config: PdnConfig) -> Self {
        let cell_m = config.cell_mm * 1e-3;
        let grids = chip
            .domains()
            .iter()
            .map(|domain| {
                // Bounding box over the domain's blocks.
                let rects: Vec<_> = domain
                    .blocks()
                    .iter()
                    .map(|&b| chip.block(b).rect())
                    .collect();
                let x0 = rects
                    .iter()
                    .map(|r| r.origin.x.get())
                    .fold(f64::INFINITY, f64::min);
                let y0 = rects
                    .iter()
                    .map(|r| r.origin.y.get())
                    .fold(f64::INFINITY, f64::min);
                let x1 = rects
                    .iter()
                    .map(|r| r.right().get())
                    .fold(f64::NEG_INFINITY, f64::max);
                let y1 = rects
                    .iter()
                    .map(|r| r.top().get())
                    .fold(f64::NEG_INFINITY, f64::max);
                let nx = (((x1 - x0) / cell_m).ceil() as usize).max(1);
                let ny = (((y1 - y0) / cell_m).ceil() as usize).max(1);

                // Area-weighted block→cell coverage.
                let block_cells = domain
                    .blocks()
                    .iter()
                    .map(|&bid| {
                        let rect = chip.block(bid).rect();
                        let area = rect.area();
                        let mut cover = Vec::new();
                        for j in 0..ny {
                            for i in 0..nx {
                                let cell = simkit::Rect::new(
                                    simkit::Point::new(
                                        simkit::units::Meters::new(x0 + i as f64 * cell_m),
                                        simkit::units::Meters::new(y0 + j as f64 * cell_m),
                                    ),
                                    simkit::units::Meters::new(cell_m),
                                    simkit::units::Meters::new(cell_m),
                                );
                                let overlap = cell.intersection_area(&rect);
                                if overlap > 0.0 {
                                    cover.push((j * nx + i, overlap / area));
                                }
                            }
                        }
                        (bid.0, cover)
                    })
                    .collect();

                let vr_cells: Vec<(VrId, usize)> = domain
                    .vrs()
                    .iter()
                    .map(|&vid| {
                        let c = chip.vr_site(vid).center();
                        let i = (((c.x.get() - x0) / cell_m) as usize).min(nx - 1);
                        let j = (((c.y.get() - y0) / cell_m) as usize).min(ny - 1);
                        (vid, j * nx + i)
                    })
                    .collect();

                // Assemble the sheet conductances once. Regulator cells
                // get a zero-valued diagonal placeholder so the gating
                // conductance can later be patched in via `values_mut`.
                let g_sheet = 1.0 / config.r_sheet_ohm;
                let n = nx * ny;
                let mut b = TripletBuilder::new(n, n);
                for j in 0..ny {
                    for i in 0..nx {
                        let c = j * nx + i;
                        if i + 1 < nx {
                            b.add(c, c, g_sheet);
                            b.add(c + 1, c + 1, g_sheet);
                            b.add(c, c + 1, -g_sheet);
                            b.add(c + 1, c, -g_sheet);
                        }
                        if j + 1 < ny {
                            let cn = c + nx;
                            b.add(c, c, g_sheet);
                            b.add(cn, cn, g_sheet);
                            b.add(c, cn, -g_sheet);
                            b.add(cn, c, -g_sheet);
                        }
                    }
                }
                for &(_, cell) in &vr_cells {
                    b.add(cell, cell, 0.0);
                }
                let base = b.build();
                let vr_entries = vr_cells
                    .iter()
                    .map(|&(vid, cell)| {
                        let k = base
                            .entry_index(cell, cell)
                            .expect("placeholder guarantees a diagonal entry");
                        (vid, k)
                    })
                    .collect();

                DomainGrid {
                    nx,
                    ny,
                    cell_mm: config.cell_mm,
                    block_cells,
                    vr_cells,
                    base,
                    vr_entries,
                }
            })
            .collect::<Vec<DomainGrid>>();
        let scratch = grids
            .iter()
            .map(|grid| {
                let n = grid.nx * grid.ny;
                DomainScratch {
                    matrix: grid.base.clone(),
                    i_load: vec![0.0; n],
                    volts: vec![0.0; n],
                    ws: SpdWorkspace::default(),
                    solver: None,
                    key: Vec::new(),
                    next_key: Vec::new(),
                }
            })
            .collect();
        PdnModel {
            // Cold IR solves at every gating state: `Auto` factors, and
            // the symbolic analysis serves every state of a domain.
            backend: config.solver.resolve(SolverBackend::Direct),
            config,
            grids,
            scratch: Mutex::new(scratch),
            n_vrs: chip.vr_sites().len(),
            n_blocks: chip.blocks().len(),
        }
    }

    /// The electrical configuration.
    pub fn config(&self) -> &PdnConfig {
        &self.config
    }

    /// Static IR-drop analysis: solves every domain's local grid with the
    /// given regulator gating and per-block load powers.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] when `block_powers` does not have
    ///   one entry per block or `gating` tracks a different VR count;
    /// * [`Error::InvalidArgument`] when a domain has **no** active
    ///   regulator (its blocks would be unpowered);
    /// * solver failures are propagated.
    pub fn ir_drop(&self, gating: &GatingState, block_powers: &[Watts]) -> Result<IrReport> {
        let mut per_domain = vec![0.0; self.grids.len()];
        let mut solve = SolverAgg::default();
        let totals =
            self.solve_domains(gating, block_powers, |d, _matrix, _i_load, volts, stats| {
                solve.record(stats);
                per_domain[d] = volts.iter().copied().fold(0.0f64, f64::max);
            })?;
        Ok(IrReport {
            per_domain_volts: per_domain,
            global_volts: totals.total_current * self.config.r_global_ohm,
            vdd: self.config.vdd.get(),
            solve,
            backend: self.backend,
            factor_seconds: totals.factor_seconds,
            solve_seconds: totals.solve_seconds,
        })
    }

    /// Worst Kirchhoff-current-law relative residual `‖i − G·v‖/‖i‖`
    /// across the domains, from a fresh per-domain solve with the given
    /// gating and loads. Domains with zero injected load are skipped
    /// (their residual is 0/0). A healthy solve keeps this at the CG
    /// tolerance (≤ 1e-9; the direct backend lands near machine epsilon);
    /// `tg-verify` uses it as the PDN physics oracle.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PdnModel::ir_drop`].
    pub fn kcl_residual(&self, gating: &GatingState, block_powers: &[Watts]) -> Result<f64> {
        let mut worst = 0.0f64;
        self.solve_domains(gating, block_powers, |_d, matrix, i_load, volts, _stats| {
            if i_load.iter().any(|&v| v != 0.0) {
                worst = worst.max(matrix.relative_residual(i_load, volts));
            }
        })?;
        Ok(worst)
    }

    /// Shared per-domain setup + solve behind [`PdnModel::ir_drop`] and
    /// [`PdnModel::kcl_residual`]: distributes the block loads, patches
    /// the active regulators into each domain's cached matrix, solves
    /// with the configured backend, and hands `visit` the solved system.
    /// Returns the total chip current (for the global-grid drop) plus the
    /// factor/solve wall-clock split.
    fn solve_domains<F>(
        &self,
        gating: &GatingState,
        block_powers: &[Watts],
        mut visit: F,
    ) -> Result<DomainSolveTotals>
    where
        F: FnMut(usize, &CsrMatrix, &[f64], &[f64], SolveStats),
    {
        if block_powers.len() != self.n_blocks {
            return Err(Error::DimensionMismatch {
                expected: self.n_blocks,
                actual: block_powers.len(),
            });
        }
        if gating.len() != self.n_vrs {
            return Err(Error::DimensionMismatch {
                expected: self.n_vrs,
                actual: gating.len(),
            });
        }
        let vdd = self.config.vdd.get();
        let g_vr = 1.0 / self.config.r_vr_ohm;
        let mut scratches = self
            .scratch
            .lock()
            .expect("pdn scratch lock is never poisoned");
        let mut totals = DomainSolveTotals {
            total_current: 0.0,
            factor_seconds: 0.0,
            solve_seconds: 0.0,
        };
        for (d, (grid, scratch)) in self.grids.iter().zip(scratches.iter_mut()).enumerate() {
            let n = grid.nx * grid.ny;
            // Load currents.
            scratch.i_load.iter_mut().for_each(|v| *v = 0.0);
            for (block, cover) in &grid.block_cells {
                let amps = block_powers[*block].get().max(0.0) / vdd;
                totals.total_current += amps;
                for &(cell, fraction) in cover {
                    scratch.i_load[cell] += amps * fraction;
                }
            }
            if grid.active_key(gating, &mut scratch.next_key) == 0 {
                return Err(floating(d));
            }
            if scratch.key != scratch.next_key {
                // Stale until the refresh below succeeds.
                scratch.key.clear();
                grid.patch(gating, g_vr, scratch.matrix.values_mut());
                totals.factor_seconds += match &mut scratch.solver {
                    Some(solver) => solver.refresh(&scratch.matrix)?,
                    None => {
                        let geometry = GridGeometry::new(grid.nx, grid.ny, 1, 0);
                        let (solver, factor_s) =
                            SpdSolver::build(self.backend, &scratch.matrix, geometry)?;
                        scratch.solver = Some(solver);
                        factor_s
                    }
                };
                std::mem::swap(&mut scratch.key, &mut scratch.next_key);
                scratch.volts.iter_mut().for_each(|v| *v = 0.0);
            }
            let solver = scratch.solver.as_ref().expect("built on the first solve");
            let (stats, solve_s) = solver.solve(
                &scratch.matrix,
                &scratch.i_load,
                &mut scratch.volts,
                &mut scratch.ws,
                1e-9,
                10 * n,
            )?;
            totals.solve_seconds += solve_s;
            visit(d, &scratch.matrix, &scratch.i_load, &scratch.volts, stats);
        }
        Ok(totals)
    }

    /// A copy of one domain's conductance matrix patched for `gating`
    /// (sheet conductances plus the active regulators' supply paths) —
    /// exposed for differential solver verification and benchmarking on
    /// real PDN systems.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] when `gating` tracks a different
    ///   VR count;
    /// * [`Error::InvalidArgument`] when the domain has no active
    ///   regulator (the matrix would be singular).
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_system(&self, domain: DomainId, gating: &GatingState) -> Result<CsrMatrix> {
        if gating.len() != self.n_vrs {
            return Err(Error::DimensionMismatch {
                expected: self.n_vrs,
                actual: gating.len(),
            });
        }
        let grid = &self.grids[domain.0];
        if !grid.vr_entries.iter().any(|&(vid, _)| gating.is_on(vid)) {
            return Err(floating(domain.0));
        }
        let mut matrix = grid.base.clone();
        grid.patch(gating, 1.0 / self.config.r_vr_ohm, matrix.values_mut());
        Ok(matrix)
    }

    /// Sheet-grid resolution `(nx, ny)` of one domain — the geometry of
    /// the [`PdnModel::domain_system`] matrix (one layer, no extra
    /// nodes), for mesh-aware solvers and verification.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range.
    pub fn domain_grid_size(&self, domain: DomainId) -> (usize, usize) {
        let grid = &self.grids[domain.0];
        (grid.nx, grid.ny)
    }

    /// Proximity of each regulator of `domain` to the domain's current
    /// load distribution: higher score = electrically closer to the load.
    /// OracV-style policies rank regulators by this score (the paper's
    /// OracV "tends to keep the regulators physically closest to high
    /// voltage noise regions on").
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range or `block_powers` is
    /// shorter than the block count.
    pub fn vr_load_proximity(&self, domain: DomainId, block_powers: &[Watts]) -> Vec<(VrId, f64)> {
        let grid = &self.grids[domain.0];
        let vdd = self.config.vdd.get();
        // Current per cell.
        let mut i_load = vec![0.0; grid.nx * grid.ny];
        for (block, cover) in &grid.block_cells {
            let amps = block_powers[*block].get().max(0.0) / vdd;
            for &(cell, fraction) in cover {
                i_load[cell] += amps * fraction;
            }
        }
        grid.vr_cells
            .iter()
            .map(|&(vid, vcell)| {
                let (vx, vy) = grid.cell_xy(vcell);
                let score = i_load
                    .iter()
                    .enumerate()
                    .filter(|&(_, &i)| i > 0.0)
                    .map(|(cell, &i)| {
                        let (cx, cy) = grid.cell_xy(cell);
                        let d = (vx - cx).abs() + (vy - cy).abs();
                        i / (d + 0.3)
                    })
                    .sum();
                (vid, score)
            })
            .collect()
    }

    /// How far, on average, the **active** regulators of `domain` sit from
    /// the domain's current centroid, normalised by the same average over
    /// *all* of the domain's regulators. Values above 1 mean the active
    /// set is farther from the load than the domain average — the
    /// situation thermally-aware gating creates, which also weakens the
    /// transient response.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of range.
    pub fn active_distance_factor(
        &self,
        domain: DomainId,
        gating: &GatingState,
        block_powers: &[Watts],
    ) -> f64 {
        let grid = &self.grids[domain.0];
        let vdd = self.config.vdd.get();
        // Current-weighted load centroid.
        let mut sum_i = 0.0;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for (block, cover) in &grid.block_cells {
            let amps = block_powers[*block].get().max(0.0) / vdd;
            for &(cell, fraction) in cover {
                let (x, y) = grid.cell_xy(cell);
                let i = amps * fraction;
                sum_i += i;
                cx += i * x;
                cy += i * y;
            }
        }
        if sum_i <= 0.0 {
            return 1.0;
        }
        cx /= sum_i;
        cy /= sum_i;
        let dist = |cell: usize| {
            let (x, y) = grid.cell_xy(cell);
            (x - cx).abs() + (y - cy).abs() + 0.2
        };
        let all: f64 =
            grid.vr_cells.iter().map(|&(_, c)| dist(c)).sum::<f64>() / grid.vr_cells.len() as f64;
        let active: Vec<f64> = grid
            .vr_cells
            .iter()
            .filter(|&&(vid, _)| gating.is_on(vid))
            .map(|&(_, c)| dist(c))
            .collect();
        if active.is_empty() {
            return 2.0; // Floating domain: worst case.
        }
        let active_mean = active.iter().sum::<f64>() / active.len() as f64;
        (active_mean / all).max(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use floorplan::reference::power8_like;
    use floorplan::DomainKind;

    fn setup() -> (floorplan::Floorplan, PdnModel) {
        let chip = power8_like();
        let model = PdnModel::new(&chip, PdnConfig::default());
        (chip, model)
    }

    fn uniform_powers(chip: &floorplan::Floorplan, w: f64) -> Vec<Watts> {
        vec![Watts::new(w); chip.blocks().len()]
    }

    #[test]
    fn all_on_produces_moderate_drop() {
        let (chip, model) = setup();
        // ~78 W chip: plausible mid-load.
        let powers = uniform_powers(&chip, 1.5);
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let report = model.ir_drop(&all_on, &powers).unwrap();
        let f = report.chip_max_fraction();
        assert!(f > 0.005 && f < 0.15, "all-on IR fraction {f}");
    }

    #[test]
    fn gating_far_regulators_increases_drop() {
        let (chip, model) = setup();
        let powers = uniform_powers(&chip, 1.5);
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let base = model.ir_drop(&all_on, &powers).unwrap();

        // Turn off the 6 logic-side regulators of core0, keeping only the
        // 3 memory-side ones: current must travel farther.
        let mut gated = all_on.clone();
        let core0 = &chip.domains()[0];
        for &v in core0.vrs() {
            if chip.vr_site(v).neighborhood() == floorplan::VrNeighborhood::Logic {
                gated.set(v, false).unwrap();
            }
        }
        let worse = model.ir_drop(&gated, &powers).unwrap();
        assert!(
            worse.domain_volts(core0.id()) > 1.3 * base.domain_volts(core0.id()),
            "gated {} vs all-on {}",
            worse.domain_volts(core0.id()),
            base.domain_volts(core0.id())
        );
    }

    #[test]
    fn floating_domain_is_rejected() {
        let (chip, model) = setup();
        let powers = uniform_powers(&chip, 1.0);
        let mut gating = GatingState::all_on(chip.vr_sites().len());
        for &v in chip.domains()[0].vrs() {
            gating.set(v, false).unwrap();
        }
        assert!(model.ir_drop(&gating, &powers).is_err());
    }

    #[test]
    fn wrong_vector_sizes_are_rejected() {
        let (chip, model) = setup();
        let all_on = GatingState::all_on(chip.vr_sites().len());
        assert!(model.ir_drop(&all_on, &[Watts::ZERO]).is_err());
        let bad_gating = GatingState::all_on(3);
        let powers = uniform_powers(&chip, 1.0);
        assert!(model.ir_drop(&bad_gating, &powers).is_err());
    }

    #[test]
    fn drop_scales_with_load() {
        let (chip, model) = setup();
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let light = model.ir_drop(&all_on, &uniform_powers(&chip, 0.5)).unwrap();
        let heavy = model.ir_drop(&all_on, &uniform_powers(&chip, 2.0)).unwrap();
        assert!(
            (heavy.chip_max_fraction() / light.chip_max_fraction() - 4.0).abs() < 0.1,
            "linear network should scale 4×"
        );
    }

    #[test]
    fn proximity_ranks_logic_side_vrs_higher() {
        let (chip, model) = setup();
        // Load only the logic units.
        let powers: Vec<Watts> = chip
            .blocks()
            .iter()
            .map(|b| {
                if b.kind().is_logic() {
                    Watts::new(3.0)
                } else {
                    Watts::ZERO
                }
            })
            .collect();
        let core0 = &chip.domains()[0];
        let scores = model.vr_load_proximity(core0.id(), &powers);
        assert_eq!(scores.len(), 9);
        // Best-scoring VR must be a logic-neighborhood one.
        let best = scores
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(
            chip.vr_site(best.0).neighborhood(),
            floorplan::VrNeighborhood::Logic
        );
    }

    #[test]
    fn distance_factor_grows_when_active_set_moves_away() {
        let (chip, model) = setup();
        let powers: Vec<Watts> = chip
            .blocks()
            .iter()
            .map(|b| {
                if b.kind().is_logic() {
                    Watts::new(3.0)
                } else {
                    Watts::new(0.2)
                }
            })
            .collect();
        let core0 = &chip.domains()[0];
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let base = model.active_distance_factor(core0.id(), &all_on, &powers);
        let mut memory_only = all_on.clone();
        for &v in core0.vrs() {
            if chip.vr_site(v).neighborhood() == floorplan::VrNeighborhood::Logic {
                memory_only.set(v, false).unwrap();
            }
        }
        let far = model.active_distance_factor(core0.id(), &memory_only, &powers);
        assert!(far > base, "far {far} vs base {base}");
        assert!((base - 1.0).abs() < 0.05, "all-on factor should be ≈1");
    }

    #[test]
    fn every_domain_gets_a_grid() {
        let (chip, model) = setup();
        assert_eq!(model.grids.len(), chip.domains().len());
        for (grid, domain) in model.grids.iter().zip(chip.domains()) {
            assert_eq!(grid.vr_cells.len(), domain.vr_count());
            assert_eq!(grid.block_cells.len(), domain.blocks().len());
            assert!(
                grid.nx * grid.ny > 1,
                "degenerate grid for {}",
                domain.name()
            );
        }
        let _ = DomainKind::Core;
    }

    #[test]
    fn cached_matrices_do_not_leak_state_between_calls() {
        // The scratch matrix is patched per gating configuration; solving
        // A, then B, then A again must reproduce the first A result
        // exactly, and match a freshly built model.
        let (chip, model) = setup();
        let powers = uniform_powers(&chip, 1.5);
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let mut half = all_on.clone();
        for &v in chip.domains()[0].vrs().iter().skip(3) {
            half.set(v, false).unwrap();
        }
        let first = model.ir_drop(&all_on, &powers).unwrap();
        let _ = model.ir_drop(&half, &powers).unwrap();
        let again = model.ir_drop(&all_on, &powers).unwrap();
        assert_eq!(first, again);
        let fresh = PdnModel::new(&chip, PdnConfig::default());
        let reference = fresh.ir_drop(&all_on, &powers).unwrap();
        assert_eq!(first, reference);
    }

    #[test]
    fn iterative_backends_agree_with_direct() {
        use simkit::linalg::SolverBackend::{Cg, Direct, Mgcg};
        let chip = power8_like();
        let model = |solver| {
            PdnModel::new(
                &chip,
                PdnConfig {
                    solver,
                    ..PdnConfig::default()
                },
            )
        };
        let powers = uniform_powers(&chip, 1.5);
        let mut gating = GatingState::all_on(chip.vr_sites().len());
        for &v in chip.domains()[0].vrs().iter().skip(4) {
            gating.set(v, false).unwrap();
        }
        let a = model(Direct).ir_drop(&gating, &powers).unwrap();
        assert_eq!(a.backend(), "direct");
        for backend in [Cg, Mgcg] {
            let b = model(backend).ir_drop(&gating, &powers).unwrap();
            assert_eq!(b.backend(), backend.name());
            assert_eq!(b.site(), IR_SITES.of(backend));
            for d in chip.domains() {
                let gap = (a.domain_volts(d.id()) - b.domain_volts(d.id())).abs();
                assert!(
                    gap < 1e-8,
                    "domain {} direct vs {backend} gap {gap}",
                    d.name()
                );
            }
            assert_eq!(a.global_volts(), b.global_volts());
        }
    }

    #[test]
    fn repeated_gating_state_warm_starts_iterative_solves() {
        let chip = power8_like();
        let model = PdnModel::new(
            &chip,
            PdnConfig {
                solver: simkit::linalg::SolverBackend::Cg,
                ..PdnConfig::default()
            },
        );
        let powers = uniform_powers(&chip, 1.5);
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let cold = model.ir_drop(&all_on, &powers).unwrap();
        // Same gating, same loads: the previous solution already solves
        // the system, so warm-started CG exits in ~0 iterations …
        let warm = model.ir_drop(&all_on, &powers).unwrap();
        assert!(
            warm.solve_stats().iterations * 10 <= cold.solve_stats().iterations.max(10),
            "warm {} vs cold {} iterations",
            warm.solve_stats().iterations,
            cold.solve_stats().iterations
        );
        // … and the voltages agree with the cold solve to solver tolerance.
        for d in chip.domains() {
            let gap = (cold.domain_volts(d.id()) - warm.domain_volts(d.id())).abs();
            assert!(gap < 1e-8, "domain {} cold vs warm gap {gap}", d.name());
        }
        // A gating change must reset the warm start (cold restart, fresh
        // preconditioner) and still produce the right answer.
        let mut half = all_on.clone();
        for &v in chip.domains()[0].vrs().iter().skip(3) {
            half.set(v, false).unwrap();
        }
        let other = model.ir_drop(&half, &powers).unwrap();
        let reference = PdnModel::new(
            &chip,
            PdnConfig {
                solver: simkit::linalg::SolverBackend::Cg,
                ..PdnConfig::default()
            },
        )
        .ir_drop(&half, &powers)
        .unwrap();
        for d in chip.domains() {
            let gap = (other.domain_volts(d.id()) - reference.domain_volts(d.id())).abs();
            assert!(gap < 1e-8, "domain {} stale-warm gap {gap}", d.name());
        }
    }

    #[test]
    fn repeated_gating_state_skips_refactoring() {
        let (chip, model) = setup();
        let powers = uniform_powers(&chip, 1.5);
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let first = model.ir_drop(&all_on, &powers).unwrap();
        assert_eq!(first.backend(), "direct");
        assert!(first.factor_seconds() > 0.0, "first call must factor");
        // Identical gating → identical patched values → the cache key
        // matches and no factor time is spent at all.
        let again = model.ir_drop(&all_on, &powers).unwrap();
        assert_eq!(again.factor_seconds(), 0.0);
        assert_eq!(first, again);
        // A different gating state refactors (numeric only) but must not
        // poison the cache for the original state.
        let mut half = all_on.clone();
        for &v in chip.domains()[0].vrs().iter().skip(3) {
            half.set(v, false).unwrap();
        }
        let other = model.ir_drop(&half, &powers).unwrap();
        assert!(other.factor_seconds() > 0.0, "new gating must refactor");
        let back = model.ir_drop(&all_on, &powers).unwrap();
        assert!(back.factor_seconds() > 0.0);
        assert_eq!(first, back);
    }

    #[test]
    fn vr_entries_point_at_diagonal_slots() {
        let (_, model) = setup();
        for grid in &model.grids {
            for (&(vid_a, cell), &(vid_b, k)) in grid.vr_cells.iter().zip(&grid.vr_entries) {
                assert_eq!(vid_a, vid_b);
                assert_eq!(grid.base.entry_index(cell, cell), Some(k));
            }
        }
    }

    #[test]
    fn report_accessors_are_consistent() {
        let (chip, model) = setup();
        let powers = uniform_powers(&chip, 1.0);
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let report = model.ir_drop(&all_on, &powers).unwrap();
        assert_eq!(report.domain_count(), chip.domains().len());
        let max_frac = report.chip_max_fraction();
        for d in chip.domains() {
            assert!(report.domain_fraction(d.id()) <= max_frac + 1e-12);
        }
        assert!(report.global_volts() > 0.0);
    }
}
