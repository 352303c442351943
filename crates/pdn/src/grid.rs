//! Per-domain nodal DC grids and IR-drop solves.
//!
//! A domain's grid is linear in its block loads: the node voltages are
//! `Σ_b amps_b · u_b`, where `u_b` solves the grid for block `b`'s unit
//! load (its cell cover fractions). Under the direct backend a domain
//! keeps such a basis for each of its [`KEPT_BASES`] most recently used
//! active-regulator keys: a key it does not keep costs a numeric
//! refactor and one triangular solve per block (1 to 5 per domain) into
//! the least recently used basis buffer, a kept key only re-patches the
//! matrix values, and every IR analysis under a key forms its voltages
//! from that key's basis alone. That combination counts as the domain's
//! one solve, with its residual against the patched matrix, so solve
//! counts do not depend on how the voltages were formed. The iterative
//! backends, the differential references, solve every analysis.

use crate::config::PdnConfig;
use floorplan::{DomainId, Floorplan, VddDomain, VrId};
use simkit::linalg::{
    CsrMatrix, CsrRowWriter, GridGeometry, LdltFactor, SolveSites, SolveStats, SolverBackend,
    SpdSolver, SpdWorkspace,
};
use simkit::perf::{SolverAgg, Timer};
use simkit::units::{Meters, Watts};
use simkit::{Error, Point, Rect, Result};
use std::sync::{Mutex, PoisonError};
use vreg::GatingState;

/// Telemetry sites of the IR-drop solves.
pub const IR_SITES: SolveSites = SolveSites {
    cg: "pdn.ir_cg",
    mgcg: "pdn.ir_mgcg",
    direct: "pdn.ir_direct",
};

/// Regulator keys whose superposition bases a domain keeps under the
/// direct backend. A VT policy plans a new gating every decision, but
/// most plans return to a key the domain used a few decisions before:
/// keeping four turns those returns from a refactor and a basis rebuild
/// into a value patch (a standard PracVT run of lu_ncb makes 233 basis
/// solves instead of 778), for about 0.25 MB of bases per kept key
/// across the reference chip.
const KEPT_BASES: usize = 4;

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
    /// (zero when no domain refreshed its solver or rebuilt a basis).
    factor_seconds: f64,
    /// Wall-clock spent in the triangular / iterative solves, seconds.
    solve_seconds: f64,
    /// Unit-load solves that rebuilt superposition bases.
    basis_solves: u64,
}

/// Equality ignores the cost fields (wall-clock timings and basis
/// solves): two reports are equal when they describe the same physical
/// result via the same backend, so cache-consistency tests can
/// `assert_eq!` across repeated solves.
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
    /// this report: one solve per domain. Under the direct backend a
    /// domain's solve is its superposition of the basis, counted as one
    /// iteration with the achieved relative residual against the patched
    /// matrix; the basis solves are not counted here (see
    /// [`IrReport::basis_solves`]).
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
    /// hierarchy or Jacobi diagonal, plus the direct backend's basis
    /// solves), seconds; zero when every domain's active-regulator key
    /// repeats, or under the direct backend is one the domain keeps.
    pub fn factor_seconds(&self) -> f64 {
        self.factor_seconds
    }

    /// Wall-clock spent in the per-domain solves, seconds.
    pub fn solve_seconds(&self) -> f64 {
        self.solve_seconds
    }

    /// Unit-load solves spent rebuilding superposition bases: a domain
    /// whose key is not one of the four it keeps under the direct
    /// backend adds one per block; zero when every key is kept and under
    /// the iterative backends.
    pub fn basis_solves(&self) -> u64 {
        self.basis_solves
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
/// solves to a handful) until [`PdnModel::forget_warm_starts`] zeroes
/// it at the start of a run. A new key patches the values, refreshes the
/// solver (a numeric `refactor`; the symbolic structure survives) and
/// restarts CG from zero. Under the direct backend a key kept in `bases`
/// only patches the values (for the residual) and moves its basis to
/// the front; any other key refactors and rebuilds the least recently
/// used basis in place, and a repeated key solves nothing at all.
#[derive(Debug, Clone)]
struct DomainScratch {
    matrix: CsrMatrix,
    i_load: Vec<f64>,
    volts: Vec<f64>,
    ws: SpdWorkspace,
    /// The solver of `matrix`, built on the domain's first solve. Under
    /// the direct backend its factor may belong to an earlier key: it
    /// only builds bases, and a key without one refactors it first.
    solver: Option<SpdSolver>,
    /// Direct backend only: up to [`KEPT_BASES`] keys with their bases,
    /// most recently used first, so `bases[0]` is `key`'s once a solve
    /// has run. Grown on the first solves of new keys; empty under the
    /// other backends.
    bases: Vec<KeptBasis>,
    /// The diagonal slots of the active regulators that `matrix` holds,
    /// and under the iterative backends `solver` too, sorted: each slot
    /// appears once per active regulator on it. Empty until the first
    /// solve.
    key: Vec<usize>,
    /// The key of the gating state being solved.
    next_key: Vec<usize>,
}

/// One key's superposition basis: the grid's response to each block's
/// unit load under `key`, one node vector per block in block order.
#[derive(Debug, Clone)]
struct KeptBasis {
    /// Empty while `basis` is being rebuilt, so a failed rebuild is
    /// never taken for a kept key.
    key: Vec<usize>,
    basis: Vec<f64>,
}

/// Moves the least recently used of `bases`, or a new one of
/// `basis_len` values while fewer than [`KEPT_BASES`] are kept, to the
/// front with its key cleared, and returns it for a rebuild.
fn recycle_lru(bases: &mut Vec<KeptBasis>, basis_len: usize, key_len: usize) -> &mut KeptBasis {
    if bases.len() < KEPT_BASES {
        bases.push(KeptBasis {
            key: Vec::with_capacity(key_len),
            basis: vec![0.0; basis_len],
        });
    }
    bases.rotate_right(1);
    let slot = &mut bases[0];
    slot.key.clear();
    slot
}

/// Totals accumulated by [`PdnModel::solve_domains`] across the domains.
struct DomainSolveTotals {
    total_current: f64,
    factor_seconds: f64,
    solve_seconds: f64,
    basis_solves: u64,
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

    /// Writes the node load currents of `block_powers` into `i_load`,
    /// adding each block's current to `total_current`.
    fn load_into(
        &self,
        block_powers: &[Watts],
        vdd: f64,
        i_load: &mut [f64],
        total_current: &mut f64,
    ) {
        i_load.fill(0.0);
        for (block, cover) in &self.block_cells {
            let amps = block_powers[*block].get().max(0.0) / vdd;
            *total_current += amps;
            for &(cell, fraction) in cover {
                i_load[cell] += amps * fraction;
            }
        }
    }

    /// Fills `basis` with the response of `factor`'s grid to each block's
    /// unit load, block after block, using `unit` for the load; returns
    /// the number of solves.
    fn build_basis(
        &self,
        factor: &LdltFactor,
        unit: &mut [f64],
        basis: &mut [f64],
        ws: &mut SpdWorkspace,
    ) -> Result<u64> {
        let n = unit.len();
        for ((_, cover), response) in self.block_cells.iter().zip(basis.chunks_exact_mut(n)) {
            unit.fill(0.0);
            for &(cell, fraction) in cover {
                unit[cell] += fraction;
            }
            factor.solve_into(unit, response, ws.ldlt())?;
        }
        Ok(self.block_cells.len() as u64)
    }

    /// The node voltages of `block_powers` from the unit-load responses
    /// in `basis`, summed in block order, into `volts`.
    fn superpose(&self, basis: &[f64], block_powers: &[Watts], vdd: f64, volts: &mut [f64]) {
        volts.fill(0.0);
        let n = volts.len();
        for ((block, _), response) in self.block_cells.iter().zip(basis.chunks_exact(n)) {
            let amps = block_powers[*block].get().max(0.0) / vdd;
            for (v, &u) in volts.iter_mut().zip(response) {
                *v += amps * u;
            }
        }
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

/// A domain grid's lower-left corner, in metres, and its `(nx, ny)`
/// cells of side `cell_m`: the bounding box of the domain's blocks.
fn domain_extent(
    chip: &Floorplan,
    domain: &VddDomain,
    cell_m: f64,
) -> ((f64, f64), (usize, usize)) {
    let rects: Vec<_> = domain
        .blocks()
        .iter()
        .map(|&b| chip.block(b).rect())
        .collect();
    let low = |edge: fn(&Rect) -> f64| rects.iter().map(edge).fold(f64::INFINITY, f64::min);
    let high = |edge: fn(&Rect) -> f64| rects.iter().map(edge).fold(f64::NEG_INFINITY, f64::max);
    let (x0, y0) = (low(|r| r.origin.x.get()), low(|r| r.origin.y.get()));
    let (x1, y1) = (high(|r| r.right().get()), high(|r| r.top().get()));
    let nx = (((x1 - x0) / cell_m).ceil() as usize).max(1);
    let ny = (((y1 - y0) / cell_m).ceil() as usize).max(1);
    ((x0, y0), (nx, ny))
}

/// Cell `(i, j)` of a domain grid with lower-left corner `origin` and
/// square cells of side `cell_m`, in metres.
fn cell_rect(origin: (f64, f64), cell_m: f64, i: usize, j: usize) -> Rect {
    let corner = Point::new(
        Meters::new(origin.0 + i as f64 * cell_m),
        Meters::new(origin.1 + j as f64 * cell_m),
    );
    Rect::new(corner, Meters::new(cell_m), Meters::new(cell_m))
}

/// The `(cell, fraction of the block's area)` cover of `rect` over an
/// `nx × ny` domain grid, row-major. Only the cells under the block's
/// extent are scanned, widened by one cell on each side so that no
/// rounding of the range drops a cell with `overlap > 0`.
fn block_cover(
    rect: &Rect,
    origin: (f64, f64),
    cell_m: f64,
    (nx, ny): (usize, usize),
) -> Vec<(usize, f64)> {
    // Float-to-usize casts saturate: a negative start becomes 0.
    let span = |lo: f64, hi: f64, origin: f64, cells: usize| {
        let first = ((lo - origin) / cell_m).floor() as usize;
        let end = ((hi - origin) / cell_m).ceil() as usize;
        first.saturating_sub(1)..end.saturating_add(1).min(cells)
    };
    let xs = span(rect.origin.x.get(), rect.right().get(), origin.0, nx);
    let ys = span(rect.origin.y.get(), rect.top().get(), origin.1, ny);
    let area = rect.area();
    let mut cover = Vec::new();
    for j in ys {
        for i in xs.clone() {
            let overlap = cell_rect(origin, cell_m, i, j).intersection_area(rect);
            if overlap > 0.0 {
                cover.push((j * nx + i, overlap / area));
            }
        }
    }
    cover
}

/// A domain's sheet conductance matrix on an `nx × ny` grid, written row
/// by row, with each regulator's `(vr id, diagonal slot)`.
///
/// Each cell couples to its lateral neighbours through `g_sheet`. Its
/// diagonal sums the edges to row `j − 1`, column `i − 1`, column
/// `i + 1` and row `j + 1`, then adds one zero-valued placeholder per
/// regulator on the cell, so a gating configuration is applied by
/// patching the slot's value, not by re-assembling the matrix. A cell
/// with no edge and no regulator (a 1×1 domain without one) stores no
/// diagonal.
fn sheet_matrix(
    nx: usize,
    ny: usize,
    g_sheet: f64,
    vr_cells: &[(VrId, usize)],
) -> (CsrMatrix, Vec<(VrId, usize)>) {
    let n = nx * ny;
    let edges = (nx - 1) * ny + nx * (ny - 1);
    let mut w = CsrRowWriter::new(n, n, n + 2 * edges);
    // Regulators in cell order: each row takes the next run of them.
    let mut by_cell: Vec<usize> = (0..vr_cells.len()).collect();
    by_cell.sort_by_key(|&v| vr_cells[v].1);
    let mut slots = vec![0; vr_cells.len()];
    let mut next = 0;
    for j in 0..ny {
        for i in 0..nx {
            let c = j * nx + i;
            let start = next;
            while next < by_cell.len() && vr_cells[by_cell[next]].1 == c {
                next += 1;
            }
            let on_cell = &by_cell[start..next];
            let below = (j > 0).then(|| c - nx);
            let left = (i > 0).then(|| c - 1);
            let right = (i + 1 < nx).then(|| c + 1);
            let above = (j + 1 < ny).then(|| c + nx);
            for neighbour in [below, left].into_iter().flatten() {
                w.push(c, neighbour, -g_sheet);
            }
            let lateral = [below, left, right, above].into_iter().flatten();
            let terms = lateral.map(|_| g_sheet).chain(on_cell.iter().map(|_| 0.0));
            if let Some(diagonal) = terms.reduce(|sum, g| sum + g) {
                let k = w.push(c, c, diagonal);
                on_cell.iter().for_each(|&v| slots[v] = k);
            }
            for neighbour in [right, above].into_iter().flatten() {
                w.push(c, neighbour, -g_sheet);
            }
        }
    }
    let vr_entries = vr_cells.iter().zip(slots).map(|(&(vid, _), k)| (vid, k));
    (w.finish(), vr_entries.collect())
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
                    .unwrap_or_else(PoisonError::into_inner)
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
                let ((x0, y0), (nx, ny)) = domain_extent(chip, domain, cell_m);

                // Area-weighted block→cell coverage.
                let block_cells = domain
                    .blocks()
                    .iter()
                    .map(|&bid| {
                        let rect = chip.block(bid).rect();
                        (bid.0, block_cover(&rect, (x0, y0), cell_m, (nx, ny)))
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
                let (base, vr_entries) = sheet_matrix(nx, ny, 1.0 / config.r_sheet_ohm, &vr_cells);

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
        // Cold IR solves at every gating state: `Auto` factors, and the
        // symbolic analysis serves every state of a domain.
        let backend = config.solver.resolve(SolverBackend::Direct);
        let scratch = grids
            .iter()
            .map(|grid| {
                let n = grid.nx * grid.ny;
                let kept = match backend {
                    SolverBackend::Direct => KEPT_BASES,
                    _ => 0,
                };
                DomainScratch {
                    matrix: grid.base.clone(),
                    i_load: vec![0.0; n],
                    volts: vec![0.0; n],
                    ws: SpdWorkspace::default(),
                    solver: None,
                    bases: Vec::with_capacity(kept),
                    key: Vec::new(),
                    next_key: Vec::new(),
                }
            })
            .collect();
        PdnModel {
            backend,
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

    /// Drops every domain's IR warm start: the next solve under any key
    /// starts from zero, as on a fresh model, while the factors, solvers
    /// and kept bases stay. A run calls this first, so its analyses do not
    /// depend on what the model solved before. Under the direct backend
    /// it changes nothing, since superposition overwrites the voltages.
    pub fn forget_warm_starts(&self) {
        let mut scratches = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        for scratch in scratches.iter_mut() {
            scratch.volts.fill(0.0);
        }
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
            basis_solves: totals.basis_solves,
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
    /// the active regulators into each domain's cached matrix (and, under
    /// the direct backend, brings in a kept basis or rebuilds the least
    /// recently used one), solves or superposes,
    /// and hands `visit` the solved system. Returns the total chip
    /// current (for the global-grid drop), the factor/solve wall-clock
    /// split and the basis solves.
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
        // A panic mid-solve poisons the lock but leaves no scratch
        // unsound: a key is cleared before its refresh and set only after
        // it, and the voltages are warm starts the next run zeroes.
        let mut scratches = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let mut totals = DomainSolveTotals {
            total_current: 0.0,
            factor_seconds: 0.0,
            solve_seconds: 0.0,
            basis_solves: 0,
        };
        for (d, (grid, scratch)) in self.grids.iter().zip(scratches.iter_mut()).enumerate() {
            let n = grid.nx * grid.ny;
            if grid.active_key(gating, &mut scratch.next_key) == 0 {
                return Err(floating(d));
            }
            if scratch.key != scratch.next_key {
                // Stale until the refresh below succeeds.
                scratch.key.clear();
                grid.patch(gating, g_vr, scratch.matrix.values_mut());
                let next_key = &scratch.next_key;
                match scratch.bases.iter().position(|kept| kept.key == *next_key) {
                    Some(i) => scratch.bases[..=i].rotate_right(1),
                    None => {
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
                        if let Some(SpdSolver::Direct(factor)) = &scratch.solver {
                            let t = Timer::start();
                            let basis_len = grid.block_cells.len() * n;
                            let key_len = grid.vr_entries.len();
                            let slot = recycle_lru(&mut scratch.bases, basis_len, key_len);
                            totals.basis_solves += grid.build_basis(
                                factor,
                                &mut scratch.i_load,
                                &mut slot.basis,
                                &mut scratch.ws,
                            )?;
                            slot.key.extend_from_slice(&scratch.next_key);
                            totals.factor_seconds += t.elapsed_seconds();
                        }
                    }
                }
                std::mem::swap(&mut scratch.key, &mut scratch.next_key);
                scratch.volts.iter_mut().for_each(|v| *v = 0.0);
            }
            grid.load_into(
                block_powers,
                vdd,
                &mut scratch.i_load,
                &mut totals.total_current,
            );
            let solver = scratch.solver.as_ref().expect("built on the first solve");
            let (stats, solve_s) = match solver {
                SpdSolver::Direct(_) => {
                    let t = Timer::start();
                    let basis = &scratch.bases[0].basis;
                    grid.superpose(basis, block_powers, vdd, &mut scratch.volts);
                    let stats = SolveStats {
                        iterations: 1,
                        residual: scratch
                            .matrix
                            .relative_residual(&scratch.i_load, &scratch.volts),
                    };
                    (stats, t.elapsed_seconds())
                }
                _ => solver.solve(
                    &scratch.matrix,
                    &scratch.matrix,
                    &scratch.i_load,
                    &mut scratch.volts,
                    &mut scratch.ws,
                    1e-9,
                    10 * n,
                )?,
            };
            totals.solve_seconds += solve_s;
            visit(d, &scratch.matrix, &scratch.i_load, &scratch.volts, stats);
        }
        Ok(totals)
    }

    /// The node load currents of one domain's grid for `block_powers`
    /// (each block's current spread over its cells by area), the
    /// right-hand side of its [`PdnModel::domain_system`] — exposed for
    /// differential verification.
    ///
    /// # Panics
    ///
    /// Panics when the domain id is out of range or `block_powers` is
    /// shorter than the block count.
    pub fn domain_load(&self, domain: DomainId, block_powers: &[Watts]) -> Vec<f64> {
        let grid = &self.grids[domain.0];
        let mut i_load = vec![0.0; grid.nx * grid.ny];
        let vdd = self.config.vdd.get();
        grid.load_into(block_powers, vdd, &mut i_load, &mut 0.0);
        i_load
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
        let i_load = self.domain_load(domain, block_powers);
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

    /// A sheet matrix as triplet assembly builds it: four triplets per
    /// edge, cell by cell (x edge, then y edge), then a zero per regulator
    /// on its cell's diagonal, the slots looked up afterwards. The
    /// reference [`sheet_matrix`] is held to.
    fn triplet_sheet(
        nx: usize,
        ny: usize,
        g_sheet: f64,
        vr_cells: &[(VrId, usize)],
    ) -> (CsrMatrix, Vec<(VrId, usize)>) {
        let n = nx * ny;
        let mut b = simkit::linalg::TripletBuilder::new(n, n);
        for j in 0..ny {
            for i in 0..nx {
                let c = j * nx + i;
                for (along, other) in [(i + 1 < nx, c + 1), (j + 1 < ny, c + nx)] {
                    if along {
                        b.add(c, c, g_sheet);
                        b.add(other, other, g_sheet);
                        b.add(c, other, -g_sheet);
                        b.add(other, c, -g_sheet);
                    }
                }
            }
        }
        for &(_, cell) in vr_cells {
            b.add(cell, cell, 0.0);
        }
        let base = b.build();
        let slots = vr_cells
            .iter()
            .map(|&(vid, cell)| (vid, base.entry_index(cell, cell).unwrap()))
            .collect();
        (base, slots)
    }

    /// Every stored `(row, column, value bits)` of `m`, in storage order.
    fn entry_bits(m: &CsrMatrix) -> Vec<(usize, usize, u64)> {
        m.iter_entries()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect()
    }

    #[test]
    fn every_sheet_matrix_is_the_triplet_assembly_bit_for_bit() {
        let (_, model) = setup();
        let g_sheet = 1.0 / model.config.r_sheet_ohm;
        // `(nx, ny, regulator cells)`.
        let mut cases: Vec<(usize, usize, Vec<_>)> = model
            .grids
            .iter()
            .map(|grid| (grid.nx, grid.ny, grid.vr_cells.clone()))
            .collect();
        // Degenerate grids: a 1×1 domain without a regulator (an empty
        // row), with one and with two on its cell; strips; regulators
        // listed out of cell order and sharing a cell.
        let vrs = |cells: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(v, &c)| (VrId(v), c))
                .collect()
        };
        for (nx, ny, cells) in [
            (1, 1, vec![]),
            (1, 1, vec![0]),
            (1, 1, vec![0, 0]),
            (1, 5, vec![4, 1]),
            (4, 1, vec![0]),
            (3, 2, vec![5, 2, 2, 0]),
        ] {
            cases.push((nx, ny, vrs(&cells)));
        }
        for (nx, ny, vr_cells) in cases {
            let (base, slots) = sheet_matrix(nx, ny, g_sheet, &vr_cells);
            let (reference, reference_slots) = triplet_sheet(nx, ny, g_sheet, &vr_cells);
            assert_eq!(entry_bits(&base), entry_bits(&reference), "{nx}x{ny}");
            assert_eq!(base, reference, "{nx}x{ny}");
            assert_eq!(slots, reference_slots, "{nx}x{ny} {vr_cells:?}");
        }
        assert_eq!(sheet_matrix(1, 1, g_sheet, &[]).0.nnz(), 0);
        for grid in &model.grids {
            let (base, slots) = triplet_sheet(grid.nx, grid.ny, g_sheet, &grid.vr_cells);
            assert_eq!((&grid.base, &grid.vr_entries), (&base, &slots));
        }
    }

    /// A block's cover from every cell of the domain grid: the reference
    /// [`block_cover`]'s widened range is held to.
    fn full_scan_cover(
        rect: &Rect,
        origin: (f64, f64),
        cell_m: f64,
        (nx, ny): (usize, usize),
    ) -> Vec<(usize, f64)> {
        let mut cover = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                let overlap = cell_rect(origin, cell_m, i, j).intersection_area(rect);
                if overlap > 0.0 {
                    cover.push((j * nx + i, overlap / rect.area()));
                }
            }
        }
        cover
    }

    #[test]
    fn every_block_cover_equals_the_full_scan_bit_for_bit() {
        let chip = power8_like();
        let bits = |cover: &[(usize, f64)]| -> Vec<(usize, u64)> {
            cover.iter().map(|&(c, f)| (c, f.to_bits())).collect()
        };
        // The default cell and sizes that do not divide the blocks evenly.
        for cell_mm in [PdnConfig::default().cell_mm, 0.137, 0.3, 0.71, 2.5] {
            let config = PdnConfig {
                cell_mm,
                ..PdnConfig::default()
            };
            let cell_m = cell_mm * 1e-3;
            let model = PdnModel::new(&chip, config);
            for (domain, grid) in chip.domains().iter().zip(&model.grids) {
                let (origin, size) = domain_extent(&chip, domain, cell_m);
                assert_eq!(size, (grid.nx, grid.ny));
                assert_eq!(grid.block_cells.len(), domain.blocks().len());
                for (&bid, (index, cover)) in domain.blocks().iter().zip(&grid.block_cells) {
                    let rect = chip.block(bid).rect();
                    let want = full_scan_cover(&rect, origin, cell_m, size);
                    assert_eq!(*index, bid.0);
                    assert!(!cover.is_empty(), "{cell_mm} mm: block {}", bid.0);
                    assert_eq!(bits(cover), bits(&want), "{cell_mm} mm: block {}", bid.0);
                }
            }
        }
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
        // The original key's basis is kept: coming back to it refactors
        // nothing and reproduces the first report.
        let back = model.ir_drop(&all_on, &powers).unwrap();
        assert_eq!(back.factor_seconds(), 0.0);
        assert_eq!(back.basis_solves(), 0);
        assert_eq!(first, back);
    }

    #[test]
    fn revisiting_keys_in_an_evicting_order_matches_a_fresh_model() {
        // Six keys in core0, each leaving one more of its first regulators
        // off; every other domain keeps all-on throughout.
        let (chip, model) = setup();
        let core0 = &chip.domains()[0];
        let keys: Vec<GatingState> = (0..6)
            .map(|off| {
                let mut gating = GatingState::all_on(chip.vr_sites().len());
                for &v in core0.vrs().iter().take(off) {
                    gating.set(v, false).unwrap();
                }
                gating
            })
            .collect();
        // 0–3 fill the four kept bases, 4 evicts 0, 0 evicts 1, 2 and 3
        // are kept, 1 evicts 4, 5 evicts 0, 3 is kept.
        let order = [0, 1, 2, 3, 4, 0, 2, 3, 1, 5, 3];
        let kept = [
            false, false, false, false, false, false, true, true, false, false, true,
        ];
        for (call, (&k, &hit)) in order.iter().zip(&kept).enumerate() {
            let watts = 0.5 + 0.1 * call as f64;
            let powers = uniform_powers(&chip, watts);
            let report = model.ir_drop(&keys[k], &powers).unwrap();
            let fresh = PdnModel::new(&chip, PdnConfig::default())
                .ir_drop(&keys[k], &powers)
                .unwrap();
            assert_eq!(report, fresh, "call {call}, key {k}");
            // The first call builds every domain; later ones core0 only.
            let rebuilt = if call == 0 {
                chip.blocks().len()
            } else if hit {
                0
            } else {
                core0.blocks().len()
            };
            assert_eq!(
                report.basis_solves(),
                rebuilt as u64,
                "call {call}, key {k}"
            );
            assert_eq!(report.factor_seconds() == 0.0, hit, "call {call}, key {k}");
        }
    }

    #[test]
    fn a_new_key_rebuilds_the_basis_and_a_repeated_key_rebuilds_nothing() {
        let (chip, model) = setup();
        let powers = uniform_powers(&chip, 1.5);
        let all_on = GatingState::all_on(chip.vr_sites().len());
        // The first call builds every domain's basis: one unit-load
        // solve per block.
        let first = model.ir_drop(&all_on, &powers).unwrap();
        assert!(first.factor_seconds() > 0.0);
        assert_eq!(first.basis_solves(), chip.blocks().len() as u64);
        // A repeated key rebuilds nothing, even under new loads.
        let again = model.ir_drop(&all_on, &uniform_powers(&chip, 0.7)).unwrap();
        assert_eq!(again.factor_seconds(), 0.0);
        assert_eq!(again.basis_solves(), 0);
        // A new key in one domain rebuilds that domain's basis only.
        let core0 = &chip.domains()[0];
        let mut half = all_on.clone();
        for &v in core0.vrs().iter().skip(3) {
            half.set(v, false).unwrap();
        }
        let other = model.ir_drop(&half, &powers).unwrap();
        assert!(other.factor_seconds() > 0.0);
        assert_eq!(other.basis_solves(), core0.blocks().len() as u64);
        // The iterative backends solve every call and keep no basis.
        let cg = PdnModel::new(
            &chip,
            PdnConfig {
                solver: simkit::linalg::SolverBackend::Cg,
                ..PdnConfig::default()
            },
        );
        assert_eq!(cg.ir_drop(&all_on, &powers).unwrap().basis_solves(), 0);
    }

    #[test]
    fn every_call_reports_one_solve_per_domain() {
        use simkit::linalg::SolverBackend::{Cg, Direct, Mgcg};
        let chip = power8_like();
        let domains = chip.domains().len() as u64;
        let all_on = GatingState::all_on(chip.vr_sites().len());
        let mut half = all_on.clone();
        for &v in chip.domains()[0].vrs().iter().skip(3) {
            half.set(v, false).unwrap();
        }
        for solver in [Direct, Cg, Mgcg] {
            let model = PdnModel::new(
                &chip,
                PdnConfig {
                    solver,
                    ..PdnConfig::default()
                },
            );
            // New key, repeated key under new loads, new key again.
            for (gating, watts) in [(&all_on, 1.5), (&all_on, 0.4), (&half, 2.0)] {
                let report = model
                    .ir_drop(gating, &uniform_powers(&chip, watts))
                    .unwrap();
                let solve = report.solve_stats();
                assert_eq!(solve.solves, domains, "{solver}");
                if solver == Direct {
                    assert_eq!(solve.iterations, domains);
                }
                assert!(
                    solve.max_residual <= 1e-9,
                    "{solver}: {}",
                    solve.max_residual
                );
            }
        }
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
