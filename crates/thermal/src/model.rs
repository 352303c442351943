//! Thermal network assembly and solvers.

use crate::config::ThermalConfig;
use crate::map::PowerMap;
use crate::state::ThermalState;
use floorplan::{BlockId, Floorplan, VrId};
use simkit::linalg::multigrid::MGCG_MIN_NODES;
use simkit::linalg::{
    CgWorkspace, CsrMatrix, GridGeometry, JacobiPreconditioner, LdltFactor, LdltWorkspace,
    MultigridPreconditioner, Preconditioner, SolveStats, SolverBackend, TripletBuilder,
    DIRECT_BREAK_EVEN,
};
use simkit::perf::SolverAgg;
use simkit::telemetry::Telemetry;
use simkit::units::{Celsius, Seconds, Watts};
use simkit::{Error, Result};
use std::time::Instant;

/// The assembled compact thermal model of one chip.
///
/// Node layout: `nx·ny` silicon cells (row-major from the lower-left),
/// then `nx·ny` spreader cells, then one lumped sink node.
#[derive(Debug, Clone)]
pub struct ThermalModel {
    config: ThermalConfig,
    nx: usize,
    ny: usize,
    n_cells: usize,
    n_nodes: usize,
    /// Cell footprint area, m².
    cell_area: f64,
    conductance: CsrMatrix,
    /// Jacobi preconditioner of `conductance`, built once at assembly and
    /// shared by every steady-state solve.
    conductance_pre: JacobiPreconditioner,
    capacitance: Vec<f64>,
    g_convection: f64,
    /// Per block: `(silicon cell, fraction of block area)` covering it.
    block_cells: Vec<Vec<(usize, f64)>>,
    /// Per regulator: its containing silicon cell.
    vr_cells: Vec<usize>,
    die_origin_m: (f64, f64),
    cell_size_m: (f64, f64),
    telemetry: Telemetry,
}

impl ThermalModel {
    /// Discretises `chip` and assembles the RC network.
    ///
    /// # Panics
    ///
    /// Panics when the grid resolution is zero.
    pub fn new(chip: &Floorplan, config: ThermalConfig) -> Self {
        assert!(config.nx > 0 && config.ny > 0, "grid must be non-empty");
        let nx = config.nx;
        let ny = config.ny;
        let n_cells = nx * ny;
        let n_nodes = 2 * n_cells + 1;
        let sink = 2 * n_cells;

        let die = chip.die();
        let die_w = die.width.get();
        let die_h = die.height.get();
        let cell_w = die_w / nx as f64;
        let cell_h = die_h / ny as f64;
        let cell_area = cell_w * cell_h;
        let p = &config.package;

        // --- Conductances -------------------------------------------------
        let g_lat_si_x = p.k_silicon * p.t_silicon * (cell_h / cell_w);
        let g_lat_si_y = p.k_silicon * p.t_silicon * (cell_w / cell_h);
        let g_lat_sp_x = p.k_spreader * p.t_spreader * (cell_h / cell_w);
        let g_lat_sp_y = p.k_spreader * p.t_spreader * (cell_w / cell_h);

        let r_si_half = (p.t_silicon / 2.0) / (p.k_silicon * cell_area);
        let r_tim = p.t_tim / (p.k_tim * cell_area);
        let r_sp_half = (p.t_spreader / 2.0) / (p.k_spreader * cell_area);
        let g_vert_si_sp = 1.0 / (r_si_half + r_tim + r_sp_half);
        let r_sp_sink = r_sp_half + p.sink_base_resistance * n_cells as f64;
        let g_vert_sp_sink = 1.0 / r_sp_sink;
        let g_convection = 1.0 / p.convection_resistance;

        let mut g = TripletBuilder::new(n_nodes, n_nodes);
        let mut add_edge = |a: usize, b: usize, cond: f64| {
            g.add(a, a, cond);
            g.add(b, b, cond);
            g.add(a, b, -cond);
            g.add(b, a, -cond);
        };
        for j in 0..ny {
            for i in 0..nx {
                let c = j * nx + i;
                let sp = n_cells + c;
                if i + 1 < nx {
                    add_edge(c, c + 1, g_lat_si_x);
                    add_edge(sp, sp + 1, g_lat_sp_x);
                }
                if j + 1 < ny {
                    add_edge(c, c + nx, g_lat_si_y);
                    add_edge(sp, sp + nx, g_lat_sp_y);
                }
                add_edge(c, sp, g_vert_si_sp);
                add_edge(sp, sink, g_vert_sp_sink);
            }
        }
        // Convection to ambient: diagonal-only (ambient enters the rhs).
        g.add(sink, sink, g_convection);
        let conductance = g.build();
        let conductance_pre = JacobiPreconditioner::new(&conductance)
            .expect("grid conductance matrix has a full diagonal");

        // --- Capacitances --------------------------------------------------
        let c_si = p.c_silicon * cell_area * p.t_silicon;
        let c_sp = p.c_spreader * cell_area * p.t_spreader;
        let mut capacitance = vec![c_si; n_cells];
        capacitance.extend(std::iter::repeat_n(c_sp, n_cells));
        capacitance.push(p.sink_capacitance);

        // --- Geometry maps --------------------------------------------------
        let tiles = die.tiles(nx, ny);
        let block_cells = chip
            .blocks()
            .iter()
            .map(|block| {
                let rect = block.rect();
                let area = rect.area();
                let mut cover = Vec::new();
                // Only scan the tile range the block can touch.
                let x0 = ((rect.origin.x.get() - die.origin.x.get()) / cell_w).floor() as usize;
                let y0 = ((rect.origin.y.get() - die.origin.y.get()) / cell_h).floor() as usize;
                let x1 =
                    (((rect.right().get() - die.origin.x.get()) / cell_w).ceil() as usize).min(nx);
                let y1 =
                    (((rect.top().get() - die.origin.y.get()) / cell_h).ceil() as usize).min(ny);
                for j in y0..y1 {
                    for i in x0..x1 {
                        let idx = j * nx + i;
                        let overlap = tiles[idx].intersection_area(&rect);
                        if overlap > 0.0 {
                            cover.push((idx, overlap / area));
                        }
                    }
                }
                cover
            })
            .collect();
        let vr_cells = chip
            .vr_sites()
            .iter()
            .map(|site| {
                let cx = site.center().x.get() - die.origin.x.get();
                let cy = site.center().y.get() - die.origin.y.get();
                let i = ((cx / cell_w) as usize).min(nx - 1);
                let j = ((cy / cell_h) as usize).min(ny - 1);
                j * nx + i
            })
            .collect();

        ThermalModel {
            config,
            nx,
            ny,
            n_cells,
            n_nodes,
            cell_area,
            conductance,
            conductance_pre,
            capacitance,
            g_convection,
            block_cells,
            vr_cells,
            die_origin_m: (die.origin.x.get(), die.origin.y.get()),
            cell_size_m: (cell_w, cell_h),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; steady solves emit
    /// `thermal.steady_cg` solve events and steppers created afterwards
    /// emit per-step `thermal.transient_cg` solve events plus a
    /// `thermal.max_silicon_c` hotspot gauge.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration used to build this model.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Grid resolution `(nx, ny)`.
    pub fn grid_size(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Number of silicon cells.
    pub fn cell_count(&self) -> usize {
        self.n_cells
    }

    /// Total RC-network node count (silicon + spreader + sink).
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Footprint area of one silicon cell, m².
    pub fn cell_area(&self) -> f64 {
        self.cell_area
    }

    /// The assembled steady-state conductance matrix `G` (SPD, one row
    /// per node) — exposed for differential solver verification and
    /// benchmarking on real thermal systems.
    pub fn conductance_matrix(&self) -> &CsrMatrix {
        &self.conductance
    }

    /// The node layout as a multigrid [`GridGeometry`]: two stacked
    /// `nx × ny` layers (silicon, spreader) plus the lumped sink node.
    pub fn grid_geometry(&self) -> GridGeometry {
        GridGeometry::new(self.nx, self.ny, 2, 1)
    }

    /// Ambient temperature of the package.
    pub fn ambient(&self) -> Celsius {
        self.config.package.ambient
    }

    /// `(cell, fraction)` coverage of a block over the silicon grid.
    ///
    /// # Panics
    ///
    /// Panics when the block id is out of range.
    pub(crate) fn block_coverage(&self, block: BlockId) -> &[(usize, f64)] {
        &self.block_cells[block.0]
    }

    /// The silicon cell containing a regulator site.
    ///
    /// # Panics
    ///
    /// Panics when the regulator id is out of range.
    pub(crate) fn vr_cell(&self, vr: VrId) -> usize {
        self.vr_cells[vr.0]
    }

    /// The silicon cell containing a die point (clamped to the grid).
    pub(crate) fn cell_of_point(&self, x_m: f64, y_m: f64) -> usize {
        let i = (((x_m - self.die_origin_m.0) / self.cell_size_m.0) as usize).min(self.nx - 1);
        let j = (((y_m - self.die_origin_m.1) / self.cell_size_m.1) as usize).min(self.ny - 1);
        j * self.nx + i
    }

    /// The self-heating temperature rise of a regulator above its cell,
    /// per watt of conversion loss.
    pub fn vr_self_resistance(&self) -> f64 {
        self.config.vr_self_resistance
    }

    /// A uniformly-ambient initial state.
    pub fn ambient_state(&self) -> ThermalState {
        ThermalState::uniform(self, self.ambient())
    }

    /// Writes the steady/transient right-hand side into `b` without
    /// allocating: injected power per node, plus the convection path to
    /// ambient on the sink node.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `b` has the wrong length.
    fn rhs_into(&self, power: &PowerMap, b: &mut [f64]) {
        debug_assert_eq!(b.len(), self.n_nodes);
        b.copy_from_slice(power.values());
        b[self.n_nodes - 1] += self.g_convection * self.ambient().get();
    }

    /// Convective heat flowing out of the package in a given state:
    /// `g_conv · (T_sink − T_ambient)`.
    ///
    /// At steady state the first law demands this equals the total
    /// injected power ([`PowerMap::total`]) — the energy-balance
    /// invariant `tg-verify` machine-checks; during a transient the
    /// difference is the heat still charging the RC network.
    pub fn heat_outflow(&self, state: &ThermalState) -> Watts {
        Watts::new(self.g_convection * (state.sink_temperature().get() - self.ambient().get()))
    }

    /// Relative residual `‖b(P) − G·T‖ / ‖b(P)‖` of a candidate
    /// steady-state temperature field against this model's conductance
    /// system — zero (up to solver tolerance) exactly when `state` solves
    /// the steady-state balance for `power`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `state` was built for another model.
    pub fn balance_residual(&self, power: &PowerMap, state: &ThermalState) -> f64 {
        debug_assert_eq!(state.raw().len(), self.n_nodes);
        let mut b = vec![0.0; self.n_nodes];
        self.rhs_into(power, &mut b);
        self.conductance.relative_residual(&b, state.raw())
    }

    /// Steady-state temperatures under a fixed power map.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`Error::NonConverged`]) — which do not
    /// occur for physical (non-negative, finite) power maps.
    pub fn steady_state(&self, power: &PowerMap) -> Result<ThermalState> {
        let mut state = self.ambient_state();
        let mut scratch = SteadyScratch::default();
        self.steady_state_with_scratch(power, &mut state, &mut scratch)?;
        Ok(state)
    }

    /// Steady-state solve writing into an existing state, warm-started
    /// from that state's current temperatures, with every scratch buffer
    /// caller-supplied — the allocation-free path for repeated solves
    /// (leakage feedback, per-decision oracle previews). Returns the
    /// CG convergence statistics.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`Error::NonConverged`]).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `state` was built for another model.
    pub fn steady_state_with_scratch(
        &self,
        power: &PowerMap,
        state: &mut ThermalState,
        scratch: &mut SteadyScratch,
    ) -> Result<SolveStats> {
        debug_assert_eq!(state.raw().len(), self.n_nodes);
        scratch.rhs.resize(self.n_nodes, 0.0);
        self.rhs_into(power, &mut scratch.rhs);
        let solves_so_far = scratch.solves;
        scratch.solves += 1;
        // Grid-size-aware backend policy. Below the measured multigrid
        // crossover, the PR-5 break-even rule stands: the conductance
        // matrix is fixed for the model's lifetime, so once a scratch has
        // carried enough iterative solves to prove the system is solved
        // repeatedly (leakage feedback, per-decision previews), one
        // factorization amortises over every remaining solve. Past the
        // crossover — where min-degree fill-in makes factoring the fine
        // matrix prohibitively expensive and Jacobi-CG iteration counts
        // track the grid diameter — Auto switches to multigrid-CG from
        // the first solve (the hierarchy setup costs about one Jacobi-CG
        // solve; see DESIGN.md §12).
        let use_mgcg = match self.config.solver {
            SolverBackend::Mgcg => true,
            SolverBackend::Auto => self.n_nodes >= MGCG_MIN_NODES,
            _ => false,
        };
        let use_direct = !use_mgcg
            && match self.config.solver {
                SolverBackend::Direct => true,
                SolverBackend::Auto => solves_so_far >= DIRECT_BREAK_EVEN,
                SolverBackend::Cg | SolverBackend::Mgcg => false,
            };
        if use_mgcg {
            let setup_started = Instant::now();
            let mut factor_s = 0.0;
            let cached = scratch.mg.as_ref().is_some_and(|m| {
                m.dim() == self.n_nodes && scratch.mg_values == self.conductance.values()
            });
            if !cached {
                let mg = MultigridPreconditioner::new(&self.conductance, self.grid_geometry())?;
                scratch.mg_values.clear();
                scratch
                    .mg_values
                    .extend_from_slice(self.conductance.values());
                scratch.mg = Some(mg);
                factor_s = setup_started.elapsed().as_secs_f64();
            }
            let mg = scratch.mg.as_ref().expect("hierarchy built above");
            let solve_started = Instant::now();
            let stats = self.conductance.solve_cg_with(
                &scratch.rhs,
                state.raw_mut(),
                mg,
                &mut scratch.cg,
                1e-10,
                20_000,
            )?;
            self.telemetry.solve_timed(
                "thermal.steady_mgcg",
                stats.iterations,
                stats.residual,
                "mgcg",
                factor_s,
                solve_started.elapsed().as_secs_f64(),
            );
            return Ok(stats);
        }
        if use_direct {
            let factor_started = Instant::now();
            let mut factor_s = 0.0;
            let cached = scratch.ldlt.as_ref().is_some_and(|f| {
                f.order() == self.n_nodes && scratch.ldlt_values == self.conductance.values()
            });
            if !cached {
                let factor = LdltFactor::new(&self.conductance)?;
                scratch.ldlt_values.clear();
                scratch
                    .ldlt_values
                    .extend_from_slice(self.conductance.values());
                scratch.ldlt = Some(factor);
                factor_s = factor_started.elapsed().as_secs_f64();
            }
            let solve_started = Instant::now();
            let factor = scratch.ldlt.as_ref().expect("factor built above");
            factor.solve_into(&scratch.rhs, state.raw_mut(), &mut scratch.ldlt_ws)?;
            let stats = LdltFactor::stats_for(&self.conductance, &scratch.rhs, state.raw());
            self.telemetry.solve_timed(
                "thermal.steady_direct",
                stats.iterations,
                stats.residual,
                "direct",
                factor_s,
                solve_started.elapsed().as_secs_f64(),
            );
            Ok(stats)
        } else {
            let solve_started = Instant::now();
            let stats = self.conductance.solve_cg_with(
                &scratch.rhs,
                state.raw_mut(),
                &self.conductance_pre,
                &mut scratch.cg,
                1e-10,
                20_000,
            )?;
            self.telemetry.solve_timed(
                "thermal.steady_cg",
                stats.iterations,
                stats.residual,
                "cg",
                0.0,
                solve_started.elapsed().as_secs_f64(),
            );
            Ok(stats)
        }
    }

    /// Iterates steady-state solves against a temperature-dependent power
    /// map (the HotSpot-in-a-feedback-loop methodology of Section 5:
    /// leakage depends on temperature, temperature depends on power) until
    /// the hottest node moves less than `tol_c` between iterations.
    ///
    /// Returns the converged state and a [`FeedbackStats`] carrying the
    /// number of feedback iterations plus the aggregated inner-CG
    /// convergence statistics.
    ///
    /// # Errors
    ///
    /// * Solver failures are propagated;
    /// * [`Error::NonConverged`] when `max_iter` passes do not reach
    ///   `tol_c` (the reported residual is the last inter-iteration
    ///   temperature movement in °C).
    pub fn steady_state_with_feedback<'s, F>(
        &'s self,
        max_iter: usize,
        tol_c: f64,
        mut power_of: F,
    ) -> Result<(ThermalState, FeedbackStats)>
    where
        F: FnMut(&ThermalState) -> Result<PowerMap<'s>>,
    {
        let mut state = self.ambient_state();
        let mut next = self.ambient_state();
        let mut scratch = SteadyScratch::default();
        let mut cg = SolverAgg::default();
        let mut last_delta = f64::INFINITY;
        for iteration in 1..=max_iter {
            let power = power_of(&state)?;
            // Warm-start the solve from the previous iterate: the scratch
            // buffers and both states are reused across the loop.
            next.raw_mut().copy_from_slice(state.raw());
            cg.record(self.steady_state_with_scratch(&power, &mut next, &mut scratch)?);
            let delta = state.max_abs_difference(&next);
            last_delta = delta;
            std::mem::swap(&mut state, &mut next);
            if delta < tol_c {
                return Ok((
                    state,
                    FeedbackStats {
                        iterations: iteration,
                        cg,
                    },
                ));
            }
        }
        Err(Error::NonConverged {
            iterations: max_iter,
            residual: last_delta,
        })
    }

    /// Prepares a backward-Euler stepper for a fixed time step.
    ///
    /// The system `G + C/Δt` is fixed for the stepper's lifetime and
    /// solved once per thermal step. At simulation time steps the `C/Δt`
    /// diagonal dominates the stencil couplings, so a warm-started
    /// Jacobi-CG step converges in a handful of iterations and beats
    /// streaming an LDLᵀ factor through a triangular solve (measured
    /// ≈16 µs vs ≈120 µs per step at 32×32), Gauss–Seidel sweeps, and a
    /// multigrid V-cycle per iteration (see BENCH.md). Every backend
    /// therefore builds the same warm-started CG stepper.
    ///
    /// # Panics
    ///
    /// Panics when `dt` is not positive.
    pub fn stepper(&self, dt: Seconds) -> TransientStepper<'_> {
        assert!(dt.get() > 0.0, "time step must be positive");
        // A = G + C/dt: same sparsity as G plus (already present) diagonal.
        let mut b = TripletBuilder::new(self.n_nodes, self.n_nodes);
        for row in 0..self.n_nodes {
            b.add(row, row, self.capacitance[row] / dt.get());
        }
        let a = add_matrices(&self.conductance, b.build());
        let factor_started = Instant::now();
        let pre = JacobiPreconditioner::new(&a).expect("backward-Euler system has a full diagonal");
        TransientStepper {
            model: self,
            dt,
            system: a,
            pre,
            ws: CgWorkspace::new(),
            pending_factor_s: factor_started.elapsed().as_secs_f64(),
            rhs: vec![0.0; self.n_nodes],
            telemetry: self.telemetry.clone(),
        }
    }
}

/// Convergence summary of one [`ThermalModel::steady_state_with_feedback`]
/// loop: outer feedback iterations plus the aggregated inner CG solves.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FeedbackStats {
    /// Outer leakage-feedback iterations until the hottest node settled.
    pub iterations: usize,
    /// Aggregate over the inner steady-state CG solves.
    pub cg: SolverAgg,
}

/// Reusable scratch buffers for repeated steady-state solves: the
/// right-hand side, the CG workspace, and — once the
/// [`SolverBackend::Auto`] break-even count is cleared or the backend is
/// pinned to direct — the cached LDLᵀ factor of the conductance matrix
/// with its solve workspace. Default-constructed empty; sized on first
/// use and stable afterwards.
///
/// The factor cache is keyed by value comparison against the matrix it
/// was built from, so a scratch accidentally reused across models
/// rebuilds instead of solving the wrong system. Factor-cache lifetime
/// equals the scratch lifetime: per engine in simulation runs, which is
/// what keeps the parallel sweep executor's legs independent.
#[derive(Debug, Clone, Default)]
pub struct SteadyScratch {
    rhs: Vec<f64>,
    cg: CgWorkspace,
    /// Solves carried so far — the [`SolverBackend::Auto`] break-even counter.
    solves: usize,
    ldlt: Option<LdltFactor>,
    /// Values of the matrix `ldlt` was factored from (cache key).
    ldlt_values: Vec<f64>,
    ldlt_ws: LdltWorkspace,
    /// Multigrid hierarchy for the mgcg backend (and `Auto` past the
    /// grid-size crossover), cached like the LDLᵀ factor.
    mg: Option<MultigridPreconditioner>,
    /// Values of the matrix `mg` was built from (cache key).
    mg_values: Vec<f64>,
}

impl SteadyScratch {
    /// An empty scratch; buffers grow on first solve.
    pub fn new() -> Self {
        SteadyScratch::default()
    }

    /// Smallest capacity across the always-used scratch buffers
    /// (allocation-stability probe for tests).
    pub fn min_capacity(&self) -> usize {
        self.rhs.capacity().min(self.cg.min_capacity())
    }

    /// Whether the scratch currently holds a cached LDLᵀ factor.
    pub fn has_factor(&self) -> bool {
        self.ldlt.is_some()
    }
}

/// Adds two CSR matrices with identical dimensions (used to form
/// `G + C/Δt`).
fn add_matrices(a: &CsrMatrix, b: CsrMatrix) -> CsrMatrix {
    let mut out = TripletBuilder::new(a.rows(), a.cols());
    for (row, col, val) in a.iter_entries().chain(b.iter_entries()) {
        out.add(row, col, val);
    }
    out.build()
}

/// Telemetry event name of every transient step's solve.
const TRANSIENT_SOLVE_EVENT: &str = "thermal.transient_cg";

/// A prepared backward-Euler integrator bound to one [`ThermalModel`] and
/// a fixed step size, solving each step by Jacobi-preconditioned CG
/// warm-started from the previous step's temperatures.
///
/// The system matrix `G + C/Δt`, its Jacobi preconditioner, the CG
/// workspace, and the right-hand-side buffer are all built once here, so
/// [`TransientStepper::step`] performs no heap allocation — the inner
/// loop of every simulation run. The stepper is the same under every
/// [`ThermalConfig::solver`] backend; the backend governs steady solves
/// only.
#[derive(Debug, Clone)]
pub struct TransientStepper<'m> {
    model: &'m ThermalModel,
    dt: Seconds,
    system: CsrMatrix,
    pre: JacobiPreconditioner,
    ws: CgWorkspace,
    /// Preconditioner setup time not yet reported: attributed to the
    /// first step's solve event, zero afterwards.
    pending_factor_s: f64,
    rhs: Vec<f64>,
    telemetry: Telemetry,
}

impl TransientStepper<'_> {
    /// The fixed step size.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// Telemetry event name this stepper's solves are reported under
    /// (`thermal.transient_cg`).
    pub fn solve_event_name(&self) -> &'static str {
        TRANSIENT_SOLVE_EVENT
    }

    /// Advances `state` by one step under the given power map and
    /// returns the CG convergence statistics.
    ///
    /// Solves in place: the state's own buffer is the warm start and the
    /// solution, and the right-hand side lives in the stepper.
    ///
    /// # Errors
    ///
    /// Propagates solver failures; physical inputs converge.
    pub fn step(&mut self, state: &mut ThermalState, power: &PowerMap) -> Result<SolveStats> {
        let n = self.model.n_nodes;
        self.model.rhs_into(power, &mut self.rhs);
        let temps = state.raw();
        let inv_dt = 1.0 / self.dt.get();
        for ((r, &c), &t) in self.rhs[..n]
            .iter_mut()
            .zip(&self.model.capacitance)
            .zip(temps)
        {
            *r += c * inv_dt * t;
        }
        let solve_started = Instant::now();
        // The sink node's C/Δt term dominates ‖b‖, so the relative
        // tolerance must be far below the steady 1e-10 to bound the
        // *absolute* temperature error on silicon nodes.
        let stats = self.system.solve_cg_with(
            &self.rhs,
            state.raw_mut(),
            &self.pre,
            &mut self.ws,
            1e-13,
            10 * n.max(1),
        )?;
        if self.telemetry.is_enabled() {
            self.telemetry.solve_timed(
                TRANSIENT_SOLVE_EVENT,
                stats.iterations,
                stats.residual,
                SolverBackend::Cg.name(),
                self.pending_factor_s,
                solve_started.elapsed().as_secs_f64(),
            );
            self.telemetry
                .gauge("thermal.max_silicon_c", state.max_silicon().get());
        }
        self.pending_factor_s = 0.0;
        Ok(stats)
    }

    /// Capacity of the right-hand-side scratch buffer (allocation-
    /// stability probe for tests).
    pub fn rhs_capacity(&self) -> usize {
        self.rhs.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::PowerMap;
    use floorplan::reference::power8_like;
    use simkit::units::Watts;

    fn setup() -> (floorplan::Floorplan, ThermalModel) {
        let chip = power8_like();
        let model = ThermalModel::new(&chip, ThermalConfig::coarse());
        (chip, model)
    }

    #[test]
    fn zero_power_settles_at_ambient() {
        let (_, model) = setup();
        let power = PowerMap::new(&model);
        let state = model.steady_state(&power).unwrap();
        assert!((state.max_silicon().get() - 45.0).abs() < 1e-6);
        assert!((state.min_silicon().get() - 45.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_power_raises_mean_by_total_times_resistance() {
        let (chip, model) = setup();
        let mut power = PowerMap::new(&model);
        let total = 100.0;
        for block in chip.blocks() {
            power
                .add_block(block.id(), Watts::new(total / chip.blocks().len() as f64))
                .unwrap();
        }
        let state = model.steady_state(&power).unwrap();
        // Sink temperature ≈ ambient + P × (R_conv) and silicon sits above
        // that; with R_conv = 0.12 the sink alone adds 12 °C.
        let t_mean = state.mean_silicon().get();
        assert!(t_mean > 45.0 + total * 0.12, "mean {t_mean}");
        assert!(t_mean < 95.0, "mean {t_mean}");
    }

    #[test]
    fn hotspot_forms_under_concentrated_power() {
        let (chip, model) = setup();
        let mut power = PowerMap::new(&model);
        // Dump 20 W into one EXU only.
        let exu = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core0.EXU")
            .unwrap();
        power.add_block(exu.id(), Watts::new(20.0)).unwrap();
        let state = model.steady_state(&power).unwrap();
        let t_exu = state.block_temperature(&model, exu.id());
        let far = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core3.EXU")
            .unwrap();
        let t_far = state.block_temperature(&model, far.id());
        assert!(
            t_exu.get() > t_far.get() + 5.0,
            "exu {t_exu} vs far {t_far}"
        );
        assert!(state.gradient() > 5.0);
    }

    #[test]
    fn transient_approaches_steady_state() {
        let (chip, model) = setup();
        let mut power = PowerMap::new(&model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(1.0)).unwrap();
        }
        let steady = model.steady_state(&power).unwrap();
        // The sink's RC time constant is ~17 s; backward Euler is
        // unconditionally stable, so march 120 simulated seconds in 2 s
        // steps to let the whole stack settle.
        let mut stepper = model.stepper(Seconds::new(2.0));
        let mut state = model.ambient_state();
        for _ in 0..60 {
            stepper.step(&mut state, &power).unwrap();
        }
        let gap = (steady.max_silicon().get() - state.max_silicon().get()).abs();
        assert!(gap < 0.5, "gap {gap}");
    }

    #[test]
    fn transient_step_moves_towards_heat() {
        let (chip, model) = setup();
        let mut power = PowerMap::new(&model);
        let exu = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core0.EXU")
            .unwrap();
        power.add_block(exu.id(), Watts::new(10.0)).unwrap();
        let mut stepper = model.stepper(Seconds::from_micros(100.0));
        let mut state = model.ambient_state();
        stepper.step(&mut state, &power).unwrap();
        let after_one = state.block_temperature(&model, exu.id());
        assert!(after_one.get() > 45.0);
        for _ in 0..9 {
            stepper.step(&mut state, &power).unwrap();
        }
        let after_ten = state.block_temperature(&model, exu.id());
        assert!(after_ten > after_one);
    }

    #[test]
    fn vr_self_heating_is_visible() {
        let (chip, model) = setup();
        let power = PowerMap::new(&model);
        let state = model.steady_state(&power).unwrap();
        let vr = chip.vr_sites()[0].id();
        let cold = state.vr_temperature(&model, vr, Watts::ZERO);
        let hot = state.vr_temperature(&model, vr, Watts::new(0.5));
        assert!((hot.get() - cold.get() - 0.5 * model.vr_self_resistance()).abs() < 1e-9);
    }

    #[test]
    fn feedback_loop_converges() {
        let (chip, model) = setup();
        let blocks: Vec<_> = chip.blocks().iter().map(|b| b.id()).collect();
        let (state, fb) = model
            .steady_state_with_feedback(50, 0.01, |state| {
                let mut pm = PowerMap::new(&model);
                for &b in &blocks {
                    // Mildly temperature-dependent power (like leakage).
                    let t = state.block_temperature(&model, b).get();
                    let p = 1.0 + 0.01 * (t - 45.0);
                    pm.add_block(b, Watts::new(p))?;
                }
                Ok(pm)
            })
            .unwrap();
        assert!(fb.iterations >= 2, "took {} iterations", fb.iterations);
        assert_eq!(fb.cg.solves as usize, fb.iterations);
        assert!(fb.cg.iterations > 0);
        assert!(fb.cg.max_residual.is_finite() && fb.cg.max_residual <= 1e-10);
        assert!(state.max_silicon().get() > 45.0);
    }

    #[test]
    fn stepper_emits_solve_events_and_hotspot_gauge() {
        use simkit::telemetry::{EventKind, Telemetry};

        let (chip, mut model) = setup();
        let (tel, sink) = Telemetry::recorder();
        model.set_telemetry(tel);
        let mut power = PowerMap::new(&model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(1.0)).unwrap();
        }
        let mut stepper = model.stepper(Seconds::from_micros(100.0));
        let mut state = model.ambient_state();
        for _ in 0..3 {
            stepper.step(&mut state, &power).unwrap();
        }
        assert_eq!(sink.count_kind(EventKind::Solve), 3);
        assert_eq!(sink.count_kind(EventKind::Gauge), 3);
        let events = sink.events();
        let step_event = stepper.solve_event_name();
        assert!(events.iter().any(|e| e.name == step_event));
        assert!(events.iter().any(|e| e.name == "thermal.max_silicon_c"));
        // Steady solves report through the same handle.
        let mut scratch = SteadyScratch::new();
        model
            .steady_state_with_scratch(&power, &mut state, &mut scratch)
            .unwrap();
        assert!(sink.events().iter().any(|e| e.name == "thermal.steady_cg"));
    }

    #[test]
    fn transient_backends_agree() {
        let (chip, model) = setup();
        let mut power = PowerMap::new(&model);
        for (i, block) in chip.blocks().iter().enumerate() {
            power
                .add_block(block.id(), Watts::new(0.5 + (i % 7) as f64 * 0.4))
                .unwrap();
        }
        let dt = Seconds::from_micros(50.0);
        // Reference: LDLᵀ of G + C/Δt, fed the same right-hand side.
        let mut diag = TripletBuilder::new(model.n_nodes, model.n_nodes);
        for (row, &c) in model.capacitance.iter().enumerate() {
            diag.add(row, row, c / dt.get());
        }
        let factor = LdltFactor::new(&add_matrices(&model.conductance, diag.build())).unwrap();
        let mut ldlt_ws = LdltWorkspace::new();
        let mut reference = model.ambient_state();
        let mut rhs = vec![0.0; model.n_nodes];
        let mut stepper = model.stepper(dt);
        let mut state = model.ambient_state();
        for _ in 0..50 {
            model.rhs_into(&power, &mut rhs);
            for ((r, &c), &t) in rhs.iter_mut().zip(&model.capacitance).zip(reference.raw()) {
                *r += c / dt.get() * t;
            }
            factor
                .solve_into(&rhs, reference.raw_mut(), &mut ldlt_ws)
                .unwrap();
            stepper.step(&mut state, &power).unwrap();
        }
        let gap = reference.max_abs_difference(&state);
        assert!(gap < 1e-4, "CG stepper vs LDLᵀ diverged by {gap} °C");
        // The backend knob governs steady solves only: every backend
        // builds the same CG stepper.
        for backend in [
            SolverBackend::Auto,
            SolverBackend::Direct,
            SolverBackend::Cg,
            SolverBackend::Mgcg,
        ] {
            let config = ThermalConfig {
                solver: backend,
                ..ThermalConfig::coarse()
            };
            let model = ThermalModel::new(&chip, config);
            assert_eq!(
                model.stepper(dt).solve_event_name(),
                "thermal.transient_cg",
                "{backend:?}"
            );
        }
    }

    #[test]
    fn steady_mgcg_matches_cg_and_caches_the_hierarchy() {
        let chip = power8_like();
        let config = ThermalConfig {
            solver: SolverBackend::Mgcg,
            ..ThermalConfig::coarse()
        };
        let model = ThermalModel::new(&chip, config);
        let mut power = PowerMap::new(&model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(1.5)).unwrap();
        }
        let reference = {
            let cg_model = ThermalModel::new(
                &chip,
                ThermalConfig {
                    solver: SolverBackend::Cg,
                    ..ThermalConfig::coarse()
                },
            );
            cg_model.steady_state(&power).unwrap()
        };
        let mut scratch = SteadyScratch::new();
        let mut state = model.ambient_state();
        let first = model
            .steady_state_with_scratch(&power, &mut state, &mut scratch)
            .unwrap();
        assert!(reference.max_abs_difference(&state) < 1e-5);
        // Warm second solve: the hierarchy is cached, no direct factor is
        // ever built, and a converged warm start exits immediately.
        let second = model
            .steady_state_with_scratch(&power, &mut state, &mut scratch)
            .unwrap();
        assert!(!scratch.has_factor());
        assert!(second.iterations <= first.iterations);
        // On the 32×32 model mgcg-CG must already beat Jacobi-CG's ~73
        // iterations by a wide margin (cold-start solve).
        assert!(
            first.iterations <= 25,
            "mgcg took {} iterations",
            first.iterations
        );
    }

    #[test]
    fn auto_selects_mgcg_only_past_the_grid_size_crossover() {
        use simkit::linalg::multigrid::MGCG_MIN_NODES;
        // The coarse test grid sits far below the crossover: Auto must
        // keep the warm-CG → direct break-even behaviour there (covered
        // by steady_auto_switches_to_direct_at_break_even) …
        let coarse = ThermalConfig::coarse();
        assert!(2 * coarse.nx * coarse.ny + 1 < MGCG_MIN_NODES);
        // … while a ≥10×-finer grid clears it, so Auto picks multigrid
        // from the first solve. Solve on a small-but-past-crossover grid
        // to keep the test fast and verify the mgcg path engaged (no
        // LDLᵀ factor, even past break-even solve counts).
        let side = ((MGCG_MIN_NODES / 2) as f64).sqrt() as usize + 1;
        let chip = power8_like();
        let config = ThermalConfig {
            nx: side,
            ny: side,
            solver: SolverBackend::Auto,
            ..ThermalConfig::standard()
        };
        let model = ThermalModel::new(&chip, config);
        assert!(model.node_count() >= MGCG_MIN_NODES);
        let mut power = PowerMap::new(&model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(1.0)).unwrap();
        }
        let mut scratch = SteadyScratch::new();
        let mut state = model.ambient_state();
        for _ in 0..3 {
            model
                .steady_state_with_scratch(&power, &mut state, &mut scratch)
                .unwrap();
        }
        assert!(scratch.mg.is_some(), "Auto did not engage multigrid");
        assert!(!scratch.has_factor(), "Auto factored past the crossover");
    }

    #[test]
    fn steady_auto_switches_to_direct_at_break_even() {
        use simkit::linalg::DIRECT_BREAK_EVEN;
        let chip = power8_like();
        let config = ThermalConfig {
            solver: SolverBackend::Auto,
            ..ThermalConfig::coarse()
        };
        let model = ThermalModel::new(&chip, config);
        let mut power = PowerMap::new(&model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(1.0)).unwrap();
        }
        let reference = model.steady_state(&power).unwrap();
        let mut scratch = SteadyScratch::new();
        let mut state = model.ambient_state();
        for solve in 1..=(DIRECT_BREAK_EVEN + 3) {
            model
                .steady_state_with_scratch(&power, &mut state, &mut scratch)
                .unwrap();
            assert_eq!(
                scratch.has_factor(),
                solve > DIRECT_BREAK_EVEN,
                "factor presence wrong after solve {solve}"
            );
            assert!(reference.max_abs_difference(&state) < 1e-5);
        }
    }

    #[test]
    fn block_coverage_fractions_sum_to_one() {
        let (chip, model) = setup();
        for block in chip.blocks() {
            let sum: f64 = model
                .block_coverage(block.id())
                .iter()
                .map(|&(_, f)| f)
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "block {}", block.name());
        }
    }

    #[test]
    fn node_counts() {
        let (_, model) = setup();
        assert_eq!(model.grid_size(), (32, 32));
        assert_eq!(model.cell_count(), 1024);
        assert_eq!(model.node_count(), 2049);
    }

    #[test]
    fn stepper_scratch_is_allocation_stable() {
        // The transient inner loop must not grow (or re-create) any
        // buffer after the first step: the rhs scratch capacity and the
        // state's own buffer address stay fixed across hundreds of steps.
        let (chip, model) = setup();
        let mut power = PowerMap::new(&model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(1.5)).unwrap();
        }
        let mut stepper = model.stepper(Seconds::from_micros(20.0));
        let mut state = model.ambient_state();
        stepper.step(&mut state, &power).unwrap();
        let rhs_cap = stepper.rhs_capacity();
        let state_ptr = state.raw().as_ptr();
        for _ in 0..200 {
            stepper.step(&mut state, &power).unwrap();
        }
        assert_eq!(stepper.rhs_capacity(), rhs_cap);
        assert_eq!(state.raw().as_ptr(), state_ptr);
    }

    #[test]
    fn steady_scratch_is_allocation_stable() {
        let (chip, model) = setup();
        let mut power = PowerMap::new(&model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(2.0)).unwrap();
        }
        let mut state = model.ambient_state();
        let mut scratch = SteadyScratch::new();
        model
            .steady_state_with_scratch(&power, &mut state, &mut scratch)
            .unwrap();
        let cap = scratch.min_capacity();
        assert!(cap >= model.node_count());
        for _ in 0..5 {
            model
                .steady_state_with_scratch(&power, &mut state, &mut scratch)
                .unwrap();
            assert_eq!(scratch.min_capacity(), cap);
        }
    }

    #[test]
    fn warm_started_steady_solve_matches_cold_solve() {
        let (chip, model) = setup();
        let mut power = PowerMap::new(&model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(1.0)).unwrap();
        }
        let cold = model.steady_state(&power).unwrap();
        // Warm start from a very different state (a previous hot solve).
        let mut hot_power = PowerMap::new(&model);
        for block in chip.blocks() {
            hot_power.add_block(block.id(), Watts::new(4.0)).unwrap();
        }
        let mut state = model.steady_state(&hot_power).unwrap();
        let mut scratch = SteadyScratch::new();
        model
            .steady_state_with_scratch(&power, &mut state, &mut scratch)
            .unwrap();
        assert!(cold.max_abs_difference(&state) < 1e-5);
    }
}
