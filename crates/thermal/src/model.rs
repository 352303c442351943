//! Thermal network assembly and solvers.

use crate::config::ThermalConfig;
use crate::map::PowerMap;
use crate::operator::ThermalOperator;
use crate::state::ThermalState;
use floorplan::{BlockId, Floorplan, VrId};
use simkit::linalg::multigrid::MGCG_MIN_NODES;
use simkit::linalg::{
    solve_cg, CgWorkspace, CsrMatrix, GridGeometry, JacobiPreconditioner, SolveSites, SolveStats,
    SolverBackend, SpdSolver, SpdWorkspace, TripletBuilder,
};
use simkit::perf::SolverAgg;
use simkit::telemetry::Telemetry;
use simkit::units::{Celsius, Seconds, Watts};
use simkit::{Error, Result};
use std::sync::OnceLock;
use std::time::Instant;

/// Telemetry sites of the steady-state solves.
const STEADY_SITES: SolveSites = SolveSites {
    cg: "thermal.steady_cg",
    mgcg: "thermal.steady_mgcg",
    direct: "thermal.steady_direct",
};

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
    /// The assembled `G`, kept only where a matrix is needed: building
    /// the steady solver, `balance_residual` and
    /// [`ThermalModel::conductance_matrix`]. Solves apply `operator`.
    conductance: CsrMatrix,
    /// `G` as a matrix-free stencil (`d = 0`).
    operator: ThermalOperator,
    /// The steady-state backend, `Auto` resolved at construction.
    steady_backend: SolverBackend,
    /// The steady solver of `G` (Jacobi, multigrid hierarchy or LDLᵀ
    /// factor): `G` is fixed for the model's lifetime, so it is built on
    /// the first steady solve and shared by every later one.
    steady: OnceLock<SpdSolver>,
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
        let operator = ThermalOperator::new(
            nx,
            ny,
            (g_lat_si_x, g_lat_si_y),
            (g_lat_sp_x, g_lat_sp_y),
            g_vert_si_sp,
            g_vert_sp_sink,
            &conductance,
        );
        // Past the multigrid crossover Jacobi-CG iteration counts track
        // the grid diameter and LDLᵀ fill-in makes factoring prohibitive;
        // below it Jacobi-CG wins (DESIGN.md §11–12).
        let steady_backend = config.solver.resolve(if n_nodes >= MGCG_MIN_NODES {
            SolverBackend::Mgcg
        } else {
            SolverBackend::Cg
        });

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
            operator,
            steady_backend,
            steady: OnceLock::new(),
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
    /// `thermal.steady_{cg,mgcg,direct}` solve events and steppers
    /// created afterwards emit per-step `thermal.transient_cg` solve
    /// events plus a `thermal.max_silicon_c` hotspot gauge.
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

    /// `G` as the matrix-free [`ThermalOperator`] every steady CG solve
    /// applies (`d = 0`).
    pub fn operator(&self) -> &ThermalOperator {
        &self.operator
    }

    /// The backward-Euler system `G + C/Δt` assembled as a CSR matrix:
    /// what a [`TransientStepper`] applies as a stencil. No simulation
    /// path builds it; it is the reference differential checks hold the
    /// stencil to.
    pub fn backward_euler_matrix(&self, dt: Seconds) -> CsrMatrix {
        let n = self.n_nodes;
        let mut b = TripletBuilder::new(n, n);
        for (row, col, val) in self.conductance.iter_entries() {
            b.add(row, col, val);
        }
        for (row, &c) in self.capacitance.iter().enumerate() {
            b.add(row, row, c / dt.get());
        }
        b.build()
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
    /// solve's convergence statistics (one iteration for a direct solve).
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
        let (solver, factor_s) = self.steady_solver()?;
        let (stats, solve_s) = solver.solve(
            &self.operator,
            &scratch.rhs,
            state.raw_mut(),
            &mut scratch.ws,
            1e-10,
            20_000,
        )?;
        let backend = solver.backend();
        self.telemetry.solve_timed(
            STEADY_SITES.of(backend),
            stats.iterations,
            stats.residual,
            backend.name(),
            factor_s,
            solve_s,
        );
        Ok(stats)
    }

    /// The steady solver of `G` with the seconds spent building it in
    /// this call (zero once built).
    fn steady_solver(&self) -> Result<(&SpdSolver, f64)> {
        if let Some(solver) = self.steady.get() {
            return Ok((solver, 0.0));
        }
        let (solver, factor_s) =
            SpdSolver::build(self.steady_backend, &self.conductance, self.grid_geometry())?;
        // Threads racing to the first solve each build; the first to
        // store wins and the others' copies are dropped.
        let _ = self.steady.set(solver);
        Ok((self.steady.get().expect("stored above"), factor_s))
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
    /// Jacobi-CG step converges in a handful of iterations (3 at 32² and
    /// 64², 5 at 128²) and beats streaming an LDLᵀ factor through a
    /// triangular solve, Gauss–Seidel sweeps, and a multigrid V-cycle per
    /// iteration (see BENCH.md). Every backend therefore builds the same
    /// warm-started CG stepper.
    ///
    /// The system is the matrix-free [`ThermalOperator`] with
    /// `d = C/Δt`: building a stepper assembles no matrix, and a step
    /// streams the state, the diagonal and the CG vectors but no CSR
    /// entries. Measured p50 per step (2-vCPU Xeon, release): 31 µs at
    /// 32², 145 µs at 64² and 858 µs at 128², against 113, 404 and
    /// 2 710 µs for CG over the assembled CSR matrix.
    ///
    /// # Panics
    ///
    /// Panics when `dt` is not positive.
    pub fn stepper(&self, dt: Seconds) -> TransientStepper<'_> {
        assert!(dt.get() > 0.0, "time step must be positive");
        let factor_started = Instant::now();
        let system = self.operator.shifted(&self.capacitance, dt.get());
        let pre = JacobiPreconditioner::from_diagonal(system.diagonal())
            .expect("backward-Euler system has a full diagonal");
        TransientStepper {
            model: self,
            dt,
            system,
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
/// right-hand side and the solver workspace. The solver itself lives
/// with the [`ThermalModel`]. Default-constructed empty; sized on first
/// use and stable afterwards.
#[derive(Debug, Clone, Default)]
pub struct SteadyScratch {
    rhs: Vec<f64>,
    ws: SpdWorkspace,
}

impl SteadyScratch {
    /// An empty scratch; buffers grow on first solve.
    pub fn new() -> Self {
        SteadyScratch::default()
    }

    /// Smallest capacity across the always-used scratch buffers
    /// (allocation-stability probe for tests).
    pub fn min_capacity(&self) -> usize {
        self.rhs.capacity().min(self.ws.min_capacity())
    }
}

/// Telemetry event name of every transient step's solve.
const TRANSIENT_SOLVE_EVENT: &str = "thermal.transient_cg";

/// A prepared backward-Euler integrator bound to one [`ThermalModel`] and
/// a fixed step size, solving each step by Jacobi-preconditioned CG
/// warm-started from the previous step's temperatures.
///
/// The system `G + C/Δt` (a matrix-free [`ThermalOperator`]; no matrix
/// is assembled), its Jacobi preconditioner, the CG workspace, and the
/// right-hand-side buffer are all built once here, so
/// [`TransientStepper::step`] performs no heap allocation — the inner
/// loop of every simulation run. The stepper is the same under every
/// [`ThermalConfig::solver`] backend; the backend governs steady solves
/// only.
#[derive(Debug, Clone)]
pub struct TransientStepper<'m> {
    model: &'m ThermalModel,
    dt: Seconds,
    /// `G + C/Δt` as a stencil: no matrix is assembled or stored.
    system: ThermalOperator,
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
        let stats = solve_cg(
            &self.system,
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

    /// The system `G + C/Δt` this stepper solves each step.
    pub fn operator(&self) -> &ThermalOperator {
        &self.system
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
    use simkit::linalg::{LdltFactor, LdltWorkspace};
    use simkit::units::Watts;

    /// `watts` on every block of `chip`.
    fn uniform<'m>(chip: &Floorplan, model: &'m ThermalModel, watts: f64) -> PowerMap<'m> {
        let mut power = PowerMap::new(model);
        for block in chip.blocks() {
            power.add_block(block.id(), Watts::new(watts)).unwrap();
        }
        power
    }

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
        let power = uniform(&chip, &model, 1.0);
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
        let power = uniform(&chip, &model, 1.0);
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
        model.steady_state(&power).unwrap();
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
        let factor = LdltFactor::new(&model.backward_euler_matrix(dt)).unwrap();
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
    fn stencil_stepper_matches_csr_cg_stepper() {
        // The stepper's matrix-free system against CG over the assembled
        // CSR `G + C/Δt`, with the same preconditioner, tolerance and
        // right-hand side, on degenerate and production-sized grids.
        let chip = power8_like();
        let dt = Seconds::from_micros(20.0);
        for (nx, ny) in [(1, 1), (1, 7), (32, 32), (128, 128)] {
            let model = ThermalModel::new(
                &chip,
                ThermalConfig {
                    nx,
                    ny,
                    ..ThermalConfig::coarse()
                },
            );
            let mut power = PowerMap::new(&model);
            for (i, block) in chip.blocks().iter().enumerate() {
                power
                    .add_block(block.id(), Watts::new(0.5 + (i % 5) as f64 * 0.6))
                    .unwrap();
            }
            let csr = model.backward_euler_matrix(dt);
            let pre = JacobiPreconditioner::new(&csr).unwrap();
            let mut ws = CgWorkspace::new();
            let n = model.node_count();
            let mut rhs = vec![0.0; n];
            let mut reference = model.ambient_state();
            let mut stepper = model.stepper(dt);
            let mut state = model.ambient_state();
            for _ in 0..200 {
                model.rhs_into(&power, &mut rhs);
                for ((r, &c), &t) in rhs.iter_mut().zip(&model.capacitance).zip(reference.raw()) {
                    *r += c * (1.0 / dt.get()) * t;
                }
                solve_cg(
                    &csr,
                    &rhs,
                    reference.raw_mut(),
                    &pre,
                    &mut ws,
                    1e-13,
                    10 * n,
                )
                .unwrap();
                stepper.step(&mut state, &power).unwrap();
            }
            let gap = reference.max_abs_difference(&state);
            assert!(gap <= 1e-9, "{nx}x{ny}: stencil vs CSR stepper {gap:e} °C");
            assert!(state.max_silicon().get() > model.ambient().get());
        }
    }

    /// The steady solve events a recorder has seen: `(site, factor_s)`.
    fn steady_events(sink: &simkit::telemetry::MemorySink) -> Vec<(String, f64)> {
        use simkit::telemetry::analyze::EventView;
        let events = sink.events().into_iter();
        let steady = events.filter(|e| e.name.starts_with("thermal.steady_"));
        steady
            .map(|e| (e.name.to_string(), e.num("factor_s").unwrap()))
            .collect()
    }

    #[test]
    fn steady_mgcg_matches_cg_and_caches_the_hierarchy() {
        let chip = power8_like();
        let config = ThermalConfig {
            solver: SolverBackend::Mgcg,
            ..ThermalConfig::coarse()
        };
        let mut model = ThermalModel::new(&chip, config);
        let (tel, sink) = Telemetry::recorder();
        model.set_telemetry(tel);
        let power = uniform(&chip, &model, 1.5);
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
        let events = steady_events(&sink);
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|(site, _)| site == "thermal.steady_mgcg"));
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
    fn one_model_builds_its_steady_solver_once() {
        // Each `steady_state` call brings a fresh scratch; the hierarchy
        // or factor lives with the model, so only the first call builds it.
        let (chip, cg_model) = setup();
        for backend in [SolverBackend::Mgcg, SolverBackend::Direct] {
            let config = ThermalConfig {
                solver: backend,
                ..ThermalConfig::coarse()
            };
            let mut model = ThermalModel::new(&chip, config);
            let (tel, sink) = Telemetry::recorder();
            model.set_telemetry(tel);
            let power = uniform(&chip, &model, 1.0);
            let first = model.steady_state(&power).unwrap();
            let second = model.steady_state(&power).unwrap();
            assert_eq!(first.max_abs_difference(&second), 0.0);
            let reference = cg_model.steady_state(&power).unwrap();
            assert!(reference.max_abs_difference(&first) < 1e-5, "{backend}");
            let events = steady_events(&sink);
            let site = STEADY_SITES.of(backend);
            assert!(events.len() == 2 && events.iter().all(|e| e.0 == site));
            let built = events.iter().filter(|&&(_, factor_s)| factor_s > 0.0);
            assert_eq!(built.count(), 1, "{events:?}");
            assert!(events[0].1 > 0.0, "{events:?}");
        }
    }

    #[test]
    fn auto_selects_mgcg_only_past_the_grid_size_crossover() {
        let chip = power8_like();
        let solve_sites = |config: ThermalConfig| {
            let mut model = ThermalModel::new(&chip, config);
            let (tel, sink) = Telemetry::recorder();
            model.set_telemetry(tel);
            let power = uniform(&chip, &model, 1.0);
            let mut scratch = SteadyScratch::new();
            let mut state = model.ambient_state();
            for _ in 0..3 {
                model
                    .steady_state_with_scratch(&power, &mut state, &mut scratch)
                    .unwrap();
            }
            let sites: Vec<String> = steady_events(&sink).into_iter().map(|e| e.0).collect();
            (model.node_count(), sites)
        };
        // The coarse test grid sits far below the crossover: Auto takes
        // Jacobi-CG there …
        let (nodes, sites) = solve_sites(ThermalConfig::coarse());
        assert!(nodes < MGCG_MIN_NODES);
        assert_eq!(sites, vec!["thermal.steady_cg"; 3]);
        // … while a grid past it takes multigrid from the first solve,
        // and never a direct factor. Solve on a small-but-past-crossover
        // grid to keep the test fast.
        let side = ((MGCG_MIN_NODES / 2) as f64).sqrt() as usize + 1;
        let (nodes, sites) = solve_sites(ThermalConfig {
            nx: side,
            ny: side,
            solver: SolverBackend::Auto,
            ..ThermalConfig::standard()
        });
        assert!(nodes >= MGCG_MIN_NODES);
        assert_eq!(sites, vec!["thermal.steady_mgcg"; 3], "Auto skipped mgcg");
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
        let power = uniform(&chip, &model, 1.5);
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
        let power = uniform(&chip, &model, 2.0);
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
        let power = uniform(&chip, &model, 1.0);
        let cold = model.steady_state(&power).unwrap();
        // Warm start from a very different state (a previous hot solve).
        let hot_power = uniform(&chip, &model, 4.0);
        let mut state = model.steady_state(&hot_power).unwrap();
        let mut scratch = SteadyScratch::new();
        model
            .steady_state_with_scratch(&power, &mut state, &mut scratch)
            .unwrap();
        assert!(cold.max_abs_difference(&state) < 1e-5);
    }
}
