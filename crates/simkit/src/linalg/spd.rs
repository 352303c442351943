//! One solver for the symmetric positive definite systems of the thermal
//! steady state and the PDN domain grids.

use super::{
    solve_cg, CgWorkspace, CsrMatrix, GridGeometry, JacobiPreconditioner, LdltFactor,
    LdltWorkspace, LinearOperator, MultigridPreconditioner, SolveStats, SolverBackend,
};
use crate::error::{Error, Result};
use std::time::Instant;

/// A built solver for one SPD matrix: Jacobi-CG, multigrid-CG, or a
/// sparse LDLᵀ factor — the three [`SolverBackend`] families behind one
/// type, so a caller builds, refreshes and applies whichever its
/// configuration picks without a dispatch of its own.
///
/// [`build`](SpdSolver::build) it once per matrix. When the values change
/// under the same pattern, [`refresh`](SpdSolver::refresh) keeps what
/// only the pattern decides: the Jacobi diagonal indices, the multigrid
/// transfer operators, the LDLᵀ ordering and symbolic structure. Every
/// method returns its wall-clock seconds, the factor/solve split solve
/// telemetry carries.
///
/// The hierarchy and the factor are boxed: their headers alone are
/// several times the Jacobi variant.
#[derive(Debug, Clone)]
pub enum SpdSolver {
    /// Jacobi-preconditioned CG.
    Cg(JacobiPreconditioner),
    /// CG preconditioned by one geometric multigrid V-cycle.
    Mgcg(Box<MultigridPreconditioner>),
    /// Sparse LDLᵀ factorization.
    Direct(Box<LdltFactor>),
}

impl SpdSolver {
    /// Builds `backend`'s solver for `matrix`, returning it with its
    /// setup seconds. Only the multigrid hierarchy reads `geometry`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] for `Auto`, which the call site
    /// resolves first ([`SolverBackend::resolve`]); else the backend's
    /// setup errors (zero diagonal, non-positive pivot, bad geometry).
    pub fn build(
        backend: SolverBackend,
        matrix: &CsrMatrix,
        geometry: GridGeometry,
    ) -> Result<(Self, f64)> {
        let started = Instant::now();
        let solver = match backend {
            SolverBackend::Cg => SpdSolver::Cg(JacobiPreconditioner::new(matrix)?),
            SolverBackend::Mgcg => {
                SpdSolver::Mgcg(Box::new(MultigridPreconditioner::new(matrix, geometry)?))
            }
            SolverBackend::Direct => SpdSolver::Direct(Box::new(LdltFactor::new(matrix)?)),
            SolverBackend::Auto => {
                return Err(Error::invalid_argument(
                    "resolve the `auto` backend before building a solver",
                ))
            }
        };
        Ok((solver, started.elapsed().as_secs_f64()))
    }

    /// Re-derives the solver from new values of the matrix it was built
    /// from (same sparsity pattern), returning the seconds it took.
    ///
    /// # Errors
    ///
    /// The backend's setup errors, as for [`SpdSolver::build`].
    pub fn refresh(&mut self, matrix: &CsrMatrix) -> Result<f64> {
        let started = Instant::now();
        match self {
            SpdSolver::Cg(pre) => pre.update(matrix)?,
            SpdSolver::Mgcg(mg) => mg.update(matrix)?,
            SpdSolver::Direct(factor) => factor.refactor(matrix)?,
        }
        Ok(started.elapsed().as_secs_f64())
    }

    /// Solves `a·x = b`, where `a` applies the matrix the solver was
    /// built from (that matrix or a matrix-free stencil of it), and
    /// returns the statistics with the solve's seconds. `x` is the warm
    /// start and the solution; CG stops at relative residual `tolerance`
    /// or `max_iter` iterations. A direct solve reports one iteration and
    /// its [`LinearOperator::relative_residual`].
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] or, from CG, [`Error::NonConverged`].
    pub fn solve<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        b: &[f64],
        x: &mut [f64],
        ws: &mut SpdWorkspace,
        tolerance: f64,
        max_iter: usize,
    ) -> Result<(SolveStats, f64)> {
        let started = Instant::now();
        let stats = match self {
            SpdSolver::Cg(pre) => solve_cg(a, b, x, pre, &mut ws.cg, tolerance, max_iter)?,
            SpdSolver::Mgcg(mg) => solve_cg(a, b, x, &**mg, &mut ws.cg, tolerance, max_iter)?,
            SpdSolver::Direct(factor) => {
                factor.solve_into(b, x, &mut ws.ldlt)?;
                SolveStats {
                    iterations: 1,
                    residual: a.relative_residual(b, x),
                }
            }
        };
        Ok((stats, started.elapsed().as_secs_f64()))
    }

    /// The backend this solver runs (never [`SolverBackend::Auto`]).
    pub fn backend(&self) -> SolverBackend {
        match self {
            SpdSolver::Cg(_) => SolverBackend::Cg,
            SpdSolver::Mgcg(_) => SolverBackend::Mgcg,
            SpdSolver::Direct(_) => SolverBackend::Direct,
        }
    }
}

/// The telemetry site names of one family of solves, one per backend,
/// e.g. `thermal.steady_cg`, `thermal.steady_mgcg` and
/// `thermal.steady_direct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveSites {
    /// Site of the Jacobi-CG solves.
    pub cg: &'static str,
    /// Site of the multigrid-CG solves.
    pub mgcg: &'static str,
    /// Site of the direct solves.
    pub direct: &'static str,
}

impl SolveSites {
    /// The site of `backend`'s solves. `Auto` names the direct site, the
    /// backend the PDN resolves it to.
    pub fn of(&self, backend: SolverBackend) -> &'static str {
        match backend {
            SolverBackend::Cg => self.cg,
            SolverBackend::Mgcg => self.mgcg,
            SolverBackend::Auto | SolverBackend::Direct => self.direct,
        }
    }
}

/// The caller-owned scratch of [`SpdSolver::solve`]: the CG vectors and
/// the LDLᵀ work vector, grown on first use and reused, so a warmed-up
/// solve does not allocate.
#[derive(Debug, Clone, Default)]
pub struct SpdWorkspace {
    cg: CgWorkspace,
    ldlt: LdltWorkspace,
}

impl SpdWorkspace {
    /// Smallest capacity across the CG vectors (allocation-stability
    /// probe for tests).
    pub fn min_capacity(&self) -> usize {
        self.cg.min_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::multigrid::tests::grid_laplacian;
    use crate::linalg::vec_ops;

    #[test]
    fn every_backend_builds_solves_and_refreshes() {
        // The thermal shape: two layers and a dense sink row.
        let geometry = GridGeometry::new(20, 14, 2, 1);
        let a = grid_laplacian(geometry, &[1.0, 0.4, 2.5], 0.05);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let mut doubled = a.clone();
        doubled.values_mut().iter_mut().for_each(|v| *v *= 2.0);
        let half: Vec<f64> = x_true.iter().map(|v| v / 2.0).collect();
        for backend in [
            SolverBackend::Cg,
            SolverBackend::Mgcg,
            SolverBackend::Direct,
        ] {
            let (mut solver, _) = SpdSolver::build(backend, &a, geometry).unwrap();
            assert_eq!(solver.backend(), backend);
            let mut ws = SpdWorkspace::default();
            for (matrix, want) in [(&a, &x_true), (&doubled, &half)] {
                if matrix != &a {
                    solver.refresh(matrix).unwrap();
                }
                let mut x = vec![0.0; a.rows()];
                let (stats, _) = solver
                    .solve(matrix, &b, &mut x, &mut ws, 1e-12, 5_000)
                    .unwrap();
                assert!(vec_ops::max_abs_diff(&x, want) < 1e-8, "{backend}");
                assert!(stats.residual <= 1e-11, "{backend}: {}", stats.residual);
            }
        }
        assert!(SpdSolver::build(SolverBackend::Auto, &a, geometry).is_err());
    }
}
