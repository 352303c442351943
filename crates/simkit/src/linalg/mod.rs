//! Sparse linear algebra for the thermal RC network and PDN solvers.
//!
//! The thermal model discretises the die into a grid whose conductance
//! matrix is sparse, symmetric, and positive definite; the PDN's grid
//! conductance matrix has the same structure. [`CsrMatrix::solve_cg`] —
//! conjugate gradient with Jacobi preconditioning — covers both, for
//! steady-state solves and for backward-Euler transient steps warm-started
//! from the previous step.
//!
//! For hot loops that must not allocate, the one CG, [`solve_cg`],
//! takes a [`CgWorkspace`] and a pre-built preconditioner. Build them once
//! per matrix, then solve thousands of times with zero heap traffic. It is
//! generic over a [`LinearOperator`] as well as the preconditioner: a CSR
//! matrix is one operator, and a matrix-free stencil that never stores its
//! matrix (the thermal grid's) is another.
//!
//! For systems that are solved many times with a fixed sparsity pattern
//! (per-domain PDN IR drop), the [`direct`] submodule adds a
//! dependency-free sparse
//! LDLᵀ factorization ([`LdltFactor`]) with a fill-reducing minimum-degree
//! ordering, a values-only [`LdltFactor::refactor`] fast path, and
//! allocation-free triangular solves. For grids one to two orders of
//! magnitude finer — where Jacobi-CG iteration counts grow with the grid
//! diameter and LDLᵀ fill-in grows superlinearly — the [`multigrid`]
//! submodule adds a geometric multigrid V-cycle preconditioner
//! ([`MultigridPreconditioner`]) whose iteration counts are essentially
//! grid-size independent; CG is generic over the [`Preconditioner`]
//! trait, so both preconditioners share one solver. [`SolverBackend`]
//! names the solver families so higher layers (thermal, PDN, engine
//! configs) can select one or leave it to each call site's `Auto` rule,
//! and [`SpdSolver`] is the one type that builds, refreshes and applies
//! whichever family a call site resolved to.

pub mod direct;
pub mod multigrid;
mod spd;

pub use direct::{LdltFactor, LdltWorkspace, SolverBackend};
pub use multigrid::{GridGeometry, MultigridPreconditioner};
pub use spd::{SolveSites, SpdSolver, SpdWorkspace};

use crate::error::{Error, Result};

/// Convergence statistics of one iterative solve.
///
/// Every solver in this module returns one of these on success, and the
/// failure paths embed the same numbers in [`Error::NonConverged`] — no
/// more `NaN` placeholders. `residual` is the **relative** residual
/// `‖b − A·x‖₂ / ‖b‖₂` at exit, so values are comparable across solves
/// of different scales.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Iterations performed (one for a direct solve).
    pub iterations: usize,
    /// Relative residual `‖b − A·x‖₂ / ‖b‖₂` at exit.
    pub residual: f64,
}

/// Dense vector helpers used by the solvers.
pub mod vec_ops {
    /// Dot product, summed in four independent lanes (see `LANES`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when lengths differ.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let mut lanes = super::Lanes::default();
        let mut ac = a.chunks_exact(super::LANES);
        let mut bc = b.chunks_exact(super::LANES);
        for (a, b) in ac.by_ref().zip(bc.by_ref()) {
            for k in 0..super::LANES {
                lanes.0[k] += a[k] * b[k];
            }
        }
        let tail: f64 = ac
            .remainder()
            .iter()
            .zip(bc.remainder())
            .map(|(x, y)| x * y)
            .sum();
        lanes.sum() + tail
    }

    /// Sum of the entries, in four independent lanes (see `LANES`).
    pub fn sum(a: &[f64]) -> f64 {
        let mut lanes = super::Lanes::default();
        let mut chunks = a.chunks_exact(super::LANES);
        for c in chunks.by_ref() {
            for (lane, v) in lanes.0.iter_mut().zip(c) {
                *lane += v;
            }
        }
        lanes.sum() + chunks.remainder().iter().sum::<f64>()
    }

    /// Maximum absolute difference between two vectors.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when lengths differ.
    pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }
}

/// Builder that accumulates `(row, col, value)` triplets; duplicate
/// coordinates are summed, which makes assembling finite-difference
/// stencils convenient.
///
/// # Examples
///
/// ```
/// use simkit::linalg::TripletBuilder;
///
/// let mut b = TripletBuilder::new(2, 2);
/// b.add(0, 0, 2.0);
/// b.add(0, 0, 1.0); // accumulates to 3.0
/// b.add(1, 1, 4.0);
/// let m = b.build();
/// assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for an `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`; repeated coordinates accumulate.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "triplet out of bounds");
        self.entries.push((row, col, value));
    }

    /// Assembles the CSR matrix.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);
        let mut current_row = 0;
        // After sorting, duplicates are adjacent: an entry merges into its
        // predecessor exactly when both share the same (row, col). Tracking
        // that coordinate directly is the whole invariant — no need to
        // reverse-engineer it from row_ptr/col_idx state.
        let mut last_coord = None;
        for (r, c, v) in self.entries {
            if last_coord == Some((r, c)) {
                *values.last_mut().expect("duplicate follows an entry") += v;
                continue;
            }
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            col_idx.push(c);
            values.push(v);
            last_coord = Some((r, c));
        }
        while current_row < self.rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 1.0);
        }
        b.build()
    }

    /// Value at `(row, col)`; zero when the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let range = self.row_ptr[row]..self.row_ptr[row + 1];
        for k in range {
            if self.col_idx[k] == col {
                return self.values[k];
            }
        }
        0.0
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(Error::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        Ok(y)
    }

    /// Matrix-vector product writing into a caller-provided buffer
    /// (avoids allocation inside solver loops).
    ///
    /// Each row's gather runs in four independent accumulator lanes
    /// (4-wide blocking over the row's entries) so the autovectorizer can
    /// keep the multiply-adds in SIMD registers instead of serialising
    /// them through one scalar dependency chain; the remainder entries
    /// (< 4) fall back to a scalar tail. Summation order therefore
    /// differs from the naive loop by round-off only.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when dimensions do not match.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(y.len(), self.rows);
        for (row, out) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[row];
            let hi = self.row_ptr[row + 1];
            let vals = &self.values[lo..hi];
            let cols = &self.col_idx[lo..hi];
            let mut vc = vals.chunks_exact(4);
            let mut cc = cols.chunks_exact(4);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for (v, c) in vc.by_ref().zip(cc.by_ref()) {
                a0 += v[0] * x[c[0]];
                a1 += v[1] * x[c[1]];
                a2 += v[2] * x[c[2]];
                a3 += v[3] * x[c[3]];
            }
            let mut acc = (a0 + a2) + (a1 + a3);
            for (v, &c) in vc.remainder().iter().zip(cc.remainder()) {
                acc += v * x[c];
            }
            *out = acc;
        }
    }

    /// Matrix product `self · other`, assembled row-by-row with a dense
    /// accumulator (classic CSR SpGEMM). Used to form the Galerkin coarse
    /// operators `R·A·P` of the [`multigrid`] hierarchy; exact zeros that
    /// arise from cancellation are kept so the product's pattern is
    /// reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `self.cols != other.rows`.
    pub fn multiply(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.cols != other.rows {
            return Err(Error::DimensionMismatch {
                expected: self.cols,
                actual: other.rows,
            });
        }
        let m = other.cols;
        let mut acc = vec![0.0f64; m];
        // Per-row membership marker: `mark[col] == row` iff `col` is
        // already in `touched` for the current row. O(1) insert test.
        let mut mark = vec![usize::MAX; m];
        let mut touched: Vec<usize> = Vec::new();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in 0..self.rows {
            touched.clear();
            for ka in self.row_ptr[row]..self.row_ptr[row + 1] {
                let a = self.values[ka];
                let mid = self.col_idx[ka];
                for kb in other.row_ptr[mid]..other.row_ptr[mid + 1] {
                    let col = other.col_idx[kb];
                    if mark[col] != row {
                        mark[col] = row;
                        touched.push(col);
                    }
                    acc[col] += a * other.values[kb];
                }
            }
            touched.sort_unstable();
            for &col in &touched {
                col_idx.push(col);
                values.push(acc[col]);
                acc[col] = 0.0;
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            rows: self.rows,
            cols: m,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// The transpose, as a new CSR matrix (one counting pass plus one
    /// scatter pass; entries stay sorted per row).
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for row in 0..self.rows {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                let c = self.col_idx[k];
                col_idx[cursor[c]] = row;
                values[cursor[c]] = self.values[k];
                cursor[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Iterates the stored `(column, value)` entries of one row.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.rows, "row out of bounds");
        let range = self.row_ptr[row]..self.row_ptr[row + 1];
        range.map(move |k| (self.col_idx[k], self.values[k]))
    }

    /// Iterates every stored `(row, column, value)` entry.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows)
            .flat_map(move |row| self.row_entries(row).map(move |(col, val)| (row, col, val)))
    }

    /// Extracts the diagonal in one pass over the stored entries (no
    /// per-row `get` scan).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        let mut diag = vec![0.0; n];
        for (i, d) in diag.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    *d = self.values[k];
                    break;
                }
            }
        }
        diag
    }

    /// Index into [`CsrMatrix::values`] of each diagonal entry, computed
    /// in one pass; `None` where the pattern stores no diagonal.
    ///
    /// Callers that repeatedly need the diagonal of a matrix whose values
    /// change but whose pattern is fixed (the Jacobi preconditioner, the
    /// LDLᵀ pivot check) cache these indices once and gather in O(n)
    /// afterwards.
    pub fn diag_indices(&self) -> Vec<Option<usize>> {
        let n = self.rows.min(self.cols);
        let mut idx = vec![None; n];
        for (i, slot) in idx.iter_mut().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                if self.col_idx[k] == i {
                    *slot = Some(k);
                    break;
                }
            }
        }
        idx
    }

    /// Whether `cached` are valid diagonal entry indices for this matrix:
    /// `cached[i]` must point at a stored entry `(i, i)`. O(n).
    fn diag_indices_valid(&self, cached: &[usize]) -> bool {
        let n = self.rows.min(self.cols);
        cached.len() == n
            && cached.iter().enumerate().all(|(i, &k)| {
                k >= self.row_ptr[i] && k < self.row_ptr[i + 1] && self.col_idx[k] == i
            })
    }

    /// The stored values, in row-major CSR order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (the sparsity pattern is fixed).
    ///
    /// Callers that cache an assembled matrix and patch a few entries per
    /// solve (e.g. the PDN's per-configuration regulator conductances) use
    /// this together with [`CsrMatrix::entry_index`] to avoid re-assembly.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Index into [`CsrMatrix::values`] of the stored entry at
    /// `(row, col)`, or `None` when the pattern has no such entry.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    pub fn entry_index(&self, row: usize, col: usize) -> Option<usize> {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        (self.row_ptr[row]..self.row_ptr[row + 1]).find(|&k| self.col_idx[k] == col)
    }

    /// Solves `A·x = b` by preconditioned conjugate gradient. `A` must be
    /// symmetric positive definite (true for grid conductance matrices with
    /// a grounding/ambient connection on every diagonal).
    ///
    /// `x0` seeds the iteration when provided.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] — `b` length differs from `rows`;
    /// * [`Error::SingularMatrix`] — a zero diagonal entry defeats the
    ///   Jacobi preconditioner;
    /// * [`Error::NonConverged`] — tolerance not met in `max_iter`.
    pub fn solve_cg(
        &self,
        b: &[f64],
        x0: Option<&[f64]>,
        tolerance: f64,
        max_iter: usize,
    ) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(Error::DimensionMismatch {
                expected: self.rows,
                actual: b.len(),
            });
        }
        let pre = JacobiPreconditioner::new(self)?;
        let mut ws = CgWorkspace::new();
        let mut x = match x0 {
            Some(seed) if seed.len() == self.rows => seed.to_vec(),
            _ => vec![0.0; self.rows],
        };
        solve_cg(self, b, &mut x, &pre, &mut ws, tolerance, max_iter)?;
        Ok(x)
    }

    /// Relative residual `‖b − A·x‖₂ / ‖b‖₂` of a candidate solution,
    /// computed in one pass over the matrix with no allocation (scalar
    /// accumulators only) — about the cost of one SpMV, cheap enough to
    /// report after every direct solve.
    pub fn relative_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        debug_assert_eq!(b.len(), self.rows);
        debug_assert_eq!(x.len(), self.rows);
        let mut num_sq = 0.0;
        let mut den_sq = 0.0;
        for (row, &b_row) in b.iter().enumerate().take(self.rows) {
            let mut ax = 0.0;
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                ax += self.values[k] * x[self.col_idx[k]];
            }
            let r = b_row - ax;
            num_sq += r * r;
            den_sq += b_row * b_row;
        }
        num_sq.sqrt() / den_sq.sqrt().max(f64::MIN_POSITIVE)
    }
}

/// A symmetric-positive-definite preconditioner `M ≈ A` applied as
/// `z ← M⁻¹·r` inside [`solve_cg`].
///
/// CG is generic over this trait: [`JacobiPreconditioner`] (diagonal
/// scaling) and [`multigrid::MultigridPreconditioner`] (one geometric
/// V-cycle) both implement it, so every CG call site picks its
/// preconditioner without touching the solver. Implementations must be
/// linear, symmetric, and positive definite in exact arithmetic or CG's
/// convergence theory (and in practice its monotone residual) breaks.
pub trait Preconditioner {
    /// Dimension of the system the preconditioner was built for.
    fn dim(&self) -> usize;

    /// `z ← M⁻¹·r`.
    ///
    /// # Panics
    ///
    /// May panic (at least in debug builds) when `r` or `z` length
    /// differs from [`Preconditioner::dim`].
    fn apply_into(&self, r: &[f64], z: &mut [f64]);

    /// `z ← M⁻¹·r`, returning `rᵀz`. The default applies and then takes
    /// the dot product; a preconditioner that can produce `rᵀz` in the
    /// same pass (Jacobi) overrides it, saving CG one sweep per
    /// iteration.
    fn apply_dot(&self, r: &[f64], z: &mut [f64]) -> f64 {
        self.apply_into(r, z);
        vec_ops::dot(r, z)
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.inv_diag.len());
        debug_assert_eq!(z.len(), self.inv_diag.len());
        for ((z, r), d) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *z = r * d;
        }
    }

    fn apply_dot(&self, r: &[f64], z: &mut [f64]) -> f64 {
        debug_assert_eq!(r.len(), self.inv_diag.len());
        debug_assert_eq!(z.len(), self.inv_diag.len());
        let mut lanes = Lanes::default();
        let mut rc = r.chunks_exact(LANES);
        let mut dc = self.inv_diag.chunks_exact(LANES);
        let mut zc = z.chunks_exact_mut(LANES);
        for ((r, d), z) in rc.by_ref().zip(dc.by_ref()).zip(zc.by_ref()) {
            for k in 0..LANES {
                z[k] = r[k] * d[k];
                lanes.0[k] += r[k] * z[k];
            }
        }
        let mut tail = 0.0;
        for ((r, d), z) in rc
            .remainder()
            .iter()
            .zip(dc.remainder())
            .zip(zc.into_remainder())
        {
            *z = r * d;
            tail += r * *z;
        }
        lanes.sum() + tail
    }
}

/// A square linear operator `y ← A·x`: what [`solve_cg`] needs of its
/// system. [`CsrMatrix`] implements it by SpMV; a matrix-free stencil
/// (the thermal grid's) implements it without storing `A` at all.
/// Implementations used with CG must be symmetric positive definite.
pub trait LinearOperator {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// `y ← A·x`.
    ///
    /// # Panics
    ///
    /// May panic (at least in debug builds) when `x` or `y` length
    /// differs from [`LinearOperator::dim`].
    fn apply_into(&self, x: &[f64], y: &mut [f64]);

    /// Relative residual `‖b − A·x‖₂ / ‖b‖₂` of a candidate solution:
    /// what a direct solve reports. The default applies the operator
    /// into a fresh buffer; [`CsrMatrix`] overrides it with its one-pass,
    /// allocation-free [`CsrMatrix::relative_residual`].
    fn relative_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; self.dim()];
        self.apply_into(x, &mut r);
        let (rr, bb) = residual_and_norms(b, &mut r);
        rr.sqrt() / bb.sqrt().max(f64::MIN_POSITIVE)
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.rows
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.mul_vec_into(x, y);
    }

    fn relative_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        CsrMatrix::relative_residual(self, b, x)
    }
}

/// Width of the multi-lane accumulators in the CG reductions: four
/// independent partial sums break the serial add chain so the
/// autovectorizer can keep them in SIMD registers. Summation order (and
/// so the last bits of a reduction) differs from a serial loop.
const LANES: usize = 4;

#[derive(Default)]
struct Lanes([f64; LANES]);

impl Lanes {
    fn sum(&self) -> f64 {
        (self.0[0] + self.0[2]) + (self.0[1] + self.0[3])
    }
}

/// `r ← b − r` (where `r` holds `A·x` on entry), returning `(‖r‖², ‖b‖²)`.
fn residual_and_norms(b: &[f64], r: &mut [f64]) -> (f64, f64) {
    let (mut rr, mut bb) = (Lanes::default(), Lanes::default());
    let mut bc = b.chunks_exact(LANES);
    let mut rc = r.chunks_exact_mut(LANES);
    for (b, r) in bc.by_ref().zip(rc.by_ref()) {
        for k in 0..LANES {
            r[k] = b[k] - r[k];
            rr.0[k] += r[k] * r[k];
            bb.0[k] += b[k] * b[k];
        }
    }
    let (mut rr_tail, mut bb_tail) = (0.0, 0.0);
    for (b, r) in bc.remainder().iter().zip(rc.into_remainder()) {
        *r = b - *r;
        rr_tail += *r * *r;
        bb_tail += b * b;
    }
    (rr.sum() + rr_tail, bb.sum() + bb_tail)
}

/// `x ← x + α·p` and `r ← r − α·Ap` in one pass, returning `‖r‖²`.
fn update_and_norm(alpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let mut rr = Lanes::default();
    let mut pc = p.chunks_exact(LANES);
    let mut apc = ap.chunks_exact(LANES);
    let mut xc = x.chunks_exact_mut(LANES);
    let mut rc = r.chunks_exact_mut(LANES);
    for (((p, ap), x), r) in pc
        .by_ref()
        .zip(apc.by_ref())
        .zip(xc.by_ref())
        .zip(rc.by_ref())
    {
        for k in 0..LANES {
            x[k] += alpha * p[k];
            r[k] -= alpha * ap[k];
            rr.0[k] += r[k] * r[k];
        }
    }
    let mut tail = 0.0;
    for (((p, ap), x), r) in pc
        .remainder()
        .iter()
        .zip(apc.remainder())
        .zip(xc.into_remainder())
        .zip(rc.into_remainder())
    {
        *x += alpha * p;
        *r -= alpha * ap;
        tail += *r * *r;
    }
    rr.sum() + tail
}

/// Preconditioned conjugate gradient on any [`LinearOperator`] — the one
/// CG of this crate.
/// `x` carries the initial guess in and the solution out; every scratch
/// vector lives in `ws`, so a warmed-up solve does not allocate.
///
/// Stops when the relative residual `‖b − A·x‖₂ / ‖b‖₂` reaches
/// `tolerance` (checked before the first iteration, so an exact warm
/// start returns after zero iterations). Per iteration it makes one
/// operator application and four vector passes: `pᵀAp`; the fused
/// `x += αp`, `r −= αAp`, `‖r‖²`; the fused `z = M⁻¹r`, `rᵀz`; and
/// `p = z + βp`.
///
/// # Errors
///
/// * [`Error::DimensionMismatch`] — `b`, `x`, or the preconditioner
///   does not match the operator's dimension;
/// * [`Error::NonConverged`] — tolerance not met in `max_iter`, or a
///   vanishing `pᵀAp` (the operator is not positive definite).
pub fn solve_cg<A, P>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    pre: &P,
    ws: &mut CgWorkspace,
    tolerance: f64,
    max_iter: usize,
) -> Result<SolveStats>
where
    A: LinearOperator + ?Sized,
    P: Preconditioner + ?Sized,
{
    let n = a.dim();
    for len in [b.len(), x.len(), pre.dim()] {
        if len != n {
            return Err(Error::DimensionMismatch {
                expected: n,
                actual: len,
            });
        }
    }
    ws.ensure(n);
    let CgWorkspace { r, z, p, ap } = ws;
    a.apply_into(x, r);
    let (rr, bb) = residual_and_norms(b, r);
    let b_norm = bb.sqrt().max(f64::MIN_POSITIVE);
    let mut rel = rr.sqrt() / b_norm;
    if rel <= tolerance {
        return Ok(SolveStats {
            iterations: 0,
            residual: rel,
        });
    }
    let mut rz = pre.apply_dot(r, z);
    p.copy_from_slice(z);
    for iteration in 0..max_iter {
        a.apply_into(p, ap);
        let denom = vec_ops::dot(p, ap);
        if denom.abs() < f64::MIN_POSITIVE {
            return Err(Error::NonConverged {
                iterations: iteration,
                residual: rel,
            });
        }
        let alpha = rz / denom;
        rel = update_and_norm(alpha, p, ap, x, r).sqrt() / b_norm;
        if rel <= tolerance {
            return Ok(SolveStats {
                iterations: iteration + 1,
                residual: rel,
            });
        }
        let rz_new = pre.apply_dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (p, z) in p.iter_mut().zip(z.iter()) {
            *p = z + beta * *p;
        }
    }
    Err(Error::NonConverged {
        iterations: max_iter,
        residual: rel,
    })
}

/// Inverse diagonal of a matrix, computed once and applied per CG
/// iteration — the Jacobi preconditioner `M⁻¹ = diag(A)⁻¹`.
///
/// `Default` gives an empty (zero-dimensional) preconditioner, useful as
/// a scratch slot that is [`update`](JacobiPreconditioner::update)d before
/// each solve when the matrix values change between calls.
#[derive(Debug, Clone, Default)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
    /// Cached indices into the matrix value array of the diagonal
    /// entries, so repeated [`update`](JacobiPreconditioner::update)s
    /// against a fixed-pattern matrix gather in O(n) instead of
    /// re-scanning every row.
    diag_idx: Vec<usize>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the matrix diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] on a zero diagonal entry.
    pub fn new(matrix: &CsrMatrix) -> Result<Self> {
        let mut pre = JacobiPreconditioner::default();
        pre.update(matrix)?;
        Ok(pre)
    }

    /// Builds the preconditioner from an explicit diagonal — for
    /// matrix-free operators, which store their diagonal but no matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] on a zero entry.
    pub fn from_diagonal(diag: &[f64]) -> Result<Self> {
        let inv_diag = diag
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                if d == 0.0 {
                    Err(Error::SingularMatrix { index: i })
                } else {
                    Ok(1.0 / d)
                }
            })
            .collect::<Result<_>>()?;
        Ok(JacobiPreconditioner {
            inv_diag,
            diag_idx: Vec::new(),
        })
    }

    /// Recomputes the inverse diagonal from `matrix`, reusing the buffer
    /// (no allocation once sized). The first call against a pattern scans
    /// the rows once to cache the diagonal entry indices; later calls
    /// against the same pattern (the common case: a cached matrix whose
    /// values are patched between solves) validate the cache and gather
    /// in O(n).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] on a missing or zero diagonal
    /// entry.
    pub fn update(&mut self, matrix: &CsrMatrix) -> Result<()> {
        let n = matrix.rows().min(matrix.cols());
        if !matrix.diag_indices_valid(&self.diag_idx) {
            self.diag_idx.clear();
            self.diag_idx.reserve(n);
            for (i, slot) in matrix.diag_indices().into_iter().enumerate() {
                match slot {
                    Some(k) => self.diag_idx.push(k),
                    None => return Err(Error::SingularMatrix { index: i }),
                }
            }
        }
        self.inv_diag.resize(n, 0.0);
        for i in 0..n {
            let d = matrix.values[self.diag_idx[i]];
            if d == 0.0 {
                return Err(Error::SingularMatrix { index: i });
            }
            self.inv_diag[i] = 1.0 / d;
        }
        Ok(())
    }
}

/// Reusable scratch vectors for [`solve_cg`]. Grown on
/// first use and never shrunk, so a workspace threaded through a solve
/// loop allocates only once.
#[derive(Debug, Clone, Default)]
pub struct CgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl CgWorkspace {
    /// An empty workspace; buffers are sized on first solve.
    pub fn new() -> Self {
        CgWorkspace::default()
    }

    fn ensure(&mut self, n: usize) {
        for buf in [&mut self.r, &mut self.z, &mut self.p, &mut self.ap] {
            buf.resize(n, 0.0);
        }
    }

    /// Smallest capacity across the scratch buffers — stable across
    /// repeated same-size solves, which is how tests pin down the
    /// zero-allocation property.
    pub fn min_capacity(&self) -> usize {
        self.r
            .capacity()
            .min(self.z.capacity())
            .min(self.p.capacity())
            .min(self.ap.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small SPD matrix: tridiagonal [−1, 2.5, −1].
    fn tridiag(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.5);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn triplets_accumulate_duplicates() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 1, 1.5);
        b.add(0, 1, 0.5);
        b.add(1, 0, -1.0);
        let m = b.build();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn identity_mul_is_noop() {
        let m = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(m.mul_vec(&x).unwrap(), x);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = tridiag(3);
        // [2.5 -1 0; -1 2.5 -1; 0 -1 2.5] * [1 2 3] = [0.5, 1.0, 5.5]
        let y = m.mul_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert!((y[0] - 0.5).abs() < 1e-12);
        assert!((y[1] - 1.0).abs() < 1e-12);
        assert!((y[2] - 5.5).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_rejects_wrong_length() {
        let m = tridiag(3);
        assert!(matches!(
            m.mul_vec(&[1.0]),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn cg_solves_spd_system() {
        let n = 50;
        let m = tridiag(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = m.mul_vec(&x_true).unwrap();
        let x = m.solve_cg(&b, None, 1e-12, 1000).unwrap();
        assert!(vec_ops::max_abs_diff(&x, &x_true) < 1e-8);
    }

    #[test]
    fn cg_uses_initial_guess() {
        let n = 30;
        let m = tridiag(n);
        let x_true: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b = m.mul_vec(&x_true).unwrap();
        // Exact initial guess converges immediately.
        let x = m.solve_cg(&b, Some(&x_true), 1e-10, 1).unwrap();
        assert!(vec_ops::max_abs_diff(&x, &x_true) < 1e-9);
    }

    #[test]
    fn cg_detects_zero_diagonal() {
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        // Row 1 has no diagonal entry.
        b.add(1, 0, 1.0);
        let m = b.build();
        assert!(matches!(
            m.solve_cg(&[1.0, 1.0], None, 1e-10, 10),
            Err(Error::SingularMatrix { index: 1 })
        ));
    }

    #[test]
    fn cg_reports_non_convergence() {
        let m = tridiag(100);
        let b = vec![1.0; 100];
        let err = m.solve_cg(&b, None, 1e-15, 1).unwrap_err();
        assert!(matches!(err, Error::NonConverged { .. }));
    }

    #[test]
    fn relative_residual_matches_definition() {
        let n = 10;
        let m = tridiag(n);
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        let b = vec![1.0; n];
        let ax = m.mul_vec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
        let expected = (vec_ops::dot(&r, &r) / vec_ops::dot(&b, &b)).sqrt();
        assert!((m.relative_residual(&b, &x) - expected).abs() < 1e-14);
        // An exact solution has (near-)zero residual.
        let exact = m.solve_cg(&b, None, 1e-14, 1000).unwrap();
        assert!(m.relative_residual(&b, &exact) < 1e-12);
    }

    #[test]
    fn vec_ops_behave() {
        assert_eq!(vec_ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        // Five entries: one full lane block plus a remainder.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(vec_ops::dot(&v, &v), 55.0);
        assert_eq!(vec_ops::sum(&v), 15.0);
        assert_eq!(vec_ops::max_abs_diff(&[1.0, 5.0], &[2.0, 3.0]), 2.0);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut b = TripletBuilder::new(3, 3);
        b.add(0, 0, 1.0);
        b.add(2, 2, 1.0);
        let m = b.build();
        let y = m.mul_vec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }

    /// Property test for the satellite audit of `TripletBuilder::build`:
    /// random matrices with many duplicate coordinates (including runs
    /// that straddle row boundaries) must match a dense reference that
    /// accumulates the same triplets.
    #[test]
    fn triplet_assembly_matches_dense_reference() {
        let mut rng = crate::DeterministicRng::new(0xB001);
        for case in 0..64 {
            let rows = 1 + rng.uniform_usize(8);
            let cols = 1 + rng.uniform_usize(8);
            let n_triplets = rng.uniform_usize(40);
            let mut dense = vec![vec![0.0f64; cols]; rows];
            let mut b = TripletBuilder::new(rows, cols);
            for _ in 0..n_triplets {
                let r = rng.uniform_usize(rows);
                let c = rng.uniform_usize(cols);
                let v = rng.uniform_range(-2.0, 2.0);
                // Half the time, add the same coordinate again to force
                // duplicate accumulation.
                let repeats = 1 + rng.uniform_usize(3);
                for _ in 0..repeats {
                    dense[r][c] += v;
                    b.add(r, c, v);
                }
            }
            let m = b.build();
            for (r, dense_row) in dense.iter().enumerate() {
                for (c, &want) in dense_row.iter().enumerate() {
                    let got = m.get(r, c);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "case {case}: ({r},{c}) got {got}, want {want}"
                    );
                }
            }
            // No duplicate coordinates may survive assembly.
            for r in 0..rows {
                let cols_of_row: Vec<usize> = m.row_entries(r).map(|(c, _)| c).collect();
                let mut sorted = cols_of_row.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(
                    sorted.len(),
                    cols_of_row.len(),
                    "case {case}: row {r} has dups"
                );
            }
        }
    }

    #[test]
    fn duplicates_at_row_boundaries_do_not_merge_across_rows() {
        // Same column, adjacent rows, added back-to-back: the old code's
        // `row_ptr[r] < col_idx.len()` guard existed exactly for this.
        let mut b = TripletBuilder::new(3, 3);
        b.add(0, 2, 1.0);
        b.add(1, 2, 10.0);
        b.add(1, 2, 10.0);
        b.add(2, 2, 100.0);
        let m = b.build();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 2), 20.0);
        assert_eq!(m.get(2, 2), 100.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn entry_index_round_trips_with_values_mut() {
        let mut m = tridiag(4);
        let k = m.entry_index(2, 1).unwrap();
        assert_eq!(m.values()[k], -1.0);
        m.values_mut()[k] = -3.0;
        assert_eq!(m.get(2, 1), -3.0);
        assert_eq!(m.entry_index(0, 3), None);
    }

    #[test]
    fn workspace_cg_matches_allocating_cg() {
        let n = 50;
        let m = tridiag(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = m.mul_vec(&x_true).unwrap();
        let baseline = m.solve_cg(&b, None, 1e-13, 1000).unwrap();
        let pre = JacobiPreconditioner::new(&m).unwrap();
        let mut ws = CgWorkspace::new();
        let mut x = vec![0.0; n];
        let stats = solve_cg(&m, &b, &mut x, &pre, &mut ws, 1e-13, 1000).unwrap();
        assert!(stats.iterations > 0);
        assert!(stats.residual.is_finite() && stats.residual <= 1e-13);
        assert!(vec_ops::max_abs_diff(&x, &baseline) < 1e-12);
    }

    #[test]
    fn workspace_cg_capacity_is_stable_across_solves() {
        let n = 60;
        let m = tridiag(n);
        let b = vec![1.0; n];
        let pre = JacobiPreconditioner::new(&m).unwrap();
        let mut ws = CgWorkspace::new();
        let mut x = vec![0.0; n];
        solve_cg(&m, &b, &mut x, &pre, &mut ws, 1e-12, 1000).unwrap();
        let cap = ws.min_capacity();
        assert!(cap >= n);
        for _ in 0..10 {
            x.iter_mut().for_each(|v| *v = 0.0);
            solve_cg(&m, &b, &mut x, &pre, &mut ws, 1e-12, 1000).unwrap();
            assert_eq!(ws.min_capacity(), cap);
        }
    }
}
