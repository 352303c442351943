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

/// Builder that accumulates `(row, col, value)` triplets in any order;
/// duplicate coordinates are summed. It serves assemblies whose entries
/// do not come in row order (the multigrid prolongation, verification
/// matrices, test references); a stencil that can name each row's
/// entries in column order writes them with [`CsrRowWriter`] instead,
/// and never holds or sorts triplets.
///
/// # Duplicate order
///
/// [`build`](TripletBuilder::build) sums the triplets of one coordinate
/// in the order they were added: the first value, plus the second, plus
/// the third, and so on. Floating-point addition is not associative, so
/// this order is part of the contract: a stencil assembled twice in the
/// same order gives the same bits, whatever the sorting underneath.
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
///
/// // Summed as (1e16 + 1.0) + -1e16, in insertion order: the 1.0 is lost.
/// let mut b = TripletBuilder::new(1, 1);
/// for v in [1e16, 1.0, -1e16] {
///     b.add(0, 0, v);
/// }
/// assert_eq!(b.build().get(0, 0), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    /// `(row, col, value)`, indices as `u32`: 16 bytes a triplet.
    entries: Vec<(u32, u32, f64)>,
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

    /// Adds `value` at `(row, col)`; repeated coordinates accumulate, in
    /// the order they are added.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds, when a dimension is
    /// past `u32::MAX`, or past `u32::MAX` triplets (the matrix stores
    /// its indices as `u32`).
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows
                && col < self.cols
                && self.rows <= MAX_INDEX
                && self.cols <= MAX_INDEX
                && self.entries.len() < MAX_INDEX,
            "triplet out of bounds"
        );
        self.entries.push((row as u32, col as u32, value));
    }

    /// Assembles the CSR matrix: columns ascend within each row, and the
    /// duplicates of a coordinate are summed in insertion order.
    ///
    /// O(n + rows) for n triplets in rows of bounded length (see
    /// [`row_major_order`]); the triplets themselves are never copied or
    /// moved, only a `u32` permutation of them, whose buffer then holds
    /// the column indices.
    pub fn build(self) -> CsrMatrix {
        let TripletBuilder {
            rows,
            cols,
            entries,
        } = self;
        let mut order = row_major_order(rows, &entries);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        // Duplicates are adjacent in `order`, and add into the last value.
        // Entry `values.len()` goes to slot `values.len() <= k` of
        // `order`, whose slots from `k` on are still to be read.
        let mut last = None;
        for k in 0..order.len() {
            let (r, c, v) = entries[order[k] as usize];
            match values.last_mut() {
                Some(sum) if last == Some((r, c)) => *sum += v,
                _ => {
                    while row_ptr.len() <= r as usize {
                        row_ptr.push(values.len() as u32);
                    }
                    last = Some((r, c));
                    order[values.len()] = c;
                    values.push(v);
                }
            }
        }
        while row_ptr.len() <= rows {
            row_ptr.push(values.len() as u32);
        }
        let mut col_idx = order;
        col_idx.truncate(values.len());
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Writes a CSR matrix entry by entry in row-major order: rows in order,
/// and within a row, columns strictly increasing. A fixed stencil (the
/// thermal grid, a PDN domain's sheet) can name each row's entries that
/// way, so its matrix goes straight into the final arrays: no triplets,
/// no sort, and each entry's value is whatever sum the stencil wrote.
///
/// Every [`push`](CsrRowWriter::push) checks the order, so a misordered
/// or out-of-range entry panics while the stencil that wrote it is on
/// the stack, not later as a wrong product or factor. A row that gets no
/// entry stays empty, as under [`TripletBuilder`].
///
/// # Examples
///
/// ```
/// use simkit::linalg::CsrRowWriter;
///
/// // [2 −1; −1 2] over two columns, then an empty third row.
/// let mut w = CsrRowWriter::new(3, 2, 4);
/// w.push(0, 0, 2.0);
/// w.push(0, 1, -1.0);
/// w.push(1, 0, -1.0);
/// let slot = w.push(1, 1, 2.0);
/// let m = w.finish();
/// assert_eq!(m.values()[slot], 2.0);
/// assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![1.0, 1.0, 0.0]);
/// ```
#[derive(Debug)]
pub struct CsrRowWriter {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// The least `row << 32 | col` the next entry may take: one past the
    /// last entry's.
    next: u64,
}

impl CsrRowWriter {
    /// A writer for an `rows × cols` matrix with room for `nnz` entries.
    /// An assembler that reserves its exact count never regrows a buffer,
    /// and its matrix keeps no spare capacity.
    pub fn new(rows: usize, cols: usize, nnz: usize) -> Self {
        // Past `u32`, reserve nothing: the first entry is refused.
        let fits = rows <= MAX_INDEX && cols <= MAX_INDEX && nnz <= MAX_INDEX;
        let room = |n: usize| if fits { n } else { 0 };
        CsrRowWriter {
            rows,
            cols,
            row_ptr: Vec::with_capacity(room(rows) + 1),
            col_idx: Vec::with_capacity(room(nnz)),
            values: Vec::with_capacity(room(nnz)),
            next: 0,
        }
    }

    /// Appends `value` at `(row, col)` and returns its index into the
    /// finished matrix's [`CsrMatrix::values`].
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds or does not come after
    /// the previous entry's (an earlier row, or the same row at an equal
    /// or smaller column), when a dimension is past `u32::MAX`, or past
    /// `u32::MAX` entries.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> usize {
        let k = self.values.len();
        // Exact once the bounds below hold: both halves fit 32 bits.
        let key = ((row as u64) << 32) | col as u64;
        assert!(
            row < self.rows
                && col < self.cols
                && self.rows <= MAX_INDEX
                && self.cols <= MAX_INDEX
                && k < MAX_INDEX
                && key >= self.next,
            "row-order entry ({row}, {col}) is out of bounds or out of order"
        );
        while self.row_ptr.len() <= row {
            self.row_ptr.push(k as u32);
        }
        self.col_idx.push(col as u32);
        self.values.push(value);
        // `col < u32::MAX`, so this never carries into the row.
        self.next = key + 1;
        k
    }

    /// The matrix, with the rows after the last entry's left empty.
    pub fn finish(self) -> CsrMatrix {
        let CsrRowWriter {
            rows,
            cols,
            mut row_ptr,
            mut col_idx,
            mut values,
            ..
        } = self;
        while row_ptr.len() <= rows {
            row_ptr.push(values.len() as u32);
        }
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// The largest dimension, and entry count, a matrix indexes with `u32`.
const MAX_INDEX: usize = u32::MAX as usize;

/// The permutation of `entries` into (row, column) order that keeps
/// equal coordinates in insertion order.
///
/// A stable counting sort deals the indices out to their rows, O(n +
/// rows), and each row's slice is put in column order by the standard
/// library's stable sort (k·log k for a row of k triplets, such as a
/// lumped node coupled to a whole layer).
fn row_major_order(rows: usize, entries: &[(u32, u32, f64)]) -> Vec<u32> {
    // Row starts, then each row's write cursor, which ends at the row's end.
    let mut end = vec![0u32; rows];
    for &(r, _, _) in entries {
        end[r as usize] += 1;
    }
    let mut start = 0;
    for e in &mut end {
        let count = *e;
        *e = start;
        start += count;
    }
    let mut order = vec![0u32; entries.len()];
    for (k, &(r, _, _)) in entries.iter().enumerate() {
        let cursor = &mut end[r as usize];
        order[*cursor as usize] = k as u32;
        *cursor += 1;
    }
    let mut start = 0;
    for &stop in &end {
        order[start..stop as usize].sort_by_key(|&k| entries[k as usize].1);
        start = stop as usize;
    }
    order
}

/// A compressed-sparse-row matrix.
///
/// Row pointers and column indices are stored as `u32`, half the bytes
/// of `usize`; every method takes and returns `usize` indices. So a
/// matrix has at most `u32::MAX` rows, columns and stored entries
/// ([`TripletBuilder::add`] and [`CsrRowWriter::push`] enforce it, and
/// [`CsrMatrix::multiply`] reports a product past it).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
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
        let mut w = CsrRowWriter::new(n, n, n);
        for i in 0..n {
            w.push(i, i, 1.0);
        }
        w.finish()
    }

    /// Value at `(row, col)`; zero when the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.entry_index(row, col).map_or(0.0, |k| self.values[k])
    }

    /// The index range into [`CsrMatrix::values`] of row `row`'s entries.
    fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        self.row_ptr[row] as usize..self.row_ptr[row + 1] as usize
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
            let range = self.row_range(row);
            let vals = &self.values[range.clone()];
            let cols = &self.col_idx[range];
            let mut vc = vals.chunks_exact(4);
            let mut cc = cols.chunks_exact(4);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
            for (v, c) in vc.by_ref().zip(cc.by_ref()) {
                a0 += v[0] * x[c[0] as usize];
                a1 += v[1] * x[c[1] as usize];
                a2 += v[2] * x[c[2] as usize];
                a3 += v[3] * x[c[3] as usize];
            }
            let mut acc = (a0 + a2) + (a1 + a3);
            for (v, &c) in vc.remainder().iter().zip(cc.remainder()) {
                acc += v * x[c as usize];
            }
            *out = acc;
        }
    }

    /// Matrix product `self · other`, assembled row-by-row with a dense
    /// accumulator (classic CSR SpGEMM); exact zeros that arise from
    /// cancellation are kept so the product's pattern is reproducible.
    ///
    /// No solver calls it. It is the reference the [`multigrid`]
    /// hierarchy's row-wise Galerkin product is held to: each coarse
    /// operator equals `R.multiply(&A.multiply(&P))` bit for bit.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] when `self.cols != other.rows`;
    /// * [`Error::InvalidArgument`] when the product would store more
    ///   than `u32::MAX` entries.
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
        let mut touched: Vec<u32> = Vec::new();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in 0..self.rows {
            touched.clear();
            for ka in self.row_range(row) {
                let a = self.values[ka];
                for kb in other.row_range(self.col_idx[ka] as usize) {
                    let col = other.col_idx[kb];
                    if mark[col as usize] != row {
                        mark[col as usize] = row;
                        touched.push(col);
                    }
                    acc[col as usize] += a * other.values[kb];
                }
            }
            touched.sort_unstable();
            for &col in &touched {
                col_idx.push(col);
                values.push(std::mem::take(&mut acc[col as usize]));
            }
            row_ptr.push(u32::try_from(col_idx.len()).map_err(|_| {
                Error::invalid_argument("a sparse product stores more than u32::MAX entries")
            })?);
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
        let mut row_ptr = vec![0u32; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for row in 0..self.rows {
            for k in self.row_range(row) {
                let at = &mut cursor[self.col_idx[k] as usize];
                // `row < self.rows`, which fits `u32` (see `CsrMatrix`).
                col_idx[*at as usize] = row as u32;
                values[*at as usize] = self.values[k];
                *at += 1;
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
        self.row_range(row)
            .map(move |k| (self.col_idx[k] as usize, self.values[k]))
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
        (0..n)
            .map(|i| self.find_in_row(i, i).map_or(0.0, |k| self.values[k]))
            .collect()
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
        (0..n).map(|i| self.find_in_row(i, i)).collect()
    }

    /// Index into [`CsrMatrix::values`] of the first stored entry
    /// `(row, col)`, scanning the row; `None` when it stores none.
    fn find_in_row(&self, row: usize, col: usize) -> Option<usize> {
        self.row_range(row)
            .find(|&k| self.col_idx[k] as usize == col)
    }

    /// Whether `cached` are valid diagonal entry indices for this matrix:
    /// `cached[i]` must point at a stored entry `(i, i)`. O(n).
    fn diag_indices_valid(&self, cached: &[u32]) -> bool {
        let n = self.rows.min(self.cols);
        cached.len() == n
            && cached.iter().enumerate().all(|(i, &k)| {
                self.row_range(i).contains(&(k as usize)) && self.col_idx[k as usize] as usize == i
            })
    }

    /// A 64-bit hash of the sparsity pattern (row pointers and column
    /// indices, not values): what a structure built for one pattern
    /// keeps to recognise another. O(rows + nnz), allocation-free.
    pub(crate) fn pattern_fingerprint(&self) -> u64 {
        // FxHash's step: rotate, mix in one index, multiply.
        self.row_ptr
            .iter()
            .chain(&self.col_idx)
            .fold(self.rows as u64, |h, &i| {
                (h.rotate_left(5) ^ u64::from(i)).wrapping_mul(0x517c_c1b7_2722_0a95)
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
        self.find_in_row(row, col)
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
            for k in self.row_range(row) {
                ax += self.values[k] * x[self.col_idx[k] as usize];
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
/// scaling) and [`multigrid::VCycle`] (one geometric V-cycle of a
/// [`multigrid::MultigridPreconditioner`]) both implement it, so every CG call site picks its
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
    diag_idx: Vec<u32>,
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
            for i in 0..n {
                match matrix.find_in_row(i, i) {
                    Some(k) => self.diag_idx.push(k as u32),
                    None => return Err(Error::SingularMatrix { index: i }),
                }
            }
        }
        self.inv_diag.resize(n, 0.0);
        for i in 0..n {
            let d = matrix.values[self.diag_idx[i] as usize];
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

    /// Sums every coordinate's triplets in insertion order, the first
    /// value first: the contract of [`TripletBuilder::build`].
    fn insertion_order_reference(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Vec<Vec<Option<f64>>> {
        let mut dense = vec![vec![None; cols]; rows];
        for &(r, c, v) in triplets {
            let slot: &mut Option<f64> = &mut dense[r][c];
            *slot = Some(slot.map_or(v, |sum| sum + v));
        }
        dense
    }

    /// Checks `triplets` assemble to the insertion-order reference, bit
    /// for bit and entry for entry.
    fn assembles_in_insertion_order(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> std::result::Result<(), String> {
        let mut b = TripletBuilder::new(rows, cols);
        for &(r, c, v) in triplets {
            b.add(r, c, v);
        }
        let m = b.build();
        let reference = insertion_order_reference(rows, cols, triplets);
        let stored: usize = reference.iter().flatten().filter(|v| v.is_some()).count();
        crate::check::ensure(m.nnz() == stored, || {
            format!("{} stored entries, want {stored}", m.nnz())
        })?;
        for (r, row) in reference.iter().enumerate() {
            let got: Vec<(usize, f64)> = m.row_entries(r).collect();
            let want: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .filter_map(|(c, v)| v.map(|v| (c, v)))
                .collect();
            let same = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
            crate::check::ensure(same, || format!("row {r}: got {got:?}, want {want:?}"))?;
        }
        Ok(())
    }

    /// `count` triplets over an `rows × cols` matrix whose duplicate
    /// groups cancel differently in different orders: `1e16 + 1 − 1e16`
    /// is 0 in insertion order, while `1e16 − 1e16 + 1` is 1.
    fn order_sensitive_triplets(
        rows: usize,
        cols: usize,
        count: usize,
        seed: u64,
    ) -> Vec<(usize, usize, f64)> {
        let mut rng = crate::DeterministicRng::new(seed);
        let mut triplets = Vec::with_capacity(count);
        while triplets.len() < count {
            let (r, c) = (rng.uniform_usize(rows), rng.uniform_usize(cols));
            let v = match rng.uniform_usize(4) {
                0 => 1e16,
                1 => -1e16,
                2 => 1.0,
                _ => rng.uniform_range(-2.0, 2.0),
            };
            triplets.push((r, c, v));
        }
        triplets
    }

    #[test]
    fn duplicates_sum_in_insertion_order() {
        // 12 000 triplets on 40 × 30 coordinates: ten per coordinate on
        // average, in every interleaving of large and small values.
        let triplets = order_sensitive_triplets(40, 30, 12_000, 0x7121);
        assembles_in_insertion_order(40, 30, &triplets).unwrap();
        // The first value of a group is its start, not 0.0 + it.
        let mut b = TripletBuilder::new(1, 2);
        b.add(0, 1, -0.0);
        b.add(0, 0, 1e16);
        b.add(0, 0, 1.0);
        b.add(0, 0, -1e16);
        let m = b.build();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 1).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn assembly_matches_the_insertion_order_reference() {
        let checker = crate::check::Checker::new(crate::check::CheckConfig {
            seed: 0x7269_706C, // "ripl"
            cases: 12,
            ..crate::check::CheckConfig::default()
        });
        let gen = (
            crate::check::usize_in(1, 80),
            crate::check::usize_in(1, 80),
            crate::check::usize_in(10_000, 14_000),
            crate::check::usize_in(0, 1 << 30),
        );
        checker.assert(
            "linalg.triplet_insertion_order",
            &gen,
            |&(rows, cols, count, seed)| {
                let triplets = order_sensitive_triplets(rows, cols, count, seed as u64);
                assembles_in_insertion_order(rows, cols, &triplets)
            },
        );
    }

    #[test]
    fn a_long_row_keeps_its_duplicates_in_insertion_order() {
        // One row past the insertion-sort cutoff, as a lumped node
        // coupled to a whole grid layer.
        let mut triplets = Vec::new();
        for c in (0..200).rev() {
            triplets.push((0, c % 50, 1e16));
            triplets.push((0, 49 - c % 50, 1.0));
            triplets.push((0, c % 50, -1e16));
        }
        assembles_in_insertion_order(1, 50, &triplets).unwrap();
    }

    /// A CSR matrix at `usize` width, with the operations of
    /// [`CsrMatrix`] in the same arithmetic order: the reference its
    /// `u32` storage is held to.
    #[derive(Debug, PartialEq)]
    struct WideCsr {
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        /// The values as bits, so equality is bit for bit.
        bits: Vec<u64>,
    }

    impl WideCsr {
        /// Each coordinate's triplets summed in insertion order, columns
        /// ascending within each row: the assembly contract.
        fn assemble(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
            let mut order: Vec<usize> = (0..triplets.len()).collect();
            order.sort_by_key(|&k| (triplets[k].0, triplets[k].1));
            let mut entries: Vec<(usize, usize, f64)> = Vec::new();
            for k in order {
                let (r, c, v) = triplets[k];
                match entries.last_mut() {
                    Some(last) if (last.0, last.1) == (r, c) => last.2 += v,
                    _ => entries.push((r, c, v)),
                }
            }
            Self::from_entries(rows, cols, &entries)
        }

        /// From `(row, column, value)` entries in row-major order.
        fn from_entries(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> Self {
            let mut row_ptr = vec![0; rows + 1];
            for &(r, _, _) in entries {
                row_ptr[r + 1] += 1;
            }
            for r in 0..rows {
                row_ptr[r + 1] += row_ptr[r];
            }
            WideCsr {
                rows,
                cols,
                row_ptr,
                col_idx: entries.iter().map(|e| e.1).collect(),
                bits: entries.iter().map(|e| e.2.to_bits()).collect(),
            }
        }

        fn of(m: &CsrMatrix) -> Self {
            Self::from_entries(m.rows(), m.cols(), &m.iter_entries().collect::<Vec<_>>())
        }

        fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
            (self.row_ptr[r]..self.row_ptr[r + 1])
                .map(move |k| (self.col_idx[k], f64::from_bits(self.bits[k])))
        }

        /// Row-by-row SpGEMM with a dense accumulator, summing in the
        /// left row's stored order; columns ascend.
        fn multiply(&self, other: &WideCsr) -> Self {
            let mut acc = vec![0.0; other.cols];
            let mut touched = vec![false; other.cols];
            let mut entries = Vec::new();
            for r in 0..self.rows {
                for (mid, a) in self.row(r) {
                    for (c, b) in other.row(mid) {
                        touched[c] = true;
                        acc[c] += a * b;
                    }
                }
                for c in 0..other.cols {
                    if std::mem::take(&mut touched[c]) {
                        entries.push((r, c, std::mem::take(&mut acc[c])));
                    }
                }
            }
            Self::from_entries(self.rows, other.cols, &entries)
        }

        fn transpose(&self) -> Self {
            let mut entries: Vec<(usize, usize, f64)> = (0..self.rows)
                .flat_map(|r| self.row(r).map(move |(c, v)| (c, r, v)))
                .collect();
            entries.sort_by_key(|e| (e.0, e.1));
            Self::from_entries(self.cols, self.rows, &entries)
        }

        fn diag_indices(&self) -> Vec<Option<usize>> {
            (0..self.rows.min(self.cols))
                .map(|i| (self.row_ptr[i]..self.row_ptr[i + 1]).find(|&k| self.col_idx[k] == i))
                .collect()
        }

        /// `A·x` in `mul_vec_into`'s four lanes, `(a0 + a2) + (a1 + a3)`,
        /// then the tail.
        fn mul_vec(&self, x: &[f64]) -> Vec<u64> {
            (0..self.rows)
                .map(|r| {
                    let row: Vec<(usize, f64)> = self.row(r).collect();
                    let mut lanes = [0.0; 4];
                    let blocks = row.len() / 4 * 4;
                    for (k, &(c, v)) in row[..blocks].iter().enumerate() {
                        lanes[k % 4] += v * x[c];
                    }
                    let mut acc = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
                    for &(c, v) in &row[blocks..] {
                        acc += v * x[c];
                    }
                    acc.to_bits()
                })
                .collect()
        }
    }

    #[test]
    fn u32_storage_equals_the_usize_reference() {
        let mut rng = crate::DeterministicRng::new(0x3232);
        for case in 0..24 {
            let (rows, cols, k) = (
                1 + rng.uniform_usize(60),
                1 + rng.uniform_usize(60),
                1 + rng.uniform_usize(40),
            );
            let count = rng.uniform_usize(3_000);
            let triplets = order_sensitive_triplets(rows, cols, count, 0x5EED + case);
            let other = order_sensitive_triplets(cols, k, rng.uniform_usize(2_000), case);
            let build = |rows, cols, triplets: &[(usize, usize, f64)]| {
                let mut b = TripletBuilder::new(rows, cols);
                for &(r, c, v) in triplets {
                    b.add(r, c, v);
                }
                b.build()
            };
            let (a, b) = (build(rows, cols, &triplets), build(cols, k, &other));
            let (wide_a, wide_b) = (
                WideCsr::assemble(rows, cols, &triplets),
                WideCsr::assemble(cols, k, &other),
            );
            assert_eq!(WideCsr::of(&a), wide_a, "case {case}: assembly");
            assert_eq!(
                WideCsr::of(&a.transpose()),
                wide_a.transpose(),
                "case {case}: transpose"
            );
            assert_eq!(
                WideCsr::of(&a.multiply(&b).unwrap()),
                wide_a.multiply(&wide_b),
                "case {case}: multiply"
            );
            assert_eq!(a.diag_indices(), wide_a.diag_indices(), "case {case}");
            let x: Vec<f64> = (0..cols).map(|i| (i as f64 * 0.61).sin()).collect();
            let y: Vec<u64> = a.mul_vec(&x).unwrap().iter().map(|v| v.to_bits()).collect();
            assert_eq!(y, wide_a.mul_vec(&x), "case {case}: mul_vec");
        }
    }

    #[test]
    #[should_panic(expected = "triplet out of bounds")]
    fn a_dimension_past_u32_is_refused_at_the_first_triplet() {
        // Refused before anything of that size is allocated.
        let mut b = TripletBuilder::new(1 << 33, 1);
        b.add(0, 0, 1.0);
    }

    #[test]
    fn a_row_written_matrix_equals_its_triplet_assembly() {
        // Random patterns with empty rows (leading, inner and trailing),
        // written in row order and added as triplets in a shuffled order.
        let mut rng = crate::DeterministicRng::new(0x2077);
        for case in 0..40 {
            let (rows, cols) = (1 + rng.uniform_usize(30), 1 + rng.uniform_usize(30));
            let mut entries = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if rng.uniform_usize(4) == 0 {
                        entries.push((r, c, rng.uniform_range(-2.0, 2.0)));
                    }
                }
            }
            let mut w = CsrRowWriter::new(rows, cols, entries.len());
            for (k, &(r, c, v)) in entries.iter().enumerate() {
                assert_eq!(w.push(r, c, v), k);
            }
            let written = w.finish();
            let mut b = TripletBuilder::new(rows, cols);
            for k in 0..entries.len() {
                let (r, c, v) = entries[(k * 7919) % entries.len()];
                b.add(r, c, v);
            }
            let built = b.build();
            assert_eq!(WideCsr::of(&written), WideCsr::of(&built), "case {case}");
            assert_eq!(written, built, "case {case}");
            assert_eq!(written.values().len(), written.values.capacity());
        }
        // No entry at all: every row empty.
        let empty = CsrRowWriter::new(3, 2, 0).finish();
        assert_eq!(empty, TripletBuilder::new(3, 2).build());
        assert_eq!(empty.row_ptr, vec![0; 4]);
    }

    #[test]
    fn a_row_writer_refuses_every_misordered_or_out_of_range_entry() {
        let refused = |entries: &[(usize, usize)]| {
            std::panic::catch_unwind(|| {
                let mut w = CsrRowWriter::new(3, 3, entries.len());
                for &(r, c) in entries {
                    w.push(r, c, 1.0);
                }
                w.finish()
            })
            .is_err()
        };
        assert!(!refused(&[(0, 0), (0, 2), (1, 0), (2, 1)]));
        assert!(refused(&[(0, 1), (0, 1)]), "repeated column");
        assert!(refused(&[(0, 2), (0, 1)]), "descending column");
        assert!(refused(&[(1, 0), (0, 2)]), "earlier row");
        assert!(refused(&[(3, 0)]), "row out of range");
        assert!(refused(&[(0, 3)]), "column out of range");
    }

    #[test]
    #[should_panic(expected = "out of bounds or out of order")]
    fn a_row_writer_past_u32_is_refused_at_the_first_entry() {
        // Refused before anything of that size is allocated.
        let mut w = CsrRowWriter::new(1 << 33, 1, 1 << 33);
        w.push(0, 0, 1.0);
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
