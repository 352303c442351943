//! Geometric multigrid V-cycle preconditioning for grid conductance
//! systems.
//!
//! Jacobi-preconditioned CG needs `O(grid diameter)` iterations on the
//! thermal / PDN Laplacians, and the min-degree LDLᵀ factorization's
//! fill-in grows superlinearly with grid resolution — both break down on
//! grids one to two orders of magnitude finer than the paper's configs.
//! A geometric multigrid V-cycle fixes the iteration growth: damped
//! Jacobi smoothing kills the high-frequency error on each level, and a
//! 2:1-coarsened hierarchy of Galerkin operators `Aᶜ = R·A·P` handles
//! the smooth remainder, so one V-cycle contracts the error by a
//! grid-size-independent factor. Used as the [`Preconditioner`] of
//! [`solve_cg`](super::solve_cg), it turns the hundreds-of-iterations
//! fine-grid solves into 10–20 iterations regardless of resolution
//! (measured — BENCH.md).
//!
//! The hierarchy is *geometric*, derived from a [`GridGeometry`]
//! describing how the matrix rows map onto stacked `nx × ny` grid layers
//! (thermal: silicon + spreader layers plus one heat-sink node; PDN: one
//! sheet layer). Each layer coarsens independently by 2:1 box
//! coarsening with bilinear interpolation; irregular `extra` nodes (the
//! heat sink) survive on every level untouched and are handled exactly
//! by the bottom-level LDLᵀ solve, which reuses [`direct`](super::direct)
//! with its hub-aware min-degree ordering.
//!
//! The V-cycle is V(1,1) — one damped-Jacobi pre-smooth (from a zero
//! initial guess, so it reduces to one scaled copy), one post-smooth —
//! which keeps the preconditioner symmetric positive definite as CG
//! requires. All smoothing and residual passes run through the blocked
//! [`CsrMatrix::mul_vec_into`] SpMV kernel.

use super::direct::{LdltFactor, LdltWorkspace};
use super::{CsrMatrix, Preconditioner, TripletBuilder};
use crate::error::{Error, Result};
use std::sync::Mutex;

/// Damped-Jacobi smoothing factor. `4/5` is the classic choice that
/// minimises the smoothing factor of the 2D 5-point stencil; our
/// conductance matrices are diagonally dominant, so `ρ(I − ωD⁻¹A) < 1`
/// holds with margin and the V-cycle stays positive definite.
const JACOBI_OMEGA: f64 = 0.8;

/// Default coarsening stop: once a level has at most this many nodes it
/// is solved directly (LDLᵀ). Small enough that the bottom factorization
/// is microseconds, large enough that tiny systems (PDN domains, coarse
/// test grids) skip hierarchy construction entirely.
const DEFAULT_BOTTOM_NODES: usize = 600;

/// Node count above which [`MultigridPreconditioner`]-CG beats both the
/// cached direct factorization and warm-started Jacobi-CG for repeated
/// steady solves, measured on the thermal conductance system (grid
/// scaling axis in BENCH.md: direct still wins at 64×64 ≈ 8k nodes,
/// mgcg wins from ≈ 104×104 ≈ 22k nodes on). `Auto` steady thermal
/// solves take mgcg at this node count and Jacobi-CG below it.
pub const MGCG_MIN_NODES: usize = 16_000;

/// Maps matrix rows onto stacked `nx × ny` grid layers plus trailing
/// irregular nodes — the geometry the multigrid hierarchy coarsens.
///
/// Node `layer·nx·ny + j·nx + i` is grid cell `(i, j)` of `layer`
/// (x-fastest, the layout both the thermal and PDN assemblers use), and
/// the final `extra` nodes (e.g. the thermal heat-sink node) follow all
/// layers and are never coarsened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridGeometry {
    /// Grid cells along x in each layer.
    pub nx: usize,
    /// Grid cells along y in each layer.
    pub ny: usize,
    /// Number of stacked `nx × ny` layers.
    pub layers: usize,
    /// Irregular trailing nodes kept verbatim on every level.
    pub extra: usize,
}

impl GridGeometry {
    /// A geometry of `layers` stacked `nx × ny` grids plus `extra`
    /// trailing nodes.
    pub fn new(nx: usize, ny: usize, layers: usize, extra: usize) -> Self {
        GridGeometry {
            nx,
            ny,
            layers,
            extra,
        }
    }

    /// Total node count: `layers·nx·ny + extra`.
    pub fn nodes(&self) -> usize {
        self.layers * self.nx * self.ny + self.extra
    }

    /// The 2:1 box-coarsened geometry (layers and extra nodes are kept).
    fn coarsen(&self) -> GridGeometry {
        GridGeometry {
            nx: self.nx.div_ceil(2),
            ny: self.ny.div_ceil(2),
            ..*self
        }
    }
}

/// One smoothed level of the hierarchy.
#[derive(Debug, Clone)]
struct Level {
    /// The operator on this level (level 0: the fine matrix).
    a: CsrMatrix,
    /// Inverse diagonal of `a` for the damped-Jacobi smoother.
    inv_diag: Vec<f64>,
    /// Prolongation from the next-coarser level into this one.
    p: CsrMatrix,
    /// Restriction `R = Pᵀ` from this level to the next-coarser one.
    r: CsrMatrix,
}

/// The coarsest level: its Galerkin operator and cached LDLᵀ factor.
#[derive(Debug, Clone)]
struct Bottom {
    a: CsrMatrix,
    factor: LdltFactor,
}

/// Per-level scratch of one V-cycle; lives behind a `Mutex` so
/// [`Preconditioner::apply_into`] can stay `&self` (CG call sites share
/// the preconditioner immutably) while the cycle remains allocation-free.
#[derive(Debug, Default)]
struct Work {
    /// Per smoothed level: restricted right-hand side, iterate, and a
    /// product/residual buffer.
    rhs: Vec<Vec<f64>>,
    z: Vec<Vec<f64>>,
    tmp: Vec<Vec<f64>>,
    bottom_rhs: Vec<f64>,
    bottom_z: Vec<f64>,
    ldlt_ws: LdltWorkspace,
}

/// Geometric multigrid V-cycle preconditioner for
/// [`solve_cg`](super::solve_cg).
///
/// Build once per matrix with [`MultigridPreconditioner::new`]; when the
/// matrix values change under a fixed pattern (the PDN's per-gating
/// regulator patches), refresh with
/// [`MultigridPreconditioner::update`], which refills the Galerkin
/// products in place and refactors the bottom level without re-deriving
/// any structure.
///
/// Each coarse operator is formed row by row, reading rows of `A·P` as
/// it needs them, so `A·P` is never held whole; it equals
/// `R.multiply(&A.multiply(&P))` bit for bit (see [`CsrMatrix::multiply`]).
#[derive(Debug)]
pub struct MultigridPreconditioner {
    geometry: GridGeometry,
    bottom_limit: usize,
    levels: Vec<Level>,
    bottom: Bottom,
    work: Mutex<Work>,
}

impl Clone for MultigridPreconditioner {
    fn clone(&self) -> Self {
        let mut clone = MultigridPreconditioner {
            geometry: self.geometry,
            bottom_limit: self.bottom_limit,
            levels: self.levels.clone(),
            bottom: self.bottom.clone(),
            work: Mutex::new(Work::default()),
        };
        clone.size_work();
        clone
    }
}

impl MultigridPreconditioner {
    /// Builds the hierarchy for `matrix`, whose rows must follow
    /// `geometry` ([`GridGeometry::nodes`] must equal the dimension).
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] — `matrix` is not square of
    ///   dimension `geometry.nodes()`;
    /// * [`Error::SingularMatrix`] — a level operator has a zero
    ///   diagonal entry (no damped-Jacobi smoother);
    /// * factorization errors from the bottom-level LDLᵀ.
    pub fn new(matrix: &CsrMatrix, geometry: GridGeometry) -> Result<Self> {
        Self::with_bottom_limit(matrix, geometry, DEFAULT_BOTTOM_NODES)
    }

    /// Like [`MultigridPreconditioner::new`] with an explicit coarsening
    /// stop: levels with at most `bottom_nodes` nodes are solved
    /// directly. Mainly for tests that want to force deep hierarchies on
    /// small grids.
    ///
    /// # Errors
    ///
    /// See [`MultigridPreconditioner::new`].
    pub fn with_bottom_limit(
        matrix: &CsrMatrix,
        geometry: GridGeometry,
        bottom_nodes: usize,
    ) -> Result<Self> {
        let n = geometry.nodes();
        if matrix.rows() != n || matrix.cols() != n {
            return Err(Error::DimensionMismatch {
                expected: n,
                actual: matrix.rows(),
            });
        }
        if n == 0 {
            return Err(Error::invalid_argument("empty multigrid geometry"));
        }
        let mut levels = Vec::new();
        let mut a = matrix.clone();
        let mut g = geometry;
        while g.nodes() > bottom_nodes.max(1) {
            let cg = g.coarsen();
            if cg.nodes() >= g.nodes() {
                break; // 1×1 layers (or extra-only): nothing left to coarsen.
            }
            let p = prolongation(g, cg);
            let r = p.transpose();
            let coarse = galerkin_product(&r, &a, &p);
            let inv_diag = inverse_diag(&a)?;
            levels.push(Level { a, inv_diag, p, r });
            a = coarse;
            g = cg;
        }
        let factor = LdltFactor::new(&a)?;
        let mut pre = MultigridPreconditioner {
            geometry,
            bottom_limit: bottom_nodes,
            levels,
            bottom: Bottom { a, factor },
            work: Mutex::new(Work::default()),
        };
        pre.size_work();
        Ok(pre)
    }

    /// Re-derives the numeric hierarchy from `matrix`: when the sparsity
    /// pattern matches the matrix the hierarchy was built from (the
    /// cached-matrix-with-patched-values case), the transfer operators
    /// and every coarse pattern are reused, the Galerkin products refilled
    /// in place, and the bottom factor refreshed via the values-only
    /// [`LdltFactor::refactor`] fast path; otherwise the full hierarchy
    /// is rebuilt.
    ///
    /// # Errors
    ///
    /// See [`MultigridPreconditioner::new`].
    pub fn update(&mut self, matrix: &CsrMatrix) -> Result<()> {
        let fine = self.fine_matrix();
        let same_pattern = matrix.rows == fine.rows
            && matrix.cols == fine.cols
            && matrix.row_ptr == fine.row_ptr
            && matrix.col_idx == fine.col_idx;
        if !same_pattern {
            *self = Self::with_bottom_limit(matrix, self.geometry, self.bottom_limit)?;
            return Ok(());
        }
        if self.levels.is_empty() {
            self.bottom.a.values.copy_from_slice(&matrix.values);
        } else {
            self.levels[0].a.values.copy_from_slice(&matrix.values);
            for l in 0..self.levels.len() {
                let (upper, lower) = self.levels.split_at_mut(l + 1);
                let lev = &mut upper[l];
                lev.inv_diag = inverse_diag(&lev.a)?;
                let coarse = match lower.first_mut() {
                    Some(next) => &mut next.a,
                    None => &mut self.bottom.a,
                };
                galerkin_refill(&lev.r, &lev.a, &lev.p, coarse);
            }
        }
        self.bottom.factor.refactor(&self.bottom.a)?;
        Ok(())
    }

    /// Number of smoothed levels above the direct bottom solve (0 when
    /// the whole system fits under the bottom limit).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The operator on smoothed level `level` (0 = the fine matrix).
    ///
    /// # Panics
    ///
    /// Panics when `level >= num_levels()`.
    pub fn level_matrix(&self, level: usize) -> &CsrMatrix {
        &self.levels[level].a
    }

    /// The Galerkin operator solved directly at the bottom of the
    /// hierarchy.
    pub fn bottom_matrix(&self) -> &CsrMatrix {
        &self.bottom.a
    }

    /// Prolongation from level `level + 1` into level `level`.
    ///
    /// # Panics
    ///
    /// Panics when `level >= num_levels()`.
    pub fn prolongation(&self, level: usize) -> &CsrMatrix {
        &self.levels[level].p
    }

    /// Restriction from level `level` to level `level + 1` (`= Pᵀ`).
    ///
    /// # Panics
    ///
    /// Panics when `level >= num_levels()`.
    pub fn restriction(&self, level: usize) -> &CsrMatrix {
        &self.levels[level].r
    }

    fn fine_matrix(&self) -> &CsrMatrix {
        self.levels.first().map_or(&self.bottom.a, |l| &l.a)
    }

    /// Sizes every V-cycle buffer for its level so `apply_into` never
    /// allocates.
    fn size_work(&mut self) {
        let work = self.work.get_mut().unwrap_or_else(|e| e.into_inner());
        work.rhs = self.levels.iter().map(|l| vec![0.0; l.a.rows()]).collect();
        work.z = self.levels.iter().map(|l| vec![0.0; l.a.rows()]).collect();
        work.tmp = self.levels.iter().map(|l| vec![0.0; l.a.rows()]).collect();
        work.bottom_rhs = vec![0.0; self.bottom.a.rows()];
        work.bottom_z = vec![0.0; self.bottom.a.rows()];
    }

    /// One V(1,1) cycle on `A·z = r` from a zero initial guess.
    fn vcycle(&self, r: &[f64], z: &mut [f64]) -> Result<()> {
        let work = &mut *self.work.lock().unwrap_or_else(|e| e.into_inner());
        if self.levels.is_empty() {
            return self.bottom.factor.solve_into(r, z, &mut work.ldlt_ws);
        }
        work.rhs[0].copy_from_slice(r);
        // Down sweep: pre-smooth, form the residual, restrict.
        for l in 0..self.levels.len() {
            let lev = &self.levels[l];
            let n = lev.a.rows();
            for i in 0..n {
                work.z[l][i] = JACOBI_OMEGA * lev.inv_diag[i] * work.rhs[l][i];
            }
            let (z_l, tmp_l) = (&work.z[l], &mut work.tmp[l]);
            lev.a.mul_vec_into(z_l, tmp_l);
            for i in 0..n {
                work.tmp[l][i] = work.rhs[l][i] - work.tmp[l][i];
            }
            if l + 1 < self.levels.len() {
                let (tmp_l, rhs_next) = (&work.tmp[l], &mut work.rhs[l + 1]);
                lev.r.mul_vec_into(tmp_l, rhs_next);
            } else {
                lev.r.mul_vec_into(&work.tmp[l], &mut work.bottom_rhs);
            }
        }
        self.bottom
            .factor
            .solve_into(&work.bottom_rhs, &mut work.bottom_z, &mut work.ldlt_ws)?;
        // Up sweep: prolong the coarse correction, post-smooth.
        for l in (0..self.levels.len()).rev() {
            let lev = &self.levels[l];
            let n = lev.a.rows();
            if l + 1 < self.levels.len() {
                let (z_next, tmp_l) = (&work.z[l + 1], &mut work.tmp[l]);
                lev.p.mul_vec_into(z_next, tmp_l);
            } else {
                lev.p.mul_vec_into(&work.bottom_z, &mut work.tmp[l]);
            }
            for i in 0..n {
                work.z[l][i] += work.tmp[l][i];
            }
            let (z_l, tmp_l) = (&work.z[l], &mut work.tmp[l]);
            lev.a.mul_vec_into(z_l, tmp_l);
            for i in 0..n {
                work.z[l][i] += JACOBI_OMEGA * lev.inv_diag[i] * (work.rhs[l][i] - work.tmp[l][i]);
            }
        }
        z.copy_from_slice(&work.z[0]);
        Ok(())
    }
}

impl Preconditioner for MultigridPreconditioner {
    fn dim(&self) -> usize {
        self.fine_matrix().rows()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.dim());
        debug_assert_eq!(z.len(), self.dim());
        // The bottom factor was validated at construction/update time, so
        // a triangular-solve failure here is unreachable for the SPD
        // systems this type accepts; fall back to identity (= unpreconditioned
        // CG step) rather than panicking inside the solver loop.
        if self.vcycle(r, z).is_err() {
            z.copy_from_slice(r);
        }
    }
}

/// Scratch of the row-wise Galerkin product `R·A·P`: the row of `R·A·P`
/// being accumulated, and the rows of `A·P` it reads.
///
/// A row of `A·P` is formed when the first coarse row that reads it
/// comes up, kept while later coarse rows still read it, and its slot
/// recycled after the last. Coarse rows go in order and `R = Pᵀ`, so fine
/// row `i` is read by exactly the coarse rows of `P`'s row `i`, and the
/// last of them is that row's last column. The rows kept at once are a
/// band around the current coarse row, never `A·P` whole. The values do
/// not depend on this: a row freed too early is formed again.
///
/// A marker holds the stamp of the row that last touched a column, so
/// membership tests cost O(1) and no marker is ever cleared.
struct Galerkin<'m> {
    r: &'m CsrMatrix,
    a: &'m CsrMatrix,
    p: &'m CsrMatrix,
    /// Dense accumulator and marker for forming one row of `A·P`.
    ap: Vec<f64>,
    ap_mark: Vec<usize>,
    /// Per fine row: the slot of its kept row of `A·P`, if any.
    slot_of: Vec<Option<usize>>,
    /// Kept rows of `A·P` as `(column, value)` in formation order.
    slots: Vec<Vec<(usize, f64)>>,
    free: Vec<usize>,
    /// Dense accumulator, marker and touched columns of the coarse row.
    acc: Vec<f64>,
    mark: Vec<usize>,
    cols: Vec<usize>,
    stamp: usize,
}

impl<'m> Galerkin<'m> {
    fn new(r: &'m CsrMatrix, a: &'m CsrMatrix, p: &'m CsrMatrix) -> Self {
        let m = p.cols;
        Galerkin {
            r,
            a,
            p,
            ap: vec![0.0; m],
            ap_mark: vec![0; m],
            slot_of: vec![None; a.rows],
            slots: Vec::new(),
            free: Vec::new(),
            acc: vec![0.0; m],
            mark: vec![0; m],
            cols: Vec::new(),
            stamp: 0,
        }
    }

    /// Accumulates coarse row `row` of `R·A·P` into `acc`, listing its
    /// columns, unsorted, in `cols`: `acc[J] += R[row, i]·(A·P)[i, J]`
    /// over the entries `i` of `R`'s row. Both sums run in exactly
    /// [`CsrMatrix::multiply`]'s order (the left factor's row in stored
    /// order, each sum from 0.0), so the result equals
    /// `R.multiply(&A.multiply(&P))` bit for bit.
    fn accumulate_row(&mut self, row: usize) {
        let r = self.r;
        self.stamp += 1;
        let row_stamp = self.stamp;
        self.cols.clear();
        for kr in r.row_ptr[row]..r.row_ptr[row + 1] {
            let (fine, weight) = (r.col_idx[kr], r.values[kr]);
            let slot = match self.slot_of[fine] {
                Some(slot) => slot,
                None => self.form_ap_row(fine),
            };
            for &(col, v) in &self.slots[slot] {
                if self.mark[col] != row_stamp {
                    self.mark[col] = row_stamp;
                    self.cols.push(col);
                }
                self.acc[col] += weight * v;
            }
            let p = self.p;
            if p.col_idx[p.row_ptr[fine]..p.row_ptr[fine + 1]].last() == Some(&row) {
                self.slot_of[fine] = None;
                self.free.push(slot);
            }
        }
    }

    /// Forms row `fine` of `A·P` into a free slot, as
    /// [`CsrMatrix::multiply`] forms it, and returns the slot.
    fn form_ap_row(&mut self, fine: usize) -> usize {
        let (a, p) = (self.a, self.p);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Vec::new());
            self.slots.len() - 1
        });
        self.stamp += 1;
        let row = &mut self.slots[slot];
        row.clear();
        for ka in a.row_ptr[fine]..a.row_ptr[fine + 1] {
            let (mid, av) = (a.col_idx[ka], a.values[ka]);
            for kp in p.row_ptr[mid]..p.row_ptr[mid + 1] {
                let col = p.col_idx[kp];
                if self.ap_mark[col] != self.stamp {
                    self.ap_mark[col] = self.stamp;
                    row.push((col, 0.0));
                }
                self.ap[col] += av * p.values[kp];
            }
        }
        for (col, v) in row.iter_mut() {
            *v = std::mem::take(&mut self.ap[*col]);
        }
        self.slot_of[fine] = Some(slot);
        slot
    }
}

/// The Galerkin coarse operator `R·A·P`, row by row (see
/// [`Galerkin::accumulate_row`]), in one pass: each row's columns are
/// sorted and appended. The output starts at the fine operator's density
/// per row, grows as a coarse operator's denser rows need, and is trimmed
/// to its exact size at the end. Scratch beyond the output is O(coarse
/// nodes) plus a band of `A·P` rows.
fn galerkin_product(r: &CsrMatrix, a: &CsrMatrix, p: &CsrMatrix) -> CsrMatrix {
    let mut g = Galerkin::new(r, a, p);
    let guess = a.nnz() * r.rows / a.rows.max(1);
    let mut row_ptr = Vec::with_capacity(r.rows + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(guess);
    let mut values = Vec::with_capacity(guess);
    for row in 0..r.rows {
        g.accumulate_row(row);
        g.cols.sort_unstable();
        for &col in &g.cols {
            col_idx.push(col);
            values.push(std::mem::take(&mut g.acc[col]));
        }
        row_ptr.push(col_idx.len());
    }
    col_idx.shrink_to_fit();
    values.shrink_to_fit();
    CsrMatrix {
        rows: r.rows,
        cols: p.cols,
        row_ptr,
        col_idx,
        values,
    }
}

/// Refills `coarse`, whose pattern [`galerkin_product`] built from
/// operators of the same patterns as `r`, `a` and `p`, with the values of
/// `R·A·P`, in place.
fn galerkin_refill(r: &CsrMatrix, a: &CsrMatrix, p: &CsrMatrix, coarse: &mut CsrMatrix) {
    let mut g = Galerkin::new(r, a, p);
    for row in 0..coarse.rows {
        g.accumulate_row(row);
        for k in coarse.row_ptr[row]..coarse.row_ptr[row + 1] {
            coarse.values[k] = std::mem::take(&mut g.acc[coarse.col_idx[k]]);
        }
    }
}

/// Inverse diagonal of `a`, rejecting zero entries (no smoother).
fn inverse_diag(a: &CsrMatrix) -> Result<Vec<f64>> {
    let diag = a.diagonal();
    if let Some(i) = diag.iter().position(|&d| d == 0.0) {
        return Err(Error::SingularMatrix { index: i });
    }
    Ok(diag.into_iter().map(|d| 1.0 / d).collect())
}

/// 1D bilinear interpolation weights of fine index `i` onto the
/// 2:1-coarsened axis of `n_coarse` points: even indices inject from
/// their coarse image, odd indices average their two coarse neighbours
/// (one neighbour, full weight, at the high boundary of an even-sized
/// axis).
fn axis_weights(i: usize, n_coarse: usize) -> ([(usize, f64); 2], usize) {
    if i.is_multiple_of(2) {
        ([(i / 2, 1.0), (0, 0.0)], 1)
    } else {
        let left = i / 2;
        let right = left + 1;
        if right < n_coarse {
            ([(left, 0.5), (right, 0.5)], 2)
        } else {
            ([(left, 1.0), (0, 0.0)], 1)
        }
    }
}

/// The bilinear prolongation matrix from `coarse` onto `fine` (2:1 box
/// coarsening per layer; extra nodes map one-to-one).
fn prolongation(fine: GridGeometry, coarse: GridGeometry) -> CsrMatrix {
    let mut b = TripletBuilder::new(fine.nodes(), coarse.nodes());
    let fine_layer = fine.nx * fine.ny;
    let coarse_layer = coarse.nx * coarse.ny;
    for layer in 0..fine.layers {
        for j in 0..fine.ny {
            let (wy, ny_w) = axis_weights(j, coarse.ny);
            for i in 0..fine.nx {
                let (wx, nx_w) = axis_weights(i, coarse.nx);
                let row = layer * fine_layer + j * fine.nx + i;
                for &(cj, wj) in &wy[..ny_w] {
                    for &(ci, wi) in &wx[..nx_w] {
                        let col = layer * coarse_layer + cj * coarse.nx + ci;
                        b.add(row, col, wj * wi);
                    }
                }
            }
        }
    }
    for e in 0..fine.extra {
        b.add(
            fine.layers * fine_layer + e,
            coarse.layers * coarse_layer + e,
            1.0,
        );
    }
    b.build()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::check::{self, CheckConfig, Checker};
    use crate::linalg::{solve_cg, CgWorkspace, JacobiPreconditioner};

    /// A grid Laplacian on `geometry` with per-node ground conductance
    /// `load` and unit couplings scaled by `conduct`; when the geometry
    /// has one extra node it becomes a dense "sink" row coupled to every
    /// layer-0 cell (the thermal heat-sink shape).
    pub(crate) fn grid_laplacian(geometry: GridGeometry, conduct: &[f64], load: f64) -> CsrMatrix {
        let n = geometry.nodes();
        let mut b = TripletBuilder::new(n, n);
        let per_layer = geometry.nx * geometry.ny;
        let pick = |k: usize| conduct[k % conduct.len()].abs().max(0.05);
        let mut edge = 0usize;
        let mut couple = |b: &mut TripletBuilder, u: usize, v: usize| {
            let g = pick(edge);
            edge += 1;
            b.add(u, u, g);
            b.add(v, v, g);
            b.add(u, v, -g);
            b.add(v, u, -g);
        };
        for layer in 0..geometry.layers {
            let base = layer * per_layer;
            for j in 0..geometry.ny {
                for i in 0..geometry.nx {
                    let u = base + j * geometry.nx + i;
                    if i + 1 < geometry.nx {
                        couple(&mut b, u, u + 1);
                    }
                    if j + 1 < geometry.ny {
                        couple(&mut b, u, u + geometry.nx);
                    }
                    if layer + 1 < geometry.layers {
                        couple(&mut b, u, u + per_layer);
                    }
                    b.add(u, u, load);
                }
            }
        }
        for e in 0..geometry.extra {
            let sink = geometry.layers * per_layer + e;
            b.add(sink, sink, load);
            if geometry.layers > 0 {
                for cell in 0..per_layer {
                    couple(&mut b, sink, cell);
                }
            }
        }
        b.build()
    }

    fn checker(cases: usize) -> Checker {
        Checker::new(CheckConfig {
            seed: 0x4D47_4347, // "MGCG"
            cases,
            ..CheckConfig::default()
        })
    }

    /// Random small geometry + conductance scale + ground load + sink flag.
    fn geom_gen() -> impl check::Gen<Value = (usize, usize, f64, bool)> {
        (
            check::usize_in(1, 9),
            check::usize_in(1, 9),
            check::f64_in(0.1, 4.0),
            check::bool_any(),
        )
    }

    fn build_case(nx: usize, ny: usize, scale: f64, sink: bool) -> (GridGeometry, CsrMatrix) {
        let geometry = GridGeometry::new(nx, ny, if sink { 2 } else { 1 }, usize::from(sink));
        let conduct = [scale, 2.0 * scale, 0.7 * scale, 1.3 * scale];
        let matrix = grid_laplacian(geometry, &conduct, 0.05 * scale);
        (geometry, matrix)
    }

    #[test]
    fn restriction_is_prolongation_transpose() {
        checker(24).assert(
            "mg.transfer_transpose",
            &geom_gen(),
            |&(nx, ny, scale, sink)| {
                let (geometry, matrix) = build_case(nx, ny, scale, sink);
                let mg = MultigridPreconditioner::with_bottom_limit(&matrix, geometry, 4)
                    .map_err(|e| format!("build failed: {e}"))?;
                for l in 0..mg.num_levels() {
                    let rt = mg.restriction(l).transpose();
                    check::ensure(&rt == mg.prolongation(l), || format!("level {l}: R^T != P"))?;
                    // Every fine node's interpolation weights sum to 1
                    // (partition of unity), so constants are preserved.
                    let p = mg.prolongation(l);
                    for row in 0..p.rows() {
                        let sum: f64 = p.row_entries(row).map(|(_, v)| v).sum();
                        check::ensure((sum - 1.0).abs() < 1e-12, || {
                            format!("level {l} row {row}: weight sum {sum}")
                        })?;
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn galerkin_coarse_operators_stay_spd() {
        checker(24).assert("mg.galerkin_spd", &geom_gen(), |&(nx, ny, scale, sink)| {
            let (geometry, matrix) = build_case(nx, ny, scale, sink);
            let mg = MultigridPreconditioner::with_bottom_limit(&matrix, geometry, 4)
                .map_err(|e| format!("build failed: {e}"))?;
            let mut ops: Vec<&CsrMatrix> =
                (1..mg.num_levels()).map(|l| mg.level_matrix(l)).collect();
            ops.push(mg.bottom_matrix());
            for (depth, a) in ops.iter().enumerate() {
                let max = a.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (row, col, v) in a.iter_entries() {
                    let vt = a.get(col, row);
                    check::ensure((v - vt).abs() <= 1e-12 * max.max(1.0), || {
                        format!("coarse op {depth} asymmetric at ({row},{col}): {v} vs {vt}")
                    })?;
                }
                // SPD ⟺ the LDLᵀ factorization succeeds with positive
                // pivots, which LdltFactor::new enforces.
                check::ensure(LdltFactor::new(a).is_ok(), || {
                    format!("coarse op {depth} is not positive definite")
                })?;
            }
            Ok(())
        });
    }

    /// Every coarse operator equals `R.multiply(&A.multiply(&P))` of the
    /// level above, bit for bit.
    fn galerkin_is_exact(mg: &MultigridPreconditioner) -> check::TestResult {
        for l in 0..mg.num_levels() {
            let a = mg.level_matrix(l);
            let explicit = mg
                .restriction(l)
                .multiply(&a.multiply(mg.prolongation(l)).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let coarse = if l + 1 < mg.num_levels() {
                mg.level_matrix(l + 1)
            } else {
                mg.bottom_matrix()
            };
            let bits = |m: &CsrMatrix| -> Vec<(usize, usize, u64)> {
                m.iter_entries()
                    .map(|(r, c, v)| (r, c, v.to_bits()))
                    .collect()
            };
            check::ensure(bits(coarse) == bits(&explicit), || {
                format!("level {l}: the coarse operator differs from R·(A·P)")
            })?;
        }
        Ok(())
    }

    #[test]
    fn galerkin_products_equal_the_explicit_triple_product() {
        checker(24).assert(
            "mg.galerkin_exact",
            &geom_gen(),
            |&(nx, ny, scale, sink)| {
                let (geometry, mut matrix) = build_case(nx, ny, scale, sink);
                let mut mg = MultigridPreconditioner::with_bottom_limit(&matrix, geometry, 4)
                    .map_err(|e| format!("build failed: {e}"))?;
                galerkin_is_exact(&mg)?;
                // Refilled in place for new values, as the PDN's patches do:
                // a stronger ground path on every third node.
                for i in (0..matrix.rows()).step_by(3) {
                    if let Some(k) = matrix.entry_index(i, i) {
                        matrix.values_mut()[k] += 0.37 * scale;
                    }
                }
                mg.update(&matrix)
                    .map_err(|e| format!("update failed: {e}"))?;
                galerkin_is_exact(&mg)
            },
        );
    }

    #[test]
    fn mgcg_matches_jacobi_cg() {
        checker(16).assert("mg.solves_match", &geom_gen(), |&(nx, ny, scale, sink)| {
            let (geometry, matrix) = build_case(nx, ny, scale, sink);
            let n = geometry.nodes();
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
            let mg = MultigridPreconditioner::with_bottom_limit(&matrix, geometry, 4)
                .map_err(|e| format!("build failed: {e}"))?;
            let jac = JacobiPreconditioner::new(&matrix).map_err(|e| e.to_string())?;
            let mut ws = CgWorkspace::new();
            let mut x_mg = vec![0.0; n];
            solve_cg(&matrix, &b, &mut x_mg, &mg, &mut ws, 1e-12, 50 * n.max(20))
                .map_err(|e| format!("mgcg solve failed: {e}"))?;
            let mut x_jac = vec![0.0; n];
            solve_cg(
                &matrix,
                &b,
                &mut x_jac,
                &jac,
                &mut ws,
                1e-12,
                50 * n.max(20),
            )
            .map_err(|e| format!("jacobi solve failed: {e}"))?;
            let scale_x = x_jac.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            let diff = crate::linalg::vec_ops::max_abs_diff(&x_mg, &x_jac);
            check::ensure(diff <= 1e-8 * scale_x, || {
                format!("solutions diverge: {diff:.3e} (scale {scale_x:.3e})")
            })
        });
    }

    #[test]
    fn iteration_counts_stay_flat_as_the_grid_refines() {
        // The whole point of multigrid: iteration counts must not grow
        // with grid size, while Jacobi-CG's roughly track the diameter.
        let mut mg_iters = Vec::new();
        for side in [16usize, 32, 64] {
            let geometry = GridGeometry::new(side, side, 1, 0);
            let matrix = grid_laplacian(geometry, &[1.0], 1e-3);
            let n = geometry.nodes();
            let b = vec![1.0; n];
            let mg = MultigridPreconditioner::with_bottom_limit(&matrix, geometry, 64).unwrap();
            let mut ws = CgWorkspace::new();
            let mut x = vec![0.0; n];
            let stats = solve_cg(&matrix, &b, &mut x, &mg, &mut ws, 1e-10, 10 * n).unwrap();
            mg_iters.push(stats.iterations);
        }
        let spread = mg_iters.iter().max().unwrap() - mg_iters.iter().min().unwrap();
        assert!(
            spread <= mg_iters[0],
            "mgcg iteration counts grew with grid size: {mg_iters:?}"
        );
        assert!(
            *mg_iters.last().unwrap() <= 30,
            "mgcg needs too many iterations: {mg_iters:?}"
        );
    }

    #[test]
    fn tiny_systems_skip_the_hierarchy() {
        let geometry = GridGeometry::new(4, 4, 1, 0);
        let matrix = grid_laplacian(geometry, &[1.0], 0.5);
        let mg = MultigridPreconditioner::new(&matrix, geometry).unwrap();
        assert_eq!(mg.num_levels(), 0);
        // Bottom-only: the preconditioner is an exact solve, so CG
        // converges immediately.
        let b = vec![1.0; 16];
        let mut x = vec![0.0; 16];
        let stats = solve_cg(&matrix, &b, &mut x, &mg, &mut CgWorkspace::new(), 1e-12, 10).unwrap();
        assert!(stats.iterations <= 2, "iterations {}", stats.iterations);
    }

    #[test]
    fn update_tracks_patched_values() {
        let geometry = GridGeometry::new(12, 10, 1, 0);
        let mut matrix = grid_laplacian(geometry, &[1.0, 0.4], 0.2);
        let mut mg = MultigridPreconditioner::with_bottom_limit(&matrix, geometry, 8).unwrap();
        // Patch the values (keep the pattern), as the PDN gating path does.
        for v in matrix.values_mut() {
            *v *= 1.7;
        }
        mg.update(&matrix).unwrap();
        let fresh = MultigridPreconditioner::with_bottom_limit(&matrix, geometry, 8).unwrap();
        for l in 0..mg.num_levels() {
            let a = mg.level_matrix(l);
            let f = fresh.level_matrix(l);
            let diff = crate::linalg::vec_ops::max_abs_diff(a.values(), f.values());
            assert!(diff <= 1e-12, "level {l} drifted after update: {diff}");
        }
        let diff = crate::linalg::vec_ops::max_abs_diff(
            mg.bottom_matrix().values(),
            fresh.bottom_matrix().values(),
        );
        assert!(diff <= 1e-12, "bottom drifted after update: {diff}");
    }

    #[test]
    fn rejects_mismatched_geometry() {
        let geometry = GridGeometry::new(4, 4, 1, 0);
        let matrix = grid_laplacian(geometry, &[1.0], 0.5);
        let wrong = GridGeometry::new(5, 4, 1, 0);
        assert!(matches!(
            MultigridPreconditioner::new(&matrix, wrong),
            Err(Error::DimensionMismatch { .. })
        ));
    }
}
