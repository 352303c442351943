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
//! [`solve_cg`](super::solve_cg) (a [`VCycle`] on the fine matrix the
//! caller keeps), it turns the hundreds-of-iterations
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

/// One smoothed level of the hierarchy. Its operator is not stored
/// here: level 0's is the caller's matrix, and every other level's is
/// the `coarse` of the level above it.
#[derive(Debug, Clone)]
struct Level {
    /// Inverse diagonal of the level's operator, for the damped-Jacobi
    /// smoother.
    inv_diag: Vec<f64>,
    /// Prolongation from the next-coarser level into this one.
    p: CsrMatrix,
    /// Restriction `R = Pᵀ` from this level to the next-coarser one.
    r: CsrMatrix,
    /// The next-coarser level's operator, the Galerkin product `R·A·P`.
    coarse: CsrMatrix,
}

/// Per-level scratch of one V-cycle; lives behind a `Mutex` so
/// [`Preconditioner::apply_into`] can stay `&self` (CG call sites share
/// the preconditioner immutably) while the cycle remains allocation-free.
#[derive(Debug, Default)]
struct Work {
    /// Per level below the finest, the bottom last: the restricted
    /// right-hand side and the iterate. The finest level's are the
    /// caller's `r` and `z`.
    rhs: Vec<Vec<f64>>,
    z: Vec<Vec<f64>>,
    /// Per smoothed level: a product/residual buffer.
    tmp: Vec<Vec<f64>>,
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
/// The hierarchy keeps no copy of the fine matrix: its owner keeps that
/// matrix anyway, and hands it to [`MultigridPreconditioner::v_cycle`],
/// whose [`VCycle`] is the preconditioner CG applies.
///
/// Each coarse operator is formed row by row, reading rows of `A·P` as
/// it needs them, so `A·P` is never held whole; it equals
/// `R.multiply(&A.multiply(&P))` bit for bit (see [`CsrMatrix::multiply`]).
#[derive(Debug)]
pub struct MultigridPreconditioner {
    geometry: GridGeometry,
    bottom_limit: usize,
    levels: Vec<Level>,
    /// The LDLᵀ factor of the coarsest operator: the last level's
    /// `coarse`, or the fine matrix itself when no level is smoothed.
    bottom: LdltFactor,
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
        check_square(matrix, n)?;
        if n == 0 {
            return Err(Error::invalid_argument("empty multigrid geometry"));
        }
        let mut levels: Vec<Level> = Vec::new();
        let mut g = geometry;
        while g.nodes() > bottom_nodes.max(1) {
            let cg = g.coarsen();
            if cg.nodes() >= g.nodes() {
                break; // 1×1 layers (or extra-only): nothing left to coarsen.
            }
            let a = levels.last().map_or(matrix, |above| &above.coarse);
            let p = prolongation(g, cg);
            let r = p.transpose();
            let coarse = galerkin_product(&r, a, &p)?;
            let inv_diag = inverse_diag(a)?;
            levels.push(Level {
                inv_diag,
                p,
                r,
                coarse,
            });
            g = cg;
        }
        let bottom = LdltFactor::new(levels.last().map_or(matrix, |l| &l.coarse))?;
        let mut pre = MultigridPreconditioner {
            geometry,
            bottom_limit: bottom_nodes,
            levels,
            bottom,
            work: Mutex::new(Work::default()),
        };
        pre.size_work();
        Ok(pre)
    }

    /// Re-derives the numeric hierarchy from `matrix`: when its sparsity
    /// pattern matches the matrix the hierarchy was built from (the
    /// cached-matrix-with-patched-values case), the transfer operators
    /// and every coarse pattern are reused, the Galerkin products refilled
    /// in place, and the bottom factor refreshed via the values-only
    /// [`LdltFactor::refactor`] fast path; otherwise the full hierarchy
    /// is rebuilt.
    ///
    /// With smoothed levels the match is exact: the transfer operators
    /// depend on the geometry alone, so the hierarchy depends on the
    /// pattern only through the coarse patterns, which the refill checks
    /// row by row. With none, the hierarchy is the bottom factor of
    /// `matrix` itself, which [`LdltFactor::refactor`] refuses when its
    /// entry count or pattern differs: such a matrix is rebuilt too.
    ///
    /// # Errors
    ///
    /// See [`MultigridPreconditioner::new`].
    pub fn update(&mut self, matrix: &CsrMatrix) -> Result<()> {
        check_square(matrix, self.geometry.nodes())?;
        for l in 0..self.levels.len() {
            let (upper, lower) = self.levels.split_at_mut(l);
            let a = upper.last().map_or(matrix, |above| &above.coarse);
            let lev = &mut lower[0];
            lev.inv_diag = inverse_diag(a)?;
            if !galerkin_refill(&lev.r, a, &lev.p, &mut lev.coarse) {
                return self.rebuild(matrix);
            }
        }
        let bottom = self.levels.last().map_or(matrix, |l| &l.coarse);
        match self.bottom.refactor(bottom) {
            // With no smoothed level: `matrix` has another pattern.
            Err(Error::DimensionMismatch { .. } | Error::PatternMismatch) => self.rebuild(matrix),
            refactored => refactored,
        }
    }

    /// Replaces the hierarchy with a fresh build for `matrix`.
    fn rebuild(&mut self, matrix: &CsrMatrix) -> Result<()> {
        *self = Self::with_bottom_limit(matrix, self.geometry, self.bottom_limit)?;
        Ok(())
    }

    /// Number of smoothed levels above the direct bottom solve (0 when
    /// the whole system fits under the bottom limit).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The Galerkin operator `R·A·P` that smoothed level `level` hands
    /// down: level `level + 1`'s operator, or, from the last level, the
    /// one solved directly at the bottom. Level 0's own operator is the
    /// fine matrix, which the hierarchy does not hold.
    ///
    /// # Panics
    ///
    /// Panics when `level >= num_levels()`.
    pub fn coarse_matrix(&self, level: usize) -> &CsrMatrix {
        &self.levels[level].coarse
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

    /// The preconditioner CG applies: one V-cycle whose finest level is
    /// `fine`, the matrix the hierarchy was built or last updated from.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] when `fine` is not square of the
    /// hierarchy's dimension.
    pub fn v_cycle<'a>(&'a self, fine: &'a CsrMatrix) -> Result<VCycle<'a>> {
        check_square(fine, self.geometry.nodes())?;
        Ok(VCycle { mg: self, fine })
    }

    /// Sizes every V-cycle buffer for its level so `apply_into` never
    /// allocates.
    fn size_work(&mut self) {
        let work = self.work.get_mut().unwrap_or_else(|e| e.into_inner());
        let below = |l: &Level| vec![0.0; l.coarse.rows()];
        work.rhs = self.levels.iter().map(below).collect();
        work.z = self.levels.iter().map(below).collect();
        work.tmp = self.levels.iter().map(|l| vec![0.0; l.p.rows()]).collect();
    }

    /// One V(1,1) cycle on `A·z = r` from a zero initial guess, with
    /// `fine` as level 0's operator. Level 0 smooths straight in `r` and
    /// `z`.
    fn vcycle(&self, fine: &CsrMatrix, r: &[f64], z: &mut [f64]) -> Result<()> {
        let work = &mut *self.work.lock().unwrap_or_else(|e| e.into_inner());
        let Work {
            rhs,
            z: iterate,
            tmp,
            ldlt_ws,
        } = work;
        let depth = self.levels.len();
        if depth == 0 {
            return self.bottom.solve_into(r, z, ldlt_ws);
        }
        let operator = |l: usize| match l {
            0 => fine,
            _ => &self.levels[l - 1].coarse,
        };
        // Down sweep: pre-smooth, form the residual, restrict.
        for (l, lev) in self.levels.iter().enumerate() {
            let (above, below) = rhs.split_at_mut(l);
            let (r_l, z_l) = match l {
                0 => (r, &mut *z),
                _ => (&above[l - 1][..], &mut iterate[l - 1][..]),
            };
            let tmp_l = &mut tmp[l];
            for i in 0..r_l.len() {
                z_l[i] = JACOBI_OMEGA * lev.inv_diag[i] * r_l[i];
            }
            operator(l).mul_vec_into(z_l, tmp_l);
            for i in 0..r_l.len() {
                tmp_l[i] = r_l[i] - tmp_l[i];
            }
            lev.r.mul_vec_into(tmp_l, &mut below[0]);
        }
        self.bottom
            .solve_into(&rhs[depth - 1], &mut iterate[depth - 1], ldlt_ws)?;
        // Up sweep: prolong the coarse correction, post-smooth.
        for (l, lev) in self.levels.iter().enumerate().rev() {
            let (above, below) = iterate.split_at_mut(l);
            let tmp_l = &mut tmp[l];
            lev.p.mul_vec_into(&below[0], tmp_l);
            let (r_l, z_l) = match l {
                0 => (r, &mut *z),
                _ => (&rhs[l - 1][..], &mut above[l - 1][..]),
            };
            for i in 0..r_l.len() {
                z_l[i] += tmp_l[i];
            }
            operator(l).mul_vec_into(z_l, tmp_l);
            for i in 0..r_l.len() {
                z_l[i] += JACOBI_OMEGA * lev.inv_diag[i] * (r_l[i] - tmp_l[i]);
            }
        }
        Ok(())
    }
}

/// One V-cycle of a [`MultigridPreconditioner`] on its fine matrix: the
/// [`Preconditioner`] of multigrid-CG, from
/// [`MultigridPreconditioner::v_cycle`].
#[derive(Debug, Clone, Copy)]
pub struct VCycle<'a> {
    mg: &'a MultigridPreconditioner,
    fine: &'a CsrMatrix,
}

impl Preconditioner for VCycle<'_> {
    fn dim(&self) -> usize {
        self.fine.rows()
    }

    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        // The bottom factor was validated at construction/update time, so
        // a triangular-solve failure here is unreachable for the SPD
        // systems this type accepts; fall back to identity (= unpreconditioned
        // CG step) rather than panicking inside the solver loop.
        if self.mg.vcycle(self.fine, r, z).is_err() {
            z.copy_from_slice(r);
        }
    }
}

/// [`Error::DimensionMismatch`] unless `matrix` is square of dimension `n`.
fn check_square(matrix: &CsrMatrix, n: usize) -> Result<()> {
    match matrix.rows() == n && matrix.cols() == n {
        true => Ok(()),
        false => Err(Error::DimensionMismatch {
            expected: n,
            actual: matrix.rows(),
        }),
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
    slot_of: Vec<Option<u32>>,
    /// Kept rows of `A·P` as `(column, value)` in formation order.
    slots: Vec<Vec<(u32, f64)>>,
    free: Vec<u32>,
    /// Dense accumulator, marker and touched columns of the coarse row.
    acc: Vec<f64>,
    mark: Vec<usize>,
    cols: Vec<u32>,
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
    /// columns, unsorted, in `cols`, and returns the row's stamp, which
    /// marks exactly those columns: `acc[J] += R[row, i]·(A·P)[i, J]`
    /// over the entries `i` of `R`'s row. Both sums run in exactly
    /// [`CsrMatrix::multiply`]'s order (the left factor's row in stored
    /// order, each sum from 0.0), so the result equals
    /// `R.multiply(&A.multiply(&P))` bit for bit.
    fn accumulate_row(&mut self, row: usize) -> usize {
        let r = self.r;
        self.stamp += 1;
        let row_stamp = self.stamp;
        self.cols.clear();
        for kr in r.row_range(row) {
            let (fine, weight) = (r.col_idx[kr] as usize, r.values[kr]);
            let slot = match self.slot_of[fine] {
                Some(slot) => slot,
                None => self.form_ap_row(fine),
            };
            for &(col, v) in &self.slots[slot as usize] {
                if self.mark[col as usize] != row_stamp {
                    self.mark[col as usize] = row_stamp;
                    self.cols.push(col);
                }
                self.acc[col as usize] += weight * v;
            }
            let p = self.p;
            if p.col_idx[p.row_range(fine)].last() == Some(&(row as u32)) {
                self.slot_of[fine] = None;
                self.free.push(slot);
            }
        }
        row_stamp
    }

    /// Forms row `fine` of `A·P` into a free slot, as
    /// [`CsrMatrix::multiply`] forms it, and returns the slot.
    fn form_ap_row(&mut self, fine: usize) -> u32 {
        let (a, p) = (self.a, self.p);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Vec::new());
            (self.slots.len() - 1) as u32
        });
        self.stamp += 1;
        let row = &mut self.slots[slot as usize];
        row.clear();
        for ka in a.row_range(fine) {
            let av = a.values[ka];
            for kp in p.row_range(a.col_idx[ka] as usize) {
                let col = p.col_idx[kp];
                if self.ap_mark[col as usize] != self.stamp {
                    self.ap_mark[col as usize] = self.stamp;
                    row.push((col, 0.0));
                }
                self.ap[col as usize] += av * p.values[kp];
            }
        }
        for (col, v) in row.iter_mut() {
            *v = std::mem::take(&mut self.ap[*col as usize]);
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
///
/// # Errors
///
/// [`Error::InvalidArgument`] when the product would store more than
/// `u32::MAX` entries.
fn galerkin_product(r: &CsrMatrix, a: &CsrMatrix, p: &CsrMatrix) -> Result<CsrMatrix> {
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
            values.push(std::mem::take(&mut g.acc[col as usize]));
        }
        row_ptr.push(u32::try_from(col_idx.len()).map_err(|_| {
            Error::invalid_argument("a Galerkin product stores more than u32::MAX entries")
        })?);
    }
    col_idx.shrink_to_fit();
    values.shrink_to_fit();
    Ok(CsrMatrix {
        rows: r.rows,
        cols: p.cols,
        row_ptr,
        col_idx,
        values,
    })
}

/// Refills `coarse`, whose pattern [`galerkin_product`] built from
/// operators of the same patterns as `r` and `p`, with the values of
/// `R·A·P`, in place. Returns whether `R·A·P` has `coarse`'s pattern
/// (else `coarse` is left part-filled): each row must touch exactly the
/// columns the row stores.
fn galerkin_refill(r: &CsrMatrix, a: &CsrMatrix, p: &CsrMatrix, coarse: &mut CsrMatrix) -> bool {
    let mut g = Galerkin::new(r, a, p);
    for row in 0..coarse.rows {
        let stamp = g.accumulate_row(row);
        let range = coarse.row_range(row);
        if g.cols.len() != range.len() {
            return false;
        }
        for k in range {
            let col = coarse.col_idx[k] as usize;
            if g.mark[col] != stamp {
                return false;
            }
            coarse.values[k] = std::mem::take(&mut g.acc[col]);
        }
    }
    true
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
            for depth in 0..mg.num_levels() {
                let a = mg.coarse_matrix(depth);
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
    /// level above, bit for bit, where level 0's `A` is `fine`.
    fn galerkin_is_exact(mg: &MultigridPreconditioner, fine: &CsrMatrix) -> check::TestResult {
        for l in 0..mg.num_levels() {
            let a = match l {
                0 => fine,
                _ => mg.coarse_matrix(l - 1),
            };
            let explicit = mg
                .restriction(l)
                .multiply(&a.multiply(mg.prolongation(l)).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let coarse = mg.coarse_matrix(l);
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
                galerkin_is_exact(&mg, &matrix)?;
                // Refilled in place for new values, as the PDN's patches do:
                // a stronger ground path on every third node.
                for i in (0..matrix.rows()).step_by(3) {
                    if let Some(k) = matrix.entry_index(i, i) {
                        matrix.values_mut()[k] += 0.37 * scale;
                    }
                }
                mg.update(&matrix)
                    .map_err(|e| format!("update failed: {e}"))?;
                galerkin_is_exact(&mg, &matrix)
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
            let cycle = mg.v_cycle(&matrix).map_err(|e| e.to_string())?;
            solve_cg(
                &matrix,
                &b,
                &mut x_mg,
                &cycle,
                &mut ws,
                1e-12,
                50 * n.max(20),
            )
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
            let cycle = mg.v_cycle(&matrix).unwrap();
            let stats = solve_cg(&matrix, &b, &mut x, &cycle, &mut ws, 1e-10, 10 * n).unwrap();
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
        let cycle = mg.v_cycle(&matrix).unwrap();
        let stats = solve_cg(
            &matrix,
            &b,
            &mut x,
            &cycle,
            &mut CgWorkspace::new(),
            1e-12,
            10,
        )
        .unwrap();
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
            let a = mg.coarse_matrix(l);
            let f = fresh.coarse_matrix(l);
            let diff = crate::linalg::vec_ops::max_abs_diff(a.values(), f.values());
            assert!(
                diff <= 1e-12,
                "level {} drifted after update: {diff}",
                l + 1
            );
        }
    }

    #[test]
    fn update_rebuilds_for_a_new_pattern() {
        let geometry = GridGeometry::new(12, 10, 1, 0);
        let matrix = grid_laplacian(geometry, &[1.0, 0.4], 0.2);
        let n = matrix.rows();
        let mut b = TripletBuilder::new(n, n);
        for (r, c, v) in matrix.iter_entries() {
            b.add(r, c, v);
        }
        // A coupling between far corners: coarse entries the hierarchy
        // built from `matrix` does not store.
        for (u, v) in [(0, n - 1), (n - 1, 0)] {
            b.add(u, u, 0.3);
            b.add(u, v, -0.3);
        }
        let rewired = b.build();
        let mut mg = MultigridPreconditioner::with_bottom_limit(&matrix, geometry, 8).unwrap();
        mg.update(&rewired).unwrap();
        let fresh = MultigridPreconditioner::with_bottom_limit(&rewired, geometry, 8).unwrap();
        assert_eq!(mg.num_levels(), fresh.num_levels());
        for l in 0..mg.num_levels() {
            assert_eq!(
                mg.coarse_matrix(l),
                fresh.coarse_matrix(l),
                "level {}",
                l + 1
            );
        }
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
