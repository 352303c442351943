//! Sparse direct LDLᵀ factorization for symmetric positive definite
//! systems that are solved many times.
//!
//! The iterative solvers in [`super`] pay O(iterations · nnz) per solve.
//! When the same matrix — or the same sparsity pattern with patched
//! values — is solved thousands of times (per-domain PDN IR drop inside
//! the noise loop), a direct method amortises one factorization into
//! O(nnz(L)) triangular solves. This module provides that path with no
//! external dependencies:
//!
//! * [`min_degree_ordering`] — a greedy minimum-degree fill-reducing
//!   ordering over the CSR pattern, with dense "hub" rows (a heat-sink
//!   node coupled to every spreader cell) pinned to the end of the
//!   elimination order so they cannot trigger catastrophic fill;
//! * [`LdltFactor::new`] — elimination-tree symbolic analysis plus an
//!   up-looking numeric LDLᵀ factorization (Davis' `LDL` algorithm);
//! * [`LdltFactor::refactor`] — the values-only fast path: reuses the
//!   ordering, elimination tree, and the L pattern, re-running just the
//!   numeric pass with zero allocation;
//! * [`LdltFactor::solve_into`] / [`LdltFactor::solve_multi`] —
//!   allocation-free permute → forward → diagonal → backward → unpermute
//!   solves into caller-provided buffers, single or batched
//!   right-hand-sides.
//!
//! [`SolverBackend`] names the solver families; configs thread it through
//! the thermal, PDN, and engine layers, and the `SIMKIT_SOLVER`
//! environment variable overrides it globally.

use super::CsrMatrix;
use crate::error::{Error, Result};

/// Solver family used for the SPD systems in the thermal and PDN models.
///
/// Each call site resolves `Auto` once, when its model is built (see
/// DESIGN.md §11 and [`SolverBackend::resolve`]):
///
/// * steady thermal solves take multigrid-CG at
///   [`MGCG_MIN_NODES`](crate::linalg::multigrid::MGCG_MIN_NODES) nodes
///   and more, Jacobi-CG below;
/// * PDN domain solves factor: the ungated IR systems are
///   ill-conditioned enough that cold CG needs thousands of iterations,
///   and the factor is reused across every gating state via
///   [`LdltFactor::refactor`].
///
/// The built solver ([`SpdSolver`](crate::linalg::SpdSolver)) lives with
/// the thermal model or the PDN domain. The thermal transient stepper
/// is the same warm-started Jacobi-CG under every backend; the backend
/// governs steady and PDN solves.
///
/// The `SIMKIT_SOLVER` environment variable (`auto | direct | cg | mgcg`)
/// overrides the configured value everywhere a config constructor
/// consults [`SolverBackend::env_default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Let the call site pick: multigrid-CG or Jacobi-CG by grid size
    /// for steady thermal solves, direct for PDN solves.
    #[default]
    Auto,
    /// Sparse LDLᵀ factorization with cached symbolic structure.
    Direct,
    /// Jacobi-preconditioned conjugate gradient.
    Cg,
    /// Geometric-multigrid-preconditioned conjugate gradient
    /// ([`crate::linalg::MultigridPreconditioner`]): grid-size-independent
    /// iteration counts, the backend of choice for grids an order of
    /// magnitude finer than the paper's configs.
    Mgcg,
}

impl SolverBackend {
    /// This backend, with [`SolverBackend::Auto`] replaced by `auto`:
    /// each call site states what `Auto` means for its systems.
    pub fn resolve(self, auto: SolverBackend) -> SolverBackend {
        match self {
            SolverBackend::Auto => auto,
            pinned => pinned,
        }
    }

    /// Parses a backend name as accepted by `SIMKIT_SOLVER`.
    pub fn parse(text: &str) -> Option<Self> {
        match text.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SolverBackend::Auto),
            "direct" | "ldlt" => Some(SolverBackend::Direct),
            "cg" => Some(SolverBackend::Cg),
            "mgcg" | "multigrid" => Some(SolverBackend::Mgcg),
            _ => None,
        }
    }

    /// The backend requested by the `SIMKIT_SOLVER` environment variable,
    /// or `None` when it is unset.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] listing the accepted names when the
    /// variable is set to anything [`SolverBackend::parse`] rejects.
    pub fn from_env() -> Result<Option<Self>> {
        match std::env::var("SIMKIT_SOLVER") {
            Ok(value) => Self::parse(&value).map(Some).ok_or_else(|| {
                Error::invalid_argument(format!(
                    "SIMKIT_SOLVER={value:?} is not a solver backend \
                     (expected auto | direct | cg | mgcg)"
                ))
            }),
            Err(_) => Ok(None),
        }
    }

    /// Default for config constructors: the `SIMKIT_SOLVER` override when
    /// present, [`SolverBackend::Auto`] otherwise. An unparseable value
    /// also yields `Auto` here; binaries reject it at start-up through
    /// [`SolverBackend::from_env`].
    pub fn env_default() -> Self {
        Self::from_env().ok().flatten().unwrap_or_default()
    }

    /// Stable lowercase name (telemetry field value, CLI echo).
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::Auto => "auto",
            SolverBackend::Direct => "direct",
            SolverBackend::Cg => "cg",
            SolverBackend::Mgcg => "mgcg",
        }
    }
}

impl std::fmt::Display for SolverBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Degree at or above which a row counts as a "hub" for
/// [`min_degree_ordering`]: hubs are excluded from the minimum-degree
/// graph and eliminated last, so a dense coupling row (the heat-sink node
/// touches every spreader cell) cannot blow up the quotient-graph update
/// cost or the fill of earlier columns.
fn hub_threshold(n: usize) -> usize {
    16.max((n as f64).sqrt() as usize)
}

/// Greedy minimum-degree fill-reducing ordering over the symmetric CSR
/// pattern. Returns the permutation `perm` where `perm[k]` is the
/// original index eliminated at step `k`.
///
/// The algorithm maintains the explicit elimination graph: eliminating
/// the minimum-degree node connects its neighbours into a clique. Ties
/// break on the lower node index, so the ordering is deterministic. Rows
/// whose degree reaches [`hub_threshold`] are pinned after all ordinary
/// rows (in index order); grid stencils never get there, so for the
/// thermal and PDN matrices this only moves the dense sink row last.
pub fn min_degree_ordering(matrix: &CsrMatrix) -> Vec<usize> {
    let n = matrix.rows();
    let threshold = hub_threshold(n);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut is_hub = vec![false; n];
    for (row, hub) in is_hub.iter_mut().enumerate() {
        let degree = matrix.row_entries(row).filter(|&(c, _)| c != row).count();
        *hub = degree >= threshold;
    }
    for row in 0..n {
        if is_hub[row] {
            continue;
        }
        adj[row] = matrix
            .row_entries(row)
            .map(|(c, _)| c)
            .filter(|&c| c != row && !is_hub[c])
            .collect();
        adj[row].sort_unstable();
        adj[row].dedup();
    }

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = (0..n)
        .filter(|&v| !is_hub[v])
        .map(|v| Reverse((adj[v].len(), v)))
        .collect();
    let mut eliminated = vec![false; n];
    let mut perm = Vec::with_capacity(n);
    let mut clique: Vec<usize> = Vec::new();
    let mut merged: Vec<usize> = Vec::new();
    while let Some(Reverse((degree, u))) = heap.pop() {
        if eliminated[u] || degree != adj[u].len() {
            continue; // stale heap entry; the live one is elsewhere
        }
        eliminated[u] = true;
        perm.push(u);
        clique.clear();
        clique.extend(adj[u].iter().copied().filter(|&v| !eliminated[v]));
        for &v in &clique {
            // adj[v] ← (adj[v] ∪ clique) \ {u, v}; both inputs are sorted.
            merged.clear();
            let (a, b) = (&adj[v], &clique);
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                let next = match (a.get(i), b.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        i += 1;
                        j += 1;
                        x
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        i += 1;
                        x
                    }
                    (Some(_), Some(&y)) => {
                        j += 1;
                        y
                    }
                    (Some(&x), None) => {
                        i += 1;
                        x
                    }
                    (None, Some(&y)) => {
                        j += 1;
                        y
                    }
                    (None, None) => unreachable!(),
                };
                if next != u && next != v && !eliminated[next] {
                    merged.push(next);
                }
            }
            std::mem::swap(&mut adj[v], &mut merged);
            heap.push(Reverse((adj[v].len(), v)));
        }
        adj[u] = Vec::new();
    }
    perm.extend((0..n).filter(|&v| is_hub[v]));
    perm
}

/// Scratch buffer for [`LdltFactor::solve_into`]: one permuted work
/// vector, grown on first use and reused afterwards.
#[derive(Debug, Clone, Default)]
pub struct LdltWorkspace {
    w: Vec<f64>,
}

impl LdltWorkspace {
    /// An empty workspace; sized on first solve.
    pub fn new() -> Self {
        LdltWorkspace::default()
    }

    /// Capacity of the work buffer — stable across repeated same-size
    /// solves, which is how tests pin down the zero-allocation property.
    pub fn capacity(&self) -> usize {
        self.w.capacity()
    }

    fn ensure(&mut self, n: usize) {
        if self.w.len() < n {
            self.w.resize(n, 0.0);
        }
    }
}

/// A sparse LDLᵀ factorization `P·A·Pᵀ = L·D·Lᵀ` of a symmetric positive
/// definite [`CsrMatrix`].
///
/// The ordering `P` ([`min_degree_ordering`]), the elimination tree, and
/// the pattern of `L` depend only on the sparsity pattern, so they are
/// computed once in [`LdltFactor::new`] and reused by
/// [`LdltFactor::refactor`] when only the values change (the PDN patches
/// regulator conductances per gating decision). All numeric scratch lives
/// inside the factor, so refactorization and solves allocate nothing.
///
/// Every index the factor stores (the permutations, the elimination
/// tree, L's column pointers and row indices, and the numeric pass's
/// marks) is a `u32`, half the bytes of `usize`: a factor has at most
/// `u32::MAX − 1` rows and `u32::MAX` entries in L.
#[derive(Debug, Clone)]
pub struct LdltFactor {
    n: usize,
    nnz_a: usize,
    /// [`CsrMatrix::pattern_fingerprint`] of the factored matrix.
    pattern_a: u64,
    /// `perm[k]` = original row eliminated at step `k`.
    perm: Vec<u32>,
    /// Inverse permutation: `iperm[perm[k]] == k`.
    iperm: Vec<u32>,
    /// Elimination tree: parent of column `k`, [`NONE`] at roots.
    parent: Vec<u32>,
    /// Column pointers of L (strictly lower triangular part).
    lp: Vec<u32>,
    /// Row indices of L, column-major within `lp` windows.
    li: Vec<u32>,
    /// Values of L matching `li`.
    lx: Vec<f64>,
    /// The diagonal D.
    d: Vec<f64>,
    // Numeric-pass scratch, kept so `refactor` is allocation-free.
    y: Vec<f64>,
    flag: Vec<u32>,
    pattern: Vec<u32>,
    lnz_next: Vec<u32>,
}

/// No node: the elimination-tree parent of a root, and the numeric
/// pass's mark of a node no row has reached. Never a row index, since a
/// factor has fewer than `u32::MAX` rows.
const NONE: u32 = u32::MAX;

impl LdltFactor {
    /// Orders, symbolically analyses, and numerically factors `matrix`.
    ///
    /// `matrix` must be symmetric; only entries with permuted column ≤
    /// row are read, which covers both triangles of a symmetric matrix.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] — `matrix` is not square;
    /// * [`Error::InvalidArgument`] — `matrix` has `u32::MAX` rows or
    ///   more, or L would store more than `u32::MAX` entries;
    /// * [`Error::SingularMatrix`] — a row stores no diagonal entry;
    /// * [`Error::NotPositiveDefinite`] — a pivot `D[k]` is not a
    ///   positive finite number.
    pub fn new(matrix: &CsrMatrix) -> Result<Self> {
        if matrix.rows() != matrix.cols() {
            return Err(Error::DimensionMismatch {
                expected: matrix.rows(),
                actual: matrix.cols(),
            });
        }
        let n = matrix.rows();
        if n >= NONE as usize {
            return Err(Error::invalid_argument(format!(
                "a {n}-row LDLT factor does not fit u32 indices"
            )));
        }
        // Pivot pre-check: every row needs a stored diagonal, exactly as
        // the iterative solvers require. `diag_indices` is the same
        // single-pass scan the Jacobi preconditioner caches.
        if let Some(i) = matrix.diag_indices().iter().position(|slot| slot.is_none()) {
            return Err(Error::SingularMatrix { index: i });
        }
        // Every index below is under `n < u32::MAX`.
        let perm: Vec<u32> = min_degree_ordering(matrix)
            .into_iter()
            .map(|v| v as u32)
            .collect();
        let mut iperm = vec![0u32; n];
        for (k, &orig) in perm.iter().enumerate() {
            iperm[orig as usize] = k as u32;
        }

        // Symbolic analysis: elimination tree + per-column counts of L,
        // by following partial etree paths (Davis, "Direct Methods for
        // Sparse Linear Systems", algorithm LDL).
        let mut parent = vec![NONE; n];
        let mut flag = vec![NONE; n];
        let mut counts = vec![0u32; n];
        for k in 0..n {
            let k32 = k as u32;
            flag[k] = k32;
            for (col, _) in matrix.row_entries(perm[k] as usize) {
                let mut i = iperm[col] as usize;
                while i < k && flag[i] != k32 {
                    if parent[i] == NONE {
                        parent[i] = k32;
                    }
                    counts[i] += 1; // L(k, i) is structurally nonzero
                    flag[i] = k32;
                    i = parent[i] as usize;
                }
            }
        }
        let mut lp = Vec::with_capacity(n + 1);
        lp.push(0u32);
        let mut lnz = 0usize;
        for &count in &counts {
            lnz += count as usize;
            lp.push(u32::try_from(lnz).map_err(|_| {
                Error::invalid_argument("an LDLT factor's L stores more than u32::MAX entries")
            })?);
        }

        let mut factor = LdltFactor {
            n,
            nnz_a: matrix.nnz(),
            pattern_a: matrix.pattern_fingerprint(),
            perm,
            iperm,
            parent,
            lp,
            li: vec![0u32; lnz],
            lx: vec![0.0; lnz],
            d: vec![0.0; n],
            y: vec![0.0; n],
            flag,
            pattern: vec![0u32; n],
            // The counts are spent; `numeric` overwrites every cursor.
            lnz_next: counts,
        };
        factor.numeric(matrix)?;
        Ok(factor)
    }

    /// Re-runs the numeric factorization against new values with the
    /// cached ordering, elimination tree, and L pattern. Allocation-free.
    ///
    /// `matrix` must have the sparsity pattern the factor was built
    /// from — the contract of patching values through
    /// [`CsrMatrix::values_mut`]. The pattern is checked against a hash
    /// of the factored one (O(n + nnz), no allocation), since the numeric
    /// pass over another pattern would write past `L`'s column windows.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] — size or nnz differs from the
    ///   factored matrix;
    /// * [`Error::PatternMismatch`] — same size and nnz, another pattern;
    /// * [`Error::NotPositiveDefinite`] — a pivot is not positive finite.
    pub fn refactor(&mut self, matrix: &CsrMatrix) -> Result<()> {
        if matrix.rows() != self.n || matrix.cols() != self.n || matrix.nnz() != self.nnz_a {
            return Err(Error::DimensionMismatch {
                expected: self.n,
                actual: matrix.rows(),
            });
        }
        if matrix.pattern_fingerprint() != self.pattern_a {
            return Err(Error::PatternMismatch);
        }
        self.numeric(matrix)
    }

    /// Up-looking numeric pass: computes row `k` of L from rows `< k`
    /// via the elimination-tree reach, in one sweep over the matrix.
    fn numeric(&mut self, matrix: &CsrMatrix) -> Result<()> {
        let n = self.n;
        self.flag.iter_mut().for_each(|f| *f = NONE);
        self.y.iter_mut().for_each(|y| *y = 0.0);
        for k in 0..n {
            let k32 = k as u32;
            self.flag[k] = k32;
            self.lnz_next[k] = self.lp[k];
            // Scatter permuted row k (columns ≤ k) into y, collecting the
            // nonzero pattern of L's row k in topological order: each
            // etree path is pushed onto the low end of `pattern` and
            // popped onto the high end, so ancestors come out last.
            let mut top = n;
            let mut len = 0usize;
            for (col, val) in matrix.row_entries(self.perm[k] as usize) {
                let j = self.iperm[col] as usize;
                if j > k {
                    continue; // upper triangle of the permuted matrix
                }
                self.y[j] += val;
                let mut i = j;
                while self.flag[i] != k32 {
                    self.pattern[len] = i as u32;
                    len += 1;
                    self.flag[i] = k32;
                    i = self.parent[i] as usize;
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    self.pattern[top] = self.pattern[len];
                }
            }
            let mut dk = self.y[k];
            self.y[k] = 0.0;
            for idx in top..n {
                let i = self.pattern[idx] as usize;
                let yi = self.y[i];
                self.y[i] = 0.0;
                let l_ki = yi / self.d[i];
                for p in self.lp[i] as usize..self.lnz_next[i] as usize {
                    self.y[self.li[p] as usize] -= self.lx[p] * yi;
                }
                dk -= l_ki * yi;
                let slot = self.lnz_next[i] as usize;
                self.li[slot] = k32;
                self.lx[slot] = l_ki;
                self.lnz_next[i] += 1;
            }
            if !(dk.is_finite() && dk > 0.0) {
                return Err(Error::NotPositiveDefinite {
                    index: self.perm[k] as usize,
                    pivot: dk,
                });
            }
            self.d[k] = dk;
        }
        Ok(())
    }

    /// Stored nonzeros in the strictly lower triangle of L.
    pub fn lnz(&self) -> usize {
        self.lp[self.n] as usize
    }

    /// The index range into L's row indices and values of column `j`.
    fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        self.lp[j] as usize..self.lp[j + 1] as usize
    }

    /// Solves `A·x = b` through the factorization: permute, forward
    /// substitution with L, diagonal scaling, backward substitution with
    /// Lᵀ, unpermute. Allocation-free once `ws` is sized.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `b` or `x` differs from
    /// the factored dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64], ws: &mut LdltWorkspace) -> Result<()> {
        for len in [b.len(), x.len()] {
            if len != self.n {
                return Err(Error::DimensionMismatch {
                    expected: self.n,
                    actual: len,
                });
            }
        }
        ws.ensure(self.n);
        let w = &mut ws.w[..self.n];
        for (k, &orig) in self.perm.iter().enumerate() {
            w[k] = b[orig as usize];
        }
        for j in 0..self.n {
            let wj = w[j];
            for p in self.col_range(j) {
                w[self.li[p] as usize] -= self.lx[p] * wj;
            }
        }
        for (wj, dj) in w.iter_mut().zip(&self.d) {
            *wj /= dj;
        }
        for j in (0..self.n).rev() {
            let mut wj = w[j];
            for p in self.col_range(j) {
                wj -= self.lx[p] * w[self.li[p] as usize];
            }
            w[j] = wj;
        }
        for (k, &orig) in self.perm.iter().enumerate() {
            x[orig as usize] = w[k];
        }
        Ok(())
    }

    /// Multi-right-hand-side [`solve_into`](LdltFactor::solve_into):
    /// `b` and `x` hold `b.len() / n` concatenated vectors of length `n`
    /// each, solved in order through the same workspace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `b` and `x` differ in
    /// length or are not a whole number of `n`-vectors.
    pub fn solve_multi(&self, b: &[f64], x: &mut [f64], ws: &mut LdltWorkspace) -> Result<()> {
        if b.len() != x.len() || !b.len().is_multiple_of(self.n.max(1)) {
            return Err(Error::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        for (bc, xc) in b.chunks_exact(self.n).zip(x.chunks_exact_mut(self.n)) {
            self.solve_into(bc, xc, ws)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{vec_ops, TripletBuilder};
    use super::*;
    use crate::rng::DeterministicRng;

    /// SPD tridiagonal [−1, 2.5, −1].
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

    /// 2-D 5-point grid Laplacian with a grounded diagonal, plus an
    /// optional dense sink row coupled to every cell — the thermal
    /// matrix shape.
    fn grid_laplacian(nx: usize, ny: usize, sink: bool) -> CsrMatrix {
        let cells = nx * ny;
        let n = cells + usize::from(sink);
        let mut b = TripletBuilder::new(n, n);
        for j in 0..ny {
            for i in 0..nx {
                let at = j * nx + i;
                let mut degree = 0;
                let mut couple = |other: usize, b: &mut TripletBuilder| {
                    b.add(at, other, -1.0);
                    degree += 1;
                };
                if i > 0 {
                    couple(at - 1, &mut b);
                }
                if i + 1 < nx {
                    couple(at + 1, &mut b);
                }
                if j > 0 {
                    couple(at - nx, &mut b);
                }
                if j + 1 < ny {
                    couple(at + nx, &mut b);
                }
                b.add(at, at, degree as f64 + 0.5 + f64::from(sink) * 0.2);
                if sink {
                    b.add(at, cells, -0.2);
                    b.add(cells, at, -0.2);
                }
            }
        }
        if sink {
            b.add(cells, cells, 0.2 * cells as f64 + 1.0);
        }
        b.build()
    }

    /// Random SPD matrix: Aᵀ·A-free construction — random symmetric
    /// off-diagonals with a dominant diagonal.
    fn random_spd(n: usize, rng: &mut DeterministicRng) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        let mut row_sums = vec![0.0f64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.bernoulli(0.2) {
                    let v = -rng.uniform_range(0.1, 1.0);
                    b.add(i, j, v);
                    b.add(j, i, v);
                    row_sums[i] += v.abs();
                    row_sums[j] += v.abs();
                }
            }
        }
        for (i, s) in row_sums.iter().enumerate() {
            b.add(i, i, s + rng.uniform_range(0.5, 1.5));
        }
        b.build()
    }

    fn assert_valid_permutation(perm: &[usize], n: usize) {
        assert_eq!(perm.len(), n);
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n, "index {p} out of range");
            assert!(!seen[p], "index {p} repeated");
            seen[p] = true;
        }
    }

    /// nnz(L) under a given ordering, via the same symbolic analysis the
    /// factor runs — used to compare fill across orderings.
    fn symbolic_fill(matrix: &CsrMatrix, perm: &[usize]) -> usize {
        let n = matrix.rows();
        let mut iperm = vec![0usize; n];
        for (k, &orig) in perm.iter().enumerate() {
            iperm[orig] = k;
        }
        let mut parent = vec![usize::MAX; n];
        let mut flag = vec![usize::MAX; n];
        let mut lnz = 0usize;
        for k in 0..n {
            flag[k] = k;
            for (col, _) in matrix.row_entries(perm[k]) {
                let mut i = iperm[col];
                while i < k && flag[i] != k {
                    if parent[i] == usize::MAX {
                        parent[i] = k;
                    }
                    lnz += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        lnz
    }

    #[test]
    fn ordering_is_a_valid_permutation() {
        let mut rng = DeterministicRng::new(0x0D0E);
        for n in [1, 2, 3, 17, 40] {
            let m = random_spd(n, &mut rng);
            assert_valid_permutation(&min_degree_ordering(&m), n);
        }
        let m = grid_laplacian(8, 7, true);
        assert_valid_permutation(&min_degree_ordering(&m), 8 * 7 + 1);
    }

    #[test]
    fn ordering_reduces_fill_on_grids() {
        let m = grid_laplacian(16, 16, false);
        let n = m.rows();
        let identity: Vec<usize> = (0..n).collect();
        let natural = symbolic_fill(&m, &identity);
        let ordered = symbolic_fill(&m, &min_degree_ordering(&m));
        // Natural order on an nx×ny grid fills the whole band (~nx per
        // column); minimum degree must beat it by a wide margin.
        assert!(
            ordered * 2 < natural,
            "min-degree fill {ordered} vs natural {natural}"
        );
    }

    #[test]
    fn ordering_pins_dense_hub_last() {
        let m = grid_laplacian(20, 20, true);
        let n = m.rows();
        let perm = min_degree_ordering(&m);
        assert_eq!(perm[n - 1], n - 1, "sink row must be eliminated last");
        // And fill stays grid-like: far below the n·√n of a band factor.
        let lnz = symbolic_fill(&m, &perm);
        assert!(
            lnz < 12 * n,
            "hub-last min-degree fill {lnz} too large for n={n}"
        );
    }

    #[test]
    fn factorization_round_trips_l_d_lt() {
        let mut rng = DeterministicRng::new(0x1D17);
        for n in [1, 2, 5, 24, 60] {
            let m = random_spd(n, &mut rng);
            let f = LdltFactor::new(&m).unwrap();
            // Reconstruct P·A·Pᵀ = L·D·Lᵀ densely and compare entrywise.
            let mut recon = vec![vec![0.0f64; n]; n];
            for (k, recon_row) in recon.iter_mut().enumerate() {
                recon_row[k] = f.d[k];
            }
            // recon = L·D·Lᵀ with L unit lower triangular stored by columns.
            let mut l = vec![vec![0.0f64; n]; n];
            for (j, lrow) in l.iter_mut().enumerate() {
                lrow[j] = 1.0;
            }
            for (j, p) in (0..n).flat_map(|j| f.col_range(j).map(move |p| (j, p))) {
                l[f.li[p] as usize][j] = f.lx[p];
            }
            for (r, recon_row) in recon.iter_mut().enumerate() {
                for (c, out) in recon_row.iter_mut().enumerate() {
                    *out = (0..n).map(|t| l[r][t] * f.d[t] * l[c][t]).sum();
                }
            }
            for (r, recon_row) in recon.iter().enumerate() {
                for (c, &got) in recon_row.iter().enumerate() {
                    let want = m.get(f.perm[r] as usize, f.perm[c] as usize);
                    assert!(
                        (got - want).abs() < 1e-10,
                        "n={n} ({r},{c}): got {got}, want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_solve_matches_cg() {
        let mut rng = DeterministicRng::new(0x50D1);
        for n in [1, 3, 30, 80] {
            let m = random_spd(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
            let b = m.mul_vec(&x_true).unwrap();
            let f = LdltFactor::new(&m).unwrap();
            let mut ws = LdltWorkspace::new();
            let mut x = vec![0.0; n];
            f.solve_into(&b, &mut x, &mut ws).unwrap();
            assert!(
                vec_ops::max_abs_diff(&x, &x_true) < 1e-9,
                "n={n}: direct error {}",
                vec_ops::max_abs_diff(&x, &x_true)
            );
            let cg = m.solve_cg(&b, None, 1e-12, 10_000).unwrap();
            assert!(vec_ops::max_abs_diff(&x, &cg) < 1e-8);
        }
    }

    #[test]
    fn solve_on_thermal_shaped_matrix() {
        let m = grid_laplacian(12, 9, true);
        let n = m.rows();
        let x_true: Vec<f64> = (0..n).map(|i| 40.0 + (i as f64 * 0.11).cos()).collect();
        let b = m.mul_vec(&x_true).unwrap();
        let f = LdltFactor::new(&m).unwrap();
        let mut ws = LdltWorkspace::new();
        let mut x = vec![0.0; n];
        f.solve_into(&b, &mut x, &mut ws).unwrap();
        assert!(vec_ops::max_abs_diff(&x, &x_true) < 1e-9);
        assert!(m.relative_residual(&b, &x) < 1e-12);
    }

    #[test]
    fn refactor_tracks_new_values() {
        let mut m = tridiag(40);
        let mut f = LdltFactor::new(&m).unwrap();
        let lnz = f.lnz();
        // Strengthen the diagonal in place (pattern unchanged) and refactor.
        let diag_idx: Vec<usize> = m.diag_indices().into_iter().map(Option::unwrap).collect();
        for &k in &diag_idx {
            m.values_mut()[k] = 4.0;
        }
        f.refactor(&m).unwrap();
        assert_eq!(f.lnz(), lnz, "refactor must not change the pattern");
        let x_true: Vec<f64> = (0..40).map(|i| i as f64 * 0.05).collect();
        let b = m.mul_vec(&x_true).unwrap();
        let mut ws = LdltWorkspace::new();
        let mut x = vec![0.0; 40];
        f.solve_into(&b, &mut x, &mut ws).unwrap();
        assert!(vec_ops::max_abs_diff(&x, &x_true) < 1e-10);
    }

    #[test]
    fn refactor_refuses_another_pattern_with_the_same_entry_count() {
        // tridiag(8) with its (0, 1) coupling moved to (0, 7): the same
        // size and nnz, another elimination tree.
        let n = 8;
        let mut f = LdltFactor::new(&tridiag(n)).unwrap();
        let mut b = TripletBuilder::new(n, n);
        for (r, c, v) in tridiag(n).iter_entries() {
            let (r, c) = match (r, c) {
                (0, 1) => (0, 7),
                (1, 0) => (7, 0),
                rc => rc,
            };
            b.add(r, c, v);
        }
        let moved = b.build();
        assert_eq!(
            (moved.nnz(), moved.get(0, 7), moved.get(0, 1)),
            (f.nnz_a, -1.0, 0.0)
        );
        assert_eq!(f.refactor(&moved), Err(Error::PatternMismatch));
        // The factor is untouched and still refactors its own pattern.
        f.refactor(&tridiag(n)).unwrap();
        let b = tridiag(n).mul_vec(&[1.0; 8]).unwrap();
        let mut x = vec![0.0; n];
        f.solve_into(&b, &mut x, &mut LdltWorkspace::new()).unwrap();
        assert!(vec_ops::max_abs_diff(&x, &[1.0; 8]) < 1e-12);
    }

    #[test]
    fn refactor_and_solve_are_allocation_free() {
        let m = tridiag(64);
        let mut f = LdltFactor::new(&m).unwrap();
        let b = vec![1.0; 64];
        let mut x = vec![0.0; 64];
        let mut ws = LdltWorkspace::new();
        f.solve_into(&b, &mut x, &mut ws).unwrap();
        let cap = ws.capacity();
        let (li_ptr, lx_ptr) = (f.li.as_ptr(), f.lx.as_ptr());
        for _ in 0..10 {
            f.refactor(&m).unwrap();
            f.solve_into(&b, &mut x, &mut ws).unwrap();
        }
        assert_eq!(ws.capacity(), cap);
        assert_eq!(f.li.as_ptr(), li_ptr, "refactor reallocated L indices");
        assert_eq!(f.lx.as_ptr(), lx_ptr, "refactor reallocated L values");
    }

    #[test]
    fn non_spd_matrix_is_rejected_by_name() {
        // Indefinite: negative diagonal entry.
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(1, 1, -2.0);
        let err = LdltFactor::new(&b.build()).unwrap_err();
        assert!(
            matches!(err, Error::NotPositiveDefinite { index: 1, pivot } if pivot < 0.0),
            "got {err:?}"
        );
        // Indefinite through elimination: off-diagonal dominates.
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 3.0);
        b.add(1, 0, 3.0);
        b.add(1, 1, 1.0);
        let err = LdltFactor::new(&b.build()).unwrap_err();
        assert!(matches!(err, Error::NotPositiveDefinite { .. }), "{err:?}");
        // Structurally missing diagonal is singular, not merely non-SPD.
        let mut b = TripletBuilder::new(2, 2);
        b.add(0, 0, 1.0);
        b.add(1, 0, 1.0);
        let err = LdltFactor::new(&b.build()).unwrap_err();
        assert!(matches!(err, Error::SingularMatrix { index: 1 }), "{err:?}");
    }

    #[test]
    fn one_by_one_and_disconnected_nodes() {
        // 1×1 system.
        let mut b = TripletBuilder::new(1, 1);
        b.add(0, 0, 4.0);
        let m = b.build();
        let f = LdltFactor::new(&m).unwrap();
        let mut ws = LdltWorkspace::new();
        let mut x = vec![0.0];
        f.solve_into(&[2.0], &mut x, &mut ws).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-15);
        // Grid with a disconnected (diagonal-only) node in the middle.
        let mut b = TripletBuilder::new(3, 3);
        b.add(0, 0, 2.0);
        b.add(0, 2, -1.0);
        b.add(2, 0, -1.0);
        b.add(1, 1, 3.0);
        b.add(2, 2, 2.0);
        let m = b.build();
        let f = LdltFactor::new(&m).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let rhs = m.mul_vec(&x_true).unwrap();
        let mut x = vec![0.0; 3];
        f.solve_into(&rhs, &mut x, &mut ws).unwrap();
        assert!(vec_ops::max_abs_diff(&x, &x_true) < 1e-12);
    }

    #[test]
    fn solve_multi_matches_repeated_single_solves() {
        let m = tridiag(20);
        let f = LdltFactor::new(&m).unwrap();
        let mut ws = LdltWorkspace::new();
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut batched = vec![0.0; 60];
        f.solve_multi(&b, &mut batched, &mut ws).unwrap();
        for (bc, xc) in b.chunks_exact(20).zip(batched.chunks_exact(20)) {
            let mut single = vec![0.0; 20];
            f.solve_into(bc, &mut single, &mut ws).unwrap();
            assert_eq!(single.as_slice(), xc);
        }
        assert!(matches!(
            f.solve_multi(&b[..30], &mut batched[..30], &mut ws),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let f = LdltFactor::new(&tridiag(10));
        let mut f = f.unwrap();
        assert!(matches!(
            f.refactor(&tridiag(11)),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    /// The factor at `usize` width: ordering, elimination tree and
    /// up-looking numeric pass as `LdltFactor` runs them.
    struct WideFactor {
        perm: Vec<usize>,
        lp: Vec<usize>,
        li: Vec<usize>,
        lx: Vec<f64>,
        d: Vec<f64>,
    }

    impl WideFactor {
        fn new(m: &CsrMatrix) -> Self {
            let n = m.rows();
            let perm = min_degree_ordering(m);
            let mut iperm = vec![0; n];
            for (k, &orig) in perm.iter().enumerate() {
                iperm[orig] = k;
            }
            let mut parent = vec![usize::MAX; n];
            let mut flag = vec![usize::MAX; n];
            let mut lp = vec![0; n + 1];
            for k in 0..n {
                flag[k] = k;
                for (col, _) in m.row_entries(perm[k]) {
                    let mut i = iperm[col];
                    while i < k && flag[i] != k {
                        if parent[i] == usize::MAX {
                            parent[i] = k;
                        }
                        lp[i + 1] += 1;
                        flag[i] = k;
                        i = parent[i];
                    }
                }
            }
            for k in 0..n {
                lp[k + 1] += lp[k];
            }
            let (mut li, mut lx) = (vec![0; lp[n]], vec![0.0; lp[n]]);
            let (mut d, mut y) = (vec![0.0; n], vec![0.0; n]);
            let mut next = lp.clone();
            let mut pattern = vec![0; n];
            flag.fill(usize::MAX);
            for k in 0..n {
                flag[k] = k;
                let (mut top, mut len) = (n, 0);
                for (col, val) in m.row_entries(perm[k]) {
                    let j = iperm[col];
                    if j > k {
                        continue;
                    }
                    y[j] += val;
                    let mut i = j;
                    while flag[i] != k {
                        pattern[len] = i;
                        len += 1;
                        flag[i] = k;
                        i = parent[i];
                    }
                    while len > 0 {
                        len -= 1;
                        top -= 1;
                        pattern[top] = pattern[len];
                    }
                }
                let mut dk = std::mem::take(&mut y[k]);
                for &i in &pattern[top..n] {
                    let yi = std::mem::take(&mut y[i]);
                    let l_ki = yi / d[i];
                    for p in lp[i]..next[i] {
                        y[li[p]] -= lx[p] * yi;
                    }
                    dk -= l_ki * yi;
                    (li[next[i]], lx[next[i]]) = (k, l_ki);
                    next[i] += 1;
                }
                d[k] = dk;
            }
            WideFactor {
                perm,
                lp,
                li,
                lx,
                d,
            }
        }

        /// `A·x = b` through the factor, in `solve_into`'s order.
        fn solve(&self, b: &[f64]) -> Vec<f64> {
            let n = self.d.len();
            let mut w: Vec<f64> = self.perm.iter().map(|&orig| b[orig]).collect();
            for j in 0..n {
                for p in self.lp[j]..self.lp[j + 1] {
                    w[self.li[p]] -= self.lx[p] * w[j];
                }
            }
            for (wj, dj) in w.iter_mut().zip(&self.d) {
                *wj /= dj;
            }
            for j in (0..n).rev() {
                for p in self.lp[j]..self.lp[j + 1] {
                    w[j] -= self.lx[p] * w[self.li[p]];
                }
            }
            let mut x = vec![0.0; n];
            for (k, &orig) in self.perm.iter().enumerate() {
                x[orig] = w[k];
            }
            x
        }
    }

    /// Whether `f` stores exactly `wide`'s indices and values, bit for bit.
    fn same_factor(f: &LdltFactor, wide: &WideFactor) -> bool {
        let widen = |v: &[u32]| v.iter().map(|&i| i as usize).collect::<Vec<_>>();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        widen(&f.perm) == wide.perm
            && widen(&f.lp) == wide.lp
            && widen(&f.li) == wide.li
            && bits(&f.lx) == bits(&wide.lx)
            && bits(&f.d) == bits(&wide.d)
    }

    #[test]
    fn u32_factor_equals_the_usize_reference() {
        let mut rng = DeterministicRng::new(0x1D32);
        let mut cases: Vec<CsrMatrix> = [1, 5, 40, 90]
            .iter()
            .map(|&n| random_spd(n, &mut rng))
            .collect();
        cases.push(grid_laplacian(14, 11, true));
        for (case, mut m) in cases.into_iter().enumerate() {
            let mut f = LdltFactor::new(&m).unwrap();
            assert!(same_factor(&f, &WideFactor::new(&m)), "case {case}: new");
            // New values under the same pattern: `refactor` keeps step.
            let diag: Vec<usize> = m.diag_indices().into_iter().flatten().collect();
            for (t, &k) in diag.iter().enumerate() {
                m.values_mut()[k] *= 1.0 + 0.37 * (t % 3) as f64;
            }
            f.refactor(&m).unwrap();
            let wide = WideFactor::new(&m);
            assert!(same_factor(&f, &wide), "case {case}: refactor");
            let b: Vec<f64> = (0..m.rows()).map(|i| (i as f64 * 0.23).cos()).collect();
            let mut x = vec![0.0; m.rows()];
            f.solve_into(&b, &mut x, &mut LdltWorkspace::new()).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&wide.solve(&b)), "case {case}: solve");
        }
    }

    #[test]
    fn a_dimension_past_u32_is_an_invalid_argument() {
        // Rejected before any per-row array is allocated.
        for n in [u32::MAX as usize, 1 << 33] {
            let huge = CsrMatrix {
                rows: n,
                cols: n,
                row_ptr: Vec::new(),
                col_idx: Vec::new(),
                values: Vec::new(),
            };
            let err = LdltFactor::new(&huge).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument { .. }), "{n}: {err:?}");
        }
    }

    #[test]
    fn backend_parsing_and_names() {
        assert_eq!(SolverBackend::parse("direct"), Some(SolverBackend::Direct));
        assert_eq!(SolverBackend::parse("LDLT"), Some(SolverBackend::Direct));
        assert_eq!(SolverBackend::parse(" cg "), Some(SolverBackend::Cg));
        assert_eq!(SolverBackend::parse("gs"), None);
        assert_eq!(SolverBackend::parse("gauss-seidel"), None);
        assert_eq!(SolverBackend::parse("auto"), Some(SolverBackend::Auto));
        assert_eq!(SolverBackend::parse("mgcg"), Some(SolverBackend::Mgcg));
        assert_eq!(SolverBackend::parse("Multigrid"), Some(SolverBackend::Mgcg));
        assert_eq!(SolverBackend::parse("nope"), None);
        assert_eq!(SolverBackend::default(), SolverBackend::Auto);
        for b in [
            SolverBackend::Auto,
            SolverBackend::Direct,
            SolverBackend::Cg,
            SolverBackend::Mgcg,
        ] {
            assert_eq!(SolverBackend::parse(b.name()), Some(b));
        }
    }
}
