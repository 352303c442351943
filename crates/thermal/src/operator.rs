//! The matrix-free thermal stencil `G + diag(d)`.

use simkit::linalg::{vec_ops, CsrMatrix, CsrRowWriter, LinearOperator};

/// The thermal network's system `G + diag(d)` applied as a stencil, with
/// no stored matrix.
///
/// `G` is the two-layer grid of a [`ThermalModel`](crate::ThermalModel):
/// a uniform 5-point lateral stencil on the silicon layer and another on
/// the spreader layer, a uniform vertical conductance between each
/// silicon cell and the spreader cell below it, another from each
/// spreader cell to the lumped sink, and convection from the sink to
/// ambient. Six conductances describe every off-diagonal entry, so the
/// operator stores those plus one per-node diagonal: `G`'s own diagonal
/// plus `d`. The steady solves use `d = 0`; a backward-Euler stepper
/// uses `d = C/Δt`.
///
/// # The diagonal's order
///
/// A node's diagonal is the sum of its edges' conductances, and
/// floating-point addition is not associative, so the order of the sum
/// is part of `G`. It is the order in which edge-by-edge assembly
/// (cell by cell, each cell's x edge, y edge, then vertical edges)
/// reaches the node: the lateral edges to row `j − 1`, column `i − 1`,
/// column `i + 1` and row `j + 1`, then silicon–spreader, then, on the
/// spreader, spreader–sink. The sink sums its cells' edges in cell
/// order, then convection. Each sum starts at its first term.
/// [`ThermalModel::new`](crate::ThermalModel::new) writes `G` from this
/// operator (`ThermalOperator::to_matrix`), so the stencil is
/// described here once.
///
/// One application streams `x`, `y` and the diagonal once — about a
/// third of the bytes of a CSR product over the same system, which also
/// reads a column index and a value per entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalOperator {
    nx: usize,
    ny: usize,
    /// Lateral silicon conductances along x and y, W/K.
    g_si: (f64, f64),
    /// Lateral spreader conductances along x and y, W/K.
    g_sp: (f64, f64),
    /// Silicon → spreader conductance per cell, W/K.
    g_si_sp: f64,
    /// Spreader → sink conductance per cell, W/K.
    g_sp_sink: f64,
    /// `G`'s diagonal plus the shift `d`, one entry per node.
    diag: Vec<f64>,
}

impl ThermalOperator {
    /// The operator of `G` (`d = 0`) on an `nx × ny` grid with these
    /// stencil conductances and `g_convection` from the sink to ambient.
    pub(crate) fn new(
        nx: usize,
        ny: usize,
        g_si: (f64, f64),
        g_sp: (f64, f64),
        g_si_sp: f64,
        g_sp_sink: f64,
        g_convection: f64,
    ) -> Self {
        let cells = nx * ny;
        let mut diag = Vec::with_capacity(2 * cells + 1);
        for (g_lateral, vertical) in [(g_si, &[g_si_sp][..]), (g_sp, &[g_si_sp, g_sp_sink])] {
            for j in 0..ny {
                for i in 0..nx {
                    let lateral = lateral_neighbours(nx, ny, i, j, g_lateral);
                    let edges = lateral.iter().flatten().map(|&(_, g)| g);
                    diag.push(sum_in_order(edges.chain(vertical.iter().copied())));
                }
            }
        }
        let sink_edges = std::iter::repeat_n(g_sp_sink, cells);
        diag.push(sum_in_order(sink_edges.chain([g_convection])));
        ThermalOperator {
            nx,
            ny,
            g_si,
            g_sp,
            g_si_sp,
            g_sp_sink,
            diag,
        }
    }

    /// The operator as a CSR matrix, written row by row with no triplets:
    /// each row's columns ascend, so its entries come in stencil order.
    /// Node layout as in [`ThermalModel`](crate::ThermalModel): silicon
    /// cells, spreader cells, the sink.
    pub(crate) fn to_matrix(&self) -> CsrMatrix {
        let (nx, ny) = (self.nx, self.ny);
        let cells = nx * ny;
        let sink = 2 * cells;
        let lateral_edges = (nx - 1) * ny + nx * (ny - 1);
        let nnz = 4 * lateral_edges + 6 * cells + 1;
        let mut w = CsrRowWriter::new(sink + 1, sink + 1, nnz);
        // Row `base + c` of a layer: its lateral neighbours and diagonal.
        let layer_row = |w: &mut CsrRowWriter, base: usize, (i, j): (usize, usize), g| {
            let row = base + j * nx + i;
            let [below, left, right, above] = lateral_neighbours(nx, ny, i, j, g);
            for (cell, g) in [below, left].into_iter().flatten() {
                w.push(row, base + cell, -g);
            }
            w.push(row, row, self.diag[row]);
            for (cell, g) in [right, above].into_iter().flatten() {
                w.push(row, base + cell, -g);
            }
        };
        for j in 0..ny {
            for i in 0..nx {
                layer_row(&mut w, 0, (i, j), self.g_si);
                w.push(j * nx + i, cells + j * nx + i, -self.g_si_sp);
            }
        }
        for j in 0..ny {
            for i in 0..nx {
                let (c, sp) = (j * nx + i, cells + j * nx + i);
                w.push(sp, c, -self.g_si_sp);
                layer_row(&mut w, cells, (i, j), self.g_sp);
                w.push(sp, sink, -self.g_sp_sink);
            }
        }
        for sp in cells..sink {
            w.push(sink, sp, -self.g_sp_sink);
        }
        w.push(sink, sink, self.diag[sink]);
        w.finish()
    }

    /// A copy with the diagonal shifted by `capacitance[i] / dt` — the
    /// backward-Euler system `G + C/Δt`.
    pub(crate) fn shifted(&self, capacitance: &[f64], dt: f64) -> Self {
        debug_assert_eq!(capacitance.len(), self.diag.len());
        let mut op = self.clone();
        for (d, &c) in op.diag.iter_mut().zip(capacitance) {
            *d += c / dt;
        }
        op
    }

    /// The per-node diagonal `G_ii + d_i` (what a Jacobi preconditioner
    /// inverts).
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }
}

/// The lateral neighbours of cell `(i, j)` of an `nx × ny` layer with
/// conductances `(gx, gy)`, as `(cell, conductance)`: row `j − 1`,
/// column `i − 1`, column `i + 1`, row `j + 1`, where they exist. That
/// is ascending cell order and the order of the diagonal's sum.
fn lateral_neighbours(
    nx: usize,
    ny: usize,
    i: usize,
    j: usize,
    (gx, gy): (f64, f64),
) -> [Option<(usize, f64)>; 4] {
    let c = j * nx + i;
    [
        (j > 0).then(|| (c - nx, gy)),
        (i > 0).then(|| (c - 1, gx)),
        (i + 1 < nx).then(|| (c + 1, gx)),
        (j + 1 < ny).then(|| (c + nx, gy)),
    ]
}

/// The sum of `terms` in order, starting at the first term (not at
/// `0.0`, which would turn a `-0.0` first term into `0.0`); 0 for none.
fn sum_in_order(terms: impl IntoIterator<Item = f64>) -> f64 {
    terms.into_iter().reduce(|sum, g| sum + g).unwrap_or(0.0)
}

/// Rows `j − 1` and `j + 1` of an `nx × ny` layer, where they exist.
fn neighbour_rows(layer: &[f64], nx: usize, ny: usize, j: usize) -> NeighbourRows<'_> {
    let row = |k: usize| &layer[k * nx..(k + 1) * nx];
    (
        (j > 0).then(|| row(j - 1)),
        (j + 1 < ny).then(|| row(j + 1)),
    )
}

type NeighbourRows<'a> = (Option<&'a [f64]>, Option<&'a [f64]>);

/// `y[c] -= g·(x[c−1] + x[c+1])` along one grid row, and
/// `y[c] -= g_y·(below[c] + above[c])` for the rows that exist.
fn lateral_row(
    g: (f64, f64),
    x: &[f64],
    below: Option<&[f64]>,
    above: Option<&[f64]>,
    y: &mut [f64],
) {
    let (gx, gy) = g;
    if x.len() > 1 {
        for (yc, xl) in y[1..].iter_mut().zip(x) {
            *yc -= gx * xl;
        }
        for (yc, xr) in y.iter_mut().zip(&x[1..]) {
            *yc -= gx * xr;
        }
    }
    for neighbour in [below, above].into_iter().flatten() {
        for (yc, xn) in y.iter_mut().zip(neighbour) {
            *yc -= gy * xn;
        }
    }
}

impl LinearOperator for ThermalOperator {
    fn dim(&self) -> usize {
        self.diag.len()
    }

    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        let cells = nx * ny;
        debug_assert_eq!(x.len(), 2 * cells + 1);
        debug_assert_eq!(y.len(), 2 * cells + 1);
        let (x_si, rest) = x.split_at(cells);
        let (x_sp, x_sink) = rest.split_at(cells);
        let t_sink = x_sink[0];
        let (y_si, rest) = y.split_at_mut(cells);
        let (y_sp, y_sink) = rest.split_at_mut(cells);
        let (d_si, rest) = self.diag.split_at(cells);
        let (d_sp, d_sink) = rest.split_at(cells);

        let mut sp_sum = 0.0;
        for j in 0..ny {
            let lo = j * nx;
            let hi = lo + nx;

            // Silicon: own diagonal, lateral neighbours, spreader below.
            let (xs, xp) = (&x_si[lo..hi], &x_sp[lo..hi]);
            let ys = &mut y_si[lo..hi];
            for (((yc, &d), &xc), &xv) in ys.iter_mut().zip(&d_si[lo..hi]).zip(xs).zip(xp) {
                *yc = d * xc - self.g_si_sp * xv;
            }
            let (below, above) = neighbour_rows(x_si, nx, ny, j);
            lateral_row(self.g_si, xs, below, above, ys);

            // Spreader: own diagonal, lateral neighbours, silicon above,
            // the sink.
            let sink_term = self.g_sp_sink * t_sink;
            let yp = &mut y_sp[lo..hi];
            for (((yc, &d), &xc), &xv) in yp.iter_mut().zip(&d_sp[lo..hi]).zip(xp).zip(xs) {
                *yc = d * xc - self.g_si_sp * xv - sink_term;
            }
            let (below, above) = neighbour_rows(x_sp, nx, ny, j);
            lateral_row(self.g_sp, xp, below, above, yp);
            sp_sum += vec_ops::sum(xp);
        }
        y_sink[0] = d_sink[0] * t_sink - self.g_sp_sink * sp_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThermalConfig;
    use crate::model::ThermalModel;
    use floorplan::reference::power8_like;
    use simkit::check::{self, Checker};
    use simkit::linalg::TripletBuilder;
    use simkit::units::Seconds;

    /// ‖stencil·x − CSR·x‖∞ / ‖CSR·x‖∞ on an `nx × ny` model.
    fn stencil_error(nx: usize, ny: usize, xs: &[f64], shifted: bool) -> f64 {
        let chip = power8_like();
        let model = ThermalModel::new(
            &chip,
            ThermalConfig {
                nx,
                ny,
                ..ThermalConfig::coarse()
            },
        );
        let dt = Seconds::from_micros(20.0);
        let (csr, op) = if shifted {
            let op = model.stepper(dt).operator().clone();
            (model.backward_euler_matrix(dt), op)
        } else {
            (model.conductance_matrix().clone(), model.operator().clone())
        };
        let n = model.node_count();
        assert_eq!(op.dim(), n);
        let x: Vec<f64> = (0..n)
            .map(|i| xs[i % xs.len()] * (1.0 + i as f64))
            .collect();
        let mut want = vec![0.0; n];
        csr.mul_vec_into(&x, &mut want);
        let mut got = vec![f64::NAN; n];
        op.apply_into(&x, &mut got);
        let scale = want.iter().fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
        simkit::linalg::vec_ops::max_abs_diff(&got, &want) / scale
    }

    /// `G` as edge-by-edge triplet assembly builds it from the operator's
    /// conductances: four triplets per edge, cell by cell (x edge, y edge,
    /// silicon–spreader, spreader–sink), then convection. The reference
    /// the row-written `G` and the operator's diagonal are held to.
    fn triplet_conductance(op: &ThermalOperator, g_convection: f64) -> CsrMatrix {
        let (nx, ny) = (op.nx, op.ny);
        let n_cells = nx * ny;
        let sink = 2 * n_cells;
        let mut g = TripletBuilder::new(sink + 1, sink + 1);
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
                    add_edge(c, c + 1, op.g_si.0);
                    add_edge(sp, sp + 1, op.g_sp.0);
                }
                if j + 1 < ny {
                    add_edge(c, c + nx, op.g_si.1);
                    add_edge(sp, sp + nx, op.g_sp.1);
                }
                add_edge(c, sp, op.g_si_sp);
                add_edge(sp, sink, op.g_sp_sink);
            }
        }
        g.add(sink, sink, g_convection);
        g.build()
    }

    /// Every stored `(row, column, value bits)` of `m`, in storage order.
    fn entry_bits(m: &CsrMatrix) -> Vec<(usize, usize, u64)> {
        m.iter_entries()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect()
    }

    #[test]
    fn the_row_written_conductance_matrix_is_the_triplet_assembly_bit_for_bit() {
        let chip = power8_like();
        for base in [ThermalConfig::standard(), ThermalConfig::coarse()] {
            let grids = [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (12, 12)];
            for (nx, ny) in grids.into_iter().chain([(64, 64), (128, 128)]) {
                let config = ThermalConfig {
                    nx,
                    ny,
                    ..base.clone()
                };
                let g_convection = 1.0 / config.package.convection_resistance;
                let model = ThermalModel::new(&chip, config);
                let (g, op) = (model.conductance_matrix(), model.operator());
                let reference = triplet_conductance(op, g_convection);
                // Same rows, columns and value bits, so the same row
                // pointers, column indices and values.
                assert_eq!(entry_bits(g), entry_bits(&reference), "{nx}x{ny}");
                assert_eq!(g, &reference, "{nx}x{ny}");
                let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(op.diagonal()), bits(&reference.diagonal()));
            }
        }
    }

    #[test]
    fn stencil_matches_csr_on_degenerate_grids() {
        for (nx, ny) in [(1, 1), (1, 7), (7, 1), (2, 2), (12, 12)] {
            for shifted in [false, true] {
                let err = stencil_error(nx, ny, &[0.3, -1.0, 0.7, 0.1, -0.4], shifted);
                assert!(err <= 1e-12, "{nx}x{ny} shifted={shifted}: {err:e}");
            }
        }
    }

    #[test]
    fn stencil_matches_csr_property() {
        let gen = (
            check::usize_in(1, 12),
            check::usize_in(1, 12),
            check::vec_of(check::f64_in(-1.0, 1.0), 1, 24),
            check::bool_any(),
        );
        Checker::with_seed(0x57E1).assert(
            "thermal.stencil_vs_csr",
            &gen,
            |(nx, ny, xs, shifted)| {
                let err = stencil_error(*nx, *ny, xs, *shifted);
                check::ensure(err <= 1e-12, || {
                    format!("{nx}x{ny} shifted={shifted}: relative error {err:e}")
                })
            },
        );
    }
}
