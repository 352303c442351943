//! The matrix-free thermal stencil `G + diag(d)`.

use simkit::linalg::{vec_ops, CsrMatrix, LinearOperator};

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
/// (taken from the assembled matrix, so it is bit-identical) plus `d`.
/// The steady solves use `d = 0`; a backward-Euler stepper uses
/// `d = C/Δt`.
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
    /// The operator of `conductance` (the assembled `G` of an `nx × ny`
    /// model with these stencil conductances) with `d = 0`.
    pub(crate) fn new(
        nx: usize,
        ny: usize,
        g_si: (f64, f64),
        g_sp: (f64, f64),
        g_si_sp: f64,
        g_sp_sink: f64,
        conductance: &CsrMatrix,
    ) -> Self {
        debug_assert_eq!(conductance.rows(), 2 * nx * ny + 1);
        ThermalOperator {
            nx,
            ny,
            g_si,
            g_sp,
            g_si_sp,
            g_sp_sink,
            diag: conductance.diagonal(),
        }
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
