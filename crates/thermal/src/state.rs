//! Temperature snapshots and spatial queries.

use crate::model::ThermalModel;
use floorplan::{BlockId, VrId};
use simkit::units::{Celsius, Watts};

/// A full-network temperature snapshot.
///
/// Holds one temperature per RC node (silicon cells, spreader cells,
/// sink). All the spatial queries the paper's metrics need — maximum
/// chip temperature, maximum thermal gradient, per-block and per-regulator
/// temperatures, heat maps — read the silicon layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalState {
    temps: Vec<f64>,
    nx: usize,
    ny: usize,
    ambient: Celsius,
}

impl ThermalState {
    pub(crate) fn uniform(model: &ThermalModel, t: Celsius) -> Self {
        let (nx, ny) = model.grid_size();
        ThermalState {
            temps: vec![t.get(); model.node_count()],
            nx,
            ny,
            ambient: model.ambient(),
        }
    }

    pub(crate) fn raw(&self) -> &[f64] {
        &self.temps
    }

    /// In-place access for solvers that update the state without
    /// reallocating (the zero-allocation transient step path).
    pub(crate) fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.temps
    }

    /// Ambient temperature of the generating model's package.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Silicon-layer temperatures, °C, row-major from the lower-left
    /// cell (`nx` per row) — the flat form of [`ThermalState::heatmap`],
    /// for callers that snapshot the layer into a reused buffer.
    pub fn silicon(&self) -> &[f64] {
        &self.temps[..self.nx * self.ny]
    }

    /// Temperature of one silicon cell.
    ///
    /// # Panics
    ///
    /// Panics when the coordinates are outside the grid.
    pub fn cell(&self, i: usize, j: usize) -> Celsius {
        assert!(i < self.nx && j < self.ny, "cell out of grid");
        Celsius::new(self.silicon()[j * self.nx + i])
    }

    /// Maximum silicon temperature — the paper's `T_max` metric.
    pub fn max_silicon(&self) -> Celsius {
        Celsius::new(self.silicon().iter().copied().fold(f64::MIN, f64::max))
    }

    /// Minimum silicon temperature.
    pub fn min_silicon(&self) -> Celsius {
        Celsius::new(self.silicon().iter().copied().fold(f64::MAX, f64::min))
    }

    /// Mean silicon temperature.
    pub fn mean_silicon(&self) -> Celsius {
        let s = self.silicon();
        Celsius::new(s.iter().sum::<f64>() / s.len() as f64)
    }

    /// Maximum spatial temperature difference across the silicon — the
    /// paper's *thermal gradient* metric, in °C.
    pub fn gradient(&self) -> f64 {
        self.max_silicon().get() - self.min_silicon().get()
    }

    /// Temperature of the lumped heat-sink node.
    ///
    /// At steady state, energy conservation pins this to
    /// `ambient + P_total × R_convection` exactly — a useful validation
    /// handle for the whole network.
    pub fn sink_temperature(&self) -> Celsius {
        Celsius::new(self.temps[self.temps.len() - 1])
    }

    /// Area-weighted average temperature of one block.
    ///
    /// # Panics
    ///
    /// Panics when the block id does not belong to the model's chip.
    pub fn block_temperature(&self, model: &ThermalModel, block: BlockId) -> Celsius {
        let t = model
            .block_coverage(block)
            .iter()
            .map(|&(cell, fraction)| self.temps[cell] * fraction)
            .sum();
        Celsius::new(t)
    }

    /// Temperature of a component regulator: its cell temperature plus
    /// self-heating from its own conversion loss through the sub-cell
    /// spreading resistance.
    ///
    /// # Panics
    ///
    /// Panics when the regulator id does not belong to the model's chip.
    pub fn vr_temperature(&self, model: &ThermalModel, vr: VrId, loss: Watts) -> Celsius {
        let cell_t = self.temps[model.vr_cell(vr)];
        Celsius::new(cell_t + model.vr_self_resistance() * loss.get().max(0.0))
    }

    /// Largest per-node temperature change against another state
    /// (used for feedback-loop convergence checks).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the states have different shapes.
    pub fn max_abs_difference(&self, other: &ThermalState) -> f64 {
        debug_assert_eq!(self.temps.len(), other.temps.len());
        self.temps
            .iter()
            .zip(&other.temps)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// The silicon heat map as `ny` rows of `nx` temperatures (°C),
    /// bottom row first — ready for rendering Fig. 12-style frames.
    pub fn heatmap(&self) -> Vec<Vec<f64>> {
        self.silicon()
            .chunks(self.nx)
            .map(<[f64]>::to_vec)
            .collect()
    }

    /// Location and temperature of the hottest silicon cell,
    /// `(i, j, temperature)` — the hotspot the frame recorder tracks.
    /// Ties resolve to the lowest linear index, so the answer is
    /// deterministic for a deterministic state.
    pub fn hottest_cell(&self) -> (usize, usize, Celsius) {
        let silicon = self.silicon();
        let mut best = 0usize;
        for (idx, &t) in silicon.iter().enumerate() {
            if t > silicon[best] {
                best = idx;
            }
        }
        (best % self.nx, best / self.nx, Celsius::new(silicon[best]))
    }

    /// The silicon heat map averaged down to at most `max_edge` cells
    /// per axis (row-major, bottom row first, like [`heatmap`]).
    /// Each coarse cell is the arithmetic mean of the fine cells it
    /// covers, so the downsampled frame conserves the mean temperature;
    /// a `max_edge` at or above the grid edge returns the full
    /// resolution. Returns the coarse dimensions and the flattened
    /// frame.
    ///
    /// [`heatmap`]: ThermalState::heatmap
    pub fn downsampled(&self, max_edge: usize) -> (usize, usize, Vec<f64>) {
        let max_edge = max_edge.max(1);
        let cx = self.nx.min(max_edge);
        let cy = self.ny.min(max_edge);
        let silicon = self.silicon();
        let mut frame = vec![0.0; cx * cy];
        let mut counts = vec![0u32; cx * cy];
        for j in 0..self.ny {
            // Integer bin mapping: fine row j lands in coarse row
            // j·cy/ny (exact partition, no fine cell dropped).
            let jc = j * cy / self.ny;
            for i in 0..self.nx {
                let ic = i * cx / self.nx;
                frame[jc * cx + ic] += silicon[j * self.nx + i];
                counts[jc * cx + ic] += 1;
            }
        }
        for (cell, count) in frame.iter_mut().zip(&counts) {
            *cell /= f64::from(*count);
        }
        (cx, cy, frame)
    }

    /// Grid dimensions `(nx, ny)` of the heat map.
    pub fn grid_size(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThermalConfig;
    use crate::map::PowerMap;
    use floorplan::reference::power8_like;

    fn setup() -> (floorplan::Floorplan, ThermalModel) {
        let chip = power8_like();
        let model = ThermalModel::new(&chip, ThermalConfig::coarse());
        (chip, model)
    }

    #[test]
    fn uniform_state_statistics() {
        let (_, model) = setup();
        let state = model.ambient_state();
        assert_eq!(state.max_silicon(), Celsius::new(45.0));
        assert_eq!(state.min_silicon(), Celsius::new(45.0));
        assert_eq!(state.mean_silicon(), Celsius::new(45.0));
        assert_eq!(state.gradient(), 0.0);
    }

    #[test]
    fn heatmap_shape() {
        let (_, model) = setup();
        let state = model.ambient_state();
        let map = state.heatmap();
        assert_eq!(map.len(), 32);
        assert!(map.iter().all(|row| row.len() == 32));
        assert_eq!(state.grid_size(), (32, 32));
    }

    #[test]
    fn gradient_reflects_hotspot() {
        let (chip, model) = setup();
        let mut pm = PowerMap::new(&model);
        pm.add_block(chip.blocks()[0].id(), Watts::new(15.0))
            .unwrap();
        let state = model.steady_state(&pm).unwrap();
        assert!(state.gradient() > 1.0);
        assert!(state.max_silicon() > state.mean_silicon());
        assert!(state.mean_silicon() > state.min_silicon());
    }

    #[test]
    fn cell_indexing_is_row_major() {
        let (_, model) = setup();
        let state = model.ambient_state();
        // Just bounds behaviour: corners are valid, outside panics.
        let _ = state.cell(0, 0);
        let _ = state.cell(31, 31);
    }

    #[test]
    #[should_panic(expected = "cell out of grid")]
    fn cell_out_of_grid_panics() {
        let (_, model) = setup();
        let state = model.ambient_state();
        let _ = state.cell(32, 0);
    }

    #[test]
    fn sink_temperature_obeys_energy_conservation() {
        // All injected heat exits through the convection resistance, so
        // T_sink = ambient + P_total × R_conv exactly at steady state.
        let (chip, model) = setup();
        let mut pm = PowerMap::new(&model);
        let total = 80.0;
        for block in chip.blocks() {
            pm.add_block(block.id(), Watts::new(total / chip.blocks().len() as f64))
                .unwrap();
        }
        let state = model.steady_state(&pm).unwrap();
        let r_conv = model.config().package.convection_resistance;
        let expected = 45.0 + total * r_conv;
        assert!(
            (state.sink_temperature().get() - expected).abs() < 1e-3,
            "sink {} vs analytic {expected}",
            state.sink_temperature()
        );
    }

    #[test]
    fn hottest_cell_finds_the_hotspot() {
        let (chip, model) = setup();
        let mut pm = PowerMap::new(&model);
        pm.add_block(chip.blocks()[0].id(), Watts::new(15.0))
            .unwrap();
        let state = model.steady_state(&pm).unwrap();
        let (i, j, t) = state.hottest_cell();
        assert_eq!(t, state.max_silicon());
        assert_eq!(state.cell(i, j), t);
        // Uniform state: ties resolve to the origin cell.
        let ambient = model.ambient_state();
        assert_eq!(ambient.hottest_cell(), (0, 0, Celsius::new(45.0)));
    }

    #[test]
    fn downsampled_conserves_mean_and_covers_every_cell() {
        let (chip, model) = setup();
        let mut pm = PowerMap::new(&model);
        pm.add_block(chip.blocks()[0].id(), Watts::new(15.0))
            .unwrap();
        let state = model.steady_state(&pm).unwrap();

        // Full resolution passes through untouched.
        let (nx, ny, full) = state.downsampled(64);
        assert_eq!((nx, ny), state.grid_size());
        assert_eq!(full, state.heatmap().concat());

        // 32×32 → 8×8: every coarse cell averages a 4×4 block; the
        // grand mean is conserved exactly up to float rounding.
        let (cx, cy, coarse) = state.downsampled(8);
        assert_eq!((cx, cy), (8, 8));
        let fine_mean = state.mean_silicon().get();
        let coarse_mean = coarse.iter().sum::<f64>() / coarse.len() as f64;
        assert!((fine_mean - coarse_mean).abs() < 1e-9);
        // The hotspot survives downsampling as the warmest coarse cell.
        let (hi, hj, _) = state.hottest_cell();
        let hottest_coarse = coarse
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(idx, _)| idx)
            .unwrap();
        assert_eq!(hottest_coarse, (hj * cy / 32) * cx + (hi * cx / 32));
    }

    #[test]
    fn max_abs_difference_detects_change() {
        let (chip, model) = setup();
        let a = model.ambient_state();
        let mut pm = PowerMap::new(&model);
        pm.add_block(chip.blocks()[0].id(), Watts::new(5.0))
            .unwrap();
        let b = model.steady_state(&pm).unwrap();
        assert!(a.max_abs_difference(&b) > 0.1);
        assert_eq!(a.max_abs_difference(&a), 0.0);
    }

    #[test]
    fn vr_temperature_ignores_negative_loss() {
        let (chip, model) = setup();
        let state = model.ambient_state();
        let vr = chip.vr_sites()[0].id();
        let t = state.vr_temperature(&model, vr, Watts::new(-3.0));
        assert_eq!(t, Celsius::new(45.0));
    }
}
