//! Block-mode compact thermal model.
//!
//! HotSpot ships two compact models: the fine *grid* mode
//! ([`crate::ThermalModel`]) and a coarse *block* mode whose RC network
//! has one node per floorplan block. Block mode is orders of magnitude
//! faster and is the classic choice for early design-space exploration;
//! this module provides it with the same package stack and a compatible
//! API, so exploration sweeps can run block-mode and switch to grid mode
//! for the final numbers.
//!
//! Lateral conductances connect blocks that share a boundary, sized by
//! the shared edge length and the center-to-center distance; each block
//! also has a vertical path through TIM/spreader to the shared sink.

use crate::config::{PackageParams, ThermalConfig};
use floorplan::{Block, BlockId, Floorplan};
use simkit::linalg::{CsrMatrix, TripletBuilder};
use simkit::units::{Celsius, Seconds, Watts};
use simkit::{Error, Result};

/// A block-granularity compact thermal model.
///
/// # Examples
///
/// ```
/// use thermal::BlockThermalModel;
/// use floorplan::reference::power8_like;
/// use simkit::units::Watts;
///
/// let chip = power8_like();
/// let model = BlockThermalModel::new(&chip, thermal::PackageParams::default());
/// let powers = vec![Watts::new(2.0); chip.blocks().len()];
/// let temps = model.steady_state(&powers)?;
/// assert!(temps.iter().all(|t| t.get() > 45.0));
/// # Ok::<(), simkit::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockThermalModel {
    package: PackageParams,
    n_blocks: usize,
    /// Nodes: blocks, then one spreader node per block, then the sink.
    n_nodes: usize,
    conductance: CsrMatrix,
    capacitance: Vec<f64>,
    g_convection: f64,
    /// For each regulator: its containing (or nearest) block.
    vr_blocks: Vec<usize>,
    vr_self_resistance: f64,
}

impl BlockThermalModel {
    /// Assembles the block-granularity network for `chip`.
    pub fn new(chip: &Floorplan, package: PackageParams) -> Self {
        let blocks = chip.blocks();
        let n_blocks = blocks.len();
        let n_nodes = 2 * n_blocks + 1;
        let sink = 2 * n_blocks;
        let p = &package;

        let mut g = TripletBuilder::new(n_nodes, n_nodes);
        let mut add_edge = |a: usize, b: usize, cond: f64| {
            g.add(a, a, cond);
            g.add(b, b, cond);
            g.add(a, b, -cond);
            g.add(b, a, -cond);
        };

        // Lateral silicon conduction between boundary-sharing blocks.
        for (i, a) in blocks.iter().enumerate() {
            for (j, b) in blocks.iter().enumerate().skip(i + 1) {
                let shared = shared_boundary_m(a, b);
                if shared <= 0.0 {
                    continue;
                }
                let distance = a.rect().center().distance(b.rect().center()).get();
                let cond = p.k_silicon * p.t_silicon * shared / distance.max(1e-6);
                add_edge(i, j, cond);
            }
        }

        let total_die_area: f64 = blocks.iter().map(|b| b.rect().area()).sum();
        for (i, block) in blocks.iter().enumerate() {
            let area = block.rect().area();
            // Vertical: half silicon + TIM + half spreader.
            let r_vert = (p.t_silicon / 2.0) / (p.k_silicon * area)
                + p.t_tim / (p.k_tim * area)
                + (p.t_spreader / 2.0) / (p.k_spreader * area);
            add_edge(i, n_blocks + i, 1.0 / r_vert);
            // Spreader to sink: half spreader + the block's share of the
            // sink base resistance.
            let r_sink = (p.t_spreader / 2.0) / (p.k_spreader * area)
                + p.sink_base_resistance * total_die_area / area;
            add_edge(n_blocks + i, sink, 1.0 / r_sink);
        }
        // Spreader nodes also conduct laterally (copper smoothing).
        for (i, a) in blocks.iter().enumerate() {
            for (j, b) in blocks.iter().enumerate().skip(i + 1) {
                let shared = shared_boundary_m(a, b);
                if shared <= 0.0 {
                    continue;
                }
                let distance = a.rect().center().distance(b.rect().center()).get();
                let cond = p.k_spreader * p.t_spreader * shared / distance.max(1e-6);
                add_edge(n_blocks + i, n_blocks + j, cond);
            }
        }
        let g_convection = 1.0 / p.convection_resistance;
        g.add(sink, sink, g_convection);
        let conductance = g.build();

        let mut capacitance: Vec<f64> = blocks
            .iter()
            .map(|b| p.c_silicon * b.rect().area() * p.t_silicon)
            .collect();
        capacitance.extend(
            blocks
                .iter()
                .map(|b| p.c_spreader * b.rect().area() * p.t_spreader),
        );
        capacitance.push(p.sink_capacitance);

        let vr_blocks = chip
            .vr_sites()
            .iter()
            .map(|site| {
                chip.nearest_block(site.center())
                    .expect("floorplan has blocks")
                    .id()
                    .0
            })
            .collect();

        BlockThermalModel {
            package,
            n_blocks,
            n_nodes,
            conductance,
            capacitance,
            g_convection,
            vr_blocks,
            vr_self_resistance: ThermalConfig::default().vr_self_resistance,
        }
    }

    /// The package parameters.
    pub fn package(&self) -> &PackageParams {
        &self.package
    }

    /// Number of floorplan blocks (temperature nodes on the die).
    pub fn block_count(&self) -> usize {
        self.n_blocks
    }

    /// Ambient temperature.
    pub fn ambient(&self) -> Celsius {
        self.package.ambient
    }

    /// The block a regulator's conversion loss flows into.
    ///
    /// # Panics
    ///
    /// Panics when `vr` is out of range.
    pub fn vr_block(&self, vr: usize) -> BlockId {
        BlockId(self.vr_blocks[vr])
    }

    /// Steady-state block temperatures for per-block powers (watts); VR
    /// losses should be pre-added onto their blocks (see
    /// [`BlockThermalModel::vr_block`]).
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] when `block_powers` does not have
    ///   one entry per block;
    /// * solver failures are propagated.
    pub fn steady_state(&self, block_powers: &[Watts]) -> Result<Vec<Celsius>> {
        if block_powers.len() != self.n_blocks {
            return Err(Error::DimensionMismatch {
                expected: self.n_blocks,
                actual: block_powers.len(),
            });
        }
        let mut rhs = vec![0.0; self.n_nodes];
        for (i, p) in block_powers.iter().enumerate() {
            rhs[i] = p.get().max(0.0);
        }
        rhs[self.n_nodes - 1] += self.g_convection * self.ambient().get();
        let x0 = vec![self.ambient().get(); self.n_nodes];
        let temps = self.conductance.solve_cg(&rhs, Some(&x0), 1e-10, 10_000)?;
        Ok(temps[..self.n_blocks]
            .iter()
            .map(|&t| Celsius::new(t))
            .collect())
    }

    /// One backward-Euler transient step of length `dt`, updating
    /// `node_temps` (length [`BlockThermalModel::node_count`], obtain the
    /// initial vector from [`BlockThermalModel::ambient_nodes`]).
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] on wrong vector lengths;
    /// * solver failures are propagated.
    pub fn step(&self, node_temps: &mut [f64], block_powers: &[Watts], dt: Seconds) -> Result<()> {
        if node_temps.len() != self.n_nodes {
            return Err(Error::DimensionMismatch {
                expected: self.n_nodes,
                actual: node_temps.len(),
            });
        }
        if block_powers.len() != self.n_blocks {
            return Err(Error::DimensionMismatch {
                expected: self.n_blocks,
                actual: block_powers.len(),
            });
        }
        // A = G + C/dt assembled on the fly (block-mode matrices are tiny).
        let mut b = TripletBuilder::new(self.n_nodes, self.n_nodes);
        for (row, col, val) in self.conductance.iter_entries() {
            b.add(row, col, val);
        }
        for (i, &c) in self.capacitance.iter().enumerate() {
            b.add(i, i, c / dt.get());
        }
        let a = b.build();
        let mut rhs = vec![0.0; self.n_nodes];
        for (i, p) in block_powers.iter().enumerate() {
            rhs[i] = p.get().max(0.0);
        }
        rhs[self.n_nodes - 1] += self.g_convection * self.ambient().get();
        for i in 0..self.n_nodes {
            rhs[i] += self.capacitance[i] / dt.get() * node_temps[i];
        }
        // Warm-started from the previous step; the sink's C/Δt term
        // dominates ‖b‖, so the relative tolerance sits well below the
        // steady solve's to bound the absolute error on block nodes.
        let x = a.solve_cg(&rhs, Some(node_temps), 1e-13, 10 * self.n_nodes)?;
        node_temps.copy_from_slice(&x);
        Ok(())
    }

    /// Total node count (blocks + spreader nodes + sink).
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// A uniformly-ambient node-temperature vector for transients.
    pub fn ambient_nodes(&self) -> Vec<f64> {
        vec![self.ambient().get(); self.n_nodes]
    }

    /// Regulator temperature: its block's temperature plus self-heating.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of range.
    pub fn vr_temperature(&self, block_temps: &[Celsius], vr: usize, loss: Watts) -> Celsius {
        let t = block_temps[self.vr_blocks[vr]];
        Celsius::new(t.get() + self.vr_self_resistance * loss.get().max(0.0))
    }
}

/// Length (m) of the boundary two blocks share (0 when not adjacent).
fn shared_boundary_m(a: &Block, b: &Block) -> f64 {
    let ra = a.rect();
    let rb = b.rect();
    const EPS: f64 = 1e-9;
    // Vertical shared edge: x-faces touch, y-ranges overlap.
    let x_touch = (ra.right().get() - rb.origin.x.get()).abs() < EPS
        || (rb.right().get() - ra.origin.x.get()).abs() < EPS;
    if x_touch {
        let overlap = ra.top().get().min(rb.top().get()) - ra.origin.y.get().max(rb.origin.y.get());
        if overlap > EPS {
            return overlap;
        }
    }
    // Horizontal shared edge: y-faces touch, x-ranges overlap.
    let y_touch = (ra.top().get() - rb.origin.y.get()).abs() < EPS
        || (rb.top().get() - ra.origin.y.get()).abs() < EPS;
    if y_touch {
        let overlap =
            ra.right().get().min(rb.right().get()) - ra.origin.x.get().max(rb.origin.x.get());
        if overlap > EPS {
            return overlap;
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PowerMap, ThermalModel};
    use floorplan::reference::power8_like;

    fn model() -> (floorplan::Floorplan, BlockThermalModel) {
        let chip = power8_like();
        let model = BlockThermalModel::new(&chip, PackageParams::default());
        (chip, model)
    }

    #[test]
    fn zero_power_rests_at_ambient() {
        let (chip, model) = model();
        let temps = model
            .steady_state(&vec![Watts::ZERO; chip.blocks().len()])
            .unwrap();
        for t in temps {
            assert!((t.get() - 45.0).abs() < 1e-6);
        }
    }

    #[test]
    fn adjacency_detection_on_reference_chip() {
        let chip = power8_like();
        let exu = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core0.EXU")
            .unwrap();
        let isu = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core0.ISU")
            .unwrap();
        let far = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core3.EXU")
            .unwrap();
        assert!(shared_boundary_m(exu, isu) > 0.0);
        assert_eq!(shared_boundary_m(exu, far), 0.0);
    }

    #[test]
    fn hotspot_forms_under_concentrated_power() {
        let (chip, model) = model();
        let mut powers = vec![Watts::new(0.5); chip.blocks().len()];
        let exu = chip
            .blocks()
            .iter()
            .find(|b| b.name() == "core0.EXU")
            .unwrap();
        powers[exu.id().0] = Watts::new(15.0);
        let temps = model.steady_state(&powers).unwrap();
        let hottest = temps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(hottest, exu.id().0);
    }

    #[test]
    fn block_mode_tracks_grid_mode_within_a_band() {
        // The two models share package physics; their mean/maximum
        // temperatures for the same power map should agree within a few
        // degrees (block mode cannot resolve intra-block hotspots).
        let chip = power8_like();
        let block_model = BlockThermalModel::new(&chip, PackageParams::default());
        let grid_model = ThermalModel::new(&chip, ThermalConfig::coarse());

        let powers: Vec<Watts> = chip
            .blocks()
            .iter()
            .map(|b| {
                if b.kind().is_logic() {
                    Watts::new(2.5)
                } else {
                    Watts::new(0.8)
                }
            })
            .collect();
        let block_temps = block_model.steady_state(&powers).unwrap();
        let mut pm = PowerMap::new(&grid_model);
        for (block, &p) in chip.blocks().iter().zip(&powers) {
            pm.add_block(block.id(), p).unwrap();
        }
        let grid_state = grid_model.steady_state(&pm).unwrap();

        let block_max = block_temps.iter().map(|t| t.get()).fold(f64::MIN, f64::max);
        let grid_max = grid_state.max_silicon().get();
        assert!(
            (block_max - grid_max).abs() < 5.0,
            "block {block_max} vs grid {grid_max}"
        );
        let block_mean =
            block_temps.iter().map(|t| t.get()).sum::<f64>() / block_temps.len() as f64;
        let grid_mean = grid_state.mean_silicon().get();
        assert!(
            (block_mean - grid_mean).abs() < 5.0,
            "block {block_mean} vs grid {grid_mean}"
        );
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let (chip, model) = model();
        let powers = vec![Watts::new(1.5); chip.blocks().len()];
        let steady = model.steady_state(&powers).unwrap();
        let mut nodes = model.ambient_nodes();
        for _ in 0..80 {
            model.step(&mut nodes, &powers, Seconds::new(2.0)).unwrap();
        }
        let max_now = nodes[..model.block_count()]
            .iter()
            .copied()
            .fold(f64::MIN, f64::max);
        let max_steady = steady.iter().map(|t| t.get()).fold(f64::MIN, f64::max);
        assert!(
            (max_now - max_steady).abs() < 0.5,
            "{max_now} vs {max_steady}"
        );
    }

    #[test]
    fn vr_losses_map_to_their_blocks() {
        let (chip, model) = model();
        for (vr, site) in chip.vr_sites().iter().enumerate() {
            let block = model.vr_block(vr);
            // The mapped block must belong to a domain... specifically
            // contain or neighbor the site.
            let rect = chip.block(block).rect();
            let d = rect.center().distance(site.center()).as_mm();
            assert!(d < 12.0, "VR{vr} mapped {d} mm away");
        }
        let temps = vec![Celsius::new(60.0); chip.blocks().len()];
        let t = model.vr_temperature(&temps, 0, Watts::new(0.2));
        assert!(t.get() > 60.0);
    }

    #[test]
    fn wrong_power_length_is_rejected() {
        let (_, model) = model();
        assert!(model.steady_state(&[Watts::ZERO]).is_err());
        let mut nodes = model.ambient_nodes();
        assert!(model
            .step(&mut nodes, &[Watts::ZERO], Seconds::new(0.1))
            .is_err());
        let mut bad_nodes = vec![45.0; 3];
        let powers = vec![Watts::ZERO; model.block_count()];
        assert!(model
            .step(&mut bad_nodes, &powers, Seconds::new(0.1))
            .is_err());
    }
}
