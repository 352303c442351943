//! Spatial frame recorder: periodic snapshots of the thermal grid,
//! per-domain voltage lanes, and the VR gating mask, emitted as
//! [`EventKind::Frame`] telemetry events.
//!
//! Every `frame_every` thermal steps (see
//! [`EngineConfig`](crate::EngineConfig)) the recorder captures:
//!
//! * `thermal.frame` — the silicon heat map downsampled to at most
//!   16 cells per axis, rows bottom-first joined by `;`,
//!   cells by `,`, two decimals;
//! * `engine.lanes` — the per-domain supply voltage lanes (Vdd scaled
//!   by the latest measured droop fraction) plus the active-VR gating
//!   mask as a `'0'`/`'1'` string;
//! * `thermal.hotspot` — the location and magnitude of the *running*
//!   max-temperature cell, so the Chrome-trace export renders a
//!   monotone hotspot counter track next to the solver spans.
//!
//! The recorder times its own work and reports it at the end of the
//! run as the `telemetry.overhead` counter (microseconds) together
//! with a `telemetry.frames` frame count, so BENCH snapshots can gate
//! recording cost. When disabled (`frame_every == 0`) the engine never
//! constructs a recorder and the run's event stream is unchanged.

use simkit::telemetry::{EventKind, Telemetry};
use simkit::units::Seconds;
use std::fmt::Write as _;
use std::time::Instant;
use thermal::ThermalState;
use vreg::GatingState;

/// Periodic spatial-frame capture into a telemetry trace.
#[derive(Debug)]
pub struct FrameRecorder {
    telemetry: Telemetry,
    every: usize,
    max_edge: usize,
    thermal_step_s: f64,
    frames: u64,
    /// Running hotspot: magnitude and location of the hottest silicon
    /// cell seen by any captured frame so far.
    running_max_c: f64,
    running_max_cell: (usize, usize),
    overhead_s: f64,
    /// Reused render buffer, so steady-state capture allocates little.
    scratch: String,
}

impl FrameRecorder {
    /// Builds a recorder capturing every `every` thermal steps (must be
    /// positive; the engine gates construction on that) at `max_edge`
    /// downsampled resolution.
    pub fn new(telemetry: Telemetry, every: usize, max_edge: usize, thermal_step: Seconds) -> Self {
        FrameRecorder {
            telemetry,
            every: every.max(1),
            max_edge: max_edge.max(1),
            thermal_step_s: thermal_step.get(),
            frames: 0,
            running_max_c: f64::MIN,
            running_max_cell: (0, 0),
            overhead_s: 0.0,
            scratch: String::new(),
        }
    }

    /// Number of frames captured so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Wall time spent capturing and serialising frames.
    pub fn overhead_s(&self) -> f64 {
        self.overhead_s
    }

    /// Observes one thermal step; captures a frame when the step lands
    /// on the sampling grid. `lane_voltages` is the engine's held
    /// per-domain supply estimate (Vdd minus the latest measured droop).
    pub fn observe(
        &mut self,
        step: usize,
        state: &ThermalState,
        gating: &GatingState,
        lane_voltages: &[f64],
    ) {
        if !step.is_multiple_of(self.every) {
            return;
        }
        let start = Instant::now();
        let t_sim = step as f64 * self.thermal_step_s;

        // Downsampled heat map.
        let (nx, ny, frame) = state.downsampled(self.max_edge);
        self.scratch.clear();
        for (j, row) in frame.chunks(nx).enumerate() {
            if j > 0 {
                self.scratch.push(';');
            }
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    self.scratch.push(',');
                }
                let _ = write!(self.scratch, "{cell:.2}");
            }
        }
        self.telemetry
            .event(EventKind::Frame, "thermal.frame")
            .field_u64("step", step as u64)
            .field_f64("t_sim_s", t_sim)
            .field_u64("nx", nx as u64)
            .field_u64("ny", ny as u64)
            .field_str("data", self.scratch.as_str())
            .emit();

        // Voltage lanes + gating mask.
        self.scratch.clear();
        for (d, v) in lane_voltages.iter().enumerate() {
            if d > 0 {
                self.scratch.push(',');
            }
            let _ = write!(self.scratch, "{v:.4}");
        }
        let mut mask = String::with_capacity(gating.len());
        for v in 0..gating.len() {
            mask.push(if gating.is_on(floorplan::VrId(v)) {
                '1'
            } else {
                '0'
            });
        }
        self.telemetry
            .event(EventKind::Frame, "engine.lanes")
            .field_u64("step", step as u64)
            .field_f64("t_sim_s", t_sim)
            .field_str("volts", self.scratch.as_str())
            .field_str("mask", mask)
            .field_u64("active", gating.active_count() as u64)
            .emit();

        // Running hotspot track.
        let (i, j, t) = state.hottest_cell();
        if t.get() > self.running_max_c {
            self.running_max_c = t.get();
            self.running_max_cell = (i, j);
        }
        self.telemetry
            .event(EventKind::Frame, "thermal.hotspot")
            .field_u64("step", step as u64)
            .field_f64("value", self.running_max_c)
            .field_u64("i", self.running_max_cell.0 as u64)
            .field_u64("j", self.running_max_cell.1 as u64)
            .emit();

        self.frames += 1;
        self.overhead_s += start.elapsed().as_secs_f64();
    }

    /// Emits the self-accounting counters (`telemetry.frames`,
    /// `telemetry.overhead` in whole microseconds) and consumes the
    /// recorder.
    pub fn finish(self) {
        self.telemetry.counter("telemetry.frames", self.frames);
        self.telemetry
            .counter("telemetry.overhead", (self.overhead_s * 1e6).round() as u64);
    }
}
