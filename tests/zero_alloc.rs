//! Proves the transient thermal solve performs zero heap allocation per
//! step, and the noise-window paths none per window: a counting global
//! allocator wraps the system allocator and each test asserts the
//! per-thread allocation count does not move across warmed-up
//! `TransientStepper::step`, `generate_window_into` and
//! `DidtResponse::refill` calls.

use floorplan::reference::power8_like;
use pdn::transient::DidtResponse;
use pdn::PdnConfig;
use simkit::units::{Hertz, Seconds, Watts};
use simkit::DeterministicRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use thermal::{PowerMap, ThermalConfig, ThermalModel};
use workload::microtrace::{generate_window_into, WARMUP_CYCLES, WINDOW_CYCLES};

thread_local! {
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// System allocator with a per-thread allocation counter. Per-thread
/// counting keeps the test-harness threads (and any other test in this
/// binary) from polluting the measurement.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `try_with` guards against TLS teardown re-entering the allocator.
fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> usize {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn transient_step_performs_no_heap_allocation() {
    let chip = power8_like();
    let model = ThermalModel::new(&chip, ThermalConfig::coarse());
    let mut power = PowerMap::new(&model);
    let per_block = Watts::new(100.0 / chip.blocks().len() as f64);
    for block in chip.blocks() {
        power.add_block(block.id(), per_block).unwrap();
    }
    let mut state = model.steady_state(&power).unwrap();
    let mut stepper = model.stepper(Seconds::from_micros(20.0));

    // Warm up: first steps may grow solver scratch to capacity.
    for _ in 0..5 {
        stepper.step(&mut state, &power).unwrap();
    }

    let before = thread_allocs();
    for _ in 0..100 {
        stepper.step(&mut state, &power).unwrap();
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "transient stepping allocated {} times over 100 steps",
        after - before
    );
}

/// Telemetry with the no-op sink must not reintroduce allocations:
/// the handle caches the sink's inactive flag, so no [`Event`]
/// (name/field vector) is ever built on the hot path.
///
/// [`Event`]: simkit::telemetry::Event
#[test]
fn transient_step_with_noop_sink_performs_no_heap_allocation() {
    use simkit::telemetry::{NoopSink, Telemetry};
    use std::sync::Arc;

    let chip = power8_like();
    let mut model = ThermalModel::new(&chip, ThermalConfig::coarse());
    model.set_telemetry(Telemetry::with_sink(Arc::new(NoopSink)));
    let mut power = PowerMap::new(&model);
    let per_block = Watts::new(100.0 / chip.blocks().len() as f64);
    for block in chip.blocks() {
        power.add_block(block.id(), per_block).unwrap();
    }
    let mut state = model.steady_state(&power).unwrap();
    // The stepper inherits the model's telemetry handle at creation.
    let mut stepper = model.stepper(Seconds::from_micros(20.0));

    for _ in 0..5 {
        stepper.step(&mut state, &power).unwrap();
    }

    let before = thread_allocs();
    for _ in 0..100 {
        stepper.step(&mut state, &power).unwrap();
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "no-op-sink stepping allocated {} times over 100 steps",
        after - before
    );
}

/// Drawing a noise window into a warmed buffer and refilling a warmed
/// di/dt response (and its step scratch) with it allocate nothing,
/// window after window.
#[test]
fn noise_window_refills_perform_no_heap_allocation() {
    let config = PdnConfig::default();
    let (response_time, frequency) = (Seconds::from_nanos(15.0), Hertz::from_ghz(4.0));
    let mut rng = DeterministicRng::new(0x4E01);
    let mut multipliers = Vec::with_capacity(WINDOW_CYCLES);
    let mut steps = Vec::with_capacity(WINDOW_CYCLES);
    let mut response = DidtResponse::with_capacity(WINDOW_CYCLES - WARMUP_CYCLES);
    let mut draw = |severity: f64| {
        generate_window_into(&mut rng, WINDOW_CYCLES, 0.5, severity, &mut multipliers);
        response.refill(
            &config,
            response_time,
            frequency,
            &multipliers,
            WARMUP_CYCLES,
            &mut steps,
        );
    };
    draw(0.5);

    let before = thread_allocs();
    for w in 0..50 {
        draw(w as f64 / 49.0);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "window refills allocated {} times over 50 windows",
        after - before
    );
}
