//! Proves the transient thermal solve performs zero heap allocation per
//! step, and the noise-window paths none per window: a counting global
//! allocator wraps the system allocator and each test asserts the
//! per-thread allocation count does not move across warmed-up
//! `TransientStepper::step`, `generate_window_into` and
//! `DidtResponse::refill` calls, nor between the window fills of either
//! thread of a window stream, nor between the windows a run reads back
//! from a window book and draws again. An IR analysis whose regulator
//! key is not kept (a refactor and a superposition-basis rebuild into a
//! recycled buffer) allocates no more than one whose key repeats. A warmed-up
//! `ScenarioSpec::content_hash` allocates nothing, and neither does
//! nested phase timing under disabled telemetry. The allocator also
//! keeps per-thread live and peak bytes, which bound what a standard
//! run holds at once (less than one full-resolution activity trace),
//! what a multigrid build holds beyond its hierarchy (less than `A·P`),
//! what a thermal build holds beyond its model (less than its triplets
//! at `usize` width), and what the steady solver keeps beside the
//! model's `G` (no copy of it).

use experiments::service::ScenarioSpec;
use floorplan::reference::power8_like;
use pdn::transient::DidtResponse;
use pdn::{PdnConfig, PdnModel};
use simkit::linalg::{CsrMatrix, MultigridPreconditioner, SolverBackend};
use simkit::perf::PhaseTimes;
use simkit::telemetry::Telemetry;
use simkit::units::{Hertz, Seconds, Watts};
use simkit::DeterministicRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use thermal::{PowerMap, ThermalConfig, ThermalModel};
use thermogater::windows::{with_window_stream, FillScratch};
use thermogater::{EngineConfig, PolicyKind, SimulationEngine};
use vreg::GatingState;
use workload::microtrace::{generate_window_into, skip_window, WARMUP_CYCLES, WINDOW_CYCLES};
use workload::Benchmark;

thread_local! {
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed; negative when
    /// it frees what another thread allocated.
    static THREAD_LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `THREAD_LIVE` since the last `reset_peak`.
    static THREAD_PEAK: Cell<isize> = const { Cell::new(0) };
}

/// System allocator with per-thread allocation and live-byte counters.
/// Per-thread counting keeps the test-harness threads (and any other
/// test in this binary) from polluting the measurement.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow_live(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

/// Counts one allocation that changes the live bytes by `bytes`.
/// `try_with` guards against TLS teardown re-entering the allocator.
fn bump(bytes: isize) {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    grow_live(bytes);
}

fn grow_live(bytes: isize) {
    let _ = THREAD_LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = THREAD_PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn thread_allocs() -> usize {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn live_bytes() -> isize {
    THREAD_LIVE.try_with(Cell::get).unwrap_or(0)
}

/// Starts a new peak at the current live bytes.
fn reset_peak() {
    let _ = THREAD_PEAK.try_with(|peak| peak.set(live_bytes()));
}

fn peak_bytes() -> isize {
    THREAD_PEAK.try_with(Cell::get).unwrap_or(0)
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

/// A window stream whose producer sleeps before each fill, so that the
/// decision loop fills most windows itself, allocates nothing per
/// window on either thread: each thread's allocation count is the same
/// as every fill after its first starts.
#[test]
fn a_window_stream_the_loop_fills_allocates_nothing_per_window() {
    thread_local! {
        static ON_LOOP: Cell<bool> = const { Cell::new(false) };
    }
    const WINDOWS: usize = 48;
    const LOOP: usize = 1;
    const PRODUCER: usize = 2;
    let config = PdnConfig::default();
    let (response_time, frequency) = (Seconds::from_nanos(15.0), Hertz::from_ghz(4.0));
    // Per window: the thread that filled it and its allocation count as
    // the fill started.
    let seen: Vec<(AtomicUsize, AtomicUsize)> = (0..WINDOWS).map(|_| Default::default()).collect();
    let by_producer = AtomicUsize::new(0);
    let steps: Vec<usize> = (0..WINDOWS).map(|w| 4 * w).collect();
    // Each window's inputs carry its index.
    let fill = |inputs: &[f64],
                rng: &mut DeterministicRng,
                slot: &mut [DidtResponse],
                scratch: &mut FillScratch| {
        let on_loop = ON_LOOP.with(Cell::get);
        let (thread, allocs) = &seen[inputs[0] as usize];
        thread.store(if on_loop { LOOP } else { PRODUCER }, Ordering::SeqCst);
        allocs.store(thread_allocs(), Ordering::SeqCst);
        if !on_loop {
            by_producer.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(2));
        }
        for response in slot {
            generate_window_into(rng, WINDOW_CYCLES, 0.5, 0.5, &mut scratch.multipliers);
            response.refill(
                &config,
                response_time,
                frequency,
                &scratch.multipliers,
                WARMUP_CYCLES,
                &mut scratch.steps,
            );
        }
    };
    let skip = |rng: &mut DeterministicRng| {
        for _ in 0..2 {
            skip_window(rng, WINDOW_CYCLES, 0.5);
        }
    };
    let rng = DeterministicRng::new(0x4E01);
    with_window_stream(&steps, 16, 2, rng, skip, &fill, |stream| {
        ON_LOOP.with(|l| l.set(true));
        for w in 0..WINDOWS {
            stream.publish(|inputs| inputs.fill(w as f64));
        }
        // The producer fills the first windows, so that both threads
        // fill more than one.
        let deadline = Instant::now() + Duration::from_secs(60);
        while by_producer.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut interval = Vec::with_capacity(16);
        for k in 0..12 {
            stream.take_interval(k, &mut interval)?;
            for (_, slot) in interval.drain(..) {
                stream.give_back(slot);
            }
        }
        Ok(())
    })
    .unwrap();
    for thread in [LOOP, PRODUCER] {
        let counts: Vec<usize> = seen
            .iter()
            .filter(|(t, _)| t.load(Ordering::SeqCst) == thread)
            .map(|(_, allocs)| allocs.load(Ordering::SeqCst))
            .collect();
        assert!(counts.len() >= 3, "thread {thread} filled {counts:?}");
        assert!(
            counts[1..].iter().all(|&c| c == counts[1]),
            "thread {thread} allocated between its fills: counts {counts:?}"
        );
        if thread == LOOP {
            assert!(
                counts.len() > WINDOWS / 2,
                "the loop filled {}",
                counts.len()
            );
        }
    }
}

/// A run reading a window book (a synthetic run whose spec the engine
/// keeps) allocates nothing per window: reading a window's peaks and
/// drawing one of its domains again from the book into warmed buffers,
/// window after window, leaves the allocation count where the first
/// redraw left it. Each redrawn response is the stream's, bit for bit.
#[test]
fn a_booked_window_read_and_redrawn_allocates_nothing_per_window() {
    const WINDOWS: usize = 12;
    const SEVERITY: [f64; 3] = [0.3, 0.9, 0.6];
    let config = PdnConfig::default();
    let (response_time, frequency) = (Seconds::from_nanos(15.0), Hertz::from_ghz(4.0));
    let draw = |rng: &mut DeterministicRng, d: usize, activity: f64, scratch: &mut FillScratch| {
        generate_window_into(
            rng,
            WINDOW_CYCLES,
            activity,
            SEVERITY[d],
            &mut scratch.multipliers,
        );
    };
    let activity = |w: usize, d: usize| ((w + 2 * d) % 7) as f64 / 7.0;
    let fill = |inputs: &[f64],
                rng: &mut DeterministicRng,
                slot: &mut [DidtResponse],
                scratch: &mut FillScratch| {
        for (d, (response, &activity)) in slot.iter_mut().zip(inputs).enumerate() {
            draw(rng, d, activity, scratch);
            response.refill(
                &config,
                response_time,
                frequency,
                &scratch.multipliers,
                WARMUP_CYCLES,
                &mut scratch.steps,
            );
        }
    };
    let skip = |rng: &mut DeterministicRng| {
        for severity in SEVERITY {
            skip_window(rng, WINDOW_CYCLES, severity);
        }
    };
    let steps: Vec<usize> = (0..WINDOWS).map(|w| 3 * w).collect();
    let rng = DeterministicRng::new(0x4E01);
    let domains = SEVERITY.len();
    let (book, streamed) = with_window_stream(&steps, 6, domains, rng, skip, &fill, |stream| {
        for w in 0..WINDOWS {
            stream.publish(|inputs| {
                for (d, input) in inputs.iter_mut().enumerate() {
                    *input = activity(w, d);
                }
            });
        }
        let (mut streamed, mut interval) = (Vec::new(), Vec::new());
        for k in 0..WINDOWS / 2 {
            stream.take_interval(k, &mut interval)?;
            for (_, slot) in interval.drain(..) {
                streamed.push(slot.clone());
                stream.give_back(slot);
            }
        }
        Ok((stream.take_book(), streamed))
    })
    .unwrap();
    let book = book.expect("every window was taken");
    assert_eq!(book.windows(), WINDOWS);

    let mut scratch = FillScratch::default();
    let mut response = DidtResponse::with_capacity(WINDOW_CYCLES - WARMUP_CYCLES);
    let mut counts = Vec::with_capacity(WINDOWS * domains);
    for (w, windows) in streamed.iter().enumerate() {
        for (d, drawn) in windows.iter().enumerate() {
            counts.push(thread_allocs());
            assert_eq!(book.peaks(w)[d].to_bits(), drawn.peak().to_bits());
            book.redraw(
                w,
                d,
                |before, rng| skip_window(rng, WINDOW_CYCLES, SEVERITY[before]),
                |rng| {
                    draw(rng, d, activity(w, d), &mut scratch);
                    response.refill(
                        &config,
                        response_time,
                        frequency,
                        &scratch.multipliers,
                        WARMUP_CYCLES,
                        &mut scratch.steps,
                    );
                },
            );
            assert!(response == *drawn, "window {w} domain {d} drew other bits");
        }
    }
    assert!(
        counts[1..].iter().all(|&c| c == counts[1]),
        "redraws allocated: counts {counts:?}"
    );
}

/// A key a domain does not keep refactors it and rebuilds the least
/// recently used of its kept superposition bases in place: cycling five
/// keys through four kept bases evicts one on every call, and such a
/// miss allocates no more than an analysis whose key repeats.
#[test]
fn ir_drop_with_a_new_key_allocates_no_more_than_a_repeated_key() {
    let chip = power8_like();
    let model = PdnModel::new(&chip, PdnConfig::reference());
    let powers = vec![Watts::new(1.5); chip.blocks().len()];
    let core0 = &chip.domains()[0];
    // Five keys in core0: all on, then one more regulator off each.
    let keys: Vec<GatingState> = (0..5)
        .map(|off| {
            let mut gating = GatingState::all_on(chip.vr_sites().len());
            for &v in core0.vrs().iter().take(off) {
                gating.set(v, false).unwrap();
            }
            gating
        })
        .collect();
    // Warm up: the first calls build the solvers, fill the four kept
    // bases and grow the key and workspace buffers to capacity.
    for gating in keys.iter().chain(&keys) {
        model.ir_drop(gating, &powers).unwrap();
    }
    let allocs_of = |gating: &GatingState| {
        let before = thread_allocs();
        let report = model.ir_drop(gating, &powers).unwrap();
        (thread_allocs() - before, report.basis_solves())
    };
    let last = &keys[4];
    let (repeated, repeated_basis) = allocs_of(last);
    assert_eq!(repeated_basis, 0);
    // Each key in turn was used longest ago, so every call evicts.
    for gating in &keys {
        let (changed, changed_basis) = allocs_of(gating);
        assert_eq!(changed_basis, core0.blocks().len() as u64);
        assert!(
            changed <= repeated,
            "an evicting key allocated {changed} times, a repeated key {repeated}"
        );
    }
}

/// A synthetic run streams its trace into per-step means instead of
/// generating the 1 µs trace first: on a fresh standard engine, a whole
/// OracVT run never holds, on its calling thread, as many bytes as one
/// full-resolution trace of it would take.
#[test]
fn a_standard_run_never_holds_a_full_resolution_trace() {
    let chip = power8_like();
    let engine = SimulationEngine::new(&chip, EngineConfig::standard());
    let samples = (engine.trace_duration().get() / workload::trace::DEFAULT_DT.get()).round();
    let trace_bytes = samples as isize * chip.blocks().len() as isize * 8;
    let before = live_bytes();
    reset_peak();
    engine.run(Benchmark::LuNcb, PolicyKind::OracVT).unwrap();
    let peak = peak_bytes() - before;
    assert!(
        peak < trace_bytes,
        "the run held {peak} B at its peak, a full-resolution trace takes {trace_bytes} B"
    );
}

/// Bytes of a CSR matrix's arrays at its stored widths: a `u32` column
/// index and an `f64` value per entry, a `u32` pointer per row plus one.
fn csr_bytes(m: &CsrMatrix) -> isize {
    (m.nnz() * 12 + (m.rows() + 1) * 4) as isize
}

/// The thermal model on a 128 × 128 grid, its steady solves on the
/// multigrid backend whatever `SIMKIT_SOLVER` says.
fn thermal_config_128() -> ThermalConfig {
    ThermalConfig {
        nx: 128,
        ny: 128,
        solver: SolverBackend::Mgcg,
        ..ThermalConfig::coarse()
    }
}

/// The multigrid hierarchy forms each coarse operator row by row and
/// never holds `A·P` whole: on the 128² thermal `G`, what
/// `MultigridPreconditioner::new` holds on its calling thread at its peak,
/// beyond the hierarchy it returns, is less than `A·P` alone would take
/// at the stored index width (12 B an entry, 4 B a row).
/// The counter sees a `realloc` only as its size change, not the old and
/// new buffers a copying one holds together, so this peak is a lower
/// bound on the build's true transient.
#[test]
fn a_multigrid_build_never_holds_the_fine_product_a_p() {
    let chip = power8_like();
    let model = ThermalModel::new(&chip, thermal_config_128());
    let g = model.conductance_matrix();
    let before = live_bytes();
    reset_peak();
    let mg = MultigridPreconditioner::new(g, model.grid_geometry()).unwrap();
    let transient = peak_bytes() - live_bytes();
    let held = live_bytes() - before;
    let ap_bytes = csr_bytes(&g.multiply(mg.prolongation(0)).unwrap());
    assert!(
        transient < ap_bytes,
        "the build peaked {transient} B above the {held} B hierarchy it returned; A·P takes {ap_bytes} B"
    );
}

/// The steady solver shares the model's `G` instead of copying it: what
/// a 128² model's first steady solve leaves held, less the state it
/// returns and the transfer and coarse operators of its hierarchy
/// (measured on an identical hierarchy built beside it), is smaller than
/// one `G`. The rest is the smoothers' inverse diagonals, the V-cycle
/// buffers and the bottom factor.
#[test]
fn the_steady_solver_holds_no_second_conductance_matrix() {
    let chip = power8_like();
    let model = ThermalModel::new(&chip, thermal_config_128());
    let mut power = PowerMap::new(&model);
    for block in chip.blocks() {
        power.add_block(block.id(), Watts::new(1.0)).unwrap();
    }
    let before = live_bytes();
    let _state = model.steady_state(&power).unwrap();
    let held = live_bytes() - before;
    let g = model.conductance_matrix();
    let twin = MultigridPreconditioner::new(g, model.grid_geometry()).unwrap();
    let operators: isize = (0..twin.num_levels())
        .map(|l| {
            csr_bytes(twin.prolongation(l))
                + csr_bytes(twin.restriction(l))
                + csr_bytes(twin.coarse_matrix(l))
        })
        .sum();
    let rest = held - operators - (model.node_count() * 8) as isize;
    assert!(
        rest < csr_bytes(g),
        "the first steady solve held {held} B: {operators} B of operators and {rest} B \
         besides, as much as G's {} B",
        csr_bytes(g)
    );
}

/// `ThermalModel::new` writes `G` row by row into arrays reserved at
/// their exact size, and scans each block's tiles without building the
/// grid of them: what it holds at its peak on a 128² grid, beyond the
/// model it returns, is under an eighth of `G` (2.75 MB). Triplet
/// assembly held 7.0 MB there.
#[test]
fn a_thermal_build_holds_under_an_eighth_of_g_beyond_the_model() {
    let chip = power8_like();
    let before = live_bytes();
    reset_peak();
    let model = ThermalModel::new(&chip, thermal_config_128());
    let transient = peak_bytes() - live_bytes();
    let kept = live_bytes() - before;
    let g = csr_bytes(model.conductance_matrix());
    assert!(
        transient < g / 8,
        "the build peaked {transient} B above the {kept} B model it returned; \
         G takes {g} B"
    );
    drop(model);
}

/// A scenario's content hash folds every configuration field straight
/// into the hasher, floats as bits: once warmed up it allocates nothing,
/// which is what keeps a cache hit cheap.
#[test]
fn scenario_content_hash_performs_no_heap_allocation() {
    let spec = ScenarioSpec::new(Benchmark::Fft, PolicyKind::PracVT, EngineConfig::standard());
    let warm = spec.content_hash();

    let before = thread_allocs();
    let mut same = true;
    for _ in 0..100 {
        same &= spec.content_hash() == warm;
    }
    let after = thread_allocs();
    assert!(same, "the content hash changed between calls");
    assert_eq!(
        after - before,
        0,
        "content hashing allocated {} times over 100 hashes",
        after - before
    );
}

/// The engine's phase clock under disabled telemetry, once each phase
/// has its slot: timing a phase inside another (the truth check inside
/// a decision, a measurement inside the step loop) allocates nothing.
#[test]
fn nested_phase_timing_performs_no_heap_allocation() {
    let tel = Telemetry::disabled();
    let mut perf = PhaseTimes::new();
    let interval = |perf: &mut PhaseTimes| {
        PhaseTimes::timed(perf, &tel, "noise", "engine.noise.wait", |_| ());
        PhaseTimes::timed(perf, &tel, "policy", "engine.policy", |perf| {
            PhaseTimes::timed(perf, &tel, "noise", "engine.noise.truth", |_| ());
        });
        PhaseTimes::timed(perf, &tel, "transient", "engine.transient", |perf| {
            for _ in 0..10 {
                PhaseTimes::timed(perf, &tel, "noise", "engine.noise.measure", |_| ());
            }
        });
    };
    interval(&mut perf);

    let before = thread_allocs();
    for _ in 0..100 {
        interval(&mut perf);
    }
    let after = thread_allocs();
    assert_eq!(perf.samples("noise"), 101 * 12);
    assert_eq!(
        after - before,
        0,
        "nested phase timing allocated {} times over 100 intervals",
        after - before
    );
}
