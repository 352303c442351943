//! The run's noise-window stream, drawn ahead of the decision loop.
//!
//! A run's sampled windows depend only on its trace, the benchmark's
//! di/dt severities and its seed, never on the policy, the gating or
//! the thermal state; and which random numbers a window draws depends
//! only on the severities, never on the trace (see
//! [`workload::microtrace::skip_window`]). So [`with_window_stream`]
//! starts one scoped producer thread before the run has its trace, and
//! the producer first *plans* the windows: a draw-only pass walks the
//! run's one noise RNG window by window and publishes each window's
//! starting state as soon as it is known. As the run's trace reaches
//! each window's step, the run publishes the window's inputs (one value
//! per domain, [`WindowStream::publish`]), and from then on any thread
//! may *fill* the window once it is planned: draw it from its planned
//! state and convolve it into its di/dt responses. The producer fills
//! window after window; when [`WindowStream::take_interval`] finds a
//! window the decision loop needs not ready, the loop claims the next
//! planned, unclaimed window and fills it on its own thread instead of
//! waiting. Windows are claimed in order, and each is drawn from the
//! state the serial stream reaches at it, so which thread fills a
//! window changes none of its bits.
//!
//! Windows travel in a fixed pool of slots, one `Vec<DidtResponse>`
//! (one response per domain) per window, allocated before the producer
//! starts, as are both threads' fill scratch, the planned states, the
//! inputs and the queue of claimed windows. A slot is refilled in place
//! and the loop hands it back once the window is measured, so neither
//! thread allocates per window and the responses stay in the caller's
//! memory. The pool is double-buffered: it holds two of the busiest
//! interval, so the producer can fill every window of interval k + 1
//! while the loop still holds all of interval k. Claims never starve
//! the loop: the next claim is always the oldest window not yet
//! claimed, and an interval whose slots are all handed back leaves
//! enough free slots for every window of the next.
//! Neither planning nor filling emits telemetry, so a traced run's
//! event order does not depend on thread timing.

use pdn::transient::DidtResponse;
use simkit::{DeterministicRng, Error, Result};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use workload::microtrace::{WARMUP_CYCLES, WINDOW_CYCLES};

/// One thread's scratch for filling windows, sized for a whole window
/// before the thread's first fill.
#[derive(Debug)]
pub struct FillScratch {
    /// A domain's per-cycle current multipliers.
    pub multipliers: Vec<f64>,
    /// The di/dt convolution's per-cycle steps.
    pub steps: Vec<f64>,
}

impl FillScratch {
    fn new() -> Self {
        FillScratch {
            multipliers: Vec::with_capacity(WINDOW_CYCLES),
            steps: Vec::with_capacity(WINDOW_CYCLES),
        }
    }
}

/// Fills one window: `fill(inputs, rng, slot, scratch)` draws the window
/// with the published `inputs` (one value per domain) from `rng`, which
/// holds the window's planned starting state, into `slot`'s responses,
/// one per domain.
pub type FillFn<'f> =
    dyn Fn(&[f64], &mut DeterministicRng, &mut [DidtResponse], &mut FillScratch) + Sync + 'f;

/// One thread's side of filling: its scratch, and a copy of the inputs
/// of the window it fills.
struct Filler {
    scratch: FillScratch,
    inputs: Vec<f64>,
}

impl Filler {
    fn new(domains: usize) -> Self {
        Filler {
            scratch: FillScratch::new(),
            inputs: Vec::with_capacity(domains),
        }
    }
}

/// The slot pool for windows at `steps` over intervals of
/// `steps_per_interval` thermal steps: twice the busiest interval's
/// window count, at most one slot per window, each slot holding
/// `domains` responses sized for a window's analysis region.
fn window_pool(
    steps: &[usize],
    steps_per_interval: usize,
    domains: usize,
) -> Vec<Vec<DidtResponse>> {
    let busiest = steps
        .chunk_by(|a, b| a / steps_per_interval == b / steps_per_interval)
        .map(<[usize]>::len)
        .max()
        .unwrap_or(0);
    let slots = (2 * busiest).min(steps.len());
    (0..slots)
        .map(|_| {
            (0..domains)
                .map(|_| DidtResponse::with_capacity(WINDOW_CYCLES - WARMUP_CYCLES))
                .collect()
        })
        .collect()
}

/// A window claimed for filling: its index, its planned starting state
/// and the slot to fill.
struct Claim {
    window: usize,
    rng: DeterministicRng,
    slot: Vec<DidtResponse>,
}

/// The state the two threads share, behind [`Exchange`]'s lock.
struct Slots {
    /// Each planned window's starting RNG state, in window order.
    planned: Vec<DeterministicRng>,
    /// Every window's inputs, `domains` values each; the first
    /// `published` windows' are in.
    inputs: Vec<f64>,
    domains: usize,
    published: usize,
    /// Windows claimed so far: the next claim is window `claimed`.
    claimed: usize,
    /// The claimed windows not yet taken, oldest first: a filled slot,
    /// or `None` while its window is being filled.
    pending: VecDeque<Option<Vec<DidtResponse>>>,
    /// Slots ready for refilling.
    free: Vec<Vec<DidtResponse>>,
    /// The consumer takes no more windows.
    consumer_gone: bool,
    /// The producer plans and fills no more windows: it is done, or it
    /// panicked.
    producer_gone: bool,
}

impl Slots {
    /// Whether a window can be claimed: the next window is planned, its
    /// inputs are in and a slot is free.
    fn claimable(&self) -> bool {
        self.claimed < self.planned.len().min(self.published) && !self.free.is_empty()
    }

    /// Claims the next window, when [`Self::claimable`], and copies its
    /// inputs into `inputs`.
    fn claim(&mut self, inputs: &mut Vec<f64>) -> Option<Claim> {
        if !self.claimable() {
            return None;
        }
        let rng = self.planned.get(self.claimed)?.clone();
        let slot = self.free.pop()?;
        let window = self.claimed;
        inputs.clear();
        if let Some(src) = self
            .inputs
            .get(window * self.domains..(window + 1) * self.domains)
        {
            inputs.extend_from_slice(src);
        }
        self.claimed += 1;
        self.pending.push_back(None);
        Some(Claim { window, rng, slot })
    }

    /// Files the filled slot of claimed window `window`.
    fn complete(&mut self, window: usize, slot: Vec<DidtResponse>) {
        let oldest = self.claimed - self.pending.len();
        if let Some(entry) = self.pending.get_mut(window - oldest) {
            *entry = Some(slot);
        }
    }

    /// Whether the oldest window not yet taken is filled.
    fn front_filled(&self) -> bool {
        self.pending.front().is_some_and(Option::is_some)
    }

    /// Takes the oldest window not yet taken, when it is filled.
    fn take_front(&mut self) -> Option<Vec<DidtResponse>> {
        if self.front_filled() {
            self.pending.pop_front().flatten()
        } else {
            None
        }
    }
}

/// The hand-off between producer and consumer: one lock and one
/// condition variable, which, unlike a channel, allocate nothing when
/// a thread blocks, so a wait in the middle of a run leaves no
/// long-lived allocation on the heap. Every buffer is sized for the
/// whole run up front and never grows.
struct Exchange {
    slots: Mutex<Slots>,
    changed: Condvar,
}

impl Exchange {
    /// The shared state. No update panics midway, so a poisoned lock
    /// still guards valid state.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared state, once `ready` holds for it.
    fn wait_for(&self, mut ready: impl FnMut(&Slots) -> bool) -> MutexGuard<'_, Slots> {
        self.changed
            .wait_while(self.lock(), |s| !ready(s))
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `update` to the shared state and wakes the other thread.
    fn update<T>(&self, update: impl FnOnce(&mut Slots) -> T) -> T {
        let out = update(&mut self.lock());
        self.changed.notify_all();
        out
    }

    /// Fills `claim`'s window on the calling thread and files it.
    fn fill(&self, fill: &FillFn<'_>, filler: &mut Filler, claim: Claim) {
        let Claim {
            window,
            mut rng,
            mut slot,
        } = claim;
        fill(&filler.inputs, &mut rng, &mut slot, &mut filler.scratch);
        self.update(|s| s.complete(window, slot));
    }
}

/// Marks the producer gone when dropped, on return and unwind alike, so
/// the consumer never waits for a window that will not come.
struct ProducerGone<'e>(&'e Exchange);

impl Drop for ProducerGone<'_> {
    fn drop(&mut self) {
        self.0.update(|s| s.producer_gone = true);
    }
}

/// The consuming end of a window stream: the run publishes each
/// window's inputs in order, and takes the windows in step order, one
/// interval at a time. Dropping it tells the producer to stop.
pub struct WindowStream<'s> {
    /// Steps of every window, in the order they are drawn.
    steps: &'s [usize],
    steps_per_interval: usize,
    /// Windows published so far.
    published: usize,
    /// Windows taken so far.
    taken: usize,
    fill: &'s FillFn<'s>,
    /// This thread's side of filling.
    filler: Filler,
    exchange: &'s Exchange,
}

impl WindowStream<'_> {
    /// The step of the next window whose inputs are not yet published.
    pub fn next_unpublished(&self) -> Option<usize> {
        self.steps.get(self.published).copied()
    }

    /// Publishes the next window's inputs, one value per domain, which
    /// `write` writes in place; from then on either thread may fill the
    /// window once it is planned. Does nothing once every window is
    /// published.
    pub fn publish(&mut self, write: impl FnOnce(&mut [f64])) {
        if self.published == self.steps.len() {
            return;
        }
        let window = self.published;
        self.exchange.update(|s| {
            if let Some(inputs) = s
                .inputs
                .get_mut(window * s.domains..(window + 1) * s.domains)
            {
                write(inputs);
            }
            s.published += 1;
        });
        self.published += 1;
    }

    /// Appends to `out` every window not yet taken up to the end of
    /// interval `k`, with its step. A window not yet filled is waited
    /// for while another thread fills it; otherwise, while a slot is
    /// free and a window is planned, this thread claims the next one
    /// and fills it itself. The pool holds two of the busiest interval,
    /// so a consumer that hands back each earlier interval's slots never
    /// lacks a slot for this one, and the producer fills the next
    /// interval while the consumer holds this one.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when a window to take has no published
    /// inputs, or when the producer stopped before a window could be
    /// filled, which only a panic on its thread can cause.
    pub fn take_interval(
        &mut self,
        k: usize,
        out: &mut Vec<(usize, Vec<DidtResponse>)>,
    ) -> Result<()> {
        let end = (k + 1) * self.steps_per_interval;
        while let Some(&step) = self.steps.get(self.taken).filter(|&&s| s < end) {
            if self.taken >= self.published {
                return Err(Error::invalid_argument(format!(
                    "noise window {} taken before its inputs were published",
                    self.taken
                )));
            }
            let mut slots = self
                .exchange
                .wait_for(|s| s.front_filled() || s.claimable() || s.producer_gone);
            if let Some(slot) = slots.take_front() {
                drop(slots);
                out.push((step, slot));
                self.taken += 1;
                continue;
            }
            let Some(claim) = slots.claim(&mut self.filler.inputs) else {
                return Err(Error::invalid_argument(format!(
                    "noise-window producer stopped before window {}",
                    self.taken
                )));
            };
            drop(slots);
            self.exchange.fill(self.fill, &mut self.filler, claim);
        }
        Ok(())
    }

    /// Returns a measured window's slot to the pool for refilling.
    pub fn give_back(&self, slot: Vec<DidtResponse>) {
        self.exchange.update(|s| s.free.push(slot));
    }
}

impl Drop for WindowStream<'_> {
    fn drop(&mut self) {
        self.exchange.update(|s| s.consumer_gone = true);
    }
}

/// Runs `consume` against a stream of the windows at `steps` (in
/// increasing order) over intervals of `steps_per_interval` thermal
/// steps, each window a slot of `domains` responses.
///
/// A scoped producer thread first plans the windows: it publishes
/// `rng`'s state as window 0's start, and after each window advances it
/// with `skip`, which must consume exactly the draws `fill` makes for
/// one window. Then it fills planned windows in order with `fill` as
/// `consume` publishes their inputs ([`WindowStream::publish`]),
/// working ahead as far as free slots allow, and the loop fills the next
/// one itself whenever the window it takes is not ready.
///
/// When `consume` returns or unwinds, early or not, its stream is
/// dropped, so a producer waiting for a free slot or for inputs wakes
/// and ends; the scope then joins it and returns `consume`'s result. A
/// panic on either thread is re-raised here.
pub fn with_window_stream<R>(
    steps: &[usize],
    steps_per_interval: usize,
    domains: usize,
    mut rng: DeterministicRng,
    mut skip: impl FnMut(&mut DeterministicRng) + Send,
    fill: &FillFn<'_>,
    consume: impl FnOnce(&mut WindowStream<'_>) -> Result<R>,
) -> Result<R> {
    let free = window_pool(steps, steps_per_interval, domains);
    let exchange = Exchange {
        slots: Mutex::new(Slots {
            planned: Vec::with_capacity(steps.len()),
            inputs: vec![0.0; steps.len() * domains],
            domains,
            published: 0,
            claimed: 0,
            pending: VecDeque::with_capacity(free.len()),
            free,
            consumer_gone: false,
            producer_gone: false,
        }),
        changed: Condvar::new(),
    };
    let (mut producer, consumer) = (Filler::new(domains), Filler::new(domains));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _gone = ProducerGone(&exchange);
            for window in 0..steps.len() {
                if window > 0 {
                    skip(&mut rng);
                }
                let start = rng.clone();
                let planning = exchange.update(|s| {
                    s.planned.push(start);
                    !s.consumer_gone
                });
                if !planning {
                    return;
                }
            }
            loop {
                let claim = {
                    let mut slots = exchange
                        .wait_for(|s| s.consumer_gone || s.claimed == steps.len() || s.claimable());
                    if slots.consumer_gone {
                        return;
                    }
                    slots.claim(&mut producer.inputs)
                };
                let Some(claim) = claim else {
                    return;
                };
                exchange.fill(fill, &mut producer, claim);
            }
        });
        let mut stream = WindowStream {
            steps,
            steps_per_interval,
            published: 0,
            taken: 0,
            fill,
            filler: consumer,
            exchange: &exchange,
        };
        consume(&mut stream)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn::PdnConfig;
    use simkit::units::{Hertz, Seconds};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};
    use workload::microtrace::{generate_window_into, skip_window};

    /// Cycles and warm-up of the test windows, and their severity.
    const CYCLES: usize = 64;
    const WARMUP: usize = 32;
    const SEVERITY: f64 = 0.7;

    thread_local! {
        /// Set on the thread that runs the consumer.
        static ON_LOOP: Cell<bool> = const { Cell::new(false) };
    }

    fn on_loop() -> bool {
        ON_LOOP.with(Cell::get)
    }

    /// Fills a slot with real windows: each response convolves one
    /// window drawn at its domain's input activity.
    fn fill_window(
        activities: &[f64],
        rng: &mut DeterministicRng,
        slot: &mut [DidtResponse],
        scratch: &mut FillScratch,
    ) {
        let config = PdnConfig::default();
        let (response_time, frequency) = (Seconds::from_nanos(1.0), Hertz::from_ghz(1.0));
        for (response, &activity) in slot.iter_mut().zip(activities) {
            generate_window_into(rng, CYCLES, activity, SEVERITY, &mut scratch.multipliers);
            response.refill(
                &config,
                response_time,
                frequency,
                &scratch.multipliers,
                WARMUP,
                &mut scratch.steps,
            );
        }
    }

    /// Advances past one window of `domains` domains, as
    /// [`fill_window`] draws it.
    fn skip_domains(domains: usize) -> impl FnMut(&mut DeterministicRng) + Send {
        move |rng| {
            for _ in 0..domains {
                skip_window(rng, CYCLES, SEVERITY);
            }
        }
    }

    fn seed() -> DeterministicRng {
        DeterministicRng::new(0x4E01)
    }

    /// Window `w`'s input activity in domain `d`.
    fn activity(w: usize, d: usize) -> f64 {
        ((w + 3 * d) % 10) as f64 / 10.0
    }

    /// Publishes the inputs of the next `count` windows.
    fn publish(stream: &mut WindowStream<'_>, count: usize) {
        for _ in 0..count {
            let w = stream.published;
            stream.publish(|inputs| {
                for (d, input) in inputs.iter_mut().enumerate() {
                    *input = activity(w, d);
                }
            });
        }
    }

    /// The `windows` windows of `domains` domains, drawn one after
    /// another from one RNG.
    fn serial(windows: usize, domains: usize) -> Vec<Vec<DidtResponse>> {
        let (mut rng, mut scratch) = (seed(), FillScratch::new());
        (0..windows)
            .map(|w| {
                let inputs: Vec<f64> = (0..domains).map(|d| activity(w, d)).collect();
                let mut slot = vec![DidtResponse::with_capacity(CYCLES); domains];
                fill_window(&inputs, &mut rng, &mut slot, &mut scratch);
                slot
            })
            .collect()
    }

    /// Publishes every window, then takes every interval of `steps`,
    /// handing each slot back, and returns the windows in the order
    /// they arrived; each arrives in its interval.
    fn take_all(
        stream: &mut WindowStream<'_>,
        steps: &[usize],
        steps_per_interval: usize,
    ) -> Result<Vec<Vec<DidtResponse>>> {
        ON_LOOP.with(|l| l.set(true));
        publish(stream, steps.len());
        let (mut got, mut interval) = (Vec::new(), Vec::new());
        let intervals = steps.last().map_or(0, |s| s / steps_per_interval + 1);
        for k in 0..intervals {
            stream.take_interval(k, &mut interval)?;
            for (step, slot) in interval.drain(..) {
                assert_eq!(step / steps_per_interval, k);
                got.push(slot.clone());
                stream.give_back(slot);
            }
        }
        Ok(got)
    }

    /// Runs `body` on its own thread and returns its result, failing
    /// with `hung` if it takes longer than `limit`.
    fn within<T: Send + 'static>(
        limit: Duration,
        hung: &str,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(body()).unwrap());
        done_rx.recv_timeout(limit).expect(hung)
    }

    /// Waits up to a minute for `counter` to reach `target`.
    fn await_count(counter: &AtomicUsize, target: usize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(60);
        while counter.load(Ordering::SeqCst) < target && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        counter.load(Ordering::SeqCst)
    }

    #[test]
    fn pool_holds_two_of_the_busiest_interval() {
        // Intervals of 10 steps: windows 3, 1, 2 and 2 per interval.
        let steps = [1, 4, 8, 15, 21, 29, 31, 35];
        assert_eq!(window_pool(&steps, 10, 5).len(), 2 * 3);
        assert!(window_pool(&steps, 10, 5).iter().all(|s| s.len() == 5));
        // Never more slots than windows, and none without windows.
        assert_eq!(window_pool(&[1, 4, 8, 15], 10, 5).len(), 4);
        assert_eq!(window_pool(&[3, 13], 10, 5).len(), 2);
        assert!(window_pool(&[], 10, 5).is_empty());
    }

    #[test]
    fn the_producer_fills_the_next_interval_while_the_loop_holds_this_one() {
        // Four windows per 4-step interval over five intervals: a pool of
        // eight slots. The consumer holds every window of interval 0;
        // the producer must still fill all of interval 1.
        let filled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&filled);
        let (held, ahead) = within(Duration::from_secs(120), "the stream hung", move || {
            let steps: Vec<usize> = (0..20).collect();
            let fill = |inputs: &[f64], rng: &mut _, slot: &mut _, scratch: &mut _| {
                fill_window(inputs, rng, slot, scratch);
                counter.fetch_add(1, Ordering::SeqCst);
            };
            with_window_stream(&steps, 4, 1, seed(), skip_domains(1), &fill, |stream| {
                publish(stream, steps.len());
                let mut interval = Vec::new();
                stream.take_interval(0, &mut interval)?;
                let held = interval.len();
                let ahead = await_count(&counter, 8);
                for k in 0..5 {
                    for (_, slot) in interval.drain(..) {
                        stream.give_back(slot);
                    }
                    stream.take_interval(k, &mut interval)?;
                }
                Ok((held, ahead))
            })
            .unwrap()
        });
        assert_eq!(held, 4);
        assert_eq!(ahead, 8, "the producer did not fill interval 1 ahead");
        assert_eq!(filled.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn stream_delivers_every_window_in_step_order() {
        // Three or four windows per 10-step interval.
        let steps: Vec<usize> = (0..40).map(|w| w * 3 + 1).collect();
        let got = with_window_stream(&steps, 10, 2, seed(), skip_domains(2), &fill_window, |s| {
            take_all(s, &steps, 10)
        })
        .unwrap();
        assert_eq!(got, serial(40, 2));
    }

    #[test]
    fn a_slow_producer_leaves_the_loop_filling_with_the_serial_bits() {
        // The producer sleeps before each fill, so the loop claims and
        // fills most windows itself; the windows it takes must still be
        // the serial stream's, bit for bit.
        let steps: Vec<usize> = (0..60).map(|w| w * 2).collect();
        let by_loop = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&by_loop);
        let got = within(Duration::from_secs(120), "the stream hung", move || {
            let fill = |inputs: &[f64], rng: &mut _, slot: &mut _, scratch: &mut _| {
                if on_loop() {
                    counter.fetch_add(1, Ordering::SeqCst);
                } else {
                    std::thread::sleep(Duration::from_millis(5));
                }
                fill_window(inputs, rng, slot, scratch);
            };
            with_window_stream(&steps, 8, 3, seed(), skip_domains(3), &fill, |s| {
                take_all(s, &steps, 8)
            })
            .unwrap()
        });
        assert_eq!(got, serial(60, 3));
        let by_loop = by_loop.load(Ordering::SeqCst);
        assert!(by_loop > 30, "the loop filled only {by_loop} of 60 windows");
    }

    #[test]
    fn a_window_is_filled_once_its_inputs_are_published() {
        // With three windows published, the producer fills those three
        // and no more; publishing the rest one interval at a time, just
        // before the loop takes it, still delivers the serial stream.
        let filled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&filled);
        let (early, got) = within(Duration::from_secs(120), "the stream hung", move || {
            let steps: Vec<usize> = (0..24).collect();
            let fill = |inputs: &[f64], rng: &mut _, slot: &mut _, scratch: &mut _| {
                fill_window(inputs, rng, slot, scratch);
                counter.fetch_add(1, Ordering::SeqCst);
            };
            with_window_stream(&steps, 6, 2, seed(), skip_domains(2), &fill, |stream| {
                publish(stream, 3);
                await_count(&counter, 3);
                std::thread::sleep(Duration::from_millis(20));
                let early = counter.load(Ordering::SeqCst);
                let (mut got, mut interval) = (Vec::new(), Vec::new());
                for k in 0..4 {
                    publish(stream, (k + 1) * 6 - stream.published);
                    stream.take_interval(k, &mut interval)?;
                    for (_, slot) in interval.drain(..) {
                        got.push(slot.clone());
                        stream.give_back(slot);
                    }
                }
                Ok((early, got))
            })
            .unwrap()
        });
        assert_eq!(early, 3, "windows were filled before their inputs");
        assert_eq!(got, serial(24, 2));
    }

    #[test]
    fn taking_a_window_before_its_inputs_is_an_error_not_a_hang() {
        let out = within(Duration::from_secs(60), "the take hung", || {
            let steps: Vec<usize> = (0..8).collect();
            with_window_stream(&steps, 4, 1, seed(), skip_domains(1), &fill_window, |s| {
                publish(s, 2);
                let mut interval = Vec::new();
                s.take_interval(0, &mut interval)
            })
        });
        assert!(out.is_err());
    }

    #[test]
    fn an_early_return_ends_the_producer() {
        // The consumer stops after its first interval without handing a
        // slot back, as an error in the decision loop would: the
        // producer then waits for a free slot, and must wake and end so
        // that the scope can return.
        let filled = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&filled);
        let out = within(
            Duration::from_secs(60),
            "no return after an error",
            move || {
                let steps: Vec<usize> = (0..200).collect();
                let fill = |inputs: &[f64], rng: &mut _, slot: &mut _, scratch: &mut _| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    fill_window(inputs, rng, slot, scratch);
                };
                // Two windows per interval: a pool of two intervals, four
                // slots.
                with_window_stream(&steps, 2, 1, seed(), skip_domains(1), &fill, |stream| {
                    publish(stream, steps.len());
                    let mut interval = Vec::new();
                    stream.take_interval(0, &mut interval)?;
                    assert_eq!(interval.len(), 2);
                    Err::<(), _>(Error::invalid_argument("decision failed"))
                })
            },
        );
        assert!(out.is_err());
        // The producer stopped within the pool, not at the run's end.
        assert!(filled.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn a_consumer_that_never_publishes_ends_the_producer() {
        // An error before the run has its trace: the producer, done
        // planning and waiting for inputs, must wake and end.
        let out = within(
            Duration::from_secs(60),
            "no return before publishing",
            || {
                let steps: Vec<usize> = (0..50).collect();
                with_window_stream(&steps, 5, 1, seed(), skip_domains(1), &fill_window, |_| {
                    Err::<(), _>(Error::invalid_argument("trace failed"))
                })
            },
        );
        assert!(out.is_err());
    }

    #[test]
    fn a_panicking_producer_fails_the_stream_instead_of_hanging_it() {
        // The producer dies in its first fill, of window 0; the
        // consumer, which waits until the producer has claimed it, must
        // get an error for it, and the scope re-raises the panic.
        let claimed = Arc::new(AtomicUsize::new(0));
        let refused = Arc::new(AtomicUsize::new(0));
        let refusals = Arc::clone(&refused);
        let panicked = within(Duration::from_secs(60), "the stream hung", move || {
            let steps: Vec<usize> = (0..20).collect();
            let fill = |inputs: &[f64], rng: &mut _, slot: &mut _, scratch: &mut _| {
                if !on_loop() {
                    claimed.store(1, Ordering::SeqCst);
                    panic!("window generation failed");
                }
                fill_window(inputs, rng, slot, scratch);
            };
            let run = std::panic::catch_unwind(|| {
                with_window_stream(&steps, 10, 1, seed(), skip_domains(1), &fill, |stream| {
                    ON_LOOP.with(|l| l.set(true));
                    publish(stream, steps.len());
                    await_count(&claimed, 1);
                    let mut interval = Vec::new();
                    if stream.take_interval(0, &mut interval).is_err() {
                        refusals.store(1, Ordering::SeqCst);
                    }
                    Ok(())
                })
            });
            run.is_err()
        });
        assert!(panicked);
        assert_eq!(
            refused.load(Ordering::SeqCst),
            1,
            "window 0 came from a dead producer"
        );
    }

    #[test]
    fn a_fill_panicking_on_the_loop_ends_the_producer_and_the_scope() {
        // The producer is slow, so the loop fills; its fill panics. The
        // unwinding stream must stop the producer, and the scope must
        // join it and re-raise the panic instead of hanging.
        let panicked = within(Duration::from_secs(60), "the stream hung", || {
            let steps: Vec<usize> = (0..40).collect();
            let fill = |inputs: &[f64], rng: &mut _, slot: &mut _, scratch: &mut _| {
                assert!(!on_loop(), "window generation failed on the loop");
                std::thread::sleep(Duration::from_millis(20));
                fill_window(inputs, rng, slot, scratch);
            };
            std::panic::catch_unwind(|| {
                with_window_stream(&steps, 4, 1, seed(), skip_domains(1), &fill, |s| {
                    take_all(s, &steps, 4)
                })
            })
            .is_err()
        });
        assert!(panicked);
    }
}
