//! The run's noise-window stream, drawn ahead of the decision loop.
//!
//! A run's sampled windows depend only on its trace, the benchmark's
//! di/dt severities and its seed, never on the policy, the gating or
//! the thermal state. [`with_window_stream`] therefore has one scoped
//! producer thread draw and convolve them, in window order, while the
//! decision loop steps the interval before; the loop takes each
//! interval's windows when it needs them.
//!
//! Windows travel in a fixed pool of slots, one `Vec<DidtResponse>`
//! (one response per domain) per window, allocated by the caller before
//! the producer starts. The producer refills a slot in place and the
//! loop hands it back once the window is measured, so neither side
//! allocates per window and the responses stay in the caller's memory.
//! The pool is double-buffered: it holds two of the busiest interval,
//! so the producer can fill every window of interval k + 1 while the
//! loop still holds all of interval k, and it draws the first two
//! intervals while the loop calibrates and settles.
//! The producer emits no telemetry, so a traced run's event order does
//! not depend on thread timing.

use pdn::transient::DidtResponse;
use simkit::{Error, Result};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use workload::microtrace::{WARMUP_CYCLES, WINDOW_CYCLES};

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

/// The slots between the two threads, behind [`Exchange`]'s lock.
struct Slots {
    /// Filled slots, oldest first.
    full: VecDeque<Vec<DidtResponse>>,
    /// Slots ready for refilling.
    free: Vec<Vec<DidtResponse>>,
    /// The consumer takes no more windows.
    consumer_gone: bool,
    /// The producer draws no more windows: it is done, or it panicked.
    producer_gone: bool,
}

/// The hand-off between producer and consumer: one lock and one
/// condition variable, which, unlike a channel, allocate nothing when
/// a thread blocks, so a wait in the middle of a run leaves no
/// long-lived allocation on the heap. Both queues are sized for the
/// whole pool up front and never grow.
struct Exchange {
    slots: Mutex<Slots>,
    changed: Condvar,
}

impl Exchange {
    /// The slots. Every update is one push, pop or flag, so a poisoned
    /// lock still guards valid queues.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slots, once `ready` holds for them.
    fn wait_for(&self, mut ready: impl FnMut(&Slots) -> bool) -> MutexGuard<'_, Slots> {
        self.changed
            .wait_while(self.lock(), |s| !ready(s))
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `update` to the slots and wakes the other thread.
    fn update(&self, update: impl FnOnce(&mut Slots)) {
        update(&mut self.lock());
        self.changed.notify_all();
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

/// The consuming end of a window stream: windows arrive in step order,
/// one interval at a time. Dropping it tells the producer to stop.
pub(crate) struct WindowStream<'s> {
    /// Steps of every window, in the order they are drawn.
    steps: &'s [usize],
    steps_per_interval: usize,
    /// Windows taken so far.
    taken: usize,
    exchange: &'s Exchange,
}

impl WindowStream<'_> {
    /// Appends to `out` every window not yet taken up to the end of
    /// interval `k`, with its step, waiting for the producer to draw
    /// each one. The pool holds two of the busiest interval, so a
    /// consumer that hands back each earlier interval's slots never
    /// waits for a slot, and the producer fills the next interval while
    /// the consumer holds this one.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when the producer stopped before
    /// drawing a window, which only a panic on its thread can cause.
    pub(crate) fn take_interval(
        &mut self,
        k: usize,
        out: &mut Vec<(usize, Vec<DidtResponse>)>,
    ) -> Result<()> {
        let end = (k + 1) * self.steps_per_interval;
        while let Some(&step) = self.steps.get(self.taken).filter(|&&s| s < end) {
            let slot = self
                .exchange
                .wait_for(|s| !s.full.is_empty() || s.producer_gone)
                .full
                .pop_front()
                .ok_or_else(|| {
                    Error::invalid_argument(format!(
                        "noise-window producer stopped before window {}",
                        self.taken
                    ))
                })?;
            out.push((step, slot));
            self.taken += 1;
        }
        Ok(())
    }

    /// Returns a measured window's slot to the producer for refilling.
    pub(crate) fn give_back(&self, slot: Vec<DidtResponse>) {
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
/// steps. A scoped producer thread fills them, in order, with
/// `fill(step, slot)` into a pool of slots of `domains` responses each,
/// allocated here before it starts. It works ahead of the consumer as
/// far as free slots allow.
///
/// When `consume` returns, early or not, its stream is dropped, so a
/// producer waiting for a free slot wakes and ends; the scope then joins
/// it and returns `consume`'s result. A panic on the producer is
/// re-raised here.
pub(crate) fn with_window_stream<R>(
    steps: &[usize],
    steps_per_interval: usize,
    domains: usize,
    mut fill: impl FnMut(usize, &mut [DidtResponse]) + Send,
    consume: impl FnOnce(&mut WindowStream<'_>) -> Result<R>,
) -> Result<R> {
    let free = window_pool(steps, steps_per_interval, domains);
    let exchange = Exchange {
        slots: Mutex::new(Slots {
            full: VecDeque::with_capacity(free.len()),
            free,
            consumer_gone: false,
            producer_gone: false,
        }),
        changed: Condvar::new(),
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _gone = ProducerGone(&exchange);
            for &step in steps {
                let mut slots = exchange.wait_for(|s| !s.free.is_empty() || s.consumer_gone);
                if slots.consumer_gone {
                    return;
                }
                let Some(mut slot) = slots.free.pop() else {
                    return;
                };
                drop(slots);
                fill(step, &mut slot);
                exchange.update(|s| s.full.push_back(slot));
            }
        });
        let mut stream = WindowStream {
            steps,
            steps_per_interval,
            taken: 0,
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// A slot whose first response records the step it was filled for.
    fn fill_with_step(step: usize, slot: &mut [DidtResponse]) {
        let config = PdnConfig::default();
        let mut window = vec![1.0; 8];
        window[4] = 1.0 + step as f64;
        let (response_time, frequency) = (Seconds::from_nanos(1.0), Hertz::from_ghz(1.0));
        slot[0] = DidtResponse::new(&config, response_time, frequency, &window, 2);
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
        // the producer must still fill all of interval 1. The stream
        // runs on its own thread, so a hang fails the test at the
        // timeout instead of stalling it.
        let filled = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        let counter = Arc::clone(&filled);
        std::thread::spawn(move || {
            let steps: Vec<usize> = (0..20).collect();
            let fill = |step: usize, slot: &mut [DidtResponse]| {
                fill_with_step(step, slot);
                counter.fetch_add(1, Ordering::SeqCst);
            };
            let out = with_window_stream(&steps, 4, 1, fill, |stream| {
                let mut interval = Vec::new();
                stream.take_interval(0, &mut interval)?;
                let held = interval.len();
                let deadline = std::time::Instant::now() + Duration::from_secs(60);
                while counter.load(Ordering::SeqCst) < 8 && std::time::Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let ahead = counter.load(Ordering::SeqCst);
                for k in 0..5 {
                    for (_, slot) in interval.drain(..) {
                        stream.give_back(slot);
                    }
                    stream.take_interval(k, &mut interval)?;
                }
                Ok((held, ahead))
            });
            done_tx.send(out).unwrap();
        });
        let (held, ahead) = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the window stream did not return")
            .unwrap();
        assert_eq!(held, 4);
        assert_eq!(ahead, 8, "the producer did not fill interval 1 ahead");
        assert_eq!(filled.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn stream_delivers_every_window_in_step_order() {
        // Three or four windows per 10-step interval.
        let steps: Vec<usize> = (0..40).map(|w| w * 3 + 1).collect();
        let expected: Vec<DidtResponse> = steps
            .iter()
            .map(|&s| {
                let mut slot = vec![DidtResponse::with_capacity(6)];
                fill_with_step(s, &mut slot);
                slot.remove(0)
            })
            .collect();
        let got = with_window_stream(&steps, 10, 1, fill_with_step, |stream| {
            let mut got = Vec::new();
            let mut interval = Vec::new();
            for k in 0..13 {
                stream.take_interval(k, &mut interval)?;
                for (step, slot) in interval.drain(..) {
                    assert_eq!(step / 10, k);
                    got.push(slot[0].clone());
                    stream.give_back(slot);
                }
            }
            Ok(got)
        })
        .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn an_early_return_ends_the_producer() {
        // The consumer stops after its first interval without handing a
        // slot back, as an error in the decision loop would: the
        // producer then waits for a free slot, and must wake and end so
        // that the scope can return. The stream runs on its own thread,
        // so a hang fails the test at the timeout instead of stalling it.
        let filled = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        let counter = Arc::clone(&filled);
        std::thread::spawn(move || {
            let steps: Vec<usize> = (0..200).collect();
            let fill = |step: usize, slot: &mut [DidtResponse]| {
                counter.fetch_add(1, Ordering::Relaxed);
                fill_with_step(step, slot);
            };
            // Two windows per interval: a pool of two intervals, four
            // slots.
            let out = with_window_stream(&steps, 2, 1, fill, |stream| {
                let mut interval = Vec::new();
                stream.take_interval(0, &mut interval)?;
                assert_eq!(interval.len(), 2);
                Err::<(), _>(Error::invalid_argument("decision failed"))
            });
            done_tx.send(out).unwrap();
        });
        let out = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the window stream did not return after an early error");
        assert!(out.is_err());
        // The producer stopped within the pool, not at the run's end.
        assert!(filled.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn a_panicking_producer_fails_the_stream_instead_of_hanging_it() {
        // The producer dies at the third window; the consumer, waiting
        // for it, must get an error, and the scope re-raises the panic.
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let steps: Vec<usize> = (0..20).collect();
            let fill = |step: usize, slot: &mut [DidtResponse]| {
                assert!(step < 2, "window generation failed");
                fill_with_step(step, slot);
            };
            let taken = std::panic::catch_unwind(|| {
                with_window_stream(&steps, 10, 1, fill, |stream| {
                    let mut interval = Vec::new();
                    let taken = stream.take_interval(0, &mut interval);
                    Ok((interval.len(), taken))
                })
            });
            done_tx.send(taken.is_err()).unwrap();
        });
        let panicked = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the window stream hung after its producer panicked");
        assert!(panicked);
    }
}
