//! Micro-batching scheduler: aggregates concurrent requests into batches
//! for the frozen engine's batch kernels.
//!
//! Requests enter a **bounded** submission queue; a full queue rejects
//! immediately with [`ServeError::Overloaded`] (backpressure — callers see
//! it as HTTP 503 and retry, rather than latency collapsing for everyone).
//! Persistent worker threads drain the queue in batches: a worker takes
//! whatever is waiting, and when that is fewer than `max_batch` it lingers
//! up to `max_wait` for stragglers before running the batch. Because
//! batched inference is bit-identical to sequential inference (see
//! [`FrozenEngine::predict_batch`](crate::FrozenEngine::predict_batch)),
//! batching is purely a throughput decision — responses never depend on
//! which requests happened to share a batch.
//!
//! [`BatchScheduler::submit_with`] is the one admission path: it checks
//! and queues every request, and each queued request carries one
//! [`Complete`] callback that a worker calls exactly once with the
//! answer. The blocking [`BatchScheduler::submit`] and
//! [`BatchScheduler::predict`] queue a callback that sends into the
//! channel their [`Ticket`] waits on.
//!
//! # One scheduler per model
//!
//! A served model keeps one scheduler for its whole life, and a reload
//! ([`ModelEntry::reload_runner`](crate::ModelEntry::reload_runner))
//! swaps the [`BatchRunner`] inside it. The runner and its generation
//! sit under the queue lock, so a swap and its version number are one
//! step. Each request is checked against, and carries, the runner that
//! admitted it, and a batch never mixes runners, so queued requests are
//! answered by their own engine even when the new one takes another
//! input length.
//!
//! # Thread-pool note (ROADMAP "per-call pool reuse")
//!
//! The serving hot path performs **zero thread spawns per request**: the
//! scheduler's workers are spawned once at construction and live until
//! shutdown, and everything a worker calls — `LayerLut::forward_cols`,
//! `AnalogCam::search_strided_into`, the `pecan-index` scan kernels, LUT
//! accumulation — is spawn-free single-threaded code. The
//! `std::thread::scope` pool in `pecan-tensor` is only entered by GEMMs,
//! which serving never issues (the `W·C` products were precomputed at
//! engine-compile time; that one-time cost is the only pool use). So there
//! is no per-call spawn overhead to amortize here: worker-thread reuse
//! *is* the pool reuse, and cross-request parallelism comes from running
//! several workers (`SchedulerConfig::workers`) against one shared
//! engine.

use crate::error::ServeError;
use crate::obs::Histogram;
use crate::stats::{ServeStats, StatsSnapshot};
use crate::{lock, FrozenEngine};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Anything that can answer batches of flat `f32` requests.
///
/// [`FrozenEngine`] is the production implementation; tests substitute
/// gated fakes to pin queue semantics deterministically.
pub trait BatchRunner: Send + Sync + 'static {
    /// Flat values each request must carry.
    fn input_len(&self) -> usize;
    /// Flat values each response carries.
    fn output_len(&self) -> usize;
    /// Answers `inputs` in order. Must be bit-identical to answering each
    /// input in a batch of one.
    ///
    /// # Errors
    ///
    /// Implementation-defined; the scheduler clones the error to every
    /// request of the failed batch.
    fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError>;

    /// Each stage's kind and per-batch wall-time histogram (ns), in
    /// pipeline order — the per-layer series `/metrics` exports. Empty
    /// by default, for runners without stages such as test doubles.
    fn stage_times(&self) -> Vec<(&'static str, &Histogram)> {
        Vec::new()
    }
}

impl BatchRunner for FrozenEngine {
    fn input_len(&self) -> usize {
        FrozenEngine::input_len(self)
    }
    fn output_len(&self) -> usize {
        FrozenEngine::output_len(self)
    }
    fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        self.predict_batch(inputs)
    }
    fn stage_times(&self) -> Vec<(&'static str, &Histogram)> {
        FrozenEngine::stage_times(self)
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Most requests one batch may contain (≥ 1). `1` disables batching.
    pub max_batch: usize,
    /// How long a worker lingers for stragglers once it holds at least one
    /// request but fewer than `max_batch`. Zero means "run with whatever is
    /// queued right now".
    pub max_wait: Duration,
    /// Bounded queue depth; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Persistent worker threads (≥ 1).
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_wait: Duration::from_micros(200),
            queue_capacity: 256,
            workers: 1,
        }
    }
}

/// One answered request with its latency accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The engine output.
    pub output: Vec<f32>,
    /// Time spent waiting in the queue before the batch started.
    pub queued: Duration,
    /// Submit→answer wall clock.
    pub total: Duration,
    /// How many requests shared this request's batch.
    pub batch_size: usize,
    /// ID of the batch this request rode in (1-based, unique per
    /// scheduler) — correlates flight-recorder traces across requests.
    pub batch_id: u64,
}

/// Completion callback: how every queued request is answered. A worker
/// calls it exactly once, with the batch's result or error.
pub type Complete = Box<dyn FnOnce(Result<Prediction, ServeError>) + Send>;

struct Request {
    input: Vec<f32>,
    submitted: Instant,
    /// The runner current when the request was admitted; it answers it.
    runner: Arc<dyn BatchRunner>,
    complete: Complete,
}

struct QueueState {
    queue: VecDeque<Request>,
    /// The runner new requests are admitted to, and its generation
    /// (1 at start, +1 per `replace_runner`).
    runner: Arc<dyn BatchRunner>,
    generation: u64,
    shutdown: bool,
}

struct Shared {
    config: SchedulerConfig,
    state: Mutex<QueueState>,
    cvar: Condvar,
    stats: ServeStats,
}

/// A claim on a submitted request; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl Ticket {
    /// A blocking reply: the callback sends into the channel the ticket
    /// waits on.
    fn pair() -> (Complete, Ticket) {
        let (tx, rx) = mpsc::channel();
        // A dropped receiver means the client went away; nothing to do.
        let complete: Complete = Box::new(move |result| drop(tx.send(result)));
        (complete, Ticket { rx })
    }

    /// Blocks until the scheduler answers this request.
    ///
    /// # Errors
    ///
    /// Whatever the batch produced, or [`ServeError::Disconnected`] if the
    /// serving worker vanished.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// The micro-batching scheduler. See the module docs.
///
/// # Example
///
/// ```
/// use pecan_serve::{BatchScheduler, SchedulerConfig};
/// use std::sync::Arc;
///
/// let engine = Arc::new(pecan_serve::demo::mlp_engine(5));
/// let scheduler = BatchScheduler::start(engine.clone(), SchedulerConfig::default());
/// let input = vec![0.5; engine.input_len()];
/// let answer = scheduler.predict(input.clone()).unwrap();
/// // scheduling and batching never change the bits
/// assert_eq!(answer.output, engine.predict(&input).unwrap());
/// scheduler.shutdown();
/// ```
pub struct BatchScheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler").field("config", &self.shared.config).finish()
    }
}

impl BatchScheduler {
    /// Spawns the worker threads and starts serving.
    ///
    /// Invalid knobs are clamped to sane floors (`max_batch`, `workers`,
    /// `queue_capacity` ≥ 1) rather than rejected.
    pub fn start(runner: Arc<dyn BatchRunner>, mut config: SchedulerConfig) -> Self {
        config.max_batch = config.max_batch.max(1);
        config.workers = config.workers.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        let shared = Arc::new(Shared {
            config: config.clone(),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                runner,
                generation: 1,
                shutdown: false,
            }),
            cvar: Condvar::new(),
            stats: ServeStats::new(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pecan-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // analyze: allow(hot-path-panic) -- one-time worker
                    // spawn at scheduler construction, not the submit path
                    .expect("spawning a scheduler worker")
            })
            .collect();
        Self { shared, workers: Mutex::new(workers) }
    }

    /// The runner new requests are admitted to, and its generation
    /// (1 at start, +1 per [`BatchScheduler::replace_runner`]).
    pub(crate) fn runner(&self) -> (Arc<dyn BatchRunner>, u64) {
        let state = lock(&self.shared.state);
        (Arc::clone(&state.runner), state.generation)
    }

    /// Swaps the runner new requests are admitted to and returns its
    /// generation. Requests already queued keep the runner that admitted
    /// them. Swap and generation are one critical section, so the
    /// highest generation handed out always names the runner serving.
    pub(crate) fn replace_runner(&self, runner: Arc<dyn BatchRunner>) -> u64 {
        let mut state = lock(&self.shared.state);
        let old = std::mem::replace(&mut state.runner, runner);
        state.generation += 1;
        let generation = state.generation;
        drop(state);
        // A retired engine with nothing queued is freed here, off the lock.
        drop(old);
        generation
    }

    /// The configuration the scheduler runs with (after clamping).
    pub fn config(&self) -> &SchedulerConfig {
        &self.shared.config
    }

    /// Live counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The live stats store itself — histograms included. `/metrics`
    /// reads distributions from here without snapshotting counters it
    /// does not need.
    pub fn serve_stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Enqueues one request, returning a [`Ticket`] to wait on.
    ///
    /// # Errors
    ///
    /// * [`ServeError::BadInput`] — wrong input length (checked here so a
    ///   bad request can never poison a batch);
    /// * [`ServeError::Overloaded`] — queue at capacity;
    /// * [`ServeError::ShuttingDown`] — scheduler is draining.
    pub fn submit(&self, input: Vec<f32>) -> Result<Ticket, ServeError> {
        let (complete, ticket) = Ticket::pair();
        self.submit_with(input, complete)?;
        Ok(ticket)
    }

    /// Enqueues one request whose answer is delivered by invoking
    /// `complete` on a worker thread — no caller blocks. The event-loop
    /// front end's callback pushes the result onto the loop's completion
    /// queue and pokes its eventfd.
    ///
    /// The callback is called exactly once, with the batch's result or
    /// error; it must not block (it runs on the inference worker).
    ///
    /// # Errors
    ///
    /// As for [`BatchScheduler::submit`]. On error the callback is **not**
    /// invoked — the caller still holds the error synchronously.
    pub fn submit_with(&self, input: Vec<f32>, complete: Complete) -> Result<(), ServeError> {
        {
            let mut state = lock(&self.shared.state);
            let want = state.runner.input_len();
            if input.len() != want {
                drop(state);
                return Err(ServeError::BadInput(format!(
                    "request has {} values, engine expects {want}",
                    input.len()
                )));
            }
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() >= self.shared.config.queue_capacity {
                self.shared.stats.record_rejected();
                return Err(ServeError::Overloaded { capacity: self.shared.config.queue_capacity });
            }
            let runner = Arc::clone(&state.runner);
            state.queue.push_back(Request { input, submitted: Instant::now(), runner, complete });
        }
        self.shared.stats.record_submitted();
        self.shared.cvar.notify_one();
        Ok(())
    }

    /// Requests currently waiting in the submission queue. Advisory — the
    /// value may be stale by the time the caller acts on it; the HTTP tier
    /// uses it to shed load *before* the hard capacity rejection.
    pub fn queue_len(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// Convenience: [`BatchScheduler::submit`] + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// As for [`BatchScheduler::submit`] and [`Ticket::wait`].
    pub fn predict(&self, input: Vec<f32>) -> Result<Prediction, ServeError> {
        self.submit(input)?.wait()
    }

    /// Stops accepting work, drains every queued request, and joins the
    /// workers. Idempotent; called automatically on drop.
    ///
    /// In-flight and queued requests are all answered — every queued
    /// callback runs, so a ticket obtained before `shutdown` never
    /// dangles.
    pub fn shutdown(&self) {
        {
            let mut state = lock(&self.shared.state);
            if state.shutdown {
                // Already shut down; workers may be gone. Don't re-join.
                drop(state);
                return;
            }
            state.shutdown = true;
        }
        self.shared.cvar.notify_all();
        let handles = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    let config = &shared.config;
    loop {
        let mut state = lock(&shared.state);
        // Sleep until there is work or the house is closing.
        while state.queue.is_empty() && !state.shutdown {
            state = shared
                .cvar
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if state.queue.is_empty() {
            // shutdown && empty — the queue is drained, retire.
            return;
        }
        // Micro-batching: linger briefly for stragglers, but never once
        // shutdown is signalled and never when batching is disabled.
        // The formation span covers the linger wait, so queue-gathering
        // time shows up in traces as wall ≫ cpu.
        let form_span = pecan_obs::span("scheduler.form");
        if config.max_batch > 1 && !config.max_wait.is_zero() {
            let deadline = Instant::now() + config.max_wait;
            while state.queue.len() < config.max_batch && !state.shutdown {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, timeout) = shared
                    .cvar
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = next;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        // With several workers, a sibling may have drained the queue while
        // this worker lingered with the lock released — nothing to run.
        let Some(front) = state.queue.front() else {
            continue;
        };
        // A batch never mixes engines: it is the leading requests that
        // share the front request's runner, which then answers them.
        let runner = Arc::clone(&front.runner);
        let take = state
            .queue
            .iter()
            .take(config.max_batch)
            .take_while(|r| Arc::ptr_eq(&r.runner, &runner))
            .count();
        let mut batch: Vec<Request> = state.queue.drain(..take).collect();
        let more_waiting = !state.queue.is_empty();
        drop(state);
        drop(form_span);
        if more_waiting {
            // Another worker can start gathering while this one computes.
            shared.cvar.notify_one();
        }

        let started = Instant::now();
        // The queued request owns its payload and never needs it again —
        // move it out instead of cloning on the hot path.
        let inputs: Vec<Vec<f32>> =
            batch.iter_mut().map(|r| std::mem::take(&mut r.input)).collect();
        let batch_id = shared.stats.record_batch(batch.len());
        let _span = pecan_obs::span_with_id("scheduler.batch", batch_id);
        // A panicking runner must not kill the worker: queued requests
        // behind this batch would never be answered and their callers
        // would wait forever. Contain it and answer the batch with an
        // error instead.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run_batch(&inputs)
        }))
        .unwrap_or_else(|_| {
            crate::log_error!(
                "serve::scheduler",
                "inference worker panicked",
                batch_id = batch_id,
                batch_size = inputs.len(),
            );
            Err(ServeError::Engine("inference worker panicked".into()))
        });
        match outcome {
            Ok(outputs) => {
                for (req, output) in batch.into_iter().zip(outputs) {
                    let queued = started.duration_since(req.submitted);
                    let total = req.submitted.elapsed();
                    shared
                        .stats
                        .record_completed(queued.as_nanos() as u64, total.as_nanos() as u64);
                    (req.complete)(Ok(Prediction {
                        output,
                        queued,
                        total,
                        batch_size: inputs.len(),
                        batch_id,
                    }));
                }
            }
            Err(e) => {
                crate::log_warn!(
                    "serve::scheduler",
                    "batch failed",
                    batch_id = batch_id,
                    batch_size = inputs.len(),
                    error = e,
                );
                for req in batch {
                    shared.stats.record_failed();
                    (req.complete)(Err(e.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_is_clamped_to_sane_floors() {
        let engine = Arc::new(crate::demo::mlp_engine(2));
        let s = BatchScheduler::start(
            engine,
            SchedulerConfig { max_batch: 0, workers: 0, queue_capacity: 0, ..Default::default() },
        );
        assert_eq!(s.config().max_batch, 1);
        assert_eq!(s.config().workers, 1);
        assert_eq!(s.config().queue_capacity, 1);
        s.shutdown();
        s.shutdown(); // idempotent
    }

    #[test]
    fn submit_rejects_wrong_length_before_queueing() {
        let engine = Arc::new(crate::demo::mlp_engine(2));
        let s = BatchScheduler::start(engine, SchedulerConfig::default());
        assert!(matches!(s.submit(vec![0.0; 3]), Err(ServeError::BadInput(_))));
        assert_eq!(s.stats().submitted, 0);
        s.shutdown();
        assert!(matches!(
            s.submit(vec![0.0; s.runner().0.input_len()]),
            Err(ServeError::ShuttingDown)
        ));
    }
}
