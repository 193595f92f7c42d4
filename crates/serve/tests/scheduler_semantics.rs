//! Scheduler semantics, pinned deterministically:
//!
//! * batched vs. sequential **output parity** under concurrent submitters
//!   (real engine);
//! * **backpressure**: a full bounded queue rejects with `Overloaded`
//!   (gated fake runner, so "full" is not a race);
//! * **clean shutdown**: every request accepted before `shutdown()` is
//!   answered — the queue drains, nothing dangles;
//! * **micro-batching**: queued requests actually coalesce into one batch;
//! * **one completion per request**: `submit_with`'s callback runs exactly
//!   once for every queued request — answered, failed or drained — and
//!   never for a synchronous rejection;
//! * **the reload contract** (through `EngineRegistry` and
//!   `ModelEntry::reload_runner`): queued requests are answered by the
//!   engine that admitted them, shutdown waits for them, a reload never
//!   reopens a shut-down model, and the newest version is the one serving.

use pecan_serve::{
    demo, BatchRunner, BatchScheduler, Complete, EngineRegistry, Prediction, SchedulerConfig,
    ServeError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// A runner that blocks inside `run_batch` until the test releases it —
/// makes "worker busy, queue full" states deterministic instead of timing
/// dependent. It answers `2·Σx`. A negative input, or one of another
/// width than its own, fails its whole batch.
struct GatedRunner {
    /// Values each request carries.
    width: usize,
    /// Signals each `run_batch` entry.
    entered: mpsc::Sender<usize>,
    /// One `recv` per `run_batch` call is needed to proceed.
    gate: Mutex<mpsc::Receiver<()>>,
    calls: AtomicUsize,
}

impl GatedRunner {
    fn new() -> (Arc<Self>, mpsc::Receiver<usize>, mpsc::Sender<()>) {
        Self::with_width(1)
    }

    fn with_width(width: usize) -> (Arc<Self>, mpsc::Receiver<usize>, mpsc::Sender<()>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel();
        let runner = Arc::new(Self {
            width,
            entered: entered_tx,
            gate: Mutex::new(gate_rx),
            calls: AtomicUsize::new(0),
        });
        (runner, entered_rx, gate_tx)
    }
}

impl BatchRunner for GatedRunner {
    fn input_len(&self) -> usize {
        self.width
    }
    fn output_len(&self) -> usize {
        1
    }
    fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let _ = self.entered.send(inputs.len());
        // Hold until released; a closed gate (test ended) just proceeds.
        let _ = self.gate.lock().unwrap().recv();
        if inputs.iter().any(|v| v.len() != self.width) {
            return Err(ServeError::Engine("input of another engine's width".into()));
        }
        if inputs.iter().any(|v| v[0] < 0.0) {
            return Err(ServeError::Engine("negative input".into()));
        }
        Ok(inputs.iter().map(|v| vec![v.iter().sum::<f32>() * 2.0]).collect())
    }
}

/// A runner that answers every request with its own tag.
struct TagRunner(f32);

impl BatchRunner for TagRunner {
    fn input_len(&self) -> usize {
        1
    }
    fn output_len(&self) -> usize {
        1
    }
    fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        Ok(inputs.iter().map(|_| vec![self.0]).collect())
    }
}

/// One worker, no lingering: a batch is whatever is queued when the
/// worker looks.
fn one_worker() -> SchedulerConfig {
    SchedulerConfig { max_batch: 8, max_wait: Duration::ZERO, queue_capacity: 16, workers: 1 }
}

type Answers = mpsc::Receiver<(usize, Result<Prediction, ServeError>)>;

/// A callback factory whose callbacks forward their answer tagged, and
/// the stream they forward into.
fn tagged_answers() -> (impl Fn(usize) -> Complete, Answers) {
    let (tx, rx) = mpsc::channel();
    let callback = move |tag: usize| -> Complete {
        let tx = tx.clone();
        Box::new(move |result| drop(tx.send((tag, result))))
    };
    (callback, rx)
}

#[test]
fn concurrent_submitters_get_bit_identical_answers() {
    let engine = Arc::new(demo::mlp_engine(11));
    let scheduler = Arc::new(BatchScheduler::start(
        engine.clone(),
        SchedulerConfig {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            workers: 2,
        },
    ));
    let submitters = 8;
    let per_thread = 12;
    let mut handles = Vec::new();
    for t in 0..submitters {
        let scheduler = Arc::clone(&scheduler);
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1000 + t);
            for _ in 0..per_thread {
                let input = pecan_tensor::uniform(&mut rng, &[engine.input_len()], -1.0, 1.0)
                    .into_vec();
                let served = scheduler.predict(input.clone()).expect("served");
                let direct = engine.predict(&input).expect("direct");
                assert_eq!(served.output.len(), direct.len());
                for (a, b) in served.output.iter().zip(&direct) {
                    assert_eq!(a.to_bits(), b.to_bits(), "scheduling changed bits");
                }
                assert!(served.batch_size >= 1);
                assert!(served.total >= served.queued);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = scheduler.stats();
    assert_eq!(stats.completed, submitters * per_thread);
    assert_eq!(stats.rejected, 0);
    assert!(stats.batches <= stats.completed);
    scheduler.shutdown();
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let (runner, entered, gate) = GatedRunner::new();
    let scheduler = BatchScheduler::start(
        runner.clone(),
        SchedulerConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 2,
            workers: 1,
        },
    );
    // First request is taken by the worker, which blocks inside the gate.
    let t1 = scheduler.submit(vec![1.0]).unwrap();
    assert_eq!(entered.recv().unwrap(), 1, "worker holds request 1");
    // Queue now has room for exactly 2.
    let t2 = scheduler.submit(vec![2.0]).unwrap();
    let t3 = scheduler.submit(vec![3.0]).unwrap();
    match scheduler.submit(vec![4.0]) {
        Err(ServeError::Overloaded { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(scheduler.stats().rejected, 1);
    // Release the worker for the three accepted requests.
    for _ in 0..3 {
        gate.send(()).unwrap();
    }
    assert_eq!(t1.wait().unwrap().output, vec![2.0]);
    assert_eq!(t2.wait().unwrap().output, vec![4.0]);
    assert_eq!(t3.wait().unwrap().output, vec![6.0]);
    // After the backlog clears, capacity is available again.
    let t5 = scheduler.submit(vec![5.0]).unwrap();
    let _ = entered.recv();
    gate.send(()).unwrap();
    assert_eq!(t5.wait().unwrap().output, vec![10.0]);
    scheduler.shutdown();
}

#[test]
fn shutdown_drains_every_accepted_request() {
    let (runner, entered, gate) = GatedRunner::new();
    let scheduler = Arc::new(BatchScheduler::start(
        runner.clone(),
        SchedulerConfig {
            max_batch: 2,
            max_wait: Duration::ZERO,
            queue_capacity: 16,
            workers: 1,
        },
    ));
    // Worker grabs the first request and blocks; three more queue behind.
    let tickets: Vec<_> =
        (0..4).map(|i| scheduler.submit(vec![f32::from(i as u8)]).unwrap()).collect();
    let first_batch = entered.recv().unwrap();
    assert!(first_batch >= 1);

    // Shut down from another thread (it blocks joining the worker), then
    // release the gate so the drain can proceed.
    let shutdown_thread = {
        let scheduler = Arc::clone(&scheduler);
        std::thread::spawn(move || scheduler.shutdown())
    };
    // One release per remaining batch; extra sends are harmless.
    for _ in 0..4 {
        let _ = gate.send(());
    }
    for (i, t) in tickets.into_iter().enumerate() {
        let p = t.wait().unwrap_or_else(|e| panic!("request {i} dangled: {e}"));
        assert_eq!(p.output, vec![i as f32 * 2.0]);
    }
    shutdown_thread.join().unwrap();
    assert!(matches!(scheduler.submit(vec![9.0]), Err(ServeError::ShuttingDown)));
    assert_eq!(scheduler.stats().completed, 4);
}

#[test]
fn queued_requests_coalesce_into_one_batch() {
    let (runner, entered, gate) = GatedRunner::new();
    let scheduler = BatchScheduler::start(
        runner.clone(),
        SchedulerConfig {
            max_batch: 8,
            max_wait: Duration::ZERO, // batch = whatever is queued right now
            queue_capacity: 64,
            workers: 1,
        },
    );
    // Occupy the worker, then queue five requests behind it.
    let t0 = scheduler.submit(vec![0.0]).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    let tickets: Vec<_> = (1..=5).map(|i| scheduler.submit(vec![i as f32]).unwrap()).collect();
    gate.send(()).unwrap(); // release batch 1
    assert_eq!(entered.recv().unwrap(), 5, "the five queued requests run as one batch");
    gate.send(()).unwrap(); // release batch 2
    assert_eq!(t0.wait().unwrap().batch_size, 1);
    for (i, t) in tickets.into_iter().enumerate() {
        let p = t.wait().unwrap();
        assert_eq!(p.batch_size, 5);
        assert_eq!(p.output, vec![(i + 1) as f32 * 2.0]);
    }
    assert_eq!(runner.calls.load(Ordering::SeqCst), 2);
    scheduler.shutdown();
}

#[test]
fn max_wait_gathers_stragglers_into_the_batch() {
    let engine = Arc::new(demo::mlp_engine(12));
    let scheduler = Arc::new(BatchScheduler::start(
        engine.clone(),
        SchedulerConfig {
            max_batch: 4,
            max_wait: Duration::from_millis(200),
            queue_capacity: 64,
            workers: 1,
        },
    ));
    // Submit four requests from four threads within the gather window;
    // with a 200 ms window they should coalesce (wall clock on loaded CI
    // can stretch, so only the *parity* is a hard assertion).
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let scheduler = Arc::clone(&scheduler);
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let input = vec![t as f32 * 0.25; engine.input_len()];
            let p = scheduler.predict(input.clone()).expect("served");
            let direct = engine.predict(&input).expect("direct");
            assert_eq!(p.output, direct);
            p.batch_size
        }));
    }
    let sizes: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(sizes.iter().all(|&s| (1..=4).contains(&s)));
    scheduler.shutdown();
}

#[test]
fn completion_callback_runs_once_per_queued_request_and_never_on_rejection() {
    let (runner, entered, gate) = GatedRunner::new();
    let scheduler = Arc::new(BatchScheduler::start(
        runner,
        SchedulerConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 2,
            workers: 1,
        },
    ));
    // Request `tag`'s callback forwards its answer, tagged; being
    // `FnOnce`, it can forward at most once.
    let (callback, answers) = tagged_answers();

    // 0: wrong length, rejected before queueing.
    let bad = scheduler.submit_with(vec![1.0, 2.0], callback(0));
    assert!(matches!(bad, Err(ServeError::BadInput(_))), "{bad:?}");
    // 1 succeeds; the worker holds it in the gate.
    scheduler.submit_with(vec![1.0], callback(1)).unwrap();
    assert_eq!(entered.recv().unwrap(), 1);
    // 2 fails its batch; 3 is still queued when shutdown begins.
    scheduler.submit_with(vec![-1.0], callback(2)).unwrap();
    scheduler.submit_with(vec![3.0], callback(3)).unwrap();
    // 4: the queue is full.
    let full = scheduler.submit_with(vec![4.0], callback(4));
    assert!(matches!(full, Err(ServeError::Overloaded { capacity: 2 })), "{full:?}");

    // Shut down while the worker is pinned. Until the flag is up the full
    // queue answers `Overloaded`; from then on, 5 is refused as draining.
    let shutdown = {
        let scheduler = Arc::clone(&scheduler);
        std::thread::spawn(move || scheduler.shutdown())
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match scheduler.submit_with(vec![5.0], callback(5)) {
            Err(ServeError::ShuttingDown) => break,
            Err(ServeError::Overloaded { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }
    // The drain answers 1, then 2's failed batch, then 3.
    for _ in 0..3 {
        gate.send(()).unwrap();
    }
    shutdown.join().unwrap();
    // Every callback has now run or been dropped, so this ends the stream.
    drop(callback);

    let answered: Vec<(usize, Result<Prediction, ServeError>)> = answers.iter().collect();
    let tags: Vec<usize> = answered.iter().map(|(tag, _)| *tag).collect();
    assert_eq!(tags, vec![1, 2, 3], "queued requests answered once each, rejections never");
    assert_eq!(answered[0].1.as_ref().unwrap().output, vec![2.0]);
    assert!(matches!(answered[1].1, Err(ServeError::Engine(_))), "{:?}", answered[1].1);
    assert_eq!(answered[2].1.as_ref().unwrap().output, vec![6.0], "drained by shutdown");
    let stats = scheduler.stats();
    assert_eq!((stats.submitted, stats.completed, stats.failed), (3, 2, 1));
}

#[test]
fn queued_requests_are_answered_by_the_engine_that_admitted_them() {
    let (a, a_entered, a_gate) = GatedRunner::with_width(1);
    let (b, b_entered, b_gate) = GatedRunner::with_width(2);
    drop(b_gate); // B runs freely
    let registry = EngineRegistry::new();
    registry.register_runner_as("m", a, one_worker()).unwrap();
    let entry = registry.resolve(Some("m")).unwrap();
    let (callback, answers) = tagged_answers();

    // A holds the first request inside `run_batch`; two more queue.
    entry.submit_with(vec![1.0], callback(1)).unwrap();
    assert_eq!(a_entered.recv().unwrap(), 1);
    entry.submit_with(vec![2.0], callback(2)).unwrap();
    entry.submit_with(vec![3.0], callback(3)).unwrap();

    // Swap in B, which takes two values; new requests must fit B.
    assert_eq!(entry.reload_runner(b), 2);
    entry.submit_with(vec![3.0, 4.0], callback(4)).unwrap();
    let stale = entry.submit_with(vec![5.0], callback(5));
    assert!(matches!(stale, Err(ServeError::BadInput(_))), "{stale:?}");

    // Released, A answers its own two queued requests in one batch; B's
    // request rides alone in B.
    drop(a_gate);
    assert_eq!(a_entered.recv().unwrap(), 2, "A's queued requests, and only those");
    assert_eq!(b_entered.recv().unwrap(), 1);
    let mut got: Vec<(usize, Vec<f32>)> =
        (0..4).map(|_| answers.recv().unwrap()).map(|(t, r)| (t, r.unwrap().output)).collect();
    got.sort_by_key(|(tag, _)| *tag);
    let want = [(1, vec![2.0]), (2, vec![4.0]), (3, vec![6.0]), (4, vec![14.0])];
    assert_eq!(got, want.to_vec());
    assert_eq!(entry.version(), 2);
    let stats = entry.stats();
    assert_eq!((stats.submitted, stats.completed, stats.failed), (4, 4, 0));
    registry.shutdown();
}

#[test]
fn shutdown_after_a_reload_waits_for_requests_the_old_engine_admitted() {
    let (a, a_entered, a_gate) = GatedRunner::with_width(1);
    let registry = Arc::new(EngineRegistry::new());
    registry.register_runner_as("m", a, one_worker()).unwrap();
    let entry = registry.resolve(Some("m")).unwrap();
    let (callback, answers) = tagged_answers();

    // A holds one request and has another queued; then B takes over.
    entry.submit_with(vec![1.0], callback(1)).unwrap();
    assert_eq!(a_entered.recv().unwrap(), 1);
    entry.submit_with(vec![2.0], callback(2)).unwrap();
    entry.reload_runner(Arc::new(TagRunner(-1.0)));

    let shutdown = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || registry.shutdown())
    };
    std::thread::sleep(Duration::from_millis(200));
    let returned_early = shutdown.is_finished();
    drop(a_gate); // release A before asserting, so a failure cannot hang
    shutdown.join().unwrap();
    assert!(!returned_early, "shutdown returned while A still held admitted requests");
    let mut got: Vec<(usize, Vec<f32>)> =
        (0..2).map(|_| answers.recv().unwrap()).map(|(t, r)| (t, r.unwrap().output)).collect();
    got.sort_by_key(|(tag, _)| *tag);
    assert_eq!(got, vec![(1, vec![2.0]), (2, vec![4.0])]);
}

#[test]
fn a_reload_after_shutdown_does_not_reopen_the_model() {
    let registry = EngineRegistry::new();
    registry.register_runner_as("m", Arc::new(TagRunner(1.0)), one_worker()).unwrap();
    let entry = registry.resolve(Some("m")).unwrap();
    registry.shutdown();
    entry.reload_runner(Arc::new(TagRunner(2.0)));
    let answer = entry.predict(vec![0.0]);
    assert!(matches!(answer, Err(ServeError::ShuttingDown)), "{answer:?}");
}

#[test]
fn concurrent_reloads_leave_the_newest_version_serving() {
    let (threads, per_thread) = (4u64, 25u64);
    for _ in 0..10 {
        let registry = EngineRegistry::new();
        registry.register_runner_as("m", Arc::new(TagRunner(0.0)), one_worker()).unwrap();
        let entry = registry.resolve(Some("m")).unwrap();
        // Each reload installs a runner answering its own tag and records
        // the version it was handed.
        let handed: Vec<(u64, f32)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let entry = &entry;
                    s.spawn(move || {
                        (0..per_thread)
                            .map(|i| {
                                let tag = (t * per_thread + i + 1) as f32;
                                (entry.reload_runner(Arc::new(TagRunner(tag))), tag)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        let (newest, tag) = handed.iter().copied().max_by_key(|(v, _)| *v).unwrap();
        assert_eq!(newest, 1 + threads * per_thread);
        assert_eq!(entry.version(), newest, "version() names the newest swap");
        assert_eq!(entry.predict(vec![0.0]).unwrap().output, vec![tag], "and it serves");
        registry.shutdown();
    }
}
