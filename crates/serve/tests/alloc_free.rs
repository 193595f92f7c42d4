//! Allocation-regression tests for the serving hot paths, measured under
//! the counting global allocator ([`pecan_obs::PecanAlloc`]).
//!
//! Two different strengths of claim, matching what the code documents:
//!
//! * **Strictly zero** — `FlightRecorder::record` ("recording … never
//!   allocates", `obs/recorder.rs`). Any allocation is a regression.
//! * **Constant after warm-up** — the scheduler submit path and
//!   `FrozenEngine::infer`. These allocate by design (`submit` creates an
//!   mpsc reply channel plus the boxed completion callback that sends
//!   into it, per request; `infer` builds fresh column matrices per
//!   stage), so the honest invariant is that the per-call allocation
//!   count does not *grow* once caches and queues are warm — catching
//!   accidental per-request leaks or O(n)-growth bugs without pretending
//!   the paths are allocation-free.
//!
//! The counters are thread-local, so the parallel test harness and the
//! scheduler's own worker threads do not perturb a test's measurement.

use pecan_serve::obs::NO_MODEL;
use pecan_serve::{demo, BatchScheduler, FlightRecorder, SchedulerConfig, TraceRecord};
use std::sync::Arc;

#[global_allocator]
static ALLOC: pecan_obs::PecanAlloc = pecan_obs::PecanAlloc;

/// Allocations on *this thread* while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let (before, _) = pecan_obs::alloc_counts();
    f();
    let (after, _) = pecan_obs::alloc_counts();
    after - before
}

#[test]
fn flight_recorder_record_is_allocation_free() {
    let recorder = FlightRecorder::new(64);
    let record = TraceRecord {
        id: 1,
        conn_gen: 2,
        model: NO_MODEL,
        status: 200,
        batch_id: 3,
        batch_size: 4,
        queue_us: 5,
        infer_us: 6,
        total_us: 7,
        t_us: 8,
    };
    recorder.record(&record); // warm nothing — there is nothing to warm
    let allocs = allocs_during(|| {
        for i in 0..1_000 {
            recorder.record(&TraceRecord { id: i, ..record });
        }
    });
    assert_eq!(allocs, 0, "FlightRecorder::record allocated {allocs} times over 1000 writes");
    assert_eq!(recorder.recorded(), 1_001);
}

#[test]
fn scheduler_submit_path_allocation_count_is_constant() {
    let engine = Arc::new(demo::mlp_engine(7));
    let input_len = engine.input_len();
    let scheduler = BatchScheduler::start(
        engine,
        SchedulerConfig {
            max_batch: 4,
            queue_capacity: 64,
            workers: 1,
        },
    );

    // Pre-build every input outside the measured regions so the only
    // allocations measured are the submit path's own.
    let mut inputs: Vec<Vec<f32>> = (0..60).map(|_| vec![0.25f32; input_len]).collect();
    let mut predict = |n: usize| {
        for input in inputs.drain(..n) {
            scheduler.predict(input).expect("predict");
        }
    };

    // Warm-up: first predicts pay one-time costs (worker wakeup paths,
    // queue growth, thread-local lazy init in the channel runtime).
    predict(20);
    let first = allocs_during(|| predict(20));
    let second = allocs_during(|| predict(20));
    assert_eq!(
        first, second,
        "submit path allocation count grew across warm batches ({first} → {second})"
    );
    scheduler.shutdown();
}

#[test]
fn steady_state_infer_allocation_count_is_constant() {
    use pecan_core::InferBatch;

    let engine = demo::mlp_engine(7);
    let input_len = engine.input_len();
    // Batches built up front: `infer` consumes its batch, so each call
    // needs a fresh one, and building it must not count against `infer`.
    let mut batches: Vec<InferBatch> = (0..9)
        .map(|_| {
            InferBatch::from_samples(&[vec![0.5f32; input_len]], &[input_len]).expect("batch")
        })
        .collect();
    let mut infer = |n: usize| {
        for batch in batches.drain(..n) {
            std::hint::black_box(engine.infer(batch).expect("infer"));
        }
    };

    infer(3); // warm-up: one-time lazy init inside kernels and pools
    let per_call: Vec<u64> = (0..3).map(|_| allocs_during(|| infer(2)) / 2).collect();
    assert_eq!(
        per_call[0], per_call[1],
        "infer allocation count changed between warm calls: {per_call:?}"
    );
    assert_eq!(
        per_call[1], per_call[2],
        "infer allocation count changed between warm calls: {per_call:?}"
    );
}
