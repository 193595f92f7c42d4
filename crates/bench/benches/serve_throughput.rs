//! Micro-batching scheduler throughput: the serving subsystem end to end
//! minus HTTP (the `loadgen` binary covers the socket path).
//!
//! One group, `serve_throughput`, two workloads:
//!
//! * **scheduler/…** — 64 MLP requests pushed through a [`BatchScheduler`]
//!   by 8 concurrent submitter threads, at `max_batch ∈ {1, 8, 32}` with a
//!   single inference worker — so the entries isolate exactly what request
//!   coalescing buys (`max_batch = 1` *is* the unbatched baseline, whose
//!   CAM searches run the prototype-lane kernel; larger batches run the
//!   lane-blocked one, and everything else about the pipeline is
//!   identical). A direct `predict_batch` entry bounds the scheduler's own
//!   overhead from above.
//! * **batch_carry/…** — the same sweep over the *convolutional* LeNet
//!   engine (16 requests, 4 submitters), plus a direct entry: conv models
//!   cross many stages (conv → pool → flatten → linear), so these entries
//!   guard the **cross-layer batch carrying** of the `InferBatch` pipeline
//!   — the batch staying one column matrix through every stage. A
//!   regression that re-introduces per-sample splitting between stages
//!   shows up here first, and the `max_batch ≥ 8` entries demonstrate the
//!   batched win over `b1`.
//!
//! Reported times are per request wave; medians land in
//! `target/bench/*.json` for the `bench-diff` regression gate. Over real
//! sockets, the CI e2e jobs check with `loadgen` that the batcher
//! coalesces (mean batch ≥ 4) and that batching keeps at least half the
//! unbatched throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pecan_serve::{demo, BatchScheduler, FrozenEngine, SchedulerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const SUBMITTERS: usize = 8;
const REQUESTS: usize = 64;
/// The conv pipeline is ~an order of magnitude heavier per request; a
/// smaller wave keeps the entry honest without dominating bench time.
const CARRY_SUBMITTERS: usize = 4;
const CARRY_REQUESTS: usize = 16;

fn workload(engine: &FrozenEngine, requests: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..requests)
        .map(|_| pecan_tensor::uniform(&mut rng, &[engine.input_len()], -1.0, 1.0).into_vec())
        .collect()
}

/// Pushes the whole workload through the scheduler from `submitters`
/// threads, blocking until every response arrives.
fn drive(scheduler: &Arc<BatchScheduler>, inputs: &[Vec<f32>], submitters: usize) {
    std::thread::scope(|s| {
        for chunk in inputs.chunks(inputs.len().div_ceil(submitters)) {
            s.spawn(move || {
                for input in chunk {
                    let p = scheduler.predict(input.clone()).expect("served");
                    black_box(p.output);
                }
            });
        }
    });
}

fn sweep(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    direct: (&str, &str),
    engine: &Arc<FrozenEngine>,
    submitters: usize,
    requests: usize,
    batches: &[usize],
) {
    let inputs = workload(engine, requests);
    for &max_batch in batches {
        let scheduler = Arc::new(BatchScheduler::start(
            engine.clone(),
            SchedulerConfig {
                max_batch,
                max_wait: Duration::from_micros(200),
                queue_capacity: 1024,
                workers: 1,
            },
        ));
        group.bench_with_input(
            BenchmarkId::new(label, format!("b{max_batch}_c{submitters}_q{requests}")),
            &(),
            |b, ()| b.iter(|| drive(&scheduler, &inputs, submitters)),
        );
        scheduler.shutdown();
    }
    // Upper bound: the engine's batch kernel with zero scheduling.
    group.bench_with_input(
        BenchmarkId::new(direct.0, direct.1),
        &(),
        |b, ()| b.iter(|| black_box(engine.predict_batch(&inputs).expect("batch"))),
    );
}

fn bench_serve_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(20);

    let mlp = Arc::new(demo::mlp_engine(1));
    // The direct entry keeps its PR-4 name so `bench-diff` tracks it
    // across the batch-first redesign.
    sweep(
        &mut group,
        "scheduler",
        ("direct", "predict_batch_q64"),
        &mlp,
        SUBMITTERS,
        REQUESTS,
        &[1, 8, 32],
    );

    // Cross-layer batch carrying on a conv pipeline.
    let lenet = Arc::new(demo::lenet_engine(1));
    sweep(
        &mut group,
        "batch_carry",
        ("batch_carry", "direct_q16"),
        &lenet,
        CARRY_SUBMITTERS,
        CARRY_REQUESTS,
        &[1, 8, 16],
    );
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
