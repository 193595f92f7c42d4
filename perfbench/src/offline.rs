//! `lenet-batch`: offline inference, in process, on one thread.
//!
//! A closed loop calls `FrozenEngine::infer` on batches of 8 seeded
//! 28×28 inputs, one call after the other. LeNet is loaded with the
//! copying loader. There are no sockets, no scheduler and no thread
//! handoffs, so this is where kernel work shows most plainly — and where
//! front-end or scheduler changes must show nothing.

use crate::client::Outcome;
use crate::host;
use crate::layers::Profiler;
use crate::model::{Kind, Model, POOL};
use crate::schedule::{derive, draw_order};
use crate::workload::{
    err, measure, med_of, ms, open_ms, profiler_rows, traced_rows, Checks, Ctx, Latency, Run,
    Window, SETUP_REPS, WARMUP,
};
use pecan_core::InferBatch;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples per `infer` call.
const BATCH: usize = 8;
/// Latency limit of one call for `goodput_ratio`.
const LIMIT_US: f64 = 20_000.0;

/// One batch of `BATCH` pool inputs starting at `order[pos]`.
fn batch_input(model: &Model, order: &[usize], pos: usize) -> (InferBatch, Vec<usize>) {
    let idx: Vec<usize> = (0..BATCH).map(|i| order[(pos + i) % order.len()]).collect();
    let mut data = Vec::with_capacity(BATCH * model.inputs[0].len());
    for &i in &idx {
        data.extend_from_slice(&model.inputs[i]);
    }
    let batch = InferBatch::from_data(data, &model.input_shape, BATCH)
        .expect("pool inputs have the engine's input shape");
    (batch, idx)
}

/// Every column of `out` carries the reference bits of its input.
fn answer_ok(model: &Model, out: &InferBatch, idx: &[usize]) -> bool {
    idx.iter().enumerate().all(|(c, &i)| {
        let got = out.col(c);
        got.len() == model.refs[i].len()
            && got
                .iter()
                .zip(&model.refs[i])
                .all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// Closed loop on this thread from `start` for `span`: one `infer` call
/// after the other, each timed alone and checked bit for bit.
fn closed_loop(
    model: &Model,
    order: &[usize],
    pos: &mut usize,
    start: Instant,
    span: Duration,
    infer: &dyn Fn(InferBatch) -> Result<InferBatch, String>,
) -> Vec<Outcome> {
    crate::client::sleep_until(start);
    let mut ops = Vec::new();
    let end = start + span;
    while Instant::now() < end {
        let (batch, idx) = batch_input(model, order, *pos);
        *pos += BATCH;
        let t0 = Instant::now();
        let out = infer(batch);
        let t1 = Instant::now();
        let ok = out.as_ref().is_ok_and(|o| answer_ok(model, o, &idx));
        ops.push(Outcome {
            ok,
            answered: out.is_ok(),
            mismatch: out.is_ok() && !ok,
            latency_us: (t1 - t0).as_secs_f64() * 1e6,
            due_s: (t0 - start).as_secs_f64(),
            ..Outcome::default()
        });
    }
    ops
}

/// Measures one window of the closed loop.
fn window(
    model: &Model,
    order: &[usize],
    pos: &mut usize,
    span: Duration,
    infer: &dyn Fn(InferBatch) -> Result<InferBatch, String>,
) -> Result<Window, String> {
    let (ops, marks) = measure(span, |start| {
        closed_loop(model, order, pos, start, span, infer)
    })?;
    Ok(Window {
        ops,
        writes: Vec::new(),
        per_op: BATCH as u64,
        span,
        marks,
        latency: Latency::SliceMedian,
    })
}

/// Runs `lenet-batch`.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let model = Model::prepare(Kind::Lenet, ctx.seed, &ctx.dir)?;
    host::reset_peak_rss();
    let order = draw_order(derive(ctx.seed, 10), POOL, 1 << 16);
    let (mut setup, mut load) = (Vec::new(), Vec::new());
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t0 = Instant::now();
        let e = model.load()?;
        let t1 = Instant::now();
        let (batch, idx) = batch_input(&model, &order, 0);
        let out = e.infer(batch).map_err(err("first answer"))?;
        if !answer_ok(&model, &out, &idx) {
            return Err("first answer differs from the reference".into());
        }
        setup.push(t0.elapsed());
        load.push(t1 - t0);
        engine = Some(e);
    }
    let engine = Arc::new(engine.expect("SETUP_REPS > 0"));
    let setup_s = med_of(&setup, |d| d.as_secs_f64());

    let plain = |b: InferBatch| engine.infer(b).map_err(|e| e.to_string());
    let mut pos = BATCH;
    closed_loop(&model, &order, &mut pos, Instant::now(), WARMUP, &plain);
    let a = window(&model, &order, &mut pos, ctx.window(), &plain)?;
    let mut report = a.health_lines(if ctx.trace {
        "window A (untraced)"
    } else {
        "window"
    });
    let mut checks = Checks::default();
    let mismatches = a.ops.iter().filter(|o| o.mismatch).count();
    checks.check(
        format!("{mismatches} answers differ from the reference"),
        a.failed() == 0,
    );
    if !ctx.trace {
        report.extend(checks.lines());
        return Ok(Run {
            attempted: a.attempted(),
            failed: a.failed(),
            correct: checks.all_ok(),
            metrics: a.end_to_end(LIMIT_US, setup_s)?,
            report,
        });
    }

    let profiler = Profiler::new(
        Arc::clone(&engine),
        Arc::clone(&ctx.tracer),
        derive(ctx.seed, 11),
    )?;
    let traced = |b: InferBatch| profiler.run(b).map_err(|e| e.to_string());
    closed_loop(
        &model,
        &order,
        &mut pos,
        Instant::now(),
        WARMUP / 4,
        &traced,
    );
    let b = window(&model, &order, &mut pos, ctx.window(), &traced)?;
    report.extend(b.health_lines("window B (traced)"));
    let mismatches = b.ops.iter().filter(|o| o.mismatch).count();
    checks.check(
        format!("{mismatches} traced answers differ from the reference"),
        b.failed() == 0,
    );
    let mut m = BTreeMap::new();
    profiler_rows(&profiler, &mut m, &mut report, &mut checks);
    m.insert("snapshot.load_ms".into(), med_of(&load, ms));
    m.insert("snapshot.open_ms".into(), open_ms(&[&model])?);
    traced_rows(&a, &b, &mut m, &mut report);
    report.extend(checks.lines());
    Ok(Run {
        attempted: a.attempted() + b.attempted(),
        failed: a.failed() + b.failed(),
        correct: checks.all_ok(),
        metrics: m,
        report,
    })
}
