//! `duo-reload`: LeNet and the MLP in one registry behind the threaded
//! front end. Two callers, one connection and one model each, at most one
//! request outstanding; the MLP caller reloads its model once a second.
//! The scheduler runs at batch 1 here, LeNet's kernels run one sample per
//! call, and blue/green reloads write beside the reads.

use crate::client::{self, Call, Outcome};
use crate::host;
use crate::layers::{Profiler, TracedRunner};
use crate::model::{Kind, Model, POOL};
use crate::schedule::{derive, draw_order, poisson};
use crate::trace::Tracer;
use crate::workload::{
    check_refusals, entry, err, first_answer, json_costs, measure, med_of, ms, open_ms,
    profiler_rows, reconcile, scheduler_config, traced_rows, Checks, Counters, Ctx, Latency, Marks,
    Run, Window, SETUP_REPS, WARMUP,
};
use pecan_serve::{EngineRegistry, LoadMode, Server, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load per caller: each caller is busy a small share of the
/// time, so a late answer rarely delays the next request.
const LENET_RATE: f64 = 150.0;
const MLP_RATE: f64 = 250.0;
/// Time between reloads, and the length of the slices the latency is
/// read from (each holds one reload, at its middle). A reload holds the
/// MLP caller for its round trip R (about 45 ms), so about 3 % of all
/// requests wait behind one, with delays spread evenly over 0..R. The p99
/// then sits inside those requests at about R − 16 ms and follows the
/// reload's cost. At one reload every 2 s it sat at R − 32 ms, near the
/// edge of them, where a 10 % slower reload moved it by 30 %.
const RELOAD_EVERY: Duration = Duration::from_secs(1);
/// Latency limit of one request for `goodput_ratio`: near one reload's
/// round trip, so requests stuck behind a slow reload miss it.
const LIMIT_US: f64 = 50_000.0;

/// `(due offset, pool index)` for Poisson arrivals at `rate` over `span`.
fn predict_schedule(seed: u64, stream: u64, rate: f64, span: Duration) -> Vec<(Duration, usize)> {
    let due = poisson(derive(seed, stream), rate, span);
    let order = draw_order(derive(seed, stream + 1), POOL, due.len());
    due.into_iter().zip(order).collect()
}

/// The two callers' schedules: LeNet predicts, and MLP predicts plus —
/// when `reloads` — one reload in the middle of every `RELOAD_EVERY`, so
/// every latency slice carries the same reload cost.
fn duo_schedules(
    seed: u64,
    stream: u64,
    span: Duration,
    reloads: bool,
) -> [Vec<(Duration, Call)>; 2] {
    let predicts = |rate, stream| -> Vec<(Duration, Call)> {
        predict_schedule(seed, stream, rate, span)
            .into_iter()
            .map(|(t, i)| (t, Call::Predict(i)))
            .collect()
    };
    let lenet = predicts(LENET_RATE, stream);
    let mut mlp = predicts(MLP_RATE, stream + 2);
    if reloads {
        let n = (span.as_secs_f64() / RELOAD_EVERY.as_secs_f64())
            .round()
            .max(1.0) as u32;
        let every = span / n;
        mlp.extend((0..n).map(|k| (every * k + every / 2, Call::Reload)));
        mlp.sort_by_key(|&(t, _)| t);
    }
    [lenet, mlp]
}

/// Runs both callers from `start`; returns their outcomes in schedule
/// order.
fn duo_traffic(
    addr: SocketAddr,
    models: [&Model; 2],
    schedules: &[Vec<(Duration, Call)>; 2],
    start: Instant,
    mlp_version: u64,
    tracer: Option<&Tracer>,
) -> [Vec<Outcome>; 2] {
    std::thread::scope(|s| {
        let lenet =
            s.spawn(|| client::one_at_a_time(addr, models[0], &schedules[0], start, 1, tracer));
        let mlp = client::one_at_a_time(addr, models[1], &schedules[1], start, mlp_version, tracer);
        [lenet.join().expect("LeNet caller panicked"), mlp]
    })
}

/// One `duo-reload` window, reconciled against the server's counters and
/// the MLP's version.
struct DuoWindow {
    window: Window,
    lenet: (Counters, Counters),
    mlp: (Counters, Counters),
    shed: u64,
    timeouts: u64,
    /// Per-model latency lines.
    lines: Vec<String>,
}

fn duo_window(
    server: &Server,
    models: [&Model; 2],
    schedules: &[Vec<(Duration, Call)>; 2],
    span: Duration,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
    label: &str,
) -> Result<DuoWindow, String> {
    let (el, em) = (entry(server, "lenet")?, entry(server, "mlp")?);
    let (l0, m0, v0, conn0) = (
        Counters::of(&el),
        Counters::of(&em),
        em.version(),
        server.conn_stats(),
    );
    let addr = server.local_addr();
    let ([lenet_ops, mlp_all], marks) = measure(span, |start| {
        duo_traffic(addr, models, schedules, start, v0, tracer)
    })?;
    let (l1, m1, v1, conn1) = (
        Counters::of(&el),
        Counters::of(&em),
        em.version(),
        server.conn_stats(),
    );
    let (mut mlp_ops, mut reloads) = (Vec::new(), Vec::new());
    for ((_, call), o) in schedules[1].iter().zip(mlp_all) {
        match call {
            Call::Predict(_) => mlp_ops.push(o),
            Call::Reload => reloads.push(o),
        }
    }
    let (ref_l, rej_l) = reconcile(checks, &format!("lenet{label}"), &lenet_ops, &l0, &l1);
    let (ref_m, rej_m) = reconcile(checks, &format!("mlp{label}"), &mlp_ops, &m0, &m1);
    let shed = conn1.shed_requests - conn0.shed_requests;
    check_refusals(
        checks,
        &format!("both{label}"),
        ref_l + ref_m,
        rej_l + rej_m,
        shed,
    );
    // Every scheduled reload must answer 200 with the next version; a
    // failing reload path would otherwise read as a faster workload.
    let issued = reloads.len() as u64;
    let done = reloads.iter().filter(|o| o.ok).count() as u64;
    checks.check(
        format!("mlp{label}: {done} of {issued} reloads answered 200 with the next version"),
        done == issued && issued > 0,
    );
    checks.check(
        format!("mlp{label}: version {v1} == {v0} + {issued} reloads issued"),
        v1 == v0 + issued,
    );
    let mut lines = Vec::new();
    for (name, ops) in [("lenet", &lenet_ops), ("mlp", &mlp_ops)] {
        let part = Window {
            ops: ops.clone(),
            writes: Vec::new(),
            per_op: 1,
            span,
            marks: Marks::default(),
            latency: Latency::Quietest(RELOAD_EVERY),
        };
        if let Some(w) = part.whole() {
            lines.push(format!(
                "{name}{label}: {} requests; p50 {:.1} us, p99 {:.1} us (quietest slices of its own); whole window p50 {:.1} us, p99 {:.1} us",
                ops.len(),
                part.p50(),
                part.p99(),
                w.p50,
                w.p99
            ));
        }
    }
    let reload_ms: Vec<String> = reloads
        .iter()
        .map(|o| format!("{:.1}", o.service_us / 1e3))
        .collect();
    lines.push(format!(
        "mlp{label}: {} reloads, round trip ms [{}]",
        reloads.len(),
        reload_ms.join(", ")
    ));
    let mut ops = lenet_ops;
    ops.extend(mlp_ops);
    Ok(DuoWindow {
        window: Window {
            ops,
            writes: reloads,
            per_op: 1,
            span,
            marks,
            latency: Latency::Quietest(RELOAD_EVERY),
        },
        lenet: (l0, l1),
        mlp: (m0, m1),
        shed,
        timeouts: conn1.timeouts - conn0.timeouts,
        lines,
    })
}

/// How LeNet is served: from its snapshot file, or through the profiler.
enum LenetSource<'a> {
    File(&'a Model),
    Traced(Arc<Profiler>),
}

/// Registers both models (the MLP from its file, so it can reload) and
/// starts the threaded front end. Returns the server, the registration
/// (load) time and the start time.
fn start_duo(lenet: LenetSource, mlp: &Model) -> Result<(Server, Duration, Duration), String> {
    let t0 = Instant::now();
    let registry = EngineRegistry::new();
    match lenet {
        LenetSource::File(m) => {
            registry.register_file("lenet", &m.path, LoadMode::Copy, scheduler_config())
        }
        LenetSource::Traced(p) => {
            registry.register_runner_as("lenet", Arc::new(TracedRunner(p)), scheduler_config())
        }
    }
    .map_err(|e| e.to_string())?;
    registry
        .register_file("mlp", &mlp.path, LoadMode::Copy, scheduler_config())
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let server = Server::start_registry(registry, ServerConfig::default())
        .map_err(err("starting the server"))?;
    Ok((server, t1 - t0, t1.elapsed()))
}

/// Runs `duo-reload`.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let lenet = Model::prepare(Kind::Lenet, ctx.seed, &ctx.dir)?;
    let mlp = Model::prepare(Kind::Mlp, ctx.seed, &ctx.dir)?;
    host::reset_peak_rss();
    let models = [&lenet, &mlp];
    let (mut setup, mut load, mut start) = (Vec::new(), Vec::new(), Vec::new());
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.stop();
        }
        let t0 = Instant::now();
        let (s, load_d, start_d) = start_duo(LenetSource::File(&lenet), &mlp)?;
        first_answer(s.local_addr(), &lenet)?;
        first_answer(s.local_addr(), &mlp)?;
        setup.push(t0.elapsed());
        load.push(load_d);
        start.push(start_d);
        server = Some(s);
    }
    let server = server.expect("SETUP_REPS > 0");
    let setup_s = med_of(&setup, |d| d.as_secs_f64());
    let warm = duo_schedules(ctx.seed, 30, WARMUP, false);
    duo_traffic(server.local_addr(), models, &warm, Instant::now(), 1, None);

    let span = ctx.window();
    let mut checks = Checks::default();
    let sched = duo_schedules(ctx.seed, 32, span, true);
    let dw = duo_window(&server, models, &sched, span, None, &mut checks, "")?;
    server.stop();
    let a = dw.window;
    let mut report = a.health_lines(if ctx.trace {
        "window A (untraced)"
    } else {
        "window"
    });
    report.extend(dw.lines);
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

    let mut m = BTreeMap::new();
    let ((l0, l1), (m0, m1)) = (&dw.lenet, &dw.mlp);
    l0.scheduler_rows(l1, "lenet", &mut m);
    m0.scheduler_rows(m1, "mlp", &mut m);
    m.insert(
        "http.overhead_p50_us".into(),
        a.p50() - Counters::server_p50_us(&[(l0, l1), (m0, m1)]),
    );
    m.insert("http.shed_requests".into(), dw.shed as f64);
    m.insert("http.timeouts".into(), dw.timeouts as f64);

    // Window B: LeNet served through the profiler (batch 1 here); the
    // MLP keeps reloading from its file.
    let profiler = Arc::new(Profiler::new(
        Arc::new(lenet.load()?),
        Arc::clone(&ctx.tracer),
        derive(ctx.seed, 11),
    )?);
    let (traced, _, _) = start_duo(LenetSource::Traced(Arc::clone(&profiler)), &mlp)?;
    let warm = duo_schedules(ctx.seed, 34, WARMUP / 4, false);
    duo_traffic(traced.local_addr(), models, &warm, Instant::now(), 1, None);
    let sched = duo_schedules(ctx.seed, 36, span, true);
    let dw_b = duo_window(
        &traced,
        models,
        &sched,
        span,
        Some(&ctx.tracer),
        &mut checks,
        " (traced)",
    )?;
    traced.stop();
    let b = dw_b.window;
    report.extend(b.health_lines("window B (traced)"));
    report.extend(dw_b.lines);

    profiler_rows(&profiler, &mut m, &mut report, &mut checks);
    let reload_ms: Vec<f64> = a
        .writes
        .iter()
        .chain(&b.writes)
        .filter(|o| o.ok)
        .map(|o| o.service_us / 1e3)
        .collect();
    m.insert(
        "registry.reloads".into(),
        (a.writes.len() + b.writes.len()) as f64,
    );
    if !reload_ms.is_empty() {
        m.insert(
            "registry.reload_ms".into(),
            crate::stats::median(&reload_ms),
        );
    }
    // Request mix: one LeNet request per two MLP requests (150/s : 250/s
    // rounded).
    let (parse, format) = json_costs(&[(&lenet, 1), (&mlp, 2)]);
    m.insert("json.parse_us".into(), parse);
    m.insert("json.format_us".into(), format);
    m.insert("snapshot.load_ms".into(), med_of(&load, ms));
    m.insert("snapshot.open_ms".into(), open_ms(&[&lenet, &mlp])?);
    m.insert("server.start_ms".into(), med_of(&start, ms));
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
