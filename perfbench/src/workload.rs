//! What every workload shares: run parameters, the measured window and
//! its estimators, the serving counters, and the correctness checks.
//!
//! Each run is one fresh process: prepare the seeded models (snapshot
//! files, input pool, reference answers), set up `SETUP_REPS` times
//! (`setup_s` is the median), warm up, then measure. An untraced run
//! measures one window of `--seconds` and reports the end-to-end metrics.
//! A traced run measures an untraced half window (A) and a traced half
//! window (B) back to back: the per-layer rows come from B, the serving
//! counters from A (they are always on, and B's extra work changes how
//! batches form), and B − A is reported as the tracing overhead.
//!
//! Every window is cut into `SLICES` equal slices by due time.
//! Throughput and CPU per answer are computed per slice and the run
//! reports their median over slices: a burst of host steal or a
//! neighbour's cache traffic moves a slice or two, not the figure. The
//! latency percentiles follow the workload's [`Latency`] rule. Whole-window
//! figures and every slice's steal, p50 and p99 are printed beside them as
//! run health.

use crate::client::{self, Outcome};
use crate::host::{self, HostTicks};
use crate::model::{Model, POOL};
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::Tracer;
use pecan_serve::client::HttpClient;
use pecan_serve::{FrozenEngine, HistogramSnapshot, ModelEntry, SchedulerConfig, Server};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Untimed traffic between set-up and the measured window.
pub const WARMUP: Duration = Duration::from_millis(1000);
/// Slices per measured window (see the module docs).
pub const SLICES: usize = 10;
/// Lead time between scheduling a window and its first due time, so the
/// first operations are not late by construction.
pub const LEAD: Duration = Duration::from_millis(5);

/// The micro-batching policy every served model runs with.
pub fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        max_batch: 32,
        workers: 1,
        ..SchedulerConfig::default()
    }
}

/// What one run produced.
pub struct Run {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations failed: mismatches, non-200 answers, transport errors,
    /// refusals.
    pub failed: u64,
    /// Every answer matched its reference and every count reconciled.
    pub correct: bool,
    /// Metric name → value (end-to-end, or per-layer when traced).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable report lines (stderr).
    pub report: Vec<String>,
}

/// Run parameters.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Scratch directory for this run's snapshot files.
    pub dir: PathBuf,
    /// Span sink (traced runs write it out at the end).
    pub tracer: Arc<Tracer>,
}

impl Ctx {
    /// Length of one measured window: all of `--seconds`, or half of it
    /// in a traced run (window A, then window B).
    pub fn window(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Maps an error to a message prefixed with what failed.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Median of set-up repetitions, in the unit `f` converts to.
pub fn med_of(v: &[Duration], f: fn(Duration) -> f64) -> f64 {
    median(&v.iter().map(|&d| f(d)).collect::<Vec<_>>())
}

/// Checks accumulated over a run; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks(Vec<(String, bool)>);

impl Checks {
    /// Records one check.
    pub fn check(&mut self, what: String, ok: bool) {
        self.0.push((what, ok));
    }

    /// Did every check pass?
    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }

    /// One report line per check.
    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(w, ok)| format!("check {}: {w}", if *ok { "ok" } else { "FAILED" }))
            .collect()
    }
}

/// How a window turns its per-operation latencies into a p50 and a p99.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// The p50 is the median over the `SLICES` slices of each slice's
    /// median; the p99 is the lowest of the slices' p99s. On a shared
    /// virtual machine one vCPU stall of a few milliseconds in 1 % of a
    /// slice's time sets that slice's p99, so most slices' p99s measure the
    /// host; stalls only add time, and the quietest slice's tail is the one
    /// the program sets (`lenet-batch`).
    SliceMedian,
    /// The window is cut into slices of this length. The p50 is the
    /// median round trip (write → answer) of the pooled requests of the
    /// quietest tenth of the slices, ranked by their median round trip.
    /// The p99 is the 99th percentile of due → answer over the quietest
    /// quarter, ranked by their median due → answer (more samples for the
    /// tail). Host steal lifts every latency of a request that waits on
    /// several thread wake-ups, and a caller with one request outstanding
    /// then queues behind its own late answers, which the round trip
    /// leaves out; the quietest seconds of a run show what the program
    /// costs, and a slower program lifts them as much as any other
    /// (`duo-reload`).
    Quietest(Duration),
}

/// Write → answer of an op, µs.
fn round_trip(o: &Outcome) -> f64 {
    o.service_us
}

/// Due → answer of an op, µs.
fn from_due(o: &Outcome) -> f64 {
    o.latency_us
}

/// One measured window.
pub struct Window {
    /// Latency-bearing operations (`infer` calls or predict requests).
    pub ops: Vec<Outcome>,
    /// Other operations (reloads).
    pub writes: Vec<Outcome>,
    /// Correct answers per successful op (samples per `infer` call).
    pub per_op: u64,
    /// Window length.
    pub span: Duration,
    /// Readings at every slice boundary.
    pub marks: Marks,
    /// The latency estimator.
    pub latency: Latency,
}

/// Process CPU time (µs) and host tick counters at each of the
/// `SLICES + 1` slice boundaries of a window.
#[derive(Clone, Default)]
pub struct Marks {
    cpu: Vec<f64>,
    host: Vec<HostTicks>,
}

impl Marks {
    /// Host steal share over the whole window.
    pub fn steal(&self) -> f64 {
        match (self.host.first(), self.host.last()) {
            (Some(a), Some(b)) => a.steal_ratio(b),
            _ => 0.0,
        }
    }

    /// Host steal share from the start of `self` to the end of `later`.
    pub fn steal_until(&self, later: &Marks) -> f64 {
        match (self.host.first(), later.host.last()) {
            (Some(a), Some(b)) => a.steal_ratio(b),
            _ => 0.0,
        }
    }

    /// Host steal share of each slice.
    fn slice_steal(&self) -> Vec<f64> {
        self.host
            .windows(2)
            .map(|w| w[0].steal_ratio(&w[1]))
            .collect()
    }
}

impl Window {
    fn slice_s(&self) -> f64 {
        self.span.as_secs_f64() / SLICES as f64
    }

    /// Successful ops' latencies, grouped by the slice they were due in.
    fn by_slice(&self) -> Vec<Vec<f64>> {
        let w = self.slice_s();
        let mut per = vec![Vec::new(); SLICES];
        for o in self.ops.iter().filter(|o| o.ok) {
            per[((o.due_s / w) as usize).min(SLICES - 1)].push(o.latency_us);
        }
        per
    }

    /// Each non-empty slice's `q`-percentile latency (µs).
    fn slice_percentiles(&self, q: f64) -> Vec<f64> {
        self.by_slice()
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| percentile(&sorted(s), q))
            .collect()
    }

    /// `time` of every successful op, ascending, in the quietest
    /// `1/parts` (rounded up) of the window's slices of length `step`,
    /// ranked by their median `time`; and how many slices were cut.
    fn quietest(
        &self,
        step: Duration,
        parts: usize,
        time: fn(&Outcome) -> f64,
    ) -> (Vec<f64>, usize) {
        let n = ((self.span.as_secs_f64() / step.as_secs_f64()).round() as usize).max(1);
        let w = self.span.as_secs_f64() / n as f64;
        let mut per = vec![Vec::new(); n];
        for o in self.ops.iter().filter(|o| o.ok) {
            per[((o.due_s / w) as usize).min(n - 1)].push(time(o));
        }
        let mut per: Vec<Vec<f64>> = per
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|s| sorted(&s))
            .collect();
        per.sort_by(|a, b| percentile(a, 0.5).total_cmp(&percentile(b, 0.5)));
        let keep = per.len().div_ceil(parts);
        (sorted(&per[..keep].concat()), n)
    }

    /// Median latency (µs) under the window's [`Latency`] rule.
    pub fn p50(&self) -> f64 {
        let v = match self.latency {
            Latency::SliceMedian => self.slice_percentiles(0.5),
            Latency::Quietest(step) => self.quietest(step, 10, round_trip).0,
        };
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// 99th-percentile latency (µs) under the window's [`Latency`] rule.
    pub fn p99(&self) -> f64 {
        match self.latency {
            Latency::SliceMedian => self
                .slice_percentiles(0.99)
                .into_iter()
                .reduce(f64::min)
                .unwrap_or(0.0),
            Latency::Quietest(step) => {
                let (pool, _) = self.quietest(step, 4, from_due);
                if pool.is_empty() {
                    0.0
                } else {
                    percentile(&pool, 0.99)
                }
            }
        }
    }

    /// How the p50 and p99 were taken, with their sample count.
    fn latency_rule(&self) -> String {
        match self.latency {
            Latency::SliceMedian => {
                let smallest = self.by_slice().iter().map(Vec::len).min().unwrap_or(0);
                format!("p50 median of slices, p99 lowest slice ({SLICES} slices of >= {smallest} samples)")
            }
            Latency::Quietest(step) => {
                let (tenth, n) = self.quietest(step, 10, round_trip);
                let (quarter, _) = self.quietest(step, 4, from_due);
                let beyond = if quarter.is_empty() {
                    0
                } else {
                    Summary::of(&quarter).beyond_p99
                };
                format!(
                    "p50 round trip over the quietest tenth ({} samples), p99 from due over the quietest quarter ({} samples, {beyond} beyond it) of {n} slices of {:.1} s",
                    tenth.len(),
                    quarter.len(),
                    step.as_secs_f64(),
                )
            }
        }
    }

    /// Median over slices of correct answers per second.
    pub fn throughput(&self) -> f64 {
        let w = self.slice_s();
        median(
            &self
                .by_slice()
                .iter()
                .map(|s| (s.len() as u64 * self.per_op) as f64 / w)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over slices of process CPU µs per correct answer.
    pub fn cpu_per_answer(&self) -> f64 {
        let v: Vec<f64> = self
            .by_slice()
            .iter()
            .zip(self.marks.cpu.windows(2))
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, m)| (m[1] - m[0]) / (s.len() as u64 * self.per_op) as f64)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        (self.ops.len() + self.writes.len()) as u64
    }

    /// Operations that did not end in a correct answer.
    pub fn failed(&self) -> u64 {
        self.ops
            .iter()
            .chain(&self.writes)
            .filter(|o| !o.ok)
            .count() as u64
    }

    /// Whole-window latency summary of successful ops.
    pub fn whole(&self) -> Option<Summary> {
        let v: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.latency_us)
            .collect();
        (!v.is_empty()).then(|| Summary::of(&v))
    }

    /// Generator lateness of every operation (µs).
    pub fn lateness(&self) -> Vec<f64> {
        self.ops
            .iter()
            .chain(&self.writes)
            .map(|o| o.late_us)
            .collect()
    }

    /// The end-to-end metrics of this window; `limit_us` is the
    /// workload's latency limit for `goodput_ratio`.
    pub fn end_to_end(&self, limit_us: f64, setup_s: f64) -> Result<BTreeMap<String, f64>, String> {
        if self.whole().is_none() {
            return Err("no operation succeeded".into());
        }
        let good = self
            .ops
            .iter()
            .filter(|o| o.ok && o.latency_us <= limit_us)
            .count();
        let mut m = BTreeMap::new();
        m.insert("setup_s".into(), setup_s);
        m.insert("throughput_per_s".into(), self.throughput());
        m.insert("latency_p50_us".into(), self.p50());
        m.insert("latency_p99_us".into(), self.p99());
        m.insert(
            "goodput_ratio".into(),
            good as f64 / self.ops.len().max(1) as f64,
        );
        m.insert("cpu_us_per_req".into(), self.cpu_per_answer());
        m.insert("peak_rss_mib".into(), host::peak_rss_mib()?);
        Ok(m)
    }

    /// Sample counts, whole-window figures and run health.
    pub fn health_lines(&self, label: &str) -> Vec<String> {
        let mut out = Vec::new();
        let slices = self.by_slice();
        if let Some(l) = self.whole() {
            out.push(format!(
                "{label}: {} ops, {} failed; p50 {:.1} us, p99 {:.1} us, {}; \
                 whole window p50 {:.1} us, p99 {:.1} us ({} samples beyond), max {:.1} us",
                self.ops.len(),
                self.failed(),
                self.p50(),
                self.p99(),
                self.latency_rule(),
                l.p50,
                l.p99,
                l.beyond_p99,
                l.max
            ));
        }
        let late = self.lateness();
        let (late99, late_max) = if late.is_empty() {
            (0.0, 0.0)
        } else {
            let s = sorted(&late);
            (percentile(&s, 0.99), s[s.len() - 1])
        };
        let per_slice = |v: Vec<f64>, f: &dyn Fn(f64) -> String| {
            v.into_iter().map(f).collect::<Vec<_>>().join(" ")
        };
        out.push(format!(
            "{label}: run health: host steal {:.2}% of CPU time; generator lateness p99 {late99:.1} us, max {late_max:.1} us",
            self.marks.steal() * 100.0,
        ));
        out.push(format!(
            "{label}: per slice: steal % [{}]; p50 us [{}]; p99 us [{}]",
            per_slice(self.marks.slice_steal(), &|x| format!("{:.1}", x * 100.0)),
            per_slice(
                slices
                    .iter()
                    .map(|s| if s.is_empty() {
                        0.0
                    } else {
                        percentile(&sorted(s), 0.5)
                    })
                    .collect(),
                &|x| format!("{x:.0}")
            ),
            per_slice(
                slices
                    .iter()
                    .map(|s| if s.is_empty() {
                        0.0
                    } else {
                        percentile(&sorted(s), 0.99)
                    })
                    .collect(),
                &|x| format!("{x:.0}")
            ),
        ));
        out
    }
}

/// Runs `f(start)` for a window of `span` beginning at `start` (a short
/// lead from now), reading process CPU time and host ticks at every slice
/// boundary.
///
/// # Errors
///
/// When `/proc` cannot be read.
pub fn measure<T>(span: Duration, f: impl FnOnce(Instant) -> T) -> Result<(T, Marks), String> {
    let start = Instant::now() + LEAD;
    let (out, marks) = std::thread::scope(|s| {
        let sampler = s.spawn(move || -> Result<Marks, String> {
            let mut marks = Marks::default();
            for k in 0..=SLICES {
                client::sleep_until(start + span.mul_f64(k as f64 / SLICES as f64));
                marks.cpu.push(host::process_cpu_us()?);
                marks.host.push(HostTicks::now()?);
            }
            Ok(marks)
        });
        let out = f(start);
        (out, sampler.join().expect("CPU sampler panicked"))
    });
    Ok((out, marks?))
}

/// Per-request JSON codec cost on the workload's own payloads: parse a
/// request body and format a response output — the two codec calls the
/// front end makes per request — median µs each. `mix` weights each
/// model by its share of requests.
pub fn json_costs(mix: &[(&Model, usize)]) -> (f64, f64) {
    let (mut parse, mut format) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        for (m, share) in mix {
            for i in 0..POOL * share {
                let i = i % POOL;
                let t0 = Instant::now();
                black_box(pecan_serve::json::parse_f32_array(black_box(&m.bodies[i])).ok());
                let t1 = Instant::now();
                black_box(pecan_serve::json::format_f32_array(black_box(&m.refs[i])));
                let t2 = Instant::now();
                parse.push((t1 - t0).as_secs_f64() * 1e6);
                format.push((t2 - t1).as_secs_f64() * 1e6);
            }
        }
    }
    (median(&parse), median(&format))
}

/// Quantile of the values a histogram gained between two snapshots, as
/// the histogram reports quantiles (upper bucket bound, ns).
fn quantile_between(before: &HistogramSnapshot, after: &HistogramSnapshot, q: f64) -> f64 {
    let old: BTreeMap<u64, u64> = before.nonzero_buckets().map(|(_, hi, c)| (hi, c)).collect();
    let gained: Vec<(u64, u64)> = after
        .nonzero_buckets()
        .map(|(_, hi, c)| (hi, c - old.get(&hi).copied().unwrap_or(0)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let total: u64 = gained.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (hi, c) in gained {
        seen += c;
        if seen >= rank {
            return hi as f64;
        }
    }
    0.0
}

/// A model's serving counters at one instant.
pub struct Counters {
    completed: u64,
    rejected: u64,
    batches: u64,
    batched: f64,
    queue: HistogramSnapshot,
    infer: HistogramSnapshot,
    total: HistogramSnapshot,
}

impl Counters {
    /// Reads `entry`'s counters and histograms.
    pub fn of(entry: &ModelEntry) -> Self {
        let s = entry.stats();
        let st = entry.serve_stats();
        Self {
            completed: s.completed,
            rejected: s.rejected,
            batches: s.batches,
            batched: s.mean_batch * s.batches as f64,
            queue: st.queue_histogram().snapshot(),
            infer: st.infer_histogram().snapshot(),
            total: st.latency_histogram().snapshot(),
        }
    }

    /// The `scheduler.<model>.*` rows for the traffic between `self` and
    /// `later`.
    pub fn scheduler_rows(&self, later: &Counters, model: &str, m: &mut BTreeMap<String, f64>) {
        let batches = later.batches - self.batches;
        let mean = if batches == 0 {
            0.0
        } else {
            (later.batched - self.batched) / batches as f64
        };
        let cap = scheduler_config().max_batch as f64;
        let q = |b: &HistogramSnapshot, a: &HistogramSnapshot, p| quantile_between(b, a, p) / 1e3;
        m.insert(
            format!("scheduler.{model}.queue_wait_p50_us"),
            q(&self.queue, &later.queue, 0.5),
        );
        m.insert(
            format!("scheduler.{model}.queue_wait_p99_us"),
            q(&self.queue, &later.queue, 0.99),
        );
        m.insert(format!("scheduler.{model}.batch_size_mean"), mean);
        m.insert(format!("scheduler.{model}.batch_fill"), mean / cap);
        m.insert(
            format!("scheduler.{model}.infer_p50_us"),
            q(&self.infer, &later.infer, 0.5),
        );
        m.insert(
            format!("scheduler.{model}.rejected"),
            (later.rejected - self.rejected) as f64,
        );
    }

    /// Median server-side submit→answer latency (µs) of the requests
    /// between `self` and `later`, over every model in `pairs`.
    pub fn server_p50_us(pairs: &[(&Counters, &Counters)]) -> f64 {
        let empty = HistogramSnapshot::empty();
        let (b, a) = pairs.iter().fold((empty.clone(), empty), |(b, a), (x, y)| {
            (b.merge(&x.total), a.merge(&y.total))
        });
        quantile_between(&b, &a, 0.5) / 1e3
    }
}

/// Reconciles one model's client outcomes with its server counters and
/// returns the client's refusal count and the scheduler's rejections.
pub fn reconcile(
    checks: &mut Checks,
    model: &str,
    ops: &[Outcome],
    before: &Counters,
    after: &Counters,
) -> (u64, u64) {
    let answered = ops.iter().filter(|o| o.answered).count() as u64;
    let completed = after.completed - before.completed;
    checks.check(
        format!("{model}: client successes {answered} == server completed {completed}"),
        answered == completed,
    );
    let mismatches = ops.iter().filter(|o| o.mismatch).count();
    checks.check(
        format!("{model}: {mismatches} answers differ from the reference"),
        mismatches == 0,
    );
    (
        ops.iter().filter(|o| o.refused).count() as u64,
        after.rejected - before.rejected,
    )
}

/// Client refusals must equal scheduler rejections plus front-end sheds.
pub fn check_refusals(checks: &mut Checks, label: &str, refused: u64, rejected: u64, shed: u64) {
    checks.check(
        format!("{label}: client refusals {refused} == server rejected {rejected} + shed {shed}"),
        refused == rejected + shed,
    );
}

/// Sends one predict for pool input 0 and checks its bits: the "first
/// correct answer" that ends set-up.
pub fn first_answer(addr: SocketAddr, model: &Model) -> Result<(), String> {
    let mut c = HttpClient::connect(addr).map_err(err("connecting for the first answer"))?;
    let (status, body) = c
        .predict(Some(model.kind.name()), &model.inputs[0])
        .map_err(err("first request"))?;
    if status != 200 || !client::output_matches(&body, &model.refs[0]) {
        return Err(format!(
            "first {} answer is wrong: {status} {body}",
            model.kind.name()
        ));
    }
    Ok(())
}

/// The registry entry serving `name`.
pub fn entry(server: &Server, name: &str) -> Result<Arc<ModelEntry>, String> {
    server
        .registry()
        .resolve(Some(name))
        .map_err(|e| e.to_string())
}

/// Times `FrozenEngine::open_snapshot` (the mmap loader) on the same
/// files the run loads by copying, median over `SETUP_REPS`.
pub fn open_ms(models: &[&Model]) -> Result<f64, String> {
    let mut v = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for m in models {
            black_box(FrozenEngine::open_snapshot(&m.path).map_err(err("mmap loader"))?);
        }
        v.push(t0.elapsed());
    }
    Ok(med_of(&v, ms))
}

/// Traced-run rows shared by every workload: run health over both
/// windows, tracing overhead, and the profiler's reconciliation.
pub fn traced_rows(
    a: &Window,
    b: &Window,
    m: &mut BTreeMap<String, f64>,
    report: &mut Vec<String>,
) {
    m.insert("host.steal_ratio".into(), a.marks.steal_until(&b.marks));
    let late: Vec<f64> = a.lateness().into_iter().chain(b.lateness()).collect();
    if !late.is_empty() {
        m.insert(
            "loadgen.late_p99_us".into(),
            percentile(&sorted(&late), 0.99),
        );
    }
    let overhead = (b.cpu_per_answer() / a.cpu_per_answer() - 1.0) * 100.0;
    m.insert("trace.overhead_cpu_pct".into(), overhead);
    report.push(format!(
        "tracing overhead: {overhead:+.1}% cpu per answer, latency p50 {:+.1} us (traced window B vs untraced window A)",
        b.p50() - a.p50()
    ));
}

/// How far Σ `stage.<i>.us` ÷ `engine.infer_us` (median over profiled
/// batches) may stray from 1 before the traced run fails: the replay runs
/// right after `infer` on the same batch, so only timer and cache effects
/// separate them.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// Checks the profiler saw no bit differences and that its per-stage
/// times reconcile with `engine.infer_us`.
pub fn profiler_rows(
    profiler: &crate::layers::Profiler,
    m: &mut BTreeMap<String, f64>,
    report: &mut Vec<String>,
    checks: &mut Checks,
) {
    let (layer, table) = profiler.report();
    m.extend(layer);
    report.extend(table);
    let (profiled, mismatches) = profiler.counts();
    checks.check(
        format!("{mismatches} of {profiled} profiled batches differ from infer or Stage::run"),
        mismatches == 0 && profiled > 0,
    );
    let ratio = profiler.stage_sum_ratio();
    checks.check(
        format!(
            "reconcile: Σ stage.us / engine.infer_us, median over profiled batches, {ratio:.3} within 1 ± {RECONCILE_TOLERANCE}"
        ),
        (ratio - 1.0).abs() <= RECONCILE_TOLERANCE,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten one-second slices; every op due in slice `k` took
    /// `(k + 1) · 100` µs from its due time, half that from its write,
    /// listed from the slowest slice to the fastest.
    fn window(latency: Latency) -> Window {
        let mut ops = Vec::new();
        for k in (0..10).rev() {
            for j in 0..50 {
                ops.push(Outcome {
                    ok: true,
                    latency_us: (k + 1) as f64 * 100.0,
                    service_us: (k + 1) as f64 * 50.0,
                    due_s: k as f64 + j as f64 / 50.0,
                    ..Outcome::default()
                });
            }
        }
        // A failed op carries no latency.
        ops.push(Outcome {
            latency_us: 1.0,
            due_s: 0.5,
            ..Outcome::default()
        });
        Window {
            ops,
            writes: Vec::new(),
            per_op: 1,
            span: Duration::from_secs(10),
            marks: Marks::default(),
            latency,
        }
    }

    #[test]
    fn quietest_slices_set_the_serving_percentiles() {
        let w = window(Latency::Quietest(Duration::from_secs(1)));
        // p50: round trips of the quietest tenth, slice 0 alone.
        assert_eq!(w.p50(), 50.0);
        // p99: from due, the quietest quarter rounds up to slices 0–2.
        assert_eq!(w.p99(), 300.0);
        // Five slices of 2 s: the quietest tenth rounds up to slice 0 (round
        // trips of 50 and 100 µs), the quietest quarter to slices 0–1.
        let w = window(Latency::Quietest(Duration::from_secs(2)));
        assert_eq!((w.p50(), w.p99()), (50.0, 400.0));
    }

    #[test]
    fn slice_median_takes_the_median_slice_and_the_lowest_tail() {
        let w = window(Latency::SliceMedian);
        assert_eq!(w.p50(), 500.0);
        assert_eq!(w.p99(), 100.0);
    }
}
