//! End-to-end observability battery over real TCP, both front ends:
//! `/metrics` is valid Prometheus text exposition whose numbers agree
//! with `/stats`, `/debug/requests` replays recent request spans, the
//! threaded front end maintains the same connection-state gauges the
//! event loop does, and each engine stage's span and layer histogram read
//! one clock.

use pecan_serve::client::HttpClient;
use pecan_serve::obs::metrics::find_sample;
use pecan_serve::{
    demo, json, BatchRunner, EngineRegistry, FrozenEngine, SchedulerConfig, ServeError, Server,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Tracing is process-wide: tests that switch it take turns.
static TRACING: Mutex<()> = Mutex::new(());

fn front_end_flags() -> Vec<bool> {
    if pecan_serve::event_loop_supported() {
        vec![false, true]
    } else {
        vec![false]
    }
}

/// Serves `engine` as a one-model registry on the default scheduler.
fn serve(engine: Arc<FrozenEngine>, config: ServerConfig) -> Server {
    serve_with(engine, SchedulerConfig::default(), config)
}

fn serve_with(
    engine: Arc<FrozenEngine>,
    scheduler: SchedulerConfig,
    config: ServerConfig,
) -> Server {
    let registry = EngineRegistry::new();
    registry.register(engine, scheduler).expect("register");
    Server::start_registry(registry, config).expect("bind")
}

fn call(client: &mut HttpClient, method: &str, path: &str, body: &str) -> (u16, String) {
    client.call(method, path, body).expect("request")
}

fn wait_until(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

/// Structural validity of the text exposition: every line is a comment
/// with a known form or a `name{labels} value` sample with a float value;
/// `# TYPE` appears at most once per family.
fn assert_valid_exposition(text: &str) {
    let mut typed = std::collections::BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            let mut words = rest.splitn(3, ' ');
            let kind = words.next().unwrap_or("");
            let family = words.next().unwrap_or("");
            assert!(
                (kind == "HELP" || kind == "TYPE") && !family.is_empty(),
                "malformed comment line: {line}"
            );
            if kind == "TYPE" {
                assert!(typed.insert(family.to_string()), "family typed twice: {family}");
                let t = words.next().unwrap_or("");
                assert!(
                    t == "counter" || t == "gauge" || t == "histogram",
                    "unknown type in: {line}"
                );
            }
            continue;
        }
        assert!(!line.is_empty(), "blank line inside exposition");
        // Sample line: name[{labels}] value — labels may contain spaces
        // only inside quotes, and our values never do, so splitting on
        // the *last* space is safe.
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line}");
        });
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value in: {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in: {line}"
        );
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "unclosed label set in: {line}");
            let labels = &series[open + 1..series.len() - 1];
            for pair in labels.split("\",") {
                assert!(pair.contains("=\""), "malformed label in: {line}");
            }
        }
    }
}

/// All `name{…le="…"}` bucket samples of one histogram series, in file
/// order, as `(le, cumulative_count)`.
fn buckets_of(text: &str, name: &str, model: &str) -> Vec<(f64, u64)> {
    let prefix = format!("{name}_bucket{{");
    let model_label = format!("model=\"{model}\"");
    text.lines()
        .filter(|l| l.starts_with(&prefix) && l.contains(&model_label))
        .map(|l| {
            let le_start = l.find("le=\"").expect("le label") + 4;
            let le_end = l[le_start..].find('"').unwrap() + le_start;
            let le = match &l[le_start..le_end] {
                "+Inf" => f64::INFINITY,
                s => s.parse().expect("le value"),
            };
            let count: u64 = l.rsplit_once(' ').unwrap().1.parse().expect("bucket count");
            (le, count)
        })
        .collect()
}

#[test]
fn metrics_exposition_is_valid_and_agrees_with_stats() {
    for event_loop in front_end_flags() {
        let engine = Arc::new(demo::mlp_engine(77));
        let server = serve_with(
            Arc::clone(&engine),
            SchedulerConfig { max_batch: 4, workers: 1, ..Default::default() },
            ServerConfig { event_loop, ..ServerConfig::default() },
        );
        let mut client = HttpClient::connect(server.local_addr()).expect("connect");

        // Traffic: five good predictions, one 400, one 404.
        let input: Vec<f32> = (0..engine.input_len()).map(|i| (i as f32 * 0.1).cos()).collect();
        let body = json::format_f32_array(&input);
        for _ in 0..5 {
            let (status, answer) = call(&mut client, "POST", "/predict", &body);
            assert_eq!(status, 200, "{answer}");
        }
        assert_eq!(call(&mut client, "POST", "/predict", "[1.0]").0, 400);
        assert_eq!(call(&mut client, "GET", "/nope", "").0, 404);

        let (status, stats) = call(&mut client, "GET", "/stats", "");
        assert_eq!(status, 200);
        let completed = json::number_field(&stats, "completed").unwrap();
        assert_eq!(completed, 5.0);

        let (status, metrics) = call(&mut client, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert_valid_exposition(&metrics);

        let sample = |name: &str, labels: &[(&str, &str)]| {
            find_sample(&metrics, name, labels)
                .unwrap_or_else(|| panic!("missing {name} {labels:?} in:\n{metrics}"))
        };

        // Counters agree with /stats.
        assert_eq!(sample("pecan_requests_completed_total", &[("model", "mlp")]), completed);
        assert_eq!(sample("pecan_requests_failed_total", &[("model", "mlp")]), 0.0);
        assert_eq!(sample("pecan_request_latency_seconds_count", &[("model", "mlp")]), completed);
        assert!(sample("pecan_batches_total", &[("model", "mlp")]) >= 1.0);
        assert_eq!(sample("pecan_batch_size_count", &[("model", "mlp")]), {
            sample("pecan_batches_total", &[("model", "mlp")])
        });
        // Front-end counters: 5 predicts + 400 + 404 + /stats = 8 before
        // the /metrics request itself was counted.
        assert!(sample("pecan_http_requests_total", &[]) >= 8.0);
        assert!(sample("pecan_connections_active", &[]) >= 1.0);

        // Histogram buckets: cumulative, monotone, +Inf == _count.
        for family in
            ["pecan_request_latency_seconds", "pecan_queue_latency_seconds", "pecan_infer_latency_seconds"]
        {
            let buckets = buckets_of(&metrics, family, "mlp");
            assert!(!buckets.is_empty(), "{family} has no buckets");
            for pair in buckets.windows(2) {
                assert!(pair[0].0 < pair[1].0, "{family} le values not ascending");
                assert!(pair[0].1 <= pair[1].1, "{family} buckets not cumulative");
            }
            let (last_le, last_count) = *buckets.last().unwrap();
            assert!(last_le.is_infinite(), "{family} missing +Inf bucket");
            assert_eq!(
                last_count as f64,
                sample(&format!("{family}_count"), &[("model", "mlp")]),
                "{family} +Inf != _count"
            );
        }

        // Per-layer timing: each of the MLP's five stages is timed once
        // per batch.
        let batches = sample("pecan_batches_total", &[("model", "mlp")]);
        let kinds = ["lut-linear", "relu", "lut-linear", "relu", "lut-linear"];
        for (layer, stage) in kinds.into_iter().enumerate() {
            let layer = layer.to_string();
            let labels = [("model", "mlp"), ("layer", layer.as_str()), ("stage", stage)];
            let count = sample("pecan_stage_latency_seconds_count", &labels);
            assert_eq!(count, batches, "layer {layer} ({stage}) not timed once per batch");
        }
        assert_eq!(find_sample(&metrics, "pecan_stage_latency_seconds_count", &[("layer", "5")]), None);

        // Quantile gauges for dashboards that don't do histogram math.
        for q in ["0.5", "0.9", "0.99", "0.999"] {
            let v = sample(
                "pecan_request_latency_quantile_seconds",
                &[("model", "mlp"), ("quantile", q)],
            );
            assert!(v > 0.0, "quantile {q} gauge is zero");
        }

        server.stop();
    }
}

/// `/metrics` answers with the Prometheus content type, not JSON.
#[test]
fn metrics_content_type_is_prometheus_text() {
    for event_loop in front_end_flags() {
        let server = serve(
            Arc::new(demo::mlp_engine(78)),
            ServerConfig { event_loop, ..ServerConfig::default() },
        );
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n").expect("write");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(
            response.contains("\r\nContent-Type: text/plain; version=0.0.4\r\n"),
            "missing Prometheus content type: {response}"
        );
        server.stop();
    }
}

#[test]
fn debug_requests_replays_recent_spans() {
    for event_loop in front_end_flags() {
        let engine = Arc::new(demo::mlp_engine(79));
        let server = serve(
            Arc::clone(&engine),
            ServerConfig { event_loop, flight_records: 8, ..ServerConfig::default() },
        );
        let mut client = HttpClient::connect(server.local_addr()).expect("connect");

        let input: Vec<f32> = (0..engine.input_len()).map(|i| (i as f32 * 0.2).sin()).collect();
        let body = json::format_f32_array(&input);
        for _ in 0..3 {
            assert_eq!(call(&mut client, "POST", "/predict", &body).0, 200);
        }
        assert_eq!(call(&mut client, "GET", "/nope", "").0, 404);

        let (status, dump) = call(&mut client, "GET", "/debug/requests", "");
        assert_eq!(status, 200);
        assert_eq!(json::number_field(&dump, "capacity").unwrap(), 8.0);
        // 3 predicts + the 404 are recorded; the /debug/requests request
        // itself completes after the dump is taken.
        assert_eq!(json::number_field(&dump, "recorded").unwrap(), 4.0);
        // Prediction spans carry the model, status and batch legs.
        assert!(dump.contains("\"model\":\"mlp\""), "{dump}");
        assert!(dump.contains("\"status\":200"), "{dump}");
        assert!(dump.contains("\"batch_size\":1"), "{dump}");
        // The 404 has no model and never reached a scheduler.
        assert!(dump.contains("\"status\":404"), "{dump}");
        assert!(dump.contains("\"model\":null"), "{dump}");
        // Request IDs are unique and 1-based.
        let mut ids: Vec<&str> = dump
            .match_indices("\"id\":")
            .map(|(i, _)| {
                let rest = &dump[i + 5..];
                &rest[..rest.find(',').unwrap()]
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "duplicate request ids: {dump}");

        server.stop();
    }
}

/// `GET /debug/trace?ms=N` on both front ends: drives traffic during the
/// capture window and checks the returned Chrome trace JSON carries spans
/// from the request, stage and scheduler layers, then that the window
/// parameter is validated. The event loop delivers the capture through
/// its completion queue (a helper thread, never the loop itself), so this
/// also proves the loop keeps answering while a capture is in flight.
#[test]
fn debug_trace_captures_spans_on_both_front_ends() {
    let _turn = TRACING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for event_loop in front_end_flags() {
        let engine = Arc::new(demo::mlp_engine(81));
        let server =
            serve(Arc::clone(&engine), ServerConfig { event_loop, ..ServerConfig::default() });
        let addr = server.local_addr().to_string();

        // Background traffic for the capture window to observe.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let driver = {
            let stop = Arc::clone(&stop);
            let input: Vec<f32> =
                (0..engine.input_len()).map(|i| (i as f32 * 0.3).sin()).collect();
            let body = json::format_f32_array(&input);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(&addr).expect("connect");
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, _) = client.call("POST", "/predict", &body).expect("predict");
                    assert_eq!(status, 200);
                }
            })
        };

        let mut client = HttpClient::connect(&addr).expect("connect");
        let (status, trace) = call(&mut client, "GET", "/debug/trace?ms=250", "");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        driver.join().expect("driver");
        assert_eq!(status, 200, "{trace}");
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\""), "{trace}");
        assert!(trace.ends_with("]}\n") || trace.ends_with("]}"), "{trace}");
        for needle in ["serve.request", "stage.", "scheduler.form", "scheduler.batch"] {
            assert!(
                trace.contains(needle),
                "front_end event_loop={event_loop}: no {needle} span in capture:\n{trace}"
            );
        }
        if event_loop {
            assert!(trace.contains("event_loop.poll"), "{trace}");
        }
        // Balanced B/E by construction: equal counts in any full export.
        let begins = trace.matches("\"ph\":\"B\"").count();
        let ends = trace.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends, "unbalanced events: {begins} B vs {ends} E");
        assert!(begins > 0, "capture recorded nothing");

        // Window validation: 0, out-of-range and garbage all answer 400.
        for bad in ["/debug/trace?ms=0", "/debug/trace?ms=99999", "/debug/trace?ms=abc"] {
            assert_eq!(call(&mut client, "GET", bad, "").0, 400, "{bad}");
        }

        // Tracing is restored to disabled after the capture.
        assert!(!pecan_obs::tracing_enabled());
        server.stop();
    }
}

/// Signals `entered` when a batch starts, then blocks until released —
/// pins the worker so connection gauges can be observed mid-request.
struct GatedRunner {
    entered: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl BatchRunner for GatedRunner {
    fn input_len(&self) -> usize {
        4
    }
    fn output_len(&self) -> usize {
        1
    }
    fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        let _ = self.entered.send(());
        let _ = self.release.lock().unwrap().recv();
        Ok(inputs.iter().map(|i| vec![i.iter().sum()]).collect())
    }
}

/// The satellite fix under test: the **threaded** front end now retags
/// connections through reading → handling → writing and maintains the
/// inflight gauge, so `/stats` and `/metrics` gauges mean the same thing
/// on both front ends (they used to stay zero on threads).
#[test]
fn threaded_front_end_maintains_connection_gauges() {
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let runner = Arc::new(GatedRunner { entered: entered_tx, release: Mutex::new(release_rx) });
    let registry = EngineRegistry::new();
    registry
        .register_runner_as(
            "gated",
            runner,
            SchedulerConfig {
                max_batch: 1,
                queue_capacity: 8,
                workers: 1,
            },
        )
        .expect("register double");
    let server = Server::start_registry(
        registry,
        ServerConfig { event_loop: false, ..ServerConfig::default() },
    )
    .expect("bind");

    // Pin one request inside the worker.
    let mut pinned = TcpStream::connect(server.local_addr()).expect("connect");
    pinned.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    pinned
        .write_all(b"POST /predict HTTP/1.1\r\nContent-Length: 9\r\n\r\n[1,2,3,4]")
        .expect("write");
    entered.recv_timeout(Duration::from_secs(5)).expect("worker entered run_batch");
    wait_until("handler tagged handling with one inflight request", || {
        let st = server.conn_stats();
        st.handling == 1 && st.inflight == 1
    });

    // The same gauges are visible through /metrics while the request is
    // still in flight.
    let mut probe = HttpClient::connect(server.local_addr()).expect("connect probe");
    let (status, metrics) = call(&mut probe, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(find_sample(&metrics, "pecan_inflight_requests", &[]), Some(1.0));
    assert_eq!(
        find_sample(&metrics, "pecan_connections_state", &[("state", "handling")]),
        Some(1.0)
    );

    // Release: the answer arrives and every gauge returns to rest.
    drop(release);
    let mut answer = [0u8; 512];
    let n = pinned.read(&mut answer).expect("read answer");
    assert!(std::str::from_utf8(&answer[..n]).unwrap().starts_with("HTTP/1.1 200 OK\r\n"));
    drop(pinned);
    wait_until("gauges back to rest after close", || {
        let st = server.conn_stats();
        st.handling == 0 && st.writing == 0 && st.inflight == 0 && st.active <= 1
    });
    server.stop();
}

/// Each engine stage is timed at one site: its `stage.*` span carries the
/// layer index as its id, and its wall time is exactly the sample in that
/// layer's histogram.
#[test]
fn infer_times_each_layer_once_on_one_clock() {
    let _turn = TRACING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let engine = demo::lenet_engine(5);
    pecan_obs::set_tracing(true);
    // Claims this thread's ring: from here on only this thread writes it.
    drop(pecan_obs::span("test.one_clock"));
    let t0 = pecan_obs::now_ns();
    engine.predict(&vec![0.5; engine.input_len()]).unwrap();
    pecan_obs::set_tracing(false);
    let (_, _, ours) = pecan_obs::span::collect_spans(0, u64::MAX)
        .into_iter()
        .find(|(_, _, records)| records.iter().any(|r| r.name == "test.one_clock"))
        .expect("this thread's ring");
    let stages: Vec<_> =
        ours.iter().filter(|r| r.begin_ns >= t0 && r.name.starts_with("stage.")).collect();
    let times = engine.stage_times();
    assert_eq!((stages.len(), times.len()), (12, 12), "{stages:?}");
    for (layer, (span, (kind, hist))) in stages.iter().zip(&times).enumerate() {
        assert_eq!(span.name, format!("stage.{kind}"));
        assert_eq!(span.id, layer as u64, "a stage span's id is its layer");
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1, "layer {layer} timed once");
        assert_eq!(snap.sum(), span.wall_ns, "layer {layer}: span and histogram share a clock");
    }
}
