//! Zero-downtime model lifecycle, end to end over HTTP.
//!
//! The contract under test: a `POST /models/{name}/reload` while clients
//! are hammering the model drops **zero** requests, answers every request
//! with a known engine version (old or new, never garbage), and serves
//! only the new version once the swap completes. Counters must carry
//! across the swap, and a failed reload must leave the old version
//! serving.
//!
//! The zero-drop and non-blocking tests run on both front ends. Both
//! serve `/reload` concurrently with predictions: the threaded front end
//! on the connection's handler thread, the event loop on a helper thread,
//! so a reload stuck reading its snapshot never delays other requests.

use pecan_serve::client::HttpClient;
use pecan_serve::obs::metrics::find_sample;
use pecan_serve::{demo, json, EngineRegistry, LoadMode, SchedulerConfig, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pecan-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn front_end_flags() -> Vec<bool> {
    if pecan_serve::event_loop_supported() {
        vec![false, true]
    } else {
        vec![false]
    }
}

fn body_output(body: &str) -> Vec<f32> {
    let inner = body
        .split("\"output\":")
        .nth(1)
        .and_then(|t| t.split(']').next())
        .unwrap_or_else(|| panic!("no output array in {body}"));
    format!("{inner}]")
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .map(|t| t.trim().parse::<f32>().expect("float"))
        .collect()
}

#[test]
fn live_reload_drops_nothing_and_serves_known_versions() {
    for event_loop in front_end_flags() {
        live_reload_round(event_loop);
    }
}

/// One run of [`live_reload_drops_nothing_and_serves_known_versions`] on
/// the front end `event_loop` selects.
fn live_reload_round(event_loop: bool) {
    println!("front end: {}", if event_loop { "event loop" } else { "threaded" });
    let dir = tmp_dir(&format!("hot-reload-{event_loop}"));
    let path = dir.join("m.psnp");
    let seeds: [u64; 4] = [1, 2, 3, 4];
    demo::mlp_engine(seeds[0]).save_snapshot(&path).unwrap();

    // The answer every engine generation gives to one fixed input —
    // responses observed over HTTP must match one of these exactly.
    let engines: Vec<_> = seeds.iter().map(|&s| demo::mlp_engine(s)).collect();
    let input: Vec<f32> = (0..engines[0].input_len()).map(|i| (i as f32 * 0.37).sin()).collect();
    let expected: Vec<Vec<f32>> = engines.iter().map(|e| e.predict(&input).unwrap()).collect();
    let input_json = format!(
        "[{}]",
        input.iter().map(|v| format!("{v}")).collect::<Vec<_>>().join(",")
    );

    let registry = EngineRegistry::new();
    registry
        .register_file("m", &path, LoadMode::Copy, SchedulerConfig::default())
        .unwrap();
    let config = ServerConfig { event_loop, ..ServerConfig::default() };
    let server = Server::start_registry(registry, config).expect("server starts");
    let addr = server.local_addr();

    // Clients hammer the model on keep-alive connections for the whole
    // duration of several blue/green swaps.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let expected = expected.clone();
            let input_json = input_json.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                let mut done = 0u64;
                let mut newest_seen = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let (status, body) = client
                        .call("POST", "/models/m/predict", &input_json)
                        .expect("predict call survives reloads");
                    assert_eq!(status, 200, "no request may fail during a reload: {body}");
                    let output = body_output(&body);
                    let version = expected
                        .iter()
                        .position(|want| want == &output)
                        .unwrap_or_else(|| {
                            panic!("response matches no engine generation: {body}")
                        });
                    // Versions only ever move forward on one connection.
                    assert!(
                        version + 1 >= newest_seen,
                        "answer regressed to a retired engine generation"
                    );
                    newest_seen = newest_seen.max(version + 1);
                    done += 1;
                }
                done
            })
        })
        .collect();

    // Swap through the remaining generations while the load runs.
    let mut admin = HttpClient::connect(addr).expect("connect admin");
    for (round, &seed) in seeds.iter().enumerate().skip(1) {
        std::thread::sleep(std::time::Duration::from_millis(60));
        demo::mlp_engine(seed).save_snapshot(&path).unwrap();
        let (status, body) = admin.call("POST", "/models/m/reload", "").expect("reload");
        assert_eq!(status, 200, "reload must succeed: {body}");
        assert!(body.contains("\"status\":\"reloaded\""), "{body}");
        assert!(body.contains(&format!("\"version\":{}", round + 1)), "{body}");
    }

    // A corrupt snapshot must fail the reload *and* leave the last good
    // version serving.
    std::fs::write(&path, b"PECANSNPnot a real snapshot").unwrap();
    let (status, body) = admin.call("POST", "/models/m/reload", "").expect("reload");
    assert_eq!(status, 500, "corrupt file is an engine error: {body}");

    std::thread::sleep(std::time::Duration::from_millis(60));
    stop.store(true, Ordering::SeqCst);
    let counts: Vec<u64> = workers.into_iter().map(|w| w.join().expect("client")).collect();
    assert!(counts.iter().all(|&c| c > 0), "every client made progress: {counts:?}");

    // After the dust settles: the newest generation answers, and the
    // continuous counters account for every accepted request.
    let (_, final_body) = admin.call("POST", "/models/m/predict", &input_json).expect("final");
    assert_eq!(
        body_output(&final_body),
        expected[seeds.len() - 1],
        "the last successful reload must be what serves"
    );
    let entry = server.registry().resolve(Some("m")).unwrap();
    assert_eq!(entry.version(), seeds.len() as u64, "one version per successful reload");
    let stats = entry.stats();
    assert_eq!(
        stats.completed + stats.failed,
        stats.submitted,
        "every accepted request was answered: {stats:?}"
    );
    assert_eq!(stats.failed, 0, "no request failed across {} reloads", seeds.len() - 1);
    assert!(
        stats.completed >= counts.iter().sum::<u64>(),
        "client-observed answers are a subset of completed"
    );

    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sends one request on a fresh connection whose reads give up after
/// `timeout`, and returns `(status, body)`.
#[cfg(unix)]
fn call_within(
    addr: std::net::SocketAddr,
    timeout: Duration,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// A reload stuck reading its snapshot must not hold up anyone else. The
/// model's source is a FIFO, so the reload blocks in `fs::read` until the
/// test writes the snapshot into it — for as long as the test wants, with
/// no timing guess. Meanwhile a predict on another connection must be
/// answered within 2 s.
#[cfg(unix)]
#[test]
fn a_blocked_reload_never_delays_other_requests() {
    use std::sync::mpsc;
    for event_loop in front_end_flags() {
        let front = if event_loop { "event loop" } else { "threaded" };
        let dir = tmp_dir(&format!("reload-fifo-{event_loop}"));
        let path = dir.join("m.psnp");
        let next = dir.join("next.psnp");
        let fifo = dir.join("m.fifo");
        demo::mlp_engine(1).save_snapshot(&path).unwrap();
        demo::mlp_engine(2).save_snapshot(&next).unwrap();
        let made = std::process::Command::new("mkfifo").arg(&fifo).status().expect("mkfifo");
        assert!(made.success(), "mkfifo {}", fifo.display());

        let registry = EngineRegistry::new();
        registry.register_file("m", &path, LoadMode::Copy, SchedulerConfig::default()).unwrap();
        registry.resolve(Some("m")).unwrap().set_source(&fifo, LoadMode::Copy);
        let config = ServerConfig { event_loop, ..ServerConfig::default() };
        let server = Server::start_registry(registry, config).expect("server starts");
        let addr = server.local_addr();

        // Opening a FIFO for writing blocks until a reader opens it: once
        // the writer's open returns, the reload is inside `fs::read`.
        let (opened_tx, opened) = mpsc::channel();
        let (write_tx, write) = mpsc::channel::<()>();
        let snapshot = std::fs::read(&next).unwrap();
        let writer = std::thread::spawn(move || {
            let mut w = std::fs::OpenOptions::new().write(true).open(&fifo).expect("open fifo");
            opened_tx.send(()).unwrap();
            let _ = write.recv();
            std::io::Write::write_all(&mut w, &snapshot).expect("write snapshot");
        });
        let reload = std::thread::spawn(move || {
            HttpClient::connect(addr)?.call("POST", "/models/m/reload", "")
        });
        opened.recv_timeout(Duration::from_secs(10)).expect("the reload opens its source");

        let input = json::format_f32_array(&vec![0.5; demo::MLP_INPUT]);
        let predicted = call_within(addr, Duration::from_secs(2), "/models/m/predict", &input);
        // Unblock the reload before asserting anything: a failed assertion
        // must fail the test, not hang in `Server::stop`.
        write_tx.send(()).unwrap();
        writer.join().unwrap();
        let reloaded = reload.join().unwrap();

        let (status, body) = predicted
            .unwrap_or_else(|e| panic!("{front}: predict behind a blocked reload: {e}"));
        assert_eq!(status, 200, "{front}: {body}");
        let (status, body) = reloaded.expect("reload answers");
        assert_eq!(status, 200, "{front}: {body}");
        assert!(body.contains("\"version\":2"), "{front}: {body}");
        server.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn reload_of_memory_registered_model_is_a_client_error() {
    let registry = EngineRegistry::new();
    registry
        .register(Arc::new(demo::mlp_engine(5)), SchedulerConfig::default())
        .unwrap();
    let server =
        Server::start_registry(registry, ServerConfig::default()).expect("server starts");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    // No snapshot source on record: 400, not 500 — the operator asked for
    // something this model cannot do.
    let (status, body) = client.call("POST", "/reload", "").expect("call");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("no snapshot source"), "{body}");
    // Unknown names are still 404.
    let (status, _) = client.call("POST", "/models/ghost/reload", "").expect("call");
    assert_eq!(status, 404);
    server.stop();
}

#[test]
fn event_loop_front_end_serves_reload_too() {
    if !pecan_serve::event_loop_supported() {
        return;
    }
    let dir = tmp_dir("hot-reload-ev");
    let path = dir.join("ev.psnp");
    demo::mlp_engine(6).save_snapshot(&path).unwrap();
    let registry = EngineRegistry::new();
    registry
        .register_file("ev", &path, LoadMode::Map, SchedulerConfig::default())
        .unwrap();
    let config = ServerConfig { event_loop: true, ..ServerConfig::default() };
    let server = Server::start_registry(registry, config).expect("server starts");
    assert!(server.uses_event_loop());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    demo::mlp_engine(7).save_snapshot(&path).unwrap();
    let (status, body) = client.call("POST", "/models/ev/reload", "").expect("reload");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\":2"), "{body}");
    let entry = server.registry().resolve(Some("ev")).unwrap();
    assert_eq!(entry.version(), 2);
    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reload_across_architectures_times_every_layer_of_the_new_engine() {
    let dir = tmp_dir("hot-reload-arch");
    let path = dir.join("m.psnp");
    demo::mlp_engine(8).save_snapshot(&path).unwrap();
    let registry = EngineRegistry::new();
    registry.register_file("m", &path, LoadMode::Copy, SchedulerConfig::default()).unwrap();
    let server = Server::start_registry(registry, ServerConfig::default()).expect("server starts");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let mut call = |method, path, body: &str| client.call(method, path, body).expect("call");
    let predict = |len| json::format_f32_array(&vec![0.5; len]);
    assert_eq!(call("POST", "/models/m/predict", &predict(demo::MLP_INPUT)).0, 200);

    // Same name, new architecture: the MLP becomes LeNet.
    demo::lenet_engine(8).save_snapshot(&path).unwrap();
    assert_eq!(call("POST", "/models/m/reload", "").0, 200);
    let entry = server.registry().resolve(Some("m")).unwrap();
    let batches_before = entry.stats().batches;
    for _ in 0..3 {
        assert_eq!(call("POST", "/models/m/predict", &predict(784)).0, 200);
    }
    let since_reload = Some((entry.stats().batches - batches_before) as f64);
    let (_, metrics) = call("GET", "/metrics", "");

    // Counters carry across the reload; the per-layer series describe
    // the engine now serving, every one of its twelve layers.
    assert_eq!(find_sample(&metrics, "pecan_batches_total", &[("model", "m")]), Some(4.0));
    let kinds = "lut-conv relu max-pool lut-conv relu max-pool flatten \
                 lut-linear relu lut-linear relu lut-linear";
    for (layer, stage) in kinds.split_whitespace().enumerate() {
        let layer = layer.to_string();
        let labels = [("model", "m"), ("layer", layer.as_str()), ("stage", stage)];
        let count = find_sample(&metrics, "pecan_stage_latency_seconds_count", &labels);
        assert_eq!(count, since_reload, "layer {layer} ({stage}) in:\n{metrics}");
    }
    assert!(!metrics.contains("layer=\"12\""), "LeNet has twelve layers");
    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
