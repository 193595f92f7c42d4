//! The `loadgen` binary: drive a running `serve` endpoint with N
//! concurrent keep-alive connections and report throughput and latency
//! percentiles.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7878 --connections 8 --requests 400
//! loadgen --addr 127.0.0.1:7878 --model lenet --connections 4 --requests 200
//! ```
//!
//! `--model NAME` drives `/models/NAME/predict` (multi-model servers);
//! without it the server's default model answers on the bare routes.
//!
//! By default every connection gets its own thread. For high-connection
//! runs (thousands of sockets against the event-loop front end),
//! `--threads N` multiplexes the connections over N threads instead: each
//! thread owns `connections / N` keep-alive sockets and round-robins its
//! requests across them, so all sockets stay open and active without a
//! thousand client threads. `--p99-budget-us N` turns the p99 latency
//! into an exit-code gate for CI.
//!
//! Every worker opens all its connections before any request is sent,
//! and `throughput_rps` is timed from the moment the last one is open, so
//! it measures serving alone; the connect phase prints on its own line
//! (`connect_ms`).
//!
//! Every response is checked: HTTP 200, parseable `output` array of the
//! length `/healthz` advertises. Latencies accumulate in one shared
//! [`pecan_obs::Histogram`] — the same wait-free log-bucketed histogram
//! the server records into — so client p50/p90/p99/p999 and the server's
//! `/metrics` quantiles are computed by identical machinery and compare
//! apples to apples (both overshoot the true order statistic by at most
//! 1/32). Results print as a small table; `--json PATH` additionally
//! writes a bench-style JSON record (same shape as the criterion shim's
//! sink, with throughput and the served model's name attached) so
//! multi-model serving runs stay distinguishable next to kernel
//! benches. At the end of a run loadgen also scrapes the server's
//! `/metrics` and reports the server-side p99 (`server_p99_ns` in the
//! JSON record) next to the client-observed one, so wire overhead and
//! server latency stay distinguishable. `--shutdown` posts `/shutdown`
//! when done.

use pecan_obs::Histogram;
use pecan_serve::client::{predict_path, route_path, HttpClient};
use pecan_serve::json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

struct Args {
    addr: String,
    model: Option<String>,
    connections: usize,
    requests: usize,
    threads: usize,
    warmup: usize,
    seed: u64,
    json: Option<String>,
    tag: Option<String>,
    shutdown: bool,
    p99_budget_us: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        model: None,
        connections: 8,
        requests: 400,
        threads: 0,
        warmup: 32,
        seed: 7,
        json: None,
        tag: None,
        shutdown: false,
        p99_budget_us: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--model" => args.model = Some(value("--model")?),
            "--connections" => {
                args.connections = parse_num(&value("--connections")?, "--connections")?;
            }
            "--requests" => args.requests = parse_num(&value("--requests")?, "--requests")?,
            "--threads" => args.threads = parse_num(&value("--threads")?, "--threads")?,
            "--warmup" => args.warmup = parse_num(&value("--warmup")?, "--warmup")?,
            "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
            "--json" => args.json = Some(value("--json")?),
            "--tag" => args.tag = Some(value("--tag")?),
            "--shutdown" => args.shutdown = true,
            "--p99-budget-us" => {
                args.p99_budget_us =
                    Some(parse_num(&value("--p99-budget-us")?, "--p99-budget-us")?);
            }
            "--help" | "-h" => {
                return Err("usage: loadgen --addr HOST:PORT [--model NAME] \
                            [--connections N] [--requests N] [--threads N] \
                            [--warmup N] [--seed N] [--json PATH] [--tag NAME] \
                            [--shutdown] [--p99-budget-us N]"
                    .into())
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required (try --help)".into());
    }
    args.connections = args.connections.max(1);
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag}: `{text}` is not a number"))
}

fn connect(addr: &str) -> Result<HttpClient, String> {
    HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    // Discover the model's shape from the server itself.
    let model = args.model.as_deref();
    let health_route = route_path(model, "healthz");
    let mut probe = connect(&args.addr)?;
    let (status, health) = probe.call("GET", &health_route, "").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("{health_route} answered {status}: {health}"));
    }
    let input_len = json::number_field(&health, "input_len")? as usize;
    let output_len = json::number_field(&health, "output_len")? as usize;
    // The server reports which model answers this route (the default when
    // --model was not given) — carried into the JSON report.
    let model_name = json::string_field(&health, "model")
        .unwrap_or_else(|_| model.unwrap_or("default").to_string());
    println!(
        "target {} model {model_name} (input_len={input_len}, output_len={output_len})",
        args.addr
    );
    let route = predict_path(model);

    // Warm up (fills caches, spins up connection threads server-side).
    let mut rng = StdRng::seed_from_u64(args.seed);
    for _ in 0..args.warmup {
        let body = json::format_f32_array(&random_input(&mut rng, input_len));
        let (status, body) = probe.call("POST", &route, &body).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("warmup {route} answered {status}: {body}"));
        }
    }

    // Fire. Default: one thread per connection. With --threads, each
    // thread owns a contiguous slice of the connections (all opened up
    // front, all kept alive) and round-robins its requests across them —
    // high connection counts without high thread counts. Every worker
    // opens its connections, then meets the others (and this thread) at
    // the barrier, so requests start once every connection is open.
    let per_conn = args.requests.div_ceil(args.connections).max(1);
    let threads = if args.threads == 0 {
        args.connections
    } else {
        args.threads.clamp(1, args.connections)
    };
    let addr = Arc::new(args.addr.clone());
    let route = Arc::new(route);
    // All threads record straight into one histogram — `record` is
    // wait-free, so no per-thread vectors or merge step are needed.
    let hist = Arc::new(Histogram::new());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let started = Instant::now();
    let mut handles = Vec::new();
    let mut assigned = 0usize;
    for t in 0..threads {
        // Spread the remainder over the first threads.
        let conns_here = args.connections / threads + usize::from(t < args.connections % threads);
        assigned += conns_here;
        let addr = Arc::clone(&addr);
        let route = Arc::clone(&route);
        let hist = Arc::clone(&hist);
        let barrier = Arc::clone(&barrier);
        let seed = args.seed.wrapping_add(1 + t as u64);
        handles.push(std::thread::spawn(move || -> Result<Option<u64>, String> {
            let clients: Result<Vec<HttpClient>, String> =
                (0..conns_here).map(|_| connect(&addr)).collect();
            // Reached whether or not every connect succeeded, so a failed
            // worker never leaves the others waiting.
            barrier.wait();
            let mut clients = clients?;
            let mut rng = StdRng::seed_from_u64(seed);
            // Time-to-first-response: run start → this thread's first 200
            // (connect included). The run-wide minimum lands in the report
            // as `ttfr_ns` — with `--warmup 0` against a fresh server it
            // measures cold start end to end.
            let mut first_ns = None;
            for _ in 0..per_conn {
                for client in &mut clients {
                    let body = json::format_f32_array(&random_input(&mut rng, input_len));
                    let sent = Instant::now();
                    let (status, body) =
                        client.call("POST", &route, &body).map_err(|e| e.to_string())?;
                    let elapsed = sent.elapsed();
                    if status != 200 {
                        return Err(format!("{route} answered {status}: {body}"));
                    }
                    if first_ns.is_none() {
                        first_ns = Some(started.elapsed().as_nanos() as u64);
                    }
                    let output = json::array_field(&body, "output")?;
                    if output.len() != output_len {
                        return Err(format!(
                            "response carries {} values, expected {output_len}",
                            output.len()
                        ));
                    }
                    hist.record(elapsed.as_nanos() as u64);
                }
            }
            Ok(first_ns)
        }));
    }
    debug_assert_eq!(assigned, args.connections);
    barrier.wait();
    let serving = Instant::now();
    let connect_time = serving - started;
    let mut ttfr_ns: Option<u64> = None;
    let mut errors = Vec::new();
    for h in handles {
        match h.join().map_err(|_| "worker panicked".to_string())? {
            Ok(first) => {
                ttfr_ns = match (ttfr_ns, first) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            Err(e) => errors.push(e),
        }
    }
    let wall = serving.elapsed();

    // Scrape the server's own view of the run from /metrics (before any
    // shutdown): the p99 quantile gauge the histogram subsystem exports.
    // Best-effort — old servers without /metrics just leave it out.
    let server_p99_ns = fetch_server_p99_ns(&mut probe, &model_name);
    if let Some(ns) = server_p99_ns {
        println!("server_p99_us: {}", ns / 1_000);
    }

    if args.shutdown {
        let (status, _) = probe.call("POST", "/shutdown", "").map_err(|e| e.to_string())?;
        println!("posted /shutdown (status {status})");
    }
    if !errors.is_empty() {
        return Err(format!("{} connection(s) failed, first: {}", errors.len(), errors[0]));
    }

    let snap = hist.snapshot();
    let total = snap.count();
    if total == 0 {
        return Err("no successful requests recorded".into());
    }
    let throughput = total as f64 / wall.as_secs_f64();
    println!(
        "{total} requests over {} connections ({threads} threads) in {:.3} s",
        args.connections,
        wall.as_secs_f64()
    );
    println!("connect_ms: {:.1}", connect_time.as_secs_f64() * 1e3);
    println!("throughput_rps: {throughput:.1}");
    if let Some(ns) = ttfr_ns {
        println!("ttfr_us: {}", ns / 1_000);
    }
    println!(
        "latency_us: p50 {} | p90 {} | p99 {} | p999 {} | max {}",
        snap.quantile(0.50) / 1_000,
        snap.quantile(0.90) / 1_000,
        snap.quantile(0.99) / 1_000,
        snap.quantile(0.999) / 1_000,
        snap.max() / 1_000
    );

    if let Some(path) = &args.json {
        let name = args.tag.clone().unwrap_or_else(|| {
            format!("loadgen/{model_name}/c{}_r{}", args.connections, total)
        });
        // Client-observed percentiles (wire included) next to the server's
        // own p99 from /metrics, so the report shows both sides of the
        // run. `min_ns` is the histogram's rank-1 quantile — bucketed, so
        // up to 1/32 above the true minimum; `max_ns` is exact.
        let server_p99 =
            server_p99_ns.map_or(String::new(), |ns| format!("\n  \"server_p99_ns\": {ns},"));
        let ttfr =
            ttfr_ns.map_or(String::new(), |ns| format!("\n  \"ttfr_ns\": {ns},"));
        let body = format!(
            "{{\n  \"name\": \"{}\",\n  \"model\": \"{}\",\n  \"median_ns\": {},\n  \"min_ns\": {},\n  \"max_ns\": {},\n  \"p90_ns\": {},\n  \"p99_ns\": {},\n  \"p999_ns\": {},{}{ttfr}\n  \"samples\": {},\n  \"iters_per_sample\": 1,\n  \"throughput_rps\": {:.1}\n}}\n",
            json::escape(&name),
            json::escape(&model_name),
            snap.quantile(0.50),
            snap.quantile(0.0),
            snap.max(),
            snap.quantile(0.90),
            snap.quantile(0.99),
            snap.quantile(0.999),
            server_p99,
            total,
            throughput,
        );
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
        std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }

    if let Some(budget) = args.p99_budget_us {
        let p99_us = snap.quantile(0.99) / 1_000;
        if p99_us > budget {
            eprintln!("loadgen: p99 {p99_us} us exceeds budget {budget} us");
            return Ok(ExitCode::FAILURE);
        }
        println!("p99 {p99_us} us within budget {budget} us");
    }
    Ok(ExitCode::SUCCESS)
}

fn random_input(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Asks the server for its own p99 of this model's request latency: the
/// `pecan_request_latency_quantile_seconds{model=…,quantile="0.99"}` gauge
/// from `/metrics`, converted to nanoseconds. `None` when the server does
/// not expose metrics (or the scrape fails) — the report simply omits it.
fn fetch_server_p99_ns(probe: &mut HttpClient, model_name: &str) -> Option<u64> {
    let (status, body) = probe.call("GET", "/metrics", "").ok()?;
    if status != 200 {
        return None;
    }
    let seconds = pecan_serve::obs::metrics::find_sample(
        &body,
        "pecan_request_latency_quantile_seconds",
        &[("model", model_name), ("quantile", "0.99")],
    )?;
    Some((seconds * 1e9).round() as u64)
}
