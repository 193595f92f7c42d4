//! The `serve` binary: load (or build) one or more PECAN models and
//! answer HTTP traffic until a client posts `/shutdown`.
//!
//! ```text
//! # build demo models and write named snapshots, then exit
//! serve --demo mlp --save mlp.psnp
//! serve --demo lenet --save lenet.psnp
//!
//! # serve one snapshot on an ephemeral port (the bound address is printed)
//! serve --snapshot mlp.psnp --addr 127.0.0.1:0 --max-batch 16 --workers 1
//!
//! # serve several models side by side: the default answers /predict,
//! # the rest answer /models/{name}/predict
//! serve --snapshot mlp.psnp --model lenet=lenet.psnp
//! ```
//!
//! Knobs: `--demo mlp|lenet` (seeded demo model, default `mlp`),
//! `--snapshot PATH` (load a saved model as the default instead),
//! `--model NAME=PATH` (repeatable; register an extra snapshot under
//! NAME), `--name NAME` (rename the default model), `--save PATH` (write
//! the default model and exit without serving), `--seed N`,
//! `--addr HOST:PORT`, `--max-batch N` (most requests one batch takes
//! from the queue; a worker never waits for a batch to fill),
//! `--queue-cap N`, `--workers N` (scheduler knobs apply to every model).
//!
//! Lifecycle knobs: `--mmap` (serve snapshots straight from page cache
//! via `FrozenEngine::open_snapshot` — instant cold start for v3 files),
//! `--model-dir PATH` (watch a directory of `*.psnp` files: new files
//! hot-register, changed files blue/green-reload; see
//! `docs/serving-ops.md`), `--watch-interval-ms N` (scan period, default
//! 2000). Snapshot-backed models also answer `POST /models/{name}/reload`.
//!
//! Front-end knobs: `--event-loop` (epoll event loop instead of
//! thread-per-connection; falls back to threaded where unsupported),
//! `--max-conns N` (connection cap, `503` beyond it),
//! `--read-timeout-ms N` (per-connection idle/read deadline).
//!
//! Observability knobs: `--log LEVEL` (off|error|warn|info|debug|trace;
//! overrides the `PECAN_LOG` environment variable for structured stderr
//! logging) and `--trace-file PATH` (enable span tracing for the whole
//! process lifetime and dump everything still held in the trace rings as
//! Chrome trace-event JSON on exit — after the drain for a serving run,
//! after the write for a `--save` run, so engine *builds* can be profiled
//! too; see `docs/observability.md`). The `/debug/requests` flight
//! recorder always keeps the newest 256 requests.

use pecan_serve::{
    demo, EngineRegistry, FrozenEngine, LoadMode, ModelWatcher, SchedulerConfig, Server,
    ServerConfig, WatcherConfig,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    demo: String,
    snapshot: Option<String>,
    models: Vec<(String, String)>,
    name: Option<String>,
    save: Option<String>,
    seed: u64,
    addr: String,
    max_batch: usize,
    queue_cap: usize,
    workers: usize,
    event_loop: bool,
    max_conns: usize,
    read_timeout_ms: u64,
    log: Option<String>,
    trace_file: Option<String>,
    mmap: bool,
    model_dir: Option<String>,
    watch_interval_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        demo: "mlp".into(),
        snapshot: None,
        models: Vec::new(),
        name: None,
        save: None,
        seed: 1,
        addr: "127.0.0.1:0".into(),
        max_batch: 16,
        queue_cap: 256,
        workers: 1,
        event_loop: false,
        max_conns: 1024,
        read_timeout_ms: 30_000,
        log: None,
        trace_file: None,
        mmap: false,
        model_dir: None,
        watch_interval_ms: 2000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--demo" => args.demo = value("--demo")?,
            "--snapshot" => args.snapshot = Some(value("--snapshot")?),
            "--model" => {
                let spec = value("--model")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model `{spec}` must be NAME=PATH"))?;
                args.models.push((name.to_string(), path.to_string()));
            }
            "--name" => args.name = Some(value("--name")?),
            "--save" => args.save = Some(value("--save")?),
            "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
            "--addr" => args.addr = value("--addr")?,
            "--max-batch" => {
                args.max_batch = parse_num(&value("--max-batch")?, "--max-batch")?;
            }
            "--queue-cap" => {
                args.queue_cap = parse_num(&value("--queue-cap")?, "--queue-cap")?;
            }
            "--workers" => args.workers = parse_num(&value("--workers")?, "--workers")?,
            "--event-loop" => args.event_loop = true,
            "--max-conns" => {
                args.max_conns = parse_num(&value("--max-conns")?, "--max-conns")?;
            }
            "--read-timeout-ms" => {
                args.read_timeout_ms =
                    parse_num(&value("--read-timeout-ms")?, "--read-timeout-ms")?;
            }
            "--log" => args.log = Some(value("--log")?),
            "--trace-file" => args.trace_file = Some(value("--trace-file")?),
            "--mmap" => args.mmap = true,
            "--model-dir" => args.model_dir = Some(value("--model-dir")?),
            "--watch-interval-ms" => {
                args.watch_interval_ms =
                    parse_num(&value("--watch-interval-ms")?, "--watch-interval-ms")?;
            }
            "--help" | "-h" => {
                return Err("usage: serve [--demo mlp|lenet] [--snapshot PATH] \
                            [--model NAME=PATH]... [--name NAME] [--save PATH] \
                            [--seed N] [--addr HOST:PORT] [--max-batch N] \
                            [--queue-cap N] [--workers N] [--event-loop] \
                            [--max-conns N] [--read-timeout-ms N] \
                            [--log off|error|warn|info|debug|trace] \
                            [--trace-file PATH] [--mmap] [--model-dir PATH] \
                            [--watch-interval-ms N]"
                    .into())
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag}: `{text}` is not a number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spec) = &args.log {
        if !pecan_serve::obs::log::set_level_spec(spec) {
            eprintln!("--log: `{spec}` is not a level (off|error|warn|info|debug|trace)");
            return ExitCode::FAILURE;
        }
    }
    if args.trace_file.is_some() {
        // Enabled before the engine is built so a `--demo ... --trace-file`
        // run captures the build-time gemm/pack spans, not just serving.
        pecan_obs::set_tracing(true);
    }

    let mode = if args.mmap { LoadMode::Map } else { LoadMode::Copy };
    let load = |path: &str| match mode {
        LoadMode::Map => FrozenEngine::open_snapshot(path),
        LoadMode::Copy => FrozenEngine::load_snapshot(path),
    };
    let mut engine = match &args.snapshot {
        Some(path) => match load(path) {
            Ok(e) => {
                println!(
                    "loaded snapshot {path} (model `{}`{})",
                    e.name().unwrap_or("default"),
                    if e.uses_shared_storage() { ", memory-mapped" } else { "" }
                );
                e
            }
            Err(e) => {
                pecan_serve::log_error!("serve::bin", "cannot load snapshot", path = path, error = e);
                eprintln!("cannot load snapshot {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match args.demo.as_str() {
            "mlp" => demo::mlp_engine(args.seed),
            "lenet" => demo::lenet_engine(args.seed),
            other => {
                eprintln!("unknown demo model `{other}` (mlp|lenet)");
                return ExitCode::FAILURE;
            }
        },
    };
    if let Some(name) = &args.name {
        engine = engine.with_name(name.clone());
    }

    if let Some(path) = &args.save {
        if let Err(e) = engine.save_snapshot(path) {
            eprintln!("cannot write snapshot {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "saved snapshot to {path} (model `{}`, {} stages, {} LUT scalars)",
            engine.name().unwrap_or("default"),
            engine.stage_count(),
            engine.lut_scalars()
        );
        if let Some(trace) = &args.trace_file {
            dump_trace(trace);
        }
        return ExitCode::SUCCESS;
    }

    let scheduler = SchedulerConfig {
        max_batch: args.max_batch,
        queue_capacity: args.queue_cap,
        workers: args.workers,
    };
    let registry = EngineRegistry::new();
    if let Err(e) = registry.register(Arc::new(engine), scheduler.clone()) {
        eprintln!("cannot register default model: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.snapshot {
        // Remember the file so POST /reload can re-read it the same way.
        if let Ok(entry) = registry.resolve(None) {
            entry.set_source(path, mode);
        }
    }
    for (name, path) in &args.models {
        if let Err(e) = registry.register_file(name.clone(), path, mode, scheduler.clone()) {
            eprintln!("cannot register model `{name}` from {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let config = ServerConfig {
        addr: args.addr.clone(),
        event_loop: args.event_loop,
        max_connections: args.max_conns,
        read_timeout: Duration::from_millis(args.read_timeout_ms),
    };
    if args.event_loop && !pecan_serve::event_loop_supported() {
        pecan_serve::log_warn!("serve::bin", "event loop unsupported here; using threads");
        eprintln!("--event-loop is not supported on this platform; using threads");
    }
    let server = match Server::start_registry(registry, config) {
        Ok(s) => s,
        Err(e) => {
            pecan_serve::log_error!("serve::bin", "cannot bind", addr = args.addr, error = e);
            eprintln!("cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // Started after the server so hot-added models are routable the
    // moment the watcher registers them. Dropped (stopped and joined)
    // after `server.run()` returns.
    let _watcher = args.model_dir.as_ref().map(|dir| {
        println!("watching {dir} for *.psnp models every {} ms", args.watch_interval_ms);
        ModelWatcher::start(
            Arc::clone(server.registry()),
            WatcherConfig {
                dir: dir.into(),
                interval: Duration::from_millis(args.watch_interval_ms),
                mode,
                scheduler: scheduler.clone(),
            },
        )
    });
    let names = server.registry().names().join(", ");
    println!(
        "serving models: {names} (default `{}`, {} front end)",
        server.registry().default_model().name(),
        if server.uses_event_loop() { "event-loop" } else { "threaded" }
    );
    // Scripts scrape this line for the resolved ephemeral port.
    println!("pecan-serve listening on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    println!("pecan-serve: drained and stopped");
    if let Some(trace) = &args.trace_file {
        dump_trace(trace);
    }
    ExitCode::SUCCESS
}

/// Writes everything still held in the trace rings to `path` as Chrome
/// trace-event JSON. Failure to write is reported but never changes the
/// exit code: the trace is a diagnostic artifact, not the run's output.
fn dump_trace(path: &str) {
    let json = pecan_obs::dump_all_json();
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote trace to {path} ({} bytes)", json.len()),
        Err(e) => eprintln!("cannot write trace {path}: {e}"),
    }
}
