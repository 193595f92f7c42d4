//! Std-only HTTP/1.1 front end over [`std::net::TcpListener`].
//!
//! The environment is offline, so the server is hand-rolled on the
//! standard library: no TLS, no chunked encoding — exactly enough protocol
//! for serving and load-generation. Two interchangeable front ends share
//! one incremental [`parser`], one router ([`route_request`]) and one
//! protocol core — `HttpShared::{admit, begin, answer, refuse}` — so they
//! answer byte-identically and count alike: every answered request counts
//! once in `requests`, once in `responses`, and leaves one
//! `/debug/requests` record. A front end keeps only how it reads, waits
//! and writes:
//!
//! * **Threaded** ([`threaded`], the portable default): blocking accept
//!   loop, one handler thread per connection.
//! * **Event loop** ([`event_loop`], Linux `x86_64`/`aarch64`, opt in via
//!   [`ServerConfig::event_loop`]): a single epoll-driven thread
//!   multiplexing thousands of non-blocking sockets, with completion
//!   wakeups from the scheduler. See
//!   [`event_loop_supported`] and the README's "Event-loop front end"
//!   section.
//!
//! # Endpoints
//!
//! | route | method | body | answer |
//! |---|---|---|---|
//! | `/predict` | POST | JSON array of `input_len` floats | `{"output":[…],"latency_us":n,"batch_size":n}` |
//! | `/models/{name}/predict` | POST | as above | as above, for the named model |
//! | `/healthz` | GET | — | `{"status":"ok","model":…,"input_len":n,"output_len":n,"models":[…]}` |
//! | `/models/{name}/healthz` | GET | — | the named model's contract |
//! | `/stats` | GET | — | `{"default":…,"connections":{…},"models":{name: counters, …}}` |
//! | `/models/{name}/stats` | GET | — | the named model's flat counters |
//! | `/metrics` | GET | — | Prometheus text exposition: counters, gauges, latency/batch/stage histograms |
//! | `/debug/requests` | GET | — | flight recorder dump: the newest completed request spans |
//! | `/debug/trace?ms=N` | GET | — | records span tracing for `N` ms (default 200, max 10000), answers Chrome trace-event JSON (`docs/observability.md`) |
//! | `/reload` | POST | — | blue/green reload of the default model from its snapshot file |
//! | `/models/{name}/reload` | POST | — | reload the named model; `{"status":"reloaded","model":…,"version":n}` |
//! | `/shutdown` | POST | — | acknowledges, then the server drains and stops |
//!
//! The bare routes serve the registry's **default** model, so single-model
//! deployments and old clients keep working unchanged. An unknown model
//! name answers `404` with `{"error":"unknown model …"}`. Backpressure
//! surfaces as `503` with `{"error":"overloaded…"}` and a `Retry-After`
//! header — either from load-aware shedding (a model's queue at
//! [`SHED_FRACTION`] of its capacity, counted in
//! [`ConnStatsSnapshot::shed_requests`](crate::ConnStatsSnapshot)) or from
//! the scheduler's hard queue bound. A reload or trace capture beyond
//! [`MAX_BLOCKING`] running at once also answers `503` and counts as shed.
//! Malformed requests answer `400` (`413`/`431` when too large).

pub mod parser;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod conn;
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod event_loop;
// The one place in the workspace where `unsafe` is allowed: raw syscalls.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[allow(unsafe_code)]
pub(crate) mod sys;
mod threaded;

use crate::error::ServeError;
use crate::json;
use crate::lock;
use crate::obs::metrics::{PromKind, PromText};
use crate::obs::recorder::NO_MODEL;
use crate::obs::{FlightRecorder, TraceRecord};
use crate::registry::EngineRegistry;
use crate::scheduler::Prediction;
use crate::stats::{ConnStats, ConnStatsSnapshot, ConnTag, StatsSnapshot};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `true` when this build carries the epoll event-loop front end
/// (Linux on `x86_64` or `aarch64`). Everywhere else
/// [`ServerConfig::event_loop`] silently falls back to the portable
/// threaded front end; [`Server::uses_event_loop`] reports what actually
/// runs.
pub fn event_loop_supported() -> bool {
    cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))
}

/// Front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port (the bound address
    /// is reported by [`Server::local_addr`]).
    pub addr: String,
    /// Per-connection idle/read timeout. The threaded front end applies it
    /// as a socket read timeout; the event loop closes connections whose
    /// socket made no progress for this long (mid-request: best-effort
    /// `408` first) and uses it as the graceful-drain deadline.
    pub read_timeout: Duration,
    /// Serve through the epoll event loop instead of
    /// thread-per-connection. Ignored (threaded fallback) where
    /// [`event_loop_supported`] is `false`.
    pub event_loop: bool,
    /// Most connections held open at once; further accepts are answered
    /// `503` and closed (counted in
    /// [`ConnStatsSnapshot::shed_connections`]). The event loop also
    /// sizes the listener's accept queue to it (the kernel caps that at
    /// `net.core.somaxconn`), so a burst of connects waits to be accepted
    /// instead of being dropped.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_secs(30),
            event_loop: false,
            max_connections: 1024,
        }
    }
}

/// Largest accepted request body in bytes; a longer declared
/// `Content-Length` is refused `413` with `Connection: close`.
pub(crate) const MAX_BODY: usize = 1 << 20;

/// Capacity of the flight recorder: how many of the newest completed
/// requests `/debug/requests` can replay.
const FLIGHT_RECORDS: usize = 256;

/// Fraction of a model's scheduler queue capacity at which `/predict`
/// starts answering `503` **before** the hard queue rejection (load-aware
/// shedding, counted in [`ConnStatsSnapshot::shed_requests`]).
const SHED_FRACTION: f64 = 0.9;

/// Most blocking jobs ([`Routed::Blocking`]: reloads and `/debug/trace`
/// captures) running at once, server-wide. Each ties down a thread, and a
/// reload may hold a whole snapshot decode; beyond the cap such a request
/// answers `503` at once (counted in
/// [`ConnStatsSnapshot::shed_requests`]).
const MAX_BLOCKING: usize = 4;

pub(crate) struct HttpShared {
    pub(crate) registry: Arc<EngineRegistry>,
    pub(crate) read_timeout: Duration,
    pub(crate) max_connections: usize,
    /// Blocking jobs admitted and not yet dropped (≤ [`MAX_BLOCKING`]).
    blocking: Arc<AtomicUsize>,
    pub(crate) stopping: AtomicBool,
    pub(crate) shutdown_tx: mpsc::Sender<()>,
    pub(crate) conn_stats: ConnStats,
    pub(crate) recorder: FlightRecorder,
    /// Request-ID mint: IDs are assigned at parse time, 1-based, unique
    /// per server across both front ends.
    next_request_id: AtomicU64,
    /// Connection-generation mint shared by both front ends, so a trace's
    /// `conn_gen` is unique server-wide.
    next_conn_gen: AtomicU64,
}

/// One request on its way to an answer: what [`HttpShared::begin`] minted
/// and [`HttpShared::answer`] needs. `Copy`, so the event loop's
/// completion callbacks carry it across threads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Exchange {
    /// Request ID (1-based, unique per server).
    pub(crate) id: u64,
    /// Generation of the connection the request arrived on.
    pub(crate) conn_gen: u64,
    /// Whether the response says `Connection: keep-alive`.
    pub(crate) keep_alive: bool,
}

/// The protocol core: every decision both front ends make about a
/// connection or a request. A front end calls [`admit`](Self::admit)
/// per accepted socket, [`begin`](Self::begin) per parsed request and
/// [`answer`](Self::answer) once its answer is known — or
/// [`refuse`](Self::refuse) for a request that never parsed — and counts
/// the response itself when it hands the bytes on.
impl HttpShared {
    /// Mints the next connection generation (1-based).
    pub(crate) fn mint_conn_gen(&self) -> u64 {
        self.next_conn_gen.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The connection cap. Below it, counts the socket `accepted` (in the
    /// `reading` state) and returns `true`; the caller owns the
    /// connection and records its close. At the cap, counts it in
    /// `shed_connections`, writes a best-effort `503` without blocking,
    /// and returns `false`: the caller drops (closes) the socket.
    pub(crate) fn admit(&self, stream: &mut TcpStream) -> bool {
        let active = self.conn_stats.active();
        if active < self.max_connections as u64 {
            self.conn_stats.record_accepted(ConnTag::Reading);
            return true;
        }
        self.conn_stats.record_shed_connection();
        crate::log_debug!("serve::http", "connection shed at cap", active = active);
        let _ = stream.set_nonblocking(true);
        let _ = stream.write_all(&encode_response(503, CT_JSON, &error_body(503), false));
        false
    }

    /// Counts one request and mints its ID. The caller opens the
    /// `serve.request` span itself: a span records into the ring of the
    /// thread that opens it.
    pub(crate) fn begin(&self, conn_gen: u64, keep_alive: bool) -> Exchange {
        self.conn_stats.record_request();
        let id = self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        Exchange { id, conn_gen, keep_alive }
    }

    /// Writes `ex`'s flight-recorder record and encodes its response.
    /// `model` is the registry index of the model that answered, and
    /// `prediction` carries the queue/batch legs for a request that
    /// reached a scheduler; both are `None` for everything else (admin
    /// routes, validation errors, shed requests, refusals).
    pub(crate) fn answer(
        &self,
        ex: &Exchange,
        model: Option<usize>,
        (status, content_type, body): (u16, &str, &str),
        prediction: Option<&Prediction>,
    ) -> Vec<u8> {
        let p = prediction;
        self.recorder.record(&TraceRecord {
            id: ex.id,
            conn_gen: ex.conn_gen,
            model: model.map_or(NO_MODEL, |m| m as u64),
            status: u64::from(status),
            batch_id: p.map_or(0, |p| p.batch_id),
            batch_size: p.map_or(0, |p| p.batch_size as u64),
            queue_us: p.map_or(0, |p| p.queued.as_micros() as u64),
            infer_us: p.map_or(0, |p| p.total.saturating_sub(p.queued).as_micros() as u64),
            total_us: p.map_or(0, |p| p.total.as_micros() as u64),
            t_us: self.recorder.now_us(),
        });
        crate::log_trace!(
            "serve::http",
            "request completed",
            id = ex.id,
            conn_gen = ex.conn_gen,
            status = status,
            total_us = p.map_or(0, |p| p.total.as_micros()),
        );
        encode_response(status, content_type, body, ex.keep_alive)
    }

    /// Answers, with `Connection: close`, a request the parser refused
    /// (`400`/`413`/`431`) or the client cut off: `400` at EOF
    /// mid-request, `408` at the read deadline mid-request (which also
    /// counts one timeout). It counts and records like any other
    /// request, with no model.
    pub(crate) fn refuse(&self, conn_gen: u64, status: u16) -> Vec<u8> {
        if status == 408 {
            self.conn_stats.record_timeout();
            crate::log_debug!("serve::http", "read timeout mid-request", conn_gen = conn_gen);
        }
        let ex = self.begin(conn_gen, false);
        self.answer(&ex, None, (status, CT_JSON, &error_body(status)), None)
    }
}

/// The running front end behind a [`Server`].
enum FrontEnd {
    /// Thread-per-connection accept loop.
    Threaded(JoinHandle<()>),
    /// Single epoll-driven loop thread.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Event(event_loop::EventLoopHandle),
}

/// A running serving endpoint: front end + per-model schedulers + frozen
/// engines.
///
/// Construct with [`Server::start_registry`], the one constructor, over a
/// registry of one or more models; keep registering and reloading models
/// through [`Server::registry`] while it runs. Stop gracefully with
/// [`Server::stop`] (drains all queued requests) or let a client
/// `POST /shutdown` and wait for that with [`Server::run`].
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<HttpShared>,
    front: Mutex<Option<FrontEnd>>,
    shutdown_rx: Mutex<mpsc::Receiver<()>>,
    event_loop: bool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("event_loop", &self.event_loop)
            .finish()
    }
}

impl Server {
    /// Binds, adopts the registry's per-model schedulers, spawns the
    /// configured front end, and starts answering on every model's routes.
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the registry is empty or the address cannot be
    /// bound.
    pub fn start_registry(registry: EngineRegistry, config: ServerConfig) -> io::Result<Server> {
        if registry.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot serve an empty model registry",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let shared = Arc::new(HttpShared {
            registry: Arc::new(registry),
            read_timeout: config.read_timeout,
            max_connections: config.max_connections.max(1),
            blocking: Arc::default(),
            stopping: AtomicBool::new(false),
            shutdown_tx,
            conn_stats: ConnStats::new(),
            recorder: FlightRecorder::new(FLIGHT_RECORDS),
            next_request_id: AtomicU64::new(0),
            next_conn_gen: AtomicU64::new(0),
        });
        let use_event = config.event_loop && event_loop_supported();
        let front = if use_event {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                FrontEnd::Event(event_loop::start(listener, Arc::clone(&shared))?)
            }
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            {
                unreachable!("event_loop_supported() gated this branch")
            }
        } else {
            let accept_shared = Arc::clone(&shared);
            FrontEnd::Threaded(
                std::thread::Builder::new()
                    .name("pecan-serve-accept".into())
                    .spawn(move || threaded::accept_loop(&listener, &accept_shared))
                    .expect("spawning the accept loop"),
            )
        };
        crate::log_info!(
            "serve::http",
            "listening",
            addr = local_addr,
            front_end = if use_event { "event-loop" } else { "threaded" },
            models = shared.registry.entries().len(),
        );
        Ok(Server {
            local_addr,
            shared,
            front: Mutex::new(Some(front)),
            shutdown_rx: Mutex::new(shutdown_rx),
            event_loop: use_event,
        })
    }

    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// `true` when requests are served by the epoll event loop rather than
    /// thread-per-connection.
    pub fn uses_event_loop(&self) -> bool {
        self.event_loop
    }

    /// Live counters of the default model's scheduler.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.registry.default_model().stats()
    }

    /// Live connection-tier counters of the front end.
    pub fn conn_stats(&self) -> ConnStatsSnapshot {
        self.shared.conn_stats.snapshot()
    }

    /// The served models. Clone the `Arc` to share the registry with
    /// other components — the directory watcher, operator tooling — that
    /// keep registering and reloading models **while the server runs**;
    /// models added after start are routable immediately.
    pub fn registry(&self) -> &Arc<EngineRegistry> {
        &self.shared.registry
    }

    /// Blocks until a client requests `POST /shutdown`, then stops
    /// gracefully. Used by the `serve` binary.
    pub fn run(self) {
        // A send error means the sender (shared state) is gone, which only
        // happens at teardown — either way, proceed to stop.
        let _ = lock(&self.shutdown_rx).recv();
        self.stop();
    }

    /// Graceful stop: refuse new connections, answer everything already
    /// in flight, drain every queued request of every model, join the
    /// front end and scheduler workers. Returns once those answers are
    /// written (on the threaded front end, bounded by the read timeout).
    /// Idempotent.
    pub fn stop(&self) {
        // ordering: Relaxed — the swap's atomicity alone makes stop
        // idempotent (exactly one caller sees `false`). Front ends don't
        // learn of the flag through memory ordering but through the
        // wakeups below (connect-poke / eventfd), each of which
        // synchronizes through the kernel.
        if self.shared.stopping.swap(true, Ordering::Relaxed) {
            return;
        }
        crate::log_info!("serve::http", "stopping", addr = self.local_addr);
        let threaded = match lock(&self.front).take() {
            Some(FrontEnd::Threaded(handle)) => {
                // The accept loop blocks in `accept`; poke it so it
                // observes the flag. Failure is fine — it means the
                // listener is already gone.
                let _ = TcpStream::connect(self.local_addr);
                let _ = handle.join();
                true
            }
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Some(FrontEnd::Event(handle)) => {
                handle.stop();
                false
            }
            None => false,
        };
        self.shared.registry.shutdown();
        if threaded {
            // The drain hands the detached connection threads their
            // answers; they write them after it returns. Wait until every
            // counted request has its response counted (each write is
            // bounded by the socket timeout), so a caller that exits
            // right after `stop` drops none of them.
            let deadline = Instant::now() + self.shared.read_timeout;
            while Instant::now() < deadline {
                let c = self.shared.conn_stats.snapshot();
                if c.responses >= c.requests {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Splits `/models/{name}/rest` into `(Some(name), "/rest")`; any other
/// target passes through as `(None, target)`.
fn split_model(target: &str) -> (Option<&str>, &str) {
    if let Some(tail) = target.strip_prefix("/models/") {
        if let Some(slash) = tail.find('/') {
            return (Some(&tail[..slash]), &tail[slash..]);
        }
    }
    (None, target)
}

/// `Content-Type` of every JSON response.
pub(crate) const CT_JSON: &str = "application/json";
/// `Content-Type` of the `/metrics` Prometheus text exposition.
pub(crate) const CT_PROM: &str = "text/plain; version=0.0.4";

/// Where one routed request goes next.
pub(crate) enum Routed {
    /// Fully answered without inference.
    Done {
        status: u16,
        body: String,
        /// `Content-Type` of the response ([`CT_JSON`] for everything
        /// except `/metrics`).
        content_type: &'static str,
        /// Signal server shutdown once the response has left the socket.
        shutdown: bool,
    },
    /// Needs inference: submit `input` to the scheduler of registry entry
    /// `idx` (an index, not a borrow, so the event loop can carry it
    /// through an asynchronous completion).
    Predict { idx: usize, input: Vec<f32> },
    /// A job that may block — a `/debug/trace` capture window, a reload
    /// reading and decoding its snapshot — and then yields the JSON
    /// `(status, body)`. The threaded front end runs it on the handler
    /// thread; the event loop hands it to a helper thread, since its loop
    /// thread can never block.
    Blocking(Box<dyn FnOnce() -> (u16, String) + Send>),
}

impl Routed {
    fn done(status: u16, body: String) -> Self {
        Routed::Done { status, body, content_type: CT_JSON, shutdown: false }
    }
}

/// Routes one parsed request. Shared verbatim by both front ends — this
/// function is why their responses are byte-identical.
pub(crate) fn route_request(shared: &HttpShared, request: &parser::Request) -> Routed {
    let (model, path) = split_model(&request.target);
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let (status, body) = healthz(shared, model);
            Routed::done(status, body)
        }
        ("GET", "/stats") => {
            let (status, body) = stats(shared, model);
            Routed::done(status, body)
        }
        // Observability is server-wide: bare routes only.
        ("GET", "/metrics") if model.is_none() => Routed::Done {
            status: 200,
            body: metrics(shared),
            content_type: CT_PROM,
            shutdown: false,
        },
        ("GET", "/debug/requests") if model.is_none() => {
            Routed::done(200, debug_requests(shared))
        }
        ("GET", p)
            if model.is_none()
                && (p == "/debug/trace" || p.starts_with("/debug/trace?")) =>
        {
            match parse_trace_ms(p.strip_prefix("/debug/trace").unwrap_or_default()) {
                Ok(ms) => blocking(shared, move || {
                    (200, pecan_obs::capture_window_json(Duration::from_millis(ms)))
                }),
                Err(e) => {
                    Routed::done(400, format!("{{\"error\":\"{}\"}}", json::escape(&e)))
                }
            }
        }
        ("POST", "/predict") => predict_route(shared, model, &request.body),
        ("POST", "/reload") => {
            let registry = Arc::clone(&shared.registry);
            let model = model.map(str::to_owned);
            blocking(shared, move || reload_route(&registry, model.as_deref()))
        }
        // Shutdown is server-wide: only the bare route exists.
        ("POST", "/shutdown") if model.is_none() => Routed::Done {
            status: 200,
            body: "{\"status\":\"shutting down\"}".into(),
            content_type: CT_JSON,
            shutdown: true,
        },
        ("GET" | "POST", _) => Routed::done(404, "{\"error\":\"no such route\"}".into()),
        _ => Routed::done(405, "{\"error\":\"method not allowed\"}".into()),
    }
}

/// Frees one [`MAX_BLOCKING`] slot when the job holding it is dropped:
/// after it ran, while a panic unwinds it, or unrun (a helper thread that
/// failed to spawn).
struct BlockingSlot(Arc<AtomicUsize>);

impl Drop for BlockingSlot {
    fn drop(&mut self) {
        // ordering: Relaxed — pairs with the claim in `blocking`. The
        // counter guards no other memory (each job owns its captures), so
        // only the RMW's atomicity matters.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Wraps `job` as a [`Routed::Blocking`] holding one of the
/// [`MAX_BLOCKING`] server-wide slots, or sheds the request with a `503`
/// when every slot is taken.
fn blocking(shared: &HttpShared, job: impl FnOnce() -> (u16, String) + Send + 'static) -> Routed {
    // ordering: Relaxed — pairs with the release in `BlockingSlot::drop`;
    // a counter of slots, publishing nothing, so atomicity suffices.
    let claimed = shared
        .blocking
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < MAX_BLOCKING).then_some(n + 1))
        .is_ok();
    if !claimed {
        shared.conn_stats.record_shed_request();
        return Routed::done(503, "{\"error\":\"too many blocking requests in flight\"}".into());
    }
    let slot = BlockingSlot(Arc::clone(&shared.blocking));
    Routed::Blocking(Box::new(move || {
        let _slot = slot;
        job()
    }))
}

pub(crate) fn error_response(e: &ServeError) -> (u16, String) {
    let status = match e {
        ServeError::BadInput(_) => 400,
        ServeError::UnknownModel(_) => 404,
        ServeError::Overloaded { .. } | ServeError::ShuttingDown => 503,
        _ => 500,
    };
    (status, format!("{{\"error\":\"{}\"}}", json::escape(&e.to_string())))
}

fn healthz(shared: &HttpShared, model: Option<&str>) -> (u16, String) {
    let entry = match shared.registry.resolve(model) {
        Ok(e) => e,
        Err(e) => return error_response(&e),
    };
    let models: Vec<String> = shared
        .registry
        .names()
        .iter()
        .map(|n| format!("\"{}\"", json::escape(n)))
        .collect();
    (
        200,
        format!(
            "{{\"status\":\"ok\",\"model\":\"{}\",\"input_len\":{},\"output_len\":{},\"models\":[{}]}}",
            json::escape(entry.name()),
            entry.runner().input_len(),
            entry.runner().output_len(),
            models.join(",")
        ),
    )
}

fn stats(shared: &HttpShared, model: Option<&str>) -> (u16, String) {
    match model {
        // Bare /stats: connection-tier counters plus every model's
        // scheduler counters, keyed by name.
        None => {
            let mut out = String::from("{\"default\":\"");
            out.push_str(&json::escape(shared.registry.default_model().name()));
            out.push_str("\",\"connections\":");
            out.push_str(&shared.conn_stats.snapshot().to_json());
            out.push_str(",\"models\":{");
            for (i, e) in shared.registry.entries().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json::escape(e.name()));
                out.push_str("\":");
                out.push_str(&e.stats().to_json());
            }
            out.push_str("}}");
            (200, out)
        }
        Some(_) => match shared.registry.resolve(model) {
            Ok(entry) => (200, entry.stats().to_json()),
            Err(e) => error_response(&e),
        },
    }
}

/// `POST /reload` and `POST /models/{name}/reload`: blue/green swap of one
/// model from its recorded snapshot source. Answers only once the new
/// engine is serving (or with the typed error that left the old one
/// serving untouched): `400` for a model with no file source, `404` for an
/// unknown name, `500` when the file no longer loads. Blocks while the
/// snapshot is read and decoded, so it runs as a [`Routed::Blocking`] job.
fn reload_route(registry: &EngineRegistry, model: Option<&str>) -> (u16, String) {
    match registry.reload(model) {
        Ok((entry, version)) => {
            crate::log_info!(
                "serve::http",
                "model reloaded",
                model = entry.name(),
                version = version,
            );
            (
                200,
                format!(
                    "{{\"status\":\"reloaded\",\"model\":\"{}\",\"version\":{version}}}",
                    json::escape(entry.name())
                ),
            )
        }
        Err(e) => error_response(&e),
    }
}

/// Renders every counter, gauge and distribution as one Prometheus text
/// exposition page: per-model request counters and latency/batch-size
/// histograms (with p50/p90/p99/p999 gauges derived from them), the
/// served engine's per-layer stage wall-time histograms, and the
/// connection-tier counters.
/// Served by `GET /metrics` on both front ends.
fn metrics(shared: &HttpShared) -> String {
    let entries = shared.registry.entries();
    let models: Vec<(&str, &crate::ServeStats, StatsSnapshot)> = entries
        .iter()
        .map(|e| (e.name(), e.serve_stats(), e.stats()))
        .collect();
    let mut page = PromText::new();

    let counter = |page: &mut PromText, name: &str, help: &str, f: &dyn Fn(&StatsSnapshot) -> u64| {
        page.family(name, PromKind::Counter, help);
        for (model, _, snap) in &models {
            page.sample(name, &[("model", model)], f(snap) as f64);
        }
    };
    counter(&mut page, "pecan_requests_submitted_total", "Requests accepted into a scheduler queue.", &|s| s.submitted);
    counter(&mut page, "pecan_requests_completed_total", "Requests answered successfully.", &|s| s.completed);
    counter(&mut page, "pecan_requests_rejected_total", "Requests refused by backpressure.", &|s| s.rejected);
    counter(&mut page, "pecan_requests_failed_total", "Requests answered with an engine error.", &|s| s.failed);
    counter(&mut page, "pecan_batches_total", "Batches executed.", &|s| s.batches);

    page.family("pecan_queue_depth", PromKind::Gauge, "Requests waiting in the scheduler queue.");
    for (i, (model, _, _)) in models.iter().enumerate() {
        page.sample("pecan_queue_depth", &[("model", model)], entries[i].queue_len() as f64);
    }

    let latency_family =
        |page: &mut PromText, name: &str, help: &str, f: &dyn Fn(&crate::ServeStats) -> &crate::Histogram| {
            page.family(name, PromKind::Histogram, help);
            for (model, stats, _) in &models {
                page.histogram(name, &[("model", model)], &f(stats).snapshot(), 1e-9);
            }
        };
    latency_family(&mut page, "pecan_request_latency_seconds", "Submit-to-answer latency.", &|s| s.latency_histogram());
    latency_family(&mut page, "pecan_queue_latency_seconds", "Time spent queued before the batch started.", &|s| s.queue_histogram());
    latency_family(&mut page, "pecan_infer_latency_seconds", "Batch-start-to-answer (inference + dispatch) latency.", &|s| s.infer_histogram());

    page.family("pecan_batch_size", PromKind::Histogram, "Requests per executed batch.");
    for (model, stats, _) in &models {
        page.histogram("pecan_batch_size", &[("model", model)], &stats.batch_size_histogram().snapshot(), 1.0);
    }

    page.family(
        "pecan_request_latency_quantile_seconds",
        PromKind::Gauge,
        "Latency quantiles precomputed from pecan_request_latency_seconds (upper bounds).",
    );
    for (model, stats, _) in &models {
        let snap = stats.latency_histogram().snapshot();
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
            page.sample(
                "pecan_request_latency_quantile_seconds",
                &[("model", model), ("quantile", label)],
                snap.quantile(q) as f64 * 1e-9,
            );
        }
    }

    page.family("pecan_stage_latency_seconds", PromKind::Histogram, "Per-batch wall time of each pipeline stage (layer) of the engine version being served.");
    for (entry, (model, _, _)) in entries.iter().zip(&models) {
        let runner = entry.runner();
        for (layer, (stage, hist)) in runner.stage_times().into_iter().enumerate() {
            let layer = layer.to_string();
            page.histogram(
                "pecan_stage_latency_seconds",
                &[("model", model), ("layer", &layer), ("stage", stage)],
                &hist.snapshot(),
                1e-9,
            );
        }
    }

    let conn = shared.conn_stats.snapshot();
    let conn_metric = |page: &mut PromText, name: &str, kind: PromKind, help: &str, v: u64| {
        page.family(name, kind, help);
        page.sample(name, &[], v as f64);
    };
    conn_metric(&mut page, "pecan_connections_accepted_total", PromKind::Counter, "Connections admitted past the cap check.", conn.accepted);
    conn_metric(&mut page, "pecan_connections_closed_total", PromKind::Counter, "Connections fully torn down.", conn.closed);
    conn_metric(&mut page, "pecan_connections_active", PromKind::Gauge, "Connections currently open.", conn.active);
    page.family("pecan_connections_state", PromKind::Gauge, "Open connections by front-end state.");
    for (state, v) in [("reading", conn.reading), ("handling", conn.handling), ("writing", conn.writing)] {
        page.sample("pecan_connections_state", &[("state", state)], v as f64);
    }
    conn_metric(&mut page, "pecan_http_requests_total", PromKind::Counter, "Requests answered: parsed, or refused as malformed or cut off mid-request.", conn.requests);
    conn_metric(&mut page, "pecan_http_responses_total", PromKind::Counter, "Responses to those requests handed on to sockets; equals pecan_http_requests_total at rest.", conn.responses);
    conn_metric(&mut page, "pecan_inflight_requests", PromKind::Gauge, "Requests submitted to a scheduler and not yet answered.", conn.inflight);
    conn_metric(&mut page, "pecan_timeouts_total", PromKind::Counter, "Connections cut off at the read deadline mid-request (answered 408) or as stalled readers.", conn.timeouts);
    conn_metric(&mut page, "pecan_shed_connections_total", PromKind::Counter, "Connections refused at the connection cap.", conn.shed_connections);
    conn_metric(&mut page, "pecan_shed_requests_total", PromKind::Counter, "Requests refused by load-aware shedding.", conn.shed_requests);
    conn_metric(&mut page, "pecan_flight_records_total", PromKind::Counter, "Request spans written to the flight recorder.", shared.recorder.recorded());

    page.finish()
}

/// Renders the flight recorder's newest spans as JSON for
/// `GET /debug/requests`: who (request ID, connection generation, model),
/// what (status, batch ID and size) and how long each leg took.
fn debug_requests(shared: &HttpShared) -> String {
    let entries = shared.registry.entries();
    let mut out = format!(
        "{{\"capacity\":{},\"recorded\":{},\"requests\":[",
        shared.recorder.capacity(),
        shared.recorder.recorded()
    );
    for (i, r) in shared.recorder.dump().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let model = entries
            .get(r.model as usize)
            .map_or("null".to_string(), |e| format!("\"{}\"", json::escape(e.name())));
        out.push_str(&format!(
            "{{\"id\":{},\"conn_gen\":{},\"model\":{model},\"status\":{},\
             \"batch_id\":{},\"batch_size\":{},\"queue_us\":{},\"infer_us\":{},\
             \"total_us\":{},\"t_us\":{}}}",
            r.id, r.conn_gen, r.status, r.batch_id, r.batch_size, r.queue_us, r.infer_us,
            r.total_us, r.t_us,
        ));
    }
    out.push_str("]}");
    out
}

/// Longest accepted `/debug/trace` capture window: the capture ties down
/// a thread (threaded front end: the connection's handler; event loop: a
/// helper) for the whole window, so it is bounded well under any
/// plausible read timeout.
const TRACE_MS_MAX: u64 = 10_000;
/// `/debug/trace` window when `?ms=` is absent.
const TRACE_MS_DEFAULT: u64 = 200;

/// Parses the `?ms=N` query of `/debug/trace` (input: `""`, `"?..."`).
/// Absent `ms` falls back to [`TRACE_MS_DEFAULT`].
fn parse_trace_ms(query: &str) -> Result<u64, String> {
    for kv in query.trim_start_matches('?').split('&') {
        if let Some(v) = kv.strip_prefix("ms=") {
            return v
                .parse::<u64>()
                .ok()
                .filter(|&ms| (1..=TRACE_MS_MAX).contains(&ms))
                .ok_or_else(|| format!("ms must be an integer in [1, {TRACE_MS_MAX}]"));
        }
    }
    Ok(TRACE_MS_DEFAULT)
}

/// The queue depth at which load-aware shedding starts for a scheduler of
/// `capacity`: [`SHED_FRACTION`] of it, at least 1 so a capacity-1 queue
/// still sheds instead of hard-rejecting.
fn shed_threshold(capacity: usize) -> usize {
    ((capacity as f64 * SHED_FRACTION) as usize).max(1)
}

fn predict_route(shared: &HttpShared, model: Option<&str>, body: &[u8]) -> Routed {
    let idx = match shared.registry.resolve_index(model) {
        Ok(i) => i,
        Err(e) => {
            let (status, body) = error_response(&e);
            return Routed::done(status, body);
        }
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return Routed::done(400, "{\"error\":\"body is not UTF-8\"}".into());
    };
    let input = match json::parse_f32_array(text) {
        Ok(v) => v,
        Err(e) => {
            return Routed::done(400, format!("{{\"error\":\"{}\"}}", json::escape(&e)));
        }
    };
    // Load-aware shedding: refuse *before* the scheduler's hard queue
    // bound so the reject is cheap and the queue keeps headroom for
    // requests already past routing.
    let entry = shared.registry.entry(idx);
    let capacity = entry.config().queue_capacity;
    if entry.queue_len() >= shed_threshold(capacity) {
        shared.conn_stats.record_shed_request();
        let (status, body) = error_response(&ServeError::Overloaded { capacity });
        return Routed::done(status, body);
    }
    Routed::Predict { idx, input }
}

/// Renders one successful prediction exactly as the HTTP API promises.
pub(crate) fn prediction_body(p: &Prediction) -> String {
    format!(
        "{{\"output\":{},\"latency_us\":{},\"batch_size\":{}}}",
        json::format_f32_array(&p.output),
        p.total.as_micros(),
        p.batch_size
    )
}

/// `(status, body)` for a finished inference, success or failure.
pub(crate) fn prediction_parts(result: &Result<Prediction, ServeError>) -> (u16, String) {
    match result {
        Ok(p) => (200, prediction_body(p)),
        Err(e) => error_response(e),
    }
}

/// The JSON body of a response that carries only its status: the cap
/// `503` and the refusals.
fn error_body(status: u16) -> String {
    format!("{{\"error\":\"{}\"}}", reason(status))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Encodes one complete response. Every response of both front ends is
/// encoded here, through the protocol core, which is what makes them
/// byte-identical on the wire. Every `503` carries `Retry-After: 1` —
/// shed or hard-rejected, the client's correct move is the same.
fn encode_response(status: u16, content_type: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let retry = if status == 503 { "Retry-After: 1\r\n" } else { "" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry}Connection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_prefix_splitting() {
        assert_eq!(split_model("/predict"), (None, "/predict"));
        assert_eq!(split_model("/models/mlp/predict"), (Some("mlp"), "/predict"));
        assert_eq!(split_model("/models/a-b.c/healthz"), (Some("a-b.c"), "/healthz"));
        // no inner slash → not a model route, falls through to 404
        assert_eq!(split_model("/models/mlp"), (None, "/models/mlp"));
    }

    #[test]
    fn reasons_cover_used_statuses() {
        for s in [200, 400, 404, 405, 408, 413, 431, 500, 503] {
            assert_ne!(reason(s), "Unknown");
        }
    }

    #[test]
    fn trace_ms_parsing_defaults_and_bounds() {
        assert_eq!(parse_trace_ms(""), Ok(TRACE_MS_DEFAULT));
        assert_eq!(parse_trace_ms("?"), Ok(TRACE_MS_DEFAULT));
        assert_eq!(parse_trace_ms("?ms=50"), Ok(50));
        assert_eq!(parse_trace_ms("?foo=1&ms=250"), Ok(250));
        assert_eq!(parse_trace_ms("?foo=1"), Ok(TRACE_MS_DEFAULT));
        assert!(parse_trace_ms("?ms=0").is_err());
        assert!(parse_trace_ms("?ms=99999").is_err());
        assert!(parse_trace_ms("?ms=abc").is_err());
    }

    #[test]
    fn shed_threshold_floors_at_one() {
        assert_eq!(shed_threshold(256), 230);
        assert_eq!(shed_threshold(1), 1, "capacity-1 queues still shed");
    }

    #[test]
    fn encode_response_framing_and_retry_after() {
        let ok = encode_response(200, CT_JSON, "{}", true);
        let text = String::from_utf8(ok).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Retry-After"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let shed = String::from_utf8(encode_response(503, CT_JSON, "{}", false)).unwrap();
        assert!(shed.contains("Retry-After: 1\r\n"));
        assert!(shed.contains("Connection: close\r\n"));
    }
}
