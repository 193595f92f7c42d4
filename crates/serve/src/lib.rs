//! Model serving for PECAN: the Algorithm-1 inference path as a
//! production-shaped subsystem.
//!
//! The paper's value proposition is *inference* — CAM searches plus LUT
//! reads with no dense arithmetic — and this crate turns that path into a
//! server. Six layers, each usable on its own:
//!
//! 1. **Batch-first pipeline** — the whole batch flows as **one**
//!    column-major [`pecan_core::InferBatch`] matrix through a sequence of
//!    [`Stage`]s (LUT conv, LUT linear, ReLU, pooling, flatten). No
//!    per-sample split/rejoin happens between stages, so consecutive
//!    table-lookup layers keep the lane-blocked `pecan-index` scan kernel fed
//!    with matrices as wide as the batch.
//! 2. **[`FrozenEngine`]** — an immutable compiled inference plan:
//!    per-layer [`pecan_core::LayerLut`]s and im2col geometry precomputed
//!    once from a trained model, then shared lock-free (`Arc`) across any
//!    number of threads. [`FrozenEngine::infer`] is the batch-matrix entry
//!    point; [`FrozenEngine::predict`] / [`FrozenEngine::predict_batch`]
//!    remain as sample-shaped shims with bit-identical results.
//! 3. **Model snapshots** — one endian-stable binary format, version 3
//!    (normative spec: `docs/snapshot-format.md`). It lays the weights
//!    out in 64-byte-aligned little-endian sections with a
//!    header-resident directory and per-section CRC-32s, so
//!    [`FrozenEngine::open_snapshot`] can **memory-map** the file and
//!    serve straight from page cache — cold start is a header parse, not
//!    a copy, no matter the model size. The copying loader
//!    ([`FrozenEngine::load_snapshot`]) runs the same decoder and
//!    verifies every checksum; the `snapshot-tool` binary inspects and
//!    verifies files.
//! 4. **[`BatchScheduler`]** — micro-batching over a bounded queue:
//!    persistent workers take what is queued, up to `max_batch` requests,
//!    and run it at once through the engine's batch kernels;
//!    a full queue rejects with [`ServeError::Overloaded`] (backpressure),
//!    and shutdown drains every accepted request.
//! 5. **[`EngineRegistry`] + [`Server`]** — multi-model serving with a
//!    zero-downtime lifecycle: any number of snapshots side by side, each
//!    with its own scheduler and counters, routed by a std-only HTTP/1.1
//!    front end (`/models/{name}/predict`, bare `/predict` for the
//!    default model, `/healthz`, `/stats`, `/reload`, `/shutdown`) plus
//!    the `serve` and `loadgen` binaries. Models can be **hot-registered**
//!    and **blue/green reloaded** while serving (`POST
//!    /models/{name}/reload`, [`ModelEntry::reload_from_source`], or the
//!    `--model-dir` directory watcher): each model keeps one scheduler,
//!    and a reload swaps the engine inside it — new requests go to the
//!    new engine, queued ones are answered by the engine that admitted
//!    them, so no request is dropped and counters carry across versions.
//!    Two interchangeable front ends share one parser, router and
//!    protocol core (admission, request counting, flight-recorder
//!    records, refusals, response encoding): portable
//!    thread-per-connection, and an epoll **event
//!    loop** ([`ServerConfig::event_loop`], Linux `x86_64`/`aarch64` —
//!    see [`event_loop_supported`]) that multiplexes thousands of
//!    non-blocking sockets on one thread with completion wakeups from the
//!    scheduler, per-connection idle deadlines, a connection cap, and
//!    load-aware `503` shedding ([`ConnStatsSnapshot`] under the
//!    `"connections"` key of `/stats`).
//! 6. **Observability** ([`obs`]) — lock-free instruments on the hot
//!    path: log-bucketed latency [`Histogram`]s (queue / inference /
//!    total and batch size per model, plus each engine's per-layer stage
//!    wall time, [`FrozenEngine::stage_times`], fed by the same
//!    [`pecan_obs::timed_span`] that traces the stage), a bounded
//!    [`FlightRecorder`] holding the newest request spans
//!    (`GET /debug/requests`), a `PECAN_LOG`-leveled logfmt stderr
//!    logger, and a Prometheus text exposition at `GET /metrics` served
//!    identically by both front ends.
//!
//! # Quickstart
//!
//! ```
//! use pecan_serve::{EngineRegistry, SchedulerConfig, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! // Compile two (demo) models and serve them side by side.
//! let registry = EngineRegistry::new();
//! registry.register(Arc::new(pecan_serve::demo::mlp_engine(1)),
//!                   SchedulerConfig::default()).unwrap();
//! registry.register(Arc::new(pecan_serve::demo::lenet_engine(1)),
//!                   SchedulerConfig::default()).unwrap();
//! let server = Server::start_registry(registry, ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! // POST /predict            → the default model ("mlp", first registered)
//! // POST /models/lenet/predict → the other one
//! server.stop(); // graceful: drains queued requests of every model
//! ```
//!
//! Or from the command line:
//!
//! ```text
//! cargo run --release -p pecan-serve --bin serve -- --demo mlp --save mlp.psnp
//! cargo run --release -p pecan-serve --bin serve -- --demo lenet --save lenet.psnp
//! cargo run --release -p pecan-serve --bin serve -- \
//!     --snapshot mlp.psnp --model lenet=lenet.psnp --addr 127.0.0.1:7878
//! cargo run --release -p pecan-serve --bin loadgen -- \
//!     --addr 127.0.0.1:7878 --model lenet --connections 8 --requests 400
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod demo;
mod engine;
mod error;
mod http;
pub mod json;
mod mapped;
pub mod obs;
mod registry;
mod scheduler;
mod snapshot;
mod stage;
mod stats;
mod watcher;

pub use engine::FrozenEngine;
pub use error::{ServeError, SnapshotError};
pub use http::parser::{ParseError, Request, RequestParser};
pub use http::{event_loop_supported, Server, ServerConfig};
pub use mapped::mmap_supported;
pub use obs::{FlightRecorder, Histogram, HistogramSnapshot, TraceRecord};
// The logfmt macros live in `pecan-obs`; re-exported so callers write
// `pecan_serve::log_error!` and this crate writes `crate::log_warn!`.
pub use pecan_obs::{log_at, log_debug, log_error, log_info, log_trace, log_warn};
pub use registry::{EngineRegistry, LoadMode, ModelEntry, ModelSource};
pub use scheduler::{BatchRunner, BatchScheduler, Complete, Prediction, SchedulerConfig, Ticket};
pub use snapshot::{
    crc32, inspect_snapshot_bytes, SectionInfo, SnapshotInfo, SECTION_ALIGN, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use stage::{
    FlattenStage, GlobalAvgPoolStage, LutConvStage, LutLinearStage, MaxPoolStage, ReluStage,
    Stage,
};
pub use stats::{ConnStats, ConnStatsSnapshot, ServeStats, StatsSnapshot};
pub use watcher::{ModelWatcher, WatcherConfig};

/// Poison-tolerant lock, the one every module of this crate uses: a
/// thread that panicked while holding a mutex must not wedge every
/// client after it.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
