//! # pecan-obs — observability substrate for the PECAN workspace
//!
//! Every compute crate in the workspace (tensor, index, cam, core,
//! serve, bench) depends on this one, so it is deliberately std-only
//! and tiny. It provides six things:
//!
//! 1. **Span tracing** ([`span()`], [`span_with_id`], [`timed_span`],
//!    [`SpanGuard`]): hierarchical wall/CPU/allocation-attributed
//!    regions recorded into lock-free per-thread rings, behind a
//!    process-wide enable flag ([`set_tracing`]) so disabled tracing
//!    costs one relaxed atomic load; a timed span also feeds a
//!    [`Histogram`]. See [`span`](mod@crate::span) for the model.
//! 2. **Chrome trace export** ([`chrome`]): captures render as
//!    Perfetto-compatible trace-event JSON via [`capture_window_json`]
//!    (the `/debug/trace?ms=N` route) and [`dump_all_json`]
//!    (`serve --trace-file`).
//! 3. **Per-thread CPU time** ([`clock`]): raw
//!    `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` syscall so spans split
//!    wall time from CPU time and blocking becomes visible.
//! 4. **Allocation counting** ([`PecanAlloc`], [`alloc_counts`]): an
//!    opt-in `#[global_allocator]` that tallies per-thread
//!    allocations, used by tests to assert allocation-free hot paths
//!    and by spans to attribute allocs per region.
//! 5. **Serving primitives hoisted from `pecan-serve`**: the lock-free
//!    [`Histogram`] and the logfmt [`log`] macros, re-exported from
//!    `pecan_serve::obs` unchanged so existing paths keep working.
//! 6. **The seqlock ring** ([`SeqRing`]) behind both the span rings and
//!    `pecan-serve`'s request flight recorder.
//!
//! ## Instrumenting code
//!
//! ```
//! fn hot_region() {
//!     let _span = pecan_obs::span("my.region");
//!     // ... work measured until `_span` drops ...
//! }
//!
//! pecan_obs::set_tracing(true);
//! hot_region();
//! pecan_obs::set_tracing(false);
//! let trace_json = pecan_obs::chrome::dump_all_json();
//! assert!(trace_json.contains("my.region"));
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod alloc;
pub mod chrome;
pub mod clock;
pub mod hist;
pub mod log;
pub mod ring;
pub mod span;

pub use alloc::{alloc_counts, PecanAlloc};
pub use chrome::{capture_window_json, dump_all_json};
pub use clock::{thread_cpu_ns, thread_cpu_supported};
pub use hist::{Histogram, HistogramSnapshot};
pub use log::Level;
pub use ring::SeqRing;
pub use span::{
    now_ns, set_tracing, span, span_with_id, timed_span, tracing_enabled, SpanGuard, SpanRecord,
};
