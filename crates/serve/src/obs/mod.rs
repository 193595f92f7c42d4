//! Serving observability: a request flight recorder and Prometheus text
//! export, on top of the workspace-wide substrate in [`pecan_obs`].
//!
//! The general-purpose primitives live in [`pecan_obs`] and are
//! re-exported here ([`hist`], [`log`], [`Histogram`],
//! [`HistogramSnapshot`], [`Level`]); the
//! [`log_error!`](crate::log_error) … [`log_trace!`](crate::log_trace)
//! macros are re-exported at the crate root. Serve-only:
//!
//! - [`recorder`] — [`FlightRecorder`] keeping the newest N
//!   per-request [`TraceRecord`] spans in a [`pecan_obs::SeqRing`] (the
//!   seqlock ring the span tracer uses), dumped by `/debug/requests`.
//!   Its request ids double as the `args.id` of `serve.request` spans in
//!   `/debug/trace` captures, joining the two views.
//! - [`metrics`] — [`PromText`](metrics::PromText) renders every
//!   counter, gauge and histogram in Prometheus text exposition format
//!   for the `/metrics` route served by both front ends, including the
//!   per-layer stage times each engine records through
//!   [`pecan_obs::timed_span`] ([`crate::FrozenEngine::stage_times`]).
//!
//! Everything on the hot path stays std-only and allocation-free.

pub use pecan_obs::hist;
pub use pecan_obs::log;
pub mod metrics;
pub mod recorder;

pub use hist::{Histogram, HistogramSnapshot};
pub use log::Level;
pub use recorder::{FlightRecorder, TraceRecord, NO_MODEL};
