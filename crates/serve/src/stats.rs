//! Lock-free serving counters: per-request latency accounting aggregated
//! across scheduler workers, exported by the HTTP front end's `/stats`
//! and (with full distributions) by `/metrics`.

use crate::obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters plus latency/batch-size [`Histogram`]s, updated by
/// the scheduler with relaxed atomics — the hot path never takes a lock
/// to account a request.
///
/// The histograms record in nanoseconds (latencies) and requests
/// (batch size). A completed request is recorded once, into the
/// histograms; [`StatsSnapshot`]'s `completed`, means and maximum latency
/// are read back from their counts, sums and maxima. Per-stage wall time
/// lives with the engine that ran it (`FrozenEngine::stage_times`), not
/// here.
#[derive(Debug, Default)]
pub struct ServeStats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    /// Mints the batch IDs; equals `batch_size`'s count.
    batches: AtomicU64,
    latency: Histogram,
    queue: Histogram,
    infer: Histogram,
    batch_size: Histogram,
}

impl ServeStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one executed batch and returns its batch ID (1-based,
    /// unique per scheduler) for request tracing.
    pub(crate) fn record_batch(&self, size: usize) -> u64 {
        let id = self.batches.fetch_add(1, Ordering::Relaxed) + 1;
        self.batch_size.record(size as u64);
        id
    }

    pub(crate) fn record_completed(&self, queue_ns: u64, total_ns: u64) {
        self.latency.record(total_ns);
        self.queue.record(queue_ns);
        self.infer.record(total_ns.saturating_sub(queue_ns));
    }

    pub(crate) fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Submit→answer latency distribution, nanoseconds.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// Queue-wait distribution, nanoseconds.
    pub fn queue_histogram(&self) -> &Histogram {
        &self.queue
    }

    /// Batch-start→answer (inference + dispatch) distribution, ns.
    pub fn infer_histogram(&self) -> &Histogram {
        &self.infer
    }

    /// Requests-per-executed-batch distribution.
    pub fn batch_size_histogram(&self) -> &Histogram {
        &self.batch_size
    }

    /// Coherent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let latency = self.latency.snapshot();
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: latency.count(),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            mean_batch: self.batch_size.snapshot().mean(),
            mean_queue_us: self.queue.snapshot().mean() / 1_000.0,
            mean_latency_us: latency.mean() / 1_000.0,
            max_latency_us: latency.max() / 1_000,
            p50_latency_us: latency.quantile(0.50) / 1_000,
            p90_latency_us: latency.quantile(0.90) / 1_000,
            p99_latency_us: latency.quantile(0.99) / 1_000,
            p999_latency_us: latency.quantile(0.999) / 1_000,
        }
    }
}

/// One reading of [`ServeStats`], ready for display or JSON export.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests refused by backpressure (queue full).
    pub rejected: u64,
    /// Requests answered with an engine error.
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean requests per executed batch.
    pub mean_batch: f64,
    /// Mean time a request waited in the queue before its batch started.
    pub mean_queue_us: f64,
    /// Mean submit→answer latency.
    pub mean_latency_us: f64,
    /// Worst submit→answer latency.
    pub max_latency_us: u64,
    /// Median submit→answer latency (histogram upper bound).
    pub p50_latency_us: u64,
    /// 90th-percentile submit→answer latency (histogram upper bound).
    pub p90_latency_us: u64,
    /// 99th-percentile submit→answer latency (histogram upper bound).
    pub p99_latency_us: u64,
    /// 99.9th-percentile submit→answer latency (histogram upper bound).
    pub p999_latency_us: u64,
}

impl StatsSnapshot {
    /// Renders the snapshot as a flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"completed\":{},\"rejected\":{},\"failed\":{},\
             \"batches\":{},\"mean_batch\":{:.3},\"mean_queue_us\":{:.1},\
             \"mean_latency_us\":{:.1},\"max_latency_us\":{},\
             \"p50_latency_us\":{},\"p90_latency_us\":{},\
             \"p99_latency_us\":{},\"p999_latency_us\":{}}}",
            self.submitted,
            self.completed,
            self.rejected,
            self.failed,
            self.batches,
            self.mean_batch,
            self.mean_queue_us,
            self.mean_latency_us,
            self.max_latency_us,
            self.p50_latency_us,
            self.p90_latency_us,
            self.p99_latency_us,
            self.p999_latency_us,
        )
    }
}

/// The state of one front-end connection, used as the gauge key in
/// [`ConnStats`]. A connection has one request in flight on either front
/// end, so it is in exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnTag {
    /// No request in flight: parsing the next one, or waiting for its
    /// bytes.
    Reading,
    /// The request's inference or blocking job has not answered yet.
    Handling,
    /// The response is not yet flushed to the socket.
    Writing,
}

/// Connection-tier counters for the HTTP front end, exported under the
/// `"connections"` key of the bare `/stats` route and as gauges under
/// `/metrics`.
///
/// Both front ends maintain every field — lifecycle counters
/// (`accepted`/`closed`/`requests`/`responses`/`timeouts`/`shed_*`) and
/// the per-state gauges (`reading`/`handling`/`writing`) plus
/// `inflight`. In the event loop a connection's tag is its state; in the
/// threaded front end each connection thread retags itself around the
/// blocking predict and write calls, so on both `handling` counts
/// connections waiting on a scheduler or blocking job and `writing`
/// counts connections mid-flush.
#[derive(Debug, Default)]
pub struct ConnStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    active: AtomicU64,
    reading: AtomicU64,
    handling: AtomicU64,
    writing: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    inflight: AtomicU64,
    timeouts: AtomicU64,
    shed_connections: AtomicU64,
    shed_requests: AtomicU64,
}

impl ConnStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connections currently open (gauge).
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    fn gauge(&self, tag: ConnTag) -> &AtomicU64 {
        match tag {
            ConnTag::Reading => &self.reading,
            ConnTag::Handling => &self.handling,
            ConnTag::Writing => &self.writing,
        }
    }

    pub(crate) fn record_accepted(&self, tag: ConnTag) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
        self.gauge(tag).fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_closed(&self, tag: ConnTag) {
        self.closed.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.gauge(tag).fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retag(&self, from: ConnTag, to: ConnTag) {
        if from != to {
            self.gauge(from).fetch_sub(1, Ordering::Relaxed);
            self.gauge(to).fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_response(&self) {
        self.responses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inflight_add(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inflight_sub(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed_connection(&self) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed_request(&self) {
        self.shed_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Coherent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> ConnStatsSnapshot {
        ConnStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            reading: self.reading.load(Ordering::Relaxed),
            handling: self.handling.load(Ordering::Relaxed),
            writing: self.writing.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
        }
    }
}

/// One reading of [`ConnStats`], ready for display or JSON export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnStatsSnapshot {
    /// Connections admitted past the cap check.
    pub accepted: u64,
    /// Connections fully torn down.
    pub closed: u64,
    /// Connections currently open (gauge; `accepted - closed`).
    pub active: u64,
    /// Connections waiting for request bytes (gauge).
    pub reading: u64,
    /// Connections with an inference in flight (gauge).
    pub handling: u64,
    /// Connections with unflushed response bytes (gauge).
    pub writing: u64,
    /// Requests the front end answered, each counted once when it was
    /// parsed — or refused: malformed (`400`/`413`/`431`) or cut off
    /// mid-request (`400` at EOF, `408` at the read deadline).
    pub requests: u64,
    /// Responses to those requests, each counted once when the front end
    /// hands its bytes on: the threaded front end after its write, the
    /// event loop when they enter the connection's write buffer (or when
    /// the answer arrives for a connection that has already gone). At
    /// rest, on both front ends, `responses == requests`.
    pub responses: u64,
    /// Requests submitted to a scheduler and not yet answered (gauge).
    pub inflight: u64,
    /// Connections cut off at the read deadline mid-request (each also
    /// answered `408`) and, on the event loop, stalled readers cut off
    /// with a write backlog. An idle connection closed between requests
    /// is not counted.
    pub timeouts: u64,
    /// Connections refused with `503` at the connection cap.
    pub shed_connections: u64,
    /// Requests refused with `503` by load-aware shedding.
    pub shed_requests: u64,
}

impl ConnStatsSnapshot {
    /// Renders the snapshot as a flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"closed\":{},\"active\":{},\"reading\":{},\
             \"handling\":{},\"writing\":{},\"requests\":{},\"responses\":{},\
             \"inflight\":{},\"timeouts\":{},\"shed_connections\":{},\
             \"shed_requests\":{}}}",
            self.accepted,
            self.closed,
            self.active,
            self.reading,
            self.handling,
            self.writing,
            self.requests,
            self.responses,
            self.inflight,
            self.timeouts,
            self.shed_connections,
            self.shed_requests,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_counters_track_lifecycle_and_gauges() {
        let stats = ConnStats::new();
        stats.record_accepted(ConnTag::Reading);
        stats.record_accepted(ConnTag::Reading);
        stats.record_retag(ConnTag::Reading, ConnTag::Handling);
        stats.record_retag(ConnTag::Handling, ConnTag::Handling); // no-op
        stats.record_request();
        stats.inflight_add();
        stats.record_retag(ConnTag::Handling, ConnTag::Writing);
        stats.inflight_sub();
        stats.record_response();
        stats.record_shed_request();
        stats.record_shed_connection();
        stats.record_timeout();
        stats.record_closed(ConnTag::Writing);
        let snap = stats.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.closed, 1);
        assert_eq!(snap.active, 1);
        assert_eq!(stats.active(), 1);
        assert_eq!(snap.reading, 1);
        assert_eq!(snap.handling, 0);
        assert_eq!(snap.writing, 0);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.responses, 1);
        assert_eq!(snap.inflight, 0);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.shed_connections, 1);
        assert_eq!(snap.shed_requests, 1);
        let json = snap.to_json();
        assert!(json.contains("\"active\":1"));
        assert!(json.contains("\"shed_requests\":1"));
    }

    #[test]
    fn counters_aggregate_and_export() {
        let stats = ServeStats::new();
        stats.record_submitted();
        stats.record_submitted();
        stats.record_rejected();
        stats.record_batch(2);
        stats.record_completed(1_000, 3_000);
        stats.record_completed(2_000, 5_000);
        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.batches, 1);
        assert!((snap.mean_batch - 2.0).abs() < 1e-9);
        assert!((snap.mean_queue_us - 1.5).abs() < 1e-9);
        assert!((snap.mean_latency_us - 4.0).abs() < 1e-9);
        assert_eq!(snap.max_latency_us, 5);
        // Quantiles come from the histogram: upper bounds, never below
        // the true order statistic, clamped to the recorded max.
        assert!(snap.p50_latency_us >= 3 && snap.p50_latency_us <= 5);
        assert_eq!(snap.p99_latency_us, 5);
        let json = snap.to_json();
        assert!(json.contains("\"completed\":2"));
        assert!(json.contains("\"mean_batch\":2.000"));
        assert!(json.contains("\"p99_latency_us\":5"));
    }

    #[test]
    fn batch_ids_count_from_one() {
        let stats = ServeStats::new();
        assert_eq!(stats.record_batch(3), 1);
        assert_eq!(stats.record_batch(1), 2);
        assert_eq!(stats.batch_size_histogram().count(), 2);
    }
}
