//! Bounded lock-free ring-buffer flight recorder for per-request spans.
//!
//! The newest N completed requests are kept in fixed memory and dumped by
//! the `/debug/requests` route. The records live in a
//! [`pecan_obs::SeqRing`], the seqlock ring the span tracer also uses:
//! recording never blocks a request and never allocates, readers skip
//! slots caught mid-write, and under wrap-around the oldest records are
//! overwritten — this is a flight recorder, not an audit log.

use pecan_obs::SeqRing;
use std::time::Instant;

/// `model` value for records not tied to a model: admin routes, requests
/// answered before reaching one (unknown route or model, a body that is
/// not JSON, shed), and refusals of malformed or cut-off requests.
pub const NO_MODEL: u64 = u64::MAX;

/// One completed request span: who, where, and how long each leg took.
///
/// All fields are plain integers so the record can live in atomic slots;
/// the `/debug/requests` dump resolves `model` to a name. Times are in
/// microseconds; zero means "leg not applicable" (e.g. a request that
/// never reached a scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Request ID, minted at parse time, unique per server.
    pub id: u64,
    /// Generation tag of the connection the request arrived on.
    pub conn_gen: u64,
    /// Registry index of the model that served it, or [`NO_MODEL`].
    pub model: u64,
    /// HTTP status of the response.
    pub status: u64,
    /// ID of the batch the request rode in (0 when it never batched).
    pub batch_id: u64,
    /// Size of that batch.
    pub batch_size: u64,
    /// Time spent queued before its batch started, µs.
    pub queue_us: u64,
    /// Time from batch start to answer (inference + dispatch), µs.
    pub infer_us: u64,
    /// Submit→answer latency, µs.
    pub total_us: u64,
    /// Completion timestamp, µs since the recorder was created.
    pub t_us: u64,
}

const FIELDS: usize = 10;

impl TraceRecord {
    fn to_words(self) -> [u64; FIELDS] {
        [
            self.id,
            self.conn_gen,
            self.model,
            self.status,
            self.batch_id,
            self.batch_size,
            self.queue_us,
            self.infer_us,
            self.total_us,
            self.t_us,
        ]
    }

    fn from_words(w: [u64; FIELDS]) -> Self {
        Self {
            id: w[0],
            conn_gen: w[1],
            model: w[2],
            status: w[3],
            batch_id: w[4],
            batch_size: w[5],
            queue_us: w[6],
            infer_us: w[7],
            total_us: w[8],
            t_us: w[9],
        }
    }
}

/// Fixed-capacity, lock-free ring buffer of [`TraceRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: SeqRing<FIELDS>,
    start: Instant,
}

impl FlightRecorder {
    /// Recorder keeping the newest `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        Self { ring: SeqRing::new(capacity), start: Instant::now() }
    }

    /// Microseconds since the recorder was created — the time base of
    /// [`TraceRecord::t_us`].
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Total records ever written (not capped by capacity).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Appends one record. Lock-free and allocation-free; any number of
    /// threads may record at once.
    pub fn record(&self, record: &TraceRecord) {
        self.ring.push(record.to_words());
    }

    /// Copies out every consistent record, oldest first. Slots caught
    /// mid-write (or overwritten while being read) are skipped rather
    /// than returned torn.
    pub fn dump(&self) -> Vec<TraceRecord> {
        self.ring.read().into_iter().map(TraceRecord::from_words).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_newest_capacity_records_in_order() {
        let rec = |id| TraceRecord {
            id,
            conn_gen: id * 7,
            model: 0,
            status: 200,
            batch_id: id / 3,
            batch_size: 2,
            queue_us: 10,
            infer_us: 20,
            total_us: 31,
            t_us: id,
        };
        let r = FlightRecorder::new(4);
        (0..10).for_each(|id| r.record(&rec(id)));
        // Every field survives the trip through the ring's words.
        assert_eq!(r.dump(), (6..10).map(rec).collect::<Vec<_>>());
        assert_eq!((r.recorded(), r.capacity()), (10, 4));
    }
}
