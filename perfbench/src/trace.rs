//! In-memory spans around the benchmark's own calls into each layer,
//! written once at the end as Chrome trace-event JSON (opens in
//! Perfetto, `ui.perfetto.dev`, or `chrome://tracing`).

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; later spans are counted but dropped, so a long
/// traced run cannot grow without bound.
const MAX_SPANS: usize = 400_000;

struct Span {
    name: String,
    tid: u32,
    start_us: f64,
    dur_us: f64,
    id: u64,
}

/// A span sink shared by every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU32,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            // ordering: Relaxed — a unique small integer per thread, no
            // data published through it.
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// An empty sink; span timestamps count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU32::new(0),
        }
    }

    /// Records a completed span `[start, end)` on the calling thread.
    /// `id` groups the spans of one request or batch.
    pub fn record(&self, name: &str, start: Instant, end: Instant, id: u64) {
        let mut spans = self
            .spans
            .lock()
            .expect("tracer lock poisoned by a panicking thread");
        if spans.len() >= MAX_SPANS {
            // ordering: Relaxed — a statistic.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(Span {
            name: name.to_string(),
            tid: tid(),
            start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            id,
        });
    }

    /// Writes every recorded span as trace-event JSON to `path`; returns
    /// the span count written.
    ///
    /// # Errors
    ///
    /// The file system error.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self
            .spans
            .lock()
            .expect("tracer lock poisoned by a panicking thread");
        let mut out = String::with_capacity(spans.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}",
                s.name, s.tid, s.start_us, s.dur_us, s.id
            );
        }
        // ordering: Relaxed — a statistic read after every writer joined.
        let _ = write!(
            out,
            "],\"otherData\":{{\"dropped_spans\":{}}}}}",
            self.dropped.load(Ordering::Relaxed)
        );
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}
