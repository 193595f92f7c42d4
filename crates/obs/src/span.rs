//! Hierarchical span tracing: thread-local span stacks writing completed
//! spans into lock-free per-thread ring buffers.
//!
//! # Hot-path contract
//!
//! Tracing is off by default. [`span`] starts by loading one process-wide
//! atomic flag with `Ordering::Relaxed`; when the flag is clear it
//! returns an inert guard and touches nothing else — no thread-local, no
//! clock, no allocation. That single load is the entire cost the
//! instrumented kernels (GEMM, index scans, im2col, the scheduler) pay
//! in production. A [`timed_span`] also reads the wall clock twice to
//! feed its histogram, traced or not.
//!
//! # Recording model
//!
//! When tracing is on, a [`SpanGuard`] snapshots wall time, per-thread
//! CPU time ([`crate::clock`]) and the allocation counters
//! ([`crate::alloc_counts`]) at construction, and on drop writes **one
//! completed-span record** into its thread's ring buffer. Begin/end
//! events are synthesized at export time from the complete record, which
//! makes every exported capture balanced by construction — a span still
//! open when a capture ends simply isn't in it.
//!
//! Rings are fixed-capacity [`SeqRing`]s of [`RING_EVENTS`] records, the
//! seqlock ring `pecan-serve`'s flight recorder also stores into, and
//! single-writer: each thread claims one on its first recorded span and
//! returns it to a pool at thread exit, so short-lived worker threads
//! (GEMM's scoped row workers) reuse rings instead of growing the
//! registry per call. Readers ([`collect_spans`]) skip records caught
//! mid-write. Under wrap-around the oldest spans are overwritten — this
//! is a flight recorder for profiling windows, not an audit log.

use crate::alloc::alloc_counts;
use crate::clock::thread_cpu_ns;
use crate::hist::Histogram;
use crate::ring::SeqRing;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Completed-span records each per-thread ring holds before wrapping.
pub const RING_EVENTS: usize = 4096;
/// Cap on distinct rings; threads beyond it trace into the void rather
/// than growing memory without bound.
const MAX_RINGS: usize = 256;

/// Whether spans record: `base || captures > 0` over [`CONTROL`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// What [`ENABLED`] is computed from: the base flag [`set_tracing`] sets,
/// and how many [`CaptureWindow`]s are open. Both change only under this
/// lock, which recomputes `ENABLED`, so overlapping capture windows
/// cannot switch tracing off under one another or leave it on for good.
static CONTROL: Mutex<(bool, usize)> = Mutex::new((false, 0));

/// Applies `change` to the base flag and the open-capture count, then
/// recomputes [`ENABLED`].
fn control(change: impl FnOnce(&mut bool, &mut usize)) {
    let mut guard = CONTROL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let (base, captures) = &mut *guard;
    change(base, captures);
    // ordering: Relaxed — see `tracing_enabled`; the lock orders the
    // writers, so the last store always reflects the latest inputs.
    ENABLED.store(*base || *captures > 0, Ordering::Relaxed);
}

/// True when span tracing is recording: the base flag is on or a
/// capture window is open. One relaxed load — this is the only thing a
/// disabled [`span`] call does.
#[inline]
pub fn tracing_enabled() -> bool {
    // ordering: Relaxed — pairs with the Relaxed store in `control`.
    // The flag carries no data; ring writes are ordered by each slot's
    // seqlock word, so a late/early flag read only shifts which spans
    // get recorded, never what a reader observes.
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide (the base flag). A
/// running capture window ([`crate::capture_window_json`]) keeps
/// recording on until it closes, whatever this sets. Spans already open
/// keep recording to completion; spans started while off are never
/// recorded.
pub fn set_tracing(enabled: bool) {
    control(|base, _| *base = enabled);
}

/// Forces span recording on while it lives, on top of the base flag:
/// one per running capture window. Dropping the last one leaves
/// recording as [`set_tracing`] last set it.
pub(crate) struct CaptureWindow(());

impl CaptureWindow {
    pub(crate) fn open() -> Self {
        control(|_, captures| *captures += 1);
        CaptureWindow(())
    }
}

impl Drop for CaptureWindow {
    fn drop(&mut self) {
        control(|_, captures| *captures -= 1);
    }
}

/// Serializes the tests that switch the process-wide tracing flag; each
/// leaves it off before releasing the gate.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use of this module) —
/// the time base of every [`SpanRecord::begin_ns`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One completed span as read back out of a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, e.g. `"gemm"` or `"scheduler.batch"`.
    pub name: &'static str,
    /// Caller-supplied correlation id (request id, batch id); 0 = none.
    pub id: u64,
    /// Nesting depth on its thread when the span began (0 = root).
    pub depth: u32,
    /// Start time, ns since the trace epoch ([`now_ns`]).
    pub begin_ns: u64,
    /// Wall-clock duration in ns.
    pub wall_ns: u64,
    /// Thread CPU time consumed inside the span, ns. Clamped to
    /// `wall_ns`, so `wall ≥ cpu` holds unconditionally.
    pub cpu_ns: u64,
    /// Heap allocations inside the span (0 unless [`crate::PecanAlloc`]
    /// is installed).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

const WORDS: usize = 9;

impl SpanRecord {
    fn to_words(self) -> [u64; WORDS] {
        let (ptr, len) = names::pack(self.name);
        [
            ptr,
            len,
            self.id,
            self.depth as u64,
            self.begin_ns,
            self.wall_ns,
            self.cpu_ns,
            self.allocs,
            self.alloc_bytes,
        ]
    }

    fn from_words(w: [u64; WORDS]) -> Self {
        Self {
            name: names::unpack(w[0], w[1]),
            id: w[2],
            depth: w[3] as u32,
            begin_ns: w[4],
            wall_ns: w[5],
            cpu_ns: w[6],
            allocs: w[7],
            alloc_bytes: w[8],
        }
    }

    /// End time, ns since the trace epoch.
    pub fn end_ns(&self) -> u64 {
        self.begin_ns.saturating_add(self.wall_ns)
    }
}

/// Round trip of a `&'static str` through two `u64` ring words. The
/// second confined unsafe island of the crate (see `Cargo.toml`).
///
/// Under Miri the pointer→integer→pointer trip would discard provenance,
/// so an interning side-table replaces it: `pack` hands out a table index
/// instead of an address and `unpack` looks the name back up. Same
/// signatures, no unsafe, provenance-clean.
#[allow(unsafe_code)]
mod names {
    #[cfg(not(miri))]
    pub fn pack(name: &'static str) -> (u64, u64) {
        (name.as_ptr() as u64, name.len() as u64)
    }

    /// SAFETY (contract): `(ptr, len)` pairs only ever enter a ring
    /// through [`pack`], and the seqlock protocol guarantees a reader
    /// sees both words from the *same* record or none — so the pair
    /// always describes a live `&'static str`.
    #[cfg(not(miri))]
    pub fn unpack(ptr: u64, len: u64) -> &'static str {
        // SAFETY: see the contract above — the pair came from `pack`,
        // whose input was a valid `&'static str`.
        unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                ptr as *const u8,
                len as usize,
            ))
        }
    }

    #[cfg(miri)]
    static INTERNED: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());

    #[cfg(miri)]
    pub fn pack(name: &'static str) -> (u64, u64) {
        let mut table = INTERNED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let idx = match table.iter().position(|n| std::ptr::eq(*n, name)) {
            Some(idx) => idx,
            None => {
                table.push(name);
                table.len() - 1
            }
        };
        (idx as u64, name.len() as u64)
    }

    #[cfg(miri)]
    pub fn unpack(idx: u64, _len: u64) -> &'static str {
        INTERNED.lock().unwrap_or_else(std::sync::PoisonError::into_inner)[idx as usize]
    }
}

/// A single-writer span ring: the owning thread is the only pusher, any
/// thread may read.
struct ThreadRing {
    /// Stable export tid.
    id: u32,
    in_use: AtomicBool,
    /// Name of the thread currently (or last) writing here.
    label: Mutex<String>,
    records: SeqRing<WORDS>,
}

static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

/// Pool-claims a ring for the calling thread: first a free one (its
/// previous owner exited), else a fresh one up to [`MAX_RINGS`].
fn claim_ring() -> Option<Arc<ThreadRing>> {
    let mut registry = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // ordering: Relaxed — `in_use` claims are serialized by the REGISTRY
    // mutex (this function holds it); the only unguarded touch is the
    // Relaxed release in `RingHandle::drop`, which at worst makes a
    // just-freed ring look busy for one claim attempt.
    let ring = match registry.iter().find(|r| !r.in_use.load(Ordering::Relaxed)) {
        Some(free) => {
            free.in_use.store(true, Ordering::Relaxed);
            Arc::clone(free)
        }
        None if registry.len() < MAX_RINGS => {
            let ring = Arc::new(ThreadRing {
                id: registry.len() as u32,
                in_use: AtomicBool::new(true),
                label: Mutex::new(String::new()),
                records: SeqRing::new(RING_EVENTS),
            });
            registry.push(Arc::clone(&ring));
            ring
        }
        None => return None,
    };
    let label = std::thread::current()
        .name()
        .map_or_else(|| format!("thread-{}", ring.id), str::to_owned);
    *ring.label.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = label;
    Some(ring)
}

/// Returns the ring to the pool when its owning thread exits. The
/// registry keeps the `Arc`, so recorded spans stay capturable.
struct RingHandle(Arc<ThreadRing>);

impl Drop for RingHandle {
    fn drop(&mut self) {
        // ordering: Relaxed — pairs with the mutex-guarded load in
        // `claim_ring`. No ring data rides on this flag: the next owner
        // writes slots through the seqlock protocol, never reads them.
        self.0.in_use.store(false, Ordering::Relaxed);
    }
}

enum RingSlot {
    Untried,
    Unavailable,
    Ready(RingHandle),
}

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static RING: RefCell<RingSlot> = const { RefCell::new(RingSlot::Untried) };
}

fn write_record(record: SpanRecord) {
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let RingSlot::Untried = *slot {
            *slot = match claim_ring() {
                Some(ring) => RingSlot::Ready(RingHandle(ring)),
                None => RingSlot::Unavailable,
            };
        }
        if let RingSlot::Ready(handle) = &*slot {
            handle.0.records.push(record.to_words());
        }
    });
}

/// Every consistent span record currently held by any ring whose span
/// lies **fully inside** `[since_ns, until_ns]`, as
/// `(tid, thread_label, records)` groups. Records within a group are in
/// ring order (completion order).
pub fn collect_spans(since_ns: u64, until_ns: u64) -> Vec<(u32, String, Vec<SpanRecord>)> {
    let rings: Vec<Arc<ThreadRing>> = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(Arc::clone)
        .collect();
    let window = |r: &SpanRecord| r.begin_ns >= since_ns && r.end_ns() <= until_ns;
    let mut out = Vec::with_capacity(rings.len());
    for ring in rings {
        let records: Vec<SpanRecord> =
            ring.records.read().into_iter().map(SpanRecord::from_words).filter(window).collect();
        if !records.is_empty() {
            let label =
                ring.label.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
            out.push((ring.id, label, records));
        }
    }
    out.sort_by_key(|(id, _, _)| *id);
    out
}

/// Data captured when a traced span opens; turned into a [`SpanRecord`]
/// on drop.
#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    id: u64,
    depth: u32,
    begin_cpu: u64,
    begin_allocs: u64,
    begin_bytes: u64,
}

/// RAII guard for one measured region. On drop it records the span (if
/// tracing was on when it opened) and feeds the wall time to its
/// [`timed_span`] histogram (if it has one); otherwise it is inert.
#[derive(Debug)]
#[must_use = "a span measures the region until the guard drops"]
pub struct SpanGuard<'h> {
    /// Region start, ns since the trace epoch; 0 (never read) for an
    /// inert guard.
    begin_ns: u64,
    open: Option<OpenSpan>,
    hist: Option<&'h Histogram>,
}

/// Opens a span named `name` covering the region until the returned
/// guard drops. Costs one relaxed atomic load when tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard<'static> {
    span_with_id(name, 0)
}

/// [`span`] with a correlation id exported in the trace (`args.id`) —
/// request spans carry the flight-recorder request id, scheduler batch
/// spans the batch id, engine stage spans the layer index, so trace
/// timelines join against `/debug/requests` and `/metrics`.
#[inline]
pub fn span_with_id(name: &'static str, id: u64) -> SpanGuard<'static> {
    if !tracing_enabled() {
        return SpanGuard { begin_ns: 0, open: None, hist: None };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let (begin_allocs, begin_bytes) = alloc_counts();
    // Wall first, CPU second here — and CPU first, wall second at drop —
    // so the CPU window nests inside the wall window and `wall ≥ cpu`
    // holds by measurement order, not luck.
    let begin_ns = now_ns();
    let begin_cpu = thread_cpu_ns();
    SpanGuard {
        begin_ns,
        open: Some(OpenSpan { name, id, depth, begin_cpu, begin_allocs, begin_bytes }),
        hist: None,
    }
}

/// [`span_with_id`] that also records the region's wall time, in ns,
/// into `hist` when the guard drops — with tracing on or off. One
/// begin/end clock pair feeds both, so a traced span's `wall_ns` is the
/// histogram sample. With tracing off it costs the flag load plus two
/// clock reads and the histogram record.
#[inline]
pub fn timed_span<'h>(name: &'static str, id: u64, hist: &'h Histogram) -> SpanGuard<'h> {
    let mut guard: SpanGuard<'h> = span_with_id(name, id);
    if guard.open.is_none() {
        guard.begin_ns = now_ns();
    }
    guard.hist = Some(hist);
    guard
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            if let Some(hist) = self.hist {
                hist.record(now_ns().saturating_sub(self.begin_ns));
            }
            return;
        };
        let end_cpu = thread_cpu_ns();
        let wall_ns = now_ns().saturating_sub(self.begin_ns);
        if let Some(hist) = self.hist {
            hist.record(wall_ns);
        }
        let (allocs, bytes) = alloc_counts();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        write_record(SpanRecord {
            name: open.name,
            id: open.id,
            depth: open.depth,
            begin_ns: self.begin_ns,
            wall_ns,
            // Clamped: the two clocks tick at different granularities, so
            // a tiny span could otherwise read cpu a hair above wall.
            cpu_ns: end_cpu.saturating_sub(open.begin_cpu).min(wall_ns),
            allocs: allocs.wrapping_sub(open.begin_allocs),
            alloc_bytes: bytes.wrapping_sub(open.begin_bytes),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global, so every test here serializes on
    // the crate's test gate and restores the disabled state before
    // releasing it.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _gate = test_gate();
        set_tracing(true);
        let out = f();
        set_tracing(false);
        out
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _gate = test_gate();
        set_tracing(false);
        let t0 = now_ns();
        {
            let _g = span("test.disabled");
        }
        let spans = collect_spans(t0, u64::MAX);
        assert!(
            spans.iter().all(|(_, _, rs)| rs.iter().all(|r| r.name != "test.disabled")),
            "disabled tracing must not record"
        );
    }

    #[test]
    fn spans_record_nesting_wall_and_cpu() {
        let (t0, t1) = with_tracing(|| {
            let t0 = now_ns();
            {
                let _outer = span("test.outer");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span_with_id("test.inner", 42);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            (t0, now_ns())
        });
        let groups = collect_spans(t0, t1);
        let all: Vec<SpanRecord> =
            groups.iter().flat_map(|(_, _, rs)| rs.iter().copied()).collect();
        let outer = all.iter().find(|r| r.name == "test.outer").expect("outer recorded");
        let inner = all.iter().find(|r| r.name == "test.inner").expect("inner recorded");
        assert_eq!(inner.id, 42);
        assert_eq!(outer.depth + 1, inner.depth, "inner nests under outer");
        assert!(outer.begin_ns <= inner.begin_ns);
        assert!(inner.end_ns() <= outer.end_ns());
        for r in [outer, inner] {
            assert!(r.wall_ns >= r.cpu_ns, "wall {} < cpu {}", r.wall_ns, r.cpu_ns);
            assert!(r.wall_ns >= 1_000_000, "sleep must be visible in wall time");
        }
        // Sleeping threads burn (almost) no CPU: the wall/CPU split is real.
        assert!(outer.cpu_ns < outer.wall_ns, "sleep must not count as CPU time");
    }

    #[test]
    fn worker_threads_get_their_own_rings_and_window_filters() {
        let t0 = with_tracing(|| {
            let t0 = now_ns();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        let _g = span("test.worker");
                        std::hint::black_box(17u64);
                    });
                }
            });
            t0
        });
        let t1 = now_ns();
        let groups = collect_spans(t0, t1);
        let worker_spans: usize = groups
            .iter()
            .map(|(_, _, rs)| rs.iter().filter(|r| r.name == "test.worker").count())
            .sum();
        assert_eq!(worker_spans, 3, "every worker span lands in a ring");
        // A window strictly before t0 holds none of them.
        let earlier = collect_spans(0, t0);
        assert!(earlier
            .iter()
            .all(|(_, _, rs)| rs.iter().all(|r| r.name != "test.worker")));
    }

    #[test]
    fn rings_are_pooled_across_sequential_threads() {
        with_tracing(|| {
            let count_rings = || REGISTRY.lock().unwrap().len();
            // Warm one pooled ring up front.
            std::thread::spawn(|| {
                let _g = span("test.pool");
            })
            .join()
            .unwrap();
            let after_first = count_rings();
            for _ in 0..8 {
                std::thread::spawn(|| {
                    let _g = span("test.pool");
                })
                .join()
                .unwrap();
            }
            // Sequential short-lived threads reuse pooled rings instead of
            // registering one each (other tests' live threads may hold a
            // few, hence ≤ +1 slack rather than strict equality).
            assert!(
                count_rings() <= after_first + 1,
                "8 sequential threads grew the registry from {after_first} to {}",
                count_rings()
            );
        });
    }
}
