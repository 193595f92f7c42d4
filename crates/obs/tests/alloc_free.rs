//! Allocation-regression tests for the observability primitives
//! themselves, run under the counting allocator.
//!
//! `hist.rs` documents `Histogram::record` as allocation-free and the
//! span substrate promises a recorded span — plain or timed — costs no
//! heap after its thread's ring exists; with [`PecanAlloc`] installed as
//! the global allocator those claims become asserted invariants.

use pecan_obs::{alloc_counts, Histogram, PecanAlloc};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: PecanAlloc = PecanAlloc;

/// Allocations on this thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = alloc_counts().0;
    f();
    alloc_counts().0 - before
}

#[test]
fn histogram_record_is_allocation_free() {
    let hist = Histogram::new();
    hist.record(1); // touch any lazy paths before counting
    let n = allocs_during(|| {
        for v in 0..10_000u64 {
            hist.record(v * 37);
        }
    });
    assert_eq!(n, 0, "Histogram::record allocated {n} times");
}

#[test]
fn histogram_merge_and_snapshot_do_allocate_but_record_stays_clean() {
    // Guard against the counter itself being dead: snapshot allocates.
    let hist = Histogram::new();
    hist.record(42);
    assert!(
        allocs_during(|| {
            std::hint::black_box(hist.snapshot());
        }) > 0
    );
}

/// Tracing is process-wide: the span tests take turns switching it.
static TRACING: Mutex<()> = Mutex::new(());

fn open_spans(hist: &Histogram) {
    for _ in 0..1_000 {
        let _s = pecan_obs::span("alloc_test.span");
        let _i = pecan_obs::span_with_id("alloc_test.id", 7);
        let _t = pecan_obs::timed_span("alloc_test.timed", 7, hist);
    }
}

#[test]
fn span_recording_is_allocation_free_after_ring_claim() {
    let _turn = TRACING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    pecan_obs::set_tracing(true);
    let hist = Histogram::new();
    // First span claims this thread's ring (allocates once); the steady
    // state must be clean.
    {
        let _warm = pecan_obs::span("alloc_test.warm");
    }
    let n = allocs_during(|| open_spans(&hist));
    pecan_obs::set_tracing(false);
    assert_eq!(n, 0, "span record allocated {n} times after warm-up");
    assert_eq!(hist.count(), 1_000);
}

#[test]
fn disabled_span_is_allocation_free_from_the_first_call() {
    let _turn = TRACING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    pecan_obs::set_tracing(false);
    let hist = Histogram::new();
    let n = allocs_during(|| open_spans(&hist));
    assert_eq!(n, 0, "disabled span allocated {n} times");
    assert_eq!(hist.count(), 1_000, "a timed span records with tracing off");
}
