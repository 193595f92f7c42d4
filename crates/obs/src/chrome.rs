//! Chrome trace-event JSON export for span captures.
//!
//! Produces the `{"traceEvents": [...]}` JSON object format consumed by
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`. Each
//! recorded [`SpanRecord`] becomes one `"B"`/`"E"` duration-event pair on
//! its thread's track; because the span substrate only records
//! *completed* spans, every export is balanced per thread by
//! construction. Timestamps are microseconds since the trace epoch with
//! nanosecond precision (three decimal places), and each begin event
//! carries the span's CPU time, allocation counters and correlation id
//! in `args`.
//!
//! The encoder is hand-rolled: span names are compile-time `&'static
//! str` identifiers and thread labels are generated, so the only
//! escaping JSON requires is the conservative string escape below.

use crate::span::{collect_spans, now_ns, CaptureWindow, SpanRecord};
use std::time::Duration;

/// Exports every span recorded so far (up to ring capacity) as Chrome
/// trace JSON. Used by `serve --trace-file` at shutdown.
pub fn dump_all_json() -> String {
    export_range_json(0, u64::MAX)
}

/// Records spans for `window`, then exports exactly the spans that ran
/// fully inside it. Backs `GET /debug/trace?ms=N`: tracing is forced on
/// for the window on top of the base flag ([`crate::set_tracing`]), so a
/// capture against an untraced server is self-contained, and captures
/// may overlap — each records its whole window, and once the last one
/// returns recording is back to what the base flag says. Blocks the
/// calling thread for the window.
pub fn capture_window_json(window: Duration) -> String {
    let capture = CaptureWindow::open();
    let since = now_ns();
    std::thread::sleep(window);
    let until = now_ns();
    drop(capture);
    export_range_json(since, until)
}

/// Chrome trace JSON for every recorded span fully inside
/// `[since_ns, until_ns]` (trace-epoch nanoseconds).
pub fn export_range_json(since_ns: u64, until_ns: u64) -> String {
    let groups = collect_spans(since_ns, until_ns);
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |event: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&event);
    };
    push_event(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"pecan\"}}"
            .to_owned(),
    );
    for (tid, label, records) in &groups {
        push_event(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(label)
        ));
        for (_ts, json) in ordered_events(*tid, records) {
            push_event(json);
        }
    }
    out.push_str("]}");
    out
}

/// Begin/end events for one thread's records, ordered so that a viewer
/// replaying them top-down always sees a well-nested stack.
fn ordered_events(tid: u32, records: &[SpanRecord]) -> Vec<(u64, String)> {
    // Sort key: timestamp first; at equal timestamps close before open
    // (an `E` at t must precede an unrelated `B` at t), opens shallowest
    // first, closes deepest first.
    let mut events: Vec<((u64, u8, u32), String)> = Vec::with_capacity(records.len() * 2);
    for r in records {
        events.push((
            (r.begin_ns, 1, r.depth),
            format!(
                "{{\"name\":\"{}\",\"cat\":\"pecan\",\"ph\":\"B\",\"pid\":1,\
                 \"tid\":{tid},\"ts\":{},\"args\":{{\"cpu_ns\":{},\"allocs\":{},\
                 \"alloc_bytes\":{},\"id\":{}}}}}",
                escape(r.name),
                ts_us(r.begin_ns),
                r.cpu_ns,
                r.allocs,
                r.alloc_bytes,
                r.id,
            ),
        ));
        events.push((
            (r.end_ns(), 0, u32::MAX - r.depth),
            format!(
                "{{\"name\":\"{}\",\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                escape(r.name),
                ts_us(r.end_ns()),
            ),
        ));
    }
    events.sort_by_key(|e| e.0);
    events.into_iter().map(|((ts, _, _), json)| (ts, json)).collect()
}

/// Trace-epoch nanoseconds as the microsecond string Chrome expects,
/// keeping full nanosecond precision (`1234` ns → `"1.234"`).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{set_tracing, span, test_gate, tracing_enabled};

    /// Capture A runs 100 ms; capture B starts ~20 ms later and runs
    /// 800 ms. A span a background thread opens 100 ms after A returned
    /// lands in B, and once both return the flag is what `set_tracing`
    /// made it — off, or on as `serve --trace-file` leaves it.
    #[test]
    fn overlapping_captures_record_their_windows_and_keep_the_base_flag() {
        let _gate = test_gate();
        for base in [false, true] {
            set_tracing(base);
            let a = std::thread::spawn(|| capture_window_json(Duration::from_millis(100)));
            std::thread::sleep(Duration::from_millis(20));
            let after_a = std::thread::spawn(move || {
                a.join().expect("capture A");
                std::thread::sleep(Duration::from_millis(100));
                let _s = span("test.after_capture_a");
            });
            let b = capture_window_json(Duration::from_millis(800));
            after_a.join().expect("background span");
            assert!(
                b.contains("\"test.after_capture_a\""),
                "capture B lost the span begun after A returned (base flag {base}):\n{b}"
            );
            assert_eq!(tracing_enabled(), base, "captures changed the base flag");
        }
        set_tracing(false);
    }

    #[test]
    fn ts_us_keeps_nanosecond_precision() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1_234), "1.234");
        assert_eq!(ts_us(5_000_007), "5000.007");
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn events_are_ordered_and_balanced_for_nested_spans() {
        // parent [100, 500] wrapping child [200, 300]; sibling [500, 600]
        // starting exactly when parent ends.
        let records = [
            SpanRecord {
                name: "parent",
                id: 0,
                depth: 0,
                begin_ns: 100,
                wall_ns: 400,
                cpu_ns: 300,
                allocs: 0,
                alloc_bytes: 0,
            },
            SpanRecord {
                name: "child",
                id: 7,
                depth: 1,
                begin_ns: 200,
                wall_ns: 100,
                cpu_ns: 100,
                allocs: 2,
                alloc_bytes: 64,
            },
            SpanRecord {
                name: "sibling",
                id: 0,
                depth: 0,
                begin_ns: 500,
                wall_ns: 100,
                cpu_ns: 50,
                allocs: 0,
                alloc_bytes: 0,
            },
        ];
        let events = ordered_events(3, &records);
        let kinds: Vec<(String, char)> = events
            .iter()
            .map(|(_, json)| {
                let name = json.split("\"name\":\"").nth(1).unwrap();
                let name = name[..name.find('"').unwrap()].to_owned();
                let ph = json.split("\"ph\":\"").nth(1).unwrap().chars().next().unwrap();
                (name, ph)
            })
            .collect();
        let expect = [
            ("parent", 'B'),
            ("child", 'B'),
            ("child", 'E'),
            ("parent", 'E'), // E at ts=500 precedes sibling's B at ts=500
            ("sibling", 'B'),
            ("sibling", 'E'),
        ];
        assert_eq!(kinds.len(), expect.len());
        for (got, want) in kinds.iter().zip(expect) {
            assert_eq!((got.0.as_str(), got.1), want);
        }
        // A viewer replay never pops a name that isn't on top of the stack.
        let mut stack = Vec::new();
        for (name, ph) in &kinds {
            match ph {
                'B' => stack.push(name.clone()),
                _ => assert_eq!(stack.pop().as_deref(), Some(name.as_str())),
            }
        }
        assert!(stack.is_empty(), "unbalanced events");
    }

    #[test]
    fn export_is_valid_jsonish_and_carries_args() {
        let json = export_range_json(u64::MAX, u64::MAX); // empty window
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"process_name\""));
        let events = ordered_events(
            0,
            &[SpanRecord {
                name: "x",
                id: 9,
                depth: 0,
                begin_ns: 10,
                wall_ns: 5,
                cpu_ns: 3,
                allocs: 1,
                alloc_bytes: 32,
            }],
        );
        assert!(events[0].1.contains("\"cpu_ns\":3"));
        assert!(events[0].1.contains("\"alloc_bytes\":32"));
        assert!(events[0].1.contains("\"id\":9"));
    }
}
