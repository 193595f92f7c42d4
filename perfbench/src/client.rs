//! Load generation for `duo-reload`: one-request-at-a-time callers on a
//! fixed schedule, and the bit-for-bit answer check.
//!
//! Every request is timed twice: from its *due* time, so a stall in the
//! program (or in the generator) is charged to every request it delays,
//! and from its write, the round trip one call costs. The generator's own
//! lateness — how long after its due time a request left, once the caller
//! was free to send it — is reported separately as a run-health figure.

use crate::model::Model;
use crate::trace::Tracer;
use pecan_serve::client::{predict_path, route_path, HttpClient};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One scheduled operation of a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Predict pool input `idx`.
    Predict(usize),
    /// `POST /models/{model}/reload`.
    Reload,
}

/// The outcome of one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Answered `200` with the reference bits (reload: the expected
    /// version).
    pub ok: bool,
    /// Answered `200`, whatever the bits.
    pub answered: bool,
    /// Answered `503` (refused by shedding or a full queue).
    pub refused: bool,
    /// Answered `200` with other bits (reload: another version).
    pub mismatch: bool,
    /// Due time → response fully read, µs.
    pub latency_us: f64,
    /// Write → response fully read, µs.
    pub service_us: f64,
    /// How late the request left once the caller was free to send it, µs.
    pub late_us: f64,
    /// When the operation was due, seconds after the window started.
    pub due_s: f64,
}

/// Sleeps until `t` (returns at once when `t` has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `true` when the response body's `"output"` array carries exactly the
/// bits of `expected`.
pub fn output_matches(body: &str, expected: &[f32]) -> bool {
    match pecan_serve::json::array_field(body, "output") {
        Ok(got) => {
            got.len() == expected.len()
                && got
                    .iter()
                    .zip(expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }
        Err(_) => false,
    }
}

/// One caller with at most one request outstanding: each call waits for
/// its due time (or for the previous answer, if that came later), sends,
/// and reads the answer on one keep-alive connection. `first_version` is
/// the model version before the first reload; each reload must answer the
/// next one. Operations lost to a transport error stay `!ok`.
pub fn one_at_a_time(
    addr: SocketAddr,
    model: &Model,
    schedule: &[(Duration, Call)],
    start: Instant,
    first_version: u64,
    tracer: Option<&Tracer>,
) -> Vec<Outcome> {
    let mut outcomes = vec![Outcome::default(); schedule.len()];
    let Ok(mut client) = HttpClient::connect(addr) else {
        return outcomes;
    };
    let name = Some(model.kind.name());
    let (predict, reload) = (predict_path(name), route_path(name, "reload"));
    let mut version = first_version;
    for (k, &(due, call)) in schedule.iter().enumerate() {
        let target = (start + due).max(Instant::now());
        sleep_until(target);
        let sent = Instant::now();
        let answer = match call {
            Call::Predict(idx) => client.call("POST", &predict, &model.bodies[idx]),
            Call::Reload => client.call("POST", &reload, ""),
        };
        let Ok((status, body)) = answer else {
            break;
        };
        let done = Instant::now();
        let o = &mut outcomes[k];
        o.answered = status == 200;
        o.refused = status == 503;
        if o.answered {
            o.ok = match call {
                Call::Predict(idx) => output_matches(&body, &model.refs[idx]),
                Call::Reload => {
                    version += 1;
                    pecan_serve::json::number_field(&body, "version").ok() == Some(version as f64)
                }
            };
            o.mismatch = !o.ok;
        }
        o.latency_us = us(done.saturating_duration_since(start + due));
        o.service_us = us(done.saturating_duration_since(sent));
        o.late_us = us(sent.saturating_duration_since(target));
        o.due_s = due.as_secs_f64();
        if let Some(t) = tracer {
            let name = match call {
                Call::Predict(_) => "client.request",
                Call::Reload => "client.reload",
            };
            t.record(name, start + due, done, k as u64);
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_check_is_bit_exact() {
        let body = r#"{"output":[1,0.5,-0],"latency_us":3,"batch_size":1}"#;
        assert!(output_matches(body, &[1.0, 0.5, -0.0]));
        assert!(
            !output_matches(body, &[1.0, 0.5, 0.0]),
            "-0 and 0 differ in bits"
        );
        assert!(!output_matches(body, &[1.0, 0.5]));
        assert!(!output_matches(r#"{"error":"x"}"#, &[1.0]));
    }
}
