//! Wire-level protocol conformance, run against BOTH front ends.
//!
//! Every test here speaks raw bytes over a real socket — no client
//! library — and most run twice, once against the threaded front end and
//! once against the epoll event loop, asserting the two are
//! **byte-identical** on the wire (the only masked bytes are the
//! `latency_us` digits inside predict bodies, which measure wall clock).

use pecan_serve::{demo, ConnStatsSnapshot, EngineRegistry, SchedulerConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One server per front end, same seeded model, batching disabled so
/// `batch_size` is deterministic.
fn start(event_loop: bool) -> Server {
    let registry = EngineRegistry::new();
    let scheduler = SchedulerConfig { max_batch: 1, ..SchedulerConfig::default() };
    registry.register(Arc::new(demo::mlp_engine(42)), scheduler).expect("register");
    let config = ServerConfig {
        event_loop,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    Server::start_registry(registry, config).expect("server starts")
}

/// Front ends to exercise: threaded always, the event loop where built.
fn front_ends() -> Vec<Server> {
    let mut servers = vec![start(false)];
    if pecan_serve::event_loop_supported() {
        let s = start(true);
        assert!(s.uses_event_loop(), "event loop requested and supported");
        servers.push(s);
    }
    servers
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Writes `bytes`, half-closes, reads until EOF.
fn raw_exchange(server: &Server, bytes: &[u8]) -> Vec<u8> {
    let mut s = connect(server);
    s.write_all(bytes).expect("write");
    s.shutdown(std::net::Shutdown::Write).expect("shutdown write");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read to EOF");
    out
}

/// Reads responses one at a time off a socket, keeping bytes that belong
/// to the next response (pipelined answers share `read()` bursts).
struct ResponseReader {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl ResponseReader {
    fn new(stream: TcpStream) -> Self {
        Self { stream, carry: Vec::new() }
    }

    fn write_all(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
    }

    /// Reads exactly one response (head + `Content-Length` body),
    /// returning its raw bytes. Panics on malformed framing.
    fn next_response(&mut self) -> Vec<u8> {
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(pos) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk).expect("read head");
            assert!(
                n > 0,
                "EOF inside response head: {:?}",
                String::from_utf8_lossy(&self.carry)
            );
            self.carry.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .expect("numeric Content-Length");
        while self.carry.len() < head_end + content_length {
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "EOF inside response body");
            self.carry.extend_from_slice(&chunk[..n]);
        }
        let rest = self.carry.split_off(head_end + content_length);
        std::mem::replace(&mut self.carry, rest)
    }
}

/// Masks the only legitimately variable bytes: the `latency_us` digits.
fn mask_latency(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes).into_owned();
    let Some(start) = text.find("\"latency_us\":") else { return text };
    let digits_at = start + "\"latency_us\":".len();
    let digits_end = text[digits_at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(text.len(), |i| digits_at + i);
    // The masked response must also re-mask Content-Length, which varies
    // with the digit count.
    let masked = format!("{}X{}", &text[..digits_at], &text[digits_end..]);
    let cl_at = masked.find("Content-Length: ").expect("Content-Length") + 16;
    let cl_end = masked[cl_at..]
        .find('\r')
        .map_or(masked.len(), |i| cl_at + i);
    format!("{}N{}", &masked[..cl_at], &masked[cl_end..])
}

fn predict_request(input: &[f32], extra_headers: &str) -> Vec<u8> {
    let body: Vec<String> = input.iter().map(|v| format!("{v}")).collect();
    let body = format!("[{}]", body.join(","));
    format!(
        "POST /predict HTTP/1.1\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn some_input(len: usize) -> Vec<f32> {
    (0..len).map(|i| (i as f32 * 0.37).sin()).collect()
}

/// The conformance battery: every interesting request shape, sent
/// verbatim to both front ends; their raw answers must match byte for
/// byte (latency masked) and carry the expected status.
#[test]
fn front_ends_answer_byte_identically() {
    let servers = front_ends();
    let input_len = 64;
    let body_head = |len: usize| {
        format!("POST /predict HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").into_bytes()
    };
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(), 200),
        (b"GET /models/mlp/healthz HTTP/1.1\r\n\r\n".to_vec(), 200),
        (b"GET /nope HTTP/1.1\r\n\r\n".to_vec(), 404),
        (b"DELETE /predict HTTP/1.1\r\n\r\n".to_vec(), 405),
        (b"GET /models/ghost/healthz HTTP/1.1\r\n\r\n".to_vec(), 404),
        (predict_request(&some_input(input_len), ""), 200),
        (predict_request(&some_input(3), ""), 400), // wrong length
        (b"POST /predict HTTP/1.1\r\nContent-Length: 7\r\n\r\nnot-js!".to_vec(), 400),
        // A declared body one byte over the 1 MiB cap is refused from its
        // head alone; one at the cap passes the head check, and its missing
        // body ends in the `400` for EOF mid-request.
        (body_head((1 << 20) + 1), 413),
        (body_head(1 << 20), 400),
        (b"BOGUS\r\n\r\n".to_vec(), 400),
        (b"GET /healthz HTTP/1.0\r\n\r\n".to_vec(), 200),
    ];
    for (i, (case, status)) in cases.iter().enumerate() {
        let answers: Vec<String> = servers
            .iter()
            .map(|srv| mask_latency(&raw_exchange(srv, case)))
            .collect();
        for pair in answers.windows(2) {
            assert_eq!(
                pair[0],
                pair[1],
                "case {i} ({:?}) diverged between front ends",
                String::from_utf8_lossy(case)
            );
        }
        assert!(
            answers[0].starts_with(&format!("HTTP/1.1 {status} ")),
            "case {i} answered {:?}, expected {status}",
            answers[0].lines().next()
        );
        if *status == 413 {
            assert!(
                answers[0].contains("\r\nConnection: close\r\n"),
                "case {i}: {}",
                answers[0]
            );
        }
    }
    // The same traffic leaves the same counters on both front ends, and
    // every answered request — refusals included — counts once in
    // `requests` and once in `responses`. The threaded front end counts
    // a response after its write and a close after the socket drops, so
    // poll until the counters settle.
    let counters: Vec<ConnStatsSnapshot> = servers.iter().map(settled_counters).collect();
    for c in &counters {
        assert_eq!(c.requests, c.responses, "every request answered once: {c:?}");
        assert_eq!(c.inflight, 0, "{c:?}");
    }
    for pair in counters.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        for (field, x, y) in [
            ("accepted", a.accepted, b.accepted),
            ("closed", a.closed, b.closed),
            ("requests", a.requests, b.requests),
            ("responses", a.responses, b.responses),
            ("timeouts", a.timeouts, b.timeouts),
            ("shed_connections", a.shed_connections, b.shed_connections),
            ("shed_requests", a.shed_requests, b.shed_requests),
        ] {
            assert_eq!(x, y, "front ends disagree on `{field}`:\n{a:?}\n{b:?}");
        }
    }
    for s in servers {
        s.stop();
    }
}

/// `server`'s connection counters once every connection has closed and
/// every request has its response counted, or as they stand after five
/// seconds.
fn settled_counters(server: &Server) -> ConnStatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let c = server.conn_stats();
        let settled = c.closed == c.accepted && c.requests == c.responses && c.inflight == 0;
        if settled || Instant::now() > deadline {
            return c;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A request dripped one byte at a time must be assembled and answered
/// exactly like one sent whole.
#[test]
fn byte_by_byte_drip_is_assembled() {
    for server in front_ends() {
        let request = predict_request(&some_input(64), "");
        let whole = mask_latency(&raw_exchange(&server, &request));

        let mut rx = ResponseReader::new(connect(&server));
        for b in &request {
            rx.write_all(std::slice::from_ref(b));
        }
        let dripped = mask_latency(&rx.next_response());
        assert_eq!(whole, dripped, "drip changed the answer");
        server.stop();
    }
}

/// Keep-alive: one socket, many sequential requests, one server-side
/// connection.
#[test]
fn keep_alive_reuses_the_connection() {
    for server in front_ends() {
        let mut rx = ResponseReader::new(connect(&server));
        for round in 0..5 {
            rx.write_all(&predict_request(&some_input(64), ""));
            let response = String::from_utf8_lossy(&rx.next_response()).into_owned();
            assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "round {round}: {response}");
            assert!(response.contains("\r\nConnection: keep-alive\r\n"));
        }
        // The last response can reach the client before the server bumps
        // its counter — poll briefly instead of racing it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let stats = loop {
            let stats = server.conn_stats();
            if stats.responses == 5 || std::time::Instant::now() > deadline {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(stats.accepted, 1, "five requests rode one connection");
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.responses, 5);
        server.stop();
    }
}

/// HTTP/1.1 pipelining: several requests written back-to-back before any
/// response is read; the answers come back in request order, each correct
/// for its own input.
#[test]
fn pipelined_requests_are_answered_in_order() {
    for server in front_ends() {
        // Reference answers, one call at a time.
        let inputs: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..64).map(|j| ((i * 64 + j) as f32 * 0.11).cos()).collect())
            .collect();
        let reference: Vec<String> = inputs
            .iter()
            .map(|inp| {
                let mut rx = ResponseReader::new(connect(&server));
                rx.write_all(&predict_request(inp, ""));
                mask_latency(&rx.next_response())
            })
            .collect();

        // Same four requests, pipelined in one write.
        let mut pipelined = Vec::new();
        for inp in &inputs {
            pipelined.extend_from_slice(&predict_request(inp, ""));
        }
        let mut rx = ResponseReader::new(connect(&server));
        rx.write_all(&pipelined);
        for (i, want) in reference.iter().enumerate() {
            let got = mask_latency(&rx.next_response());
            assert_eq!(&got, want, "pipelined response {i} out of order or wrong");
        }
        server.stop();
    }
}

/// `Connection: close` is honored: the response says close and the server
/// actually closes.
#[test]
fn connection_close_is_honored() {
    for server in front_ends() {
        let mut rx = ResponseReader::new(connect(&server));
        rx.write_all(&predict_request(&some_input(64), "Connection: close\r\n"));
        let response = String::from_utf8_lossy(&rx.next_response()).into_owned();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(response.contains("\r\nConnection: close\r\n"));
        // EOF follows the response — nothing more arrives.
        let mut rest = Vec::new();
        rx.stream.read_to_end(&mut rest).expect("read EOF");
        assert!(rx.carry.is_empty() && rest.is_empty(), "server kept talking after close");
        server.stop();
    }
}

/// HTTP/1.0 defaults to close (keep-alive only on request).
#[test]
fn http_1_0_defaults_to_close() {
    for server in front_ends() {
        let response = raw_exchange(&server, b"GET /healthz HTTP/1.0\r\n\r\n");
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("\r\nConnection: close\r\n"));
        server.stop();
    }
}

/// Exact framing: status line, headers, terminator and body length all
/// where the protocol says they must be.
#[test]
fn response_framing_is_exact() {
    for server in front_ends() {
        let response = raw_exchange(&server, b"GET /healthz HTTP/1.1\r\n\r\n");
        let head_end = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head terminator");
        let head = std::str::from_utf8(&response[..head_end]).expect("ASCII head");
        let mut lines = head.split("\r\n");
        assert_eq!(lines.next(), Some("HTTP/1.1 200 OK"));
        let headers: Vec<&str> = lines.collect();
        assert!(headers.contains(&"Content-Type: application/json"));
        let body = &response[head_end + 4..];
        let declared: usize = headers
            .iter()
            .find_map(|h| h.strip_prefix("Content-Length: "))
            .expect("Content-Length")
            .parse()
            .expect("numeric");
        assert_eq!(body.len(), declared, "body length must match the declaration");
        assert!(body.starts_with(b"{\"status\":\"ok\""));
        server.stop();
    }
}
