//! Fault injection against live servers: misbehaving clients must cost
//! the server one connection slot at most, never a thread, never the
//! loop.
//!
//! Each scenario runs against both front ends (threaded always, epoll
//! where built) with a short, explicit `read_timeout` so the tests are
//! deterministic: they poll observable state (`/stats` counters, actual
//! socket EOF) rather than sleeping and hoping.

use pecan_serve::{demo, ConnStatsSnapshot, EngineRegistry, SchedulerConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const READ_TIMEOUT: Duration = Duration::from_millis(300);

fn start(event_loop: bool) -> Server {
    let registry = EngineRegistry::new();
    let scheduler = SchedulerConfig { max_batch: 1, ..SchedulerConfig::default() };
    registry.register(Arc::new(demo::mlp_engine(42)), scheduler).expect("register");
    let config = ServerConfig { event_loop, read_timeout: READ_TIMEOUT, ..ServerConfig::default() };
    Server::start_registry(registry, config).expect("server starts")
}

fn front_ends() -> Vec<Server> {
    let mut servers = vec![start(false)];
    if pecan_serve::event_loop_supported() {
        servers.push(start(true));
    }
    servers
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Polls `probe` until it returns true or five seconds pass.
fn wait_until(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}

fn wait_for_stats(server: &Server, what: &str, probe: impl Fn(&ConnStatsSnapshot) -> bool) {
    wait_until(what, || probe(&server.conn_stats()));
}

fn predict_request(input_len: usize) -> Vec<u8> {
    let body: Vec<String> = (0..input_len).map(|i| format!("{}", i as f32 * 0.01)).collect();
    let body = format!("[{}]", body.join(","));
    format!("POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

/// One `GET path` on its own connection; the raw response.
fn get(server: &Server, path: &str) -> String {
    let mut s = connect(server);
    s.write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("write");
    let mut response = Vec::new();
    s.read_to_end(&mut response).expect("read");
    String::from_utf8_lossy(&response).into_owned()
}

fn full_round_trip(server: &Server) {
    let mut s = connect(server);
    s.write_all(&predict_request(64)).expect("write");
    s.shutdown(std::net::Shutdown::Write).expect("half close");
    let mut response = Vec::new();
    s.read_to_end(&mut response).expect("read");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "healthy client failed: {text}");
}

/// Slowloris: a client that starts a request head and then stalls. The
/// read deadline must fire, answer 408 (the request was underway), count
/// a timeout, and free the slot.
#[test]
fn slowloris_stall_hits_the_read_deadline() {
    for server in front_ends() {
        let mut s = connect(&server);
        // A dribble of request head, never finished.
        s.write_all(b"POST /predict HTTP/1.1\r\nContent-Le").expect("drip");
        wait_for_stats(&server, "slowloris connection accepted", |st| st.accepted == 1);

        // The server must cut the connection: EOF arrives, preceded by a
        // best-effort 408.
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).expect("read until server closes");
        let text = String::from_utf8_lossy(&rest);
        assert!(
            text.starts_with("HTTP/1.1 408 "),
            "expected a 408 before the close, got: {text:?}"
        );
        // The 408 answers the cut-off request: one request, one response.
        wait_for_stats(&server, "slot freed + timeout and 408 counted", |st| {
            st.active == 0
                && st.timeouts == 1
                && st.closed == 1
                && st.requests == 1
                && st.responses == 1
        });
        server.stop();
    }
}

/// An idle connection (no bytes at all) is reaped silently: close without
/// a 408 — there was no request to answer.
#[test]
fn idle_connection_is_reaped_silently() {
    for server in front_ends() {
        let mut s = connect(&server);
        wait_for_stats(&server, "idle connection accepted", |st| st.accepted == 1);
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).expect("read until server closes");
        assert!(rest.is_empty(), "idle close must not write: {:?}", String::from_utf8_lossy(&rest));
        wait_for_stats(&server, "idle slot freed", |st| st.active == 0 && st.closed == 1);
        server.stop();
    }
}

/// A client that dies mid-body must not leak its slot: the server sees
/// EOF inside a request and releases the connection.
#[test]
fn mid_body_disconnect_frees_the_slot() {
    for server in front_ends() {
        let request = predict_request(64);
        for round in 1..=3u64 {
            let mut s = connect(&server);
            // Head plus half the body, then a hard drop.
            s.write_all(&request[..request.len() - 40]).expect("partial write");
            wait_for_stats(&server, "partial connection accepted", |st| st.accepted == round);
            drop(s);
            wait_for_stats(&server, "slot freed after disconnect", |st| {
                st.active == 0 && st.closed == round
            });
        }
        // The server is still fully healthy for the next client.
        full_round_trip(&server);
        server.stop();
    }
}

/// A stalled reader — request sent, response never read — cannot wedge
/// the server: other clients keep getting answers, and the stalled
/// connection is eventually reaped by the read deadline.
#[test]
fn stalled_reader_cannot_wedge_the_server() {
    for server in front_ends() {
        // The stalled client: fires a request, then never reads.
        let mut stalled = connect(&server);
        stalled.write_all(&predict_request(64)).expect("write");
        wait_for_stats(&server, "stalled request answered", |st| st.responses >= 1);

        // While it sits there, other clients get full service.
        for _ in 0..5 {
            full_round_trip(&server);
        }

        // The stalled connection is reaped once the deadline passes
        // (silently: its response was flushed, so it is merely idle).
        wait_for_stats(&server, "stalled connection reaped", |st| st.active == 0);
        drop(stalled);
        server.stop();
    }
}

/// A client that pipelines requests and never reads an answer is held
/// back by TCP, not buffered by the server: each front end stops reading
/// a connection while its response waits for the socket, so the writer
/// blocks long before 32 MiB. The server's stalled-reader deadline
/// (300 ms here) is shorter than the writer's 1 s timeout, so the blocked
/// write usually ends in the reset the server sends when it cuts the
/// connection off, not in the timeout; either way the server stopped
/// taking bytes. Other clients keep full service, and the connection is
/// reaped by the read deadline.
#[test]
fn a_client_that_never_reads_is_held_back() {
    const LIMIT: usize = 32 << 20;
    let request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    let chunk = request.repeat((64 << 10) / request.len());
    for server in front_ends() {
        let mut s = connect(&server);
        s.set_write_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut sent = 0;
        let refused = loop {
            if sent >= LIMIT {
                break None;
            }
            match s.write_all(&chunk) {
                Ok(()) => sent += chunk.len(),
                Err(e) => break Some(e),
            }
        };
        let Some(e) = refused else {
            panic!("the server took {sent} bytes from a client that never reads");
        };
        use std::io::ErrorKind::{BrokenPipe, ConnectionReset, TimedOut, WouldBlock};
        assert!(
            matches!(e.kind(), WouldBlock | TimedOut | ConnectionReset | BrokenPipe),
            "writer stopped after {sent} bytes with an unexpected error: {e}"
        );
        full_round_trip(&server);
        wait_for_stats(&server, "never-reading connection reaped", |st| st.active == 0);
        drop(s);
        server.stop();
    }
}

/// Garbage bytes get the typed 400 and a close — and the server keeps
/// serving.
#[test]
fn garbage_bytes_answered_with_400_then_close() {
    for server in front_ends() {
        let mut s = connect(&server);
        s.write_all(b"\x01\x02\x03\x04garbage\r\n\r\n").expect("write");
        let mut response = Vec::new();
        s.read_to_end(&mut response).expect("read");
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 400 "), "got: {text}");
        assert!(text.contains("\r\nConnection: close\r\n"));
        // The refusal is recorded like any answered request, with no model.
        let dump = get(&server, "/debug/requests");
        assert!(dump.contains("\"model\":null,\"status\":400,"), "no 400 record: {dump}");
        full_round_trip(&server);
        server.stop();
    }
}
