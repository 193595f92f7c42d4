//! Graceful overload: load-aware 503 shedding, the hard connection cap,
//! the server-wide cap on blocking jobs (reloads, trace captures), and the
//! drain guarantee — no in-flight request is dropped by `/shutdown`.
//!
//! The scheduler is made deterministic with a `GatedRunner`: a
//! [`BatchRunner`] double (plugged in through
//! `EngineRegistry::register_runner_as`) that signals when a batch
//! *enters* `run_batch` and then blocks until the test releases it. That
//! handshake pins the worker mid-batch, so queue depths — and therefore
//! shedding decisions — are exact, not racy.

use pecan_serve::{
    BatchRunner, ConnStatsSnapshot, EngineRegistry, SchedulerConfig, ServeError, Server,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Signals `entered` when a batch starts, then blocks until `release`
/// yields a token (or closes). Output: the input's sum, so correctness is
/// still checkable end-to-end.
struct GatedRunner {
    entered: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl BatchRunner for GatedRunner {
    fn input_len(&self) -> usize {
        4
    }
    fn output_len(&self) -> usize {
        1
    }
    fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        let _ = self.entered.send(());
        // Hold the worker until the test releases the gate; a closed
        // channel (sender dropped) releases everything.
        let _ = self.release.lock().unwrap().recv();
        Ok(inputs.iter().map(|i| vec![i.iter().sum()]).collect())
    }
}

struct Gated {
    server: Server,
    entered: mpsc::Receiver<()>,
    release: mpsc::Sender<()>,
}

fn start_gated(event_loop: bool, queue_capacity: usize) -> Gated {
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let runner = Arc::new(GatedRunner { entered: entered_tx, release: Mutex::new(release_rx) });
    let scheduler = SchedulerConfig { max_batch: 1, queue_capacity, workers: 1 };
    let registry = EngineRegistry::new();
    registry.register_runner_as("gated", runner, scheduler).expect("register double");
    let config = ServerConfig {
        event_loop,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = Server::start_registry(registry, config).expect("server starts");
    Gated { server, entered, release }
}

fn front_end_flags() -> Vec<bool> {
    if pecan_serve::event_loop_supported() {
        vec![false, true]
    } else {
        vec![false]
    }
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

fn wait_until(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

fn wait_for_stats(server: &Server, what: &str, probe: impl Fn(&ConnStatsSnapshot) -> bool) {
    wait_until(what, || probe(&server.conn_stats()));
}

fn predict_request() -> &'static [u8] {
    b"POST /predict HTTP/1.1\r\nContent-Length: 9\r\n\r\n[1,2,3,4]"
}

/// Reads one `Content-Length`-framed response off the socket.
fn read_response(s: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head_end = pos + 4;
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            let need: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("Content-Length")
                .trim()
                .parse()
                .expect("numeric");
            while buf.len() < head_end + need {
                let n = s.read(&mut chunk).expect("read body");
                assert!(n > 0, "EOF inside body");
                buf.extend_from_slice(&chunk[..n]);
            }
            return String::from_utf8_lossy(&buf[..head_end + need]).into_owned();
        }
        let n = s.read(&mut chunk).expect("read head");
        assert!(n > 0, "EOF inside head: {:?}", String::from_utf8_lossy(&buf));
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Queue pressure: with the worker pinned and the queue at the shed
/// threshold, the next predict gets a typed 503 with `Retry-After` —
/// and every request admitted before the threshold still completes.
#[test]
fn queue_pressure_sheds_with_typed_503() {
    for event_loop in front_end_flags() {
        // queue_capacity 4, SHED_FRACTION 0.9 → shedding from depth 3.
        let gated = start_gated(event_loop, 4);
        let server = &gated.server;

        // First request: the worker dequeues it and blocks inside
        // run_batch. The queue is now empty and the worker is pinned.
        let mut pinned = connect(server);
        pinned.write_all(predict_request()).expect("write");
        gated.entered.recv_timeout(Duration::from_secs(5)).expect("worker entered run_batch");

        // Three more fill the queue to the shed threshold.
        let mut queued: Vec<TcpStream> = (0..3)
            .map(|_| {
                let mut s = connect(server);
                s.write_all(predict_request()).expect("write");
                s
            })
            .collect();
        let scheduler_stats =
            || server.registry().default_model().stats();
        wait_until("queue filled to the shed threshold", || scheduler_stats().submitted == 4);

        // One more: shed, not enqueued.
        let mut extra = connect(server);
        extra.write_all(predict_request()).expect("write");
        let response = read_response(&mut extra);
        assert!(response.starts_with("HTTP/1.1 503 "), "expected shed 503: {response}");
        assert!(response.contains("\r\nRetry-After: 1\r\n"), "503 must carry Retry-After");
        assert!(response.contains("overloaded"), "typed overload body: {response}");
        let snapshot = server.conn_stats();
        assert_eq!(snapshot.shed_requests, 1);
        assert_eq!(scheduler_stats().submitted, 4, "the shed request never reached the queue");

        // Release the gate: everything admitted completes, nothing lost.
        drop(gated.release);
        let answer = read_response(&mut pinned);
        assert!(answer.contains("\"output\":[10"), "sum of [1,2,3,4]: {answer}");
        for s in &mut queued {
            let answer = read_response(s);
            assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "queued request lost: {answer}");
        }
        assert_eq!(scheduler_stats().completed, 4);
        assert_eq!(scheduler_stats().rejected, 0, "shedding kept the hard bound untouched");
        wait_for_stats(server, "all responses counted", |st| {
            st.requests == 5 && st.responses == 5 && st.inflight == 0
        });
        server.stop();
    }
}

/// The connection cap: sockets beyond `max_connections` are answered with
/// an immediate 503 and closed; established connections are untouched,
/// and a freed slot is reusable.
#[test]
fn connection_cap_sheds_new_sockets() {
    for event_loop in front_end_flags() {
        let registry = EngineRegistry::new();
        let scheduler = SchedulerConfig { max_batch: 1, ..SchedulerConfig::default() };
        let engine = Arc::new(pecan_serve::demo::mlp_engine(42));
        registry.register(engine, scheduler).expect("register");
        let config = ServerConfig {
            event_loop,
            max_connections: 2,
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let server = Server::start_registry(registry, config).expect("start");

        // Fill both slots with live keep-alive connections.
        let mut held: Vec<TcpStream> = (0..2).map(|_| connect(&server)).collect();
        wait_for_stats(&server, "both slots occupied", |st| st.active == 2);

        // The third socket is shed: a 503 arrives unprompted, then EOF.
        let mut shed = connect(&server);
        let mut bytes = Vec::new();
        shed.read_to_end(&mut bytes).expect("read shed response");
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 503 "), "expected cap 503: {text}");
        assert!(text.contains("\r\nRetry-After: 1\r\n"));
        wait_for_stats(&server, "shed counted", |st| {
            st.shed_connections == 1 && st.active == 2
        });

        // Held connections still serve.
        let healthz = b"GET /healthz HTTP/1.1\r\n\r\n";
        for s in &mut held {
            s.write_all(healthz).expect("write");
            let response = read_response(s);
            assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        }

        // Freeing a slot re-opens the door.
        drop(held.pop());
        wait_for_stats(&server, "slot freed", |st| st.active == 1);
        let mut next = connect(&server);
        next.write_all(healthz).expect("write");
        let response = read_response(&mut next);
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        server.stop();
    }
}

/// The blocking-job cap: four `/debug/trace` captures hold every slot, so
/// a fifth blocking request — a reload — is refused with a typed 503 at
/// once instead of starting another thread. Once the captures answer,
/// their slots are free again.
#[test]
fn blocking_jobs_beyond_the_cap_are_shed_with_503() {
    for event_loop in front_end_flags() {
        let gated = start_gated(event_loop, 8);
        let server = &gated.server;
        let mut captures: Vec<TcpStream> = (0..4)
            .map(|_| {
                let mut s = connect(server);
                s.write_all(b"GET /debug/trace?ms=2000 HTTP/1.1\r\n\r\n").expect("write");
                s
            })
            .collect();
        // A connection is "handling" only once its job was routed, so
        // this means all four slots are claimed.
        wait_for_stats(server, "four captures running", |st| st.handling == 4);

        let started = Instant::now();
        let mut reload = connect(server);
        reload.write_all(b"POST /reload HTTP/1.1\r\nContent-Length: 0\r\n\r\n").expect("write");
        let response = read_response(&mut reload);
        let waited = started.elapsed();
        assert!(response.starts_with("HTTP/1.1 503 "), "expected cap 503: {response}");
        assert!(response.contains("\r\nRetry-After: 1\r\n"), "503 must carry Retry-After");
        assert!(response.contains("too many blocking requests in flight"), "{response}");
        assert!(waited < Duration::from_secs(1), "shed at once, not queued: {waited:?}");

        for s in &mut captures {
            let answer = read_response(s);
            assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "capture: {answer}");
        }
        let mut probe = connect(server);
        probe.write_all(b"GET /debug/trace?ms=1 HTTP/1.1\r\n\r\n").expect("write");
        let answer = read_response(&mut probe);
        assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "slots released: {answer}");
        assert_eq!(server.conn_stats().shed_requests, 1);
        server.stop();
    }
}

/// A connection reset while its request is still being answered: the
/// request is answered all the same, so after the drain it counts once in
/// `requests` and once in `responses` on both front ends. The request is
/// a one-second trace capture, so `stop` starts while it still runs.
#[test]
fn shutdown_counts_answers_to_connections_already_gone() {
    for event_loop in front_end_flags() {
        let gated = start_gated(event_loop, 8);
        let mut gone = connect(&gated.server);
        gone.write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /debug/trace?ms=1000 HTTP/1.1\r\n\r\n")
            .expect("write");
        // The `/healthz` answer arrives and is left unread, so the close
        // below resets the connection.
        gone.peek(&mut [0u8; 1]).expect("healthz answer arrives");
        wait_for_stats(&gated.server, "capture running", |st| st.handling == 1);
        drop(gone);
        if event_loop {
            // The event loop frees the slot at once; the threaded handler
            // only learns of the reset when it writes.
            wait_for_stats(&gated.server, "reset connection closed", |st| st.active == 0);
        }
        gated.server.stop();
        let snapshot = gated.server.conn_stats();
        assert_eq!(snapshot.requests, 2, "healthz + capture: {snapshot:?}");
        assert_eq!(snapshot.responses, 2, "the capture was answered: {snapshot:?}");
    }
}

/// `/shutdown` while requests are mid-flight: the drain completes every
/// admitted request before the server exits — zero dropped.
#[test]
fn shutdown_drains_in_flight_requests() {
    for event_loop in front_end_flags() {
        let gated = start_gated(event_loop, 8);

        // One request pinned in the worker, one waiting in the queue.
        let mut pinned = connect(&gated.server);
        pinned.write_all(predict_request()).expect("write");
        gated.entered.recv_timeout(Duration::from_secs(5)).expect("worker entered run_batch");
        let mut waiting = connect(&gated.server);
        waiting.write_all(predict_request()).expect("write");
        let scheduler_stats = {
            let server = &gated.server;
            move || server.registry().default_model().stats()
        };
        wait_until("second request queued", || scheduler_stats().submitted == 2);

        // Shutdown is acknowledged while both are still unanswered.
        let mut admin = connect(&gated.server);
        admin.write_all(b"POST /shutdown HTTP/1.1\r\n\r\n").expect("write");
        let ack = read_response(&mut admin);
        assert!(ack.starts_with("HTTP/1.1 200 OK\r\n"), "shutdown ack: {ack}");

        let addr = gated.server.local_addr();
        let server = gated.server;
        // `stop()` performs the same drain `run()` ends with; doing it on a
        // side thread keeps this one free to read the draining responses.
        let waiter = std::thread::spawn(move || {
            server.stop();
            server.conn_stats()
        });

        // Release the gate; the drain must now flush both answers.
        drop(gated.release);
        let first = read_response(&mut pinned);
        assert!(first.contains("\"output\":[10"), "pinned request dropped: {first}");
        let second = read_response(&mut waiting);
        assert!(second.contains("\"output\":[10"), "queued request dropped: {second}");

        let snapshot = waiter.join().expect("run() returns after the drain");
        assert_eq!(snapshot.requests, 3, "pinned + queued + shutdown");
        assert_eq!(snapshot.responses, 3, "every admitted request was answered");
        assert_eq!(snapshot.inflight, 0);
        // The listener is gone: nothing new is served after the drain.
        let _ = TcpStream::connect(addr);
    }
}
