//! Readiness-based front end: one epoll-driven thread multiplexing every
//! connection.
//!
//! The loop owns a slab of [`Conn`] state machines, a non-blocking
//! listener, and an eventfd waker. Each iteration:
//!
//! 1. `epoll_wait` (timeout = the earliest idle deadline) for socket
//!    readiness, new connections, or a waker poke;
//! 2. drain readable sockets into their incremental parsers, route every
//!    complete request (shared [`route_request`]), and hand inference to
//!    the model's [`BatchScheduler`](crate::BatchScheduler) via
//!    [`submit_with`](crate::ModelEntry::submit_with) — the completion
//!    callback pushes onto [`LoopShared::completions`] and pokes the
//!    waker, so inference threads never touch a socket. Blocking routes
//!    (`/reload`, `/debug/trace`) run on a helper thread that answers
//!    through the same queue;
//! 3. drain the completion queue, encode responses into their reserved
//!    pipeline slots, and flush each connection's ready prefix as far as
//!    the socket allows.
//!
//! Batching is untouched: the scheduler sees the same `submit_with` stream
//! the threaded front end produces, just without a thread per connection.
//!
//! Overload and fault handling: accepts beyond
//! [`ServerConfig::max_connections`](super::ServerConfig::max_connections)
//! are answered `503` and closed; per-connection progress deadlines
//! (`read_timeout`) close idle connections, answer `408` mid-request, and
//! cut off stalled readers; a `stop` request drains — the listener is
//! deregistered, every connection finishes its pipeline, and the loop
//! exits when the last connection closes or the drain deadline passes.

use super::conn::Conn;
use super::parser::DEFAULT_MAX_HEAD;
use super::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP};
use super::{
    encode_response, encode_response_with, error_body, error_response, lock, prediction_parts,
    route_request, HttpShared, Routed, MAX_PIPELINE,
};
use crate::error::ServeError;
use crate::scheduler::Prediction;
use crate::stats::ConnTag;
use std::io::{self, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token of the eventfd waker.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// One finished piece of off-loop work on its way back to a connection.
/// `gen` and the pipeline sequence make stale completions (connection
/// closed, slot reused) inert — see the invariants on [`super::conn`].
struct Completion {
    conn: usize,
    gen: u64,
    seq: u64,
    /// Request ID (for the flight-recorder trace).
    id: u64,
    payload: Payload,
}

/// What a [`Completion`] delivers. Inference completions come from
/// scheduler workers; `Done` comes from the helper thread that runs a
/// [`Routed::Blocking`] job (a trace capture or a reload blocks, which
/// the loop thread never may).
enum Payload {
    Inference {
        /// Registry index of the model that served it.
        model: usize,
        result: Result<Prediction, ServeError>,
    },
    /// The blocking job's `(status, body)`.
    Done(u16, String),
}

/// State shared between the loop thread and scheduler completion
/// callbacks.
pub(crate) struct LoopShared {
    waker: EventFd,
    completions: Mutex<Vec<Completion>>,
}

/// Join handle for a running event loop.
pub(crate) struct EventLoopHandle {
    thread: JoinHandle<()>,
    shared: Arc<LoopShared>,
}

impl EventLoopHandle {
    /// Wakes the loop (the caller has already raised `stopping`) and waits
    /// for it to drain and exit.
    pub(crate) fn stop(self) {
        self.shared.waker.wake();
        let _ = self.thread.join();
    }
}

/// Binds the loop to an already-bound listener and spawns its thread.
pub(crate) fn start(listener: TcpListener, http: Arc<HttpShared>) -> io::Result<EventLoopHandle> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let shared = Arc::new(LoopShared {
        waker: EventFd::new()?,
        completions: Mutex::new(Vec::new()),
    });
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(shared.waker.raw_fd(), EPOLLIN, TOKEN_WAKER)?;
    let mut lp = EventLoop {
        epoll,
        listener,
        http,
        shared: Arc::clone(&shared),
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        draining: false,
        drain_deadline: None,
    };
    let thread = std::thread::Builder::new()
        .name("pecan-serve-epoll".into())
        .spawn(move || lp.run())?;
    Ok(EventLoopHandle { thread, shared })
}

struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    http: Arc<HttpShared>,
    shared: Arc<LoopShared>,
    /// Connection slab; the epoll token of a connection is its index.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = [EpollEvent::default(); 256];
        let mut scratch = vec![0u8; 16 << 10];
        loop {
            // One span per loop iteration, covering the epoll wait and
            // all dispatch: idle iterations trace as wall ≫ cpu, loaded
            // ones show dispatch cost.
            let _poll_span = pecan_obs::span("event_loop.poll");
            let timeout = self.next_timeout_ms(Instant::now());
            let Ok(n) = self.epoll.wait(&mut events, timeout) else { break };
            let now = Instant::now();
            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(now),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    idx => self.conn_event(idx as usize, bits, now, &mut scratch),
                }
            }
            self.drain_completions(now);
            // ordering: Relaxed — pure stop flag, pairs with the swap in
            // `Server::stop`; the eventfd wake that follows it already
            // synchronizes through the kernel, this load just reads the
            // decision.
            if !self.draining && self.http.stopping.load(Ordering::Relaxed) {
                self.begin_drain(now);
            }
            self.check_timeouts(now);
            if self.draining {
                if self.live == 0 {
                    break;
                }
                if self.drain_deadline.is_some_and(|d| now >= d) {
                    break; // drain deadline: force-close the stragglers
                }
            }
        }
    }

    /// `epoll_wait` timeout: the earliest connection deadline (or the
    /// drain deadline), `-1` when nothing is waiting on the clock.
    fn next_timeout_ms(&self, now: Instant) -> i32 {
        let mut earliest: Option<Instant> = if self.draining { self.drain_deadline } else { None };
        for conn in self.conns.iter().flatten() {
            if conn.pipeline.pending() > 0 {
                // Waiting on inference, not the client; no client deadline.
                continue;
            }
            let d = conn.last_activity + self.http.read_timeout;
            earliest = Some(earliest.map_or(d, |e| e.min(d)));
        }
        match earliest {
            None => -1,
            // +1ms so the wakeup lands past the deadline instead of
            // spinning just short of it.
            Some(t) => t.saturating_duration_since(now).as_millis().min(60_000) as i32 + 1,
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        if self.draining {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.live >= self.http.max_connections {
                        // Connection cap: typed 503, then close.
                        self.http.conn_stats.record_shed_connection();
                        crate::log_debug!(
                            "serve::event_loop",
                            "connection shed at cap",
                            live = self.live,
                        );
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.write(&encode_response(503, &error_body(503), false));
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    // Generations come from the server-wide mint shared
                    // with the threaded front end, so flight-recorder
                    // traces are unique across front ends.
                    let gen = self.http.mint_conn_gen();
                    let mut conn =
                        Conn::new(stream, gen, now, DEFAULT_MAX_HEAD, self.http.max_body);
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self
                        .epoll
                        .add(conn.stream.as_raw_fd(), interest, idx as u64)
                        .is_err()
                    {
                        self.free.push(idx);
                        continue;
                    }
                    conn.registered = interest;
                    self.conns[idx] = Some(conn);
                    self.live += 1;
                    self.http.conn_stats.record_accepted(ConnTag::Reading);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, idx: usize, bits: u32, now: Instant, scratch: &mut [u8]) {
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            if bits & EPOLLERR != 0 {
                self.close(idx);
                return;
            }
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0
                && conn.read_some(scratch, now).is_err()
            {
                self.close(idx);
                return;
            }
        }
        self.process_requests(idx, now);
        self.finish_io(idx, now);
    }

    /// Parses and routes every complete request buffered on `idx`, up to
    /// the pipeline cap (bounded buffering, invariant 3 of
    /// [`super::conn`]).
    fn process_requests(&mut self, idx: usize, now: Instant) {
        let _ = now;
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            if conn.close_after_flush
                || self.draining
                || conn.pipeline.len() >= MAX_PIPELINE
            {
                return;
            }
            match conn.parser.next_request() {
                Ok(None) => {
                    if conn.read_closed {
                        if conn.parser.mid_request() {
                            // EOF mid-request: same 400 the threaded front
                            // end answers.
                            self.http.conn_stats.record_request();
                            conn.pipeline
                                .push_ready(encode_response(400, &error_body(400), false));
                            self.http.conn_stats.record_response();
                        }
                        // Half-closed peer: flush what is owed, then close.
                        conn.close_after_flush = true;
                    }
                    return;
                }
                Ok(Some(req)) => {
                    self.http.conn_stats.record_request();
                    // Request IDs are minted at parse time from the
                    // server-wide mint shared with the threaded front end.
                    let id = self.http.mint_request_id();
                    // On this front end the request span covers routing and
                    // submission only — the inference wait happens off-loop
                    // and is visible as the matching `scheduler.batch` span
                    // (joined by id against `/debug/requests`).
                    let _req_span = pecan_obs::span_with_id("serve.request", id);
                    let keep_alive = req.keep_alive;
                    match route_request(&self.http, &req) {
                        Routed::Done { status, body, content_type, shutdown } => {
                            conn.pipeline.push_ready(encode_response_with(
                                status,
                                content_type,
                                &body,
                                keep_alive,
                            ));
                            self.http.conn_stats.record_response();
                            self.http.trace_request(id, conn.gen, None, status, None);
                            if shutdown {
                                conn.shutdown_after_flush = true;
                            }
                        }
                        Routed::Predict { idx: entry, input } => {
                            let seq = conn.pipeline.push_pending(keep_alive);
                            let gen = conn.gen;
                            let shared = Arc::clone(&self.shared);
                            let submit = self.http.registry.entry(entry).submit_with(
                                input,
                                Box::new(move |result| {
                                    lock(&shared.completions).push(Completion {
                                        conn: idx,
                                        gen,
                                        seq,
                                        id,
                                        payload: Payload::Inference { model: entry, result },
                                    });
                                    shared.waker.wake();
                                }),
                            );
                            match submit {
                                Ok(()) => self.http.conn_stats.inflight_add(),
                                Err(e) => {
                                    // Rejected synchronously (bad input,
                                    // hard queue bound, shutting down).
                                    let (status, body) = error_response(&e);
                                    conn.pipeline
                                        .complete(seq, encode_response(status, &body, keep_alive));
                                    self.http.conn_stats.record_response();
                                    self.http.trace_request(id, gen, Some(entry), status, None);
                                }
                            }
                        }
                        Routed::Blocking(job) => {
                            // The loop thread may never block, so a helper
                            // thread runs the job and delivers its answer
                            // through the completion queue like any
                            // inference answer.
                            let seq = conn.pipeline.push_pending(keep_alive);
                            let gen = conn.gen;
                            let shared = Arc::clone(&self.shared);
                            let spawned = std::thread::Builder::new()
                                .name("pecan-serve-blocking".into())
                                .spawn(move || {
                                    let (status, body) = job();
                                    lock(&shared.completions).push(Completion {
                                        conn: idx,
                                        gen,
                                        seq,
                                        id,
                                        payload: Payload::Done(status, body),
                                    });
                                    shared.waker.wake();
                                });
                            if spawned.is_err() {
                                let body = "{\"error\":\"cannot spawn helper thread\"}";
                                conn.pipeline
                                    .complete(seq, encode_response(500, body, keep_alive));
                                self.http.conn_stats.record_response();
                                self.http.trace_request(id, gen, None, 500, None);
                            }
                        }
                    }
                    if !keep_alive {
                        // `Connection: close`: the client promised nothing
                        // further; stop parsing (invariant 4).
                        conn.close_after_flush = true;
                        return;
                    }
                }
                Err(e) => {
                    let status = e.status();
                    conn.pipeline
                        .push_ready(encode_response(status, &error_body(status), false));
                    self.http.conn_stats.record_response();
                    conn.close_after_flush = true;
                    return;
                }
            }
        }
    }

    /// Encodes every completed inference (or blocking job) into its
    /// reserved pipeline slot.
    fn drain_completions(&mut self, now: Instant) {
        let completions = std::mem::take(&mut *lock(&self.shared.completions));
        for c in completions {
            // The span is recorded even when the connection is gone — the
            // work happened; only the delivery was moot.
            let (status, body) = match c.payload {
                Payload::Inference { model, result } => {
                    self.http.conn_stats.inflight_sub();
                    let (status, body) = prediction_parts(&result);
                    self.http
                        .trace_request(c.id, c.gen, Some(model), status, result.as_ref().ok());
                    (status, body)
                }
                Payload::Done(status, body) => {
                    self.http.trace_request(c.id, c.gen, None, status, None);
                    (status, body)
                }
            };
            let stale = 'check: {
                let Some(conn) = self.conns.get_mut(c.conn).and_then(Option::as_mut) else {
                    break 'check true;
                };
                if conn.gen != c.gen {
                    break 'check true; // slot reused; completion is inert
                }
                let Some(keep_alive) = conn.pipeline.pending_keep_alive(c.seq) else {
                    break 'check true;
                };
                conn.pipeline.complete(c.seq, encode_response(status, &body, keep_alive));
                self.http.conn_stats.record_response();
                false
            };
            if !stale {
                self.process_requests(c.conn, now); // pipeline cap may have cleared
                self.finish_io(c.conn, now);
            }
        }
    }

    /// Flushes, retags, re-registers interest, and closes `idx` if it is
    /// finished.
    fn finish_io(&mut self, idx: usize, now: Instant) {
        let close;
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            conn.flush_ready();
            if conn.try_write(now).is_err() {
                close = true;
            } else {
                if conn.shutdown_after_flush && conn.drained() {
                    conn.shutdown_after_flush = false;
                    // The /shutdown acknowledgement has fully left this
                    // socket; now the server may begin draining.
                    let _ = self.http.shutdown_tx.send(());
                }
                close = conn.drained() && (conn.close_after_flush || conn.read_closed);
                if !close {
                    let tag = conn.current_tag();
                    if tag != conn.tag {
                        self.http.conn_stats.record_retag(conn.tag, tag);
                        conn.tag = tag;
                    }
                    let want = conn.desired_interest(MAX_PIPELINE, self.draining);
                    if want != conn.registered
                        && self
                            .epoll
                            .modify(conn.stream.as_raw_fd(), want, idx as u64)
                            .is_ok()
                    {
                        conn.registered = want;
                    }
                }
            }
        }
        if close {
            self.close(idx);
        }
    }

    /// Closes and frees slot `idx`. Dropping the [`Conn`] closes the
    /// socket; its generation stays burned, so in-flight completions for
    /// it are dropped on arrival.
    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            let _ = self.epoll.remove(conn.stream.as_raw_fd());
            self.http.conn_stats.record_closed(conn.tag);
            self.free.push(idx);
            self.live -= 1;
        }
    }

    /// Enforces per-connection progress deadlines: `408` mid-request,
    /// silent close when idle between requests, cut-off for stalled
    /// readers. Connections waiting on inference are exempt — the client
    /// is not the slow party.
    fn check_timeouts(&mut self, now: Instant) {
        for idx in 0..self.conns.len() {
            let expired = {
                let Some(conn) = self.conns[idx].as_mut() else { continue };
                if conn.pipeline.pending() > 0
                    || now < conn.last_activity + self.http.read_timeout
                {
                    continue;
                }
                if conn.parser.mid_request() && conn.write_backlog() == 0 {
                    // Mid-request: the 408 the threaded front end answers,
                    // best-effort (the socket may be unwritable).
                    self.http.conn_stats.record_timeout();
                    crate::log_debug!(
                        "serve::event_loop",
                        "read timeout mid-request",
                        conn_gen = conn.gen,
                    );
                    let _ = conn.stream.write(&encode_response(408, &error_body(408), false));
                } else if conn.write_backlog() > 0 {
                    // Stalled reader: it cannot wedge the loop; cut it off.
                    self.http.conn_stats.record_timeout();
                    crate::log_debug!(
                        "serve::event_loop",
                        "stalled reader cut off",
                        conn_gen = conn.gen,
                        backlog = conn.write_backlog(),
                    );
                }
                true
            };
            if expired {
                self.close(idx);
            }
        }
    }

    /// Enters drain mode: stop accepting, finish every pipeline, close
    /// each connection as it empties.
    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = Some(now + self.http.read_timeout);
        crate::log_info!("serve::event_loop", "draining", live = self.live);
        let _ = self.epoll.remove(self.listener.as_raw_fd());
        for idx in 0..self.conns.len() {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.close_after_flush = true;
            } else {
                continue;
            }
            self.finish_io(idx, now);
        }
    }
}
