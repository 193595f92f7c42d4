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
//! Admission, request counting and IDs, flight-recorder records, refusals
//! and response encoding go through the protocol core on [`HttpShared`]
//! (`admit`, `begin`, `answer`, `refuse`), exactly as on the threaded
//! front end; each completion carries its request's [`Exchange`]. What is
//! this front end's own is how it reads, waits and writes, and that it
//! counts a response when the bytes join the connection's pipeline — or,
//! for a completion whose connection has gone, when it arrives: the
//! request was answered, only the delivery is moot.
//!
//! Batching is untouched: the scheduler sees the same `submit_with` stream
//! the threaded front end produces, just without a thread per connection.
//!
//! Overload and fault handling: the listener's accept queue holds
//! [`ServerConfig::max_connections`](super::ServerConfig::max_connections)
//! connects (up to the kernel's `somaxconn`), so a burst of them waits
//! for the loop instead of being dropped; accepts beyond that many open
//! connections are answered `503` and closed; per-connection progress
//! deadlines (`read_timeout`) close idle connections, answer `408`
//! mid-request, and cut off stalled readers; a `stop` request drains —
//! the listener is deregistered, every connection finishes its pipeline,
//! and the loop exits once the last connection has closed and every
//! counted request has its response counted, or when the drain deadline
//! passes.

use super::conn::Conn;
use super::sys::{
    set_backlog, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP,
};
use super::{
    error_response, prediction_parts, route_request, Exchange, HttpShared, Routed, CT_JSON,
    MAX_PIPELINE,
};
use crate::error::ServeError;
use crate::lock;
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
/// The exchange's `conn_gen` and the pipeline sequence make stale
/// completions (connection closed, slot reused) inert — see the
/// invariants on [`super::conn`].
struct Completion {
    conn: usize,
    seq: u64,
    /// The request this answers.
    ex: Exchange,
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

impl LoopShared {
    /// Queues `c` for the loop thread and wakes it.
    fn complete(&self, c: Completion) {
        lock(&self.completions).push(c);
        self.waker.wake();
    }
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
    // std listens with an accept queue of 128. A burst of connects beyond
    // it is dropped, and each dropped client resends its SYN only a second
    // later, so queue as many connections as the server holds open.
    set_backlog(listener.as_raw_fd(), http.max_connections)?;
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
    /// Its occupied slots are the server's `conn_stats.active()`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
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
                // Drained once every connection has closed and every
                // counted request has its response counted — what
                // `Server::stop` waits for on the threaded front end — so
                // an answer to a connection that already went still counts.
                let c = self.http.conn_stats.snapshot();
                if c.active == 0 && c.responses >= c.requests {
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
                    if !self.http.admit(&mut stream) {
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.http.conn_stats.record_closed(ConnTag::Reading);
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
                    let mut conn = Conn::new(stream, gen, now);
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self
                        .epoll
                        .add(conn.stream.as_raw_fd(), interest, idx as u64)
                        .is_err()
                    {
                        self.free.push(idx);
                        self.http.conn_stats.record_closed(ConnTag::Reading);
                        continue;
                    }
                    conn.registered = interest;
                    self.conns[idx] = Some(conn);
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
        self.process_requests(idx);
        self.finish_io(idx, now);
    }

    /// Parses and routes every complete request buffered on `idx`, up to
    /// the pipeline cap (bounded buffering, invariant 3 of
    /// [`super::conn`]).
    fn process_requests(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            if conn.close_after_flush
                || self.draining
                || conn.pipeline.len() >= MAX_PIPELINE
            {
                return;
            }
            let req = match conn.parser.next_request() {
                Ok(Some(req)) => req,
                Ok(None) if !conn.read_closed => return, // wait for more bytes
                Ok(None) if !conn.parser.mid_request() => {
                    // Half-closed peer: flush what is owed, then close.
                    conn.close_after_flush = true;
                    return;
                }
                // A request the parser refused, or EOF mid-request (`400`):
                // refuse it, then close.
                refused => {
                    let status = refused.err().map_or(400, |e| e.status());
                    conn.pipeline.push_ready(self.http.refuse(conn.gen, status));
                    self.http.conn_stats.record_response();
                    conn.close_after_flush = true;
                    return;
                }
            };
            let ex = self.http.begin(conn.gen, req.keep_alive);
            // On this front end the request span covers routing and
            // submission only — the inference wait happens off-loop and is
            // visible as the matching `scheduler.batch` span (joined by id
            // against `/debug/requests`).
            let _req_span = pecan_obs::span_with_id("serve.request", ex.id);
            match route_request(&self.http, &req) {
                Routed::Done { status, body, content_type, shutdown } => {
                    let bytes = self.http.answer(&ex, None, (status, content_type, &body), None);
                    conn.pipeline.push_ready(bytes);
                    self.http.conn_stats.record_response();
                    if shutdown {
                        conn.shutdown_after_flush = true;
                    }
                }
                Routed::Predict { idx: entry, input } => {
                    let seq = conn.pipeline.push_pending();
                    let shared = Arc::clone(&self.shared);
                    let submit = self.http.registry.entry(entry).submit_with(
                        input,
                        Box::new(move |result| {
                            shared.complete(Completion {
                                conn: idx,
                                seq,
                                ex,
                                payload: Payload::Inference { model: entry, result },
                            });
                        }),
                    );
                    match submit {
                        Ok(()) => self.http.conn_stats.inflight_add(),
                        Err(e) => {
                            // Rejected synchronously (bad input, hard queue
                            // bound, shutting down).
                            let (status, body) = error_response(&e);
                            let bytes =
                                self.http.answer(&ex, Some(entry), (status, CT_JSON, &body), None);
                            conn.pipeline.complete(seq, bytes);
                            self.http.conn_stats.record_response();
                        }
                    }
                }
                Routed::Blocking(job) => {
                    // The loop thread may never block, so a helper thread
                    // runs the job and delivers its answer through the
                    // completion queue like any inference answer.
                    let seq = conn.pipeline.push_pending();
                    let shared = Arc::clone(&self.shared);
                    let spawned = std::thread::Builder::new()
                        .name("pecan-serve-blocking".into())
                        .spawn(move || {
                            let (status, body) = job();
                            shared.complete(Completion {
                                conn: idx,
                                seq,
                                ex,
                                payload: Payload::Done(status, body),
                            });
                        });
                    if spawned.is_err() {
                        let body = "{\"error\":\"cannot spawn helper thread\"}";
                        let bytes = self.http.answer(&ex, None, (500, CT_JSON, body), None);
                        conn.pipeline.complete(seq, bytes);
                        self.http.conn_stats.record_response();
                    }
                }
            }
            if !ex.keep_alive {
                // `Connection: close`: the client promised nothing
                // further; stop parsing (invariant 4).
                conn.close_after_flush = true;
                return;
            }
        }
    }

    /// Encodes every completed inference (or blocking job) into its
    /// reserved pipeline slot.
    fn drain_completions(&mut self, now: Instant) {
        let completions = std::mem::take(&mut *lock(&self.shared.completions));
        for c in completions {
            let bytes = match c.payload {
                Payload::Inference { model, result } => {
                    self.http.conn_stats.inflight_sub();
                    let (status, body) = prediction_parts(&result);
                    let prediction = result.as_ref().ok();
                    self.http.answer(&c.ex, Some(model), (status, CT_JSON, &body), prediction)
                }
                Payload::Done(status, body) => {
                    self.http.answer(&c.ex, None, (status, CT_JSON, &body), None)
                }
            };
            // Recorded and counted even when the connection is gone: the
            // request was answered; only the delivery is moot.
            self.http.conn_stats.record_response();
            let delivered = self
                .conns
                .get_mut(c.conn)
                .and_then(Option::as_mut)
                // A reused slot has a new generation; the completion is inert.
                .filter(|conn| conn.gen == c.ex.conn_gen)
                .is_some_and(|conn| conn.pipeline.complete(c.seq, bytes));
            if delivered {
                self.process_requests(c.conn); // pipeline cap may have cleared
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
                    let _ = conn.stream.write(&self.http.refuse(conn.gen, 408));
                    self.http.conn_stats.record_response();
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
        crate::log_info!("serve::event_loop", "draining", active = self.http.conn_stats.active());
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
