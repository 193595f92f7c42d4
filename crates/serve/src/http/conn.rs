//! Per-connection state machine for the event-loop front end.
//!
//! One [`Conn`] owns a non-blocking socket, the incremental
//! [`RequestParser`] holding the bytes read so far, and the write buffer
//! of the one response on its way out. It is always in exactly one of
//! the three states its [`ConnTag`] gauge reports:
//!
//! * `Reading`: no request in flight and nothing to write. The loop
//!   parses the next buffered request, and reads from the socket only
//!   when the parser needs bytes.
//! * `Handling`: one inference or blocking job is in flight; the socket
//!   is not read.
//! * `Writing`: one response is not yet flushed; the socket is not read.
//!
//! # Invariants
//!
//! The event loop relies on these; every method preserves them:
//!
//! 1. **Order.** A connection has one request in flight: the loop parses
//!    the next request only in `Reading`, which it re-enters only once
//!    the previous response has left the socket. Responses therefore
//!    leave in exactly the order their requests arrived, which is all
//!    HTTP/1.1 pipelining asks.
//! 2. **No blocking.** [`Conn::read_some`] and [`Conn::try_write`] only
//!    ever perform non-blocking socket calls; `WouldBlock` is a normal
//!    return, never an error.
//! 3. **Bounded buffering.** A connection holds at most one read chunk
//!    beyond a request within the parser's head and body limits, plus
//!    one response: it reads one chunk per readiness event, and only in
//!    `Reading` when the buffered bytes hold no complete request. A
//!    client that sends without reading is held back by TCP.
//! 4. **Monotonic teardown.** `close_after_flush` never reverts to
//!    `false`; once set, the connection parses no further requests and
//!    closes as soon as its response is flushed.
//! 5. **Stale completions are inert.** Every connection carries a
//!    generation (`gen`); a completion for a closed (possibly reused)
//!    slot compares generations and is dropped, so a mid-flight
//!    disconnect frees the slot immediately and the late inference result
//!    goes nowhere.

use crate::http::parser::{RequestParser, DEFAULT_MAX_HEAD};
use crate::http::MAX_BODY;
use crate::stats::{ConnStats, ConnTag};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One event-loop connection. See the module docs for the invariants.
#[derive(Debug)]
pub(crate) struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// Incremental request parser holding any partial request bytes.
    pub parser: RequestParser,
    write_buf: Vec<u8>,
    written: usize,
    /// Generation guarding against slot reuse (invariant 5).
    pub gen: u64,
    /// Last moment the socket made progress (bytes read or written); the
    /// idle/read timeout measures from here.
    pub last_activity: Instant,
    /// Peer sent FIN: no more requests arrive.
    pub read_closed: bool,
    /// Close once the response is flushed (invariant 4):
    /// `Connection: close`, a refused request, or server drain set this.
    pub close_after_flush: bool,
    /// The response being written acknowledges `/shutdown`; signal the
    /// server once it is flushed, so the client always reads its 200
    /// before teardown begins.
    pub shutdown_after_flush: bool,
    /// The epoll interest mask currently registered for this socket.
    pub registered: u32,
    /// The connection's state, which is also its gauge bucket; only
    /// [`Conn::set_state`] moves it, so the two never part.
    state: ConnTag,
}

impl Conn {
    /// Wraps an accepted socket. The caller has already set it
    /// non-blocking.
    pub fn new(stream: TcpStream, gen: u64, now: Instant) -> Self {
        Self {
            stream,
            parser: RequestParser::new(DEFAULT_MAX_HEAD, MAX_BODY),
            write_buf: Vec::new(),
            written: 0,
            gen,
            last_activity: now,
            read_closed: false,
            close_after_flush: false,
            shutdown_after_flush: false,
            registered: 0,
            state: ConnTag::Reading,
        }
    }

    /// The connection's state.
    pub fn state(&self) -> ConnTag {
        self.state
    }

    /// Moves the connection to `to`, moving its gauge with it.
    pub fn set_state(&mut self, to: ConnTag, stats: &ConnStats) {
        stats.record_retag(self.state, to);
        self.state = to;
    }

    /// One non-blocking read into `scratch`, fed to the parser. EOF sets
    /// [`Conn::read_closed`]; `WouldBlock` reads nothing.
    ///
    /// # Errors
    ///
    /// A hard socket error; the caller closes the connection.
    pub fn read_some(&mut self, scratch: &mut [u8], now: Instant) -> io::Result<()> {
        let n = loop {
            match self.stream.read(scratch) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                read => break read?,
            }
        };
        if n == 0 {
            self.read_closed = true;
        } else {
            self.parser.push(&scratch[..n]);
            self.last_activity = now;
        }
        Ok(())
    }

    /// Takes `bytes` as the response to write, counts it as handed on,
    /// and enters `Writing`.
    pub fn respond(&mut self, bytes: Vec<u8>, stats: &ConnStats) {
        self.write_buf = bytes;
        self.written = 0;
        stats.record_response();
        self.set_state(ConnTag::Writing, stats);
    }

    /// Non-blocking write of the response; stops at `WouldBlock`.
    /// Returns `true` once every byte has left.
    ///
    /// # Errors
    ///
    /// A hard socket error; the caller closes the connection.
    pub fn try_write(&mut self, now: Instant) -> io::Result<bool> {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.write_buf = Vec::new();
        self.written = 0;
        Ok(true)
    }

    /// Unflushed response bytes waiting for the socket.
    pub fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// The epoll interest mask of the current state (invariants 2 and
    /// 3): reads and RDHUP while `Reading`, writes while `Writing`,
    /// nothing but the always-reported errors and hang-ups while
    /// `Handling`.
    pub fn desired_interest(&self) -> u32 {
        use crate::http::sys::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};
        match self.state {
            ConnTag::Reading => EPOLLIN | EPOLLRDHUP,
            ConnTag::Handling => 0,
            ConnTag::Writing => EPOLLOUT,
        }
    }
}
