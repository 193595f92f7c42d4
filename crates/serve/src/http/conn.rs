//! Per-connection state machine for the event-loop front end.
//!
//! One [`Conn`] owns a non-blocking socket and moves bytes through four
//! cooperating pieces: a read buffer feeding the incremental
//! [`RequestParser`], a response [`Pipeline`] keeping answers in request
//! order, and a write buffer flushed as far as the socket allows.
//!
//! # Invariants
//!
//! The event loop relies on these; every method preserves them:
//!
//! 1. **Order.** Responses leave the socket in exactly the order their
//!    requests arrived, even when inferences complete out of order: a
//!    response slot is reserved ([`Pipeline::push_pending`]) at parse time and
//!    only the *ready prefix* of the pipeline is ever moved to the write
//!    buffer ([`Conn::flush_ready`]). HTTP/1.1 pipelining is exactly this
//!    guarantee.
//! 2. **No blocking.** [`Conn::read_some`] and [`Conn::try_write`] only
//!    ever perform non-blocking socket calls; `WouldBlock` is a normal
//!    return, never an error.
//! 3. **Bounded buffering.** The event loop stops parsing (and eventually
//!    stops reading) once `pipeline.len()` reaches the configured cap, so
//!    a client that floods requests without reading responses cannot grow
//!    server-side buffers without bound.
//! 4. **Monotonic teardown.** `close_after_flush` never reverts to
//!    `false`; once set, the connection parses no further requests and
//!    closes as soon as the pipeline and write buffer drain
//!    ([`Conn::drained`]).
//! 5. **Stale completions are inert.** Every connection carries a
//!    generation (`gen`); a completion for a closed (possibly reused)
//!    slot compares generations and is dropped, so a mid-flight
//!    disconnect frees the slot immediately and the late inference result
//!    goes nowhere.

use crate::http::parser::RequestParser;
use crate::stats::ConnTag;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One slot of the response pipeline.
#[derive(Debug)]
enum Slot {
    /// Inference (or a blocking job) submitted; its completion carries
    /// everything needed to encode the answer.
    Pending,
    /// Encoded response bytes waiting for their turn on the wire.
    Ready(Vec<u8>),
}

/// Response slots in request order (invariant 1). Sequence numbers are
/// per-connection and strictly increasing; `base` is the sequence of the
/// front slot.
#[derive(Debug, Default)]
pub(crate) struct Pipeline {
    slots: VecDeque<Slot>,
    base: u64,
    next: u64,
}

impl Pipeline {
    /// Total slots (pending + ready) not yet flushed to the write buffer.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Submitted-but-unanswered slots.
    pub fn pending(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, Slot::Pending)).count()
    }

    /// Reserves the next in-order slot for an in-flight inference and
    /// returns its sequence number.
    pub fn push_pending(&mut self) -> u64 {
        let seq = self.next;
        self.next += 1;
        self.slots.push_back(Slot::Pending);
        seq
    }

    /// Appends an already-encoded response (immediate routes: `/healthz`,
    /// errors, shed 503s) in order.
    pub fn push_ready(&mut self, bytes: Vec<u8>) {
        self.next += 1;
        self.slots.push_back(Slot::Ready(bytes));
    }

    /// Fills a pending slot with its encoded response. Returns `false`
    /// for a stale sequence (slot already flushed or never pending).
    pub fn complete(&mut self, seq: u64, bytes: Vec<u8>) -> bool {
        let Some(offset) = seq.checked_sub(self.base) else { return false };
        match self.slots.get_mut(offset as usize) {
            Some(slot @ Slot::Pending) => {
                *slot = Slot::Ready(bytes);
                true
            }
            _ => false,
        }
    }

    /// Pops the ready prefix, preserving order past the first still-pending
    /// slot, and appends it to `out`.
    pub fn flush_into(&mut self, out: &mut Vec<u8>) {
        while matches!(self.slots.front(), Some(Slot::Ready(_))) {
            let Some(Slot::Ready(bytes)) = self.slots.pop_front() else { unreachable!() };
            out.extend_from_slice(&bytes);
            self.base += 1;
        }
    }
}

/// One event-loop connection. See the module docs for the invariants.
#[derive(Debug)]
pub(crate) struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// Incremental request parser holding any partial request bytes.
    pub parser: RequestParser,
    /// In-order response slots.
    pub pipeline: Pipeline,
    write_buf: Vec<u8>,
    written: usize,
    /// Generation guarding against slot reuse (invariant 5).
    pub gen: u64,
    /// Last moment the socket made progress (bytes read or written); the
    /// idle/read timeout measures from here.
    pub last_activity: Instant,
    /// Peer sent FIN: no more requests, but pending responses still flush.
    pub read_closed: bool,
    /// Close once drained (invariant 4): `Connection: close`, a parse
    /// error, or server drain set this.
    pub close_after_flush: bool,
    /// A `/shutdown` acknowledgement is in the pipeline; signal the server
    /// once this connection is drained so the client always reads its 200
    /// before teardown begins.
    pub shutdown_after_flush: bool,
    /// The epoll interest mask currently registered for this socket.
    pub registered: u32,
    /// The gauge bucket this connection currently occupies.
    pub tag: ConnTag,
}

impl Conn {
    /// Wraps an accepted socket. The caller has already set it
    /// non-blocking.
    pub fn new(stream: TcpStream, gen: u64, now: Instant, max_head: usize, max_body: usize) -> Self {
        Self {
            stream,
            parser: RequestParser::new(max_head, max_body),
            pipeline: Pipeline::default(),
            write_buf: Vec::new(),
            written: 0,
            gen,
            last_activity: now,
            read_closed: false,
            close_after_flush: false,
            shutdown_after_flush: false,
            registered: 0,
            tag: ConnTag::Reading,
        }
    }

    /// Non-blocking read into `scratch`, feeding the parser. Returns
    /// `Ok(true)` if any bytes arrived, `Ok(false)` on `WouldBlock`/EOF
    /// (EOF additionally sets [`Conn::read_closed`]).
    ///
    /// # Errors
    ///
    /// A hard socket error; the caller closes the connection.
    pub fn read_some(&mut self, scratch: &mut [u8], now: Instant) -> io::Result<bool> {
        let mut any = false;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(any);
                }
                Ok(n) => {
                    self.parser.push(&scratch[..n]);
                    self.last_activity = now;
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Moves the pipeline's ready prefix into the write buffer.
    pub fn flush_ready(&mut self) {
        self.pipeline.flush_into(&mut self.write_buf);
    }

    /// Non-blocking write of the buffered bytes; stops at `WouldBlock`.
    ///
    /// # Errors
    ///
    /// A hard socket error; the caller closes the connection.
    pub fn try_write(&mut self, now: Instant) -> io::Result<()> {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.written += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
        } else if self.written > 64 << 10 {
            // Reclaim the flushed prefix of a large backlog.
            self.write_buf.drain(..self.written);
            self.written = 0;
        }
        Ok(())
    }

    /// Unflushed response bytes waiting for the socket.
    pub fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Everything produced so far has left the socket and no response is
    /// outstanding.
    pub fn drained(&self) -> bool {
        self.pipeline.len() == 0 && self.write_backlog() == 0
    }

    /// The gauge bucket this connection belongs to right now
    /// (write backlog > in-flight inference > reading).
    pub fn current_tag(&self) -> ConnTag {
        if self.write_backlog() > 0 {
            ConnTag::Writing
        } else if self.pipeline.pending() > 0 {
            ConnTag::Handling
        } else {
            ConnTag::Reading
        }
    }

    /// The epoll interest mask this connection wants right now
    /// (invariants 2 and 3): reads while open and under the pipeline cap,
    /// writes while a backlog exists, RDHUP always.
    pub fn desired_interest(&self, max_pipeline: usize, draining: bool) -> u32 {
        use crate::http::sys::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};
        let mut mask = EPOLLRDHUP;
        if !self.read_closed
            && !self.close_after_flush
            && !draining
            && self.pipeline.len() < max_pipeline
        {
            mask |= EPOLLIN;
        }
        if self.write_backlog() > 0 {
            mask |= EPOLLOUT;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_preserves_request_order_across_out_of_order_completions() {
        let mut p = Pipeline::default();
        let a = p.push_pending();
        let b = p.push_pending();
        p.push_ready(b"C".to_vec());
        assert_eq!(p.len(), 3);
        assert_eq!(p.pending(), 2);

        // B completes before A: nothing may flush yet.
        assert!(p.complete(b, b"B".to_vec()));
        let mut out = Vec::new();
        p.flush_into(&mut out);
        assert!(out.is_empty(), "front still pending");

        assert!(p.complete(a, b"A".to_vec()));
        p.flush_into(&mut out);
        assert_eq!(out, b"ABC", "responses leave in request order");
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn stale_and_double_completions_are_rejected() {
        let mut p = Pipeline::default();
        let a = p.push_pending();
        assert!(p.complete(a, b"A".to_vec()));
        assert!(!p.complete(a, b"again".to_vec()), "double completion is inert");

        let mut out = Vec::new();
        p.flush_into(&mut out);
        assert!(!p.complete(a, b"late".to_vec()), "flushed slot is stale");
        assert!(!p.complete(999, b"never".to_vec()), "never-reserved slot is stale");
        assert_eq!(out, b"A");
    }
}
