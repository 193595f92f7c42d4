//! Thread-per-connection front end: the portable fallback.
//!
//! A blocking accept loop hands each connection to a detached handler
//! thread. Admission, counting, records, refusals and encoding go through
//! the protocol core on [`HttpShared`] and routing through
//! [`route_request`], as on the event loop; what is this front end's own
//! is how it reads, waits and writes. A handler blocks on its socket,
//! waits on [`ModelEntry::predict`](crate::ModelEntry::predict) — whose
//! completion callback sends into a ticket — runs blocking routes
//! (`/reload`, `/debug/trace`) itself, and counts each response after its
//! `write_all`. It retags its connection through the same
//! `reading → handling → writing` gauge states the event loop reports, so
//! `/stats` and `/metrics` mean the same thing on both front ends.

use super::parser::{RequestParser, DEFAULT_MAX_HEAD};
use super::{prediction_parts, route_request, HttpShared, Routed, CT_JSON, MAX_BODY};
use crate::stats::ConnTag;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(crate) fn accept_loop(listener: &TcpListener, shared: &Arc<HttpShared>) {
    for stream in listener.incoming() {
        // ordering: Relaxed — pure stop flag, pairs with the swap in
        // `Server::stop`, which also pokes the listener with a connect
        // so this loop wakes up to observe it; no data rides on it.
        if shared.stopping.load(Ordering::Relaxed) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        if !shared.admit(&mut stream) {
            continue;
        }
        let conn_shared = Arc::clone(shared);
        // Handler threads are detached: a graceful stop drains the
        // scheduler, so in-flight requests still get answers before the
        // process exits.
        let spawned = std::thread::Builder::new()
            .name("pecan-serve-conn".into())
            .spawn(move || {
                // `handle_connection` always leaves the tag at Reading, so
                // this close accounting balances the admission above.
                handle_connection(stream, &conn_shared);
                conn_shared.conn_stats.record_closed(ConnTag::Reading);
            });
        if spawned.is_err() {
            shared.conn_stats.record_closed(ConnTag::Reading);
        }
    }
}

/// Moves the connection's gauge from `*tag` to `to`.
fn set_tag(shared: &HttpShared, tag: &mut ConnTag, to: ConnTag) {
    shared.conn_stats.record_retag(*tag, to);
    *tag = to;
}

/// Serves one connection until close. Invariant: the connection's gauge
/// tag is `Reading` on entry and on every return path — the caller's
/// `record_closed(Reading)` relies on it.
fn handle_connection(mut stream: TcpStream, shared: &Arc<HttpShared>) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.read_timeout));
    let _ = stream.set_nodelay(true);
    let conn_gen = shared.mint_conn_gen();
    let mut tag = ConnTag::Reading;
    let mut parser = RequestParser::new(DEFAULT_MAX_HEAD, MAX_BODY);
    loop {
        let request = match read_one_request(&mut stream, &mut parser) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean EOF between requests
            Err(status) => {
                let _ = stream.write_all(&shared.refuse(conn_gen, status));
                shared.conn_stats.record_response();
                return;
            }
        };
        let ex = shared.begin(conn_gen, request.keep_alive);
        // The request span carries the flight-recorder request id, so a
        // `/debug/trace` timeline joins against `/debug/requests`. On this
        // front end it covers routing, the scheduler wait and the write.
        let req_span = pecan_obs::span_with_id("serve.request", ex.id);
        let mut initiate_shutdown = false;
        let response = match route_request(shared, &request) {
            Routed::Done { status, body, content_type, shutdown } => {
                initiate_shutdown = shutdown;
                shared.answer(&ex, None, (status, content_type, &body), None)
            }
            Routed::Predict { idx, input } => {
                set_tag(shared, &mut tag, ConnTag::Handling);
                shared.conn_stats.inflight_add();
                let result = shared.registry.entry(idx).predict(input);
                shared.conn_stats.inflight_sub();
                let (status, body) = prediction_parts(&result);
                shared.answer(&ex, Some(idx), (status, CT_JSON, &body), result.as_ref().ok())
            }
            Routed::Blocking(job) => {
                // Blocking is fine here: the job only ties down this
                // connection's handler thread.
                set_tag(shared, &mut tag, ConnTag::Handling);
                let (status, body) = job();
                shared.answer(&ex, None, (status, CT_JSON, &body), None)
            }
        };
        set_tag(shared, &mut tag, ConnTag::Writing);
        let written = stream.write_all(&response);
        // Counted whether or not the write succeeded: the request was
        // answered, only the delivery failed. `Server::stop` waits for
        // this count to catch up with `requests`.
        shared.conn_stats.record_response();
        drop(req_span);
        set_tag(shared, &mut tag, ConnTag::Reading);
        if initiate_shutdown {
            // Signal only after the acknowledgement left this socket, so a
            // client posting /shutdown always reads its 200 before the
            // process starts tearing down.
            let _ = shared.shutdown_tx.send(());
        }
        if written.is_err() || !ex.keep_alive {
            return;
        }
    }
}

/// Blocks until the parser yields one request. `Ok(None)` is a clean close
/// between requests; `Err(status)` is the status to refuse the request
/// with before closing (parse errors, `400` for EOF mid-request, `408`
/// for a read timeout mid-request).
fn read_one_request(
    stream: &mut TcpStream,
    parser: &mut RequestParser,
) -> Result<Option<super::parser::Request>, u16> {
    loop {
        match parser.next_request() {
            Ok(Some(r)) => return Ok(Some(r)),
            Ok(None) => {}
            Err(e) => return Err(e.status()),
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return if parser.mid_request() { Err(400) } else { Ok(None) },
            Ok(n) => parser.push(&chunk[..n]),
            Err(_) => return if parser.mid_request() { Err(408) } else { Ok(None) },
        }
    }
}
