//! The connection loop shared by the gateway and the router.
//!
//! ```text
//!   acceptor thread (non-blocking listener)
//!        │ spawns one reader per connection
//!        ▼
//!   reader ──LineService::handle_line──▶ (server-specific admission)
//!        │                                        │ Reply
//!        └─ owns ─▶ writer thread ◀───────────────┘
//! ```
//!
//! Both tiers speak newline-delimited JSON over plain TCP and need the
//! same plumbing around their request handling; a server supplies only
//! a [`LineService`]:
//!
//! * the **acceptor** polls a non-blocking listener, spawning one
//!   reader thread per connection and reaping finished ones;
//! * each **reader** frames lines with [`LineReader`], ticking on
//!   [`READ_TICK`] so it notices shutdown and idle expiry, and hands
//!   every non-empty line to the service;
//! * each reader's paired **writer** sends [`Reply`] lines in order. A
//!   write that fails or stalls past [`WRITE_TIMEOUT`] flips it into
//!   discard mode: the rest are drained and counted as dropped, so
//!   in-flight senders never block on a dead peer;
//! * **drain**: a reader exits once the service stops or the line
//!   handler says so, then joins its writer — which returns only after
//!   every sender clone (one per request still in flight) is gone, i.e.
//!   after all accepted work on that connection has been answered.
//!   [`Acceptor::join`] waits for all of it.

use crate::framing::{LineEventRef, LineReader};
use crossbeam::channel::{unbounded, Receiver, Sender};
use drift_obs::{SpanRecord, TraceId, Tracer};
use std::io::{self, Write};
use std::net::TcpListener;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads and the acceptor wake up to check shutdown
/// and idle expiry.
pub const READ_TICK: Duration = Duration::from_millis(100);
/// A connection writer gives a slow client this long per response
/// before treating the connection as stalled and discarding the rest.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One queued response line, plus the (trace id, request span) the
/// writer parents a `response_write` span under (`None` for control
/// acks and untraced requests).
#[derive(Debug, Clone)]
pub struct Reply {
    /// The response line, without its newline.
    pub line: String,
    /// Where the `response_write` span goes, when traced.
    pub trace: Option<(TraceId, u64)>,
}

impl Reply {
    /// An untraced reply.
    pub fn plain(line: String) -> Reply {
        Reply { line, trace: None }
    }
}

/// What a server plugs into the shared connection loop.
pub trait LineService: Send + Sync + 'static {
    /// True once the server is stopping or draining: the acceptor and
    /// every reader exit at their next tick.
    fn should_stop(&self) -> bool;

    /// Close a connection after this long without a complete line;
    /// `0` disables idle expiry.
    fn idle_timeout_ms(&self) -> u64;

    /// The tracer traced replies' `response_write` spans go to.
    fn tracer(&self) -> &Tracer;

    /// A connection opened (`true`) or closed (`false`).
    fn connection(&self, opened: bool);

    /// Handles one non-empty request line, sending its replies on
    /// `reply` now or later. Returns `false` when the connection should
    /// stop reading (a shutdown control).
    fn handle_line(&self, line: &str, reply: &Sender<Reply>) -> bool;

    /// A reply was dropped: its client was gone or stalled.
    fn response_dropped(&self);
}

/// A running acceptor and the registry of its connection threads.
#[derive(Debug)]
pub struct Acceptor {
    thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Acceptor {
    /// Binds `addr` (port 0 picks a free port) as the non-blocking
    /// listener [`Acceptor::spawn`] expects.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str) -> io::Result<TcpListener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(listener)
    }

    /// Starts accepting on `listener` (from [`Acceptor::bind`]), serving
    /// each connection through `service`. Threads are named
    /// `{name}-acceptor`, `{name}-conn` and `{name}-writer`.
    ///
    /// # Errors
    ///
    /// Propagates a failure to spawn the acceptor thread.
    pub fn spawn<S: LineService>(
        listener: TcpListener,
        service: Arc<S>,
        name: &'static str,
    ) -> io::Result<Acceptor> {
        let conns = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name(format!("{name}-acceptor"))
                .spawn(move || accept_loop(&listener, &service, &conns, name))?
        };
        Ok(Acceptor {
            thread: Some(thread),
            conns,
        })
    }

    /// Joins the acceptor, then every connection (each after flushing
    /// its in-flight replies). Call once the service's `should_stop`
    /// is true, or this waits for every client to leave.
    pub fn join(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection registry"));
        for conn in conns {
            let _ = conn.join();
        }
    }
}

fn accept_loop<S: LineService>(
    listener: &TcpListener,
    service: &Arc<S>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
    name: &'static str,
) {
    while !service.should_stop() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let service = Arc::clone(service);
                let handle = std::thread::Builder::new()
                    .name(format!("{name}-conn"))
                    .spawn(move || connection(stream, &service, name));
                if let Ok(handle) = handle {
                    let mut conns = conns.lock().expect("connection registry");
                    // Reap finished connections so a long-lived server
                    // does not accumulate dead handles.
                    conns.retain(|h| !h.is_finished());
                    conns.push(handle);
                }
            }
            Err(_) => std::thread::sleep(READ_TICK),
        }
    }
}

/// One connection's reader: frames request lines, hands them to the
/// service, and owns the paired writer thread's lifetime.
fn connection<S: LineService>(stream: TcpStream, service: &Arc<S>, name: &'static str) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    service.connection(true);

    let (reply_tx, reply_rx) = unbounded::<Reply>();
    let writer = {
        let service = Arc::clone(service);
        std::thread::Builder::new()
            .name(format!("{name}-writer"))
            .spawn(move || writer_loop(write_half, &reply_rx, &*service))
    };

    let mut lines = LineReader::new(stream);
    let mut last_activity = Instant::now();
    let idle = service.idle_timeout_ms();
    while !service.should_stop() {
        // The borrowed variant keeps each request line in the reader's
        // reused scratch buffer: no per-line allocation even when batch
        // lines carry hundreds of jobs.
        match lines.next_line_ref() {
            LineEventRef::Line(line) => {
                last_activity = Instant::now();
                if !line.trim().is_empty() && !service.handle_line(line, &reply_tx) {
                    break;
                }
            }
            LineEventRef::TimedOut => {
                if idle > 0 && last_activity.elapsed() >= Duration::from_millis(idle) {
                    break;
                }
            }
            LineEventRef::Eof | LineEventRef::Failed => break,
        }
    }
    // Dropping our sender lets the writer exit once every in-flight
    // request's clone is gone — i.e. after all accepted work is answered.
    drop(reply_tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
    service.connection(false);
}

/// Writes reply lines until every sender is gone; see the module docs
/// for discard mode.
fn writer_loop<S: LineService>(mut stream: TcpStream, replies: &Receiver<Reply>, service: &S) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let tracer = service.tracer();
    let mut dead = false;
    // Response scratch, reused across replies: after warm-up the writer
    // performs zero allocations per response line (batch responses can
    // run to hundreds of KiB, so recycling the capacity matters).
    let mut buf: Vec<u8> = Vec::new();
    for reply in replies.iter() {
        if !dead {
            let write_start = reply.trace.map(|t| (t, Instant::now()));
            buf.clear();
            buf.extend_from_slice(reply.line.as_bytes());
            buf.push(b'\n');
            dead = stream.write_all(&buf).is_err() || stream.flush().is_err();
            if let Some(((trace, req_span), start)) = write_start {
                tracer.record(&SpanRecord {
                    service: None,
                    trace,
                    span: tracer.new_span_id(),
                    parent: Some(req_span),
                    stage: "response_write",
                    start,
                    end: Instant::now(),
                    job: None,
                    attrs: &[("outcome", if dead { "dropped" } else { "ok" })],
                });
            }
            if !dead {
                continue;
            }
        }
        service.response_dropped();
    }
}
