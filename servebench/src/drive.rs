//! The load generators: a closed loop over a few connections and an
//! open loop paced by due instants. Both keep every raw response line
//! for the correctness gate.

use crate::workload::Unit;
use drift_gateway::protocol::{control_line, ControlOp};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a connection may wait for one response before the run
/// counts it as a transport error.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The longest single sleep of the open-loop sender. On a virtual
/// machine a longer idle lets the host deschedule the virtual CPU, and
/// waking it can then take milliseconds; short sleeps keep the sender
/// on time at a cost of a few wake-ups per request.
const SLEEP_SLICE: Duration = Duration::from_micros(100);

/// `PR_SET_TIMERSLACK` in `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Lets the calling thread's sleeps end when asked. By default Linux
/// may end a sleep up to 50 µs late so that timer wake-ups coincide, and
/// how late depends on the other timers on the CPU; with that slack the
/// open-loop sender was late by half of small-open's median latency.
fn exact_timers() -> Result<(), String> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long, the slack in
    // ns (1 is the least), and changes only the calling thread's slack.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) } == 0 {
        Ok(())
    } else {
        Err(format!(
            "prctl(PR_SET_TIMERSLACK): {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// One response line and when its request was due, sent and answered.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The request line's unit index (its job id or batch id).
    pub unit: usize,
    /// The raw response line, without the newline.
    pub line: String,
    /// When the request was due: its send instant in a closed loop, its
    /// slot on the schedule in an open loop.
    pub due: Instant,
    /// When the request was written.
    pub sent: Instant,
    /// When the response was read.
    pub done: Instant,
}

/// Everything one timed phase produced.
#[derive(Debug, Default)]
pub struct RunLog {
    /// Responses in arrival order per connection.
    pub answers: Vec<Answer>,
    /// Units whose request was written (`0..sent` in a closed loop may
    /// have holes only at the end; an open loop sends them all).
    pub sent: Vec<usize>,
    /// How late each request was written after it was due, µs (closed
    /// loop: the turnaround from the previous response).
    pub late_us: Vec<f64>,
    /// Connection failures, one message each.
    pub transport_errors: Vec<String>,
    /// Wall-clock length of the phase: first due instant to last
    /// response.
    pub wall_s: f64,
}

/// The write half of a connection, with a reusable line buffer.
struct Tx {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Tx {
    /// Writes every line in `lines` with one `write_all`.
    fn send<'a>(&mut self, lines: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
        self.buf.clear();
        for line in lines {
            self.buf.extend_from_slice(line.as_bytes());
            self.buf.push(b'\n');
        }
        self.stream
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))
    }
}

/// Reads one response line, without its newline.
fn recv(rx: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match rx.read_line(&mut line) {
        Ok(0) => Err("connection closed by the server".to_string()),
        Ok(_) => {
            line.truncate(line.trim_end().len());
            Ok(line)
        }
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// Connects to the front tier and waits for a ping to be answered, so
/// the connection is accepted and served before any timed request
/// uses it.
fn connect(addr: &str) -> Result<(Tx, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut rx = BufReader::with_capacity(
        1 << 16,
        stream.try_clone().map_err(|e| format!("{addr}: {e}"))?,
    );
    let mut tx = Tx {
        stream,
        buf: Vec::with_capacity(1 << 16),
    };
    tx.send([control_line(ControlOp::Ping).as_str()])?;
    let ack = recv(&mut rx)?;
    if !ack.contains("\"ok\":true") {
        return Err(format!("{addr} answered the ping with {ack:?}"));
    }
    Ok((tx, rx))
}

/// The leading `{"id":N` of a response line.
pub fn leading_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Sends warm-up lines one at a time and waits for each answer.
pub fn warm(addr: &str, units: &[Unit]) -> Result<(), String> {
    if units.is_empty() {
        return Ok(());
    }
    let (mut tx, mut rx) = connect(addr)?;
    for unit in units {
        tx.send([unit.line.as_str()])?;
        recv(&mut rx)?;
    }
    Ok(())
}

/// Closed loop: `connections` threads (the calling thread is one), each
/// with its own connection and `depth` requests in flight, take units in
/// order until `seconds` have passed or the units run out; each answer
/// releases the next request. Connections are opened before the clock
/// starts.
pub fn closed_loop(
    addr: &str,
    units: &[Unit],
    connections: usize,
    depth: usize,
    seconds: f64,
) -> Result<RunLog, String> {
    let mut conns = (0..connections.max(1))
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, String>>()?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mine = conns.pop().expect("at least one connection");
    let run = |conn| closed_connection(conn, units, depth.max(1), &next, stop);
    let mut logs = std::thread::scope(|s| {
        let others: Vec<_> = conns.into_iter().map(|c| s.spawn(move || run(c))).collect();
        let mut logs = vec![run(mine)];
        logs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("load thread panicked")),
        );
        logs
    });
    let mut log = logs.pop().unwrap_or_default();
    for other in logs {
        log.answers.extend(other.answers);
        log.sent.extend(other.sent);
        log.late_us.extend(other.late_us);
        log.transport_errors.extend(other.transport_errors);
    }
    let end = log.answers.iter().map(|a| a.done).max().unwrap_or(start);
    log.wall_s = end.duration_since(start).as_secs_f64();
    Ok(log)
}

fn closed_connection(
    (mut tx, mut rx): (Tx, BufReader<TcpStream>),
    units: &[Unit],
    depth: usize,
    next: &AtomicUsize,
    stop: Instant,
) -> RunLog {
    let mut log = RunLog::default();
    // Unit index -> send instant of every request in flight.
    let mut in_flight: Vec<(usize, Instant)> = Vec::with_capacity(depth);
    let mut previous: Option<Instant> = None;
    loop {
        while in_flight.len() < depth {
            let sent = Instant::now();
            if sent >= stop {
                break;
            }
            let u = next.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = units.get(u) else { break };
            if let Some(prev) = previous.take() {
                log.late_us
                    .push(sent.duration_since(prev).as_secs_f64() * 1e6);
            }
            if let Err(e) = tx.send([unit.line.as_str()]) {
                log.transport_errors.push(e);
                return log;
            }
            log.sent.push(u);
            in_flight.push((u, sent));
        }
        if in_flight.is_empty() {
            return log;
        }
        let line = match recv(&mut rx) {
            Ok(line) => line,
            Err(e) => {
                log.transport_errors.push(e);
                return log;
            }
        };
        let done = Instant::now();
        let id = leading_id(&line).map(|id| id as usize);
        // An answer that names no request in flight is kept for the
        // correctness gate and releases the oldest request.
        let slot = in_flight
            .iter()
            .position(|&(u, _)| Some(u) == id)
            .unwrap_or(0);
        let (u, sent) = in_flight.swap_remove(slot);
        log.answers.push(Answer {
            unit: id.unwrap_or(u),
            line,
            due: sent,
            sent,
            done,
        });
        previous = Some(done);
    }
}

/// Open loop on one connection: the calling thread sends unit `u` when
/// it falls due at `start + u / rate` (everything already due goes out
/// in one write), while a second thread reads the responses.
pub fn open_loop(addr: &str, units: &[Unit], rate: f64) -> Result<RunLog, String> {
    let mut log = RunLog::default();
    let (mut tx, mut rx) = connect(addr)?;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |u: usize| start + Duration::from_secs_f64(u as f64 / rate);
    let mut sent_at = vec![start; units.len()];

    let (answers, read_error) = std::thread::scope(|s| {
        let reading = s.spawn(|| {
            let mut answers = Vec::with_capacity(units.len());
            while answers.len() < units.len() {
                let line = match recv(&mut rx) {
                    Ok(line) => line,
                    Err(e) => return (answers, Some(e)),
                };
                let done = Instant::now();
                let unit = leading_id(&line).map_or(usize::MAX, |id| id as usize);
                answers.push((unit, line, done));
            }
            (answers, None)
        });
        if let Err(e) = exact_timers() {
            eprintln!("servebench: warning: the sender may wake late: {e}");
        }
        let mut u = 0;
        while u < units.len() {
            let now = Instant::now();
            if now < due(u) {
                std::thread::sleep((due(u) - now).min(SLEEP_SLICE));
                continue;
            }
            // Everything due by now goes out in one write.
            let first = u;
            while u < units.len() && due(u) <= now {
                u += 1;
            }
            let wrote = Instant::now();
            sent_at[first..u].fill(wrote);
            for v in first..u {
                log.late_us
                    .push(wrote.duration_since(due(v)).as_secs_f64() * 1e6);
                log.sent.push(v);
            }
            if let Err(e) = tx.send(units[first..u].iter().map(|x| x.line.as_str())) {
                log.transport_errors.push(e);
                break;
            }
        }
        if log.sent.len() < units.len() {
            // Unblock the reader: nothing more is coming.
            let _ = tx.stream.shutdown(std::net::Shutdown::Both);
        }
        reading.join().expect("reader thread panicked")
    });
    if let Some(e) = read_error {
        log.transport_errors.push(e);
    }
    let end = answers.iter().map(|a| a.2).max().unwrap_or(start);
    log.wall_s = end.saturating_duration_since(start).as_secs_f64();
    log.answers = answers
        .into_iter()
        .map(|(unit, line, done)| Answer {
            unit,
            line,
            due: if unit < units.len() { due(unit) } else { start },
            sent: sent_at.get(unit).copied().unwrap_or(start),
            done,
        })
        .collect();
    Ok(log)
}
