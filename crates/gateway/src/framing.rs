//! Newline framing over a socket with a read timeout.
//!
//! Both the gateway server and the router front tier read
//! newline-delimited JSON off sockets whose reads tick on a short
//! timeout (so the owning thread can notice shutdown and idle expiry).
//! A plain `BufRead::read_line` would lose a partial line at each
//! timeout tick; [`LineReader`] keeps the partial line buffered across
//! ticks and yields complete lines only.
//!
//! The hot path is [`LineReader::next_line_ref`], which yields each
//! line borrowed from a per-connection scratch buffer: after warm-up
//! the reader performs **zero allocations per line**, which matters
//! once batch requests make single lines carry hundreds of jobs.
//! [`LineReader::next_line`] is the owned-`String` convenience wrapper.

use std::io::{self, Read};
use std::net::TcpStream;

/// Longest line (newline excluded) a [`LineReader`] yields; a longer
/// one reports the connection as failed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What one [`LineReader::next_line`] call produced.
#[derive(Debug)]
pub enum LineEvent {
    /// A complete line (newline stripped; a preceding `\r` too).
    Line(String),
    /// The read timed out with no complete line; partial input stays
    /// buffered. The caller typically checks shutdown/idle state and
    /// calls again.
    TimedOut,
    /// The peer closed the connection cleanly.
    Eof,
    /// The connection failed (socket error or an over-long line).
    Failed,
}

/// What one [`LineReader::next_line_ref`] call produced: the borrowed
/// counterpart of [`LineEvent`]. The line borrows the reader's scratch
/// buffer and is valid until the next call.
#[derive(Debug)]
pub enum LineEventRef<'a> {
    /// A complete line (newline stripped; a preceding `\r` too),
    /// borrowed from the reader's reused scratch buffer.
    Line(&'a str),
    /// The read timed out with no complete line; partial input stays
    /// buffered.
    TimedOut,
    /// The peer closed the connection cleanly.
    Eof,
    /// The connection failed (socket error or an over-long line).
    Failed,
}

/// A newline-framed reader over a socket with a read timeout, keeping
/// partial lines buffered across timeout ticks.
#[derive(Debug)]
pub struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched without finding a
    /// newline, so a line arriving over many reads is scanned once,
    /// not once per read.
    scanned: usize,
    /// Scratch the current line is decoded into — reused across lines
    /// so steady-state reads allocate nothing.
    line: String,
}

impl LineReader {
    /// Wraps `stream`. The caller is responsible for having set a read
    /// timeout if it wants [`LineEvent::TimedOut`] ticks.
    pub fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            line: String::new(),
        }
    }

    /// Blocks until the next complete line, a timeout tick, EOF, or a
    /// failure. The returned line borrows this reader's scratch buffer
    /// (valid until the next call), so steady-state traffic pays no
    /// per-line allocation.
    pub fn next_line_ref(&mut self) -> LineEventRef<'_> {
        loop {
            if let Some(found) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let pos = self.scanned + found;
                if pos > MAX_LINE_BYTES {
                    return LineEventRef::Failed;
                }
                let mut end = pos;
                if end > 0 && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                self.line.clear();
                self.line
                    .push_str(&String::from_utf8_lossy(&self.buf[..end]));
                // A memmove of the tail, not a fresh allocation.
                self.buf.drain(..=pos);
                self.scanned = 0;
                return LineEventRef::Line(&self.line);
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                return LineEventRef::Failed;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineEventRef::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return LineEventRef::TimedOut;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return LineEventRef::Failed,
            }
        }
    }

    /// [`LineReader::next_line_ref`] copied into an owned `String`, for
    /// callers that need to keep the line past the next read.
    pub fn next_line(&mut self) -> LineEvent {
        match self.next_line_ref() {
            LineEventRef::Line(line) => LineEvent::Line(line.to_owned()),
            LineEventRef::TimedOut => LineEvent::TimedOut,
            LineEventRef::Eof => LineEvent::Eof,
            LineEventRef::Failed => LineEvent::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Duration;

    /// Sends `line` plus a newline over loopback in small writes and
    /// returns the length of the line the reader yields, or how it
    /// failed.
    fn read_one(line: Vec<u8>) -> Result<usize, &'static str> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut bytes = line;
            bytes.push(b'\n');
            for chunk in bytes.chunks(997) {
                // The reader may fail the connection early; stop quietly.
                if stream.write_all(chunk).is_err() {
                    return;
                }
            }
        });
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut reader = LineReader::new(stream);
        let event = loop {
            match reader.next_line_ref() {
                LineEventRef::TimedOut => continue,
                LineEventRef::Line(l) => {
                    assert!(l.bytes().all(|b| b == b'x'), "line content changed");
                    break Ok(l.len());
                }
                LineEventRef::Eof => break Err("eof"),
                LineEventRef::Failed => break Err("failed"),
            }
        };
        drop(reader);
        sender.join().unwrap();
        event
    }

    #[test]
    fn longest_line_arrives_intact_and_one_byte_more_fails() {
        assert_eq!(
            read_one(vec![b'x'; MAX_LINE_BYTES]),
            Ok(MAX_LINE_BYTES),
            "the longest allowed line must come back whole"
        );
        assert_eq!(read_one(vec![b'x'; MAX_LINE_BYTES + 1]), Err("failed"));
    }

    #[test]
    fn pipelined_lines_split_across_reads_stay_framed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let text: String = (0..200).map(|i| format!("line-{i}\r\n")).collect();
            for chunk in text.as_bytes().chunks(7) {
                stream.write_all(chunk).unwrap();
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = LineReader::new(stream);
        for i in 0..200 {
            match reader.next_line() {
                LineEvent::Line(line) => assert_eq!(line, format!("line-{i}")),
                other => panic!("line {i}: {other:?}"),
            }
        }
        assert!(matches!(reader.next_line(), LineEvent::Eof));
        sender.join().unwrap();
    }
}
