//! The TCP front end: thread-per-connection line protocol plus the
//! cache-watcher thread that hot-swaps snapshots.
//!
//! [`Server::start`] binds `127.0.0.1:<port>` (port 0 lets the OS pick —
//! tests use this), spawns an accept loop, and optionally a watcher that
//! polls the [`SourceStamp`](crate::source::SourceStamp) every
//! `poll_interval`. When the RIB or any resolved frame changes on disk,
//! the watcher re-resolves and re-loads a snapshot at the next
//! generation and publishes it; connections converge via their
//! [`ReaderHandle`](crate::state::ReaderHandle)s while in-flight queries
//! finish on the old pinned snapshot. A half-written cache (frames
//! mid-rewrite) fails validation and leaves the old snapshot serving;
//! the watcher counts the failure on the [`ServeState`] and retries on
//! the next tick.
//!
//! Each connection runs [`serve_lines`]: bounded request reads and one
//! write per reply (or per pipelined batch) on a `TCP_NODELAY` socket.

use crate::proto::{parse_line, push_u64, write_answer, Request};
use crate::snapshot::ServeSnapshot;
use crate::source::{ServeError, SourceSpec};
use crate::state::ServeState;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running serve instance. Dropping it (or calling [`Server::stop`])
/// shuts down the accept loop and watcher.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Load the initial snapshot from `spec`, bind `127.0.0.1:port`, and
    /// start serving. `poll_interval = None` disables hot-swap watching
    /// (one-shot test servers).
    pub fn start(
        spec: SourceSpec,
        port: u16,
        poll_interval: Option<Duration>,
    ) -> Result<Server, ServeError> {
        let snapshot = ServeSnapshot::load(&spec, 1)?;
        let state = Arc::new(ServeState::new(snapshot));
        let listener = TcpListener::bind(("127.0.0.1", port)).map_err(|e| ServeError::Io {
            path: std::path::PathBuf::from(format!("127.0.0.1:{port}")),
            detail: e.to_string(),
        })?;
        let addr = listener.local_addr().map_err(|e| ServeError::Io {
            path: std::path::PathBuf::from("local addr"),
            detail: e.to_string(),
        })?;
        listener.set_nonblocking(true).map_err(|e| ServeError::Io {
            path: std::path::PathBuf::from(format!("{addr}")),
            detail: e.to_string(),
        })?;

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                accept_loop(&listener, &state, &stop);
            }));
        }
        if let Some(interval) = poll_interval {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                watch_loop(&spec, &state, &stop, interval);
            }));
        }

        Ok(Server {
            addr,
            state,
            stop,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests publish through this directly).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Signal every loop to exit and join the threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let state = Arc::clone(state);
                // Connection threads are detached: they exit when the
                // client closes or sends `quit`, and the process exits
                // with outstanding connections on shutdown.
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &state);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Longest request line the server reads, newline included. A longer
/// line is answered `err serve: line too long` and the connection closes,
/// so a client can never make a connection buffer more than this.
pub const MAX_LINE: usize = 4096;

/// Pending replies are sent once they reach this many bytes, even while
/// more pipelined requests are already buffered.
pub const FLUSH_AT: usize = 64 * 1024;

/// Run one accepted connection: `TCP_NODELAY` on, then
/// [`serve_lines`] over the socket. The write side is shut down on
/// return, so a client cut off mid-line reads the `err` reply and then
/// end-of-file.
pub fn serve_connection(stream: TcpStream, state: &Arc<ServeState>) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let served = serve_lines(BufReader::new(&stream), &stream, state);
    let _ = stream.shutdown(Shutdown::Write);
    served
}

/// The request loop of one connection over any line source and sink.
///
/// Replies accumulate in one reused buffer and go out in a single
/// `write_all` just before a read that may block — when `reader` has no
/// buffered bytes left — or once [`FLUSH_AT`] bytes are pending. A
/// closed-loop client therefore gets one write per request and a
/// pipelined batch one write per batch. Request lines are read into a
/// reused buffer capped at [`MAX_LINE`]. After both buffers reach their
/// working size the loop allocates nothing, whatever the requests.
pub fn serve_lines<R: BufRead, W: Write>(
    mut reader: R,
    mut writer: W,
    state: &Arc<ServeState>,
) -> std::io::Result<()> {
    let mut handle = state.reader();
    let mut line: Vec<u8> = Vec::with_capacity(MAX_LINE);
    let mut out: Vec<u8> = Vec::new();
    // Bytes `reader` still holds from its last `fill_buf`; zero means
    // the next `fill_buf` may block on the peer.
    let mut buffered = 0usize;
    loop {
        line.clear();
        loop {
            if buffered == 0 && !out.is_empty() {
                writer.write_all(&out)?;
                out.clear();
            }
            let avail = reader.fill_buf()?;
            if avail.is_empty() {
                break;
            }
            let (take, newline) = match avail.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (avail.len(), false),
            };
            if line.len() + take > MAX_LINE {
                out.extend_from_slice(b"err serve: line too long\n");
                return writer.write_all(&out);
            }
            line.extend_from_slice(&avail[..take]);
            buffered = avail.len() - take;
            reader.consume(take);
            if newline {
                break;
            }
        }
        if line.is_empty() {
            // End of input; `buffered == 0` flushed every reply.
            return Ok(());
        }
        match std::str::from_utf8(&line).map(str::trim) {
            Err(_) => out.extend_from_slice(b"err serve: request is not UTF-8\n"),
            Ok("") => {}
            Ok(text) => match parse_line(text) {
                Some(Request::Quit) => break,
                Some(Request::Gen) => {
                    push_u64(&mut out, handle.snapshot().generation());
                    out.push(b'\n');
                }
                Some(Request::Query(q)) => write_answer(&handle.snapshot().answer(q), &mut out),
                None => {
                    out.extend_from_slice(b"err serve: bad query: ");
                    out.extend_from_slice(text.as_bytes());
                    out.push(b'\n');
                }
            },
        }
        if out.len() >= FLUSH_AT {
            writer.write_all(&out)?;
            out.clear();
        }
    }
    writer.write_all(&out)
}

/// Monotone generation source for hot-swap loads.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(2);

fn watch_loop(
    spec: &SourceSpec,
    state: &Arc<ServeState>,
    stop: &Arc<AtomicBool>,
    interval: Duration,
) {
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(interval);
        if stop.load(Ordering::Acquire) {
            return;
        }
        let current = state.current();
        let fresh = spec.stamp(current.frames());
        if &fresh == current.stamp() {
            continue;
        }
        // lint: allow(relaxed-ordering, the counter only needs unique monotone values; publication ordering is ServeState::publish's)
        let generation = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
        match ServeSnapshot::load(spec, generation) {
            Ok(snapshot) => state.publish(snapshot),
            // Cache mid-rewrite or broken: keep serving the pinned
            // snapshot, count the failure, and retry next tick.
            Err(e) => state.record_reload_failure(&e),
        }
    }
}
