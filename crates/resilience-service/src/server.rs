//! Connection handling: line-delimited JSON over stdin/stdout or TCP.
//!
//! Each connection runs a reader and a writer. The reader parses one
//! [`Request`] per line and submits it to the [`Batcher`] *immediately* —
//! it never waits for the previous answer — so a client that pipelines
//! requests gives the worker something to coalesce. The writer sends the
//! responses back strictly in request order, whatever order the batches
//! resolved them in, so clients can match answers positionally as well as
//! by id.
//!
//! Request lines are bounded: a line longer than [`MAX_REQUEST_LINE`]
//! bytes gets one `invalid request` reply and closes its connection, so a
//! client that never sends a newline cannot grow the daemon's memory.
//!
//! Connections are bounded too: while [`MAX_CONNECTIONS`] handlers are
//! live, the TCP accept loop answers each further connection with one
//! error line naming the cap and closes it, so a client that opens sockets
//! without end cannot grow the daemon's thread count.
//!
//! A `shutdown` query is acknowledged by the connection itself (it never
//! enters the batch queue): the writer emits the ack, then trips the
//! server's shutdown trigger. The TCP accept loop wakes, stops accepting,
//! and joins the remaining connection handlers; connections that are still
//! open keep answering until their client hangs up.

use crate::batcher::Batcher;
use crate::protocol::{Query, Reply, Request, Response};
use serde::{Deserialize, Serialize, Value};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// Longest request line the reader accepts, in bytes (newline excluded).
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Most TCP connections served at once; the accept loop refuses the rest.
pub const MAX_CONNECTIONS: usize = 64;

/// One response the writer owes the client, in request order.
struct PendingResponse {
    id: u64,
    /// `Some` when the batch worker owes the outcome; `None` means
    /// `immediate` already holds it (parse errors, shutdown acks).
    from_worker: Option<mpsc::Receiver<Result<Reply, String>>>,
    immediate: Option<Result<Reply, String>>,
    /// Trip the server shutdown after writing this response.
    shutdown_after: bool,
}

/// Serves one connection: reads requests, writes ordered responses.
/// Returns when the peer closes its write side or after a `shutdown` ack.
/// `on_shutdown` is invoked (once) after the shutdown ack is flushed.
pub fn run_connection<R, W>(
    reader: R,
    writer: W,
    batcher: &Batcher,
    on_shutdown: &(dyn Fn() + Sync),
) -> io::Result<()>
where
    R: BufRead + Send,
    W: Write,
{
    run_connection_unblockable(reader, writer, batcher, on_shutdown, &|| {})
}

/// [`run_connection`] with an explicit `unblock` hook, invoked exactly
/// when the writer abandons the connection because the client vanished
/// mid-request (a response write failed). A client disconnect must only
/// cost that client its connection:
///
/// * the response loop breaks instead of wedging, which drops the
///   per-request reply channels — the batch worker's sends for this
///   connection fall on the floor (it already tolerates dead receivers)
///   instead of piling up behind a writer that can never drain them;
/// * `unblock` then wakes the reader half (for TCP, by shutting the
///   socket down) so it stops submitting work for a client that will
///   never read the answers, and the connection scope can join.
///
/// The write error is still returned for observability; the accept loop
/// treats it as that client's problem, not the daemon's.
pub fn run_connection_unblockable<R, W>(
    reader: R,
    mut writer: W,
    batcher: &Batcher,
    on_shutdown: &(dyn Fn() + Sync),
    unblock: &(dyn Fn() + Sync),
) -> io::Result<()>
where
    R: BufRead + Send,
    W: Write,
{
    let (tx, rx) = mpsc::channel::<PendingResponse>();
    thread::scope(|scope| {
        scope.spawn(move || read_requests(reader, batcher, tx));
        for pending in rx {
            let outcome = match pending.from_worker {
                Some(worker_rx) => worker_rx
                    .recv()
                    .unwrap_or_else(|_| Err("batch worker is gone".to_owned())),
                None => pending
                    .immediate
                    .unwrap_or_else(|| Err("internal: empty response slot".to_owned())),
            };
            let response = Response {
                id: pending.id,
                outcome,
            };
            let wrote = writer
                .write_all(response.to_json_string().as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            if let Err(e) = wrote {
                unblock();
                return Err(e);
            }
            if pending.shutdown_after {
                on_shutdown();
                break;
            }
        }
        Ok(())
    })
}

/// Reader half: parse each line, submit, and queue the response slot. Stops
/// at EOF, on a broken channel (writer ended first), after `shutdown`, or
/// after replying to a line longer than [`MAX_REQUEST_LINE`]. Each line is
/// read into one reused buffer, never more than one byte past the limit.
fn read_requests<R: BufRead>(mut reader: R, batcher: &Batcher, tx: mpsc::Sender<PendingResponse>) {
    let limit = MAX_REQUEST_LINE as u64 + 1;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        if line.len() > MAX_REQUEST_LINE {
            let _ = tx.send(PendingResponse {
                id: 0,
                from_worker: None,
                immediate: Some(Err(format!(
                    "invalid request: line exceeds {MAX_REQUEST_LINE} bytes; closing connection"
                ))),
                shutdown_after: false,
            });
            return;
        }
        // A trailing `\r` is JSON whitespace, so CRLF lines parse as-is.
        let Ok(line) = std::str::from_utf8(line) else {
            return;
        };
        if line.trim().is_empty() {
            continue;
        }
        let pending = match Request::from_json_str(line) {
            Ok(Request {
                id,
                query: Query::Shutdown,
            }) => PendingResponse {
                id,
                from_worker: None,
                immediate: Some(Ok(Reply::ShuttingDown)),
                shutdown_after: true,
            },
            Ok(request) => PendingResponse {
                id: request.id,
                from_worker: Some(batcher.submit(request.query)),
                immediate: None,
                shutdown_after: false,
            },
            Err(err) => PendingResponse {
                // Best effort to echo the id even when the query is bad.
                id: salvage_id(line),
                from_worker: None,
                immediate: Some(Err(format!("invalid request: {err}"))),
                shutdown_after: false,
            },
        };
        let stop = pending.shutdown_after;
        if tx.send(pending).is_err() || stop {
            return;
        }
    }
}

/// Pulls the `id` out of a malformed request line when the document itself
/// still parses; 0 otherwise.
fn salvage_id(line: &str) -> u64 {
    serde::parse(line)
        .ok()
        .and_then(|doc: Value| doc.read("id").ok())
        .unwrap_or(0)
}

/// A TCP daemon: accept loop plus per-connection handler threads.
pub struct Server {
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `127.0.0.1:port` (port 0 picks an ephemeral port), announces
    /// `listening on 127.0.0.1:PORT` on stderr so harnesses can scrape the
    /// actual port, and starts the accept loop.
    pub fn start(port: u16, batcher: Arc<Batcher>) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        eprintln!("listening on {addr}");
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept = thread::spawn(move || accept_loop(&listener, addr, &batcher, &accept_stop));
        Ok(Server {
            addr,
            accept: Some(accept),
            stop,
        })
    }

    /// The bound address (resolves the actual port when started with 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon shuts down (a `shutdown` query, or
    /// [`stop`](Self::stop) from another thread).
    pub fn wait(mut self) {
        self.join_accept();
    }

    /// Trips shutdown from outside and joins the accept loop.
    pub fn stop(mut self) {
        trip_shutdown(&self.stop, self.addr);
        self.join_accept();
    }

    fn join_accept(&mut self) {
        if let Some(handle) = self.accept.take() {
            // A panicked handler already printed its message.
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            trip_shutdown(&self.stop, self.addr);
            self.join_accept();
        }
    }
}

/// Sets the stop flag and pokes the listener with a throwaway connection so
/// the blocking `accept` observes it.
fn trip_shutdown(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    // Failing to connect is fine: the listener is already gone.
    let _ = TcpStream::connect(addr);
}

/// One live connection handler, counted in the accept loop's tally until
/// the handler ends (however it ends).
struct LiveConnection<'a>(&'a AtomicUsize);

impl Drop for LiveConnection<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: &TcpListener,
    addr: SocketAddr,
    batcher: &Arc<Batcher>,
    stop: &Arc<AtomicBool>,
) {
    let live = AtomicUsize::new(0);
    thread::scope(|scope| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else {
                continue;
            };
            if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                // One short line fits the fresh socket's send buffer, so
                // this write does not block the accept loop. Dropping the
                // stream closes it.
                let refusal = Response {
                    id: 0,
                    outcome: Err(format!(
                        "server busy: {MAX_CONNECTIONS} connections already open \
                         (MAX_CONNECTIONS); closing connection"
                    )),
                };
                let _ = stream.write_all((refusal.to_json_string() + "\n").as_bytes());
                continue;
            }
            live.fetch_add(1, Ordering::SeqCst);
            let slot = LiveConnection(&live);
            let batcher = Arc::clone(batcher);
            let stop = Arc::clone(stop);
            scope.spawn(move || {
                let _slot = slot;
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let Ok(unblock_half) = stream.try_clone() else {
                    return;
                };
                let on_shutdown = move || trip_shutdown(&stop, addr);
                // When the client vanishes mid-request, shut the socket
                // down both ways so the reader half wakes from its
                // blocking read instead of waiting on a dead peer.
                let unblock = move || {
                    let _ = unblock_half.shutdown(std::net::Shutdown::Both);
                };
                // Per-connection I/O errors only affect that client.
                let _ = run_connection_unblockable(
                    BufReader::new(read_half),
                    stream,
                    &batcher,
                    &on_shutdown,
                    &unblock,
                );
            });
        }
    });
}

/// Serves the pipe transport (stdin/stdout): one connection, then done.
/// Returns on EOF or after a `shutdown` ack.
pub fn serve_pipe<R, W>(reader: R, writer: W, batcher: &Batcher) -> io::Result<()>
where
    R: BufRead + Send,
    W: Write,
{
    run_connection(reader, writer, batcher, &|| {})
}
