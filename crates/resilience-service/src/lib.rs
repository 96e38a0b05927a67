#![forbid(unsafe_code)]
//! Resilience-as-a-service: a long-lived daemon answering optimum,
//! overhead, and sweep-cell queries over line-delimited JSON.
//!
//! * [`protocol`] — the wire types ([`Request`], [`Query`], [`Response`],
//!   [`Reply`], [`ServiceStats`]) and their JSON encodings;
//! * [`batcher`] — the coalescing engine: concurrent submissions drain
//!   into batches against a shared [`resilience::OptimumCache`], under an
//!   adaptive window that grows when batches saturate and decays back to
//!   its minimum when traffic stops;
//! * [`server`] — stdin/stdout pipe and TCP transports with per-connection
//!   in-order responses, bounded request lines and connection counts, and
//!   clean shutdown;
//! * [`client`] — a blocking, pipelining TCP client: the worker side of
//!   the `--optimum-server` live-share mode, plus snapshot fetch.
//!
//! Answers are byte-identical to direct library calls: the cache is pinned
//! bit-identical to the closed forms it memoizes, and the JSON layer
//! renders losslessly. The service smoke tests
//! diff the daemon's bytes against locally computed responses.
//!
//! This crate is deliberately *outside* the determinism-pinned set (it
//! reads the wall clock for the batching window and spawns connection
//! threads); everything numeric stays in the pinned crates it calls.

pub mod batcher;
pub mod client;
pub mod protocol;
pub mod server;

pub use batcher::{BatchConfig, Batcher};
pub use client::OptimumClient;
pub use protocol::{Query, Reply, Request, Response, ServiceStats, ShardTrailer, WorkerEvent};
pub use server::{run_connection, run_connection_unblockable, serve_pipe, Server};

use std::io;
use std::sync::Arc;

/// Runs the pipe transport over this process's stdin/stdout until EOF or a
/// `shutdown` query. This is `resilience-cli serve` without `--port`.
pub fn serve_stdio(cfg: BatchConfig) -> io::Result<()> {
    let batcher = Batcher::new(cfg);
    // `StdinLock` is not `Send` (the reader crosses into a scoped thread),
    // so wrap the handle itself; it locks internally per read.
    let result = serve_pipe(
        io::BufReader::new(io::stdin()),
        io::stdout().lock(),
        &batcher,
    );
    batcher.shutdown();
    result
}

/// Runs the TCP daemon on `127.0.0.1:port` (0 picks an ephemeral port,
/// announced on stderr) until a `shutdown` query. This is
/// `resilience-cli serve --port P`.
pub fn serve_tcp(port: u16, cfg: BatchConfig) -> io::Result<()> {
    let batcher = Arc::new(Batcher::new(cfg));
    let server = Server::start(port, Arc::clone(&batcher))?;
    server.wait();
    batcher.shutdown();
    Ok(())
}
