//! Minimal blocking client for the daemon's TCP transport — the worker
//! side of the live-share mode (`--optimum-server ADDR`).
//!
//! The client pipelines: it writes one [`Request`] line per query in a
//! single flush and then reads the matching [`Response`] lines back in
//! order (the daemon sequences replies per connection, even when it
//! processes a batch out of order), so a burst of queries lets the daemon's
//! adaptive coalescing window gather them into few batches.
//!
//! No threads, no timeouts, no retries: a worker that loses its optimum
//! server has no correct way to continue except deriving locally, and the
//! caller decides that — every failure surfaces as an `Err(String)` naming
//! what broke.

use crate::protocol::{Query, Reply, Request, Response};
use resilience::{CostModel, PatternOptimum, Platform, Theorem};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// A connected optimum client: one TCP connection, monotonically
/// increasing request ids.
pub struct OptimumClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl std::fmt::Debug for OptimumClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimumClient")
            .field("peer", &self.writer.peer_addr().ok())
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl OptimumClient {
    /// Connects to a daemon at `addr` (`HOST:PORT`).
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            next_id: 0,
        })
    }

    /// Pipelines `queries` and returns their replies in order.
    fn round_trip(&mut self, queries: &[Query]) -> Result<Vec<Reply>, String> {
        let first = self.next_id;
        let mut wire = String::new();
        for (k, query) in queries.iter().enumerate() {
            wire.push_str(
                &Request {
                    id: first + k as u64,
                    query: query.clone(),
                }
                .to_json_string(),
            );
            wire.push('\n');
        }
        self.next_id += queries.len() as u64;
        self.writer
            .write_all(wire.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("optimum server: write failed: {e}"))?;
        let mut replies = Vec::with_capacity(queries.len());
        let mut line = String::new();
        for k in 0..queries.len() {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("optimum server: read failed: {e}"))?;
            if n == 0 {
                return Err(format!(
                    "optimum server: connection closed after {k} of {} replies",
                    queries.len()
                ));
            }
            let response = Response::from_json_str(line.trim_end())
                .map_err(|e| format!("optimum server: malformed response: {e}"))?;
            let expected = first + k as u64;
            if response.id != expected {
                return Err(format!(
                    "optimum server: reply id {} arrived where {expected} was due \
                     (per-connection ordering violated)",
                    response.id
                ));
            }
            replies.push(
                response
                    .outcome
                    .map_err(|e| format!("optimum server: query rejected: {e}"))?,
            );
        }
        Ok(replies)
    }

    /// Fetches the optimum for every `(platform, costs, theorem)` cell, in
    /// order — one pipelined burst, so the daemon coalesces the lot.
    pub fn optima(
        &mut self,
        cells: &[(Platform, CostModel, Theorem)],
    ) -> Result<Vec<PatternOptimum>, String> {
        let queries: Vec<Query> = cells
            .iter()
            .map(|&(platform, costs, theorem)| Query::Optimum {
                platform,
                costs,
                theorem,
            })
            .collect();
        self.round_trip(&queries)?
            .into_iter()
            .map(|reply| match reply {
                Reply::Optimum(optimum) => Ok(optimum),
                other => Err(format!(
                    "optimum server: answered an optimum query with {other:?}"
                )),
            })
            .collect()
    }

    /// Fetches the daemon's whole optimum store as a snapshot document
    /// (verifiable and loadable via [`resilience::parse_snapshot`]).
    pub fn fetch_snapshot(&mut self) -> Result<String, String> {
        match self.round_trip(&[Query::OptimumSnapshot])?.pop() {
            Some(Reply::OptimumSnapshot(doc)) => Ok(doc),
            other => Err(format!(
                "optimum server: answered a snapshot query with {other:?}"
            )),
        }
    }
}
