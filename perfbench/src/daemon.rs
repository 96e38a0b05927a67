//! The `daemon_mixed` traffic: a seeded stream of interactive `optimum`
//! queries and pipelined `sweep_cell` bursts, the replies a direct library
//! call gives for each, and the two-connection TCP client that drives a
//! running daemon with them.

use crate::proc::{Daemon, Exit};
use crate::stats::Tally;
use resilience::{grid_spec, CostModel, Platform, Theorem};
use resilience_service::protocol::{Query, Reply, Request, Response, ServiceStats};
use serde::{Deserialize, Serialize};
use sim::{cell_seed, Rng};
use stats::rates::YEAR;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Interactive queries per daemon session: enough for a p90 with ten
/// samples beyond it from a single session.
pub const INTERACTIVE_PER_SESSION: usize = 100;
/// Queries per pipelined burst.
pub const BURST: usize = 64;
/// Per-axis size of the grid the pipelined connection queries (10³ cells,
/// 190 distinct optima, so nearly every query hits the daemon's cache).
pub const PIPE_GRID: u64 = 10;
/// Read deadline on both connections: a wedged daemon becomes a counted
/// failure, not a hung benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Keeps the pipelined index stream independent of the interactive one.
const PIPE_STREAM: u64 = 0x5049_5045;

/// One interactive query: its request line and the reply line a direct
/// library call renders for it.
pub struct Interactive {
    pub platform: Platform,
    pub costs: CostModel,
    pub request: String,
    pub expected: String,
}

/// A random platform and cost model: node counts 10³–10⁶, per-node MTBFs
/// of 25–12,800 years, costs of 30–600 s and any recall. Continuous draws,
/// so every query is a distinct optimum (a cache miss).
fn random_point(rng: &mut Rng) -> (Platform, CostModel) {
    let mut between = |lo: f64, hi: f64| lo + (hi - lo) * rng.uniform();
    let nodes = 10f64.powf(between(3.0, 6.0)) as u64;
    let years = 10f64.powf(between(25f64.log10(), 12_800f64.log10()));
    let silent_share = between(0.2, 1.0);
    let checkpoint = between(30.0, 600.0);
    let guaranteed = checkpoint * between(0.05, 0.5);
    let partial = guaranteed * between(0.01, 0.2);
    let recall = between(0.05, 0.95);
    (
        Platform::from_nodes(years * YEAR, silent_share * years * YEAR, nodes),
        CostModel::new(checkpoint, checkpoint, guaranteed, partial, recall),
    )
}

/// The interactive queries of session `session` at `seed`, ids from 1.
pub fn interactive_queries(seed: u64, session: u64) -> Vec<Interactive> {
    let mut rng = Rng::new(cell_seed(seed, session));
    (1..=INTERACTIVE_PER_SESSION as u64)
        .map(|id| {
            let (platform, costs) = random_point(&mut rng);
            let query = Query::Optimum {
                platform,
                costs,
                theorem: Theorem::Four,
            };
            let reply = Reply::Optimum(Theorem::Four.optimize(&platform, &costs));
            Interactive {
                platform,
                costs,
                request: Request { id, query }.to_json_string(),
                expected: Response {
                    id,
                    outcome: Ok(reply),
                }
                .to_json_string(),
            }
        })
        .collect()
}

/// Every cell of the pipelined grid as a query and as its expected `ok`
/// payload, rendered once so the client spends its time on the wire.
pub struct PipeTable {
    queries: Vec<String>,
    payloads: Vec<String>,
}

impl PipeTable {
    pub fn new() -> Self {
        let spec = grid_spec(PIPE_GRID as usize);
        let (queries, payloads) = (0..spec.len())
            .map(|i| {
                let cell = spec.cell_at(i);
                let query = Query::SweepCell {
                    grid_size: PIPE_GRID,
                    index: i as u64,
                };
                let reply = Reply::SweepCell {
                    index: i as u64,
                    name: cell.name.to_string(),
                    theorem: cell.theorem,
                    optimum: cell.theorem.optimize(&cell.platform, &cell.costs),
                };
                (query.to_json_string(), reply.to_json_string())
            })
            .unzip();
        Self { queries, payloads }
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Appends the request line for cell `index` under `id`.
    pub fn push_request(&self, out: &mut Vec<u8>, id: u64, index: usize) {
        // Same bytes as `Request { id, query }.to_json_string()`.
        writeln!(out, "{{\"id\":{id},\"query\":{}}}", self.queries[index])
            .expect("writing to a Vec cannot fail");
    }

    /// Whether `line` (without its newline) is the expected reply.
    pub fn reply_matches(&self, line: &[u8], id: u64, index: usize, scratch: &mut Vec<u8>) -> bool {
        scratch.clear();
        // Same bytes as `Response { id, outcome: Ok(reply) }.to_json_string()`.
        write!(scratch, "{{\"id\":{id},\"ok\":{}}}", self.payloads[index])
            .expect("writing to a Vec cannot fail");
        line == scratch.as_slice()
    }

    /// The index stream of the pipelined connection in session `session`.
    pub fn indices(&self, seed: u64, session: u64) -> impl FnMut() -> usize {
        let mut rng = Rng::new(cell_seed(seed ^ PIPE_STREAM, session));
        let n = self.len() as u64;
        move || (rng.next_u64() % n) as usize
    }
}

/// One daemon session: spawn, the two connections' traffic, the `stats`
/// query, shutdown and exit.
pub struct Session {
    pub setup_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    /// Interactive round trips, seconds.
    pub rtts: Vec<f64>,
    pub pipelined_replies: u64,
    /// Time the pipelined connection spent with a burst in flight.
    pub pipelined_s: f64,
    pub stats: Option<ServiceStats>,
    pub tally: Tally,
}

fn connect(addr: &str) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    // The client never delays its own sends, so any stall left is the
    // daemon's.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Reads one line without its newline; `None` on EOF, error or deadline.
fn read_reply(reader: &mut impl BufRead, line: &mut Vec<u8>) -> Option<()> {
    line.clear();
    match reader.read_until(b'\n', line) {
        Ok(n) if n > 0 && line.ends_with(b"\n") => {
            line.pop();
            Some(())
        }
        _ => None,
    }
}

/// Sends one request and reads the reply; the round trip in seconds.
fn round_trip(
    w: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    request: &str,
    line: &mut Vec<u8>,
) -> Option<f64> {
    let t = Instant::now();
    w.write_all(format!("{request}\n").as_bytes()).ok()?;
    read_reply(r, line)?;
    Some(t.elapsed().as_secs_f64())
}

/// Pipelined connection: bursts of [`BURST`] queries until `stop`.
fn pipelined(
    addr: &str,
    table: &PipeTable,
    mut next_index: impl FnMut() -> usize,
    stop: &AtomicBool,
) -> (u64, f64, Tally) {
    let mut tally = Tally::default();
    let Ok((mut w, mut r)) = connect(addr) else {
        tally.record_missing(1);
        return (0, 0.0, tally);
    };
    let (mut replies, mut busy) = (0u64, 0.0f64);
    let (mut buf, mut line, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    let mut indices = [0usize; BURST];
    let mut id = 0u64;
    while !stop.load(Ordering::Relaxed) {
        buf.clear();
        for (k, slot) in indices.iter_mut().enumerate() {
            *slot = next_index();
            table.push_request(&mut buf, id + k as u64 + 1, *slot);
        }
        let t = Instant::now();
        if w.write_all(&buf).is_err() {
            tally.record_missing(BURST as u64);
            break;
        }
        for (k, &index) in indices.iter().enumerate() {
            if read_reply(&mut r, &mut line).is_none() {
                tally.record_missing((BURST - k) as u64);
                return (replies, busy, tally);
            }
            let ok = table.reply_matches(&line, id + k as u64 + 1, index, &mut scratch);
            tally.record(&[!ok]);
            replies += 1;
        }
        busy += t.elapsed().as_secs_f64();
        id += BURST as u64;
    }
    (replies, busy, tally)
}

/// Runs one session of `daemon_mixed` traffic against a fresh daemon.
pub fn session(cli: &str, seed: u64, index: u64, table: &PipeTable) -> io::Result<Session> {
    let queries = interactive_queries(seed, index);
    let daemon = Daemon::start(cli)?;
    let setup_s = daemon.setup_s;
    let mut tally = Tally::default();
    let mut rtts = Vec::with_capacity(queries.len());
    let (mut w, mut r) = connect(&daemon.addr)?;
    let stop = AtomicBool::new(false);
    let mut line = Vec::new();
    let (pipelined_replies, pipelined_s, pipe_tally) = std::thread::scope(|s| {
        let pipe = s.spawn(|| pipelined(&daemon.addr, table, table.indices(seed, index), &stop));
        for (k, q) in queries.iter().enumerate() {
            match round_trip(&mut w, &mut r, &q.request, &mut line) {
                Some(rtt) => {
                    rtts.push(rtt);
                    tally.record(&[line != q.expected.as_bytes()]);
                }
                None => {
                    tally.record_missing((queries.len() - k) as u64);
                    break;
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        pipe.join().expect("pipelined client thread panicked")
    });
    tally.add(pipe_tally);

    let next_id = queries.len() as u64 + 1;
    let stats_request = Request {
        id: next_id,
        query: Query::Stats,
    };
    let stats = round_trip(&mut w, &mut r, &stats_request.to_json_string(), &mut line)
        .and_then(|_| Response::from_json_str(std::str::from_utf8(&line).ok()?).ok())
        .and_then(|resp| match resp.outcome {
            Ok(Reply::Stats(s)) if resp.id == next_id => Some(s),
            _ => None,
        });
    tally.record(&[stats.is_none()]);

    let (exit, wall_s, acked) = shut_down(daemon, w, r, next_id + 1)?;
    // The session itself is one operation: a clean shutdown and exit.
    tally.record(&[!acked, !exit.status.success()]);
    Ok(Session {
        setup_s,
        wall_s,
        peak_rss_mb: exit.peak_rss_mb,
        rtts,
        pipelined_replies,
        pipelined_s,
        stats,
        tally,
    })
}

/// Sends `shutdown` as request `id`, closes both halves of the
/// connection, and waits for the daemon to exit: `(exit, spawn-to-exit
/// seconds, whether the ack came back byte-exact)`.
fn shut_down(
    daemon: Daemon,
    mut w: TcpStream,
    mut r: BufReader<TcpStream>,
    id: u64,
) -> io::Result<(Exit, f64, bool)> {
    let request = Request {
        id,
        query: Query::Shutdown,
    };
    let ack = Response {
        id,
        outcome: Ok(Reply::ShuttingDown),
    };
    let mut line = Vec::new();
    let acked = round_trip(&mut w, &mut r, &request.to_json_string(), &mut line).is_some()
        && line == ack.to_json_string().as_bytes();
    drop((w, r));
    let (exit, wall_s) = daemon.finish(acked)?;
    Ok((exit, wall_s, acked))
}

/// Spawns a daemon, waits until it listens, and shuts it down: one more
/// `setup_s` sample. Returns the setup time and the tally of the shutdown.
pub fn setup_only(cli: &str) -> io::Result<(f64, Tally)> {
    let daemon = Daemon::start(cli)?;
    let setup_s = daemon.setup_s;
    let (w, r) = connect(&daemon.addr)?;
    let (exit, _, acked) = shut_down(daemon, w, r, 1)?;
    let mut tally = Tally::default();
    tally.record(&[!acked, !exit.status.success()]);
    Ok((setup_s, tally))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_lines_equal_the_protocol_rendering() {
        let table = PipeTable::new();
        let spec = grid_spec(PIPE_GRID as usize);
        let mut scratch = Vec::new();
        for (id, index) in [(1u64, 0usize), (77, 421), (u64::MAX, 999)] {
            let mut req = Vec::new();
            table.push_request(&mut req, id, index);
            let query = Query::SweepCell {
                grid_size: PIPE_GRID,
                index: index as u64,
            };
            let want = Request { id, query }.to_json_string() + "\n";
            assert_eq!(String::from_utf8(req).unwrap(), want);

            let cell = spec.cell_at(index);
            let reply = Response {
                id,
                outcome: Ok(Reply::SweepCell {
                    index: index as u64,
                    name: cell.name.to_string(),
                    theorem: cell.theorem,
                    optimum: cell.theorem.optimize(&cell.platform, &cell.costs),
                }),
            };
            let line = reply.to_json_string();
            assert!(table.reply_matches(line.as_bytes(), id, index, &mut scratch));
            assert!(!table.reply_matches(line.as_bytes(), id + 1, index, &mut scratch));
        }
    }

    #[test]
    fn interactive_stream_is_seeded_and_all_distinct() {
        let a = interactive_queries(7, 0);
        let b = interactive_queries(7, 0);
        let c = interactive_queries(8, 0);
        assert_eq!(a.len(), INTERACTIVE_PER_SESSION);
        assert!(a.iter().zip(&b).all(|(x, y)| x.request == y.request));
        assert!(a.iter().zip(&c).any(|(x, y)| x.request != y.request));
        let mut keys: Vec<String> = a
            .iter()
            .map(|q| format!("{:?} {:?}", q.platform, q.costs))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), a.len());
    }
}
