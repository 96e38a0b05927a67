//! Smoke-test client for the resilience service daemon.
//!
//! Fires bursts of concurrent mixed queries (optima across all theorems,
//! overhead evaluations, canonical-grid sweep cells) at a running daemon
//! and verifies, for every single response, that the daemon's bytes are
//! identical to the same response rendered from a direct library call.
//! Then it checks the batching behaviour the daemon exists for:
//!
//! 1. at least one batch coalesced more than one query (retrying the burst
//!    a few times — coalescing is load-dependent, not guaranteed per run);
//! 2. after traffic stops, the adaptive window decays back to its minimum;
//! 3. with `--shutdown`, a shutdown query is acknowledged, the connection
//!    closes, and the port stops accepting.
//!
//! Exits 0 only when every check passes; any mismatch prints the offending
//! pair and exits 1. Used by the CI service smoke job and the e2e tests.

#![forbid(unsafe_code)]

use resilience::{first_order_overhead, grid_spec, reference_scenarios, Scenario, Theorem};
use resilience_service::batcher::DEFAULT_MIN_WINDOW_US;
use resilience_service::protocol::{Query, Reply, Request, Response};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::process::exit;
use std::thread;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("service-client: {msg}");
    exit(1);
}

/// Default `--timeout-secs`: generous against slow CI runners, but hard —
/// a wedged daemon fails the smoke with a named phase instead of hanging
/// the job until the runner's global timeout reaps it.
const DEFAULT_TIMEOUT_SECS: u64 = 60;

struct Args {
    addr: String,
    threads: usize,
    requests: usize,
    shutdown: bool,
    /// Hard deadline on every connect and read.
    timeout: Duration,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        threads: 16,
        requests: 64,
        shutdown: false,
        timeout: Duration::from_secs(DEFAULT_TIMEOUT_SECS),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--threads" => {
                args.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads: not a number"))
            }
            "--requests" => {
                args.requests = value("--requests")
                    .parse()
                    .unwrap_or_else(|_| fail("--requests: not a number"))
            }
            "--timeout-secs" => {
                let secs: u64 = value("--timeout-secs")
                    .parse()
                    .unwrap_or_else(|_| fail("--timeout-secs: not a number"));
                if secs == 0 {
                    fail("--timeout-secs must be at least 1 (the deadline exists so hangs become errors)");
                }
                args.timeout = Duration::from_secs(secs);
            }
            "--shutdown" => args.shutdown = true,
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if args.addr.is_empty() {
        fail("--addr HOST:PORT is required");
    }
    args
}

/// Whether an I/O error is the read deadline expiring (both kinds, since
/// platforms disagree on which one a timed-out socket read reports).
fn is_deadline(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Names an I/O failure while `waiting_for` something, turning a deadline
/// expiry into a diagnosable message instead of a CI hang.
fn named_io_error(phase: &str, waiting_for: &str, timeout: Duration, e: &io::Error) -> String {
    if is_deadline(e) {
        format!(
            "{phase}: deadline of {timeout:?} expired waiting for {waiting_for} — \
             the daemon accepted the connection but never answered \
             (wedged batcher or dead connection handler?)"
        )
    } else {
        format!("{phase}: while waiting for {waiting_for}: {e}")
    }
}

/// Connects with the hard deadline applied to the connect itself and to
/// every subsequent read on the stream.
fn connect_with_deadline(addr: &str, timeout: Duration, phase: &str) -> Result<TcpStream, String> {
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("{phase}: resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{phase}: {addr} resolves to no address"))?;
    let stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| named_io_error(phase, &format!("a connection to {addr}"), timeout, &e))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("{phase}: set read deadline: {e}"))?;
    Ok(stream)
}

/// The deterministic mixed query at position `i` of thread `t`, plus the
/// reply a direct library call produces for it.
fn query_at(scenarios: &[Scenario], t: usize, i: usize) -> (Query, Reply) {
    let s = &scenarios[(t + i) % scenarios.len()];
    let theorem = Theorem::ALL[(t * 7 + i) % Theorem::ALL.len()];
    match i % 3 {
        0 => (
            Query::Optimum {
                platform: s.platform,
                costs: s.costs,
                theorem,
            },
            Reply::Optimum(theorem.optimize(&s.platform, &s.costs)),
        ),
        1 => {
            let pattern = theorem.optimize(&s.platform, &s.costs).pattern;
            let h = first_order_overhead(&pattern, &s.platform, &s.costs);
            (
                Query::Overhead {
                    pattern,
                    platform: s.platform,
                    costs: s.costs,
                },
                Reply::Overhead(h),
            )
        }
        _ => {
            let grid = grid_spec(10);
            let index = (t * 131 + i * 7) % grid.len();
            let cell = grid.cell_at(index);
            (
                Query::SweepCell {
                    grid_size: 10,
                    index: index as u64,
                },
                Reply::SweepCell {
                    index: index as u64,
                    name: cell.name.to_string(),
                    theorem: cell.theorem,
                    optimum: cell.theorem.optimize(&cell.platform, &cell.costs),
                },
            )
        }
    }
}

/// One client connection: pipelines `requests` queries, then reads and
/// byte-verifies every response in order. Returns the verified count.
fn run_burst_thread(
    addr: &str,
    scenarios: &[Scenario],
    t: usize,
    requests: usize,
    timeout: Duration,
) -> Result<u64, String> {
    let phase = format!("burst thread {t}");
    let stream = connect_with_deadline(addr, timeout, &phase)?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut lines = Vec::with_capacity(requests);
    let mut expected = Vec::with_capacity(requests);
    for i in 0..requests {
        let (query, reply) = query_at(scenarios, t, i);
        let id = (t as u64) * 1_000_000 + i as u64;
        lines.push(Request { id, query }.to_json_string());
        expected.push(Response {
            id,
            outcome: Ok(reply),
        });
    }
    // One write for the whole burst: give the batcher something to coalesce.
    let payload = lines.join("\n") + "\n";
    writer
        .write_all(payload.as_bytes())
        .map_err(|e| format!("write burst: {e}"))?;
    writer.flush().map_err(|e| format!("flush: {e}"))?;
    let reader = BufReader::new(stream);
    let mut verified = 0u64;
    let mut got = reader.lines();
    for want in &expected {
        let line = got
            .next()
            .ok_or_else(|| format!("{phase}: connection closed before all responses arrived"))?
            .map_err(|e| {
                named_io_error(&phase, &format!("response id {}", want.id), timeout, &e)
            })?;
        let want_line = want.to_json_string();
        if line != want_line {
            return Err(format!(
                "byte mismatch for id {}:\n  daemon : {line}\n  library: {want_line}",
                want.id
            ));
        }
        verified += 1;
    }
    Ok(verified)
}

/// A single-query control connection. `phase` names what the smoke test is
/// currently waiting on, so a deadline expiry reads as "window decay probe
/// timed out" rather than a bare socket error.
struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    timeout: Duration,
    phase: &'static str,
}

impl Control {
    fn connect(addr: &str, timeout: Duration, phase: &'static str) -> Self {
        let stream = connect_with_deadline(addr, timeout, phase).unwrap_or_else(|msg| fail(&msg));
        let reader = BufReader::new(
            stream
                .try_clone()
                .unwrap_or_else(|e| fail(&format!("clone control stream: {e}"))),
        );
        Self {
            writer: stream,
            reader,
            next_id: 900_000_000,
            timeout,
            phase,
        }
    }

    fn roundtrip(&mut self, query: Query) -> Response {
        self.next_id += 1;
        let line = Request {
            id: self.next_id,
            query,
        }
        .to_json_string();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .unwrap_or_else(|e| fail(&format!("{}: control write: {e}", self.phase)));
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => fail(&format!(
                "{}: control connection closed mid-query",
                self.phase
            )),
            Ok(_) => {}
            Err(e) => fail(&named_io_error(
                self.phase,
                "the control response",
                self.timeout,
                &e,
            )),
        }
        Response::from_json_str(buf.trim_end())
            .unwrap_or_else(|e| fail(&format!("control response did not parse: {e}")))
    }

    fn stats(&mut self) -> resilience_service::ServiceStats {
        match self.roundtrip(Query::Stats).outcome {
            Ok(Reply::Stats(s)) => s,
            other => fail(&format!("stats query answered with {other:?}")),
        }
    }
}

fn main() {
    let args = parse_args();
    let scenarios = reference_scenarios();

    // Phase 1: concurrent mixed bursts, byte-diffed against the library.
    // Retried a few times if no batch happened to coalesce.
    let mut total_verified = 0u64;
    let mut coalesced = false;
    let mut rounds = 0u32;
    for round in 0..5 {
        rounds = round + 1;
        let verified: u64 = thread::scope(|scope| {
            let handles: Vec<_> = (0..args.threads)
                .map(|t| {
                    let addr = &args.addr;
                    let scenarios = &scenarios;
                    scope.spawn(move || {
                        run_burst_thread(addr, scenarios, t, args.requests, args.timeout)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(Ok(n)) => n,
                    Ok(Err(msg)) => fail(&msg),
                    Err(_) => fail("burst thread panicked"),
                })
                .sum()
        });
        total_verified += verified;
        let stats = Control::connect(&args.addr, args.timeout, "coalesce check").stats();
        if stats.coalesced_batches >= 1 && stats.max_batch > 1 {
            coalesced = true;
            break;
        }
    }
    if !coalesced {
        fail(&format!(
            "no coalesced batch observed after {rounds} burst rounds"
        ));
    }

    // Phase 2: quiesce and watch the adaptive window decay to its minimum.
    // Spaced single queries each close as singleton batches, halving the
    // window; the stats queries themselves are singletons too.
    let mut control = Control::connect(&args.addr, args.timeout, "window decay probe");
    let s = &scenarios[0];
    let mut decayed = None;
    for _ in 0..24 {
        thread::sleep(Duration::from_millis(8));
        let response = control.roundtrip(Query::Optimum {
            platform: s.platform,
            costs: s.costs,
            theorem: Theorem::Four,
        });
        if let Err(msg) = response.outcome {
            fail(&format!("decay probe failed: {msg}"));
        }
        let stats = control.stats();
        if stats.window_us == DEFAULT_MIN_WINDOW_US {
            decayed = Some(stats);
            break;
        }
    }
    let Some(final_stats) = decayed else {
        fail("adaptive window did not decay back to the minimum");
    };

    // Phase 3: optional clean shutdown.
    if args.shutdown {
        control.phase = "shutdown";
        let ack = control.roundtrip(Query::Shutdown);
        if ack.outcome != Ok(Reply::ShuttingDown) {
            fail(&format!("shutdown not acknowledged: {ack:?}"));
        }
        let mut buf = String::new();
        match control.reader.read_line(&mut buf) {
            Ok(0) => {}
            Ok(_) => fail("daemon kept talking after the shutdown ack"),
            Err(_) => {}
        }
        let mut refused = false;
        for _ in 0..50 {
            thread::sleep(Duration::from_millis(20));
            if TcpStream::connect(&args.addr).is_err() {
                refused = true;
                break;
            }
        }
        if !refused {
            fail("daemon still accepting connections after shutdown");
        }
    }

    println!(
        "ok: {total_verified} responses byte-identical to the library \
         ({} batches, {} coalesced, max batch {}, window back to {} us)",
        final_stats.batches,
        final_stats.coalesced_batches,
        final_stats.max_batch,
        final_stats.window_us,
    );
}
