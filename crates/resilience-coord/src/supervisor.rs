//! The coordinator: spawns, supervises, verifies, and merges shard workers.
//!
//! One event loop owns all unit state; per-attempt threads only pump a
//! worker's stdout/stderr and report back over a channel, so every
//! scheduling decision (retry, speculation, fallback, merge order) is made
//! in one place. The loop:
//!
//! 1. fills free worker slots with ready units (respecting retry backoff);
//! 2. waits for attempt events — heartbeats and completions;
//! 3. classifies each completion: abnormal exit ⇒ **fail-stop** (retry with
//!    backoff), clean exit with a bad or missing checksum trailer ⇒
//!    **silent error** (re-execute), clean exit with a verified trailer ⇒
//!    merge candidate (first verified result wins; late duplicates are
//!    discarded);
//! 4. watches heartbeats: a unit silent past its deadline gets one
//!    speculative duplicate; if the duplicate *also* goes silent, both are
//!    killed and the unit re-enters the retry path;
//! 5. streams verified units to the output writer strictly in unit order,
//!    so the merged bytes equal the serial unsharded run.
//!
//! A unit whose retries exceed `max_respawns` degrades to the in-process
//! `fallback` closure — the sweep still completes, just without process
//! isolation for that unit.
//!
//! This is the one module in the crate allowed to spawn threads (see the
//! `xtask lint` thread allowlist); it is supervision code, deliberately
//! outside the determinism-pinned set, and all its timing is either
//! injected (`deadline`, `backoff_base`) or seeded ([`retry_delay`]).

use crate::backoff::retry_delay;
use crate::plan::FaultPlan;
use crate::{unit_range, FAULT_ENV};
use resilience_service::protocol::{ShardTrailer, WorkerEvent};
use serde::{Deserialize, JsonError, Serialize, Value};
use stats::Fnv64;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long the event loop sleeps when no events arrive; bounds how late a
/// backoff expiry or deadline check can fire.
const TICK: Duration = Duration::from_millis(20);

/// Everything [`run`] needs to orchestrate one sweep slice.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// The worker binary (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// `--grid-size` forwarded to every worker.
    pub grid_size: usize,
    /// Total cells of the sweep the slice belongs to.
    pub cells: usize,
    /// The `(I, N)` slice of the sweep this coordinator owns; workers are
    /// dispatched as global `--shard J/(N·U)` sub-shards of it.
    pub slice: (usize, usize),
    /// Work units to split the slice into (`U`).
    pub units: usize,
    /// Worker-process slots (speculative duplicates may briefly exceed it).
    pub workers: usize,
    /// Seed for retry jitter ([`retry_delay`]).
    pub seed: u64,
    /// No heartbeat for this long marks a running unit as a straggler.
    pub deadline: Duration,
    /// Base retry delay; attempt `k` waits `base·2^(k-1)` ± jitter.
    pub backoff_base: Duration,
    /// Failed rounds a unit may accumulate before it abandons process
    /// isolation and runs in-process.
    pub max_respawns: u32,
    /// Injected faults (empty in production).
    pub plan: FaultPlan,
}

/// What happened during one orchestrated run, in the paper's vocabulary:
/// `fail_stop_retries` are re-executions after fail-stop errors,
/// `verify_failures` are silent errors caught by checksum verification,
/// `straggler_reassignments`/`duplicates_discarded` are the speculation
/// ledger, and `inproc_fallbacks` counts units that exhausted
/// `max_respawns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordReport {
    /// Work units the slice was split into.
    pub units: u64,
    /// Worker processes spawned (retries and duplicates included).
    pub workers_spawned: u64,
    /// Units re-dispatched after a worker died (abnormal exit status).
    pub fail_stop_retries: u64,
    /// Units re-executed because output verification failed.
    pub verify_failures: u64,
    /// Speculative duplicates launched for silent (straggling) units.
    pub straggler_reassignments: u64,
    /// Attempt results discarded because the unit was already merged.
    pub duplicates_discarded: u64,
    /// Units that fell back to in-process execution.
    pub inproc_fallbacks: u64,
    /// Bytes written to the merged output.
    pub merged_bytes: u64,
    /// Optimum-cache hits summed over the *merged* attempts only (plus
    /// fallback units), so the total is schedule-independent: retried and
    /// discarded-duplicate attempts never count.
    pub cache_hits: u64,
    /// Optimum-cache misses, same accounting. Workers start cold, so this
    /// is the sum over units of each unit's own distinct-optima count.
    pub cache_misses: u64,
}

impl Serialize for CoordReport {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("event", "summary".to_json()),
            ("units", self.units.to_json()),
            ("workers_spawned", self.workers_spawned.to_json()),
            ("fail_stop_retries", self.fail_stop_retries.to_json()),
            ("verify_failures", self.verify_failures.to_json()),
            (
                "straggler_reassignments",
                self.straggler_reassignments.to_json(),
            ),
            ("duplicates_discarded", self.duplicates_discarded.to_json()),
            ("inproc_fallbacks", self.inproc_fallbacks.to_json()),
            ("merged_bytes", self.merged_bytes.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
        ])
    }
}

impl Deserialize for CoordReport {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let event: String = v.read("event")?;
        if event != "summary" {
            return Err(JsonError::new(format!(
                "expected a summary event, got \"{event}\""
            )));
        }
        Ok(Self {
            units: v.read("units")?,
            workers_spawned: v.read("workers_spawned")?,
            fail_stop_retries: v.read("fail_stop_retries")?,
            verify_failures: v.read("verify_failures")?,
            straggler_reassignments: v.read("straggler_reassignments")?,
            duplicates_discarded: v.read("duplicates_discarded")?,
            inproc_fallbacks: v.read("inproc_fallbacks")?,
            merged_bytes: v.read("merged_bytes")?,
            cache_hits: v.read("cache_hits")?,
            cache_misses: v.read("cache_misses")?,
        })
    }
}

/// One in-process fallback unit's product: the rendered bytes plus the
/// cache hits and misses its rendering performed, so fallback units keep
/// the merged cache totals exact.
#[derive(Debug, Clone, Default)]
pub struct FallbackUnit {
    /// The unit's table bytes, exactly as a verified worker would have
    /// produced them.
    pub bytes: Vec<u8>,
    /// Optimum-cache hits this rendering performed.
    pub cache_hits: u64,
    /// Optimum-cache misses this rendering performed.
    pub cache_misses: u64,
}

/// How one attempt ended, as classified by the attempt thread.
enum Outcome {
    /// Clean exit, trailer present, digest/count re-verification passed.
    /// Carries the worker's cache counters off its trailer; they reach the
    /// report only if this attempt wins the unit.
    Verified {
        bytes: Vec<u8>,
        cache_hits: u64,
        cache_misses: u64,
    },
    /// The worker died: abnormal exit status (or it never spawned).
    FailStop(String),
    /// The worker claimed success but verification failed — the silent
    /// error class: missing trailer, wrong cell count, or digest mismatch.
    SilentError(String),
}

enum Event {
    /// Heartbeat from a worker's stderr progress stream.
    Progress { unit: usize },
    Finished {
        attempt: u64,
        unit: usize,
        outcome: Outcome,
    },
}

/// A live attempt: enough to kill it from the event loop. The attempt
/// thread takes the child out of the mutex (after stdout EOF) to reap it;
/// the loop only ever signals.
struct AttemptHandle {
    id: u64,
    child: Arc<Mutex<Option<Child>>>,
}

impl AttemptHandle {
    fn kill(&self) {
        let mut guard = self.child.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(child) = guard.as_mut() {
            // SIGKILL; reaping stays with the attempt thread. A child that
            // already exited makes this a no-op.
            let _ = child.kill();
        }
    }
}

enum UnitState {
    /// Not running; eligible to spawn once `not_before` passes (backoff).
    Waiting { not_before: Instant },
    /// At least one attempt in flight.
    Running,
    /// Attempts were killed after a double deadline miss; once they drain,
    /// the unit re-enters `Waiting` through the failure path.
    Draining,
    /// Verified bytes merged (or queued for merge).
    Done,
}

struct Unit {
    /// Global cell range (a `--shard global/total` slice).
    range: Range<usize>,
    /// Global sub-shard index; index 0 prints the table header.
    global: usize,
    /// Spawns so far — the fault plan arms spawn 0.
    spawns: u32,
    /// Failed rounds so far; drives backoff and the fallback cutoff.
    retries: u32,
    /// Whether this round already launched its speculative duplicate.
    speculated: bool,
    outstanding: Vec<AttemptHandle>,
    last_progress: Instant,
    state: UnitState,
}

/// Orchestrates one sweep slice: spawns workers over `cfg.units` sub-shard
/// units, supervises them, and streams the verified units to `out` in
/// order. `fallback(range, with_header)` renders a unit in-process when it
/// exhausts `max_respawns`. Returns the counters; `Err` only for
/// coordinator-side I/O failures (the merge writer), never for worker
/// failures — those are what the machinery absorbs.
pub fn run(
    cfg: &CoordConfig,
    out: &mut dyn Write,
    fallback: &mut dyn FnMut(Range<usize>, bool) -> io::Result<FallbackUnit>,
) -> io::Result<CoordReport> {
    let total_units = cfg.slice.1 * cfg.units;
    let first = cfg.slice.0 * cfg.units;
    let start = Instant::now();
    let mut report = CoordReport {
        units: cfg.units as u64,
        ..CoordReport::default()
    };
    let mut units: Vec<Unit> = (0..cfg.units)
        .map(|j| Unit {
            range: unit_range(cfg.cells, first + j, total_units),
            global: first + j,
            spawns: 0,
            retries: 0,
            speculated: false,
            outstanding: Vec::new(),
            last_progress: start,
            state: UnitState::Waiting { not_before: start },
        })
        .collect();
    let mut results: Vec<Option<Vec<u8>>> = (0..cfg.units).map(|_| None).collect();
    let mut merged = 0usize;
    let mut next_attempt = 0u64;
    let (tx, rx) = mpsc::channel::<Event>();

    loop {
        // Fill free worker slots with ready units, lowest index first so
        // the merge prefix completes as early as possible.
        let now = Instant::now();
        let in_flight: usize = units.iter().map(|u| u.outstanding.len()).sum();
        let mut slots = cfg.workers.saturating_sub(in_flight);
        for (local, unit) in units.iter_mut().enumerate() {
            if slots == 0 {
                break;
            }
            if matches!(unit.state, UnitState::Waiting { not_before } if not_before <= now) {
                spawn_attempt(cfg, unit, local, &mut next_attempt, &tx);
                report.workers_spawned += 1;
                slots -= 1;
            }
        }

        if units
            .iter()
            .all(|u| matches!(u.state, UnitState::Done) && u.outstanding.is_empty())
        {
            break;
        }

        match rx.recv_timeout(TICK) {
            Ok(Event::Progress { unit }) => units[unit].last_progress = Instant::now(),
            Ok(Event::Finished {
                attempt,
                unit,
                outcome,
            }) => {
                finish_attempt(
                    cfg,
                    &mut units[unit],
                    unit,
                    attempt,
                    outcome,
                    &mut results[unit],
                    &mut report,
                    fallback,
                )?;
                // Stream the completed prefix out in unit order.
                while merged < units.len() {
                    let Some(bytes) = results[merged].take() else {
                        break;
                    };
                    out.write_all(&bytes)?;
                    report.merged_bytes += bytes.len() as u64;
                    merged += 1;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Unreachable while we hold `tx`, but a clean break beats a
            // busy loop if that ever changes.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }

        // Straggler watch: one speculative duplicate per round; a second
        // silent deadline kills the round entirely.
        let now = Instant::now();
        for (local, unit) in units.iter_mut().enumerate() {
            let deadline_missed = matches!(unit.state, UnitState::Running)
                && !unit.outstanding.is_empty()
                && now.duration_since(unit.last_progress) >= cfg.deadline;
            if !deadline_missed {
                continue;
            }
            if !unit.speculated {
                unit.speculated = true;
                unit.last_progress = now;
                report.straggler_reassignments += 1;
                // Deliberately over the worker cap: the straggler is
                // occupying its slot, and waiting for it to free one is
                // exactly what speculation exists to avoid.
                spawn_attempt(cfg, unit, local, &mut next_attempt, &tx);
                report.workers_spawned += 1;
            } else {
                for a in &unit.outstanding {
                    a.kill();
                }
                unit.last_progress = now;
                unit.state = UnitState::Draining;
            }
        }
    }
    out.flush()?;
    drop(tx);
    Ok(report)
}

/// Applies one attempt's result to its unit. The first verified result
/// wins the unit; anything arriving after that is a discarded duplicate.
/// A failure only triggers a retry/fallback decision once the unit has no
/// other attempt still in flight (a speculative sibling may yet win).
#[allow(clippy::too_many_arguments)]
fn finish_attempt(
    cfg: &CoordConfig,
    unit: &mut Unit,
    local: usize,
    attempt: u64,
    outcome: Outcome,
    result: &mut Option<Vec<u8>>,
    report: &mut CoordReport,
    fallback: &mut dyn FnMut(Range<usize>, bool) -> io::Result<FallbackUnit>,
) -> io::Result<()> {
    unit.outstanding.retain(|a| a.id != attempt);
    if matches!(unit.state, UnitState::Done) {
        report.duplicates_discarded += 1;
        return Ok(());
    }
    match outcome {
        Outcome::Verified {
            bytes,
            cache_hits,
            cache_misses,
        } => {
            for a in &unit.outstanding {
                a.kill();
            }
            unit.state = UnitState::Done;
            // Only the winning attempt's counters merge, so the totals are
            // schedule-independent: each unit contributes exactly once no
            // matter how many retries or duplicates ran.
            report.cache_hits += cache_hits;
            report.cache_misses += cache_misses;
            *result = Some(bytes);
        }
        failure @ (Outcome::FailStop(_) | Outcome::SilentError(_)) => {
            if !unit.outstanding.is_empty() {
                // A sibling attempt is still running this round; let it
                // decide the unit's fate.
                return Ok(());
            }
            let (reason, silent) = match failure {
                Outcome::SilentError(r) => (r, true),
                Outcome::FailStop(r) => (r, false),
                Outcome::Verified { .. } => unreachable!("matched above"),
            };
            unit.retries += 1;
            if silent {
                report.verify_failures += 1;
            } else {
                report.fail_stop_retries += 1;
            }
            if unit.retries > cfg.max_respawns {
                report.inproc_fallbacks += 1;
                eprintln!(
                    "resilience-coord: unit {local} failed {} round(s) \
                     (last: {reason}); degrading to in-process execution",
                    unit.retries
                );
                let rendered = fallback(unit.range.clone(), unit.global == 0)?;
                report.cache_hits += rendered.cache_hits;
                report.cache_misses += rendered.cache_misses;
                *result = Some(rendered.bytes);
                unit.state = UnitState::Done;
            } else {
                let delay = retry_delay(cfg.seed, local, unit.retries, cfg.backoff_base);
                eprintln!(
                    "resilience-coord: unit {local} attempt failed ({reason}); \
                     retry {} in {delay:?}",
                    unit.retries
                );
                unit.state = UnitState::Waiting {
                    not_before: Instant::now() + delay,
                };
                unit.speculated = false;
            }
        }
    }
    Ok(())
}

fn spawn_attempt(
    cfg: &CoordConfig,
    unit: &mut Unit,
    local: usize,
    next_attempt: &mut u64,
    tx: &mpsc::Sender<Event>,
) {
    let id = *next_attempt;
    *next_attempt += 1;
    let mut cmd = Command::new(&cfg.program);
    cmd.arg("grid")
        .arg("--grid-size")
        .arg(cfg.grid_size.to_string())
        .arg("--shard")
        .arg(format!("{}/{}", unit.global, cfg.slice.1 * cfg.units))
        .arg("--trailer")
        .arg("--threads")
        .arg("1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    // Arm exactly the faults planned for this spawn; scrub anything
    // inherited from our own environment.
    match cfg.plan.env_for(local, unit.spawns) {
        Some(env) => cmd.env(FAULT_ENV, env),
        None => cmd.env_remove(FAULT_ENV),
    };
    unit.spawns += 1;
    unit.state = UnitState::Running;
    unit.last_progress = Instant::now();

    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => {
            // Never spawned: an immediate fail-stop, delivered through the
            // normal event path so retry/fallback accounting is uniform.
            let _ = tx.send(Event::Finished {
                attempt: id,
                unit: local,
                outcome: Outcome::FailStop(format!("spawn {}: {e}", cfg.program.display())),
            });
            unit.outstanding.push(AttemptHandle {
                id,
                child: Arc::new(Mutex::new(None)),
            });
            return;
        }
    };
    let stdout = child.stdout.take();
    let stderr = child.stderr.take();
    let shared = Arc::new(Mutex::new(Some(child)));
    unit.outstanding.push(AttemptHandle {
        id,
        child: Arc::clone(&shared),
    });
    let expected_cells = unit.range.len() as u64;
    let heartbeat_tx = tx.clone();
    let finish_tx = tx.clone();
    thread::spawn(move || {
        // Stderr pump: heartbeats flow to the loop as they arrive; the
        // trailer is handed back on join. Non-event stderr lines (cache
        // stats, clamp notes) are ignored.
        let trailer_pump = thread::spawn(move || -> Option<ShardTrailer> {
            let mut trailer = None;
            let stderr = stderr?;
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                match WorkerEvent::from_json_str(&line) {
                    Ok(WorkerEvent::Progress { .. }) => {
                        let _ = heartbeat_tx.send(Event::Progress { unit: local });
                    }
                    Ok(WorkerEvent::Trailer(t)) => trailer = Some(t),
                    Err(_) => {}
                }
            }
            trailer
        });
        let mut bytes = Vec::new();
        let read_failed = stdout
            .map(|mut s| s.read_to_end(&mut bytes).is_err())
            .unwrap_or(true);
        let trailer = trailer_pump.join().unwrap_or(None);
        // Stdout hit EOF, so the child is done (or dead): take it out of
        // the shared slot and reap it. The loop's kill() only ever signals
        // through the mutex, so there is no wait/kill deadlock window.
        let taken = {
            let mut guard = shared.lock().unwrap_or_else(|e| e.into_inner());
            guard.take()
        };
        let status = taken.map(|mut c| c.wait());
        let outcome = classify(status, read_failed, &bytes, trailer, expected_cells);
        let _ = finish_tx.send(Event::Finished {
            attempt: id,
            unit: local,
            outcome,
        });
    });
}

/// Classifies a finished attempt: abnormal death is fail-stop; a clean
/// exit must then survive verification — trailer present, cell count as
/// dispatched, and digest/line/byte counts matching a recomputation over
/// the bytes actually received.
fn classify(
    status: Option<io::Result<ExitStatus>>,
    read_failed: bool,
    bytes: &[u8],
    trailer: Option<ShardTrailer>,
    expected_cells: u64,
) -> Outcome {
    let status = match status {
        Some(Ok(s)) => s,
        Some(Err(e)) => return Outcome::FailStop(format!("wait: {e}")),
        None => return Outcome::FailStop("worker vanished before it was reaped".to_owned()),
    };
    if !status.success() {
        return Outcome::FailStop(format!("worker died: {status}"));
    }
    if read_failed {
        return Outcome::FailStop("worker stdout read failed".to_owned());
    }
    let Some(t) = trailer else {
        return Outcome::SilentError(
            "worker exited cleanly but emitted no verification trailer".to_owned(),
        );
    };
    if t.cells != expected_cells {
        return Outcome::SilentError(format!(
            "trailer covers {} cells, dispatch expected {expected_cells}",
            t.cells
        ));
    }
    let lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
    let fnv = Fnv64::of(bytes);
    if lines != t.lines || bytes.len() as u64 != t.bytes || fnv != t.fnv64 {
        return Outcome::SilentError(format!(
            "checksum verification failed: received {} lines/{} bytes/fnv {:#018x}, \
             trailer claims {} lines/{} bytes/fnv {:#018x}",
            lines,
            bytes.len(),
            fnv,
            t.lines,
            t.bytes,
            t.fnv64
        ));
    }
    Outcome::Verified {
        bytes: bytes.to_vec(),
        cache_hits: t.cache_hits,
        cache_misses: t.cache_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With a worker binary that cannot spawn and `max_respawns: 0`, every
    /// unit takes the in-process fallback — which exercises spawn
    /// accounting, the failure path, fallback rendering, and in-order
    /// merging without needing a real worker.
    #[test]
    fn unspawnable_workers_degrade_to_in_process_execution() {
        let cfg = CoordConfig {
            program: PathBuf::from("/nonexistent/resilience-worker"),
            grid_size: 2,
            cells: 9,
            slice: (0, 1),
            units: 3,
            workers: 2,
            seed: 7,
            deadline: Duration::from_secs(5),
            backoff_base: Duration::from_millis(1),
            max_respawns: 0,
            plan: FaultPlan::default(),
        };
        let mut out = Vec::new();
        let mut calls = Vec::new();
        let report = run(&cfg, &mut out, &mut |range, with_header| {
            calls.push((range.clone(), with_header));
            Ok(FallbackUnit {
                bytes: format!("unit {:?} header={with_header}\n", range).into_bytes(),
                cache_hits: range.len() as u64 - 1,
                cache_misses: 1,
            })
        })
        .expect("merge writer is a Vec");
        assert_eq!(report.inproc_fallbacks, 3);
        assert_eq!(report.fail_stop_retries, 3);
        assert_eq!(report.units, 3);
        assert_eq!(report.verify_failures, 0);
        assert_eq!(report.straggler_reassignments, 0);
        // Each fallback unit's counters, merged exactly once.
        assert_eq!(report.cache_misses, 3);
        assert_eq!(report.cache_hits, 6);
        // Units tile 0..9 and only the first carries the header.
        assert_eq!(calls, vec![(0..3, true), (3..6, false), (6..9, false)]);
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(
            text,
            "unit 0..3 header=true\nunit 3..6 header=false\nunit 6..9 header=false\n"
        );
        assert_eq!(report.merged_bytes, text.len() as u64);
    }

    #[test]
    fn report_round_trips_as_a_summary_event() {
        let report = CoordReport {
            units: 8,
            workers_spawned: 11,
            fail_stop_retries: 1,
            verify_failures: 1,
            straggler_reassignments: 1,
            duplicates_discarded: 1,
            inproc_fallbacks: 0,
            merged_bytes: 12345,
            cache_hits: 1000,
            cache_misses: 190,
        };
        let line = report.to_json_string();
        assert!(line.contains("\"event\":\"summary\""), "{line}");
        assert!(line.contains("\"cache_misses\":190"), "{line}");
        assert_eq!(CoordReport::from_json_str(&line).expect("parses"), report);
    }
}
