//! Request coalescing: a queue, one batch worker, and an adaptive window.
//!
//! Connection handlers [`submit`](Batcher::submit) queries as they arrive;
//! a single worker thread drains the queue in batches and answers each
//! query over its own channel. Optimum and sweep-cell queries go through
//! the shared [`OptimumCache`], so a repeated query is one hash lookup and
//! every derivation runs the same pure closed forms as a direct library
//! call.
//!
//! The coalescing window adapts to load instead of being a fixed size:
//! after the first query of a batch arrives, the worker keeps collecting
//! for `window` microseconds (or until the batch is full). A batch that
//! reaches [`BatchConfig::target_batch`] doubles the window (up to the
//! maximum — heavier coalescing pays when traffic saturates it); a batch
//! that closes with a single query halves it (down to the minimum, so an
//! idle daemon converges back to near-immediate dispatch and single
//! clients never wait a stale long window). Batched answers are
//! byte-identical to direct library calls because a cache hit is
//! bit-identical to the closed form it memoizes.

use crate::protocol::{Query, Reply, ServiceStats};
use resilience::{first_order_overhead, grid_spec, OptimumCache, GRID_AXIS_LEN};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Default minimum (and initial) coalescing window, microseconds.
pub const DEFAULT_MIN_WINDOW_US: u64 = 50;
/// Default maximum coalescing window, microseconds.
pub const DEFAULT_MAX_WINDOW_US: u64 = 3_200;
/// Default batch size that counts as saturated and grows the window.
pub const DEFAULT_TARGET_BATCH: usize = 16;
/// Default hard cap on queries dispatched in one batch.
pub const DEFAULT_MAX_BATCH: usize = 256;

/// Tuning knobs for the coalescing loop.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Smallest (and starting) window, µs; the idle fixed point.
    pub min_window_us: u64,
    /// Largest window, µs; bounds worst-case added latency under load.
    pub max_window_us: u64,
    /// Batch size treated as "window saturated": reaching it doubles the
    /// window.
    pub target_batch: usize,
    /// Hard per-batch cap; the queue beyond it waits for the next batch.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            min_window_us: DEFAULT_MIN_WINDOW_US,
            max_window_us: DEFAULT_MAX_WINDOW_US,
            target_batch: DEFAULT_TARGET_BATCH,
            max_batch: DEFAULT_MAX_BATCH,
        }
    }
}

/// One queued query plus the channel its answer goes back on.
struct Job {
    query: Query,
    tx: mpsc::Sender<Result<Reply, String>>,
}

/// Queue shared between submitters and the worker.
struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
    cfg: BatchConfig,
}

/// The batching front-end: submit queries, get per-query receivers.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Starts the worker thread over a fresh shared optimum cache.
    pub fn new(cfg: BatchConfig) -> Self {
        Self::with_cache(cfg, Arc::new(OptimumCache::new()))
    }

    /// Starts the worker thread over an existing shared cache (so a daemon
    /// embedded next to a sweep executor can reuse its warm entries).
    pub fn with_cache(cfg: BatchConfig, cache: Arc<OptimumCache>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            cfg,
        });
        let worker_shared = Arc::clone(&shared);
        let handle = thread::spawn(move || worker_loop(&worker_shared, &cache));
        Self {
            shared,
            worker: Mutex::new(Some(handle)),
        }
    }

    /// Enqueues a query; the answer arrives on the returned receiver. After
    /// [`shutdown`](Self::shutdown) the receiver yields an error reply
    /// immediately instead of hanging.
    pub fn submit(&self, query: Query) -> mpsc::Receiver<Result<Reply, String>> {
        let (tx, rx) = mpsc::channel();
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.shutdown {
            // Receiver in hand, so the send cannot fail; ignore regardless.
            let _ = tx.send(Err("service is shutting down".to_owned()));
            return rx;
        }
        state.queue.push_back(Job { query, tx });
        drop(state);
        self.shared.cv.notify_all();
        rx
    }

    /// Submits and waits for the answer. Convenience for in-process use
    /// and tests.
    pub fn query(&self, query: Query) -> Result<Reply, String> {
        self.submit(query)
            .recv()
            .unwrap_or_else(|_| Err("batch worker is gone".to_owned()))
    }

    /// Stops the worker after it drains every queued job, and joins it.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        let handle = self
            .worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            // A panicked worker already printed its message; nothing to add.
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker-thread state that never crosses a thread boundary: the adaptive
/// window and the service counters.
struct WorkerState {
    window_us: u64,
    requests: u64,
    batches: u64,
    coalesced_batches: u64,
    max_batch: u64,
}

fn worker_loop(shared: &Shared, cache: &Arc<OptimumCache>) {
    let mut ws = WorkerState {
        window_us: shared.cfg.min_window_us,
        requests: 0,
        batches: 0,
        coalesced_batches: 0,
        max_batch: 0,
    };
    while let Some(batch) = next_batch(shared, ws.window_us) {
        process_batch(batch, cache, &mut ws, &shared.cfg);
    }
}

/// Blocks for the next batch: waits for a first job, then coalesces within
/// the current window (or until the batch cap). Returns `None` only when
/// shut down *and* drained, so every accepted job is answered.
fn next_batch(shared: &Shared, window_us: u64) -> Option<Vec<Job>> {
    let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    while state.queue.is_empty() {
        if state.shutdown {
            return None;
        }
        state = shared
            .cv
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let deadline = Instant::now() + Duration::from_micros(window_us);
    while state.queue.len() < shared.cfg.max_batch && !state.shutdown {
        let now = Instant::now();
        let Some(remaining) = deadline
            .checked_duration_since(now)
            .filter(|d| !d.is_zero())
        else {
            break;
        };
        let (guard, timeout) = shared
            .cv
            .wait_timeout(state, remaining)
            .unwrap_or_else(PoisonError::into_inner);
        state = guard;
        if timeout.timed_out() {
            break;
        }
    }
    let n = state.queue.len().min(shared.cfg.max_batch);
    Some(state.queue.drain(..n).collect())
}

/// What pass 1 resolved a job to; pass 2 turns it into a [`Reply`].
enum Slot {
    /// Reply fully determined (optima, overheads, validation errors).
    Done(Result<Reply, String>),
    /// Stats snapshot, taken after the batch's counters settle.
    Stats,
    /// Optimum-store snapshot, rendered after pass 1 so it includes this
    /// very batch's freshly derived optima.
    Snapshot,
}

fn process_batch(
    batch: Vec<Job>,
    cache: &Arc<OptimumCache>,
    ws: &mut WorkerState,
    cfg: &BatchConfig,
) {
    // Pass 1: answer every query that does not observe the batch itself.
    let slots: Vec<Slot> = batch
        .iter()
        .map(|job| match &job.query {
            Query::Optimum {
                platform,
                costs,
                theorem,
            } => Slot::Done(Ok(Reply::Optimum(cache.optimum(platform, costs, *theorem)))),
            Query::Overhead {
                pattern,
                platform,
                costs,
            } => Slot::Done(Ok(Reply::Overhead(first_order_overhead(
                pattern, platform, costs,
            )))),
            Query::SweepCell { grid_size, index } => {
                Slot::Done(grid_cell(*grid_size, *index).map(|cell| Reply::SweepCell {
                    index: *index,
                    name: cell.name.to_string(),
                    theorem: cell.theorem,
                    optimum: cache.optimum(&cell.platform, &cell.costs, cell.theorem),
                }))
            }
            Query::OptimumSnapshot => Slot::Snapshot,
            Query::Stats => Slot::Stats,
            // The servers answer shutdown before it reaches the queue; a
            // direct in-process submit still gets a well-formed ack.
            Query::Shutdown => Slot::Done(Ok(Reply::ShuttingDown)),
        })
        .collect();

    // Counters settle before stats snapshots so a stats query observes its
    // own batch (including the window adaptation it caused).
    let n = batch.len() as u64;
    ws.requests += n;
    ws.batches += 1;
    if n > 1 {
        ws.coalesced_batches += 1;
    }
    ws.max_batch = ws.max_batch.max(n);
    if batch.len() >= cfg.target_batch {
        ws.window_us = (ws.window_us * 2).min(cfg.max_window_us);
    } else if batch.len() <= 1 {
        ws.window_us = (ws.window_us / 2).max(cfg.min_window_us);
    }

    // Pass 2: answer every job. Send failures mean the client hung up.
    for (job, slot) in batch.iter().zip(slots) {
        let outcome = match slot {
            Slot::Done(outcome) => outcome,
            Slot::Snapshot => Ok(Reply::OptimumSnapshot(resilience::snapshot_string(cache))),
            Slot::Stats => Ok(Reply::Stats(ServiceStats {
                requests: ws.requests,
                batches: ws.batches,
                coalesced_batches: ws.coalesced_batches,
                max_batch: ws.max_batch,
                window_us: ws.window_us,
                cache_hits: cache.hits(),
                cache_misses: cache.misses(),
            })),
        };
        let _ = job.tx.send(outcome);
    }
}

/// Validates and fetches one canonical-grid cell, with CLI-style
/// field-naming diagnostics.
fn grid_cell(grid_size: u64, index: u64) -> Result<resilience::SweepCell, String> {
    if !(1..=GRID_AXIS_LEN as u64).contains(&grid_size) {
        return Err(format!(
            "grid_size: {grid_size} out of range (expected 1..={GRID_AXIS_LEN})"
        ));
    }
    let spec = grid_spec(grid_size as usize);
    let len = spec.len() as u64;
    if index >= len {
        return Err(format!(
            "index: {index} out of range for the {len}-cell grid"
        ));
    }
    Ok(spec.cell_at(index as usize))
}
