//! Sharded sweep executor: streams a [`SweepSpec`]'s cells over a pool of
//! workers and emits results back in deterministic cell order.
//!
//! One dispatch loop serves every sweep. The index range is cut into
//! *chunks* of consecutive cells, and every worker — the calling thread
//! included — claims the next unclaimed chunk off an atomic cursor, so a
//! worker that runs slow (an expensive cell, a busy core) simply claims
//! fewer chunks. A worker folds its chunk into one batch: rendered rows
//! appended to a byte buffer for [`SweepExecutor::run_rendered_range`], or
//! [`CellResult`]s for [`SweepExecutor::run_streaming_range`]. The calling
//! thread ships the batches in chunk order: it takes the next one from a
//! small reorder buffer when it is there, collects finished chunks from the
//! other workers, and otherwise claims and runs a chunk itself. Chunks are
//! claimed in order, so the reorder buffer holds only the few chunks that
//! finished ahead of a slower one, and the channel from the other workers
//! is bounded, so a slow reader of the output stalls them instead of
//! letting finished chunks pile up.
//!
//! A chunk's size follows what a cell costs. An analytic cell
//! (`sim == None`) costs microseconds, so chunks of `CELLS_PER_CLAIM`
//! make claiming and shipping free per cell. A simulated cell costs
//! milliseconds, so it is its own chunk: claimed alone, so expensive cells
//! never stall cheap ones, and shipped the moment it is done. One worker
//! is the serial run, with no thread spawned.
//!
//! Determinism is structural, not incidental:
//!
//! * every cell's optimum is [`Theorem::optimize`] at that cell's
//!   `(platform, costs)`: the closed-form optimizers are pure functions of
//!   their inputs, so no worker shares or remembers anything that could
//!   make a cell's answer depend on which cells ran before it;
//! * every cell's Monte-Carlo seed is derived from `(base seed, cell index)`
//!   by [`cell_seed`], never from which worker ran it;
//! * results are emitted in increasing cell index, and a row's bytes
//!   depend only on its cell, not on the worker that rendered it.
//!
//! Consequently the output is byte-identical to the serial loop at a fixed
//! seed for any worker count — `tests/executor.rs` asserts this
//! cell-for-cell over the 1,000-cell canonical grid. The same holds across
//! *processes*: [`SweepExecutor::run_streaming_range`] executes any index
//! sub-range, and concatenating the outputs of a partition of `0..len` in
//! order reproduces the full run byte for byte.

use crate::engine::Backend;
use crate::runner::{run_replications, RunConfig, SimReport};
use resilience::optimal::PatternOptimum;
use resilience::sweep::{CellName, SweepCell, SweepSpec, Theorem};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Monte-Carlo settings applied to every cell of a sweep. `None` in the
/// executor API means analytic-only cells (no simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSettings {
    /// Replications per cell.
    pub replications: u64,
    /// Simulation threads *within* one cell. The executor already shards
    /// across cells, so 1 is the right value for many-cell sweeps; larger
    /// values only help a serial executor over a handful of huge cells.
    pub threads_per_cell: usize,
    /// Base seed; each cell simulates with [`cell_seed`]`(seed, index)`, so
    /// results do not depend on worker assignment.
    pub seed: u64,
    /// Simulation backend applied to every cell ([`Backend::Auto`] resolves
    /// against the per-cell replication count, so all cells of a sweep
    /// resolve alike).
    pub backend: Backend,
}

/// One finished cell: the derived optimum plus the optional simulation
/// report, tagged with the cell's deterministic position.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Position in the spec's expansion order.
    pub index: usize,
    /// Point name from the spec (lazy; render with `to_string()`).
    pub name: CellName,
    /// Theorem optimized in this cell.
    pub theorem: Theorem,
    /// Closed-form optimum at this cell's (platform, costs).
    pub optimum: PatternOptimum,
    /// Monte-Carlo report when simulation was requested.
    pub report: Option<SimReport>,
}

/// Derives the per-cell simulation seed from the sweep's base seed and the
/// cell index (one SplitMix64 scramble), so cell results are a pure function
/// of `(spec, settings)` no matter how cells are sharded.
pub fn cell_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Analytic cells per claimed chunk: enough that claiming and shipping
/// cost nothing per cell, few enough that a chunk's rendered rows (about
/// 64 KiB on the canonical grid) reach the writer early and stay in cache.
const CELLS_PER_CLAIM: usize = 1024;

/// Sweep executor: a worker count. Cheap to construct and holds no state
/// between runs.
#[derive(Debug, Clone, Copy)]
pub struct SweepExecutor {
    threads: usize,
}

impl SweepExecutor {
    /// Executor with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count this executor will use for `total` cells — the
    /// configured thread count clamped to the cell count (never below 1).
    /// `effective_workers(total) == 1` means the calling thread runs every
    /// cell itself: no pool is spawned at all.
    pub fn effective_workers(&self, total: usize) -> usize {
        self.threads.min(total).max(1)
    }

    /// Runs the sweep and collects all results, ordered by cell index.
    pub fn run(&self, spec: &SweepSpec, sim: Option<SimSettings>) -> Vec<CellResult> {
        self.run_range(spec, 0..spec.len(), sim)
    }

    /// Runs one index sub-range of the sweep and collects its results,
    /// ordered by cell index.
    pub fn run_range(
        &self,
        spec: &SweepSpec,
        range: Range<usize>,
        sim: Option<SimSettings>,
    ) -> Vec<CellResult> {
        let mut out = Vec::with_capacity(range.len());
        self.run_streaming_range(spec, range, sim, |r| out.push(r));
        out
    }

    /// Reference serial implementation: one worker, same per-cell seeds.
    /// The executor's contract is that [`run`](Self::run) with any worker
    /// count produces exactly this output.
    pub fn run_serial(&self, spec: &SweepSpec, sim: Option<SimSettings>) -> Vec<CellResult> {
        Self::new(1).run(spec, sim)
    }

    /// Runs the sweep, invoking `emit` once per cell in increasing cell
    /// index — streaming: results are emitted as their prefix of the range
    /// completes (simulated cells one by one, analytic cells a chunk at a
    /// time), not after the whole sweep.
    pub fn run_streaming(
        &self,
        spec: &SweepSpec,
        sim: Option<SimSettings>,
        emit: impl FnMut(CellResult),
    ) {
        self.run_streaming_range(spec, 0..spec.len(), sim, emit);
    }

    /// Runs the cells of `range` (a sub-range of `0..spec.len()`), invoking
    /// `emit` once per cell in increasing cell index. This is the shard
    /// primitive: cell `i`'s result depends only on `(spec, sim, i)`, so a
    /// partition of `0..len` across N processes, concatenated in order, is
    /// byte-identical to one unsharded run.
    ///
    /// # Panics
    /// Panics when `range` exceeds `0..spec.len()`.
    pub fn run_streaming_range(
        &self,
        spec: &SweepSpec,
        range: Range<usize>,
        sim: Option<SimSettings>,
        mut emit: impl FnMut(CellResult),
    ) {
        self.drive(
            spec,
            range,
            sim,
            Vec::new,
            |batch: &mut Vec<CellResult>, r| batch.push(r),
            |batch| {
                batch.into_iter().for_each(&mut emit);
                true
            },
        );
    }

    /// Runs the cells of `range` like
    /// [`run_streaming_range`](Self::run_streaming_range), but hands each
    /// finished cell to `render`, which appends its row to a byte buffer.
    /// Cells are rendered on the worker that computed them; the rendered
    /// bytes reach `out` in increasing cell order, one chunk per `write`
    /// (one row per `write` for simulated cells).
    ///
    /// The first write error stops the workers and is returned, so a closed
    /// downstream pipe ends the sweep instead of finishing it unread.
    ///
    /// # Panics
    /// Panics when `range` exceeds `0..spec.len()`.
    pub fn run_rendered_range(
        &self,
        spec: &SweepSpec,
        range: Range<usize>,
        sim: Option<SimSettings>,
        render: impl Fn(&CellResult, &mut Vec<u8>) + Sync,
        out: &mut dyn Write,
    ) -> io::Result<()> {
        let mut failed = None;
        self.drive(
            spec,
            range,
            sim,
            Vec::new,
            |buf: &mut Vec<u8>, r| render(&r, buf),
            |buf| out.write_all(&buf).map_err(|e| failed = Some(e)).is_ok(),
        );
        failed.map_or(Ok(()), Err)
    }

    /// Runs `range` chunk by chunk (see the module docs): each chunk's
    /// cells fold into a fresh batch with `fill`, and the calling thread
    /// hands the finished batches to `ship` in chunk order. `ship` returns
    /// `false` to stop the sweep early; the other workers then stop at
    /// their next finished chunk.
    fn drive<B: Send>(
        &self,
        spec: &SweepSpec,
        range: Range<usize>,
        sim: Option<SimSettings>,
        new_batch: impl Fn() -> B + Sync,
        fill: impl Fn(&mut B, CellResult) + Sync,
        mut ship: impl FnMut(B) -> bool,
    ) {
        let per_claim = if sim.is_some() { 1 } else { CELLS_PER_CLAIM };
        let chunks = range.len().div_ceil(per_claim);
        let cursor = AtomicUsize::new(0);
        let claim = || {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            (k < chunks).then_some(k)
        };
        let run_chunk = |k: usize| {
            let lo = range.start + k * per_claim;
            let hi = range.end.min(lo + per_claim);
            let mut batch = new_batch();
            for cell in spec.iter_range(lo..hi) {
                fill(&mut batch, self.eval(cell, sim));
            }
            batch
        };
        let (claim, run_chunk) = (&claim, &run_chunk);
        let workers = self.effective_workers(range.len());
        std::thread::scope(|scope| {
            // Bounded, so workers wait instead of piling up finished chunks
            // while `ship` blocks on a slow reader.
            let (tx, rx) = mpsc::sync_channel::<(usize, B)>(2 * workers);
            for _ in 1..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    while let Some(k) = claim() {
                        if tx.send((k, run_chunk(k))).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            let mut ahead = BTreeMap::new();
            for next in 0..chunks {
                let batch = loop {
                    if let Some(batch) = ahead.remove(&next) {
                        break batch;
                    }
                    let (k, batch) = match rx.try_recv() {
                        Ok(done) => done,
                        Err(_) => match claim() {
                            Some(k) => (k, run_chunk(k)),
                            // Every chunk is claimed, and `next` is still
                            // running on a spawned worker.
                            None => rx.recv().expect("a sweep worker died holding a chunk"),
                        },
                    };
                    ahead.insert(k, batch);
                };
                if !ship(batch) {
                    return;
                }
            }
        });
    }

    /// Evaluates one cell: its optimum, then the optional simulation with
    /// the cell-derived seed. Consumes the cell — its lazy name moves into
    /// the result.
    fn eval(&self, cell: SweepCell, sim: Option<SimSettings>) -> CellResult {
        let optimum = cell.theorem.optimize(&cell.platform, &cell.costs);
        let report = sim.map(|s| {
            run_replications(
                &optimum.pattern,
                &cell.platform,
                &cell.costs,
                &RunConfig {
                    replications: s.replications,
                    threads: s.threads_per_cell,
                    seed: cell_seed(s.seed, cell.index as u64),
                    backend: s.backend,
                    time_hist: None,
                },
            )
        });
        CellResult {
            index: cell.index,
            name: cell.name,
            theorem: cell.theorem,
            optimum,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::scenario::reference_scenarios;

    fn small_spec() -> SweepSpec {
        SweepSpec::new()
            .scenarios(&reference_scenarios())
            .all_theorems()
    }

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let a = cell_seed(0xc0de, 0);
        let b = cell_seed(0xc0de, 1);
        assert_ne!(a, b);
        assert_eq!(a, cell_seed(0xc0de, 0));
        assert_ne!(a, cell_seed(0xc0df, 0));
    }

    #[test]
    fn effective_workers_clamps_to_cells_and_one() {
        assert_eq!(SweepExecutor::new(8).effective_workers(3), 3);
        assert_eq!(SweepExecutor::new(8).effective_workers(1_000), 8);
        assert_eq!(SweepExecutor::new(1).effective_workers(1_000), 1);
        assert_eq!(SweepExecutor::new(4).effective_workers(0), 1);
    }

    #[test]
    fn streaming_emits_in_cell_order() {
        let spec = small_spec();
        let exec = SweepExecutor::new(8);
        let mut indices = Vec::new();
        exec.run_streaming(&spec, None, |r| indices.push(r.index));
        assert_eq!(indices, (0..spec.len()).collect::<Vec<_>>());
    }

    #[test]
    fn range_runs_cover_a_partition_exactly() {
        let spec = small_spec();
        let exec = SweepExecutor::new(4);
        let full = exec.run(&spec, None);
        let mut parts = Vec::new();
        for shard in 0..3 {
            let lo = spec.len() * shard / 3;
            let hi = spec.len() * (shard + 1) / 3;
            parts.extend(exec.run_range(&spec, lo..hi, None));
        }
        assert_eq!(parts, full, "shard concatenation must reproduce the run");
    }

    #[test]
    fn analytic_results_match_direct_optimizers() {
        let spec = small_spec();
        let results = SweepExecutor::new(4).run(&spec, None);
        for (r, cell) in results.iter().zip(spec.cells()) {
            assert_eq!(r.name, cell.name);
            assert_eq!(r.theorem, cell.theorem);
            assert!(r.report.is_none());
            assert_eq!(
                r.optimum,
                cell.theorem.optimize(&cell.platform, &cell.costs)
            );
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Monte-Carlo volume: minutes-to-hours under Miri's interpreter"
    )]
    fn simulated_sweep_is_reproducible() {
        let spec = small_spec();
        let sim = Some(SimSettings {
            replications: 40,
            threads_per_cell: 1,
            seed: 7,
            backend: Backend::Event,
        });
        let a = SweepExecutor::new(6).run(&spec, sim);
        let b = SweepExecutor::new(6).run(&spec, sim);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|r| r.report.as_ref().unwrap().overhead.count == 40));
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Monte-Carlo volume: minutes-to-hours under Miri's interpreter"
    )]
    fn simd_backend_shards_reproducibly_too() {
        let spec = small_spec();
        let sim = Some(SimSettings {
            replications: 50,
            threads_per_cell: 1,
            seed: 5,
            backend: Backend::Simd,
        });
        let exec = SweepExecutor::new(5);
        let sharded = exec.run(&spec, sim);
        let serial = exec.run_serial(&spec, sim);
        assert_eq!(sharded, serial, "simd cells must not depend on sharding");
        assert!(sharded
            .iter()
            .all(|r| r.report.as_ref().unwrap().overhead.count == 50));
    }
}
