//! Sharded sweep executor: streams a [`SweepSpec`]'s cells over a pool of
//! workers and emits results back in deterministic cell order.
//!
//! Two dispatch shapes, chosen by what a cell costs:
//!
//! * **Analytic sweeps** (`sim == None`, cells cost microseconds) run one
//!   loop for every worker count: a *static partition*. The index range is
//!   split into one contiguous near-equal slice per worker — the same slice
//!   formula as cross-process `--shard` — and each worker walks its slice
//!   in index order, taking every cell's optimum through the shared
//!   [`OptimumCache`] and folding the result into a batch: rendered rows
//!   appended to a reused byte buffer for
//!   [`SweepExecutor::run_rendered_range`], or [`CellResult`]s for
//!   [`SweepExecutor::run_streaming_range`]. Full batches cross a
//!   per-worker channel. Because each worker is the single producer for its
//!   range and worker ranges tile the range in order, the emitter drains
//!   the channels worker by worker, as batches arrive — no reorder buffer.
//!   Serial is the one-partition case, run inline on the calling thread.
//! * **Simulated sweeps** (`sim == Some`) with more than one worker keep
//!   per-cell work stealing off an atomic cursor: per-cell cost dwarfs
//!   dispatch, and cell-level stealing is what keeps expensive cells from
//!   stalling cheap ones. Results funnel through a per-cell reorder buffer
//!   and are rendered on the emitting thread.
//!
//! Determinism is structural, not incidental:
//!
//! * every cell's optimum comes from the pure closed-form optimizers
//!   through the shared [`OptimumCache`], whose bit-exact keys make a hit
//!   indistinguishable from a recomputation;
//! * cache *statistics* are schedule-independent too: a query is a miss
//!   exactly when its insert wins the vacant entry, so threaded totals
//!   equal the serial run's exactly;
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
use resilience::cache::{OptimumCache, OptimumKey};
use resilience::platform::{CostModel, Platform};
use resilience::sweep::{CellName, SweepCell, SweepSpec, Theorem};
use std::io::{self, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

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

/// One finished cell: the memoized optimum plus the optional simulation
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

use resilience::optimal::PatternOptimum;

/// Derives the per-cell simulation seed from the sweep's base seed and the
/// cell index (one SplitMix64 scramble), so cell results are a pure function
/// of `(spec, settings)` no matter how cells are sharded.
pub fn cell_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bytes of rendered rows a worker collects before shipping them: large
/// enough that channel sends and `write` calls are rare, small enough that
/// the emitter starts writing long before a partition is done.
const CHUNK_BYTES: usize = 64 * 1024;
/// Headroom left in a chunk for the next row, so a row of ordinary width
/// never makes the chunk reallocate.
const ROW_SLACK: usize = 512;
/// Analytic [`CellResult`]s a worker collects before shipping them.
const RESULTS_PER_SEND: usize = 4096;

/// Resolves optimum queries in place of the local closed forms — the
/// live-share hook: the CLI installs a daemon client here for
/// `--optimum-server` workers, so this crate stays free of any socket I/O.
/// Workers call it with one query per cache miss.
/// Must return exactly one optimum per query, in order, and must be
/// bit-identical to `theorem.optimize(platform, costs)` (the daemon runs
/// the same pure optimizers over a lossless wire, so it is — which is what
/// keeps resolved sweeps byte-identical to local ones).
pub type OptimumResolver =
    Arc<dyn Fn(&[(Platform, CostModel, Theorem)]) -> Vec<PatternOptimum> + Send + Sync>;

/// Sweep executor: a worker count and a shared optimum cache. Cheap to
/// construct; reuse one across runs to keep amortizing the cache.
pub struct SweepExecutor {
    threads: usize,
    cache: Arc<OptimumCache>,
    resolver: Option<OptimumResolver>,
}

impl std::fmt::Debug for SweepExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepExecutor")
            .field("threads", &self.threads)
            .field("cache", &self.cache)
            .field("resolver", &self.resolver.as_ref().map(|_| "…"))
            .finish()
    }
}

impl SweepExecutor {
    /// Executor with `threads` workers and a fresh cache.
    pub fn new(threads: usize) -> Self {
        Self::with_cache(threads, Arc::new(OptimumCache::new()))
    }

    /// Executor sharing an existing cache (e.g. across repeated sweeps or
    /// with a future service layer).
    pub fn with_cache(threads: usize, cache: Arc<OptimumCache>) -> Self {
        Self {
            threads: threads.max(1),
            cache,
            resolver: None,
        }
    }

    /// Executor whose cache misses are answered by `resolver` instead of
    /// the local closed forms (the `--optimum-server` worker mode). Hits
    /// never leave the cache, and the hit/miss accounting is identical to
    /// the local path — a miss is a miss whether derived here or fetched.
    pub fn with_resolver(
        threads: usize,
        cache: Arc<OptimumCache>,
        resolver: OptimumResolver,
    ) -> Self {
        Self {
            threads: threads.max(1),
            cache,
            resolver: Some(resolver),
        }
    }

    /// The shared optimum cache (hit/miss counters included).
    pub fn cache(&self) -> &OptimumCache {
        &self.cache
    }

    /// The worker count this executor will use for `total` cells — the
    /// configured thread count clamped to the cell count (never below 1).
    /// `effective_workers(total) == 1` means the one partition runs inline
    /// on the calling thread: no pool is spawned at all.
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
        Self::with_cache(1, Arc::clone(&self.cache)).run(spec, sim)
    }

    /// Runs the sweep, invoking `emit` once per cell in increasing cell
    /// index — streaming: results are emitted as their prefix of the range
    /// completes (simulated cells one by one, analytic cells a few thousand
    /// at a time), not after the whole sweep.
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
        // A simulated cell is worth emitting the moment it is done.
        let per_send = if sim.is_some() { 1 } else { RESULTS_PER_SEND };
        self.drive(
            spec,
            range,
            sim,
            Vec::new,
            |batch: &mut Vec<CellResult>, r| {
                batch.push(r);
                batch.len() >= per_send
            },
            |batch| {
                batch.drain(..).for_each(&mut emit);
                true
            },
        );
    }

    /// Runs the cells of `range` like
    /// [`run_streaming_range`](Self::run_streaming_range), but hands each
    /// finished cell to `render`, which appends its row to a byte buffer.
    /// Analytic cells are rendered on the worker that computed them, into a
    /// buffer reused across rows; the rendered bytes reach `out` in
    /// increasing cell order, in chunks of about 64 KiB. Simulated rows
    /// reach `out` one by one, as their prefix of the range completes.
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
        // A simulated row is worth writing the moment it is done.
        let chunk = if sim.is_some() {
            1
        } else {
            CHUNK_BYTES - ROW_SLACK
        };
        let mut failed = None;
        self.drive(
            spec,
            range,
            sim,
            || Vec::with_capacity(CHUNK_BYTES),
            |buf: &mut Vec<u8>, r| {
                render(&r, buf);
                buf.len() >= chunk
            },
            |buf| {
                let written = out.write_all(buf);
                buf.clear();
                written.map_err(|e| failed = Some(e)).is_ok()
            },
        );
        failed.map_or(Ok(()), Err)
    }

    /// Runs `range`, folding each finished cell into a batch with `fill`
    /// (which returns `true` once the batch should ship) and handing every
    /// full batch, then the last partial one, to `ship` in cell order.
    /// `ship` leaves the batch empty for reuse and returns `false` to stop
    /// the sweep early.
    fn drive<B: Send>(
        &self,
        spec: &SweepSpec,
        range: Range<usize>,
        sim: Option<SimSettings>,
        new_batch: impl Fn() -> B + Sync,
        fill: impl Fn(&mut B, CellResult) -> bool + Sync,
        mut ship: impl FnMut(&mut B) -> bool,
    ) {
        let workers = self.effective_workers(range.len());
        if workers == 1 {
            let cells = spec.iter_range(range).map(|cell| self.eval(cell, sim));
            fold(cells, &mut new_batch(), &fill, &mut ship);
        } else if sim.is_none() {
            self.run_partitioned(spec, range, workers, &new_batch, &fill, &mut ship);
        } else {
            self.run_simulated_stealing(spec, range, sim, workers, |ordered| {
                fold(ordered, &mut new_batch(), &fill, &mut ship)
            });
        }
    }

    /// Threaded analytic sweep: static contiguous partition, one worker per
    /// slice, each folding its cells exactly as the serial run does.
    ///
    /// Worker `w` owns `[total·w/workers, total·(w+1)/workers)` — the same
    /// slice formula as cross-process `--shard` — so each worker is the
    /// *single producer* for its range: its channel delivers batches in
    /// index order for free, and draining the channels in worker order
    /// ships strictly increasing indices with no reorder buffer. Workers
    /// ahead of the drain point queue their batches in their channels. When
    /// `ship` stops the drain, the receivers drop and every worker stops at
    /// its next send.
    fn run_partitioned<B: Send>(
        &self,
        spec: &SweepSpec,
        range: Range<usize>,
        workers: usize,
        new_batch: &(impl Fn() -> B + Sync),
        fill: &(impl Fn(&mut B, CellResult) -> bool + Sync),
        ship: &mut impl FnMut(&mut B) -> bool,
    ) {
        let total = range.len();
        let start = range.start;
        std::thread::scope(|scope| {
            let mut rxs = Vec::with_capacity(workers);
            for w in 0..workers {
                let (tx, rx) = mpsc::channel::<B>();
                rxs.push(rx);
                let lo = start + total * w / workers;
                let hi = start + total * (w + 1) / workers;
                scope.spawn(move || {
                    let cells = spec.iter_range(lo..hi).map(|cell| self.eval(cell, None));
                    let mut send =
                        |batch: &mut B| tx.send(std::mem::replace(batch, new_batch())).is_ok();
                    fold(cells, &mut new_batch(), fill, &mut send);
                });
            }
            for rx in rxs {
                for mut batch in rx {
                    if !ship(&mut batch) {
                        return;
                    }
                }
            }
        });
    }

    /// Threaded simulated sweep: per-cell work stealing off an atomic
    /// cursor, with a per-cell reorder buffer that hands `consume` the
    /// results in cell order on the calling thread. One simulated cell
    /// costs milliseconds, so per-cell dispatch overhead is irrelevant and
    /// stealing keeps expensive cells from stalling cheap ones. `consume`
    /// returns `false` when it stopped before the last cell.
    fn run_simulated_stealing(
        &self,
        spec: &SweepSpec,
        range: Range<usize>,
        sim: Option<SimSettings>,
        workers: usize,
        consume: impl FnOnce(&mut dyn Iterator<Item = CellResult>) -> bool,
    ) {
        let total = range.len();
        let start = range.start;
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, CellResult)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let r = self.eval(spec.cell_at(start + i), sim);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            let mut pending: Vec<Option<CellResult>> = Vec::new();
            pending.resize_with(total, || None);
            let mut next = 0usize;
            let mut arrivals = rx.into_iter();
            let mut ordered = std::iter::from_fn(|| loop {
                if let Some(r) = pending.get_mut(next).and_then(Option::take) {
                    next += 1;
                    return Some(r);
                }
                let (i, r) = arrivals.next()?;
                pending[i] = Some(r);
            });
            if consume(&mut ordered) {
                assert!(
                    next == total,
                    "executor lost cells: emitted {next} of {total}"
                );
            }
        });
    }

    /// Evaluates one cell: memoized optimum, then the optional simulation
    /// with the cell-derived seed. Consumes the cell — its lazy name moves
    /// into the result, so evaluation allocates nothing per cell.
    fn eval(&self, cell: SweepCell, sim: Option<SimSettings>) -> CellResult {
        let optimum = self.resolve_one(&cell.platform, &cell.costs, cell.theorem);
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

    /// One cell's optimum through the shared cache: local closed forms on
    /// a miss, or the installed resolver when one is present — with the
    /// same per-query hit/miss accounting either way (one query; a miss
    /// iff the key was globally unknown).
    fn resolve_one(
        &self,
        platform: &Platform,
        costs: &CostModel,
        theorem: Theorem,
    ) -> PatternOptimum {
        let Some(resolve) = &self.resolver else {
            return self.cache.optimum(platform, costs, theorem);
        };
        let key = OptimumKey::new(platform, costs, theorem);
        if let Some(found) = self.cache.lookup(&key) {
            self.cache.merge(std::iter::empty(), 1);
            return found;
        }
        let mut resolved = resolve(&[(*platform, *costs, theorem)]);
        assert_eq!(
            resolved.len(),
            1,
            "optimum resolver must answer every query"
        );
        let optimum = resolved.pop().expect("length just asserted");
        self.cache.merge([(key, optimum.clone())], 1);
        optimum
    }
}

/// Folds `results`, which arrive in cell order, into `batch`: ships it
/// whenever `fill` says it is full, then once more if results are left
/// over. This is the one sweep loop every worker count runs. Returns
/// `false` when `ship` stopped it early.
fn fold<B>(
    results: impl Iterator<Item = CellResult>,
    batch: &mut B,
    fill: &impl Fn(&mut B, CellResult) -> bool,
    ship: &mut impl FnMut(&mut B) -> bool,
) -> bool {
    let mut unshipped = false;
    for r in results {
        unshipped = !fill(batch, r);
        if !unshipped && !ship(batch) {
            return false;
        }
    }
    !unshipped || ship(batch)
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
    fn resolver_answers_misses_and_matches_the_local_path() {
        let spec = small_spec();
        let local = SweepExecutor::new(4);
        let expected = local.run(&spec, None);
        for threads in [1, 4] {
            let queries = Arc::new(AtomicUsize::new(0));
            let counted = Arc::clone(&queries);
            let resolver: OptimumResolver = Arc::new(move |cells| {
                counted.fetch_add(cells.len(), Ordering::Relaxed);
                cells
                    .iter()
                    .map(|(platform, costs, theorem)| theorem.optimize(platform, costs))
                    .collect()
            });
            let exec =
                SweepExecutor::with_resolver(threads, Arc::new(OptimumCache::new()), resolver);
            assert_eq!(exec.run(&spec, None), expected);
            let stats = exec.cache().stats();
            assert_eq!(stats.misses, local.cache().stats().misses);
            assert_eq!(stats.hits, local.cache().stats().hits);
            assert!(
                queries.load(Ordering::Relaxed) as u64 >= stats.misses,
                "every miss must have reached the resolver"
            );
        }
    }

    #[test]
    fn warm_cache_never_consults_the_resolver() {
        let spec = small_spec();
        let warm = SweepExecutor::new(1);
        warm.run(&spec, None);
        let seeded = Arc::new(OptimumCache::new());
        seeded.seed(warm.cache().snapshot_entries());
        let resolver: OptimumResolver =
            Arc::new(|_| panic!("warm covered keys must never reach the resolver"));
        for threads in [1, 3] {
            let exec = SweepExecutor::with_resolver(threads, Arc::clone(&seeded), resolver.clone());
            let before = exec.cache().stats();
            assert_eq!(exec.run(&spec, None), warm.run_serial(&spec, None));
            let after = exec.cache().stats();
            assert_eq!(after.misses, before.misses, "warmed run must not miss");
            assert_eq!(
                after.hits - before.hits,
                spec.len() as u64,
                "every covered query is a hit"
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
