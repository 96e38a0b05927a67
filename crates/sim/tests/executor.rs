//! Executor acceptance tests: sharded output byte-identical to the serial
//! loop over the 1,000-cell canonical grid, every cell's optimum equal to
//! a direct call of the closed-form optimizer, and the daemon's optimum
//! cache collapsing the grid's repeated cells onto those same optima.

// Every test in this file is a Monte-Carlo or full-grid acceptance run;
// under Miri's interpreter each would take minutes to hours, so the whole
// file is compiled out. Memory-safety coverage for the same code paths
// comes from the small cfg-gated unit tests in `src/`.
#![cfg(not(miri))]

use resilience::cache::OptimumCache;
use resilience::sweep::{grid_spec, SweepSpec, Theorem};
use resilience::{reference_scenarios, Pattern};
use sim::executor::{CellResult, SimSettings, SweepExecutor};
use sim::Backend;

/// Renders one cell result exactly the way a table row would: every float
/// through fixed-precision formatting, so equality here is byte equality of
/// the user-visible output.
fn render(r: &CellResult) -> String {
    let mut line = format!(
        "{} {} m={} n={} pv={} W={:.3} H={:.6}",
        r.name,
        r.theorem.label(),
        r.optimum.pattern.guaranteed_verifs(),
        r.optimum.pattern.partials_per_segment(),
        r.optimum.pattern.partial_verifs(),
        r.optimum.work(),
        r.optimum.overhead,
    );
    if let Some(rep) = &r.report {
        line.push_str(&format!(
            " sim={:.6}±{:.6} ckpt/h={:.3} rec/d={:.3}",
            rep.overhead.mean,
            rep.overhead.ci95,
            rep.checkpoints_per_hour(),
            rep.recoveries_per_day(),
        ));
    }
    line
}

#[test]
fn sharded_grid_is_byte_identical_to_serial_over_1000_cells() {
    let spec = grid_spec(10);
    assert!(spec.len() >= 1_000, "grid must be at least 1,000 cells");

    let sharded_exec = SweepExecutor::new(8);
    let sharded = sharded_exec.run(&spec, None);
    let serial = sharded_exec.run_serial(&spec, None);
    assert_eq!(serial.len(), 1_000);
    assert_eq!(sharded.len(), 1_000);

    for (s, p) in serial.iter().zip(&sharded) {
        assert_eq!(s, p, "cell {} diverged between serial and sharded", s.index);
        assert_eq!(render(s), render(p));
    }
}

#[test]
fn shard_ranges_concatenate_to_the_full_grid() {
    // The cross-process sharding primitive: a partition of the cell index
    // range, each slice run by its own executor, concatenated in order,
    // must render the same bytes as one unsharded run.
    let spec = grid_spec(10);
    let full: Vec<String> = SweepExecutor::new(4)
        .run(&spec, None)
        .iter()
        .map(render)
        .collect();
    let n = 4;
    let mut concat = Vec::new();
    for shard in 0..n {
        let lo = spec.len() * shard / n;
        let hi = spec.len() * (shard + 1) / n;
        let exec = SweepExecutor::new(4);
        concat.extend(exec.run_range(&spec, lo..hi, None).iter().map(render));
    }
    assert_eq!(concat, full, "shard concatenation must be byte-identical");
}

#[test]
fn every_grid_cell_is_the_direct_optimum_at_any_worker_count_and_sharding() {
    // No worker remembers or shares optima, so each of the 1,000 cells must
    // carry exactly `theorem.optimize` at its own (platform, costs), for
    // every worker count and when the grid runs as three separate shards.
    let spec = grid_spec(10);
    let direct: Vec<_> = spec
        .iter()
        .map(|cell| cell.theorem.optimize(&cell.platform, &cell.costs))
        .collect();
    assert_eq!(direct.len(), 1_000);
    let optima =
        |results: Vec<CellResult>| -> Vec<_> { results.into_iter().map(|r| r.optimum).collect() };
    for workers in [1, 2, 3] {
        let results = SweepExecutor::new(workers).run(&spec, None);
        assert_eq!(optima(results), direct, "{workers} workers");
    }
    let mut sharded = Vec::new();
    for shard in 0..3 {
        let lo = spec.len() * shard / 3;
        let hi = spec.len() * (shard + 1) / 3;
        sharded.extend(SweepExecutor::new(2).run_range(&spec, lo..hi, None));
    }
    assert_eq!(optima(sharded), direct, "3-way shard concatenation");
}

// The sweep path no longer goes through `OptimumCache`, but the daemon's
// batcher still answers `optimum` queries from one. These tests pin that a
// cache fed the grid's cells collapses the repeats exactly and hands back
// the very optima the executor derives directly, so a cached daemon answer
// and a sweep row can never disagree.

#[test]
fn optimum_cache_collapses_the_grid_repeats() {
    // The grid's geometric axes repeat platform rates bit-exactly, so a
    // single serial pass must already hit: 10×10 (nodes, mtbf) pairs share
    // 19 distinct ratios, ×10 recalls = 190 distinct optimizer inputs for
    // 1,000 cells.
    let spec = grid_spec(10);
    let cache = OptimumCache::new();
    let cached: Vec<_> = spec
        .iter()
        .map(|cell| cache.optimum(&cell.platform, &cell.costs, cell.theorem))
        .collect();
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 1_000);
    assert_eq!(stats.entries, 190);
    assert_eq!(stats.misses, 190);
    assert_eq!(stats.hits, 810, "repeated cells must hit the cache");
    let direct: Vec<_> = SweepExecutor::new(1)
        .run(&spec, None)
        .into_iter()
        .map(|r| r.optimum)
        .collect();
    assert_eq!(cached, direct, "cached optima must equal the sweep's");
}

#[test]
fn repeated_sweeps_hit_a_shared_cache_exactly() {
    let spec = SweepSpec::new()
        .scenarios(&reference_scenarios())
        .all_theorems();
    let cache = OptimumCache::new();
    let pass = |cache: &OptimumCache| -> Vec<_> {
        spec.iter()
            .map(|cell| cache.optimum(&cell.platform, &cell.costs, cell.theorem))
            .collect()
    };

    let first = pass(&cache);
    assert_eq!(cache.stats().hits, 0);
    assert_eq!(cache.stats().misses, 12);

    let second = pass(&cache);
    assert_eq!(cache.stats().hits, 12, "second pass must be all hits");
    assert_eq!(cache.stats().misses, 12);
    assert_eq!(first, second, "cache hits must not change results");
    let direct: Vec<_> = SweepExecutor::new(1)
        .run(&spec, None)
        .into_iter()
        .map(|r| r.optimum)
        .collect();
    assert_eq!(first, direct, "cached optima must equal the sweep's");
}

#[test]
fn threaded_grid_preserves_exact_query_totals() {
    // Workers sharing one cache must not lose or duplicate queries, and the
    // accounting must be *schedule-independent*: a query is a miss iff its
    // insert wins the vacant entry, so the threaded totals are exactly the
    // serial pass's 810 hits / 190 misses — not merely summing to 1,000 —
    // for any worker count and interleaving.
    let spec = grid_spec(10);
    let cells: Vec<_> = spec.iter().collect();
    for workers in [2, 4, 8] {
        let cache = OptimumCache::new();
        std::thread::scope(|scope| {
            for chunk in cells.chunks(cells.len().div_ceil(workers)) {
                let cache = &cache;
                scope.spawn(move || {
                    for cell in chunk {
                        cache.optimum(&cell.platform, &cell.costs, cell.theorem);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 810, "{workers} workers: hits");
        assert_eq!(stats.misses, 190, "{workers} workers: misses");
        assert_eq!(stats.entries, 190, "{workers} workers: entries");
    }
}

#[test]
fn serial_threaded_and_sharded_grids_render_identically() {
    // The satellite pin: serial, threaded, and a 4-way shard partition of
    // the canonical 10³ grid must render byte-identical output.
    let spec = grid_spec(10);
    let exec = SweepExecutor::new(4);
    let serial: Vec<String> = exec.run_serial(&spec, None).iter().map(render).collect();
    let threaded: Vec<String> = exec.run(&spec, None).iter().map(render).collect();
    assert_eq!(serial, threaded, "threaded must render like serial");
    let mut sharded = Vec::new();
    for shard in 0..4 {
        let lo = spec.len() * shard / 4;
        let hi = spec.len() * (shard + 1) / 4;
        let exec = SweepExecutor::new(4);
        sharded.extend(exec.run_range(&spec, lo..hi, None).iter().map(render));
    }
    assert_eq!(serial, sharded, "4-shard concat must render like serial");
}

#[test]
#[ignore = "million-cell smoke: run with --release (cargo test --release -- --ignored)"]
fn million_cell_grid_is_deterministic_across_scheduling() {
    // The 100³ grid: serial, threaded, and a 4-way shard partition must
    // agree cell for cell. ~10⁶ theorem-4 optimizations per pass — debug
    // builds take minutes, hence the ignore gate.
    let spec = grid_spec(100);
    assert_eq!(spec.len(), 1_000_000);
    let exec = SweepExecutor::new(8);
    let threaded = exec.run(&spec, None);
    let serial = exec.run_serial(&spec, None);
    assert_eq!(threaded.len(), 1_000_000);
    assert_eq!(threaded, serial, "threaded 100³ grid must match serial");
    let mut concat = Vec::new();
    for shard in 0..4 {
        let lo = spec.len() * shard / 4;
        let hi = spec.len() * (shard + 1) / 4;
        concat.extend(SweepExecutor::new(8).run_range(&spec, lo..hi, None));
    }
    assert_eq!(concat, serial, "sharded 100³ grid must match serial");
}

#[test]
fn sharded_simulated_sweep_matches_serial_cell_for_cell() {
    let spec = SweepSpec::new()
        .scenarios(&reference_scenarios())
        .all_theorems();
    let sim = Some(SimSettings {
        replications: 60,
        threads_per_cell: 1,
        seed: 0xc0de,
        backend: Backend::Event,
    });
    let exec = SweepExecutor::new(7);
    let sharded = exec.run(&spec, sim);
    let serial = exec.run_serial(&spec, sim);
    assert_eq!(serial, sharded);
    for (s, p) in serial.iter().zip(&sharded) {
        assert_eq!(render(s), render(p));
        assert_eq!(s.report.as_ref().unwrap().overhead.count, 60);
    }
}

#[test]
fn grid_optima_are_structurally_sane() {
    // Spot the scaling story: theorem-4 optima over the grid stay valid
    // patterns (compile cleanly) and overheads grow with platform stress.
    let spec = grid_spec(3);
    let results = SweepExecutor::new(4).run(&spec, None);
    assert_eq!(results.len(), 27);
    for r in &results {
        assert_eq!(r.theorem, Theorem::Four);
        assert!(r.optimum.overhead > 0.0);
        let compiled = r.optimum.pattern.compile();
        assert!(compiled.verified, "{}", r.name);
        if let Pattern::Combined { segments, .. } = r.optimum.pattern {
            assert!(segments >= 1);
        }
    }
    // First grid point (1000n, 25y) is the most failure-prone of its recall
    // column; the same recall at (1000n, 100y) must be cheaper.
    let h = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .expect(name)
            .optimum
            .overhead
    };
    assert!(h("1000n-25y-r0.05") > h("1000n-100y-r0.05"));
}
