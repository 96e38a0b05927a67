//! Fault-tolerant sweep coordination: supervised shard workers with
//! retry/backoff, straggler reassignment, and checksum-verified merge.
//!
//! The source paper keeps long computations correct under two failure
//! classes — fail-stop errors (a machine dies) and silent errors (a
//! computation finishes with wrong data) — via checkpointing, verification,
//! and re-execution. This crate dogfoods that model on the sweep pipeline
//! itself:
//!
//! * a sweep slice is partitioned into contiguous **work units** (the
//!   checkpoint granularity: a failed unit re-executes from its own start,
//!   never from the beginning of the sweep);
//! * each unit runs as a supervised `resilience-cli` worker subprocess
//!   whose abnormal death is a **fail-stop** error, retried with
//!   deterministic seeded exponential backoff + jitter ([`backoff`]);
//! * workers emit a per-unit FNV-1a checksum trailer over their stdout
//!   ([`worker::TrailerWriter`]); the coordinator recomputes the digest
//!   over the bytes it received, so a **silent error** (corrupted output)
//!   is **detected by verification** and the unit **re-executed** rather
//!   than merged;
//! * workers heartbeat over line-delimited JSON stderr events (the PR-8
//!   protocol shapes); a unit with no progress past its deadline is a
//!   **straggler** and gets a speculative duplicate — first verified result
//!   wins, duplicates are discarded;
//! * a unit that exhausts `max_respawns` degrades gracefully to in-process
//!   execution, so the merged table is still produced;
//! * workers start with an empty optimum cache and derive only their own
//!   unit's optima; the trailer's hit/miss counters of each unit's winning
//!   attempt are summed, so [`CoordReport`]'s cache totals equal those of
//!   the standalone `--shard` runs, whatever the schedule.
//!
//! The merged stdout is byte-identical to the serial unsharded run: units
//! are global shard slices of the same deterministic cell index range the
//! CLI's `--shard I/N` uses, merged strictly in order.
//!
//! Every failure mode is reproducible: [`plan::FaultPlan`] injects
//! kill/stall/corrupt faults into chosen units by seeding the worker's
//! environment, and all retry timing derives from the coordinator seed.
//!
//! This crate lives *outside* the determinism-pinned set — supervision is
//! inherently about clocks and subprocesses — but everything it merges is
//! produced by the pinned crates, and [`supervisor::run`] is the only
//! module spawning threads (allowlisted in `xtask lint`).

#![forbid(unsafe_code)]

pub mod backoff;
pub mod plan;
pub mod supervisor;
pub mod worker;

pub use backoff::retry_delay;
pub use plan::{FaultPlan, WorkerFault};
pub use supervisor::{run, CoordConfig, CoordReport, FallbackUnit};
pub use worker::{FaultInjector, TrailerWriter};

/// Environment variable carrying a worker's injected faults, set
/// per-spawn by the coordinator (and readable standalone for manual
/// experiments). Value grammar: `;`-joined [`WorkerFault`] entries —
/// `kill:K` (abort after K stdout lines), `stall:L:MS` (sleep MS
/// milliseconds before writing line L), `corrupt:L` (flip one bit in
/// line L after the checksum trailer accounted the clean bytes).
pub const FAULT_ENV: &str = "RESILIENCE_FAULT";

/// The boundaries of global work unit `unit` of `total` over a `len`-cell
/// sweep: the same near-equal contiguous slicing as the CLI's `--shard I/N`,
/// computed in u128 so huge unit counts cannot overflow.
///
/// Because `len·(i·u)/(n·u) == len·i/n`, the `u` units `i*u .. (i+1)*u` of
/// the `n·u`-way partition tile slice `i/n` of the `n`-way partition
/// exactly — so a coordinator handed slice `I/N` can dispatch its units as
/// ordinary `--shard J/(N·U)` worker invocations and still merge to the
/// same bytes.
pub fn unit_range(len: usize, unit: usize, total: usize) -> std::ops::Range<usize> {
    let at = |k: usize| (len as u128 * k as u128 / total as u128) as usize;
    at(unit)..at(unit + 1)
}

#[cfg(test)]
mod tests {
    use super::unit_range;

    #[test]
    fn units_tile_the_parent_slice_exactly() {
        // For every (len, n, u) tried, the u sub-units of slice i/n must
        // concatenate to exactly the slice, and all n·u units to 0..len.
        for len in [0usize, 1, 7, 1000, 1_000_000] {
            for n in [1usize, 3, 8] {
                for u in [1usize, 4, 7] {
                    let total = n * u;
                    let mut next = 0;
                    for unit in 0..total {
                        let r = unit_range(len, unit, total);
                        assert_eq!(r.start, next, "gap at unit {unit}/{total}, len {len}");
                        next = r.end;
                    }
                    assert_eq!(next, len);
                    for i in 0..n {
                        let parent = unit_range(len, i, n);
                        assert_eq!(unit_range(len, i * u, total).start, parent.start);
                        assert_eq!(unit_range(len, (i + 1) * u, total).start, parent.end);
                    }
                }
            }
        }
    }
}
