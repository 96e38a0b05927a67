//! Monte-Carlo fault-injection simulator for resilience patterns.
//!
//! * [`rng`] — self-contained xoshiro256++ generator with exponential
//!   sampling, `jump()`/`long_jump()` stream splitting, and the
//!   lane-parallel [`LaneRng`] (no external dependencies, reproducible
//!   streams);
//! * [`engine`] — swappable simulation backends behind the [`Engine`]
//!   trait: the discrete-event reference ([`EventEngine`], bit-stable and
//!   golden-pinned) and the wide-SIMD [`SimdEngine`] (AVX2 fast-path mask
//!   with bit-identical scalar fallback), selected through [`Backend`]
//!   (`event`/`simd`/`auto`);
//! * [`runner`] — multi-threaded replication runner merging per-thread
//!   [`stats::OnlineStats`] into [`stats::Summary`] confidence intervals,
//!   with an optional completion-time [`stats::Histogram`];
//! * [`executor`] — sharded sweep executor whose workers claim chunks of
//!   `SweepSpec` cells in order, derive every cell's optimum directly,
//!   and stream results back in deterministic cell order.
//!
//! `tests/validation.rs` closes the loop with the analytic side: for every
//! theorem's optimal pattern, the simulated mean overhead must fall within
//! its own 95% confidence interval of the first-order prediction;
//! `tests/executor.rs` pins sharded sweeps byte-identical to the serial
//! loop and every cell's optimum equal to a direct optimizer call;
//! `tests/backends.rs` pins the event backend to captured goldens and the
//! two backends to each other within overlapping 99% confidence intervals.

// Unsafe is confined to `engine::simd` (on the `xtask lint` allowlist), and
// every operation inside an `unsafe fn` must restate its own obligations.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod engine;
pub mod executor;
pub mod rng;
pub mod runner;

pub use engine::{
    execute_pattern, Backend, Engine, EventEngine, Execution, SimdEngine, LANE_WIDTH,
};
pub use executor::{cell_seed, CellResult, SimSettings, SweepExecutor};
pub use rng::{exp_inverse_cdf, LaneRng, Rng};
pub use runner::{run_replications, thread_cap, HistogramSpec, RunConfig, SimReport};
