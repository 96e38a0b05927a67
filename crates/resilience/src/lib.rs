//! Resilience-pattern domain model for the paper's checkpoint/verification
//! framework under fail-stop and silent errors.
//!
//! * [`platform`] — [`Platform`] error rates and the [`CostModel`]
//!   (C, R, V*, partial v with recall r);
//! * [`pattern`] — the [`Pattern`] variants of Theorems 1–4 and their
//!   compiled chunk form consumed by evaluators and the simulator;
//! * [`overhead`] — first-order expected-overhead evaluators
//!   `H = o_ef/W + o_rw·W`, with the silent re-execution fraction computed
//!   through the `βᵀAβ` quadratic form of Proposition 3;
//! * [`optimal`] — closed-form optima for Theorems 1–4 (plus the Young/Daly
//!   baseline), Eq. (18) chunk sizes and convex integer rounding;
//! * [`sweep`] — [`SweepSpec`] cross-products of (platform, costs) points ×
//!   theorems, expanded *streaming* into deterministically-indexed cells
//!   (O(1) [`SweepSpec::cell_at`] random access, lazy [`CellName`]s, and a
//!   procedural canonical grid up to 10⁶ cells);
//! * [`cache`] — the [`OptimumCache`] memoizing theorem optima on bit-exact
//!   `(Platform, CostModel, Theorem)` keys, sharded into independently
//!   locked maps with lock-free hit/miss counters (the query daemon's
//!   batcher answers through it; sweeps derive every optimum directly);
//! * [`wire`] — hand-written JSON encodings for the domain types
//!   ([`Platform`], [`CostModel`], [`Theorem`], [`Pattern`],
//!   [`PatternOptimum`], [`OptimumKey`]) that re-validate constructor
//!   invariants on deserialization, so untrusted wire input cannot build
//!   values the in-process API could not;
//! * [`snapshot`] — the serialized optimum-store format (versioned header,
//!   bit-exact sorted entries, FNV-64 integrity footer). No command reads
//!   or writes it; it stays public for the `perfbench` harness.
//!
//! Every closed form is cross-checked against the unified numeric optimizers
//! of the `numerics` crate in `tests/consistency.rs`.

// Pure arithmetic and data structures: no unsafe code, enforced here and by
// `xtask lint` (crate-attrs).
#![forbid(unsafe_code)]

pub mod cache;
pub mod optimal;
pub mod overhead;
pub mod pattern;
pub mod platform;
pub mod scenario;
pub mod snapshot;
pub mod sweep;
pub mod wire;

pub use cache::{CacheStats, OptimumCache, OptimumKey};
pub use optimal::{
    eq18_chunks, eq18_value, theorem1, theorem2, theorem3, theorem4, theorem4_batch, young_daly,
    PatternOptimum,
};
pub use overhead::{error_free_cost, first_order_overhead, reexec_rate, silent_reexec_fraction};
pub use pattern::{CompiledChunk, CompiledPattern, Pattern, VerifyKind};
pub use platform::{CostModel, Platform};
pub use scenario::{reference_scenarios, validation_scenarios, Scenario};
pub use snapshot::{
    parse_snapshot, snapshot_of_entries, snapshot_string, SNAPSHOT_FORMAT, SNAPSHOT_VERSION,
};
pub use sweep::{grid_spec, CellName, SweepCell, SweepSpec, Theorem, GRID_AXIS_LEN};
