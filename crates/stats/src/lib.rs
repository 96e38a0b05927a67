//! Statistics utilities for simulation output.
//!
//! * [`online`] — Welford one-pass mean/variance accumulators, mergeable
//!   across threads (used by the parallel replication runner);
//! * [`summary`] — distribution summaries with confidence intervals;
//! * [`rates`] — conversions between event counts and per-hour/per-day rates,
//!   matching the units of the paper's Figures 6–9;
//! * [`histogram`] — fixed-bin histograms for inspecting simulated
//!   distributions;
//! * [`table`] — fixed-width, byte-stable table formatting for sweep result
//!   rows;
//! * [`checksum`] — streaming FNV-1a 64-bit digests, used by the sweep
//!   coordinator to verify worker output against its checksum trailer.

// Pure accumulation and formatting — no justification for unsafe here.
// Enforced by `xtask lint` (crate-attrs).
#![forbid(unsafe_code)]

pub mod checksum;
pub mod histogram;
pub mod online;
pub mod rates;
pub mod summary;
pub mod table;

pub use checksum::Fnv64;
pub use histogram::Histogram;
pub use online::OnlineStats;
pub use rates::{per_day, per_hour, DAY, HOUR, YEAR};
pub use summary::Summary;
pub use table::{Align, RowWriter, TableFormat};
