//! Simulation engines: swappable backends executing one compiled resilience
//! pattern under exponential fail-stop and silent-error injection.
//!
//! The [`Engine`] trait is the seam: [`event`] walks one replication at a
//! time through an explicit discrete-event loop (the reference backend,
//! bit-stable since the first release and pinned by golden tests), and
//! [`simd`] advances whole banks of replications in lockstep: 8-lane SoA
//! blocks with an explicit AVX2 fast-path mask (runtime-detected,
//! bit-identical scalar fallback), jump-spaced lane RNG streams, and
//! whole-attempt countdown draining. Both backends sample the same
//! distributions; `tests/backends.rs` pins their statistical agreement at
//! fixed seeds.
//!
//! [`Backend`] is the user-facing selector carried by `RunConfig`: `Event`,
//! `Simd`, or `Auto` (picks by replication count alone — lane-parallel
//! execution amortizes only when a stream runs many replications).

mod event;
mod program;
mod simd;

pub use event::EventEngine;
pub use simd::{SimdEngine, LANE_WIDTH};

use crate::rng::Rng;
use resilience::pattern::CompiledPattern;
use resilience::platform::{CostModel, Platform};

/// Outcome counters of one pattern execution (until the trailing checkpoint
/// commits).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Execution {
    /// Wall-clock seconds from pattern start to committed checkpoint.
    pub time: f64,
    /// Fail-stop errors suffered.
    pub fail_stop_events: u64,
    /// Silent corruption events: error arrivals into still-valid state.
    /// (Arrivals into already-corrupted state or into work discarded by a
    /// crash change nothing physically and are not counted.)
    pub silent_errors: u64,
    /// Rollbacks triggered by a verification detecting corruption.
    pub silent_detections: u64,
}

/// A simulation backend: executes compiled patterns to completion under a
/// platform's error rates and a cost model.
///
/// Implementations must be pure up to the RNG: the same stream state and
/// inputs must reproduce the same outputs on any machine. Different
/// backends draw from the stream in different orders, so cross-backend
/// agreement is statistical (same distributions), not bitwise.
pub trait Engine: Sync {
    /// Executes one pattern instance to successful completion.
    ///
    /// # Panics
    /// Panics when the pattern lacks a final guaranteed verification while
    /// the platform has silent errors: such a pattern would commit corrupted
    /// checkpoints, which the model (and every engine) excludes.
    fn execute(
        &self,
        rng: &mut Rng,
        pattern: &CompiledPattern,
        platform: &Platform,
        costs: &CostModel,
    ) -> Execution;

    /// Executes `replications` independent pattern instances against one
    /// stream RNG, emitting each outcome in a deterministic order.
    ///
    /// The default expands
    /// [`execute_stream_grouped`](Engine::execute_stream_grouped) group by
    /// group, so backends implement exactly one streaming method — this one
    /// is pure call-layer adaptation. Emission order is backend-defined but
    /// must be a pure function of the stream state, so order-sensitive
    /// accumulation downstream stays reproducible.
    fn execute_stream(
        &self,
        rng: &mut Rng,
        replications: u64,
        pattern: &CompiledPattern,
        platform: &Platform,
        costs: &CostModel,
        emit: &mut dyn FnMut(Execution),
    ) {
        self.execute_stream_grouped(rng, replications, pattern, platform, costs, &mut |e, n| {
            for _ in 0..n {
                emit(e);
            }
        });
    }

    /// The streaming workhorse: like
    /// [`execute_stream`](Engine::execute_stream), but emits **runs of
    /// identical outcomes** as `(outcome, count)` groups — expanding every
    /// group `count` times in order yields exactly the `execute_stream`
    /// emission sequence.
    ///
    /// The default loops over [`execute`](Engine::execute) emitting groups
    /// of one, so per-replication backends (the event reference) implement
    /// nothing extra. Lockstep backends override it to run many
    /// replications at once; the SIMD drain emits whole runs of clean
    /// replications as one group, which accumulators consume in O(1) via
    /// [`stats::OnlineStats::push_n`].
    fn execute_stream_grouped(
        &self,
        rng: &mut Rng,
        replications: u64,
        pattern: &CompiledPattern,
        platform: &Platform,
        costs: &CostModel,
        emit: &mut dyn FnMut(Execution, u64),
    ) {
        for _ in 0..replications {
            emit(self.execute(rng, pattern, platform, costs), 1);
        }
    }
}

/// Rejects patterns that would commit corrupted checkpoints; every backend
/// enforces this before touching the RNG.
pub(crate) fn assert_committable(pattern: &CompiledPattern, platform: &Platform) {
    assert!(
        // float-cmp: λ_s is a configuration value; the guard is only waived
        // when silent errors are literally disabled.
        pattern.verified || platform.lambda_silent == 0.0,
        "unverified pattern under silent errors would commit corrupted state"
    );
}

/// User-facing backend selector, carried by `RunConfig` and the CLI's
/// `--engine` flag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Discrete-event reference backend: one replication at a time,
    /// bit-stable across releases (golden-pinned).
    #[default]
    Event,
    /// Wide-SIMD backend: 8-lane SoA blocks with a vectorized fast-path
    /// mask (AVX2 when available, bit-identical scalar fallback otherwise),
    /// jump-spaced lane RNG streams, and whole-attempt countdown draining.
    /// Statistically equivalent to `Event`, much faster on large
    /// replication counts.
    Simd,
    /// Picks per run: below
    /// [`AUTO_SIMD_THRESHOLD`](Backend::AUTO_SIMD_THRESHOLD) replications,
    /// `Event`; at or above it, `Simd`. The rule depends on the replication
    /// count alone, so `Auto` output is the same on every host.
    Auto,
}

impl Backend {
    /// Replication count at which [`Backend::Auto`] switches from the event
    /// backend to simd. Below it, a stream runs too few replications to
    /// amortize lane setup and tail idling.
    pub const AUTO_SIMD_THRESHOLD: u64 = 20_000;

    /// Resolves `Auto` against a replication count; fixed backends return
    /// themselves.
    pub fn resolve(self, replications: u64) -> Backend {
        match self {
            Backend::Auto if replications >= Self::AUTO_SIMD_THRESHOLD => Backend::Simd,
            Backend::Auto => Backend::Event,
            fixed => fixed,
        }
    }

    /// Instantiates the engine for a run of `replications`, resolving
    /// `Auto` first.
    pub fn engine(self, replications: u64) -> Box<dyn Engine> {
        match self.resolve(replications) {
            Backend::Event => Box::new(EventEngine),
            Backend::Simd => Box::new(SimdEngine::default()),
            Backend::Auto => unreachable!("resolve() never returns Auto"),
        }
    }

    /// Parses a CLI spelling (`event`, `simd`, `auto`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "event" => Some(Backend::Event),
            "simd" => Some(Backend::Simd),
            "auto" => Some(Backend::Auto),
            _ => None,
        }
    }

    /// Stable label, the inverse of [`parse`](Backend::parse).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Event => "event",
            Backend::Simd => "simd",
            Backend::Auto => "auto",
        }
    }
}

/// Executes one pattern instance on the reference event backend.
///
/// Kept as a free function for source compatibility with pre-`Engine`
/// callers; equivalent to `EventEngine.execute(rng, compiled, platform,
/// costs)`.
pub fn execute_pattern(
    compiled: &CompiledPattern,
    platform: &Platform,
    costs: &CostModel,
    rng: &mut Rng,
) -> Execution {
    EventEngine.execute(rng, compiled, platform, costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_replication_count_alone() {
        assert_eq!(Backend::Auto.resolve(1), Backend::Event);
        assert_eq!(
            Backend::Auto.resolve(Backend::AUTO_SIMD_THRESHOLD - 1),
            Backend::Event
        );
        // Machine-independent: simd at the threshold on every host.
        assert_eq!(
            Backend::Auto.resolve(Backend::AUTO_SIMD_THRESHOLD),
            Backend::Simd
        );
        assert_eq!(Backend::Event.resolve(u64::MAX), Backend::Event);
        assert_eq!(Backend::Simd.resolve(0), Backend::Simd);
    }

    #[test]
    fn parse_and_label_round_trip() {
        for b in [Backend::Event, Backend::Simd, Backend::Auto] {
            assert_eq!(Backend::parse(b.label()), Some(b));
        }
        assert_eq!(Backend::parse("vectorized"), None);
        assert_eq!(Backend::parse("batch"), None);
        assert_eq!(Backend::default(), Backend::Event);
    }
}
