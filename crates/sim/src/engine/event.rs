//! Discrete-event execution of one resilience pattern under fault injection.
//!
//! The engine walks a [`CompiledPattern`] chunk by chunk, injecting
//! exponential fail-stop and silent-error arrivals:
//!
//! * a fail-stop error aborts the current activity, pays the recovery cost
//!   and restarts the pattern from its (verified) checkpoint;
//! * a silent error corrupts the state; it is caught by the next partial
//!   verification that fires (probability `recall`) or with certainty by the
//!   next guaranteed verification, after which recovery and a restart follow;
//! * verifications, checkpoints and recoveries are themselves exposed to
//!   fail-stop errors (a second-order effect the analytic model ignores —
//!   its bias is part of what validation against the first-order prediction
//!   bounds).
//!
//! All activity durations are deterministic; only error arrivals and partial
//! verification outcomes are random, both memoryless, so each activity can
//! sample a fresh exponential countdown.
//!
//! This is the reference backend: one replication at a time, draws consumed
//! in walk order. Its outputs are bit-stable across releases —
//! `tests/backends.rs` pins them against captured goldens — so the SIMD
//! backend always has a trusted baseline to be validated against.

use super::{assert_committable, Engine, Execution};
use crate::rng::Rng;
use resilience::pattern::CompiledPattern;
use resilience::platform::{CostModel, Platform};

/// The discrete-event reference backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventEngine;

/// What ended an activity.
enum ActivityEnd {
    Completed,
    FailStop { after: f64 },
}

/// Runs one activity of deterministic duration `d` under fail-stop rate
/// `lambda_fail`.
fn run_activity(rng: &mut Rng, lambda_fail: f64, d: f64) -> ActivityEnd {
    let t_fail = rng.exponential(lambda_fail);
    if t_fail < d {
        ActivityEnd::FailStop { after: t_fail }
    } else {
        ActivityEnd::Completed
    }
}

impl Engine for EventEngine {
    fn execute(
        &self,
        rng: &mut Rng,
        compiled: &CompiledPattern,
        platform: &Platform,
        costs: &CostModel,
    ) -> Execution {
        assert_committable(compiled, platform);
        let mut out = Execution::default();

        // Pays recovery, including fail-stop errors that strike mid-recovery.
        let recover = |out: &mut Execution, rng: &mut Rng| loop {
            match run_activity(rng, platform.lambda_fail, costs.recovery) {
                ActivityEnd::Completed => {
                    out.time += costs.recovery;
                    return;
                }
                ActivityEnd::FailStop { after } => {
                    out.time += after;
                    out.fail_stop_events += 1;
                }
            }
        };

        'attempt: loop {
            let mut corrupted = false;
            for chunk in &compiled.chunks {
                // Computation: exposed to both error sources.
                match run_activity(rng, platform.lambda_fail, chunk.work) {
                    ActivityEnd::FailStop { after } => {
                        out.time += after;
                        out.fail_stop_events += 1;
                        recover(&mut out, rng);
                        continue 'attempt;
                    }
                    ActivityEnd::Completed => {
                        out.time += chunk.work;
                        if !corrupted && rng.exponential(platform.lambda_silent) < chunk.work {
                            out.silent_errors += 1;
                            corrupted = true;
                        }
                    }
                }
                // Verification, if the chunk carries one.
                if let Some(kind) = chunk.verify {
                    let cost = costs.verify_cost(kind);
                    match run_activity(rng, platform.lambda_fail, cost) {
                        ActivityEnd::FailStop { after } => {
                            out.time += after;
                            out.fail_stop_events += 1;
                            recover(&mut out, rng);
                            continue 'attempt;
                        }
                        ActivityEnd::Completed => out.time += cost,
                    }
                    let detects = kind.guarantees() || rng.uniform() < costs.recall;
                    if corrupted && detects {
                        out.silent_detections += 1;
                        recover(&mut out, rng);
                        continue 'attempt;
                    }
                }
            }
            // Trailing checkpoint.
            match run_activity(rng, platform.lambda_fail, costs.checkpoint) {
                ActivityEnd::FailStop { after } => {
                    out.time += after;
                    out.fail_stop_events += 1;
                    recover(&mut out, rng);
                    continue 'attempt;
                }
                ActivityEnd::Completed => {
                    out.time += costs.checkpoint;
                    debug_assert!(!corrupted || !compiled.verified);
                    return out;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::execute_pattern;
    use crate::rng::Rng;
    use resilience::pattern::Pattern;
    use resilience::platform::{CostModel, Platform};

    fn costs() -> CostModel {
        CostModel::new(300.0, 300.0, 100.0, 20.0, 0.8)
    }

    #[test]
    fn no_errors_means_deterministic_time() {
        // Rates ~0: the pattern takes exactly work + verifs + checkpoint.
        let p = Platform::new(1e-30, 1e-30);
        let c = costs();
        let pat = Pattern::GuaranteedSegments {
            work: 3600.0,
            segments: 3,
        }
        .compile();
        let e = execute_pattern(&pat, &p, &c, &mut Rng::new(1));
        assert_eq!(e.fail_stop_events, 0);
        assert_eq!(e.silent_errors, 0);
        assert!((e.time - (3600.0 + 3.0 * 100.0 + 300.0)).abs() < 1e-9);
    }

    #[test]
    fn heavy_fail_stop_rate_forces_rollbacks() {
        let p = Platform::new(1e-3, 0.0);
        let c = costs();
        let pat = Pattern::VerifiedCheckpoint { work: 3600.0 }.compile();
        let e = execute_pattern(&pat, &p, &c, &mut Rng::new(2));
        assert!(
            e.fail_stop_events > 0,
            "λ_f W ≈ 3.6 should almost surely fail"
        );
        assert!(e.time > 3600.0 + 100.0 + 300.0);
    }

    #[test]
    fn silent_errors_are_always_caught_before_commit() {
        let p = Platform::new(0.0, 5e-4);
        let c = costs();
        let pat = Pattern::PartialChunks {
            work: 3600.0,
            chunks: resilience::eq18_chunks(4, c.recall),
        }
        .compile();
        let mut rng = Rng::new(3);
        let mut total_injected = 0;
        let mut total_detected = 0;
        for _ in 0..200 {
            let e = execute_pattern(&pat, &p, &c, &mut rng);
            total_injected += e.silent_errors;
            total_detected += e.silent_detections;
        }
        assert!(total_injected > 0);
        // Every injected corruption must eventually be detected (detections
        // can't exceed injections; with λ_f = 0 nothing else rolls back).
        assert_eq!(total_detected, total_injected);
    }

    #[test]
    #[should_panic(expected = "unverified pattern")]
    fn unverified_pattern_rejected_under_silent_errors() {
        let p = Platform::new(1e-6, 1e-6);
        let pat = Pattern::Checkpoint { work: 100.0 }.compile();
        execute_pattern(&pat, &p, &costs(), &mut Rng::new(4));
    }

    #[test]
    fn checkpoint_pattern_runs_under_fail_stop_only() {
        let p = Platform::new(1e-5, 0.0);
        let pat = Pattern::Checkpoint { work: 10_000.0 }.compile();
        let e = execute_pattern(&pat, &p, &costs(), &mut Rng::new(5));
        assert!(e.time >= 10_000.0 + 300.0);
        assert_eq!(e.silent_errors, 0);
    }
}
