//! First-order expected-overhead evaluators.
//!
//! For a pattern with work `W`, error-free cost `o_ef` (verifications plus
//! checkpoint) and re-executed-work rate `o_rw`, the paper's first-order
//! expected overhead is
//!
//! ```text
//! H(W) = o_ef / W + o_rw · W + O(λ²W²),
//! o_rw = λ_f / 2 + λ_s · f_re,
//! ```
//!
//! where `f_re` is the expected fraction of the pattern re-executed per
//! silent error. `f_re` is the quadratic form `βᵀ A β` of Proposition 3 in
//! the chunk fractions `β`, with `A` the recall matrix — for equal chunks
//! under guaranteed verifications it degenerates to the familiar
//! `(m + 1) / (2m)`.

use crate::pattern::Pattern;
use crate::platform::{CostModel, Platform};
use numerics::matrix::recall_quadratic_form;

/// Error-free time cost `o_ef` of one pattern: all verifications plus the
/// trailing checkpoint, in seconds.
///
/// # Panics
/// Panics on structurally invalid patterns (see [`Pattern::validate`]).
pub fn error_free_cost(pattern: &Pattern, costs: &CostModel) -> f64 {
    pattern.validate();
    pattern.guaranteed_verifs() as f64 * costs.guaranteed_verif
        + pattern.partial_verifs() as f64 * costs.partial_verif
        + costs.checkpoint
}

/// Expected fraction of the pattern's work re-executed per silent error,
/// `f_re` — the quadratic form of Proposition 3.
///
/// # Panics
/// Panics for [`Pattern::Checkpoint`], which has no verification and hence
/// cannot detect silent errors, and on structurally invalid patterns (see
/// [`Pattern::validate`]) — the same invariants the simulator enforces, so
/// analytic-vs-simulated comparisons fail loudly on both sides.
pub fn silent_reexec_fraction(pattern: &Pattern, costs: &CostModel) -> f64 {
    pattern.validate();
    // Matrix-free βᵀAβ: bit-identical to materializing the recall matrix
    // (pinned in `numerics`), but with no per-call O(m²) allocation — this
    // runs on every theorem-3/4 optimizer call, i.e. every cache miss of a
    // sweep.
    let chunk_form = |beta: &[f64]| recall_quadratic_form(costs.recall, beta);
    match *pattern {
        Pattern::Checkpoint { .. } => {
            panic!("checkpoint-only pattern cannot detect silent errors")
        }
        Pattern::VerifiedCheckpoint { .. } => 1.0,
        Pattern::GuaranteedSegments { segments, .. } => {
            let m = segments as f64;
            (m + 1.0) / (2.0 * m)
        }
        Pattern::PartialChunks { ref chunks, .. } => chunk_form(chunks),
        Pattern::Combined {
            segments,
            ref chunks,
            ..
        } => {
            let m = segments as f64;
            (m - 1.0) / (2.0 * m) + chunk_form(chunks) / m
        }
    }
}

/// Re-executed-work rate `o_rw = λ_f/2 + λ_s · f_re` (1/s).
///
/// # Panics
/// Panics when the platform has silent errors but the pattern cannot detect
/// them.
pub fn reexec_rate(pattern: &Pattern, platform: &Platform, costs: &CostModel) -> f64 {
    let silent = if platform.lambda_silent > 0.0 {
        platform.lambda_silent * silent_reexec_fraction(pattern, costs)
    } else {
        0.0
    };
    platform.lambda_fail / 2.0 + silent
}

/// First-order expected overhead `H = o_ef/W + o_rw·W` of the pattern.
pub fn first_order_overhead(pattern: &Pattern, platform: &Platform, costs: &CostModel) -> f64 {
    let w = pattern.work();
    error_free_cost(pattern, costs) / w + reexec_rate(pattern, platform, costs) * w
}

#[cfg(test)]
mod tests {
    // Tests pin exact values on purpose (bit-stability is the contract
    // under test); tolerance comparisons would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;
    use numerics::approx_eq;

    fn costs() -> CostModel {
        CostModel::new(300.0, 300.0, 100.0, 20.0, 0.8)
    }

    #[test]
    fn error_free_cost_counts_all_components() {
        let c = costs();
        let p = Pattern::Combined {
            work: 1000.0,
            segments: 3,
            chunks: vec![0.4, 0.3, 0.3],
        };
        // 3 guaranteed + 6 partial + checkpoint.
        assert!(approx_eq(
            error_free_cost(&p, &c),
            3.0 * 100.0 + 6.0 * 20.0 + 300.0,
            1e-12
        ));
    }

    #[test]
    fn guaranteed_segments_match_quadratic_form_at_recall_one() {
        // (m+1)/(2m) is the equal-chunk quadratic form with recall 1.
        let mut c = costs();
        c.recall = 1.0;
        for m in [1u64, 2, 5, 17] {
            let closed = silent_reexec_fraction(
                &Pattern::GuaranteedSegments {
                    work: 1.0,
                    segments: m,
                },
                &c,
            );
            let beta = vec![1.0 / m as f64; m as usize];
            let form = silent_reexec_fraction(
                &Pattern::PartialChunks {
                    work: 1.0,
                    chunks: beta,
                },
                &c,
            );
            assert!(
                approx_eq(closed, form, 1e-12),
                "m = {m}: {closed} vs {form}"
            );
        }
    }

    #[test]
    fn combined_degenerates_to_both_parents() {
        let c = costs();
        // One sub-segment: combined == partial chunks.
        let beta = vec![0.5, 0.3, 0.2];
        let combined1 = Pattern::Combined {
            work: 1.0,
            segments: 1,
            chunks: beta.clone(),
        };
        let partial = Pattern::PartialChunks {
            work: 1.0,
            chunks: beta,
        };
        assert!(approx_eq(
            silent_reexec_fraction(&combined1, &c),
            silent_reexec_fraction(&partial, &c),
            1e-12
        ));
        // Single full-width chunks: combined == guaranteed segments.
        let combined2 = Pattern::Combined {
            work: 1.0,
            segments: 6,
            chunks: vec![1.0],
        };
        let guaranteed = Pattern::GuaranteedSegments {
            work: 1.0,
            segments: 6,
        };
        assert!(approx_eq(
            silent_reexec_fraction(&combined2, &c),
            silent_reexec_fraction(&guaranteed, &c),
            1e-12
        ));
    }

    #[test]
    fn verified_checkpoint_loses_whole_pattern() {
        assert_eq!(
            silent_reexec_fraction(&Pattern::VerifiedCheckpoint { work: 5.0 }, &costs()),
            1.0
        );
    }

    #[test]
    fn overhead_is_young_daly_shaped() {
        let platform = Platform::new(1e-6, 3e-6);
        let c = costs();
        let h =
            |w: f64| first_order_overhead(&Pattern::VerifiedCheckpoint { work: w }, &platform, &c);
        // o_ef = 400, o_rw = 5e-7 + 3e-6 = 3.5e-6: W* = sqrt(o_ef/o_rw).
        let w_star = (400.0f64 / 3.5e-6).sqrt();
        assert!(h(w_star) < h(0.5 * w_star));
        assert!(h(w_star) < h(2.0 * w_star));
        assert!(approx_eq(
            h(w_star),
            2.0 * (400.0f64 * 3.5e-6).sqrt(),
            1e-12
        ));
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn analytic_path_rejects_empty_chunks() {
        error_free_cost(
            &Pattern::PartialChunks {
                work: 100.0,
                chunks: vec![],
            },
            &costs(),
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn analytic_path_rejects_non_simplex_chunks() {
        let platform = Platform::new(1e-6, 3e-6);
        first_order_overhead(
            &Pattern::PartialChunks {
                work: 100.0,
                chunks: vec![0.5, 0.4],
            },
            &platform,
            &costs(),
        );
    }

    #[test]
    #[should_panic(expected = "cannot detect silent")]
    fn checkpoint_pattern_rejects_silent_errors() {
        let platform = Platform::new(1e-6, 3e-6);
        first_order_overhead(&Pattern::Checkpoint { work: 100.0 }, &platform, &costs());
    }

    #[test]
    fn checkpoint_pattern_fine_without_silent_errors() {
        let platform = Platform::new(1e-6, 0.0);
        let c = costs();
        let h = first_order_overhead(&Pattern::Checkpoint { work: 1000.0 }, &platform, &c);
        assert!(approx_eq(h, 300.0 / 1000.0 + 5e-7 * 1000.0, 1e-12));
    }
}
