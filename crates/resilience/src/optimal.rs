//! Closed-form optimal patterns (Theorems 1–4) with convex integer rounding.
//!
//! Every overhead function here is of the paper's hyperbolic form
//! `H(W) = o_ef/W + o_rw·W`, minimized at `W* = √(o_ef/o_rw)` with
//! `H* = 2√(o_ef·o_rw)`. Optimizing the pattern structure (number of
//! verifications, chunk sizes) then reduces to minimizing the product
//! `o_ef·o_rw`, which is again hyperbolic in the right variable; the integer
//! optima follow by the floor/ceil rounding rule
//! ([`best_integer_neighbor`]).
//!
//! The chunk-size optimum for partial verifications is Eq. (18): end chunks
//! `1/((m−2)r+2)`, interior chunks `r/((m−2)r+2)`, with quadratic-form value
//! `f* = ½(1 + (2−r)/((m−2)r+2))`.

use crate::overhead::{error_free_cost, reexec_rate};
use crate::pattern::Pattern;
use crate::platform::{CostModel, Platform};
use numerics::integer::{best_integer_neighbor, best_integer_pair};

/// An optimized pattern: structure and work are both fixed, and `overhead`
/// is the first-order expected overhead `H*` at that configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternOptimum {
    /// The optimal pattern, with `work` set to `W*`.
    pub pattern: Pattern,
    /// First-order expected overhead at the optimum.
    pub overhead: f64,
}

impl PatternOptimum {
    /// Optimal pattern work `W*`, seconds.
    pub fn work(&self) -> f64 {
        self.pattern.work()
    }
}

/// `W* = √(o_ef/o_rw)` and `H* = 2√(o_ef·o_rw)` for a hyperbolic overhead.
fn hyperbolic_optimum(o_ef: f64, o_rw: f64) -> (f64, f64) {
    ((o_ef / o_rw).sqrt(), 2.0 * (o_ef * o_rw).sqrt())
}

/// Finalizes a structurally-fixed pattern by installing its optimal work.
fn finalize(pattern: Pattern, platform: &Platform, costs: &CostModel) -> PatternOptimum {
    let o_ef = error_free_cost(&pattern, costs);
    let o_rw = reexec_rate(&pattern, platform, costs);
    let (w, h) = hyperbolic_optimum(o_ef, o_rw);
    PatternOptimum {
        pattern: pattern.with_work(w),
        overhead: h,
    }
}

/// Young/Daly baseline: periodic checkpoint without verification, for
/// platforms with fail-stop errors only. `W* = √(2C/λ_f)`.
///
/// # Panics
/// Panics when the platform has silent errors (the pattern cannot detect
/// them) or no fail-stop errors.
pub fn young_daly(platform: &Platform, costs: &CostModel) -> PatternOptimum {
    assert!(
        // float-cmp: λ_s is a configuration value, not a computation result;
        // "no silent errors" means literally zero.
        platform.lambda_silent == 0.0,
        "checkpoint-only pattern requires a platform without silent errors"
    );
    finalize(Pattern::Checkpoint { work: 1.0 }, platform, costs)
}

/// Theorem 1: the base pattern `W · V* · C`, with
/// `W* = √((V*+C)/(λ_f/2 + λ_s))`.
pub fn theorem1(platform: &Platform, costs: &CostModel) -> PatternOptimum {
    finalize(Pattern::VerifiedCheckpoint { work: 1.0 }, platform, costs)
}

/// Overhead of the Theorem 2 pattern as a function of a (relaxed) segment
/// count `m`.
fn h2(platform: &Platform, costs: &CostModel, m: f64) -> f64 {
    let o_ef = m * costs.guaranteed_verif + costs.checkpoint;
    let o_rw = platform.lambda_fail / 2.0 + platform.lambda_silent * (m + 1.0) / (2.0 * m);
    2.0 * (o_ef * o_rw).sqrt()
}

/// Continuous optimal segment count `m̄` for Theorem 2 (before rounding).
fn th2_mbar(platform: &Platform, costs: &CostModel) -> f64 {
    let (lf, ls) = (platform.lambda_fail, platform.lambda_silent);
    if ls > 0.0 {
        (costs.checkpoint * ls / (costs.guaranteed_verif * (lf + ls))).sqrt()
    } else {
        1.0
    }
}

/// Continuous and integer-optimal segment counts for Theorem 2.
fn th2_core(platform: &Platform, costs: &CostModel) -> (f64, u64) {
    let m_bar = th2_mbar(platform, costs);
    let (m, _) = best_integer_neighbor(|m| h2(platform, costs, m as f64), m_bar.max(1.0), 1);
    (m_bar, m)
}

/// Theorem 2: `m` equal segments under guaranteed verifications, one
/// checkpoint. Continuous optimum `m̄ = √(C·λ_s / (V*(λ_f+λ_s)))`, rounded
/// to the better integer neighbour.
pub fn theorem2(platform: &Platform, costs: &CostModel) -> PatternOptimum {
    let (_, m) = th2_core(platform, costs);
    finalize(
        Pattern::GuaranteedSegments {
            work: 1.0,
            segments: m,
        },
        platform,
        costs,
    )
}

/// Eq. (18) optimal chunk fractions for `m` chunks under partial
/// verifications of recall `r`: end chunks `1/((m−2)r+2)`, interior chunks
/// `r/((m−2)r+2)`.
pub fn eq18_chunks(m: usize, r: f64) -> Vec<f64> {
    assert!(m >= 1, "need at least one chunk");
    assert!(r > 0.0 && r <= 1.0, "recall must lie in (0, 1]");
    if m == 1 {
        return vec![1.0];
    }
    let denom = (m as f64 - 2.0) * r + 2.0;
    let mut beta = vec![r / denom; m];
    beta[0] = 1.0 / denom;
    beta[m - 1] = 1.0 / denom;
    beta
}

/// Eq. (18) optimal quadratic-form value
/// `f* = ½(1 + (2−r)/((m−2)r+2))` — the minimum of `βᵀAβ` over the simplex.
pub fn eq18_value(m: usize, r: f64) -> f64 {
    assert!(m >= 1, "need at least one chunk");
    let denom = (m as f64 - 2.0) * r + 2.0;
    0.5 * (1.0 + (2.0 - r) / denom)
}

/// Overhead of the Theorem 3 pattern as a function of a (relaxed) chunk
/// count `m`, assuming Eq. (18) optimal chunk sizes.
fn h3(platform: &Platform, costs: &CostModel, m: f64) -> f64 {
    let r = costs.recall;
    let o_ef = (m - 1.0) * costs.partial_verif + costs.guaranteed_verif + costs.checkpoint;
    let u = (m - 2.0) * r + 2.0;
    let f_re = 0.5 * (1.0 + (2.0 - r) / u);
    let o_rw = platform.lambda_fail / 2.0 + platform.lambda_silent * f_re;
    2.0 * (o_ef * o_rw).sqrt()
}

/// Continuous optimal chunk count `m̄` for Theorem 3 (before rounding).
///
/// Substituting `u = (m−2)r+2` makes `o_ef·o_rw = (a·u+b)(c+d/u)` with
/// `a = v/r`, `b = V*+C − v(2−r)/r`, `c = (λ_f+λ_s)/2`, `d = λ_s(2−r)/2`,
/// so `ū = √(bd/(ac))`, clamped to the single-chunk boundary when the
/// closed form falls below it (partial verifications too expensive).
fn th3_mbar(platform: &Platform, costs: &CostModel) -> f64 {
    let (lf, ls) = (platform.lambda_fail, platform.lambda_silent);
    let r = costs.recall;
    let v = costs.partial_verif;
    let a = v / r;
    let b = costs.guaranteed_verif + costs.checkpoint - v * (2.0 - r) / r;
    let c = (lf + ls) / 2.0;
    let d = ls * (2.0 - r) / 2.0;
    let u_min = 2.0 - r; // m = 1
    let u_bar = if b > 0.0 && d > 0.0 {
        (b * d / (a * c)).sqrt().max(u_min)
    } else {
        u_min
    };
    (u_bar - 2.0) / r + 2.0
}

/// Continuous and integer-optimal chunk counts for Theorem 3.
fn th3_core(platform: &Platform, costs: &CostModel) -> (f64, u64) {
    let m_bar = th3_mbar(platform, costs);
    let (m, _) = best_integer_neighbor(|m| h3(platform, costs, m as f64), m_bar.max(1.0), 1);
    (m_bar, m)
}

/// Theorem 3: chunks under partial verifications with Eq. (18) sizes, a
/// guaranteed verification and a checkpoint at the end.
pub fn theorem3(platform: &Platform, costs: &CostModel) -> PatternOptimum {
    let (_, m) = th3_core(platform, costs);
    let chunks = eq18_chunks(m as usize, costs.recall);
    finalize(
        Pattern::PartialChunks { work: 1.0, chunks },
        platform,
        costs,
    )
}

/// Overhead of the Theorem 4 pattern with `m` guaranteed sub-segments, each
/// holding `n` partial verifications (so `n+1` Eq.-(18)-sized chunks) — the
/// Proposition-3 first-order overhead at the Eq.-(18) chunk optimum.
fn h4(platform: &Platform, costs: &CostModel, n: f64, m: f64) -> f64 {
    let r = costs.recall;
    let o_ef = m * (costs.guaranteed_verif + n * costs.partial_verif) + costs.checkpoint;
    let u = (n - 1.0) * r + 2.0;
    let f_re = 0.5 + (2.0 - r) / (2.0 * m * u);
    let o_rw = platform.lambda_fail / 2.0 + platform.lambda_silent * f_re;
    2.0 * (o_ef * o_rw).sqrt()
}

/// The most distinct `(n, m)` pairs one [`theorem4`] call scores: its two
/// boundary candidates plus the four corners of each of its two
/// [`best_integer_pair`] polishes.
const H4_MEMO_CAP: usize = 2 + 2 * 4;

/// Memoized `h4` evaluation for the warm-started Theorem-4 candidate
/// search, held on the stack: a linear scan over the (at most
/// [`H4_MEMO_CAP`]) candidates already scored is cheaper than hashing or
/// allocating, and returning the *stored* value keeps every comparison
/// bit-for-bit identical to an un-memoized run.
struct H4Memo {
    evals: [(u64, u64, f64); H4_MEMO_CAP],
    len: usize,
}

impl H4Memo {
    fn new() -> Self {
        H4Memo {
            evals: [(0, 0, 0.0); H4_MEMO_CAP],
            len: 0,
        }
    }

    fn eval(&mut self, platform: &Platform, costs: &CostModel, n: u64, m: u64) -> f64 {
        let scored = &self.evals[..self.len];
        if let Some(&(_, _, h)) = scored.iter().find(|&&(en, em, _)| en == n && em == m) {
            return h;
        }
        let h = h4(platform, costs, n as f64, m as f64);
        self.evals[self.len] = (n, m, h);
        self.len += 1;
        h
    }
}

/// Theorem 4: the combined pattern with `m` guaranteed sub-segments and `n`
/// partial verifications per sub-segment.
///
/// The product `o_ef·o_rw` has no interior stationary point in `(m, u)`
/// unless `V* = v(2−r)/r` exactly, so the continuous optimum sits on one of
/// the two boundaries: `n = 0` (Theorem 2) or `m = 1` (Theorem 3). The
/// integer optimum is taken as the best of both rounded boundary candidates
/// plus a [`best_integer_pair`] polish around each.
///
/// The search is deterministically warm-started per query: every integer
/// candidate is bracketed by this query's *own* closed-form continuous
/// optima (`m̄₂` along the `n = 0` boundary, `m̄₃` along `m = 1`), so the
/// interval examined is a handful of points regardless of platform scale,
/// and the [`H4Memo`] table evaluates each `(n, m)` at most once (boundary
/// candidates and polish corners overlap). Everything is a pure function of
/// `(platform, costs)` — cell order, sharding, and cache state cannot
/// change the result, and the memo returns stored values so the selected
/// optimum is bit-identical to an un-memoized search.
pub fn theorem4(platform: &Platform, costs: &CostModel) -> PatternOptimum {
    let (m2_bar, m2) = th2_core(platform, costs);
    let (m3_bar, m3) = th3_core(platform, costs);
    let mut memo = H4Memo::new();
    // (n, m) candidates; k = n + 1 so that both coordinates share the ≥ 1
    // clamp of best_integer_pair.
    let mut best: (u64, u64, f64) = (0, m2, memo.eval(platform, costs, 0, m2));
    let mut consider = |memo: &mut H4Memo, n: u64, m: u64| {
        let h = memo.eval(platform, costs, n, m);
        if h < best.2 {
            best = (n, m, h);
        }
    };
    consider(&mut memo, m3 - 1, 1);
    for (m_star, k_star) in [(m2_bar.max(1.0), 1.0), (1.0, m3_bar.max(1.0))] {
        let (m, k, _) = best_integer_pair(
            |m, k| memo.eval(platform, costs, k - 1, m),
            m_star,
            k_star,
            1,
        );
        consider(&mut memo, k - 1, m);
    }

    let (n, m, _) = best;
    let chunks = eq18_chunks(n as usize + 1, costs.recall);
    finalize(
        Pattern::Combined {
            work: 1.0,
            segments: m,
            chunks,
        },
        platform,
        costs,
    )
}

/// [`theorem4`] mapped over `cells`, in order.
///
/// Nothing in the workspace calls it: it stays public only because the
/// benchmark harness (`perfbench`) links it.
pub fn theorem4_batch(cells: &[(Platform, CostModel)]) -> Vec<PatternOptimum> {
    cells.iter().map(|(p, c)| theorem4(p, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overhead::first_order_overhead;
    use numerics::approx_eq;
    use numerics::matrix::recall_matrix;

    fn hera() -> (Platform, CostModel) {
        // Hera-like rates from the paper's Table 2.
        (
            Platform::new(9.46e-7, 3.38e-6),
            CostModel::new(300.0, 300.0, 100.0, 20.0, 0.8),
        )
    }

    #[test]
    fn theorem1_matches_hyperbolic_formula() {
        let (p, c) = hera();
        let opt = theorem1(&p, &c);
        let o_rw = p.lambda_fail / 2.0 + p.lambda_silent;
        assert!(approx_eq(
            opt.work(),
            ((100.0 + 300.0) / o_rw).sqrt(),
            1e-12
        ));
        assert!(approx_eq(
            opt.overhead,
            2.0 * ((100.0 + 300.0) * o_rw).sqrt(),
            1e-12
        ));
        // The reported overhead is the evaluator's value at the optimum.
        assert!(approx_eq(
            opt.overhead,
            first_order_overhead(&opt.pattern, &p, &c),
            1e-12
        ));
    }

    #[test]
    fn eq18_chunks_sum_to_one_and_match_value() {
        for m in 1..=12usize {
            for r in [0.2, 0.5, 0.8, 1.0] {
                let beta = eq18_chunks(m, r);
                let sum: f64 = beta.iter().sum();
                assert!(approx_eq(sum, 1.0, 1e-12), "m={m} r={r}");
                let form = recall_matrix(m, r).quadratic_form(&beta);
                assert!(
                    approx_eq(form, eq18_value(m, r), 1e-12),
                    "m={m} r={r}: {form} vs {}",
                    eq18_value(m, r)
                );
            }
        }
    }

    #[test]
    fn theorem2_beats_theorem1_under_heavy_silent_errors() {
        let (p, c) = hera();
        let t1 = theorem1(&p, &c);
        let t2 = theorem2(&p, &c);
        assert!(t2.overhead <= t1.overhead + 1e-12);
        assert!(t2.pattern.guaranteed_verifs() >= 1);
    }

    #[test]
    fn theorem3_uses_partials_when_cheap_and_accurate() {
        let (p, c) = hera();
        let t3 = theorem3(&p, &c);
        assert!(
            t3.pattern.partial_verifs() > 0,
            "v = 20, V* = 100 should favour partials"
        );
        assert!(t3.overhead <= theorem1(&p, &c).overhead + 1e-12);
    }

    #[test]
    fn theorem4_never_worse_than_either_parent() {
        let (p, c) = hera();
        let t2 = theorem2(&p, &c);
        let t3 = theorem3(&p, &c);
        let t4 = theorem4(&p, &c);
        assert!(t4.overhead <= t2.overhead + 1e-12);
        assert!(t4.overhead <= t3.overhead + 1e-12);
    }

    #[test]
    fn expensive_partials_degenerate_theorem4_to_theorem2() {
        let p = Platform::new(9.46e-7, 3.38e-6);
        // v(2−r)/r = 90 > V* = 60: partial verifications cannot win.
        let c = CostModel::new(300.0, 300.0, 60.0, 30.0, 0.5);
        let t4 = theorem4(&p, &c);
        assert_eq!(t4.pattern.partial_verifs(), 0);
        assert!(approx_eq(t4.overhead, theorem2(&p, &c).overhead, 1e-12));
    }

    #[test]
    fn young_daly_matches_textbook_formula() {
        let p = Platform::new(1e-5, 0.0);
        let c = CostModel::new(300.0, 300.0, 100.0, 20.0, 0.8);
        let yd = young_daly(&p, &c);
        assert!(approx_eq(yd.work(), (2.0f64 * 300.0 / 1e-5).sqrt(), 1e-12));
        assert!(approx_eq(
            yd.overhead,
            (2.0f64 * 300.0 * 1e-5).sqrt(),
            1e-12
        ));
    }

    #[test]
    fn silent_free_platform_degenerates_to_single_segment() {
        let p = Platform::new(1e-5, 0.0);
        let c = CostModel::new(300.0, 300.0, 100.0, 20.0, 0.8);
        assert_eq!(theorem2(&p, &c).pattern.guaranteed_verifs(), 1);
        assert_eq!(theorem3(&p, &c).pattern.partial_verifs(), 0);
        assert_eq!(theorem4(&p, &c).pattern.partial_verifs(), 0);
    }
}
