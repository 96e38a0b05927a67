//! Wide-SIMD backend: replication lanes advanced in true data-parallel form
//! over structure-of-arrays `f64` state, laid out in fixed-width blocks of
//! [`LANE_WIDTH`] lanes.
//!
//! The base idea is the **persistent arrival countdown**. Error arrivals
//! are memoryless, so resampling a fresh exponential per activity (what the
//! event backend does) is distributionally identical to sampling one
//! arrival time and carrying the remaining countdown across activities,
//! attempts, and even replications. Each lane keeps two countdowns —
//! fail-stop (decremented by every exposed second) and silent (decremented
//! by completed, still-uncorrupted work seconds) — and touches its RNG only
//! when an arrival actually fires or a corrupted lane reaches a partial
//! verification. At an attempt boundary where both countdowns clear the
//! attempt, the error-free walk is deterministic and commits in one step;
//! other lanes walk the precompiled activity program (see
//! [`super::program`]) one activity per round. Three layers stack on top:
//!
//! 1. **Vector fast-path mask.** At every round, each 8-lane block asks
//!    "which lanes sit at a clean attempt boundary with both countdowns
//!    clearing the whole attempt?" in one shot: two `f64` compares per
//!    4-wide AVX2 register (`fail_cd ≥ total_duration`, `silent_cd ≥
//!    total_work`) folded into an 8-bit mask. The scalar fallback computes
//!    the identical mask with plain array loops that LLVM autovectorizes on
//!    whatever the target offers; both paths are bit-identical, so results
//!    never depend on the host's ISA — only speed does. The AVX2 path is
//!    selected once per stream by runtime feature detection
//!    ([`SimdEngine::runtime_supported`]).
//! 2. **Countdown draining.** A lane whose countdowns clear one attempt
//!    usually clears many: with `λ·W ≪ 1` the expected number is `1/(λ·W)`
//!    (tens to hundreds). Instead of re-checking the mask per replication,
//!    a cleared lane commits `min(⌊fail_cd/duration⌋, ⌊silent_cd/work⌋,
//!    remaining)` whole replications at once — one divide pair and one
//!    subtract pair for a batch of emissions. This is exact, not an
//!    approximation: clean attempts are deterministic, and the memoryless
//!    countdowns just decrement.
//! 3. **Lane-parallel RNG.** Each lane owns a [`LaneRng`] stream spaced by
//!    xoshiro256++ `jump()` — provably disjoint 2¹²⁸-draw segments, not
//!    merely reseeded — with initial countdowns drawn through the
//!    vectorized exponential sampler (uniforms for all lanes, then the
//!    `ln()` pass). Slow-path lanes draw individually from their own lane.
//!
//! Emission order is rounds over blocks over lanes, drained replications
//! inline — a pure function of the stream state, as [`Engine`] requires.
//! The backend promises statistical equivalence to `event` (pinned
//! by `tests/backends.rs` over all six named scenarios) plus bit-stable
//! self-determinism for a fixed `(seed, lanes)` on **any** machine, AVX2 or
//! not.

use super::program::{step_lane, LaneOf, LaneState, Program};
use super::{assert_committable, Engine, Execution};
use crate::rng::{LaneRng, Rng};
use resilience::pattern::CompiledPattern;
use resilience::platform::{CostModel, Platform};

/// Lanes per SoA block: 8 `f64`s = two 256-bit AVX2 registers, the width
/// the explicit intrinsic path consumes per mask computation.
pub const LANE_WIDTH: usize = 8;

/// One block of lockstep lanes, structure-of-arrays. The two countdown
/// arrays are the vector fast path's inputs; keeping the whole block under
/// a few hundred bytes holds every active block in L1.
struct Block {
    /// Exposed seconds until the next fail-stop arrival.
    fail_cd: [f64; LANE_WIDTH],
    /// Uncorrupted work seconds until the next silent arrival.
    silent_cd: [f64; LANE_WIDTH],
    /// Accumulated wall-clock time of the current replication.
    time: [f64; LANE_WIDTH],
    /// Program counter: index into `Program::acts`.
    pos: [u32; LANE_WIDTH],
    corrupted: [bool; LANE_WIDTH],
    fail_stop: [u64; LANE_WIDTH],
    silent: [u64; LANE_WIDTH],
    detections: [u64; LANE_WIDTH],
    /// Replications this lane still has to commit (including the one in
    /// flight); 0 = lane idle.
    remaining: [u64; LANE_WIDTH],
    /// Jump-spaced lane streams, consulted only on error events and
    /// corrupted partial verifications.
    rng: LaneRng<LANE_WIDTH>,
}

impl Block {
    fn new(quotas: [u64; LANE_WIDTH], cursor: &mut Rng, prog: &Program) -> Self {
        let mut rng = LaneRng::from_jump_cursor(cursor);
        let mut fail_cd = [0.0; LANE_WIDTH];
        let mut silent_cd = [0.0; LANE_WIDTH];
        rng.fill_exp(prog.lambda_fail, &mut fail_cd);
        rng.fill_exp(prog.lambda_silent, &mut silent_cd);
        Self {
            fail_cd,
            silent_cd,
            time: [0.0; LANE_WIDTH],
            pos: [0; LANE_WIDTH],
            corrupted: [false; LANE_WIDTH],
            fail_stop: [0; LANE_WIDTH],
            silent: [0; LANE_WIDTH],
            detections: [0; LANE_WIDTH],
            remaining: quotas,
            rng,
        }
    }

    /// Lanes at a clean attempt boundary that still owe replications —
    /// the scalar half of the fast-path mask.
    fn boundary_mask(&self) -> u8 {
        let mut m = 0u8;
        for l in 0..LANE_WIDTH {
            let at_boundary = self.remaining[l] > 0 && self.pos[l] == 0 && !self.corrupted[l];
            m |= (at_boundary as u8) << l;
        }
        m
    }
}

/// Scalar fallback for the countdown compare mask: bit `l` set when lane
/// `l`'s countdowns clear a whole attempt. Bit-identical to the AVX2 path
/// (`≥` on `f64`, `+∞` clears everything), just narrower per instruction.
fn clear_mask_scalar(
    fail_cd: &[f64; LANE_WIDTH],
    silent_cd: &[f64; LANE_WIDTH],
    p: &Program,
) -> u8 {
    let mut m = 0u8;
    for l in 0..LANE_WIDTH {
        let clear = fail_cd[l] >= p.total_duration && silent_cd[l] >= p.total_work;
        m |= (clear as u8) << l;
    }
    m
}

/// AVX2 compare mask over one 8-lane block: two `_mm256_cmp_pd(GE)` pairs
/// ANDed and movemask'd into the same 8-bit layout as the scalar fallback.
///
/// # Safety
/// Caller must have verified AVX2 support (`SimdEngine::runtime_supported`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn clear_mask_avx2(
    fail_cd: &[f64; LANE_WIDTH],
    silent_cd: &[f64; LANE_WIDTH],
    p: &Program,
) -> u8 {
    use core::arch::x86_64::*;
    // SAFETY: the four unaligned loads read 4 lanes at offsets 0 and 4 of
    // 8-lane arrays, so every access is in bounds; AVX2 availability is
    // this fn's own caller contract.
    unsafe {
        let dur = _mm256_set1_pd(p.total_duration);
        let work = _mm256_set1_pd(p.total_work);
        let f_lo = _mm256_loadu_pd(fail_cd.as_ptr());
        let f_hi = _mm256_loadu_pd(fail_cd.as_ptr().add(4));
        let s_lo = _mm256_loadu_pd(silent_cd.as_ptr());
        let s_hi = _mm256_loadu_pd(silent_cd.as_ptr().add(4));
        let lo = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(f_lo, dur),
            _mm256_cmp_pd::<_CMP_GE_OQ>(s_lo, work),
        );
        let hi = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(f_hi, dur),
            _mm256_cmp_pd::<_CMP_GE_OQ>(s_hi, work),
        );
        (_mm256_movemask_pd(lo) as u8) | ((_mm256_movemask_pd(hi) as u8) << 4)
    }
}

/// The wide-SIMD backend.
#[derive(Debug, Clone, Copy)]
pub struct SimdEngine {
    /// Total lanes per stream, rounded up to a multiple of [`LANE_WIDTH`].
    /// More lanes amortize slow-path rounds over more fast-path commits but
    /// idle longer at small replication counts.
    pub lanes: usize,
    /// Forces the scalar mask path even when AVX2 is available. Results are
    /// bit-identical either way (tested); this exists so the fallback stays
    /// exercised on AVX2 hosts.
    pub force_scalar: bool,
}

impl Default for SimdEngine {
    fn default() -> Self {
        // 32 lanes = 4 blocks ≈ 3 KiB of hot state: enough lanes that slow
        // rounds still retire work, small enough to live in L1 alongside
        // the caller's accumulators.
        Self {
            lanes: 32,
            force_scalar: false,
        }
    }
}

impl SimdEngine {
    /// Whether the explicit AVX2 mask path can run on this host. The
    /// backend itself runs anywhere (the scalar fallback is bit-identical);
    /// this gate only decides which mask kernel executes.
    pub fn runtime_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    fn lane_count(&self) -> usize {
        self.lanes.max(1).div_ceil(LANE_WIDTH) * LANE_WIDTH
    }
}

impl Engine for SimdEngine {
    fn execute(
        &self,
        rng: &mut Rng,
        pattern: &CompiledPattern,
        platform: &Platform,
        costs: &CostModel,
    ) -> Execution {
        let mut only = Execution::default();
        self.execute_stream(rng, 1, pattern, platform, costs, &mut |e| only = e);
        only
    }

    /// The native entry point (`execute_stream` expands it through the
    /// trait default): clean-attempt drains surface as one `(outcome, k)`
    /// group instead of `k` emissions.
    fn execute_stream_grouped(
        &self,
        rng: &mut Rng,
        replications: u64,
        pattern: &CompiledPattern,
        platform: &Platform,
        costs: &CostModel,
        emit: &mut dyn FnMut(Execution, u64),
    ) {
        assert_committable(pattern, platform);
        if replications == 0 {
            return;
        }
        let prog = Program::compile(pattern, platform, costs);
        let use_avx2 = !self.force_scalar && Self::runtime_supported();
        // Never spin up more blocks than replications can fill.
        let lanes = self
            .lane_count()
            .min(usize::try_from(replications).unwrap_or(usize::MAX))
            .div_ceil(LANE_WIDTH)
            * LANE_WIDTH;

        // Spread replications over lanes as evenly as possible; trailing
        // lanes of the last block may start idle (quota 0).
        let base = replications / lanes as u64;
        let extras = replications % lanes as u64;
        let mut active = 0usize;
        let mut cursor = rng.split();
        let mut blocks: Vec<Block> = (0..lanes / LANE_WIDTH)
            .map(|b| {
                let mut quotas = [0u64; LANE_WIDTH];
                for (l, q) in quotas.iter_mut().enumerate() {
                    let lane = (b * LANE_WIDTH + l) as u64;
                    *q = base + u64::from(lane < extras);
                    active += usize::from(*q > 0);
                }
                Block::new(quotas, &mut cursor, &prog)
            })
            .collect();

        while active > 0 {
            for blk in &mut blocks {
                let clear = if use_avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `use_avx2` implies runtime_supported().
                    unsafe {
                        clear_mask_avx2(&blk.fail_cd, &blk.silent_cd, &prog)
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    unreachable!("use_avx2 is false off x86_64")
                } else {
                    clear_mask_scalar(&blk.fail_cd, &blk.silent_cd, &prog)
                };
                let fast = clear & blk.boundary_mask();
                for l in 0..LANE_WIDTH {
                    if blk.remaining[l] == 0 {
                        continue;
                    }
                    if fast & (1 << l) != 0 {
                        fast_commit(blk, l, &prog, emit, &mut active);
                    } else {
                        slow_step(blk, l, &prog, emit, &mut active);
                    }
                }
            }
        }
    }
}

/// Fast path for lane `l`: commit the in-flight replication (which may carry
/// rollback debris in `time`/counters), then drain every further whole clean
/// replication the countdowns already cover — surfaced as one group.
fn fast_commit(
    blk: &mut Block,
    l: usize,
    prog: &Program,
    emit: &mut dyn FnMut(Execution, u64),
    active: &mut usize,
) {
    emit(
        Execution {
            time: blk.time[l] + prog.total_duration,
            fail_stop_events: blk.fail_stop[l],
            silent_errors: blk.silent[l],
            silent_detections: blk.detections[l],
        },
        1,
    );
    blk.fail_cd[l] -= prog.total_duration;
    blk.silent_cd[l] -= prog.total_work;
    blk.time[l] = 0.0;
    blk.fail_stop[l] = 0;
    blk.silent[l] = 0;
    blk.detections[l] = 0;
    blk.remaining[l] -= 1;
    if blk.remaining[l] == 0 {
        *active -= 1;
        return;
    }

    // Drain: how many further whole attempts both countdowns clear. `+∞`
    // countdowns (disabled error source) saturate the cast to u64::MAX and
    // fall to the `remaining` clamp; the final `max(0.0)` absorbs the one
    // rounding ulp a fused `k·duration` subtraction can overshoot by.
    let k_fail = (blk.fail_cd[l] / prog.total_duration) as u64;
    let k_silent = if prog.lambda_silent > 0.0 {
        (blk.silent_cd[l] / prog.total_work) as u64
    } else {
        u64::MAX
    };
    let k = k_fail.min(k_silent).min(blk.remaining[l]);
    if k > 0 {
        blk.fail_cd[l] = (blk.fail_cd[l] - k as f64 * prog.total_duration).max(0.0);
        blk.silent_cd[l] = (blk.silent_cd[l] - k as f64 * prog.total_work).max(0.0);
        emit(
            Execution {
                time: prog.total_duration,
                ..Execution::default()
            },
            k,
        );
        blk.remaining[l] -= k;
        if blk.remaining[l] == 0 {
            *active -= 1;
        }
    }
}

/// Slow path for lane `l`: one activity transition through
/// `program::step_lane`.
fn slow_step(
    blk: &mut Block,
    l: usize,
    prog: &Program,
    emit: &mut dyn FnMut(Execution, u64),
    active: &mut usize,
) {
    let committed = step_lane(
        prog,
        LaneState {
            fail_cd: &mut blk.fail_cd[l],
            silent_cd: &mut blk.silent_cd[l],
            time: &mut blk.time[l],
            pos: &mut blk.pos[l],
            corrupted: &mut blk.corrupted[l],
            fail_stop: &mut blk.fail_stop[l],
            silent: &mut blk.silent[l],
            detections: &mut blk.detections[l],
        },
        &mut LaneOf {
            rng: &mut blk.rng,
            lane: l,
        },
    );
    if committed {
        emit(
            Execution {
                time: blk.time[l],
                fail_stop_events: blk.fail_stop[l],
                silent_errors: blk.silent[l],
                silent_detections: blk.detections[l],
            },
            1,
        );
        blk.time[l] = 0.0;
        blk.fail_stop[l] = 0;
        blk.silent[l] = 0;
        blk.detections[l] = 0;
        blk.pos[l] = 0;
        blk.corrupted[l] = false;
        blk.remaining[l] -= 1;
        if blk.remaining[l] == 0 {
            *active -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::pattern::Pattern;

    fn costs() -> CostModel {
        CostModel::new(300.0, 300.0, 100.0, 20.0, 0.8)
    }

    fn collect(engine: &SimdEngine, reps: u64, seed: u64) -> Vec<Execution> {
        let p = Platform::new(9.46e-7, 3.38e-6);
        let c = costs();
        let pat = Pattern::GuaranteedSegments {
            work: 20_000.0,
            segments: 3,
        }
        .compile();
        let mut out = Vec::new();
        engine.execute_stream(&mut Rng::new(seed), reps, &pat, &p, &c, &mut |e| {
            out.push(e)
        });
        out
    }

    #[test]
    fn no_errors_means_deterministic_time() {
        let p = Platform::new(1e-30, 1e-30);
        let c = costs();
        let pat = Pattern::GuaranteedSegments {
            work: 3600.0,
            segments: 3,
        }
        .compile();
        let e = SimdEngine::default().execute(&mut Rng::new(1), &pat, &p, &c);
        assert_eq!(e.fail_stop_events, 0);
        assert_eq!(e.silent_errors, 0);
        assert!((e.time - (3600.0 + 3.0 * 100.0 + 300.0)).abs() < 1e-9);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Monte-Carlo volume: minutes-to-hours under Miri's interpreter"
    )]
    fn stream_emits_exactly_the_requested_replications() {
        for reps in [1u64, 7, 8, 9, 31, 32, 33, 1000] {
            let out = collect(&SimdEngine::default(), reps, 42);
            assert_eq!(out.len(), reps as usize, "reps {reps}");
            assert!(out.iter().all(|e| e.time > 0.0));
        }
    }

    #[test]
    fn stream_is_deterministic_for_fixed_seed() {
        let a = collect(&SimdEngine::default(), 500, 7);
        let b = collect(&SimdEngine::default(), 500, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Monte-Carlo volume: minutes-to-hours under Miri's interpreter"
    )]
    fn scalar_fallback_is_bit_identical_to_the_vector_path() {
        // On AVX2 hosts this compares the intrinsic mask against the scalar
        // one over real workloads; elsewhere both runs take the scalar path
        // and the test degenerates to determinism.
        let vector = SimdEngine {
            force_scalar: false,
            ..SimdEngine::default()
        };
        let scalar = SimdEngine {
            force_scalar: true,
            ..SimdEngine::default()
        };
        for (reps, seed) in [(1u64, 1u64), (333, 9), (5_000, 77)] {
            assert_eq!(
                collect(&vector, reps, seed),
                collect(&scalar, reps, seed),
                "reps {reps} seed {seed}"
            );
        }
    }

    /// Pins `clear_mask_avx2` against `clear_mask_scalar` by name (the pair
    /// `xtask lint` simd-parity enforces), over countdowns crafted to sit
    /// exactly on, just under, and just over the compare boundaries — plus
    /// the `0.0` and `+∞` extremes the drain logic relies on.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clear_mask_twins_are_bit_identical() {
        if !SimdEngine::runtime_supported() {
            eprintln!("skipping AVX2 mask pin: host lacks AVX2");
            return;
        }
        let p = Platform::new(9.46e-7, 3.38e-6);
        let c = costs();
        let pat = Pattern::GuaranteedSegments {
            work: 20_000.0,
            segments: 3,
        }
        .compile();
        let prog = Program::compile(&pat, &p, &c);
        let edges = |x: f64| [x - 1.0, x, x + 1.0, 0.0, f64::INFINITY, 2.0 * x, 0.5 * x, x];
        let fail_edges = edges(prog.total_duration);
        let silent_edges = edges(prog.total_work);
        for rot in 0..LANE_WIDTH {
            let fail_cd: [f64; LANE_WIDTH] =
                std::array::from_fn(|l| fail_edges[(l + rot) % LANE_WIDTH]);
            let silent_cd: [f64; LANE_WIDTH] =
                std::array::from_fn(|l| silent_edges[(3 * l + rot) % LANE_WIDTH]);
            // SAFETY: `runtime_supported()` verified AVX2 just above.
            let wide = unsafe { clear_mask_avx2(&fail_cd, &silent_cd, &prog) };
            let narrow = clear_mask_scalar(&fail_cd, &silent_cd, &prog);
            assert_eq!(wide, narrow, "rotation {rot}");
        }
    }

    #[test]
    fn silent_errors_always_caught_before_commit_without_fail_stop() {
        let p = Platform::new(0.0, 5e-4);
        let c = costs();
        let pat = Pattern::PartialChunks {
            work: 3600.0,
            chunks: resilience::eq18_chunks(4, c.recall),
        }
        .compile();
        let mut injected = 0;
        let mut detected = 0;
        SimdEngine::default().execute_stream(
            &mut Rng::new(3),
            400,
            &pat,
            &p,
            &c,
            &mut |e: Execution| {
                injected += e.silent_errors;
                detected += e.silent_detections;
            },
        );
        assert!(injected > 0);
        assert_eq!(detected, injected);
    }

    #[test]
    #[should_panic(expected = "unverified pattern")]
    fn unverified_pattern_rejected_under_silent_errors() {
        let p = Platform::new(1e-6, 1e-6);
        let pat = Pattern::Checkpoint { work: 100.0 }.compile();
        SimdEngine::default().execute(&mut Rng::new(4), &pat, &p, &costs());
    }

    #[test]
    fn heavy_fail_stop_rate_forces_rollbacks() {
        let p = Platform::new(1e-3, 0.0);
        let c = costs();
        let pat = Pattern::VerifiedCheckpoint { work: 3600.0 }.compile();
        let mut fails = 0;
        SimdEngine {
            lanes: 8,
            force_scalar: false,
        }
        .execute_stream(&mut Rng::new(2), 32, &pat, &p, &c, &mut |e: Execution| {
            fails += e.fail_stop_events;
            assert!(e.time > 3600.0 + 100.0 + 300.0);
        });
        assert!(fails > 0, "λ_f W ≈ 3.6 should almost surely fail");
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Monte-Carlo volume: minutes-to-hours under Miri's interpreter"
    )]
    fn lane_count_does_not_change_the_distribution_only_pairing() {
        let narrow = collect(
            &SimdEngine {
                lanes: 8,
                force_scalar: false,
            },
            2000,
            9,
        );
        let wide = collect(
            &SimdEngine {
                lanes: 64,
                force_scalar: false,
            },
            2000,
            9,
        );
        assert_eq!(narrow.len(), wide.len());
        let mean = |v: &[Execution]| v.iter().map(|e| e.time).sum::<f64>() / v.len() as f64;
        let (a, b) = (mean(&narrow), mean(&wide));
        assert!((a - b).abs() / a < 0.05, "{a} vs {b}");
    }

    #[test]
    fn corrupted_lane_survives_the_fast_path_check() {
        // Heavy silent rate: most attempts corrupt, forcing the slow path
        // and defeating the drain; detections must still all land pre-commit.
        let p = Platform::new(0.0, 1e-3);
        let c = costs();
        let pat = Pattern::Combined {
            work: 3600.0,
            segments: 2,
            chunks: vec![0.5, 0.5],
        }
        .compile();
        let mut out = Vec::new();
        SimdEngine {
            lanes: 16,
            force_scalar: false,
        }
        .execute_stream(&mut Rng::new(11), 200, &pat, &p, &c, &mut |e| out.push(e));
        assert_eq!(out.len(), 200);
        let injected: u64 = out.iter().map(|e| e.silent_errors).sum();
        let detected: u64 = out.iter().map(|e| e.silent_detections).sum();
        assert!(injected > 100, "λ_s W ≈ 3.6 should corrupt most attempts");
        assert_eq!(detected, injected);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Monte-Carlo volume: minutes-to-hours under Miri's interpreter"
    )]
    fn drain_respects_remaining_quotas_exactly() {
        // Tiny rates: the very first drain would cover far more than the
        // quota; the clamp must stop at exactly `reps` emissions.
        let p = Platform::new(1e-12, 1e-12);
        let c = costs();
        let pat = Pattern::GuaranteedSegments {
            work: 3600.0,
            segments: 2,
        }
        .compile();
        let mut n = 0u64;
        SimdEngine::default()
            .execute_stream(&mut Rng::new(6), 10_000, &pat, &p, &c, &mut |_| n += 1);
        assert_eq!(n, 10_000);
    }

    #[test]
    fn lane_rounding_keeps_blocks_full_width() {
        assert_eq!(
            SimdEngine {
                lanes: 1,
                force_scalar: false
            }
            .lane_count(),
            8
        );
        assert_eq!(
            SimdEngine {
                lanes: 8,
                force_scalar: false
            }
            .lane_count(),
            8
        );
        assert_eq!(
            SimdEngine {
                lanes: 9,
                force_scalar: false
            }
            .lane_count(),
            16
        );
        assert_eq!(SimdEngine::default().lane_count(), 32);
    }
}
