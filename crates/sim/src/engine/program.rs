//! Pattern lowering and lane stepping for the lockstep SIMD backend: a
//! [`CompiledPattern`] flattened into a linear activity program plus the
//! per-attempt totals the fast path compares countdowns against, and the
//! one-activity state transition ([`step_lane`]) every slow-path lane walks.

use crate::rng::LaneRng;
use resilience::pattern::{CompiledPattern, VerifyKind};
use resilience::platform::{CostModel, Platform};

/// Recall value that makes the detection check `corrupted && u < recall`
/// skip the draw entirely: `recall > 1` short-circuits as "always detects"
/// before the RNG is consulted.
pub(crate) const ALWAYS_DETECTS: f64 = 2.0;

/// What a lane does when its current activity completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Kind {
    /// Computation: the only activity that exposes state to silent errors.
    Work,
    /// Verification; a corrupted lane rolls back when the detection draw
    /// falls below `recall` ([`ALWAYS_DETECTS`] for guaranteed kinds).
    Verify { recall: f64 },
    /// Trailing checkpoint: commits the replication.
    Checkpoint,
    /// Recovery after any rollback; completion restarts the attempt.
    Recovery,
}

/// One precompiled activity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Act {
    pub(crate) duration: f64,
    pub(crate) kind: Kind,
}

/// A compiled pattern lowered to the lane program: activities `0..` in
/// execution order, checkpoint second-to-last, recovery last.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) acts: Vec<Act>,
    /// Index lanes jump to on any rollback (the recovery activity).
    pub(crate) recovery: u32,
    /// Sum of all activity durations of one error-free attempt (work,
    /// verifications, checkpoint — not recovery).
    pub(crate) total_duration: f64,
    /// Total computation seconds per attempt (silent-error exposure).
    pub(crate) total_work: f64,
    pub(crate) lambda_fail: f64,
    pub(crate) lambda_silent: f64,
}

impl Program {
    /// Lowers `pattern` once per stream. Kept out of line: inlined into
    /// the engine's stream loop it measurably slows the hot rounds.
    #[inline(never)]
    pub(crate) fn compile(
        pattern: &CompiledPattern,
        platform: &Platform,
        costs: &CostModel,
    ) -> Self {
        let mut acts = Vec::with_capacity(pattern.activity_count() + 1);
        for chunk in &pattern.chunks {
            acts.push(Act {
                duration: chunk.work,
                kind: Kind::Work,
            });
            if let Some(kind) = chunk.verify {
                let recall = match kind {
                    VerifyKind::Guaranteed => ALWAYS_DETECTS,
                    VerifyKind::Partial => costs.recall,
                };
                acts.push(Act {
                    duration: costs.verify_cost(kind),
                    kind: Kind::Verify { recall },
                });
            }
        }
        acts.push(Act {
            duration: costs.checkpoint,
            kind: Kind::Checkpoint,
        });
        let recovery = acts.len() as u32;
        let total_duration: f64 = acts.iter().map(|a| a.duration).sum();
        acts.push(Act {
            duration: costs.recovery,
            kind: Kind::Recovery,
        });
        Self {
            acts,
            recovery,
            total_duration,
            total_work: pattern.total_work,
            lambda_fail: platform.lambda_fail,
            lambda_silent: platform.lambda_silent,
        }
    }
}

/// One lane of a [`LaneRng`]: the stream a stepping lane draws from (at
/// most one draw per transition).
pub(crate) struct LaneOf<'a, const N: usize> {
    pub(crate) rng: &'a mut LaneRng<N>,
    pub(crate) lane: usize,
}

impl<const N: usize> LaneOf<'_, N> {
    fn exp(&mut self, rate: f64) -> f64 {
        self.rng.exp_lane(self.lane, rate)
    }
    fn uniform(&mut self) -> f64 {
        self.rng.uniform_lane(self.lane)
    }
}

/// Mutable view of one lane's per-replication state inside a fixed-width
/// SIMD block.
pub(crate) struct LaneState<'a> {
    /// Exposed seconds until the next fail-stop arrival.
    pub(crate) fail_cd: &'a mut f64,
    /// Uncorrupted work seconds until the next silent arrival.
    pub(crate) silent_cd: &'a mut f64,
    /// Accumulated wall-clock time of the current replication.
    pub(crate) time: &'a mut f64,
    /// Program counter: index into [`Program::acts`].
    pub(crate) pos: &'a mut u32,
    pub(crate) corrupted: &'a mut bool,
    pub(crate) fail_stop: &'a mut u64,
    pub(crate) silent: &'a mut u64,
    pub(crate) detections: &'a mut u64,
}

/// One slow-path activity transition.
///
/// Returns `true` when the trailing checkpoint completed, i.e. the
/// replication committed: the state is left intact (the caller emits the
/// outcome from it, then resets the per-replication fields).
pub(crate) fn step_lane<const N: usize>(
    prog: &Program,
    st: LaneState<'_>,
    draws: &mut LaneOf<'_, N>,
) -> bool {
    let act = prog.acts[*st.pos as usize];
    if *st.fail_cd < act.duration {
        // The arrival lands inside this activity: lose the time up to it,
        // pay recovery, restart the attempt.
        *st.time += *st.fail_cd;
        *st.fail_stop += 1;
        *st.fail_cd = draws.exp(prog.lambda_fail);
        *st.pos = prog.recovery;
        return false;
    }
    *st.fail_cd -= act.duration;
    *st.time += act.duration;
    match act.kind {
        Kind::Work => {
            if !*st.corrupted {
                if *st.silent_cd < act.duration {
                    *st.corrupted = true;
                    *st.silent += 1;
                    *st.silent_cd = draws.exp(prog.lambda_silent);
                } else {
                    *st.silent_cd -= act.duration;
                }
            }
            *st.pos += 1;
            false
        }
        Kind::Verify { recall } => {
            if *st.corrupted && (recall >= ALWAYS_DETECTS || draws.uniform() < recall) {
                *st.detections += 1;
                *st.pos = prog.recovery;
            } else {
                *st.pos += 1;
            }
            false
        }
        Kind::Checkpoint => true,
        Kind::Recovery => {
            *st.pos = 0;
            *st.corrupted = false;
            false
        }
    }
}
