//! Parallel replication runner: fans pattern executions out over threads,
//! merges the per-thread [`OnlineStats`] accumulators (no synchronization on
//! the hot path) and emits [`Summary`] confidence intervals — the runner the
//! `stats` crate's accumulators were designed for.
//!
//! The runner is backend-agnostic: [`RunConfig::backend`] picks the
//! simulation [`Engine`] (event, simd, or auto by replication count), and
//! every stream hands its replications to that engine in one
//! [`Engine::execute_stream`] call. Stream partitioning, seeding and merge
//! order are identical across backends, so switching backends changes only
//! which engine walks the pattern — not how results are combined.

use crate::engine::{Backend, Engine, Execution};
use crate::rng::Rng;
use resilience::pattern::Pattern;
use resilience::platform::{CostModel, Platform};
use serde::{Deserialize, JsonError, Serialize, Value};
use stats::rates::{per_day, per_hour};
use stats::{Histogram, OnlineStats, Summary};

/// Upper bound on spawned OS worker threads: a generous multiple of the
/// machine's parallelism (oversubscription beyond this only adds scheduler
/// pressure). [`run_replications`] spawns at most this many OS threads but
/// still evaluates every requested *RNG stream*, so the cap never changes
/// results — only scheduling. Interactive callers (the CLI) use it to warn
/// before clamping user input.
pub fn thread_cap() -> usize {
    4 * std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(8)
}

/// Shape of an optional completion-time histogram: `bins` equal-width bins
/// over `[lo, hi]` seconds (out-of-range completions land in the
/// histogram's under/overflow counters, so no observation is lost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    /// Lower edge, seconds.
    pub lo: f64,
    /// Upper edge (inclusive), seconds.
    pub hi: f64,
    /// Number of bins.
    pub bins: usize,
}

impl HistogramSpec {
    /// Instantiates the empty histogram this spec describes.
    pub fn build(&self) -> Histogram {
        Histogram::new(self.lo, self.hi, self.bins)
    }
}

/// Replication-run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Number of independent pattern executions.
    pub replications: u64,
    /// Number of independent RNG streams the replications are partitioned
    /// into (at least 1, at most one per replication). Streams map onto at
    /// most [`thread_cap`] OS threads; requesting more streams than the cap
    /// multiplexes them rather than spawning more threads, so results stay
    /// machine-independent.
    pub threads: usize,
    /// Base seed; streams are split deterministically from it, so a fixed
    /// `(seed, threads, replications, backend)` tuple reproduces exactly on
    /// any machine.
    pub seed: u64,
    /// Simulation engine backend ([`Backend::Auto`] resolves against
    /// `replications` alone).
    /// Defaults to [`Backend::Event`], the bit-stable reference.
    pub backend: Backend,
    /// When set, the report carries a completion-time histogram of this
    /// shape alongside the moment summaries.
    pub time_hist: Option<HistogramSpec>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            replications: 10_000,
            threads: 4,
            seed: 0x5eed_cafe,
            backend: Backend::Event,
            time_hist: None,
        }
    }
}

/// Merged outcome of a replication run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-pattern overhead `(time − work)/work` distribution.
    pub overhead: Summary,
    /// Per-pattern completion-time distribution, seconds.
    pub time: Summary,
    /// Total fail-stop errors across all replications.
    pub fail_stop_events: u64,
    /// Total silent corruption events across all replications.
    pub silent_errors: u64,
    /// Total rollbacks caused by verification detections.
    pub silent_detections: u64,
    /// Total simulated seconds (sum of pattern completion times).
    pub total_time: f64,
    /// Replications actually executed.
    pub replications: u64,
    /// Completion-time histogram, present when [`RunConfig::time_hist`] was
    /// set (empty but well-formed for zero-replication runs).
    pub time_histogram: Option<Histogram>,
}

impl SimReport {
    /// Committed checkpoints per simulated hour (one per pattern).
    pub fn checkpoints_per_hour(&self) -> f64 {
        per_hour(self.replications as f64, self.total_time)
    }

    /// Recoveries per simulated day (fail-stop and detected silent errors
    /// both pay one recovery).
    pub fn recoveries_per_day(&self) -> f64 {
        per_day(
            (self.fail_stop_events + self.silent_detections) as f64,
            self.total_time,
        )
    }
}

impl Serialize for SimReport {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("overhead", self.overhead.to_json()),
            ("time", self.time.to_json()),
            ("fail_stop_events", self.fail_stop_events.to_json()),
            ("silent_errors", self.silent_errors.to_json()),
            ("silent_detections", self.silent_detections.to_json()),
            ("total_time", self.total_time.to_json()),
            ("replications", self.replications.to_json()),
            ("time_histogram", self.time_histogram.to_json()),
        ])
    }
}

impl Deserialize for SimReport {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            overhead: v.read("overhead")?,
            time: v.read("time")?,
            fail_stop_events: v.read("fail_stop_events")?,
            silent_errors: v.read("silent_errors")?,
            silent_detections: v.read("silent_detections")?,
            total_time: v.read("total_time")?,
            replications: v.read("replications")?,
            time_histogram: v.read_opt("time_histogram")?,
        })
    }
}

/// Per-thread accumulator, merged after the join.
#[derive(Debug, Default, Clone)]
struct ThreadAcc {
    overhead: OnlineStats,
    time: OnlineStats,
    fail_stop: u64,
    silent: u64,
    detections: u64,
    total_time: f64,
    hist: Option<Histogram>,
}

impl ThreadAcc {
    fn new(hist: Option<HistogramSpec>) -> Self {
        Self {
            hist: hist.map(|spec| spec.build()),
            ..Self::default()
        }
    }

    /// Folds one finished replication in; `work` is the pattern's total
    /// computation time (for the overhead ratio).
    fn push(&mut self, e: &Execution, work: f64) {
        self.overhead.push((e.time - work) / work);
        self.time.push(e.time);
        self.fail_stop += e.fail_stop_events;
        self.silent += e.silent_errors;
        self.detections += e.silent_detections;
        self.total_time += e.time;
        if let Some(h) = &mut self.hist {
            h.record(e.time);
        }
    }

    /// Merges a finished stream accumulator in (streams merge in stream
    /// order — floating-point merges are order-sensitive).
    fn absorb(&mut self, other: &ThreadAcc) {
        self.overhead.merge(&other.overhead);
        self.time.merge(&other.time);
        self.fail_stop += other.fail_stop;
        self.silent += other.silent;
        self.detections += other.detections;
        self.total_time += other.total_time;
        if let (Some(into), Some(from)) = (&mut self.hist, &other.hist) {
            into.merge(from);
        }
    }

    /// Finalizes the merged accumulator into the run's report.
    fn into_report(self, replications: u64) -> SimReport {
        SimReport {
            overhead: Summary::from_stats(&self.overhead),
            time: Summary::from_stats(&self.time),
            fail_stop_events: self.fail_stop,
            silent_errors: self.silent,
            silent_detections: self.detections,
            total_time: self.total_time,
            replications,
            time_histogram: self.hist,
        }
    }

    /// Folds a group of `n` identical replications in. `n == 1` routes
    /// through [`push`](Self::push) so single emissions (every event
    /// replication, which the goldens bit-pin, and every simd commit outside
    /// a drain) keep their exact accumulation arithmetic; larger groups (the
    /// SIMD drain) fold in O(1) through the Welford merge form.
    fn push_group(&mut self, e: &Execution, n: u64, work: f64) {
        if n == 1 {
            self.push(e, work);
            return;
        }
        self.overhead.push_n((e.time - work) / work, n);
        self.time.push_n(e.time, n);
        self.fail_stop += e.fail_stop_events * n;
        self.silent += e.silent_errors * n;
        self.detections += e.silent_detections * n;
        self.total_time += e.time * n as f64;
        if let Some(h) = &mut self.hist {
            h.record_n(e.time, n);
        }
    }
}

/// Runs `cfg.replications` independent executions of `pattern` and merges
/// the per-thread statistics.
///
/// Zero replications yield a well-defined empty report: all-zero summaries
/// ([`Summary::empty`]), zero counters, and no threads spawned — not NaN
/// means or ±∞ ranges.
pub fn run_replications(
    pattern: &Pattern,
    platform: &Platform,
    costs: &CostModel,
    cfg: &RunConfig,
) -> SimReport {
    let compiled = pattern.compile();
    if cfg.replications == 0 {
        return SimReport {
            overhead: Summary::empty(),
            time: Summary::empty(),
            fail_stop_events: 0,
            silent_errors: 0,
            silent_detections: 0,
            total_time: 0.0,
            replications: 0,
            time_histogram: cfg.time_hist.map(|spec| spec.build()),
        };
    }
    let engine = cfg.backend.engine(cfg.replications);
    let engine: &dyn Engine = &*engine;
    let work = compiled.total_work;
    // Stream count defines the statistical partition (and hence the exact
    // results); OS threads are a scheduling detail capped separately, so a
    // (seed, threads, replications) triple reproduces on any machine.
    let stream_count = cfg.threads.max(1).min(cfg.replications as usize);
    let os_threads = stream_count.min(thread_cap());
    let mut root = Rng::new(cfg.seed);
    // Stream i's replication share — the ONE definition of the partition,
    // used by both execution paths below so they cannot drift apart: as
    // even as possible, the first `replications % stream_count` streams
    // taking one extra.
    let stream_share = |i: u64| {
        cfg.replications / stream_count as u64
            + u64::from(i < cfg.replications % stream_count as u64)
    };

    // Single-OS-thread runs (notably every per-cell simulation of a sharded
    // sweep, which uses one stream per cell) skip thread::scope entirely:
    // same stream seeding, same partition, same merge order — bit-identical
    // results, but no thread spawn, stream vector or bucket allocation per
    // call. On the million-cell path this is the difference between one
    // thread spawn per sweep worker and one per cell.
    if os_threads == 1 {
        let mut merged = ThreadAcc::new(cfg.time_hist);
        for i in 0..stream_count as u64 {
            let mut rng = root.split();
            let mut acc = ThreadAcc::new(cfg.time_hist);
            engine.execute_stream_grouped(
                &mut rng,
                stream_share(i),
                &compiled,
                platform,
                costs,
                &mut |e, n| acc.push_group(&e, n, work),
            );
            merged.absorb(&acc);
        }
        return merged.into_report(cfg.replications);
    }

    let streams: Vec<Rng> = (0..stream_count).map(|_| root.split()).collect();

    // Contiguous stream buckets, one per OS thread.
    let chunk = stream_count.div_ceil(os_threads);
    let mut buckets: Vec<Vec<(usize, Rng)>> = (0..os_threads).map(|_| Vec::new()).collect();
    for (i, rng) in streams.into_iter().enumerate() {
        buckets[i / chunk].push((i, rng));
    }

    let mut accs: Vec<(usize, ThreadAcc)> = std::thread::scope(|scope| {
        let compiled = &compiled;
        let stream_share = &stream_share;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, mut rng)| {
                            let mut acc = ThreadAcc::new(cfg.time_hist);
                            engine.execute_stream_grouped(
                                &mut rng,
                                stream_share(i as u64),
                                compiled,
                                platform,
                                costs,
                                &mut |e, n| acc.push_group(&e, n, work),
                            );
                            (i, acc)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replication thread panicked"))
            .collect()
    });
    // Merge in stream order: floating-point merges are order-sensitive, and
    // stream order is the one invariant under the OS-thread cap.
    accs.sort_unstable_by_key(|(i, _)| *i);

    let mut merged = ThreadAcc::new(cfg.time_hist);
    for (_, acc) in &accs {
        merged.absorb(acc);
    }
    merged.into_report(cfg.replications)
}

#[cfg(test)]
mod tests {
    // Tests pin exact values on purpose (bit-stability is the contract
    // under test); tolerance comparisons would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    use crate::engine::execute_pattern;

    fn setup() -> (Platform, CostModel, Pattern) {
        let p = Platform::new(9.46e-7, 3.38e-6);
        let c = CostModel::new(300.0, 300.0, 100.0, 20.0, 0.8);
        let pat = Pattern::GuaranteedSegments {
            work: 20_000.0,
            segments: 3,
        };
        (p, c, pat)
    }

    #[test]
    fn deterministic_across_runs_with_same_config() {
        let (p, c, pat) = setup();
        let cfg = RunConfig {
            replications: 500,
            threads: 3,
            seed: 11,
            ..Default::default()
        };
        let a = run_replications(&pat, &p, &c, &cfg);
        let b = run_replications(&pat, &p, &c, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "Monte-Carlo volume: minutes-to-hours under Miri's interpreter"
    )]
    fn thread_count_does_not_change_totals_only_pairing() {
        // Different thread counts repartition the same workload; counts stay
        // plausible and the mean stays within joint confidence intervals.
        let (p, c, pat) = setup();
        let one = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                replications: 4000,
                threads: 1,
                seed: 7,
                ..Default::default()
            },
        );
        let four = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                replications: 4000,
                threads: 4,
                seed: 7,
                ..Default::default()
            },
        );
        assert_eq!(one.replications, four.replications);
        assert_eq!(one.overhead.count, 4000);
        assert_eq!(four.overhead.count, 4000);
        let gap = (one.overhead.mean - four.overhead.mean).abs();
        assert!(gap <= one.overhead.ci95 + four.overhead.ci95, "gap {gap}");
    }

    #[test]
    fn report_rates_use_total_sim_time() {
        let (p, c, pat) = setup();
        let r = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                replications: 200,
                threads: 2,
                seed: 3,
                ..Default::default()
            },
        );
        assert!(r.total_time > 0.0);
        assert!(r.checkpoints_per_hour() > 0.0);
        // λ_s W ≈ 0.068 per pattern: some silent errors must appear in 200.
        assert!(r.silent_errors > 0);
        // A fail-stop error can wipe a corruption before any verification
        // sees it, so detections can only fall short of injections.
        assert!(r.silent_detections <= r.silent_errors);
        assert!(r.recoveries_per_day() > 0.0);
    }

    #[test]
    fn zero_replications_yield_finite_empty_report() {
        let (p, c, pat) = setup();
        let r = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                replications: 0,
                threads: 4,
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(r.replications, 0);
        assert_eq!(r.overhead, stats::Summary::empty());
        assert_eq!(r.time, stats::Summary::empty());
        assert_eq!(
            r.fail_stop_events + r.silent_errors + r.silent_detections,
            0
        );
        // Derived rates must be finite zeros, not 0/0 NaN.
        assert_eq!(r.checkpoints_per_hour(), 0.0);
        assert_eq!(r.recoveries_per_day(), 0.0);
    }

    #[test]
    fn absurd_thread_requests_are_clamped_not_spawned() {
        // A million requested threads must not reach thread::scope (streams
        // cap at one per replication, OS threads at thread_cap()); the run
        // still completes and observes every replication.
        let (p, c, pat) = setup();
        let r = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                replications: 50,
                threads: 1_000_000,
                seed: 2,
                ..Default::default()
            },
        );
        assert_eq!(r.overhead.count, 50);
        assert!(thread_cap() >= 4);
    }

    #[test]
    fn stream_partition_is_independent_of_os_thread_multiplexing() {
        // The RNG-stream partition defines the results; how streams map
        // onto OS threads must not. Evaluate an 8-stream run serially by
        // hand (stream-ordered merge, as documented) and require
        // run_replications — which on this machine multiplexes those
        // streams onto at most thread_cap() OS threads — to match exactly.
        let (p, c, pat) = setup();
        let cfg = RunConfig {
            replications: 83,
            threads: 8,
            seed: 21,
            ..Default::default()
        };
        let report = run_replications(&pat, &p, &c, &cfg);

        let compiled = pat.compile();
        let work = compiled.total_work;
        let mut root = Rng::new(cfg.seed);
        let mut overhead = OnlineStats::new();
        let mut total_time = 0.0;
        for i in 0..8u64 {
            let mut rng = root.split();
            let reps = cfg.replications / 8 + u64::from(i < cfg.replications % 8);
            let mut stream = OnlineStats::new();
            let mut stream_time = 0.0;
            for _ in 0..reps {
                let e = execute_pattern(&compiled, &p, &c, &mut rng);
                stream.push((e.time - work) / work);
                stream_time += e.time;
            }
            overhead.merge(&stream);
            // Subtotal per stream, like the runner: f64 addition is not
            // associative, and "exact" here means bit-exact.
            total_time += stream_time;
        }
        assert_eq!(report.overhead, Summary::from_stats(&overhead));
        assert_eq!(report.total_time, total_time);
    }

    #[test]
    fn auto_backend_matches_its_resolution() {
        let (p, c, pat) = setup();
        // Below the threshold Auto is exactly Event, bit for bit.
        let cfg = RunConfig {
            replications: 300,
            threads: 2,
            seed: 5,
            backend: Backend::Auto,
            ..Default::default()
        };
        assert!(cfg.replications < Backend::AUTO_SIMD_THRESHOLD);
        let auto = run_replications(&pat, &p, &c, &cfg);
        let event = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                backend: Backend::Event,
                ..cfg
            },
        );
        assert_eq!(auto, event);
    }

    #[test]
    fn time_histogram_sees_every_replication() {
        let (p, c, pat) = setup();
        for backend in [Backend::Event, Backend::Simd] {
            let r = run_replications(
                &pat,
                &p,
                &c,
                &RunConfig {
                    replications: 400,
                    threads: 3,
                    seed: 8,
                    backend,
                    time_hist: Some(HistogramSpec {
                        lo: 0.0,
                        hi: 1e9,
                        bins: 32,
                    }),
                },
            );
            let h = r.time_histogram.expect("histogram was requested");
            assert_eq!(h.total(), 400);
            // The range is generous enough that nothing should escape it.
            assert_eq!(h.underflow() + h.overflow(), 0);
            // And the histogram is consistent with the moment summary.
            assert!(r.time.min >= 0.0 && r.time.max <= 1e9);
        }
    }

    #[test]
    fn unrequested_histogram_stays_absent() {
        let (p, c, pat) = setup();
        let r = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                replications: 10,
                threads: 2,
                seed: 4,
                ..Default::default()
            },
        );
        assert!(r.time_histogram.is_none());
        // Zero-replication runs still honor the request with an empty one.
        let empty = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                replications: 0,
                threads: 2,
                seed: 4,
                time_hist: Some(HistogramSpec {
                    lo: 0.0,
                    hi: 1.0,
                    bins: 2,
                }),
                ..Default::default()
            },
        );
        assert_eq!(empty.time_histogram.expect("requested").total(), 0);
    }

    #[test]
    fn single_replication_and_more_threads_than_work() {
        let (p, c, pat) = setup();
        let r = run_replications(
            &pat,
            &p,
            &c,
            &RunConfig {
                replications: 1,
                threads: 8,
                seed: 1,
                ..Default::default()
            },
        );
        assert_eq!(r.overhead.count, 1);
        assert_eq!(r.time.count, 1);
    }
}
