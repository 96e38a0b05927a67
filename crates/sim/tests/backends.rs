//! Cross-backend acceptance suite: every simulation backend must tell the
//! same statistical story, and the event backend must never drift.
//!
//! Two pins:
//!
//! * **Equivalence** — at fixed seeds, the event and SIMD backends must
//!   agree within overlapping 99% confidence intervals on mean completion
//!   time, mean fail-stop events and mean
//!   silent errors per replication, for all six named scenarios (the three
//!   reference scenarios and the three gentler validation scenarios).
//! * **Regression** — the event backend's outputs are bit-pinned against
//!   goldens captured from the pre-`Engine`-trait implementation (the PR 2
//!   executor era), so the refactor provably changed nothing and future
//!   "optimizations" of the reference backend fail loudly.

// Every test in this file is a Monte-Carlo or full-grid acceptance run;
// under Miri's interpreter each would take minutes to hours, so the whole
// file is compiled out. Memory-safety coverage for the same code paths
// comes from the small cfg-gated unit tests in `src/`.
#![cfg(not(miri))]

use resilience::{reference_scenarios, validation_scenarios, Scenario, Theorem};
use sim::{run_replications, Backend, Engine, EventEngine, Rng, RunConfig, SimdEngine};
use stats::OnlineStats;

/// All six named scenarios: hera, atlas, petascale, hera-lite, atlas
/// (validation variant), terascale.
fn six_scenarios() -> Vec<Scenario> {
    let mut v = reference_scenarios();
    v.extend(validation_scenarios());
    assert_eq!(v.len(), 6);
    v
}

/// Per-replication metric accumulators for one backend run.
#[derive(Default)]
struct Metrics {
    time: OnlineStats,
    fail_stop: OnlineStats,
    silent: OnlineStats,
}

fn sample(engine: &dyn Engine, scenario: &Scenario, reps: u64, seed: u64) -> Metrics {
    let optimum = Theorem::Four.optimize(&scenario.platform, &scenario.costs);
    let compiled = optimum.pattern.compile();
    let mut m = Metrics::default();
    engine.execute_stream(
        &mut Rng::new(seed),
        reps,
        &compiled,
        &scenario.platform,
        &scenario.costs,
        &mut |e| {
            m.time.push(e.time);
            m.fail_stop.push(e.fail_stop_events as f64);
            m.silent.push(e.silent_errors as f64);
        },
    );
    assert_eq!(m.time.count(), reps);
    m
}

/// Whether two sample means agree within overlapping 99% confidence
/// intervals (z = 2.576).
fn ci99_overlap(a: &OnlineStats, b: &OnlineStats) -> bool {
    let half = |s: &OnlineStats| 2.576 * s.std_err();
    (a.mean() - b.mean()).abs() <= half(a) + half(b)
}

#[test]
fn backends_agree_within_ci99_on_all_six_scenarios() {
    const REPS: u64 = 6_000;
    for scenario in six_scenarios() {
        let event = sample(&EventEngine, &scenario, REPS, 0xacc0_4d5e);
        let simd = sample(&SimdEngine::default(), &scenario, REPS, 0xacc0_4d5e);
        for (label, x, y) in [
            ("time", &event.time, &simd.time),
            ("fail-stop", &event.fail_stop, &simd.fail_stop),
            ("silent", &event.silent, &simd.silent),
        ] {
            assert!(
                ci99_overlap(x, y),
                "{}/event-vs-simd/{label}: {:.6}±{:.6} vs {:.6}±{:.6}",
                scenario.name,
                x.mean(),
                2.576 * x.std_err(),
                y.mean(),
                2.576 * y.std_err()
            );
        }
        // Both backends must agree the error mix is physical: a corruption
        // can be wiped by a crash but never the other way around.
        assert!(event.silent.mean() >= 0.0 && simd.silent.mean() >= 0.0);
    }
}

#[test]
fn backends_agree_through_the_runner_too() {
    // Same check one layer up: full run_replications with multi-stream
    // partitioning, where only the backend differs.
    for scenario in six_scenarios() {
        let optimum = Theorem::Four.optimize(&scenario.platform, &scenario.costs);
        let cfg = RunConfig {
            replications: 4_000,
            threads: 4,
            seed: 0x7e57_ab1e,
            backend: Backend::Event,
            time_hist: None,
        };
        let event = run_replications(&optimum.pattern, &scenario.platform, &scenario.costs, &cfg);
        let simd = run_replications(
            &optimum.pattern,
            &scenario.platform,
            &scenario.costs,
            &RunConfig {
                backend: Backend::Simd,
                ..cfg
            },
        );
        let gap = (event.overhead.mean - simd.overhead.mean).abs();
        // ci95 ≈ 1.96·se, so 1.315·(ci95_a + ci95_b) is the 99% overlap.
        let budget = 1.315 * (event.overhead.ci95 + simd.overhead.ci95);
        assert!(
            gap <= budget,
            "{}: event vs simd overhead gap {gap} exceeds {budget}",
            scenario.name
        );
    }
}

#[test]
fn simd_grouped_stream_expands_to_the_flat_stream() {
    // The grouped emission contract: expanding every (outcome, count) group
    // in order must reproduce execute_stream's per-replication sequence.
    for scenario in six_scenarios() {
        let optimum = Theorem::Four.optimize(&scenario.platform, &scenario.costs);
        let compiled = optimum.pattern.compile();
        let engine = SimdEngine::default();
        let mut flat = Vec::new();
        engine.execute_stream(
            &mut Rng::new(0x51d5),
            3_000,
            &compiled,
            &scenario.platform,
            &scenario.costs,
            &mut |e| flat.push(e),
        );
        let mut expanded = Vec::new();
        engine.execute_stream_grouped(
            &mut Rng::new(0x51d5),
            3_000,
            &compiled,
            &scenario.platform,
            &scenario.costs,
            &mut |e, n| expanded.extend(std::iter::repeat_n(e, n as usize)),
        );
        assert_eq!(flat, expanded, "{}", scenario.name);
    }
}

#[test]
fn simd_runner_results_are_deterministic_and_isa_independent() {
    // Fixed (seed, threads, replications, backend) must reproduce exactly,
    // and the AVX2 mask path must be bit-identical to the scalar fallback —
    // the simd backend's results never depend on the host ISA.
    let scenario = &reference_scenarios()[0];
    let optimum = Theorem::Four.optimize(&scenario.platform, &scenario.costs);
    let cfg = RunConfig {
        replications: 30_000,
        threads: 3,
        seed: 0xd15a,
        backend: Backend::Simd,
        time_hist: None,
    };
    let a = run_replications(&optimum.pattern, &scenario.platform, &scenario.costs, &cfg);
    let b = run_replications(&optimum.pattern, &scenario.platform, &scenario.costs, &cfg);
    assert_eq!(a, b, "simd backend must reproduce at a fixed seed");
    assert_eq!(a.replications, 30_000);

    let compiled = optimum.pattern.compile();
    let collect = |force_scalar: bool| {
        let engine = SimdEngine {
            force_scalar,
            ..SimdEngine::default()
        };
        let mut out = Vec::new();
        engine.execute_stream(
            &mut Rng::new(0x15a_15a),
            20_000,
            &compiled,
            &scenario.platform,
            &scenario.costs,
            &mut |e| out.push(e),
        );
        out
    };
    assert_eq!(collect(false), collect(true));
}

/// Golden values captured from the pre-refactor discrete-event engine
/// (commit e6d072c, before the `Engine` trait split) at
/// `RunConfig { replications: 2000, threads: 4, seed: 0x9016_de42 }` over
/// the Theorem-4 optimum of each reference scenario. The event backend must
/// reproduce them bit for bit, forever.
const EVENT_GOLDENS: [(&str, u64, u64, u64, u64, u64, u64); 3] = [
    (
        "hera",
        0x40cb_0e2a_496c_c872, // time.mean
        0x3fb1_01b9_9e1d_64c1, // overhead.mean
        0x417a_6bd5_4bb4_3bba, // total_time
        30,                    // fail-stop events
        75,                    // silent errors
        74,                    // silent detections
    ),
    (
        "atlas",
        0x40e3_c4f3_8de7_f3e5,
        0x3faa_45f0_190f_e8aa,
        0x4193_4e55_d894_8438,
        14,
        71,
        71,
    ),
    (
        "petascale",
        0x40b0_0a1d_0028_9361,
        0x3fb0_0187_979f_e51a,
        0x415f_53c0_a44f_3ffe,
        28,
        75,
        75,
    ),
];

#[test]
fn event_backend_is_bit_identical_to_pre_refactor_goldens() {
    let scenarios = reference_scenarios();
    for (name, time_mean, overhead_mean, total_time, fs, se, sd) in EVENT_GOLDENS {
        let s = scenarios
            .iter()
            .find(|s| s.name == name)
            .expect("scenario exists");
        let optimum = Theorem::Four.optimize(&s.platform, &s.costs);
        let cfg = RunConfig {
            replications: 2_000,
            threads: 4,
            seed: 0x9016_de42,
            backend: Backend::Event,
            time_hist: None,
        };
        let r = run_replications(&optimum.pattern, &s.platform, &s.costs, &cfg);
        assert_eq!(r.time.mean.to_bits(), time_mean, "{name}: time.mean");
        assert_eq!(
            r.overhead.mean.to_bits(),
            overhead_mean,
            "{name}: overhead.mean"
        );
        assert_eq!(r.total_time.to_bits(), total_time, "{name}: total_time");
        assert_eq!(r.fail_stop_events, fs, "{name}: fail_stop_events");
        assert_eq!(r.silent_errors, se, "{name}: silent_errors");
        assert_eq!(r.silent_detections, sd, "{name}: silent_detections");
    }
}

#[test]
fn default_config_still_routes_to_the_event_backend() {
    // The golden pin above only protects library users if the default
    // backend stays Event: spell that contract out.
    assert_eq!(RunConfig::default().backend, Backend::Event);
}
