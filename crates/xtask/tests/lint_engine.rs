//! Fixture-based pins for every `xtask lint` check, plus the two gates the
//! CI step actually rests on: the live workspace lints clean, and deleting a
//! single SAFETY comment from the real SIMD engine trips `safety-comment` with
//! a usable `file:line` diagnostic.
//!
//! Fixture sources live in `tests/fixtures/{fail,pass}/` (excluded from
//! workspace discovery, so the deliberately-bad snippets never fail the live
//! gate) and are linted under a *pretend* workspace path, because several
//! lints key on the path: the unsafe allowlist, the determinism crate set,
//! and the thread allowlist.

use std::path::Path;
use xtask::{Finding, Lint, Workspace};

fn lint_fixture(pretend_path: &str, source: &str) -> Vec<Finding> {
    Workspace::from_sources(&[(pretend_path, source)]).lint()
}

/// Asserts the fixture trips exactly one finding, of `lint`, at `line`.
fn expect_single(pretend_path: &str, source: &str, lint: Lint, line: usize) -> Finding {
    let findings = lint_fixture(pretend_path, source);
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one finding for {pretend_path}, got: {findings:#?}"
    );
    assert_eq!(findings[0].lint, lint, "{:?}", findings[0]);
    assert_eq!(findings[0].line, line, "{:?}", findings[0]);
    findings[0].clone()
}

#[test]
fn unsafe_outside_the_allowlist_is_rejected_even_with_safety_comment() {
    // The second path is the deleted Theorem-4 kernel module: re-adding
    // unsafe code there must fail the lint like anywhere else.
    for path in [
        "crates/numerics/src/fast.rs",
        "crates/resilience/src/overhead_simd.rs",
    ] {
        let f = expect_single(
            path,
            include_str!("fixtures/fail/unsafe_allowlist.rs"),
            Lint::UnsafeAllowlist,
            3,
        );
        assert!(f.message.contains("allowlist"), "{}", f.message);
    }
}

#[test]
fn unjustified_unsafe_in_an_allowlisted_module_needs_a_safety_comment() {
    expect_single(
        "crates/sim/src/engine/simd.rs",
        include_str!("fixtures/fail/safety_comment.rs"),
        Lint::SafetyComment,
        2,
    );
}

#[test]
fn target_feature_without_scalar_twin_is_rejected() {
    let f = expect_single(
        "crates/sim/src/engine/simd.rs",
        include_str!("fixtures/fail/simd_parity_twin.rs"),
        Lint::SimdParityTwin,
        4,
    );
    assert!(f.message.contains("sum_x4_scalar"), "{}", f.message);
}

#[test]
fn target_feature_outside_the_avx2_naming_convention_is_rejected() {
    let f = expect_single(
        "crates/sim/src/engine/simd.rs",
        include_str!("fixtures/fail/simd_parity_naming.rs"),
        Lint::SimdParityTwin,
        4,
    );
    assert!(f.message.contains("naming convention"), "{}", f.message);
}

#[test]
fn twin_pair_without_a_test_naming_both_is_rejected() {
    let f = expect_single(
        "crates/sim/src/engine/simd.rs",
        include_str!("fixtures/fail/simd_parity_test.rs"),
        Lint::SimdParityTest,
        4,
    );
    assert!(f.message.contains("sum_x4_avx2"), "{}", f.message);
}

#[test]
fn wall_clock_reads_are_rejected_in_determinism_crates() {
    expect_single(
        "crates/sim/src/timing.rs",
        include_str!("fixtures/fail/wall_clock.rs"),
        Lint::WallClock,
        1,
    );
}

#[test]
fn wall_clock_reads_are_fine_outside_the_determinism_crates() {
    let findings = lint_fixture(
        "crates/resilience-cli/src/timing.rs",
        include_str!("fixtures/fail/wall_clock.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn default_hasher_maps_are_rejected_in_determinism_crates() {
    expect_single(
        "crates/resilience/src/cache_bad.rs",
        include_str!("fixtures/fail/default_hasher.rs"),
        Lint::DefaultHasher,
        3,
    );
}

#[test]
fn thread_spawn_outside_executor_and_runner_is_rejected() {
    expect_single(
        "crates/sim/src/engine/par.rs",
        include_str!("fixtures/fail/thread_spawn.rs"),
        Lint::ThreadSpawn,
        2,
    );
}

#[test]
fn thread_spawn_is_allowed_in_the_executor() {
    let findings = lint_fixture(
        "crates/sim/src/executor.rs",
        include_str!("fixtures/fail/thread_spawn.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn thread_spawn_is_allowed_in_the_service_worker_and_transports() {
    // The service crate's exemption is per-file, not per-crate: only the
    // batch worker, the connection handlers, and the smoke client may
    // spawn.
    for rel in [
        "crates/resilience-service/src/batcher.rs",
        "crates/resilience-service/src/server.rs",
        "crates/resilience-service/src/bin/service-client.rs",
    ] {
        let findings = lint_fixture(rel, include_str!("fixtures/fail/thread_spawn.rs"));
        assert!(findings.is_empty(), "{rel}: {findings:#?}");
    }
}

#[test]
fn thread_spawn_elsewhere_in_the_service_crate_is_still_rejected() {
    expect_single(
        "crates/resilience-service/src/protocol.rs",
        include_str!("fixtures/fail/thread_spawn.rs"),
        Lint::ThreadSpawn,
        2,
    );
}

#[test]
fn thread_spawn_is_allowed_in_the_coordinator_supervisor_only() {
    // The coordinator's exemption is confined to the supervisor (the
    // attempt threads that pump worker pipes); the fault plan, backoff,
    // and writer-stack modules stay single-threaded.
    let findings = lint_fixture(
        "crates/resilience-coord/src/supervisor.rs",
        include_str!("fixtures/fail/thread_spawn.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
    expect_single(
        "crates/resilience-coord/src/plan.rs",
        include_str!("fixtures/fail/thread_spawn.rs"),
        Lint::ThreadSpawn,
        2,
    );
}

#[test]
fn wall_clock_reads_are_fine_in_the_coordinator() {
    // Deadlines, backoff, and straggler detection need real elapsed time;
    // the coordinator sits outside the determinism-pinned set because its
    // merge discards all timing effects before bytes reach the output.
    let findings = lint_fixture(
        "crates/resilience-coord/src/backoff.rs",
        include_str!("fixtures/fail/wall_clock.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn wall_clock_reads_are_fine_in_the_service_crate() {
    // The batching window needs real elapsed time; the service crate is
    // deliberately outside the determinism-pinned set.
    let findings = lint_fixture(
        "crates/resilience-service/src/batcher_timing.rs",
        include_str!("fixtures/fail/wall_clock.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn bare_float_literal_comparison_is_rejected() {
    expect_single(
        "crates/numerics/src/check.rs",
        include_str!("fixtures/fail/float_cmp.rs"),
        Lint::FloatCmpLiteral,
        2,
    );
}

#[test]
fn missing_crate_root_attribute_is_rejected() {
    // The pretend path is a required-attr crate root, so the attribute's
    // absence is the (single) finding.
    expect_single(
        "crates/numerics/src/lib.rs",
        include_str!("fixtures/fail/crate_attrs.rs"),
        Lint::CrateAttrs,
        1,
    );
}

#[test]
fn service_crate_root_must_forbid_unsafe() {
    let f = expect_single(
        "crates/resilience-service/src/lib.rs",
        include_str!("fixtures/fail/crate_attrs.rs"),
        Lint::CrateAttrs,
        1,
    );
    assert!(f.message.contains("forbid(unsafe_code)"), "{}", f.message);
}

#[test]
fn blessed_float_comparisons_lint_clean() {
    let findings = lint_fixture(
        "crates/numerics/src/clean.rs",
        include_str!("fixtures/pass/clean_numerics.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn fully_justified_simd_module_lints_clean() {
    let findings = lint_fixture(
        "crates/sim/src/engine/simd.rs",
        include_str!("fixtures/pass/clean_simd.rs"),
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn live_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask sits two levels under the workspace root")
        .to_owned();
    let ws = Workspace::discover(&root).expect("workspace must be readable");
    assert!(
        ws.files.len() > 30,
        "discovery looks broken: only {} files",
        ws.files.len()
    );
    let findings = ws.lint();
    assert!(
        findings.is_empty(),
        "live workspace must lint clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn deleting_one_safety_comment_from_the_real_simd_module_trips_the_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask sits two levels under the workspace root")
        .to_owned();
    let rel = "crates/sim/src/engine/simd.rs";
    let source = std::fs::read_to_string(root.join(rel)).expect("simd.rs must exist");
    let first_safety = source
        .lines()
        .position(|l| l.contains("SAFETY:"))
        .expect("simd.rs must contain SAFETY comments");
    let mutilated: Vec<&str> = source
        .lines()
        .enumerate()
        .filter(|(i, _)| *i != first_safety)
        .map(|(_, l)| l)
        .collect();
    let mutilated = mutilated.join("\n");
    let findings = Workspace::from_sources(&[(rel, &mutilated)]).lint();
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].lint, Lint::SafetyComment, "{:?}", findings[0]);
    assert_eq!(findings[0].path, rel);
    // The diagnostic must point into the orphaned unsafe's neighbourhood —
    // at or just past where the deleted comment sat.
    assert!(
        findings[0].line >= first_safety,
        "diagnostic line {} should not precede the deleted comment at {}",
        findings[0].line,
        first_safety + 1
    );
}
