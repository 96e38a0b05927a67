//! Argument-matrix tests: every flag/subcommand combination that cannot
//! apply must exit nonzero with a diagnostic *naming the flag* — misplaced
//! flags are errors, never silent no-ops — and the numeric flags must
//! reject malformed and out-of-range values by name too.

use std::process::Command;

/// Runs the CLI and returns `(exit_success, stderr)`.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts the invocation dies (nonzero exit) and that stderr contains
/// every needle — at minimum the offending flag's name.
fn assert_dies(args: &[&str], needles: &[&str]) {
    let (ok, stderr) = run(args);
    assert!(!ok, "{args:?} unexpectedly succeeded");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr does not name {needle:?}:\n{stderr}"
        );
    }
}

#[test]
fn bench_flags_are_rejected_outside_bench() {
    for command in ["sweep", "nodes", "mtbf", "recall", "grid", "serve"] {
        assert_dies(&[command, "--guard"], &["--guard", "bench", command]);
        assert_dies(
            &[command, "--sweep-only"],
            &["--sweep-only", "bench", command],
        );
        assert_dies(
            &[command, "--bench-out", "x.json"],
            &["--bench-out", "bench", command],
        );
    }
}

#[test]
fn shard_is_rejected_outside_sweep_commands() {
    assert_dies(&["bench", "--shard", "0/2"], &["--shard", "bench"]);
    assert_dies(&["serve", "--shard", "0/2"], &["--shard", "serve"]);
}

#[test]
fn grid_size_is_rejected_outside_grid_and_orchestrate() {
    for command in ["sweep", "nodes", "mtbf", "recall", "bench", "serve"] {
        assert_dies(
            &[command, "--grid-size", "3"],
            &["--grid-size", "grid", "orchestrate", command],
        );
    }
}

#[test]
fn orchestrate_flags_are_rejected_outside_orchestrate() {
    for command in ["sweep", "nodes", "mtbf", "recall", "grid", "bench", "serve"] {
        for flag in [
            ["--workers", "4"],
            ["--units", "8"],
            ["--deadline-ms", "1000"],
            ["--backoff-ms", "50"],
            ["--max-respawns", "2"],
            ["--fault-plan", "kill:0:1"],
        ] {
            assert_dies(
                &[command, flag[0], flag[1]],
                &[flag[0], "orchestrate", command],
            );
        }
    }
}

#[test]
fn trailer_applies_to_sweep_commands_only() {
    // On orchestrate specifically, the rejection explains that the workers
    // emit the trailer themselves — asking the coordinator for one is a
    // misunderstanding worth correcting, not a silent no-op.
    assert_dies(
        &["orchestrate", "--trailer"],
        &["--trailer", "workers", "emit"],
    );
    for command in ["bench", "serve"] {
        assert_dies(&[command, "--trailer"], &["--trailer", command]);
    }
}

#[test]
fn cache_snapshot_flags_are_rejected_outside_sweep_commands() {
    for command in ["bench", "serve", "orchestrate"] {
        assert_dies(
            &[command, "--cache-in", "warm.snap"],
            &["--cache-in", "sweep commands", command],
        );
        assert_dies(
            &[command, "--cache-out", "warm.snap"],
            &["--cache-out", "sweep commands", command],
        );
    }
}

#[test]
fn optimum_server_is_rejected_outside_worker_contexts() {
    for command in ["bench", "serve", "orchestrate"] {
        assert_dies(
            &[command, "--optimum-server", "127.0.0.1:9"],
            &["--optimum-server", "sweep commands", command],
        );
    }
}

#[test]
fn unreadable_cache_snapshots_die_by_path_and_reason() {
    assert_dies(
        &[
            "grid",
            "--grid-size",
            "2",
            "--cache-in",
            "/no/such/file.snap",
        ],
        &["/no/such/file.snap", "cannot read cache snapshot"],
    );
}

#[test]
fn orchestrate_rejects_simulation_and_thread_flags_by_name() {
    assert_dies(
        &["orchestrate", "--engine", "simd"],
        &["--engine", "analytic"],
    );
    assert_dies(&["orchestrate", "--reps", "5"], &["--reps", "analytic"]);
    assert_dies(
        &["orchestrate", "--threads", "2"],
        &["--threads", "--workers"],
    );
}

#[test]
fn orchestrate_validates_its_numeric_flags() {
    assert_dies(&["orchestrate", "--workers", "0"], &["--workers", "1"]);
    assert_dies(&["orchestrate", "--units", "0"], &["--units", "1"]);
    assert_dies(
        &["orchestrate", "--deadline-ms", "0"],
        &["--deadline-ms", "1"],
    );
    assert_dies(
        &["orchestrate", "--fault-plan", "banana:0:1"],
        &["--fault-plan", "banana"],
    );
}

#[test]
fn engine_is_rejected_where_no_simulation_runs() {
    // grid without --reps is analytic-only: --engine would be ignored.
    assert_dies(
        &["grid", "--grid-size", "2", "--engine", "simd"],
        &["--engine", "analytic"],
    );
    // bench times every engine; a single-engine selection cannot apply.
    assert_dies(&["bench", "--engine", "simd"], &["--engine", "bench"]);
    assert_dies(&["serve", "--engine", "simd"], &["--engine", "serve"]);
}

#[test]
fn serve_rejects_sweep_flags_and_others_reject_port() {
    for flag in [["--reps", "10"], ["--threads", "2"], ["--seed", "7"]] {
        assert_dies(&["serve", flag[0], flag[1]], &[flag[0], "serve"]);
    }
    for command in ["sweep", "nodes", "mtbf", "recall", "grid", "bench"] {
        assert_dies(&[command, "--port", "0"], &["--port", "serve", command]);
    }
}

#[test]
fn second_subcommand_token_is_rejected() {
    assert_dies(&["sweep", "grid"], &["second command", "grid", "sweep"]);
    assert_dies(&["bench", "bench"], &["second command", "bench"]);
    assert_dies(&["serve", "sweep"], &["second command", "sweep", "serve"]);
}

#[test]
fn numeric_flags_parse_into_their_target_types_with_range_errors() {
    // Malformed values name the flag.
    assert_dies(&["sweep", "--reps", "many"], &["--reps", "many"]);
    assert_dies(&["sweep", "--threads", "-2"], &["--threads", "-2"]);
    // Valid integers that do not fit the flag's type are *range* errors,
    // not parse errors — no silent `as` truncation anywhere.
    assert_dies(
        &["sweep", "--threads", "99999999999999999999"],
        &["--threads", "out of range"],
    );
    assert_dies(
        &["grid", "--grid-size", "99999999999999999999"],
        &["--grid-size", "out of range"],
    );
    assert_dies(&["serve", "--port", "65536"], &["--port", "out of range"]);
}

#[test]
fn shard_diagnostics_name_the_i_over_n_form() {
    assert_dies(
        &["grid", "--shard", "banana"],
        &["--shard", "I/N", "banana"],
    );
    assert_dies(&["grid", "--shard", "3"], &["--shard", "I/N"]);
    // N = 0 is pinned as its own named rejection: zero shards is not a
    // degenerate "run nothing", it is an error.
    assert_dies(&["grid", "--shard", "0/0"], &["--shard", "N", "at least 1"]);
    assert_dies(&["grid", "--shard", "2/2"], &["--shard", "0 <= I < N"]);
    assert_dies(&["grid", "--shard", "5/2"], &["--shard", "0 <= I < N"]);
}

#[test]
fn valid_combinations_still_run() {
    let (ok, stderr) = run(&["grid", "--grid-size", "2", "--threads", "2"]);
    assert!(ok, "{stderr}");
    let (ok, stderr) = run(&[
        "grid",
        "--grid-size",
        "2",
        "--reps",
        "5",
        "--engine",
        "simd",
    ]);
    assert!(ok, "{stderr}");
    let (ok, stderr) = run(&[
        "sweep", "--reps", "5", "--engine", "event", "--shard", "1/3",
    ]);
    assert!(ok, "{stderr}");
}

#[test]
fn batch_engine_spelling_is_rejected() {
    assert_dies(
        &[
            "grid",
            "--grid-size",
            "2",
            "--reps",
            "5",
            "--engine",
            "batch",
        ],
        &["--engine must be event, simd or auto: batch"],
    );
}

#[test]
fn default_auto_engine_prints_the_simd_bytes_at_the_threshold() {
    // `auto` resolves by replication count alone, so at the threshold the
    // default run is the simd run on every host, byte for byte.
    let stdout = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
            .args(["grid", "--grid-size", "2", "--reps", "20000"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let auto = stdout(&[]);
    assert!(!auto.is_empty());
    assert_eq!(auto, stdout(&["--engine", "simd"]));
}
