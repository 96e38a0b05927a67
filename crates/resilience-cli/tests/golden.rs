//! Golden-file CLI tests: run the real binary and byte-compare stdout
//! against checked-in fixtures, so `TableFormat` stability (column layout,
//! widths, float formatting) and output determinism are enforced by test
//! instead of convention.
//!
//! Fixtures regenerate with:
//!
//! ```text
//! cargo build --release
//! ./target/release/resilience-cli sweep --reps 40 --threads 2 --engine event \
//!     > crates/resilience-cli/tests/fixtures/sweep_event.txt
//! ./target/release/resilience-cli grid --grid-size 2 --threads 2 \
//!     > crates/resilience-cli/tests/fixtures/grid_analytic.txt
//! ```
//!
//! Every command pins its seed-affecting flags explicitly (default seed,
//! `--threads 2` stream partition), so the bytes are machine-independent.

use std::process::Command;

fn run(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn assert_matches_fixture(args: &[&str], fixture: &str) {
    let got = run(args);
    let want = std::fs::read(format!(
        "{}/tests/fixtures/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap_or_else(|e| panic!("fixture {fixture} unreadable: {e}"));
    if got != want {
        // Byte equality failed; diff as text for a readable message.
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "stdout diverged from fixture {fixture}"
        );
        panic!("stdout differs from fixture {fixture} in non-UTF8 bytes");
    }
}

#[test]
fn sweep_with_event_engine_matches_fixture() {
    assert_matches_fixture(
        &[
            "sweep",
            "--reps",
            "40",
            "--threads",
            "2",
            "--engine",
            "event",
        ],
        "sweep_event.txt",
    );
}

#[test]
fn analytic_grid_matches_fixture() {
    assert_matches_fixture(
        &["grid", "--grid-size", "2", "--threads", "2"],
        "grid_analytic.txt",
    );
}

#[test]
fn engine_flag_rejects_unknown_backends() {
    let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
        .args(["sweep", "--engine", "warp"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--engine"));
}

#[test]
fn numeric_flags_name_themselves_in_diagnostics() {
    // A bad numeric value must name the flag and echo the value, not dump
    // generic usage.
    for (flag, bad) in [
        ("--grid-size", "ten"),
        ("--reps", "many"),
        ("--threads", "-2"),
        ("--seed", "0x"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
            .args(["grid", flag, bad])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("{flag}: expected integer, got \"{bad}\"");
        assert!(stderr.contains(&want), "{flag}: stderr was {stderr:?}");
    }
}

#[test]
fn shard_flag_rejects_malformed_slices() {
    for bad in ["4/4", "0/0", "x/y", "3"] {
        let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
            .args(["grid", "--grid-size", "2", "--shard", bad])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "shard {bad}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--shard"));
    }
}

#[test]
fn shard_concatenation_is_byte_identical_to_the_unsharded_run() {
    // Four shard invocations (separate processes, separate caches),
    // concatenated in index order, must reproduce the unsharded stdout
    // byte for byte — shard 0 carries the header.
    let full = run(&["grid", "--grid-size", "3", "--threads", "2"]);
    let mut concat = Vec::new();
    for shard in 0..4 {
        concat.extend(run(&[
            "grid",
            "--grid-size",
            "3",
            "--threads",
            "2",
            "--shard",
            &format!("{shard}/4"),
        ]));
    }
    assert_eq!(
        String::from_utf8_lossy(&concat),
        String::from_utf8_lossy(&full),
        "shard concatenation diverged"
    );
}

#[test]
fn oversized_grid_refuses_simulation_but_accepts_analytic_shards() {
    // Above the sim-feasible decade the grid is analytic-only...
    let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
        .args(["grid", "--grid-size", "11", "--reps", "10"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("analytic-only"));
    // ...while an analytic shard of it runs fine (one 121-cell slice of
    // the 1,331-cell grid; keeps the test fast).
    let rows = run(&[
        "grid",
        "--grid-size",
        "11",
        "--threads",
        "2",
        "--shard",
        "3/11",
    ]);
    assert_eq!(rows.iter().filter(|&&b| b == b'\n').count(), 121);
}

#[test]
fn auto_and_event_engines_agree_at_small_rep_counts() {
    // Below the auto threshold the auto engine must resolve to event and
    // print the exact same bytes.
    let auto = run(&[
        "sweep",
        "--reps",
        "40",
        "--threads",
        "2",
        "--engine",
        "auto",
    ]);
    let event = run(&[
        "sweep",
        "--reps",
        "40",
        "--threads",
        "2",
        "--engine",
        "event",
    ]);
    assert_eq!(auto, event);
}

#[test]
fn closed_stdout_ends_the_million_cell_grid_quietly_and_early() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    use std::time::Instant;

    // A quarter of the grid, run to completion: the yardstick a closed
    // pipe must beat, since it would compute all four quarters if the
    // workers kept going after the drain stopped.
    let started = Instant::now();
    run(&[
        "grid",
        "--grid-size",
        "100",
        "--threads",
        "2",
        "--shard",
        "0/4",
    ]);
    let quarter = started.elapsed();

    for threads in ["1", "2"] {
        let started = Instant::now();
        let mut child = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
            .args(["grid", "--grid-size", "100", "--threads", threads])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("read the header");
        assert!(first.starts_with("scenario"), "first line: {first:?}");
        drop(stdout);
        let out = child.wait_with_output().expect("binary exits");
        let elapsed = started.elapsed();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "--threads {threads}: exit {:?}",
            out.status
        );
        assert!(
            !stderr.contains("panicked"),
            "--threads {threads}: {stderr}"
        );
        assert!(
            elapsed < quarter,
            "--threads {threads}: closed pipe took {elapsed:?}, a quarter of the grid {quarter:?}"
        );
    }
}
