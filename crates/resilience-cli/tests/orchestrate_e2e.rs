//! End-to-end orchestration tests: the coordinator must merge supervised
//! worker output byte-identical to the unsharded serial run — with no
//! faults, under every injected fault class from the paper's failure model
//! (fail-stop kill, straggler stall, silent corruption), and through the
//! in-process degradation path — while its summary counters account for
//! exactly the faults injected.
//!
//! Gated off Miri: these tests spawn real subprocesses.

#![cfg(not(miri))]

use resilience_coord::CoordReport;
use resilience_service::WorkerEvent;
use serde::Deserialize;
use stats::Fnv64;
use std::process::Command;

/// Runs the CLI with `args`, scrubbing any inherited fault env, and
/// returns `(stdout bytes, stderr text)`. Panics on nonzero exit.
fn run(args: &[&str]) -> (Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
        .args(args)
        .env_remove(resilience_coord::FAULT_ENV)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{args:?} failed:\n{stderr}");
    (out.stdout, stderr)
}

/// Pulls the coordinator's summary event out of its stderr stream (which
/// also carries human-readable retry notes and the final recap line).
fn summary_of(stderr: &str) -> CoordReport {
    stderr
        .lines()
        .find_map(|line| CoordReport::from_json_str(line.trim()).ok())
        .unwrap_or_else(|| panic!("no summary event on stderr:\n{stderr}"))
}

#[test]
fn fault_free_orchestration_is_byte_identical_with_zero_fault_counters() {
    let (golden, _) = run(&["grid", "--grid-size", "4"]);
    let (merged, stderr) = run(&[
        "orchestrate",
        "--grid-size",
        "4",
        "--workers",
        "3",
        "--units",
        "5",
    ]);
    assert_eq!(merged, golden, "merged bytes differ from the serial run");
    let report = summary_of(&stderr);
    assert_eq!(report.units, 5, "{report:?}");
    assert_eq!(report.workers_spawned, 5, "{report:?}");
    assert_eq!(report.fail_stop_retries, 0, "{report:?}");
    assert_eq!(report.verify_failures, 0, "{report:?}");
    assert_eq!(report.straggler_reassignments, 0, "{report:?}");
    assert_eq!(report.duplicates_discarded, 0, "{report:?}");
    assert_eq!(report.inproc_fallbacks, 0, "{report:?}");
    assert_eq!(report.merged_bytes, golden.len() as u64, "{report:?}");
}

#[test]
fn default_units_merge_the_1000_cell_grid_byte_identically() {
    // The acceptance grid: 10³ cells over 4 workers and the default 16
    // units, one spawn per unit and not one fault counted.
    let (golden, _) = run(&["grid", "--grid-size", "10"]);
    let (merged, stderr) = run(&["orchestrate", "--grid-size", "10", "--workers", "4"]);
    assert_eq!(merged, golden, "merged bytes differ from the serial run");
    let report = summary_of(&stderr);
    assert_eq!(report.units, 16, "{report:?}");
    assert_eq!(report.workers_spawned, 16, "{report:?}");
    assert_eq!(report.fail_stop_retries, 0, "{report:?}");
    assert_eq!(report.verify_failures, 0, "{report:?}");
    assert_eq!(report.straggler_reassignments, 0, "{report:?}");
    assert_eq!(report.duplicates_discarded, 0, "{report:?}");
    assert_eq!(report.inproc_fallbacks, 0, "{report:?}");
    assert_eq!(report.merged_bytes, golden.len() as u64, "{report:?}");
}

#[test]
fn orchestration_survives_kill_stall_and_corruption_byte_identically() {
    let (golden, _) = run(&["grid", "--grid-size", "5"]);
    // One fault per class, each on its own unit: a fail-stop kill mid-unit,
    // a stall long past the deadline (straggler → speculative twin), and a
    // silent single-byte corruption (caught by trailer re-verification).
    let (merged, stderr) = run(&[
        "orchestrate",
        "--grid-size",
        "5",
        "--workers",
        "8",
        "--units",
        "8",
        "--deadline-ms",
        "1500",
        "--fault-plan",
        "kill:1:4;stall:2:3:60000;corrupt:3:2",
    ]);
    assert_eq!(merged, golden, "merged bytes differ from the serial run");
    let report = summary_of(&stderr);
    assert_eq!(report.units, 8, "{report:?}");
    assert_eq!(report.fail_stop_retries, 1, "{report:?}");
    assert_eq!(report.verify_failures, 1, "{report:?}");
    assert_eq!(report.straggler_reassignments, 1, "{report:?}");
    // The speculative twin won; the stalled original was killed and its
    // late fail-stop report discarded as a duplicate.
    assert_eq!(report.duplicates_discarded, 1, "{report:?}");
    assert_eq!(report.inproc_fallbacks, 0, "{report:?}");
    assert_eq!(report.merged_bytes, golden.len() as u64, "{report:?}");
}

#[test]
fn repeated_kills_degrade_to_in_process_execution_and_still_merge_clean() {
    let (golden, _) = run(&["grid", "--grid-size", "3"]);
    // `kill!` re-arms on every spawn, so unit 0 dies on the initial attempt
    // and again on the retry; retries(2) > max_respawns(1) abandons process
    // isolation and recomputes the unit in the coordinator itself.
    let (merged, stderr) = run(&[
        "orchestrate",
        "--grid-size",
        "3",
        "--workers",
        "2",
        "--units",
        "2",
        "--max-respawns",
        "1",
        "--backoff-ms",
        "5",
        "--fault-plan",
        "kill!:0:2",
    ]);
    assert_eq!(merged, golden, "merged bytes differ from the serial run");
    let report = summary_of(&stderr);
    assert_eq!(report.fail_stop_retries, 2, "{report:?}");
    assert_eq!(report.inproc_fallbacks, 1, "{report:?}");
    assert_eq!(report.verify_failures, 0, "{report:?}");
    assert_eq!(report.merged_bytes, golden.len() as u64, "{report:?}");
}

#[test]
fn two_fallback_units_merge_byte_identically_with_exact_fault_counters() {
    let (golden, _) = run(&["grid", "--grid-size", "4"]);
    // Units 0 and 2 die on every spawn, so both degrade in-process, each
    // after two fail-stop rounds; units 1 and 3 run clean.
    let (merged, stderr) = run(&[
        "orchestrate",
        "--grid-size",
        "4",
        "--workers",
        "2",
        "--units",
        "4",
        "--max-respawns",
        "1",
        "--backoff-ms",
        "5",
        "--fault-plan",
        "kill!:0:2;kill!:2:3",
    ]);
    assert_eq!(merged, golden, "merged bytes differ from the serial run");
    let report = summary_of(&stderr);
    assert_eq!(report.fail_stop_retries, 4, "{report:?}");
    assert_eq!(report.inproc_fallbacks, 2, "{report:?}");
    assert_eq!(report.verify_failures, 0, "{report:?}");
    assert_eq!(report.straggler_reassignments, 0, "{report:?}");
    assert_eq!(report.merged_bytes, golden.len() as u64, "{report:?}");
}

#[test]
fn standalone_trailer_matches_a_recomputed_digest_of_stdout() {
    let (stdout, stderr) = run(&["grid", "--grid-size", "3", "--trailer"]);
    let trailer = stderr
        .lines()
        .find_map(|line| match WorkerEvent::from_json_str(line.trim()) {
            Ok(WorkerEvent::Trailer(t)) => Some(t),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no trailer event on stderr:\n{stderr}"));
    assert_eq!(trailer.shard, "0/1");
    assert_eq!(trailer.cells, 27);
    assert_eq!(trailer.bytes, stdout.len() as u64, "{trailer:?}");
    let lines = stdout.iter().filter(|&&b| b == b'\n').count() as u64;
    assert_eq!(trailer.lines, lines, "{trailer:?}");
    assert_eq!(trailer.fnv64, Fnv64::of(&stdout), "{trailer:?}");
}
