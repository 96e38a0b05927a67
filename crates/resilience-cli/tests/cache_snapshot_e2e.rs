//! End-to-end tests for the shared optimum store: a sweep that snapshots
//! its cache (`--cache-out`) must warm a later sweep (`--cache-in`) to
//! byte-identical output with *zero* misses on covered keys, and the live-share mode (`--optimum-server`) must
//! resolve misses through a running daemon to the same bytes.
//!
//! Gated off Miri: these tests spawn real subprocesses.

#![cfg(not(miri))]

use resilience::parse_snapshot;
use resilience_service::OptimumClient;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Runs the CLI with `args`, scrubbing inherited fault env, and returns
/// `(stdout bytes, stderr text)`.
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

/// The `(hits, misses)` of the sweep's `optimum cache:` stderr recap.
fn cache_stats(stderr: &str) -> (u64, u64) {
    stderr
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix("optimum cache: ")?;
            let (hits, tail) = rest.split_once(" hits, ")?;
            let misses = tail.split_once(" misses")?.0;
            Some((hits.parse().ok()?, misses.parse().ok()?))
        })
        .unwrap_or_else(|| panic!("no optimum-cache recap on stderr:\n{stderr}"))
}

/// A per-test scratch path that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        Self(std::env::temp_dir().join(format!("{name}-{}.snapshot", std::process::id())))
    }
    fn as_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn warmed_shards_are_byte_identical_with_zero_misses() {
    let snap = Scratch::new("warm-grid10");
    // Cold full-grid pass: 10³ cells, 190 distinct optima, snapshot out.
    let (golden, cold_stderr) = run(&[
        "grid",
        "--grid-size",
        "10",
        "--threads",
        "1",
        "--cache-out",
        snap.as_str(),
    ]);
    let (cold_hits, cold_misses) = cache_stats(&cold_stderr);
    assert_eq!((cold_hits, cold_misses), (810, 190), "{cold_stderr}");

    // Warm unsharded pass: same bytes, every lookup a hit.
    let (warm, warm_stderr) = run(&[
        "grid",
        "--grid-size",
        "10",
        "--threads",
        "1",
        "--cache-in",
        snap.as_str(),
    ]);
    assert_eq!(warm, golden, "warmed output differs from cold");
    assert_eq!(cache_stats(&warm_stderr), (1000, 0), "{warm_stderr}");

    // Warm 4-way shard partition: concatenation reproduces the unsharded
    // bytes, and no shard pays a single derivation.
    let mut merged = Vec::new();
    for shard in ["0/4", "1/4", "2/4", "3/4"] {
        let (bytes, stderr) = run(&[
            "grid",
            "--grid-size",
            "10",
            "--threads",
            "1",
            "--shard",
            shard,
            "--cache-in",
            snap.as_str(),
        ]);
        let (_, misses) = cache_stats(&stderr);
        assert_eq!(misses, 0, "warmed shard {shard} missed:\n{stderr}");
        merged.extend(bytes);
    }
    assert_eq!(merged, golden, "warm shard concatenation differs");
}

#[test]
fn rejected_snapshots_die_with_the_snapshot_parsers_diagnosis() {
    let snap = Scratch::new("tampered");
    let (_, _) = run(&[
        "grid",
        "--grid-size",
        "3",
        "--threads",
        "1",
        "--cache-out",
        snap.as_str(),
    ]);
    let doc = std::fs::read_to_string(&snap.0).expect("snapshot written");
    // The grid sweeps Theorem 4 only; tamper one key's theorem tag while
    // keeping the line valid JSON, so only the digest can object.
    let tampered = doc.replacen("theorem4", "theorem3", 1);
    assert_ne!(tampered, doc, "test setup: tamper must land");
    std::fs::write(&snap.0, tampered).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
        .args(["grid", "--grid-size", "3", "--cache-in", snap.as_str()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "tampered snapshot was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("corrupted") && stderr.contains(snap.as_str()),
        "rejection names neither the failure nor the file:\n{stderr}"
    );
}

fn spawn_daemon() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
        .args(["serve", "--port", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    let mut announce = String::new();
    stderr.read_line(&mut announce).expect("read announcement");
    let addr = announce
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {announce:?}"))
        .to_owned();
    (child, addr)
}

#[test]
fn live_share_resolves_misses_through_the_daemon_byte_identically() {
    let (mut daemon, addr) = spawn_daemon();
    let (golden, _) = run(&["grid", "--grid-size", "10", "--threads", "1"]);
    let (live, stderr) = run(&[
        "grid",
        "--grid-size",
        "10",
        "--threads",
        "1",
        "--optimum-server",
        &addr,
    ]);
    assert_eq!(live, golden, "live-share output differs from local");
    // The worker's cache economics are unchanged — misses exist, they are
    // just answered by the daemon instead of derived locally.
    assert_eq!(cache_stats(&stderr), (810, 190), "{stderr}");

    // The daemon's store now holds every optimum the sweep asked for, and
    // serves it as a loadable snapshot — the other half of live share.
    let mut client = OptimumClient::connect(&addr).expect("client connects");
    let doc = client.fetch_snapshot().expect("snapshot query answered");
    let entries = parse_snapshot(&doc).expect("daemon snapshot parses");
    assert_eq!(entries.len(), 190, "daemon store has the sweep's optima");

    daemon.kill().expect("daemon killed");
    daemon.wait().expect("daemon reaped");
}
