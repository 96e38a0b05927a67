//! The untraced run: each workload driven against the release binary and
//! timed from outside.

use crate::daemon::{self, PipeTable};
use crate::proc::{run_batch, BatchRun};
use crate::stats::{median, nearest_rank, tail_percentile, Tally};
use stats::Fnv64;
use std::io;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// `grid --grid-size 100` stdout at this revision: bytes and FNV-1a 64.
pub const GRID_BYTES: usize = 65_731_308;
pub const GRID_FNV: u64 = 0x6792_134b_d97e_fd09;
/// `orchestrate --grid-size 100 --shard 0/4` stdout, which is also the
/// first `SLICE_BYTES` bytes of the full grid.
pub const SLICE_BYTES: usize = 16_249_308;
pub const SLICE_FNV: u64 = 0x3e6f_16be_9598_aab2;

/// Invocations a batch workload makes however short `--seconds` is.
const MIN_RUNS: usize = 3;
/// `setup_s` samples the daemon workload takes: a start takes about a
/// millisecond, so extra start-and-shutdown spawns make its median steady
/// at little cost.
const MIN_SETUPS: usize = 31;

pub struct Config {
    pub cli: String,
    pub seed: u64,
    pub seconds: f64,
    /// Sweep `--threads`: the host's parallelism.
    pub threads: usize,
    /// Scratch directory handed to the CLI as `TMPDIR`.
    pub tmp_dir: PathBuf,
}

/// One workload's end-to-end samples.
#[derive(Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// Per-request round trips, ms: interactive queries for the daemon,
    /// whole commands for the batch workloads.
    pub rtt_ms: Vec<f64>,
    /// Pipelined queries (daemon) or output rows (batch) per second.
    pub throughput: f64,
    pub tally: Tally,
}

impl E2e {
    /// The end-to-end metrics as `(name, value, unit)`, or the reason one
    /// cannot be reported.
    pub fn metrics(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        if self.wall_s.is_empty() || self.setup_s.is_empty() || self.rtt_ms.is_empty() {
            return Err("no successful operation to measure".into());
        }
        let p90 = if self.rtt_ms.len() >= 100 {
            tail_percentile(&self.rtt_ms, 90.0)
                .ok_or("rtt p90 has fewer than 10 samples beyond it")?
        } else {
            nearest_rank(&self.rtt_ms, 90.0)
        };
        Ok(vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("wall_s", median(&self.wall_s), "s"),
            ("peak_rss_mb", median(&self.peak_rss_mb), "MiB"),
            ("rtt_p50_ms", median(&self.rtt_ms), "ms"),
            ("rtt_p90_ms", p90, "ms"),
            ("pipelined_qps", self.throughput, "1/s"),
        ])
    }
}

pub fn cli(cfg: &Config, args: &[String]) -> Command {
    let mut cmd = Command::new(&cfg.cli);
    cmd.args(args).env("TMPDIR", &cfg.tmp_dir);
    cmd
}

/// Runs `args` until `--seconds` is spent (at least [`MIN_RUNS`] times),
/// checking every output with `check`.
fn batch_loop(
    cfg: &Config,
    args: &[String],
    mut check: impl FnMut(&BatchRun) -> bool,
) -> io::Result<E2e> {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut e = E2e::default();
    let mut rows_per_s = Vec::new();
    let mut buf = Vec::new();
    loop {
        let run = run_batch(&mut cli(cfg, args), buf)?;
        let exited_ok = run.exit.status.success();
        let output_ok = exited_ok && check(&run);
        e.tally.record(&[!exited_ok, !output_ok]);
        if output_ok {
            e.setup_s.extend(run.setup_s);
            e.wall_s.push(run.wall_s);
            e.rtt_ms.push(run.wall_s * 1e3);
            e.peak_rss_mb.push(run.exit.peak_rss_mb);
            let rows = run.stdout.iter().filter(|&&b| b == b'\n').count();
            rows_per_s.push(rows as f64 / run.wall_s);
        } else {
            let why = if exited_ok {
                "output differs from the reference".to_owned()
            } else {
                run.exit.status.to_string()
            };
            eprintln!(
                "perfbench: {:?} failed: {why}; stderr: {}",
                args,
                run.stderr.trim()
            );
        }
        buf = run.stdout;
        let runs = e.tally.attempted as usize;
        let typical = e.wall_s.last().copied().unwrap_or(0.0);
        if runs >= MIN_RUNS && start.elapsed() + Duration::from_secs_f64(typical) > budget {
            break;
        }
    }
    if !rows_per_s.is_empty() {
        e.throughput = median(&rows_per_s);
    }
    Ok(e)
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

pub fn grid_analytic_args(threads: usize) -> Vec<String> {
    strings(&[
        "grid",
        "--grid-size",
        "100",
        "--threads",
        &threads.to_string(),
    ])
}

pub fn grid_sim_args(threads: usize, seed: u64) -> Vec<String> {
    strings(&[
        "grid",
        "--grid-size",
        "10",
        "--reps",
        &crate::layers::SIM_REPS.to_string(),
        "--engine",
        "simd",
        "--threads",
        &threads.to_string(),
        "--seed",
        &seed.to_string(),
    ])
}

pub fn orchestrate_args() -> Vec<String> {
    strings(&[
        "orchestrate",
        "--grid-size",
        "100",
        "--shard",
        "0/4",
        "--workers",
        "2",
    ])
}

/// The full grid matches its pin, and its first quarter matches the
/// orchestrated slice's pin.
pub fn grid_output_ok(stdout: &[u8]) -> bool {
    stdout.len() == GRID_BYTES
        && Fnv64::of(&stdout[..SLICE_BYTES]) == SLICE_FNV
        && Fnv64::of(stdout) == GRID_FNV
}

/// The orchestrator's `summary` event: `(spawns, retries)`, where retries
/// count every re-execution, speculative duplicate and in-process
/// fallback.
pub fn coord_summary(stderr: &str) -> Option<(u64, u64)> {
    use serde::Value;
    let line = stderr
        .lines()
        .find(|l| l.starts_with("{\"event\":\"summary\""))?;
    let doc: Value = serde::parse(line).ok()?;
    let field = |k: &str| doc.read::<u64>(k).ok();
    let retries = field("fail_stop_retries")?
        + field("verify_failures")?
        + field("straggler_reassignments")?
        + field("inproc_fallbacks")?;
    Some((field("workers_spawned")?, retries))
}

pub fn orchestrate_output_ok(run: &BatchRun) -> bool {
    run.stdout.len() == SLICE_BYTES
        && Fnv64::of(&run.stdout) == SLICE_FNV
        && coord_summary(&run.stderr).is_some_and(|(_, retries)| retries == 0)
}

pub fn grid_analytic(cfg: &Config) -> io::Result<E2e> {
    batch_loop(cfg, &grid_analytic_args(cfg.threads), |run| {
        grid_output_ok(&run.stdout)
    })
}

pub fn grid_sim(cfg: &Config) -> io::Result<E2e> {
    let expected = crate::layers::sim_reference(cfg.seed, cfg.threads);
    batch_loop(cfg, &grid_sim_args(cfg.threads, cfg.seed), |run| {
        run.stdout == expected
    })
}

pub fn orchestrate_slice(cfg: &Config) -> io::Result<E2e> {
    batch_loop(cfg, &orchestrate_args(), orchestrate_output_ok)
}

pub fn daemon_mixed(cfg: &Config) -> io::Result<E2e> {
    let table = PipeTable::new();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut e = E2e::default();
    let (mut replies, mut busy) = (0u64, 0.0f64);
    for index in 0.. {
        let s = daemon::session(&cfg.cli, cfg.seed, index, &table)?;
        e.tally.add(s.tally);
        e.setup_s.push(s.setup_s);
        e.wall_s.push(s.wall_s);
        e.peak_rss_mb.push(s.peak_rss_mb);
        e.rtt_ms.extend(s.rtts.iter().map(|r| r * 1e3));
        replies += s.pipelined_replies;
        busy += s.pipelined_s;
        if start.elapsed() + Duration::from_secs_f64(s.wall_s) > budget {
            break;
        }
    }
    while e.setup_s.len() < MIN_SETUPS {
        let (setup, tally) = daemon::setup_only(&cfg.cli)?;
        e.setup_s.push(setup);
        e.tally.add(tally);
    }
    if busy > 0.0 {
        e.throughput = replies as f64 / busy;
    }
    let q = |p: f64| nearest_rank(&e.rtt_ms, p);
    eprintln!(
        "perfbench: interactive rtt ms: p10 {:.3} p50 {:.3} p80 {:.3} p90 {:.3} p95 {:.3} max {:.3} (n={})",
        q(10.0),
        q(50.0),
        q(80.0),
        q(90.0),
        q(95.0),
        q(100.0),
        e.rtt_ms.len()
    );
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // FNV-1a 64 reference vectors.
        assert_eq!(Fnv64::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.digest(), Fnv64::of(b"foobar"));
    }

    #[test]
    fn grid_check_rejects_a_short_output() {
        assert!(!grid_output_ok(b"scenario"));
    }

    #[test]
    fn summary_retries_sum_every_reexecution() {
        let stderr = "orchestrate: pre-warmed 3 distinct optima\n\
            {\"event\":\"summary\",\"units\":8,\"workers_spawned\":10,\"fail_stop_retries\":1,\
            \"verify_failures\":0,\"straggler_reassignments\":1,\"duplicates_discarded\":1,\
            \"inproc_fallbacks\":0,\"merged_bytes\":5,\"cache_hits\":0,\"cache_misses\":3}\n";
        assert_eq!(coord_summary(stderr), Some((10, 2)));
        assert_eq!(coord_summary("no summary here\n"), None);
    }
}
