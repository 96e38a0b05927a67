//! End-to-end benchmark of `resilience-cli`, with a traced per-layer run.
//!
//! ```text
//! perfbench --cli PATH --out-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the workload against the release binary for about
//! `--seconds` seconds and reports the end-to-end metrics; `--trace 1`
//! calls every layer's public functions in-process with spans around each
//! call and reports the per-layer metrics. Either way the last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. Every
//! output is checked; any mismatch makes `correct` false and the exit
//! code 1. See `perfbench/README.md`.

mod alloc;
mod daemon;
mod e2e;
mod host;
mod layers;
mod proc;
mod render;
mod stats;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::exit;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = [
    "grid_analytic",
    "grid_sim",
    "orchestrate_slice",
    "daemon_mixed",
];

struct Args {
    cli: String,
    out_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --cli PATH --out-dir DIR --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut cli = None;
    let mut out_dir = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: expected an integer, got {v:?}")))
        };
        match flag.as_str() {
            "--cli" => cli = Some(value),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    usage(&format!("unknown workload {value:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(number(&value)),
            "--seconds" => seconds = Some(number(&value).max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace: expected 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        cli: cli.unwrap_or_else(|| usage("--cli is required")),
        out_dir: out_dir.unwrap_or_else(|| usage("--out-dir is required")),
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn metrics_json(metrics: &[layers::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() {
    let args = parse_args();
    let tmp_dir = args.out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp_dir) {
        eprintln!("perfbench: cannot create {}: {e}", tmp_dir.display());
        exit(2);
    }
    let cfg = e2e::Config {
        cli: args.cli.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        tmp_dir,
    };
    let host = host::probe();
    eprintln!(
        "perfbench: {} seed {} trace {} | nproc {} | {} | LLC {} | kernel {} | {} | commit {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host.nproc,
        host.cpu_model,
        host.llc,
        host.kernel,
        host.rustc,
        host.commit
    );
    if matches!(
        args.workload.as_str(),
        "grid_analytic" | "orchestrate_slice"
    ) && !args.trace
    {
        eprintln!(
            "perfbench: {} takes no random input; the seed is ignored",
            args.workload
        );
    }

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        layers::traced(&cfg, &args.workload).map(|(m, tally, tracer)| {
            let path = args.out_dir.join(format!("spans-{tag}.jsonl"));
            let written = std::fs::File::create(&path)
                .map(std::io::BufWriter::new)
                .and_then(|mut w| tracer.write_to(&mut w).and_then(|()| w.flush()));
            if let Err(e) = written {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
            (Ok(m), tally, String::new())
        })
    } else {
        let run = match args.workload.as_str() {
            "grid_analytic" => e2e::grid_analytic(&cfg),
            "grid_sim" => e2e::grid_sim(&cfg),
            "orchestrate_slice" => e2e::orchestrate_slice(&cfg),
            _ => e2e::daemon_mixed(&cfg),
        };
        run.map(|e| {
            let list = |v: &[f64]| {
                let items: Vec<String> = v.iter().map(f64::to_string).collect();
                format!("[{}]", items.join(","))
            };
            let samples = format!(
                "\"samples\":{{\"setup_s\":{},\"wall_s\":{},\"peak_rss_mb\":{},\"rtt\":{}}},",
                list(&e.setup_s),
                list(&e.wall_s),
                list(&e.peak_rss_mb),
                e.rtt_ms.len()
            );
            (e.metrics(), e.tally, samples)
        })
    };
    let (metrics, tally, samples) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            exit(1);
        }
    };
    let metrics = match metrics {
        Ok(m) if m.iter().all(|(_, v, _)| v.is_finite()) => m,
        Ok(m) => {
            eprintln!("perfbench: non-finite metric in {m:?}");
            exit(1);
        }
        // Every operation failed its checks: say so on the result line.
        Err(e) if tally.failed > 0 => {
            eprintln!("perfbench: {}: {e}", args.workload);
            Vec::new()
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            exit(1);
        }
    };

    for (name, value, unit) in &metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    eprintln!(
        "  {:<28} {:>16.6} ratio ({} failed of {} attempted)",
        "failed_ratio",
        tally.failed_ratio(),
        tally.failed,
        tally.attempted
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    let record = format!(
        "{{\"workload\":\"{}\",\"trace\":{},\"host\":{},{samples}\"failed_ratio\":{},\"metrics\":{}}}\n",
        args.workload,
        u8::from(args.trace),
        host.json(args.seed),
        tally.failed_ratio(),
        metrics_json(&metrics)
    );
    let path = args.out_dir.join(format!("result-{tag}.json"));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    if !correct {
        exit(1);
    }
}
