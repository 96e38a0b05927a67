//! The traced run: the harness calls each layer's public functions itself,
//! with a span around every call, and reports per-layer numbers.
//!
//! Inputs per layer: the sweep layers (expand, optimum, render, write)
//! replay the 100³ analytic grid serially; `sim` replays the 10³ grid at
//! [`SIM_REPS`] replications and the run's seed; `executor` runs the 100³
//! grid through `SweepExecutor` into a `black_box` sink; the daemon layers
//! replay the `daemon_mixed` stream in-process against a `Batcher`; `coord`
//! re-does the orchestrated slice's phases.

use crate::daemon::{self, interactive_queries, PipeTable, BURST};
use crate::e2e::{self, Config, GRID_BYTES, GRID_FNV, SLICE_BYTES};
use crate::proc::run_batch;
use crate::stats::{median, nearest_rank, tail_percentile, Tally};
use crate::trace::{coverage, LayerId, Tracer};
use crate::{alloc, render};
use resilience::{
    grid_spec, parse_snapshot, snapshot_string, theorem4_batch, CostModel, OptimumCache,
    OptimumKey, Platform, SweepSpec, Theorem,
};
use resilience_service::protocol::{Request, Response};
use resilience_service::{BatchConfig, Batcher};
use serde::{Deserialize, Serialize};
use sim::executor::{CellResult, SimSettings, SweepExecutor};
use sim::{cell_seed, run_replications, Backend, RunConfig};
use stats::table::TableFormat;
use stats::Fnv64;
use std::collections::HashSet;
use std::hint::black_box;
use std::io::{self, BufWriter, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Replications per cell of the `grid_sim` workload.
pub const SIM_REPS: u64 = 200_000;
const SIM_GRID: usize = 10;
const ANALYTIC_GRID: usize = 100;
/// The orchestrated slice: `--shard 0/4` split into `--workers 2` × 4
/// units, each run as `grid --shard J/32 --trailer --threads 1`.
const COORD_SLICES: usize = 4;
const COORD_WORKERS: usize = 2;
const COORD_UNITS: usize = COORD_WORKERS * 4;

pub type Metric = (&'static str, f64, &'static str);

/// What the drain thread saw: FNV-1a digest, byte count, and the bytes
/// themselves when asked to keep them.
type Drained = (u64, usize, Option<Vec<u8>>);

/// Where the sweep replay's rendered bytes go: a 64 KiB `BufWriter` over
/// an OS pipe, as the CLI's stdout, drained by a thread that digests them.
struct PipeSink {
    writer: BufWriter<io::PipeWriter>,
    drain: std::thread::JoinHandle<io::Result<Drained>>,
}

impl PipeSink {
    fn new(keep: bool) -> io::Result<Self> {
        let (mut reader, writer) = io::pipe()?;
        let drain = std::thread::spawn(move || {
            let mut h = Fnv64::new();
            let mut kept = keep.then(Vec::new);
            let mut total = 0usize;
            let mut chunk = vec![0u8; 1 << 16];
            loop {
                let n = reader.read(&mut chunk)?;
                if n == 0 {
                    return Ok((h.digest(), total, kept));
                }
                h.update(&chunk[..n]);
                total += n;
                if let Some(k) = kept.as_mut() {
                    k.extend_from_slice(&chunk[..n]);
                }
            }
        });
        Ok(Self {
            writer: BufWriter::with_capacity(1 << 16, writer),
            drain,
        })
    }

    fn finish(self) -> io::Result<Drained> {
        let mut w = self.writer;
        w.flush()?;
        drop(w);
        self.drain.join().expect("pipe drain thread panicked")
    }
}

struct SweepIds {
    expand: LayerId,
    probe: LayerId,
    miss: LayerId,
    simulate: LayerId,
    render: LayerId,
    write: LayerId,
}

impl SweepIds {
    fn new(t: &mut Tracer) -> Self {
        Self {
            expand: t.layer("sweep.expand"),
            probe: t.layer("cache.probe"),
            miss: t.layer("cache.miss"),
            simulate: t.layer("sim.simulate"),
            render: t.layer("render"),
            write: t.layer("write"),
        }
    }
}

/// What one sweep replay produced.
pub struct SweepReplay {
    pub tracer: Tracer,
    pub fnv: u64,
    pub bytes: usize,
    pub kept: Option<Vec<u8>>,
    pub rows: u64,
    pub render_bytes: u64,
    pub render_allocs: u64,
    pub hits: u64,
    pub misses: u64,
    /// Optimizer inputs of every cache miss (traced runs only).
    pub distinct: Vec<(Platform, CostModel, Theorem)>,
    /// Replay window, ns since the tracer's epoch.
    pub window: (u64, u64),
}

/// Per-worker state of the replay loop.
struct Worker<'a> {
    spec: &'a SweepSpec,
    sim: Option<SimSettings>,
    cache: &'a OptimumCache,
    fmt: &'a TableFormat,
    traced: bool,
    tracer: Tracer,
    ids: SweepIds,
    distinct: Vec<(Platform, CostModel, Theorem)>,
    render_allocs: u64,
    render_bytes: u64,
}

impl<'a> Worker<'a> {
    fn new(
        spec: &'a SweepSpec,
        sim: Option<SimSettings>,
        cache: &'a OptimumCache,
        fmt: &'a TableFormat,
        traced: bool,
        epoch: Instant,
    ) -> Self {
        let mut tracer = Tracer::new(traced, epoch);
        let ids = SweepIds::new(&mut tracer);
        Self {
            spec,
            sim,
            cache,
            fmt,
            traced,
            tracer,
            ids,
            distinct: Vec::new(),
            render_allocs: 0,
            render_bytes: 0,
        }
    }

    /// Expand → optimum → simulate → render for one cell: the CLI's
    /// per-cell path, one span per layer.
    fn row(&mut self, index: usize) -> String {
        let t = &mut self.tracer;
        let spec = self.spec;
        let cell = t.time(self.ids.expand, || spec.cell_at(index));
        let (platform, costs, theorem) = (cell.platform, cell.costs, cell.theorem);
        // Whether the call missed decides the span's layer.
        let cache = self.cache;
        let misses = cache.misses();
        let start = t.now_ns();
        let optimum = cache.optimum(&platform, &costs, theorem);
        let end = t.now_ns();
        let hit = cache.misses() == misses;
        if self.traced && !hit {
            self.distinct.push((platform, costs, theorem));
        }
        t.record(if hit { self.ids.probe } else { self.ids.miss }, start, end);
        let report = self.sim.map(|s| {
            t.time(self.ids.simulate, || {
                run_replications(
                    &optimum.pattern,
                    &platform,
                    &costs,
                    &RunConfig {
                        replications: s.replications,
                        threads: s.threads_per_cell,
                        seed: cell_seed(s.seed, index as u64),
                        backend: s.backend,
                        time_hist: None,
                    },
                )
            })
        });
        let result = CellResult {
            index,
            name: cell.name,
            theorem,
            optimum,
            report,
        };
        let fmt = self.fmt;
        let before = if self.traced { alloc::count() } else { 0 };
        let line = t.time(self.ids.render, || fmt.row(&render::cells(&result)));
        if self.traced {
            self.render_allocs += alloc::count() - before;
        }
        self.render_bytes += line.len() as u64 + 1;
        line
    }
}

/// Replays the sweep table of `spec` in-process. One thread renders and
/// writes cell by cell; with `threads > 1` (simulated sweeps) workers
/// render their share of the cells and the rows are written in order
/// after.
pub fn sweep_replay(
    spec: &SweepSpec,
    sim: Option<SimSettings>,
    threads: usize,
    traced: bool,
    keep: bool,
) -> io::Result<SweepReplay> {
    let epoch = Instant::now();
    let cache = OptimumCache::new();
    let fmt = render::grid_format(sim.is_some());
    let mut main = Worker::new(spec, sim, &cache, &fmt, traced, epoch);
    let mut sink = PipeSink::new(keep)?;
    let write = main.ids.write;
    let start = epoch.elapsed().as_nanos() as u64;
    let header = render::header(&fmt);
    main.tracer
        .time(write, || sink.writer.write_all(header.as_bytes()))?;
    let len = spec.len();
    if threads <= 1 {
        for index in 0..len {
            let line = main.row(index);
            main.tracer
                .time(write, || writeln!(sink.writer, "{line}"))?;
        }
    } else {
        // Cells are dealt round-robin: simulation cost grows along the
        // grid's node axis, so contiguous halves would leave one worker
        // idle for most of the run.
        let parts: Vec<(Worker<'_>, Vec<(usize, String)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (fmt, cache) = (&fmt, &cache);
                    s.spawn(move || {
                        let mut worker = Worker::new(spec, sim, cache, fmt, traced, epoch);
                        let rows = (w..len)
                            .step_by(threads)
                            .map(|i| (i, worker.row(i)))
                            .collect();
                        (worker, rows)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect()
        });
        let mut lines = vec![String::new(); len];
        for (worker, rows) in parts {
            for (i, line) in rows {
                lines[i] = line;
            }
            main.distinct.extend(worker.distinct);
            main.render_allocs += worker.render_allocs;
            main.render_bytes += worker.render_bytes;
            main.tracer.absorb(worker.tracer);
        }
        for line in lines {
            main.tracer
                .time(write, || writeln!(sink.writer, "{line}"))?;
        }
    }
    let flushed = main.tracer.time(write, || sink.finish());
    let (fnv, bytes, kept) = flushed?;
    let end = epoch.elapsed().as_nanos() as u64;
    let stats = cache.stats();
    Ok(SweepReplay {
        tracer: main.tracer,
        fnv,
        bytes,
        kept,
        rows: len as u64,
        render_bytes: main.render_bytes,
        render_allocs: main.render_allocs,
        hits: stats.hits,
        misses: stats.misses,
        distinct: main.distinct,
        window: (start, end),
    })
}

fn sim_settings(seed: u64) -> SimSettings {
    SimSettings {
        replications: SIM_REPS,
        threads_per_cell: 1,
        seed,
        backend: Backend::Simd,
    }
}

/// The `grid_sim` table at `seed`, recomputed from library calls.
pub fn sim_reference(seed: u64, threads: usize) -> Vec<u8> {
    sweep_replay(
        &grid_spec(SIM_GRID),
        Some(sim_settings(seed)),
        threads,
        false,
        true,
    )
    .expect("in-process pipe I/O")
    .kept
    .expect("replay keeps its bytes when asked")
}

/// The in-process replay of the `daemon_mixed` stream (session 0).
struct DaemonReplay {
    tracer: Tracer,
    parse_us: f64,
    render_us: f64,
    /// Interactive submit-to-reply times, µs.
    turnaround_us: Vec<f64>,
    compute_us: f64,
    /// Σ parse + turnaround + render over the interactive queries, s.
    interactive_s: f64,
    tally: Tally,
}

fn daemon_replay(seed: u64) -> DaemonReplay {
    let epoch = Instant::now();
    let batcher = Batcher::new(BatchConfig::default());
    let queries = interactive_queries(seed, 0);
    let table = PipeTable::new();
    let stop = AtomicBool::new(false);
    let (mut ti, mut tp) = (Tracer::new(true, epoch), Tracer::new(true, epoch));
    let mut turnaround_us = Vec::with_capacity(queries.len());
    let mut tally = Tally::default();
    let mut interactive_s = 0.0;
    let pipe_tally = std::thread::scope(|s| {
        let pipe = s.spawn(|| {
            let (parse, turn, render) = (
                tp.layer("protocol.parse"),
                tp.layer("batcher.burst_turnaround"),
                tp.layer("protocol.render"),
            );
            let mut tally = Tally::default();
            let mut next_index = table.indices(seed, 0);
            let (mut buf, mut scratch) = (Vec::new(), Vec::new());
            let mut id = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut indices = Vec::with_capacity(BURST);
                buf.clear();
                for k in 0..BURST as u64 {
                    let index = next_index();
                    table.push_request(&mut buf, id + k + 1, index);
                    indices.push(index);
                }
                let text = std::str::from_utf8(&buf).expect("request lines are UTF-8");
                let submitted: Vec<_> = text
                    .lines()
                    .map(|line| {
                        let req = tp.time(parse, || Request::from_json_str(line));
                        let req = req.expect("replayed requests parse");
                        let start = epoch.elapsed().as_nanos() as u64;
                        (req.id, start, batcher.submit(req.query))
                    })
                    .collect();
                for ((rid, start, rx), index) in submitted.into_iter().zip(indices) {
                    let outcome = rx.recv().unwrap_or_else(|_| Err("batcher gone".into()));
                    tp.record(turn, start, epoch.elapsed().as_nanos() as u64);
                    let line = tp.time(render, || Response { id: rid, outcome }.to_json_string());
                    tally.record(&[!table.reply_matches(
                        line.as_bytes(),
                        rid,
                        index,
                        &mut scratch,
                    )]);
                }
                id += BURST as u64;
            }
            tally
        });
        let (parse, turn, render) = (
            ti.layer("protocol.parse"),
            ti.layer("batcher.turnaround"),
            ti.layer("protocol.render"),
        );
        let request = ti.layer("daemon.request");
        for q in &queries {
            // One request: parse, queue and compute in the batcher, render.
            let t0 = Instant::now();
            let line = ti.scope(request, |ti| {
                let req = ti.time(parse, || Request::from_json_str(&q.request));
                let req = req.expect("replayed requests parse");
                let start = epoch.elapsed().as_nanos() as u64;
                let outcome = batcher
                    .submit(req.query)
                    .recv()
                    .unwrap_or_else(|_| Err("batcher gone".into()));
                let end = epoch.elapsed().as_nanos() as u64;
                ti.record(turn, start, end);
                turnaround_us.push((end - start) as f64 * 1e-3);
                ti.time(render, || {
                    Response {
                        id: req.id,
                        outcome,
                    }
                    .to_json_string()
                })
            });
            interactive_s += t0.elapsed().as_secs_f64();
            tally.record(&[line != q.expected]);
        }
        stop.store(true, Ordering::Relaxed);
        pipe.join().expect("pipelined replay thread panicked")
    });
    batcher.shutdown();
    tally.add(pipe_tally);
    let compute = ti.layer("batcher.compute");
    for q in &queries {
        ti.time(compute, || {
            black_box(Theorem::Four.optimize(black_box(&q.platform), black_box(&q.costs)))
        });
    }
    ti.absorb(tp);
    let per_us = |t: &Tracer, name: &str| t.total_s(name) * 1e6 / t.count(name).max(1) as f64;
    DaemonReplay {
        parse_us: per_us(&ti, "protocol.parse"),
        render_us: per_us(&ti, "protocol.render"),
        compute_us: per_us(&ti, "batcher.compute"),
        turnaround_us,
        interactive_s,
        tally,
        tracer: ti,
    }
}

/// Runs every layer measurement; returns the per-layer metrics, the
/// tally of the checks made along the way, and the spans.
pub fn traced(cfg: &Config, workload: &str) -> io::Result<(Vec<Metric>, Tally, Tracer)> {
    let mut m: Vec<Metric> = Vec::new();
    let mut tally = Tally::default();
    let epoch = Instant::now();
    let mut t = Tracer::new(true, epoch);

    // Sweep layers on the 100³ grid: untraced first, then traced; the
    // difference is the tracing overhead at its densest call site.
    let spec = grid_spec(ANALYTIC_GRID);
    let clock = Instant::now();
    let plain = sweep_replay(&spec, None, 1, false, false)?;
    let plain_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let grid = sweep_replay(&spec, None, 1, true, false)?;
    let traced_s = clock.elapsed().as_secs_f64();
    for r in [&plain, &grid] {
        tally.record(&[r.bytes != GRID_BYTES || r.fnv != GRID_FNV]);
    }
    let gt = &grid.tracer;
    let lookups = (grid.hits + grid.misses).max(1) as f64;
    m.extend([
        ("sweep.expand_s", gt.total_s("sweep.expand"), "s"),
        ("cache.hits", grid.hits as f64, "count"),
        ("cache.misses", grid.misses as f64, "count"),
        ("cache.hit_ratio", grid.hits as f64 / lookups, "ratio"),
        ("cache.probe_s", gt.total_s("cache.probe"), "s"),
        ("cache.miss_s", gt.total_s("cache.miss"), "s"),
        ("optimal.derives", grid.distinct.len() as f64, "count"),
    ]);
    let derive = t.layer("optimal.derive");
    for (p, c, th) in &grid.distinct {
        t.time(derive, || {
            black_box(th.optimize(black_box(p), black_box(c)))
        });
    }
    let recompute = t.layer("optimal.recompute");
    for i in 0..spec.len() {
        let cell = spec.cell_at(i);
        t.time(recompute, || {
            black_box(
                cell.theorem
                    .optimize(black_box(&cell.platform), &cell.costs),
            )
        });
    }
    m.extend([
        ("optimal.derive_s", t.total_s("optimal.derive"), "s"),
        ("optimal.recompute_s", t.total_s("optimal.recompute"), "s"),
        ("render.s", gt.total_s("render"), "s"),
        ("render.rows", grid.rows as f64, "count"),
        ("render.bytes", grid.render_bytes as f64, "B"),
        (
            "render.allocs_per_row",
            grid.render_allocs as f64 / grid.rows as f64,
            "count",
        ),
        ("write.s", gt.total_s("write"), "s"),
        ("write.bytes", grid.bytes as f64, "B"),
        ("trace.overhead_ratio", traced_s / plain_s - 1.0, "ratio"),
    ]);
    let grid_layers_s: f64 = [
        "sweep.expand",
        "cache.probe",
        "cache.miss",
        "render",
        "write",
    ]
    .iter()
    .map(|l| gt.total_s(l))
    .sum();
    drop(plain);

    // Executor: the same grid, serial and threaded, into a black_box sink.
    for (name, threads) in [("executor.serial", 1), ("executor.threaded", cfg.threads)] {
        let exec = SweepExecutor::new(threads);
        let layer = t.layer(name);
        t.time(layer, || {
            exec.run_streaming_range(&spec, 0..spec.len(), None, |r| {
                black_box(r);
            })
        });
    }
    let (serial, threaded) = (t.total_s("executor.serial"), t.total_s("executor.threaded"));
    m.extend([
        ("executor.serial_s", serial, "s"),
        ("executor.threaded_s", threaded, "s"),
        ("executor.scaling", serial / threaded, "ratio"),
    ]);

    // Simulate: the grid_sim table at the run's seed.
    let sim = sweep_replay(
        &grid_spec(SIM_GRID),
        Some(sim_settings(cfg.seed)),
        cfg.threads,
        true,
        true,
    )?;
    let st = &sim.tracer;
    let reps = sim.rows as f64 * SIM_REPS as f64;
    m.extend([
        ("sim.simulate_s", st.total_s("sim.simulate"), "s"),
        ("sim.reps", reps, "count"),
        ("sim.reps_per_s", reps / st.total_s("sim.simulate"), "1/s"),
    ]);
    let sim_intervals: Vec<(u64, u64)> = [
        "sweep.expand",
        "cache.probe",
        "cache.miss",
        "sim.simulate",
        "render",
        "write",
    ]
    .iter()
    .flat_map(|l| st.kept_intervals(l))
    .collect();
    let sim_attributed_s = coverage(sim.window, &sim_intervals) as f64 * 1e-9;

    // Daemon layers: in-process replay, then one TCP session for the
    // round trip and the daemon's own counters.
    let replay = daemon_replay(cfg.seed);
    tally.add(replay.tally);
    let table = PipeTable::new();
    let session = daemon::session(&cfg.cli, cfg.seed, 0, &table)?;
    tally.add(session.tally);
    let turn_p50 = nearest_rank(&replay.turnaround_us, 50.0);
    let turn_p90 = tail_percentile(&replay.turnaround_us, 90.0)
        .ok_or_else(|| io::Error::other("too few turnaround samples for p90"))?;
    let rtt_p50_us = median(&session.rtts) * 1e6;
    let turn_mean = replay.turnaround_us.iter().sum::<f64>() / replay.turnaround_us.len() as f64;
    m.extend([
        ("protocol.parse_us", replay.parse_us, "us"),
        ("protocol.render_us", replay.render_us, "us"),
        ("batcher.turnaround_us_p50", turn_p50, "us"),
        ("batcher.turnaround_us_p90", turn_p90, "us"),
        ("batcher.compute_us", replay.compute_us, "us"),
        ("batcher.wait_us", turn_mean - replay.compute_us, "us"),
        (
            "server.transport_us",
            rtt_p50_us - (replay.parse_us + turn_p50 + replay.render_us),
            "us",
        ),
    ]);
    let st = session
        .stats
        .ok_or_else(|| io::Error::other("daemon stats query failed"))?;
    // The adaptive window is a setting the daemon reports, in steps of
    // its 50 µs minimum, not a measured time: it goes to stderr only.
    eprintln!(
        "perfbench: daemon stats after one session: {} requests, {} batches, window {} us",
        st.requests, st.batches, st.window_us
    );
    let batches = st.batches.max(1) as f64;
    let lookups = (st.cache_hits + st.cache_misses).max(1) as f64;
    m.extend([
        ("batcher.batches", st.batches as f64, "count"),
        ("batcher.mean_batch", st.requests as f64 / batches, "count"),
        (
            "batcher.coalesced_share",
            st.coalesced_batches as f64 / batches,
            "ratio",
        ),
        (
            "batcher.cache_hit_ratio",
            st.cache_hits as f64 / lookups,
            "ratio",
        ),
    ]);
    t.absorb(replay.tracer);

    // Coordinator phases over the orchestrated slice.
    let coord = coord_layers(cfg, &mut t, &mut tally)?;
    m.extend(coord.metrics.iter().copied());

    // The workload's own wall time, untraced, against the layer self
    // times that account for it.
    let (wall_s, attributed_s) = match workload {
        "grid_analytic" => {
            let run = run_batch(
                &mut e2e::cli(cfg, &e2e::grid_analytic_args(cfg.threads)),
                Vec::new(),
            )?;
            tally.record(&[!run.exit.status.success() || !e2e::grid_output_ok(&run.stdout)]);
            (run.wall_s, grid_layers_s)
        }
        "grid_sim" => {
            let run = run_batch(
                &mut e2e::cli(cfg, &e2e::grid_sim_args(cfg.threads, cfg.seed)),
                Vec::new(),
            )?;
            let same = Some(&run.stdout) == sim.kept.as_ref();
            tally.record(&[!run.exit.status.success() || !same]);
            (run.wall_s, sim_attributed_s)
        }
        "orchestrate_slice" => (coord.wall_s, coord.attributed_s),
        _ => (session.wall_s, session.setup_s + replay.interactive_s),
    };
    m.push(("unattributed_s", wall_s - attributed_s, "s"));
    t.absorb(grid.tracer);
    t.absorb(sim.tracer);
    Ok((m, tally, t))
}

struct Coord {
    metrics: Vec<Metric>,
    wall_s: f64,
    attributed_s: f64,
}

fn coord_layers(cfg: &Config, t: &mut Tracer, tally: &mut Tally) -> io::Result<Coord> {
    let spec = grid_spec(ANALYTIC_GRID);
    let slice = 0..spec.len() / COORD_SLICES;
    let prewarm = t.layer("coord.prewarm");
    let snapshot = t.time(prewarm, || {
        let mut seen = HashSet::new();
        let mut keys = Vec::new();
        let mut cells = Vec::new();
        for cell in spec.iter_range(slice.clone()) {
            let key = OptimumKey::new(&cell.platform, &cell.costs, cell.theorem);
            if seen.insert(key) {
                keys.push(key);
                cells.push((cell.platform, cell.costs));
            }
        }
        let warm = OptimumCache::new();
        warm.seed(keys.into_iter().zip(theorem4_batch(&cells)));
        snapshot_string(&warm)
    });
    let parse = t.layer("coord.snapshot_parse");
    let parsed = t.time(parse, || parse_snapshot(&snapshot));
    tally.record(&[parsed.is_err()]);
    drop(parsed);
    let path = cfg.tmp_dir.join("perfbench-warm.snapshot");
    std::fs::write(&path, &snapshot)?;

    let unit_args: Vec<String> = [
        "grid",
        "--grid-size",
        "100",
        "--shard",
        &format!("0/{}", COORD_SLICES * COORD_UNITS),
        "--trailer",
        "--threads",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let cold = run_batch(&mut e2e::cli(cfg, &unit_args), Vec::new())?;
    let mut warm_cmd = e2e::cli(cfg, &unit_args);
    warm_cmd.env("RESILIENCE_CACHE_IN", &path);
    let warm = run_batch(&mut warm_cmd, Vec::new())?;
    std::fs::remove_file(&path)?;

    let orch = run_batch(&mut e2e::cli(cfg, &e2e::orchestrate_args()), Vec::new())?;
    let verify = t.layer("coord.verify");
    let digest = t.time(verify, || Fnv64::of(&orch.stdout));
    let summary = e2e::coord_summary(&orch.stderr);
    let unit_ok = |r: &crate::proc::BatchRun| {
        r.exit.status.success()
            && !r.stdout.is_empty()
            && orch.stdout.len() == SLICE_BYTES
            && orch.stdout.starts_with(&r.stdout)
    };
    tally.record(&[!unit_ok(&cold)]);
    tally.record(&[!unit_ok(&warm)]);
    tally.record(&[
        !orch.exit.status.success(),
        digest != e2e::SLICE_FNV,
        summary.is_none_or(|(_, retries)| retries > 0),
    ]);
    let (spawns, retries) = summary.unwrap_or((0, 0));
    let units = COORD_UNITS as f64;
    let parse_s = t.total_s("coord.snapshot_parse") * units;
    let rounds = COORD_UNITS.div_ceil(COORD_WORKERS) as f64;
    let attributed_s =
        t.total_s("coord.prewarm") + rounds * warm.wall_s + t.total_s("coord.verify");
    Ok(Coord {
        metrics: vec![
            ("coord.prewarm_s", t.total_s("coord.prewarm"), "s"),
            ("coord.snapshot_bytes", snapshot.len() as f64, "B"),
            ("coord.snapshot_parse_s", parse_s, "s"),
            ("coord.unit_run_cold_s", cold.wall_s, "s"),
            ("coord.unit_run_warm_s", warm.wall_s, "s"),
            ("coord.verify_s", t.total_s("coord.verify"), "s"),
            ("coord.spawns", spawns as f64, "count"),
            ("coord.retries", retries as f64, "count"),
        ],
        wall_s: orch.wall_s,
        attributed_s,
    })
}
