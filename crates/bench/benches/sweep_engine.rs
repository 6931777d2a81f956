//! Sweep-engine throughput: wall-clock of a multi-point figure sweep executed
//! serially (one worker), on the in-process chunk scheduler
//! (`CYCLONE_THREADS`, default 4 here), and across a fleet of worker
//! **processes** (`CYCLONE_SHARDS`, default 4 — spawn, shard-local caches,
//! merge, final assemble), plus adaptive-vs-fixed sampling cost per figure.
//! Each run overwrites `BENCH_sweep.json` at the repository root, so the file
//! always holds the current commit's numbers.
//!
//! Two figure-shaped workloads are measured: the Fig. 5 latency×LER sweep (two HGP
//! codes × six latency-division factors) and the Fig. 14 LER-comparison sweep (two
//! BB codes × the error-rate grid × {baseline, cyclone}). Points are embarrassingly
//! parallel, so both the pool and the fleet speedups track the host's usable
//! cores; the JSON records `host_cores` *and* `worker_processes`, and on a
//! single-core host it records an explicit `scaling_not_measurable` reason with
//! the raw seconds instead of a misleading ~1.0× speedup figure. Serial,
//! threaded, and sharded runs must produce bit-identical estimates — this
//! binary asserts it, making it a determinism check as well as a benchmark.
//! Under `CYCLONE_ENFORCE=1` the sharded speedup also becomes a hard floor on
//! multi-core hosts (≥1.5× at 4+ cores, ≥1.15× at 2–3).
//!
//! The adaptive comparison runs each workload twice at the same per-point cap: once
//! with the fixed budget, once precision-targeted (target rse 0.1, ≥100 failures,
//! `max_shots` = the fixed budget). Every adaptive point therefore ends either
//! *bit-identical* to the fixed point (cap-bound low-LER points) or at the target
//! precision with the surplus shots saved (high-LER points); the JSON records
//! wall-clock and total shots spent for both modes, per figure.
//!
//! `--shots` / `CYCLONE_SHOTS` scales the per-point work (CI uses 50); the
//! settings resolve through [`RunContext`] like every figure's. The binary
//! re-execs itself as the fleet's workers (`--worker-shard i/N --fleet-dir DIR
//! --worker-shots S`, plus `--decode-cache-dir` when set); those flags are
//! internal to the measurement.

use bench::runner::{merge_shard_caches, shard_cache_dir, RunContext};
use cyclone::experiments::{fig5_spec, ler_comparison_spec};
use cyclone::sweep::{run_sweep, ScenarioSpec, Shard, SweepOptions, SweepResult};
use decoder::memory::{MemoryConfig, PrecisionTarget};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Latency division factors: six per code, so the pool has enough points to fill
/// four workers.
const SPEEDUPS: [f64; 6] = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0];

/// Fleet size when `--shards` / `CYCLONE_SHARDS` asks for fewer than two
/// worker processes, which would measure no fleet at all.
const DEFAULT_WORKER_PROCESSES: usize = 4;

/// Sharded-throughput regression floor under `CYCLONE_ENFORCE=1` on hosts with
/// 4+ cores: 4 worker processes over 12 embarrassingly parallel points must
/// beat serial by well over this much; the slack absorbs spawn + merge
/// overhead and CI noise.
const ENFORCE_SHARDED_SPEEDUP_4CORE: f64 = 1.5;

/// The gentler floor for 2–3 core hosts.
const ENFORCE_SHARDED_SPEEDUP_2CORE: f64 = 1.15;

/// Per-point shot floor of the serial-vs-sharded comparison. Each worker
/// process pays a fixed ~0.5 s startup (mostly HGP code construction, paid in
/// parallel across the fleet), so the measured pipeline only reflects *scaling*
/// when per-point compute dominates it; 24k shots/point puts the serial
/// reference around 3 s, which a 4-process fleet on 4+ cores beats by well over
/// 2× including spawn + merge + assemble. The threaded and adaptive sections
/// keep the cheaper `CYCLONE_SHOTS`-scaled budget.
const FLEET_SHOTS_FLOOR: usize = 24_000;

fn config(threads: usize, shots: usize) -> MemoryConfig {
    MemoryConfig {
        shots,
        bp_iterations: 30,
        threads,
        seed: 0xC1C1_0DE5,
    }
}

/// The fleet's shared measurement workload (workers rebuild it identically).
fn fig5_workload() -> ScenarioSpec {
    let codes = vec![
        qec::codes::hgp_100().expect("construction"),
        qec::codes::hgp_225_9_6().expect("construction"),
    ];
    fig5_spec(&codes, 5e-4, &SPEEDUPS)
}

fn timed_run(spec: &ScenarioSpec, options: &SweepOptions) -> (SweepResult, f64) {
    let start = Instant::now();
    let result = run_sweep(spec, options);
    (result, start.elapsed().as_secs_f64())
}

/// Applies the fleet-shared decode-cache directory, if one was requested (the
/// sharded path's warm-start lever; estimates are bit-identical either way).
fn with_decode_cache(options: SweepOptions, dir: Option<&Path>) -> SweepOptions {
    match dir {
        Some(dir) => options.with_decode_cache_dir(dir),
        None => options,
    }
}

/// Worker-process entry: compute this shard of the fig5 workload into its
/// shard-local cache under the fleet directory, checkpointing per point.
fn worker_main(shard: Shard, fleet_dir: &Path, shots: usize, decode_cache_dir: Option<&Path>) {
    let spec = fig5_workload();
    let options = SweepOptions::cached(config(1, shots), shard_cache_dir(fleet_dir, shard))
        .with_shard(shard)
        .with_checkpoint(1)
        .with_fallback_cache_dir(fleet_dir);
    let result = run_sweep(&spec, &with_decode_cache(options, decode_cache_dir));
    assert_eq!(
        result.computed + result.cache_hits + result.skipped,
        spec.points.len()
    );
}

/// The full multi-process pipeline, timed end to end: spawn one worker process
/// per shard, wait, merge the shard-local caches, and assemble the final result
/// from the merged cache. Returns the assembled result and the wall-clock of
/// the whole pipeline (spawn → merge → assemble), which is what a user of
/// `--shards N` actually waits for.
fn timed_sharded(
    shots: usize,
    workers: usize,
    fleet_dir: &Path,
    decode_cache_dir: Option<&Path>,
) -> (SweepResult, f64) {
    let _ = std::fs::remove_dir_all(fleet_dir);
    // cyclone-lint: allow(io-unwrap) -- bench harness setup is fail-fast: no fleet dir means no shards to measure
    std::fs::create_dir_all(fleet_dir).expect("create fleet dir");
    // cyclone-lint: allow(io-unwrap) -- bench harness setup is fail-fast: cannot re-spawn shards without our own path
    let exe = std::env::current_exe().expect("own executable path");
    let spec = fig5_workload();

    let start = Instant::now();
    let mut children = Vec::new();
    for index in 0..workers {
        let mut worker = std::process::Command::new(&exe);
        worker
            .arg("--worker-shard")
            .arg(format!("{index}/{workers}"))
            .arg("--fleet-dir")
            .arg(fleet_dir)
            .arg("--worker-shots")
            .arg(shots.to_string());
        if let Some(dir) = decode_cache_dir {
            worker.arg("--decode-cache-dir").arg(dir);
        }
        let child = worker
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn fleet worker");
        children.push(child);
    }
    for mut child in children {
        let status = child.wait().expect("wait for fleet worker");
        assert!(status.success(), "fleet worker failed with {status}");
    }
    merge_shard_caches(fleet_dir).expect("merge shard caches");
    let (result, _) = timed_run(
        &spec,
        &with_decode_cache(
            SweepOptions::cached(config(1, shots), fleet_dir),
            decode_cache_dir,
        ),
    );
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        result.cache_hits,
        spec.points.len(),
        "the merged fleet cache must serve every point"
    );
    (result, elapsed)
}

/// One figure's adaptive-vs-fixed measurement, rendered as a JSON object literal.
fn adaptive_vs_fixed(figure: &str, spec: &ScenarioSpec, threads: usize, shots: usize) -> String {
    let target = &PrecisionTarget::new(0.1, 100, shots);
    let (fixed, fixed_seconds) = timed_run(spec, &SweepOptions::ephemeral(config(threads, shots)));
    let (adaptive, adaptive_seconds) = timed_run(
        spec,
        &SweepOptions::ephemeral(config(threads, shots)).with_precision(*target),
    );
    let fixed_shots = fixed.total_shots();
    let adaptive_shots = adaptive.total_shots();
    // Sanity: with max_shots == the fixed budget, every adaptive point is either
    // bit-identical to the fixed point (cap-bound) or stopped at the target — so
    // every point's std_err is at-or-below max(fixed std_err, target_rse × ler).
    let mut identical = 0usize;
    let mut at_target = 0usize;
    for (f, a) in fixed.points.iter().zip(&adaptive.points) {
        if a.ler == f.ler {
            identical += 1;
        } else {
            assert!(
                target.met_by(a.ler.shots, a.ler.failures),
                "early-stopped point {} missed the precision target",
                a.id
            );
            at_target += 1;
        }
    }
    let shots_saved = fixed_shots as f64 / adaptive_shots.max(1) as f64;
    let speedup = fixed_seconds / adaptive_seconds.max(1e-12);
    println!("  {figure} ({shots} shots/point cap): fixed {fixed_shots} shots / {fixed_seconds:.3} s, adaptive {adaptive_shots} shots / {adaptive_seconds:.3} s ({shots_saved:.1}x fewer shots, {speedup:.1}x wall-clock)");
    println!("    {at_target} points stopped at target rse {}, {identical} cap-bound points bit-identical to fixed", target.target_rse);
    format!(
        "{{\n      \"figure\": \"{figure}\",\n      \"points\": {},\n      \
         \"shots_per_point_cap\": {shots},\n      \
         \"target_rse\": {},\n      \
         \"min_failures\": {},\n      \
         \"fixed_seconds\": {fixed_seconds:.4},\n      \
         \"fixed_total_shots\": {fixed_shots},\n      \
         \"fixed_max_rse\": {:.4},\n      \
         \"adaptive_seconds\": {adaptive_seconds:.4},\n      \
         \"adaptive_total_shots\": {adaptive_shots},\n      \
         \"adaptive_max_rse\": {:.4},\n      \
         \"points_at_target\": {at_target},\n      \
         \"points_cap_bound_bit_identical\": {identical},\n      \
         \"shots_saved_factor\": {shots_saved:.3},\n      \
         \"wall_clock_speedup\": {speedup:.3}\n    }}",
        spec.points.len(),
        target.target_rse,
        target.min_failures,
        fixed.max_relative_std_err(),
        adaptive.max_relative_std_err(),
    )
}

fn main() {
    // Worker re-exec: `--worker-shard i/N --fleet-dir DIR --worker-shots S
    // [--decode-cache-dir DIR]` is this binary calling itself; compute the
    // shard and exit.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    if let Some(raw) = flag("--worker-shard") {
        let shard = Shard::parse(raw).expect("valid --worker-shard i/N");
        let fleet_dir = PathBuf::from(flag("--fleet-dir").expect("--fleet-dir"));
        let shots = flag("--worker-shots")
            .and_then(|s| s.parse().ok())
            .expect("--worker-shots");
        let decode_cache_dir = flag("--decode-cache-dir").map(Path::new);
        worker_main(shard, &fleet_dir, shots, decode_cache_dir);
        return;
    }
    let ctx = RunContext::from_env();
    let decode_cache_dir = ctx.sweep.decode_cache_dir.as_deref();

    // Scale up the per-point work so the measurement dominates thread startup and
    // timer noise (1000 shots/point in CI quick mode, 8000 by default).
    let shots = 20 * ctx.config.shots;
    let threaded_workers = match ctx.config.threads {
        0 | 1 => 4,
        n => n,
    };
    let worker_processes = if ctx.shards < 2 {
        DEFAULT_WORKER_PROCESSES
    } else {
        ctx.shards
    };
    let spec = fig5_workload();
    let points = spec.points.len();

    // Warm-up pass (decoder construction paths, page cache) — not timed.
    let _ = timed_run(&spec, &SweepOptions::ephemeral(config(1, shots.min(20))));

    let (serial, serial_seconds) = timed_run(&spec, &SweepOptions::ephemeral(config(1, shots)));
    let (threaded, threaded_seconds) = timed_run(
        &spec,
        &SweepOptions::ephemeral(config(threaded_workers, shots)),
    );
    // The multi-process comparison runs at its own (larger) budget so per-point
    // compute dominates the fleet's fixed per-process startup.
    let fleet_shots = shots.max(FLEET_SHOTS_FLOOR);
    let (fleet_serial, fleet_serial_seconds) =
        timed_run(&spec, &SweepOptions::ephemeral(config(1, fleet_shots)));
    let fleet_dir =
        std::env::temp_dir().join(format!("cyclone-sweep-fleet-{}", std::process::id()));
    let (sharded, sharded_seconds) =
        timed_sharded(fleet_shots, worker_processes, &fleet_dir, decode_cache_dir);
    let _ = std::fs::remove_dir_all(&fleet_dir);

    // The engine must be bit-identical at any pool size and any process count.
    for (a, b) in serial.points.iter().zip(&threaded.points) {
        assert_eq!(
            a.ler.failures, b.ler.failures,
            "point {} diverged across pool sizes",
            a.id
        );
        assert_eq!(a.ler.ler, b.ler.ler);
    }
    for (a, b) in fleet_serial.points.iter().zip(&sharded.points) {
        assert_eq!(
            a.ler.failures, b.ler.failures,
            "point {} diverged across the process fleet",
            a.id
        );
        assert_eq!(a.ler.ler, b.ler.ler);
        assert_eq!(a.ler.std_err, b.ler.std_err);
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threaded_speedup = serial_seconds / threaded_seconds;
    let sharded_speedup = fleet_serial_seconds / sharded_seconds;
    let serial_pps = points as f64 / serial_seconds;
    let threaded_pps = points as f64 / threaded_seconds;
    let fleet_serial_pps = points as f64 / fleet_serial_seconds;
    let sharded_pps = points as f64 / sharded_seconds;

    println!("sweep engine, fig5-shaped sweep: {points} points x {shots} shots");
    println!("  host cores                {host_cores}");
    println!("  serial (1 worker)         {serial_seconds:>8.3} s  ({serial_pps:.2} points/sec)");
    println!(
        "  threaded ({threaded_workers} workers)     {threaded_seconds:>8.3} s  ({threaded_pps:.2} points/sec)"
    );
    println!("fleet comparison, same 12 points x {fleet_shots} shots:");
    println!(
        "  serial (1 process)        {fleet_serial_seconds:>8.3} s  ({fleet_serial_pps:.2} points/sec)"
    );
    println!(
        "  sharded ({worker_processes} processes)    {sharded_seconds:>8.3} s  ({sharded_pps:.2} points/sec, spawn+merge+assemble included)"
    );
    if host_cores == 1 {
        println!(
            "  (single-core host: {threaded_speedup:.2}x threaded / {sharded_speedup:.2}x sharded \
             ratios are NOT scaling measurements — everything shares one core)"
        );
    } else {
        println!("  threaded wall-clock speedup  {threaded_speedup:.2}x");
        println!("  sharded  wall-clock speedup  {sharded_speedup:.2}x");
    }

    // On a multi-core host the fleet must actually scale; a single core cannot
    // show a wall-clock win, so there is nothing to enforce there.
    if ctx.enforce && host_cores >= 2 {
        let floor = if host_cores >= 4 {
            ENFORCE_SHARDED_SPEEDUP_4CORE
        } else {
            ENFORCE_SHARDED_SPEEDUP_2CORE
        };
        assert!(
            sharded_speedup >= floor,
            "sharded sweep regressed: {sharded_speedup:.2}x < {floor}x floor \
             ({host_cores} cores, {worker_processes} worker processes)"
        );
        println!("  CYCLONE_ENFORCE: sharded speedup {sharded_speedup:.2}x >= {floor}x floor");
    }

    // Adaptive vs fixed, per figure, at the same per-point shot cap (so every
    // adaptive point is either cap-bound bit-identical to fixed, or at target).
    println!("adaptive vs fixed (target rse 0.1, >=100 failures, max_shots = fixed budget):");
    let bb_codes = vec![
        qec::codes::bb_72_12_6().expect("construction"),
        qec::codes::bb_90_8_10().expect("construction"),
    ];
    let (fig14, _) = ler_comparison_spec("fig14_bb_ler", &bb_codes, &bench::error_rate_grid());
    // Fig. 9 is the high-LER showcase (mesh junction latencies push the LER to
    // 5e-3..0.25): at a full-shot budget (5x the engine workload above) its
    // high-failure points stop orders of magnitude early.
    let sens = bench::sensitivity_code();
    let (fig9, _) = cyclone::experiments::fig9_spec(&sens, 5e-4, &[0.0, 0.3, 0.5, 0.7, 0.9]);
    let figures = [
        adaptive_vs_fixed("fig05_latency_vs_ler", &spec, threaded_workers, shots),
        adaptive_vs_fixed("fig14_bb_ler", &fig14, threaded_workers, shots),
        adaptive_vs_fixed(
            "fig09_junction_sensitivity",
            &fig9,
            threaded_workers,
            5 * shots,
        ),
    ];

    // Speedup ratios are only recorded when they measure something: on a
    // single-core host the explicit reason replaces them (the raw seconds and
    // points/sec stay, and stay honest).
    let scaling = if host_cores > 1 {
        format!(
            "\"threaded_speedup\": {threaded_speedup:.3},\n  \
             \"sharded_speedup\": {sharded_speedup:.3},"
        )
    } else {
        "\"scaling_not_measurable\": \"host_cores == 1: serial, threaded, and sharded runs all \
         share one core, so their wall-clock ratios measure scheduling overhead, not scaling; \
         raw seconds and points/sec are recorded above\","
            .to_string()
    };
    let json = format!(
        "{{\n  \"sweep\": \"fig5_latency_vs_ler\",\n  \"points\": {points},\n  \
         \"shots_per_point\": {shots},\n  \
         \"host_cores\": {host_cores},\n  \
         \"serial_seconds\": {serial_seconds:.4},\n  \
         \"threaded_workers\": {threaded_workers},\n  \
         \"threaded_seconds\": {threaded_seconds:.4},\n  \
         \"worker_processes\": {worker_processes},\n  \
         \"sharded_shots_per_point\": {fleet_shots},\n  \
         \"fleet_serial_seconds\": {fleet_serial_seconds:.4},\n  \
         \"sharded_seconds\": {sharded_seconds:.4},\n  \
         \"serial_points_per_sec\": {serial_pps:.3},\n  \
         \"threaded_points_per_sec\": {threaded_pps:.3},\n  \
         \"fleet_serial_points_per_sec\": {fleet_serial_pps:.3},\n  \
         \"sharded_points_per_sec\": {sharded_pps:.3},\n  \
         {scaling}\n  \
         \"bit_identical_across_pool_sizes\": true,\n  \
         \"bit_identical_across_process_fleet\": true,\n  \
         \"adaptive_vs_fixed\": [{}\n  ]\n}}\n",
        figures
            .iter()
            .map(|f| format!("\n    {f}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    // cyclone-lint: allow(io-unwrap) -- bench artifact write is fail-fast by design: a partial BENCH_sweep.json must abort the run, not pass CI
    std::fs::write(path, json).expect("write BENCH_sweep.json");
    println!("  wrote {path}");
}
